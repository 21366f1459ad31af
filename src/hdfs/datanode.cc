#include "hdfs/datanode.h"

namespace dblrep::hdfs {

Status DataNode::put(cluster::SlotAddress address, SharedBlock block) {
  if (!is_up()) return unavailable_error("datanode down");
  StoredBlock stored;
  stored.crc = crc32c(block);
  stored.bytes = std::move(block);
  std::lock_guard<std::mutex> lock(mu_);
  // Again under the lock: fail() clears the map after marking the node
  // down, so a put that saw it up must not land after the clear.
  if (!is_up()) return unavailable_error("datanode down");
  blocks_[address] = std::move(stored);
  return Status::ok();
}

Result<DataNode::StoredBlock> DataNode::find(
    cluster::SlotAddress address) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = blocks_.find(address);
  if (it == blocks_.end()) {
    return not_found_error("block not on this datanode");
  }
  return it->second;
}

Result<SharedBlock> DataNode::get(cluster::SlotAddress address) const {
  if (!is_up()) return unavailable_error("datanode down");
  DBLREP_ASSIGN_OR_RETURN(StoredBlock block, find(address));
  if (crc32c(block.bytes) != block.crc) {
    return corruption_error("checksum mismatch on stripe " +
                            std::to_string(address.stripe) + " slot " +
                            std::to_string(address.slot));
  }
  return std::move(block.bytes);
}

bool DataNode::has(cluster::SlotAddress address) const {
  if (!is_up()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.contains(address);
}

Status DataNode::drop(cluster::SlotAddress address) {
  if (!is_up()) return unavailable_error("datanode down");
  std::lock_guard<std::mutex> lock(mu_);
  if (blocks_.erase(address) == 0) {
    return not_found_error("block not on this datanode");
  }
  return Status::ok();
}

std::size_t DataNode::block_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.size();
}

std::size_t DataNode::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [address, block] : blocks_) {
    (void)address;
    total += block.bytes.size();
  }
  return total;
}

void DataNode::fail() {
  up_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.clear();
}

void DataNode::offline() { up_.store(false, std::memory_order_release); }

void DataNode::restart() { up_.store(true, std::memory_order_release); }

Status DataNode::corrupt(cluster::SlotAddress address, std::size_t byte_index) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = blocks_.find(address);
  if (it == blocks_.end()) {
    return not_found_error("block not on this datanode");
  }
  const SharedBlock& old = it->second.bytes;
  if (byte_index >= old.size()) {
    return invalid_argument_error("corrupt index out of range");
  }
  // Copy-on-write: a read already holding the old bytes keeps them intact.
  Buffer flipped(old.begin(), old.end());
  flipped[byte_index] ^= 0xff;
  it->second.bytes = std::move(flipped);  // CRC left stale on purpose
  return Status::ok();
}

Result<SharedBlock> DataNode::peek(cluster::SlotAddress address) const {
  DBLREP_ASSIGN_OR_RETURN(StoredBlock block, find(address));
  return std::move(block.bytes);
}

std::vector<cluster::SlotAddress> DataNode::stored_addresses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<cluster::SlotAddress> out;
  out.reserve(blocks_.size());
  for (const auto& [address, block] : blocks_) {
    (void)block;
    out.push_back(address);
  }
  return out;
}

}  // namespace dblrep::hdfs
