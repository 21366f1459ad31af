// DataNode: per-node block store with CRC-32C integrity, the byte-level
// half of the mini-HDFS data plane. The paper's implementation lives
// inside Facebook's HDFS-RAID (hadoop-0.20); this in-process analogue keeps
// the same responsibilities: store block replicas, serve reads, detect
// corruption, lose everything on node failure.
//
// Thread-safe: each DataNode guards its block map with its own mutex, so
// the node is one shard of the DFS-wide store and operations on different
// nodes never contend. A stored block is immutable -- a SharedBlock plus the
// CRC computed when it was written -- so the mutex covers only the map
// lookup or insert. Both reads verify the CRC over the whole block outside
// it: get() hands out the stored block itself, uncopied, so a gather or a
// plan executor reads the node's own bytes; read_into() copies a range of
// it into the caller's memory in the same pass as the verify, so a byte-
// range read lands each block in its window with one pass over it.
// Concurrent reads of one node run in parallel, and corrupt() replaces the
// block instead of editing it, so a reader already holding it keeps intact
// bytes. put() keeps the block it is given, so one stored block may back
// several slots: a write stores each symbol's block in all of its replica
// slots, and repair by transfer stores a twin's block. Each slot keeps its
// own CRC, and corrupt() replaces only its own slot's block. Liveness is a
// separate atomic so is_up() probes never touch the block-map lock.
#pragma once

#include <atomic>
#include <map>
#include <mutex>

#include "cluster/catalog.h"
#include "common/bytes.h"
#include "common/status.h"

namespace dblrep::hdfs {

class DataNode {
 public:
  explicit DataNode(cluster::NodeId id) : id_(id) {}

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  cluster::NodeId id() const { return id_; }
  bool is_up() const { return up_.load(std::memory_order_acquire); }

  /// Stores a block replica (overwrites an existing one). The node keeps
  /// `block` itself; reads hand the same bytes back.
  Status put(cluster::SlotAddress address, SharedBlock block);

  /// Takes ownership of `bytes` without copying them.
  Status put(cluster::SlotAddress address, Buffer bytes) {
    return put(address, SharedBlock(std::move(bytes)));
  }

  /// Copies `bytes` into node-owned storage, for a writer whose bytes live
  /// in scratch memory.
  Status put(cluster::SlotAddress address, ByteSpan bytes) {
    return put(address, Buffer(bytes.begin(), bytes.end()));
  }

  /// Reads a block replica: the stored block itself, after checking its
  /// CRC. Nothing is copied.
  Result<SharedBlock> get(cluster::SlotAddress address) const;

  /// Reads bytes [offset, offset + dst.size()) of a block replica into
  /// `dst`, checking the CRC over the *whole* block in the same pass
  /// (crc32c_copy over the range, plain crc32c over the rest): CORRUPTION
  /// if any byte of the block is bad, UNAVAILABLE if the node is down,
  /// NOT_FOUND if the block is absent, INVALID_ARGUMENT if the range
  /// overruns it. An empty `dst` verifies only. On any error `dst` holds
  /// unspecified bytes.
  Status read_into(cluster::SlotAddress address, std::size_t offset,
                   MutableByteSpan dst) const;

  bool has(cluster::SlotAddress address) const;
  Status drop(cluster::SlotAddress address);

  std::size_t block_count() const;
  std::size_t bytes_stored() const;

  /// Crash: the node goes down and its disk contents are gone.
  void fail();
  /// Transient outage (Ford et al.'s dominant failure class): the node is
  /// unreachable but its disk survives. restart() ends the outage with
  /// every block still present -- no repair needed, unlike fail().
  void offline();
  /// The node returns: empty after fail(), blocks intact after offline().
  void restart();

  /// Test hook: replaces a stored block with a copy that has one byte
  /// flipped and the old CRC, so CRC verification and the read fallback
  /// paths can be exercised. Reads already holding the block are unaffected.
  Status corrupt(cluster::SlotAddress address, std::size_t byte_index);

  /// Diagnostic hook: the stored block, ignoring liveness and skipping CRC
  /// verification. The chaos fingerprints use it to cover offline disks and
  /// corrupted blocks; data-plane reads must go through get().
  Result<SharedBlock> peek(cluster::SlotAddress address) const;

  /// Addresses of every block currently stored.
  std::vector<cluster::SlotAddress> stored_addresses() const;

 private:
  struct StoredBlock {
    SharedBlock bytes;
    std::uint32_t crc = 0;
  };

  /// The block at `address`, looked up under mu_; NOT_FOUND if absent.
  Result<StoredBlock> find(cluster::SlotAddress address) const;

  cluster::NodeId id_;
  std::atomic<bool> up_{true};
  mutable std::mutex mu_;  // guards blocks_
  std::map<cluster::SlotAddress, StoredBlock> blocks_;
};

}  // namespace dblrep::hdfs
