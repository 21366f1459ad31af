#include "cluster/catalog.h"

#include <mutex>

namespace dblrep::cluster {

Status BlockCatalog::register_stripe_at(StripeId id,
                                        const ec::CodeScheme& code,
                                        std::vector<NodeId> group,
                                        bool sealed) {
  if (group.size() != code.num_nodes()) {
    return invalid_argument_error("placement group size != code length");
  }
  std::set<NodeId> unique(group.begin(), group.end());
  if (unique.size() != group.size()) {
    return invalid_argument_error("placement group has duplicate nodes");
  }
  for (NodeId node : group) {
    if (node < 0 || static_cast<std::size_t>(node) >= topology_->num_nodes) {
      return invalid_argument_error("placement group node out of range");
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (stripes_.contains(id)) {
    return already_exists_error("stripe id " + std::to_string(id) +
                                " already in use");
  }
  const auto [it, inserted] = stripes_.emplace(id, StripeInfo{&code, std::move(group), sealed});
  (void)inserted;
  const StripeInfo& info = it->second;
  for (std::size_t slot = 0; slot < code.layout().num_slots(); ++slot) {
    const NodeId node = info.group[static_cast<std::size_t>(
        code.layout().node_of_slot(slot))];
    node_stripes_[node].insert(id);
  }
  return Status::ok();
}

Status BlockCatalog::unregister_stripe(StripeId id) {
  // Announce the deletion, then drain repair leases *before* taking mu_:
  // a leased repair keeps reading catalog state (mu_ shared) while we
  // wait, so waiting under mu_ exclusive would deadlock. New repairs see
  // pending_delete_ and abort instead of joining the drain.
  {
    std::unique_lock<std::mutex> lease_lock(lease_mu_);
    pending_delete_.insert(id);
    lease_cv_.wait(lease_lock,
                   [&] { return !repair_leases_.contains(id); });
  }
  Status removed = Status::ok();
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = stripes_.find(id);
    if (it == stripes_.end() || it->second.code == nullptr) {
      removed = not_found_error("no such stripe");
    } else {
      const StripeInfo& info = it->second;
      for (std::size_t slot = 0; slot < info.code->layout().num_slots();
           ++slot) {
        const NodeId node = info.group[static_cast<std::size_t>(
            info.code->layout().node_of_slot(slot))];
        node_stripes_[node].erase(id);
      }
      it->second.code = nullptr;  // tombstone; ids stay stable
      it->second.group.clear();
    }
  }
  {
    std::lock_guard<std::mutex> lease_lock(lease_mu_);
    pending_delete_.erase(id);
  }
  return removed;
}

Status BlockCatalog::begin_repair(StripeId id) {
  // Take the lease first, then check liveness: unregister_stripe always
  // announces under lease_mu_ before tombstoning, so once we hold a lease
  // with no pending delete, the stripe cannot vanish until end_repair.
  {
    std::lock_guard<std::mutex> lease_lock(lease_mu_);
    if (pending_delete_.contains(id)) {
      return aborted_error("stripe " + std::to_string(id) +
                           " is being deleted");
    }
    ++repair_leases_[id];
  }
  if (!is_registered(id)) {
    end_repair(id);
    return not_found_error("no such stripe");
  }
  return Status::ok();
}

void BlockCatalog::end_repair(StripeId id) {
  std::lock_guard<std::mutex> lease_lock(lease_mu_);
  const auto it = repair_leases_.find(id);
  DBLREP_CHECK_MSG(it != repair_leases_.end() && it->second > 0,
                   "end_repair without matching begin_repair");
  if (--it->second == 0) {
    repair_leases_.erase(it);
    lease_cv_.notify_all();
  }
}

Status BlockCatalog::seal_stripe(StripeId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = stripes_.find(id);
  if (it == stripes_.end() || it->second.code == nullptr) {
    return not_found_error("no such stripe");
  }
  it->second.sealed = true;
  return Status::ok();
}

bool BlockCatalog::is_sealed(StripeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = stripes_.find(id);
  return it != stripes_.end() && it->second.code != nullptr &&
         it->second.sealed;
}

bool BlockCatalog::is_registered(StripeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = stripes_.find(id);
  return it != stripes_.end() && it->second.code != nullptr;
}

std::size_t BlockCatalog::num_stripes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::size_t live = 0;
  for (const auto& [id, info] : stripes_) {
    if (info.code != nullptr) ++live;
  }
  return live;
}

std::vector<StripeId> BlockCatalog::live_stripe_ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<StripeId> ids;
  ids.reserve(stripes_.size());
  for (const auto& [id, info] : stripes_) {
    if (info.code != nullptr) ids.push_back(id);
  }
  return ids;
}

const StripeInfo& BlockCatalog::stripe_unlocked(StripeId id) const {
  const auto it = stripes_.find(id);
  DBLREP_CHECK_MSG(it != stripes_.end(), "stripe " << id << " unknown");
  DBLREP_CHECK_MSG(it->second.code != nullptr, "stripe " << id << " deleted");
  return it->second;
}

const StripeInfo& BlockCatalog::stripe(StripeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return stripe_unlocked(id);
}

NodeId BlockCatalog::node_of_unlocked(SlotAddress address) const {
  const StripeInfo& info = stripe_unlocked(address.stripe);
  return info.group[static_cast<std::size_t>(
      info.code->layout().node_of_slot(address.slot))];
}

NodeId BlockCatalog::node_of(SlotAddress address) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return node_of_unlocked(address);
}

std::vector<NodeId> BlockCatalog::replica_nodes(StripeId id,
                                                std::size_t symbol) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const StripeInfo& info = stripe_unlocked(id);
  std::vector<NodeId> nodes;
  for (std::size_t slot : info.code->layout().slots_of_symbol(symbol)) {
    nodes.push_back(node_of_unlocked({id, slot}));
  }
  return nodes;
}

std::vector<StripeId> BlockCatalog::stripes_on_node(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = node_stripes_.find(node);
  if (it == node_stripes_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace dblrep::cluster
