#include "hdfs/namenode.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>

namespace dblrep::hdfs {

namespace {

// FNV-1a: stable across runs and libraries (std::hash is not guaranteed
// to be), so shard assignment -- and with it every shard-local journal --
// is reproducible.
std::uint64_t fnv1a(std::uint64_t h, ByteSpan bytes) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size()));
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, ByteSpan(bytes, 8));
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::vector<std::int32_t> group_to_i32(const std::vector<cluster::NodeId>& g) {
  return std::vector<std::int32_t>(g.begin(), g.end());
}

Status no_open_write(const std::string& path) {
  return failed_precondition_error("no write transaction open for " + path);
}

/// Exclusive locks on `first`, then `second` (one lock if they are one).
std::array<std::unique_lock<std::shared_mutex>, 2> lock_in_order(
    std::shared_mutex& first, std::shared_mutex& second) {
  std::array<std::unique_lock<std::shared_mutex>, 2> locks;
  locks[0] = std::unique_lock(first);
  if (&second != &first) locks[1] = std::unique_lock(second);
  return locks;
}

}  // namespace

FileState to_file_state(const FileInfo& info) {
  FileState state;
  state.code_spec = info.code_spec;
  state.block_size = info.block_size;
  state.length = info.length;
  state.stripes.assign(info.stripes.begin(), info.stripes.end());
  return state;
}

FileInfo to_file_info(const FileState& state, bool sealed) {
  FileInfo info;
  info.code_spec = state.code_spec;
  info.block_size = static_cast<std::size_t>(state.block_size);
  info.length = static_cast<std::size_t>(state.length);
  info.stripes.assign(state.stripes.begin(), state.stripes.end());
  info.sealed = sealed;
  return info;
}

NameNode::NameNode(const cluster::Topology& topology, SchemeResolver resolver,
                   const NameNodeOptions& options)
    : topology_(topology), resolver_(std::move(resolver)), options_(options) {
  options_.shards =
      std::clamp<std::size_t>(options.shards == 0 ? 4 : options.shards, 1, 256);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(topology_));
  }
}

std::size_t NameNode::shard_of(const std::string& path) const {
  return fnv1a_str(kFnvOffset, path) % shards_.size();
}

// ----------------------------------------------------------------- router

std::uint32_t NameNode::route(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  DBLREP_CHECK_MSG(try_route(id, shard), "stripe " << id << " unknown");
  return shard;
}

bool NameNode::try_route(cluster::StripeId id, std::uint32_t& shard) const {
  const RouterBucket& bucket = router_[id % kRouterBuckets];
  std::shared_lock<std::shared_mutex> lock(bucket.mu);
  const auto it = bucket.shard.find(id);
  if (it == bucket.shard.end()) return false;
  shard = it->second;
  return true;
}

void NameNode::router_insert(cluster::StripeId id, std::uint32_t shard) {
  RouterBucket& bucket = router_[id % kRouterBuckets];
  std::unique_lock<std::shared_mutex> lock(bucket.mu);
  bucket.shard[id] = shard;
}

void NameNode::router_erase(cluster::StripeId id) {
  RouterBucket& bucket = router_[id % kRouterBuckets];
  std::unique_lock<std::shared_mutex> lock(bucket.mu);
  bucket.shard.erase(id);
}

void NameNode::router_reset() {
  for (RouterBucket& bucket : router_) {
    std::unique_lock<std::shared_mutex> lock(bucket.mu);
    bucket.shard.clear();
  }
}

// -------------------------------------------------------------- mutations

Status NameNode::apply(Shard& shard, const JournalRecord& record,
                       RemovedFile* removed) {
  // Unregisters the listed stripes this shard's catalog holds (a renamed
  // file's others stay with the shards that allocated them).
  const auto drop_stripes = [&](const auto& ids) {
    for (const cluster::StripeId id : ids) {
      if (!shard.catalog.is_registered(id)) continue;
      auto spec = shard.stripe_specs.extract(id);
      if (removed != nullptr) {
        removed->stripes.push_back(
            {id, std::move(spec.mapped()), shard.catalog.stripe(id).group});
      }
      DBLREP_CHECK(shard.catalog.unregister_stripe(id).is_ok());
    }
  };
  // kAbort and kDelete: the entry's stripes, then the entry itself.
  const auto remove_entry = [&](std::map<std::string, FileInfo>& entries,
                                std::map<std::string, FileInfo>::iterator it) {
    drop_stripes(it->second.stripes);
    if (removed != nullptr) removed->info = std::move(it->second);
    entries.erase(it);
  };
  switch (record.kind) {
    case JournalRecordKind::kCreate: {
      FileInfo info;
      info.code_spec = record.code_spec;
      info.block_size = static_cast<std::size_t>(record.block_size);
      info.sealed = false;
      shard.pending.emplace(record.path, std::move(info));
      return Status::ok();
    }
    case JournalRecordKind::kAllocate: {
      const auto it = shard.pending.find(record.path);
      if (it == shard.pending.end()) return no_open_write(record.path);
      if (record.groups.size() != record.stripes.size()) {
        return internal_error("kAllocate ids/groups mismatch");
      }
      const std::string& spec = it->second.code_spec;
      DBLREP_ASSIGN_OR_RETURN(const ec::CodeScheme* code, resolver_(spec));
      for (std::size_t g = 0; g < record.stripes.size(); ++g) {
        const auto& group = record.groups[g];
        const Status registered = shard.catalog.register_stripe_at(
            record.stripes[g], *code,
            std::vector<cluster::NodeId>(group.begin(), group.end()),
            /*sealed=*/false);
        if (!registered.is_ok()) {
          drop_stripes(std::span(record.stripes).first(g));
          return registered;
        }
        shard.stripe_specs.emplace(record.stripes[g], spec);
      }
      it->second.stripes.insert(it->second.stripes.end(),
                                record.stripes.begin(), record.stripes.end());
      return Status::ok();
    }
    case JournalRecordKind::kStore: {
      const auto it = shard.pending.find(record.path);
      if (it == shard.pending.end()) return no_open_write(record.path);
      it->second.length += static_cast<std::size_t>(record.length);
      return Status::ok();
    }
    case JournalRecordKind::kSeal:
      return shard.catalog.seal_stripe(record.stripe);
    case JournalRecordKind::kCommit: {
      // No sealing here: the write's kSeal records, journaled just before,
      // sealed its stripes.
      const auto it = shard.pending.find(record.path);
      if (it == shard.pending.end()) return no_open_write(record.path);
      auto entry = shard.pending.extract(it);
      entry.mapped().length = static_cast<std::size_t>(record.length);
      entry.mapped().sealed = true;
      shard.files.insert(std::move(entry));
      return Status::ok();
    }
    case JournalRecordKind::kAbort: {
      const auto it = shard.pending.find(record.path);
      if (it == shard.pending.end()) return no_open_write(record.path);
      remove_entry(shard.pending, it);
      return Status::ok();
    }
    case JournalRecordKind::kDelete: {
      const auto it = shard.files.find(record.path);
      if (it == shard.files.end()) return not_found_error(record.path);
      remove_entry(shard.files, it);
      return Status::ok();
    }
    case JournalRecordKind::kRename: {
      const auto it = shard.files.find(record.path);
      if (it == shard.files.end()) return not_found_error(record.path);
      auto entry = shard.files.extract(it);
      entry.key() = record.path2;
      shard.files.insert(std::move(entry));
      return Status::ok();
    }
    case JournalRecordKind::kRenameOut:
      shard.files.erase(record.path);
      shard.rename_intents.insert_or_assign(
          record.path, std::pair(record.path2, record.file));
      return Status::ok();
    case JournalRecordKind::kRenameIn:
      shard.files.insert_or_assign(record.path2,
                                   to_file_info(record.file, /*sealed=*/true));
      return Status::ok();
    case JournalRecordKind::kRenameAck:
      shard.rename_intents.erase(record.path);
      return Status::ok();
    case JournalRecordKind::kGcStripes:
      drop_stripes(record.stripes);
      return Status::ok();
  }
  return internal_error("unknown journal record kind");
}

Status NameNode::mutate_locked(std::size_t index, JournalRecord record,
                               RemovedFile* removed) {
  Shard& shard = *shards_[index];
  const std::size_t dropped_before =
      removed != nullptr ? removed->stripes.size() : 0;
  DBLREP_RETURN_IF_ERROR(apply(shard, record, removed));
  record.seq = next_seq_locked();
  shard.journal.append(record);
  if (record.kind == JournalRecordKind::kAllocate) {
    for (const cluster::StripeId id : record.stripes) {
      router_insert(id, static_cast<std::uint32_t>(index));
    }
  }
  if (removed != nullptr) {
    for (std::size_t i = dropped_before; i < removed->stripes.size(); ++i) {
      router_erase(removed->stripes[i].id);
    }
  }
  return Status::ok();
}

Status NameNode::begin_write(const std::string& path,
                             const std::string& code_spec,
                             std::size_t block_size) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.files.contains(path) || shard.pending.contains(path)) {
    return already_exists_error(path);
  }
  DBLREP_RETURN_IF_ERROR(mutate_locked(
      index, {.kind = JournalRecordKind::kCreate,
              .path = path,
              .code_spec = code_spec,
              .block_size = block_size}));
  maybe_snapshot_locked(index);
  return Status::ok();
}

Result<std::vector<cluster::StripeId>> NameNode::attach_stripes(
    const std::string& path,
    const std::vector<std::vector<cluster::NodeId>>& groups) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  // Checked before any id is drawn: a rejected call consumes none.
  if (!shard.pending.contains(path)) return no_open_write(path);
  JournalRecord record{.kind = JournalRecordKind::kAllocate, .path = path};
  for (const auto& group : groups) {
    record.stripes.push_back(next_stripe_id_.fetch_add(1));
    record.groups.push_back(group_to_i32(group));
  }
  std::vector<cluster::StripeId> ids(record.stripes.begin(),
                                     record.stripes.end());
  DBLREP_RETURN_IF_ERROR(mutate_locked(index, std::move(record)));
  maybe_snapshot_locked(index);
  return ids;
}

Status NameNode::record_store(const std::string& path,
                              cluster::StripeId stripe, std::size_t bytes) {
  const std::size_t index = shard_of(path);
  std::unique_lock<std::shared_mutex> lock(shards_[index]->mu);
  DBLREP_RETURN_IF_ERROR(mutate_locked(index, {.kind = JournalRecordKind::kStore,
                                               .path = path,
                                               .length = bytes,
                                               .stripe = stripe}));
  maybe_snapshot_locked(index);
  return Status::ok();
}

Status NameNode::commit_write(const std::string& path) {
  const std::size_t index = shard_of(path);
  Shard& shard = *shards_[index];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.pending.find(path);
  if (it == shard.pending.end()) return no_open_write(path);
  // Seal every stripe, then publish, all in one critical section: readers
  // never observe a published file with unsealed stripes.
  for (const cluster::StripeId id : it->second.stripes) {
    DBLREP_RETURN_IF_ERROR(mutate_locked(
        index, {.kind = JournalRecordKind::kSeal, .stripe = id}));
  }
  DBLREP_RETURN_IF_ERROR(
      mutate_locked(index, {.kind = JournalRecordKind::kCommit,
                            .path = path,
                            .length = it->second.length}));
  maybe_snapshot_locked(index);
  return Status::ok();
}

Result<RemovedFile> NameNode::abort_write(const std::string& path) {
  const std::size_t index = shard_of(path);
  std::unique_lock<std::shared_mutex> lock(shards_[index]->mu);
  RemovedFile removed;
  // An open write's stripes were all allocated by this shard (allocation
  // shard == namespace shard; only a later rename can split them).
  DBLREP_RETURN_IF_ERROR(mutate_locked(
      index, {.kind = JournalRecordKind::kAbort, .path = path}, &removed));
  maybe_snapshot_locked(index);
  return removed;
}

NameNode::StripesByShard NameNode::foreign_stripes(const FileInfo& info) const {
  StripesByShard owners;
  for (const cluster::StripeId id : info.stripes) {
    std::uint32_t owner = 0;
    if (try_route(id, owner)) owners[owner].push_back(id);
  }
  return owners;
}

void NameNode::gc_locked(std::uint32_t owner,
                         const std::vector<cluster::StripeId>& ids,
                         RemovedFile& removed) {
  DBLREP_CHECK(mutate_locked(owner,
                             {.kind = JournalRecordKind::kGcStripes,
                              .stripes = {ids.begin(), ids.end()}},
                             &removed)
                   .is_ok());
}

void NameNode::gc_stripes(const StripesByShard& owners, RemovedFile& removed) {
  for (const auto& [owner, ids] : owners) {
    std::unique_lock<std::shared_mutex> lock(shards_[owner]->mu);
    gc_locked(owner, ids, removed);
    maybe_snapshot_locked(owner);
  }
}

Result<RemovedFile> NameNode::remove_file(const std::string& path) {
  const std::size_t index = shard_of(path);
  RemovedFile removed;
  {
    std::unique_lock<std::shared_mutex> lock(shards_[index]->mu);
    DBLREP_RETURN_IF_ERROR(mutate_locked(
        index, {.kind = JournalRecordKind::kDelete, .path = path}, &removed));
    maybe_snapshot_locked(index);
  }
  // Foreign-owned stripes (the file was renamed into this shard) are
  // GC-journaled per owner shard after the namespace shard is released --
  // delete never holds two shard locks at once.
  gc_stripes(foreign_stripes(removed.info), removed);
  return removed;
}

std::array<std::unique_lock<std::shared_mutex>, 2> NameNode::lock_paths(
    const std::string& x, const std::string& y) const {
  const auto order = [this](const std::string& path) {
    const std::size_t shard = shard_of(path);
    return std::pair(shard, shards_[shard]->path_locks.stripe_of(path));
  };
  const bool x_first = order(x) <= order(y);
  return lock_in_order(path_mutex(x_first ? x : y), path_mutex(x_first ? y : x));
}

Status NameNode::move_locked(const std::string& from, const std::string& to,
                             const FileInfo& file) {
  const std::size_t a = shard_of(from);
  const std::size_t b = shard_of(to);
  if (a == b) {
    return mutate_locked(
        a, {.kind = JournalRecordKind::kRename, .path = from, .path2 = to});
  }
  // Cross-shard: RenameOut in the source, RenameIn in the destination,
  // RenameAck closing the source. A crash between any two records leaves
  // an intent recovery can finish from the journals alone.
  const FileState state = to_file_state(file);
  DBLREP_RETURN_IF_ERROR(mutate_locked(a, {.kind = JournalRecordKind::kRenameOut,
                                           .path = from,
                                           .path2 = to,
                                           .file = state}));
  DBLREP_RETURN_IF_ERROR(mutate_locked(
      b, {.kind = JournalRecordKind::kRenameIn, .path2 = to, .file = state}));
  return mutate_locked(a, {.kind = JournalRecordKind::kRenameAck, .path = from});
}

Status NameNode::rename(const std::string& from, const std::string& to) {
  if (from == to) return Status::ok();
  // Data-plane path locks first (excludes in-flight readers of either
  // path), then both shard locks in index order.
  const auto path_locks = lock_paths(from, to);
  const std::size_t a = shard_of(from);
  const std::size_t b = shard_of(to);
  Shard& src = *shards_[a];
  Shard& dst = *shards_[b];
  const auto shard_locks =
      lock_in_order(shards_[std::min(a, b)]->mu, shards_[std::max(a, b)]->mu);
  const auto it = src.files.find(from);
  if (it == src.files.end()) return not_found_error(from);
  if (dst.files.contains(to) || dst.pending.contains(to)) {
    return already_exists_error(to);
  }
  DBLREP_RETURN_IF_ERROR(move_locked(from, to, it->second));
  maybe_snapshot_locked(a);
  if (b != a) maybe_snapshot_locked(b);
  return Status::ok();
}

Result<RemovedFile> NameNode::replace(const std::string& from,
                                      const std::string& to) {
  if (from == to) {
    return invalid_argument_error("replace: from == to: " + from);
  }
  // Readers of `to` are excluded for the duration of the swap.
  const auto path_locks = lock_paths(from, to);
  const std::size_t a = shard_of(from);
  const std::size_t b = shard_of(to);
  RemovedFile removed;
  StripesByShard foreign;
  {
    const auto shard_locks = lock_in_order(shards_[std::min(a, b)]->mu,
                                           shards_[std::max(a, b)]->mu);
    const auto it = shards_[a]->files.find(from);
    if (it == shards_[a]->files.end()) return not_found_error(from);
    // Delete the outgoing layout, then move `from` over the path -- all
    // before any lock drops, so the namespace never shows the path missing.
    DBLREP_RETURN_IF_ERROR(mutate_locked(
        b, {.kind = JournalRecordKind::kDelete, .path = to}, &removed));
    foreign = foreign_stripes(removed.info);
    if (const auto own = foreign.find(static_cast<std::uint32_t>(a));
        own != foreign.end()) {
      gc_locked(own->first, own->second, removed);  // its lock is held
      foreign.erase(own);
    }
    DBLREP_RETURN_IF_ERROR(move_locked(from, to, it->second));
    maybe_snapshot_locked(a);
    if (b != a) maybe_snapshot_locked(b);
  }
  // Stripes owned by neither namespace shard are GC-journaled per owner
  // after the shard locks drop -- like remove_file, no extra shard lock is
  // ever nested.
  gc_stripes(foreign, removed);
  return removed;
}

// ------------------------------------------------------------------ reads

Result<FileInfo> NameNode::lookup(const std::string& path) const {
  const Shard& shard = *shards_[shard_of(path)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.files.find(path);
  if (it == shard.files.end()) {
    return not_found_error(path);
  }
  return it->second;
}

Result<FileInfo> NameNode::stat(const std::string& path) const {
  const Shard& shard = *shards_[shard_of(path)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  if (const auto it = shard.files.find(path); it != shard.files.end()) {
    return it->second;
  }
  if (const auto it = shard.pending.find(path); it != shard.pending.end()) {
    return it->second;
  }
  return not_found_error(path);
}

std::vector<std::string> NameNode::list_files() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [path, info] : shard->files) names.push_back(path);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::size_t NameNode::num_files() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    n += shard->files.size();
  }
  return n;
}

bool NameNode::has_pending_writes() const {
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    if (!shard->pending.empty()) return true;
  }
  return false;
}

// ----------------------------------------------------------- catalog view

const cluster::StripeInfo& NameNode::stripe(cluster::StripeId id) const {
  return shards_[route(id)]->catalog.stripe(id);
}

cluster::NodeId NameNode::node_of(cluster::SlotAddress address) const {
  return shards_[route(address.stripe)]->catalog.node_of(address);
}

std::vector<cluster::NodeId> NameNode::replica_nodes(cluster::StripeId id,
                                                     std::size_t symbol)
    const {
  return shards_[route(id)]->catalog.replica_nodes(id, symbol);
}

bool NameNode::is_registered(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) return false;
  return shards_[shard]->catalog.is_registered(id);
}

bool NameNode::is_sealed(cluster::StripeId id) const {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) return false;
  return shards_[shard]->catalog.is_sealed(id);
}

std::size_t NameNode::num_stripes() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->catalog.num_stripes();
  return n;
}

std::vector<cluster::StripeId> NameNode::stripes_on_node(
    cluster::NodeId node) const {
  std::vector<cluster::StripeId> out;
  for (const auto& shard : shards_) {
    const auto part = shard->catalog.stripes_on_node(node);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::set<ec::NodeIndex> NameNode::failed_in_stripe(
    cluster::StripeId id, const std::set<cluster::NodeId>& down_nodes) const {
  return shards_[route(id)]->catalog.failed_in_stripe(id, down_nodes);
}

Status NameNode::begin_repair(cluster::StripeId id) {
  std::uint32_t shard = 0;
  if (!try_route(id, shard)) {
    return not_found_error("stripe " + std::to_string(id) + " unknown");
  }
  return shards_[shard]->catalog.begin_repair(id);
}

void NameNode::end_repair(cluster::StripeId id) {
  shards_[route(id)]->catalog.end_repair(id);
}

std::shared_mutex& NameNode::path_mutex(const std::string& path) const {
  return shards_[shard_of(path)]->path_locks.of(path);
}

// --------------------------------------------------- snapshots / artifacts

void NameNode::snapshot() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i]->mu);
    snapshot_shard_locked(i);
  }
}

void NameNode::snapshot_shard_locked(std::size_t index) {
  Shard& shard = *shards_[index];
  ShardImage image;
  image.last_seq = shard.journal.last_seq();
  image.next_stripe_id = next_stripe_id_.load();
  for (const auto& [path, info] : shard.files) {
    image.files.emplace_back(path, to_file_state(info));
  }
  for (const auto& [path, info] : shard.pending) {
    image.pending.emplace_back(path, to_file_state(info));
  }
  for (cluster::StripeId id : shard.catalog.live_stripe_ids()) {
    ShardImage::Stripe stripe;
    stripe.id = id;
    stripe.code_spec = shard.stripe_specs.at(id);
    stripe.sealed = shard.catalog.is_sealed(id);
    stripe.group = group_to_i32(shard.catalog.stripe(id).group);
    image.stripes.push_back(std::move(stripe));
  }
  shard.snapshot = encode_snapshot(image);
  shard.journal.clear();
}

void NameNode::maybe_snapshot_locked(std::size_t index) {
  if (options_.snapshot_every == 0) return;
  if (shards_[index]->journal.num_records() >= options_.snapshot_every) {
    snapshot_shard_locked(index);
  }
}

Buffer NameNode::snapshot_bytes(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->snapshot;
}

Buffer NameNode::journal_bytes(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  const ByteSpan bytes = shards_[shard]->journal.bytes();
  return Buffer(bytes.begin(), bytes.end());
}

std::size_t NameNode::journal_record_count(std::size_t shard) const {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::shared_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->journal.num_records();
}

std::size_t NameNode::total_journal_records() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    n += journal_record_count(i);
  }
  return n;
}

std::uint64_t NameNode::fingerprint() const {
  // Entry order must not depend on the shard count, so gather-then-sort.
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  std::vector<std::tuple<std::uint64_t, std::string, bool,
                         std::vector<cluster::NodeId>>>
      stripes;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    const auto mix_file = [](std::uint64_t tag, const std::string& path,
                             const FileInfo& info) {
      std::uint64_t h = fnv1a_u64(kFnvOffset, tag);
      h = fnv1a_str(h, path);
      h = fnv1a_str(h, info.code_spec);
      h = fnv1a_u64(h, info.block_size);
      h = fnv1a_u64(h, info.length);
      for (cluster::StripeId id : info.stripes) h = fnv1a_u64(h, id);
      return h;
    };
    for (const auto& [path, info] : shard->files) {
      entries.emplace_back(path, mix_file(1, path, info));
    }
    for (const auto& [path, info] : shard->pending) {
      entries.emplace_back(path, mix_file(2, path, info));
    }
    for (cluster::StripeId id : shard->catalog.live_stripe_ids()) {
      stripes.emplace_back(id, shard->stripe_specs.at(id),
                           shard->catalog.is_sealed(id),
                           shard->catalog.stripe(id).group);
    }
  }
  std::sort(entries.begin(), entries.end());
  std::sort(stripes.begin(), stripes.end());
  std::uint64_t h = kFnvOffset;
  for (const auto& [path, entry_hash] : entries) h = fnv1a_u64(h, entry_hash);
  for (const auto& [id, spec, sealed, group] : stripes) {
    h = fnv1a_u64(h, id);
    h = fnv1a_str(h, spec);
    h = fnv1a_u64(h, sealed ? 1 : 0);
    for (cluster::NodeId node : group) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(node));
    }
  }
  return h;
}

Result<RecoveryReport> NameNode::crash_and_recover() {
  std::vector<Buffer> snapshots;
  std::vector<Buffer> journals;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    snapshots.push_back(snapshot_bytes(i));
    journals.push_back(journal_bytes(i));
  }
  return restore(std::move(snapshots), std::move(journals));
}

Status NameNode::testonly_drop_last_journal_record(std::size_t shard) {
  DBLREP_CHECK_LT(shard, shards_.size());
  std::unique_lock<std::shared_mutex> lock(shards_[shard]->mu);
  return shards_[shard]->journal.drop_last_record();
}

}  // namespace dblrep::hdfs
