#include "hdfs/minidfs.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "ec/layering.h"
#include "ec/registry.h"
#include "ec/stripe_codec.h"

namespace dblrep::hdfs {

MiniDfs::MiniDfs(const cluster::Topology& topology, std::uint64_t seed)
    : MiniDfs(topology, seed, &exec::default_pool()) {}

MiniDfs::MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
                 exec::ThreadPool* pool)
    : MiniDfs(topology, seed, pool, MiniDfsOptions{}) {}

MiniDfs::MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
                 exec::ThreadPool* pool, const MiniDfsOptions& options)
    : topology_(topology),
      options_(options),
      namenode_(
          topology_,
          // The NameNode resolves code specs through the DFS's scheme
          // table (one immutable scheme per spec, created on demand).
          [this](const std::string& spec) { return this->scheme(spec); },
          NameNodeOptions{options.meta_shards, options.meta_snapshot_every}),
      traffic_(topology_),
      pool_(pool != nullptr ? pool : &exec::inline_pool()),
      rng_(seed) {
  for (std::size_t n = 0; n < topology_.num_nodes; ++n) {
    datanodes_.emplace_back(static_cast<cluster::NodeId>(n));
  }
}

std::vector<int> MiniDfs::group_racks(
    const std::vector<cluster::NodeId>& group) const {
  std::vector<int> racks(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    racks[i] = topology_.rack_of(group[i]);
  }
  return racks;
}

Result<const ec::CodeScheme*> MiniDfs::scheme(const std::string& code_spec) {
  {
    std::shared_lock<std::shared_mutex> lock(scheme_mu_);
    const auto it = schemes_.find(code_spec);
    if (it != schemes_.end()) return it->second.get();
  }
  auto made = ec::make_code(code_spec);
  if (!made.is_ok()) return made.status();
  std::unique_lock<std::shared_mutex> lock(scheme_mu_);
  // try_emplace keeps the winner's scheme if another thread created one.
  return schemes_.try_emplace(code_spec, std::move(*made)).first->second.get();
}

Result<const ec::RepairPlan*> MiniDfs::cached_plan(
    const ec::CodeScheme& code, std::size_t target,
    const std::set<ec::NodeIndex>& failed, const std::set<std::size_t>& lost) {
  const PlanKey key{&code, target, failed, lost};
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    const auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) return &it->second;
  }
  // Planning (the basis solve) runs outside any lock; losing the insertion
  // race just discards a duplicate plan. Holes that are exactly one node's
  // slots, with nothing else down, route through the virtual
  // plan_node_repair so sub-packetized schemes (Clay, piggyback) can serve
  // their bandwidth-optimal sub-chunk plans; for every other scheme that
  // call plans what plan_slot_repair would.
  const ec::NodeIndex node =
      lost.empty() ? 0 : code.layout().node_of_slot(*lost.begin());
  const auto& on_node = code.layout().slots_on_node(node);
  const bool whole_node =
      failed.empty() &&
      std::equal(on_node.begin(), on_node.end(), lost.begin(), lost.end());
  auto plan = target != kRepairTarget ? code.plan_degraded_block(target, failed)
              : whole_node            ? code.plan_node_repair(node)
                                      : code.plan_slot_repair(lost, failed);
  if (!plan.is_ok()) return plan.status();
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  return &plan_cache_.try_emplace(key, std::move(*plan)).first->second;
}

Status MiniDfs::begin_write(const std::string& path,
                            const std::string& code_spec,
                            std::size_t block_size) {
  if (block_size == 0) return invalid_argument_error("zero block size");
  auto code_result = scheme(code_spec);  // validates the spec
  if (!code_result.is_ok()) return code_result.status();
  const ec::CodeScheme& code = **code_result;
  // Sub-packetized schemes slice every block into α sub-chunks; a block
  // size that does not divide evenly would silently change the stripe
  // geometry, so reject it at transaction open.
  if (block_size % code.sub_chunks() != 0) {
    return invalid_argument_error(
        "block size " + std::to_string(block_size) + " not divisible by " +
        code_spec + "'s " + std::to_string(code.sub_chunks()) +
        " sub-chunks");
  }

  // Enough live nodes to place a stripe? Checked here so an impossible
  // transaction fails fast, and re-checked per allocation (membership can
  // change while a streaming write is open).
  std::size_t live = 0;
  for (const auto& dn : datanodes_) {
    if (dn.is_up()) ++live;
  }
  if (live < code.num_nodes()) {
    return resource_exhausted_error("not enough live nodes for " + code_spec);
  }

  // Reserve the path (journaled): concurrent creators of the same name
  // fail fast, and readers see nothing until commit_write publishes.
  return namenode_.begin_write(path, code_spec, block_size);
}

Result<std::vector<cluster::StripeId>> MiniDfs::allocate_stripes(
    const std::string& path, std::size_t count) {
  const auto open = namenode_.stat(path);
  if (!open.is_ok() || open->sealed) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  auto code_result = scheme(open->code_spec);
  if (!code_result.is_ok()) return code_result.status();
  const ec::CodeScheme& code = **code_result;

  // One live-node scan per batch: the bulk write path allocates a whole
  // file's stripes in one call, so this costs what the pre-transaction
  // write_file paid, not once per stripe.
  std::vector<cluster::NodeId> live;
  for (const auto& dn : datanodes_) {
    if (dn.is_up()) live.push_back(dn.id());
  }
  if (live.size() < code.num_nodes()) {
    return resource_exhausted_error("not enough live nodes for " +
                                    open->code_spec);
  }

  // Placement is serial: one rng draw sequence per stripe in allocation
  // order, so the layout is a deterministic function of the seed and
  // byte-identical between serial and parallel executions. The
  // construction-time policy decides the rack structure: flat (rack-blind
  // uniform), rack_aware spreading, or group_per_rack, which pins each
  // local code group to its own rack. attach_stripes runs under the same
  // lock hold, so stripe ids are assigned in draw order -- which is what
  // makes the layout independent of the metadata shard count -- and
  // registration is atomic with the open-transaction check (a concurrent
  // abort closing the transaction cannot leak stripes).
  std::vector<std::vector<cluster::NodeId>> groups;
  groups.reserve(count);
  std::lock_guard<std::mutex> lock(place_mu_);
  for (std::size_t s = 0; s < count; ++s) {
    auto group_result = cluster::place_stripe_group(options_.placement,
                                                    topology_, code, live,
                                                    rng_);
    if (!group_result.is_ok()) return group_result.status();
    groups.push_back(std::move(*group_result));
  }
  // Unsealed until commit_write publishes the file: a concurrent repair
  // pass must not mistake a write in flight for mass failure (nor race an
  // abort of one).
  return namenode_.attach_stripes(path, groups);
}

Status MiniDfs::store_stripes(const std::string& path,
                              std::span<const cluster::StripeId> stripes,
                              ByteSpan data, net::TransferClass cls) {
  const auto open = namenode_.stat(path);
  if (!open.is_ok() || open->sealed) {
    return failed_precondition_error("no write transaction open for " + path);
  }
  DBLREP_ASSIGN_OR_RETURN(const ec::CodeScheme* code, scheme(open->code_spec));
  const std::size_t block_size = open->block_size;
  const ec::StripeCodec codec(*code);
  if (stripes.size() != codec.stripe_count(data.size(), block_size)) {
    return invalid_argument_error(
        std::to_string(data.size()) + " bytes do not fill exactly " +
        std::to_string(stripes.size()) + " stripes of " + path);
  }
  if (stripes.empty()) return Status::ok();

  // Each run of batch_stripes() stripes is one fused encode_batch pass on
  // the shared codec; the sink stores a stripe's symbols before it returns.
  // parallel_for_all reports the lowest failing run and encode_batch stops
  // at a run's first failing stripe, so the error is the lowest failing
  // stripe's whatever the pool's schedule.
  const std::size_t per_stripe = codec.stripe_bytes(block_size);
  const std::size_t batch = codec.batch_stripes(block_size);
  const auto& layout = code->layout();
  const Status stored = exec::parallel_for_all(
      *pool_, (stripes.size() + batch - 1) / batch,
      [&](std::size_t run) -> Status {
        const std::size_t first = run * batch;
        const std::size_t begin = first * per_stripe;
        return codec.encode_batch(
            data.subspan(begin, std::min(batch * per_stripe,
                                         data.size() - begin)),
            block_size,
            [&](std::size_t s, std::span<const ByteSpan> symbols) -> Status {
              const cluster::StripeId stripe = stripes[first + s];
              // Each symbol is copied once; every replica slot of it stores
              // that one block, as repair by transfer stores a twin's.
              std::vector<SharedBlock> blocks;
              blocks.reserve(symbols.size());
              for (const ByteSpan symbol : symbols) {
                MutableByteSpan fill;
                blocks.push_back(
                    SharedBlock::uninitialized(symbol.size(), fill));
                std::memcpy(fill.data(), symbol.data(), symbol.size());
              }
              for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
                const SharedBlock& block = blocks[layout.symbol_of_slot(slot)];
                const cluster::NodeId node = namenode_.node_of({stripe, slot});
                DBLREP_RETURN_IF_ERROR(
                    datanodes_[static_cast<std::size_t>(node)].put(
                        {stripe, slot}, block));
                // Client -> datanode transfer (the client is off-cluster)
                // of one slot payload: a full block for α == 1, one
                // sub-chunk for sub-packetized schemes.
                traffic_.record(net::kClientEndpoint, node,
                                static_cast<double>(block.size()), cls);
              }
              return Status::ok();
            });
      });
  if (!stored.is_ok()) return stored;
  // Progress accounting (journaled) for stat() of the open write.
  return namenode_.record_store(path, stripes.front(), data.size());
}

Status MiniDfs::commit_write(const std::string& path) {
  // Seal-at-commit: the NameNode seals every stripe and publishes the path
  // in one journaled critical section, so no stripe is ever both sealed
  // and abortable.
  DBLREP_RETURN_IF_ERROR(namenode_.commit_write(path));
  if (options_.access_observer != nullptr) {
    const auto info = namenode_.lookup(path);
    options_.access_observer->on_write(path, info.is_ok() ? info->length : 0);
  }
  return Status::ok();
}

Status MiniDfs::drop_blocks(const RemovedFile& removed) {
  for (const StripePlacement& placement : removed.stripes) {
    auto code_result = scheme(placement.code_spec);
    if (!code_result.is_ok()) return code_result.status();
    const auto& layout = (*code_result)->layout();
    for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
      const cluster::NodeId node = placement.group[static_cast<std::size_t>(
          layout.node_of_slot(slot))];
      auto& dn = datanodes_[static_cast<std::size_t>(node)];
      if (dn.has({placement.id, slot})) (void)dn.drop({placement.id, slot});
    }
  }
  return Status::ok();
}

Status MiniDfs::abort_write(const std::string& path) {
  // Failed writes must not leak: the NameNode drops the metadata (journaled
  // kAbort) and hands back each stripe's placement so the blocks that
  // landed can be dropped here (all still possible -- unsealed stripes are
  // invisible to repair, and the unpublished path is invisible to readers).
  auto removed = namenode_.abort_write(path);
  if (!removed.is_ok()) return removed.status();
  return drop_blocks(*removed);
}

Status MiniDfs::write_file(const std::string& path, ByteSpan data,
                           const std::string& code_spec,
                           std::size_t block_size, net::TransferClass cls) {
  // The write transaction in one go: place every stripe up front (serial
  // draws), store them all with one store_stripes call, zero-copy from
  // `data`, then publish. store_stripes runs every stripe even after a
  // failure (then abort_write drops them all), and its error -- the lowest
  // failing stripe's -- does not depend on pool scheduling.
  DBLREP_RETURN_IF_ERROR(begin_write(path, code_spec, block_size));
  // RAII rollback: every exit below -- error returns and stack unwinding
  // alike -- releases the path reservation and drops landed stripes,
  // unless the commit disarms it. (A leaked pending entry would poison
  // the path with ALREADY_EXISTS for the process lifetime.)
  struct AbortGuard {
    MiniDfs* dfs;
    const std::string& path;
    bool armed = true;
    ~AbortGuard() {
      if (armed) (void)dfs->abort_write(path);
    }
  } guard{this, path};

  DBLREP_ASSIGN_OR_RETURN(const ec::CodeScheme* code, scheme(code_spec));
  DBLREP_ASSIGN_OR_RETURN(
      const auto stripes,
      allocate_stripes(path, ec::StripeCodec(*code).stripe_count(
                                 data.size(), block_size)));
  DBLREP_RETURN_IF_ERROR(store_stripes(path, stripes, data, cls));
  const Status committed = commit_write(path);
  if (committed.is_ok()) guard.armed = false;
  return committed;
}

Result<FileInfo> MiniDfs::lookup_copy(const std::string& path) const {
  return namenode_.lookup(path);
}

std::set<ec::NodeIndex> MiniDfs::gather_stripe(
    cluster::StripeId stripe, std::span<const std::size_t> slots,
    ec::SlotStore& store) const {
  const auto& info = namenode_.stripe(stripe);
  std::set<ec::NodeIndex> failed;
  for (std::size_t slot : slots) {
    if (store.contains(slot)) continue;
    const ec::NodeIndex local = info.code->layout().node_of_slot(slot);
    auto bytes = datanode(info.group[static_cast<std::size_t>(local)])
                     .get({stripe, slot});
    if (bytes.is_ok()) {
      store[slot] = std::move(*bytes);
    } else {
      failed.insert(local);
    }
  }
  return failed;
}

std::vector<std::size_t> MiniDfs::gather_all_slots(
    cluster::StripeId stripe, ec::SlotStore& store) const {
  std::vector<std::size_t> slots(
      namenode_.stripe(stripe).code->layout().num_slots());
  for (std::size_t slot = 0; slot < slots.size(); ++slot) slots[slot] = slot;
  gather_stripe(stripe, slots, store);
  std::erase_if(slots, [&](std::size_t slot) {
    return store.contains(slot) ||
           !datanode(namenode_.node_of({stripe, slot})).is_up();
  });
  return slots;
}

Status MiniDfs::record_plan_sends(const ec::RepairPlan& plan,
                                  const std::vector<cluster::NodeId>& group,
                                  double unit_bytes, net::TransferClass cls) {
  for (const auto& send : plan.aggregates) {
    const auto from = static_cast<std::size_t>(send.from_node);
    const auto to = static_cast<std::size_t>(send.to_node);
    const bool to_client = send.to_node == ec::kClientNode;
    if (from >= group.size() || (!to_client && to >= group.size())) {
      return internal_error("plan send references a node outside the "
                            "stripe's placement group");
    }
    traffic_.record(group[from], to_client ? net::kClientEndpoint : group[to],
                    unit_bytes, cls);
  }
  // One executed plan = one dependency-chained flow in a captured replay.
  traffic_.mark();
  return Status::ok();
}

Result<SharedBlock> MiniDfs::read_data_block(const FileInfo& file,
                                             cluster::StripeId stripe,
                                             std::size_t block,
                                             net::TransferClass cls) {
  const auto& info = namenode_.stripe(stripe);
  const ec::CodeScheme& code = *info.code;
  const std::size_t alpha = code.sub_chunks();
  // The α units of the block, in unit order, as one block: for α == 1 the
  // unit itself, otherwise their concatenation.
  auto join = [&](std::vector<SharedBlock>& units) -> SharedBlock {
    if (units.size() == 1) return std::move(units.front());
    Buffer out;
    out.reserve(file.block_size);
    for (const SharedBlock& unit : units) {
      out.insert(out.end(), unit.begin(), unit.end());
    }
    return out;
  };
  std::set<ec::NodeIndex> failed;  // holders whose replica read fails
  // Fast path: every sub-chunk of the block served from a replica. Gather
  // all α units first and account the deliveries only once the whole block
  // is in hand -- a miss on any unit means the block is served degraded
  // instead, and the abandoned replica reads must not be charged. For
  // α == 1 this is exactly the old single-replica block read.
  {
    std::vector<SharedBlock> units;
    std::vector<cluster::NodeId> holders;
    units.reserve(alpha);
    holders.reserve(alpha);
    for (std::size_t unit = block * alpha; unit < (block + 1) * alpha;
         ++unit) {
      // Try each replica in turn; CRC failures and down nodes fall through.
      bool got = false;
      for (std::size_t slot : code.layout().slots_of_symbol(unit)) {
        const cluster::NodeId node = namenode_.node_of({stripe, slot});
        auto bytes =
            datanodes_[static_cast<std::size_t>(node)].get({stripe, slot});
        if (bytes.is_ok()) {
          units.push_back(std::move(*bytes));
          holders.push_back(node);
          got = true;
          break;
        }
        failed.insert(code.layout().node_of_slot(slot));
      }
      if (!got) break;
    }
    if (units.size() == alpha) {
      for (std::size_t i = 0; i < alpha; ++i) {
        traffic_.record(holders[i], net::kClientEndpoint,
                        static_cast<double>(units[i].size()), cls);
      }
      return join(units);
    }
  }
  // On-the-fly repair (Section 3.1): plan against the down nodes and the
  // failed holders, and read only the slots the plan names. A slot that
  // fails its read fails its node, and the read plans again with the slots
  // it holds. The failed set only grows, so the loop ends. Executing over
  // the gathered blocks keeps the read stable if the stripe changes.
  failed.merge(namenode_.failed_in_stripe(stripe, down_nodes()));
  ec::SlotStore store;
  const ec::RepairPlan* plan = nullptr;
  ec::RepairPlan layered;
  std::size_t known = 0;
  do {
    known = failed.size();
    DBLREP_ASSIGN_OR_RETURN(plan, cached_plan(code, block, failed, {}));
    // Layered mode: each rack combines its partials locally and sends the
    // client one payload per rack instead of one per helper.
    if (options_.layered_repair) {
      layered = ec::layer_plan(*plan, group_racks(info.group));
      plan = &layered;
    }
    failed.merge(gather_stripe(stripe, plan->source_slots(), store));
  } while (failed.size() > known);
  auto delivered = ec::PlanExecutor(code.layout()).execute(*plan, store);
  if (!delivered.is_ok()) return delivered.status();
  if (delivered->size() != alpha) {
    return internal_error("degraded read returned unexpected unit count");
  }
  DBLREP_RETURN_IF_ERROR(record_plan_sends(
      *plan, info.group, static_cast<double>(file.block_size / alpha), cls));
  // plan_degraded_block delivers the α client units in unit order, so they
  // join straight back into the logical block.
  return join(*delivered);
}

Result<SharedBlock> MiniDfs::read_block(const std::string& path,
                                        std::size_t block_index,
                                        net::TransferClass cls) {
  std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  DBLREP_ASSIGN_OR_RETURN(const FileInfo info, lookup_copy(path));
  auto code_result = scheme(info.code_spec);
  if (!code_result.is_ok()) return code_result.status();
  const ec::CodeScheme& code = **code_result;
  const std::size_t total_blocks =
      (info.length + info.block_size - 1) / info.block_size;
  if (block_index >= total_blocks) {
    return invalid_argument_error("block index beyond end of file");
  }
  const std::size_t stripe_index = block_index / code.data_blocks();
  const std::size_t block = block_index % code.data_blocks();
  DBLREP_ASSIGN_OR_RETURN(
      SharedBlock out,
      read_data_block(info, info.stripes[stripe_index], block, cls));
  if (options_.access_observer != nullptr &&
      cls == net::TransferClass::kClientRead) {
    options_.access_observer->on_read(path, out.size());
  }
  return out;
}

Result<Buffer> MiniDfs::pread_span(const FileInfo& info,
                                   const ec::CodeScheme& code,
                                   std::size_t offset, std::size_t len,
                                   net::TransferClass cls) {
  // Reads past EOF are clamped; a zero-length window is an empty buffer
  // that touches no datanode (and therefore moves no bytes).
  const std::size_t want = std::min(len, info.length - offset);
  Buffer out(want);
  if (want == 0) return out;

  const std::size_t k = code.data_blocks();
  const std::size_t block_size = info.block_size;
  const std::size_t first_block = offset / block_size;
  const std::size_t last_block = (offset + want - 1) / block_size;
  const std::size_t first_stripe = first_block / k;
  const std::size_t last_stripe = last_block / k;

  // Only the covering stripes resolve; they stream in parallel straight
  // into the result buffer (each block is copied once, into a disjoint byte
  // range), with the first and last block trimmed to the requested window.
  const Status read_status = exec::parallel_for_all(
      *pool_, last_stripe - first_stripe + 1, [&](std::size_t i) -> Status {
        const std::size_t si = first_stripe + i;
        const std::size_t blk_lo = si == first_stripe ? first_block % k : 0;
        const std::size_t blk_hi = si == last_stripe ? last_block % k : k - 1;
        for (std::size_t blk = blk_lo; blk <= blk_hi; ++blk) {
          auto block = read_data_block(info, info.stripes[si], blk, cls);
          if (!block.is_ok()) return block.status();
          const std::size_t block_begin = (si * k + blk) * block_size;
          const std::size_t copy_begin = std::max(block_begin, offset);
          const std::size_t copy_end =
              std::min(block_begin + block_size, offset + want);
          std::memcpy(out.data() + (copy_begin - offset),
                      block->data() + (copy_begin - block_begin),
                      copy_end - copy_begin);
        }
        return Status::ok();
      });
  if (!read_status.is_ok()) return read_status;
  return out;
}

Result<Buffer> MiniDfs::pread(const std::string& path, std::size_t offset,
                              std::size_t len, net::TransferClass cls) {
  std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  // Resolve once: one namespace lookup and one scheme resolution for the
  // whole range, then pread_span moves the bytes.
  DBLREP_ASSIGN_OR_RETURN(const FileInfo info, lookup_copy(path));
  auto code_result = scheme(info.code_spec);
  if (!code_result.is_ok()) return code_result.status();
  if (offset > info.length) {
    return invalid_argument_error(
        "pread offset " + std::to_string(offset) + " beyond EOF of " + path +
        " (" + std::to_string(info.length) + " bytes)");
  }
  auto out = pread_span(info, **code_result, offset, len, cls);
  // Heat tracking sees foreground reads only: a re-encode streaming the
  // file under kRetier must not keep it hot.
  if (out.is_ok() && options_.access_observer != nullptr &&
      cls == net::TransferClass::kClientRead) {
    options_.access_observer->on_read(path, out->size());
  }
  return out;
}

Result<Buffer> MiniDfs::read_file(const std::string& path,
                                  net::TransferClass cls) {
  return pread(path, 0, std::numeric_limits<std::size_t>::max(), cls);
}

Status MiniDfs::delete_file(const std::string& path) {
  // Exclusive path lock first (excludes in-flight readers), then the
  // journaled metadata removal, then the block drops -- sourced from the
  // placements the NameNode hands back, since the catalog entries are gone.
  std::unique_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
  auto removed = namenode_.remove_file(path);
  if (!removed.is_ok()) return removed.status();
  DBLREP_RETURN_IF_ERROR(drop_blocks(*removed));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_delete(path);
  }
  return Status::ok();
}

Status MiniDfs::rename(const std::string& from, const std::string& to) {
  // Fully a metadata operation: the NameNode takes both path locks and --
  // cross-shard -- runs the journaled rename intent protocol.
  DBLREP_RETURN_IF_ERROR(namenode_.rename(from, to));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_rename(from, to);
  }
  return Status::ok();
}

Status MiniDfs::replace_file(const std::string& from, const std::string& to) {
  // The tiering transition's commit: publish-then-delete in one journaled
  // metadata step (NameNode::replace takes both path locks, drops `to`'s
  // old stripes, and moves `from` over it), then drop the old layout's
  // blocks from the datanodes using the placements handed back. Readers
  // either resolve the old layout (complete until the swap) or the new one
  // (complete since its commit_write) -- never a torn mix.
  auto removed = namenode_.replace(from, to);
  if (!removed.is_ok()) return removed.status();
  DBLREP_RETURN_IF_ERROR(drop_blocks(*removed));
  if (options_.access_observer != nullptr) {
    options_.access_observer->on_replace(from, to);
  }
  return Status::ok();
}

Result<FileInfo> MiniDfs::stat(const std::string& path) const {
  // A write in flight is visible to stat (sealed == false, length == bytes
  // stored so far) but not to readers.
  return namenode_.stat(path);
}

std::vector<std::string> MiniDfs::list_files() const {
  return namenode_.list_files();
}

Status MiniDfs::fail_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  datanodes_[static_cast<std::size_t>(node)].fail();
  return Status::ok();
}

Status MiniDfs::offline_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  datanodes_[static_cast<std::size_t>(node)].offline();
  return Status::ok();
}

Status MiniDfs::restart_node(cluster::NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= datanodes_.size()) {
    return invalid_argument_error("no such node");
  }
  auto& dn = datanodes_[static_cast<std::size_t>(node)];
  dn.restart();
  gc_stale_replicas(dn);
  return Status::ok();
}

void MiniDfs::gc_stale_replicas(DataNode& dn) {
  for (const auto& address : dn.stored_addresses()) {
    if (!namenode_.is_registered(address.stripe)) (void)dn.drop(address);
  }
}

Result<RecoveryReport> MiniDfs::crash_namenode() {
  auto report = namenode_.crash_and_recover();
  if (!report.is_ok()) return report;
  // Block reports: recovery rolled back open writes and finished
  // half-done deletes, so drop every block whose stripe no longer exists
  // -- the same GC a rejoining datanode runs.
  for (auto& dn : datanodes_) {
    if (dn.is_up()) gc_stale_replicas(dn);
  }
  return report;
}

std::set<cluster::NodeId> MiniDfs::down_nodes() const {
  std::set<cluster::NodeId> down;
  for (const auto& dn : datanodes_) {
    if (!dn.is_up()) down.insert(dn.id());
  }
  return down;
}

Result<std::size_t> MiniDfs::repair_stripe(cluster::StripeId stripe,
                                           net::TransferClass cls) {
  // Pin the stripe against deletion for the whole pass: a delete or rename
  // arriving mid-repair now drain-waits on this lease instead of pulling
  // the catalog entry out from under us. A delete that announced itself
  // first (ABORTED) or already finished (NOT_FOUND) makes this repair a
  // clean no-op -- there is nothing left worth rebuilding.
  const Status lease_status = namenode_.begin_repair(stripe);
  if (lease_status.code() == StatusCode::kAborted ||
      lease_status.code() == StatusCode::kNotFound) {
    return 0;
  }
  DBLREP_RETURN_IF_ERROR(lease_status);
  struct LeaseGuard {
    NameNode* nn;
    cluster::StripeId id;
    ~LeaseGuard() { nn->end_repair(id); }
  } lease_guard{&namenode_, stripe};

  // Skip unsealed stripes (writes in flight).
  if (!namenode_.is_sealed(stripe)) return 0;
  const auto& info = namenode_.stripe(stripe);
  const ec::CodeScheme& code = *info.code;

  // Read every slot once: only a read finds CRC-corrupt replicas on live
  // nodes. The holes are the slots missing or corrupt on live nodes; the
  // plan rebuilds exactly those, with the stripe's down nodes as failed
  // helpers. Holes on down nodes wait for their node's repair.
  ec::SlotStore store;
  const auto holes = gather_all_slots(stripe, store);
  if (holes.empty()) return 0;

  // The (code, down nodes, holes) key almost always repeats across stripes,
  // so the basis solve runs once per distinct pattern and is replayed --
  // across threads -- for every affected stripe.
  DBLREP_ASSIGN_OR_RETURN(
      const ec::RepairPlan* plan,
      cached_plan(code, kRepairTarget,
                  namenode_.failed_in_stripe(stripe, down_nodes()),
                  std::set<std::size_t>(holes.begin(), holes.end())));
  // Layering depends on this stripe's rack assignment, so it happens per
  // stripe over the shared cached plan (a cheap list rewrite -- the GF
  // work on actual blocks dwarfs it).
  ec::RepairPlan layered;
  if (options_.layered_repair) {
    layered = ec::layer_plan(*plan, group_racks(info.group));
    plan = &layered;
  }
  auto run = ec::PlanExecutor(code.layout()).execute(*plan, store);
  if (!run.is_ok()) return run.status();

  // Always-on guards (Status, not DCHECK): a malformed plan or a stripe
  // mutated under the repair must surface as an error in Release builds --
  // a chaos sweep that only runs Debug-checked paths proves nothing.
  if (store.empty() && !plan->aggregates.empty()) {
    return internal_error("repair plan executed over an empty slot store");
  }
  const std::size_t repair_block_size =
      store.empty() ? 0 : store.begin()->second.size();
  DBLREP_RETURN_IF_ERROR(record_plan_sends(
      *plan, info.group, static_cast<double>(repair_block_size), cls));
  // Re-check the seal before persisting. The repair lease already excludes
  // deletion, so this is a backstop against plan or state corruption: if
  // it ever fires, fail loudly rather than resurrect dropped blocks.
  if (!namenode_.is_sealed(stripe)) {
    return failed_precondition_error(
        "stripe " + std::to_string(stripe) +
        " was unsealed or deleted while its repair was executing");
  }
  // Move each rebuilt block into its DataNode. Every destination was live
  // at planning time; one that failed since refuses the put (UNAVAILABLE).
  for (const auto& rec : plan->reconstructions) {
    const auto rebuilt = store.find(rec.dest_slot);
    if (rebuilt == store.end()) {
      return internal_error("repair plan left dest slot " +
                            std::to_string(rec.dest_slot) + " unbuilt");
    }
    if (rebuilt->second.size() != repair_block_size) {
      return corruption_error("rebuilt block size mismatch on stripe " +
                              std::to_string(stripe) + " slot " +
                              std::to_string(rec.dest_slot));
    }
    const cluster::NodeId dest = info.group[static_cast<std::size_t>(
        code.layout().node_of_slot(rec.dest_slot))];
    DBLREP_RETURN_IF_ERROR(datanodes_[static_cast<std::size_t>(dest)].put(
        {stripe, rec.dest_slot}, std::move(rebuilt->second)));
  }
  return plan->reconstructions.size();
}

Result<std::size_t> MiniDfs::repair_stripes(
    const std::vector<cluster::StripeId>& stripes, net::TransferClass cls) {
  // parallel_for_all: an unrecoverable stripe must not stop the others
  // from healing, and the set of healed stripes (plus the reported error,
  // the lowest stripe's) must be identical whether the pass runs serial or
  // parallel.
  std::atomic<std::size_t> rewritten{0};
  DBLREP_RETURN_IF_ERROR(exec::parallel_for_all(
      *pool_, stripes.size(), [&](std::size_t i) -> Status {
        DBLREP_ASSIGN_OR_RETURN(const std::size_t n,
                                repair_stripe(stripes[i], cls));
        rewritten.fetch_add(n);
        return Status::ok();
      }));
  return rewritten.load();
}

std::vector<cluster::StripeId> MiniDfs::registered_stripes() const {
  std::vector<cluster::StripeId> stripes;
  for (const auto& dn : datanodes_) {
    const auto on_node = namenode_.stripes_on_node(dn.id());
    stripes.insert(stripes.end(), on_node.begin(), on_node.end());
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  return stripes;
}

Status MiniDfs::repair_node(cluster::NodeId node) {
  DBLREP_RETURN_IF_ERROR(restart_node(node));
  return repair_stripes(namenode_.stripes_on_node(node),
                        net::TransferClass::kRepair)
      .status();
}

Status MiniDfs::repair_all() {
  for (const auto& dn : datanodes_) {
    if (!dn.is_up()) DBLREP_RETURN_IF_ERROR(restart_node(dn.id()));
  }
  return repair_stripes(registered_stripes(), net::TransferClass::kRepair)
      .status();
}

Status MiniDfs::scrub() {
  for (const std::string& path : namenode_.list_files()) {
    // Re-resolved under the path's shared lock: a delete racing the walk
    // either finished first (the file is skipped) or waits for the check.
    std::shared_lock<std::shared_mutex> path_lock(namenode_.path_mutex(path));
    const auto info = lookup_copy(path);
    if (info.status().code() == StatusCode::kNotFound) continue;
    if (!info.is_ok()) return info.status();
    DBLREP_ASSIGN_OR_RETURN(const ec::CodeScheme* code,
                            scheme(info->code_spec));
    for (cluster::StripeId stripe : info->stripes) {
      ec::SlotStore store;
      const auto holes = gather_all_slots(stripe, store);
      if (!holes.empty()) {
        return corruption_error(path + ": stripe " + std::to_string(stripe) +
                                " slot " + std::to_string(holes.front()) +
                                " missing or corrupt on a live node");
      }
      DBLREP_RETURN_IF_ERROR(code->verify_codeword(store, info->block_size));
    }
  }
  return Status::ok();
}

Result<std::size_t> MiniDfs::scrub_repair() {
  return repair_stripes(registered_stripes(), net::TransferClass::kScrub);
}

DataNode& MiniDfs::datanode(cluster::NodeId node) {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), datanodes_.size());
  return datanodes_[static_cast<std::size_t>(node)];
}

const DataNode& MiniDfs::datanode(cluster::NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), datanodes_.size());
  return datanodes_[static_cast<std::size_t>(node)];
}

Result<const ec::CodeScheme*> MiniDfs::code_for(
    const std::string& path) const {
  const auto file = lookup_copy(path);
  if (!file.is_ok()) return file.status();
  std::shared_lock<std::shared_mutex> lock(scheme_mu_);
  const auto it = schemes_.find(file->code_spec);
  if (it == schemes_.end()) {
    // Every published file's scheme was created through scheme(); a miss
    // means the namespace and scheme table disagree.
    return internal_error("no scheme for " + file->code_spec);
  }
  return it->second.get();
}

std::size_t MiniDfs::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& dn : datanodes_) total += dn.bytes_stored();
  return total;
}

}  // namespace dblrep::hdfs
