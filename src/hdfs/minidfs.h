// MiniDfs: an in-process distributed file system exercising the coding
// layer end to end with real bytes -- the role HDFS + HDFS-RAID play in the
// paper's Section 4 testbeds.
//
// Components (all in-process):
//  * NameNode state: file namespace (path -> stripes) + the cluster
//    BlockCatalog (stripe placements); placement runs through a selectable
//    cluster::PlacementPolicy -- flat (the paper's single-rack testbeds),
//    rack_aware replica spreading, or group_per_rack, which pins each
//    heptagon-local group to its own rack (Section 2.2).
//  * DataNodes: per-node CRC-checked block stores, each its own lock shard.
//  * Client operations: a write transaction (begin_write /
//    allocate_stripes / store_stripes / commit_write / abort_write) that
//    write_file runs in one go and the handle-based
//    hdfs::Client::FileWriter drives span by span -- store_stripes is the
//    one routine that encodes and stores stripes -- plus
//    pread (byte-range reads resolving only the covering stripes),
//    read_file / read_block (replica read, with corruption fallback and
//    on-the-fly degraded reads through ec::RepairPlan when every replica
//    is lost). Reads return SharedBlocks: a healthy block is verified in
//    the pass that copies it into the result (DataNode::read_into).
//  * Repair engine: degraded reads and heals share one rebuild loop (plan,
//    read the plan's slots, replan without nodes that failed a read,
//    execute, record), partial parities and all; repair_node, repair_all
//    and scrub_repair heal through it, against what their own read found.
//    With layered_repair enabled, every plan is rewritten through
//    ec::layer_plan so each rack relays one combined block.
//  * Traffic ledger (net::TrafficLedger): every byte that crosses the
//    (simulated) wire is recorded once, with its class and direction --
//    bucketed intra-rack, cross-rack, to-client, or from-client -- so tests
//    can assert the paper's repair-bandwidth numbers end to end, and a
//    harness can switch on capture to replay the transfers through the
//    link-level network model.
//
// Concurrency model (the paper's real deployment regime: many clients
// reading and writing while repairs run in the background):
//  * Byte-heavy operations -- store_stripes, read_file, pread,
//    repair_node, repair_all, scrub_repair -- fan their stripes out across
//    an exec::ThreadPool, and FileWriter handles spawn the stores of their
//    buffered stripes onto the same pool; placement stays serial
//    (allocate_stripes draws in allocation order) so the stripe layout (and
//    therefore every byte and traffic total) is identical to the
//    zero-worker serial execution.
//  * DataNode stores are per-node lock shards; the namespace is guarded by
//    a striped per-path shared mutex (concurrent readers, exclusive
//    delete/rename) plus a map-structure mutex.
//  * The codec (ec::StripeCodec) and the plan executor hold only their
//    immutable scheme or layout, so each is built on the stack where it
//    runs; the encoder's parity scratch is one buffer per thread.
//  * A write copies each coded symbol once into a SharedBlock and stores
//    that block in every replica slot of the symbol, as a repair by
//    transfer stores a twin's block; each DataNode keeps its own CRC.
//  * Degraded-read and repair plans share one cache, keyed by (code,
//    target, failed nodes, lost slots), under a shared-read lock; a plan is
//    built once and replayed across stripes, reads, and threads.
//  * Deletes and renames are safe to run concurrently with repair and
//    scrub: each repair pass pins its stripe with a catalog repair lease
//    (NameNode::begin_repair), so a racing delete drain-waits for the
//    lease -- or, if it wins the race, the repair aborts cleanly and
//    skips the stripe. scrub() holds the per-path shared lock, which a
//    delete's exclusive acquisition already excludes.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "cluster/catalog.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/code.h"
#include "exec/striped_mutex.h"
#include "exec/thread_pool.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "net/transfer.h"

namespace dblrep::hdfs {

/// Observer of namespace-level client access, for heat tracking (the
/// tiering layer's tier::HeatTracker implements this; the hdfs layer only
/// knows the interface, keeping the dependency arrow tier -> hdfs).
///
/// Callbacks fire from client read/commit/delete/rename paths, possibly
/// concurrently -- implementations must be thread-safe. Reads under a
/// background TransferClass (repair, scrub, retier) never call on_read, so
/// a re-encode does not heat the file it is cooling; the re-encode's temp
/// file does accrue an on_write at its commit, which on_replace tells the
/// observer to discard.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// A client read delivered `bytes` logical bytes of `path`.
  virtual void on_read(const std::string& path, std::size_t bytes) {
    (void)path;
    (void)bytes;
  }
  /// A client write committed `path` at `bytes` logical bytes.
  virtual void on_write(const std::string& path, std::size_t bytes) {
    (void)path;
    (void)bytes;
  }
  virtual void on_delete(const std::string& path) { (void)path; }
  virtual void on_rename(const std::string& from, const std::string& to) {
    (void)from;
    (void)to;
  }
  /// replace_file(from, to) succeeded: `from`'s bytes now serve `to`. The
  /// temp path's tracking state should be dropped, `to`'s kept.
  virtual void on_replace(const std::string& from, const std::string& to) {
    (void)from;
    (void)to;
  }
};

/// Data-plane knobs fixed at construction.
struct MiniDfsOptions {
  /// How stripe groups map onto cluster nodes (and therefore racks).
  cluster::PlacementPolicy placement =
      cluster::PlacementPolicy::kGroupPerRack;

  /// Rewrite every repair / degraded-read plan into two-stage layered form
  /// (ec::layer_plan): helpers send to an intra-rack aggregator, one
  /// combined block crosses the rack boundary. Rebuilt bytes are identical
  /// either way; only the traffic's rack split changes.
  bool layered_repair = false;

  /// Metadata shard count of the sharded NameNode (0 = the default, 4).
  /// Stripe ids come from a global counter, so placement, bytes, and
  /// traffic are identical for every shard count -- only metadata-plane
  /// contention changes.
  std::size_t meta_shards = 0;

  /// Auto-snapshot a metadata shard once its write-ahead journal holds
  /// this many records (0 = manual snapshot_namenode() only).
  std::size_t meta_snapshot_every = 0;

  /// Access observer for heat tracking (see AccessObserver). Not owned;
  /// must outlive the DFS. nullptr (the default) changes nothing.
  AccessObserver* access_observer = nullptr;
};

class MiniDfs {
 public:
  /// Runs parallel operations on exec::default_pool() (DBLREP_THREADS
  /// override applies).
  MiniDfs(const cluster::Topology& topology, std::uint64_t seed);

  /// Pool injection for benchmarks and determinism tests. `pool` is not
  /// owned and must outlive the DFS; nullptr selects exec::inline_pool(),
  /// i.e. the fully serial execution order.
  MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
          exec::ThreadPool* pool);

  MiniDfs(const cluster::Topology& topology, std::uint64_t seed,
          exec::ThreadPool* pool, const MiniDfsOptions& options);

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  // ----------------------------------------- streaming write transaction
  //
  // The storage-core half of the handle-based client API (hdfs::Client /
  // FileWriter compose these; write_file is the bulk wrapper):
  //
  //   begin_write -> { allocate_stripes -> store_stripes }* -> commit_write
  //
  // with abort_write rolling every landed block and registered stripe back
  // on any failure. The transaction is single-owner: allocate_stripes must
  // be called from one thread per transaction, in stripe order --
  // placement draws stay a deterministic function of allocation order --
  // while store_stripes is safe to run from many threads concurrently for
  // distinct stripes of the same transaction. commit_write / abort_write
  // must not overlap in-flight allocate/store calls of the same
  // transaction: the owner drains its stores first (FileWriter does) --
  // the primitives do not guard against it. Until commit, the path is
  // visible only to stat() (with FileInfo::sealed == false); readers get
  // NOT_FOUND.

  /// Opens a write transaction: reserves `path` (concurrent creators fail
  /// fast with ALREADY_EXISTS) and validates the code spec and block size.
  Status begin_write(const std::string& path, const std::string& code_spec,
                     std::size_t block_size);

  /// Places and registers (unsealed) the transaction's next `count`
  /// stripes under one lock hold and one live-node scan. Draw order is
  /// identical to `count` calls of one stripe each.
  Result<std::vector<cluster::StripeId>> allocate_stripes(
      const std::string& path, std::size_t count);

  /// Encodes `data` -- the logical bytes of `stripes` in stripe order, the
  /// last stripe possibly short (zero-padded) -- and stores every slot on
  /// its placed node. Runs of StripeCodec::batch_stripes() stripes share
  /// one fused encode_batch pass and fan out across the pool, the caller
  /// taking part (a single run executes inline). Each symbol is copied
  /// once into a SharedBlock that all of its replica slots store. Every
  /// upload is charged under `cls` (client write by default; the tiering
  /// re-encode passes kRetier so its bytes are throttleable like repair),
  /// and the call journals one record_store for all of its bytes. Returns
  /// the lowest failing stripe's error. The stripes stay unsealed --
  /// invisible to repair and scrub -- until commit_write.
  Status store_stripes(
      const std::string& path, std::span<const cluster::StripeId> stripes,
      ByteSpan data,
      net::TransferClass cls = net::TransferClass::kClientWrite);

  /// Seals every stored stripe and publishes the path: repair, scrub, and
  /// readers all see the file from here on. Sealing and publishing happen
  /// in one step so no stripe is ever both sealed and abortable.
  Status commit_write(const std::string& path);

  /// Rolls the transaction back: drops every landed block, unregisters
  /// every allocated stripe, and releases the path.
  Status abort_write(const std::string& path);

  // ------------------------------------------------------------ client

  /// Writes `data` as a new file encoded with `code_spec`, striping into
  /// blocks of `block_size` bytes. Thin wrapper over the write transaction
  /// above: every stripe is placed up front (serial draws, so the layout is
  /// deterministic per seed), then one store_stripes call stores them all,
  /// charging every upload under `cls`.
  Status write_file(
      const std::string& path, ByteSpan data, const std::string& code_spec,
      std::size_t block_size,
      net::TransferClass cls = net::TransferClass::kClientWrite);

  /// Whole-file read: pread of [0, length). `cls` classes the delivery
  /// traffic (client read by default; kRetier for tiering re-encode
  /// streams).
  Result<SharedBlock> read_file(
      const std::string& path,
      net::TransferClass cls = net::TransferClass::kClientRead);

  /// Byte-range read: resolves only the stripes covering
  /// [offset, offset + len) and streams them in parallel, with the same
  /// per-block replica fallbacks and on-the-fly degraded reads as
  /// read_block. Each block a healthy read touches is verified in full
  /// while its overlap is copied into the result, in one pass, and charged
  /// in full. Reads are clamped at EOF (the result carries
  /// min(len, length - offset) bytes; len may overshoot); an offset beyond
  /// EOF is INVALID_ARGUMENT, and a zero-length range is an empty block.
  Result<SharedBlock> pread(
      const std::string& path, std::size_t offset, std::size_t len,
      net::TransferClass cls = net::TransferClass::kClientRead);

  /// Reads one data block (index within the file): the block the replica
  /// read or degraded read produced, shared rather than copied. Indices at
  /// or past the file's last logical block are INVALID_ARGUMENT.
  Result<SharedBlock> read_block(
      const std::string& path, std::size_t block_index,
      net::TransferClass cls = net::TransferClass::kClientRead);

  Status delete_file(const std::string& path);
  Status rename(const std::string& from, const std::string& to);

  /// Atomic publish-then-delete swap: `from` (a fully written temp file)
  /// takes over path `to`, whose old stripes and blocks are dropped. This
  /// is the tiering transition's commit step -- at every instant `to`
  /// resolves to a complete, readable layout (the old one until the swap,
  /// the new one after). NOT_FOUND if either path is missing, so a
  /// transition racing a delete of `to` loses cleanly and can drop its
  /// temp file.
  Status replace_file(const std::string& from, const std::string& to);

  /// Metadata of a published file, or of a write in flight (then with
  /// sealed == false and length == bytes stored so far).
  Result<FileInfo> stat(const std::string& path) const;
  std::vector<std::string> list_files() const;

  // -------------------------------------------------------- membership

  /// Crash-fails a node (its stored bytes are gone).
  Status fail_node(cluster::NodeId node);

  /// Transient outage: the node becomes unreachable but keeps its disk.
  /// restart_node (or any repair) brings it back with all blocks intact --
  /// the failure class HDFS's repair timeout exists to mask.
  Status offline_node(cluster::NodeId node);

  /// Brings a node back up: empty after fail_node, intact after
  /// offline_node. Call repair_node to refill any holes.
  Status restart_node(cluster::NodeId node);

  /// Restarts the node and rebuilds its stripes' holes on live nodes, its
  /// own slots included, with the stripes' other down nodes as failed
  /// helpers. The node's stripes are repaired in parallel across the pool.
  Status repair_node(cluster::NodeId node);

  /// Restarts every down node, then repairs each stripe once against all
  /// of its holes (partial parities and all), corrupt replicas included.
  Status repair_all();

  std::set<cluster::NodeId> down_nodes() const;

  // ------------------------------------------------------------- scrub

  /// Verifies CRCs and full codeword consistency of every stripe.
  Status scrub();

  /// Scrubs and *heals*: repair_all's sweep without the restarts, charged
  /// as kScrub: corrupt or missing slots on live nodes are rebuilt, a
  /// replica from its twin. Returns the number of slots rewritten, or the
  /// lowest failing stripe's error (DATA_LOSS if beyond recovery).
  Result<std::size_t> scrub_repair();

  // ------------------------------------------------------------ access

  /// The traffic ledger. Switch capture on (traffic().set_capture(true))
  /// to drain every transfer as a net::TransferRecord for replay into a
  /// net::NetworkModel; capture changes no data-plane behavior (bytes,
  /// placement, traffic totals).
  const net::TrafficLedger& traffic() const { return traffic_; }
  net::TrafficLedger& traffic() { return traffic_; }
  const MiniDfsOptions& options() const { return options_; }
  /// The metadata plane's catalog view (BlockCatalog-shaped read surface,
  /// routed across the NameNode's shards).
  const NameNode& catalog() const { return namenode_; }
  const NameNode& namenode() const { return namenode_; }
  NameNode& namenode() { return namenode_; }

  /// Snapshots every metadata shard (absorbing its journal) -- the
  /// checkpoint half of the durability story.
  void snapshot_namenode() { namenode_.snapshot(); }

  /// Kills and recovers the NameNode from its durable artifacts (snapshot
  /// + write-ahead journal per shard): every in-memory table is rebuilt,
  /// open writes roll back, and datanode blocks whose stripes died with
  /// them (rolled-back writes, half-finished deletes) are dropped via the
  /// usual block-report GC. Requires quiescence -- no concurrent clients --
  /// exactly like a real crash.
  Result<RecoveryReport> crash_namenode();

  /// Order- and shard-count-independent metadata fingerprint (namespace +
  /// pending writes + live stripes); the chaos recovery invariant compares
  /// it across a crash.
  std::uint64_t catalog_fingerprint() const { return namenode_.fingerprint(); }

  DataNode& datanode(cluster::NodeId node);
  const DataNode& datanode(cluster::NodeId node) const;
  const cluster::Topology& topology() const { return topology_; }

  /// Scheme of a published file. NOT_FOUND for unknown paths -- a legal
  /// race when concurrent clients look up files being created or deleted,
  /// not a programming error.
  Result<const ec::CodeScheme*> code_for(const std::string& path) const;
  exec::ThreadPool& pool() const { return *pool_; }

  /// Total stored bytes across all datanodes (for overhead assertions).
  std::size_t stored_bytes() const;

 private:
  /// The client half of the API (handle-based writers, async wrappers)
  /// composes the transaction primitives and scheme lookups directly.
  friend class Client;

  /// Plans keyed by (code, target, code-local failed nodes, lost slots),
  /// where the target is a data block index for a degraded read (no lost
  /// slots) or kRepairTarget for a stripe repair; shared across stripes,
  /// reads, repair rounds, and threads.
  using PlanKey = std::tuple<const ec::CodeScheme*, std::size_t,
                             std::set<ec::NodeIndex>, std::set<std::size_t>>;
  static constexpr std::size_t kRepairTarget = static_cast<std::size_t>(-1);

  /// Snapshot of a file's metadata under the namespace lock. FileInfo is
  /// immutable once published, so the copy stays valid without holding any
  /// lock while bytes move.
  Result<FileInfo> lookup_copy(const std::string& path) const;

  /// The immutable scheme of `code_spec`, created on first use and shared
  /// by every file, thread, and plan of that spec; an unknown spec fails
  /// as ec::make_code does.
  Result<const ec::CodeScheme*> scheme(const std::string& code_spec);

  /// Plan under `code` for `target` -- a degraded read of that data block
  /// while the `failed` nodes serve nothing, or kRepairTarget to rebuild
  /// the `lost` slots with the `failed` nodes down -- computed once per
  /// distinct key and served under a shared-read lock afterwards. The
  /// returned pointer stays valid for the lifetime of the DFS (entries are
  /// never evicted).
  Result<const ec::RepairPlan*> cached_plan(
      const ec::CodeScheme& code, std::size_t target,
      const std::set<ec::NodeIndex>& failed,
      const std::set<std::size_t>& lost);

  /// The one CRC-checked slot reader: reads each of `slots` not in `store`
  /// into it. A slot on a down node (UNAVAILABLE) adds the node to `down`;
  /// returns the slots missing or corrupt (NOT_FOUND, CORRUPTION): holes.
  std::set<std::size_t> gather_stripe(cluster::StripeId stripe,
                                      std::span<const std::size_t> slots,
                                      ec::SlotStore& store,
                                      std::set<ec::NodeIndex>& down) const;

  /// The one rebuild path of degraded reads (`target` a data block) and
  /// heals (kRepairTarget, the `lost` slots): plans against `failed`, layers
  /// the plan, gathers its source_slots() into `store`, and plans again
  /// without every node whose source failed to read. Then executes the plan
  /// over `store`, where rebuilt slots land, and charges its sends under
  /// `cls`. Returns the blocks delivered to the client, in unit order.
  Result<std::vector<SharedBlock>> rebuild(
      cluster::StripeId stripe, std::size_t target,
      std::set<ec::NodeIndex> failed, const std::set<std::size_t>& lost,
      ec::SlotStore& store, net::TransferClass cls);

  /// Records an executed plan's sends, `unit_bytes` each, under `cls`,
  /// then marks the end of its flow.
  Status record_plan_sends(const ec::RepairPlan& plan,
                           const std::vector<cluster::NodeId>& group,
                           double unit_bytes, net::TransferClass cls);

  /// Rack of each code-local node of a placement group, per the topology.
  std::vector<int> group_racks(
      const std::vector<cluster::NodeId>& group) const;

  /// Reads one data block (all α sub-chunk units) of one stripe with all
  /// fallbacks -- the replica walk first, then a degraded read: a rebuild
  /// of the block, seeded with the stripe's down nodes and the holders the
  /// walk could not read; records traffic at unit granularity,
  /// every unit verified and charged in full. With an empty `dst` it
  /// returns the block: for α == 1 the DataNode's block itself
  /// (DataNode::get) or the block the plan rebuilt, neither copied; for
  /// α > 1 its units assembled in one pass. Otherwise bytes
  /// [offset, offset + dst.size()) of the block land in `dst`
  /// (DataNode::read_into, or a copy out of the rebuilt units) and the
  /// returned block is empty.
  Result<SharedBlock> read_data_block(const FileInfo& file,
                                      cluster::StripeId stripe,
                                      std::size_t block,
                                      net::TransferClass cls,
                                      std::size_t offset = 0,
                                      MutableByteSpan dst = {});

  /// Range-read core shared by pread and read_file: fans the covering
  /// stripes out across the pool, and each block lands its overlap with the
  /// window in an uninitialised result, trimming the first and last block.
  /// `offset` must be <= info.length.
  Result<SharedBlock> pread_span(const FileInfo& info,
                                 const ec::CodeScheme& code,
                                 std::size_t offset, std::size_t len,
                                 net::TransferClass cls);

  /// Drops every landed block of a removed file's placements (abort_write,
  /// delete_file, replace_file: the catalog entries are already gone).
  Status drop_blocks(const RemovedFile& removed);

  /// The one heal path (repair_node, repair_all, scrub_repair): reads every
  /// slot once and rebuilds the holes it found on live nodes, with the
  /// nodes it found down as failed helpers, charging every plan send under
  /// `cls`. Returns the number of slots rewritten.
  Result<std::size_t> repair_stripe(cluster::StripeId stripe,
                                    net::TransferClass cls);

  /// repair_stripe under `cls` over `stripes`, fanned out across the pool;
  /// returns the slots rewritten in total, or the lowest failing stripe's
  /// error once every stripe has run.
  Result<std::size_t> repair_stripes(
      const std::vector<cluster::StripeId>& stripes, net::TransferClass cls);

  /// Every stripe the catalog holds, sealed or not, ascending.
  std::vector<cluster::StripeId> registered_stripes() const;

  /// Block-report semantics on rejoin: a node returning from a transient
  /// outage may hold replicas of stripes deleted while it was away; drop
  /// them so the catalog and the disks agree again.
  void gc_stale_replicas(DataNode& dn);

  cluster::Topology topology_;
  MiniDfsOptions options_;
  /// The sharded metadata plane: namespace, pending writes, block catalog,
  /// per-path locks, write-ahead journals, and snapshots all live here.
  NameNode namenode_;
  net::TrafficLedger traffic_;
  exec::ThreadPool* pool_;
  std::deque<DataNode> datanodes_;  // deque: DataNode is pinned (own mutex)

  mutable std::mutex place_mu_;  // guards rng_ + placement decisions
  Rng rng_;

  mutable std::shared_mutex scheme_mu_;  // guards schemes_
  std::map<std::string, std::unique_ptr<ec::CodeScheme>> schemes_;

  mutable std::shared_mutex plan_mu_;  // guards plan_cache_
  std::map<PlanKey, ec::RepairPlan> plan_cache_;
};

}  // namespace dblrep::hdfs
