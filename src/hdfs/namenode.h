// Sharded NameNode: the scale-out metadata plane of MiniDfs.
//
// The striped per-path namespace locks of the concurrent data plane (PR 2)
// promoted to N real metadata shards: each shard owns a slice of the
// namespace (path -> FileInfo, selected by path hash), its own
// cluster::BlockCatalog, its own write-ahead Journal + snapshot, and its
// own lock domain (one shard mutex for the namespace + journal, a
// StripedSharedMutex for per-path data-plane exclusion). Metadata
// operations on paths in different shards never contend.
//
// One mutation path: every change to a shard's files, open writes, catalog
// stripes and rename intents is one JournalRecord passed through apply().
// A live mutation checks its preconditions, then applies each of its
// records and journals it only once it took hold; crash recovery replays
// the journal through the same apply(). Replay therefore matches live
// behaviour by construction.
//
// Identity across shard counts: stripe ids come from ONE global atomic
// counter and the mutation sequence from another, so the id a stripe gets
// -- and therefore every block address, every placement draw, every byte
// on every datanode -- is identical whether the namespace runs 1, 4, or 16
// shards. A StripeRouter (striped hash map id -> shard) routes catalog
// reads; a stripe lives forever in the catalog of the shard that allocated
// it, even if its file is later renamed into another shard.
//
// Cross-shard operations take their shard locks in shard-index order
// (deterministic, deadlock-free):
//  * rename across shards journals a three-record intent protocol
//    (RenameOut in the source shard, RenameIn in the destination,
//    RenameAck back in the source) inside one double-locked critical
//    section -- recovery completes any intent a crash left dangling.
//  * delete of a renamed file journals kDelete in the namespace shard and
//    kGcStripes in each shard whose catalog owns the file's stripes; the
//    locks are taken sequentially (never nested), and recovery's orphan
//    sweep covers a crash between the two.
//
// Durability model: "disk" is the per-shard snapshot + journal byte
// buffers. A NameNode crash (MiniDfs::crash_namenode, the chaos
// kNameNodeCrash event) discards every in-memory table and rebuilds from
// those buffers via restore() -- byte-identical catalog fingerprint, open
// writes rolled back. See hdfs/recovery.h for the replay semantics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/topology.h"
#include "common/status.h"
#include "ec/code.h"
#include "exec/striped_mutex.h"
#include "hdfs/journal.h"

namespace dblrep::hdfs {

struct FileInfo {
  std::string code_spec;
  std::size_t block_size = 0;
  std::size_t length = 0;  // logical bytes
  std::vector<cluster::StripeId> stripes;
  /// False while an open write transaction (a live FileWriter) still owns
  /// the path: stat() reports such files with their bytes-so-far, but they
  /// are invisible to readers until commit_write publishes them.
  bool sealed = true;
};

/// Resolves a code spec to its (long-lived) scheme. The NameNode keeps no
/// schemes of its own: MiniDfs passes its scheme table, standalone tests
/// pass an ec::make_code cache. Must be thread-safe and return pointers
/// that outlive the NameNode.
using SchemeResolver =
    std::function<Result<const ec::CodeScheme*>(const std::string&)>;

struct NameNodeOptions {
  /// Metadata shard count. 0 = the default, 4. Clamped to [1, 256].
  std::size_t shards = 0;
  /// Auto-snapshot a shard once its journal holds this many records
  /// (0 = manual snapshots only). Snapshots absorb the journal, bounding
  /// both memory and recovery replay length.
  std::size_t snapshot_every = 0;
};

/// What recovery did, and what the caller must clean up (MiniDfs drops
/// the datanode blocks of rolled-back writes).
struct RecoveryReport {
  std::size_t shards = 0;
  std::size_t snapshot_files = 0;   // files + pending loaded from snapshots
  std::size_t snapshot_stripes = 0;
  std::size_t journal_records_replayed = 0;
  std::size_t journal_bytes_discarded = 0;  // torn / corrupt tails
  std::size_t open_writes_rolled_back = 0;
  std::size_t rename_intents_completed = 0;
  std::size_t orphan_stripes_gced = 0;
};

/// Placement of one stripe handed back to the data plane when metadata is
/// dropped (delete / abort): enough to find every block without the
/// catalog entry, which no longer exists.
struct StripePlacement {
  cluster::StripeId id = 0;
  std::string code_spec;
  std::vector<cluster::NodeId> group;
};

struct RemovedFile {
  FileInfo info;
  std::vector<StripePlacement> stripes;
};

/// FileInfo <-> journal FileState (the serialized form drops the sealed
/// flag; the containing snapshot/record section implies it).
FileState to_file_state(const FileInfo& info);
FileInfo to_file_info(const FileState& state, bool sealed);

class NameNode {
 public:
  NameNode(const cluster::Topology& topology, SchemeResolver resolver,
           const NameNodeOptions& options);

  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_of(const std::string& path) const;

  // ------------------------------------------------- journaled mutations
  //
  // Each call checks its preconditions, then applies its records one by
  // one through apply() and journals each once it took hold, all inside
  // one shard-locked critical section: the journal is always a
  // serialization of the shard's history, and a rejected change never
  // reaches it.

  /// Reserves `path` for an open write (ALREADY_EXISTS if taken).
  Status begin_write(const std::string& path, const std::string& code_spec,
                     std::size_t block_size);

  /// Registers `groups` as new stripes of the open write at `path`,
  /// assigning ids from the global counter in order. The caller draws the
  /// placements (serially -- that is what makes ids and layouts
  /// deterministic); the transaction's spec resolves through the resolver.
  Result<std::vector<cluster::StripeId>> attach_stripes(
      const std::string& path,
      const std::vector<std::vector<cluster::NodeId>>& groups);

  /// Accounts `bytes` of stored payload to the open write (stat()
  /// progress; rolled back with the transaction on crash or abort).
  Status record_store(const std::string& path, cluster::StripeId stripe,
                      std::size_t bytes);

  /// Seals every stripe and publishes the path in one critical section.
  Status commit_write(const std::string& path);

  /// Drops the open write's metadata; the caller erases its blocks.
  Result<RemovedFile> abort_write(const std::string& path);

  /// Drops a published file's metadata (journaling kGcStripes into any
  /// foreign shard whose catalog owns stripes of a renamed file); the
  /// caller erases the blocks.
  Result<RemovedFile> remove_file(const std::string& path);

  /// Namespace move. Cross-shard renames run the three-record intent
  /// protocol under both shard locks (taken in shard-index order).
  Status rename(const std::string& from, const std::string& to);

  /// Atomic publish-then-delete swap for tier transitions: `from` (a
  /// published file, typically a freshly re-encoded temp) takes over path
  /// `to`, whose metadata is removed and returned for block GC. Journaled
  /// as kDelete(to) + the rename records, under both path locks, so `to`
  /// always resolves to a complete layout. NOT_FOUND if either path is not
  /// published -- a transition racing a delete of `to` loses cleanly.
  Result<RemovedFile> replace(const std::string& from, const std::string& to);

  // --------------------------------------------------------------- reads

  /// Published files only (readers): NOT_FOUND while a write is open.
  Result<FileInfo> lookup(const std::string& path) const;
  /// Published or in-flight (then sealed == false).
  Result<FileInfo> stat(const std::string& path) const;
  std::vector<std::string> list_files() const;  // sorted across shards
  std::size_t num_files() const;
  bool has_pending_writes() const;

  // -------------------------------- catalog view (BlockCatalog-shaped)
  //
  // The read surface every data-plane consumer of dfs.catalog() uses,
  // routed through the stripe router to the owning shard's catalog.

  const cluster::StripeInfo& stripe(cluster::StripeId id) const;
  cluster::NodeId node_of(cluster::SlotAddress address) const;
  std::vector<cluster::NodeId> replica_nodes(cluster::StripeId id,
                                             std::size_t symbol) const;
  bool is_registered(cluster::StripeId id) const;
  bool is_sealed(cluster::StripeId id) const;
  std::size_t num_stripes() const;  // live stripes across all shards
  std::vector<cluster::StripeId> stripes_on_node(cluster::NodeId node) const;
  std::set<ec::NodeIndex> failed_in_stripe(
      cluster::StripeId id, const std::set<cluster::NodeId>& down_nodes) const;

  /// Repair lease on the owning shard's catalog: pins the stripe so a
  /// concurrent delete/rename-driven unregistration waits for the lease to
  /// drain (or the repair aborts cleanly with ABORTED if the delete got
  /// there first). NOT_FOUND if the stripe is unknown anywhere.
  Status begin_repair(cluster::StripeId id);
  void end_repair(cluster::StripeId id);

  /// Per-path data-plane exclusion lock (shared for reads, exclusive for
  /// delete), from the owning shard's striped mutex.
  std::shared_mutex& path_mutex(const std::string& path) const;

  // ------------------------------------------- journal / snapshot / crash

  /// Snapshots every shard: serializes its image and clears its journal.
  void snapshot();

  /// Durable artifacts of one shard (copies -- what a crash would find).
  Buffer snapshot_bytes(std::size_t shard) const;
  Buffer journal_bytes(std::size_t shard) const;
  std::size_t journal_record_count(std::size_t shard) const;
  std::size_t total_journal_records() const;

  /// Order- and shard-count-independent fingerprint of the full metadata
  /// plane: files and pending entries (sorted by path), live stripes
  /// (sorted by id, with spec, seal state, and placement). Excludes
  /// tombstones and id/seq watermarks, so a rolled-back mutation
  /// fingerprints identically to one that never ran.
  std::uint64_t fingerprint() const;

  /// Rebuilds the whole metadata plane from per-shard artifacts (sizes
  /// must equal num_shards()): decode snapshot, replay journal (torn tails
  /// discarded), then reconcile -- complete rename intents, roll back open
  /// writes, sweep orphan stripes. Defined in hdfs/recovery.cc.
  Result<RecoveryReport> restore(std::vector<Buffer> snapshots,
                                 std::vector<Buffer> journals);

  /// Crash simulation: restore() from the current artifacts, exactly as if
  /// the process had died after its last journal append.
  Result<RecoveryReport> crash_and_recover();

  /// TEST ONLY: forget shard `shard`'s most recent journal record (a lost
  /// append) -- the injected fault the chaos true-positive coverage uses.
  Status testonly_drop_last_journal_record(std::size_t shard);

 private:
  struct Shard {
    mutable std::shared_mutex mu;  // namespace + journal + specs
    std::map<std::string, FileInfo> files;
    std::map<std::string, FileInfo> pending;
    cluster::BlockCatalog catalog;
    /// Spec of every live stripe in `catalog` (catalog stores scheme
    /// pointers; snapshots and fingerprints need the durable spec string).
    std::map<cluster::StripeId, std::string> stripe_specs;
    /// Cross-shard renames whose kRenameOut this shard applied and whose
    /// kRenameAck it has not: from -> (to, file). Empty between live
    /// operations; after replay, the intents recovery must finish.
    std::map<std::string, std::pair<std::string, FileState>> rename_intents;
    Journal journal;
    Buffer snapshot;
    mutable exec::StripedSharedMutex path_locks;

    explicit Shard(const cluster::Topology& topology) : catalog(topology) {}
  };
  using StripesByShard = std::map<std::uint32_t, std::vector<cluster::StripeId>>;

  /// Striped id -> shard map: catalog reads hash the id to a bucket and
  /// hit one small shared mutex, never a global one.
  struct RouterBucket {
    mutable std::shared_mutex mu;
    std::unordered_map<cluster::StripeId, std::uint32_t> shard;
  };
  static constexpr std::size_t kRouterBuckets = 64;

  std::uint32_t route(cluster::StripeId id) const;  // CHECKs on unknown id
  bool try_route(cluster::StripeId id, std::uint32_t& shard) const;
  void router_insert(cluster::StripeId id, std::uint32_t shard);
  void router_erase(cluster::StripeId id);
  void router_reset();

  /// The one function that changes a shard's files, pending writes,
  /// catalog stripes, stripe specs and rename intents: one case per record
  /// kind, shared by the live mutations and crash replay. Leaves the shard
  /// unchanged when it rejects the record (FAILED_PRECONDITION without an
  /// open write, NOT_FOUND without the file). kAbort, kDelete and
  /// kGcStripes drop the stripes this shard's catalog holds and, when
  /// `removed` is set, append their placements to it (kAbort and kDelete
  /// also move the entry's FileInfo there). Touches neither the journal
  /// nor the router.
  Status apply(Shard& shard, const JournalRecord& record,
               RemovedFile* removed);

  /// A live mutation's step: apply() `record` to shard `index`, then stamp
  /// the next seq and append it, then route the stripes it registered or
  /// dropped. Callers of the dropping kinds pass `removed`, which is how
  /// the router learns of the drops. Caller holds the unique lock.
  Status mutate_locked(std::size_t index, JournalRecord record,
                       RemovedFile* removed = nullptr);

  /// Moves published `from` (`file`) to the free path `to`: kRename within
  /// a shard, else the RenameOut / RenameIn / RenameAck intent protocol.
  /// Caller holds both shard locks.
  Status move_locked(const std::string& from, const std::string& to,
                     const FileInfo& file);

  /// Exclusive data-plane locks on both paths, in (shard, stripe) order --
  /// the global order every single-path locker is consistent with.
  std::array<std::unique_lock<std::shared_mutex>, 2> lock_paths(
      const std::string& x, const std::string& y) const;

  /// The stripes of a file removed by kDelete that are still routed: those
  /// other shards' catalogs own (it was renamed in), by owner.
  StripesByShard foreign_stripes(const FileInfo& info) const;

  /// Journals kGcStripes for `ids` in shard `owner`, adding their
  /// placements to `removed`. Caller holds the owner's unique lock.
  void gc_locked(std::uint32_t owner, const std::vector<cluster::StripeId>& ids,
                 RemovedFile& removed);
  /// gc_locked in each owner shard, one shard lock at a time (never nested
  /// in another).
  void gc_stripes(const StripesByShard& owners, RemovedFile& removed);

  std::uint64_t next_seq_locked() { return seq_.fetch_add(1) + 1; }

  /// Serializes `shard`'s image and clears its journal; caller holds the
  /// shard's unique lock.
  void snapshot_shard_locked(std::size_t index);
  /// Auto-snapshot check, run at the END of a public mutation (never
  /// between the records of a compound op -- a mid-op snapshot would
  /// absorb half the op). Caller holds the unique lock.
  void maybe_snapshot_locked(std::size_t index);

  cluster::Topology topology_;
  SchemeResolver resolver_;
  NameNodeOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::array<RouterBucket, kRouterBuckets> router_;
  /// Global counters: stripe ids and mutation seqs are shard-independent.
  std::atomic<std::uint64_t> next_stripe_id_{0};
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace dblrep::hdfs
