// Crash-point recovery fuzzing of the sharded NameNode.
//
// The core property: for a scripted metadata workload, truncating the
// write-ahead journals at *every* global sequence cut S (plus mid-record
// byte cuts and CRC-corrupted tails) and recovering must land the catalog
// in a consistent pre- or post-mutation state for every mutation type --
// never anything in between. Consistency is checked against an oracle: a
// fresh single-shard NameNode that re-runs exactly the operations whose
// *decisive* record (kCommit for creates, kDelete for deletes,
// kRename/kRenameOut for renames) survived the cut, with non-surviving
// and aborted creates neutralized (begin + attach + abort) so the global
// stripe-id sequence matches the original run. The oracle never touches
// the journal codec or restore(), but its mutations and restore()'s
// replay both change a shard only through NameNode::apply: the fuzzer
// proves that replay reaches the state the same operations reach live,
// not that those operations do what they always did. That independent
// check is NameNodeJournal.ScriptedLifecycleMatchesTheParent
// (journal_test.cc), which pins the bytes the live path journals.
//
// Because the fingerprint is shard-count independent, one oracle serves
// every shard count: the fuzzer runs the same workload and cut sweep at
// 1, 4, and 16 shards. The workload's files cycle through every
// registered paper code scheme, so every scheme's allocate/commit/GC
// records go through the codec and replay.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/code.h"
#include "ec/registry.h"
#include "hdfs/journal.h"
#include "hdfs/minidfs.h"
#include "hdfs/namenode.h"
#include "hdfs/recovery.h"

namespace dblrep::hdfs {
namespace {

// 25 nodes: enough for the widest paper code (raidm-11 spans 24).
constexpr std::size_t kNumNodes = 25;
constexpr std::size_t kNumRacks = 5;
constexpr std::size_t kBlockSize = 256;

cluster::Topology make_topology() {
  cluster::Topology topology;
  topology.num_nodes = kNumNodes;
  topology.num_racks = kNumRacks;
  return topology;
}

/// Shared scheme cache: catalogs hold raw CodeScheme pointers, and the
/// fuzzer builds hundreds of NameNodes.
SchemeResolver shared_resolver() {
  static auto* schemes =
      new std::map<std::string, std::unique_ptr<ec::CodeScheme>>();
  return [](const std::string& spec) -> Result<const ec::CodeScheme*> {
    auto it = schemes->find(spec);
    if (it == schemes->end()) {
      auto code = ec::make_code(spec);
      if (!code.is_ok()) return code.status();
      it = schemes->emplace(spec, std::move(*code)).first;
    }
    return it->second.get();
  };
}

NameNode make_namenode(std::size_t shards, std::size_t snapshot_every = 0) {
  static const cluster::Topology topology = make_topology();
  return NameNode(topology, shared_resolver(),
                  NameNodeOptions{.shards = shards,
                                  .snapshot_every = snapshot_every});
}

// ------------------------------------------------- scripted workload

struct Op {
  enum Kind { kCreate, kAbortedCreate, kOpenWrite, kDelete, kRename } kind;
  std::string path;
  std::string path2;     // rename target
  std::string spec;      // creates
  std::size_t stripes = 0;
  std::size_t bytes = 0;
  /// Seq of the record that makes the op visible after recovery (0 for
  /// ops that are invisible at every cut). Filled in from the
  /// straight-line run's journals.
  std::uint64_t decisive = 0;
};

/// The fuzzed workload: every mutation type, every paper scheme, a
/// rename-then-delete chain, and a write left open at the crash.
std::vector<Op> scripted_ops() {
  std::vector<Op> ops;
  const auto specs = ec::paper_code_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops.push_back({Op::kCreate, "/w/d" + std::to_string(i % 3) + "/f" +
                                    std::to_string(i),
                   "", specs[i], 1 + i % 2, 100 * (i + 1)});
  }
  ops.push_back({Op::kAbortedCreate, "/w/tmp0", "", specs[0], 2, 50});
  ops.push_back({Op::kDelete, "/w/d2/f2", "", "", 0, 0});
  ops.push_back({Op::kRename, "/w/d0/f3", "/moved/g3", "", 0, 0});
  ops.push_back({Op::kDelete, "/moved/g3", "", "", 0, 0});
  ops.push_back({Op::kRename, "/w/d1/f4", "/moved/g4", "", 0, 0});
  ops.push_back({Op::kCreate, "/w/late", "", specs[1], 2, 640});
  ops.push_back({Op::kOpenWrite, "/w/open", "", specs[2], 2, 90});
  return ops;
}

/// Deterministic placement for stripe `j` of op `index`: a function of
/// nothing but (index, j), so the oracle reproduces the original run's
/// groups exactly.
std::vector<std::vector<cluster::NodeId>> groups_for(const Op& op,
                                                     std::size_t index,
                                                     std::size_t num_nodes) {
  std::vector<std::vector<cluster::NodeId>> groups;
  for (std::size_t j = 0; j < op.stripes; ++j) {
    std::vector<cluster::NodeId> group(num_nodes);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      group[n] =
          static_cast<cluster::NodeId>((7 * index + 3 * j + n) % kNumNodes);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

void run_create_steps(NameNode& nn, const Op& op, std::size_t index,
                      bool publish) {
  const ec::CodeScheme& code = *shared_resolver()(op.spec).value();
  ASSERT_TRUE(nn.begin_write(op.path, op.spec, kBlockSize).is_ok())
      << op.path;
  const auto stripes =
      nn.attach_stripes(op.path, groups_for(op, index, code.num_nodes()));
  ASSERT_TRUE(stripes.is_ok()) << op.path << ": "
                               << stripes.status().to_string();
  ASSERT_TRUE(nn.record_store(op.path, stripes->front(), op.bytes).is_ok());
  if (publish) {
    ASSERT_TRUE(nn.commit_write(op.path).is_ok()) << op.path;
  } else {
    ASSERT_TRUE(nn.abort_write(op.path).is_ok()) << op.path;
  }
}

/// Straight-line execution of ops[lo, hi) (every op runs to its scripted
/// end; kOpenWrite stays open -- the state a crash would find). Indices
/// stay global so groups_for draws the same placements in partial runs.
void run_workload(NameNode& nn, const std::vector<Op>& ops,
                  std::size_t lo = 0,
                  std::size_t hi = std::size_t(-1)) {
  for (std::size_t i = lo; i < std::min(hi, ops.size()); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kCreate:
        run_create_steps(nn, op, i, /*publish=*/true);
        break;
      case Op::kAbortedCreate:
        run_create_steps(nn, op, i, /*publish=*/false);
        break;
      case Op::kOpenWrite: {
        const ec::CodeScheme& code = *shared_resolver()(op.spec).value();
        ASSERT_TRUE(nn.begin_write(op.path, op.spec, kBlockSize).is_ok());
        ASSERT_TRUE(
            nn.attach_stripes(op.path, groups_for(op, i, code.num_nodes()))
                .is_ok());
        break;
      }
      case Op::kDelete:
        ASSERT_TRUE(nn.remove_file(op.path).is_ok()) << op.path;
        break;
      case Op::kRename:
        ASSERT_TRUE(nn.rename(op.path, op.path2).is_ok()) << op.path;
        break;
    }
  }
}

/// Finds each op's decisive record in the straight-line run's journals
/// and returns the highest seq seen anywhere.
std::uint64_t fill_decisive_seqs(const NameNode& nn, std::vector<Op>& ops) {
  std::vector<JournalRecord> records;
  std::uint64_t max_seq = 0;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    const Buffer bytes = nn.journal_bytes(s);
    const ParsedJournal parsed = parse_journal(bytes);
    EXPECT_TRUE(parsed.clean()) << parsed.tail_error;
    for (const auto& r : parsed.records) {
      records.push_back(r);
      max_seq = std::max(max_seq, r.seq);
    }
  }
  for (auto& op : ops) {
    for (const auto& r : records) {
      const bool match =
          (op.kind == Op::kCreate && r.kind == JournalRecordKind::kCommit &&
           r.path == op.path) ||
          (op.kind == Op::kDelete && r.kind == JournalRecordKind::kDelete &&
           r.path == op.path) ||
          (op.kind == Op::kRename &&
           (r.kind == JournalRecordKind::kRename ||
            r.kind == JournalRecordKind::kRenameOut) &&
           r.path == op.path);
      if (match) {
        EXPECT_EQ(op.decisive, 0u) << "two decisive records for " << op.path;
        op.decisive = r.seq;
      }
    }
    if (op.kind == Op::kCreate || op.kind == Op::kDelete ||
        op.kind == Op::kRename) {
      EXPECT_NE(op.decisive, 0u) << "no decisive record for " << op.path;
    }
  }
  return max_seq;
}

/// The independent oracle: a fresh single-shard NameNode that re-runs the
/// ops whose decisive seq is < `cut`. Creates that did not survive (and
/// aborted/open ones, which survive no cut) still allocate their stripes
/// and then abort, keeping the global stripe-id draw order identical to
/// the original run's. Results cached per surviving-prefix: decisive seqs
/// are strictly increasing in program order, so the surviving set is
/// always a prefix of the decisive ops.
class Oracle {
 public:
  explicit Oracle(const std::vector<Op>& ops) : ops_(ops) {}

  std::uint64_t fingerprint_at(std::uint64_t cut) {
    std::size_t survivors = 0;
    for (const auto& op : ops_) {
      if (op.decisive != 0 && op.decisive < cut) ++survivors;
    }
    const auto it = cache_.find(survivors);
    if (it != cache_.end()) return it->second;

    NameNode nn = make_namenode(1);
    std::size_t applied = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      const bool survives = op.decisive != 0 && applied < survivors;
      switch (op.kind) {
        case Op::kCreate:
          run_create_steps(nn, op, i, /*publish=*/survives);
          break;
        case Op::kAbortedCreate:
        case Op::kOpenWrite:
          // Invisible at every cut, but their stripe-id draws are not.
          run_create_steps(nn, op, i, /*publish=*/false);
          break;
        case Op::kDelete:
          if (survives) {
            EXPECT_TRUE(nn.remove_file(op.path).is_ok());
          }
          break;
        case Op::kRename:
          if (survives) {
            EXPECT_TRUE(nn.rename(op.path, op.path2).is_ok());
          }
          break;
      }
      if (op.decisive != 0 && survives) ++applied;
    }
    EXPECT_EQ(applied, survivors);
    const std::uint64_t fp = nn.fingerprint();
    cache_.emplace(survivors, fp);
    return fp;
  }

 private:
  const std::vector<Op>& ops_;
  std::map<std::size_t, std::uint64_t> cache_;
};

std::vector<Buffer> journals_at_cut(const NameNode& nn, std::uint64_t cut) {
  std::vector<Buffer> journals;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    const Buffer bytes = nn.journal_bytes(s);
    journals.push_back(truncate_journal_at_seq(bytes, cut));
  }
  return journals;
}

std::vector<Buffer> snapshots_of(const NameNode& nn) {
  std::vector<Buffer> snapshots;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    snapshots.push_back(nn.snapshot_bytes(s));
  }
  return snapshots;
}

// ------------------------------------------------------ the fuzzer

class CrashPointFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrashPointFuzz, EveryJournalCutRecoversToOracleState) {
  const std::size_t shards = GetParam();
  std::vector<Op> ops = scripted_ops();
  NameNode nn = make_namenode(shards);
  run_workload(nn, ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const std::uint64_t max_seq = fill_decisive_seqs(nn, ops);
  ASSERT_GT(max_seq, 0u);

  Oracle oracle(ops);
  for (std::uint64_t cut = 1; cut <= max_seq + 1; ++cut) {
    NameNode scratch = make_namenode(shards);
    const auto report =
        scratch.restore(snapshots_of(nn), journals_at_cut(nn, cut));
    ASSERT_TRUE(report.is_ok())
        << "cut " << cut << ": " << report.status().to_string();
    EXPECT_FALSE(scratch.has_pending_writes()) << "cut " << cut;
    EXPECT_EQ(scratch.fingerprint(), oracle.fingerprint_at(cut))
        << "cut " << cut << " under " << shards << " shards";
  }
}

TEST_P(CrashPointFuzz, RecoveryIsIdempotent) {
  const std::size_t shards = GetParam();
  std::vector<Op> ops = scripted_ops();
  NameNode nn = make_namenode(shards);
  run_workload(nn, ops);
  const std::uint64_t max_seq = fill_decisive_seqs(nn, ops);

  const std::uint64_t cut = max_seq / 2 + 1;
  NameNode once = make_namenode(shards);
  ASSERT_TRUE(once.restore(snapshots_of(nn), journals_at_cut(nn, cut))
                  .is_ok());
  // Crash again immediately: the recovered artifacts must reproduce the
  // recovered state exactly.
  const std::uint64_t fp = once.fingerprint();
  ASSERT_TRUE(once.crash_and_recover().is_ok());
  EXPECT_EQ(once.fingerprint(), fp);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, CrashPointFuzz,
                         ::testing::Values(1, 4, 16));

TEST(CrashPointFuzzBytes, MidRecordAndCorruptCutsEqualPriorBoundary) {
  // Byte-level cuts on a single-shard run (global seq == shard order):
  // truncating mid-frame or corrupting the tail CRC must recover exactly
  // the prior record boundary's state -- torn appends are as if the
  // mutation never reached the journal.
  std::vector<Op> ops = scripted_ops();
  NameNode nn = make_namenode(1);
  run_workload(nn, ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  fill_decisive_seqs(nn, ops);

  const Buffer bytes = nn.journal_bytes(0);
  const ParsedJournal parsed = parse_journal(bytes);
  ASSERT_TRUE(parsed.clean());

  Oracle oracle(ops);
  const auto fingerprint_of = [&](Buffer journal) {
    NameNode scratch = make_namenode(1);
    const auto report =
        scratch.restore(snapshots_of(nn), {std::move(journal)});
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    return scratch.fingerprint();
  };

  std::size_t start = 0;
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    const std::size_t end = start + encode_record(parsed.records[i]).size();
    // The state a cut anywhere inside record i must land in: record i
    // lost, records 0..i-1 replayed.
    const std::uint64_t expected =
        oracle.fingerprint_at(parsed.records[i].seq);

    for (const std::size_t cut :
         {start + 1, start + (end - start) / 2, end - 1}) {
      Buffer torn(bytes.begin(), bytes.begin() + cut);
      EXPECT_EQ(fingerprint_of(std::move(torn)), expected)
          << "record " << i << " byte cut " << cut;
    }
    Buffer corrupt(bytes.begin(), bytes.begin() + end);
    corrupt[start + 8] ^= 0x20;  // payload flip: CRC catches it
    EXPECT_EQ(fingerprint_of(std::move(corrupt)), expected)
        << "record " << i << " CRC flip";
    start = end;
  }
  ASSERT_EQ(start, bytes.size());
}

TEST(CrashPointFuzzSnapshot, CutsAfterMidWorkloadSnapshotRecover) {
  // Snapshot halfway through the workload, keep mutating, then fuzz every
  // post-snapshot cut: recovery is image + remaining-journal replay.
  std::vector<Op> ops = scripted_ops();
  NameNode nn = make_namenode(4);

  run_workload(nn, ops, 0, ops.size() / 2);
  nn.snapshot();
  run_workload(nn, ops, ops.size() / 2);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // The snapshot absorbed the head's journal records, so decisive seqs
  // come from an identical probe run -- same shard count, because a
  // cross-shard rename draws three seqs where a same-shard one draws one.
  NameNode plain = make_namenode(4);
  run_workload(plain, ops);
  const std::uint64_t max_seq = fill_decisive_seqs(plain, ops);

  // A crash can only happen after the snapshot existed: the earliest
  // consistent cut keeps everything the images already absorbed.
  std::uint64_t snapshot_seq = 0;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    const auto image = decode_snapshot(nn.snapshot_bytes(s));
    ASSERT_TRUE(image.is_ok());
    snapshot_seq = std::max(snapshot_seq, image->last_seq);
  }
  ASSERT_GT(snapshot_seq, 0u);
  ASSERT_GT(max_seq, snapshot_seq);

  Oracle oracle(ops);
  for (std::uint64_t cut = snapshot_seq + 1; cut <= max_seq + 1; ++cut) {
    NameNode scratch = make_namenode(4);
    const auto report =
        scratch.restore(snapshots_of(nn), journals_at_cut(nn, cut));
    ASSERT_TRUE(report.is_ok())
        << "cut " << cut << ": " << report.status().to_string();
    EXPECT_EQ(scratch.fingerprint(), oracle.fingerprint_at(cut))
        << "post-snapshot cut " << cut;
  }
}

TEST(CrashPointFuzzSnapshot, AutoSnapshotRunRecoversIdentically) {
  // With an aggressive auto-snapshot cadence the same workload spreads
  // its history across images and journals differently; the recovered
  // fingerprint must not care.
  std::vector<Op> ops = scripted_ops();
  NameNode nn = make_namenode(4, /*snapshot_every=*/4);
  run_workload(nn, ops);
  ASSERT_FALSE(::testing::Test::HasFailure());

  NameNode scratch = make_namenode(4);
  const auto report = scratch.restore(snapshots_of(nn), journals_at_cut(
                                          nn, ~std::uint64_t{0}));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  std::vector<Op> probe = scripted_ops();
  NameNode plain = make_namenode(1);
  run_workload(plain, probe);
  const std::uint64_t max_seq = fill_decisive_seqs(plain, probe);
  Oracle oracle(probe);
  EXPECT_EQ(scratch.fingerprint(), oracle.fingerprint_at(max_seq + 1));
  EXPECT_FALSE(scratch.has_pending_writes());
}

// ----------------------------------------------- full-stack MiniDfs

TEST(MiniDfsRecovery, CrashRollsBackOpenWriteAndGcsItsBlocks) {
  cluster::Topology topology = make_topology();
  MiniDfsOptions options;
  options.meta_shards = 4;
  MiniDfs dfs(topology, /*seed=*/11, /*pool=*/nullptr, options);

  const Buffer published = random_buffer(kBlockSize * 6, 1);
  ASSERT_TRUE(
      dfs.write_file("/keep", published, "pentagon", kBlockSize).is_ok());
  const std::uint64_t fp_before = dfs.catalog_fingerprint();
  const std::size_t bytes_before = dfs.stored_bytes();

  // Leave a write open with real blocks on disk, then crash.
  ASSERT_TRUE(dfs.begin_write("/open", "3-rep", kBlockSize).is_ok());
  const auto stripes = dfs.allocate_stripes("/open", 1);
  ASSERT_TRUE(stripes.is_ok());
  const Buffer partial = random_buffer(kBlockSize, 2);
  ASSERT_TRUE(dfs.store_stripes("/open", *stripes, partial).is_ok());
  ASSERT_GT(dfs.stored_bytes(), bytes_before);

  const auto report = dfs.crash_namenode();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->open_writes_rolled_back, 1u);

  // The open write is gone from the namespace, its blocks are gone from
  // the datanodes, and the published file is untouched and readable.
  EXPECT_FALSE(dfs.stat("/open").is_ok());
  EXPECT_EQ(dfs.stored_bytes(), bytes_before);
  EXPECT_EQ(dfs.catalog_fingerprint(), fp_before);
  const auto read = dfs.read_file("/keep");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, published);

  // The recovered plane accepts new work.
  ASSERT_TRUE(
      dfs.write_file("/after", published, "heptagon", kBlockSize).is_ok());
  EXPECT_TRUE(dfs.read_file("/after").is_ok());
}

TEST(MiniDfsRecovery, CrashPreservesEveryPublishedSchemeAndRepairs) {
  cluster::Topology topology = make_topology();
  MiniDfsOptions options;
  options.meta_shards = 16;
  MiniDfs dfs(topology, /*seed=*/13, /*pool=*/nullptr, options);

  std::map<std::string, Buffer> payloads;
  const auto specs = ec::paper_code_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = "/s/" + specs[i];
    payloads[path] = random_buffer(kBlockSize * (4 + i), 100 + i);
    ASSERT_TRUE(
        dfs.write_file(path, payloads[path], specs[i], kBlockSize).is_ok());
  }
  dfs.snapshot_namenode();
  ASSERT_TRUE(dfs.delete_file("/s/" + specs[0]).is_ok());
  payloads.erase("/s/" + specs[0]);

  const std::uint64_t fp_before = dfs.catalog_fingerprint();
  const auto report = dfs.crash_namenode();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(dfs.catalog_fingerprint(), fp_before);

  // Data plane still works end to end: reads, degraded reads, repair.
  ASSERT_TRUE(dfs.fail_node(2).is_ok());
  for (const auto& [path, data] : payloads) {
    const auto read = dfs.read_file(path);
    ASSERT_TRUE(read.is_ok()) << path << ": " << read.status().to_string();
    EXPECT_EQ(*read, data) << path;
  }
  ASSERT_TRUE(dfs.repair_node(2).is_ok());
}

}  // namespace
}  // namespace dblrep::hdfs
