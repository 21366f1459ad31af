// Determinism and safety of the concurrent data plane.
//
// The core property: for every registered code and every failure count the
// code tolerates (capped at 3), running the byte-heavy paths on a real
// thread pool leaves *byte-identical* datanode contents and *identical*
// traffic totals versus the zero-worker serial execution. Placement is
// serialized by design, and every traffic increment is a whole number of
// bytes (exact in double), so parallel and serial runs must agree exactly
// -- any divergence is a lost update or a double-repair.
//
// Plus end-to-end safety runs: closed-loop clients with a concurrent
// repair_all (the workload-under-repair regime), and raw multi-threaded
// writer/reader crossfire against one DFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"
#include "hdfs/workload_driver.h"

namespace dblrep::hdfs {
namespace {

constexpr std::size_t kBlockSize = 64;
constexpr std::size_t kNodes = 25;

/// Full cluster image: node -> (address -> bytes). get() re-verifies CRCs,
/// so a corrupt block would show up as absent and fail the comparison.
using ClusterImage =
    std::map<cluster::NodeId, std::map<cluster::SlotAddress, SharedBlock>>;

ClusterImage image_of(MiniDfs& dfs) {
  ClusterImage image;
  for (std::size_t n = 0; n < kNodes; ++n) {
    auto& dn = dfs.datanode(static_cast<cluster::NodeId>(n));
    auto& blocks = image[static_cast<cluster::NodeId>(n)];
    for (const auto& address : dn.stored_addresses()) {
      auto bytes = dn.get(address);
      if (bytes.is_ok()) blocks.emplace(address, std::move(*bytes));
    }
  }
  return image;
}

struct RunResult {
  ClusterImage image;
  double traffic_total = 0;
  double traffic_cross_rack = 0;
  std::size_t healed = 0;
};

/// One deterministic failure/repair scenario for `spec` with `failures`
/// nodes lost, executed on `pool` (nullptr = serial reference).
RunResult run_repair_scenario(const std::string& spec, int failures,
                              exec::ThreadPool* pool) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  MiniDfs dfs(topology, /*seed=*/99, pool);
  const auto code = ec::make_code(spec).value();
  // 3 full stripes plus a ragged tail, two files.
  const std::size_t bytes =
      code->data_blocks() * kBlockSize * 3 + 2 * kBlockSize;
  EXPECT_TRUE(
      dfs.write_file("/a", random_buffer(bytes, 5), spec, kBlockSize).is_ok());
  EXPECT_TRUE(
      dfs.write_file("/b", random_buffer(bytes, 6), spec, kBlockSize).is_ok());

  // Fail members of the first stripe's placement group: guaranteed data
  // loss, never beyond the per-stripe tolerance, and the same nodes in the
  // serial and parallel runs (placement is deterministic per seed).
  const auto group = dfs.catalog().stripe(dfs.stat("/a")->stripes[0]).group;
  for (int i = 0; i < failures; ++i) {
    EXPECT_TRUE(dfs.fail_node(group[static_cast<std::size_t>(i)]).is_ok());
  }
  dfs.traffic().reset();
  const Status repaired = dfs.repair_all();
  EXPECT_TRUE(repaired.is_ok()) << spec << ": " << repaired.to_string();
  EXPECT_TRUE(dfs.scrub().is_ok()) << spec;

  RunResult result;
  result.image = image_of(dfs);
  result.traffic_total = dfs.traffic().total_bytes();
  result.traffic_cross_rack = dfs.traffic().cross_rack_bytes();
  return result;
}

TEST(ParallelRepairEquivalence, ByteIdenticalToSerialForEveryCode) {
  auto specs = ec::paper_code_specs();
  specs.push_back("rs-10-4");
  specs.push_back("clay-6-4");
  specs.push_back("pgy-10-4");
  exec::ThreadPool pool(4);
  for (const auto& spec : specs) {
    const auto code = ec::make_code(spec).value();
    const int max_failures =
        std::min(3, code->params().fault_tolerance);
    for (int failures = 1; failures <= max_failures; ++failures) {
      SCOPED_TRACE(spec + " failures=" + std::to_string(failures));
      const RunResult serial = run_repair_scenario(spec, failures, nullptr);
      const RunResult parallel = run_repair_scenario(spec, failures, &pool);
      EXPECT_EQ(serial.image, parallel.image);
      EXPECT_DOUBLE_EQ(serial.traffic_total, parallel.traffic_total);
      EXPECT_DOUBLE_EQ(serial.traffic_cross_rack,
                       parallel.traffic_cross_rack);
      EXPECT_GT(parallel.traffic_total, 0.0);  // the repair actually ran
    }
  }
}

/// Deterministic corruption + scrub_repair scenario.
RunResult run_scrub_scenario(const std::string& spec, exec::ThreadPool* pool) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  MiniDfs dfs(topology, /*seed=*/123, pool);
  const auto code = ec::make_code(spec).value();
  const std::size_t bytes = code->data_blocks() * kBlockSize * 2;
  EXPECT_TRUE(
      dfs.write_file("/f", random_buffer(bytes, 8), spec, kBlockSize).is_ok());
  // Corrupt one replica of symbol 0 and -- when the code has a second
  // symbol to spare -- drop one replica of the last symbol in every
  // stripe; same addresses in serial and parallel runs because placement
  // is deterministic per seed. (Single-symbol replication codes only get
  // the corruption: hitting both copies of their one block is data loss.)
  const auto info = *dfs.stat("/f");
  for (const auto stripe : info.stripes) {
    const auto& layout = code->layout();
    const std::size_t slot_a = layout.slots_of_symbol(0).front();
    EXPECT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, slot_a}))
                    .corrupt({stripe, slot_a}, 1)
                    .is_ok());
    if (code->num_symbols() > 1) {
      const std::size_t slot_b =
          layout.slots_of_symbol(code->num_symbols() - 1).back();
      EXPECT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, slot_b}))
                      .drop({stripe, slot_b})
                      .is_ok());
    }
  }
  dfs.traffic().reset();
  const auto healed = dfs.scrub_repair();
  EXPECT_TRUE(healed.is_ok()) << spec << ": " << healed.status().to_string();
  EXPECT_TRUE(dfs.scrub().is_ok()) << spec;

  RunResult result;
  result.image = image_of(dfs);
  result.traffic_total = dfs.traffic().total_bytes();
  result.traffic_cross_rack = dfs.traffic().cross_rack_bytes();
  result.healed = healed.is_ok() ? *healed : 0;
  return result;
}

TEST(ParallelScrubRepairEquivalence, ByteIdenticalToSerialForEveryCode) {
  auto specs = ec::paper_code_specs();
  specs.push_back("rs-10-4");
  specs.push_back("clay-6-4");
  specs.push_back("pgy-10-4");
  exec::ThreadPool pool(4);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec);
    const RunResult serial = run_scrub_scenario(spec, nullptr);
    const RunResult parallel = run_scrub_scenario(spec, &pool);
    EXPECT_EQ(serial.healed, parallel.healed);
    EXPECT_GT(parallel.healed, 0u);
    EXPECT_EQ(serial.image, parallel.image);
    EXPECT_DOUBLE_EQ(serial.traffic_total, parallel.traffic_total);
  }
}

// ------------------------------------------------- workload under repair

TEST(WorkloadDriver, MixedWorkloadUnderConcurrentRepairIsErrorFree) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  exec::ThreadPool pool(2);
  MiniDfs dfs(topology, 31, &pool);

  WorkloadOptions options;
  options.code_spec = "pentagon";
  options.block_size = kBlockSize;
  options.stripes_per_file = 2;
  options.preload_files = 4;
  options.clients = 3;
  options.ops_per_client = 25;
  options.fail_nodes = 2;
  options.repair_concurrently = true;
  options.seed = 17;
  WorkloadDriver driver(dfs, options);
  ASSERT_TRUE(driver.preload().is_ok());
  const auto& ledger = dfs.traffic();
  const double total0 = ledger.total_bytes();
  const double intra0 = ledger.intra_rack_bytes();
  const double cross0 = ledger.cross_rack_bytes();
  const double client0 = ledger.client_bytes();
  const auto report = driver.run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->repair_status.is_ok())
      << report->repair_status.to_string();
  EXPECT_EQ(report->total_errors(), 0u);
  EXPECT_GT(report->total_ops(), 0u);
  EXPECT_GT(report->repair_s, 0.0);
  // The traffic split is read straight off the ledger's buckets, and the
  // concurrent repair's node-to-node sends show up in the intra bucket.
  EXPECT_EQ(report->traffic_total_bytes, ledger.total_bytes() - total0);
  EXPECT_EQ(report->traffic_intra_rack_bytes,
            ledger.intra_rack_bytes() - intra0);
  EXPECT_EQ(report->traffic_cross_rack_bytes,
            ledger.cross_rack_bytes() - cross0);
  EXPECT_EQ(report->traffic_client_bytes, ledger.client_bytes() - client0);
  EXPECT_EQ(report->traffic_intra_rack_bytes +
                report->traffic_cross_rack_bytes +
                report->traffic_client_bytes,
            report->traffic_total_bytes);
  EXPECT_GT(report->traffic_intra_rack_bytes, 0.0);
  // The cluster must come out consistent: every file readable, codewords
  // intact, nothing left degraded.
  EXPECT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
  for (const auto& path : dfs.list_files()) {
    EXPECT_TRUE(dfs.read_file(path).is_ok()) << path;
  }
}

TEST(WorkloadDriver, DegradedMixTargetsActuallyLostBlocks) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  exec::ThreadPool pool(2);
  MiniDfs dfs(topology, 32, &pool);

  WorkloadOptions options;
  options.code_spec = "rs-10-4";  // no replication: any loss is degraded
  options.block_size = kBlockSize;
  options.stripes_per_file = 1;
  options.preload_files = 3;
  options.clients = 2;
  options.ops_per_client = 20;
  options.read_fraction = 0.0;
  options.write_fraction = 0.0;
  options.degraded_fraction = 1.0;
  options.fail_nodes = 2;
  options.repair_concurrently = false;  // stays degraded the whole run
  options.seed = 23;
  WorkloadDriver driver(dfs, options);
  const auto report = driver.run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->total_errors(), 0u);
  EXPECT_EQ(report->degraded.latency_us.count(), 40u);
  // Degraded reads move extra blocks over the wire; with rs-10-4 each one
  // costs k transfers, so traffic dwarfs the block count.
  EXPECT_GT(dfs.traffic().total_bytes(), 40.0 * kBlockSize);
}

// --------------------------------------------------- raw client crossfire

TEST(ConcurrentClients, WritersReadersAndRepairDoNotCorrupt) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  exec::ThreadPool pool(3);
  MiniDfs dfs(topology, 77, &pool);

  const auto code = ec::make_code("pentagon").value();
  const Buffer payload =
      random_buffer(code->data_blocks() * kBlockSize * 2, 9);
  for (int f = 0; f < 3; ++f) {
    ASSERT_TRUE(dfs.write_file("/seed/" + std::to_string(f), payload,
                               "pentagon", kBlockSize)
                    .is_ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 8; ++i) {
        const std::string path =
            "/w" + std::to_string(w) + "/" + std::to_string(i);
        if (!dfs.write_file(path, payload, "pentagon", kBlockSize).is_ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 1);
      for (int i = 0; i < 12; ++i) {
        const auto path = "/seed/" + std::to_string(rng.next_below(3));
        const auto read = dfs.read_file(path);
        if (!read.is_ok() || *read != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(dfs.list_files().size(), 3u + 24u);
}

// --------------------------------------------- sub-chunk repair traffic
//
// Sub-packetized schemes claim their repair savings at sub-chunk (beta)
// granularity; the claim only counts if the *wire* honors it. For each
// scheme, the bytes the traffic ledger records during a node repair must
// equal the sum of the per-stripe plan network_bytes() to the byte -- for
// clay that is beta * helpers sub-chunks per stripe, and for the alpha = 1
// schemes it is the unchanged whole-block accounting.

TEST(SubChunkRepairTraffic, WireBytesEqualPlanBytesExactly) {
  for (const std::string& spec :
       {std::string{"clay-6-4"}, std::string{"pgy-10-4"},
        std::string{"rs-10-4"}}) {
    SCOPED_TRACE(spec);
    cluster::Topology topology;
    topology.num_nodes = kNodes;
    MiniDfs dfs(topology, /*seed=*/41, nullptr);
    const auto code = ec::make_code(spec).value();
    const std::size_t bytes = code->data_blocks() * kBlockSize * 3;
    const Buffer payload = random_buffer(bytes, 11);
    ASSERT_TRUE(dfs.write_file("/f", payload, spec, kBlockSize).is_ok());

    const auto info = *dfs.stat("/f");
    const cluster::NodeId victim =
        dfs.catalog().stripe(info.stripes.front()).group[0];
    double planned = 0;
    for (const auto stripe : info.stripes) {
      const auto& group = dfs.catalog().stripe(stripe).group;
      for (std::size_t j = 0; j < group.size(); ++j) {
        if (group[j] != victim) continue;
        const auto plan =
            code->plan_node_repair(static_cast<ec::NodeIndex>(j));
        ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
        planned += static_cast<double>(
            plan->network_bytes(kBlockSize, code->sub_chunks()));
        break;
      }
    }
    ASSERT_GT(planned, 0.0);

    ASSERT_TRUE(dfs.fail_node(victim).is_ok());
    dfs.traffic().reset();
    ASSERT_TRUE(dfs.repair_node(victim).is_ok());
    EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), planned);
    const auto back = dfs.read_file("/f");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, payload);
  }
}

// ------------------------------------------------ delete vs repair race
//
// Regression for the delete/rename-during-repair hazard: delete_file used
// to be able to unregister a stripe while repair_stripe held references
// into it. With the catalog repair lease, the deleter drains in-flight
// repairs and the repairer skips tombstoned stripes cleanly (ABORTED /
// NOT_FOUND become an ok no-op), so both sides finish without error and
// the cluster stays consistent. Runs several seeds to vary interleaving;
// the TSan job re-runs this suite to catch lock-ordering regressions.

TEST(DeleteRepairRace, DeleteDuringNodeRepairIsCleanOnBothSides) {
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    cluster::Topology topology;
    topology.num_nodes = kNodes;
    exec::ThreadPool pool(3);
    MiniDfs dfs(topology, /*seed=*/500 + round, &pool);

    const auto code = ec::make_code("clay-6-4").value();
    const std::size_t bytes = code->data_blocks() * kBlockSize * 6;
    const Buffer kept_payload = random_buffer(bytes, 13);
    ASSERT_TRUE(dfs.write_file("/doomed", random_buffer(bytes, 12),
                               "clay-6-4", kBlockSize)
                    .is_ok());
    ASSERT_TRUE(
        dfs.write_file("/kept", kept_payload, "clay-6-4", kBlockSize).is_ok());

    const auto victim =
        dfs.catalog().stripe(dfs.stat("/doomed")->stripes[0]).group[0];
    ASSERT_TRUE(dfs.fail_node(victim).is_ok());

    Status repair_status = Status::ok();
    Status delete_status = Status::ok();
    std::thread repairer([&] { repair_status = dfs.repair_node(victim); });
    std::thread deleter([&] { delete_status = dfs.delete_file("/doomed"); });
    repairer.join();
    deleter.join();
    EXPECT_TRUE(repair_status.is_ok()) << repair_status.to_string();
    EXPECT_TRUE(delete_status.is_ok()) << delete_status.to_string();

    // The file is gone, the survivor is whole, and a full repair + scrub
    // pass finds nothing inconsistent left behind by the race.
    EXPECT_FALSE(dfs.stat("/doomed").is_ok());
    EXPECT_TRUE(dfs.repair_all().is_ok());
    EXPECT_TRUE(dfs.scrub().is_ok());
    const auto back = dfs.read_file("/kept");
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, kept_payload);
  }
}

// Regression for scrub walking a stale listing: scrub() and scrub_repair()
// used to list the namespace once, then read each listed file's stripes
// with no path lock held (scrub_repair took it only after the listing), so
// a racing delete_file could unregister a stripe under them -- a CHECK
// failure on the unknown stripe, or a read of freed catalog state. scrub()
// now re-resolves each file under its shared path lock and skips it once
// deleted, and scrub_repair pins each stripe with a repair lease, so both
// sides finish cleanly.

TEST(ScrubDeleteRace, ScrubRacingDeleteIsCleanOnBothSides) {
  constexpr int kFiles = 40;
  for (const bool heal : {false, true}) {
    for (int round = 0; round < 25; ++round) {
      SCOPED_TRACE(std::string(heal ? "scrub_repair" : "scrub") +
                   " round=" + std::to_string(round));
      cluster::Topology topology;
      topology.num_nodes = kNodes;
      exec::ThreadPool pool(2);
      MiniDfs dfs(topology, /*seed=*/700 + round, &pool);
      const Buffer kept_payload = random_buffer(kBlockSize * 9, 1);
      ASSERT_TRUE(
          dfs.write_file("/kept", kept_payload, "pentagon", kBlockSize)
              .is_ok());
      for (int f = 0; f < kFiles; ++f) {
        ASSERT_TRUE(dfs.write_file("/doomed/" + std::to_string(f),
                                   random_buffer(kBlockSize * 9, 2 + f),
                                   "pentagon", kBlockSize)
                        .is_ok());
      }

      Status scrub_status = Status::ok();
      Status delete_status = Status::ok();
      std::thread scrubber([&] {
        for (int pass = 0; pass < 4 && scrub_status.is_ok(); ++pass) {
          scrub_status = heal ? dfs.scrub_repair().status() : dfs.scrub();
        }
      });
      std::thread deleter([&] {
        for (int f = 0; f < kFiles && delete_status.is_ok(); ++f) {
          delete_status = dfs.delete_file("/doomed/" + std::to_string(f));
        }
      });
      scrubber.join();
      deleter.join();
      EXPECT_TRUE(scrub_status.is_ok()) << scrub_status.to_string();
      EXPECT_TRUE(delete_status.is_ok()) << delete_status.to_string();

      EXPECT_EQ(dfs.list_files(), std::vector<std::string>{"/kept"});
      const auto back = dfs.read_file("/kept");
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(*back, kept_payload);
      EXPECT_TRUE(dfs.scrub().is_ok());
    }
  }
}

// A heal plans against exactly what its own read saw: a slot whose node was
// down (UNAVAILABLE) makes the node a failed helper, and a slot missing or
// corrupt (NOT_FOUND, CORRUPTION) is a hole. Here one node flaps while every
// heal runs, and each round plants a corrupt twin of one of its slots in
// every stripe it holds. A heal that looked at liveness again after its read
// would see a node that came back up in between as neither, and fail with
// UNAVAILABLE: its plan would name a source the read never got ("slot N not
// available for repair"), or put a rebuilt block to the node's unread slot
// as it went down again ("datanode down"). Every heal must succeed.

TEST(HealRace, AHelperFlappingMidHealNeverFailsTheHeal) {
  constexpr int kFiles = 40;
  constexpr int kRounds = 100;
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  exec::ThreadPool pool(2);
  MiniDfs dfs(topology, /*seed=*/31, &pool);
  const auto code = ec::make_code("pentagon").value();
  std::vector<Buffer> payloads;
  for (int f = 0; f < kFiles; ++f) {
    payloads.push_back(
        random_buffer(code->data_blocks() * kBlockSize * 4, 100 + f));
    ASSERT_TRUE(dfs.write_file("/f/" + std::to_string(f), payloads.back(),
                               "pentagon", kBlockSize)
                    .is_ok());
  }
  const cluster::NodeId flapper =
      dfs.catalog().stripe(dfs.stat("/f/0")->stripes[0]).group[0];
  const auto stripes = dfs.catalog().stripes_on_node(flapper);

  std::atomic<bool> stop{false};
  std::thread flap([&] {
    while (!stop.load()) {
      (void)dfs.offline_node(flapper);
      std::this_thread::sleep_for(std::chrono::microseconds(2));
      (void)dfs.restart_node(flapper);
      std::this_thread::sleep_for(std::chrono::microseconds(2));
    }
  });
  int failed_heals = 0;
  std::string first_error;
  for (int round = 0; round < kRounds; ++round) {
    for (const cluster::StripeId stripe : stripes) {
      const auto& info = dfs.catalog().stripe(stripe);
      const auto& layout = info.code->layout();
      const auto local = static_cast<ec::NodeIndex>(
          std::find(info.group.begin(), info.group.end(), flapper) -
          info.group.begin());
      const auto& own = layout.slots_on_node(local);
      const std::size_t slot =
          own[static_cast<std::size_t>(round) % own.size()];
      for (const std::size_t twin :
           layout.slots_of_symbol(layout.symbol_of_slot(slot))) {
        if (twin == slot) continue;
        const cluster::SlotAddress address{stripe, twin};
        EXPECT_TRUE(dfs.datanode(dfs.catalog().node_of(address))
                        .corrupt(address,
                                 static_cast<std::size_t>(round) % kBlockSize)
                        .is_ok());
      }
    }
    const auto healed = dfs.scrub_repair();
    if (!healed.is_ok() && failed_heals++ == 0) {
      first_error = "round " + std::to_string(round) + ": " +
                    healed.status().to_string();
    }
  }
  stop.store(true);
  flap.join();
  EXPECT_EQ(failed_heals, 0) << "first failure, " << first_error;

  const auto final_heal = dfs.scrub_repair();
  ASSERT_TRUE(final_heal.is_ok()) << final_heal.status().to_string();
  EXPECT_EQ(*final_heal, 0u);
  EXPECT_TRUE(dfs.scrub().is_ok());
  for (int f = 0; f < kFiles; ++f) {
    const auto back = dfs.read_file("/f/" + std::to_string(f));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(*back, payloads[static_cast<std::size_t>(f)]) << "file " << f;
  }
}

// ------------------------------------------- metadata shard equivalence
//
// The shard count is a pure concurrency knob: every observable -- bytes
// read back, stored cluster image, traffic totals, stat results, and the
// shard-count-independent catalog fingerprint -- must be identical
// between an N-shard and a 1-shard run of the same seeded scenario.

MiniDfs make_sharded(std::size_t shards, exec::ThreadPool* pool = nullptr,
                     std::uint64_t seed = 99) {
  cluster::Topology topology;
  topology.num_nodes = kNodes;
  MiniDfsOptions options;
  options.meta_shards = shards;
  return MiniDfs(topology, seed, pool, options);
}

struct ShardRun {
  ClusterImage image;
  double traffic_total = 0;
  double traffic_cross = 0;
  std::uint64_t catalog_fp = 0;
  std::map<std::string, Buffer> reads;
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> stats;
};

/// Writes across several directories, deletes one file, renames another,
/// then fails a placed node and repairs -- the full metadata lifecycle
/// with data-plane consequences -- and captures everything observable.
ShardRun run_shard_scenario(const std::string& spec, std::size_t shards) {
  MiniDfs dfs = make_sharded(shards);
  const auto code = ec::make_code(spec).value();
  const std::size_t bytes = code->data_blocks() * kBlockSize * 2 + kBlockSize;
  for (int f = 0; f < 4; ++f) {
    const std::string path =
        "/eq/d" + std::to_string(f % 2) + "/f" + std::to_string(f);
    EXPECT_TRUE(dfs.write_file(path, random_buffer(bytes, 40 + f), spec,
                               kBlockSize)
                    .is_ok());
  }
  EXPECT_TRUE(dfs.delete_file("/eq/d1/f3").is_ok());
  EXPECT_TRUE(dfs.rename("/eq/d0/f2", "/moved/f2").is_ok());

  const auto group = dfs.catalog().stripe(dfs.stat("/eq/d0/f0")->stripes[0]).group;
  EXPECT_TRUE(dfs.fail_node(group[0]).is_ok());
  EXPECT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());

  ShardRun run;
  for (const std::string path : {"/eq/d0/f0", "/eq/d1/f1", "/moved/f2"}) {
    const auto read = dfs.read_file(path);
    EXPECT_TRUE(read.is_ok()) << path;
    if (read.is_ok()) run.reads[path].assign(read->begin(), read->end());
    const auto info = dfs.stat(path);
    EXPECT_TRUE(info.is_ok()) << path;
    if (info.is_ok()) run.stats[path] = {info->length, info->stripes.size()};
  }
  run.image = image_of(dfs);
  run.traffic_total = dfs.traffic().total_bytes();
  run.traffic_cross = dfs.traffic().cross_rack_bytes();
  run.catalog_fp = dfs.catalog_fingerprint();
  return run;
}

TEST(MetaShardEquivalence, EveryObservableMatchesOneShardForEveryCode) {
  auto specs = ec::paper_code_specs();
  specs.push_back("rs-10-4");
  specs.push_back("clay-6-4");
  specs.push_back("pgy-10-4");
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec);
    const ShardRun one = run_shard_scenario(spec, 1);
    EXPECT_GT(one.catalog_fp, 0u);
    for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const ShardRun many = run_shard_scenario(spec, shards);
      EXPECT_EQ(many.reads, one.reads);
      EXPECT_EQ(many.stats, one.stats);
      EXPECT_EQ(many.image, one.image);
      EXPECT_DOUBLE_EQ(many.traffic_total, one.traffic_total);
      EXPECT_DOUBLE_EQ(many.traffic_cross, one.traffic_cross);
      EXPECT_EQ(many.catalog_fp, one.catalog_fp);
    }
  }
}

TEST(MetaShardEquivalence, ConcurrentWritersSafeAtEveryShardCount) {
  // Concurrency makes placement order nondeterministic, so byte-identity
  // across shard counts is out of scope here; what must hold at every
  // shard count is correctness: every write lands readable, the namespace
  // is complete, and the crash-recovery artifacts reproduce the catalog.
  const auto code = ec::make_code("pentagon").value();
  const Buffer payload =
      random_buffer(code->data_blocks() * kBlockSize * 2, 31);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    MiniDfs dfs = make_sharded(shards);
    // Writers deliberately share directories, so paths hashing to the
    // same shard and to different shards both contend.
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < 6; ++i) {
          const std::string path = "/shared/d" + std::to_string(i % 2) +
                                   "/w" + std::to_string(w) + "_" +
                                   std::to_string(i);
          if (!dfs.write_file(path, payload, "pentagon", kBlockSize)
                   .is_ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(dfs.list_files().size(), 24u);

    const std::uint64_t fp = dfs.catalog_fingerprint();
    const auto report = dfs.crash_namenode();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(dfs.catalog_fingerprint(), fp);
    for (const auto& path : dfs.list_files()) {
      const auto read = dfs.read_file(path);
      ASSERT_TRUE(read.is_ok()) << path;
      EXPECT_EQ(*read, payload) << path;
    }
  }
}

}  // namespace
}  // namespace dblrep::hdfs
