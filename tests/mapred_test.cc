// Tests for the Terasort simulator: metric sanity, the Fig. 4/5 shape
// claims from Section 4.1, and failure-injected degraded reads.
#include <gtest/gtest.h>

#include "ec/registry.h"
#include "mapred/terasort_sim.h"
#include "sched/schedulers.h"

namespace dblrep::mapred {
namespace {

JobMetrics run(const std::string& spec, JobConfig config, double load,
               int trials = 4) {
  const auto code = ec::make_code(spec).value();
  config.load = load;
  config.trials = trials;
  sched::DelayScheduler scheduler;
  return run_terasort(*code, scheduler, config);
}

TEST(Terasort, MetricsAreFiniteAndInRange) {
  const auto metrics = run("pentagon", setup1_config(), 1.0);
  EXPECT_GT(metrics.job_seconds, 0.0);
  EXPECT_LT(metrics.job_seconds, 1000.0);
  EXPECT_GE(metrics.locality, 0.0);
  EXPECT_LE(metrics.locality, 1.0);
  EXPECT_GT(metrics.map_input_traffic_bytes, 0.0);
  EXPECT_EQ(metrics.degraded_read_tasks, 0.0);
  EXPECT_EQ(metrics.unrunnable_tasks, 0.0);
}

TEST(Terasort, JobTimeLandsInThePaperBand) {
  // Fig. 4 job times range ~70-110 s across codes and loads.
  for (const char* spec : {"3-rep", "2-rep", "pentagon", "heptagon"}) {
    for (double load : {0.5, 0.75, 1.0}) {
      const auto metrics = run(spec, setup1_config(), load);
      EXPECT_GT(metrics.job_seconds, 60.0) << spec << " @ " << load;
      EXPECT_LT(metrics.job_seconds, 130.0) << spec << " @ " << load;
    }
  }
}

TEST(Terasort, Fig4TwoRepCloseToThreeRepAtModerateLoad) {
  // Conclusion (i): "At moderate loads, the performance of 2-rep is very
  // close to that of 3-rep."
  const auto rep2 = run("2-rep", setup1_config(), 0.5, 8);
  const auto rep3 = run("3-rep", setup1_config(), 0.5, 8);
  EXPECT_NEAR(rep2.job_seconds, rep3.job_seconds,
              0.08 * rep3.job_seconds);
  EXPECT_NEAR(rep2.locality, rep3.locality, 0.08);
}

TEST(Terasort, Fig4LocalityOrderingMatchesSimulation) {
  // Conclusion (ii): experimental locality trends match Fig. 3 -- at 2 map
  // slots and full load: replication > pentagon > heptagon.
  const auto rep2 = run("2-rep", setup1_config(), 1.0, 8);
  const auto pent = run("pentagon", setup1_config(), 1.0, 8);
  const auto hept = run("heptagon", setup1_config(), 1.0, 8);
  EXPECT_GT(rep2.locality, pent.locality);
  EXPECT_GT(pent.locality, hept.locality);
}

TEST(Terasort, Fig4TrafficTracksLocalityLoss) {
  // Conclusion (iii): excess traffic vs 2-rep is almost entirely the
  // locality gap times the block size.
  const auto rep2 = run("2-rep", setup1_config(), 1.0, 8);
  const auto hept = run("heptagon", setup1_config(), 1.0, 8);
  const double tasks = 50.0;  // 25 nodes x 2 slots at 100% load
  const double expected_excess =
      (rep2.locality - hept.locality) * tasks * 128e6;
  const double measured_excess =
      hept.map_input_traffic_bytes - rep2.map_input_traffic_bytes;
  EXPECT_NEAR(measured_excess, expected_excess, 0.25 * expected_excess);
}

TEST(Terasort, Fig4PentagonSlowerAtTwoSlotsFullLoad) {
  // Conclusion (iv) first half: substantial performance loss with 2 cores.
  const auto rep2 = run("2-rep", setup1_config(), 1.0, 8);
  const auto pent = run("pentagon", setup1_config(), 1.0, 8);
  EXPECT_GT(pent.job_seconds, rep2.job_seconds + 2.0);
  EXPECT_GT(pent.map_input_traffic_bytes,
            1.5 * rep2.map_input_traffic_bytes);
}

TEST(Terasort, Fig5PentagonNearTwoRepWithFourSlots) {
  // Conclusion (iv) second half: with 4 cores the pentagon is close to
  // 2-rep even at 75% load.
  const auto rep2 = run("2-rep", setup2_config(), 0.75, 8);
  const auto pent = run("pentagon", setup2_config(), 0.75, 8);
  EXPECT_NEAR(pent.job_seconds, rep2.job_seconds, 0.10 * rep2.job_seconds);
  EXPECT_GT(pent.locality, 0.8);
}

TEST(Terasort, Fig5TrafficScaleMatchesPaper)
{
  // Set-up 2 traffic peaks around a few GB at full load (512 MB blocks).
  const auto pent = run("pentagon", setup2_config(), 1.0, 8);
  EXPECT_GT(pent.map_input_traffic_bytes, 0.3e9);
  EXPECT_LT(pent.map_input_traffic_bytes, 8e9);
}

TEST(Terasort, TrafficGrowsWithLoad) {
  const auto low = run("pentagon", setup1_config(), 0.5, 8);
  const auto high = run("pentagon", setup1_config(), 1.0, 8);
  EXPECT_LE(low.map_input_traffic_bytes, high.map_input_traffic_bytes * 1.05);
  EXPECT_LE(low.job_seconds, high.job_seconds + 1.0);
}

TEST(Terasort, ShuffleBytesMatchTerasortIdentity) {
  // Terasort shuffles its whole input; (1 - 1/N) of it crosses the net.
  const auto metrics = run("2-rep", setup1_config(), 1.0, 2);
  const double input = 50.0 * 128e6;
  EXPECT_NEAR(metrics.shuffle_traffic_bytes, input * (1.0 - 1.0 / 25.0),
              1e-3 * input);
}

// ------------------------------------------------- failure injection

TEST(TerasortFailures, SingleNodeFailureUsesReplicasNotRepair) {
  // With one node down, every block still has a live replica: no degraded
  // reads, no unrunnable tasks.
  JobConfig config = setup1_config();
  config.down_nodes = {3};
  const auto metrics = run("pentagon", config, 0.75, 4);
  EXPECT_EQ(metrics.degraded_read_tasks, 0.0);
  EXPECT_EQ(metrics.unrunnable_tasks, 0.0);
}

TEST(TerasortFailures, DoubleFailureTriggersOnTheFlyRepair) {
  // Two down nodes occasionally co-host both replicas of a block; those
  // tasks must be served by partial-parity degraded reads, never dropped.
  JobConfig config = setup1_config();
  config.down_nodes = {3, 7};
  config.seed = 5;
  double degraded_total = 0;
  const auto metrics = run("pentagon", config, 1.0, 20);
  degraded_total += metrics.degraded_read_tasks;
  EXPECT_EQ(metrics.unrunnable_tasks, 0.0);  // pentagon tolerates 2 failures
  EXPECT_GT(degraded_total, 0.0);            // some stripes hit both nodes
}

TEST(TerasortFailures, DegradedReadsCostLessWithPentagonThanRaidMirror) {
  // Section 3.1's claim, observed end-to-end: serving a doubly-lost block
  // costs 3 block fetches under the pentagon vs 9 under (10,9) RAID+m.
  // Compare per-degraded-task traffic overhead.
  JobConfig config = setup1_config();
  config.overhead_traffic_bytes = 0;
  config.seed = 77;
  config.down_nodes = {0, 1};

  const auto pent_code = ec::make_code("pentagon").value();
  const auto raidm_code = ec::make_code("raidm-9").value();
  sched::DelayScheduler scheduler;
  config.load = 1.0;
  config.trials = 30;
  const auto pent = run_terasort(*pent_code, scheduler, config);
  const auto raidm = run_terasort(*raidm_code, scheduler, config);
  ASSERT_GT(pent.degraded_read_tasks, 0.0);
  ASSERT_GT(raidm.degraded_read_tasks, 0.0);
  // Per degraded task, the pentagon reads exactly 3 blocks (partial
  // parities) and (10,9) RAID+m exactly 9 -- Section 3.1's numbers.
  EXPECT_NEAR(pent.degraded_read_bytes / pent.degraded_read_tasks, 3 * 128e6,
              1e3);
  EXPECT_NEAR(raidm.degraded_read_bytes / raidm.degraded_read_tasks,
              9 * 128e6, 1e3);
}

TEST(TerasortFailures, SubPacketizedDegradedTaskReadsTheWholeBlockPlan) {
  // A clay-6-4 block is 8 units on one node. With that node down its task
  // is degraded and reads what plan_degraded_block moves for all 8 units,
  // the same for every data block (code nodes 0-3).
  JobConfig config = setup1_config();
  config.overhead_traffic_bytes = 0;
  config.down_nodes = {3};
  const auto code = ec::make_code("clay-6-4").value();
  const auto plan_bytes = [&](std::size_t block) {
    const auto plan =
        code->plan_degraded_block(block, {static_cast<ec::NodeIndex>(block)});
    EXPECT_TRUE(plan.is_ok());
    return static_cast<double>(plan->network_bytes(
        static_cast<std::size_t>(config.block_bytes), code->sub_chunks()));
  };
  const double expected = plan_bytes(0);
  for (std::size_t block = 1; block < code->data_blocks(); ++block) {
    ASSERT_EQ(plan_bytes(block), expected) << "block " << block;
  }
  const auto metrics = run("clay-6-4", config, 1.0, 10);
  ASSERT_GT(metrics.degraded_read_tasks, 0.0);
  EXPECT_EQ(metrics.unrunnable_tasks, 0.0);
  EXPECT_NEAR(metrics.degraded_read_bytes / metrics.degraded_read_tasks,
              expected, 1e-3 * expected);
}

TEST(TerasortFailures, BeyondToleranceReportsUnrunnableTasks) {
  // Three down nodes can destroy pentagon blocks outright; the simulator
  // must report them as unrunnable rather than fabricating reads.
  JobConfig config = setup1_config();
  config.down_nodes = {0, 1, 2};
  config.seed = 13;
  double unrunnable = 0;
  for (int s = 0; s < 10; ++s) {
    config.seed = 13 + s;
    unrunnable += run("pentagon", config, 1.0, 5).unrunnable_tasks;
  }
  // Most stripes don't land on exactly those 3 nodes, but across 50 runs
  // at full load some do.
  EXPECT_GT(unrunnable, 0.0);
}

TEST(TerasortFailures, ThreeRepSurvivesTwoFailuresWithoutDegradedReads) {
  JobConfig config = setup1_config();
  config.down_nodes = {3, 7};
  const auto metrics = run("3-rep", config, 1.0, 8);
  EXPECT_EQ(metrics.degraded_read_tasks, 0.0);
  EXPECT_EQ(metrics.unrunnable_tasks, 0.0);
}

}  // namespace
}  // namespace dblrep::mapred
