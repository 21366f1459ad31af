// Tests for the link-level network model: token-bucket QoS math, FIFO
// store-and-forward timing on the two-tier fabric, flow dependency
// chaining, conservation (mid-flight and drained), and the traffic ledger
// (classed, directed byte accounting plus the capture MiniDfs feeds the
// model through).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/invariants.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"
#include "net/model.h"
#include "net/qos.h"
#include "net/transfer.h"
#include "sim/event_queue.h"

namespace dblrep::net {
namespace {

// Hand-checkable link speeds: a 100-byte transfer takes 1 s on a NIC.
NetworkConfig easy_config() {
  NetworkConfig config;
  config.nic = {100.0, 0.5};
  config.tor = {1000.0, 0.25};
  config.spine = {2000.0, 0.125};
  return config;
}

cluster::Topology small_topology(std::size_t nodes = 6,
                                 std::size_t racks = 2) {
  cluster::Topology topology;
  topology.num_nodes = nodes;
  topology.num_racks = racks;
  return topology;
}

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, BurstGrantsImmediatelyThenPacesAtRate) {
  TokenBucket bucket(100.0, 100.0);  // 100 B/s, 100 B burst
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 0.0);  // burst covers it
  // Bucket is empty: the next 100 bytes refill over exactly 1 s, and the
  // one after queues FIFO behind that grant.
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 2.0);
}

TEST(TokenBucket, OversizedReservationRunsADeficit) {
  TokenBucket bucket(100.0, 100.0);
  // 350 bytes against a 100-byte burst: 250 bytes of deficit paid off at
  // 100 B/s.
  EXPECT_DOUBLE_EQ(bucket.reserve(350.0, 0.0), 2.5);
  // Later arrivals still queue behind the pending grant.
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 1.0), 3.5);
}

TEST(TokenBucket, IdleTimeRefillsUpToBurst) {
  TokenBucket bucket(100.0, 100.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 0.0), 0.0);
  // After 10 s idle the bucket is full again (capped at burst, not 1000).
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(bucket.reserve(100.0, 10.0), 11.0);
}

TEST(QosThrottler, AdmissionIsTheLaterOfClusterAndLinkGrant) {
  QosConfig config;
  config.cluster_rate = 100.0;
  config.cluster_burst = 100.0;
  config.link_fraction = 0.1;  // 10 B/s on a 100 B/s link
  config.link_burst = 50.0;
  QosThrottler throttler(config);
  throttler.add_link(0, 100.0);
  // Cluster burst covers 100 bytes at t=0, but the link bucket holds only
  // 50: the remaining 50 refill at 10 B/s -> granted at t=5.
  EXPECT_DOUBLE_EQ(throttler.admit(0, 100.0, 0.0), 5.0);
}

TEST(QosThrottler, AdaptiveModeScalesClusterRateWithHeadroom) {
  QosConfig config;
  config.cluster_rate = 100.0;
  config.adaptive = true;
  config.adaptive_boost = 4.0;
  QosThrottler throttler(config);
  throttler.observe_utilization(0.0, 0.0);  // idle network -> full boost
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 400.0);
  throttler.observe_utilization(0.5, 1.0);
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 250.0);
  throttler.observe_utilization(1.0, 2.0);  // saturated -> base rate
  EXPECT_DOUBLE_EQ(throttler.cluster_rate(), 100.0);
}

// ---------------------------------------------------------- NetworkModel

TEST(NetworkModel, IntraRackTransferTimingIsTwoNicHops) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  // Nodes 0 and 2 share rack 0 (round-robin racks). 100 bytes:
  //   nic_up[0]: 1 s tx + 0.5 s latency; nic_down[2]: 1 s tx + 0.5 s.
  model.start_transfer({0, 2, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(delivered, 3.0);
}

TEST(NetworkModel, CrossRackTransferTraversesTorAndSpine) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  // Node 0 (rack 0) -> node 1 (rack 1), 100 bytes:
  //   nic_up 1.5 + tor_up 0.35 + spine 0.175 + tor_down 0.35 + nic_down 1.5
  model.start_transfer({0, 1, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_NEAR(delivered, 3.875, 1e-12);
  // The spine saw exactly this one transfer.
  bool spine_used = false;
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    if (model.link(id).name == "spine") {
      spine_used = model.link(id).transfers == 1;
    }
  }
  EXPECT_TRUE(spine_used);
}

TEST(NetworkModel, SharedNicSerializesFifo) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  std::vector<sim::SimTime> delivered;
  for (int i = 0; i < 2; ++i) {
    model.start_transfer({0, 2, 100.0, TransferClass::kClientRead}, 0.0,
                         [&](sim::SimTime t) { delivered.push_back(t); });
  }
  queue.run();
  ASSERT_EQ(delivered.size(), 2u);
  // First as if alone; second waits a full tx behind it on *each* NIC.
  EXPECT_DOUBLE_EQ(delivered[0], 3.0);
  EXPECT_DOUBLE_EQ(delivered[1], 4.0);
  // The entry NIC's second transfer waited 1 s for the serializer.
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    const LinkStats& link = model.link(id);
    if (link.name == "nic_up[0]") {
      EXPECT_EQ(link.transfers, 2u);
      EXPECT_DOUBLE_EQ(link.queue_delay_s.max(), 1.0);
      EXPECT_EQ(link.max_queue_depth, 2u);
    }
  }
}

TEST(NetworkModel, ClientTransfersAttachAtTheSpine) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime up = -1.0, down = -1.0;
  // Upload client -> node 3: spine + tor_down + nic_down.
  model.start_transfer({kClientEndpoint, 3, 100.0,
                        TransferClass::kClientWrite},
                       0.0, [&](sim::SimTime t) { down = t; });
  // Delivery node 3 -> client: nic_up + tor_up + spine.
  model.start_transfer({3, kClientEndpoint, 100.0,
                        TransferClass::kClientRead},
                       0.0, [&](sim::SimTime t) { up = t; });
  queue.run();
  // spine 0.175 + tor_down 0.35 + nic_down 1.5 (no contention: disjoint
  // links; both values are the same 3-hop sum by symmetry).
  EXPECT_NEAR(down, 2.025, 1e-12);
  EXPECT_NEAR(up, 2.025, 1e-12);
  // No node NIC uplink carried the upload.
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    const LinkStats& link = model.link(id);
    if (link.name == "nic_up[3]") {
      EXPECT_EQ(link.transfers, 1u);
    }
    if (link.name == "nic_down[3]") {
      EXPECT_EQ(link.transfers, 1u);
    }
  }
}

TEST(NetworkModel, SelfTransferDeliversInstantly) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  sim::SimTime delivered = -1.0;
  model.start_transfer({4, 4, 100.0, TransferClass::kRepair}, 2.0,
                       [&](sim::SimTime t) { delivered = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(delivered, 2.0);
  EXPECT_DOUBLE_EQ(model.delivered_bytes(), 100.0);
}

TEST(NetworkModel, ThrottlerPacesRepairButNotClientTraffic) {
  NetworkConfig config = easy_config();
  config.throttle_repair = true;
  config.qos.cluster_rate = 100.0;
  config.qos.cluster_burst = 100.0;
  config.qos.link_fraction = 1.0;  // per-link bucket not the binding limit
  config.qos.link_burst = 1e9;
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), config);
  std::vector<sim::SimTime> repair;
  sim::SimTime client = -1.0;
  for (int i = 0; i < 3; ++i) {
    model.start_transfer({0, 2, 100.0, TransferClass::kRepair}, 0.0,
                         [&](sim::SimTime t) { repair.push_back(t); });
  }
  model.start_transfer({4, 5, 100.0, TransferClass::kClientRead}, 0.0,
                       [&](sim::SimTime t) { client = t; });
  queue.run();
  ASSERT_EQ(repair.size(), 3u);
  // Admissions at 0 / 1 / 2 s: each repair transfer finds free links when
  // it finally enters (pacing >= serialization time), so deliveries land
  // 1 s apart instead of queueing back-to-back.
  EXPECT_DOUBLE_EQ(repair[0], 3.0);
  EXPECT_DOUBLE_EQ(repair[1], 4.0);
  EXPECT_DOUBLE_EQ(repair[2], 5.0);
  // The (cross-rack, disjoint-route) client read was never throttled: it
  // delivers as if the repair storm did not exist.
  EXPECT_NEAR(client, 3.875, 1e-12);
}

TEST(NetworkModel, FlowChainsDependentRecords) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(6, 1), easy_config());
  // helper(0) -> aggregator(2), then aggregator(2) -> destination(4): the
  // second leg may only start once the first delivers (t=3), so the flow
  // completes at 6 -- not at 3, which two independent transfers would give.
  sim::SimTime done = -1.0;
  model.start_flow({{0, 2, 100.0, TransferClass::kRepair},
                    {2, 4, 100.0, TransferClass::kRepair}},
                   0.0, [&](sim::SimTime t) { done = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(done, 6.0);
}

TEST(NetworkModel, FlowRunsIndependentRecordsInParallel) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(6, 1), easy_config());
  sim::SimTime done = -1.0;
  // Two helpers on different nodes feed the same aggregator: their sends
  // overlap (disjoint nic_up links), and the relay waits for the later
  // arrival at nic_down[4] (second send serializes behind the first).
  model.start_flow({{0, 4, 100.0, TransferClass::kRepair},
                    {2, 4, 100.0, TransferClass::kRepair},
                    {4, 5, 100.0, TransferClass::kRepair}},
                   0.0, [&](sim::SimTime t) { done = t; });
  queue.run();
  // Sends deliver at 3 and 4 (shared nic_down[4]); relay 4->5 then takes
  // another 3 s.
  EXPECT_DOUBLE_EQ(done, 7.0);
}

TEST(NetworkModel, ConservationHoldsMidFlightAndWhenDrained) {
  sim::EventQueue queue;
  NetworkModel model(queue, small_topology(), easy_config());
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto from = static_cast<cluster::NodeId>(rng.uniform_int(0, 5));
    auto to = static_cast<cluster::NodeId>(rng.uniform_int(0, 5));
    model.start_transfer(
        {from, to, static_cast<double>(rng.uniform_int(1, 500)),
         TransferClass::kClientRead},
        rng.uniform(0.0, 2.0));
  }
  // Stop the clock mid-storm: the books must balance with bytes in flight.
  queue.run(2.5);
  std::vector<std::string> violations;
  chaos::check_network_conservation(model, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_GT(model.in_flight_bytes(), 0.0);

  queue.run();
  violations.clear();
  chaos::check_network_conservation(model, violations,
                                    /*expect_drained=*/true);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_DOUBLE_EQ(model.delivered_bytes(), model.injected_bytes());
  EXPECT_EQ(model.transfers_delivered(), 50u);
}

// ------------------------------------------------------------ TrafficLedger

double sum_sent(const TrafficLedger& ledger, std::size_t nodes) {
  double sum = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    sum += ledger.node_sent_bytes(static_cast<cluster::NodeId>(n));
  }
  return sum;
}

double sum_received(const TrafficLedger& ledger, std::size_t nodes) {
  double sum = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    sum += ledger.node_received_bytes(static_cast<cluster::NodeId>(n));
  }
  return sum;
}

TEST(TrafficLedger, CountsOnlyNetworkBytes) {
  const cluster::Topology t = cluster::setup1_topology();
  TrafficLedger ledger(t);
  ledger.record(0, 0, 1e6, TransferClass::kClientRead);  // local read: free
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 0.0);
  ledger.record(0, 1, 2e6, TransferClass::kRepair);
  ledger.record(1, 0, 3e6, TransferClass::kRepair);
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 5e6);
  EXPECT_DOUBLE_EQ(ledger.class_bytes(TransferClass::kRepair), 5e6);
  EXPECT_DOUBLE_EQ(ledger.class_bytes(TransferClass::kClientRead), 0.0);
  EXPECT_DOUBLE_EQ(ledger.node_sent_bytes(0), 2e6);
  EXPECT_DOUBLE_EQ(ledger.node_received_bytes(0), 3e6);
}

TEST(TrafficLedger, TracksCrossRackSeparately) {
  const cluster::Topology t = small_topology(4, 2);
  TrafficLedger ledger(t);
  ledger.record(0, 2, 1e6, TransferClass::kRepair);  // same rack
  ledger.record(0, 1, 1e6, TransferClass::kRepair);  // cross rack
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 2e6);
  EXPECT_DOUBLE_EQ(ledger.intra_rack_bytes(), 1e6);
  EXPECT_DOUBLE_EQ(ledger.cross_rack_bytes(), 1e6);
}

TEST(TrafficLedger, ClientTrafficIsDirectedAndResets) {
  const cluster::Topology t = cluster::setup2_topology();
  TrafficLedger ledger(t);
  ledger.set_capture(true);
  ledger.record(3, kClientEndpoint, 7e6, TransferClass::kClientRead);
  ledger.record(kClientEndpoint, 4, 2e6, TransferClass::kClientWrite);
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 9e6);
  EXPECT_DOUBLE_EQ(ledger.client_bytes(), 9e6);
  EXPECT_DOUBLE_EQ(ledger.route_bytes(Route::kToClient), 7e6);
  EXPECT_DOUBLE_EQ(ledger.route_bytes(Route::kFromClient), 2e6);
  // A delivery is sent by the serving node; an upload is received by the
  // storing node. Neither end of either is charged on the client side.
  EXPECT_DOUBLE_EQ(ledger.node_sent_bytes(3), 7e6);
  EXPECT_DOUBLE_EQ(ledger.node_received_bytes(3), 0.0);
  EXPECT_DOUBLE_EQ(ledger.node_sent_bytes(4), 0.0);
  EXPECT_DOUBLE_EQ(ledger.node_received_bytes(4), 2e6);

  ledger.reset();
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.client_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.class_bytes(TransferClass::kClientRead), 0.0);
  EXPECT_DOUBLE_EQ(ledger.node_sent_bytes(3), 0.0);
  EXPECT_DOUBLE_EQ(ledger.node_received_bytes(4), 0.0);
  EXPECT_TRUE(ledger.drain().empty());
  EXPECT_TRUE(ledger.capturing());
}

TEST(TrafficLedger, ConservationHoldsAcrossRandomWorkloads) {
  // Every recorded byte must land in exactly one class x route bucket, and
  // the buckets must reconcile with the independently-accumulated total
  // and per-node sums -- the identities chaos::check_traffic_conservation
  // asserts between events. Exact equality is sound: whole byte counts far
  // below 2^53.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const cluster::Topology t =
        small_topology(4 + static_cast<std::size_t>(rng.next_below(20)),
                       1 + static_cast<std::size_t>(rng.next_below(4)));
    TrafficLedger ledger(t);
    double expected_class[kNumTransferClasses] = {};
    for (int op = 0; op < 200; ++op) {
      const auto cls =
          static_cast<TransferClass>(rng.next_below(kNumTransferClasses));
      const double bytes = static_cast<double>(rng.next_below(1 << 20));
      cluster::NodeId from =
          static_cast<cluster::NodeId>(rng.next_below(t.num_nodes));
      cluster::NodeId to = kClientEndpoint;
      switch (rng.next_below(3)) {
        case 0:  // node -> client
          break;
        case 1:  // client -> node
          std::swap(from, to);
          break;
        default:  // node -> node, self-transfers included
          to = static_cast<cluster::NodeId>(rng.next_below(t.num_nodes));
      }
      ledger.record(from, to, bytes, cls);
      if (from != to) expected_class[static_cast<std::size_t>(cls)] += bytes;
    }
    const double total = ledger.total_bytes();
    const double intra = ledger.intra_rack_bytes();
    const double cross = ledger.cross_rack_bytes();
    const double to_client = ledger.route_bytes(Route::kToClient);
    const double from_client = ledger.route_bytes(Route::kFromClient);
    double by_class = 0;
    for (std::size_t c = 0; c < kNumTransferClasses; ++c) {
      const auto cls = static_cast<TransferClass>(c);
      EXPECT_EQ(ledger.class_bytes(cls), expected_class[c]) << to_string(cls);
      by_class += ledger.class_bytes(cls);
    }
    EXPECT_EQ(by_class, total);
    EXPECT_EQ(intra + cross + to_client + from_client, total);
    EXPECT_EQ(ledger.client_bytes(), to_client + from_client);
    EXPECT_EQ(sum_sent(ledger, t.num_nodes), intra + cross + to_client);
    EXPECT_EQ(sum_received(ledger, t.num_nodes), intra + cross + from_client);
  }
}

TEST(TrafficLedger, ConcurrentRecordsSumExactly) {
  // Many threads recording at once (capture on, so the capture lock is
  // exercised too) must land on exactly the serial replay's totals.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOps = 2000;
  const cluster::Topology t = small_topology(8, 2);
  const auto op = [&t](TrafficLedger& ledger, std::size_t thread,
                       std::size_t i) {
    const auto cls =
        static_cast<TransferClass>((thread + i) % kNumTransferClasses);
    const auto node = static_cast<cluster::NodeId>((thread * 3 + i) % 8);
    const double bytes = static_cast<double>(1 + (i * 37 + thread) % 4096);
    switch (i % 3) {
      case 0:
        ledger.record(node, kClientEndpoint, bytes, cls);
        break;
      case 1:
        ledger.record(kClientEndpoint, node, bytes, cls);
        break;
      default:
        ledger.record(node, static_cast<cluster::NodeId>((node + 1 + i) % 8),
                      bytes, cls);
    }
  };
  TrafficLedger parallel(t);
  parallel.set_capture(true);
  std::vector<std::thread> threads;
  for (std::size_t th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (std::size_t i = 0; i < kOps; ++i) op(parallel, th, i);
    });
  }
  for (auto& thread : threads) thread.join();
  TrafficLedger serial(t);
  for (std::size_t th = 0; th < kThreads; ++th) {
    for (std::size_t i = 0; i < kOps; ++i) op(serial, th, i);
  }

  EXPECT_EQ(parallel.total_bytes(), serial.total_bytes());
  for (std::size_t c = 0; c < kNumTransferClasses; ++c) {
    const auto cls = static_cast<TransferClass>(c);
    EXPECT_EQ(parallel.class_bytes(cls), serial.class_bytes(cls));
  }
  for (std::size_t r = 0; r < kNumRoutes; ++r) {
    const auto route = static_cast<Route>(r);
    EXPECT_EQ(parallel.route_bytes(route), serial.route_bytes(route));
  }
  for (std::size_t n = 0; n < t.num_nodes; ++n) {
    const auto node = static_cast<cluster::NodeId>(n);
    EXPECT_EQ(parallel.node_sent_bytes(node), serial.node_sent_bytes(node));
    EXPECT_EQ(parallel.node_received_bytes(node),
              serial.node_received_bytes(node));
  }
  const auto captured = parallel.drain();
  EXPECT_EQ(captured.size(), kThreads * kOps);
  double captured_bytes = 0;
  for (const auto& r : captured) {
    if (r.from != r.to) captured_bytes += r.bytes;
  }
  EXPECT_EQ(captured_bytes, serial.total_bytes());
}

TEST(TrafficLedger, CapturesInOrderAndSplitsFlowsAtMarks) {
  const cluster::Topology t = small_topology();
  TrafficLedger ledger(t);
  ledger.set_capture(true);
  ledger.record(0, 1, 10.0, TransferClass::kRepair);
  ledger.record(kClientEndpoint, 2, 20.0, TransferClass::kClientWrite);
  ledger.record(5, 5, 30.0, TransferClass::kClientRead);  // self: captured
  const auto records = ledger.drain();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].to, 1);
  EXPECT_EQ(records[1].bytes, 20.0);
  EXPECT_EQ(records[2].from, 5);
  EXPECT_TRUE(ledger.drain().empty());
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 30.0);  // ... but not counted

  ledger.record(0, 1, 1.0, TransferClass::kRepair);
  ledger.mark();
  ledger.mark();  // empty span: no empty flow
  ledger.record(1, 2, 1.0, TransferClass::kRepair);
  ledger.record(2, 3, 1.0, TransferClass::kRepair);
  ledger.mark();
  ledger.record(3, 4, 1.0, TransferClass::kRepair);
  const auto flows = ledger.drain_flows();
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].size(), 1u);
  EXPECT_EQ(flows[1].size(), 2u);
  EXPECT_EQ(flows[2].size(), 1u);
  EXPECT_TRUE(ledger.drain_flows().empty());
}

TEST(TrafficLedger, CaptureOffRecordsNothingAndMarkIsNoOp) {
  const cluster::Topology t = small_topology();
  TrafficLedger ledger(t);
  EXPECT_FALSE(ledger.capturing());
  ledger.record(0, 1, 10.0, TransferClass::kRepair);
  ledger.mark();
  ledger.record(kClientEndpoint, 2, 20.0, TransferClass::kClientWrite);
  EXPECT_DOUBLE_EQ(ledger.total_bytes(), 30.0);  // counting is always on
  EXPECT_TRUE(ledger.drain().empty());
  EXPECT_TRUE(ledger.drain_flows().empty());

  // A mark placed while capture is off must not split a capture span.
  ledger.set_capture(true);
  ledger.record(0, 1, 1.0, TransferClass::kRepair);
  ledger.set_capture(false);
  ledger.mark();
  ledger.record(0, 1, 1.0, TransferClass::kRepair);  // not captured
  ledger.set_capture(true);
  ledger.record(1, 2, 1.0, TransferClass::kRepair);
  const auto flows = ledger.drain_flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].size(), 2u);
}

// ---------------------------------------------------- TrafficLedger + MiniDfs

TEST(MiniDfsLedger, UploadsChargeReceiversAndDeliveriesChargeSenders) {
  const cluster::Topology topology = small_topology(12, 3);
  hdfs::MiniDfs dfs(topology, 7, /*pool=*/nullptr, {});
  const TrafficLedger& ledger = dfs.traffic();

  const Buffer data = random_buffer(64 * 10, 3);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", 64).is_ok());
  ASSERT_GT(ledger.client_bytes(), 0.0);
  for (std::size_t n = 0; n < topology.num_nodes; ++n) {
    EXPECT_EQ(ledger.node_sent_bytes(static_cast<cluster::NodeId>(n)), 0.0)
        << "node " << n;
  }
  EXPECT_EQ(sum_received(ledger, topology.num_nodes), ledger.client_bytes());

  const double delivered_before = ledger.route_bytes(Route::kToClient);
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  const double delivered =
      ledger.route_bytes(Route::kToClient) - delivered_before;
  EXPECT_EQ(delivered, static_cast<double>(read->size()));
  EXPECT_EQ(sum_sent(ledger, topology.num_nodes), delivered);
}

/// Runs `step` on a capturing DFS and checks that each class's class_bytes
/// delta equals the bytes of that class's records captured during it.
/// Returns the per-class deltas.
std::vector<double> checked_class_deltas(hdfs::MiniDfs& dfs,
                                         const std::function<void()>& step) {
  TrafficLedger& ledger = dfs.traffic();
  std::vector<double> before(kNumTransferClasses);
  std::vector<double> captured(kNumTransferClasses, 0.0);
  for (std::size_t c = 0; c < kNumTransferClasses; ++c) {
    before[c] = ledger.class_bytes(static_cast<TransferClass>(c));
  }
  (void)ledger.drain();
  step();
  for (const auto& r : ledger.drain()) {
    captured[static_cast<std::size_t>(r.cls)] += r.bytes;
  }
  std::vector<double> deltas(kNumTransferClasses);
  for (std::size_t c = 0; c < kNumTransferClasses; ++c) {
    const auto cls = static_cast<TransferClass>(c);
    deltas[c] = ledger.class_bytes(cls) - before[c];
    EXPECT_EQ(deltas[c], captured[c]) << to_string(cls);
  }
  return deltas;
}

TEST(MiniDfsLedger, ClassBytesEqualCapturedRecordsOnEveryPath) {
  const cluster::Topology topology = small_topology(12, 3);
  hdfs::MiniDfs dfs(topology, 7, /*pool=*/nullptr, {});
  dfs.traffic().set_capture(true);
  const auto cls = [](TransferClass c) { return static_cast<std::size_t>(c); };

  const Buffer data = random_buffer(64 * 10, 3);
  auto d = checked_class_deltas(dfs, [&] {
    ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", 64).is_ok());
  });
  EXPECT_GT(d[cls(TransferClass::kClientWrite)], 0.0);

  d = checked_class_deltas(dfs,
                           [&] { ASSERT_TRUE(dfs.read_file("/f").is_ok()); });
  EXPECT_GT(d[cls(TransferClass::kClientRead)], 0.0);

  // Lose both replicas of block 0: its read decodes on the fly.
  for (const cluster::NodeId node : dfs.catalog().replica_nodes(0, 0)) {
    ASSERT_TRUE(dfs.fail_node(node).is_ok());
  }
  d = checked_class_deltas(dfs, [&] {
    const auto block = dfs.read_block("/f", 0);
    ASSERT_TRUE(block.is_ok());
    EXPECT_EQ(*block, Buffer(data.begin(), data.begin() + 64));
  });
  EXPECT_GT(d[cls(TransferClass::kClientRead)], 64.0);  // > one replica read

  d = checked_class_deltas(dfs,
                           [&] { ASSERT_TRUE(dfs.repair_all().is_ok()); });
  EXPECT_GT(d[cls(TransferClass::kRepair)], 0.0);

  const cluster::NodeId corrupt_node = dfs.catalog().node_of({0, 1});
  ASSERT_TRUE(dfs.datanode(corrupt_node).corrupt({0, 1}, 0).is_ok());
  d = checked_class_deltas(dfs, [&] {
    const auto healed = dfs.scrub_repair();
    ASSERT_TRUE(healed.is_ok());
    EXPECT_GE(*healed, 1u);
  });
  EXPECT_GT(d[cls(TransferClass::kScrub)], 0.0);

  hdfs::RaidNode raid(dfs);
  d = checked_class_deltas(dfs, [&] {
    ASSERT_TRUE(raid.raid_file("/f", "heptagon").is_ok());
  });
  EXPECT_GT(d[cls(TransferClass::kRetier)], 0.0);

  std::vector<std::string> violations;
  chaos::check_traffic_conservation(dfs, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(MiniDfsLedger, CaptureDoesNotPerturbTheDataPlane) {
  // Identical seeds with capture off and on: stored bytes and traffic
  // totals must agree exactly (capture is observation, not behavior), and
  // the capture-off ledger holds no records.
  const cluster::Topology topology = small_topology(12, 3);
  const Buffer data = random_buffer(64 * 10, 3);

  hdfs::MiniDfs plain(topology, 7, nullptr, {});
  hdfs::MiniDfs captured(topology, 7, nullptr, {});
  captured.traffic().set_capture(true);

  for (hdfs::MiniDfs* dfs : {&plain, &captured}) {
    ASSERT_TRUE(dfs->write_file("/f", data, "heptagon", 64).is_ok());
    ASSERT_TRUE(dfs->read_file("/f").is_ok());
  }
  EXPECT_EQ(plain.stored_bytes(), captured.stored_bytes());
  EXPECT_EQ(plain.traffic().total_bytes(), captured.traffic().total_bytes());
  EXPECT_TRUE(plain.traffic().drain().empty());
  EXPECT_FALSE(captured.traffic().drain().empty());
}

}  // namespace
}  // namespace dblrep::net
