// Tests for the cluster layer: topology/racks and the block catalog.
#include <gtest/gtest.h>

#include "cluster/catalog.h"
#include "cluster/topology.h"
#include "common/check.h"
#include "ec/polygon.h"
#include "ec/registry.h"

namespace dblrep::cluster {
namespace {

TEST(Topology, PaperSetupsMatchSection4) {
  const Topology s1 = setup1_topology();
  EXPECT_EQ(s1.num_nodes, 25u);
  EXPECT_EQ(s1.num_racks, 1u);  // "all nodes configured to be in one rack"
  const Topology s2 = setup2_topology();
  EXPECT_EQ(s2.num_nodes, 9u);
}

TEST(Topology, RackAssignmentRoundRobins) {
  Topology t;
  t.num_nodes = 6;
  t.num_racks = 3;
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(4), 1);
  EXPECT_TRUE(t.same_rack(0, 3));
  EXPECT_FALSE(t.same_rack(0, 1));
  EXPECT_THROW(t.rack_of(6), ContractViolation);
}

TEST(BlockCatalog, RegistersAndResolvesPentagonStripe) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  ASSERT_TRUE(
      catalog.register_stripe_at(3, pentagon, {10, 11, 12, 13, 14}, true)
          .is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  EXPECT_TRUE(catalog.is_registered(3));
  EXPECT_TRUE(catalog.is_sealed(3));
  // Symbol on edge {0,1} of the code maps to cluster nodes 10 and 11.
  const auto replicas = catalog.replica_nodes(3, pentagon.edge_symbol(0, 1));
  EXPECT_EQ(replicas, (std::vector<NodeId>{10, 11}));
  // Node 10 is code node 0, which hosts 4 slots of this stripe.
  EXPECT_EQ(catalog.node_of({3, pentagon.layout().slots_on_node(0)[3]}), 10);
  EXPECT_EQ(catalog.stripes_on_node(10), (std::vector<StripeId>{3}));
  EXPECT_TRUE(catalog.stripes_on_node(0).empty());
}

TEST(BlockCatalog, RejectsBadGroupsAndReusedIds) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  EXPECT_FALSE(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2}, true).is_ok());
  EXPECT_FALSE(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2, 3, 3}, true).is_ok());
  EXPECT_FALSE(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2, 3, 99}, true).is_ok());
  EXPECT_EQ(catalog.num_stripes(), 0u);
  ASSERT_TRUE(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2, 3, 4}, true).is_ok());
  EXPECT_EQ(
      catalog.register_stripe_at(0, pentagon, {5, 6, 7, 8, 9}, true).code(),
      StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.stripes_on_node(5).empty());
}

TEST(BlockCatalog, UnregisterTombstonesStripe) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  ASSERT_TRUE(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2, 3, 4}, true).is_ok());
  ASSERT_TRUE(
      catalog.register_stripe_at(1, pentagon, {5, 6, 7, 8, 9}, true).is_ok());
  EXPECT_EQ(catalog.num_stripes(), 2u);
  ASSERT_TRUE(catalog.unregister_stripe(0).is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  EXPECT_FALSE(catalog.is_registered(0));
  EXPECT_TRUE(catalog.is_registered(1));
  EXPECT_EQ(catalog.live_stripe_ids(), (std::vector<StripeId>{1}));
  // Node listings no longer mention the dead stripe.
  EXPECT_TRUE(catalog.stripes_on_node(0).empty());
  EXPECT_TRUE(catalog.stripes_on_node(2).empty());
  EXPECT_EQ(catalog.stripes_on_node(5), (std::vector<StripeId>{1}));
  // Double delete and access to a tombstone are rejected.
  EXPECT_FALSE(catalog.unregister_stripe(0).is_ok());
  EXPECT_THROW(catalog.stripe(0), ContractViolation);
  // The tombstone keeps its id; a fresh id registers on the same nodes.
  EXPECT_EQ(
      catalog.register_stripe_at(0, pentagon, {0, 1, 2, 3, 4}, true).code(),
      StatusCode::kAlreadyExists);
  ASSERT_TRUE(
      catalog.register_stripe_at(2, pentagon, {0, 1, 2, 3, 4}, true).is_ok());
  EXPECT_EQ(catalog.stripes_on_node(0), (std::vector<StripeId>{2}));
}

TEST(BlockCatalog, StripesOnNodeListsEachStripeOnceInIdOrder) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  ASSERT_TRUE(
      catalog.register_stripe_at(9, pentagon, {0, 1, 2, 3, 4}, true).is_ok());
  ASSERT_TRUE(
      catalog.register_stripe_at(4, pentagon, {0, 5, 6, 7, 8}, true).is_ok());
  // Node 0 hosts 4 slots of each stripe, and each stripe is listed once.
  EXPECT_EQ(catalog.stripes_on_node(0), (std::vector<StripeId>{4, 9}));
  EXPECT_EQ(catalog.stripes_on_node(5), (std::vector<StripeId>{4}));
}

}  // namespace
}  // namespace dblrep::cluster
