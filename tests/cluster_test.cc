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
  const auto id = catalog.register_stripe(pentagon, {10, 11, 12, 13, 14});
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  // Symbol on edge {0,1} of the code maps to cluster nodes 10 and 11.
  const auto replicas = catalog.replica_nodes(*id, pentagon.edge_symbol(0, 1));
  EXPECT_EQ(replicas, (std::vector<NodeId>{10, 11}));
  // Node 10 hosts 4 slots of this stripe.
  EXPECT_EQ(catalog.slots_on_node(10).size(), 4u);
  EXPECT_TRUE(catalog.slots_on_node(0).empty());
}

TEST(BlockCatalog, RejectsBadGroups) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2}).is_ok());
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 3}).is_ok());
  EXPECT_FALSE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 99}).is_ok());
}

TEST(BlockCatalog, FailedInStripeMapsClusterToCodeIndices) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  const auto id = catalog.register_stripe(pentagon, {20, 5, 9, 3, 17});
  ASSERT_TRUE(id.is_ok());
  const auto failed = catalog.failed_in_stripe(*id, {5, 17, 4});
  EXPECT_EQ(failed, (std::set<ec::NodeIndex>{1, 4}));
}

TEST(BlockCatalog, UnregisterTombstonesStripe) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  const auto a = catalog.register_stripe(pentagon, {0, 1, 2, 3, 4});
  const auto b = catalog.register_stripe(pentagon, {5, 6, 7, 8, 9});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(catalog.num_stripes(), 2u);
  ASSERT_TRUE(catalog.unregister_stripe(*a).is_ok());
  EXPECT_EQ(catalog.num_stripes(), 1u);
  EXPECT_FALSE(catalog.is_registered(*a));
  EXPECT_TRUE(catalog.is_registered(*b));
  // Node listings no longer mention the dead stripe.
  EXPECT_TRUE(catalog.slots_on_node(0).empty());
  EXPECT_TRUE(catalog.stripes_on_node(2).empty());
  // Double delete and access to a tombstone are rejected.
  EXPECT_FALSE(catalog.unregister_stripe(*a).is_ok());
  EXPECT_THROW(catalog.stripe(*a), ContractViolation);
  // New registrations keep working and get fresh ids.
  const auto c = catalog.register_stripe(pentagon, {0, 1, 2, 3, 4});
  ASSERT_TRUE(c.is_ok());
  EXPECT_NE(*c, *a);
}

TEST(BlockCatalog, StripesOnNodeDeduplicates) {
  const Topology t = setup1_topology();
  BlockCatalog catalog(t);
  ec::PolygonCode pentagon(5);
  ASSERT_TRUE(catalog.register_stripe(pentagon, {0, 1, 2, 3, 4}).is_ok());
  ASSERT_TRUE(catalog.register_stripe(pentagon, {0, 5, 6, 7, 8}).is_ok());
  const auto stripes = catalog.stripes_on_node(0);
  EXPECT_EQ(stripes.size(), 2u);  // node 0 hosts 4 slots of each stripe
}

}  // namespace
}  // namespace dblrep::cluster
