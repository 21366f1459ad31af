// Cluster-wide invariant checkers the chaos harness runs between events.
//
// Each checker is side-effect free on the data plane: state is probed
// through the catalog and DataNode accessors directly (never through the
// client read path), so checking perturbs neither the traffic ledger nor any
// datanode. Violations come back as human-readable strings; an empty list
// means the invariant held.
//
// The catalog of invariants (see docs/testing.md for the full rationale):
//
//  * Durability -- for every tracked file, as long as each stripe's
//    node-level erasure pattern is within the scheme's tolerance
//    (ec::CodeScheme::is_recoverable, the same rank oracle the reliability
//    engine trusts), the stripe must decode byte-identical to its
//    write-time contents. Beyond tolerance, a decode is allowed to fail --
//    but a decode that *succeeds* must still return the right bytes
//    (silent wrong-data is a violation everywhere). Additionally, every
//    *readable* slot -- parity and replica slots included -- must equal
//    the re-encoding of the write-time data, which catches CRC-valid
//    tampering the decoder's systematic fast path would never read.
//  * Placement -- every live stripe's group has one distinct in-range
//    cluster node per code node, replicas of one symbol land on distinct
//    nodes, and every block a datanode stores is one the catalog maps to
//    it. For files placed while the whole cluster was live, policy
//    promises are asserted strictly: rack_aware spreads within +/-1
//    across racks, group_per_rack pins each local group wholly inside one
//    rack with the global parity node in a third.
//  * Catalog recovery -- at every quiescent instant the metadata plane's
//    durability artifacts (per-shard snapshot + write-ahead journal) must
//    rebuild a catalog whose fingerprint matches the live NameNode's.
//  * Tier hygiene -- no orphaned re-encode scaffolding: every `.raid-tmp`
//    temp file a tier transition (or raid pass) streams into is swapped or
//    deleted before the operation returns, so at every quiescent instant
//    the namespace contains none.
//  * Traffic conservation -- every recorded byte lands in exactly one
//    class x route bucket of the traffic ledger, the buckets sum to the
//    independently-accumulated total, per-node sent sums to intra + cross
//    + to-client, and per-node received sums to intra + cross +
//    from-client. Exact double equality is sound: all values are sums of
//    whole byte counts far below 2^53.
//
// Fingerprints: storage_fingerprint covers the raw disk contents of every
// node (offline disks and corrupted blocks included, via DataNode::peek);
// cluster_fingerprint folds in membership and the traffic totals. Replay
// determinism is asserted on these.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "hdfs/minidfs.h"
#include "net/model.h"

namespace dblrep::chaos {

/// Ground truth for one tracked file, recorded at write time.
struct FileTruth {
  Buffer expected;  // exact write-time contents
  std::size_t block_size = 0;
  /// Placement ran against the full cluster (no down nodes), so the strict
  /// per-policy placement promises apply to this file's stripes.
  bool written_fully_live = true;
};

using TruthMap = std::map<std::string, FileTruth>;

/// FNV-1a over every node's raw stored blocks (address + bytes), in node
/// and address order.
std::uint64_t storage_fingerprint(const hdfs::MiniDfs& dfs);

/// storage_fingerprint + per-node liveness + the four traffic totals.
std::uint64_t cluster_fingerprint(const hdfs::MiniDfs& dfs);

/// Node-level failure pattern of one stripe as the read and repair paths
/// would plan against it: a code-local node is failed iff any of its slots
/// is unreadable (down node, missing block, or CRC-detected corruption).
std::set<ec::NodeIndex> probe_failed_nodes(const hdfs::MiniDfs& dfs,
                                           cluster::StripeId stripe);

void check_durability(const hdfs::MiniDfs& dfs, const TruthMap& truth,
                      std::vector<std::string>& violations);

void check_placement(const hdfs::MiniDfs& dfs, const TruthMap& truth,
                     std::vector<std::string>& violations);

void check_traffic_conservation(const hdfs::MiniDfs& dfs,
                                std::vector<std::string>& violations);

/// Catalog recovery -- the metadata plane's durability artifacts (per-shard
/// snapshot + write-ahead journal) must at every quiescent instant rebuild
/// a catalog fingerprint-identical to the live one. A fresh NameNode is
/// restored from *copies* of the artifacts, so the probe never perturbs the
/// live metadata plane. Skipped while a write transaction is open: open
/// writes are rolled back by recovery by design, so live != rebuilt there
/// (the crash-point fuzzer in recovery_test owns that regime).
void check_catalog_recovery(const hdfs::MiniDfs& dfs,
                            std::vector<std::string>& violations);

/// Tier hygiene -- RaidNode's publish-then-delete swap must never leave its
/// `.raid-tmp` scaffolding published at a quiescent instant: a completed
/// transition swapped it, a failed one deleted it.
void check_tier_hygiene(const hdfs::MiniDfs& dfs,
                        std::vector<std::string>& violations);

/// Network conservation over a net::NetworkModel, valid at any instant
/// (mid-flight included): globally, bytes injected == bytes delivered +
/// bytes in flight (same for transfer counts, and in-flight is
/// non-negative); per link, bytes_in == bytes_out + held_bytes with held
/// bytes/queue depth non-negative; and the sum of per-class delivered
/// bytes equals total delivered. Once the event queue has drained, pass
/// `expect_drained` to additionally require in-flight == 0 and every
/// link's queue empty. Tolerance is exact: every quantity is a sum of
/// whole byte counts far below 2^53.
void check_network_conservation(const net::NetworkModel& model,
                                std::vector<std::string>& violations,
                                bool expect_drained = false);

/// Runs the full battery in the order above.
void check_all(const hdfs::MiniDfs& dfs, const TruthMap& truth,
               std::vector<std::string>& violations);

}  // namespace dblrep::chaos
