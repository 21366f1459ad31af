// TieringEngine: the actuator connecting heat (tier/heat.h) and policy
// (tier/policy.h) to RaidNode's streaming re-encode -- the background
// process that keeps a mixed-tier cluster converged on the policy's
// placement of every file.
//
// A pass (run_once) scans the published namespace in sorted path order,
// asks the policy for each on-ladder file's target tier, and executes the
// due transitions via RaidNode::raid_file: pread-stream the old layout
// into a temp file on the new layout, then publish-then-delete swap
// (MiniDfs::replace_file), so the file is readable and recoverable at
// every instant -- chaos tests crash nodes mid-stream to enforce exactly
// that. Transition traffic runs under net::TransferClass::kRetier, so a
// replay harness can throttle it like repair; pacing inside a pass is a
// transition-count budget, so one pass can never starve foreground
// traffic for longer than its budget.
//
// Transitions racing deletes resolve by construction: replace_file returns
// NOT_FOUND if the target path vanished, RaidNode drops its temp file, and
// the engine just counts the error -- the delete won.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"
#include "tier/heat.h"
#include "tier/policy.h"

namespace dblrep::tier {

struct TieringEngineOptions {
  /// Most transitions one pass will execute (0 = unlimited).
  std::size_t max_transitions_per_pass = 4;
};

/// One executed (or attempted) transition.
struct TransitionRecord {
  std::string path;
  std::string from_spec;
  std::string to_spec;
  bool promoted = false;  ///< moved toward replication
  std::size_t bytes = 0;  ///< logical bytes streamed
  Status status;
};

struct PassReport {
  std::size_t considered = 0;          ///< on-ladder files scanned
  std::size_t transitions = 0;         ///< executed successfully
  std::size_t promotions = 0;
  std::size_t demotions = 0;
  std::size_t skipped_residency = 0;   ///< due but moved too recently
  std::size_t skipped_budget = 0;      ///< due but over the pass budget
  std::size_t errors = 0;              ///< attempted and failed (races etc.)
  std::size_t bytes_streamed = 0;      ///< logical bytes re-encoded
  std::vector<TransitionRecord> records;
};

class TieringEngine {
 public:
  /// `dfs` and `heat` are not owned and must outlive the engine. The
  /// tracker is normally the same object wired into the DFS as its
  /// access observer.
  TieringEngine(hdfs::MiniDfs& dfs, HeatTracker& heat, TieringPolicy policy,
                TieringEngineOptions options = {});

  /// One background pass at logical time `now_s`: advances the heat clock,
  /// scans the namespace, and executes due transitions (serially, in
  /// sorted path order -- deterministic per op sequence).
  PassReport run_once(double now_s);

  /// Operator override (dfsctl `tier --target=`): re-encodes `path` to
  /// `target_spec` immediately, policy and budgets bypassed. The target
  /// must be on the ladder.
  Result<hdfs::RaidReport> force_transition(const std::string& path,
                                            const std::string& target_spec);

  /// Test hook: fires once per transition, mid-stream (after the first
  /// chunk of the re-encode landed). Chaos uses it to interleave node
  /// failures with a transition in flight.
  void set_mid_transition_hook(std::function<void()> hook) {
    raid_.set_mid_stream_hook(std::move(hook));
  }

  const TieringPolicy& policy() const { return policy_; }
  HeatTracker& heat() { return *heat_; }

 private:
  hdfs::MiniDfs* dfs_;
  HeatTracker* heat_;
  TieringPolicy policy_;
  TieringEngineOptions options_;
  hdfs::RaidNode raid_;
  /// Logical time of each path's last transition (residency gate). Entries
  /// follow renames implicitly -- a renamed file simply restarts residency.
  std::map<std::string, double> last_transition_s_;
};

}  // namespace dblrep::tier
