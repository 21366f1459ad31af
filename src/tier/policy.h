// Tiering policy: heat -> target tier on the replication/erasure ladder.
//
// The ladder orders layouts from hottest to coldest -- by default
// 3-rep (full locality, 3.0x storage) -> heptagon-local (inherent double
// replication, ~2.6x) -> rs-10-4 (1.4x, no inherent replication) -- the
// lifecycle the paper's Section 2 codes were designed for. The policy is a
// pure function of (heat, current tier): files whose decayed heat drops
// below a tier's demotion threshold move down one or more rungs; files
// re-heating past the threshold times a hysteresis factor promote back.
// The hysteresis band keeps a file whose heat sits near a threshold from
// thrashing demote/promote cycles (each costs a full re-encode stream).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace dblrep::tier {

/// Promote from tier t to t-1 once heat >= demote_below[t-1] times this
/// factor (>= 1; the width of the anti-thrash band).
inline constexpr double kPromoteHysteresis = 4.0;

struct TieringPolicyOptions {
  /// Hottest to coldest code specs. Every entry must name a registered
  /// scheme; transitions only ever move along this ladder.
  std::vector<std::string> ladder = {"3-rep", "heptagon-local", "rs-10-4"};

  /// demote_below[t]: a file in tier t demotes to t+1 while its heat is
  /// below this (one entry per ladder rung except the last). Empty selects
  /// the defaults, 4096 / 1024 bytes of decayed access.
  std::vector<double> demote_below;

  /// Minimum logical seconds a file stays put after a transition before
  /// the engine will move it again.
  double min_residency_s = 0;
};

class TieringPolicy {
 public:
  /// INVALID_ARGUMENT is surfaced lazily by tier_of / construction checks
  /// are cheap: an empty ladder or a threshold-count mismatch falls back
  /// to the defaults.
  explicit TieringPolicy(TieringPolicyOptions options = {});

  const std::vector<std::string>& ladder() const { return ladder_; }
  std::size_t num_tiers() const { return ladder_.size(); }

  /// Ladder index of a code spec; INVALID_ARGUMENT for specs off the
  /// ladder (the engine skips such files entirely).
  Result<std::size_t> tier_of(const std::string& code_spec) const;

  /// Target ladder index for a file with `heat` currently in tier
  /// `current`. Pure and deterministic; promotion and demotion cannot both
  /// apply (kPromoteHysteresis >= 1 separates the bands).
  std::size_t target_tier(double heat, std::size_t current) const;

  /// Demotion threshold of rung `t` (t < num_tiers() - 1).
  double demote_threshold(std::size_t t) const { return demote_below_[t]; }
  double min_residency_s() const { return min_residency_s_; }

 private:
  std::vector<std::string> ladder_;
  std::vector<double> demote_below_;  // ladder_.size() - 1 entries
  double min_residency_s_;
};

}  // namespace dblrep::tier
