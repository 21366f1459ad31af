#include "tier/policy.h"

#include <algorithm>
#include <cmath>

namespace dblrep::tier {

namespace {

/// The options' thresholds, else {4096, 1024}. With a ladder longer than
/// three rungs the extra thresholds interpolate geometrically between hot
/// and cold.
std::vector<double> resolve_thresholds(const TieringPolicyOptions& options,
                                       std::size_t rungs) {
  if (options.demote_below.size() == rungs) return options.demote_below;
  const double hot = 4096.0;
  const double cold = 1024.0;
  std::vector<double> out(rungs, hot);
  if (rungs >= 2) {
    const double ratio =
        rungs > 1 ? std::pow(cold / hot, 1.0 / static_cast<double>(rungs - 1))
                  : 1.0;
    for (std::size_t t = 1; t < rungs; ++t) out[t] = out[t - 1] * ratio;
    out.back() = cold;
  }
  return out;
}

}  // namespace

TieringPolicy::TieringPolicy(TieringPolicyOptions options)
    : ladder_(options.ladder.empty()
                  ? TieringPolicyOptions{}.ladder
                  : std::move(options.ladder)),
      demote_below_(resolve_thresholds(options, ladder_.size() - 1)),
      min_residency_s_(std::max(options.min_residency_s, 0.0)) {}

Result<std::size_t> TieringPolicy::tier_of(const std::string& code_spec) const {
  const auto it = std::find(ladder_.begin(), ladder_.end(), code_spec);
  if (it == ladder_.end()) {
    return invalid_argument_error("code spec off the tier ladder: " +
                                  code_spec);
  }
  return static_cast<std::size_t>(it - ladder_.begin());
}

std::size_t TieringPolicy::target_tier(double heat,
                                       std::size_t current) const {
  std::size_t t = std::min(current, ladder_.size() - 1);
  // Demote rung by rung while the heat sits below the current rung's
  // threshold; a stone-cold file falls all the way to the coldest tier in
  // one decision.
  while (t + 1 < ladder_.size() && heat < demote_below_[t]) ++t;
  // Promote while the heat clears the band above (threshold x hysteresis).
  // The two loops cannot both move: demotion required heat <
  // demote_below_[t - 1] at the rung it left, and kPromoteHysteresis >= 1.
  while (t > 0 && heat >= demote_below_[t - 1] * kPromoteHysteresis) --t;
  return t;
}

}  // namespace dblrep::tier
