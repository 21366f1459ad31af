// Failure/repair model parameters for the MTTDL analysis of Table 1.
//
// The paper computes MTTDL "assuming a 25 node system, using standard node
// failure and repair models available in the literature [Xin et al. 2003]"
// without disclosing the constants. We use an exponential-failure /
// exponential-repair continuous-time Markov model with the parameters
// below; docs/paper_map.md documents the calibration and the residual gap on
// the fault-tolerance-3 codes.
#pragma once

#include <cstddef>

#include "common/check.h"

namespace dblrep::rel {

/// Hours in a mean (Julian) year: every hours <-> years conversion uses it.
inline constexpr double kHoursPerYear = 24.0 * 365.25;

struct ReliabilityParams {
  /// Mean time between failures of one storage node (hours). 10 years is a
  /// common whole-node figure for the 2014-era commodity hardware the paper
  /// deploys on.
  double node_mtbf_hours = 10 * kHoursPerYear;

  /// Mean time to repair a failed node (hours). Declustered rebuild of a
  /// ~1 TB node across a 10 Gbps LAN plus detection lag; 1.5 h calibrates
  /// the 3-rep row of Table 1 to within 20% of the paper's value.
  double node_mttr_hours = 1.5;

  /// Cluster size the paper states for Table 1.
  std::size_t system_nodes = 25;

  /// Per-node storage and block size, used to derive stripes per placement
  /// group (which scales the optional read-error term).
  double node_capacity_bytes = 1.0e12;
  double block_size_bytes = 256.0e6;

  /// Probability that reading one source block during a parity-based
  /// reconstruction hits an unrecoverable error that destroys the stripe.
  /// 0 disables the mechanism (the default model). A 1e-15/bit URE rate
  /// over a 256 MB block corresponds to ~2e-6; exposed as an ablation knob
  /// because RAID-era MTTDL models differ mainly in this term.
  double block_read_error_prob = 0.0;

  double failure_rate_per_hour() const {
    DBLREP_CHECK_GT(node_mtbf_hours, 0.0);
    return 1.0 / node_mtbf_hours;
  }
  double repair_rate_per_hour() const {
    DBLREP_CHECK_GT(node_mttr_hours, 0.0);
    return 1.0 / node_mttr_hours;
  }
};

}  // namespace dblrep::rel
