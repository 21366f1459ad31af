#include "reliability/markov.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/rng.h"
#include "ec/local_polygon.h"
#include "ec/polygon.h"
#include "ec/raid_mirror.h"
#include "ec/replication.h"
#include "ec/rs.h"

namespace dblrep::rel {

Signature failure_signature(const ec::CodeScheme& code,
                            const std::set<ec::NodeIndex>& failed) {
  if (dynamic_cast<const ec::PolygonCode*>(&code) ||
      dynamic_cast<const ec::ReplicationCode*>(&code) ||
      dynamic_cast<const ec::RsCode*>(&code)) {
    // Fully node-transitive: only the count matters.
    return {static_cast<int>(failed.size())};
  }
  if (const auto* raidm = dynamic_cast<const ec::RaidMirrorCode*>(&code)) {
    int pairs = 0;
    for (std::size_t sym = 0; sym < raidm->num_symbols(); ++sym) {
      const auto [a, b] = raidm->mirror_nodes(sym);
      if (failed.contains(a) && failed.contains(b)) ++pairs;
    }
    const int singletons = static_cast<int>(failed.size()) - 2 * pairs;
    return {pairs, singletons};
  }
  if (const auto* local = dynamic_cast<const ec::LocalPolygonCode*>(&code)) {
    int in_local[2] = {0, 0};
    int global = 0;
    for (ec::NodeIndex node : failed) {
      const int which = local->local_of_node(node);
      if (which < 0) {
        global = 1;
      } else {
        ++in_local[which];
      }
    }
    // The two locals are interchangeable; sort for a canonical form.
    if (in_local[0] < in_local[1]) std::swap(in_local[0], in_local[1]);
    return {in_local[0], in_local[1], global};
  }
  // Fallback: the exact subset is always a valid (un-lumped) signature.
  Signature sig;
  sig.reserve(failed.size());
  for (ec::NodeIndex node : failed) sig.push_back(node);
  return sig;
}

std::size_t parity_read_blocks(const ec::CodeScheme& code,
                               const std::set<ec::NodeIndex>& failed,
                               ec::NodeIndex v) {
  DBLREP_CHECK(failed.contains(v));
  std::size_t reads = 0;
  for (std::size_t slot : code.layout().slots_on_node(v)) {
    const std::size_t symbol = code.layout().symbol_of_slot(slot);
    const auto plan = code.plan_degraded_read(symbol, failed);
    if (!plan.is_ok()) continue;  // unrecoverable; chain treats as absorbed
    // A plain copy of a surviving replica carries no reconstruction risk.
    if (plan->aggregates.size() == 1 && plan->aggregates[0].is_plain_copy()) {
      continue;
    }
    for (const auto& send : plan->aggregates) reads += send.terms.size();
    for (const auto& rec : plan->reconstructions) reads += rec.local_terms.size();
  }
  return reads;
}

namespace {

/// Stripes per placement group: as many as fill one node's capacity.
double stripes_filling_a_node(const ec::CodeScheme& code) {
  const double bytes_per_node_per_stripe =
      static_cast<double>(code.layout().max_slots_per_node()) *
      kBlockSizeBytes;
  return std::max(1.0, kNodeCapacityBytes / bytes_per_node_per_stripe);
}

/// Dense linear solve for expected absorption times of an absorbing CTMC.
/// For transient state i with total outflow q_i and transition rates
/// q_ij to transient j:  q_i * t_i - sum_j q_ij * t_j = 1.
std::vector<double> solve_absorption_times(
    const std::vector<std::map<std::size_t, double>>& transient_rates,
    const std::vector<double>& total_outflow) {
  const std::size_t n = transient_rates.size();
  // Build dense augmented matrix [A | 1].
  std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    a[i][i] = total_outflow[i];
    for (const auto& [j, rate] : transient_rates[i]) {
      a[i][j] -= rate;
    }
    a[i][n] = 1.0;
  }
  // Partial-pivot Gaussian elimination. The matrix is a diagonally dominant
  // M-matrix, so this is numerically safe.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    DBLREP_CHECK_MSG(std::abs(a[col][col]) > 1e-300,
                     "singular absorption system");
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double factor = a[r][col] / a[col][col];
      if (factor == 0.0) continue;
      for (std::size_t c = col; c <= n; ++c) a[r][c] -= factor * a[col][c];
    }
  }
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = a[i][n] / a[i][i];
  return t;
}

}  // namespace

GroupMarkovModel::GroupMarkovModel(const ec::CodeScheme& code,
                                   const ReliabilityParams& params)
    : params_(params) {
  DBLREP_CHECK_GE(params.system_nodes, code.num_nodes());
  num_groups_ = params.system_nodes / code.num_nodes();
  stripes_per_group_ = stripes_filling_a_node(code);
  build_and_solve(code);
}

void GroupMarkovModel::build_and_solve(const ec::CodeScheme& code) {
  const double lambda = params_.failure_rate_per_hour();
  const double mu = params_.repair_rate_per_hour();
  const std::size_t c = code.num_nodes();

  // BFS over signatures from the all-healthy state; keep one representative
  // failed-set per signature (valid because signatures are orbit
  // invariants: rates out of any member of the orbit coincide).
  std::map<Signature, std::size_t> state_of;
  std::vector<std::set<ec::NodeIndex>> representative;
  std::vector<std::map<std::size_t, double>> rates;  // transient -> transient
  std::vector<double> outflow;                       // includes fatal flows

  std::deque<std::size_t> frontier;
  const std::set<ec::NodeIndex> empty;
  state_of[failure_signature(code, empty)] = 0;
  representative.push_back(empty);
  rates.emplace_back();
  outflow.push_back(0.0);
  frontier.push_back(0);

  auto state_for = [&](const std::set<ec::NodeIndex>& failed) -> std::size_t {
    const Signature sig = failure_signature(code, failed);
    const auto it = state_of.find(sig);
    if (it != state_of.end()) return it->second;
    const std::size_t id = representative.size();
    state_of.emplace(sig, id);
    representative.push_back(failed);
    rates.emplace_back();
    outflow.push_back(0.0);
    frontier.push_back(id);
    DBLREP_CHECK_MSG(representative.size() < 5000,
                     "reliability chain state explosion; add a signature for "
                     "this scheme");
    return id;
  };

  while (!frontier.empty()) {
    const std::size_t state = frontier.front();
    frontier.pop_front();
    const std::set<ec::NodeIndex> failed = representative[state];

    // Failure transitions.
    for (ec::NodeIndex v = 0; v < static_cast<ec::NodeIndex>(c); ++v) {
      if (failed.contains(v)) continue;
      std::set<ec::NodeIndex> next = failed;
      next.insert(v);
      outflow[state] += lambda;
      if (code.is_recoverable(next)) {
        // state_for may grow `rates`; resolve it before indexing.
        const std::size_t next_state = state_for(next);
        rates[state][next_state] += lambda;
      }
      // else: flows to the absorbing loss state (outflow only).
    }

    // Repair transitions (parallel repair, one rate mu per failed node).
    for (ec::NodeIndex v : failed) {
      std::set<ec::NodeIndex> next = failed;
      next.erase(v);
      double fatal_fraction = 0.0;
      if (params_.block_read_error_prob > 0.0) {
        const std::size_t reads = parity_read_blocks(code, failed, v);
        if (reads > 0) {
          const double per_stripe =
              1.0 - std::pow(1.0 - params_.block_read_error_prob,
                             static_cast<double>(reads));
          fatal_fraction =
              1.0 - std::pow(1.0 - per_stripe, stripes_per_group_);
        }
      }
      outflow[state] += mu;
      const std::size_t next_state = state_for(next);
      rates[state][next_state] += mu * (1.0 - fatal_fraction);
      // mu * fatal_fraction flows to absorption.
    }
  }

  num_states_ = representative.size();
  const auto times = solve_absorption_times(rates, outflow);
  mttdl_group_hours_ = times[0];
}

double GroupMarkovModel::mttdl_system_years() const {
  return mttdl_group_hours_ / static_cast<double>(num_groups_) / kHoursPerYear;
}

double simulate_group_mttdl_hours(const ec::CodeScheme& code,
                                  const ReliabilityParams& params,
                                  std::uint64_t seed, int trials) {
  DBLREP_CHECK_GT(trials, 0);
  Rng rng(seed);
  const double lambda = params.failure_rate_per_hour();
  const double mu = params.repair_rate_per_hour();
  const std::size_t c = code.num_nodes();
  const double stripes = stripes_filling_a_node(code);

  double total_hours = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    std::set<ec::NodeIndex> failed;
    double clock = 0.0;
    for (;;) {
      const std::size_t live = c - failed.size();
      const double total_rate =
          static_cast<double>(live) * lambda +
          static_cast<double>(failed.size()) * mu;
      clock += rng.exponential(total_rate);
      const double pick = rng.uniform(0.0, total_rate);
      if (pick < static_cast<double>(live) * lambda) {
        // A uniformly chosen live node fails.
        auto index = rng.next_below(live);
        ec::NodeIndex v = 0;
        for (;; ++v) {
          if (!failed.contains(v)) {
            if (index == 0) break;
            --index;
          }
        }
        failed.insert(v);
        if (!code.is_recoverable(failed)) break;
      } else {
        // A uniformly chosen failed node completes repair.
        auto index = rng.next_below(failed.size());
        auto it = failed.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(index));
        const ec::NodeIndex v = *it;
        if (params.block_read_error_prob > 0.0) {
          const std::size_t reads = parity_read_blocks(code, failed, v);
          const double per_stripe =
              1.0 - std::pow(1.0 - params.block_read_error_prob,
                             static_cast<double>(reads));
          const double fatal = 1.0 - std::pow(1.0 - per_stripe, stripes);
          if (rng.bernoulli(fatal)) break;
        }
        failed.erase(v);
      }
    }
    total_hours += clock;
  }
  return total_hours / trials;
}

}  // namespace dblrep::rel
