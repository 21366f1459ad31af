#include "tier/engine.h"

#include <algorithm>

namespace dblrep::tier {

namespace {

bool is_temp_path(const std::string& path) {
  return path.ends_with(".raid-tmp");
}

}  // namespace

TieringEngine::TieringEngine(hdfs::MiniDfs& dfs, HeatTracker& heat,
                             TieringPolicy policy,
                             TieringEngineOptions options)
    : dfs_(&dfs),
      heat_(&heat),
      policy_(std::move(policy)),
      options_(options),
      raid_(dfs) {}

PassReport TieringEngine::run_once(double now_s) {
  heat_->advance_to(now_s);
  PassReport report;

  // Snapshot the namespace in sorted order: the scan (and therefore the
  // transition sequence) is deterministic regardless of shard layout.
  std::vector<std::string> paths = dfs_->list_files();
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    if (is_temp_path(path)) continue;  // a transition's own scaffolding
    auto info = dfs_->stat(path);
    if (!info.is_ok() || !info->sealed) continue;
    const auto current = policy_.tier_of(info->code_spec);
    if (!current.is_ok()) continue;  // off-ladder layout: not ours to move
    ++report.considered;

    const std::size_t target = policy_.target_tier(heat_->heat(path), *current);
    if (target == *current) continue;

    // Residency gate: a file that just moved stays put, whatever the heat
    // says -- re-encode churn costs a full stream per move.
    const auto last = last_transition_s_.find(path);
    if (last != last_transition_s_.end() &&
        now_s - last->second < policy_.min_residency_s()) {
      ++report.skipped_residency;
      continue;
    }

    // Pass budget: every due file past it counts as skipped.
    if (options_.max_transitions_per_pass > 0 &&
        report.transitions + report.errors >=
            options_.max_transitions_per_pass) {
      ++report.skipped_budget;
      continue;
    }

    TransitionRecord record;
    record.path = path;
    record.from_spec = info->code_spec;
    record.to_spec = policy_.ladder()[target];
    record.promoted = target < *current;
    record.bytes = info->length;
    auto raided = raid_.raid_file(path, record.to_spec);
    record.status = raided.is_ok() ? Status::ok() : raided.status();
    if (record.status.is_ok()) {
      ++report.transitions;
      if (record.promoted) {
        ++report.promotions;
      } else {
        ++report.demotions;
      }
      report.bytes_streamed += record.bytes;
      last_transition_s_[path] = now_s;
    } else {
      // Lost a race (delete/rename during the stream) or hit an
      // environmental failure; the file is untouched or already gone.
      ++report.errors;
    }
    report.records.push_back(std::move(record));
  }
  return report;
}

Result<hdfs::RaidReport> TieringEngine::force_transition(
    const std::string& path, const std::string& target_spec) {
  DBLREP_RETURN_IF_ERROR(policy_.tier_of(target_spec).status());
  auto report = raid_.raid_file(path, target_spec);
  if (report.is_ok()) last_transition_s_[path] = heat_->now_s();
  return report;
}

}  // namespace dblrep::tier
