#include "tier/heat.h"

#include <algorithm>
#include <cmath>

namespace dblrep::tier {

void HeatTracker::advance_to(double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ = std::max(now_, now_s);
}

double HeatTracker::now_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

double HeatTracker::decayed_locked(const Entry& entry) const {
  const double dt = now_ - entry.last_s;
  if (dt <= 0) return entry.heat;
  return entry.heat * std::exp2(-dt / kHeatHalfLifeS);
}

double HeatTracker::heat(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(path);
  return it == entries_.end() ? 0.0 : decayed_locked(it->second);
}

double HeatTracker::age_s(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(path);
  return it == entries_.end() ? -1.0 : now_ - it->second.born_s;
}

bool HeatTracker::tracked(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.contains(path);
}

std::size_t HeatTracker::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<HeatSample> HeatTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HeatSample> out;
  out.reserve(entries_.size());
  for (const auto& [path, entry] : entries_) {
    out.push_back({path, decayed_locked(entry), now_ - entry.born_s});
  }
  std::sort(out.begin(), out.end(),
            [](const HeatSample& a, const HeatSample& b) {
              if (a.heat != b.heat) return a.heat > b.heat;
              return a.path < b.path;
            });
  return out;
}

void HeatTracker::record_access(const std::string& path, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(path);
  Entry& entry = it->second;
  if (inserted) {
    entry.born_s = now_;
    entry.last_s = now_;
    entry.heat = static_cast<double>(bytes);
    return;
  }
  entry.heat = decayed_locked(entry) + static_cast<double>(bytes);
  entry.last_s = std::max(entry.last_s, now_);
}

void HeatTracker::on_read(const std::string& path, std::size_t bytes) {
  record_access(path, bytes);
}

void HeatTracker::on_write(const std::string& path, std::size_t bytes) {
  record_access(path, bytes);
}

void HeatTracker::on_delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(path);
}

void HeatTracker::on_rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(from);
  if (it == entries_.end()) return;
  const Entry entry = it->second;
  entries_.erase(it);
  entries_.insert_or_assign(to, entry);
}

void HeatTracker::on_replace(const std::string& from, const std::string& to) {
  // The temp layout's tracking state (its commit's on_write heat) dies with
  // the temp path; `to` keeps the heat the clients actually generated.
  (void)to;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(from);
}

}  // namespace dblrep::tier
