// Per-file heat tracking: the sensor half of the adaptive tiering engine.
//
// "XORing Elephants" (PAPERS.md) motivates lifecycle tiering with access
// skew: a small hot set takes most reads and must stay replicated for
// locality, while the cold tail can be erasure-coded down. The HeatTracker
// measures exactly that signal from real client traffic -- it implements
// hdfs::AccessObserver and is wired into a MiniDfs via
// MiniDfsOptions::access_observer, so every foreground read/write feeds a
// per-file exponentially-decayed byte counter. Background traffic (repair,
// scrub, kRetier re-encode streams) never reaches it: a transition cannot
// keep the file it is cooling hot.
//
// Time is a logical clock in seconds, advanced explicitly by the caller
// (advance_to). Simulation harnesses drive it off their event index, so
// every heat value -- and therefore every tiering decision -- is a
// deterministic function of the op sequence, never of wall-clock.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hdfs/minidfs.h"

namespace dblrep::tier {

/// Exponential half-life of the per-file byte counter, in logical seconds.
inline constexpr double kHeatHalfLifeS = 60.0;

/// One file's decayed state, as of the tracker's clock.
struct HeatSample {
  std::string path;
  double heat = 0;   ///< decayed access bytes
  double age_s = 0;  ///< clock - first time the tracker saw the path
};

class HeatTracker : public hdfs::AccessObserver {
 public:
  /// Advances the logical clock (monotonic: earlier times are ignored).
  /// Decay is evaluated lazily against this clock.
  void advance_to(double now_s);
  double now_s() const;

  /// Decayed heat of `path` (0 for untracked paths).
  double heat(const std::string& path) const;

  /// Seconds since the tracker first saw `path`; negative if untracked.
  double age_s(const std::string& path) const;

  bool tracked(const std::string& path) const;
  std::size_t size() const;

  /// Every tracked file, hottest first (ties broken by path, so the order
  /// is deterministic).
  std::vector<HeatSample> snapshot() const;

  /// Adds `bytes` of access heat to `path` at the current clock.
  void record_access(const std::string& path, std::size_t bytes);

  // ------------------------------------------- hdfs::AccessObserver hooks
  void on_read(const std::string& path, std::size_t bytes) override;
  void on_write(const std::string& path, std::size_t bytes) override;
  void on_delete(const std::string& path) override;
  void on_rename(const std::string& from, const std::string& to) override;
  void on_replace(const std::string& from, const std::string& to) override;

 private:
  struct Entry {
    double heat = 0;    // decayed to last_s
    double last_s = 0;  // clock of the last decay evaluation
    double born_s = 0;  // clock when the path was first seen
  };

  double decayed_locked(const Entry& entry) const;

  mutable std::mutex mu_;
  double now_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace dblrep::tier
