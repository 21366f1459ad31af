// Span recorder for the traced run. The benchmark wraps each call it makes
// into a library layer in a Scope; nested Scopes on one thread become child
// spans, and every span of one client operation shares the operation id of
// its root. Spans stay in per-thread memory and are written out at exit.
// With tracing disabled a Scope is one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench::trace {

/// Where a span came from: the workload's own loop, or the layer probe that
/// covers layers the loop does not reach (see layers.h).
enum class Source : std::uint8_t { kLoop = 0, kProbe = 1 };

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root span
  std::uint64_t op = 0;      // id of the root span of this operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Source source = Source::kLoop;
};

void set_enabled(bool on);
bool enabled();
/// Source stamped on spans opened from now on (all threads).
void set_source(Source source);

class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  Scope* outer_ = nullptr;
  bool active_ = false;
};

/// Every span recorded so far, from all threads.
std::vector<Span> collect();
/// Spans dropped because a thread hit its in-memory cap.
std::uint64_t dropped();

/// Per-name duration and self time (duration minus the part of it that
/// child spans cover), in microseconds.
struct NameStats {
  Samples duration_us;
  Samples self_us;
};
std::map<std::string, NameStats> stats_by_name(const std::vector<Span>& spans,
                                               Source source);

/// Layer of a span name: everything before the last '.'.
std::string layer_of(const std::string& name);

/// Self time summed per layer over the operations whose root span is named
/// `root`, as a share of those roots' total duration.
std::map<std::string, double> layer_shares(const std::vector<Span>& spans,
                                           const std::string& root);

/// Writes one span per line (tab-separated) to `path`.
bool write_tsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::trace
