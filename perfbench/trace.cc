#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint8_t> g_source{0};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_dropped{0};

struct ThreadSpans {
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_registry;  // guarded by mu

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadSpans>());
    return g_registry.back().get();
  }();
  return *mine;
}

thread_local Scope* t_current = nullptr;
thread_local std::uint64_t t_op = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_source(Source source) {
  g_source.store(static_cast<std::uint8_t>(source));
}

Scope::Scope(const char* name) {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.source = static_cast<Source>(g_source.load(std::memory_order_relaxed));
  outer_ = t_current;
  if (outer_ == nullptr) {
    t_op = span_.id;
  } else {
    span_.parent = outer_->span_.id;
  }
  span_.op = t_op;
  t_current = this;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_current = outer_;
  ThreadSpans& mine = this_thread_spans();
  if (mine.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  mine.spans.push_back(span_);
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> all;
  for (const auto& thread : g_registry) {
    all.insert(all.end(), thread->spans.begin(), thread->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::uint64_t dropped() { return g_dropped.load(); }

std::string layer_of(const std::string& name) {
  const auto dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

namespace {

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent).
std::unordered_map<std::uint64_t, double> self_ns(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::unordered_map<std::uint64_t, double> self;
  for (const Span& s : spans) {
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += static_cast<double>(hi - lo);
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += static_cast<double>(hi - lo);
    }
    self[s.id] = static_cast<double>(s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, NameStats> stats_by_name(const std::vector<Span>& spans,
                                               Source source) {
  const auto self = self_ns(spans);
  std::map<std::string, NameStats> out;
  for (const Span& s : spans) {
    if (s.source != source) continue;
    NameStats& st = out[s.name];
    st.duration_us.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    st.self_us.add(self.at(s.id) / 1e3);
  }
  return out;
}

std::map<std::string, double> layer_shares(const std::vector<Span>& spans,
                                           const std::string& root) {
  const auto self = self_ns(spans);
  std::unordered_map<std::uint64_t, bool> op_selected;
  double total = 0;
  for (const Span& s : spans) {
    if (s.parent == 0 && root == s.name) {
      op_selected[s.op] = true;
      total += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> shares;
  if (total <= 0) return shares;
  for (const Span& s : spans) {
    if (!op_selected.contains(s.op)) continue;
    shares[layer_of(s.name)] += self.at(s.id) / total;
  }
  return shares;
}

bool write_tsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\top\tsource\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 s.source == Source::kLoop ? "loop" : "probe", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
