#include "src/util/profiler.h"

#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace rtdvs {
namespace {

// Per-call durations span sub-microsecond engine primitives up to
// multi-second sweep shards: 1 ns .. ~16 s at 2x, 35 buckets. Every span
// histogram shares this layout so snapshots merge bucket-wise.
std::vector<double> SpanBounds() {
  return Histogram::Exponential(1e-6, 2.0, 35).bounds();
}

using Clock = std::chrono::steady_clock;

double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// An open span on this thread's stack. child_ms accumulates the elapsed
// time of directly nested spans so the parent can compute self time.
struct Frame {
  const char* name;
  Clock::time_point start;
  double child_ms;
};

struct ThreadLog {
  // Keyed by string-literal address: the common case (one RTDVS_PROF_SCOPE
  // per call site) hits a single hash lookup; distinct literals with equal
  // text merge by name at flush time.
  std::unordered_map<const char*, ProfileSpanStats> spans;
  std::vector<Frame> stack;
};

ThreadLog& Log() {
  thread_local ThreadLog log;
  return log;
}

std::mutex& GlobalMutex() {
  static std::mutex mu;
  return mu;
}

ProfileSnapshot& GlobalSnapshot() {
  static ProfileSnapshot snap;
  return snap;
}

}  // namespace

std::atomic<bool> Profiler::enabled_{false};

ProfileSpanStats::ProfileSpanStats() : hist(SpanBounds()) {}

void ProfileSpanStats::MergeFrom(const ProfileSpanStats& other) {
  count += other.count;
  total_ms += other.total_ms;
  child_ms += other.child_ms;
  if (other.max_ms > max_ms) max_ms = other.max_ms;
  hist.MergeFrom(other.hist);
}

void ProfileSnapshot::MergeFrom(const ProfileSnapshot& other) {
  for (const auto& [name, stats] : other.spans) {
    auto it = spans.find(name);
    if (it == spans.end()) {
      spans.emplace(name, stats);
    } else {
      it->second.MergeFrom(stats);
    }
  }
}

JsonValue ProfileSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, s] : spans) {
    JsonValue span = JsonValue::Object();
    span.Set("count", s.count);
    span.Set("total_ms", s.total_ms);
    span.Set("self_ms", s.self_ms());
    span.Set("mean_ms", s.count == 0 ? 0.0
                                     : s.total_ms / static_cast<double>(s.count));
    span.Set("p50_ms", s.hist.ValueAtPercentile(50));
    span.Set("p95_ms", s.hist.ValueAtPercentile(95));
    span.Set("max_ms", s.max_ms);
    out.Set(name, std::move(span));
  }
  return out;
}

void Profiler::SpanStart(const char* name) {
  Log().stack.push_back(Frame{name, Clock::now(), 0.0});
}

void Profiler::SpanFinish() {
  ThreadLog& log = Log();
  // A scope opened while disabled never pushed; ProfScope tracks that with
  // `active_`, so the stack here is never empty — but guard anyway so a
  // mid-run Enable() cannot corrupt the log.
  if (log.stack.empty()) return;
  Frame frame = log.stack.back();
  log.stack.pop_back();
  const double elapsed_ms = ToMs(Clock::now() - frame.start);
  ProfileSpanStats& stats = log.spans[frame.name];
  ++stats.count;
  stats.total_ms += elapsed_ms;
  stats.child_ms += frame.child_ms;
  if (elapsed_ms > stats.max_ms) stats.max_ms = elapsed_ms;
  stats.hist.Record(elapsed_ms);
  if (!log.stack.empty()) log.stack.back().child_ms += elapsed_ms;
}

void Profiler::FlushThisThread() {
  ThreadLog& log = Log();
  if (log.spans.empty()) return;
  ProfileSnapshot local;
  for (auto& [name, stats] : log.spans) {
    auto it = local.spans.find(name);
    if (it == local.spans.end()) {
      local.spans.emplace(std::string(name), std::move(stats));
    } else {
      it->second.MergeFrom(stats);
    }
  }
  log.spans.clear();
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalSnapshot().MergeFrom(local);
}

ProfileSnapshot Profiler::Drain() {
  FlushThisThread();
  std::lock_guard<std::mutex> lock(GlobalMutex());
  ProfileSnapshot out = std::move(GlobalSnapshot());
  GlobalSnapshot().spans.clear();
  return out;
}

void Profiler::Reset() {
  ThreadLog& log = Log();
  log.spans.clear();
  log.stack.clear();
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalSnapshot().spans.clear();
}

}  // namespace rtdvs
