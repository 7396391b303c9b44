// Low-overhead hierarchical scoped profiler for the engine's hot seams.
//
// Usage: drop RTDVS_PROF_SCOPE("engine/event_queue/pop") at the top of a
// scope. The span is a no-op (one relaxed atomic load and a predicted-
// not-taken branch, ~1 ns) unless profiling was enabled — via
// SimOptions::profile, SweepOptions::profile, or a tool's --profile flag,
// all of which call Profiler::Enable(). tests/util/profiler_test.cc
// measures that disabled cost and asserts the end-to-end overhead bound
// (span hits per run x disabled cost <= 2% of the run).
//
// Concurrency model (TSan-clean by construction):
//   * every thread records into its own thread-local log — span entry/exit
//     touches no shared state;
//   * Profiler::FlushThisThread() folds the local log into the global
//     accumulator under a mutex. Simulator::Run() and every sweep shard
//     flush at the end, so worker-thread samples are never lost when the
//     pool retires a thread;
//   * Profiler::Drain() (main thread, after the pool joined) returns the
//     accumulated snapshot and clears it for the next run.
//
// Aggregation is by span name into a Histogram (src/util/histogram.h;
// shared exponential bucket layout, so snapshots merge exactly). Span
// names are expected to be string literals: the thread-local fast path is
// keyed by the literal's address, and equal names from different call
// sites merge at flush time.
//
// Determinism note: span COUNTS for a deterministic workload are
// deterministic and name order is lexicographic; the recorded durations
// are wall-clock measurements and vary run to run — diagnostics, not
// results.
#ifndef SRC_UTIL_PROFILER_H_
#define SRC_UTIL_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "src/util/histogram.h"

namespace rtdvs {

class JsonValue;

// Aggregated statistics for one span name. total_ms is inclusive (children
// counted); child_ms is the part spent inside nested spans, so
// self_ms() = total_ms - child_ms is the span's own cost.
struct ProfileSpanStats {
  int64_t count = 0;
  double total_ms = 0;
  double child_ms = 0;
  double max_ms = 0;
  Histogram hist;  // per-call duration (ms), shared exponential buckets

  ProfileSpanStats();
  double self_ms() const { return total_ms - child_ms; }
  void MergeFrom(const ProfileSpanStats& other);
};

// A plain-data aggregation over span names, lexicographically ordered.
struct ProfileSnapshot {
  std::map<std::string, ProfileSpanStats> spans;

  bool empty() const { return spans.empty(); }
  void MergeFrom(const ProfileSnapshot& other);
  // {"span/name": {count, total_ms, self_ms, mean_ms, p50_ms, p95_ms,
  //  max_ms}, ...} — name-ordered, hence byte-stable apart from the timing
  // values themselves.
  JsonValue ToJson() const;
};

class Profiler {
 public:
  // Process-global switch; spans check it with a relaxed load. Enable is
  // idempotent and safe to call from concurrent shards.
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool IsEnabled() { return enabled_.load(std::memory_order_relaxed); }

  // Folds this thread's local log into the global accumulator and clears
  // the local log. Cheap no-op when the thread recorded nothing. Callers:
  // end of Simulator::Run, end of each sweep shard, and any driver about
  // to Drain() on the same thread it recorded on.
  static void FlushThisThread();

  // Returns the accumulated snapshot and clears it. Call from the driver
  // after worker threads have flushed (e.g. after the sweep pool joined);
  // flushes the calling thread first for the single-threaded case.
  static ProfileSnapshot Drain();

  // Drops everything recorded so far (global and this thread).
  static void Reset();

 private:
  friend class ProfScope;
  static void SpanStart(const char* name);
  static void SpanFinish();

  static std::atomic<bool> enabled_;
};

// RAII span. Construction/destruction compile to a flag check when
// profiling is disabled; the slow paths live in profiler.cc.
class ProfScope {
 public:
  explicit ProfScope(const char* name) {
    if (Profiler::IsEnabled()) [[unlikely]] {
      active_ = true;
      Profiler::SpanStart(name);
    }
  }
  ~ProfScope() {
    if (active_) [[unlikely]] {
      Profiler::SpanFinish();
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool active_ = false;
};

#define RTDVS_PROF_CONCAT_INNER(a, b) a##b
#define RTDVS_PROF_CONCAT(a, b) RTDVS_PROF_CONCAT_INNER(a, b)
// `name` must be a string literal (or otherwise outlive the profiler): the
// fast path keys on the pointer, and the flush keeps the pointer until the
// name is copied into the snapshot.
#define RTDVS_PROF_SCOPE(name) \
  ::rtdvs::ProfScope RTDVS_PROF_CONCAT(rtdvs_prof_scope_, __LINE__)(name)

}  // namespace rtdvs

#endif  // SRC_UTIL_PROFILER_H_
