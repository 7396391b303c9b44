// Unit suite for src/util/profiler: disabled spans must be free (within
// the documented 2% end-to-end bound), enabled spans must aggregate with
// correct self/child accounting, flushes from pool workers must merge
// without loss, and span COUNTS for a deterministic workload must be
// identical for every sweep jobs value.
#include "src/util/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "src/core/sweep.h"
#include "src/rt/exec_time_model.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace rtdvs {
namespace {

// The profiler is process-global: every test starts from a clean, disabled
// state and leaves it that way.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Disable();
    Profiler::Reset();
  }
  void TearDown() override {
    Profiler::Disable();
    Profiler::Reset();
  }
};

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A small sweep whose span counts are deterministic; shared by the
// determinism and overhead tests.
SweepOptions SmallSweep(bool profile, int jobs) {
  SweepOptions options;
  options.policy_ids = {"edf", "cc_edf"};
  options.utilizations = {0.3, 0.6};
  options.num_tasks = 5;
  options.tasksets_per_point = 4;
  options.horizon_ms = 500.0;
  options.profile = profile;
  options.jobs = jobs;
  return options;
}

TEST_F(ProfilerTest, DisabledSpansRecordNothing) {
  {
    RTDVS_PROF_SCOPE("test/should_not_appear");
  }
  Profiler::FlushThisThread();
  EXPECT_TRUE(Profiler::Drain().empty());
}

TEST_F(ProfilerTest, AggregatesWithSelfChildAccounting) {
  Profiler::Enable();
  for (int i = 0; i < 10; ++i) {
    RTDVS_PROF_SCOPE("test/outer");
    for (int j = 0; j < 3; ++j) {
      RTDVS_PROF_SCOPE("test/inner");
    }
  }
  Profiler::Disable();
  ProfileSnapshot snapshot = Profiler::Drain();

  ASSERT_EQ(snapshot.spans.size(), 2u);
  const ProfileSpanStats& outer = snapshot.spans.at("test/outer");
  const ProfileSpanStats& inner = snapshot.spans.at("test/inner");
  EXPECT_EQ(outer.count, 10);
  EXPECT_EQ(inner.count, 30);
  // Inclusive time covers the children; self time excludes exactly them.
  EXPECT_GE(outer.total_ms, outer.child_ms);
  EXPECT_GE(outer.child_ms, inner.total_ms * 0.99);
  EXPECT_GE(inner.self_ms(), 0.0);
  EXPECT_EQ(inner.child_ms, 0.0);
  EXPECT_EQ(inner.hist.count(), 30);
}

TEST_F(ProfilerTest, DrainClearsAndSecondDrainIsEmpty) {
  Profiler::Enable();
  {
    RTDVS_PROF_SCOPE("test/span");
  }
  Profiler::Disable();
  EXPECT_EQ(Profiler::Drain().spans.size(), 1u);
  EXPECT_TRUE(Profiler::Drain().empty());
}

TEST_F(ProfilerTest, SnapshotMergeAddsCounts) {
  Profiler::Enable();
  {
    RTDVS_PROF_SCOPE("test/span");
  }
  Profiler::Disable();
  ProfileSnapshot a = Profiler::Drain();

  Profiler::Enable();
  {
    RTDVS_PROF_SCOPE("test/span");
  }
  {
    RTDVS_PROF_SCOPE("test/other");
  }
  Profiler::Disable();
  ProfileSnapshot b = Profiler::Drain();

  a.MergeFrom(b);
  EXPECT_EQ(a.spans.at("test/span").count, 2);
  EXPECT_EQ(a.spans.at("test/other").count, 1);
  EXPECT_EQ(a.spans.at("test/span").hist.count(), 2);
}

TEST_F(ProfilerTest, ToJsonIsNameOrderedWithExpectedFields) {
  Profiler::Enable();
  {
    RTDVS_PROF_SCOPE("test/b");
  }
  {
    RTDVS_PROF_SCOPE("test/a");
  }
  Profiler::Disable();
  const JsonValue json = Profiler::Drain().ToJson();
  ASSERT_EQ(json.entries().size(), 2u);
  EXPECT_EQ(json.entries()[0].first, "test/a");
  EXPECT_EQ(json.entries()[1].first, "test/b");
  const JsonValue& span = json.entries()[0].second;
  for (const char* field :
       {"count", "total_ms", "self_ms", "mean_ms", "p50_ms", "p95_ms",
        "max_ms"}) {
    EXPECT_NE(span.Find(field), nullptr) << field;
  }
}

TEST_F(ProfilerTest, WorkerFlushesMergeWithoutLoss) {
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 100;
  Profiler::Enable();
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> pending;
    for (int t = 0; t < kTasks; ++t) {
      pending.push_back(pool.Submit([] {
        for (int i = 0; i < kSpansPerTask; ++i) {
          RTDVS_PROF_SCOPE("test/pooled");
        }
        Profiler::FlushThisThread();
      }));
    }
    for (auto& f : pending) {
      f.get();
    }
  }
  Profiler::Disable();
  ProfileSnapshot snapshot = Profiler::Drain();
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_EQ(snapshot.spans.at("test/pooled").count, kTasks * kSpansPerTask);
}

TEST_F(ProfilerTest, SweepSpanCountsIdenticalForEveryJobsValue) {
  SweepResult serial = UtilizationSweep(SmallSweep(true, 1)).Run();
  SweepResult parallel = UtilizationSweep(SmallSweep(true, 3)).Run();

  ASSERT_FALSE(serial.profile.spans.empty());
  ASSERT_EQ(serial.profile.spans.spans.size(),
            parallel.profile.spans.spans.size());
  auto it = parallel.profile.spans.spans.begin();
  for (const auto& [name, stats] : serial.profile.spans.spans) {
    EXPECT_EQ(name, it->first);
    EXPECT_EQ(stats.count, it->second.count) << name;
    ++it;
  }
  // The workload itself is bit-identical too (the sweep's core contract).
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t r = 0; r < serial.rows.size(); ++r) {
    for (size_t c = 0; c < serial.rows[r].cells.size(); ++c) {
      EXPECT_EQ(serial.rows[r].cells[c].energy.mean(),
                parallel.rows[r].cells[c].energy.mean());
    }
  }
}

TEST_F(ProfilerTest, UnprofiledSweepCarriesNoSpans) {
  SweepResult result = UtilizationSweep(SmallSweep(false, 1)).Run();
  EXPECT_TRUE(result.profile.spans.empty());
  EXPECT_TRUE(Profiler::Drain().empty());
}

// The documented overhead contract: with profiling disabled, a span costs
// one relaxed load and a predicted branch. Measure that per-span cost
// directly, count the span hits a representative workload performs, and
// assert hits x cost stays under 2% of the workload's unprofiled runtime.
TEST_F(ProfilerTest, DisabledOverheadWithinTwoPercent) {
  // Span hits for this workload (counts are deterministic, so one profiled
  // run measures the hit count exactly).
  SweepResult profiled = UtilizationSweep(SmallSweep(true, 1)).Run();
  int64_t hits = 0;
  for (const auto& [name, stats] : profiled.profile.spans.spans) {
    hits += stats.count;
  }
  ASSERT_GT(hits, 0);

  // Per-span disabled cost: min over repeats to shed scheduler noise.
  Profiler::Disable();
  constexpr int kIterations = 2'000'000;
  double span_loop_ms = 1e100;
  double empty_loop_ms = 1e100;
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) {
      RTDVS_PROF_SCOPE("test/disabled");
    }
    span_loop_ms = std::min(span_loop_ms, ElapsedMs(start));
    start = std::chrono::steady_clock::now();
    volatile int sink = 0;
    for (int i = 0; i < kIterations; ++i) {
      sink = i;
    }
    (void)sink;
    empty_loop_ms = std::min(empty_loop_ms, ElapsedMs(start));
  }
  const double cost_per_span_ms =
      std::max(0.0, span_loop_ms - empty_loop_ms) / kIterations;

  // Unprofiled workload runtime: min of 3 to shed noise.
  double workload_ms = 1e100;
  for (int repeat = 0; repeat < 3; ++repeat) {
    SweepResult result = UtilizationSweep(SmallSweep(false, 1)).Run();
    workload_ms = std::min(workload_ms, result.elapsed_wall_ms);
  }

  const double overhead_ms = static_cast<double>(hits) * cost_per_span_ms;
  EXPECT_LE(overhead_ms, 0.02 * workload_ms)
      << hits << " span hits x " << cost_per_span_ms * 1e6
      << " ns/span = " << overhead_ms << " ms overhead vs " << workload_ms
      << " ms workload";
}

}  // namespace
}  // namespace rtdvs
