// Micro-benchmark (google-benchmark): CPU cost of one scheduling-point
// policy invocation, vs task-set size.
//
// §2.6: "All of the RT-DVS algorithms ... do not require significant
// processing costs. The dynamic schemes all require O(n) computation
// (assuming the scheduler provides an EDF sorted task list)". Our laEDF
// keeps its reverse-EDF order across callbacks and re-inserts only the
// tasks whose deadline moved, so it meets that O(n) bound too; this bench
// makes the constants and the scaling visible.
//
// Two passes: a histogram pass measuring batched scheduling points into
// fixed-bucket histograms (mean/p50/p95/p99 ns per point — tail latency is
// what an RT kernel budgets for, and google-benchmark only reports means),
// then the google-benchmark throughput pass. --quick and --json=<path> are
// handled here and stripped before benchmark::Initialize sees argv.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/dvs/policy.h"
#include "src/rt/task.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

// A SpeedController that just records the request.
class NullSpeed : public SpeedController {
 public:
  void SetOperatingPoint(const OperatingPoint& point) override { point_ = point; }
  const OperatingPoint& current() const override { return point_; }

 private:
  OperatingPoint point_{1.0, 5.0};
};

struct Fixture {
  TaskSet tasks;
  MachineSpec machine = MachineSpec::Machine2();
  PolicyContext ctx;

  explicit Fixture(int n) {
    Pcg32 rng(42);
    for (int i = 0; i < n; ++i) {
      double period = rng.UniformDouble(5.0, 500.0);
      tasks.AddTask({"", period, 0.4 * period / n, 0.0});
    }
    ctx.now_ms = 1.0;
    ctx.tasks = &tasks;
    ctx.machine = &machine;
    ctx.views.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& view = ctx.views[static_cast<size_t>(i)];
      view.has_active_job = (i % 2) == 0;
      view.next_deadline_ms = 1.0 + tasks.task(i).period_ms;
      view.worst_case_remaining = view.has_active_job ? tasks.task(i).wcet_ms : 0.0;
      view.last_actual_work = 0.5 * tasks.task(i).wcet_ms;
      view.cumulative_executed = 0.0;
    }
  }
};

void BM_SchedulingPoint(benchmark::State& state, const std::string& policy_id) {
  Fixture fixture(static_cast<int>(state.range(0)));
  auto policy = MakePolicy(policy_id);
  NullSpeed speed;
  policy->OnStart(fixture.ctx, speed);
  int task_id = 0;
  for (auto _ : state) {
    policy->OnTaskCompletion(task_id, fixture.ctx, speed);
    policy->OnTaskRelease(task_id, fixture.ctx, speed);
    task_id = (task_id + 1) % fixture.tasks.size();
    benchmark::DoNotOptimize(speed.current());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two scheduling points
}

void RegisterAll() {
  for (const char* id : {"cc_edf", "cc_rm", "la_edf"}) {
    benchmark::RegisterBenchmark((std::string("scheduling_point/") + id).c_str(),
                                 [id](benchmark::State& state) {
                                   BM_SchedulingPoint(state, id);
                                 })
        ->Arg(4)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(64);
  }
}

// Times `batches` batches of 64 completion+release pairs and records the
// per-scheduling-point cost. Batching amortizes the clock reads: a single
// point is tens of ns, well under steady_clock resolution + overhead.
Histogram MeasurePolicy(const std::string& policy_id, int num_tasks,
                        int batches) {
  constexpr int kPairsPerBatch = 64;
  Fixture fixture(num_tasks);
  auto policy = MakePolicy(policy_id);
  NullSpeed speed;
  policy->OnStart(fixture.ctx, speed);
  // 1 ns .. ~6 ms in 1.3x steps: covers a cache-hot ccEDF call and a
  // pathological laEDF re-sort alike.
  Histogram histogram = Histogram::Exponential(1.0, 1.3, 60);
  int task_id = 0;
  for (int b = 0; b < batches; ++b) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPairsPerBatch; ++i) {
      policy->OnTaskCompletion(task_id, fixture.ctx, speed);
      policy->OnTaskRelease(task_id, fixture.ctx, speed);
      task_id = (task_id + 1) % fixture.tasks.size();
      benchmark::DoNotOptimize(speed.current());
    }
    auto end = std::chrono::steady_clock::now();
    double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                end - start)
                                .count());
    histogram.Record(ns / (2.0 * kPairsPerBatch));
  }
  return histogram;
}

void RunPercentilePass(bool quick, BenchJson* json) {
  const int batches = quick ? 200 : 2000;
  const std::vector<int> sizes = quick ? std::vector<int>{8, 32}
                                       : std::vector<int>{4, 8, 16, 32, 64};
  TextTable table({"policy", "tasks", "mean ns", "p50 ns", "p95 ns", "p99 ns",
                   "max ns"});
  for (const char* id : {"cc_edf", "cc_rm", "la_edf"}) {
    for (int n : sizes) {
      Histogram h = MeasurePolicy(id, n, batches);
      table.AddRow({id, StrFormat("%d", n), FormatDouble(h.mean(), 1),
                    FormatDouble(h.ValueAtPercentile(50), 1),
                    FormatDouble(h.ValueAtPercentile(95), 1),
                    FormatDouble(h.ValueAtPercentile(99), 1),
                    FormatDouble(h.max(), 1)});
    }
  }
  std::cout << "== Scheduling-point latency per invocation "
            << "(batched x64, ns per point) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,micro_policy_percentiles");
  std::cout << "\n";
  json->AddTable("Scheduling-point latency percentiles (ns)", table);
}

int Main(int argc, char** argv) {
  // Peel off our flags; everything else passes through to google-benchmark
  // (its Initialize aborts on flags it does not know).
  bool quick = false;
  std::string json_path;
  std::vector<char*> pass_through = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      pass_through.push_back(argv[i]);
    }
  }
  static char kQuickMinTime[] = "--benchmark_min_time=0.01";
  if (quick) {
    pass_through.push_back(kQuickMinTime);
  }

  BenchJson json("micro_policy_overhead");
  json.Config("quick", quick);
  RunPercentilePass(quick, &json);

  int pass_argc = static_cast<int>(pass_through.size());
  benchmark::Initialize(&pass_argc, pass_through.data());
  benchmark::RunSpecifiedBenchmarks();
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) {
  rtdvs::RegisterAll();
  return rtdvs::Main(argc, argv);
}
