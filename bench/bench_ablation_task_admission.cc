// Ablation for §4.3 observation 2: "the dynamic addition of a task to the
// task set may cause transient missed deadlines unless one is very careful.
// ... One solution is to immediately insert the task into the task set, so
// DVS decisions are based on the new system characteristics, but defer the
// initial release of the new task until the current invocations of all
// existing tasks have completed."
//
// This bench joins a new task mid-invocation under the most aggressive
// policy (laEDF) across many random scenarios, with deferral disabled vs
// enabled, and counts the transient misses in a short window after the
// join. With deferral, misses must be zero.
#include <iostream>
#include <memory>

#include "bench/bench_json.h"
#include "src/kernel/kernel.h"
#include "src/rt/taskset_generator.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

struct Outcome {
  int64_t scenarios = 0;
  int64_t scenarios_with_miss = 0;
  int64_t total_misses = 0;
};

Outcome RunScenarios(bool defer, int64_t count, uint64_t seed) {
  Outcome outcome;
  Pcg32 master(seed);
  for (int64_t s = 0; s < count; ++s) {
    Pcg32 rng = master.Fork();
    KernelOptions options;
    options.defer_first_release = defer;
    // Charge switch overheads to WCET as the paper prescribes, so any miss
    // is attributable to the admission transient alone.
    Kernel kernel(options);
    kernel.LoadPolicy(MakePolicy("la_edf"));

    // Base set: ~60% utilization so the new ~30% task still fits.
    TaskSetGeneratorOptions gen_options;
    gen_options.num_tasks = 4;
    gen_options.target_utilization = 0.6;
    // Longer periods keep the switch-overhead pad small relative to WCET.
    gen_options.short_lo_ms = 20.0;
    gen_options.short_hi_ms = 50.0;
    gen_options.medium_lo_ms = 50.0;
    gen_options.medium_hi_ms = 200.0;
    gen_options.long_lo_ms = 200.0;
    gen_options.long_hi_ms = 500.0;
    TaskSet base = TaskSetGenerator(gen_options).Generate(rng);
    for (const auto& task : base.tasks()) {
      KernelTaskParams params;
      params.name = task.name;
      params.period_ms = task.period_ms;
      params.wcet_ms = task.wcet_ms;
      // Full worst-case use: the system is "so closely matched to the
      // current task set load" (§4.3) that no slack hides the transient.
      params.exec_model = std::make_unique<ConstantFractionModel>(1.0);
      kernel.RegisterTask(std::move(params));
    }

    // Join at a random instant, very likely mid-invocation of something.
    double join_ms = rng.UniformDouble(100.0, 400.0);
    kernel.RunUntil(join_ms);
    int64_t misses_before = kernel.Report().deadline_misses;

    // A short-deadline newcomer: its first deadline lands inside the
    // in-flight invocations that past DVS decisions were sized for.
    KernelTaskParams newcomer;
    newcomer.name = "newcomer";
    newcomer.period_ms = rng.UniformDouble(10.0, 30.0);
    newcomer.wcet_ms = 0.3 * newcomer.period_ms;
    newcomer.exec_model = std::make_unique<ConstantFractionModel>(1.0);
    if (kernel.RegisterTask(std::move(newcomer)) < 0) {
      continue;  // admission rejected (rare: padding pushed it over)
    }
    kernel.RunUntil(join_ms + 1000.0);
    int64_t misses = kernel.Report().deadline_misses - misses_before;
    ++outcome.scenarios;
    outcome.total_misses += misses;
    if (misses > 0) {
      ++outcome.scenarios_with_miss;
    }
  }
  return outcome;
}

int Main(int argc, char** argv) {
  int64_t scenarios = 200;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Ablation (§4.3): transient deadline misses on dynamic task "
                "admission, with and without deferred first release.");
  flags.AddInt64("scenarios", &scenarios, "random join scenarios per mode");
  flags.AddBool("quick", &quick, "smoke-test configuration (20 scenarios)");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (quick) {
    scenarios = 20;
  }
  if (scenarios < 1) {
    // An empty run would print an all-zero table that "shows" zero misses.
    std::cerr << "error: --scenarios must be >= 1\n";
    return 1;
  }

  TextTable table({"first release", "scenarios", "scenarios w/ miss", "total misses"});
  for (bool defer : {false, true}) {
    Outcome outcome = RunScenarios(defer, scenarios, 0xadd);
    table.AddRow({defer ? "deferred (paper's fix)" : "immediate",
                  StrFormat("%lld", static_cast<long long>(outcome.scenarios)),
                  StrFormat("%lld", static_cast<long long>(outcome.scenarios_with_miss)),
                  StrFormat("%lld", static_cast<long long>(outcome.total_misses))});
  }
  std::cout << "== Ablation: dynamic task admission under laEDF ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,ablation_admission");
  std::cout << "(the deferred row must show zero misses; the immediate row "
               "shows the transient the paper warns about)\n";

  BenchJson json("ablation_task_admission");
  json.Config("scenarios", scenarios);
  json.AddTable("Dynamic task admission under laEDF", table);
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
