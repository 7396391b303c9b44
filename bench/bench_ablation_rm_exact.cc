// Ablation: the paper's static RM scaling uses a SUFFICIENT (pessimistic)
// schedulability test (Figure 1). Exact response-time analysis admits more
// task sets at lower frequencies — how much energy does the pessimism cost?
// (The paper flags the O(n^2) test cost as the reason ccRM avoids
// re-running it online; this quantifies the static-side gap.)
#include <iostream>
#include <memory>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/core/sweep.h"
#include "src/util/flags.h"

namespace rtdvs {
namespace {

int Main(int argc, char** argv) {
  int64_t tasksets = 40;
  int64_t sim_ms = 4000;
  int64_t jobs = 0;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Ablation: sufficient vs exact RM schedulability test in "
                "static voltage scaling.");
  flags.AddInt64("tasksets", &tasksets, "random task sets per point");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddInt64("jobs", &jobs, "sweep worker threads (0 = hardware concurrency)");
  flags.AddBool("quick", &quick, "smoke-test configuration (4 sets, 1 s horizon)");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv) || !ValidRunCounts(tasksets, sim_ms)) {
    return 1;
  }
  if (quick) {
    tasksets = 4;
    sim_ms = 1000;
  }

  SweepOptions options;
  options.policy_ids = {"static_rm", "static_rm_exact", "static_edf"};
  options.utilizations = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  options.num_tasks = 8;
  options.tasksets_per_point = static_cast<int>(tasksets);
  options.horizon_ms = static_cast<double>(sim_ms);
  options.machine = MachineSpec::Machine2();  // dense grid shows the gap best
  options.exec_model_factory = [] {
    return std::make_unique<ConstantFractionModel>(1.0);
  };
  options.seed = 0xe8ac7;
  options.jobs = static_cast<int>(jobs);

  UtilizationSweep sweep(options);
  SweepResult result = sweep.Run();
  std::cout << "== Ablation: static RM scaling, sufficient vs exact test "
               "(machine 2, worst-case execution, EDF-normalized) ==\n";
  RenderEnergyTable(result, /*normalized=*/true).Print(std::cout);
  WriteCsv(result, std::cout, "csv,ablation_rm_exact");
  std::cout << "deadline misses (must be zero everywhere — the exact test is "
               "still a guarantee):\n";
  RenderMissTable(result).Print(std::cout);

  BenchJson json("ablation_rm_exact");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Add("Static RM scaling: sufficient vs exact test", "sweep",
           SweepResultToJson(result));
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
