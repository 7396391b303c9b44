// Ablation for §2.2: average-throughput (interval-based) DVS vs RT-DVS.
//
// The paper argues that utilization-feedback governors save energy but
// cannot provide deadline guarantees. This bench quantifies both sides:
// energy AND misses across a utilization sweep with bursty actual demand —
// the regime where the feedback loop is most wrong.
#include <iostream>
#include <memory>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/core/sweep.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

int Main(int argc, char** argv) {
  int64_t tasksets = 30;
  int64_t sim_ms = 5000;
  int64_t jobs = 0;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Ablation (§2.2): interval-based DVS vs RT-DVS — energy and "
                "deadline misses under bursty load.");
  flags.AddInt64("tasksets", &tasksets, "random task sets per utilization point");
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
  options.policy_ids = {"edf", "interval", "cc_edf", "la_edf"};
  options.utilizations = {0.2, 0.4, 0.6, 0.8, 1.0};
  options.num_tasks = 6;
  options.tasksets_per_point = static_cast<int>(tasksets);
  options.horizon_ms = static_cast<double>(sim_ms);
  // Bursty: mostly ~30% of worst case with 5% near-worst-case spikes.
  options.exec_model_factory = [] {
    return std::make_unique<BimodalFractionModel>(0.3, 0.05);
  };
  options.seed = 0xab1a;
  options.jobs = static_cast<int>(jobs);

  UtilizationSweep sweep(options);
  SweepResult result = sweep.Run();
  std::cout << "== Ablation: interval DVS vs RT-DVS (bursty workload) ==\n";
  std::cout << "normalized energy (vs plain EDF):\n";
  RenderEnergyTable(result, /*normalized=*/true).Print(std::cout);
  WriteCsv(result, std::cout, "csv,ablation_interval");
  std::cout << "\ntotal deadline misses (" << tasksets
            << " task sets per point; RT-DVS rows must be zero):\n";
  TextTable misses = RenderMissTable(result);
  misses.Print(std::cout);
  misses.PrintCsv(std::cout, "csv,ablation_interval_misses");

  BenchJson json("ablation_interval_dvs");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Add("Interval DVS vs RT-DVS (bursty workload)", "sweep",
           SweepResultToJson(result));
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
