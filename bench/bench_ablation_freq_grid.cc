// Ablation extending Figure 11's insight: how does the NUMBER of available
// frequency settings shape each algorithm? The paper found that a denser
// grid helps ccEDF/staticEDF approach the bound but can HURT laEDF (finer
// deferral leaves more high-voltage work for later). We sweep uniform
// frequency grids of 2..16 points at fixed utilization.
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
  int64_t tasksets = 40;
  int64_t sim_ms = 4000;
  int64_t jobs = 0;
  double utilization = 0.65;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Ablation: frequency-grid density vs energy (extends Fig 11).");
  flags.AddInt64("tasksets", &tasksets, "random task sets per grid size");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddInt64("jobs", &jobs, "sweep worker threads (0 = hardware concurrency)");
  flags.AddDouble("utilization", &utilization, "worst-case utilization");
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

  const std::vector<std::string> policy_ids = {"static_edf", "cc_edf", "cc_rm",
                                               "la_edf"};
  std::vector<std::string> header = {"grid points"};
  for (const auto& id : policy_ids) {
    header.push_back(MakePolicy(id)->name());
  }
  header.push_back("bound");
  TextTable table(header);

  for (size_t n : {2, 3, 4, 6, 8, 12, 16}) {
    SweepOptions options;
    options.policy_ids = policy_ids;
    options.utilizations = {utilization};
    options.num_tasks = 8;
    options.tasksets_per_point = static_cast<int>(tasksets);
    options.horizon_ms = static_cast<double>(sim_ms);
    // Machine-2-like voltage range over n evenly spaced frequencies.
    options.machine = MachineSpec::UniformGrid(n, 1.4, 2.0);
    options.exec_model_factory = [] {
      return std::make_unique<UniformFractionModel>(0.0, 1.0);
    };
    options.seed = 0x9fd;
    options.jobs = static_cast<int>(jobs);
    UtilizationSweep sweep(options);
    SweepResult result = sweep.Run();
    const SweepRow& row = result.rows.front();
    std::vector<std::string> cells = {StrFormat("%zu", n)};
    for (const auto& cell : row.cells) {
      cells.push_back(FormatDouble(cell.normalized_energy.mean(), 4));
    }
    cells.push_back(FormatDouble(row.normalized_bound.mean(), 4));
    table.AddRow(std::move(cells));
  }

  std::cout << "== Ablation: frequency-grid density (U = " << utilization
            << ", uniform actual demand, EDF-normalized energy) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,ablation_grid");

  BenchJson json("ablation_freq_grid");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Config("utilization", utilization);
  json.AddTable("Frequency-grid density vs normalized energy", table);
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
