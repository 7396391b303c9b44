// Extension bench (§6 future directions): statistical deadline guarantees.
//
// statEDF budgets each task with a percentile of its observed execution
// history instead of the specified worst case. Sweeping the percentile
// exposes the soft-real-time tradeoff the paper points at as future work:
// energy approaches the bound as the percentile drops, at the cost of a
// small, tunable deadline-miss rate. ccEDF (worst-case charging) is the
// zero-miss anchor.
#include <iostream>
#include <memory>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/dvs/stat_edf_policy.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/simulator.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

int Main(int argc, char** argv) {
  int64_t tasksets = 30;
  int64_t sim_ms = 8000;
  double utilization = 0.8;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Extension (§6): energy vs deadline-miss-rate tradeoff of "
                "percentile-budgeted statEDF.");
  flags.AddInt64("tasksets", &tasksets, "random task sets");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
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

  TaskSetGeneratorOptions gen_options;
  gen_options.num_tasks = 6;
  gen_options.target_utilization = utilization;
  TaskSetGenerator generator(gen_options);

  TextTable table({"policy", "energy vs EDF", "miss rate %", "misses", "releases"});
  const double percentiles[] = {100, 99, 95, 90, 75, 50};

  // Heavy-tailed actual demand: usually ~35%, sometimes the full worst case
  // — exactly where percentile budgeting pays and occasionally burns.
  auto make_model = [] { return std::make_unique<BimodalFractionModel>(0.5, 0.03); };

  struct Row {
    RunningStats normalized;
    int64_t misses = 0;
    int64_t releases = 0;
  };
  Row cc_row;
  std::vector<Row> stat_rows(std::size(percentiles));

  Pcg32 master(0x57a7);
  for (int64_t s = 0; s < tasksets; ++s) {
    Pcg32 rng = master.Fork();
    TaskSet tasks = generator.Generate(rng);
    uint64_t workload_seed = rng.NextU32();
    SimOptions options;
    options.horizon_ms = static_cast<double>(sim_ms);
    options.seed = workload_seed;

    auto edf = MakePolicy("edf");
    auto edf_model = make_model();
    double edf_energy =
        RunSimulation(tasks, MachineSpec::Machine0(), *edf, *edf_model, options)
            .total_energy();

    auto cc = MakePolicy("cc_edf");
    auto cc_model = make_model();
    SimResult cc_result =
        RunSimulation(tasks, MachineSpec::Machine0(), *cc, *cc_model, options);
    cc_row.normalized.Add(cc_result.total_energy() / edf_energy);
    cc_row.misses += cc_result.deadline_misses;
    cc_row.releases += cc_result.releases;

    for (size_t p = 0; p < std::size(percentiles); ++p) {
      StatEdfOptions stat_options;
      stat_options.percentile = percentiles[p];
      StatEdfPolicy policy(stat_options);
      auto model = make_model();
      SimResult result =
          RunSimulation(tasks, MachineSpec::Machine0(), policy, *model, options);
      stat_rows[p].normalized.Add(result.total_energy() / edf_energy);
      stat_rows[p].misses += result.deadline_misses;
      stat_rows[p].releases += result.releases;
    }
  }

  auto add_row = [&table](const std::string& name, const Row& row) {
    double rate = row.releases == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(row.misses) /
                            static_cast<double>(row.releases);
    table.AddRow({name, FormatDouble(row.normalized.mean(), 4),
                  FormatDouble(rate, 3), StrFormat("%lld", (long long)row.misses),
                  StrFormat("%lld", (long long)row.releases)});
  };
  add_row("ccEDF (hard)", cc_row);
  for (size_t p = 0; p < std::size(percentiles); ++p) {
    add_row(StrFormat("statEDF(p%g)", percentiles[p]), stat_rows[p]);
  }

  std::cout << "== Extension: statistical deadline guarantees (U = " << utilization
            << ", bimodal demand) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,ablation_stat_edf");
  std::cout << "(p100 with a warm history ~ ccEDF; lower percentiles trade a "
               "bounded miss rate for energy)\n";

  BenchJson json("ablation_stat_edf");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Config("utilization", utilization);
  json.AddTable("statEDF percentile sweep", table);
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
