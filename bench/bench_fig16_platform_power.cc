// Figure 16: power consumption measured on the actual platform.
//
// Paper setup: 5 tasks that always consume 90% of their worst case, the
// 2-voltage-level K6-2+ machine, total system power (including the
// irreducible board overhead; backlight off) measured by the oscilloscope
// rig over 15-30 s while sweeping worst-case utilization, for plain EDF,
// statically-scaled RM, ccEDF and laEDF. Paper finding: 20-40% system-level
// savings while all deadlines hold.
//
// Our substitution: the kernel+platform substrate (register-level PowerNow
// transitions with their mandatory halts, Table-1-calibrated system power
// model) replaces the laptop; see DESIGN.md.
#include <iostream>
#include <memory>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/kernel/kernel.h"
#include "src/rt/taskset_generator.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

int Main(int argc, char** argv) {
  int64_t tasksets = 10;
  int64_t sim_ms = 15000;  // the oscilloscope averaged over 15-30 s
  double fraction = 0.9;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Reproduces Figure 16: measured system power vs utilization "
                "on the K6-2+ platform substrate.");
  flags.AddInt64("tasksets", &tasksets, "random task sets per utilization point");
  flags.AddInt64("sim-ms", &sim_ms, "measurement duration (ms)");
  flags.AddDouble("c", &fraction, "actual fraction of worst case consumed");
  flags.AddBool("quick", &quick, "smoke-test configuration (2 sets, 1 s horizon)");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv) || !ValidRunCounts(tasksets, sim_ms)) {
    return 1;
  }
  if (quick) {
    tasksets = 2;
    sim_ms = 1000;
  }

  const std::vector<std::string> policy_ids = {"edf", "static_rm", "cc_edf", "la_edf"};
  std::vector<std::string> header = {"utilization"};
  for (const auto& id : policy_ids) {
    header.push_back(MakePolicy(id)->name() + " W");
  }
  header.push_back("misses(la)");
  TextTable table(header);

  Pcg32 master(0xf16);
  for (int u10 = 1; u10 <= 10; ++u10) {
    double utilization = 0.1 * u10;
    TaskSetGeneratorOptions gen_options;
    gen_options.num_tasks = 5;
    gen_options.target_utilization = utilization;
    TaskSetGenerator generator(gen_options);

    std::vector<RunningStats> watts(policy_ids.size());
    int64_t la_misses = 0;
    for (int64_t s = 0; s < tasksets; ++s) {
      Pcg32 set_rng = master.Fork();
      TaskSet tasks = generator.Generate(set_rng);
      for (size_t p = 0; p < policy_ids.size(); ++p) {
        KernelOptions options;
        options.power.screen_on = false;  // backlight off, like the paper
        options.admission_control = false;  // sweep runs fixed, pre-built sets
        Kernel kernel(options);
        kernel.LoadPolicy(MakePolicy(policy_ids[p]));
        for (const auto& task : tasks.tasks()) {
          KernelTaskParams params;
          params.name = task.name;
          params.period_ms = task.period_ms;
          params.wcet_ms = task.wcet_ms;
          params.exec_model = std::make_unique<ConstantFractionModel>(fraction);
          kernel.RegisterTask(std::move(params));
        }
        kernel.RunUntil(static_cast<double>(sim_ms));
        KernelReport report = kernel.Report();
        watts[p].Add(report.avg_system_watts);
        if (policy_ids[p] == "la_edf") {
          la_misses += report.deadline_misses;
        }
      }
    }
    std::vector<std::string> row = {FormatDouble(utilization, 1)};
    for (const auto& stat : watts) {
      row.push_back(FormatDouble(stat.mean(), 2));
    }
    row.push_back(StrFormat("%lld", static_cast<long long>(la_misses)));
    table.AddRow(std::move(row));
  }

  std::cout << "== Figure 16: system power on the K6-2+ platform substrate ==\n"
            << "5 tasks, c = " << fraction << ", total system watts "
            << "(board floor included; backlight off)\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,fig16");
  std::cout << "(misses column: transition halts are not charged to WCET in "
               "this sweep; the paper budgets them into C_i — see "
               "EXPERIMENTS.md)\n";

  BenchJson json("fig16_platform_power");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Config("c", fraction);
  json.AddTable("Figure 16: system watts vs utilization", table);
  return json.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
