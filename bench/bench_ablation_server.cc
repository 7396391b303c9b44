// Extension bench (footnote 1): aperiodic service through a polling server
// and a CBS under RT-DVS. Sweeps the server bandwidth and reports aperiodic
// response time, backlog, periodic misses and energy — the provisioning
// tradeoff a system designer actually turns. Exits 1 if any run misses a
// periodic deadline or fails SimAudit: both servers guarantee the periodic
// tasks' deadlines.
#include <iostream>
#include <memory>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/dvs/policy.h"
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
  int64_t tasksets = 20;
  int64_t sim_ms = 10'000;
  bool quick = false;
  std::string json_path;
  FlagSet flags("Extension: aperiodic servers under RT-DVS — bandwidth vs "
                "response time vs energy.");
  flags.AddInt64("tasksets", &tasksets, "random periodic task sets");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddBool("quick", &quick, "smoke-test configuration (3 sets, 1 s horizon)");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv) || !ValidRunCounts(tasksets, sim_ms)) {
    return 1;
  }
  if (quick) {
    tasksets = 3;
    sim_ms = 1000;
  }

  TextTable table({"server", "U_s", "mean resp ms", "max resp ms", "backlog",
                   "periodic misses", "energy vs EDF"});

  TaskSetGeneratorOptions gen_options;
  gen_options.num_tasks = 5;
  gen_options.target_utilization = 0.5;  // leaves room for the server

  int64_t total_misses = 0;
  int64_t audit_violations = 0;
  for (ServerKind kind : {ServerKind::kPolling, ServerKind::kCbs}) {
    for (double server_util : {0.1, 0.2, 0.3}) {
      RunningStats mean_resp, max_resp, backlog, normalized;
      int64_t misses = 0;
      Pcg32 master(0x5e2f);
      TaskSetGenerator generator(gen_options);
      for (int64_t s = 0; s < tasksets; ++s) {
        Pcg32 rng = master.Fork();
        TaskSet tasks = generator.Generate(rng);
        SimOptions options;
        options.horizon_ms = static_cast<double>(sim_ms);
        options.seed = rng.NextU32();
        options.aperiodic.kind = kind;
        options.aperiodic.period_ms = 20.0;
        options.aperiodic.budget_ms = server_util * 20.0;
        options.aperiodic.arrivals.mean_interarrival_ms = 40.0;
        options.aperiodic.arrivals.mean_service_ms = 2.0;
        options.aperiodic.arrivals.max_service_ms = 8.0;

        auto edf = MakePolicy("edf");
        ConstantFractionModel edf_model(0.8);
        SimResult edf_result =
            RunSimulation(tasks, MachineSpec::Machine0(), *edf, edf_model, options);
        auto policy = MakePolicy("cc_edf");
        ConstantFractionModel model(0.8);
        SimResult result =
            RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
        mean_resp.Add(result.aperiodic.MeanResponseMs());
        max_resp.Add(result.aperiodic.max_response_ms);
        backlog.Add(result.aperiodic.backlog_work);
        normalized.Add(result.total_energy() / edf_result.total_energy());
        misses += result.deadline_misses;
        audit_violations += static_cast<int64_t>(result.audit.violations.size() +
                                                 edf_result.audit.violations.size());
      }
      total_misses += misses;
      table.AddRow({kind == ServerKind::kPolling ? "polling" : "CBS",
                    FormatDouble(server_util, 2), FormatDouble(mean_resp.mean(), 2),
                    FormatDouble(max_resp.mean(), 2), FormatDouble(backlog.mean(), 2),
                    StrFormat("%lld", static_cast<long long>(misses)),
                    FormatDouble(normalized.mean(), 4)});
    }
  }

  std::cout << "== Extension: aperiodic servers under ccEDF "
               "(5 periodic tasks at U=0.5, Poisson arrivals ~0.05 work/ms) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,ablation_server");
  std::cout << StrFormat("periodic misses: %lld, audit violations (EDF and "
                         "ccEDF runs): %lld\n",
                         static_cast<long long>(total_misses),
                         static_cast<long long>(audit_violations));

  BenchJson json("ablation_server");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.AddTable("Aperiodic servers under ccEDF", table);
  const bool wrote = json.WriteIfRequested(json_path);
  return wrote && total_misses == 0 && audit_violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
