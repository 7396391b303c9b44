// rtdvs_sim: command-line front end to the simulator — the equivalent of
// the C++ simulator the paper built for §3, as a reusable tool.
//
//   ./rtdvs_sim --scenario examples/scenarios/camcorder.scn --policy la_edf
//   ./rtdvs_sim --scenario set.scn --all-policies --sim-ms 30000 --gantt 50
//   ./rtdvs_sim --scenario set.scn --cores=4 --partition=wf --json=out.json
//
// Prints energy, deadline and aperiodic statistics, per-operating-point
// residency (per core on clusters), and (optionally) the ASCII execution
// trace. Every run goes through the cluster API (SimRequest); M = 1 output
// is byte-identical to the classic single-core tool. Exit codes: 0 ok,
// 1 usage/IO error, 2 infeasible partition or hard-policy deadline misses,
// 3 audit violations.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <variant>

#include "src/core/scenario.h"
#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_export.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/profiler.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

// "trace.json" + "cc_edf" -> "trace.cc_edf.json", so --all-policies writes
// one Chrome trace per policy instead of overwriting a single file.
std::string InsertPolicyIntoPath(const std::string& path, const std::string& id) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + id;
  }
  return path.substr(0, dot) + "." + id + path.substr(dot);
}

// `tasks` is the set the run simulated (MpSimResult::core_tasks[0]).
void PrintResult(const SimResult& result, const TaskSet& tasks, double gantt_ms) {
  std::printf("%s\n", result.Summary().c_str());
  if (result.audit.audited) {
    std::printf("  %s\n", result.audit.Summary().c_str());
  }
  const PolicyCounters& counters = result.policy_counters;
  std::printf(
      "  decisions: %lld speed requests (%lld transitions), slack reclaimed "
      "%.2f ms over %lld completions, %lld deferrals (%.2f ms deferred), "
      "mean utilization estimate %.3f over %lld samples\n",
      static_cast<long long>(counters.speed_change_requests),
      static_cast<long long>(counters.speed_transitions),
      counters.slack_reclaimed_ms,
      static_cast<long long>(counters.slack_completions),
      static_cast<long long>(counters.deferral_decisions),
      counters.work_deferred_ms,
      counters.utilization_samples == 0
          ? 0.0
          : counters.utilization_sum /
                static_cast<double>(counters.utilization_samples),
      static_cast<long long>(counters.utilization_samples));
  if (result.server_task_id >= 0) {
    std::printf(
        "  aperiodic: %lld arrivals, %lld served, mean response %.2f ms, "
        "max %.2f ms, backlog %.2f\n",
        static_cast<long long>(result.aperiodic.arrivals),
        static_cast<long long>(result.aperiodic.completions),
        result.aperiodic.MeanResponseMs(), result.aperiodic.max_response_ms,
        result.aperiodic.backlog_work);
  }
  for (const auto& res : result.residency) {
    if (res.exec_ms + res.idle_ms > 0) {
      std::printf("  %-18s exec %10.2f ms   idle %10.2f ms   energy %10.2f\n",
                  res.point.ToString().c_str(), res.exec_ms, res.idle_ms,
                  res.exec_energy + res.idle_energy);
    }
  }
  if (gantt_ms > 0) {
    std::printf("%s", result.trace.RenderGantt(tasks, 76, gantt_ms).c_str());
  }
}

// Cluster (M > 1) text report: the partition/migration picture, cluster
// totals, then each core's summary and per-operating-point residency.
void PrintMpResult(const MpSimResult& result, PartitionHeuristic fit,
                   double gantt_ms) {
  if (result.mode == MpMode::kPartitioned) {
    std::string us;
    for (size_t c = 0; c < result.partition.core_utilization.size(); ++c) {
      us += StrFormat("%s%.3f", c == 0 ? "" : " ",
                      result.partition.core_utilization[c]);
    }
    std::printf("partition (%s): %d/%d cores used, U per core [%s]\n",
                PartitionHeuristicName(fit), result.partition.cores_used,
                result.num_cores, us.c_str());
  } else {
    std::printf("global: %d cores, %lld migrations\n", result.num_cores,
                static_cast<long long>(result.migrations));
  }
  std::printf("cluster %s\n", result.cluster.Summary().c_str());
  if (result.cluster.audit.audited) {
    std::printf("  %s\n", result.cluster.audit.Summary().c_str());
  }
  for (int c = 0; c < result.num_cores; ++c) {
    const SimResult& slice = result.cores[static_cast<size_t>(c)];
    std::printf("  core %d %s\n", c, slice.Summary().c_str());
    for (const auto& res : slice.residency) {
      if (res.exec_ms + res.idle_ms > 0) {
        std::printf(
            "    %-18s exec %10.2f ms   idle %10.2f ms   energy %10.2f\n",
            res.point.ToString().c_str(), res.exec_ms, res.idle_ms,
            res.exec_energy + res.idle_energy);
      }
    }
    if (gantt_ms > 0) {
      std::printf("%s",
                  slice.trace
                      .RenderGantt(result.core_tasks[static_cast<size_t>(c)],
                                   76, gantt_ms)
                      .c_str());
    }
  }
}

int Main(int argc, char** argv) {
  std::string scenario_path;
  std::string policy_id = "la_edf";
  bool all_policies = false;
  int64_t sim_ms = 10'000;
  double idle_level = 0.0;
  double gantt_ms = 0.0;
  double switch_time_ms = 0.0;
  bool abort_on_miss = false;
  bool audit = true;
  bool profile = false;
  int64_t seed = 1;
  std::string trace_out;
  int64_t cores = 0;
  std::string mp_mode;
  std::string partition;
  std::string json_out;

  FlagSet flags("rtdvs_sim: run a scenario file through the RT-DVS simulator.");
  flags.AddString("scenario", &scenario_path, "path to the scenario file (required)");
  flags.AddString("policy", &policy_id,
                  "edf|rm|static_edf|static_rm|static_rm_exact|cc_edf|cc_rm|la_edf|"
                  "interval|stat_edf; ignored when the scenario file declares "
                  "a 'policies' line (use --all-policies to override)");
  flags.AddBool("all-policies", &all_policies, "run the paper's six policies");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon (ms)");
  flags.AddDouble("idle-level", &idle_level, "halted-cycle energy ratio (0..1)");
  flags.AddDouble("gantt", &gantt_ms, "render an ASCII trace of the first N ms");
  flags.AddDouble("switch-ms", &switch_time_ms, "halt per operating-point change (ms)");
  flags.AddBool("abort-on-miss", &abort_on_miss, "drop tardy jobs at their deadlines");
  flags.AddBool("audit", &audit,
                "run SimAudit on each result (--no-audit disables); audit "
                "violations make the exit code 3");
  flags.AddBool("profile", &profile,
                "record per-span engine timing; prints a span table and adds "
                "a 'profile' section to --json output");
  flags.AddInt64("seed", &seed, "workload random seed");
  flags.AddString("trace-out", &trace_out,
                  "write the execution trace as Chrome trace-event JSON "
                  "(open in ui.perfetto.dev or chrome://tracing); clusters "
                  "export one track group per core; with --all-policies the "
                  "policy id is inserted before the extension");
  flags.AddInt64("cores", &cores,
                 "simulate an M-core cluster (overrides the scenario's "
                 "'cluster' line; 0 keeps the scenario's value, default 1)");
  flags.AddString("mp-mode", &mp_mode,
                  "partitioned|global (overrides the scenario's cluster "
                  "mode; empty keeps it)");
  flags.AddString("partition", &partition,
                  "ff|nf|bf|wf bin-packing heuristic for partitioned mode "
                  "(overrides the scenario's; empty keeps it); an "
                  "infeasible partition makes the exit code 2");
  flags.AddString("json", &json_out,
                  "write the result as rtdvs-mpsim-v1 JSON; with "
                  "--all-policies the policy id is inserted before the "
                  "extension");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (scenario_path.empty()) {
    std::fprintf(stderr, "error: --scenario is required (see --help)\n");
    return 1;
  }
  if (!all_policies && !IsValidPolicyId(policy_id)) {
    std::fprintf(stderr, "error: unknown policy '%s'\n", policy_id.c_str());
    return 1;
  }
  if (cores < 0 || cores > 64) {
    std::fprintf(stderr,
                 "error: --cores must be in 0..64 (0 keeps the scenario's value)\n");
    return 1;
  }
  if (sim_ms <= 0) {
    std::fprintf(stderr, "error: --sim-ms must be > 0\n");
    return 1;
  }
  // Negated comparisons also reject NaN.
  if (!(idle_level >= 0.0 && idle_level <= 1.0)) {
    std::fprintf(stderr, "error: --idle-level must be in [0, 1]\n");
    return 1;
  }
  if (!(switch_time_ms >= 0.0)) {
    std::fprintf(stderr, "error: --switch-ms must be >= 0\n");
    return 1;
  }
  std::optional<MpMode> mode_override;
  if (!mp_mode.empty()) {
    mode_override = ParseMpMode(mp_mode);
    if (!mode_override) {
      std::fprintf(stderr, "error: unknown --mp-mode '%s' (partitioned|global)\n",
                   mp_mode.c_str());
      return 1;
    }
  }
  std::optional<PartitionHeuristic> fit_override;
  if (!partition.empty()) {
    fit_override = ParsePartitionHeuristic(partition);
    if (!fit_override) {
      std::fprintf(stderr, "error: unknown --partition '%s' (ff|nf|bf|wf)\n",
                   partition.c_str());
      return 1;
    }
  }

  auto loaded = LoadScenarioFile(scenario_path);
  if (std::holds_alternative<std::string>(loaded)) {
    std::fprintf(stderr, "error: %s\n", std::get<std::string>(loaded).c_str());
    return 1;
  }
  const Scenario& scenario = std::get<Scenario>(loaded);

  SimOptions options;
  options.horizon_ms = static_cast<double>(sim_ms);
  options.idle_level = idle_level;
  options.switch_time_ms = switch_time_ms;
  options.miss_policy =
      abort_on_miss ? MissPolicy::kAbortJob : MissPolicy::kContinueLate;
  options.record_trace = gantt_ms > 0 || !trace_out.empty();
  options.audit = audit;
  options.profile = profile;
  options.seed = static_cast<uint64_t>(seed);

  SimRequest base = scenario.ToSimRequest(options);
  if (cores > 0) {
    base.cluster.num_cores = static_cast<int>(cores);
  }
  if (mode_override) {
    base.mode = *mode_override;
  }
  if (fit_override) {
    base.partition = *fit_override;
  }
  const int num_cores = base.cluster.num_cores;
  if (base.options.aperiodic.kind != ServerKind::kNone && num_cores > 1) {
    std::fprintf(stderr,
                 "error: aperiodic servers require a single core (the "
                 "scenario declares a server)\n");
    return 1;
  }
  if (base.policy_ids.size() > 1 &&
      base.policy_ids.size() != static_cast<size_t>(num_cores)) {
    std::fprintf(stderr,
                 "error: the scenario declares %zu per-core policies but the "
                 "cluster has %d cores\n",
                 base.policy_ids.size(), num_cores);
    return 1;
  }

  std::printf("scenario: %s\n", scenario.tasks.ToString().c_str());
  std::printf("machine:  %s\n", scenario.machine.ToString().c_str());
  if (scenario.server.kind != ServerKind::kNone) {
    std::printf("server:   P=%.4g ms, C=%.4g ms (U_s=%.3f)\n",
                scenario.server.period_ms, scenario.server.budget_ms,
                scenario.server.budget_ms / scenario.server.period_ms);
  }
  if (num_cores > 1) {
    std::printf("cluster:  %d cores, %s mode, fit=%s\n", num_cores,
                MpModeName(base.mode), PartitionHeuristicName(base.partition));
  }
  std::printf("\n");

  // One run per paper policy under --all-policies; otherwise one run with
  // the scenario's 'policies' list (possibly per-core) or --policy.
  struct RunSpec {
    std::string label;
    std::vector<std::string> policy_ids;
  };
  std::vector<RunSpec> runs;
  if (all_policies) {
    for (const auto& id : AllPaperPolicyIds()) {
      runs.push_back({id, {id}});
    }
  } else if (scenario.policy_ids.size() > 1) {
    std::string label;
    for (const auto& id : scenario.policy_ids) {
      label += (label.empty() ? "" : "+") + id;
    }
    runs.push_back({label, scenario.policy_ids});
  } else if (scenario.policy_ids.size() == 1) {
    runs.push_back({scenario.policy_ids[0], scenario.policy_ids});
  } else {
    runs.push_back({policy_id, {policy_id}});
  }

  int exit_code = 0;
  for (const auto& run : runs) {
    SimRequest request = base;
    request.policy_ids = run.policy_ids;
    auto model = scenario.MakeExecModel();
    MpSimResult result = RunClusterSimulation(request, *model);
    ProfileSnapshot prof;
    if (profile) {
      prof = Profiler::Drain();  // per-run: the profiler is process-global
    }

    if (!result.admitted) {
      std::printf("%s: infeasible partition (%s): %s\n", run.label.c_str(),
                  PartitionHeuristicName(request.partition),
                  result.partition.error.c_str());
      exit_code = std::max(exit_code, 2);
      if (!json_out.empty()) {
        const std::string path = runs.size() > 1
                                     ? InsertPolicyIntoPath(json_out, run.label)
                                     : json_out;
        if (!WriteJsonFile(MpSimResultToJson(result), path)) {
          std::fprintf(stderr, "error: cannot write JSON to %s\n", path.c_str());
          exit_code = std::max(exit_code, 1);
        }
      }
      continue;
    }

    // M = 1 keeps the classic single-core report (the slice is the
    // RunSimulation result).
    bool truncated;
    if (num_cores == 1) {
      PrintResult(result.cores[0], result.core_tasks[0], gantt_ms);
      truncated = result.cores[0].trace.truncated();
    } else {
      PrintMpResult(result, request.partition, gantt_ms);
      truncated = result.cluster.trace.truncated();
      for (const auto& slice : result.cores) {
        truncated |= slice.trace.truncated();
      }
    }
    if (profile) {
      std::printf("  profile (%zu spans):\n", prof.spans.size());
      for (const auto& [name, stats] : prof.spans) {
        std::printf(
            "    %-32s %9lld calls  total %9.3f ms  self %9.3f ms  "
            "p95 %.6f ms\n",
            name.c_str(), static_cast<long long>(stats.count), stats.total_ms,
            stats.self_ms(), stats.hist.ValueAtPercentile(95.0));
      }
    }
    if (options.record_trace && truncated) {
      std::fprintf(stderr,
                   "warning: trace for %s truncated; the Gantt/export covers "
                   "only a prefix of the run (raise "
                   "SimOptions::max_trace_segments to capture more)\n",
                   run.label.c_str());
    }
    if (!trace_out.empty()) {
      const std::string path = runs.size() > 1
                                   ? InsertPolicyIntoPath(trace_out, run.label)
                                   : trace_out;
      const bool ok =
          num_cores == 1
              ? WriteChromeTrace(result.cores[0], result.core_tasks[0],
                                 options, path)
              : WriteChromeTraceMp(result, request.tasks, options, path);
      if (ok) {
        std::printf("  trace written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write trace to %s\n", path.c_str());
        exit_code = std::max(exit_code, 1);
      }
    }
    if (!json_out.empty()) {
      const std::string path = runs.size() > 1
                                   ? InsertPolicyIntoPath(json_out, run.label)
                                   : json_out;
      JsonValue doc = MpSimResultToJson(result);
      if (profile) {
        doc.Set("profile", prof.ToJson());
      }
      if (WriteJsonFile(doc, path)) {
        std::printf("  json written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write JSON to %s\n", path.c_str());
        exit_code = std::max(exit_code, 1);
      }
    }
    // Policies that do not guarantee deadlines may miss by design; any
    // other policy in the mix makes misses reportable.
    bool hard = false;
    for (const auto& id : run.policy_ids) {
      hard |= MakePolicy(id)->guarantees_deadlines();
    }
    if (result.cluster.deadline_misses > 0 && hard) {
      exit_code = std::max(exit_code, 2);
    }
    bool audit_failed =
        result.cluster.audit.audited && !result.cluster.audit.ok();
    for (const auto& slice : result.cores) {
      audit_failed |= slice.audit.audited && !slice.audit.ok();
    }
    if (audit_failed) {
      exit_code = 3;  // accounting invariant violations trump everything
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
