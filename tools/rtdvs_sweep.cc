// rtdvs-sweep: generate custom paper-style utilization sweeps from the
// command line — the generalization of the Figure 9-13 benches.
//
//   ./rtdvs-sweep --machine machine2 --demand uniform --tasksets 100
//   ./rtdvs-sweep --policies edf,cc_edf,la_edf --num-tasks 12
//       --utils 0.1:1.0:0.1 --idle-level 0.1 --normalized  (one line)
//   ./rtdvs-sweep --cores 4 --mp-mode partitioned --partition wf
//
// With --cores M > 1 the utilization axis stays PER-CORE: each point
// generates sets targeting U = u * M and runs them on the M-core cluster,
// normalizing against cluster-EDF in the same mode. Infeasible partitioned
// sets count as admission rejections and contribute no samples.
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>

#include "src/core/scenario.h"
#include "src/cpu/machine_spec.h"
#include "src/core/sweep.h"
#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

// Parses "lo:hi:step" into a grid; empty string -> the default grid.
bool ParseUtilGrid(const std::string& spec, std::vector<double>* grid) {
  if (spec.empty()) {
    return true;
  }
  auto parts = Split(spec, ':');
  if (parts.size() != 3) {
    return false;
  }
  auto lo = ParseDouble(parts[0]);
  auto hi = ParseDouble(parts[1]);
  auto step = ParseDouble(parts[2]);
  if (!lo || !hi || !step || *lo <= 0 || *hi > 1.0 + 1e-12 || *step <= 0 ||
      *lo > *hi) {
    return false;
  }
  // Generate by integer index: accumulating `u += step` compounds rounding
  // error and can drop the final point (0.1:1.0:0.1 ended at 0.9).
  for (int k = 0;; ++k) {
    double u = *lo + static_cast<double>(k) * *step;
    if (u > *hi + 1e-9) {
      break;
    }
    grid->push_back(std::min(u, 1.0));
  }
  return !grid->empty();
}

int Main(int argc, char** argv) {
  std::string policies = "edf,static_rm,static_edf,cc_edf,cc_rm,la_edf";
  std::string machine = "machine0";
  std::string demand = "c=1";
  std::string utils;
  int64_t num_tasks = 8;
  int64_t tasksets = 50;
  int64_t sim_ms = 5000;
  int64_t seed = 20010901;
  int64_t jobs = 0;
  double idle_level = 0.0;
  double switch_time_ms = 0.0;
  bool abort_on_miss = false;
  bool normalized = true;
  bool uunifast = false;
  bool misses = false;
  bool audit = true;
  bool progress = false;
  bool profile = false;
  std::string json_path;
  int64_t cores = 1;
  std::string mp_mode = "partitioned";
  std::string partition = "ff";

  FlagSet flags("rtdvs-sweep: custom energy-vs-utilization sweeps.");
  flags.AddString("policies", &policies, "comma-separated policy ids");
  flags.AddString("machine", &machine, kMachineNames);
  flags.AddString("demand", &demand,
                  "actual-demand spec: c=<f> | uniform[=lo,hi] | bimodal=<t>,<p>");
  flags.AddString("utils", &utils, "utilization grid lo:hi:step (default 0.05:1:0.05)");
  flags.AddInt64("num-tasks", &num_tasks, "tasks per random set");
  flags.AddInt64("tasksets", &tasksets, "task sets per utilization point");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddInt64("seed", &seed, "master seed");
  flags.AddInt64("jobs", &jobs,
                 "sweep worker threads (0 = hardware concurrency); results "
                 "are identical for every value");
  flags.AddDouble("idle-level", &idle_level, "halted-cycle energy ratio");
  flags.AddDouble("switch-ms", &switch_time_ms,
                  "halt per operating-point change (ms), §4.1 transition cost");
  flags.AddBool("abort-on-miss", &abort_on_miss, "drop tardy jobs at their deadlines");
  flags.AddBool("normalized", &normalized, "normalize energies to plain EDF");
  flags.AddBool("uunifast", &uunifast, "use the UUniFast generator");
  flags.AddBool("misses", &misses, "also print the deadline-miss table");
  flags.AddBool("audit", &audit,
                "run SimAudit in every shard (--no-audit disables); audit "
                "violations make the exit code 3");
  flags.AddBool("progress", &progress,
                "live progress line on stderr (shards done, elapsed, ETA)");
  flags.AddBool("profile", &profile,
                "record per-span engine timing into the profile section "
                "(printed per span; included in --json output)");
  flags.AddString("json", &json_path,
                  "write the full SweepResult (rows, policy counters, "
                  "profile) as JSON to this path");
  flags.AddInt64("cores", &cores,
                 "sweep an M-core cluster (utilization axis stays per-core; "
                 "1 = the classic single-core sweep)");
  flags.AddString("mp-mode", &mp_mode,
                  "partitioned|global cluster scheduling (with --cores > 1)");
  flags.AddString("partition", &partition,
                  "ff|nf|bf|wf bin-packing heuristic for partitioned mode");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (jobs < 0) {
    std::fprintf(stderr, "error: --jobs must be >= 0 (0 = hardware concurrency)\n");
    return 1;
  }
  if (cores < 1 || cores > 64) {
    std::fprintf(stderr, "error: --cores must be in 1..64\n");
    return 1;
  }
  // Both are stored as int.
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  if (num_tasks < 1 || num_tasks > kIntMax) {
    std::fprintf(stderr, "error: --num-tasks must be in 1..%lld\n",
                 static_cast<long long>(kIntMax));
    return 1;
  }
  if (tasksets < 1 || tasksets > kIntMax) {
    std::fprintf(stderr, "error: --tasksets must be in 1..%lld\n",
                 static_cast<long long>(kIntMax));
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
  if (uunifast && cores > 1) {
    std::fprintf(stderr,
                 "error: --uunifast is single-core only (per-task utilization "
                 "is unbounded above 1 at M > 1)\n");
    return 1;
  }
  auto parsed_mode = ParseMpMode(mp_mode);
  if (!parsed_mode) {
    std::fprintf(stderr, "error: unknown --mp-mode '%s' (partitioned|global)\n",
                 mp_mode.c_str());
    return 1;
  }
  auto parsed_fit = ParsePartitionHeuristic(partition);
  if (!parsed_fit) {
    std::fprintf(stderr, "error: unknown --partition '%s' (ff|nf|bf|wf)\n",
                 partition.c_str());
    return 1;
  }

  SweepOptions options;
  for (const auto& id : Split(policies, ',')) {
    if (!IsValidPolicyId(id)) {
      std::fprintf(stderr, "error: unknown policy '%s'\n", id.c_str());
      return 1;
    }
    options.policy_ids.push_back(id);
  }
  if (!ParseUtilGrid(utils, &options.utilizations)) {
    std::fprintf(stderr, "error: bad --utils spec '%s' (want lo:hi:step)\n",
                 utils.c_str());
    return 1;
  }
  std::optional<MachineSpec> machine_spec = MachineSpec::FindByName(machine);
  if (!machine_spec) {
    std::fprintf(stderr, "error: unknown --machine '%s' (%s)\n", machine.c_str(),
                 kMachineNames);
    return 1;
  }
  options.machine = *machine_spec;
  if (MakeDemandModel(demand) == nullptr) {
    std::fprintf(stderr, "error: bad --demand spec '%s'\n", demand.c_str());
    return 1;
  }
  options.exec_model_factory = [demand] { return MakeDemandModel(demand); };
  options.num_tasks = static_cast<int>(num_tasks);
  options.tasksets_per_point = static_cast<int>(tasksets);
  options.horizon_ms = static_cast<double>(sim_ms);
  options.idle_level = idle_level;
  options.switch_time_ms = switch_time_ms;
  options.miss_policy =
      abort_on_miss ? MissPolicy::kAbortJob : MissPolicy::kContinueLate;
  options.use_uunifast = uunifast;
  options.num_cores = static_cast<int>(cores);
  options.mp_mode = *parsed_mode;
  options.mp_partition = *parsed_fit;
  options.seed = static_cast<uint64_t>(seed);
  options.jobs = static_cast<int>(jobs);
  options.audit = audit;
  if (progress) {
    options.progress = MakeStderrProgress();
  }
  options.profile = profile;

  UtilizationSweep sweep(options);
  SweepResult result = sweep.Run();
  std::cout << "machine: " << options.machine.ToString() << "\n"
            << "demand:  " << demand << "   tasks: " << num_tasks
            << "   sets/point: " << tasksets << "   horizon: " << sim_ms << " ms\n";
  if (cores > 1) {
    std::cout << StrFormat(
        "cluster: %d cores, %s mode, fit=%s (utilization axis is per-core)\n",
        options.num_cores, MpModeName(options.mp_mode),
        PartitionHeuristicName(options.mp_partition));
  }
  std::cout << (normalized
                    ? cores > 1 ? "energy normalized to cluster EDF\n"
                                : "energy normalized to plain EDF\n"
                    : "energy (arbitrary units per simulated second)\n");
  RenderEnergyTable(result, normalized).Print(std::cout);
  if (cores > 1) {
    int64_t rejections = 0;
    for (const auto& row : result.rows) {
      for (const auto& cell : row.cells) {
        rejections += cell.admission_rejections;
      }
    }
    if (rejections > 0) {
      std::cout << StrFormat(
          "admission: %lld policy-run(s) rejected by partitioning "
          "(no samples contributed)\n",
          static_cast<long long>(rejections));
    }
  }
  WriteCsv(result, std::cout, "csv,sweep");
  if (misses) {
    std::cout << "deadline misses:\n";
    RenderMissTable(result).Print(std::cout);
  }
  if (audit) {
    if (result.audit_violations == 0) {
      std::cout << "audit: OK (every shard self-checked)\n";
    } else {
      std::cout << StrFormat("audit: %lld violation(s)\n",
                             static_cast<long long>(result.audit_violations));
      for (const auto& message : result.audit_messages) {
        std::cout << "  " << message << "\n";
      }
    }
  }
  std::cout << StrFormat("elapsed: %.0f ms wall, %.0f ms cpu (jobs=%d)\n",
                         result.elapsed_wall_ms, result.elapsed_cpu_ms,
                         result.options.jobs);
  std::cout << StrFormat(
      "profile: %lld shards (%lld sims), shard p50 %.2f ms p95 %.2f ms, "
      "%.0f sims/s\n",
      static_cast<long long>(result.profile.shards),
      static_cast<long long>(result.profile.simulations),
      result.profile.p50_shard_ms, result.profile.p95_shard_ms,
      result.profile.sims_per_sec);
  for (const auto& [name, stats] : result.profile.spans.spans) {
    std::cout << StrFormat(
        "  span %-32s %9lld calls  total %9.3f ms  self %9.3f ms  "
        "p95 %.6f ms\n",
        name.c_str(), static_cast<long long>(stats.count), stats.total_ms,
        stats.self_ms(), stats.hist.ValueAtPercentile(95.0));
  }
  if (!json_path.empty()) {
    if (!WriteJsonFile(SweepResultToJson(result), json_path)) {
      std::fprintf(stderr, "error: cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    std::cout << "json written to " << json_path << "\n";
  }
  return result.audit_violations > 0 ? 3 : 0;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
