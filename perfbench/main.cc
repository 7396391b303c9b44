// rtdvs_perfbench: the repository benchmark program.
//
//   rtdvs_perfbench --workload=paper_sweep --seed=3 --seconds=10 --trace=0
//
// Untraced (--trace=0): runs passes of the workload through the public entry
// points (UtilizationSweep::Run, RunClusterSimulation via the sweep,
// RunSimulation) for --seconds, with a host-speed calibration slice
// (perfbench/calibration.h) about once a second between them, then checks
// correctness outside the timed phase, and prints every end-to-end metric
// as "metric <name> <value> <unit>" lines followed by one JSON result line.
//
// Traced (--trace=1): alternates each untraced pass with a traced replay of
// the same pass (perfbench/traced.h), then runs the engine probes and a
// profiler-count sample, and prints the per-layer metrics.
//
// --setup-only stops right before the first timed simulation and prints the
// set-up time; perfbench/run.py launches it several times per run to report
// a median. Exit codes: 0 all checks passed, 1 a correctness check failed,
// 2 usage or input error, 3 refused (sanitizer build).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/probes.h"
#include "perfbench/traced.h"
#include "perfbench/workloads.h"
#include "src/core/sweep.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/sim/simulator.h"
#include "src/util/json.h"
#include "src/util/profiler.h"
#include "src/util/provenance.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rtdvs::StrFormat;

// Passes per run never drop below this, whatever --seconds says.
constexpr int kMinPasses = 3;
// Worker threads: the host's core count, capped to keep the footprint small.
constexpr int kMaxWorkers = 4;
// Timed-phase time between two calibration slices.
constexpr std::chrono::seconds kCalibrationInterval{1};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  // CLOCK_MONOTONIC nanoseconds at which the launcher started this process;
  // 0 = measure set-up from main().
  int64_t launch_ns = 0;
  std::string expected_dir = "perfbench/expected";
  bool write_expected = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--setup-only" && arg != "--write-expected") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return false;
      }
      value = argv[++i];
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (arg == "--launch-ns") {
      args->launch_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else if (arg == "--expected-dir") {
      args->expected_dir = value;
    } else if (arg == "--spans-out") {
      args->spans_out = value;
    } else if (arg == "--setup-only") {
      args->setup_only = true;
    } else if (arg == "--write-expected") {
      args->write_expected = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Peak resident memory of this process image. VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
// launcher's footprint when that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string ExpectedPath(const Args& args, Workload workload) {
  return args.expected_dir + "/" + WorkloadName(workload) + ".txt";
}

bool LoadTable(const std::string& path, ResultTable* table) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string key, value;
  while (in >> key >> value) {
    table->emplace_back(key, std::strtod(value.c_str(), nullptr));
  }
  return !table->empty();
}

bool WriteTable(const std::string& path, const ResultTable& table) {
  std::ofstream out(path);
  for (const auto& [key, value] : table) {
    out << key << " " << StrFormat("%.17g", value) << "\n";
  }
  return static_cast<bool>(out);
}

// Largest |normalized energy - Table 4| over the paper's six policies on
// the worked example of Tables 2 and 3 (machine 0, 16 ms).
double PaperTable4Error() {
  const std::map<std::string, double> kPaper = {
      {"edf", 1.0},     {"static_rm", 1.0}, {"static_edf", 0.64},
      {"cc_edf", 0.52}, {"cc_rm", 0.71},    {"la_edf", 0.44}};
  const rtdvs::TaskSet tasks = rtdvs::TaskSet::PaperExample();
  std::map<std::string, double> energy;
  for (const std::string& id : rtdvs::AllPaperPolicyIds()) {
    rtdvs::TableFractionModel model({{2.0 / 3.0, 1.0 / 3.0},
                                     {1.0 / 3.0, 1.0 / 3.0},
                                     {1.0, 1.0}});
    rtdvs::SimOptions options;
    options.horizon_ms = 16.0;
    energy[id] = rtdvs::RunSimulation(tasks, rtdvs::MachineSpec::Machine0(), id,
                                      model, options)
                     .total_energy();
  }
  double error = 0;
  for (const auto& [id, paper] : kPaper) {
    error = std::max(error, std::abs(energy[id] / energy["edf"] - paper));
  }
  return error;
}

// Metrics in print order, with units.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  rtdvs::JsonValue values = rtdvs::JsonValue::Object();
  for (const Metric& metric : metrics) {
    std::cout << "metric " << metric.name << " "
              << StrFormat("%.9g", metric.value) << " " << metric.unit << "\n";
    rtdvs::JsonValue entry = rtdvs::JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    values.Set(metric.name, std::move(entry));
  }
  rtdvs::JsonValue result = rtdvs::JsonValue::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(values));
  std::cout << result.ToString() << std::endl;
}

struct Setup {
  Workload workload = Workload::kPaperSweep;
  int workers = 1;
  ResultTable expected;
  double table4_error = 0;
  rtdvs::JsonValue provenance;
};

// Set-up proper: everything from process start to the first timed pass.
// Returns an exit code, or -1 to continue.
int DoSetup(const Args& args, Setup* setup) {
  const auto workload = ParseWorkload(args.workload);
  if (!workload) {
    std::cerr << "unknown --workload '" << args.workload
              << "' (paper_sweep | mp_global | aperiodic_server)\n";
    return 2;
  }
  setup->workload = *workload;
  setup->provenance = rtdvs::ProvenanceJson();
  const std::string sanitize = setup->provenance.Get("sanitize").AsString();
  if (sanitize != "none") {
    std::cerr << "refusing to report numbers from a sanitizer build ("
              << sanitize << ")\n";
    return 3;
  }
  setup->workers = std::min(rtdvs::ThreadPool::DefaultNumThreads(), kMaxWorkers);
  setup->provenance.Set("workers", static_cast<int64_t>(setup->workers));
  if (!args.write_expected &&
      !LoadTable(ExpectedPath(args, *workload), &setup->expected)) {
    std::cerr << "cannot read the expected table "
              << ExpectedPath(args, *workload) << "\n";
    return 2;
  }
  setup->table4_error = PaperTable4Error();
  RunWarmup(*workload, setup->workers);
  return -1;
}

// Calls `run_pass(p)` for p = 0, 1, ... until `seconds` have elapsed (never
// fewer than kMinPasses passes); the last pass may run past the mark.
template <typename RunPassFn>
void RunTimedPasses(double seconds, RunPassFn&& run_pass) {
  const auto start = Clock::now();
  for (int p = 0;; ++p) {
    run_pass(p);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (p + 1 >= kMinPasses && elapsed >= seconds) {
      break;
    }
  }
}

int RunUntraced(const Args& args, const Setup& setup, double setup_s) {
  const Workload workload = setup.workload;
  std::vector<PassStats> passes;
  // Calibration slices interleaved with the passes, about one per
  // kCalibrationInterval, plus one after the last pass.
  std::vector<CalibrationSlice> slices;
  Clock::time_point last_slice;
  RunTimedPasses(args.seconds, [&](int p) {
    if (p == 0 || Clock::now() - last_slice >= kCalibrationInterval) {
      slices.push_back(RunCalibrationSlice(setup.workers));
      last_slice = Clock::now();
    }
    passes.push_back(RunPass(workload, PassSeed(args.seed, p), setup.workers));
  });
  slices.push_back(RunCalibrationSlice(setup.workers));

  // Correctness, outside the timed phase.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;
  double total_wall_ms = 0;
  double total_cpu_ms = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassStats& pass = passes[p];
    std::cout << StrFormat("pass %zu sims %lld wall_ms %.3f cpu_ms %.3f\n", p,
                           static_cast<long long>(pass.sims), pass.wall_ms,
                           pass.cpu_ms);
    attempted += pass.sims;
    failed += std::min(pass.audit_violations, pass.sims);
    messages.insert(messages.end(), pass.audit_messages.begin(),
                    pass.audit_messages.end());
    total_wall_ms += pass.wall_ms;
    total_cpu_ms += pass.cpu_ms;
  }
  // Throughput over the whole timed phase: pass costs differ with their
  // inputs, and the sum averages that variation over every pass.
  const double timed_sims = static_cast<double>(attempted);
  attempted += CheckAgainstOracle(workload, PassSeed(args.seed, 1),
                                  setup.workers, &failed, &messages);
  double drift = 0;
  if (args.write_expected) {
    if (!WriteTable(ExpectedPath(args, workload), passes[0].table)) {
      std::cerr << "cannot write " << ExpectedPath(args, workload) << "\n";
      return 2;
    }
  } else {
    drift = TableDrift(passes[0].table, setup.expected);
  }
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const bool correct = failed == 0 && drift == 0 && setup.table4_error <= 0.005;

  std::cout << "provenance " << setup.provenance.ToString() << "\n";
  std::cout << "passes " << passes.size() << " workload "
            << WorkloadName(workload) << " seed " << args.seed << "\n";
  for (const std::string& message : messages) {
    std::cout << "check: " << message << "\n";
  }
  if (drift != 0) {
    std::cout << "check: result table of the default seed drifted by "
              << drift << "\n";
  }
  // failed_sim_ratio and result_drift are 0 on a healthy build; they gate
  // `correct` rather than being compared as measurements.
  std::cout << "metric failed_sim_ratio " << StrFormat("%.9g", failed_ratio)
            << " ratio\n";
  std::cout << "metric result_drift " << StrFormat("%.9g", drift) << " ratio\n";
  // The timings are reported at reference host speed: a host running the
  // calibration slice at 0.8 times the reference speed ran the passes at
  // about 0.8 times theirs too. Wall time scales sims_per_s, CPU time
  // scales cpu_ms_per_sim.
  double slice_wall_ms = 0;
  double slice_cpu_ms = 0;
  std::cout << "calibration slices wall_ms/cpu_ms";
  for (const CalibrationSlice& slice : slices) {
    slice_wall_ms += slice.wall_ms;
    slice_cpu_ms += slice.cpu_ms;
    std::cout << StrFormat(" %.3f/%.3f", slice.wall_ms, slice.cpu_ms);
  }
  std::cout << "\n";
  const double num_slices = static_cast<double>(slices.size());
  const double wall_factor = slice_wall_ms / num_slices / kReferenceSliceMs;
  const double cpu_factor = slice_cpu_ms / num_slices / kReferenceSliceMs;
  const double raw_sims_per_s = timed_sims / (total_wall_ms / 1e3);
  const double raw_cpu_ms_per_sim = total_cpu_ms / timed_sims;
  std::cout << "metric host_wall_factor " << StrFormat("%.9g", wall_factor)
            << " ratio\n";
  std::cout << "metric host_cpu_factor " << StrFormat("%.9g", cpu_factor)
            << " ratio\n";
  std::cout << "metric raw_sims_per_s " << StrFormat("%.9g", raw_sims_per_s)
            << " 1/s\n";
  std::cout << "metric raw_cpu_ms_per_sim "
            << StrFormat("%.9g", raw_cpu_ms_per_sim) << " ms\n";
  PrintResult(correct, attempted, failed,
              {{"sims_per_s", raw_sims_per_s * wall_factor, "1/s"},
               {"cpu_ms_per_sim", raw_cpu_ms_per_sim / cpu_factor, "ms"},
               {"peak_rss_mb", PeakRssMb(), "MB"},
               {"setup_s", setup_s, "s"},
               {"paper_table4_err", setup.table4_error, "ratio"}});
  return correct ? 0 : 1;
}

// Deterministic span counts from the existing profiler, per simulation, on
// a small sample of the workload (the profiler inflates durations ~4x, so
// only its counts are used).
std::map<std::string, double> ProfilerCountsPerSim(Workload workload,
                                                   uint64_t seed, int workers) {
  rtdvs::ProfileSnapshot snapshot;
  double sims = 0;
  if (workload == Workload::kAperiodicServer) {
    rtdvs::Profiler::Reset();
    for (const ServerSet& set : GenerateServerSets(seed, 4)) {
      for (const ServerConfig& config : ServerConfigs()) {
        rtdvs::SimOptions options =
            ServerSimOptions(config, set.run_seed, /*audit=*/true);
        options.profile = true;
        for (const std::string& id : ServerPolicies()) {
          rtdvs::UniformFractionModel model(0.0, 1.0);
          rtdvs::RunSimulation(set.tasks, rtdvs::MachineSpec::Machine0(), id,
                               model, options);
          sims += 1;
        }
      }
    }
    snapshot = rtdvs::Profiler::Drain();
  } else {
    rtdvs::SweepOptions options = SweepOptionsFor(workload, seed, workers);
    options.tasksets_per_point = 1;
    options.profile = true;
    const rtdvs::SweepResult result = rtdvs::UtilizationSweep(options).Run();
    snapshot = result.profile.spans;
    sims = static_cast<double>(result.profile.simulations);
  }
  rtdvs::Profiler::Disable();
  rtdvs::Profiler::Reset();
  std::map<std::string, double> per_sim;
  for (const auto& [name, stats] : snapshot.spans) {
    per_sim[name] = static_cast<double>(stats.count) / sims;
  }
  return per_sim;
}

int RunTraced(const Args& args, const Setup& setup) {
  const Workload workload = setup.workload;
  std::vector<PassStats> untraced;
  std::vector<TracedPass> traced;
  double trace_drift = 0;
  RunTimedPasses(args.seconds, [&](int p) {
    const uint64_t seed = PassSeed(args.seed, p);
    untraced.push_back(RunPass(workload, seed, setup.workers));
    traced.push_back(RunTracedPass(workload, seed, setup.workers));
    trace_drift = std::max(
        trace_drift, TableDrift(traced.back().stats.table, untraced.back().table));
  });
  const double default_drift = TableDrift(untraced[0].table, setup.expected);

  // Callback cost of the paper policies this workload does not sweep, from
  // traced runs of them on a sample of the workload's own shards.
  const std::vector<std::string> swept = WorkloadPolicies(workload);
  std::vector<std::string> unswept;
  for (const std::string& id : rtdvs::AllPaperPolicyIds()) {
    if (std::find(swept.begin(), swept.end(), id) == swept.end()) {
      unswept.push_back(id);
    }
  }
  std::vector<TracedPass> samples;
  if (!unswept.empty()) {
    samples.push_back(RunTracedPolicySample(
        workload, PassSeed(args.seed, 0), setup.workers, unswept, 8));
  }

  const EngineProbes probes = RunEngineProbes(workload, args.seed);
  const std::map<std::string, double> counts =
      ProfilerCountsPerSim(workload, PassSeed(args.seed, 0), setup.workers);
  auto count = [&counts](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };

  // Sums over every traced simulation of the main passes.
  double sims = 0, shards = 0, generate_ns = 0, run_ns = 0, dvs_ns = 0,
         draw_ns = 0, audit_ns = 0, simulated_ms = 0, idle_skipped_ms = 0;
  double callbacks = 0, draws = 0, steps = 0, idle_skips = 0, releases = 0,
         preemptions = 0, switches = 0, migrations = 0, hp_replayed = 0,
         served = 0;
  int64_t violations = 0;
  std::map<std::string, std::pair<double, double>> per_policy;  // ns, calls
  for (const TracedPass& pass : traced) {
    violations += pass.stats.audit_violations;
    for (const ShardSpan& shard : pass.shards) {
      shards += 1;
      generate_ns += shard.generate_ns;
      for (const SimSpan& sim : shard.sims) {
        sims += 1;
        run_ns += sim.run_ns;
        dvs_ns += sim.dvs_ns;
        draw_ns += sim.draw_ns;
        audit_ns += sim.audit_ns;
        callbacks += static_cast<double>(sim.callbacks);
        draws += static_cast<double>(sim.draws);
        steps += static_cast<double>(sim.steps);
        idle_skips += static_cast<double>(sim.idle_skips);
        idle_skipped_ms += sim.idle_skipped_ms;
        simulated_ms += sim.simulated_ms;
        releases += static_cast<double>(sim.releases);
        preemptions += static_cast<double>(sim.preemptions);
        switches += static_cast<double>(sim.speed_switches);
        migrations += static_cast<double>(sim.migrations);
        hp_replayed += static_cast<double>(sim.hyperperiod_cycles_replayed);
        served += static_cast<double>(sim.aperiodic_served);
      }
    }
  }
  for (const auto& passes : {&traced, &samples}) {
    for (const TracedPass& pass : *passes) {
      for (const ShardSpan& shard : pass.shards) {
        for (const SimSpan& sim : shard.sims) {
          per_policy[sim.policy].first += sim.dvs_ns;
          per_policy[sim.policy].second += static_cast<double>(sim.callbacks);
        }
      }
    }
  }
  // The global cluster engine bypasses the Simulator loop, so its steps are
  // its dispatch rounds, counted by the profiler sample.
  double steps_per_sim = steps / sims;
  if (steps == 0) {
    steps_per_sim = count("mp/global/dispatch");
  }

  std::vector<double> shard_p50, shard_p95, queue_p95, busy, overhead;
  for (size_t p = 0; p < untraced.size(); ++p) {
    const PassStats& pass = untraced[p];
    shard_p50.push_back(pass.shard_p50_ms);
    shard_p95.push_back(pass.shard_p95_ms);
    queue_p95.push_back(pass.queue_wait_p95_ms);
    busy.push_back(pass.shard_sum_ms /
                   (pass.wall_ms * static_cast<double>(setup.workers)));
    overhead.push_back(traced[p].stats.wall_ms / pass.wall_ms - 1.0);
  }

  std::vector<Metric> metrics = {
      {"core.shard_ms.p50", Median(shard_p50), "ms"},
      {"core.shard_ms.p95", Median(shard_p95), "ms"},
      {"util.pool.queue_wait_ms.p95", Median(queue_p95), "ms"},
      {"util.pool.busy_frac", Median(busy), "ratio"},
      {"util.pool.workers", static_cast<double>(setup.workers), "count"},
      {"rt.generate_us", generate_ns / shards / 1e3, "us"},
      {"rt.exec_draws", draws / sims, "count"},
      {"rt.exec_draw_ns", draw_ns / draws, "ns"},
      {"rt.aperiodic.served", served / sims, "count"},
      {"dvs.callbacks", callbacks / sims, "count"},
      {"dvs.self_frac", dvs_ns / run_ns, "ratio"},
  };
  for (const std::string& id : rtdvs::AllPaperPolicyIds()) {
    const auto& [ns, calls] = per_policy[id];
    metrics.push_back({"dvs." + id + ".ns_per_callback", ns / calls, "ns"});
  }
  const std::vector<Metric> sim_metrics = {
      {"sim.run_us", run_ns / sims / 1e3, "us"},
      {"sim.loop_self_us", (run_ns - dvs_ns - draw_ns) / sims / 1e3, "us"},
      {"sim.steps", steps_per_sim, "count"},
      {"sim.callback_rounds", count("sim/policy/callbacks"), "count"},
      {"sim.ns_per_step", run_ns / sims / steps_per_sim, "ns"},
      {"sim.idle_skips", idle_skips / sims, "count"},
      {"sim.idle_skip_share", idle_skipped_ms / simulated_ms, "ratio"},
      {"sim.audit_us", audit_ns / sims / 1e3, "us"},
      {"sim.releases", releases / sims, "count"},
      {"sim.preemptions", preemptions / sims, "count"},
      {"sim.speed_switches", switches / sims, "count"},
      {"sim.mp.migrations", migrations / sims, "count"},
      {"sim.hyperperiod_cycles_replayed", hp_replayed / sims, "count"},
      {"engine.picks", count("engine/ready_queue/pick"), "count"},
      {"engine.segments",
       count("engine/energy/record_execution") +
           count("engine/energy/record_idle") +
           count("engine/energy/record_switch_halt"),
       "count"},
      {"engine.pick_top_k", count("engine/ready_queue/pick_top_k"), "count"},
      {"engine.event_queue.ops",
       count("engine/event_queue/push") + count("engine/event_queue/pop"),
       "count"},
      {"engine.pick_ns.n15", probes.pick_ns_n15, "ns"},
      {"engine.context_build_ns.n5", probes.context_build_ns_n5, "ns"},
      {"engine.context_build_ns.n15", probes.context_build_ns_n15, "ns"},
      {"engine.segment_ns", probes.segment_ns, "ns"},
      {"engine.event_queue_op_ns", probes.event_queue_op_ns, "ns"},
      {"trace.overhead_frac", Median(overhead), "ratio"},
  };
  metrics.insert(metrics.end(), sim_metrics.begin(), sim_metrics.end());

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    WriteSpans(traced, workload, out);
    WriteSpans(samples, workload, out);
  }
  const bool correct = trace_drift == 0 && default_drift == 0 &&
                       violations == 0 && setup.table4_error <= 0.005;
  std::cout << "provenance " << setup.provenance.ToString() << "\n";
  std::cout << "passes " << traced.size() << " workload "
            << WorkloadName(workload) << " seed " << args.seed << "\n";
  std::cout << "check: traced vs untraced drift " << trace_drift
            << ", default-seed drift " << default_drift << ", audit violations "
            << violations << "\n";
  PrintResult(correct, static_cast<int64_t>(sims),
              std::min<int64_t>(violations, static_cast<int64_t>(sims)),
              metrics);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const auto main_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock the launcher read.
  const Clock::time_point launch =
      args.launch_ns > 0
          ? Clock::time_point(std::chrono::nanoseconds(args.launch_ns))
          : main_start;
  Setup setup;
  if (const int code = DoSetup(args, &setup); code >= 0) {
    return code;
  }
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - launch).count();
  if (args.setup_only) {
    std::cout << "setup_s " << StrFormat("%.9g", setup_s) << std::endl;
    return 0;
  }
  return args.trace != 0 ? RunTraced(args, setup)
                         : RunUntraced(args, setup, setup_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
