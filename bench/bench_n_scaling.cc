// Per-step simulator cost vs task count (ROADMAP item 3's acceptance bench).
//
// §2.6: every RT-DVS algorithm needs O(n) work per scheduling point. This
// bench shows how the whole simulator scales instead: for n = 5, 10, 15, 30
// and 60 tasks on machine 0 with uniform demand (actual work uniform in
// (0, WCET], Figure 13), each of the six paper policies runs the same batch
// of task sets single-threaded, and the bench reports
//   * steps and callback rounds: exact per-batch counts (deterministic);
//   * jobs_per_step: jobs the step loop's job loops visited per step
//     (FastPathStats::jobs_visited; deterministic, so identical on every
//     host);
//   * ns_per_step: best-of-`repeat` batch wall time over the step count;
//   * ns_per_callback_round: time inside the context build + policy
//     callback block per round, from a separate profiled run of the batch
//     (the profiler's sim/policy/callbacks span; two clock reads per round
//     included).
// A flat ns_per_step curve means a step costs what changed at it, not n.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/simulator.h"
#include "src/util/flags.h"
#include "src/util/profiler.h"
#include "src/util/random.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace rtdvs {
namespace {

struct BatchResult {
  int64_t sims = 0;
  int64_t steps = 0;
  int64_t jobs_visited = 0;
  int64_t audit_violations = 0;
  double total_energy = 0;
};

BatchResult RunBatch(const std::vector<TaskSet>& sets, const MachineSpec& machine,
                     const std::string& policy_id, double horizon_ms,
                     bool profile) {
  BatchResult batch;
  for (size_t i = 0; i < sets.size(); ++i) {
    UniformFractionModel model(0.0, 1.0);
    SimOptions options;
    options.horizon_ms = horizon_ms;
    options.seed = 1 + i;
    options.profile = profile;
    const SimResult result =
        RunSimulation(sets[i], machine, policy_id, model, options);
    ++batch.sims;
    batch.steps += result.fastpath.steps;
    batch.jobs_visited += result.fastpath.jobs_visited;
    batch.audit_violations += static_cast<int64_t>(result.audit.violations.size());
    batch.total_energy += result.total_energy();
  }
  return batch;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) {
  int64_t tasksets = 10;
  int64_t sim_ms = 2000;
  int64_t repeat = 3;
  bool quick = false;
  std::string json_path;
  rtdvs::FlagSet flags(
      "Simulator cost per step and per callback round vs task count "
      "(n = 5/10/15/30/60, machine 0, uniform demand, single-threaded).");
  flags.AddInt64("tasksets", &tasksets, "task sets per utilization point");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddInt64("repeat", &repeat,
                 "timed repeats per batch; the best-of is reported");
  flags.AddBool("quick", &quick, "small CI-friendly configuration");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv) || !rtdvs::ValidRunCounts(tasksets, sim_ms)) {
    return 1;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1\n");
    return 1;
  }
  if (quick) {
    tasksets = 2;
    sim_ms = 1000;
  }
  const std::vector<int> task_counts = {5, 10, 15, 30, 60};
  const std::vector<double> utilizations = {0.3, 0.5, 0.7, 0.9};
  const rtdvs::MachineSpec machine = rtdvs::MachineSpec::Machine0();

  rtdvs::BenchJson json("n_scaling");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Config("repeat", repeat);
  json.Config("quick", quick);

  std::cout << "machine: " << machine.ToString() << "\n";
  std::cout << rtdvs::StrFormat(
      "%lld task sets at each U in {0.3, 0.5, 0.7, 0.9}, horizon %lld ms, "
      "uniform demand, single-threaded, best of %lld\n\n",
      static_cast<long long>(tasksets), static_cast<long long>(sim_ms),
      static_cast<long long>(repeat));
  rtdvs::TextTable table({"n", "policy", "steps", "callback_rounds",
                          "jobs_per_step", "ns_per_step",
                          "ns_per_callback_round"});
  int64_t audit_violations = 0;
  for (int n : task_counts) {
    rtdvs::TaskSetGeneratorOptions generator_options;
    generator_options.num_tasks = n;
    std::vector<rtdvs::TaskSet> sets;
    rtdvs::Pcg32 rng(static_cast<uint64_t>(1000 + n));
    for (double u : utilizations) {
      generator_options.target_utilization = u;
      const rtdvs::TaskSetGenerator generator(generator_options);
      for (int64_t s = 0; s < tasksets; ++s) {
        sets.push_back(generator.Generate(rng));
      }
    }
    for (const std::string& policy_id : rtdvs::AllPaperPolicyIds()) {
      double best_ns = std::numeric_limits<double>::infinity();
      rtdvs::BatchResult batch;
      for (int64_t r = 0; r < repeat; ++r) {
        const auto start = std::chrono::steady_clock::now();
        batch = rtdvs::RunBatch(sets, machine, policy_id,
                                static_cast<double>(sim_ms), false);
        const std::chrono::duration<double, std::nano> elapsed =
            std::chrono::steady_clock::now() - start;
        best_ns = std::min(best_ns, elapsed.count());
      }
      rtdvs::Profiler::Reset();
      rtdvs::RunBatch(sets, machine, policy_id, static_cast<double>(sim_ms), true);
      rtdvs::Profiler::Disable();
      const rtdvs::ProfileSnapshot profile = rtdvs::Profiler::Drain();
      const auto span = profile.spans.find("sim/policy/callbacks");
      const int64_t rounds = span == profile.spans.end() ? 0 : span->second.count;
      const double callback_ns =
          span == profile.spans.end() ? 0.0 : span->second.total_ms * 1e6;

      const double ns_per_step = best_ns / static_cast<double>(batch.steps);
      const double jobs_per_step = static_cast<double>(batch.jobs_visited) /
                                   static_cast<double>(batch.steps);
      const double ns_per_round =
          rounds > 0 ? callback_ns / static_cast<double>(rounds) : 0.0;
      audit_violations += batch.audit_violations;
      table.AddRow({std::to_string(n), policy_id, std::to_string(batch.steps),
                    std::to_string(rounds),
                    rtdvs::StrFormat("%.2f", jobs_per_step),
                    rtdvs::StrFormat("%.1f", ns_per_step),
                    rtdvs::StrFormat("%.1f", ns_per_round)});
      rtdvs::JsonValue entry = rtdvs::JsonValue::Object();
      entry.Set("sims", batch.sims);
      entry.Set("steps", batch.steps);
      entry.Set("callback_rounds", rounds);
      entry.Set("jobs_visited", batch.jobs_visited);
      entry.Set("jobs_per_step", jobs_per_step);
      entry.Set("ns_per_step", ns_per_step);
      entry.Set("ns_per_callback_round", ns_per_round);
      entry.Set("total_energy", batch.total_energy);
      json.AddValues(rtdvs::StrFormat("n=%d %s", n, policy_id.c_str()),
                     std::move(entry));
    }
  }
  table.Print(std::cout);
  if (audit_violations > 0) {
    std::cout << rtdvs::StrFormat("audit: %lld violation(s)\n",
                                  static_cast<long long>(audit_violations));
  }
  if (!json.WriteIfRequested(json_path)) {
    return 1;
  }
  return audit_violations > 0 ? 1 : 0;
}
