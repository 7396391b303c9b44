// Utilization-sweep experiment harness (§3.2 of the paper).
//
// Every evaluation figure in the paper has the same skeleton: generate many
// random task sets at each worst-case utilization, run every policy on the
// SAME task set with the SAME actual-execution draws, and plot energy
// (absolute for Fig 9, EDF-normalized for Figs 10-13) against utilization,
// together with the theoretical lower bound. This harness implements that
// skeleton once; each bench binary configures it.
//
// Determinism note: releases are periodic and processed in task-id order, so
// the execution-time model consumes randomness identically under every
// policy. Re-seeding per (utilization, task set) therefore gives all
// policies an identical workload — paired comparison, not just equal
// distributions.
//
// Parallelism note: the grid is embarrassingly parallel at the
// (utilization, task set) granularity, and Run() shards it exactly there
// across a fixed worker pool (SweepOptions::jobs). Each shard's generator
// stream is forked from the master RNG in serial grid order BEFORE any
// shard runs, and shard outputs are merged into RunningStats in the same
// serial order, so the result is bit-identical for every jobs value — the
// paired-comparison guarantee above survives parallel execution.
#ifndef SRC_CORE_SWEEP_H_
#define SRC_CORE_SWEEP_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy_counters.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/simulator.h"
#include "src/util/profiler.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace rtdvs {

class JsonValue;

struct SweepOptions {
  // Policies to run, by factory id; defaults to the paper's six.
  std::vector<std::string> policy_ids;
  // Worst-case utilization grid; defaults to 0.05 .. 1.0 step 0.05.
  std::vector<double> utilizations;
  int num_tasks = 8;
  int tasksets_per_point = 50;
  double horizon_ms = 5000.0;
  double idle_level = 0.0;
  // Per-shard SimOptions pass-through (§4.1-style transition-latency sweeps
  // and firm-deadline ablations run on this same parallel harness).
  double switch_time_ms = 0.0;
  MissPolicy miss_policy = MissPolicy::kContinueLate;
  double energy_coefficient = 1.0;
  // Run SimAudit in every shard; violations are aggregated into
  // SweepResult::audit_violations (never aborting mid-sweep).
  bool audit = true;
  MachineSpec machine = MachineSpec::Machine0();
  // Cores per cluster. Every generated task set runs on an M-core cluster
  // through the cluster API (src/sim/mp_simulator.h); M = 1 (the default)
  // is the paper's single processor, whose cluster totals are exactly its
  // single-core result. The utilization axis stays PER-CORE — the
  // generator targets utilization * num_cores over the whole set — so
  // M = 2 at u = 0.5 means a half-loaded dual-core cluster. Partitioned
  // shards a policy's admission test rejects (M > 1) contribute no energy
  // samples and are counted in PolicyCell::admission_rejections. UUniFast
  // is single-core only (its per-task utilizations are unbounded above 1
  // when the total exceeds 1).
  int num_cores = 1;
  MpMode mp_mode = MpMode::kPartitioned;
  PartitionHeuristic mp_partition = PartitionHeuristic::kFirstFit;
  // Fresh execution-time model per run (models may keep no cross-run
  // state). Invoked concurrently from worker threads, so the factory must
  // be thread-safe; stateless lambdas capturing by value (every current
  // caller) trivially are.
  std::function<std::unique_ptr<ExecTimeModel>()> exec_model_factory =
      [] { return std::make_unique<ConstantFractionModel>(1.0); };
  // Optional non-paper generator (UUniFast ablation).
  bool use_uunifast = false;
  uint64_t seed = 20010901;  // SOSP'01
  // Worker threads for the sweep; 0 = hardware concurrency. Any value
  // produces bit-identical results (see the parallelism note above).
  int jobs = 0;
  // Optional progress hook, invoked once per completed shard with
  // (shards done, shards total). Calls are serialized by an internal mutex
  // but arrive from worker threads in completion order — keep it fast and
  // do not touch sweep state from it.
  std::function<void(int64_t done, int64_t total)> progress;
  // Collect RTDVS_PROF_SCOPE span timings during the sweep and report them
  // in SweepProfile::spans. Enables the process-global Profiler, so spans
  // from anything else running concurrently in the process fold in too —
  // one profiled sweep at a time. Off: spans cost one predicted branch.
  bool profile = false;
};

// Aggregated outcome of one policy at one utilization point.
struct PolicyCell {
  RunningStats energy;             // absolute energy units
  RunningStats normalized_energy;  // ratio to plain EDF on the same workload
  int64_t deadline_misses = 0;
  int64_t tasksets_with_misses = 0;
  int64_t audit_violations = 0;    // SimAudit violations across this cell
  // Multiprocessor sweeps only: task sets this policy's partitioned
  // admission (bin-packing) rejected; those shards add no energy samples.
  // Always 0 at num_cores == 1 and in global mode (no admission test).
  int64_t admission_rejections = 0;
  // Policy decision counters summed over the cell's simulations, merged in
  // serial grid order — bit-identical for every jobs value.
  PolicyCounters counters;
};

struct SweepRow {
  double utilization = 0;
  std::vector<PolicyCell> cells;   // parallel to options.policy_ids
  RunningStats bound;              // absolute lower bound
  RunningStats normalized_bound;   // bound / EDF energy
};

// Execution profile of one sweep run: shard timing measured by the thread
// pool around each shard task, plus grid-wide policy counter totals.
//
// The timing statistics accumulate in shard *completion* order and measure
// wall time on a loaded machine, so they vary run to run — diagnostics, not
// results. The policy counter totals are merged in serial grid order and
// are bit-identical for every jobs value, like everything else in rows.
struct SweepProfile {
  int64_t shards = 0;
  int64_t simulations = 0;  // policy runs + EDF baselines across the grid
  double mean_shard_ms = 0;
  double p50_shard_ms = 0;
  double p95_shard_ms = 0;
  double max_shard_ms = 0;
  double mean_queue_wait_ms = 0;
  double p95_queue_wait_ms = 0;
  double max_queue_wait_ms = 0;
  double shards_per_sec = 0;  // over Run()'s wall time
  double sims_per_sec = 0;
  // Grid-wide totals per policy, parallel to options.policy_ids.
  std::vector<PolicyCounters> policy_counters;
  // Grid-wide fast-path coverage (FastPathStats::MergeFrom over every
  // simulation, EDF baselines included) — benchdiff tracks coverage, not
  // just wall-clock.
  FastPathStats fastpath;
  // RTDVS_PROF_SCOPE span aggregation, drained after the pool joined.
  // Empty unless SweepOptions::profile; span counts are deterministic,
  // durations are wall-clock diagnostics.
  ProfileSnapshot spans;
};

// The complete outcome of one sweep: the data, an echo of the (resolved)
// options that produced it, and how long it took. A plain value type —
// renderers below consume it, and callers can persist or merge it freely.
struct SweepResult {
  std::vector<SweepRow> rows;
  SweepOptions options;        // as resolved by UtilizationSweep (defaults
                               // filled in, jobs echoed as actually used)
  double elapsed_wall_ms = 0;  // wall-clock time of Run()
  double elapsed_cpu_ms = 0;   // process CPU time of Run(), all threads
  // SimAudit violations over every simulation in the sweep (including the
  // EDF normalization baseline), with a capped sample of messages. Zero is
  // the only acceptable value for a healthy build.
  int64_t audit_violations = 0;
  std::vector<std::string> audit_messages;  // first few, for diagnostics
  SweepProfile profile;
};

class UtilizationSweep {
 public:
  explicit UtilizationSweep(SweepOptions options);

  // Runs the full grid. Cost: |utilizations| * tasksets_per_point *
  // (|policies|+1) simulations, spread over options.jobs workers.
  SweepResult Run() const;

  const SweepOptions& options() const { return options_; }

 private:
  SweepResult RunShards(int jobs) const;

  SweepOptions options_;
};

// Renders a result as the paper's figures do: one column per policy plus
// the bound. `normalized` selects EDF-relative values (Figs 10-13) vs
// absolute energy per second (Fig 9).
TextTable RenderEnergyTable(const SweepResult& result, bool normalized);

// A table of total deadline misses per policy/utilization; all-zero rows
// are the expected outcome for RT-DVS policies.
TextTable RenderMissTable(const SweepResult& result);

// True when any policy missed a deadline anywhere in the sweep.
bool AnyDeadlineMiss(const SweepResult& result);

// Emits the result as long-form CSV, one "<prefix>,..." line per
// (utilization, policy) plus one per-utilization "bound" row:
//   <prefix>,utilization,policy,energy,normalized,stderr_normalized,
//            deadline_misses,tasksets_with_misses
// The prefix keeps CSV greppable out of mixed stdout; energy is absolute
// units per simulated second, matching RenderEnergyTable(normalized=false).
void WriteCsv(const SweepResult& result, std::ostream& out,
              const std::string& prefix = "csv");

// The default utilization grid 0.05, 0.10, ..., 1.0.
std::vector<double> DefaultUtilizationGrid();

// A SweepOptions::progress callback rendering a single in-place updating
// stderr line: "sweep: 37/200 shards (18%)  elapsed 1.2s  eta 5.3s". Prints
// at most ~5 times/sec plus a final newline when done == total. Off by
// default everywhere; opt in with --progress.
std::function<void(int64_t done, int64_t total)> MakeStderrProgress();

// Machine-readable form of a SweepResult, used by the bench --json emitters:
//   {"config": {...},            // resolved options echo
//    "rows": [{"utilization", "bound", "normalized_bound",
//              "policies": [{"id", "energy_per_sec", "normalized",
//                            "stderr_normalized", "deadline_misses",
//                            "tasksets_with_misses", "audit_violations",
//                            "admission_rejections",
//                            "counters": {...}}, ...]}, ...],
//    "profile": {...},           // SweepProfile incl. per-policy counters
//    "audit_violations": N, "elapsed_wall_ms": ..., "elapsed_cpu_ms": ...}
JsonValue SweepResultToJson(const SweepResult& result);

}  // namespace rtdvs

#endif  // SRC_CORE_SWEEP_H_
