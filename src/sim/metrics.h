// Result types produced by a simulation run.
#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/operating_point.h"
#include "src/dvs/policy_counters.h"
#include "src/engine/energy_accountant.h"  // PointResidency
#include "src/engine/trace.h"
#include "src/rt/aperiodic.h"
#include "src/rt/scheduler.h"
#include "src/sim/audit.h"

namespace rtdvs {

// Per-task outcome statistics.
struct TaskStats {
  int64_t releases = 0;
  int64_t completions = 0;
  int64_t deadline_misses = 0;
  // Jobs abandoned at their deadline under MissPolicy::kAbortJob.
  int64_t aborted = 0;
  // Jobs still in flight when the horizon cut the run.
  int64_t unfinished = 0;
  double executed_work = 0;
  double max_response_ms = 0;
  double total_response_ms = 0;  // over completed invocations

  double MeanResponseMs() const {
    return completions == 0 ? 0.0 : total_response_ms / static_cast<double>(completions);
  }
};

// How the simulator spent its stepping budget. Pure execution diagnostics:
// the differential oracle and the other equality helpers deliberately
// exclude them, since the reference engine steps differently.
struct FastPathStats {
  // Event-loop iterations (scheduling points), idle skips included.
  int64_t steps = 0;
  // Steps that found no job and integrated the whole interval to the next
  // release / arrival / timer wakeup as one idle segment, and the simulated
  // time they covered.
  int64_t idle_skips = 0;
  double idle_skipped_ms = 0;
  // Jobs the step loop's job loops visited: the pick, the completion and
  // miss checks and the compaction, each bumped once per loop by the
  // loop's length. Deterministic, so identical on every host.
  int64_t jobs_visited = 0;
  // PolicyContext builds: the one ahead of OnStart, one per callback
  // round, and at M > 1 one per step whose newly idle cores get OnIdle. A
  // run whose policies all ignore events (DvsPolicy::observes_events)
  // builds exactly once. Deterministic.
  int64_t context_builds = 0;
  // OnTaskRelease/OnTaskCompletion calls the policies ran. In global mode a
  // replica group's followers apply their leader's effects instead
  // (DvsPolicy::IsReplicaOf) and are not counted. Deterministic.
  int64_t event_callbacks = 0;
  // Always 0. No caller in src/; kept because perfbench/ overrides or reads it.
  int64_t hyperperiod_cycles_replayed = 0;

  // Accumulates the counters — sweep/bench aggregation across many
  // simulations.
  void MergeFrom(const FastPathStats& other) {
    steps += other.steps;
    idle_skips += other.idle_skips;
    idle_skipped_ms += other.idle_skipped_ms;
    jobs_visited += other.jobs_visited;
    context_builds += other.context_builds;
    event_callbacks += other.event_callbacks;
  }
};

// JSON view of the counters. Defined in simulator.cc.
class JsonValue;
JsonValue FastPathStatsToJson(const FastPathStats& stats);

struct SimResult {
  std::string policy_name;
  SchedulerKind scheduler = SchedulerKind::kEdf;
  double horizon_ms = 0;

  double exec_energy = 0;
  double idle_energy = 0;
  double total_energy() const { return exec_energy + idle_energy; }

  double busy_ms = 0;
  double idle_ms = 0;
  double switching_ms = 0;  // halted during voltage/frequency transitions
  double total_work_executed = 0;

  int64_t releases = 0;
  int64_t completions = 0;
  int64_t deadline_misses = 0;
  // Conservation counters: every released job is eventually completed,
  // aborted (MissPolicy::kAbortJob), or still in flight at the horizon.
  int64_t aborted = 0;
  int64_t unfinished_at_horizon = 0;
  // Invocations whose drawn actual work exceeded the task's WCET (only
  // possible with overrun-permitting exec models, e.g. ColdStartModel with
  // allow_overrun); voids the schedulability guarantee for the run.
  int64_t wcet_overruns = 0;
  int64_t speed_switches = 0;
  int64_t preemptions = 0;

  // Decision counters reported by the DVS policy itself (requests vs actual
  // transitions, slack reclaimed, work deferred, utilization samples);
  // copied from DvsPolicy::counters() at the end of the run.
  PolicyCounters policy_counters;

  // §3.2 theoretical bound for this run's actual workload over the horizon.
  double lower_bound_energy = 0;

  std::vector<PointResidency> residency;
  std::vector<TaskStats> task_stats;
  Trace trace;  // populated only when SimOptions::record_trace

  // Aperiodic server outcome (valid when server_task_id >= 0).
  int server_task_id = -1;
  AperiodicStats aperiodic;

  // SimAudit outcome; audit.audited is false when SimOptions::audit was off.
  AuditReport audit;

  // Fast-path coverage accounting (see FastPathStats): excluded from result
  // equality on purpose.
  FastPathStats fastpath;

  // Short single-line summary for logs and examples.
  std::string Summary() const;
};

}  // namespace rtdvs

#endif  // SRC_SIM_METRICS_H_
