// Event-driven simulator for DVS-capable hardware with real-time scheduling
// (§3.1 of the paper). Execution is modelled by counting work (cycles
// normalized to milliseconds at maximum frequency); the only events are task
// releases, task completions, deadline checks, policy timer wakeups, and the
// horizon — between events the processor state is constant, so energy
// integrates in closed form.
//
// The simulator is a thin driver over the shared engine components
// (src/engine/): an EventQueue schedules releases/deadlines/policy timers
// in O(log n) instead of rescanning every job per event, a ReadyQueue picks
// the running job under the active Scheduler, a ContextBuilder derives the
// PolicyContext, a ModelEnergyAccountant integrates time/energy per
// segment, and a ModeledSpeedController services policy speed requests.
// The kernel (src/kernel/) composes the same ContextBuilder /
// EnergyAccountant / SpeedController seams on its register-level hardware.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/context_builder.h"
#include "src/engine/energy_accountant.h"
#include "src/engine/event_queue.h"
#include "src/engine/ready_queue.h"
#include "src/engine/speed_controller.h"
#include "src/engine/trace_sink.h"
#include "src/rt/aperiodic.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/job.h"
#include "src/rt/job_pool.h"
#include "src/rt/scheduler.h"
#include "src/rt/task.h"
#include "src/sim/hyperperiod.h"
#include "src/sim/metrics.h"

namespace rtdvs {

// What happens to a job whose deadline passes before it completes.
enum class MissPolicy {
  // Keep executing; the tardy job finishes late (Unix-like behaviour).
  kContinueLate,
  // Abandon remaining work at the deadline (firm real-time semantics).
  kAbortJob,
};

// Analytic fast paths (ROADMAP item 2). Both default on: every fast path is
// bit-identical to the stepped path by construction — forced-off runs exist
// for the equivalence suite (tests/sim/fastpath_test.cc) and for debugging,
// not because results differ. See DESIGN.md "Hot-path fast paths" for when
// each path disarms itself at runtime.
struct FastPathOptions {
  // Closed-form idle-interval skipping: with no runnable job (and no
  // aperiodic server), jump straight to the next release/timer wakeup and
  // charge the idle time/energy as one EnergyAccountant segment.
  bool idle_skip = true;
  // Hyperperiod memoization: once the scheduler+policy decision sequence
  // over one whole hyperperiod is verified to repeat exactly, fast-forward
  // the remaining whole cycles by replaying the recorded decisions (the
  // same segment arithmetic, minus scheduling and policy work). Arms only
  // for stationary exec models, non-timer-driven policies, no trace, no
  // server; see Simulator::HyperperiodGate.
  bool hyperperiod = true;
};

struct SimOptions {
  double horizon_ms = 10'000.0;
  // Ratio of halted-cycle to active-cycle energy (§3.1 "idle level").
  double idle_level = 0.0;
  // Energy units per work-unit at 1 V; scales all reported energies.
  double energy_coefficient = 1.0;
  MissPolicy miss_policy = MissPolicy::kContinueLate;
  // Wall time the processor halts on every operating-point change (§4.1
  // measured ~0.4 ms for voltage transitions). 0 = ideal instantaneous.
  double switch_time_ms = 0.0;
  bool record_trace = false;
  size_t max_trace_segments = 1u << 20;
  // Run SimAudit over the finished result (SimResult::audit). On by default
  // so every test and every sweep shard self-checks; violations are
  // reported in the result, never aborted on (see src/sim/audit.h).
  bool audit = true;
  // Seed for the execution-time model's randomness.
  uint64_t seed = 1;
  // Analytic fast paths; results are bit-identical for every setting
  // (SimResult::fastpath records the coverage).
  FastPathOptions fast_paths;
  // Optional arena recycling the job vector's heap block across runs on one
  // thread (src/rt/job_pool.h); the sweep runner wires each worker thread's
  // pool in. Null = plain per-run allocation. Results are identical either
  // way (capacity is not observable).
  JobPool* job_pool = nullptr;
  // Turn on the process-global RTDVS_PROF_SCOPE profiler for this run; span
  // aggregates are flushed at the end of Run() and surface via
  // Profiler::Drain() (rtdvs-sim --profile wires this). Off: each span
  // costs one predicted branch.
  bool profile = false;
  // Optional aperiodic server (footnote 1 of the paper): when kind is not
  // kNone, the simulator appends a periodic "server" task of the given
  // period/budget to the task set and serves the configured arrival stream
  // through it. Schedulers, schedulability tests and DVS policies see the
  // server as an ordinary periodic task, so deadline guarantees for the
  // real periodic tasks are preserved.
  AperiodicServerConfig aperiodic;
};

class Simulator {
 public:
  // `policy` and `exec_model` must outlive Run(); they are mutated (policies
  // keep bookkeeping, models consume randomness).
  Simulator(TaskSet tasks, MachineSpec machine, DvsPolicy* policy,
            ExecTimeModel* exec_model, SimOptions options);
  ~Simulator();

  // Runs the full horizon and returns the metrics. May be called once.
  SimResult Run();

 private:
  struct TaskState {
    double next_release_ms = 0;
    int64_t next_invocation = 0;
    double cumulative_executed = 0;
    double last_actual_work = 0;  // defaults to C_i
  };

  // The event loop, instantiated once per (host mode, scheduler kind).
  // kServer == true is the aperiodic-server configuration: it keeps the
  // event queue (server deadlines track no release) and the per-step server
  // bookkeeping. kServer == false is the pure-periodic configuration every
  // sweep and bench runs: the only queued events would be releases and the
  // policy timer, both of which derive from O(num_tasks) state the
  // simulator already owns — so this instantiation runs queue-free (next
  // event = min over task next_release, plus the single pending wakeup) and
  // hosts the idle-skip and hyperperiod fast paths. kKind statically
  // selects the priority comparator (src/rt/scheduler.h) so the per-step
  // pick runs with zero virtual dispatch; RM compares through periods_.
  template <bool kServer, SchedulerKind kKind>
  void RunLoop();
  // Evaluates the hyperperiod fast path's static gate (stationary exec
  // model, time-skippable policy, all phases zero, µs-grid periods with a
  // bounded LCM, horizon covering warmup + two recorded windows + at least
  // one replayable window) and arms hp_ when it passes; otherwise records
  // the first failing condition in result_.fastpath.hyperperiod_gate.
  void ArmHyperperiod();
  // Queue-free mode: earliest pending periodic release across all tasks.
  double NextPeriodicReleaseMs() const;
  // Queue-free mode: fills due_releases_ (task-id order, the same order the
  // event-queue path produces after its sort) with every task whose next
  // release is due at now_.
  void CollectDueReleases();
  // Creates all invocations due at `now` for the tasks in due_releases_
  // (set by ConsumeDueEvents), queueing each new job's deadline event and
  // the task's next release event.
  void ReleaseDueJobs(double now, std::vector<int>* released);
  // Refreshes ctx_ for the tasks in dirty_ and clears it.
  void BuildContext(double now);
  // Registers the job with the event queue (uid + deadline event).
  void QueueJobDeadline(Job* job);
  // Earliest valid queued event time, discarding stale entries (deadline
  // events whose job died or already passed, superseded policy timers).
  double NextQueuedEventTime();
  // Pops every event due at now_ (within kTimeEpsMs) and collects the due
  // release task ids, sorted, into due_releases_.
  void ConsumeDueEvents();
  // Re-arms the policy-timer event when the policy's requested wakeup
  // changed; older timer events are superseded via the generation counter.
  void SyncPolicyTimer(const std::optional<double>& wakeup);
  bool IsServerJob(const Job& job) const {
    return server_task_id_ >= 0 && job.task_id == server_task_id_;
  }
  // Remaining work the running job can execute right now (queue/budget
  // limited for the server job, actual remaining otherwise).
  double EffectiveRemaining(const Job& job) const;
  // Applies the server completion rule to an active server job; returns
  // true (and finalizes the job) when it completes.
  bool MaybeCompleteServerJob(Job* job, double now);
  void FinalizeJobCompletion(Job* job, double now);

  TaskSet tasks_;
  MachineSpec machine_;
  DvsPolicy* policy_;
  ExecTimeModel* exec_model_;
  SimOptions options_;

  std::unique_ptr<Scheduler> scheduler_;
  EnergyModel energy_;
  Pcg32 rng_;

  std::vector<TaskState> task_states_;
  std::vector<Job> jobs_;
  PolicyContext ctx_;
  SimResult result_;

  // Engine components (src/engine/).
  EventQueue events_;
  ReadyQueue ready_;
  ContextBuilder context_builder_;
  // Tasks whose TaskRuntimeView inputs changed since the last BuildContext:
  // marked where a task executes, releases, completes (server jobs
  // included), is aborted, or gets a CBS wake/postpone job. Marks persist
  // across steps that skip the callback block (and across hyperperiod
  // replay) until the next build consumes them.
  DirtyTasks dirty_;
  ModelEnergyAccountant accountant_;
  TraceRecorderSink trace_sink_;
  std::unique_ptr<ModeledSpeedController> speed_;
  // Liveness of job uid u at [u - 1]; validates queued deadline events.
  // Uids are assigned densely from 1 per run, so a flat vector beats a hash
  // set (no allocation per job on the release hot path).
  std::vector<uint8_t> deadline_live_;
  uint64_t next_job_uid_ = 1;
  // Only the newest queued policy-timer event is valid.
  uint64_t timer_generation_ = 0;
  std::optional<double> queued_wakeup_;
  std::vector<int> due_releases_;
  // False in the queue-free (no-server) loop: events_ / deadline_live_ stay
  // untouched and scheduling points derive from task state directly.
  bool use_events_ = false;
  // Cached policy_->timer_driven(): gates every NextWakeupMs/OnWakeup call.
  bool timer_driven_ = false;
  // Jobs in jobs_ with finished == false, maintained incrementally so the
  // idle transition needs no per-step scan.
  int64_t unfinished_count_ = 0;
  // Per-step scratch, hoisted out of the loop (a per-step heap allocation
  // for each was the largest single cost in the profiled step).
  std::vector<int> completed_;
  std::vector<int> released_;
  std::vector<int> completed_after_release_;
  // Dense SoA period cache (indexed by task id) feeding the RM comparator;
  // avoids gathering period_ms through the Task struct every comparison.
  std::vector<double> periods_;
  // Cached ExecTimeModel::constant_fraction(): skips the virtual draw per
  // release for constant models (bit-identical by that method's contract).
  std::optional<double> const_fraction_;
  // Hyperperiod record/verify/replay state machine (src/sim/hyperperiod.h);
  // inert (Mode::kOff) unless ArmHyperperiod's gate passes.
  HyperperiodMemo hp_;

  std::optional<AperiodicServerState> aperiodic_;
  int server_task_id_ = -1;
  double now_ = 0;
  bool ran_ = false;
};

// Convenience wrapper: builds the policy's matching scheduler and runs.
SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        DvsPolicy& policy, ExecTimeModel& exec_model,
                        const SimOptions& options);

// Same, resolving the policy from its factory id (see MakePolicy for the
// valid ids) so callers need not hand-wire a policy object per run.
SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        const std::string& policy_id, ExecTimeModel& exec_model,
                        const SimOptions& options);

}  // namespace rtdvs

#endif  // SRC_SIM_SIMULATOR_H_
