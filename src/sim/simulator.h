// Event-driven simulator for DVS-capable hardware with real-time scheduling
// (§3.1 of the paper). Execution is modelled by counting work (cycles
// normalized to milliseconds at maximum frequency); the only events are task
// releases, task completions, deadline checks, policy timer wakeups, and the
// horizon — between events the processor state is constant, so energy
// integrates in closed form.
//
// The simulator is a thin driver over the shared engine components
// (src/engine/): a ReadyQueue picks the running jobs in the scheduler's
// priority order (src/rt/scheduler.h, resolved at compile time), a
// ContextBuilder derives the PolicyContext, a ModelEnergyAccountant
// integrates time/energy per segment, and a ModeledSpeedController
// services policy speed requests. No event queue is
// needed: the next event is the minimum over state the simulator already
// owns (the head of the release calendar, the pending policy wakeups, the
// running jobs' completions and, with an aperiodic server, the next arrival
// and the server job's deadline). When no job exists the pick is skipped and
// the whole interval up to the next event integrates as one idle segment.
//
// A step costs what changed at it, not n. The release calendar yields the
// next release and the due tasks. Only the jobs that executed in the step
// can run out of work, plus a job released with none (it completes at the
// next scheduling point without being dispatched). A periodic job's
// deadline is the same double as its task's next release, so only the
// latest jobs of the tasks due now can miss. At M = 1, while no job
// finished, the pick is the better of the previous pick and the jobs
// released since.
//
// One loop serves every core count M >= 1. The cores share the clock, the
// job list, the per-task state, the ReadyQueue, the PolicyContext and the
// RNG; each core has its own DvsPolicy, speed controller, energy accountant
// and timer wakeup. M = 1 picks one job per step. M > 1 is global
// multiprocessor scheduling (src/sim/mp_simulator.h): the M highest-priority
// jobs run, one per core, with core affinity, every release and completion
// reaches every core in core order, and each core's OnIdle fires ahead of a
// segment of positive length that it spends without a job. Cores whose
// policies replicate one another (DvsPolicy::IsReplicaOf) form a replica
// group: the group's first core runs each release and completion callback
// and the others apply its recorded effects, so a decision costs O(n) once
// per group instead of once per core.
//
// The kernel (src/kernel/) runs the same ContextBuilder, ReadyQueue and
// ModelEnergyAccountant on its register-level hardware.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/context_builder.h"
#include "src/engine/energy_accountant.h"
#include "src/engine/ready_queue.h"
#include "src/engine/speed_controller.h"
#include "src/rt/aperiodic.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/job.h"
#include "src/rt/job_pool.h"
#include "src/rt/scheduler.h"
#include "src/rt/task.h"
#include "src/sim/metrics.h"

namespace rtdvs {

// What happens to a job whose deadline passes before it completes.
enum class MissPolicy {
  // Keep executing; the tardy job finishes late (Unix-like behaviour).
  kContinueLate,
  // Abandon remaining work at the deadline (firm real-time semantics).
  kAbortJob,
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
  // M = policies.size() cores, one policy per core; M > 1 is global
  // scheduling. Every policy must use the same scheduler kind; aperiodic
  // servers need M = 1.
  Simulator(TaskSet tasks, MachineSpec machine, std::vector<DvsPolicy*> policies,
            ExecTimeModel* exec_model, SimOptions options);
  ~Simulator();

  // Runs the full horizon and returns the metrics. May be called once. At
  // M > 1 the result holds the cluster's job-level outcome (releases,
  // completions, misses, preemptions, task stats, trace events, fast-path
  // stats); time, energy, residency and switch totals are on the per-core
  // slices, and the result is not audited.
  SimResult Run();

  // M > 1, after Run(): each core's slice (time, energy, residency, switch
  // count, policy counters and trace segments), moved out in core order.
  std::vector<SimResult> TakeCoreSlices();
  // M > 1: dispatches that moved a job off the core it last ran on.
  int64_t migrations() const { return migrations_; }

 private:
  struct TaskState {
    double next_release_ms = 0;
    int64_t next_invocation = 0;
    double cumulative_executed = 0;
    double last_actual_work = 0;  // defaults to C_i
  };

  // What each core owns. At M = 1 the accountant and the speed controller
  // write into the run's result and trace; at M > 1 into the core's slice.
  struct Core {
    Core(DvsPolicy* p, const EnergyModel& energy) : policy(p), accountant(energy) {}
    DvsPolicy* policy;
    ModelEnergyAccountant accountant;
    std::optional<ModeledSpeedController> speed;
    // The policy's latest NextWakeupMs answer (timer-driven policies only).
    std::optional<double> pending_wakeup;
    // Cached policy->timer_driven(): gates every NextWakeupMs/OnWakeup call.
    bool timer_driven = false;
    // M > 1: OnIdle already fired for the core's current idle period.
    bool was_idle = false;
    // M > 1 replica groups: a leader's policy records each release and
    // completion callback's effects into `effects`; a follower applies
    // `mirror` (its leader's `effects`) instead of running the callback.
    bool leads = false;
    std::vector<PolicyEffect> effects;
    const std::vector<PolicyEffect>* mirror = nullptr;
    // Index into jobs_ of the job running in this step, or Scheduler::kNone.
    size_t job = Scheduler::kNone;
    PolicyCounters counters_at_start;
    SimResult slice;  // M > 1 only
  };

  // The event loop, instantiated once per (server configured, global
  // multi-core, scheduler kind). kServer adds the aperiodic-server
  // bookkeeping to the one loop body: arrivals and the server job's deadline
  // join the next-event minimum, and the server completion, CBS
  // wake/postpone and release-then-retire rules run at each scheduling
  // point. kGlobal (M > 1) runs the per-core work over every core:
  // DispatchGlobal instead of the single pick, OnIdle ahead of each idle
  // core's segment, and callback fan-out in core order. kKind statically
  // selects the priority comparator (src/rt/scheduler.h) so the pick and the
  // global dispatch run with zero virtual dispatch; RM compares through
  // periods_.
  template <bool kServer, bool kGlobal, SchedulerKind kKind>
  void RunLoop();
  template <bool kServer, bool kGlobal>
  void RunLoopFor(SchedulerKind kind);
  // The cores a loop instantiation steps: all of them at M > 1; at M = 1 a
  // fixed-extent span, so per-core loops compile to straight-line code.
  template <bool kGlobal>
  auto Cores() {
    if constexpr (kGlobal) {
      return std::span<Core>(cores_);
    } else {
      return std::span<Core, 1>(cores_.data(), 1);
    }
  }
  // M > 1: runs the top M jobs in HigherPriority<kKind> order, one per
  // core. A job keeps its previous core when that core is free; the rest
  // fill free cores lowest-index-first in priority order, and landing on a
  // different core than last time counts a migration. Counts the
  // preemptions the dispatch causes.
  template <SchedulerKind kKind>
  void DispatchGlobal();
  // M > 1: OnIdle for each core without a job that is not already idle.
  void NotifyIdleCores();
  // M > 1: makes each core that replicates an earlier core's policy a
  // follower of the first such core, which leads its replica group.
  void FormReplicaGroups();
  // Delivers one release or completion callback, `callback(core)`, to every
  // core in core order; a replica group's followers apply their leader's
  // effects instead.
  template <bool kGlobal, typename Callback>
  void DeliverEvent(Callback&& callback);
  // When the core's job would complete at the core's current speed.
  double CompletionMs(const Core& core) const;
  // Copies a core's accountant totals, switch count and this run's policy
  // counters into `out`.
  void FillCoreTotals(const Core& core, SimResult* out) const;
  // Earliest pending periodic release: the head of the release calendar.
  double NextPeriodicReleaseMs() const;
  // Fills due_releases_ with every task whose next release is due at now_,
  // in task-id order (the order of the demand draws and the release
  // callbacks), and due_entries_ with their calendar positions.
  void CollectDueReleases();
  // Creates all invocations due at `now` for the tasks in due_releases_ and
  // re-keys their calendar entries at their new next releases.
  void ReleaseDueJobs(double now, std::vector<int>* released);
  // Restores the calendar's heap order below position `pos`, whose key may
  // have grown (its subtrees must be in heap order).
  void SiftCalendarDown(size_t pos);
  // Appends `job` to jobs_ (the new latest job of its task).
  void AddJob(const Job& job);
  // Marks jobs_[index] finished (completed or aborted).
  void FinishJob(size_t index, double now);
  // Drops the finished jobs from jobs_, keeping the order of the rest and
  // the indices the loop tracks; at M = 1 the same pass makes the pick over
  // the remaining jobs that the next step starts from.
  template <bool kGlobal, SchedulerKind kKind>
  void CompactJobs();
  // The scheduler's priority order (src/rt/scheduler.h), resolved at compile
  // time; RM compares through periods_.
  template <SchedulerKind kKind>
  bool HigherPriority(const Job& a, const Job& b) const {
    if constexpr (kKind == SchedulerKind::kEdf) {
      return EdfHigherPriority(a, b);
    } else {
      return RmHigherPriority(a, b, periods_.data());
    }
  }
  // A CBS activation (wake or postpone) released at now_.
  void AddCbsJob(double deadline);
  // Completes the jobs that can have run out of work at now_: each core's
  // job and (kServer) the server job, or every job after a release without
  // work.
  template <bool kServer, bool kGlobal>
  void CompleteFinishedJobs();
  // Completes jobs_[index] (kNone: nothing) if its work, or for the server
  // job its server rule, says it is done.
  template <bool kServer>
  void CompleteIfDone(size_t index);
  // kServer: the unfinished server job's deadline is due at now_.
  template <bool kServer>
  bool ServerDeadlineDue() const;
  // Miss (or, for a server job, retire) bookkeeping at now_ for the latest
  // jobs of the due tasks and (kServer) the server job.
  template <bool kServer>
  void CheckDeadlines();
  // Refreshes ctx_ for the tasks in dirty_ and clears it. The context's
  // busy, idle and work totals are core-order sums at M > 1.
  template <bool kGlobal>
  void BuildContext();
  bool IsServerJob(const Job& job) const {
    return server_task_id_ >= 0 && job.task_id == server_task_id_;
  }
  // Remaining work the running job can execute right now (queue/budget
  // limited for the server job, actual remaining otherwise).
  double EffectiveRemaining(const Job& job) const;
  // Applies the server completion rule to an active server job; returns
  // true (and finalizes the job) when it completes.
  bool MaybeCompleteServerJob(size_t index, double now);
  void FinalizeJobCompletion(size_t index, double now);

  TaskSet tasks_;
  MachineSpec machine_;
  ExecTimeModel* exec_model_;
  SimOptions options_;

  SchedulerKind kind_ = SchedulerKind::kEdf;
  EnergyModel energy_;
  Pcg32 rng_;

  std::vector<TaskState> task_states_;
  // Jobs in creation order; between steps only the unfinished ones.
  std::vector<Job> jobs_;
  // Per task, the index of its latest job while that job is unfinished,
  // else Scheduler::kNone.
  std::vector<size_t> latest_job_;
  // Index of the unfinished server job (there is at most one), else kNone.
  size_t server_job_ = Scheduler::kNone;
  // A job was released without work since the last completion check.
  bool zero_work_pending_ = false;
  // Some job finished since the last CompactJobs.
  bool any_finished_ = false;
  // M = 1 incremental pick: the last pick's result and jobs_.size() at that
  // pick (or at the last compaction), usable while pick_valid_ (no job
  // finished since).
  size_t last_pick_ = Scheduler::kNone;
  size_t pick_seen_ = 0;
  bool pick_valid_ = false;
  // Completion and miss candidates of the current step.
  std::vector<size_t> checks_;
  // Release calendar: a binary min-heap of (next release, task id), keyed by
  // the release, over the tasks with a periodic release (the CBS server has
  // none and stays out), followed by one (+inf, -1) sentinel. Equal keys sit
  // in any order; the due ids are sorted into task-id order.
  std::vector<std::pair<double, int>> calendar_;
  // Calendar positions of the entries due at now_, ascending.
  std::vector<size_t> due_entries_;
  PolicyContext ctx_;
  SimResult result_;

  // Engine components (src/engine/).
  ReadyQueue ready_;
  ContextBuilder context_builder_;
  // Tasks whose TaskRuntimeView inputs changed since the last BuildContext:
  // marked where a task executes, releases, completes (server jobs
  // included), is aborted, or gets a CBS wake/postpone job. Marks persist
  // across steps that skip the callback block until the next build
  // consumes them.
  DirtyTasks dirty_;
  // One entry per core; sized once by the constructor (each core's
  // accountant and speed controller hold pointers into its slice).
  std::vector<Core> cores_;
  // Some core's policy is timer-driven.
  bool any_timer_driven_ = false;
  // Some core's policy observes events (every timer-driven one does); when
  // none does, no step after OnStart builds the context or calls a policy.
  bool any_observer_ = false;
  int64_t migrations_ = 0;
  std::vector<int> due_releases_;
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

  std::optional<AperiodicServerState> aperiodic_;
  int server_task_id_ = -1;
  double now_ = 0;
  bool ran_ = false;
};

// The task set a run simulates: `tasks`, plus the aperiodic server task
// appended last when `options` configure a server.
TaskSet SimulatedTaskSet(TaskSet tasks, const SimOptions& options);

// Convenience wrapper: one single-core Simulator run. The M = 1 cluster
// (src/sim/mp_simulator.h) runs its core through it.
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
