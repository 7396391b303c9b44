// The DVS policy interface: the contract between the OS's task-management
// hooks and a voltage-scaling algorithm (§2 of the paper).
//
// Policies are invoked at exactly the points the paper's algorithms need:
// task release, task completion, start of an idle interval, and (for
// non-real-time interval-based baselines) self-scheduled timer wakeups. A
// policy observes the task set through read-only TaskRuntimeViews and acts
// by setting the operating point through a SpeedController.
#ifndef SRC_DVS_POLICY_H_
#define SRC_DVS_POLICY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy_counters.h"
#include "src/rt/scheduler.h"
#include "src/rt/task.h"

namespace rtdvs {

// Per-task state a policy may observe at a scheduling point. A policy never
// sees a job's actual (future) computation requirement — only the worst case
// and what has executed so far — mirroring what a real kernel can know.
struct TaskRuntimeView {
  // True when an invocation has been released and not yet completed.
  bool has_active_job = false;
  // Deadline of the current invocation when active; otherwise the task's
  // next release time (for periodic tasks the two coincide: the deadline of
  // an invocation IS the next release). This is the "deadline in the
  // system" that ccRM and laEDF reason about.
  double next_deadline_ms = 0;
  // Work executed within the current invocation (0 when no active job).
  double executed_in_invocation = 0;
  // C_i minus executed_in_invocation, floored at 0; 0 when no active job.
  // This is the paper's c_left_i as directly observable state.
  double worst_case_remaining = 0;
  // Total work executed on behalf of this task since the policy was
  // (re)initialized; lets policies account "during task execution:
  // decrement ..." bookkeeping by differencing between callbacks.
  double cumulative_executed = 0;
  // Actual work consumed by the most recently completed invocation
  // (the paper's cc_i); defaults to C_i before the first completion.
  double last_actual_work = 0;
};

struct PolicyContext {
  double now_ms = 0;
  const TaskSet* tasks = nullptr;
  const MachineSpec* machine = nullptr;
  std::vector<TaskRuntimeView> views;
  // Wall-clock totals since start, for utilization-feedback baselines.
  double cumulative_busy_ms = 0;
  double cumulative_idle_ms = 0;
  double cumulative_work = 0;

  const TaskRuntimeView& view(int task_id) const {
    return views[static_cast<size_t>(task_id)];
  }
  // Earliest next_deadline_ms across all tasks; the "next deadline in the
  // system" (requires a non-empty task set).
  double EarliestDeadline() const;
};

// How a policy changes processor speed. Implementations count transitions
// and may model switch latency.
class SpeedController {
 public:
  virtual ~SpeedController() = default;
  virtual void SetOperatingPoint(const OperatingPoint& point) = 0;
  virtual const OperatingPoint& current() const = 0;
};

class DvsPolicy {
 public:
  virtual ~DvsPolicy() = default;

  // Display name matching the paper's figure legends (e.g. "ccEDF").
  virtual std::string name() const = 0;
  // The real-time scheduler this policy is designed for.
  virtual SchedulerKind scheduler_kind() const = 0;
  // Dynamic policies drop to the lowest operating point during idle
  // (§3.2: "the dynamic algorithms switch to the lowest frequency and
  // voltage during idle, while the static ones do not").
  virtual bool lowers_speed_when_idle() const { return false; }
  // True when the policy preserves its scheduler's deadline guarantee on
  // any task set the scheduler's admission test accepts (all the paper's
  // RT-DVS policies). Interval-based and statistical policies return false:
  // they knowingly trade deadline risk for energy. The SimAudit RT oracle
  // keys off this metadata.
  virtual bool guarantees_deadlines() const { return true; }
  // True when the policy schedules its own timer wakeups (NextWakeupMs may
  // return a value). Hosts only poll NextWakeupMs / deliver OnWakeup for
  // timer-driven policies; every event-driven policy (all the paper's RT-DVS
  // algorithms) skips that per-step work entirely.
  virtual bool timer_driven() const { return false; }
  // No caller in src/; kept because perfbench/ overrides or reads it.
  virtual bool supports_time_skip() const { return false; }

  // Called once before the first release, and again whenever the task set
  // changes (dynamic task admission/removal, §4.3). Must (re)build any
  // per-task state and set the initial operating point.
  virtual void OnStart(const PolicyContext& ctx, SpeedController& speed) = 0;

  virtual void OnTaskRelease(int task_id, const PolicyContext& ctx,
                             SpeedController& speed) {
    (void)task_id;
    (void)ctx;
    (void)speed;
  }
  virtual void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                                SpeedController& speed) {
    (void)task_id;
    (void)ctx;
    (void)speed;
  }

  // Called when the processor is about to idle (no runnable job). The
  // default honors lowers_speed_when_idle().
  virtual void OnIdle(const PolicyContext& ctx, SpeedController& speed);

  // Timer-driven policies (the non-RT interval baseline) return their next
  // wakeup time; the engine calls OnWakeup when it arrives.
  virtual std::optional<double> NextWakeupMs(const PolicyContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }
  virtual void OnWakeup(const PolicyContext& ctx, SpeedController& speed) {
    (void)ctx;
    (void)speed;
  }

  // No caller in src/; kept because perfbench/ overrides or reads it.
  virtual void OnTimeSkip(const PolicyContext& ctx) { (void)ctx; }

  // Decision counters accumulated over the policy's lifetime (they survive
  // OnStart re-initialization on task-set changes); the simulator copies
  // them into SimResult::policy_counters after a run.
  const PolicyCounters& counters() const { return counters_; }

  // Effect recording: while a tap is bound, every counter mutation (all of
  // which route through the protected helpers below) is appended to it in
  // execution order, with the exact addend for double fields. Two policy
  // implementations that must agree bit for bit (tests/dvs/
  // la_edf_order_test.cc) compare their recorded sequences.
  void set_counter_tap(std::vector<PolicyCounterEffect>* tap) { tap_ = tap; }

 protected:
  // Policy implementations change speed through this wrapper so that request
  // and transition counts stay consistent with the engine's speed_switches
  // accounting: a transition is counted iff the requested point differs from
  // the current one.
  void RequestOperatingPoint(SpeedController& speed,
                             const OperatingPoint& point) {
    CountOne(PolicyCounterField::kSpeedRequests,
             counters_.speed_change_requests);
    if (!(point == speed.current())) {
      CountOne(PolicyCounterField::kSpeedTransitions,
               counters_.speed_transitions);
    }
    speed.SetOperatingPoint(point);
  }

  // A utilization estimate was computed to select a frequency.
  void RecordUtilizationSample(double utilization) {
    CountOne(PolicyCounterField::kUtilizationSamples,
             counters_.utilization_samples);
    AddTo(PolicyCounterField::kUtilizationSum, counters_.utilization_sum,
          utilization);
  }

  // ccEDF/ccRM: a completion finished under its WCET and handed `slack_ms`
  // back to the utilization estimate.
  void RecordSlackReclaimed(double slack_ms) {
    CountOne(PolicyCounterField::kSlackCompletions,
             counters_.slack_completions);
    AddTo(PolicyCounterField::kSlackReclaimedMs, counters_.slack_reclaimed_ms,
          slack_ms);
  }

  // laEDF: one defer() pass pushed `deferred_ms` of work past the next
  // deadline in the system.
  void RecordDeferral(double deferred_ms) {
    CountOne(PolicyCounterField::kDeferralDecisions,
             counters_.deferral_decisions);
    AddTo(PolicyCounterField::kWorkDeferredMs, counters_.work_deferred_ms,
          deferred_ms);
  }

  PolicyCounters counters_;

 private:
  void CountOne(PolicyCounterField field, int64_t& slot) {
    slot += 1;
    if (tap_ != nullptr) {
      tap_->push_back({field, 1.0});
    }
  }
  void AddTo(PolicyCounterField field, double& slot, double addend) {
    slot += addend;
    if (tap_ != nullptr) {
      tap_->push_back({field, addend});
    }
  }

  std::vector<PolicyCounterEffect>* tap_ = nullptr;
};

// Factory: creates a policy by its canonical id. Valid ids:
//   "edf", "rm"            — plain schedulers, no DVS (always max speed)
//   "static_edf", "static_rm" — §2.3 static voltage scaling
//   "cc_edf", "cc_rm"      — §2.4 cycle-conserving RT-DVS
//   "la_edf"               — §2.5 look-ahead RT-DVS
//   "interval"             — non-RT utilization-feedback DVS baseline (§2.2)
// Aborts (listing valid ids) on unknown input.
std::unique_ptr<DvsPolicy> MakePolicy(const std::string& id);

// All RT policy ids in the order the paper's tables/figures list them.
const std::vector<std::string>& AllPaperPolicyIds();

// True when `id` is accepted by MakePolicy.
bool IsValidPolicyId(const std::string& id);

}  // namespace rtdvs

#endif  // SRC_DVS_POLICY_H_
