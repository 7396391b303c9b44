// Per-policy decision counters (§4.1 of the paper counts "speed changes per
// second" per policy; these make that and the other interesting decision
// rates first-class data instead of something re-derived from traces).
//
// Every field is either an exact integer count or a sum of exactly
// representable simulation quantities, accumulated in a fixed order — so
// merged counters are bit-identical regardless of sweep parallelism.
#ifndef SRC_DVS_POLICY_COUNTERS_H_
#define SRC_DVS_POLICY_COUNTERS_H_

#include <cstdint>

namespace rtdvs {

struct PolicyCounters {
  // Every call into SpeedController::SetOperatingPoint routed through
  // DvsPolicy::RequestOperatingPoint, including no-op re-requests of the
  // current point.
  int64_t speed_change_requests = 0;
  // Requests whose target differed from the current operating point — the
  // transitions a real CPU would actually pay for (§4.1 overhead analysis).
  int64_t speed_transitions = 0;
  // ccEDF/ccRM: completed invocations that finished under their WCET, and
  // the total unused allowance (C_i - cc_i, in ms of work at max speed)
  // those completions handed back to the utilization estimate.
  int64_t slack_completions = 0;
  double slack_reclaimed_ms = 0;
  // laEDF: calls to the defer() step, and the total work it pushed past the
  // next deadline in the system (ms at max speed).
  int64_t deferral_decisions = 0;
  double work_deferred_ms = 0;
  // Utilization-estimate samples (any policy that recomputes a utilization
  // figure to pick a frequency), plus their sum for averaging.
  int64_t utilization_samples = 0;
  double utilization_sum = 0;
  // Multiprocessor observability (zero for uniprocessor runs). Migrations:
  // global-mode dispatches that moved a job off its last core. Admission
  // rejections: tasks the partitioner could not fit on any core.
  int64_t migrations = 0;
  int64_t admission_rejections = 0;

  void MergeFrom(const PolicyCounters& other) {
    speed_change_requests += other.speed_change_requests;
    speed_transitions += other.speed_transitions;
    slack_completions += other.slack_completions;
    slack_reclaimed_ms += other.slack_reclaimed_ms;
    deferral_decisions += other.deferral_decisions;
    work_deferred_ms += other.work_deferred_ms;
    utilization_samples += other.utilization_samples;
    utilization_sum += other.utilization_sum;
    migrations += other.migrations;
    admission_rejections += other.admission_rejections;
  }

  // This minus `base`, field-wise; the per-run delta when `base` was
  // snapshotted before the run (policies may be reused across runs).
  PolicyCounters DiffSince(const PolicyCounters& base) const {
    PolicyCounters d;
    d.speed_change_requests = speed_change_requests - base.speed_change_requests;
    d.speed_transitions = speed_transitions - base.speed_transitions;
    d.slack_completions = slack_completions - base.slack_completions;
    d.slack_reclaimed_ms = slack_reclaimed_ms - base.slack_reclaimed_ms;
    d.deferral_decisions = deferral_decisions - base.deferral_decisions;
    d.work_deferred_ms = work_deferred_ms - base.work_deferred_ms;
    d.utilization_samples = utilization_samples - base.utilization_samples;
    d.utilization_sum = utilization_sum - base.utilization_sum;
    d.migrations = migrations - base.migrations;
    d.admission_rejections = admission_rejections - base.admission_rejections;
    return d;
  }

  friend bool operator==(const PolicyCounters&, const PolicyCounters&) = default;
};

// Which PolicyCounters field a recorded mutation touched. Only the fields a
// uniprocessor policy callback can reach appear here: the MP-only fields
// (migrations, admission_rejections) are maintained by the cluster host, not
// by policy code, so they can never show up in a recorded effect stream.
enum class PolicyCounterField : uint8_t {
  kSpeedRequests,
  kSpeedTransitions,
  kSlackCompletions,
  kSlackReclaimedMs,
  kDeferralDecisions,
  kWorkDeferredMs,
  kUtilizationSamples,
  kUtilizationSum,
};

// One recorded counter mutation: integer fields always increment by exactly
// 1 (value is 1), double fields add `value`. Recorded per mutation, not as a
// delta, because floating-point addition is not associative: two sums agree
// bit for bit only when their addend sequences do.
struct PolicyCounterEffect {
  PolicyCounterField field;
  double value = 0;
};

class JsonValue;

// One shared serialization for sweep cells, rtdvs-sim --json, and MP slice
// output — field order fixed here so every emitter is byte-compatible.
// Defined in src/dvs/policy_counters.cc.
JsonValue PolicyCountersToJson(const PolicyCounters& c);

}  // namespace rtdvs

#endif  // SRC_DVS_POLICY_COUNTERS_H_
