#include "src/sim/audit.h"

#include <cmath>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/rt/schedulability.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

// Tolerances for re-derived floating-point totals. Each reported total is a
// sum of per-segment contributions; re-deriving it replays the sum in a
// different association order, so the slack scales with the magnitude of
// the quantity, not with machine epsilon alone.
constexpr double kAbsTol = 1e-6;
constexpr double kRelTol = 1e-7;

bool Mismatch(double reported, double derived, double scale) {
  double tol = kAbsTol + kRelTol * std::fabs(scale);
  return std::fabs(reported - derived) > tol;
}

class Auditor {
 public:
  Auditor(const SimResult& result, const AuditInputs& inputs)
      : result_(result), inputs_(inputs) {}

  AuditReport Run() {
    CheckTimePartition();
    CheckResidency();
    CheckTrace();
    CheckJobAccounting();
    CheckRtGuarantee();
    CheckLowerBound();
    report_.audited = true;
    return report_;
  }

 private:
  void Fail(AuditCheck check, std::string message) {
    report_.violations.push_back({check, std::move(message)});
  }

  void Skip(AuditCheck check, const std::string& reason) {
    ++report_.checks_skipped;
    report_.skip_reasons.push_back(
        StrFormat("%s: %s", AuditCheckName(check), reason.c_str()));
  }

  void CheckTimePartition() {
    ++report_.checks_run;
    double covered = result_.busy_ms + result_.idle_ms + result_.switching_ms;
    if (Mismatch(covered, result_.horizon_ms, result_.horizon_ms)) {
      Fail(AuditCheck::kTimePartition,
           StrFormat("busy %.9g + idle %.9g + switching %.9g = %.9g ms != "
                     "horizon %.9g ms",
                     result_.busy_ms, result_.idle_ms, result_.switching_ms,
                     covered, result_.horizon_ms));
    }
    if (result_.busy_ms < -kAbsTol || result_.idle_ms < -kAbsTol ||
        result_.switching_ms < -kAbsTol) {
      Fail(AuditCheck::kTimePartition, "negative time bucket");
    }
  }

  void CheckResidency() {
    ++report_.checks_run;
    double exec_ms = 0, idle_ms = 0, exec_energy = 0, idle_energy = 0;
    for (const auto& res : result_.residency) {
      if (res.exec_ms < -kAbsTol || res.idle_ms < -kAbsTol ||
          res.exec_energy < -kAbsTol || res.idle_energy < -kAbsTol) {
        Fail(AuditCheck::kResidency,
             "negative residency at " + res.point.ToString());
      }
      exec_ms += res.exec_ms;
      idle_ms += res.idle_ms;
      exec_energy += res.exec_energy;
      idle_energy += res.idle_energy;
    }
    if (Mismatch(exec_ms, result_.busy_ms, result_.horizon_ms)) {
      Fail(AuditCheck::kResidency,
           StrFormat("residency exec %.9g ms != busy %.9g ms", exec_ms,
                     result_.busy_ms));
    }
    if (Mismatch(idle_ms, result_.idle_ms, result_.horizon_ms)) {
      Fail(AuditCheck::kResidency,
           StrFormat("residency idle %.9g ms != idle %.9g ms", idle_ms,
                     result_.idle_ms));
    }
    if (Mismatch(exec_energy, result_.exec_energy, result_.exec_energy)) {
      Fail(AuditCheck::kResidency,
           StrFormat("residency exec energy %.9g != exec_energy %.9g",
                     exec_energy, result_.exec_energy));
    }
    if (Mismatch(idle_energy, result_.idle_energy,
                 result_.idle_energy + result_.exec_energy)) {
      Fail(AuditCheck::kResidency,
           StrFormat("residency idle energy %.9g != idle_energy %.9g",
                     idle_energy, result_.idle_energy));
    }
  }

  // Re-integrates the recorded trace and compares against every reported
  // total the trace determines. A truncated trace covers only a prefix of
  // the run, so its checks are downgraded to skipped, never failed.
  void CheckTrace() {
    if (inputs_.options == nullptr || !inputs_.options->record_trace ||
        result_.trace.segments().empty()) {
      Skip(AuditCheck::kTrace, "no trace recorded");
      return;
    }
    if (result_.trace.truncated()) {
      Skip(AuditCheck::kTrace,
           "trace truncated at the segment capacity limit; re-integration "
           "covers only a prefix of the run");
      return;
    }
    ++report_.checks_run;
    const auto& segments = result_.trace.segments();
    double busy_ms = 0, idle_ms = 0, switching_ms = 0;
    double exec_energy = 0, idle_energy = 0, work = 0;
    EnergyModel energy(inputs_.options->idle_level,
                       inputs_.options->energy_coefficient);
    for (size_t i = 0; i < segments.size(); ++i) {
      const TraceSegment& seg = segments[i];
      double dt = seg.end_ms - seg.start_ms;
      if (dt <= 0) {
        Fail(AuditCheck::kTrace,
             StrFormat("segment %zu not monotone: [%.9g, %.9g)", i,
                       seg.start_ms, seg.end_ms));
        return;
      }
      if (i > 0 && Mismatch(seg.start_ms, segments[i - 1].end_ms,
                            result_.horizon_ms)) {
        Fail(AuditCheck::kTrace,
             StrFormat("gap/overlap between segments %zu and %zu: %.9g vs %.9g",
                       i - 1, i, segments[i - 1].end_ms, seg.start_ms));
        return;
      }
      switch (seg.state) {
        case CpuState::kExecuting:
          busy_ms += dt;
          work += dt * seg.point.frequency;
          exec_energy += energy.ExecutionEnergy(dt * seg.point.frequency, seg.point);
          break;
        case CpuState::kIdle:
          idle_ms += dt;
          idle_energy += energy.IdleEnergy(dt, seg.point);
          break;
        case CpuState::kSwitching:
          switching_ms += dt;  // halted: time passes, no energy (§3.1)
          break;
      }
    }
    if (Mismatch(segments.front().start_ms, 0.0, result_.horizon_ms) ||
        Mismatch(segments.back().end_ms, result_.horizon_ms,
                 result_.horizon_ms)) {
      Fail(AuditCheck::kTrace,
           StrFormat("trace spans [%.9g, %.9g), expected [0, %.9g)",
                     segments.front().start_ms, segments.back().end_ms,
                     result_.horizon_ms));
    }
    struct {
      const char* what;
      double reported;
      double derived;
      double scale;
    } totals[] = {
        {"busy_ms", result_.busy_ms, busy_ms, result_.horizon_ms},
        {"idle_ms", result_.idle_ms, idle_ms, result_.horizon_ms},
        {"switching_ms", result_.switching_ms, switching_ms, result_.horizon_ms},
        {"exec_energy", result_.exec_energy, exec_energy, result_.exec_energy},
        {"idle_energy", result_.idle_energy, idle_energy,
         result_.exec_energy + result_.idle_energy},
        {"total_work_executed", result_.total_work_executed, work,
         result_.total_work_executed},
    };
    for (const auto& total : totals) {
      if (Mismatch(total.reported, total.derived, total.scale)) {
        Fail(AuditCheck::kTrace,
             StrFormat("trace re-integration: %s reported %.9g, derived %.9g",
                       total.what, total.reported, total.derived));
      }
    }
  }

  void CheckJobAccounting() {
    ++report_.checks_run;
    int64_t accounted =
        result_.completions + result_.aborted + result_.unfinished_at_horizon;
    if (result_.releases != accounted) {
      Fail(AuditCheck::kJobAccounting,
           StrFormat("releases %lld != completions %lld + aborted %lld + "
                     "in-flight %lld",
                     static_cast<long long>(result_.releases),
                     static_cast<long long>(result_.completions),
                     static_cast<long long>(result_.aborted),
                     static_cast<long long>(result_.unfinished_at_horizon)));
    }
    int64_t releases = 0, completions = 0, aborted = 0, unfinished = 0,
            misses = 0;
    double executed = 0;
    for (size_t id = 0; id < result_.task_stats.size(); ++id) {
      const TaskStats& stats = result_.task_stats[id];
      if (stats.releases !=
          stats.completions + stats.aborted + stats.unfinished) {
        Fail(AuditCheck::kJobAccounting,
             StrFormat("task %zu: releases %lld != completions %lld + "
                       "aborted %lld + in-flight %lld",
                       id, static_cast<long long>(stats.releases),
                       static_cast<long long>(stats.completions),
                       static_cast<long long>(stats.aborted),
                       static_cast<long long>(stats.unfinished)));
      }
      releases += stats.releases;
      completions += stats.completions;
      aborted += stats.aborted;
      unfinished += stats.unfinished;
      misses += stats.deadline_misses;
      executed += stats.executed_work;
    }
    if (releases != result_.releases || completions != result_.completions ||
        aborted != result_.aborted ||
        unfinished != result_.unfinished_at_horizon ||
        misses != result_.deadline_misses) {
      Fail(AuditCheck::kJobAccounting,
           "per-task job counters do not sum to the global counters");
    }
    if (Mismatch(executed, result_.total_work_executed,
                 result_.total_work_executed)) {
      Fail(AuditCheck::kJobAccounting,
           StrFormat("per-task executed work sums to %.9g, reported %.9g",
                     executed, result_.total_work_executed));
    }
  }

  // The paper's central claim (§2, §3.2): RT-DVS policies never trade
  // deadlines for energy. When the policy guarantees deadlines and its
  // scheduler's admission test passes the simulated set at full speed, any
  // reported miss is an accounting or policy bug, not a workload property.
  void CheckRtGuarantee() {
    if (inputs_.tasks == nullptr || inputs_.options == nullptr) {
      Skip(AuditCheck::kRtGuarantee, "task set or options not provided");
      return;
    }
    if (!inputs_.policy_guarantees_deadlines) {
      Skip(AuditCheck::kRtGuarantee, "policy does not guarantee deadlines");
      return;
    }
    if (inputs_.options->switch_time_ms > 0) {
      Skip(AuditCheck::kRtGuarantee,
           "switch_time_ms > 0 voids the schedulability analysis");
      return;
    }
    if (result_.wcet_overruns > 0) {
      Skip(AuditCheck::kRtGuarantee,
           "a WCET overrun was injected, voiding the guarantee");
      return;
    }
    bool admitted = result_.scheduler == SchedulerKind::kEdf
                        ? EdfSchedulable(*inputs_.tasks)
                        : RmSchedulableSufficient(*inputs_.tasks);
    if (!admitted) {
      Skip(AuditCheck::kRtGuarantee,
           "task set not admitted by the schedulability test");
      return;
    }
    ++report_.checks_run;
    if (result_.deadline_misses > 0) {
      Fail(AuditCheck::kRtGuarantee,
           StrFormat("%s on a %s-schedulable set reported %lld deadline "
                     "miss(es)",
                     result_.policy_name.c_str(),
                     SchedulerKindName(result_.scheduler).c_str(),
                     static_cast<long long>(result_.deadline_misses)));
    }
  }

  void CheckLowerBound() {
    ++report_.checks_run;
    double excess = result_.lower_bound_energy - result_.exec_energy;
    if (excess > kAbsTol + kRelTol * std::fabs(result_.exec_energy)) {
      Fail(AuditCheck::kLowerBound,
           StrFormat("lower bound %.9g exceeds execution energy %.9g",
                     result_.lower_bound_energy, result_.exec_energy));
    }
  }

  const SimResult& result_;
  const AuditInputs& inputs_;
  AuditReport report_;
};

}  // namespace

const char* AuditCheckName(AuditCheck check) {
  switch (check) {
    case AuditCheck::kTimePartition:
      return "time-partition";
    case AuditCheck::kResidency:
      return "residency";
    case AuditCheck::kTrace:
      return "trace";
    case AuditCheck::kJobAccounting:
      return "job-accounting";
    case AuditCheck::kRtGuarantee:
      return "rt-guarantee";
    case AuditCheck::kLowerBound:
      return "lower-bound";
    case AuditCheck::kCluster:
      return "cluster";
  }
  return "?";
}

bool AuditReport::Violated(AuditCheck check) const {
  for (const auto& violation : violations) {
    if (violation.check == check) {
      return true;
    }
  }
  return false;
}

std::string AuditReport::Summary() const {
  if (!audited) {
    return "audit: not run";
  }
  std::string out;
  if (ok()) {
    out = StrFormat("audit: OK (%d checks, %d skipped)", checks_run,
                    checks_skipped);
  } else {
    out = StrFormat("audit: %zu violation(s)", violations.size());
    for (const auto& violation : violations) {
      out += StrFormat("\n  [%s] %s", AuditCheckName(violation.check),
                       violation.message.c_str());
    }
  }
  for (const auto& reason : skip_reasons) {
    out += StrFormat("\n  skipped %s", reason.c_str());
  }
  return out;
}

AuditReport AuditSimResult(const SimResult& result, const AuditInputs& inputs) {
  return Auditor(result, inputs).Run();
}

AuditReport AuditMpResult(const MpSimResult& result, const SimOptions& options) {
  AuditReport report;
  auto fail = [&report](const std::string& message) {
    report.violations.push_back({AuditCheck::kCluster, message});
  };
  if (!result.admitted) {
    ++report.checks_skipped;
    report.skip_reasons.push_back("cluster: task set not admitted, nothing ran");
    report.audited = true;
    return report;
  }
  ++report.checks_run;

  // Wall time: every core covers the whole horizon (powered-down cores idle
  // through it), so the slices sum to num_cores * horizon.
  const SimResult& cluster = result.cluster;
  double wall_ms = 0;
  double busy_ms = 0, idle_ms = 0, switching_ms = 0, work = 0;
  double exec_energy = 0, idle_energy = 0;
  int64_t speed_switches = 0;
  int64_t releases = 0, completions = 0, misses = 0, aborted = 0, unfinished = 0;
  for (const SimResult& slice : result.cores) {
    wall_ms += slice.busy_ms + slice.idle_ms + slice.switching_ms;
    busy_ms += slice.busy_ms;
    idle_ms += slice.idle_ms;
    switching_ms += slice.switching_ms;
    work += slice.total_work_executed;
    exec_energy += slice.exec_energy;
    idle_energy += slice.idle_energy;
    speed_switches += slice.speed_switches;
    releases += slice.releases;
    completions += slice.completions;
    misses += slice.deadline_misses;
    aborted += slice.aborted;
    unfinished += slice.unfinished_at_horizon;
  }
  const double expected_wall = result.num_cores * options.horizon_ms;
  if (Mismatch(wall_ms, expected_wall, expected_wall)) {
    fail(StrFormat("per-core wall time sums to %.9g ms, expected cores %d x "
                   "horizon %.9g ms",
                   wall_ms, result.num_cores, options.horizon_ms));
  }
  struct {
    const char* what;
    double reported;
    double derived;
    double scale;
  } totals[] = {
      {"busy_ms", cluster.busy_ms, busy_ms, expected_wall},
      {"idle_ms", cluster.idle_ms, idle_ms, expected_wall},
      {"switching_ms", cluster.switching_ms, switching_ms, expected_wall},
      {"total_work_executed", cluster.total_work_executed, work,
       cluster.total_work_executed},
      {"exec_energy", cluster.exec_energy, exec_energy, cluster.exec_energy},
      {"idle_energy", cluster.idle_energy, idle_energy,
       cluster.exec_energy + cluster.idle_energy},
  };
  for (const auto& total : totals) {
    if (Mismatch(total.reported, total.derived, total.scale)) {
      fail(StrFormat("cluster %s reported %.9g, slice sum %.9g", total.what,
                     total.reported, total.derived));
    }
  }
  if (cluster.speed_switches != speed_switches) {
    fail(StrFormat("cluster speed_switches %lld != slice sum %lld",
                   static_cast<long long>(cluster.speed_switches),
                   static_cast<long long>(speed_switches)));
  }
  if (result.mode == MpMode::kPartitioned || result.num_cores == 1) {
    // Job-level counters live on the slices in partitioned mode, and on the
    // one slice at M = 1 in either mode, and must sum to the cluster;
    // migrations are impossible by construction.
    if (cluster.releases != releases || cluster.completions != completions ||
        cluster.deadline_misses != misses || cluster.aborted != aborted ||
        cluster.unfinished_at_horizon != unfinished) {
      fail("cluster job counters do not sum over the slices");
    }
    if (result.migrations != 0) {
      fail(StrFormat("partitioned or single-core run reported %lld migration(s)",
                     static_cast<long long>(result.migrations)));
    }
  } else if (releases != 0 || completions != 0 || misses != 0 || aborted != 0 ||
             unfinished != 0) {
    // Global slices carry no job counters; finding any means a slice was
    // filled by the wrong path.
    fail("global-mode slices carry job counters (cluster-level only)");
  }
  if (cluster.lower_bound_energy >
      cluster.exec_energy + kAbsTol + kRelTol * std::fabs(cluster.exec_energy)) {
    fail(StrFormat("cluster lower bound %.9g exceeds execution energy %.9g",
                   cluster.lower_bound_energy, cluster.exec_energy));
  }
  report.audited = true;
  return report;
}

}  // namespace rtdvs
