#include "src/testing/differential.h"

#include <algorithm>
#include <cmath>

#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

// Absolute 1e-9 (the contract's agreement bound) plus a relative term that
// absorbs last-bit rounding drift on large accumulated sums.
bool NearEq(double a, double b, double abs_tol = 1e-9, double rel_tol = 1e-12) {
  return std::abs(a - b) <= abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
}

void Check(std::vector<FieldDiff>* diffs, bool* agreed, const std::string& field,
           double production, double reference, bool ok) {
  if (ok) {
    return;
  }
  *agreed = false;
  if (diffs != nullptr) {
    diffs->push_back({field, production, reference});
  }
}

void CheckExact(std::vector<FieldDiff>* diffs, bool* agreed, const std::string& field,
                int64_t production, int64_t reference) {
  Check(diffs, agreed, field, static_cast<double>(production),
        static_cast<double>(reference), production == reference);
}

void CheckNear(std::vector<FieldDiff>* diffs, bool* agreed, const std::string& field,
               double production, double reference) {
  Check(diffs, agreed, field, production, reference, NearEq(production, reference));
}

SimResult RunProduction(const FuzzCase& c, const std::string& policy_id) {
  TaskSet tasks = FuzzTasks(c);
  MachineSpec machine = FuzzMachine(c);
  SimOptions options = FuzzSimOptions(c);
  auto model = MakeFuzzExecModel(c.exec_spec);
  RTDVS_CHECK(model != nullptr) << "bad exec spec: " << c.exec_spec;
  return RunSimulation(tasks, machine, policy_id, *model, options);
}

// Constant-speed policies: the operating point never changes after OnStart,
// so aggregate time/energy totals are order- and grid-theorems for them.
bool IsConstantSpeedPolicy(const std::string& policy_id) {
  return policy_id == "edf" || policy_id == "rm" || policy_id == "static_edf" ||
         policy_id == "static_rm";
}

}  // namespace

bool ResultsAgree(const SimResult& production, const SimResult& reference,
                  std::vector<FieldDiff>* diffs) {
  bool agreed = true;
  CheckExact(diffs, &agreed, "releases", production.releases, reference.releases);
  CheckExact(diffs, &agreed, "completions", production.completions,
             reference.completions);
  CheckExact(diffs, &agreed, "deadline_misses", production.deadline_misses,
             reference.deadline_misses);
  CheckExact(diffs, &agreed, "aborted", production.aborted, reference.aborted);
  CheckExact(diffs, &agreed, "unfinished_at_horizon", production.unfinished_at_horizon,
             reference.unfinished_at_horizon);
  CheckExact(diffs, &agreed, "wcet_overruns", production.wcet_overruns,
             reference.wcet_overruns);
  CheckExact(diffs, &agreed, "speed_switches", production.speed_switches,
             reference.speed_switches);
  CheckExact(diffs, &agreed, "preemptions", production.preemptions,
             reference.preemptions);

  CheckNear(diffs, &agreed, "exec_energy", production.exec_energy,
            reference.exec_energy);
  CheckNear(diffs, &agreed, "idle_energy", production.idle_energy,
            reference.idle_energy);
  CheckNear(diffs, &agreed, "busy_ms", production.busy_ms, reference.busy_ms);
  CheckNear(diffs, &agreed, "idle_ms", production.idle_ms, reference.idle_ms);
  CheckNear(diffs, &agreed, "switching_ms", production.switching_ms,
            reference.switching_ms);
  CheckNear(diffs, &agreed, "total_work_executed", production.total_work_executed,
            reference.total_work_executed);
  CheckNear(diffs, &agreed, "lower_bound_energy", production.lower_bound_energy,
            reference.lower_bound_energy);

  const PolicyCounters& pc = production.policy_counters;
  const PolicyCounters& rc = reference.policy_counters;
  const struct {
    const char* name;
    int64_t production;
    int64_t reference;
  } counts[] = {
      {"speed_change_requests", pc.speed_change_requests, rc.speed_change_requests},
      {"speed_transitions", pc.speed_transitions, rc.speed_transitions},
      {"slack_completions", pc.slack_completions, rc.slack_completions},
      {"deferral_decisions", pc.deferral_decisions, rc.deferral_decisions},
      {"utilization_samples", pc.utilization_samples, rc.utilization_samples},
      {"migrations", pc.migrations, rc.migrations},
      {"admission_rejections", pc.admission_rejections, rc.admission_rejections},
  };
  for (const auto& count : counts) {
    CheckExact(diffs, &agreed, std::string("counters.") + count.name, count.production,
               count.reference);
  }
  CheckNear(diffs, &agreed, "counters.slack_reclaimed_ms", pc.slack_reclaimed_ms,
            rc.slack_reclaimed_ms);
  CheckNear(diffs, &agreed, "counters.work_deferred_ms", pc.work_deferred_ms,
            rc.work_deferred_ms);
  CheckNear(diffs, &agreed, "counters.utilization_sum", pc.utilization_sum,
            rc.utilization_sum);

  CheckExact(diffs, &agreed, "residency.size",
             static_cast<int64_t>(production.residency.size()),
             static_cast<int64_t>(reference.residency.size()));
  if (production.residency.size() == reference.residency.size()) {
    for (size_t i = 0; i < production.residency.size(); ++i) {
      const PointResidency& p = production.residency[i];
      const PointResidency& r = reference.residency[i];
      const std::string prefix = StrFormat("residency[%zu].", i);
      Check(diffs, &agreed, prefix + "point", p.point.frequency, r.point.frequency,
            p.point == r.point);
      CheckNear(diffs, &agreed, prefix + "exec_ms", p.exec_ms, r.exec_ms);
      CheckNear(diffs, &agreed, prefix + "idle_ms", p.idle_ms, r.idle_ms);
      CheckNear(diffs, &agreed, prefix + "exec_energy", p.exec_energy, r.exec_energy);
      CheckNear(diffs, &agreed, prefix + "idle_energy", p.idle_energy, r.idle_energy);
    }
  }

  CheckExact(diffs, &agreed, "task_stats.size",
             static_cast<int64_t>(production.task_stats.size()),
             static_cast<int64_t>(reference.task_stats.size()));
  if (production.task_stats.size() == reference.task_stats.size()) {
    for (size_t i = 0; i < production.task_stats.size(); ++i) {
      const TaskStats& p = production.task_stats[i];
      const TaskStats& r = reference.task_stats[i];
      const std::string prefix = StrFormat("task[%zu].", i);
      CheckExact(diffs, &agreed, prefix + "releases", p.releases, r.releases);
      CheckExact(diffs, &agreed, prefix + "completions", p.completions, r.completions);
      CheckExact(diffs, &agreed, prefix + "deadline_misses", p.deadline_misses,
                 r.deadline_misses);
      CheckExact(diffs, &agreed, prefix + "aborted", p.aborted, r.aborted);
      CheckExact(diffs, &agreed, prefix + "unfinished", p.unfinished, r.unfinished);
      CheckNear(diffs, &agreed, prefix + "executed_work", p.executed_work,
                r.executed_work);
      CheckNear(diffs, &agreed, prefix + "max_response_ms", p.max_response_ms,
                r.max_response_ms);
      CheckNear(diffs, &agreed, prefix + "total_response_ms", p.total_response_ms,
                r.total_response_ms);
    }
  }
  return agreed;
}

std::vector<PropertyViolation> CheckMetamorphicProperties(const FuzzCase& c,
                                                          const SimResult& base) {
  std::vector<PropertyViolation> violations;

  // Property: exec energy >= the §3.2 theoretical bound for the actually
  // executed workload. Holds unconditionally — the bound is computed for
  // this run's own workload and horizon.
  if (base.exec_energy + 1e-9 < base.lower_bound_energy) {
    violations.push_back(
        {"energy-lower-bound",
         StrFormat("exec_energy %.12g < lower_bound %.12g", base.exec_energy,
                         base.lower_bound_energy)});
  }

  // Property: unscaled EDF costs at least as much as statically scaled EDF.
  // Theorem only when neither run misses or aborts (on overloaded sets the
  // slower static run can execute less work) and switching is free (static
  // pays one transition that noDVS does not).
  if (c.switch_time_ms == 0.0) {
    const SimResult no_dvs = c.policy_id == "edf" ? base : RunProduction(c, "edf");
    const SimResult scaled =
        c.policy_id == "static_edf" ? base : RunProduction(c, "static_edf");
    const bool guaranteed = no_dvs.deadline_misses == 0 && no_dvs.aborted == 0 &&
                            scaled.deadline_misses == 0 && scaled.aborted == 0 &&
                            no_dvs.unfinished_at_horizon == scaled.unfinished_at_horizon;
    if (guaranteed &&
        no_dvs.total_energy() + 1e-9 < scaled.total_energy() - 1e-9) {
      violations.push_back(
          {"nodvs-vs-static",
           StrFormat("E(edf) %.12g < E(static_edf) %.12g",
                           no_dvs.total_energy(), scaled.total_energy())});
    }
  }

  // Property: aggregate totals are invariant under reversing the task order.
  // Theorem for constant-speed policies (one operating point for the whole
  // run => work-conserving totals do not depend on intra-deadline ordering)
  // with a deterministic demand model (random models draw per release in
  // task-id order, so permuting ids permutes the drawn workloads) and
  // continue-late misses (aborting discards a DIFFERENT tardy job's
  // remaining work depending on tie order).
  if (c.tasks.size() >= 2 && IsConstantSpeedPolicy(c.policy_id) &&
      StartsWith(c.exec_spec, "c:") && c.miss_policy == MissPolicy::kContinueLate) {
    FuzzCase reversed = c;
    std::reverse(reversed.tasks.begin(), reversed.tasks.end());
    const SimResult swapped = RunProduction(reversed, c.policy_id);
    struct Total {
      const char* name;
      double base_value;
      double swapped_value;
    };
    const Total totals[] = {
        {"exec_energy", base.exec_energy, swapped.exec_energy},
        {"idle_energy", base.idle_energy, swapped.idle_energy},
        {"busy_ms", base.busy_ms, swapped.busy_ms},
        {"idle_ms", base.idle_ms, swapped.idle_ms},
        {"total_work_executed", base.total_work_executed,
         swapped.total_work_executed},
    };
    for (const Total& t : totals) {
      if (!NearEq(t.base_value, t.swapped_value, 1e-6, 1e-9)) {
        violations.push_back(
            {"task-reorder",
             std::string(t.name) + ": " +
                 StrFormat("original %.12g vs reversed %.12g", t.base_value,
                                 t.swapped_value)});
      }
    }
  }

  // Property: refining the frequency grid (inserting midpoints — a strict
  // superset of operating points) never increases total energy. Theorem for
  // constant-speed policies with free switching and continue-late misses:
  // the old operating point is still available, and every point the refined
  // run can pick instead is no faster than necessary and no higher-voltage.
  // NOT a theorem for the feedback policies (cc_*/la_*): greedy per-event
  // choices on a finer grid can land in costlier trajectories.
  if (c.machine_points.size() >= 2 && IsConstantSpeedPolicy(c.policy_id) &&
      c.switch_time_ms == 0.0 && c.miss_policy == MissPolicy::kContinueLate) {
    FuzzCase refined = c;
    refined.machine_points.clear();
    for (size_t i = 0; i < c.machine_points.size(); ++i) {
      if (i > 0) {
        const OperatingPoint& lo = c.machine_points[i - 1];
        const OperatingPoint& hi = c.machine_points[i];
        refined.machine_points.push_back(
            {(lo.frequency + hi.frequency) / 2.0, (lo.voltage + hi.voltage) / 2.0});
      }
      refined.machine_points.push_back(c.machine_points[i]);
    }
    const SimResult fine = RunProduction(refined, c.policy_id);
    if (fine.total_energy() > base.total_energy() + 1e-6) {
      violations.push_back(
          {"grid-refinement",
           StrFormat("refined grid %.12g > original %.12g",
                           fine.total_energy(), base.total_energy())});
    }
  }

  return violations;
}

std::string TrialOutcome::Describe() const {
  if (ok) {
    return "ok";
  }
  std::string out;
  for (const FieldDiff& d : diffs) {
    out += StrFormat("  diff %s: production=%.17g reference=%.17g\n", d.field.c_str(),
                     d.production, d.reference);
  }
  for (const PropertyViolation& v : violations) {
    out += "  property " + v.property + ": " + v.detail + "\n";
  }
  return out;
}

bool MpResultsAgree(const MpSimResult& production, const MpSimResult& reference,
                    std::vector<FieldDiff>* diffs) {
  bool agreed = true;
  CheckExact(diffs, &agreed, "num_cores", production.num_cores, reference.num_cores);
  CheckExact(diffs, &agreed, "admitted", production.admitted ? 1 : 0,
             reference.admitted ? 1 : 0);
  CheckExact(diffs, &agreed, "migrations", production.migrations,
             reference.migrations);
  CheckExact(diffs, &agreed, "partition.feasible", production.partition.feasible ? 1 : 0,
             reference.partition.feasible ? 1 : 0);
  CheckExact(diffs, &agreed, "partition.cores_used", production.partition.cores_used,
             reference.partition.cores_used);
  CheckExact(diffs, &agreed, "partition.core_of_task.size",
             static_cast<int64_t>(production.partition.core_of_task.size()),
             static_cast<int64_t>(reference.partition.core_of_task.size()));
  if (production.partition.core_of_task.size() ==
      reference.partition.core_of_task.size()) {
    for (size_t i = 0; i < production.partition.core_of_task.size(); ++i) {
      CheckExact(diffs, &agreed, StrFormat("partition.core_of_task[%zu]", i),
                 production.partition.core_of_task[i],
                 reference.partition.core_of_task[i]);
    }
  }
  // Infeasible runs carry no slices; the partition verdict above is the
  // whole comparison.
  if (!production.admitted || !reference.admitted) {
    return agreed;
  }

  auto compare_slice = [&](const std::string& prefix, const SimResult& p,
                           const SimResult& r) {
    std::vector<FieldDiff> slice_diffs;
    if (!ResultsAgree(p, r, diffs != nullptr ? &slice_diffs : nullptr)) {
      agreed = false;
    }
    if (diffs != nullptr) {
      for (FieldDiff& d : slice_diffs) {
        d.field = prefix + d.field;
        diffs->push_back(std::move(d));
      }
    }
  };
  compare_slice("cluster.", production.cluster, reference.cluster);
  CheckExact(diffs, &agreed, "cores.size",
             static_cast<int64_t>(production.cores.size()),
             static_cast<int64_t>(reference.cores.size()));
  if (production.cores.size() == reference.cores.size()) {
    for (size_t core = 0; core < production.cores.size(); ++core) {
      compare_slice(StrFormat("core[%zu].", core), production.cores[core],
                    reference.cores[core]);
    }
  }
  return agreed;
}

DifferentialRun RunDifferentialCase(const FuzzCase& c, const ReferenceFaults& faults) {
  DifferentialRun run;
  SimRequest request = FuzzSimRequest(c);
  auto production_model = MakeFuzzExecModel(c.exec_spec);
  auto reference_model = MakeFuzzExecModel(c.exec_spec);
  RTDVS_CHECK(production_model != nullptr) << "bad exec spec: " << c.exec_spec;
  run.production = RunClusterSimulation(request, *production_model);
  run.reference = RunReferenceClusterSimulation(request, *reference_model, faults);
  run.agreed = MpResultsAgree(run.production, run.reference, &run.diffs);
  return run;
}

TrialOutcome RunFuzzTrial(const FuzzCase& c, bool check_properties,
                          const ReferenceFaults& faults) {
  TrialOutcome outcome;
  DifferentialRun run = RunDifferentialCase(c, faults);
  outcome.diffs = std::move(run.diffs);
  // The metamorphic properties are single-core theorems; none of them holds
  // (or is even well-defined) for cluster schedules.
  if (check_properties && c.num_cores == 1) {
    outcome.violations = CheckMetamorphicProperties(c, run.production.cores[0]);
  }
  outcome.ok = run.agreed && outcome.violations.empty();
  return outcome;
}

}  // namespace rtdvs
