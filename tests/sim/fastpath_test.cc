// Hot-path coverage for the production simulator: every paper policy x
// exec-model family x machine, plus the switch-cost/abort/trace regimes,
// must agree bit for bit with the reference oracle (src/sim/reference_sim.h,
// ResultsAgree), which steps without idle skipping; idle skipping must
// actually engage, on periodic and aperiodic-server runs alike; and the
// JobPool arena must not change any result.
//
// The comparisons here are bitwise (memcmp of the double patterns), not
// EXPECT_NEAR: a one-ulp drift is a real failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/job_pool.h"
#include "src/rt/task.h"
#include "src/sim/reference_sim.h"
#include "src/sim/simulator.h"
#include "src/testing/differential.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_EQ(Bits(a), Bits(b)) << #a " = " << (a) << " vs " << (b)

// Bitwise equality over every SimResult field EXCEPT FastPathStats (which
// is execution diagnostics) — see metrics.h.
void ExpectBitIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_SAME_BITS(a.horizon_ms, b.horizon_ms);
  EXPECT_SAME_BITS(a.exec_energy, b.exec_energy);
  EXPECT_SAME_BITS(a.idle_energy, b.idle_energy);
  EXPECT_SAME_BITS(a.busy_ms, b.busy_ms);
  EXPECT_SAME_BITS(a.idle_ms, b.idle_ms);
  EXPECT_SAME_BITS(a.switching_ms, b.switching_ms);
  EXPECT_SAME_BITS(a.total_work_executed, b.total_work_executed);
  EXPECT_EQ(a.releases, b.releases);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.unfinished_at_horizon, b.unfinished_at_horizon);
  EXPECT_EQ(a.wcet_overruns, b.wcet_overruns);
  EXPECT_EQ(a.speed_switches, b.speed_switches);
  EXPECT_EQ(a.preemptions, b.preemptions);

  EXPECT_EQ(a.policy_counters.speed_change_requests,
            b.policy_counters.speed_change_requests);
  EXPECT_EQ(a.policy_counters.speed_transitions,
            b.policy_counters.speed_transitions);
  EXPECT_EQ(a.policy_counters.slack_completions,
            b.policy_counters.slack_completions);
  EXPECT_SAME_BITS(a.policy_counters.slack_reclaimed_ms,
                   b.policy_counters.slack_reclaimed_ms);
  EXPECT_EQ(a.policy_counters.deferral_decisions,
            b.policy_counters.deferral_decisions);
  EXPECT_SAME_BITS(a.policy_counters.work_deferred_ms,
                   b.policy_counters.work_deferred_ms);
  EXPECT_EQ(a.policy_counters.utilization_samples,
            b.policy_counters.utilization_samples);
  EXPECT_SAME_BITS(a.policy_counters.utilization_sum,
                   b.policy_counters.utilization_sum);

  EXPECT_SAME_BITS(a.lower_bound_energy, b.lower_bound_energy);

  ASSERT_EQ(a.residency.size(), b.residency.size());
  for (size_t i = 0; i < a.residency.size(); ++i) {
    EXPECT_SAME_BITS(a.residency[i].point.frequency,
                     b.residency[i].point.frequency);
    EXPECT_SAME_BITS(a.residency[i].exec_ms, b.residency[i].exec_ms);
    EXPECT_SAME_BITS(a.residency[i].idle_ms, b.residency[i].idle_ms);
    EXPECT_SAME_BITS(a.residency[i].exec_energy, b.residency[i].exec_energy);
    EXPECT_SAME_BITS(a.residency[i].idle_energy, b.residency[i].idle_energy);
  }

  ASSERT_EQ(a.task_stats.size(), b.task_stats.size());
  for (size_t i = 0; i < a.task_stats.size(); ++i) {
    EXPECT_EQ(a.task_stats[i].releases, b.task_stats[i].releases);
    EXPECT_EQ(a.task_stats[i].completions, b.task_stats[i].completions);
    EXPECT_EQ(a.task_stats[i].deadline_misses,
              b.task_stats[i].deadline_misses);
    EXPECT_EQ(a.task_stats[i].aborted, b.task_stats[i].aborted);
    EXPECT_EQ(a.task_stats[i].unfinished, b.task_stats[i].unfinished);
    EXPECT_SAME_BITS(a.task_stats[i].executed_work,
                     b.task_stats[i].executed_work);
    EXPECT_SAME_BITS(a.task_stats[i].max_response_ms,
                     b.task_stats[i].max_response_ms);
    EXPECT_SAME_BITS(a.task_stats[i].total_response_ms,
                     b.task_stats[i].total_response_ms);
  }

  ASSERT_EQ(a.trace.segments().size(), b.trace.segments().size());
  for (size_t i = 0; i < a.trace.segments().size(); ++i) {
    EXPECT_SAME_BITS(a.trace.segments()[i].start_ms,
                     b.trace.segments()[i].start_ms);
    EXPECT_SAME_BITS(a.trace.segments()[i].end_ms,
                     b.trace.segments()[i].end_ms);
    EXPECT_EQ(a.trace.segments()[i].state, b.trace.segments()[i].state);
    EXPECT_EQ(a.trace.segments()[i].task_id, b.trace.segments()[i].task_id);
  }
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
  EXPECT_EQ(a.trace.truncated(), b.trace.truncated());

  EXPECT_EQ(a.audit.audited, b.audit.audited);
  EXPECT_EQ(a.audit.checks_run, b.audit.checks_run);
  EXPECT_EQ(a.audit.checks_skipped, b.audit.checks_skipped);
  EXPECT_EQ(a.audit.skip_reasons, b.audit.skip_reasons);
  EXPECT_EQ(a.audit.violations.size(), b.audit.violations.size());
}

// One scenario of the oracle matrix: rebuilt fresh per run (policies
// and exec models are mutated by Run()).
struct Scenario {
  TaskSet tasks;
  MachineSpec machine = MachineSpec::Machine0();
  std::string policy_id = "cc_edf";
  std::string exec_kind = "const1";
  SimOptions options;
};

std::unique_ptr<ExecTimeModel> MakeModel(const std::string& kind) {
  if (kind == "const1") {
    return std::make_unique<ConstantFractionModel>(1.0);
  }
  if (kind == "const_half") {
    return std::make_unique<ConstantFractionModel>(0.5);
  }
  if (kind == "uniform") {
    return std::make_unique<UniformFractionModel>(0.3, 1.0);
  }
  if (kind == "bimodal") {
    return std::make_unique<BimodalFractionModel>(0.4, 0.1);
  }
  if (kind == "cold") {
    return std::make_unique<ColdStartModel>(
        std::make_unique<UniformFractionModel>(0.2, 0.9), 1.5,
        /*allow_overrun=*/true);
  }
  ADD_FAILURE() << "unknown exec model kind " << kind;
  return std::make_unique<ConstantFractionModel>(1.0);
}

SimResult RunScenario(const Scenario& s) {
  std::unique_ptr<ExecTimeModel> model = MakeModel(s.exec_kind);
  return RunSimulation(s.tasks, s.machine, s.policy_id, *model, s.options);
}

void ExpectAgreesWithReference(const Scenario& s) {
  SCOPED_TRACE(s.policy_id + " x " + s.exec_kind + " x " + s.machine.name());
  const SimResult production = RunScenario(s);
  std::unique_ptr<ExecTimeModel> model = MakeModel(s.exec_kind);
  const SimResult reference = RunReferenceSimulation(
      s.tasks, s.machine, s.policy_id, *model, s.options);
  std::vector<FieldDiff> diffs;
  EXPECT_TRUE(ResultsAgree(production, reference, &diffs));
  for (const FieldDiff& d : diffs) {
    ADD_FAILURE() << StrFormat("%s: production=%.17g reference=%.17g",
                               d.field.c_str(), d.production, d.reference);
  }
}

// A mixed-regime task set: non-harmonic periods, a phase, enough slack for
// idle intervals to occur under every policy.
TaskSet MixedTasks() {
  return TaskSet({{"a", 10.0, 2.0, 0.0},
                  {"b", 14.0, 3.0, 2.0},
                  {"c", 35.0, 5.0, 0.0}});
}

// Every paper policy x every exec-model family x machines 0-2.
TEST(FastPathEquivalence, EveryPolicyEveryExecModelEveryMachine) {
  const std::vector<MachineSpec> machines = {MachineSpec::Machine0(),
                                             MachineSpec::Machine1(),
                                             MachineSpec::Machine2()};
  const std::vector<std::string> exec_kinds = {"const1", "const_half",
                                               "uniform", "bimodal", "cold"};
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    for (const std::string& exec_kind : exec_kinds) {
      for (const MachineSpec& machine : machines) {
        Scenario s;
        s.tasks = MixedTasks();
        s.machine = machine;
        s.policy_id = policy_id;
        s.exec_kind = exec_kind;
        s.options.horizon_ms = 300.0;
        s.options.idle_level = 0.1;
        s.options.seed = 7;
        ExpectAgreesWithReference(s);
      }
    }
  }
}

// Regime variations: switch cost (halts on the busy and the idle path),
// abort-on-miss, and recorded traces (the oracle ignores traces; recording
// must not change any other result).
TEST(FastPathEquivalence, SwitchCostAbortMissAndTraceRegimes) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    Scenario s;
    s.tasks = MixedTasks();
    s.policy_id = policy_id;
    s.options.horizon_ms = 300.0;
    s.options.switch_time_ms = 0.4;
    s.options.miss_policy = MissPolicy::kAbortJob;
    s.options.record_trace = true;
    ExpectAgreesWithReference(s);
  }
}

// --- Idle skip ---

TEST(IdleSkip, EngagesOnLowUtilizationAndStaysBitIdentical) {
  Scenario s;
  s.tasks = TaskSet({{"sparse", 50.0, 2.0, 0.0}});
  s.policy_id = "cc_edf";
  s.options.horizon_ms = 1000.0;
  s.options.idle_level = 0.2;
  const SimResult result = RunScenario(s);
  EXPECT_GT(result.fastpath.idle_skips, 0);
  EXPECT_GT(result.fastpath.idle_skipped_ms, 0.0);
  ExpectAgreesWithReference(s);
}

TEST(IdleSkip, EngagesOnPollingServerRuns) {
  // A polling server retires its job as soon as its queue is empty, so
  // sparse arrivals leave intervals with no job at all.
  Scenario s;
  s.tasks = TaskSet({{"sparse", 50.0, 2.0, 0.0}});
  s.policy_id = "cc_edf";
  s.options.horizon_ms = 1000.0;
  s.options.aperiodic.kind = ServerKind::kPolling;
  s.options.aperiodic.period_ms = 10.0;
  s.options.aperiodic.budget_ms = 1.0;
  s.options.aperiodic.arrivals.mean_interarrival_ms = 40.0;
  const SimResult result = RunScenario(s);
  EXPECT_GT(result.aperiodic.completions, 0);
  EXPECT_GT(result.fastpath.idle_skips, 0);
  EXPECT_GT(result.fastpath.idle_skipped_ms, 0.0);
}

// --- Arena (JobPool) ---

TEST(JobPoolArena, PooledAndPlainRunsAreBitIdentical) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    SCOPED_TRACE(policy_id);
    Scenario s;
    s.tasks = MixedTasks();
    s.policy_id = policy_id;
    s.exec_kind = "uniform";
    s.options.horizon_ms = 300.0;
    s.options.record_trace = true;
    const SimResult plain = RunScenario(s);
    JobPool pool;
    s.options.job_pool = &pool;
    // Two pooled runs back to back: the second reuses the recycled block.
    const SimResult pooled_first = RunScenario(s);
    const SimResult pooled_second = RunScenario(s);
    ExpectBitIdentical(plain, pooled_first);
    ExpectBitIdentical(plain, pooled_second);
  }
}

// Regression for the arena migration: the trace capacity limit must count
// arena-backed segments identically — same truncation point, same audit
// skip reasons, with the pool wired in or not.
TEST(JobPoolArena, TraceTruncationAccountingUnchanged) {
  Scenario s;
  s.tasks = MixedTasks();
  s.policy_id = "cc_edf";
  s.options.horizon_ms = 300.0;
  s.options.record_trace = true;
  s.options.max_trace_segments = 16;  // far below the run's segment count
  const SimResult plain = RunScenario(s);
  JobPool pool;
  s.options.job_pool = &pool;
  const SimResult pooled = RunScenario(s);

  EXPECT_TRUE(plain.trace.truncated());
  // Contiguous-identical segments merge, so the stored count can sit under
  // the capacity limit; what matters is that it is the same count, and the
  // same truncation flag, with or without the pool.
  EXPECT_LE(plain.trace.segments().size(), 16u);
  ExpectBitIdentical(plain, pooled);
  // The audit must report the narrowed coverage, not silently shrink.
  bool saw_truncation_skip = false;
  for (const std::string& reason : pooled.audit.skip_reasons) {
    if (reason.find("truncated") != std::string::npos) {
      saw_truncation_skip = true;
    }
  }
  EXPECT_TRUE(saw_truncation_skip);
}

}  // namespace
}  // namespace rtdvs
