// Scheduling-point corner cases of the simulator's step loop: a job that
// needs no work completes at the next scheduling point without ever being
// dispatched, a backlogged invocation misses exactly at its task's next
// release (continue-late and abort), and releases that fall on the same
// instant are created in task-id order. Each case pins exact counts under
// EDF and RM and must agree with the reference oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/reference_sim.h"
#include "src/sim/simulator.h"
#include "src/testing/differential.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

struct Counts {
  int64_t releases = 0;
  int64_t completions = 0;
  int64_t misses = 0;
  int64_t aborted = 0;
  int64_t preemptions = 0;
  int64_t steps = 0;
};

std::string ToString(const Counts& c) {
  return StrFormat("{%lld, %lld, %lld, %lld, %lld, %lld}",
                   static_cast<long long>(c.releases),
                   static_cast<long long>(c.completions),
                   static_cast<long long>(c.misses),
                   static_cast<long long>(c.aborted),
                   static_cast<long long>(c.preemptions),
                   static_cast<long long>(c.steps));
}

void ExpectCounts(const SimResult& result, const Counts& want,
                  const std::string& label) {
  const Counts got{result.releases,      result.completions,
                   result.deadline_misses, result.aborted,
                   result.preemptions,   result.fastpath.steps};
  EXPECT_EQ(ToString(got), ToString(want)) << label;
}

using ModelFactory = std::function<std::unique_ptr<ExecTimeModel>()>;

// Runs production (with a trace) and the reference oracle on fresh models
// and policies; expects agreement and returns the production result.
SimResult RunAgreeing(const TaskSet& tasks, const std::string& policy_id,
                      const ModelFactory& make_model, SimOptions options) {
  options.record_trace = true;
  auto model = make_model();
  SimResult production =
      RunSimulation(tasks, MachineSpec::Machine0(), policy_id, *model, options);
  EXPECT_TRUE(production.audit.ok()) << policy_id;
  auto reference_model = make_model();
  SimResult reference = RunReferenceSimulation(
      tasks, MachineSpec::Machine0(), policy_id, *reference_model, options);
  std::vector<FieldDiff> diffs;
  EXPECT_TRUE(ResultsAgree(production, reference, &diffs))
      << policy_id << ": " << diffs.size() << " field(s) differ, first "
      << (diffs.empty() ? std::string() : diffs.front().field);
  return production;
}

// Time of the n-th (0-based) event of `kind` for `task`, or -1.
double NthEventMs(const SimResult& result, TraceEventKind kind, int task, int n) {
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind == kind && event.task_id == task && n-- == 0) {
      return event.time_ms;
    }
  }
  return -1;
}

// Invocation 0 of task "lo" draws fraction 1e-12: 2e-12 ms of work, under
// kWorkEps. It is released at t = 0 together with "hi", which outranks it
// under EDF (earlier deadline) and RM (shorter period), so it is never
// picked; it completes at the next scheduling point, hi's completion, in the
// same step and after hi. switch_time_ms > 0 makes a late completion
// visible: a speed change at hi's completion would halt the core first.
TEST(StepCornerCases, ZeroWorkJobCompletesAtNextSchedulingPointUndispatched) {
  const TaskSet tasks({{"hi", 10, 4, 0}, {"lo", 20, 2, 0}});
  const ModelFactory make_model = [] {
    return std::make_unique<TableFractionModel>(
        std::vector<std::vector<double>>{{1.0}, {1e-12, 1.0}});
  };
  const struct {
    const char* policy;
    Counts want;
  } cases[] = {
      {"edf", {12, 12, 0, 0, 0, 20}},
      {"cc_edf", {12, 10, 0, 0, 3, 16}},
      {"static_rm", {12, 10, 0, 0, 3, 16}},
      {"cc_rm", {12, 10, 0, 0, 3, 16}},
  };
  for (const auto& c : cases) {
    SimOptions options;
    options.horizon_ms = 75.0;
    options.switch_time_ms = 0.5;
    const SimResult result = RunAgreeing(tasks, c.policy, make_model, options);
    ExpectCounts(result, c.want, c.policy);
    const double hi_done = NthEventMs(result, TraceEventKind::kCompletion, 0, 0);
    const double lo_done = NthEventMs(result, TraceEventKind::kCompletion, 1, 0);
    EXPECT_GT(hi_done, 0.0) << c.policy;
    EXPECT_EQ(lo_done, hi_done) << c.policy;
    for (const TraceSegment& segment : result.trace.segments()) {
      if (segment.state == CpuState::kExecuting && segment.task_id == 1) {
        EXPECT_GE(segment.start_ms, lo_done) << c.policy;
      }
    }
    const auto& events = result.trace.events();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == TraceEventKind::kCompletion && events[i].task_id == 1) {
        ASSERT_GT(i, 0u);
        EXPECT_EQ(events[i - 1].kind, TraceEventKind::kCompletion) << c.policy;
        EXPECT_EQ(events[i - 1].task_id, 0) << c.policy;
        break;
      }
    }
  }
}

// U = 0.75 + 0.5 = 1.25: every run backlogs. Under continue-late a tardy
// invocation keeps running while the next one is released; under abort the
// tardy one is dropped at its deadline. Either way a miss is recorded
// exactly at a release of the same task (deadline = next release).
TEST(StepCornerCases, BackloggedInvocationMissesAtItsTasksNextRelease) {
  const TaskSet tasks({{"a", 4, 3, 0}, {"b", 10, 5, 0}});
  const ModelFactory make_model = [] {
    return std::make_unique<ConstantFractionModel>(1.0);
  };
  const struct {
    const char* policy;
    MissPolicy miss;
    Counts want;
  } cases[] = {
      {"edf", MissPolicy::kContinueLate, {70, 55, 65, 0, 1, 99}},
      {"cc_edf", MissPolicy::kContinueLate, {70, 55, 65, 0, 1, 99}},
      {"static_rm", MissPolicy::kContinueLate, {70, 59, 19, 0, 40, 111}},
      {"cc_rm", MissPolicy::kContinueLate, {70, 59, 19, 0, 40, 111}},
      {"edf", MissPolicy::kAbortJob, {70, 40, 29, 29, 20, 101}},
      {"cc_edf", MissPolicy::kAbortJob, {70, 40, 29, 29, 20, 101}},
      {"static_rm", MissPolicy::kAbortJob, {70, 50, 19, 19, 40, 111}},
      {"cc_rm", MissPolicy::kAbortJob, {70, 50, 19, 19, 40, 111}},
  };
  for (const auto& c : cases) {
    SimOptions options;
    options.horizon_ms = 200.0;
    options.miss_policy = c.miss;
    const std::string label =
        StrFormat("%s/%s", c.policy,
                  c.miss == MissPolicy::kAbortJob ? "abort" : "continue");
    const SimResult result = RunAgreeing(tasks, c.policy, make_model, options);
    ExpectCounts(result, c.want, label);
    for (const TraceEvent& miss : result.trace.events()) {
      if (miss.kind != TraceEventKind::kDeadlineMiss) {
        continue;
      }
      bool at_release = false;
      for (const TraceEvent& release : result.trace.events()) {
        at_release = at_release || (release.kind == TraceEventKind::kRelease &&
                                    release.task_id == miss.task_id &&
                                    release.time_ms == miss.time_ms);
      }
      EXPECT_TRUE(at_release) << label << " miss of task " << miss.task_id
                              << " at " << miss.time_ms;
    }
  }
}

// Task 1's first release is the double 0.3; task 0 (period 0.1) reaches
// 0.1 + 0.1 + 0.1 = 0.30000000000000004, within kTimeEpsMs of it, so both
// are released in the step at 0.3 although task 1 is due first. Releases
// (and so the demand draws) must follow task-id order, not due time. The
// second set has exactly coinciding releases at t = 6 and 12.
TEST(StepCornerCases, CoincidentReleasesFollowTaskIdOrder) {
  const ModelFactory make_model = [] {
    return std::make_unique<UniformFractionModel>(0.0, 1.0);
  };
  const struct {
    TaskSet tasks;
    double instant;
    double horizon;
  } sets[] = {
      {TaskSet({{"fast", 0.1, 0.02, 0}, {"late", 1.0, 0.3, 0.3}}), 0.3, 5.0},
      {TaskSet({{"x", 6, 1, 0}, {"y", 4, 1, 2}}), 6.0, 50.0},
  };
  const struct {
    const char* policy;
    Counts want[2];
  } cases[] = {
      {"edf", {{55, 55, 0, 0, 6, 106}, {21, 21, 0, 0, 0, 39}}},
      {"cc_edf", {{55, 55, 0, 0, 17, 106}, {21, 21, 0, 0, 0, 39}}},
      {"static_rm", {{55, 55, 0, 0, 17, 106}, {21, 21, 0, 0, 0, 39}}},
      {"cc_rm", {{55, 55, 0, 0, 17, 106}, {21, 21, 0, 0, 0, 39}}},
  };
  for (const auto& c : cases) {
    for (size_t s = 0; s < 2; ++s) {
      SimOptions options;
      options.horizon_ms = sets[s].horizon;
      options.seed = 3;
      const std::string label = StrFormat("%s/set%zu", c.policy, s);
      const SimResult result =
          RunAgreeing(sets[s].tasks, c.policy, make_model, options);
      ExpectCounts(result, c.want[s], label);
      std::vector<int> order;
      for (const TraceEvent& event : result.trace.events()) {
        if (event.kind == TraceEventKind::kRelease &&
            event.time_ms > sets[s].instant - 1e-6 &&
            event.time_ms < sets[s].instant + 1e-6) {
          order.push_back(event.task_id);
        }
      }
      EXPECT_EQ(order, (std::vector<int>{0, 1})) << label;
    }
  }
}

}  // namespace
}  // namespace rtdvs
