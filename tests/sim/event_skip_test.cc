// The fixed-speed policies (plain EDF/RM and the §2.3 static scalers) do
// not observe events (DvsPolicy::observes_events), so the simulator skips
// the context build and the callback fan-out on every step after OnStart.
// Each is run here against a forwarding wrapper that keeps the trait's
// default, so the wrapped run takes every callback round the skip drops.
// Both runs must agree on every result field, every trace event and every
// trace segment, with a switch cost, at M = 1 with and without a polling
// server, on a 4-core global cluster, and on a global cluster whose cores
// mix a fixed-speed policy with laEDF. The trace comparison also catches a
// skip that loses a kIdleStart event or an idle-state update.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/no_dvs_policy.h"
#include "src/dvs/policy.h"
#include "src/engine/trace.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/testing/differential.h"
#include "tests/sim/forwarding_policy.h"

namespace rtdvs {
namespace {

const std::vector<std::string>& FixedSpeedIds() {
  static const std::vector<std::string> kIds = {"edf", "rm", "static_edf", "static_rm",
                                                "static_rm_exact"};
  return kIds;
}

// The run with the real policies must match the run with `wrap` applied,
// field for field and trace for trace. Returns the real run.
MpSimResult ExpectSkipInvisible(const SimRequest& request,
                                const std::vector<std::string>& ids,
                                const std::vector<bool>& wrap) {
  const MpSimResult skipped = RunWith(request, ids, std::vector<bool>(ids.size(), false));
  const MpSimResult wrapped = RunWith(request, ids, wrap);
  std::vector<FieldDiff> diffs;
  EXPECT_TRUE(MpResultsAgree(skipped, wrapped, &diffs));
  for (const FieldDiff& d : diffs) {
    ADD_FAILURE() << d.field << ": " << d.production << " vs " << d.reference;
  }
  ExpectSameTrace(skipped.cluster.trace, wrapped.cluster.trace);
  EXPECT_EQ(skipped.cores.size(), wrapped.cores.size());
  for (size_t c = 0; c < skipped.cores.size() && c < wrapped.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "core " << c);
    EXPECT_TRUE(ResultsAgree(skipped.cores[c], wrapped.cores[c], nullptr));
    ExpectSameTrace(skipped.cores[c].trace, wrapped.cores[c].trace);
  }
  return skipped;
}

int CountEvents(const Trace& trace, TraceEventKind kind) {
  int count = 0;
  for (const TraceEvent& event : trace.events()) {
    count += event.kind == kind ? 1 : 0;
  }
  return count;
}

SimRequest BaseRequest(int num_cores, TaskSet tasks) {
  return GlobalRequest(num_cores, std::move(tasks), 0.3);
}

// Non-harmonic periods and a phase: idle intervals and preemptions under
// every scheduler.
TaskSet OneCoreTasks() {
  return TaskSet({{"a", 10.0, 2.0, 0.0}, {"b", 14.0, 3.0, 2.0}, {"c", 35.0, 5.0, 0.0}});
}

TEST(EventSkipTest, OneCore) {
  for (const std::string& id : FixedSpeedIds()) {
    SCOPED_TRACE(id);
    const MpSimResult result = ExpectSkipInvisible(BaseRequest(1, OneCoreTasks()), {id}, {true});
    EXPECT_EQ(result.cluster.fastpath.context_builds, 1);
    EXPECT_GT(CountEvents(result.cores[0].trace, TraceEventKind::kIdleStart), 1);
  }
}

TEST(EventSkipTest, OneCoreWithPollingServer) {
  for (const std::string& id : FixedSpeedIds()) {
    SCOPED_TRACE(id);
    SimRequest request = BaseRequest(1, OneCoreTasks());
    request.options.aperiodic.kind = ServerKind::kPolling;
    request.options.aperiodic.period_ms = 12.0;
    request.options.aperiodic.budget_ms = 1.5;
    request.options.aperiodic.arrivals.mean_interarrival_ms = 20.0;
    const MpSimResult result = ExpectSkipInvisible(request, {id}, {true});
    EXPECT_GT(result.cluster.aperiodic.completions, 0);
    EXPECT_EQ(result.cluster.fastpath.context_builds, 1);
  }
}

TEST(EventSkipTest, FourCoreGlobal) {
  for (const std::string& id : FixedSpeedIds()) {
    SCOPED_TRACE(id);
    const MpSimResult result = ExpectSkipInvisible(
        BaseRequest(4, FourCoreTasks()), {id, id, id, id}, {true, true, true, true});
    EXPECT_EQ(result.cluster.fastpath.context_builds, 1);
  }
}

TEST(EventSkipTest, MixedCoresKeepEveryCallbackRound) {
  // laEDF observes events, so every round runs and reaches the fixed-speed
  // core too; wrapping that core changes nothing, not even the build count.
  const SimRequest request = BaseRequest(2, OneCoreTasks());
  const MpSimResult skipped = ExpectSkipInvisible(request, {"edf", "la_edf"}, {true, false});
  const MpSimResult wrapped = RunWith(request, {"edf", "la_edf"}, {true, false});
  EXPECT_GT(skipped.cluster.fastpath.context_builds, 1);
  EXPECT_EQ(skipped.cluster.fastpath.context_builds, wrapped.cluster.fastpath.context_builds);
}

TEST(EventSkipTest, WrappedFixedSpeedPolicyBuildsEveryRound) {
  // The wrapper keeps the default trait, so its run pays every round the
  // real policy skips.
  const SimRequest request = BaseRequest(1, OneCoreTasks());
  const MpSimResult wrapped = RunWith(request, {"static_edf"}, {true});
  EXPECT_GT(wrapped.cluster.fastpath.context_builds, 10);
}

TEST(EventSkipTest, OnlyTheFixedSpeedPoliciesSkip) {
  for (const std::string& id : FixedSpeedIds()) {
    const std::unique_ptr<DvsPolicy> policy = MakePolicy(id);
    EXPECT_FALSE(policy->observes_events()) << id;
    // The trait's contract: the idle callback is a no-op and nothing polls.
    EXPECT_FALSE(policy->lowers_speed_when_idle()) << id;
    EXPECT_FALSE(policy->timer_driven()) << id;
  }
  for (const char* id : {"cc_edf", "cc_rm", "la_edf", "interval", "stat_edf"}) {
    EXPECT_TRUE(MakePolicy(id)->observes_events()) << id;
  }
}

// A policy that claims to ignore events must not be timer-driven: the skip
// would drop its NextWakeupMs poll, so the simulator refuses to run it.
TEST(EventSkipDeathTest, TimerDrivenPolicyMustObserveEvents) {
  class TimerDrivenNoDvs : public NoDvsPolicy {
   public:
    TimerDrivenNoDvs() : NoDvsPolicy(SchedulerKind::kEdf) {}
    bool timer_driven() const override { return true; }
  };
  TimerDrivenNoDvs policy;
  UniformFractionModel model(0.3, 1.0);
  EXPECT_DEATH(RunClusterSimulation(BaseRequest(1, OneCoreTasks()), {&policy}, model),
               "CHECK failed");
}

TEST(EventSkipTest, ObservingPoliciesBuildOncePerCallbackRound) {
  // Pinned counts: the build ahead of OnStart plus one per step with a
  // release, completion or idle transition (M = 1), or per idle notification
  // and callback round (M = 4). The skip must leave these policies' rounds
  // as they were.
  struct Case {
    const char* id;
    int num_cores;
    int64_t builds;
  };
  for (const Case& c : {Case{"cc_edf", 1, 151}, Case{"cc_rm", 1, 151}, Case{"la_edf", 1, 151},
                        Case{"cc_edf", 4, 481}, Case{"cc_rm", 4, 482},
                        Case{"la_edf", 4, 481}}) {
    SCOPED_TRACE(testing::Message() << c.id << " M=" << c.num_cores);
    const SimRequest request =
        BaseRequest(c.num_cores, c.num_cores == 1 ? OneCoreTasks() : FourCoreTasks());
    const std::vector<std::string> ids(static_cast<size_t>(c.num_cores), c.id);
    const MpSimResult result = RunWith(request, ids, std::vector<bool>(ids.size(), false));
    EXPECT_EQ(result.cluster.fastpath.context_builds, c.builds);
  }
}

}  // namespace
}  // namespace rtdvs
