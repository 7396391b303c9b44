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
#include <optional>
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

namespace rtdvs {
namespace {

// Forwards everything to `inner` but keeps observes_events() at its
// default, so hosts deliver every callback round to it.
class ForwardingPolicy : public DvsPolicy {
 public:
  explicit ForwardingPolicy(std::unique_ptr<DvsPolicy> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  SchedulerKind scheduler_kind() const override { return inner_->scheduler_kind(); }
  bool lowers_speed_when_idle() const override { return inner_->lowers_speed_when_idle(); }
  bool guarantees_deadlines() const override { return inner_->guarantees_deadlines(); }
  bool timer_driven() const override { return inner_->timer_driven(); }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override {
    inner_->OnStart(ctx, speed);
    counters_ = inner_->counters();
  }
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override {
    inner_->OnTaskRelease(task_id, ctx, speed);
    counters_ = inner_->counters();
  }
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override {
    inner_->OnTaskCompletion(task_id, ctx, speed);
    counters_ = inner_->counters();
  }
  void OnIdle(const PolicyContext& ctx, SpeedController& speed) override {
    inner_->OnIdle(ctx, speed);
    counters_ = inner_->counters();
  }
  std::optional<double> NextWakeupMs(const PolicyContext& ctx) override {
    return inner_->NextWakeupMs(ctx);
  }
  void OnWakeup(const PolicyContext& ctx, SpeedController& speed) override {
    inner_->OnWakeup(ctx, speed);
    counters_ = inner_->counters();
  }

 private:
  std::unique_ptr<DvsPolicy> inner_;
};

const std::vector<std::string>& FixedSpeedIds() {
  static const std::vector<std::string> kIds = {"edf", "rm", "static_edf", "static_rm",
                                                "static_rm_exact"};
  return kIds;
}

// Runs `request` with one policy per core; `wrap[c]` puts core c's policy
// behind a ForwardingPolicy.
MpSimResult RunWith(const SimRequest& request, const std::vector<std::string>& ids,
                    const std::vector<bool>& wrap) {
  std::vector<std::unique_ptr<DvsPolicy>> owned;
  std::vector<DvsPolicy*> policies;
  for (size_t c = 0; c < ids.size(); ++c) {
    std::unique_ptr<DvsPolicy> policy = MakePolicy(ids[c]);
    if (wrap[c]) {
      policy = std::make_unique<ForwardingPolicy>(std::move(policy));
    }
    policies.push_back(policy.get());
    owned.push_back(std::move(policy));
  }
  UniformFractionModel model(0.3, 1.0);
  return RunClusterSimulation(request, policies, model);
}

void ExpectSameTrace(const Trace& skipped, const Trace& wrapped) {
  ASSERT_EQ(skipped.events().size(), wrapped.events().size());
  for (size_t i = 0; i < skipped.events().size(); ++i) {
    const TraceEvent& a = skipped.events()[i];
    const TraceEvent& b = wrapped.events()[i];
    EXPECT_EQ(a.time_ms, b.time_ms) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.task_id, b.task_id) << "event " << i;
    EXPECT_TRUE(a.point == b.point) << "event " << i;
  }
  ASSERT_EQ(skipped.segments().size(), wrapped.segments().size());
  for (size_t i = 0; i < skipped.segments().size(); ++i) {
    const TraceSegment& a = skipped.segments()[i];
    const TraceSegment& b = wrapped.segments()[i];
    EXPECT_EQ(a.start_ms, b.start_ms) << "segment " << i;
    EXPECT_EQ(a.end_ms, b.end_ms) << "segment " << i;
    EXPECT_EQ(a.state, b.state) << "segment " << i;
    EXPECT_EQ(a.task_id, b.task_id) << "segment " << i;
    EXPECT_TRUE(a.point == b.point) << "segment " << i;
  }
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
  SimRequest request;
  request.tasks = std::move(tasks);
  request.cluster.num_cores = num_cores;
  request.cluster.machine = MachineSpec::Machine1();
  request.mode = MpMode::kGlobal;
  request.options.horizon_ms = 400.0;
  request.options.idle_level = 0.1;
  request.options.switch_time_ms = 0.3;
  request.options.record_trace = true;
  request.options.seed = 11;
  return request;
}

// Non-harmonic periods and a phase: idle intervals and preemptions under
// every scheduler.
TaskSet OneCoreTasks() {
  return TaskSet({{"a", 10.0, 2.0, 0.0}, {"b", 14.0, 3.0, 2.0}, {"c", 35.0, 5.0, 0.0}});
}

TaskSet FourCoreTasks() {
  return TaskSet({{"a", 10.0, 4.0, 0.0},
                  {"b", 14.0, 6.0, 2.0},
                  {"c", 35.0, 12.0, 0.0},
                  {"d", 20.0, 5.0, 1.0},
                  {"e", 25.0, 9.0, 0.0},
                  {"f", 8.0, 2.0, 3.0},
                  {"g", 50.0, 15.0, 0.0}});
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
