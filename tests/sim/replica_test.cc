// In global mode, cores whose policies replicate one another
// (DvsPolicy::IsReplicaOf: ccEDF, ccRM and laEDF) form a replica group: the
// group's first core runs each release and completion callback and the
// other cores apply its recorded requests and counter effects to their own
// speed controllers and counters. Each such cluster is run here against the
// same cluster behind forwarding wrappers, which keep the trait's default
// and so run every callback on every core. Both runs must agree exactly on
// every per-core slice field, the per-core policy counters, and every trace
// event and segment, with a 0.4 ms switch cost, on a light set (idle cores,
// so the cores' operating points drift apart) and an overloaded one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/dvs/cc_edf_policy.h"
#include "src/dvs/la_edf_policy.h"
#include "src/dvs/policy.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/testing/differential.h"
#include "tests/dvs/policy_pair.h"
#include "tests/sim/forwarding_policy.h"

namespace rtdvs {
namespace {

constexpr double kSwitchMs = 0.4;

// Total utilization 0.63: RM-schedulable at full speed (ccRM paces instead
// of degrading), and light enough that cores idle.
TaskSet LightTasks() {
  return TaskSet({{"a", 10.0, 2.0, 0.0},
                  {"b", 14.0, 3.0, 2.0},
                  {"c", 35.0, 5.0, 0.0},
                  {"d", 20.0, 1.5, 1.0}});
}

void ExpectSameSlice(const SimResult& real, const SimResult& wrapped) {
  std::vector<FieldDiff> diffs;
  EXPECT_TRUE(ResultsAgree(real, wrapped, &diffs));
  for (const FieldDiff& d : diffs) {
    ADD_FAILURE() << d.field << ": " << d.production << " vs " << d.reference;
  }
  // ResultsAgree allows rounding slack on the doubles; replicas allow none.
  EXPECT_EQ(real.exec_energy, wrapped.exec_energy);
  EXPECT_EQ(real.idle_energy, wrapped.idle_energy);
  EXPECT_EQ(real.busy_ms, wrapped.busy_ms);
  EXPECT_EQ(real.idle_ms, wrapped.idle_ms);
  EXPECT_EQ(real.switching_ms, wrapped.switching_ms);
  EXPECT_EQ(real.total_work_executed, wrapped.total_work_executed);
  EXPECT_TRUE(real.policy_counters == wrapped.policy_counters);
  EXPECT_EQ(real.policy_counters.speed_transitions, wrapped.policy_counters.speed_transitions);
  EXPECT_EQ(real.policy_counters.speed_change_requests,
            wrapped.policy_counters.speed_change_requests);
  ExpectSameTrace(real.trace, wrapped.trace);
}

// Runs `ids` with the real policies and behind wrappers on every core; the
// two must agree. Returns {real, wrapped}.
std::pair<MpSimResult, MpSimResult> ExpectReplicasInvisible(
    const SimRequest& request, const std::vector<std::string>& ids) {
  MpSimResult real = RunWith(request, ids, std::vector<bool>(ids.size(), false));
  MpSimResult wrapped = RunWith(request, ids, std::vector<bool>(ids.size(), true));
  std::vector<FieldDiff> diffs;
  EXPECT_TRUE(MpResultsAgree(real, wrapped, &diffs));
  for (const FieldDiff& d : diffs) {
    ADD_FAILURE() << d.field << ": " << d.production << " vs " << d.reference;
  }
  EXPECT_EQ(real.cluster.fastpath.context_builds, wrapped.cluster.fastpath.context_builds);
  ExpectSameTrace(real.cluster.trace, wrapped.cluster.trace);
  EXPECT_EQ(real.cores.size(), wrapped.cores.size());
  for (size_t c = 0; c < real.cores.size() && c < wrapped.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "core " << c);
    ExpectSameSlice(real.cores[c], wrapped.cores[c]);
  }
  return {std::move(real), std::move(wrapped)};
}

// Release and completion callbacks one core receives in a run without a
// server or aborts.
int64_t EventsPerCore(const MpSimResult& result) {
  return result.cluster.releases + result.cluster.completions;
}

TEST(ReplicaTest, EachPolicyMatchesPerCoreDecisions) {
  for (const char* id : {"cc_edf", "cc_rm", "la_edf"}) {
    for (int num_cores : {2, 3, 4}) {
      for (bool light : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << id << " M=" << num_cores << (light ? " light" : " heavy"));
        const SimRequest request =
            GlobalRequest(num_cores, light ? LightTasks() : FourCoreTasks(), kSwitchMs);
        const std::vector<std::string> ids(static_cast<size_t>(num_cores), id);
        const auto [real, wrapped] = ExpectReplicasInvisible(request, ids);
        // One group: the leader alone runs the callbacks.
        EXPECT_EQ(real.cluster.fastpath.event_callbacks, EventsPerCore(real));
        EXPECT_EQ(wrapped.cluster.fastpath.event_callbacks, num_cores * EventsPerCore(real));
        if (light) {
          // The last core mirrors every decision; it must have changed speed,
          // or the comparison above proves nothing about mirrored transitions.
          EXPECT_GT(real.cores.back().policy_counters.speed_transitions, 0);
          EXPECT_GT(real.cores.back().speed_switches, 0);
        }
      }
    }
  }
}

TEST(ReplicaTest, MixedClusterFormsOneGroupPerPolicy) {
  const std::vector<std::string> ids = {"cc_edf", "la_edf", "cc_edf", "la_edf"};
  for (bool light : {true, false}) {
    SCOPED_TRACE(light ? "light" : "heavy");
    const auto [real, wrapped] = ExpectReplicasInvisible(
        GlobalRequest(4, light ? LightTasks() : FourCoreTasks(), kSwitchMs), ids);
    // Cores 0 and 1 lead; cores 2 and 3 follow them.
    EXPECT_EQ(real.cluster.fastpath.event_callbacks, 2 * EventsPerCore(real));
    EXPECT_EQ(wrapped.cluster.fastpath.event_callbacks, 4 * EventsPerCore(real));
  }
}

TEST(ReplicaTest, GlobalLaEdfRunsAQuarterOfTheEventCallbacks) {
  const SimRequest request = GlobalRequest(4, FourCoreTasks(), kSwitchMs);
  const std::vector<std::string> ids(4, "la_edf");
  const MpSimResult real = RunWith(request, ids, std::vector<bool>(4, false));
  const MpSimResult wrapped = RunWith(request, ids, std::vector<bool>(4, true));
  EXPECT_GT(real.cluster.fastpath.event_callbacks, 100);
  EXPECT_EQ(4 * real.cluster.fastpath.event_callbacks, wrapped.cluster.fastpath.event_callbacks);

  // One core: no group can form, so nothing changes.
  const SimRequest one = GlobalRequest(1, LightTasks(), kSwitchMs);
  const MpSimResult real1 = RunWith(one, {"la_edf"}, {false});
  const MpSimResult wrapped1 = RunWith(one, {"la_edf"}, {true});
  EXPECT_EQ(real1.cluster.fastpath.event_callbacks, EventsPerCore(real1));
  EXPECT_EQ(real1.cluster.fastpath.event_callbacks, wrapped1.cluster.fastpath.event_callbacks);
}

TEST(ReplicaTest, ForwardingWrapperReceivesEveryCallbackOnEveryCore) {
  // Core 2's wrapper keeps the trait's default, so it stays out of the group
  // that core 0 leads and cores 1 and 3 follow.
  const SimRequest request = GlobalRequest(4, FourCoreTasks(), kSwitchMs);
  const std::vector<std::string> ids(4, "la_edf");
  std::vector<std::unique_ptr<DvsPolicy>> owned =
      MakeCorePolicies(ids, {false, false, true, false});
  const MpSimResult partly = RunOn(request, owned);
  const auto& wrapper = static_cast<const ForwardingPolicy&>(*owned[2]);
  EXPECT_EQ(wrapper.event_callbacks(), EventsPerCore(partly));
  EXPECT_EQ(partly.cluster.fastpath.event_callbacks, 2 * EventsPerCore(partly));

  std::vector<std::unique_ptr<DvsPolicy>> all_wrapped =
      MakeCorePolicies(ids, std::vector<bool>(4, true));
  const MpSimResult wrapped = RunOn(request, all_wrapped);
  for (const auto& policy : all_wrapped) {
    EXPECT_EQ(static_cast<const ForwardingPolicy&>(*policy).event_callbacks(),
              EventsPerCore(wrapped));
  }
  EXPECT_TRUE(MpResultsAgree(partly, wrapped, nullptr));
  for (size_t c = 0; c < partly.cores.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "core " << c);
    ExpectSameSlice(partly.cores[c], wrapped.cores[c]);
  }
}

TEST(ReplicaTest, TimerDrivenPoliciesNeverJoinAGroup) {
  class TimerDrivenCcEdf : public CcEdfPolicy {
   public:
    bool timer_driven() const override { return true; }
  };
  TimerDrivenCcEdf a;
  TimerDrivenCcEdf b;
  ASSERT_TRUE(b.IsReplicaOf(a));
  UniformFractionModel model(0.3, 1.0);
  const MpSimResult result =
      RunClusterSimulation(GlobalRequest(2, LightTasks(), kSwitchMs), {&a, &b}, model);
  EXPECT_EQ(result.cluster.fastpath.event_callbacks, 2 * EventsPerCore(result));
}

TEST(ReplicaTest, OneInstanceOnTwoCoresIsNotItsOwnReplica) {
  // Both cores call the one instance, as without groups; as its own
  // follower it would append to the effect log it was applying.
  LaEdfPolicy policy;
  UniformFractionModel model(0.3, 1.0);
  const MpSimResult result =
      RunClusterSimulation(GlobalRequest(2, LightTasks(), kSwitchMs), {&policy, &policy}, model);
  EXPECT_EQ(result.cluster.fastpath.event_callbacks, 2 * EventsPerCore(result));
}

TEST(ReplicaTest, CallerBoundLogOnAFollowerRecordsEveryEffect) {
  // Core 3 follows core 0. A log a caller binds on it must record exactly
  // what the same core's policy records when every core runs every callback
  // itself (the wrapped run, logged on the inner policy).
  for (const char* id : {"cc_edf", "la_edf"}) {
    SCOPED_TRACE(id);
    const SimRequest request = GlobalRequest(4, LightTasks(), kSwitchMs);
    const std::vector<std::string> ids(4, id);
    std::vector<std::unique_ptr<DvsPolicy>> real =
        MakeCorePolicies(ids, std::vector<bool>(4, false));
    std::vector<std::unique_ptr<DvsPolicy>> wrapped =
        MakeCorePolicies(ids, std::vector<bool>(4, true));
    std::vector<PolicyEffect> real_log;
    std::vector<PolicyEffect> wrapped_log;
    real[3]->set_effect_log(&real_log);
    static_cast<ForwardingPolicy&>(*wrapped[3]).inner().set_effect_log(&wrapped_log);
    RunOn(request, real);
    RunOn(request, wrapped);
    EXPECT_GT(real_log.size(), 100u);
    ExpectSameEffects(real_log, wrapped_log);
  }
}

TEST(ReplicaDeathTest, LeaderMustNotCarryACallerBoundLog) {
  // The host owns a leader's log, so core 0 may not bring one of its own.
  std::vector<std::unique_ptr<DvsPolicy>> policies =
      MakeCorePolicies({"la_edf", "la_edf"}, std::vector<bool>(2, false));
  std::vector<PolicyEffect> log;
  policies[0]->set_effect_log(&log);
  EXPECT_DEATH(RunOn(GlobalRequest(2, LightTasks(), kSwitchMs), policies),
               "leads a replica group");
}

TEST(ReplicaTest, OnlyTheObservingPaperPoliciesClaimTheTrait) {
  for (const char* id : {"cc_edf", "cc_rm", "la_edf"}) {
    EXPECT_TRUE(MakePolicy(id)->IsReplicaOf(*MakePolicy(id))) << id;
  }
  EXPECT_FALSE(MakePolicy("cc_edf")->IsReplicaOf(*MakePolicy("la_edf")));
  for (const char* id : {"edf", "rm", "static_edf", "static_rm", "static_rm_exact", "interval",
                         "stat_edf"}) {
    EXPECT_FALSE(MakePolicy(id)->IsReplicaOf(*MakePolicy(id))) << id;
  }
  ForwardingPolicy wrapper(MakePolicy("la_edf"));
  ForwardingPolicy other(MakePolicy("la_edf"));
  EXPECT_FALSE(wrapper.IsReplicaOf(other));
}

}  // namespace
}  // namespace rtdvs
