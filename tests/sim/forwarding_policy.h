// A forwarding DvsPolicy wrapper that keeps every host trait at its
// default, and cluster-run helpers around it. A run whose policies sit
// behind the wrapper takes every callback round and every per-core callback
// that the simulator's shortcuts (DvsPolicy::observes_events,
// DvsPolicy::IsReplicaOf) drop for the real policies, so the two runs must
// agree bit for bit.
#ifndef TESTS_SIM_FORWARDING_POLICY_H_
#define TESTS_SIM_FORWARDING_POLICY_H_

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/trace.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"

namespace rtdvs {

// Forwards everything to `inner` but keeps observes_events() and
// IsReplicaOf() at their defaults, so hosts deliver every callback round to
// it, on every core.
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
    ++event_callbacks_;
    inner_->OnTaskRelease(task_id, ctx, speed);
    counters_ = inner_->counters();
  }
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override {
    ++event_callbacks_;
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

  DvsPolicy& inner() { return *inner_; }
  // OnTaskRelease and OnTaskCompletion calls this wrapper received.
  int64_t event_callbacks() const { return event_callbacks_; }

 private:
  std::unique_ptr<DvsPolicy> inner_;
  int64_t event_callbacks_ = 0;
};

// One policy per core, made from ids[c]; `wrap[c]` puts core c's policy
// behind a ForwardingPolicy.
inline std::vector<std::unique_ptr<DvsPolicy>> MakeCorePolicies(
    const std::vector<std::string>& ids, const std::vector<bool>& wrap) {
  std::vector<std::unique_ptr<DvsPolicy>> owned;
  for (size_t c = 0; c < ids.size(); ++c) {
    std::unique_ptr<DvsPolicy> policy = MakePolicy(ids[c]);
    if (wrap[c]) {
      policy = std::make_unique<ForwardingPolicy>(std::move(policy));
    }
    owned.push_back(std::move(policy));
  }
  return owned;
}

// Runs `request` on `owned`, one policy per core, with a fixed demand model.
inline MpSimResult RunOn(const SimRequest& request,
                         const std::vector<std::unique_ptr<DvsPolicy>>& owned) {
  std::vector<DvsPolicy*> policies;
  for (const auto& policy : owned) {
    policies.push_back(policy.get());
  }
  UniformFractionModel model(0.3, 1.0);
  return RunClusterSimulation(request, policies, model);
}

inline MpSimResult RunWith(const SimRequest& request, const std::vector<std::string>& ids,
                           const std::vector<bool>& wrap) {
  return RunOn(request, MakeCorePolicies(ids, wrap));
}

inline void ExpectSameTrace(const Trace& real, const Trace& wrapped) {
  ASSERT_EQ(real.events().size(), wrapped.events().size());
  for (size_t i = 0; i < real.events().size(); ++i) {
    const TraceEvent& a = real.events()[i];
    const TraceEvent& b = wrapped.events()[i];
    EXPECT_EQ(a.time_ms, b.time_ms) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.task_id, b.task_id) << "event " << i;
    EXPECT_TRUE(a.point == b.point) << "event " << i;
  }
  ASSERT_EQ(real.segments().size(), wrapped.segments().size());
  for (size_t i = 0; i < real.segments().size(); ++i) {
    const TraceSegment& a = real.segments()[i];
    const TraceSegment& b = wrapped.segments()[i];
    EXPECT_EQ(a.start_ms, b.start_ms) << "segment " << i;
    EXPECT_EQ(a.end_ms, b.end_ms) << "segment " << i;
    EXPECT_EQ(a.state, b.state) << "segment " << i;
    EXPECT_EQ(a.task_id, b.task_id) << "segment " << i;
    EXPECT_TRUE(a.point == b.point) << "segment " << i;
  }
}

// A request for a global cluster of `num_cores` cores over `tasks`, with a
// switch cost and a recorded trace.
inline SimRequest GlobalRequest(int num_cores, TaskSet tasks, double switch_time_ms) {
  SimRequest request;
  request.tasks = std::move(tasks);
  request.cluster.num_cores = num_cores;
  request.cluster.machine = MachineSpec::Machine1();
  request.mode = MpMode::kGlobal;
  request.options.horizon_ms = 400.0;
  request.options.idle_level = 0.1;
  request.options.switch_time_ms = switch_time_ms;
  request.options.record_trace = true;
  request.options.seed = 11;
  return request;
}

// Non-harmonic periods and phases: idle intervals, preemptions and
// migrations on up to four cores.
inline TaskSet FourCoreTasks() {
  return TaskSet({{"a", 10.0, 4.0, 0.0},
                  {"b", 14.0, 6.0, 2.0},
                  {"c", 35.0, 12.0, 0.0},
                  {"d", 20.0, 5.0, 1.0},
                  {"e", 25.0, 9.0, 0.0},
                  {"f", 8.0, 2.0, 3.0},
                  {"g", 50.0, 15.0, 0.0}});
}

}  // namespace rtdvs

#endif  // TESTS_SIM_FORWARDING_POLICY_H_
