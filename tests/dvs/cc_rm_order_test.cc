// ccRM finds the earliest deadline in the same pass that applies executed
// work. These tests drive CcRmPolicy and a reference copy of the multi-pass
// implementation (Sync, then AllocateCycles and SelectFrequency each
// rescanning the views for the earliest deadline) through the same callback
// sequences and require identical requested operating points and identical
// counter effects (slack and utilization-sample addends compared bit for
// bit), over tied and +inf deadlines, deadlines already past, the degraded
// mode, idle callbacks, and a policy object reused across two task sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/cc_rm_policy.h"
#include "src/dvs/policy.h"
#include "src/rt/schedulability.h"
#include "src/rt/task.h"
#include "src/util/random.h"
#include "src/util/time_eps.h"
#include "tests/dvs/policy_pair.h"

namespace rtdvs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The ccRM of the paper with one pass per step of its pseudocode: Sync
// applies executed work, AllocateCycles and SelectFrequency each find the
// earliest deadline in the system again.
class MultiPassCcRm : public DvsPolicy {
 public:
  std::string name() const override { return "ccRM-reference"; }
  SchedulerKind scheduler_kind() const override { return SchedulerKind::kRm; }
  bool lowers_speed_when_idle() const override { return true; }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override {
    auto n = static_cast<size_t>(ctx.tasks->size());
    c_left_.assign(n, 0.0);
    d_.assign(n, 0.0);
    executed_snapshot_.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      c_left_[i] = ctx.views[i].worst_case_remaining;
      executed_snapshot_[i] = ctx.views[i].cumulative_executed;
    }
    ids_by_period_ = ctx.tasks->IdsByPeriod();
    auto static_point =
        StaticScalingPoint(*ctx.tasks, *ctx.machine, SchedulerKind::kRm);
    degraded_ = !static_point.has_value();
    f_ss_ = degraded_ ? ctx.machine->max_point().frequency : static_point->frequency;
    if (degraded_) {
      RequestOperatingPoint(speed, ctx.machine->max_point());
      return;
    }
    AllocateCycles(ctx);
    SelectFrequency(ctx, speed);
  }
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override {
    if (degraded_) {
      return;
    }
    Sync(ctx);
    c_left_[static_cast<size_t>(task_id)] = ctx.tasks->task(task_id).wcet_ms;
    AllocateCycles(ctx);
    SelectFrequency(ctx, speed);
  }
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override {
    if (degraded_) {
      return;
    }
    Sync(ctx);
    const double slack = c_left_[static_cast<size_t>(task_id)];
    if (slack > 0) {
      RecordSlackReclaimed(slack);
    }
    c_left_[static_cast<size_t>(task_id)] = 0.0;
    d_[static_cast<size_t>(task_id)] = 0.0;
    SelectFrequency(ctx, speed);
  }
  void OnIdle(const PolicyContext& ctx, SpeedController& speed) override {
    if (!degraded_) {
      DvsPolicy::OnIdle(ctx, speed);
    }
  }

 private:
  void Sync(const PolicyContext& ctx) {
    for (size_t i = 0; i < c_left_.size(); ++i) {
      double delta = ctx.views[i].cumulative_executed - executed_snapshot_[i];
      if (delta > 0) {
        c_left_[i] = std::max(0.0, c_left_[i] - delta);
        d_[i] = std::max(0.0, d_[i] - delta);
        executed_snapshot_[i] = ctx.views[i].cumulative_executed;
      }
    }
  }
  void AllocateCycles(const PolicyContext& ctx) {
    double budget = f_ss_ * std::max(0.0, ctx.EarliestDeadline() - ctx.now_ms);
    for (int id : ids_by_period_) {
      auto i = static_cast<size_t>(id);
      d_[i] = std::min(c_left_[i], budget);
      budget -= d_[i];
    }
  }
  void SelectFrequency(const PolicyContext& ctx, SpeedController& speed) {
    double interval = ctx.EarliestDeadline() - ctx.now_ms;
    double pending = 0;
    for (double d : d_) {
      pending += d;
    }
    OperatingPoint point;
    if (interval <= kTimeEpsMs) {
      point = (pending > kWorkEps) ? ctx.machine->max_point() : ctx.machine->min_point();
    } else {
      const double utilization = pending / interval;
      RecordUtilizationSample(utilization);
      point = ctx.machine->LowestPointAtLeastClamped(utilization);
    }
    RequestOperatingPoint(speed, point);
  }

  double f_ss_ = 1.0;
  bool degraded_ = false;
  std::vector<double> c_left_;
  std::vector<double> d_;
  std::vector<double> executed_snapshot_;
  std::vector<int> ids_by_period_;
};

using Pair = PolicyPair<CcRmPolicy, MultiPassCcRm>;

TEST(CcRmOrderTest, TiedAndInfiniteDeadlines) {
  // B and D tie for the earliest deadline; S sits at +inf (a CBS server
  // between activations) and must never be the minimum.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 20.0, 2.0, 0.0},
                       {"B", 10.0, 1.0, 0.0},
                       {"S", 40.0, 2.0, 0.0},
                       {"D", 10.0, 1.5, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {0.0, 0.0, kInf, 0.0});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id : {0, 1, 3}) {
    Activate(&ctx, id, tasks.task(id).period_ms, tasks.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  ctx.now_ms = 0.75;
  ctx.views[1].cumulative_executed = 0.75;
  ctx.views[1].worst_case_remaining = 0.25;
  ctx.views[3].cumulative_executed = 0.0;
  pair.Deliver(Pair::Call::kRelease, 3, ctx);
  ctx.now_ms = 1.0;
  ctx.views[1] = TaskRuntimeView{};
  ctx.views[1].next_deadline_ms = 10.0;
  ctx.views[1].cumulative_executed = 0.9;
  pair.Deliver(Pair::Call::kCompletion, 1, ctx);
  pair.Deliver(Pair::Call::kIdle, -1, ctx);
}

TEST(CcRmOrderTest, DeadlineAlreadyPast) {
  // A backlogged task's deadline lies before now: the allocation budget
  // clamps at zero and the interval is negative, so the point is chosen by
  // whether work is pending.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 5.0, 1.0, 0.0}, {"B", 15.0, 3.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {5.0, 15.0});
  Activate(&ctx, 0, 5.0, 1.0);
  Activate(&ctx, 1, 15.0, 3.0);
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  ctx.now_ms = 6.0;
  ctx.views[1].cumulative_executed = 2.0;
  pair.Deliver(Pair::Call::kRelease, 0, ctx);
  ctx.now_ms = 6.5;
  ctx.views[0].cumulative_executed = 0.5;
  pair.Deliver(Pair::Call::kCompletion, 0, ctx);
}

TEST(CcRmOrderTest, DegradedModeStaysAtMaximum) {
  // Utilization above 1 fails the RM test at full speed: both copies pin the
  // maximum point and ignore every later callback.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 4.0, 3.0, 0.0}, {"B", 6.0, 3.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {4.0, 6.0});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  EXPECT_TRUE(pair.kept().degraded());
  ctx.now_ms = 4.0;
  ctx.views[0].cumulative_executed = 3.0;
  pair.Deliver(Pair::Call::kRelease, 0, ctx);
  pair.Deliver(Pair::Call::kCompletion, 1, ctx);
  pair.Deliver(Pair::Call::kIdle, -1, ctx);
  EXPECT_TRUE(pair.kept_point() == machine.max_point());
}

TEST(CcRmOrderTest, RandomCallbacksWithSeveralDeadlinesMoving) {
  // Random callback sequences where each step moves zero to all deadlines,
  // drawn from a small grid so ties are frequent, with occasional +inf and
  // occasional deadlines behind now.
  const MachineSpec machine = MachineSpec::Machine0();
  Pcg32 rng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const int n = 1 + static_cast<int>(rng.NextBounded(12));
    TaskSet tasks;
    for (int id = 0; id < n; ++id) {
      const double period = 4.0 * (1 + rng.NextBounded(6));
      tasks.AddTask({"", period, period * (0.02 + 0.05 * rng.NextDouble()), 0.0});
    }
    Pair pair(&machine);
    std::vector<double> deadlines(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
      deadlines[static_cast<size_t>(id)] = tasks.task(id).period_ms;
    }
    PolicyContext ctx = MakeContext(&tasks, &machine, deadlines);
    pair.Deliver(Pair::Call::kStart, -1, ctx);
    double now = 0;
    for (int step = 0; step < 60; ++step) {
      now += 0.25 * rng.NextBounded(8);
      ctx.now_ms = now;
      const int moves = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(n + 1)));
      for (int m = 0; m < moves; ++m) {
        auto& view = ctx.views[rng.NextBounded(static_cast<uint32_t>(n))];
        const uint32_t kind = rng.NextBounded(10);
        view.next_deadline_ms = kind == 0   ? kInf
                                : kind == 1 ? now - 1.0
                                            : now + 2.0 * (1 + rng.NextBounded(8));
      }
      // Several tasks may have executed since the last callback.
      const int ran = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(n + 1)));
      for (int r = 0; r < ran; ++r) {
        ctx.views[rng.NextBounded(static_cast<uint32_t>(n))].cumulative_executed +=
            0.5 * rng.NextDouble();
      }
      const int id = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(n)));
      const uint32_t call = rng.NextBounded(5);
      pair.Deliver(call == 0   ? Pair::Call::kIdle
                   : call <= 2 ? Pair::Call::kRelease
                               : Pair::Call::kCompletion,
                   id, ctx);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(CcRmOrderTest, PolicyReusedAcrossTwoTaskSets) {
  // OnStart must drop the previous set's state: the second set is smaller
  // and orders its tasks by period differently.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet first({{"A", 5.0, 1.0, 0.0},
                       {"B", 7.0, 1.0, 0.0},
                       {"C", 9.0, 1.0, 0.0},
                       {"D", 11.0, 1.0, 0.0}});
  const TaskSet second({{"X", 20.0, 5.0, 0.0}, {"Y", 6.0, 1.0, 0.0}, {"Z", 8.0, 1.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&first, &machine, {0.0, 0.0, 0.0, 0.0});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = 0; id < first.size(); ++id) {
    Activate(&ctx, id, first.task(id).period_ms, first.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  ctx = MakeContext(&second, &machine, {30.0, 30.0, 30.0});
  ctx.now_ms = 30.0;
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = second.size() - 1; id >= 0; --id) {
    Activate(&ctx, id, 30.0 + second.task(id).period_ms, second.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  ctx.now_ms = 31.0;
  ctx.views[1].has_active_job = false;
  ctx.views[1].cumulative_executed = 1.0;
  ctx.views[1].worst_case_remaining = 0.0;
  pair.Deliver(Pair::Call::kCompletion, 1, ctx);
}

}  // namespace
}  // namespace rtdvs
