// laEDF keeps its reverse-EDF order across callbacks instead of re-sorting.
// These tests drive LaEdfPolicy and a reference copy of the sort-per-call
// defer() through the same callback sequences and require identical
// requested operating points and identical counter effects (deferral and
// utilization-sample addends compared bit for bit), over contexts with
// tied deadlines, +inf deadlines, several deadlines moving at once, and a
// policy object reused across two task sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/la_edf_policy.h"
#include "src/dvs/policy.h"
#include "src/rt/task.h"
#include "src/util/random.h"
#include "src/util/time_eps.h"
#include "tests/dvs/policy_pair.h"

namespace rtdvs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The laEDF of the paper with defer() re-sorting every task on every call:
// iota + stable_sort by descending deadline, utilizations recomputed from
// the task set.
class SortingLaEdf : public DvsPolicy {
 public:
  std::string name() const override { return "laEDF-reference"; }
  SchedulerKind scheduler_kind() const override { return SchedulerKind::kEdf; }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override {
    auto n = static_cast<size_t>(ctx.tasks->size());
    c_left_.assign(n, 0.0);
    executed_snapshot_.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      c_left_[i] = ctx.views[i].worst_case_remaining;
      executed_snapshot_[i] = ctx.views[i].cumulative_executed;
    }
    Defer(ctx, speed);
  }
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override {
    Sync(ctx);
    c_left_[static_cast<size_t>(task_id)] = ctx.tasks->task(task_id).wcet_ms;
    Defer(ctx, speed);
  }
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override {
    Sync(ctx);
    c_left_[static_cast<size_t>(task_id)] = 0.0;
    Defer(ctx, speed);
  }

 private:
  void Sync(const PolicyContext& ctx) {
    for (size_t i = 0; i < c_left_.size(); ++i) {
      double delta = ctx.views[i].cumulative_executed - executed_snapshot_[i];
      if (delta > 0) {
        c_left_[i] = std::max(0.0, c_left_[i] - delta);
        executed_snapshot_[i] = ctx.views[i].cumulative_executed;
      }
    }
  }

  void Defer(const PolicyContext& ctx, SpeedController& speed) {
    const double d_next = ctx.EarliestDeadline();
    std::vector<int> order(static_cast<size_t>(ctx.tasks->size()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&ctx](int a, int b) {
      return ctx.view(a).next_deadline_ms > ctx.view(b).next_deadline_ms;
    });
    double utilization = ctx.tasks->TotalUtilization();
    double must_run_now = 0;
    for (int id : order) {
      auto i = static_cast<size_t>(id);
      utilization -= ctx.tasks->task(id).utilization();
      double slack_window = ctx.view(id).next_deadline_ms - d_next;
      double x;
      if (slack_window <= kTimeEpsMs) {
        x = c_left_[i];
      } else {
        x = std::clamp(c_left_[i] - (1.0 - utilization) * slack_window, 0.0,
                       c_left_[i]);
        utilization += (c_left_[i] - x) / slack_window;
      }
      must_run_now += x;
    }
    const double total_left =
        std::accumulate(c_left_.begin(), c_left_.end(), 0.0);
    RecordDeferral(std::max(0.0, total_left - must_run_now));
    const double interval = d_next - ctx.now_ms;
    OperatingPoint point;
    if (interval <= kTimeEpsMs) {
      point = (must_run_now > kWorkEps) ? ctx.machine->max_point()
                                        : ctx.machine->min_point();
    } else {
      const double required_speed = must_run_now / interval;
      RecordUtilizationSample(required_speed);
      point = ctx.machine->LowestPointAtLeastClamped(required_speed);
    }
    RequestOperatingPoint(speed, point);
  }

  std::vector<double> c_left_;
  std::vector<double> executed_snapshot_;
};

using Pair = PolicyPair<LaEdfPolicy, SortingLaEdf>;

TEST(LaEdfOrderTest, TiedDeadlinesKeepIdOrder) {
  // A, B and D tie at 20, after C (40) and before E (5, the next deadline).
  // Within the tie, visiting order changes how much each task may defer:
  // id order forces 0.1 + 0.5 + 0.25 ms now, reverse id order 0.857 ms.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 20.0, 9.0, 0.0},
                       {"B", 20.0, 2.0, 0.0},
                       {"C", 40.0, 2.0, 0.0},
                       {"D", 20.0, 1.0, 0.0},
                       {"E", 5.0, 1.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {0.0, 0.0, 0.0, 0.0, 0.0});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = 0; id < tasks.size(); ++id) {
    Activate(&ctx, id, tasks.task(id).period_ms, tasks.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  // E completes: its deadline becomes its next release, the same value.
  ctx.now_ms = 1.0;
  ctx.views[4].has_active_job = false;
  ctx.views[4].cumulative_executed = 1.0;
  ctx.views[4].worst_case_remaining = 0.0;
  pair.Deliver(Pair::Call::kCompletion, 4, ctx);
  // E's next invocation moves its deadline to 10.
  ctx.now_ms = 5.0;
  Activate(&ctx, 4, 10.0, 1.0);
  pair.Deliver(Pair::Call::kRelease, 4, ctx);
}

TEST(LaEdfOrderTest, InfiniteDeadlines) {
  // A task with no pending release (a CBS server between activations) sits
  // at +inf and sorts first; two of them tie.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 8.0, 3.0, 0.0},
                       {"S1", 10.0, 2.0, 0.0},
                       {"B", 14.0, 1.0, 0.0},
                       {"S2", 12.0, 2.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {0.0, kInf, 0.0, kInf});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  Activate(&ctx, 0, 8.0, 3.0);
  pair.Deliver(Pair::Call::kRelease, 0, ctx);
  Activate(&ctx, 2, 14.0, 1.0);
  pair.Deliver(Pair::Call::kRelease, 2, ctx);
  ctx.now_ms = 1.0;
  Activate(&ctx, 1, 11.0, 2.0);
  pair.Deliver(Pair::Call::kRelease, 1, ctx);
  ctx.now_ms = 2.0;
  ctx.views[1] = TaskRuntimeView{};
  ctx.views[1].next_deadline_ms = kInf;
  ctx.views[1].cumulative_executed = 1.0;
  pair.Deliver(Pair::Call::kCompletion, 1, ctx);
}

TEST(LaEdfOrderTest, IdleServerOverAnExactlyFullPeriodicLoad) {
  // The periodic utilizations sum to exactly 1 (all four are exact in
  // binary), so the idle server S (+inf deadline, no work left), first in
  // the pass, meets 1 - U == 0 and its step computes 0 x inf = NaN. laEDF
  // must take that step as the reference does, not skip it like a finished
  // task: the pass carries the NaN to the maximum point. After C completes
  // early, its own finished step follows the NaN and must change nothing.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet tasks({{"A", 4.0, 1.0, 0.0},
                       {"B", 8.0, 4.0, 0.0},
                       {"C", 16.0, 4.0, 0.0},
                       {"S", 8.0, 2.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&tasks, &machine, {0.0, 0.0, 0.0, kInf});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = 0; id < 3; ++id) {
    Activate(&ctx, id, tasks.task(id).period_ms, tasks.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  EXPECT_TRUE(pair.kept_point() == machine.max_point());
  ctx.now_ms = 1.0;
  ctx.views[2].has_active_job = false;
  ctx.views[2].cumulative_executed = 1.0;
  ctx.views[2].worst_case_remaining = 0.0;
  pair.Deliver(Pair::Call::kCompletion, 2, ctx);
  EXPECT_TRUE(pair.kept_point() == machine.max_point());
}

TEST(LaEdfOrderTest, RandomCallbacksWithSeveralDeadlinesMoving) {
  // Random callback sequences where each step moves zero to all deadlines,
  // drawn from a small grid so ties are frequent, with occasional +inf.
  const MachineSpec machine = MachineSpec::Machine0();
  Pcg32 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const int n = 1 + static_cast<int>(rng.NextBounded(12));
    TaskSet tasks;
    for (int id = 0; id < n; ++id) {
      const double period = 4.0 * (1 + rng.NextBounded(6));
      tasks.AddTask({"", period, period * (0.05 + 0.1 * rng.NextDouble()), 0.0});
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
        view.next_deadline_ms = rng.NextBounded(10) == 0
                                    ? kInf
                                    : now + 2.0 * (1 + rng.NextBounded(8));
      }
      const int id = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(n)));
      auto& view = ctx.views[static_cast<size_t>(id)];
      view.cumulative_executed += 0.5 * rng.NextDouble();
      if (ctx.EarliestDeadline() == kInf) {
        view.next_deadline_ms = now + 1.0;
      }
      pair.Deliver(rng.NextBounded(2) == 0 ? Pair::Call::kRelease
                                           : Pair::Call::kCompletion,
                   id, ctx);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(LaEdfOrderTest, PolicyReusedAcrossTwoTaskSets) {
  // OnStart must drop the previous set's cached utilizations and order: the
  // second set is smaller and orders differently.
  const MachineSpec machine = MachineSpec::Machine0();
  const TaskSet first({{"A", 5.0, 1.0, 0.0},
                       {"B", 7.0, 2.0, 0.0},
                       {"C", 9.0, 3.0, 0.0},
                       {"D", 11.0, 1.0, 0.0},
                       {"E", 13.0, 2.0, 0.0}});
  const TaskSet second({{"X", 20.0, 5.0, 0.0},
                        {"Y", 6.0, 2.0, 0.0},
                        {"Z", 6.0, 1.0, 0.0}});
  Pair pair(&machine);
  PolicyContext ctx = MakeContext(&first, &machine, {0.0, 0.0, 0.0, 0.0, 0.0});
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = 0; id < first.size(); ++id) {
    Activate(&ctx, id, first.task(id).period_ms, first.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  ctx = MakeContext(&second, &machine, {0.0, 0.0, 0.0});
  ctx.now_ms = 30.0;
  pair.Deliver(Pair::Call::kStart, -1, ctx);
  for (int id = second.size() - 1; id >= 0; --id) {
    Activate(&ctx, id, 30.0 + second.task(id).period_ms, second.task(id).wcet_ms);
    pair.Deliver(Pair::Call::kRelease, id, ctx);
  }
  ctx.now_ms = 31.0;
  ctx.views[2].has_active_job = false;
  ctx.views[2].cumulative_executed = 1.0;
  ctx.views[2].worst_case_remaining = 0.0;
  pair.Deliver(Pair::Call::kCompletion, 2, ctx);
}

}  // namespace
}  // namespace rtdvs
