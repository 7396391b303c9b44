#include "src/dvs/cc_rm_policy.h"

#include <algorithm>

#include "src/rt/schedulability.h"
#include "src/util/check.h"
#include "src/util/time_eps.h"

namespace rtdvs {

void CcRmPolicy::OnStart(const PolicyContext& ctx, SpeedController& speed) {
  auto n = static_cast<size_t>(ctx.tasks->size());
  c_left_.assign(n, 0.0);
  d_.assign(n, 0.0);
  executed_snapshot_.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto& view = ctx.views[i];
    c_left_[i] = view.worst_case_remaining;  // 0 for tasks between invocations
    executed_snapshot_[i] = view.cumulative_executed;
  }
  ids_by_period_ = ctx.tasks->IdsByPeriod();
  auto static_point = StaticScalingPoint(*ctx.tasks, *ctx.machine, SchedulerKind::kRm);
  // The pacing argument ("keep up with the worst-case statically-scaled RM
  // schedule") is only meaningful when such a schedule exists. If the set
  // fails the RM test even at full speed, degrade to plain RM at the
  // maximum point, exactly like the static algorithm does.
  degraded_ = !static_point.has_value();
  f_ss_ = degraded_ ? ctx.machine->max_point().frequency : static_point->frequency;
  if (degraded_) {
    RequestOperatingPoint(speed, ctx.machine->max_point());
    return;
  }
  AllocateCycles(ctx);
  SelectFrequency(ctx, speed);
}

void CcRmPolicy::Sync(const PolicyContext& ctx) {
  for (size_t i = 0; i < c_left_.size(); ++i) {
    double delta = ctx.views[i].cumulative_executed - executed_snapshot_[i];
    if (delta > 0) {
      c_left_[i] = std::max(0.0, c_left_[i] - delta);
      d_[i] = std::max(0.0, d_[i] - delta);
      executed_snapshot_[i] = ctx.views[i].cumulative_executed;
    }
  }
}

void CcRmPolicy::OnTaskRelease(int task_id, const PolicyContext& ctx,
                               SpeedController& speed) {
  if (degraded_) {
    return;
  }
  Sync(ctx);
  c_left_[static_cast<size_t>(task_id)] = ctx.tasks->task(task_id).wcet_ms;
  AllocateCycles(ctx);
  SelectFrequency(ctx, speed);
}

void CcRmPolicy::OnTaskCompletion(int task_id, const PolicyContext& ctx,
                                  SpeedController& speed) {
  if (degraded_) {
    return;
  }
  Sync(ctx);
  // Whatever worst-case allowance the invocation did not consume is the
  // slack this completion hands back to the pacing budget (C_i - cc_i).
  const double slack = c_left_[static_cast<size_t>(task_id)];
  if (slack > 0) {
    RecordSlackReclaimed(slack);
  }
  c_left_[static_cast<size_t>(task_id)] = 0.0;
  d_[static_cast<size_t>(task_id)] = 0.0;
  SelectFrequency(ctx, speed);
}

void CcRmPolicy::OnIdle(const PolicyContext& ctx, SpeedController& speed) {
  if (!degraded_) {
    DvsPolicy::OnIdle(ctx, speed);
  }
}

void CcRmPolicy::AllocateCycles(const PolicyContext& ctx) {
  // Budget: the work the statically-scaled schedule would retire between now
  // and the next deadline in the system (s_m is in max-frequency work units,
  // so f_m = 1 after normalization).
  double budget = f_ss_ * std::max(0.0, ctx.EarliestDeadline() - ctx.now_ms);
  for (int id : ids_by_period_) {
    auto i = static_cast<size_t>(id);
    d_[i] = std::min(c_left_[i], budget);
    budget -= d_[i];
  }
}

void CcRmPolicy::SelectFrequency(const PolicyContext& ctx, SpeedController& speed) {
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

}  // namespace rtdvs
