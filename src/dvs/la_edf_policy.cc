#include "src/dvs/la_edf_policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/check.h"
#include "src/util/time_eps.h"

namespace rtdvs {

void LaEdfPolicy::OnStart(const PolicyContext& ctx, SpeedController& speed) {
  auto n = static_cast<size_t>(ctx.tasks->size());
  c_left_.assign(n, 0.0);
  executed_snapshot_.assign(n, 0.0);
  utilization_.assign(n, 0.0);
  order_key_.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    c_left_[i] = ctx.views[i].worst_case_remaining;
    executed_snapshot_[i] = ctx.views[i].cumulative_executed;
    utilization_[i] = ctx.tasks->task(static_cast<int>(i)).utilization();
    order_key_[i] = ctx.views[i].next_deadline_ms;
  }
  total_utilization_ = ctx.tasks->TotalUtilization();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(),
            [this](int a, int b) { return Before(a, b); });
  // Nothing executed since the snapshot and every key is current, so the
  // pass only finds the earliest deadline and sums c_left.
  Defer(ctx, speed, -1, 0.0);
}

void LaEdfPolicy::OnTaskRelease(int task_id, const PolicyContext& ctx,
                                SpeedController& speed) {
  Defer(ctx, speed, task_id, ctx.tasks->task(task_id).wcet_ms);
}

void LaEdfPolicy::OnTaskCompletion(int task_id, const PolicyContext& ctx,
                                   SpeedController& speed) {
  Defer(ctx, speed, task_id, 0.0);
}

bool LaEdfPolicy::Before(int a, int b) const {
  const double key_a = order_key_[static_cast<size_t>(a)];
  const double key_b = order_key_[static_cast<size_t>(b)];
  return key_a > key_b || (key_a == key_b && a < b);
}

void LaEdfPolicy::Reorder(int id, double key) {
  // Before is a strict total order, so binary search finds the task under
  // its old key and its slot under the new one.
  const auto before = [this](int a, int b) { return Before(a, b); };
  order_.erase(std::lower_bound(order_.begin(), order_.end(), id, before));
  order_key_[static_cast<size_t>(id)] = key;
  order_.insert(std::lower_bound(order_.begin(), order_.end(), id, before), id);
}

void LaEdfPolicy::Defer(const PolicyContext& ctx, SpeedController& speed,
                        int task_id, double task_c_left) {
  // One id-order pass: "during task execution: decrement c_left_i" (by
  // differencing cumulative executed work since the last callback), the
  // event's own c_left, the earliest deadline D_n, the reverse-EDF order
  // under the current deadlines, and the total work left (summed in id
  // order from 0.0).
  RTDVS_CHECK(!ctx.views.empty());
  double d_next = ctx.views.front().next_deadline_ms;
  double total_left = 0.0;
  for (size_t i = 0; i < c_left_.size(); ++i) {
    const TaskRuntimeView& view = ctx.views[i];
    const double delta = view.cumulative_executed - executed_snapshot_[i];
    if (delta > 0) {
      c_left_[i] = std::max(0.0, c_left_[i] - delta);
      executed_snapshot_[i] = view.cumulative_executed;
    }
    if (static_cast<int>(i) == task_id) {
      c_left_[i] = task_c_left;
    }
    total_left += c_left_[i];
    const double key = view.next_deadline_ms;
    d_next = std::min(d_next, key);
    if (key != order_key_[i]) {
      Reorder(static_cast<int>(i), key);
    }
  }

  double utilization = total_utilization_;
  double must_run_now = 0;  // s: work that has to execute before d_next
  for (int id : order_) {
    auto i = static_cast<size_t>(id);
    utilization -= utilization_[i];
    double slack_window = ctx.view(id).next_deadline_ms - d_next;
    if (c_left_[i] == 0 && std::isfinite(slack_window)) {
      // A task done with its current invocation adds nothing: its x is
      // exactly +0.0 (the clamp's bounds are both 0) and its utilization
      // increment +0.0 / slack_window, so skipping it is bit-identical and
      // saves a division the rest of the pass would wait on. An infinite
      // window (a CBS server between activations) still takes the step:
      // with 1 - U exactly 0 it computes 0 x inf = NaN, which the pass
      // carries through to the requested point.
      continue;
    }
    double x;
    if (slack_window <= kTimeEpsMs) {
      // This task's deadline IS the next deadline: nothing can be deferred.
      x = c_left_[i];
    } else {
      // Defer as much as fits into (D_n, D_i] after reserving worst-case
      // bandwidth (utilization so far) for earlier-deadline tasks. The
      // min() guards the transient U > 1 case, where the unclamped formula
      // would schedule more than the task's remaining worst case.
      x = std::clamp(c_left_[i] - (1.0 - utilization) * slack_window, 0.0, c_left_[i]);
      utilization += (c_left_[i] - x) / slack_window;
    }
    must_run_now += x;
  }

  // Everything not forced before d_next was pushed past it by this defer
  // pass; total remaining work minus s is the deferred amount.
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

}  // namespace rtdvs
