// Look-ahead RT-DVS for EDF schedulers (§2.5, Figures 7 and 8).
//
// The most aggressive of the paper's algorithms: instead of assuming the
// worst case until tasks complete early, it defers as much work as possible
// past the next deadline in the system and runs just fast enough to cover
// the minimum that must execute now for every future deadline to remain
// reachable (reserving worst-case capacity for earlier-deadline tasks).
//
//   select_frequency(x):       use lowest f_i such that x <= f_i/f_m
//   upon task_release(T_i):    c_left_i = C_i; defer()
//   upon task_completion(T_i): c_left_i = 0;  defer()
//   during task execution:     decrement c_left_i
//   defer():
//     U = C_1/P_1 + ... + C_n/P_n;  s = 0
//     for i in {tasks, reverse-EDF (latest deadline first) order}:
//       U = U - C_i/P_i
//       x = max(0, c_left_i - (1 - U)(D_i - D_n))
//       U = U + (c_left_i - x)/(D_i - D_n)
//       s = s + x
//     select_frequency(s / (D_n - now))
//   (D_n: earliest deadline in the system.)
#ifndef SRC_DVS_LA_EDF_POLICY_H_
#define SRC_DVS_LA_EDF_POLICY_H_

#include <vector>

#include "src/dvs/policy.h"

namespace rtdvs {

class LaEdfPolicy : public DvsPolicy {
 public:
  std::string name() const override { return "laEDF"; }
  SchedulerKind scheduler_kind() const override { return SchedulerKind::kEdf; }
  bool lowers_speed_when_idle() const override { return true; }
  bool IsReplicaOf(const DvsPolicy& other) const override { return SameClassAs(other); }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override;
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override;
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override;

 private:
  // order_'s ordering: later deadline first, lower id first among ties.
  bool Before(int a, int b) const;
  // Moves task `id` to its place in order_ under its new deadline `key`.
  void Reorder(int id, double key);
  // Applies the work executed since the last callback, sets task
  // `task_id`'s c_left to `task_c_left` (task_id < 0: no task), and runs
  // defer().
  void Defer(const PolicyContext& ctx, SpeedController& speed, int task_id,
             double task_c_left);

  std::vector<double> c_left_;
  std::vector<double> executed_snapshot_;
  // C_i/P_i per task and their id-order sum, cached in OnStart with the
  // same division and summation order TaskSet uses, so Defer's
  // floating-point arithmetic is unchanged.
  std::vector<double> utilization_;
  double total_utilization_ = 0;
  // Task ids in reverse-EDF order: deadline descending, id ascending among
  // ties (exactly what a stable sort of 0..n-1 by descending deadline
  // yields), under the deadlines in order_key_. Kept incrementally: Defer
  // re-inserts only the tasks whose view deadline moved since the previous
  // callback (usually the one released task), so a callback is O(n), the
  // paper's §2.6 bound. Within that pass a task with no work left in its
  // current invocation (c_left == 0) and a finite deadline only gives back
  // its utilization; it skips the deferral step and its division.
  std::vector<int> order_;
  std::vector<double> order_key_;
};

}  // namespace rtdvs

#endif  // SRC_DVS_LA_EDF_POLICY_H_
