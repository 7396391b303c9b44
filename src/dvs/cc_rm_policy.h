// Cycle-conserving RT-DVS for RM schedulers (§2.4, Figures 5 and 6).
//
// Rather than re-running the (O(n^2)) RM schedulability test at every
// scheduling point, the algorithm paces execution against the worst-case
// statically-scaled RM schedule: as long as, by each deadline, every task
// has progressed at least as far as it would have in that worst-case
// schedule, all deadlines are met. Slack from early completions lowers the
// pace, and with it the frequency and voltage.
//
//   assume f_ss = frequency set by the static RM scaling algorithm
//   select_frequency():  s_m = max cycles until next deadline;
//                        use lowest f_i s.t. d_1+...+d_n <= (f_i/f_m)*s_m
//   upon task_release(T_i):    c_left_i = C_i;
//                              s = (f_ss/f_m) * s_m; allocate_cycles(s);
//                              select_frequency()
//   upon task_completion(T_i): c_left_i = 0; d_i = 0; select_frequency()
//   during task execution(T_i): decrement c_left_i and d_i
//   allocate_cycles(k): for tasks in RM (period) order:
//                         d_j = min(c_left_j, k); k -= d_j
#ifndef SRC_DVS_CC_RM_POLICY_H_
#define SRC_DVS_CC_RM_POLICY_H_

#include <vector>

#include "src/dvs/policy.h"

namespace rtdvs {

class CcRmPolicy : public DvsPolicy {
 public:
  std::string name() const override { return "ccRM"; }
  SchedulerKind scheduler_kind() const override { return SchedulerKind::kRm; }
  bool lowers_speed_when_idle() const override { return true; }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override;
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override;
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override;
  // Degraded mode stays at the maximum point, idle included.
  void OnIdle(const PolicyContext& ctx, SpeedController& speed) override;

  // For tests: the statically-scaled frequency this run paces against.
  double static_scale_frequency() const { return f_ss_; }
  // True when the set fails the RM test even at full speed and the policy
  // degraded to plain RM at the maximum point.
  bool degraded() const { return degraded_; }

 private:
  // Applies "during task execution: decrement c_left_i and d_i" by
  // differencing cumulative executed work since the last callback.
  void Sync(const PolicyContext& ctx);
  void AllocateCycles(const PolicyContext& ctx);
  void SelectFrequency(const PolicyContext& ctx, SpeedController& speed);

  double f_ss_ = 1.0;
  bool degraded_ = false;
  std::vector<double> c_left_;
  std::vector<double> d_;
  std::vector<double> executed_snapshot_;
  // Task ids in RM (period) order; fixed per task set, so taken once in
  // OnStart.
  std::vector<int> ids_by_period_;
};

}  // namespace rtdvs

#endif  // SRC_DVS_CC_RM_POLICY_H_
