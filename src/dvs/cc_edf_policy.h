// Cycle-conserving RT-DVS for EDF schedulers (§2.4, Figure 4).
//
//   select_frequency():        use lowest f_i such that U_1+...+U_n <= f_i/f_m
//   upon task_release(T_i):    U_i = C_i/P_i; select_frequency()
//   upon task_completion(T_i): U_i = cc_i/P_i; select_frequency()
//                              (cc_i = actual cycles used this invocation)
//
// While a task is between completion and its next release, its utilization
// contribution is the (usually much smaller) actual use, so the whole set's
// frequency can drop without violating the EDF utilization bound.
#ifndef SRC_DVS_CC_EDF_POLICY_H_
#define SRC_DVS_CC_EDF_POLICY_H_

#include <vector>

#include "src/dvs/policy.h"

namespace rtdvs {

class CcEdfPolicy : public DvsPolicy {
 public:
  std::string name() const override { return "ccEDF"; }
  SchedulerKind scheduler_kind() const override { return SchedulerKind::kEdf; }
  bool lowers_speed_when_idle() const override { return true; }
  bool IsReplicaOf(const DvsPolicy& other) const override { return SameClassAs(other); }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override;
  void OnTaskRelease(int task_id, const PolicyContext& ctx,
                     SpeedController& speed) override;
  void OnTaskCompletion(int task_id, const PolicyContext& ctx,
                        SpeedController& speed) override;

  // Current utilization bookkeeping (for tests).
  double TotalTrackedUtilization() const;

 private:
  void SelectFrequency(const PolicyContext& ctx, SpeedController& speed);

  std::vector<double> utilization_;  // U_i, indexed by task id
};

}  // namespace rtdvs

#endif  // SRC_DVS_CC_EDF_POLICY_H_
