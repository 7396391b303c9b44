// Static voltage scaling (§2.3, Figure 1): select the lowest operating
// frequency at which the (scaled) EDF or RM schedulability test still admits
// the task set, set it once, and change it only when the task set changes.
#ifndef SRC_DVS_STATIC_SCALING_POLICY_H_
#define SRC_DVS_STATIC_SCALING_POLICY_H_

#include "src/dvs/policy.h"

namespace rtdvs {

class StaticScalingPolicy : public DvsPolicy {
 public:
  // exact_rm: use exact response-time analysis instead of the paper's
  // sufficient ceiling test when kind == kRm (ablation; the paper's
  // configuration is exact_rm = false).
  explicit StaticScalingPolicy(SchedulerKind kind, bool exact_rm = false);

  std::string name() const override;
  SchedulerKind scheduler_kind() const override { return kind_; }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override;

  // The frequency chosen at the last OnStart, for inspection in tests.
  const OperatingPoint& chosen_point() const { return chosen_; }

 private:
  SchedulerKind kind_;
  bool exact_rm_;
  OperatingPoint chosen_;
};

}  // namespace rtdvs

#endif  // SRC_DVS_STATIC_SCALING_POLICY_H_
