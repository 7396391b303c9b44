// Plain EDF / RM with no voltage scaling: the processor always runs at the
// maximum operating point. The paper's non-energy-aware baselines.
#ifndef SRC_DVS_NO_DVS_POLICY_H_
#define SRC_DVS_NO_DVS_POLICY_H_

#include "src/dvs/policy.h"

namespace rtdvs {

class NoDvsPolicy : public DvsPolicy {
 public:
  explicit NoDvsPolicy(SchedulerKind kind) : kind_(kind) {}

  std::string name() const override { return SchedulerKindName(kind_); }
  SchedulerKind scheduler_kind() const override { return kind_; }

  void OnStart(const PolicyContext& ctx, SpeedController& speed) override {
    RequestOperatingPoint(speed, ctx.machine->max_point());
  }

 private:
  SchedulerKind kind_;
};

}  // namespace rtdvs

#endif  // SRC_DVS_NO_DVS_POLICY_H_
