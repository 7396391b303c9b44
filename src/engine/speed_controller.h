// The simulation host's SpeedController: ModeledSpeedController validates
// requests against the MachineSpec, counts transitions, models the
// mandatory stop interval (§4.1) as a blocked-until timestamp, and records
// kSpeedChange trace events. The kernel implements SpeedController itself
// on its PowerNow! module (kernel.cc), whose device models its own halt.
#ifndef SRC_ENGINE_SPEED_CONTROLLER_H_
#define SRC_ENGINE_SPEED_CONTROLLER_H_

#include <cstdint>

#include "src/cpu/machine_spec.h"
#include "src/cpu/operating_point.h"
#include "src/dvs/policy.h"
#include "src/engine/trace.h"

namespace rtdvs {

class ModeledSpeedController : public SpeedController {
 public:
  // `machine` and `now_ms` (the host's clock) must outlive the controller;
  // `trace` may be null. Starts at the machine's maximum point.
  ModeledSpeedController(const MachineSpec* machine, double switch_time_ms,
                         const double* now_ms, Trace* trace);

  // Validates the request exists on the machine, then applies it; a
  // same-point request is a no-op (no transition counted, no halt).
  void SetOperatingPoint(const OperatingPoint& point) override;
  const OperatingPoint& current() const override { return point_; }

  // Execution resumes only after this time (mandatory stop interval, §4.1).
  double blocked_until_ms() const { return blocked_until_; }
  int64_t switch_count() const { return switch_count_; }

 private:
  const MachineSpec* machine_;
  double switch_time_ms_;
  const double* now_ms_;
  Trace* trace_;
  OperatingPoint point_;
  double blocked_until_ = 0;
  int64_t switch_count_ = 0;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_SPEED_CONTROLLER_H_
