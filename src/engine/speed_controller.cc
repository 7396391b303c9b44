#include "src/engine/speed_controller.h"

#include <algorithm>

#include "src/util/check.h"

namespace rtdvs {

ModeledSpeedController::ModeledSpeedController(const MachineSpec* machine,
                                               double switch_time_ms,
                                               const double* now_ms,
                                               Trace* trace)
    : machine_(machine),
      switch_time_ms_(switch_time_ms),
      now_ms_(now_ms),
      trace_(trace),
      point_(machine->max_point()) {
  RTDVS_CHECK(machine_ != nullptr);
  RTDVS_CHECK(now_ms_ != nullptr);
}

void ModeledSpeedController::SetOperatingPoint(const OperatingPoint& point) {
  // The current point is always on the machine, so a same-point request
  // needs no lookup; every change is validated against the machine.
  if (point == point_) {
    return;
  }
  (void)machine_->IndexOf(point);
  point_ = point;
  ++switch_count_;
  if (switch_time_ms_ > 0) {
    blocked_until_ = std::max(blocked_until_, *now_ms_ + switch_time_ms_);
  }
  if (trace_ != nullptr) {
    trace_->AddEvent({*now_ms_, TraceEventKind::kSpeedChange, -1, point_});
  }
}

}  // namespace rtdvs
