#include "src/engine/speed_controller.h"

#include <algorithm>

#include "src/util/check.h"

namespace rtdvs {

ModeledSpeedController::ModeledSpeedController(const MachineSpec* machine,
                                               double switch_time_ms,
                                               const double* now_ms,
                                               TraceSink* sink)
    : machine_(machine),
      switch_time_ms_(switch_time_ms),
      now_ms_(now_ms),
      sink_(sink),
      point_(machine->max_point()) {
  RTDVS_CHECK(machine_ != nullptr);
  RTDVS_CHECK(now_ms_ != nullptr);
}

void ModeledSpeedController::SetOperatingPoint(const OperatingPoint& point) {
  // Validate that policies only request points that exist on this machine.
  (void)machine_->IndexOf(point);
  if (point == point_) {
    return;
  }
  point_ = point;
  ++switch_count_;
  if (switch_time_ms_ > 0) {
    blocked_until_ = std::max(blocked_until_, *now_ms_ + switch_time_ms_);
  }
  if (sink_ != nullptr) {
    sink_->OnEvent({*now_ms_, TraceEventKind::kSpeedChange, -1, point_});
  }
}

DeviceSpeedController::DeviceSpeedController(SpeedDevice* device,
                                             const double* now_ms)
    : device_(device), now_ms_(now_ms) {
  RTDVS_CHECK(device_ != nullptr);
  RTDVS_CHECK(now_ms_ != nullptr);
  SyncFromDevice();
}

void DeviceSpeedController::SetOperatingPoint(const OperatingPoint& point) {
  device_->Apply(*now_ms_, point);
  SyncFromDevice();
}

}  // namespace rtdvs
