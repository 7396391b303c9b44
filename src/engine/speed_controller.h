// SpeedController implementations shared by the two production hosts,
// lifted out of Simulator::Speed and Kernel::Speed:
//
//   * ModeledSpeedController — the simulation host. Validates requests
//     against the MachineSpec, counts transitions, models the mandatory
//     stop interval (§4.1) as a blocked-until timestamp, and emits
//     kSpeedChange trace events.
//   * DeviceSpeedController  — the implementation host. Forwards requests
//     to a SpeedDevice (the PowerNow! register device in the kernel) and
//     mirrors whatever point the hardware actually settled on; the device
//     itself models its transition halt.
#ifndef SRC_ENGINE_SPEED_CONTROLLER_H_
#define SRC_ENGINE_SPEED_CONTROLLER_H_

#include <cstdint>

#include "src/cpu/machine_spec.h"
#include "src/cpu/operating_point.h"
#include "src/dvs/policy.h"
#include "src/engine/trace_sink.h"

namespace rtdvs {

class ModeledSpeedController : public SpeedController {
 public:
  // `machine` and `now_ms` (the host's clock) must outlive the controller;
  // `sink` may be null. Starts at the machine's maximum point.
  ModeledSpeedController(const MachineSpec* machine, double switch_time_ms,
                         const double* now_ms, TraceSink* sink);

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
  TraceSink* sink_;
  OperatingPoint point_;
  double blocked_until_ = 0;
  int64_t switch_count_ = 0;
};

// Host-specific hardware behind DeviceSpeedController: applying a point may
// round to the device's grid, halt the processor, or crash it — the
// controller only reflects the resulting state.
class SpeedDevice {
 public:
  virtual ~SpeedDevice() = default;
  virtual void Apply(double now_ms, const OperatingPoint& point) = 0;
  virtual OperatingPoint Current() const = 0;
};

class DeviceSpeedController : public SpeedController {
 public:
  // `device` and `now_ms` must outlive the controller.
  DeviceSpeedController(SpeedDevice* device, const double* now_ms);

  void SetOperatingPoint(const OperatingPoint& point) override;
  const OperatingPoint& current() const override { return point_; }

  // Re-reads the device state (e.g. after out-of-band /procfs writes).
  void SyncFromDevice() { point_ = device_->Current(); }

 private:
  SpeedDevice* device_;
  const double* now_ms_;
  OperatingPoint point_;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_SPEED_CONTROLLER_H_
