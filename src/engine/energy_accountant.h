// Segment-level time/energy accounting shared by the simulation and kernel
// hosts. Between events the processor state is constant, so each segment
// integrates in closed form against the normalized EnergyModel (work·V²
// exec, t·f·V²·idle_level idle; switch halts cost time but ~no energy,
// §3.1). The accountant owns the wall-clock partition (busy/idle/switching),
// total work, energy sums, per-operating-point residency and trace
// recording.
//
// The simulator reads every total. The kernel reads only the wall-clock
// partition and the work: it meters SystemPowerModel watts into its own
// PowerMeter beside each Record* call (kernel.cc), Figure 15 style.
//
// The reference simulator (src/sim/reference_sim.cc) deliberately does NOT
// use this class: it re-integrates energy from first principles so the
// differential fuzzer cross-checks this accounting rather than inheriting
// its bugs.
#ifndef SRC_ENGINE_ENERGY_ACCOUNTANT_H_
#define SRC_ENGINE_ENERGY_ACCOUNTANT_H_

#include <vector>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/cpu/operating_point.h"
#include "src/engine/trace.h"
#include "src/util/profiler.h"

namespace rtdvs {

// Time and energy spent at one operating point.
struct PointResidency {
  OperatingPoint point;
  double exec_ms = 0;
  double idle_ms = 0;
  double exec_energy = 0;
  double idle_energy = 0;
};

// Wall-clock and energy totals accumulated over a run. The partition
// invariant busy + idle + switching == horizon is what SimAudit checks.
struct EngineTotals {
  double busy_ms = 0;
  double idle_ms = 0;
  double switching_ms = 0;  // halted during voltage/frequency transitions
  double work = 0;          // in max-frequency milliseconds
  double exec_energy = 0;
  double idle_energy = 0;
};

class ModelEnergyAccountant {
 public:
  explicit ModelEnergyAccountant(const EnergyModel& model) : model_(model) {}

  // Optional per-point residency output; `machine` resolves point indices.
  // Both must outlive the accountant (or be rebound). Pass nullptrs to
  // disable residency tracking (the kernel host does).
  void BindResidency(const MachineSpec* machine,
                     std::vector<PointResidency>* residency) {
    machine_ = machine;
    residency_ = residency;
  }
  // Segments are appended to `trace` when it is non-null.
  void set_trace(Trace* trace) { trace_ = trace; }

  void Reset() { totals_ = EngineTotals{}; }

  // The Record* methods are defined inline: they run once per integrated
  // segment on both hosts' hot paths.
  //
  // Zero-length segments are ignored; callers need not guard.
  void RecordExecution(double start_ms, double end_ms, double work, int task_id,
                       const OperatingPoint& point) {
    RTDVS_PROF_SCOPE("engine/energy/record_execution");
    const double dt = end_ms - start_ms;
    if (dt <= 0) {
      return;
    }
    totals_.work += work;
    totals_.busy_ms += dt;
    const double joules = model_.ExecutionEnergy(work, point);
    totals_.exec_energy += joules;
    if (residency_ != nullptr) {
      auto& res = (*residency_)[machine_->IndexOf(point)];
      res.exec_ms += dt;
      res.exec_energy += joules;
    }
    if (trace_ != nullptr) {
      trace_->AddSegment({start_ms, end_ms, CpuState::kExecuting, task_id, point});
    }
  }

  void RecordIdle(double start_ms, double end_ms, const OperatingPoint& point) {
    RTDVS_PROF_SCOPE("engine/energy/record_idle");
    const double dt = end_ms - start_ms;
    if (dt <= 0) {
      return;
    }
    totals_.idle_ms += dt;
    const double joules = model_.IdleEnergy(dt, point);
    totals_.idle_energy += joules;
    if (residency_ != nullptr) {
      auto& res = (*residency_)[machine_->IndexOf(point)];
      res.idle_ms += dt;
      res.idle_energy += joules;
    }
    if (trace_ != nullptr) {
      trace_->AddSegment({start_ms, end_ms, CpuState::kIdle, -1, point});
    }
  }

  // Halted during a mandatory stop interval (§4.1): time passes, charged to
  // switching_ms; halted cycles draw ~no energy (§3.1), so none is charged.
  void RecordSwitchHalt(double start_ms, double end_ms,
                        const OperatingPoint& point) {
    RTDVS_PROF_SCOPE("engine/energy/record_switch_halt");
    const double dt = end_ms - start_ms;
    if (dt <= 0) {
      return;
    }
    totals_.switching_ms += dt;
    if (trace_ != nullptr) {
      trace_->AddSegment({start_ms, end_ms, CpuState::kSwitching, -1, point});
    }
  }

  const EngineTotals& totals() const { return totals_; }

 private:
  EnergyModel model_;
  EngineTotals totals_;
  Trace* trace_ = nullptr;
  const MachineSpec* machine_ = nullptr;
  std::vector<PointResidency>* residency_ = nullptr;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_ENERGY_ACCOUNTANT_H_
