// The table of (frequency, voltage) settings available on a DVS platform.
//
// Mirrors the paper's "machine specification" input (§3.1): the software is
// given a table of operating frequencies and the matching regulator voltages.
// Includes the three simulated machines of §3.2 and the AMD K6-2+ platform
// of §4.1.
#ifndef SRC_CPU_MACHINE_SPEC_H_
#define SRC_CPU_MACHINE_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "src/cpu/operating_point.h"

namespace rtdvs {

// The names MachineSpec::FindByName knows, as shown in usage errors.
inline constexpr char kMachineNames[] = "machine0|machine1|machine2|k6";

class MachineSpec {
 public:
  // Points may be passed in any order; they are sorted by frequency.
  // Requirements: nonempty, frequencies strictly increasing after sort and
  // in (0, 1], the highest frequency must be exactly 1.0, voltages positive
  // and non-decreasing with frequency.
  MachineSpec(std::string name, std::vector<OperatingPoint> points);

  const std::string& name() const { return name_; }
  const std::vector<OperatingPoint>& points() const { return points_; }
  size_t num_points() const { return points_.size(); }
  const OperatingPoint& min_point() const { return points_.front(); }
  const OperatingPoint& max_point() const { return points_.back(); }

  // Lowest operating point whose frequency is >= the requested (normalized)
  // frequency, with a relative tolerance so that a computed requirement of
  // 0.7500000001 still selects the 0.75 setting. Returns nullopt when the
  // request exceeds the maximum frequency beyond tolerance.
  std::optional<OperatingPoint> LowestPointAtLeast(double frequency) const;

  // As above but saturates at the maximum point instead of failing; this is
  // what a governor does when a transient demand overshoots capacity.
  OperatingPoint LowestPointAtLeastClamped(double frequency) const;

  // Index of an exact point, for frequency-residency histograms.
  size_t IndexOf(const OperatingPoint& point) const;

  std::string ToString() const;

  // --- The paper's machine specifications ---
  // machine 0: (0.5, 3), (0.75, 4), (1.0, 5)
  static MachineSpec Machine0();
  // machine 1: machine 0 plus (0.83, 4.5)
  static MachineSpec Machine1();
  // machine 2: 7 points, (0.36, 1.4) ... (1.0, 2.0) — AMD PowerNow!-like
  static MachineSpec Machine2();
  // The HP N3350 / AMD K6-2+ prototype (§4.1): PLL steps 200..550 MHz
  // (50 MHz increments, skipping 250), 1.4 V up to 450 MHz, 2.0 V above;
  // frequencies normalized to 550 MHz.
  static MachineSpec K6TwoPointFour();
  // Ablation helper: n evenly spaced frequencies in (0, 1] with voltage
  // linear between v_min at the lowest point and v_max at 1.0.
  static MachineSpec UniformGrid(size_t n, double v_min, double v_max);
  // Lookup by name (one of kMachineNames); nullopt on unknown names.
  static std::optional<MachineSpec> FindByName(const std::string& name);
  // As FindByName, but aborts on unknown names listing the valid ones.
  static MachineSpec ByName(const std::string& name);

 private:
  std::string name_;
  std::vector<OperatingPoint> points_;
};

}  // namespace rtdvs

#endif  // SRC_CPU_MACHINE_SPEC_H_
