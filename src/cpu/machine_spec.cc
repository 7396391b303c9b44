#include "src/cpu/machine_spec.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace rtdvs {

namespace {
// Relative tolerance for matching a requested frequency against a table
// entry; absorbs rounding in utilization sums like 0.75 + 1e-16.
constexpr double kFreqTolerance = 1e-9;
}  // namespace

std::string OperatingPoint::ToString() const {
  return StrFormat("(f=%.4g, V=%.4g)", frequency, voltage);
}

MachineSpec::MachineSpec(std::string name, std::vector<OperatingPoint> points)
    : name_(std::move(name)), points_(std::move(points)) {
  RTDVS_CHECK(!points_.empty()) << "machine spec needs at least one operating point";
  std::sort(points_.begin(), points_.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.frequency < b.frequency;
            });
  for (size_t i = 0; i < points_.size(); ++i) {
    RTDVS_CHECK_GT(points_[i].frequency, 0.0);
    RTDVS_CHECK_LE(points_[i].frequency, 1.0);
    RTDVS_CHECK_GT(points_[i].voltage, 0.0);
    if (i > 0) {
      RTDVS_CHECK_GT(points_[i].frequency, points_[i - 1].frequency)
          << "duplicate frequency in machine spec " << name_;
      RTDVS_CHECK_GE(points_[i].voltage, points_[i - 1].voltage)
          << "voltage must be non-decreasing with frequency in " << name_;
    }
  }
  RTDVS_CHECK(std::fabs(points_.back().frequency - 1.0) < kFreqTolerance)
      << "highest frequency must be normalized to 1.0 in " << name_;
  points_.back().frequency = 1.0;
}

std::optional<OperatingPoint> MachineSpec::LowestPointAtLeast(double frequency) const {
  for (const auto& point : points_) {
    if (point.frequency + kFreqTolerance >= frequency) {
      return point;
    }
  }
  return std::nullopt;
}

OperatingPoint MachineSpec::LowestPointAtLeastClamped(double frequency) const {
  auto point = LowestPointAtLeast(frequency);
  return point.has_value() ? *point : max_point();
}

size_t MachineSpec::IndexOf(const OperatingPoint& point) const {
  for (size_t i = 0; i < points_.size(); ++i) {
    if (points_[i] == point) {
      return i;
    }
  }
  RTDVS_CHECK(false) << "operating point " << point.ToString() << " not in machine "
                     << name_;
  return 0;
}

std::string MachineSpec::ToString() const {
  std::string out = name_ + ": ";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += points_[i].ToString();
  }
  return out;
}

MachineSpec MachineSpec::Machine0() {
  return MachineSpec("machine0", {{0.5, 3.0}, {0.75, 4.0}, {1.0, 5.0}});
}

MachineSpec MachineSpec::Machine1() {
  return MachineSpec("machine1", {{0.5, 3.0}, {0.75, 4.0}, {0.83, 4.5}, {1.0, 5.0}});
}

MachineSpec MachineSpec::Machine2() {
  return MachineSpec("machine2", {{0.36, 1.4},
                                  {0.55, 1.5},
                                  {0.64, 1.6},
                                  {0.73, 1.7},
                                  {0.82, 1.8},
                                  {0.91, 1.9},
                                  {1.0, 2.0}});
}

MachineSpec MachineSpec::K6TwoPointFour() {
  // 200, 300, 350, 400, 450 MHz run at 1.4 V; 500 and 550 MHz need 2.0 V.
  const double kMaxMhz = 550.0;
  std::vector<OperatingPoint> points;
  for (double mhz : {200.0, 300.0, 350.0, 400.0, 450.0}) {
    points.push_back({mhz / kMaxMhz, 1.4});
  }
  points.push_back({500.0 / kMaxMhz, 2.0});
  points.push_back({550.0 / kMaxMhz, 2.0});
  return MachineSpec("k6", std::move(points));
}

MachineSpec MachineSpec::UniformGrid(size_t n, double v_min, double v_max) {
  RTDVS_CHECK_GE(n, 1u);
  RTDVS_CHECK_LE(v_min, v_max);
  std::vector<OperatingPoint> points;
  points.reserve(n);
  const double f_min = 1.0 / static_cast<double>(n);
  for (size_t i = 1; i <= n; ++i) {
    double f = static_cast<double>(i) / static_cast<double>(n);
    double v = (n == 1) ? v_max : v_min + (v_max - v_min) * (f - f_min) / (1.0 - f_min);
    points.push_back({f, v});
  }
  return MachineSpec(StrFormat("grid%zu", n), std::move(points));
}

std::optional<MachineSpec> MachineSpec::FindByName(const std::string& name) {
  if (name == "machine0") {
    return Machine0();
  }
  if (name == "machine1") {
    return Machine1();
  }
  if (name == "machine2") {
    return Machine2();
  }
  if (name == "k6") {
    return K6TwoPointFour();
  }
  return std::nullopt;
}

MachineSpec MachineSpec::ByName(const std::string& name) {
  std::optional<MachineSpec> machine = FindByName(name);
  RTDVS_CHECK(machine.has_value())
      << "unknown machine '" << name << "'; expected " << kMachineNames;
  return *machine;
}

}  // namespace rtdvs
