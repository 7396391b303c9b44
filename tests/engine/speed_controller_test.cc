// The simulation host's per-request and per-segment operating-point
// bookkeeping: ModeledSpeedController validates every change against the
// machine and treats a same-point request as a no-op, and
// ModelEnergyAccountant attributes each segment to its point's residency
// entry, also across a rebind to another machine.
#include <gtest/gtest.h>

#include <vector>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/engine/energy_accountant.h"
#include "src/engine/speed_controller.h"
#include "src/engine/trace.h"

namespace rtdvs {
namespace {

std::vector<PointResidency> EmptyResidency(const MachineSpec& machine) {
  std::vector<PointResidency> residency;
  for (const OperatingPoint& point : machine.points()) {
    residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
  return residency;
}

TEST(SpeedControllerTest, SameTargetCountsNoSwitchAndNoHalt) {
  const MachineSpec machine = MachineSpec::Machine0();
  double now = 2.0;
  Trace trace;
  ModeledSpeedController speed(&machine, 0.5, &now, &trace);
  speed.SetOperatingPoint(machine.max_point());
  EXPECT_EQ(speed.switch_count(), 0);
  EXPECT_EQ(speed.blocked_until_ms(), 0.0);
  EXPECT_TRUE(trace.events().empty());

  speed.SetOperatingPoint(machine.min_point());
  EXPECT_EQ(speed.switch_count(), 1);
  EXPECT_EQ(speed.blocked_until_ms(), 2.5);
  now = 4.0;
  speed.SetOperatingPoint(machine.min_point());
  EXPECT_EQ(speed.switch_count(), 1);
  EXPECT_EQ(speed.blocked_until_ms(), 2.5);
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_TRUE(speed.current() == machine.min_point());
}

TEST(SpeedControllerDeathTest, OffMachinePointAborts) {
  const MachineSpec machine = MachineSpec::Machine0();
  const OperatingPoint off_machine{0.6, 3.5};
  double now = 0;
  EXPECT_DEATH(
      {
        ModeledSpeedController speed(&machine, 0.0, &now, nullptr);
        speed.SetOperatingPoint(off_machine);
      },
      "not in machine");
  // Same-point requests ahead of it do not let an off-machine point through.
  EXPECT_DEATH(
      {
        ModeledSpeedController speed(&machine, 0.0, &now, nullptr);
        speed.SetOperatingPoint(machine.max_point());
        speed.SetOperatingPoint(machine.min_point());
        speed.SetOperatingPoint(machine.min_point());
        speed.SetOperatingPoint(off_machine);
      },
      "not in machine");
  // A point whose frequency is on the machine but whose voltage is not.
  EXPECT_DEATH(
      {
        ModeledSpeedController speed(&machine, 0.0, &now, nullptr);
        speed.SetOperatingPoint(OperatingPoint{1.0, 4.0});
      },
      "not in machine");
}

TEST(EnergyAccountantTest, ResidencyOverAlternatingPointsMatchesPerPointSums) {
  const MachineSpec machine = MachineSpec::Machine2();
  const EnergyModel model(0.1, 1.0);
  std::vector<PointResidency> residency = EmptyResidency(machine);
  ModelEnergyAccountant accountant(model);
  accountant.BindResidency(&machine, &residency);

  std::vector<PointResidency> expected = EmptyResidency(machine);
  const std::vector<size_t> order = {0, 0, 3, 6, 3, 3, 0, 6, 6, 1, 5, 1};
  double t = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t index = order[k];
    const OperatingPoint& point = machine.points()[index];
    const double dt = 0.5 + 0.25 * static_cast<double>(k % 3);
    if (k % 2 == 0) {
      const double work = dt * point.frequency;
      accountant.RecordExecution(t, t + dt, work, 0, point);
      expected[index].exec_ms += dt;
      expected[index].exec_energy += model.ExecutionEnergy(work, point);
    } else {
      accountant.RecordIdle(t, t + dt, point);
      expected[index].idle_ms += dt;
      expected[index].idle_energy += model.IdleEnergy(dt, point);
    }
    t += dt;
  }
  for (size_t i = 0; i < residency.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(residency[i].exec_ms, expected[i].exec_ms);
    EXPECT_EQ(residency[i].idle_ms, expected[i].idle_ms);
    EXPECT_EQ(residency[i].exec_energy, expected[i].exec_energy);
    EXPECT_EQ(residency[i].idle_energy, expected[i].idle_energy);
  }
}

TEST(EnergyAccountantTest, RebindingToAnotherMachineResolvesPointsAgainstIt) {
  // The maximum point (1.0, 5.0) is index 2 on machine 0 and index 3 on
  // machine 1, whose index 2 is (0.83, 4.5).
  const MachineSpec machine0 = MachineSpec::Machine0();
  const MachineSpec machine1 = MachineSpec::Machine1();
  const OperatingPoint max = machine0.max_point();
  ASSERT_TRUE(max == machine1.max_point());
  std::vector<PointResidency> first = EmptyResidency(machine0);
  std::vector<PointResidency> second = EmptyResidency(machine1);
  ModelEnergyAccountant accountant{EnergyModel()};

  accountant.BindResidency(&machine0, &first);
  accountant.RecordExecution(0.0, 1.0, 1.0, 0, max);
  EXPECT_EQ(first[2].exec_ms, 1.0);

  accountant.BindResidency(&machine1, &second);
  accountant.RecordExecution(1.0, 3.0, 2.0, 0, max);
  accountant.RecordIdle(3.0, 4.0, max);
  EXPECT_EQ(second[2].exec_ms, 0.0);
  EXPECT_EQ(second[3].exec_ms, 2.0);
  EXPECT_EQ(second[3].idle_ms, 1.0);
  EXPECT_EQ(first[2].exec_ms, 1.0);
}

}  // namespace
}  // namespace rtdvs
