#include "src/cpu/machine_spec.h"

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/util/strings.h"

namespace rtdvs {
namespace {

TEST(MachineSpec, PaperMachinesMatchSection32) {
  MachineSpec m0 = MachineSpec::Machine0();
  ASSERT_EQ(m0.num_points(), 3u);
  EXPECT_DOUBLE_EQ(m0.points()[0].frequency, 0.5);
  EXPECT_DOUBLE_EQ(m0.points()[0].voltage, 3.0);
  EXPECT_DOUBLE_EQ(m0.points()[2].frequency, 1.0);
  EXPECT_DOUBLE_EQ(m0.points()[2].voltage, 5.0);

  MachineSpec m1 = MachineSpec::Machine1();
  ASSERT_EQ(m1.num_points(), 4u);
  EXPECT_DOUBLE_EQ(m1.points()[2].frequency, 0.83);
  EXPECT_DOUBLE_EQ(m1.points()[2].voltage, 4.5);

  MachineSpec m2 = MachineSpec::Machine2();
  ASSERT_EQ(m2.num_points(), 7u);
  EXPECT_DOUBLE_EQ(m2.min_point().frequency, 0.36);
  EXPECT_DOUBLE_EQ(m2.min_point().voltage, 1.4);
  EXPECT_DOUBLE_EQ(m2.max_point().voltage, 2.0);
}

TEST(MachineSpec, K6MatchesSection41) {
  MachineSpec k6 = MachineSpec::K6TwoPointFour();
  ASSERT_EQ(k6.num_points(), 7u);
  // 200 MHz / 550 MHz at 1.4 V up to 450 MHz, 2.0 V above.
  EXPECT_NEAR(k6.min_point().frequency, 200.0 / 550.0, 1e-12);
  EXPECT_DOUBLE_EQ(k6.min_point().voltage, 1.4);
  EXPECT_NEAR(k6.points()[4].frequency, 450.0 / 550.0, 1e-12);
  EXPECT_DOUBLE_EQ(k6.points()[4].voltage, 1.4);
  EXPECT_DOUBLE_EQ(k6.points()[5].voltage, 2.0);
  EXPECT_DOUBLE_EQ(k6.max_point().frequency, 1.0);
}

TEST(MachineSpec, PointsAreSortedRegardlessOfInputOrder) {
  MachineSpec spec("shuffled", {{1.0, 5.0}, {0.5, 3.0}, {0.75, 4.0}});
  EXPECT_DOUBLE_EQ(spec.points()[0].frequency, 0.5);
  EXPECT_DOUBLE_EQ(spec.points()[1].frequency, 0.75);
  EXPECT_DOUBLE_EQ(spec.points()[2].frequency, 1.0);
}

TEST(MachineSpec, LowestPointAtLeastSelectsCeiling) {
  MachineSpec m0 = MachineSpec::Machine0();
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(0.1)->frequency, 0.5);
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(0.5)->frequency, 0.5);
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(0.500001)->frequency, 0.75);
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(0.746)->frequency, 0.75);
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(1.0)->frequency, 1.0);
  EXPECT_FALSE(m0.LowestPointAtLeast(1.01).has_value());
}

TEST(MachineSpec, LowestPointToleratesRoundingNoise) {
  MachineSpec m0 = MachineSpec::Machine0();
  // A utilization sum of 0.75 + one ulp must still select 0.75.
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeast(0.75 + 1e-12)->frequency, 0.75);
}

TEST(MachineSpec, ClampedVariantSaturates) {
  MachineSpec m0 = MachineSpec::Machine0();
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeastClamped(2.0).frequency, 1.0);
  EXPECT_DOUBLE_EQ(m0.LowestPointAtLeastClamped(0.0).frequency, 0.5);
}

TEST(MachineSpec, IndexOfFindsExactPoints) {
  MachineSpec m0 = MachineSpec::Machine0();
  EXPECT_EQ(m0.IndexOf(m0.points()[1]), 1u);
}

TEST(MachineSpec, UniformGridSpansRange) {
  MachineSpec grid = MachineSpec::UniformGrid(5, 1.0, 2.0);
  ASSERT_EQ(grid.num_points(), 5u);
  EXPECT_DOUBLE_EQ(grid.min_point().frequency, 0.2);
  EXPECT_DOUBLE_EQ(grid.min_point().voltage, 1.0);
  EXPECT_DOUBLE_EQ(grid.max_point().frequency, 1.0);
  EXPECT_DOUBLE_EQ(grid.max_point().voltage, 2.0);
}

TEST(MachineSpec, ByNameRoundTrips) {
  EXPECT_EQ(MachineSpec::ByName("machine1").num_points(), 4u);
  EXPECT_EQ(MachineSpec::ByName("k6").name(), "k6");
}

TEST(MachineSpec, FindByNameKnowsEveryListedNameAndNothingElse) {
  for (const std::string& name : Split(kMachineNames, '|')) {
    std::optional<MachineSpec> machine = MachineSpec::FindByName(name);
    ASSERT_TRUE(machine.has_value()) << name;
    EXPECT_EQ(machine->points(), MachineSpec::ByName(name).points());
  }
  EXPECT_FALSE(MachineSpec::FindByName("bogus").has_value());
  EXPECT_FALSE(MachineSpec::FindByName("").has_value());
}

TEST(MachineSpecDeathTest, RejectsInvalidSpecs) {
  EXPECT_DEATH(MachineSpec("empty", {}), "at least one");
  EXPECT_DEATH(MachineSpec("nomax", {{0.5, 3.0}}), "normalized to 1.0");
  EXPECT_DEATH(MachineSpec("dup", {{0.5, 3.0}, {0.5, 3.5}, {1.0, 5.0}}),
               "duplicate frequency");
  EXPECT_DEATH(MachineSpec("vdec", {{0.5, 5.0}, {1.0, 3.0}}), "non-decreasing");
  EXPECT_DEATH(MachineSpec::ByName("bogus"), "unknown machine");
}

TEST(OperatingPoint, EnergyScalesWithVoltageSquared) {
  OperatingPoint p{0.5, 3.0};
  EXPECT_DOUBLE_EQ(p.EnergyPerWorkUnit(), 9.0);
  EXPECT_DOUBLE_EQ(p.ActivePower(), 4.5);
}

}  // namespace
}  // namespace rtdvs
