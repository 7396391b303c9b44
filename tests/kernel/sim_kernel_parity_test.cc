// Cross-substrate parity: the Table 2/3 worked example run through both the
// event-driven Simulator (src/sim) and the prototype Kernel (src/kernel)
// must agree, policy by policy: both hosts run the same engine components
// (ContextBuilder / ReadyQueue / ModelEnergyAccountant), the kernel meters
// its own watts and drives PowerNow! through its own SpeedController.
//
// Calibration that makes the two substrates directly comparable:
//   * machine: the kernel's exported K6-2+ spec on the sim side, so both
//     pick from the identical operating points;
//   * switching: wcet_pad_ms = 0 and ideal_transitions = true on the kernel,
//     switch_time_ms = 0 on the sim — no halts on either side;
//   * power: floor_w = 0, screen/disk off, cpu_active_max_w = 4000 with
//     V_max = 2.0 V makes kernel watts = 1000 * f_norm * V^2, so metered
//     joules equal the sim's normalized energy unit (work * V^2 at
//     energy_coefficient = 1).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/kernel/kernel.h"
#include "src/kernel/powernow_module.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/simulator.h"

namespace rtdvs {
namespace {

// One hyperperiod of the Table 2 task set (periods 8, 10, 14 ms).
constexpr double kHorizonMs = 280.0;

// Table 3 fractions per task: T1 used 2 then 1 of C=3, T2 used 1 then 1 of
// C=3, T3 used 1 of C=1 every time (TableFractionModel repeats the last
// column for later invocations).
const std::vector<std::vector<double>>& Table3Fractions() {
  static const std::vector<std::vector<double>> kRows = {
      {2.0 / 3.0, 1.0 / 3.0}, {1.0 / 3.0, 1.0 / 3.0}, {1.0, 1.0}};
  return kRows;
}

SimResult RunOnSimulator(const std::string& policy_id) {
  TaskSet tasks = TaskSet::PaperExample();
  auto policy = MakePolicy(policy_id);
  TableFractionModel model(Table3Fractions());
  SimOptions options;
  options.horizon_ms = kHorizonMs;
  options.idle_level = 0.0;
  options.energy_coefficient = 1.0;
  options.switch_time_ms = 0.0;
  return RunSimulation(tasks, PowerNowModule::ExportedMachineSpec(), *policy,
                       model, options);
}

KernelReport RunOnKernel(const std::string& policy_id) {
  KernelOptions options;
  options.power.floor_w = 0.0;
  options.power.screen_on = false;
  options.power.disk_spinning = false;
  options.power.cpu_active_max_w = 4000.0;
  options.wcet_pad_ms = 0.0;
  options.ideal_transitions = true;
  Kernel kernel(options);
  kernel.LoadPolicy(MakePolicy(policy_id));
  const TaskSet tasks = TaskSet::PaperExample();
  for (int id = 0; id < tasks.size(); ++id) {
    const Task& task = tasks.task(id);
    KernelTaskParams params;
    params.name = task.name;
    params.period_ms = task.period_ms;
    params.wcet_ms = task.wcet_ms;
    // The kernel hands task_id = 0 to per-task models: give each task its
    // own single-row table.
    params.exec_model = std::make_unique<TableFractionModel>(
        std::vector<std::vector<double>>{Table3Fractions()[static_cast<size_t>(id)]});
    EXPECT_GE(kernel.RegisterTask(std::move(params)), 0) << task.name;
  }
  kernel.RunUntil(kHorizonMs);
  KernelReport report = kernel.Report();
  EXPECT_FALSE(report.cpu_crashed) << policy_id;
  return report;
}

class SimKernelParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimKernelParityTest, WorkedExampleAgrees) {
  const std::string& policy_id = GetParam();
  SimResult sim = RunOnSimulator(policy_id);
  KernelReport kernel = RunOnKernel(policy_id);

  EXPECT_EQ(kernel.releases, sim.releases);
  EXPECT_EQ(kernel.completions, sim.completions);
  EXPECT_EQ(kernel.deadline_misses, sim.deadline_misses);
  EXPECT_EQ(kernel.deadline_misses, 0);

  // Same segments on both substrates: the wall-clock partition and the
  // executed work agree to rounding, and with the calibrated power model
  // the metered joules equal the simulator's normalized energy.
  EXPECT_NEAR(kernel.busy_ms, sim.busy_ms, 1e-9);
  EXPECT_NEAR(kernel.idle_ms, sim.idle_ms, 1e-9);
  EXPECT_NEAR(kernel.transition_halt_ms, sim.switching_ms, 1e-9);
  EXPECT_NEAR(kernel.total_work_executed, sim.total_work_executed, 1e-9);
  EXPECT_NEAR(kernel.total_joules, sim.total_energy(), 1e-9)
      << policy_id << ": " << sim.Summary();
}

INSTANTIATE_TEST_SUITE_P(AllPaperPolicies, SimKernelParityTest,
                         ::testing::ValuesIn(AllPaperPolicyIds()),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace rtdvs
