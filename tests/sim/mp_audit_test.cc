// Fault-injection tests for the cluster conservation audit
// (AuditCheck::kCluster, src/sim/audit.cc AuditMpResult): each test corrupts
// one invariant in an otherwise-clean multiprocessor result and asserts the
// cluster check — and only a real violation — fires.
#include <vector>

#include <gtest/gtest.h>

#include "src/cpu/machine_spec.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/audit.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"

namespace rtdvs {
namespace {

TaskSet TasksWithUtilizations(const std::vector<double>& utilizations) {
  std::vector<Task> tasks;
  for (double u : utilizations) {
    tasks.push_back({"", 10.0, 10.0 * u, 0.0});
  }
  return TaskSet(tasks);
}

SimRequest BaseRequest(MpMode mode) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.5, 0.6, 0.3});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = mode;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  request.options.idle_level = 0.1;
  return request;
}

MpSimResult CleanRun(MpMode mode) {
  SimRequest request = BaseRequest(mode);
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  EXPECT_TRUE(result.admitted);
  return result;
}

TEST(MpAuditTest, CleanResultsPassBothModes) {
  for (MpMode mode : {MpMode::kPartitioned, MpMode::kGlobal}) {
    MpSimResult result = CleanRun(mode);
    AuditReport report = AuditMpResult(result, BaseRequest(mode).options);
    EXPECT_TRUE(report.audited);
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.checks_run, 0);
  }
}

// At M = 1 either mode runs the one core like a partitioned core: the slice
// carries the job counters, and the cluster audit must accept that in
// global mode too (a single-core global sweep would otherwise count one
// violation per run).
TEST(MpAuditTest, SingleCoreGlobalRunPasses) {
  SimRequest request = BaseRequest(MpMode::kGlobal);
  request.cluster.num_cores = 1;
  request.tasks = TasksWithUtilizations({0.3, 0.4});
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_TRUE(result.admitted);
  ASSERT_GT(result.cores[0].releases, 0);
  EXPECT_TRUE(result.cluster.audit.audited);
  EXPECT_TRUE(result.cluster.audit.ok()) << result.cluster.audit.Summary();
  // The sum check still applies: a slice counter that disagrees fires it.
  result.cluster.completions += 1;
  AuditReport report = AuditMpResult(result, request.options);
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, InfeasibleResultIsSkippedNotFailed) {
  SimRequest request = BaseRequest(MpMode::kPartitioned);
  request.tasks = TasksWithUtilizations({0.7, 0.7, 0.7});
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_FALSE(result.admitted);
  AuditReport report = AuditMpResult(result, request.options);
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.checks_skipped, 1);
  EXPECT_FALSE(report.skip_reasons.empty());
}

TEST(MpAuditTest, CorruptedWallTimeFiresClusterCheck) {
  MpSimResult result = CleanRun(MpMode::kPartitioned);
  // Per-core wall time must sum to num_cores * horizon; steal a chunk.
  result.cores[0].idle_ms -= 5.0;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kPartitioned).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, CorruptedClusterEnergyFiresClusterCheck) {
  MpSimResult result = CleanRun(MpMode::kPartitioned);
  result.cluster.exec_energy += 1.0;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kPartitioned).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, CorruptedJobCounterSumFiresClusterCheck) {
  MpSimResult result = CleanRun(MpMode::kPartitioned);
  // Partitioned job counters must sum across slices to the cluster totals.
  result.cluster.releases += 1;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kPartitioned).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, PartitionedMigrationsMustStayZero) {
  MpSimResult result = CleanRun(MpMode::kPartitioned);
  result.migrations = 3;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kPartitioned).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, GlobalSlicesMustCarryNoJobCounters) {
  MpSimResult result = CleanRun(MpMode::kGlobal);
  // Global job accounting is cluster-level by contract; a slice claiming
  // releases of its own is double-counting.
  result.cores[0].releases = 5;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kGlobal).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, CorruptedSpeedSwitchSumFiresClusterCheck) {
  MpSimResult result = CleanRun(MpMode::kGlobal);
  result.cluster.speed_switches += 2;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kGlobal).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

TEST(MpAuditTest, LowerBoundAboveExecEnergyFiresClusterCheck) {
  MpSimResult result = CleanRun(MpMode::kPartitioned);
  result.cluster.lower_bound_energy = result.cluster.exec_energy + 10.0;
  AuditReport report = AuditMpResult(result, BaseRequest(MpMode::kPartitioned).options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Violated(AuditCheck::kCluster)) << report.Summary();
}

}  // namespace
}  // namespace rtdvs
