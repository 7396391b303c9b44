// Tests for the multiprocessor cluster driver (src/sim/mp_simulator.cc):
// M = 1 bit-identity with a plain RunSimulation, partitioned-mode
// decomposition into independent single-core runs, powered-down cores,
// global-mode dispatch, per-core policy bookkeeping isolation, infeasible
// rejection, and the JSON view.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/json.h"
#include "src/util/random.h"

namespace rtdvs {
namespace {

// The per-core RNG stream contract from mp_simulator.h.
uint64_t CoreSeed(uint64_t seed, int core) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(core));
}

TaskSet TasksWithUtilizations(const std::vector<double>& utilizations) {
  std::vector<Task> tasks;
  for (double u : utilizations) {
    tasks.push_back({"", 10.0, 10.0 * u, 0.0});
  }
  return TaskSet(tasks);
}

// Table 3's actual execution times as fractions of the Table 2 WCETs.
std::unique_ptr<ExecTimeModel> PaperTableModel() {
  return std::make_unique<TableFractionModel>(std::vector<std::vector<double>>{
      {2.0 / 3.0, 1.0 / 3.0}, {1.0 / 3.0, 1.0 / 3.0}, {1.0, 1.0}});
}

// Exact equality, field by field: the M = 1 cluster runs its core through
// RunSimulation itself, so even the doubles match bitwise.
void ExpectSliceIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.releases, b.releases);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.unfinished_at_horizon, b.unfinished_at_horizon);
  EXPECT_EQ(a.wcet_overruns, b.wcet_overruns);
  EXPECT_EQ(a.speed_switches, b.speed_switches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.exec_energy, b.exec_energy);
  EXPECT_EQ(a.idle_energy, b.idle_energy);
  EXPECT_EQ(a.busy_ms, b.busy_ms);
  EXPECT_EQ(a.idle_ms, b.idle_ms);
  EXPECT_EQ(a.switching_ms, b.switching_ms);
  EXPECT_EQ(a.total_work_executed, b.total_work_executed);
  EXPECT_EQ(a.lower_bound_energy, b.lower_bound_energy);
  EXPECT_TRUE(a.policy_counters == b.policy_counters);
  ASSERT_EQ(a.residency.size(), b.residency.size());
  for (size_t i = 0; i < a.residency.size(); ++i) {
    EXPECT_TRUE(a.residency[i].point == b.residency[i].point);
    EXPECT_EQ(a.residency[i].exec_ms, b.residency[i].exec_ms);
    EXPECT_EQ(a.residency[i].idle_ms, b.residency[i].idle_ms);
    EXPECT_EQ(a.residency[i].exec_energy, b.residency[i].exec_energy);
    EXPECT_EQ(a.residency[i].idle_energy, b.residency[i].idle_energy);
  }
  ASSERT_EQ(a.task_stats.size(), b.task_stats.size());
  for (size_t i = 0; i < a.task_stats.size(); ++i) {
    EXPECT_EQ(a.task_stats[i].releases, b.task_stats[i].releases);
    EXPECT_EQ(a.task_stats[i].completions, b.task_stats[i].completions);
    EXPECT_EQ(a.task_stats[i].deadline_misses, b.task_stats[i].deadline_misses);
    EXPECT_EQ(a.task_stats[i].executed_work, b.task_stats[i].executed_work);
    EXPECT_EQ(a.task_stats[i].max_response_ms, b.task_stats[i].max_response_ms);
  }
}

// The Table 2/3 worked example through the SimRequest API at M = 1 is
// bit-identical to a plain RunSimulation for every paper policy.
TEST(MpSimulatorTest, PaperExampleM1BitIdenticalToRunSimulationForAllPolicies) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    SimRequest request;
    request.tasks = TaskSet::PaperExample();
    request.cluster.num_cores = 1;
    request.cluster.machine = MachineSpec::Machine0();
    request.policy_ids = {policy_id};
    request.options.horizon_ms = 16.0;
    auto mp_model = PaperTableModel();
    MpSimResult mp = RunClusterSimulation(request, *mp_model);

    auto single_model = PaperTableModel();
    SimResult single = RunSimulation(TaskSet::PaperExample(),
                                     MachineSpec::Machine0(), policy_id,
                                     *single_model, request.options);

    SCOPED_TRACE(policy_id);
    ASSERT_TRUE(mp.admitted);
    EXPECT_EQ(mp.num_cores, 1);
    EXPECT_EQ(mp.migrations, 0);
    ASSERT_EQ(mp.cores.size(), 1u);
    ExpectSliceIdentical(mp.cores[0], single);
    // The cluster totals of an M = 1 run are the slice itself.
    EXPECT_EQ(mp.cluster.exec_energy, single.exec_energy);
    EXPECT_EQ(mp.cluster.idle_energy, single.idle_energy);
    EXPECT_EQ(mp.cluster.releases, single.releases);
    EXPECT_EQ(mp.cluster.completions, single.completions);
    ASSERT_TRUE(mp.cluster.audit.audited);
    EXPECT_TRUE(mp.cluster.audit.ok()) << mp.cluster.audit.Summary();
  }
}

// Partitioned mode is BY CONSTRUCTION a set of independent single-core
// simulations: each core's slice must be bit-identical to a standalone run
// of that core's sub-task-set under the documented per-core seed.
TEST(MpSimulatorTest, PartitionedSlicesMatchStandaloneRuns) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.5, 0.6, 0.3});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = MpMode::kPartitioned;
  request.partition = PartitionHeuristic::kFirstFit;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  request.options.idle_level = 0.1;
  request.options.seed = 42;
  // Constant-fraction demand is task-id independent, so the standalone runs
  // draw exactly what the cluster's id-translating adapter drew.
  ConstantFractionModel cluster_model(0.7);
  MpSimResult mp = RunClusterSimulation(request, cluster_model);
  ASSERT_TRUE(mp.admitted);
  // FF hand-check (fixture A of cluster_partition_test): [0, 1, 0].
  EXPECT_EQ(mp.partition.core_of_task, (std::vector<int>{0, 1, 0}));

  for (int core = 0; core < 2; ++core) {
    SCOPED_TRACE(core);
    const auto c = static_cast<size_t>(core);
    SimOptions standalone = request.options;
    standalone.seed = CoreSeed(request.options.seed, core);
    ConstantFractionModel model(0.7);
    SimResult expected = RunSimulation(mp.core_tasks[c], request.cluster.machine,
                                       "cc_edf", model, standalone);
    ExpectSliceIdentical(mp.cores[c], expected);
  }

  // Cluster totals are the field-wise slice sums.
  EXPECT_NEAR(mp.cluster.exec_energy,
              mp.cores[0].exec_energy + mp.cores[1].exec_energy, 1e-12);
  EXPECT_NEAR(mp.cluster.busy_ms, mp.cores[0].busy_ms + mp.cores[1].busy_ms,
              1e-12);
  EXPECT_EQ(mp.cluster.releases, mp.cores[0].releases + mp.cores[1].releases);
  EXPECT_EQ(mp.migrations, 0);
  ASSERT_TRUE(mp.cluster.audit.audited);
  EXPECT_TRUE(mp.cluster.audit.ok()) << mp.cluster.audit.Summary();
  // Per-task stats land under GLOBAL ids: task 1 ran alone on core 1.
  ASSERT_EQ(mp.cluster.task_stats.size(), 3u);
  EXPECT_EQ(mp.cluster.task_stats[1].releases, mp.cores[1].releases);
}

// Reports a constant fraction and counts the draws a host makes anyway.
class CountingConstantModel : public ExecTimeModel {
 public:
  std::string name() const override { return "counting-constant"; }
  double DrawFraction(int, int64_t, Pcg32&) override {
    ++draws;
    return 0.5;
  }
  std::optional<double> constant_fraction() const override { return 0.5; }
  int64_t draws = 0;
};

// Partitioned cores see the request's model through an id-translating
// adapter; it must pass constant_fraction() through so each core's
// Simulator skips the per-release draw, as a single-core run does.
TEST(MpSimulatorTest, PartitionedCoresSkipDrawsForConstantModels) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.5, 0.6, 0.3});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = MpMode::kPartitioned;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  CountingConstantModel model;
  MpSimResult mp = RunClusterSimulation(request, model);
  ASSERT_TRUE(mp.admitted);
  EXPECT_EQ(mp.partition.cores_used, 2);
  EXPECT_GT(mp.cluster.releases, 0);
  EXPECT_EQ(model.draws, 0);
}

TEST(MpSimulatorTest, UnusedCoresArePoweredDown) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.2, 0.2});
  request.cluster.num_cores = 4;
  request.cluster.machine = MachineSpec::Machine0();
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 50.0;
  request.options.idle_level = 0.5;  // powered-down != idling: idling costs
  ConstantFractionModel model(1.0);
  MpSimResult mp = RunClusterSimulation(request, model);
  ASSERT_TRUE(mp.admitted);
  EXPECT_EQ(mp.partition.cores_used, 1);
  for (int core = 1; core < 4; ++core) {
    SCOPED_TRACE(core);
    const SimResult& slice = mp.cores[static_cast<size_t>(core)];
    EXPECT_EQ(slice.policy_name, "off");
    EXPECT_EQ(slice.exec_energy, 0.0);
    EXPECT_EQ(slice.idle_energy, 0.0);
    EXPECT_EQ(slice.busy_ms, 0.0);
    EXPECT_EQ(slice.idle_ms, 50.0);
    EXPECT_EQ(slice.releases, 0);
  }
  // Core 0 idles at a cost; the cluster energy is core 0's alone.
  EXPECT_GT(mp.cores[0].idle_energy, 0.0);
  EXPECT_EQ(mp.cluster.total_energy(), mp.cores[0].total_energy());
  ASSERT_TRUE(mp.cluster.audit.audited);
  EXPECT_TRUE(mp.cluster.audit.ok()) << mp.cluster.audit.Summary();
}

// Issue 6 satellite: one DvsPolicy instance per core, never shared. Each
// core's reported counters must equal its own policy instance's counters —
// if two cores fed one instance, both slices would see the merged stream.
TEST(MpSimulatorTest, PerCorePolicyBookkeepingIsIsolated) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.9, 0.3, 0.4});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 200.0;
  request.options.seed = 7;
  ConstantFractionModel model(0.5);
  auto p0 = MakePolicy("cc_edf");
  auto p1 = MakePolicy("cc_edf");
  MpSimResult mp = RunClusterSimulation(request, {p0.get(), p1.get()}, model);
  ASSERT_TRUE(mp.admitted);
  // FF: task 0 (0.9) fills core 0; tasks 1 and 2 land on core 1.
  EXPECT_EQ(mp.partition.core_of_task, (std::vector<int>{0, 1, 1}));

  // Both cores made speed decisions, and each slice's counters are exactly
  // its own instance's — not the other's, not the merged stream.
  EXPECT_GT(p0->counters().speed_change_requests, 0);
  EXPECT_GT(p1->counters().speed_change_requests, 0);
  EXPECT_TRUE(mp.cores[0].policy_counters == p0->counters());
  EXPECT_TRUE(mp.cores[1].policy_counters == p1->counters());
  EXPECT_FALSE(p0->counters() == p1->counters());
  // And the cluster merges them.
  EXPECT_EQ(mp.cluster.policy_counters.speed_change_requests,
            p0->counters().speed_change_requests +
                p1->counters().speed_change_requests);
}

TEST(MpSimulatorTest, GlobalModeRunsTheClusterWideQueue) {
  SimRequest request;
  // Two heavy tasks no single core could serve (sum U = 1.8): global EDF on
  // two cores runs them in parallel without misses.
  request.tasks = TasksWithUtilizations({0.9, 0.9});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = MpMode::kGlobal;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 200.0;
  ConstantFractionModel model(1.0);
  MpSimResult mp = RunClusterSimulation(request, model);
  ASSERT_TRUE(mp.admitted);
  EXPECT_EQ(mp.mode, MpMode::kGlobal);
  EXPECT_EQ(mp.cluster.deadline_misses, 0);
  EXPECT_EQ(mp.cluster.releases, 2 * 20);
  EXPECT_GT(mp.cores[0].busy_ms, 0.0);
  EXPECT_GT(mp.cores[1].busy_ms, 0.0);
  // Global slices carry time/energy only; job counters live on the cluster.
  for (const SimResult& slice : mp.cores) {
    EXPECT_TRUE(slice.task_stats.empty());
    EXPECT_EQ(slice.releases, 0);
  }
  ASSERT_EQ(mp.cluster.task_stats.size(), 2u);
  EXPECT_EQ(mp.cluster.task_stats[0].releases, 20);
  ASSERT_TRUE(mp.cluster.audit.audited);
  EXPECT_TRUE(mp.cluster.audit.ok()) << mp.cluster.audit.Summary();
}

TEST(MpSimulatorTest, GlobalModeAffinityAvoidsGratuitousMigrations) {
  // Two tasks on two cores: after the first dispatch each job has a core to
  // itself and never needs to move.
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.4, 0.4});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = MpMode::kGlobal;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  ConstantFractionModel model(1.0);
  MpSimResult mp = RunClusterSimulation(request, model);
  ASSERT_TRUE(mp.admitted);
  EXPECT_EQ(mp.migrations, 0);
}

TEST(MpSimulatorTest, InfeasiblePartitionIsRejected) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.7, 0.7, 0.7});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  ConstantFractionModel model(1.0);
  MpSimResult mp = RunClusterSimulation(request, model);
  EXPECT_FALSE(mp.admitted);
  EXPECT_FALSE(mp.partition.feasible);
  EXPECT_FALSE(mp.partition.error.empty());
  EXPECT_EQ(mp.cluster.exec_energy, 0.0);
  EXPECT_EQ(mp.cluster.releases, 0);
}

TEST(MpSimulatorTest, JsonViewCarriesVersionPartitionAndCores) {
  SimRequest request;
  request.tasks = TasksWithUtilizations({0.5, 0.6, 0.3});
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 100.0;
  ConstantFractionModel model(0.7);
  JsonValue doc = MpSimResultToJson(RunClusterSimulation(request, model));
  EXPECT_EQ(doc.Get("version").AsString(), "rtdvs-mpsim-v1");
  EXPECT_EQ(doc.Get("mode").AsString(), "partitioned");
  EXPECT_EQ(doc.Get("num_cores").AsInt(), 2);
  EXPECT_TRUE(doc.Get("admitted").AsBool());
  EXPECT_EQ(doc.Get("cores").size(), 2u);
  EXPECT_EQ(doc.Get("partition").Get("core_of_task").size(), 3u);
  EXPECT_TRUE(doc.Get("cluster_audit_ok").AsBool());

  // Infeasible results keep the partition report but carry no slices.
  request.tasks = TasksWithUtilizations({0.7, 0.7, 0.7});
  JsonValue rejected = MpSimResultToJson(RunClusterSimulation(request, model));
  EXPECT_FALSE(rejected.Get("admitted").AsBool());
  EXPECT_NE(rejected.Get("partition").Find("error"), nullptr);
  EXPECT_EQ(rejected.Find("cores"), nullptr);
}

}  // namespace
}  // namespace rtdvs
