// Multiprocessor differential tests: the production cluster driver
// (src/sim/mp_simulator.cc) against the independently written cluster
// oracle (src/sim/reference_sim.cc), on fixed scenarios for every paper
// policy in both modes and on a generated campaign at M in {2, 4}.
//
// Issue 6 acceptance: a >= 100-trial campaign over 2- and 4-core clusters
// with zero divergences; the CI fuzz stage runs the same campaign through
// tools/rtdvs-fuzz --cores.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/rt/task.h"
#include "src/sim/reference_sim.h"
#include "src/testing/differential.h"
#include "src/testing/generators.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

std::string DescribeDiffs(const std::vector<FieldDiff>& diffs) {
  std::string out;
  for (const FieldDiff& d : diffs) {
    out += StrFormat("%s: production=%.17g reference=%.17g\n", d.field.c_str(),
                     d.production, d.reference);
  }
  return out;
}

FuzzCase ClusterCase(const std::string& policy_id, int num_cores, MpMode mode,
                     PartitionHeuristic fit) {
  FuzzCase c;
  c.policy_id = policy_id;
  c.machine_points = MachineSpec::Machine0().points();
  c.tasks = {{"", 10.0, 4.0, 0.0}, {"", 15.0, 6.0, 0.0},
             {"", 20.0, 9.0, 0.0}, {"", 12.0, 5.0, 2.0}};
  c.exec_spec = "u:0.2,0.8";
  c.horizon_ms = 120.0;
  c.idle_level = 0.1;
  c.num_cores = num_cores;
  c.mp_mode = mode;
  c.mp_partition = fit;
  return c;
}

TEST(MpDifferentialTest, PartitionedAgreesForAllPoliciesAndHeuristics) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    for (PartitionHeuristic fit :
         {PartitionHeuristic::kFirstFit, PartitionHeuristic::kNextFit,
          PartitionHeuristic::kBestFit, PartitionHeuristic::kWorstFit}) {
      FuzzCase c = ClusterCase(policy_id, 2, MpMode::kPartitioned, fit);
      DifferentialRun run = RunDifferentialCase(c);
      EXPECT_TRUE(run.agreed)
          << "policy " << policy_id << " fit " << PartitionHeuristicName(fit)
          << "\n" << DescribeDiffs(run.diffs);
    }
  }
}

TEST(MpDifferentialTest, GlobalAgreesForAllPolicies) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    FuzzCase c = ClusterCase(policy_id, 2, MpMode::kGlobal,
                             PartitionHeuristic::kFirstFit);
    DifferentialRun run = RunDifferentialCase(c);
    EXPECT_TRUE(run.agreed) << "policy " << policy_id << "\n"
                            << DescribeDiffs(run.diffs);
  }
}

TEST(MpDifferentialTest, InfeasiblePartitionAgrees) {
  FuzzCase c = ClusterCase("cc_edf", 2, MpMode::kPartitioned,
                           PartitionHeuristic::kFirstFit);
  // Three tasks of U = 0.7: no pair shares an EDF core.
  c.tasks = {{"", 10.0, 7.0, 0.0}, {"", 10.0, 7.0, 0.0}, {"", 10.0, 7.0, 0.0}};
  DifferentialRun run = RunDifferentialCase(c);
  EXPECT_TRUE(run.agreed) << DescribeDiffs(run.diffs);
  EXPECT_FALSE(run.production.admitted);
  EXPECT_FALSE(run.reference.admitted);
}

TEST(MpDifferentialTest, InjectedFaultIsDetectedOnClusters) {
  // Harness self-test: the MP pipeline must still catch a reintroduced
  // historical bug (here in each core's idle/switch accounting).
  FuzzCase c = ClusterCase("cc_edf", 2, MpMode::kPartitioned,
                           PartitionHeuristic::kFirstFit);
  c.switch_time_ms = 0.5;
  c.exec_spec = "u:0,1";
  ReferenceFaults faults;
  faults.idle_path_switch_bug = true;
  DifferentialRun clean = RunDifferentialCase(c);
  ASSERT_TRUE(clean.agreed) << DescribeDiffs(clean.diffs);
  DifferentialRun faulty = RunDifferentialCase(c, faults);
  EXPECT_FALSE(faulty.agreed)
      << "fault injection produced no divergence; the MP differential "
         "pipeline cannot be trusted to detect real bugs";
}

TEST(MpDifferentialTest, InjectedFaultsAreDetectedInGlobalMode) {
  // The same self-test on the global engine, once per fault knob.
  FuzzCase idle_case = ClusterCase("cc_edf", 2, MpMode::kGlobal,
                                   PartitionHeuristic::kFirstFit);
  idle_case.switch_time_ms = 0.5;
  idle_case.exec_spec = "u:0,1";
  ReferenceFaults idle_fault;
  idle_fault.idle_path_switch_bug = true;
  DifferentialRun clean = RunDifferentialCase(idle_case);
  ASSERT_TRUE(clean.agreed) << DescribeDiffs(clean.diffs);
  EXPECT_FALSE(RunDifferentialCase(idle_case, idle_fault).agreed)
      << "idle_path_switch_bug went undetected; repro: "
      << FuzzCaseToRepro(idle_case);

  // Two tasks with C == P under worst-case demand, one per core: every
  // completion lands exactly on its deadline.
  FuzzCase miss_case = ClusterCase("edf", 2, MpMode::kGlobal,
                                   PartitionHeuristic::kFirstFit);
  miss_case.tasks = {{"", 10.0, 10.0, 0.0}, {"", 15.0, 15.0, 0.0}};
  miss_case.exec_spec = "c:1";
  ReferenceFaults miss_fault;
  miss_fault.miss_before_completion_bug = true;
  clean = RunDifferentialCase(miss_case);
  ASSERT_TRUE(clean.agreed) << DescribeDiffs(clean.diffs);
  EXPECT_EQ(clean.reference.cluster.deadline_misses, 0);
  DifferentialRun faulty = RunDifferentialCase(miss_case, miss_fault);
  EXPECT_FALSE(faulty.agreed)
      << "miss_before_completion_bug went undetected; repro: "
      << FuzzCaseToRepro(miss_case);
  EXPECT_GT(faulty.reference.cluster.deadline_misses, 0);
}

// The Issue 6 acceptance campaign: 120 generated trials across 2- and
// 4-core clusters (both modes, all heuristics, all paper policies), zero
// divergences, every failure reported with its repro string.
TEST(MpDifferentialTest, GeneratedCampaignM2M4HasZeroDivergences) {
  Pcg32 rng(0x6d70666cu);  // fixed seed: the campaign is reproducible
  FuzzGenOptions options;
  options.core_choices = {2, 4};
  int partitioned = 0;
  int global = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    FuzzCase c = GenerateFuzzCase(rng, options);
    ASSERT_GT(c.num_cores, 1);
    DifferentialRun run = RunDifferentialCase(c);
    EXPECT_TRUE(run.agreed) << "trial " << trial << " diverged\n"
                            << DescribeDiffs(run.diffs) << "repro: "
                            << FuzzCaseToRepro(c);
    if (c.mp_mode == MpMode::kPartitioned) {
      ++partitioned;
      infeasible += run.production.admitted ? 0 : 1;
    } else {
      ++global;
    }
  }
  // The campaign must actually exercise both modes, and the partitioned
  // draws must include some admission rejections (otherwise the infeasible
  // path went untested and the generator's utilization scaling is off).
  EXPECT_GT(partitioned, 20);
  EXPECT_GT(global, 20);
  EXPECT_GT(infeasible, 0);
  EXPECT_LT(infeasible, partitioned);
}

TEST(MpDifferentialTest, SingleCoreDrawsStillRouteThroughLegacyContract) {
  // core_choices may mix 1 with larger clusters; a drawn 1 takes the same
  // cluster differential path and also gets the single-core properties.
  Pcg32 rng(99);
  FuzzGenOptions options;
  options.core_choices = {1, 2};
  int single = 0;
  for (int trial = 0; trial < 20; ++trial) {
    FuzzCase c = GenerateFuzzCase(rng, options);
    TrialOutcome outcome = RunFuzzTrial(c);
    EXPECT_TRUE(outcome.ok) << outcome.Describe() << FuzzCaseToRepro(c);
    single += c.num_cores == 1 ? 1 : 0;
  }
  EXPECT_GT(single, 0);
}

}  // namespace
}  // namespace rtdvs
