// Differential test: the production simulator and the reference oracle must
// produce identical summaries, through the one-core cluster path every fuzz
// trial takes (RunDifferentialCase), on the paper's worked example
// (scenario 0), on 200 generated scenarios across all six paper policies and
// all three paper machines, and on the nastiest shrunken cases past fuzz
// campaigns produced. See src/sim/reference_sim.h for the oracle's design rules.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/sim/reference_sim.h"
#include "src/testing/differential.h"
#include "src/testing/generators.h"
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

// Scenario 0: the Table 2 task set with the Table 3 actual execution times,
// 16 ms horizon, machine 0 — the exact configuration whose energies the
// golden test tests/core/paper_example_test.cc pins against Table 4. Both
// engines must agree on it for every paper policy.
FuzzCase PaperExampleCase(const std::string& policy_id) {
  FuzzCase c;
  c.policy_id = policy_id;
  c.machine_points = MachineSpec::Machine0().points();
  c.tasks = TaskSet::PaperExample().tasks();
  c.exec_spec = StrFormat("t:%.17g,%.17g/%.17g,%.17g/1,1", 2.0 / 3.0, 1.0 / 3.0,
                          1.0 / 3.0, 1.0 / 3.0);
  c.horizon_ms = 16.0;
  return c;
}

TEST(DifferentialTest, Scenario0PaperExampleAgreesForAllPolicies) {
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    DifferentialRun run = RunDifferentialCase(PaperExampleCase(policy_id));
    EXPECT_TRUE(run.agreed) << "policy " << policy_id << "\n"
                            << DescribeDiffs(run.diffs);
  }
}

TEST(DifferentialTest, Scenario0MatchesPaperEnergies) {
  // Spot-pin two of the Table 4 energies through the REFERENCE engine, so a
  // bug that both engines share still has to get past the paper's numbers.
  FuzzCase c = PaperExampleCase("static_edf");
  DifferentialRun run = RunDifferentialCase(c);
  ASSERT_TRUE(run.agreed) << DescribeDiffs(run.diffs);
  EXPECT_NEAR(run.reference.cores[0].exec_energy, 112.0, 0.5);
  c.policy_id = "cc_edf";
  run = RunDifferentialCase(c);
  ASSERT_TRUE(run.agreed) << DescribeDiffs(run.diffs);
  EXPECT_NEAR(run.reference.cores[0].exec_energy, 91.0, 0.5);
}

TEST(DifferentialTest, TwoHundredGeneratedScenariosAcrossPoliciesAndMachines) {
  const MachineSpec machines[] = {MachineSpec::Machine0(), MachineSpec::Machine1(),
                                  MachineSpec::Machine2()};
  int scenarios = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Pcg32 rng(/*seed=*/42, static_cast<uint64_t>(trial));
    FuzzCase c = GenerateFuzzCase(rng);
    for (const MachineSpec& machine : machines) {
      c.machine_points = machine.points();
      for (const std::string& policy_id : AllPaperPolicyIds()) {
        c.policy_id = policy_id;
        DifferentialRun run = RunDifferentialCase(c);
        ASSERT_TRUE(run.agreed)
            << "repro: " << FuzzCaseToRepro(c) << "\n"
            << DescribeDiffs(run.diffs);
        ++scenarios;
      }
    }
  }
  EXPECT_EQ(scenarios, 200 * 3 * static_cast<int>(AllPaperPolicyIds().size()));
}

// The three nastiest shrunken cases from fault-injected fuzz campaigns
// (idle-path switch accounting, the pre-PR-2 production bug): each mixes a
// speed change with an idle transition so the halt-attribution logic is
// exercised on every event. They must agree fault-free, and the injected
// fault must still be detected — proving the golden actually covers the
// code path it was minimized for.
const char* const kGoldenRepros[] = {
    "rtdvs-fuzz-v1;policy=la_edf;machine=0.19/1.2,1/1.6000000000000001;"
    "tasks=5:1:0;exec=c:1;horizon=6;idle=0;switch=0.5;miss=late;seed=1",
    "rtdvs-fuzz-v1;policy=cc_rm;machine=0.68999999999999995/2.2999999999999998,"
    "1/2.8999999999999999;tasks=4:1:0,17:2:0;exec=c:1;horizon=19;idle=0;"
    "switch=0.10000000000000001;miss=late;seed=1",
    "rtdvs-fuzz-v1;policy=cc_edf;machine=0.56999999999999995/3.5,"
    "1/4.5999999999999996;tasks=3:1:0,4:1:0;exec=c:1;horizon=5;idle=0;"
    "switch=0.10000000000000001;miss=late;seed=1",
};

template <size_t N>
void ExpectReprosAgree(const char* const (&repros)[N]) {
  for (const char* repro : repros) {
    std::string error;
    auto c = ParseRepro(repro, &error);
    ASSERT_TRUE(c.has_value()) << error;
    DifferentialRun run = RunDifferentialCase(*c);
    EXPECT_TRUE(run.agreed) << "repro: " << repro << "\n"
                            << DescribeDiffs(run.diffs);
  }
}

TEST(DifferentialTest, GoldenShrunkenScenariosAgree) {
  ExpectReprosAgree(kGoldenRepros);
}

TEST(DifferentialTest, GoldenScenariosStillDetectInjectedIdleSwitchBug) {
  ReferenceFaults faults;
  faults.idle_path_switch_bug = true;
  for (const char* repro : kGoldenRepros) {
    auto c = ParseRepro(repro);
    ASSERT_TRUE(c.has_value());
    DifferentialRun run = RunDifferentialCase(*c, faults);
    EXPECT_FALSE(run.agreed) << "repro no longer covers the halt-into-idle "
                                "path: "
                             << repro;
  }
}

// Two overloaded static_rm cases on power-of-two machines with dyadic
// periods, constant fractions and zero phases: the only inputs on which the
// simulator's former hyperperiod memo armed, and on which its replay check
// aborted the process once the backlog made consecutive windows differ.
// They come from fuzz campaigns at seed 13 (trial 1442, every trial biased
// to such inputs) and seed 11 (trial 2913).
const char* const kDyadicBacklogRepros[] = {
    "rtdvs-fuzz-v1;policy=static_rm;machine=0.125/1.397,0.25/1.694,0.5/1.899,"
    "1/2.4790000000000001;tasks=1:0.3125:0,1:0.375:0,1:0.265625:0,8:1.75:0;"
    "exec=c:1;horizon=384;idle=0.10000000000000001;switch=0;miss=late;"
    "seed=13222989868369341613",
    "rtdvs-fuzz-v1;policy=static_rm;machine=0.5/1.036,1/1.603;"
    "tasks=1:0.25:0,2:0.4375:0,2:0.75:0,1:0.3125:0;exec=c:1;horizon=128;"
    "idle=0;switch=0.5;miss=late;seed=9181154653304881684",
};

TEST(DifferentialTest, DyadicBacklogScenariosAgree) {
  ExpectReprosAgree(kDyadicBacklogRepros);
}

TEST(DifferentialTest, DetectsInjectedMissOrderingBug) {
  // A task at full utilization completes exactly on its deadline every
  // period; processing misses before completions misclassifies each one.
  auto c = ParseRepro(
      "rtdvs-fuzz-v1;policy=edf;machine=1/5;tasks=10:10:0;exec=c:1;"
      "horizon=40;idle=0;switch=0;miss=late;seed=1");
  ASSERT_TRUE(c.has_value());
  ReferenceFaults faults;
  faults.miss_before_completion_bug = true;
  DifferentialRun healthy = RunDifferentialCase(*c);
  EXPECT_TRUE(healthy.agreed) << DescribeDiffs(healthy.diffs);
  DifferentialRun faulty = RunDifferentialCase(*c, faults);
  EXPECT_FALSE(faulty.agreed);
}

TEST(DifferentialTest, EachPolicyCounterIsCompared) {
  // A result that differs from its copy only in one counter must disagree,
  // and the diff must name that counter.
  const SimResult base = RunDifferentialCase(PaperExampleCase("la_edf")).production.cores[0];
  const struct {
    const char* field;
    int64_t PolicyCounters::*count;
    double PolicyCounters::*sum;
  } fields[] = {
      {"counters.speed_change_requests", &PolicyCounters::speed_change_requests, nullptr},
      {"counters.speed_transitions", &PolicyCounters::speed_transitions, nullptr},
      {"counters.slack_completions", &PolicyCounters::slack_completions, nullptr},
      {"counters.slack_reclaimed_ms", nullptr, &PolicyCounters::slack_reclaimed_ms},
      {"counters.deferral_decisions", &PolicyCounters::deferral_decisions, nullptr},
      {"counters.work_deferred_ms", nullptr, &PolicyCounters::work_deferred_ms},
      {"counters.utilization_samples", &PolicyCounters::utilization_samples, nullptr},
      {"counters.utilization_sum", nullptr, &PolicyCounters::utilization_sum},
      {"counters.migrations", &PolicyCounters::migrations, nullptr},
      {"counters.admission_rejections", &PolicyCounters::admission_rejections, nullptr},
  };
  for (const auto& f : fields) {
    SimResult changed = base;
    if (f.count != nullptr) {
      changed.policy_counters.*f.count += 1;
    } else {
      changed.policy_counters.*f.sum += 1e-6;
    }
    std::vector<FieldDiff> diffs;
    EXPECT_FALSE(ResultsAgree(changed, base, &diffs)) << f.field;
    ASSERT_EQ(diffs.size(), 1u) << f.field << "\n" << DescribeDiffs(diffs);
    EXPECT_EQ(diffs[0].field, f.field);
  }
}

}  // namespace
}  // namespace rtdvs
