// Tests for the fuzz-case generators and repro-string round-trip.
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/dvs/policy.h"
#include "src/testing/generators.h"
#include "src/util/random.h"

namespace rtdvs {
namespace {

TEST(GeneratorsTest, DeterministicInSeed) {
  for (uint64_t stream = 0; stream < 20; ++stream) {
    Pcg32 a(1, stream);
    Pcg32 b(1, stream);
    FuzzCase case_a = GenerateFuzzCase(a);
    FuzzCase case_b = GenerateFuzzCase(b);
    EXPECT_TRUE(FuzzCaseEquals(case_a, case_b));
    EXPECT_EQ(FuzzCaseToRepro(case_a), FuzzCaseToRepro(case_b));
  }
  Pcg32 c(2, 0);
  Pcg32 d(3, 0);
  EXPECT_FALSE(FuzzCaseEquals(GenerateFuzzCase(c), GenerateFuzzCase(d)));
}

TEST(GeneratorsTest, GeneratedCasesAreStructurallyValid) {
  for (uint64_t stream = 0; stream < 200; ++stream) {
    Pcg32 rng(5, stream);
    FuzzCase c = GenerateFuzzCase(rng);
    EXPECT_TRUE(IsValidPolicyId(c.policy_id));
    // MachineSpec and TaskSet constructors abort on invalid input, so
    // building them IS the validity assertion.
    MachineSpec machine = FuzzMachine(c);
    EXPECT_EQ(machine.points().back().frequency, 1.0);
    TaskSet tasks = FuzzTasks(c);
    EXPECT_GE(tasks.size(), 1);
    EXPECT_NE(MakeFuzzExecModel(c.exec_spec), nullptr);
    EXPECT_GT(c.horizon_ms, 0.0);
  }
}

TEST(GeneratorsTest, UtilizationTargetIsAccurate) {
  for (uint64_t stream = 0; stream < 50; ++stream) {
    Pcg32 rng(9, stream);
    double target = 0.2 + 0.15 * static_cast<double>(stream % 5);
    TaskSet tasks(GenerateFuzzTasks(rng, 5, target, /*harmonic=*/false,
                                    /*allow_phases=*/false));
    // Snapping to the microsecond grid and the 1 microsecond WCET floor
    // perturb each share slightly; 0.02 absolute tolerance covers it.
    EXPECT_NEAR(tasks.TotalUtilization(), target, 0.02)
        << "stream " << stream << ": " << tasks.ToString();
  }
}

TEST(GeneratorsTest, HarmonicSetsSharePowerOfTwoRatios) {
  Pcg32 rng(4, 0);
  std::vector<Task> tasks = GenerateFuzzTasks(rng, 6, 0.8, /*harmonic=*/true,
                                              /*allow_phases=*/false);
  double base = tasks[0].period_ms;
  for (const Task& task : tasks) {
    base = std::min(base, task.period_ms);
  }
  for (const Task& task : tasks) {
    double ratio = task.period_ms / base;
    EXPECT_DOUBLE_EQ(ratio, std::round(ratio)) << task.period_ms << " vs " << base;
    EXPECT_EQ(std::exp2(std::round(std::log2(ratio))), ratio);
  }
}

TEST(GeneratorsTest, MachinePointsCoverDegenerateSinglePointGrid) {
  std::set<size_t> sizes;
  for (uint64_t stream = 0; stream < 300; ++stream) {
    Pcg32 rng(8, stream);
    sizes.insert(GenerateMachinePoints(rng, 10).size());
  }
  EXPECT_TRUE(sizes.count(1)) << "degenerate single-point grid never generated";
  EXPECT_TRUE(sizes.count(10)) << "maximum-size grid never generated";
}

TEST(GeneratorsTest, ReproRoundTripIsExact) {
  for (uint64_t stream = 0; stream < 100; ++stream) {
    Pcg32 rng(11, stream);
    FuzzCase original = GenerateFuzzCase(rng);
    std::string repro = FuzzCaseToRepro(original);
    std::string error;
    auto parsed = ParseRepro(repro, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << repro;
    EXPECT_TRUE(FuzzCaseEquals(original, *parsed)) << repro;
    // Serializing the parse reproduces the string bit-for-bit.
    EXPECT_EQ(FuzzCaseToRepro(*parsed), repro);
  }
}

TEST(GeneratorsTest, ParseReproRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "not-a-repro",
      "rtdvs-fuzz-v1",                                          // no tasks
      "rtdvs-fuzz-v1;tasks=",                                   // empty tasks
      "rtdvs-fuzz-v1;tasks=5:1:0;policy=bogus",                 // unknown policy
      "rtdvs-fuzz-v1;tasks=5:6:0",                              // wcet > period
      "rtdvs-fuzz-v1;tasks=5:1:0;exec=q:1",                     // bad exec spec
      "rtdvs-fuzz-v1;tasks=5:1:0;miss=sometimes",               // bad miss policy
      "rtdvs-fuzz-v1;tasks=5:1:0;machine=1",                    // not f/v
      "rtdvs-fuzz-v1;tasks=5:1:0;horizon=-3",                   // bad horizon
      "rtdvs-fuzz-v1;tasks=5:1:0;unknown=1",                    // unknown field
  };
  for (const char* repro : bad) {
    std::string error;
    EXPECT_FALSE(ParseRepro(repro, &error).has_value()) << repro;
    if (std::string(repro).find("rtdvs-fuzz-v1") != std::string::npos) {
      EXPECT_FALSE(error.empty()) << repro;
    }
  }
}

TEST(GeneratorsTest, LegacyCorePoolDrawsIdenticalCasesToPreClusterGenerator) {
  // The default core pool {1} must not consume ANY extra randomness: two
  // rngs in the same state, one generating with the default options and one
  // with an explicit {1} pool, must stay in lockstep across cases.
  Pcg32 a(21, 0);
  Pcg32 b(21, 0);
  FuzzGenOptions explicit_single;
  explicit_single.core_choices = {1};
  for (int i = 0; i < 50; ++i) {
    FuzzCase case_a = GenerateFuzzCase(a);
    FuzzCase case_b = GenerateFuzzCase(b, explicit_single);
    EXPECT_TRUE(FuzzCaseEquals(case_a, case_b));
    EXPECT_EQ(case_a.num_cores, 1);
    // Single-core repro strings never mention the cluster fields.
    EXPECT_EQ(FuzzCaseToRepro(case_a).find(";cores="), std::string::npos);
  }
}

TEST(GeneratorsTest, ClusterDrawsCoverModesAndHeuristics) {
  FuzzGenOptions options;
  options.core_choices = {2, 4};
  std::set<int> cores;
  std::set<std::string> modes;
  std::set<std::string> fits;
  for (uint64_t stream = 0; stream < 200; ++stream) {
    Pcg32 rng(23, stream);
    FuzzCase c = GenerateFuzzCase(rng, options);
    ASSERT_TRUE(c.num_cores == 2 || c.num_cores == 4);
    cores.insert(c.num_cores);
    modes.insert(MpModeName(c.mp_mode));
    fits.insert(PartitionHeuristicName(c.mp_partition));
    // The rescaled task set still builds.
    TaskSet tasks = FuzzTasks(c);
    EXPECT_GE(tasks.size(), 1);
    EXPECT_GT(c.horizon_ms, 0.0);
  }
  EXPECT_EQ(cores.size(), 2u);
  EXPECT_EQ(modes.size(), 2u);
  EXPECT_EQ(fits.size(), 4u);
}

TEST(GeneratorsTest, ClusterReproRoundTripIsExact) {
  FuzzGenOptions options;
  options.core_choices = {2, 4};
  for (uint64_t stream = 0; stream < 100; ++stream) {
    Pcg32 rng(27, stream);
    FuzzCase original = GenerateFuzzCase(rng, options);
    std::string repro = FuzzCaseToRepro(original);
    EXPECT_NE(repro.find(";cores="), std::string::npos);
    EXPECT_NE(repro.find(";mode="), std::string::npos);
    EXPECT_NE(repro.find(";fit="), std::string::npos);
    std::string error;
    auto parsed = ParseRepro(repro, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << repro;
    EXPECT_TRUE(FuzzCaseEquals(original, *parsed)) << repro;
    EXPECT_EQ(FuzzCaseToRepro(*parsed), repro);
  }
}

TEST(GeneratorsTest, ParseReproRejectsBadClusterFields) {
  const char* bad[] = {
      "rtdvs-fuzz-v1;tasks=5:1:0;cores=0",          // cores must be >= 1
      "rtdvs-fuzz-v1;tasks=5:1:0;cores=65",         // and <= 64
      "rtdvs-fuzz-v1;tasks=5:1:0;cores=two",        // and a number
      "rtdvs-fuzz-v1;tasks=5:1:0;mode=clustered",   // unknown mode
      "rtdvs-fuzz-v1;tasks=5:1:0;fit=ffd",          // unknown heuristic
  };
  for (const char* repro : bad) {
    std::string error;
    EXPECT_FALSE(ParseRepro(repro, &error).has_value()) << repro;
    EXPECT_FALSE(error.empty()) << repro;
  }
  // And a well-formed cluster repro parses.
  auto parsed = ParseRepro(
      "rtdvs-fuzz-v1;tasks=5:1:0,8:2:0;cores=4;mode=global;fit=wf");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_cores, 4);
  EXPECT_EQ(parsed->mp_mode, MpMode::kGlobal);
  EXPECT_EQ(parsed->mp_partition, PartitionHeuristic::kWorstFit);
}

TEST(GeneratorsTest, FuzzSimRequestMirrorsTheCase) {
  FuzzCase c;
  c.policy_id = "la_edf";
  c.tasks = {{"", 10.0, 2.0, 0.0}};
  c.num_cores = 4;
  c.mp_mode = MpMode::kGlobal;
  c.mp_partition = PartitionHeuristic::kBestFit;
  c.seed = 77;
  SimRequest request = FuzzSimRequest(c);
  EXPECT_EQ(request.cluster.num_cores, 4);
  EXPECT_EQ(request.mode, MpMode::kGlobal);
  EXPECT_EQ(request.partition, PartitionHeuristic::kBestFit);
  ASSERT_EQ(request.policy_ids.size(), 1u);
  EXPECT_EQ(request.policy_ids[0], "la_edf");
  EXPECT_EQ(request.options.seed, 77u);
  EXPECT_EQ(request.tasks.size(), 1);
}

TEST(GeneratorsTest, ExecModelGrammarCoversAllForms) {
  EXPECT_NE(MakeFuzzExecModel("c:1"), nullptr);
  EXPECT_NE(MakeFuzzExecModel("c:0.5"), nullptr);
  EXPECT_NE(MakeFuzzExecModel("u:0,1"), nullptr);
  EXPECT_NE(MakeFuzzExecModel("cold:1.5,1"), nullptr);
  EXPECT_NE(MakeFuzzExecModel("cold:2,0"), nullptr);
  EXPECT_NE(MakeFuzzExecModel("t:0.5,1/1,1"), nullptr);
  EXPECT_EQ(MakeFuzzExecModel("c:0"), nullptr);       // fraction must be > 0
  EXPECT_EQ(MakeFuzzExecModel("c:1.5"), nullptr);     // and <= 1
  EXPECT_EQ(MakeFuzzExecModel("u:0.8,0.2"), nullptr); // hi <= lo
  EXPECT_EQ(MakeFuzzExecModel("cold:0.5,1"), nullptr);// factor < 1
  EXPECT_EQ(MakeFuzzExecModel("t:"), nullptr);
  EXPECT_EQ(MakeFuzzExecModel("nope"), nullptr);
}

}  // namespace
}  // namespace rtdvs
