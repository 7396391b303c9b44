#include "src/core/scenario.h"

#include <gtest/gtest.h>

#include "src/sim/mp_simulator.h"
#include "src/util/json.h"

namespace rtdvs {
namespace {

Scenario Ok(std::variant<Scenario, std::string> result) {
  if (!std::holds_alternative<Scenario>(result)) {
    ADD_FAILURE() << std::get<std::string>(result);
    return Scenario{};
  }
  return std::get<Scenario>(std::move(result));
}

std::string Err(const std::variant<Scenario, std::string>& result) {
  EXPECT_TRUE(std::holds_alternative<std::string>(result));
  return std::holds_alternative<std::string>(result) ? std::get<std::string>(result)
                                                     : "";
}

TEST(Scenario, ParsesTasksMachineAndComments) {
  auto result = ParseScenario(R"(
# a comment
machine machine2
task a 10 3 c=0.5   # trailing comment
task b 50 10
)");
  const Scenario& scenario = Ok(result);
  EXPECT_EQ(scenario.machine.name(), "machine2");
  ASSERT_EQ(scenario.tasks.size(), 2);
  EXPECT_EQ(scenario.tasks.task(0).name, "a");
  EXPECT_DOUBLE_EQ(scenario.tasks.task(0).period_ms, 10.0);
  EXPECT_DOUBLE_EQ(scenario.tasks.task(1).wcet_ms, 10.0);
  EXPECT_EQ(scenario.demand_specs[0], "c=0.5");
  EXPECT_EQ(scenario.demand_specs[1], "");
  EXPECT_EQ(scenario.server.kind, ServerKind::kNone);
}

TEST(Scenario, DefaultsToMachine0) {
  const Scenario& scenario = Ok(ParseScenario("task t 10 1\n"));
  EXPECT_EQ(scenario.machine.name(), "machine0");
}

TEST(Scenario, ParsesServerLine) {
  const Scenario& scenario = Ok(ParseScenario(
      "task t 10 1\nserver cbs 20 4 interarrival=30 service=2 maxservice=6\n"));
  EXPECT_EQ(scenario.server.kind, ServerKind::kCbs);
  EXPECT_DOUBLE_EQ(scenario.server.period_ms, 20.0);
  EXPECT_DOUBLE_EQ(scenario.server.budget_ms, 4.0);
  EXPECT_DOUBLE_EQ(scenario.server.arrivals.mean_interarrival_ms, 30.0);
  EXPECT_DOUBLE_EQ(scenario.server.arrivals.mean_service_ms, 2.0);
  EXPECT_DOUBLE_EQ(scenario.server.arrivals.max_service_ms, 6.0);
}

TEST(Scenario, DeferrableServerIsAParseError) {
  const std::string error = Err(ParseScenario("task t 10 1\nserver deferrable 20 2\n"));
  EXPECT_NE(error.find("unknown server kind 'deferrable' (polling|cbs)"),
            std::string::npos)
      << error;
}

TEST(Scenario, ErrorsCarryLineNumbers) {
  EXPECT_NE(Err(ParseScenario("task t 10 1\nbogus line\n")).find("line 2"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("machine marsrover\n")).find("unknown machine"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("task t 10 20\n")).find("wcet"), std::string::npos);
  EXPECT_NE(Err(ParseScenario("task t 10 1 d=?\n")).find("demand"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("task t 10 1\nserver magic 10 1\n"))
                .find("server kind"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("task t 10 1\nserver cbs 10 1 wat=3\n"))
                .find("unknown server option"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("")).find("no tasks"), std::string::npos);
  // A non-finite number is a parse error on its own line, never a run.
  for (const char* line :
       {"task t nan 1", "task t inf 1", "task t 1e400 1", "server cbs nan 1",
        "server cbs 10 1 interarrival=nan", "task t 10 1 c=nan", "task t 10 1 uniform=nan,1",
        "task t 10 1 uniform=0.2,nan", "task t 10 1 bimodal=nan,0.5",
        "task t 10 1 bimodal=0.5,nan"}) {
    EXPECT_NE(Err(ParseScenario(std::string("task a 10 1\n") + line + "\n")).find("line 2"),
              std::string::npos)
        << line;
  }
}

TEST(Scenario, DemandModelSyntax) {
  EXPECT_NE(MakeDemandModel(""), nullptr);
  EXPECT_NE(MakeDemandModel("c=0.9"), nullptr);
  EXPECT_NE(MakeDemandModel("uniform"), nullptr);
  EXPECT_NE(MakeDemandModel("uniform=0.2,0.8"), nullptr);
  EXPECT_NE(MakeDemandModel("bimodal=0.3,0.05"), nullptr);
  EXPECT_NE(MakeDemandModel("cold=2.5"), nullptr);
  EXPECT_EQ(MakeDemandModel("c=1.5"), nullptr);
  EXPECT_EQ(MakeDemandModel("uniform=0.8,0.2"), nullptr);
  EXPECT_EQ(MakeDemandModel("bimodal=0.3"), nullptr);
  EXPECT_EQ(MakeDemandModel("cold=0.5"), nullptr);
  EXPECT_EQ(MakeDemandModel("quux=1"), nullptr);
}

TEST(Scenario, ExecModelDispatchesPerTask) {
  const Scenario& scenario =
      Ok(ParseScenario("task a 10 2 c=0.5\ntask b 10 2 c=0.25\n"));
  auto model = scenario.MakeExecModel();
  Pcg32 rng(1);
  EXPECT_DOUBLE_EQ(model->DrawFraction(0, 0, rng), 0.5);
  EXPECT_DOUBLE_EQ(model->DrawFraction(1, 0, rng), 0.25);
  // Beyond the declared tasks (e.g. the auto-appended server): worst case.
  EXPECT_DOUBLE_EQ(model->DrawFraction(2, 0, rng), 1.0);
}

TEST(Scenario, ShippedScenarioFilesParse) {
  for (const char* path : {"examples/scenarios/camcorder.scn",
                           "examples/scenarios/paper_table2.scn"}) {
    auto result = LoadScenarioFile(path);
    EXPECT_TRUE(std::holds_alternative<Scenario>(result))
        << path << ": "
        << (std::holds_alternative<std::string>(result)
                ? std::get<std::string>(result)
                : "");
  }
}

TEST(Scenario, FilesWithoutClusterLinesStaySingleCore) {
  // The multiprocessor extension must not reinterpret classic files: no
  // cluster line means num_cores == 1 with the default mode/fit, and the
  // request keeps the SimRequest policy default when no policies line.
  const Scenario& scenario = Ok(ParseScenario("task t 10 1\n"));
  EXPECT_EQ(scenario.num_cores, 1);
  EXPECT_EQ(scenario.mp_mode, MpMode::kPartitioned);
  EXPECT_EQ(scenario.mp_partition, PartitionHeuristic::kFirstFit);
  EXPECT_TRUE(scenario.policy_ids.empty());
  SimRequest request = scenario.ToSimRequest(SimOptions{});
  EXPECT_EQ(request.cluster.num_cores, 1);
  EXPECT_EQ(request.policy_ids, std::vector<std::string>{"cc_edf"});
}

TEST(Scenario, ParsesClusterAndPoliciesLines) {
  const Scenario& scenario = Ok(ParseScenario(R"(
machine machine1
cluster 4 mode=global fit=wf
policies la_edf
task a 10 3
task b 20 5
)"));
  EXPECT_EQ(scenario.num_cores, 4);
  EXPECT_EQ(scenario.mp_mode, MpMode::kGlobal);
  EXPECT_EQ(scenario.mp_partition, PartitionHeuristic::kWorstFit);
  EXPECT_EQ(scenario.policy_ids, std::vector<std::string>{"la_edf"});

  SimOptions options;
  options.horizon_ms = 42.0;
  SimRequest request = scenario.ToSimRequest(options);
  EXPECT_EQ(request.cluster.num_cores, 4);
  EXPECT_EQ(request.cluster.machine.name(), "machine1");
  EXPECT_EQ(request.mode, MpMode::kGlobal);
  EXPECT_EQ(request.partition, PartitionHeuristic::kWorstFit);
  EXPECT_EQ(request.policy_ids, scenario.policy_ids);
  EXPECT_DOUBLE_EQ(request.options.horizon_ms, 42.0);
}

TEST(Scenario, ParsesPerCorePolicyList) {
  const Scenario& scenario = Ok(ParseScenario(
      "cluster 2\npolicies cc_edf cc_rm\ntask a 10 3\ntask b 20 5\n"));
  ASSERT_EQ(scenario.policy_ids.size(), 2u);
  EXPECT_EQ(scenario.policy_ids[0], "cc_edf");
  EXPECT_EQ(scenario.policy_ids[1], "cc_rm");
}

TEST(Scenario, ClusterLineErrors) {
  EXPECT_NE(Err(ParseScenario("cluster 0\ntask t 10 1\n")).find("1..64"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("cluster 65\ntask t 10 1\n")).find("1..64"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("cluster two\ntask t 10 1\n")).find("integer"),
            std::string::npos);
  EXPECT_NE(
      Err(ParseScenario("cluster 2 mode=clustered\ntask t 10 1\n")).find("mode"),
      std::string::npos);
  EXPECT_NE(Err(ParseScenario("cluster 2 fit=ffd\ntask t 10 1\n")).find("fit"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("cluster 2 pack=ff\ntask t 10 1\n"))
                .find("unknown cluster option"),
            std::string::npos);
  EXPECT_NE(Err(ParseScenario("policies bogus\ntask t 10 1\n"))
                .find("unknown policy id"),
            std::string::npos);
  // Policy count must be 1 or num_cores.
  EXPECT_NE(Err(ParseScenario(
                    "cluster 4\npolicies cc_edf la_edf\ntask t 10 1\n"))
                .find("cores"),
            std::string::npos);
  // Aperiodic servers are a single-core feature.
  EXPECT_NE(Err(ParseScenario(
                    "cluster 2\ntask t 10 1\nserver cbs 20 4\n"))
                .find("single-core"),
            std::string::npos);
}

TEST(Scenario, ClusterScenarioRunsAndJsonRoundTrips) {
  // End to end: parse a cluster scenario, run it through the cluster API,
  // and push the JSON view through the writer AND the parser — the
  // round-trip must preserve the fields the CLI consumers read.
  const Scenario& scenario = Ok(ParseScenario(R"(
cluster 2 mode=partitioned fit=bf
policies cc_edf
task a 10 4
task b 15 6
task c 20 9
)"));
  SimOptions options;
  options.horizon_ms = 60.0;
  SimRequest request = scenario.ToSimRequest(options);
  auto model = scenario.MakeExecModel();
  MpSimResult result = RunClusterSimulation(request, *model);
  ASSERT_TRUE(result.admitted);

  JsonValue doc = MpSimResultToJson(result);
  std::string error;
  auto parsed = JsonValue::Parse(doc.ToString(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Get("version").AsString(), "rtdvs-mpsim-v1");
  EXPECT_EQ(parsed->Get("num_cores").AsInt(), 2);
  EXPECT_TRUE(parsed->Get("admitted").AsBool());
  EXPECT_EQ(parsed->Get("cores").size(), 2u);
  EXPECT_EQ(parsed->Get("partition").Get("core_of_task").size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->Get("cluster").Get("total_energy").AsDouble(),
                   result.cluster.total_energy());
}

TEST(Scenario, MissingFileIsAnError) {
  EXPECT_NE(Err(LoadScenarioFile("/nonexistent/x.scn")).find("cannot open"),
            std::string::npos);
}

}  // namespace
}  // namespace rtdvs
