// Golden test for the Chrome-trace exporter, on the paper's worked example
// (Table 2 task set, Table 3 execution times, machine 0, 16 ms). The
// invariant that makes the exported trace trustworthy: re-integrating the
// frequency counter track over the execution slices reproduces the
// simulator's reported exec_energy exactly — the trace is the energy
// accounting, not a lossy visualization of it.
#include "src/sim/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/json.h"

namespace rtdvs {
namespace {

std::unique_ptr<ExecTimeModel> Table3Model() {
  return std::make_unique<TableFractionModel>(std::vector<std::vector<double>>{
      {2.0 / 3.0, 1.0 / 3.0}, {1.0 / 3.0, 1.0 / 3.0}, {1.0, 1.0}});
}

struct Exported {
  SimResult result;
  JsonValue doc;
};

Exported RunAndExport(const std::string& policy_id) {
  TaskSet tasks = TaskSet::PaperExample();
  auto policy = MakePolicy(policy_id);
  auto model = Table3Model();
  SimOptions options;
  options.horizon_ms = 16.0;
  options.record_trace = true;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, *model, options);
  JsonValue doc = ExportChromeTrace(result, tasks, options);
  return {std::move(result), std::move(doc)};
}

TEST(TraceExport, DocumentHasChromeTraceShape) {
  Exported exported = RunAndExport("cc_edf");
  const JsonValue& doc = exported.doc;
  EXPECT_EQ(doc.Get("displayTimeUnit").AsString(), "ms");
  const JsonValue& events = doc.Get("traceEvents");
  ASSERT_GT(events.size(), 0u);
  bool saw_metadata = false, saw_slice = false, saw_counter = false,
       saw_instant = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string& ph = event.Get("ph").AsString();
    ASSERT_NE(event.Find("pid"), nullptr);
    if (ph == "M") {
      saw_metadata = true;
    } else if (ph == "X") {
      saw_slice = true;
      EXPECT_GE(event.Get("dur").AsDouble(), 0.0);
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(event.Get("name").AsString(), "frequency");
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(event.Get("s").AsString(), "t");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);

  const JsonValue& other = doc.Get("otherData");
  EXPECT_EQ(other.Get("policy").AsString(), exported.result.policy_name);
  EXPECT_DOUBLE_EQ(other.Get("horizon_ms").AsDouble(), 16.0);
  EXPECT_FALSE(other.Get("truncated").AsBool());
}

TEST(TraceExport, NamesEveryTaskTrackAndTheCpuTrack) {
  Exported exported = RunAndExport("la_edf");
  const JsonValue& events = exported.doc.Get("traceEvents");
  std::vector<std::string> thread_names;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("ph").AsString() == "M" &&
        event.Get("name").AsString() == "thread_name") {
      thread_names.push_back(event.Get("args").Get("name").AsString());
    }
  }
  // CPU track + the three Table-2 tasks.
  ASSERT_EQ(thread_names.size(), 4u);
  EXPECT_EQ(thread_names[0], "cpu (idle/switch)");
  EXPECT_EQ(thread_names[1], "T1 (C=3 T=8)");
  EXPECT_EQ(thread_names[2], "T2 (C=3 T=10)");
  EXPECT_EQ(thread_names[3], "T3 (C=1 T=14)");
}

// The acceptance criterion of the exporter: walk the frequency counter
// track as a step function, integrate work over the execution slices with
// the CMOS V^2 energy law, and land exactly on SimResult::exec_energy.
void CheckReintegration(const std::string& policy_id) {
  SCOPED_TRACE(policy_id);
  Exported exported = RunAndExport(policy_id);
  const JsonValue& doc = exported.doc;
  const double coefficient =
      doc.Get("otherData").Get("energy_coefficient").AsDouble();
  const JsonValue& events = doc.Get("traceEvents");

  // Counter steps, in emission order (= ascending ts).
  struct Step {
    double ts, frequency, voltage;
  };
  std::vector<Step> steps;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("ph").AsString() == "C") {
      steps.push_back({event.Get("ts").AsDouble(),
                       event.Get("args").Get("frequency").AsDouble(),
                       event.Get("args").Get("voltage").AsDouble()});
    }
  }
  ASSERT_FALSE(steps.empty());

  double integrated = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("ph").AsString() != "X" ||
        event.Get("tid").AsInt() == 0) {  // tid 0: idle/switch track
      continue;
    }
    const double ts = event.Get("ts").AsDouble();
    // The counter value in effect at this slice's start.
    const Step* current = nullptr;
    for (const Step& step : steps) {
      if (step.ts <= ts + 1e-9) {
        current = &step;
      }
    }
    ASSERT_NE(current, nullptr);
    // The slice's own args agree with the counter track...
    EXPECT_EQ(event.Get("args").Get("frequency").AsDouble(), current->frequency);
    EXPECT_EQ(event.Get("args").Get("voltage").AsDouble(), current->voltage);
    // ...and integrating dur * f * V^2 reproduces the slice energy.
    const double dur_ms = event.Get("dur").AsDouble() / 1000.0;
    const double work = dur_ms * current->frequency;
    const double energy = work * current->voltage * current->voltage * coefficient;
    EXPECT_NEAR(event.Get("args").Get("energy").AsDouble(), energy,
                1e-12 * (1.0 + energy));
    integrated += energy;
  }
  EXPECT_NEAR(integrated, exported.result.exec_energy,
              1e-9 * (1.0 + exported.result.exec_energy));
}

TEST(TraceExport, FrequencyTrackReintegratesToExecEnergy) {
  for (const auto& id : AllPaperPolicyIds()) {
    CheckReintegration(id);
  }
}

TEST(TraceExport, IdleSlicesSumToIdleEnergy) {
  // Nonzero idle level so idle slices carry real energy.
  TaskSet tasks = TaskSet::PaperExample();
  auto policy = MakePolicy("cc_edf");
  auto model = Table3Model();
  SimOptions options;
  options.horizon_ms = 16.0;
  options.idle_level = 0.1;
  options.record_trace = true;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, *model, options);
  JsonValue doc = ExportChromeTrace(result, tasks, options);
  const JsonValue& events = doc.Get("traceEvents");
  double idle_energy = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("ph").AsString() == "X" &&
        event.Get("name").AsString() == "idle") {
      idle_energy += event.Get("args").Get("energy").AsDouble();
    }
  }
  EXPECT_NEAR(idle_energy, result.idle_energy, 1e-9 * (1.0 + result.idle_energy));
}

TEST(TraceExport, TruncatedTraceIsFlagged) {
  TaskSet tasks = TaskSet::PaperExample();
  auto policy = MakePolicy("edf");
  auto model = Table3Model();
  SimOptions options;
  options.horizon_ms = 160.0;
  options.record_trace = true;
  options.max_trace_segments = 4;  // force truncation
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, *model, options);
  ASSERT_TRUE(result.trace.truncated());
  JsonValue doc = ExportChromeTrace(result, tasks, options);
  EXPECT_TRUE(doc.Get("otherData").Get("truncated").AsBool());
  // The exporter reports how much was actually recorded (the event list can
  // hit the capacity limit before the segment list does).
  EXPECT_EQ(doc.Get("otherData").Get("segments").AsInt(),
            static_cast<int64_t>(result.trace.segments().size()));
  EXPECT_LE(doc.Get("otherData").Get("segments").AsInt(), 4);
}

TEST(TraceExport, WriteChromeTraceRoundTrips) {
  TaskSet tasks = TaskSet::PaperExample();
  auto policy = MakePolicy("cc_edf");
  auto model = Table3Model();
  SimOptions options;
  options.horizon_ms = 16.0;
  options.record_trace = true;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, *model, options);
  std::string path = testing::TempDir() + "/trace_export_test.json";
  ASSERT_TRUE(WriteChromeTrace(result, tasks, options, path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ToString(), ExportChromeTrace(result, tasks, options).ToString());
  std::remove(path.c_str());
}

SimRequest MpRequest(MpMode mode) {
  SimRequest request;
  std::vector<Task> tasks = {{"A", 10.0, 4.0, 0.0},
                             {"B", 15.0, 6.0, 0.0},
                             {"C", 20.0, 9.0, 0.0}};
  request.tasks = TaskSet(tasks);
  request.cluster.num_cores = 2;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = mode;
  request.policy_ids = {"cc_edf"};
  request.options.horizon_ms = 60.0;
  request.options.record_trace = true;
  return request;
}

TEST(TraceExportMp, PartitionedExportGroupsTracksPerCore) {
  SimRequest request = MpRequest(MpMode::kPartitioned);
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_TRUE(result.admitted);
  JsonValue doc = ExportChromeTraceMp(result, request.tasks, request.options);

  // One process per core, named for the core; every event's pid is a valid
  // core index (no cluster group: partitioned cluster traces are empty).
  std::vector<std::string> process_names;
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const int64_t pid = event.Get("pid").AsInt();
    EXPECT_GE(pid, 0);
    EXPECT_LT(pid, 2);
    if (event.Get("ph").AsString() == "M" &&
        event.Get("name").AsString() == "process_name") {
      process_names.push_back(event.Get("args").Get("name").AsString());
    }
  }
  ASSERT_EQ(process_names.size(), 2u);
  EXPECT_EQ(process_names[0], "core 0: ccEDF");
  EXPECT_EQ(process_names[1], "core 1: ccEDF");

  // Per-core execution slices re-sum to each core's exec energy.
  for (int c = 0; c < 2; ++c) {
    double exec = 0.0;
    for (size_t i = 0; i < events.size(); ++i) {
      const JsonValue& event = events.at(i);
      if (event.Get("pid").AsInt() == c && event.Get("ph").AsString() == "X" &&
          event.Get("tid").AsInt() != 0) {
        exec += event.Get("args").Get("energy").AsDouble();
      }
    }
    const double expected = result.cores[static_cast<size_t>(c)].exec_energy;
    EXPECT_NEAR(exec, expected, 1e-9 * (1.0 + expected)) << "core " << c;
  }

  const JsonValue& other = doc.Get("otherData");
  EXPECT_EQ(other.Get("mode").AsString(), "partitioned");
  EXPECT_EQ(other.Get("num_cores").AsInt(), 2);
  EXPECT_TRUE(other.Get("admitted").AsBool());
  EXPECT_EQ(other.Get("migrations").AsInt(), 0);
}

TEST(TraceExportMp, GlobalExportCarriesClusterEventGroup) {
  SimRequest request = MpRequest(MpMode::kGlobal);
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_TRUE(result.admitted);
  JsonValue doc = ExportChromeTraceMp(result, request.tasks, request.options);

  // Global mode adds the cluster group at pid == num_cores, carrying the
  // job instant events; per-core groups carry the execution slices.
  const JsonValue& events = doc.Get("traceEvents");
  bool saw_cluster_instant = false;
  bool saw_core_slice = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const int64_t pid = event.Get("pid").AsInt();
    EXPECT_LE(pid, 2);
    if (pid == 2 && event.Get("ph").AsString() == "i") {
      saw_cluster_instant = true;
    }
    if (pid < 2 && event.Get("ph").AsString() == "X") {
      saw_core_slice = true;
    }
  }
  EXPECT_TRUE(saw_cluster_instant);
  EXPECT_TRUE(saw_core_slice);
}

TEST(TraceExportMp, PoweredDownCoreExportsEmptyOffGroup) {
  SimRequest request = MpRequest(MpMode::kPartitioned);
  std::vector<Task> tiny = {{"A", 10.0, 1.0, 0.0}};
  request.tasks = TaskSet(tiny);
  request.cluster.num_cores = 2;
  ConstantFractionModel model(1.0);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_TRUE(result.admitted);
  JsonValue doc = ExportChromeTraceMp(result, request.tasks, request.options);
  const JsonValue& events = doc.Get("traceEvents");
  std::string core1_name;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("pid").AsInt() == 1) {
      // Powered-down core: metadata only, no slices or counters.
      EXPECT_EQ(event.Get("ph").AsString(), "M");
      if (event.Get("name").AsString() == "process_name") {
        core1_name = event.Get("args").Get("name").AsString();
      }
    }
  }
  EXPECT_EQ(core1_name, "core 1: off");
}

// M = 1 with a polling server: the core simulated the request's two tasks
// plus the server task, so the export names a third task track for it and
// its execution slices land there.
TEST(TraceExportMp, SingleCoreServerRunNamesTheServerTrack) {
  SimRequest request = MpRequest(MpMode::kPartitioned);
  std::vector<Task> tasks = {{"A", 10.0, 3.0, 0.0}, {"B", 20.0, 4.0, 0.0}};
  request.tasks = TaskSet(tasks);
  request.cluster.num_cores = 1;
  request.options.aperiodic.kind = ServerKind::kPolling;
  request.options.aperiodic.period_ms = 10.0;
  request.options.aperiodic.budget_ms = 2.0;
  request.options.aperiodic.arrivals.fixed_arrivals = {
      {5.0, 1.5, 1.5, false, 0.0}, {31.0, 1.0, 1.0, false, 0.0}};
  ConstantFractionModel model(0.7);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_TRUE(result.admitted);
  ASSERT_EQ(result.cores[0].server_task_id, 2);
  ASSERT_EQ(result.core_tasks[0].size(), 3);
  EXPECT_EQ(result.core_global_ids[0], (std::vector<int>{0, 1, 2}));

  JsonValue doc = ExportChromeTraceMp(result, request.tasks, request.options);
  const JsonValue& events = doc.Get("traceEvents");
  std::vector<std::string> thread_names;
  int server_slices = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    if (event.Get("ph").AsString() == "M" &&
        event.Get("name").AsString() == "thread_name") {
      thread_names.push_back(event.Get("args").Get("name").AsString());
    }
    if (event.Get("ph").AsString() == "X" && event.Get("tid").AsInt() == 3) {
      EXPECT_EQ(event.Get("name").AsString(), "server");
      ++server_slices;
    }
  }
  EXPECT_EQ(thread_names, (std::vector<std::string>{
                              "cpu (idle/switch)", "A (C=3 T=10)",
                              "B (C=4 T=20)", "server (C=2 T=10)"}));
  EXPECT_GT(server_slices, 0);
}

TEST(TraceExportMp, InfeasibleResultExportsMetadataOnly) {
  SimRequest request = MpRequest(MpMode::kPartitioned);
  std::vector<Task> heavy = {{"A", 10.0, 7.0, 0.0},
                             {"B", 10.0, 7.0, 0.0},
                             {"C", 10.0, 7.0, 0.0}};
  request.tasks = TaskSet(heavy);
  ConstantFractionModel model(1.0);
  MpSimResult result = RunClusterSimulation(request, model);
  ASSERT_FALSE(result.admitted);
  JsonValue doc = ExportChromeTraceMp(result, request.tasks, request.options);
  EXPECT_EQ(doc.Get("traceEvents").size(), 0u);
  EXPECT_FALSE(doc.Get("otherData").Get("admitted").AsBool());
}

}  // namespace
}  // namespace rtdvs
