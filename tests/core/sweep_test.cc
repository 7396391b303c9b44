#include "src/core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "src/util/json.h"
#include "src/util/profiler.h"

namespace rtdvs {
namespace {

SweepOptions SmallOptions() {
  SweepOptions options;
  options.utilizations = {0.3, 0.7};
  options.num_tasks = 4;
  options.tasksets_per_point = 4;
  options.horizon_ms = 800.0;
  options.seed = 99;
  return options;
}

TEST(UtilizationSweep, ProducesOneRowPerUtilizationWithAllPolicies) {
  UtilizationSweep sweep(SmallOptions());
  SweepResult result = sweep.Run();
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.rows[0].utilization, 0.3);
  EXPECT_DOUBLE_EQ(result.rows[1].utilization, 0.7);
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.cells.size(), AllPaperPolicyIds().size());
    for (const auto& cell : row.cells) {
      EXPECT_EQ(cell.energy.count(), 4u);
    }
  }
  // The result echoes the resolved options and reports elapsed times.
  EXPECT_EQ(result.options.policy_ids, AllPaperPolicyIds());
  EXPECT_GT(result.options.jobs, 0);
  EXPECT_GT(result.elapsed_wall_ms, 0.0);
  EXPECT_GE(result.elapsed_cpu_ms, 0.0);
}

TEST(UtilizationSweep, InvariantsHoldPerRow) {
  UtilizationSweep sweep(SmallOptions());
  SweepResult result = sweep.Run();
  for (const auto& row : result.rows) {
    // Plain EDF is the first policy: its normalized energy is exactly 1.
    EXPECT_NEAR(row.cells[0].normalized_energy.mean(), 1.0, 1e-12);
    // The bound column (computed on EDF's workload) never exceeds EDF.
    EXPECT_LE(row.normalized_bound.mean(), 1.0 + 1e-9);
    for (size_t p = 0; p < row.cells.size(); ++p) {
      // All RT-DVS policies: no worse than EDF. (The per-run bound
      // comparison lives in tests/dvs/property_test.cc; comparing a
      // policy's energy against the EDF run's bound across runs is not a
      // valid invariant because executed tail work differs slightly.)
      EXPECT_LE(row.cells[p].normalized_energy.mean(), 1.0 + 1e-9);
      // EDF-based policies must not miss (RM ones only when the RM test
      // admits, which the harness does not filter for).
      const std::string& id = AllPaperPolicyIds()[p];
      if (id == "edf" || id == "static_edf" || id == "cc_edf" || id == "la_edf") {
        EXPECT_EQ(row.cells[p].deadline_misses, 0) << id;
      }
    }
  }
}

TEST(UtilizationSweep, DeterministicForSameSeed) {
  UtilizationSweep a(SmallOptions());
  UtilizationSweep b(SmallOptions());
  SweepResult result_a = a.Run();
  SweepResult result_b = b.Run();
  ASSERT_EQ(result_a.rows.size(), result_b.rows.size());
  for (size_t r = 0; r < result_a.rows.size(); ++r) {
    for (size_t p = 0; p < result_a.rows[r].cells.size(); ++p) {
      EXPECT_DOUBLE_EQ(result_a.rows[r].cells[p].energy.mean(),
                       result_b.rows[r].cells[p].energy.mean());
    }
  }
}

// The paired-comparison guarantee must survive parallel execution: a sweep
// run on one worker and the same sweep run on many workers must agree on
// every field, bit for bit (EXPECT_EQ on doubles, no tolerance).
TEST(UtilizationSweep, ParallelRunBitIdenticalToSerial) {
  SweepOptions serial_options = SmallOptions();
  serial_options.jobs = 1;
  SweepOptions parallel_options = SmallOptions();
  parallel_options.jobs = 4;

  SweepResult serial = UtilizationSweep(serial_options).Run();
  SweepResult parallel = UtilizationSweep(parallel_options).Run();

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t r = 0; r < serial.rows.size(); ++r) {
    const SweepRow& s = serial.rows[r];
    const SweepRow& q = parallel.rows[r];
    EXPECT_EQ(s.utilization, q.utilization);
    EXPECT_EQ(s.bound.count(), q.bound.count());
    EXPECT_EQ(s.bound.mean(), q.bound.mean());
    EXPECT_EQ(s.bound.variance(), q.bound.variance());
    EXPECT_EQ(s.bound.min(), q.bound.min());
    EXPECT_EQ(s.bound.max(), q.bound.max());
    EXPECT_EQ(s.normalized_bound.mean(), q.normalized_bound.mean());
    EXPECT_EQ(s.normalized_bound.variance(), q.normalized_bound.variance());
    ASSERT_EQ(s.cells.size(), q.cells.size());
    for (size_t p = 0; p < s.cells.size(); ++p) {
      EXPECT_EQ(s.cells[p].energy.count(), q.cells[p].energy.count());
      EXPECT_EQ(s.cells[p].energy.mean(), q.cells[p].energy.mean());
      EXPECT_EQ(s.cells[p].energy.variance(), q.cells[p].energy.variance());
      EXPECT_EQ(s.cells[p].energy.min(), q.cells[p].energy.min());
      EXPECT_EQ(s.cells[p].energy.max(), q.cells[p].energy.max());
      EXPECT_EQ(s.cells[p].normalized_energy.mean(),
                q.cells[p].normalized_energy.mean());
      EXPECT_EQ(s.cells[p].normalized_energy.variance(),
                q.cells[p].normalized_energy.variance());
      EXPECT_EQ(s.cells[p].deadline_misses, q.cells[p].deadline_misses);
      EXPECT_EQ(s.cells[p].tasksets_with_misses, q.cells[p].tasksets_with_misses);
      // Policy decision counters merge in serial grid order, so even their
      // double-valued fields must agree bit for bit across --jobs values.
      EXPECT_EQ(s.cells[p].counters, q.cells[p].counters);
    }
  }
  // The profile's merged per-policy counters are serial-order folds of the
  // cells, so they are bit-identical too (timings of course differ).
  ASSERT_EQ(serial.profile.policy_counters.size(),
            parallel.profile.policy_counters.size());
  for (size_t p = 0; p < serial.profile.policy_counters.size(); ++p) {
    EXPECT_EQ(serial.profile.policy_counters[p], parallel.profile.policy_counters[p]);
  }
  // And the rendered artifacts agree byte for byte.
  std::ostringstream csv_serial, csv_parallel;
  WriteCsv(serial, csv_serial);
  WriteCsv(parallel, csv_parallel);
  EXPECT_EQ(csv_serial.str(), csv_parallel.str());
}

TEST(UtilizationSweep, JobsBeyondShardCountStillComplete) {
  SweepOptions options = SmallOptions();
  options.utilizations = {0.5};
  options.tasksets_per_point = 2;
  options.jobs = 16;  // more workers than shards
  SweepResult result = UtilizationSweep(options).Run();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].cells[0].energy.count(), 2u);
  EXPECT_EQ(result.options.jobs, 16);
}

TEST(UtilizationSweep, TablesRenderAllColumns) {
  UtilizationSweep sweep(SmallOptions());
  SweepResult result = sweep.Run();
  TextTable table = RenderEnergyTable(result, /*normalized=*/true);
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  for (const char* name : {"EDF", "StaticRM", "StaticEDF", "ccEDF", "ccRM",
                           "laEDF", "bound", "utilization"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  std::ostringstream miss_out;
  RenderMissTable(result).Print(miss_out);
  EXPECT_NE(miss_out.str().find("ccRM"), std::string::npos);
}

TEST(UtilizationSweep, WriteCsvEmitsOneLinePerPolicyPlusBound) {
  SweepOptions options = SmallOptions();
  options.utilizations = {0.5};
  UtilizationSweep sweep(options);
  SweepResult result = sweep.Run();
  std::ostringstream out;
  WriteCsv(result, out, "csv,tag");
  std::string text = out.str();
  // Header + one line per policy + the bound line.
  size_t lines = 0;
  for (char c : text) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 1 + AllPaperPolicyIds().size() + 1);
  EXPECT_NE(text.find("csv,tag,utilization,policy,"), std::string::npos);
  EXPECT_NE(text.find("csv,tag,0.5,edf,"), std::string::npos);
  EXPECT_NE(text.find("csv,tag,0.5,bound,"), std::string::npos);
}

// Regression: SweepOptions used to silently drop switch_time_ms,
// miss_policy and energy_coefficient instead of forwarding them into each
// shard's SimOptions — a §4.1 transition-cost sweep ran at zero cost.
TEST(UtilizationSweep, ForwardsSimOptionsIntoShards) {
  SweepOptions baseline = SmallOptions();
  baseline.utilizations = {0.7};
  baseline.policy_ids = {"edf", "cc_edf"};
  SweepResult ideal = UtilizationSweep(baseline).Run();

  SweepOptions with_cost = baseline;
  with_cost.switch_time_ms = 2.0;
  SweepResult costly = UtilizationSweep(with_cost).Run();
  // ccEDF switches speeds constantly: a 2 ms halt per switch must change
  // its energy; plain EDF never switches, so it is unaffected.
  EXPECT_EQ(ideal.rows[0].cells[0].energy.mean(),
            costly.rows[0].cells[0].energy.mean());
  EXPECT_NE(ideal.rows[0].cells[1].energy.mean(),
            costly.rows[0].cells[1].energy.mean());

  SweepOptions scaled = baseline;
  scaled.energy_coefficient = 3.0;
  SweepResult tripled = UtilizationSweep(scaled).Run();
  // Energy is linear in the coefficient, workload generation is untouched.
  EXPECT_NEAR(tripled.rows[0].cells[0].energy.mean(),
              3.0 * ideal.rows[0].cells[0].energy.mean(),
              1e-9 * ideal.rows[0].cells[0].energy.mean());

  SweepOptions firm = baseline;
  firm.utilizations = {1.0};
  firm.policy_ids = {"static_rm"};  // RM at U=1.0: misses are certain
  firm.miss_policy = MissPolicy::kAbortJob;
  SweepResult aborting = UtilizationSweep(firm).Run();
  EXPECT_GT(aborting.rows[0].cells[0].deadline_misses, 0);
  EXPECT_EQ(aborting.audit_violations, 0);
}

TEST(UtilizationSweep, AuditRunsInEveryShardByDefault) {
  SweepOptions options = SmallOptions();
  ASSERT_TRUE(options.audit);
  SweepResult result = UtilizationSweep(options).Run();
  EXPECT_EQ(result.audit_violations, 0);
  EXPECT_TRUE(result.audit_messages.empty());
  for (const auto& row : result.rows) {
    for (const auto& cell : row.cells) {
      EXPECT_EQ(cell.audit_violations, 0);
    }
  }
}

TEST(UtilizationSweep, UUniFastGeneratorAlsoWorks) {
  SweepOptions options = SmallOptions();
  options.use_uunifast = true;
  options.utilizations = {0.5};
  UtilizationSweep sweep(options);
  SweepResult result = sweep.Run();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_LE(result.rows[0].cells.back().normalized_energy.mean(), 1.0 + 1e-9);
}

TEST(UtilizationSweep, RecordsPolicyCountersAndProfile) {
  SweepOptions options = SmallOptions();
  options.profile = true;
  SweepResult result = UtilizationSweep(options).Run();
  Profiler::Disable();
  Profiler::Reset();
  // The dynamic policies decide constantly; their counters cannot be empty.
  const auto& ids = result.options.policy_ids;
  for (const auto& row : result.rows) {
    for (size_t p = 0; p < row.cells.size(); ++p) {
      if (ids[p] == "cc_edf" || ids[p] == "la_edf") {
        EXPECT_GT(row.cells[p].counters.speed_change_requests, 0) << ids[p];
        EXPECT_GT(row.cells[p].counters.utilization_samples, 0) << ids[p];
      }
      if (ids[p] == "la_edf") {
        EXPECT_GT(row.cells[p].counters.deferral_decisions, 0);
      }
    }
  }
  // Profile: 2 utilizations x 4 task sets = 8 shards, each running every
  // policy; edf is in the default list, so the bound reuses its run.
  EXPECT_EQ(result.profile.shards, 8);
  EXPECT_EQ(result.profile.simulations,
            8 * static_cast<int64_t>(ids.size()));
  EXPECT_GT(result.profile.max_shard_ms, 0.0);
  EXPECT_GE(result.profile.p95_shard_ms, result.profile.p50_shard_ms);
  EXPECT_GE(result.profile.max_shard_ms, result.profile.p95_shard_ms);
  EXPECT_GT(result.profile.shards_per_sec, 0.0);
  EXPECT_GT(result.profile.sims_per_sec, 0.0);
  ASSERT_EQ(result.profile.policy_counters.size(), ids.size());
  // The profile totals are the fold of every cell.
  for (size_t p = 0; p < ids.size(); ++p) {
    PolicyCounters expected;
    for (const auto& row : result.rows) {
      expected.MergeFrom(row.cells[p].counters);
    }
    EXPECT_EQ(result.profile.policy_counters[p], expected) << ids[p];
  }
  // Sweep-overhead spans: one task-set generation per shard, one merge, one
  // §3.2 bound per simulation, and, at this sweep's single core, two audits
  // per simulation (the core's SimAudit and the cluster's).
  const auto& spans = result.profile.spans.spans;
  ASSERT_TRUE(spans.count("sweep/generate")) << "no sweep/generate span";
  ASSERT_TRUE(spans.count("sweep/merge")) << "no sweep/merge span";
  ASSERT_TRUE(spans.count("sweep/bound")) << "no sweep/bound span";
  ASSERT_TRUE(spans.count("sweep/audit")) << "no sweep/audit span";
  EXPECT_EQ(spans.at("sweep/generate").count, 8);
  EXPECT_EQ(spans.at("sweep/merge").count, 1);
  EXPECT_EQ(spans.at("sweep/bound").count, result.profile.simulations);
  EXPECT_EQ(spans.at("sweep/audit").count, 2 * result.profile.simulations);
}

TEST(UtilizationSweep, ProgressCallbackSeesEveryShardInOrder) {
  SweepOptions options = SmallOptions();
  options.jobs = 2;
  std::atomic<int64_t> calls{0};
  int64_t last_done = 0;
  int64_t reported_total = 0;
  // The harness serializes progress calls under its merge mutex, so plain
  // captures are safe.
  options.progress = [&](int64_t done, int64_t total) {
    ++calls;
    EXPECT_EQ(done, last_done + 1);
    last_done = done;
    reported_total = total;
  };
  SweepResult result = UtilizationSweep(options).Run();
  EXPECT_EQ(calls.load(), result.profile.shards);
  EXPECT_EQ(last_done, result.profile.shards);
  EXPECT_EQ(reported_total, result.profile.shards);
}

TEST(SweepResultToJson, EmitsValidatableDocument) {
  SweepOptions options = SmallOptions();
  options.policy_ids = {"edf", "cc_edf"};
  SweepResult result = UtilizationSweep(options).Run();
  JsonValue doc = SweepResultToJson(result);
  // Round-trips through the strict parser.
  auto parsed = JsonValue::Parse(doc.ToString(1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(doc.Get("config").Get("tasksets_per_point").AsInt(), 4);
  const JsonValue& rows = doc.Get("rows");
  ASSERT_EQ(rows.size(), 2u);
  const JsonValue& first = rows.at(0);
  EXPECT_DOUBLE_EQ(first.Get("utilization").AsDouble(), 0.3);
  const JsonValue& policies = first.Get("policies");
  ASSERT_EQ(policies.size(), 2u);
  EXPECT_EQ(policies.at(0).Get("id").AsString(), "edf");
  EXPECT_EQ(policies.at(1).Get("id").AsString(), "cc_edf");
  // Counters surface with their exact values.
  EXPECT_EQ(policies.at(1).Get("counters").Get("speed_change_requests").AsInt(),
            result.rows[0].cells[1].counters.speed_change_requests);
  EXPECT_EQ(doc.Get("profile").Get("shards").AsInt(), result.profile.shards);
  EXPECT_EQ(doc.Get("audit_violations").AsInt(), 0);
}

TEST(UtilizationSweep, MultiprocessorSweepRunsBothModes) {
  for (MpMode mode : {MpMode::kPartitioned, MpMode::kGlobal}) {
    SweepOptions options = SmallOptions();
    options.num_cores = 2;
    options.mp_mode = mode;
    options.policy_ids = {"edf", "cc_edf"};
    options.utilizations = {0.3};
    SweepResult result = UtilizationSweep(options).Run();
    ASSERT_EQ(result.rows.size(), 1u);
    const SweepRow& row = result.rows[0];
    // At per-core u = 0.3 every generated set partitions onto 2 EDF cores,
    // so all shards produce samples in both modes.
    for (const auto& cell : row.cells) {
      EXPECT_EQ(cell.admission_rejections, 0);
      EXPECT_EQ(cell.energy.count(), 4u);
      EXPECT_GT(cell.energy.mean(), 0.0);
    }
    // Normalization baseline is cluster-EDF on the same workload.
    EXPECT_NEAR(row.cells[0].normalized_energy.mean(), 1.0, 1e-12);
    EXPECT_LE(row.cells[1].normalized_energy.mean(), 1.0 + 1e-9);
    EXPECT_EQ(result.audit_violations, 0) << MpModeName(mode);
  }
}

TEST(UtilizationSweep, MultiprocessorPartitionedCountsRejections) {
  SweepOptions options = SmallOptions();
  options.num_cores = 2;
  options.mp_mode = MpMode::kPartitioned;
  options.policy_ids = {"cc_edf"};
  // Per-core u = 0.95 over 4 tasks: the total target is 1.9, and some draws
  // put > 1.0 on a single task's core, defeating every bin-packer.
  options.utilizations = {0.95};
  options.tasksets_per_point = 12;
  SweepResult result = UtilizationSweep(options).Run();
  const PolicyCell& cell = result.rows[0].cells[0];
  EXPECT_GT(cell.admission_rejections, 0);
  // Rejected shards contribute no samples; the split is exact.
  EXPECT_EQ(cell.energy.count() + static_cast<size_t>(cell.admission_rejections),
            12u);
}

TEST(UtilizationSweep, MultiprocessorParallelRunBitIdenticalToSerial) {
  SweepOptions serial_options = SmallOptions();
  serial_options.num_cores = 4;
  serial_options.policy_ids = {"edf", "cc_edf", "cc_rm"};
  serial_options.jobs = 1;
  SweepOptions parallel_options = serial_options;
  parallel_options.jobs = 4;
  SweepResult serial = UtilizationSweep(serial_options).Run();
  SweepResult parallel = UtilizationSweep(parallel_options).Run();
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t r = 0; r < serial.rows.size(); ++r) {
    const SweepRow& s = serial.rows[r];
    const SweepRow& q = parallel.rows[r];
    EXPECT_EQ(s.bound.mean(), q.bound.mean());
    for (size_t p = 0; p < s.cells.size(); ++p) {
      EXPECT_EQ(s.cells[p].energy.count(), q.cells[p].energy.count());
      EXPECT_EQ(s.cells[p].energy.mean(), q.cells[p].energy.mean());
      EXPECT_EQ(s.cells[p].normalized_energy.mean(),
                q.cells[p].normalized_energy.mean());
      EXPECT_EQ(s.cells[p].admission_rejections, q.cells[p].admission_rejections);
      EXPECT_EQ(s.cells[p].counters, q.cells[p].counters);
    }
  }
}

TEST(SweepResultToJson, CarriesClusterConfigAndRejections) {
  SweepOptions options = SmallOptions();
  options.num_cores = 2;
  options.mp_mode = MpMode::kGlobal;
  options.mp_partition = PartitionHeuristic::kWorstFit;
  options.policy_ids = {"cc_edf"};
  options.utilizations = {0.4};
  SweepResult result = UtilizationSweep(options).Run();
  JsonValue doc = SweepResultToJson(result);
  EXPECT_EQ(doc.Get("config").Get("num_cores").AsInt(), 2);
  EXPECT_EQ(doc.Get("config").Get("mp_mode").AsString(), "global");
  EXPECT_EQ(doc.Get("config").Get("partition").AsString(), "wf");
  EXPECT_EQ(doc.Get("rows")
                .at(0)
                .Get("policies")
                .at(0)
                .Get("admission_rejections")
                .AsInt(),
            0);
}

TEST(DefaultUtilizationGrid, TwentyPointsFrom5To100Percent) {
  auto grid = DefaultUtilizationGrid();
  ASSERT_EQ(grid.size(), 20u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.05);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
}

}  // namespace
}  // namespace rtdvs
