// Scaling efficiency of the parallel sweep harness: the Figure 9 workload
// (10 tasks, machine 0, full worst case) swept at --jobs 1, 2, 4 and
// hardware concurrency. Reports sims/sec, speedup over jobs=1, parallel
// efficiency (speedup / jobs) and shard queue-wait tails, and cross-checks
// that every jobs value produced bit-identical sweep rows — the harness's
// determinism contract under real load.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/core/sweep.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

SweepOptions Fig09Options(int64_t tasksets, int64_t sim_ms, bool quick,
                          bool profile) {
  SweepOptions options;
  options.num_tasks = 10;
  options.idle_level = 0.0;
  options.machine = MachineSpec::Machine0();
  options.exec_model_factory = [] {
    return std::make_unique<ConstantFractionModel>(1.0);
  };
  options.tasksets_per_point = static_cast<int>(tasksets);
  options.horizon_ms = static_cast<double>(sim_ms);
  if (quick) {
    options.tasksets_per_point = 10;
    options.horizon_ms = 1000.0;
    options.utilizations = {0.1, 0.3, 0.5, 0.7, 0.9};
  }
  options.profile = profile;
  return options;
}

// The determinism contract: every jobs value must yield the same rows.
bool RowsIdentical(const SweepResult& a, const SweepResult& b) {
  if (a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    const SweepRow& ra = a.rows[r];
    const SweepRow& rb = b.rows[r];
    if (ra.cells.size() != rb.cells.size() ||
        ra.bound.mean() != rb.bound.mean()) {
      return false;
    }
    for (size_t c = 0; c < ra.cells.size(); ++c) {
      if (ra.cells[c].energy.mean() != rb.cells[c].energy.mean() ||
          ra.cells[c].normalized_energy.mean() !=
              rb.cells[c].normalized_energy.mean() ||
          ra.cells[c].deadline_misses != rb.cells[c].deadline_misses) {
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  int64_t tasksets = 50;
  int64_t sim_ms = 5000;
  int64_t max_jobs = 0;
  int64_t repeat = 1;
  bool quick = false;
  bool progress = false;
  bool profile = false;
  std::string json_path;

  FlagSet flags(
      "Parallel-sweep scaling: the Figure 9 workload at --jobs 1/2/4/all "
      "cores, with speedup, efficiency and queue-wait tails per point.");
  flags.AddInt64("tasksets", &tasksets, "random task sets per utilization point");
  flags.AddInt64("sim-ms", &sim_ms, "simulated horizon per run (ms)");
  flags.AddInt64("max-jobs", &max_jobs,
                 "highest worker count to measure (0 = hardware concurrency)");
  flags.AddInt64("repeat", &repeat,
                 "timing repeats per jobs value (best-of sims/sec reported; "
                 "the sweep data is identical every time)");
  flags.AddBool("quick", &quick, "coarse smoke-test configuration");
  flags.AddBool("progress", &progress,
                "live progress line on stderr (shards done, elapsed, ETA)");
  flags.AddBool("profile", &profile,
                "record per-span engine timing in each run's JSON section "
                "(adds overhead: the scaling numbers stop being clean)");
  flags.AddString("json", &json_path,
                  "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flags.Parse(argc, argv) || !ValidRunCounts(tasksets, sim_ms)) {
    return 1;
  }
  if (max_jobs < 0) {
    std::fprintf(stderr, "error: --max-jobs must be >= 0\n");
    return 1;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1\n");
    return 1;
  }

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int top = max_jobs == 0 ? hw : static_cast<int>(max_jobs);
  std::vector<int> jobs_grid;
  for (int j : {1, 2, 4, top}) {
    if (j <= top &&
        std::find(jobs_grid.begin(), jobs_grid.end(), j) == jobs_grid.end()) {
      jobs_grid.push_back(j);
    }
  }
  std::sort(jobs_grid.begin(), jobs_grid.end());

  BenchJson json("scaling_efficiency");
  json.Config("tasksets", tasksets);
  json.Config("sim_ms", sim_ms);
  json.Config("max_jobs", max_jobs);
  json.Config("repeat", repeat);
  json.Config("quick", quick);
  json.Config("profile", profile);

  std::cout << "== Sweep scaling efficiency (Figure 9 workload, 10 tasks) ==\n";
  std::cout << StrFormat("hardware concurrency: %d; measuring jobs = {", hw);
  for (size_t i = 0; i < jobs_grid.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << jobs_grid[i];
  }
  std::cout << "}\n\n";

  std::vector<SweepResult> results;
  for (int j : jobs_grid) {
    SweepOptions options = Fig09Options(tasksets, sim_ms, quick, profile);
    options.jobs = j;
    if (progress) {
      options.progress = MakeStderrProgress();
    }
    SweepResult best;
    for (int64_t attempt = 0; attempt < repeat; ++attempt) {
      UtilizationSweep sweep(options);
      SweepResult this_run = sweep.Run();
      if (attempt == 0 ||
          this_run.profile.sims_per_sec > best.profile.sims_per_sec) {
        best = std::move(this_run);
      }
    }
    results.push_back(std::move(best));
    const SweepResult& result = results.back();
    std::cout << StrFormat(
        "jobs=%d: %.0f sims/s, wall %.0f ms, shard p95 %.2f ms, "
        "queue wait p95 %.2f ms\n",
        j, result.profile.sims_per_sec, result.elapsed_wall_ms,
        result.profile.p95_shard_ms, result.profile.p95_queue_wait_ms);
  }
  std::cout << "\n";

  // Any divergence across jobs values is a harness bug, not noise.
  int64_t violations = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    if (!RowsIdentical(results[0], results[i])) {
      std::cout << StrFormat(
          "ERROR: jobs=%d produced different sweep rows than jobs=%d — the "
          "bit-identity contract is broken\n",
          jobs_grid[i], jobs_grid[0]);
      ++violations;
    }
    violations += results[i].audit_violations;
  }
  violations += results[0].audit_violations;

  const double base_sims_per_sec = results[0].profile.sims_per_sec;
  TextTable table({"jobs", "sims_per_sec", "speedup", "efficiency",
                   "p95_shard_ms", "p95_queue_wait_ms"});
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepProfile& p = results[i].profile;
    const double speedup =
        base_sims_per_sec > 0 ? p.sims_per_sec / base_sims_per_sec : 0.0;
    table.AddNumericRow({static_cast<double>(jobs_grid[i]), p.sims_per_sec,
                         speedup, speedup / jobs_grid[i], p.p95_shard_ms,
                         p.p95_queue_wait_ms});

    JsonValue values = JsonValue::Object();
    values.Set("jobs", static_cast<int64_t>(jobs_grid[i]));
    values.Set("sims_per_sec", p.sims_per_sec);
    values.Set("shards_per_sec", p.shards_per_sec);
    values.Set("speedup", speedup);
    values.Set("efficiency", speedup / jobs_grid[i]);
    values.Set("mean_shard_ms", p.mean_shard_ms);
    values.Set("p95_shard_ms", p.p95_shard_ms);
    values.Set("mean_queue_wait_ms", p.mean_queue_wait_ms);
    values.Set("p95_queue_wait_ms", p.p95_queue_wait_ms);
    values.Set("elapsed_wall_ms", results[i].elapsed_wall_ms);
    values.Set("audit_violations", results[i].audit_violations);
    if (!p.spans.spans.empty()) {
      values.Set("spans", p.spans.ToJson());
    }
    json.AddValues(StrFormat("jobs=%d", jobs_grid[i]), std::move(values));
  }
  table.Print(std::cout);
  table.PrintCsv(std::cout, "csv,scaling");
  json.AddTable("scaling summary", table);
  std::cout << (violations == 0
                    ? "determinism: identical rows for every jobs value\n"
                    : StrFormat("violations: %lld\n",
                                static_cast<long long>(violations)));

  if (!json.WriteIfRequested(json_path)) {
    return 1;
  }
  return violations > 0 ? 3 : 0;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
