// Shared main() helper for the figure-reproduction benches: parses the
// common flags, runs one utilization sweep per configuration, and prints
// both the aligned table and greppable CSV, exactly one configuration per
// section — mirroring the paper's multi-panel figures.
#ifndef BENCH_SWEEP_MAIN_H_
#define BENCH_SWEEP_MAIN_H_

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/core/sweep.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace rtdvs {

struct SweepBenchConfig {
  std::string title;      // e.g. "Figure 9, 5 tasks"
  std::string csv_tag;    // e.g. "fig9_n5"
  SweepOptions options;
  bool normalized = true;  // print EDF-normalized energy (false: absolute)
};

struct SweepBenchFlags {
  int64_t tasksets = 50;
  int64_t sim_ms = 5000;
  int64_t jobs = 0;    // worker threads; 0 = hardware concurrency
  // Timing repeats per configuration: the sweep data is deterministic, so
  // repeats only re-measure wall clock; the reported profile is the
  // best-of run (median also printed), stabilizing sims/sec for benchdiff.
  int64_t repeat = 1;
  bool quick = false;  // 10 task sets, coarse grid: CI-friendly smoke run
  bool progress = false;  // live shard progress on stderr
  bool profile = false;   // per-span self-profiling in the sweep JSON
  std::string json_path;  // "" = no machine-readable output
};

// Parses common flags; returns false if the program should exit.
inline bool ParseSweepFlags(int argc, char** argv, const std::string& description,
                            SweepBenchFlags* flags) {
  FlagSet flag_set(description);
  flag_set.AddInt64("tasksets", &flags->tasksets,
                    "random task sets per utilization point");
  flag_set.AddInt64("sim-ms", &flags->sim_ms, "simulated horizon per run (ms)");
  flag_set.AddInt64("jobs", &flags->jobs,
                    "sweep worker threads (0 = hardware concurrency); results "
                    "are identical for every value");
  flag_set.AddInt64("repeat", &flags->repeat,
                    "timing repeats per configuration; the results are "
                    "identical every time, so repeats only stabilize the "
                    "throughput numbers (best-of reported, median printed)");
  flag_set.AddBool("quick", &flags->quick, "coarse smoke-test configuration");
  flag_set.AddBool("progress", &flags->progress,
                   "live progress line on stderr (shards done, elapsed, ETA)");
  flag_set.AddBool("profile", &flags->profile,
                   "record per-span timing (engine/sim/sweep scopes) into the "
                   "sweep profile section");
  flag_set.AddString("json", &flags->json_path,
                     "also write the report as rtdvs-bench-v1 JSON to this path");
  if (!flag_set.Parse(argc, argv) ||
      !ValidRunCounts(flags->tasksets, flags->sim_ms)) {
    return false;
  }
  if (flags->jobs < 0) {
    std::fprintf(stderr, "error: --jobs must be >= 0 (0 = hardware concurrency)\n");
    return false;
  }
  if (flags->repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1\n");
    return false;
  }
  return true;
}

inline void ApplySweepFlags(const SweepBenchFlags& flags, SweepOptions* options) {
  options->tasksets_per_point = static_cast<int>(flags.tasksets);
  options->horizon_ms = static_cast<double>(flags.sim_ms);
  options->jobs = static_cast<int>(flags.jobs);
  if (flags.quick) {
    options->tasksets_per_point = 10;
    options->horizon_ms = 1000.0;
    options->utilizations = {0.1, 0.3, 0.5, 0.7, 0.9};
  }
  if (flags.progress) {
    options->progress = MakeStderrProgress();
  }
  options->profile = flags.profile;
}

// Records the shared flags in the bench's JSON config object.
inline void RecordSweepFlags(const SweepBenchFlags& flags, BenchJson* json) {
  json->Config("tasksets", flags.tasksets);
  json->Config("sim_ms", flags.sim_ms);
  json->Config("jobs", flags.jobs);
  json->Config("repeat", flags.repeat);
  json->Config("quick", flags.quick);
  json->Config("profile", flags.profile);
}

// Runs the sweep and prints the standard panel; when `json` is non-null the
// full SweepResult (rows, counters, profile) is appended as a section.
// Returns the number of SimAudit violations (0 for a healthy build);
// benches that care can fold it into their exit code.
inline int64_t RunAndPrintSweep(const SweepBenchConfig& config,
                                BenchJson* json = nullptr, int repeat = 1) {
  // Repeats re-run the identical (deterministic) sweep purely to re-sample
  // wall clock; keep the fastest run's result so its profile carries the
  // best-of throughput, and remember every sample for the median.
  std::vector<double> sims_per_sec_samples;
  SweepResult result;
  for (int attempt = 0; attempt < std::max(repeat, 1); ++attempt) {
    UtilizationSweep sweep(config.options);
    SweepResult this_run = sweep.Run();
    sims_per_sec_samples.push_back(this_run.profile.sims_per_sec);
    if (attempt == 0 ||
        this_run.profile.sims_per_sec > result.profile.sims_per_sec) {
      result = std::move(this_run);
    }
  }
  std::cout << "== " << config.title << " ==\n";
  std::cout << "machine: " << config.options.machine.ToString() << "\n";
  std::cout << (config.normalized ? "energy normalized to plain EDF\n"
                                  : "energy (arbitrary units per simulated second)\n");
  RenderEnergyTable(result, config.normalized).Print(std::cout);
  WriteCsv(result, std::cout, "csv," + config.csv_tag);
  // Deadline misses are part of the claim: RT-DVS must not trade deadlines
  // for energy. Print only if something missed.
  if (AnyDeadlineMiss(result)) {
    std::cout << "deadline misses (nonzero somewhere -- RM-based policies are "
                 "only guaranteed when the RM test admits the set):\n";
    RenderMissTable(result).Print(std::cout);
  } else {
    std::cout << "deadline misses: none under any policy\n";
  }
  if (result.audit_violations > 0) {
    std::cout << StrFormat("audit: %lld violation(s)\n",
                           static_cast<long long>(result.audit_violations));
    for (const auto& message : result.audit_messages) {
      std::cout << "  " << message << "\n";
    }
  }
  std::cout << StrFormat("elapsed: %.0f ms wall, %.0f ms cpu (jobs=%d)\n",
                         result.elapsed_wall_ms, result.elapsed_cpu_ms,
                         result.options.jobs);
  if (sims_per_sec_samples.size() > 1) {
    std::vector<double> sorted = sims_per_sec_samples;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    std::cout << StrFormat(
        "throughput over %zu repeats: best %.1f sims/s, median %.1f sims/s\n",
        sorted.size(), sorted.back(), median);
  }
  std::cout << "\n";
  if (json != nullptr) {
    JsonValue doc = SweepResultToJson(result);
    if (sims_per_sec_samples.size() > 1) {
      JsonValue& samples = doc.Set("repeat_sims_per_sec", JsonValue::Array());
      for (double sample : sims_per_sec_samples) {
        samples.Append(sample);
      }
    }
    json->Add(config.title, "sweep", std::move(doc));
  }
  return result.audit_violations;
}

}  // namespace rtdvs

#endif  // BENCH_SWEEP_MAIN_H_
