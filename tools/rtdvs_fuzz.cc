// rtdvs-fuzz: seeded differential fuzz campaign for the simulator pair.
//
// Each trial draws a random scenario (src/testing/generators.h), runs it
// through both the production simulator and the independently written
// reference oracle (src/sim/reference_sim.h), demands bit-tight agreement,
// and optionally checks the metamorphic properties in
// src/testing/differential.h. Failures are greedily shrunk to a minimal
// case and printed as one-line repro strings that replay exactly:
//
//   rtdvs-fuzz --trials=500 --seed=1          # CI campaign (deterministic)
//   rtdvs-fuzz --repro='rtdvs-fuzz-v1;...'    # replay one failure
//   rtdvs-fuzz --inject-bug=idle-switch       # self-test: must FAIL
//
// Exit codes: 0 all trials passed, 1 flag error, 3 malformed repro string,
// 4 at least one divergence or property violation.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "src/dvs/policy.h"
#include "src/testing/differential.h"
#include "src/testing/generators.h"
#include "src/testing/shrink.h"
#include "src/util/flags.h"
#include "src/util/random.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace rtdvs {
namespace {

struct Failure {
  int64_t trial = 0;
  FuzzCase original;
  FuzzCase shrunk;
  std::string description;
};

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

int Main(int argc, char** argv) {
  int64_t trials = 200;
  int64_t seed = 1;
  int64_t jobs = 0;
  int64_t max_ms = 0;
  std::string policies;
  std::string cores_list = "1";
  std::string repro;
  std::string inject_bug = "none";
  std::string repro_out;
  bool shrink = true;
  bool properties = true;
  bool verbose = false;
  bool progress = false;

  FlagSet flags(
      "Differential fuzzer: production simulator vs reference oracle.\n"
      "Prints a replayable repro string for every failure.");
  flags.AddInt64("trials", &trials, "number of generated scenarios to run");
  flags.AddInt64("seed", &seed,
                 "campaign seed; trial i uses the independent stream (seed, i), so "
                 "results are reproducible per-trial regardless of scheduling");
  flags.AddInt64("jobs", &jobs, "worker threads (0 = hardware concurrency)");
  flags.AddInt64("max-ms", &max_ms,
                 "soft wall-clock budget; stops dispatching new trials once "
                 "exceeded (0 = run all trials)");
  flags.AddString("policies", &policies,
                  "comma-separated policy pool (empty = the paper's six)");
  flags.AddString("cores", &cores_list,
                  "comma-separated cluster sizes to draw from, e.g. 1,2,4; "
                  "sizes > 1 fuzz the multiprocessor driver (partitioned and "
                  "global) against the reference oracle");
  flags.AddString("repro", &repro,
                  "replay one failure from its repro string instead of fuzzing");
  flags.AddString("inject-bug", &inject_bug,
                  "fault-inject the REFERENCE for harness self-tests: "
                  "none|idle-switch|miss-order (a healthy campaign must then fail)");
  flags.AddString("repro-out", &repro_out,
                  "append shrunken repro strings of failures to this file");
  flags.AddBool("shrink", &shrink, "greedily minimize failing cases");
  flags.AddBool("properties", &properties,
                "also check metamorphic properties (lower bound, noDVS vs "
                "static, task reorder, grid refinement)");
  flags.AddBool("verbose", &verbose, "log every trial");
  flags.AddBool("progress", &progress,
                "live progress line on stderr (trials/sec, divergences, ETA)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  ReferenceFaults faults;
  if (inject_bug == "idle-switch") {
    faults.idle_path_switch_bug = true;
  } else if (inject_bug == "miss-order") {
    faults.miss_before_completion_bug = true;
  } else if (inject_bug != "none") {
    std::fprintf(stderr, "unknown --inject-bug value: %s\n", inject_bug.c_str());
    return 1;
  }

  FuzzGenOptions gen_options;
  if (!policies.empty()) {
    for (const auto& id : Split(policies, ',')) {
      std::string trimmed(Trim(id));
      if (!IsValidPolicyId(trimmed)) {
        std::fprintf(stderr, "unknown policy id: %s\n", trimmed.c_str());
        return 1;
      }
      gen_options.policy_pool.push_back(trimmed);
    }
  }
  if (!cores_list.empty()) {
    gen_options.core_choices.clear();
    for (const auto& field : Split(cores_list, ',')) {
      auto parsed = ParseInt(Trim(field));
      if (!parsed || *parsed < 1 || *parsed > 16) {
        std::fprintf(stderr, "bad --cores entry '%s' (want integers in 1..16)\n",
                     std::string(Trim(field)).c_str());
        return 1;
      }
      gen_options.core_choices.push_back(static_cast<int>(*parsed));
    }
  }

  const auto start = std::chrono::steady_clock::now();

  // --repro: replay exactly one case and report.
  if (!repro.empty()) {
    std::string error;
    auto parsed = ParseRepro(repro, &error);
    if (!parsed) {
      std::fprintf(stderr, "bad repro string: %s\n", error.c_str());
      return 3;
    }
    TrialOutcome outcome = RunFuzzTrial(*parsed, properties, faults);
    if (outcome.ok) {
      std::printf("repro PASSED (no divergence, no property violation)\n");
      return 0;
    }
    std::printf("repro FAILED:\n%s", outcome.Describe().c_str());
    if (shrink) {
      FuzzCase minimal = ShrinkFuzzCase(
          *parsed,
          [&](const FuzzCase& candidate) {
            return !RunFuzzTrial(candidate, properties, faults).ok;
          },
          {}, nullptr);
      std::printf("shrunk repro: %s\n", FuzzCaseToRepro(minimal).c_str());
    }
    return 4;
  }

  // Campaign. Trials are independent: trial i derives everything from the
  // stream (seed, i), so any subset of trials reproduces bit-identically.
  const int num_threads =
      jobs > 0 ? static_cast<int>(jobs) : ThreadPool::DefaultNumThreads();
  ThreadPool pool(num_threads);
  std::mutex mu;
  std::vector<Failure> failures;
  std::atomic<int64_t> completed{0};
  double last_progress_ms = 0;  // guarded by mu; throttles to ~5 lines/sec
  std::vector<std::future<void>> pending;
  int64_t dispatched = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    if (max_ms > 0 && ElapsedMs(start) > static_cast<double>(max_ms)) {
      break;
    }
    ++dispatched;
    pending.push_back(pool.Submit([&, trial] {
      Pcg32 rng(static_cast<uint64_t>(seed), static_cast<uint64_t>(trial));
      FuzzCase c = GenerateFuzzCase(rng, gen_options);
      TrialOutcome outcome = RunFuzzTrial(c, properties, faults);
      completed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      if (verbose) {
        std::printf("trial %lld: %s policy=%s tasks=%zu\n",
                    static_cast<long long>(trial), outcome.ok ? "ok" : "FAIL",
                    c.policy_id.c_str(), c.tasks.size());
      }
      if (!outcome.ok) {
        failures.push_back({trial, c, c, outcome.Describe()});
      }
      if (progress) {
        const int64_t done = completed.load(std::memory_order_relaxed);
        const double elapsed = ElapsedMs(start);
        if (elapsed - last_progress_ms > 200.0 || done == trials) {
          last_progress_ms = elapsed;
          const double per_sec = elapsed > 0 ? done * 1000.0 / elapsed : 0.0;
          const double eta_s =
              per_sec > 0 ? static_cast<double>(trials - done) / per_sec : 0.0;
          std::fprintf(stderr,
                       "\rfuzz: %lld/%lld trials (%.0f%%)  %.0f trials/s  "
                       "%zu divergence(s)  eta %.1fs ",
                       static_cast<long long>(done),
                       static_cast<long long>(trials),
                       100.0 * static_cast<double>(done) /
                           static_cast<double>(trials),
                       per_sec, failures.size(), eta_s);
        }
      }
    }));
  }
  for (auto& f : pending) {
    f.get();
  }
  if (progress && dispatched > 0) {
    std::fprintf(stderr, "\n");
  }

  // Shrink serially: failures are rare and shrinking reruns many simulations.
  for (Failure& failure : failures) {
    if (!shrink) {
      break;
    }
    ShrinkStats stats;
    failure.shrunk = ShrinkFuzzCase(
        failure.original,
        [&](const FuzzCase& candidate) {
          return !RunFuzzTrial(candidate, properties, faults).ok;
        },
        {}, &stats);
    if (verbose) {
      std::printf("trial %lld shrink: %d predicate calls, %d accepted moves\n",
                  static_cast<long long>(failure.trial), stats.predicate_calls,
                  stats.accepted_moves);
    }
  }

  const double elapsed_ms = ElapsedMs(start);
  std::printf("rtdvs-fuzz: %lld/%lld trials in %.0f ms (%d threads), %zu failure(s)\n",
              static_cast<long long>(completed.load()),
              static_cast<long long>(trials), elapsed_ms, num_threads,
              failures.size());
  if (dispatched < trials) {
    std::printf("note: stopped at --max-ms=%lld with %lld trials undispatched\n",
                static_cast<long long>(max_ms),
                static_cast<long long>(trials - dispatched));
  }
  if (failures.empty()) {
    return 0;
  }
  std::ofstream out;
  if (!repro_out.empty()) {
    out.open(repro_out, std::ios::app);
  }
  for (const Failure& failure : failures) {
    std::printf("--- trial %lld FAILED\n%s", static_cast<long long>(failure.trial),
                failure.description.c_str());
    std::printf("  repro:  %s\n", FuzzCaseToRepro(failure.original).c_str());
    if (shrink) {
      std::printf("  shrunk: %s\n", FuzzCaseToRepro(failure.shrunk).c_str());
    }
    if (out.is_open()) {
      out << FuzzCaseToRepro(shrink ? failure.shrunk : failure.original) << "\n";
    }
  }
  return 4;
}

}  // namespace
}  // namespace rtdvs

int main(int argc, char** argv) { return rtdvs::Main(argc, argv); }
