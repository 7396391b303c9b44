#include "src/core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <future>
#include <memory>
#include <utility>

#include <mutex>

#include "src/dvs/policy.h"
#include "src/rt/job_pool.h"
#include "src/sim/mp_simulator.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/profiler.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace rtdvs {
namespace {

// Everything one (utilization, task set) shard produces: the raw per-run
// numbers, NOT RunningStats. Shards run concurrently in arbitrary order;
// the merge loop replays these into RunningStats in serial grid order so
// the aggregate floating-point arithmetic is identical for every jobs
// value (Welford updates are order-sensitive).
struct ShardOutcome {
  double edf_energy = 0;
  double lower_bound = 0;
  // Violations from the EDF normalization baseline run (reported even when
  // "edf" is not among the swept policy ids).
  int64_t baseline_audit_violations = 0;
  // False when partitioned admission (M > 1) rejected the generated set
  // for the baseline / a policy; its energy fields are then meaningless and
  // the merge loop skips them.
  bool baseline_admitted = true;
  struct PerPolicy {
    double energy = 0;
    int64_t deadline_misses = 0;
    int64_t audit_violations = 0;
    bool admitted = true;
    PolicyCounters counters;
  };
  std::vector<PerPolicy> policies;  // parallel to options.policy_ids
  std::vector<std::string> audit_messages;  // capped per shard
  // Fast-path coverage over every run in the shard (baseline included).
  FastPathStats fastpath;
};

// Runs every policy on one generated task set through the cluster API;
// num_cores == 1 is a one-core cluster, whose totals are its single-core
// result. The generator targets utilization * num_cores (the per-core axis,
// see SweepOptions), then one workload seed gives every policy the same
// execution-time draws. `set_rng` must be the fork the serial grid order
// assigns to this shard.
ShardOutcome RunShard(const SweepOptions& options, double utilization,
                      Pcg32 set_rng) {
  SimRequest request;
  {
    RTDVS_PROF_SCOPE("sweep/generate");
    const double target = utilization * static_cast<double>(options.num_cores);
    if (options.use_uunifast) {
      request.tasks = GenerateUUniFast(options.num_tasks, target, set_rng);
    } else {
      TaskSetGeneratorOptions gen_options;
      gen_options.num_tasks = options.num_tasks;
      gen_options.target_utilization = target;
      request.tasks = TaskSetGenerator(gen_options).Generate(set_rng);
    }
  }
  const uint64_t workload_seed =
      (static_cast<uint64_t>(set_rng.NextU32()) << 32) | set_rng.NextU32();

  request.cluster.num_cores = options.num_cores;
  request.cluster.machine = options.machine;
  request.mode = options.mp_mode;
  request.partition = options.mp_partition;
  request.options.horizon_ms = options.horizon_ms;
  request.options.idle_level = options.idle_level;
  request.options.switch_time_ms = options.switch_time_ms;
  request.options.miss_policy = options.miss_policy;
  request.options.energy_coefficient = options.energy_coefficient;
  request.options.audit = options.audit;
  request.options.seed = workload_seed;
  // Recycle job storage across this worker thread's runs (results are
  // identical; see src/rt/job_pool.h).
  request.options.job_pool = &ThreadLocalJobPool();

  ShardOutcome outcome;
  outcome.policies.resize(options.policy_ids.size());
  // Cluster audit plus every per-core slice audit (powered-down cores audit
  // nothing).
  auto record_audit = [&outcome, utilization](const MpSimResult& result,
                                              int64_t* counter) {
    constexpr size_t kMaxMessagesPerShard = 4;
    auto add = [&](const AuditReport& report) {
      *counter += static_cast<int64_t>(report.violations.size());
      for (const auto& violation : report.violations) {
        if (outcome.audit_messages.size() >= kMaxMessagesPerShard) {
          break;
        }
        outcome.audit_messages.push_back(StrFormat(
            "[%s] u=%.2f %s: %s", AuditCheckName(violation.check), utilization,
            result.cluster.policy_name.c_str(), violation.message.c_str()));
      }
    };
    add(result.cluster.audit);
    for (const SimResult& slice : result.cores) {
      add(slice.audit);
    }
  };
  auto run = [&options, &request](const std::string& id) {
    request.policy_ids = {id};
    auto model = options.exec_model_factory();
    return RunClusterSimulation(request, *model);
  };

  // EDF baseline (partitioned-EDF or global-EDF at M > 1, matching the
  // sweep's mode) for normalization and the bound.
  MpSimResult edf_result = run("edf");
  outcome.baseline_admitted = edf_result.admitted;
  if (edf_result.admitted) {
    outcome.edf_energy = edf_result.cluster.total_energy();
    outcome.lower_bound = edf_result.cluster.lower_bound_energy;
  }

  for (size_t p = 0; p < options.policy_ids.size(); ++p) {
    MpSimResult policy_result;
    const MpSimResult* result = &edf_result;
    if (options.policy_ids[p] != "edf") {
      policy_result = run(options.policy_ids[p]);
      result = &policy_result;
    }
    ShardOutcome::PerPolicy& per = outcome.policies[p];
    per.admitted = result->admitted;
    if (!result->admitted) {
      continue;  // merge loop counts the rejection, no samples to add
    }
    per.energy = result->cluster.total_energy();
    per.deadline_misses = result->cluster.deadline_misses;
    per.counters = result->cluster.policy_counters;
    outcome.fastpath.MergeFrom(result->cluster.fastpath);
    record_audit(*result, &per.audit_violations);
  }
  // The baseline's own violations, unless they were already counted via an
  // "edf" entry in the policy list.
  bool edf_in_list = false;
  for (const auto& id : options.policy_ids) {
    edf_in_list |= id == "edf";
  }
  if (!edf_in_list && edf_result.admitted) {
    record_audit(edf_result, &outcome.baseline_audit_violations);
    outcome.fastpath.MergeFrom(edf_result.cluster.fastpath);
  }
  return outcome;
}

std::vector<std::string> PolicyHeader(const SweepResult& result,
                                      bool with_bound) {
  std::vector<std::string> header = {"utilization"};
  for (const auto& id : result.options.policy_ids) {
    header.push_back(MakePolicy(id)->name());
  }
  if (with_bound) {
    header.push_back("bound");
  }
  return header;
}

}  // namespace

std::function<void(int64_t, int64_t)> MakeStderrProgress() {
  struct State {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point last_print = start;
    bool printed = false;
  };
  auto state = std::make_shared<State>();
  // Already serialized by the sweep's internal mutex (see
  // SweepOptions::progress), so plain shared state is fine.
  return [state](int64_t done, int64_t total) {
    const auto now = std::chrono::steady_clock::now();
    using Sec = std::chrono::duration<double>;
    const bool final = done >= total;
    if (!final && state->printed &&
        Sec(now - state->last_print).count() < 0.2) {
      return;
    }
    state->last_print = now;
    state->printed = true;
    const double elapsed = Sec(now - state->start).count();
    const double eta =
        done > 0 ? elapsed / static_cast<double>(done) *
                       static_cast<double>(total - done)
                 : 0.0;
    std::fprintf(stderr, "\rsweep: %lld/%lld shards (%d%%)  elapsed %.1fs  eta %.1fs ",
                 static_cast<long long>(done), static_cast<long long>(total),
                 static_cast<int>(100 * done / std::max<int64_t>(total, 1)),
                 elapsed, eta);
    if (final) {
      std::fprintf(stderr, "\n");
    }
  };
}

std::vector<double> DefaultUtilizationGrid() {
  std::vector<double> grid;
  for (int i = 1; i <= 20; ++i) {
    grid.push_back(static_cast<double>(i) * 0.05);
  }
  return grid;
}

UtilizationSweep::UtilizationSweep(SweepOptions options) : options_(std::move(options)) {
  if (options_.policy_ids.empty()) {
    options_.policy_ids = AllPaperPolicyIds();
  }
  if (options_.utilizations.empty()) {
    options_.utilizations = DefaultUtilizationGrid();
  }
  RTDVS_CHECK_GT(options_.tasksets_per_point, 0);
  RTDVS_CHECK_GT(options_.num_tasks, 0);
  RTDVS_CHECK_GE(options_.jobs, 0);
  RTDVS_CHECK_GE(options_.num_cores, 1);
  // UUniFast's per-task utilizations are unbounded above 1 once the total
  // exceeds 1, so it cannot feed the scaled multiprocessor target.
  RTDVS_CHECK(!(options_.use_uunifast && options_.num_cores > 1));
  RTDVS_CHECK(options_.exec_model_factory != nullptr);
}

SweepResult UtilizationSweep::Run() const {
  const int jobs =
      options_.jobs > 0 ? options_.jobs : ThreadPool::DefaultNumThreads();
  const auto wall_start = std::chrono::steady_clock::now();
  const std::clock_t cpu_start = std::clock();

  SweepResult result = RunShards(jobs);

  result.options = options_;
  result.options.jobs = jobs;  // echo the resolved value
  result.elapsed_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  result.elapsed_cpu_ms = (std::clock() - cpu_start) * 1000.0 /
                          static_cast<double>(CLOCKS_PER_SEC);
  if (result.elapsed_wall_ms > 0) {
    result.profile.shards_per_sec =
        static_cast<double>(result.profile.shards) / result.elapsed_wall_ms *
        1000.0;
    result.profile.sims_per_sec =
        static_cast<double>(result.profile.simulations) /
        result.elapsed_wall_ms * 1000.0;
  }
  return result;
}

SweepResult UtilizationSweep::RunShards(int jobs) const {
  const size_t num_utils = options_.utilizations.size();
  const size_t sets = static_cast<size_t>(options_.tasksets_per_point);

  // Fork every shard's RNG from the master in serial grid order, before any
  // shard runs: the streams each shard sees are independent of jobs, and
  // adding sweep points still does not perturb earlier ones.
  Pcg32 master(options_.seed);
  std::vector<Pcg32> shard_rngs;
  shard_rngs.reserve(num_utils * sets);
  for (size_t ui = 0; ui < num_utils; ++ui) {
    for (size_t si = 0; si < sets; ++si) {
      shard_rngs.push_back(master.Fork());
    }
  }

  if (options_.profile) {
    Profiler::Enable();
  }

  std::vector<ShardOutcome> outcomes(num_utils * sets);
  // Shard timing, collected by the thread pool's observer in completion
  // order (diagnostics only — see SweepProfile), and progress bookkeeping.
  std::vector<double> queue_waits, run_times;
  queue_waits.reserve(outcomes.size());
  run_times.reserve(outcomes.size());
  std::mutex profile_mutex;
  const auto total_shards = static_cast<int64_t>(outcomes.size());
  int64_t shards_done = 0;
  {
    ThreadPool pool(jobs);
    pool.SetTaskObserver([&](double queue_wait_ms, double run_ms) {
      std::lock_guard<std::mutex> lock(profile_mutex);
      queue_waits.push_back(queue_wait_ms);
      run_times.push_back(run_ms);
      ++shards_done;
      if (options_.progress) {
        options_.progress(shards_done, total_shards);
      }
    });
    std::vector<std::future<void>> pending;
    pending.reserve(outcomes.size());
    for (size_t ui = 0; ui < num_utils; ++ui) {
      const double utilization = options_.utilizations[ui];
      for (size_t si = 0; si < sets; ++si) {
        const size_t shard = ui * sets + si;
        pending.push_back(pool.Submit([this, utilization, shard, &shard_rngs,
                                       &outcomes] {
          {
            RTDVS_PROF_SCOPE("sweep/shard/execute");
            outcomes[shard] = RunShard(options_, utilization, shard_rngs[shard]);
          }
          // Worker threads may be retired with the pool; bank this thread's
          // samples into the global accumulator while it is still alive.
          Profiler::FlushThisThread();
        }));
      }
    }
    for (auto& future : pending) {
      future.get();  // rethrows the first shard failure on this thread
    }
  }

  // Merge in serial grid order. The Add() sequence below is exactly the one
  // the serial implementation performed inline, so means/variances are
  // bit-identical regardless of how shards interleaved above.
  SweepResult result;
  result.rows.reserve(num_utils);
  {
    RTDVS_PROF_SCOPE("sweep/merge");
    for (size_t ui = 0; ui < num_utils; ++ui) {
      SweepRow row;
      row.utilization = options_.utilizations[ui];
      row.cells.resize(options_.policy_ids.size());
      for (size_t si = 0; si < sets; ++si) {
        const ShardOutcome& outcome = outcomes[ui * sets + si];
        // Shards whose baseline was rejected by admission carry no
        // meaningful bound.
        if (outcome.baseline_admitted) {
          row.bound.Add(outcome.lower_bound);
          if (outcome.edf_energy > 0) {
            row.normalized_bound.Add(outcome.lower_bound / outcome.edf_energy);
          }
        }
        result.audit_violations += outcome.baseline_audit_violations;
        result.profile.fastpath.MergeFrom(outcome.fastpath);
        constexpr size_t kMaxMessages = 10;
        for (const auto& message : outcome.audit_messages) {
          if (result.audit_messages.size() >= kMaxMessages) {
            break;
          }
          result.audit_messages.push_back(message);
        }
        for (size_t p = 0; p < options_.policy_ids.size(); ++p) {
          PolicyCell& cell = row.cells[p];
          if (!outcome.policies[p].admitted) {
            ++cell.admission_rejections;
            // Mirrored into the mergeable counters so rejections surface in
            // profile.policy_counters totals alongside migrations.
            ++cell.counters.admission_rejections;
            continue;
          }
          cell.energy.Add(outcome.policies[p].energy);
          if (outcome.edf_energy > 0) {
            cell.normalized_energy.Add(outcome.policies[p].energy /
                                       outcome.edf_energy);
          }
          cell.deadline_misses += outcome.policies[p].deadline_misses;
          if (outcome.policies[p].deadline_misses > 0) {
            ++cell.tasksets_with_misses;
          }
          cell.audit_violations += outcome.policies[p].audit_violations;
          result.audit_violations += outcome.policies[p].audit_violations;
          cell.counters.MergeFrom(outcome.policies[p].counters);
        }
      }
      result.rows.push_back(std::move(row));
    }
  }

  // Profile: grid-wide counter totals fold the per-cell merges (still serial
  // order, still bit-identical); timing summarizes the observer's samples.
  result.profile.shards = total_shards;
  bool edf_in_list = false;
  for (const auto& id : options_.policy_ids) {
    edf_in_list |= id == "edf";
  }
  result.profile.simulations =
      total_shards * static_cast<int64_t>(options_.policy_ids.size() +
                                          (edf_in_list ? 0 : 1));
  result.profile.policy_counters.resize(options_.policy_ids.size());
  for (const auto& row : result.rows) {
    for (size_t p = 0; p < row.cells.size(); ++p) {
      result.profile.policy_counters[p].MergeFrom(row.cells[p].counters);
    }
  }
  if (!run_times.empty()) {
    double sum = 0, max = 0;
    for (double t : run_times) {
      sum += t;
      max = std::max(max, t);
    }
    result.profile.mean_shard_ms = sum / static_cast<double>(run_times.size());
    result.profile.max_shard_ms = max;
    result.profile.p50_shard_ms = Percentile(run_times, 50);
    result.profile.p95_shard_ms = Percentile(run_times, 95);
    sum = max = 0;
    for (double t : queue_waits) {
      sum += t;
      max = std::max(max, t);
    }
    result.profile.mean_queue_wait_ms =
        sum / static_cast<double>(queue_waits.size());
    result.profile.p95_queue_wait_ms = Percentile(queue_waits, 95);
    result.profile.max_queue_wait_ms = max;
  }
  if (options_.profile) {
    // The pool joined above, so every worker flushed; Drain also flushes
    // this (the driver) thread for the jobs == 1 in-line case.
    result.profile.spans = Profiler::Drain();
  }
  return result;
}

TextTable RenderEnergyTable(const SweepResult& result, bool normalized) {
  TextTable table(PolicyHeader(result, /*with_bound=*/true));
  const double horizon_ms = result.options.horizon_ms;
  for (const auto& row : result.rows) {
    std::vector<std::string> cells = {FormatDouble(row.utilization, 2)};
    for (const auto& cell : row.cells) {
      double value = normalized ? cell.normalized_energy.mean()
                                : cell.energy.mean() / horizon_ms * 1000.0;  // per second
      cells.push_back(FormatDouble(value, 4));
    }
    cells.push_back(FormatDouble(normalized ? row.normalized_bound.mean()
                                            : row.bound.mean() / horizon_ms * 1000.0,
                                 4));
    table.AddRow(std::move(cells));
  }
  return table;
}

TextTable RenderMissTable(const SweepResult& result) {
  TextTable table(PolicyHeader(result, /*with_bound=*/false));
  for (const auto& row : result.rows) {
    std::vector<std::string> cells = {FormatDouble(row.utilization, 2)};
    for (const auto& cell : row.cells) {
      cells.push_back(StrFormat("%lld", static_cast<long long>(cell.deadline_misses)));
    }
    table.AddRow(std::move(cells));
  }
  return table;
}

bool AnyDeadlineMiss(const SweepResult& result) {
  for (const auto& row : result.rows) {
    for (const auto& cell : row.cells) {
      if (cell.deadline_misses > 0) {
        return true;
      }
    }
  }
  return false;
}

JsonValue SweepResultToJson(const SweepResult& result) {
  const SweepOptions& options = result.options;
  JsonValue doc = JsonValue::Object();

  JsonValue& config = doc.Set("config", JsonValue::Object());
  JsonValue& ids = config.Set("policy_ids", JsonValue::Array());
  for (const auto& id : options.policy_ids) {
    ids.Append(id);
  }
  JsonValue& utils = config.Set("utilizations", JsonValue::Array());
  for (double u : options.utilizations) {
    utils.Append(u);
  }
  config.Set("num_tasks", options.num_tasks);
  config.Set("tasksets_per_point", options.tasksets_per_point);
  config.Set("horizon_ms", options.horizon_ms);
  config.Set("idle_level", options.idle_level);
  config.Set("switch_time_ms", options.switch_time_ms);
  config.Set("energy_coefficient", options.energy_coefficient);
  config.Set("use_uunifast", options.use_uunifast);
  config.Set("seed", options.seed);
  config.Set("jobs", options.jobs);
  config.Set("num_cores", options.num_cores);
  config.Set("mp_mode", MpModeName(options.mp_mode));
  config.Set("partition", PartitionHeuristicName(options.mp_partition));

  const double horizon_ms = options.horizon_ms;
  JsonValue& rows = doc.Set("rows", JsonValue::Array());
  for (const auto& row : result.rows) {
    JsonValue& row_doc = rows.Append(JsonValue::Object());
    row_doc.Set("utilization", row.utilization);
    row_doc.Set("bound_per_sec", row.bound.mean() / horizon_ms * 1000.0);
    row_doc.Set("normalized_bound", row.normalized_bound.mean());
    JsonValue& policies = row_doc.Set("policies", JsonValue::Array());
    for (size_t p = 0; p < row.cells.size(); ++p) {
      const PolicyCell& cell = row.cells[p];
      JsonValue& cell_doc = policies.Append(JsonValue::Object());
      cell_doc.Set("id", options.policy_ids[p]);
      cell_doc.Set("energy_per_sec", cell.energy.mean() / horizon_ms * 1000.0);
      cell_doc.Set("normalized", cell.normalized_energy.mean());
      cell_doc.Set("stderr_normalized", cell.normalized_energy.stderr_mean());
      cell_doc.Set("deadline_misses", cell.deadline_misses);
      cell_doc.Set("tasksets_with_misses", cell.tasksets_with_misses);
      cell_doc.Set("audit_violations", cell.audit_violations);
      cell_doc.Set("admission_rejections", cell.admission_rejections);
      cell_doc.Set("counters", PolicyCountersToJson(cell.counters));
    }
  }

  JsonValue& profile = doc.Set("profile", JsonValue::Object());
  profile.Set("shards", result.profile.shards);
  profile.Set("simulations", result.profile.simulations);
  profile.Set("mean_shard_ms", result.profile.mean_shard_ms);
  profile.Set("p50_shard_ms", result.profile.p50_shard_ms);
  profile.Set("p95_shard_ms", result.profile.p95_shard_ms);
  profile.Set("max_shard_ms", result.profile.max_shard_ms);
  profile.Set("mean_queue_wait_ms", result.profile.mean_queue_wait_ms);
  profile.Set("p95_queue_wait_ms", result.profile.p95_queue_wait_ms);
  profile.Set("max_queue_wait_ms", result.profile.max_queue_wait_ms);
  profile.Set("shards_per_sec", result.profile.shards_per_sec);
  profile.Set("sims_per_sec", result.profile.sims_per_sec);
  JsonValue& totals = profile.Set("policy_counters", JsonValue::Object());
  for (size_t p = 0; p < result.profile.policy_counters.size(); ++p) {
    totals.Set(options.policy_ids[p],
               PolicyCountersToJson(result.profile.policy_counters[p]));
  }
  profile.Set("fastpath", FastPathStatsToJson(result.profile.fastpath));
  if (!result.profile.spans.empty()) {
    profile.Set("spans", result.profile.spans.ToJson());
  }

  doc.Set("audit_violations", result.audit_violations);
  doc.Set("elapsed_wall_ms", result.elapsed_wall_ms);
  doc.Set("elapsed_cpu_ms", result.elapsed_cpu_ms);
  return doc;
}

void WriteCsv(const SweepResult& result, std::ostream& out,
              const std::string& prefix) {
  out << prefix
      << ",utilization,policy,energy,normalized,stderr_normalized,"
         "deadline_misses,tasksets_with_misses\n";
  const double horizon_ms = result.options.horizon_ms;
  for (const auto& row : result.rows) {
    for (size_t p = 0; p < row.cells.size(); ++p) {
      const PolicyCell& cell = row.cells[p];
      out << prefix << ',' << FormatDouble(row.utilization, 2) << ','
          << result.options.policy_ids[p] << ','
          << FormatDouble(cell.energy.mean() / horizon_ms * 1000.0, 6) << ','
          << FormatDouble(cell.normalized_energy.mean(), 6) << ','
          << FormatDouble(cell.normalized_energy.stderr_mean(), 6) << ','
          << cell.deadline_misses << ',' << cell.tasksets_with_misses << '\n';
    }
    out << prefix << ',' << FormatDouble(row.utilization, 2) << ",bound,"
        << FormatDouble(row.bound.mean() / horizon_ms * 1000.0, 6) << ','
        << FormatDouble(row.normalized_bound.mean(), 6) << ','
        << FormatDouble(row.normalized_bound.stderr_mean(), 6) << ",0,0\n";
  }
}

}  // namespace rtdvs
