#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <future>
#include <limits>
#include <memory>
#include <mutex>

#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace perfbench {

using rtdvs::StrFormat;

namespace {

// Shape of one sweep pass: about 1 s of wall time at 4 workers on a 4-vCPU
// Xeon VM, so one run holds many passes with different inputs.
constexpr int kPaperSetsPerPoint = 8;
constexpr int kMpSetsPerPoint = 3;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

PassStats RunSweepPass(Workload workload, uint64_t seed, int workers) {
  rtdvs::UtilizationSweep sweep(SweepOptionsFor(workload, seed, workers));
  rtdvs::SweepResult result = sweep.Run();
  PassStats stats;
  stats.sims = result.profile.simulations;
  stats.wall_ms = result.elapsed_wall_ms;
  stats.cpu_ms = result.elapsed_cpu_ms;
  stats.audit_violations = result.audit_violations;
  stats.audit_messages = result.audit_messages;
  stats.table = SweepTable(result);
  stats.shard_p50_ms = result.profile.p50_shard_ms;
  stats.shard_p95_ms = result.profile.p95_shard_ms;
  stats.shard_sum_ms =
      result.profile.mean_shard_ms * static_cast<double>(result.profile.shards);
  stats.queue_wait_p95_ms = result.profile.p95_queue_wait_ms;
  return stats;
}

PassStats RunServerPass(uint64_t seed, int workers, int num_sets) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::clock_t cpu_start = std::clock();
  const std::vector<ServerSet> sets = GenerateServerSets(seed, num_sets);
  const auto& configs = ServerConfigs();
  const auto& policies = ServerPolicies();

  std::vector<std::vector<std::vector<ServerRun>>> runs(sets.size());
  std::vector<int64_t> violations(sets.size(), 0);
  std::vector<std::vector<std::string>> messages(sets.size());
  std::vector<double> shard_ms, queue_ms;
  std::mutex timing_mutex;
  {
    rtdvs::ThreadPool pool(workers);
    pool.SetTaskObserver([&](double queue_wait_ms, double run_ms) {
      std::lock_guard<std::mutex> lock(timing_mutex);
      queue_ms.push_back(queue_wait_ms);
      shard_ms.push_back(run_ms);
    });
    std::vector<std::future<void>> pending;
    for (size_t s = 0; s < sets.size(); ++s) {
      pending.push_back(pool.Submit([&, s] {
        runs[s].resize(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
          const rtdvs::SimOptions options =
              ServerSimOptions(configs[c], sets[s].run_seed, /*audit=*/true);
          for (const std::string& id : policies) {
            auto policy = rtdvs::MakePolicy(id);
            rtdvs::UniformFractionModel model(0.0, 1.0);
            rtdvs::SimResult result =
                rtdvs::RunSimulation(sets[s].tasks, rtdvs::MachineSpec::Machine0(),
                                     *policy, model, options);
            runs[s][c].push_back({result.total_energy(), result.deadline_misses,
                                  result.aperiodic.MeanResponseMs()});
            violations[s] += static_cast<int64_t>(result.audit.violations.size());
            for (const auto& violation : result.audit.violations) {
              messages[s].push_back(StrFormat(
                  "[%s] pass seed %llu set %zu %s %s: %s",
                  rtdvs::AuditCheckName(violation.check),
                  static_cast<unsigned long long>(seed), s,
                  ServerConfigName(configs[c]).c_str(), id.c_str(),
                  violation.message.c_str()));
            }
          }
        }
      }));
    }
    for (auto& future : pending) {
      future.get();
    }
  }

  PassStats stats;
  stats.sims = static_cast<int64_t>(sets.size() * configs.size() * policies.size());
  for (size_t s = 0; s < sets.size(); ++s) {
    stats.audit_violations += violations[s];
    for (auto& message : messages[s]) {
      if (stats.audit_messages.size() < 10) {
        stats.audit_messages.push_back(std::move(message));
      }
    }
  }
  stats.table = ServerTable(runs);
  stats.shard_p50_ms = rtdvs::Percentile(shard_ms, 50);
  stats.shard_p95_ms = rtdvs::Percentile(shard_ms, 95);
  for (double ms : shard_ms) {
    stats.shard_sum_ms += ms;
  }
  stats.queue_wait_p95_ms = rtdvs::Percentile(queue_ms, 95);
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  stats.cpu_ms = static_cast<double>(std::clock() - cpu_start) * 1000.0 /
                 static_cast<double>(CLOCKS_PER_SEC);
  return stats;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload workload : {Workload::kPaperSweep, Workload::kMpGlobal,
                            Workload::kAperiodicServer}) {
    if (name == WorkloadName(workload)) {
      return workload;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaperSweep:
      return "paper_sweep";
    case Workload::kMpGlobal:
      return "mp_global";
    case Workload::kAperiodicServer:
      return "aperiodic_server";
  }
  return "?";
}

double TableDrift(const ResultTable& actual, const ResultTable& expected) {
  if (actual.size() != expected.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double drift = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].first != expected[i].first) {
      return std::numeric_limits<double>::infinity();
    }
    const double a = actual[i].second;
    const double b = expected[i].second;
    if (a != b) {
      drift = std::max(drift, std::abs(a - b) / std::max(std::abs(b), 1.0));
      if (std::isnan(a) || std::isnan(b)) {
        return std::numeric_limits<double>::infinity();
      }
    }
  }
  return drift;
}

uint64_t PassSeed(uint64_t seed, int pass) {
  if (pass == 0) {
    return kDefaultSeed;
  }
  return SplitMix64(SplitMix64(seed) + static_cast<uint64_t>(pass));
}

PassStats RunPass(Workload workload, uint64_t seed, int workers) {
  if (workload == Workload::kAperiodicServer) {
    return RunServerPass(seed, workers, kServerSetsPerPass);
  }
  return RunSweepPass(workload, seed, workers);
}

void RunWarmup(Workload workload, int workers) {
  if (workload == Workload::kAperiodicServer) {
    RunServerPass(kDefaultSeed, workers, 16);
    return;
  }
  rtdvs::SweepOptions options = SweepOptionsFor(workload, kDefaultSeed, workers);
  options.utilizations = {0.25, 0.5, 0.75, 1.0};
  options.tasksets_per_point = 1;
  rtdvs::UtilizationSweep(options).Run();
}

rtdvs::SweepOptions SweepOptionsFor(Workload workload, uint64_t seed,
                                    int workers) {
  rtdvs::SweepOptions options;
  options.horizon_ms = 5000.0;
  options.audit = true;
  options.machine = rtdvs::MachineSpec::Machine0();
  // Figure 13 demand: actual work uniform in (0, WCET].
  options.exec_model_factory = [] {
    return std::make_unique<rtdvs::UniformFractionModel>(0.0, 1.0);
  };
  options.seed = seed;
  options.jobs = workers;
  if (workload == Workload::kMpGlobal) {
    options.policy_ids = {"edf", "static_edf", "cc_edf", "la_edf"};
    options.num_tasks = 16;
    options.tasksets_per_point = kMpSetsPerPoint;
    options.num_cores = 4;
    options.mp_mode = rtdvs::MpMode::kGlobal;
  } else {
    options.policy_ids = rtdvs::AllPaperPolicyIds();
    options.num_tasks = 15;
    options.tasksets_per_point = kPaperSetsPerPoint;
  }
  options.utilizations = rtdvs::DefaultUtilizationGrid();
  return options;
}

const std::vector<ServerConfig>& ServerConfigs() {
  // The deferrable and CBS servers are left out on purpose: SimAudit reports
  // deadline misses for both on this workload (see perfbench/README.md).
  static const std::vector<ServerConfig> kConfigs = {
      {rtdvs::ServerKind::kPolling, 0.1},
      {rtdvs::ServerKind::kPolling, 0.2},
      {rtdvs::ServerKind::kPolling, 0.3}};
  return kConfigs;
}

const std::vector<std::string>& ServerPolicies() {
  static const std::vector<std::string> kPolicies = {"edf", "cc_edf"};
  return kPolicies;
}

std::string ServerConfigName(const ServerConfig& config) {
  return StrFormat("%s/us=%.1f",
                   config.kind == rtdvs::ServerKind::kCbs ? "cbs" : "polling",
                   config.utilization);
}

std::vector<ServerSet> GenerateServerSets(uint64_t seed, int count) {
  rtdvs::TaskSetGeneratorOptions gen_options;
  gen_options.num_tasks = kServerPeriodicTasks;
  gen_options.target_utilization = kServerPeriodicUtil;
  rtdvs::TaskSetGenerator generator(gen_options);
  rtdvs::Pcg32 master(seed);
  std::vector<ServerSet> sets;
  sets.reserve(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    rtdvs::Pcg32 rng = master.Fork();
    ServerSet set;
    set.tasks = generator.Generate(rng);
    set.run_seed = rng.NextU32();
    sets.push_back(std::move(set));
  }
  return sets;
}

rtdvs::SimOptions ServerSimOptions(const ServerConfig& config,
                                   uint64_t run_seed, bool audit) {
  rtdvs::SimOptions options;
  options.horizon_ms = kServerHorizonMs;
  options.seed = run_seed;
  options.audit = audit;
  options.aperiodic.kind = config.kind;
  options.aperiodic.period_ms = 20.0;
  options.aperiodic.budget_ms = config.utilization * 20.0;
  options.aperiodic.arrivals.mean_interarrival_ms = 40.0;
  options.aperiodic.arrivals.mean_service_ms = 2.0;
  options.aperiodic.arrivals.max_service_ms = 8.0;
  return options;
}

ResultTable ServerTable(
    const std::vector<std::vector<std::vector<ServerRun>>>& runs) {
  const auto& configs = ServerConfigs();
  const auto& policies = ServerPolicies();
  ResultTable table;
  for (size_t c = 0; c < configs.size(); ++c) {
    for (size_t p = 0; p < policies.size(); ++p) {
      rtdvs::RunningStats energy, response;
      int64_t misses = 0;
      for (const auto& set_runs : runs) {
        const ServerRun& run = set_runs[c][p];
        energy.Add(run.energy);
        response.Add(run.mean_response_ms);
        misses += run.deadline_misses;
      }
      const std::string key =
          ServerConfigName(configs[c]) + "/" + policies[p];
      table.emplace_back(key + "/energy", energy.mean());
      table.emplace_back(key + "/misses", static_cast<double>(misses));
      table.emplace_back(key + "/response_ms", response.mean());
    }
  }
  return table;
}

ResultTable SweepTable(const rtdvs::SweepResult& result) {
  ResultTable table;
  for (const auto& row : result.rows) {
    const std::string u = StrFormat("u=%.2f", row.utilization);
    for (size_t p = 0; p < row.cells.size(); ++p) {
      const auto& cell = row.cells[p];
      const std::string key = u + "/" + result.options.policy_ids[p];
      table.emplace_back(key + "/energy", cell.energy.mean());
      table.emplace_back(key + "/misses",
                         static_cast<double>(cell.deadline_misses));
    }
    table.emplace_back(u + "/bound", row.bound.mean());
  }
  return table;
}

}  // namespace perfbench
