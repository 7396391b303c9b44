#include "perfbench/traced.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <future>
#include <utility>

#include "src/core/sweep.h"
#include "src/rt/job_pool.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/audit.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/reference_sim.h"
#include "src/testing/differential.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace perfbench {

using rtdvs::StrFormat;
using Clock = std::chrono::steady_clock;

namespace {

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- sweeps

// The task set and run seed UtilizationSweep derives for one shard, drawn
// exactly as src/core/sweep.cc does from the shard's forked stream.
void GenerateSweepShard(const rtdvs::SweepOptions& options, double utilization,
                        rtdvs::Pcg32 rng, rtdvs::TaskSet* tasks,
                        uint64_t* workload_seed) {
  rtdvs::TaskSetGeneratorOptions gen_options;
  gen_options.num_tasks = options.num_tasks;
  gen_options.target_utilization =
      options.num_cores > 1
          ? utilization * static_cast<double>(options.num_cores)
          : utilization;
  rtdvs::TaskSetGenerator generator(gen_options);
  *tasks = generator.Generate(rng);
  *workload_seed = (static_cast<uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
}

// Every shard's forked stream, in serial grid order.
std::vector<rtdvs::Pcg32> ForkShardRngs(const rtdvs::SweepOptions& options) {
  rtdvs::Pcg32 master(options.seed);
  std::vector<rtdvs::Pcg32> rngs;
  const size_t shards = options.utilizations.size() *
                        static_cast<size_t>(options.tasksets_per_point);
  rngs.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    rngs.push_back(master.Fork());
  }
  return rngs;
}

rtdvs::SimOptions SweepSimOptions(const rtdvs::SweepOptions& options,
                                  uint64_t workload_seed) {
  rtdvs::SimOptions sim;
  sim.horizon_ms = options.horizon_ms;
  sim.idle_level = options.idle_level;
  sim.switch_time_ms = options.switch_time_ms;
  sim.miss_policy = options.miss_policy;
  sim.energy_coefficient = options.energy_coefficient;
  sim.audit = false;  // audited from outside, as its own span
  sim.seed = workload_seed;
  return sim;
}

rtdvs::SimRequest SweepRequest(const rtdvs::SweepOptions& options,
                               const rtdvs::TaskSet& tasks,
                               uint64_t workload_seed) {
  rtdvs::SimRequest request;
  request.tasks = tasks;
  request.cluster.num_cores = options.num_cores;
  request.cluster.machine = options.machine;
  request.mode = options.mp_mode;
  request.partition = options.mp_partition;
  request.options = SweepSimOptions(options, workload_seed);
  return request;
}

void CountSim(const rtdvs::SimResult& result, double simulated_ms,
              SimSpan* span) {
  span->steps = result.fastpath.steps;
  span->idle_skips = result.fastpath.idle_skips;
  span->idle_skipped_ms = result.fastpath.idle_skipped_ms;
  span->hyperperiod_cycles_replayed = result.fastpath.hyperperiod_cycles_replayed;
  span->simulated_ms = simulated_ms;
  span->releases = result.releases;
  span->preemptions = result.preemptions;
  span->speed_switches = result.speed_switches;
  span->aperiodic_served = result.aperiodic.completions;
}

// What one policy produced on one shard, for the serial-order merge.
struct PolicyOutcome {
  double energy = 0;
  double lower_bound = 0;
  int64_t deadline_misses = 0;
  bool admitted = true;
};

// Runs `id` on one sweep shard through the wrappers.
PolicyOutcome RunTracedSweepSim(const rtdvs::SweepOptions& options,
                                const rtdvs::TaskSet& tasks,
                                uint64_t workload_seed, const std::string& id,
                                SimSpan* span) {
  auto model = std::make_unique<TracedExecModel>(options.exec_model_factory());
  PolicyOutcome outcome;
  span->policy = id;
  if (options.num_cores == 1) {
    rtdvs::SimOptions sim = SweepSimOptions(options, workload_seed);
    sim.job_pool = &rtdvs::ThreadLocalJobPool();
    TracedPolicy policy(rtdvs::MakePolicy(id));
    const auto run_start = Clock::now();
    rtdvs::SimResult result =
        rtdvs::RunSimulation(tasks, options.machine, policy, *model, sim);
    span->run_ns = NsSince(run_start);
    rtdvs::AuditInputs inputs;
    inputs.tasks = &tasks;
    inputs.machine = &options.machine;
    inputs.options = &sim;
    inputs.policy_guarantees_deadlines = policy.guarantees_deadlines();
    const auto audit_start = Clock::now();
    const rtdvs::AuditReport audit = rtdvs::AuditSimResult(result, inputs);
    span->audit_ns = NsSince(audit_start);
    span->audit_violations = static_cast<int64_t>(audit.violations.size());
    span->dvs_ns = policy.callback_ns();
    span->callbacks = policy.callbacks();
    CountSim(result, sim.horizon_ms, span);
    outcome.energy = result.total_energy();
    outcome.lower_bound = result.lower_bound_energy;
    outcome.deadline_misses = result.deadline_misses;
  } else {
    rtdvs::SimRequest request = SweepRequest(options, tasks, workload_seed);
    request.options.job_pool = &rtdvs::ThreadLocalJobPool();
    std::vector<std::unique_ptr<TracedPolicy>> owned;
    std::vector<rtdvs::DvsPolicy*> policies;
    for (int c = 0; c < options.num_cores; ++c) {
      owned.push_back(std::make_unique<TracedPolicy>(rtdvs::MakePolicy(id)));
      policies.push_back(owned.back().get());
    }
    const auto run_start = Clock::now();
    rtdvs::MpSimResult result =
        rtdvs::RunClusterSimulation(request, policies, *model);
    span->run_ns = NsSince(run_start);
    outcome.admitted = result.admitted;
    if (result.admitted) {
      const auto audit_start = Clock::now();
      const rtdvs::AuditReport audit =
          rtdvs::AuditMpResult(result, request.options);
      span->audit_ns = NsSince(audit_start);
      span->audit_violations = static_cast<int64_t>(audit.violations.size());
    }
    for (const auto& policy : owned) {
      span->dvs_ns += policy->callback_ns();
      span->callbacks += policy->callbacks();
    }
    CountSim(result.cluster,
             request.options.horizon_ms * static_cast<double>(options.num_cores),
             span);
    span->migrations = result.migrations;
    outcome.energy = result.cluster.total_energy();
    outcome.lower_bound = result.cluster.lower_bound_energy;
    outcome.deadline_misses = result.cluster.deadline_misses;
  }
  span->draw_ns = model->draw_ns();
  span->draws = model->draws();
  return outcome;
}

// Traced replica of UtilizationSweep::Run over the shards `selected` (all
// shards when empty), running `policy_ids` on each. With the workload's
// own policy list the merged table equals the untraced sweep's.
TracedPass RunTracedSweep(const rtdvs::SweepOptions& options,
                          const std::vector<std::string>& policy_ids,
                          std::vector<size_t> selected, int workers) {
  const std::vector<rtdvs::Pcg32> rngs = ForkShardRngs(options);
  const size_t sets = static_cast<size_t>(options.tasksets_per_point);
  if (selected.empty()) {
    for (size_t i = 0; i < rngs.size(); ++i) {
      selected.push_back(i);
    }
  }
  std::vector<std::vector<PolicyOutcome>> outcomes(rngs.size());
  TracedPass pass;
  pass.shards.resize(selected.size());
  const auto wall_start = Clock::now();
  const std::clock_t cpu_start = std::clock();
  {
    rtdvs::ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    for (size_t k = 0; k < selected.size(); ++k) {
      pending.push_back(pool.Submit([&, k] {
        const size_t shard = selected[k];
        const double utilization = options.utilizations[shard / sets];
        ShardSpan& span = pass.shards[k];
        span.shard = static_cast<int>(shard);
        const auto shard_start = Clock::now();
        rtdvs::TaskSet tasks;
        uint64_t workload_seed = 0;
        GenerateSweepShard(options, utilization, rngs[shard], &tasks,
                           &workload_seed);
        span.generate_ns = NsSince(shard_start);
        for (const std::string& id : policy_ids) {
          SimSpan sim;
          sim.shard = span.shard;
          outcomes[shard].push_back(
              RunTracedSweepSim(options, tasks, workload_seed, id, &sim));
          span.sims.push_back(std::move(sim));
        }
        span.total_ns = NsSince(shard_start);
      }));
    }
    for (auto& future : pending) {
      future.get();
    }
  }
  pass.stats.wall_ms = NsSince(wall_start) / 1e6;
  pass.stats.cpu_ms = static_cast<double>(std::clock() - cpu_start) * 1000.0 /
                      static_cast<double>(CLOCKS_PER_SEC);
  for (const ShardSpan& shard : pass.shards) {
    pass.stats.sims += static_cast<int64_t>(shard.sims.size());
    for (const SimSpan& sim : shard.sims) {
      pass.stats.audit_violations += sim.audit_violations;
    }
  }

  // Merge in serial grid order, as UtilizationSweep::RunShards does.
  if (selected.size() == rngs.size()) {
    auto edf = std::find(policy_ids.begin(), policy_ids.end(), "edf");
    const size_t baseline = static_cast<size_t>(edf - policy_ids.begin());
    rtdvs::SweepResult merged;
    merged.options = options;
    merged.options.policy_ids = policy_ids;
    for (size_t ui = 0; ui < options.utilizations.size(); ++ui) {
      rtdvs::SweepRow row;
      row.utilization = options.utilizations[ui];
      row.cells.resize(policy_ids.size());
      for (size_t si = 0; si < sets; ++si) {
        const auto& shard = outcomes[ui * sets + si];
        if (baseline < policy_ids.size() && shard[baseline].admitted) {
          row.bound.Add(shard[baseline].lower_bound);
        }
        for (size_t p = 0; p < policy_ids.size(); ++p) {
          if (!shard[p].admitted) {
            continue;
          }
          row.cells[p].energy.Add(shard[p].energy);
          row.cells[p].deadline_misses += shard[p].deadline_misses;
        }
      }
      merged.rows.push_back(std::move(row));
    }
    pass.stats.table = SweepTable(merged);
  }
  return pass;
}

// ------------------------------------------------------- aperiodic server

TracedPass RunTracedServer(uint64_t seed, int workers,
                           const std::vector<std::string>& policy_ids,
                           int max_sets) {
  const auto wall_start = Clock::now();
  const std::clock_t cpu_start = std::clock();
  const auto generate_start = Clock::now();
  const std::vector<ServerSet> sets = GenerateServerSets(seed, max_sets);
  const double generate_ns =
      NsSince(generate_start) / static_cast<double>(sets.size());
  const auto& configs = ServerConfigs();
  const rtdvs::MachineSpec machine = rtdvs::MachineSpec::Machine0();

  TracedPass pass;
  pass.shards.resize(sets.size());
  std::vector<std::vector<std::vector<ServerRun>>> runs(sets.size());
  {
    rtdvs::ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    for (size_t s = 0; s < sets.size(); ++s) {
      pending.push_back(pool.Submit([&, s] {
        ShardSpan& span = pass.shards[s];
        span.shard = static_cast<int>(s);
        span.generate_ns = generate_ns;
        const auto shard_start = Clock::now();
        runs[s].resize(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
          const rtdvs::SimOptions options =
              ServerSimOptions(configs[c], sets[s].run_seed, /*audit=*/false);
          // The set as simulated: the server is appended as a periodic task.
          rtdvs::TaskSet simulated = sets[s].tasks;
          simulated.AddTask({"server", options.aperiodic.period_ms,
                             options.aperiodic.budget_ms, 0.0});
          for (const std::string& id : policy_ids) {
            SimSpan sim;
            sim.shard = span.shard;
            sim.policy = id;
            TracedPolicy policy(rtdvs::MakePolicy(id));
            TracedExecModel model(
                std::make_unique<rtdvs::UniformFractionModel>(0.0, 1.0));
            const auto run_start = Clock::now();
            rtdvs::SimResult result = rtdvs::RunSimulation(
                sets[s].tasks, machine, policy, model, options);
            sim.run_ns = NsSince(run_start);
            rtdvs::AuditInputs inputs;
            inputs.tasks = &simulated;
            inputs.machine = &machine;
            inputs.options = &options;
            inputs.policy_guarantees_deadlines = policy.guarantees_deadlines();
            const auto audit_start = Clock::now();
            const rtdvs::AuditReport audit = rtdvs::AuditSimResult(result, inputs);
            sim.audit_ns = NsSince(audit_start);
            sim.audit_violations = static_cast<int64_t>(audit.violations.size());
            sim.dvs_ns = policy.callback_ns();
            sim.callbacks = policy.callbacks();
            sim.draw_ns = model.draw_ns();
            sim.draws = model.draws();
            CountSim(result, options.horizon_ms, &sim);
            runs[s][c].push_back({result.total_energy(), result.deadline_misses,
                                  result.aperiodic.MeanResponseMs()});
            span.sims.push_back(std::move(sim));
          }
        }
        span.total_ns = NsSince(shard_start) + generate_ns;
      }));
    }
    for (auto& future : pending) {
      future.get();
    }
  }
  pass.stats.wall_ms = NsSince(wall_start) / 1e6;
  pass.stats.cpu_ms = static_cast<double>(std::clock() - cpu_start) * 1000.0 /
                      static_cast<double>(CLOCKS_PER_SEC);
  for (const ShardSpan& shard : pass.shards) {
    pass.stats.sims += static_cast<int64_t>(shard.sims.size());
    for (const SimSpan& sim : shard.sims) {
      pass.stats.audit_violations += sim.audit_violations;
    }
  }
  if (policy_ids == ServerPolicies()) {
    pass.stats.table = ServerTable(runs);
  }
  return pass;
}

}  // namespace

// ----------------------------------------------------------- wrappers

TracedPolicy::TracedPolicy(std::unique_ptr<rtdvs::DvsPolicy> inner)
    : inner_(std::move(inner)) {
  counters_ = inner_->counters();
}

template <typename F>
void TracedPolicy::Timed(F&& call) {
  const auto start = Clock::now();
  call();
  callback_ns_ += NsSince(start);
  ++callbacks_;
  counters_ = inner_->counters();
}

void TracedPolicy::OnStart(const rtdvs::PolicyContext& ctx,
                           rtdvs::SpeedController& speed) {
  Timed([&] { inner_->OnStart(ctx, speed); });
}

void TracedPolicy::OnTaskRelease(int task_id, const rtdvs::PolicyContext& ctx,
                                 rtdvs::SpeedController& speed) {
  Timed([&] { inner_->OnTaskRelease(task_id, ctx, speed); });
}

void TracedPolicy::OnTaskCompletion(int task_id,
                                    const rtdvs::PolicyContext& ctx,
                                    rtdvs::SpeedController& speed) {
  Timed([&] { inner_->OnTaskCompletion(task_id, ctx, speed); });
}

void TracedPolicy::OnIdle(const rtdvs::PolicyContext& ctx,
                          rtdvs::SpeedController& speed) {
  Timed([&] { inner_->OnIdle(ctx, speed); });
}

std::optional<double> TracedPolicy::NextWakeupMs(
    const rtdvs::PolicyContext& ctx) {
  std::optional<double> wakeup;
  Timed([&] { wakeup = inner_->NextWakeupMs(ctx); });
  return wakeup;
}

void TracedPolicy::OnWakeup(const rtdvs::PolicyContext& ctx,
                            rtdvs::SpeedController& speed) {
  Timed([&] { inner_->OnWakeup(ctx, speed); });
}

void TracedPolicy::OnTimeSkip(const rtdvs::PolicyContext& ctx) {
  Timed([&] { inner_->OnTimeSkip(ctx); });
}

double TracedExecModel::DrawFraction(int task_id, int64_t invocation,
                                     rtdvs::Pcg32& rng) {
  const auto start = Clock::now();
  const double fraction = inner_->DrawFraction(task_id, invocation, rng);
  draw_ns_ += NsSince(start);
  ++draws_;
  return fraction;
}

// ------------------------------------------------------------ public

std::vector<std::string> WorkloadPolicies(Workload workload) {
  if (workload == Workload::kAperiodicServer) {
    return ServerPolicies();
  }
  return SweepOptionsFor(workload, kDefaultSeed, 1).policy_ids;
}

TracedPass RunTracedPass(Workload workload, uint64_t seed, int workers) {
  if (workload == Workload::kAperiodicServer) {
    return RunTracedServer(seed, workers, ServerPolicies(), kServerSetsPerPass);
  }
  const rtdvs::SweepOptions options = SweepOptionsFor(workload, seed, workers);
  return RunTracedSweep(options, options.policy_ids, {}, workers);
}

TracedPass RunTracedPolicySample(Workload workload, uint64_t seed, int workers,
                                 const std::vector<std::string>& policy_ids,
                                 int max_shards) {
  if (workload == Workload::kAperiodicServer) {
    return RunTracedServer(seed, workers, policy_ids, max_shards);
  }
  const rtdvs::SweepOptions options = SweepOptionsFor(workload, seed, workers);
  const size_t shards = options.utilizations.size() *
                        static_cast<size_t>(options.tasksets_per_point);
  const size_t stride =
      std::max<size_t>(1, shards / static_cast<size_t>(max_shards));
  std::vector<size_t> selected;
  for (size_t i = stride - 1; i < shards; i += stride) {
    selected.push_back(i);
  }
  return RunTracedSweep(options, policy_ids, selected, workers);
}

int64_t CheckAgainstOracle(Workload workload, uint64_t seed, int workers,
                           int64_t* failed, std::vector<std::string>* messages) {
  if (workload == Workload::kAperiodicServer) {
    return 0;  // the reference oracle has no aperiodic-server model
  }
  const rtdvs::SweepOptions options = SweepOptionsFor(workload, seed, workers);
  const std::vector<rtdvs::Pcg32> rngs = ForkShardRngs(options);
  const size_t sets = static_cast<size_t>(options.tasksets_per_point);
  // First task set at u = 0.25, 0.50, 0.75 and 1.00 (single core), or at
  // 0.50 and 1.00 per core (the reference cluster engine is much slower).
  const std::vector<size_t> rows = options.num_cores == 1
                                       ? std::vector<size_t>{4, 9, 14, 19}
                                       : std::vector<size_t>{9, 19};
  struct Check {
    size_t shard;
    std::string policy;
  };
  std::vector<Check> checks;
  for (size_t row : rows) {
    for (const std::string& id : options.policy_ids) {
      checks.push_back({row * sets, id});
    }
  }
  std::vector<std::string> diffs(checks.size());
  {
    rtdvs::ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    for (size_t k = 0; k < checks.size(); ++k) {
      pending.push_back(pool.Submit([&, k] {
        const Check& check = checks[k];
        rtdvs::TaskSet tasks;
        uint64_t workload_seed = 0;
        GenerateSweepShard(options, options.utilizations[check.shard / sets],
                           rngs[check.shard], &tasks, &workload_seed);
        std::vector<rtdvs::FieldDiff> fields;
        bool agreed = false;
        if (options.num_cores == 1) {
          const rtdvs::SimOptions sim = SweepSimOptions(options, workload_seed);
          auto model = options.exec_model_factory();
          auto reference_model = options.exec_model_factory();
          const rtdvs::SimResult production = rtdvs::RunSimulation(
              tasks, options.machine, check.policy, *model, sim);
          const rtdvs::SimResult reference = rtdvs::RunReferenceSimulation(
              tasks, options.machine, check.policy, *reference_model, sim);
          agreed = rtdvs::ResultsAgree(production, reference, &fields);
        } else {
          rtdvs::SimRequest request = SweepRequest(options, tasks, workload_seed);
          request.policy_ids = {check.policy};
          auto model = options.exec_model_factory();
          auto reference_model = options.exec_model_factory();
          const rtdvs::MpSimResult production =
              rtdvs::RunClusterSimulation(request, *model);
          const rtdvs::MpSimResult reference =
              rtdvs::RunReferenceClusterSimulation(request, *reference_model);
          agreed = rtdvs::MpResultsAgree(production, reference, &fields);
        }
        if (!agreed) {
          diffs[k] = StrFormat(
              "oracle: shard %zu %s disagrees on %zu fields (first: %s)",
              check.shard, check.policy.c_str(), fields.size(),
              fields.empty() ? "?" : fields.front().field.c_str());
        }
      }));
    }
    for (auto& future : pending) {
      future.get();
    }
  }
  for (std::string& diff : diffs) {
    if (!diff.empty()) {
      ++*failed;
      messages->push_back(std::move(diff));
    }
  }
  return static_cast<int64_t>(checks.size());
}

void WriteSpans(const std::vector<TracedPass>& passes, Workload workload,
                std::ostream& out) {
  for (size_t p = 0; p < passes.size(); ++p) {
    for (const ShardSpan& shard : passes[p].shards) {
      for (const SimSpan& sim : shard.sims) {
        rtdvs::JsonValue line = rtdvs::JsonValue::Object();
        line.Set("workload", WorkloadName(workload));
        line.Set("pass", static_cast<int64_t>(p));
        line.Set("shard", sim.shard);
        line.Set("policy", sim.policy);
        line.Set("shard_generate_ns", shard.generate_ns);
        line.Set("run_ns", sim.run_ns);
        line.Set("dvs_ns", sim.dvs_ns);
        line.Set("callbacks", sim.callbacks);
        line.Set("draw_ns", sim.draw_ns);
        line.Set("draws", sim.draws);
        line.Set("audit_ns", sim.audit_ns);
        line.Set("steps", sim.steps);
        line.Set("idle_skips", sim.idle_skips);
        line.Set("releases", sim.releases);
        line.Set("preemptions", sim.preemptions);
        line.Set("speed_switches", sim.speed_switches);
        line.Set("migrations", sim.migrations);
        out << line.ToString() << "\n";
      }
    }
  }
}

}  // namespace perfbench
