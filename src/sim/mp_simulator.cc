#include "src/sim/mp_simulator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/cpu/lower_bound.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/profiler.h"
#include "src/util/time_eps.h"

namespace rtdvs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-core RNG stream for partitioned mode. Core 0 keeps the request seed,
// so an M=1 request is bit-identical to the legacy single-core path; higher
// cores decorrelate via the golden-ratio multiplier.
uint64_t CoreSeed(uint64_t seed, int core) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(core));
}

// Translates a core's local task ids back to the global ids the shared
// execution-time model keys on. Invocation indices pass through unchanged:
// a partitioned task runs wholly on one core, so its local invocation
// sequence IS its global one.
class CoreExecModelAdapter : public ExecTimeModel {
 public:
  CoreExecModelAdapter(ExecTimeModel* inner, const std::vector<int>* global_ids)
      : inner_(inner), global_ids_(global_ids) {}
  std::string name() const override { return inner_->name(); }
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override {
    return inner_->DrawFraction((*global_ids_)[static_cast<size_t>(task_id)],
                                invocation, rng);
  }

 private:
  ExecTimeModel* inner_;
  const std::vector<int>* global_ids_;
};

// A core the partition left without tasks is powered down for the whole
// horizon: wall time is all idle at the lowest operating point, energy is
// zero (the core is off, not halted). The reference oracle reproduces this
// slice independently; keep the two definitions in sync.
SimResult PoweredDownSlice(const MachineSpec& machine, const SimOptions& options) {
  SimResult slice;
  slice.policy_name = "off";
  slice.horizon_ms = options.horizon_ms;
  slice.idle_ms = options.horizon_ms;
  for (const OperatingPoint& point : machine.points()) {
    slice.residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
  slice.residency.front().idle_ms = options.horizon_ms;
  return slice;
}

// Folds one core's slice into the cluster totals. Never touches traces
// (they stay per-core) and maps per-task stats back to global ids.
void AccumulateSlice(const SimResult& slice, const std::vector<int>& global_ids,
                     SimResult* cluster) {
  cluster->exec_energy += slice.exec_energy;
  cluster->idle_energy += slice.idle_energy;
  cluster->busy_ms += slice.busy_ms;
  cluster->idle_ms += slice.idle_ms;
  cluster->switching_ms += slice.switching_ms;
  cluster->total_work_executed += slice.total_work_executed;
  cluster->releases += slice.releases;
  cluster->completions += slice.completions;
  cluster->deadline_misses += slice.deadline_misses;
  cluster->aborted += slice.aborted;
  cluster->unfinished_at_horizon += slice.unfinished_at_horizon;
  cluster->wcet_overruns += slice.wcet_overruns;
  cluster->speed_switches += slice.speed_switches;
  cluster->preemptions += slice.preemptions;
  cluster->policy_counters.MergeFrom(slice.policy_counters);
  cluster->fastpath.MergeFrom(slice.fastpath);
  cluster->lower_bound_energy += slice.lower_bound_energy;
  for (size_t i = 0; i < slice.residency.size(); ++i) {
    PointResidency& sum = cluster->residency[i];
    const PointResidency& res = slice.residency[i];
    sum.exec_ms += res.exec_ms;
    sum.idle_ms += res.idle_ms;
    sum.exec_energy += res.exec_energy;
    sum.idle_energy += res.idle_energy;
  }
  for (size_t local = 0; local < slice.task_stats.size(); ++local) {
    cluster->task_stats[static_cast<size_t>(global_ids[local])] =
        slice.task_stats[local];
  }
}

void InitClusterResult(int num_tasks, const MachineSpec& machine,
                       const SimOptions& options, SimResult* cluster) {
  cluster->horizon_ms = options.horizon_ms;
  cluster->task_stats.assign(static_cast<size_t>(num_tasks), TaskStats{});
  for (const OperatingPoint& point : machine.points()) {
    cluster->residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
}

std::string ClusterPolicyName(const std::vector<DvsPolicy*>& policies) {
  std::string name = policies.front()->name();
  for (const DvsPolicy* policy : policies) {
    if (policy->name() != name) {
      name += '+';
      name += policy->name();
    }
  }
  return name;
}

// --- M = 1: route straight to the single-core Simulator with untouched
// options, making the new API bit-identical to the legacy path (the legacy
// RunSimulation overloads are wrappers over this branch). ---
void RunSingleCore(const SimRequest& request, DvsPolicy* policy,
                   ExecTimeModel& exec_model, MpSimResult* out) {
  Simulator sim(request.tasks, request.cluster.machine, policy, &exec_model,
                request.options);
  out->admitted = true;
  out->partition.feasible = true;
  out->partition.core_of_task.assign(static_cast<size_t>(request.tasks.size()), 0);
  out->partition.core_utilization = {request.tasks.TotalUtilization()};
  out->partition.core_task_count = {request.tasks.size()};
  out->partition.cores_used = 1;
  out->core_tasks = {request.tasks};
  out->core_global_ids.resize(1);
  for (int id = 0; id < request.tasks.size(); ++id) {
    out->core_global_ids[0].push_back(id);
  }
  out->cores[0] = sim.Run();
  // The simulated set may have grown a server task; size the cluster stats
  // to what the core actually reported.
  if (out->cores[0].server_task_id >= 0) {
    out->core_global_ids[0].push_back(request.tasks.size());
  }
  InitClusterResult(static_cast<int>(out->cores[0].task_stats.size()),
                    request.cluster.machine, request.options, &out->cluster);
  AccumulateSlice(out->cores[0], out->core_global_ids[0], &out->cluster);
  out->cluster.server_task_id = out->cores[0].server_task_id;
  out->cluster.aperiodic = out->cores[0].aperiodic;
}

// --- Partitioned mode (M > 1): bin-pack, then one independent single-core
// Simulator per non-empty core. ---
void RunPartitioned(const SimRequest& request,
                    const std::vector<DvsPolicy*>& policies,
                    ExecTimeModel& exec_model, MpSimResult* out) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK(request.options.aperiodic.kind == ServerKind::kNone)
      << "aperiodic servers are supported only at num_cores == 1";
  std::vector<SchedulerKind> kinds;
  kinds.reserve(static_cast<size_t>(num_cores));
  for (const DvsPolicy* policy : policies) {
    kinds.push_back(policy->scheduler_kind());
  }
  out->partition = PartitionTasks(request.tasks, num_cores, request.partition, kinds);
  if (!out->partition.feasible) {
    out->admitted = false;
    return;
  }
  out->admitted = true;

  out->core_tasks.assign(static_cast<size_t>(num_cores), TaskSet{});
  out->core_global_ids.assign(static_cast<size_t>(num_cores), {});
  for (int id = 0; id < request.tasks.size(); ++id) {
    const int core = out->partition.core_of_task[static_cast<size_t>(id)];
    out->core_tasks[static_cast<size_t>(core)].AddTask(request.tasks.task(id));
    out->core_global_ids[static_cast<size_t>(core)].push_back(id);
  }

  InitClusterResult(request.tasks.size(), request.cluster.machine,
                    request.options, &out->cluster);
  for (int core = 0; core < num_cores; ++core) {
    RTDVS_PROF_SCOPE("mp/core/run");
    const auto c = static_cast<size_t>(core);
    if (out->core_tasks[c].empty()) {
      out->cores[c] = PoweredDownSlice(request.cluster.machine, request.options);
    } else {
      SimOptions core_options = request.options;
      core_options.seed = CoreSeed(request.options.seed, core);
      CoreExecModelAdapter adapter(&exec_model, &out->core_global_ids[c]);
      Simulator sim(out->core_tasks[c], request.cluster.machine,
                    policies[c], &adapter, core_options);
      out->cores[c] = sim.Run();
    }
    AccumulateSlice(out->cores[c], out->core_global_ids[c], &out->cluster);
  }
}

// --- Global mode (M > 1): one cluster-wide ReadyQueue over a shared clock,
// per-core engine components (EnergyAccountant + SpeedController), and the
// dispatch/migration contract documented in mp_simulator.h. ---
class GlobalClusterEngine {
 public:
  GlobalClusterEngine(const SimRequest& request,
                      const std::vector<DvsPolicy*>& policies,
                      ExecTimeModel& exec_model, MpSimResult* out)
      : tasks_(request.tasks),
        machine_(request.cluster.machine),
        options_(request.options),
        policies_(policies),
        exec_model_(exec_model),
        num_cores_(request.cluster.num_cores),
        scheduler_(MakeScheduler(policies.front()->scheduler_kind())),
        rng_(request.options.seed),
        out_(out) {
    RTDVS_CHECK(options_.aperiodic.kind == ServerKind::kNone)
        << "aperiodic servers are supported only at num_cores == 1";
    for (const DvsPolicy* policy : policies_) {
      RTDVS_CHECK(policy->scheduler_kind() == scheduler_->kind())
          << "global mode needs one scheduler kind across all cores";
    }
  }

  void Run() {
    const auto n = static_cast<size_t>(tasks_.size());
    const auto m = static_cast<size_t>(num_cores_);
    out_->admitted = true;  // global scheduling has no admission test
    out_->partition.feasible = true;
    out_->partition.cores_used = num_cores_;
    out_->core_tasks.assign(m, tasks_);
    out_->core_global_ids.assign(m, {});
    for (size_t c = 0; c < m; ++c) {
      for (int id = 0; id < tasks_.size(); ++id) {
        out_->core_global_ids[c].push_back(id);
      }
    }
    InitClusterResult(tasks_.size(), machine_, options_, &out_->cluster);
    SimResult& cluster = out_->cluster;
    cluster.trace.set_capacity_limit(options_.max_trace_segments);

    next_release_.assign(n, 0.0);
    next_invocation_.assign(n, 0);
    cumulative_executed_.assign(n, 0.0);
    last_actual_work_.assign(n, 0.0);
    for (int id = 0; id < tasks_.size(); ++id) {
      next_release_[static_cast<size_t>(id)] = tasks_.task(id).phase_ms;
      last_actual_work_[static_cast<size_t>(id)] = tasks_.task(id).wcet_ms;
    }

    // Per-core engine components over the one shared clock.
    std::vector<ModelEnergyAccountant> accountants(
        m, ModelEnergyAccountant(
               EnergyModel(options_.idle_level, options_.energy_coefficient)));
    std::vector<std::unique_ptr<TraceRecorderSink>> sinks(m);
    std::vector<std::unique_ptr<ModeledSpeedController>> speeds(m);
    std::vector<PolicyCounters> counters_at_start(m);
    for (size_t c = 0; c < m; ++c) {
      SimResult& slice = out_->cores[c];
      slice.policy_name = policies_[c]->name();
      slice.scheduler = policies_[c]->scheduler_kind();
      slice.horizon_ms = options_.horizon_ms;
      for (const OperatingPoint& point : machine_.points()) {
        slice.residency.push_back(PointResidency{point, 0, 0, 0, 0});
      }
      slice.trace.set_capacity_limit(options_.max_trace_segments);
      TraceSink* sink = nullptr;
      if (options_.record_trace) {
        sinks[c] = std::make_unique<TraceRecorderSink>(&slice.trace);
        sink = sinks[c].get();
      }
      accountants[c].BindResidency(&machine_, &slice.residency);
      accountants[c].set_trace_sink(sink);
      speeds[c] = std::make_unique<ModeledSpeedController>(
          &machine_, options_.switch_time_ms, &now_, sink);
      counters_at_start[c] = policies_[c]->counters();
    }
    ready_.BindScheduler(scheduler_.get());
    context_builder_.Bind(&tasks_, &machine_);

    std::vector<std::optional<double>> wakeup(m);
    std::vector<char> was_idle(m, 0);
    {
      PolicyContext ctx;
      BuildContext(accountants, &ctx);
      for (size_t c = 0; c < m; ++c) {
        policies_[c]->OnStart(ctx, *speeds[c]);
      }
      for (size_t c = 0; c < m; ++c) {
        wakeup[c] = policies_[c]->NextWakeupMs(ctx);
      }
    }

    while (now_ < options_.horizon_ms - kTimeEpsMs) {
      // --- Dispatch: the M highest-priority jobs, with core affinity. ---
      std::vector<int> core_job(m, -1);  // index into jobs_, -1 = idle core
      {
        RTDVS_PROF_SCOPE("mp/global/dispatch");
        const std::vector<size_t>& picked = ready_.PickTopK(jobs_, tasks_, m);
        std::vector<char> placed(picked.size(), 0);
        // Pass 1: a job keeps its previous core when that core is free.
        for (size_t p = 0; p < picked.size(); ++p) {
          const int prev = last_core_[picked[p]];
          if (prev >= 0 && core_job[static_cast<size_t>(prev)] < 0) {
            core_job[static_cast<size_t>(prev)] = static_cast<int>(picked[p]);
            placed[p] = 1;
          }
        }
        // Pass 2: remaining jobs fill free cores lowest-index-first in
        // priority order; landing away from the previous core is a migration.
        size_t next_free = 0;
        for (size_t p = 0; p < picked.size(); ++p) {
          if (placed[p]) {
            continue;
          }
          while (core_job[next_free] >= 0) {
            ++next_free;
          }
          core_job[next_free] = static_cast<int>(picked[p]);
          if (last_core_[picked[p]] >= 0 &&
              last_core_[picked[p]] != static_cast<int>(next_free)) {
            ++out_->migrations;
          }
          last_core_[picked[p]] = static_cast<int>(next_free);
        }
      }
      // Preemptions: a job dispatched last segment, still unfinished, that
      // lost its slot this segment (diagnostic; not a divergence-checked
      // counter, but the reference computes it identically).
      std::vector<char> dispatched_now(jobs_.size(), 0);
      for (size_t c = 0; c < m; ++c) {
        if (core_job[c] >= 0) {
          dispatched_now[static_cast<size_t>(core_job[c])] = 1;
        }
      }
      for (size_t i = 0; i < jobs_.size(); ++i) {
        if (dispatched_[i] && !dispatched_now[i] && !jobs_[i].finished) {
          ++cluster.preemptions;
        }
      }
      dispatched_ = dispatched_now;

      // --- Next event: releases, deadlines, wakeups, per-core completions. ---
      double t_next = options_.horizon_ms;
      for (double release : next_release_) {
        t_next = std::min(t_next, release);
      }
      for (const Job& job : jobs_) {
        if (!job.finished && job.deadline_ms > now_ + kTimeEpsMs) {
          t_next = std::min(t_next, job.deadline_ms);
        }
      }
      for (size_t c = 0; c < m; ++c) {
        if (wakeup[c].has_value() && *wakeup[c] > now_ + kTimeEpsMs) {
          t_next = std::min(t_next, *wakeup[c]);
        }
        if (core_job[c] >= 0) {
          const Job& job = jobs_[static_cast<size_t>(core_job[c])];
          double exec_start = std::max(now_, speeds[c]->blocked_until_ms());
          t_next = std::min(t_next, exec_start + job.RemainingActualWork() /
                                                     speeds[c]->current().frequency);
        }
      }
      RTDVS_CHECK_GT(t_next, now_ - kTimeEpsMs)
          << "event horizon moved backwards at t=" << now_;
      t_next = std::min(std::max(t_next, now_), options_.horizon_ms);

      // --- Idle notification, once per idle period per core, only ahead of
      // a segment of real length (a zero-length step between releases due at
      // `now` is not an idle period). ---
      if (t_next > now_ + kTimeEpsMs) {
        PolicyContext ctx;
        bool ctx_built = false;
        for (size_t c = 0; c < m; ++c) {
          if (core_job[c] >= 0) {
            was_idle[c] = 0;
          } else if (!was_idle[c]) {
            if (!ctx_built) {
              BuildContext(accountants, &ctx);
              ctx_built = true;
            }
            policies_[c]->OnIdle(ctx, *speeds[c]);
            was_idle[c] = 1;
          }
        }
      }

      // --- Integrate [now, t_next) on every core. ---
      for (size_t c = 0; c < m; ++c) {
        const OperatingPoint point = speeds[c]->current();
        if (core_job[c] >= 0) {
          Job& job = jobs_[static_cast<size_t>(core_job[c])];
          double exec_start =
              std::clamp(speeds[c]->blocked_until_ms(), now_, t_next);
          accountants[c].RecordSwitchHalt(now_, exec_start, point);
          const double exec_dt = t_next - exec_start;
          if (exec_dt > 0) {
            double work = exec_dt * point.frequency;
            work = std::min(work, job.RemainingActualWork());
            job.executed_work += work;
            cumulative_executed_[static_cast<size_t>(job.task_id)] += work;
            cluster.task_stats[static_cast<size_t>(job.task_id)].executed_work +=
                work;
            accountants[c].RecordExecution(exec_start, t_next, work, job.task_id,
                                           point);
          }
        } else {
          const double halt_end =
              std::clamp(speeds[c]->blocked_until_ms(), now_, t_next);
          accountants[c].RecordSwitchHalt(now_, halt_end, point);
          accountants[c].RecordIdle(halt_end, t_next, point);
        }
      }
      now_ = t_next;
      if (now_ >= options_.horizon_ms - kTimeEpsMs) {
        break;
      }

      // --- State changes due at now: completions (creation order), then
      // misses, then releases (task-id order, one model draw each). ---
      std::vector<int> completed;
      for (Job& job : jobs_) {
        if (!job.finished && job.RemainingActualWork() <= kWorkEps) {
          FinalizeCompletion(&job, &cluster);
          completed.push_back(job.task_id);
        }
      }
      for (Job& job : jobs_) {
        if (job.finished || job.missed || job.deadline_ms > now_ + kTimeEpsMs) {
          continue;
        }
        job.missed = true;
        ++cluster.deadline_misses;
        ++cluster.task_stats[static_cast<size_t>(job.task_id)].deadline_misses;
        if (options_.record_trace) {
          cluster.trace.AddEvent(
              {now_, TraceEventKind::kDeadlineMiss, job.task_id, {}});
        }
        if (options_.miss_policy == MissPolicy::kAbortJob) {
          job.finished = true;
          job.completion_ms = now_;
          ++cluster.aborted;
          ++cluster.task_stats[static_cast<size_t>(job.task_id)].aborted;
        }
      }
      std::vector<int> released;
      ReleaseDueJobs(&cluster, &released);
      PruneFinished();

      // --- Policy callbacks fan out to every core in core order. ---
      PolicyContext ctx;
      BuildContext(accountants, &ctx);
      for (int task_id : completed) {
        for (size_t c = 0; c < m; ++c) {
          policies_[c]->OnTaskCompletion(task_id, ctx, *speeds[c]);
        }
      }
      for (int task_id : released) {
        for (size_t c = 0; c < m; ++c) {
          policies_[c]->OnTaskRelease(task_id, ctx, *speeds[c]);
        }
      }
      for (size_t c = 0; c < m; ++c) {
        if (wakeup[c].has_value() && *wakeup[c] <= now_ + kTimeEpsMs) {
          policies_[c]->OnWakeup(ctx, *speeds[c]);
        }
        wakeup[c] = policies_[c]->NextWakeupMs(ctx);
      }
    }

    for (const Job& job : jobs_) {
      if (!job.finished) {
        ++cluster.unfinished_at_horizon;
        ++cluster.task_stats[static_cast<size_t>(job.task_id)].unfinished;
      }
    }

    // Per-core slices: time/energy/residency/switch totals only; job-level
    // counters live on the cluster result.
    for (size_t c = 0; c < m; ++c) {
      SimResult& slice = out_->cores[c];
      const EngineTotals& totals = accountants[c].totals();
      slice.busy_ms = totals.busy_ms;
      slice.idle_ms = totals.idle_ms;
      slice.switching_ms = totals.switching_ms;
      slice.total_work_executed = totals.work;
      slice.exec_energy = totals.exec_energy;
      slice.idle_energy = totals.idle_energy;
      slice.speed_switches = speeds[c]->switch_count();
      slice.policy_counters =
          policies_[c]->counters().DiffSince(counters_at_start[c]);
      AccumulateSlice(slice, {}, &cluster);
    }
    // Cluster-level §3.2 bound: the per-core bound is convex in work, so an
    // even split of the executed work over M always-on cores lower-bounds
    // any division the scheduler actually produced.
    cluster.lower_bound_energy =
        num_cores_ *
        MinimumExecutionEnergy(
            cluster.total_work_executed / num_cores_, options_.horizon_ms,
            machine_, EnergyModel(0.0, options_.energy_coefficient));
  }

 private:
  void BuildContext(const std::vector<ModelEnergyAccountant>& accountants,
                    PolicyContext* ctx) {
    EngineTotals aggregate;
    for (const ModelEnergyAccountant& accountant : accountants) {
      aggregate.busy_ms += accountant.totals().busy_ms;
      aggregate.idle_ms += accountant.totals().idle_ms;
      aggregate.work += accountant.totals().work;
    }
    context_builder_.Build(
        now_, jobs_, aggregate,
        [this](int id) {
          const auto i = static_cast<size_t>(id);
          return ContextBuilder::TaskSnapshot{
              next_release_[i], cumulative_executed_[i], last_actual_work_[i]};
        },
        ctx);
  }

  void FinalizeCompletion(Job* job, SimResult* cluster) {
    job->finished = true;
    job->completion_ms = now_;
    TaskStats& stats = cluster->task_stats[static_cast<size_t>(job->task_id)];
    ++stats.completions;
    ++cluster->completions;
    const double response = now_ - job->release_ms;
    stats.total_response_ms += response;
    stats.max_response_ms = std::max(stats.max_response_ms, response);
    last_actual_work_[static_cast<size_t>(job->task_id)] = job->actual_work;
    if (options_.record_trace) {
      cluster->trace.AddEvent(
          {now_, TraceEventKind::kCompletion, job->task_id, {}});
    }
  }

  void ReleaseDueJobs(SimResult* cluster, std::vector<int>* released) {
    for (int id = 0; id < tasks_.size(); ++id) {
      const auto i = static_cast<size_t>(id);
      const Task& task = tasks_.task(id);
      while (next_release_[i] <= now_ + kTimeEpsMs) {
        const double fraction =
            exec_model_.DrawFraction(id, next_invocation_[i], rng_);
        RTDVS_CHECK_GT(fraction, 0.0);
        if (fraction > 1.0 + kWorkEps) {
          ++cluster->wcet_overruns;
        }
        Job job;
        job.task_id = id;
        job.invocation = next_invocation_[i];
        job.release_ms = next_release_[i];
        job.deadline_ms = next_release_[i] + task.period_ms;
        job.wcet_work = task.wcet_ms;
        job.actual_work = fraction * task.wcet_ms;
        jobs_.push_back(job);
        last_core_.push_back(-1);
        dispatched_.push_back(0);
        ++next_invocation_[i];
        next_release_[i] += task.period_ms;
        ++cluster->releases;
        ++cluster->task_stats[i].releases;
        if (options_.record_trace) {
          cluster->trace.AddEvent(
              {job.release_ms, TraceEventKind::kRelease, id, {}});
        }
        released->push_back(id);
      }
    }
  }

  void PruneFinished() {
    size_t kept = 0;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].finished) {
        continue;
      }
      jobs_[kept] = jobs_[i];
      last_core_[kept] = last_core_[i];
      dispatched_[kept] = dispatched_[i];
      ++kept;
    }
    jobs_.resize(kept);
    last_core_.resize(kept);
    dispatched_.resize(kept);
  }

  TaskSet tasks_;
  MachineSpec machine_;
  SimOptions options_;
  std::vector<DvsPolicy*> policies_;
  ExecTimeModel& exec_model_;
  int num_cores_;
  std::unique_ptr<Scheduler> scheduler_;
  Pcg32 rng_;
  MpSimResult* out_;

  ReadyQueue ready_;
  ContextBuilder context_builder_;
  std::vector<Job> jobs_;  // creation order; finished jobs pruned per event
  // Parallel to jobs_: the core each job last ran on (-1 = never dispatched)
  // and whether it was dispatched in the previous segment.
  std::vector<int> last_core_;
  std::vector<char> dispatched_;
  std::vector<double> next_release_;
  std::vector<int64_t> next_invocation_;
  std::vector<double> cumulative_executed_;
  std::vector<double> last_actual_work_;
  double now_ = 0;
};

JsonValue SliceToJson(const SimResult& slice) {
  JsonValue out = JsonValue::Object();
  out.Set("policy", slice.policy_name);
  out.Set("scheduler", SchedulerKindName(slice.scheduler));
  out.Set("exec_energy", slice.exec_energy);
  out.Set("idle_energy", slice.idle_energy);
  out.Set("total_energy", slice.total_energy());
  out.Set("busy_ms", slice.busy_ms);
  out.Set("idle_ms", slice.idle_ms);
  out.Set("switching_ms", slice.switching_ms);
  out.Set("total_work_executed", slice.total_work_executed);
  out.Set("releases", slice.releases);
  out.Set("completions", slice.completions);
  out.Set("deadline_misses", slice.deadline_misses);
  out.Set("aborted", slice.aborted);
  out.Set("unfinished_at_horizon", slice.unfinished_at_horizon);
  out.Set("speed_switches", slice.speed_switches);
  out.Set("preemptions", slice.preemptions);
  out.Set("lower_bound_energy", slice.lower_bound_energy);
  out.Set("counters", PolicyCountersToJson(slice.policy_counters));
  out.Set("fastpath", FastPathStatsToJson(slice.fastpath));
  JsonValue residency = JsonValue::Array();
  for (const PointResidency& res : slice.residency) {
    JsonValue entry = JsonValue::Object();
    entry.Set("frequency", res.point.frequency);
    entry.Set("voltage", res.point.voltage);
    entry.Set("exec_ms", res.exec_ms);
    entry.Set("idle_ms", res.idle_ms);
    entry.Set("exec_energy", res.exec_energy);
    entry.Set("idle_energy", res.idle_energy);
    residency.Append(std::move(entry));
  }
  out.Set("residency", std::move(residency));
  if (slice.audit.audited) {
    out.Set("audit_ok", slice.audit.ok());
  }
  return out;
}

}  // namespace

MpSimResult RunClusterSimulation(const SimRequest& request,
                                 const std::vector<DvsPolicy*>& policies,
                                 ExecTimeModel& exec_model) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK_GE(num_cores, 1);
  RTDVS_CHECK(static_cast<int>(policies.size()) == num_cores)
      << "need exactly one policy per core";
  RTDVS_CHECK(!request.tasks.empty()) << "cannot simulate an empty task set";

  if (request.options.profile) {
    // Single-core and partitioned paths enable via Simulator::Run; the
    // global engine drives the components directly, so enable here.
    Profiler::Enable();
  }

  MpSimResult out;
  out.mode = request.mode;
  out.num_cores = num_cores;
  out.cores.resize(static_cast<size_t>(num_cores));
  out.partition.core_of_task.assign(static_cast<size_t>(request.tasks.size()), -1);
  out.partition.core_utilization.assign(static_cast<size_t>(num_cores), 0.0);
  out.partition.core_task_count.assign(static_cast<size_t>(num_cores), 0);

  if (num_cores == 1) {
    // Either mode degenerates to single-processor scheduling at M = 1.
    RunSingleCore(request, policies.front(), exec_model, &out);
  } else if (request.mode == MpMode::kPartitioned) {
    RunPartitioned(request, policies, exec_model, &out);
  } else {
    GlobalClusterEngine(request, policies, exec_model, &out).Run();
  }

  if (out.admitted) {
    out.cluster.policy_name = ClusterPolicyName(policies);
    out.cluster.scheduler = policies.front()->scheduler_kind();
    out.cluster.horizon_ms = request.options.horizon_ms;
    // Fold cluster-level migration accounting into the mergeable counters so
    // sweep profile totals and rtdvs-sim --json report it alongside the
    // per-policy decision counters (always 0 in partitioned mode).
    out.cluster.policy_counters.migrations = out.migrations;
    if (request.options.audit) {
      out.cluster_audit = AuditMpResult(out, request.options);
      out.cluster.audit = out.cluster_audit;
    }
  }
  return out;
}

MpSimResult RunClusterSimulation(const SimRequest& request,
                                 ExecTimeModel& exec_model) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK(!request.policy_ids.empty());
  RTDVS_CHECK(request.policy_ids.size() == 1 ||
              static_cast<int>(request.policy_ids.size()) == num_cores)
      << "policy_ids must have one entry, or exactly one per core";
  // One instance per core, always: policy bookkeeping (utilization tables,
  // slack accounting, counters) must never be shared between cores.
  std::vector<std::unique_ptr<DvsPolicy>> owned;
  std::vector<DvsPolicy*> raw;
  for (int core = 0; core < num_cores; ++core) {
    const std::string& id =
        request.policy_ids.size() == 1
            ? request.policy_ids.front()
            : request.policy_ids[static_cast<size_t>(core)];
    owned.push_back(MakePolicy(id));
    raw.push_back(owned.back().get());
  }
  return RunClusterSimulation(request, raw, exec_model);
}

JsonValue MpSimResultToJson(const MpSimResult& result) {
  JsonValue doc = JsonValue::Object();
  doc.Set("version", "rtdvs-mpsim-v1");
  doc.Set("mode", MpModeName(result.mode));
  doc.Set("num_cores", result.num_cores);
  doc.Set("admitted", result.admitted);
  doc.Set("migrations", result.migrations);
  JsonValue partition = JsonValue::Object();
  partition.Set("feasible", result.partition.feasible);
  partition.Set("cores_used", result.partition.cores_used);
  if (!result.partition.error.empty()) {
    partition.Set("error", result.partition.error);
  }
  JsonValue assignment = JsonValue::Array();
  for (int core : result.partition.core_of_task) {
    assignment.Append(core);
  }
  partition.Set("core_of_task", std::move(assignment));
  JsonValue utilization = JsonValue::Array();
  for (double u : result.partition.core_utilization) {
    utilization.Append(u);
  }
  partition.Set("core_utilization", std::move(utilization));
  doc.Set("partition", std::move(partition));
  if (!result.admitted) {
    return doc;
  }
  doc.Set("cluster", SliceToJson(result.cluster));
  if (result.cluster_audit.audited) {
    doc.Set("cluster_audit_ok", result.cluster_audit.ok());
  }
  JsonValue cores = JsonValue::Array();
  for (const SimResult& slice : result.cores) {
    cores.Append(SliceToJson(slice));
  }
  doc.Set("cores", std::move(cores));
  return doc;
}

SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        DvsPolicy& policy, ExecTimeModel& exec_model,
                        const SimOptions& options) {
  SimRequest request;
  request.tasks = tasks;
  request.cluster.num_cores = 1;
  request.cluster.machine = machine;
  request.options = options;
  MpSimResult mp = RunClusterSimulation(request, {&policy}, exec_model);
  return std::move(mp.cores.front());
}

SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        const std::string& policy_id, ExecTimeModel& exec_model,
                        const SimOptions& options) {
  std::unique_ptr<DvsPolicy> policy = MakePolicy(policy_id);
  return RunSimulation(tasks, machine, *policy, exec_model, options);
}

}  // namespace rtdvs
