#include "src/sim/reference_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/lower_bound.h"
#include "src/util/check.h"
#include "src/util/time_eps.h"

namespace rtdvs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The reference's own job record. Mirrors the semantics of rt/job.h but is
// deliberately a separate type so the engine cannot accidentally share
// helper logic with production code.
struct RefJob {
  int task_id = -1;
  int64_t invocation = 0;
  double release_ms = 0;
  double deadline_ms = 0;
  double wcet_work = 0;
  double actual_work = 0;
  double executed_work = 0;
  bool finished = false;
  bool missed = false;
  int last_core = -1;  // core it last ran on; -1 = never dispatched
};

// Minimal SpeedController: tracks the current point, counts transitions, and
// records the end of the mandatory halt window.
class RefSpeed : public SpeedController {
 public:
  RefSpeed(const MachineSpec* machine, const double* now, double switch_time_ms,
           int64_t* switches)
      : machine_(machine),
        now_(now),
        switch_time_ms_(switch_time_ms),
        switches_(switches),
        point_(machine->max_point()) {}

  void SetOperatingPoint(const OperatingPoint& point) override {
    machine_->IndexOf(point);  // aborts if the policy invented a point
    if (point == point_) {
      return;
    }
    point_ = point;
    *switches_ += 1;
    if (switch_time_ms_ > 0) {
      blocked_until_ = std::max(blocked_until_, *now_ + switch_time_ms_);
    }
  }

  const OperatingPoint& current() const override { return point_; }
  double blocked_until() const { return blocked_until_; }

 private:
  const MachineSpec* machine_;
  const double* now_;
  double switch_time_ms_;
  int64_t* switches_;
  OperatingPoint point_;
  double blocked_until_ = 0;
};

// Field-wise slice-into-cluster summation (traces untouched; task stats
// mapped back through the core's global ids).
void RefAccumulate(const SimResult& slice, const std::vector<int>& global_ids,
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
  cluster->lower_bound_energy += slice.lower_bound_energy;
  for (size_t i = 0; i < slice.residency.size(); ++i) {
    cluster->residency[i].exec_ms += slice.residency[i].exec_ms;
    cluster->residency[i].idle_ms += slice.residency[i].idle_ms;
    cluster->residency[i].exec_energy += slice.residency[i].exec_energy;
    cluster->residency[i].idle_energy += slice.residency[i].idle_energy;
  }
  for (size_t local = 0; local < slice.task_stats.size(); ++local) {
    cluster->task_stats[static_cast<size_t>(global_ids[local])] =
        slice.task_stats[local];
  }
}

// The one reference engine: M >= 1 identical cores share one job list
// (global scheduling; M = 1 is the uniprocessor, and every partitioned core
// runs it with M = 1 over its own sub-set). The ranking, the core
// assignment, the policy context and the next-event time are recomputed
// from scratch at every event; each core integrates its own segment from
// first principles.
struct RefEngine {
  const TaskSet& tasks;
  const MachineSpec& machine;
  const std::vector<DvsPolicy*> policies;  // one per core
  ExecTimeModel& exec_model;
  const SimOptions& options;
  const ReferenceFaults& faults;
  const int num_cores;
  const bool edf;

  std::vector<double> next_release;
  std::vector<int64_t> next_invocation;
  std::vector<double> cumulative_executed;
  std::vector<double> last_actual_work;
  std::vector<RefJob> jobs;  // creation order; finished jobs pruned per event
  // Per core, a copy of the job it held in the previous segment (task_id -1
  // when it was idle).
  std::vector<RefJob> held_last;
  Pcg32 rng;
  double now = 0;
  // Per-event scratch: each buffer is cleared and refilled from scratch at
  // every use, so no value carries from one event to the next; keeping the
  // buffers only spares their allocations.
  struct Scratch {
    std::vector<int> order;      // PickTopJobs: unfinished jobs by priority
    std::vector<int> picked;     // PickTopJobs: the up-to-M jobs dispatched
    std::vector<int> core_job;   // AssignCores: job index per core, -1 idle
    std::vector<double> chosen_release;  // BuildContext
    PolicyContext ctx;                   // BuildContext
    std::vector<int> completed;  // ProcessCompletions: task ids
    std::vector<int> released;   // ProcessReleases: task ids
  } scratch;
  // Time, energy, residency, switches and policy counters go on each core's
  // slice (out.cores). Job outcomes (releases, completions, misses, task
  // stats, preemptions, overruns) and the lower bound go to *jobs_out: the
  // one slice at M = 1, the cluster result at M > 1.
  MpSimResult out;
  SimResult* jobs_out = nullptr;

  RefEngine(const TaskSet& tasks_in, const MachineSpec& machine_in,
            std::vector<DvsPolicy*> policies_in, ExecTimeModel& exec_model_in,
            const SimOptions& options_in, const ReferenceFaults& faults_in)
      : tasks(tasks_in),
        machine(machine_in),
        policies(std::move(policies_in)),
        exec_model(exec_model_in),
        options(options_in),
        faults(faults_in),
        num_cores(static_cast<int>(policies.size())),
        edf(policies.front()->scheduler_kind() == SchedulerKind::kEdf),
        rng(options_in.seed) {
    out.cores.resize(policies.size());
    jobs_out = num_cores == 1 ? &out.cores.front() : &out.cluster;
  }

  int num_tasks() const { return tasks.size(); }

  // --- Ready queue, recomputed from scratch: sort every unfinished job by
  // the scheduler's priority order, then take the up-to-M first jobs of
  // distinct tasks. EDF rank: (absolute deadline, task id, release). RM
  // rank: (period, task id, release). ---
  const std::vector<int>& PickTopJobs() {
    std::vector<int>& order = scratch.order;
    order.clear();
    for (int i = 0; i < static_cast<int>(jobs.size()); ++i) {
      if (!jobs[static_cast<size_t>(i)].finished) {
        order.push_back(i);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](int ia, int ib) {
      const RefJob& a = jobs[static_cast<size_t>(ia)];
      const RefJob& b = jobs[static_cast<size_t>(ib)];
      double ka = edf ? a.deadline_ms : tasks.task(a.task_id).period_ms;
      double kb = edf ? b.deadline_ms : tasks.task(b.task_id).period_ms;
      if (ka != kb) {
        return ka < kb;
      }
      if (a.task_id != b.task_id) {
        return a.task_id < b.task_id;
      }
      return a.release_ms < b.release_ms;
    });
    std::vector<int>& picked = scratch.picked;
    picked.clear();
    for (int index : order) {
      if (static_cast<int>(picked.size()) == num_cores) {
        break;
      }
      const int task_id = jobs[static_cast<size_t>(index)].task_id;
      if (std::none_of(picked.begin(), picked.end(), [&](int p) {
            return jobs[static_cast<size_t>(p)].task_id == task_id;
          })) {
        picked.push_back(index);
      }
    }
    return picked;
  }

  // Affinity assignment: keep a job on its previous core when free, then
  // fill free cores lowest-index-first in priority order. Off-core landings
  // count migrations.
  const std::vector<int>& AssignCores(const std::vector<int>& picked) {
    std::vector<int>& core_job = scratch.core_job;
    core_job.assign(static_cast<size_t>(num_cores), -1);
    for (int job_index : picked) {
      const int prev = jobs[static_cast<size_t>(job_index)].last_core;
      if (prev >= 0 && core_job[static_cast<size_t>(prev)] < 0) {
        core_job[static_cast<size_t>(prev)] = job_index;
      }
    }
    int scan = 0;
    for (int job_index : picked) {
      RefJob& job = jobs[static_cast<size_t>(job_index)];
      if (job.last_core >= 0 &&
          core_job[static_cast<size_t>(job.last_core)] == job_index) {
        continue;  // kept its core
      }
      while (core_job[static_cast<size_t>(scan)] >= 0) {
        ++scan;
      }
      core_job[static_cast<size_t>(scan)] = job_index;
      if (job.last_core >= 0) {
        out.migrations += 1;
      }
      job.last_core = scan;
    }
    return core_job;
  }

  // Preemption accounting (diagnostic parity with production): a job that
  // held a core in the previous segment, still unfinished, and holds none
  // now. A job is identified by (task id, invocation).
  void CountPreemptions(const std::vector<int>& core_job) {
    for (const RefJob& held : held_last) {
      auto is_held = [&](const RefJob& job) {
        return job.task_id == held.task_id && job.invocation == held.invocation;
      };
      if (held.task_id < 0 ||
          std::any_of(core_job.begin(), core_job.end(), [&](int j) {
            return j >= 0 && is_held(jobs[static_cast<size_t>(j)]);
          })) {
        continue;
      }
      if (std::any_of(jobs.begin(), jobs.end(), [&](const RefJob& job) {
            return is_held(job) && !job.finished;
          })) {
        jobs_out->preemptions += 1;
      }
    }
    for (size_t c = 0; c < held_last.size(); ++c) {
      held_last[c] =
          core_job[c] >= 0 ? jobs[static_cast<size_t>(core_job[c])] : RefJob{};
    }
  }

  // --- Policy context, recomputed from scratch at every call. ---
  const PolicyContext& BuildContext() {
    // Reset every field; only the views' storage survives.
    PolicyContext& ctx = scratch.ctx;
    std::vector<TaskRuntimeView> views = std::move(ctx.views);
    ctx = PolicyContext{};
    ctx.views = std::move(views);
    ctx.now_ms = now;
    ctx.tasks = &tasks;
    ctx.machine = &machine;
    for (const SimResult& slice : out.cores) {
      ctx.cumulative_busy_ms += slice.busy_ms;
      ctx.cumulative_idle_ms += slice.idle_ms;
      ctx.cumulative_work += slice.total_work_executed;
    }
    ctx.views.assign(static_cast<size_t>(num_tasks()), TaskRuntimeView{});
    for (int id = 0; id < num_tasks(); ++id) {
      auto& view = ctx.views[static_cast<size_t>(id)];
      view.has_active_job = false;
      view.next_deadline_ms = next_release[static_cast<size_t>(id)];
      view.executed_in_invocation = 0;
      view.worst_case_remaining = 0;
      view.cumulative_executed = cumulative_executed[static_cast<size_t>(id)];
      view.last_actual_work = last_actual_work[static_cast<size_t>(id)];
    }
    // The "current invocation" of a task is its earliest-released unfinished
    // job.
    std::vector<double>& chosen_release = scratch.chosen_release;
    chosen_release.assign(static_cast<size_t>(num_tasks()), kInf);
    for (const RefJob& job : jobs) {
      if (job.finished) {
        continue;
      }
      auto i = static_cast<size_t>(job.task_id);
      if (job.release_ms < chosen_release[i]) {
        chosen_release[i] = job.release_ms;
        ctx.views[i].has_active_job = true;
        ctx.views[i].next_deadline_ms = job.deadline_ms;
        ctx.views[i].executed_in_invocation = job.executed_work;
        ctx.views[i].worst_case_remaining =
            std::max(0.0, job.wcet_work - job.executed_work);
      }
    }
    return ctx;
  }

  // Earliest next event strictly within the contract's tolerance rules.
  double NextEventTime(const std::vector<int>& core_job,
                       const std::vector<RefSpeed>& speeds,
                       const std::vector<std::optional<double>>& wakeup) const {
    double t = options.horizon_ms;
    for (double r : next_release) {
      t = std::min(t, r);
    }
    for (const RefJob& job : jobs) {
      if (!job.finished && job.deadline_ms > now + kTimeEpsMs) {
        t = std::min(t, job.deadline_ms);
      }
    }
    for (int c = 0; c < num_cores; ++c) {
      const auto cc = static_cast<size_t>(c);
      if (wakeup[cc].has_value() && *wakeup[cc] > now + kTimeEpsMs) {
        t = std::min(t, *wakeup[cc]);
      }
      if (core_job[cc] >= 0) {
        const RefJob& job = jobs[static_cast<size_t>(core_job[cc])];
        double exec_start = std::max(now, speeds[cc].blocked_until());
        double remaining = job.actual_work - job.executed_work;
        t = std::min(t, exec_start + remaining / speeds[cc].current().frequency);
      }
    }
    return std::min(std::max(t, now), options.horizon_ms);
  }

  // Charge the wall-time segment [now, t_next) on core `c` to switching /
  // execution / idle, integrating energy from first principles.
  void IntegrateCore(int c, int job_index, const RefSpeed& speed, double t_next) {
    SimResult& slice = out.cores[static_cast<size_t>(c)];
    const OperatingPoint point = speed.current();
    const double volt_sq = point.voltage * point.voltage;
    auto& residency = slice.residency[machine.IndexOf(point)];
    if (job_index >= 0) {
      double exec_start = std::clamp(speed.blocked_until(), now, t_next);
      double switch_dt = exec_start - now;
      if (switch_dt > 0) {
        slice.switching_ms += switch_dt;
      }
      double exec_dt = t_next - exec_start;
      if (exec_dt > 0) {
        RefJob& job = jobs[static_cast<size_t>(job_index)];
        double work = exec_dt * point.frequency;
        work = std::min(work, job.actual_work - job.executed_work);
        job.executed_work += work;
        cumulative_executed[static_cast<size_t>(job.task_id)] += work;
        jobs_out->task_stats[static_cast<size_t>(job.task_id)].executed_work += work;
        slice.total_work_executed += work;
        slice.busy_ms += exec_dt;
        double joules = work * volt_sq * options.energy_coefficient;
        slice.exec_energy += joules;
        residency.exec_ms += exec_dt;
        residency.exec_energy += joules;
      }
    } else {
      double halt_end = std::clamp(speed.blocked_until(), now, t_next);
      if (faults.idle_path_switch_bug) {
        // Injected historical bug: the whole window is treated as idle at
        // the (new) point — the halt is never charged to switching_ms.
        halt_end = now;
      }
      double switch_dt = halt_end - now;
      if (switch_dt > 0) {
        slice.switching_ms += switch_dt;
      }
      double idle_dt = t_next - halt_end;
      if (idle_dt > 0) {
        slice.idle_ms += idle_dt;
        double joules = idle_dt * point.frequency * volt_sq *
                        options.idle_level * options.energy_coefficient;
        slice.idle_energy += joules;
        residency.idle_ms += idle_dt;
        residency.idle_energy += joules;
      }
    }
  }

  // Completions due at `now`; fills scratch.completed with the affected task
  // ids in job-creation order (the callback order of the contract).
  void ProcessCompletions() {
    std::vector<int>& completed = scratch.completed;
    completed.clear();
    for (RefJob& job : jobs) {
      if (!job.finished && job.actual_work - job.executed_work <= kWorkEps) {
        job.finished = true;
        auto& stats = jobs_out->task_stats[static_cast<size_t>(job.task_id)];
        stats.completions += 1;
        jobs_out->completions += 1;
        double response = now - job.release_ms;
        stats.total_response_ms += response;
        stats.max_response_ms = std::max(stats.max_response_ms, response);
        last_actual_work[static_cast<size_t>(job.task_id)] = job.actual_work;
        completed.push_back(job.task_id);
      }
    }
  }

  void ProcessMisses() {
    for (RefJob& job : jobs) {
      if (job.finished || job.missed || job.deadline_ms > now + kTimeEpsMs) {
        continue;
      }
      job.missed = true;
      auto& stats = jobs_out->task_stats[static_cast<size_t>(job.task_id)];
      jobs_out->deadline_misses += 1;
      stats.deadline_misses += 1;
      if (options.miss_policy == MissPolicy::kAbortJob) {
        job.finished = true;
        jobs_out->aborted += 1;
        stats.aborted += 1;
      }
    }
  }

  // Releases due at `now`, in task-id order, listed in scratch.released; one
  // execution-model draw per release (this order defines how the model
  // consumes randomness).
  void ProcessReleases() {
    std::vector<int>& released = scratch.released;
    released.clear();
    for (int id = 0; id < num_tasks(); ++id) {
      auto i = static_cast<size_t>(id);
      const Task& task = tasks.task(id);
      while (next_release[i] <= now + kTimeEpsMs) {
        double fraction = exec_model.DrawFraction(id, next_invocation[i], rng);
        RTDVS_CHECK_GT(fraction, 0.0);
        if (fraction > 1.0 + kWorkEps) {
          jobs_out->wcet_overruns += 1;
        }
        RefJob job;
        job.task_id = id;
        job.invocation = next_invocation[i];
        job.release_ms = next_release[i];
        job.deadline_ms = next_release[i] + task.period_ms;
        job.wcet_work = task.wcet_ms;
        job.actual_work = fraction * task.wcet_ms;
        jobs.push_back(job);
        next_invocation[i] += 1;
        next_release[i] += task.period_ms;
        jobs_out->releases += 1;
        jobs_out->task_stats[i].releases += 1;
        released.push_back(id);
      }
    }
  }

  MpSimResult Run() {
    const int n = num_tasks();
    const auto m = static_cast<size_t>(num_cores);
    next_release.assign(static_cast<size_t>(n), 0.0);
    next_invocation.assign(static_cast<size_t>(n), 0);
    cumulative_executed.assign(static_cast<size_t>(n), 0.0);
    last_actual_work.assign(static_cast<size_t>(n), 0.0);
    for (int id = 0; id < n; ++id) {
      next_release[static_cast<size_t>(id)] = tasks.task(id).phase_ms;
      last_actual_work[static_cast<size_t>(id)] = tasks.task(id).wcet_ms;
    }
    jobs_out->task_stats.assign(static_cast<size_t>(n), TaskStats{});
    if (num_cores > 1) {
      out.cluster.horizon_ms = options.horizon_ms;
      for (const OperatingPoint& point : machine.points()) {
        out.cluster.residency.push_back(PointResidency{point, 0, 0, 0, 0});
      }
    }

    std::vector<RefSpeed> speeds;
    std::vector<PolicyCounters> counters_at_start(m);
    for (size_t c = 0; c < m; ++c) {
      SimResult& slice = out.cores[c];
      slice.policy_name = policies[c]->name();
      slice.scheduler = policies[c]->scheduler_kind();
      slice.horizon_ms = options.horizon_ms;
      for (const OperatingPoint& point : machine.points()) {
        slice.residency.push_back(PointResidency{point, 0, 0, 0, 0});
      }
      speeds.emplace_back(&machine, &now, options.switch_time_ms,
                          &slice.speed_switches);
      counters_at_start[c] = policies[c]->counters();
    }

    held_last.assign(m, RefJob{});
    std::vector<std::optional<double>> wakeup(m);
    std::vector<char> was_idle(m, 0);
    {
      const PolicyContext& ctx = BuildContext();
      for (size_t c = 0; c < m; ++c) {
        policies[c]->OnStart(ctx, speeds[c]);
      }
    }
    {
      const PolicyContext& ctx = BuildContext();
      for (size_t c = 0; c < m; ++c) {
        wakeup[c] = policies[c]->NextWakeupMs(ctx);
      }
    }

    while (now < options.horizon_ms - kTimeEpsMs) {
      const std::vector<int>& core_job = AssignCores(PickTopJobs());
      CountPreemptions(core_job);
      const double t_next = NextEventTime(core_job, speeds, wakeup);

      // At M > 1, one OnIdle per idle period per core, only ahead of a
      // segment with real length (M = 1 fires it after the callbacks below).
      if (num_cores > 1 && t_next > now + kTimeEpsMs) {
        bool any = false;
        for (size_t c = 0; c < m; ++c) {
          if (core_job[c] < 0 && !was_idle[c]) {
            any = true;
          }
        }
        const PolicyContext* ctx = any ? &BuildContext() : nullptr;
        for (size_t c = 0; c < m; ++c) {
          if (core_job[c] >= 0) {
            was_idle[c] = 0;
          } else if (!was_idle[c]) {
            policies[c]->OnIdle(*ctx, speeds[c]);
            was_idle[c] = 1;
          }
        }
      }

      for (int c = 0; c < num_cores; ++c) {
        IntegrateCore(c, core_job[static_cast<size_t>(c)],
                      speeds[static_cast<size_t>(c)], t_next);
      }
      now = t_next;
      if (now >= options.horizon_ms - kTimeEpsMs) {
        break;
      }

      // State changes due at `now`: completions, then misses, then
      // releases (the miss_before_completion fault inverts the first two).
      if (faults.miss_before_completion_bug) {
        ProcessMisses();
        ProcessCompletions();
      } else {
        ProcessCompletions();
        ProcessMisses();
      }
      ProcessReleases();
      jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                [](const RefJob& job) { return job.finished; }),
                 jobs.end());

      // Policy callbacks after all state changes: completions first, then
      // releases, then any due timer wakeup, each on every core.
      const PolicyContext& ctx = BuildContext();
      for (int task_id : scratch.completed) {
        for (size_t c = 0; c < m; ++c) {
          policies[c]->OnTaskCompletion(task_id, ctx, speeds[c]);
        }
      }
      for (int task_id : scratch.released) {
        for (size_t c = 0; c < m; ++c) {
          policies[c]->OnTaskRelease(task_id, ctx, speeds[c]);
        }
      }
      for (size_t c = 0; c < m; ++c) {
        if (wakeup[c].has_value() && *wakeup[c] <= now + kTimeEpsMs) {
          policies[c]->OnWakeup(ctx, speeds[c]);
        }
        wakeup[c] = policies[c]->NextWakeupMs(ctx);
      }

      // At M = 1, OnIdle fires here, once per idle period: an idle stretch
      // before a phased first release keeps the OnStart speed.
      if (num_cores == 1) {
        if (jobs.empty() && !was_idle[0]) {
          policies[0]->OnIdle(ctx, speeds[0]);
        }
        was_idle[0] = jobs.empty() ? 1 : 0;
      }
    }

    for (const RefJob& job : jobs) {
      if (!job.finished) {
        jobs_out->unfinished_at_horizon += 1;
        jobs_out->task_stats[static_cast<size_t>(job.task_id)].unfinished += 1;
      }
    }
    for (size_t c = 0; c < m; ++c) {
      out.cores[c].policy_counters =
          policies[c]->counters().DiffSince(counters_at_start[c]);
      if (num_cores > 1) {
        RefAccumulate(out.cores[c], {}, &out.cluster);
      }
    }
    // The run's §3.2 bound: per-core bound at an even work split (convexity
    // makes the even split the cheapest division over identical cores).
    jobs_out->lower_bound_energy =
        num_cores * MinimumExecutionEnergy(
                        jobs_out->total_work_executed / num_cores,
                        options.horizon_ms, machine,
                        EnergyModel(0.0, options.energy_coefficient));
    return std::move(out);
  }
};

// ---------------------------------------------------------------------------
// Cluster driver. Everything below reimplements the cluster contract
// (src/engine/cluster.h admission tables, src/sim/mp_simulator.h driver
// semantics) from scratch around the engine above; only the shared value
// types (PartitionResult, MpSimResult, PolicyCounters) come from production
// headers.
// ---------------------------------------------------------------------------

// Liu-Layland bound, recomputed locally: n * (2^(1/n) - 1).
double RefRmBound(int n) {
  if (n <= 0) {
    return 1.0;
  }
  return n * (std::pow(2.0, 1.0 / n) - 1.0);
}

// Admission test for adding a task of utilization `u` to a core currently
// holding `count` tasks summing to `total_u` (same arithmetic order as
// production: current sum plus candidate, compared with +1e-9 slack).
bool RefCoreAdmits(SchedulerKind kind, double total_u, int count, double u) {
  const double bound =
      kind == SchedulerKind::kEdf ? 1.0 : RefRmBound(count + 1);
  return total_u + u <= bound + 1e-9;
}

// Bin-packing admission, reimplemented with a gather-then-select shape
// instead of production's per-heuristic scan loops.
PartitionResult RefPartitionTasks(const TaskSet& tasks, int num_cores,
                                  PartitionHeuristic heuristic,
                                  const std::vector<SchedulerKind>& kinds) {
  PartitionResult result;
  result.core_of_task.assign(static_cast<size_t>(tasks.size()), -1);
  result.core_utilization.assign(static_cast<size_t>(num_cores), 0.0);
  result.core_task_count.assign(static_cast<size_t>(num_cores), 0);
  int cursor = 0;  // next-fit scan start; never rewinds
  for (int id = 0; id < tasks.size(); ++id) {
    const double u = tasks.task(id).utilization();
    std::vector<int> admitting;
    const int first = heuristic == PartitionHeuristic::kNextFit ? cursor : 0;
    for (int c = first; c < num_cores; ++c) {
      const auto cc = static_cast<size_t>(c);
      // M = 1 has no admission test: production's single-core path runs
      // any set.
      if (num_cores == 1 || RefCoreAdmits(kinds[cc], result.core_utilization[cc],
                                          result.core_task_count[cc], u)) {
        admitting.push_back(c);
      }
    }
    int chosen = -1;
    if (!admitting.empty()) {
      switch (heuristic) {
        case PartitionHeuristic::kFirstFit:
        case PartitionHeuristic::kNextFit:
          chosen = admitting.front();
          break;
        case PartitionHeuristic::kBestFit:
        case PartitionHeuristic::kWorstFit: {
          chosen = admitting.front();
          for (int c : admitting) {
            const double cur = result.core_utilization[static_cast<size_t>(c)];
            const double best =
                result.core_utilization[static_cast<size_t>(chosen)];
            // Strict comparisons keep ties at the lowest admitting index.
            if (heuristic == PartitionHeuristic::kBestFit ? cur > best
                                                          : cur < best) {
              chosen = c;
            }
          }
          break;
        }
      }
    }
    if (chosen < 0) {
      result = PartitionResult{};
      result.core_of_task.assign(static_cast<size_t>(tasks.size()), -1);
      result.core_utilization.assign(static_cast<size_t>(num_cores), 0.0);
      result.core_task_count.assign(static_cast<size_t>(num_cores), 0);
      result.error = "reference: task " + std::to_string(id) + " fits nowhere";
      return result;
    }
    if (heuristic == PartitionHeuristic::kNextFit) {
      cursor = chosen;
    }
    result.core_of_task[static_cast<size_t>(id)] = chosen;
    result.core_utilization[static_cast<size_t>(chosen)] += u;
    result.core_task_count[static_cast<size_t>(chosen)] += 1;
  }
  result.feasible = true;
  for (int count : result.core_task_count) {
    if (count > 0) {
      result.cores_used += 1;
    }
  }
  return result;
}

// A core the partition left empty: powered down, whole horizon idle at the
// machine's minimum point, zero energy.
SimResult RefPoweredDownSlice(const MachineSpec& machine,
                              const SimOptions& options) {
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

// Local-to-global id translation for a partitioned core's sub-task-set;
// invocation indices pass through (a partitioned task runs on one core, so
// its local invocation sequence is its global one).
class RefScopedExecModel : public ExecTimeModel {
 public:
  RefScopedExecModel(ExecTimeModel* inner, const std::vector<int>* global_ids)
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

std::string RefClusterPolicyName(const std::vector<DvsPolicy*>& policies) {
  std::string name = policies.front()->name();
  for (const DvsPolicy* policy : policies) {
    if (policy->name() != name) {
      name += "+" + policy->name();
    }
  }
  return name;
}

}  // namespace

SimResult RunReferenceSimulation(const TaskSet& tasks, const MachineSpec& machine,
                                 DvsPolicy& policy, ExecTimeModel& exec_model,
                                 const SimOptions& options,
                                 const ReferenceFaults& faults) {
  RTDVS_CHECK(!tasks.empty()) << "cannot simulate an empty task set";
  RTDVS_CHECK_GT(options.horizon_ms, 0.0);
  RTDVS_CHECK_GE(options.switch_time_ms, 0.0);
  RTDVS_CHECK(options.aperiodic.kind == ServerKind::kNone)
      << "the reference simulator does not model aperiodic servers";
  MpSimResult run =
      RefEngine(tasks, machine, {&policy}, exec_model, options, faults).Run();
  return std::move(run.cores.front());
}

SimResult RunReferenceSimulation(const TaskSet& tasks, const MachineSpec& machine,
                                 const std::string& policy_id,
                                 ExecTimeModel& exec_model, const SimOptions& options,
                                 const ReferenceFaults& faults) {
  std::unique_ptr<DvsPolicy> policy = MakePolicy(policy_id);
  return RunReferenceSimulation(tasks, machine, *policy, exec_model, options, faults);
}

MpSimResult RunReferenceClusterSimulation(const SimRequest& request,
                                          ExecTimeModel& exec_model,
                                          const ReferenceFaults& faults) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK_GE(num_cores, 1);
  RTDVS_CHECK(!request.tasks.empty()) << "cannot simulate an empty task set";
  RTDVS_CHECK_GT(request.options.horizon_ms, 0.0);
  RTDVS_CHECK_GE(request.options.switch_time_ms, 0.0);
  RTDVS_CHECK(!request.policy_ids.empty());
  RTDVS_CHECK(request.policy_ids.size() == 1 ||
              static_cast<int>(request.policy_ids.size()) == num_cores);
  RTDVS_CHECK(num_cores == 1 || request.options.aperiodic.kind == ServerKind::kNone)
      << "aperiodic servers are supported only at num_cores == 1";
  std::vector<std::unique_ptr<DvsPolicy>> owned;
  std::vector<DvsPolicy*> policies;
  std::vector<SchedulerKind> kinds;
  for (int c = 0; c < num_cores; ++c) {
    const std::string& id = request.policy_ids.size() == 1
                                ? request.policy_ids.front()
                                : request.policy_ids[static_cast<size_t>(c)];
    owned.push_back(MakePolicy(id));
    policies.push_back(owned.back().get());
    kinds.push_back(owned.back()->scheduler_kind());
  }
  const int n = request.tasks.size();
  const auto m = static_cast<size_t>(num_cores);

  MpSimResult out;
  if (request.mode == MpMode::kGlobal && num_cores > 1) {
    for (SchedulerKind kind : kinds) {
      RTDVS_CHECK(kind == kinds.front())
          << "global mode needs one scheduler kind across all cores";
    }
    out = RefEngine(request.tasks, request.cluster.machine, policies, exec_model,
                    request.options, faults)
              .Run();
    out.admitted = true;
    out.partition.feasible = true;
    out.partition.cores_used = num_cores;
    out.partition.core_of_task.assign(static_cast<size_t>(n), -1);
    out.partition.core_utilization.assign(m, 0.0);
    out.partition.core_task_count.assign(m, 0);
    out.core_tasks.assign(m, request.tasks);
    out.core_global_ids.assign(m, {});
    for (std::vector<int>& ids : out.core_global_ids) {
      for (int id = 0; id < n; ++id) {
        ids.push_back(id);
      }
    }
  } else {
    // Partitioned mode, and M = 1 in either mode (the whole set on its one
    // core, mirroring production's routing): each core runs the engine
    // over its own sub-set with its own seed.
    out.partition =
        RefPartitionTasks(request.tasks, num_cores, request.partition, kinds);
    out.cores.resize(m);
    out.admitted = out.partition.feasible;
    if (out.admitted) {
      out.core_tasks.assign(m, TaskSet{});
      out.core_global_ids.assign(m, {});
      for (int id = 0; id < n; ++id) {
        const auto core =
            static_cast<size_t>(out.partition.core_of_task[static_cast<size_t>(id)]);
        out.core_tasks[core].AddTask(request.tasks.task(id));
        out.core_global_ids[core].push_back(id);
      }
      out.cluster.horizon_ms = request.options.horizon_ms;
      out.cluster.task_stats.assign(static_cast<size_t>(n), TaskStats{});
      for (const OperatingPoint& point : request.cluster.machine.points()) {
        out.cluster.residency.push_back(PointResidency{point, 0, 0, 0, 0});
      }
      for (size_t c = 0; c < m; ++c) {
        if (out.core_tasks[c].empty()) {
          out.cores[c] =
              RefPoweredDownSlice(request.cluster.machine, request.options);
        } else {
          SimOptions core_options = request.options;
          core_options.seed = request.options.seed ^ (0x9e3779b97f4a7c15ULL * c);
          RefScopedExecModel scoped(&exec_model, &out.core_global_ids[c]);
          out.cores[c] =
              RunReferenceSimulation(out.core_tasks[c], request.cluster.machine,
                                     *policies[c], scoped, core_options, faults);
        }
        RefAccumulate(out.cores[c], out.core_global_ids[c], &out.cluster);
      }
    }
  }
  out.mode = request.mode;
  out.num_cores = num_cores;
  if (out.admitted) {
    out.cluster.policy_name = RefClusterPolicyName(policies);
    out.cluster.scheduler = kinds.front();
    // The cluster contract reports migrations in the mergeable counters too.
    out.cluster.policy_counters.migrations = out.migrations;
  }
  return out;
}

}  // namespace rtdvs
