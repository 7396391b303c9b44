#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>

#include "src/cpu/lower_bound.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/profiler.h"
#include "src/util/strings.h"
#include "src/util/time_eps.h"

namespace rtdvs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Sorts a handful of job indices (one per core, the server job, the due
// tasks' latest jobs) and drops duplicates.
void SortIndices(std::vector<size_t>* indices) {
  std::vector<size_t>& v = *indices;
  for (size_t i = 1; i < v.size(); ++i) {
    for (size_t j = i; j > 0 && v[j] < v[j - 1]; --j) {
      std::swap(v[j], v[j - 1]);
    }
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

Simulator::Simulator(TaskSet tasks, MachineSpec machine, DvsPolicy* policy,
                     ExecTimeModel* exec_model, SimOptions options)
    : Simulator(std::move(tasks), std::move(machine),
                std::vector<DvsPolicy*>{policy}, exec_model, options) {}

Simulator::Simulator(TaskSet tasks, MachineSpec machine,
                     std::vector<DvsPolicy*> policies, ExecTimeModel* exec_model,
                     SimOptions options)
    : tasks_(std::move(tasks)),
      machine_(std::move(machine)),
      exec_model_(exec_model),
      options_(options),
      energy_(options.idle_level, options.energy_coefficient),
      rng_(options.seed) {
  RTDVS_CHECK(!policies.empty());
  for (DvsPolicy* policy : policies) {
    RTDVS_CHECK(policy != nullptr);
    RTDVS_CHECK(policy->scheduler_kind() == policies.front()->scheduler_kind())
        << "global mode needs one scheduler kind across all cores";
  }
  RTDVS_CHECK(exec_model_ != nullptr);
  RTDVS_CHECK_GT(options_.horizon_ms, 0.0);
  RTDVS_CHECK(!tasks_.empty()) << "cannot simulate an empty task set";
  RTDVS_CHECK_GE(options_.switch_time_ms, 0.0);
  kind_ = policies.front()->scheduler_kind();
  cores_.reserve(policies.size());
  for (DvsPolicy* policy : policies) {
    cores_.emplace_back(policy, energy_);
  }
  if (options_.aperiodic.kind != ServerKind::kNone) {
    RTDVS_CHECK(cores_.size() == 1)
        << "aperiodic servers are supported only at num_cores == 1";
    tasks_ = SimulatedTaskSet(std::move(tasks_), options_);
    server_task_id_ = tasks_.size() - 1;
    aperiodic_.emplace(options_.aperiodic, options_.seed ^ 0xa9e210d1cULL);
  }
}

Simulator::~Simulator() = default;

double Simulator::EffectiveRemaining(const Job& job) const {
  if (IsServerJob(job)) {
    return aperiodic_->ServableWork();
  }
  return job.RemainingActualWork();
}

void Simulator::FinishJob(size_t index, double now) {
  Job& job = jobs_[index];
  job.finished = true;
  job.completion_ms = now;
  dirty_.Mark(job.task_id);
  ready_.Forget(job);
  size_t& latest = latest_job_[static_cast<size_t>(job.task_id)];
  if (latest == index) {
    latest = Scheduler::kNone;
  }
  if (server_job_ == index) {
    server_job_ = Scheduler::kNone;
  }
  any_finished_ = true;
  pick_valid_ = false;
}

void Simulator::FinalizeJobCompletion(size_t index, double now) {
  FinishJob(index, now);
  Job* job = &jobs_[index];
  if (IsServerJob(*job)) {
    // What the server actually consumed is what DVS bookkeeping (cc_i in
    // ccEDF) may reclaim until the next replenishment.
    job->actual_work = job->executed_work;
  }
  auto& stats = result_.task_stats[static_cast<size_t>(job->task_id)];
  ++stats.completions;
  ++result_.completions;
  double response = now - job->release_ms;
  stats.total_response_ms += response;
  stats.max_response_ms = std::max(stats.max_response_ms, response);
  task_states_[static_cast<size_t>(job->task_id)].last_actual_work = job->actual_work;
  if (options_.record_trace) {
    result_.trace.AddEvent({now, TraceEventKind::kCompletion, job->task_id, {}});
  }
}

inline bool Simulator::MaybeCompleteServerJob(size_t index, double now) {
  if (jobs_[index].finished) {
    return false;
  }
  // A server job retires when its queue drains. A polling server then
  // forfeits what is left of its budget, and it also retires when the budget
  // runs out; a CBS keeps its budget for the wake rule and recharges on
  // exhaustion instead (the CBS rules in RunLoop).
  const bool polling = options_.aperiodic.kind == ServerKind::kPolling;
  const bool done = aperiodic_->QueueEmpty() ||
                    (polling && aperiodic_->budget_remaining() <= kWorkEps);
  if (!done) {
    return false;
  }
  if (polling) {
    aperiodic_->ForfeitBudget();
  }
  FinalizeJobCompletion(index, now);
  return true;
}

void Simulator::AddJob(const Job& job) {
  const size_t index = jobs_.size();
  jobs_.push_back(job);
  latest_job_[static_cast<size_t>(job.task_id)] = index;
  if (IsServerJob(job)) {
    RTDVS_CHECK(server_job_ == Scheduler::kNone) << "two live server jobs";
    server_job_ = index;
  }
  zero_work_pending_ = zero_work_pending_ || job.actual_work <= kWorkEps;
}

void Simulator::AddCbsJob(double deadline) {
  Job job;
  job.task_id = server_task_id_;
  job.invocation = task_states_[static_cast<size_t>(server_task_id_)].next_invocation++;
  job.release_ms = now_;
  job.deadline_ms = deadline;
  job.wcet_work = options_.aperiodic.budget_ms;
  job.actual_work = options_.aperiodic.budget_ms;
  AddJob(job);
  dirty_.Mark(server_task_id_);
  ++result_.releases;
  ++result_.task_stats[static_cast<size_t>(server_task_id_)].releases;
  if (options_.record_trace) {
    result_.trace.AddEvent({now_, TraceEventKind::kRelease, server_task_id_, {}});
  }
  released_.push_back(server_task_id_);
}

void Simulator::ReleaseDueJobs(double now, std::vector<int>* released) {
  for (int id : due_releases_) {
    auto& state = task_states_[static_cast<size_t>(id)];
    const Task& task = tasks_.task(id);
    while (state.next_release_ms <= now + kTimeEpsMs) {
      double fraction = 1.0;
      if (id != server_task_id_) {
        // Constant models skip the virtual draw: DrawFraction would return
        // exactly this value and consume no randomness.
        fraction = const_fraction_.has_value()
                       ? *const_fraction_
                       : exec_model_->DrawFraction(id, state.next_invocation, rng_);
      } else {
        aperiodic_->Replenish();
      }
      RTDVS_CHECK_GT(fraction, 0.0);
      if (fraction > 1.0 + kWorkEps) {
        // Overrun-permitting models (ColdStartModel) void the guarantee;
        // the audit's RT oracle keys off this counter.
        ++result_.wcet_overruns;
      }
      Job job;
      job.task_id = id;
      job.invocation = state.next_invocation;
      job.release_ms = state.next_release_ms;
      job.deadline_ms = state.next_release_ms + task.period_ms;
      job.wcet_work = task.wcet_ms;
      job.actual_work = fraction * task.wcet_ms;
      AddJob(job);
      ++state.next_invocation;
      state.next_release_ms += task.period_ms;
      ++result_.releases;
      ++result_.task_stats[static_cast<size_t>(id)].releases;
      if (options_.record_trace) {
        result_.trace.AddEvent({job.release_ms, TraceEventKind::kRelease, id, {}});
      }
      released->push_back(id);
    }
    dirty_.Mark(id);
  }
  // Re-key the due entries. Keys only grew, so sifting each one down,
  // deepest first (due_entries_ is in ascending order), finds every
  // subtree already in heap order.
  for (auto pos = due_entries_.rbegin(); pos != due_entries_.rend(); ++pos) {
    auto& entry = calendar_[*pos];
    entry.first = task_states_[static_cast<size_t>(entry.second)].next_release_ms;
    SiftCalendarDown(*pos);
  }
}

inline void Simulator::SiftCalendarDown(size_t pos) {
  const std::pair<double, int> entry = calendar_[pos];
  const size_t size = calendar_.size() - 1;  // the last entry is the sentinel
  for (size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    // Branch-free choice of the earlier child (the sentinel stands in for a
    // missing right child).
    child += calendar_[child + 1].first < calendar_[child].first ? 1 : 0;
    if (!(calendar_[child].first < entry.first)) {
      break;
    }
    calendar_[pos] = calendar_[child];
    pos = child;
  }
  calendar_[pos] = entry;
}

double Simulator::NextPeriodicReleaseMs() const {
  return calendar_.front().first;
}

void Simulator::CollectDueReleases() {
  due_releases_.clear();
  due_entries_.clear();
  // In heap order the due entries form a subtree at the root; walk it
  // breadth first, which leaves due_entries_ in ascending order.
  const double due_by = now_ + kTimeEpsMs;
  if (calendar_.front().first <= due_by) {
    due_entries_.push_back(0);
  }
  const size_t size = calendar_.size() - 1;
  for (size_t i = 0; i < due_entries_.size(); ++i) {
    const size_t pos = due_entries_[i];
    due_releases_.push_back(calendar_[pos].second);
    const size_t left = 2 * pos + 1;
    if (left < size) {
      // The right child exists or is the sentinel, which is never due.
      if (calendar_[left].first <= due_by) {
        due_entries_.push_back(left);
      }
      if (calendar_[left + 1].first <= due_by) {
        due_entries_.push_back(left + 1);
      }
    }
  }
  if (due_releases_.size() > 1) {
    std::sort(due_releases_.begin(), due_releases_.end());
  }
}

template <bool kGlobal>
void Simulator::BuildContext() {
  ++result_.fastpath.context_builds;
  const EngineTotals* totals = &cores_.front().accountant.totals();
  EngineTotals sum;
  if constexpr (kGlobal) {
    for (const Core& core : cores_) {
      sum.busy_ms += core.accountant.totals().busy_ms;
      sum.idle_ms += core.accountant.totals().idle_ms;
      sum.work += core.accountant.totals().work;
    }
    totals = &sum;
  }
  context_builder_.Build(
      now_, jobs_, *totals,
      [this](int id) {
        const TaskState& state = task_states_[static_cast<size_t>(id)];
        return ContextBuilder::TaskSnapshot{state.next_release_ms,
                                            state.cumulative_executed,
                                            state.last_actual_work};
      },
      &ctx_, &dirty_);
  dirty_.Clear();
}

void Simulator::FillCoreTotals(const Core& core, SimResult* out) const {
  const EngineTotals& totals = core.accountant.totals();
  out->busy_ms = totals.busy_ms;
  out->idle_ms = totals.idle_ms;
  out->switching_ms = totals.switching_ms;
  out->total_work_executed = totals.work;
  out->exec_energy = totals.exec_energy;
  out->idle_energy = totals.idle_energy;
  out->speed_switches = core.speed->switch_count();
  // Counters accumulate over the policy's lifetime and the policy object may
  // be reused across runs; report the per-run delta.
  out->policy_counters = core.policy->counters().DiffSince(core.counters_at_start);
}

SimResult Simulator::Run() {
  RTDVS_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;
  if (options_.profile) {
    Profiler::Enable();
  }
  const bool global = cores_.size() > 1;

  const size_t n = static_cast<size_t>(tasks_.size());
  task_states_.assign(n, TaskState{});
  result_.task_stats.assign(n, TaskStats{});
  for (size_t id = 0; id < n; ++id) {
    task_states_[id].next_release_ms = tasks_.task(static_cast<int>(id)).phase_ms;
    task_states_[id].last_actual_work = tasks_.task(static_cast<int>(id)).wcet_ms;
  }
  if (options_.aperiodic.kind == ServerKind::kCbs) {
    // A CBS has no periodic releases; its activations are created by the
    // wake/postpone rules in the event loop.
    task_states_[static_cast<size_t>(server_task_id_)].next_release_ms = kInf;
  }
  result_.policy_name = cores_.front().policy->name();
  result_.scheduler = kind_;
  result_.horizon_ms = options_.horizon_ms;
  result_.residency.clear();
  for (const auto& point : machine_.points()) {
    result_.residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
  result_.trace.set_capacity_limit(options_.max_trace_segments);

  // Wire the engine components for this run.
  now_ = 0;
  for (Core& core : cores_) {
    SimResult* target = &result_;
    if (global) {
      target = &core.slice;
      target->policy_name = core.policy->name();
      target->scheduler = kind_;
      target->horizon_ms = options_.horizon_ms;
      target->residency = result_.residency;
      target->trace.set_capacity_limit(options_.max_trace_segments);
    }
    Trace* trace = options_.record_trace ? &target->trace : nullptr;
    core.accountant.Reset();
    core.accountant.BindResidency(&machine_, &target->residency);
    core.accountant.set_trace(trace);
    core.speed.emplace(&machine_, options_.switch_time_ms, &now_, trace);
    core.timer_driven = core.policy->timer_driven();
    any_timer_driven_ = any_timer_driven_ || core.timer_driven;
    const bool observes = core.policy->observes_events();
    RTDVS_CHECK(observes || !core.timer_driven);  // DvsPolicy's contract
    any_observer_ = any_observer_ || observes;
    core.counters_at_start = core.policy->counters();
  }
  if (global) {
    FormReplicaGroups();
  }
  context_builder_.Bind(&tasks_, &machine_);
  dirty_.Reset(static_cast<int>(n));
  ready_.ResetTracking();
  const size_t jobs_reserve = std::max<size_t>(16, 2 * n);
  if (options_.job_pool != nullptr) {
    jobs_ = options_.job_pool->Acquire(jobs_reserve);
  } else {
    jobs_.clear();
    jobs_.reserve(jobs_reserve);
  }
  latest_job_.assign(n, Scheduler::kNone);
  server_job_ = Scheduler::kNone;
  zero_work_pending_ = false;
  any_finished_ = false;
  pick_valid_ = false;
  calendar_.clear();
  for (size_t id = 0; id < n; ++id) {
    if (task_states_[id].next_release_ms != kInf) {
      calendar_.emplace_back(task_states_[id].next_release_ms, static_cast<int>(id));
    }
  }
  calendar_.emplace_back(kInf, -1);  // sentinel
  for (size_t pos = calendar_.size() / 2; pos-- > 0;) {
    SiftCalendarDown(pos);
  }
  periods_.resize(n);
  for (size_t id = 0; id < n; ++id) {
    periods_[id] = tasks_.task(static_cast<int>(id)).period_ms;
  }
  const_fraction_ = exec_model_->constant_fraction();
  if (options_.record_trace) {
    result_.trace.Reserve(
        std::min<size_t>(options_.max_trace_segments, 1024), 1024);
  }

  if (aperiodic_.has_value()) {
    RunLoopFor<true, false>(kind_);
  } else if (global) {
    RunLoopFor<false, true>(kind_);
  } else {
    RunLoopFor<false, false>(kind_);
  }

  if (global) {
    for (Core& core : cores_) {
      if (core.leads) {
        core.policy->set_effect_log(nullptr);
      }
      FillCoreTotals(core, &core.slice);
    }
  } else {
    FillCoreTotals(cores_.front(), &result_);
    RTDVS_PROF_SCOPE("sweep/bound");
    result_.lower_bound_energy = MinimumExecutionEnergy(
        result_.total_work_executed, options_.horizon_ms, machine_,
        EnergyModel(0.0, options_.energy_coefficient));
  }
  result_.server_task_id = server_task_id_;
  for (const auto& job : jobs_) {
    if (!job.finished) {
      ++result_.unfinished_at_horizon;
      ++result_.task_stats[static_cast<size_t>(job.task_id)].unfinished;
    }
  }
  if (aperiodic_.has_value()) {
    aperiodic_->FinalizeStats();
    result_.aperiodic = aperiodic_->stats();
  }
  if (options_.audit && !global) {
    RTDVS_PROF_SCOPE("sweep/audit");
    AuditInputs inputs;
    inputs.tasks = &tasks_;
    inputs.machine = &machine_;
    inputs.options = &options_;
    inputs.policy_guarantees_deadlines = cores_.front().policy->guarantees_deadlines();
    result_.audit = AuditSimResult(result_, inputs);
  }
  if (options_.job_pool != nullptr) {
    options_.job_pool->Release(std::move(jobs_));
    jobs_ = std::vector<Job>();
  }
  // Bank this run's spans while still on the thread that recorded them
  // (sweep worker threads are retired with the pool).
  Profiler::FlushThisThread();
  return result_;
}

std::vector<SimResult> Simulator::TakeCoreSlices() {
  std::vector<SimResult> slices;
  slices.reserve(cores_.size());
  for (Core& core : cores_) {
    slices.push_back(std::move(core.slice));
  }
  return slices;
}

template <bool kServer, bool kGlobal>
void Simulator::RunLoopFor(SchedulerKind kind) {
  if (kind == SchedulerKind::kEdf) {
    RunLoop<kServer, kGlobal, SchedulerKind::kEdf>();
  } else {
    RunLoop<kServer, kGlobal, SchedulerKind::kRm>();
  }
}

template <SchedulerKind kKind>
void Simulator::DispatchGlobal() {
  // PickTopK's scan plus the preemption pass below.
  result_.fastpath.jobs_visited += 2 * static_cast<int64_t>(jobs_.size());
  const std::vector<size_t>& picked = ready_.PickTopK(
      jobs_, cores_.size(),
      [this](const Job& a, const Job& b) { return HigherPriority<kKind>(a, b); });
  for (Core& core : cores_) {
    core.job = Scheduler::kNone;
  }
  // Pass 1: a job keeps its previous core when that core is free.
  for (size_t index : picked) {
    const int prev = jobs_[index].last_core;
    if (prev >= 0 && cores_[static_cast<size_t>(prev)].job == Scheduler::kNone) {
      cores_[static_cast<size_t>(prev)].job = index;
    }
  }
  // Pass 2: the rest fill free cores lowest-index-first in priority order.
  size_t next_free = 0;
  for (size_t index : picked) {
    Job& job = jobs_[index];
    if (job.last_core >= 0 && cores_[static_cast<size_t>(job.last_core)].job == index) {
      continue;  // kept its core in pass 1
    }
    while (cores_[next_free].job != Scheduler::kNone) {
      ++next_free;
    }
    cores_[next_free].job = index;
    if (job.last_core >= 0 && job.last_core != static_cast<int>(next_free)) {
      ++migrations_;
    }
    job.last_core = static_cast<int>(next_free);
  }
  // Preemptions: a job that held a core in the last segment, is unfinished,
  // and holds none now.
  for (const Core& core : cores_) {
    if (core.job != Scheduler::kNone) {
      jobs_[core.job].dispatched = false;
    }
  }
  for (Job& job : jobs_) {
    if (job.dispatched && !job.finished) {
      ++result_.preemptions;
    }
    job.dispatched = false;
  }
  for (const Core& core : cores_) {
    if (core.job != Scheduler::kNone) {
      jobs_[core.job].dispatched = true;
    }
  }
}

void Simulator::FormReplicaGroups() {
  // One instance on two cores never groups with itself: as its own follower
  // it would append to the log it is applying.
  for (size_t c = 1; c < cores_.size(); ++c) {
    Core& core = cores_[c];
    if (core.timer_driven) {
      continue;
    }
    for (size_t l = 0; l < c; ++l) {
      Core& leader = cores_[l];
      if (leader.mirror == nullptr && !leader.timer_driven &&
          leader.policy != core.policy && core.policy->IsReplicaOf(*leader.policy)) {
        if (!leader.leads) {
          // The host owns a leader's log; binding it would silently drop a
          // log a caller bound.
          RTDVS_CHECK(leader.policy->effect_log() == nullptr)
              << "core " << l << " leads a replica group but its policy already has an effect log";
          leader.leads = true;
          leader.policy->set_effect_log(&leader.effects);
        }
        core.mirror = &leader.effects;
        break;
      }
    }
  }
}

template <bool kGlobal, typename Callback>
inline void Simulator::DeliverEvent(Callback&& callback) {
  for (Core& core : Cores<kGlobal>()) {
    if constexpr (kGlobal) {
      if (core.mirror != nullptr) {
        core.policy->ApplyEffects(*core.mirror, *core.speed);
        continue;
      }
      // A leader's log also holds what its OnStart and OnIdle did.
      core.effects.clear();
    }
    callback(core);
    ++result_.fastpath.event_callbacks;
  }
}

void Simulator::NotifyIdleCores() {
  bool ctx_built = false;
  for (Core& core : cores_) {
    if (core.job != Scheduler::kNone) {
      core.was_idle = false;
    } else if (!core.was_idle) {
      if (any_observer_) {
        if (!ctx_built) {
          BuildContext<true>();
          ctx_built = true;
        }
        core.policy->OnIdle(ctx_, *core.speed);
      }
      core.was_idle = true;
    }
  }
}

// Inline: it runs once per busy core per step, and the loop must not pay a
// call for it at M = 1.
inline double Simulator::CompletionMs(const Core& core) const {
  // Completion and switch-halt-end depend on the current speed, so they are
  // derived analytically each step.
  const double exec_start = std::max(now_, core.speed->blocked_until_ms());
  return exec_start +
         EffectiveRemaining(jobs_[core.job]) / core.speed->current().frequency;
}

// The per-step helpers below are `inline` so that the loop does not pay a
// call for each of them on every step.
template <bool kGlobal, SchedulerKind kKind>
inline void Simulator::CompactJobs() {
  result_.fastpath.jobs_visited += static_cast<int64_t>(jobs_.size());
  size_t kept = 0;
  size_t best = Scheduler::kNone;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].finished) {
      continue;
    }
    if (kept != i) {
      jobs_[kept] = jobs_[i];
      size_t& latest = latest_job_[static_cast<size_t>(jobs_[kept].task_id)];
      if (latest == i) {
        latest = kept;
      }
      if (server_job_ == i) {
        server_job_ = kept;
      }
    }
    if constexpr (!kGlobal) {
      if (best == Scheduler::kNone || HigherPriority<kKind>(jobs_[kept], jobs_[best])) {
        best = kept;
      }
    }
    ++kept;
  }
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(kept), jobs_.end());
  any_finished_ = false;
  // The pass visited every remaining job, so it also yields the next pick.
  last_pick_ = best;
  pick_seen_ = kept;
  pick_valid_ = true;
}

template <bool kServer>
inline bool Simulator::ServerDeadlineDue() const {
  return kServer && server_job_ != Scheduler::kNone &&
         jobs_[server_job_].deadline_ms <= now_ + kTimeEpsMs;
}

template <bool kServer>
inline void Simulator::CompleteIfDone(size_t index) {
  if (index == Scheduler::kNone || jobs_[index].finished) {
    return;
  }
  ++result_.fastpath.jobs_visited;
  const Job& job = jobs_[index];
  const int task_id = job.task_id;
  if (kServer && IsServerJob(job)) {
    if (MaybeCompleteServerJob(index, now_)) {
      completed_.push_back(task_id);
    }
  } else if (job.RemainingActualWork() <= kWorkEps) {
    FinalizeJobCompletion(index, now_);
    completed_.push_back(task_id);
  }
}

template <bool kServer, bool kGlobal>
inline void Simulator::CompleteFinishedJobs() {
  // Only a job that executed in this step can have run out of work. A job
  // released without work is the exception: it completes at the next
  // scheduling point without ever being dispatched, so after such a release
  // every job is checked. The server job follows its own rules
  // (MaybeCompleteServerJob) at every step. Completions are processed in
  // creation order, which is the order of jobs_.
  if (zero_work_pending_) {
    zero_work_pending_ = false;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      CompleteIfDone<kServer>(i);
    }
  } else if constexpr (kGlobal) {
    // Sort only the jobs that did run out of work: rarely more than one.
    checks_.clear();
    for (const Core& core : cores_) {
      if (core.job != Scheduler::kNone &&
          jobs_[core.job].RemainingActualWork() <= kWorkEps) {
        checks_.push_back(core.job);
      }
    }
    SortIndices(&checks_);
    for (size_t index : checks_) {
      CompleteIfDone<kServer>(index);
    }
  } else {
    // Branch-free creation order of the running and the server job (kNone
    // is the largest index, so a missing job sorts last).
    const size_t running = cores_.front().job;
    const size_t server =
        kServer && server_job_ != running ? server_job_ : Scheduler::kNone;
    const size_t order[2] = {std::min(running, server), std::max(running, server)};
    for (size_t index : order) {
      CompleteIfDone<kServer>(index);
    }
  }
}

template <bool kServer>
inline void Simulator::CheckDeadlines() {
  // A periodic job's deadline is the same double as its task's next
  // release, so only the latest job of a task due now can newly miss (its
  // older jobs met their deadlines or already missed them). The server job
  // carries its own deadline (CBS deadlines track no release).
  checks_.clear();
  for (int id : due_releases_) {
    const size_t index = latest_job_[static_cast<size_t>(id)];
    if (index != Scheduler::kNone) {
      checks_.push_back(index);
    }
  }
  if (ServerDeadlineDue<kServer>()) {
    checks_.push_back(server_job_);
  }
  // Misses are processed in creation order (the order of their trace
  // events), which is the order of jobs_.
  SortIndices(&checks_);
  result_.fastpath.jobs_visited += static_cast<int64_t>(checks_.size());
  for (size_t index : checks_) {
    Job& job = jobs_[index];
    if (job.finished || job.deadline_ms > now_ + kTimeEpsMs) {
      continue;
    }
    if (kServer && IsServerJob(job)) {
      // A server has no deadline obligation of its own: at the end of its
      // period the old budget expires and the job simply retires.
      FinalizeJobCompletion(index, now_);
      completed_.push_back(server_task_id_);
      continue;
    }
    if (!job.missed) {
      job.missed = true;
      ++result_.deadline_misses;
      ++result_.task_stats[static_cast<size_t>(job.task_id)].deadline_misses;
      if (options_.record_trace) {
        result_.trace.AddEvent({now_, TraceEventKind::kDeadlineMiss, job.task_id, {}});
      }
      if (options_.miss_policy == MissPolicy::kAbortJob) {
        // Aborted jobs do not count as completions and record no response.
        FinishJob(index, now_);
        ++result_.aborted;
        ++result_.task_stats[static_cast<size_t>(job.task_id)].aborted;
      }
    }
  }
}

template <bool kServer, bool kGlobal, SchedulerKind kKind>
void Simulator::RunLoop() {
  static_assert(!(kServer && kGlobal), "aperiodic servers run on one core");
  const double horizon = options_.horizon_ms;
  Core& single = cores_.front();
  bool was_idle = false;

  BuildContext<kGlobal>();
  for (Core& core : Cores<kGlobal>()) {
    core.policy->OnStart(ctx_, *core.speed);
  }
  for (Core& core : Cores<kGlobal>()) {
    if (core.timer_driven) {
      core.pending_wakeup = core.policy->NextWakeupMs(ctx_);
    }
  }

  while (now_ < horizon - kTimeEpsMs) {
    RTDVS_PROF_SCOPE("sim/step");
    ++result_.fastpath.steps;

    // --- Find the next event: the earliest of the horizon, the next
    // periodic release (the calendar's head), the pending policy wakeups,
    // the running jobs' completions and, with a server, the next aperiodic
    // arrival and the live server job's deadline. Times within kTimeEpsMs
    // of now are due now, not scheduling points. A periodic job's deadline
    // needs no term of its own: it is the same double as its task's next
    // release. ---
    const double next_release = NextPeriodicReleaseMs();
    double t_next = std::min(horizon, next_release);
    if constexpr (kServer) {
      // Past the first step every arrival due at now_ has been admitted;
      // one due at t = 0 makes the first step a scheduling point.
      t_next = std::min(t_next, aperiodic_->NextArrivalMs());
    }
    // Idle skip: with no job there is nothing to pick, and the interval up
    // to t_next integrates as one idle segment. Skipping the pick leaves
    // preemption tracking untouched, exactly like a pick over no jobs.
    const bool idle_skip = jobs_.empty();
    if (idle_skip) {
      ++result_.fastpath.idle_skips;
      for (Core& core : Cores<kGlobal>()) {
        core.job = Scheduler::kNone;
      }
    } else {
      if constexpr (kServer) {
        if (server_job_ != Scheduler::kNone) {
          // A live server job always has work it may serve: the server
          // rules retire or recharge it the moment its queue or budget runs
          // out. CBS wake and postpone set deadlines that track no release,
          // so the server deadline is a scheduling point.
          const Job& server = jobs_[server_job_];
          RTDVS_CHECK_GT(EffectiveRemaining(server), kWorkEps);
          if (server.deadline_ms > now_ + kTimeEpsMs) {
            t_next = std::min(t_next, server.deadline_ms);
          }
        }
      }
      if constexpr (kGlobal) {
        DispatchGlobal<kKind>();
      } else {
        // While jobs were only released since the last pick (or the last
        // compaction, which computes one), the pick is the better of that
        // pick and the new jobs; otherwise all jobs.
        if (!pick_valid_) {
          last_pick_ = Scheduler::kNone;
          pick_seen_ = 0;
        }
        result_.fastpath.jobs_visited += static_cast<int64_t>(jobs_.size() - pick_seen_);
        single.job = ready_.PickTrackedSince(
            jobs_, last_pick_, pick_seen_,
            [this](const Job& a, const Job& b) { return HigherPriority<kKind>(a, b); },
            &result_.preemptions);
        last_pick_ = single.job;
        pick_seen_ = jobs_.size();
        pick_valid_ = true;
      }
    }
    for (const Core& core : Cores<kGlobal>()) {
      if (core.pending_wakeup.has_value() && *core.pending_wakeup > now_ + kTimeEpsMs) {
        t_next = std::min(t_next, *core.pending_wakeup);
      }
      if (core.job != Scheduler::kNone) {
        t_next = std::min(t_next, CompletionMs(core));
      }
    }
    RTDVS_CHECK_GT(t_next, now_ - kTimeEpsMs)
        << "event horizon moved backwards at t=" << now_;
    t_next = std::max(t_next, now_);
    t_next = std::min(t_next, horizon);

    // --- Integrate the segment [now_, t_next) on every core. At M > 1 an
    // idle core's OnIdle comes first, once per idle period and only ahead
    // of a segment of real length (a zero-length step between releases due
    // at now is not an idle period). ---
    if constexpr (kGlobal) {
      if (t_next > now_ + kTimeEpsMs) {
        NotifyIdleCores();
      }
    }
    for (Core& core : Cores<kGlobal>()) {
      const OperatingPoint point = core.speed->current();
      // The mandatory halt applies on the idle path too: an OnIdle (or
      // completion-time) speed change with switch_time_ms > 0 halts the
      // processor just as it does before execution resumes. Charge the halt
      // window to switching_ms — not idle energy at the new point. Halted
      // cycles cost time but (almost) no energy (§3.1).
      const double halt_end = std::clamp(core.speed->blocked_until_ms(), now_, t_next);
      if (halt_end > now_) {
        core.accountant.RecordSwitchHalt(now_, halt_end, point);
      }
      if (core.job == Scheduler::kNone) {
        core.accountant.RecordIdle(halt_end, t_next, point);
        continue;
      }
      if (t_next - halt_end > 0) {
        Job& job = jobs_[core.job];
        double work = (t_next - halt_end) * point.frequency;
        // Rounding guard: never execute more than the job has left.
        work = std::min(work, EffectiveRemaining(job));
        if constexpr (kServer) {
          if (IsServerJob(job)) {
            aperiodic_->Execute(work, t_next, point.frequency);
          }
        }
        job.executed_work += work;
        task_states_[static_cast<size_t>(job.task_id)].cumulative_executed += work;
        dirty_.Mark(job.task_id);
        result_.task_stats[static_cast<size_t>(job.task_id)].executed_work += work;
        core.accountant.RecordExecution(halt_end, t_next, work, job.task_id, point);
      }
    }
    if (idle_skip) {
      result_.fastpath.idle_skipped_ms += t_next - now_;
    }
    now_ = t_next;
    if (now_ >= horizon - kTimeEpsMs) {
      break;
    }

    // --- Apply state changes due at now_: arrivals, completions, misses,
    // releases. ---
    if (next_release <= now_ + kTimeEpsMs) {
      CollectDueReleases();
    } else {
      due_releases_.clear();
    }
    if constexpr (kServer) {
      aperiodic_->AdmitArrivals(now_);
    }
    completed_.clear();
    released_.clear();
    completed_after_release_.clear();
    CompleteFinishedJobs<kServer, kGlobal>();
    // CBS management: wake on arrivals, postpone on budget exhaustion.
    // Either action manifests as completion/release pairs so DVS policies
    // observe the server exactly like any periodic task.
    if constexpr (kServer) {
      if (options_.aperiodic.kind == ServerKind::kCbs) {
        if (server_job_ != Scheduler::kNone &&
            (aperiodic_->budget_remaining() <= kWorkEps ||
             jobs_[server_job_].deadline_ms <= now_ + kTimeEpsMs)) {
          FinalizeJobCompletion(server_job_, now_);
          completed_.push_back(server_task_id_);
          AddCbsJob(aperiodic_->CbsPostpone());
        } else if (server_job_ == Scheduler::kNone && !aperiodic_->QueueEmpty()) {
          AddCbsJob(aperiodic_->CbsWake(now_));
        }
      }
    }
    if (!due_releases_.empty() || ServerDeadlineDue<kServer>()) {
      CheckDeadlines<kServer>();
    }
    if (!due_releases_.empty()) {
      ReleaseDueJobs(now_, &released_);
    }

    if constexpr (kServer) {
      // A freshly released polling-server job with an empty queue retires on
      // the spot (its completion callback must follow its release callback).
      if (server_job_ != Scheduler::kNone) {
        ++result_.fastpath.jobs_visited;
        if (MaybeCompleteServerJob(server_job_, now_)) {
          completed_after_release_.push_back(server_task_id_);
        }
      }
    }

    // Drop finished jobs (after stats were recorded above).
    if (any_finished_) {
      CompactJobs<kGlobal, kKind>();
    }

    // --- Policy callbacks: completions first, then releases, each to every
    // core in core order (DeliverEvent). ---
    // Steps where nothing the policies observe happened (no completion, no
    // release, no wakeup, no idle transition) skip the context build and
    // the callback block entirely, and so does every step of a run whose
    // policies all ignore events; timer-driven policies always get their
    // per-step NextWakeupMs poll. At M = 1 OnIdle fires here, once per idle
    // period.
    const bool entered_idle = !kGlobal && jobs_.empty() && !was_idle;
    if (any_observer_ &&
        (any_timer_driven_ || entered_idle || !completed_.empty() ||
         !released_.empty() || !completed_after_release_.empty())) {
      RTDVS_PROF_SCOPE("sim/policy/callbacks");
      BuildContext<kGlobal>();
      for (int task_id : completed_) {
        DeliverEvent<kGlobal>([&](Core& core) {
          core.policy->OnTaskCompletion(task_id, ctx_, *core.speed);
        });
      }
      for (int task_id : released_) {
        DeliverEvent<kGlobal>([&](Core& core) {
          core.policy->OnTaskRelease(task_id, ctx_, *core.speed);
        });
      }
      for (int task_id : completed_after_release_) {
        single.policy->OnTaskCompletion(task_id, ctx_, *single.speed);
        ++result_.fastpath.event_callbacks;
      }

      // Timer wakeups (non-RT interval baseline).
      if (any_timer_driven_) {
        for (Core& core : Cores<kGlobal>()) {
          if (!core.timer_driven) {
            continue;
          }
          if (core.pending_wakeup.has_value() &&
              *core.pending_wakeup <= now_ + kTimeEpsMs) {
            core.policy->OnWakeup(ctx_, *core.speed);
          }
          core.pending_wakeup = core.policy->NextWakeupMs(ctx_);
        }
      }

      if (entered_idle) {
        single.policy->OnIdle(ctx_, *single.speed);
      }
    }
    if (entered_idle && options_.record_trace) {
      result_.trace.AddEvent({now_, TraceEventKind::kIdleStart, -1, {}});
    }
    was_idle = jobs_.empty();
  }
}

TaskSet SimulatedTaskSet(TaskSet tasks, const SimOptions& options) {
  if (options.aperiodic.kind != ServerKind::kNone) {
    // The server is an ordinary periodic task as far as schedulers,
    // schedulability tests and DVS policies are concerned.
    tasks.AddTask({"server", options.aperiodic.period_ms,
                   options.aperiodic.budget_ms, 0.0});
  }
  return tasks;
}

SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        DvsPolicy& policy, ExecTimeModel& exec_model,
                        const SimOptions& options) {
  return Simulator(tasks, machine, &policy, &exec_model, options).Run();
}

SimResult RunSimulation(const TaskSet& tasks, const MachineSpec& machine,
                        const std::string& policy_id, ExecTimeModel& exec_model,
                        const SimOptions& options) {
  std::unique_ptr<DvsPolicy> policy = MakePolicy(policy_id);
  return RunSimulation(tasks, machine, *policy, exec_model, options);
}

JsonValue FastPathStatsToJson(const FastPathStats& stats) {
  JsonValue doc = JsonValue::Object();
  doc.Set("steps", stats.steps);
  doc.Set("idle_skips", stats.idle_skips);
  doc.Set("idle_skipped_ms", stats.idle_skipped_ms);
  doc.Set("jobs_visited", stats.jobs_visited);
  doc.Set("context_builds", stats.context_builds);
  doc.Set("event_callbacks", stats.event_callbacks);
  return doc;
}

std::string SimResult::Summary() const {
  return StrFormat(
      "%s: energy=%.4g (exec=%.4g idle=%.4g, bound=%.4g) misses=%lld "
      "releases=%lld switches=%lld busy=%.1fms idle=%.1fms",
      policy_name.c_str(), total_energy(), exec_energy, idle_energy,
      lower_bound_energy, static_cast<long long>(deadline_misses),
      static_cast<long long>(releases), static_cast<long long>(speed_switches),
      busy_ms, idle_ms);
}

}  // namespace rtdvs
