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
}  // namespace

Simulator::Simulator(TaskSet tasks, MachineSpec machine, DvsPolicy* policy,
                     ExecTimeModel* exec_model, SimOptions options)
    : tasks_(std::move(tasks)),
      machine_(std::move(machine)),
      policy_(policy),
      exec_model_(exec_model),
      options_(options),
      scheduler_(MakeScheduler(policy->scheduler_kind())),
      energy_(options.idle_level, options.energy_coefficient),
      rng_(options.seed),
      accountant_(energy_),
      trace_sink_(&result_.trace) {
  RTDVS_CHECK(policy_ != nullptr);
  RTDVS_CHECK(exec_model_ != nullptr);
  RTDVS_CHECK_GT(options_.horizon_ms, 0.0);
  RTDVS_CHECK(!tasks_.empty()) << "cannot simulate an empty task set";
  RTDVS_CHECK_GE(options_.switch_time_ms, 0.0);
  if (options_.aperiodic.kind != ServerKind::kNone) {
    // The server is an ordinary periodic task as far as schedulers,
    // schedulability tests and DVS policies are concerned.
    server_task_id_ = tasks_.AddTask({"server", options_.aperiodic.period_ms,
                                      options_.aperiodic.budget_ms, 0.0});
    aperiodic_.emplace(options_.aperiodic, options_.seed ^ 0xa9e210d1cULL);
  }
}

Simulator::~Simulator() = default;

double Simulator::NextQueuedEventTime() {
  while (!events_.Empty()) {
    const EngineEvent& top = events_.Top();
    switch (top.type) {
      case EngineEventType::kDeadline:
        // Stale when the job already finished (lazy invalidation) or the
        // deadline was already handled by the value-based miss scan (events
        // within kTimeEpsMs of now are "due now", not scheduling points).
        if (!deadline_live_[top.payload - 1] ||
            top.time_ms <= now_ + kTimeEpsMs) {
          events_.Pop();
          continue;
        }
        return top.time_ms;
      case EngineEventType::kPolicyTimer:
        // Stale when superseded by a newer NextWakeupMs value, or already
        // due (OnWakeup fires from the value check in the event loop; a due
        // timer never becomes a scheduling point of its own).
        if (top.payload != timer_generation_ || top.time_ms <= now_ + kTimeEpsMs) {
          events_.Pop();
          continue;
        }
        return top.time_ms;
      default:
        // Releases are the boot events (t = phase, possibly == now) and
        // always valid; the horizon never staleness-checks.
        return top.time_ms;
    }
  }
  return kInf;
}

void Simulator::ConsumeDueEvents() {
  due_releases_.clear();
  while (!events_.Empty() && events_.Top().time_ms <= now_ + kTimeEpsMs) {
    const EngineEvent event = events_.Pop();
    if (event.type == EngineEventType::kRelease) {
      due_releases_.push_back(event.task_id);
    }
  }
  // Task-id order keeps exec-model RNG draws and policy release callbacks
  // in the order the monolithic per-task scan produced.
  std::sort(due_releases_.begin(), due_releases_.end());
  due_releases_.erase(std::unique(due_releases_.begin(), due_releases_.end()),
                      due_releases_.end());
}

void Simulator::SyncPolicyTimer(const std::optional<double>& wakeup) {
  if (wakeup == queued_wakeup_) {
    return;
  }
  queued_wakeup_ = wakeup;
  if (use_events_) {
    ++timer_generation_;
    if (wakeup.has_value() && *wakeup < kInf) {
      events_.Push(*wakeup, EngineEventType::kPolicyTimer, -1, timer_generation_);
    }
  }
  // Queue-free mode reads queued_wakeup_ directly when deriving the next
  // scheduling point; there is no event to (in)validate.
}

void Simulator::QueueJobDeadline(Job* job) {
  job->uid = next_job_uid_++;
  // A periodic job's deadline coincides exactly with its task's next release
  // (both are release + period), and ReleaseDueJobs queues that release
  // event unconditionally — so a separate deadline event would be a
  // duplicate scheduling point. Only server jobs need one: CBS wake and
  // postpone set deadlines that track no release. The queue-free loop has
  // no server, hence no deadline events and no liveness vector to grow.
  if (use_events_) {
    deadline_live_.push_back(1);
    if (IsServerJob(*job)) {
      events_.Push(job->deadline_ms, EngineEventType::kDeadline, job->task_id,
                   job->uid);
    }
  }
}

double Simulator::EffectiveRemaining(const Job& job) const {
  if (IsServerJob(job)) {
    return aperiodic_->ServableWork();
  }
  return job.RemainingActualWork();
}

void Simulator::FinalizeJobCompletion(Job* job, double now) {
  job->finished = true;
  job->completion_ms = now;
  --unfinished_count_;
  dirty_.Mark(job->task_id);
  if (use_events_) {
    deadline_live_[job->uid - 1] = 0;
  }
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

bool Simulator::MaybeCompleteServerJob(Job* job, double now) {
  if (job->finished) {
    return false;
  }
  switch (options_.aperiodic.kind) {
    case ServerKind::kPolling:
      // The polling server forfeits its remaining budget the moment it has
      // nothing to serve.
      if (aperiodic_->QueueEmpty() || aperiodic_->budget_remaining() <= kWorkEps) {
        aperiodic_->ForfeitBudget();
        FinalizeJobCompletion(job, now);
        return true;
      }
      break;
    case ServerKind::kDeferrable:
      // The deferrable server keeps unused budget until its deadline.
      if (aperiodic_->budget_remaining() <= kWorkEps) {
        FinalizeJobCompletion(job, now);
        return true;
      }
      break;
    case ServerKind::kCbs:
      // The CBS activation ends when the queue drains; budget exhaustion
      // postpones the deadline instead (handled in the event loop).
      if (aperiodic_->QueueEmpty()) {
        FinalizeJobCompletion(job, now);
        return true;
      }
      break;
    case ServerKind::kNone:
      break;
  }
  return false;
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
      QueueJobDeadline(&job);
      jobs_.push_back(job);
      ++unfinished_count_;
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
    if (use_events_ && state.next_release_ms < kInf) {
      events_.Push(state.next_release_ms, EngineEventType::kRelease, id);
    }
  }
}

double Simulator::NextPeriodicReleaseMs() const {
  double next = kInf;
  for (const TaskState& state : task_states_) {
    next = std::min(next, state.next_release_ms);
  }
  return next;
}

void Simulator::CollectDueReleases() {
  due_releases_.clear();
  const size_t n = task_states_.size();
  for (size_t id = 0; id < n; ++id) {
    if (task_states_[id].next_release_ms <= now_ + kTimeEpsMs) {
      due_releases_.push_back(static_cast<int>(id));
    }
  }
}

void Simulator::ArmHyperperiod() {
  if (!options_.fast_paths.hyperperiod) {
    return;  // gate string stays "" by the FastPathStats contract
  }
  const char* reason = nullptr;
  if (use_events_) {
    reason = "aperiodic server";
  } else if (timer_driven_) {
    reason = "timer-driven policy";
  } else if (options_.record_trace) {
    reason = "trace recording";
  } else if (!policy_->supports_time_skip()) {
    reason = "policy does not support time skip";
  } else if (!exec_model_->stationary()) {
    reason = "non-stationary exec model";
  } else if (!const_fraction_.has_value()) {
    reason = "execution fractions not a single constant";
  } else if (options_.horizon_ms > HyperperiodMemo::kMaxExactMagnitudeMs) {
    reason = "horizon beyond the exact-arithmetic magnitude bound";
  } else if (!HyperperiodMemo::OnDyadicGrid(options_.switch_time_ms)) {
    reason = "switch time off the dyadic grid";
  }
  if (reason == nullptr) {
    // The exact-arithmetic gate: window repetition is a floating-point
    // property, not a scheduling one — absolute-time sums round differently
    // across binades, so replay arms only when every time/work operation in
    // the run is exact: dyadic task parameters (release/deadline/boundary
    // sums stay exact) and power-of-two frequencies (completion and work
    // scaling only shift exponents). Anything else would risk a verified
    // repetition breaking down in a later window. See DESIGN.md.
    for (const auto& point : machine_.points()) {
      if (!HyperperiodMemo::IsExactFrequency(point.frequency)) {
        reason = "machine frequencies not powers of two";
        break;
      }
    }
  }
  if (reason == nullptr) {
    for (int id = 0; id < tasks_.size(); ++id) {
      const Task& task = tasks_.task(id);
      if (task.phase_ms != 0.0) {
        // Hyperperiod boundaries are all-task release points (the policy
        // state rebuild the replay relies on) only when every phase is zero.
        reason = "nonzero task phase";
        break;
      }
      if (!HyperperiodMemo::OnDyadicGrid(task.period_ms) ||
          !HyperperiodMemo::OnDyadicGrid(task.wcet_ms) ||
          !HyperperiodMemo::OnDyadicGrid(*const_fraction_ * task.wcet_ms)) {
        reason = "task parameters off the dyadic grid";
        break;
      }
    }
  }
  std::optional<double> h;
  if (reason == nullptr) {
    // An LCM beyond horizon/4 cannot fit warmup + two recorded windows +
    // one replayed window, so it doubles as the overflow bound.
    const double max_units =
        options_.horizon_ms * (HyperperiodMemo::kDyadicGridPerMs / 4.0);
    h = HyperperiodMemo::HyperperiodMs(tasks_,
                                       static_cast<int64_t>(max_units));
    if (!h.has_value()) {
      reason = "hyperperiod too long";
    } else if (4.0 * *h >= options_.horizon_ms - kTimeEpsMs) {
      reason = "horizon shorter than four hyperperiods";
    }
  }
  if (reason != nullptr) {
    result_.fastpath.hyperperiod_gate = reason;
    return;
  }
  hp_.Arm(*h, options_.horizon_ms, &result_.fastpath);
}

void Simulator::BuildContext(double now) {
  context_builder_.Build(
      now, jobs_, accountant_.totals(),
      [this](int id) {
        const TaskState& state = task_states_[static_cast<size_t>(id)];
        return ContextBuilder::TaskSnapshot{state.next_release_ms,
                                            state.cumulative_executed,
                                            state.last_actual_work};
      },
      &ctx_, &dirty_);
  dirty_.Clear();
}

SimResult Simulator::Run() {
  RTDVS_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;
  if (options_.profile) {
    Profiler::Enable();
  }
  // Counters accumulate over the policy's lifetime and the policy object may
  // be reused across runs; report the per-run delta.
  const PolicyCounters counters_at_start = policy_->counters();

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
  result_.policy_name = policy_->name();
  result_.scheduler = policy_->scheduler_kind();
  result_.horizon_ms = options_.horizon_ms;
  result_.residency.clear();
  for (const auto& point : machine_.points()) {
    result_.residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
  result_.trace.set_capacity_limit(options_.max_trace_segments);

  // Wire the engine components for this run.
  TraceSink* sink = options_.record_trace ? &trace_sink_ : nullptr;
  accountant_.Reset();
  accountant_.BindResidency(&machine_, &result_.residency);
  accountant_.set_trace_sink(sink);
  context_builder_.Bind(&tasks_, &machine_);
  dirty_.Reset(static_cast<int>(n));
  ready_.BindScheduler(scheduler_.get());
  ready_.ResetTracking();
  now_ = 0;
  speed_ = std::make_unique<ModeledSpeedController>(
      &machine_, options_.switch_time_ms, &now_, sink);
  events_.Clear();
  deadline_live_.clear();
  next_job_uid_ = 1;
  use_events_ = server_task_id_ >= 0;
  timer_driven_ = policy_->timer_driven();
  unfinished_count_ = 0;
  const size_t jobs_reserve = std::max<size_t>(16, 2 * n);
  if (options_.job_pool != nullptr) {
    jobs_ = options_.job_pool->Acquire(jobs_reserve);
  } else {
    jobs_.clear();
    jobs_.reserve(jobs_reserve);
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
  if (use_events_) {
    events_.Push(options_.horizon_ms, EngineEventType::kHorizon);
    for (size_t id = 0; id < n; ++id) {
      if (task_states_[id].next_release_ms < kInf) {
        events_.Push(task_states_[id].next_release_ms, EngineEventType::kRelease,
                     static_cast<int>(id));
      }
    }
  }

  ArmHyperperiod();
  BuildContext(now_);
  policy_->OnStart(ctx_, *speed_);
  queued_wakeup_.reset();
  if (timer_driven_) {
    SyncPolicyTimer(policy_->NextWakeupMs(ctx_));
  }

  if (use_events_) {
    if (scheduler_->kind() == SchedulerKind::kEdf) {
      RunLoop<true, SchedulerKind::kEdf>();
    } else {
      RunLoop<true, SchedulerKind::kRm>();
    }
  } else {
    if (scheduler_->kind() == SchedulerKind::kEdf) {
      RunLoop<false, SchedulerKind::kEdf>();
    } else {
      RunLoop<false, SchedulerKind::kRm>();
    }
  }

  const EngineTotals& totals = accountant_.totals();
  result_.busy_ms = totals.busy_ms;
  result_.idle_ms = totals.idle_ms;
  result_.switching_ms = totals.switching_ms;
  result_.total_work_executed = totals.work;
  result_.exec_energy = totals.exec_energy;
  result_.idle_energy = totals.idle_energy;
  result_.speed_switches = speed_->switch_count();
  result_.lower_bound_energy = MinimumExecutionEnergy(
      result_.total_work_executed, options_.horizon_ms, machine_,
      EnergyModel(0.0, options_.energy_coefficient));
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
  result_.policy_counters = policy_->counters().DiffSince(counters_at_start);
  if (options_.audit) {
    AuditInputs inputs;
    inputs.tasks = &tasks_;
    inputs.machine = &machine_;
    inputs.options = &options_;
    inputs.policy_guarantees_deadlines = policy_->guarantees_deadlines();
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

template <bool kServer, SchedulerKind kKind>
void Simulator::RunLoop() {
  const double horizon = options_.horizon_ms;
  const bool fast_idle = !kServer && options_.fast_paths.idle_skip;
  bool was_idle = false;

  while (now_ < horizon - kTimeEpsMs) {
    RTDVS_PROF_SCOPE("sim/step");
    ++result_.fastpath.steps;
    size_t running = Scheduler::kNone;
    // The picked job's task id (-1 when idle), captured before job
    // compaction invalidates `running`; the hyperperiod memo records and
    // verifies it.
    [[maybe_unused]] int hp_pick = -1;
    double t_next = horizon;
    double next_release = kInf;
    bool idle_fast = false;

    if constexpr (!kServer) {
      next_release = NextPeriodicReleaseMs();
      idle_fast = fast_idle && jobs_.empty();
    }
    if (idle_fast) {
      // --- Idle skip: no runnable job, so the next scheduling point is the
      // next release (or a pending timer wakeup) and the whole interval
      // integrates as one idle segment. Skipping the scheduler pick leaves
      // preemption tracking untouched, exactly like a pick over an empty
      // job vector.
      RTDVS_PROF_SCOPE("sim/fastpath/idle_skip");
      t_next = std::min(t_next, next_release);
      if (timer_driven_ && queued_wakeup_.has_value() &&
          *queued_wakeup_ > now_ + kTimeEpsMs) {
        t_next = std::min(t_next, *queued_wakeup_);
      }
      ++result_.fastpath.idle_skips;
    } else {
      if constexpr (kServer) {
        // A server job holding budget with an empty queue is not runnable.
        for (auto& job : jobs_) {
          if (IsServerJob(job) && !job.finished) {
            job.suspended = EffectiveRemaining(job) <= kWorkEps;
          }
        }
      }
      if constexpr (kKind == SchedulerKind::kEdf) {
        running = ready_.PickTrackedWith(jobs_, EdfComparator{},
                                         &result_.preemptions);
      } else {
        running = ready_.PickTrackedWith(jobs_, RmComparator{periods_.data()},
                                         &result_.preemptions);
      }
      if constexpr (!kServer) {
        if (hp_.active() && running != Scheduler::kNone) {
          hp_pick = jobs_[running].task_id;
        }
      }

      // --- Find the next event. ---
      if constexpr (kServer) {
        t_next = std::min(t_next, NextQueuedEventTime());
        if (aperiodic_->NextArrivalMs() > now_ + kTimeEpsMs) {
          t_next = std::min(t_next, aperiodic_->NextArrivalMs());
        }
      } else {
        t_next = std::min(t_next, next_release);
        if (timer_driven_ && queued_wakeup_.has_value() &&
            *queued_wakeup_ > now_ + kTimeEpsMs) {
          t_next = std::min(t_next, *queued_wakeup_);
        }
      }
    }
    double exec_start = now_;
    if (running != Scheduler::kNone) {
      // Completion and switch-halt-end depend on the current speed, so they
      // are derived analytically each step rather than queued.
      exec_start = std::max(now_, speed_->blocked_until_ms());
      double frequency = speed_->current().frequency;
      double completion =
          exec_start + EffectiveRemaining(jobs_[running]) / frequency;
      t_next = std::min(t_next, completion);
    }
    RTDVS_CHECK_GT(t_next, now_ - kTimeEpsMs)
        << "event horizon moved backwards at t=" << now_;
    t_next = std::max(t_next, now_);
    t_next = std::min(t_next, horizon);

    // --- Integrate the segment [now_, t_next). ---
    const OperatingPoint point = speed_->current();
    if (running != Scheduler::kNone) {
      exec_start = std::min(std::max(exec_start, now_), t_next);
      if (exec_start > now_) {
        // Halted during a transition: time passes, (almost) no energy (§3.1).
        accountant_.RecordSwitchHalt(now_, exec_start, point);
      }
      double exec_dt = t_next - exec_start;
      if (exec_dt > 0) {
        Job& job = jobs_[running];
        double work = exec_dt * point.frequency;
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
        accountant_.RecordExecution(exec_start, t_next, work, job.task_id, point);
      }
    } else {
      // The mandatory halt applies on the idle path too: an OnIdle (or
      // completion-time) speed change with switch_time_ms > 0 halts the
      // processor just as it does before execution resumes. Charge the halt
      // window to switching_ms — not idle energy at the new point.
      double halt_end = std::clamp(speed_->blocked_until_ms(), now_, t_next);
      if (halt_end > now_) {
        accountant_.RecordSwitchHalt(now_, halt_end, point);
      }
      accountant_.RecordIdle(halt_end, t_next, point);
      if (idle_fast) {
        result_.fastpath.idle_skipped_ms += t_next - now_;
      }
    }
    now_ = t_next;
    if (now_ >= horizon - kTimeEpsMs) {
      break;
    }

    // --- Apply state changes due at now_: arrivals, completions, misses,
    // releases. ---
    if constexpr (kServer) {
      ConsumeDueEvents();
      aperiodic_->AdmitArrivals(now_);
    } else {
      if (next_release <= now_ + kTimeEpsMs) {
        CollectDueReleases();
      } else {
        due_releases_.clear();
      }
    }
    completed_.clear();
    released_.clear();
    completed_after_release_.clear();
    bool any_aborted = false;
    if (!jobs_.empty()) {
      for (auto& job : jobs_) {
        if (job.finished) {
          continue;
        }
        if (kServer && IsServerJob(job)) {
          if (MaybeCompleteServerJob(&job, now_)) {
            completed_.push_back(job.task_id);
          }
        } else if (job.RemainingActualWork() <= kWorkEps) {
          FinalizeJobCompletion(&job, now_);
          completed_.push_back(job.task_id);
        }
      }
    }
    // CBS management: wake on arrivals, postpone on budget exhaustion.
    // Either action manifests as completion/release pairs so DVS policies
    // observe the server exactly like any periodic task.
    if constexpr (kServer) {
      if (options_.aperiodic.kind == ServerKind::kCbs) {
        Job* active_server = nullptr;
        for (auto& job : jobs_) {
          if (IsServerJob(job) && !job.finished) {
            active_server = &job;
            break;
          }
        }
        if (active_server != nullptr &&
            (aperiodic_->budget_remaining() <= kWorkEps ||
             active_server->deadline_ms <= now_ + kTimeEpsMs)) {
          FinalizeJobCompletion(active_server, now_);
          completed_.push_back(active_server->task_id);
          double new_deadline = aperiodic_->CbsPostpone();
          Job replacement;
          replacement.task_id = server_task_id_;
          replacement.invocation =
              task_states_[static_cast<size_t>(server_task_id_)].next_invocation++;
          replacement.release_ms = now_;
          replacement.deadline_ms = new_deadline;
          replacement.wcet_work = options_.aperiodic.budget_ms;
          replacement.actual_work = options_.aperiodic.budget_ms;
          QueueJobDeadline(&replacement);
          jobs_.push_back(replacement);
          dirty_.Mark(server_task_id_);
          ++unfinished_count_;
          ++result_.releases;
          ++result_.task_stats[static_cast<size_t>(server_task_id_)].releases;
          released_.push_back(server_task_id_);
        } else if (active_server == nullptr && !aperiodic_->QueueEmpty()) {
          double deadline = aperiodic_->CbsWake(now_);
          Job job;
          job.task_id = server_task_id_;
          job.invocation =
              task_states_[static_cast<size_t>(server_task_id_)].next_invocation++;
          job.release_ms = now_;
          job.deadline_ms = deadline;
          job.wcet_work = options_.aperiodic.budget_ms;
          job.actual_work = options_.aperiodic.budget_ms;
          QueueJobDeadline(&job);
          jobs_.push_back(job);
          dirty_.Mark(server_task_id_);
          ++unfinished_count_;
          ++result_.releases;
          ++result_.task_stats[static_cast<size_t>(server_task_id_)].releases;
          released_.push_back(server_task_id_);
        }
      }
    }
    if (!jobs_.empty()) {
      for (auto& job : jobs_) {
        if (job.finished || job.deadline_ms > now_ + kTimeEpsMs) {
          continue;
        }
        if (kServer && IsServerJob(job)) {
          // A server has no deadline obligation of its own: at the end of its
          // period the old budget expires and the job simply retires.
          FinalizeJobCompletion(&job, now_);
          completed_.push_back(job.task_id);
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
            job.finished = true;
            job.completion_ms = now_;
            --unfinished_count_;
            dirty_.Mark(job.task_id);
            any_aborted = true;
            if (use_events_) {
              deadline_live_[job.uid - 1] = 0;
            }
            // Aborted jobs do not count as completions and record no response.
            ++result_.aborted;
            ++result_.task_stats[static_cast<size_t>(job.task_id)].aborted;
          }
        }
      }
    }
    ReleaseDueJobs(now_, &released_);

    if constexpr (kServer) {
      // A freshly released polling-server job with an empty queue retires on
      // the spot (its completion callback must follow its release callback).
      for (auto& job : jobs_) {
        if (IsServerJob(job) && !job.finished && MaybeCompleteServerJob(&job, now_)) {
          completed_after_release_.push_back(job.task_id);
        }
      }
    }

    // Drop finished jobs (after stats were recorded above). Only steps that
    // finished something need the compaction pass.
    if (!completed_.empty() || !completed_after_release_.empty() || any_aborted) {
      jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                                 [](const Job& job) { return job.finished; }),
                  jobs_.end());
    }

    // --- Policy callbacks: completions first, then releases. ---
    // Steps where nothing the policy observes happened (no completion, no
    // release, no wakeup, no idle transition) skip the context build and
    // the callback block entirely; timer-driven policies always get their
    // per-step NextWakeupMs poll.
    const bool entered_idle = unfinished_count_ == 0 && !was_idle;
    bool replayed = false;
    if constexpr (!kServer) {
      // Replay mode substitutes the recorded callback effects for the whole
      // block below: no context build, no policy execution. Everything else
      // this iteration did (pick, integration, releases, completions,
      // misses) ran the real code above.
      if (hp_.replaying()) {
        RTDVS_PROF_SCOPE("sim/fastpath/hyperperiod");
        hp_.ReplayStep(now_, hp_pick, policy_, speed_.get(), machine_);
        replayed = true;
      }
    }
    if (!replayed &&
        (timer_driven_ || entered_idle || !completed_.empty() ||
         !released_.empty() || !completed_after_release_.empty())) {
      RTDVS_PROF_SCOPE("sim/policy/callbacks");
      BuildContext(now_);
      for (int task_id : completed_) {
        policy_->OnTaskCompletion(task_id, ctx_, *speed_);
      }
      for (int task_id : released_) {
        policy_->OnTaskRelease(task_id, ctx_, *speed_);
      }
      for (int task_id : completed_after_release_) {
        policy_->OnTaskCompletion(task_id, ctx_, *speed_);
      }

      // Timer wakeup (non-RT interval baseline).
      if (timer_driven_) {
        if (queued_wakeup_.has_value() && *queued_wakeup_ <= now_ + kTimeEpsMs) {
          policy_->OnWakeup(ctx_, *speed_);
        }
        SyncPolicyTimer(policy_->NextWakeupMs(ctx_));
      }

      // Idle notification: fires once per idle period.
      if (entered_idle) {
        policy_->OnIdle(ctx_, *speed_);
        if (options_.record_trace) {
          result_.trace.AddEvent({now_, TraceEventKind::kIdleStart, -1, {}});
        }
      }
    }
    was_idle = unfinished_count_ == 0;
    if constexpr (!kServer) {
      if (hp_.active() &&
          hp_.OnStepEnd(now_, hp_pick, policy_, speed_.get()) ==
              HyperperiodMemo::StepAction::kResyncPolicy) {
        // Replay just retired its last whole window: the policy's absolute
        // snapshots are still frozen at the verification boundary, so
        // rebuild the context here and let it catch up before the final
        // (horizon-clamped) partial window runs on the stepped path.
        RTDVS_PROF_SCOPE("sim/fastpath/hyperperiod");
        BuildContext(now_);
        policy_->OnTimeSkip(ctx_);
      }
    }
  }
}

template void Simulator::RunLoop<false, SchedulerKind::kEdf>();
template void Simulator::RunLoop<false, SchedulerKind::kRm>();
template void Simulator::RunLoop<true, SchedulerKind::kEdf>();
template void Simulator::RunLoop<true, SchedulerKind::kRm>();

// The RunSimulation convenience wrappers are defined in mp_simulator.cc:
// they route through the M=1 cluster path so the legacy API and the
// SimRequest API share one entry point (and one audit story).

JsonValue FastPathStatsToJson(const FastPathStats& stats) {
  JsonValue doc = JsonValue::Object();
  doc.Set("steps", stats.steps);
  doc.Set("idle_skips", stats.idle_skips);
  doc.Set("idle_skipped_ms", stats.idle_skipped_ms);
  doc.Set("hyperperiod_cycles_verified", stats.hyperperiod_cycles_verified);
  doc.Set("hyperperiod_cycles_replayed", stats.hyperperiod_cycles_replayed);
  doc.Set("steps_replayed", stats.steps_replayed);
  if (!stats.hyperperiod_gate.empty()) {
    doc.Set("hyperperiod_gate", stats.hyperperiod_gate);
  }
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
