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

  BuildContext(now_);
  policy_->OnStart(ctx_, *speed_);
  pending_wakeup_.reset();
  if (timer_driven_) {
    pending_wakeup_ = policy_->NextWakeupMs(ctx_);
  }

  if (aperiodic_.has_value()) {
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
  bool was_idle = false;

  while (now_ < horizon - kTimeEpsMs) {
    RTDVS_PROF_SCOPE("sim/step");
    ++result_.fastpath.steps;
    size_t running = Scheduler::kNone;

    // --- Find the next event: the earliest of the horizon, the next
    // periodic release, the pending policy wakeup and, with a server, the
    // next aperiodic arrival and the live server job's deadline. Times
    // within kTimeEpsMs of now are due now, not scheduling points. ---
    const double next_release = NextPeriodicReleaseMs();
    double t_next = std::min(horizon, next_release);
    if (timer_driven_ && pending_wakeup_.has_value() &&
        *pending_wakeup_ > now_ + kTimeEpsMs) {
      t_next = std::min(t_next, *pending_wakeup_);
    }
    if constexpr (kServer) {
      if (aperiodic_->NextArrivalMs() > now_ + kTimeEpsMs) {
        t_next = std::min(t_next, aperiodic_->NextArrivalMs());
      }
    }
    // Idle skip: with no job there is nothing to pick, and the interval up
    // to t_next integrates as one idle segment. Skipping the pick leaves
    // preemption tracking untouched, exactly like a pick over no jobs.
    const bool idle_skip = jobs_.empty();
    if (idle_skip) {
      ++result_.fastpath.idle_skips;
    } else {
      if constexpr (kServer) {
        for (auto& job : jobs_) {
          if (IsServerJob(job) && !job.finished) {
            // A server job holding budget with an empty queue is not
            // runnable. CBS wake and postpone set deadlines that track no
            // release, so the server deadline is a scheduling point.
            job.suspended = EffectiveRemaining(job) <= kWorkEps;
            if (job.deadline_ms > now_ + kTimeEpsMs) {
              t_next = std::min(t_next, job.deadline_ms);
            }
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
    }
    double exec_start = now_;
    if (running != Scheduler::kNone) {
      // Completion and switch-halt-end depend on the current speed, so they
      // are derived analytically each step.
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
      if (idle_skip) {
        result_.fastpath.idle_skipped_ms += t_next - now_;
      }
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
    if (timer_driven_ || entered_idle || !completed_.empty() ||
        !released_.empty() || !completed_after_release_.empty()) {
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
        if (pending_wakeup_.has_value() && *pending_wakeup_ <= now_ + kTimeEpsMs) {
          policy_->OnWakeup(ctx_, *speed_);
        }
        pending_wakeup_ = policy_->NextWakeupMs(ctx_);
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
