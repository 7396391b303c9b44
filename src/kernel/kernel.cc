#include "src/kernel/kernel.h"

#include <algorithm>
#include <limits>

#include "src/rt/schedulability.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/util/time_eps.h"

namespace rtdvs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// The kernel's SpeedController: programs the PowerNow! module, then mirrors
// whatever point the hardware settled on (the device models its own
// transition halt).
class Kernel::PowerNowSpeed : public SpeedController {
 public:
  explicit PowerNowSpeed(Kernel* kernel) : kernel_(kernel) { Mirror(); }

  void SetOperatingPoint(const OperatingPoint& point) override {
    bool ok = kernel_->powernow_->SetNormalizedPoint(kernel_->now_ms_, point);
    RTDVS_CHECK(ok) << "policy requested frequency the PLL cannot produce: "
                    << point.ToString();
    Mirror();
  }
  const OperatingPoint& current() const override { return point_; }

 private:
  void Mirror() {
    point_ = {kernel_->cpu_.frequency_mhz() / K6Cpu::kMaxRatedMhz,
              kernel_->cpu_.voltage()};
  }

  Kernel* kernel_;
  OperatingPoint point_;
};

Kernel::Kernel(KernelOptions options)
    : options_(options),
      scheduler_(MakeScheduler(SchedulerKind::kEdf)),
      machine_(PowerNowModule::ExportedMachineSpec()),
      accountant_(EnergyModel()) {
  if (options_.ideal_transitions) {
    cpu_.set_allow_zero_sgtc(true);
  }
  powernow_ = std::make_unique<PowerNowModule>(&cpu_, &procfs_);
  powernow_->set_procfs_clock(&now_ms_);
  powernow_->set_ideal_transitions(options_.ideal_transitions);
  speed_ = std::make_unique<PowerNowSpeed>(this);
  context_builder_.Bind(&snapshot_, &machine_);
  ready_.BindScheduler(scheduler_.get());
  procfs_.RegisterFile(
      "/proc/rtdvs/tasks", [this] { return ReadTasksFile(); },
      [this](const std::string& data) { return WriteTasksFile(data); });
  procfs_.RegisterFile(
      "/proc/rtdvs/policy",
      [this] { return policy_ ? policy_->name() + "\n" : "(none)\n"; },
      [this](const std::string& data) {
        std::string id(Trim(data));
        if (!IsValidPolicyId(id)) {
          return false;
        }
        LoadPolicy(MakePolicy(id));
        return true;
      });
  procfs_.RegisterFile("/proc/rtdvs/stats", [this] { return ReadStatsFile(); },
                       nullptr);
}

Kernel::~Kernel() = default;

TaskSet Kernel::SnapshotTaskSet() const {
  TaskSet set;
  for (const auto& task : tasks_) {
    double padded =
        std::min(task.params.wcet_ms + options_.wcet_pad_ms, task.params.period_ms);
    set.AddTask({task.params.name, task.params.period_ms, padded, 0.0});
  }
  return set;
}

void Kernel::LoadPolicy(std::unique_ptr<DvsPolicy> policy) {
  policy_ = std::move(policy);
  scheduler_ =
      MakeScheduler(policy_ ? policy_->scheduler_kind() : SchedulerKind::kEdf);
  ready_.BindScheduler(scheduler_.get());
  ReinitializePolicy();
}

void Kernel::ReinitializePolicy() {
  snapshot_ = SnapshotTaskSet();
  if (tasks_.empty()) {
    wakeup_ms_.reset();
    return;
  }
  BuildContext();
  if (policy_) {
    policy_->OnStart(ctx_, *speed_);
    wakeup_ms_ = policy_->NextWakeupMs(ctx_);
  } else {
    // No RT scheduler/DVS module loaded: full speed, no guarantees (§4.2).
    speed_->SetOperatingPoint(PowerNowModule::ExportedMachineSpec().max_point());
    wakeup_ms_.reset();
  }
}

int Kernel::RegisterTask(KernelTaskParams params) {
  RTDVS_CHECK_GT(params.period_ms, 0.0);
  RTDVS_CHECK_GT(params.wcet_ms, 0.0);
  RTDVS_CHECK_LE(params.wcet_ms, params.period_ms);
  RTDVS_CHECK(params.exec_model != nullptr);

  if (options_.admission_control) {
    TaskSet prospective = SnapshotTaskSet();
    prospective.AddTask(
        {params.name, params.period_ms,
         std::min(params.wcet_ms + options_.wcet_pad_ms, params.period_ms), 0.0});
    SchedulerKind kind = policy_ ? policy_->scheduler_kind() : SchedulerKind::kEdf;
    bool admitted = kind == SchedulerKind::kEdf
                        ? EdfSchedulable(prospective, 1.0)
                        : RmSchedulableSufficient(prospective, 1.0);
    if (!admitted) {
      ++report_.rejected_admissions;
      RTDVS_LOG(kInfo) << "admission control rejected task '" << params.name
                       << "' (set would be unschedulable)";
      return -1;
    }
  }

  KernelTask task;
  task.handle = next_handle_++;
  task.last_actual_work = params.wcet_ms;
  task.params = std::move(params);
  // §4.3: insert the task immediately (so DVS decisions account for it) but
  // defer its first release past every in-flight invocation's deadline, by
  // which time the effects of stale DVS decisions have expired.
  task.next_release_ms = now_ms_;
  if (options_.defer_first_release) {
    for (const auto& job : jobs_) {
      if (!job.finished) {
        task.next_release_ms = std::max(task.next_release_ms, job.deadline_ms);
      }
    }
  }
  tasks_.push_back(std::move(task));
  ReinitializePolicy();
  return tasks_.back().handle;
}

int Kernel::DenseIndexOf(int handle) const {
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].handle == handle) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool Kernel::UnregisterTask(int handle) {
  int dense = DenseIndexOf(handle);
  if (dense < 0) {
    return false;
  }
  tasks_.erase(tasks_.begin() + dense);
  // Drop the task's jobs and remap the dense ids of the ones above it.
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [dense](const Job& job) { return job.task_id == dense; }),
              jobs_.end());
  for (auto& job : jobs_) {
    if (job.task_id > dense) {
      --job.task_id;
    }
  }
  ReinitializePolicy();
  return true;
}

std::optional<double> Kernel::FirstReleaseMs(int handle) const {
  int dense = DenseIndexOf(handle);
  if (dense < 0) {
    return std::nullopt;
  }
  const KernelTask& task = tasks_[static_cast<size_t>(dense)];
  // Only meaningful before the first release.
  return task.next_invocation == 0 ? std::optional<double>(task.next_release_ms)
                                   : std::nullopt;
}

void Kernel::BuildContext() {
  context_builder_.Build(
      now_ms_, jobs_, accountant_.totals(),
      [this](int id) {
        const KernelTask& task = tasks_[static_cast<size_t>(id)];
        return ContextBuilder::TaskSnapshot{task.next_release_ms,
                                            task.cumulative_executed,
                                            task.last_actual_work};
      },
      &ctx_);
}

size_t Kernel::PickJobIndex() const { return ready_.Pick(jobs_, snapshot_); }

double Kernel::NextReleaseTime() const {
  double t = kInf;
  for (const auto& task : tasks_) {
    t = std::min(t, task.next_release_ms);
  }
  return t;
}

double Kernel::EarliestActiveDeadlineAfter(double t) const {
  double earliest = kInf;
  for (const auto& job : jobs_) {
    if (!job.finished && job.deadline_ms > t + kTimeEpsMs) {
      earliest = std::min(earliest, job.deadline_ms);
    }
  }
  return earliest;
}

void Kernel::ReleaseDueJobs(std::vector<int>* released_dense) {
  for (size_t i = 0; i < tasks_.size(); ++i) {
    KernelTask& task = tasks_[i];
    while (task.next_release_ms <= now_ms_ + kTimeEpsMs) {
      // Per-task models receive task_id = 0 (see KernelTaskParams).
      double fraction =
          task.params.exec_model->DrawFraction(0, task.next_invocation, rng_);
      RTDVS_CHECK_GT(fraction, 0.0);
      Job job;
      job.task_id = static_cast<int>(i);
      job.invocation = task.next_invocation;
      job.release_ms = task.next_release_ms;
      job.deadline_ms = task.next_release_ms + task.params.period_ms;
      // Policies budget against the padded WCET (switch overheads, see
      // KernelOptions::wcet_pad_ms); the job's real demand is unpadded.
      job.wcet_work =
          std::min(task.params.wcet_ms + options_.wcet_pad_ms, task.params.period_ms);
      job.actual_work = fraction * task.params.wcet_ms;
      jobs_.push_back(job);
      ++task.next_invocation;
      task.next_release_ms += task.params.period_ms;
      ++report_.releases;
      released_dense->push_back(static_cast<int>(i));
    }
  }
}

void Kernel::RunUntil(double t_ms) {
  RTDVS_CHECK_GE(t_ms, now_ms_);

  while (now_ms_ < t_ms - kTimeEpsMs) {
    size_t running = PickJobIndex();

    double t_next = t_ms;
    t_next = std::min(t_next, NextReleaseTime());
    t_next = std::min(t_next, EarliestActiveDeadlineAfter(now_ms_));
    if (wakeup_ms_.has_value() && *wakeup_ms_ > now_ms_ + kTimeEpsMs) {
      t_next = std::min(t_next, *wakeup_ms_);
    }
    double exec_start = now_ms_;
    double f_norm = cpu_.frequency_mhz() / K6Cpu::kMaxRatedMhz;
    if (running != Scheduler::kNone) {
      exec_start = std::max(now_ms_, cpu_.transition_end_ms());
      t_next = std::min(t_next,
                        exec_start + jobs_[running].RemainingActualWork() / f_norm);
    }
    RTDVS_CHECK_GT(t_next, now_ms_ - kTimeEpsMs);
    t_next = std::max(t_next, now_ms_);
    t_next = std::min(t_next, t_ms);

    // Integrate [now_ms_, t_next): the accountant keeps the wall-clock
    // partition and the work, the meter takes SystemPowerModel watts. Active
    // watts come off the live cpu_ registers, not the normalized point: a
    // round-trip through MachineSpec would perturb the metered value.
    const OperatingPoint point = speed_->current();
    const double halted_watts = options_.power.HaltedWatts();
    if (running != Scheduler::kNone) {
      exec_start = std::min(std::max(exec_start, now_ms_), t_next);
      // Halted in a mandatory stop interval.
      accountant_.RecordSwitchHalt(now_ms_, exec_start, point);
      meter_.Accumulate(now_ms_, exec_start, halted_watts);
      if (t_next > exec_start) {
        Job& job = jobs_[running];
        double work = std::min((t_next - exec_start) * f_norm,
                               job.RemainingActualWork());
        job.executed_work += work;
        tasks_[static_cast<size_t>(job.task_id)].cumulative_executed += work;
        accountant_.RecordExecution(exec_start, t_next, work, job.task_id, point);
        meter_.Accumulate(exec_start, t_next,
                          options_.power.ActiveWatts(cpu_.frequency_mhz(),
                                                     cpu_.voltage()));
      }
    } else if (t_next > now_ms_) {
      // A transition can overlap an idle window; the prototype halts either
      // way, so the whole span is charged as idle at halted watts.
      accountant_.RecordIdle(now_ms_, t_next, point);
      meter_.Accumulate(now_ms_, t_next, halted_watts);
    }
    now_ms_ = t_next;
    if (now_ms_ >= t_ms - kTimeEpsMs) {
      break;
    }

    // Completions, misses, releases — then policy hooks.
    std::vector<int> completed;
    for (auto& job : jobs_) {
      if (!job.finished && job.RemainingActualWork() <= kWorkEps) {
        job.finished = true;
        job.completion_ms = now_ms_;
        completed.push_back(job.task_id);
        ++report_.completions;
        tasks_[static_cast<size_t>(job.task_id)].last_actual_work = job.actual_work;
      }
    }
    for (auto& job : jobs_) {
      if (!job.finished && !job.missed && job.deadline_ms <= now_ms_ + kTimeEpsMs) {
        job.missed = true;  // tardy jobs keep running (Linux prototype style)
        ++report_.deadline_misses;
      }
    }
    std::vector<int> released;
    ReleaseDueJobs(&released);
    jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                               [](const Job& job) { return job.finished; }),
                jobs_.end());

    BuildContext();
    if (policy_) {
      for (int dense : completed) {
        policy_->OnTaskCompletion(dense, ctx_, *speed_);
      }
      for (int dense : released) {
        policy_->OnTaskRelease(dense, ctx_, *speed_);
      }
      if (wakeup_ms_.has_value() && *wakeup_ms_ <= now_ms_ + kTimeEpsMs) {
        policy_->OnWakeup(ctx_, *speed_);
      }
      wakeup_ms_ = policy_->NextWakeupMs(ctx_);
    }

    bool any_unfinished = false;
    for (const auto& job : jobs_) {
      any_unfinished = any_unfinished || !job.finished;
    }
    if (!any_unfinished && !was_idle_ && policy_ && !tasks_.empty()) {
      policy_->OnIdle(ctx_, *speed_);
    }
    was_idle_ = !any_unfinished;
  }
  now_ms_ = t_ms;
  cpu_.SyncTsc(now_ms_);
}

KernelReport Kernel::Report() const {
  KernelReport report = report_;
  report.now_ms = now_ms_;
  report.avg_system_watts = meter_.AverageWatts();
  report.total_joules = meter_.TotalJoules();
  report.voltage_transitions = powernow_->voltage_transitions();
  report.frequency_transitions = powernow_->frequency_only_transitions();
  report.cpu_crashed = cpu_.crashed();
  const EngineTotals& totals = accountant_.totals();
  report.busy_ms = totals.busy_ms;
  report.idle_ms = totals.idle_ms;
  report.transition_halt_ms = totals.switching_ms;
  report.total_work_executed = totals.work;
  return report;
}

std::string Kernel::ReadTasksFile() const {
  std::string out = "handle name period_ms wcet_ms invocations\n";
  for (const auto& task : tasks_) {
    out += StrFormat("%d %s %.6g %.6g %lld\n", task.handle, task.params.name.c_str(),
                     task.params.period_ms, task.params.wcet_ms,
                     static_cast<long long>(task.next_invocation));
  }
  return out;
}

bool Kernel::WriteTasksFile(const std::string& data) {
  // Commands: "register <name> <period_ms> <wcet_ms> [fraction]"
  //           "unregister <handle>"
  std::vector<std::string> fields;
  for (auto& field : Split(std::string(Trim(data)), ' ')) {
    if (!field.empty()) {
      fields.push_back(field);
    }
  }
  if (fields.empty()) {
    return false;
  }
  if (fields[0] == "register" && (fields.size() == 4 || fields.size() == 5)) {
    auto period = ParseDouble(fields[2]);
    auto wcet = ParseDouble(fields[3]);
    double fraction = 1.0;
    if (fields.size() == 5) {
      auto parsed = ParseDouble(fields[4]);
      if (!parsed.has_value()) {
        return false;
      }
      fraction = *parsed;
    }
    if (!period || !wcet || *period <= 0 || *wcet <= 0 || *wcet > *period ||
        fraction <= 0 || fraction > 1) {
      return false;
    }
    KernelTaskParams params;
    params.name = fields[1];
    params.period_ms = *period;
    params.wcet_ms = *wcet;
    params.exec_model = std::make_unique<ConstantFractionModel>(fraction);
    return RegisterTask(std::move(params)) >= 0;
  }
  if (fields[0] == "unregister" && fields.size() == 2) {
    auto handle = ParseInt(fields[1]);
    return handle.has_value() && UnregisterTask(static_cast<int>(*handle));
  }
  return false;
}

std::string Kernel::ReadStatsFile() const {
  KernelReport report = Report();
  return StrFormat(
      "now_ms %.3f\navg_watts %.3f\njoules %.3f\nreleases %lld\ncompletions %lld\n"
      "misses %lld\nvolt_transitions %lld\nfreq_transitions %lld\nbusy_ms %.3f\n"
      "idle_ms %.3f\nhalt_ms %.3f\n",
      report.now_ms, report.avg_system_watts, report.total_joules,
      static_cast<long long>(report.releases),
      static_cast<long long>(report.completions),
      static_cast<long long>(report.deadline_misses),
      static_cast<long long>(report.voltage_transitions),
      static_cast<long long>(report.frequency_transitions), report.busy_ms,
      report.idle_ms, report.transition_halt_ms);
}

}  // namespace rtdvs
