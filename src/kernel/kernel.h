// The miniature embedded OS of Figure 14, hosting the RT-DVS prototype:
//
//   * a periodic real-time task service (tasks registered at run time, each
//     released every period and blocked again on completion),
//   * a single hot-swappable scheduler/DVS policy module slot ("one such RT
//     scheduler/DVS module can be loaded on the system at a time"; with
//     none loaded the system falls back to plain EDF at full speed, and
//     timeliness is not guaranteed — §4.2),
//   * the PowerNow! module driving the register-level K6-2+ device with
//     its mandatory stop intervals,
//   * a /procfs interface for tasks, policy and stats, and
//   * the measurement rig of Figure 15: RunUntil meters SystemPowerModel
//     watts, read off the live CPU registers, into a PowerMeter.
//
// This is the paper's "implementation" substrate; src/sim is its
// "simulation" substrate. bench_fig16/17 validate one against the other the
// same way §4.3 does.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dvs/policy.h"
#include "src/engine/context_builder.h"
#include "src/engine/energy_accountant.h"
#include "src/engine/ready_queue.h"
#include "src/kernel/powernow_module.h"
#include "src/kernel/procfs.h"
#include "src/platform/k6_cpu.h"
#include "src/platform/power_meter.h"
#include "src/platform/system_power.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/job.h"

namespace rtdvs {

struct KernelOptions {
  SystemPowerModel power;
  // Reject tasks whose admission would break the loaded policy's
  // schedulability test (at full speed).
  bool admission_control = true;
  // §4.3 observation 2: defer a new task's first release until the current
  // invocations of all existing tasks have completed, so stale DVS
  // decisions cannot cause transient misses.
  bool defer_first_release = true;
  // §2.5/§4.1: "no more than two switches can occur per task per invocation
  // period, so these overheads can easily be accounted for, and added to,
  // the worst-case task computation times." This pad (in ms of work) is
  // added to every task's WCET as seen by schedulability tests and DVS
  // policies — actual execution is unaffected. Default: two worst-case
  // voltage transitions. Clamped so padded WCET never exceeds the period.
  double wcet_pad_ms = 2 * 10 * 4096.0 / (100.0 * 1000.0);  // 2 x 0.4096 ms
  // Program SGTC = 0 on every PowerNow! transition, eliminating the
  // mandatory stop interval. Not real hardware behaviour — used by
  // validation rigs comparing the kernel against switch_time_ms = 0
  // simulations (tests/kernel/sim_kernel_parity_test.cc).
  bool ideal_transitions = false;
};

struct KernelTaskParams {
  std::string name;
  double period_ms = 0;
  double wcet_ms = 0;  // at 550 MHz
  // Actual per-invocation behaviour; the kernel passes task_id = 0.
  std::unique_ptr<ExecTimeModel> exec_model;
};

struct KernelReport {
  double now_ms = 0;
  double avg_system_watts = 0;
  double total_joules = 0;
  int64_t releases = 0;
  int64_t completions = 0;
  int64_t deadline_misses = 0;
  int64_t rejected_admissions = 0;
  int64_t voltage_transitions = 0;
  int64_t frequency_transitions = 0;
  double busy_ms = 0;
  double idle_ms = 0;
  double transition_halt_ms = 0;
  double total_work_executed = 0;  // in 550 MHz-milliseconds
  bool cpu_crashed = false;
};

class Kernel {
 public:
  explicit Kernel(KernelOptions options);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  ProcFs& procfs() { return procfs_; }
  K6Cpu& cpu() { return cpu_; }
  PowerNowModule& powernow() { return *powernow_; }
  double now_ms() const { return now_ms_; }

  // Loads a policy module (replacing any loaded one; nullptr unloads).
  // Running tasks keep running; the new policy re-derives its state from
  // the live task set — the paper's "dynamic switching ... without shutting
  // down the system or the running RT tasks".
  void LoadPolicy(std::unique_ptr<DvsPolicy> policy);
  const DvsPolicy* policy() const { return policy_.get(); }

  // Registers a periodic task at the current time. Returns a stable handle,
  // or -1 when admission control rejects the set.
  int RegisterTask(KernelTaskParams params);
  bool UnregisterTask(int handle);
  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  // The deferred first release chosen for a task (equals registration time
  // when deferral is off or nothing was active).
  std::optional<double> FirstReleaseMs(int handle) const;

  // Advances simulated time, executing tasks, firing the policy hooks and
  // integrating power. May be called repeatedly with increasing times.
  void RunUntil(double t_ms);

  KernelReport Report() const;
  const PowerMeter& power_meter() const { return meter_; }

 private:
  // SpeedController that programs the PowerNow module.
  class PowerNowSpeed;

  struct KernelTask {
    int handle = -1;
    KernelTaskParams params;
    double next_release_ms = 0;
    int64_t next_invocation = 0;
    double cumulative_executed = 0;
    double last_actual_work = 0;
  };

  TaskSet SnapshotTaskSet() const;
  void BuildContext();
  void ReinitializePolicy();
  size_t PickJobIndex() const;
  double NextReleaseTime() const;
  double EarliestActiveDeadlineAfter(double t) const;
  void ReleaseDueJobs(std::vector<int>* released_dense);
  int DenseIndexOf(int handle) const;
  std::string ReadTasksFile() const;
  bool WriteTasksFile(const std::string& data);
  std::string ReadStatsFile() const;

  KernelOptions options_;
  ProcFs procfs_;
  K6Cpu cpu_;
  std::unique_ptr<PowerNowModule> powernow_;
  PowerMeter meter_;
  std::unique_ptr<DvsPolicy> policy_;
  std::unique_ptr<Scheduler> scheduler_;  // fallback EDF when no policy

  std::vector<KernelTask> tasks_;   // dense; order defines policy task ids
  TaskSet snapshot_;                // dense TaskSet view handed to policies
  std::vector<Job> jobs_;           // Job::task_id holds the DENSE index
  PolicyContext ctx_;

  // The simulator's engine components (src/engine/) on the kernel's
  // hardware. The accountant keeps the busy/idle/halt partition and the
  // work; the energy is metered into meter_ beside each of its segments.
  MachineSpec machine_;             // = PowerNowModule::ExportedMachineSpec()
  ContextBuilder context_builder_;
  ReadyQueue ready_;
  std::unique_ptr<PowerNowSpeed> speed_;
  ModelEnergyAccountant accountant_;  // wall-clock partition and work only

  std::optional<double> wakeup_ms_;
  Pcg32 rng_{0x6b65726e656cULL};  // feeds the per-task execution-time models
  bool was_idle_ = false;
  int next_handle_ = 0;
  double now_ms_ = 0;

  KernelReport report_;
};

}  // namespace rtdvs

#endif  // SRC_KERNEL_KERNEL_H_
