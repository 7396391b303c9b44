// The single implementation of PolicyContext construction, shared by the
// simulator and the kernel. Before this existed each host re-derived the
// context by hand and the two copies drifted: the simulator forgot the
// cumulative busy/idle/work totals (the PR-4 interval-policy bug), and the
// kernel picked a task's "current invocation" by comparing a candidate's
// release against the chosen DEADLINE — correct only while deadline ==
// release + period, wrong for backlogged tasks under continue-late misses
// and for CBS replacement jobs. Both fixes now live here, once.
#ifndef SRC_ENGINE_CONTEXT_BUILDER_H_
#define SRC_ENGINE_CONTEXT_BUILDER_H_

#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/engine/energy_accountant.h"
#include "src/rt/job.h"
#include "src/rt/task.h"
#include "src/util/check.h"

namespace rtdvs {

// The tasks whose views changed since the last Build. At a scheduling point
// one release or completion touches one task, so the host marks what it
// mutates and Build re-derives only those views. Mark is idempotent and O(1).
class DirtyTasks {
 public:
  // Sizes the set for `n` tasks, every one marked (the first build of a run
  // derives every view).
  void Reset(int n) {
    flags_.assign(static_cast<size_t>(n), 1);
    ids_.resize(static_cast<size_t>(n));
    std::iota(ids_.begin(), ids_.end(), 0);
    count_ = ids_.size();
  }
  void Mark(int id) {
    uint8_t& flag = flags_[static_cast<size_t>(id)];
    if (flag == 0) {
      flag = 1;
      ids_[count_++] = id;
    }
  }
  void Clear() {
    for (int id : ids()) {
      flags_[static_cast<size_t>(id)] = 0;
    }
    count_ = 0;
  }
  bool contains(int id) const { return flags_[static_cast<size_t>(id)] != 0; }
  // Marked ids, in marking order.
  std::span<const int> ids() const { return {ids_.data(), count_}; }
  // Number of tasks the set is sized for.
  int num_tasks() const { return static_cast<int>(flags_.size()); }

 private:
  std::vector<uint8_t> flags_;
  // The first count_ entries are the marked ids; sized n so Mark never grows.
  std::vector<int> ids_;
  size_t count_ = 0;
};

class ContextBuilder {
 public:
  // The host-side per-task release bookkeeping the context is derived from.
  struct TaskSnapshot {
    double next_release_ms = 0;
    double cumulative_executed = 0;
    double last_actual_work = 0;
  };

  // `tasks` and `machine` must outlive the builder (rebind when they move).
  void Bind(const TaskSet* tasks, const MachineSpec* machine) {
    tasks_ = tasks;
    machine_ = machine;
  }

  // Refreshes `ctx` for time `now_ms`: wall-clock totals from the
  // accountant, and the TaskRuntimeView of every task in `dirty` (defaults
  // from `snapshot(id)`, then the earliest-released unfinished job in `jobs`
  // defines the task's current invocation). `snapshot` is called once per
  // dirty id. Views outside `dirty` are left as the previous Build of `ctx`
  // derived them, so the first build of a context must mark every task. A
  // null `dirty` stands for every task; a host that does not track
  // mutations (the kernel) builds that way each time. The
  // caller clears `dirty` once the context is consumed.
  template <typename SnapshotFn>
  void Build(double now_ms, const std::vector<Job>& jobs,
             const EngineTotals& totals, SnapshotFn&& snapshot,
             PolicyContext* ctx, const DirtyTasks* dirty = nullptr) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    ctx->now_ms = now_ms;
    ctx->tasks = tasks_;
    ctx->machine = machine_;
    // Wall-clock totals for utilization-feedback policies (the interval
    // baseline measures load as work per window; leaving these zero decays
    // it to the minimum frequency regardless of load — found by
    // differential testing, tests/sim/differential_test.cc).
    ctx->cumulative_busy_ms = totals.busy_ms;
    ctx->cumulative_idle_ms = totals.idle_ms;
    ctx->cumulative_work = totals.work;
    const int n = tasks_->size();
    if (dirty == nullptr) {
      if (all_tasks_.num_tasks() != n) {
        all_tasks_.Reset(n);
      }
      dirty = &all_tasks_;
    }
    RTDVS_CHECK_EQ(dirty->num_tasks(), n);
    ctx->views.resize(static_cast<size_t>(n));
    chosen_release_.resize(static_cast<size_t>(n));
    for (int id : dirty->ids()) {
      auto& view = ctx->views[static_cast<size_t>(id)];
      const TaskSnapshot snap = snapshot(id);
      view.has_active_job = false;
      view.next_deadline_ms = snap.next_release_ms;
      view.executed_in_invocation = 0;
      view.worst_case_remaining = 0;
      view.cumulative_executed = snap.cumulative_executed;
      view.last_actual_work = snap.last_actual_work;
      chosen_release_[static_cast<size_t>(id)] = kInf;
    }
    // Earliest unfinished job per task defines the "current invocation".
    // Track the chosen job's release explicitly: comparing a candidate's
    // release against the chosen DEADLINE happens to work for strictly
    // periodic jobs (deadline = release + period) but resolves wrongly for
    // backlogged tasks under MissPolicy::kContinueLate and for CBS
    // replacement jobs, whose release/deadline ordering differs.
    for (const auto& job : jobs) {
      if (job.finished || !dirty->contains(job.task_id)) {
        continue;
      }
      auto& view = ctx->views[static_cast<size_t>(job.task_id)];
      double& chosen = chosen_release_[static_cast<size_t>(job.task_id)];
      if (!view.has_active_job || job.release_ms < chosen) {
        view.has_active_job = true;
        chosen = job.release_ms;
        view.next_deadline_ms = job.deadline_ms;
        view.executed_in_invocation = job.executed_work;
        view.worst_case_remaining = job.RemainingWorstCaseWork();
      }
    }
  }

 private:
  const TaskSet* tasks_ = nullptr;
  const MachineSpec* machine_ = nullptr;
  // Every task marked: the set a null `dirty` stands for.
  DirtyTasks all_tasks_;
  // Release time of each task's chosen invocation; member to avoid
  // per-event allocation.
  std::vector<double> chosen_release_;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_CONTEXT_BUILDER_H_
