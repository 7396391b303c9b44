// Ready-job selection keyed by the active Scheduler's priority order, plus
// the preemption accounting both hosts derive from consecutive picks. The
// job vector stays owned by the host (jobs are value types that hosts erase
// and remap freely — the kernel renumbers dense task ids on unregister), so
// selection is a scan under Scheduler::HigherPriority rather than a
// persistent index; the scan is O(active jobs).
#ifndef SRC_ENGINE_READY_QUEUE_H_
#define SRC_ENGINE_READY_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rt/job.h"
#include "src/rt/scheduler.h"
#include "src/rt/task.h"
#include "src/util/check.h"
#include "src/util/profiler.h"

namespace rtdvs {

class ReadyQueue {
 public:
  // `scheduler` must outlive the queue; rebind on policy hot-swap.
  void BindScheduler(const Scheduler* scheduler) { scheduler_ = scheduler; }

  // Highest-priority runnable job (finished/suspended skipped), or
  // Scheduler::kNone. Inline: selection runs once per step on both hosts.
  size_t Pick(const std::vector<Job>& jobs, const TaskSet& tasks) const {
    RTDVS_PROF_SCOPE("engine/ready_queue/pick");
    RTDVS_CHECK(scheduler_ != nullptr) << "ReadyQueue used before BindScheduler";
    return scheduler_->PickJob(jobs, tasks);
  }

  // Pick() plus preemption detection: increments *preemptions when a
  // different job wins while the previously picked invocation is still
  // unfinished in `jobs`. Idle intervals do not reset the tracking (a job
  // resuming after idle is not a preemption).
  size_t PickTracked(const std::vector<Job>& jobs, const TaskSet& tasks,
                     int64_t* preemptions) {
    size_t running = Pick(jobs, tasks);
    if (running == Scheduler::kNone) {
      return running;
    }
    const Job& job = jobs[running];
    if (previous_task_ >= 0 && (job.task_id != previous_task_ ||
                                job.invocation != previous_invocation_)) {
      // Was the previously running job still unfinished?
      for (const auto& other : jobs) {
        if (other.task_id == previous_task_ &&
            other.invocation == previous_invocation_ && !other.finished) {
          ++*preemptions;
          break;
        }
      }
    }
    previous_task_ = job.task_id;
    previous_invocation_ = job.invocation;
    return running;
  }

  // PickTracked with an inline comparator (EdfComparator / RmComparator or
  // any callable matching Scheduler::HigherPriority's order): for hosts
  // that know the scheduler kind statically, the whole selection+tracking
  // step compiles down to one loop with zero virtual dispatch. Must be
  // handed a comparator implementing the SAME order as the bound
  // scheduler — both routes share the comparison functions in
  // src/rt/scheduler.h, so that holds by construction.
  template <typename HigherPri>
  size_t PickTrackedWith(const std::vector<Job>& jobs, const HigherPri& higher,
                         int64_t* preemptions) {
    size_t running;
    {
      RTDVS_PROF_SCOPE("engine/ready_queue/pick");
      running = PickJobWith(jobs, higher);
    }
    if (running == Scheduler::kNone) {
      return running;
    }
    const Job& job = jobs[running];
    if (previous_task_ >= 0 && (job.task_id != previous_task_ ||
                                job.invocation != previous_invocation_)) {
      for (const auto& other : jobs) {
        if (other.task_id == previous_task_ &&
            other.invocation == previous_invocation_ && !other.finished) {
          ++*preemptions;
          break;
        }
      }
    }
    previous_task_ = job.task_id;
    previous_invocation_ = job.invocation;
    return running;
  }

  // Global-mode selection (multiprocessor cluster, src/sim/mp_simulator.h):
  // up to `k` highest-priority runnable jobs in priority order, at most one
  // job per task — a task's backlogged invocations never run in parallel.
  // Deterministic: ties resolve by the scheduler's total order (EDF/RM both
  // break ties by task id then release), and the stable sort preserves
  // creation order beyond that. Returns indices into `jobs`.
  // Returns a reference to member scratch, valid until the next PickTopK
  // call on this queue (the global-mode loop consumes it immediately; it
  // previously returned a fresh vector per step, three allocations per
  // global scheduling decision).
  const std::vector<size_t>& PickTopK(const std::vector<Job>& jobs,
                                      const TaskSet& tasks, size_t k) {
    RTDVS_PROF_SCOPE("engine/ready_queue/pick_top_k");
    RTDVS_CHECK(scheduler_ != nullptr) << "ReadyQueue used before BindScheduler";
    ready_scratch_.clear();
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].finished && !jobs[i].suspended) {
        ready_scratch_.push_back(i);
      }
    }
    std::stable_sort(ready_scratch_.begin(), ready_scratch_.end(),
                     [&](size_t a, size_t b) {
                       return scheduler_->HigherPriority(jobs[a], jobs[b], tasks);
                     });
    picked_scratch_.clear();
    claimed_scratch_.assign(static_cast<size_t>(tasks.size()), 0);
    for (size_t index : ready_scratch_) {
      if (picked_scratch_.size() >= k) {
        break;
      }
      auto task = static_cast<size_t>(jobs[index].task_id);
      if (claimed_scratch_[task]) {
        continue;
      }
      claimed_scratch_[task] = 1;
      picked_scratch_.push_back(index);
    }
    return picked_scratch_;
  }

  // Forgets the previously picked invocation (call before a fresh run).
  void ResetTracking() {
    previous_task_ = -1;
    previous_invocation_ = -1;
  }

 private:
  const Scheduler* scheduler_ = nullptr;
  int previous_task_ = -1;
  int64_t previous_invocation_ = -1;
  // PickTopK scratch (see its doc comment).
  std::vector<size_t> ready_scratch_;
  std::vector<size_t> picked_scratch_;
  std::vector<char> claimed_scratch_;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_READY_QUEUE_H_
