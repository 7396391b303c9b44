// Ready-job selection in a scheduler's priority order, plus the preemption
// accounting both hosts derive from consecutive picks. Pick takes the order
// from a bound virtual Scheduler (the kernel); PickTrackedWith,
// PickTrackedSince and PickTopK take it as an inline comparator (the
// simulator's loop knows its scheduler kind statically). The job vector
// stays owned by the host (jobs are value types that hosts erase and remap
// freely — the kernel renumbers dense task ids on unregister), so the queue
// keeps no index into it. Pick and PickTrackedWith scan every job,
// O(active jobs). PickTrackedSince is the single-core simulator's pick: a
// host that says what changed since its last pick pays only for the jobs
// added since then. The order is total (EDF and RM break ties by task id,
// then release) and a job's key never changes, so while jobs are only
// added, the best job is the better of the previous best and the new ones.
// PickTopK is the global multi-core pick: one pass keeping the best k jobs,
// one per task, in a buffer of k, with no sort and no allocation.
#ifndef SRC_ENGINE_READY_QUEUE_H_
#define SRC_ENGINE_READY_QUEUE_H_

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

  // Highest-priority unfinished job, or Scheduler::kNone. Inline: selection
  // runs once per step on both hosts.
  size_t Pick(const std::vector<Job>& jobs, const TaskSet& tasks) const {
    RTDVS_PROF_SCOPE("engine/ready_queue/pick");
    RTDVS_CHECK(scheduler_ != nullptr) << "ReadyQueue used before BindScheduler";
    return scheduler_->PickJob(jobs, tasks);
  }

  // Pick() plus preemption detection, with an inline comparator
  // (EdfComparator / RmComparator or any callable matching
  // Scheduler::HigherPriority's order): increments *preemptions when a
  // different job wins while the previously picked invocation is still
  // unfinished in `jobs`. Idle intervals do not reset the tracking (a job
  // resuming after idle is not a preemption). The whole selection+tracking
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

  // PickTrackedWith for a host that knows the best runnable job among
  // jobs[0, first_new): `previous` (Scheduler::kNone if there is none), as
  // its last pick found it while jobs were only appended since. The pick is
  // the better of `previous` and jobs[first_new..); first_new = 0 is a full
  // scan. The host reports every job it finishes through Forget, so the
  // previously picked job is unfinished while tracked and the preemption
  // rule needs no scan.
  template <typename HigherPri>
  size_t PickTrackedSince(const std::vector<Job>& jobs, size_t previous,
                          size_t first_new, const HigherPri& higher,
                          int64_t* preemptions) {
    RTDVS_PROF_SCOPE("engine/ready_queue/pick");
    size_t running = previous;
    for (size_t i = first_new; i < jobs.size(); ++i) {
      if (jobs[i].finished) {
        continue;
      }
      if (running == Scheduler::kNone || higher(jobs[i], jobs[running])) {
        running = i;
      }
    }
    if (running == Scheduler::kNone) {
      return running;
    }
    const Job& job = jobs[running];
    if (previous_task_ >= 0 && (job.task_id != previous_task_ ||
                                job.invocation != previous_invocation_)) {
      ++*preemptions;
    }
    previous_task_ = job.task_id;
    previous_invocation_ = job.invocation;
    return running;
  }

  // The host finished (completed or aborted) `job`: a finished job cannot be
  // preempted, so if it is the previously picked one, tracking restarts.
  void Forget(const Job& job) {
    if (job.task_id == previous_task_ && job.invocation == previous_invocation_) {
      ResetTracking();
    }
  }

  // Global-mode selection (multiprocessor cluster, src/sim/mp_simulator.h):
  // up to `k` highest-priority runnable jobs in priority order, at most one
  // job per task — a task's backlogged invocations never run in parallel.
  // `higher` is the priority order, as for PickTrackedSince. The result is
  // exactly "stable-sort the runnable jobs by priority, then take the first
  // job of each task not yet taken", ties included, selected in one pass
  // without sorting or allocating: a buffer of at most k picks stays in
  // priority order, and each job in creation order either replaces its
  // task's pick (only if strictly higher), or enters ahead of the first pick
  // it beats (when the buffer is full, only if it beats the last one, which
  // it then evicts). The last pick only ever improves, so a job that cannot
  // enter could not have been picked. O(jobs x k), one comparison per job
  // that does not enter a full buffer. Returns indices into `jobs`, as a
  // reference to member scratch valid until the next PickTopK call on this
  // queue.
  template <typename HigherPri>
  const std::vector<size_t>& PickTopK(const std::vector<Job>& jobs, size_t k,
                                      const HigherPri& higher) {
    RTDVS_PROF_SCOPE("engine/ready_queue/pick_top_k");
    std::vector<size_t>& picked = picked_scratch_;
    picked.clear();
    if (k == 0) {
      return picked;
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      if (job.finished) {
        continue;
      }
      const bool full = picked.size() == k;
      if (full && !higher(job, jobs[picked.back()])) {
        // Below the last pick, hence below every pick, its task's included.
        continue;
      }
      size_t slot = 0;
      while (slot < picked.size() && jobs[picked[slot]].task_id != job.task_id) {
        ++slot;
      }
      if (slot < picked.size()) {
        if (!higher(job, jobs[picked[slot]])) {
          continue;
        }
        picked.erase(picked.begin() + static_cast<std::ptrdiff_t>(slot));
      } else if (full) {
        picked.pop_back();
      }
      size_t pos = 0;
      while (pos < picked.size() && !higher(job, jobs[picked[pos]])) {
        ++pos;
      }
      picked.insert(picked.begin() + static_cast<std::ptrdiff_t>(pos), i);
    }
    return picked;
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
  // PickTopK's result (see its doc comment).
  std::vector<size_t> picked_scratch_;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_READY_QUEUE_H_
