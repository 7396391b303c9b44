// Preemptive priority schedulers: Earliest-Deadline-First (dynamic priority)
// and Rate-Monotonic (static priority by period), the two schedulers the
// paper integrates DVS with (§2.2).
#ifndef SRC_RT_SCHEDULER_H_
#define SRC_RT_SCHEDULER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/rt/job.h"
#include "src/rt/task.h"

namespace rtdvs {

enum class SchedulerKind {
  kEdf,
  kRm,
};

std::string SchedulerKindName(SchedulerKind kind);

// The priority comparisons and the shared selection loop, inline so hosts
// that know the scheduler kind statically (the simulator's event loop is
// templated on it) select with zero virtual dispatch per step. The virtual
// Scheduler interface below routes through the same functions, so the two
// paths cannot drift.
inline bool EdfHigherPriority(const Job& a, const Job& b) {
  if (a.deadline_ms != b.deadline_ms) {
    return a.deadline_ms < b.deadline_ms;
  }
  if (a.task_id != b.task_id) {
    return a.task_id < b.task_id;
  }
  return a.release_ms < b.release_ms;
}

// RM compares task periods; `periods` is a dense task-id-indexed array (the
// hosts' SoA period cache) so the comparison never gathers from the Task
// struct on the hot path.
inline bool RmHigherPriority(const Job& a, const Job& b, const double* periods) {
  double pa = periods[a.task_id];
  double pb = periods[b.task_id];
  if (pa != pb) {
    return pa < pb;
  }
  if (a.task_id != b.task_id) {
    return a.task_id < b.task_id;
  }
  return a.release_ms < b.release_ms;
}

struct EdfComparator {
  bool operator()(const Job& a, const Job& b) const {
    return EdfHigherPriority(a, b);
  }
};

struct RmComparator {
  const double* periods;  // dense, indexed by task id
  bool operator()(const Job& a, const Job& b) const {
    return RmHigherPriority(a, b, periods);
  }
};

// Selection loop shared by every pick path: highest-priority unfinished
// job; ties resolve to the lowest index.
template <typename HigherPri>
inline size_t PickJobWith(const std::vector<Job>& jobs, HigherPri&& higher) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t best = kNone;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].finished) {
      continue;
    }
    if (best == kNone || higher(jobs[i], jobs[best])) {
      best = i;
    }
  }
  return best;
}

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual SchedulerKind kind() const = 0;

  // Returns the index (into `jobs`) of the job to run, or kNone when no job
  // is runnable. Jobs flagged finished are skipped; ties
  // resolve to the lowest index among equal-priority jobs.
  virtual size_t PickJob(const std::vector<Job>& jobs,
                         const TaskSet& tasks) const = 0;

  static constexpr size_t kNone = static_cast<size_t>(-1);
};

// Highest priority = earliest absolute deadline; ties by task id, then by
// release time (FIFO within a task). PickJob inlines the per-element
// comparison (the selection runs once per kernel tick).
class EdfScheduler : public Scheduler {
 public:
  SchedulerKind kind() const override { return SchedulerKind::kEdf; }
  size_t PickJob(const std::vector<Job>& jobs, const TaskSet& tasks) const override;
};

// Highest priority = shortest period; ties by task id, FIFO within a task.
class RmScheduler : public Scheduler {
 public:
  SchedulerKind kind() const override { return SchedulerKind::kRm; }
  size_t PickJob(const std::vector<Job>& jobs, const TaskSet& tasks) const override;
};

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind);

}  // namespace rtdvs

#endif  // SRC_RT_SCHEDULER_H_
