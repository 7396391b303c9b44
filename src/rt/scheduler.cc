#include "src/rt/scheduler.h"

#include "src/util/check.h"

namespace rtdvs {

std::string SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEdf:
      return "EDF";
    case SchedulerKind::kRm:
      return "RM";
  }
  return "?";
}

namespace {

// TaskSet-indirected form of RmHigherPriority for RmScheduler::PickJob,
// which has no dense period cache to hand over.
inline bool PeriodHigherPriority(const Job& a, const Job& b,
                                 const TaskSet& tasks) {
  double pa = tasks.task(a.task_id).period_ms;
  double pb = tasks.task(b.task_id).period_ms;
  if (pa != pb) {
    return pa < pb;
  }
  if (a.task_id != b.task_id) {
    return a.task_id < b.task_id;
  }
  return a.release_ms < b.release_ms;
}

}  // namespace

size_t EdfScheduler::PickJob(const std::vector<Job>& jobs,
                             const TaskSet& tasks) const {
  (void)tasks;
  return PickJobWith(jobs, EdfComparator{});
}

size_t RmScheduler::PickJob(const std::vector<Job>& jobs,
                            const TaskSet& tasks) const {
  return PickJobWith(jobs, [&tasks](const Job& a, const Job& b) {
    return PeriodHigherPriority(a, b, tasks);
  });
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEdf:
      return std::make_unique<EdfScheduler>();
    case SchedulerKind::kRm:
      return std::make_unique<RmScheduler>();
  }
  RTDVS_CHECK(false) << "unknown scheduler kind";
  return nullptr;
}

}  // namespace rtdvs
