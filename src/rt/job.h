// A job is one released invocation of a periodic task.
#ifndef SRC_RT_JOB_H_
#define SRC_RT_JOB_H_

#include <cstdint>

namespace rtdvs {

struct Job {
  int task_id = -1;
  // No caller in src/; kept because perfbench/ overrides or reads it.
  uint64_t uid = 0;
  // 0-based invocation index of this task.
  int64_t invocation = 0;
  double release_ms = 0;
  // Absolute deadline = release + period.
  double deadline_ms = 0;
  // Worst-case work (C_i), in max-frequency milliseconds.
  double wcet_work = 0;
  // Actual work this invocation will require (drawn from the exec-time
  // model; unknown to the scheduler/policy until completion).
  double actual_work = 0;
  // Work executed so far.
  double executed_work = 0;
  bool finished = false;
  // A suspended job is not runnable (used by bandwidth-preserving servers
  // holding budget with an empty queue); schedulers skip it.
  bool suspended = false;
  // Set when the deadline passed before completion.
  bool missed = false;
  // Completion timestamp, valid when finished.
  double completion_ms = 0;

  double RemainingActualWork() const { return actual_work - executed_work; }
  // Remaining budget against the worst case; what an online policy can
  // observe (it never knows actual_work in advance).
  double RemainingWorstCaseWork() const {
    double rem = wcet_work - executed_work;
    return rem > 0 ? rem : 0;
  }
};

}  // namespace rtdvs

#endif  // SRC_RT_JOB_H_
