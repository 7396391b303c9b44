// Per-run arena for job storage (ROADMAP hot-path item). A simulation run
// grows one std::vector<Job> from empty; at thousands of simulations per
// second (sweep shards run ~300 sims each) the re-growth malloc traffic is
// measurable in the step profile. A JobPool recycles the largest block a
// thread has seen: a run borrows storage with Acquire, uses it as an
// ordinary vector (push_back/erase exactly as before — results are
// bit-identical because capacity is not observable), and returns it with
// Release.
//
// Pools are NOT thread-safe: use one pool per worker thread. The sweep
// runner wires the calling thread's pool into SimOptions::job_pool via
// ThreadLocalJobPool(); standalone Simulator users may leave the option
// null and keep the plain per-run vector.
#ifndef SRC_RT_JOB_POOL_H_
#define SRC_RT_JOB_POOL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/rt/job.h"

namespace rtdvs {

class JobPool {
 public:
  // Returns an empty vector with at least `reserve_hint` capacity — the
  // pooled block when one is available, a fresh allocation otherwise.
  std::vector<Job> Acquire(size_t reserve_hint) {
    std::vector<Job> out = std::move(spare_);
    spare_ = std::vector<Job>();
    out.clear();
    if (out.capacity() < reserve_hint) {
      out.reserve(reserve_hint);
    }
    return out;
  }

  // Returns storage to the pool; the larger of (pooled, returned) block is
  // kept so capacity ratchets up to the thread's high-water mark.
  void Release(std::vector<Job>&& jobs) {
    if (jobs.capacity() > spare_.capacity()) {
      spare_ = std::move(jobs);
      spare_.clear();
    }
  }

 private:
  std::vector<Job> spare_;
};

// The calling thread's pool (lazily constructed, destroyed with the
// thread). Sweep shards run many simulations back to back on one worker
// thread; routing them through this pool makes the job vector's heap block
// survive across runs.
inline JobPool& ThreadLocalJobPool() {
  thread_local JobPool pool;
  return pool;
}

}  // namespace rtdvs

#endif  // SRC_RT_JOB_POOL_H_
