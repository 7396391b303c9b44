// ReadyQueue::PickTopK against its definition: stable-sort the runnable jobs
// by priority, then walk that order and take the first job of each task not
// yet taken, until k are taken. Random job vectors (seeded) draw deadlines,
// periods and releases from small grids so ties are common, give tasks
// backlogs of up to three live jobs (some exact duplicates, which only
// creation order separates), mark jobs finished, and ask for more cores
// than there are ready tasks, under EDF, RM and an order that leaves jobs
// of different tasks tied.
#include "src/engine/ready_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace rtdvs {
namespace {

struct Case {
  std::vector<Job> jobs;
  std::vector<double> periods;
  int num_tasks = 0;
};

Case RandomCase(Pcg32& rng) {
  Case c;
  c.num_tasks = 1 + static_cast<int>(rng.NextBounded(12));
  for (int id = 0; id < c.num_tasks; ++id) {
    c.periods.push_back(4.0 * (1 + rng.NextBounded(4)));
  }
  // Tasks' jobs interleave in creation order, as releases of different
  // tasks do in a host's job vector.
  const int rounds = 1 + static_cast<int>(rng.NextBounded(3));
  for (int round = 0; round < rounds; ++round) {
    for (int id = 0; id < c.num_tasks; ++id) {
      if (rng.NextBounded(4) == 0) {
        continue;
      }
      Job job;
      job.task_id = id;
      job.invocation = round;
      if (!c.jobs.empty() && rng.NextBounded(8) == 0) {
        // An exact copy of the previous job's key: a tie that only the
        // creation order resolves.
        const Job& prev = c.jobs.back();
        job.task_id = prev.task_id;
        job.release_ms = prev.release_ms;
        job.deadline_ms = prev.deadline_ms;
      } else {
        job.release_ms = 2.0 * rng.NextBounded(4);
        job.deadline_ms = job.release_ms + 2.0 * (1 + rng.NextBounded(4));
      }
      job.finished = rng.NextBounded(6) == 0;
      c.jobs.push_back(job);
    }
  }
  return c;
}

// The definition PickTopK implements.
template <typename HigherPri>
std::vector<size_t> ReferenceTopK(const Case& c, size_t k,
                                  const HigherPri& higher) {
  std::vector<size_t> ready;
  for (size_t i = 0; i < c.jobs.size(); ++i) {
    if (!c.jobs[i].finished) {
      ready.push_back(i);
    }
  }
  std::stable_sort(ready.begin(), ready.end(), [&](size_t a, size_t b) {
    return higher(c.jobs[a], c.jobs[b]);
  });
  std::vector<size_t> picked;
  std::vector<bool> claimed(static_cast<size_t>(c.num_tasks), false);
  for (size_t index : ready) {
    if (picked.size() >= k) {
      break;
    }
    const auto task = static_cast<size_t>(c.jobs[index].task_id);
    if (!claimed[task]) {
      claimed[task] = true;
      picked.push_back(index);
    }
  }
  return picked;
}

template <typename HigherPri>
void CheckRandomCases(uint64_t seed, const HigherPri& make_higher) {
  Pcg32 rng(seed);
  ReadyQueue queue;  // one queue across cases: its scratch is reused
  int64_t backlogged = 0;
  int64_t short_of_k = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Case c = RandomCase(rng);
    const auto higher = make_higher(c);
    const size_t k = 1 + rng.NextBounded(6);
    const std::vector<size_t> want = ReferenceTopK(c, k, higher);
    const std::vector<size_t> got = queue.PickTopK(c.jobs, k, higher);
    ASSERT_EQ(got, want) << "seed " << seed << " trial " << trial << " k " << k;
    std::vector<int> live(static_cast<size_t>(c.num_tasks), 0);
    for (const Job& job : c.jobs) {
      if (!job.finished && ++live[static_cast<size_t>(job.task_id)] >= 2) {
        ++backlogged;
        break;
      }
    }
    short_of_k += want.size() < k ? 1 : 0;
  }
  // The draws must reach the cases the selection is subtle on.
  EXPECT_GT(backlogged, 200);
  EXPECT_GT(short_of_k, 200);
}

TEST(ReadyQueuePickTopKTest, MatchesStableSortDefinitionUnderEdf) {
  CheckRandomCases(1, [](const Case&) { return EdfComparator{}; });
}

TEST(ReadyQueuePickTopKTest, MatchesStableSortDefinitionUnderRm) {
  CheckRandomCases(2, [](const Case& c) { return RmComparator{c.periods.data()}; });
}

TEST(ReadyQueuePickTopKTest, MatchesStableSortDefinitionWithTiesAcrossTasks) {
  // EDF and RM break every tie between tasks by id; a deadline-only order
  // leaves them tied, so only creation order may decide, as in the stable
  // sort.
  CheckRandomCases(3, [](const Case&) {
    return [](const Job& a, const Job& b) { return a.deadline_ms < b.deadline_ms; };
  });
}

TEST(ReadyQueuePickTopKTest, OneJobPerTaskEvenWhenItsBacklogOutranksOthers) {
  // Task 0's two live jobs both beat task 1's: the second core still goes to
  // task 1, never to task 0's later invocation.
  std::vector<Job> jobs(3);
  jobs[0].task_id = 0;
  jobs[0].deadline_ms = 4.0;
  jobs[1].task_id = 0;
  jobs[1].release_ms = 4.0;
  jobs[1].deadline_ms = 8.0;
  jobs[2].task_id = 1;
  jobs[2].deadline_ms = 12.0;
  ReadyQueue queue;
  EXPECT_EQ(queue.PickTopK(jobs, 2, EdfComparator{}),
            (std::vector<size_t>{0, 2}));
  // The older job finished: the newer one is the task's candidate.
  jobs[0].finished = true;
  EXPECT_EQ(queue.PickTopK(jobs, 2, EdfComparator{}),
            (std::vector<size_t>{1, 2}));
  // No runnable job at all.
  jobs[1].finished = true;
  jobs[2].finished = true;
  EXPECT_TRUE(queue.PickTopK(jobs, 2, EdfComparator{}).empty());
}

}  // namespace
}  // namespace rtdvs
