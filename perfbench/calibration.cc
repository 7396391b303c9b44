#include "perfbench/calibration.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// Simulated events per thread in one slice.
constexpr int kEventsPerSlice = 400'000;
constexpr int kTasks = 16;

struct MiniJob {
  double deadline = 0;
  double remaining = 0;
  std::vector<double> record;  // one heap allocation per job, like a job log
};

// A fixed EDF simulation: tasks release jobs at their periods (an event
// heap keyed by release time), the earliest-deadline pending job runs
// until the next release at a speed picked from the pending demand, and
// finished jobs are freed. Returns a checksum so the work is not elided.
double MiniEdfKernel(uint64_t seed) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double period[kTasks];
  double wcet[kTasks];
  using Release = std::pair<double, int>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> releases;
  for (int i = 0; i < kTasks; ++i) {
    period[i] = 5.0 + static_cast<double>(next() % 200);
    wcet[i] = period[i] * 0.05;
    releases.push({0.0, i});
  }
  std::vector<std::unique_ptr<MiniJob>> pending;
  double now = 0;
  double energy = 0;
  for (int event = 0; event < kEventsPerSlice; ++event) {
    const auto [at, task] = releases.top();
    releases.pop();
    // Run the pending jobs, earliest deadline first, until `at`.
    while (now < at && !pending.empty()) {
      size_t best = 0;
      double demand = 0;
      for (size_t j = 0; j < pending.size(); ++j) {
        demand += pending[j]->remaining / (pending[j]->deadline - now + 1.0);
        if (pending[j]->deadline < pending[best]->deadline) {
          best = j;
        }
      }
      const double speed = demand > 0.75 ? 1.0 : demand > 0.5 ? 0.75 : 0.5;
      MiniJob& job = *pending[best];
      const double run = std::min(at - now, job.remaining / speed);
      job.remaining -= run * speed;
      job.record.push_back(run);
      energy += run * speed * speed;
      now += run;
      if (job.remaining <= 1e-12) {
        pending[best] = std::move(pending.back());
        pending.pop_back();
      }
    }
    now = at;
    auto job = std::make_unique<MiniJob>();
    job->deadline = at + period[task];
    job->remaining =
        wcet[task] * (0.5 + 0.5 * static_cast<double>(next() % 1024) / 1024.0);
    job->record.reserve(4);
    pending.push_back(std::move(job));
    releases.push({at + period[task], task});
  }
  return energy + static_cast<double>(pending.size());
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

CalibrationSlice RunCalibrationSlice(int workers) {
  std::vector<double> checksums(static_cast<size_t>(workers));
  std::vector<double> cpu_ms(static_cast<size_t>(workers));
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&checksums, &cpu_ms, w] {
        const size_t i = static_cast<size_t>(w);
        const double cpu_start = ThreadCpuMs();
        checksums[i] = MiniEdfKernel(static_cast<uint64_t>(w));
        cpu_ms[i] = ThreadCpuMs() - cpu_start;
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  CalibrationSlice slice;
  slice.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  for (double ms : cpu_ms) {
    slice.cpu_ms += ms / static_cast<double>(workers);
  }
  volatile double sink = checksums[0];
  (void)sink;
  return slice;
}

}  // namespace perfbench
