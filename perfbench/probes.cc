#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/cpu/energy_model.h"
#include "src/cpu/machine_spec.h"
#include "src/engine/context_builder.h"
#include "src/engine/energy_accountant.h"
#include "src/engine/event_queue.h"
#include "src/engine/ready_queue.h"
#include "src/rt/job.h"
#include "src/rt/scheduler.h"
#include "src/rt/taskset_generator.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 7;

// Keeps `value` observable so the timed loop cannot be folded away.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median ns per operation of `body(iterations)`, which performs `ops`
// operations in total.
template <typename Body>
double MedianNsPerOp(int64_t iterations, int64_t ops, Body&& body) {
  std::vector<double> samples;
  body(iterations / 4);  // warm caches and branch predictors
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    body(iterations);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    samples.push_back(ns / static_cast<double>(ops));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// A task set shaped like the workload's, with `n` tasks: utilization 0.5
// per core (2.0 for the 4-core workload).
rtdvs::TaskSet ProbeTaskSet(Workload workload, uint64_t seed, int n) {
  rtdvs::TaskSetGeneratorOptions options;
  options.num_tasks = n;
  options.target_utilization = workload == Workload::kMpGlobal ? 2.0 : 0.5;
  rtdvs::Pcg32 rng(seed ^ static_cast<uint64_t>(n));
  return rtdvs::TaskSetGenerator(options).Generate(rng);
}

// One released, partly executed job per task.
std::vector<rtdvs::Job> ProbeJobs(const rtdvs::TaskSet& tasks, uint64_t seed) {
  rtdvs::Pcg32 rng(seed);
  std::vector<rtdvs::Job> jobs;
  for (int id = 0; id < tasks.size(); ++id) {
    const rtdvs::Task& task = tasks.task(id);
    rtdvs::Job job;
    job.task_id = id;
    job.uid = static_cast<uint64_t>(id) + 1;
    job.release_ms = rng.UniformDouble(0.0, task.period_ms);
    job.deadline_ms = job.release_ms + task.period_ms;
    job.wcet_work = task.wcet_ms;
    job.actual_work = rng.UniformDouble(0.0, 1.0) * task.wcet_ms;
    job.executed_work = rng.UniformDouble(0.0, 1.0) * job.actual_work;
    jobs.push_back(job);
  }
  return jobs;
}

double PickProbe(const rtdvs::TaskSet& tasks, uint64_t seed) {
  std::vector<rtdvs::Job> jobs = ProbeJobs(tasks, seed);
  rtdvs::EdfScheduler scheduler;
  rtdvs::ReadyQueue queue;
  queue.BindScheduler(&scheduler);
  const int64_t iterations = 200'000;
  return MedianNsPerOp(iterations, iterations, [&](int64_t count) {
    int64_t preemptions = 0;
    size_t picked = 0;
    for (int64_t i = 0; i < count; ++i) {
      picked += queue.PickTrackedWith(jobs, rtdvs::EdfComparator{}, &preemptions);
      // Move one deadline so consecutive picks see a changed queue.
      rtdvs::Job& job = jobs[static_cast<size_t>(i) % jobs.size()];
      job.deadline_ms += tasks.task(job.task_id).period_ms;
    }
    KeepAlive(picked);
    KeepAlive(preemptions);
  });
}

double ContextBuildProbe(const rtdvs::TaskSet& tasks, uint64_t seed) {
  std::vector<rtdvs::Job> jobs = ProbeJobs(tasks, seed);
  const rtdvs::MachineSpec machine = rtdvs::MachineSpec::Machine0();
  rtdvs::ContextBuilder contexts;
  contexts.Bind(&tasks, &machine);
  std::vector<rtdvs::ContextBuilder::TaskSnapshot> snapshots(
      static_cast<size_t>(tasks.size()));
  for (int id = 0; id < tasks.size(); ++id) {
    snapshots[static_cast<size_t>(id)] = {tasks.task(id).period_ms, 0.0,
                                          tasks.task(id).wcet_ms};
  }
  rtdvs::EngineTotals totals;
  rtdvs::PolicyContext ctx;
  const int64_t iterations = 100'000;
  return MedianNsPerOp(iterations, iterations, [&](int64_t count) {
    double now = 0;
    for (int64_t i = 0; i < count; ++i) {
      now += 0.125;
      rtdvs::Job& job = jobs[static_cast<size_t>(i) % jobs.size()];
      job.executed_work = job.executed_work > 0 ? 0.0 : job.actual_work * 0.5;
      contexts.Build(now, jobs, totals,
                     [&](int id) { return snapshots[static_cast<size_t>(id)]; },
                     &ctx);
      KeepAlive(ctx.views.front());
    }
  });
}

double SegmentProbe() {
  const rtdvs::MachineSpec machine = rtdvs::MachineSpec::Machine0();
  rtdvs::ModelEnergyAccountant accountant(rtdvs::EnergyModel(0.0, 1.0));
  std::vector<rtdvs::PointResidency> residency(machine.num_points());
  accountant.BindResidency(&machine, &residency);
  const auto& points = machine.points();
  const int64_t iterations = 200'000;
  return MedianNsPerOp(iterations, 2 * iterations, [&](int64_t count) {
    double t = 0;
    for (int64_t i = 0; i < count; ++i) {
      const rtdvs::OperatingPoint& point =
          points[static_cast<size_t>(i) % points.size()];
      accountant.RecordExecution(t, t + 1.5, 1.5 * point.frequency,
                                 static_cast<int>(i % 15), point);
      accountant.RecordIdle(t + 1.5, t + 2.0, point);
      t += 2.0;
    }
    KeepAlive(accountant.totals());
  });
}

double EventQueueProbe(const rtdvs::TaskSet& tasks) {
  // One round: every task's next four releases pushed, then drained in
  // time order.
  std::vector<double> times;
  for (int k = 1; k <= 4; ++k) {
    for (const rtdvs::Task& task : tasks.tasks()) {
      times.push_back(task.period_ms * k);
    }
  }
  rtdvs::EventQueue queue;
  const int64_t rounds = 4'000;
  const int64_t ops = rounds * static_cast<int64_t>(2 * times.size());
  return MedianNsPerOp(rounds, ops, [&](int64_t count) {
    double checksum = 0;
    for (int64_t r = 0; r < count; ++r) {
      for (size_t i = 0; i < times.size(); ++i) {
        queue.Push(times[i], rtdvs::EngineEventType::kRelease,
                   static_cast<int>(i % static_cast<size_t>(tasks.size())));
      }
      while (!queue.Empty()) {
        checksum += queue.Pop().time_ms;
      }
    }
    KeepAlive(checksum);
  });
}

}  // namespace

EngineProbes RunEngineProbes(Workload workload, uint64_t seed) {
  const rtdvs::TaskSet n5 = ProbeTaskSet(workload, seed, 5);
  const rtdvs::TaskSet n15 = ProbeTaskSet(workload, seed, 15);
  const rtdvs::TaskSet& native =
      workload == Workload::kAperiodicServer ? n5 : n15;
  EngineProbes probes;
  probes.pick_ns_n15 = PickProbe(n15, seed);
  probes.context_build_ns_n5 = ContextBuildProbe(n5, seed);
  probes.context_build_ns_n15 = ContextBuildProbe(n15, seed);
  probes.segment_ns = SegmentProbe();
  probes.event_queue_op_ns = EventQueueProbe(native);
  return probes;
}

}  // namespace perfbench
