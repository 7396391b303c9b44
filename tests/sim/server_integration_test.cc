// Integration tests of the aperiodic server inside the simulator: the
// periodic guarantees must be untouched, the aperiodic queue must be served
// within the provisioned bandwidth, and the CBS must beat the polling
// server on response time.
#include <gtest/gtest.h>

#include <memory>

#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/sim/simulator.h"

namespace rtdvs {
namespace {

AperiodicJob Arrival(double t, double work) {
  AperiodicJob job;
  job.arrival_ms = t;
  job.service_work = work;
  return job;
}

SimOptions ServerOptions(ServerKind kind) {
  SimOptions options;
  options.horizon_ms = 1000.0;
  options.aperiodic.kind = kind;
  options.aperiodic.period_ms = 10.0;
  options.aperiodic.budget_ms = 2.0;
  options.aperiodic.arrivals.mean_interarrival_ms = 25.0;
  options.aperiodic.arrivals.mean_service_ms = 1.0;
  options.aperiodic.arrivals.max_service_ms = 2.0;
  return options;
}

TEST(ServerIntegration, PeriodicTasksKeepTheirGuarantees) {
  // Periodic U = 0.6 plus a 0.2 server: total 0.8 <= 1 under EDF.
  TaskSet tasks({{"p1", 20.0, 8.0, 0.0}, {"p2", 50.0, 10.0, 0.0}});
  for (ServerKind kind : {ServerKind::kPolling, ServerKind::kCbs}) {
    for (const char* id : {"edf", "cc_edf", "la_edf"}) {
      auto policy = MakePolicy(id);
      ConstantFractionModel model(1.0);
      SimResult result =
          RunSimulation(tasks, MachineSpec::Machine0(), *policy, model,
                        ServerOptions(kind));
      EXPECT_EQ(result.deadline_misses, 0)
          << id << " kind=" << static_cast<int>(kind);
      EXPECT_GT(result.aperiodic.arrivals, 0);
      EXPECT_GT(result.aperiodic.completions, 0);
      EXPECT_GE(result.server_task_id, 0);
    }
  }
}

TEST(ServerIntegration, ServedWorkNeverExceedsProvisionedBandwidth) {
  TaskSet tasks({{"p1", 20.0, 8.0, 0.0}});
  auto policy = MakePolicy("edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kPolling);
  options.aperiodic.arrivals.mean_interarrival_ms = 2.0;  // overload the server
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  // 2 ms budget per 10 ms period over 1000 ms: at most 200 work units.
  EXPECT_LE(result.aperiodic.served_work, 200.0 + 1e-6);
  EXPECT_GT(result.aperiodic.backlog_work, 0.0);  // overload leaves a queue
  EXPECT_EQ(result.deadline_misses, 0);  // ...but periodic tasks are immune
}

TEST(ServerIntegration, PollingServesOnlyFromPeriodBoundaries) {
  // One request arriving just after the server's release: the polling
  // server (which forfeited its budget at t=0, queue empty) serves it at
  // the NEXT period (CbsServesIsolatedArrivalImmediately is the CBS case).
  TaskSet tasks({{"p1", 100.0, 1.0, 50.0}});  // keep the CPU otherwise free
  auto policy = MakePolicy("edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kPolling);
  options.aperiodic.arrivals.fixed_arrivals = {Arrival(1.0, 1.0)};
  SimResult polling =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  ASSERT_EQ(polling.aperiodic.completions, 1);
  // Waits for the replenishment at t=10, completes at t=11.
  EXPECT_NEAR(polling.aperiodic.max_response_ms, 10.0, 1e-6);
}

TEST(ServerIntegration, CbsPreservesGuaranteesAndServesImmediately) {
  // The CBS both responds at arrival time and provably bounds its
  // interference (like the polling server): back-to-back budget bursts
  // cannot break a periodic deadline.
  TaskSet tasks({{"p1", 20.0, 8.0, 0.0}, {"p2", 50.0, 10.0, 0.0}});
  auto policy = MakePolicy("cc_edf");
  ConstantFractionModel model(1.0);  // worst-case periodic load: U = 0.8
  SimOptions options = ServerOptions(ServerKind::kCbs);
  options.horizon_ms = 4000.0;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_GT(result.aperiodic.completions, 0);
}

TEST(ServerIntegration, CbsServesIsolatedArrivalImmediately) {
  TaskSet tasks({{"p1", 100.0, 1.0, 50.0}});
  auto policy = MakePolicy("edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kCbs);
  options.aperiodic.arrivals.fixed_arrivals = {Arrival(1.0, 1.0)};
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  ASSERT_EQ(result.aperiodic.completions, 1);
  // Served on arrival: 1 work unit at f=1 starting at t=1.
  EXPECT_NEAR(result.aperiodic.max_response_ms, 1.0, 1e-6);
}

TEST(ServerIntegration, CbsPostponesDeadlineOnBudgetExhaustion) {
  // A 5-work request at t = 0 against a 2-work/10-ms CBS: three
  // activations, each a release/completion pair visible in the stats,
  // demand never above U_s = 0.2 in any window. The arrival is served from
  // t = 0 on the otherwise idle CPU: an arrival at t = 0 is a scheduling
  // point even though no other event falls there.
  TaskSet tasks({{"p1", 200.0, 1.0, 100.0}});
  auto policy = MakePolicy("edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kCbs);
  options.aperiodic.arrivals.fixed_arrivals = {Arrival(0.0, 5.0)};
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  ASSERT_GE(result.server_task_id, 0);
  const TaskStats& server_stats =
      result.task_stats[static_cast<size_t>(result.server_task_id)];
  EXPECT_EQ(server_stats.releases, 3);  // wake + two postponements
  EXPECT_EQ(result.aperiodic.completions, 1);
  EXPECT_DOUBLE_EQ(result.aperiodic.served_work, 5.0);
  EXPECT_NEAR(result.aperiodic.max_response_ms, 5.0, 1e-6);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(ServerIntegration, CbsWakeOnAnEmptyBudgetServesAtOnce) {
  // The first request drains the budget exactly ([1, 3)), so the second
  // arrives at t = 4 to a server holding budget 0 under deadline 11. The
  // exhaustion rule recharges it and postpones the deadline to 21 at the
  // wake, so the request is served over [4, 5) on the idle CPU.
  TaskSet tasks({{"p1", 100.0, 1.0, 50.0}});
  auto policy = MakePolicy("edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kCbs);
  options.horizon_ms = 100.0;
  options.aperiodic.arrivals.fixed_arrivals = {Arrival(1.0, 2.0), Arrival(4.0, 1.0)};
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  ASSERT_EQ(result.aperiodic.completions, 2);
  // Responses 2 ms and 1 ms.
  EXPECT_NEAR(result.aperiodic.total_response_ms, 3.0, 1e-6);
  EXPECT_NEAR(result.aperiodic.max_response_ms, 2.0, 1e-6);
  // One activation per request: the wake needs no release of its own.
  EXPECT_EQ(result.task_stats[static_cast<size_t>(result.server_task_id)].releases, 2);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(ServerIntegration, CbsActivationsRecordReleaseEvents) {
  // Every server completion in the trace closes an activation whose
  // release the trace recorded, as for a periodic task.
  TaskSet tasks({{"p1", 20.0, 8.0, 0.0}, {"p2", 50.0, 10.0, 0.0}});
  auto policy = MakePolicy("cc_edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kCbs);
  options.record_trace = true;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  const int server = result.server_task_id;
  int64_t releases = 0;
  int64_t completions = 0;
  for (const TraceEvent& event : result.trace.events()) {
    if (event.task_id != server) {
      continue;
    }
    if (event.kind == TraceEventKind::kRelease) {
      ++releases;
    } else if (event.kind == TraceEventKind::kCompletion) {
      ++completions;
      EXPECT_LE(completions, releases) << "completion at t=" << event.time_ms;
    }
  }
  EXPECT_GT(completions, 0);
  EXPECT_EQ(releases, result.task_stats[static_cast<size_t>(server)].releases);
}

TEST(ServerIntegration, CbsResponseBeatsPollingOnAverage) {
  TaskSet tasks({{"p1", 20.0, 6.0, 0.0}});
  auto run = [&](ServerKind kind) {
    auto policy = MakePolicy("cc_edf");
    ConstantFractionModel model(0.8);
    SimOptions options = ServerOptions(kind);
    options.horizon_ms = 5000.0;
    return RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  };
  SimResult polling = run(ServerKind::kPolling);
  SimResult cbs = run(ServerKind::kCbs);
  EXPECT_LT(cbs.aperiodic.MeanResponseMs(), polling.aperiodic.MeanResponseMs());
  EXPECT_EQ(polling.deadline_misses, 0);
  EXPECT_EQ(cbs.deadline_misses, 0);
}

TEST(ServerIntegration, UnusedServerBudgetLowersCcEdfEnergy) {
  // With few arrivals, ccEDF reclaims the server's unused budget after each
  // server completion; plain EDF burns full speed regardless.
  TaskSet tasks({{"p1", 40.0, 10.0, 0.0}});
  auto run = [&](const char* id) {
    auto policy = MakePolicy(id);
    ConstantFractionModel model(0.6);
    SimOptions options = ServerOptions(ServerKind::kPolling);
    options.horizon_ms = 4000.0;
    options.aperiodic.arrivals.mean_interarrival_ms = 200.0;
    return RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  };
  SimResult edf = run("edf");
  SimResult cc = run("cc_edf");
  EXPECT_EQ(cc.deadline_misses, 0);
  EXPECT_LT(cc.total_energy(), edf.total_energy());
}

TEST(ServerIntegration, SchedulabilityViewIncludesServerTask) {
  // The policies see n+1 tasks; static EDF must scale for U_periodic + U_s.
  TaskSet tasks({{"p1", 10.0, 2.5, 0.0}});  // 0.25
  auto policy = MakePolicy("static_edf");
  ConstantFractionModel model(1.0);
  SimOptions options = ServerOptions(ServerKind::kPolling);  // server U = 0.2
  options.record_trace = true;
  SimResult result =
      RunSimulation(tasks, MachineSpec::Machine0(), *policy, model, options);
  // 0.25 + 0.2 = 0.45 <= 0.5: the half-speed point suffices, and it would
  // not without counting the server.
  for (const auto& seg : result.trace.segments()) {
    EXPECT_DOUBLE_EQ(seg.point.frequency, 0.5);
  }
  EXPECT_EQ(result.deadline_misses, 0);
}

}  // namespace
}  // namespace rtdvs
