#include "src/rt/aperiodic.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rtdvs {
namespace {

AperiodicServerConfig FixedConfig(ServerKind kind,
                                  std::vector<AperiodicJob> arrivals) {
  AperiodicServerConfig config;
  config.kind = kind;
  config.period_ms = 10.0;
  config.budget_ms = 3.0;
  config.arrivals.fixed_arrivals = std::move(arrivals);
  return config;
}

AperiodicJob Arrival(double t, double work) {
  AperiodicJob job;
  job.arrival_ms = t;
  job.service_work = work;
  return job;
}

TEST(AperiodicServerState, AdmitsFixedArrivalsInOrder) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kPolling, {Arrival(1, 2), Arrival(5, 1)}), 1);
  EXPECT_DOUBLE_EQ(state.NextArrivalMs(), 1.0);
  state.AdmitArrivals(0.5);
  EXPECT_TRUE(state.QueueEmpty());
  state.AdmitArrivals(1.0);
  EXPECT_FALSE(state.QueueEmpty());
  EXPECT_DOUBLE_EQ(state.NextArrivalMs(), 5.0);
  EXPECT_EQ(state.stats().arrivals, 1);
  state.AdmitArrivals(10.0);
  EXPECT_EQ(state.stats().arrivals, 2);
  EXPECT_TRUE(std::isinf(state.NextArrivalMs()));
}

TEST(AperiodicServerState, ServableWorkIsBudgetLimited) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kPolling, {Arrival(0, 5)}), 1);
  state.AdmitArrivals(0.0);
  EXPECT_DOUBLE_EQ(state.ServableWork(), 3.0);  // budget 3 < demand 5
  state.Execute(3.0, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(state.budget_remaining(), 0.0);
  EXPECT_DOUBLE_EQ(state.ServableWork(), 0.0);
  state.Replenish();
  EXPECT_DOUBLE_EQ(state.ServableWork(), 2.0);  // remaining demand
}

TEST(AperiodicServerState, ExecuteInterpolatesCompletionTimes) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kPolling, {Arrival(0, 1), Arrival(0, 1)}), 1);
  state.AdmitArrivals(0.0);
  // Serve both jobs (2 work) in a segment ending at t=4 at frequency 0.5:
  // the first finishes 1 work-unit (2 ms) before the end.
  state.Execute(2.0, 4.0, 0.5);
  EXPECT_EQ(state.stats().completions, 2);
  EXPECT_DOUBLE_EQ(state.stats().max_response_ms, 4.0);
  EXPECT_DOUBLE_EQ(state.stats().total_response_ms, 2.0 + 4.0);
}

TEST(AperiodicServerState, ForfeitZeroesBudget) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kPolling, {Arrival(0, 1)}), 1);
  state.ForfeitBudget();
  EXPECT_DOUBLE_EQ(state.budget_remaining(), 0.0);
}

TEST(AperiodicServerState, FinalizeRecordsBacklog) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kPolling, {Arrival(0, 5)}), 1);
  state.AdmitArrivals(0.0);
  state.Execute(2.0, 2.0, 1.0);
  state.FinalizeStats();
  EXPECT_DOUBLE_EQ(state.stats().backlog_work, 3.0);
}

TEST(AperiodicServerState, PoissonArrivalsMatchConfiguredRates) {
  AperiodicServerConfig config;
  config.kind = ServerKind::kPolling;
  config.period_ms = 10.0;
  config.budget_ms = 5.0;
  config.arrivals.mean_interarrival_ms = 20.0;
  config.arrivals.mean_service_ms = 1.0;
  config.arrivals.max_service_ms = 100.0;  // effectively unclipped
  AperiodicServerState state(config, 7);
  state.AdmitArrivals(200'000.0);  // 200 s => ~10000 arrivals
  EXPECT_NEAR(state.stats().arrivals, 10'000, 400);
  state.FinalizeStats();
  // Mean service ~1.0 work per arrival.
  EXPECT_NEAR(state.stats().backlog_work / static_cast<double>(state.stats().arrivals),
              1.0, 0.05);
}

TEST(AperiodicServerState, CbsWakeOnAnEmptyBudgetPostponesAtOnce) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kCbs, {Arrival(1, 3), Arrival(5, 1)}), 1);
  state.AdmitArrivals(1.0);
  EXPECT_DOUBLE_EQ(state.CbsWake(1.0), 11.0);  // fresh deadline, full budget
  state.Execute(3.0, 4.0, 1.0);  // the first request drains the budget
  state.AdmitArrivals(5.0);
  // A budget of 0 is exhausted: recharge and postpone, rather than keep a
  // deadline the server has no budget to serve under.
  EXPECT_DOUBLE_EQ(state.CbsWake(5.0), 21.0);
  EXPECT_DOUBLE_EQ(state.budget_remaining(), 3.0);
}

TEST(AperiodicServerStateDeathTest, ValidatesConfig) {
  AperiodicServerConfig config;
  config.kind = ServerKind::kPolling;
  config.period_ms = 10.0;
  config.budget_ms = 11.0;  // budget > period
  EXPECT_DEATH(AperiodicServerState(config, 1), "CHECK failed");
  auto out_of_order =
      FixedConfig(ServerKind::kPolling, {Arrival(5, 1), Arrival(1, 1)});
  EXPECT_DEATH(AperiodicServerState(out_of_order, 1), "time-ordered");
  auto before_zero = FixedConfig(ServerKind::kPolling, {Arrival(-1, 1)});
  EXPECT_DEATH(AperiodicServerState(before_zero, 1), "t >= 0");
}

TEST(AperiodicServerStateDeathTest, RejectsArrivalWithNoServableWork) {
  auto state = AperiodicServerState(
      FixedConfig(ServerKind::kCbs, {Arrival(0, 1e-12)}), 1);
  EXPECT_DEATH(state.AdmitArrivals(0.0), "CHECK failed");
}

}  // namespace
}  // namespace rtdvs
