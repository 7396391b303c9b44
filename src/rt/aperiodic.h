// Aperiodic workload support (footnote 1 of the paper: "aperiodic and
// sporadic tasks can be handled by a periodic or deferred server [16]. For
// non-real-time tasks, too, we can provision processor time using a similar
// periodic server approach.").
//
// An aperiodic job arrives at some instant and needs a given amount of work
// (in max-frequency milliseconds); it has no deadline — the metric is
// response time. A bandwidth-preserving SERVER task, which the rest of the
// system treats as an ordinary periodic task (period P_s, budget C_s),
// serves the arrival queue:
//
//   * kPolling — the classic periodic (polling) server: the budget is
//     replenished at each release; the server runs at its task's priority
//     and RETIRES its job (forfeiting remaining budget) the moment the
//     queue is empty. Work arriving after that waits for the next period.
//   * kCbs — the Constant Bandwidth Server (below): an arrival starts an
//     activation at once, under a deadline the CBS rules keep within
//     bandwidth C_s/P_s.
//
// Because the server is presented to schedulers, schedulability tests and
// DVS policies as a periodic task of utilization C_s/P_s, every RT-DVS
// guarantee for the periodic tasks carries over unchanged.
#ifndef SRC_RT_APERIODIC_H_
#define SRC_RT_APERIODIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/random.h"

namespace rtdvs {

enum class ServerKind {
  kNone,
  kPolling,
  // Constant Bandwidth Server (Abeni & Buttazzo, RTSS'98): an EDF-native
  // server whose deadline is postponed by one period whenever its budget
  // exhausts, provably never demanding more than C_s/P_s of the processor
  // in ANY window, while it still serves an arrival immediately.
  kCbs,
};

// One aperiodic request.
struct AperiodicJob {
  double arrival_ms = 0;
  double service_work = 0;     // total demand, max-frequency ms
  double remaining_work = 0;   // not yet served
  bool completed = false;
  double completion_ms = 0;
};

// Arrival process: Poisson arrivals with (optionally clipped) exponential
// service demand, or a fixed replayable list for tests.
struct AperiodicArrivalConfig {
  double mean_interarrival_ms = 50.0;
  double mean_service_ms = 2.0;
  double max_service_ms = 10.0;  // clip so one request cannot starve others
  // When nonempty, replay exactly these (arrival, work) pairs and ignore
  // the stochastic parameters.
  std::vector<AperiodicJob> fixed_arrivals;
};

struct AperiodicServerConfig {
  ServerKind kind = ServerKind::kNone;
  double period_ms = 0;   // P_s
  double budget_ms = 0;   // C_s at maximum frequency
  AperiodicArrivalConfig arrivals;
};

struct AperiodicStats {
  int64_t arrivals = 0;
  int64_t completions = 0;
  double served_work = 0;
  double total_response_ms = 0;
  double max_response_ms = 0;
  double backlog_work = 0;  // unserved demand at the horizon

  double MeanResponseMs() const {
    return completions == 0 ? 0.0 : total_response_ms / static_cast<double>(completions);
  }
};

// Queue + budget state machine used by the simulator. Time advances only
// through the three mutators; the class is engine-agnostic.
class AperiodicServerState {
 public:
  AperiodicServerState(const AperiodicServerConfig& config, uint64_t seed);

  const AperiodicServerConfig& config() const { return config_; }

  // Next arrival instant, or +inf when the fixed list is exhausted.
  double NextArrivalMs() const { return next_arrival_ms_; }
  // Moves arrivals at or before now_ms into the queue.
  void AdmitArrivals(double now_ms);

  // Replenishes the budget (called at each server release).
  void Replenish() { budget_remaining_ = config_.budget_ms; }

  // Work the server could execute right now.
  double ServableWork() const;
  bool QueueEmpty() const { return queue_.empty(); }
  double budget_remaining() const { return budget_remaining_; }

  // Consumes `work` from the budget and the queue head(s), FIFO. Jobs whose
  // demand is fully served complete; `segment_end_ms` and `frequency` let
  // the per-job completion instants be interpolated inside the segment
  // (the caller executed `work` ending at segment_end_ms at `frequency`).
  void Execute(double work, double segment_end_ms, double frequency);

  // Polling server: called when the engine observes the queue empty while
  // the server holds the processor — remaining budget is forfeited.
  void ForfeitBudget() { budget_remaining_ = 0; }

  // --- CBS bookkeeping (kind == kCbs only) ---
  // Wake rule, applied when work arrives while the server is idle: if the
  // retained budget would exceed the bandwidth available before the current
  // server deadline, reset deadline = now + P_s with a full budget;
  // otherwise keep both, except that a kept budget of (at most kWorkEps)
  // zero is exhausted and takes the exhaustion rule at once. So the
  // activation always has budget to serve with. Returns the server deadline.
  double CbsWake(double now_ms);
  // Exhaustion rule: replenish the budget and postpone the deadline by one
  // period. Returns the new deadline.
  double CbsPostpone();

  const AperiodicStats& stats() const { return stats_; }
  // Folds the current backlog into the stats (call once, at the horizon).
  void FinalizeStats();

 private:
  void ScheduleNextArrival();

  AperiodicServerConfig config_;
  Pcg32 rng_;
  std::deque<AperiodicJob> queue_;
  size_t fixed_index_ = 0;
  double next_arrival_ms_ = 0;
  double budget_remaining_ = 0;
  double cbs_deadline_ms_ = 0;
  AperiodicStats stats_;
};

}  // namespace rtdvs

#endif  // SRC_RT_APERIODIC_H_
