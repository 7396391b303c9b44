// The traced run: the same passes as the untraced run, replayed from the
// benchmark's own code with forwarding wrappers around every DvsPolicy and
// ExecTimeModel, so each simulation's host time splits into policy
// callbacks, execution-time draws, the rest of the simulation loop, and the
// audit (run here, outside the simulation, with SimOptions::audit off).
// Nothing inside src/ is instrumented.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"

namespace perfbench {

// Forwards every virtual of the wrapped policy and times each callback.
// The simulator reads the non-virtual counters() of the object it holds, so
// the inner policy's counters are mirrored after every forwarded call.
class TracedPolicy final : public rtdvs::DvsPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<rtdvs::DvsPolicy> inner);

  std::string name() const override { return inner_->name(); }
  rtdvs::SchedulerKind scheduler_kind() const override {
    return inner_->scheduler_kind();
  }
  bool lowers_speed_when_idle() const override {
    return inner_->lowers_speed_when_idle();
  }
  bool guarantees_deadlines() const override {
    return inner_->guarantees_deadlines();
  }
  bool timer_driven() const override { return inner_->timer_driven(); }
  bool supports_time_skip() const override {
    return inner_->supports_time_skip();
  }

  void OnStart(const rtdvs::PolicyContext& ctx,
               rtdvs::SpeedController& speed) override;
  void OnTaskRelease(int task_id, const rtdvs::PolicyContext& ctx,
                     rtdvs::SpeedController& speed) override;
  void OnTaskCompletion(int task_id, const rtdvs::PolicyContext& ctx,
                        rtdvs::SpeedController& speed) override;
  void OnIdle(const rtdvs::PolicyContext& ctx,
              rtdvs::SpeedController& speed) override;
  std::optional<double> NextWakeupMs(const rtdvs::PolicyContext& ctx) override;
  void OnWakeup(const rtdvs::PolicyContext& ctx,
                rtdvs::SpeedController& speed) override;
  void OnTimeSkip(const rtdvs::PolicyContext& ctx) override;

  int64_t callbacks() const { return callbacks_; }
  double callback_ns() const { return callback_ns_; }

 private:
  template <typename F>
  void Timed(F&& call);

  std::unique_ptr<rtdvs::DvsPolicy> inner_;
  int64_t callbacks_ = 0;
  double callback_ns_ = 0;
};

// Forwards every virtual of the wrapped model and times each draw.
class TracedExecModel final : public rtdvs::ExecTimeModel {
 public:
  explicit TracedExecModel(std::unique_ptr<rtdvs::ExecTimeModel> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  double DrawFraction(int task_id, int64_t invocation,
                      rtdvs::Pcg32& rng) override;
  std::optional<double> constant_fraction() const override {
    return inner_->constant_fraction();
  }
  bool stationary() const override { return inner_->stationary(); }

  int64_t draws() const { return draws_; }
  double draw_ns() const { return draw_ns_; }

 private:
  std::unique_ptr<rtdvs::ExecTimeModel> inner_;
  int64_t draws_ = 0;
  double draw_ns_ = 0;
};

// One simulation of a traced pass, keyed by (shard, policy).
struct SimSpan {
  int shard = 0;
  std::string policy;
  double run_ns = 0;    // the RunSimulation / RunClusterSimulation call
  double dvs_ns = 0;    // inside policy callbacks (all cores)
  int64_t callbacks = 0;
  double draw_ns = 0;   // inside execution-time draws
  int64_t draws = 0;
  double audit_ns = 0;  // AuditSimResult / AuditMpResult
  int64_t audit_violations = 0;
  // Host-independent counts of the run.
  int64_t steps = 0;
  int64_t idle_skips = 0;
  double idle_skipped_ms = 0;
  double simulated_ms = 0;  // horizon x cores
  int64_t releases = 0;
  int64_t preemptions = 0;
  int64_t speed_switches = 0;
  int64_t migrations = 0;
  int64_t hyperperiod_cycles_replayed = 0;
  int64_t aperiodic_served = 0;
};

// One shard (task set) of a traced pass: generation time plus its sims.
struct ShardSpan {
  int shard = 0;
  double generate_ns = 0;
  double total_ns = 0;
  std::vector<SimSpan> sims;
};

struct TracedPass {
  PassStats stats;  // table and wall time, comparable with RunPass
  std::vector<ShardSpan> shards;
};

// Replays RunPass(workload, seed, workers) with the wrappers. The result
// table must equal the untraced pass's exactly.
TracedPass RunTracedPass(Workload workload, uint64_t seed, int workers);

// Traced runs of `policy_ids` on a sample of the pass's shards, for policies
// the workload itself does not sweep (their callback cost only).
TracedPass RunTracedPolicySample(Workload workload, uint64_t seed, int workers,
                                 const std::vector<std::string>& policy_ids,
                                 int max_shards);

// The policies a workload's passes run.
std::vector<std::string> WorkloadPolicies(Workload workload);

// Checks a fixed sample of the pass's simulations against the reference
// oracle (ResultsAgree / MpResultsAgree). Returns the number of simulations
// checked; disagreements are added to *failed with a message each.
int64_t CheckAgainstOracle(Workload workload, uint64_t seed, int workers,
                           int64_t* failed, std::vector<std::string>* messages);

// Writes one JSON object per simulation span, tagged with the workload.
void WriteSpans(const std::vector<TracedPass>& passes, Workload workload,
                std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
