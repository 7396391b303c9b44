// Drives a policy and a reference copy of it through the same callback
// sequences and requires identical effect logs: the same kinds in the same
// order, the same requested points, and double addends equal bit for bit.
// The reference-copy tests (la_edf_order_test.cc, cc_rm_order_test.cc) pin
// a rewritten policy to the straightforward implementation it replaced.
#ifndef TESTS_DVS_POLICY_PAIR_H_
#define TESTS_DVS_POLICY_PAIR_H_

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/rt/task.h"

namespace rtdvs {

class RecordingSpeed : public SpeedController {
 public:
  explicit RecordingSpeed(const OperatingPoint& initial) : current_(initial) {}
  void SetOperatingPoint(const OperatingPoint& point) override { current_ = point; }
  const OperatingPoint& current() const override { return current_; }

 private:
  OperatingPoint current_;
};

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Two effect logs are the same stream: kind, point and value bits agree at
// every position.
inline void ExpectSameEffects(const std::vector<PolicyEffect>& actual,
                              const std::vector<PolicyEffect>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].kind, expected[i].kind) << "effect " << i;
    EXPECT_TRUE(actual[i].point == expected[i].point) << "effect " << i;
    EXPECT_TRUE(SameBits(actual[i].value, expected[i].value))
        << "effect " << i << ": " << actual[i].value << " vs " << expected[i].value;
  }
}

// Both policies side by side; every callback goes to both with the same
// context and must record the same effects.
template <typename Kept, typename Reference>
class PolicyPair {
 public:
  explicit PolicyPair(const MachineSpec* machine)
      : kept_speed_(machine->max_point()), ref_speed_(machine->max_point()) {
    kept_.set_effect_log(&kept_effects_);
    ref_.set_effect_log(&ref_effects_);
  }

  enum class Call { kStart, kRelease, kCompletion, kIdle };

  void Deliver(Call call, int task_id, const PolicyContext& ctx) {
    switch (call) {
      case Call::kStart:
        kept_.OnStart(ctx, kept_speed_);
        ref_.OnStart(ctx, ref_speed_);
        break;
      case Call::kRelease:
        kept_.OnTaskRelease(task_id, ctx, kept_speed_);
        ref_.OnTaskRelease(task_id, ctx, ref_speed_);
        break;
      case Call::kCompletion:
        kept_.OnTaskCompletion(task_id, ctx, kept_speed_);
        ref_.OnTaskCompletion(task_id, ctx, ref_speed_);
        break;
      case Call::kIdle:
        kept_.OnIdle(ctx, kept_speed_);
        ref_.OnIdle(ctx, ref_speed_);
        break;
    }
    ExpectSameEffects(kept_effects_, ref_effects_);
  }

  const OperatingPoint& kept_point() const { return kept_speed_.current(); }
  const Kept& kept() const { return kept_; }

 private:
  Kept kept_;
  Reference ref_;
  RecordingSpeed kept_speed_;
  RecordingSpeed ref_speed_;
  std::vector<PolicyEffect> kept_effects_;
  std::vector<PolicyEffect> ref_effects_;
};

// A context over `tasks` whose views hold only the given deadlines.
inline PolicyContext MakeContext(const TaskSet* tasks, const MachineSpec* machine,
                                 const std::vector<double>& deadlines) {
  PolicyContext ctx;
  ctx.tasks = tasks;
  ctx.machine = machine;
  ctx.views.resize(deadlines.size());
  for (size_t i = 0; i < deadlines.size(); ++i) {
    ctx.views[i].next_deadline_ms = deadlines[i];
  }
  return ctx;
}

// Gives task `id` an active invocation with `wcet` left, due at `deadline`.
inline void Activate(PolicyContext* ctx, int id, double deadline, double wcet) {
  auto& view = ctx->views[static_cast<size_t>(id)];
  view.has_active_job = true;
  view.next_deadline_ms = deadline;
  view.worst_case_remaining = wcet;
}

}  // namespace rtdvs

#endif  // TESTS_DVS_POLICY_PAIR_H_
