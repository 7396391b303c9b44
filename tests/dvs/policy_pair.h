// Drives a policy and a reference copy of it through the same callback
// sequences and requires identical requested operating points and identical
// counter effects (double addends compared bit for bit). The reference-copy
// tests (la_edf_order_test.cc, cc_rm_order_test.cc) pin a rewritten policy
// to the straightforward implementation it replaced.
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
  void SetOperatingPoint(const OperatingPoint& point) override {
    current_ = point;
    requests.push_back(point);
  }
  const OperatingPoint& current() const override { return current_; }
  std::vector<OperatingPoint> requests;

 private:
  OperatingPoint current_;
};

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Both policies side by side; every callback goes to both with the same
// context and must produce the same requests and counter effects.
template <typename Kept, typename Reference>
class PolicyPair {
 public:
  explicit PolicyPair(const MachineSpec* machine)
      : kept_speed_(machine->max_point()), ref_speed_(machine->max_point()) {
    kept_.set_counter_tap(&kept_effects_);
    ref_.set_counter_tap(&ref_effects_);
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
    ExpectSame();
  }

  const OperatingPoint& kept_point() const { return kept_speed_.current(); }
  const Kept& kept() const { return kept_; }

 private:
  void ExpectSame() {
    ASSERT_EQ(kept_speed_.requests.size(), ref_speed_.requests.size());
    for (size_t i = 0; i < kept_speed_.requests.size(); ++i) {
      EXPECT_TRUE(kept_speed_.requests[i] == ref_speed_.requests[i]) << "request " << i;
    }
    ASSERT_EQ(kept_effects_.size(), ref_effects_.size());
    for (size_t i = 0; i < kept_effects_.size(); ++i) {
      EXPECT_EQ(kept_effects_[i].field, ref_effects_[i].field) << i;
      EXPECT_TRUE(SameBits(kept_effects_[i].value, ref_effects_[i].value))
          << "effect " << i << ": " << kept_effects_[i].value << " vs "
          << ref_effects_[i].value;
    }
  }

  Kept kept_;
  Reference ref_;
  RecordingSpeed kept_speed_;
  RecordingSpeed ref_speed_;
  std::vector<PolicyCounterEffect> kept_effects_;
  std::vector<PolicyCounterEffect> ref_effects_;
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
