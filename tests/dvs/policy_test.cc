#include "src/dvs/policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/dvs/interval_policy.h"

namespace rtdvs {
namespace {

TEST(PolicyFactory, ProducesPaperNamesAndSchedulers) {
  struct Expectation {
    const char* id;
    const char* name;
    SchedulerKind kind;
    bool dynamic;
  };
  const Expectation expectations[] = {
      {"edf", "EDF", SchedulerKind::kEdf, false},
      {"rm", "RM", SchedulerKind::kRm, false},
      {"static_edf", "StaticEDF", SchedulerKind::kEdf, false},
      {"static_rm", "StaticRM", SchedulerKind::kRm, false},
      {"static_rm_exact", "StaticRM(exact)", SchedulerKind::kRm, false},
      {"cc_edf", "ccEDF", SchedulerKind::kEdf, true},
      {"cc_rm", "ccRM", SchedulerKind::kRm, true},
      {"la_edf", "laEDF", SchedulerKind::kEdf, true},
      {"interval", "intervalDVS", SchedulerKind::kEdf, false},
      {"stat_edf", "statEDF(p95)", SchedulerKind::kEdf, true},
  };
  for (const auto& expected : expectations) {
    auto policy = MakePolicy(expected.id);
    ASSERT_NE(policy, nullptr) << expected.id;
    EXPECT_EQ(policy->name(), expected.name);
    EXPECT_EQ(policy->scheduler_kind(), expected.kind) << expected.id;
    EXPECT_EQ(policy->lowers_speed_when_idle(), expected.dynamic) << expected.id;
    EXPECT_TRUE(IsValidPolicyId(expected.id));
  }
}

TEST(PolicyFactory, RejectsUnknownIds) {
  EXPECT_FALSE(IsValidPolicyId("bogus"));
  EXPECT_FALSE(IsValidPolicyId(""));
  // The message names the id and lists every accepted one.
  EXPECT_DEATH(MakePolicy("bogus"),
               "unknown policy id 'bogus'; expected edf[|]rm[|]static_edf[|]"
               "static_rm[|]static_rm_exact[|]cc_edf[|]cc_rm[|]la_edf[|]"
               "interval[|]stat_edf");
}

TEST(PolicyFactory, PaperIdListMatchesTable4Order) {
  EXPECT_EQ(AllPaperPolicyIds(),
            (std::vector<std::string>{"edf", "static_rm", "static_edf", "cc_edf",
                                      "cc_rm", "la_edf"}));
}

TEST(PolicyContext, EarliestDeadlineScansViews) {
  PolicyContext ctx;
  ctx.views.resize(3);
  ctx.views[0].next_deadline_ms = 12;
  ctx.views[1].next_deadline_ms = 8;
  ctx.views[2].next_deadline_ms = 30;
  EXPECT_DOUBLE_EQ(ctx.EarliestDeadline(), 8.0);
}

// laEDF and ccRM fold the earliest-deadline scan into their one-pass
// callbacks; an empty context still fails the check EarliestDeadline makes.
TEST(PolicyDeathTest, OnePassCallbacksRejectAnEmptyContext) {
  class NullSpeed : public SpeedController {
   public:
    void SetOperatingPoint(const OperatingPoint& point) override { point_ = point; }
    const OperatingPoint& current() const override { return point_; }

   private:
    OperatingPoint point_{1.0, 5.0};
  };
  const PolicyContext empty;
  NullSpeed speed;
  for (const char* id : {"la_edf", "cc_rm"}) {
    std::unique_ptr<DvsPolicy> policy = MakePolicy(id);
    EXPECT_DEATH(policy->OnTaskCompletion(0, empty, speed), "CHECK failed") << id;
  }
}

TEST(IntervalPolicyDeathTest, ValidatesOptions) {
  EXPECT_DEATH(IntervalPolicy(IntervalPolicyOptions{0.0, 0.5, 1.0}), "CHECK failed");
  EXPECT_DEATH(IntervalPolicy(IntervalPolicyOptions{10.0, 0.0, 1.0}), "CHECK failed");
  EXPECT_DEATH(IntervalPolicy(IntervalPolicyOptions{10.0, 0.5, 0.5}), "CHECK failed");
}

}  // namespace
}  // namespace rtdvs
