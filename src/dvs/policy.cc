#include "src/dvs/policy.h"

#include "src/dvs/cc_edf_policy.h"
#include "src/dvs/cc_rm_policy.h"
#include "src/dvs/interval_policy.h"
#include "src/dvs/la_edf_policy.h"
#include "src/dvs/no_dvs_policy.h"
#include "src/dvs/stat_edf_policy.h"
#include "src/dvs/static_scaling_policy.h"
#include "src/util/check.h"

namespace rtdvs {

double PolicyContext::EarliestDeadline() const {
  RTDVS_CHECK(!views.empty());
  double earliest = views.front().next_deadline_ms;
  for (const auto& view : views) {
    earliest = std::min(earliest, view.next_deadline_ms);
  }
  return earliest;
}

void DvsPolicy::OnIdle(const PolicyContext& ctx, SpeedController& speed) {
  if (lowers_speed_when_idle()) {
    RequestOperatingPoint(speed, ctx.machine->min_point());
  }
}

namespace {

// A factory for policy P constructed from the arguments kArgs.
template <typename P, auto... kArgs>
std::unique_ptr<DvsPolicy> Make() {
  return std::make_unique<P>(kArgs...);
}

struct PolicyFactoryEntry {
  const char* id;
  std::unique_ptr<DvsPolicy> (*make)();
};

// Every id MakePolicy accepts, in the order its error message lists them.
constexpr PolicyFactoryEntry kPolicyFactories[] = {
    {"edf", Make<NoDvsPolicy, SchedulerKind::kEdf>},
    {"rm", Make<NoDvsPolicy, SchedulerKind::kRm>},
    {"static_edf", Make<StaticScalingPolicy, SchedulerKind::kEdf>},
    {"static_rm", Make<StaticScalingPolicy, SchedulerKind::kRm>},
    // Ablation: exact response-time analysis instead of the paper's
    // sufficient ceiling test.
    {"static_rm_exact", Make<StaticScalingPolicy, SchedulerKind::kRm, true>},
    {"cc_edf", Make<CcEdfPolicy>},
    {"cc_rm", Make<CcRmPolicy>},
    {"la_edf", Make<LaEdfPolicy>},
    {"interval", Make<IntervalPolicy, IntervalPolicyOptions{}>},
    // §6 future-work extension: soft deadlines, default 95th percentile.
    {"stat_edf", Make<StatEdfPolicy, StatEdfOptions{}>},
};

const PolicyFactoryEntry* FindPolicyFactory(const std::string& id) {
  for (const PolicyFactoryEntry& entry : kPolicyFactories) {
    if (id == entry.id) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace

bool IsValidPolicyId(const std::string& id) { return FindPolicyFactory(id) != nullptr; }

std::unique_ptr<DvsPolicy> MakePolicy(const std::string& id) {
  const PolicyFactoryEntry* entry = FindPolicyFactory(id);
  if (entry == nullptr) {
    std::string expected;
    for (const PolicyFactoryEntry& e : kPolicyFactories) {
      expected += expected.empty() ? e.id : std::string("|") + e.id;
    }
    RTDVS_CHECK(false) << "unknown policy id '" << id << "'; expected " << expected;
    return nullptr;
  }
  return entry->make();
}

const std::vector<std::string>& AllPaperPolicyIds() {
  static const std::vector<std::string> kIds = {
      "edf", "static_rm", "static_edf", "cc_edf", "cc_rm", "la_edf"};
  return kIds;
}

}  // namespace rtdvs
