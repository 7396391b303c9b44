// Exact pin on the aperiodic-server path of Simulator::RunLoop. The
// reference oracle (src/sim/reference_sim.h) models no servers, so these
// recorded values are the only bit-level check on that path: every
// combination of server kind, server-aware policy, switch cost and miss
// policy over three seeded 5-task sets on machine 0, with energies printed
// at full precision (%.17g).
//
// A change that alters any value here changed simulated behaviour. If the
// change is intended, regenerate the table by printing Fingerprint() for
// every case and justify the new values in the change description.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

const char* const kPolicies[] = {"edf", "rm", "cc_edf", "cc_rm", "la_edf"};
const double kSwitchTimes[] = {0.0, 0.4};
const MissPolicy kMissPolicies[] = {MissPolicy::kContinueLate,
                                    MissPolicy::kAbortJob};
// (seed, periodic utilization): the server adds 0.2, so the last set is
// overloaded and exercises misses and aborts.
struct TaskSetSpec {
  uint64_t seed;
  double utilization;
};
const TaskSetSpec kTaskSets[] = {{1, 0.5}, {2, 0.7}, {3, 0.85}};

TaskSet SeededTaskSet(const TaskSetSpec& spec) {
  TaskSetGeneratorOptions options;
  options.num_tasks = 5;
  options.target_utilization = spec.utilization;
  Pcg32 rng(spec.seed);
  return TaskSetGenerator(options).Generate(rng);
}

std::string Fingerprint(const SimResult& r) {
  const AperiodicStats& ap = r.aperiodic;
  return StrFormat(
      "energy=%.17g misses=%lld releases=%lld completions=%lld aborted=%lld "
      "ap_arrivals=%lld ap_completions=%lld ap_served=%.17g "
      "ap_response=%.17g ap_max_response=%.17g ap_backlog=%.17g",
      r.total_energy(), static_cast<long long>(r.deadline_misses),
      static_cast<long long>(r.releases), static_cast<long long>(r.completions),
      static_cast<long long>(r.aborted), static_cast<long long>(ap.arrivals),
      static_cast<long long>(ap.completions), ap.served_work,
      ap.total_response_ms, ap.max_response_ms, ap.backlog_work);
}

// Runs every combination for one server kind, in a fixed order, and
// returns "<case> <fingerprint>" lines.
std::vector<std::string> RunGrid(ServerKind kind) {
  std::vector<std::string> lines;
  for (size_t set = 0; set < std::size(kTaskSets); ++set) {
    const TaskSet tasks = SeededTaskSet(kTaskSets[set]);
    for (const char* policy_id : kPolicies) {
      for (double switch_time : kSwitchTimes) {
        for (MissPolicy miss : kMissPolicies) {
          SimOptions options;
          options.horizon_ms = 1000.0;
          options.seed = 7 + set;
          options.switch_time_ms = switch_time;
          options.miss_policy = miss;
          options.aperiodic.kind = kind;
          options.aperiodic.period_ms = 10.0;
          options.aperiodic.budget_ms = 2.0;
          options.aperiodic.arrivals.mean_interarrival_ms = 25.0;
          options.aperiodic.arrivals.mean_service_ms = 1.0;
          options.aperiodic.arrivals.max_service_ms = 4.0;
          auto policy = MakePolicy(policy_id);
          UniformFractionModel model(0.2, 1.0);
          const SimResult result = RunSimulation(
              tasks, MachineSpec::Machine0(), *policy, model, options);
          lines.push_back(StrFormat(
              "set%zu %s sw=%g %s %s", set, policy_id, switch_time,
              miss == MissPolicy::kAbortJob ? "abort" : "late",
              Fingerprint(result).c_str()));
        }
      }
    }
  }
  return lines;
}

void ExpectGolden(ServerKind kind, const std::vector<std::string>& golden) {
  const std::vector<std::string> actual = RunGrid(kind);
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "case " << i;
  }
}

TEST(ServerGolden, Polling) {
  ExpectGolden(ServerKind::kPolling, {
      "set0 edf sw=0 late energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 edf sw=0 abort energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 edf sw=0.4 late energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 edf sw=0.4 abort energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 rm sw=0 late energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 rm sw=0 abort energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 rm sw=0.4 late energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 rm sw=0.4 abort energy=8404.657250279939 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.5621717286067 ap_response=307.69747155178283 ap_max_response=31.986234333703663 ap_backlog=0",
      "set0 cc_edf sw=0 late energy=3633.2066584296635 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606771 ap_response=320.13140465401369 ap_max_response=32.001044292041399 ap_backlog=0",
      "set0 cc_edf sw=0 abort energy=3633.2066584296635 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606771 ap_response=320.13140465401369 ap_max_response=32.001044292041399 ap_backlog=0",
      "set0 cc_edf sw=0.4 late energy=3625.6930708577456 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606771 ap_response=327.73140465401332 ap_max_response=32.001044292041399 ap_backlog=0",
      "set0 cc_edf sw=0.4 abort energy=3625.6930708577456 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606771 ap_response=327.73140465401332 ap_max_response=32.001044292041399 ap_backlog=0",
      "set0 cc_rm sw=0 late energy=4679.9187078015384 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606867 ap_response=306.80960035449107 ap_max_response=32.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0 abort energy=4679.9187078015384 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606867 ap_response=306.80960035449107 ap_max_response=32.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0.4 late energy=4643.2622298767428 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606842 ap_response=314.80960035449073 ap_max_response=32.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0.4 abort energy=4643.2622298767428 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606842 ap_response=314.80960035449073 ap_max_response=32.001044292041371 ap_backlog=0",
      "set0 la_edf sw=0 late energy=3063.9936954000541 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606788 ap_response=345.49825297830375 ap_max_response=32.999046981317662 ap_backlog=0",
      "set0 la_edf sw=0 abort energy=3063.9936954000541 misses=0 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606788 ap_response=345.49825297830375 ap_max_response=32.999046981317662 ap_backlog=0",
      "set0 la_edf sw=0.4 late energy=3063.9447575808617 misses=1 releases=220 completions=219 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606788 ap_response=348.89854585551268 ap_max_response=34.67085559501723 ap_backlog=0",
      "set0 la_edf sw=0.4 abort energy=3060.7399729233503 misses=1 releases=220 completions=218 aborted=1"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606788 ap_response=347.97035446921217 ap_max_response=33.742664208716747 ap_backlog=0",
      "set1 edf sw=0 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.1945862845638 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 edf sw=0 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.1945862845638 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 edf sw=0.4 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.1945862845638 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 edf sw=0.4 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.1945862845638 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 rm sw=0 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 rm sw=0 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 rm sw=0.4 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 rm sw=0.4 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 cc_edf sw=0 late energy=8164.9620945375054 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.88941335867861 ap_response=305.6615730723326 ap_max_response=26.724002552324606 ap_backlog=0.65521810067530561",
      "set1 cc_edf sw=0 abort energy=8164.9620945375054 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.88941335867861 ap_response=305.6615730723326 ap_max_response=26.724002552324606 ap_backlog=0.65521810067530561",
      "set1 cc_edf sw=0.4 late energy=8125.0925420763369 misses=7 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678667 ap_response=333.15511300228241 ap_max_response=26.724002552324663 ap_backlog=0.65521810067530561",
      "set1 cc_edf sw=0.4 abort energy=8112.4146371781235 misses=7 releases=438 completions=431 aborted=7"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678667 ap_response=333.15511300228241 ap_max_response=26.724002552324663 ap_backlog=0.65521810067530561",
      "set1 cc_rm sw=0 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 cc_rm sw=0 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 cc_rm sw=0.4 late energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 cc_rm sw=0.4 abort energy=11126.309902815929 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678617 ap_response=290.31777174060898 ap_max_response=26.551073886877163 ap_backlog=0.65521810067527719",
      "set1 la_edf sw=0 late energy=7213.5078307693257 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678766 ap_response=326.29666261361899 ap_max_response=26.724002552324606 ap_backlog=0.65521810067527719",
      "set1 la_edf sw=0 abort energy=7213.5078307693257 misses=0 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678766 ap_response=326.29666261361899 ap_max_response=26.724002552324606 ap_backlog=0.65521810067527719",
      "set1 la_edf sw=0.4 late energy=7792.9050806764953 misses=13 releases=438 completions=438 aborted=0"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678667 ap_response=399.58156622186726 ap_max_response=34.113688988337088 ap_backlog=0.65521810067530561",
      "set1 la_edf sw=0.4 abort energy=7862.0482462047421 misses=7 releases=438 completions=431 aborted=7"
      " ap_arrivals=38 ap_completions=36 ap_served=37.889413358678681 ap_response=372.93745722926855 ap_max_response=26.838645059851757 ap_backlog=0.65521810067530561",
      "set2 edf sw=0 late energy=13913.366186598736 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.52121540017891 ap_response=308.97210324005147 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 edf sw=0 abort energy=13913.366186598736 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.52121540017891 ap_response=308.97210324005147 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 edf sw=0.4 late energy=13913.366186598736 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.52121540017891 ap_response=308.97210324005147 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 edf sw=0.4 abort energy=13913.366186598736 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.52121540017891 ap_response=308.97210324005147 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 rm sw=0 late energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 rm sw=0 abort energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 rm sw=0.4 late energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 rm sw=0.4 abort energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_edf sw=0 late energy=12488.574906060445 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179088 ap_response=316.09011436586633 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_edf sw=0 abort energy=12488.574906060445 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179088 ap_response=316.09011436586633 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_edf sw=0.4 late energy=12509.738617317058 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179045 ap_response=336.87063711298026 ap_max_response=19.049802292974192 ap_backlog=0.29290831016086649",
      "set2 cc_edf sw=0.4 abort energy=12509.738617317058 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179045 ap_response=336.87063711298026 ap_max_response=19.049802292974192 ap_backlog=0.29290831016086649",
      "set2 cc_rm sw=0 late energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_rm sw=0 abort energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_rm sw=0.4 late energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 cc_rm sw=0.4 abort energy=13913.366186598738 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400178917 ap_response=314.51412285866644 ap_max_response=18.649802292974186 ap_backlog=0.29290831016086649",
      "set2 la_edf sw=0 late energy=10289.344452396446 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179003 ap_response=352.04941802989867 ap_max_response=19.959864104670629 ap_backlog=0.29290831016086649",
      "set2 la_edf sw=0 abort energy=10289.344452396446 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179003 ap_response=352.04941802989867 ap_max_response=19.959864104670629 ap_backlog=0.29290831016086649",
      "set2 la_edf sw=0.4 late energy=10652.928144856141 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179017 ap_response=373.7738543363896 ap_max_response=20.75986410467064 ap_backlog=0.29290831016086649",
      "set2 la_edf sw=0.4 abort energy=10652.928144856141 misses=0 releases=222 completions=222 aborted=0"
      " ap_arrivals=45 ap_completions=44 ap_served=37.521215400179017 ap_response=373.7738543363896 ap_max_response=20.75986410467064 ap_backlog=0.29290831016086649",
  });
}

TEST(ServerGolden, Deferrable) {
  ExpectGolden(ServerKind::kDeferrable, {
      "set0 edf sw=0 late energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 edf sw=0 abort energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 edf sw=0.4 late energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 edf sw=0.4 abort energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 rm sw=0 late energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 rm sw=0 abort energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 rm sw=0.4 late energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 rm sw=0.4 abort energy=8404.6572502799336 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=103.8841875039731 ap_max_response=21.986234333703663 ap_backlog=0",
      "set0 cc_edf sw=0 late energy=5177.9643807386237 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=113.20493736880212 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_edf sw=0 abort energy=5177.9643807386237 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=113.20493736880212 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_edf sw=0.4 late energy=5176.5643807386241 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=115.61602824332778 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_edf sw=0.4 abort energy=5176.5643807386241 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=115.61602824332778 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0 late energy=5221.9447292259283 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=111.78499537841731 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0 abort energy=5221.9447292259283 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=111.78499537841731 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0.4 late energy=5281.3715199207936 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606799 ap_response=113.74345399950909 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 cc_rm sw=0.4 abort energy=5281.3715199207936 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606799 ap_response=113.74345399950909 ap_max_response=22.001044292041371 ap_backlog=0",
      "set0 la_edf sw=0 late energy=3955.336471244811 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.56217172860682 ap_response=129.23985472609297 ap_max_response=24.267435896699055 ap_backlog=0",
      "set0 la_edf sw=0 abort energy=3955.336471244811 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.56217172860682 ap_response=129.23985472609297 ap_max_response=24.267435896699055 ap_backlog=0",
      "set0 la_edf sw=0.4 late energy=3862.6938580275887 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606813 ap_response=132.33691064539937 ap_max_response=24.722974888541984 ap_backlog=0",
      "set0 la_edf sw=0.4 abort energy=3862.6938580275887 misses=0 releases=220 completions=218 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606813 ap_response=132.33691064539937 ap_max_response=24.722974888541984 ap_backlog=0",
      "set1 edf sw=0 late energy=11142.690355332801 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=90.907235404065332 ap_max_response=17.140428651733686 ap_backlog=0",
      "set1 edf sw=0 abort energy=11142.690355332801 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=90.907235404065332 ap_max_response=17.140428651733686 ap_backlog=0",
      "set1 edf sw=0.4 late energy=11142.690355332801 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=90.907235404065332 ap_max_response=17.140428651733686 ap_backlog=0",
      "set1 edf sw=0.4 abort energy=11142.690355332801 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=90.907235404065332 ap_max_response=17.140428651733686 ap_backlog=0",
      "set1 rm sw=0 late energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 rm sw=0 abort energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 rm sw=0.4 late energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 rm sw=0.4 abort energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 cc_edf sw=0 late energy=10803.217521057411 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353816 ap_response=112.50515468920236 ap_max_response=17.771404873549642 ap_backlog=0",
      "set1 cc_edf sw=0 abort energy=10803.217521057411 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353816 ap_response=112.50515468920236 ap_max_response=17.771404873549642 ap_backlog=0",
      "set1 cc_edf sw=0.4 late energy=10811.1755517207 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353752 ap_response=142.26500147851647 ap_max_response=18.55803780699361 ap_backlog=0",
      "set1 cc_edf sw=0.4 abort energy=10811.1755517207 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353752 ap_response=142.26500147851647 ap_max_response=18.55803780699361 ap_backlog=0",
      "set1 cc_rm sw=0 late energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 cc_rm sw=0 abort energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 cc_rm sw=0.4 late energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 cc_rm sw=0.4 abort energy=11142.690355332803 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353802 ap_response=98.642500917099198 ap_max_response=17.420428651733374 ap_backlog=0",
      "set1 la_edf sw=0 late energy=10098.49310084329 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353795 ap_response=131.61712596813999 ap_max_response=17.982168116364818 ap_backlog=0",
      "set1 la_edf sw=0 abort energy=10098.49310084329 misses=0 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353795 ap_response=131.61712596813999 ap_max_response=17.982168116364818 ap_backlog=0",
      "set1 la_edf sw=0.4 late energy=10242.649752733261 misses=11 releases=438 completions=437 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353809 ap_response=170.7322119694947 ap_max_response=23.038548938957291 ap_backlog=0",
      "set1 la_edf sw=0.4 abort energy=10349.691798320633 misses=2 releases=438 completions=435 aborted=2"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353809 ap_response=168.012993150775 ap_max_response=23.038548938957291 ap_backlog=0",
      "set2 edf sw=0 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=81.300962184322742 ap_max_response=13.37421315009928 ap_backlog=0",
      "set2 edf sw=0 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=81.300962184322742 ap_max_response=13.37421315009928 ap_backlog=0",
      "set2 edf sw=0.4 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=81.300962184322742 ap_max_response=13.37421315009928 ap_backlog=0",
      "set2 edf sw=0.4 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=81.300962184322742 ap_max_response=13.37421315009928 ap_backlog=0",
      "set2 rm sw=0 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 rm sw=0 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 rm sw=0.4 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 rm sw=0.4 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 cc_edf sw=0 late energy=13281.102283918946 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339736 ap_response=86.513230869816567 ap_max_response=13.388333321774553 ap_backlog=0",
      "set2 cc_edf sw=0 abort energy=13281.102283918946 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339736 ap_response=86.513230869816567 ap_max_response=13.388333321774553 ap_backlog=0",
      "set2 cc_edf sw=0.4 late energy=13267.280679482479 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.8141237103397 ap_response=93.913207228771824 ap_max_response=14.188333321774564 ap_backlog=0",
      "set2 cc_edf sw=0.4 abort energy=13267.280679482479 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.8141237103397 ap_response=93.913207228771824 ap_max_response=14.188333321774564 ap_backlog=0",
      "set2 cc_rm sw=0 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 cc_rm sw=0 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 cc_rm sw=0.4 late energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 cc_rm sw=0.4 abort energy=13920.688894352757 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=120.18827939021006 ap_max_response=13.88453629490806 ap_backlog=0",
      "set2 la_edf sw=0 late energy=12903.391731840786 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339615 ap_response=100.02076295817855 ap_max_response=14.027573665125146 ap_backlog=0",
      "set2 la_edf sw=0 abort energy=12903.391731840786 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339615 ap_response=100.02076295817855 ap_max_response=14.027573665125146 ap_backlog=0",
      "set2 la_edf sw=0.4 late energy=13057.052608790777 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339629 ap_response=109.23463729347608 ap_max_response=15.318166327663221 ap_backlog=0",
      "set2 la_edf sw=0.4 abort energy=13057.052608790777 misses=0 releases=222 completions=221 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339629 ap_response=109.23463729347608 ap_max_response=15.318166327663221 ap_backlog=0",
  });
}

TEST(ServerGolden, Cbs) {
  ExpectGolden(ServerKind::kCbs, {
      "set0 edf sw=0 late energy=8404.6572502799354 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606678 ap_response=47.626841200646993 ap_max_response=7.6582808392033712 ap_backlog=0",
      "set0 edf sw=0 abort energy=8404.6572502799354 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606678 ap_response=47.626841200646993 ap_max_response=7.6582808392033712 ap_backlog=0",
      "set0 edf sw=0.4 late energy=8404.6572502799354 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606678 ap_response=47.626841200646993 ap_max_response=7.6582808392033712 ap_backlog=0",
      "set0 edf sw=0.4 abort energy=8404.6572502799354 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606678 ap_response=47.626841200646993 ap_max_response=7.6582808392033712 ap_backlog=0",
      "set0 rm sw=0 late energy=8404.6572502799354 misses=0 releases=159 completions=158 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=29.584082810732443 ap_max_response=4 ap_backlog=0",
      "set0 rm sw=0 abort energy=8404.6572502799354 misses=0 releases=159 completions=158 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=29.584082810732443 ap_max_response=4 ap_backlog=0",
      "set0 rm sw=0.4 late energy=8404.6572502799354 misses=0 releases=159 completions=158 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=29.584082810732443 ap_max_response=4 ap_backlog=0",
      "set0 rm sw=0.4 abort energy=8404.6572502799354 misses=0 releases=159 completions=158 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606671 ap_response=29.584082810732443 ap_max_response=4 ap_backlog=0",
      "set0 cc_edf sw=0 late energy=4161.2282299653016 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=93.529144892772308 ap_max_response=16.309883219052381 ap_backlog=0",
      "set0 cc_edf sw=0 abort energy=4161.2282299653016 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606835 ap_response=93.529144892772308 ap_max_response=16.309883219052381 ap_backlog=0",
      "set0 cc_edf sw=0.4 late energy=4156.235285308484 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606828 ap_response=102.2923935295685 ap_max_response=16.709883219052386 ap_backlog=0",
      "set0 cc_edf sw=0.4 abort energy=4156.235285308484 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606828 ap_response=102.2923935295685 ap_max_response=16.709883219052386 ap_backlog=0",
      "set0 cc_rm sw=0 late energy=4135.7151034567287 misses=1 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606749 ap_response=43.191248569300939 ap_max_response=5.3333333333333712 ap_backlog=0",
      "set0 cc_rm sw=0 abort energy=4140.8335857534421 misses=1 releases=158 completions=156 aborted=1"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606749 ap_response=43.191248569300939 ap_max_response=5.3333333333333712 ap_backlog=0",
      "set0 cc_rm sw=0.4 late energy=4182.4936393434364 misses=2 releases=157 completions=156 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606728 ap_response=53.272911754115427 ap_max_response=5.9354187640203691 ap_backlog=0",
      "set0 cc_rm sw=0.4 abort energy=4183.1773612095149 misses=2 releases=157 completions=154 aborted=2"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606721 ap_response=52.416270973656225 ap_max_response=5.9354187640203691 ap_backlog=0",
      "set0 la_edf sw=0 late energy=3055.096977513118 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606806 ap_response=144.15845566350589 ap_max_response=30.268312158357617 ap_backlog=0",
      "set0 la_edf sw=0 abort energy=3055.096977513118 misses=0 releases=158 completions=157 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606806 ap_response=144.15845566350589 ap_max_response=30.268312158357617 ap_backlog=0",
      "set0 la_edf sw=0.4 late energy=3057.8969775131172 misses=0 releases=157 completions=156 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606806 ap_response=148.04663395145212 ap_max_response=31.201645491690954 ap_backlog=0",
      "set0 la_edf sw=0.4 abort energy=3057.8969775131172 misses=0 releases=157 completions=156 aborted=0"
      " ap_arrivals=32 ap_completions=32 ap_served=29.562171728606806 ap_response=148.04663395145212 ap_max_response=31.201645491690954 ap_backlog=0",
      "set1 edf sw=0 late energy=11142.690355332805 misses=0 releases=383 completions=383 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=63.670284302444401 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 edf sw=0 abort energy=11142.690355332805 misses=0 releases=383 completions=383 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=63.670284302444401 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 edf sw=0.4 late energy=11142.690355332805 misses=0 releases=383 completions=383 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=63.670284302444401 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 edf sw=0.4 abort energy=11142.690355332805 misses=0 releases=383 completions=383 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=63.670284302444401 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 rm sw=0 late energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 rm sw=0 abort energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 rm sw=0.4 late energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 rm sw=0.4 abort energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 cc_edf sw=0 late energy=9591.0872086284762 misses=0 releases=382 completions=382 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353717 ap_response=106.6309091223566 ap_max_response=9.4168307511511102 ap_backlog=0",
      "set1 cc_edf sw=0 abort energy=9591.0872086284762 misses=0 releases=382 completions=382 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353717 ap_response=106.6309091223566 ap_max_response=9.4168307511511102 ap_backlog=0",
      "set1 cc_edf sw=0.4 late energy=9632.9804720242737 misses=1 releases=377 completions=377 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353894 ap_response=159.03114445244302 ap_max_response=14.408960835841896 ap_backlog=0",
      "set1 cc_edf sw=0.4 abort energy=9632.7103866335292 misses=1 releases=377 completions=376 aborted=1"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353894 ap_response=159.03114445244302 ap_max_response=14.408960835841896 ap_backlog=0",
      "set1 cc_rm sw=0 late energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 cc_rm sw=0 abort energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 cc_rm sw=0.4 late energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 cc_rm sw=0.4 abort energy=11142.690355332805 misses=0 releases=384 completions=384 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353788 ap_response=66.911320334178782 ap_max_response=5.9380822571283716 ap_backlog=0",
      "set1 la_edf sw=0 late energy=7271.2339267498764 misses=0 releases=379 completions=379 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353987 ap_response=166.9478638791077 ap_max_response=18.101451111383682 ap_backlog=0",
      "set1 la_edf sw=0 abort energy=7271.2339267498764 misses=0 releases=379 completions=379 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353987 ap_response=166.9478638791077 ap_max_response=18.101451111383682 ap_backlog=0",
      "set1 la_edf sw=0.4 late energy=7750.5422603103598 misses=9 releases=375 completions=375 aborted=0"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459354008 ap_response=248.84369085813714 ap_max_response=26.587652482930906 ap_backlog=0",
      "set1 la_edf sw=0.4 abort energy=7757.8214038654969 misses=4 releases=375 completions=371 aborted=4"
      " ap_arrivals=38 ap_completions=38 ap_served=38.544631459353994 ap_response=236.06274209910853 ap_max_response=26.587652482930906 ap_backlog=0",
      "set2 edf sw=0 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=86.322187939445456 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 edf sw=0 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=86.322187939445456 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 edf sw=0.4 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=86.322187939445456 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 edf sw=0.4 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=86.322187939445456 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 rm sw=0 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 rm sw=0 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 rm sw=0.4 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 rm sw=0.4 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 cc_edf sw=0 late energy=12904.286208527912 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339786 ap_response=94.548492474445126 ap_max_response=8.9994796494603406 ap_backlog=0",
      "set2 cc_edf sw=0 abort energy=12904.286208527912 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339786 ap_response=94.548492474445126 ap_max_response=8.9994796494603406 ap_backlog=0",
      "set2 cc_edf sw=0.4 late energy=12916.045162668011 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339793 ap_response=113.59389040055362 ap_max_response=9.6961884892842249 ap_backlog=0",
      "set2 cc_edf sw=0.4 abort energy=12916.045162668011 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339793 ap_response=113.59389040055362 ap_max_response=9.6961884892842249 ap_backlog=0",
      "set2 cc_rm sw=0 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 cc_rm sw=0 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 cc_rm sw=0.4 late energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 cc_rm sw=0.4 abort energy=13920.688894352756 misses=0 releases=175 completions=175 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339693 ap_response=98.994730272817918 ap_max_response=8.9005767028523337 ap_backlog=0",
      "set2 la_edf sw=0 late energy=8709.7421745369211 misses=0 releases=175 completions=174 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.81412371033975 ap_response=120.76509211854977 ap_max_response=13.662420040972478 ap_backlog=0",
      "set2 la_edf sw=0 abort energy=8709.7421745369211 misses=0 releases=175 completions=174 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.81412371033975 ap_response=120.76509211854977 ap_max_response=13.662420040972478 ap_backlog=0",
      "set2 la_edf sw=0.4 late energy=9035.5612385945351 misses=0 releases=175 completions=174 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339786 ap_response=144.60553446651278 ap_max_response=15.562420040972512 ap_backlog=0",
      "set2 la_edf sw=0.4 abort energy=9035.5612385945351 misses=0 releases=175 completions=174 aborted=0"
      " ap_arrivals=45 ap_completions=45 ap_served=37.814123710339786 ap_response=144.60553446651278 ap_max_response=15.562420040972512 ap_backlog=0",
  });
}

}  // namespace
}  // namespace rtdvs
