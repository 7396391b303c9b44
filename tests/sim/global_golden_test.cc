// Exact pin on global multiprocessor mode (RunClusterSimulation with
// MpMode::kGlobal). The differential oracle compares energies with a
// tolerance, so these recorded values are the only bit-level check on the
// global path: M = 2, 3, 4 cores, every EDF-side and RM-side policy plus one
// mixed per-core list, switch cost 0 / 0.4 ms, both miss policies, constant
// and uniform demand, over three seeded task sets on machine 0.
//
// Each case records its cluster energy, migrations, preemptions and misses
// in clear, plus a 64-bit FNV-1a hash of the full fingerprint: every cluster
// and per-core energy, time and counter at %.17g, per-task stats, residency
// and policy counters. A mismatch prints the whole actual line. A change
// that alters any value here changed simulated behaviour; if that is
// intended, regenerate the table from the printed lines and justify the new
// values in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/taskset_generator.h"
#include "src/sim/mp_simulator.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

struct PolicySpec {
  const char* label;
  std::vector<std::string> ids;  // one entry = every core
};

const PolicySpec kPolicies[] = {
    {"edf", {"edf"}},
    {"static_edf", {"static_edf"}},
    {"cc_edf", {"cc_edf"}},
    {"la_edf", {"la_edf"}},
    {"interval", {"interval"}},
    {"rm", {"rm"}},
    {"static_rm", {"static_rm"}},
    {"cc_rm", {"cc_rm"}},
    {"mixed", {}},  // cc_edf, la_edf, cc_edf, ... (one per core)
};
const double kSwitchTimes[] = {0.0, 0.4};
const MissPolicy kMissPolicies[] = {MissPolicy::kContinueLate,
                                    MissPolicy::kAbortJob};
// Per-core worst-case utilization of the three seeded sets; the last one is
// heavy enough to miss under global scheduling.
const double kPerCoreUtilization[] = {0.45, 0.7, 0.95};

TaskSet SeededTaskSet(int cores, size_t set) {
  TaskSetGeneratorOptions options;
  options.num_tasks = 3 * cores + 1;
  options.target_utilization = kPerCoreUtilization[set] * cores;
  Pcg32 rng(100 * static_cast<uint64_t>(cores) + set);
  return TaskSetGenerator(options).Generate(rng);
}

std::vector<std::string> PolicyIds(const PolicySpec& spec, int cores) {
  if (!spec.ids.empty()) {
    return spec.ids;
  }
  std::vector<std::string> ids;
  for (int c = 0; c < cores; ++c) {
    ids.push_back(c % 2 == 0 ? "cc_edf" : "la_edf");
  }
  return ids;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string CountersText(const PolicyCounters& c) {
  return StrFormat(
      "req=%lld tr=%lld slack=%lld/%.17g defer=%lld/%.17g util=%lld/%.17g",
      static_cast<long long>(c.speed_change_requests),
      static_cast<long long>(c.speed_transitions),
      static_cast<long long>(c.slack_completions), c.slack_reclaimed_ms,
      static_cast<long long>(c.deferral_decisions), c.work_deferred_ms,
      static_cast<long long>(c.utilization_samples), c.utilization_sum);
}

// Every value of one slice except the fast-path diagnostics (which describe
// how the engine stepped, not what it simulated).
std::string SliceText(const SimResult& r) {
  std::string out = StrFormat(
      "exec=%.17g idle=%.17g busy=%.17g idle_ms=%.17g sw_ms=%.17g work=%.17g "
      "lb=%.17g switches=%lld pre=%lld rel=%lld comp=%lld miss=%lld "
      "abort=%lld unf=%lld over=%lld %s",
      r.exec_energy, r.idle_energy, r.busy_ms, r.idle_ms, r.switching_ms,
      r.total_work_executed, r.lower_bound_energy,
      static_cast<long long>(r.speed_switches),
      static_cast<long long>(r.preemptions), static_cast<long long>(r.releases),
      static_cast<long long>(r.completions),
      static_cast<long long>(r.deadline_misses),
      static_cast<long long>(r.aborted),
      static_cast<long long>(r.unfinished_at_horizon),
      static_cast<long long>(r.wcet_overruns),
      CountersText(r.policy_counters).c_str());
  for (const PointResidency& res : r.residency) {
    out += StrFormat(" [%.17g %.17g %.17g %.17g]", res.exec_ms, res.idle_ms,
                     res.exec_energy, res.idle_energy);
  }
  for (const TaskStats& t : r.task_stats) {
    out += StrFormat(" {%lld %lld %lld %lld %lld %.17g %.17g %.17g}",
                     static_cast<long long>(t.releases),
                     static_cast<long long>(t.completions),
                     static_cast<long long>(t.deadline_misses),
                     static_cast<long long>(t.aborted),
                     static_cast<long long>(t.unfinished), t.executed_work,
                     t.max_response_ms, t.total_response_ms);
  }
  return out;
}

std::string Fingerprint(const MpSimResult& mp) {
  std::string full = StrFormat("mig=%lld cluster: ",
                               static_cast<long long>(mp.migrations)) +
                     SliceText(mp.cluster);
  for (size_t c = 0; c < mp.cores.size(); ++c) {
    full += StrFormat(" core%zu(%s): ", c, mp.cores[c].policy_name.c_str()) +
            SliceText(mp.cores[c]);
  }
  return full;
}

MpSimResult RunCase(int cores, size_t set, const std::vector<std::string>& ids,
                    double switch_time, MissPolicy miss, bool uniform,
                    bool record_trace) {
  SimRequest request;
  request.tasks = SeededTaskSet(cores, set);
  request.cluster.num_cores = cores;
  request.cluster.machine = MachineSpec::Machine0();
  request.mode = MpMode::kGlobal;
  request.policy_ids = ids;
  request.options.horizon_ms = 400.0;
  request.options.seed = 7 + set;
  request.options.switch_time_ms = switch_time;
  request.options.miss_policy = miss;
  request.options.record_trace = record_trace;
  std::unique_ptr<ExecTimeModel> model;
  if (uniform) {
    model = std::make_unique<UniformFractionModel>(0.2, 1.0);
  } else {
    model = std::make_unique<ConstantFractionModel>(1.0);
  }
  return RunClusterSimulation(request, *model);
}

// Runs every combination for one core count, in a fixed order; the second
// of each pair is the full line a mismatch reports.
std::vector<std::pair<std::string, std::string>> RunGrid(int cores) {
  std::vector<std::pair<std::string, std::string>> lines;
  for (size_t set = 0; set < std::size(kPerCoreUtilization); ++set) {
    for (const PolicySpec& policy : kPolicies) {
      for (double switch_time : kSwitchTimes) {
        for (MissPolicy miss : kMissPolicies) {
          for (bool uniform : {false, true}) {
            const MpSimResult mp = RunCase(cores, set, PolicyIds(policy, cores),
                                           switch_time, miss, uniform, false);
            const std::string full = Fingerprint(mp);
            const std::string line = StrFormat(
                "set%zu %s sw=%g %s %s E=%.17g mig=%lld pre=%lld miss=%lld "
                "#%016llx",
                set, policy.label, switch_time,
                miss == MissPolicy::kAbortJob ? "abort" : "late",
                uniform ? "uni" : "const", mp.cluster.total_energy(),
                static_cast<long long>(mp.migrations),
                static_cast<long long>(mp.cluster.preemptions),
                static_cast<long long>(mp.cluster.deadline_misses),
                static_cast<unsigned long long>(Fnv1a(full)));
            lines.emplace_back(line, line + " | " + full);
          }
        }
      }
    }
  }
  return lines;
}

void ExpectGolden(int cores, const std::vector<std::string>& golden) {
  const auto actual = RunGrid(cores);
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, golden[i]) << "case " << i << ": "
                                          << actual[i].second;
  }
}

TEST(GlobalGolden, TwoCores) {
  ExpectGolden(2, {
      "set0 edf sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #bbb69e7fc923a647",
      "set0 edf sw=0 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #e85f13b12b96a1de",
      "set0 edf sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #bbb69e7fc923a647",
      "set0 edf sw=0 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #e85f13b12b96a1de",
      "set0 edf sw=0.4 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #bbb69e7fc923a647",
      "set0 edf sw=0.4 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #e85f13b12b96a1de",
      "set0 edf sw=0.4 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #bbb69e7fc923a647",
      "set0 edf sw=0.4 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #e85f13b12b96a1de",
      "set0 static_edf sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #5d9ba3b04a875ac7",
      "set0 static_edf sw=0 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #6df99fd00b19f71a",
      "set0 static_edf sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #5d9ba3b04a875ac7",
      "set0 static_edf sw=0 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #6df99fd00b19f71a",
      "set0 static_edf sw=0.4 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #5d9ba3b04a875ac7",
      "set0 static_edf sw=0.4 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #6df99fd00b19f71a",
      "set0 static_edf sw=0.4 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #5d9ba3b04a875ac7",
      "set0 static_edf sw=0.4 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #6df99fd00b19f71a",
      "set0 cc_edf sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #1d025c16bd701550",
      "set0 cc_edf sw=0 late uni E=5199.4692931106147 mig=0 pre=4 miss=0 #cbb01496bb3e6ec4",
      "set0 cc_edf sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #1d025c16bd701550",
      "set0 cc_edf sw=0 abort uni E=5199.4692931106147 mig=0 pre=4 miss=0 #cbb01496bb3e6ec4",
      "set0 cc_edf sw=0.4 late const E=9003.3263193089733 mig=0 pre=17 miss=101 #a69c084e0a16d7b1",
      "set0 cc_edf sw=0.4 late uni E=5289.8973071627915 mig=3 pre=15 miss=2 #9f26bdb74855a7a9",
      "set0 cc_edf sw=0.4 abort const E=8963.5459873264517 mig=0 pre=17 miss=96 #059b29d75fa3d34b",
      "set0 cc_edf sw=0.4 abort uni E=5289.5605302765307 mig=3 pre=15 miss=2 #8370afa1f715efd2",
      "set0 la_edf sw=0 late const E=7827.6503024950371 mig=0 pre=18 miss=0 #f964e04531a06c5f",
      "set0 la_edf sw=0 late uni E=4402.3940559962821 mig=0 pre=8 miss=0 #f5bff8dc5e939c2d",
      "set0 la_edf sw=0 abort const E=7827.6503024950371 mig=0 pre=18 miss=0 #f964e04531a06c5f",
      "set0 la_edf sw=0 abort uni E=4402.3940559962821 mig=0 pre=8 miss=0 #f5bff8dc5e939c2d",
      "set0 la_edf sw=0.4 late const E=6163.6456492715697 mig=0 pre=27 miss=242 #9bf1889063d0a25b",
      "set0 la_edf sw=0.4 late uni E=4739.36626167542 mig=0 pre=24 miss=228 #9e605dec185b5e64",
      "set0 la_edf sw=0.4 abort const E=6842.4345970757795 mig=0 pre=35 miss=182 #7a6d8e6ce9b8ae8f",
      "set0 la_edf sw=0.4 abort uni E=4602.7176791696538 mig=4 pre=25 miss=59 #4470e250a48a540d",
      "set0 interval sw=0 late const E=9013.326319308977 mig=0 pre=13 miss=0 #24ac6566b195e1bc",
      "set0 interval sw=0 late uni E=3386.7823831140786 mig=0 pre=10 miss=30 #f8a58db79e5cdc53",
      "set0 interval sw=0 abort const E=9013.326319308977 mig=0 pre=13 miss=0 #24ac6566b195e1bc",
      "set0 interval sw=0 abort uni E=3091.8810945191153 mig=0 pre=11 miss=35 #7047ed53f4b740f2",
      "set0 interval sw=0.4 late const E=9013.326319308977 mig=0 pre=13 miss=0 #24ac6566b195e1bc",
      "set0 interval sw=0.4 late uni E=3386.7823831140795 mig=0 pre=10 miss=32 #fe2ed852c2f4d7c5",
      "set0 interval sw=0.4 abort const E=9013.326319308977 mig=0 pre=13 miss=0 #24ac6566b195e1bc",
      "set0 interval sw=0.4 abort uni E=3090.7331829203472 mig=0 pre=11 miss=36 #ee9c16214f253c40",
      "set0 rm sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #026ad2ba6b5b1be7",
      "set0 rm sw=0 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #c9c9cb02c5501cbe",
      "set0 rm sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #026ad2ba6b5b1be7",
      "set0 rm sw=0 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #c9c9cb02c5501cbe",
      "set0 rm sw=0.4 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #026ad2ba6b5b1be7",
      "set0 rm sw=0.4 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #c9c9cb02c5501cbe",
      "set0 rm sw=0.4 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #026ad2ba6b5b1be7",
      "set0 rm sw=0.4 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #c9c9cb02c5501cbe",
      "set0 static_rm sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #e1ad67360f95de7b",
      "set0 static_rm sw=0 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #5bf8062caa94825e",
      "set0 static_rm sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #e1ad67360f95de7b",
      "set0 static_rm sw=0 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #5bf8062caa94825e",
      "set0 static_rm sw=0.4 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #e1ad67360f95de7b",
      "set0 static_rm sw=0.4 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #5bf8062caa94825e",
      "set0 static_rm sw=0.4 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #e1ad67360f95de7b",
      "set0 static_rm sw=0.4 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #5bf8062caa94825e",
      "set0 cc_rm sw=0 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #956e555e5c3368a3",
      "set0 cc_rm sw=0 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #2744c9782d2f8c5e",
      "set0 cc_rm sw=0 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #956e555e5c3368a3",
      "set0 cc_rm sw=0 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #2744c9782d2f8c5e",
      "set0 cc_rm sw=0.4 late const E=9013.3263193089751 mig=0 pre=13 miss=0 #956e555e5c3368a3",
      "set0 cc_rm sw=0.4 late uni E=5380.6483100659898 mig=0 pre=4 miss=0 #2744c9782d2f8c5e",
      "set0 cc_rm sw=0.4 abort const E=9013.3263193089751 mig=0 pre=13 miss=0 #956e555e5c3368a3",
      "set0 cc_rm sw=0.4 abort uni E=5380.6483100659898 mig=0 pre=4 miss=0 #2744c9782d2f8c5e",
      "set0 mixed sw=0 late const E=8507.9446072189276 mig=0 pre=18 miss=0 #8e03e158106d2f18",
      "set0 mixed sw=0 late uni E=5023.8763930292653 mig=0 pre=5 miss=0 #c106fd65cd64dffc",
      "set0 mixed sw=0 abort const E=8507.9446072189276 mig=0 pre=18 miss=0 #8e03e158106d2f18",
      "set0 mixed sw=0 abort uni E=5023.8763930292653 mig=0 pre=5 miss=0 #c106fd65cd64dffc",
      "set0 mixed sw=0.4 late const E=8559.8579218231007 mig=2 pre=32 miss=131 #4e0ea0634c2f7419",
      "set0 mixed sw=0.4 late uni E=5041.7286796655962 mig=5 pre=26 miss=52 #dcff5d6f6f089c3f",
      "set0 mixed sw=0.4 abort const E=8669.4066921012018 mig=4 pre=39 miss=125 #de788cdb72d48be5",
      "set0 mixed sw=0.4 abort uni E=5219.3172133638818 mig=6 pre=25 miss=8 #c0d6fd826aef0c91",
      "set1 edf sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #4eec40462e2af281",
      "set1 edf sw=0 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #901c14e09e55aea1",
      "set1 edf sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #4eec40462e2af281",
      "set1 edf sw=0 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #901c14e09e55aea1",
      "set1 edf sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #4eec40462e2af281",
      "set1 edf sw=0.4 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #901c14e09e55aea1",
      "set1 edf sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #4eec40462e2af281",
      "set1 edf sw=0.4 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #901c14e09e55aea1",
      "set1 static_edf sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #1fe50cab081fca7d",
      "set1 static_edf sw=0 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #e96cbc4bf0a427d9",
      "set1 static_edf sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #1fe50cab081fca7d",
      "set1 static_edf sw=0 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #e96cbc4bf0a427d9",
      "set1 static_edf sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #1fe50cab081fca7d",
      "set1 static_edf sw=0.4 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #e96cbc4bf0a427d9",
      "set1 static_edf sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #1fe50cab081fca7d",
      "set1 static_edf sw=0.4 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #e96cbc4bf0a427d9",
      "set1 cc_edf sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #00ce791229478d55",
      "set1 cc_edf sw=0 late uni E=8445.7397558941393 mig=0 pre=13 miss=0 #70f96034ae755cc9",
      "set1 cc_edf sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #00ce791229478d55",
      "set1 cc_edf sw=0 abort uni E=8445.7397558941393 mig=0 pre=13 miss=0 #70f96034ae755cc9",
      "set1 cc_edf sw=0.4 late const E=14258.255627492385 mig=7 pre=57 miss=0 #5fd0ab23fba4f432",
      "set1 cc_edf sw=0.4 late uni E=8454.6596375080317 mig=2 pre=18 miss=0 #af155033d7bb1754",
      "set1 cc_edf sw=0.4 abort const E=14258.255627492385 mig=7 pre=57 miss=0 #5fd0ab23fba4f432",
      "set1 cc_edf sw=0.4 abort uni E=8454.6596375080317 mig=2 pre=18 miss=0 #af155033d7bb1754",
      "set1 la_edf sw=0 late const E=13023.92052389669 mig=4 pre=51 miss=0 #0e1eb8efe4350b54",
      "set1 la_edf sw=0 late uni E=7642.3929275982509 mig=0 pre=15 miss=0 #2cd2be149da57c2b",
      "set1 la_edf sw=0 abort const E=13023.92052389669 mig=4 pre=51 miss=0 #0e1eb8efe4350b54",
      "set1 la_edf sw=0 abort uni E=7642.3929275982509 mig=0 pre=15 miss=0 #2cd2be149da57c2b",
      "set1 la_edf sw=0.4 late const E=13180.793461352889 mig=13 pre=70 miss=6 #b7df2ce9e34120bc",
      "set1 la_edf sw=0.4 late uni E=7662.7701257311164 mig=3 pre=22 miss=2 #6a1026f687689087",
      "set1 la_edf sw=0.4 abort const E=13172.918455022667 mig=13 pre=70 miss=4 #ae93808d4e9bc7a1",
      "set1 la_edf sw=0.4 abort uni E=7669.0192986343754 mig=3 pre=22 miss=2 #599e83122fff22a1",
      "set1 interval sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #a66f352e6c579a75",
      "set1 interval sw=0 late uni E=7537.8076920867188 mig=0 pre=17 miss=0 #bf49b0dbf6ebe320",
      "set1 interval sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #a66f352e6c579a75",
      "set1 interval sw=0 abort uni E=7537.8076920867188 mig=0 pre=17 miss=0 #bf49b0dbf6ebe320",
      "set1 interval sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #a66f352e6c579a75",
      "set1 interval sw=0.4 late uni E=7537.8076920867188 mig=0 pre=17 miss=0 #35c82efa73a9602f",
      "set1 interval sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #a66f352e6c579a75",
      "set1 interval sw=0.4 abort uni E=7537.8076920867188 mig=0 pre=17 miss=0 #35c82efa73a9602f",
      "set1 rm sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #21ef37c5ba1d1e81",
      "set1 rm sw=0 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #8cdf142448691bed",
      "set1 rm sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #21ef37c5ba1d1e81",
      "set1 rm sw=0 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #8cdf142448691bed",
      "set1 rm sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #21ef37c5ba1d1e81",
      "set1 rm sw=0.4 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #8cdf142448691bed",
      "set1 rm sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #21ef37c5ba1d1e81",
      "set1 rm sw=0.4 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #8cdf142448691bed",
      "set1 static_rm sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #95ede83845531e01",
      "set1 static_rm sw=0 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #bdd01707a2552349",
      "set1 static_rm sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #95ede83845531e01",
      "set1 static_rm sw=0 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #bdd01707a2552349",
      "set1 static_rm sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #95ede83845531e01",
      "set1 static_rm sw=0.4 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #bdd01707a2552349",
      "set1 static_rm sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #95ede83845531e01",
      "set1 static_rm sw=0.4 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #bdd01707a2552349",
      "set1 cc_rm sw=0 late const E=14272.370100430315 mig=2 pre=45 miss=0 #50508fa7439fa8c1",
      "set1 cc_rm sw=0 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #2e923ff3c82b0459",
      "set1 cc_rm sw=0 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #50508fa7439fa8c1",
      "set1 cc_rm sw=0 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #2e923ff3c82b0459",
      "set1 cc_rm sw=0.4 late const E=14272.370100430315 mig=2 pre=45 miss=0 #50508fa7439fa8c1",
      "set1 cc_rm sw=0.4 late uni E=8554.8717342323798 mig=0 pre=13 miss=0 #2e923ff3c82b0459",
      "set1 cc_rm sw=0.4 abort const E=14272.370100430315 mig=2 pre=45 miss=0 #50508fa7439fa8c1",
      "set1 cc_rm sw=0.4 abort uni E=8554.8717342323798 mig=0 pre=13 miss=0 #2e923ff3c82b0459",
      "set1 mixed sw=0 late const E=13708.181372965009 mig=4 pre=51 miss=0 #0bfcc586f4a09b97",
      "set1 mixed sw=0 late uni E=8353.2004003418497 mig=0 pre=13 miss=0 #b1c5a3a6d58d64e5",
      "set1 mixed sw=0 abort const E=13708.181372965009 mig=4 pre=51 miss=0 #0bfcc586f4a09b97",
      "set1 mixed sw=0 abort uni E=8353.2004003418497 mig=0 pre=13 miss=0 #b1c5a3a6d58d64e5",
      "set1 mixed sw=0.4 late const E=13734.650590157542 mig=9 pre=61 miss=7 #c681099e4707d04f",
      "set1 mixed sw=0.4 late uni E=8277.61309431482 mig=4 pre=22 miss=0 #999239d1da0e5d44",
      "set1 mixed sw=0.4 abort const E=13723.380394791597 mig=10 pre=61 miss=6 #83b5bd23344ed6de",
      "set1 mixed sw=0.4 abort uni E=8277.61309431482 mig=4 pre=22 miss=0 #999239d1da0e5d44",
      "set2 edf sw=0 late const E=19566.117287805479 mig=69 pre=121 miss=0 #a0e746a2ae8f6eac",
      "set2 edf sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #90352a2d6af72ea1",
      "set2 edf sw=0 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #a0e746a2ae8f6eac",
      "set2 edf sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #90352a2d6af72ea1",
      "set2 edf sw=0.4 late const E=19566.117287805479 mig=69 pre=121 miss=0 #a0e746a2ae8f6eac",
      "set2 edf sw=0.4 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #90352a2d6af72ea1",
      "set2 edf sw=0.4 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #a0e746a2ae8f6eac",
      "set2 edf sw=0.4 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #90352a2d6af72ea1",
      "set2 static_edf sw=0 late const E=19566.117287805479 mig=69 pre=121 miss=0 #71e7a2014de338c8",
      "set2 static_edf sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #eeebe28952daf4e5",
      "set2 static_edf sw=0 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #71e7a2014de338c8",
      "set2 static_edf sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #eeebe28952daf4e5",
      "set2 static_edf sw=0.4 late const E=19566.117287805479 mig=69 pre=121 miss=0 #71e7a2014de338c8",
      "set2 static_edf sw=0.4 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #eeebe28952daf4e5",
      "set2 static_edf sw=0.4 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #71e7a2014de338c8",
      "set2 static_edf sw=0.4 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #eeebe28952daf4e5",
      "set2 cc_edf sw=0 late const E=19566.117287805479 mig=69 pre=121 miss=0 #f048279f7a427c26",
      "set2 cc_edf sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #13692f28c67c8143",
      "set2 cc_edf sw=0 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #f048279f7a427c26",
      "set2 cc_edf sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #13692f28c67c8143",
      "set2 cc_edf sw=0.4 late const E=19536.117287805479 mig=70 pre=121 miss=0 #794b139296b2f592",
      "set2 cc_edf sw=0.4 late uni E=11853.414679436413 mig=16 pre=31 miss=0 #ff67d9b1bba27093",
      "set2 cc_edf sw=0.4 abort const E=19536.117287805479 mig=70 pre=121 miss=0 #794b139296b2f592",
      "set2 cc_edf sw=0.4 abort uni E=11853.414679436413 mig=16 pre=31 miss=0 #ff67d9b1bba27093",
      "set2 la_edf sw=0 late const E=19536.98812474795 mig=69 pre=121 miss=0 #99e2da3f9d4f2327",
      "set2 la_edf sw=0 late uni E=11641.98355467755 mig=15 pre=29 miss=0 #4ad9bb3c31947bad",
      "set2 la_edf sw=0 abort const E=19536.98812474795 mig=69 pre=121 miss=0 #99e2da3f9d4f2327",
      "set2 la_edf sw=0 abort uni E=11641.98355467755 mig=15 pre=29 miss=0 #4ad9bb3c31947bad",
      "set2 la_edf sw=0.4 late const E=19521.724108322487 mig=71 pre=122 miss=0 #a1ec5a1afce34aa5",
      "set2 la_edf sw=0.4 late uni E=11643.954211887562 mig=15 pre=32 miss=0 #a936d901fb70bed9",
      "set2 la_edf sw=0.4 abort const E=19521.724108322487 mig=71 pre=122 miss=0 #a1ec5a1afce34aa5",
      "set2 la_edf sw=0.4 abort uni E=11643.954211887562 mig=15 pre=32 miss=0 #a936d901fb70bed9",
      "set2 interval sw=0 late const E=19566.117287805479 mig=69 pre=121 miss=0 #4a05d263d2c6d6c7",
      "set2 interval sw=0 late uni E=11861.564679436409 mig=15 pre=29 miss=0 #c94f9254474605b5",
      "set2 interval sw=0 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #4a05d263d2c6d6c7",
      "set2 interval sw=0 abort uni E=11861.564679436409 mig=15 pre=29 miss=0 #c94f9254474605b5",
      "set2 interval sw=0.4 late const E=19566.117287805479 mig=69 pre=121 miss=0 #4a05d263d2c6d6c7",
      "set2 interval sw=0.4 late uni E=11861.564679436409 mig=15 pre=29 miss=0 #c94f9254474605b5",
      "set2 interval sw=0.4 abort const E=19566.117287805479 mig=69 pre=121 miss=0 #4a05d263d2c6d6c7",
      "set2 interval sw=0.4 abort uni E=11861.564679436409 mig=15 pre=29 miss=0 #c94f9254474605b5",
      "set2 rm sw=0 late const E=19566.117287805479 mig=70 pre=121 miss=0 #75ace6c84a80695f",
      "set2 rm sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #4548e355d3323739",
      "set2 rm sw=0 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #75ace6c84a80695f",
      "set2 rm sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #4548e355d3323739",
      "set2 rm sw=0.4 late const E=19566.117287805479 mig=70 pre=121 miss=0 #75ace6c84a80695f",
      "set2 rm sw=0.4 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #4548e355d3323739",
      "set2 rm sw=0.4 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #75ace6c84a80695f",
      "set2 rm sw=0.4 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #4548e355d3323739",
      "set2 static_rm sw=0 late const E=19566.117287805479 mig=70 pre=121 miss=0 #16d315ef80b104bf",
      "set2 static_rm sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #58d757449aa09ea1",
      "set2 static_rm sw=0 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #16d315ef80b104bf",
      "set2 static_rm sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #58d757449aa09ea1",
      "set2 static_rm sw=0.4 late const E=19566.117287805479 mig=70 pre=121 miss=0 #16d315ef80b104bf",
      "set2 static_rm sw=0.4 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #58d757449aa09ea1",
      "set2 static_rm sw=0.4 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #16d315ef80b104bf",
      "set2 static_rm sw=0.4 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #58d757449aa09ea1",
      "set2 cc_rm sw=0 late const E=19566.117287805479 mig=70 pre=121 miss=0 #68a1c430375b6c57",
      "set2 cc_rm sw=0 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #c7a0ef59021e7341",
      "set2 cc_rm sw=0 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #68a1c430375b6c57",
      "set2 cc_rm sw=0 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #c7a0ef59021e7341",
      "set2 cc_rm sw=0.4 late const E=19566.117287805479 mig=70 pre=121 miss=0 #68a1c430375b6c57",
      "set2 cc_rm sw=0.4 late uni E=11861.564679436411 mig=15 pre=29 miss=0 #c7a0ef59021e7341",
      "set2 cc_rm sw=0.4 abort const E=19566.117287805479 mig=70 pre=121 miss=0 #68a1c430375b6c57",
      "set2 cc_rm sw=0.4 abort uni E=11861.564679436411 mig=15 pre=29 miss=0 #c7a0ef59021e7341",
      "set2 mixed sw=0 late const E=19536.98812474795 mig=69 pre=121 miss=0 #405e3acfc553340b",
      "set2 mixed sw=0 late uni E=11756.700811127441 mig=15 pre=29 miss=0 #afa59180f61e9140",
      "set2 mixed sw=0 abort const E=19536.98812474795 mig=69 pre=121 miss=0 #405e3acfc553340b",
      "set2 mixed sw=0 abort uni E=11756.700811127441 mig=15 pre=29 miss=0 #afa59180f61e9140",
      "set2 mixed sw=0.4 late const E=19528.310817577418 mig=70 pre=121 miss=0 #12672d6d1c602c37",
      "set2 mixed sw=0.4 late uni E=11800.269448888346 mig=16 pre=31 miss=0 #274f6fa2a99af5a6",
      "set2 mixed sw=0.4 abort const E=19528.310817577418 mig=70 pre=121 miss=0 #12672d6d1c602c37",
      "set2 mixed sw=0.4 abort uni E=11800.269448888346 mig=16 pre=31 miss=0 #274f6fa2a99af5a6",
  });
}

TEST(GlobalGolden, ThreeCores) {
  ExpectGolden(3, {
      "set0 edf sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #0c80b9f38798cdb6",
      "set0 edf sw=0 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #2953f3bdb13feb7c",
      "set0 edf sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #0c80b9f38798cdb6",
      "set0 edf sw=0 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #2953f3bdb13feb7c",
      "set0 edf sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #0c80b9f38798cdb6",
      "set0 edf sw=0.4 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #2953f3bdb13feb7c",
      "set0 edf sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #0c80b9f38798cdb6",
      "set0 edf sw=0.4 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #2953f3bdb13feb7c",
      "set0 static_edf sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #7d757e6997f4b324",
      "set0 static_edf sw=0 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #ee1905da2d06b8ae",
      "set0 static_edf sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #7d757e6997f4b324",
      "set0 static_edf sw=0 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #ee1905da2d06b8ae",
      "set0 static_edf sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #7d757e6997f4b324",
      "set0 static_edf sw=0.4 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #ee1905da2d06b8ae",
      "set0 static_edf sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #7d757e6997f4b324",
      "set0 static_edf sw=0.4 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #ee1905da2d06b8ae",
      "set0 cc_edf sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #f8f2885103483ce9",
      "set0 cc_edf sw=0 late uni E=7794.2972537814312 mig=2 pre=2 miss=0 #8c06188c679e4b48",
      "set0 cc_edf sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #f8f2885103483ce9",
      "set0 cc_edf sw=0 abort uni E=7794.2972537814312 mig=2 pre=2 miss=0 #8c06188c679e4b48",
      "set0 cc_edf sw=0.4 late const E=13729.496702689888 mig=6 pre=7 miss=124 #34c7fecc4dbb4fb7",
      "set0 cc_edf sw=0.4 late uni E=7851.9779218303393 mig=3 pre=4 miss=16 #0ec88874e9993255",
      "set0 cc_edf sw=0.4 abort const E=13206.587663347113 mig=6 pre=7 miss=93 #2e555e1893e1e8f1",
      "set0 cc_edf sw=0.4 abort uni E=7801.7607012118842 mig=3 pre=4 miss=16 #a62ae8a33011edcd",
      "set0 la_edf sw=0 late const E=13617.58681018043 mig=7 pre=7 miss=0 #c3abb1b27da25a47",
      "set0 la_edf sw=0 late uni E=7869.4012712634558 mig=2 pre=2 miss=0 #ccb959fb1f400d16",
      "set0 la_edf sw=0 abort const E=13617.58681018043 mig=7 pre=7 miss=0 #c3abb1b27da25a47",
      "set0 la_edf sw=0 abort uni E=7869.4012712634558 mig=2 pre=2 miss=0 #ccb959fb1f400d16",
      "set0 la_edf sw=0.4 late const E=11183.130933601751 mig=5 pre=6 miss=186 #ae5e23e3589320c0",
      "set0 la_edf sw=0.4 late uni E=7375.0400007764601 mig=2 pre=3 miss=143 #cfe18986414b7ecf",
      "set0 la_edf sw=0.4 abort const E=13053.227985185029 mig=4 pre=6 miss=113 #7958438d36e4937a",
      "set0 la_edf sw=0.4 abort uni E=7896.3490160147721 mig=2 pre=2 miss=17 #1f11440f80297f8b",
      "set0 interval sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #7c2682e2915e226b",
      "set0 interval sw=0 late uni E=7438.646787782558 mig=2 pre=2 miss=6 #9302db5c798adf53",
      "set0 interval sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #7c2682e2915e226b",
      "set0 interval sw=0 abort uni E=7421.3213018964216 mig=2 pre=2 miss=6 #5e0d040e316dbfc3",
      "set0 interval sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #7c2682e2915e226b",
      "set0 interval sw=0.4 late uni E=7438.646787782558 mig=2 pre=2 miss=7 #3093fe169916379c",
      "set0 interval sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #7c2682e2915e226b",
      "set0 interval sw=0.4 abort uni E=7417.887940792667 mig=2 pre=2 miss=7 #c26904ab2c7ba0b2",
      "set0 rm sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #c21e2b6da0156b64",
      "set0 rm sw=0 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #28ed1550a0df06ec",
      "set0 rm sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #c21e2b6da0156b64",
      "set0 rm sw=0 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #28ed1550a0df06ec",
      "set0 rm sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #c21e2b6da0156b64",
      "set0 rm sw=0.4 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #28ed1550a0df06ec",
      "set0 rm sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #c21e2b6da0156b64",
      "set0 rm sw=0.4 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #28ed1550a0df06ec",
      "set0 static_rm sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #ca6ce1ec0a952272",
      "set0 static_rm sw=0 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #0e1850551b401dd6",
      "set0 static_rm sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #ca6ce1ec0a952272",
      "set0 static_rm sw=0 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #0e1850551b401dd6",
      "set0 static_rm sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #ca6ce1ec0a952272",
      "set0 static_rm sw=0.4 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #0e1850551b401dd6",
      "set0 static_rm sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #ca6ce1ec0a952272",
      "set0 static_rm sw=0.4 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #0e1850551b401dd6",
      "set0 cc_rm sw=0 late const E=13739.50819888972 mig=7 pre=7 miss=0 #0a217d467911631a",
      "set0 cc_rm sw=0 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #6ff5404f1623630e",
      "set0 cc_rm sw=0 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #0a217d467911631a",
      "set0 cc_rm sw=0 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #6ff5404f1623630e",
      "set0 cc_rm sw=0.4 late const E=13739.50819888972 mig=7 pre=7 miss=0 #0a217d467911631a",
      "set0 cc_rm sw=0.4 late uni E=7999.9496600690109 mig=2 pre=2 miss=0 #6ff5404f1623630e",
      "set0 cc_rm sw=0.4 abort const E=13739.50819888972 mig=7 pre=7 miss=0 #0a217d467911631a",
      "set0 cc_rm sw=0.4 abort uni E=7999.9496600690109 mig=2 pre=2 miss=0 #6ff5404f1623630e",
      "set0 mixed sw=0 late const E=13732.445840026627 mig=7 pre=7 miss=0 #4c1995cc2b03ca7b",
      "set0 mixed sw=0 late uni E=7790.0449472527589 mig=2 pre=2 miss=0 #1faedfa9f47a546e",
      "set0 mixed sw=0 abort const E=13732.445840026627 mig=7 pre=7 miss=0 #4c1995cc2b03ca7b",
      "set0 mixed sw=0 abort uni E=7790.0449472527589 mig=2 pre=2 miss=0 #1faedfa9f47a546e",
      "set0 mixed sw=0.4 late const E=13318.660743453267 mig=4 pre=8 miss=124 #63f51c2b0dd568a0",
      "set0 mixed sw=0.4 late uni E=7844.9783303251443 mig=3 pre=4 miss=16 #a120594ba6ca4e6b",
      "set0 mixed sw=0.4 abort const E=13194.678101608673 mig=5 pre=7 miss=94 #193d12765945a470",
      "set0 mixed sw=0.4 abort uni E=7818.1805591028342 mig=3 pre=4 miss=16 #f0487f0f407cfea7",
      "set1 edf sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #3c291d83d6caac5a",
      "set1 edf sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #02bd66dbcdf8d661",
      "set1 edf sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #3c291d83d6caac5a",
      "set1 edf sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #02bd66dbcdf8d661",
      "set1 edf sw=0.4 late const E=22337.847561902185 mig=34 pre=63 miss=0 #3c291d83d6caac5a",
      "set1 edf sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #02bd66dbcdf8d661",
      "set1 edf sw=0.4 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #3c291d83d6caac5a",
      "set1 edf sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #02bd66dbcdf8d661",
      "set1 static_edf sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #527781b9d6ba86c4",
      "set1 static_edf sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #259ea3627637d307",
      "set1 static_edf sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #527781b9d6ba86c4",
      "set1 static_edf sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #259ea3627637d307",
      "set1 static_edf sw=0.4 late const E=22337.847561902185 mig=34 pre=63 miss=0 #527781b9d6ba86c4",
      "set1 static_edf sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #259ea3627637d307",
      "set1 static_edf sw=0.4 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #527781b9d6ba86c4",
      "set1 static_edf sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #259ea3627637d307",
      "set1 cc_edf sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #83b044269a0cde85",
      "set1 cc_edf sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #32df77ad084b90d1",
      "set1 cc_edf sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #83b044269a0cde85",
      "set1 cc_edf sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #32df77ad084b90d1",
      "set1 cc_edf sw=0.4 late const E=22317.847561902199 mig=37 pre=67 miss=0 #c4757747783950ea",
      "set1 cc_edf sw=0.4 late uni E=13262.011553921178 mig=5 pre=17 miss=0 #dd9254d93593ad8d",
      "set1 cc_edf sw=0.4 abort const E=22317.847561902199 mig=37 pre=67 miss=0 #c4757747783950ea",
      "set1 cc_edf sw=0.4 abort uni E=13262.011553921178 mig=5 pre=17 miss=0 #dd9254d93593ad8d",
      "set1 la_edf sw=0 late const E=22183.709430590123 mig=34 pre=63 miss=0 #d2fe11985f94862f",
      "set1 la_edf sw=0 late uni E=13013.501133967276 mig=3 pre=14 miss=0 #9ed4add15ac0c1b8",
      "set1 la_edf sw=0 abort const E=22183.709430590123 mig=34 pre=63 miss=0 #d2fe11985f94862f",
      "set1 la_edf sw=0 abort uni E=13013.501133967276 mig=3 pre=14 miss=0 #9ed4add15ac0c1b8",
      "set1 la_edf sw=0.4 late const E=22225.099944570262 mig=38 pre=68 miss=1 #da14b9cf71c27cc2",
      "set1 la_edf sw=0.4 late uni E=13085.009689114737 mig=5 pre=17 miss=1 #ddea238dc90f5ec8",
      "set1 la_edf sw=0.4 abort const E=22225.04656802538 mig=38 pre=68 miss=1 #14d86d6ad972a5b3",
      "set1 la_edf sw=0.4 abort uni E=13082.934457655047 mig=5 pre=17 miss=1 #5058d7d830351778",
      "set1 interval sw=0 late const E=22337.847561902192 mig=34 pre=63 miss=0 #96e3004e1e4327ec",
      "set1 interval sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #221dc986432fa38c",
      "set1 interval sw=0 abort const E=22337.847561902192 mig=34 pre=63 miss=0 #96e3004e1e4327ec",
      "set1 interval sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #221dc986432fa38c",
      "set1 interval sw=0.4 late const E=22337.847561902192 mig=34 pre=63 miss=0 #96e3004e1e4327ec",
      "set1 interval sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #221dc986432fa38c",
      "set1 interval sw=0.4 abort const E=22337.847561902192 mig=34 pre=63 miss=0 #96e3004e1e4327ec",
      "set1 interval sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #221dc986432fa38c",
      "set1 rm sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #25589982a057ac9a",
      "set1 rm sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #4bb9053644b2cb97",
      "set1 rm sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #25589982a057ac9a",
      "set1 rm sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #4bb9053644b2cb97",
      "set1 rm sw=0.4 late const E=22337.847561902185 mig=34 pre=63 miss=0 #25589982a057ac9a",
      "set1 rm sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #4bb9053644b2cb97",
      "set1 rm sw=0.4 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #25589982a057ac9a",
      "set1 rm sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #4bb9053644b2cb97",
      "set1 static_rm sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #184075f3c96ddeb4",
      "set1 static_rm sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #3e9140c1d6e0b4bd",
      "set1 static_rm sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #184075f3c96ddeb4",
      "set1 static_rm sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #3e9140c1d6e0b4bd",
      "set1 static_rm sw=0.4 late const E=22337.847561902185 mig=34 pre=63 miss=0 #184075f3c96ddeb4",
      "set1 static_rm sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #3e9140c1d6e0b4bd",
      "set1 static_rm sw=0.4 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #184075f3c96ddeb4",
      "set1 static_rm sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #3e9140c1d6e0b4bd",
      "set1 cc_rm sw=0 late const E=22337.847561902185 mig=34 pre=63 miss=0 #63126b67e2c0702c",
      "set1 cc_rm sw=0 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #f4750e7d2323f25d",
      "set1 cc_rm sw=0 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #63126b67e2c0702c",
      "set1 cc_rm sw=0 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #f4750e7d2323f25d",
      "set1 cc_rm sw=0.4 late const E=22337.847561902185 mig=34 pre=63 miss=0 #63126b67e2c0702c",
      "set1 cc_rm sw=0.4 late uni E=13262.01155392118 mig=3 pre=14 miss=0 #f4750e7d2323f25d",
      "set1 cc_rm sw=0.4 abort const E=22337.847561902185 mig=34 pre=63 miss=0 #63126b67e2c0702c",
      "set1 cc_rm sw=0.4 abort uni E=13262.01155392118 mig=3 pre=14 miss=0 #f4750e7d2323f25d",
      "set1 mixed sw=0 late const E=22280.683873769533 mig=34 pre=63 miss=0 #fbbb4a00c69646fe",
      "set1 mixed sw=0 late uni E=13143.605298679471 mig=3 pre=14 miss=0 #63a8d94a2ad847df",
      "set1 mixed sw=0 abort const E=22280.683873769533 mig=34 pre=63 miss=0 #fbbb4a00c69646fe",
      "set1 mixed sw=0 abort uni E=13143.605298679471 mig=3 pre=14 miss=0 #63a8d94a2ad847df",
      "set1 mixed sw=0.4 late const E=22284.797889294205 mig=37 pre=68 miss=0 #85b1d0d92421e5b0",
      "set1 mixed sw=0.4 late uni E=13158.617791048455 mig=5 pre=17 miss=0 #b09d903249fbcc9c",
      "set1 mixed sw=0.4 abort const E=22284.797889294205 mig=37 pre=68 miss=0 #85b1d0d92421e5b0",
      "set1 mixed sw=0.4 abort uni E=13158.617791048455 mig=5 pre=17 miss=0 #b09d903249fbcc9c",
      "set2 edf sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #7d6b47e17615d6d1",
      "set2 edf sw=0 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #76cf5637e8f13a90",
      "set2 edf sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #7d6b47e17615d6d1",
      "set2 edf sw=0 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #76cf5637e8f13a90",
      "set2 edf sw=0.4 late const E=29046.547855536475 mig=145 pre=239 miss=0 #7d6b47e17615d6d1",
      "set2 edf sw=0.4 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #76cf5637e8f13a90",
      "set2 edf sw=0.4 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #7d6b47e17615d6d1",
      "set2 edf sw=0.4 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #76cf5637e8f13a90",
      "set2 static_edf sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #11513a66948a478b",
      "set2 static_edf sw=0 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #82cf5a6fbc4857c2",
      "set2 static_edf sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #11513a66948a478b",
      "set2 static_edf sw=0 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #82cf5a6fbc4857c2",
      "set2 static_edf sw=0.4 late const E=29046.547855536475 mig=145 pre=239 miss=0 #11513a66948a478b",
      "set2 static_edf sw=0.4 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #82cf5a6fbc4857c2",
      "set2 static_edf sw=0.4 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #11513a66948a478b",
      "set2 static_edf sw=0.4 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #82cf5a6fbc4857c2",
      "set2 cc_edf sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #d60a9c5257afc4c1",
      "set2 cc_edf sw=0 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #c11e8d0c403f10c9",
      "set2 cc_edf sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #d60a9c5257afc4c1",
      "set2 cc_edf sw=0 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #c11e8d0c403f10c9",
      "set2 cc_edf sw=0.4 late const E=28996.414577263764 mig=148 pre=245 miss=3 #bb91d3fccd9f8d0b",
      "set2 cc_edf sw=0.4 late uni E=17424.324096783552 mig=25 pre=66 miss=1 #4c54733175bf0216",
      "set2 cc_edf sw=0.4 abort const E=28983.035646388751 mig=147 pre=245 miss=3 #a1b1aca232281f7d",
      "set2 cc_edf sw=0.4 abort uni E=17414.785330943305 mig=25 pre=65 miss=1 #2249e4ce1746c3ed",
      "set2 la_edf sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #b27dfecb37bfa282",
      "set2 la_edf sw=0 late uni E=17339.807497978338 mig=18 pre=50 miss=0 #7a4b5ca7f92c9002",
      "set2 la_edf sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #b27dfecb37bfa282",
      "set2 la_edf sw=0 abort uni E=17339.807497978338 mig=18 pre=50 miss=0 #7a4b5ca7f92c9002",
      "set2 la_edf sw=0.4 late const E=28712.669362694214 mig=138 pre=235 miss=25 #d71ceac3c1c566c9",
      "set2 la_edf sw=0.4 late uni E=17372.468219489092 mig=25 pre=66 miss=3 #2e5cd7232bf15c64",
      "set2 la_edf sw=0.4 abort const E=28975.772156145533 mig=148 pre=246 miss=5 #7c238d38de6d1129",
      "set2 la_edf sw=0.4 abort uni E=17358.489182285026 mig=25 pre=65 miss=4 #1a0eb61075616244",
      "set2 interval sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #e1cd59f8cf75d2df",
      "set2 interval sw=0 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #82403a143a026540",
      "set2 interval sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #e1cd59f8cf75d2df",
      "set2 interval sw=0 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #82403a143a026540",
      "set2 interval sw=0.4 late const E=29046.547855536475 mig=145 pre=239 miss=0 #e1cd59f8cf75d2df",
      "set2 interval sw=0.4 late uni E=17427.324096783552 mig=18 pre=50 miss=0 #82403a143a026540",
      "set2 interval sw=0.4 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #e1cd59f8cf75d2df",
      "set2 interval sw=0.4 abort uni E=17427.324096783552 mig=18 pre=50 miss=0 #82403a143a026540",
      "set2 rm sw=0 late const E=29048.517917782701 mig=141 pre=257 miss=8 #674015381dbcf61a",
      "set2 rm sw=0 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #b33358f1384f9afa",
      "set2 rm sw=0 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #521032b55fa1436c",
      "set2 rm sw=0 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #b33358f1384f9afa",
      "set2 rm sw=0.4 late const E=29048.517917782701 mig=141 pre=257 miss=8 #674015381dbcf61a",
      "set2 rm sw=0.4 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #b33358f1384f9afa",
      "set2 rm sw=0.4 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #521032b55fa1436c",
      "set2 rm sw=0.4 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #b33358f1384f9afa",
      "set2 static_rm sw=0 late const E=29048.517917782701 mig=141 pre=257 miss=8 #a15d187e63288c14",
      "set2 static_rm sw=0 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #b12966c4e20ec224",
      "set2 static_rm sw=0 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #aa7df61b12f3f5de",
      "set2 static_rm sw=0 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #b12966c4e20ec224",
      "set2 static_rm sw=0.4 late const E=29048.517917782701 mig=141 pre=257 miss=8 #a15d187e63288c14",
      "set2 static_rm sw=0.4 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #b12966c4e20ec224",
      "set2 static_rm sw=0.4 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #aa7df61b12f3f5de",
      "set2 static_rm sw=0.4 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #b12966c4e20ec224",
      "set2 cc_rm sw=0 late const E=29048.517917782701 mig=141 pre=257 miss=8 #46f00fb562601f5c",
      "set2 cc_rm sw=0 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #9fa2b1f44dc85b1c",
      "set2 cc_rm sw=0 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #97e0eee4ac3ec02e",
      "set2 cc_rm sw=0 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #9fa2b1f44dc85b1c",
      "set2 cc_rm sw=0.4 late const E=29048.517917782701 mig=141 pre=257 miss=8 #46f00fb562601f5c",
      "set2 cc_rm sw=0.4 late uni E=17427.324096783545 mig=18 pre=51 miss=0 #9fa2b1f44dc85b1c",
      "set2 cc_rm sw=0.4 abort const E=29030.856701160803 mig=141 pre=257 miss=6 #97e0eee4ac3ec02e",
      "set2 cc_rm sw=0.4 abort uni E=17427.324096783545 mig=18 pre=51 miss=0 #9fa2b1f44dc85b1c",
      "set2 mixed sw=0 late const E=29046.547855536475 mig=145 pre=239 miss=0 #810e7593bfd59ed6",
      "set2 mixed sw=0 late uni E=17380.238886244606 mig=18 pre=50 miss=0 #2deeae7370804e66",
      "set2 mixed sw=0 abort const E=29046.547855536475 mig=145 pre=239 miss=0 #810e7593bfd59ed6",
      "set2 mixed sw=0 abort uni E=17380.238886244606 mig=18 pre=50 miss=0 #2deeae7370804e66",
      "set2 mixed sw=0.4 late const E=28996.414577263757 mig=149 pre=246 miss=3 #8a1fc671bbc5560d",
      "set2 mixed sw=0.4 late uni E=17411.876414552626 mig=26 pre=66 miss=1 #e51eab931c6d94a3",
      "set2 mixed sw=0.4 abort const E=28983.035646388744 mig=148 pre=246 miss=3 #f9564321dd1606f7",
      "set2 mixed sw=0.4 abort uni E=17384.126712349764 mig=26 pre=65 miss=2 #bf00c3ec307f150a",
  });
}

TEST(GlobalGolden, FourCores) {
  ExpectGolden(4, {
      "set0 edf sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #bb2528dc5b6ccf97",
      "set0 edf sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #91ab8c6c686c7ae0",
      "set0 edf sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #bb2528dc5b6ccf97",
      "set0 edf sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #91ab8c6c686c7ae0",
      "set0 edf sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #bb2528dc5b6ccf97",
      "set0 edf sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #91ab8c6c686c7ae0",
      "set0 edf sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #bb2528dc5b6ccf97",
      "set0 edf sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #91ab8c6c686c7ae0",
      "set0 static_edf sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #e194982891fdfab7",
      "set0 static_edf sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #58e46778789c6b78",
      "set0 static_edf sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #e194982891fdfab7",
      "set0 static_edf sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #58e46778789c6b78",
      "set0 static_edf sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #e194982891fdfab7",
      "set0 static_edf sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #58e46778789c6b78",
      "set0 static_edf sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #e194982891fdfab7",
      "set0 static_edf sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #58e46778789c6b78",
      "set0 cc_edf sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #87c8b6147e48e685",
      "set0 cc_edf sw=0 late uni E=10875.202441029736 mig=0 pre=1 miss=0 #0bcab31d43582ead",
      "set0 cc_edf sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #87c8b6147e48e685",
      "set0 cc_edf sw=0 abort uni E=10875.202441029736 mig=0 pre=1 miss=0 #0bcab31d43582ead",
      "set0 cc_edf sw=0.4 late const E=18446.840469501989 mig=5 pre=13 miss=0 #626673c067bb10ad",
      "set0 cc_edf sw=0.4 late uni E=10883.841441557179 mig=0 pre=2 miss=0 #f0daf626abb151cf",
      "set0 cc_edf sw=0.4 abort const E=18446.840469501989 mig=5 pre=13 miss=0 #626673c067bb10ad",
      "set0 cc_edf sw=0.4 abort uni E=10883.841441557179 mig=0 pre=2 miss=0 #f0daf626abb151cf",
      "set0 la_edf sw=0 late const E=18121.194072394326 mig=3 pre=9 miss=0 #185553b7c32f47da",
      "set0 la_edf sw=0 late uni E=10563.408737210668 mig=0 pre=1 miss=0 #b5884b6e76c3255f",
      "set0 la_edf sw=0 abort const E=18121.194072394326 mig=3 pre=9 miss=0 #185553b7c32f47da",
      "set0 la_edf sw=0 abort uni E=10563.408737210668 mig=0 pre=1 miss=0 #b5884b6e76c3255f",
      "set0 la_edf sw=0.4 late const E=18279.685168127915 mig=4 pre=14 miss=23 #3fa1c41eab096c72",
      "set0 la_edf sw=0.4 late uni E=10700.325839773424 mig=0 pre=2 miss=10 #d37884ae4ac0c266",
      "set0 la_edf sw=0.4 abort const E=18322.143760421492 mig=4 pre=14 miss=8 #526030cc6797e01e",
      "set0 la_edf sw=0.4 abort uni E=10793.428948747396 mig=0 pre=2 miss=5 #065f6a8cc36aec93",
      "set0 interval sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #00254a1d7188c54c",
      "set0 interval sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #27cee4eca5ad4ff3",
      "set0 interval sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #00254a1d7188c54c",
      "set0 interval sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #27cee4eca5ad4ff3",
      "set0 interval sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #00254a1d7188c54c",
      "set0 interval sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #27cee4eca5ad4ff3",
      "set0 interval sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #00254a1d7188c54c",
      "set0 interval sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #27cee4eca5ad4ff3",
      "set0 rm sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #2b42dc38b25c1105",
      "set0 rm sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #36b997389fe235cc",
      "set0 rm sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #2b42dc38b25c1105",
      "set0 rm sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #36b997389fe235cc",
      "set0 rm sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #2b42dc38b25c1105",
      "set0 rm sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #36b997389fe235cc",
      "set0 rm sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #2b42dc38b25c1105",
      "set0 rm sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #36b997389fe235cc",
      "set0 static_rm sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #10b1e89a2be4110d",
      "set0 static_rm sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #c4a53294df2442ec",
      "set0 static_rm sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #10b1e89a2be4110d",
      "set0 static_rm sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #c4a53294df2442ec",
      "set0 static_rm sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #10b1e89a2be4110d",
      "set0 static_rm sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #c4a53294df2442ec",
      "set0 static_rm sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #10b1e89a2be4110d",
      "set0 static_rm sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #c4a53294df2442ec",
      "set0 cc_rm sw=0 late const E=18456.091501296236 mig=3 pre=9 miss=0 #488e8394036e22ad",
      "set0 cc_rm sw=0 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #be86b99604b40f64",
      "set0 cc_rm sw=0 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #488e8394036e22ad",
      "set0 cc_rm sw=0 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #be86b99604b40f64",
      "set0 cc_rm sw=0.4 late const E=18456.091501296236 mig=3 pre=9 miss=0 #488e8394036e22ad",
      "set0 cc_rm sw=0.4 late uni E=10915.325475747004 mig=0 pre=1 miss=0 #be86b99604b40f64",
      "set0 cc_rm sw=0.4 abort const E=18456.091501296236 mig=3 pre=9 miss=0 #488e8394036e22ad",
      "set0 cc_rm sw=0.4 abort uni E=10915.325475747004 mig=0 pre=1 miss=0 #be86b99604b40f64",
      "set0 mixed sw=0 late const E=18257.698494978769 mig=3 pre=9 miss=0 #fc72efd6f3733d81",
      "set0 mixed sw=0 late uni E=10729.509043737538 mig=0 pre=1 miss=0 #e0a6c8960724e93c",
      "set0 mixed sw=0 abort const E=18257.698494978769 mig=3 pre=9 miss=0 #fc72efd6f3733d81",
      "set0 mixed sw=0 abort uni E=10729.509043737538 mig=0 pre=1 miss=0 #e0a6c8960724e93c",
      "set0 mixed sw=0.4 late const E=18411.266606549925 mig=4 pre=12 miss=4 #e2e77fb9d5792630",
      "set0 mixed sw=0.4 late uni E=10862.82440640518 mig=0 pre=2 miss=3 #2c94b5cad0f61dbe",
      "set0 mixed sw=0.4 abort const E=18393.341091504073 mig=4 pre=12 miss=5 #f3862871a6b5c10b",
      "set0 mixed sw=0.4 abort uni E=10856.496337472763 mig=0 pre=2 miss=3 #13a8e411a5c4444f",
      "set1 edf sw=0 late const E=28559.964431891305 mig=36 pre=78 miss=0 #565f337a54aa2032",
      "set1 edf sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #1018c15b7d43e3aa",
      "set1 edf sw=0 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #565f337a54aa2032",
      "set1 edf sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #1018c15b7d43e3aa",
      "set1 edf sw=0.4 late const E=28559.964431891305 mig=36 pre=78 miss=0 #565f337a54aa2032",
      "set1 edf sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #1018c15b7d43e3aa",
      "set1 edf sw=0.4 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #565f337a54aa2032",
      "set1 edf sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #1018c15b7d43e3aa",
      "set1 static_edf sw=0 late const E=28559.964431891305 mig=36 pre=78 miss=0 #6ebba17d718c579a",
      "set1 static_edf sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #f6c06946d95d97be",
      "set1 static_edf sw=0 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #6ebba17d718c579a",
      "set1 static_edf sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #f6c06946d95d97be",
      "set1 static_edf sw=0.4 late const E=28559.964431891305 mig=36 pre=78 miss=0 #6ebba17d718c579a",
      "set1 static_edf sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #f6c06946d95d97be",
      "set1 static_edf sw=0.4 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #6ebba17d718c579a",
      "set1 static_edf sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #f6c06946d95d97be",
      "set1 cc_edf sw=0 late const E=28559.964431891305 mig=36 pre=78 miss=0 #18ce6165892b0fd7",
      "set1 cc_edf sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #b1e8ab44f4946c0b",
      "set1 cc_edf sw=0 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #18ce6165892b0fd7",
      "set1 cc_edf sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #b1e8ab44f4946c0b",
      "set1 cc_edf sw=0.4 late const E=28527.323729899628 mig=25 pre=82 miss=90 #c829e378542e494a",
      "set1 cc_edf sw=0.4 late uni E=17864.710511659923 mig=7 pre=20 miss=5 #d6e97cf3abe38116",
      "set1 cc_edf sw=0.4 abort const E=28078.62798042228 mig=29 pre=84 miss=49 #44bf4b46e8940c6b",
      "set1 cc_edf sw=0.4 abort uni E=17845.418289164616 mig=7 pre=20 miss=5 #af3e581eeb6ea6e0",
      "set1 la_edf sw=0 late const E=28559.516889858693 mig=36 pre=78 miss=0 #8c8b3eab5ae90bd5",
      "set1 la_edf sw=0 late uni E=17811.01601847048 mig=5 pre=14 miss=0 #2c05f922f16c254f",
      "set1 la_edf sw=0 abort const E=28559.516889858693 mig=36 pre=78 miss=0 #8c8b3eab5ae90bd5",
      "set1 la_edf sw=0 abort uni E=17811.01601847048 mig=5 pre=14 miss=0 #2c05f922f16c254f",
      "set1 la_edf sw=0.4 late const E=28308.697029859297 mig=20 pre=78 miss=101 #05d287ed22feb824",
      "set1 la_edf sw=0.4 late uni E=17726.978956304771 mig=7 pre=20 miss=14 #283b4b4ddb850cc5",
      "set1 la_edf sw=0.4 abort const E=28067.334263018645 mig=29 pre=84 miss=51 #e2026f6efa0e9c1e",
      "set1 la_edf sw=0.4 abort uni E=17778.950410017525 mig=7 pre=20 miss=5 #b090170a503259c1",
      "set1 interval sw=0 late const E=28559.964431891305 mig=36 pre=78 miss=0 #ce6233fefb494d99",
      "set1 interval sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #d15e343ca250d698",
      "set1 interval sw=0 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #ce6233fefb494d99",
      "set1 interval sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #d15e343ca250d698",
      "set1 interval sw=0.4 late const E=28559.964431891305 mig=36 pre=78 miss=0 #ce6233fefb494d99",
      "set1 interval sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #d15e343ca250d698",
      "set1 interval sw=0.4 abort const E=28559.964431891305 mig=36 pre=78 miss=0 #ce6233fefb494d99",
      "set1 interval sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #d15e343ca250d698",
      "set1 rm sw=0 late const E=28559.964431891305 mig=37 pre=80 miss=0 #f048d74c50fa1c9d",
      "set1 rm sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #3cb9f0e834d26aa8",
      "set1 rm sw=0 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #f048d74c50fa1c9d",
      "set1 rm sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #3cb9f0e834d26aa8",
      "set1 rm sw=0.4 late const E=28559.964431891305 mig=37 pre=80 miss=0 #f048d74c50fa1c9d",
      "set1 rm sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #3cb9f0e834d26aa8",
      "set1 rm sw=0.4 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #f048d74c50fa1c9d",
      "set1 rm sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #3cb9f0e834d26aa8",
      "set1 static_rm sw=0 late const E=28559.964431891305 mig=37 pre=80 miss=0 #b60026508de5c6b5",
      "set1 static_rm sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #eecb9ce699c18964",
      "set1 static_rm sw=0 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #b60026508de5c6b5",
      "set1 static_rm sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #eecb9ce699c18964",
      "set1 static_rm sw=0.4 late const E=28559.964431891305 mig=37 pre=80 miss=0 #b60026508de5c6b5",
      "set1 static_rm sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #eecb9ce699c18964",
      "set1 static_rm sw=0.4 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #b60026508de5c6b5",
      "set1 static_rm sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #eecb9ce699c18964",
      "set1 cc_rm sw=0 late const E=28559.964431891305 mig=37 pre=80 miss=0 #a315496ca2a478cd",
      "set1 cc_rm sw=0 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #a0b4a42f92fc1394",
      "set1 cc_rm sw=0 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #a315496ca2a478cd",
      "set1 cc_rm sw=0 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #a0b4a42f92fc1394",
      "set1 cc_rm sw=0.4 late const E=28559.964431891305 mig=37 pre=80 miss=0 #a315496ca2a478cd",
      "set1 cc_rm sw=0.4 late uni E=17889.508150686579 mig=5 pre=14 miss=0 #a0b4a42f92fc1394",
      "set1 cc_rm sw=0.4 abort const E=28559.964431891305 mig=37 pre=80 miss=0 #a315496ca2a478cd",
      "set1 cc_rm sw=0.4 abort uni E=17889.508150686579 mig=5 pre=14 miss=0 #a0b4a42f92fc1394",
      "set1 mixed sw=0 late const E=28559.516889858693 mig=36 pre=78 miss=0 #89cf97a3b4bee112",
      "set1 mixed sw=0 late uni E=17869.432232776107 mig=5 pre=14 miss=0 #c075f1cc421f48c1",
      "set1 mixed sw=0 abort const E=28559.516889858693 mig=36 pre=78 miss=0 #89cf97a3b4bee112",
      "set1 mixed sw=0 abort uni E=17869.432232776107 mig=5 pre=14 miss=0 #c075f1cc421f48c1",
      "set1 mixed sw=0.4 late const E=28469.441096463961 mig=21 pre=78 miss=100 #2773c36455298c81",
      "set1 mixed sw=0.4 late uni E=17835.87216516901 mig=7 pre=20 miss=6 #acda692dd262e911",
      "set1 mixed sw=0.4 abort const E=28079.887851842777 mig=29 pre=84 miss=50 #e249a15978fc750b",
      "set1 mixed sw=0.4 abort uni E=17826.940330489037 mig=7 pre=20 miss=5 #696a601ce5376e65",
      "set2 edf sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #0d3a2d506a09e348",
      "set2 edf sw=0 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #e044eb17c937c0e3",
      "set2 edf sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #0d3a2d506a09e348",
      "set2 edf sw=0 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #e044eb17c937c0e3",
      "set2 edf sw=0.4 late const E=38156.883077447506 mig=257 pre=299 miss=0 #0d3a2d506a09e348",
      "set2 edf sw=0.4 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #e044eb17c937c0e3",
      "set2 edf sw=0.4 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #0d3a2d506a09e348",
      "set2 edf sw=0.4 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #e044eb17c937c0e3",
      "set2 static_edf sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #9f78230d0ec626c0",
      "set2 static_edf sw=0 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #8469bd4c0f34c6e3",
      "set2 static_edf sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #9f78230d0ec626c0",
      "set2 static_edf sw=0 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #8469bd4c0f34c6e3",
      "set2 static_edf sw=0.4 late const E=38156.883077447506 mig=257 pre=299 miss=0 #9f78230d0ec626c0",
      "set2 static_edf sw=0.4 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #8469bd4c0f34c6e3",
      "set2 static_edf sw=0.4 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #9f78230d0ec626c0",
      "set2 static_edf sw=0.4 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #8469bd4c0f34c6e3",
      "set2 cc_edf sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #56a33d701af5b32c",
      "set2 cc_edf sw=0 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #461e6c9b650b8a7c",
      "set2 cc_edf sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #56a33d701af5b32c",
      "set2 cc_edf sw=0 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #461e6c9b650b8a7c",
      "set2 cc_edf sw=0.4 late const E=38139.227657017822 mig=297 pre=344 miss=1 #d3d655d58918398d",
      "set2 cc_edf sw=0.4 late uni E=23359.615968879287 mig=65 pre=74 miss=0 #42ccbbd4aee5dc19",
      "set2 cc_edf sw=0.4 abort const E=38136.971971305815 mig=297 pre=344 miss=1 #9bdf0629ffe81845",
      "set2 cc_edf sw=0.4 abort uni E=23359.615968879287 mig=65 pre=74 miss=0 #42ccbbd4aee5dc19",
      "set2 la_edf sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #2557d3d725a83fd6",
      "set2 la_edf sw=0 late uni E=23337.506711830061 mig=42 pre=49 miss=0 #e205dceaa87d1be3",
      "set2 la_edf sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #2557d3d725a83fd6",
      "set2 la_edf sw=0 abort uni E=23337.506711830061 mig=42 pre=49 miss=0 #e205dceaa87d1be3",
      "set2 la_edf sw=0.4 late const E=38139.227657017844 mig=292 pre=342 miss=2 #ae7e5750c6dcf7a3",
      "set2 la_edf sw=0.4 late uni E=23344.551343933388 mig=69 pre=78 miss=0 #d0b1cda53ff27427",
      "set2 la_edf sw=0.4 abort const E=38132.287769923816 mig=296 pre=344 miss=2 #7e8246774db92141",
      "set2 la_edf sw=0.4 abort uni E=23344.551343933388 mig=69 pre=78 miss=0 #d0b1cda53ff27427",
      "set2 interval sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #fc3bb6a70b0de0df",
      "set2 interval sw=0 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #76df04253024a499",
      "set2 interval sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #fc3bb6a70b0de0df",
      "set2 interval sw=0 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #76df04253024a499",
      "set2 interval sw=0.4 late const E=38156.883077447506 mig=257 pre=299 miss=0 #fc3bb6a70b0de0df",
      "set2 interval sw=0.4 late uni E=23362.665968879337 mig=42 pre=49 miss=0 #76df04253024a499",
      "set2 interval sw=0.4 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #fc3bb6a70b0de0df",
      "set2 interval sw=0.4 abort uni E=23362.665968879337 mig=42 pre=49 miss=0 #76df04253024a499",
      "set2 rm sw=0 late const E=38156.549616675708 mig=302 pre=348 miss=3 #f40fb8c5298df2d7",
      "set2 rm sw=0 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #d8cc3dbfde156229",
      "set2 rm sw=0 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #02f46bc29b5c0cc6",
      "set2 rm sw=0 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #d8cc3dbfde156229",
      "set2 rm sw=0.4 late const E=38156.549616675708 mig=302 pre=348 miss=3 #f40fb8c5298df2d7",
      "set2 rm sw=0.4 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #d8cc3dbfde156229",
      "set2 rm sw=0.4 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #02f46bc29b5c0cc6",
      "set2 rm sw=0.4 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #d8cc3dbfde156229",
      "set2 static_rm sw=0 late const E=38156.549616675708 mig=302 pre=348 miss=3 #b32d217107de0eff",
      "set2 static_rm sw=0 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #095896f3a44c9d6d",
      "set2 static_rm sw=0 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #217856af21337b8a",
      "set2 static_rm sw=0 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #095896f3a44c9d6d",
      "set2 static_rm sw=0.4 late const E=38156.549616675708 mig=302 pre=348 miss=3 #b32d217107de0eff",
      "set2 static_rm sw=0.4 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #095896f3a44c9d6d",
      "set2 static_rm sw=0.4 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #217856af21337b8a",
      "set2 static_rm sw=0.4 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #095896f3a44c9d6d",
      "set2 cc_rm sw=0 late const E=38156.549616675708 mig=302 pre=348 miss=3 #31b49b5359fab027",
      "set2 cc_rm sw=0 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #8c0f1148c102c55d",
      "set2 cc_rm sw=0 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #f7605809fb96197a",
      "set2 cc_rm sw=0 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #8c0f1148c102c55d",
      "set2 cc_rm sw=0.4 late const E=38156.549616675708 mig=302 pre=348 miss=3 #31b49b5359fab027",
      "set2 cc_rm sw=0.4 late uni E=23362.665968879337 mig=47 pre=53 miss=0 #8c0f1148c102c55d",
      "set2 cc_rm sw=0.4 abort const E=38128.990044211787 mig=300 pre=348 miss=2 #f7605809fb96197a",
      "set2 cc_rm sw=0.4 abort uni E=23362.665968879337 mig=47 pre=53 miss=0 #8c0f1148c102c55d",
      "set2 mixed sw=0 late const E=38156.883077447506 mig=257 pre=299 miss=0 #5a8d54c031ac2bc1",
      "set2 mixed sw=0 late uni E=23351.569038913807 mig=42 pre=49 miss=0 #5b5a6e8e49008480",
      "set2 mixed sw=0 abort const E=38156.883077447506 mig=257 pre=299 miss=0 #5a8d54c031ac2bc1",
      "set2 mixed sw=0 abort uni E=23351.569038913807 mig=42 pre=49 miss=0 #5b5a6e8e49008480",
      "set2 mixed sw=0.4 late const E=38139.227657017836 mig=294 pre=342 miss=1 #a649301583fac80a",
      "set2 mixed sw=0.4 late uni E=23354.75778651904 mig=67 pre=76 miss=0 #c415ac2a8edfb235",
      "set2 mixed sw=0.4 abort const E=38132.600206224197 mig=294 pre=342 miss=1 #34b250ff62c0677a",
      "set2 mixed sw=0.4 abort uni E=23354.75778651904 mig=67 pre=76 miss=0 #c415ac2a8edfb235",
  });
}

// Trace recording at M > 1: segments and speed changes go to each core's
// slice, job events to the cluster trace.
TEST(GlobalGolden, RecordTraceCounts) {
  const MpSimResult mp = RunCase(3, 1, {"cc_edf", "la_edf", "interval"}, 0.4,
                                 MissPolicy::kContinueLate, true, true);
  std::string text;
  for (const SimResult& slice : mp.cores) {
    std::string segments;
    for (const TraceSegment& s : slice.trace.segments()) {
      segments += StrFormat("%.17g %.17g %d %d %.17g;", s.start_ms, s.end_ms,
                            static_cast<int>(s.state), s.task_id,
                            s.point.frequency);
    }
    text += StrFormat("segments=%zu events=%zu #%016llx ",
                      slice.trace.segments().size(),
                      slice.trace.events().size(),
                      static_cast<unsigned long long>(Fnv1a(segments)));
  }
  int64_t by_kind[5] = {0, 0, 0, 0, 0};
  for (const TraceEvent& e : mp.cluster.trace.events()) {
    ++by_kind[static_cast<int>(e.kind)];
  }
  text += StrFormat("cluster segments=%zu rel=%lld comp=%lld miss=%lld "
                    "speed=%lld idle=%lld",
                    mp.cluster.trace.segments().size(),
                    static_cast<long long>(by_kind[0]),
                    static_cast<long long>(by_kind[1]),
                    static_cast<long long>(by_kind[2]),
                    static_cast<long long>(by_kind[3]),
                    static_cast<long long>(by_kind[4]));
  EXPECT_EQ(text,
            "segments=373 events=177 #21803a07fb604faf"
            " segments=375 events=169 #8d2b4329a7a06c9b"
            " segments=79 events=0 #b138bd2a2200628f"
            " cluster"
            " segments=0 rel=223 comp=222 miss=0 speed=0 idle=0");
}

}  // namespace
}  // namespace rtdvs
