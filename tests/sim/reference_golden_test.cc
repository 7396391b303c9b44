// Exact pin on the differential oracle itself (src/sim/reference_sim.cc).
// The differential tests only compare the oracle with production, with a
// tolerance on energies; this golden fixes what the oracle computes, bit for
// bit, so a rewrite of the oracle can be shown to change nothing.
//
// Groups: RunReferenceSimulation at M = 1 for every policy id MakePolicy
// accepts, and RunReferenceClusterSimulation at M = 1..4 in partitioned and
// global mode (every fourth cluster case with a mixed per-core policy list).
// Every case is a seeded fuzz scenario (src/testing/generators.h) and runs
// three times: with no fault, with ReferenceFaults::idle_path_switch_bug and
// with ReferenceFaults::miss_before_completion_bug.
//
// Each group records its run count, the summed total energy of its runs and
// the first run's total energy in clear, plus a 64-bit FNV-1a hash over the
// full text of every run: every SimResult field at %.17g (energies, times,
// counters, policy counters, lower bound, residency, per-task stats, trace
// size, server and aperiodic fields, audit flag) and, for clusters, the
// mode, admission, partition report, core_tasks sizes, core_global_ids and
// migrations. A mismatch prints the whole actual line. If a change to the
// oracle alters a line, the oracle's behaviour changed: regenerate the table
// from the printed lines only if that is intended, and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dvs/policy.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/reference_sim.h"
#include "src/testing/generators.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

constexpr int kSingleCoreCasesPerPolicy = 32;
constexpr int kClusterCasesPerGroup = 28;

const char* const kPolicyIds[] = {"edf",      "rm",     "static_edf", "static_rm",
                                  "static_rm_exact", "cc_edf", "cc_rm", "la_edf",
                                  "interval", "stat_edf"};

std::vector<ReferenceFaults> AllFaults() {
  ReferenceFaults none;
  ReferenceFaults idle_switch;
  idle_switch.idle_path_switch_bug = true;
  ReferenceFaults miss_first;
  miss_first.miss_before_completion_bug = true;
  return {none, idle_switch, miss_first};
}

uint64_t Fnv1a(const std::string& text, uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string CountersText(const PolicyCounters& c) {
  return StrFormat(
      "req=%lld tr=%lld slack=%lld/%.17g defer=%lld/%.17g util=%lld/%.17g "
      "mig=%lld rej=%lld",
      static_cast<long long>(c.speed_change_requests),
      static_cast<long long>(c.speed_transitions),
      static_cast<long long>(c.slack_completions), c.slack_reclaimed_ms,
      static_cast<long long>(c.deferral_decisions), c.work_deferred_ms,
      static_cast<long long>(c.utilization_samples), c.utilization_sum,
      static_cast<long long>(c.migrations),
      static_cast<long long>(c.admission_rejections));
}

// Every field of one result except the fast-path diagnostics, which the
// oracle never sets.
std::string SliceText(const SimResult& r) {
  std::string out = StrFormat(
      "%s sched=%d h=%.17g exec=%.17g idle=%.17g busy=%.17g idle_ms=%.17g "
      "sw_ms=%.17g work=%.17g lb=%.17g switches=%lld pre=%lld rel=%lld "
      "comp=%lld miss=%lld abort=%lld unf=%lld over=%lld %s",
      r.policy_name.c_str(), static_cast<int>(r.scheduler), r.horizon_ms,
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
    out += StrFormat(" [%.17g/%.17g %.17g %.17g %.17g %.17g]",
                     res.point.frequency, res.point.voltage, res.exec_ms,
                     res.idle_ms, res.exec_energy, res.idle_energy);
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
  const AperiodicStats& a = r.aperiodic;
  out += StrFormat(
      " trace=%zu server=%d ap=%lld/%lld/%.17g/%.17g/%.17g/%.17g audited=%d",
      r.trace.events().size(), r.server_task_id,
      static_cast<long long>(a.arrivals), static_cast<long long>(a.completions),
      a.served_work, a.total_response_ms, a.max_response_ms, a.backlog_work,
      r.audit.audited ? 1 : 0);
  return out;
}

std::string ClusterText(const MpSimResult& mp) {
  const PartitionResult& p = mp.partition;
  std::string out = StrFormat(
      "mode=%d m=%d admitted=%d feasible=%d used=%d err='%s' mig=%lld "
      "audited=%d of=",
      static_cast<int>(mp.mode), mp.num_cores, mp.admitted ? 1 : 0,
      p.feasible ? 1 : 0, p.cores_used, p.error.c_str(),
      static_cast<long long>(mp.migrations), mp.cluster.audit.audited ? 1 : 0);
  for (int core : p.core_of_task) {
    out += StrFormat("%d,", core);
  }
  out += " u=";
  for (double u : p.core_utilization) {
    out += StrFormat("%.17g,", u);
  }
  out += " n=";
  for (int count : p.core_task_count) {
    out += StrFormat("%d,", count);
  }
  out += " sets=";
  for (const TaskSet& set : mp.core_tasks) {
    out += StrFormat("%d,", set.size());
  }
  out += " ids=";
  for (const std::vector<int>& ids : mp.core_global_ids) {
    out += "(";
    for (int id : ids) {
      out += StrFormat("%d,", id);
    }
    out += ")";
  }
  out += " cluster: " + SliceText(mp.cluster);
  for (size_t c = 0; c < mp.cores.size(); ++c) {
    out += StrFormat(" core%zu: ", c) + SliceText(mp.cores[c]);
  }
  return out;
}

// Folds cases into one group line: run count, summed and first total
// energy, how many cases each fault changed (so both knobs are seen to
// work), and the hash of every run's full text in order.
class GroupDigest {
 public:
  struct Run {
    std::string text;
    double total_energy;
  };
  // One case's runs, in AllFaults() order.
  void AddCase(const std::vector<Run>& case_runs) {
    for (const Run& run : case_runs) {
      if (runs_ == 0) {
        first_energy_ = run.total_energy;
      }
      energy_sum_ += run.total_energy;
      hash_ = Fnv1a(run.text + "\n", hash_);
      ++runs_;
    }
    idle_fault_changed_ += case_runs[1].text != case_runs[0].text ? 1 : 0;
    miss_fault_changed_ += case_runs[2].text != case_runs[0].text ? 1 : 0;
  }
  int runs() const { return runs_; }
  std::string Line(const std::string& label) const {
    return StrFormat("%s runs=%d E0=%.17g Esum=%.17g idle_bug=%d miss_bug=%d #%016llx",
                     label.c_str(), runs_, first_energy_, energy_sum_,
                     idle_fault_changed_, miss_fault_changed_,
                     static_cast<unsigned long long>(hash_));
  }

 private:
  int runs_ = 0;
  double first_energy_ = 0;
  double energy_sum_ = 0;
  int idle_fault_changed_ = 0;
  int miss_fault_changed_ = 0;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A fixed case whose completions land exactly on deadlines (U = 1 per core,
// harmonic, constant worst-case demand), so miss_before_completion_bug shows.
FuzzCase TightCase(const std::string& policy_id, int cores, MpMode mode) {
  FuzzCase c;
  c.policy_id = policy_id;
  for (int core = 0; core < cores; ++core) {
    c.tasks.push_back({"", 10.0, 5.0, 0.0});
    c.tasks.push_back({"", 20.0, 10.0, 0.0});
  }
  c.exec_spec = "c:1";
  c.horizon_ms = 100.0;
  c.num_cores = cores;
  c.mp_mode = mode;
  return c;
}

std::string SingleCoreLine(size_t policy_index, int* runs) {
  const std::string id = kPolicyIds[policy_index];
  Pcg32 rng(0x5eed0000u + policy_index);
  FuzzGenOptions options;
  options.policy_pool = {id};
  GroupDigest digest;
  for (int i = 0; i <= kSingleCoreCasesPerPolicy; ++i) {
    const FuzzCase c = i < kSingleCoreCasesPerPolicy
                           ? GenerateFuzzCase(rng, options)
                           : TightCase(id, 1, MpMode::kPartitioned);
    const TaskSet tasks = FuzzTasks(c);
    const MachineSpec machine = FuzzMachine(c);
    const SimOptions sim_options = FuzzSimOptions(c);
    std::vector<GroupDigest::Run> case_runs;
    for (const ReferenceFaults& faults : AllFaults()) {
      std::unique_ptr<ExecTimeModel> model = MakeFuzzExecModel(c.exec_spec);
      const SimResult r =
          RunReferenceSimulation(tasks, machine, c.policy_id, *model,
                                 sim_options, faults);
      case_runs.push_back({SliceText(r), r.total_energy()});
    }
    digest.AddCase(case_runs);
  }
  *runs += digest.runs();
  return digest.Line("m1/" + id);
}

std::string ClusterLine(int cores, MpMode mode, int* runs) {
  Pcg32 rng(0xc1u * 16 + static_cast<uint64_t>(cores) * 2 +
            (mode == MpMode::kGlobal ? 1 : 0));
  FuzzGenOptions options;
  options.policy_pool.assign(std::begin(kPolicyIds), std::end(kPolicyIds));
  options.core_choices = {cores};
  GroupDigest digest;
  for (int i = 0; i < kClusterCasesPerGroup + 2; ++i) {
    FuzzCase c = i < kClusterCasesPerGroup
                     ? GenerateFuzzCase(rng, options)
                     : TightCase(i == kClusterCasesPerGroup ? "edf" : "la_edf",
                                 cores, mode);
    c.mp_mode = mode;
    if (cores == 1) {
      c.mp_partition = static_cast<PartitionHeuristic>(i % 4);
    }
    SimRequest request = FuzzSimRequest(c);
    if (i % 4 == 3) {
      // Mixed per-core lists; global mode needs one scheduler kind.
      const std::vector<std::string> pool =
          mode == MpMode::kGlobal
              ? std::vector<std::string>{"cc_edf", "la_edf", "edf", "static_edf"}
              : std::vector<std::string>{"cc_edf", "cc_rm", "la_edf", "static_rm"};
      request.policy_ids.clear();
      for (int core = 0; core < cores; ++core) {
        request.policy_ids.push_back(pool[static_cast<size_t>(core)]);
      }
    }
    std::vector<GroupDigest::Run> case_runs;
    for (const ReferenceFaults& faults : AllFaults()) {
      std::unique_ptr<ExecTimeModel> model = MakeFuzzExecModel(c.exec_spec);
      const MpSimResult mp =
          RunReferenceClusterSimulation(request, *model, faults);
      case_runs.push_back({ClusterText(mp), mp.cluster.total_energy()});
    }
    digest.AddCase(case_runs);
  }
  *runs += digest.runs();
  return digest.Line(StrFormat("m%d/%s", cores,
                               mode == MpMode::kGlobal ? "global" : "partitioned"));
}

void ExpectLines(const std::vector<std::string>& actual,
                 const std::vector<std::string>& golden) {
  EXPECT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], i < golden.size() ? golden[i] : "")
        << "group " << i << ", actual line:\n\"" << actual[i] << "\",";
  }
}

TEST(ReferenceGolden, SingleCoreEveryPolicy) {
  int runs = 0;
  std::vector<std::string> actual;
  for (size_t p = 0; p < std::size(kPolicyIds); ++p) {
    ASSERT_TRUE(IsValidPolicyId(kPolicyIds[p])) << kPolicyIds[p];
    actual.push_back(SingleCoreLine(p, &runs));
  }
  EXPECT_EQ(runs, 10 * (kSingleCoreCasesPerPolicy + 1) * 3);
  ExpectLines(actual, {
      "m1/edf runs=99 E0=397.50834582015165 Esum=148436.08602709093 idle_bug=0 miss_bug=1 #8860fe453ef01c9c",
      "m1/rm runs=99 E0=671.99004871899979 Esum=110481.23050403327 idle_bug=0 miss_bug=1 #321b965f98a8522b",
      "m1/static_edf runs=99 E0=215.88349155700757 Esum=54566.976946874252 idle_bug=1 miss_bug=1 #7cc270cb0c5659b5",
      "m1/static_rm runs=99 E0=49.8680444659215 Esum=75739.561688481466 idle_bug=0 miss_bug=1 #e5fdcc7d7fcdc2a0",
      "m1/static_rm_exact runs=99 E0=500.6204776748927 Esum=91791.976941038956 idle_bug=0 miss_bug=1 #b1fd5ad7661fd7e1",
      "m1/cc_edf runs=99 E0=70.959626289740584 Esum=53769.679347248872 idle_bug=11 miss_bug=1 #465684ab36e8dc55",
      "m1/cc_rm runs=99 E0=2217.6313151423424 Esum=77832.863727855656 idle_bug=11 miss_bug=2 #55a626bccec3203a",
      "m1/la_edf runs=99 E0=117.98824384322224 Esum=81995.015212331738 idle_bug=9 miss_bug=1 #3c1a788e3807c622",
      "m1/interval runs=99 E0=1476.1312995456547 Esum=86567.293866497523 idle_bug=7 miss_bug=1 #264b85a13ec893e2",
      "m1/stat_edf runs=99 E0=1120.9282540229999 Esum=69293.094197974715 idle_bug=11 miss_bug=2 #6d0c77e4aafa52cb",
  });
}

TEST(ReferenceGolden, ClustersBothModes) {
  int runs = 0;
  std::vector<std::string> actual;
  for (int cores = 1; cores <= 4; ++cores) {
    for (MpMode mode : {MpMode::kPartitioned, MpMode::kGlobal}) {
      actual.push_back(ClusterLine(cores, mode, &runs));
    }
  }
  EXPECT_EQ(runs, 8 * (kClusterCasesPerGroup + 2) * 3);
  ExpectLines(actual, {
      "m1/partitioned runs=90 E0=107.24486572799992 Esum=81106.844655690933 idle_bug=6 miss_bug=3 #15d1cc388d22d0f1",
      "m1/global runs=90 E0=729.05906629744243 Esum=47881.919144403524 idle_bug=4 miss_bug=2 #f2d3b2d33d5d4407",
      "m2/partitioned runs=90 E0=356.5442568854142 Esum=127224.41505553412 idle_bug=7 miss_bug=2 #03afb641203c4206",
      "m2/global runs=90 E0=12220.14133578683 Esum=231226.51187194814 idle_bug=6 miss_bug=3 #0c5f2a81fae643cd",
      "m3/partitioned runs=90 E0=1686.0641213679921 Esum=260364.59750161911 idle_bug=5 miss_bug=2 #6b9d76d5dfd4ea6c",
      "m3/global runs=90 E0=9059.5685239581326 Esum=287519.58959520439 idle_bug=6 miss_bug=2 #8adf4bd86b574a24",
      "m4/partitioned runs=90 E0=349.04331612866042 Esum=204899.72005158316 idle_bug=2 miss_bug=3 #89b04827fc5e5d10",
      "m4/global runs=90 E0=4136.0570869068852 Esum=394347.36111991416 idle_bug=4 miss_bug=2 #19ed5e3b46b3b5dc",
  });
}

}  // namespace
}  // namespace rtdvs
