// Exact pin on UtilizationSweep output. The figure benches and
// tools/ci.sh benchdiff compare sweep numbers against committed baselines,
// but neither runs under ctest; these recorded values are the suite's
// bit-level check on the sweep harness: task-set generation, the per-shard
// workload seed, the normalization baseline, the bound and the serial merge.
//
// Five sweeps: M = 1 in the paper_sweep shape (15 tasks, the six paper
// policies, uniform demand) with the paper generator and with UUniFast; M = 2
// partitioned with static_rm, whose admission test rejects some sets; and
// M = 2 and M = 3 global with a 0.4 ms switch time and firm deadlines.
//
// Each cell records its mean energy, mean normalized energy, misses, audit
// violations and admission rejections at %.17g; each row its bound. A last
// line per sweep holds the audit total, the simulation count and a 64-bit
// FNV-1a hash of every cell's policy counters and sample variances plus the
// sweep's fast-path totals. A mismatch prints every actual line. A change
// that alters any value here changed simulated behaviour; if that is
// intended, regenerate the table from the printed lines and justify the new
// values in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sweep.h"
#include "src/dvs/policy.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

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

// The paper_sweep shape at a golden-sized grid.
SweepOptions BaseOptions() {
  SweepOptions options;
  options.policy_ids = AllPaperPolicyIds();
  options.utilizations = {0.3, 0.6, 0.9};
  options.num_tasks = 15;
  options.tasksets_per_point = 3;
  options.horizon_ms = 500.0;
  options.exec_model_factory = [] {
    return std::make_unique<UniformFractionModel>(0.0, 1.0);
  };
  options.seed = 20010901;
  options.jobs = 1;
  return options;
}

std::vector<std::string> SweepLines(const SweepOptions& options) {
  const SweepResult result = UtilizationSweep(options).Run();
  std::vector<std::string> lines;
  std::string hashed;
  for (const SweepRow& row : result.rows) {
    for (size_t p = 0; p < row.cells.size(); ++p) {
      const PolicyCell& cell = row.cells[p];
      lines.push_back(StrFormat(
          "u=%.2f %s E=%.17g N=%.17g miss=%lld sets_missed=%lld audit=%lld "
          "rej=%lld",
          row.utilization, options.policy_ids[p].c_str(), cell.energy.mean(),
          cell.normalized_energy.mean(),
          static_cast<long long>(cell.deadline_misses),
          static_cast<long long>(cell.tasksets_with_misses),
          static_cast<long long>(cell.audit_violations),
          static_cast<long long>(cell.admission_rejections)));
      hashed += StrFormat("%s var=%.17g/%.17g;", CountersText(cell.counters).c_str(),
                          cell.energy.variance(),
                          cell.normalized_energy.variance());
    }
    lines.push_back(StrFormat("u=%.2f bound B=%.17g NB=%.17g n=%zu",
                              row.utilization, row.bound.mean(),
                              row.normalized_bound.mean(), row.bound.count()));
  }
  const FastPathStats& fp = result.profile.fastpath;
  hashed += StrFormat("steps=%lld skips=%lld skipped_ms=%.17g visited=%lld",
                      static_cast<long long>(fp.steps),
                      static_cast<long long>(fp.idle_skips), fp.idle_skipped_ms,
                      static_cast<long long>(fp.jobs_visited));
  lines.push_back(StrFormat("audit=%lld sims=%lld #%016llx",
                            static_cast<long long>(result.audit_violations),
                            static_cast<long long>(result.profile.simulations),
                            static_cast<unsigned long long>(Fnv1a(hashed))));
  return lines;
}

void ExpectGolden(const SweepOptions& options,
                  const std::vector<std::string>& golden) {
  const std::vector<std::string> actual = SweepLines(options);
  std::string all;
  for (const std::string& line : actual) {
    all += "      \"" + line + "\",\n";
  }
  ASSERT_EQ(actual.size(), golden.size()) << "actual lines:\n" << all;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "line " << i << "; actual lines:\n"
                                    << all;
  }
}

TEST(SweepGolden, SingleCorePaperGenerator) {
  ExpectGolden(BaseOptions(), {
      "u=0.30 edf E=2007.3911993710915 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_rm E=722.66083177360167 N=0.36000000000000459 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_edf E=722.66083177360167 N=0.36000000000000459 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_edf E=722.66083177360167 N=0.36000000000000459 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_rm E=722.66083177360167 N=0.36000000000000459 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 la_edf E=722.66083177360167 N=0.36000000000000459 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 bound B=722.66083177359201 NB=0.35999999999999954 n=3",
      "u=0.60 edf E=3672.9126217707808 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_rm E=2350.664077933312 N=0.64000000000000346 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_edf E=2350.664077933312 N=0.64000000000000346 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_edf E=1530.6755395894058 N=0.41679372178045954 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_rm E=2094.8173104519014 N=0.57058839570956044 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 la_edf E=1322.2485438374922 N=0.36000000000000304 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 bound B=1322.2485438374817 NB=0.36000000000000015 n=3",
      "u=0.90 edf E=5747.9548999130429 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_rm E=5747.9548999130438 N=1.0000000000000002 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_edf E=5747.9548999130429 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_edf E=4179.6825662557958 N=0.72676586641309393 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_rm E=5470.4098128000114 N=0.95595237009245027 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 la_edf E=2784.7299586372819 N=0.48374736554813719 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 bound B=2083.5499367947359 NB=0.36226727866085567 n=3",
      "audit=0 sims=54 #9342d9f011658a7d",
  });
}

TEST(SweepGolden, SingleCoreUUniFast) {
  SweepOptions options = BaseOptions();
  options.use_uunifast = true;
  ExpectGolden(options, {
      "u=0.30 edf E=2347.3974194689822 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_rm E=831.02968819804858 N=0.35440737459514782 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_edf E=831.02968819804858 N=0.35440737459514782 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_edf E=831.02968819804858 N=0.35440737459514782 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_rm E=831.02968819804858 N=0.35440737459514782 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 la_edf E=831.02968819804858 N=0.35440737459514782 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 bound B=845.06307100883419 NB=0.36000000000000026 n=3",
      "u=0.60 edf E=4945.171969057631 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_rm E=3164.9100601968989 N=0.64000000000000312 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_edf E=3164.9100601968989 N=0.64000000000000312 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_edf E=1800.6804695503383 N=0.36415097919195999 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_rm E=2956.6463707175749 N=0.59763563520532736 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 la_edf E=1730.6315511074595 N=0.34964326347996449 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 bound B=1780.261908860751 NB=0.36000000000000082 n=3",
      "u=0.90 edf E=5814.6514599916973 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_rm E=5814.6514599916973 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_edf E=5814.6514599916973 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_edf E=3138.4945731135308 N=0.53453232621415392 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_rm E=5566.3188930485285 N=0.95210318015076378 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 la_edf E=1977.871847291038 N=0.34409600506363397 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 bound B=2365.6903157788447 NB=0.39771549926637795 n=3",
      "audit=0 sims=54 #e5bcf236ab02c960",
  });
}

TEST(SweepGolden, TwoCorePartitionedWithRejections) {
  SweepOptions options = BaseOptions();
  options.num_cores = 2;
  options.mp_mode = MpMode::kPartitioned;
  options.num_tasks = 6;
  options.policy_ids = {"edf", "static_rm", "cc_edf"};
  ExpectGolden(options, {
      "u=0.30 edf E=3661.4082608180561 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_rm E=2785.9348646625276 N=0.75916578817422342 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_edf E=1999.2853121392252 N=0.5407923306440714 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 bound B=1318.1069738945 NB=0.35999999999999999 n=3",
      "u=0.60 edf E=8544.3143351911895 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_rm E=5833.1960043505251 N=0.6911896753254243 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_edf E=5458.6442890562985 N=0.64456818350636524 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 bound B=3075.9531606688288 NB=0.36000000000000015 n=3",
      "u=0.90 edf E=11723.627977623461 N=1 miss=0 sets_missed=0 audit=0 rej=2",
      "u=0.90 static_rm E=0 N=0 miss=0 sets_missed=0 audit=0 rej=3",
      "u=0.90 cc_edf E=9897.9821779181129 N=0.8442763790193698 miss=0 sets_missed=0 audit=0 rej=2",
      "u=0.90 bound B=4220.5060719444464 NB=0.36000000000000004 n=1",
      "audit=0 sims=27 #e7293a6bdef11caf",
  });
}

TEST(SweepGolden, TwoCoreGlobalSwitchAbort) {
  SweepOptions options = BaseOptions();
  options.num_cores = 2;
  options.mp_mode = MpMode::kGlobal;
  options.switch_time_ms = 0.4;
  options.miss_policy = MissPolicy::kAbortJob;
  ExpectGolden(options, {
      "u=0.30 edf E=4014.7823987422357 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_rm E=3009.4918065010384 N=0.7600000000000019 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_edf E=2569.4607351950426 N=0.64000000000000301 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_edf E=1673.6108660027737 N=0.41829353436773536 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_rm E=2953.0784562591457 N=0.73592171456442568 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 la_edf E=1445.3216635472163 N=0.36000000000000293 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 bound B=1445.3216635472052 NB=0.36000000000000004 n=3",
      "u=0.60 edf E=7345.8252435416252 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_rm E=7345.8252435416262 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_edf E=7345.8252435416252 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_edf E=6501.0175135529498 N=0.88467903172344142 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_rm E=7345.8252435416262 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 la_edf E=5802.6108455652175 N=0.78981496564064568 miss=25 sets_missed=2 audit=0 rej=0",
      "u=0.60 bound B=2644.497087674984 NB=0.35999999999999988 n=3",
      "u=0.90 edf E=11502.134183317879 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_rm E=11502.134183317879 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_edf E=11502.134183317879 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_edf E=11280.346314103695 N=0.98059386057110276 miss=30 sets_missed=2 audit=0 rej=0",
      "u=0.90 cc_rm E=11502.134183317879 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 la_edf E=11317.104562617129 N=0.98397518116677574 miss=38 sets_missed=3 audit=0 rej=0",
      "u=0.90 bound B=4140.7683059944411 NB=0.36000000000000043 n=3",
      "audit=0 sims=54 #a16c5b1dedb41603",
  });
}

TEST(SweepGolden, ThreeCoreGlobalSwitchAbort) {
  SweepOptions options = BaseOptions();
  options.num_cores = 3;
  options.mp_mode = MpMode::kGlobal;
  options.switch_time_ms = 0.4;
  options.miss_policy = MissPolicy::kAbortJob;
  ExpectGolden(options, {
      "u=0.30 edf E=6022.1735981133843 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_rm E=6022.1735981133843 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 static_edf E=6022.1735981133843 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_edf E=4208.228205187851 N=0.70131412874360299 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 cc_rm E=5943.4925760730948 N=0.98866694112992748 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 la_edf E=2259.8348495587388 N=0.37638920872623116 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.30 bound B=2167.9824953208181 NB=0.35999999999999993 n=3",
      "u=0.60 edf E=11090.247743200005 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_rm E=11090.247743200005 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 static_edf E=11090.247743200005 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_edf E=10817.800748380498 N=0.9750701018196305 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 cc_rm E=11090.247743200005 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 la_edf E=10696.147860478097 N=0.96460018169396688 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.60 bound B=3992.4891875520029 NB=0.3600000000000001 n=3",
      "u=0.90 edf E=17335.992862841944 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_rm E=17335.992862841944 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 static_edf E=17335.992862841944 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 cc_edf E=17317.310454358918 N=0.99889437035879558 miss=6 sets_missed=1 audit=0 rej=0",
      "u=0.90 cc_rm E=17335.992862841944 N=1 miss=0 sets_missed=0 audit=0 rej=0",
      "u=0.90 la_edf E=17223.236402294675 N=0.99350674367376612 miss=15 sets_missed=2 audit=0 rej=0",
      "u=0.90 bound B=6240.9574306231088 NB=0.36000000000000054 n=3",
      "audit=0 sims=54 #e6f19b7b575a08a7",
  });
}

}  // namespace
}  // namespace rtdvs
