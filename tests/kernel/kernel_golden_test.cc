// Exact pin on the prototype kernel's metered run. The sim/kernel parity
// test compares energy to 1e-9 and only with ideal transitions, so these
// recorded values are the only bit-level check on the kernel's metering,
// the stop-interval path included.
//
// Two task sets (the Table 2 example with the Table 3 demand, and one seeded
// random set with uniform demand) run for 2 s under each paper policy, once
// with the default KernelOptions (real PowerNow! stop intervals) and once
// with ideal_transitions. Each line records every KernelReport field at
// %.17g plus the size and a 64-bit FNV-1a hash of the PowerMeter waveform
// (start, end and watts of every segment). A mismatch prints the expected
// and actual lines. A change that alters any value here changed the
// kernel's behaviour; if that is intended, regenerate the table from the
// printed lines and justify the new values in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dvs/policy.h"
#include "src/kernel/kernel.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/rt/taskset_generator.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

constexpr double kRunMs = 2000.0;

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// One exec-time model per task; the kernel hands task_id = 0 to each.
using ModelFactory = std::unique_ptr<ExecTimeModel> (*)(int task);

std::unique_ptr<ExecTimeModel> Table3Demand(int task) {
  static const std::vector<std::vector<double>> kRows = {
      {2.0 / 3.0, 1.0 / 3.0}, {1.0 / 3.0, 1.0 / 3.0}, {1.0, 1.0}};
  return std::make_unique<TableFractionModel>(
      std::vector<std::vector<double>>{kRows[static_cast<size_t>(task)]});
}

std::unique_ptr<ExecTimeModel> UniformDemand(int /*task*/) {
  return std::make_unique<UniformFractionModel>(0.2, 1.0);
}

TaskSet RandomSet() {
  TaskSetGeneratorOptions options;
  options.num_tasks = 5;
  options.target_utilization = 0.55;
  Pcg32 rng(2003);
  return TaskSetGenerator(options).Generate(rng);
}

std::string RunLine(const TaskSet& tasks, ModelFactory demand,
                    const std::string& policy_id, bool ideal) {
  KernelOptions options;
  options.ideal_transitions = ideal;
  Kernel kernel(options);
  kernel.LoadPolicy(MakePolicy(policy_id));
  for (int id = 0; id < tasks.size(); ++id) {
    const Task& task = tasks.task(id);
    KernelTaskParams params;
    params.name = task.name;
    params.period_ms = task.period_ms;
    params.wcet_ms = task.wcet_ms;
    params.exec_model = demand(id);
    kernel.RegisterTask(std::move(params));
  }
  kernel.RunUntil(kRunMs);
  const KernelReport r = kernel.Report();

  std::string waveform;
  for (const PowerMeter::Segment& s : kernel.power_meter().segments()) {
    waveform += StrFormat("%.17g %.17g %.17g;", s.start_ms, s.end_ms, s.watts);
  }
  return StrFormat(
      "%s %s now=%.17g W=%.17g J=%.17g rel=%lld comp=%lld miss=%lld rej=%lld "
      "vtr=%lld ftr=%lld busy=%.17g idle=%.17g halt=%.17g work=%.17g crash=%d "
      "seg=%zu #%016llx",
      policy_id.c_str(), ideal ? "ideal" : "real", r.now_ms, r.avg_system_watts,
      r.total_joules, static_cast<long long>(r.releases),
      static_cast<long long>(r.completions),
      static_cast<long long>(r.deadline_misses),
      static_cast<long long>(r.rejected_admissions),
      static_cast<long long>(r.voltage_transitions),
      static_cast<long long>(r.frequency_transitions), r.busy_ms, r.idle_ms,
      r.transition_halt_ms, r.total_work_executed, r.cpu_crashed ? 1 : 0,
      kernel.power_meter().segments().size(),
      static_cast<unsigned long long>(Fnv1a(waveform)));
}

void ExpectGolden(const TaskSet& tasks, ModelFactory demand,
                  const std::vector<std::string>& golden) {
  std::vector<std::string> actual;
  for (const std::string& policy_id : AllPaperPolicyIds()) {
    for (bool ideal : {false, true}) {
      actual.push_back(RunLine(tasks, demand, policy_id, ideal));
    }
  }
  std::string all;
  for (const std::string& line : actual) {
    all += "      \"" + line + "\",\n";
  }
  ASSERT_EQ(actual.size(), golden.size()) << "actual lines:\n" << all;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "case " << i;
  }
}

TEST(KernelGolden, PaperExampleSet) {
  ExpectGolden(TaskSet::PaperExample(), Table3Demand, {
      "edf real now=2000 W=13.099399999999813 J=26.198799999999625 rel=593 comp=593 miss=0 rej=0 vtr=0 ftr=0 busy=594 idle=1406 halt=0 work=594 crash=0 seg=930 #cfd549513358342b",
      "edf ideal now=2000 W=13.099399999999813 J=26.198799999999625 rel=593 comp=593 miss=0 rej=0 vtr=0 ftr=0 busy=594 idle=1406 halt=0 work=594 crash=0 seg=930 #cfd549513358342b",
      "static_rm real now=2000 W=9.0499060000000355 J=18.099812000000071 rel=393 comp=393 miss=0 rej=1 vtr=1 ftr=1 busy=541.75 idle=1458.20904 halt=0.040960000000000003 work=394 crash=0 seg=715 #71a6b74bf428bda0",
      "static_rm ideal now=2000 W=9.0499060000000355 J=18.099812000000071 rel=393 comp=393 miss=0 rej=1 vtr=1 ftr=1 busy=541.75 idle=1458.25 halt=0 work=394 crash=0 seg=714 #a69aabab20b784fe",
      "static_edf real now=2000 W=13.099399999999813 J=26.198799999999625 rel=593 comp=593 miss=0 rej=0 vtr=2 ftr=1 busy=594 idle=1405.95904 halt=0.040960000000000003 work=594 crash=0 seg=931 #ac9cd042121ae613",
      "static_edf ideal now=2000 W=13.099399999999813 J=26.198799999999625 rel=593 comp=593 miss=0 rej=0 vtr=2 ftr=1 busy=594 idle=1406 halt=0 work=594 crash=0 seg=930 #cfd549513358342b",
      "cc_edf real now=2000 W=10.302407000000075 J=20.60481400000015 rel=593 comp=593 miss=0 rej=0 vtr=101 ftr=831 busy=1017.106612698418 idle=921.49434730157054 halt=61.399040000011524 work=593.99999999999989 crash=0 seg=1375 #cf4c1b0c09c698ce",
      "cc_edf ideal now=2000 W=10.302407000000077 J=20.604814000000154 rel=593 comp=593 miss=0 rej=0 vtr=101 ftr=831 busy=1017.8234126984179 idle=982.17658730158212 halt=0 work=594.00000000000023 crash=0 seg=1079 #b738a17022b6d37e",
      "cc_rm real now=2000 W=9.0499060000000746 J=18.099812000000149 rel=393 comp=393 miss=0 rej=1 vtr=1 ftr=680 busy=704.91666666666242 idle=1280.419653333327 halt=14.663680000010437 work=393.99999999999631 crash=0 seg=787 #b2365b999d7678b0",
      "cc_rm ideal now=2000 W=9.0499060000000444 J=18.099812000000089 rel=393 comp=393 miss=0 rej=1 vtr=1 ftr=680 busy=704.91666666666242 idle=1295.0833333333376 halt=0 work=393.99999999999631 crash=0 seg=750 #9561dfa9511eb298",
      "la_edf real now=2000 W=10.509475218686081 J=21.018950437372162 rel=593 comp=593 miss=0 rej=0 vtr=229 ftr=609 busy=1182.3259892063418 idle=717.6920374603194 halt=99.981973333338743 work=593.9999999999925 crash=0 seg=1457 #422d50856079f4aa",
      "la_edf ideal now=2000 W=10.523171575757592 J=21.046343151515185 rel=593 comp=593 miss=0 rej=0 vtr=201 ftr=623 busy=1182.7628306878216 idle=817.23716931217814 halt=0 work=593.99999999999216 crash=0 seg=1071 #b0512c04a5e67277",
  });
}

TEST(KernelGolden, RandomSet) {
  ExpectGolden(RandomSet(), UniformDemand, {
      "edf real now=2000 W=13.582657691329295 J=27.165315382658591 rel=412 comp=412 miss=0 rej=0 vtr=0 ftr=0 busy=641.84729617121604 idle=1358.1527038287841 halt=0 work=641.84729617120877 crash=0 seg=774 #8ad48eba6b319903",
      "edf ideal now=2000 W=13.582657691329295 J=27.165315382658591 rel=412 comp=412 miss=0 rej=0 vtr=0 ftr=0 busy=641.84729617121604 idle=1358.1527038287841 halt=0 work=641.84729617120877 crash=0 seg=774 #8ad48eba6b319903",
      "static_rm real now=2000 W=10.276502268751347 J=20.553004537502694 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=2 busy=784.48002865371109 idle=1215.4790113462889 halt=0.040960000000000003 work=641.84729617121104 crash=0 seg=769 #2b9e54f3b2fc7885",
      "static_rm ideal now=2000 W=10.276502268751347 J=20.553004537502694 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=2 busy=784.48002865371109 idle=1215.5199713462889 halt=0 work=641.84729617121104 crash=0 seg=768 #fb10e3a8b60ca991",
      "static_edf real now=2000 W=10.276502268751354 J=20.553004537502709 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=1 busy=882.54003223542452 idle=1117.4190077645753 halt=0.040960000000000003 work=641.84729617121184 crash=0 seg=765 #d2396a8272f7999b",
      "static_edf ideal now=2000 W=10.276502268751354 J=20.553004537502709 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=1 busy=882.54003223542452 idle=1117.4599677645756 halt=0 work=641.84729617121184 crash=0 seg=764 #50ca346a4db07907",
      "cc_edf real now=2000 W=10.276502268751411 J=20.553004537502822 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=858 busy=884.37106037138653 idle=1099.8183796286023 halt=15.8105600000113 work=641.84729617121161 crash=0 seg=819 #6b4c610c0f670a47",
      "cc_edf ideal now=2000 W=10.276502268751356 J=20.553004537502712 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=858 busy=884.37106037138619 idle=1115.6289396286136 halt=0 work=641.84729617121184 crash=0 seg=791 #37e492f42b88bf07",
      "cc_rm real now=2000 W=10.276502268751413 J=20.553004537502826 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=745 busy=866.40474464049487 idle=1117.3341353594935 halt=16.261120000011694 work=641.84729617121195 crash=0 seg=819 #e4392f72b43c45a4",
      "cc_rm ideal now=2000 W=10.276502268751354 J=20.553004537502709 rel=412 comp=412 miss=0 rej=0 vtr=1 ftr=745 busy=866.36224464047677 idle=1133.637755359523 halt=0 work=641.84729617121161 crash=0 seg=793 #428ad75fb9c108c6",
      "la_edf real now=2000 W=10.348142578553423 J=20.696285157106846 rel=412 comp=412 miss=0 rej=0 vtr=33 ftr=667 busy=907.40655019500559 idle=1064.9044898049847 halt=27.688960000009693 work=641.84729617121195 crash=0 seg=887 #e1259a06b9b7bda9",
      "la_edf ideal now=2000 W=10.347279458262463 J=20.694558916524926 rel=412 comp=412 miss=0 rej=0 vtr=33 ftr=667 busy=907.51639746773265 idle=1092.4836025322675 halt=0 work=641.84729617121184 crash=0 seg=816 #022cfb2f6bd989ff",
  });
}

}  // namespace
}  // namespace rtdvs
