// A PDA-style device: periodic housekeeping plus USER INPUT — the classic
// aperiodic workload (footnote 1 of the paper: aperiodic tasks are handled
// by a periodic or deferred server). Pen taps arrive at random; each needs
// a burst of computation; the user feels the response time.
//
// This example compares two server disciplines under ccEDF:
//   polling     — strictly periodic service; cheap but sluggish
//   CBS         — immediate service with a provable bandwidth bound
// and shows that DVS energy savings coexist with interactive response.
#include <cstdio>
#include <memory>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/sim/simulator.h"

int main() {
  using namespace rtdvs;

  // The periodic side of the PDA: display refresh, radio keepalive, sync.
  TaskSet tasks;
  tasks.AddTask({"display", 16.0, 4.0});
  tasks.AddTask({"radio", 100.0, 15.0});
  tasks.AddTask({"sync", 500.0, 60.0});
  std::printf("PDA periodic tasks: %s\n", tasks.ToString().c_str());

  SimOptions base;
  base.horizon_ms = 60'000.0;  // one minute of use
  base.idle_level = 0.05;
  base.aperiodic.period_ms = 20.0;
  base.aperiodic.budget_ms = 4.0;  // 20% of the CPU reserved for taps
  base.aperiodic.arrivals.mean_interarrival_ms = 150.0;  // a tap every ~150 ms
  base.aperiodic.arrivals.mean_service_ms = 2.5;
  base.aperiodic.arrivals.max_service_ms = 8.0;

  std::printf("taps: ~%.1f/s, %.3g ms of work each (%.0f%% CPU reserved)\n\n",
              1000.0 / base.aperiodic.arrivals.mean_interarrival_ms,
              base.aperiodic.arrivals.mean_service_ms,
              100.0 * base.aperiodic.budget_ms / base.aperiodic.period_ms);

  std::printf("%-12s %-10s %-12s %-12s %-10s %-10s\n", "server", "policy",
              "mean resp", "max resp", "misses", "energy");
  std::printf("%s\n", std::string(70, '-').c_str());

  struct Config {
    ServerKind kind;
    const char* name;
  };
  const Config configs[] = {{ServerKind::kPolling, "polling"},
                            {ServerKind::kCbs, "CBS"}};
  for (const auto& config : configs) {
    for (const char* policy_id : {"edf", "cc_edf"}) {
      SimOptions options = base;
      options.aperiodic.kind = config.kind;
      auto policy = MakePolicy(policy_id);
      // Housekeeping uses 40-90% of its worst case, invocation by invocation.
      UniformFractionModel demand(0.4, 0.9);
      SimResult result =
          RunSimulation(tasks, MachineSpec::Machine2(), *policy, demand, options);
      std::printf("%-12s %-10s %9.2f ms %9.2f ms %-10lld %-10.0f\n", config.name,
                  result.policy_name.c_str(), result.aperiodic.MeanResponseMs(),
                  result.aperiodic.max_response_ms,
                  static_cast<long long>(result.deadline_misses),
                  result.total_energy());
    }
  }

  std::printf(
      "\nTakeaways: the CBS answers taps far sooner than the polling server\n"
      "without costing the periodic tasks a deadline, and ccEDF cuts energy\n"
      "~independently of the server discipline — the server is just another\n"
      "periodic task to the DVS machinery.\n");
  return 0;
}
