// Seeded scenario generators for the differential-testing subsystem.
//
// A FuzzCase is a complete, self-contained description of one simulation
// scenario: task set, machine table, execution-demand model, simulator
// options, and the policy under test. Cases serialize to a one-line repro
// string (FuzzCaseToRepro) that round-trips exactly — including every
// double, printed with %.17g — so any divergence found by a fuzz campaign
// can be replayed with `tools/rtdvs-fuzz --repro=<string>` and checked in
// verbatim as a regression test.
//
// The generators deliberately cover the regimes where the paper's policies
// diverge most (cf. Leung & Tsui's dynamic-workload-variation analysis):
// harmonic and non-harmonic period sets, utilization targets up to mild
// overload, degenerate single-point machines, constant/uniform/overrun
// demand, switch costs, and both deadline-miss policies.
#ifndef SRC_TESTING_GENERATORS_H_
#define SRC_TESTING_GENERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/cpu/operating_point.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"

namespace rtdvs {

// One complete differential-testing scenario. Plain data; helpers below
// turn the fields into the domain objects the simulators consume.
struct FuzzCase {
  std::string policy_id = "cc_edf";
  // Sorted by frequency; the last point must have frequency exactly 1.0.
  std::vector<OperatingPoint> machine_points = {{0.5, 3.0}, {0.75, 4.0}, {1.0, 5.0}};
  std::vector<Task> tasks;
  // Execution-demand spec (MakeFuzzExecModel grammar):
  //   c:<f>                constant fraction of WCET
  //   u:<lo>,<hi>          uniform in (lo, hi]
  //   cold:<factor>,<0|1>  ColdStartModel over uniform(0,1]; 1 = allow the
  //                        first invocation to overrun its WCET
  //   t:<f,f,..>/<f,..>/.. per-task, per-invocation table (TableFractionModel)
  std::string exec_spec = "c:1";
  double horizon_ms = 100.0;
  double idle_level = 0.0;
  double switch_time_ms = 0.0;
  MissPolicy miss_policy = MissPolicy::kContinueLate;
  uint64_t seed = 1;
  // Multiprocessor extension: num_cores == 1 is the classic single-core
  // scenario (the mode/heuristic fields are then inert, and the repro string
  // omits them so pre-cluster strings stay valid and byte-identical).
  int num_cores = 1;
  MpMode mp_mode = MpMode::kPartitioned;
  PartitionHeuristic mp_partition = PartitionHeuristic::kFirstFit;
};

// --- Domain-object builders ---
MachineSpec FuzzMachine(const FuzzCase& c);  // aborts on an invalid table
TaskSet FuzzTasks(const FuzzCase& c);
// nullptr on a malformed spec (grammar above).
std::unique_ptr<ExecTimeModel> MakeFuzzExecModel(const std::string& spec);
// SimOptions for the case (audit on, trace off, no aperiodic server).
SimOptions FuzzSimOptions(const FuzzCase& c);
// The full cluster request (machine, cores, mode, heuristic, one policy id
// applied to every core, options). For num_cores == 1 this is exactly the
// M=1 request whose result is bit-identical to the legacy RunSimulation.
SimRequest FuzzSimRequest(const FuzzCase& c);

// --- Repro strings ---
// "rtdvs-fuzz-v1;policy=...;machine=f/v,f/v;tasks=P:C:ph,..;exec=..;
//  horizon=..;idle=..;switch=..;miss=late|abort;seed=.."
// Multiprocessor cases append ";cores=M;mode=partitioned|global;fit=ff|nf|
// bf|wf"; single-core cases omit all three fields.
std::string FuzzCaseToRepro(const FuzzCase& c);
// nullopt (with *error set, if non-null) on malformed input.
std::optional<FuzzCase> ParseRepro(const std::string& repro, std::string* error = nullptr);
// Field-exact equality (doubles compared bitwise), for round-trip tests.
bool FuzzCaseEquals(const FuzzCase& a, const FuzzCase& b);

// --- Generation ---
struct FuzzGenOptions {
  // Policies to draw from; empty means the paper's six (AllPaperPolicyIds).
  std::vector<std::string> policy_pool;
  int min_tasks = 1;
  int max_tasks = 8;
  double min_horizon_ms = 50.0;
  double max_horizon_ms = 400.0;
  // Machines get 1..max_machine_points operating points; 1 yields the
  // degenerate single-point grid {1.0}.
  int max_machine_points = 10;
  double min_target_utilization = 0.15;
  // > 1 admits mildly overloaded sets, exercising miss/backlog paths.
  double max_target_utilization = 1.1;
  bool allow_switch_cost = true;
  bool allow_overrun = true;
  bool allow_abort_miss = true;
  bool allow_phases = true;
  // Cluster sizes to draw from. The default {1} keeps generation
  // byte-identical to the pre-cluster generator (no extra rng draws at
  // all); any other pool draws the multiprocessor parameters AFTER every
  // single-core field so the shared prefix of the rng stream is preserved.
  // A draw of 1 leaves the case single-core; a draw of M > 1 also rescales
  // the task set (count and target utilization) to the cluster.
  std::vector<int> core_choices = {1};
};

// Draws one scenario. Deterministic in the rng state: the same seeded rng
// produces the same case, independent of any other draws in the process.
FuzzCase GenerateFuzzCase(Pcg32& rng, const FuzzGenOptions& options = {});

// Building blocks, exposed for targeted tests:
// 1..max_points points, frequencies strictly increasing with max exactly
// 1.0, voltages positive and non-decreasing.
std::vector<OperatingPoint> GenerateMachinePoints(Pcg32& rng, int max_points = 10);
// `num_tasks` tasks whose worst-case utilizations sum to target_utilization
// (UUniFast split; within snapping tolerance of the 1 microsecond grid).
// Harmonic sets use power-of-two multiples of a common base period.
std::vector<Task> GenerateFuzzTasks(Pcg32& rng, int num_tasks,
                                    double target_utilization, bool harmonic,
                                    bool allow_phases);

}  // namespace rtdvs

#endif  // SRC_TESTING_GENERATORS_H_
