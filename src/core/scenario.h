// Scenario files: a small text format describing a complete simulation
// setup (task set, per-task actual-demand model, machine, optional
// aperiodic server), consumed by the rtdvs_sim command-line tool and usable
// by downstream test rigs.
//
//   # comment (also after '#' on a line)
//   machine machine0                 # machine0|machine1|machine2|k6
//   task <name> <period_ms> <wcet_ms> [demand]
//   server <polling|cbs> <period_ms> <budget_ms>
//          [interarrival=<ms>] [service=<ms>] [maxservice=<ms>]   (one line)
//   cluster <num_cores> [mode=partitioned|global] [fit=ff|nf|bf|wf]
//   policies <id> [<id> ...]         # DVS policy per core (one = every core)
//
// [demand] is one of:
//   c=<fraction>           constant fraction of the worst case (default 1)
//   uniform                uniform in (0, 1]
//   uniform=<lo>,<hi>      uniform in (lo, hi]
//   bimodal=<typ>,<p>      mostly <= typ, spikes near 1 with probability p
//   cold=<factor>          first invocation costs <factor> x (capped at 1)
//
// The `cluster` and `policies` lines are optional; files without them are
// the classic single-core scenarios and parse exactly as before (the
// extension adds keywords, it never reinterprets existing ones). A server
// line requires a single-core scenario. Versioning policy: the format is
// line-keyword based, unknown keywords are hard errors (not skipped), so a
// file using a newer keyword fails loudly on older parsers; see DESIGN.md.
#ifndef SRC_CORE_SCENARIO_H_
#define SRC_CORE_SCENARIO_H_

#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "src/cpu/machine_spec.h"
#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"

namespace rtdvs {

struct Scenario {
  TaskSet tasks;
  MachineSpec machine = MachineSpec::Machine0();
  AperiodicServerConfig server;  // kind == kNone when no server line

  // From the optional `cluster` line; num_cores == 1 (the default) is the
  // classic single-core setup and mode/fit are then inert.
  int num_cores = 1;
  MpMode mp_mode = MpMode::kPartitioned;
  PartitionHeuristic mp_partition = PartitionHeuristic::kFirstFit;
  // From the optional `policies` line: DVS policy ids, one entry for every
  // core or exactly num_cores entries (the SimRequest contract). Empty when
  // the file declares none — the tool's --policy flag then applies.
  std::vector<std::string> policy_ids;

  // Builds the per-task execution-time model declared in the file. Each
  // call returns a fresh instance (models are stateful).
  std::unique_ptr<ExecTimeModel> MakeExecModel() const;

  // The cluster-API request this scenario describes: tasks, machine,
  // cluster geometry, and the file's policy ids (kept as the SimRequest
  // default when the file declares none). `options` is copied through with
  // the server config attached.
  SimRequest ToSimRequest(const SimOptions& options) const;

  // The demand spec strings per task, for MakeExecModel and round-tripping.
  std::vector<std::string> demand_specs;
};

// Parses scenario text. Returns the scenario or a human-readable error
// (with a line number) — file-format problems are user errors, not
// programming errors, so no CHECK-aborts here.
std::variant<Scenario, std::string> ParseScenario(std::string_view text);

// Convenience: reads and parses a file.
std::variant<Scenario, std::string> LoadScenarioFile(const std::string& path);

// Parses one demand spec (see header comment); nullptr on syntax error.
std::unique_ptr<ExecTimeModel> MakeDemandModel(std::string_view spec);

}  // namespace rtdvs

#endif  // SRC_CORE_SCENARIO_H_
