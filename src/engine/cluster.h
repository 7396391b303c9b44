// Multiprocessor cluster composition: the platform description and the
// partitioned-scheduling admission layer for M identical DVS cores.
//
// The paper's RT-DVS policies (§3) are per-processor; the engine
// decomposition (ReadyQueue / EnergyAccountant / SpeedController) was
// built so M independent per-core instances can be composed under one
// simulated clock. This header holds the pieces that are
// pure scheduling theory — the cluster spec, the scheduling mode, and the
// bin-packing task partitioner — while src/sim/mp_simulator.h owns the
// driver that actually runs a cluster.
//
// Partitioned admission contract (shared with the reference oracle in
// src/sim/reference_sim.cc, which reimplements it independently):
//   - tasks are offered to cores in task-id order;
//   - a core admits a task iff the core's utilization test passes with the
//     task added: EDF cores use sum(U) <= 1, RM cores use the Liu-Layland
//     bound sum(U) <= n*(2^(1/n) - 1) with n tasks on the core (the
//     utilization-table shape of the classic partitioned schedulers);
//     both tests carry a +1e-9 tolerance and sum utilizations in ascending
//     task-id order so production and reference agree bitwise;
//   - FF picks the lowest-index admitting core; NF keeps a cursor that only
//     moves forward; BF picks the admitting core with the highest current
//     utilization (ties to the lowest index); WF the lowest current
//     utilization (ties likewise);
//   - a task no core admits makes the whole partition infeasible.
// Cores that end up with no tasks are powered down by the driver (zero
// energy for the whole horizon).
#ifndef SRC_ENGINE_CLUSTER_H_
#define SRC_ENGINE_CLUSTER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cpu/machine_spec.h"
#include "src/rt/scheduler.h"
#include "src/rt/task.h"

namespace rtdvs {

// How jobs are mapped onto the cluster's cores.
enum class MpMode {
  // Tasks are statically assigned to cores by bin-packing admission; each
  // core runs its own single-processor scheduler + DVS policy instance.
  kPartitioned,
  // One cluster-wide ready queue; at every event the M highest-priority
  // jobs run, one per core, with per-core speed selection. No admission
  // test (global EDF has no utilization-based guarantee — Dhall's effect).
  kGlobal,
};

enum class PartitionHeuristic {
  kFirstFit,
  kNextFit,
  kBestFit,
  kWorstFit,
};

const char* MpModeName(MpMode mode);  // "partitioned" | "global"
const char* PartitionHeuristicName(PartitionHeuristic heuristic);  // "ff" etc.
std::optional<MpMode> ParseMpMode(std::string_view text);
// Accepts the short ids "ff" | "nf" | "bf" | "wf".
std::optional<PartitionHeuristic> ParsePartitionHeuristic(std::string_view text);

// An identical-multiprocessor platform: num_cores copies of one machine
// table, each independently voltage-scalable.
struct ClusterSpec {
  int num_cores = 1;
  MachineSpec machine = MachineSpec::Machine0();
};

// Outcome of bin-packing a task set onto a cluster.
struct PartitionResult {
  bool feasible = false;
  // Task id -> core index; -1 for every task when infeasible.
  std::vector<int> core_of_task;
  // Worst-case utilization packed onto each core (ascending task-id sums).
  std::vector<double> core_utilization;
  std::vector<int> core_task_count;
  // Cores with at least one task; the rest are powered down.
  int cores_used = 0;
  // Human-readable reason when !feasible (which task fit nowhere).
  std::string error;
};

// Bin-packs `tasks` onto `num_cores` cores under the admission contract
// above. `core_kinds` gives each core's scheduler kind (size num_cores):
// heterogeneous clusters admit per the destination core's own test.
PartitionResult PartitionTasks(const TaskSet& tasks, int num_cores,
                               PartitionHeuristic heuristic,
                               const std::vector<SchedulerKind>& core_kinds);

// Homogeneous convenience overload: every core uses `kind`.
PartitionResult PartitionTasks(const TaskSet& tasks, int num_cores,
                               PartitionHeuristic heuristic,
                               SchedulerKind kind = SchedulerKind::kEdf);

// The Liu-Layland RM utilization bound n*(2^(1/n) - 1) for n tasks
// (1.0 for n <= 0, matching the EDF bound as n grows the limit is ln 2).
double RmUtilizationBound(int num_tasks);

}  // namespace rtdvs

#endif  // SRC_ENGINE_CLUSTER_H_
