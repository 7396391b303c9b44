// Multiprocessor cluster simulation: the redesigned run API.
//
// A SimRequest describes one run — task set, platform (ClusterSpec), the
// scheduling mode, the partition heuristic, one DVS policy id per core, and
// the usual SimOptions — and RunClusterSimulation returns an MpSimResult:
// one SimResult-shaped slice per core plus cluster totals, the partition
// report, and migration counters.
//
// M = 1, in either mode: the one core runs the whole set through
// RunSimulation (simulator.h) with untouched options. Its slice IS the
// single-core result, the cluster totals equal it (each is a sum from 0),
// the partition report puts every task on core 0, and there is no
// admission test.
//
// Partitioned mode (M > 1): tasks are bin-packed by PartitionTasks; each
// non-empty core runs its own single-core Simulator over its sub-task-set
// with an independently constructed DvsPolicy instance (one per core — the
// instances share no bookkeeping) and the per-core RNG stream
//   seed_c = options.seed ^ (0x9e3779b97f4a7c15 * c),
// so core 0 keeps the request seed. Cores the partition leaves empty are
// powered down: their slice reports the whole horizon as idle at the lowest
// operating point with ZERO energy. Infeasible partitions return with
// admitted == false and no simulation performed.
//
// Global mode (M > 1): one Simulator runs all M cores in the same stepping
// loop as single-core runs (src/sim/simulator.h), over one cluster-wide
// ReadyQueue, job list and RNG stream seeded with the request seed. At every
// scheduling point the M highest-priority runnable jobs (at most one per
// task — backlogged invocations of one task never run in parallel) are
// dispatched, one per core. Dispatch keeps a job on its previous core when
// that core is still available to it; remaining jobs fill free cores
// lowest-index-first, and a job landing on a different core than it last ran
// on counts one migration. A preemption is a job that ran in the previous
// segment, is unfinished, and holds no core now. Every core stays powered
// (idle energy applies); all policies observe the cluster-wide
// PolicyContext (its busy/idle/work totals summed over cores in core
// order), receive every release and completion in core order, and steer
// only their own core's speed (cores whose policies replicate one another,
// DvsPolicy::IsReplicaOf, receive them as the recorded effects of the
// group's first core, with the same outcome). A core's OnIdle fires once per idle period,
// ahead of a segment of positive length that it spends without a job.
// Global scheduling carries no utilization-based deadline guarantee
// (Dhall's effect), so there is no admission test and slices always run.
// Job-level counters (releases, completions, misses, preemptions,
// task_stats), trace events and fast-path stats live on the cluster result;
// global slices carry time/energy/residency/switch totals, policy counters
// and trace segments only, and their task_stats stay empty. The cluster
// lower bound is M times the single-core bound of work / M.
//
// The reference oracle (src/sim/reference_sim.h) implements this same
// contract from scratch so the differential fuzzer covers M-core runs.
#ifndef SRC_SIM_MP_SIMULATOR_H_
#define SRC_SIM_MP_SIMULATOR_H_

#include <string>
#include <vector>

#include "src/engine/cluster.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/simulator.h"

namespace rtdvs {

class JsonValue;

struct SimRequest {
  TaskSet tasks;
  ClusterSpec cluster;
  MpMode mode = MpMode::kPartitioned;
  PartitionHeuristic partition = PartitionHeuristic::kFirstFit;
  // One entry applies to every core; otherwise exactly num_cores entries,
  // one per core. A fresh DvsPolicy instance is constructed per core either
  // way. Global mode requires every policy to share one scheduler kind.
  std::vector<std::string> policy_ids = {"cc_edf"};
  SimOptions options;
};

struct MpSimResult {
  MpMode mode = MpMode::kPartitioned;
  int num_cores = 1;
  // False only when partitioned admission rejected the task set; the slices
  // and cluster totals are then empty/zero and partition.error explains.
  bool admitted = false;
  // Valid in partitioned mode (trivial all-on-core-0 report for M = 1;
  // cores_used == num_cores in global mode).
  PartitionResult partition;

  std::vector<SimResult> cores;  // per-core slices, size num_cores
  // The task set each core simulated, with LOCAL ids. Partitioned mode:
  // each core's sub-set (empty for powered-down cores). Global mode: the
  // request's set on every core. M = 1: the request's set plus, when one is
  // configured, the aperiodic server task (SimulatedTaskSet).
  std::vector<TaskSet> core_tasks;
  // Global ids of each core's tasks: core_global_ids[c][local] = global id.
  std::vector<std::vector<int>> core_global_ids;

  // Cluster totals: energy/time/work/residency sums over slices, job
  // counters summed (partitioned) or held here directly (global), policy
  // counters merged, lower_bound_energy the cluster-level §3.2 bound.
  // cluster.audit is the cluster-conservation audit (AuditCheck::kCluster
  // and the cluster lower bound); per-core slices carry their own
  // single-core audits in partitioned mode.
  SimResult cluster;
  int64_t migrations = 0;  // global mode; 0 in partitioned mode
};

// Runs the request with per-core policies resolved from request.policy_ids
// via MakePolicy. Aperiodic servers are supported only at num_cores == 1.
MpSimResult RunClusterSimulation(const SimRequest& request,
                                 ExecTimeModel& exec_model);

// As above with caller-owned policies (size num_cores, one per core; they
// are mutated). request.policy_ids is ignored. Lets tests observe policy
// state after the run.
MpSimResult RunClusterSimulation(const SimRequest& request,
                                 const std::vector<DvsPolicy*>& policies,
                                 ExecTimeModel& exec_model);

// JSON view of a result ("rtdvs-mpsim-v1"): cluster totals, partition
// report, and per-core slice summaries; used by rtdvs-sim --json.
JsonValue MpSimResultToJson(const MpSimResult& result);

}  // namespace rtdvs

#endif  // SRC_SIM_MP_SIMULATOR_H_
