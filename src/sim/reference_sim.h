// Reference simulator: a second, independently written oracle for the
// production engine in src/sim/simulator.cc.
//
// PR 2's SimAudit validates conservation invariants *within* one result, but
// a simulator that is consistently wrong — charging a segment to the right
// bucket at the wrong operating point, say — conserves everything and sails
// through. The defense is differential testing: run the same scenario
// through two engines that share nothing but the behavioral contract and
// demand identical summaries (src/testing/differential.h drives this; the
// fuzz campaign in tools/rtdvs-fuzz generates the scenarios).
//
// Design rules for this file, deliberately opposite to the production
// engine's:
//   - no incremental state: the ready queue, the policy context, and the
//     next-event time are recomputed from scratch at every event (into
//     reused buffers that carry no values from one event to the next);
//   - the scheduler is reimplemented here as an explicit sort of the whole
//     job list (production picks in one pass with ReadyQueue's
//     PickTrackedSince and PickTopK, src/engine/ready_queue.h);
//   - one engine runs every core count: M cores share one job list and take
//     the top M jobs of that sort (M = 1 is the uniprocessor), so each rule
//     of the contract below is stated once;
//   - energy is integrated from first principles (w * V^2, t * f * V^2 *
//     idle_level) instead of going through the EnergyModel class;
//   - clarity over speed everywhere — this simulator is allowed to be an
//     order of magnitude slower.
//
// The contract it implements (matching DESIGN.md and the production
// engine's documented semantics):
//   - periodic tasks release at phase + k * period, deadline = release +
//     period; releases at one event time are processed in task-id order and
//     draw from the execution-time model in that order;
//   - at every event, state changes apply as completions, then deadline
//     misses, then releases; policy callbacks fire after all state changes,
//     completions before releases, then timer wakeups, then (M = 1) one
//     OnIdle per idle period; at M > 1 an idle core's OnIdle fires once per
//     idle period, ahead of the next segment of real length;
//   - an operating-point change halts the processor for switch_time_ms of
//     wall time charged to switching_ms (zero energy), on both the busy and
//     the idle path;
//   - time comparisons use kTimeEpsMs, work comparisons kWorkEps.
//
// Scope: everything the fuzz generators produce — all policies from
// MakePolicy, both miss policies, switch costs, idle levels, WCET overruns.
// Not covered: aperiodic servers and trace recording (the reference CHECKs
// the former off and ignores the latter; traces have their own invariant
// audit in SimAudit).
#ifndef SRC_SIM_REFERENCE_SIM_H_
#define SRC_SIM_REFERENCE_SIM_H_

#include <string>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/rt/exec_time_model.h"
#include "src/rt/task.h"
#include "src/sim/mp_simulator.h"
#include "src/sim/simulator.h"

namespace rtdvs {

// Fault-injection knobs for harness self-tests: each flag re-introduces a
// historical (fixed) production bug into the reference so tests can verify
// the differential pipeline actually detects and shrinks a divergence
// (tools/rtdvs-fuzz --inject-bug, tests/testing/shrink_test.cc).
struct ReferenceFaults {
  // Pre-PR-2 idle-path accounting bug: a speed-change halt leading into an
  // idle period is charged as idle time and idle energy at the new point
  // instead of switching_ms. Needs switch_time_ms > 0 to manifest.
  bool idle_path_switch_bug = false;
  // Event-ordering bug: deadline misses are processed before completions at
  // the same event time, so a job finishing exactly on its deadline is
  // tallied as a miss. Needs a job whose completion lands on its deadline
  // (e.g. worst-case execution with C == P under EDF).
  bool miss_before_completion_bug = false;
};

// Runs the reference engine over the scenario and returns the summary.
// `policy` and `exec_model` must be fresh instances (both are mutated), and
// options.aperiodic.kind must be kNone. The result's trace is empty and its
// audit is not run (result.audit.audited == false); preemptions are counted
// with the same definition as production and compared exactly.
SimResult RunReferenceSimulation(const TaskSet& tasks, const MachineSpec& machine,
                                 DvsPolicy& policy, ExecTimeModel& exec_model,
                                 const SimOptions& options,
                                 const ReferenceFaults& faults = {});

// Same, resolving the policy from its factory id.
SimResult RunReferenceSimulation(const TaskSet& tasks, const MachineSpec& machine,
                                 const std::string& policy_id,
                                 ExecTimeModel& exec_model, const SimOptions& options,
                                 const ReferenceFaults& faults = {});

// Multiprocessor oracle for RunClusterSimulation, written under the same
// design rules: the partitioned admission tables, the powered-down-core
// slice, the per-core seed mixing, and the global dispatch (top-M pick,
// core affinity, migrations) are reimplemented here from the contract in
// mp_simulator.h and cluster.h rather than calling into
// src/engine/cluster.cc. Policies are resolved from request.policy_ids (one
// fresh instance per core). Global mode at M > 1 runs the engine with M
// cores; partitioned mode runs it with one core per non-empty core, and
// M = 1 in either mode runs it once over the whole set, mirroring
// production's routing. The fault knobs apply at every M so --inject-bug
// self-tests cover multiprocessor campaigns too. The cluster audit is not
// run (cluster.audit.audited == false).
MpSimResult RunReferenceClusterSimulation(const SimRequest& request,
                                          ExecTimeModel& exec_model,
                                          const ReferenceFaults& faults = {});

}  // namespace rtdvs

#endif  // SRC_SIM_REFERENCE_SIM_H_
