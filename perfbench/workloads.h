// The benchmark's three workloads and their untraced passes.
//
// A pass is one unit of measured work: one UtilizationSweep::Run for the
// sweep workloads, one ThreadPool fan-out of RunSimulation calls for the
// aperiodic-server workload. Every pass is a pure function of its seed, so
// the same seed gives the same inputs and bit-identical results.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sweep.h"
#include "src/rt/aperiodic.h"
#include "src/rt/task.h"
#include "src/sim/simulator.h"

namespace perfbench {

enum class Workload { kPaperSweep, kMpGlobal, kAperiodicServer };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

// The seed whose pass results are stored under perfbench/expected/.
inline constexpr uint64_t kDefaultSeed = 1;

// Named result values compared exactly against the stored expectation:
// per-(utilization, policy) mean energy and miss count plus the per-row
// §3.2 bound for the sweeps, per-(server, policy) mean energy, miss count
// and mean aperiodic response for the server workload.
using ResultTable = std::vector<std::pair<std::string, double>>;

// Largest relative deviation |a - b| / max(|b|, 1) over every entry, or
// +inf when the two tables do not name the same entries in the same order.
double TableDrift(const ResultTable& actual, const ResultTable& expected);

struct PassStats {
  int64_t sims = 0;
  double wall_ms = 0;
  double cpu_ms = 0;  // process CPU time over the pass, all threads
  // SimAudit violations over every simulation of the pass.
  int64_t audit_violations = 0;
  std::vector<std::string> audit_messages;
  ResultTable table;
  // Per-shard timing from the thread pool's observer.
  double shard_p50_ms = 0;
  double shard_p95_ms = 0;
  double shard_sum_ms = 0;
  double queue_wait_p95_ms = 0;
};

// The per-pass seed: pass 0 of every run replays the default seed (so the
// stored-table check runs on every seed), later passes derive from `seed`.
uint64_t PassSeed(uint64_t seed, int pass);

// Runs one untraced pass through the public entry points.
PassStats RunPass(Workload workload, uint64_t seed, int workers);

// Part of set-up: a small untimed pass of the workload's shape (one set at
// u = 0.25/0.5/0.75/1.0, or 16 server sets) so the first timed pass starts
// with the thread pool, per-thread job pools and code pages already warm.
void RunWarmup(Workload workload, int workers);

// --- Workload shapes, shared with the traced and oracle replicas ---

// Sweep options of the two sweep workloads.
rtdvs::SweepOptions SweepOptionsFor(Workload workload, uint64_t seed,
                                    int workers);

// Aperiodic-server workload shape.
inline constexpr int kServerSetsPerPass = 96;
inline constexpr int kServerPeriodicTasks = 5;
inline constexpr double kServerPeriodicUtil = 0.5;
inline constexpr double kServerHorizonMs = 10'000.0;

struct ServerConfig {
  rtdvs::ServerKind kind;
  double utilization;
};
const std::vector<ServerConfig>& ServerConfigs();
// Policies each server configuration runs, baseline first.
const std::vector<std::string>& ServerPolicies();
std::string ServerConfigName(const ServerConfig& config);

// One generated server-workload set: the periodic tasks and the run seed.
struct ServerSet {
  rtdvs::TaskSet tasks;
  uint64_t run_seed = 0;
};
std::vector<ServerSet> GenerateServerSets(uint64_t seed, int count);
rtdvs::SimOptions ServerSimOptions(const ServerConfig& config,
                                   uint64_t run_seed, bool audit);

// The outcome of one server-workload simulation, merged in set order.
struct ServerRun {
  double energy = 0;
  int64_t deadline_misses = 0;
  double mean_response_ms = 0;
};
// runs[set][config][policy] -> table.
ResultTable ServerTable(
    const std::vector<std::vector<std::vector<ServerRun>>>& runs);

// The §3.2 sweep table of a SweepResult.
ResultTable SweepTable(const rtdvs::SweepResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
