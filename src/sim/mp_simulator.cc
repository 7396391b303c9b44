#include "src/sim/mp_simulator.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/cpu/lower_bound.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/profiler.h"

namespace rtdvs {
namespace {

// Per-core RNG stream for partitioned mode. Core 0 keeps the request seed;
// higher cores decorrelate via the golden-ratio multiplier.
uint64_t CoreSeed(uint64_t seed, int core) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(core));
}

// Translates a core's local task ids back to the global ids the shared
// execution-time model keys on. Invocation indices pass through unchanged:
// a partitioned task runs wholly on one core, so its local invocation
// sequence IS its global one.
class CoreExecModelAdapter : public ExecTimeModel {
 public:
  CoreExecModelAdapter(ExecTimeModel* inner, const std::vector<int>* global_ids)
      : inner_(inner), global_ids_(global_ids) {}
  std::string name() const override { return inner_->name(); }
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override {
    return inner_->DrawFraction((*global_ids_)[static_cast<size_t>(task_id)],
                                invocation, rng);
  }
  // A constant model is constant under any id mapping; forwarding it keeps
  // each core's Simulator on its no-draw release path.
  std::optional<double> constant_fraction() const override {
    return inner_->constant_fraction();
  }

 private:
  ExecTimeModel* inner_;
  const std::vector<int>* global_ids_;
};

// A core the partition left without tasks is powered down for the whole
// horizon: wall time is all idle at the lowest operating point, energy is
// zero (the core is off, not halted). The reference oracle reproduces this
// slice independently; keep the two definitions in sync.
SimResult PoweredDownSlice(const MachineSpec& machine, const SimOptions& options) {
  SimResult slice;
  slice.policy_name = "off";
  slice.horizon_ms = options.horizon_ms;
  slice.idle_ms = options.horizon_ms;
  for (const OperatingPoint& point : machine.points()) {
    slice.residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
  slice.residency.front().idle_ms = options.horizon_ms;
  return slice;
}

// Folds one core's slice into the cluster totals. Never touches traces
// (they stay per-core) and maps per-task stats back to global ids.
void AccumulateSlice(const SimResult& slice, const std::vector<int>& global_ids,
                     SimResult* cluster) {
  cluster->exec_energy += slice.exec_energy;
  cluster->idle_energy += slice.idle_energy;
  cluster->busy_ms += slice.busy_ms;
  cluster->idle_ms += slice.idle_ms;
  cluster->switching_ms += slice.switching_ms;
  cluster->total_work_executed += slice.total_work_executed;
  cluster->releases += slice.releases;
  cluster->completions += slice.completions;
  cluster->deadline_misses += slice.deadline_misses;
  cluster->aborted += slice.aborted;
  cluster->unfinished_at_horizon += slice.unfinished_at_horizon;
  cluster->wcet_overruns += slice.wcet_overruns;
  cluster->speed_switches += slice.speed_switches;
  cluster->preemptions += slice.preemptions;
  cluster->policy_counters.MergeFrom(slice.policy_counters);
  cluster->fastpath.MergeFrom(slice.fastpath);
  cluster->lower_bound_energy += slice.lower_bound_energy;
  for (size_t i = 0; i < slice.residency.size(); ++i) {
    PointResidency& sum = cluster->residency[i];
    const PointResidency& res = slice.residency[i];
    sum.exec_ms += res.exec_ms;
    sum.idle_ms += res.idle_ms;
    sum.exec_energy += res.exec_energy;
    sum.idle_energy += res.idle_energy;
  }
  for (size_t local = 0; local < slice.task_stats.size(); ++local) {
    cluster->task_stats[static_cast<size_t>(global_ids[local])] =
        slice.task_stats[local];
  }
}

void InitClusterResult(int num_tasks, const MachineSpec& machine,
                       const SimOptions& options, SimResult* cluster) {
  cluster->horizon_ms = options.horizon_ms;
  cluster->task_stats.assign(static_cast<size_t>(num_tasks), TaskStats{});
  for (const OperatingPoint& point : machine.points()) {
    cluster->residency.push_back(PointResidency{point, 0, 0, 0, 0});
  }
}

std::string ClusterPolicyName(const std::vector<DvsPolicy*>& policies) {
  std::string name = policies.front()->name();
  for (const DvsPolicy* policy : policies) {
    if (policy->name() != name) {
      name += '+';
      name += policy->name();
    }
  }
  return name;
}

// --- M = 1, either mode: the one core runs the whole set with untouched
// options, exactly as RunSimulation does. ---
void RunSingleCore(const SimRequest& request, DvsPolicy* policy,
                   ExecTimeModel& exec_model, MpSimResult* out) {
  out->admitted = true;
  out->partition.feasible = true;
  out->partition.core_of_task.assign(static_cast<size_t>(request.tasks.size()), 0);
  out->partition.core_utilization = {request.tasks.TotalUtilization()};
  out->partition.core_task_count = {request.tasks.size()};
  out->partition.cores_used = 1;
  // The simulated set may have grown a server task; the core's tasks, ids
  // and cluster stats cover it.
  out->core_tasks = {SimulatedTaskSet(request.tasks, request.options)};
  out->core_global_ids.resize(1);
  for (int id = 0; id < out->core_tasks[0].size(); ++id) {
    out->core_global_ids[0].push_back(id);
  }
  out->cores[0] = RunSimulation(request.tasks, request.cluster.machine, *policy,
                                exec_model, request.options);
  InitClusterResult(static_cast<int>(out->cores[0].task_stats.size()),
                    request.cluster.machine, request.options, &out->cluster);
  AccumulateSlice(out->cores[0], out->core_global_ids[0], &out->cluster);
  out->cluster.server_task_id = out->cores[0].server_task_id;
  out->cluster.aperiodic = out->cores[0].aperiodic;
}

// --- Partitioned mode (M > 1): bin-pack, then one independent single-core
// Simulator per non-empty core. ---
void RunPartitioned(const SimRequest& request,
                    const std::vector<DvsPolicy*>& policies,
                    ExecTimeModel& exec_model, MpSimResult* out) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK(request.options.aperiodic.kind == ServerKind::kNone)
      << "aperiodic servers are supported only at num_cores == 1";
  std::vector<SchedulerKind> kinds;
  kinds.reserve(static_cast<size_t>(num_cores));
  for (const DvsPolicy* policy : policies) {
    kinds.push_back(policy->scheduler_kind());
  }
  out->partition = PartitionTasks(request.tasks, num_cores, request.partition, kinds);
  if (!out->partition.feasible) {
    out->admitted = false;
    return;
  }
  out->admitted = true;

  out->core_tasks.assign(static_cast<size_t>(num_cores), TaskSet{});
  out->core_global_ids.assign(static_cast<size_t>(num_cores), {});
  for (int id = 0; id < request.tasks.size(); ++id) {
    const int core = out->partition.core_of_task[static_cast<size_t>(id)];
    out->core_tasks[static_cast<size_t>(core)].AddTask(request.tasks.task(id));
    out->core_global_ids[static_cast<size_t>(core)].push_back(id);
  }

  InitClusterResult(request.tasks.size(), request.cluster.machine,
                    request.options, &out->cluster);
  for (int core = 0; core < num_cores; ++core) {
    RTDVS_PROF_SCOPE("mp/core/run");
    const auto c = static_cast<size_t>(core);
    if (out->core_tasks[c].empty()) {
      out->cores[c] = PoweredDownSlice(request.cluster.machine, request.options);
    } else {
      SimOptions core_options = request.options;
      core_options.seed = CoreSeed(request.options.seed, core);
      CoreExecModelAdapter adapter(&exec_model, &out->core_global_ids[c]);
      Simulator sim(out->core_tasks[c], request.cluster.machine,
                    policies[c], &adapter, core_options);
      out->cores[c] = sim.Run();
    }
    AccumulateSlice(out->cores[c], out->core_global_ids[c], &out->cluster);
  }
}

// --- Global mode (M > 1): one Simulator dispatching the top M jobs over M
// cores (contract in mp_simulator.h). ---
void RunGlobal(const SimRequest& request, const std::vector<DvsPolicy*>& policies,
               ExecTimeModel& exec_model, MpSimResult* out) {
  const int num_cores = request.cluster.num_cores;
  out->admitted = true;  // global scheduling has no admission test
  out->partition.feasible = true;
  out->partition.cores_used = num_cores;
  out->core_tasks.assign(static_cast<size_t>(num_cores), request.tasks);
  out->core_global_ids.assign(static_cast<size_t>(num_cores), {});
  for (std::vector<int>& ids : out->core_global_ids) {
    for (int id = 0; id < request.tasks.size(); ++id) {
      ids.push_back(id);
    }
  }
  Simulator sim(request.tasks, request.cluster.machine, policies, &exec_model,
                request.options);
  out->cluster = sim.Run();
  out->cores = sim.TakeCoreSlices();
  out->migrations = sim.migrations();
  for (const SimResult& slice : out->cores) {
    AccumulateSlice(slice, {}, &out->cluster);
  }
  // Cluster-level §3.2 bound: the per-core bound is convex in work, so an
  // even split of the executed work over M always-on cores lower-bounds
  // any division the scheduler actually produced.
  {
    RTDVS_PROF_SCOPE("sweep/bound");
    out->cluster.lower_bound_energy =
        num_cores * MinimumExecutionEnergy(
                        out->cluster.total_work_executed / num_cores,
                        request.options.horizon_ms, request.cluster.machine,
                        EnergyModel(0.0, request.options.energy_coefficient));
  }
}

JsonValue SliceToJson(const SimResult& slice) {
  JsonValue out = JsonValue::Object();
  out.Set("policy", slice.policy_name);
  out.Set("scheduler", SchedulerKindName(slice.scheduler));
  out.Set("exec_energy", slice.exec_energy);
  out.Set("idle_energy", slice.idle_energy);
  out.Set("total_energy", slice.total_energy());
  out.Set("busy_ms", slice.busy_ms);
  out.Set("idle_ms", slice.idle_ms);
  out.Set("switching_ms", slice.switching_ms);
  out.Set("total_work_executed", slice.total_work_executed);
  out.Set("releases", slice.releases);
  out.Set("completions", slice.completions);
  out.Set("deadline_misses", slice.deadline_misses);
  out.Set("aborted", slice.aborted);
  out.Set("unfinished_at_horizon", slice.unfinished_at_horizon);
  out.Set("speed_switches", slice.speed_switches);
  out.Set("preemptions", slice.preemptions);
  out.Set("lower_bound_energy", slice.lower_bound_energy);
  out.Set("counters", PolicyCountersToJson(slice.policy_counters));
  out.Set("fastpath", FastPathStatsToJson(slice.fastpath));
  JsonValue residency = JsonValue::Array();
  for (const PointResidency& res : slice.residency) {
    JsonValue entry = JsonValue::Object();
    entry.Set("frequency", res.point.frequency);
    entry.Set("voltage", res.point.voltage);
    entry.Set("exec_ms", res.exec_ms);
    entry.Set("idle_ms", res.idle_ms);
    entry.Set("exec_energy", res.exec_energy);
    entry.Set("idle_energy", res.idle_energy);
    residency.Append(std::move(entry));
  }
  out.Set("residency", std::move(residency));
  if (slice.audit.audited) {
    out.Set("audit_ok", slice.audit.ok());
  }
  return out;
}

}  // namespace

MpSimResult RunClusterSimulation(const SimRequest& request,
                                 const std::vector<DvsPolicy*>& policies,
                                 ExecTimeModel& exec_model) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK_GE(num_cores, 1);
  RTDVS_CHECK(static_cast<int>(policies.size()) == num_cores)
      << "need exactly one policy per core";
  RTDVS_CHECK(!request.tasks.empty()) << "cannot simulate an empty task set";

  MpSimResult out;
  out.mode = request.mode;
  out.num_cores = num_cores;
  out.cores.resize(static_cast<size_t>(num_cores));
  out.partition.core_of_task.assign(static_cast<size_t>(request.tasks.size()), -1);
  out.partition.core_utilization.assign(static_cast<size_t>(num_cores), 0.0);
  out.partition.core_task_count.assign(static_cast<size_t>(num_cores), 0);

  if (num_cores == 1) {
    // Either mode degenerates to single-processor scheduling at M = 1.
    RunSingleCore(request, policies.front(), exec_model, &out);
  } else if (request.mode == MpMode::kPartitioned) {
    RunPartitioned(request, policies, exec_model, &out);
  } else {
    RunGlobal(request, policies, exec_model, &out);
  }

  if (out.admitted) {
    out.cluster.policy_name = ClusterPolicyName(policies);
    out.cluster.scheduler = policies.front()->scheduler_kind();
    out.cluster.horizon_ms = request.options.horizon_ms;
    // Fold cluster-level migration accounting into the mergeable counters so
    // sweep profile totals and rtdvs-sim --json report it alongside the
    // per-policy decision counters (always 0 in partitioned mode).
    out.cluster.policy_counters.migrations = out.migrations;
    if (request.options.audit) {
      RTDVS_PROF_SCOPE("sweep/audit");
      out.cluster.audit = AuditMpResult(out, request.options);
    }
  }
  return out;
}

MpSimResult RunClusterSimulation(const SimRequest& request,
                                 ExecTimeModel& exec_model) {
  const int num_cores = request.cluster.num_cores;
  RTDVS_CHECK(!request.policy_ids.empty());
  RTDVS_CHECK(request.policy_ids.size() == 1 ||
              static_cast<int>(request.policy_ids.size()) == num_cores)
      << "policy_ids must have one entry, or exactly one per core";
  // One instance per core, always: policy bookkeeping (utilization tables,
  // slack accounting, counters) must never be shared between cores. In
  // global mode a replica group's decisions are still computed once and
  // mirrored to its other cores (DvsPolicy::IsReplicaOf).
  std::vector<std::unique_ptr<DvsPolicy>> owned;
  std::vector<DvsPolicy*> raw;
  for (int core = 0; core < num_cores; ++core) {
    const std::string& id =
        request.policy_ids.size() == 1
            ? request.policy_ids.front()
            : request.policy_ids[static_cast<size_t>(core)];
    owned.push_back(MakePolicy(id));
    raw.push_back(owned.back().get());
  }
  return RunClusterSimulation(request, raw, exec_model);
}

JsonValue MpSimResultToJson(const MpSimResult& result) {
  JsonValue doc = JsonValue::Object();
  doc.Set("version", "rtdvs-mpsim-v1");
  doc.Set("mode", MpModeName(result.mode));
  doc.Set("num_cores", result.num_cores);
  doc.Set("admitted", result.admitted);
  doc.Set("migrations", result.migrations);
  JsonValue partition = JsonValue::Object();
  partition.Set("feasible", result.partition.feasible);
  partition.Set("cores_used", result.partition.cores_used);
  if (!result.partition.error.empty()) {
    partition.Set("error", result.partition.error);
  }
  JsonValue assignment = JsonValue::Array();
  for (int core : result.partition.core_of_task) {
    assignment.Append(core);
  }
  partition.Set("core_of_task", std::move(assignment));
  JsonValue utilization = JsonValue::Array();
  for (double u : result.partition.core_utilization) {
    utilization.Append(u);
  }
  partition.Set("core_utilization", std::move(utilization));
  doc.Set("partition", std::move(partition));
  if (!result.admitted) {
    return doc;
  }
  doc.Set("cluster", SliceToJson(result.cluster));
  if (result.cluster.audit.audited) {
    doc.Set("cluster_audit_ok", result.cluster.audit.ok());
  }
  JsonValue cores = JsonValue::Array();
  for (const SimResult& slice : result.cores) {
    cores.Append(SliceToJson(slice));
  }
  doc.Set("cores", std::move(cores));
  return doc;
}

}  // namespace rtdvs
