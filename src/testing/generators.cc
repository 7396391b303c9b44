#include "src/testing/generators.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/dvs/policy.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace rtdvs {
namespace {

// 1 microsecond grid: release arithmetic stays exact in doubles (see
// src/rt/taskset_generator.h for the same convention).
double SnapMicro(double ms) { return std::round(ms * 1000.0) / 1000.0; }

// Full-precision double: %.17g round-trips any finite double through
// strtod, so repro strings are bit-exact.
std::string Dbl(double value) { return StrFormat("%.17g", value); }

std::optional<double> ParseField(const std::string& text) { return ParseDouble(text); }

}  // namespace

MachineSpec FuzzMachine(const FuzzCase& c) {
  return MachineSpec("fuzz", c.machine_points);
}

TaskSet FuzzTasks(const FuzzCase& c) { return TaskSet(c.tasks); }

std::unique_ptr<ExecTimeModel> MakeFuzzExecModel(const std::string& spec) {
  auto head = spec.substr(0, spec.find(':'));
  if (spec.find(':') == std::string::npos) {
    return nullptr;
  }
  std::string body = spec.substr(spec.find(':') + 1);
  if (head == "c") {
    auto f = ParseField(body);
    if (!f || *f <= 0.0 || *f > 1.0) {
      return nullptr;
    }
    return std::make_unique<ConstantFractionModel>(*f);
  }
  if (head == "u") {
    auto parts = Split(body, ',');
    if (parts.size() != 2) {
      return nullptr;
    }
    auto lo = ParseField(parts[0]);
    auto hi = ParseField(parts[1]);
    if (!lo || !hi || *lo < 0.0 || *hi <= *lo || *hi > 1.0) {
      return nullptr;
    }
    return std::make_unique<UniformFractionModel>(*lo, *hi);
  }
  if (head == "cold") {
    auto parts = Split(body, ',');
    if (parts.size() != 2) {
      return nullptr;
    }
    auto factor = ParseField(parts[0]);
    auto overrun = ParseInt(parts[1]);
    if (!factor || *factor < 1.0 || !overrun || (*overrun != 0 && *overrun != 1)) {
      return nullptr;
    }
    return std::make_unique<ColdStartModel>(
        std::make_unique<UniformFractionModel>(0.0, 1.0), *factor, *overrun == 1);
  }
  if (head == "t") {
    std::vector<std::vector<double>> table;
    for (const auto& row_text : Split(body, '/')) {
      std::vector<double> row;
      for (const auto& entry : Split(row_text, ',')) {
        auto f = ParseField(entry);
        if (!f || *f <= 0.0) {
          return nullptr;
        }
        row.push_back(*f);
      }
      if (row.empty()) {
        return nullptr;
      }
      table.push_back(std::move(row));
    }
    if (table.empty()) {
      return nullptr;
    }
    return std::make_unique<TableFractionModel>(std::move(table));
  }
  return nullptr;
}

SimOptions FuzzSimOptions(const FuzzCase& c) {
  SimOptions options;
  options.horizon_ms = c.horizon_ms;
  options.idle_level = c.idle_level;
  options.switch_time_ms = c.switch_time_ms;
  options.miss_policy = c.miss_policy;
  options.seed = c.seed;
  options.record_trace = false;
  return options;
}

SimRequest FuzzSimRequest(const FuzzCase& c) {
  SimRequest request;
  request.tasks = FuzzTasks(c);
  request.cluster.num_cores = c.num_cores;
  request.cluster.machine = FuzzMachine(c);
  request.mode = c.mp_mode;
  request.partition = c.mp_partition;
  request.policy_ids = {c.policy_id};
  request.options = FuzzSimOptions(c);
  return request;
}

std::string FuzzCaseToRepro(const FuzzCase& c) {
  std::string out = "rtdvs-fuzz-v1;policy=" + c.policy_id + ";machine=";
  for (size_t i = 0; i < c.machine_points.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += Dbl(c.machine_points[i].frequency);
    out += '/';
    out += Dbl(c.machine_points[i].voltage);
  }
  out += ";tasks=";
  for (size_t i = 0; i < c.tasks.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += Dbl(c.tasks[i].period_ms);
    out += ':';
    out += Dbl(c.tasks[i].wcet_ms);
    out += ':';
    out += Dbl(c.tasks[i].phase_ms);
  }
  out += ";exec=" + c.exec_spec;
  out += ";horizon=" + Dbl(c.horizon_ms);
  out += ";idle=" + Dbl(c.idle_level);
  out += ";switch=" + Dbl(c.switch_time_ms);
  out += std::string(";miss=") +
         (c.miss_policy == MissPolicy::kAbortJob ? "abort" : "late");
  out += ";seed=" + StrFormat("%llu", static_cast<unsigned long long>(c.seed));
  // Multiprocessor fields only when they matter: single-core repro strings
  // stay byte-identical to pre-cluster ones.
  if (c.num_cores > 1) {
    out += ";cores=" + StrFormat("%d", c.num_cores);
    out += std::string(";mode=") + MpModeName(c.mp_mode);
    out += std::string(";fit=") + PartitionHeuristicName(c.mp_partition);
  }
  return out;
}

std::optional<FuzzCase> ParseRepro(const std::string& repro, std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<FuzzCase> {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  auto fields = Split(repro, ';');
  if (fields.empty() || Trim(fields[0]) != "rtdvs-fuzz-v1") {
    return fail("missing rtdvs-fuzz-v1 header");
  }
  FuzzCase c;
  c.machine_points.clear();
  bool saw_tasks = false;
  for (size_t i = 1; i < fields.size(); ++i) {
    const std::string field = std::string(Trim(fields[i]));
    if (field.empty()) {
      continue;
    }
    auto eq = field.find('=');
    if (eq == std::string::npos) {
      return fail("field without '=': " + field);
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "policy") {
      if (!IsValidPolicyId(value)) {
        return fail("unknown policy id: " + value);
      }
      c.policy_id = value;
    } else if (key == "machine") {
      for (const auto& entry : Split(value, ',')) {
        auto parts = Split(entry, '/');
        if (parts.size() != 2) {
          return fail("bad machine point (want f/v): " + entry);
        }
        auto frequency = ParseField(parts[0]);
        auto voltage = ParseField(parts[1]);
        if (!frequency || !voltage) {
          return fail("bad machine point numbers: " + entry);
        }
        c.machine_points.push_back({*frequency, *voltage});
      }
      if (c.machine_points.empty()) {
        return fail("empty machine table");
      }
    } else if (key == "tasks") {
      saw_tasks = true;
      for (const auto& entry : Split(value, ',')) {
        auto parts = Split(entry, ':');
        if (parts.size() != 2 && parts.size() != 3) {
          return fail("bad task (want P:C[:phase]): " + entry);
        }
        auto period = ParseField(parts[0]);
        auto wcet = ParseField(parts[1]);
        std::optional<double> phase = 0.0;
        if (parts.size() == 3) {
          phase = ParseField(parts[2]);
        }
        if (!period || !wcet || !phase) {
          return fail("bad task numbers: " + entry);
        }
        c.tasks.push_back({"", *period, *wcet, *phase});
      }
    } else if (key == "exec") {
      if (MakeFuzzExecModel(value) == nullptr) {
        return fail("bad exec spec: " + value);
      }
      c.exec_spec = value;
    } else if (key == "horizon") {
      auto v = ParseField(value);
      if (!v || *v <= 0.0) {
        return fail("bad horizon: " + value);
      }
      c.horizon_ms = *v;
    } else if (key == "idle") {
      auto v = ParseField(value);
      if (!v || *v < 0.0) {
        return fail("bad idle level: " + value);
      }
      c.idle_level = *v;
    } else if (key == "switch") {
      auto v = ParseField(value);
      if (!v || *v < 0.0) {
        return fail("bad switch time: " + value);
      }
      c.switch_time_ms = *v;
    } else if (key == "miss") {
      if (value == "late") {
        c.miss_policy = MissPolicy::kContinueLate;
      } else if (value == "abort") {
        c.miss_policy = MissPolicy::kAbortJob;
      } else {
        return fail("bad miss policy (want late|abort): " + value);
      }
    } else if (key == "seed") {
      // Full uint64 range (ParseInt is int64-only and generated seeds use
      // all 64 bits).
      if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
        return fail("bad seed: " + value);
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long parsed_seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end != value.c_str() + value.size()) {
        return fail("bad seed: " + value);
      }
      c.seed = static_cast<uint64_t>(parsed_seed);
    } else if (key == "cores") {
      auto v = ParseInt(value);
      if (!v || *v < 1 || *v > 64) {
        return fail("bad cores (want 1..64): " + value);
      }
      c.num_cores = static_cast<int>(*v);
    } else if (key == "mode") {
      auto mode = ParseMpMode(value);
      if (!mode) {
        return fail("bad mode (want partitioned|global): " + value);
      }
      c.mp_mode = *mode;
    } else if (key == "fit") {
      auto fit = ParsePartitionHeuristic(value);
      if (!fit) {
        return fail("bad fit (want ff|nf|bf|wf): " + value);
      }
      c.mp_partition = *fit;
    } else {
      return fail("unknown field: " + key);
    }
  }
  if (!saw_tasks || c.tasks.empty()) {
    return fail("no tasks");
  }
  for (const Task& task : c.tasks) {
    if (task.period_ms <= 0 || task.wcet_ms <= 0 || task.wcet_ms > task.period_ms ||
        task.phase_ms < 0) {
      return fail("invalid task parameters (need 0 < C <= P, phase >= 0)");
    }
  }
  return c;
}

bool FuzzCaseEquals(const FuzzCase& a, const FuzzCase& b) {
  if (a.policy_id != b.policy_id || a.exec_spec != b.exec_spec ||
      a.horizon_ms != b.horizon_ms || a.idle_level != b.idle_level ||
      a.switch_time_ms != b.switch_time_ms || a.miss_policy != b.miss_policy ||
      a.seed != b.seed || a.num_cores != b.num_cores ||
      a.machine_points.size() != b.machine_points.size() ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  // Mode and heuristic are inert at one core; compare them only when they
  // can change behavior (mirroring what the repro string records).
  if (a.num_cores > 1 &&
      (a.mp_mode != b.mp_mode || a.mp_partition != b.mp_partition)) {
    return false;
  }
  for (size_t i = 0; i < a.machine_points.size(); ++i) {
    if (!(a.machine_points[i] == b.machine_points[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].period_ms != b.tasks[i].period_ms ||
        a.tasks[i].wcet_ms != b.tasks[i].wcet_ms ||
        a.tasks[i].phase_ms != b.tasks[i].phase_ms) {
      return false;
    }
  }
  return true;
}

std::vector<OperatingPoint> GenerateMachinePoints(Pcg32& rng, int max_points) {
  RTDVS_CHECK_GE(max_points, 1);
  int num_points = 1 + static_cast<int>(rng.NextBounded(static_cast<uint32_t>(max_points)));
  // Frequencies on a 0.01 grid in [0.05, 0.99], distinct, plus the
  // mandatory 1.0 maximum.
  std::vector<int> centi;
  while (static_cast<int>(centi.size()) < num_points - 1) {
    int f = 5 + static_cast<int>(rng.NextBounded(95));  // 5..99
    bool duplicate = false;
    for (int existing : centi) {
      duplicate = duplicate || existing == f;
    }
    if (!duplicate) {
      centi.push_back(f);
    }
  }
  centi.push_back(100);
  std::sort(centi.begin(), centi.end());
  std::vector<OperatingPoint> points;
  double voltage = std::round(rng.UniformDouble(0.8, 1.6) * 1000.0) / 1000.0;
  for (int f : centi) {
    points.push_back({static_cast<double>(f) / 100.0, voltage});
    voltage += std::round(rng.UniformDouble(0.0, 0.8) * 1000.0) / 1000.0;
  }
  return points;
}

std::vector<Task> GenerateFuzzTasks(Pcg32& rng, int num_tasks,
                                    double target_utilization, bool harmonic,
                                    bool allow_phases) {
  RTDVS_CHECK_GE(num_tasks, 1);
  RTDVS_CHECK_GT(target_utilization, 0.0);
  // UUniFast (Bini & Buttazzo): an unbiased split of the target utilization.
  std::vector<double> utilization(static_cast<size_t>(num_tasks));
  double remaining = target_utilization;
  for (int i = 0; i < num_tasks - 1; ++i) {
    double next = remaining *
                  std::pow(rng.NextDouble(), 1.0 / static_cast<double>(num_tasks - 1 - i));
    utilization[static_cast<size_t>(i)] = remaining - next;
    remaining = next;
  }
  utilization[static_cast<size_t>(num_tasks - 1)] = remaining;

  // Periods: harmonic sets use base * 2^k (so hyperperiods stay short and
  // RM/EDF behave identically on them); non-harmonic draws uniformly from
  // [2, 50] ms on the microsecond grid.
  static const double kHarmonicBases[] = {2.0, 2.5, 4.0, 5.0};
  double base = kHarmonicBases[rng.NextBounded(4)];
  std::vector<Task> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    double period = harmonic
                        ? base * static_cast<double>(1 << rng.NextBounded(4))
                        : SnapMicro(rng.UniformDouble(2.0, 50.0));
    double wcet = SnapMicro(utilization[static_cast<size_t>(i)] * period);
    wcet = std::min(std::max(wcet, 0.001), period);
    double phase = 0.0;
    if (allow_phases && rng.NextDouble() < 0.25) {
      phase = SnapMicro(rng.UniformDouble(0.0, period));
    }
    tasks.push_back({StrFormat("F%d", i + 1), period, wcet, phase});
  }
  return tasks;
}

FuzzCase GenerateFuzzCase(Pcg32& rng, const FuzzGenOptions& options) {
  RTDVS_CHECK_GE(options.min_tasks, 1);
  RTDVS_CHECK_GE(options.max_tasks, options.min_tasks);
  FuzzCase c;
  const std::vector<std::string>& pool =
      options.policy_pool.empty() ? AllPaperPolicyIds() : options.policy_pool;
  c.policy_id = pool[rng.NextBounded(static_cast<uint32_t>(pool.size()))];
  c.machine_points = GenerateMachinePoints(rng, options.max_machine_points);

  int num_tasks = options.min_tasks +
                  static_cast<int>(rng.NextBounded(static_cast<uint32_t>(
                      options.max_tasks - options.min_tasks + 1)));
  double target = rng.UniformDouble(options.min_target_utilization,
                                    options.max_target_utilization);
  bool harmonic = rng.NextDouble() < 0.4;
  c.tasks = GenerateFuzzTasks(rng, num_tasks, target, harmonic, options.allow_phases);

  // Demand model: mostly constants and uniforms; occasionally a cold-start
  // overrun (the §4.3 regime where guarantees are void).
  switch (rng.NextBounded(6)) {
    case 0:
      c.exec_spec = "c:1";
      break;
    case 1:
      c.exec_spec = "c:" + StrFormat("%.17g", rng.UniformDouble(0.1, 1.0));
      break;
    case 2:
      c.exec_spec = "u:0,1";
      break;
    case 3:
      c.exec_spec = "u:0.2,0.8";
      break;
    case 4:
      c.exec_spec = "c:0.5";
      break;
    default:
      c.exec_spec = options.allow_overrun ? "cold:1.5,1" : "cold:1.5,0";
      break;
  }

  double max_period = 0;
  for (const Task& task : c.tasks) {
    max_period = std::max(max_period, task.period_ms + task.phase_ms);
  }
  c.horizon_ms = SnapMicro(std::max(
      rng.UniformDouble(options.min_horizon_ms, options.max_horizon_ms),
      2.2 * max_period));

  static const double kIdleLevels[] = {0.0, 0.0, 0.1, 0.5};
  c.idle_level = kIdleLevels[rng.NextBounded(4)];
  if (options.allow_switch_cost) {
    static const double kSwitchCosts[] = {0.0, 0.0, 0.1, 0.5};
    c.switch_time_ms = kSwitchCosts[rng.NextBounded(4)];
  }
  c.miss_policy = (options.allow_abort_miss && rng.NextDouble() < 0.25)
                      ? MissPolicy::kAbortJob
                      : MissPolicy::kContinueLate;
  c.seed = (static_cast<uint64_t>(rng.NextU32()) << 32) | rng.NextU32();

  // Multiprocessor draws come LAST, and only when the caller opted into a
  // non-trivial core pool: with the default {1} the rng stream is
  // byte-identical to the pre-cluster generator, so historical repro seeds
  // keep reproducing the same cases.
  const bool mp_enabled =
      !(options.core_choices.size() == 1 && options.core_choices[0] == 1);
  if (mp_enabled) {
    RTDVS_CHECK(!options.core_choices.empty());
    c.num_cores = options.core_choices[rng.NextBounded(
        static_cast<uint32_t>(options.core_choices.size()))];
    RTDVS_CHECK_GE(c.num_cores, 1);
    if (c.num_cores > 1) {
      c.mp_mode = rng.NextDouble() < 0.5 ? MpMode::kPartitioned : MpMode::kGlobal;
      static const PartitionHeuristic kHeuristics[] = {
          PartitionHeuristic::kFirstFit, PartitionHeuristic::kNextFit,
          PartitionHeuristic::kBestFit, PartitionHeuristic::kWorstFit};
      c.mp_partition = kHeuristics[rng.NextBounded(4)];
      // Rescale the workload to the cluster: M cores want roughly M times
      // the tasks and utilization (0.9 keeps most partitioned draws
      // feasible while still generating some admission rejections).
      const int scaled_tasks = std::min(num_tasks * c.num_cores, 24);
      const double scaled_target = target * static_cast<double>(c.num_cores) * 0.9;
      c.tasks = GenerateFuzzTasks(rng, scaled_tasks, scaled_target, harmonic,
                                  options.allow_phases);
      double mp_max_period = 0;
      for (const Task& task : c.tasks) {
        mp_max_period = std::max(mp_max_period, task.period_ms + task.phase_ms);
      }
      c.horizon_ms = SnapMicro(std::max(c.horizon_ms, 2.2 * mp_max_period));
    }
  }
  return c;
}

}  // namespace rtdvs
