#include "src/core/scenario.h"

#include <fstream>
#include <optional>
#include <sstream>

#include "src/cpu/machine_spec.h"
#include "src/dvs/policy.h"
#include "src/util/strings.h"

namespace rtdvs {

namespace {

std::vector<std::string> Fields(std::string_view line) {
  std::vector<std::string> fields;
  for (auto& field : Split(std::string(line), ' ')) {
    if (!field.empty()) {
      fields.push_back(field);
    }
  }
  return fields;
}

std::string Error(int line_number, const std::string& message) {
  return StrFormat("line %d: %s", line_number, message.c_str());
}

}  // namespace

std::unique_ptr<ExecTimeModel> MakeDemandModel(std::string_view spec) {
  std::string text(Trim(spec));
  if (text.empty()) {
    return std::make_unique<ConstantFractionModel>(1.0);
  }
  if (text == "uniform") {
    return std::make_unique<UniformFractionModel>(0.0, 1.0);
  }
  size_t eq = text.find('=');
  std::string key = text.substr(0, eq == std::string::npos ? text.size() : eq);
  std::string value = eq == std::string::npos ? "" : text.substr(eq + 1);
  if (key == "c") {
    auto fraction = ParseDouble(value);
    if (!fraction || *fraction <= 0 || *fraction > 1) {
      return nullptr;
    }
    return std::make_unique<ConstantFractionModel>(*fraction);
  }
  if (key == "uniform") {
    auto parts = Split(value, ',');
    if (parts.size() != 2) {
      return nullptr;
    }
    auto lo = ParseDouble(parts[0]);
    auto hi = ParseDouble(parts[1]);
    if (!lo || !hi || *lo < 0 || *hi <= *lo || *hi > 1) {
      return nullptr;
    }
    return std::make_unique<UniformFractionModel>(*lo, *hi);
  }
  if (key == "bimodal") {
    auto parts = Split(value, ',');
    if (parts.size() != 2) {
      return nullptr;
    }
    auto typical = ParseDouble(parts[0]);
    auto probability = ParseDouble(parts[1]);
    if (!typical || !probability || *typical <= 0 || *typical > 1 ||
        *probability < 0 || *probability > 1) {
      return nullptr;
    }
    return std::make_unique<BimodalFractionModel>(*typical, *probability);
  }
  if (key == "cold") {
    auto factor = ParseDouble(value);
    if (!factor || *factor < 1) {
      return nullptr;
    }
    return std::make_unique<ColdStartModel>(
        std::make_unique<ConstantFractionModel>(1.0), *factor);
  }
  return nullptr;
}

SimRequest Scenario::ToSimRequest(const SimOptions& options) const {
  SimRequest request;
  request.tasks = tasks;
  request.cluster.num_cores = num_cores;
  request.cluster.machine = machine;
  request.mode = mp_mode;
  request.partition = mp_partition;
  if (!policy_ids.empty()) {
    request.policy_ids = policy_ids;
  }
  request.options = options;
  request.options.aperiodic = server;
  return request;
}

std::unique_ptr<ExecTimeModel> Scenario::MakeExecModel() const {
  std::vector<std::unique_ptr<ExecTimeModel>> models;
  models.reserve(demand_specs.size());
  for (const auto& spec : demand_specs) {
    auto model = MakeDemandModel(spec);
    if (model == nullptr) {
      model = std::make_unique<ConstantFractionModel>(1.0);
    }
    models.push_back(std::move(model));
  }
  return std::make_unique<PerTaskModel>(std::move(models));
}

std::variant<Scenario, std::string> ParseScenario(std::string_view text) {
  Scenario scenario;
  int line_number = 0;
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    std::string_view line(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    auto fields = Fields(Trim(line));
    if (fields.empty()) {
      continue;
    }
    const std::string& keyword = fields[0];

    if (keyword == "machine") {
      if (fields.size() != 2) {
        return Error(line_number, "machine takes exactly one argument");
      }
      std::optional<MachineSpec> machine = MachineSpec::FindByName(fields[1]);
      if (!machine) {
        return Error(line_number, "unknown machine '" + fields[1] + "' (" +
                                      kMachineNames + ")");
      }
      scenario.machine = *machine;
      continue;
    }

    if (keyword == "task") {
      if (fields.size() < 4 || fields.size() > 5) {
        return Error(line_number,
                     "task needs: task <name> <period_ms> <wcet_ms> [demand]");
      }
      auto period = ParseDouble(fields[2]);
      auto wcet = ParseDouble(fields[3]);
      if (!period || !wcet || *period <= 0 || *wcet <= 0 || *wcet > *period) {
        return Error(line_number, "invalid period/wcet (need 0 < wcet <= period)");
      }
      std::string demand = fields.size() == 5 ? fields[4] : "";
      if (MakeDemandModel(demand) == nullptr) {
        return Error(line_number, "invalid demand spec '" + demand + "'");
      }
      scenario.tasks.AddTask({fields[1], *period, *wcet, 0.0});
      scenario.demand_specs.push_back(demand);
      continue;
    }

    if (keyword == "server") {
      if (fields.size() < 4) {
        return Error(line_number,
                     "server needs: server <kind> <period_ms> <budget_ms> [...]");
      }
      if (fields[1] == "polling") {
        scenario.server.kind = ServerKind::kPolling;
      } else if (fields[1] == "cbs") {
        scenario.server.kind = ServerKind::kCbs;
      } else {
        return Error(line_number,
                     "unknown server kind '" + fields[1] + "' (polling|cbs)");
      }
      auto period = ParseDouble(fields[2]);
      auto budget = ParseDouble(fields[3]);
      if (!period || !budget || *period <= 0 || *budget <= 0 || *budget > *period) {
        return Error(line_number, "invalid server period/budget");
      }
      scenario.server.period_ms = *period;
      scenario.server.budget_ms = *budget;
      for (size_t i = 4; i < fields.size(); ++i) {
        size_t eq = fields[i].find('=');
        if (eq == std::string::npos) {
          return Error(line_number, "expected key=value, got '" + fields[i] + "'");
        }
        std::string key = fields[i].substr(0, eq);
        auto value = ParseDouble(fields[i].substr(eq + 1));
        if (!value || *value <= 0) {
          return Error(line_number, "invalid value in '" + fields[i] + "'");
        }
        if (key == "interarrival") {
          scenario.server.arrivals.mean_interarrival_ms = *value;
        } else if (key == "service") {
          scenario.server.arrivals.mean_service_ms = *value;
        } else if (key == "maxservice") {
          scenario.server.arrivals.max_service_ms = *value;
        } else {
          return Error(line_number, "unknown server option '" + key + "'");
        }
      }
      if (scenario.server.arrivals.max_service_ms <
          scenario.server.arrivals.mean_service_ms) {
        return Error(line_number, "maxservice must be >= service");
      }
      continue;
    }

    if (keyword == "cluster") {
      if (fields.size() < 2 || fields.size() > 4) {
        return Error(line_number,
                     "cluster needs: cluster <num_cores> "
                     "[mode=partitioned|global] [fit=ff|nf|bf|wf]");
      }
      auto cores = ParseInt(fields[1]);
      if (!cores || *cores < 1 || *cores > 64) {
        return Error(line_number, "cluster cores must be an integer in 1..64");
      }
      scenario.num_cores = static_cast<int>(*cores);
      for (size_t i = 2; i < fields.size(); ++i) {
        size_t eq = fields[i].find('=');
        if (eq == std::string::npos) {
          return Error(line_number, "expected key=value, got '" + fields[i] + "'");
        }
        std::string key = fields[i].substr(0, eq);
        std::string value = fields[i].substr(eq + 1);
        if (key == "mode") {
          auto mode = ParseMpMode(value);
          if (!mode) {
            return Error(line_number,
                         "unknown mode '" + value + "' (partitioned|global)");
          }
          scenario.mp_mode = *mode;
        } else if (key == "fit") {
          auto fit = ParsePartitionHeuristic(value);
          if (!fit) {
            return Error(line_number,
                         "unknown fit '" + value + "' (ff|nf|bf|wf)");
          }
          scenario.mp_partition = *fit;
        } else {
          return Error(line_number, "unknown cluster option '" + key + "'");
        }
      }
      continue;
    }

    if (keyword == "policies") {
      if (fields.size() < 2) {
        return Error(line_number, "policies needs: policies <id> [<id> ...]");
      }
      scenario.policy_ids.assign(fields.begin() + 1, fields.end());
      for (const std::string& id : scenario.policy_ids) {
        if (!IsValidPolicyId(id)) {
          return Error(line_number, "unknown policy id '" + id + "'");
        }
      }
      continue;
    }

    return Error(line_number, "unknown keyword '" + keyword + "'");
  }

  if (scenario.tasks.empty()) {
    return std::string("scenario declares no tasks");
  }
  if (scenario.policy_ids.size() > 1 &&
      scenario.policy_ids.size() != static_cast<size_t>(scenario.num_cores)) {
    return StrFormat(
        "policies declares %zu ids for %d cores (need one for every core, or "
        "exactly one applied to all)",
        scenario.policy_ids.size(), scenario.num_cores);
  }
  if (scenario.server.kind != ServerKind::kNone && scenario.num_cores > 1) {
    return std::string(
        "aperiodic servers require a single-core scenario (cluster 1)");
  }
  return scenario;
}

std::variant<Scenario, std::string> LoadScenarioFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return "cannot open scenario file: " + path;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseScenario(buffer.str());
}

}  // namespace rtdvs
