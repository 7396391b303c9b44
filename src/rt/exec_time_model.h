// Models of the *actual* computation a task invocation consumes, as a
// fraction of its specified worst case (§3.1: "a constant (e.g. 0.9 ...)
// or a random function (e.g. uniformly-distributed random multiplier for
// each invocation)").
#ifndef SRC_RT_EXEC_TIME_MODEL_H_
#define SRC_RT_EXEC_TIME_MODEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace rtdvs {

class ExecTimeModel {
 public:
  virtual ~ExecTimeModel() = default;
  virtual std::string name() const = 0;

  // Fraction of WCET in (0, 1] required by invocation `invocation` of task
  // `task_id`. May consume randomness from `rng`.
  virtual double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) = 0;

  // When every draw returns the same value regardless of task, invocation
  // and RNG, that value; otherwise nullopt. Hosts cache it once per run to
  // skip the virtual draw on the release hot path — bit-identical because
  // the model's DrawFraction returns exactly this value and consumes no
  // randomness.
  virtual std::optional<double> constant_fraction() const {
    return std::nullopt;
  }

  // No caller in src/; kept because perfbench/ overrides or reads it.
  virtual bool stationary() const { return false; }
};

// Every invocation uses exactly `fraction` of its worst case (Fig 12 uses
// 1.0, 0.9, 0.7 and 0.5).
class ConstantFractionModel : public ExecTimeModel {
 public:
  explicit ConstantFractionModel(double fraction);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;
  std::optional<double> constant_fraction() const override { return fraction_; }

 private:
  double fraction_;
};

// Uniform in (lo, hi]; the paper's Fig 13 uses (0, 1].
class UniformFractionModel : public ExecTimeModel {
 public:
  UniformFractionModel(double lo, double hi);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;

 private:
  double lo_;
  double hi_;
};

// Mostly-short with occasional near-worst-case spikes; models control loops
// that rarely take slow paths (extension used in ablation benches).
class BimodalFractionModel : public ExecTimeModel {
 public:
  // With probability `spike_probability` draw uniform in (0.85, 1.0],
  // otherwise uniform in (0, `typical_fraction`].
  BimodalFractionModel(double typical_fraction, double spike_probability);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;

 private:
  double typical_fraction_;
  double spike_probability_;
};

// Decorator modelling the paper's §4.3 observation 1: the very first
// invocation runs "cold" (cache/TLB/page-fault overheads) and consumes
// `cold_factor` times what the inner model draws, capped at 1.0 of WCET by
// default (set allow_overrun to let it exceed the bound like the real
// prototype did).
class ColdStartModel : public ExecTimeModel {
 public:
  ColdStartModel(std::unique_ptr<ExecTimeModel> inner, double cold_factor,
                 bool allow_overrun = false);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;

 private:
  std::unique_ptr<ExecTimeModel> inner_;
  double cold_factor_;
  bool allow_overrun_;
};

// Dispatches to a different model per task id (used by the scenario-file
// front end, where each task declares its own behaviour).
class PerTaskModel : public ExecTimeModel {
 public:
  explicit PerTaskModel(std::vector<std::unique_ptr<ExecTimeModel>> models);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;
  // Constant only when every delegate (and the fallback) agrees on one
  // value.
  std::optional<double> constant_fraction() const override;

 private:
  std::vector<std::unique_ptr<ExecTimeModel>> models_;
  // Tasks beyond the configured list (e.g. an auto-appended server task)
  // always take their worst case.
  std::unique_ptr<ExecTimeModel> fallback_;
};

// Fixed per-task, per-invocation table; used by the golden tests to replay
// Table 3 of the paper exactly. Entries are fractions of WCET; invocations
// beyond the table repeat the last column.
class TableFractionModel : public ExecTimeModel {
 public:
  explicit TableFractionModel(std::vector<std::vector<double>> fractions_by_task);
  std::string name() const override;
  double DrawFraction(int task_id, int64_t invocation, Pcg32& rng) override;

 private:
  std::vector<std::vector<double>> fractions_by_task_;
};

}  // namespace rtdvs

#endif  // SRC_RT_EXEC_TIME_MODEL_H_
