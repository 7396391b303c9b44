#include "src/rt/exec_time_model.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace rtdvs {

ConstantFractionModel::ConstantFractionModel(double fraction) : fraction_(fraction) {
  RTDVS_CHECK_GT(fraction_, 0.0);
  RTDVS_CHECK_LE(fraction_, 1.0);
}

std::string ConstantFractionModel::name() const {
  return StrFormat("const(%.3g)", fraction_);
}

double ConstantFractionModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  (void)task_id;
  (void)invocation;
  (void)rng;
  return fraction_;
}

UniformFractionModel::UniformFractionModel(double lo, double hi) : lo_(lo), hi_(hi) {
  RTDVS_CHECK_GE(lo_, 0.0);
  RTDVS_CHECK_GT(hi_, lo_);
  RTDVS_CHECK_LE(hi_, 1.0);
}

std::string UniformFractionModel::name() const {
  return StrFormat("uniform(%.3g,%.3g)", lo_, hi_);
}

double UniformFractionModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  (void)task_id;
  (void)invocation;
  // Draw in (lo, hi]: 1 - r maps [0,1) onto (0,1].
  return lo_ + (hi_ - lo_) * (1.0 - rng.NextDouble());
}

BimodalFractionModel::BimodalFractionModel(double typical_fraction,
                                           double spike_probability)
    : typical_fraction_(typical_fraction), spike_probability_(spike_probability) {
  RTDVS_CHECK_GT(typical_fraction_, 0.0);
  RTDVS_CHECK_LE(typical_fraction_, 1.0);
  RTDVS_CHECK_GE(spike_probability_, 0.0);
  RTDVS_CHECK_LE(spike_probability_, 1.0);
}

std::string BimodalFractionModel::name() const {
  return StrFormat("bimodal(%.3g,p=%.3g)", typical_fraction_, spike_probability_);
}

double BimodalFractionModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  (void)task_id;
  (void)invocation;
  if (rng.NextDouble() < spike_probability_) {
    return 0.85 + 0.15 * (1.0 - rng.NextDouble());
  }
  return typical_fraction_ * (1.0 - rng.NextDouble());
}

ColdStartModel::ColdStartModel(std::unique_ptr<ExecTimeModel> inner, double cold_factor,
                               bool allow_overrun)
    : inner_(std::move(inner)), cold_factor_(cold_factor), allow_overrun_(allow_overrun) {
  RTDVS_CHECK(inner_ != nullptr);
  RTDVS_CHECK_GE(cold_factor_, 1.0);
}

std::string ColdStartModel::name() const {
  return StrFormat("cold(%.3g,%s)", cold_factor_, inner_->name().c_str());
}

double ColdStartModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  double fraction = inner_->DrawFraction(task_id, invocation, rng);
  if (invocation == 0) {
    fraction *= cold_factor_;
    if (!allow_overrun_) {
      fraction = std::min(fraction, 1.0);
    }
  }
  return fraction;
}

PerTaskModel::PerTaskModel(std::vector<std::unique_ptr<ExecTimeModel>> models)
    : models_(std::move(models)), fallback_(std::make_unique<ConstantFractionModel>(1.0)) {
  for (const auto& model : models_) {
    RTDVS_CHECK(model != nullptr);
  }
}

std::string PerTaskModel::name() const {
  std::string out = "per-task(";
  for (size_t i = 0; i < models_.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += models_[i]->name();
  }
  return out + ")";
}

std::optional<double> PerTaskModel::constant_fraction() const {
  // Constant only when every delegate agrees on one value (the common case
  // is scenario files giving every task const(1)).
  std::optional<double> common = fallback_->constant_fraction();
  if (!common.has_value()) {
    return std::nullopt;
  }
  for (const auto& model : models_) {
    std::optional<double> f = model->constant_fraction();
    if (!f.has_value() || *f != *common) {
      return std::nullopt;
    }
  }
  return common;
}

double PerTaskModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  RTDVS_CHECK_GE(task_id, 0);
  if (static_cast<size_t>(task_id) >= models_.size()) {
    return fallback_->DrawFraction(task_id, invocation, rng);
  }
  return models_[static_cast<size_t>(task_id)]->DrawFraction(task_id, invocation, rng);
}

TableFractionModel::TableFractionModel(std::vector<std::vector<double>> fractions_by_task)
    : fractions_by_task_(std::move(fractions_by_task)) {
  for (const auto& row : fractions_by_task_) {
    RTDVS_CHECK(!row.empty());
    for (double f : row) {
      RTDVS_CHECK_GT(f, 0.0);
      RTDVS_CHECK_LE(f, 1.0);
    }
  }
}

std::string TableFractionModel::name() const { return "table"; }

double TableFractionModel::DrawFraction(int task_id, int64_t invocation, Pcg32& rng) {
  (void)rng;
  RTDVS_CHECK_GE(task_id, 0);
  RTDVS_CHECK_LT(static_cast<size_t>(task_id), fractions_by_task_.size());
  const auto& row = fractions_by_task_[static_cast<size_t>(task_id)];
  size_t index = std::min(static_cast<size_t>(invocation), row.size() - 1);
  return row[index];
}

}  // namespace rtdvs
