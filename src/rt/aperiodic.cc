#include "src/rt/aperiodic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"
#include "src/util/time_eps.h"

namespace rtdvs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

AperiodicServerState::AperiodicServerState(const AperiodicServerConfig& config,
                                           uint64_t seed)
    : config_(config), rng_(seed) {
  RTDVS_CHECK(config_.kind != ServerKind::kNone);
  RTDVS_CHECK_GT(config_.period_ms, 0.0);
  RTDVS_CHECK_GT(config_.budget_ms, 0.0);
  RTDVS_CHECK_LE(config_.budget_ms, config_.period_ms);
  if (config_.arrivals.fixed_arrivals.empty()) {
    RTDVS_CHECK_GT(config_.arrivals.mean_interarrival_ms, 0.0);
    RTDVS_CHECK_GT(config_.arrivals.mean_service_ms, 0.0);
    RTDVS_CHECK_GE(config_.arrivals.max_service_ms, config_.arrivals.mean_service_ms);
    next_arrival_ms_ = 0;
    ScheduleNextArrival();
  } else {
    for (size_t i = 1; i < config_.arrivals.fixed_arrivals.size(); ++i) {
      RTDVS_CHECK_GE(config_.arrivals.fixed_arrivals[i].arrival_ms,
                     config_.arrivals.fixed_arrivals[i - 1].arrival_ms)
          << "fixed arrivals must be time-ordered";
    }
    next_arrival_ms_ = config_.arrivals.fixed_arrivals.front().arrival_ms;
    RTDVS_CHECK_GE(next_arrival_ms_, 0.0) << "fixed arrivals start at t >= 0";
  }
  budget_remaining_ = config_.budget_ms;
}

void AperiodicServerState::ScheduleNextArrival() {
  // Exponential interarrival: -mean * ln(1 - U), U uniform in [0, 1).
  double u = rng_.NextDouble();
  next_arrival_ms_ += -config_.arrivals.mean_interarrival_ms * std::log1p(-u);
}

void AperiodicServerState::AdmitArrivals(double now_ms) {
  const auto& fixed = config_.arrivals.fixed_arrivals;
  if (!fixed.empty()) {
    while (fixed_index_ < fixed.size() &&
           fixed[fixed_index_].arrival_ms <= now_ms + kTimeEpsMs) {
      AperiodicJob job = fixed[fixed_index_];
      // A request of no servable work would leave a live server job that
      // cannot run.
      RTDVS_CHECK_GT(job.service_work, kWorkEps);
      job.remaining_work = job.service_work;
      queue_.push_back(job);
      ++stats_.arrivals;
      ++fixed_index_;
    }
    next_arrival_ms_ = fixed_index_ < fixed.size() ? fixed[fixed_index_].arrival_ms : kInf;
    return;
  }
  while (next_arrival_ms_ <= now_ms + kTimeEpsMs) {
    AperiodicJob job;
    job.arrival_ms = next_arrival_ms_;
    double u = rng_.NextDouble();
    job.service_work = std::min(-config_.arrivals.mean_service_ms * std::log1p(-u),
                                config_.arrivals.max_service_ms);
    job.service_work = std::max(job.service_work, 1e-6);
    job.remaining_work = job.service_work;
    queue_.push_back(job);
    ++stats_.arrivals;
    ScheduleNextArrival();
  }
}

double AperiodicServerState::ServableWork() const {
  double queued = 0;
  for (const auto& job : queue_) {
    queued += job.remaining_work;
  }
  return std::min(queued, budget_remaining_);
}

void AperiodicServerState::Execute(double work, double segment_end_ms,
                                   double frequency) {
  RTDVS_CHECK_GE(work, 0.0);
  RTDVS_CHECK_LE(work, ServableWork() + kWorkEps);
  RTDVS_CHECK_GT(frequency, 0.0);
  budget_remaining_ = std::max(0.0, budget_remaining_ - work);
  stats_.served_work += work;
  // Drain FIFO; completions are interpolated backwards from segment_end_ms.
  double left = work;
  while (left > kWorkEps && !queue_.empty()) {
    AperiodicJob& head = queue_.front();
    if (head.remaining_work <= left + kWorkEps) {
      left -= head.remaining_work;
      head.remaining_work = 0;
      head.completed = true;
      // The head finished `left` work-units before the segment end.
      head.completion_ms = segment_end_ms - left / frequency;
      double response = head.completion_ms - head.arrival_ms;
      ++stats_.completions;
      stats_.total_response_ms += response;
      stats_.max_response_ms = std::max(stats_.max_response_ms, response);
      queue_.pop_front();
    } else {
      head.remaining_work -= left;
      left = 0;
    }
  }
}

double AperiodicServerState::CbsWake(double now_ms) {
  RTDVS_CHECK(config_.kind == ServerKind::kCbs);
  const double bandwidth = config_.budget_ms / config_.period_ms;
  if (budget_remaining_ >= (cbs_deadline_ms_ - now_ms) * bandwidth) {
    cbs_deadline_ms_ = now_ms + config_.period_ms;
    budget_remaining_ = config_.budget_ms;
  } else if (budget_remaining_ <= kWorkEps) {
    return CbsPostpone();
  }
  return cbs_deadline_ms_;
}

double AperiodicServerState::CbsPostpone() {
  RTDVS_CHECK(config_.kind == ServerKind::kCbs);
  budget_remaining_ = config_.budget_ms;
  cbs_deadline_ms_ += config_.period_ms;
  return cbs_deadline_ms_;
}

void AperiodicServerState::FinalizeStats() {
  stats_.backlog_work = 0;
  for (const auto& job : queue_) {
    stats_.backlog_work += job.remaining_work;
  }
}

}  // namespace rtdvs
