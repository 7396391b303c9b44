// Central tolerance policy for simulated time and work arithmetic.
//
// The simulator keeps time in double-precision milliseconds. Periods are
// generated on a 1 microsecond grid (exactly representable), but completion
// times divide remaining work by a frequency, so comparisons at scheduling
// points must tolerate rounding on the order of a few ULPs of the simulated
// horizon. kTimeEpsMs = 1e-9 ms = 1 femtosecond-ish slack at millisecond
// scale: far below any real scheduling quantum yet far above accumulated
// double error for horizons of minutes.
#ifndef SRC_UTIL_TIME_EPS_H_
#define SRC_UTIL_TIME_EPS_H_

#include <cmath>

namespace rtdvs {

inline constexpr double kTimeEpsMs = 1e-9;
// Work is measured in "milliseconds of execution at maximum frequency".
inline constexpr double kWorkEps = 1e-9;

inline bool ApproxEq(double a, double b, double eps = kTimeEpsMs) {
  return std::fabs(a - b) <= eps;
}
inline bool ApproxLe(double a, double b, double eps = kTimeEpsMs) { return a <= b + eps; }

}  // namespace rtdvs

#endif  // SRC_UTIL_TIME_EPS_H_
