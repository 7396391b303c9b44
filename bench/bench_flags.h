// Flag checks shared by the benches that take --tasksets and --sim-ms.
#ifndef BENCH_BENCH_FLAGS_H_
#define BENCH_BENCH_FLAGS_H_

#include <climits>
#include <cstdint>
#include <cstdio>

namespace rtdvs {

// True when --tasksets is in 1..INT_MAX (sweeps keep it in an int) and
// --sim-ms is positive; otherwise prints an `error:` line and returns false,
// so a bench exits 1 instead of aborting or reporting a table of nothing.
inline bool ValidRunCounts(int64_t tasksets, int64_t sim_ms) {
  if (tasksets < 1 || tasksets > INT_MAX) {
    std::fprintf(stderr, "error: --tasksets must be in 1..%d\n", INT_MAX);
    return false;
  }
  if (sim_ms <= 0) {
    std::fprintf(stderr, "error: --sim-ms must be > 0\n");
    return false;
  }
  return true;
}

}  // namespace rtdvs

#endif  // BENCH_BENCH_FLAGS_H_
