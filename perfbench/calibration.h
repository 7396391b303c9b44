// Host-speed calibration: a fixed CPU kernel timed between the passes of a
// run, so the end-to-end timings can be divided by how fast the host ran at
// the time.
//
// On a shared VM the same pass of the same seed varies by 15-30 % in CPU
// time from one minute to the next (see perfbench/README.md). The kernel is
// the benchmark's own code and shares nothing with src/: a miniature EDF
// simulation of 16 periodic tasks with an event heap, one small heap
// allocation per job and a linear earliest-deadline scan per event, the
// instruction and allocation mix of a simulator step. A change to the
// program cannot move it, so a speed-up of the program still shows in full.
#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

namespace perfbench {

// Time of one calibration slice on a quiet 4-vCPU Xeon VM (wall and
// per-thread CPU time agree there); a host that runs the slice in exactly
// this time has a host factor of 1.
inline constexpr double kReferenceSliceMs = 110.0;

struct CalibrationSlice {
  double wall_ms = 0;  // until the last thread finished
  double cpu_ms = 0;   // CPU time per thread, averaged over the threads
};

// Runs the fixed kernel once on each of `workers` threads at once.
CalibrationSlice RunCalibrationSlice(int workers);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
