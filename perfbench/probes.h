// Engine probes: direct timings of the engine components every simulation
// step goes through, on inputs built from the workload's own task sets.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "perfbench/workloads.h"

namespace perfbench {

struct EngineProbes {
  double pick_ns_n15 = 0;           // ReadyQueue::PickTrackedWith, 15 jobs
  double context_build_ns_n5 = 0;   // ContextBuilder::Build, 5 tasks
  double context_build_ns_n15 = 0;  // ContextBuilder::Build, 15 tasks
  double segment_ns = 0;            // ModelEnergyAccountant::Record{Execution,Idle}
  double event_queue_op_ns = 0;     // EventQueue::Push / Pop
};

// Median over several repeats of each probe. Run with the profiler off.
EngineProbes RunEngineProbes(Workload workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
