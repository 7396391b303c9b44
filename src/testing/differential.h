// Differential comparison of the production cluster driver
// (src/sim/mp_simulator.cc over src/sim/simulator.cc) against the reference
// oracle (src/sim/reference_sim.cc), plus the metamorphic properties the
// fuzz campaign checks alongside it.
//
// Every FuzzCase takes one path, whatever its core count: FuzzSimRequest(c)
// runs through RunClusterSimulation and RunReferenceClusterSimulation, and
// MpResultsAgree compares the two. A one-core case therefore also exercises
// the one-core cluster wrapper every sweep run goes through: its partition
// report and cluster totals are compared, and its cluster audit runs.
//
// Comparison contract (per slice and for the cluster totals):
//   - event counters (releases, completions, misses, aborts, unfinished,
//     overruns, speed switches, preemptions) must agree exactly;
//   - energies, times and work must agree within 1e-9 absolute plus a tiny
//     relative term (both engines use the same expression grouping, so the
//     slack only absorbs accumulated rounding over long horizons);
//   - per-point residency and per-task stats are compared the same way;
//   - the policy counters' integer fields agree exactly and their sums like
//     the energies (diff fields "counters.<field>").
//
// Metamorphic properties are theorems about the production engine alone;
// each is gated on the preconditions under which it actually is a theorem
// (documented per property in differential.cc) so the fuzzer never reports
// a "violation" of a statement that was false to begin with.
#ifndef SRC_TESTING_DIFFERENTIAL_H_
#define SRC_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "src/sim/reference_sim.h"
#include "src/testing/generators.h"

namespace rtdvs {

// One field that disagreed between the two engines.
struct FieldDiff {
  std::string field;  // e.g. "exec_energy", "task[2].deadline_misses"
  double production = 0;
  double reference = 0;
};

// Fills `diffs` (if non-null) with every disagreeing field; returns true
// when the results agree on the full contract above.
bool ResultsAgree(const SimResult& production, const SimResult& reference,
                  std::vector<FieldDiff>* diffs = nullptr);

// One violated metamorphic property.
struct PropertyViolation {
  std::string property;  // short id, e.g. "energy-lower-bound"
  std::string detail;    // human-readable numbers
};

// Runs whichever of the four properties the case's preconditions admit
// against `base`, the production result of the one-core case `c` itself
// (RunFuzzTrial passes its differential run's only slice, so the case is
// not simulated twice):
//   energy-lower-bound      exec energy >= the §3.2 bound
//   nodvs-vs-static         E(edf) >= E(static_edf) on guaranteed sets
//   task-reorder            totals invariant under reversing the task order
//   grid-refinement         refining the frequency grid never costs energy
std::vector<PropertyViolation> CheckMetamorphicProperties(const FuzzCase& c,
                                                          const SimResult& base);

// Outcome of one full fuzz trial (differential run + optional properties).
struct TrialOutcome {
  bool ok = true;
  std::vector<FieldDiff> diffs;
  std::vector<PropertyViolation> violations;
  // Multi-line human-readable description of everything that failed.
  std::string Describe() const;
};

// Runs the case through RunDifferentialCase (injecting `faults` into the
// reference); when `check_properties` is set and the case has one core, also
// checks the metamorphic properties on the production result. They are
// single-core theorems, so cluster cases are differential-only.
TrialOutcome RunFuzzTrial(const FuzzCase& c, bool check_properties = true,
                          const ReferenceFaults& faults = {});

// Cluster-level agreement: admission verdict, partition assignment,
// migrations and cores_used exactly; the cluster totals and every per-core
// slice under the ResultsAgree contract (fields prefixed "cluster." /
// "core[c]."). Both results must describe the same request.
bool MpResultsAgree(const MpSimResult& production, const MpSimResult& reference,
                    std::vector<FieldDiff>* diffs = nullptr);

// The differential half only, returning both results for inspection:
// production RunClusterSimulation vs the reference cluster oracle on the
// case's SimRequest, any num_cores >= 1.
struct DifferentialRun {
  MpSimResult production;
  MpSimResult reference;
  bool agreed = false;
  std::vector<FieldDiff> diffs;
};
DifferentialRun RunDifferentialCase(const FuzzCase& c,
                                    const ReferenceFaults& faults = {});

}  // namespace rtdvs

#endif  // SRC_TESTING_DIFFERENTIAL_H_
