#!/usr/bin/env bash
# CI script: plain build + full test suite, the same suite on a Release
# (-O3, -Werror) build and under ASan/UBSan, then the concurrency tests
# (thread pool, parallel sweep harness, bench smokes) under TSan, then
# every bench in --quick mode with
# --json output validated against the rtdvs-bench-v1 schema, then the
# rtdvs-benchdiff perf-regression gate against bench/baselines, then a
# bounded deterministic differential-fuzz campaign (production simulator vs
# the reference oracle; failing repro strings land in build-ci-plain/fuzz/).
#
#   tools/ci.sh              # all stages
#   tools/ci.sh plain        # one: plain | release | asan-ubsan | tsan |
#                            #      bench-json | benchdiff | tidy | fuzz
#   tools/ci.sh refresh-baselines   # regenerate bench/baselines/
#
# RTDVS_NIGHTLY=1 switches the benchdiff stage to full (non-quick) bench
# runs; those diff against the quick baselines as warnings-only (config
# mismatch), producing the nightly trend report artifact.
#
# Each stage builds into its own tree (build-ci-<stage>) so sanitizer flags
# never leak between configurations. ctest labels: tier1 = fast unit suites,
# tier2 = property/stress/sweep suites and bench smokes, threads = anything
# that exercises the thread pool.
set -euo pipefail

cd "$(dirname "$0")/.."

GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

configure_and_build() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$(nproc)"
}

run_ctest() {
  local dir="$1"
  shift
  (cd "$dir" && ctest --output-on-failure -j "$(nproc)" "$@")
}

stage_plain() {
  echo "=== stage: plain build, full test suite ==="
  configure_and_build build-ci-plain
  run_ctest build-ci-plain
}

stage_release() {
  echo "=== stage: Release (-O3) build, warnings as errors, full test suite ==="
  # -O3 runs GCC's deeper flow analysis (e.g. -Wrestrict on inlined string
  # concatenation), which the RelWithDebInfo stages never see.
  configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
  run_ctest build-ci-release
}

stage_asan_ubsan() {
  echo "=== stage: ASan+UBSan build, full test suite ==="
  # _GLIBCXX_ASSERTIONS bounds-checks std::vector::operator[]: ASan misses an
  # out-of-range index that still lands inside the vector's capacity.
  configure_and_build build-ci-asan -DRTDVS_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
  # halt_on_error keeps a leak from being buried mid-log; detect_leaks stays
  # on to catch trace/result buffers that escape the simulator.
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=print_stacktrace=1 \
    run_ctest build-ci-asan
}

stage_tsan() {
  echo "=== stage: TSan build, concurrency tests ==="
  configure_and_build build-ci-tsan -DRTDVS_SANITIZE=thread
  TSAN_OPTIONS=halt_on_error=1 run_ctest build-ci-tsan -L threads
}

stage_bench_json() {
  echo "=== stage: bench --quick --json, schema validation ==="
  configure_and_build build-ci-plain
  local out="build-ci-plain/bench-json"
  mkdir -p "$out"
  # Every bench binary must accept --quick --json=<path> and produce a
  # document that validates as rtdvs-bench-v1. Globbing keeps this in sync
  # with bench/CMakeLists.txt automatically.
  local bench
  for bench in build-ci-plain/bench/bench_*; do
    [[ -f "$bench" && -x "$bench" ]] || continue
    local name
    name="$(basename "$bench")"
    echo "--- $name --quick --json ---"
    "$bench" --quick --json="$out/BENCH_${name#bench_}.json" >/dev/null
  done
  build-ci-plain/tools/rtdvs-json-check "$out"/BENCH_*.json
}

# The regression gate's bench set. ONE list for both the gate and the
# baseline refresh: the configs must match exactly or rtdvs-benchdiff's
# comparability guard downgrades the whole diff to warnings.
# mode: quick (the CI gate and committed baselines) | full (nightly).
run_gate_benches() {
  local builddir="$1" outdir="$2" mode="${3:-quick}"
  mkdir -p "$outdir"
  # --repeat 3 re-times each configuration and reports the best-of run, so
  # the throughput metrics benchdiff gates on are not first-run noise.
  local q=(--repeat 3) sq=(--repeat 3)
  if [[ "$mode" == quick ]]; then
    q=(--quick --repeat 3)
    # --max-jobs 2 keeps the jobs grid {1,2} on every host, so the metric
    # keys are host-independent.
    sq=(--quick --max-jobs 2 --repeat 3)
  fi
  "$builddir"/bench/bench_fig09_num_tasks "${q[@]}" \
    --json="$outdir/BENCH_fig09_num_tasks.json" >/dev/null
  "$builddir"/bench/bench_fig10_idle_level "${q[@]}" \
    --json="$outdir/BENCH_fig10_idle_level.json" >/dev/null
  "$builddir"/bench/bench_fig12_const_fraction "${q[@]}" \
    --json="$outdir/BENCH_fig12_const_fraction.json" >/dev/null
  "$builddir"/bench/bench_mp_scaling "${q[@]}" \
    --json="$outdir/BENCH_mp_scaling.json" >/dev/null
  "$builddir"/bench/bench_scaling_efficiency "${sq[@]}" \
    --json="$outdir/BENCH_scaling_efficiency.json" >/dev/null
  "$builddir"/bench/bench_n_scaling "${q[@]}" \
    --json="$outdir/BENCH_n_scaling.json" >/dev/null
}

stage_benchdiff() {
  echo "=== stage: bench regression gate (rtdvs-benchdiff) ==="
  configure_and_build build-ci-plain
  local out="build-ci-plain/benchdiff"
  local mode=quick
  if [[ "${RTDVS_NIGHTLY:-0}" == 1 ]]; then
    mode=full  # config mismatch vs the quick baselines -> warnings-only diff
  fi
  run_gate_benches build-ci-plain "$out/fresh" "$mode"
  # Deterministic metrics (normalized energy, misses, violations) keep the
  # tight default threshold; wall-clock metrics get wide overrides so a
  # loaded runner does not fail the gate on noise. Exception: fig09
  # throughput is the hot-path headline number, so it gets a tight 10%
  # no-regress band (first matching override wins; the '*' joins ordered
  # substrings, scoping the override to the fig09 bench only). Cross-host
  # runs (any provenance mismatch vs the committed baselines) downgrade to
  # warnings.
  build-ci-plain/tools/rtdvs-benchdiff bench/baselines "$out/fresh" \
    --overrides="fig09*sims_per_sec=0.1,sims_per_sec=0.5,shards_per_sec=0.5,speedup=0.5,efficiency=0.5,_ms=0.6,elapsed=0.6" \
    --md-out="$out/report.md" --json-out="$out/report.json"
  # Self-check (cf. rtdvs-fuzz --inject-bug): the same inputs with a
  # synthetic 2x throughput regression injected MUST fail — proving the
  # gate's exit code actually fires.
  if build-ci-plain/tools/rtdvs-benchdiff "$out/fresh" "$out/fresh" \
      --inject-regression=sims_per_sec=0.5 --quiet >/dev/null; then
    echo "benchdiff self-check FAILED: injected regression not detected" >&2
    exit 1
  fi
  echo "benchdiff self-check passed: injected regression detected"
}

stage_refresh_baselines() {
  echo "=== stage: regenerate bench/baselines (review + commit the result) ==="
  configure_and_build build-ci-plain
  run_gate_benches build-ci-plain bench/baselines quick
  build-ci-plain/tools/rtdvs-json-check bench/baselines/BENCH_*.json
  echo "baselines refreshed; diff and commit bench/baselines/"
}

stage_tidy() {
  echo "=== stage: clang-tidy over src/engine src/sim src/kernel ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping tidy stage"
    return 0
  fi
  configure_and_build build-ci-plain -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  # Checks and per-check tuning live in .clang-tidy at the repo root.
  git ls-files 'src/engine/*.cc' 'src/sim/*.cc' 'src/kernel/*.cc' |
    xargs clang-tidy -p build-ci-plain --quiet
}

stage_fuzz() {
  echo "=== stage: differential fuzz, production vs reference oracle ==="
  configure_and_build build-ci-plain
  local out="build-ci-plain/fuzz"
  mkdir -p "$out"
  # Fixed seed => deterministic campaign; ~30 s wall-clock budget. Exit code
  # 4 (divergence or property violation) fails the stage; the shrunken repro
  # strings in fuzz/repros.txt replay via rtdvs-fuzz --repro=<line>.
  build-ci-plain/tools/rtdvs-fuzz --trials=500 --seed=1 --max-ms=30000 \
    --repro-out="$out/repros.txt"
  # Multiprocessor campaign: every trial draws a 2-, 3- or 4-core cluster
  # (partitioned or global) and diffs the cluster driver against the
  # reference oracle's independent implementation. The odd core count keeps
  # affinity placement covered off powers of two.
  build-ci-plain/tools/rtdvs-fuzz --trials=150 --seed=2 --cores=2,3,4 \
    --max-ms=30000 --repro-out="$out/repros-mp.txt"
  # Large-set campaign: up to 64 tasks per case, the sizes the sweeps and
  # bench_n_scaling run, so long release calendars, deep ready queues and
  # overload backlogs are fuzzed too (the default draws at most 8 tasks).
  build-ci-plain/tools/rtdvs-fuzz --trials=1000 --seed=3 --max-tasks=64 \
    --max-ms=30000 --repro-out="$out/repros-large.txt"
  # Large cluster sets: the MP campaign above rescales its 1..8 tasks by the
  # core count but stops at 24; this one reaches 64 tasks, so the global
  # top-M selection (ReadyQueue::PickTopK) and the context build's backlog
  # fallback meet deep ready queues too.
  build-ci-plain/tools/rtdvs-fuzz --trials=1000 --seed=4 --cores=2,3,4 \
    --max-tasks=64 --max-ms=30000 --repro-out="$out/repros-mp-large.txt"
  # Fixed-speed campaign: the policies that do not observe events
  # (DvsPolicy::observes_events), on 1, 2 and 4 cores and up to 64 tasks. The
  # production loop skips their callback rounds and the oracle does not, so
  # a policy that wrongly claims the trait diverges here. The other
  # campaigns draw only the paper's six, never rm or static_rm_exact.
  build-ci-plain/tools/rtdvs-fuzz --trials=1000 --seed=5 \
    --policies=edf,rm,static_edf,static_rm,static_rm_exact --cores=1,2,4 \
    --max-tasks=64 --max-ms=30000 --repro-out="$out/repros-fixed-speed.txt"
  # Replica campaign: the policies that observe events, on clusters only.
  # In global mode cores whose policies replicate one another
  # (DvsPolicy::IsReplicaOf) run each release and completion callback once
  # per group, while the oracle calls every instance, so a wrong claim
  # diverges here; the policy counters are compared too, so does a follower
  # that miscounts its requests or transitions. interval is timer-driven and
  # never joins a group. The MP campaigns above draw the paper's six, half
  # of which ignore events.
  build-ci-plain/tools/rtdvs-fuzz --trials=1000 --seed=6 \
    --policies=cc_edf,cc_rm,la_edf,interval --cores=2,3,4 \
    --max-tasks=64 --max-ms=30000 --repro-out="$out/repros-replica.txt"
  # Self-check: with a historical bug injected into the reference, the same
  # campaign MUST report a divergence — otherwise the oracle went blind.
  if build-ci-plain/tools/rtdvs-fuzz --trials=150 --seed=7 \
      --inject-bug=idle-switch --no-properties --no-shrink \
      --max-ms=30000 >/dev/null; then
    echo "fuzz self-check FAILED: injected bug was not detected" >&2
    exit 1
  fi
  echo "fuzz self-check passed: injected bug detected"
  # The same on 2-4 core clusters, so the global engine's fault path is
  # checked too (its first divergent case is a global-mode run).
  if build-ci-plain/tools/rtdvs-fuzz --trials=150 --seed=7 --cores=2,3,4 \
      --inject-bug=idle-switch --no-properties --no-shrink \
      --max-ms=30000 >/dev/null; then
    echo "fuzz self-check FAILED: injected bug was not detected on clusters" >&2
    exit 1
  fi
  echo "fuzz self-check passed: injected bug detected on clusters"
}

STAGE="${1:-all}"
case "$STAGE" in
  plain) stage_plain ;;
  release) stage_release ;;
  asan-ubsan) stage_asan_ubsan ;;
  tsan) stage_tsan ;;
  bench-json) stage_bench_json ;;
  benchdiff) stage_benchdiff ;;
  refresh-baselines) stage_refresh_baselines ;;
  tidy) stage_tidy ;;
  fuzz) stage_fuzz ;;
  all)
    stage_plain
    stage_release
    stage_asan_ubsan
    stage_tsan
    stage_bench_json
    stage_benchdiff
    stage_tidy
    stage_fuzz
    ;;
  *)
    echo "usage: tools/ci.sh [plain|release|asan-ubsan|tsan|bench-json|benchdiff|tidy|fuzz|all]" >&2
    echo "       tools/ci.sh refresh-baselines   # regenerate bench/baselines" >&2
    exit 1
    ;;
esac
echo "=== ci: all requested stages passed ==="
