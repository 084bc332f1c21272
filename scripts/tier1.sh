#!/usr/bin/env bash
# Tier-1 verification: the full build + test sweep, the cm_lint design-rule
# gate, then sanitizer passes — ThreadSanitizer over the concurrency-
# sensitive binaries (the cm_runtime primitives and the sim/experiment
# drivers that fan repetitions out over them) and UBSan over the
# arithmetic-heavy sequence/dsp/cpa tests and the serve wire codec.
#
# Usage: scripts/tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "=== tier-1: build + full test suite ==="
cmake -B build -S . -DCLOCKMARK_WERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "=== tier-1: bench smoke (perf binaries + --json records) ==="
# Optimized-build smoke of the perf-tracking binaries: a minimal
# google-benchmark sweep plus the fig6/stream/acquisition JSON writers,
# so the bench targets and their machine-readable output can't silently
# rot. Thread counts come from the box itself (clamped to >= 1) rather
# than assuming a multi-core host; steps that *measure* parallel scaling
# self-skip below when only one hardware thread exists.
SMOKE_DIR=build/bench_smoke
SMOKE_THREADS="$(nproc)"
[[ "${SMOKE_THREADS}" -ge 1 ]] || SMOKE_THREADS=1
rm -rf "${SMOKE_DIR}"
mkdir -p "${SMOKE_DIR}"
./build/bench/abl_cpa_speed --benchmark_min_time=0.01 \
  --benchmark_filter='BM_Fft/10/30000|BM_NaiveRef/5/120000|BM_Blocked/5/120000|BM_Blocked/10/30000|BM_Folded/5/120000' \
  --json="${SMOKE_DIR}/BENCH_cpa_speed.json" > "${SMOKE_DIR}/cpa_speed.log"
if [[ "${SMOKE_THREADS}" -gt 1 ]]; then
  ./build/bench/abl_cpa_speed --benchmark_min_time=0.01 \
    --benchmark_filter='BM_NaiveParallel/10/30000/2' \
    > "${SMOKE_DIR}/cpa_parallel.log"
else
  echo "bench smoke: 1 hardware thread — skipping parallel-scaling smoke"
fi
# --trials=3: gated timing metrics are best-of-3 minima — a single
# pass on this box swings by tens of percent under neighbouring load,
# which a 25% gate margin cannot absorb.
./build/bench/fig6_repeatability --reps=2 --cycles=20000 --trials=3 \
  --threads="${SMOKE_THREADS}" --out="${SMOKE_DIR}/fig6" \
  --json="${SMOKE_DIR}/BENCH_fig6.json" > "${SMOKE_DIR}/fig6.log"
./build/bench/abl_stream_latency --cycles=32768 --chunk=2048 --trials=3 \
  --threads="${SMOKE_THREADS}" --out="${SMOKE_DIR}/stream" \
  --json="${SMOKE_DIR}/BENCH_stream.json" > "${SMOKE_DIR}/stream.log"
./build/bench/abl_acq_speed --reps=2 --cycles=60000 --trials=3 \
  --out="${SMOKE_DIR}/acq" \
  --json="${SMOKE_DIR}/BENCH_acq.json" > "${SMOKE_DIR}/acq.log"
./build/bench/abl_sync_search --reps=2 --cycles=60000 \
  --threads="${SMOKE_THREADS}" --out="${SMOKE_DIR}/sync" \
  --json="${SMOKE_DIR}/BENCH_sync.json" > "${SMOKE_DIR}/sync.log"
# --threads=1 regardless of the box: the committed BENCH_service.json
# baseline is a single-worker record, and service throughput scales with
# the worker count.
./build/bench/abl_service_load --jobs=12 --tenants=4 --threads=1 \
  --cycles=12000 --out="${SMOKE_DIR}/service" \
  --json="${SMOKE_DIR}/BENCH_service.json" > "${SMOKE_DIR}/service.log"
# The batched-acquisition consumers without a BenchJson record: quick
# runs so the Scenario::run_batch call paths can't silently rot.
./build/bench/abl_noise_sweep --reps=2 --cycles=20000 \
  --out="${SMOKE_DIR}/noise" > "${SMOKE_DIR}/noise.log"
./build/bench/abl_presence_scan --reps=2 --cycles=20000 \
  --threads="${SMOKE_THREADS}" --out="${SMOKE_DIR}/presence" \
  > "${SMOKE_DIR}/presence.log"
for f in BENCH_cpa_speed.json BENCH_fig6.json BENCH_stream.json \
    BENCH_acq.json BENCH_sync.json BENCH_service.json; do
  if [[ ! -s "${SMOKE_DIR}/${f}" ]]; then
    echo "bench smoke: missing or empty ${SMOKE_DIR}/${f}" >&2
    exit 1
  fi
  grep -q '"records"' "${SMOKE_DIR}/${f}" || {
    echo "bench smoke: ${SMOKE_DIR}/${f} has no records" >&2
    exit 1
  }
done

echo "=== tier-1: perf-regression gate ==="
# Compares the smoke-run BenchJson records against the committed
# baselines (recorded with the same flags on the reference box); any
# tracked throughput metric more than 25 % below baseline fails. See
# scripts/perf_gate.py and README "Performance tracking".
scripts/perf_gate.py --baseline bench_results/BENCH_acq.json \
  --current "${SMOKE_DIR}/BENCH_acq.json"
scripts/perf_gate.py --baseline bench_results/BENCH_cpa_speed.json \
  --current "${SMOKE_DIR}/BENCH_cpa_speed.json"
scripts/perf_gate.py --baseline bench_results/BENCH_fig6.json \
  --current "${SMOKE_DIR}/BENCH_fig6.json"
scripts/perf_gate.py --baseline bench_results/BENCH_stream.json \
  --current "${SMOKE_DIR}/BENCH_stream.json"
scripts/perf_gate.py --baseline bench_results/BENCH_sync.json \
  --current "${SMOKE_DIR}/BENCH_sync.json"
scripts/perf_gate.py --baseline bench_results/BENCH_service.json \
  --current "${SMOKE_DIR}/BENCH_service.json"

echo "=== tier-1: detection-service smoke (detect_serve --selftest) ==="
# The daemon comes up on an ephemeral port, a TCP client submits a batch
# chip-I scenario job and a blind-sync job over a desynced CMTRACE2
# file, verifies both verdicts, cancels a third queued job, and asks for
# a clean shutdown — exit 0 only if every step behaved.
./build/examples/detect_serve --selftest > "${SMOKE_DIR}/serve_selftest.log"

echo "=== tier-1: design-rule lint gate (cm_lint) ==="
LINT_DIR=build/lint_smoke
rm -rf "${LINT_DIR}"
mkdir -p "${LINT_DIR}"
# The chip/embedding presets plus the WGC key sweep must lint clean.
./build/examples/lint_design --sweep > "${LINT_DIR}/presets.txt"
./build/examples/lint_design --sweep --json --out="${LINT_DIR}/presets.json"
if [[ ! -s "${LINT_DIR}/presets.json" ]]; then
  echo "lint gate: missing or empty ${LINT_DIR}/presets.json" >&2
  exit 1
fi
grep -q '"schema": "cm-lint-1"' "${LINT_DIR}/presets.json" || {
  echo "lint gate: presets.json lacks the cm-lint-1 schema marker" >&2
  exit 1
}
if grep -q '"severity": "error"' "${LINT_DIR}/presets.json"; then
  echo "lint gate: error-severity finding in the preset designs" >&2
  exit 1
fi
# The stand-alone load-circuit baseline must be rejected (paper Sec. VI).
if ./build/examples/lint_design --designs=load_circuit \
    > "${LINT_DIR}/load_circuit.txt"; then
  echo "lint gate: load-circuit baseline was not rejected" >&2
  exit 1
fi

echo "=== tier-1: SoC clock-description gate (cm_socdesc) ==="
SOC_DIR=build/soc_smoke
rm -rf "${SOC_DIR}"
mkdir -p "${SOC_DIR}"
# The committed multi-domain showcase must parse, elaborate and lint
# clean through the user-description path.
./build/examples/lint_design --soc=examples/socs/multi_domain.yaml \
  > "${SOC_DIR}/showcase.txt"
grep -q 'demo_soc: 0 error(s), 0 warning(s)' "${SOC_DIR}/showcase.txt" || {
  echo "soc gate: showcase description did not lint clean" >&2
  exit 1
}
# 100 generated designs through render -> parse -> elaborate -> lint:
# the clean corpus carries zero errors and zero warnings, and two runs
# from the same seed must agree byte for byte.
./build/examples/soc_lint --count=100 --seed=1 \
  --threads="${SMOKE_THREADS}" > "${SOC_DIR}/corpus.txt"
grep -q '100/100 design(s) ok' "${SOC_DIR}/corpus.txt" || {
  echo "soc gate: clean corpus did not lint clean" >&2
  exit 1
}
./build/examples/soc_lint --count=100 --seed=1 \
  --threads="${SMOKE_THREADS}" > "${SOC_DIR}/corpus2.txt"
cmp -s "${SOC_DIR}/corpus.txt" "${SOC_DIR}/corpus2.txt" || {
  echo "soc gate: corpus sweep is not deterministic from seed 1" >&2
  exit 1
}
# Every planted defect kind must trip its multi-domain rule on every seed.
for pair in "aliased-domain domain-aliasing" \
    "test-bypass test-bypassable-watermark" \
    "glitch-mux glitch-prone-mux" \
    "key-collision cross-domain-collision"; do
  defect="${pair%% *}"
  rule="${pair##* }"
  ./build/examples/soc_lint --count=16 --seed=1 \
    --threads="${SMOKE_THREADS}" --defect="${defect}" \
    > "${SOC_DIR}/defect_${defect}.txt"
  grep -q -- "-> rule ${rule}" "${SOC_DIR}/defect_${defect}.txt" || {
    echo "soc gate: defect ${defect} did not report rule ${rule}" >&2
    exit 1
  }
done

echo "=== tier-1: clang-tidy (skipped when unavailable) ==="
scripts/lint.sh build

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "=== tier-1: sanitizer passes skipped (--skip-tsan) ==="
  exit 0
fi

echo "=== tier-1: TSan pass (runtime + dsp + sim + stream + sync tests) ==="
cmake -B build-tsan -S . -DCLOCKMARK_SANITIZE=thread
cmake --build build-tsan -j --target test_runtime test_dsp test_integration \
  test_stream test_sync test_detect test_serve soc_lint
# The corpus sweep fans designs out over the Executor: run it with more
# workers than the box has cores so TSan sees real interleavings.
./build-tsan/examples/soc_lint --count=16 --seed=1 --threads=4 \
  > build/soc_smoke/tsan_sweep.txt
# Note: -j needs an explicit value here — a bare `-j` would consume the
# following -R as its argument and run the whole (partially built) list.
(cd build-tsan && ctest --output-on-failure -j"$(nproc)" \
  -R '^(ThreadPool|Executor|SeedDerive|ParallelCorrelation|ParallelStudy|Scenario|ScenarioMemo|FftPlan|EndToEnd|OnlineDetector|StreamSession|TraceIo|RotationAccumulator|ChipsAndThreads|Warp|BlindSync|Chips/BlindSyncChips|SyncEngine|Chips/SyncEngineChips|SyncEngineLengths|RotationAccumulatorOracle|Chips/RotationAccumulatorOracle|DetectFacade|DetectFile|EngineCacheLru|ServeQueue|ServeBroker|ServeService|ServeProtocol|ServeLocalClient|ServeHost|BatchAcquireScenario|BatchAcquireSpectrumEngine|BatchAcquireStudy)')

echo "=== tier-1: UBSan pass (sequence + dsp + cpa + socdesc + serve tests) ==="
# -fno-sanitize-recover=all: any triggered check aborts the binary, so a
# plain run is the gate — no log scraping.
cmake -B build-ubsan -S . -DCLOCKMARK_SANITIZE=undefined
cmake --build build-ubsan -j --target test_sequence test_dsp test_cpa \
  test_socdesc test_serve
./build-ubsan/tests/test_sequence
./build-ubsan/tests/test_dsp
./build-ubsan/tests/test_cpa
./build-ubsan/tests/test_socdesc
./build-ubsan/tests/test_serve

echo "=== tier-1: OK ==="
