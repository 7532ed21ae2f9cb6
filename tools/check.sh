#!/usr/bin/env bash
# tools/check.sh — one-shot verification gate: configure + build with
# warnings-as-errors, run the model linter, run the test suite, and
# (where the clang tools are installed) clang-tidy and a
# non-destructive clang-format conformance pass.
#
# Usage:
#   tools/check.sh [options]
#
# Options:
#   --build-dir DIR    build directory           (default: build-check)
#   --sanitize WHAT    SPECLENS_SANITIZE value: thread | address |
#                      undefined                 (default: none)
#   --jobs N           parallel build/test jobs  (default: nproc)
#   --format           also verify formatting with clang-format
#                      (dry run only; never rewrites files)
#   --tidy             also run clang-tidy over src/
#   --no-metrics       configure with -DSPECLENS_METRICS=OFF (proves
#                      the no-op instrumentation build stays green)
#   --help             this text
#
# clang-tidy and clang-format stages are skipped with a notice when
# the tools are not installed, so the script degrades gracefully on
# gcc-only machines (including this repo's CI fallback).

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-check
SANITIZE=""
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_FORMAT=0
RUN_TIDY=0
METRICS=ON

while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) BUILD_DIR="$2"; shift 2 ;;
      --sanitize) SANITIZE="$2"; shift 2 ;;
      --jobs) JOBS="$2"; shift 2 ;;
      --format) RUN_FORMAT=1; shift ;;
      --tidy) RUN_TIDY=1; shift ;;
      --no-metrics) METRICS=OFF; shift ;;
      --help) sed -n '2,26p' "$0"; exit 0 ;;
      *) echo "check.sh: unknown option: $1" >&2; exit 2 ;;
    esac
done

step() { printf '\n== %s ==\n' "$*"; }

step "configure (${BUILD_DIR}, sanitize='${SANITIZE:-none}', WERROR=ON, METRICS=${METRICS})"
cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DSPECLENS_WERROR=ON \
    -DSPECLENS_VALIDATE=ON \
    -DSPECLENS_METRICS="$METRICS" \
    -DSPECLENS_SANITIZE="$SANITIZE" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

step "build (-j${JOBS})"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "autovectorization report (stats + predictor kernels)"
# Informational, never fatal: recompile the contiguous stats kernels
# and the batched predictor/prewarm kernels with the compiler's
# vectorization report and count the loops it vectorized.  Catches
# silent regressions (a kernel rewritten in a way the autovectorizer
# no longer handles) without pinning the gate to one compiler
# version's judgement.
CXX_BIN="${CXX:-c++}"
VEC_FLAGS=""
if "$CXX_BIN" --version 2>/dev/null | grep -qi clang; then
    VEC_FLAGS="-Rpass=loop-vectorize"
elif "$CXX_BIN" --version 2>/dev/null | grep -qi 'free software'; then
    VEC_FLAGS="-fopt-info-vec-optimized"
fi
if [[ -n "$VEC_FLAGS" ]]; then
    VEC_LOG="$BUILD_DIR/vectorize-report.txt"
    : >"$VEC_LOG"
    for f in src/stats/distance.cpp src/stats/eigen.cpp \
             src/stats/normalize.cpp src/uarch/branch_predictor.cpp \
             src/uarch/prewarm.cpp; do
        "$CXX_BIN" -O3 -std=c++20 -Isrc $VEC_FLAGS -c "$f" \
            -o /dev/null 2>>"$VEC_LOG" || true
    done
    VEC_COUNT="$(grep -ci 'vectorized' "$VEC_LOG" || true)"
    echo "vectorized-loop reports: ${VEC_COUNT} (details: ${VEC_LOG})"
    if [[ "${VEC_COUNT}" -eq 0 ]]; then
        echo "warning: no stats kernel loop vectorized (non-fatal)"
    fi
else
    echo "no recognized compiler vectorization report; skipping"
fi

if [[ "$RUN_FORMAT" -eq 1 ]]; then
    step "clang-format (dry run)"
    if command -v clang-format >/dev/null 2>&1; then
        # --dry-run never touches the tree; nonzero exit on deviation.
        git ls-files '*.cpp' '*.h' | xargs clang-format --dry-run -Werror
        echo "formatting clean"
    else
        echo "clang-format not installed; skipping format check"
    fi
fi

if [[ "$RUN_TIDY" -eq 1 ]]; then
    step "clang-tidy"
    if command -v clang-tidy >/dev/null 2>&1; then
        git ls-files 'src/*.cpp' |
            xargs clang-tidy -p "$BUILD_DIR" --quiet
    else
        echo "clang-tidy not installed; skipping tidy check"
    fi
fi

step "model lint (+ committed BENCH trajectory artifacts)"
"$BUILD_DIR"/tools/speclens lint --instructions 30000 --warmup 8000 \
    --bench .

step "invariant audit"
# The structural prover over live simulator state plus the jobs/salt
# determinism matrix; nonzero exit on any violation or divergence.
"$BUILD_DIR"/tools/speclens audit --instructions 8000 --warmup 2000

step "ctest (-j${JOBS})"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "artifact-store reuse"
# A warm repeat of a campaign over a populated store must execute zero
# simulations and print byte-identical stdout.  Short window: this
# verifies the reuse contract, not the Table I numbers.
STORE_DIR="$BUILD_DIR/check-store"
rm -rf "$STORE_DIR"
"$BUILD_DIR"/bench/table1_characterization --store "$STORE_DIR" \
    --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/store-cold.out" 2>"$BUILD_DIR/store-cold.err"
"$BUILD_DIR"/bench/table1_characterization --store "$STORE_DIR" \
    --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/store-warm.out" 2>"$BUILD_DIR/store-warm.err"
cmp "$BUILD_DIR/store-cold.out" "$BUILD_DIR/store-warm.out"
grep -q 'simulations=0 ' "$BUILD_DIR/store-warm.err"
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$STORE_DIR" \
    >/dev/null
echo "warm run: zero simulations, stdout byte-identical"

step "memory-centric model reuse"
# The memory-centric family (prefetch engines, way prediction, DRAM
# model) must round-trip the store like every other campaign: a warm
# repeat executes zero simulations and prints byte-identical stdout.
MEM_STORE="$BUILD_DIR/memory-store"
rm -rf "$MEM_STORE"
"$BUILD_DIR"/bench/table_memory_centric --store "$MEM_STORE" \
    --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/memory-cold.out" 2>"$BUILD_DIR/memory-cold.err"
"$BUILD_DIR"/bench/table_memory_centric --store "$MEM_STORE" \
    --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/memory-warm.out" 2>"$BUILD_DIR/memory-warm.err"
cmp "$BUILD_DIR/memory-cold.out" "$BUILD_DIR/memory-warm.out"
grep -q 'simulations=0 ' "$BUILD_DIR/memory-warm.err"
# SL026 range-checks the stored memory-centric metrics.
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$MEM_STORE" \
    >/dev/null
rm -rf "$MEM_STORE"
echo "memory-centric: warm zero simulations, stdout byte-identical"

step "bench trajectory (small window)"
# The perf-trajectory runner re-proves warm-store reuse itself (nonzero
# exit when it fails); the stdout facts block must be byte-identical
# between a cold and a warm rerun.  Fused-vs-reference parity is the
# StreamingParity tests' job, run by the ctest step above.
TRAJ_STORE="$BUILD_DIR/traj-store"
rm -rf "$TRAJ_STORE"
"$BUILD_DIR"/tools/speclens bench trajectory --pr 0 \
    --out "$BUILD_DIR/BENCH_check.json" --store "$TRAJ_STORE" \
    --instructions 5000 --warmup 1500 \
    >"$BUILD_DIR/traj-cold.out" 2>/dev/null
"$BUILD_DIR"/tools/speclens bench trajectory --pr 0 \
    --out "$BUILD_DIR/BENCH_check_warm.json" --store "$TRAJ_STORE" \
    --instructions 5000 --warmup 1500 \
    >"$BUILD_DIR/traj-warm.out" 2>/dev/null
cmp "$BUILD_DIR/traj-cold.out" "$BUILD_DIR/traj-warm.out"
grep -q 'store: warm rerun simulations=0 bit-identical: yes' \
    "$BUILD_DIR/traj-warm.out"
rm -rf "$TRAJ_STORE"
echo "trajectory: warm reuse proven, stdout byte-identical"

step "observability"
# `--metrics` must leave stdout untouched (byte-identical to the runs
# above), export a parseable metrics file, and the campaign must leave
# a well-formed run manifest next to the store.
"$BUILD_DIR"/bench/table1_characterization --store "$STORE_DIR" \
    --instructions 20000 --warmup 5000 \
    --metrics "$BUILD_DIR/check-metrics.json" --metrics-format json \
    >"$BUILD_DIR/store-metrics.out" 2>/dev/null
cmp "$BUILD_DIR/store-cold.out" "$BUILD_DIR/store-metrics.out"
if [[ "$METRICS" == ON ]]; then
    grep -q 'core.store.hits' "$BUILD_DIR/check-metrics.json"
fi
"$BUILD_DIR"/tools/speclens campaign manifest --store "$STORE_DIR"
rm -rf "$STORE_DIR" "$BUILD_DIR/check-metrics.json"
echo "metrics on: stdout unchanged, metrics exported, manifest valid"

step "serve smoke"
# The daemon must answer byte-for-byte what the batch CLI prints for
# the same question, keep its threads and address space bounded across
# 300 connections, then drain cleanly on the shutdown op; the
# loadtest must hold response parity across concurrent clients and
# leave a well-formed JSON artifact.
SERVE_STORE="$BUILD_DIR/serve-store"
rm -rf "$SERVE_STORE"
# --jobs 2 fixes the analysis pool's size, so the thread bound below
# (main + 32 connection workers + 2) does not depend on the host.
"$BUILD_DIR"/tools/speclens serve --port 0 --store "$SERVE_STORE" \
    --instructions 5000 --warmup 1500 --jobs 2 \
    >"$BUILD_DIR/serve.out" 2>"$BUILD_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q listening "$BUILD_DIR/serve.out" 2>/dev/null && break
    sleep 0.1
done
SERVE_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$BUILD_DIR/serve.out")"
[[ -n "$SERVE_PORT" ]]
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" \
    characterize 500.perlbench_r 505.mcf_r \
    >"$BUILD_DIR/serve-query.out"
"$BUILD_DIR"/tools/speclens characterize \
    --instructions 5000 --warmup 1500 500.perlbench_r 505.mcf_r \
    >"$BUILD_DIR/serve-batch.out"
cmp "$BUILD_DIR/serve-query.out" "$BUILD_DIR/serve-batch.out"
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" \
    memory 519.lbm_r \
    >"$BUILD_DIR/serve-memory.out"
"$BUILD_DIR"/tools/speclens memory \
    --instructions 5000 --warmup 1500 519.lbm_r \
    >"$BUILD_DIR/memory-batch.out"
cmp "$BUILD_DIR/serve-memory.out" "$BUILD_DIR/memory-batch.out"
# The second subset query is answered from the daemon's memoized
# analysis; both must match the batch CLI.
"$BUILD_DIR"/tools/speclens subset \
    --instructions 5000 --warmup 1500 speed-int 3 \
    >"$BUILD_DIR/subset-batch.out"
for round in 1 2; do
    "$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" \
        subset speed-int 3 >"$BUILD_DIR/serve-subset.out"
    cmp "$BUILD_DIR/serve-subset.out" "$BUILD_DIR/subset-batch.out"
done
# Connections are served by a fixed pool: 300 of them, one after
# another, must leave the daemon's threads and address space bounded.
# 100 connections first let every worker map its allocator arena; a
# thread stack kept per connection would then add 8 MB each.
serve_stats() {
    for _ in $(seq 1 "$1"); do
        "$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" stats \
            >"$BUILD_DIR/serve-stats.out"
    done
}
serve_status() { awk -v key="$1" '$1 == key {print $2}' "/proc/$SERVE_PID/status"; }
serve_stats 100
SERVE_VMSIZE_KB="$(serve_status VmSize:)"
serve_stats 300
grep -q '^connections: live=' "$BUILD_DIR/serve-stats.out"
SERVE_THREADS="$(serve_status Threads:)"
SERVE_VMSIZE_GROWTH_KB=$(($(serve_status VmSize:) - SERVE_VMSIZE_KB))
echo "serve: $SERVE_THREADS threads, VmSize +$SERVE_VMSIZE_GROWTH_KB kB after 300 connections"
[[ "$SERVE_THREADS" -le 40 ]]
[[ "$SERVE_VMSIZE_GROWTH_KB" -lt $((256 * 1024)) ]]
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" shutdown \
    >/dev/null
wait "$SERVE_PID"
grep -q drained "$BUILD_DIR/serve.err"
"$BUILD_DIR"/bench/bench_serve_loadtest --clients 4 --requests 6 \
    --instructions 5000 --warmup 1500 --store "$SERVE_STORE" \
    --out "$BUILD_DIR/serve_loadtest.json" \
    >"$BUILD_DIR/serve-loadtest.out" 2>/dev/null
grep -q 'parity: identical responses across clients: yes' \
    "$BUILD_DIR/serve-loadtest.out"
grep -q '"p99_ns"' "$BUILD_DIR/serve_loadtest.json"
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$SERVE_STORE" \
    >/dev/null
rm -rf "$SERVE_STORE" "$BUILD_DIR/serve_loadtest.json"
echo "serve: daemon answers byte-identical to batch, drain + parity ok"

step "all checks passed"
