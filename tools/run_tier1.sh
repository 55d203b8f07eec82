#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite, then run the
# generalization-kernel and model-load benchmarks and leave their JSON
# reports in the build directory (BENCH_generalize.json,
# BENCH_model_load.json). Both are self-gating: bench_model_load asserts the
# loaded model is zero-copy (mapped, frozen stats), a cold-load ceiling, and
# trained/mapped + hot-reload report equivalence;
# bench_generalize_kernel asserts SIMD-tier/scalar tokenizer equivalence,
# a >=2x keys/s floor for the shared-tokenization kernel over the
# per-language loop, and a >=2x SIMD-vs-scalar tokenize floor on
# run-dominated cells. Either failing fails the gate.
# Run from anywhere; exits non-zero on the first failing step.
#
# Opt-in sanitizer mode: SANITIZE=address|undefined|thread builds the
# library and the tests in a separate build-$SANITIZE tree with
# -fsanitize=$SANITIZE (undefined also sets -fno-sanitize-recover=all, so a
# UB report aborts its test). address and undefined run the whole ctest
# suite. thread runs serve_test (DetectionEngine/ShardedPairCache races,
# ModelRegistry reload races), io_test (mmap + serde bounds), model_v2_test
# (ADMODEL2 truncation/bit-flip fuzz), resilience_test, fuzz_test,
# lifecycle_test (budget, health ladder, watchdog), shard_test (concurrent
# shard builds and merges) and net_test including the live server:
# quality_delta_test does not fit in memory under TSan. Races,
# out-of-bounds reads and UB fail the gate deterministically instead of
# flaking. Example:
#
#   SANITIZE=address tools/run_tier1.sh
#
# Opt-in compile-out mode: METRICS=off builds the whole tree with
# -DAUTODETECT_NO_METRICS=ON in a separate build-nometrics tree and runs the
# full test suite there, proving the observability layer compiles out
# cleanly (call sites need no #ifdefs and tests stay green with all-zero
# snapshots):
#
#   METRICS=off tools/run_tier1.sh
#
# Opt-in scalar-tokenizer mode: SIMD=off builds the whole tree with
# -DAUTODETECT_NO_SIMD=ON in a separate build-nosimd tree and runs the full
# test suite plus the golden detection suite there, proving the SSSE3/AVX2
# kernels compile out cleanly and the scalar reference produces identical
# reports (the default build's fuzz_test already proves per-tier run-list
# equality where the CPU supports the kernels):
#
#   SIMD=off tools/run_tier1.sh
#
# Opt-in chaos mode: FAILPOINTS=on builds a separate build-failpoints tree
# with -DAUTODETECT_FAILPOINTS=ON and runs (a) resilience_test, which arms
# failpoints through the API (reload failures, short reads, forced cache
# misses, slow workers), (b) the serve/io/model suites with all failpoints
# disarmed — a chaos build must change nothing until a site is armed — and
# (c) io_test with AD_FAILPOINTS injecting short reads and EINTR, proving
# the buffered read loop recovers byte-exactly:
#
#   FAILPOINTS=on tools/run_tier1.sh
#
# The default build compiles failpoints OUT (AD_FAILPOINT expands to a
# literal `false`); the default leg asserts no failpoint site string leaks
# into the shipped binary.
#
# Opt-in sketch mode: SKETCH=on runs the full suite in the default tree
# (which includes the quality-delta harness pinning sketched-vs-exact
# precision/recall), re-checks exact-mode golden byte-identity on the
# sketch-capable build, and runs the self-gating sketch benchmark, which
# asserts the SKCH section costs <= 10% of the exact DATA bytes, an Estimate
# throughput floor, and the precision-delta bound, leaving BENCH_sketch.json
# in the build directory:
#
#   SKETCH=on tools/run_tier1.sh
#
# Opt-in serving smoke: SERVE=on trains a tiny model, boots
# `autodetect_cli serve` on an ephemeral loopback port (--port 0 +
# --port-file) with memory budgets armed, then drives it black-box with
# serve_smoke: an ADWIRE1 batch, an HTTP/1.1 JSON /detect round-trip, a
# slow-loris probe that the partial-request timeout must shut down, and a
# /metrics scrape that must carry the serve.net.*, serve.mem.* and
# serve.health.* series — finishing with the drain smoke: SIGTERM lands
# mid-batch, every admitted column still reports, new connections are
# refused, and the server exits 0 inside --drain-timeout-ms:
#
#   SERVE=on tools/run_tier1.sh
#
# Combined chaos serving: SERVE=on FAILPOINTS=on boots the chaos build's
# server twice — once with serve.worker.wedge armed (the health ladder must
# flip degraded and recover to healthy, watched from outside via /healthz),
# once with registry.reload.fail armed after the first load under
# --model-watch (three failed reloads in a row must mark the server
# degraded and count serve.breaker.model-reload.open_total, visible in the
# /metrics scrape) — and finishes each with a POST /drain shutdown:
#
#   SERVE=on FAILPOINTS=on tools/run_tier1.sh
#
# Opt-in sharded-training gate: SHARDS=on exercises the map/reduce training
# CLI end to end — four train-shard partitions, merge-stats in scrambled
# order, train --from-stats — and byte-compares the resulting model with a
# one-shot train of the same corpus (the ADSHARD1 determinism contract at
# the artifact level). It then runs the self-gating incremental-retraining
# benchmark, which asserts a delta retrain on a 10%-grown corpus is >=3x
# faster than a full retrain AND byte-identical to it, leaving
# BENCH_train_shards.json in the build directory:
#
#   SHARDS=on tools/run_tier1.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SANITIZE="${SANITIZE:-}"
METRICS="${METRICS:-on}"
FAILPOINTS="${FAILPOINTS:-off}"
SIMD="${SIMD:-on}"
SKETCH="${SKETCH:-off}"
SERVE="${SERVE:-off}"
SHARDS="${SHARDS:-off}"

if [[ "$SIMD" == "off" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-nosimd}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DAUTODETECT_NO_SIMD=ON \
    -DAUTODETECT_BUILD_BENCHMARKS=OFF \
    -DAUTODETECT_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
  # Scalar-only reports must be byte-identical to the SIMD build's golden
  # reports — same fixtures, same expectations.
  "$BUILD_DIR/tests/golden_test"
  echo "tests green with -DAUTODETECT_NO_SIMD=ON (scalar tokenizer)"
  exit 0
fi

if [[ "$METRICS" == "off" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-nometrics}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DAUTODETECT_NO_METRICS=ON \
    -DAUTODETECT_BUILD_BENCHMARKS=OFF \
    -DAUTODETECT_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
  echo "tests green with -DAUTODETECT_NO_METRICS=ON"
  exit 0
fi

if [[ "$FAILPOINTS" == "on" && "$SERVE" == "on" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-failpoints}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DAUTODETECT_FAILPOINTS=ON \
    -DAUTODETECT_BUILD_BENCHMARKS=OFF \
    -DAUTODETECT_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target autodetect_cli serve_smoke
  SERVE_DIR="$(mktemp -d)"
  SERVE_PID=""
  trap '[[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SERVE_DIR"' EXIT
  "$BUILD_DIR/tools/autodetect_cli" train \
    --columns 400 --budget-mb 8 --out "$SERVE_DIR/model.bin"

  # --- Wedged-worker chaos: the first dispatch stalls 400ms, which must
  # trip the 250ms watchdog into degraded and then recover to healthy.
  AD_FAILPOINTS="serve.worker.wedge=once" \
    "$BUILD_DIR/tools/autodetect_cli" serve --model "$SERVE_DIR/model.bin" \
    --port 0 --port-file "$SERVE_DIR/port" --wedge-timeout-ms 250 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/port" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "wedge server died on startup" >&2; exit 1; }
    sleep 0.1
  done
  PORT="$(cat "$SERVE_DIR/port")"
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode wedge --wait-ms 15000
  # POST /drain shutdown: an idle drain must still exit 0 promptly.
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode drain --wait-ms 10000
  wait "$SERVE_PID" || { echo "wedge server exited non-zero after drain" >&2; exit 1; }
  SERVE_PID=""
  rm -f "$SERVE_DIR/port"

  # --- Flapping-reload chaos: the initial load succeeds (skip1), every
  # watcher reload after it fails, and the third failure in a row must
  # count serve.breaker.model-reload.open_total where the scrape can see it.
  AD_FAILPOINTS="registry.reload.fail=skip1" \
    "$BUILD_DIR/tools/autodetect_cli" serve --model "$SERVE_DIR/model.bin" \
    --model-watch --model-poll-ms 50 \
    --port 0 --port-file "$SERVE_DIR/port" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/port" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "flap server died on startup" >&2; exit 1; }
    sleep 0.1
  done
  PORT="$(cat "$SERVE_DIR/port")"
  TRIPPED=""
  for _ in $(seq 1 100); do
    touch "$SERVE_DIR/model.bin"  # new mtime so the watcher keeps reloading
    SCRAPE="$("$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode metrics)"
    if awk '$1 == "autodetect_serve_breaker_model_reload_open_total" && $2 + 0 >= 1 { found = 1 } END { exit !found }' <<<"$SCRAPE"; then
      TRIPPED=1
      break
    fi
    sleep 0.1
  done
  [[ -n "$TRIPPED" ]] || { echo "reload flapping never counted a failure streak" >&2; exit 1; }
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode drain --wait-ms 10000
  wait "$SERVE_PID" || { echo "flap server exited non-zero after drain" >&2; exit 1; }
  SERVE_PID=""
  echo "chaos serving green: wedge -> degraded -> healthy; reload flapping degraded the server; POST /drain exits 0"
  exit 0
fi

if [[ "$FAILPOINTS" == "on" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-failpoints}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DAUTODETECT_FAILPOINTS=ON \
    -DAUTODETECT_BUILD_BENCHMARKS=OFF \
    -DAUTODETECT_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target resilience_test serve_test io_test model_v2_test shard_test
  # The chaos suite proper: arms failpoints via the API per test case.
  "$BUILD_DIR/tests/resilience_test"
  # Disarmed chaos build must behave exactly like the default build.
  "$BUILD_DIR/tests/serve_test"
  "$BUILD_DIR/tests/io_test"
  "$BUILD_DIR/tests/model_v2_test"
  # Checkpoint loading under injected faults: shard_test's failpoint cases
  # arm io.read.short/eintr and serde.read.truncate through the API and
  # require byte-exact recovery or typed IOError — never silent truncation.
  "$BUILD_DIR/tests/shard_test"
  # Env-armed injection: short reads and EINTR on the buffered read path
  # must be absorbed by the retry loop with byte-exact results.
  AD_FAILPOINTS="io.read.short=4x;io.read.eintr=2x" "$BUILD_DIR/tests/io_test"
  echo "chaos suite green with -DAUTODETECT_FAILPOINTS=ON"
  exit 0
fi

if [[ "$SKETCH" == "on" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # Full suite includes quality_delta_test: the sketched sibling of a
  # pinned pipeline must stay within the precision/recall gate and match
  # the committed golden metric table.
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
  # Exact-mode golden reports must stay byte-identical on a sketch-capable
  # build — sketching is strictly opt-in.
  "$BUILD_DIR/tests/golden_test"
  # Self-gating sketch benchmark: SKCH <= 10% of exact DATA bytes,
  # Estimate throughput floor, precision-delta bound.
  "$BUILD_DIR/bench/bench_fig8a_sketch" "$BUILD_DIR/BENCH_sketch.json"
  echo "sketch gate green; report: $BUILD_DIR/BENCH_sketch.json"
  exit 0
fi

if [[ "$SERVE" == "on" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$JOBS" --target autodetect_cli serve_smoke
  SERVE_DIR="$(mktemp -d)"
  SERVE_PID=""
  trap '[[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SERVE_DIR"' EXIT
  # A tiny model is enough: the smoke proves protocol plumbing end to end,
  # not detection quality.
  "$BUILD_DIR/tools/autodetect_cli" train \
    --columns 400 --budget-mb 8 --out "$SERVE_DIR/model.bin"
  "$BUILD_DIR/tools/autodetect_cli" serve --model "$SERVE_DIR/model.bin" \
    --port 0 --port-file "$SERVE_DIR/port" \
    --tenants 'free=2:reject' --partial-timeout-ms 2000 \
    --mem-budget-mb 64 --request-budget-mb 8 --drain-timeout-ms 10000 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/port" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "server died on startup" >&2; exit 1; }
    sleep 0.1
  done
  [[ -s "$SERVE_DIR/port" ]] || { echo "server never wrote its port file" >&2; exit 1; }
  PORT="$(cat "$SERVE_DIR/port")"
  # Black-box protocol smokes, each a hard failure if the contract breaks.
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode wire
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode http
  # The slow-loris probe must be disconnected by the partial-request
  # timeout, not answered and not left hanging.
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode slowloris --wait-ms 10000
  # The scrape must attribute the traffic the smokes just generated and
  # carry the lifecycle series (budget gauges, health ladder state).
  SCRAPE="$("$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode metrics)"
  for metric in autodetect_serve_net_requests_total \
                autodetect_serve_net_http_requests_total \
                autodetect_serve_net_frames_out_total \
                autodetect_serve_net_timeout_closes_total \
                autodetect_serve_mem_inflight_bytes \
                autodetect_serve_mem_peak_bytes \
                autodetect_serve_health_state; do
    grep -q "^$metric " <<<"$SCRAPE" || {
      echo "missing $metric in the /metrics scrape" >&2
      exit 1
    }
  done
  # A healthy idle server must report state 0 (healthy) before the drain.
  awk '$1 == "autodetect_serve_health_state" && $2 + 0 == 0 { found = 1 } END { exit !found }' <<<"$SCRAPE" || {
    echo "/metrics reported a non-healthy state before the drain" >&2
    exit 1
  }
  # Drain smoke: SIGTERM lands while a 16-column batch is in flight; every
  # admitted column must still report, new connections must be refused, and
  # the server must exit 0 inside --drain-timeout-ms.
  "$BUILD_DIR/tools/serve_smoke" --port "$PORT" --mode drain \
    --pid "$SERVE_PID" --wait-ms 10000
  wait "$SERVE_PID" || {
    echo "server exited non-zero after the SIGTERM drain" >&2
    exit 1
  }
  SERVE_PID=""
  echo "serve smoke green: ADWIRE1 + HTTP /detect + slow-loris defense + /metrics + SIGTERM drain with zero dropped columns"
  exit 0
fi

if [[ "$SHARDS" == "on" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
  cmake --build "$BUILD_DIR" -j "$JOBS" --target autodetect_cli bench_train_shards
  SHARD_DIR="$(mktemp -d)"
  trap 'rm -rf "$SHARD_DIR"' EXIT
  CLI="$BUILD_DIR/tools/autodetect_cli"
  # One-shot reference: the exact model the sharded path must reproduce.
  "$CLI" train --columns 600 --budget-mb 16 --out "$SHARD_DIR/oneshot.model"
  # Map phase: four independent partition shards of the same corpus.
  for i in 0 1 2 3; do
    "$CLI" train-shard --columns 600 --shard "$i" --num-shards 4 \
      --out "$SHARD_DIR/part$i.ads"
  done
  # Reduce phase, deliberately out of order: merge order must not matter.
  "$CLI" merge-stats --out "$SHARD_DIR/merged.ads" \
    "$SHARD_DIR/part2.ads" "$SHARD_DIR/part0.ads" \
    "$SHARD_DIR/part3.ads" "$SHARD_DIR/part1.ads"
  "$CLI" train --from-stats "$SHARD_DIR/merged.ads" --budget-mb 16 \
    --out "$SHARD_DIR/sharded.model"
  # The determinism contract, at the artifact level: not equivalent — identical.
  cmp "$SHARD_DIR/oneshot.model" "$SHARD_DIR/sharded.model" || {
    echo "sharded training produced a different model than the one-shot pass" >&2
    exit 1
  }
  # Self-gating incremental-retraining benchmark: >=3x refresh speedup on a
  # 10%-grown corpus with a byte-identical model.
  "$BUILD_DIR/bench/bench_train_shards" "$BUILD_DIR/BENCH_train_shards.json"
  echo "shards gate green: scrambled 4-way merge byte-identical to one-shot;" \
       "report: $BUILD_DIR/BENCH_train_shards.json"
  exit 0
fi

if [[ -n "$SANITIZE" ]]; then
  BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-$SANITIZE}"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
    -DAUTODETECT_SANITIZE="$SANITIZE" \
    -DAUTODETECT_BUILD_BENCHMARKS=OFF \
    -DAUTODETECT_BUILD_EXAMPLES=OFF
  if [[ "$SANITIZE" != thread ]]; then
    cmake --build "$BUILD_DIR" -j "$JOBS"
    (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
    echo "full ctest green under -fsanitize=$SANITIZE"
    exit 0
  fi
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target serve_test io_test model_v2_test resilience_test fuzz_test \
             net_test lifecycle_test shard_test
  "$BUILD_DIR/tests/serve_test"
  "$BUILD_DIR/tests/io_test"
  "$BUILD_DIR/tests/model_v2_test"
  "$BUILD_DIR/tests/resilience_test"
  # fuzz_test drives the SSSE3/AVX2 tokenizer kernels on every tier the host
  # CPU supports (and the interned detect path), so the sanitizer also
  # sweeps the SIMD tail/boundary loads and the interner's probe chains.
  "$BUILD_DIR/tests/fuzz_test"
  # The decode fuzzers (structure-aware frame mutation, hostile HTTP/JSON)
  # and the live loopback server: event loops, dispatch pool, drain and
  # disconnect-as-cancel all run under the sanitizer.
  "$BUILD_DIR/tests/net_test"
  "$BUILD_DIR/tests/lifecycle_test"
  "$BUILD_DIR/tests/shard_test"
  echo "serve_test + io_test + model_v2_test + resilience_test + fuzz_test + net_test + lifecycle_test + shard_test green under -fsanitize=$SANITIZE"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j "$JOBS"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Failpoints must be compiled OUT of the default build: AD_FAILPOINT(name)
# expands to a literal `false`, so no site name may survive as a string in
# the shipped binary (grep -a scans the raw binary).
for site in serve.worker.slow serve.worker.wedge net.accept.fail \
            net.read.oom registry.reload.fail; do
  if grep -aq "$site" "$BUILD_DIR/tools/autodetect_cli"; then
    echo "failpoint site string '$site' leaked into the default build" >&2
    exit 1
  fi
done

# Golden reports, byte-identical through the ADMODEL2 round trip.
"$BUILD_DIR/tests/golden_test"

# Kernel throughput report: per-ISA-tier tokenize bytes/s and kernel keys/s
# vs the per-language loop. Self-gating — exits non-zero if any SIMD tier
# diverges from the scalar reference, the kernel falls under 2x the
# per-language baseline's keys/s, or the SIMD tier falls under 2x scalar
# bytes/s on run-dominated cells.
"$BUILD_DIR/bench/bench_generalize_kernel" "$BUILD_DIR/BENCH_generalize.json"

# Model artifact report: ADMODEL2 cold-load median plus the zero-copy and
# report-equivalence invariants; exits non-zero if the loaded model is not
# mapped with frozen stats, the median load exceeds 0.25 ms, or any
# trained/mapped/hot-reload report differs.
"$BUILD_DIR/bench/bench_model_load" "$BUILD_DIR/BENCH_model_load.json"

echo "tier-1 green; benchmark reports: $BUILD_DIR/BENCH_generalize.json $BUILD_DIR/BENCH_model_load.json"
