#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite — once
# normally, once with ADAMGNN_ISA=scalar forcing the portable kernel
# variant, once under ThreadSanitizer with the kernel pool forced to four
# threads, once under AddressSanitizer, and a UBSan pass over the kernel
# suites — then smoke-test the trainer CLI with --threads=4 including a
# checkpoint/resume round trip, and drill the serving path under injected
# deadlines and allocation faults. The last two legs soak the hot-swap
# machinery: a deterministic seeded chaos run under ASan and TSan, and a
# live serve-loop drilled through reload, rollback, and SIGTERM drain.
# The final legs run two repo benchmark workloads: serve_fresh, whose
# responses must match a fresh session bitwise, and traced train_sbm, whose
# trajectory must match the untraced trainer's bitwise.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> normal build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "==> full ctest with the kernel backend forced to scalar"
# Same binaries, different dispatch: ADAMGNN_ISA=scalar pins every kernel to
# the portable variant, so the whole suite re-proves itself without AVX2 —
# the leg that catches vector-width assumptions hiding in tests.
ADAMGNN_ISA=scalar ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "==> UBSan build + kernel-suite ctest"
# UndefinedBehaviorSanitizer over the suites that drive the per-ISA SIMD
# variants (alignment, pointer arithmetic in the packed GEMM panels, lane
# tails), the containers they lean on, and the CSR-native sparse builders
# (hand-written row offsets; the assignment suite holds the bitwise
# S_kᵀ Â S_k check), and util::WordHash (128-bit multiplies and misaligned
# word reads, driven by the util_misc and inference_session suites).
cmake -B build-ubsan -S . -DADAMGNN_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "${JOBS}"
ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}" \
    -R 'isa|kernels|sparse_matrix|autograd_sparse|matrix|workspace|thread_pool|assignment|inference_session|util_misc'

echo "==> bench smoke (small shapes; exercises the bitwise gates)"
# The benches run their comparison passes at toy sizes: the epoch bench
# fails nonzero if metrics on/off or another thread count changes the loss
# trajectory by even one bit, the kernel bench fails its bitwise columns if
# a sparse kernel ever disagrees with its naive serial loop, and the
# inference bench fails if a result-cache hit differs from an uncached run.
# JSON goes to /tmp — the committed BENCH_*.json files are only
# regenerated by full-size runs.
./build/bench/bench_epoch --smoke --json=/tmp/adamgnn_bench_epoch_smoke.json
./build/bench/bench_micro_kernels --smoke \
    --json=/tmp/adamgnn_bench_kernels_smoke.json \
    --benchmark_filter=NOTHING_MATCHES
./build/bench/bench_inference --smoke \
    --json=/tmp/adamgnn_bench_inference_smoke.json
rm -f /tmp/adamgnn_bench_epoch_smoke.json \
    /tmp/adamgnn_bench_kernels_smoke.json \
    /tmp/adamgnn_bench_inference_smoke.json

# The TSan ctest leg below exercises the engine's concurrency surface:
# sparse_matrix_test's ConcurrentFirstUseBuildsTheViewOnce races four
# threads through the transposed-view once-init, the threading suites
# drive the parallel gather kernels on a 4-thread pool, and
# serve_test's ConcurrentServesWithCancellationAreSafe races eight client
# threads against an external canceller through the admission gate —
# the required TSan coverage for cooperative cancellation — and
# ConcurrentServesAreBitwiseIdenticalPerRequest checks that four concurrent
# clients still get responses bitwise-equal to a bare session.
echo "==> TSan build + ctest (ADAMGNN_NUM_THREADS=4)"
cmake -B build-tsan -S . -DADAMGNN_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
ADAMGNN_NUM_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
    -j "${JOBS}"

echo "==> ASan build + ctest"
cmake -B build-asan -S . -DADAMGNN_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "==> trainer smoke test (--threads=4)"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --epochs=5 --threads=4

echo "==> trainer checkpoint/resume smoke test (nc and lp)"
# Both tasks run the one training loop; resuming through the CLI must pick
# up at the saved epoch for each.
for TASK in nc lp; do
  CKPT="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.ckpt)"
  ./build/tools/adamgnn_train --task="${TASK}" --synthetic=cora --scale=0.1 \
      --epochs=3 --threads=4 --checkpoint="${CKPT}" --checkpoint-every=1
  RESUME_OUT="$(./build/tools/adamgnn_train --task="${TASK}" \
      --synthetic=cora --scale=0.1 --epochs=6 --threads=4 \
      --checkpoint="${CKPT}" --resume)"
  echo "${RESUME_OUT}"
  grep -q "resumed from epoch 3" <<<"${RESUME_OUT}"
  rm -f "${CKPT}"
done

echo "==> metrics pipeline smoke test (--metrics-out JSONL schema)"
# Train three epochs with metrics enabled and validate every JSONL line —
# epoch timings, phase breakdown, pool and workspace stats — then do the
# same for the inference side (request latency histogram, plan-cache
# hit/miss accounting).
METRICS="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.metrics.jsonl)"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --epochs=3 --threads=4 --metrics-out="${METRICS}"
./build/tools/check_metrics --mode=train --file="${METRICS}"
MODEL2="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.model)"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --epochs=3 --threads=4 --save="${MODEL2}"
./build/tools/adamgnn_infer --task=nc --synthetic=cora --scale=0.1 \
    --threads=4 --load="${MODEL2}" --repeat=3 --metrics-out="${METRICS}"
./build/tools/check_metrics --mode=infer --file="${METRICS}"
rm -f "${METRICS}" "${MODEL2}"

echo "==> flag parsing rejects malformed values"
# std::atoi would have silently read --epochs=abc as 0; the checked parser
# must refuse it, loudly, with a nonzero exit.
if ./build/tools/adamgnn_train --task=nc --synthetic=cora --epochs=abc \
    2>/tmp/adamgnn_flag_err.txt; then
  echo "FAIL: --epochs=abc was accepted" >&2
  exit 1
fi
grep -q 'invalid value for --epochs' /tmp/adamgnn_flag_err.txt
# The benches parse their flags and env overrides the same way: exit 2.
BENCH_RC=0
./build/bench/bench_epoch --nodes=abc 2>/tmp/adamgnn_flag_err.txt ||
  BENCH_RC=$?
[[ "${BENCH_RC}" == 2 ]] || { echo "FAIL: bench --nodes=abc exit ${BENCH_RC}" >&2; exit 1; }
grep -q 'invalid value for --nodes' /tmp/adamgnn_flag_err.txt
# An ISA name that is not a tier, such as sse2, is a malformed value too.
BENCH_RC=0
./build/bench/bench_epoch --isa=sse2 2>/tmp/adamgnn_flag_err.txt ||
  BENCH_RC=$?
[[ "${BENCH_RC}" == 2 ]] || { echo "FAIL: bench --isa=sse2 exit ${BENCH_RC}" >&2; exit 1; }
grep -q -- '--isa must be scalar|avx2' /tmp/adamgnn_flag_err.txt
BENCH_RC=0
ADAMGNN_BENCH_SEEDS=abc ./build/bench/bench_table4_running_time \
    2>/tmp/adamgnn_flag_err.txt || BENCH_RC=$?
[[ "${BENCH_RC}" == 2 ]] || { echo "FAIL: ADAMGNN_BENCH_SEEDS=abc exit ${BENCH_RC}" >&2; exit 1; }
grep -q 'invalid value for ADAMGNN_BENCH_SEEDS' /tmp/adamgnn_flag_err.txt
BENCH_RC=0
./build/bench/bench_inference --bogus 2>/tmp/adamgnn_flag_err.txt ||
  BENCH_RC=$?
[[ "${BENCH_RC}" == 2 ]] || { echo "FAIL: bench_inference --bogus exit ${BENCH_RC}" >&2; exit 1; }
grep -q 'unknown flag --bogus' /tmp/adamgnn_flag_err.txt
rm -f /tmp/adamgnn_flag_err.txt

echo "==> compile-out build (ADAMGNN_OBS=OFF)"
# With observability compiled out the CLIs must still run, and the metrics
# file must degrade to a single compiled:false meta line.
cmake -B build-noobs -S . -DADAMGNN_OBS=OFF >/dev/null
cmake --build build-noobs -j "${JOBS}" --target adamgnn_train check_metrics
METRICS_OFF="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.noobs.jsonl)"
./build-noobs/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --epochs=2 --threads=4 --metrics-out="${METRICS_OFF}"
./build-noobs/tools/check_metrics --mode=off --file="${METRICS_OFF}"
rm -f "${METRICS_OFF}"

echo "==> serving resilience drills (deadline, allocation faults, bad input)"
# The serving path must fail CLOSED: an expired deadline or injected
# allocation storm exits 4 with a clean status line, corrupt input exits 3,
# and none of them may crash. A bounded fault window must be absorbed by
# the retry path (exit 0, attempts=2 on stderr).
DRILL_MODEL="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.drill.model)"
DRILL_ERR="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.drill.err)"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --epochs=2 --threads=4 --save="${DRILL_MODEL}"
run_drill() { # expected_exit_code, then the infer args
  local want="$1"; shift
  local got=0
  ./build/tools/adamgnn_infer --load="${DRILL_MODEL}" "$@" \
      2>"${DRILL_ERR}" >/dev/null || got=$?
  if [[ "${got}" != "${want}" ]]; then
    echo "FAIL: expected exit ${want}, got ${got} for: $*" >&2
    cat "${DRILL_ERR}" >&2
    exit 1
  fi
}
# Already-expired deadline: aborts during plan construction, exit 4.
run_drill 4 --task=nc --synthetic=cora --scale=0.1 --threads=4 --timeout-ms=0
# Injected deadline clock fires mid-request: still a clean exit 4.
run_drill 4 --task=nc --synthetic=cora --scale=0.1 --threads=4 \
    --timeout-ms=60000 --inject-deadline-at-check=5
# Unbounded allocation-fault storm: retries and degradation cannot save it,
# but it must fail gracefully (exit 4), never crash.
run_drill 4 --task=nc --synthetic=cora --scale=0.1 --threads=4 \
    --inject-alloc-fault-at=1 --inject-alloc-fault-count=1000000000
# Bounded fault window: the retry absorbs it and serves at full fidelity.
run_drill 0 --task=nc --synthetic=cora --scale=0.1 --threads=4 \
    --inject-alloc-fault-at=2 --inject-alloc-fault-count=1 --max-retries=1
grep -q "attempts=2" "${DRILL_ERR}"
# Corrupt input (NaN feature) is an ingestion error: exit 3.
DRILL_EDGES="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.drill.edges)"
DRILL_FEATS="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.drill.feats)"
printf '0 1\n1 2\n' >"${DRILL_EDGES}"
printf '1.0 2.0\nnan 4.0\n5.0 6.0\n' >"${DRILL_FEATS}"
run_drill 3 --task=nc --classes=7 --edges="${DRILL_EDGES}" \
    --features="${DRILL_FEATS}"
# So is a NaN edge weight: rejected at the parse boundary, not served.
printf '1.0 2.0\n3.0 4.0\n5.0 6.0\n' >"${DRILL_FEATS}"
printf '0 1 1.0\n1 2 nan\n' >"${DRILL_EDGES}"
run_drill 3 --task=nc --classes=7 --edges="${DRILL_EDGES}" \
    --features="${DRILL_FEATS}"
rm -f "${DRILL_MODEL}" "${DRILL_ERR}" "${DRILL_EDGES}" "${DRILL_FEATS}"

echo "==> train -> checkpoint -> infer parity smoke test (ASan)"
# Train, save frozen weights and the trainer's own eval predictions, then
# serve the checkpoint through adamgnn_infer; the tape-free session must
# reproduce the trainer's eval predictions byte for byte.
MODEL="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.model)"
TRAIN_PRED="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.train.tsv)"
INFER_PRED="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.infer.tsv)"
./build-asan/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.1 \
    --seed=1 --epochs=5 --threads=4 --save="${MODEL}" \
    --dump-predictions="${TRAIN_PRED}"
./build-asan/tools/adamgnn_infer --task=nc --synthetic=cora --scale=0.1 \
    --seed=1 --threads=4 --load="${MODEL}" --output="${INFER_PRED}" \
    --repeat=3
diff "${TRAIN_PRED}" "${INFER_PRED}"
rm -f "${MODEL}" "${TRAIN_PRED}" "${INFER_PRED}"

echo "==> chaos soak (seeded hot-swap/drain/fault storm; ASan then TSan)"
# 200 deterministic seeded iterations of mixed traffic, live reloads, bad
# checkpoints (corrupt/truncated/torn/NaN), rollbacks, deadline and
# allocation storms, watchdog sweeps, and full drain cycles. The soak exits
# nonzero on any invariant break — a blended response, a dropped in-flight
# request, a bad checkpoint accepted — and both sanitizers watch the whole
# swap machinery while it churns.
CHAOS_DIR="$(mktemp -d /tmp/adamgnn_chaos.XXXXXX)"
./build-asan/tools/chaos_soak --iters=200 --seed=7 --dir="${CHAOS_DIR}/asan"
ADAMGNN_NUM_THREADS=4 ./build-tsan/tools/chaos_soak --iters=200 --seed=7 \
    --dir="${CHAOS_DIR}/tsan"
rm -rf "${CHAOS_DIR}"

echo "==> serve-loop signal drill (hot-swap, rollback, SIGTERM drains clean)"
# A live server on a continuous request stream: hot-swap it via the
# --reload-on marker, roll it back, then SIGTERM it mid-stream. The process
# must exit 0 (clean drain, every accepted request answered) and its metrics
# file must pass the serve-mode schema check.
SERVE_MODEL_A="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.servea.model)"
SERVE_MODEL_B="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.serveb.model)"
SERVE_METRICS="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.serve.jsonl)"
SERVE_ERR="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.serve.err)"
SERVE_MARKER="$(mktemp -u /tmp/adamgnn_smoke.XXXXXX.serve.marker)"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.05 \
    --seed=1 --epochs=2 --threads=4 --save="${SERVE_MODEL_A}"
./build/tools/adamgnn_train --task=nc --synthetic=cora --scale=0.05 \
    --seed=2 --epochs=2 --threads=4 --save="${SERVE_MODEL_B}"
./build/tools/adamgnn_infer --task=nc --synthetic=cora --scale=0.05 \
    --threads=4 --load="${SERVE_MODEL_A}" --serve-loop --serve-clients=2 \
    --reload-on="${SERVE_MARKER}" --metrics-out="${SERVE_METRICS}" \
    2>"${SERVE_ERR}" &
SERVE_PID=$!
wait_for_line() { # pattern, file — poll up to 10 s
  for _ in $(seq 1 100); do
    grep -q "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: timed out waiting for '$1' in $2" >&2
  cat "$2" >&2
  kill "${SERVE_PID}" 2>/dev/null || true
  exit 1
}
wait_for_line "serve-loop: ready version=" "${SERVE_ERR}"
# Atomic marker drop: the poller consumes whole files, never partial writes.
printf '%s\n' "${SERVE_MODEL_B}" >"${SERVE_MARKER}.tmp"
mv "${SERVE_MARKER}.tmp" "${SERVE_MARKER}"
wait_for_line "serve-loop: reload ok version=" "${SERVE_ERR}"
printf 'rollback\n' >"${SERVE_MARKER}.tmp"
mv "${SERVE_MARKER}.tmp" "${SERVE_MARKER}"
wait_for_line "serve-loop: rollback ok version=" "${SERVE_ERR}"
kill -TERM "${SERVE_PID}"
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
if [[ "${SERVE_RC}" != 0 ]]; then
  echo "FAIL: serve-loop exited ${SERVE_RC} after SIGTERM" >&2
  cat "${SERVE_ERR}" >&2
  exit 1
fi
grep -q "serve-loop: shutdown signal" "${SERVE_ERR}"
grep -q "serve-loop: drained answered=" "${SERVE_ERR}"
./build/tools/check_metrics --mode=serve --file="${SERVE_METRICS}"
rm -f "${SERVE_MODEL_A}" "${SERVE_MODEL_B}" "${SERVE_METRICS}" \
    "${SERVE_ERR}" "${SERVE_MARKER}"

echo "==> repo benchmark: serve_fresh response check"
# The benchmark's serve_fresh workload compares a seeded sample of served
# responses bitwise against a fresh InferenceSession and exits nonzero on
# any mismatch or failed request, so it guards the one-forward serving path
# end to end. perfbench/run.sh builds its own tree under .bench_build/.
bash perfbench/run.sh --workload serve_fresh --seed 1 --seconds 5 --trace 0

echo "==> repo benchmark: train_sbm trajectory check"
# The traced train_sbm run replays the training trajectory with obs on and
# fails unless its per-epoch losses and test accuracy equal the untraced
# trainer's bitwise, and unless test accuracy clears the workload's floor.
bash perfbench/run.sh --workload train_sbm --seed 1 --seconds 1 --trace 1

echo "==> all checks passed"
