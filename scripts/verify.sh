#!/usr/bin/env bash
# Tier-1 verification: build, tests (lsibench's unit tests too), a
# quick perf_kernels smoke run (checks the JSON report keys), a
# fault-injection smoke, and the lsi-analyze static-analysis ratchet
# (safety/panic/provenance invariants; see DESIGN.md §3e).
#
# usage: scripts/verify.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

# The suite runs twice: once on the persistent pool (default) and once
# fully serial. LSI_NUM_THREADS=1 must reproduce pooled results
# bit-for-bit, and every parallel kernel has a serial fallback that the
# second pass exercises.
echo "== tier-1: cargo test -q (pooled)"
cargo test -q

echo "== tier-1: cargo test -q (LSI_NUM_THREADS=1)"
LSI_NUM_THREADS=1 cargo test -q

echo "== tier-1: lsibench unit tests (the benchmark built against this tree)"
# lsibench is a workspace of its own (crates/bench/src/bin/lsibench), so
# the runs above never compile it, yet it uses the public API of lsi-core,
# lsi-svd, lsi-text, lsi-linalg, lsi-sparse and lsi-obs. Building it here
# makes a break in that API fail verification instead of the benchmark.
# Its Cargo.lock is not kept: cargo resolves the path dependencies offline.
CARGO_TARGET_DIR=target/lsibench-build \
  cargo test -q --offline --manifest-path crates/bench/src/bin/lsibench/Cargo.toml

echo "== smoke: perf_kernels --quick JSON report"
out=$(./target/release/perf_kernels --quick)
for key in \
    gemm_nn_256_gflops gemm_tn_256_gflops gemm_nn_512_gflops \
    gemm_nn_tall_gflops lanczos_k50_secs lanczos_k50_steps \
    randomized_q2_k50_secs randomized_q0_k50_secs lanczos_three_term_k50_secs \
    query_single_qps query_batch_scoring_qps query_multi_facet_qps \
    corpus_parse_secs git_sha '"metrics"' '"spans"'; do
  if ! grep -q -- "$key" <<<"$out"; then
    echo "FAIL: perf_kernels --quick output is missing $key" >&2
    exit 1
  fi
done

echo "== smoke: perf_kernels --pool --quick JSON report"
out=$(./target/release/perf_kernels --pool --quick)
for key in \
    pool_threads pool_dispatch_us spawn_dispatch_us \
    spmv_skewed_serial_secs spmv_skewed_par_secs spmv_skewed_speedup \
    lanczos_k50_secs lanczos_k50_steps '"metrics"'; do
  if ! grep -q -- "$key" <<<"$out"; then
    echo "FAIL: perf_kernels --pool --quick output is missing $key" >&2
    exit 1
  fi
done
# Refresh the committed pool benchmark with a full run via:
#   ./target/release/perf_kernels --pool > BENCH_pool.json

echo "== smoke: perf_kernels --compressed --quick JSON report"
out=$(./target/release/perf_kernels --compressed --quick)
for key in \
    f64_batch_scoring_qps f64_resident_bytes \
    f32_batch_scoring_qps f32_resident_bytes f32_fallbacks \
    i8_batch_scoring_qps i8_resident_bytes i8_recall_at_10 \
    '"metrics"'; do
  if ! grep -q -- "$key" <<<"$out"; then
    echo "FAIL: perf_kernels --compressed --quick output is missing $key" >&2
    exit 1
  fi
done
# Refresh the committed precision-ladder numbers with a full run via:
#   ./target/release/perf_kernels --compressed   (see BENCH_kernels.json "compressed")

echo "== smoke: perf_kernels --index --quick JSON report + recall floor"
# The binary itself enforces the CI floor (exit 1 when recall@10 at the
# default nprobe drops below 0.95, or full-depth bit-identity breaks),
# so a plain invocation is the floor check; the grep below only guards
# the report schema.
out=$(./target/release/perf_kernels --index --quick)
for key in \
    index_n_lists index_train_secs exact_batch_scoring_qps \
    nprobe1_recall_at_10 nprobe8_speedup_vs_exact \
    pruned_batch_scoring_qps pruned_recall_at_10 pruned_speedup_vs_exact \
    full_depth_bit_identical scale100x_pruned_query_us \
    '"metrics"'; do
  if ! grep -q -- "$key" <<<"$out"; then
    echo "FAIL: perf_kernels --index --quick output is missing $key" >&2
    exit 1
  fi
done
# Refresh the committed pruning curve with a full run via:
#   ./target/release/perf_kernels --index   (see BENCH_kernels.json "index")

echo "== smoke: fault injection (forced failpoints fire and are contained)"
# Force each failpoint through a real CLI pipeline and assert two
# things: (a) the failpoint actually FIRED (the lsi-fault warn line on
# stderr — this is what catches an arming regression, where a command
# that silently ignores its failpoint would otherwise pass), and
# (b) the exit code matches the documented containment: 0 for graceful
# degradation (SVD fallback ladder, delay actions), 1/2 for a typed
# error, 70 for the CLI panic boundary. 101 (uncaught panic) or 134
# (abort) is a hardening regression.
# (pool.task is driven through `terms` — its thesaurus sweep is the one
# pool dispatch with no size threshold.)
fault_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir"' EXIT
printf 'cars1\tcar engine wheel motor car\ncars2\tautomobile engine motor chassis\ncars3\tcar automobile driver wheel\nzoo1\telephant lion zebra elephant\nzoo2\tlion zebra giraffe elephant\nzoo3\tzebra giraffe lion safari\n' \
  > "$fault_dir/docs.tsv"
fault_run() {
  local threads=$1 expect=$2 spec=$3; shift 3
  local code=0
  LSI_NUM_THREADS=$threads LSI_FAILPOINTS=$spec \
    ./target/release/lsi "$@" >"$fault_dir/out.log" 2>"$fault_dir/err.log" || code=$?
  if ! grep -q 'failpoint .* fired' "$fault_dir/err.log"; then
    echo "FAIL: LSI_FAILPOINTS=$spec (threads=$threads) lsi $* never fired" >&2
    cat "$fault_dir/err.log" >&2
    exit 1
  fi
  local ok=1
  case "$expect" in
    ok)      [ "$code" -eq 0 ] || ok=0 ;;
    fail)    { [ "$code" -eq 1 ] || [ "$code" -eq 2 ]; } || ok=0 ;;
    panic70) [ "$code" -eq 70 ] || ok=0 ;;
  esac
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: LSI_FAILPOINTS=$spec (threads=$threads) lsi $* exited $code (expected $expect)" >&2
    cat "$fault_dir/err.log" >&2
    exit 1
  fi
}
for threads in 4 1; do
  db="$fault_dir/db-$threads.json"
  # A clean index first, so the query/load failpoints have a database.
  LSI_NUM_THREADS=$threads ./target/release/lsi \
    index "$fault_dir/docs.tsv" --out "$db" --k 2 >/dev/null
  fault_run "$threads" ok      'svd.lanczos.iter=return-err'    index "$fault_dir/docs.tsv" --out "$fault_dir/f1.json" --k 2
  fault_run "$threads" ok      'svd.lanczos.iter=inject-nan'    index "$fault_dir/docs.tsv" --out "$fault_dir/f2.json" --k 2
  fault_run "$threads" panic70 'pool.task=panic:1'              terms "$db" car --top 3
  fault_run "$threads" panic70 'pool.task=return-err:1'         terms "$db" car --top 3
  fault_run "$threads" ok      'pool.task=delay-ms(10):2'       terms "$db" car --top 3
  fault_run "$threads" fail    'core.persist.save=return-err'   index "$fault_dir/docs.tsv" --out "$fault_dir/f5.json" --k 2
  fault_run "$threads" ok      'core.persist.save=delay-ms(25)' index "$fault_dir/docs.tsv" --out "$fault_dir/f6.json" --k 2
  fault_run "$threads" fail    'core.persist.load=return-err'   query "$db" "car motor"
  fault_run "$threads" fail    'core.query.score=return-err'    query "$db" "car motor"
  fault_run "$threads" fail    'core.query.score=inject-nan'    query "$db" "car motor"
  # Same failpoint through the compressed sweep: inject-nan (fire once,
  # so only the sweep is poisoned) trips the non-finite guard, which
  # falls back to the exact f64 scan instead of erroring — the query
  # must still succeed (exit 0).
  fault_run "$threads" ok      'core.query.score=inject-nan:1'  query "$db" "car motor" --precision f32
  # The forced save failure must not have clobbered an existing target.
  cp "$db" "$fault_dir/keep.json"
  fault_run "$threads" fail 'core.persist.save=return-err' index "$fault_dir/docs.tsv" --out "$fault_dir/keep.json" --k 2
  if ! cmp -s "$db" "$fault_dir/keep.json"; then
    echo "FAIL: a failed save corrupted the existing database" >&2
    exit 1
  fi
  # And the Lanczos fallback ladder must still produce a usable index.
  LSI_NUM_THREADS=$threads LSI_FAILPOINTS='svd.lanczos.iter=return-err' \
    ./target/release/lsi index "$fault_dir/docs.tsv" --out "$fault_dir/fb.json" --k 2 >/dev/null
  LSI_NUM_THREADS=$threads ./target/release/lsi query "$fault_dir/fb.json" "car motor" | head -1 \
    | grep -q . || { echo "FAIL: fallback-built index cannot serve queries" >&2; exit 1; }
  # lsi add: both methods grow the database by two documents, and a
  # batch that repeats an id is rejected (exit 1) before anything is
  # written.
  printf 'new1\tcar driver motor\nnew2\tlion safari zebra\n' > "$fault_dir/add.tsv"
  printf 'new1\tcar driver motor\nnew1\tlion safari zebra\n' > "$fault_dir/dup.tsv"
  for method in fold update; do
    added="$fault_dir/add-$method-$threads.json"
    out=$(LSI_NUM_THREADS=$threads ./target/release/lsi \
      add "$db" "$fault_dir/add.tsv" --out "$added" --method "$method") \
      || { echo "FAIL: lsi add --method $method (threads=$threads) failed" >&2; exit 1; }
    if ! grep -q 'database now holds 8 docs' <<<"$out"; then
      echo "FAIL: lsi add --method $method (threads=$threads) printed: $out" >&2
      exit 1
    fi
    dup="$fault_dir/dup-$method-$threads.json"
    code=0
    LSI_NUM_THREADS=$threads ./target/release/lsi \
      add "$db" "$fault_dir/dup.tsv" --out "$dup" --method "$method" >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 1 ] || [ -e "$dup" ]; then
      echo "FAIL: lsi add --method $method (threads=$threads) took a repeated id (exit $code)" >&2
      exit 1
    fi
  done
done
for method in fold update; do
  if ! cmp -s "$fault_dir/add-$method-4.json" "$fault_dir/add-$method-1.json"; then
    echo "FAIL: lsi add --method $method differs between LSI_NUM_THREADS=4 and 1" >&2
    exit 1
  fi
done

echo "== smoke: lsi serve (endpoints, failpoint containment, graceful drain)"
# Boot the daemon against the fault-smoke index, hit every endpoint
# over raw /dev/tcp (no curl dependency), force each serve.* failpoint
# with a one-shot spec and assert the daemon (a) answers the poisoned
# request with a typed status, (b) logs the fired warn, and (c) keeps
# serving afterward. Finally, SIGTERM with a query in flight must drain
# (client still gets its 200) and leave a final lsi_serve run report on
# stdout with exit code 0.
serve_pid=
trap 'rm -rf "$fault_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
serve_start() {
  local threads=$1 spec=$2
  : > "$fault_dir/serve.out"
  : > "$fault_dir/serve.err"
  LSI_NUM_THREADS=$threads LSI_FAILPOINTS=$spec \
    ./target/release/lsi serve "$db" --port 0 --threads 2 \
    > "$fault_dir/serve.out" 2> "$fault_dir/serve.err" &
  serve_pid=$!
  serve_port=
  local i=0
  while [ "$i" -lt 100 ]; do
    serve_port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$fault_dir/serve.out")
    [ -n "$serve_port" ] && return 0
    sleep 0.05
    i=$((i + 1))
  done
  echo "FAIL: lsi serve never reported a listening address" >&2
  cat "$fault_dir/serve.err" >&2
  exit 1
}
serve_get() {
  local path=$1 out=$2
  serve_status=
  : > "$out"
  if exec 3<>"/dev/tcp/127.0.0.1/$serve_port"; then
    printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$path" >&3
    cat <&3 > "$out" 2>/dev/null || true
    exec 3<&- 3>&- || true
    serve_status=$(head -1 "$out" | tr -d '\r' | awk '{print $2}')
  fi
}
serve_expect() {
  local path=$1 want=$2 sub=$3
  serve_get "$path" "$fault_dir/resp.txt"
  if [ "$serve_status" != "$want" ]; then
    echo "FAIL: GET $path returned ${serve_status:-<no response>} (expected $want)" >&2
    cat "$fault_dir/serve.err" >&2
    exit 1
  fi
  if [ -n "$sub" ] && ! grep -q -- "$sub" "$fault_dir/resp.txt"; then
    echo "FAIL: GET $path response is missing $sub" >&2
    cat "$fault_dir/resp.txt" >&2
    exit 1
  fi
}
serve_fired() {
  if ! grep -q 'failpoint .* fired' "$fault_dir/serve.err"; then
    echo "FAIL: serve failpoint $1 never fired" >&2
    cat "$fault_dir/serve.err" >&2
    exit 1
  fi
}
serve_stop() {
  kill -TERM "$serve_pid" 2>/dev/null || true
  local code=0
  wait "$serve_pid" || code=$?
  serve_pid=
  if [ "$code" -ne 0 ]; then
    echo "FAIL: lsi serve exited $code after SIGTERM (expected 0)" >&2
    cat "$fault_dir/serve.err" >&2
    exit 1
  fi
  if ! grep -q '"name":"lsi_serve"' "$fault_dir/serve.out"; then
    echo "FAIL: lsi serve left no final run report on stdout" >&2
    cat "$fault_dir/serve.out" >&2
    exit 1
  fi
}
for threads in 4 1; do
  db="$fault_dir/db-$threads.json"
  # Clean daemon: every endpoint answers, errors are typed.
  serve_start "$threads" ''
  serve_expect /healthz 200 ok
  serve_expect /readyz 200 ready
  serve_expect '/query?q=car+motor&top=3' 200 '"results"'
  serve_expect '/query' 400 ''
  serve_expect /nope 404 ''
  serve_expect /stats 200 '"queries"'
  serve_stop
  # Parse failpoint: poisoned request gets a typed 400, daemon survives.
  serve_start "$threads" 'serve.parse=return-err:1'
  serve_expect '/query?q=car+motor' 400 failpoint
  serve_expect '/query?q=car+motor' 200 '"results"'
  serve_fired serve.parse
  serve_stop
  # Batcher panic: contained to a 500, scoring thread respawns state.
  serve_start "$threads" 'serve.batch=panic:1'
  serve_expect '/query?q=car+motor' 500 ''
  serve_expect '/query?q=car+motor' 200 '"results"'
  serve_fired serve.batch
  serve_stop
  # Accept failpoint: one connection dropped at the door, next served.
  serve_start "$threads" 'serve.accept=return-err:1'
  serve_get /healthz "$fault_dir/resp.txt" || true
  serve_expect /healthz 200 ok
  serve_fired serve.accept
  serve_stop
  # Drain: SIGTERM with a delayed query in flight; the client must
  # still get its 200 before the process exits 0.
  serve_start "$threads" 'serve.batch=delay-ms(300):1'
  (
    if exec 3<>"/dev/tcp/127.0.0.1/$serve_port"; then
      printf 'GET /query?q=car+motor HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
      cat <&3 > "$fault_dir/resp-drain.txt" || true
      exec 3<&- 3>&- || true
    fi
  ) &
  drain_client=$!
  sleep 0.1
  serve_stop
  wait "$drain_client" || true
  if ! head -1 "$fault_dir/resp-drain.txt" | grep -q ' 200 '; then
    echo "FAIL: in-flight query dropped during drain" >&2
    cat "$fault_dir/resp-drain.txt" >&2
    exit 1
  fi
done

echo "== perf: perf_kernels --gate (regression gate vs BENCH_kernels.json)"
# Re-measures the key kernel/query metrics at full size with
# observability disarmed and compares against the committed `gate`
# section of BENCH_kernels.json. The 2% band on query_batch_scoring_qps
# is the tracing-disabled overhead contract (DESIGN.md §3g): the span
# machinery, counting allocator, and trace hooks ride the hot query
# path even when off, and this gate is what keeps "off" free. On a
# machine slower than the one that recorded the baselines, widen the
# bands with LSI_PERF_TOLERANCE=<frac> (e.g. 0.5).
./target/release/perf_kernels --gate

echo "== lint: lsi-analyze --ci (static-analysis ratchet)"
# Replaces the old unwrap/eprintln shell greps with the token-aware
# analyzer in crates/analysis: per-file rules (unsafe-audit,
# panic-surface, float-safety, atomics-audit, eprintln-lint,
# threshold-provenance, metric-naming) plus the interprocedural rules
# over the workspace call graph (panic-reachability, unsafe-taint,
# atomics-pairing — the serve path's panic-free contract is a hard
# error). Pre-existing debt lives in analysis_baseline.json
# (per-(rule, file) counts, shrink-only); any finding above the
# baseline fails here. The analysis_full_secs gate row above caps this
# stage's wall time. Details: DESIGN.md §3e and §3j,
# `lsi-analyze --explain <rule>`.
cargo run --release -q -p lsi-analyze -- --ci

echo "verify: OK"
