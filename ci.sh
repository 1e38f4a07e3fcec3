#!/usr/bin/env bash
# CI gate for the compsynth workspace. Everything runs --offline: the
# workspace has zero external dependencies (see DESIGN.md §3), so a cold
# target directory and an empty registry cache must both work.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint"
fi

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test -q --workspace --offline

# Second pass with the parallel solver: branch-and-prune outcomes are
# byte-identical for any thread count, so the whole suite must stay green
# when every query runs on 4 workers.
echo "==> cargo test (CSO_SOLVER_THREADS=4)"
CSO_SOLVER_THREADS=4 cargo test -q --workspace --offline

# Third pass with the incremental caches killed: the differential tests
# (crates/core/tests/incremental_equivalence.rs) compare cache-on vs
# cache-off inside one process; this pass additionally proves the whole
# suite is cache-agnostic end to end via the process-wide kill-switch.
echo "==> cargo test (CSO_SYNTH_CACHE=off)"
CSO_SYNTH_CACHE=off cargo test -q --workspace --offline

# Miri pass over the runtime substrate (PRNG, pool, prop, trace): the
# rest of the workspace forbids `unsafe` outright, so cso-runtime — the
# one crate whose threading code could ever need it — is the only crate
# worth interpreting. Skipped when the toolchain lacks the component or
# when CSO_CI_FAST=1 asks for the short gate.
if [ "${CSO_CI_FAST:-0}" != 1 ] && cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test -p cso-runtime"
    cargo miri test -q --offline -p cso-runtime
else
    echo "==> miri unavailable or CSO_CI_FAST=1; skipping interpreter pass"
fi

# Static analyzer goldens: the linter's machine output is deterministic,
# so the committed JSON reports are byte-exact. SWAN must stay clean
# (exit 0, pinned benign infos); the broken fixture must keep failing
# (exit 1) with the same spanned diagnostics.
echo "==> sketch-lint goldens"
LINT=$(mktemp -d)
cargo run -q --release --offline -p cso-bench --bin sketch-lint -- \
    --json --bounds 0,10 --bounds 0,200 crates/bench/fixtures/swan.sk > "$LINT/swan.json"
diff results/swan_lint.json "$LINT/swan.json"
if cargo run -q --release --offline -p cso-bench --bin sketch-lint -- \
    --json crates/bench/fixtures/broken.sk > "$LINT/broken.json"; then
    echo "sketch-lint accepted the broken fixture" >&2
    exit 1
fi
diff results/broken_lint.json "$LINT/broken.json"
rm -rf "$LINT"

# Golden regression: table1.csv carries semantic fields only (iterations,
# agreement, outcome), so the cache kill-switch must not change a single
# byte of it. Only table1_telemetry.csv (work counters, wall-clock) may
# differ between the two campaigns.
echo "==> table1.csv golden diff (cache on vs off)"
GOLD=$(mktemp -d)
cargo run -q --release --offline -p cso-bench --bin repro -- table1 --csv "$GOLD/warm" >/dev/null
CSO_SYNTH_CACHE=off cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/cold" >/dev/null
diff "$GOLD/warm/table1.csv" "$GOLD/cold/table1.csv"

# Compiled-tape kill-switch golden: tape evaluation is decision-identical
# to the tree walkers (DESIGN.md §11), so the semantic CSV must not move
# a byte with CSO_EVAL_TAPE=off. (table1_telemetry.csv may differ — the
# eval_errors column counts work the tape's fast path skips.)
echo "==> table1.csv golden diff (CSO_EVAL_TAPE=off vs default)"
CSO_EVAL_TAPE=off cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/notape" >/dev/null
diff "$GOLD/warm/table1.csv" "$GOLD/notape/table1.csv"

# Tracing is strictly observational: rerun the same campaign with the
# JSONL sink attached and golden-diff table1.csv against the untraced
# run, then fold the trace with trace-digest (which re-checks stream
# well-formedness and exits nonzero on any parse failure).
echo "==> table1.csv golden diff (traced vs untraced) + trace-digest smoke"
CSO_TRACE="jsonl:$GOLD/trace.jsonl" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/traced" >/dev/null
diff "$GOLD/warm/table1.csv" "$GOLD/traced/table1.csv"

# Lint-gated campaign: with CSO_LINT=deny the engine runs the analyzer
# before every synthesis; on well-formed sketches that must not move a
# single byte of the semantic CSV.
echo "==> table1.csv golden diff (CSO_LINT=deny vs default)"
CSO_LINT=deny cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/linted" >/dev/null
diff "$GOLD/warm/table1.csv" "$GOLD/linted/table1.csv"
cargo run -q --release --offline -p cso-bench --bin trace-digest -- "$GOLD/trace.jsonl" \
    > "$GOLD/digest.txt"
head -n 4 "$GOLD/digest.txt"
grep -q "well-formed" "$GOLD/digest.txt"
grep -q "engine.iteration" "$GOLD/digest.txt"
grep -q "solver.bnp" "$GOLD/digest.txt"

# Metrics are observational too: a metrics-enabled campaign must keep
# table1.csv byte-identical, and the exposition's seed-driven lines
# (counter `_total`s and histogram `_count`s) must match across two
# same-seed runs. (`_sum` and quantile lines carry wall-clock time and
# legitimately vary — they are filtered out before the diff.)
echo "==> table1.csv golden diff (CSO_METRICS on) + exposition determinism"
CSO_METRICS="expo:$GOLD/metrics_a.prom" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/metered" >/dev/null
diff "$GOLD/warm/table1.csv" "$GOLD/metered/table1.csv"
CSO_METRICS="expo:$GOLD/metrics_b.prom" cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/metered2" >/dev/null
grep -E '(_total|_count) ' "$GOLD/metrics_a.prom" > "$GOLD/det_a.txt"
grep -E '(_total|_count) ' "$GOLD/metrics_b.prom" > "$GOLD/det_b.txt"
diff "$GOLD/det_a.txt" "$GOLD/det_b.txt"
grep -q '^cso_solver_queries_total ' "$GOLD/metrics_a.prom"
grep -q '^cso_engine_oracle_calls_total ' "$GOLD/metrics_a.prom"

# Flame smoke: folding the traced campaign's JSONL must yield non-empty
# collapsed stacks with branch-and-prune attributed under an engine
# iteration (the same reconciliation metrics_equivalence.rs proves
# exactly on a single run).
echo "==> trace-digest --flame smoke"
cargo run -q --release --offline -p cso-bench --bin trace-digest -- --flame "$GOLD/trace.jsonl" \
    > "$GOLD/flame.txt"
test -s "$GOLD/flame.txt"
grep -q 'engine.iteration' "$GOLD/flame.txt"
grep -q 'solver.bnp' "$GOLD/flame.txt"
rm -rf "$GOLD"

# Steppable-engine golden: driving every repro run through the public
# step/answer Session API (CSO_REPRO_DRIVER=session) must reproduce the
# legacy Synthesizer::run campaign byte for byte.
echo "==> table1.csv golden diff (session driver vs run)"
GOLD=$(mktemp -d)
cargo run -q --release --offline -p cso-bench --bin repro -- table1 --csv "$GOLD/run" >/dev/null
CSO_REPRO_DRIVER=session cargo run -q --release --offline -p cso-bench --bin repro -- \
    table1 --csv "$GOLD/stepped" >/dev/null
diff "$GOLD/run/table1.csv" "$GOLD/stepped/table1.csv"
rm -rf "$GOLD"

# Service smoke: a 64-session fleet with snapshot eviction enabled must
# drive every session to Done and emit a parseable BENCH_serve.json.
echo "==> cso-serve fleet smoke (64 sessions, eviction on, metrics on)"
SERVE=$(mktemp -d)
CSO_SERVE_SNAPDIR="$SERVE/snaps" CSO_METRICS="expo:$SERVE/fleet.prom" \
    cargo run -q --release --offline -p cso-serve -- \
    --bench --sessions 64 --out "$SERVE/BENCH_serve.json"
grep -q '"completed": 64' "$SERVE/BENCH_serve.json"
grep -q '"failed": 0' "$SERVE/BENCH_serve.json"
grep -q '"step_p99_ms"' "$SERVE/BENCH_serve.json"
grep -q '^cso_serve_steps_total ' "$SERVE/fleet.prom"
grep -q '^cso_serve_sessions_done 64$' "$SERVE/fleet.prom"
rm -rf "$SERVE"

# Bench smoke: the synth_loop group (cold vs warm synthesis plus the
# tape-on vs tape-off branch-and-prune arms, the BENCH_synth.json
# baseline) must run end to end and emit parseable rows with positive
# medians.
echo "==> cargo bench synth_loop (smoke)"
BENCHDIR=$(mktemp -d)
CSO_BENCH_CSV="$BENCHDIR" cargo bench -q --offline -p cso-bench --bench experiments -- synth_loop
awk -F, '
    NR == 1 { if ($0 != "group,benchmark,median_ns,mad_ns,siqr_ns,samples") exit 1; next }
    $1 == "synth_loop" { rows++; if ($3 + 0 <= 0) exit 1 }
    END { exit (rows == 4 ? 0 : 1) }
' "$BENCHDIR/bench.csv"
rm -rf "$BENCHDIR"

# Perf-regression gate: the committed synth baseline must self-compare
# clean (exit 0), and a fixture whose branch-and-prune arm is 2x slower
# than its base must trip the noise-aware threshold (nonzero exit).
echo "==> perf-diff self-compare + injected-regression fixture"
cargo run -q --release --offline -p cso-bench --bin perf-diff -- \
    BENCH_synth.json BENCH_synth.json
if cargo run -q --release --offline -p cso-bench --bin perf-diff -- \
    crates/bench/fixtures/perf_base.json crates/bench/fixtures/perf_slow.json; then
    echo "perf-diff missed the injected regression" >&2
    exit 1
fi

echo "CI green."
