#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
# Includes the scheduler's lock-step proptests against a heap model
# (crates/sim/tests/sched_equiv.rs) and the hot-path golden
# (crates/bench/tests/golden.rs): every gated run byte-compared against
# crates/bench/golden/hotpath.json, observers off and armed.
cargo test -q --workspace

echo "== cargo doc (no deps, deny warnings) =="
# Our crates only: vendored dev stubs (vendor/*) are not held to our
# rustdoc standards.
DOC_FLAGS=(-p ezflow)
for d in crates/*/; do DOC_FLAGS+=(-p "ezflow-$(basename "$d")"); done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet "${DOC_FLAGS[@]}"

echo "== unused pub items (scripts/dead_pub.sh against scripts/dead_pub.allow) =="
scripts/dead_pub.sh

echo "== parallel sweep smoke (seeds, --quick --jobs=2, every observer exporting) =="
# Every run of every experiment exports through its runner job: twenty
# runs, twenty files per directory, or some job path stopped exporting.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release -q -p ezflow-bench --bin experiments -- --quick --jobs=2 \
  --trace-dir="$TRACE_TMP/seeds/tr" --telemetry-dir="$TRACE_TMP/seeds/tel" \
  --audit-dir="$TRACE_TMP/seeds/aud" seeds >/dev/null 2>&1
for d in tr tel aud; do
  FILES="$(find "$TRACE_TMP/seeds/$d" -name 'seeds_*.jsonl' | wc -l)"
  [ "$FILES" -eq 20 ] || { echo "seeds smoke: $FILES files under $d, expected 20"; exit 1; }
done

echo "== benchmark harness build + tests (benchmark/, its own workspace) =="
# The root workspace never compiles benchmark/, which reaches the
# simulator through the crates' public items: build and test it here so
# a removed or renamed item fails this gate, not the next benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The observer smoke below runs scenario 1 for a sliver of its timeline,
# where its qualitative checks may legitimately fail (exit 1); what it
# smokes is the export. Anything else — usage (2), an abort (134) — fails.
# The lifecycle and the telemetry stream of a run share a file name, so
# `--trace-dir` and `--telemetry-dir` never share a directory (the CLI
# refuses it: exit 2, see `bin/experiments.rs`).
observed_run() {
  local out="$1" status=0
  shift
  cargo run --release -q -p ezflow-bench --bin experiments -- --quick --time=0.02 \
    --trace-dir="$out/tr" --telemetry-dir="$out/tel" --audit-dir="$out/aud" "$@" \
    >/dev/null 2>&1 || status=$?
  [ "$status" -le 1 ] || { echo "experiments $* exited $status"; exit 1; }
}

echo "== observer exports: one scenario-1 run, all three directories =="
observed_run "$TRACE_TMP" --json="$TRACE_TMP/snap.json" scenario1

echo "== flight recorder + trace CLI smoke =="
# The traced run exported lifecycle JSONL; the trace inspector must
# reconstruct journeys and a drop census from it.
JSONL="$TRACE_TMP/tr/scenario1_80211.jsonl"
[ -s "$JSONL" ] || { echo "trace smoke: no lifecycle export at $JSONL"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-cause "$JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-node "$JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-link "$JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- worst --flow=0 --top=3 "$JSONL" >/dev/null
PKT="$(cargo run --release -q -p ezflow-bench --bin trace -- worst --flow=0 --top=1 "$JSONL" \
  | awk 'NR==3 {print $1}')"
# Plain grep (not -q) so the reader drains the whole stream — an early
# close would hit the writer as a broken pipe.
cargo run --release -q -p ezflow-bench --bin trace -- journey --packet="$PKT" "$JSONL" \
  | grep DELIVERED >/dev/null
echo "trace CLI reconstructed packet $PKT's journey"

echo "== telemetry bus + trace telemetry smoke =="
# The telemetry-armed run must have streamed at least one sample-window
# JSONL record, surfaced a stability section in its JSON snapshots, and
# render through the telemetry inspector.
TEL_JSONL="$TRACE_TMP/tel/scenario1_80211.jsonl"
[ -s "$TEL_JSONL" ] || { echo "telemetry smoke: no stream at $TEL_JSONL"; exit 1; }
WINDOWS="$(wc -l < "$TEL_JSONL")"
[ "$WINDOWS" -ge 1 ] || { echo "telemetry smoke: zero sample windows"; exit 1; }
grep -q '"stability"' "$TRACE_TMP/snap.json" \
  || { echo "telemetry smoke: snapshots lack a stability section"; exit 1; }
grep -q '"worst_amplitude_mean"' "$TRACE_TMP/snap.json" \
  || { echo "telemetry smoke: stability section malformed"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- telemetry --top=3 "$TEL_JSONL" >/dev/null
echo "telemetry stream captured $WINDOWS sample windows"

echo "== controller audit + trace controller smoke =="
# The audit-armed run must have streamed decision/sample JSONL records,
# surfaced a controller section in its JSON snapshots, and render through
# the controller inspector.
AUD_JSONL="$TRACE_TMP/aud/scenario1_EZ-flow.audit.jsonl"
[ -s "$AUD_JSONL" ] || { echo "audit smoke: no stream at $AUD_JSONL"; exit 1; }
grep -q '"kind":"sample"' "$AUD_JSONL" \
  || { echo "audit smoke: no estimation samples in stream"; exit 1; }
grep -Eq '"schema": ?2' "$TRACE_TMP/snap.json" \
  || { echo "audit smoke: snapshots lack the schema version"; exit 1; }
grep -q '"decisions_total"' "$TRACE_TMP/snap.json" \
  || { echo "audit smoke: snapshots lack a controller section"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- controller --top=3 "$AUD_JSONL" >/dev/null
RECORDS="$(wc -l < "$AUD_JSONL")"
echo "controller audit streamed $RECORDS records"

echo "== EXPERIMENTS.md is the recorded output (experiments --markdown all, cmp) =="
# Everything below the "Recorded full-scale output" heading must be what
# the command prints today (~20 s): its 45 verdicts then guard the
# paper's numbers on every push. To re-record after a deliberate change,
# redirect the left-hand side of the cmp into EXPERIMENTS.md.
cargo run --release -q -p ezflow-bench --bin experiments -- --markdown all \
  >"$TRACE_TMP/recorded.md" 2>/dev/null
{ sed -n '1,/^# Recorded full-scale output$/p' EXPERIMENTS.md; echo; cat "$TRACE_TMP/recorded.md"; } \
  | cmp - EXPERIMENTS.md \
  || { echo "EXPERIMENTS.md is behind \`experiments --markdown all\`"; exit 1; }
echo "EXPERIMENTS.md matches the full-scale run"

echo "all checks passed"
