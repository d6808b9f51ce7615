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

echo "== repeated-export identity (the same run twice, cmp in all three directories) =="
# The lifecycle export is ordered by (time, packet, position) — a total
# order — so the recorder's hash index and slot reuse must never reach a
# byte, and the two streams are pure functions of the run: two identical
# invocations write identical files.
observed_run "$TRACE_TMP/again" scenario1
for f in tr/scenario1_80211.jsonl tr/scenario1_EZ-flow.jsonl \
    tel/scenario1_80211.jsonl tel/scenario1_EZ-flow.jsonl \
    aud/scenario1_80211.audit.jsonl aud/scenario1_EZ-flow.audit.jsonl; do
  cmp "$TRACE_TMP/$f" "$TRACE_TMP/again/$f" \
    || { echo "export identity: $f differs between two identical runs"; exit 1; }
done
echo "two identical invocations exported identical lifecycles, telemetry and audit streams"

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

echo "== scenario spec smoke (--list, --spec=scenarios/{scenario1,testbed,grid4x4}.json) =="
# Every committed spec must be listable: --list tolerates an unparsable
# file by printing UNREADABLE in its place, so that word is the failure.
LISTING="$(cargo run --release -q -p ezflow-bench --bin experiments -- --list)"
if echo "$LISTING" | grep UNREADABLE; then
  echo "spec smoke: --list found an unreadable spec"; exit 1
fi
# A committed spec must drive the full parse -> compile -> sweep -> report
# pipeline and exit 0. time=0.01 simulates ~25 s — past scenario 1's t=5 s
# flow starts, so the "traffic flowed" check is real, not vacuous.
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.01 --spec=scenarios/scenario1.json >/dev/null
echo "scenario1.json ran end-to-end"
# The calibrated testbed with per-link loss: both flows start at t=0.
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.01 --spec=scenarios/testbed.json >/dev/null
echo "testbed.json ran end-to-end"
# The generative form: grid4x4.json names a family and its parameters,
# the compiler supplies the lattice and one flow per row.
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.1 --spec=scenarios/grid4x4.json >/dev/null
echo "grid4x4.json ran end-to-end"

echo "== no-per-pair-state memory guard (mesh16k, mesh64k under ulimit -v 512 MB) =="
# At 16,384 nodes one N×N byte table is 268 MB and one of f64 is 2.1 GB
# (the two bool + one f64 matrices Channel used to keep: 2.6 GB, exit
# 134 here), while O(N·degree) rows need ~45 MB. The built binary is
# invoked directly so the limit binds the simulator, not cargo.
# mesh64k is the same shape at 65,536 nodes: ~0.3 s now that set-up is a
# grid walk (an all-pairs pass took 4-7 s). The timeout is a hang guard,
# not a speed gate — that is geom.rs's counted linear-work test.
cargo build --release -q -p ezflow-bench --bin experiments
for mesh in mesh16k mesh64k; do
  ( ulimit -v 524288
    timeout 20 target/release/experiments --jobs=1 --spec="scenarios/$mesh.json" >/dev/null )
  echo "$mesh.json ran inside 512 MB of address space"
done

echo "== scenario spec schema-error smoke =="
# A malformed spec must fail loudly: nonzero exit plus a message that
# points at the offending field, not a panic or a silent zero.
BAD_SPEC="$TRACE_TMP/bad_spec.json"
printf '{"name": "bad", "duration_secs": 1, "topology": {"kind": "donut"}}\n' >"$BAD_SPEC"
if ERR="$(cargo run --release -q -p ezflow-bench --bin experiments -- \
    --quick --spec="$BAD_SPEC" 2>&1 >/dev/null)"; then
  echo "schema smoke: malformed spec exited 0"; exit 1
fi
echo "$ERR" | grep -q 'topology.kind' \
  || { echo "schema smoke: error did not name the bad field: $ERR"; exit 1; }
echo "malformed spec rejected with a pointed message"
# A layout too dense for its neighbour rows is a spec error too (65,536
# nodes in one carrier-sense cell: 2^32 row entries, once an OOM abort),
# found before any row is built — so inside the same 512 MB.
printf '%s\n' '{"name": "dense", "duration_secs": 1,' \
  '"topology": {"kind": "random_geometric", "nodes": 65536, "width": 300,' \
  '             "height": 300, "gateways": 4, "seed": 1},' \
  '"traffic": {"flows": 4, "rate_bps": 200000, "start_secs": 0, "stop_secs": 1,' \
  '            "mix": [{"transport": {"kind": "cbr"}}]}}' >"$BAD_SPEC"
DENSE_STATUS=0
ERR="$( ulimit -v 524288
  target/release/experiments --jobs=1 --spec="$BAD_SPEC" 2>&1 >/dev/null )" || DENSE_STATUS=$?
[ "$DENSE_STATUS" -eq 2 ] || { echo "dense smoke: exited $DENSE_STATUS: $ERR"; exit 1; }
echo "$ERR" | grep -q 'topology' \
  || { echo "dense smoke: error did not name the topology: $ERR"; exit 1; }
echo "over-dense layout rejected with a pointed message"
# Likewise a malformed flag value: usage (exit 2) naming the flag, not an
# abort, and before any experiment runs.
FLAG_STATUS=0
ERR="$(cargo run --release -q -p ezflow-bench --bin experiments -- \
    --seed=abc fig1 2>&1 >/dev/null)" || FLAG_STATUS=$?
[ "$FLAG_STATUS" -eq 2 ] || { echo "flag smoke: --seed=abc exited $FLAG_STATUS"; exit 1; }
echo "$ERR" | grep -q -- '--seed' \
  || { echo "flag smoke: error did not name the flag: $ERR"; exit 1; }
echo "malformed flag value rejected with a pointed message"

echo "all checks passed"
