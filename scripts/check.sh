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

echo "== benchmark harness build + tests (benchmark/, its own workspace) =="
# The root workspace never compiles benchmark/, which reaches the
# simulator through the crates' public items: build and test it here so
# a removed or renamed item fails this gate, not the next benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== EXPERIMENTS.md is the recorded output (experiments --markdown all, cmp) =="
RECORDED="$(mktemp)"
trap 'rm -f "$RECORDED"' EXIT
# Everything below the "Recorded full-scale output" heading must be what
# the command prints today (~20 s): its verdicts then guard the
# paper's numbers on every push. To re-record after a deliberate change,
# redirect the left-hand side of the cmp into EXPERIMENTS.md.
cargo run --release -q -p ezflow-bench --bin experiments -- --markdown all \
  >"$RECORDED" 2>/dev/null
{ sed -n '1,/^# Recorded full-scale output$/p' EXPERIMENTS.md; echo; cat "$RECORDED"; } \
  | cmp - EXPERIMENTS.md \
  || { echo "EXPERIMENTS.md is behind \`experiments --markdown all\`"; exit 1; }
echo "EXPERIMENTS.md matches the full-scale run"

echo "all checks passed"
