#!/bin/sh
# A/A comparison of the benchmark against itself: machine fingerprint,
# then `--aa N` (default 5). Run from anywhere inside the repository:
#
#     benchmark/aa.sh [N] > benchmark/AA.md
set -eu
cd "$(dirname "$0")"
n="${1:-5}"
echo "# A/A: the same build measured as set A and set B"
echo
echo "- nproc: $(nproc)"
echo "- cpu: $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)"
echo "- rustc: $(rustc --version)"
echo "- git rev: $(git rev-parse --short HEAD 2>/dev/null || echo unknown)$(git diff --quiet HEAD 2>/dev/null || echo ' (with uncommitted changes)')"
echo "- date: $(date -u +%Y-%m-%dT%H:%MZ)"
echo
cargo run --release --quiet --offline -- --aa "$n"
