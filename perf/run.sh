#!/usr/bin/env bash
# Builds the benchmark and the real vs-fleetd daemon from source, then runs
# `perf` with the given arguments. Run from the repository root:
#
#   bash perf/run.sh --workload sweep-hw --seed 2014 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is perf's JSON.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The daemon is built through the repository's own manifest, exactly as
# `cargo build --release -p vs-fleetd` builds it; perf finds it next to
# its own executable.
cargo build --release --offline --quiet -p vs-fleetd 1>&2
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/perf" "$@"
