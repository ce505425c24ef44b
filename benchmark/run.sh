#!/usr/bin/env bash
# The repo benchmark, in one command. Builds the benchmark package
# (release, offline) and hands every argument to it:
#
#   benchmark/run.sh [--seed N] [--trace] [--sets K]      all workloads, 3 fresh processes each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result line last
#   benchmark/run.sh compare A.json B.json                apply the BENCHMARK.json bounds
#
# Writes only under benchmark/ (out/, noise.json) and the cargo target
# directory: the workspace's own target/ unless CARGO_TARGET_DIR says
# otherwise, so the library crates are compiled once for both.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/acp-benchmark" "$@"
