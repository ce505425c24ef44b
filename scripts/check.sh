#!/usr/bin/env bash
# Repo-wide gate, eight steps: build, tests, lints, the API docs with
# rustdoc warnings as errors, the benchmark package's own tests, the
# fig_scale smoke, every figure (chaos included) regenerated at quick
# scale, and every example, each of which asserts the claims it prints.
# Run from the repository root.
# Each step is timed; a per-step and total wall-clock summary prints at
# the end so slow steps are easy to spot.
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_SECS=()
TOTAL_START=$SECONDS

step() {
    local name="$1"
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    local secs=$((SECONDS - start))
    STEP_NAMES+=("$name")
    STEP_SECS+=("$secs")
    echo "    (${secs}s)"
}

step "cargo build --release --workspace" \
    cargo build --release --workspace

step "cargo test -q --workspace" \
    cargo test -q --workspace

step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a private or deleted item, or a redundant link target,
# fails here.
step "cargo doc --no-deps --workspace (rustdoc warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The workspace run above already executes the determinism, equivalence,
# chaos, failover, model-property and tenant suites, the golden scenario
# digests (crates/workload/tests/golden.rs), the feature cross-product
# fuzz (crates/workload/tests/fuzz.rs) and the perf gate: the exact cost
# counters and allocation counts of crates/bench/tests/counters.rs and
# allocs.rs. Wall-clock is judged by benchmark/ only.

# The benchmark package is its own workspace and may not be edited by a
# change that claims a gain; its tests compile every import of
# benchmark/src/sut.rs, so API drift against it fails here, not at the
# acceptance driver.
step "benchmark package tests (API drift against benchmark/src/sut.rs)" \
    env CARGO_TARGET_DIR="$PWD/target" \
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

step "fig_scale smoke (10k nodes x 50k sessions, RSS ceiling)" \
    cargo run --release -q -p acp-bench --bin scale_smoke

# Every table of every figure on one universe (~1 s): the only place
# outside a terminal where the tenant-isolation assert of `figures
# tenants`, the kill/audit/leak asserts of `figures repair`, the
# audit/isolation/leak/recovery asserts of `figures chaos` and the
# ablation tables run.
step "figures all (quick scale, seed 42, repair, tenant and chaos asserts)" \
    cargo run --release -q -p acp-bench --bin figures -- all --scale quick --seed 42 --out target/experiments

# The examples assert what they print (admission counts, the tuner's
# surge mean, the QoS of a committed session); stdout is dropped, an
# assert's panic goes to stderr.
run_examples() {
    local example
    for example in quickstart adaptive_tuning stock_monitoring video_surveillance; do
        echo "    example $example"
        cargo run --release -q --example "$example" >/dev/null
    done
}
step "examples (each asserts what it prints)" \
    run_examples

echo
echo "Step timings:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done
printf 'Total: %ss\n' "$((SECONDS - TOTAL_START))"
echo "All checks passed."
