#!/usr/bin/env bash
# Repo-wide gate, eleven steps: build, tests, lints, the benchmark
# package's own tests, the three chaos smokes, the fig_scale smoke, every
# figure regenerated at quick scale, and the criterion benches compiled
# and (seven kernels) run. Run from the repository root.
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

step "chaos smoke (quick grid, seed 42, audit must be clean)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --assert-no-leaks

step "tenanted chaos smoke (standard mix, isolation must hold)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --tenants --assert-no-leaks

step "repair smoke (repair must dominate restart survival, audit clean)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --repair --assert-no-leaks

step "fig_scale smoke (10k nodes x 50k sessions, RSS ceiling)" \
    cargo run --release -q -p acp-bench --bin scale_smoke

# Every table of every figure on one universe (~1 s): the only place
# outside a terminal where the tenant-isolation assert of `figures
# tenants`, the dominance/audit/leak asserts of `figures repair` and the
# ablation tables run.
step "figures all (quick scale, seed 42, repair and tenant asserts)" \
    cargo run --release -q -p acp-bench --bin figures -- all --scale quick --seed 42 --out target/experiments

step "criterion benches compile" \
    cargo bench --workspace --no-run

# Seven kernel benches are also run, at the sampler's shortest setting
# (2 samples of ~2 ms per bench): a selection, commit, memo-hit,
# routing-churn, probing-round, mesh-build or exhaustive-search
# regression shows here as a number, not only in the benchmark. Medians
# are repeated beside the step timings below.
KERNEL_BENCH_LINES=""
run_kernel_benches() {
    local spec bench filter out
    for spec in selection commit_close "probe_path virtual_path/hit" "probe_path fail_recover_lookup" \
        "probe_path probe_compose_loop" "topology overlay_build/400" "composition compose_once/optimal"; do
        read -r bench filter <<<"$spec"
        out="$(cargo bench -q -p acp-bench --bench "$bench" -- --sample-size 2 ${filter:+"$filter"})"
        echo "$out"
        KERNEL_BENCH_LINES+="$out"$'\n'
    done
}
step "kernel benches run (selection, commit_close, virtual_path/hit, fail_recover_lookup, probe_compose_loop, overlay_build/400, compose_once/optimal; --sample-size 2)" \
    run_kernel_benches

echo
echo "Kernel bench medians:"
printf '%s' "$KERNEL_BENCH_LINES" |
    sed -n 's/^\([^ ]*\) .* median *\([0-9.]* [^ ]*\) .*samples)\(.*\)$/  \2  \1\3/p'
echo
echo "Step timings:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done
printf 'Total: %ss\n' "$((SECONDS - TOTAL_START))"
echo "All checks passed."
