#!/usr/bin/env bash
# Shows that the selection kernel's differential oracle
# (crates/core/src/selection.rs, tests::differential) has teeth: seeds
# three mutations into a copy of the kernel, one at a time, and requires
# the oracle to pass on the pristine copy and fail on every mutant.
#
#   scripts/mutation_check.sh [WORKDIR]     default: target/mutation-check
#
# The repository itself is never edited; the copy and its cargo target
# directory live under WORKDIR.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="${1:-$repo/target/mutation-check}"
kernel=crates/core/src/selection.rs
oracle=selection::tests::differential::kernel_matches_the_reference_loop

rm -rf "$work/src"
mkdir -p "$work/src"
(cd "$repo" && tar -cf - Cargo.toml Cargo.lock crates src tests examples) | tar -xf - -C "$work/src"
export CARGO_TARGET_DIR="$work/target"
cd "$work/src"
cp "$kernel" "$work/kernel.pristine"
# tar keeps the repository's mtimes; a reused WORKDIR may hold a newer
# build of the last mutant, which cargo would take for fresh.
touch "$kernel"

oracle_passes() {
    cargo test -q --offline -p acp-core --lib "$oracle" >"$work/last.log" 2>&1
}

echo "==> pristine kernel: the oracle must pass"
oracle_passes || { cat "$work/last.log"; echo "oracle fails on the pristine kernel"; exit 1; }

# name | sed expression
mutants=(
    'skipped stale check|s/^    if retired {$/    if false \&\& retired {/'
    'plan built from the wrong row|s/^                component: ComponentId::new(entry.node, entry.slot),$/                component: ComponentId::new(entries[pos.saturating_sub(1)].node, entries[pos.saturating_sub(1)].slot),/'
    'off-by-one at admission|s/^    ranked.truncate(quota);$/    ranked.truncate(quota + 1);/'
)
for mutant in "${mutants[@]}"; do
    name="${mutant%%|*}"
    cp "$work/kernel.pristine" "$kernel"
    sed -i "${mutant#*|}" "$kernel"
    if cmp -s "$work/kernel.pristine" "$kernel"; then
        echo "mutation '$name' no longer applies: update its pattern in $0"
        exit 1
    fi
    echo "==> mutant: $name"
    if oracle_passes; then
        echo "    SURVIVED: the oracle did not notice"
        exit 1
    fi
    if grep -q "could not compile" "$work/last.log"; then
        cat "$work/last.log"
        echo "    mutant did not compile: fix the pattern"
        exit 1
    fi
    grep -m1 "panicked at" -A1 "$work/last.log" | cut -c1-160 | sed 's/^/    /'
    echo "    caught"
done
echo "All ${#mutants[@]} mutants caught."
