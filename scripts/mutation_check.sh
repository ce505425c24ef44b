#!/usr/bin/env bash
# Shows that the oracles have teeth. Each suite names its kernel file(s),
# the oracle test that pins them (a differential test against a
# reference, the golden digests, or the exact cost counters), and
# mutations of the kernel; every mutation is seeded into a copy, one at a
# time, and the oracle must pass on the pristine copy and fail on every
# mutant. A mutant named 'FILE.rs: ...' must fail inside that test file.
#
#   scripts/mutation_check.sh [selection|optimal|faults|compose|counters|ledger|leases|readmit|board] [WORKDIR]
#
# No suite name runs all nine; WORKDIR defaults to target/mutation-check.
# The repository itself is never edited; the copy and its cargo target
# directory live under WORKDIR.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

# kernel | test target | oracle (test-name filter) | mutants, each
# 'name|sed expression'
selection_kernel=crates/core/src/selection.rs
selection_target='-p acp-core --lib'
selection_oracle=selection::tests::differential::kernel_matches_the_reference_loop
selection_mutants=(
    'skipped stale check|s/^    if retired {$/    if false \&\& retired {/'
    'pick taken from the wrong row|s/^            insert_ranked(ranked, quota, key, ComponentId::new(entry.node, entry.slot));$/            insert_ranked(ranked, quota, key, ComponentId::new(entries[pos.saturating_sub(1)].node, entries[pos.saturating_sub(1)].slot));/'
    'off-by-one at admission|s/^    ranked.truncate(quota);$/    ranked.truncate(quota + 1);/'
)
# The first makes the φ bound inadmissible (the dearest successor in
# place of the cheapest); the second charges a merge vertex's subtree to
# every incoming edge instead of its tree edge alone (double counting,
# on DAGs only).
optimal_kernel=crates/core/src/optimal.rs
optimal_target='-p acp-core --lib'
optimal_oracle=optimal::tests::matches_the_reference_search
optimal_mutants=(
    'max over successors in the to-go bound|s/^                    let mut cheapest = f64::INFINITY;$/                    let mut cheapest = 0.0f64;/; s/cheapest = cheapest\.min(/cheapest = cheapest.max(/'
    'non-tree edge charged in both subtrees|s/^                let tree_edge = graph\.in_edges(w)\[0\] == e;$/                let tree_edge = true;/'
)
# The fault path has no reference twin; its oracle is the nine golden
# scenario digests. The first mutant degrades path sessions whatever the
# policy says (so plain failover leaves them broken for ever); the second
# lets an individual restore re-open a link a live partition still holds;
# the third has the restart teardown cancel the repair ticket the restart
# must settle (golden.rs pins each repair row's ticket tuple).
faults_kernel=crates/model/src/faults.rs
faults_target='-p acp-workload --test golden'
faults_oracle= # every test of the target
faults_mutants=(
    'policy ignored in the victim walk|s/^        if policy == RepairPolicy::Repair \&\& s\.request_spec\.graph\.is_path() {$/        if s.request_spec.graph.is_path() {/'
    'partition refcount not consulted by LinkRestore|s/^                    let held = self\.partition_refs\.get(l\.index())\.is_some_and(|\&r| r > 0);$/                    let held = false;/'
    'golden.rs: restart teardown cancels the ticket it must leave open|s/^        self\.teardown_session(id, SessionCloseCause::Killed)/        self.close_session_with_cause(id, SessionCloseCause::Killed)/'
)

# The probing round against the round it replaced, request after
# request through one scratch. The first mutant takes every incoming
# link of a probed candidate from its first predecessor (wrong at a
# join); the second skips the dedupe, so two probes of one vertex can
# be sent to the same candidate.
compose_kernel=crates/core/src/protocol.rs
compose_target='-p acp-core --lib'
compose_oracle=protocol::tests::differential::round_matches_the_reference_round
compose_mutants=(
    'links materialised from the first predecessor|s/(edge, resolved_link(system, pred\.node, component\.node)\.clone())/(edge, resolved_link(system, predecessors[0].1.node, component.node).clone())/'
    'dedupe skipped|s/^                let Err(at) = probed\.binary_search(&component) else { continue };$/                let at = probed.binary_search(\&component).unwrap_or_else(|at| at);/'
)

# The perf gate: none of these changes what is composed (every digest
# holds), only what composing costs, and the timed snapshot with its 10 %
# tolerance, which this gate replaced, passed all three (EXPERIMENTS.md).
# The first forgets the memo entry before every lookup; the second walks
# the whole candidate index instead of stopping at the first row that
# cannot enter the top k; the third has every commit build its session a
# function graph of its own instead of sharing the request's.
counters_kernel='crates/topology/src/overlay.rs crates/core/src/selection.rs crates/model/src/system.rs'
counters_target='-p acp-bench --test counters --test allocs --no-fail-fast'
counters_oracle= # every test of both targets
counters_mutants=(
    'counters.rs: memo lookup that always misses|s/^        match self.path_cache.entry((from, to)) {$/        self.path_cache.remove(\&(from, to));\n        match self.path_cache.entry((from, to)) {/'
    'counters.rs: selection walk that ignores its stop rule|s/^        if ranked.len() == quota {$/        if false \&\& ranked.len() == quota {/'
    'allocs.rs: a private graph per committed session|s/^            request_spec: request\.clone(),$/            request_spec: Request { graph: crate::fgraph::FunctionGraph::new(request.graph.vertices().map(|v| request.graph.function(v)).collect(), request.graph.edges().to_vec()), ..request.clone() },/'
)

# The scenario's one ledger: each handler adds its measurements into the
# ScenarioResult the run returns, and nothing re-derives them, so a
# handler that forgets to is caught only by a pinned number. The first
# drops the failover path's recoveries (golden.rs pins killed / recovered
# / lost); the second leaves repair splices' probing rounds out of the
# setup ledger (golden.rs pins the full stack's rounds); the third books a
# tenant's successful composition as a failure (counters.rs pins the
# tenant sweep's tier rows).
ledger_kernel=crates/workload/src/scenario.rs
ledger_target='-p acp-workload -p acp-bench --test golden --test counters --test chaos --no-fail-fast'
ledger_oracle= # every test of the three targets
ledger_mutants=(
    'golden.rs: recoveries not counted on the failover path|s/^                            self\.result\.sessions_recovered += 1;$/                            self.result.sessions_recovered += 0;/'
    'golden.rs: setup ledger not summed for repair composes|s/^                        self\.result\.setup_stats += probing\.setup;$//'
    'counters.rs: tier failed bumped on success|s/^                            tier\.composed += 1;$/                            tier.failed += 1;/'
)

# Three kernels kept exact by a differential proptest each. A site that
# stays in the lease directory's live set after its last lease went; a
# re-admission that ignores the tie its node would win, so a forwarding
# node is attached as a leaf; a board that takes a node whose version
# moved for one it has already compared.
leases_kernel=crates/model/src/lease.rs
leases_target='-p acp-model --lib'
leases_oracle=lease::tests::sweeps_match_the_full_scans_they_replaced
leases_mutants=(
    'emptied site left in the live set|s/^            if after\.is_empty() {$/            if false \&\& after.is_empty() {/'
)
readmit_kernel=crates/topology/src/routing.rs
readmit_target='-p acp-topology --lib'
readmit_oracle=routing::tests::readmit_is_exact_or_refuses
readmit_mutants=(
    'a tie the node would win is not a forward|s/via < dy || (via == dy \&\& (Some(dv), node) < (self\.dist\[p\.index()\], p))/via < dy/'
)
board_kernel=crates/state/src/global.rs
board_target='-p acp-state --lib'
board_oracle=global::tests::incremental_matches_full_scan
board_mutants=(
    'node skipped though its version moved|s/self\.config\.incremental \&\& self\.seen_node_versions\[i\] == versions\[i\]/self.config.incremental \&\& self.seen_node_versions[i] <= versions[i]/'
)

suites=(selection optimal faults compose counters ledger leases readmit board)
case "${1:-}" in
    selection | optimal | faults | compose | counters | ledger | leases | readmit | board)
        suites=("$1")
        shift
        ;;
esac
work="${1:-$repo/target/mutation-check}"

rm -rf "$work/src"
mkdir -p "$work/src"
(cd "$repo" && tar -cf - Cargo.toml Cargo.lock crates src tests examples) | tar -xf - -C "$work/src"
export CARGO_TARGET_DIR="$work/target"
cd "$work/src"

caught=0
for suite in "${suites[@]}"; do
    kernel_var="${suite}_kernel" target_var="${suite}_target" oracle_var="${suite}_oracle"
    mutants_var="${suite}_mutants[@]"
    oracle="${!oracle_var}" mutants=("${!mutants_var}")
    read -r -a kernel <<<"${!kernel_var}"
    read -r -a target <<<"${!target_var}"
    rm -rf "$work/pristine"
    mkdir "$work/pristine"
    cp --parents "${kernel[@]}" "$work/pristine"
    # tar keeps the repository's mtimes; a reused WORKDIR may hold a newer
    # build of the last mutant, which cargo would take for fresh.
    touch "${kernel[@]}"

    unchanged() {
        for file in "${kernel[@]}"; do cmp -s "$work/pristine/$file" "$file" || return 1; done
    }
    oracle_passes() {
        cargo test -q --offline "${target[@]}" ${oracle:+"$oracle"} >"$work/last.log" 2>&1
    }

    echo "==> pristine ${kernel[*]}: the oracle must pass"
    oracle_passes || { cat "$work/last.log"; echo "oracle fails on the pristine kernel"; exit 1; }

    for mutant in "${mutants[@]}"; do
        name="${mutant%%|*}"
        cp -r "$work/pristine/." .
        sed -i "${mutant#*|}" "${kernel[@]}"
        if unchanged; then
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
        panic="panicked at"
        [[ "$name" == *.rs:* ]] && panic="panicked at .*/${name%%:*}:"
        if ! grep -m1 "$panic" -A1 "$work/last.log" | cut -c1-160 | sed 's/^/    /' | grep .; then
            cat "$work/last.log"
            echo "    failed, but with no panic in ${name%%:*}"
            exit 1
        fi
        echo "    caught"
        caught=$((caught + 1))
    done
    cp -r "$work/pristine/." .
done
echo "All $caught mutants caught."
