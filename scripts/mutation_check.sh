#!/usr/bin/env bash
# Shows that the oracles have teeth. Each suite names its kernel file(s),
# the oracle test that pins them (a differential test against a
# reference, the golden digests, or the exact cost counters), and
# mutations of the kernel; every mutation is seeded into a copy, one at a
# time, and the oracle must pass on the pristine copy and fail on every
# mutant. A mutant named 'FILE.rs: ...' must fail inside that test file.
#
#   scripts/mutation_check.sh [selection|optimal|faults|compose|counters|ledger|repair|recovery|leases|routes|board|topology|audit|config|claims|tenants] [WORKDIR]
#
# No suite name runs all sixteen, 52 mutants; WORKDIR defaults to
# target/mutation-check.
# The repository itself is never edited; the copy and its cargo target
# directory live under WORKDIR.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

# kernel | test target | oracle (test-name filter) | mutants, each
# 'name|sed expression'
# Ranked selection against its reference loop, its ε-band cutoffs
# against brute force, and the static interface-rate filter of both
# arms: dropping it from either is caught by
# `incompatible_rate_filters_everything`, which runs both.
selection_kernel=crates/core/src/selection.rs
selection_target='-p acp-core --lib'
selection_oracle=selection::tests
selection_mutants=(
    'skipped stale check|s/^    if retired {$/    if false \&\& retired {/'
    'pick taken from the wrong row|s/^        insert_ranked(ranked, quota, key, ComponentId::new(entry.node, entry.slot));$/        insert_ranked(ranked, quota, key, ComponentId::new(entries[pos.saturating_sub(1)].node, entries[pos.saturating_sub(1)].slot));/'
    'off-by-one at admission|s/^    if ranked.len() < quota {$/    if ranked.len() <= quota {/'
    'risk edge one ulp low|s/^    f64::from_bits(bits.expect("an infinite risk bands at i64::MAX"))$/    f64::from_bits(bits.expect("an infinite risk bands at i64::MAX")).next_down()/'
    'exit threshold one µs early|s/^        let entry_delay_secs = acp_simcore::SimDuration::from_micros(us)\.as_secs_f64();$/        let entry_delay_secs = acp_simcore::SimDuration::from_micros(us.saturating_add(1)).as_secs_f64();/'
    'rate check dropped from the kernel|s/^    if hop\.rate > entry\.max_rate_kbps {$/    if false \&\& hop.rate > entry.max_rate_kbps {/'
    'rate filter dropped from the Random arm|s/^            scratch\.ids\.retain(|\&c| system\.component(c)\.accepts_rate(hop\.rate));$//'
)
# The first makes the φ bound inadmissible (the dearest successor in
# place of the cheapest); the second charges a merge vertex's subtree to
# every incoming edge instead of its tree edge alone (double counting,
# on DAGs only); the third prices a virtual link by Eq. 1's residual form
# taken literally, `b / (ba + b)`, in the link kernel Optimal shares with
# Eqs. 1 and 10 (the reference search computes its own `b / ba`).
optimal_kernel='crates/core/src/optimal.rs crates/model/src/metrics.rs'
optimal_target='-p acp-core --lib'
optimal_oracle=optimal::tests::matches_the_reference_search
optimal_mutants=(
    'max over successors in the to-go bound|s/^                    let mut cheapest = f64::INFINITY;$/                    let mut cheapest = 0.0f64;/; s/cheapest = cheapest\.min(/cheapest = cheapest.max(/'
    'non-tree edge charged in both subtrees|s/^                let tree_edge = graph\.in_edges(w)\[0\] == e;$/                let tree_edge = true;/'
    'the link term over ba + b|s/^            bandwidth_kbps \/ availability_kbps$/            bandwidth_kbps \/ (availability_kbps + bandwidth_kbps)/'
)
# The fault path has no reference twin; its oracle is the seven golden
# scenario digests. The first mutant degrades path sessions whatever the
# policy says (so the terminate arm leaves them broken for ever); the second
# lets an individual restore re-open a link a live partition still holds;
# the third has the restart teardown cancel the repair ticket the restart
# must settle (golden.rs pins each repair row's ticket tuple). The fourth
# drops `faulted` from the setup path's retry gate, so a round no message
# fault touched is retried too. Every run takes that gate, and golden.rs's
# churn rows, which have no setup config, see it (the plain row composes
# every request, so nothing retries there; the compose suite cannot see it
# at all: its reference round runs inside the same retry loop).
faults_kernel='crates/model/src/faults.rs crates/core/src/protocol.rs'
faults_target='-p acp-workload --test golden'
faults_oracle= # every test of the target
faults_mutants=(
    'policy ignored in the victim walk|s/^        if policy == RepairPolicy::Repair \&\& s\.request_spec\.graph\.is_path() {$/        if s.request_spec.graph.is_path() {/'
    'partition refcount not consulted by LinkRestore|s/^                    let held = self\.partition_refs\.get(l\.index())\.is_some_and(|\&r| r > 0);$/                    let held = false;/'
    'golden.rs: restart teardown cancels the ticket it must leave open|s/^        self\.teardown_session(id, SessionCloseCause::Killed)/        self.close_session_with_cause(id, SessionCloseCause::Killed)/'
    'golden.rs: the retry gate ignores faulted|s/^        if !out\.faulted || attempts >= max_attempts {$/        if attempts >= max_attempts {/'
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
# drops the recoveries the summary reads off the repair ledger (golden.rs
# pins killed / recovered / lost); the second leaves repair splices' probing rounds out of the
# ledger (golden.rs pins the full stack's setup rounds); the third books a
# tenant's successful composition as a failure (counters.rs pins the
# tenant sweep's tier rows). The fourth makes the event loop's horizon
# exclusive, so the events due at the last instant never run (golden.rs
# pins `sim_events`).
ledger_kernel=crates/workload/src/scenario/model.rs
ledger_target='-p acp-workload -p acp-bench --test golden --test counters --test chaos --no-fail-fast'
ledger_oracle= # every test of the three targets
ledger_mutants=(
    'golden.rs: recoveries not read off the repair ledger|s/^    result\.sessions_recovered = ledger\.restored;$/    result.sessions_recovered = 0;/'
    'golden.rs: repair composes not charged to the ledger|s/^                    self\.result\.charge(probing);$//'
    'counters.rs: tier failed bumped on success|s/^                    tier\.composed += 1;$/                    tier.failed += 1;/'
    'golden.rs: the horizon becomes exclusive|s/^        while self\.queue\.peek_time()\.is_some_and(|t| t <= horizon) {$/        while self.queue.peek_time().is_some_and(|t| t < horizon) {/'
)

# The repair path's own randomness: its composer's transport must draw
# from a stream no other composer draws from. Seeded from the arrival
# composer's label instead, repair probing loses the probes arrival
# probing loses (golden.rs pins the full stack's digest and setup rounds).
repair_kernel=crates/workload/src/scenario/model.rs
repair_target='-p acp-workload --test golden'
repair_oracle= # every test of the target
repair_mutants=(
    'golden.rs: repair transport seeded from the arrival label|s/streams\.seed_for("repair-setup")/streams.seed_for("setup")/'
)

# One way back from a fault: every session a fault kills gets a repair
# ticket, the failover sweep's restart settles it, and both happen one
# detection latency after the fault. A kill left without a ticket, a
# restart that leaves its ticket open, and a restart delay doubled (the
# old repair-less fork's 2 s) each move a golden row's sessions or
# tickets.
recovery_kernel=crates/workload/src/scenario/model.rs
recovery_target='-p acp-workload --test golden'
recovery_oracle= # every test of the target
recovery_mutants=(
    'golden.rs: killed sessions get no ticket|s/^            self\.system\.repair_ledger_mut()\.open_ticket(request\.id, now);$//'
    'golden.rs: a successful restart leaves its ticket open|s/^                self\.system\.repair_ledger_mut()\.record_restored(request\.id, now);$//'
    'golden.rs: the restart delay doubles|s/^            churn\.restarts\.extend(orphaned\.into_iter()\.map(|request| (due, request)));$/            churn.restarts.extend(orphaned.into_iter().map(|request| (due + DETECTION, request)));/; s/^            self\.queue\.schedule(due, Event::FailoverSweep);$/            self.queue.schedule(due + DETECTION, Event::FailoverSweep);/'
)

# Two kernels kept exact by a differential proptest each. A site that
# stays in the lease directory's live set after its last lease went, or
# a request's release that takes other requests' leases at its sites
# along (a commit or close must leave them alone); a route repair whose
# tie rule compares distances only, a failure whose subtree stops at the
# failed node's children, or a recovery that leaves the new descendants
# of the nodes it changed out of its targets. A tree entry names the link
# to its predecessor, not the node: a predecessor read off the link's
# wrong endpoint is caught by the same proptest, and a memoized path past
# its inline capacity that loses its last hop by the test that compares
# paths of every length with the tree's.
leases_kernel=crates/model/src/lease.rs
leases_target='-p acp-model --lib'
leases_oracle=lease::tests::sweeps_match_the_full_scans_they_replaced
leases_mutants=(
    'emptied site left in the live set|s/^            if after\.is_empty() {$/            if false \&\& after.is_empty() {/'
    'release takes foreign leases along|s/Site::Node(i) => self\.nodes\[i as usize\]\.release_request_transients(request\.0),/Site::Node(i) => self.nodes[i as usize].expire_transients(SimTime::MAX),/; s/Site::Link(i) => self\.links\[i as usize\]\.drop_leases(|t| t\.key\.request == request\.0),/Site::Link(i) => self.links[i as usize].drop_leases(|_| true),/'
)
routes_kernel='crates/topology/src/routing.rs crates/topology/src/overlay.rs'
routes_target='-p acp-topology --lib -- routing::tests::repaired_trees_match_a_fresh_search overlay::tests::virtual_paths_match_the_tree_paths_at_every_length'
routes_oracle= # the filters ride on the target
routes_mutants=(
    'the tie rule compares dist only|s/ \&\& (d, u) < self\.rank(predecessor(graph, v, entry\.via)) {$/ \&\& d < self.rank(predecessor(graph, v, entry.via)).0 {/'
    'the failure subtree stops at the direct children|s/^        while let Some(\&v) = targets\.get(next) {$/        while let Some(\&v) = targets.get(next).filter(|_| next == 0) {/'
    'the recovery skips the new descendants|s/^                if self\.entries\[y\.index()\]\.via == e\.0 \&\& targets\[\.\.changed\]/                if false \&\& targets[..changed]/'
    'the predecessor read off the wrong end of its link|s/^    if a == node {$/    if a != node {/'
    'overlay.rs: a path past the inline capacity loses its last hop|/fn deref(/,/^    }$/s/^            Ids::Spilled(ids) => ids,$/            Ids::Spilled(ids) => \&ids[..ids.len() - 1],/'
)

# The topology kernels against the generator and the searches they
# replaced (`mod reference` in inet.rs and routing.rs, `compute_until`
# and the stopped-search mesh in overlay.rs). A heap key with the node in
# the high bits pops by id, not by distance; a clique exit that trusts
# the open count stops matching while edges can still be added; a
# Fenwick descent one past the scan's index picks the wrong endpoint.
# The k-nearest search: a bound that also prunes relaxations equal to it
# loses the peers tied at the k-th distance; a bound taken once the first
# peer is found, not the k-th, prunes paths to nearer peers; and a scratch
# not reset between searches starts from the last one's entries.
topology_kernel='crates/topology/src/routing.rs crates/topology/src/inet.rs'
topology_target='-p acp-topology --lib'
topology_oracle= # every test of the target
topology_mutants=(
    'routing.rs: the packed key puts the node in the high bits|s/^    dist << 32 | u64::from(node)$/    u64::from(node) << 32 | dist/; s/^    (key >> 32, key as u32)$/    (key \& 0xffff_ffff, (key >> 32) as u32)/'
    'inet.rs: the clique exit without the adjacency check|s/^                if is_clique(graph, \&open) {$/                if true {/'
    'inet.rs: the Fenwick descent returns pos + 1|s/^        pos$/        pos + 1/'
    'routing.rs: the bound prunes on >=|s/^                if cand > bound {$/                if cand >= bound {/'
    'routing.rs: the bound set by the first peer found|s/^    if best.len() == k {$/    if !best.is_empty() {/'
    'routing.rs: the scratch not reset between searches|s/^            (entries\[v as usize\], done\[v as usize\]) = (UNSET, false);$/            let _ = v;/'
)
# The board's version skip, asserted in place: every skipped node or
# link must be one a visit would not publish. A skip that also takes a
# node or a link whose version moved, and a commit that forgets to bump
# the versions of the nodes it loads, each skip a publish the assertion
# sees.
board_kernel='crates/state/src/global.rs crates/model/src/system.rs'
board_target='-p acp-state --lib'
board_oracle=global::tests::version_skip_holds_in_place_and_skips_untouched_entries
board_mutants=(
    'node skipped though its version moved|s/^            if self\.seen_node_versions\[i\] == versions\[i\] {$/            if self.seen_node_versions[i] <= versions[i] {/'
    'link skipped though its version moved|s/^            if self\.seen_link_versions\[i\] == versions\[i\] {$/            if self.seen_link_versions[i] <= versions[i] {/'
    'commit forgets to bump the versions of its nodes|s/^            self\.touch_node(node);$//'
)

# The incremental auditor against the full pass, corruption by
# corruption: each of its dirty sets must be fed by the writer it relies
# on. A session mutated through `get_mut` that the arena does not log, a
# memo insert the overlay does not log, and a flip scan that matches a
# session's hosts but not its relays each leave one corruption unseen.
audit_kernel='crates/model/src/system.rs crates/topology/src/overlay.rs crates/model/src/audit.rs'
audit_target='-p acp-model --lib'
audit_oracle=audit::tests::cursor_reports_what_the_full_pass_reports
audit_mutants=(
    'audit.rs: get_mut stops logging|s/^        self\.mutated\.push(id);$//'
    'audit.rs: the memo-miss arm stops logging|s/^                self\.memo_log\.record((from, to));$//'
    'audit.rs: the flip scan matches hosts but not relays|s/(node \&\& (hosts(s) || relays(s)))/(node \&\& hosts(s))/'
)

# The scenario's settings that are constants now, and the checks of the
# ones that stay: `validate` letting a tuner target outside (0, 1] through
# (to panic in the tuner's own assert), and a repair sweep that runs the
# instant a fault lands (the 1 s detection floor under MTTR is gone).
config_kernel='crates/workload/src/scenario/config.rs crates/workload/src/scenario/model.rs'
config_target='-p acp-workload --lib'
config_oracle=scenario::
config_mutants=(
    'validate drops the target_success check|s/^        let unit = |target: f64| target > 0\.0 \&\& target <= 1\.0;$/        let unit = |_: f64| true;/'
    'the detection const becomes 0|s/^const DETECTION: SimDuration = SimDuration::from_secs(1);$/const DETECTION: SimDuration = SimDuration::ZERO;/'
)

# The repair figure's replicate claim (`claims.rs`): a scenario that
# strikes every fault under `Terminate`, whatever the arm, leaves the
# repair arm killing as many sessions as restart does. Only the
# per-universe kill claim notices; the survival lead over the 20
# universes comes from restart retries, not splicing, and survives.
claims_kernel=crates/workload/src/scenario/model.rs
claims_target='-p acp-bench --test claims'
claims_oracle=repair_kills_fewer_in_every_universe_and_survives_more_over_twenty
claims_mutants=(
    'claims.rs: faults struck under Terminate whatever the arm|s/^        let fault = self\.system\.apply_fault(kind, churn\.repair\.policy, now);$/        let fault = self.system.apply_fault(kind, RepairPolicy::Terminate, now);/'
)

# The tenant controls: the congestion gate and preemption. A gate that
# sheds only strictly above its threshold passes every row but the two
# on the thresholds themselves; a preemption round that never picks a
# victim, or one whose candidates are not only best-effort sessions, is
# caught by the scenario test that preempts under load (the second also
# by the auditor's `PreemptionOutsideBestEffort`, which it reads).
tenants_kernel='crates/core/src/admission.rs crates/core/src/preemption.rs crates/model/src/system.rs'
tenants_target='-p acp-core -p acp-workload --lib -- admission:: preemption_reclaims_only_best_effort_sessions'
tenants_oracle= # the filters ride on the target: one per package
tenants_mutants=(
    'admission.rs: the gate sheds only above its threshold|s/^        congestion >= self\.threshold(tier)$/        congestion > self.threshold(tier)/'
    'model.rs: a preemption round never picks a victim|s/^        if util < min_node_utilization {$/        if true {/'
    'model.rs: preemption reaches Silver and Gold sessions|s/s\.request_spec\.tenant\.is_some_and(|b| b\.tier == TenantTier::BestEffort)/s.request_spec.tenant.is_some()/'
)

all_suites=(selection optimal faults compose counters ledger repair recovery leases routes board topology audit config claims tenants)
suites=("${all_suites[@]}")
case "${1:-}" in
    selection | optimal | faults | compose | counters | ledger | repair | recovery | leases | routes | board | topology | audit | config | claims | tenants)
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
# tar keeps the repository's mtimes; a reused WORKDIR may hold a newer
# build of the last mutant of any suite (the board suite's reaches into
# acp-model), which cargo would take for fresh.
for suite in "${all_suites[@]}"; do
    kernel_var="${suite}_kernel"
    read -r -a kernel <<<"${!kernel_var}"
    touch "${kernel[@]}"
done

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
