use super::*;
use crate::probe::Probe;
use crate::selection::{select_candidates_with, CandidatePlan, HopContext};

/// [`super::compose_with_setup`] over the old round.
#[allow(clippy::too_many_arguments)]
pub(super) fn compose_with_setup<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    rules: Rules,
    setup: &mut TwoPhase,
    rng: &mut R,
) -> ComposeOutcome {
    run_protocol(
        system,
        request,
        now,
        config,
        setup,
        rng,
        |system, now, config, setup, rng, stats, setup_stats, pending_stale| {
            probe_attempt(system, board, request, now, config, rules, setup, rng, stats, setup_stats, pending_stale)
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn probe_attempt<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    (hop_selection, final_selection, budget): Rules,
    setup: &mut TwoPhase,
    rng: &mut R,
    stats: &mut OverheadStats,
    setup_stats: &mut SetupStats,
    pending_stale: &mut Option<Composition>,
) -> AttemptOutcome {
    let mut faulted = false;
    let expiry = now + config.transient_timeout;
    let order = request.graph.topological_order();

    // Step 1: the deputy spawns the initial probe.
    let mut frontier = vec![Probe::initial(&request.graph)];

    // Step 2: distributed hop-by-hop probe processing.
    //
    // The probing ratio bounds the candidates probed **per function**:
    // "if there are ten candidate components for the function F_i and the
    // probing ratio α = 0.3, then we can probe 0.3 × 10 = 3 candidate
    // components" (§3.4). Every live probe proposes ranked next-hop
    // candidates; the quota of ⌈α·k⌉ *distinct* candidates is then filled
    // best-proposal-first (one probe per candidate), so the set of live
    // probes never exceeds the per-function quota. This is what makes the
    // per-hop selection decision matter: a wasted pick cannot be papered
    // over by exponential probe fan-out.
    // Scratch buffers hoisted out of the per-vertex loop: probing a
    // figure-scale workload runs this loop thousands of times, and the
    // per-hop vectors/sets below otherwise reallocate on every vertex.
    let mut proposals: Vec<(usize, usize, CandidatePlan)> = Vec::new();
    // Predecessor arena: all probes' `(edge, component, acc)` triples for
    // the current vertex live contiguously in `pred_buf`; `pred_ranges`
    // maps probe index → its slice. Hop contexts borrow from the arena, so
    // advancing a vertex allocates nothing per probe.
    let mut pred_buf: Vec<(usize, ComponentId, Qos)> = Vec::new();
    let mut pred_ranges: Vec<(usize, usize)> = Vec::new();
    let mut probed: std::collections::HashSet<ComponentId> = std::collections::HashSet::new();
    let mut next_frontier: Vec<Probe> = Vec::new();
    let mut scratch = SelectionScratch::default();

    for &vertex in order {
        let function = request.graph.function(vertex);
        let k = system.candidates(function).len();
        let quota = match budget {
            Some(budget) => budget.clamp(usize::from(k > 0), k.max(1)),
            None => crate::selection::probe_quota(k, config.probing_ratio),
        }
        .min(config.max_live_probes);

        // Every live probe proposes its ranked candidate plans. First
        // gather all probes' assigned predecessors — (edge index,
        // component, acc) — into the arena, then run selection borrowing
        // slices of it.
        proposals.clear();
        pred_buf.clear();
        pred_ranges.clear();
        for probe in &frontier {
            let start = pred_buf.len();
            for (e, &(u, v)) in request.graph.edges().iter().enumerate() {
                if v == vertex {
                    debug_assert!(probe.assignment[u].is_some(), "topological order violated");
                    pred_buf.push((
                        e,
                        probe.assignment[u].expect("predecessor assigned in topo order"),
                        probe.accumulated[u].expect("accumulated set with assignment"),
                    ));
                }
            }
            pred_ranges.push((start, pred_buf.len()));
        }
        for (probe_idx, &(s, e)) in pred_ranges.iter().enumerate() {
            let ctx = HopContext { request, vertex, predecessors: &pred_buf[s..e] };
            let plans = select_candidates_with(
                system,
                board,
                &ctx,
                hop_selection,
                config.probing_ratio,
                config.risk_epsilon,
                rng,
                stats,
                &mut scratch,
            );
            for (rank, plan) in plans.into_iter().enumerate() {
                proposals.push((rank, probe_idx, plan));
            }
        }
        // Fill the per-function quota best-rank-first, breaking rank ties
        // by the proposing probe's accumulated risk; at most one probe is
        // forwarded per distinct candidate.
        proposals.sort_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                let ra = frontier[a.1].worst_accumulated().risk_ratio(&request.qos);
                let rb = frontier[b.1].worst_accumulated().risk_ratio(&request.qos);
                ra.total_cmp(&rb)
            })
        });

        probed.clear();
        next_frontier.clear();
        for (_, probe_idx, plan) in proposals.drain(..) {
            if probed.len() >= quota {
                break;
            }
            if !probed.insert(plan.component) {
                continue; // candidate already probed for this request
            }
            let (s, e) = pred_ranges[probe_idx];
            let ctx = HopContext { request, vertex, predecessors: &pred_buf[s..e] };
            let probe = &frontier[probe_idx];

            // Spawn and forward the probe (one hop message).
            stats.probes_spawned += 1;
            stats.probe_messages += 1;

            // --- transport: the hop message may be dropped.
            if setup.transport.probe_dropped() {
                setup_stats.probes_lost += 1;
                faulted = true;
                continue;
            }

            // --- per-hop processing at the candidate's node, against
            // --- precise local state ---
            let cand_qos = system.effective_component_qos(plan.component);
            let acc = arrival_accumulated(ctx.predecessors, &plan.incoming, cand_qos);
            let demand = request.vertex_demand(system.registry(), vertex);
            let avail = system.node_available(plan.component.node);
            let link_avail = plan
                .incoming
                .iter()
                .fold(f64::INFINITY, |m, (_, p)| m.min(system.virtual_path_available(p)));
            // Eqs. 6–8 with precise values (candidate QoS and link QoS
            // already folded into `acc`, so pass zeros for those).
            if is_unqualified(
                acc,
                Qos::ZERO,
                Qos::ZERO,
                &request.qos,
                &avail,
                &demand,
                link_avail,
                request.bandwidth_kbps,
            ) {
                stats.probes_dropped += 1;
                continue;
            }
            // Transient resource allocation (idempotent per
            // request+component; footnote 7).
            if !system.reserve_component_transient(request.id, plan.component, demand, expiry) {
                stats.probes_dropped += 1;
                continue;
            }
            let mut link_ok = true;
            for (edge, path) in &plan.incoming {
                if !path.is_colocated()
                    && !system.reserve_path_transient(request.id, *edge, path, request.bandwidth_kbps, expiry)
                {
                    link_ok = false;
                    break;
                }
            }
            if !link_ok {
                stats.probes_dropped += 1;
                continue;
            }
            next_frontier.push(probe.extend(vertex, plan.component, &plan.incoming, acc));
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        if frontier.is_empty() {
            break;
        }
    }

    // Step 3: completed probes return to the deputy.
    let mut compositions: Vec<Composition> = frontier
        .into_iter()
        .filter(|p| p.is_complete())
        .filter_map(|p| p.into_composition())
        .collect();
    stats.probes_returned += compositions.len() as u64;

    let mut phi: Vec<f64> = Vec::new();
    if final_selection == FinalSelection::MinCongestion {
        phi.extend(compositions.iter().map(|c| congestion_aggregation(system, request, c)));
    }

    match final_selection {
        FinalSelection::MinCongestion => {
            let mut keyed: Vec<(f64, Composition)> =
                phi.into_iter().zip(compositions).collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            compositions = keyed.into_iter().map(|(_, c)| c).collect();
        }
        FinalSelection::Random => {
            use rand::seq::SliceRandom;
            compositions.shuffle(rng);
        }
    }

    // Step 4 (phase 2): session setup — first composition whose
    // confirmation lands and commits wins. The first commit attempt
    // releases the request's transient holds (confirmation supersedes
    // reservation).
    let mut session = None;
    for composition in compositions {
        let assignment_len = composition.assignment.len() as u64;
        if setup.transport.confirm_lost() {
            setup_stats.confirms_lost += 1;
            // The confirmation vanished in transit; the deputy times
            // out waiting for the ack and gives this attempt up. The
            // winner's leases stay orphaned. With probability
            // `stale_ack` the message was merely trapped and
            // resurfaces later as a duplicate delivery.
            if setup.transport.stale_ack_resurfaces() {
                *pending_stale = Some(composition);
            }
            faulted = true;
            break;
        }
        match system.commit_session(request, composition) {
            Ok(sid) => {
                stats.confirmation_messages += assignment_len;
                session = Some(sid);
                break;
            }
            Err(_) => continue,
        }
    }

    AttemptOutcome { session, faulted }
}
