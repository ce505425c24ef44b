//! Dynamic component migration integrated with composition (the paper's
//! future-work item 3).
//!
//! The scenario: a function's **only** component lives on a node that
//! other sessions have saturated. Every composition needing that function
//! fails — there is simply no room where the component lives. The
//! [`Rebalancer`] migrates the idle component to a cold node; after the
//! coarse global state advertises the new placement, the same request
//! composes.
//!
//! Run with: `cargo run --release --example rebalancing`

use acp_stream::core::{RebalanceConfig, Rebalancer};
use acp_stream::prelude::*;

fn main() {
    let mut config = ScenarioConfig::small(59);
    config.stream_nodes = 30;
    config.functions = 40; // scarce candidate pools: k ≈ 2
    config.system.components_per_node = (2, 3);
    let (mut system, mut board, _library) = build_system(&config);

    // 1. Find a function with exactly one deployed component whose node
    //    hosts at least one other component (so the node stays loadable).
    let (scarce_fn, scarce_id) = system
        .registry()
        .ids()
        .filter_map(|f| {
            let cands = system.candidates(f);
            (cands.len() == 1).then(|| (f, cands[0]))
        })
        .find(|&(_, id)| system.node(id.node).component_count() >= 2)
        .expect("a 40-function catalogue over 30 small nodes has singleton functions");
    let hot = scarce_id.node;
    let scarce_name = system.registry().profile(scarce_fn).name.clone();
    println!("scarce function: {scarce_name} — single component {scarce_id} on node v{}", hot.0);

    // 2. Saturate the hosting node through a *different* component on it.
    let other = system
        .node(hot)
        .components()
        .find(|c| c.id != scarce_id)
        .expect("checked component_count >= 2")
        .clone();
    let cap = system.node(hot).capacity();
    let factor = system.registry().profile(other.function).demand_factor;
    let saturator = Request {
        id: RequestId(1),
        graph: FunctionGraph::path(vec![other.function]),
        qos: QosRequirement::unconstrained(),
        base_resources: ResourceVector::new(0.97 * cap.cpu / factor, 0.97 * cap.memory_mb / factor),
        bandwidth_kbps: 0.0,
        stream_rate_kbps: 1.0,
        tenant: None,
    };
    let composition = Composition { assignment: vec![other.id], links: vec![] };
    system.commit_session(&saturator, composition).expect("saturating session commits");
    board.refresh_nodes(&system);
    println!(
        "node v{} saturated by a co-hosted session: available {}",
        hot.0,
        system.node_available(hot)
    );

    // 3. A request needing the scarce function now fails — its only
    //    candidate has no head-room.
    let request = Request {
        id: RequestId(2),
        graph: FunctionGraph::path(vec![scarce_fn]),
        qos: QosRequirement::unconstrained(),
        base_resources: ResourceVector::new(8.0, 64.0),
        bandwidth_kbps: 10.0,
        stream_rate_kbps: 64.0,
        tenant: None,
    };
    let mut acp = AcpComposer::new(ProbingConfig::default(), 7);
    let before = acp.compose(&mut system, &board, &request, SimTime::ZERO);
    println!("\ncompose({scarce_name}) before migration: {}", if before.session.is_some() { "ADMITTED" } else { "FAILED (no room at the only candidate)" });

    // 4. Rebalance: the idle scarce component migrates to a cold node…
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_utilization_gap: 0.3,
        max_migrations_per_round: 4,
    });
    let moves = rebalancer.rebalance_round(&mut system);
    for m in &moves {
        println!("migrated {} -> {}", m.from, m.to);
    }
    assert!(!moves.is_empty(), "the saturated node has idle components to move");

    // …but until the coarse state advertises it, ACP cannot see it:
    let mid = acp.compose(&mut system, &board, &request, SimTime::ZERO);
    println!(
        "compose({scarce_name}) after migration, before state update: {}",
        if mid.session.is_some() { "ADMITTED" } else { "FAILED (placement not yet advertised)" }
    );

    // 5. The next threshold-triggered update publishes the new placement.
    let msgs = board.refresh_nodes(&system);
    println!("coarse-grain state update: {msgs} message(s)");
    let after = acp.compose(&mut system, &board, &request, SimTime::ZERO);
    println!(
        "compose({scarce_name}) after state update: {}",
        if after.session.is_some() { "ADMITTED" } else { "FAILED" }
    );

    assert!(before.session.is_none() && after.session.is_some());
    println!("\nmigration + coarse-state advertisement restored composability without touching any live session.");
}
