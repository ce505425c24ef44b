//! Property-based tests for hierarchical state management.

use acp_model::prelude::*;
use acp_simcore::SimTime;
use acp_state::{GlobalStateBoard, GlobalStateConfig};
use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::SeedableRng;

fn build(seed: u64) -> StreamSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let ip = InetConfig { nodes: 150, ..InetConfig::default() }.generate(&mut rng);
    let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 3 }, &mut rng);
    StreamSystem::generate(overlay, FunctionRegistry::with_size(15), &SystemConfig::default(), &mut rng)
}

/// Commits a batch of random single-function sessions; returns ids.
fn random_sessions(system: &mut StreamSystem, seed: u64, count: usize) -> Vec<SessionId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fns: Vec<FunctionId> =
        system.registry().ids().filter(|&f| !system.candidates(f).is_empty()).collect();
    let mut out = Vec::new();
    for i in 0..count {
        let f = fns[rng.gen_range(0..fns.len())];
        let c = system.candidates(f)[rng.gen_range(0..system.candidates(f).len())];
        let request = Request {
            id: RequestId(10_000 + i as u64),
            graph: FunctionGraph::path(vec![f]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(rng.gen_range(0.5..6.0), rng.gen_range(4.0..48.0)),
            bandwidth_kbps: 0.0,
            stream_rate_kbps: 1.0,
            constraints: PlacementConstraints::none(),
            tenant: None,
        };
        let composition = Composition { assignment: vec![c], links: vec![] };
        if let Ok(sid) = system.commit_session(&request, composition) {
            out.push(sid);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The coarse board never drifts more than threshold × capacity from
    /// ground truth immediately after a refresh.
    #[test]
    fn board_error_is_threshold_bounded(seed in 0u64..50, load_seed in any::<u64>(), threshold in 0.01f64..0.5) {
        let mut system = build(seed);
        let mut board = GlobalStateBoard::new(&system, GlobalStateConfig { threshold, ..Default::default() });
        random_sessions(&mut system, load_seed, 30);
        board.refresh_nodes(&system);
        for v in system.overlay().nodes() {
            let truth = system.node_available(v);
            let coarse = board.node_available(v);
            let cap = system.node(v).capacity();
            for (kind, actual) in truth.iter() {
                let published = coarse.get(kind);
                let bound = threshold * cap.get(kind) + 1e-9;
                prop_assert!(
                    (actual - published).abs() <= bound,
                    "{v} {kind}: |{actual} - {published}| > {bound}"
                );
            }
        }
    }

    /// Lower thresholds publish at least as many update messages.
    #[test]
    fn update_volume_is_monotone_in_threshold(seed in 0u64..50, load_seed in any::<u64>()) {
        let msgs = |threshold: f64| {
            let mut system = build(seed);
            let mut board = GlobalStateBoard::new(&system, GlobalStateConfig { threshold, ..Default::default() });
            random_sessions(&mut system, load_seed, 30);
            board.refresh_nodes(&system)
        };
        let strict = msgs(0.01);
        let loose = msgs(0.30);
        prop_assert!(strict >= loose, "θ=0.01 sent {strict} < θ=0.30 sent {loose}");
    }

    /// Refresh is idempotent: a second refresh with unchanged ground
    /// truth sends zero messages.
    #[test]
    fn refresh_is_idempotent(seed in 0u64..50, load_seed in any::<u64>()) {
        let mut system = build(seed);
        let mut board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
        random_sessions(&mut system, load_seed, 20);
        board.refresh_nodes(&system);
        prop_assert_eq!(board.refresh_nodes(&system), 0);
    }

    /// Incremental candidate-index maintenance matches a from-scratch
    /// rebuild of the published per-node lists after arbitrary churn:
    /// session commits and closes (load moves the published QoS through
    /// the load-delay factor), component crashes, migrations (fresh
    /// dense ids), and node failures/recoveries — across thresholds, so
    /// publishes land on some nodes and not others.
    #[test]
    fn candidate_index_matches_rebuilt_oracle(
        seed in 0u64..50,
        churn_seed in any::<u64>(),
        threshold in 0.0f64..0.4,
    ) {
        let mut system = build(seed);
        let mut board = GlobalStateBoard::new(
            &system,
            GlobalStateConfig { threshold, ..Default::default() },
        );
        prop_assert_eq!(board.candidate_index(), &board.rebuilt_index(&system));
        let mut rng = StdRng::seed_from_u64(churn_seed);
        let mut live: Vec<SessionId> = Vec::new();
        let mut next_request = 50_000u64;
        let fns: Vec<FunctionId> =
            system.registry().ids().filter(|&f| !system.candidates(f).is_empty()).collect();
        let mut failed: Vec<OverlayNodeId> = Vec::new();
        for _ in 0..8 {
            match rng.gen_range(0..5) {
                // Commit a batch of single-function sessions.
                0 => {
                    for _ in 0..6 {
                        let f = fns[rng.gen_range(0..fns.len())];
                        let cands = system.candidates(f);
                        if cands.is_empty() {
                            continue;
                        }
                        let c = cands[rng.gen_range(0..cands.len())];
                        let request = Request {
                            id: RequestId(next_request),
                            graph: FunctionGraph::path(vec![f]),
                            qos: QosRequirement::unconstrained(),
                            base_resources: ResourceVector::new(
                                rng.gen_range(0.5..6.0),
                                rng.gen_range(4.0..48.0),
                            ),
                            bandwidth_kbps: 0.0,
                            stream_rate_kbps: 1.0,
                            constraints: PlacementConstraints::none(),
                            tenant: None,
                        };
                        next_request += 1;
                        let composition = Composition { assignment: vec![c], links: vec![] };
                        if let Ok(sid) = system.commit_session(&request, composition) {
                            live.push(sid);
                        }
                    }
                }
                // Close up to half the live sessions.
                1 => {
                    for _ in 0..live.len() / 2 {
                        let sid = live.swap_remove(rng.gen_range(0..live.len()));
                        system.close_session(sid);
                    }
                }
                // Crash a random candidate component.
                2 => {
                    let f = fns[rng.gen_range(0..fns.len())];
                    let cands = system.candidates(f);
                    if !cands.is_empty() {
                        let c = cands[rng.gen_range(0..cands.len())];
                        system.crash_component(c, RepairPolicy::Terminate, SimTime::ZERO);
                    }
                }
                // Migrate a random candidate component (appends a fresh
                // dense id the board must grow into).
                3 => {
                    let f = fns[rng.gen_range(0..fns.len())];
                    let cands = system.candidates(f);
                    if !cands.is_empty() {
                        let c = cands[rng.gen_range(0..cands.len())];
                        let to = OverlayNodeId(rng.gen_range(0..system.node_count()) as u32);
                        let _ = system.migrate_component(c, to);
                    }
                }
                // Fail a node, or recover the longest-failed one.
                _ => {
                    if failed.len() >= 2 || (!failed.is_empty() && rng.gen_bool(0.5)) {
                        system.recover_node(failed.remove(0));
                    } else {
                        let v = OverlayNodeId(rng.gen_range(0..system.node_count()) as u32);
                        if !system.is_node_failed(v) {
                            system.fail_node(v, RepairPolicy::Terminate, SimTime::ZERO);
                            failed.push(v);
                        }
                    }
                }
            }
            board.refresh_nodes(&system);
            prop_assert_eq!(board.candidate_index(), &board.rebuilt_index(&system));
        }
    }

    /// Closing sessions and refreshing brings the board back in sync with
    /// the initial snapshot (conservation through the coarse layer).
    #[test]
    fn board_recovers_after_teardown(seed in 0u64..50, load_seed in any::<u64>()) {
        let mut system = build(seed);
        let mut board = GlobalStateBoard::new(&system, GlobalStateConfig { threshold: 0.0, ..Default::default() });
        let initial: Vec<ResourceVector> =
            system.overlay().nodes().map(|v| board.node_available(v)).collect();
        let sessions = random_sessions(&mut system, load_seed, 20);
        board.refresh_nodes(&system);
        for sid in sessions {
            system.close_session(sid);
        }
        system.expire_transients(SimTime::from_minutes(60));
        board.refresh_nodes(&system);
        for (i, v) in system.overlay().nodes().enumerate() {
            let now = board.node_available(v);
            prop_assert!((now.cpu - initial[i].cpu).abs() < 1e-9);
            prop_assert!((now.memory_mb - initial[i].memory_mb).abs() < 1e-9);
        }
    }
}
