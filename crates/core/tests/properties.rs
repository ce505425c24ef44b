//! Property-based tests of the probing protocol's invariants.

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use acp_state::{GlobalStateBoard, GlobalStateConfig};
use acp_topology::{InetConfig, Overlay, OverlayConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a small system + board from a seed.
fn build(seed: u64) -> (StreamSystem, GlobalStateBoard) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
    let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
    let system = StreamSystem::generate(
        overlay,
        FunctionRegistry::with_size(20),
        &SystemConfig::default(),
        &mut rng,
    );
    let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
    (system, board)
}

/// Builds a random path request over hosted functions.
fn random_request(system: &StreamSystem, seed: u64, id: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut fns: Vec<FunctionId> =
        system.registry().ids().filter(|&f| !system.candidates(f).is_empty()).collect();
    fns.shuffle(&mut rng);
    let len = rng.gen_range(1..=4.min(fns.len()));
    Request {
        id: RequestId(id),
        graph: FunctionGraph::path(fns.into_iter().take(len).collect()),
        qos: QosRequirement::new(
            SimDuration::from_millis(rng.gen_range(50..600)),
            LossRate::from_probability(rng.gen_range(0.01..0.2)),
        ),
        base_resources: ResourceVector::new(rng.gen_range(0.1..4.0), rng.gen_range(1.0..32.0)),
        bandwidth_kbps: rng.gen_range(1.0..200.0),
        stream_rate_kbps: rng.gen_range(10.0..700.0),
        tenant: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the request and probing ratio, probing leaves no
    /// transient residue and, on success, the session's composition is
    /// structurally valid and qualified against the pre-admission state.
    #[test]
    fn probing_is_clean_and_sound(
        sys_seed in 0u64..4,
        req_seed in any::<u64>(),
        alpha in 0.05f64..1.0,
    ) {
        let (system0, board) = build(sys_seed);
        let mut system = system0.clone();
        let request = random_request(&system, req_seed, 1);
        let mut composer = AcpComposer::new(
            ProbingConfig { probing_ratio: alpha, ..ProbingConfig::default() },
            req_seed,
        );
        let out = composer.compose(&mut system, &board, &request, SimTime::ZERO);
        // no transient residue, ever
        for v in system.overlay().nodes() {
            prop_assert_eq!(system.node(v).transient_count(), 0);
        }
        match out.session {
            Some(sid) => {
                let composition = system.session(sid).unwrap().composition.clone();
                prop_assert!(composition.is_shape_valid(&request.graph));
                let mut pre = system0;
                pre.release_request_transients(request.id);
                prop_assert!(pre.qualify(&request, &composition).is_ok());
            }
            None => {
                prop_assert_eq!(system.session_count(), 0);
            }
        }
    }

    /// A higher probing ratio never sends fewer probe messages (same
    /// request, same system, same RNG seed).
    #[test]
    fn probe_traffic_is_monotone_in_alpha(
        sys_seed in 0u64..4,
        req_seed in any::<u64>(),
        lo in 0.05f64..0.5,
        delta in 0.1f64..0.5,
    ) {
        let (system0, board) = build(sys_seed);
        let request = random_request(&system0, req_seed, 2);
        let run = |alpha: f64| {
            let mut system = system0.clone();
            let mut composer = AcpComposer::new(
                ProbingConfig { probing_ratio: alpha, ..ProbingConfig::default() },
                7,
            );
            composer.compose(&mut system, &board, &request, SimTime::ZERO).stats.probes_spawned
        };
        let low = run(lo);
        let high = run((lo + delta).min(1.0));
        prop_assert!(high >= low, "α↑ should probe at least as much: {low} vs {high}");
    }

    /// ACP success implies exhaustive-search success (approximation
    /// soundness), for arbitrary requests.
    #[test]
    fn acp_never_beats_optimal_feasibility(
        sys_seed in 0u64..3,
        req_seed in any::<u64>(),
    ) {
        let (system0, board) = build(sys_seed);
        let request = random_request(&system0, req_seed, 3);
        let mut acp_sys = system0.clone();
        let mut acp = AcpComposer::new(ProbingConfig::default(), 5);
        let acp_ok = acp.compose(&mut acp_sys, &board, &request, SimTime::ZERO).session.is_some();
        if acp_ok {
            let mut opt_sys = system0;
            let mut opt = OptimalComposer::new(OptimalConfig::default());
            let opt_ok = opt.compose(&mut opt_sys, &board, &request, SimTime::ZERO).session.is_some();
            prop_assert!(opt_ok, "optimal must admit whatever ACP admits");
        }
    }

    /// Per-function quota: probes spawned at any single vertex never
    /// exceed ⌈α·k⌉ — verified through the total across a path request
    /// (sum over vertices of per-vertex quotas bounds the spawn count).
    #[test]
    fn quota_bounds_spawned_probes(
        sys_seed in 0u64..4,
        req_seed in any::<u64>(),
        alpha in 0.05f64..1.0,
    ) {
        let (system0, board) = build(sys_seed);
        let mut system = system0.clone();
        let request = random_request(&system, req_seed, 4);
        let quota_sum: u64 = request
            .graph
            .vertices()
            .map(|v| probe_quota(system.candidates(request.graph.function(v)).len(), alpha) as u64)
            .sum();
        let mut composer = AcpComposer::new(
            ProbingConfig { probing_ratio: alpha, ..ProbingConfig::default() },
            9,
        );
        let out = composer.compose(&mut system, &board, &request, SimTime::ZERO);
        prop_assert!(
            out.stats.probes_spawned <= quota_sum,
            "spawned {} exceeds Σ quotas {quota_sum}",
            out.stats.probes_spawned
        );
    }
}
