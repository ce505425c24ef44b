//! The non-probing baselines: **random** and **static** composition.
//!
//! "The random algorithm randomly selects a candidate component for each
//! required function. The static algorithm selects a fixed candidate
//! component for each function." (§4.1). Both build one composition
//! blindly — no state collection, no alternatives — then attempt
//! admission; their low overhead and poor success rate anchor the
//! comparison in Figs. 6 and 7.

use acp_model::prelude::*;
use acp_simcore::SimTime;
use rand::Rng;

use crate::overhead::OverheadStats;

/// Which blind strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlindStrategy {
    /// Uniform random candidate per function.
    Random,
    /// The fixed first (lowest-id) candidate per function.
    Static,
}

/// Result of a blind composition attempt.
#[derive(Debug, Clone)]
pub struct BlindOutcome {
    /// The established session, if admission succeeded.
    pub session: Option<SessionId>,
    /// Message ledger (one probe walking the graph + confirmations).
    pub stats: OverheadStats,
}

/// Composes `request` by picking one candidate per vertex according to
/// `strategy`, then attempting admission.
pub fn blind_compose<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    request: &Request,
    _now: SimTime,
    strategy: BlindStrategy,
    rng: &mut R,
) -> BlindOutcome {
    let mut stats = OverheadStats::new();
    let mut assignment: Vec<Option<ComponentId>> = vec![None; request.graph.len()];
    for &v in request.graph.topological_order() {
        stats.discovery_lookups += 1;
        let candidates = system.candidates(request.graph.function(v));
        if candidates.is_empty() {
            return BlindOutcome { session: None, stats };
        }
        let pick = match strategy {
            BlindStrategy::Random => candidates[rng.gen_range(0..candidates.len())],
            BlindStrategy::Static => *candidates.iter().min().expect("non-empty"),
        };
        assignment[v] = Some(pick);
        // The single setup probe visits the chosen component.
        stats.probe_messages += 1;
        stats.probes_spawned += 1;
    }
    let assignment: Vec<ComponentId> = assignment.into_iter().map(|a| a.expect("all assigned")).collect();

    // Materialise virtual links along the graph edges.
    let mut links = Vec::with_capacity(request.graph.edges().len());
    for &(u, v) in request.graph.edges() {
        match system.virtual_path(assignment[u].node, assignment[v].node) {
            Some(p) => links.push(p),
            None => return BlindOutcome { session: None, stats },
        }
    }
    stats.probes_returned += 1;

    let composition = Composition { assignment, links };
    let len = composition.assignment.len() as u64;
    match system.commit_session(request, composition) {
        Ok(sid) => {
            stats.confirmation_messages += len;
            BlindOutcome { session: Some(sid), stats }
        }
        Err(_) => BlindOutcome { session: None, stats },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 30, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    fn request(sys: &StreamSystem, id: u64) -> Request {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).take(3).collect();
        Request {
            id: RequestId(id),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.2, 1.0),
            bandwidth_kbps: 2.0,
            stream_rate_kbps: 64.0,
            constraints: PlacementConstraints::none(),
            tenant: None,
        }
    }

    #[test]
    fn random_composes_loose_requests() {
        let mut sys = build(1);
        let req = request(&sys, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let out = blind_compose(&mut sys, &req, SimTime::ZERO, BlindStrategy::Random, &mut rng);
        assert!(out.session.is_some());
        assert_eq!(out.stats.probe_messages, 3);
        assert_eq!(out.stats.confirmation_messages, 3);
    }

    #[test]
    fn static_always_picks_same_components() {
        let sys0 = build(2);
        let req = request(&sys0, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sys_a = sys0.clone();
        let a = blind_compose(&mut sys_a, &req, SimTime::ZERO, BlindStrategy::Static, &mut rng);
        let mut sys_b = sys0.clone();
        let b = blind_compose(&mut sys_b, &req, SimTime::ZERO, BlindStrategy::Static, &mut rng);
        let ca = sys_a.session(a.session.unwrap()).unwrap().composition.clone();
        let cb = sys_b.session(b.session.unwrap()).unwrap().composition.clone();
        assert_eq!(ca.assignment, cb.assignment, "static choice is deterministic");
    }

    #[test]
    fn static_saturates_its_fixed_nodes() {
        // Repeatedly composing the same request must eventually fail for
        // the static algorithm — the load concentrates on fixed nodes.
        let mut sys = build(3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut failures = 0;
        for i in 0..200 {
            let mut req = request(&sys, 100 + i);
            req.base_resources = ResourceVector::new(3.0, 20.0);
            let out = blind_compose(&mut sys, &req, SimTime::ZERO, BlindStrategy::Static, &mut rng);
            if out.session.is_none() {
                failures += 1;
            }
        }
        assert!(failures > 0, "fixed components must saturate");
    }

    #[test]
    fn random_spreads_better_than_static() {
        // With identical offered load, random should admit at least as
        // many sessions as static (usually strictly more).
        let sys0 = build(4);
        let mut ok_random = 0;
        let mut ok_static = 0;
        let mut sys_r = sys0.clone();
        let mut sys_s = sys0;
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..150 {
            let mut req = request(&sys_r, 200 + i);
            req.base_resources = ResourceVector::new(3.0, 20.0);
            if blind_compose(&mut sys_r, &req, SimTime::ZERO, BlindStrategy::Random, &mut rng).session.is_some() {
                ok_random += 1;
            }
            if blind_compose(&mut sys_s, &req, SimTime::ZERO, BlindStrategy::Static, &mut rng).session.is_some() {
                ok_static += 1;
            }
        }
        assert!(ok_random >= ok_static, "random {ok_random} vs static {ok_static}");
    }

    #[test]
    fn missing_function_fails() {
        let mut sys = build(5);
        // a function id beyond the registry's hosted set may have no
        // candidates; find one
        let missing = sys.registry().ids().find(|&f| sys.candidates(f).is_empty());
        if let Some(f) = missing {
            let req = Request {
                id: RequestId(9),
                graph: FunctionGraph::path(vec![f]),
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::ZERO,
                bandwidth_kbps: 0.0,
                stream_rate_kbps: 0.0,
                constraints: PlacementConstraints::none(),
                tenant: None,
            };
            let mut rng = StdRng::seed_from_u64(4);
            let out = blind_compose(&mut sys, &req, SimTime::ZERO, BlindStrategy::Random, &mut rng);
            assert!(out.session.is_none());
        }
    }
}
