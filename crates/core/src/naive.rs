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
use acp_state::GlobalStateBoard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::algorithms::{ComposeOutcome, Composer};

/// The random and static baselines as one composer: they differ only in
/// the pick, which the constructor pins. The message ledger counts one
/// probe walking the graph plus the confirmations.
#[derive(Debug)]
pub struct BlindComposer {
    /// The random pick's stream; `None` picks the fixed lowest-id
    /// candidate.
    rng: Option<StdRng>,
}

impl BlindComposer {
    /// The random baseline: a uniform random candidate per function.
    pub fn random(seed: u64) -> Self {
        BlindComposer { rng: Some(StdRng::seed_from_u64(seed)) }
    }

    /// The static baseline: the fixed first (lowest-id) candidate per
    /// function.
    pub fn fixed() -> Self {
        BlindComposer { rng: None }
    }

    /// Picks one candidate per vertex, then attempts admission.
    fn commit(&mut self, system: &mut StreamSystem, request: &Request) -> ComposeOutcome {
        let mut out = ComposeOutcome::default();
        let mut assignment: Vec<Option<ComponentId>> = vec![None; request.graph.len()];
        for &v in request.graph.topological_order() {
            out.stats.discovery_lookups += 1;
            let candidates = system.candidates(request.graph.function(v));
            if candidates.is_empty() {
                return out;
            }
            let pick = match self.rng.as_mut() {
                Some(rng) => candidates[rng.gen_range(0..candidates.len())],
                None => *candidates.iter().min().expect("non-empty"),
            };
            assignment[v] = Some(pick);
            // The single setup probe visits the chosen component.
            out.stats.probe_messages += 1;
            out.stats.probes_spawned += 1;
        }
        let assignment: Vec<ComponentId> = assignment.into_iter().map(|a| a.expect("all assigned")).collect();

        // Materialise virtual links along the graph edges.
        let mut links = Vec::with_capacity(request.graph.edges().len());
        for &(u, v) in request.graph.edges() {
            match system.virtual_path(assignment[u].node, assignment[v].node) {
                Some(p) => links.push(p),
                None => return out,
            }
        }
        out.stats.probes_returned += 1;

        let composition = Composition { assignment, links };
        let len = composition.assignment.len() as u64;
        if let Ok(sid) = system.commit_session(request, composition) {
            out.stats.confirmation_messages += len;
            out.session = Some(sid);
        }
        out
    }
}

impl Composer for BlindComposer {
    fn name(&self) -> &'static str {
        if self.rng.is_some() {
            "random"
        } else {
            "static"
        }
    }

    fn compose(
        &mut self,
        system: &mut StreamSystem,
        _board: &GlobalStateBoard,
        request: &Request,
        _now: SimTime,
    ) -> ComposeOutcome {
        self.commit(system, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};

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
            tenant: None,
        }
    }

    #[test]
    fn random_composes_loose_requests() {
        let mut sys = build(1);
        let req = request(&sys, 1);
        let out = BlindComposer::random(9).commit(&mut sys, &req);
        assert!(out.session.is_some());
        assert_eq!(out.stats.probe_messages, 3);
        assert_eq!(out.stats.confirmation_messages, 3);
    }

    #[test]
    fn static_always_picks_same_components() {
        let sys0 = build(2);
        let req = request(&sys0, 2);
        let mut sys_a = sys0.clone();
        let a = BlindComposer::fixed().commit(&mut sys_a, &req);
        let mut sys_b = sys0.clone();
        let b = BlindComposer::fixed().commit(&mut sys_b, &req);
        let ca = sys_a.session(a.session.unwrap()).unwrap().composition.clone();
        let cb = sys_b.session(b.session.unwrap()).unwrap().composition.clone();
        assert_eq!(ca.assignment, cb.assignment, "static choice is deterministic");
    }

    #[test]
    fn static_saturates_its_fixed_nodes() {
        // Repeatedly composing the same request must eventually fail for
        // the static algorithm — the load concentrates on fixed nodes.
        let mut sys = build(3);
        let mut fixed = BlindComposer::fixed();
        let mut failures = 0;
        for i in 0..200 {
            let mut req = request(&sys, 100 + i);
            req.base_resources = ResourceVector::new(3.0, 20.0);
            let out = fixed.commit(&mut sys, &req);
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
        let (mut random, mut fixed) = (BlindComposer::random(3), BlindComposer::fixed());
        for i in 0..150 {
            let mut req = request(&sys_r, 200 + i);
            req.base_resources = ResourceVector::new(3.0, 20.0);
            if random.commit(&mut sys_r, &req).session.is_some() {
                ok_random += 1;
            }
            if fixed.commit(&mut sys_s, &req).session.is_some() {
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
                tenant: None,
            };
            let out = BlindComposer::random(4).commit(&mut sys, &req);
            assert!(out.session.is_none());
        }
    }
}
