//! Probe messages.
//!
//! A probe explores one candidate composition, hop by hop, collecting
//! fine-grain (precise) QoS/resource state along the way (§3.3). For DAG
//! requests the probe generalises from "component path" to "partial
//! assignment over a topological prefix": when it reaches the merge
//! function it already carries both branch choices, which is exactly the
//! merged component graph the deputy would otherwise assemble from
//! per-path probes (§3.3 step 3).
//!
//! [`Probe`] is a probe as a self-contained value. The protocol does not
//! move its probes around in this form — a round keeps them as a
//! parent-linked tree in caller-owned storage
//! ([`ProbeScratch`](crate::protocol::ProbeScratch), DESIGN.md §3k) —
//! but its `#[cfg(test)]` reference round does, and the two are held
//! equal.

use acp_model::prelude::*;
use acp_topology::SharedPath;

/// The state a probe has accumulated while traversing candidate
/// components in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Component chosen per function-graph vertex (`None` = not yet
    /// reached).
    pub assignment: Vec<Option<ComponentId>>,
    /// Virtual link chosen per function-graph edge. Shared with the
    /// overlay's path memo, so cloning a probe (which happens on every
    /// hop extension) bumps reference counts instead of copying paths.
    pub links: Vec<Option<SharedPath>>,
    /// Accumulated critical-path QoS at each assigned vertex: the
    /// per-metric maximum over incoming branches of
    /// `acc(pred) + q(link) + q(candidate)` — precise values collected at
    /// each hop.
    pub accumulated: Vec<Option<Qos>>,
    /// Hops travelled so far.
    pub hops: u64,
}

impl Probe {
    /// A fresh probe for a request over `graph` (nothing assigned).
    pub fn initial(graph: &FunctionGraph) -> Self {
        Probe {
            assignment: vec![None; graph.len()],
            links: vec![None; graph.edges().len()],
            accumulated: vec![None; graph.len()],
            hops: 0,
        }
    }

    /// Number of vertices assigned so far.
    fn assigned_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// True when every vertex has been assigned.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(|a| a.is_some())
    }

    /// The worst accumulated QoS over assigned vertices (per-metric
    /// maximum) — the probe's current risk position.
    pub fn worst_accumulated(&self) -> Qos {
        let mut worst = Qos::ZERO;
        for q in self.accumulated.iter().flatten() {
            if q.delay > worst.delay {
                worst.delay = q.delay;
            }
            if q.loss > worst.loss {
                worst.loss = q.loss;
            }
        }
        worst
    }

    /// Extends the probe: assigns `component` to `vertex` with the given
    /// incoming virtual links (one per predecessor edge index) and the
    /// accumulated QoS measured at arrival.
    ///
    /// # Panics
    ///
    /// Panics if the vertex is already assigned or an edge link is set
    /// twice.
    pub fn extend(
        &self,
        vertex: VertexId,
        component: ComponentId,
        incoming: &[(usize, SharedPath)],
        arrival_accumulated: Qos,
    ) -> Probe {
        assert!(self.assignment[vertex].is_none(), "vertex {vertex} assigned twice");
        let mut next = self.clone();
        next.assignment[vertex] = Some(component);
        next.accumulated[vertex] = Some(arrival_accumulated);
        for (edge, path) in incoming {
            assert!(next.links[*edge].is_none(), "edge {edge} linked twice");
            next.links[*edge] = Some(path.clone());
        }
        next.hops += 1;
        next
    }

    /// Converts a complete probe into the composition it explored.
    /// Returns `None` when the probe is incomplete.
    pub fn into_composition(self) -> Option<Composition> {
        if !self.is_complete() || self.links.iter().any(|l| l.is_none()) {
            return None;
        }
        Some(Composition {
            assignment: self.assignment.into_iter().map(|a| a.expect("checked complete")).collect(),
            links: self.links.into_iter().map(|l| l.expect("checked complete")).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;
    use acp_topology::{OverlayNodeId, OverlayPath};

    fn graph() -> FunctionGraph {
        FunctionGraph::path(vec![FunctionId(0), FunctionId(1)])
    }

    fn cid(node: u32) -> ComponentId {
        ComponentId::new(OverlayNodeId(node), 0)
    }

    fn qos_ms(ms: u64) -> Qos {
        Qos::from_delay(SimDuration::from_millis(ms))
    }

    #[test]
    fn initial_probe_is_empty() {
        let g = graph();
        let p = Probe::initial(&g);
        assert_eq!(p.assigned_count(), 0);
        assert!(!p.is_complete());
        assert_eq!(p.worst_accumulated(), Qos::ZERO);
        assert_eq!(p.hops, 0);
    }

    #[test]
    fn extend_and_complete() {
        let g = graph();
        let p = Probe::initial(&g).extend(0, cid(0), &[], qos_ms(5));
        assert_eq!(p.assigned_count(), 1);
        assert_eq!(p.hops, 1);
        let path = SharedPath::new(OverlayPath::colocated(OverlayNodeId(0)));
        let p2 = p.extend(1, cid(0), &[(0, path)], qos_ms(9));
        assert!(p2.is_complete());
        assert_eq!(p2.worst_accumulated(), qos_ms(9));
        let comp = p2.into_composition().unwrap();
        assert_eq!(comp.assignment, vec![cid(0), cid(0)]);
        assert_eq!(comp.links.len(), 1);
    }

    #[test]
    fn incomplete_probe_yields_no_composition() {
        let g = graph();
        let p = Probe::initial(&g).extend(0, cid(0), &[], qos_ms(5));
        assert!(p.into_composition().is_none());
    }

    #[test]
    fn worst_accumulated_mixes_metrics() {
        let g = FunctionGraph::split_merge(
            vec![FunctionId(0)],
            vec![FunctionId(1)],
            vec![FunctionId(2)],
            FunctionId(3),
            vec![],
        );
        let mut p = Probe::initial(&g);
        p.assignment[1] = Some(cid(1));
        p.accumulated[1] = Some(Qos::new(SimDuration::from_millis(10), LossRate::from_probability(0.01)));
        p.assignment[2] = Some(cid(2));
        p.accumulated[2] = Some(Qos::new(SimDuration::from_millis(5), LossRate::from_probability(0.05)));
        let worst = p.worst_accumulated();
        assert_eq!(worst.delay, SimDuration::from_millis(10));
        assert!((worst.loss.probability() - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assignment_panics() {
        let g = graph();
        let p = Probe::initial(&g).extend(0, cid(0), &[], qos_ms(5));
        let _ = p.extend(0, cid(1), &[], qos_ms(5));
    }
}
