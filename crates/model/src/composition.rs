//! Component compositions (component graphs).
//!
//! A [`Composition`] is the output of a composition algorithm: one
//! component per function-graph vertex plus the virtual link (overlay
//! path) realising every dependency edge — the paper's component graph
//! `λ = (C, L)`.

use acp_topology::{OverlayLinkId, SharedPath};

use crate::component::ComponentId;
use crate::fgraph::{FunctionGraph, VertexId};
use crate::qos::Qos;

/// A concrete component graph `λ`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Composition {
    /// Component chosen for each function-graph vertex (index-aligned
    /// with the request graph's vertices).
    pub assignment: Vec<ComponentId>,
    /// Virtual link for each dependency edge (index-aligned with
    /// [`FunctionGraph::edges`]). Shared with the overlay's path memo:
    /// cloning a composition bumps reference counts instead of copying
    /// node/link vectors.
    pub links: Vec<SharedPath>,
}

impl Composition {
    /// Validates shape against `graph` (one component per vertex, one
    /// virtual link per edge, link endpoints match the assignment).
    pub fn is_shape_valid(&self, graph: &FunctionGraph) -> bool {
        if self.assignment.len() != graph.len() || self.links.len() != graph.edges().len() {
            return false;
        }
        graph.edges().iter().zip(&self.links).all(|(&(u, v), path)| {
            let from = self.assignment[u].node;
            let to = self.assignment[v].node;
            if from == to {
                path.is_colocated() && path.nodes == [from]
            } else {
                path.nodes.first() == Some(&from) && path.nodes.last() == Some(&to)
            }
        })
    }

    /// The QoS contribution of the virtual link on edge `e`: network delay
    /// plus composed loss.
    pub fn link_qos(&self, e: usize) -> Qos {
        Qos::of_link(&self.links[e])
    }

    /// Overlay links used, with multiplicity: the length of
    /// [`Self::overlay_links`].
    pub(crate) fn overlay_hops(&self) -> usize {
        self.links.iter().map(|p| p.hop_count()).sum()
    }

    /// Iterates over every overlay link used, with multiplicity, paired
    /// with the graph edge using it.
    pub(crate) fn overlay_links(&self) -> impl Iterator<Item = (usize, OverlayLinkId)> + '_ {
        self.links
            .iter()
            .enumerate()
            .flat_map(|(e, p)| p.links.iter().map(move |&l| (e, l)))
    }

    /// End-to-end QoS: the worst (per-metric maximum) over all
    /// source→sink branch paths — the critical path per metric.
    ///
    /// Computed as the arrival QoS at the sink, each vertex taking the
    /// worst of its incoming branches before adding its own: additions
    /// are monotone, so that is the maximum over the paths' sums (added
    /// in the same source-to-sink order) without enumerating — or
    /// allocating — the paths.
    pub(crate) fn aggregated_qos<F>(&self, graph: &FunctionGraph, mut component_qos: F) -> Qos
    where
        F: FnMut(ComponentId) -> Qos,
    {
        let mut worst = Qos::ZERO;
        worst.raise_to(self.arrival_qos(graph, graph.sink(), &mut component_qos));
        worst
    }

    /// QoS accumulated from the source up to and including `v`, along
    /// the worst branch per metric. Recurses over predecessors; a
    /// vertex shared by several branches is revisited once per branch,
    /// as enumerating the paths would.
    fn arrival_qos<F>(&self, graph: &FunctionGraph, v: VertexId, component_qos: &mut F) -> Qos
    where
        F: FnMut(ComponentId) -> Qos,
    {
        let mut arrival = Qos::ZERO;
        for (e, u) in graph.incoming(v) {
            arrival.raise_to(self.arrival_qos(graph, u, component_qos) + self.link_qos(e));
        }
        arrival + component_qos(self.assignment[v])
    }
}

impl std::fmt::Display for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "λ[")?;
        for (i, c) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "] ({} vlinks, {} overlay hops)", self.links.len(), self.overlay_hops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;
    use acp_topology::{OverlayNodeId, OverlayPath};
    use crate::function::FunctionId;

    fn comp(node: u32, slot: u16) -> ComponentId {
        ComponentId::new(OverlayNodeId(node), slot)
    }

    fn link_path(from: u32, to: u32, ms: u64, loss: f64) -> SharedPath {
        SharedPath::new(OverlayPath::new(
            vec![OverlayNodeId(from), OverlayNodeId(to)],
            vec![OverlayLinkId(0)],
            SimDuration::from_millis(ms),
            1_000.0,
            loss,
        ))
    }

    fn qos_ms(ms: u64) -> Qos {
        Qos::from_delay(SimDuration::from_millis(ms))
    }

    /// QoS summed along one source→sink vertex path, components and
    /// links in order: what `aggregated_qos` must be the maximum of.
    fn path_qos(
        c: &Composition,
        graph: &FunctionGraph,
        path: &[VertexId],
        component_qos: impl Fn(ComponentId) -> Qos,
    ) -> Qos {
        let mut total = Qos::ZERO;
        for (i, &v) in path.iter().enumerate() {
            total += component_qos(c.assignment[v]);
            if let Some(&u) = path.get(i + 1) {
                let (e, _) = graph.incoming(u).find(|&(_, from)| from == v).expect("path follows graph edges");
                total += c.link_qos(e);
            }
        }
        total
    }

    #[test]
    fn shape_validation() {
        let g = FunctionGraph::path(vec![FunctionId(0), FunctionId(1)]);
        let good = Composition {
            assignment: vec![comp(0, 0), comp(1, 0)],
            links: vec![link_path(0, 1, 5, 0.0)],
        };
        assert!(good.is_shape_valid(&g));

        let wrong_endpoint = Composition {
            assignment: vec![comp(0, 0), comp(2, 0)],
            links: vec![link_path(0, 1, 5, 0.0)],
        };
        assert!(!wrong_endpoint.is_shape_valid(&g));

        let missing_link = Composition { assignment: vec![comp(0, 0), comp(1, 0)], links: vec![] };
        assert!(!missing_link.is_shape_valid(&g));
    }

    #[test]
    fn display_is_informative() {
        let c = Composition {
            assignment: vec![comp(0, 0), comp(1, 0)],
            links: vec![link_path(0, 1, 5, 0.0)],
        };
        let text = c.to_string();
        assert!(text.contains("c0.0"));
        assert!(text.contains("c1.0"));
        assert!(text.contains("1 vlinks"));
    }

    #[test]
    fn colocated_shape() {
        let g = FunctionGraph::path(vec![FunctionId(0), FunctionId(1)]);
        let c = Composition {
            assignment: vec![comp(3, 0), comp(3, 1)],
            links: vec![SharedPath::new(OverlayPath::colocated(OverlayNodeId(3)))],
        };
        assert!(c.is_shape_valid(&g));
    }

    #[test]
    fn aggregated_qos_takes_critical_path() {
        // split-merge: v0 -> {v1 | v2} -> v3
        let g = FunctionGraph::split_merge(
            vec![FunctionId(0)],
            vec![FunctionId(1)],
            vec![FunctionId(2)],
            FunctionId(3),
            vec![],
        );
        // branch via v1 slower than via v2
        let comp_qos = |c: ComponentId| match c.node.0 {
            1 => qos_ms(50),
            _ => qos_ms(1),
        };
        // edges: (0,1), (0,2), (1,3), (2,3) — construction order
        let c = Composition {
            assignment: vec![comp(0, 0), comp(1, 0), comp(2, 0), comp(3, 0)],
            links: vec![
                link_path(0, 1, 1, 0.0),
                link_path(0, 2, 1, 0.0),
                link_path(1, 3, 1, 0.0),
                link_path(2, 3, 1, 0.0),
            ],
        };
        let q = c.aggregated_qos(&g, comp_qos);
        // slow branch: 1 + 1 + 50 + 1 + 1 = 54
        assert_eq!(q.delay, SimDuration::from_millis(54));
    }

    /// The critical path as it was defined: every source→sink path
    /// enumerated, summed, and the per-metric worst kept. The recursion
    /// must agree to the bit, on shapes where branches share vertices
    /// and where the worst delay and the worst loss take different ways.
    #[test]
    fn aggregated_qos_matches_the_path_enumeration() {
        use rand::{Rng, SeedableRng};
        let f = FunctionId;
        let diamonds = FunctionGraph::new(
            (0..7).map(f).collect(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        );
        let graphs = [
            FunctionGraph::path(vec![f(0), f(1), f(2), f(3)]),
            FunctionGraph::split_merge(vec![f(0)], vec![f(1), f(2)], vec![f(3)], f(4), vec![f(5)]),
            FunctionGraph::split_merge(vec![f(0), f(1)], vec![f(2)], vec![f(3), f(4)], f(5), vec![]),
            diamonds,
            FunctionGraph::path(vec![f(0)]),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for round in 0..200 {
            let graph = &graphs[round % graphs.len()];
            let sample = |rng: &mut rand::rngs::StdRng| {
                // Zero loss is `-0.0` in the additive domain: keep it in.
                let loss = if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..0.2) };
                (rng.gen_range(0..40_000u64), loss)
            };
            let component: Vec<Qos> = graph
                .vertices()
                .map(|_| {
                    let (us, loss) = sample(&mut rng);
                    Qos::new(SimDuration::from_micros(us), crate::qos::LossRate::from_probability(loss))
                })
                .collect();
            let c = Composition {
                assignment: graph.vertices().map(|v| comp(v as u32, 0)).collect(),
                links: graph
                    .edges()
                    .iter()
                    .map(|&(u, v)| {
                        let (us, loss) = sample(&mut rng);
                        SharedPath::new(OverlayPath::new(
                            vec![OverlayNodeId(u as u32), OverlayNodeId(v as u32)],
                            vec![OverlayLinkId(0)],
                            SimDuration::from_micros(us),
                            1_000.0,
                            loss,
                        ))
                    })
                    .collect(),
            };
            let qos_of = |id: ComponentId| component[id.node.index()];
            let mut want = Qos::ZERO;
            for path in graph.source_to_sink_paths() {
                let q = path_qos(&c, graph, &path, qos_of);
                if q.delay > want.delay {
                    want.delay = q.delay;
                }
                if q.loss > want.loss {
                    want.loss = q.loss;
                }
            }
            let got = c.aggregated_qos(graph, qos_of);
            assert_eq!(got.delay, want.delay, "round {round}");
            assert_eq!(
                got.loss.log_survival().to_bits(),
                want.loss.log_survival().to_bits(),
                "round {round}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn overlay_links_enumerates_with_multiplicity() {
        let _g = FunctionGraph::path(vec![FunctionId(0), FunctionId(1), FunctionId(2)]);
        let mut p2 = OverlayPath::clone(&link_path(1, 2, 3, 0.0));
        p2.links = vec![OverlayLinkId(1), OverlayLinkId(2)];
        p2.nodes = vec![OverlayNodeId(1), OverlayNodeId(9), OverlayNodeId(2)];
        let c = Composition {
            assignment: vec![comp(0, 0), comp(1, 0), comp(2, 0)],
            links: vec![link_path(0, 1, 5, 0.0), SharedPath::new(p2)],
        };
        let used: Vec<_> = c.overlay_links().collect();
        assert_eq!(used, vec![(0, OverlayLinkId(0)), (1, OverlayLinkId(1)), (1, OverlayLinkId(2))]);
    }
}
