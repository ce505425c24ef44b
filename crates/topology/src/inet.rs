//! Degree-based power-law Internet topology generation.
//!
//! The paper generates its IP-layer network with Inet-3.0 (Winick & Jamin,
//! 2002): a 3 200-node graph whose degree distribution follows the
//! power laws observed in BGP snapshots. Inet-3.0 itself is a C program fed
//! with empirical frequency tables; this module implements the same
//! *construction recipe* from first principles:
//!
//! 1. draw a degree sequence from a Pareto tail
//!    `P(D > d) ∝ d^(1-α)` (frequency exponent `α ≈ 2.2`),
//! 2. connect the nodes into a spanning tree by degree-proportional
//!    preferential attachment (this reproduces the "connect the top-degree
//!    core first" step and guarantees connectivity),
//! 3. match the remaining degree *stubs* pairwise, again proportionally to
//!    outstanding stubs, rejecting self-loops and parallel edges.
//!
//! Link attributes (delay, bandwidth, loss) are drawn uniformly from
//! configurable ranges, as the paper does ("initial resource capacities and
//! QoS states ... are uniformly distributed within certain range based on
//! the real-world measurements").

use rand::Rng;

use acp_simcore::SimDuration;

use crate::graph::{Graph, LinkProps, NodeId};

/// Configuration for the power-law topology generator.
#[derive(Debug, Clone, PartialEq)]
pub struct InetConfig {
    /// Number of IP-layer nodes (paper: 3 200).
    pub nodes: usize,
    /// Power-law frequency exponent `α` (Inet default ≈ 2.2).
    pub alpha: f64,
    /// Minimum node degree in the drawn sequence.
    pub min_degree: usize,
    /// Hard cap on any node's target degree, as a fraction of `nodes`.
    pub max_degree_fraction: f64,
    /// Per-link delay range in milliseconds, sampled uniformly.
    pub delay_ms: (u64, u64),
    /// Per-link capacity range in kbit/s, sampled uniformly.
    pub bandwidth_kbps: (f64, f64),
    /// Per-link loss-rate range, sampled uniformly.
    pub loss_rate: (f64, f64),
}

impl Default for InetConfig {
    fn default() -> Self {
        InetConfig {
            nodes: 3_200,
            alpha: 2.2,
            min_degree: 1,
            max_degree_fraction: 0.05,
            delay_ms: (1, 20),
            bandwidth_kbps: (20_000.0, 100_000.0),
            loss_rate: (0.0, 0.001),
        }
    }
}

impl InetConfig {
    /// Generates a connected power-law graph.
    ///
    /// The result is deterministic in `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `alpha <= 1`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        assert!(self.nodes >= 2, "need at least two nodes");
        assert!(self.alpha > 1.0, "power-law exponent must exceed 1");

        let degrees = self.sample_degree_sequence(rng);
        let mut graph = Graph::new(self.nodes);
        // Remaining stubs per node; the spanning tree consumes some.
        let mut stubs: Vec<i64> = degrees.iter().map(|&d| d as i64).collect();

        self.build_spanning_tree(&mut graph, &mut stubs, rng);
        self.match_remaining_stubs(&mut graph, &mut stubs, rng);
        graph
    }

    /// Draws the target degree sequence (sorted descending).
    fn sample_degree_sequence<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let max_degree = ((self.nodes as f64 * self.max_degree_fraction) as usize).max(self.min_degree + 1);
        let shape = self.alpha - 1.0; // Pareto CCDF exponent
        let mut degrees: Vec<usize> = (0..self.nodes)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let d = self.min_degree as f64 * u.powf(-1.0 / shape);
                (d.floor() as usize).clamp(self.min_degree, max_degree)
            })
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        degrees
    }

    /// Connects all nodes into a tree; node `i` attaches to an existing
    /// node chosen proportionally to its remaining stubs.
    fn build_spanning_tree<R: Rng + ?Sized>(&self, graph: &mut Graph, stubs: &mut [i64], rng: &mut R) {
        for i in 1..self.nodes {
            // Weighted choice among nodes [0, i) by max(stubs, 1) so nodes
            // that exhausted their stubs can still be picked as a last
            // resort (keeps the tree construction total).
            let total: i64 = stubs[..i].iter().map(|&s| s.max(1)).sum();
            let mut pick = rng.gen_range(0..total);
            let mut target = 0usize;
            for (j, &s) in stubs[..i].iter().enumerate() {
                let w = s.max(1);
                if pick < w {
                    target = j;
                    break;
                }
                pick -= w;
            }
            graph.add_edge(NodeId(i as u32), NodeId(target as u32), self.sample_props(rng));
            stubs[i] -= 1;
            stubs[target] -= 1;
        }
    }

    /// Pairwise matches leftover stubs, preferring high-stub nodes.
    fn match_remaining_stubs<R: Rng + ?Sized>(&self, graph: &mut Graph, stubs: &mut [i64], rng: &mut R) {
        let mut open: Vec<usize> = (0..self.nodes).filter(|&i| stubs[i] > 0).collect();
        // Bounded retries keep generation O(E); a handful of unmatchable
        // stubs at the end is expected and harmless (Inet drops them too).
        let mut retries = 0usize;
        let max_retries = 20 * self.nodes;
        while open.len() > 1 && retries < max_retries {
            // Pick two distinct endpoints, weighted by outstanding stubs.
            let total: i64 = open.iter().map(|&i| stubs[i]).sum();
            let a = Self::weighted_pick(&open, stubs, total, rng);
            let b = Self::weighted_pick(&open, stubs, total, rng);
            if a == b || graph.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                retries += 1;
                continue;
            }
            graph.add_edge(NodeId(a as u32), NodeId(b as u32), self.sample_props(rng));
            stubs[a] -= 1;
            stubs[b] -= 1;
            open.retain(|&i| stubs[i] > 0);
        }
    }

    fn weighted_pick<R: Rng + ?Sized>(open: &[usize], stubs: &[i64], total: i64, rng: &mut R) -> usize {
        let mut pick = rng.gen_range(0..total.max(1));
        for &i in open {
            if pick < stubs[i] {
                return i;
            }
            pick -= stubs[i];
        }
        *open.last().expect("open list is non-empty")
    }

    fn sample_props<R: Rng + ?Sized>(&self, rng: &mut R) -> LinkProps {
        let delay_ms = if self.delay_ms.0 == self.delay_ms.1 {
            self.delay_ms.0
        } else {
            rng.gen_range(self.delay_ms.0..=self.delay_ms.1)
        };
        let bw = if self.bandwidth_kbps.0 == self.bandwidth_kbps.1 {
            self.bandwidth_kbps.0
        } else {
            rng.gen_range(self.bandwidth_kbps.0..self.bandwidth_kbps.1)
        };
        let loss = if self.loss_rate.0 == self.loss_rate.1 {
            self.loss_rate.0
        } else {
            rng.gen_range(self.loss_rate.0..self.loss_rate.1)
        };
        LinkProps::new(SimDuration::from_millis(delay_ms), bw, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config(nodes: usize) -> InetConfig {
        InetConfig { nodes, ..InetConfig::default() }
    }

    #[test]
    fn generates_requested_node_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = small_config(100).generate(&mut rng);
        assert_eq!(g.node_count(), 100);
    }

    #[test]
    fn result_is_connected() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = small_config(300).generate(&mut rng);
            assert!(g.is_connected(), "seed {seed} produced a disconnected graph");
        }
    }

    /// The degree sequence, sorted descending.
    fn degree_sequence(g: &Graph) -> Vec<usize> {
        let mut ds: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        ds.sort_unstable_by(|a, b| b.cmp(a));
        ds
    }

    #[test]
    fn is_deterministic_in_rng() {
        let g1 = small_config(150).generate(&mut StdRng::seed_from_u64(9));
        let g2 = small_config(150).generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(degree_sequence(&g1), degree_sequence(&g2));
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = small_config(1_000).generate(&mut rng);
        let ds = degree_sequence(&g);
        let top = ds[0];
        let median = ds[ds.len() / 2];
        // Power-law graphs have hubs far above the median degree.
        assert!(top >= 8 * median.max(1), "top degree {top} vs median {median}");
        // ...while most nodes have small degree.
        let small = ds.iter().filter(|&&d| d <= 2).count();
        assert!(small * 2 > ds.len(), "expected majority of low-degree nodes");
    }

    #[test]
    fn paper_scale_generation_succeeds() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = InetConfig::default().generate(&mut rng);
        assert_eq!(g.node_count(), 3_200);
        assert!(g.is_connected());
        // Tree has n-1 edges; stub matching should add a meaningful surplus.
        assert!(g.edge_count() > g.node_count());
    }

    #[test]
    fn link_props_respect_ranges() {
        let cfg = InetConfig { nodes: 50, delay_ms: (5, 10), bandwidth_kbps: (1_000.0, 2_000.0), loss_rate: (0.0, 0.01), ..InetConfig::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let g = cfg.generate(&mut rng);
        for e in 0..g.edge_count() {
            let p = g.props(crate::graph::EdgeId(e as u32));
            let ms = p.delay.as_secs_f64() * 1e3;
            assert!((5.0..=10.0).contains(&ms));
            assert!((1_000.0..2_000.0).contains(&p.bandwidth_kbps));
            assert!((0.0..0.01).contains(&p.loss_rate));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_graphs() {
        let _ = small_config(1).generate(&mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn rejects_bad_exponent() {
        let cfg = InetConfig { alpha: 0.9, ..small_config(10) };
        let _ = cfg.generate(&mut StdRng::seed_from_u64(0));
    }
}
