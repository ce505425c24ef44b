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
//! ranges, as the paper does ("initial resource capacities and
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
    /// Per-link delay range in milliseconds, sampled uniformly.
    pub delay_ms: (u64, u64),
    /// Per-link capacity range in kbit/s, sampled uniformly.
    pub bandwidth_kbps: (f64, f64),
}

/// Power-law frequency exponent `α` (Inet default ≈ 2.2).
const ALPHA: f64 = 2.2;
/// Minimum node degree in the drawn sequence.
const MIN_DEGREE: usize = 1;
/// Hard cap on any node's target degree, as a fraction of `nodes`.
const MAX_DEGREE_FRACTION: f64 = 0.05;
/// Per-link loss-rate range, sampled uniformly.
const LOSS_RATE: (f64, f64) = (0.0, 0.001);

impl Default for InetConfig {
    fn default() -> Self {
        InetConfig {
            nodes: 3_200,
            delay_ms: (1, 20),
            bandwidth_kbps: (20_000.0, 100_000.0),
        }
    }
}

impl InetConfig {
    /// Generates a connected power-law graph.
    ///
    /// The graph — its edges, their order and their attributes — is a
    /// function of the values `rng` yields. How many values the call
    /// consumes, and so the rng's position afterwards, is not part of
    /// that contract: generation stops drawing as soon as no further
    /// edge can be added. Give the generator an rng of its own when later
    /// draws must not depend on how it got there.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        assert!(self.nodes >= 2, "need at least two nodes");

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
        let max_degree = ((self.nodes as f64 * MAX_DEGREE_FRACTION) as usize).max(MIN_DEGREE + 1);
        let shape = ALPHA - 1.0; // Pareto CCDF exponent
        let mut degrees: Vec<usize> = (0..self.nodes)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let d = MIN_DEGREE as f64 * u.powf(-1.0 / shape);
                (d.floor() as usize).clamp(MIN_DEGREE, max_degree)
            })
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        degrees
    }

    /// Connects all nodes into a tree; node `i` attaches to an existing
    /// node chosen proportionally to its remaining stubs.
    fn build_spanning_tree<R: Rng + ?Sized>(&self, graph: &mut Graph, stubs: &mut [i64], rng: &mut R) {
        // Weighted choice among nodes [0, i) by max(stubs, 1) so nodes
        // that exhausted their stubs can still be picked as a last resort
        // (keeps the tree construction total).
        let weight = |s: i64| s.max(1);
        let mut weights = Fenwick::new(stubs.iter().map(|&s| weight(s)));
        for i in 1..self.nodes {
            let pick = rng.gen_range(0..weights.prefix(i));
            let target = weights.find(pick);
            graph.add_edge(NodeId(i as u32), NodeId(target as u32), self.sample_props(rng));
            for j in [i, target] {
                weights.add(j, weight(stubs[j] - 1) - weight(stubs[j]));
                stubs[j] -= 1;
            }
        }
    }

    /// Pairwise matches leftover stubs, preferring high-stub nodes.
    ///
    /// Stops early, and exactly, once an added edge leaves the nodes with
    /// stubs left pairwise adjacent: every further draw would be
    /// rejected, so the retries that remain could add no edge.
    fn match_remaining_stubs<R: Rng + ?Sized>(&self, graph: &mut Graph, stubs: &mut [i64], rng: &mut R) {
        /// The clique check runs only at or below this many open nodes,
        /// where it costs at most a few hundred `has_edge` calls.
        const CLIQUE_CHECK_MAX: usize = 32;
        let mut weights = Fenwick::new(stubs.iter().map(|&s| s.max(0)));
        let mut total = weights.prefix(self.nodes);
        // Pruned of closed nodes only when the clique check reads it.
        let mut open: Vec<usize> = (0..self.nodes).filter(|&i| stubs[i] > 0).collect();
        let mut open_count = open.len();
        // Bounded retries keep generation O(E); a handful of unmatchable
        // stubs at the end is expected and harmless (Inet drops them too).
        let mut retries = 0usize;
        let max_retries = 20 * self.nodes;
        while open_count > 1 && retries < max_retries {
            // Pick two distinct endpoints, weighted by outstanding stubs.
            let a = weights.find(rng.gen_range(0..total));
            let b = weights.find(rng.gen_range(0..total));
            if a == b || graph.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                retries += 1;
                continue;
            }
            graph.add_edge(NodeId(a as u32), NodeId(b as u32), self.sample_props(rng));
            for j in [a, b] {
                stubs[j] -= 1;
                weights.add(j, -1);
                open_count -= usize::from(stubs[j] == 0);
            }
            total -= 2;
            if open_count <= CLIQUE_CHECK_MAX {
                open.retain(|&i| stubs[i] > 0);
                if is_clique(graph, &open) {
                    break;
                }
            }
        }
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
        let loss = rng.gen_range(LOSS_RATE.0..LOSS_RATE.1);
        LinkProps::new(SimDuration::from_millis(delay_ms), bw, loss)
    }
}

/// True when every two of `nodes` are adjacent.
fn is_clique(graph: &Graph, nodes: &[usize]) -> bool {
    nodes.iter().enumerate().all(|(k, &a)| {
        nodes[k + 1..].iter().all(|&b| graph.has_edge(NodeId(a as u32), NodeId(b as u32)))
    })
}

/// A Fenwick (binary-indexed) tree over non-negative integer weights:
/// prefix sums, point updates and weighted picks in O(log n) each.
struct Fenwick {
    /// 1-based: `tree[i]` sums the weights of `(i - lowbit(i), i]`.
    tree: Vec<i64>,
}

impl Fenwick {
    /// A tree over `weights`, built in O(n).
    fn new(weights: impl Iterator<Item = i64>) -> Self {
        let mut tree: Vec<i64> = std::iter::once(0).chain(weights).collect();
        for i in 1..tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    /// Sum of the weights of items `[0, end)`.
    fn prefix(&self, end: usize) -> i64 {
        let (mut i, mut sum) = (end, 0);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` to item `item`'s weight.
    fn add(&mut self, item: usize, delta: i64) {
        let mut i = item + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// The item a linear scan would pick for `pick < total weight`: the
    /// first whose running weight sum exceeds `pick`.
    fn find(&self, mut pick: i64) -> usize {
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            if pos + step < self.tree.len() && self.tree[pos + step] <= pick {
                pos += step;
                pick -= self.tree[pos];
            }
            step >>= 1;
        }
        // `pos` items sum to at most the pick; the next one passes it.
        pos
    }
}

/// The generator the Fenwick picks and the clique exit replaced, kept as
/// their oracle: a linear scan per weighted draw, and stub matching that
/// retries until its budget runs out.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every edge in order: endpoints, then delay, bandwidth and loss
    /// bit for bit.
    fn edge_list(g: &Graph) -> Vec<(NodeId, NodeId, u64, u64, u64)> {
        (0..g.edge_count() as u32)
            .map(|e| {
                let e = crate::graph::EdgeId(e);
                let (a, b) = g.endpoints(e);
                let p = g.props(e);
                (a, b, p.delay.as_micros(), p.bandwidth_kbps.to_bits(), p.loss_rate.to_bits())
            })
            .collect()
    }

    /// The generator builds the reference's graph edge for edge, at
    /// every size from the smallest to the paper's. Where the rng ends
    /// up differs exactly when the clique exit skipped draws the
    /// reference spent on hopeless retries; seed 0 at 3 200 nodes ends
    /// with one node open instead, so both must stop in the same place.
    #[test]
    fn generate_matches_the_reference() {
        use rand::Rng;
        let (mut clique_exits, mut same_position) = (0, 0);
        for nodes in [2usize, 3, 50, 300, 3_200] {
            for seed in 0..8u64 {
                let config = small_config(nodes);
                let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = config.generate(&mut rng);
                let want = reference::generate(&config, &mut reference_rng);
                assert_eq!(edge_list(&got), edge_list(&want), "{nodes} nodes, seed {seed}");
                let moved = rng.gen::<u64>() != reference_rng.gen::<u64>();
                if nodes == 3_200 && seed == 0 {
                    assert!(!moved, "one node left open: no clique exit");
                }
                clique_exits += usize::from(moved);
                same_position += usize::from(!moved);
            }
        }
        assert!(clique_exits >= 5 && same_position >= 5, "{clique_exits} clique exits, {same_position} full runs");
    }

    /// Fenwick picks are the linear scan's picks, zero weights included.
    #[test]
    fn fenwick_find_matches_a_linear_scan() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..40 {
            let mut weights: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            weights[rng.gen_range(0..n)] += 1;
            let mut tree = Fenwick::new(weights.iter().copied());
            for _ in 0..20 {
                let total: i64 = weights.iter().sum();
                assert_eq!(tree.prefix(n), total);
                for pick in 0..total {
                    let scan = (0..n).find(|&j| weights[..=j].iter().sum::<i64>() > pick).unwrap();
                    assert_eq!(tree.find(pick), scan, "weights {weights:?}, pick {pick}");
                }
                let j = rng.gen_range(0..n);
                let delta = if weights[j] > 0 && rng.gen_bool(0.5) { -1 } else { 1 };
                weights[j] += delta;
                tree.add(j, delta);
            }
        }
    }

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
        let cfg = InetConfig { nodes: 50, delay_ms: (5, 10), bandwidth_kbps: (1_000.0, 2_000.0) };
        let mut rng = StdRng::seed_from_u64(4);
        let g = cfg.generate(&mut rng);
        for e in 0..g.edge_count() {
            let p = g.props(crate::graph::EdgeId(e as u32));
            let ms = p.delay.as_secs_f64() * 1e3;
            assert!((5.0..=10.0).contains(&ms));
            assert!((1_000.0..2_000.0).contains(&p.bandwidth_kbps));
            assert!((LOSS_RATE.0..LOSS_RATE.1).contains(&p.loss_rate));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_graphs() {
        let _ = small_config(1).generate(&mut StdRng::seed_from_u64(0));
    }
}
