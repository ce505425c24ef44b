//! Delay-based shortest-path routing.
//!
//! The paper's simulator "simulates both IP-layer and overlay data routing
//! using delay-based shortest path routing" (§4.1). [`RoutingTable`] runs
//! Dijkstra per source on demand and caches the result, which keeps
//! all-pairs queries affordable on the 3 200-node IP graph.

use std::collections::HashMap;

use acp_simcore::SimDuration;

use crate::graph::{EdgeId, Graph, NodeId};

/// A concrete routed path through a [`Graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct IpPath {
    /// Visited nodes, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Traversed edges; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total propagation delay (sum over edges).
    pub delay: SimDuration,
    /// Bottleneck capacity (minimum over edges), kbit/s.
    pub bottleneck_kbps: f64,
    /// End-to-end loss probability `1 - Π(1 - l_e)`.
    pub loss_rate: f64,
}

impl IpPath {
    /// A zero-length path (source == destination).
    fn trivial(node: NodeId) -> Self {
        IpPath {
            nodes: vec![node],
            edges: Vec::new(),
            delay: SimDuration::ZERO,
            bottleneck_kbps: f64::INFINITY,
            loss_rate: 0.0,
        }
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths contain at least one node")
    }
}

/// A Dijkstra frontier entry, ordered so that [`std::collections::BinaryHeap`]
/// (a max-heap) pops the smallest `(dist, node)` first. A named type
/// with its own `Ord`, not `Reverse<(SimDuration, u32)>`: the tuple's
/// comparison compiles to two compares or to a three-way
/// `Option<Ordering>` chain depending on what else shares the codegen
/// unit — a 19 % swing in `build_system` (EXPERIMENTS.md, "BENCH_10 →
/// BENCH_11").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frontier {
    dist: SimDuration,
    node: u32,
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.dist.cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest-path tree (by delay).
///
/// **Canonical predecessor.** Relaxation is strict (`cand < cur`) and
/// [`Frontier`] pops the smallest `(dist, node)`, so when every edge
/// delay is strictly positive nodes settle in ascending `(dist, id)` and
/// `prev[x]` is the tight predecessor `u` (`dist[u] + w(u, x) ==
/// dist[x]`) with the smallest `(dist[u], u)`. The tree is therefore a
/// function of the graph alone, not of heap history — the fact
/// [`Self::readmit`] and [`Self::compute_until`] rely on. Every delay
/// this crate generates is positive (`InetConfig` 1..=20 ms per IP link,
/// `Overlay::synthetic` 2–20 ms). A caller with a hand-built graph owns
/// the invariant; `readmit` checks the links it reads — those at the
/// returning node — and refuses on a zero delay.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<Option<SimDuration>>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source`, minimising total delay.
    pub fn compute(graph: &Graph, source: NodeId) -> Self {
        Self::compute_excluding(graph, source, &[])
    }

    /// Runs Dijkstra from `source`, never relaxing through a node whose
    /// `blocked` flag is set (failed overlay nodes drop out of the
    /// forwarding plane). `blocked` may be empty (nothing blocked) or one
    /// flag per graph node. A blocked source yields an all-unreachable
    /// tree.
    pub(crate) fn compute_excluding(graph: &Graph, source: NodeId, blocked: &[bool]) -> Self {
        Self::search(graph, source, blocked, |_| false)
    }

    /// Runs Dijkstra from `source` until `stop` returns true for a node
    /// it has just settled (the source included). Nodes settle in
    /// ascending `(dist, id)`, and the entries of settled nodes — all
    /// that [`Self::path_to`] reads on the way to one — equal the full
    /// tree's; unsettled nodes may hold tentative entries, so query
    /// settled nodes only.
    pub(crate) fn compute_until(graph: &Graph, source: NodeId, stop: impl FnMut(NodeId) -> bool) -> Self {
        Self::search(graph, source, &[], stop)
    }

    /// The one relaxation loop behind every constructor.
    fn search(
        graph: &Graph,
        source: NodeId,
        blocked: &[bool],
        mut stop: impl FnMut(NodeId) -> bool,
    ) -> Self {
        let n = graph.node_count();
        let mut dist: Vec<Option<SimDuration>> = vec![None; n];
        let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let is_blocked = |v: NodeId| blocked.get(v.index()).copied().unwrap_or(false);
        if is_blocked(source) {
            return ShortestPathTree { source, dist, prev };
        }
        let mut done = vec![false; n];
        let mut heap = std::collections::BinaryHeap::new();

        dist[source.index()] = Some(SimDuration::ZERO);
        heap.push(Frontier { dist: SimDuration::ZERO, node: source.0 });

        while let Some(Frontier { dist: d, node: u }) = heap.pop() {
            let u = NodeId(u);
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            if stop(u) {
                break;
            }
            for &(v, e) in graph.neighbors(u) {
                if done[v.index()] || is_blocked(v) {
                    continue;
                }
                let cand = d + graph.props(e).delay;
                if dist[v.index()].is_none_or(|cur| cand < cur) {
                    dist[v.index()] = Some(cand);
                    prev[v.index()] = Some((u, e));
                    heap.push(Frontier { dist: cand, node: v.0 });
                }
            }
        }
        ShortestPathTree { source, dist, prev }
    }

    /// Brings `node` — up again in `blocked`, down or never reached when
    /// this tree was last correct — back into the tree, and returns
    /// whether the tree is now exactly what
    /// [`Self::compute_excluding`] would build. `false` means the caller
    /// must drop it.
    ///
    /// `node` gets its canonical entry from its up, reachable neighbours.
    /// Then the mirror of [`Self::routes_through`]: would `node` forward?
    /// It would iff, for some up neighbour `y`, the route through `node`
    /// reaches a `y` that was unreachable, is strictly shorter, or ties
    /// and `(dist[node], node)` precedes `y`'s current predecessor. If it
    /// would not, no other entry changes and `node` is a leaf; if it
    /// would (or `node` is the source, or an incident link has zero
    /// delay, where the canonical rule does not hold) the answer is
    /// `false` and the tree is left unspecified.
    pub fn readmit(&mut self, graph: &Graph, node: NodeId, blocked: &[bool]) -> bool {
        if node == self.source {
            return false;
        }
        let is_up = |v: NodeId| !blocked.get(v.index()).copied().unwrap_or(false);
        // The canonical predecessor `u`: least `(dist[node], dist[u], u)`.
        // Its edge rides along; it never decides, `u` has one edge here.
        let mut best: Option<(SimDuration, SimDuration, NodeId, EdgeId)> = None;
        for &(u, e) in graph.neighbors(node) {
            let w = graph.props(e).delay;
            if w == SimDuration::ZERO {
                return false;
            }
            if let Some(du) = self.dist[u.index()].filter(|_| is_up(u)) {
                let key = (du + w, du, u, e);
                best = Some(best.map_or(key, |b| b.min(key)));
            }
        }
        if let Some((dv, ..)) = best {
            for &(y, e) in graph.neighbors(node) {
                if y == self.source || !is_up(y) {
                    continue;
                }
                let via = dv + graph.props(e).delay;
                let forwards = match (self.dist[y.index()], self.prev[y.index()]) {
                    (Some(dy), Some((p, _))) => {
                        via < dy || (via == dy && (Some(dv), node) < (self.dist[p.index()], p))
                    }
                    _ => true,
                };
                if forwards {
                    return false;
                }
            }
        }
        self.dist[node.index()] = best.map(|(dv, ..)| dv);
        self.prev[node.index()] = best.map(|(_, _, u, e)| (u, e));
        true
    }

    /// Delay from the source to `dst`; `None` when unreachable.
    pub fn distance(&self, dst: NodeId) -> Option<SimDuration> {
        self.dist[dst.index()]
    }

    /// The node this tree is rooted at.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// True when `node` forwards traffic in this tree: it is the source
    /// or the predecessor of some reachable node. Paths to nodes whose
    /// chain never passes through `node` are unaffected by its failure,
    /// so trees for which this is false stay valid when `node` dies.
    pub(crate) fn routes_through(&self, node: NodeId) -> bool {
        self.source == node || self.prev.iter().flatten().any(|&(p, _)| p == node)
    }

    /// Materialises the routed path to `dst`; `None` when unreachable.
    pub(crate) fn path_to(&self, graph: &Graph, dst: NodeId) -> Option<IpPath> {
        self.dist[dst.index()]?;
        if dst == self.source {
            return Some(IpPath::trivial(dst));
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != self.source {
            let (p, e) = self.prev[cur.index()].expect("reachable nodes have predecessors");
            edges.push(e);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();

        let delay = self.dist[dst.index()].expect("checked above");
        let mut bottleneck = f64::INFINITY;
        let mut pass = 1.0f64;
        for &e in &edges {
            let p = graph.props(e);
            bottleneck = bottleneck.min(p.bandwidth_kbps);
            pass *= 1.0 - p.loss_rate;
        }
        Some(IpPath { nodes, edges, delay, bottleneck_kbps: bottleneck, loss_rate: 1.0 - pass })
    }
}

/// Lazily-populated all-pairs routing over a fixed graph.
///
/// # Example
///
/// ```
/// use acp_topology::{Graph, LinkProps, NodeId, RoutingTable};
/// use acp_simcore::SimDuration;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), LinkProps::new(SimDuration::from_millis(5), 1e5, 0.0));
/// g.add_edge(NodeId(1), NodeId(2), LinkProps::new(SimDuration::from_millis(5), 1e5, 0.0));
/// let mut rt = RoutingTable::new();
/// let p = rt.path(&g, NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(p.hop_count(), 2);
/// assert_eq!(p.delay, SimDuration::from_millis(10));
/// ```
#[derive(Debug, Default)]
pub struct RoutingTable {
    trees: HashMap<NodeId, ShortestPathTree>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable { trees: HashMap::new() }
    }

    /// Shortest-path tree rooted at `src`, computing it on first use.
    pub fn tree(&mut self, graph: &Graph, src: NodeId) -> &ShortestPathTree {
        self.trees.entry(src).or_insert_with(|| ShortestPathTree::compute(graph, src))
    }

    /// Delay of the routed path `src → dst`; `None` when unreachable.
    pub fn distance(&mut self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        self.tree(graph, src).distance(dst)
    }

    /// The routed path `src → dst`; `None` when unreachable.
    pub fn path(&mut self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<IpPath> {
        let tree = self.trees.entry(src).or_insert_with(|| ShortestPathTree::compute(graph, src));
        tree.path_to(graph, dst)
    }

    /// Drops all cached trees (e.g. after the graph changes).
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkProps;

    fn link(ms: u64, bw: f64, loss: f64) -> LinkProps {
        LinkProps::new(SimDuration::from_millis(ms), bw, loss)
    }

    /// Diamond: 0-1 (1ms), 1-3 (1ms), 0-2 (5ms), 2-3 (5ms). Shortest 0→3 is
    /// via 1.
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.01));
        g.add_edge(NodeId(1), NodeId(3), link(1, 500.0, 0.01));
        g.add_edge(NodeId(0), NodeId(2), link(5, 2_000.0, 0.0));
        g.add_edge(NodeId(2), NodeId(3), link(5, 2_000.0, 0.0));
        g
    }

    #[test]
    fn picks_min_delay_route() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.delay, SimDuration::from_millis(2));
        assert_eq!(p.bottleneck_kbps, 500.0);
        assert!((p.loss_rate - (1.0 - 0.99f64 * 0.99)).abs() < 1e-12);
    }

    #[test]
    fn trivial_path() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.delay, SimDuration::ZERO);
        assert_eq!(p.source(), p.destination());
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.0));
        let mut rt = RoutingTable::new();
        assert!(rt.path(&g, NodeId(0), NodeId(2)).is_none());
        assert!(rt.distance(&g, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn caching_counts_sources() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        rt.path(&g, NodeId(0), NodeId(3));
        rt.path(&g, NodeId(0), NodeId(2));
        rt.path(&g, NodeId(1), NodeId(2));
        assert_eq!(rt.trees.len(), 2);
        rt.invalidate();
        assert_eq!(rt.trees.len(), 0);
    }

    /// Cross-check Dijkstra against Floyd–Warshall on random graphs.
    #[test]
    fn agrees_with_floyd_warshall() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let mut g = Graph::new(n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.45) {
                        g.add_edge(
                            NodeId(a as u32),
                            NodeId(b as u32),
                            link(rng.gen_range(1..30), 1_000.0, 0.0),
                        );
                    }
                }
            }
            // Floyd–Warshall oracle in microseconds.
            const INF: u64 = u64::MAX / 4;
            let mut d = vec![vec![INF; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0;
            }
            for e in 0..g.edge_count() {
                let (a, b) = g.endpoints(EdgeId(e as u32));
                let w = g.props(EdgeId(e as u32)).delay.as_micros();
                d[a.index()][b.index()] = d[a.index()][b.index()].min(w);
                d[b.index()][a.index()] = d[b.index()][a.index()].min(w);
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = d[i][k].saturating_add(d[k][j]);
                        if via < d[i][j] {
                            d[i][j] = via;
                        }
                    }
                }
            }
            let mut rt = RoutingTable::new();
            for (i, row) in d.iter().enumerate() {
                for (j, &dij) in row.iter().enumerate() {
                    let got = rt.distance(&g, NodeId(i as u32), NodeId(j as u32));
                    if dij >= INF {
                        assert!(got.is_none());
                    } else {
                        assert_eq!(got.unwrap().as_micros(), dij, "mismatch {i}->{j}");
                    }
                }
            }
        }
    }

    /// Blocking a forwarding node reroutes around it; blocking the
    /// source makes everything unreachable.
    #[test]
    fn excluding_blocked_nodes_reroutes() {
        let g = diamond();
        let mut blocked = vec![false; 4];
        blocked[1] = true;
        let tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &blocked);
        let p = tree.path_to(&g, NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(p.delay, SimDuration::from_millis(10));
        assert!(tree.distance(NodeId(1)).is_none(), "blocked node unreachable");

        blocked[0] = true;
        let dead = ShortestPathTree::compute_excluding(&g, NodeId(0), &blocked);
        for v in 0..4 {
            assert!(dead.distance(NodeId(v)).is_none());
        }
    }

    /// Re-admission against its oracle, with ties forced (delays in
    /// {1, 2, 3} ms): a tree built without `v` either becomes exactly the
    /// tree built with `v` or is refused, and it is refused exactly when
    /// `v` forwards in that tree — never for a leaf.
    #[test]
    fn readmit_is_exact_or_refuses() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (mut kept, mut refused) = (0, 0);
        for _ in 0..40 {
            let n = rng.gen_range(4..14);
            let mut g = Graph::new(n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.3) {
                        g.add_edge(NodeId(a as u32), NodeId(b as u32), link(rng.gen_range(1..=3), 1_000.0, 0.0));
                    }
                }
            }
            // A second node stays down throughout: re-admission must not
            // route through it or read its entries.
            let other = NodeId(rng.gen_range(0..n) as u32);
            for s in g.nodes().filter(|&s| s != other) {
                for v in g.nodes().filter(|&v| v != s && v != other) {
                    let mut blocked = vec![false; n];
                    blocked[other.index()] = true;
                    let want = ShortestPathTree::compute_excluding(&g, s, &blocked);
                    blocked[v.index()] = true;
                    let mut tree = ShortestPathTree::compute_excluding(&g, s, &blocked);
                    blocked[v.index()] = false;
                    if tree.readmit(&g, v, &blocked) {
                        assert_eq!((&tree.dist, &tree.prev), (&want.dist, &want.prev), "{s} readmitting {v}");
                        assert!(!want.routes_through(v));
                        kept += 1;
                    } else {
                        assert!(want.routes_through(v), "{s}: leaf {v} was refused");
                        refused += 1;
                    }
                }
            }
        }
        assert!(kept > 500 && refused > 500, "both outcomes exercised: {kept} kept, {refused} refused");
    }

    /// The recovering node is never re-admitted into its own tree, and a
    /// zero-delay incident link (where settle order is not `(dist, id)`
    /// order, so the canonical-predecessor rule is void) refuses too.
    #[test]
    fn readmit_refuses_the_source_and_zero_delay_links() {
        // 0 -1ms- 1 -1ms- 2, and 3 hanging off 2: a leaf in 0's tree.
        let build = |leaf_ms: u64| {
            let mut g = Graph::new(4);
            g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.0));
            g.add_edge(NodeId(1), NodeId(2), link(1, 1_000.0, 0.0));
            g.add_edge(NodeId(2), NodeId(3), link(leaf_ms, 1_000.0, 0.0));
            g
        };
        let without_3 = [false, false, false, true];
        let g = build(1);
        let mut tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &without_3);
        assert!(tree.readmit(&g, NodeId(3), &[]), "a positive-delay leaf is attached");
        assert_eq!(tree.distance(NodeId(3)), Some(SimDuration::from_millis(3)));
        assert!(!tree.readmit(&g, NodeId(0), &[]), "the source");

        let g = build(0);
        let mut tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &without_3);
        assert!(!tree.readmit(&g, NodeId(3), &[]), "zero-delay incident link");
    }

    /// A stopped search agrees with the full tree on every settled node,
    /// and settles in ascending `(dist, id)`.
    #[test]
    fn compute_until_matches_the_full_tree_on_settled_nodes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let g = crate::inet::InetConfig { nodes: 120, delay_ms: (1, 3), ..Default::default() }.generate(&mut rng);
        let full = ShortestPathTree::compute(&g, NodeId(7));
        let mut settled = Vec::new();
        let tree = ShortestPathTree::compute_until(&g, NodeId(7), |u| {
            settled.push(u);
            settled.len() == 30
        });
        assert_eq!(settled.len(), 30);
        let keys: Vec<_> = settled.iter().map(|&u| (full.distance(u).unwrap(), u)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "settle order is (dist, id)");
        for &u in &settled {
            assert_eq!(tree.path_to(&g, u), full.path_to(&g, u));
        }
    }

    /// Path attributes must be internally consistent with the edge list.
    #[test]
    fn path_attributes_consistent() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(0), NodeId(3)).unwrap();
        let mut delay = SimDuration::ZERO;
        let mut bw = f64::INFINITY;
        for &e in &p.edges {
            delay += g.props(e).delay;
            bw = bw.min(g.props(e).bandwidth_kbps);
        }
        assert_eq!(p.delay, delay);
        assert_eq!(p.bottleneck_kbps, bw);
        assert_eq!(p.edges.len() + 1, p.nodes.len());
    }
}
