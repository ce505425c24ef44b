//! The stream-processing overlay mesh.
//!
//! Per §2.1 of the paper, `N ∈ [200, 500]` of the IP nodes are selected as
//! stream processing nodes and connected by *application-level overlay
//! links* into an overlay mesh; each node has a bounded number of overlay
//! neighbours. An overlay link is realised by the delay-shortest IP path
//! between its endpoints: its delay is the path delay, its capacity the
//! bottleneck bandwidth, and its loss the composed path loss.
//!
//! The connection between two adjacent *components* is a **virtual link**
//! — an overlay *path* (a set of overlay links). [`Overlay::virtual_path`]
//! computes it with delay-based shortest-path routing on the mesh, again
//! matching §4.1.

use std::collections::HashMap;
use std::sync::Arc;

use acp_simcore::SimDuration;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{EdgeId, Graph, LinkProps, NodeId};
use crate::routing::{RoutingTable, ShortestPathTree};

/// Index of a stream-processing node within the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayNodeId(pub u32);

impl OverlayNodeId {
    /// The overlay node index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for OverlayNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of an overlay link (an edge of the mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayLinkId(pub u32);

impl OverlayLinkId {
    /// The overlay link index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Overlay construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayConfig {
    /// Number of stream-processing nodes to select (paper: 200–500).
    pub stream_nodes: usize,
    /// Overlay neighbours per node (nearest by IP delay).
    pub neighbors: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig { stream_nodes: 400, neighbors: 6 }
    }
}

/// A multi-hop **virtual link**: the overlay path connecting two stream
/// nodes, with aggregated QoS per §3.2 of the paper
/// (`ba^l = min(ba^e…)`, delay = Σ, loss composed).
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayPath {
    /// Visited overlay nodes, source first.
    pub nodes: Vec<OverlayNodeId>,
    /// Traversed overlay links.
    pub links: Vec<OverlayLinkId>,
    /// Total delay (sum over overlay links).
    pub delay: SimDuration,
    /// Bottleneck capacity over the constituent overlay links, kbit/s.
    pub bottleneck_kbps: f64,
    /// Composed loss probability.
    pub loss_rate: f64,
}

/// A shared, immutable [`OverlayPath`].
///
/// Virtual links are memoized per `(from, to)` pair inside [`Overlay`],
/// and a composition holding `h` hops would otherwise clone each path's
/// node and link vectors on every probe extension. Handing out
/// `Arc<OverlayPath>` makes those clones reference bumps; deref coercion
/// keeps every `&OverlayPath`-taking API unchanged.
pub type SharedPath = Arc<OverlayPath>;

/// Hit/miss counters for the `(from, to)` virtual-path memo inside
/// [`Overlay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to extract a path from a routing tree.
    pub misses: u64,
}

impl PathCacheStats {
    /// Fraction of lookups answered from the memo (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl OverlayPath {
    /// A zero-length path (both components co-located on one node). Per
    /// the paper, co-located components have zero network delay and
    /// unbounded virtual-link bandwidth.
    pub fn colocated(node: OverlayNodeId) -> Self {
        OverlayPath {
            nodes: vec![node],
            links: Vec::new(),
            delay: SimDuration::ZERO,
            bottleneck_kbps: f64::INFINITY,
            loss_rate: 0.0,
        }
    }

    /// Number of overlay hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// True when the path crosses no network link.
    pub fn is_colocated(&self) -> bool {
        self.links.is_empty()
    }
}

/// The overlay mesh of stream-processing nodes.
#[derive(Clone)]
pub struct Overlay {
    ip_nodes: Vec<NodeId>,
    ip_index: HashMap<NodeId, OverlayNodeId>,
    mesh: Graph,
    ip_hops: Vec<usize>,
    route_cache: HashMap<OverlayNodeId, ShortestPathTree>,
    path_cache: HashMap<(OverlayNodeId, OverlayNodeId), Option<SharedPath>>,
    cache_stats: PathCacheStats,
    /// Nodes whose forwarding plane is down; routing never traverses
    /// them and `virtual_path` refuses them as endpoints.
    down: Vec<bool>,
}

impl std::fmt::Debug for Overlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Overlay")
            .field("nodes", &self.node_count())
            .field("links", &self.link_count())
            .finish()
    }
}

impl Overlay {
    /// Builds an overlay over `ip_graph`.
    ///
    /// Selects `config.stream_nodes` distinct IP nodes uniformly at random,
    /// links each to its `config.neighbors` nearest overlay peers (by IP
    /// routed delay), and then bridges any remaining components so the mesh
    /// is connected.
    ///
    /// # Panics
    ///
    /// Panics if the IP graph has fewer nodes than `config.stream_nodes`,
    /// if `config.stream_nodes < 2`, or if `config.neighbors == 0`.
    pub fn build<R: Rng + ?Sized>(ip_graph: &Graph, config: &OverlayConfig, rng: &mut R) -> Self {
        assert!(config.stream_nodes >= 2, "need at least two stream nodes");
        assert!(config.neighbors >= 1, "need at least one neighbour per node");
        assert!(
            ip_graph.node_count() >= config.stream_nodes,
            "IP graph smaller than requested overlay"
        );

        // 1. Select stream nodes.
        let mut all: Vec<NodeId> = ip_graph.nodes().collect();
        all.shuffle(rng);
        let mut ip_nodes: Vec<NodeId> = all.into_iter().take(config.stream_nodes).collect();
        ip_nodes.sort_unstable(); // canonical order for reproducibility
        let ip_index: HashMap<NodeId, OverlayNodeId> = ip_nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, OverlayNodeId(i as u32)))
            .collect();

        // 2. IP-layer routing from every stream node.
        let mut routing = RoutingTable::new();
        let n = ip_nodes.len();
        let mut mesh = Graph::new(n);
        let mut ip_hops: Vec<usize> = Vec::new();

        // 3. k-nearest-neighbour mesh.
        for i in 0..n {
            let tree = routing.tree(ip_graph, ip_nodes[i]);
            let mut dists: Vec<(SimDuration, usize)> = (0..n)
                .filter(|&j| j != i)
                .filter_map(|j| tree.distance(ip_nodes[j]).map(|d| (d, j)))
                .collect();
            dists.sort_unstable();
            for &(_, j) in dists.iter().take(config.neighbors) {
                let (a, b) = (OverlayNodeId(i as u32), OverlayNodeId(j as u32));
                if !mesh.has_edge(NodeId(a.0), NodeId(b.0)) {
                    let path = routing
                        .path(ip_graph, ip_nodes[i], ip_nodes[j])
                        .expect("distance implies path");
                    mesh.add_edge(
                        NodeId(a.0),
                        NodeId(b.0),
                        LinkProps::new(path.delay, path.bottleneck_kbps, path.loss_rate),
                    );
                    ip_hops.push(path.hop_count());
                }
            }
        }

        // 4. Bridge components (possible when the IP graph is disconnected
        //    or k-NN selection forms islands).
        loop {
            let component = mesh.connected_component(NodeId(0));
            if component.len() == mesh.node_count() {
                break;
            }
            let inside: std::collections::HashSet<usize> = component.iter().map(|c| c.index()).collect();
            let outside: Vec<usize> = (0..n).filter(|i| !inside.contains(i)).collect();
            // Connect the closest inside/outside pair.
            let mut best: Option<(SimDuration, usize, usize)> = None;
            for &o in &outside {
                let tree = routing.tree(ip_graph, ip_nodes[o]);
                for &i in &inside {
                    if let Some(d) = tree.distance(ip_nodes[i]) {
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, o, i));
                        }
                    }
                }
            }
            let (_, o, i) = best.expect("IP graph must connect the selected stream nodes");
            let path = routing.path(ip_graph, ip_nodes[o], ip_nodes[i]).expect("distance implies path");
            mesh.add_edge(
                NodeId(o as u32),
                NodeId(i as u32),
                LinkProps::new(path.delay, path.bottleneck_kbps, path.loss_rate),
            );
            ip_hops.push(path.hop_count());
        }

        Overlay {
            down: vec![false; ip_nodes.len()],
            ip_nodes,
            ip_index,
            mesh,
            ip_hops,
            route_cache: HashMap::new(),
            path_cache: HashMap::new(),
            cache_stats: PathCacheStats::default(),
        }
    }

    /// Builds a synthetic overlay mesh directly, without an IP underlay:
    /// a ring (guaranteeing connectivity) plus `chords_per_node` random
    /// chords per node, with link properties sampled per link. Each
    /// overlay node maps to the identically-numbered synthetic IP node.
    ///
    /// [`Self::build`] runs one Dijkstra per node over the IP graph plus
    /// an all-pairs nearest-neighbour scan — quadratic and far too slow
    /// past a few thousand nodes. The scale experiments need 100k-node
    /// overlays whose *structure* is irrelevant (they stress state-table
    /// and selection-index size, not routing); this constructor is O(n)
    /// and allocation-exact.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    pub fn synthetic<R: Rng + ?Sized>(nodes: usize, chords_per_node: usize, rng: &mut R) -> Self {
        assert!(nodes >= 2, "need at least two stream nodes");
        let n = nodes as u32;
        let mut mesh = Graph::new(nodes);
        let mut ip_hops = Vec::with_capacity(nodes * (1 + chords_per_node));
        let sample_props = |rng: &mut R| {
            LinkProps::new(
                SimDuration::from_secs_f64(rng.gen_range(0.002..0.020)),
                rng.gen_range(1_000.0..10_000.0),
                rng.gen_range(0.0..0.02),
            )
        };
        for i in 0..n {
            let next = (i + 1) % n;
            let props = sample_props(rng);
            mesh.add_edge(NodeId(i), NodeId(next), props);
            ip_hops.push(1);
        }
        for i in 0..n {
            for _ in 0..chords_per_node {
                let j = rng.gen_range(0..n);
                if j == i || mesh.has_edge(NodeId(i), NodeId(j)) {
                    continue;
                }
                let props = sample_props(rng);
                mesh.add_edge(NodeId(i), NodeId(j), props);
                ip_hops.push(1);
            }
        }
        let ip_nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let ip_index: HashMap<NodeId, OverlayNodeId> =
            ip_nodes.iter().enumerate().map(|(i, &node)| (node, OverlayNodeId(i as u32))).collect();
        Overlay {
            down: vec![false; nodes],
            ip_nodes,
            ip_index,
            mesh,
            ip_hops,
            route_cache: HashMap::new(),
            path_cache: HashMap::new(),
            cache_stats: PathCacheStats::default(),
        }
    }

    /// Number of stream-processing nodes.
    pub fn node_count(&self) -> usize {
        self.ip_nodes.len()
    }

    /// Number of overlay links.
    pub fn link_count(&self) -> usize {
        self.mesh.edge_count()
    }

    /// Iterates over all overlay node ids.
    pub fn nodes(&self) -> impl Iterator<Item = OverlayNodeId> + '_ {
        (0..self.ip_nodes.len() as u32).map(OverlayNodeId)
    }

    /// Iterates over all overlay link ids.
    pub fn links(&self) -> impl Iterator<Item = OverlayLinkId> + '_ {
        (0..self.mesh.edge_count() as u32).map(OverlayLinkId)
    }

    /// The IP node hosting an overlay node.
    pub fn ip_node(&self, v: OverlayNodeId) -> NodeId {
        self.ip_nodes[v.index()]
    }

    /// The overlay node hosted on `ip`, if any.
    pub fn overlay_node(&self, ip: NodeId) -> Option<OverlayNodeId> {
        self.ip_index.get(&ip).copied()
    }

    /// Attributes of an overlay link (delay/capacity/loss aggregated from
    /// its IP path).
    pub fn link_props(&self, l: OverlayLinkId) -> &LinkProps {
        self.mesh.props(EdgeId(l.0))
    }

    /// Endpoints of an overlay link.
    pub fn link_endpoints(&self, l: OverlayLinkId) -> (OverlayNodeId, OverlayNodeId) {
        let (a, b) = self.mesh.endpoints(EdgeId(l.0));
        (OverlayNodeId(a.0), OverlayNodeId(b.0))
    }

    /// Number of IP-layer hops underlying an overlay link.
    pub fn link_ip_hops(&self, l: OverlayLinkId) -> usize {
        self.ip_hops[l.index()]
    }

    /// Overlay neighbours of `v` with their connecting links.
    pub fn neighbors(&self, v: OverlayNodeId) -> impl Iterator<Item = (OverlayNodeId, OverlayLinkId)> + '_ {
        self.mesh
            .neighbors(NodeId(v.0))
            .iter()
            .map(|&(n, e)| (OverlayNodeId(n.0), OverlayLinkId(e.0)))
    }

    /// True when every overlay node can reach every other.
    pub fn is_connected(&self) -> bool {
        self.mesh.is_connected()
    }

    /// The virtual link from `from` to `to`: the delay-shortest overlay
    /// path, with aggregated delay / bottleneck bandwidth / loss.
    /// Co-located endpoints yield [`OverlayPath::colocated`].
    ///
    /// Full paths are memoized per `(from, to)` pair (on top of the
    /// per-source routing-tree cache), so repeated queries — the common
    /// case during probing, where every candidate pair is examined many
    /// times per session — are a single hash lookup plus an `Arc` clone.
    /// [`Self::invalidate_routes`] drops everything;
    /// [`Self::invalidate_routes_for`] drops only entries a failed node
    /// could affect.
    pub fn virtual_path(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<SharedPath> {
        if let Some(cached) = self.path_cache.get(&(from, to)) {
            self.cache_stats.hits += 1;
            return cached.clone();
        }
        self.cache_stats.misses += 1;
        let computed = self.compute_virtual_path(from, to).map(Arc::new);
        self.path_cache.insert((from, to), computed.clone());
        computed
    }

    /// Uncached path extraction (still reuses the per-source tree cache).
    /// Down nodes are refused as endpoints and never traversed, so no
    /// computed (and hence no cached) path ever contains a down node.
    fn compute_virtual_path(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<OverlayPath> {
        if self.down[from.index()] || self.down[to.index()] {
            return None;
        }
        if from == to {
            return Some(OverlayPath::colocated(from));
        }
        let mesh = &self.mesh;
        let down = &self.down;
        let tree = self
            .route_cache
            .entry(from)
            .or_insert_with(|| ShortestPathTree::compute_excluding(mesh, NodeId(from.0), down));
        let ip = tree.path_to(mesh, NodeId(to.0))?;
        Some(OverlayPath {
            nodes: ip.nodes.iter().map(|n| OverlayNodeId(n.0)).collect(),
            links: ip.edges.iter().map(|e| OverlayLinkId(e.0)).collect(),
            delay: ip.delay,
            bottleneck_kbps: ip.bottleneck_kbps,
            loss_rate: ip.loss_rate,
        })
    }

    /// Hit/miss counters of the `(from, to)` path memo (cumulative; not
    /// reset by invalidation).
    pub fn path_cache_stats(&self) -> PathCacheStats {
        self.cache_stats
    }

    /// Number of memoized `(from, to)` entries.
    pub fn path_cache_len(&self) -> usize {
        self.path_cache.len()
    }

    /// Iterates over the memoized `(from, to)` path entries (`None`
    /// values are negative entries for unreachable pairs). Exposed so a
    /// system auditor can verify no cached route traverses a failed
    /// node; iteration order is unspecified.
    pub fn cached_paths(
        &self,
    ) -> impl Iterator<Item = ((OverlayNodeId, OverlayNodeId), Option<&SharedPath>)> + '_ {
        self.path_cache.iter().map(|(&key, path)| (key, path.as_ref()))
    }

    /// Marks a node's forwarding plane down or up. While down, the node
    /// is refused as a `virtual_path` endpoint and routing never relays
    /// through it. Taking a node down invalidates exactly the cached
    /// routes its loss could change ([`Self::invalidate_routes_for`]);
    /// bringing one back clears everything, since a returning relay can
    /// create shorter routes anywhere. No-op when the flag is unchanged.
    pub fn set_node_down(&mut self, node: OverlayNodeId, down: bool) {
        if self.down[node.index()] == down {
            return;
        }
        self.down[node.index()] = down;
        if down {
            self.invalidate_routes_for(node);
        } else {
            self.invalidate_routes();
        }
    }

    /// True when `node`'s forwarding plane is marked down.
    pub fn is_node_down(&self, node: OverlayNodeId) -> bool {
        self.down[node.index()]
    }

    /// Drops all cached routing trees and memoized paths.
    pub fn invalidate_routes(&mut self) {
        self.route_cache.clear();
        self.path_cache.clear();
    }

    /// Drops only the cached routes a failure of `node` could change:
    /// the tree rooted at `node`, any tree where `node` forwards traffic
    /// (its failure would reroute those paths), and memoized paths that
    /// start at, end at, or traverse `node`. Trees and paths that never
    /// touch `node` remain valid — removing a node can only remove
    /// routes, never create shorter ones.
    pub fn invalidate_routes_for(&mut self, node: OverlayNodeId) {
        self.route_cache.retain(|_, tree| !tree.routes_through(NodeId(node.0)));
        self.path_cache.retain(|&(from, to), path| {
            from != node
                && to != node
                && path.as_ref().is_none_or(|p| !p.nodes.contains(&node))
        });
    }

    /// The underlying mesh graph (read-only).
    pub fn mesh(&self) -> &Graph {
        &self.mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inet::InetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_pair(seed: u64, stream_nodes: usize, neighbors: usize) -> Overlay {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 300, ..InetConfig::default() }.generate(&mut rng);
        Overlay::build(&ip, &OverlayConfig { stream_nodes, neighbors }, &mut rng)
    }

    #[test]
    fn builds_connected_mesh() {
        let ov = build_pair(1, 40, 4);
        assert_eq!(ov.node_count(), 40);
        assert!(ov.is_connected());
        assert!(ov.link_count() >= 40, "each node should contribute links");
    }

    #[test]
    fn every_node_has_neighbors() {
        let ov = build_pair(2, 30, 3);
        for v in ov.nodes() {
            assert!(ov.neighbors(v).count() >= 1, "{v} isolated");
        }
    }

    #[test]
    fn ip_mapping_is_bijective() {
        let ov = build_pair(3, 25, 3);
        for v in ov.nodes() {
            let ip = ov.ip_node(v);
            assert_eq!(ov.overlay_node(ip), Some(v));
        }
    }

    #[test]
    fn virtual_path_between_all_pairs() {
        let mut ov = build_pair(4, 20, 3);
        let nodes: Vec<_> = ov.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                let p = ov.virtual_path(a, b).expect("connected overlay");
                if a == b {
                    assert!(p.is_colocated());
                    assert_eq!(p.bottleneck_kbps, f64::INFINITY);
                } else {
                    assert!(p.hop_count() >= 1);
                    assert_eq!(p.nodes.first(), Some(&a));
                    assert_eq!(p.nodes.last(), Some(&b));
                    assert!(p.delay > acp_simcore::SimDuration::ZERO);
                    assert!(p.bottleneck_kbps.is_finite());
                }
            }
        }
    }

    #[test]
    fn virtual_path_aggregates_link_props() {
        let mut ov = build_pair(5, 15, 2);
        let a = OverlayNodeId(0);
        let b = OverlayNodeId(ov.node_count() as u32 - 1);
        let p = ov.virtual_path(a, b).unwrap();
        let mut delay = SimDuration::ZERO;
        let mut bw = f64::INFINITY;
        let mut pass = 1.0;
        for &l in &p.links {
            let props = ov.link_props(l);
            delay += props.delay;
            bw = bw.min(props.bandwidth_kbps);
            pass *= 1.0 - props.loss_rate;
        }
        assert_eq!(p.delay, delay);
        assert_eq!(p.bottleneck_kbps, bw);
        assert!((p.loss_rate - (1.0 - pass)).abs() < 1e-12);
    }

    #[test]
    fn link_endpoints_and_hops() {
        let ov = build_pair(6, 15, 2);
        for l in ov.links() {
            let (a, b) = ov.link_endpoints(l);
            assert_ne!(a, b);
            assert!(ov.link_ip_hops(l) >= 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_pair(7, 30, 4);
        let b = build_pair(7, 30, 4);
        assert_eq!(a.link_count(), b.link_count());
        let ia: Vec<_> = a.nodes().map(|v| a.ip_node(v)).collect();
        let ib: Vec<_> = b.nodes().map(|v| b.ip_node(v)).collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn virtual_path_memoizes_pairs() {
        let mut ov = build_pair(8, 20, 3);
        let (a, b) = (OverlayNodeId(0), OverlayNodeId(5));
        let first = ov.virtual_path(a, b).unwrap();
        let second = ov.virtual_path(a, b).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second lookup must come from the memo");
        let stats = ov.path_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        ov.invalidate_routes();
        assert_eq!(ov.path_cache_len(), 0);
        // Counters are cumulative across invalidations.
        assert_eq!(ov.path_cache_stats().hits, 1);
    }

    #[test]
    fn colocated_paths_are_memoized_too() {
        let mut ov = build_pair(8, 15, 2);
        let v = OverlayNodeId(3);
        let first = ov.virtual_path(v, v).unwrap();
        let second = ov.virtual_path(v, v).unwrap();
        assert!(first.is_colocated());
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn targeted_invalidation_preserves_correctness() {
        let mut ov = build_pair(9, 25, 3);
        let nodes: Vec<_> = ov.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                ov.virtual_path(a, b);
            }
        }
        let before = ov.path_cache_len();
        let failed = nodes[3];
        ov.invalidate_routes_for(failed);
        assert!(ov.path_cache_len() < before, "entries touching the node must be dropped");
        // Every answer after targeted invalidation (mix of surviving
        // memo entries and recomputations) must match a fresh overlay.
        let mut reference = build_pair(9, 25, 3);
        for &a in &nodes {
            for &b in &nodes {
                let got = ov.virtual_path(a, b);
                let want = reference.virtual_path(a, b);
                assert_eq!(got.as_deref(), want.as_deref(), "{a}->{b} diverged");
            }
        }
    }

    /// A down node disappears from the forwarding plane: it is refused
    /// as an endpoint, never traversed by fresh paths, and no cached
    /// path containing it survives.
    #[test]
    fn down_nodes_drop_out_of_routing() {
        let mut ov = build_pair(10, 25, 4);
        let nodes: Vec<_> = ov.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                ov.virtual_path(a, b);
            }
        }
        let dead = nodes[4];
        ov.set_node_down(dead, true);
        assert!(ov.is_node_down(dead));
        for &a in &nodes {
            for &b in &nodes {
                let p = ov.virtual_path(a, b);
                if a == dead || b == dead {
                    assert!(p.is_none(), "{a}->{b} must refuse a down endpoint");
                } else if let Some(p) = p {
                    assert!(!p.nodes.contains(&dead), "{a}->{b} routed through down {dead}");
                }
            }
        }
        // Every cached entry honours the invariant too.
        for ((a, b), p) in ov.cached_paths() {
            if let Some(p) = p {
                assert!(!p.nodes.contains(&dead), "cached {a}->{b} keeps down node");
            }
        }
        // Recovery restores the original answers.
        ov.set_node_down(dead, false);
        let mut reference = build_pair(10, 25, 4);
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    ov.virtual_path(a, b).as_deref(),
                    reference.virtual_path(a, b).as_deref(),
                    "{a}->{b} diverged after recovery"
                );
            }
        }
    }

    #[test]
    fn synthetic_overlay_is_connected_and_routable() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ov = Overlay::synthetic(500, 2, &mut rng);
        assert_eq!(ov.node_count(), 500);
        assert!(ov.is_connected(), "ring guarantees connectivity");
        assert!(ov.link_count() >= 500, "ring plus chords");
        for v in ov.nodes() {
            assert_eq!(ov.overlay_node(ov.ip_node(v)), Some(v));
        }
        let p = ov.virtual_path(OverlayNodeId(0), OverlayNodeId(250)).expect("connected");
        assert!(p.hop_count() >= 1);
        assert!(p.delay > SimDuration::ZERO);
        assert!(p.bottleneck_kbps.is_finite());
    }

    #[test]
    fn synthetic_overlay_is_deterministic_and_linear_time() {
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        let a = Overlay::synthetic(2_000, 3, &mut rng_a);
        let b = Overlay::synthetic(2_000, 3, &mut rng_b);
        assert_eq!(a.link_count(), b.link_count());
        for l in a.links() {
            assert_eq!(a.link_endpoints(l), b.link_endpoints(l));
            assert_eq!(a.link_props(l), b.link_props(l));
            assert_eq!(a.link_ip_hops(l), 1, "synthetic links have no IP underlay");
        }
    }

    #[test]
    #[should_panic(expected = "at least two stream nodes")]
    fn rejects_tiny_synthetic_overlay() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Overlay::synthetic(1, 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least two stream nodes")]
    fn rejects_tiny_overlay() {
        let mut rng = StdRng::seed_from_u64(0);
        let ip = InetConfig { nodes: 50, ..InetConfig::default() }.generate(&mut rng);
        let _ = Overlay::build(&ip, &OverlayConfig { stream_nodes: 1, neighbors: 2 }, &mut rng);
    }
}
