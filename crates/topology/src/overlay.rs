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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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
    /// Composed loss probability, in `[0, 1)`. Private with
    /// `loss_log_survival` so the two cannot drift apart.
    loss_rate: f64,
    /// `-ln(1 - loss_rate)`, the form in which loss adds along a
    /// composition. A path is immutable once memoized, so the `ln` is
    /// taken here once instead of by every hop decision that reads it.
    loss_log_survival: f64,
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
}

impl OverlayPath {
    /// A path over `nodes` and `links` with its aggregated QoS.
    ///
    /// # Panics
    ///
    /// Panics unless `loss_rate ∈ [0, 1)` — the check every reader of
    /// the additive loss term would otherwise repeat.
    pub fn new(
        nodes: Vec<OverlayNodeId>,
        links: Vec<OverlayLinkId>,
        delay: SimDuration,
        bottleneck_kbps: f64,
        loss_rate: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&loss_rate), "loss probability must be in [0,1), got {loss_rate}");
        let loss_log_survival = -(1.0 - loss_rate).ln();
        OverlayPath { nodes, links, delay, bottleneck_kbps, loss_rate, loss_log_survival }
    }

    /// A zero-length path (both components co-located on one node). Per
    /// the paper, co-located components have zero network delay and
    /// unbounded virtual-link bandwidth. (Its additive loss term is
    /// `-ln(1)` = `-0.0`, sign included.)
    pub fn colocated(node: OverlayNodeId) -> Self {
        OverlayPath::new(vec![node], Vec::new(), SimDuration::ZERO, f64::INFINITY, 0.0)
    }

    /// Composed loss probability, in `[0, 1)`.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// The loss in additive form, `-ln(1 - loss_rate)`: non-negative
    /// (or `-0.0`), computed once at construction.
    #[inline]
    pub fn loss_log_survival(&self) -> f64 {
        self.loss_log_survival
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

/// The path memo's hasher: the two `u32` halves of a `(from, to)` key
/// rotated into one word, multiplied by an odd constant, and the high
/// half folded down. The fold matters: the table indexes buckets by the
/// *low* bits of the hash, and the low bits of a bare product depend on
/// `to` alone. Not collision-resistant, and need not be — the keys are
/// the program's own node ids, never outside input.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    /// Fallback for keys that are not made of `u32`s; the memo's are.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        product ^ (product >> 32)
    }
}

type PathCache = HashMap<(OverlayNodeId, OverlayNodeId), Option<SharedPath>, BuildHasherDefault<PairHasher>>;

/// The overlay mesh of stream-processing nodes.
#[derive(Clone)]
pub struct Overlay {
    ip_nodes: Vec<NodeId>,
    mesh: Graph,
    route_cache: HashMap<OverlayNodeId, ShortestPathTree>,
    path_cache: PathCache,
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

        let n = ip_nodes.len();
        let mut mesh = Graph::new(n);

        // 2. k-nearest-neighbour mesh. `ip_nodes` is sorted and IP delays
        //    are positive, so Dijkstra settles stream nodes in ascending
        //    `(delay, overlay index)`: the first `neighbors` it settles
        //    are the nearest peers, and the search stops there.
        let mut stream_index: Vec<Option<usize>> = vec![None; ip_graph.node_count()];
        for (i, &ip) in ip_nodes.iter().enumerate() {
            stream_index[ip.index()] = Some(i);
        }
        let mut nearest: Vec<usize> = Vec::with_capacity(config.neighbors);
        for (i, &src) in ip_nodes.iter().enumerate() {
            nearest.clear();
            let tree = ShortestPathTree::compute_until(ip_graph, src, |u| {
                nearest.extend(stream_index[u.index()].filter(|&j| j != i));
                nearest.len() == config.neighbors
            });
            for &j in &nearest {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                if !mesh.has_edge(a, b) {
                    let path = tree.path_to(ip_graph, ip_nodes[j]).expect("settled nodes have paths");
                    mesh.add_edge(a, b, LinkProps::new(path.delay, path.bottleneck_kbps, path.loss_rate));
                }
            }
        }

        // 3. Full IP routing trees, computed only if a bridge needs them.
        let mut routing = RoutingTable::new();

        // 4. Bridge components (possible when the IP graph is disconnected
        //    or k-NN selection forms islands).
        loop {
            let component = mesh.connected_component(NodeId(0));
            if component.len() == mesh.node_count() {
                break;
            }
            let mut inside = vec![false; n];
            for c in &component {
                inside[c.index()] = true;
            }
            // Connect the closest inside/outside pair (ties: lowest
            // outside, then inside, index).
            let mut best: Option<(SimDuration, usize, usize)> = None;
            for o in (0..n).filter(|&o| !inside[o]) {
                let tree = routing.tree(ip_graph, ip_nodes[o]);
                for i in (0..n).filter(|&i| inside[i]) {
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
        }

        Self::with_cold_caches(ip_nodes, mesh)
    }

    /// An overlay over a finished mesh, all nodes up, nothing cached.
    fn with_cold_caches(ip_nodes: Vec<NodeId>, mesh: Graph) -> Self {
        Overlay {
            down: vec![false; ip_nodes.len()],
            ip_nodes,
            mesh,
            route_cache: HashMap::new(),
            path_cache: PathCache::default(),
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
        }
        for i in 0..n {
            for _ in 0..chords_per_node {
                let j = rng.gen_range(0..n);
                if j == i || mesh.has_edge(NodeId(i), NodeId(j)) {
                    continue;
                }
                let props = sample_props(rng);
                mesh.add_edge(NodeId(i), NodeId(j), props);
                }
        }
        Self::with_cold_caches((0..n).map(NodeId).collect(), mesh)
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
    /// Both caches always answer as a fresh overlay with the same down
    /// set would: [`Self::set_node_down`] drops exactly the entries a
    /// failure could change and keeps every tree a recovery provably
    /// leaves alone.
    pub fn virtual_path(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<SharedPath> {
        self.virtual_path_ref(from, to).cloned()
    }

    /// [`Self::virtual_path`] by reference into the memo: the same
    /// lookup, the same hit/miss counting and the same insert on a miss,
    /// without the `Arc` clone. For callers that only read the path — a
    /// hop decision looks at many candidates' paths and keeps few.
    pub fn virtual_path_ref(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<&SharedPath> {
        // The entry API finds the slot once for hit and miss alike.
        match self.path_cache.entry((from, to)) {
            Entry::Occupied(hit) => {
                self.cache_stats.hits += 1;
                hit.into_mut().as_ref()
            }
            Entry::Vacant(slot) => {
                self.cache_stats.misses += 1;
                let computed =
                    compute_virtual_path(&self.mesh, &self.down, &mut self.route_cache, from, to);
                slot.insert(computed.map(Arc::new)).as_ref()
            }
        }
    }

    /// The memoized path from `from` to `to`, if the pair has been
    /// resolved and is reachable. Counts nothing and computes nothing:
    /// for re-reading an answer [`Self::virtual_path_ref`] already gave.
    pub fn memoized_path(&self, from: OverlayNodeId, to: OverlayNodeId) -> Option<&SharedPath> {
        self.path_cache.get(&(from, to))?.as_ref()
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
    /// through it. Either way only the cached routes the change can
    /// alter are dropped: a failure goes through
    /// [`Self::invalidate_routes_for`], a recovery re-admits the node
    /// into the cached trees. No-op when the flag is unchanged.
    pub fn set_node_down(&mut self, node: OverlayNodeId, down: bool) {
        if self.down[node.index()] == down {
            return;
        }
        self.down[node.index()] = down;
        if down {
            self.invalidate_routes_for(node);
        } else {
            self.readmit_routes_for(node);
        }
    }

    /// Re-admits a recovered `node` into every cached tree
    /// ([`ShortestPathTree::readmit`]): where it would be a leaf — in
    /// this mesh, almost every tree — it is attached in place and the
    /// tree stays; where it would forward traffic the tree is dropped,
    /// as a failure drops it. A memoized path survives when its source's
    /// tree did and neither endpoint is `node` (those were refusals);
    /// without a surviving tree an entry can no longer be proven current.
    fn readmit_routes_for(&mut self, node: OverlayNodeId) {
        let (mesh, down) = (&self.mesh, &self.down);
        self.route_cache.retain(|_, tree| tree.readmit(mesh, NodeId(node.0), down));
        let trees = &self.route_cache;
        self.path_cache
            .retain(|&(from, to), _| from != node && to != node && trees.contains_key(&from));
    }

    /// True when `node`'s forwarding plane is marked down.
    pub fn is_node_down(&self, node: OverlayNodeId) -> bool {
        self.down[node.index()]
    }

    /// Drops only the cached routes a failure of `node` could change:
    /// the tree rooted at `node`, any tree where `node` forwards traffic
    /// (its failure would reroute those paths), and memoized paths that
    /// start at, end at, or traverse `node`. Trees and paths that never
    /// touch `node` remain valid — removing a node can only remove
    /// routes, never create shorter ones. A kept tree retains `node`'s
    /// own, now stale, leaf entry: no query reads it while the node is
    /// down, and re-admission overwrites it.
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

/// Uncached path extraction (still reuses the per-source tree cache).
/// Down nodes are refused as endpoints and never traversed, so no
/// computed (and hence no cached) path ever contains a down node. A free
/// function over the fields it needs, so the memo's entry can stay
/// borrowed across the call.
fn compute_virtual_path(
    mesh: &Graph,
    down: &[bool],
    route_cache: &mut HashMap<OverlayNodeId, ShortestPathTree>,
    from: OverlayNodeId,
    to: OverlayNodeId,
) -> Option<OverlayPath> {
    if down[from.index()] || down[to.index()] {
        return None;
    }
    if from == to {
        return Some(OverlayPath::colocated(from));
    }
    let tree = route_cache
        .entry(from)
        .or_insert_with(|| ShortestPathTree::compute_excluding(mesh, NodeId(from.0), down));
    let ip = tree.path_to(mesh, NodeId(to.0))?;
    Some(OverlayPath::new(
        ip.nodes.iter().map(|n| OverlayNodeId(n.0)).collect(),
        ip.edges.iter().map(|e| OverlayLinkId(e.0)).collect(),
        ip.delay,
        ip.bottleneck_kbps,
        ip.loss_rate,
    ))
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
        assert!((p.loss_rate() - (1.0 - pass)).abs() < 1e-12);
    }

    #[test]
    fn link_endpoints_are_distinct() {
        let ov = build_pair(6, 15, 2);
        for l in ov.links() {
            let (a, b) = ov.link_endpoints(l);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_pair(7, 30, 4);
        let b = build_pair(7, 30, 4);
        assert_eq!(a.link_count(), b.link_count());
        assert_eq!(a.ip_nodes, b.ip_nodes);
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

    /// The construction `Overlay::build` replaced, kept as its oracle:
    /// one full IP tree per stream node, every peer's distance sorted by
    /// `(delay, index)`, the first `neighbors` linked; then the shared
    /// bridging rule. Returns `(a, b, props)` per link, in order,
    /// and how many of them are bridges.
    fn reference_mesh(
        ip_graph: &Graph,
        config: &OverlayConfig,
        rng: &mut StdRng,
    ) -> (Vec<(NodeId, NodeId, LinkProps)>, usize) {
        let mut all: Vec<NodeId> = ip_graph.nodes().collect();
        all.shuffle(rng);
        let mut ip_nodes: Vec<NodeId> = all.into_iter().take(config.stream_nodes).collect();
        ip_nodes.sort_unstable();
        let n = ip_nodes.len();
        let mut routing = RoutingTable::new();
        let mut mesh = Graph::new(n);
        let mut links = Vec::new();
        let mut link = |mesh: &mut Graph, routing: &mut RoutingTable, a: usize, b: usize| {
            let path = routing.path(ip_graph, ip_nodes[a], ip_nodes[b]).expect("distance implies path");
            let props = LinkProps::new(path.delay, path.bottleneck_kbps, path.loss_rate);
            mesh.add_edge(NodeId(a as u32), NodeId(b as u32), props);
            links.push((NodeId(a as u32), NodeId(b as u32), props));
        };
        for i in 0..n {
            let tree = routing.tree(ip_graph, ip_nodes[i]);
            let mut dists: Vec<(SimDuration, usize)> = (0..n)
                .filter(|&j| j != i)
                .filter_map(|j| tree.distance(ip_nodes[j]).map(|d| (d, j)))
                .collect();
            dists.sort_unstable();
            for &(_, j) in dists.iter().take(config.neighbors) {
                if !mesh.has_edge(NodeId(i as u32), NodeId(j as u32)) {
                    link(&mut mesh, &mut routing, i, j);
                }
            }
        }
        let nearest_links = mesh.edge_count();
        loop {
            let component = mesh.connected_component(NodeId(0));
            if component.len() == n {
                break;
            }
            let inside: Vec<usize> = (0..n).filter(|&i| component.contains(&NodeId(i as u32))).collect();
            let mut best: Option<(SimDuration, usize, usize)> = None;
            for o in (0..n).filter(|o| !inside.contains(o)) {
                for &i in &inside {
                    if let Some(d) = routing.distance(ip_graph, ip_nodes[o], ip_nodes[i]) {
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, o, i));
                        }
                    }
                }
            }
            let (_, o, i) = best.expect("IP graph must connect the selected stream nodes");
            link(&mut mesh, &mut routing, o, i);
        }
        let bridges = mesh.edge_count() - nearest_links;
        (links, bridges)
    }

    /// The stopped k-nearest search builds the mesh the all-full-trees
    /// construction built — edge order, endpoints and `LinkProps` bits —
    /// including the bridges `neighbors = 1` forces.
    #[test]
    fn build_matches_the_full_tree_reference() {
        let mut bridged_builds = 0;
        for seed in 0..16u64 {
            for neighbors in [1usize, 2, 4, 6] {
                let mut rng = StdRng::seed_from_u64(seed);
                // Delays of 1..=3 ms make equidistant peers the norm.
                let ip = InetConfig { nodes: 240, delay_ms: (1, 3 + seed % 2 * 17), ..InetConfig::default() }
                    .generate(&mut rng);
                let config = OverlayConfig { stream_nodes: 40, neighbors };
                let (want, bridges) = reference_mesh(&ip, &config, &mut rng.clone());
                let ov = Overlay::build(&ip, &config, &mut rng);
                let got: Vec<_> = ov
                    .links()
                    .map(|l| {
                        let (a, b) = ov.mesh.endpoints(EdgeId(l.0));
                        (a, b, *ov.link_props(l))
                    })
                    .collect();
                assert_eq!(got, want, "seed {seed}, {neighbors} neighbours");
                assert!(ov.is_connected());
                bridged_builds += usize::from(bridges > 0);
            }
        }
        assert!(bridged_builds >= 16, "the bridging branch is compared too ({bridged_builds} builds)");
    }

    #[test]
    #[should_panic(expected = "IP graph must connect the selected stream nodes")]
    fn rejects_a_disconnected_ip_graph() {
        let mut ip = Graph::new(4);
        ip.add_edge(NodeId(0), NodeId(1), LinkProps::default());
        ip.add_edge(NodeId(2), NodeId(3), LinkProps::default());
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Overlay::build(&ip, &OverlayConfig { stream_nodes: 4, neighbors: 2 }, &mut rng);
    }

    /// An overlay over a hand-built mesh (no IP underlay).
    fn from_mesh(mesh: Graph) -> Overlay {
        Overlay::with_cold_caches(mesh.nodes().collect(), mesh)
    }

    fn mesh_of(n: usize, links: &[(u32, u32, u64)]) -> Graph {
        let mut g = Graph::new(n);
        for &(a, b, ms) in links {
            g.add_edge(NodeId(a), NodeId(b), LinkProps::new(SimDuration::from_millis(ms), 1_000.0, 0.0));
        }
        g
    }

    /// Every `(a, b)` answer of `ov` equals a cold overlay's over the
    /// same mesh and down set.
    fn assert_answers_fresh(ov: &mut Overlay, context: &str) {
        let mut fresh = from_mesh(ov.mesh.clone());
        fresh.down = ov.down.clone();
        let nodes: Vec<_> = ov.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    ov.virtual_path(a, b).as_deref(),
                    fresh.virtual_path(a, b).as_deref(),
                    "{context}: {a}->{b}"
                );
            }
        }
    }

    /// A recovered leaf is attached in place: the trees and the memo
    /// survive, and the next lookup of a surviving pair is a hit.
    #[test]
    fn a_recovered_leaf_keeps_trees_and_memo_warm() {
        // Triangle 0-1-2 with leaf 3 hanging off 2.
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2)]));
        assert_answers_fresh(&mut ov, "warm-up");
        let leaf = OverlayNodeId(3);
        ov.set_node_down(leaf, true);
        assert_answers_fresh(&mut ov, "leaf down");
        ov.set_node_down(leaf, false);
        assert_eq!(ov.route_cache.len(), 3, "only the leaf's own tree went, at its failure");
        assert!(ov.path_cache_len() > 0);
        assert!(ov.cached_paths().all(|((a, b), _)| a != leaf && b != leaf), "refusals are dropped");
        let hits = ov.path_cache_stats().hits;
        assert!(ov.virtual_path(OverlayNodeId(0), OverlayNodeId(2)).is_some());
        assert_eq!(ov.path_cache_stats().hits, hits + 1, "a surviving pair is a hit");
        assert_answers_fresh(&mut ov, "leaf back");
    }

    /// A cut vertex makes unreachable nodes reachable when it returns:
    /// the cached "no route" and the trees that held it must go.
    #[test]
    fn a_recovered_cut_vertex_drops_the_trees_it_reconnects() {
        // 0 - 1 - 2 - 3 in a line; 2 is the cut vertex.
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        let cut = OverlayNodeId(2);
        ov.set_node_down(cut, true);
        assert_answers_fresh(&mut ov, "cut down");
        assert!(ov.virtual_path(OverlayNodeId(0), OverlayNodeId(3)).is_none());
        ov.set_node_down(cut, false);
        // From either side, 2 relays to the other: no tree survives.
        assert!(ov.route_cache.is_empty() && ov.path_cache_len() == 0);
        assert!(ov.virtual_path(OverlayNodeId(0), OverlayNodeId(3)).is_some());
        assert_answers_fresh(&mut ov, "cut back");
    }

    /// Equal-delay routes: the returning node takes over a neighbour when
    /// it is the canonical predecessor — `(dist, id)` smaller than the
    /// current one — and only then.
    #[test]
    fn a_recovered_node_that_wins_a_tie_drops_the_tree() {
        // Two equal routes 0 -> 3: via 1 or via 2 (all 1 ms). Fresh
        // Dijkstra picks 1, the lower id.
        let links = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)];
        for (down, kept) in [(1u32, false), (2, true)] {
            let mut ov = from_mesh(mesh_of(4, &links));
            ov.set_node_down(OverlayNodeId(down), true);
            let via = ov.virtual_path(OverlayNodeId(0), OverlayNodeId(3)).unwrap();
            assert_eq!(via.nodes[1], OverlayNodeId(3 - down));
            ov.set_node_down(OverlayNodeId(down), false);
            assert_eq!(ov.route_cache.contains_key(&OverlayNodeId(0)), kept, "node {down}");
            assert_answers_fresh(&mut ov, "tie");
        }
    }

    /// Entries of down nodes in a kept tree are stale, and re-admission
    /// must neither trust nor keep them. 1 and 2 fail as leaves of 0's
    /// tree at different times; each recovers while the other's entry is
    /// stale, and 1 — re-admitted while 2 was down — holds a shortcut to
    /// 2 that is only real once both are up.
    #[test]
    fn stale_entries_of_down_nodes_are_neither_used_nor_kept() {
        // 0 -1ms- 1 -1ms- 2, and the long way round 0 -5ms- 3 -5ms- 2.
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 1), (0, 3, 5), (3, 2, 5)]));
        let (src, short, far) = (OverlayNodeId(0), OverlayNodeId(1), OverlayNodeId(2));
        ov.set_node_down(short, true);
        let ten = SimDuration::from_millis(10);
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, ten, "0's tree is built without 1");
        for (node, down, context) in [
            (far, true, "2 fails as a leaf"),
            (short, false, "1 returns as a leaf: its other neighbour is down"),
            (short, true, "1 fails as a leaf, leaving a 1 ms entry behind"),
            (far, false, "2 returns next to that stale entry and must come in via 3"),
        ] {
            ov.set_node_down(node, down);
            assert!(ov.route_cache.contains_key(&src), "{context}: 0's tree is kept");
            assert_answers_fresh(&mut ov, context);
        }
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, ten);
        ov.set_node_down(short, false);
        assert!(!ov.route_cache.contains_key(&src), "1 now relays to 2: the tree goes");
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, SimDuration::from_millis(2));
        assert_answers_fresh(&mut ov, "all back");
    }

    /// Zero-delay mesh links void the canonical-predecessor rule, so
    /// re-admission falls back to dropping every tree.
    #[test]
    fn zero_delay_links_fall_back_to_dropping_trees() {
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 0)]));
        assert_answers_fresh(&mut ov, "warm-up");
        ov.set_node_down(OverlayNodeId(3), true);
        ov.set_node_down(OverlayNodeId(3), false);
        assert_eq!((ov.route_cache.len(), ov.path_cache_len()), (0, 0));
        assert_answers_fresh(&mut ov, "after the fallback");
    }

    #[test]
    fn synthetic_overlay_is_connected_and_routable() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ov = Overlay::synthetic(500, 2, &mut rng);
        assert_eq!(ov.node_count(), 500);
        assert!(ov.is_connected(), "ring guarantees connectivity");
        assert!(ov.link_count() >= 500, "ring plus chords");
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
