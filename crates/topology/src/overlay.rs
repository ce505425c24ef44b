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
use crate::routing::{bottleneck_and_loss, NearestTargets, RoutingTable, ShortestPathTree};

/// Index of a stream-processing node within the overlay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
///
/// The node and link ids sit inside the path itself up to five links,
/// so a memoized path is one allocation, its `Arc`'s; a longer path
/// keeps them in two boxed slices.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayPath {
    /// Visited overlay nodes, source first.
    pub nodes: PathIds<OverlayNodeId, { INLINE_HOPS + 1 }>,
    /// Traversed overlay links.
    pub links: PathIds<OverlayLinkId, INLINE_HOPS>,
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

/// Overlay links a path holds inline. The 11.2k paths a 400-node
/// overlay memoizes at seed 42 have 1–4 links, 2 or 3 in 96 % of them.
/// At five, a path behind its `Arc` header is a 104-byte request, which
/// glibc's malloc serves from the same 112-byte chunk as four's 96.
const INLINE_HOPS: usize = 5;

/// The node or link ids of an [`OverlayPath`], a slice by deref: up to
/// `N` inline, in a boxed slice past that. Unused inline slots keep
/// their default and the variant follows from the length, so derived
/// equality is equality of the ids.
#[derive(Clone, PartialEq)]
pub struct PathIds<T, const N: usize>(Ids<T, N>);

#[derive(Clone, PartialEq)]
enum Ids<T, const N: usize> {
    /// The first `len` of `ids`.
    Inline { len: u8, ids: [T; N] },
    Spilled(Box<[T]>),
}

impl<T: Copy + Default, const N: usize> PathIds<T, N> {
    /// `len` default ids, to be overwritten.
    fn zeroed(len: usize) -> Self {
        PathIds(if len <= N {
            Ids::Inline { len: len as u8, ids: [T::default(); N] }
        } else {
            Ids::Spilled(vec![T::default(); len].into())
        })
    }

    fn from_slice(ids: &[T]) -> Self {
        let mut path_ids = Self::zeroed(ids.len());
        path_ids.copy_from_slice(ids);
        path_ids
    }
}

impl<T, const N: usize> std::ops::Deref for PathIds<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Ids::Inline { len, ids } => &ids[..usize::from(*len)],
            Ids::Spilled(ids) => ids,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for PathIds<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Ids::Inline { len, ids } => &mut ids[..usize::from(*len)],
            Ids::Spilled(ids) => ids,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a PathIds<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for PathIds<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A shared, immutable [`OverlayPath`].
///
/// Virtual links are memoized per `(from, to)` pair inside [`Overlay`],
/// and a composition holding `h` hops would otherwise copy each path on
/// every probe extension. Handing out `Arc<OverlayPath>` makes those
/// copies reference bumps, and a path of up to five links is the one
/// allocation of its `Arc`; deref coercion keeps every
/// `&OverlayPath`-taking API unchanged.
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

impl OverlayPath {
    /// A path over `nodes` and `links` with its aggregated QoS.
    ///
    /// # Panics
    ///
    /// Panics unless `loss_rate ∈ [0, 1)` — the check every reader of
    /// the additive loss term would otherwise repeat.
    pub fn new(
        nodes: &[OverlayNodeId],
        links: &[OverlayLinkId],
        delay: SimDuration,
        bottleneck_kbps: f64,
        loss_rate: f64,
    ) -> Self {
        OverlayPath::with_ids(PathIds::from_slice(nodes), PathIds::from_slice(links), delay, bottleneck_kbps, loss_rate)
    }

    fn with_ids(
        nodes: PathIds<OverlayNodeId, { INLINE_HOPS + 1 }>,
        links: PathIds<OverlayLinkId, INLINE_HOPS>,
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
        OverlayPath::new(&[node], &[], SimDuration::ZERO, f64::INFINITY, 0.0)
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

/// How many memo inserts the insert log names between two drains. Past
/// that it records only that it overflowed, so an overlay nobody drains
/// holds a log of bounded size.
const MEMO_LOG_CAP: usize = 1024;

/// The keys the memo-miss arm inserted since the last drain.
#[derive(Debug, Clone, Default)]
struct InsertLog {
    keys: Vec<(OverlayNodeId, OverlayNodeId)>,
    overflowed: bool,
}

impl InsertLog {
    fn record(&mut self, key: (OverlayNodeId, OverlayNodeId)) {
        if self.keys.len() < MEMO_LOG_CAP {
            self.keys.push(key);
        } else {
            self.overflowed = true;
        }
    }
}

/// The overlay mesh of stream-processing nodes.
#[derive(Clone)]
pub struct Overlay {
    ip_nodes: Vec<NodeId>,
    mesh: Graph,
    /// One tree per source, shared with the overlay's clones until a
    /// repair gives one side its own copy.
    route_cache: HashMap<OverlayNodeId, Arc<ShortestPathTree>>,
    path_cache: PathCache,
    /// Written by the memo-miss arm alone, read by
    /// [`Self::drain_memo_inserts`].
    memo_log: InsertLog,
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
    /// A node's peers come from one Dijkstra search that skips every
    /// relaxation longer than `U`, the largest of the `neighbors` smallest
    /// tentative peer distances, and so never below the true distance of
    /// the last peer. Every node a search stopped at that peer would
    /// settle is reached within that distance, and nothing skipped would
    /// have been popped before the stop. The peers, their paths and the
    /// mesh are therefore exactly those of the stopped search, ties
    /// included.
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
        //    are positive, so each search settles stream nodes in
        //    ascending `(delay, overlay index)`: the first `neighbors` it
        //    settles are the nearest peers. The searches' shared scratch
        //    is freed before bridging.
        {
            let mut search = NearestTargets::new(ip_graph, &ip_nodes);
            let mut nearest: Vec<usize> = Vec::with_capacity(config.neighbors);
            for (i, &src) in ip_nodes.iter().enumerate() {
                search.search(src, config.neighbors, &mut nearest, |_| ());
                for &j in &nearest {
                    let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                    if !mesh.has_edge(a, b) {
                        mesh.add_edge(a, b, search.link_props(ip_graph, ip_nodes[j]));
                    }
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
            memo_log: InsertLog::default(),
            cache_stats: PathCacheStats::default(),
        }
    }

    /// Builds a synthetic overlay mesh directly, without an IP underlay:
    /// a ring (guaranteeing connectivity) plus `chords_per_node` random
    /// chords per node, with link properties sampled per link. Each
    /// overlay node maps to the identically-numbered synthetic IP node.
    ///
    /// [`Self::build`] runs one Dijkstra search per node over the IP
    /// graph — far too slow past a few thousand nodes. The scale
    /// experiments need 100k-node
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
    /// set would: every cached tree is exactly the tree a fresh overlay
    /// would build, because [`Self::set_node_down`] repairs each one in
    /// place, and the memo loses only the pairs whose route a repair
    /// changed.
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
                self.memo_log.record((from, to));
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

    /// Moves the keys the memo-miss arm inserted since the last drain
    /// into `into` (cleared first) and returns `true`; returns `false`
    /// when more came than the log holds, so any entry may be new. An
    /// entry is never rewritten in place, so every memoized path not
    /// named here was already in the memo at the last drain. The reader
    /// is the incremental auditor, which checks these entries instead of
    /// walking the memo.
    pub fn drain_memo_inserts(&mut self, into: &mut Vec<(OverlayNodeId, OverlayNodeId)>) -> bool {
        into.clear();
        into.append(&mut self.memo_log.keys);
        !std::mem::take(&mut self.memo_log.overflowed)
    }

    /// Marks a node's forwarding plane down or up. While down, the node
    /// is refused as a `virtual_path` endpoint and routing never relays
    /// through it. No-op when the flag is unchanged.
    ///
    /// Every cached tree is repaired in place
    /// (`ShortestPathTree::remove_node` / `ShortestPathTree::add_node`)
    /// and reports the targets whose route changed; the memo loses
    /// exactly those pairs of its row, plus the pairs keyed by `node`
    /// itself — answered as refusals while it is down, and on a recovery
    /// also the `(from, node)` refusals of sources without a tree. The
    /// tree of a failed source, and a tree whose repair read a
    /// zero-delay link, are dropped with their rows.
    pub fn set_node_down(&mut self, node: OverlayNodeId, down: bool) {
        if self.down[node.index()] == down {
            return;
        }
        self.down[node.index()] = down;
        let nodes = (0..self.node_count() as u32).map(OverlayNodeId);
        let (mesh, blocked, path_cache) = (&self.mesh, &self.down, &mut self.path_cache);
        let mut targets = Vec::new();
        self.route_cache.retain(|&source, tree| {
            let tree = Arc::make_mut(tree);
            let exact = if down {
                tree.remove_node(mesh, NodeId(node.0), blocked, &mut targets)
            } else {
                tree.add_node(mesh, NodeId(node.0), blocked, &mut targets)
            };
            if exact {
                for t in &targets {
                    path_cache.remove(&(source, OverlayNodeId(t.0)));
                }
            } else {
                for t in nodes.clone() {
                    path_cache.remove(&(source, t));
                }
            }
            exact
        });
        for t in nodes {
            path_cache.remove(&(node, t));
            if !down {
                path_cache.remove(&(t, node));
            }
        }
    }

    /// True when `node`'s forwarding plane is marked down.
    pub fn is_node_down(&self, node: OverlayNodeId) -> bool {
        self.down[node.index()]
    }

    /// Flips `node`'s forwarding-plane flag and nothing else: no tree is
    /// repaired and no memo entry dropped. This breaks, on purpose, the
    /// invariant [`Self::set_node_down`] keeps. It stands in for a
    /// routing bug, so that the system auditor's tests in other crates
    /// can show the auditor notices one; nothing else calls it.
    #[doc(hidden)]
    pub fn set_node_down_unrepaired(&mut self, node: OverlayNodeId, down: bool) {
        self.down[node.index()] = down;
    }

    /// Forgets the cached trees `node` forwards in — its own included —
    /// with their memo rows; changes no state. The next lookup from
    /// those sources is a miss that builds its tree from scratch. Its one
    /// caller is the benchmark's cold-lookup replay
    /// (`benchmark/src/workloads/paper_steady.rs`), which ROADMAP item 2
    /// can move onto [`Self::set_node_down`] — the source down, then up —
    /// deleting this.
    pub fn invalidate_routes_for(&mut self, node: OverlayNodeId) {
        let mesh = &self.mesh;
        self.route_cache.retain(|_, tree| !tree.routes_through(mesh, NodeId(node.0)));
        let trees = &self.route_cache;
        self.path_cache.retain(|(from, _), _| trees.contains_key(from));
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
///
/// The path is read off the tree straight into its own storage: the
/// route is walked once for its length and once to fill it, destination
/// first, and its links folded source first, as `path_to` folds them.
fn compute_virtual_path(
    mesh: &Graph,
    down: &[bool],
    route_cache: &mut HashMap<OverlayNodeId, Arc<ShortestPathTree>>,
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
        .or_insert_with(|| Arc::new(ShortestPathTree::compute_excluding(mesh, NodeId(from.0), down)));
    let dst = NodeId(to.0);
    let delay = tree.distance(dst)?;
    let len = tree.route_back(mesh, dst).count();
    let (mut nodes, mut links) = (PathIds::zeroed(len + 1), PathIds::zeroed(len));
    nodes[len] = to;
    for (i, (link, node)) in (0..len).rev().zip(tree.route_back(mesh, dst)) {
        (links[i], nodes[i]) = (OverlayLinkId(link.0), OverlayNodeId(node.0));
    }
    let (bottleneck, loss) = bottleneck_and_loss(mesh, links.iter().map(|l| EdgeId(l.0)));
    Some(OverlayPath::with_ids(nodes, links, delay, bottleneck, loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inet::InetConfig;
    use crate::routing::IpPath;
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

    /// The next drain names every memo insert once, in insert order;
    /// past the log's capacity it reports an overflow instead.
    #[test]
    fn memo_inserts_are_logged_until_the_log_overflows() {
        let mut ov = build_pair(8, 20, 3);
        let mut keys = Vec::new();
        let key = |a, b| (OverlayNodeId(a), OverlayNodeId(b));
        for (a, b) in [(0, 5), (5, 0), (2, 2), (0, 5)] {
            ov.virtual_path(OverlayNodeId(a), OverlayNodeId(b));
        }
        assert!(ov.drain_memo_inserts(&mut keys));
        assert_eq!(keys, [key(0, 5), key(5, 0), key(2, 2)], "the repeat was a hit");
        assert!(ov.drain_memo_inserts(&mut keys) && keys.is_empty());
        let nodes: Vec<_> = ov.nodes().collect();
        while ov.path_cache_stats().misses <= (3 + MEMO_LOG_CAP) as u64 {
            for &a in &nodes {
                for &b in &nodes {
                    ov.virtual_path(a, b);
                }
                ov.invalidate_routes_for(a);
            }
        }
        assert!(!ov.drain_memo_inserts(&mut keys), "the log overflowed");
        assert_eq!(keys.len(), MEMO_LOG_CAP);
        assert!(ov.drain_memo_inserts(&mut keys) && keys.is_empty(), "a drain resets the overflow");
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

    /// How a reference mesh finds each stream node's nearest peers.
    #[derive(Debug, Clone, Copy)]
    enum Nearest {
        /// The construction `Overlay::build` replaced: one search per
        /// stream node stopped at the `neighbors`-th peer it settles
        /// (`compute_until`), each new link read off that tree.
        StoppedSearch,
        /// The definition: one full IP tree per stream node, every peer's
        /// distance sorted by `(delay, index)`, the first `neighbors`
        /// linked along the routing table's paths.
        FullTree,
    }

    /// `Overlay::build` by a reference construction: the same stream
    /// nodes, the peers `nearest` finds, then the shared bridging rule.
    /// Returns the links in insertion order and how many are bridges.
    fn reference_mesh(
        ip_graph: &Graph,
        config: &OverlayConfig,
        rng: &mut StdRng,
        nearest: Nearest,
    ) -> (Vec<LinkBits>, usize) {
        let mut all: Vec<NodeId> = ip_graph.nodes().collect();
        all.shuffle(rng);
        let mut ip_nodes: Vec<NodeId> = all.into_iter().take(config.stream_nodes).collect();
        ip_nodes.sort_unstable();
        let n = ip_nodes.len();
        let mut routing = RoutingTable::new();
        let mut mesh = Graph::new(n);
        let mut links = Vec::new();
        let mut link = |mesh: &mut Graph, a: usize, b: usize, path: IpPath| {
            let props = LinkProps::new(path.delay, path.bottleneck_kbps, path.loss_rate);
            let (a, b) = (NodeId(a as u32), NodeId(b as u32));
            mesh.add_edge(a, b, props);
            links.push(bits(a, b, &props));
        };
        let mut stream_index: Vec<Option<usize>> = vec![None; ip_graph.node_count()];
        for (i, &ip) in ip_nodes.iter().enumerate() {
            stream_index[ip.index()] = Some(i);
        }
        for (i, &src) in ip_nodes.iter().enumerate() {
            let (peers, tree) = match nearest {
                Nearest::StoppedSearch => {
                    let mut peers = Vec::new();
                    let tree = ShortestPathTree::compute_until(ip_graph, src, |u| {
                        peers.extend(stream_index[u.index()].filter(|&j| j != i));
                        peers.len() == config.neighbors
                    });
                    (peers, tree)
                }
                Nearest::FullTree => {
                    let tree = routing.tree(ip_graph, src).clone();
                    let mut dists: Vec<(SimDuration, usize)> = (0..n)
                        .filter(|&j| j != i)
                        .filter_map(|j| tree.distance(ip_nodes[j]).map(|d| (d, j)))
                        .collect();
                    dists.sort_unstable();
                    (dists.iter().take(config.neighbors).map(|&(_, j)| j).collect(), tree)
                }
            };
            for j in peers {
                if !mesh.has_edge(NodeId(i as u32), NodeId(j as u32)) {
                    link(&mut mesh, i, j, tree.path_to(ip_graph, ip_nodes[j]).expect("settled nodes have paths"));
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
            let path = routing.path(ip_graph, ip_nodes[o], ip_nodes[i]).expect("distance implies path");
            link(&mut mesh, o, i, path);
        }
        let bridges = mesh.edge_count() - nearest_links;
        (links, bridges)
    }

    /// A mesh link as endpoints, delay and the bits of bandwidth and loss.
    type LinkBits = (NodeId, NodeId, SimDuration, u64, u64);

    fn bits(a: NodeId, b: NodeId, props: &LinkProps) -> LinkBits {
        (a, b, props.delay, props.bandwidth_kbps.to_bits(), props.loss_rate.to_bits())
    }

    /// Asserts that `Overlay::build` links exactly what both reference
    /// constructions link — edge order, endpoints and `LinkProps` bits —
    /// and returns whether the build needed bridges.
    fn assert_build_matches_references(ip: &Graph, config: OverlayConfig, rng: &StdRng, context: &str) -> bool {
        let ov = Overlay::build(ip, &config, &mut rng.clone());
        let got: Vec<_> = ov
            .links()
            .map(|l| {
                let (a, b) = ov.mesh.endpoints(EdgeId(l.0));
                bits(a, b, ov.link_props(l))
            })
            .collect();
        assert!(ov.is_connected(), "{context}");
        let mut bridged = false;
        for nearest in [Nearest::StoppedSearch, Nearest::FullTree] {
            let (want, bridges) = reference_mesh(ip, &config, &mut rng.clone(), nearest);
            assert_eq!(got, want, "{context}: {nearest:?} reference");
            bridged |= bridges > 0;
        }
        bridged
    }

    /// `Overlay::build` links each stream node to its nearest peers by
    /// routed delay, as the full IP trees define them, including the
    /// bridges `neighbors = 1` forces.
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
                let context = format!("seed {seed}, {neighbors} neighbours");
                bridged_builds += usize::from(assert_build_matches_references(&ip, config, &rng, &context));
            }
        }
        assert!(bridged_builds >= 16, "the bridging branch is compared too ({bridged_builds} builds)");
    }

    /// Two Inet graphs of `nodes` each, joined by one 200 ms link: every
    /// few-neighbour mesh over them falls into islands the bridging step
    /// must join.
    fn two_clusters(nodes: usize, delay_ms: (u64, u64), rng: &mut StdRng) -> Graph {
        let mut ip = Graph::new(2 * nodes);
        for offset in [0, nodes as u32] {
            let cluster = InetConfig { nodes, delay_ms, ..InetConfig::default() }.generate(rng);
            for e in 0..cluster.edge_count() as u32 {
                let (a, b) = cluster.endpoints(EdgeId(e));
                ip.add_edge(NodeId(a.0 + offset), NodeId(b.0 + offset), *cluster.props(EdgeId(e)));
            }
        }
        ip.add_edge(NodeId(0), NodeId(nodes as u32), LinkProps::new(SimDuration::from_millis(200), 1_000.0, 0.01));
        ip
    }

    /// The bounded k-nearest search builds the mesh the stopped searches
    /// and the full trees build. IP graphs of 50, 300 and 3 200 nodes,
    /// whose 1..=3 ms links (every other seed) make equidistant peers the
    /// norm; 1, 6 and all-but-one neighbours, and two stream nodes; and
    /// two clusters one long link apart, so that the bridging step runs.
    #[test]
    fn build_matches_the_stopped_search_reference() {
        let mut bridged_builds = 0;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let delay_ms = (1, 3 + seed % 2 * 17);
            // All-but-one neighbours on 400 stream nodes would cost seconds
            // unoptimised; 50 of 3 200 keeps the sparse targets.
            let sizes: [(usize, usize, &[usize]); 4] =
                [(50, 20, &[1, 6, 19]), (300, 40, &[1, 6, 39]), (3_200, 50, &[1, 6, 49]), (3_200, 400, &[6])];
            for (ip_nodes, stream_nodes, neighbors) in sizes {
                let ip = InetConfig { nodes: ip_nodes, delay_ms, ..InetConfig::default() }.generate(&mut rng);
                for &neighbors in neighbors {
                    let context = format!("seed {seed}, {stream_nodes} of {ip_nodes} nodes, {neighbors} neighbours");
                    assert_build_matches_references(&ip, OverlayConfig { stream_nodes, neighbors }, &rng, &context);
                }
                let context = format!("seed {seed}, two of {ip_nodes} nodes");
                assert_build_matches_references(&ip, OverlayConfig { stream_nodes: 2, neighbors: 1 }, &rng, &context);
            }
            let ip = two_clusters(60, delay_ms, &mut rng);
            for neighbors in [1, 6, 39] {
                let context = format!("seed {seed}, two clusters, {neighbors} neighbours");
                let config = OverlayConfig { stream_nodes: 40, neighbors };
                bridged_builds += usize::from(assert_build_matches_references(&ip, config, &rng, &context));
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

    /// Every cached tree of `ov` is exactly the tree a cold overlay
    /// would build, and every `(a, b)` answer equals a cold overlay's
    /// over the same mesh and down set.
    fn assert_answers_fresh(ov: &mut Overlay, context: &str) {
        for (&source, tree) in &ov.route_cache {
            let want = ShortestPathTree::compute_excluding(&ov.mesh, NodeId(source.0), &ov.down);
            assert_eq!(**tree, want, "{context}: {source}'s tree");
        }
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

    /// A tree entry is 8 bytes, and a cloned overlay shares its trees
    /// until one side repairs: the repair gives that side copies of the
    /// trees it keeps, and the other side's trees are still exactly what
    /// a fresh overlay builds.
    #[test]
    fn clones_share_trees_until_one_side_repairs() {
        assert_eq!(std::mem::size_of::<crate::routing::Entry>(), 8);
        let mut ov = build_pair(9, 25, 3);
        let nodes: Vec<_> = ov.nodes().collect();
        for (&a, &b) in nodes.iter().zip(nodes.iter().cycle().skip(1)) {
            ov.virtual_path(a, b);
        }
        let shared = |a: &Overlay, b: &Overlay| {
            let trees = a.route_cache.iter();
            trees.filter(|&(s, t)| b.route_cache.get(s).is_some_and(|u| Arc::ptr_eq(t, u))).count()
        };
        let mut copy = ov.clone();
        assert_eq!(shared(&ov, &copy), nodes.len(), "a clone copies no tree");
        copy.set_node_down(nodes[3], true);
        assert_eq!(copy.route_cache.len(), nodes.len() - 1, "only the failed source's tree went");
        assert_eq!(shared(&ov, &copy), 0, "the repaired trees are the copy's own");
        assert_answers_fresh(&mut copy, "the repaired copy");
        assert_answers_fresh(&mut ov, "the original beside it");
    }

    /// A memoized path holds its ids inline up to `INLINE_HOPS` links
    /// and spills past that; at every length it is its source tree's
    /// routed path: nodes, links, delay, and the bits of bottleneck and
    /// loss. A line of twelve nodes has paths of 0 to 11 links.
    #[test]
    fn virtual_paths_match_the_tree_paths_at_every_length() {
        let n = 12u32;
        let mut mesh = Graph::new(n as usize);
        for i in 0..n - 1 {
            let props = LinkProps::new(
                SimDuration::from_millis(1 + u64::from(i % 3)),
                1_000.0 + f64::from(i * 37 % 11) * 100.0,
                f64::from(i) * 0.003,
            );
            mesh.add_edge(NodeId(i), NodeId(i + 1), props);
        }
        let mut ov = from_mesh(mesh);
        let mut lengths = Vec::new();
        for a in 0..n {
            let tree = ShortestPathTree::compute(&ov.mesh, NodeId(a));
            for b in 0..n {
                let got = ov.virtual_path(OverlayNodeId(a), OverlayNodeId(b)).expect("a connected line");
                let want = tree.path_to(&ov.mesh, NodeId(b)).expect("a connected line");
                let context = format!("v{a} -> v{b}");
                assert!(got.nodes.iter().map(|v| v.0).eq(want.nodes.iter().map(|v| v.0)), "{context}: nodes");
                assert!(got.links.iter().map(|l| l.0).eq(want.edges.iter().map(|e| e.0)), "{context}: links");
                assert_eq!(got.delay, want.delay, "{context}");
                assert_eq!(got.bottleneck_kbps.to_bits(), want.bottleneck_kbps.to_bits(), "{context}");
                assert_eq!(got.loss_rate().to_bits(), want.loss_rate.to_bits(), "{context}");
                lengths.push(got.hop_count());
            }
        }
        lengths.sort_unstable();
        lengths.dedup();
        assert_eq!(lengths, (0..n as usize).collect::<Vec<_>>());
        assert!(INLINE_HOPS + 1 < n as usize, "paths past the inline capacity are compared too");
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
    /// the trees it reconnects are repaired in place, the cached "no
    /// route" goes, and a pair it does not touch stays a hit.
    #[test]
    fn a_recovered_cut_vertex_reconnects_the_trees_in_place() {
        // 0 - 1 - 2 - 3 in a line; 2 is the cut vertex.
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        let cut = OverlayNodeId(2);
        ov.set_node_down(cut, true);
        assert_answers_fresh(&mut ov, "cut down");
        assert!(ov.virtual_path(OverlayNodeId(0), OverlayNodeId(3)).is_none());
        ov.set_node_down(cut, false);
        assert_eq!(ov.route_cache.len(), 3, "every up source keeps its tree");
        assert!(ov.memoized_path(OverlayNodeId(0), OverlayNodeId(1)).is_some(), "0 -> 1 never met 2");
        let hits = ov.path_cache_stats().hits;
        assert!(ov.virtual_path(OverlayNodeId(0), OverlayNodeId(3)).is_some());
        assert_eq!(ov.path_cache_stats().hits, hits, "the cached \"no route\" went");
        assert_answers_fresh(&mut ov, "cut back");
    }

    /// Equal-delay routes: the returning node takes over a neighbour when
    /// it is the canonical predecessor — `(dist, id)` smaller than the
    /// current one — and only then. Either way the tree stays, repaired
    /// in place, and the memo loses the pair only when its route moved.
    #[test]
    fn a_recovered_node_that_wins_a_tie_takes_over_in_place() {
        // Two equal routes 0 -> 3: via 1 or via 2 (all 1 ms). Fresh
        // Dijkstra picks 1, the lower id.
        let links = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)];
        let (src, dst) = (OverlayNodeId(0), OverlayNodeId(3));
        for (down, takes_over) in [(1u32, true), (2, false)] {
            let mut ov = from_mesh(mesh_of(4, &links));
            ov.set_node_down(OverlayNodeId(down), true);
            let via = ov.virtual_path(src, dst).unwrap();
            assert_eq!(via.nodes[1], OverlayNodeId(3 - down));
            ov.set_node_down(OverlayNodeId(down), false);
            assert!(ov.route_cache.contains_key(&src), "node {down}: 0's tree is kept");
            assert_eq!(ov.memoized_path(src, dst).is_none(), takes_over, "node {down}");
            assert_answers_fresh(&mut ov, "tie");
            assert_eq!(ov.virtual_path(src, dst).unwrap().nodes[1], OverlayNodeId(1));
        }
    }

    /// Neighbours fail and return around each other, and 0's tree stays
    /// exact throughout: a down node holds no entry to trust, and 1 —
    /// back while 2 was down — relays to 2 only once both are up.
    #[test]
    fn churn_next_to_down_nodes_keeps_the_tree_exact() {
        // 0 -1ms- 1 -1ms- 2, and the long way round 0 -5ms- 3 -5ms- 2.
        let mut ov = from_mesh(mesh_of(4, &[(0, 1, 1), (1, 2, 1), (0, 3, 5), (3, 2, 5)]));
        let (src, short, far) = (OverlayNodeId(0), OverlayNodeId(1), OverlayNodeId(2));
        ov.set_node_down(short, true);
        let ten = SimDuration::from_millis(10);
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, ten, "0's tree is built without 1");
        for (node, down, context) in [
            (far, true, "2 fails as a leaf"),
            (short, false, "1 returns as a leaf: its other neighbour is down"),
            (short, true, "1 fails as a leaf"),
            (far, false, "2 returns, and must come in via 3"),
        ] {
            ov.set_node_down(node, down);
            assert!(ov.route_cache.contains_key(&src), "{context}: 0's tree is kept");
            assert_answers_fresh(&mut ov, context);
        }
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, ten);
        ov.set_node_down(short, false);
        assert!(ov.route_cache.contains_key(&src), "1 now relays to 2: the tree is repaired, not dropped");
        assert_eq!(ov.virtual_path(src, far).unwrap().delay, SimDuration::from_millis(2));
        assert_answers_fresh(&mut ov, "all back");
    }

    /// Zero-delay mesh links void the canonical-predecessor rule, so a
    /// repair that reads one drops its tree and memo row instead.
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
