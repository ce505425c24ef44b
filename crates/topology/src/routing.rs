//! Delay-based shortest-path routing.
//!
//! The paper's simulator "simulates both IP-layer and overlay data routing
//! using delay-based shortest path routing" (§4.1). [`RoutingTable`] runs
//! Dijkstra per source on demand and caches the result, which keeps
//! all-pairs queries affordable on the 3 200-node IP graph.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use acp_simcore::SimDuration;

use crate::graph::{EdgeId, Graph, LinkProps, NodeId};

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

/// `dist` of a node no search has reached.
const UNREACHED: u32 = u32::MAX;
/// `via` of the source and of unreached nodes.
const NO_LINK: u32 = u32::MAX;

/// One node's entry in a search, 8 bytes: its distance from the source
/// in µs ([`UNREACHED`] when unreached) and the link it is reached over
/// ([`NO_LINK`] for the source and unreached nodes). The predecessor is
/// that link's other endpoint: a [`Graph`] has no parallel edges, so the
/// link names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    dist: u32,
    via: u32,
}

/// The entry of a node no search has reached.
const UNSET: Entry = Entry { dist: UNREACHED, via: NO_LINK };

/// A tentative distance as an entry stores it.
///
/// # Panics
///
/// Panics at 2³² − 1 µs and beyond: that value is [`UNREACHED`], and the
/// packed key's high half holds no more.
#[inline]
fn stored(dist: u64) -> u32 {
    assert!(dist < u64::from(UNREACHED), "shortest-path distance reached 2^32 µs (71 min): {dist} µs");
    dist as u32
}

/// True when a relaxation to `cand` beats the entry's distance: shorter,
/// or the node unreached. A candidate past the stored range is refused
/// by [`stored`], not taken for "no better".
#[inline]
fn improves(cand: u64, entry: Entry) -> bool {
    cand < u64::from(entry.dist) || entry.dist == UNREACHED
}

/// The node an entry of `node` reached over link `via` comes from: the
/// link's other endpoint.
#[inline]
fn predecessor(graph: &Graph, node: NodeId, via: u32) -> NodeId {
    let (a, b) = graph.endpoints(EdgeId(via));
    if a == node {
        b
    } else {
        a
    }
}

/// The route to `dst` recorded in `entries`, walked backwards: each link
/// with the node it leads back to, destination first. Empty for the
/// source and for unreached nodes.
fn route_back<'a>(
    graph: &'a Graph,
    entries: &'a [Entry],
    dst: NodeId,
) -> impl Iterator<Item = (EdgeId, NodeId)> + 'a {
    let (mut cur, mut hops) = (dst, 0);
    std::iter::from_fn(move || {
        let via = entries[cur.index()].via;
        if via == NO_LINK {
            return None;
        }
        hops += 1;
        assert!(hops < entries.len(), "a predecessor chain visits each node once");
        cur = predecessor(graph, cur, via);
        Some((EdgeId(via), cur))
    })
}

/// The heap key of a tentative `(dist, node)`: `dist` in the high 32
/// bits, the node id in the low 32. While `dist < 2³²`, the keys'
/// integer order is the `(dist, node)` order, so a min-heap of keys pops
/// in `(dist, id)` order at one integer compare per sift step.
#[inline]
fn pack(dist: u64, node: u32) -> u64 {
    dist << 32 | u64::from(node)
}

#[inline]
fn unpack(key: u64) -> (u64, u32) {
    (key >> 32, key as u32)
}

/// Single-source shortest-path tree (by delay).
///
/// **Canonical predecessor.** Relaxation is strict (`cand < cur`) and
/// the heap pops the smallest `(dist, node)` — the integer order of the
/// packed key `dist << 32 | node` — so when every edge delay is strictly
/// positive nodes settle in ascending `(dist, id)` and each node's
/// predecessor is the tight one `u` (`dist[u] + w(u, x) == dist[x]`)
/// with the smallest `(dist[u], u)`. The tree is therefore a function of
/// the graph and the blocked set alone, not of heap history — the fact
/// `NearestTargets` relies on, and the rule by which
/// `remove_node` and `add_node` repair a tree in place
/// into exactly what `compute_excluding` would build. Blocked and
/// unreachable nodes hold no entry. Every delay this crate generates is
/// positive (`InetConfig` 1..=20 ms per IP link, `Overlay::synthetic`
/// 2–20 ms). A caller with a hand-built graph owns the invariant; the
/// repairs check the links they read — every link at the node that
/// changed, and at every node they re-settle — and refuse on a zero
/// delay.
///
/// **Range.** Distances must stay below 2³² − 1 µs (about 71 minutes),
/// the packed key's high half; a search whose relaxation would reach
/// that panics. A `ScenarioConfig`'s IP links are 1–20 ms.
///
/// Per node the tree holds one 8-byte `Entry`: the distance in µs and
/// the link to the predecessor, whose other endpoint the predecessor is.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathTree {
    source: NodeId,
    entries: Vec<Entry>,
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
    /// settled nodes only. The oracle of [`NearestTargets`].
    #[cfg(test)]
    pub(crate) fn compute_until(graph: &Graph, source: NodeId, stop: impl FnMut(NodeId) -> bool) -> Self {
        Self::search(graph, source, &[], stop)
    }

    /// The one relaxation loop behind every constructor. Blocked nodes
    /// start out settled, so relaxation never enters them.
    fn search(
        graph: &Graph,
        source: NodeId,
        blocked: &[bool],
        mut stop: impl FnMut(NodeId) -> bool,
    ) -> Self {
        let n = graph.node_count();
        let mut tree = ShortestPathTree { source, entries: vec![UNSET; n] };
        let mut done = blocked.to_vec();
        done.resize(n, false);
        if done[source.index()] {
            return tree;
        }
        let entries = &mut tree.entries;
        let mut heap = BinaryHeap::new();

        entries[source.index()].dist = 0;
        heap.push(Reverse(pack(0, source.0)));

        while let Some(Reverse(key)) = heap.pop() {
            let (d, u) = unpack(key);
            if done[u as usize] {
                continue;
            }
            done[u as usize] = true;
            if stop(NodeId(u)) {
                break;
            }
            for &(v, e) in graph.neighbors(NodeId(u)) {
                if done[v.index()] {
                    continue;
                }
                let cand = d + graph.delay_us(e);
                if improves(cand, entries[v.index()]) {
                    entries[v.index()] = Entry { dist: stored(cand), via: e.0 };
                    heap.push(Reverse(pack(cand, v.0)));
                }
            }
        }
        tree
    }

    /// Takes `node`, now set in `blocked` (one flag per graph node), out
    /// of the tree in place, leaving exactly what
    /// [`Self::compute_excluding`] builds under `blocked`. Fills
    /// `targets` with the nodes whose route changed — `node`'s subtree,
    /// ascending — and returns `true`; `false` means the caller must drop
    /// the tree (`node` is the source, or a link read has zero delay).
    ///
    /// The subtree is found through the adjacency — `v`'s children are
    /// the neighbours reached over their link to `v` — and its entries
    /// cleared. Each of its nodes is seeded from its reachable neighbours
    /// outside it by the least `(dist[u] + w, dist[u], u)`, and Dijkstra
    /// under the canonical rule settles the subtree alone. No route
    /// outside it changes: none passed through `node`, and a removal only
    /// lengthens routes, so no node inside can offer a shorter or
    /// tie-winning one.
    pub(crate) fn remove_node(
        &mut self,
        graph: &Graph,
        node: NodeId,
        blocked: &[bool],
        targets: &mut Vec<NodeId>,
    ) -> bool {
        targets.clear();
        if node == self.source {
            return false;
        }
        if self.entries[node.index()].dist == UNREACHED {
            return true;
        }
        targets.push(node);
        let mut next = 0;
        while let Some(&v) = targets.get(next) {
            next += 1;
            for &(y, e) in graph.neighbors(v) {
                if graph.delay_us(e) == 0 {
                    return false;
                }
                if self.entries[y.index()].via == e.0 {
                    targets.push(y);
                }
            }
        }
        for v in targets.iter() {
            self.entries[v.index()] = UNSET;
        }
        // Seeds read only entries outside the subtree: their distances
        // are written once every seed is chosen.
        let mut heap = BinaryHeap::new();
        for &y in &targets[1..] {
            if let Some(seed) = self.canonical_entry(graph, y) {
                self.entries[y.index()].via = seed.via;
                heap.push(Reverse(pack(u64::from(seed.dist), y.0)));
            }
        }
        for &Reverse(key) in heap.iter() {
            let (d, y) = unpack(key);
            self.entries[y as usize].dist = d as u32;
        }
        let exact = self.propagate(graph, blocked, &mut heap, targets);
        targets.sort_unstable();
        targets.dedup();
        exact
    }

    /// Brings `node`, now clear in `blocked` (one flag per graph node),
    /// back into the tree in place, leaving exactly what
    /// [`Self::compute_excluding`] builds under `blocked`. Fills
    /// `targets` with the nodes whose route changed and returns `true`;
    /// `false` means the caller must drop the tree (`node` is the source,
    /// or a link read has zero delay).
    ///
    /// `node` takes its canonical entry from its reachable neighbours;
    /// from there Dijkstra under the canonical rule spreads every strict
    /// improvement and every tie `node`'s routes now win. A node whose
    /// predecessor changed on a tie keeps its distance, and so do its
    /// children, whose routes changed all the same: `targets` is the
    /// changed nodes, ascending, then their new descendants, found
    /// through the adjacency.
    pub(crate) fn add_node(
        &mut self,
        graph: &Graph,
        node: NodeId,
        blocked: &[bool],
        targets: &mut Vec<NodeId>,
    ) -> bool {
        targets.clear();
        if node == self.source {
            return false;
        }
        let Some(entry) = self.canonical_entry(graph, node) else {
            return true;
        };
        self.entries[node.index()] = entry;
        targets.push(node);
        let mut heap = BinaryHeap::from(vec![Reverse(pack(u64::from(entry.dist), node.0))]);
        if !self.propagate(graph, blocked, &mut heap, targets) {
            return false;
        }
        targets.sort_unstable();
        targets.dedup();
        let changed = targets.len();
        let mut i = 0;
        while let Some(&v) = targets.get(i) {
            i += 1;
            for &(y, e) in graph.neighbors(v) {
                if self.entries[y.index()].via == e.0 && targets[..changed].binary_search(&y).is_err() {
                    targets.push(y);
                }
            }
        }
        true
    }

    /// `v`'s canonical entry from its reachable neighbours `u`: the least
    /// `(dist[u] + w(u, v), dist[u], u, edge)`, as distance and link;
    /// `None` when no neighbour is reachable.
    fn canonical_entry(&self, graph: &Graph, v: NodeId) -> Option<Entry> {
        let (d, _, _, via) = graph
            .neighbors(v)
            .iter()
            .filter(|&&(u, _)| self.entries[u.index()].dist != UNREACHED)
            .map(|&(u, e)| {
                let du = u64::from(self.entries[u.index()].dist);
                (du + graph.delay_us(e), du, u.0, e.0)
            })
            .min()?;
        Some(Entry { dist: stored(d), via })
    }

    /// `(dist, id)` of `node`, the order the canonical rule ranks
    /// predecessors by.
    fn rank(&self, node: NodeId) -> (u64, u32) {
        (u64::from(self.entries[node.index()].dist), node.0)
    }

    /// Dijkstra from the entries on `heap`, never into a blocked node,
    /// under the canonical rule made explicit: `v` takes `u` as its
    /// predecessor when the route through `u` is shorter, or as short and
    /// `(dist[u], u)` precedes `(dist[p], p)` of its current predecessor
    /// `p`. Only a shorter route re-queues `v`. Pushes every node whose
    /// entry changes to `changed`; `false` on a zero-delay link.
    fn propagate(
        &mut self,
        graph: &Graph,
        blocked: &[bool],
        heap: &mut BinaryHeap<Reverse<u64>>,
        changed: &mut Vec<NodeId>,
    ) -> bool {
        while let Some(Reverse(key)) = heap.pop() {
            let (d, u) = unpack(key);
            if d != u64::from(self.entries[u as usize].dist) {
                continue;
            }
            for &(v, e) in graph.neighbors(NodeId(u)) {
                let w = graph.delay_us(e);
                if w == 0 {
                    return false;
                }
                if blocked[v.index()] {
                    continue;
                }
                let cand = d + w;
                let entry = self.entries[v.index()];
                if improves(cand, entry) {
                    self.entries[v.index()] = Entry { dist: stored(cand), via: e.0 };
                    heap.push(Reverse(pack(cand, v.0)));
                } else if cand == u64::from(entry.dist) && (d, u) < self.rank(predecessor(graph, v, entry.via)) {
                    self.entries[v.index()].via = e.0;
                } else {
                    continue;
                }
                changed.push(v);
            }
        }
        true
    }

    /// Delay from the source to `dst`; `None` when unreachable.
    pub fn distance(&self, dst: NodeId) -> Option<SimDuration> {
        let d = self.entries[dst.index()].dist;
        (d != UNREACHED).then(|| SimDuration::from_micros(u64::from(d)))
    }

    /// The node this tree is rooted at.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// True when `node` forwards traffic in this tree: it is the source
    /// or the predecessor of some reachable node — a neighbour reached
    /// over its link to `node`. Paths to nodes whose chain never passes
    /// through `node` are unaffected by its failure, so trees for which
    /// this is false stay valid when `node` dies.
    pub(crate) fn routes_through(&self, graph: &Graph, node: NodeId) -> bool {
        self.source == node || graph.neighbors(node).iter().any(|&(y, e)| self.entries[y.index()].via == e.0)
    }

    /// The routed path to `dst` walked backwards: each link with the
    /// node it leads back to, destination first. Empty for the source
    /// and for unreachable nodes.
    pub(crate) fn route_back<'a>(
        &'a self,
        graph: &'a Graph,
        dst: NodeId,
    ) -> impl Iterator<Item = (EdgeId, NodeId)> + 'a {
        route_back(graph, &self.entries, dst)
    }

    /// Materialises the routed path to `dst`; `None` when unreachable.
    pub(crate) fn path_to(&self, graph: &Graph, dst: NodeId) -> Option<IpPath> {
        let delay = self.distance(dst)?;
        let (mut edges, mut nodes): (Vec<EdgeId>, Vec<NodeId>) = self.route_back(graph, dst).unzip();
        nodes.reverse();
        nodes.push(dst);
        edges.reverse();
        let (bottleneck_kbps, loss_rate) = bottleneck_and_loss(graph, edges.iter().copied());
        Some(IpPath { nodes, edges, delay, bottleneck_kbps, loss_rate })
    }
}

/// The bottleneck bandwidth (kbit/s) and end-to-end loss of a path over
/// `edges`, source first: `min b_e` and `1 - Π(1 - l_e)`, folded in path
/// order. Every routed link's attributes come from here, so equal edge
/// sequences give equal bits.
pub(crate) fn bottleneck_and_loss(graph: &Graph, edges: impl Iterator<Item = EdgeId>) -> (f64, f64) {
    let mut bottleneck = f64::INFINITY;
    let mut pass = 1.0f64;
    for e in edges {
        let p = graph.props(e);
        bottleneck = bottleneck.min(p.bandwidth_kbps);
        pass *= 1.0 - p.loss_rate;
    }
    (bottleneck, 1.0 - pass)
}

/// An arc of [`NearestTargets`]' adjacency view, 12 bytes.
#[derive(Debug, Clone, Copy)]
struct DelayArc {
    delay: u32,
    node: u32,
    edge: u32,
}

/// The search bound before `k` targets have tentative distances.
const UNBOUNDED: u64 = u64::MAX;

/// `target_of` of a node that is no target.
const NOT_TARGET: u32 = u32::MAX;

/// k-nearest-target searches over one graph: one adjacency view and one
/// scratch shared by every search, reset between searches through the
/// list of nodes the last one touched.
///
/// A search settles exactly what `compute_until` settles when it stops
/// at the k-th target other than the source, in the same order and with
/// the same entries, but relaxes less. It keeps the `k` smallest
/// tentative distances of distinct targets; once it has `k`, their
/// maximum `U` is at least `D_k`, the k-th target's true distance, and a
/// relaxation to more than `U` is skipped. Dijkstra pops distances in
/// ascending order, so every node settled before the stop, and the
/// relaxation that gives it its final entry, is within `D_k ≤ U`, while a
/// skipped relaxation would have been popped after the stop — zero-delay
/// links included.
///
/// Each node's arcs are sorted by `(delay, node, edge)`, so a scan stops
/// at the first arc past `U`. Arc order changes no result: a node has one
/// arc per neighbour, relaxation is strict, and heap keys are distinct.
#[derive(Debug)]
pub(crate) struct NearestTargets {
    /// `arcs[first[u]..first[u + 1]]` are node `u`'s arcs.
    first: Vec<u32>,
    arcs: Vec<DelayArc>,
    /// Per graph node, its index among the targets.
    target_of: Vec<u32>,
    entries: Vec<Entry>,
    done: Vec<bool>,
    /// The nodes whose entry the last search set.
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<u64>>,
    /// The `k` smallest tentative `(dist, node)` of targets, unordered.
    best: Vec<(u64, u32)>,
    /// Edge ids of the path being read, destination first.
    path: Vec<u32>,
}

impl NearestTargets {
    /// Searches over `graph` for the nodes of `targets`.
    ///
    /// # Panics
    ///
    /// Panics on a link delay of 2³² µs or more.
    pub(crate) fn new(graph: &Graph, targets: &[NodeId]) -> Self {
        let n = graph.node_count();
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * graph.edge_count());
        first.push(0);
        for u in graph.nodes() {
            let start = arcs.len();
            arcs.extend(graph.neighbors(u).iter().map(|&(v, e)| DelayArc {
                delay: u32::try_from(graph.delay_us(e)).expect("link delay below 2^32 µs"),
                node: v.0,
                edge: e.0,
            }));
            arcs[start..].sort_unstable_by_key(|a| (a.delay, a.node, a.edge));
            first.push(arcs.len() as u32);
        }
        let mut target_of = vec![NOT_TARGET; n];
        for (i, t) in targets.iter().enumerate() {
            target_of[t.index()] = i as u32;
        }
        NearestTargets {
            first,
            arcs,
            target_of,
            entries: vec![UNSET; n],
            done: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            best: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Fills `nearest` with the target indices of the `k` targets nearest
    /// to `source`, itself excluded, in the order they settle: ascending
    /// `(delay, id)` when delays are positive. Fewer when fewer are
    /// reachable. Every node settled is reported to `settled`.
    pub(crate) fn search(
        &mut self,
        source: NodeId,
        k: usize,
        nearest: &mut Vec<usize>,
        mut settled: impl FnMut(NodeId),
    ) {
        let NearestTargets { first, arcs, target_of, entries, done, touched, heap, best, .. } = self;
        for v in touched.drain(..) {
            (entries[v as usize], done[v as usize]) = (UNSET, false);
        }
        heap.clear();
        best.clear();
        nearest.clear();
        let is_peer = |v: u32| target_of[v as usize] != NOT_TARGET && v != source.0;
        let mut bound = UNBOUNDED;

        entries[source.index()].dist = 0;
        touched.push(source.0);
        heap.push(Reverse(pack(0, source.0)));
        while let Some(Reverse(key)) = heap.pop() {
            let (d, u) = unpack(key);
            if done[u as usize] {
                continue;
            }
            done[u as usize] = true;
            settled(NodeId(u));
            if is_peer(u) {
                nearest.push(target_of[u as usize] as usize);
                if nearest.len() == k {
                    break;
                }
            }
            let out = &arcs[first[u as usize] as usize..first[u as usize + 1] as usize];
            for &DelayArc { delay, node: v, edge } in out {
                let cand = d + u64::from(delay);
                if cand > bound {
                    break;
                }
                if done[v as usize] || !improves(cand, entries[v as usize]) {
                    continue;
                }
                if entries[v as usize].dist == UNREACHED {
                    touched.push(v);
                }
                entries[v as usize] = Entry { dist: stored(cand), via: edge };
                heap.push(Reverse(pack(cand, v)));
                if is_peer(v) {
                    bound = tighten(best, k, v, cand);
                }
            }
        }
    }

    /// The link the last search's path to `target`, a node it settled,
    /// makes: the same delay, bottleneck and loss bits as
    /// [`ShortestPathTree::path_to`], through the same fold.
    pub(crate) fn link_props(&mut self, graph: &Graph, target: NodeId) -> LinkProps {
        self.path.clear();
        self.path.extend(route_back(graph, &self.entries, target).map(|(e, _)| e.0));
        let (bottleneck, loss) = bottleneck_and_loss(graph, self.path.iter().rev().map(|&e| EdgeId(e)));
        let delay = SimDuration::from_micros(u64::from(self.entries[target.index()].dist));
        LinkProps::new(delay, bottleneck, loss)
    }
}

/// Records target `v`'s tentative distance `d` among the `k` smallest of
/// distinct targets, and returns the search bound: their maximum once
/// there are `k` of them, [`UNBOUNDED`] before.
fn tighten(best: &mut Vec<(u64, u32)>, k: usize, v: u32, d: u64) -> u64 {
    if let Some(entry) = best.iter_mut().find(|e| e.1 == v) {
        entry.0 = d;
    } else if best.len() < k {
        best.push((d, v));
    } else if let Some(worst) = best.iter_mut().max_by_key(|e| e.0).filter(|w| d < w.0) {
        *worst = (d, v);
    }
    if best.len() == k {
        best.iter().map(|e| e.0).max().unwrap_or(UNBOUNDED)
    } else {
        UNBOUNDED
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
}

/// The search the packed-key kernel replaced, kept as its oracle:
/// `Option` entries, a named frontier type, and a blocked check per arc.
#[cfg(test)]
mod reference;

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

    /// A connected graph of `n` nodes whose 1..=3 ms links make
    /// equal-delay routes the norm: a random spanning tree, which leaves
    /// cut vertices, plus each other pair linked with probability
    /// `chords`.
    fn tied_graph(rng: &mut rand::rngs::StdRng, n: usize, chords: f64) -> Graph {
        use rand::Rng;
        let mut g = Graph::new(n);
        for b in 1..n {
            let a = rng.gen_range(0..b);
            g.add_edge(NodeId(a as u32), NodeId(b as u32), link(rng.gen_range(1..=3), 1_000.0, 0.0));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if !g.has_edge(NodeId(a as u32), NodeId(b as u32)) && rng.gen_bool(chords) {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), link(rng.gen_range(1..=3), 1_000.0, 0.0));
                }
            }
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Node churn repaired in place against its oracle: random block
        /// and unblock steps on a tie-heavy graph, every node a source.
        /// After each step every repaired tree's entries equal a
        /// fresh `compute_excluding` under the blocked set, and the
        /// targets it returns are exactly the nodes whose `path_to`
        /// changed. Only the blocked source's own tree is refused.
        #[test]
        fn repaired_trees_match_a_fresh_search(seed in proptest::any::<u64>(), n in 4usize..20, chords in 0.0f64..0.3) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = tied_graph(&mut rng, n, chords);
            let mut blocked = vec![false; n];
            let mut trees: Vec<Option<ShortestPathTree>> = g.nodes().map(|s| Some(ShortestPathTree::compute(&g, s))).collect();
            let mut targets = Vec::new();
            for step in 0..40 {
                let v = NodeId(rng.gen_range(0..n) as u32);
                blocked[v.index()] = !blocked[v.index()];
                for s in g.nodes() {
                    let Some(tree) = &mut trees[s.index()] else {
                        trees[s.index()] = (!blocked[s.index()]).then(|| ShortestPathTree::compute_excluding(&g, s, &blocked));
                        continue;
                    };
                    let before: Vec<_> = g.nodes().map(|t| tree.path_to(&g, t)).collect();
                    let exact = if blocked[v.index()] {
                        tree.remove_node(&g, v, &blocked, &mut targets)
                    } else {
                        tree.add_node(&g, v, &blocked, &mut targets)
                    };
                    let context = format!("seed {seed}, step {step}: {s}'s tree, {v} {}", if blocked[v.index()] { "down" } else { "up" });
                    if !exact {
                        proptest::prop_assert_eq!(s, v, "{}: refused", context);
                        trees[s.index()] = None;
                        continue;
                    }
                    let want = ShortestPathTree::compute_excluding(&g, s, &blocked);
                    proptest::prop_assert_eq!(&tree.entries, &want.entries, "{}", context);
                    let changed: Vec<NodeId> = g.nodes().filter(|&t| tree.path_to(&g, t) != before[t.index()]).collect();
                    let mut got = targets.clone();
                    got.sort_unstable();
                    proptest::prop_assert_eq!(got, changed, "{}: targets", context);
                }
            }
        }
    }

    /// The source's own tree and a zero-delay link at the changing node
    /// are refused both ways; a positive-delay leaf is attached and
    /// detached in place.
    #[test]
    fn repairs_refuse_the_source_and_zero_delay_links() {
        // 0 -1ms- 1 -1ms- 2, and 3 hanging off 2: a leaf in 0's tree.
        let build = |leaf_ms: u64| {
            let mut g = Graph::new(4);
            g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.0));
            g.add_edge(NodeId(1), NodeId(2), link(1, 1_000.0, 0.0));
            g.add_edge(NodeId(2), NodeId(3), link(leaf_ms, 1_000.0, 0.0));
            g
        };
        let (up, without_3) = ([false; 4], [false, false, false, true]);
        let mut targets = Vec::new();
        let g = build(1);
        let mut tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &without_3);
        assert!(tree.add_node(&g, NodeId(3), &up, &mut targets), "a positive-delay leaf is attached");
        assert_eq!((tree.distance(NodeId(3)), &targets[..]), (Some(SimDuration::from_millis(3)), &[NodeId(3)][..]));
        assert!(tree.remove_node(&g, NodeId(3), &without_3, &mut targets), "and detached");
        assert_eq!((tree.distance(NodeId(3)), &targets[..]), (None, &[NodeId(3)][..]));
        assert!(!tree.remove_node(&g, NodeId(0), &[true, false, false, false], &mut targets), "the source");

        let g = build(0);
        let mut tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &without_3);
        assert!(!tree.add_node(&g, NodeId(3), &up, &mut targets), "zero-delay link at a returning node");
        let mut tree = ShortestPathTree::compute(&g, NodeId(0));
        assert!(!tree.remove_node(&g, NodeId(3), &without_3, &mut targets), "zero-delay link at a failing node");
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

    /// A tree's entries in the reference's `Option` form, each
    /// predecessor read off its link.
    fn entries(g: &Graph, tree: &ShortestPathTree) -> (reference::Dist, reference::Prev) {
        let dist = g.nodes().map(|v| tree.distance(v)).collect();
        let prev = g
            .nodes()
            .zip(&tree.entries)
            .map(|(v, e)| (e.via != NO_LINK).then(|| (predecessor(g, v, e.via), EdgeId(e.via))))
            .collect();
        (dist, prev)
    }

    /// The packed-key search against the search it replaced, on Inet
    /// graphs whose 1..=3 ms links (every other seed) make equal-delay
    /// routes the norm: `compute`, `compute_excluding` under random
    /// blocked sets (the source's flag included) and `compute_until`
    /// give identical distances and predecessors — tentative entries too — and
    /// a stopped search settles the same nodes in the same order.
    #[test]
    fn search_matches_the_reference() {
        use rand::{Rng, SeedableRng};
        let (mut blocked_sources, mut stopped) = (0, 0);
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let delay_ms = if seed % 2 == 0 { (1, 3) } else { (1, 20) };
            let g = crate::inet::InetConfig { nodes: 50 + 50 * seed as usize, delay_ms, ..Default::default() }
                .generate(&mut rng);
            let n = g.node_count();
            for _ in 0..6 {
                let s = NodeId(rng.gen_range(0..n) as u32);
                let full = ShortestPathTree::compute(&g, s);
                assert_eq!(entries(&g, &full), reference::search(&g, s, &[], |_| false), "seed {seed}, {s}");

                let density = [0.02, 0.2, 0.5][rng.gen_range(0..3usize)];
                let blocked: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
                blocked_sources += usize::from(blocked[s.index()]);
                let excluding = ShortestPathTree::compute_excluding(&g, s, &blocked);
                assert_eq!(entries(&g, &excluding), reference::search(&g, s, &blocked, |_| false), "seed {seed}, {s} blocked");

                let limit = rng.gen_range(1..n + 2);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let until = ShortestPathTree::compute_until(&g, s, |u| {
                    got.push(u);
                    got.len() == limit
                });
                let reference = reference::search(&g, s, &[], |u| {
                    want.push(u);
                    want.len() == limit
                });
                assert_eq!(got, want, "seed {seed}, {s}: settle order");
                assert_eq!(entries(&g, &until), reference, "seed {seed}, {s} stopped after {limit}");
                stopped += usize::from(limit < n);
            }
        }
        assert!(blocked_sources >= 3 && stopped >= 40, "{blocked_sources} blocked sources, {stopped} stopped searches");
    }

    /// The bounded k-nearest search against the stopped search it
    /// replaced, many searches through one scratch: the same nodes
    /// settle in the same order with the same entries, the peers
    /// are the first `k` targets settled, and their link attributes are
    /// the full tree's paths' bits. Delays of 0..=2 ms (every third
    /// graph) add zero-delay links to the ties of 1..=3 ms.
    #[test]
    fn nearest_targets_settle_as_compute_until() {
        use rand::{Rng, SeedableRng};
        let mut pruned = 0;
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let delay_ms = [(1, 3), (0, 2), (1, 20)][seed as usize % 3];
            let g = crate::inet::InetConfig { nodes: 60 + 40 * seed as usize, delay_ms, ..Default::default() }
                .generate(&mut rng);
            let n = g.node_count();
            let targets: Vec<NodeId> = g.nodes().filter(|v| v.0 < 2 || rng.gen_bool(0.2)).collect();
            let mut search = NearestTargets::new(&g, &targets);
            let mut nearest = Vec::new();
            for _ in 0..12 {
                let source = targets[rng.gen_range(0..targets.len())];
                let k = [1, 2, 6, targets.len() - 1, targets.len()][rng.gen_range(0..5usize)];
                let mut got = Vec::new();
                search.search(source, k, &mut nearest, |u| got.push(u));
                let (mut want, mut peers) = (Vec::new(), Vec::new());
                let until = ShortestPathTree::compute_until(&g, source, |u| {
                    want.push(u);
                    if u != source {
                        peers.extend(targets.iter().position(|&t| t == u));
                    }
                    peers.len() == k
                });
                let context = format!("seed {seed}, {source}, k = {k}");
                assert_eq!(got, want, "{context}: settle order");
                assert_eq!(nearest, peers, "{context}: peers");
                for &u in &got {
                    assert_eq!(search.entries[u.index()], until.entries[u.index()], "{context}: entry of {u}");
                }
                let full = ShortestPathTree::compute(&g, source);
                for &j in &nearest {
                    let path = full.path_to(&g, targets[j]).expect("a settled peer is reachable");
                    let props = search.link_props(&g, targets[j]);
                    assert_eq!(props.delay, path.delay, "{context}");
                    assert_eq!(props.bandwidth_kbps.to_bits(), path.bottleneck_kbps.to_bits(), "{context}");
                    assert_eq!(props.loss_rate.to_bits(), path.loss_rate.to_bits(), "{context}");
                }
                pruned += usize::from(search.touched.len() < (0..n).filter(|&v| until.entries[v].dist != UNREACHED).count());
            }
        }
        assert!(pruned >= 50, "the bound skipped relaxations in only {pruned} searches");
    }

    /// The packed key holds distances below 2³² µs; a search that would
    /// reach past that refuses with a message rather than misorder.
    #[test]
    #[should_panic(expected = "shortest-path distance reached 2^32 µs (71 min)")]
    fn distances_from_2_pow_32_us_panic() {
        let forty_minutes = LinkProps::new(SimDuration::from_minutes(40), 1_000.0, 0.0);
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), forty_minutes);
        g.add_edge(NodeId(1), NodeId(2), forty_minutes);
        let one_hop = ShortestPathTree::compute_until(&g, NodeId(0), |u| u == NodeId(1));
        assert_eq!(one_hop.distance(NodeId(1)), Some(SimDuration::from_minutes(40)));
        let _ = ShortestPathTree::compute(&g, NodeId(0));
    }
}
