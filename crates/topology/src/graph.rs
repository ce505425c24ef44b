//! Undirected weighted graph with link attributes.
//!
//! Used for the IP-layer network (from [`crate::inet`]) and, with different
//! attribute semantics, for the overlay mesh.

use acp_simcore::SimDuration;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as a `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Attributes of a physical (or overlay) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProps {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Capacity in kilobits per second.
    pub bandwidth_kbps: f64,
    /// Packet loss probability in `[0, 1)`.
    pub loss_rate: f64,
}

impl LinkProps {
    /// Validates invariants and constructs the attribute set.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is non-positive or the loss rate is outside
    /// `[0, 1)`.
    pub fn new(delay: SimDuration, bandwidth_kbps: f64, loss_rate: f64) -> Self {
        assert!(bandwidth_kbps > 0.0, "bandwidth must be positive");
        assert!((0.0..1.0).contains(&loss_rate), "loss rate must be in [0, 1)");
        LinkProps { delay, bandwidth_kbps, loss_rate }
    }
}

impl Default for LinkProps {
    fn default() -> Self {
        LinkProps { delay: SimDuration::from_millis(1), bandwidth_kbps: 100_000.0, loss_rate: 0.0 }
    }
}

#[derive(Debug, Clone)]
struct Edge {
    a: NodeId,
    b: NodeId,
    props: LinkProps,
}

/// An undirected graph with [`LinkProps`]-weighted edges.
///
/// Parallel edges are rejected; self-loops are rejected.
///
/// # Example
///
/// ```
/// use acp_topology::{Graph, LinkProps, NodeId};
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), LinkProps::default());
/// g.add_edge(NodeId(1), NodeId(2), LinkProps::default());
/// assert_eq!(g.degree(NodeId(1)), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph { adjacency: vec![Vec::new(); n], edges: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// Adds an undirected edge, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, props: LinkProps) -> EdgeId {
        assert!(a != b, "self-loops are not allowed");
        assert!(a.index() < self.node_count() && b.index() < self.node_count(), "endpoint out of range");
        assert!(!self.has_edge(a, b), "duplicate edge {a}-{b}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, props });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// True when an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (probe, other) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.adjacency[probe.index()].iter().any(|&(n, _)| n == other)
    }

    /// Neighbors of `node` with the connecting edge ids.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adjacency[node.index()]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Attributes of edge `e`.
    pub fn props(&self, e: EdgeId) -> &LinkProps {
        &self.edges[e.index()].props
    }

    /// Endpoints of edge `e` (in insertion order).
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.a, edge.b)
    }

    /// True when every node is reachable from node 0 (vacuously true for
    /// the empty graph).
    pub fn is_connected(&self) -> bool {
        self.connected_component(NodeId(0)).len() == self.node_count()
    }

    /// Nodes reachable from `start` (including `start`).
    pub(crate) fn connected_component(&self, start: NodeId) -> Vec<NodeId> {
        if self.node_count() == 0 {
            return Vec::new();
        }
        let mut visited = vec![false; self.node_count()];
        let mut stack = vec![start];
        visited[start.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &(m, _) in self.neighbors(n) {
                if !visited[m.index()] {
                    visited[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props() -> LinkProps {
        LinkProps::default()
    }

    #[test]
    fn build_and_query() {
        let mut g = Graph::new(4);
        let e01 = g.add_edge(NodeId(0), NodeId(1), props());
        g.add_edge(NodeId(1), NodeId(2), props());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.degree(NodeId(3)), 0);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.endpoints(e01), (NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(0), props());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), props());
        g.add_edge(NodeId(1), NodeId(0), props());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(5), props());
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), props());
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), props());
        g.add_edge(NodeId(2), NodeId(3), props());
        assert!(g.is_connected());
        assert_eq!(g.connected_component(NodeId(3)).len(), 4);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn link_props_validation() {
        let _ = LinkProps::new(SimDuration::from_millis(1), 100.0, 1.5);
    }
}
