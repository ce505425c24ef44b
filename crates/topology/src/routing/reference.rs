use std::collections::BinaryHeap;

use acp_simcore::SimDuration;

use crate::graph::{EdgeId, Graph, NodeId};

/// Per node: the distance, or `None` when unreached.
pub(super) type Dist = Vec<Option<SimDuration>>;
/// Per node: the predecessor and its edge, or `None`.
pub(super) type Prev = Vec<Option<(NodeId, EdgeId)>>;

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

pub fn search(graph: &Graph, source: NodeId, blocked: &[bool], mut stop: impl FnMut(NodeId) -> bool) -> (Dist, Prev) {
    let n = graph.node_count();
    let mut dist: Dist = vec![None; n];
    let mut prev: Prev = vec![None; n];
    let is_blocked = |v: NodeId| blocked.get(v.index()).copied().unwrap_or(false);
    if is_blocked(source) {
        return (dist, prev);
    }
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
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
    (dist, prev)
}
