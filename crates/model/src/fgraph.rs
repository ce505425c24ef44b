//! Function graphs and application templates.
//!
//! A stream-processing request specifies its function requirements as a
//! *function graph* ξ — a DAG of [`FunctionId`]s connected by dependency
//! links (§2.2, Fig. 1(c)). The paper's workload draws each request's graph
//! from "20 pre-defined stream processing application templates", each
//! "either a path or a DAG with two branch paths", with each path or branch
//! path containing 2–5 nodes. [`TemplateLibrary`] reproduces that library.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::function::{FunctionId, FunctionRegistry};

/// A vertex index within a [`FunctionGraph`].
pub type VertexId = usize;

/// A directed acyclic graph of stream-processing functions.
///
/// Invariants (checked at construction):
/// * at least one vertex; edges form a DAG;
/// * weakly connected;
/// * exactly one source (no predecessors) and one sink (no successors) —
///   streams enter at the source and leave at the sink.
///
/// The value is a shared handle on immutable storage: a clone is a
/// reference count, so every request drawn from a template, the session
/// it becomes and whatever a fault queues of it read the template's one
/// graph. What depends on the graph alone — adjacency, the topological
/// order, source, sink, shape, critical-path length — is worked out once
/// by the constructor and read by reference afterwards. Equality is by
/// value (functions and edges).
///
/// # Example
///
/// ```
/// use acp_model::fgraph::FunctionGraph;
/// use acp_model::function::FunctionId;
///
/// let g = FunctionGraph::path(vec![FunctionId(0), FunctionId(1), FunctionId(2)]);
/// assert!(g.is_path());
/// assert_eq!(g.source_to_sink_paths().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionGraph(Arc<Plan>);

/// A graph's storage and everything derived from it.
#[derive(Debug)]
struct Plan {
    functions: Vec<FunctionId>,
    edges: Vec<(VertexId, VertexId)>,
    adjacency: Adjacency,
    /// Kahn's order with a FIFO queue: the order a probing round visits
    /// the vertices in, and so the order it draws random numbers in.
    order: Vec<VertexId>,
    source: VertexId,
    sink: VertexId,
    is_path: bool,
    critical_path_len: usize,
}

/// The adjacency lists, flat in one buffer. With `n` vertices and `m`
/// edges: `[0, n]` is where each vertex's successor run starts (and the
/// next one's, where it ends), `[n + 1, 2n + 1]` the same for its
/// predecessor run, then come the `m` successors, the `m` predecessors
/// and — `m` past each predecessor — the index of the edge it arrives
/// by. Every run lists its vertex's edges in the order they were given.
#[derive(Debug)]
struct Adjacency {
    index: Vec<usize>,
    vertices: usize,
    edges: usize,
}

impl Adjacency {
    fn new(vertices: usize, edges: &[(VertexId, VertexId)]) -> Adjacency {
        let (n, m) = (vertices, edges.len());
        let runs = 2 * (n + 1);
        let mut index = vec![0; runs + 3 * m];
        // Degrees, summed into where each run starts.
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert!(u != v, "self-dependency is not allowed");
            index[u + 1] += 1;
            index[n + 1 + v + 1] += 1;
        }
        index[0] = runs;
        index[n + 1] = runs + m;
        for v in 0..n {
            index[v + 1] += index[v];
            index[n + 1 + v + 1] += index[n + 1 + v];
        }
        let mut next = index[..runs].to_vec();
        for (e, &(u, v)) in edges.iter().enumerate() {
            assert!(!index[index[u]..next[u]].contains(&v), "duplicate dependency edge");
            index[next[u]] = v;
            next[u] += 1;
            let at = &mut next[n + 1 + v];
            index[*at] = u;
            index[*at + m] = e;
            *at += 1;
        }
        Adjacency { index, vertices, edges: m }
    }

    fn successors(&self, v: VertexId) -> &[VertexId] {
        &self.index[self.index[v]..self.index[v + 1]]
    }

    fn predecessors(&self, v: VertexId) -> &[VertexId] {
        let run = self.vertices + 1 + v;
        &self.index[self.index[run]..self.index[run + 1]]
    }

    fn in_edges(&self, v: VertexId) -> &[usize] {
        let run = self.vertices + 1 + v;
        &self.index[self.index[run] + self.edges..self.index[run + 1] + self.edges]
    }

    fn is_weakly_connected(&self) -> bool {
        let n = self.vertices;
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in self.predecessors(v).iter().chain(self.successors(v)) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }
}

impl PartialEq for FunctionGraph {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.functions == other.0.functions && self.0.edges == other.0.edges)
    }
}

impl FunctionGraph {
    /// Builds a graph from vertices and dependency edges.
    ///
    /// # Panics
    ///
    /// Panics when the invariants listed on [`FunctionGraph`] are violated.
    pub fn new(functions: Vec<FunctionId>, edges: Vec<(VertexId, VertexId)>) -> Self {
        assert!(!functions.is_empty(), "function graph needs at least one vertex");
        let n = functions.len();
        let adjacency = Adjacency::new(n, &edges);

        // Kahn's algorithm; `order` is its own FIFO queue, read at `head`.
        let mut indegree: Vec<usize> = (0..n).map(|v| adjacency.predecessors(v).len()).collect();
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| indegree[v] == 0));
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &s in adjacency.successors(v) {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    order.push(s);
                }
            }
        }
        assert!(order.len() == n, "dependency edges form a cycle");
        assert!(adjacency.is_weakly_connected(), "function graph must be connected");
        let sources = (0..n).filter(|&v| adjacency.predecessors(v).is_empty()).count();
        let sinks = (0..n).filter(|&v| adjacency.successors(v).is_empty()).count();
        assert_eq!(sources, 1, "function graph must have exactly one source");
        assert_eq!(sinks, 1, "function graph must have exactly one sink");
        // A topological order opens with a source and closes with a sink.
        let (source, sink) = (order[0], order[n - 1]);
        let is_path =
            (0..n).all(|v| adjacency.predecessors(v).len() <= 1 && adjacency.successors(v).len() <= 1);
        // Vertices on the longest path ending at each vertex, filled in
        // topological order; every maximal path ends at the one sink.
        let mut depth = indegree;
        for &v in &order {
            depth[v] = 1 + adjacency.predecessors(v).iter().map(|&u| depth[u]).max().unwrap_or(0);
        }
        let critical_path_len = depth[sink];
        FunctionGraph(Arc::new(Plan {
            functions,
            edges,
            adjacency,
            order,
            source,
            sink,
            is_path,
            critical_path_len,
        }))
    }

    /// Builds a linear pipeline.
    pub fn path(functions: Vec<FunctionId>) -> Self {
        let edges = (0..functions.len().saturating_sub(1)).map(|i| (i, i + 1)).collect();
        FunctionGraph::new(functions, edges)
    }

    /// Builds a split–merge DAG: `prefix` path, then two parallel branch
    /// paths, merging into a single `merge` function, then an optional
    /// `suffix` path. This is the paper's "DAG with two branch paths".
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty or either branch is empty.
    pub fn split_merge(
        prefix: Vec<FunctionId>,
        branch_a: Vec<FunctionId>,
        branch_b: Vec<FunctionId>,
        merge: FunctionId,
        suffix: Vec<FunctionId>,
    ) -> Self {
        assert!(!prefix.is_empty(), "split-merge graphs need a prefix (the split point)");
        assert!(!branch_a.is_empty() && !branch_b.is_empty(), "branches must be non-empty");
        let mut functions = prefix.clone();
        let mut edges: Vec<(VertexId, VertexId)> = (0..prefix.len() - 1).map(|i| (i, i + 1)).collect();
        let split = prefix.len() - 1;

        let a_start = functions.len();
        functions.extend(branch_a.iter().copied());
        edges.push((split, a_start));
        for i in 0..branch_a.len() - 1 {
            edges.push((a_start + i, a_start + i + 1));
        }
        let a_end = functions.len() - 1;

        let b_start = functions.len();
        functions.extend(branch_b.iter().copied());
        edges.push((split, b_start));
        for i in 0..branch_b.len() - 1 {
            edges.push((b_start + i, b_start + i + 1));
        }
        let b_end = functions.len() - 1;

        let merge_idx = functions.len();
        functions.push(merge);
        edges.push((a_end, merge_idx));
        edges.push((b_end, merge_idx));

        let mut prev = merge_idx;
        for &f in &suffix {
            let idx = functions.len();
            functions.push(f);
            edges.push((prev, idx));
            prev = idx;
        }
        FunctionGraph::new(functions, edges)
    }

    /// Number of function vertices.
    pub fn len(&self) -> usize {
        self.0.functions.len()
    }

    /// True when the graph has no vertices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.0.functions.is_empty()
    }

    /// The function required at vertex `v`.
    pub fn function(&self, v: VertexId) -> FunctionId {
        self.0.functions[v]
    }

    /// All vertices in index order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.len()
    }

    /// The dependency edges.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.0.edges
    }

    /// Direct predecessors of `v`.
    pub fn predecessors(&self, v: VertexId) -> &[VertexId] {
        self.0.adjacency.predecessors(v)
    }

    /// Direct successors of `v` (the "next-hop functions" of §3.3 step 2).
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        self.0.adjacency.successors(v)
    }

    /// Indices into [`Self::edges`] of the edges arriving at `v`,
    /// ascending; entry `i` comes from `predecessors(v)[i]`.
    pub fn in_edges(&self, v: VertexId) -> &[usize] {
        self.0.adjacency.in_edges(v)
    }

    /// The edges arriving at `v` as `(edge index, predecessor)`, ascending
    /// by edge index.
    pub fn incoming(&self, v: VertexId) -> impl ExactSizeIterator<Item = (usize, VertexId)> + Clone + '_ {
        self.in_edges(v).iter().copied().zip(self.predecessors(v).iter().copied())
    }

    /// The unique source vertex.
    pub fn source(&self) -> VertexId {
        self.0.source
    }

    /// The unique sink vertex.
    pub fn sink(&self) -> VertexId {
        self.0.sink
    }

    /// True when every vertex has at most one successor and predecessor.
    pub fn is_path(&self) -> bool {
        self.0.is_path
    }

    /// A topological order of the vertices: Kahn's, the ready vertices
    /// taken first in, first out.
    pub fn topological_order(&self) -> &[VertexId] {
        &self.0.order
    }

    /// Number of vertices on the longest source→sink path — the depth
    /// that bounds end-to-end processing latency.
    pub fn critical_path_len(&self) -> usize {
        self.0.critical_path_len
    }

    /// Enumerates every simple path from the source to the sink, as vertex
    /// sequences. The ACP protocol probes each such *branch path*
    /// independently and merges the probed component paths at the deputy
    /// (§3.3 step 3).
    ///
    /// The template library only produces graphs with at most two branch
    /// paths, so enumeration is cheap; pathological graphs are still
    /// handled but capped.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 64 source→sink paths (not
    /// producible by [`TemplateLibrary`]).
    pub fn source_to_sink_paths(&self) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.source()];
        self.dfs_paths(self.source(), self.sink(), &mut stack, &mut out);
        assert!(out.len() <= 64, "function graph has too many branch paths");
        out
    }

    fn dfs_paths(&self, v: VertexId, sink: VertexId, stack: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>) {
        if v == sink {
            out.push(stack.clone());
            return;
        }
        for &s in self.successors(v) {
            stack.push(s);
            self.dfs_paths(s, sink, stack, out);
            stack.pop();
        }
    }
}

/// A named application template.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Template name, e.g. `template-07-dag`.
    pub name: String,
    /// The function graph requests instantiate.
    pub graph: FunctionGraph,
}

/// The library of pre-defined application templates (paper: 20 templates).
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateLibrary {
    templates: Vec<Template>,
}

impl TemplateLibrary {
    /// Generates `count` templates over `registry`, alternating between
    /// linear pipelines and two-branch DAGs. Path lengths and branch
    /// lengths follow the paper: "Each path or branch path includes \[2,5\]
    /// nodes." Functions within one template are distinct.
    ///
    /// # Panics
    ///
    /// Panics when the registry has fewer than 12 functions (the largest
    /// template shape needs that many distinct functions) or `count == 0`.
    pub fn generate<R: Rng + ?Sized>(registry: &FunctionRegistry, count: usize, rng: &mut R) -> Self {
        assert!(count > 0, "need at least one template");
        assert!(registry.len() >= 12, "registry too small for template generation");
        let all_ids: Vec<FunctionId> = registry.ids().collect();
        let templates = (0..count)
            .map(|i| {
                // Alternate path/DAG so roughly half the workload exercises
                // probe merging.
                let is_dag = i % 2 == 1;
                let mut pool = all_ids.clone();
                pool.shuffle(rng);
                let mut take = {
                    let mut iter = pool.into_iter();
                    move |n: usize| -> Vec<FunctionId> { iter.by_ref().take(n).collect() }
                };
                let graph = if is_dag {
                    let prefix_len = 1;
                    let a_len = rng.gen_range(1..=2);
                    let b_len = rng.gen_range(1..=2);
                    let suffix_len = rng.gen_range(0..=1);
                    FunctionGraph::split_merge(
                        take(prefix_len),
                        take(a_len),
                        take(b_len),
                        take(1)[0],
                        take(suffix_len),
                    )
                } else {
                    let len = rng.gen_range(2..=5);
                    FunctionGraph::path(take(len))
                };
                Template {
                    name: format!("template-{i:02}-{}", if is_dag { "dag" } else { "path" }),
                    graph,
                }
            })
            .collect();
        TemplateLibrary { templates }
    }

    /// The paper's default: 20 templates.
    pub fn standard<R: Rng + ?Sized>(registry: &FunctionRegistry, rng: &mut R) -> Self {
        Self::generate(registry, 20, rng)
    }

    /// One single-vertex template per registry function. Single-function
    /// requests place one component and no virtual links, so a workload
    /// drawn from this library exercises pure selection and session
    /// churn with zero routing work — the regime the scale experiments
    /// measure.
    pub fn singletons(registry: &FunctionRegistry) -> Self {
        let templates = registry
            .ids()
            .map(|f| Template {
                name: format!("singleton-{:02}", f.0),
                graph: FunctionGraph::path(vec![f]),
            })
            .collect();
        TemplateLibrary { templates }
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when the library is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Template lookup by index.
    pub fn get(&self, idx: usize) -> &Template {
        &self.templates[idx]
    }

    /// Iterates over all templates.
    pub fn iter(&self) -> impl Iterator<Item = &Template> {
        self.templates.iter()
    }

    /// Samples a template uniformly.
    pub fn sample<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> &'a Template {
        &self.templates[rng.gen_range(0..self.templates.len())]
    }
}

/// What [`FunctionGraph::new`] caches, as it was computed on every call
/// before the graph became a shared handle: nested adjacency vectors, a
/// fresh Kahn's run, the source→sink paths enumerated. The plan is
/// checked against it.
#[cfg(test)]
mod reference {
    use super::{FunctionGraph, VertexId};

    pub(super) struct Reference {
        pub(super) preds: Vec<Vec<VertexId>>,
        pub(super) succs: Vec<Vec<VertexId>>,
    }

    impl Reference {
        pub(super) fn of(graph: &FunctionGraph) -> Reference {
            let mut preds = vec![Vec::new(); graph.len()];
            let mut succs = vec![Vec::new(); graph.len()];
            for &(u, v) in graph.edges() {
                succs[u].push(v);
                preds[v].push(u);
            }
            Reference { preds, succs }
        }

        fn len(&self) -> usize {
            self.preds.len()
        }

        pub(super) fn source(&self) -> VertexId {
            (0..self.len()).find(|&v| self.preds[v].is_empty()).expect("validated at construction")
        }

        pub(super) fn sink(&self) -> VertexId {
            (0..self.len()).find(|&v| self.succs[v].is_empty()).expect("validated at construction")
        }

        pub(super) fn is_path(&self) -> bool {
            (0..self.len()).all(|v| self.preds[v].len() <= 1 && self.succs[v].len() <= 1)
        }

        pub(super) fn topological_order(&self) -> Vec<VertexId> {
            let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
            // Kahn's algorithm; `order` is its own FIFO queue, read at `head`.
            let mut order: Vec<VertexId> = (0..self.len()).filter(|&v| indegree[v] == 0).collect();
            let mut head = 0;
            while let Some(&v) = order.get(head) {
                head += 1;
                for &s in &self.succs[v] {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        order.push(s);
                    }
                }
            }
            order
        }

        pub(super) fn in_edges(graph: &FunctionGraph, v: VertexId) -> Vec<usize> {
            (0..graph.edges().len()).filter(|&e| graph.edges()[e].1 == v).collect()
        }

        pub(super) fn critical_path_len(&self) -> usize {
            self.source_to_sink_paths().iter().map(Vec::len).max().expect("at least one path")
        }

        pub(super) fn source_to_sink_paths(&self) -> Vec<Vec<VertexId>> {
            let mut out = Vec::new();
            let mut stack = vec![self.source()];
            self.dfs_paths(self.source(), self.sink(), &mut stack, &mut out);
            out
        }

        fn dfs_paths(&self, v: VertexId, sink: VertexId, stack: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>) {
            if v == sink {
                out.push(stack.clone());
                return;
            }
            for &s in &self.succs[v] {
                stack.push(s);
                self.dfs_paths(s, sink, stack, out);
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn f(i: u16) -> FunctionId {
        FunctionId(i)
    }

    /// Every cached fact against the computation it replaced.
    fn assert_plan_matches_reference(g: &FunctionGraph) {
        let r = Reference::of(g);
        assert_eq!(g.topological_order(), r.topological_order(), "Kahn's FIFO order, element for element");
        assert_eq!(g.critical_path_len(), r.critical_path_len());
        assert_eq!(g.source(), r.source());
        assert_eq!(g.sink(), r.sink());
        assert_eq!(g.is_path(), r.is_path());
        assert_eq!(g.source_to_sink_paths(), r.source_to_sink_paths());
        for v in g.vertices() {
            assert_eq!(g.predecessors(v), r.preds[v], "predecessors of {v}");
            assert_eq!(g.successors(v), r.succs[v], "successors of {v}");
            assert_eq!(g.in_edges(v), Reference::in_edges(g, v), "in-edges of {v}");
        }
    }

    #[test]
    fn hand_built_plans_match_the_reference() {
        let diamonds = FunctionGraph::new(
            (0..7).map(f).collect(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        );
        // Vertex numbering against the edge direction, edges out of order.
        let backwards = FunctionGraph::new((0..4).map(f).collect(), vec![(1, 0), (3, 2), (2, 1), (3, 1)]);
        for g in [
            FunctionGraph::path(vec![f(0)]),
            FunctionGraph::path(vec![f(3), f(1)]),
            FunctionGraph::path((0..5).map(f).collect()),
            FunctionGraph::split_merge(vec![f(0)], vec![f(1)], vec![f(2)], f(3), vec![]),
            FunctionGraph::split_merge(vec![f(0), f(1)], vec![f(2), f(3)], vec![f(4)], f(5), vec![f(6)]),
            diamonds,
            backwards,
        ] {
            assert_plan_matches_reference(&g);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn library_plans_match_the_reference(seed in 0u64..1_000_000, count in 1usize..24) {
            let reg = FunctionRegistry::standard();
            let lib = TemplateLibrary::generate(&reg, count, &mut StdRng::seed_from_u64(seed));
            for t in lib.iter() {
                assert_plan_matches_reference(&t.graph);
            }
        }
    }

    #[test]
    fn equality_is_by_value_and_a_clone_shares_storage() {
        let a = FunctionGraph::split_merge(vec![f(0)], vec![f(1)], vec![f(2)], f(3), vec![]);
        let b = FunctionGraph::new((0..4).map(f).collect(), vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b, "separately built, equal by value");
        assert!(Arc::ptr_eq(&a.0, &a.clone().0));
        assert_ne!(a, FunctionGraph::new((0..4).map(f).collect(), vec![(0, 2), (0, 1), (1, 3), (2, 3)]));
        assert_ne!(a, FunctionGraph::split_merge(vec![f(0)], vec![f(1)], vec![f(2)], f(4), vec![]));
    }

    #[test]
    fn path_graph_basics() {
        let g = FunctionGraph::path(vec![f(3), f(1), f(4)]);
        assert_eq!(g.len(), 3);
        assert!(g.is_path());
        assert_eq!(g.source(), 0);
        assert_eq!(g.sink(), 2);
        assert_eq!(g.function(1), f(1));
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.predecessors(2), &[1]);
        assert_eq!(g.topological_order(), [0, 1, 2]);
        assert_eq!(g.source_to_sink_paths(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn critical_path_length() {
        let p = FunctionGraph::path(vec![f(0), f(1), f(2)]);
        assert_eq!(p.critical_path_len(), 3);
        let dag = FunctionGraph::split_merge(vec![f(0)], vec![f(1), f(2)], vec![f(3)], f(4), vec![]);
        assert_eq!(dag.critical_path_len(), 4); // prefix(1) + branch A(2) + merge(1)
    }

    #[test]
    fn single_vertex_graph() {
        let g = FunctionGraph::path(vec![f(0)]);
        assert_eq!(g.source(), g.sink());
        assert_eq!(g.source_to_sink_paths(), vec![vec![0]]);
    }

    #[test]
    fn split_merge_structure() {
        // prefix [0,1], branches [2,3] and [4], merge 5, suffix [6]
        let g = FunctionGraph::split_merge(
            vec![f(0), f(1)],
            vec![f(2), f(3)],
            vec![f(4)],
            f(5),
            vec![f(6)],
        );
        assert_eq!(g.len(), 7);
        assert!(!g.is_path());
        let paths = g.source_to_sink_paths();
        assert_eq!(paths.len(), 2);
        // Both paths share prefix vertices 0,1 and converge at the merge.
        for p in &paths {
            assert_eq!(&p[..2], &[0, 1]);
            assert_eq!(*p.last().unwrap(), 6);
        }
        // Mirrors Fig. 2: c10→c20→{c40|c50}→c60.
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        assert!(lens.contains(&6) && lens.contains(&5));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = FunctionGraph::split_merge(vec![f(0)], vec![f(1)], vec![f(2)], f(3), vec![]);
        let order = g.topological_order();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        for &(u, v) in g.edges() {
            assert!(pos(u) < pos(v));
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycles() {
        let _ = FunctionGraph::new(vec![f(0), f(1)], vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let _ = FunctionGraph::new(vec![f(0), f(1), f(2), f(3)], vec![(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "exactly one source")]
    fn rejects_multi_source() {
        // two sources 0 and 1 feeding sink 2
        let _ = FunctionGraph::new(vec![f(0), f(1), f(2)], vec![(0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edges() {
        let _ = FunctionGraph::new(vec![f(0), f(1)], vec![(0, 1), (0, 1)]);
    }

    #[test]
    fn template_library_matches_paper_shape() {
        let reg = FunctionRegistry::standard();
        let mut rng = StdRng::seed_from_u64(2);
        let lib = TemplateLibrary::standard(&reg, &mut rng);
        assert_eq!(lib.len(), 20);
        for t in lib.iter() {
            let paths = t.graph.source_to_sink_paths();
            assert!(paths.len() <= 2, "{}: too many branch paths", t.name);
            for p in &paths {
                assert!(
                    (2..=8).contains(&p.len()),
                    "{}: branch path length {} out of expected range",
                    t.name,
                    p.len()
                );
            }
            // Functions within a template are distinct.
            let mut fs: Vec<_> = t.graph.vertices().map(|v| t.graph.function(v)).collect();
            fs.sort();
            let before = fs.len();
            fs.dedup();
            assert_eq!(fs.len(), before, "{}: repeated function", t.name);
        }
        // Both shapes occur.
        assert!(lib.iter().any(|t| t.graph.is_path()));
        assert!(lib.iter().any(|t| !t.graph.is_path()));
    }

    #[test]
    fn template_sampling_is_uniformish() {
        let reg = FunctionRegistry::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let lib = TemplateLibrary::standard(&reg, &mut rng);
        let mut counts = vec![0usize; lib.len()];
        for _ in 0..2_000 {
            let t = lib.sample(&mut rng);
            let idx = lib.iter().position(|x| x.name == t.name).unwrap();
            counts[idx] += 1;
        }
        assert!(counts.iter().all(|&c| c > 40), "some template never sampled: {counts:?}");
    }

    #[test]
    fn library_is_deterministic() {
        let reg = FunctionRegistry::standard();
        let a = TemplateLibrary::standard(&reg, &mut StdRng::seed_from_u64(7));
        let b = TemplateLibrary::standard(&reg, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
