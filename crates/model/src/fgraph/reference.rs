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
