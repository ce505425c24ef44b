use super::*;

pub(super) fn reference_search(
    system: &mut StreamSystem,
    request: &Request,
    max_expansions: u64,
) -> SearchOutcome {
    let order = request.graph.topological_order().to_vec();

    // Ground truth is frozen for the duration of the search (the only
    // system mutation below is route memoisation), so availability,
    // effective QoS, static admissibility, predecessor edges, and vertex
    // demands can all be resolved ONCE here instead of per DFS node. The
    // search then runs entirely on flat index-addressed vectors.
    let node_avail: Vec<ResourceVector> =
        system.overlay().nodes().map(|v| system.node_available(v)).collect();
    let link_avail: Vec<f64> = system.overlay().links().map(|l| system.link_available(l)).collect();
    let preds: Vec<Vec<(usize, VertexId)>> = request
        .graph
        .vertices()
        .map(|vertex| {
            request
                .graph
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, &(_, v))| v == vertex)
                .map(|(e, &(u, _))| (e, u))
                .collect()
        })
        .collect();
    let demands: Vec<ResourceVector> =
        request.graph.vertices().map(|v| request.vertex_demand(system.registry(), v)).collect();
    let cands: Vec<Vec<CandInfo>> = request
        .graph
        .vertices()
        .map(|vertex| {
            let function = request.graph.function(vertex);
            system
                .candidates(function)
                .to_vec()
                .into_iter()
                .map(|c| {
                    let static_ok = system.component(c).accepts_rate(request.stream_rate_kbps);
                    CandInfo { id: c, qos: system.effective_component_qos(c), static_ok }
                })
                .collect()
        })
        .collect();

    // Admissible per-depth lower bound on the φ contribution of the
    // remaining suffix: at depth d the search must still place every
    // vertex order[d..], and placing order[d'] costs at least
    // min over its feasible candidates of Σ_{r>0} r / ra_snapshot —
    // the frozen snapshot availability is an upper bound on the actual
    // availability once earlier picks consume resources (ra_actual ≤
    // ra_snapshot ⇒ r/ra_actual ≥ r/ra_snapshot), and the bandwidth φ
    // terms are nonnegative, so the true suffix cost can never undercut
    // this sum. Pruning on it preserves the exact optimum.
    let depth_count = order.len();
    let mut suffix_lb = vec![0.0f64; depth_count + 1];
    for d in (0..depth_count).rev() {
        let v = order[d];
        let demand = demands[v];
        let mut cheapest = f64::INFINITY;
        for cand in &cands[v] {
            if !cand.static_ok {
                continue;
            }
            let avail = node_avail[cand.id.node.index()];
            if !avail.dominates(&demand) {
                continue; // infeasible even against the snapshot
            }
            let mut phi = 0.0;
            for (kind, r) in demand.iter() {
                if r > 0.0 {
                    phi += r / avail.get(kind);
                }
            }
            cheapest = cheapest.min(phi);
        }
        // A vertex with no snapshot-feasible candidate contributes 0:
        // no completion exists through it, so any admissible value
        // works and 0 keeps the arithmetic finite.
        suffix_lb[d] = suffix_lb[d + 1] + if cheapest.is_finite() { cheapest } else { 0.0 };
    }

    let (node_count, link_count) = (node_avail.len(), link_avail.len());
    let mut search = Search {
        system,
        request,
        order,
        preds,
        cands,
        demands,
        assignment: vec![None; request.graph.len()],
        links: vec![None; request.graph.edges().len()],
        accumulated: vec![Qos::ZERO; request.graph.len()],
        node_avail,
        link_avail,
        node_used: vec![ResourceVector::ZERO; node_count],
        link_used: vec![0.0; link_count],
        move_pool: (0..depth_count).map(|_| Vec::new()).collect(),
        suffix_lb,
        phi: 0.0,
        best_phi: f64::INFINITY,
        best: None,
        expansions: 0,
        max_expansions,
    };
    search.dfs(0);
    let expansions = search.expansions;
    let best = search.best.take().map(|(assignment, links)| Found { assignment, links });
    SearchOutcome { best, expansions }
}

/// Per-candidate facts resolved once per request: the candidate's id, its
/// (precise) effective QoS, and whether it passes the static
/// interface-rate check.
#[derive(Clone, Copy)]
struct CandInfo {
    id: ComponentId,
    qos: Qos,
    static_ok: bool,
}

struct Search<'a> {
    system: &'a mut StreamSystem,
    request: &'a Request,
    order: Vec<VertexId>,
    /// Per vertex: incoming `(edge index, predecessor vertex)` pairs.
    preds: Vec<Vec<(usize, VertexId)>>,
    /// Per vertex: the discovery result with cached per-candidate facts.
    cands: Vec<Vec<CandInfo>>,
    /// Per vertex: end-system resource demand.
    demands: Vec<ResourceVector>,
    assignment: Vec<Option<ComponentId>>,
    links: Vec<Option<SharedPath>>,
    accumulated: Vec<Qos>,
    /// Availability snapshots by node/link index (ground truth is frozen
    /// during the search); actual availability = snapshot − used.
    node_avail: Vec<ResourceVector>,
    link_avail: Vec<f64>,
    node_used: Vec<ResourceVector>,
    link_used: Vec<f64>,
    /// Per-depth reusable move buffers (the DFS visits each depth many
    /// times; recycling keeps the allocation out of the hot path).
    move_pool: Vec<Vec<Move>>,
    /// `suffix_lb[d]`: admissible lower bound on the φ the suffix
    /// `order[d..]` must still add (see `optimal_compose` for the
    /// derivation). `suffix_lb[order.len()] == 0`.
    suffix_lb: Vec<f64>,
    phi: f64,
    best_phi: f64,
    best: Option<(Vec<ComponentId>, Vec<SharedPath>)>,
    expansions: u64,
    max_expansions: u64,
}

struct Move {
    component: ComponentId,
    incoming: Vec<(usize, SharedPath)>,
    arrival: Qos,
    delta_phi: f64,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize) {
        if self.expansions >= self.max_expansions {
            return;
        }
        if depth == self.order.len() {
            if self.phi < self.best_phi {
                self.best_phi = self.phi;
                self.best = Some((
                    self.assignment.iter().map(|a| a.expect("complete")).collect(),
                    self.links.iter().map(|l| l.clone().expect("complete")).collect(),
                ));
            }
            return;
        }
        // Suffix bound: even a best-case completion of the remaining
        // vertices cannot beat the incumbent from here.
        if self.phi + self.suffix_lb[depth] >= self.best_phi {
            return;
        }
        let vertex = self.order[depth];
        let mut moves = self.feasible_moves(depth, vertex);
        // Best-first: descending into the cheapest candidate early makes
        // the φ-dominance bound effective.
        moves.sort_by(|a, b| a.delta_phi.total_cmp(&b.delta_phi));
        for m in &moves {
            if self.phi + m.delta_phi + self.suffix_lb[depth + 1] >= self.best_phi {
                break; // sorted: every later move is at least as expensive
            }
            self.apply(vertex, m);
            self.dfs(depth + 1);
            self.undo(vertex, m);
            if self.expansions >= self.max_expansions {
                break;
            }
        }
        moves.clear();
        self.move_pool[depth] = moves;
    }

    /// Enumerates qualified candidate moves at `vertex` (Eqs. 6–8 with
    /// precise state, adjusted for this partial composition's own usage).
    fn feasible_moves(&mut self, depth: usize, vertex: VertexId) -> Vec<Move> {
        let mut moves = std::mem::take(&mut self.move_pool[depth]);
        let demand = self.demands[vertex];
        let b = self.request.bandwidth_kbps;
        let n_preds = self.preds[vertex].len();
        let n_cands = self.cands[vertex].len();
        'candidates: for ci in 0..n_cands {
            self.expansions += 1;
            if self.expansions >= self.max_expansions {
                break;
            }
            let cand = self.cands[vertex][ci];
            if !cand.static_ok {
                continue;
            }
            let c = cand.id;
            // Resources, net of this partial composition's own usage —
            // cheapest filter first, and it needs no path lookups.
            let avail =
                self.node_avail[c.node.index()].saturating_sub(&self.node_used[c.node.index()]);
            if !avail.dominates(&demand) {
                continue;
            }
            // Virtual links from each predecessor.
            let mut incoming = Vec::with_capacity(n_preds);
            for pi in 0..n_preds {
                let (e, u) = self.preds[vertex][pi];
                let p = self.assignment[u].expect("topo order");
                match self.system.virtual_path(p.node, c.node) {
                    Some(path) => incoming.push((e, path)),
                    None => continue 'candidates,
                }
            }
            // Arrival QoS (critical path over incoming branches).
            let mut arrival = cand.qos;
            if n_preds > 0 {
                let mut worst = Qos::ZERO;
                for (&(_, u), (_, path)) in self.preds[vertex].iter().zip(&incoming) {
                    let acc = self.accumulated[u];
                    let q = acc + Qos::new(path.delay, LossRate::from_probability(path.loss_rate()));
                    if q.delay > worst.delay {
                        worst.delay = q.delay;
                    }
                    if q.loss > worst.loss {
                        worst.loss = q.loss;
                    }
                }
                arrival = worst + cand.qos;
            }
            if !arrival.satisfies(&self.request.qos) {
                continue;
            }
            // Bandwidth per incoming virtual link + φ terms.
            let mut delta_phi = 0.0;
            for (kind, r) in demand.iter() {
                if r > 0.0 {
                    let ra = avail.get(kind);
                    if ra <= 0.0 {
                        continue 'candidates;
                    }
                    delta_phi += r / ra;
                }
            }
            for (_, path) in &incoming {
                if path.is_colocated() {
                    continue;
                }
                let mut ba = f64::INFINITY;
                for &l in &path.links {
                    ba = ba.min(self.link_avail[l.index()] - self.link_used[l.index()]);
                }
                if ba < b {
                    continue 'candidates;
                }
                if b > 0.0 {
                    if ba <= 0.0 {
                        continue 'candidates;
                    }
                    delta_phi += b / ba;
                }
            }
            moves.push(Move { component: c, incoming, arrival, delta_phi });
        }
        moves
    }

    fn apply(&mut self, vertex: VertexId, m: &Move) {
        self.assignment[vertex] = Some(m.component);
        self.accumulated[vertex] = m.arrival;
        self.node_used[m.component.node.index()] += self.demands[vertex];
        for (e, path) in &m.incoming {
            self.links[*e] = Some(path.clone());
            for &l in &path.links {
                self.link_used[l.index()] += self.request.bandwidth_kbps;
            }
        }
        self.phi += m.delta_phi;
    }

    fn undo(&mut self, vertex: VertexId, m: &Move) {
        let demand = self.demands[vertex];
        self.assignment[vertex] = None;
        let used = &mut self.node_used[m.component.node.index()];
        *used = used.saturating_sub(&demand);
        for (e, path) in &m.incoming {
            self.links[*e] = None;
            for &l in &path.links {
                let used = &mut self.link_used[l.index()];
                *used = (*used - self.request.bandwidth_kbps).max(0.0);
            }
        }
        self.phi -= m.delta_phi;
    }
}
