//! The optimal (exhaustive-search) baseline.
//!
//! "The optimal algorithm exhaustively searches all candidate component
//! compositions to find the best composition" (§4.1). Its *overhead* is
//! the cost of brute-force exhaustive probing — the full probing tree over
//! all candidates at every hop — which is what Figs. 6b/7b chart.
//!
//! Computing the same answer does not require materialising that tree.
//! [`optimal_compose`] runs a depth-first branch-and-bound over two
//! per-request precomputations (DESIGN.md §3j has the derivations):
//!
//! * **a path table per graph edge** — candidates are filtered once
//!   (static admissibility, snapshot resources, own QoS), then every
//!   `(predecessor candidate, candidate)` pair of an edge is resolved
//!   with one `virtual_path` call and one `ln`; the search indexes the
//!   table and materialises links only for the winner;
//! * **a per-candidate to-go bound** from one reverse-topological pass
//!   — the cheapest φ (node *and* link terms, against the frozen
//!   snapshot) any completion below a candidate can still add, and the
//!   least delay and loss it can still accumulate.
//!
//! The search prunes on QoS that can no longer be met, on resource or
//! bandwidth infeasibility (net of the partial composition's own usage),
//! and on `φ so far + to-go bound ≥ incumbent`. Every bound is
//! admissible, so the result is **exactly** the brute-force minimum,
//! while the reported message count reflects the exhaustive search the
//! paper's optimal algorithm performs.

use acp_model::prelude::*;
use acp_simcore::SimTime;
use acp_topology::SharedPath;

use crate::algorithms::ComposeOutcome;
use crate::overhead::OverheadStats;

/// Tunables of the exhaustive baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalConfig {
    /// Safety valve on branch-and-bound expansions. When hit, the search
    /// returns the best composition found so far and flags
    /// [`ComposeOutcome::truncated`]. The default is high enough that the
    /// paper-scale experiments never hit it.
    pub max_expansions: u64,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig { max_expansions: 20_000_000 }
    }
}

/// Exhaustively finds the minimum-φ qualified composition for `request`
/// and commits it. See the module docs for the search/accounting split:
/// the message ledger is the cost of brute-force exhaustive probing.
pub fn optimal_compose(
    system: &mut StreamSystem,
    request: &Request,
    _now: SimTime,
    config: &OptimalConfig,
) -> ComposeOutcome {
    compose_with(system, request, config, bounded_search)
}

/// What a search hands back: the winner (if any) and how far it got.
struct SearchOutcome {
    best: Option<Found>,
    expansions: u64,
}

/// A complete qualified composition.
struct Found {
    assignment: Vec<ComponentId>,
    links: Vec<SharedPath>,
}

/// A minimum-φ search over `request` with an expansion cap.
type SearchFn = fn(&mut StreamSystem, &Request, u64) -> SearchOutcome;

/// Everything around the search: the analytic message ledger before it
/// and the commit (which re-qualifies Eqs. 2–5) after it.
fn compose_with(
    system: &mut StreamSystem,
    request: &Request,
    config: &OptimalConfig,
    search: SearchFn,
) -> ComposeOutcome {
    // Exhaustive-probing overhead: at hop h the brute-force search keeps
    // Π_{i≤h} k_i probes in flight; all complete probes return.
    let mut stats = OverheadStats::new();
    {
        let mut in_flight: u64 = 1;
        for &v in request.graph.topological_order() {
            let k = system.candidates(request.graph.function(v)).len() as u64;
            in_flight = in_flight.saturating_mul(k);
            stats.probe_messages = stats.probe_messages.saturating_add(in_flight);
            stats.probes_spawned = stats.probes_spawned.saturating_add(in_flight);
            stats.discovery_lookups += 1;
        }
        stats.probes_returned = in_flight;
    }

    let SearchOutcome { best, expansions } = search(system, request, config.max_expansions);
    let truncated = expansions >= config.max_expansions;

    let session = best.and_then(|Found { assignment, links }| {
        let composition = Composition { assignment, links };
        let len = composition.assignment.len() as u64;
        match system.commit_session(request, composition) {
            Ok(sid) => {
                stats.confirmation_messages += len;
                Some(sid)
            }
            Err(_) => None,
        }
    });
    if session.is_none() {
        system.release_request_transients(request.id);
    }
    ComposeOutcome { session, stats, truncated, ..ComposeOutcome::default() }
}

/// A bound may only cut a branch when it clears the incumbent by more
/// than rounding can explain: the bound and a leaf's φ sum the same
/// terms in different orders, so they can differ in the last bits. With
/// `bound · PRUNE_GUARD ≥ incumbent` a strictly better leaf is never cut.
const PRUNE_GUARD: f64 = 1.0 - 1e-10;

/// Sentinel for "no completion exists" in the delay-to-go table (µs).
const UNREACHABLE_US: u64 = u64::MAX;

/// A candidate that survived the per-request filter (static
/// admissibility, snapshot resources, own QoS within the requirement).
#[derive(Clone, Copy)]
struct Cand {
    id: ComponentId,
    qos: Qos,
    /// Σ r / ra against the snapshot: a lower bound on this candidate's
    /// node terms of Eq. 1 (actual availability ≤ snapshot).
    node_lb: f64,
}

/// One resolved virtual link of the path table.
struct Hop {
    path: SharedPath,
    /// Delay and (log-survival) loss of the link.
    qos: Qos,
    /// `b / ba_snapshot`, 0 for a co-located pair: a lower bound on this
    /// link's term of Eq. 1.
    link_lb: f64,
}

struct Move {
    cand: usize,
    arrival: Qos,
    delta_phi: f64,
}

/// What [`Search::apply`] changed, for [`Search::undo`] to put back.
struct Placed {
    node: usize,
    node_used_before: ResourceVector,
    link_undo_mark: usize,
}

/// The branch-and-bound: the precomputed tables, then the DFS state.
struct Search {
    /// The request's graph: vertices are placed in its topological
    /// order, and a vertex's first incoming edge is its *tree edge* in
    /// the spanning forest the φ bound is attributed along.
    graph: FunctionGraph,
    /// Per vertex: end-system resource demand.
    demands: Vec<ResourceVector>,
    bandwidth: f64,
    qos_req: QosRequirement,
    /// Per vertex: the filtered candidates, in discovery order.
    cands: Vec<Vec<Cand>>,
    /// Per edge `(u, v)`: the dense `k_u × k_v` path table, row-major by
    /// the predecessor's candidate index. `None`: unreachable, or short
    /// of bandwidth even against the snapshot.
    hops: Vec<Vec<Option<Hop>>>,
    /// `phi_to_go[v][c]`: lower bound on the φ the tree-descendants of
    /// `v` must still add once `v` is placed on candidate `c`.
    phi_to_go: Vec<Vec<f64>>,
    /// Per *tree* edge `(u, w)`, by `u`'s candidate index: lower bound on
    /// the φ of `w`'s whole subtree (tree link + node + to-go), minimised
    /// over `w`'s candidates. Empty for non-tree edges, which are
    /// charged nothing.
    subtree_lb: Vec<Vec<f64>>,
    /// Per depth `d`: the tree edges `(edge, parent)` from a vertex placed
    /// before `d` to one placed after `d` — the roots of the subtrees
    /// that are still wholly unplaced once `order[d]` is.
    pending: Vec<Vec<(usize, VertexId)>>,
    /// `delay_to_go[v][c]` (µs) / `loss_to_go[v][c]` (log-survival): the
    /// least QoS any completion still adds between `v`'s output on
    /// candidate `c` and the sink.
    delay_to_go: Vec<Vec<u64>>,
    loss_to_go: Vec<Vec<f64>>,

    /// Availability snapshots by node/link index (ground truth is frozen
    /// during the search); actual availability = snapshot − used.
    node_avail: Vec<ResourceVector>,
    link_avail: Vec<f64>,
    node_used: Vec<ResourceVector>,
    link_used: Vec<f64>,
    /// `(link, value before)` of every `link_used` entry the current
    /// partial assignment changed, newest last. Undo restores instead of
    /// subtracting (as it does for `node_used`, see [`Placed`]), so the
    /// state — and with it every δφ — is a pure function of the path,
    /// free of add-then-subtract residue.
    link_undo: Vec<(usize, f64)>,
    /// Candidate index chosen per vertex (valid for placed vertices).
    chosen: Vec<usize>,
    accumulated: Vec<Qos>,
    /// `phi_at[d]`: φ of the first `d` placed vertices.
    phi_at: Vec<f64>,
    /// Per-depth reusable move buffers (the DFS visits each depth many
    /// times; recycling keeps the allocation out of the hot path).
    move_pool: Vec<Vec<Move>>,
    best_phi: f64,
    best: Option<Vec<usize>>,
    expansions: u64,
    max_expansions: u64,
}

/// The exact search: [`Search::build`] resolves the tables, the DFS
/// indexes them.
fn bounded_search(system: &mut StreamSystem, request: &Request, max_expansions: u64) -> SearchOutcome {
    let mut search = Search::build(system, request, max_expansions);
    search.dfs(0);
    let best = search.best.take().map(|chosen| search.materialise(request, &chosen));
    SearchOutcome { best, expansions: search.expansions }
}

impl Search {
    /// Ground truth is frozen for the duration of the search (the only
    /// system mutation is route memoisation), so everything the DFS reads
    /// is resolved once here.
    fn build(system: &mut StreamSystem, request: &Request, max_expansions: u64) -> Search {
        let graph = &request.graph;
        let order = graph.topological_order();
        let b = request.bandwidth_kbps;
        let node_avail: Vec<ResourceVector> =
            system.overlay().nodes().map(|v| system.node_available(v)).collect();
        let link_avail: Vec<f64> = system.overlay().links().map(|l| system.link_available(l)).collect();
        let demands: Vec<ResourceVector> =
            graph.vertices().map(|v| request.vertex_demand(system.registry(), v)).collect();

        let cands: Vec<Vec<Cand>> = graph
            .vertices()
            .map(|vertex| {
                let demand = demands[vertex];
                system
                    .candidates(graph.function(vertex))
                    .iter()
                    .filter_map(|&id| {
                        let component = system.component(id);
                        let avail = node_avail[id.node.index()];
                        let qos = system.effective_component_qos(id);
                        let admissible = component.accepts_rate(request.stream_rate_kbps)
                            && avail.dominates(&demand)
                            && qos.satisfies(&request.qos);
                        admissible.then(|| Cand { id, qos, node_lb: node_congestion(&demand, &avail) })
                    })
                    .collect()
            })
            .collect();

        let hops: Vec<Vec<Option<Hop>>> = graph
            .edges()
            .iter()
            .map(|&(u, v)| {
                let mut table = Vec::with_capacity(cands[u].len() * cands[v].len());
                for p in &cands[u] {
                    for c in &cands[v] {
                        table.push(system.virtual_path(p.id.node, c.id.node).and_then(|path| {
                            let link_lb = if path.is_colocated() {
                                0.0
                            } else {
                                let ba = path
                                    .links
                                    .iter()
                                    .fold(f64::INFINITY, |ba, &l| ba.min(link_avail[l.index()]));
                                link_phi(b, ba)?
                            };
                            let qos = Qos::of_link(&path);
                            Some(Hop { path, qos, link_lb })
                        }));
                    }
                }
                table
            })
            .collect();

        // One reverse-topological pass: when a vertex is reached, every
        // successor's tables are final.
        let n = graph.len();
        let mut phi_to_go: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut delay_to_go: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut loss_to_go: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut subtree_lb: Vec<Vec<f64>> = vec![Vec::new(); graph.edges().len()];
        for &v in order.iter().rev() {
            let k = cands[v].len();
            let mut phi = vec![0.0f64; k];
            let mut delay = vec![0u64; k];
            let mut loss = vec![0.0f64; k];
            for (e, &(_, w)) in graph.edges().iter().enumerate().filter(|(_, &(u, _))| u == v) {
                let kw = cands[w].len();
                // A vertex's subtree is charged to its first incoming edge
                // alone; its other incoming edges are charged nothing.
                let tree_edge = graph.in_edges(w)[0] == e;
                let mut edge_lb = Vec::with_capacity(if tree_edge { k } else { 0 });
                for c in 0..k {
                    let (mut least_delay, mut least_loss) = (UNREACHABLE_US, f64::INFINITY);
                    let mut cheapest = f64::INFINITY;
                    for (c2, next) in cands[w].iter().enumerate() {
                        let Some(hop) = &hops[e][c * kw + c2] else { continue };
                        let hop_delay = (hop.qos.delay + next.qos.delay).as_micros();
                        least_delay = least_delay.min(hop_delay.saturating_add(delay_to_go[w][c2]));
                        let hop_loss = (hop.qos.loss + next.qos.loss).log_survival();
                        least_loss = least_loss.min(hop_loss + loss_to_go[w][c2]);
                        cheapest = cheapest.min(hop.link_lb + next.node_lb + phi_to_go[w][c2]);
                    }
                    delay[c] = delay[c].max(least_delay);
                    loss[c] = loss[c].max(least_loss);
                    if tree_edge {
                        phi[c] += cheapest;
                        edge_lb.push(cheapest);
                    }
                }
                subtree_lb[e] = edge_lb;
            }
            phi_to_go[v] = phi;
            delay_to_go[v] = delay;
            loss_to_go[v] = loss;
        }

        let mut position = vec![0usize; n];
        for (d, &v) in order.iter().enumerate() {
            position[v] = d;
        }
        let pending: Vec<Vec<(usize, VertexId)>> = (0..n)
            .map(|d| {
                graph
                    .vertices()
                    .filter(|&w| position[w] > d)
                    .filter_map(|w| graph.incoming(w).next())
                    .filter(|&(_, parent)| position[parent] < d)
                    .collect()
            })
            .collect();

        let (node_count, link_count) = (node_avail.len(), link_avail.len());
        Search {
            graph: graph.clone(),
            demands,
            bandwidth: b,
            qos_req: request.qos,
            cands,
            hops,
            phi_to_go,
            subtree_lb,
            pending,
            delay_to_go,
            loss_to_go,
            node_avail,
            link_avail,
            node_used: vec![ResourceVector::ZERO; node_count],
            link_used: vec![0.0; link_count],
            link_undo: Vec::new(),
            chosen: vec![0; n],
            accumulated: vec![Qos::ZERO; n],
            phi_at: vec![0.0; n + 1],
            move_pool: (0..n).map(|_| Vec::new()).collect(),
            best_phi: f64::INFINITY,
            best: None,
            expansions: 0,
            max_expansions,
        }
    }

    fn dfs(&mut self, depth: usize) {
        if self.expansions >= self.max_expansions {
            return;
        }
        let phi = self.phi_at[depth];
        if depth == self.graph.len() {
            if phi < self.best_phi {
                self.best_phi = phi;
                self.best = Some(self.chosen.clone());
            }
            return;
        }
        let vertex = self.graph.topological_order()[depth];
        // What the subtrees hanging off earlier vertices must still add,
        // given where their parents sit. Recomputed from the tables at
        // every node: no running sum to drift.
        let rest: f64 =
            self.pending[depth].iter().map(|&(e, parent)| self.subtree_lb[e][self.chosen[parent]]).sum();
        let mut moves = self.feasible_moves(depth, vertex);
        // Best-first: descending into the cheapest candidate early makes
        // the incumbent tight early. Stable, so ties keep discovery order.
        moves.sort_by(|a, b| a.delta_phi.total_cmp(&b.delta_phi));
        for m in &moves {
            // Even a best-case completion below this candidate cannot
            // beat the incumbent. (∞ ≥ ∞: no completion exists at all.)
            let bound = phi + m.delta_phi + self.phi_to_go[vertex][m.cand] + rest;
            if bound * PRUNE_GUARD >= self.best_phi {
                continue;
            }
            let placed = self.apply(vertex, m);
            self.phi_at[depth + 1] = phi + m.delta_phi;
            self.dfs(depth + 1);
            self.undo(placed);
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
        let b = self.bandwidth;
        let k = self.cands[vertex].len();
        let incoming = self.graph.incoming(vertex);
        'candidates: for ci in 0..k {
            self.expansions += 1;
            if self.expansions >= self.max_expansions {
                break;
            }
            let cand = self.cands[vertex][ci];
            // Resources, net of this partial composition's own usage.
            let node = cand.id.node.index();
            let avail = self.node_avail[node].saturating_sub(&self.node_used[node]);
            if !avail.dominates(&demand) {
                continue;
            }
            // Arrival QoS (critical path over incoming branches).
            let mut arrival = cand.qos;
            if incoming.len() > 0 {
                let mut worst = Qos::ZERO;
                for (e, u) in incoming.clone() {
                    let Some(hop) = &self.hops[e][self.chosen[u] * k + ci] else {
                        continue 'candidates;
                    };
                    let q = self.accumulated[u] + hop.qos;
                    if q.delay > worst.delay {
                        worst.delay = q.delay;
                    }
                    if q.loss > worst.loss {
                        worst.loss = q.loss;
                    }
                }
                arrival = worst + cand.qos;
            }
            if !arrival.satisfies(&self.qos_req) {
                continue;
            }
            // QoS to go: hopeless here, not only at the sink.
            let delay_lb = arrival.delay.as_micros().saturating_add(self.delay_to_go[vertex][ci]);
            let loss_lb = arrival.loss.log_survival() + self.loss_to_go[vertex][ci];
            if delay_lb > self.qos_req.max_delay.as_micros()
                || loss_lb * PRUNE_GUARD > self.qos_req.max_loss.log_survival()
            {
                continue;
            }
            // φ terms: the node, then each incoming virtual link at its
            // bottleneck availability.
            let mut delta_phi = node_congestion(&demand, &avail);
            for (e, u) in incoming.clone() {
                let hop = self.hops[e][self.chosen[u] * k + ci].as_ref().expect("resolved above");
                if hop.path.is_colocated() {
                    continue;
                }
                let ba = hop.path.links.iter().fold(f64::INFINITY, |ba, &l| {
                    ba.min(self.link_avail[l.index()] - self.link_used[l.index()])
                });
                match link_phi(b, ba) {
                    Some(term) => delta_phi += term,
                    None => continue 'candidates,
                }
            }
            moves.push(Move { cand: ci, arrival, delta_phi });
        }
        moves
    }

    /// Places `vertex` on `m.cand`.
    fn apply(&mut self, vertex: VertexId, m: &Move) -> Placed {
        let k = self.cands[vertex].len();
        self.chosen[vertex] = m.cand;
        self.accumulated[vertex] = m.arrival;
        let node = self.cands[vertex][m.cand].id.node.index();
        let placed =
            Placed { node, node_used_before: self.node_used[node], link_undo_mark: self.link_undo.len() };
        self.node_used[node] += self.demands[vertex];
        for (e, u) in self.graph.incoming(vertex) {
            let hop = self.hops[e][self.chosen[u] * k + m.cand].as_ref().expect("a feasible move");
            for &l in &hop.path.links {
                self.link_undo.push((l.index(), self.link_used[l.index()]));
                self.link_used[l.index()] += self.bandwidth;
            }
        }
        placed
    }

    fn undo(&mut self, placed: Placed) {
        self.node_used[placed.node] = placed.node_used_before;
        for (link, before) in self.link_undo.drain(placed.link_undo_mark..).rev() {
            self.link_used[link] = before;
        }
    }

    /// The winner's components and virtual links, in vertex / edge order.
    fn materialise(&self, request: &Request, chosen: &[usize]) -> Found {
        let assignment = chosen.iter().enumerate().map(|(v, &c)| self.cands[v][c].id).collect();
        let links = request
            .graph
            .edges()
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| {
                let hop = self.hops[e][chosen[u] * self.cands[v].len() + chosen[v]].as_ref();
                hop.expect("the winner's links were resolved").path.clone()
            })
            .collect();
        Found { assignment, links }
    }
}

/// One virtual link's term of Eq. 1, `b / ba` at bottleneck availability
/// `ba`; `None` when the link cannot carry `b` (Eq. 5).
fn link_phi(b: f64, ba: f64) -> Option<f64> {
    if ba < b {
        None
    } else {
        Some(link_congestion(b, ba))
    }
}

/// The search this module ran before the path table and the to-go bound
/// (per-DFS-node path lookups, a per-depth sum of node terms as the only
/// bound, a `+=`/`-=` φ accumulator), kept verbatim as the oracle the
/// differential tests compare [`bounded_search`] against.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::reference_search;
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64, nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: nodes, neighbors: 4 }, &mut rng);
        StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig { components_per_node: (2, 3), ..SystemConfig::default() },
            &mut rng,
        )
    }

    /// A system built to be searched: ten functions over 3–5 components
    /// per node, so every function has several candidates, and node and
    /// link capacities small enough that one request's demand is a
    /// sizeable share of them — co-located picks and virtual links that
    /// share an overlay link compete with each other.
    fn contended(seed: u64, nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, bandwidth_kbps: (500.0, 3_000.0), ..InetConfig::default() }
            .generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: nodes, neighbors: 4 }, &mut rng);
        let config = SystemConfig {
            components_per_node: (3, 5),
            node_cpu: (4.0, 12.0),
            node_memory_mb: (40.0, 120.0),
        };
        StreamSystem::generate(overlay, FunctionRegistry::with_size(10), &config, &mut rng)
    }

    fn populated_functions(sys: &StreamSystem, len: usize) -> Vec<FunctionId> {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).take(len).collect();
        assert_eq!(fns.len(), len);
        fns
    }

    fn request_over(graph: FunctionGraph, id: u64) -> Request {
        Request {
            id: RequestId(id),
            graph,
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.5, 2.0),
            bandwidth_kbps: 5.0,
            stream_rate_kbps: 100.0,
            tenant: None,
        }
    }

    fn path_request(sys: &StreamSystem, id: u64, len: usize) -> Request {
        request_over(FunctionGraph::path(populated_functions(sys, len)), id)
    }

    /// A split–merge DAG over `branch + 3` or more functions: one split
    /// vertex, two branches of `branch` vertices, a merge, `suffix` more.
    fn dag_request(sys: &StreamSystem, id: u64, branch: usize, suffix: usize) -> Request {
        let fns = populated_functions(sys, 2 + 2 * branch + suffix);
        let (a, rest) = fns[1..].split_at(branch);
        let (b, rest) = rest.split_at(branch);
        let graph =
            FunctionGraph::split_merge(vec![fns[0]], a.to_vec(), b.to_vec(), rest[0], rest[1..].to_vec());
        request_over(graph, id)
    }

    #[test]
    fn finds_a_composition_and_commits() {
        let mut sys = build(1, 25);
        let req = path_request(&sys, 1, 3);
        let out = optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig::default());
        assert!(out.session.is_some());
        assert!(!out.truncated);
        assert_eq!(sys.session_count(), 1);
    }

    /// Literal enumeration of every assignment: the minimum φ over the
    /// qualified ones, by the model's own `qualify` and Eq. 1.
    fn brute_force_minimum(sys: &mut StreamSystem, req: &Request) -> Option<f64> {
        let per_vertex: Vec<Vec<ComponentId>> =
            req.graph.vertices().map(|v| sys.candidates(req.graph.function(v)).to_vec()).collect();
        let mut best: Option<f64> = None;
        let mut pick = vec![0usize; per_vertex.len()];
        'assignments: loop {
            let assignment: Vec<ComponentId> = pick.iter().zip(&per_vertex).map(|(&i, c)| c[i]).collect();
            let links: Option<Vec<SharedPath>> = req
                .graph
                .edges()
                .iter()
                .map(|&(u, v)| sys.virtual_path(assignment[u].node, assignment[v].node))
                .collect();
            if let Some(links) = links {
                let comp = Composition { assignment, links };
                if sys.qualify(req, &comp).is_ok() {
                    let phi = congestion_aggregation(sys, req, &comp);
                    best = Some(best.map_or(phi, |x| x.min(phi)));
                }
            }
            for (i, options) in pick.iter_mut().zip(&per_vertex) {
                *i += 1;
                if *i < options.len() {
                    continue 'assignments;
                }
                *i = 0;
            }
            return best;
        }
    }

    /// Cross-check against literal brute force on small systems: a 2-hop
    /// and a 3-hop path, and a split–merge DAG.
    #[test]
    fn matches_brute_force_minimum() {
        let mut sys = build(2, 12);
        let requests =
            [path_request(&sys, 2, 2), path_request(&sys, 3, 3), dag_request(&sys, 4, 1, 0)];
        for req in &requests {
            let expected = brute_force_minimum(&mut sys, req);
            let mut scratch = sys.clone();
            let out = optimal_compose(&mut scratch, req, SimTime::ZERO, &OptimalConfig::default());
            assert!(!out.truncated);
            match expected {
                Some(phi) => {
                    let sid = out.session.unwrap_or_else(|| panic!("request {:?}", req.id));
                    let committed = congestion_aggregation(&sys, req, &scratch.session(sid).unwrap().composition);
                    assert!(
                        (committed - phi).abs() < 1e-9,
                        "B&B {committed} vs brute force {phi} on request {:?}",
                        req.id
                    );
                }
                None => assert!(out.session.is_none(), "request {:?}", req.id),
            }
        }
    }

    #[test]
    fn overhead_is_exhaustive_tree_size() {
        let mut sys = build(3, 15);
        let req = path_request(&sys, 3, 3);
        let ks: Vec<u64> =
            req.graph.vertices().map(|v| sys.candidates(req.graph.function(v)).len() as u64).collect();
        let expect = ks[0] + ks[0] * ks[1] + ks[0] * ks[1] * ks[2];
        let out = optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig::default());
        assert_eq!(out.stats.probe_messages, expect);
        assert_eq!(out.stats.probes_returned, ks.iter().product::<u64>());
    }

    #[test]
    fn impossible_request_fails_cleanly() {
        let mut sys = build(4, 15);
        let mut req = path_request(&sys, 4, 3);
        req.base_resources = ResourceVector::new(1e9, 1e9);
        let out = optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig::default());
        assert!(out.session.is_none());
        assert_eq!(sys.session_count(), 0);
    }

    #[test]
    fn expansion_cap_truncates() {
        let mut sys = build(5, 30);
        let req = path_request(&sys, 5, 4);
        let out = optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig { max_expansions: 3 });
        assert!(out.truncated);
    }

    #[test]
    fn handles_dag_requests() {
        let mut sys = build(6, 25);
        let mut req = dag_request(&sys, 6, 1, 0);
        req.base_resources = ResourceVector::new(0.3, 1.0);
        req.bandwidth_kbps = 2.0;
        req.stream_rate_kbps = 64.0;
        let out = optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig::default());
        assert!(out.session.is_some());
        let session = sys.sessions().next().unwrap();
        assert!(session.composition.is_shape_valid(&req.graph));
    }

    /// The φ the search prunes against is Eq. 1 of the composition it
    /// commits, taken on the pre-commit system — a pure function of the
    /// winning path, with none of the add-then-subtract residue a running
    /// accumulator picks up over the thousands of branches visited before it.
    #[test]
    fn best_phi_is_the_committed_compositions_phi() {
        let mut sys = contended(7, 40);
        // Load the system first, so availabilities are uneven and the
        // search backtracks.
        for id in 0..6 {
            let req = path_request(&sys, 100 + id, 3);
            optimal_compose(&mut sys, &req, SimTime::ZERO, &OptimalConfig::default());
        }
        for req in [path_request(&sys, 7, 5), dag_request(&sys, 8, 1, 1)] {
            let mut search = Search::build(&mut sys.clone(), &req, u64::MAX);
            search.dfs(0);
            let mut committed = sys.clone();
            let out = optimal_compose(&mut committed, &req, SimTime::ZERO, &OptimalConfig::default());
            let sid = out.session.expect("a loose request composes");
            let phi = congestion_aggregation(&sys, &req, &committed.session(sid).unwrap().composition);
            assert!((search.best_phi - phi).abs() < 1e-9, "search {} vs Eq. 1 {phi}", search.best_phi);
        }
    }

    /// Neither search may be cut short in a differential comparison.
    const NO_CAP: u64 = 20_000_000;

    /// Runs both searches on `sys` (which neither changes beyond the path
    /// memo) and requires the same verdict, the same assignment and the
    /// same virtual links (hence the same φ); then commits the winner, as
    /// [`compose_with`] would.
    ///
    /// The commit can still refuse it: both searches check the incoming
    /// virtual links of one vertex against the bandwidth left *before*
    /// that vertex, so two branches that merge over one scarce overlay
    /// link pass singly and fail Eq. 5 together (an old gap they share;
    /// ROADMAP item 3).
    fn same_answer_committed(sys: &mut StreamSystem, req: &Request) -> Option<SessionId> {
        let new = bounded_search(sys, req, NO_CAP);
        let old = reference_search(sys, req, NO_CAP);
        assert!(new.expansions < NO_CAP && old.expansions < NO_CAP, "raise NO_CAP");
        match (&new.best, &old.best) {
            (None, None) => {}
            (Some(n), Some(o)) => {
                assert_eq!(n.assignment, o.assignment, "assignment on {:?}", req.id);
                assert_eq!(n.links.len(), o.links.len());
                for (a, b) in n.links.iter().zip(&o.links) {
                    assert_eq!(a.links, b.links, "virtual link on {:?}", req.id);
                }
            }
            (n, o) => panic!(
                "found/not-found differs on {:?}: new {} vs reference {}",
                req.id,
                n.is_some(),
                o.is_some()
            ),
        }
        let Found { assignment, links } = new.best?;
        sys.commit_session(req, Composition { assignment, links }).ok()
    }

    /// A random request over `sys`: paths of 2–6 or split–merge DAGs, QoS
    /// loose / tight / infeasible, resources and bandwidth ample or
    /// scarce (scarce: a sizeable share of a [`contended`] node or link).
    fn draw_request(sys: &StreamSystem, id: u64, rng: &mut StdRng) -> Request {
        let mut req = if rng.gen_bool(0.5) {
            path_request(sys, id, rng.gen_range(2..=6))
        } else {
            dag_request(sys, id, rng.gen_range(1..=2), rng.gen_range(0..=1))
        };
        let hops = req.graph.critical_path_len() as f64;
        req.qos = match rng.gen_range(0..3u8) {
            0 => QosRequirement::unconstrained(),
            // Around what a composition of this depth achieves: some
            // candidates fit, most partial assignments do not.
            1 => QosRequirement::new(
                acp_simcore::SimDuration::from_secs_f64(rng.gen_range(0.004..0.03) * hops),
                LossRate::from_probability(rng.gen_range(0.02..0.10)),
            ),
            // Infeasible: under 2 ms end to end, less than two components take.
            _ => QosRequirement::new(
                acp_simcore::SimDuration::from_micros(rng.gen_range(1..2_000)),
                LossRate::from_probability(0.5),
            ),
        };
        req.base_resources = if rng.gen_bool(0.5) {
            ResourceVector::new(rng.gen_range(0.1..0.5), rng.gen_range(1.0..5.0))
        } else {
            ResourceVector::new(rng.gen_range(1.0..4.0), rng.gen_range(10.0..40.0))
        };
        req.bandwidth_kbps =
            if rng.gen_bool(0.5) { rng.gen_range(5.0..50.0) } else { rng.gen_range(200.0..900.0) };
        req.stream_rate_kbps = rng.gen_range(50.0..500.0);
        req
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The search with the path table and the to-go bounds returns what
        /// the search without them returns: same verdict, same assignment,
        /// same φ — on a session of back-to-back requests, each committed
        /// before the next is drawn, so the later ones run on a loaded,
        /// uneven system and the partial composition's own consumption
        /// (`node_used` / `link_used`) matters.
        #[test]
        fn matches_the_reference_search(seed in 0u64..1_000_000, nodes in 14usize..26) {
            let mut sys = contended(seed, nodes);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (mut found, mut rejected) = (0, 0);
            for id in 0..12 {
                let req = draw_request(&sys, id, &mut rng);
                match same_answer_committed(&mut sys, &req) {
                    Some(_) => found += 1,
                    None => rejected += 1,
                }
            }
            // Both verdicts occur in every session the generator draws.
            prop_assert!(found > 0 && rejected > 0, "found {found}, rejected {rejected}");
        }
    }

    /// The Fig. 6 conditions at quick scale (50 nodes, 3–5 components per
    /// node, the 20-template library, the workload's requirement ranges),
    /// arrivals interleaved with closes so load builds up — run under both
    /// searches, cap out of reach. Every request the reference finishes is
    /// answered identically, so the two session tables never diverge.
    #[test]
    fn fig6_quick_session_tables_match_the_reference() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(0xf16 + seed);
            let ip = InetConfig { nodes: 400, ..InetConfig::default() }.generate(&mut rng);
            let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 50, neighbors: 6 }, &mut rng);
            let registry = FunctionRegistry::with_size(20);
            let library = TemplateLibrary::standard(&registry, &mut rng);
            let config = SystemConfig { components_per_node: (3, 5), ..SystemConfig::default() };
            let mut sys = StreamSystem::generate(overlay, registry, &config, &mut rng);
            let mut live = std::collections::VecDeque::new();
            let mut composed = 0;
            for id in 0..120u64 {
                let graph = library.sample(&mut rng).graph.clone();
                let hops = graph.critical_path_len() as f64;
                let req = Request {
                    qos: QosRequirement::new(
                        acp_simcore::SimDuration::from_secs_f64(rng.gen_range(0.05..0.12) * hops),
                        LossRate::from_probability(rng.gen_range(0.04..0.12)),
                    ),
                    base_resources: ResourceVector::new(rng.gen_range(1.0..2.2), rng.gen_range(10.0..24.0)),
                    bandwidth_kbps: rng.gen_range(50.0..200.0),
                    stream_rate_kbps: rng.gen_range(50.0..500.0),
                    ..request_over(graph, id)
                };
                if let Some(session) = same_answer_committed(&mut sys, &req) {
                    live.push_back(session);
                    composed += 1;
                }
                // ≈ 60 live sessions at steady state: well into contention.
                if live.len() > 60 {
                    sys.close_session(live.pop_front().expect("non-empty"));
                }
            }
            assert!(composed >= 60, "seed {seed}: only {composed} of 120 composed");
        }
    }
}
