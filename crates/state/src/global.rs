//! Coarse-grain global state maintenance (§3.2).
//!
//! The global state holds (1) QoS/resource states of all nodes and their
//! components and (2) states of the virtual links between all node pairs.
//! For scalability, it is updated **coarsely**: a node (or link) publishes
//! only when a state variation exceeds a threshold fraction of the
//! metric's maximum value (paper §4.1 uses 10 %); virtual-link states are
//! re-aggregated by a rotating *aggregation node* at a long interval.
//!
//! [`GlobalStateBoard`] is that coarse view, together with message
//! accounting so experiments can report maintenance overhead. The board
//! is *stale by design*: composition algorithms that consult it (ACP's
//! candidate selection) see values as of the last published update, not
//! ground truth.

use acp_model::prelude::*;
use acp_topology::{OverlayLinkId, OverlayNodeId, OverlayPath};

/// Tuning knobs for coarse-grain state maintenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalStateConfig {
    /// Publish threshold as a fraction of a metric's maximum value
    /// (paper: 0.10 — "update is triggered when the value variation of a
    /// resource or QoS metric exceeds 10 % of its maximum value").
    pub threshold: f64,
}

impl Default for GlobalStateConfig {
    fn default() -> Self {
        GlobalStateConfig { threshold: 0.10 }
    }
}

/// Scan-effort counters: entries visited vs. entries the version skip
/// passed over. Purely observational — a skipped entry is one a visit
/// would not have published (debug builds assert it at the skip).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Nodes actually compared against their published state.
    pub nodes_scanned: u64,
    /// Node visits a full scan would have performed.
    pub nodes_total: u64,
    /// Links actually compared during aggregation rounds.
    pub links_scanned: u64,
    /// Link visits a full scan would have performed.
    pub links_total: u64,
}

impl ScanStats {
    /// Fraction of node entries skipped (`0.0` when nothing ran).
    pub fn node_skip_rate(&self) -> f64 {
        if self.nodes_total == 0 {
            0.0
        } else {
            1.0 - self.nodes_scanned as f64 / self.nodes_total as f64
        }
    }

    /// Fraction of link entries skipped (`0.0` when nothing ran).
    pub fn link_skip_rate(&self) -> f64 {
        if self.links_total == 0 {
            0.0
        } else {
            1.0 - self.links_scanned as f64 / self.links_total as f64
        }
    }
}

/// One row of the per-function candidate index: a currently published
/// component providing the function, carrying everything ranked
/// selection reads to filter, prescreen and score it — 56 bytes, so
/// examining a candidate is one sequential row plus the system's
/// liveness flag, with no lookup into the board's or the system's
/// node- and dense-indexed tables.
///
/// `qos` and `available` are copies of board state (`component_qos`,
/// `node_available`), `max_rate_kbps` of the system's immutable
/// per-dense-id statics. The copies cannot drift: a row is
/// only ever written whole, by the publish that writes the originals
/// ([`GlobalStateBoard::new`] and the node's next publish, which
/// re-inserts every row of the node), and the audit compares the index
/// against [`GlobalStateBoard::rebuilt_index`], which re-derives every
/// field from the originals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// The component's QoS as of its node's last publish (identical to
    /// `component_qos_dense`).
    pub qos: Qos,
    /// The hosting node's availability as of that same publish
    /// (identical to [`GlobalStateBoard::node_available`]).
    pub available: ResourceVector,
    /// The component's interface rate limit (kbit/s).
    pub max_rate_kbps: f64,
    /// Dense component id. Selection checks
    /// [`StreamSystem::dense_is_retired`] on it to drop entries whose
    /// component crashed or migrated since the node's last publish.
    pub dense: u32,
    /// Hosting node.
    pub node: OverlayNodeId,
    /// Slot on the hosting node.
    pub slot: u16,
}

impl IndexEntry {
    /// The index sort key: ascending published delay, dense id as the
    /// deterministic tie-break. Ascending delay is what makes ranked
    /// selection's early exit sound — the accumulated-delay lower bound
    /// is nondecreasing along the walk.
    fn key(&self) -> (acp_simcore::SimDuration, u32) {
        (self.qos.delay, self.dense)
    }

    /// The row for dense id `dense`, published with `qos` from a node
    /// publishing `available`.
    fn publish(
        system: &StreamSystem,
        dense: DenseComponentId,
        qos: Qos,
        available: ResourceVector,
        node: OverlayNodeId,
        slot: u16,
    ) -> IndexEntry {
        IndexEntry {
            qos,
            available,
            max_rate_kbps: system.dense_max_rate_kbps(dense),
            dense: dense.0,
            node,
            slot,
        }
    }
}

/// Incremental per-function candidate index over the board's published
/// component QoS. Maintained on every publish (the same version-counter
/// driven moments that update `component_qos`), so ranked selection can
/// walk a function's candidates in ascending published-delay order and
/// stop early, instead of scanning the full discovery list per hop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateIndex {
    /// Indexed by `FunctionId.0`; each list sorted by
    /// [`IndexEntry::key`].
    by_function: Vec<Vec<IndexEntry>>,
}

impl CandidateIndex {
    /// Builds the index from rows in any order: one push per row into
    /// lists pre-sized from the discovery lists, then one sort per
    /// function. Keys are unique (the dense id), so the result is the
    /// one row-by-row [`Self::insert`] would give, without its O(k)
    /// memmove per row.
    fn bulk(system: &StreamSystem, rows: impl Iterator<Item = (FunctionId, IndexEntry)>) -> Self {
        let mut by_function: Vec<Vec<IndexEntry>> =
            system.registry().ids().map(|f| Vec::with_capacity(system.candidates(f).len())).collect();
        for (function, entry) in rows {
            by_function[function.0 as usize].push(entry);
        }
        for list in &mut by_function {
            list.sort_unstable_by_key(IndexEntry::key);
        }
        CandidateIndex { by_function }
    }

    /// Published candidates for `function`, sorted by ascending
    /// published delay (dense id tie-break).
    pub fn entries(&self, function: FunctionId) -> &[IndexEntry] {
        self.by_function.get(function.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total entries across all functions.
    pub fn len(&self) -> usize {
        self.by_function.iter().map(Vec::len).sum()
    }

    /// True when no function has any published candidate.
    pub fn is_empty(&self) -> bool {
        self.by_function.iter().all(Vec::is_empty)
    }

    fn insert(&mut self, function: FunctionId, entry: IndexEntry) {
        let list = &mut self.by_function[function.0 as usize];
        let at = list.partition_point(|e| e.key() < entry.key());
        list.insert(at, entry);
    }

    fn remove(&mut self, function: FunctionId, qos: Qos, dense: u32) {
        let list = &mut self.by_function[function.0 as usize];
        if let Ok(at) = list.binary_search_by_key(&(qos.delay, dense), IndexEntry::key) {
            list.remove(at);
        } else {
            debug_assert!(false, "index entry missing for dense id {dense}");
        }
    }
}

/// Coarse, possibly stale, global view of the system state.
#[derive(Debug, Clone)]
pub struct GlobalStateBoard {
    config: GlobalStateConfig,
    node_available: Vec<ResourceVector>,
    node_capacity: Vec<ResourceVector>,
    /// [`Self::congestion_estimate`]: the fold over `node_available`,
    /// redone whenever a node row is published.
    congestion: f64,
    /// Published component QoS, indexed by [`DenseComponentId`]. `None`
    /// for dense ids the board has not (or no longer) published.
    component_qos: Vec<Option<Qos>>,
    /// Per node: the published component list as `(slot, dense id)`
    /// pairs, mirroring the node's component list as of its last publish.
    published: Vec<Vec<(u16, u32)>>,
    /// Per-function ranked view of the published components, maintained
    /// incrementally alongside `component_qos` on every publish.
    index: CandidateIndex,
    link_available: Vec<f64>,
    link_capacity: Vec<f64>,
    /// Last [`StreamSystem::node_versions`] values this board compared
    /// against; unchanged counters mean a rescan would publish nothing.
    seen_node_versions: Vec<u64>,
    seen_link_versions: Vec<u64>,
    scan: ScanStats,
    aggregation_rounds: u64,
}

impl GlobalStateBoard {
    /// Builds the board with a full, fresh snapshot of `system` (the
    /// bootstrap dissemination is not counted as overhead).
    pub fn new(system: &StreamSystem, config: GlobalStateConfig) -> Self {
        let n = system.node_count();
        let mut node_available = Vec::with_capacity(n);
        let mut node_capacity = Vec::with_capacity(n);
        let mut component_qos = vec![None; system.dense_component_count()];
        let mut published = Vec::with_capacity(n);
        for v in system.overlay().nodes() {
            node_available.push(system.node_available(v));
            node_capacity.push(system.node(v).capacity());
            let mut list = Vec::new();
            for c in system.node(v).components() {
                let dense = system.dense_of(c.id).expect("live component has a dense id");
                component_qos[dense.index()] = Some(system.effective_component_qos(c.id));
                list.push((c.id.slot, dense.0));
            }
            published.push(list);
        }
        let link_available: Vec<f64> = system.overlay().links().map(|l| system.link_available(l)).collect();
        let link_capacity: Vec<f64> = system.overlay().links().map(|l| system.link_capacity(l)).collect();
        let mut board = GlobalStateBoard {
            config,
            node_available,
            node_capacity,
            congestion: 0.0,
            component_qos,
            published,
            index: CandidateIndex::default(),
            link_available,
            link_capacity,
            seen_node_versions: system.node_versions().to_vec(),
            seen_link_versions: system.link_versions().to_vec(),
            scan: ScanStats::default(),
            aggregation_rounds: 0,
        };
        board.index = board.rebuilt_index(system);
        board.congestion = board.fold_congestion();
        board
    }

    // ------------------------------------------------------------------
    // Coarse reads (what ACP's candidate selection consults)
    // ------------------------------------------------------------------

    /// Coarse resource availability of `v` as of its last published
    /// update.
    pub fn node_available(&self, v: OverlayNodeId) -> ResourceVector {
        self.node_available[v.index()]
    }

    /// Coarse QoS of component `c` as of its node's last published
    /// update. `None` for components the board does not list: unknown
    /// ids, and components that crashed or whose node failed, once the
    /// node's next update withdrew them.
    pub fn component_qos(&self, c: ComponentId) -> Option<Qos> {
        let list = self.published.get(c.node.index())?;
        let &(_, dense) = list.iter().find(|&&(slot, _)| slot == c.slot)?;
        self.component_qos[dense as usize]
    }

    /// Coarse QoS of the component with dense id `d` — the allocation-free
    /// hot-path lookup used by candidate selection.
    pub fn component_qos_dense(&self, d: DenseComponentId) -> Option<Qos> {
        self.component_qos[d.index()]
    }

    /// The incrementally maintained per-function candidate index —
    /// published candidates of `function` in ascending published-delay
    /// order. This is the ranked-selection entry point: O(α·k) walks
    /// with early exit instead of full discovery scans.
    pub fn candidate_entries(&self, function: FunctionId) -> &[IndexEntry] {
        self.index.entries(function)
    }

    /// The whole candidate index (tests / diagnostics).
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.index
    }

    /// From-scratch rebuild of the candidate index out of the published
    /// per-node lists — the oracle that incremental maintenance must
    /// match entry-for-entry (property-tested in `tests/properties.rs`).
    pub fn rebuilt_index(&self, system: &StreamSystem) -> CandidateIndex {
        CandidateIndex::bulk(system, self.published_rows(system))
    }

    /// Every published component's index row, re-derived from the
    /// board's own tables and the system's statics, in node order.
    fn published_rows<'a>(
        &'a self,
        system: &'a StreamSystem,
    ) -> impl Iterator<Item = (FunctionId, IndexEntry)> + 'a {
        self.published.iter().enumerate().flat_map(move |(i, list)| {
            list.iter().map(move |&(slot, dense)| {
                let qos = self.component_qos[dense as usize]
                    .expect("published list entries always carry a QoS");
                let dense = DenseComponentId(dense);
                let node = OverlayNodeId(i as u32);
                let entry = IndexEntry::publish(system, dense, qos, self.node_available[i], node, slot);
                (system.dense_function(dense), entry)
            })
        })
    }

    /// Coarse available bandwidth of overlay link `l`.
    pub fn link_available(&self, l: OverlayLinkId) -> f64 {
        self.link_available[l.index()]
    }

    /// Coarse available bandwidth of a virtual link: the bottleneck over
    /// the constituent overlay links' **coarse** availability
    /// (`ba^l = min(ba^e …)` computed by the aggregation node). `∞` for
    /// co-located paths.
    pub fn path_available(&self, path: &OverlayPath) -> f64 {
        path.links.iter().fold(f64::INFINITY, |acc, &l| acc.min(self.link_available(l)))
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Threshold-triggered node-state updates: each node compares its true
    /// state to the last published value and publishes (one message) when
    /// any resource dimension or component QoS metric moved more than
    /// `threshold × maximum`. Returns the number of update messages sent.
    pub fn refresh_nodes(&mut self, system: &StreamSystem) -> u64 {
        let versions = system.node_versions();
        let mut messages = 0;
        for v in system.overlay().nodes() {
            let i = v.index();
            self.scan.nodes_total += 1;
            if self.seen_node_versions[i] == versions[i] {
                // Unchanged since our last comparison ⇒ a rescan would
                // find exactly the state it already declined to publish.
                debug_assert!(!self.node_publish_significant(system, v), "skipped {v:?} would publish");
                continue;
            }
            self.scan.nodes_scanned += 1;
            self.seen_node_versions[i] = versions[i];
            if self.node_publish_significant(system, v) {
                self.apply_node_publish(system, v);
                messages += 1;
            }
        }
        if messages > 0 {
            self.congestion = self.fold_congestion();
        }
        messages
    }

    /// Whether node `v`'s true state has drifted past the publish
    /// threshold relative to the board (read-only; entry-local).
    fn node_publish_significant(&self, system: &StreamSystem, v: OverlayNodeId) -> bool {
        let i = v.index();
        let actual = system.node_available(v);
        let published = self.node_available[i];
        let cap = self.node_capacity[i];
        let significant = ResourceKind::ALL.iter().any(|&k| {
            let max = cap.get(k);
            max > 0.0 && (actual.get(k) - published.get(k)).abs() > self.config.threshold * max
        });
        if significant {
            return true;
        }
        // Component QoS variation check (delay metric vs its own
        // published value, relative to the published maximum). Every
        // component is deployed at generation, so a live one is always
        // on its node's published list.
        for comp in system.node(v).components() {
            let dense = system.dense_of(comp.id).expect("live component has a dense id");
            let published_q = self.component_qos[dense.index()].expect("live components are published");
            let actual_q = system.effective_component_qos(comp.id);
            let max = published_q.delay.as_secs_f64().max(actual_q.delay.as_secs_f64());
            if max > 0.0 {
                let delta = (actual_q.delay.as_secs_f64() - published_q.delay.as_secs_f64()).abs();
                if delta > self.config.threshold * max {
                    return true;
                }
            }
        }
        // Undeployment (a crash or a node failure) is also always
        // significant: the published list has entries the node no
        // longer hosts.
        self.published[i].len() != system.node(v).component_count()
    }

    /// Publishes node `v`'s full current state onto the board.
    fn apply_node_publish(&mut self, system: &StreamSystem, v: OverlayNodeId) {
        let i = v.index();
        let available = system.node_available(v);
        self.node_available[i] = available;
        // Re-publish this node's full component list; drop stale
        // entries for components that left the node. The candidate
        // index shadows `component_qos` and `node_available` exactly, so
        // each withdrawal / re-publish edits both: every row of the node
        // is re-inserted here, carrying the availability just written.
        for &(_, dense) in &self.published[i] {
            let old = self.component_qos[dense as usize]
                .take()
                .expect("published list entries always carry a QoS");
            let function = system.dense_function(DenseComponentId(dense));
            self.index.remove(function, old, dense);
        }
        self.published[i].clear();
        for comp in system.node(v).components() {
            let dense = system.dense_of(comp.id).expect("live component has a dense id");
            let qos = system.effective_component_qos(comp.id);
            self.component_qos[dense.index()] = Some(qos);
            self.index.insert(
                comp.function,
                IndexEntry::publish(system, dense, qos, available, v, comp.id.slot),
            );
            self.published[i].push((comp.id.slot, dense.0));
        }
    }

    /// Publishes the half of the coarse state a fault made stale (see
    /// [`StreamSystem::apply_fault`]): a node fault is the loudest
    /// possible state variation and is visible at once, a link fault
    /// runs an emergency aggregation round. Returns the messages sent.
    pub fn publish(&mut self, system: &StreamSystem, stale: Option<StaleState>) -> u64 {
        match stale {
            Some(StaleState::Nodes) => self.refresh_nodes(system),
            Some(StaleState::Links) => self.aggregate_links(system),
            None => 0,
        }
    }

    /// One virtual-link aggregation round (long interval, paper: 10 min):
    /// nodes report overlay links whose bandwidth moved beyond the
    /// threshold to the current aggregation node (one message per changed
    /// link), which then refreshes the global link states and publishes
    /// once. The paper rotates the aggregation role round-robin "for
    /// load sharing"; which node holds it changes no message count, so
    /// the board does not track it. Returns the number of messages.
    pub fn aggregate_links(&mut self, system: &StreamSystem) -> u64 {
        let versions = system.link_versions();
        let mut messages = 0;
        for l in system.overlay().links() {
            let i = l.index();
            self.scan.links_total += 1;
            if self.seen_link_versions[i] == versions[i] {
                debug_assert!(!self.link_report_changed(system, l), "skipped {l:?} would report");
                continue;
            }
            self.scan.links_scanned += 1;
            self.seen_link_versions[i] = versions[i];
            if self.link_report_changed(system, l) {
                self.link_available[i] = system.link_available(l);
                messages += 1; // report to the aggregation node
            }
        }
        messages += 1; // the aggregation node's global-state publish
        self.aggregation_rounds += 1;
        messages
    }

    /// Whether link `l`'s true bandwidth has drifted past the publish
    /// threshold relative to the board (read-only; entry-local).
    fn link_report_changed(&self, system: &StreamSystem, l: OverlayLinkId) -> bool {
        let i = l.index();
        let actual = system.link_available(l);
        let max = self.link_capacity[i];
        max > 0.0 && (actual - self.link_available[i]).abs() > self.config.threshold * max
    }

    /// Number of completed aggregation rounds.
    pub fn aggregation_rounds(&self) -> u64 {
        self.aggregation_rounds
    }

    /// The configured publish threshold.
    pub fn config(&self) -> &GlobalStateConfig {
        &self.config
    }

    /// Cumulative scan-effort counters (entries visited vs. a full scan's
    /// visit count) since construction.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// A φ-style congestion estimate in `[0, 1]` derived from the board's
    /// *published* residual state: the mean over nodes of each node's
    /// worst-dimension resource utilisation `1 − available_k / capacity_k`.
    /// Coarse by construction (the board is stale between refreshes) —
    /// exactly the signal an admission controller at the composition entry
    /// point can afford to consult per request without touching ground
    /// truth. A read is a field load: the mean is folded again only when
    /// a node row is published.
    pub fn congestion_estimate(&self) -> f64 {
        self.congestion
    }

    /// The congestion estimate from scratch, over the nodes in order.
    fn fold_congestion(&self) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for (avail, cap) in self.node_available.iter().zip(&self.node_capacity) {
            let mut worst = 0.0f64;
            let mut has_capacity = false;
            for (kind, capacity) in cap.iter() {
                if capacity > 0.0 {
                    has_capacity = true;
                    let used = (capacity - avail.get(kind)).max(0.0);
                    worst = worst.max((used / capacity).min(1.0));
                }
            }
            if has_capacity {
                total += worst;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    /// Structural-coherence audit of the board against `system`.
    ///
    /// The board is stale **by design**, so published values differing
    /// from ground truth are fine. What must hold regardless of
    /// staleness: the board's tables are sized to the system, every
    /// published `(slot, dense)` pair references a dense id the system
    /// has issued, no dense id is published by two nodes, every stored
    /// component QoS is reachable through some published list, and the
    /// seen version counters never run ahead of the system's (counters
    /// only grow).
    pub fn audit_against(&self, system: &StreamSystem) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        let mut push = |detail: String| out.push(AuditViolation::ViewIncoherent { detail });
        if self.node_available.len() != system.node_count() {
            push(format!(
                "board tracks {} nodes but the system has {}",
                self.node_available.len(),
                system.node_count()
            ));
        }
        if self.link_available.len() != system.overlay().link_count() {
            push(format!(
                "board tracks {} links but the system has {}",
                self.link_available.len(),
                system.overlay().link_count()
            ));
        }
        let dense_limit = system.dense_component_count();
        let mut dense_ids_valid = true;
        let mut referenced = vec![false; self.component_qos.len()];
        for (i, list) in self.published.iter().enumerate() {
            for &(slot, dense) in list {
                if (dense as usize) >= dense_limit {
                    push(format!("node v{i} publishes slot {slot} with unissued dense id {dense}"));
                    dense_ids_valid = false;
                } else if (dense as usize) >= referenced.len() {
                    push(format!("node v{i} publishes dense id {dense} beyond the QoS store"));
                    dense_ids_valid = false;
                } else if referenced[dense as usize] {
                    push(format!("dense id {dense} published by two nodes"));
                } else {
                    referenced[dense as usize] = true;
                }
            }
        }
        for (d, qos) in self.component_qos.iter().enumerate() {
            if qos.is_some() && !referenced.get(d).copied().unwrap_or(false) {
                push(format!("orphan QoS entry for dense id {d} (no node publishes it)"));
            }
        }
        // The candidate index must be exactly the resorted view of the
        // published lists — no extra, missing, or stale entries. (Only
        // checkable when the published dense ids resolve in `system`;
        // otherwise the violations above already tell the story.)
        if dense_ids_valid && self.index != self.rebuilt_index(system) {
            push("candidate index diverges from published component state".to_string());
        }
        for (i, (&seen, &current)) in
            self.seen_node_versions.iter().zip(system.node_versions()).enumerate()
        {
            if seen > current {
                push(format!("node v{i} seen-version {seen} ahead of system {current}"));
            }
        }
        for (i, (&seen, &current)) in
            self.seen_link_versions.iter().zip(system.link_versions()).enumerate()
        {
            if seen > current {
                push(format!("link {i} seen-version {seen} ahead of system {current}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(21);
        let ip = InetConfig { nodes: 150, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 20, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    /// Commits one or more sessions on the first two hosted functions;
    /// returns the loaded node. `heavy` allocates well past the 10 %
    /// publish threshold; otherwise the allocation is negligible.
    fn load_some_node(sys: &mut StreamSystem, req_id: u64, heavy: bool) -> OverlayNodeId {
        let fns: Vec<FunctionId> = sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        let c0 = sys.candidates(fns[0])[0];
        let c1 = sys.candidates(fns[1])[0];
        // Heavy: each session takes ~15 % of the tighter hosting node's
        // capacity, so two sessions move ~30 % — decisively past the 10 %
        // publish threshold while still fitting.
        let base = if heavy {
            let f0 = sys.registry().profile(fns[0]).demand_factor;
            let f1 = sys.registry().profile(fns[1]).demand_factor;
            let cap0 = sys.node(c0.node).capacity();
            let cap1 = sys.node(c1.node).capacity();
            ResourceVector::new(
                0.15 * (cap0.cpu / f0).min(cap1.cpu / f1),
                0.15 * (cap0.memory_mb / f0).min(cap1.memory_mb / f1),
            )
        } else {
            ResourceVector::new(0.01, 0.05)
        };
        let sessions = if heavy { 2 } else { 1 };
        for s in 0..sessions {
            let graph = FunctionGraph::path(vec![fns[0], fns[1]]);
            let req = Request {
                id: RequestId(req_id * 100 + s),
                graph,
                qos: QosRequirement::unconstrained(),
                base_resources: base,
                bandwidth_kbps: 1.0,
                stream_rate_kbps: 1.0,
                tenant: None,
            };
            let path = sys.virtual_path(c0.node, c1.node).unwrap();
            let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
            sys.commit_session(&req, comp).expect("commit");
        }
        c0.node
    }

    #[test]
    fn initial_snapshot_matches_ground_truth() {
        let sys = build();
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        for v in sys.overlay().nodes() {
            assert_eq!(board.node_available(v), sys.node_available(v));
        }
        for l in sys.overlay().links() {
            assert_eq!(board.link_available(l), sys.link_available(l));
        }
    }

    #[test]
    fn small_changes_are_filtered_out() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let node = load_some_node(&mut sys, 1, false); // tiny allocation
        let msgs = board.refresh_nodes(&sys);
        assert_eq!(msgs, 0, "sub-threshold variation must not publish");
        // Board stays stale.
        assert_ne!(board.node_available(node), sys.node_available(node));
    }

    #[test]
    fn large_changes_trigger_update() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let node = load_some_node(&mut sys, 1, true); // heavy allocation
        let msgs = board.refresh_nodes(&sys);
        assert!(msgs >= 1, "above-threshold variation publishes");
        assert_eq!(board.node_available(node), sys.node_available(node));
    }

    #[test]
    fn repeated_refresh_is_quiescent() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        load_some_node(&mut sys, 1, true);
        board.refresh_nodes(&sys);
        // No further changes → no further messages.
        assert_eq!(board.refresh_nodes(&sys), 0);
    }

    /// The stored congestion estimate is a fresh fold's bits after every
    /// write to the published rows: a refresh that publishes, one that
    /// publishes nothing, and a node fault published at once.
    #[test]
    fn congestion_estimate_is_kept_with_the_rows() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let kept = |board: &GlobalStateBoard| {
            assert_eq!(board.congestion_estimate().to_bits(), board.fold_congestion().to_bits());
            board.congestion_estimate()
        };
        let idle = kept(&board);
        load_some_node(&mut sys, 1, true);
        assert!(board.refresh_nodes(&sys) >= 1);
        let loaded = kept(&board);
        assert!(loaded > idle, "a heavy load raises the estimate: {idle} -> {loaded}");
        load_some_node(&mut sys, 2, false);
        assert_eq!(board.refresh_nodes(&sys), 0);
        assert_eq!(kept(&board), loaded, "nothing published, nothing moved");
        let fault = acp_simcore::FaultKind::NodeFail { node: 3 };
        let outcome = sys.apply_fault(fault, RepairPolicy::Terminate, acp_simcore::SimTime::ZERO);
        assert!(board.publish(&sys, outcome.stale) >= 1);
        assert_ne!(kept(&board), loaded, "a failed node counts as saturated");
    }

    #[test]
    fn aggregation_counts_messages_and_rounds() {
        let sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let msgs = board.aggregate_links(&sys);
        assert_eq!(msgs, 1, "no link changed → only the publish message");
        assert_eq!(board.aggregation_rounds(), 1);
    }

    #[test]
    fn path_available_uses_coarse_values() {
        let mut sys = build();
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let a = OverlayNodeId(0);
        let b = OverlayNodeId(1);
        let path = sys.virtual_path(a, b).unwrap();
        if !path.is_colocated() {
            let expect: f64 =
                path.links.iter().fold(f64::INFINITY, |acc, &l| acc.min(board.link_available(l)));
            assert_eq!(board.path_available(&path), expect);
        }
        let colocated = acp_topology::OverlayPath::colocated(a);
        assert_eq!(board.path_available(&colocated), f64::INFINITY);
    }

    #[test]
    fn zero_threshold_publishes_everything() {
        let mut sys = build();
        let mut board =
            GlobalStateBoard::new(&sys, GlobalStateConfig { threshold: 0.0 });
        load_some_node(&mut sys, 1, false);
        let msgs = board.refresh_nodes(&sys);
        assert!(msgs >= 1, "zero threshold behaves like precise maintenance");
    }

    #[test]
    fn board_audit_clean_through_updates() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        assert!(board.audit_against(&sys).is_empty());
        for round in 0..3u64 {
            load_some_node(&mut sys, round + 1, round == 0);
            board.refresh_nodes(&sys);
            board.aggregate_links(&sys);
            let violations = board.audit_against(&sys);
            assert!(violations.is_empty(), "round {round}: {violations:?}");
        }
        // Staleness alone is not a violation: mutate without refreshing.
        load_some_node(&mut sys, 9, false);
        assert!(board.audit_against(&sys).is_empty());
    }

    #[test]
    fn board_audit_flags_foreign_system() {
        let sys = build();
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        let ip = InetConfig { nodes: 150, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 12, neighbors: 3 }, &mut rng);
        let other =
            StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng);
        let violations = board.audit_against(&other);
        assert!(
            violations.iter().any(|v| matches!(v, AuditViolation::ViewIncoherent { .. })),
            "{violations:?}"
        );
    }

    /// The index the published rows give when inserted one by one — the
    /// pre-bulk construction, kept as the oracle for [`CandidateIndex::bulk`].
    fn incrementally_built(board: &GlobalStateBoard, sys: &StreamSystem) -> CandidateIndex {
        let mut index = CandidateIndex { by_function: vec![Vec::new(); sys.registry().len()] };
        for (function, entry) in board.published_rows(sys) {
            index.insert(function, entry);
        }
        index
    }

    /// Every row's copies equal the tables they were copied from.
    fn assert_rows_self_contained(board: &GlobalStateBoard, sys: &StreamSystem) {
        for f in sys.registry().ids() {
            for e in board.candidate_entries(f) {
                let dense = DenseComponentId(e.dense);
                assert_eq!(board.component_qos_dense(dense), Some(e.qos), "index shadows the QoS store");
                assert_eq!(e.available, board.node_available(e.node), "row carries its node's publish");
                assert_eq!(e.max_rate_kbps, sys.dense_max_rate_kbps(dense));
                assert_eq!(sys.dense_function(dense), f);
            }
        }
    }

    #[test]
    fn index_row_is_56_bytes() {
        assert_eq!(std::mem::size_of::<IndexEntry>(), 56);
    }

    #[test]
    fn candidate_index_tracks_publish_and_churn() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        assert_eq!(board.candidate_index(), &board.rebuilt_index(&sys), "fresh board coherent");
        assert_eq!(board.candidate_index(), &incrementally_built(&board, &sys), "bulk = row by row");
        // Entries are sorted by published delay and mirror the tables
        // they copy.
        for f in sys.registry().ids() {
            for w in board.candidate_entries(f).windows(2) {
                assert!((w[0].qos.delay, w[0].dense) < (w[1].qos.delay, w[1].dense));
            }
        }
        assert_rows_self_contained(&board, &sys);
        let total: usize = sys.registry().ids().map(|f| board.candidate_entries(f).len()).sum();
        assert_eq!(total, sys.dense_component_count(), "every component indexed at bootstrap");
        // Churn: load (QoS republish), then fail a node (withdrawals) —
        // the index stays the resorted view.
        load_some_node(&mut sys, 1, true);
        board.refresh_nodes(&sys);
        assert_eq!(board.candidate_index(), &board.rebuilt_index(&sys), "after republish");
        assert_rows_self_contained(&board, &sys);
        let failed = OverlayNodeId(3);
        sys.fail_node(failed, RepairPolicy::Terminate, acp_simcore::SimTime::ZERO);
        board.refresh_nodes(&sys);
        assert_eq!(board.candidate_index(), &board.rebuilt_index(&sys), "after failure");
        assert_eq!(board.candidate_index(), &incrementally_built(&board, &sys), "bulk = row by row");
        assert_rows_self_contained(&board, &sys);
        assert!(
            sys.registry()
                .ids()
                .all(|f| board.candidate_entries(f).iter().all(|e| e.node != failed)),
            "failed node's candidates withdrawn"
        );
        assert!(board.audit_against(&sys).is_empty());
    }

    /// Load, transient expiry and a link failure, refreshed and
    /// aggregated after each: every skipped node and link is checked in
    /// place (debug builds) to be one a visit would not have published,
    /// and untouched entries are skipped.
    #[test]
    fn version_skip_holds_in_place_and_skips_untouched_entries() {
        let mut sys = build();
        let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        for round in 0..4u64 {
            load_some_node(&mut sys, round + 1, round % 2 == 0);
            if round == 2 {
                sys.expire_transients(acp_simcore::SimTime::ZERO);
            }
            if round == 3 {
                let fault = acp_simcore::FaultKind::LinkFail { link: 0 };
                sys.apply_fault(fault, RepairPolicy::Terminate, acp_simcore::SimTime::ZERO);
            }
            board.refresh_nodes(&sys);
            assert_eq!(board.aggregate_links(&sys) > 1, round == 3, "only the failed link reports");
            for v in sys.overlay().nodes() {
                for c in sys.node(v).components() {
                    let dense = sys.dense_of(c.id).expect("dense");
                    assert_eq!(board.component_qos(c.id), board.component_qos_dense(dense));
                }
            }
        }
        let scan = board.scan_stats();
        assert!(scan.nodes_scanned < scan.nodes_total, "untouched nodes are skipped: {scan:?}");
        assert!(scan.links_scanned < scan.links_total, "untouched links are skipped: {scan:?}");
    }
}
