//! The distributed stream-processing system: nodes, components, links,
//! service discovery, and the allocation engine.
//!
//! [`StreamSystem`] is the ground truth every composition algorithm acts
//! on. It owns the overlay, the per-node resource bookkeeping, per-link
//! bandwidth bookkeeping, the function→components discovery index, and the
//! session table of the middleware's `Find`/`Process`/`Close` interface.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use acp_topology::{Overlay, OverlayLinkId, OverlayNodeId, OverlayPath, SharedPath};
use rand::Rng;

use crate::component::{Component, ComponentId, DenseComponentId};
use crate::composition::Composition;
use crate::function::{FunctionId, FunctionRegistry};
use crate::lease::{LeaseDirectory, LeaseStats, LinkTransient};
use crate::node::StreamNode;
use crate::qos::Qos;
use crate::repair::RepairLedger;
use crate::request::{Request, RequestId};
use crate::resources::ResourceVector;
use crate::tenant::{SessionCloseCause, TenantBinding, TenantId, TenantLedger, TenantTier};

/// Identifier of an established stream-processing session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// Bandwidth bookkeeping for one overlay link.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    /// Current capacity — `nominal_kbps` scaled down while degraded,
    /// unchanged by failure (failure zeroes *availability*, not the
    /// threshold base).
    pub(crate) capacity_kbps: f64,
    /// Capacity as built from the overlay (restore target).
    pub(crate) nominal_kbps: f64,
    pub(crate) committed_kbps: f64,
    pub(crate) transient: Vec<LinkTransient>,
    /// Bandwidth fail-stop: the link stays routable but carries nothing.
    pub(crate) failed: bool,
}

impl LinkState {
    fn transient_total(&self) -> f64 {
        self.transient.iter().map(|t| t.kbps).sum()
    }

    pub(crate) fn available(&self) -> f64 {
        if self.failed {
            return 0.0;
        }
        (self.capacity_kbps - self.committed_kbps - self.transient_total()).max(0.0)
    }

    /// Drops the leases `doomed` names, keeping the rest in order.
    /// Returns how many went.
    pub(crate) fn drop_leases(&mut self, doomed: impl Fn(&LinkTransient) -> bool) -> usize {
        let before = self.transient.len();
        self.transient.retain(|t| !doomed(t));
        before - self.transient.len()
    }
}

/// A confirmed session's allocations, remembered for teardown and
/// failover recomposition.
#[derive(Debug, Clone)]
pub struct Session {
    /// Session identity.
    pub id: SessionId,
    /// The request this session serves (kept whole so failed sessions
    /// can be recomposed).
    pub request_spec: Request,
    /// The chosen composition.
    pub composition: Composition,
    pub(crate) node_allocs: Vec<(OverlayNodeId, ResourceVector)>,
    pub(crate) link_allocs: Vec<(OverlayLinkId, f64)>,
    /// Broken-segment vertex span `(lo, hi)` (inclusive) while the
    /// session is degraded awaiting repair; `None` when healthy. The
    /// span's commitments were released at fault time; `assignment` and
    /// `links` entries inside it are stale until the splice rewrites
    /// them.
    pub(crate) broken: Option<(usize, usize)>,
}

impl Session {
    /// The session's committed end-system allocations, grouped per node.
    /// The system-wide sum of these must equal each node's committed
    /// resources — the conservation invariant the auditor checks.
    pub(crate) fn node_allocations(&self) -> &[(OverlayNodeId, ResourceVector)] {
        &self.node_allocs
    }

    /// The session's committed bandwidth, grouped per overlay link.
    pub fn link_allocations(&self) -> &[(OverlayLinkId, f64)] {
        &self.link_allocs
    }

    /// True when the session's composition routes any stream over `l`.
    pub fn uses_link(&self, l: OverlayLinkId) -> bool {
        self.link_allocs.iter().any(|&(link, _)| link == l)
    }

    /// The degraded session's broken vertex span (inclusive), `None`
    /// when healthy.
    pub fn broken_span(&self) -> Option<(usize, usize)> {
        self.broken
    }

    /// True while a fault has broken part of this session and repair is
    /// pending.
    pub fn is_degraded(&self) -> bool {
        self.broken.is_some()
    }

    /// True when graph edge `e` touches the broken span (either
    /// endpoint). Such an edge's committed bandwidth was released at
    /// degrade time and its cached path is stale until the splice.
    pub(crate) fn edge_is_broken(&self, e: usize) -> bool {
        match self.broken {
            Some((lo, hi)) => e + 1 >= lo && e <= hi,
            None => false,
        }
    }

    /// True when vertex `v` lies in the broken span.
    pub(crate) fn vertex_is_broken(&self, v: usize) -> bool {
        matches!(self.broken, Some((lo, hi)) if v >= lo && v <= hi)
    }
}

/// Arena of live sessions. External [`SessionId`]s stay
/// strictly monotonic (session digests, newest-first eviction, and
/// failover ordering all key off them); internally a LIFO free list
/// recycles slots, so million-session churn reuses a compact,
/// cache-warm region instead of rehashing a map. `slot_of` maps
/// `SessionId.0 → slot` for O(1) lookup of any live id, as a window
/// over `[oldest live id, next_id)`: storage follows the live id span,
/// not the number of sessions ever opened.
///
/// Two side tables serve questions that would otherwise walk every
/// session: a live count per request id, and the log of ids handed out
/// by [`Self::get_mut`] — the only way to change a live session — which
/// the incremental auditor drains.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionArena {
    /// Slot storage; vacant slots hold `None` and sit on `free`.
    slots: Vec<Option<Session>>,
    /// LIFO free list of vacant slot indices.
    free: Vec<u32>,
    /// Indexed by `SessionId.0 - base_id`; `u32::MAX` marks closed
    /// sessions. The front entry is always live: `remove` trims the
    /// closed prefix, so `base_id + slot_of.len() == next_id`.
    slot_of: VecDeque<u32>,
    /// The id `slot_of[0]` stands for; every id below it is closed.
    base_id: u64,
    /// Monotonic id allocator (never reused).
    next_id: u64,
    live: usize,
    /// Live sessions per request id, built by the first
    /// [`Self::holds_request`] and kept from then on: a run that never
    /// asks pays nothing. A count, not a flag: two live sessions can
    /// share a request id (the auditor flags that as a double commit),
    /// and closing one must not hide the other.
    per_request: Option<HashMap<u64, u32>>,
    /// Ids handed out by [`Self::get_mut`] since the last drain.
    mutated: Vec<SessionId>,
}

impl SessionArena {
    fn insert(&mut self, make: impl FnOnce(SessionId) -> Session) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let session = make(id);
        if let Some(counts) = &mut self.per_request {
            *counts.entry(session.request_spec.id.0).or_insert(0) += 1;
        }
        self.slots[slot as usize] = Some(session);
        debug_assert_eq!(self.base_id + self.slot_of.len() as u64, id.0, "ids are dense");
        self.slot_of.push_back(slot);
        self.live += 1;
        id
    }

    /// The slot holding live session `id`; `None` for closed (below the
    /// window or tombstoned inside it) and never-issued ids.
    fn slot_index(&self, id: SessionId) -> Option<usize> {
        let offset = usize::try_from(id.0.checked_sub(self.base_id)?).ok()?;
        let slot = *self.slot_of.get(offset)?;
        (slot != u32::MAX).then_some(slot as usize)
    }

    pub(crate) fn remove(&mut self, id: SessionId) -> Option<Session> {
        let slot = self.slot_index(id)?;
        let session = self.slots[slot].take().expect("live slot");
        self.slot_of[(id.0 - self.base_id) as usize] = u32::MAX;
        while self.slot_of.front() == Some(&u32::MAX) {
            self.slot_of.pop_front();
            self.base_id += 1;
        }
        self.free.push(slot as u32);
        self.live -= 1;
        if let Some(Entry::Occupied(mut count)) = self.per_request.as_mut().map(|c| c.entry(session.request_spec.id.0)) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        Some(session)
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<&Session> {
        self.slots[self.slot_index(id)?].as_ref()
    }

    /// The one mutable accessor of a live session; logs `id` for
    /// [`Self::drain_mutated`]. A caller must not change the session's
    /// request id, which [`Self::holds_request`] counts by.
    pub(crate) fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        let slot = self.slot_index(id)?;
        self.mutated.push(id);
        self.slots[slot].as_mut()
    }

    /// Moves the ids [`Self::get_mut`] handed out since the last drain
    /// into `into` (cleared first), in call order, repeats included.
    pub(crate) fn drain_mutated(&mut self, into: &mut Vec<SessionId>) {
        into.clear();
        into.append(&mut self.mutated);
    }

    /// True when some live session serves `request`.
    pub(crate) fn holds_request(&mut self, request: RequestId) -> bool {
        if self.per_request.is_none() {
            let mut counts = HashMap::new();
            for s in self.iter() {
                *counts.entry(s.request_spec.id.0).or_insert(0) += 1;
            }
            self.per_request = Some(counts);
        }
        self.per_request.as_ref().is_some_and(|counts| counts.contains_key(&request.0))
    }

    /// The id the next session will get: every id below it was issued.
    pub(crate) fn next_id(&self) -> SessionId {
        SessionId(self.next_id)
    }

    /// The live session ids from `first` on, ascending, read off the id
    /// window without touching a session.
    pub(crate) fn ids_from(&self, first: SessionId) -> impl Iterator<Item = SessionId> + '_ {
        let skip = first.0.saturating_sub(self.base_id).min(self.slot_of.len() as u64) as usize;
        let base = self.base_id + skip as u64;
        self.slot_of
            .range(skip..)
            .enumerate()
            .filter(|&(_, &slot)| slot != u32::MAX)
            .map(move |(offset, _)| SessionId(base + offset as u64))
    }

    /// Iterates live sessions in slot order — deterministic (slot
    /// assignment is a pure function of the insert/remove history), but
    /// **not** id order; [`Self::iter_by_id`] gives id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Session> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates live sessions in ascending id order: the `slot_of`
    /// window front to back, tombstones skipped.
    pub(crate) fn iter_by_id(&self) -> impl Iterator<Item = &Session> {
        self.slot_of
            .iter()
            .filter(|&&slot| slot != u32::MAX)
            .map(|&slot| self.slots[slot as usize].as_ref().expect("live slot"))
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Struct-of-arrays side tables for component statics, indexed by
/// [`DenseComponentId`] (filled at generation: tombstoned ids keep their
/// rows).
/// The per-hop candidate filter reads exactly these two fields for
/// every discovered candidate; flat arrays keep that scan inside a few
/// cache lines per candidate instead of chasing node → slot →
/// `Component` pointers across the heap.
#[derive(Debug, Clone, Default)]
struct DenseStatics {
    function: Vec<FunctionId>,
    max_rate_kbps: Vec<f64>,
}

impl DenseStatics {
    fn push(&mut self, c: &Component) {
        self.function.push(c.function);
        self.max_rate_kbps.push(c.max_input_rate_kbps);
    }
}

/// Parameters for synthetic system generation (paper §4.1: initial
/// capacities "uniformly distributed within certain range").
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Components hosted per node, inclusive range.
    pub components_per_node: (usize, usize),
    /// Node CPU capacity range (units).
    pub node_cpu: (f64, f64),
    /// Node memory capacity range (MB).
    pub node_memory_mb: (f64, f64),
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            components_per_node: (3, 6),
            node_cpu: (60.0, 120.0),
            node_memory_mb: (512.0, 2048.0),
        }
    }
}

/// Component interface limit range (kbit/s).
const COMPONENT_MAX_RATE_KBPS: (f64, f64) = (600.0, 2_000.0);

/// Load sensitivity of component processing delay. The effective delay
/// follows an M/M/1-style queueing curve: `base · (1 + factor · u/(1−u))`,
/// capped at 10× — negligible on lightly loaded nodes, explosive near
/// saturation. This makes component QoS state dynamic (so coarse-grain
/// updates matter) and punishes placement decisions that skew load.
const LOAD_DELAY_FACTOR: f64 = 2.0;

/// The range of the retired security-level draw (see
/// [`skip_retired_attribute_draws`]).
const SECURITY_LEVELS: (u8, u8) = (0, 4);

/// The weights of the retired licence-class draw, `[permissive,
/// commercial, restricted]`; only their sum is still drawn against.
const LICENSE_WEIGHTS: [f64; 3] = [0.6, 0.25, 0.15];

/// The distributed stream-processing system.
#[derive(Clone)]
pub struct StreamSystem {
    pub(crate) registry: FunctionRegistry,
    pub(crate) overlay: Overlay,
    pub(crate) nodes: Vec<StreamNode>,
    pub(crate) links: Vec<LinkState>,
    /// Function → live candidate components, indexed by `FunctionId.0`
    /// (the registry's ids are dense), in node/slot discovery order.
    pub(crate) discovery: Vec<Vec<ComponentId>>,
    pub(crate) sessions: SessionArena,
    /// Component statics in struct-of-arrays layout, keyed by dense id.
    statics: DenseStatics,
    /// Per-node change counters: bumped on every mutation observable
    /// through [`Self::node_available`] / the node's component list
    /// (admission, teardown, transients, failure). Incremental
    /// state maintenance skips nodes whose counter it has already seen.
    pub(crate) node_versions: Vec<u64>,
    /// Per-link change counters, mirroring `node_versions` for bandwidth.
    pub(crate) link_versions: Vec<u64>,
    /// Per node, per slot: the slot's [`DenseComponentId`] value, or
    /// `u32::MAX` for tombstones. Every dense id is issued when the
    /// system is generated; faults only retire them.
    dense_ids: Vec<Vec<u32>>,
    /// Per dense id: true once the id is tombstoned in `dense_ids`.
    /// Dense ids are never reused and never move, so this is the flat
    /// form of `dense_of(cid) != Some(dense)` for the `cid` the id was
    /// issued to. Written only by [`Self::retire_dense`].
    dense_retired: Vec<bool>,
    /// Where transient leases live; maintained by `crate::lease`, which
    /// also owns every operation on the three lease fields.
    pub(crate) leases: LeaseDirectory,
    /// Every lease placed and settled, always kept: a counter add beside
    /// each reservation the system makes anyway.
    pub(crate) lease_stats: LeaseStats,
    /// Per-tenant books, touched only by requests that carry a
    /// [`TenantBinding`]; empty for tenant-less workloads.
    pub(crate) tenant_ledger: TenantLedger,
    /// Repair tickets, opened only by degrading a session under
    /// [`crate::repair::RepairPolicy::Repair`] or by a restart driver;
    /// without a ticket every ledger operation is a no-op.
    pub(crate) repair_ledger: RepairLedger,
    /// Per overlay link, how many live partitions hold it down; owned by
    /// `crate::faults` and empty until the first partition lands.
    pub(crate) partition_refs: Vec<u32>,
}

impl std::fmt::Debug for StreamSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSystem")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("functions", &self.registry.len())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

/// Why a composition could not be admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The composition does not structurally match the request graph.
    MalformedComposition,
    /// A component serves the wrong function for its vertex.
    WrongFunction {
        /// Vertex whose assignment is wrong.
        vertex: usize,
    },
    /// A component's interface cannot accept the request's stream rate.
    RateIncompatible {
        /// Vertex whose component rejects the rate.
        vertex: usize,
    },
    /// End-to-end QoS requirement violated (Eq. 3).
    QosViolated,
    /// A node lacks end-system resources (Eq. 4).
    InsufficientResources {
        /// The overloaded node.
        node: OverlayNodeId,
    },
    /// An overlay link lacks bandwidth (Eq. 5).
    InsufficientBandwidth {
        /// The saturated link.
        link: OverlayLinkId,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::MalformedComposition => write!(f, "composition shape does not match request graph"),
            AdmissionError::WrongFunction { vertex } => write!(f, "vertex {vertex} assigned a component of the wrong function"),
            AdmissionError::RateIncompatible { vertex } => write!(f, "vertex {vertex} component cannot accept the stream rate"),
            AdmissionError::QosViolated => write!(f, "end-to-end QoS requirement violated"),
            AdmissionError::InsufficientResources { node } => write!(f, "insufficient resources on {node}"),
            AdmissionError::InsufficientBandwidth { link } => write!(f, "insufficient bandwidth on overlay link {}", link.0),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl StreamSystem {
    /// Generates a system over `overlay`: every node receives a uniform
    /// capacity and a uniform number of components with functions drawn
    /// from `registry`; the discovery index is built as the (perfect)
    /// decentralized service-discovery substitute.
    pub fn generate<R: Rng + ?Sized>(
        overlay: Overlay,
        registry: FunctionRegistry,
        config: &SystemConfig,
        rng: &mut R,
    ) -> Self {
        let mut nodes = Vec::with_capacity(overlay.node_count());
        let mut discovery: Vec<Vec<ComponentId>> = vec![Vec::new(); registry.len()];
        let mut statics = DenseStatics::default();

        for v in overlay.nodes() {
            let capacity = ResourceVector::new(
                sample_range(rng, config.node_cpu),
                sample_range(rng, config.node_memory_mb),
            );
            let count = rng.gen_range(config.components_per_node.0..=config.components_per_node.1);
            // Distinct functions per node: a node never hosts the same
            // function twice.
            let mut fns: Vec<FunctionId> = registry.ids().collect();
            partial_shuffle(&mut fns, count, rng);
            let components: Vec<Component> = fns
                .into_iter()
                .take(count)
                .enumerate()
                .map(|(slot, function)| {
                    let id = ComponentId::new(v, slot as u16);
                    let qos = registry.profile(function).sample_component_qos(rng);
                    let max_rate = sample_range(rng, COMPONENT_MAX_RATE_KBPS);
                    skip_retired_attribute_draws(rng);
                    discovery[function.0 as usize].push(id);
                    let c = Component { id, function, qos, max_input_rate_kbps: max_rate };
                    // Components are created in node/slot order — exactly
                    // the order dense ids are assigned below — so the
                    // statics rows line up with the dense index.
                    statics.push(&c);
                    c
                })
                .collect();
            nodes.push(StreamNode::new(v, capacity, components));
        }

        let links: Vec<LinkState> = overlay
            .links()
            .map(|l| {
                let kbps = overlay.link_props(l).bandwidth_kbps;
                LinkState {
                    capacity_kbps: kbps,
                    nominal_kbps: kbps,
                    committed_kbps: 0.0,
                    transient: Vec::new(),
                    failed: false,
                }
            })
            .collect();

        let mut dense_count = 0u32;
        let dense_ids: Vec<Vec<u32>> = nodes
            .iter()
            .map(|node| {
                (0..node.component_count())
                    .map(|_| {
                        let d = dense_count;
                        dense_count += 1;
                        d
                    })
                    .collect()
            })
            .collect();

        StreamSystem {
            registry,
            node_versions: vec![0; nodes.len()],
            link_versions: vec![0; links.len()],
            leases: LeaseDirectory::new(nodes.len(), links.len()),
            dense_ids,
            dense_retired: vec![false; dense_count as usize],
            overlay,
            nodes,
            links,
            discovery,
            sessions: SessionArena::default(),
            statics,
            lease_stats: LeaseStats::default(),
            tenant_ledger: TenantLedger::default(),
            repair_ledger: RepairLedger::default(),
            partition_refs: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Change tracking and dense component indices
    // ------------------------------------------------------------------

    /// Per-node change counters. A node's counter is bumped by every
    /// mutation observable through [`Self::node_available`],
    /// [`Self::effective_component_qos`], or its component list, so a
    /// consumer holding a previously seen counter value may skip the node
    /// entirely: its state is bit-identical to the last look.
    pub fn node_versions(&self) -> &[u64] {
        &self.node_versions
    }

    /// Per-link change counters; see [`Self::node_versions`].
    pub fn link_versions(&self) -> &[u64] {
        &self.link_versions
    }

    /// Total dense component ids ever assigned (live + tombstoned), all
    /// of them at generation. Dense-indexed side tables size themselves
    /// by this.
    pub fn dense_component_count(&self) -> usize {
        self.dense_retired.len()
    }

    /// The dense index of a live component, or `None` for unknown /
    /// undeployed ids.
    pub fn dense_of(&self, id: ComponentId) -> Option<DenseComponentId> {
        self.dense_ids
            .get(id.node.index())?
            .get(id.slot as usize)
            .copied()
            .filter(|&d| d != u32::MAX)
            .map(DenseComponentId)
    }

    /// True once dense id `d` has been retired (its component crashed
    /// or its node failed) — equivalent to
    /// `dense_of(cid) != Some(d)` for the component id `d` was issued
    /// to, in one flat load.
    #[inline]
    pub fn dense_is_retired(&self, d: DenseComponentId) -> bool {
        self.dense_retired[d.index()]
    }

    /// Tombstones live component `id`'s slot and retires its dense id.
    pub(crate) fn retire_dense(&mut self, id: ComponentId) {
        let d = std::mem::replace(&mut self.dense_ids[id.node.index()][id.slot as usize], u32::MAX);
        self.dense_retired[d as usize] = true;
    }

    #[inline]
    pub(crate) fn touch_node(&mut self, v: OverlayNodeId) {
        self.node_versions[v.index()] += 1;
    }

    #[inline]
    pub(crate) fn touch_link_index(&mut self, i: usize) {
        self.link_versions[i] += 1;
    }

    /// The function catalogue.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The overlay mesh (immutable).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Number of stream nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of overlay links in the system.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// A node's state.
    pub fn node(&self, v: OverlayNodeId) -> &StreamNode {
        &self.nodes[v.index()]
    }

    /// A component's static record.
    ///
    /// # Panics
    ///
    /// Panics when `id` names a non-existent component.
    pub fn component(&self, id: ComponentId) -> &Component {
        self.nodes[id.node.index()]
            .component(id.slot)
            .unwrap_or_else(|| panic!("unknown component {id}"))
    }

    /// The **effective** QoS of a component right now: its base QoS with
    /// processing delay inflated by the hosting node's utilisation along
    /// an M/M/1-style queueing curve (see `LOAD_DELAY_FACTOR`). This is
    /// the value probes collect and global-state updates propagate.
    pub fn effective_component_qos(&self, id: ComponentId) -> Qos {
        let base = self.component(id).qos;
        let node = &self.nodes[id.node.index()];
        let cap = node.capacity();
        let used = node.committed();
        let utilization = cap.max_utilization_of(&used).min(1.0);
        let inflation = if utilization >= 1.0 {
            10.0
        } else {
            (1.0 + LOAD_DELAY_FACTOR * utilization / (1.0 - utilization)).min(10.0)
        };
        Qos::new(base.delay.mul_f64(inflation), base.loss)
    }

    /// Candidate components currently providing `function` — the
    /// decentralized service-discovery lookup of §3.3 step 2.
    pub fn candidates(&self, function: FunctionId) -> &[ComponentId] {
        self.discovery.get(function.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The function a dense component id serves. Statics are
    /// append-only, so this answers for tombstoned ids too.
    pub fn dense_function(&self, d: DenseComponentId) -> FunctionId {
        self.statics.function[d.index()]
    }

    /// The interface rate limit of a dense component id (kbit/s).
    pub fn dense_max_rate_kbps(&self, d: DenseComponentId) -> f64 {
        self.statics.max_rate_kbps[d.index()]
    }

    /// Currently available end-system resources on `v` (capacity minus
    /// committed minus transient reservations).
    pub fn node_available(&self, v: OverlayNodeId) -> ResourceVector {
        self.nodes[v.index()].available()
    }

    /// Currently available bandwidth on overlay link `l` (kbit/s).
    pub fn link_available(&self, l: OverlayLinkId) -> f64 {
        self.links[l.index()].available()
    }

    /// Capacity of overlay link `l` (kbit/s).
    pub fn link_capacity(&self, l: OverlayLinkId) -> f64 {
        self.links[l.index()].capacity_kbps
    }

    /// The virtual link (overlay path) between two nodes, memoized per
    /// `(from, to)` pair; see [`Overlay::virtual_path`].
    pub fn virtual_path(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<SharedPath> {
        self.overlay.virtual_path(from, to)
    }

    /// [`Self::virtual_path`] by reference into the memo, counted the
    /// same; see [`Overlay::virtual_path_ref`].
    #[inline]
    pub fn virtual_path_ref(&mut self, from: OverlayNodeId, to: OverlayNodeId) -> Option<&SharedPath> {
        self.overlay.virtual_path_ref(from, to)
    }

    /// Hit/miss counters of the overlay's virtual-path memo.
    pub fn path_cache_stats(&self) -> acp_topology::PathCacheStats {
        self.overlay.path_cache_stats()
    }

    /// Available bandwidth of a virtual link: the bottleneck over its
    /// constituent overlay links' availability (`ba^l = min …`), `∞` for
    /// co-located endpoints.
    pub fn virtual_path_available(&self, path: &OverlayPath) -> f64 {
        path.links.iter().fold(f64::INFINITY, |acc, &l| acc.min(self.link_available(l)))
    }

    // ------------------------------------------------------------------
    // Qualification and session lifecycle
    // ------------------------------------------------------------------

    /// Checks constraints (Eqs. 2–5) for `composition` against the
    /// *current* system state, ignoring any transient holds belonging to
    /// `request` itself. Does not mutate anything.
    pub fn qualify(&self, request: &Request, composition: &Composition) -> Result<(), AdmissionError> {
        self.qualify_grouped(request, composition).map(|_| ())
    }

    /// [`Self::qualify`], returning the per-node and per-link demand
    /// groups it validated so [`Self::commit_session`] applies exactly
    /// those instead of regrouping.
    fn qualify_grouped(
        &self,
        request: &Request,
        composition: &Composition,
    ) -> Result<(NodeAllocs, LinkAllocs), AdmissionError> {
        self.check_assignment(request, composition)?;
        // Eq. 4 — end-system resources, grouped per node so co-located
        // components of this request share availability correctly. A
        // composition touches only a handful of nodes/links, so linear
        // scans over small vecs beat hash maps here (and keep iteration
        // order deterministic).
        let per_node = group_node_demand(self, request, composition);
        for (node, demand) in &per_node {
            // Own transient holds are counted as *unavailable*; releasing
            // them before committing (as `commit_session` does) can only
            // make more room, so this check is conservative.
            if !self.node_available(*node).dominates(demand) {
                return Err(AdmissionError::InsufficientResources { node: *node });
            }
        }
        // Eq. 5 — bandwidth per overlay link (a link may carry several
        // edges of the same composition).
        let per_link = group_link_demand(request, composition);
        for (link, demand) in &per_link {
            if self.link_available(*link) < *demand {
                return Err(AdmissionError::InsufficientBandwidth { link: *link });
            }
        }
        Ok((per_node, per_link))
    }

    /// The checks that need no availability: shape, Eq. 2 and Eq. 3. A
    /// vertex assigned a component that is no longer deployed fails
    /// Eq. 2 as [`AdmissionError::WrongFunction`].
    pub(crate) fn check_assignment(
        &self,
        request: &Request,
        composition: &Composition,
    ) -> Result<(), AdmissionError> {
        if !composition.is_shape_valid(&request.graph) {
            return Err(AdmissionError::MalformedComposition);
        }
        // Eq. 2 — function coverage; plus interface rate compatibility.
        for v in request.graph.vertices() {
            let id = composition.assignment[v];
            let Some(c) = self.nodes[id.node.index()].component(id.slot) else {
                return Err(AdmissionError::WrongFunction { vertex: v });
            };
            if c.function != request.graph.function(v) {
                return Err(AdmissionError::WrongFunction { vertex: v });
            }
            if !c.accepts_rate(request.stream_rate_kbps) {
                return Err(AdmissionError::RateIncompatible { vertex: v });
            }
        }
        // Eq. 3 — end-to-end QoS over critical branch path.
        let qos = composition.aggregated_qos(&request.graph, |id| self.effective_component_qos(id));
        if !qos.satisfies(&request.qos) {
            return Err(AdmissionError::QosViolated);
        }
        Ok(())
    }

    /// Confirms a composition: converts/creates permanent allocations and
    /// registers a session (the `Find` success path). All-or-nothing: on
    /// error nothing stays allocated (the request's transient holds are
    /// released in all cases, mirroring the protocol where confirmation
    /// supersedes reservations).
    pub fn commit_session(
        &mut self,
        request: &Request,
        composition: Composition,
    ) -> Result<SessionId, AdmissionError> {
        // Free the request's own holds so availability reflects exactly
        // the non-this-request load, then validate as a group. On
        // success the freed holds are re-classified as *promoted* in the
        // lease ledger — confirmation is what turns a lease into a
        // committed residual (§3.3 step 4); a failed confirmation leaves
        // them counted as released.
        let held = self.release_request_transients(request.id);
        let (node_allocs, link_allocs) = self.qualify_grouped(request, &composition)?;

        for &(node, demand) in &node_allocs {
            let ok = self.nodes[node.index()].commit(demand);
            debug_assert!(ok, "qualify() guaranteed feasibility");
            self.touch_node(node);
        }
        for &(link, kbps) in &link_allocs {
            self.links[link.index()].committed_kbps += kbps;
            self.touch_link_index(link.index());
        }
        self.promote_released_leases(held);

        if let Some(binding) = request.tenant {
            let demand: ResourceVector = node_allocs.iter().map(|&(_, d)| d).sum();
            let bw: f64 = link_allocs.iter().map(|&(_, kbps)| kbps).sum();
            self.tenant_ledger.record_admit(binding, demand, bw);
        }

        let id = self.sessions.insert(|id| Session {
            id,
            request_spec: request.clone(),
            composition,
            node_allocs,
            link_allocs,
            broken: None,
        });
        Ok(id)
    }

    /// Tears down a session, releasing its allocations (the `Close`
    /// interface). Returns `false` for unknown sessions.
    pub fn close_session(&mut self, id: SessionId) -> bool {
        self.close_session_with_cause(id, SessionCloseCause::Closed).is_some()
    }

    /// Preempts a live session: teardown recorded as `Preempted` in the
    /// tenant ledger. The *policy* guarantee that only `BestEffort`
    /// sessions are ever preempted lives in the caller (the pressure
    /// preemptor); the auditor independently flags preemption counts on
    /// any higher tier, so a misbehaving caller is caught rather than
    /// masked. Returns the request specification for bookkeeping, `None`
    /// for unknown sessions.
    pub fn preempt_session(&mut self, id: SessionId) -> Option<Request> {
        self.close_session_with_cause(id, SessionCloseCause::Preempted).map(|s| s.request_spec)
    }

    /// Shared teardown: [`Self::teardown_session`], then cancels the
    /// session's repair ticket if it holds one. A session that closes
    /// for an unrelated reason (natural end, preemption) while awaiting
    /// repair is no longer the ticket's business; a restart's teardown
    /// ([`Self::terminate_for_restart`]) leaves the ticket open for the
    /// restart to settle, so this only catches genuinely unrelated
    /// teardowns.
    pub(crate) fn close_session_with_cause(&mut self, id: SessionId, cause: SessionCloseCause) -> Option<Session> {
        let session = self.teardown_session(id, cause)?;
        self.repair_ledger.cancel(session.request_spec.id);
        Some(session)
    }

    /// Removes a session and releases its allocations, recording `cause`
    /// against the owning tenant if it has one. Leaves any repair ticket
    /// open — the restart path needs exactly that. Hands back the removed
    /// session, `None` for unknown sessions.
    pub(crate) fn teardown_session(&mut self, id: SessionId, cause: SessionCloseCause) -> Option<Session> {
        let session = self.sessions.remove(id)?;
        for (node, amount) in &session.node_allocs {
            self.nodes[node.index()].release(*amount);
            self.node_versions[node.index()] += 1;
        }
        for (link, kbps) in &session.link_allocs {
            let state = &mut self.links[link.index()];
            state.committed_kbps = (state.committed_kbps - kbps).max(0.0);
            self.link_versions[link.index()] += 1;
        }
        if let Some(binding) = session.request_spec.tenant {
            let demand: ResourceVector = session.node_allocs.iter().map(|&(_, d)| d).sum();
            let bw: f64 = session.link_allocs.iter().map(|&(_, kbps)| kbps).sum();
            self.tenant_ledger.record_close(binding, cause, demand, bw);
        }
        Some(session)
    }

    /// True when the node's processing plane is failed.
    pub fn is_node_failed(&self, v: OverlayNodeId) -> bool {
        self.nodes[v.index()].is_failed()
    }

    /// True when overlay link `l` is bandwidth-fail-stopped.
    pub fn is_link_failed(&self, l: OverlayLinkId) -> bool {
        self.links[l.index()].failed
    }

    /// Bandwidth committed to confirmed sessions on overlay link `l`
    /// (kbit/s) — the auditor's conservation counterpart to
    /// [`Self::link_available`].
    pub fn link_committed(&self, l: OverlayLinkId) -> f64 {
        self.links[l.index()].committed_kbps
    }

    /// Mutable access to a node's raw bookkeeping, for tests that need
    /// to manufacture invariant violations the public API forbids.
    #[cfg(test)]
    pub(crate) fn node_mut(&mut self, v: OverlayNodeId) -> &mut StreamNode {
        &mut self.nodes[v.index()]
    }

    /// An established session's record (O(1) arena lookup).
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(id)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Iterates over live sessions in arena-slot order — deterministic
    /// given the insert/close history, but not sorted by id (see
    /// [`Self::sessions_by_id`]).
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter()
    }

    /// Iterates over live sessions in ascending id order, without a sort:
    /// the arena keeps its id → slot window in id order.
    pub fn sessions_by_id(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter_by_id()
    }

    /// True when any live session serves `request` — the idempotent-
    /// commit guard of the two-phase protocol (a stale acknowledgement
    /// for a request that already holds a session must not commit a
    /// second set of residuals). One hash lookup, once the first call
    /// has counted the live sessions per request.
    pub fn has_session_for(&mut self, request: RequestId) -> bool {
        self.sessions.holds_request(request)
    }

    // ------------------------------------------------------------------
    // Tenant ledger
    // ------------------------------------------------------------------

    /// The per-tenant ledger (see [`TenantLedger`]).
    pub fn tenant_ledger(&self) -> &TenantLedger {
        &self.tenant_ledger
    }

    /// Does nothing: the tenant ledger is kept exactly for requests that
    /// carry a [`TenantBinding`]. Kept only because the benchmark
    /// package, which this crate may not edit, still calls it.
    pub fn set_tenant_accounting(&mut self, _enabled: bool) {}

    /// Registers a tenant with its tier up front (idempotent), so the
    /// ledger reports zero rows for tenants that never sent traffic.
    pub fn register_tenant(&mut self, id: TenantId, tier: TenantTier) {
        self.tenant_ledger.register(id, tier);
    }

    /// Records an admission-control shed for `binding`.
    pub fn record_tenant_shed(&mut self, binding: TenantBinding) {
        self.tenant_ledger.record_shed(binding);
    }

    /// Records a congestion shed of `binding` that happened while a
    /// lower tier held live sessions — the starvation event the auditor
    /// flags on `Gold` tenants.
    pub fn record_tenant_starved(&mut self, binding: TenantBinding) {
        self.tenant_ledger.record_starved(binding);
    }

    // ------------------------------------------------------------------
    // Repair ledger
    // ------------------------------------------------------------------

    /// The repair-incident ledger (see [`RepairLedger`]).
    pub fn repair_ledger(&self) -> &RepairLedger {
        &self.repair_ledger
    }

    /// Mutable ledger access for the repair driver (opening restart
    /// tickets, charging attempts).
    pub fn repair_ledger_mut(&mut self) -> &mut RepairLedger {
        &mut self.repair_ledger
    }

    /// Does nothing: the repair ledger holds tickets exactly for the
    /// sessions a fault degraded or a restart driver ticketed. Kept only
    /// because the benchmark package, which this crate may not edit,
    /// still calls it.
    pub fn set_repair_accounting(&mut self, _enabled: bool) {}

    /// Live `BestEffort` sessions placed (partly) on `node`, in
    /// ascending session-id order — the preemption candidates there.
    pub fn best_effort_sessions_on(&self, node: OverlayNodeId) -> Vec<SessionId> {
        let mut out: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|s| {
                s.request_spec.tenant.is_some_and(|b| b.tier == TenantTier::BestEffort)
                    && s.composition.assignment.iter().any(|c| c.node == node)
            })
            .map(|s| s.id)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Committed end-system demand grouped per node.
type NodeAllocs = Vec<(OverlayNodeId, ResourceVector)>;
/// Committed bandwidth grouped per overlay link.
type LinkAllocs = Vec<(OverlayLinkId, f64)>;

/// Groups a composition's per-vertex demand by hosting node, in graph
/// order. A composition touches only a handful of nodes, so a linear scan
/// beats a hash map and keeps iteration deterministic.
fn group_node_demand(system: &StreamSystem, request: &Request, composition: &Composition) -> NodeAllocs {
    let mut grouped: NodeAllocs = Vec::with_capacity(request.graph.len());
    for v in request.graph.vertices() {
        let node = composition.assignment[v].node;
        let demand = request.vertex_demand(&system.registry, v);
        match grouped.iter_mut().find(|(n, _)| *n == node) {
            Some((_, total)) => *total += demand,
            None => grouped.push((node, demand)),
        }
    }
    grouped
}

/// Groups a composition's bandwidth demand by overlay link (a link may
/// carry several edges of the same composition), in edge order.
fn group_link_demand(request: &Request, composition: &Composition) -> LinkAllocs {
    let mut grouped: LinkAllocs = Vec::with_capacity(composition.overlay_hops());
    for (_, l) in composition.overlay_links() {
        match grouped.iter_mut().find(|(x, _)| *x == l) {
            Some((_, total)) => *total += request.bandwidth_kbps,
            None => grouped.push((l, request.bandwidth_kbps)),
        }
    }
    grouped
}

/// Makes the two draws that once sampled a component's security level
/// and licence class, and discards them. Placement constraints are gone,
/// but dropping the draws would shift every later draw of
/// [`StreamSystem::generate`] (and so of the workload's `build_system`)
/// and move every pinned digest; a re-bless of the digests (ROADMAP
/// item 4) is what would retire this function.
fn skip_retired_attribute_draws<R: Rng + ?Sized>(rng: &mut R) {
    let _: u8 = rng.gen_range(SECURITY_LEVELS.0..=SECURITY_LEVELS.1);
    let total: f64 = LICENSE_WEIGHTS.iter().sum();
    let _: f64 = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
}

fn sample_range<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// Fisher–Yates prefix shuffle: randomises only the first `count` slots.
fn partial_shuffle<T, R: Rng + ?Sized>(items: &mut [T], count: usize, rng: &mut R) {
    let n = items.len();
    for i in 0..count.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        items.swap(i, j);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fgraph::FunctionGraph;
    use crate::qos::QosRequirement;
    use crate::repair::RepairPolicy;
    use acp_simcore::SimTime;
    use acp_topology::{InetConfig, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn build_system(seed: u64, stream_nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    /// Builds a request for a path of two functions that both have
    /// candidates, and a qualified composition for it.
    pub(crate) fn request_and_composition(sys: &mut StreamSystem) -> (Request, Composition) {
        // find two functions with candidates
        let reg_len = sys.registry().len() as u16;
        let mut chosen = Vec::new();
        for f in 0..reg_len {
            if !sys.candidates(FunctionId(f)).is_empty() {
                chosen.push(FunctionId(f));
                if chosen.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(chosen.len(), 2, "system should host most functions");
        let graph = FunctionGraph::path(chosen.clone());
        let request = Request {
            id: RequestId(1),
            graph,
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(1.0, 4.0),
            bandwidth_kbps: 10.0,
            stream_rate_kbps: 100.0,
            tenant: None,
        };
        let c0 = sys.candidates(chosen[0])[0];
        let c1 = sys.candidates(chosen[1])[0];
        let path = sys.virtual_path(c0.node, c1.node).expect("connected overlay");
        let composition = Composition { assignment: vec![c0, c1], links: vec![path] };
        (request, composition)
    }

    #[test]
    fn generation_builds_discovery_index() {
        let sys = build_system(1, 30);
        assert_eq!(sys.node_count(), 30);
        let total: usize = sys.registry().ids().map(|f| sys.candidates(f).len()).sum();
        let by_nodes: usize = (0..30).map(|i| sys.node(OverlayNodeId(i)).component_count()).sum();
        assert_eq!(total, by_nodes);
        // every candidate's component record agrees on the function
        for f in sys.registry().ids() {
            for &c in sys.candidates(f) {
                assert_eq!(sys.component(c).function, f);
            }
        }
    }

    #[test]
    fn nodes_host_distinct_functions() {
        let sys = build_system(2, 25);
        for i in 0..25 {
            let mut fs: Vec<_> = sys.node(OverlayNodeId(i)).components().map(|c| c.function).collect();
            fs.sort();
            let before = fs.len();
            fs.dedup();
            assert_eq!(fs.len(), before, "node {i} hosts duplicate function");
        }
    }

    #[test]
    fn commit_and_close_round_trip() {
        let mut sys = build_system(3, 30);
        let (request, composition) = request_and_composition(&mut sys);
        let n0 = composition.assignment[0].node;
        let before = sys.node_available(n0);
        let sid = sys.commit_session(&request, composition.clone()).expect("qualified");
        assert_eq!(sys.session_count(), 1);
        assert!(sys.node_available(n0).cpu < before.cpu);
        assert!(sys.close_session(sid));
        assert!(!sys.close_session(sid), "double close fails");
        let after = sys.node_available(n0);
        assert!((after.cpu - before.cpu).abs() < 1e-9, "allocation conservation");
        assert!((after.memory_mb - before.memory_mb).abs() < 1e-9);
    }

    #[test]
    fn qualify_rejects_wrong_function() {
        let mut sys = build_system(4, 30);
        let (request, mut composition) = request_and_composition(&mut sys);
        // swap assignment order so functions mismatch (if distinct nodes)
        composition.assignment.swap(0, 1);
        let err = sys.qualify(&request, &composition).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::WrongFunction { .. } | AdmissionError::MalformedComposition
        ));
    }

    #[test]
    fn qualify_rejects_tight_qos() {
        let mut sys = build_system(5, 30);
        let (mut request, composition) = request_and_composition(&mut sys);
        request.qos = QosRequirement::new(acp_simcore::SimDuration::from_micros(1), crate::qos::LossRate::ZERO);
        assert_eq!(sys.qualify(&request, &composition), Err(AdmissionError::QosViolated));
    }

    #[test]
    fn qualify_rejects_excess_resources() {
        let mut sys = build_system(6, 30);
        let (mut request, composition) = request_and_composition(&mut sys);
        request.base_resources = ResourceVector::new(1e7, 1e7);
        assert!(matches!(
            sys.qualify(&request, &composition),
            Err(AdmissionError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn qualify_rejects_excess_bandwidth() {
        let mut sys = build_system(7, 30);
        let (mut request, composition) = request_and_composition(&mut sys);
        if composition.links[0].is_colocated() {
            return; // co-located: no bandwidth constraint applies
        }
        request.bandwidth_kbps = 1e9;
        assert!(matches!(
            sys.qualify(&request, &composition),
            Err(AdmissionError::InsufficientBandwidth { .. })
        ));
    }

    #[test]
    fn transient_reservation_blocks_conflicting_admission() {
        let mut sys = build_system(8, 30);
        let (request, composition) = request_and_composition(&mut sys);
        let comp = composition.assignment[0];
        let node = comp.node;
        let avail = sys.node_available(node);
        // Another request's probe grabs everything.
        let other = RequestId(99);
        assert!(sys.reserve_component_transient(other, comp, avail, SimTime::from_secs(30)));
        assert!(matches!(
            sys.qualify(&request, &composition),
            Err(AdmissionError::InsufficientResources { .. })
        ));
        // After expiry the request goes through again.
        sys.expire_transients(SimTime::from_secs(30));
        assert!(sys.qualify(&request, &composition).is_ok());
    }

    #[test]
    fn commit_releases_own_transients_first() {
        let mut sys = build_system(9, 30);
        let (request, composition) = request_and_composition(&mut sys);
        // The request's own probes hold reservations; commit must succeed.
        for v in request.graph.vertices() {
            let id = composition.assignment[v];
            let demand = request.vertex_demand(&sys.registry().clone(), v);
            assert!(sys.reserve_component_transient(request.id, id, demand, SimTime::from_secs(30)));
        }
        assert!(sys.commit_session(&request, composition).is_ok());
        // No transient residue.
        for i in 0..30 {
            assert_eq!(sys.node(OverlayNodeId(i)).transient_count(), 0);
        }
    }

    #[test]
    fn path_transient_reservation_is_all_or_nothing() {
        let mut sys = build_system(10, 30);
        // find a non-colocated virtual path
        let (a, b) = (OverlayNodeId(0), OverlayNodeId(1));
        let path = sys.virtual_path(a, b).unwrap();
        if path.is_colocated() {
            return;
        }
        let r = RequestId(5);
        let avail = sys.virtual_path_available(&path);
        assert!(sys.reserve_path_transient(r, 0, &path, avail, SimTime::from_secs(10)));
        // A second request cannot reserve anything on the same path.
        assert!(!sys.reserve_path_transient(RequestId(6), 0, &path, 1.0, SimTime::from_secs(10)));
        sys.release_path_transient(r, 0);
        assert!(sys.reserve_path_transient(RequestId(6), 0, &path, 1.0, SimTime::from_secs(10)));
    }

    /// Commits `n` copies of the same qualified composition under
    /// distinct request ids `base..base+n`, returning the session ids
    /// in commit order.
    pub(crate) fn commit_n(
        sys: &mut StreamSystem,
        request: &Request,
        composition: &Composition,
        base: u64,
        n: u64,
    ) -> Vec<SessionId> {
        (0..n)
            .map(|i| {
                let mut r = request.clone();
                r.id = RequestId(base + i);
                sys.commit_session(&r, composition.clone()).expect("qualified")
            })
            .collect()
    }

    fn arena_session(id: SessionId) -> Session {
        let request = Request {
            id: RequestId(id.0),
            graph: FunctionGraph::path(vec![FunctionId(0)]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::ZERO,
            bandwidth_kbps: 0.0,
            stream_rate_kbps: 0.0,
            tenant: None,
        };
        Session {
            id,
            request_spec: request,
            composition: Composition { assignment: Vec::new(), links: Vec::new() },
            node_allocs: Vec::new(),
            link_allocs: Vec::new(),
            broken: None,
        }
    }

    /// The id → slot map follows the live id span: a million FIFO
    /// open/close pairs with ≤ 1k live never hold more than 2k entries.
    #[test]
    fn arena_id_map_is_bounded_by_the_live_span() {
        let mut arena = SessionArena::default();
        let mut live = VecDeque::new();
        let mut widest = 0;
        for _ in 0..1_000_000u32 {
            if live.len() == 1_000 {
                let oldest = live.pop_front().expect("at the live target");
                assert!(arena.remove(oldest).is_some());
            }
            live.push_back(arena.insert(arena_session));
            widest = widest.max(arena.slot_of.capacity());
        }
        assert!(widest <= 2_000, "id map grew to {widest} entries");
        assert_eq!(arena.slot_of.len(), 1_000);
        assert_eq!(arena.len(), 1_000);
        assert!(arena.get(SessionId(0)).is_none(), "ids below the window are closed");
        assert_eq!(arena.get(live[0]).map(|s| s.id), Some(live[0]));
        assert!(arena.get(SessionId(arena.next_id)).is_none(), "never-issued id");
    }

    /// The id-order walk is the slot-order walk sorted by id.
    fn assert_walks_in_id_order(arena: &SessionArena) {
        let mut sorted: Vec<SessionId> = arena.iter().map(|s| s.id).collect();
        sorted.sort_unstable();
        assert_eq!(arena.iter_by_id().map(|s| s.id).collect::<Vec<_>>(), sorted);
    }

    /// Out-of-order closes: every live id resolves, every closed one is
    /// rejected, the window trims only up to the oldest live id, and the
    /// live sessions walk in id order.
    #[test]
    fn arena_resolves_across_out_of_order_closes() {
        let mut arena = SessionArena::default();
        let ids: Vec<SessionId> = (0..64).map(|_| arena.insert(arena_session)).collect();
        let check = |arena: &SessionArena, closed: &[usize]| {
            for (i, &id) in ids.iter().enumerate() {
                let live = !closed.contains(&i);
                assert_eq!(arena.get(id).map(|s| s.id), live.then_some(id), "id {i}");
            }
            assert_walks_in_id_order(arena);
        };
        // Close a middle run, then the newest: the oldest pins the window.
        let mut closed: Vec<usize> = (10..30).chain([63]).collect();
        for &i in &closed {
            assert!(arena.remove(ids[i]).is_some());
        }
        assert_eq!((arena.base_id, arena.slot_of.len()), (0, 64));
        check(&arena, &closed);
        assert!(arena.remove(ids[15]).is_none(), "double close");
        // Closing 0..10 lets the window skip the whole closed run.
        for i in (0..10).rev() {
            assert!(arena.remove(ids[i]).is_some());
            closed.push(i);
        }
        assert_eq!((arena.base_id, arena.slot_of.len()), (30, 34));
        check(&arena, &closed);
        let fresh = arena.insert(arena_session);
        assert_eq!(fresh, SessionId(64), "external ids stay monotonic");
        assert_eq!(arena.get(fresh).map(|s| s.id), Some(fresh));
        assert_eq!(arena.iter().next().map(|s| s.id), Some(fresh), "the newest id took the first slot");
        assert_walks_in_id_order(&arena);
        assert!(arena.get_mut(ids[40]).is_some());
        // Draining everything empties the window at the allocator.
        for i in (30..63).chain([64]) {
            assert!(arena.remove(SessionId(i)).is_some());
        }
        assert_eq!((arena.base_id, arena.slot_of.len(), arena.len()), (65, 0, 0));
    }

    /// Two live sessions of one request: closing either leaves the
    /// request held, closing both releases it, whether the sessions came
    /// before or after the count was built.
    #[test]
    fn arena_counts_sessions_per_request() {
        let mut arena = SessionArena::default();
        let shared = |id| {
            let mut session = arena_session(id);
            session.request_spec.id = RequestId(7);
            session
        };
        let a = arena.insert(shared);
        assert!(arena.holds_request(RequestId(7)), "the first question counts the live sessions");
        let (b, other) = (arena.insert(shared), arena.insert(arena_session));
        assert!(arena.holds_request(RequestId(other.0)), "later sessions are counted as they come");
        assert!(arena.remove(b).is_some());
        assert!(arena.holds_request(RequestId(7)), "one of the two is still live");
        assert!(arena.remove(a).is_some());
        assert!(!arena.holds_request(RequestId(7)));
        assert!(arena.remove(other).is_some());
        assert!(!arena.holds_request(RequestId(other.0)));
        assert_eq!(arena.per_request, Some(HashMap::new()));
    }

    /// The flat retired flag is `dense_of(cid) != Some(dense)` for every
    /// `(cid, dense)` pair ever issued, through both faults that retire.
    #[test]
    fn retired_flag_matches_dense_of_through_churn() {
        let mut sys = build_system(14, 30);
        let issued: Vec<(ComponentId, DenseComponentId)> = sys
            .overlay()
            .nodes()
            .flat_map(|v| sys.node(v).components().map(|c| (c.id, sys.dense_of(c.id).expect("live component"))))
            .collect();
        let check = |sys: &StreamSystem, issued: &[(ComponentId, DenseComponentId)]| {
            for &(cid, d) in issued {
                assert_eq!(sys.dense_is_retired(d), sys.dense_of(cid) != Some(d), "{cid} {d:?}");
            }
        };
        check(&sys, &issued);
        let crashed = sys.node(OverlayNodeId(2)).components().next().expect("hosts some").id;
        sys.crash_component(crashed, RepairPolicy::Terminate, SimTime::ZERO);
        check(&sys, &issued);
        sys.fail_node(OverlayNodeId(5), RepairPolicy::Terminate, SimTime::ZERO);
        sys.fail_node(OverlayNodeId(7), RepairPolicy::Repair, SimTime::ZERO);
        check(&sys, &issued);
        assert!(issued.iter().filter(|&&(_, d)| sys.dense_is_retired(d)).count() >= 4);
    }

    #[test]
    fn effective_qos_grows_with_load() {
        let mut sys = build_system(11, 30);
        let (request, composition) = request_and_composition(&mut sys);
        let comp = composition.assignment[0];
        let before = sys.effective_component_qos(comp);
        // Load the node heavily.
        let node = comp.node;
        let avail = sys.node_available(node);
        sys.nodes[node.index()].commit(avail.scaled(0.9));
        let after = sys.effective_component_qos(comp);
        assert!(after.delay > before.delay);
        let _ = request;
    }
}
