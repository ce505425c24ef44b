//! The fault path: what a fault breaks, and what becomes of the sessions
//! it broke.
//!
//! Every fault operator of [`StreamSystem`] lives here, and each takes
//! the one argument that used to fork the API in two — a
//! [`RepairPolicy`] saying what becomes of a struck session:
//!
//! | operator | strikes | `Terminate` | `Repair` |
//! |---|---|---|---|
//! | [`fail_node`](StreamSystem::fail_node) | sessions placed on or relaying through the node | killed | path sessions degraded over the span on/behind the node |
//! | [`fail_link`](StreamSystem::fail_link) | sessions streaming over the link | killed | path sessions degraded behind every edge routed over it |
//! | `degrade_link` | the link's users, newest first, until the rest fit | killed | path sessions degraded likewise |
//! | [`crash_component`](StreamSystem::crash_component) | sessions using the component | killed | path sessions degraded at its vertices |
//!
//! A *killed* session is closed and its request returned in
//! [`DegradeOutcome::orphaned`] for a full restart; a *degraded* one
//! keeps its healthy prefix and suffix, has the broken span's
//! commitments released, and waits for [`splice_repair`]. Non-path
//! sessions have no well-defined broken segment and are killed under
//! either policy.
//!
//! [`apply_fault`] replays one [`FaultKind`] of a fault plan through
//! those operators. It owns everything between the plan and the
//! operators: victim indices modulo the live counts, the `ordinal`-th
//! live component, and the partition cut with its per-link refcount
//! (`StreamSystem::partition_refs`: a held `LinkRestore` is deferred, a
//! heal restores at zero). It reports which half of the coarse board the
//! caller must publish ([`StaleState`]); the model never sees the board.
//!
//! [`splice_repair`]: StreamSystem::splice_repair
//! [`apply_fault`]: StreamSystem::apply_fault

use acp_simcore::{FaultKind, SimTime};
use acp_topology::{OverlayLinkId, OverlayNodeId, SharedPath};

use crate::component::ComponentId;
use crate::lease::Site;
use crate::repair::RepairPolicy;
use crate::request::{Request, RequestId};
use crate::resources::ResourceVector;
use crate::system::{AdmissionError, Session, SessionId, StreamSystem};
use crate::tenant::SessionCloseCause;

/// What a fault operator did to the live sessions it struck.
#[derive(Debug, Clone, Default)]
pub struct DegradeOutcome {
    /// Sessions degraded in place, awaiting segment repair (always empty
    /// under [`RepairPolicy::Terminate`]). Ascending id order per
    /// operator call.
    pub degraded: Vec<SessionId>,
    /// Requests of the sessions that were killed, for a full restart.
    pub orphaned: Vec<Request>,
}

/// The half of the coarse global state a fault made stale — what the
/// caller must publish before anything composes again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleState {
    /// Node availability or component lists changed: refresh the nodes.
    Nodes,
    /// Link bandwidth changed: run an aggregation round.
    Links,
}

/// What one fault-plan event did to the system.
#[derive(Debug, Clone, Default)]
pub struct FaultOutcome {
    /// Components undeployed by the fault.
    pub undeployed: Vec<ComponentId>,
    /// The sessions it struck.
    pub broken: DegradeOutcome,
    /// What the caller must publish; `None` when the event changed
    /// nothing (victim already down, restore held by a partition, …).
    pub stale: Option<StaleState>,
}

/// An inclusive vertex span of a session's function graph.
type Span = (usize, usize);

/// The smallest span covering `vertices`; `None` when there are none.
fn covering_span(vertices: impl Iterator<Item = usize>) -> Option<Span> {
    vertices.fold(None, |span, v| match span {
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        None => Some((v, v)),
    })
}

/// The vertex behind edge `e` of `s`: what a dead virtual link starves.
fn downstream(s: &Session, e: usize) -> usize {
    (e + 1).min(s.composition.assignment.len() - 1)
}

/// The span of `s` broken by the fail-stop of node `v`: vertices placed
/// on `v`, plus the downstream endpoint of every edge relaying through
/// `v` (its virtual link died with the forwarding plane).
fn broken_span_for_node(s: &Session, v: OverlayNodeId) -> Option<Span> {
    let c = &s.composition;
    let placed = (0..c.assignment.len()).filter(|&i| c.assignment[i].node == v);
    let relayed = (0..c.links.len()).filter(|&e| c.links[e].nodes.contains(&v)).map(|e| downstream(s, e));
    covering_span(placed.chain(relayed))
}

/// The span of `s` broken by the failure of overlay link `l`: the
/// downstream endpoint of every edge routed over it.
fn broken_span_for_link(s: &Session, l: OverlayLinkId) -> Option<Span> {
    let c = &s.composition;
    covering_span((0..c.links.len()).filter(|&e| c.links[e].links.contains(&l)).map(|e| downstream(s, e)))
}

/// The span of `s` broken by the crash of component `id`: its vertices.
fn broken_span_for_component(s: &Session, id: ComponentId) -> Option<Span> {
    let c = &s.composition;
    covering_span((0..c.assignment.len()).filter(|&i| c.assignment[i] == id))
}

impl StreamSystem {
    // ------------------------------------------------------------------
    // Fault operators
    // ------------------------------------------------------------------

    /// Fails a node (fail-stop): the processing plane goes down taking
    /// its transient leases with it, every hosted component is undeployed
    /// (tombstone, dense id retired, discovery entry dropped), every
    /// session placed on the node — or relaying a virtual link through
    /// it, since its forwarding plane dies too — is broken under
    /// `policy`, and fresh virtual paths route around the node: no cached
    /// path through it survives (the invariant the system auditor
    /// checks), everything else stays warm for the recompositions that
    /// follow.
    ///
    /// Returns the undeployed components and the struck sessions.
    pub fn fail_node(
        &mut self,
        v: OverlayNodeId,
        policy: RepairPolicy,
        now: SimTime,
    ) -> (Vec<ComponentId>, DegradeOutcome) {
        self.forget_site_leases(Site::Node(v.0));
        let undeployed = self.nodes[v.index()].fail();
        self.touch_node(v);
        for component in &undeployed {
            self.retire_dense(component.id);
            self.discovery[component.function.0 as usize].retain(|&c| c != component.id);
        }
        let outcome = self.break_sessions(policy, now, |s| broken_span_for_node(s, v));
        self.overlay.set_node_down(v, true);
        (undeployed.iter().map(|c| c.id).collect(), outcome)
    }

    /// Brings a failed node back online, empty, for good: its components
    /// stay retired and nothing is redeployed there, but its forwarding
    /// plane rejoins the mesh, so virtual paths may relay through it
    /// again.
    pub fn recover_node(&mut self, v: OverlayNodeId) {
        self.nodes[v.index()].recover();
        self.overlay.set_node_down(v, false);
        self.touch_node(v);
    }

    /// Bandwidth fail-stop of overlay link `l`: the link stays routable
    /// (its forwarding plane is part of the surviving mesh) but carries
    /// nothing — availability drops to zero, its transient leases go,
    /// and every session streaming over it is broken under `policy`.
    /// A no-op on an already failed link.
    pub fn fail_link(&mut self, l: OverlayLinkId, policy: RepairPolicy, now: SimTime) -> DegradeOutcome {
        let i = l.index();
        if self.links[i].failed {
            return DegradeOutcome::default();
        }
        self.links[i].failed = true;
        self.forget_site_leases(Site::Link(l.0));
        self.links[i].transient.clear();
        self.touch_link_index(i);
        // Termination strikes what is *allocated* on the link, repair
        // what is *routed* over it. The two differ only on an already
        // degraded session whose released edge ran over `l`: there is
        // nothing left to kill, but its broken span still grows.
        self.break_sessions(policy, now, |s| {
            let struck = policy == RepairPolicy::Repair || s.uses_link(l);
            if struck { broken_span_for_link(s, l) } else { None }
        })
    }

    /// Degrades overlay link `l` to `factor` of its nominal capacity
    /// (clamped to `[0, 1]`). Its users are broken under `policy`
    /// **newest first** until the remaining committed bandwidth fits the
    /// shrunken capacity — the deterministic analogue of a congested
    /// path shedding its most recent admissions.
    pub(crate) fn degrade_link(
        &mut self,
        l: OverlayLinkId,
        factor: f64,
        policy: RepairPolicy,
        now: SimTime,
    ) -> DegradeOutcome {
        let i = l.index();
        let state = &mut self.links[i];
        state.capacity_kbps = state.nominal_kbps * factor.clamp(0.0, 1.0);
        self.touch_link_index(i);
        let mut outcome = DegradeOutcome::default();
        if self.links[i].failed {
            return outcome; // already carries nothing
        }
        let mut users: Vec<SessionId> =
            self.sessions.iter().filter(|s| s.uses_link(l)).map(|s| s.id).collect();
        users.sort_unstable_by(|a, b| b.cmp(a));
        for sid in users {
            if self.links[i].committed_kbps <= self.links[i].capacity_kbps + 1e-9 {
                break;
            }
            let Some(span) = self.sessions.get(sid).and_then(|s| broken_span_for_link(s, l)) else {
                continue;
            };
            self.break_session(sid, span, policy, now, &mut outcome);
        }
        outcome
    }

    /// Restores overlay link `l` to nominal capacity, clearing both
    /// failure and degradation. Idempotent.
    pub fn restore_link(&mut self, l: OverlayLinkId) {
        let i = l.index();
        let state = &mut self.links[i];
        if !state.failed && state.capacity_kbps == state.nominal_kbps {
            return;
        }
        state.failed = false;
        state.capacity_kbps = state.nominal_kbps;
        self.touch_link_index(i);
    }

    /// Crashes a single component: it is undeployed (tombstoned, dense
    /// id retired, discovery entry dropped) while its node keeps
    /// running, any transient leases held *for* it are reclaimed — a
    /// crash mid-two-phase-setup must not orphan the reservation until
    /// the expiry sweep — and every session using it is broken under
    /// `policy`. An unknown/tombstoned id is a no-op.
    pub fn crash_component(&mut self, id: ComponentId, policy: RepairPolicy, now: SimTime) -> DegradeOutcome {
        let Some(component) = self.nodes[id.node.index()].undeploy(id.slot) else {
            return DegradeOutcome::default();
        };
        self.reclaim_component_leases(id);
        self.retire_dense(id);
        self.discovery[component.function.0 as usize].retain(|&c| c != id);
        self.touch_node(id.node);
        self.break_sessions(policy, now, |s| broken_span_for_component(s, id))
    }

    /// The victim walk: breaks every live session `span_of` names, in
    /// ascending session-id order so the recompositions that follow are
    /// deterministic. The arena iterates in slot order — a function of
    /// the insert/close history — and the explicit sort pins the id
    /// order regardless of how slots were recycled.
    fn break_sessions(
        &mut self,
        policy: RepairPolicy,
        now: SimTime,
        span_of: impl Fn(&Session) -> Option<Span>,
    ) -> DegradeOutcome {
        let mut victims: Vec<(SessionId, Span)> =
            self.sessions.iter().filter_map(|s| span_of(s).map(|span| (s.id, span))).collect();
        victims.sort_unstable_by_key(|&(id, _)| id);
        let mut outcome = DegradeOutcome::default();
        for (sid, span) in victims {
            self.break_session(sid, span, policy, now, &mut outcome);
        }
        outcome
    }

    /// What becomes of one struck session: under [`RepairPolicy::Repair`]
    /// a path session is degraded over `span`; anything else is killed
    /// and its request handed back for a full restart.
    fn break_session(
        &mut self,
        sid: SessionId,
        span: Span,
        policy: RepairPolicy,
        now: SimTime,
        outcome: &mut DegradeOutcome,
    ) {
        let s = self.sessions.get(sid).expect("struck sessions are live");
        if policy == RepairPolicy::Repair && s.request_spec.graph.is_path() {
            self.degrade_session_span(sid, span, now);
            outcome.degraded.push(sid);
        } else {
            let killed = self.close_session_with_cause(sid, SessionCloseCause::Killed);
            outcome.orphaned.push(killed.expect("struck sessions are live").request_spec);
        }
    }

    // ------------------------------------------------------------------
    // Fault-plan replay
    // ------------------------------------------------------------------

    /// Applies one fault-plan event. Victim indices are taken modulo the
    /// live entity counts, so a plan generated for any topology replays
    /// cleanly; an event that finds its victim already in the target
    /// state changes nothing and asks for no publish.
    pub fn apply_fault(&mut self, kind: FaultKind, policy: RepairPolicy, now: SimTime) -> FaultOutcome {
        let (nodes, links) = (self.nodes.len() as u32, self.links.len() as u32);
        let node = |n: u32| OverlayNodeId(n % nodes);
        let link = |l: u32| (links > 0).then(|| OverlayLinkId(l % links));
        let mut out = FaultOutcome::default();
        match kind {
            FaultKind::NodeFail { node: n } => {
                if !self.is_node_failed(node(n)) {
                    (out.undeployed, out.broken) = self.fail_node(node(n), policy, now);
                    out.stale = Some(StaleState::Nodes);
                }
            }
            FaultKind::NodeRecover { node: n } => {
                if self.is_node_failed(node(n)) {
                    self.recover_node(node(n));
                    out.stale = Some(StaleState::Nodes);
                }
            }
            FaultKind::ComponentCrash { node: n, ordinal } => {
                let live: Vec<ComponentId> =
                    self.nodes[node(n).index()].components().map(|c| c.id).collect();
                if !live.is_empty() {
                    let id = live[(ordinal % live.len() as u64) as usize];
                    out.broken = self.crash_component(id, policy, now);
                    out.undeployed = vec![id];
                    out.stale = Some(StaleState::Nodes);
                }
            }
            FaultKind::LinkFail { link: l } => {
                if let Some(l) = link(l).filter(|&l| !self.is_link_failed(l)) {
                    out.broken = self.fail_link(l, policy, now);
                    out.stale = Some(StaleState::Links);
                }
            }
            FaultKind::LinkDegrade { link: l, factor } => {
                if let Some(l) = link(l) {
                    out.broken = self.degrade_link(l, factor, policy, now);
                    out.stale = Some(StaleState::Links);
                }
            }
            FaultKind::LinkRestore { link: l } => {
                if let Some(l) = link(l) {
                    // A live partition still holds the link down; its
                    // heal will restore it.
                    let held = self.partition_refs.get(l.index()).is_some_and(|&r| r > 0);
                    if !held {
                        self.restore_link(l);
                        out.stale = Some(StaleState::Links);
                    }
                }
            }
            // Severing is idempotent: an already failed link just gains
            // a reference.
            FaultKind::Partition { first, count } => {
                self.partition_refs.resize(self.links.len(), 0);
                for l in self.crossing_links(first, count) {
                    self.partition_refs[l.index()] += 1;
                    if !self.is_link_failed(l) {
                        let struck = self.fail_link(l, policy, now);
                        out.broken.degraded.extend(struck.degraded);
                        out.broken.orphaned.extend(struck.orphaned);
                        out.stale = Some(StaleState::Links);
                    }
                }
            }
            // A link an individual `LinkFail` also downed comes back
            // here too — the cut healing re-establishes the forwarding
            // plane — and its later `LinkRestore` is then a no-op.
            FaultKind::PartitionHeal { first, count } => {
                for l in self.crossing_links(first, count) {
                    let held = match self.partition_refs.get_mut(l.index()) {
                        Some(refs) => {
                            *refs = refs.saturating_sub(1);
                            *refs > 0
                        }
                        None => false,
                    };
                    if !held && self.is_link_failed(l) {
                        self.restore_link(l);
                        out.stale = Some(StaleState::Links);
                    }
                }
            }
        }
        out
    }

    /// The overlay links a partition of the (clamped) contiguous node
    /// range `first..first+count` severs: those with exactly one
    /// endpoint inside it.
    fn crossing_links(&self, first: u32, count: u32) -> Vec<OverlayLinkId> {
        let nodes = self.nodes.len() as u32;
        let (lo, hi) = (first.min(nodes), first.saturating_add(count).min(nodes));
        let inside = |n: OverlayNodeId| n.0 >= lo && n.0 < hi;
        self.overlay
            .links()
            .filter(|&l| {
                let (a, b) = self.overlay.link_endpoints(l);
                inside(a) != inside(b)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Live-session repair: degrade / splice / abandon
    // ------------------------------------------------------------------

    /// Releases the commitments of `(lo, hi)`'s vertices and every edge
    /// touching the span, merges the span into any prior broken range,
    /// and opens (or keeps) the session's repair ticket. The healthy
    /// prefix/suffix commitments are untouched — that is the
    /// make-before-break half the splice relies on.
    fn degrade_session_span(&mut self, sid: SessionId, (lo, hi): Span, now: SimTime) {
        let (request, released_nodes, released_links, lo, hi) = {
            let s = self.sessions.get(sid).expect("degrading a live session");
            let old = s.broken;
            let (lo, hi) = match old {
                Some((a, b)) => (lo.min(a), hi.max(b)),
                None => (lo, hi),
            };
            debug_assert!(hi < s.composition.assignment.len());
            let in_old_span = |v: usize| matches!(old, Some((a, b)) if v >= a && v <= b);
            let edge_in = |e: usize, a: usize, b: usize| e + 1 >= a && e <= b;
            let in_old_edges = |e: usize| matches!(old, Some((a, b)) if edge_in(e, a, b));
            let mut released_nodes: Vec<(OverlayNodeId, ResourceVector)> = Vec::new();
            for v in lo..=hi {
                if in_old_span(v) {
                    continue;
                }
                let node = s.composition.assignment[v].node;
                let demand = s.request_spec.vertex_demand(&self.registry, v);
                released_nodes.push((node, demand));
            }
            let bw = s.request_spec.bandwidth_kbps;
            let mut released_links: Vec<(OverlayLinkId, f64)> = Vec::new();
            for (e, path) in s.composition.links.iter().enumerate() {
                if !edge_in(e, lo, hi) || in_old_edges(e) {
                    continue;
                }
                for &l in &path.links {
                    released_links.push((l, bw));
                }
            }
            (s.request_spec.id, released_nodes, released_links, lo, hi)
        };
        for &(node, demand) in &released_nodes {
            // On a freshly failed node `fail()` already zeroed the
            // committed book; `release` saturates, keeping both sides of
            // the conservation invariant in step.
            self.nodes[node.index()].release(demand);
            self.touch_node(node);
        }
        for &(l, bw) in &released_links {
            let state = &mut self.links[l.index()];
            state.committed_kbps = (state.committed_kbps - bw).max(0.0);
            self.touch_link_index(l.index());
        }
        let s = self.sessions.get_mut(sid).expect("still live");
        for &(node, demand) in &released_nodes {
            if let Some(entry) = s.node_allocs.iter_mut().find(|(n, _)| *n == node) {
                entry.1 = entry.1.saturating_sub(&demand);
            }
        }
        for &(l, bw) in &released_links {
            if let Some(entry) = s.link_allocs.iter_mut().find(|(link, _)| *link == l) {
                entry.1 = (entry.1 - bw).max(0.0);
            }
        }
        s.node_allocs.retain(|&(_, d)| d.cpu > 1e-9 || d.memory_mb > 1e-9);
        s.link_allocs.retain(|&(_, kbps)| kbps > 1e-9);
        s.broken = Some((lo, hi));
        if let Some(binding) = s.request_spec.tenant {
            let demand: ResourceVector = released_nodes.iter().map(|&(_, d)| d).sum();
            let bw: f64 = released_links.iter().map(|&(_, k)| k).sum();
            self.tenant_ledger.record_repair_release(binding, demand, bw);
        }
        self.repair_ledger.open_ticket(request, now);
    }

    /// Splices a repaired segment into a degraded session —
    /// make-before-break's "break" half. `mini` is a committed
    /// mini-session covering exactly the broken span's functions (its
    /// resources are already committed — the "make" half); the boundary
    /// paths' bandwidth must be transiently held under `mini_request`
    /// (and those must be the *only* leases `mini_request` still holds).
    ///
    /// Re-validates Eq. 2 and Eq. 3 end-to-end on the spliced
    /// composition before any destructive step; on error nothing has
    /// changed and the caller still owns the mini-session and its
    /// leases. On success the mini-session's record is absorbed into
    /// the original (its books move over untouched — never
    /// double-committed), the boundary transients are promoted to
    /// committed bandwidth, and the repair ticket settles as repaired.
    pub fn splice_repair(
        &mut self,
        original: SessionId,
        mini: SessionId,
        mini_request: RequestId,
        prefix_path: Option<SharedPath>,
        suffix_path: Option<SharedPath>,
        now: SimTime,
    ) -> Result<(), AdmissionError> {
        let (request_id, binding, spliced, bw) = {
            let s = self.sessions.get(original).ok_or(AdmissionError::MalformedComposition)?;
            let m = self.sessions.get(mini).ok_or(AdmissionError::MalformedComposition)?;
            let (lo, hi) = s.broken.ok_or(AdmissionError::MalformedComposition)?;
            let nv = s.composition.assignment.len();
            let seg = hi - lo + 1;
            if m.composition.assignment.len() != seg
                || prefix_path.is_some() != (lo > 0)
                || suffix_path.is_some() != (hi + 1 < nv)
            {
                return Err(AdmissionError::MalformedComposition);
            }
            debug_assert!(m.request_spec.tenant.is_none(), "mini-sessions are tenant-less");
            let mut composition = s.composition.clone();
            composition.assignment[lo..=hi].copy_from_slice(&m.composition.assignment);
            for e in 0..seg.saturating_sub(1) {
                composition.links[lo + e] = m.composition.links[e].clone();
            }
            if let Some(p) = &prefix_path {
                composition.links[lo - 1] = p.clone();
            }
            if let Some(p) = &suffix_path {
                composition.links[hi] = p.clone();
            }
            // Eq. 2 + Eq. 3 end-to-end on the spliced composition. Eq. 4/5
            // need no re-check: every spliced resource is either already
            // committed (the mini segment) or transiently held (boundary
            // bandwidth) — checking them against *availability* would
            // double-count the very make-before-break holds protecting
            // this splice.
            self.check_assignment(&s.request_spec, &composition)?;
            (s.request_spec.id, s.request_spec.tenant, composition, s.request_spec.bandwidth_kbps)
        };
        // Break half: absorb the mini-session (books move, not change)
        // and promote the boundary holds.
        let m = self.sessions.remove(mini).expect("checked above");
        let held = self.release_request_transients(mini_request);
        self.promote_released_leases(held);
        let mut boundary_allocs: Vec<(OverlayLinkId, f64)> = Vec::new();
        for p in prefix_path.iter().chain(suffix_path.iter()) {
            for &l in &p.links {
                self.links[l.index()].committed_kbps += bw;
                self.touch_link_index(l.index());
                boundary_allocs.push((l, bw));
            }
        }
        let s = self.sessions.get_mut(original).expect("checked above");
        s.composition = spliced;
        for &(node, demand) in &m.node_allocs {
            match s.node_allocs.iter_mut().find(|(n, _)| *n == node) {
                Some(entry) => entry.1 += demand,
                None => s.node_allocs.push((node, demand)),
            }
        }
        for &(l, kbps) in m.link_allocs.iter().chain(boundary_allocs.iter()) {
            match s.link_allocs.iter_mut().find(|(link, _)| *link == l) {
                Some(entry) => entry.1 += kbps,
                None => s.link_allocs.push((l, kbps)),
            }
        }
        s.broken = None;
        if let Some(binding) = binding {
            let demand: ResourceVector = m.node_allocs.iter().map(|&(_, d)| d).sum();
            let grow_bw: f64 = m.link_allocs.iter().map(|&(_, k)| k).sum::<f64>()
                + boundary_allocs.iter().map(|&(_, k)| k).sum::<f64>();
            self.tenant_ledger.record_repair_grow(binding, demand, grow_bw);
        }
        self.repair_ledger.record_repaired(request_id, now, true);
        Ok(())
    }

    /// Gives up on *splicing* a degraded session but hands it to the
    /// restart path instead of settling its ticket: the session is
    /// terminated (`Killed`) while the ticket stays open, to be settled
    /// as restored or abandoned by the failover recompose. Returns the
    /// request specification for that recompose, `None` for unknown
    /// sessions.
    pub fn terminate_for_restart(&mut self, id: SessionId) -> Option<Request> {
        self.teardown_session(id, SessionCloseCause::Killed).map(|s| s.request_spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use crate::composition::Composition;
    use crate::fgraph::FunctionGraph;
    use crate::function::FunctionId;
    use crate::qos::QosRequirement;
    use crate::system::tests::{build_system, commit_n, request_and_composition};

    /// Regression for the old HashMap-iteration hazard: termination
    /// order must be ascending by session id even after arena slots
    /// have been freed and recycled out of id order.
    #[test]
    fn terminate_order_is_ascending_after_slot_reuse() {
        let mut sys = build_system(12, 30);
        let (request, composition) = request_and_composition(&mut sys);
        let ids = commit_n(&mut sys, &request, &composition, 1000, 4);
        // Free slots 1 and 3 (LIFO free list: slot 3 is recycled first,
        // so the newest session lands in a *lower* slot than an older
        // one — exactly the case that breaks order-sensitive iteration).
        assert!(sys.close_session(ids[1]));
        assert!(sys.close_session(ids[3]));
        let more = commit_n(&mut sys, &request, &composition, 2000, 2);
        assert!(more.iter().all(|m| m > ids.last().unwrap()), "external ids stay monotonic");
        let orphaned = sys.fail_node(composition.assignment[0].node, RepairPolicy::Terminate, SimTime::ZERO).1.orphaned;
        assert_eq!(orphaned.len(), 4);
        let order: Vec<u64> = orphaned.iter().map(|r| r.id.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "failover recomposition order must be ascending by id");
    }

    /// A three-function path request whose middle function has at least
    /// two candidates (so the middle hop can be re-probed after a
    /// crash), plus a qualified composition for it.
    fn repairable_request_and_composition(sys: &mut StreamSystem) -> (Request, Composition) {
        let reg_len = sys.registry().len() as u16;
        let mid = (0..reg_len)
            .map(FunctionId)
            .find(|&f| sys.candidates(f).len() >= 2)
            .expect("some function has two candidates");
        let mut ends =
            (0..reg_len).map(FunctionId).filter(|&f| f != mid && !sys.candidates(f).is_empty());
        let first = ends.next().expect("enough hosted functions");
        let last = ends.next().expect("enough hosted functions");
        let request = Request {
            id: RequestId(1),
            graph: FunctionGraph::path(vec![first, mid, last]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(1.0, 4.0),
            bandwidth_kbps: 10.0,
            stream_rate_kbps: 100.0,
            tenant: None,
        };
        let c0 = sys.candidates(first)[0];
        let c1 = sys.candidates(mid)[0];
        let c2 = sys.candidates(last)[0];
        let p01 = sys.virtual_path(c0.node, c1.node).expect("connected overlay");
        let p12 = sys.virtual_path(c1.node, c2.node).expect("connected overlay");
        let composition = Composition { assignment: vec![c0, c1, c2], links: vec![p01, p12] };
        (request, composition)
    }

    #[test]
    fn degrade_then_splice_repairs_in_place() {
        let mut sys = build_system(41, 30);
        let auditor = crate::audit::SystemAuditor;
        let (request, composition) = repairable_request_and_composition(&mut sys);
        let (c0, c1, c2) =
            (composition.assignment[0], composition.assignment[1], composition.assignment[2]);
        let sid = sys.commit_session(&request, composition).expect("qualified");
        let t0 = SimTime::from_secs(10);

        let outcome = sys.crash_component(c1, RepairPolicy::Repair, t0);
        assert_eq!(outcome.degraded, vec![sid]);
        assert!(outcome.orphaned.is_empty());
        let s = sys.session(sid).expect("session survives the fault");
        assert!(s.is_degraded());
        assert_eq!(s.broken_span(), Some((1, 1)));
        assert!(sys.repair_ledger().ticket(request.id).is_some());
        let mid_audit = auditor.audit_at(&sys, Some(t0));
        assert!(mid_audit.is_clean(), "degraded session must audit clean: {mid_audit}");

        // Make-before-break: commit a replacement mini-session for the
        // broken hop, hold the boundary paths transiently, then splice.
        let mid = request.graph.function(1);
        let replacements: Vec<ComponentId> =
            sys.candidates(mid).iter().copied().filter(|&c| c != c1).collect();
        assert!(!replacements.is_empty(), "crash leaves a replacement candidate");
        let mini_request =
            Request { id: RequestId(0x8000_0000_0000_0000 | 1), graph: FunctionGraph::path(vec![mid]), ..request.clone() };
        let (c1b, mini) = replacements
            .iter()
            .find_map(|&c| {
                sys.commit_session(&mini_request, Composition { assignment: vec![c], links: vec![] })
                    .ok()
                    .map(|m| (c, m))
            })
            .expect("a replacement segment commits");
        let prefix = sys.virtual_path(c0.node, c1b.node).expect("connected overlay");
        let suffix = sys.virtual_path(c1b.node, c2.node).expect("connected overlay");
        let expires = SimTime::from_secs(60);
        assert!(sys.reserve_path_transient(mini_request.id, 0, &prefix, request.bandwidth_kbps, expires));
        assert!(sys.reserve_path_transient(mini_request.id, 1, &suffix, request.bandwidth_kbps, expires));

        let t1 = SimTime::from_secs(14);
        sys.splice_repair(sid, mini, mini_request.id, Some(prefix), Some(suffix), t1)
            .expect("splice lands");

        let s = sys.session(sid).expect("repaired in place");
        assert!(!s.is_degraded());
        assert_eq!(s.composition.assignment[1], c1b);
        assert_eq!(sys.session_count(), 1, "mini-session absorbed, not left live");
        assert!(!sys.has_session_for(mini_request.id));
        let ledger = sys.repair_ledger();
        assert_eq!((ledger.repaired, ledger.validated), (1, 1));
        assert!(ledger.reconciles());
        assert!((ledger.mttr_stats().sum - 4.0).abs() < 1e-9, "MTTR runs fault -> splice");
        let report = auditor.audit_at(&sys, Some(t1));
        assert!(report.is_clean(), "repaired session must audit clean: {report}");
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
    }

    /// Giving up the way a run does: the restart teardown leaves the
    /// ticket open, and the failed restart settles it as abandoned.
    #[test]
    fn giving_up_settles_ticket_and_frees_books() {
        let mut sys = build_system(42, 30);
        let auditor = crate::audit::SystemAuditor;
        let (request, composition) = repairable_request_and_composition(&mut sys);
        let c1 = composition.assignment[1];
        let sid = sys.commit_session(&request, composition).expect("qualified");
        sys.crash_component(c1, RepairPolicy::Repair, SimTime::from_secs(5));
        let restart = sys.terminate_for_restart(sid).expect("a live session");
        assert_eq!(restart.id, request.id);
        assert_eq!(sys.session_count(), 0);
        assert!(sys.repair_ledger().ticket(request.id).is_some(), "the teardown leaves the ticket open");
        sys.repair_ledger_mut().record_abandoned(request.id);
        let ledger = sys.repair_ledger();
        assert_eq!(ledger.abandoned, 1);
        assert_eq!(ledger.cancelled, 0, "the teardown must not settle it via the close hook");
        assert!(ledger.reconciles());
        let report = auditor.audit(&sys);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn closing_a_degraded_session_cancels_its_ticket() {
        let mut sys = build_system(43, 30);
        let (request, composition) = repairable_request_and_composition(&mut sys);
        let c1 = composition.assignment[1];
        let sid = sys.commit_session(&request, composition).expect("qualified");
        sys.crash_component(c1, RepairPolicy::Repair, SimTime::from_secs(5));
        assert!(sys.close_session(sid));
        let ledger = sys.repair_ledger();
        assert_eq!((ledger.cancelled, ledger.abandoned), (1, 0));
        assert!(ledger.reconciles());
        let _ = request;
    }

    /// The repair ledger follows its data: a freshly generated system
    /// tickets every session a node failure degrades.
    #[test]
    fn degrading_under_repair_always_opens_a_ticket() {
        let mut sys = build_system(45, 30);
        let (request, composition) = repairable_request_and_composition(&mut sys);
        let node = composition.assignment[1].node;
        let sids = commit_n(&mut sys, &request, &composition, 100, 3);
        let (_, outcome) = sys.fail_node(node, RepairPolicy::Repair, SimTime::from_secs(5));
        assert_eq!(outcome.degraded, sids);
        for &sid in &sids {
            let session = sys.session(sid).expect("degraded, not killed");
            assert!(sys.repair_ledger().ticket(session.request_spec.id).is_some(), "{sid:?} has no ticket");
        }
        assert_eq!(sys.repair_ledger().opened, sids.len() as u64);
        let report = crate::audit::SystemAuditor.audit(&sys);
        assert!(report.is_clean(), "{report}");
    }

    /// Regression: a component crash while a two-phase setup holds a
    /// transient lease on it must reclaim that lease — before the fix,
    /// `crash_component` undeployed the component but left its node
    /// leases live, leaking reserved capacity forever.
    #[test]
    fn crash_reclaims_in_flight_transient_leases() {
        let mut sys = build_system(44, 30);
        let (request, composition) = request_and_composition(&mut sys);
        let comp = composition.assignment[0];
        let probe = RequestId(77);
        assert!(sys.reserve_component_transient(
            probe,
            comp,
            ResourceVector::new(0.5, 2.0),
            SimTime::from_secs(60),
        ));
        assert_eq!(sys.node(comp.node).transient_count(), 1);
        let struck = sys.crash_component(comp, RepairPolicy::Terminate, SimTime::ZERO);
        assert!(struck.orphaned.is_empty());
        assert_eq!(
            sys.node(comp.node).transient_count(),
            0,
            "crash must reclaim the in-flight transient lease"
        );
        assert!(sys.node(comp.node).transient_total().is_zero());
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
        let report = crate::audit::SystemAuditor.audit_at(&sys, Some(SimTime::from_secs(0)));
        assert!(report.is_clean(), "{report}");
        let _ = request;
    }
}
