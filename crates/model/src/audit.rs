//! System-wide invariant auditing.
//!
//! [`SystemAuditor`] walks a [`StreamSystem`] and checks the paper's
//! conservation constraints *as code* — the same Eqs. 2/4/5 the
//! allocation engine enforces at admission time, re-derived from first
//! principles after the fact. Chaos experiments run it after every
//! mutation batch; a clean report means faults, failovers, and
//! recompositions left the bookkeeping exactly consistent.
//!
//! What is checked:
//!
//! * **Node resources** (Eq. 4): committed + transient ≤ capacity; a
//!   failed node holds nothing and hosts nothing.
//! * **Conservation**: per node, the sum of live sessions' recorded
//!   allocations equals the node's committed vector; per link, the sum
//!   of sessions' bandwidth equals the link's committed kbit/s.
//! * **Session coverage** (Eq. 2): every live session's assignment
//!   matches its function graph — right function, live component,
//!   non-failed host, compatible interface rate — and none of its
//!   virtual links crosses a failed link or relays through a failed
//!   node.
//! * **Distinct functions**: no node hosts two live components of the
//!   same function.
//! * **Dense-index coherence**: every live component has a dense id,
//!   dense ids are unique, and all are below the dense counter.
//! * **Fail-stop coherence**: a node's processing plane and its overlay
//!   forwarding plane fail together.
//! * **Path-cache purity**: no memoized virtual path traverses a failed
//!   node (guarding the targeted invalidation of the route memo).
//! * **Reservation conservation**: the lease ledger reconciles
//!   (`created == expired + released + promoted + live`), no request
//!   holds leases while its session is live, and — via
//!   [`SystemAuditor::audit_at`] with a reference instant — no lease
//!   outlives its expiry past the reclamation sweep.
//! * **Lease-directory exactness**: the index of where leases live
//!   ([`crate::lease`]) equals its recomputation by full scan — no
//!   recorded site without a lease, no lease on an unrecorded site.
//!
//! End-to-end QoS (Eq. 3) is deliberately *not* re-audited: effective
//! component delay inflates with node load, and the modelled system
//! keeps admitted sessions running through such drift rather than
//! tearing them down.
//!
//! The conservation, lease, tenant and repair sections re-derive what
//! they need from one walk over the session table in ascending id order
//! (`SessionTotals`), so their f64 folds are the same in every pass.
//!
//! [`AuditCursor`] gives the same report at the cost of what changed
//! since its last pass. Its rule: if the last pass was clean and
//! everything dirty since then checks clean, the pass is clean;
//! otherwise it runs the full [`SystemAuditor::audit_at`]. Nodes,
//! conservation, links, leases, tenants and the repair ledger are
//! checked in full on every pass. The two sections that dominated a full
//! pass are checked by their dirty sets:
//!
//! * **Sessions**: the new ones (every id issued since the last pass),
//!   the ones mutated since (the session arena's `get_mut` log), and,
//!   when a node, link or dense id flipped its failed or retired flag,
//!   every one hosted on, relaying through or streaming over it. That
//!   last set comes from a scan of the sessions' own contents, not from
//!   the system's bookkeeping.
//! * **Path memo**: the entries the overlay's memo-miss arm logged since
//!   the last pass; the whole memo only after a node newly failed.
//!
//! Each of the two logs has exactly one writer, and the cursor is their
//! one reader.

use acp_simcore::SimTime;
use acp_topology::{OverlayLinkId, OverlayNodeId};

use crate::component::{ComponentId, DenseComponentId};
use crate::function::FunctionId;
use crate::resources::{ResourceKind, ResourceVector};
use crate::request::RequestId;
use crate::system::{Session, SessionId, StreamSystem};

/// A single invariant violation found by [`SystemAuditor::audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A node's committed + transient resources exceed its capacity
    /// (Eq. 4 broken after the fact).
    NodeOverCommitted {
        /// The overloaded node.
        node: OverlayNodeId,
        /// Which resource dimension overflowed.
        kind: ResourceKind,
        /// Committed + transient on that dimension.
        used: f64,
        /// The node's capacity on that dimension.
        capacity: f64,
    },
    /// A failed node still holds components, reservations, or
    /// commitments.
    FailedNodeActive {
        /// The failed-but-active node.
        node: OverlayNodeId,
        /// What it still holds.
        detail: &'static str,
    },
    /// A node hosts two live components of the same function.
    DuplicateFunction {
        /// The offending node.
        node: OverlayNodeId,
        /// The duplicated function.
        function: FunctionId,
    },
    /// The dense component index disagrees with the live component set.
    DenseIndex {
        /// The component whose dense mapping is broken.
        component: ComponentId,
        /// How it is broken.
        detail: &'static str,
    },
    /// A node's committed resources differ from the sum of live
    /// sessions' recorded allocations on it.
    NodeConservation {
        /// The node whose books do not balance.
        node: OverlayNodeId,
        /// The unbalanced dimension.
        kind: ResourceKind,
        /// What the node records as committed.
        committed: f64,
        /// What the live sessions sum to.
        expected: f64,
    },
    /// A link's committed bandwidth differs from the sum of live
    /// sessions' recorded allocations on it.
    LinkConservation {
        /// The link whose books do not balance.
        link: OverlayLinkId,
        /// What the link records as committed (kbit/s).
        committed: f64,
        /// What the live sessions sum to (kbit/s).
        expected: f64,
    },
    /// A link's committed bandwidth exceeds its (possibly degraded)
    /// capacity (Eq. 5 broken after the fact).
    LinkOverCommitted {
        /// The saturated link.
        link: OverlayLinkId,
        /// Committed bandwidth (kbit/s).
        committed: f64,
        /// Current capacity (kbit/s).
        capacity: f64,
    },
    /// A failed link reports available bandwidth.
    FailedLinkCarries {
        /// The failed link.
        link: OverlayLinkId,
        /// The bandwidth it still reports (kbit/s).
        available: f64,
    },
    /// A live session's composition no longer covers its function graph
    /// (Eq. 2): wrong function, dangling component, failed host,
    /// incompatible rate, or inadmissible placement.
    SessionCoverage {
        /// The broken session.
        session: SessionId,
        /// The graph vertex whose assignment is broken (`usize::MAX`
        /// when the composition shape itself is malformed).
        vertex: usize,
        /// How it is broken.
        detail: &'static str,
    },
    /// A live session streams over a failed link or relays through a
    /// failed node.
    SessionOnFailedRoute {
        /// The session that should have been terminated.
        session: SessionId,
        /// What its route crosses.
        detail: &'static str,
    },
    /// The processing plane and forwarding plane of a node disagree
    /// about being failed.
    FailStopIncoherent {
        /// The node whose two planes disagree.
        node: OverlayNodeId,
    },
    /// A derived view (e.g. the global-state board) is structurally
    /// incoherent with the system it mirrors. Staleness is *not* a
    /// violation — coarse views are stale by design — but dangling
    /// dense ids, mismatched table sizes, or regressed version counters
    /// are.
    ViewIncoherent {
        /// Which view and how it is broken.
        detail: String,
    },
    /// A memoized virtual path traverses a failed node.
    CachedPathThroughFailed {
        /// Memo key: path source.
        from: OverlayNodeId,
        /// Memo key: path destination.
        to: OverlayNodeId,
        /// The failed node on the cached path.
        via: OverlayNodeId,
    },
    /// The reservation-lease ledger does not reconcile: every lease ever
    /// created must be accounted as expired, released, promoted, or
    /// still live (`created == expired + released + promoted + live`).
    LeaseLedgerMismatch {
        /// Leases ever created.
        created: u64,
        /// Leases dropped by the expiry sweep.
        expired: u64,
        /// Leases released explicitly.
        released: u64,
        /// Leases promoted to committed residuals.
        promoted: u64,
        /// Leases currently outstanding.
        live: u64,
    },
    /// A node still holds transient leases past their expiry at the
    /// audited instant (the reclamation sweep must have recovered them).
    NodeLeaseOutlivedExpiry {
        /// The node holding stale leases.
        node: OverlayNodeId,
        /// How many stale leases it holds.
        count: usize,
    },
    /// An overlay link still holds transient leases past their expiry at
    /// the audited instant.
    LinkLeaseOutlivedExpiry {
        /// The link holding stale leases.
        link: OverlayLinkId,
        /// How many stale leases it holds.
        count: usize,
    },
    /// A request with a live session still holds transient leases — the
    /// confirmation must release or promote every lease of its request,
    /// so surviving leases here mean double-held resources.
    LeaseHeldByCommittedRequest {
        /// The request holding both a session and leases.
        request: u64,
    },
    /// The lease directory disagrees with a full scan of the node and
    /// link lease vectors: a release or sweep would miss a lease, or
    /// visit a site that holds none.
    LeaseDirectoryMismatch {
        /// The row that disagrees.
        detail: String,
    },
    /// A tenant's ledger does not reconcile: admitted sessions are not
    /// all accounted for as closed + killed + preempted + live.
    TenantLedgerMismatch {
        /// The tenant whose ledger is off.
        tenant: u32,
        /// Sessions admitted.
        admitted: u64,
        /// Orderly closes recorded.
        closed: u64,
        /// Fault kills recorded.
        killed: u64,
        /// Preemptions recorded.
        preempted: u64,
        /// Live sessions per the ledger.
        live: u64,
    },
    /// A tenant's ledger disagrees with the live sessions: the recorded
    /// live count or committed-resource sums don't match what the
    /// session table derives (which the conservation pass in turn ties
    /// to the global Eq. 2/4/5 brackets).
    TenantConservation {
        /// The inconsistent tenant.
        tenant: u32,
        /// What disagrees.
        detail: String,
    },
    /// A tenant above `BestEffort` has preemptions recorded — preemption
    /// under pressure may only ever reclaim `BestEffort` sessions.
    PreemptionOutsideBestEffort {
        /// The wrongly preempted tenant.
        tenant: u32,
        /// Its tier label.
        tier: &'static str,
        /// Preemptions recorded against it.
        preempted: u64,
    },
    /// A `Gold` tenant was shed by the congestion gate while lower tiers
    /// held live sessions — gold starved on resources held by lower
    /// tiers.
    GoldStarvation {
        /// The starved gold tenant.
        tenant: u32,
        /// Starvation events recorded.
        starved: u64,
    },
    /// The repair ledger does not reconcile: opened tickets are not all
    /// accounted for as repaired + restored + abandoned + cancelled +
    /// still-open.
    RepairLedgerMismatch {
        /// Tickets ever opened.
        opened: u64,
        /// Settled by segment splice.
        repaired: u64,
        /// Settled by full restart.
        restored: u64,
        /// Settled by giving up.
        abandoned: u64,
        /// Cancelled by unrelated session closes.
        cancelled: u64,
        /// Tickets still open.
        open: u64,
    },
    /// A repaired session skipped the end-to-end Eq. 2/3 re-validation
    /// at splice time — every splice must re-qualify the whole session
    /// before grafting, so `validated` must equal `repaired`.
    RepairValidationGap {
        /// Splices recorded as repaired.
        repaired: u64,
        /// Splices that passed the end-to-end re-check.
        validated: u64,
    },
    /// A session's degraded state and the repair ledger's open tickets
    /// disagree (degraded session without a ticket, or an open ticket
    /// whose live session is not degraded).
    RepairStateIncoherent {
        /// The incoherent request.
        request: u64,
        /// What disagrees.
        detail: &'static str,
    },
    /// Two live sessions share one request id — the make-before-break
    /// splice double-committed (the repair mini-session must be removed
    /// within the same event that grafts it).
    DuplicateSessionRequest {
        /// The doubly committed request.
        request: u64,
        /// How many live sessions carry it.
        sessions: usize,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::NodeOverCommitted { node, kind, used, capacity } => {
                write!(f, "{node}: {kind:?} over-committed ({used} of {capacity})")
            }
            AuditViolation::FailedNodeActive { node, detail } => {
                write!(f, "{node}: failed but still holds {detail}")
            }
            AuditViolation::DuplicateFunction { node, function } => {
                write!(f, "{node}: hosts {function} twice")
            }
            AuditViolation::DenseIndex { component, detail } => {
                write!(f, "{component}: dense index {detail}")
            }
            AuditViolation::NodeConservation { node, kind, committed, expected } => {
                write!(f, "{node}: {kind:?} committed {committed} but sessions sum to {expected}")
            }
            AuditViolation::LinkConservation { link, committed, expected } => {
                write!(f, "link {}: committed {committed} but sessions sum to {expected}", link.0)
            }
            AuditViolation::LinkOverCommitted { link, committed, capacity } => {
                write!(f, "link {}: committed {committed} exceeds capacity {capacity}", link.0)
            }
            AuditViolation::FailedLinkCarries { link, available } => {
                write!(f, "link {}: failed but reports {available} kbit/s available", link.0)
            }
            AuditViolation::SessionCoverage { session, vertex, detail } => {
                write!(f, "{session}: vertex {vertex} {detail}")
            }
            AuditViolation::SessionOnFailedRoute { session, detail } => {
                write!(f, "{session}: routes over {detail}")
            }
            AuditViolation::FailStopIncoherent { node } => {
                write!(f, "{node}: processing and forwarding planes disagree about failure")
            }
            AuditViolation::ViewIncoherent { detail } => {
                write!(f, "derived view incoherent: {detail}")
            }
            AuditViolation::CachedPathThroughFailed { from, to, via } => {
                write!(f, "cached path {from}->{to} traverses failed {via}")
            }
            AuditViolation::LeaseLedgerMismatch { created, expired, released, promoted, live } => {
                write!(
                    f,
                    "lease ledger: created {created} != expired {expired} + released {released} + promoted {promoted} + live {live}"
                )
            }
            AuditViolation::NodeLeaseOutlivedExpiry { node, count } => {
                write!(f, "{node}: holds {count} lease(s) past expiry")
            }
            AuditViolation::LinkLeaseOutlivedExpiry { link, count } => {
                write!(f, "link {}: holds {count} lease(s) past expiry", link.0)
            }
            AuditViolation::LeaseHeldByCommittedRequest { request } => {
                write!(f, "request {request}: holds leases while a session is live")
            }
            AuditViolation::LeaseDirectoryMismatch { detail } => {
                write!(f, "lease directory: {detail}")
            }
            AuditViolation::TenantLedgerMismatch {
                tenant,
                admitted,
                closed,
                killed,
                preempted,
                live,
            } => {
                write!(
                    f,
                    "tenant t{tenant}: ledger admitted {admitted} != closed {closed} + killed {killed} + preempted {preempted} + live {live}"
                )
            }
            AuditViolation::TenantConservation { tenant, detail } => {
                write!(f, "tenant t{tenant}: ledger disagrees with sessions: {detail}")
            }
            AuditViolation::PreemptionOutsideBestEffort { tenant, tier, preempted } => {
                write!(f, "tenant t{tenant} ({tier}): {preempted} preemption(s) recorded outside best-effort")
            }
            AuditViolation::GoldStarvation { tenant, starved } => {
                write!(f, "tenant t{tenant} (gold): shed {starved} time(s) while lower tiers held live sessions")
            }
            AuditViolation::RepairLedgerMismatch {
                opened,
                repaired,
                restored,
                abandoned,
                cancelled,
                open,
            } => {
                write!(
                    f,
                    "repair ledger: opened {opened} != repaired {repaired} + restored {restored} + abandoned {abandoned} + cancelled {cancelled} + open {open}"
                )
            }
            AuditViolation::RepairValidationGap { repaired, validated } => {
                write!(
                    f,
                    "repair ledger: {repaired} repaired splice(s) but only {validated} passed end-to-end re-validation"
                )
            }
            AuditViolation::RepairStateIncoherent { request, detail } => {
                write!(f, "repair request {request}: {detail}")
            }
            AuditViolation::DuplicateSessionRequest { request, sessions } => {
                write!(f, "request {request}: {sessions} live sessions share it (double-commit)")
            }
        }
    }
}

/// The outcome of one [`SystemAuditor::audit`] pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Builds a report from externally collected violations (e.g. a
    /// derived-view audit in another crate).
    pub fn from_violations(violations: Vec<AuditViolation>) -> Self {
        AuditReport { violations }
    }

    /// Appends another pass's violations to this report.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations found.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True when the report carries no violations (mirrors
    /// [`Self::is_clean`] for iterator-style call sites).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in deterministic audit order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// FNV-1a digest over the rendered violations. Equal system states
    /// produce equal digests regardless of thread count or HashMap
    /// iteration order; a clean report digests to the FNV offset basis.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.violations {
            for byte in v.to_string().bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= u64::from(b'\n');
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean");
        }
        writeln!(f, "audit found {} violation(s):", self.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Re-derives and checks the system-wide invariants of a
/// [`StreamSystem`].
///
/// # Example
///
/// ```
/// use acp_model::prelude::*;
/// use acp_model::audit::SystemAuditor;
/// use acp_topology::{inet::InetConfig, overlay::{Overlay, OverlayConfig}};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
/// let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 20, neighbors: 4 }, &mut rng);
/// let system = StreamSystem::generate(
///     overlay,
///     FunctionRegistry::standard(),
///     &SystemConfig::default(),
///     &mut rng,
/// );
/// let report = SystemAuditor.audit(&system);
/// assert!(report.is_clean(), "{report}");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemAuditor;

/// Absolute slack for capacity checks (the `1e-9`-style epsilon
/// previously scattered through tests).
const EPSILON: f64 = 1e-6;
/// Relative slack for conservation sums, scaled by magnitude:
/// `|committed − Σ| ≤ EPSILON + CONSERVATION_RTOL · |Σ|`.
const CONSERVATION_RTOL: f64 = 1e-9;

impl SystemAuditor {
    /// Audits every invariant, returning all violations found (in
    /// deterministic order: nodes by index, links by index, sessions by
    /// id, cached paths by key). Equivalent to
    /// [`Self::audit_at`]`(system, None)` — without a reference instant
    /// the lease-expiry check is skipped (leases past their expiry are
    /// legitimate *between* reclamation sweeps).
    pub fn audit(&self, system: &StreamSystem) -> AuditReport {
        self.audit_at(system, None)
    }

    /// Audits every invariant; when `now` is given (an instant at or
    /// after the latest reclamation sweep), additionally checks that no
    /// transient lease has outlived its expiry.
    pub fn audit_at(&self, system: &StreamSystem, now: Option<SimTime>) -> AuditReport {
        let mut out = Vec::new();
        let totals = SessionTotals::of(system);
        self.audit_nodes(system, &mut out);
        self.audit_conservation(system, &totals, &mut out);
        self.audit_links(system, &mut out);
        self.audit_sessions(system, &mut out);
        self.audit_path_cache(system, &mut out);
        self.audit_ledgers(system, now, &totals, &mut out);
        AuditReport { violations: out }
    }

    /// The last three sections of the full pass, in its order: leases,
    /// tenants, repair.
    fn audit_ledgers(
        &self,
        system: &StreamSystem,
        now: Option<SimTime>,
        totals: &SessionTotals,
        out: &mut Vec<AuditViolation>,
    ) {
        self.audit_leases(system, now, totals, out);
        self.audit_tenants(system, totals, out);
        self.audit_repair(system, totals, out);
    }

    /// Reservation-conservation pass: the ledger half
    /// ([`Self::lease_ledger_violations`]) and — when `now` is given —
    /// no lease has outlived its expiry past the reclamation sweep.
    fn audit_leases(
        &self,
        system: &StreamSystem,
        now: Option<SimTime>,
        totals: &SessionTotals,
        out: &mut Vec<AuditViolation>,
    ) {
        self.lease_ledger_violations(system, totals, out);
        if let Some(now) = now {
            for i in 0..system.node_count() {
                let v = OverlayNodeId(i as u32);
                let count = system.node(v).expired_transient_count(now);
                if count > 0 {
                    out.push(AuditViolation::NodeLeaseOutlivedExpiry { node: v, count });
                }
            }
            for i in 0..system.link_count() {
                let l = OverlayLinkId(i as u32);
                let count = system.link_expired_transient_count(l, now);
                if count > 0 {
                    out.push(AuditViolation::LinkLeaseOutlivedExpiry { link: l, count });
                }
            }
        }
    }

    /// Tenant-isolation pass: every tenant's ledger reconciles
    /// (`admitted == closed + killed + preempted + live`), the ledger's
    /// live counts and committed-resource sums match what the session
    /// table derives (the conservation pass above ties sessions to the
    /// global Eq. 2/4/5 brackets, so matching the ledger to sessions
    /// transitively sums the per-tenant partition to those brackets),
    /// preemption counts exist only on `BestEffort` tenants, and no
    /// `Gold` tenant was starved by the congestion gate while lower
    /// tiers held live sessions.
    fn audit_tenants(&self, system: &StreamSystem, totals: &SessionTotals, out: &mut Vec<AuditViolation>) {
        let ledger = system.tenant_ledger();
        let derived = &totals.tenants;
        if ledger.is_empty() && derived.is_empty() {
            // Tenant-less: no ledger row and no session to hold one to.
            return;
        }
        let width = ledger.iter().map(|(id, _)| id.0 as usize + 1).max().unwrap_or(0).max(derived.len());
        for t in 0..width {
            let TenantTotals { live, committed, bw } = derived.get(t).copied().unwrap_or_default();
            let tenant = t as u32;
            let Some(stats) = ledger.stats(crate::tenant::TenantId(tenant)) else {
                if live > 0 {
                    out.push(AuditViolation::TenantConservation {
                        tenant,
                        detail: format!("{} live session(s) but no ledger entry", live),
                    });
                }
                continue;
            };
            if !stats.reconciles() {
                out.push(AuditViolation::TenantLedgerMismatch {
                    tenant,
                    admitted: stats.admitted,
                    closed: stats.closed,
                    killed: stats.killed,
                    preempted: stats.preempted,
                    live: stats.live,
                });
            }
            if stats.live != live {
                out.push(AuditViolation::TenantConservation {
                    tenant,
                    detail: format!("ledger live {} but sessions derive {}", stats.live, live),
                });
            }
            for (kind, derived) in committed.iter() {
                let recorded = stats.committed.get(kind);
                if (recorded - derived).abs() > self.tolerance(derived) {
                    out.push(AuditViolation::TenantConservation {
                        tenant,
                        detail: format!(
                            "ledger {kind:?} committed {recorded} but sessions sum to {derived}"
                        ),
                    });
                }
            }
            if (stats.committed_bw_kbps - bw).abs() > self.tolerance(bw) {
                out.push(AuditViolation::TenantConservation {
                    tenant,
                    detail: format!(
                        "ledger bandwidth {} kbit/s but sessions sum to {}",
                        stats.committed_bw_kbps, bw
                    ),
                });
            }
            if stats.preempted > 0 && stats.tier != crate::tenant::TenantTier::BestEffort {
                out.push(AuditViolation::PreemptionOutsideBestEffort {
                    tenant,
                    tier: stats.tier.label(),
                    preempted: stats.preempted,
                });
            }
            if stats.starved > 0 && stats.tier == crate::tenant::TenantTier::Gold {
                out.push(AuditViolation::GoldStarvation { tenant, starved: stats.starved });
            }
        }
    }

    /// Repair pass: the repair ledger reconciles (`opened == repaired +
    /// restored + abandoned + cancelled + open`), every repaired splice
    /// passed the end-to-end Eq. 2/3 re-validation, no request id is
    /// shared by two live sessions (the make-before-break mini-session
    /// must never outlive its graft — that would be a double-commit),
    /// and the per-session degraded flag stays coherent with the open
    /// tickets.
    fn audit_repair(&self, system: &StreamSystem, totals: &SessionTotals, out: &mut Vec<AuditViolation>) {
        let ledger = system.repair_ledger();
        if ledger.opened == 0 && !system.sessions().any(|s| s.is_degraded()) {
            // Fault-free: no ticket was ever opened and no session
            // waits for one.
            return;
        }
        if !ledger.reconciles() {
            out.push(AuditViolation::RepairLedgerMismatch {
                opened: ledger.opened,
                repaired: ledger.repaired,
                restored: ledger.restored,
                abandoned: ledger.abandoned,
                cancelled: ledger.cancelled,
                open: ledger.open_tickets().len() as u64,
            });
        }
        if ledger.validated != ledger.repaired {
            out.push(AuditViolation::RepairValidationGap {
                repaired: ledger.repaired,
                validated: ledger.validated,
            });
        }
        // No double-commit: each request id backs at most one live
        // session, even mid-splice (the mini-session is removed within
        // the same event that grafts its segment).
        let requests = &totals.requests;
        for run in requests.chunk_by(|a, b| a.request == b.request).filter(|run| run.len() > 1) {
            out.push(AuditViolation::DuplicateSessionRequest { request: run[0].request, sessions: run.len() });
        }
        // Degraded session ⇔ open ticket, both directions. Tickets
        // without a live session are legitimate: the terminate baseline
        // opens them after the kill, before the restart lands.
        let mut unticketed: Vec<(SessionId, u64)> = requests
            .iter()
            .filter(|r| r.degraded && ledger.ticket(RequestId(r.request)).is_none())
            .map(|r| (r.session, r.request))
            .collect();
        unticketed.sort_unstable();
        for (_, request) in unticketed {
            out.push(AuditViolation::RepairStateIncoherent {
                request,
                detail: "degraded session without an open repair ticket",
            });
        }
        for t in ledger.open_tickets() {
            // A request's degraded sessions sort after its healthy ones:
            // the first session at or past `(request, degraded)` is
            // degraded exactly when one is, and the one before it is the
            // request's exactly when it has a healthy one.
            let at = requests.partition_point(|r| (r.request, r.degraded) < (t.request.0, true));
            let degraded = requests.get(at).is_some_and(|r| r.request == t.request.0);
            if !degraded && at > 0 && requests[at - 1].request == t.request.0 {
                out.push(AuditViolation::RepairStateIncoherent {
                    request: t.request.0,
                    detail: "open ticket but its live session is not degraded",
                });
            }
        }
    }

    /// Ledger half of the lease pass: the lease ledger reconciles
    /// (`created == expired + released + promoted + live`; combined with
    /// the per-node Eq. 4 check this is the paper-side invariant
    /// committed + leased + residual = capacity), no request holds leases
    /// while its session is live, and the lease directory equals its
    /// full-scan recomputation.
    fn lease_ledger_violations(
        &self,
        system: &StreamSystem,
        totals: &SessionTotals,
        out: &mut Vec<AuditViolation>,
    ) {
        let stats = system.lease_stats();
        // Counted from the lease vectors themselves, not through the
        // directory, so a drifted directory cannot mask a leak.
        let live = (0..system.node_count())
            .map(|i| system.node(OverlayNodeId(i as u32)).transient_count())
            .chain((0..system.link_count()).map(|i| system.link_transient_count(OverlayLinkId(i as u32))))
            .sum::<usize>() as u64;
        if !stats.reconciles(live) {
            out.push(AuditViolation::LeaseLedgerMismatch {
                created: stats.created,
                expired: stats.expired,
                released: stats.released,
                promoted: stats.promoted,
                live,
            });
        }
        let leased = system.leased_requests();
        if !leased.is_empty() {
            for request in leased {
                if totals.requests.binary_search_by_key(&request, |r| r.request).is_ok() {
                    out.push(AuditViolation::LeaseHeldByCommittedRequest { request });
                }
            }
        }
        out.extend(
            system
                .lease_directory_drift()
                .into_iter()
                .map(|detail| AuditViolation::LeaseDirectoryMismatch { detail }),
        );
    }

    fn audit_nodes(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        let mut seen_dense = vec![false; system.dense_component_count()];
        let mut functions: Vec<FunctionId> = Vec::new();
        for i in 0..system.node_count() {
            let v = OverlayNodeId(i as u32);
            let node = system.node(v);

            // Eq. 4: committed + transient never exceed capacity.
            let used = node.committed() + node.transient_total();
            for (kind, amount) in used.iter() {
                let cap = node.capacity().get(kind);
                if amount > cap + EPSILON {
                    out.push(AuditViolation::NodeOverCommitted { node: v, kind, used: amount, capacity: cap });
                }
            }

            // Fail-stop: a failed node holds nothing…
            if node.is_failed() {
                if node.component_count() > 0 {
                    out.push(AuditViolation::FailedNodeActive { node: v, detail: "components" });
                }
                if node.transient_count() > 0 {
                    out.push(AuditViolation::FailedNodeActive { node: v, detail: "transient reservations" });
                }
                if !node.committed().is_zero() {
                    out.push(AuditViolation::FailedNodeActive { node: v, detail: "committed resources" });
                }
                if !node.available().is_zero() {
                    out.push(AuditViolation::FailedNodeActive { node: v, detail: "available resources" });
                }
            }
            // …and its forwarding plane fails with it.
            if system.overlay().is_node_down(v) != node.is_failed() {
                out.push(AuditViolation::FailStopIncoherent { node: v });
            }

            // Distinct functions per node.
            functions.clear();
            functions.extend(node.components().map(|c| c.function));
            functions.sort_unstable();
            for pair in functions.windows(2) {
                if pair[0] == pair[1] {
                    out.push(AuditViolation::DuplicateFunction { node: v, function: pair[0] });
                }
            }

            // Dense-index coherence for every live component.
            for c in node.components() {
                match system.dense_of(c.id) {
                    None => out.push(AuditViolation::DenseIndex { component: c.id, detail: "missing for live component" }),
                    Some(d) if d.0 as usize >= system.dense_component_count() => {
                        out.push(AuditViolation::DenseIndex { component: c.id, detail: "beyond the dense counter" })
                    }
                    Some(d) => {
                        if seen_dense[d.0 as usize] {
                            out.push(AuditViolation::DenseIndex { component: c.id, detail: "shared by two live components" });
                        }
                        seen_dense[d.0 as usize] = true;
                    }
                }
            }
        }
    }

    /// Conservation: the session table is the ground truth for committed
    /// resources; node and link books must agree with its sums.
    fn audit_conservation(&self, system: &StreamSystem, totals: &SessionTotals, out: &mut Vec<AuditViolation>) {
        for (i, expected) in totals.node_sum.iter().enumerate() {
            let v = OverlayNodeId(i as u32);
            let committed = system.node(v).committed();
            for (kind, want) in expected.iter() {
                let got = committed.get(kind);
                if (got - want).abs() > self.tolerance(want) {
                    out.push(AuditViolation::NodeConservation { node: v, kind, committed: got, expected: want });
                }
            }
        }
        for (i, &want) in totals.link_sum.iter().enumerate() {
            let l = OverlayLinkId(i as u32);
            let got = system.link_committed(l);
            if (got - want).abs() > self.tolerance(want) {
                out.push(AuditViolation::LinkConservation { link: l, committed: got, expected: want });
            }
        }
    }

    /// Link capacity / fail-stop checks.
    fn audit_links(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        for i in 0..system.link_count() {
            let l = OverlayLinkId(i as u32);
            let committed = system.link_committed(l);
            let capacity = system.link_capacity(l);
            if committed > capacity + EPSILON {
                out.push(AuditViolation::LinkOverCommitted { link: l, committed, capacity });
            }
            if system.is_link_failed(l) && system.link_available(l) > 0.0 {
                out.push(AuditViolation::FailedLinkCarries { link: l, available: system.link_available(l) });
            }
        }
    }

    /// Session coverage / failed-route checks, sessions in id order.
    fn audit_sessions(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        for s in system.sessions_by_id() {
            self.audit_session(system, s, out);
        }
    }

    /// Coverage and failed-route checks of one live session. They read
    /// the session itself, the component records at its assignment, its
    /// hosts' and relays' failed flags and its links' failed flags —
    /// what an [`AuditCursor`]'s flip scan looks for.
    fn audit_session(&self, system: &StreamSystem, s: &Session, out: &mut Vec<AuditViolation>) {
        let request = &s.request_spec;
        if !s.composition.is_shape_valid(&request.graph) {
            out.push(AuditViolation::SessionCoverage {
                session: s.id,
                vertex: usize::MAX,
                detail: "composition shape does not match the function graph",
            });
            return;
        }
        // Eq. 2 per vertex, against the *live* component records. A
        // degraded session's broken span is exempt: its commitments
        // were released at degrade time and its stale assignment
        // entries are replaced (and re-validated end-to-end) by the
        // splice — once `broken` clears, the full check applies.
        for vertex in request.graph.vertices() {
            if s.vertex_is_broken(vertex) {
                continue;
            }
            let id = s.composition.assignment[vertex];
            let Some(component) = system.node(id.node).component(id.slot) else {
                out.push(AuditViolation::SessionCoverage { session: s.id, vertex, detail: "assigned a dead component" });
                continue;
            };
            if component.function != request.graph.function(vertex) {
                out.push(AuditViolation::SessionCoverage { session: s.id, vertex, detail: "assigned the wrong function" });
            }
            if system.node(id.node).is_failed() {
                out.push(AuditViolation::SessionCoverage { session: s.id, vertex, detail: "hosted on a failed node" });
            }
            if !component.accepts_rate(request.stream_rate_kbps) {
                out.push(AuditViolation::SessionCoverage { session: s.id, vertex, detail: "interface cannot accept the stream rate" });
            }
        }
        // The session's streams must not cross failed links or relay
        // through failed nodes.
        for &(link, _) in s.link_allocations() {
            if system.is_link_failed(link) {
                out.push(AuditViolation::SessionOnFailedRoute { session: s.id, detail: "a failed link" });
            }
        }
        if s.composition
            .links
            .iter()
            .enumerate()
            .filter(|&(e, _)| !s.edge_is_broken(e))
            .any(|(_, p)| p.nodes.iter().any(|&n| system.is_node_failed(n)))
        {
            out.push(AuditViolation::SessionOnFailedRoute { session: s.id, detail: "a failed relay node" });
        }
    }

    /// Failed-node scan over the memoized paths, reported in key order.
    /// The memo is a HashMap and outlives node recoveries, so the scan
    /// runs in its order and only the violations — normally none — are
    /// sorted, by `(from, to, position on the path)`. With no node failed
    /// there is nothing to report, and the memo is not walked.
    fn audit_path_cache(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        if !system.overlay().nodes().any(|v| system.is_node_failed(v)) {
            return;
        }
        let mut through_failed = Vec::new();
        for ((from, to), path) in system.overlay().cached_paths() {
            for (position, &via) in path.into_iter().flat_map(|p| p.nodes.iter().enumerate()) {
                if system.is_node_failed(via) {
                    through_failed.push((from, to, position, via));
                }
            }
        }
        through_failed.sort_unstable();
        out.extend(
            through_failed
                .into_iter()
                .map(|(from, to, _, via)| AuditViolation::CachedPathThroughFailed { from, to, via }),
        );
    }

    fn tolerance(&self, magnitude: f64) -> f64 {
        EPSILON + CONSERVATION_RTOL * magnitude.abs()
    }
}

/// What the conservation, lease, tenant and repair sections re-derive
/// from the session table, in one walk in ascending id order: the f64
/// folds are the same in every pass, and no section walks again.
struct SessionTotals {
    /// Per node, the live sessions' recorded allocations on it.
    node_sum: Vec<ResourceVector>,
    /// Per link, likewise (kbit/s).
    link_sum: Vec<f64>,
    /// Per tenant id, up to the largest one a session carries.
    tenants: Vec<TenantTotals>,
    /// Every live session by request, sorted.
    requests: Vec<LiveRequest>,
}

/// One tenant's live sessions, as the session table derives them.
#[derive(Debug, Clone, Copy, Default)]
struct TenantTotals {
    live: u64,
    committed: ResourceVector,
    bw: f64,
}

/// One live session, as the request-keyed sections see it. Sorts by
/// request, healthy before degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LiveRequest {
    request: u64,
    degraded: bool,
    session: SessionId,
}

impl SessionTotals {
    fn of(system: &StreamSystem) -> Self {
        let mut totals = SessionTotals {
            node_sum: vec![ResourceVector::ZERO; system.node_count()],
            link_sum: vec![0.0; system.link_count()],
            tenants: Vec::new(),
            requests: Vec::with_capacity(system.session_count()),
        };
        for s in system.sessions_by_id() {
            for &(node, amount) in s.node_allocations() {
                totals.node_sum[node.index()] += amount;
            }
            for &(link, kbps) in s.link_allocations() {
                totals.link_sum[link.index()] += kbps;
            }
            if let Some(binding) = s.request_spec.tenant {
                let t = binding.tenant.0 as usize;
                if t >= totals.tenants.len() {
                    totals.tenants.resize(t + 1, TenantTotals::default());
                }
                let tenant = &mut totals.tenants[t];
                tenant.live += 1;
                tenant.committed += s.node_allocations().iter().map(|&(_, d)| d).sum::<ResourceVector>();
                tenant.bw += s.link_allocations().iter().map(|&(_, kbps)| kbps).sum::<f64>();
            }
            totals.requests.push(LiveRequest { request: s.request_spec.id.0, degraded: s.is_degraded(), session: s.id });
        }
        totals.requests.sort_unstable();
        totals
    }
}

/// What an [`AuditCursor`] did over its passes. In no digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// Passes run.
    pub passes: u64,
    /// Passes that ran the full [`SystemAuditor::audit_at`]: the first,
    /// each one after an unclean pass, and each one whose dirty set did
    /// not check clean.
    pub full_passes: u64,
    /// Passes that walked the whole path memo, full passes included.
    pub memo_walks: u64,
}

/// An incremental [`SystemAuditor::audit_at`] over one system: it keeps
/// what its last pass saw, and its report equals the full pass's on
/// every pass (the module doc gives the rule and the dirty sets).
///
/// It names *entities* by number: node `v` is entity `v`, link `l` is
/// `nodes + l`, and dense id `d` is `nodes + links + d`.
#[derive(Debug, Clone, Default)]
pub struct AuditCursor {
    /// True when the last pass found nothing; false before the first.
    clean: bool,
    /// The first session id the last pass had not seen issued: every
    /// session from it on is new.
    unseen: u64,
    /// Per entity, its flag at the last pass: node failed, link failed,
    /// dense id retired.
    flags: Vec<bool>,
    counts: AuditCounts,
    /// Scratch for the two drained logs.
    memo_keys: Vec<(OverlayNodeId, OverlayNodeId)>,
    mutated: Vec<SessionId>,
}

impl AuditCursor {
    /// What the cursor did so far.
    pub fn counts(&self) -> AuditCounts {
        self.counts
    }

    /// [`SystemAuditor::audit_at`]'s report, paying for what changed
    /// since the last pass. Drains the system's two logs, so it must be
    /// the only reader of them, and every pass must see the same system.
    pub fn audit_at(&mut self, system: &mut StreamSystem, now: Option<SimTime>) -> AuditReport {
        self.counts.passes += 1;
        let memo_logged = system.overlay.drain_memo_inserts(&mut self.memo_keys);
        system.sessions.drain_mutated(&mut self.mutated);
        let system = &*system;
        let clean = self.clean && self.dirty_set_is_clean(system, now, memo_logged);
        self.unseen = system.sessions.next_id().0;
        if clean {
            return AuditReport::default();
        }
        self.counts.full_passes += 1;
        if system.overlay().nodes().any(|v| system.is_node_failed(v)) {
            self.counts.memo_walks += 1;
        }
        let report = SystemAuditor.audit_at(system, now);
        self.clean = report.is_clean();
        let count = system.node_count() + system.link_count() + system.dense_component_count();
        self.flags = (0..count).map(|e| flag(system, e)).collect();
        report
    }

    /// Checks what changed since a clean pass, updating the cursor's
    /// flags as it goes. `false` as soon as anything fails; the full
    /// pass then runs and resets the flags.
    fn dirty_set_is_clean(&mut self, system: &StreamSystem, now: Option<SimTime>, memo_logged: bool) -> bool {
        let auditor = SystemAuditor;
        let mut out = Vec::new();
        let totals = SessionTotals::of(system);
        auditor.audit_nodes(system, &mut out);
        auditor.audit_conservation(system, &totals, &mut out);
        auditor.audit_links(system, &mut out);
        auditor.audit_ledgers(system, now, &totals, &mut out);
        if !out.is_empty() {
            return false;
        }

        // Flags that flipped since, and dense ids issued since: a new id
        // may be a new component at an old slot.
        let (nodes, links) = (system.node_count(), system.link_count());
        let (seen, count) = (self.flags.len(), nodes + links + system.dense_component_count());
        let mut flipped = vec![false; count];
        // Whether a node, a link, a dense id flipped.
        let mut kinds = [false; 3];
        let mut newly_failed = false;
        self.flags.resize(count, false);
        for (e, hit) in flipped.iter_mut().enumerate() {
            let flag = flag(system, e);
            if e >= seen || flag != self.flags[e] {
                self.flags[e] = flag;
                *hit = true;
                kinds[usize::from(e >= nodes) + usize::from(e >= nodes + links)] = true;
                newly_failed |= flag && e < nodes;
            }
        }

        // Sessions to re-check: the new ones, the mutated ones, and every
        // one that reads a flipped flag. A component without a dense id
        // is dead, so its sessions are re-checked too.
        let mut recheck: Vec<SessionId> = system.sessions.ids_from(SessionId(self.unseen)).collect();
        recheck.extend_from_slice(&self.mutated);
        if kinds.contains(&true) {
            let [node, link, dense] = kinds;
            let hosts = |s: &Session| s.composition.assignment.iter().any(|c| flipped[c.node.index()]);
            let relays =
                |s: &Session| s.composition.links.iter().any(|p| p.nodes.iter().any(|n| flipped[n.index()]));
            let streams = |s: &Session| s.link_allocations().iter().any(|&(l, _)| flipped[nodes + l.index()]);
            let components = |s: &Session| {
                let dead_or_flipped = |c: &ComponentId| {
                    system.dense_of(*c).is_none_or(|d| flipped[nodes + links + d.index()])
                };
                s.composition.assignment.iter().any(dead_or_flipped)
            };
            recheck.extend(
                system
                    .sessions()
                    .filter(|s| (node && (hosts(s) || relays(s))) || (link && streams(s)) || (dense && components(s)))
                    .map(|s| s.id),
            );
        }
        recheck.sort_unstable();
        recheck.dedup();
        for s in recheck.into_iter().filter_map(|id| system.session(id)) {
            auditor.audit_session(system, s, &mut out);
            if !out.is_empty() {
                return false;
            }
        }

        // The memo: with no node failed there is nothing to find. Else
        // the entries the miss arm inserted since, or all of them after a
        // node newly failed (or the log overflowed).
        if !self.flags[..nodes].contains(&true) {
            return true;
        }
        if newly_failed || !memo_logged {
            self.counts.memo_walks += 1;
            auditor.audit_path_cache(system, &mut out);
            return out.is_empty();
        }
        !self.memo_keys.iter().any(|&(from, to)| {
            system
                .overlay()
                .memoized_path(from, to)
                .is_some_and(|p| p.nodes.iter().any(|&n| system.is_node_failed(n)))
        })
    }
}

/// Entity `e`'s flag now (see [`AuditCursor`]): node failed, link
/// failed, dense id retired.
fn flag(system: &StreamSystem, e: usize) -> bool {
    let (nodes, links) = (system.node_count(), system.link_count());
    if e < nodes {
        system.is_node_failed(OverlayNodeId(e as u32))
    } else if e < nodes + links {
        system.is_link_failed(OverlayLinkId((e - nodes) as u32))
    } else {
        system.dense_is_retired(DenseComponentId((e - nodes - links) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::fgraph::FunctionGraph;
    use crate::function::FunctionRegistry;
    use crate::qos::QosRequirement;
    use crate::repair::RepairPolicy;
    use crate::request::{Request, RequestId};
    use crate::system::SystemConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_system(seed: u64, stream_nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    /// Commits as many two-function path sessions as `count` asks for,
    /// pairing up discovered candidates round-robin.
    fn commit_sessions(sys: &mut StreamSystem, count: usize) -> Vec<SessionId> {
        let functions: Vec<FunctionId> = sys
            .registry()
            .ids()
            .filter(|&f| !sys.candidates(f).is_empty())
            .take(4)
            .collect();
        assert!(functions.len() >= 2);
        let mut out = Vec::new();
        for i in 0..count {
            let f0 = functions[i % functions.len()];
            let f1 = functions[(i + 1) % functions.len()];
            let c0 = sys.candidates(f0)[i % sys.candidates(f0).len()];
            let c1 = sys.candidates(f1)[i % sys.candidates(f1).len()];
            if c0.node == c1.node && c0 == c1 {
                continue;
            }
            let Some(path) = sys.virtual_path(c0.node, c1.node) else { continue };
            let request = Request {
                id: RequestId(100 + i as u64),
                graph: FunctionGraph::path(vec![f0, f1]),
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::new(1.0, 4.0),
                bandwidth_kbps: 10.0,
                stream_rate_kbps: 50.0,
                tenant: None,
            };
            let composition =
                crate::composition::Composition { assignment: vec![c0, c1], links: vec![path] };
            if let Ok(sid) = sys.commit_session(&request, composition) {
                out.push(sid);
            }
        }
        out
    }

    #[test]
    fn clean_on_generated_system() {
        let sys = build_system(1, 25);
        let report = SystemAuditor.audit(&sys);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.digest(), AuditReport::default().digest());
    }

    #[test]
    fn clean_across_fault_lifecycle() {
        let mut sys = build_system(2, 30);
        let dense_at_build = sys.dense_component_count();
        let auditor = SystemAuditor;
        let sessions = commit_sessions(&mut sys, 8);
        assert!(!sessions.is_empty());
        assert!(auditor.audit(&sys).is_clean(), "{}", auditor.audit(&sys));

        // Node failure (+ its forwarding plane).
        let victim = OverlayNodeId(0);
        sys.fail_node(victim, RepairPolicy::Terminate, SimTime::ZERO);
        let report = auditor.audit(&sys);
        assert!(report.is_clean(), "after fail_node: {report}");

        // Link faults.
        let link = OverlayLinkId(0);
        sys.fail_link(link, RepairPolicy::Terminate, SimTime::ZERO);
        assert!(auditor.audit(&sys).is_clean(), "after fail_link: {}", auditor.audit(&sys));
        sys.degrade_link(OverlayLinkId(1), 0.3, RepairPolicy::Terminate, SimTime::ZERO);
        assert!(auditor.audit(&sys).is_clean(), "after degrade: {}", auditor.audit(&sys));

        // Component crash on a live node.
        let id = sys.node(OverlayNodeId(1)).components().next().map(|c| c.id);
        if let Some(id) = id {
            sys.crash_component(id, RepairPolicy::Terminate, SimTime::ZERO);
        }
        assert!(auditor.audit(&sys).is_clean(), "after crash: {}", auditor.audit(&sys));

        // Recovery: the node comes back empty for good, and no dense id
        // is issued after build.
        sys.recover_node(victim);
        assert_eq!(
            (sys.node(victim).component_count(), sys.dense_component_count()),
            (0, dense_at_build)
        );
        sys.restore_link(link);
        sys.restore_link(OverlayLinkId(1));
        let report = auditor.audit(&sys);
        assert!(report.is_clean(), "after recovery: {report}");
    }

    #[test]
    fn detects_phantom_commitment() {
        let mut sys = build_system(3, 20);
        // A commitment with no session backing it breaks conservation.
        assert!(sys.node_mut(OverlayNodeId(2)).commit(ResourceVector::new(1.0, 1.0)));
        let report = SystemAuditor.audit(&sys);
        assert!(
            report
                .violations()
                .iter()
                .any(|v| matches!(v, AuditViolation::NodeConservation { node, .. } if *node == OverlayNodeId(2))),
            "{report}"
        );
    }

    #[test]
    fn detects_duplicate_function_and_dense_hole() {
        let mut sys = build_system(4, 20);
        let node = OverlayNodeId(0);
        let existing = sys.node(node).components().next().unwrap().clone();
        // Deploying a second component of the same function behind the
        // system's back breaks both the distinct-function invariant and
        // the dense index (no dense id was allotted).
        sys.node_mut(node).deploy_with(|id| Component { id, ..existing });
        let report = SystemAuditor.audit(&sys);
        assert!(
            report.violations().iter().any(|v| matches!(v, AuditViolation::DuplicateFunction { .. })),
            "{report}"
        );
        assert!(
            report.violations().iter().any(|v| matches!(
                v,
                AuditViolation::DenseIndex { detail: "missing for live component", .. }
            )),
            "{report}"
        );
    }

    #[test]
    fn detects_session_on_failed_host() {
        let mut sys = build_system(5, 25);
        let sessions = commit_sessions(&mut sys, 6);
        assert!(!sessions.is_empty());
        // Fail a hosting node *behind the system's back* (no session
        // teardown): the auditor must flag coverage and conservation.
        let host = sys.session(sessions[0]).unwrap().composition.assignment[0].node;
        sys.node_mut(host).fail();
        let report = SystemAuditor.audit(&sys);
        assert!(!report.is_clean());
        assert!(
            report
                .violations()
                .iter()
                .any(|v| matches!(v, AuditViolation::SessionCoverage { .. })),
            "{report}"
        );
    }

    #[test]
    fn lease_lifecycle_audits_clean() {
        let mut sys = build_system(7, 25);
        let auditor = SystemAuditor;
        let now = acp_simcore::SimTime::from_secs(0);
        // Reserve a couple of leases for a request that never commits.
        let f = sys.registry().ids().find(|&f| !sys.candidates(f).is_empty()).unwrap();
        let c = sys.candidates(f)[0];
        let r = RequestId(7);
        let expiry = now + acp_simcore::SimDuration::from_secs(30);
        assert!(sys.reserve_component_transient(r, c, ResourceVector::new(1.0, 1.0), expiry));
        assert!(auditor.audit_at(&sys, Some(now)).is_clean());
        assert_eq!(sys.live_lease_count(), 1);
        assert_eq!(sys.next_lease_expiry(), Some(expiry));
        // Past the expiry, an un-swept lease is a violation…
        let late = expiry + acp_simcore::SimDuration::from_secs(1);
        let report = auditor.audit_at(&sys, Some(late));
        assert!(report.violations().iter().any(|v| matches!(
            v,
            AuditViolation::NodeLeaseOutlivedExpiry { count: 1, .. }
        )));
        // …and clean again right after the reclamation sweep.
        assert_eq!(sys.expire_transients(late), 1);
        assert!(auditor.audit_at(&sys, Some(late)).is_clean());
        let stats = sys.lease_stats();
        assert_eq!((stats.created, stats.expired), (1, 1));
        assert!(stats.reconciles(0));
    }

    #[test]
    fn committed_sessions_promote_their_leases() {
        let mut sys = build_system(8, 25);
        let sessions = commit_sessions(&mut sys, 3);
        assert!(!sessions.is_empty());
        // commit_sessions reserves nothing transiently, so promoted stays
        // zero — now run one commit that *does* hold leases first.
        let s = sys.session(sessions[0]).unwrap();
        let request = Request { id: RequestId(900), ..s.request_spec.clone() };
        let composition = s.composition.clone();
        let expiry = acp_simcore::SimTime::from_secs(30);
        for v in request.graph.vertices() {
            let demand = request.vertex_demand(&sys.registry().clone(), v);
            assert!(sys.reserve_component_transient(
                request.id,
                composition.assignment[v],
                demand,
                expiry
            ));
        }
        let held = sys.live_lease_count() as u64;
        assert!(held > 0);
        sys.commit_session(&request, composition).expect("qualified");
        let stats = sys.lease_stats();
        assert_eq!(stats.promoted, held);
        assert!(stats.reconciles(sys.live_lease_count() as u64));
        assert!(SystemAuditor.audit(&sys).is_clean());
    }

    #[test]
    fn detects_lease_ledger_mismatch_and_double_hold() {
        let mut sys = build_system(9, 25);
        let sessions = commit_sessions(&mut sys, 2);
        assert!(!sessions.is_empty());
        let s = sys.session(sessions[0]).unwrap();
        let (rid, comp) = (s.request_spec.id, s.composition.assignment[0]);
        // A lease held by a request whose session is live is flagged.
        assert!(sys.reserve_component_transient(
            rid,
            comp,
            ResourceVector::new(0.5, 0.5),
            acp_simcore::SimTime::from_secs(30)
        ));
        let report = SystemAuditor.audit(&sys);
        assert!(report.violations().iter().any(|v| matches!(
            v,
            AuditViolation::LeaseHeldByCommittedRequest { request } if *request == rid.0
        )));
        sys.release_component_transient(rid, comp);
        assert!(SystemAuditor.audit(&sys).is_clean());
        // A reservation made behind the ledger's back breaks reconciliation.
        let node = comp.node;
        assert!(sys.node_mut(node).reserve_transient(
            crate::node::ReservationKey { request: 999, component: comp },
            ResourceVector::new(0.1, 0.1),
            acp_simcore::SimTime::from_secs(30)
        ));
        let report = SystemAuditor.audit(&sys);
        assert!(report.violations().iter().any(|v| matches!(
            v,
            AuditViolation::LeaseLedgerMismatch { .. }
        )));
    }

    #[test]
    fn detects_lease_directory_drift_in_both_directions() {
        let mut sys = build_system(10, 25);
        let auditor = SystemAuditor;
        let f = sys.registry().ids().find(|&f| !sys.candidates(f).is_empty()).unwrap();
        let c = sys.candidates(f)[0];
        let key = |request| crate::node::ReservationKey { request, component: c };
        let expiry = acp_simcore::SimTime::from_secs(30);
        assert!(sys.reserve_component_transient(RequestId(7), c, ResourceVector::new(0.5, 0.5), expiry));
        assert!(auditor.audit(&sys).is_clean());
        let drift = |sys: &StreamSystem| -> Vec<String> {
            auditor
                .audit(sys)
                .violations()
                .iter()
                .filter_map(|v| match v {
                    AuditViolation::LeaseDirectoryMismatch { detail } => Some(detail.clone()),
                    _ => None,
                })
                .collect()
        };
        // A lease placed behind the directory's back: a release by
        // request would never find it.
        assert!(sys.node_mut(c.node).reserve_transient(key(8), ResourceVector::new(0.1, 0.1), expiry));
        let rows = drift(&sys);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert!(rows[0].contains("request 8") && rows[0].contains("not recorded"), "{rows:?}");
        // A lease removed behind its back: the directory keeps a row for
        // request 7 (and, once the node is empty, a live site) that
        // nothing backs.
        assert!(sys.node_mut(c.node).release_transient(key(8)).is_some());
        assert!(sys.node_mut(c.node).release_transient(key(7)).is_some());
        let rows = drift(&sys);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[0].contains("request 7") && rows[0].contains("holds no lease"), "{rows:?}");
        assert!(rows[1].contains("live set"), "{rows:?}");
        // The drift reaches the digest only because it fired.
        assert_ne!(auditor.audit(&sys).digest(), AuditReport::default().digest());
    }

    /// A node dead behind the overlay's back (the bug this check guards
    /// against) is reported once per cached hop through it, in
    /// `(from, to, position)` order whatever order the memo iterates in.
    #[test]
    fn cached_paths_through_a_failed_node_are_reported_in_key_order() {
        let mut sys = build_system(7, 20);
        let nodes: Vec<_> = sys.overlay().nodes().collect();
        let mut relay = None;
        for &a in &nodes {
            for &b in &nodes {
                let path = sys.virtual_path(a, b).expect("connected overlay");
                relay = relay.or((path.nodes.len() > 2).then(|| path.nodes[1]));
            }
        }
        let dead = relay.expect("some path has an interior node");
        sys.nodes[dead.index()].fail();
        let mut want: Vec<_> = sys
            .overlay()
            .cached_paths()
            .filter(|(_, path)| path.is_some_and(|p| p.nodes.contains(&dead)))
            .map(|((from, to), _)| AuditViolation::CachedPathThroughFailed { from, to, via: dead })
            .collect();
        want.sort_by_key(|v| match v {
            AuditViolation::CachedPathThroughFailed { from, to, .. } => (*from, *to),
            _ => unreachable!(),
        });
        assert!(want.len() >= 2 * nodes.len(), "the node relays as well as terminates");
        let report = SystemAuditor.audit(&sys);
        let got: Vec<_> = report
            .violations()
            .iter()
            .filter(|v| matches!(v, AuditViolation::CachedPathThroughFailed { .. }))
            .cloned()
            .collect();
        assert_eq!(got, want);
    }

    /// A corruption injected behind the system's back, given the cursor
    /// so that it can stage a clean pass of its own first.
    type Corruption = Box<dyn Fn(&mut StreamSystem, &mut AuditCursor)>;

    /// The cursor's report against the full pass's, for each corruption
    /// injected after a clean pass. Most show only in a section the
    /// cursor checks by its dirty set, so a dirty mark it forgets makes
    /// the two reports differ.
    #[test]
    fn cursor_reports_what_the_full_pass_reports() {
        let mut base = build_system(11, 30);
        let sessions = commit_sessions(&mut base, 12);
        let auditor = SystemAuditor;
        let now = Some(SimTime::ZERO);
        let mut cursor = AuditCursor::default();
        assert!(cursor.audit_at(&mut base, now).is_clean());
        assert!(cursor.audit_at(&mut base, now).is_clean());
        assert_eq!(cursor.counts(), AuditCounts { passes: 2, full_passes: 1, memo_walks: 0 });

        let live: Vec<&Session> = sessions.iter().map(|&sid| base.session(sid).expect("live")).collect();
        let hosts: Vec<OverlayNodeId> =
            live.iter().flat_map(|s| s.composition.assignment.iter().map(|c| c.node)).collect();
        let relays: Vec<OverlayNodeId> = live
            .iter()
            .flat_map(|s| s.composition.links.iter().flat_map(|p| p.nodes[1..p.nodes.len() - 1].iter().copied()))
            .collect();
        let relay = *relays.iter().find(|v| !hosts.contains(v)).expect("a session relays through a non-host");
        let (sid, host, component) = (sessions[0], hosts[0], live[0].composition.assignment[1]);
        let stranger = base
            .node(host)
            .components()
            .map(|c| c.id)
            .find(|&c| c != live[0].composition.assignment[0])
            .expect("the host runs another function too");

        let corruptions: Vec<(&str, Corruption)> = vec![
            (
                "a phantom commitment",
                Box::new(|sys, _| assert!(sys.node_mut(OverlayNodeId(2)).commit(ResourceVector::new(1.0, 1.0)))),
            ),
            (
                "a session on a failed host",
                Box::new(move |sys, _| {
                    sys.node_mut(host).fail();
                    sys.overlay.set_node_down(host, true);
                }),
            ),
            (
                "a memoized path through a node failed only in the processing plane",
                Box::new(move |sys, _| {
                    sys.node_mut(relay).fail();
                }),
            ),
            (
                "a path memoized through a node failed only in the processing plane, after the pass that saw it fail",
                Box::new(move |sys, cursor| {
                    sys.fail_node(relay, RepairPolicy::Terminate, SimTime::ZERO);
                    assert!(cursor.audit_at(sys, now).is_clean());
                    sys.overlay.set_node_down_unrepaired(relay, false);
                    let nodes: Vec<_> = sys.overlay().nodes().collect();
                    for &a in &nodes {
                        for &b in &nodes {
                            sys.virtual_path(a, b);
                        }
                    }
                    sys.overlay.set_node_down_unrepaired(relay, true);
                }),
            ),
            (
                "a dead component",
                Box::new(move |sys, _| {
                    sys.node_mut(component.node).undeploy(component.slot).expect("live component");
                    sys.retire_dense(component);
                }),
            ),
            (
                "a failed relay node",
                Box::new(move |sys, _| {
                    sys.node_mut(relay).fail();
                    sys.overlay.set_node_down(relay, true);
                }),
            ),
            (
                "a session mutated through get_mut",
                Box::new(move |sys, _| {
                    sys.sessions.get_mut(sid).expect("live").composition.assignment[0] = stranger;
                }),
            ),
        ];
        for (name, corrupt) in corruptions {
            let (mut sys, mut cursor) = (base.clone(), cursor.clone());
            corrupt(&mut sys, &mut cursor);
            let want = auditor.audit_at(&sys, now);
            assert!(!want.is_clean(), "{name}: the corruption must show");
            assert_eq!(cursor.audit_at(&mut sys, now).violations(), want.violations(), "{name}");
        }
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = build_system(6, 25);
        let mut b = build_system(6, 25);
        for sys in [&mut a, &mut b] {
            commit_sessions(sys, 5);
            sys.node_mut(OverlayNodeId(1)).commit(ResourceVector::new(2.0, 2.0));
            sys.node_mut(OverlayNodeId(3)).commit(ResourceVector::new(1.0, 8.0));
        }
        let auditor = SystemAuditor;
        let (ra, rb) = (auditor.audit(&a), auditor.audit(&b));
        assert!(!ra.is_clean());
        assert_eq!(ra.digest(), rb.digest());
        assert_eq!(ra.violations(), rb.violations());
    }
}
