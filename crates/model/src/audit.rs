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
//!   non-failed host, compatible interface rate, admissible placement
//!   attributes — and none of its virtual links crosses a failed link
//!   or relays through a failed node.
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

use acp_simcore::SimTime;
use acp_topology::{OverlayLinkId, OverlayNodeId};

use crate::component::ComponentId;
use crate::function::FunctionId;
use crate::resources::{ResourceKind, ResourceVector};
use crate::system::{SessionId, StreamSystem};

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
/// let report = SystemAuditor::default().audit(&system);
/// assert!(report.is_clean(), "{report}");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystemAuditor {
    /// Absolute slack for capacity checks (the `1e-9`-style epsilon
    /// previously scattered through tests).
    pub epsilon: f64,
    /// Relative slack for conservation sums, scaled by magnitude:
    /// `|committed − Σ| ≤ epsilon + conservation_rtol · |Σ|`.
    pub conservation_rtol: f64,
}

impl Default for SystemAuditor {
    fn default() -> Self {
        SystemAuditor { epsilon: 1e-6, conservation_rtol: 1e-9 }
    }
}

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
        self.audit_nodes(system, &mut out);
        self.audit_conservation(system, &mut out);
        self.audit_links(system, &mut out);
        self.audit_sessions(system, &mut out);
        self.audit_path_cache(system, &mut out);
        self.audit_leases(system, now, &mut out);
        self.audit_tenants(system, &mut out);
        self.audit_repair(system, &mut out);
        AuditReport { violations: out }
    }

    /// Reservation-conservation pass: the ledger half
    /// ([`Self::lease_ledger_violations`]) and — when `now` is given —
    /// no lease has outlived its expiry past the reclamation sweep.
    fn audit_leases(
        &self,
        system: &StreamSystem,
        now: Option<SimTime>,
        out: &mut Vec<AuditViolation>,
    ) {
        self.lease_ledger_violations(system, out);
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
    fn audit_tenants(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        let ledger = system.tenant_ledger();
        if ledger.is_empty() && !system.sessions().any(|s| s.request_spec.tenant.is_some()) {
            // Tenant-less: no ledger row and no session to hold one to.
            return;
        }
        // Re-derive per-tenant live counts and committed sums from the
        // session table in ascending id order — a deterministic f64 fold.
        let sessions = sorted_sessions(system);
        let width = ledger
            .iter()
            .map(|(id, _)| id.0 as usize + 1)
            .max()
            .unwrap_or(0)
            .max(
                sessions
                    .iter()
                    .filter_map(|s| s.request_spec.tenant)
                    .map(|b| b.tenant.0 as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
        let mut live = vec![0u64; width];
        let mut committed = vec![ResourceVector::ZERO; width];
        let mut bw = vec![0.0f64; width];
        for s in &sessions {
            let Some(binding) = s.request_spec.tenant else { continue };
            let t = binding.tenant.0 as usize;
            live[t] += 1;
            committed[t] += s.node_allocations().iter().map(|&(_, d)| d).sum::<ResourceVector>();
            bw[t] += s.link_allocations().iter().map(|&(_, kbps)| kbps).sum::<f64>();
        }
        for t in 0..width {
            let tenant = t as u32;
            let Some(stats) = ledger.stats(crate::tenant::TenantId(tenant)) else {
                if live[t] > 0 {
                    out.push(AuditViolation::TenantConservation {
                        tenant,
                        detail: format!("{} live session(s) but no ledger entry", live[t]),
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
            if stats.live != live[t] {
                out.push(AuditViolation::TenantConservation {
                    tenant,
                    detail: format!("ledger live {} but sessions derive {}", stats.live, live[t]),
                });
            }
            for (kind, derived) in committed[t].iter() {
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
            if (stats.committed_bw_kbps - bw[t]).abs() > self.tolerance(bw[t]) {
                out.push(AuditViolation::TenantConservation {
                    tenant,
                    detail: format!(
                        "ledger bandwidth {} kbit/s but sessions sum to {}",
                        stats.committed_bw_kbps, bw[t]
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
    fn audit_repair(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        let ledger = system.repair_ledger();
        if ledger.opened == 0 && !system.sessions().any(|s| s.is_degraded()) {
            // Repair-free: no ticket was ever opened and no session
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
        let sessions = sorted_sessions(system);
        // No double-commit: each request id backs at most one live
        // session, even mid-splice (the mini-session is removed within
        // the same event that grafts its segment).
        let requests = live_request_ids(system);
        let mut i = 0;
        while i < requests.len() {
            let mut j = i + 1;
            while j < requests.len() && requests[j] == requests[i] {
                j += 1;
            }
            if j - i > 1 {
                out.push(AuditViolation::DuplicateSessionRequest {
                    request: requests[i],
                    sessions: j - i,
                });
            }
            i = j;
        }
        // Degraded session ⇔ open ticket, both directions. Tickets
        // without a live session are legitimate: the terminate baseline
        // opens them after the kill, before the restart lands.
        for s in &sessions {
            if s.is_degraded() && ledger.ticket(s.request).is_none() {
                out.push(AuditViolation::RepairStateIncoherent {
                    request: s.request.0,
                    detail: "degraded session without an open repair ticket",
                });
            }
        }
        for t in ledger.open_tickets() {
            if requests.binary_search(&t.request.0).is_ok()
                && !sessions.iter().any(|s| s.request == t.request && s.is_degraded())
            {
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
            let committed = live_request_ids(system);
            for request in leased {
                if committed.binary_search(&request).is_ok() {
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
        for i in 0..system.node_count() {
            let v = OverlayNodeId(i as u32);
            let node = system.node(v);

            // Eq. 4: committed + transient never exceed capacity.
            let used = node.committed() + node.transient_total();
            for (kind, amount) in used.iter() {
                let cap = node.capacity().get(kind);
                if amount > cap + self.epsilon {
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
            let mut functions: Vec<FunctionId> = node.components().map(|c| c.function).collect();
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
    fn audit_conservation(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        let mut node_sum = vec![ResourceVector::ZERO; system.node_count()];
        let mut link_sum = vec![0.0f64; system.link_count()];
        for s in sorted_sessions(system) {
            for &(node, amount) in s.node_allocations() {
                node_sum[node.index()] += amount;
            }
            for &(link, kbps) in s.link_allocations() {
                link_sum[link.index()] += kbps;
            }
        }
        for (i, expected) in node_sum.iter().enumerate() {
            let v = OverlayNodeId(i as u32);
            let committed = system.node(v).committed();
            for (kind, want) in expected.iter() {
                let got = committed.get(kind);
                if (got - want).abs() > self.tolerance(want) {
                    out.push(AuditViolation::NodeConservation { node: v, kind, committed: got, expected: want });
                }
            }
        }
        for (i, &want) in link_sum.iter().enumerate() {
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
            if committed > capacity + self.epsilon {
                out.push(AuditViolation::LinkOverCommitted { link: l, committed, capacity });
            }
            if system.is_link_failed(l) && system.link_available(l) > 0.0 {
                out.push(AuditViolation::FailedLinkCarries { link: l, available: system.link_available(l) });
            }
        }
    }

    /// Session coverage / failed-route checks, sessions in id order.
    fn audit_sessions(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
        for s in sorted_sessions(system) {
            let request = &s.request_spec;
            if !s.composition.is_shape_valid(&request.graph) {
                out.push(AuditViolation::SessionCoverage {
                    session: s.id,
                    vertex: usize::MAX,
                    detail: "composition shape does not match the function graph",
                });
                continue;
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
                if !request.constraints.admits(&component.attributes) {
                    out.push(AuditViolation::SessionCoverage { session: s.id, vertex, detail: "violates placement constraints" });
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
    }

    /// Failed-node scan over the memoized paths, reported in key order.
    /// The memo is a HashMap and outlives node recoveries, so the scan
    /// runs in its order and only the violations — normally none — are
    /// sorted, by `(from, to, position on the path)`.
    fn audit_path_cache(&self, system: &StreamSystem, out: &mut Vec<AuditViolation>) {
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
        self.epsilon + self.conservation_rtol * magnitude.abs()
    }
}

/// Live sessions in ascending id order (the session table is a HashMap,
/// so its natural order is not deterministic).
fn sorted_sessions(system: &StreamSystem) -> Vec<&crate::system::Session> {
    let mut sessions: Vec<_> = system.sessions().collect();
    sessions.sort_unstable_by_key(|s| s.id);
    sessions
}

/// Request ids of the live sessions, ascending — built once per pass so
/// "does this request hold a session" is a binary search, not a walk of
/// the session arena per question.
fn live_request_ids(system: &StreamSystem) -> Vec<u64> {
    let mut ids: Vec<u64> = system.sessions().map(|s| s.request.0).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::constraints::PlacementConstraints;
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
                constraints: PlacementConstraints::none(),
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
        let report = SystemAuditor::default().audit(&sys);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.digest(), AuditReport::default().digest());
    }

    #[test]
    fn clean_across_fault_lifecycle() {
        let mut sys = build_system(2, 30);
        let auditor = SystemAuditor::default();
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

        // Recovery.
        sys.recover_node(victim);
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
        let report = SystemAuditor::default().audit(&sys);
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
        let report = SystemAuditor::default().audit(&sys);
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
        let report = SystemAuditor::default().audit(&sys);
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
        let auditor = SystemAuditor::default();
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
        assert!(SystemAuditor::default().audit(&sys).is_clean());
    }

    #[test]
    fn detects_lease_ledger_mismatch_and_double_hold() {
        let mut sys = build_system(9, 25);
        let sessions = commit_sessions(&mut sys, 2);
        assert!(!sessions.is_empty());
        let s = sys.session(sessions[0]).unwrap();
        let (rid, comp) = (s.request, s.composition.assignment[0]);
        // A lease held by a request whose session is live is flagged.
        assert!(sys.reserve_component_transient(
            rid,
            comp,
            ResourceVector::new(0.5, 0.5),
            acp_simcore::SimTime::from_secs(30)
        ));
        let report = SystemAuditor::default().audit(&sys);
        assert!(report.violations().iter().any(|v| matches!(
            v,
            AuditViolation::LeaseHeldByCommittedRequest { request } if *request == rid.0
        )));
        sys.release_component_transient(rid, comp);
        assert!(SystemAuditor::default().audit(&sys).is_clean());
        // A reservation made behind the ledger's back breaks reconciliation.
        let node = comp.node;
        assert!(sys.node_mut(node).reserve_transient(
            crate::node::ReservationKey { request: 999, component: comp },
            ResourceVector::new(0.1, 0.1),
            acp_simcore::SimTime::from_secs(30)
        ));
        let report = SystemAuditor::default().audit(&sys);
        assert!(report.violations().iter().any(|v| matches!(
            v,
            AuditViolation::LeaseLedgerMismatch { .. }
        )));
    }

    #[test]
    fn detects_lease_directory_drift_in_both_directions() {
        let mut sys = build_system(10, 25);
        let auditor = SystemAuditor::default();
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
        let report = SystemAuditor::default().audit(&sys);
        let got: Vec<_> = report
            .violations()
            .iter()
            .filter(|v| matches!(v, AuditViolation::CachedPathThroughFailed { .. }))
            .cloned()
            .collect();
        assert_eq!(got, want);
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
        let auditor = SystemAuditor::default();
        let (ra, rb) = (auditor.audit(&a), auditor.audit(&b));
        assert!(!ra.is_clean());
        assert_eq!(ra.digest(), rb.digest());
        assert_eq!(ra.violations(), rb.violations());
    }
}
