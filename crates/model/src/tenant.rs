//! Multi-tenant identity, QoS tiers, and the per-tenant ledger.
//!
//! The source paper composes components for one application's requests at
//! a time; this module adds the regime of *many concurrent applications*
//! (tenants) competing for the same stream-processing nodes, in the
//! spirit of Benoit et al.'s "Resource Allocation for Multiple Concurrent
//! In-Network Stream-Processing Applications". Each request may carry a
//! [`TenantBinding`] naming its tenant and service tier; the
//! [`StreamSystem`](crate::system::StreamSystem) maintains a
//! [`TenantLedger`] mirroring the session lifecycle per tenant, and the
//! auditor checks the tenant-isolation invariants against it:
//!
//! * every admitted session is eventually accounted for exactly once
//!   (`admitted == closed + killed + preempted + live`),
//! * per-tenant committed-resource sums partition the global Eq. 2/4/5
//!   brackets (the per-node conservation pass ties sessions to residuals;
//!   the tenant pass ties the ledger to sessions — transitively the
//!   ledger sums to the global brackets),
//! * preemption only ever touches `BestEffort` tenants,
//! * admitted `Gold` tenants are never shed while lower tiers hold live
//!   sessions (no starvation on resources held by lower tiers).
//!
//! The ledger follows the bindings: only a request that carries one
//! touches it, so a tenant-less run leaves it empty, pays nothing and
//! stays byte-identical.

use crate::resources::ResourceVector;

/// A tenant (application) identity. Ids are dense: the ledger is indexed
/// by `TenantId.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Service tier of a tenant. Admission sheds `BestEffort` first, then
/// `Silver`, as congestion crosses tier-specific thresholds; `Gold` is
/// never shed by the congestion gate, and preemption under pressure may
/// only ever reclaim resources from `BestEffort` sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TenantTier {
    /// Highest tier: never shed on congestion, never preempted.
    Gold,
    /// Middle tier: shed only under severe congestion, never preempted.
    Silver,
    /// Lowest tier: first to be shed, only tier eligible for preemption.
    BestEffort,
}

impl TenantTier {
    /// All tiers, highest first.
    pub const ALL: [TenantTier; 3] = [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort];

    /// Short label for reports and audit messages.
    pub fn label(&self) -> &'static str {
        match self {
            TenantTier::Gold => "gold",
            TenantTier::Silver => "silver",
            TenantTier::BestEffort => "best-effort",
        }
    }
}

impl std::fmt::Display for TenantTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The tenant identity + tier a request travels with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantBinding {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The tenant's service tier.
    pub tier: TenantTier,
}

/// Why a session left the arena — the per-tenant ledger splits teardown
/// by cause so the isolation invariants are checkable (e.g. preemption
/// counts on a non-`BestEffort` tenant are an audit violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionCloseCause {
    /// Orderly close (stream ended, caller tore it down).
    Closed,
    /// Terminated by a fault (node/link failure, degradation eviction,
    /// component crash).
    Killed,
    /// Reclaimed by the pressure-driven preemptor.
    Preempted,
}

/// Per-tenant mirror of the session lifecycle plus committed-resource
/// running sums. Reconciliation invariant:
/// `admitted == closed + killed + preempted + live`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant's tier (fixed at registration).
    pub tier: TenantTier,
    /// Sessions committed on behalf of this tenant.
    pub admitted: u64,
    /// Sessions closed in an orderly fashion.
    pub closed: u64,
    /// Sessions terminated by faults.
    pub killed: u64,
    /// Sessions reclaimed by preemption.
    pub preempted: u64,
    /// Sessions currently live.
    pub live: u64,
    /// Requests shed by admission control (rate limit or congestion
    /// gate) before composition — never admitted, so not part of the
    /// reconciliation equation.
    pub shed: u64,
    /// Times this tenant was shed by the congestion gate while a lower
    /// tier held live sessions. Non-zero on a `Gold` tenant is the
    /// starvation audit violation.
    pub starved: u64,
    /// Node resources currently committed to this tenant's live sessions
    /// (running sum; the auditor re-derives it from sessions and compares
    /// within tolerance).
    pub committed: ResourceVector,
    /// Link bandwidth (kbit/s) currently committed to this tenant's live
    /// sessions.
    pub committed_bw_kbps: f64,
}

impl TenantStats {
    fn new(tier: TenantTier) -> Self {
        TenantStats {
            tier,
            admitted: 0,
            closed: 0,
            killed: 0,
            preempted: 0,
            live: 0,
            shed: 0,
            starved: 0,
            committed: ResourceVector::ZERO,
            committed_bw_kbps: 0.0,
        }
    }

    /// True when every admitted session is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.admitted == self.closed + self.killed + self.preempted + self.live
    }
}

/// The per-tenant ledger, indexed by [`TenantId`]. Entries are created
/// lazily on first touch (registration or first recorded event); ids are
/// expected to be dense and small.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantLedger {
    tenants: Vec<Option<TenantStats>>,
}

impl TenantLedger {
    /// Registers a tenant with its tier; idempotent (an existing entry's
    /// tier is left untouched).
    pub(crate) fn register(&mut self, id: TenantId, tier: TenantTier) {
        let entry = self.entry(id);
        entry.get_or_insert_with(|| TenantStats::new(tier));
    }

    fn entry(&mut self, id: TenantId) -> &mut Option<TenantStats> {
        let idx = id.0 as usize;
        if self.tenants.len() <= idx {
            self.tenants.resize(idx + 1, None);
        }
        &mut self.tenants[idx]
    }

    fn touch(&mut self, binding: TenantBinding) -> &mut TenantStats {
        self.entry(binding.tenant).get_or_insert_with(|| TenantStats::new(binding.tier))
    }

    /// Stats for `id`, `None` if never registered or touched.
    pub fn stats(&self, id: TenantId) -> Option<&TenantStats> {
        self.tenants.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Iterates registered tenants in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &TenantStats)> {
        self.tenants
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (TenantId(i as u32), s)))
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.iter().filter(|s| s.is_some()).count()
    }

    /// True when no tenant was ever registered or touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when any tenant strictly below `tier` currently holds live
    /// sessions — the starvation predicate's "resources held by lower
    /// tiers" side.
    pub fn lower_tier_live(&self, tier: TenantTier) -> bool {
        self.iter().any(|(_, s)| s.tier > tier && s.live > 0)
    }

    /// Records a committed session: `demand` is the session's summed node
    /// resources, `bw_kbps` its summed link bandwidth.
    pub(crate) fn record_admit(&mut self, binding: TenantBinding, demand: ResourceVector, bw_kbps: f64) {
        let stats = self.touch(binding);
        stats.admitted += 1;
        stats.live += 1;
        stats.committed += demand;
        stats.committed_bw_kbps += bw_kbps;
    }

    /// Records a session teardown with its cause, returning the committed
    /// sums it releases.
    pub(crate) fn record_close(
        &mut self,
        binding: TenantBinding,
        cause: SessionCloseCause,
        demand: ResourceVector,
        bw_kbps: f64,
    ) {
        let stats = self.touch(binding);
        match cause {
            SessionCloseCause::Closed => stats.closed += 1,
            SessionCloseCause::Killed => stats.killed += 1,
            SessionCloseCause::Preempted => stats.preempted += 1,
        }
        stats.live = stats.live.saturating_sub(1);
        stats.committed -= demand;
        stats.committed_bw_kbps -= bw_kbps;
    }

    /// Adjusts committed sums downward when a degraded session's broken
    /// segment releases resources ahead of repair. Lifecycle counters
    /// are untouched — the session stays live throughout.
    pub(crate) fn record_repair_release(&mut self, binding: TenantBinding, demand: ResourceVector, bw_kbps: f64) {
        let stats = self.touch(binding);
        stats.committed -= demand;
        stats.committed_bw_kbps -= bw_kbps;
    }

    /// Adjusts committed sums upward when a repair splice commits the
    /// replacement segment into a live session.
    pub(crate) fn record_repair_grow(&mut self, binding: TenantBinding, demand: ResourceVector, bw_kbps: f64) {
        let stats = self.touch(binding);
        stats.committed += demand;
        stats.committed_bw_kbps += bw_kbps;
    }

    /// Records an admission-control shed (rate limit or congestion gate).
    pub(crate) fn record_shed(&mut self, binding: TenantBinding) {
        self.touch(binding).shed += 1;
    }

    /// Records a congestion-gate shed that happened while a lower tier
    /// held live sessions — the starvation event the auditor flags on
    /// `Gold` tenants.
    pub(crate) fn record_starved(&mut self, binding: TenantBinding) {
        self.touch(binding).starved += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLD: TenantBinding = TenantBinding { tenant: TenantId(0), tier: TenantTier::Gold };
    const BEST: TenantBinding = TenantBinding { tenant: TenantId(2), tier: TenantTier::BestEffort };

    #[test]
    fn ledger_reconciles_through_lifecycle() {
        let mut ledger = TenantLedger::default();
        let d = ResourceVector::new(2.0, 16.0);
        ledger.record_admit(GOLD, d, 100.0);
        ledger.record_admit(GOLD, d, 100.0);
        ledger.record_admit(BEST, d, 50.0);
        ledger.record_close(GOLD, SessionCloseCause::Closed, d, 100.0);
        ledger.record_close(BEST, SessionCloseCause::Preempted, d, 50.0);
        let gold = ledger.stats(TenantId(0)).unwrap();
        assert!(gold.reconciles());
        assert_eq!((gold.admitted, gold.closed, gold.live), (2, 1, 1));
        let best = ledger.stats(TenantId(2)).unwrap();
        assert!(best.reconciles());
        assert_eq!((best.preempted, best.live), (1, 0));
        assert_eq!(best.committed, ResourceVector::ZERO);
        assert_eq!(best.committed_bw_kbps, 0.0);
    }

    #[test]
    fn register_is_idempotent_and_iteration_is_id_ordered() {
        let mut ledger = TenantLedger::default();
        ledger.register(TenantId(3), TenantTier::Silver);
        ledger.register(TenantId(1), TenantTier::Gold);
        ledger.register(TenantId(3), TenantTier::Gold); // ignored
        let ids: Vec<_> = ledger.iter().map(|(id, s)| (id.0, s.tier)).collect();
        assert_eq!(ids, vec![(1, TenantTier::Gold), (3, TenantTier::Silver)]);
        assert_eq!(ledger.len(), 2);
        assert!(ledger.stats(TenantId(0)).is_none());
    }

    #[test]
    fn lower_tier_live_sees_only_strictly_lower_tiers() {
        let mut ledger = TenantLedger::default();
        ledger.record_admit(BEST, ResourceVector::ZERO, 0.0);
        assert!(ledger.lower_tier_live(TenantTier::Gold));
        assert!(ledger.lower_tier_live(TenantTier::Silver));
        assert!(!ledger.lower_tier_live(TenantTier::BestEffort));
        ledger.record_close(BEST, SessionCloseCause::Killed, ResourceVector::ZERO, 0.0);
        assert!(!ledger.lower_tier_live(TenantTier::Gold));
    }

    #[test]
    fn tier_ordering_ranks_gold_highest() {
        assert!(TenantTier::Gold < TenantTier::Silver);
        assert!(TenantTier::Silver < TenantTier::BestEffort);
        assert_eq!(TenantTier::ALL[0], TenantTier::Gold);
    }
}
