//! What a run reports: [`ScenarioResult`], the run's one ledger, with
//! its per-tier rows and the session-table digest.

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{digest, SummaryStats, TimeSeries};
use acp_state::ScanStats;

/// Per-tier outcome counters of a tenanted run. Tier composition is
/// config-dependent by design — excluded from every digest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierSummary {
    /// Arrivals bound to this tier.
    pub offered: u64,
    /// Arrivals shed by the admission controller.
    pub shed: u64,
    /// Admitted arrivals that composed successfully.
    pub composed: u64,
    /// Admitted arrivals whose composition failed.
    pub failed: u64,
    /// Sessions preempted to relieve pressure.
    pub preempted: u64,
    /// Sessions killed by faults.
    pub killed: u64,
    /// Sessions still live at the end of the run.
    pub live_end: u64,
}

impl TierSummary {
    /// End-to-end success rate: composed over offered (shed counts
    /// against the tier).
    pub fn success_rate(&self) -> f64 {
        share(self.composed, self.offered, 0.0)
    }
}

/// Index of `tier` into per-tier tables (`Gold` = 0 … `BestEffort` = 2).
pub fn tier_index(tier: TenantTier) -> usize {
    match tier {
        TenantTier::Gold => 0,
        TenantTier::Silver => 1,
        TenantTier::BestEffort => 2,
    }
}

/// The measurements of one run, and the one place they are kept: the
/// event loop adds into the `ScenarioResult` it will return, so a
/// measurement is one field here and one column where it is printed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Algorithm that produced the result.
    pub algorithm: AlgorithmKind,
    /// Per-sampling-period composition success rate.
    pub success_series: TimeSeries,
    /// Per-sampling-period probing ratio in force.
    pub ratio_series: TimeSeries,
    /// Total composition requests submitted.
    pub total_requests: u64,
    /// Total successful compositions.
    pub total_successes: u64,
    /// Total message overhead (probing + state maintenance).
    pub overhead: OverheadStats,
    /// Live sessions at the end of the run.
    pub final_sessions: usize,
    /// Tuner profiling sweeps performed (0 without tuner).
    pub profiling_runs: u64,
    /// Hit/miss counters of the overlay's virtual-path memo over the
    /// whole run.
    pub path_cache: acp_topology::PathCacheStats,
    /// Board scan-effort counters: state entries visited vs. what full
    /// scans would have visited.
    pub state_scans: ScanStats,
    /// Virtual-link aggregation rounds completed.
    pub aggregation_rounds: u64,
    /// Order-independent digest of the final session table (ids, request
    /// ids, component assignments) — for byte-level equivalence checks
    /// between maintenance modes.
    pub session_digest: u64,
    /// Events handled over the run (arrivals, teardowns, samples,
    /// refreshes, faults, sweeps — everything).
    pub sim_events: u64,
    /// Faults in the generated plan (0 without churn).
    pub fault_events: usize,
    /// Distinct fault classes the plan contains.
    pub fault_kinds: usize,
    /// Digest of the generated fault plan (0 without churn).
    pub fault_digest: u64,
    /// Sessions terminated by faults.
    pub sessions_killed: u64,
    /// Fault-terminated sessions successfully recomposed: the repair
    /// ledger's tickets settled as restored.
    pub sessions_recovered: u64,
    /// Fault-terminated sessions that could not be recomposed: the
    /// repair ledger's tickets settled as abandoned.
    pub sessions_lost: u64,
    /// Fault-terminated sessions still queued for their failover sweep
    /// when the run ended: `killed == recovered + lost + pending`. In no
    /// digest.
    pub sessions_pending: u64,
    /// Total audit violations across all audit passes (0 = invariants
    /// held throughout).
    pub audit_violations: u64,
    /// Running digest folded over every audit pass's report digest — a
    /// thread-count-independent fingerprint of *when* and *how* the
    /// invariants were checked.
    pub audit_digest: u64,
    /// What the incremental auditor did: passes, full fallbacks, whole
    /// memo walks. The closing audit is not among them. In no digest.
    pub audit: AuditCounts,
    /// Final reservation-lease ledger (created / expired / released /
    /// promoted over the whole run).
    pub lease_stats: LeaseStats,
    /// Leases still outstanding when the run ended (orphans within their
    /// lease lifetime; reclaimed by the post-horizon sweep).
    pub leases_live_end: u64,
    /// Leases that survived a reclamation sweep past the lease horizon,
    /// plus one if the ledger failed to reconcile — genuine leaks.
    pub leases_leaked: u64,
    /// Two-phase setup ledger summed over every composition attempt.
    pub setup_stats: SetupStats,
    /// Requests whose setup was touched by at least one message fault.
    pub fault_hit_requests: u64,
    /// Fault-hit requests that still composed (recovered by retry,
    /// escalation, or a resurfaced stale ack).
    pub fault_hit_successes: u64,
    /// Compositions whose search hit `OptimalConfig::max_expansions` and
    /// answered with the best found so far instead of the optimum (0 for
    /// every algorithm but Optimal). In no digest.
    pub optimal_truncated: u64,
    /// Per-tier outcomes in [`tier_index`] order (all zero tenant-less).
    /// Mix-dependent by design — excluded from every digest.
    pub tenant_tiers: [TierSummary; 3],
    /// Sessions preempted by the tenant pressure controller: the sum of
    /// the tiers' `preempted`.
    pub tenant_preemptions: u64,
    /// Tenant-isolation audit violations alone (also counted in
    /// `audit_violations`); 0 = per-tenant ledgers reconciled with the
    /// global brackets at every audit point.
    pub tenant_violations: u64,
    /// Repair tickets opened (fault incidents on live sessions; 0
    /// without churn).
    pub repair_opened: u64,
    /// Degraded sessions healed by an in-place segment splice.
    pub sessions_repaired: u64,
    /// Tickets cancelled by an unrelated session close while open.
    pub repair_cancelled: u64,
    /// Time-to-repair over recovered tickets, fault to settle, seconds
    /// (detection latency counts as outage).
    pub mttr: SummaryStats,
    /// Median MTTR in seconds (0 with no recoveries).
    pub mttr_p50: f64,
    /// 99th-percentile MTTR in seconds (0 with no recoveries).
    pub mttr_p99: f64,
}

/// `part / whole`, or `empty` when there is nothing to take a share of.
fn share(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        part as f64 / whole as f64
    }
}

impl ScenarioResult {
    /// The ledger before the first event: every count zero, both series
    /// empty.
    pub fn new(algorithm: AlgorithmKind) -> Self {
        ScenarioResult {
            algorithm,
            success_series: TimeSeries::new("success_rate"),
            ratio_series: TimeSeries::new("probing_ratio"),
            total_requests: 0,
            total_successes: 0,
            overhead: OverheadStats::new(),
            final_sessions: 0,
            profiling_runs: 0,
            path_cache: acp_topology::PathCacheStats::default(),
            state_scans: ScanStats::default(),
            aggregation_rounds: 0,
            session_digest: 0,
            sim_events: 0,
            fault_events: 0,
            fault_kinds: 0,
            fault_digest: 0,
            sessions_killed: 0,
            sessions_recovered: 0,
            sessions_lost: 0,
            sessions_pending: 0,
            audit_violations: 0,
            audit_digest: 0,
            audit: AuditCounts::default(),
            lease_stats: LeaseStats::default(),
            leases_live_end: 0,
            leases_leaked: 0,
            setup_stats: SetupStats::default(),
            fault_hit_requests: 0,
            fault_hit_successes: 0,
            optimal_truncated: 0,
            tenant_tiers: [TierSummary::default(); 3],
            tenant_preemptions: 0,
            tenant_violations: 0,
            repair_opened: 0,
            sessions_repaired: 0,
            repair_cancelled: 0,
            mttr: SummaryStats::default(),
            mttr_p50: 0.0,
            mttr_p99: 0.0,
        }
    }

    /// Charges one composition's cost to the run: its messages, its
    /// setup rounds, and whether the exhaustive search was cut short.
    pub(super) fn charge(&mut self, outcome: &ComposeOutcome) {
        self.overhead += outcome.stats;
        self.setup_stats += outcome.setup;
        self.optimal_truncated += u64::from(outcome.truncated);
    }

    /// Success rate over the whole run: successes over requests, 0.0
    /// when nothing arrived.
    pub fn overall_success(&self) -> f64 {
        share(self.total_successes, self.total_requests, 0.0)
    }

    /// Share of otherwise-failed compositions the retry loop recovered:
    /// fault-hit successes over those plus the requests lost *to* faults
    /// (`setup_stats.fault_failures`); 1.0 when no fault caused a loss.
    pub fn recovery_rate(&self) -> f64 {
        let whole = self.fault_hit_successes + self.setup_stats.fault_failures;
        share(self.fault_hit_successes, whole, 1.0)
    }

    /// Share of decisively settled repair incidents the session
    /// survived: `(repaired + recovered) / (repaired + recovered +
    /// lost)`. Cancelled tickets (the session closed naturally while
    /// waiting) are excluded; 1.0 when nothing settled decisively.
    pub fn survival(&self) -> f64 {
        let survived = self.sessions_repaired + self.sessions_recovered;
        share(survived, survived + self.sessions_lost, 1.0)
    }

    /// The session digest with the audit digest folded in: two runs are
    /// equivalent only if they composed identically **and** audited
    /// identically.
    pub fn chaos_digest(&self) -> u64 {
        digest::mix(digest::mix(self.session_digest ^ 0x9e37_79b9_7f4a_7c15, self.audit_digest), self.fault_digest)
    }
}

/// FNV-1a digest over the session table in id order: session id, request
/// id, and every assigned component. Two runs that composed identically
/// end with equal digests.
pub fn session_digest(system: &StreamSystem) -> u64 {
    let mut h = digest::OFFSET;
    let mut mix = |x: u64| h = digest::mix(h, x);
    for s in system.sessions_by_id() {
        mix(s.id.0);
        mix(s.request_spec.id.0);
        for c in &s.composition.assignment {
            mix(c.node.index() as u64);
            mix(u64::from(c.slot));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_have_their_empty_cases() {
        let blank = ScenarioResult::new(AlgorithmKind::Acp);
        assert_eq!((blank.recovery_rate(), blank.survival(), blank.overall_success()), (1.0, 1.0, 0.0));
        assert_eq!(blank.tenant_tiers[0].success_rate(), 0.0);
        let settled = ScenarioResult {
            sessions_repaired: 6,
            sessions_recovered: 2,
            sessions_lost: 1,
            repair_cancelled: 1,
            fault_hit_successes: 9,
            setup_stats: SetupStats { fault_failures: 1, ..SetupStats::default() },
            ..blank
        };
        assert!((settled.survival() - 8.0 / 9.0).abs() < 1e-12, "cancelled tickets are excluded");
        assert!((settled.recovery_rate() - 0.9).abs() < 1e-12);
    }
}
