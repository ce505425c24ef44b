//! End-to-end experiment scenarios.
//!
//! [`run_scenario`] wires everything together the way the paper's
//! simulator does (§4.1): generate the IP-layer topology, select the
//! overlay, deploy components, then drive Poisson request arrivals
//! through a composition algorithm inside a discrete-event simulation —
//! with periodic local-state refresh (10 s), virtual-link aggregation
//! (10 min), success-rate sampling (5 min), transient-reservation expiry,
//! session teardown after [5, 15] minutes, and (optionally) the
//! probing-ratio tuner driven by trace replay.

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{
    DeterministicRng, DetectionLatency, EventQueue, FaultKind, FaultPlan, FaultPlanConfig,
    FaultScheduler, Histogram, Model, SimDuration, SimTime, Simulation, SummaryStats, TimeSeries,
    WindowedCounter,
};
use acp_state::{GlobalStateBoard, GlobalStateConfig, ScanStats};
use acp_topology::{InetConfig, Overlay, OverlayConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::arrivals::RateSchedule;
use crate::requests::{sample, RequestConfig, RequestGenerator, RequestTrace};

/// Chaos (fault-injection) parameters for a scenario.
///
/// When present, a seeded [`FaultPlan`] is generated up front from the
/// scenario's master seed and replayed against the running system,
/// interleaved with the Poisson arrivals. Orphaned sessions are
/// recomposed after `failover_delay` (detection plus re-probing
/// latency); the [`SystemAuditor`] re-checks every conservation
/// invariant at each sampling point and after every failover sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Per-class fault rates and downtime distributions.
    pub faults: FaultPlanConfig,
    /// Delay between a fault landing and the failover sweep that
    /// recomposes its orphaned sessions.
    pub failover_delay: SimDuration,
    /// Period of background [`Rebalancer`] rounds under churn; `None`
    /// disables rebalancing.
    pub rebalance_interval: Option<SimDuration>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            faults: FaultPlanConfig::default(),
            failover_delay: SimDuration::from_secs(2),
            rebalance_interval: Some(SimDuration::from_minutes(5)),
        }
    }
}

impl ChurnConfig {
    /// A config with all fault rates scaled by `churn` (the grid knob).
    pub fn scaled(&self, churn: f64) -> Self {
        ChurnConfig { faults: self.faults.scaled(churn), ..self.clone() }
    }
}

/// Live-repair knob for a churn scenario.
///
/// When present, fault-struck *path* sessions are degraded in place
/// instead of killed (under [`RepairPolicy::Repair`]), a repair ticket
/// is opened per incident, and detection-latency-delayed repair sweeps
/// drive the [`RepairPlanner`] over the degraded set in ascending
/// session order. `None` (the default) draws no randomness, schedules
/// no events, and maintains no ledger — byte-identical to a repair-less
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairScenarioConfig {
    /// How long a fault goes unnoticed before its first repair (or
    /// restart) sweep; sampled once per fault incident.
    pub detection: DetectionLatency,
    /// Repair attempts per ticket before the session is abandoned
    /// (repair arm only — the restart baseline recomposes once).
    pub retry_budget: u32,
    /// Delay between a failed repair attempt and its retry sweep.
    pub retry_delay: SimDuration,
    /// Which arm this run exercises.
    pub policy: RepairPolicy,
}

impl Default for RepairScenarioConfig {
    fn default() -> Self {
        RepairScenarioConfig {
            detection: DetectionLatency::default(),
            retry_budget: 3,
            retry_delay: SimDuration::from_secs(2),
            policy: RepairPolicy::Repair,
        }
    }
}

/// One tenant in a multi-tenant scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Service tier (admission priority under congestion).
    pub tier: TenantTier,
    /// Relative share of the arrival mix (weights need not sum to 1).
    pub weight: f64,
    /// Token-bucket rate limit as `(requests_per_sec, burst)`; `None`
    /// leaves the tenant uncapped.
    pub rate_limit: Option<(f64, f64)>,
}

/// Periodic preemption of best-effort sessions under pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPreemptionConfig {
    /// Period of preemption-controller rounds.
    pub interval: SimDuration,
    /// Preempt only when the board congestion estimate is at or above
    /// this level.
    pub congestion_threshold: f64,
    /// Victim-selection policy (hottest nodes first, best-effort only).
    pub policy: PreemptionConfig,
}

impl Default for TenantPreemptionConfig {
    fn default() -> Self {
        TenantPreemptionConfig {
            interval: SimDuration::from_minutes(1),
            congestion_threshold: 0.75,
            policy: PreemptionConfig::default(),
        }
    }
}

/// Multi-tenant knob for a scenario.
///
/// When present, every arrival is stamped with a tenant drawn from its
/// own label-derived stream (the workload stream is untouched) and must
/// pass the [`AdmissionController`] before composing. `None` — and a
/// single uncapped `Gold` tenant without preemption — are byte-identical
/// to the tenant-less run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantsConfig {
    /// The tenant population; `TenantId(i)` is the index into this vec.
    pub tenants: Vec<TenantSpec>,
    /// Tier congestion-shedding thresholds.
    pub admission: AdmissionConfig,
    /// Best-effort preemption under pressure; `None` disables it (and
    /// schedules no control events, keeping `sim_events` identical).
    pub preemption: Option<TenantPreemptionConfig>,
}

impl TenantsConfig {
    /// A single uncapped `Gold` tenant with no preemption: admits every
    /// request, so runs are byte-identical to the tenant-less path.
    pub fn single_gold() -> Self {
        TenantsConfig {
            tenants: vec![TenantSpec { tier: TenantTier::Gold, weight: 1.0, rate_limit: None }],
            admission: AdmissionConfig::default(),
            preemption: None,
        }
    }

    /// The benchmark mix: one `Gold`, one `Silver`, two `BestEffort`
    /// tenants at equal weight, uncapped, with preemption enabled.
    pub fn standard_mix() -> Self {
        let spec = |tier| TenantSpec { tier, weight: 1.0, rate_limit: None };
        TenantsConfig {
            tenants: vec![
                spec(TenantTier::Gold),
                spec(TenantTier::Silver),
                spec(TenantTier::BestEffort),
                spec(TenantTier::BestEffort),
            ],
            admission: AdmissionConfig::default(),
            preemption: Some(TenantPreemptionConfig::default()),
        }
    }
}

/// Per-tier outcome counters of a tenanted run. Tier composition is
/// config-dependent by design — excluded from every digest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierSummary {
    /// Arrivals bound to this tier.
    pub offered: u64,
    /// Arrivals shed by the admission controller (rate + congestion).
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

/// Tier labels in `tier_index` order.
pub const TIER_LABELS: [&str; 3] = ["gold", "silver", "best-effort"];

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// IP-layer node count (paper: 3 200; smaller for quick runs).
    pub ip_nodes: usize,
    /// Stream-processing overlay size (paper: 200–600).
    pub stream_nodes: usize,
    /// Overlay neighbours per node.
    pub overlay_neighbors: usize,
    /// Size of the function catalogue (paper: 80). Smaller systems need a
    /// smaller catalogue so every function keeps a healthy candidate pool
    /// (the paper scales components proportionally with nodes instead).
    pub functions: usize,
    /// Component deployment / node capacity parameters.
    pub system: SystemConfig,
    /// Global-state maintenance parameters.
    pub global_state: GlobalStateConfig,
    /// Request requirement distributions.
    pub requests: RequestConfig,
    /// Arrival rate schedule (requests/minute).
    pub schedule: RateSchedule,
    /// Simulated duration (paper: 100–150 minutes).
    pub duration: SimDuration,
    /// Success-rate sampling period (paper: 5 minutes).
    pub sampling_period: SimDuration,
    /// Local-state refresh interval (paper: ~10 seconds).
    pub local_refresh: SimDuration,
    /// Virtual-link aggregation interval (paper: ~10 minutes).
    pub aggregation_interval: SimDuration,
    /// The composition algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Probing configuration (for the probing algorithms).
    pub probing: ProbingConfig,
    /// Exhaustive-search configuration (for [`AlgorithmKind::Optimal`]).
    pub optimal: OptimalConfig,
    /// Profiling probing-ratio tuner (§3.4); `None` runs a fixed ratio.
    pub tuner: Option<TunerConfig>,
    /// Control-theoretic tuner (future-work extension); mutually
    /// exclusive with `tuner`.
    pub controller: Option<PiControllerConfig>,
    /// Cap on requests kept for trace-replay profiling.
    pub replay_capacity: usize,
    /// Fault injection (chaos) parameters; `None` runs fault-free.
    pub churn: Option<ChurnConfig>,
    /// Two-phase setup parameters (message faults on probe/confirm
    /// traffic, retry with escalation); `None` runs the plain path.
    /// `Some` with all fault rates zero is byte-identical to `None`.
    pub setup: Option<SetupConfig>,
    /// Multi-tenant admission control; `None` runs tenant-less, and a
    /// single uncapped `Gold` tenant is byte-identical to `None`.
    pub tenants: Option<TenantsConfig>,
    /// Live session repair under churn (make-before-break suffix
    /// recomposition with detection latency and retry budgets); `None`
    /// keeps the kill-and-failover behaviour byte-identical to today.
    pub repair: Option<RepairScenarioConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            ip_nodes: 3_200,
            stream_nodes: 400,
            overlay_neighbors: 6,
            functions: 80,
            system: SystemConfig {
                components_per_node: (2, 3),
                node_cpu: (40.0, 80.0),
                node_memory_mb: (400.0, 1200.0),
                ..SystemConfig::default()
            },
            global_state: GlobalStateConfig::default(),
            requests: RequestConfig::default(),
            schedule: RateSchedule::constant(40.0),
            duration: SimDuration::from_minutes(100),
            sampling_period: SimDuration::from_minutes(5),
            local_refresh: SimDuration::from_secs(10),
            aggregation_interval: SimDuration::from_minutes(10),
            algorithm: AlgorithmKind::Acp,
            probing: ProbingConfig::default(),
            optimal: OptimalConfig::default(),
            tuner: None,
            controller: None,
            replay_capacity: 60,
            churn: None,
            setup: None,
            tenants: None,
            repair: None,
        }
    }
}

impl ScenarioConfig {
    /// A laptop-scale configuration for tests and examples: a small IP
    /// graph and overlay, short duration.
    pub fn small(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            ip_nodes: 400,
            stream_nodes: 50,
            overlay_neighbors: 4,
            functions: 20,
            system: SystemConfig { components_per_node: (3, 5), ..SystemConfig::default() },
            duration: SimDuration::from_minutes(20),
            schedule: RateSchedule::constant(10.0),
            ..ScenarioConfig::default()
        }
    }

    /// Checks, before anything is built, every precondition the run
    /// would otherwise trip over deep inside a crate — or never: a zero
    /// period re-schedules its event at `now + 0` without end.
    ///
    /// # Errors
    ///
    /// The first violated precondition, in words.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |period: SimDuration| period > SimDuration::ZERO;
        let preemption = self.tenants.as_ref().and_then(|t| t.preemption);
        let checks = [
            (self.stream_nodes >= 2, "stream_nodes: need at least two stream nodes"),
            (self.overlay_neighbors >= 1, "overlay_neighbors: need at least one neighbour per node"),
            (self.ip_nodes >= self.stream_nodes, "ip_nodes: IP graph smaller than the overlay"),
            (self.functions >= 12, "functions: the template library needs at least 12"),
            (positive(self.sampling_period), "sampling_period must be positive"),
            (positive(self.local_refresh), "local_refresh must be positive"),
            (positive(self.aggregation_interval), "aggregation_interval must be positive"),
            (
                self.churn.as_ref().and_then(|c| c.rebalance_interval).is_none_or(positive),
                "churn.rebalance_interval must be positive",
            ),
            (preemption.is_none_or(|p| positive(p.interval)), "tenants.preemption.interval must be positive"),
            (
                self.tenants.as_ref().is_none_or(|t| {
                    !t.tenants.is_empty() && t.tenants.iter().all(|spec| spec.weight > 0.0)
                }),
                "tenants: need at least one tenant, all with positive weights",
            ),
            (
                self.tuner.is_none() || self.controller.is_none(),
                "tuner and controller are mutually exclusive",
            ),
        ];
        if let Some((_, why)) = checks.iter().find(|(holds, _)| !holds) {
            return Err((*why).to_string());
        }
        // Every `(lo, hi)` the builders hand to `gen_range`: an inverted
        // one panics there with "cannot sample empty range".
        let (system, requests) = (&self.system, &self.requests);
        let count = |(lo, hi): (usize, usize)| (lo as f64, hi as f64);
        let ranges = [
            ("system.components_per_node", count(system.components_per_node)),
            ("system.node_cpu", system.node_cpu),
            ("system.node_memory_mb", system.node_memory_mb),
            ("system.component_max_rate_kbps", system.component_max_rate_kbps),
            ("requests.per_hop_delay_ms", requests.per_hop_delay_ms),
            ("requests.max_loss", requests.max_loss),
            ("requests.base_cpu", requests.base_cpu),
            ("requests.base_memory_mb", requests.base_memory_mb),
            ("requests.bandwidth_kbps", requests.bandwidth_kbps),
            ("requests.stream_rate_kbps", requests.stream_rate_kbps),
            ("requests.session_minutes", requests.session_minutes),
        ];
        match ranges.iter().find(|(_, (lo, hi))| lo.partial_cmp(hi).is_none_or(|o| o.is_gt())) {
            Some((name, _)) => Err(format!("{name} is an inverted range")),
            None => Ok(()),
        }
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
    /// Success rate over the whole run.
    pub overall_success: f64,
    /// Total composition requests submitted.
    pub total_requests: u64,
    /// Total successful compositions.
    pub total_successes: u64,
    /// Total message overhead (probing + state maintenance).
    pub overhead: OverheadStats,
    /// `overhead.total_messages()` per simulated minute.
    pub messages_per_minute: f64,
    /// Probe messages alone per simulated minute.
    pub probe_messages_per_minute: f64,
    /// Live sessions at the end of the run.
    pub final_sessions: usize,
    /// Tuner profiling sweeps performed (0 without tuner).
    pub profiling_runs: u64,
    /// Distribution of probe messages per request (buckets of 5, range
    /// 0–200, overflow collected).
    pub probe_histogram: Histogram,
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
    /// Simulation events handled over the run (arrivals, teardowns,
    /// samples, refreshes, faults, sweeps — everything).
    pub sim_events: u64,
    /// Faults in the generated plan (0 without churn).
    pub fault_events: usize,
    /// Distinct fault classes the plan contains.
    pub fault_kinds: usize,
    /// Digest of the generated fault plan (0 without churn).
    pub fault_digest: u64,
    /// Sessions terminated by faults.
    pub sessions_killed: u64,
    /// Fault-terminated sessions successfully recomposed.
    pub sessions_recovered: u64,
    /// Fault-terminated sessions that could not be recomposed.
    pub sessions_lost: u64,
    /// Fault-terminated sessions still queued for their failover sweep
    /// when the run ended: `killed == recovered + lost + pending`. In no
    /// digest.
    pub sessions_pending: u64,
    /// Fault-to-recomposition latency of recovered sessions (seconds).
    pub recovery_latency: SummaryStats,
    /// Total audit violations across all audit passes (0 = invariants
    /// held throughout).
    pub audit_violations: u64,
    /// Running digest folded over every audit pass's report digest — a
    /// thread-count-independent fingerprint of *when* and *how* the
    /// invariants were checked.
    pub audit_digest: u64,
    /// Background migrations performed by the churn rebalancer.
    pub migrations: u64,
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
    /// Sessions preempted by the tenant pressure controller.
    pub tenant_preemptions: u64,
    /// Tenant-isolation audit violations alone (also counted in
    /// `audit_violations`); 0 = per-tenant ledgers reconciled with the
    /// global brackets at every audit point.
    pub tenant_violations: u64,
    /// Repair tickets opened (fault incidents on live sessions; 0
    /// without a repair config).
    pub repair_opened: u64,
    /// Repair/restart attempts charged across all tickets.
    pub repair_attempts: u64,
    /// Degraded sessions healed by an in-place segment splice.
    pub sessions_repaired: u64,
    /// Ticketed sessions recovered by a full restart instead (the
    /// terminate baseline, plus non-path sessions the planner cannot
    /// segment).
    pub sessions_restored: u64,
    /// Tickets abandoned: retry budget exhausted or restart failed.
    pub repair_abandoned: u64,
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
    /// and the probe histogram empty.
    pub fn new(algorithm: AlgorithmKind) -> Self {
        ScenarioResult {
            algorithm,
            success_series: TimeSeries::new("success_rate"),
            ratio_series: TimeSeries::new("probing_ratio"),
            overall_success: 0.0,
            total_requests: 0,
            total_successes: 0,
            overhead: OverheadStats::new(),
            messages_per_minute: 0.0,
            probe_messages_per_minute: 0.0,
            final_sessions: 0,
            profiling_runs: 0,
            probe_histogram: Histogram::new(0.0, 200.0, 40),
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
            recovery_latency: SummaryStats::default(),
            audit_violations: 0,
            audit_digest: 0,
            migrations: 0,
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
            repair_attempts: 0,
            sessions_repaired: 0,
            sessions_restored: 0,
            repair_abandoned: 0,
            repair_cancelled: 0,
            mttr: SummaryStats::default(),
            mttr_p50: 0.0,
            mttr_p99: 0.0,
        }
    }

    /// Share of otherwise-failed compositions the retry loop recovered:
    /// fault-hit successes over those plus the requests lost *to* faults
    /// (`setup_stats.fault_failures`); 1.0 when no fault caused a loss.
    pub fn recovery_rate(&self) -> f64 {
        let whole = self.fault_hit_successes + self.setup_stats.fault_failures;
        share(self.fault_hit_successes, whole, 1.0)
    }

    /// Share of decisively settled repair incidents the session
    /// survived: `(repaired + restored) / (repaired + restored +
    /// abandoned)`. Cancelled tickets (the session closed naturally while
    /// waiting) are excluded; 1.0 when nothing settled decisively.
    pub fn survival(&self) -> f64 {
        let survived = self.sessions_repaired + self.sessions_restored;
        share(survived, survived + self.repair_abandoned, 1.0)
    }

    /// Share of recoveries that preserved the running session (in-place
    /// splice rather than restart); 0 when nothing recovered.
    pub fn continuity(&self) -> f64 {
        share(self.sessions_repaired, self.sessions_repaired + self.sessions_restored, 0.0)
    }

    /// The session digest with the audit digest folded in: two runs are
    /// equivalent only if they composed identically **and** audited
    /// identically.
    pub fn chaos_digest(&self) -> u64 {
        let mut h = self.session_digest ^ 0x9e37_79b9_7f4a_7c15;
        h ^= self.audit_digest;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
        h ^= self.fault_digest;
        h.wrapping_mul(0x1_0000_0000_01b3)
    }
}

/// FNV-1a digest over the sorted session table: session id, request id,
/// and every assigned component. Two runs that composed identically end
/// with equal digests.
pub fn session_digest(system: &StreamSystem) -> u64 {
    let mut sessions: Vec<_> = system.sessions().collect();
    sessions.sort_by_key(|s| s.id.0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for s in &sessions {
        mix(s.id.0);
        mix(s.request.0);
        for c in &s.composition.assignment {
            mix(c.node.index() as u64);
            mix(u64::from(c.slot));
        }
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    SessionEnd(SessionId),
    Sample,
    LocalRefresh,
    Aggregate,
    /// Replay all fault-plan events due at this instant.
    Fault,
    /// Recompose the sessions orphaned by recent faults.
    FailoverSweep,
    /// Repair the degraded sessions whose detection latency (or retry
    /// delay) has elapsed. Scheduled only by repair-enabled runs, so
    /// every other configuration keeps an identical event stream.
    RepairSweep,
    /// One background rebalancer round (churn only).
    Rebalance,
    /// One tenant pressure-controller round (preemption only): scheduled
    /// solely when a `TenantsConfig` enables preemption, so every other
    /// configuration keeps an identical event stream.
    TenantControl,
}

/// Live fault-injection state carried by a churn scenario.
struct ChurnState {
    config: ChurnConfig,
    scheduler: FaultScheduler,
    /// Session-duration stream for recovered sessions; separate from the
    /// workload stream so enabling churn never perturbs the arrivals.
    rng: StdRng,
    /// Sessions orphaned by faults, as `(due, (failed_at, request))`: the
    /// sweep recomposes an orphan once `due` has passed. Without repair,
    /// `due` is always `failed_at + failover_delay`; repair-enabled runs
    /// substitute the sampled detection latency.
    pending: Vec<(SimTime, (SimTime, Request))>,
    rebalancer: Rebalancer,
}

/// The setup mode repair composes run under: mirrors the scenario's
/// `setup` config so repair probing sees the same message-fault
/// environment as arrival probing, with its own label-derived seed.
enum RepairComposeMode {
    Single(SinglePhase),
    // Boxed: SetupState is ~300 bytes vs SinglePhase's zero, and one
    // lives per run, so the indirection is free.
    Two(Box<SetupState>),
}

/// Live repair state carried by a repair-enabled scenario.
struct RepairRuntime {
    config: RepairScenarioConfig,
    planner: RepairPlanner,
    /// Detection-latency stream; label-derived, and the default `Fixed`
    /// distribution draws nothing at all.
    detect_rng: StdRng,
    /// Probing randomness for repair composes, separate from the main
    /// composer so enabling repair never perturbs arrival compositions.
    compose_rng: StdRng,
    mode: RepairComposeMode,
    /// Degraded sessions awaiting their detection latency or retry
    /// delay, as `(due, session)`.
    pending: Vec<(SimTime, SessionId)>,
}

/// Takes the entries of a `(due, …)` retry list whose time has come,
/// in list order; later ones wait for the sweep their own event
/// scheduled.
fn drain_due<T>(pending: &mut Vec<(SimTime, T)>, now: SimTime) -> Vec<T> {
    pending.extract_if(.., |&mut (due, _)| due <= now).map(|(_, item)| item).collect()
}

/// The retry policy of both sweeps: a failed attempt on `request`'s
/// repair ticket is tried again `retry_delay` from `now` while the
/// ticket has attempts left in `retry_budget`. `None` — budget spent, or
/// no ticket — means settle now.
fn retry_at(
    config: &RepairScenarioConfig,
    ledger: &RepairLedger,
    request: Option<RequestId>,
    now: SimTime,
) -> Option<SimTime> {
    let ticket = ledger.ticket(request?)?;
    (ticket.attempts < config.retry_budget).then_some(now + config.retry_delay)
}

/// Live multi-tenant state carried by a tenanted scenario.
struct TenantRuntime {
    config: TenantsConfig,
    /// `TenantId(i)` → binding, index-aligned with `config.tenants`.
    bindings: Vec<TenantBinding>,
    /// Cumulative arrival-mix weights for the weighted draw.
    cumulative_weights: Vec<f64>,
    /// Tenant-assignment stream; separate from the workload stream so
    /// enabling tenancy never perturbs the arrivals.
    rng: StdRng,
    admission: AdmissionController,
    preemptor: Preemptor,
}

impl TenantRuntime {
    /// Draws the next arrival's tenant from the mix weights.
    fn draw(&mut self) -> TenantBinding {
        let total = *self.cumulative_weights.last().expect("at least one tenant");
        let x = self.rng.gen_range(0.0..total);
        let idx = self
            .cumulative_weights
            .iter()
            .position(|&w| x < w)
            .unwrap_or(self.bindings.len() - 1);
        self.bindings[idx]
    }
}

struct ScenarioModel {
    config: ScenarioConfig,
    system: StreamSystem,
    board: GlobalStateBoard,
    composer: Box<dyn Composer>,
    tuner: Option<ProbingRatioTuner>,
    controller: Option<PiRatioController>,
    generator: RequestGenerator,
    trace: RequestTrace,
    workload_rng: StdRng,
    replay_seed: u64,
    counter: WindowedCounter,
    replay_key_offset: u64,
    churn: Option<ChurnState>,
    repair: Option<RepairRuntime>,
    tenants: Option<TenantRuntime>,
    auditor: SystemAuditor,
    /// The run's ledger: every handler adds its measurements here, and
    /// `summarize` returns it.
    result: ScenarioResult,
}

impl ScenarioModel {
    fn current_ratio(&self) -> f64 {
        self.composer.probing_ratio().unwrap_or(1.0)
    }

    /// Runs the reclamation sweep, then the system auditor (including
    /// the lease-expiry checks at `now`) plus the board coherence audit,
    /// and folds the report into the running digest. Violations
    /// accumulate; a run whose invariants held throughout ends with
    /// `audit_violations == 0`. The sweep is a no-op on fault-free runs
    /// (compositions never leave transients behind) and is exactly the
    /// recovery path for leases orphaned by lost confirmations.
    fn run_audit(&mut self, now: SimTime) {
        self.system.expire_transients(now);
        let mut report = self.auditor.audit_at(&self.system, Some(now));
        report.merge(AuditReport::from_violations(self.board.audit_against(&self.system)));
        self.result.audit_violations += report.len() as u64;
        self.result.tenant_violations += report
            .violations()
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    AuditViolation::TenantLedgerMismatch { .. }
                        | AuditViolation::TenantConservation { .. }
                        | AuditViolation::PreemptionOutsideBestEffort { .. }
                        | AuditViolation::GoldStarvation { .. }
                )
            })
            .count() as u64;
        self.result.audit_digest ^= report.digest();
        self.result.audit_digest = self.result.audit_digest.wrapping_mul(0x1_0000_0000_01b3);
    }

    /// Replays one fault-plan event through [`StreamSystem::apply_fault`]
    /// and keeps what is the scenario's own: publishing the stale half
    /// of the board, the detection draw, ticket opening, and scheduling
    /// the two sweeps.
    ///
    /// Without a repair config, struck sessions are killed and queued
    /// for the failover sweep `failover_delay` later. Under
    /// [`RepairPolicy::Repair`], path sessions are *degraded in place*
    /// and queued for a repair sweep after the sampled detection
    /// latency; non-path sessions (and every session under
    /// [`RepairPolicy::Terminate`]) still die, but get a repair ticket
    /// so MTTR and survival are measured identically in both arms.
    fn apply_fault(&mut self, now: SimTime, kind: FaultKind, queue: &mut EventQueue<Event>) {
        let policy = self.repair.as_ref().map_or(RepairPolicy::Terminate, |r| r.config.policy);
        let fault = self.system.apply_fault(kind, policy, now);
        self.result.overhead.state_update_messages += self.board.publish(&self.system, fault.stale);
        let DegradeOutcome { degraded, orphaned } = fault.broken;
        if orphaned.is_empty() && degraded.is_empty() {
            return;
        }
        let churn = self.churn.as_mut().expect("faults imply churn");
        self.result.sessions_killed += orphaned.len() as u64;
        // One detection draw per fault incident: every session the fault
        // struck is detected together. Repair-less runs keep the fixed
        // failover delay and draw nothing.
        let due = now
            + match self.repair.as_mut() {
                Some(repair) => repair.config.detection.sample(&mut repair.detect_rng),
                None => churn.config.failover_delay,
            };
        if let Some(repair) = self.repair.as_mut() {
            // Killed sessions get restart tickets *after* the kill (so
            // the close hook cannot cancel them); degraded sessions had
            // theirs opened by the fault operator itself.
            for request in &orphaned {
                self.system.repair_ledger_mut().open_ticket(request.id, now);
            }
            if !degraded.is_empty() {
                repair.pending.extend(degraded.into_iter().map(|sid| (due, sid)));
                queue.schedule(due, Event::RepairSweep);
            }
        }
        if !orphaned.is_empty() {
            churn.pending.extend(orphaned.into_iter().map(|r| (due, (now, r))));
            queue.schedule(due, Event::FailoverSweep);
        }
    }

    /// Trace replay used by the tuner: clones the current system state,
    /// runs the recorded recent workload at `alpha`, and returns the
    /// achieved success rate.
    fn replay_success(&mut self, alpha: f64) -> f64 {
        if self.trace.is_empty() {
            return 1.0;
        }
        self.replay_key_offset += 1_000_000;
        let requests = self.trace.replay_requests(u64::MAX / 2 + self.replay_key_offset);
        let mut system = self.system.clone();
        let mut replayer = AcpComposer::new(
            ProbingConfig { probing_ratio: alpha, ..self.config.probing.clone() },
            self.replay_seed ^ (alpha * 1_000.0) as u64,
        );
        let mut ok = 0usize;
        for request in &requests {
            let outcome = replayer.compose(&mut system, &self.board, request, SimTime::ZERO);
            if outcome.session.is_some() {
                ok += 1;
            }
        }
        ok as f64 / requests.len() as f64
    }
}

impl Model for ScenarioModel {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        self.result.sim_events += 1;
        match event {
            Event::Arrival => {
                // Expire stale transients before admission, as nodes do.
                // Only the two-phase path can leave transients behind
                // between events (orphans from lost confirmations); the
                // sweep visits only sites holding leases, so single-phase
                // runs find nothing to visit.
                self.system.expire_transients(now);
                let (mut request, session_duration) = self.generator.next(&mut self.workload_rng);
                // Tenanted runs stamp the request with a tenant drawn
                // from its own stream and consult the admission
                // controller before composing; shed requests count as
                // failures without composing (or entering the replay
                // trace). A single uncapped Gold tenant admits every
                // request, leaving the compose sequence byte-identical
                // to the tenant-less path.
                let mut admitted = true;
                if let Some(tenants) = self.tenants.as_mut() {
                    let binding = tenants.draw();
                    request.tenant = Some(binding);
                    let congestion = self.board.congestion_estimate();
                    let decision = tenants.admission.admit(binding, now, congestion);
                    let tier = &mut self.result.tenant_tiers[tier_index(binding.tier)];
                    tier.offered += 1;
                    if !decision.admitted() {
                        tier.shed += 1;
                        self.system.record_tenant_shed(binding);
                        // The congestion gate never sheds Gold; if it
                        // ever does while lower tiers hold resources,
                        // the starvation counter trips the auditor.
                        if decision == AdmissionDecision::ShedCongestion
                            && binding.tier == TenantTier::Gold
                            && self.system.tenant_ledger().lower_tier_live(binding.tier)
                        {
                            self.system.record_tenant_starved(binding);
                        }
                        admitted = false;
                    }
                }
                if admitted {
                    // The replay trace has one reader, the tuner.
                    if self.tuner.is_some() {
                        self.trace.record(request.clone());
                    }
                    let outcome =
                        self.composer.compose(&mut self.system, &self.board, &request, now);
                    let ledger = &mut self.result;
                    ledger.probe_histogram.add(outcome.stats.probe_messages as f64);
                    ledger.overhead += outcome.stats;
                    ledger.setup_stats += outcome.setup;
                    ledger.optimal_truncated += u64::from(outcome.truncated);
                    let success = outcome.session.is_some();
                    if outcome.setup.fault_hit() {
                        ledger.fault_hit_requests += 1;
                        ledger.fault_hit_successes += u64::from(success);
                    }
                    if let Some(binding) = request.tenant {
                        let tier = &mut ledger.tenant_tiers[tier_index(binding.tier)];
                        if success {
                            tier.composed += 1;
                        } else {
                            tier.failed += 1;
                        }
                    }
                    if let Some(sid) = outcome.session {
                        ledger.total_successes += 1;
                        queue.schedule(now + session_duration, Event::SessionEnd(sid));
                    }
                    self.counter.record(success);
                } else {
                    self.counter.record(false);
                }
                self.result.total_requests += 1;
                if let Some(next) = self.config.schedule.next_arrival(now, &mut self.workload_rng) {
                    if next <= SimTime::ZERO + self.config.duration {
                        queue.schedule(next, Event::Arrival);
                    }
                }
            }
            Event::SessionEnd(sid) => {
                self.system.close_session(sid);
            }
            Event::Sample => {
                let (_, rate) = self.counter.roll(now);
                if let Some(r) = rate {
                    self.result.success_series.push(now, r);
                }
                let ratio = self.current_ratio();
                self.result.ratio_series.push(now, ratio);
                // Probing-ratio tuning on the fresh sample.
                if let Some(mut tuner) = self.tuner.take() {
                    // Split borrows: the closure needs &mut self.
                    tuner.observe(rate, |alpha| self.replay_success(alpha));
                    self.composer.set_probing_ratio(tuner.ratio());
                    self.tuner = Some(tuner);
                }
                if let Some(controller) = self.controller.as_mut() {
                    let alpha = controller.observe(rate);
                    self.composer.set_probing_ratio(alpha);
                }
                self.trace.clear();
                self.run_audit(now);
                if now + self.config.sampling_period <= SimTime::ZERO + self.config.duration {
                    queue.schedule(now + self.config.sampling_period, Event::Sample);
                }
            }
            Event::LocalRefresh => {
                self.system.expire_transients(now);
                self.result.overhead.state_update_messages += self.board.refresh_nodes(&self.system);
                if now + self.config.local_refresh <= SimTime::ZERO + self.config.duration {
                    queue.schedule(now + self.config.local_refresh, Event::LocalRefresh);
                }
            }
            Event::Aggregate => {
                self.result.overhead.state_update_messages += self.board.aggregate_links(&self.system);
                if now + self.config.aggregation_interval <= SimTime::ZERO + self.config.duration {
                    queue.schedule(now + self.config.aggregation_interval, Event::Aggregate);
                }
            }
            Event::Fault => {
                let due = match self.churn.as_mut() {
                    Some(churn) => churn.scheduler.pop_due(now),
                    None => Vec::new(),
                };
                for fault in due {
                    self.apply_fault(now, fault.kind, queue);
                }
                if let Some(next) = self.churn.as_ref().and_then(|c| c.scheduler.next_time()) {
                    queue.schedule(next, Event::Fault);
                }
            }
            Event::FailoverSweep => {
                let Some(mut churn) = self.churn.take() else { return };
                self.system.expire_transients(now);
                // Only sessions whose due time has passed; later victims
                // wait for the sweep scheduled by their own fault.
                for (fail_time, request) in drain_due(&mut churn.pending, now) {
                    let outcome =
                        self.composer.compose(&mut self.system, &self.board, &request, now);
                    self.result.overhead += outcome.stats;
                    self.result.setup_stats += outcome.setup;
                    self.result.optimal_truncated += u64::from(outcome.truncated);
                    match outcome.session {
                        Some(sid) => {
                            self.result.sessions_recovered += 1;
                            self.result.recovery_latency.add((now - fail_time).as_secs_f64());
                            if self.repair.is_some() {
                                self.system.repair_ledger_mut().record_restored(request.id, now);
                            }
                            let minutes =
                                sample(&mut churn.rng, self.config.requests.session_minutes);
                            let end = now + SimDuration::from_secs_f64(minutes * 60.0);
                            queue.schedule(end, Event::SessionEnd(sid));
                        }
                        None => {
                            // Repair arm: restarts share the ticket's
                            // retry budget and re-queue until it runs
                            // out. The terminate baseline stays
                            // single-shot by contract.
                            let retry = self
                                .repair
                                .as_ref()
                                .filter(|r| r.config.policy == RepairPolicy::Repair)
                                .and_then(|r| {
                                    retry_at(&r.config, self.system.repair_ledger(), Some(request.id), now)
                                });
                            match retry {
                                Some(at) => {
                                    let ledger = self.system.repair_ledger_mut();
                                    ledger.begin_attempt(request.id);
                                    ledger.attempt_failed(request.id);
                                    churn.pending.push((at, (fail_time, request)));
                                    queue.schedule(at, Event::FailoverSweep);
                                }
                                None => {
                                    self.result.sessions_lost += 1;
                                    // A failed restart with no budget
                                    // left settles the ticket.
                                    if self.repair.is_some() {
                                        self.system.repair_ledger_mut().record_abandoned(request.id);
                                    }
                                }
                            }
                        }
                    }
                }
                self.churn = Some(churn);
                self.run_audit(now);
            }
            Event::RepairSweep => {
                let Some(mut repair) = self.repair.take() else { return };
                self.system.expire_transients(now);
                let mut due = drain_due(&mut repair.pending, now);
                // Canonical order: ascending session id.
                due.sort_unstable();
                due.dedup();
                let RepairRuntime { config: repair_config, planner, compose_rng, mode, pending, .. } =
                    &mut repair;
                for sid in due {
                    let attempt = match mode {
                        RepairComposeMode::Single(m) => planner.repair_session(
                            &mut self.system,
                            &self.board,
                            sid,
                            now,
                            &self.config.probing,
                            m,
                            compose_rng,
                        ),
                        RepairComposeMode::Two(m) => planner.repair_session(
                            &mut self.system,
                            &self.board,
                            sid,
                            now,
                            &self.config.probing,
                            m.as_mut(),
                            compose_rng,
                        ),
                    };
                    if let Some(probing) = attempt.probing {
                        self.result.overhead += probing.stats;
                        self.result.setup_stats += probing.setup;
                    }
                    match attempt.verdict {
                        // Repaired settles the ticket in the ledger;
                        // NotDegraded means the session ended or was
                        // already healed — nothing left to do.
                        RepairVerdict::Repaired | RepairVerdict::NotDegraded => {}
                        RepairVerdict::Failed(ref failure) => {
                            let request = self.system.session(sid).map(|s| s.request);
                            let retry = retry_at(repair_config, self.system.repair_ledger(), request, now);
                            if let Some(retry) = retry.filter(|_| failure.is_transient()) {
                                // Boundary contention eases within
                                // seconds — re-splice, budget allowing.
                                pending.push((retry, sid));
                                queue.schedule(retry, Event::RepairSweep);
                            } else {
                                // Structural failure (or budget spent):
                                // a later re-splice of the same segment
                                // is deterministic, so escalate to
                                // terminate-restart now. The session
                                // dies but its ticket stays open — the
                                // failover recompose settles it as
                                // restored or abandoned, so the repair
                                // arm is never worse than the restart
                                // baseline.
                                match self.system.terminate_for_restart(sid) {
                                    Some(request) if self.churn.is_some() => {
                                        let fail_time = self
                                            .system
                                            .repair_ledger()
                                            .ticket(request.id)
                                            .map_or(now, |t| t.failed_at);
                                        let churn = self.churn.as_mut().expect("checked");
                                        self.result.sessions_killed += 1;
                                        churn.pending.push((now, (fail_time, request)));
                                        queue.schedule(now, Event::FailoverSweep);
                                    }
                                    Some(request) => {
                                        // No churn runtime to restart
                                        // through (defensive): settle as
                                        // abandoned.
                                        self.system
                                            .repair_ledger_mut()
                                            .record_abandoned(request.id);
                                    }
                                    None => {}
                                }
                            }
                        }
                    }
                }
                self.repair = Some(repair);
                self.run_audit(now);
            }
            Event::Rebalance => {
                let Some(churn) = self.churn.as_mut() else { return };
                let moved = churn.rebalancer.rebalance_round(&mut self.system);
                self.result.migrations += moved.len() as u64;
                self.result.overhead.state_update_messages += self.board.refresh_nodes(&self.system);
                if let Some(interval) = churn.config.rebalance_interval {
                    if now + interval <= SimTime::ZERO + self.config.duration {
                        queue.schedule(now + interval, Event::Rebalance);
                    }
                }
            }
            Event::TenantControl => {
                let Some(mut tenants) = self.tenants.take() else { return };
                if let Some(preemption) = tenants.config.preemption {
                    if self.board.congestion_estimate() >= preemption.congestion_threshold {
                        let reclaimed = tenants.preemptor.preempt_round(&mut self.system);
                        if !reclaimed.is_empty() {
                            self.result.tenant_preemptions += reclaimed.len() as u64;
                            // Preempted capacity is only useful if the
                            // coarse state advertises it.
                            self.result.overhead.state_update_messages +=
                                self.board.refresh_nodes(&self.system);
                        }
                    }
                    if now + preemption.interval <= SimTime::ZERO + self.config.duration {
                        queue.schedule(now + preemption.interval, Event::TenantControl);
                    }
                }
                self.tenants = Some(tenants);
            }
        }
    }
}

/// Builds the system of a scenario (topology → overlay → deployment)
/// without running the workload. Useful for examples and benchmarks.
pub fn build_system(config: &ScenarioConfig) -> (StreamSystem, GlobalStateBoard, TemplateLibrary) {
    let streams = DeterministicRng::new(config.seed);
    let mut topo_rng = streams.stream("topology");
    let ip = InetConfig { nodes: config.ip_nodes, ..InetConfig::default() }.generate(&mut topo_rng);
    let mut overlay_rng = streams.stream("overlay");
    let overlay = Overlay::build(
        &ip,
        &OverlayConfig { stream_nodes: config.stream_nodes, neighbors: config.overlay_neighbors },
        &mut overlay_rng,
    );
    let mut system_rng = streams.stream("system");
    let registry = FunctionRegistry::with_size(config.functions);
    let mut template_rng = streams.stream("templates");
    let library = TemplateLibrary::standard(&registry, &mut template_rng);
    let system = StreamSystem::generate(overlay, registry, &config.system, &mut system_rng);
    let board = GlobalStateBoard::new(&system, config.global_state);
    (system, board, library)
}

/// Runs one scenario to completion and reports the paper's measurements.
///
/// # Panics
///
/// Panics with the message of [`ScenarioConfig::validate`] when the
/// configuration cannot run.
pub fn run_scenario(config: ScenarioConfig) -> ScenarioResult {
    if let Err(why) = config.validate() {
        panic!("invalid scenario config: {why}");
    }
    summarize(simulate(config))
}

/// Builds the scenario's model and runs its events up to the horizon.
fn simulate(config: ScenarioConfig) -> ScenarioModel {
    let (mut system, board, library) = build_system(&config);
    let streams = DeterministicRng::new(config.seed);
    let mut workload_rng = streams.stream("workload");
    let composer_seed = streams.seed_for("composer");
    let replay_seed = streams.seed_for("replay");

    // The setup mode is picked here, once: without a setup config the
    // probing composers are monomorphized over `SinglePhase` and the
    // two-phase machinery is compiled out of the run entirely. The
    // label-derived seed means enabling two-phase setup never perturbs
    // any existing stream.
    let mut composer = config.algorithm.build_composer(
        config.probing.clone(),
        config.optimal,
        composer_seed,
        config.setup.clone().map(|setup| (streams.seed_for("setup"), setup)),
    );
    let tuner = config.tuner.map(|t| {
        let tuner = ProbingRatioTuner::new(t);
        composer.set_probing_ratio(tuner.ratio());
        tuner
    });
    let controller = config.controller.map(|c| {
        let controller = PiRatioController::new(c);
        composer.set_probing_ratio(controller.ratio());
        controller
    });

    let generator = RequestGenerator::new(library, config.requests.clone());
    let mut result = ScenarioResult::new(config.algorithm);
    let sampling = config.sampling_period;
    let local_refresh = config.local_refresh;
    let aggregation = config.aggregation_interval;
    let duration = config.duration;
    let replay_capacity = config.replay_capacity;

    // Generate the full fault plan up front from its own seed stream:
    // the schedule is fixed before the first arrival, so replaying the
    // same seed injects byte-identical faults regardless of workload.
    let churn = config.churn.clone().map(|churn_config| {
        let plan = FaultPlan::generate(
            streams.seed_for("faults"),
            &churn_config.faults,
            system.node_count(),
            system.overlay().link_count(),
            duration,
        );
        result.fault_events = plan.len();
        result.fault_kinds = plan.distinct_kinds();
        result.fault_digest = plan.digest();
        ChurnState {
            scheduler: plan.into_scheduler(),
            rng: streams.stream("churn"),
            pending: Vec::new(),
            rebalancer: Rebalancer::new(RebalanceConfig::default()),
            config: churn_config,
        }
    });

    // Repair runtime: its streams are label-derived, so enabling repair
    // never perturbs arrivals, faults, or the main composer. The compose
    // mode mirrors the setup config — repair probing fights the same
    // lossy transport as arrival probing, on its own seed.
    let repair = config.repair.clone().map(|repair_config| {
        let mode = match &config.setup {
            Some(setup) => RepairComposeMode::Two(Box::new(SetupState::new(
                streams.seed_for("repair-setup"),
                setup.clone(),
            ))),
            None => RepairComposeMode::Single(SinglePhase),
        };
        RepairRuntime {
            planner: RepairPlanner::new(),
            detect_rng: streams.stream("repair"),
            compose_rng: streams.stream("repair-compose"),
            mode,
            pending: Vec::new(),
            config: repair_config,
        }
    });

    // Tenant population: ids are indices into the spec vec, registered
    // up front so every tier shows in the ledger even before its first
    // arrival. The assignment stream is label-derived, so enabling
    // tenancy never perturbs the arrival or fault streams.
    let tenants = config.tenants.clone().map(|tenants_config| {
        let mut bindings = Vec::with_capacity(tenants_config.tenants.len());
        let mut cumulative_weights = Vec::with_capacity(tenants_config.tenants.len());
        let mut admission = AdmissionController::new(tenants_config.admission);
        let mut acc = 0.0;
        for (i, spec) in tenants_config.tenants.iter().enumerate() {
            let id = TenantId(i as u32);
            system.register_tenant(id, spec.tier);
            bindings.push(TenantBinding { tenant: id, tier: spec.tier });
            acc += spec.weight;
            cumulative_weights.push(acc);
            if let Some((rate, burst)) = spec.rate_limit {
                admission.set_rate_limit(id, rate, burst);
            }
        }
        TenantRuntime {
            preemptor: Preemptor::new(
                tenants_config.preemption.map(|p| p.policy).unwrap_or_default(),
            ),
            rng: streams.stream("tenants"),
            bindings,
            cumulative_weights,
            admission,
            config: tenants_config,
        }
    });

    // The arrival chain opens 1 µs in; a schedule that opens at rate zero
    // opens it with the first arrival of its first live segment instead.
    let first_arrival = if config.schedule.rate_at(SimTime::ZERO) > 0.0 {
        Some(SimTime::ZERO + SimDuration::from_micros(1))
    } else {
        config.schedule.next_arrival(SimTime::ZERO, &mut workload_rng)
    };

    let model = ScenarioModel {
        system,
        board,
        composer,
        tuner,
        controller,
        generator,
        trace: RequestTrace::new(replay_capacity),
        workload_rng,
        replay_seed,
        counter: WindowedCounter::new(sampling),
        replay_key_offset: 0,
        churn,
        tenants,
        auditor: SystemAuditor::default(),
        result,
        repair,
        config,
    };

    let first_fault = model.churn.as_ref().and_then(|c| c.scheduler.next_time());
    let rebalance_interval = model.churn.as_ref().and_then(|c| c.config.rebalance_interval);
    let tenant_interval =
        model.tenants.as_ref().and_then(|t| t.config.preemption.map(|p| p.interval));
    let mut sim = Simulation::new(model);
    if let Some(t) = first_arrival {
        sim.queue_mut().schedule(t, Event::Arrival);
    }
    sim.queue_mut().schedule(SimTime::ZERO + sampling, Event::Sample);
    sim.queue_mut().schedule(SimTime::ZERO + local_refresh, Event::LocalRefresh);
    sim.queue_mut().schedule(SimTime::ZERO + aggregation, Event::Aggregate);
    if let Some(t) = first_fault {
        sim.queue_mut().schedule(t, Event::Fault);
    }
    if let Some(interval) = rebalance_interval {
        sim.queue_mut().schedule(SimTime::ZERO + interval, Event::Rebalance);
    }
    if let Some(interval) = tenant_interval {
        sim.queue_mut().schedule(SimTime::ZERO + interval, Event::TenantControl);
    }
    sim.run_until(SimTime::ZERO + duration);
    sim.into_model()
}

/// The closing audit and the post-horizon sweep of a finished run, and
/// what its ledger can only learn at the end.
fn summarize(mut model: ScenarioModel) -> ScenarioResult {
    let minutes = model.config.duration.as_minutes_f64();
    let end = SimTime::ZERO + model.config.duration;
    // Closing audit: the final state must satisfy every invariant too.
    model.run_audit(end);
    // Post-horizon reclamation sweep, to the latest expiry a lease can
    // legitimately carry: a request arriving at `end` reserves with
    // expiry `attempt + transient_timeout`, and under two-phase setup its
    // last retry round runs the whole backoff ladder after `end`.
    // Anything that survives outlived that window — a leak.
    let leases_live_end = model.system.live_lease_count() as u64;
    let backoff = model.config.setup.as_ref().map_or(SimDuration::ZERO, SetupConfig::max_backoff);
    model.system.expire_transients(end + backoff + model.config.probing.transient_timeout);
    let live_after_horizon = model.system.live_lease_count() as u64;

    let ScenarioModel { mut result, system, board, tuner, churn, .. } = model;
    result.leases_live_end = leases_live_end;
    result.leases_leaked =
        live_after_horizon + u64::from(!system.lease_stats().reconciles(live_after_horizon));
    result.lease_stats = system.lease_stats();
    result.overall_success = share(result.total_successes, result.total_requests, 0.0);
    // A zero-length run sent nothing in no time: 0, not 0/0.
    let per_minute = |count: u64| if minutes == 0.0 { 0.0 } else { count as f64 / minutes };
    result.messages_per_minute = per_minute(result.overhead.total_messages());
    result.probe_messages_per_minute = per_minute(result.overhead.probe_messages);
    result.final_sessions = system.session_count();
    result.session_digest = session_digest(&system);
    result.path_cache = system.path_cache_stats();
    result.state_scans = board.scan_stats();
    result.aggregation_rounds = board.aggregation_rounds();
    if let Some(tuner) = &tuner {
        result.profiling_runs = tuner.profiling_runs();
    }
    if let Some(churn) = &churn {
        result.sessions_pending = churn.pending.len() as u64;
    }
    // Session fates per tier (preempted / killed / live) are the tenant
    // ledger's; the admission columns were counted as they happened.
    for (_, stats) in system.tenant_ledger().iter() {
        let tier = &mut result.tenant_tiers[tier_index(stats.tier)];
        tier.preempted += stats.preempted;
        tier.killed += stats.killed;
        tier.live_end += stats.live;
    }
    let ledger = system.repair_ledger();
    result.repair_opened = ledger.opened;
    result.repair_attempts = ledger.attempts;
    result.sessions_repaired = ledger.repaired;
    result.sessions_restored = ledger.restored;
    result.repair_abandoned = ledger.abandoned;
    result.repair_cancelled = ledger.cancelled;
    result.mttr = *ledger.mttr_stats();
    result.mttr_p50 = ledger.mttr_quantile(0.5).unwrap_or(0.0);
    result.mttr_p99 = ledger.mttr_quantile(0.99).unwrap_or(0.0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_runs_and_composes() {
        let result = run_scenario(ScenarioConfig::small(1));
        // `small` runs 10 req/min × 20 min ⇒ ~200 Poisson arrivals; 150
        // is > 4σ below the mean, so this never flakes on a valid run
        // (the old `> 200` bound sat exactly at the mean and failed for
        // roughly half of all seeds).
        assert!(result.total_requests > 150, "10 req/min × 20 min ≈ 200, got {}", result.total_requests);
        assert!(result.overall_success > 0.5, "success {}", result.overall_success);
        assert!(result.messages_per_minute > 0.0);
        assert!(!result.success_series.is_empty());
    }

    #[test]
    fn deterministic_across_reruns() {
        let a = run_scenario(ScenarioConfig::small(7));
        let b = run_scenario(ScenarioConfig::small(7));
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.total_successes, b.total_successes);
        assert_eq!(a.overhead, b.overhead);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(ScenarioConfig::small(1));
        let b = run_scenario(ScenarioConfig::small(2));
        // total arrival counts are Poisson; extremely unlikely to match
        // exactly alongside identical success counts
        assert!(
            a.total_requests != b.total_requests || a.total_successes != b.total_successes,
            "seeds should matter"
        );
    }

    #[test]
    fn sessions_end_and_release_resources() {
        let mut config = ScenarioConfig::small(3);
        // long enough that early sessions expire (5-15 min durations)
        config.duration = SimDuration::from_minutes(30);
        let result = run_scenario(config);
        // fewer live sessions than total successes → teardown happened
        assert!(
            (result.final_sessions as u64) < result.total_successes,
            "{} sessions vs {} successes",
            result.final_sessions,
            result.total_successes
        );
    }

    #[test]
    fn acp_beats_random_under_load() {
        let mut acp_cfg = ScenarioConfig::small(5);
        acp_cfg.schedule = RateSchedule::constant(60.0);
        let mut rnd_cfg = acp_cfg.clone();
        rnd_cfg.algorithm = AlgorithmKind::Random;
        let acp = run_scenario(acp_cfg);
        let random = run_scenario(rnd_cfg);
        assert!(
            acp.overall_success > random.overall_success,
            "acp {} vs random {}",
            acp.overall_success,
            random.overall_success
        );
    }

    #[test]
    fn tuner_scenario_profiles_and_tracks_ratio() {
        let mut config = ScenarioConfig::small(6);
        config.tuner = Some(TunerConfig { target_success: 0.9, ..TunerConfig::default() });
        config.duration = SimDuration::from_minutes(25);
        let result = run_scenario(config);
        assert!(result.profiling_runs >= 1, "first sample must profile");
        assert!(!result.ratio_series.is_empty());
        // ratio stays within bounds
        for &(_, r) in result.ratio_series.samples() {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    /// The replay trace has one reader, the tuner. The horizon is off
    /// the five-minute sampling grid, so a run that records ends holding
    /// its last three minutes of arrivals.
    #[test]
    fn replay_trace_is_recorded_only_for_a_tuner() {
        let mut config = ScenarioConfig::small(6);
        config.duration = SimDuration::from_minutes(18);
        let plain = simulate(config.clone());
        assert!(plain.result.total_requests > 100);
        assert!(plain.trace.is_empty(), "{} requests cloned for no reader", plain.trace.len());

        config.tuner = Some(TunerConfig { target_success: 0.9, ..TunerConfig::default() });
        let tuned = simulate(config);
        assert!(!tuned.trace.is_empty());
        // The tuned run itself is what it was before the trace became a
        // deque recorded on demand (values taken at the parent commit).
        let profiling_runs = tuned.tuner.as_ref().map(|t| t.profiling_runs());
        assert_eq!(
            (session_digest(&tuned.system), tuned.result.total_successes, profiling_runs),
            (0x98df_e77d_c744_93fc, 187, Some(1))
        );
    }

    #[test]
    fn probe_histogram_collects_per_request_traffic() {
        let result = run_scenario(ScenarioConfig::small(12));
        assert_eq!(result.probe_histogram.count(), result.total_requests);
        // the median per-request probe count is positive and finite
        let median = result.probe_histogram.quantile(0.5).unwrap();
        assert!(median > 0.0, "median {median}");
    }

    #[test]
    fn state_updates_are_counted() {
        let result = run_scenario(ScenarioConfig::small(8));
        assert!(result.overhead.state_update_messages > 0, "aggregation rounds alone publish");
    }

    #[test]
    fn fault_free_runs_audit_clean() {
        let result = run_scenario(ScenarioConfig::small(4));
        assert_eq!(result.audit_violations, 0, "invariant violation without faults");
        assert_eq!(result.fault_events, 0);
        assert_eq!(result.sessions_killed, 0);
        assert!(result.sim_events > 0);
    }

    #[test]
    fn churn_scenario_injects_faults_and_audits_clean() {
        let mut config = ScenarioConfig::small(9);
        config.churn = Some(ChurnConfig::default());
        let result = run_scenario(config);
        assert!(result.fault_events > 0, "plan must contain faults");
        assert!(result.fault_kinds >= 3, "expect several fault classes, got {}", result.fault_kinds);
        assert!(result.sessions_killed > 0, "churn at these rates must orphan sessions");
        assert_eq!(
            result.sessions_killed,
            result.sessions_recovered + result.sessions_lost + result.sessions_pending,
            "every orphan is recomposed, lost or still queued"
        );
        assert_eq!(result.audit_violations, 0, "invariants must hold under churn");
        assert!(result.audit_digest != 0, "audit passes must have run");
        if result.sessions_recovered > 0 {
            let mean = result.recovery_latency.mean().expect("recovered sessions have latency");
            assert!(mean >= 2.0, "failover delay floor is 2 s, mean {mean}");
        }
    }

    #[test]
    fn churn_is_deterministic_across_reruns() {
        let mut config = ScenarioConfig::small(11);
        config.churn = Some(ChurnConfig::default().scaled(1.5));
        let a = run_scenario(config.clone());
        let b = run_scenario(config);
        assert_eq!(a.fault_digest, b.fault_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.sessions_killed, b.sessions_killed);
        assert_eq!(a.sessions_recovered, b.sessions_recovered);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn churn_seed_changes_fault_plan() {
        let mut a_cfg = ScenarioConfig::small(21);
        a_cfg.churn = Some(ChurnConfig::default());
        let mut b_cfg = ScenarioConfig::small(22);
        b_cfg.churn = Some(ChurnConfig::default());
        let a = run_scenario(a_cfg);
        let b = run_scenario(b_cfg);
        assert_ne!(a.fault_digest, b.fault_digest, "plans must derive from the master seed");
    }

    #[test]
    fn inert_two_phase_scenario_is_byte_identical_to_plain() {
        let plain = run_scenario(ScenarioConfig::small(7));
        let mut cfg = ScenarioConfig::small(7);
        cfg.setup = Some(SetupConfig::default());
        let two_phase = run_scenario(cfg);
        assert_eq!(plain.session_digest, two_phase.session_digest);
        assert_eq!(plain.audit_digest, two_phase.audit_digest);
        assert_eq!(plain.chaos_digest(), two_phase.chaos_digest());
        assert_eq!(plain.overhead, two_phase.overhead);
        assert_eq!(plain.total_requests, two_phase.total_requests);
        assert_eq!(plain.total_successes, two_phase.total_successes);
        assert_eq!(plain.sim_events, two_phase.sim_events);
        // Both keep the lease ledger; an inert two-phase round places and
        // settles exactly the leases a single-phase one does.
        assert_eq!(plain.lease_stats, two_phase.lease_stats);
        assert!(two_phase.lease_stats.created > 0);
        assert!(two_phase.lease_stats.reconciles(two_phase.leases_live_end));
        assert_eq!(two_phase.setup_stats.retries, 0);
        assert_eq!(two_phase.fault_hit_requests, 0);
        assert_eq!(two_phase.leases_leaked, 0);
    }

    #[test]
    fn lossy_transport_scenario_recovers_and_audits_clean() {
        let mut cfg = ScenarioConfig::small(11);
        cfg.setup = Some(SetupConfig {
            faults: acp_simcore::MessageFaultConfig {
                probe_drop: 0.10,
                confirm_loss: 0.05,
                stale_ack: 0.5,
                ..acp_simcore::MessageFaultConfig::default()
            },
            ..SetupConfig::default()
        });
        let result = run_scenario(cfg);
        assert!(result.fault_hit_requests > 0, "faults must actually land");
        assert!(result.setup_stats.retries > 0, "losses must trigger retries");
        let fault_lost = result.setup_stats.fault_failures;
        assert!(
            result.fault_hit_successes * 10 >= (result.fault_hit_successes + fault_lost) * 9,
            "retry must recover >=90% of otherwise-failed requests: {} recovered, {} lost",
            result.fault_hit_successes,
            fault_lost,
        );
        assert_eq!(result.audit_violations, 0, "lease invariants must hold at every sample");
        assert_eq!(result.leases_leaked, 0, "reclamation sweep must recover every orphan");
        assert!(
            result.lease_stats.reconciles(0),
            "final ledger must reconcile to zero live leases: {:?}",
            result.lease_stats,
        );
    }

    #[test]
    fn single_gold_tenant_scenario_is_byte_identical_to_plain() {
        let plain = run_scenario(ScenarioConfig::small(7));
        let mut cfg = ScenarioConfig::small(7);
        cfg.tenants = Some(TenantsConfig::single_gold());
        let tenanted = run_scenario(cfg);
        assert_eq!(plain.session_digest, tenanted.session_digest);
        assert_eq!(plain.audit_digest, tenanted.audit_digest);
        assert_eq!(plain.chaos_digest(), tenanted.chaos_digest());
        assert_eq!(plain.overhead, tenanted.overhead);
        assert_eq!(plain.total_requests, tenanted.total_requests);
        assert_eq!(plain.total_successes, tenanted.total_successes);
        assert_eq!(plain.sim_events, tenanted.sim_events);
        // The tenanted run additionally keeps a (clean) per-tenant ledger.
        let gold = tenanted.tenant_tiers[tier_index(TenantTier::Gold)];
        assert_eq!(gold.offered, tenanted.total_requests);
        assert_eq!(gold.composed, tenanted.total_successes);
        assert_eq!(gold.shed, 0, "an uncapped Gold tenant is never shed");
        assert_eq!(tenanted.tenant_violations, 0);
        assert_eq!(tenanted.tenant_preemptions, 0);
        // Plain runs never pay for the ledger at all.
        assert_eq!(plain.tenant_tiers, [TierSummary::default(); 3]);
    }

    #[test]
    fn tenanted_scenario_is_deterministic() {
        let mut config = ScenarioConfig::small(13);
        config.schedule = RateSchedule::constant(60.0);
        config.tenants = Some(TenantsConfig::standard_mix());
        let a = run_scenario(config.clone());
        let b = run_scenario(config);
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.tenant_tiers, b.tenant_tiers);
        assert_eq!(a.tenant_preemptions, b.tenant_preemptions);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn overloaded_tenants_shed_in_tier_order_and_audit_clean() {
        let mut config = ScenarioConfig::small(17);
        config.schedule = RateSchedule::constant(120.0);
        config.duration = SimDuration::from_minutes(30);
        let mut tenants = TenantsConfig::standard_mix();
        // Thresholds inside the utilization this small system reaches,
        // still tiered so shed order is observable.
        tenants.admission =
            AdmissionConfig { best_effort_threshold: 0.30, silver_threshold: 0.55 };
        tenants.preemption = None;
        config.tenants = Some(tenants);
        let result = run_scenario(config);
        let gold = result.tenant_tiers[tier_index(TenantTier::Gold)];
        let silver = result.tenant_tiers[tier_index(TenantTier::Silver)];
        let best = result.tenant_tiers[tier_index(TenantTier::BestEffort)];
        assert!(best.shed > 0, "overload must shed best-effort traffic");
        assert!(
            best.shed as f64 / best.offered as f64 > silver.shed as f64 / silver.offered as f64,
            "best-effort sheds more than silver: {best:?} vs {silver:?}"
        );
        assert_eq!(gold.shed, 0, "gold is never congestion-shed");
        assert!(
            gold.success_rate() >= silver.success_rate()
                && silver.success_rate() >= best.success_rate(),
            "tier ordering must hold: gold {} silver {} best {}",
            gold.success_rate(),
            silver.success_rate(),
            best.success_rate()
        );
        assert_eq!(result.tenant_violations, 0, "isolation invariants must hold");
        assert_eq!(result.audit_violations, 0);
    }

    #[test]
    fn preemption_reclaims_only_best_effort_sessions() {
        let mut config = ScenarioConfig::small(19);
        config.schedule = RateSchedule::constant(80.0);
        let mut tenants = TenantsConfig::standard_mix();
        // An aggressive controller so preemption definitely fires: act
        // on any congestion, consider any loaded node.
        tenants.preemption = Some(TenantPreemptionConfig {
            interval: SimDuration::from_minutes(1),
            congestion_threshold: 0.0,
            policy: PreemptionConfig { min_node_utilization: 0.05, ..PreemptionConfig::default() },
        });
        config.tenants = Some(tenants);
        let result = run_scenario(config);
        assert!(result.tenant_preemptions > 0, "controller must preempt under load");
        let gold = result.tenant_tiers[tier_index(TenantTier::Gold)];
        let silver = result.tenant_tiers[tier_index(TenantTier::Silver)];
        let best = result.tenant_tiers[tier_index(TenantTier::BestEffort)];
        assert_eq!(gold.preempted, 0, "preemption must never touch gold");
        assert_eq!(silver.preempted, 0, "preemption must never touch silver");
        assert_eq!(best.preempted, result.tenant_preemptions);
        assert_eq!(result.tenant_violations, 0, "ledger must reconcile through preemption");
        assert_eq!(result.audit_violations, 0);
    }

    #[test]
    fn rate_limited_tenant_is_capped_independently() {
        let mut config = ScenarioConfig::small(23);
        config.tenants = Some(TenantsConfig {
            tenants: vec![
                TenantSpec { tier: TenantTier::Gold, weight: 1.0, rate_limit: None },
                // ~10 req/min offered across two tenants; 0.02 req/s
                // (1.2/min) caps the second well below its share.
                TenantSpec {
                    tier: TenantTier::BestEffort,
                    weight: 1.0,
                    rate_limit: Some((0.02, 2.0)),
                },
            ],
            admission: AdmissionConfig::default(),
            preemption: None,
        });
        let result = run_scenario(config);
        let gold = result.tenant_tiers[tier_index(TenantTier::Gold)];
        let best = result.tenant_tiers[tier_index(TenantTier::BestEffort)];
        assert_eq!(gold.shed, 0, "uncapped tenant unaffected");
        assert!(best.shed > 0, "rate limit must shed the capped tenant");
        assert_eq!(result.tenant_violations, 0, "shed bookkeeping must reconcile");
    }

    #[test]
    fn repair_scenario_splices_sessions_and_audits_clean() {
        let mut config = ScenarioConfig::small(9);
        config.churn = Some(ChurnConfig::default());
        config.repair = Some(RepairScenarioConfig::default());
        let result = run_scenario(config);
        assert!(result.repair_opened > 0, "churn at these rates must break sessions");
        assert!(result.sessions_repaired > 0, "in-place splices must land");
        // Settled tickets never exceed opened ones; the auditor (which
        // ran clean, below) checks exact reconciliation including the
        // tickets still open at the horizon.
        assert!(
            result.sessions_repaired
                + result.sessions_restored
                + result.repair_abandoned
                + result.repair_cancelled
                <= result.repair_opened
        );
        assert_eq!(result.audit_violations, 0, "repair invariants must hold at every audit");
        assert_eq!(result.leases_leaked, 0, "make-before-break must not leak leases");
        // Detection latency counts as outage: with the 1 s fixed default
        // no recovery can beat it.
        if result.mttr.count > 0 {
            assert!(result.mttr.min >= 1.0, "MTTR floor is the detection latency, min {}", result.mttr.min);
        }
        assert!(result.mttr_p99 >= result.mttr_p50);
    }

    #[test]
    fn repair_scenario_is_deterministic() {
        let make = || {
            let mut config = ScenarioConfig::small(14);
            config.churn = Some(ChurnConfig::default().scaled(1.5));
            config.repair = Some(RepairScenarioConfig {
                detection: DetectionLatency::Uniform {
                    min: SimDuration::from_millis(500),
                    max: SimDuration::from_secs(4),
                },
                ..RepairScenarioConfig::default()
            });
            run_scenario(config)
        };
        let a = make();
        let b = make();
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.repair_opened, b.repair_opened);
        assert_eq!(a.sessions_repaired, b.sessions_repaired);
        assert_eq!(a.repair_attempts, b.repair_attempts);
        assert_eq!(a.mttr, b.mttr);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn terminate_policy_restores_instead_of_splicing() {
        let mut config = ScenarioConfig::small(9);
        config.churn = Some(ChurnConfig::default());
        config.repair = Some(RepairScenarioConfig {
            policy: RepairPolicy::Terminate,
            ..RepairScenarioConfig::default()
        });
        let result = run_scenario(config);
        assert_eq!(result.sessions_repaired, 0, "terminate arm never splices");
        assert!(result.sessions_restored > 0, "restarts must land");
        assert_eq!(
            result.sessions_restored, result.sessions_recovered,
            "every successful restart settles its ticket as restored"
        );
        assert_eq!(
            result.repair_abandoned, result.sessions_lost,
            "every failed restart settles its ticket as abandoned"
        );
        assert!(result.sessions_killed > 0, "terminate arm kills at fault time");
        assert_eq!(result.audit_violations, 0);
    }

    #[test]
    fn repair_keeps_more_sessions_alive_than_terminate() {
        // Same seed, same fault plan: the only difference is the arm.
        // Repair must strictly reduce fault-induced session deaths.
        let arm = |policy| {
            let mut config = ScenarioConfig::small(9);
            config.churn = Some(ChurnConfig::default());
            config.repair = Some(RepairScenarioConfig { policy, ..RepairScenarioConfig::default() });
            run_scenario(config)
        };
        let repair = arm(RepairPolicy::Repair);
        let terminate = arm(RepairPolicy::Terminate);
        assert_eq!(repair.fault_digest, terminate.fault_digest, "same plan in both arms");
        assert!(
            repair.sessions_killed < terminate.sessions_killed,
            "repair arm must keep path sessions alive: {} killed vs {}",
            repair.sessions_killed,
            terminate.sessions_killed
        );
    }

    #[test]
    fn partitions_sever_and_heal_crossing_links_cleanly() {
        let make = |seed| {
            let mut config = ScenarioConfig::small(seed);
            config.churn = Some(ChurnConfig {
                faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() },
                ..ChurnConfig::default()
            });
            config.repair = Some(RepairScenarioConfig::default());
            run_scenario(config)
        };
        let result = make(16);
        assert!(result.fault_kinds >= 5, "partition classes must appear, got {}", result.fault_kinds);
        assert!(result.repair_opened > 0, "cut links must break sessions");
        assert_eq!(result.audit_violations, 0, "invariants must hold through cut and heal");
        assert_eq!(result.leases_leaked, 0);
        let again = make(16);
        assert_eq!(result.chaos_digest(), again.chaos_digest(), "partitions replay deterministically");
    }

    /// Regression: a zero period used to re-schedule its event at
    /// `now + 0` for ever (or, for `sampling_period`, panic deep inside
    /// `WindowedCounter`); `validate` now names it before anything runs.
    #[test]
    fn validate_names_the_broken_precondition() {
        assert_eq!(ScenarioConfig::small(3).validate(), Ok(()));
        assert_eq!(ScenarioConfig::default().validate(), Ok(()));
        let rejects = |what: &str, breakage: fn(&mut ScenarioConfig)| {
            let mut config = ScenarioConfig::small(3);
            config.churn = Some(ChurnConfig::default());
            config.tenants = Some(TenantsConfig::standard_mix());
            breakage(&mut config);
            let why = config.validate().expect_err(what);
            assert!(why.contains(what), "{what}: {why}");
        };
        rejects("local_refresh", |c| c.local_refresh = SimDuration::ZERO);
        rejects("sampling_period", |c| c.sampling_period = SimDuration::ZERO);
        rejects("aggregation_interval", |c| c.aggregation_interval = SimDuration::ZERO);
        rejects("rebalance_interval", |c| {
            c.churn.as_mut().unwrap().rebalance_interval = Some(SimDuration::ZERO)
        });
        rejects("preemption.interval", |c| {
            c.tenants.as_mut().unwrap().preemption.as_mut().unwrap().interval = SimDuration::ZERO
        });
        rejects("stream_nodes", |c| c.stream_nodes = 1);
        rejects("overlay_neighbors", |c| c.overlay_neighbors = 0);
        rejects("ip_nodes", |c| c.ip_nodes = c.stream_nodes - 1);
        rejects("functions", |c| c.functions = 11);
        // Each of these reached `gen_range(lo..hi)` and panicked with
        // "cannot sample empty range" while only the first and the last
        // were checked.
        rejects("system.components_per_node", |c| c.system.components_per_node = (4, 3));
        rejects("system.node_cpu", |c| c.system.node_cpu = (80.0, 40.0));
        rejects("system.node_memory_mb", |c| c.system.node_memory_mb = (1200.0, 400.0));
        rejects("system.component_max_rate_kbps", |c| c.system.component_max_rate_kbps = (2e3, 600.0));
        rejects("requests.per_hop_delay_ms", |c| c.requests.per_hop_delay_ms = (120.0, 50.0));
        rejects("requests.max_loss", |c| c.requests.max_loss = (0.12, 0.04));
        rejects("requests.base_cpu", |c| c.requests.base_cpu = (2.2, 1.0));
        rejects("requests.base_memory_mb", |c| c.requests.base_memory_mb = (24.0, 10.0));
        rejects("requests.bandwidth_kbps", |c| c.requests.bandwidth_kbps = (200.0, 50.0));
        rejects("requests.stream_rate_kbps", |c| c.requests.stream_rate_kbps = (500.0, f64::NAN));
        rejects("requests.session_minutes", |c| c.requests.session_minutes = (6.0, 5.0));
        rejects("tenants", |c| c.tenants.as_mut().unwrap().tenants.clear());
        rejects("tenants", |c| c.tenants.as_mut().unwrap().tenants[1].weight = 0.0);
        rejects("mutually exclusive", |c| {
            c.tuner = Some(TunerConfig::default());
            c.controller = Some(PiControllerConfig::default());
        });
    }

    #[test]
    #[should_panic(expected = "invalid scenario config: local_refresh must be positive")]
    fn run_scenario_refuses_an_invalid_config() {
        run_scenario(ScenarioConfig { local_refresh: SimDuration::ZERO, ..ScenarioConfig::small(3) });
    }

    /// Regression: the failover sweep drew a recovered session's length
    /// with its own `gen_range(lo..hi)`, which panics on the degenerate
    /// range the request generator accepts.
    #[test]
    fn fixed_session_length_survives_churn() {
        let mut config = ScenarioConfig::small(9);
        config.requests.session_minutes = (5.0, 5.0);
        config.churn = Some(ChurnConfig::default());
        let result = run_scenario(config);
        assert!(result.sessions_recovered > 0, "the sweep must have drawn a session length");
        assert_eq!(result.audit_violations, 0);
    }

    /// Regression: the first arrival used to be unconditional and a
    /// zero-rate segment ended the arrival chain for good.
    #[test]
    fn arrivals_follow_the_schedule_through_zero_rate_segments() {
        let run = |schedule| run_scenario(ScenarioConfig { schedule, ..ScenarioConfig::small(5) });
        let silent = run(RateSchedule::constant(0.0));
        assert_eq!((silent.total_requests, silent.final_sessions), (0, 0));
        assert_eq!(silent.audit_violations, 0);
        // 20 simulated minutes: quiet, then 30 req/min from minute 5 to
        // minute 10, then quiet again.
        let burst = run(RateSchedule::steps(vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_minutes(5), 30.0),
            (SimTime::from_minutes(10), 0.0),
            (SimTime::from_minutes(15), 0.0),
        ]));
        assert!((100..=200).contains(&burst.total_requests), "≈ 150 arrivals, got {}", burst.total_requests);
        // A window without attempts records no sample: the first is the
        // 5–10 min window's, and at most the one arrival drawn before
        // minute 10 that lands after it follows.
        let samples = burst.success_series.samples();
        assert_eq!(samples[0].0, SimTime::from_minutes(10), "{samples:?}");
        assert!(samples.len() <= 2, "{samples:?}");
    }

    #[test]
    fn lossy_transport_scenario_is_deterministic() {
        let make = || {
            let mut cfg = ScenarioConfig::small(19);
            cfg.setup = Some(SetupConfig {
                faults: acp_simcore::MessageFaultConfig {
                    probe_drop: 0.15,
                    confirm_loss: 0.05,
                    ..acp_simcore::MessageFaultConfig::default()
                },
                ..SetupConfig::default()
            });
            run_scenario(cfg)
        };
        let a = make();
        let b = make();
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.setup_stats, b.setup_stats);
        assert_eq!(a.lease_stats, b.lease_stats);
        assert_eq!(a.fault_hit_requests, b.fault_hit_requests);
    }

    /// The full-stack golden configuration: doubled fault rates with
    /// partitions, in-place repair, the tenant mix, lossy two-phase setup.
    fn full_stack() -> ScenarioConfig {
        let mut config = ScenarioConfig::small(16);
        config.churn = Some(ChurnConfig {
            faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() }.scaled(2.0),
            ..ChurnConfig::default()
        });
        config.repair = Some(RepairScenarioConfig::default());
        config.tenants = Some(TenantsConfig::standard_mix());
        config.setup = Some(lossy_setup(0.05, 0.025));
        config
    }

    fn lossy_setup(probe_drop: f64, confirm_loss: f64) -> SetupConfig {
        SetupConfig {
            faults: acp_simcore::MessageFaultConfig {
                probe_drop,
                confirm_loss,
                stale_ack: 0.5,
                ..acp_simcore::MessageFaultConfig::default()
            },
            ..SetupConfig::default()
        }
    }

    /// What separate shadow counters made true by keeping in step, the
    /// one ledger must make true by how its handlers add into it.
    #[test]
    fn ledger_identities_hold_on_the_full_stack() {
        let config = full_stack();
        let minutes = config.duration.as_minutes_f64();
        let r = run_scenario(config);
        assert!(r.sessions_killed > 0 && r.setup_stats.retries > 0, "faults of both kinds must land");
        let tiers = |count: fn(&TierSummary) -> u64| r.tenant_tiers.iter().map(count).sum::<u64>();
        assert_eq!(r.total_requests, tiers(|t| t.offered), "every arrival is offered to exactly one tier");
        assert_eq!(r.total_successes, tiers(|t| t.composed));
        assert_eq!(tiers(|t| t.offered), tiers(|t| t.shed + t.composed + t.failed), "shed, composed or failed");
        assert_eq!(r.sessions_killed, r.sessions_recovered + r.sessions_lost + r.sessions_pending);
        assert_eq!(r.recovery_latency.count, r.sessions_recovered, "one latency sample per recovery");
        assert_eq!(r.sessions_restored, r.sessions_recovered, "every recompose settles its ticket as restored");
        assert_eq!(r.messages_per_minute, r.overhead.total_messages() as f64 / minutes);
        assert_eq!(r.probe_messages_per_minute, r.overhead.probe_messages as f64 / minutes);
        assert_eq!(r.overall_success, r.total_successes as f64 / r.total_requests as f64);
        // Arrivals land in the histogram; failover and repair composes
        // add to the message and setup ledgers only.
        assert_eq!(r.probe_histogram.count() + tiers(|t| t.shed), r.total_requests);
        assert!(r.setup_stats.attempts > r.probe_histogram.count(), "sweeps' setup rounds are summed in");
        assert!(r.fault_hit_successes <= r.fault_hit_requests && r.fault_hit_requests <= r.total_requests);
        assert_eq!(r.profiling_runs, 0, "no tuner, no profiling");
        assert_eq!((r.audit_violations, r.tenant_violations, r.leases_leaked), (0, 0, 0));
    }

    #[test]
    fn derived_rates_have_their_empty_cases() {
        let blank = ScenarioResult::new(AlgorithmKind::Acp);
        assert_eq!((blank.recovery_rate(), blank.survival(), blank.continuity()), (1.0, 1.0, 0.0));
        assert_eq!(blank.tenant_tiers[0].success_rate(), 0.0);
        let settled = ScenarioResult {
            sessions_repaired: 6,
            sessions_restored: 2,
            repair_abandoned: 1,
            repair_cancelled: 1,
            fault_hit_successes: 9,
            setup_stats: SetupStats { fault_failures: 1, ..SetupStats::default() },
            ..blank
        };
        assert!((settled.survival() - 8.0 / 9.0).abs() < 1e-12, "cancelled tickets are excluded");
        assert!((settled.continuity() - 6.0 / 8.0).abs() < 1e-12);
        assert!((settled.recovery_rate() - 0.9).abs() < 1e-12);
    }

    /// Regression: a zero-length run divided its message counts by zero
    /// minutes, so its rates were NaN and the result unequal to itself.
    #[test]
    fn zero_duration_run_equals_itself() {
        let config = ScenarioConfig { duration: SimDuration::ZERO, ..ScenarioConfig::small(3) };
        let result = run_scenario(config.clone());
        assert_eq!((result.messages_per_minute, result.probe_messages_per_minute), (0.0, 0.0));
        assert_eq!(result, run_scenario(config));
    }

    /// A loaded small system under heavy transport loss: requests fail
    /// with a confirmation unaccounted for, so their leases stay orphaned
    /// until expiry, up to the run's last second.
    fn orphaning() -> ScenarioConfig {
        let mut config = ScenarioConfig::small(6);
        config.schedule = RateSchedule::constant(60.0);
        config.setup = Some(lossy_setup(0.2, 0.3));
        config
    }

    /// Regression: the gauge swept once at `end + transient_timeout`, but
    /// a request arriving in the run's last seconds runs its retry rounds
    /// *after* `end` (at `arrival + Σ backoff`) and reserves from there,
    /// so its orphans legitimately outlive that horizon — this run read
    /// "36 leaked".
    #[test]
    fn leak_gauge_sweeps_to_the_last_legitimate_expiry() {
        let result = run_scenario(orphaning());
        assert!(result.leases_live_end > 0, "the run must end holding orphaned leases");
        assert_eq!(result.leases_leaked, 0, "every orphan expires within the retry ladder's reach");
        assert!(result.lease_stats.reconciles(0), "{:?}", result.lease_stats);
        assert_eq!(result.audit_violations, 0);
    }

    /// The gauge is not vacuous: it sweeps to a bound, not to whenever
    /// the last lease happens to expire. A lease expiring exactly at the
    /// bound is reclaimed; one a microsecond past it is a leak.
    #[test]
    fn a_lease_expiring_past_the_bound_is_still_a_leak() {
        let config = orphaning();
        let bound = SimTime::ZERO
            + config.duration
            + config.setup.as_ref().expect("two-phase").max_backoff()
            + config.probing.transient_timeout;
        let mut model = simulate(config);
        let node = model.system.overlay().nodes().next().expect("nodes");
        let mut hosted = model.system.node(node).components().map(|c| c.id);
        let (at_bound, past_bound) = (hosted.next().expect("hosted"), hosted.next().expect("two hosted"));
        drop(hosted);
        let amount = ResourceVector::new(0.01, 0.01);
        let stray = RequestId(u64::MAX);
        assert!(model.system.reserve_component_transient(stray, at_bound, amount, bound));
        assert!(model.system.reserve_component_transient(
            stray,
            past_bound,
            amount,
            bound + SimDuration::from_micros(1)
        ));
        assert_eq!(summarize(model).leases_leaked, 1);
    }
}
