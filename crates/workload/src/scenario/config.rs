//! What a user writes: [`ScenarioConfig`], the churn, repair and tenant
//! configs it carries, and [`ScenarioConfig::validate`], which refuses a
//! configuration the run would trip over.

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{FaultPlanConfig, SimDuration};
use acp_state::GlobalStateConfig;

use crate::arrivals::RateSchedule;
use crate::requests::RequestConfig;

/// Chaos (fault-injection) parameters for a scenario.
///
/// When present, a seeded [`FaultPlan`](acp_simcore::FaultPlan) is generated up front from the
/// scenario's master seed and replayed against the running system,
/// interleaved with the Poisson arrivals. Every session a fault strikes
/// gets a repair ticket and is retried `DETECTION` later, as
/// [`ScenarioConfig::repair`] says; without a repair config that is
/// [`RepairPolicy::Terminate`], a restart from scratch. The
/// [`SystemAuditor`] re-checks every conservation invariant at each
/// sampling point and after every sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnConfig {
    /// Per-class fault rates and downtime distributions.
    pub faults: FaultPlanConfig,
}

impl ChurnConfig {
    /// A config with all fault rates scaled by `churn` (the grid knob).
    pub fn scaled(&self, churn: f64) -> Self {
        ChurnConfig { faults: self.faults.scaled(churn) }
    }
}

/// How a churn scenario brings fault-struck sessions back.
///
/// Every struck session gets a repair ticket. Under
/// [`RepairPolicy::Repair`], fault-struck *path* sessions are degraded in
/// place instead of killed, and repair sweeps `DETECTION` later drive
/// the [`RepairPlanner`] over the degraded set in ascending session
/// order; every other struck session is killed and restarted from
/// scratch `DETECTION` later. A churn run without a repair config runs
/// `RepairScenarioConfig { policy: RepairPolicy::Terminate, .. }`.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairScenarioConfig {
    /// Repair attempts per ticket before the session is abandoned
    /// (repair arm only — the restart baseline recomposes once).
    pub retry_budget: u32,
    /// Which arm this run exercises.
    pub policy: RepairPolicy,
}

impl Default for RepairScenarioConfig {
    fn default() -> Self {
        RepairScenarioConfig { retry_budget: 3, policy: RepairPolicy::Repair }
    }
}

/// One tenant in a multi-tenant scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Service tier (admission priority under congestion).
    pub tier: TenantTier,
    /// Relative share of the arrival mix (weights need not sum to 1).
    pub weight: f64,
}

/// Periodic preemption of best-effort sessions under pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPreemptionConfig {
    /// Preempt only when the board congestion estimate is at or above
    /// this level.
    pub congestion_threshold: f64,
    /// Victim-selection policy (hottest nodes first, best-effort only).
    pub policy: PreemptionConfig,
}

impl Default for TenantPreemptionConfig {
    fn default() -> Self {
        TenantPreemptionConfig {
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
/// single `Gold` tenant without preemption — are byte-identical to the
/// tenant-less run.
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
    /// A single `Gold` tenant with no preemption: admits every request,
    /// so runs are byte-identical to the tenant-less path.
    pub fn single_gold() -> Self {
        TenantsConfig {
            tenants: vec![TenantSpec { tier: TenantTier::Gold, weight: 1.0 }],
            admission: AdmissionConfig::default(),
            preemption: None,
        }
    }

    /// The benchmark mix: one `Gold`, one `Silver`, two `BestEffort`
    /// tenants at equal weight, with preemption enabled.
    pub fn standard_mix() -> Self {
        let spec = |tier| TenantSpec { tier, weight: 1.0 };
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
    /// Fault injection (chaos) parameters; `None` runs fault-free.
    pub churn: Option<ChurnConfig>,
    /// Setup-transport parameters (message faults on probe/confirm
    /// traffic, retry with escalation); `None` is
    /// `SetupConfig::default()`, the fault-free transport.
    pub setup: Option<SetupConfig>,
    /// Multi-tenant admission control; `None` runs tenant-less, and a
    /// single `Gold` tenant is byte-identical to `None`.
    pub tenants: Option<TenantsConfig>,
    /// How fault-struck sessions come back under churn: make-before-break
    /// suffix recomposition or terminate-and-restart, after a detection
    /// latency. `None` means `Some(RepairScenarioConfig { policy:
    /// RepairPolicy::Terminate, .. })`.
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
        // The tuners assert this; NaN fails it too.
        let unit = |target: f64| target > 0.0 && target <= 1.0;
        let checks = [
            (self.stream_nodes >= 2, "stream_nodes: need at least two stream nodes"),
            (self.overlay_neighbors >= 1, "overlay_neighbors: need at least one neighbour per node"),
            (self.ip_nodes >= self.stream_nodes, "ip_nodes: IP graph smaller than the overlay"),
            (self.functions >= 12, "functions: the template library needs at least 12"),
            (positive(self.sampling_period), "sampling_period must be positive"),
            (positive(self.local_refresh), "local_refresh must be positive"),
            (positive(self.aggregation_interval), "aggregation_interval must be positive"),
            (
                self.setup.as_ref().is_none_or(|s| s.max_attempts <= MAX_SETUP_ATTEMPTS),
                "setup.max_attempts must be at most 32",
            ),
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
            (self.tuner.is_none_or(|t| unit(t.target_success)), "tuner.target_success must lie in (0, 1]"),
            (
                self.controller.is_none_or(|c| unit(c.target_success)),
                "controller.target_success must lie in (0, 1]",
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

/// The most probing rounds per request `validate` accepts. The backoff
/// ladder before the 32nd round spans about 21 simulated years; past the
/// 46th its sum overflows the simulated clock.
pub(super) const MAX_SETUP_ATTEMPTS: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;

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
        // Passed, then overflowed the simulated clock summing the
        // backoff ladder (from 47 attempts on).
        rejects("setup.max_attempts", |c| {
            c.setup = Some(SetupConfig { max_attempts: MAX_SETUP_ATTEMPTS + 1, ..SetupConfig::default() })
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
        // Each of these passed and then panicked in the tuner's own
        // `assert!` as it was built.
        rejects("tuner.target_success", |c| c.tuner = Some(TunerConfig { target_success: 1.5 }));
        rejects("controller.target_success", |c| {
            c.controller = Some(PiControllerConfig { target_success: f64::NAN })
        });
    }
}
