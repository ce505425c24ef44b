//! The four workloads and what they share.
//!
//! Load shape, all workloads: one closed-loop client on one thread, no
//! worker threads, `shards = 1`. Arrivals are Poisson in *simulated*
//! time, so host time measures how fast simulator and middleware work
//! through a fixed, seeded amount of work: the metrics are work per
//! second and per-call latency, not a sustainable rate.
//!
//! Every workload is a sequence of *cells*, each with its own freshly
//! built system and its own timed region, and reports order statistics
//! and pooled ratios over them instead of betting on one deployment.
//! Timed metrics are read from the calmest twentieth of many short
//! slices of the timed work ([`stats::fast_cost`] says why). Where only
//! whole `run_scenario` cells can be timed they are ratios of sums over
//! the cells, and on `chaos_full` every cell runs twice and the lesser
//! wall counts.
//!
//! The deployments are a frozen panel: cell `i` of a workload always
//! builds the same topology, overlay, components and fault plan
//! ([`panel_seed`]). `--seed` draws the *load* — the arrival-rate profile
//! every cell runs under ([`seeded_schedule`]; on `scale_churn` the
//! request stream itself). Two seeded 400-node deployments differ by
//! ±10 % in host time per request and ±5 % in success rate; redrawn per
//! seed, that variation would force every regression bound to 25 %, and
//! it says nothing about the code. The load still changes every
//! composition the program makes.
//!
//! A run does a fixed amount of *base* work — the deterministic metrics
//! and the result digest come from it alone, so they repeat exactly for a
//! given seed — and keeps adding cells (or churn, on `scale_churn`) until
//! the timed regions add up to at least `--seconds`.

pub mod chaos_full;
pub mod figure_mix;
pub mod paper_steady;
pub mod scale_churn;

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{ratio, MetricSet, END_TO_END, PER_LAYER};
use crate::stats;
use crate::sut::{
    DeterministicRng, OptimalConfig, RateSchedule, Rng, ScenarioConfig, ScenarioResult, SimTime,
};
use crate::trace::{Span, Spans, NO_REQUEST};

/// Master seed of the deployment panel — the repo's default seed, so the
/// panel is what `--seed 42` built before the panel was frozen.
pub const PANEL_SEED: u64 = 42;

/// Arrival rates are redrawn every this many simulated minutes …
const PROFILE_STEP_MINUTES: u64 = 10;
/// … within this share of the nominal rate: enough to change every
/// arrival instant, too little to change the load level.
const PROFILE_JITTER: f64 = 0.01;

/// The seed cell `index` of workload `label` builds its deployment from.
pub fn panel_seed(label: &str, index: u64) -> u64 {
    DeterministicRng::new(PANEL_SEED).seed_for_indexed(label, index)
}

/// `base` with the rate of every ten-minute step scaled by a factor in
/// `1 ± 1 %` drawn from `--seed`: the seeded input of a cell.
pub fn seeded_schedule(
    base: &RateSchedule,
    minutes: u64,
    opts: &RunOptions,
    label: &str,
    index: u64,
) -> RateSchedule {
    let mut rng = DeterministicRng::new(opts.seed).stream_indexed(label, index);
    let steps = (0..minutes.div_ceil(PROFILE_STEP_MINUTES).max(1))
        .map(|step| {
            let start = SimTime::from_minutes(step * PROFILE_STEP_MINUTES);
            (
                start,
                base.rate_at(start) * (1.0 + rng.gen_range(-PROFILE_JITTER..PROFILE_JITTER)),
            )
        })
        .collect();
    RateSchedule::steps(steps)
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["paper_steady", "scale_churn", "chaos_full", "figure_mix"];

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the recorded numbers come from.
    Full,
    /// The same code paths on toy systems, under two seconds per
    /// workload; for the tests.
    Smoke,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Floor on the summed timed regions, in seconds.
    pub seconds: f64,
    pub size: Size,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests submitted over the whole run.
    pub attempted: u64,
    /// Requests the system answered "no qualified composition" (or shed):
    /// a correct answer, counted against `success_rate`, not a breach.
    pub declined: u64,
    /// Broken invariants and failed output checks; empty on a good run.
    pub breaches: Vec<String>,
    /// Digest of the base work's results; repeats exactly per seed.
    pub digest: u64,
    pub end_to_end: MetricSet,
    /// All zero unless the run was traced.
    pub per_layer: MetricSet,
    /// Sample counts, percentiles actually used, sizes.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            declined: 0,
            breaches: Vec::new(),
            digest: Digest::new().0,
            end_to_end: MetricSet::new(END_TO_END),
            per_layer: MetricSet::new(PER_LAYER),
            notes: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.breaches.push(what());
        }
    }

    fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

/// Runs workload `name`.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`] (the CLI checks before calling).
pub fn run<S: Spans>(name: &str, opts: &RunOptions, spans: &mut S) -> Outcome {
    match name {
        "paper_steady" => paper_steady::run(opts, spans),
        "scale_churn" => scale_churn::run(opts, spans),
        "chaos_full" => chaos_full::run(opts, spans),
        "figure_mix" => figure_mix::run(opts, spans),
        other => panic!("unknown workload {other}"),
    }
}

/// FNV-1a over 64-bit words, the digest the repo's own equivalence
/// suites use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Median and supported p99 of one block of per-call latencies (µs).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub p50: f64,
    pub p99: stats::Tail,
}

impl LatencySummary {
    /// Summarises `latencies_us`, sorting it in place.
    pub fn of(latencies_us: &mut [f64]) -> Self {
        stats::sort(latencies_us);
        LatencySummary {
            p50: stats::percentile(latencies_us, 0.5),
            p99: stats::tail(latencies_us, 0.99),
        }
    }
}

/// The supported p99.9 of `latencies_us` (sorted in place): a layer
/// metric, taken over a whole cell because a 1 000-call block cannot
/// support it.
pub fn p999(latencies_us: &mut [f64]) -> f64 {
    stats::sort(latencies_us);
    stats::tail(latencies_us, 0.999).value
}

/// The paper's operating point (§4.1): a 3 200-node Inet graph, 400
/// overlay nodes with 6 neighbours, 80 functions, 2–3 components per
/// node — `ScenarioConfig::default()` — with the figure sweeps' cap on
/// exhaustive search. `Smoke` is the repo's laptop-scale system.
pub fn paper_system(size: Size, seed: u64) -> ScenarioConfig {
    match size {
        Size::Full => ScenarioConfig {
            seed,
            optimal: OptimalConfig {
                max_expansions: 300_000,
            },
            ..ScenarioConfig::default()
        },
        Size::Smoke => ScenarioConfig {
            optimal: OptimalConfig {
                max_expansions: 20_000,
            },
            ..ScenarioConfig::small(seed)
        },
    }
}

/// The output checks every `run_scenario` result must pass.
fn check_scenario(outcome: &mut Outcome, label: &str, r: &ScenarioResult) {
    outcome.check(r.audit_violations == 0, || {
        format!("{label}: {} audit violations", r.audit_violations)
    });
    outcome.check(r.leases_leaked == 0, || {
        format!("{label}: {} leases leaked", r.leases_leaked)
    });
    outcome.check(r.tenant_violations == 0, || {
        format!("{label}: {} tenant violations", r.tenant_violations)
    });
    outcome.check(r.total_successes <= r.total_requests, || {
        format!(
            "{label}: {} composed of {} submitted",
            r.total_successes, r.total_requests
        )
    });
    // requests == composed + failed, tier by tier, on tenanted runs.
    let tiers = &r.tenant_tiers;
    let offered: u64 = tiers.iter().map(|t| t.offered).sum();
    if offered > 0 {
        let settled: u64 = tiers.iter().map(|t| t.shed + t.composed + t.failed).sum();
        let composed: u64 = tiers.iter().map(|t| t.composed).sum();
        outcome.check(offered == r.total_requests && settled == offered && composed == r.total_successes, || {
            format!(
                "{label}: tenant tiers offered {offered} settled {settled} composed {composed} vs {} / {}",
                r.total_requests, r.total_successes
            )
        });
    }
}

/// Folds what identifies a scenario result into `digest`.
fn digest_scenario(digest: &mut Digest, r: &ScenarioResult) {
    digest.mix(r.chaos_digest());
    digest.mix(r.total_requests);
    digest.mix(r.total_successes);
    digest.mix(r.sim_events);
    digest.mix(r.overhead.probe_messages);
}

/// One `run_scenario` call and how long it took.
pub struct ScenarioCell {
    pub wall_s: f64,
    pub result: ScenarioResult,
}

impl ScenarioCell {
    /// Host microseconds per submitted request.
    fn us_per_request(&self) -> f64 {
        ratio(self.wall_s * 1e6, self.result.total_requests as f64)
    }
}

/// Times one `build_system` call on its own. `run_scenario` builds its
/// system again inside its own wall; this extra call exists so that work
/// moved into set-up shows in `setup_s`.
fn timed_build<S: Spans>(config: &ScenarioConfig, spans: &mut S) -> f64 {
    spans.enter(Span::BuildSystem, NO_REQUEST);
    let (seconds, built) = timed(|| crate::sut::build_system(config));
    spans.exit();
    drop(built);
    seconds
}

/// Runs one scenario under a span.
fn timed_scenario<S: Spans>(config: ScenarioConfig, spans: &mut S) -> ScenarioCell {
    spans.enter(Span::RunScenario, NO_REQUEST);
    let (wall_s, result) = timed(|| crate::sut::run_scenario(config));
    spans.exit();
    ScenarioCell { wall_s, result }
}

/// `compose_us_p50` / `compose_us_p99` where `compose` runs inside
/// `run_scenario` and cannot be timed per call from outside: the median
/// of the per-cell host time per request, and the host time per request
/// over the costliest quarter of the cells taken together. A tail
/// percentile needs ten samples beyond it and 8 to 31 cells support
/// none; an order statistic that high among so few cells is whichever
/// cell the neighbours hit, while a ratio of sums over a quarter of them
/// moves only as far as the time did.
fn per_cell_cost(outcome: &mut Outcome, cells: &[ScenarioCell]) {
    let mut by_cost: Vec<&ScenarioCell> = cells.iter().collect();
    by_cost.sort_by(|a, b| b.us_per_request().total_cmp(&a.us_per_request()));
    let costliest = &by_cost[..cells.len().div_ceil(4)];
    let wall: f64 = costliest.iter().map(|c| c.wall_s).sum();
    let requests: u64 = costliest.iter().map(|c| c.result.total_requests).sum();
    let costs: Vec<f64> = cells.iter().map(ScenarioCell::us_per_request).collect();
    outcome
        .end_to_end
        .set("compose_us_p50", stats::median(&costs));
    outcome
        .end_to_end
        .set("compose_us_p99", ratio(wall * 1e6, requests as f64));
    outcome.note(
        "compose",
        Json::str("host time per request of one run_scenario cell"),
    );
    outcome.note("compose_samples", Json::int(costs.len() as u64));
    outcome.note("compose_tail_cells", Json::int(costliest.len() as u64));
}

/// True when two scenario results are one and the same run.
fn same_result(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    let digest = |r: &ScenarioResult| {
        let mut digest = Digest::new();
        digest_scenario(&mut digest, r);
        digest
    };
    digest(a) == digest(b)
}

/// Per-layer numbers of `run_scenario` cells. The calls happen inside
/// the scenario loop, so these are the program's own counters — counts,
/// not times — apart from the per-cell spans. `probing` are the cells
/// whose probing, selection and routing counters mean the same thing
/// (all of them on `chaos_full`, ACP's grid points on `figure_mix`,
/// where Optimal counts search expansions as probes).
fn scenario_layers<S: Spans>(
    l: &mut MetricSet,
    cells: &[ScenarioCell],
    probing: &[&ScenarioCell],
    spans: &S,
) {
    let over = |cells: &[&ScenarioCell], f: &dyn Fn(&ScenarioResult) -> u64| {
        cells.iter().map(|c| f(&c.result)).sum::<u64>() as f64
    };
    let all: Vec<&ScenarioCell> = cells.iter().collect();
    let sum = |f: &dyn Fn(&ScenarioResult) -> u64| over(&all, f);
    let probed = |f: &dyn Fn(&ScenarioResult) -> u64| over(probing, f);
    let median = |f: &dyn Fn(&ScenarioResult) -> f64| {
        stats::median(&cells.iter().map(|c| f(&c.result)).collect::<Vec<f64>>())
    };
    let wall: f64 = cells.iter().map(|c| c.wall_s).sum();

    l.set(
        "driver.traced_wall_s",
        spans.totals(Span::RunScenario).busy_s(),
    );
    l.set("driver.other_s", spans.totals(Span::Cell).self_s());

    let requests = probed(&|r| r.total_requests);
    let lookups = probed(&|r| r.path_cache.hits + r.path_cache.misses);
    let spawned = probed(&|r| r.overhead.probes_spawned);
    l.set("core.protocol.probes_per_request", ratio(spawned, requests));
    l.set(
        "core.protocol.probe_return_ratio",
        ratio(probed(&|r| r.overhead.probes_returned), spawned),
    );
    l.set(
        "core.selection.calls",
        probed(&|r| r.overhead.discovery_lookups),
    );
    l.set(
        "core.selection.examined_per_call",
        ratio(
            probed(&|r| r.overhead.selection_examined),
            probed(&|r| r.overhead.global_state_queries),
        ),
    );
    l.set(
        "core.selection.examined_fraction",
        ratio(
            probed(&|r| r.overhead.selection_examined),
            probed(&|r| r.overhead.selection_candidates),
        ),
    );
    l.set("topology.overlay.path_lookups", lookups);
    l.set(
        "topology.overlay.lookups_per_request",
        ratio(lookups, requests),
    );
    l.set(
        "topology.overlay.path_hit_rate",
        ratio(probed(&|r| r.path_cache.hits), lookups),
    );
    l.set(
        "model.system.discovery_lookups",
        probed(&|r| r.overhead.discovery_lookups),
    );

    l.set("core.protocol.retries", sum(&|r| r.setup_stats.retries));
    l.set(
        "core.protocol.fault_hit_recovery",
        ratio(
            sum(&|r| r.fault_hit_successes),
            sum(&|r| r.fault_hit_requests),
        ),
    );
    l.set(
        "model.system.live_sessions_end",
        median(&|r| r.final_sessions as f64),
    );
    l.set(
        "model.system.leases_per_composition",
        ratio(sum(&|r| r.lease_stats.created), sum(&|r| r.total_successes)),
    );
    l.set("model.system.leases_leaked", sum(&|r| r.leases_leaked));
    l.set("model.system.sessions_killed", sum(&|r| r.sessions_killed));
    l.set(
        "model.system.recovered_ratio",
        ratio(sum(&|r| r.sessions_recovered), sum(&|r| r.sessions_killed)),
    );
    l.set(
        "state.global.node_skip_rate",
        1.0 - ratio(
            sum(&|r| r.state_scans.nodes_scanned),
            sum(&|r| r.state_scans.nodes_total),
        ),
    );
    l.set(
        "state.global.link_skip_rate",
        1.0 - ratio(
            sum(&|r| r.state_scans.links_scanned),
            sum(&|r| r.state_scans.links_total),
        ),
    );
    l.set(
        "state.global.update_msgs",
        sum(&|r| r.overhead.state_update_messages),
    );
    l.set("model.audit.violations", sum(&|r| r.audit_violations));
    l.set(
        "core.admission.shed_ratio",
        ratio(
            sum(&|r| r.tenant_tiers.iter().map(|t| t.shed).sum()),
            sum(&|r| r.tenant_tiers.iter().map(|t| t.offered).sum()),
        ),
    );
    l.set("core.admission.preemptions", sum(&|r| r.tenant_preemptions));
    l.set("core.repair.tickets", sum(&|r| r.repair_opened));
    l.set(
        "core.repair.repaired_ratio",
        ratio(sum(&|r| r.sessions_repaired), sum(&|r| r.repair_opened)),
    );
    l.set("core.repair.mttr_p50_s", median(&|r| r.mttr_p50));
    l.set("simcore.fault.events", sum(&|r| r.fault_events as u64));
    l.set("workload.scenario.sim_events", sum(&|r| r.sim_events));
    l.set(
        "workload.scenario.events_per_s",
        ratio(sum(&|r| r.sim_events), wall),
    );
}
