//! The `fig_scale` experiment: memory-layout scalability of the hot
//! state path at 100k-node topologies and up to a million concurrent
//! sessions.
//!
//! The paper's figures stop at 500 overlay nodes; this experiment
//! measures what the SoA residual tables, the arena session store, and
//! the incremental top-k candidate index buy past that. Each point
//! builds a synthetic overlay ([`Overlay::synthetic`], O(n) — the real
//! builder's per-node Dijkstra is infeasible at this size), streams
//! single-function requests lazily per epoch
//! ([`acp_workload::StreamingArrivals`] over
//! [`TemplateLibrary::singletons`] — no virtual links, so the cost is
//! pure selection + session churn), ramps the live-session count to the
//! target, then sustains a close-oldest/commit-new churn at exactly
//! that concurrency. Reported: session operations per second, the
//! selection index's measured sublinearity (`examined / candidates`),
//! and the process's peak RSS (`VmHWM` from `/proc/self/status`).

use std::collections::VecDeque;
use std::time::Instant;

use acp_core::prelude::*;
use acp_core::selection::HopContext;
use acp_model::prelude::*;
use acp_simcore::SimTime;
use acp_state::{GlobalStateBoard, GlobalStateConfig};
use acp_topology::Overlay;
use acp_workload::{RateSchedule, RequestConfig, RequestGenerator, StreamingArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One `fig_scale` sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Overlay nodes (the paper's axis stops at 500; this one reaches
    /// 100k).
    pub nodes: usize,
    /// Concurrent-session target held during the churn phase (up to
    /// 1M).
    pub sessions: usize,
    /// Close-oldest/commit-new operations after the ramp.
    pub churn: usize,
    /// Master seed.
    pub seed: u64,
}

/// Desired ranked-selection quota per hop; `α` is derived from it and
/// the mean candidates-per-function so `⌈α·k⌉ ≈` this.
const QUOTA_TARGET: usize = 8;

/// Measured results of one [`run_scale_point`] call. All counter fields
/// are deterministic given the config; only the wall-clock and RSS
/// fields vary between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Echo of the driving config.
    pub nodes: usize,
    /// Echo of the concurrent-session target.
    pub sessions: usize,
    /// Deployed components (`Σ k` over functions).
    pub components: usize,
    /// Sessions committed (ramp + churn).
    pub committed: u64,
    /// Sessions closed during churn.
    pub closed: u64,
    /// Arrivals rejected (no qualified candidate or admission failure).
    pub rejected: u64,
    /// Live sessions at the end of the run.
    pub live_at_end: usize,
    /// Board update messages published across the epochs.
    pub update_messages: u64,
    /// Selection counters summed over every ranked selection.
    pub overhead: OverheadStats,
    /// Wall-clock of the measured (ramp + churn) loop.
    pub wall_seconds: f64,
    /// Session operations (commits + closes) per wall-clock second.
    pub ops_per_sec: f64,
    /// Wall-clock spent inside `commit_session` alone, summed over every
    /// call — commit must not grow with the node count.
    pub commit_seconds: f64,
    /// Wall-clock spent inside ranked selection alone, summed over every
    /// call.
    pub selection_seconds: f64,
    /// Peak resident set size of the whole process so far, in MiB
    /// (`VmHWM`; 0 when `/proc/self/status` is unavailable).
    pub peak_rss_mib: f64,
}

impl ScalePoint {
    /// Mean wall-clock microseconds per `commit_session` call.
    pub fn commit_us_per_op(&self) -> f64 {
        self.commit_seconds * 1e6 / (self.committed + self.rejected).max(1) as f64
    }

    /// Mean wall-clock microseconds per ranked selection.
    pub fn selection_us_per_op(&self) -> f64 {
        self.selection_seconds * 1e6 / self.overhead.global_state_queries.max(1) as f64
    }

    /// Mean wall-clock nanoseconds per examined candidate-index row —
    /// the price of one look.
    pub fn selection_ns_per_row(&self) -> f64 {
        self.selection_seconds * 1e9 / self.overhead.selection_examined.max(1) as f64
    }

    /// `examined / candidates` — the measured sublinearity of indexed
    /// selection (1.0 would mean full scans).
    pub fn examined_fraction(&self) -> f64 {
        self.overhead.selection_examined as f64 / self.overhead.selection_candidates.max(1) as f64
    }
}

/// Peak resident set size (`VmHWM`) in MiB, read from
/// `/proc/self/status`. Returns 0.0 on platforms without procfs.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kib / 1024.0;
        }
    }
    0.0
}

/// Request distributions for the scale workload: tiny demands (a
/// million concurrent sessions must co-exist on the deployed capacity),
/// a binding delay requirement (so the index's delay-ordered early exit
/// engages), and a slack loss requirement (so risk is delay-dominated
/// and the delay lower bound is tight).
fn scale_request_config() -> RequestConfig {
    RequestConfig {
        per_hop_delay_ms: (150.0, 300.0),
        max_loss: (0.5, 0.9),
        base_cpu: (0.01, 0.05),
        base_memory_mb: (0.05, 0.20),
        bandwidth_kbps: (1.0, 5.0),
        stream_rate_kbps: (50.0, 400.0),
        session_minutes: (5.0, 15.0),
        ..RequestConfig::default()
    }
}

/// Runs one `fig_scale` point: build, ramp to `cfg.sessions` live
/// sessions, churn `cfg.churn` close/commit pairs at that concurrency.
///
/// The timed region covers the ramp + churn loop only (system and board
/// construction are setup, not the steady state under test). Every
/// counter in the returned [`ScalePoint`] is deterministic given the
/// config.
pub fn run_scale_point(cfg: &ScaleConfig) -> ScalePoint {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let overlay = Overlay::synthetic(cfg.nodes, 2, &mut rng);
    let registry = FunctionRegistry::standard();
    let system_config = SystemConfig { components_per_node: (3, 5), ..SystemConfig::default() };
    let mut system = StreamSystem::generate(overlay, registry, &system_config, &mut rng);
    let mut board = GlobalStateBoard::new(&system, GlobalStateConfig::default());

    let components = system.dense_component_count();
    let mean_k = components as f64 / system.registry().len() as f64;
    let alpha = (QUOTA_TARGET as f64 / mean_k.max(1.0)).min(1.0);
    let risk_epsilon = 0.01;

    let library = TemplateLibrary::singletons(system.registry());
    let generator = RequestGenerator::new(library, scale_request_config());
    // Rate sized so the whole run spans ~50 one-minute epochs; the sim
    // clock is virtual, so the rate only sets the epoch batch size.
    let total_arrivals = (cfg.sessions + cfg.churn) as f64;
    let rate_per_min = (total_arrivals / 50.0).max(100.0);
    let mut arrivals = StreamingArrivals::new(RateSchedule::constant(rate_per_min), generator);

    let mut stats = OverheadStats::new();
    let mut scratch = SelectionScratch::default();
    let mut live: VecDeque<SessionId> = VecDeque::with_capacity(cfg.sessions);
    let mut buf = Vec::new();
    let (mut committed, mut closed, mut rejected) = (0u64, 0u64, 0u64);
    let mut update_messages = 0u64;
    let mut commit_seconds = 0.0f64;
    let mut selection_seconds = 0.0f64;
    let mut epoch_end = SimTime::from_minutes(1);
    let epoch = acp_simcore::SimDuration::from_minutes(1);

    let start = Instant::now();
    while committed + rejected < (cfg.sessions + cfg.churn) as u64 {
        let drained = arrivals.fill_epoch(epoch_end, &mut rng, &mut buf);
        epoch_end += epoch;
        if drained == 0 {
            continue;
        }
        for arrival in buf.drain(..) {
            if committed + rejected >= (cfg.sessions + cfg.churn) as u64 {
                break;
            }
            let request = arrival.request;
            let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
            let selection_start = Instant::now();
            let plans = select_candidates_with(
                &mut system,
                &board,
                &ctx,
                HopSelection::Ranked,
                alpha,
                risk_epsilon,
                &mut rng,
                &mut stats,
                &mut scratch,
            );
            selection_seconds += selection_start.elapsed().as_secs_f64();
            let Some(plan) = plans.into_iter().next() else {
                rejected += 1;
                continue;
            };
            if live.len() >= cfg.sessions {
                let oldest = live.pop_front().expect("non-empty at target");
                let ok = system.close_session(oldest);
                debug_assert!(ok, "live queue only holds open sessions");
                closed += 1;
            }
            let composition =
                Composition { assignment: vec![plan.component], links: Vec::new() };
            let commit_start = Instant::now();
            let outcome = system.commit_session(&request, composition);
            commit_seconds += commit_start.elapsed().as_secs_f64();
            match outcome {
                Ok(id) => {
                    live.push_back(id);
                    committed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Threshold-triggered board refresh once per epoch: touched
        // nodes republish, exercising incremental index maintenance
        // under churn; untouched nodes are version-skipped.
        update_messages += board.refresh_nodes(&system);
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let ops = committed + closed;

    ScalePoint {
        nodes: cfg.nodes,
        sessions: cfg.sessions,
        components,
        committed,
        closed,
        rejected,
        live_at_end: live.len(),
        update_messages,
        overhead: stats,
        wall_seconds,
        ops_per_sec: ops as f64 / wall_seconds.max(1e-9),
        commit_seconds,
        selection_seconds,
        peak_rss_mib: peak_rss_mib(),
    }
}

/// Standard churn sizing for a sweep point: 10% of the session target,
/// at least 1000 ops.
pub fn churn_for(sessions: usize) -> usize {
    (sessions / 10).max(1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> ScaleConfig {
        ScaleConfig { nodes: 500, sessions: 2_000, churn: 500, seed }
    }

    #[test]
    fn scale_point_reaches_target_and_churns() {
        let p = run_scale_point(&small_cfg(42));
        assert_eq!(p.nodes, 500);
        assert!(p.components >= 1_500, "3-5 components per node");
        assert_eq!(p.committed + p.rejected, (2_000 + 500) as u64);
        assert!(p.rejected < 250, "workload sized to mostly admit: {} rejected", p.rejected);
        assert_eq!(p.live_at_end as u64, p.committed - p.closed);
        assert!(
            p.live_at_end <= 2_000 && p.live_at_end > 1_500,
            "churn holds concurrency at the target: {}",
            p.live_at_end
        );
        assert!(p.closed > 0, "churn phase must close sessions");
        assert!(p.ops_per_sec > 0.0);
    }

    #[test]
    fn indexed_selection_is_sublinear() {
        let p = run_scale_point(&small_cfg(43));
        assert!(p.overhead.selection_candidates > 0);
        assert!(
            p.examined_fraction() < 0.5,
            "early exit should skip most of the index: examined {}/{} ({:.2})",
            p.overhead.selection_examined,
            p.overhead.selection_candidates,
            p.examined_fraction()
        );
    }

    #[test]
    fn scale_point_counters_are_deterministic() {
        let a = run_scale_point(&small_cfg(44));
        let b = run_scale_point(&small_cfg(44));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.closed, b.closed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.overhead, b.overhead);
        assert_eq!(a.update_messages, b.update_messages);
    }

    #[test]
    fn rss_probe_reports_on_linux() {
        let rss = peak_rss_mib();
        if cfg!(target_os = "linux") {
            assert!(rss > 1.0, "a running test binary has a measurable peak RSS");
        }
    }
}
