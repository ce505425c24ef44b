//! The figure-regeneration experiments (§4 of the paper).
//!
//! One function per figure. Each returns [`Table`]s whose rows/series
//! match what the paper plots:
//!
//! * [`fig5`] — probing-ratio tuning effect: success rate vs α under
//!   (a) different request rates, (b) different QoS tiers.
//! * [`fig6`] — efficiency at 400 nodes, α = 0.3: (a) success rate vs
//!   request rate for all six algorithms, (b) overhead (messages per
//!   minute) for Optimal / ACP / RP, plus the centralized `N²` strawman.
//! * [`fig7`] — scalability at 80 req/min: (a) success rate and (b)
//!   overhead vs node count, components scaling proportionally.
//! * [`fig8`] — adaptability under the dynamic 40→80→60 req/min
//!   workload: (a) fixed α = 0.3 timeline, (b) adaptive tuning timeline.
//!
//! Absolute numbers are simulator-dependent; the *shapes* are the
//! reproduction target (see EXPERIMENTS.md).
//!
//! Every sweep point runs as an independent job on the deterministic
//! parallel driver ([`crate::parallel::run_indexed`]): each point's
//! scenario is seeded by `seed_for_indexed(figure, point_index)` from
//! the master seed, so the output is a pure function of `(scale, seed)`
//! and byte-identical at any thread count. The `*_threads` variants
//! expose the worker count for the determinism regression test; the
//! plain functions use [`crate::parallel::thread_count`]
//! (`ACP_BENCH_THREADS` overrides it).

use acp_core::prelude::*;
use acp_simcore::{DeterministicRng, SimDuration, SimTime};
use acp_workload::{QosTier, RateSchedule, ScenarioConfig, ScenarioResult};

use crate::parallel::{run_indexed, thread_count};
use crate::report::Table;

/// Experiment scale: `paper` mirrors §4.1, `quick` is a laptop smoke run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name.
    pub name: &'static str,
    /// IP-layer node count.
    pub ip_nodes: usize,
    /// Default stream-node count (Figs. 5, 6, 8).
    pub stream_nodes: usize,
    /// Function-catalogue size.
    pub functions: usize,
    /// Components hosted per node.
    pub components_per_node: (usize, usize),
    /// Simulated duration per point for Figs. 5–7.
    pub duration: SimDuration,
    /// Request rates for the Fig. 6 sweep.
    pub rates: Vec<f64>,
    /// Probing ratios for the Fig. 5 sweeps.
    pub alphas: Vec<f64>,
    /// Request rates for Fig. 5(a) series.
    pub fig5_rates: Vec<f64>,
    /// Request rate for Fig. 5(b) / Fig. 7.
    pub anchor_rate: f64,
    /// Node counts for the Fig. 7 sweep.
    pub node_counts: Vec<usize>,
    /// Dynamic schedule for Fig. 8.
    pub fig8_schedule: RateSchedule,
    /// Simulated duration for Fig. 8.
    pub fig8_duration: SimDuration,
}

impl Scale {
    /// The paper's setup (§4.1): 3 200-node IP graph, 400 stream nodes,
    /// 80 functions, request rates 20–100/min, node sweep 200–600.
    /// Durations are 20 simulated minutes per point (the paper used 100;
    /// the success-rate estimates stabilise well before that).
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            ip_nodes: 3_200,
            stream_nodes: 400,
            functions: 80,
            components_per_node: (2, 3),
            duration: SimDuration::from_minutes(20),
            rates: vec![20.0, 40.0, 60.0, 80.0, 100.0],
            alphas: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            fig5_rates: vec![50.0, 80.0, 100.0],
            anchor_rate: 80.0,
            node_counts: vec![200, 300, 400, 500, 600],
            fig8_schedule: RateSchedule::figure8(),
            fig8_duration: SimDuration::from_minutes(150),
        }
    }

    /// A laptop smoke scale: 50 stream nodes, short durations.
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            ip_nodes: 400,
            stream_nodes: 50,
            functions: 20,
            components_per_node: (3, 5),
            duration: SimDuration::from_minutes(10),
            rates: vec![5.0, 10.0, 20.0, 30.0],
            alphas: vec![0.1, 0.3, 0.5, 0.7, 1.0],
            fig5_rates: vec![10.0, 20.0, 30.0],
            anchor_rate: 20.0,
            node_counts: vec![30, 50, 70],
            fig8_schedule: RateSchedule::steps(vec![
                (SimTime::ZERO, 8.0),
                (SimTime::from_minutes(20), 24.0),
                (SimTime::from_minutes(40), 12.0),
            ]),
            fig8_duration: SimDuration::from_minutes(60),
        }
    }

    /// Parses a scale name.
    ///
    /// # Panics
    ///
    /// Panics for names other than `paper` / `quick`.
    pub fn from_name(name: &str) -> Self {
        match name {
            "paper" => Scale::paper(),
            "quick" => Scale::quick(),
            other => panic!("unknown scale {other}"),
        }
    }

    /// The base scenario configuration for this scale.
    pub fn base_config(&self, seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig { seed, ..ScenarioConfig::default() };
        config.ip_nodes = self.ip_nodes;
        config.stream_nodes = self.stream_nodes;
        config.functions = self.functions;
        config.system.components_per_node = self.components_per_node;
        config.duration = self.duration;
        config.overlay_neighbors = 6;
        // Cap exhaustive-search effort per request: the branch-and-bound
        // tail is long on single-core runners, and empirically the best
        // composition is found far earlier (success rates are unchanged
        // versus a 20M-expansion cap on spot checks).
        config.optimal = OptimalConfig { max_expansions: 300_000 };
        config
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Runs Fig. 5: composition success rate as a function of the probing
/// ratio, (a) under increasing request rate and (b) under increasingly
/// strict QoS tiers. Returns `(fig5a, fig5b)`.
pub fn fig5(scale: &Scale, seed: u64) -> (Table, Table) {
    fig5_threads(scale, seed, thread_count())
}

/// [`fig5`] with an explicit worker-thread count. Output depends only on
/// `(scale, seed)`, never on `threads`.
pub fn fig5_threads(scale: &Scale, seed: u64, threads: usize) -> (Table, Table) {
    let streams = DeterministicRng::new(seed);

    // (a) — success vs α per request rate; one sweep point per cell.
    let points_a: Vec<(f64, f64)> = scale
        .alphas
        .iter()
        .flat_map(|&alpha| scale.fig5_rates.iter().map(move |&rate| (alpha, rate)))
        .collect();
    let success_a = run_indexed(threads, &points_a, |i, &(alpha, rate)| {
        let mut config = scale.base_config(streams.seed_for_indexed("fig5a", i as u64));
        config.schedule = RateSchedule::constant(rate);
        config.probing.probing_ratio = alpha;
        acp_workload::run_scenario(config).overall_success
    });
    let mut header_a: Vec<String> = vec!["alpha".into()];
    header_a.extend(scale.fig5_rates.iter().map(|r| format!("{r:.0} reqs/min")));
    let mut table_a = Table::new("Fig 5(a) success rate vs probing ratio under request rates", header_a);
    for (ai, &alpha) in scale.alphas.iter().enumerate() {
        let mut row = vec![format!("{alpha:.2}")];
        for ri in 0..scale.fig5_rates.len() {
            row.push(pct(success_a[ai * scale.fig5_rates.len() + ri]));
        }
        table_a.push_row(row);
    }

    // (b) — success vs α per QoS tier at the anchor rate.
    let points_b: Vec<(f64, QosTier)> = scale
        .alphas
        .iter()
        .flat_map(|&alpha| QosTier::ALL.iter().map(move |&tier| (alpha, tier)))
        .collect();
    let success_b = run_indexed(threads, &points_b, |i, &(alpha, tier)| {
        let mut config = scale.base_config(streams.seed_for_indexed("fig5b", i as u64));
        config.schedule = RateSchedule::constant(scale.anchor_rate);
        config.probing.probing_ratio = alpha;
        config.requests.qos_tier = tier;
        acp_workload::run_scenario(config).overall_success
    });
    let mut header_b: Vec<String> = vec!["alpha".into()];
    header_b.extend(QosTier::ALL.iter().map(|t| format!("{} QoS", t.label())));
    let mut table_b = Table::new("Fig 5(b) success rate vs probing ratio under QoS tiers", header_b);
    for (ai, &alpha) in scale.alphas.iter().enumerate() {
        let mut row = vec![format!("{alpha:.2}")];
        for ti in 0..QosTier::ALL.len() {
            row.push(pct(success_b[ai * QosTier::ALL.len() + ti]));
        }
        table_b.push_row(row);
    }
    (table_a, table_b)
}

/// One Fig. 6/7 sweep point.
/// Runs one sweep point: `algorithm` at `rate` requests/min on a
/// `nodes`-node overlay, for `scale.duration` simulated time. The
/// building block of Figs. 6–7 (also used by the perf-snapshot binary to
/// sample the path-cache hit rate of a Fig. 6 workload).
pub fn run_point(scale: &Scale, seed: u64, algorithm: AlgorithmKind, rate: f64, nodes: usize) -> ScenarioResult {
    let mut config = scale.base_config(seed);
    config.algorithm = algorithm;
    config.schedule = RateSchedule::constant(rate);
    config.stream_nodes = nodes;
    acp_workload::run_scenario(config)
}

/// The overhead the paper charts per algorithm: exhaustive probes for
/// Optimal; probes **plus** global-state updates for ACP; probes only for
/// RP (fully distributed, no global state).
fn charted_overhead(result: &ScenarioResult, minutes: f64) -> f64 {
    match result.algorithm {
        AlgorithmKind::Acp | AlgorithmKind::Sp => {
            (result.overhead.probe_messages + result.overhead.state_update_messages) as f64 / minutes
        }
        _ => result.overhead.probe_messages as f64 / minutes,
    }
}

/// Last column of the Fig. 6(a)/7(a) success tables: how many of the
/// row's Optimal searches hit the expansion cap, so that "optimal" is
/// never printed over searches that gave up without saying so.
const TRUNCATED_COLUMN: &str = "optimal-truncated";

fn optimal_truncated(row: &[ScenarioResult]) -> u64 {
    row.iter().map(|r| r.optimal_truncated).sum() // 0 for every algorithm but Optimal
}

/// Runs Fig. 6 (efficiency, 400 nodes, α = 0.3): returns
/// `(success table, overhead table)`.
pub fn fig6(scale: &Scale, seed: u64) -> (Table, Table) {
    fig6_threads(scale, seed, thread_count())
}

/// [`fig6`] with an explicit worker-thread count. Output depends only on
/// `(scale, seed)`, never on `threads`.
pub fn fig6_threads(scale: &Scale, seed: u64, threads: usize) -> (Table, Table) {
    let streams = DeterministicRng::new(seed);
    let algos = AlgorithmKind::ALL;
    let points: Vec<(f64, AlgorithmKind)> = scale
        .rates
        .iter()
        .flat_map(|&rate| algos.iter().map(move |&algo| (rate, algo)))
        .collect();
    let results = run_indexed(threads, &points, |i, &(rate, algo)| {
        run_point(scale, streams.seed_for_indexed("fig6", i as u64), algo, rate, scale.stream_nodes)
    });

    let mut header: Vec<String> = vec!["rate".into()];
    header.extend(algos.iter().map(|a| a.label().to_string()));
    header.push(TRUNCATED_COLUMN.into());
    let mut success = Table::new("Fig 6(a) success rate vs request rate", header);

    let mut overhead = Table::new(
        "Fig 6(b) overhead (messages/minute) vs request rate",
        vec!["rate", "optimal", "acp", "rp", "centralized-n2"],
    );

    let minutes = scale.duration.as_minutes_f64();
    for (ri, &rate) in scale.rates.iter().enumerate() {
        let per_algo = &results[ri * algos.len()..(ri + 1) * algos.len()];
        let mut srow = vec![format!("{rate:.0}")];
        srow.extend(per_algo.iter().map(|r| pct(r.overall_success)));
        srow.push(optimal_truncated(per_algo).to_string());
        let mut orow = vec![format!("{rate:.0}")];
        for algo in [AlgorithmKind::Optimal, AlgorithmKind::Acp, AlgorithmKind::Rp] {
            let at = algos.iter().position(|&a| a == algo).expect("charted algorithm in ALL");
            orow.push(format!("{:.0}", charted_overhead(&per_algo[at], minutes)));
        }
        orow.push(format!("{}", centralized_update_messages_per_minute(scale.stream_nodes)));
        success.push_row(srow);
        overhead.push_row(orow);
    }
    (success, overhead)
}

/// Runs Fig. 7 (scalability, 80 req/min, 200–600 nodes): returns
/// `(success table, overhead table)`.
pub fn fig7(scale: &Scale, seed: u64) -> (Table, Table) {
    fig7_threads(scale, seed, thread_count())
}

/// [`fig7`] with an explicit worker-thread count. Output depends only on
/// `(scale, seed)`, never on `threads`.
pub fn fig7_threads(scale: &Scale, seed: u64, threads: usize) -> (Table, Table) {
    let streams = DeterministicRng::new(seed);
    let algos = AlgorithmKind::ALL;
    let points: Vec<(usize, AlgorithmKind)> = scale
        .node_counts
        .iter()
        .flat_map(|&nodes| algos.iter().map(move |&algo| (nodes, algo)))
        .collect();
    let results = run_indexed(threads, &points, |i, &(nodes, algo)| {
        run_point(scale, streams.seed_for_indexed("fig7", i as u64), algo, scale.anchor_rate, nodes)
    });

    let mut header: Vec<String> = vec!["nodes".into()];
    header.extend(algos.iter().map(|a| a.label().to_string()));
    header.push(TRUNCATED_COLUMN.into());
    let mut success = Table::new("Fig 7(a) success rate vs node count", header);

    let mut overhead = Table::new(
        "Fig 7(b) overhead (messages/minute) vs node count",
        vec!["nodes", "optimal", "acp", "rp", "centralized-n2"],
    );

    let minutes = scale.duration.as_minutes_f64();
    for (ni, &nodes) in scale.node_counts.iter().enumerate() {
        let per_algo = &results[ni * algos.len()..(ni + 1) * algos.len()];
        let mut srow = vec![format!("{nodes}")];
        srow.extend(per_algo.iter().map(|r| pct(r.overall_success)));
        srow.push(optimal_truncated(per_algo).to_string());
        let mut orow = vec![format!("{nodes}")];
        for algo in [AlgorithmKind::Optimal, AlgorithmKind::Acp, AlgorithmKind::Rp] {
            let at = algos.iter().position(|&a| a == algo).expect("charted algorithm in ALL");
            orow.push(format!("{:.0}", charted_overhead(&per_algo[at], minutes)));
        }
        orow.push(format!("{}", centralized_update_messages_per_minute(nodes)));
        success.push_row(srow);
        overhead.push_row(orow);
    }
    (success, overhead)
}

/// Runs Fig. 8 (adaptability under the dynamic workload): returns
/// `(fixed-ratio timeline, adaptive-tuning timeline)`.
pub fn fig8(scale: &Scale, seed: u64) -> (Table, Table) {
    fig8_threads(scale, seed, thread_count())
}

/// [`fig8`] with an explicit worker-thread count. Output depends only on
/// `(scale, seed)`, never on `threads`.
pub fn fig8_threads(scale: &Scale, seed: u64, threads: usize) -> (Table, Table) {
    let streams = DeterministicRng::new(seed);
    let points = [false, true];
    let mut results = run_indexed(threads, &points, |i, &tuned| {
        let mut config = scale.base_config(streams.seed_for_indexed("fig8", i as u64));
        config.schedule = scale.fig8_schedule.clone();
        config.duration = scale.fig8_duration;
        config.probing.probing_ratio = 0.3;
        if tuned {
            config.tuner = Some(TunerConfig { target_success: 0.90, ..TunerConfig::default() });
        }
        acp_workload::run_scenario(config)
    });
    let tuned = results.pop().expect("two points");
    let fixed = results.pop().expect("two points");

    let timeline = |result: &ScenarioResult, title: &str, with_ratio: bool| {
        let mut header = vec!["minute".to_string(), "success rate %".to_string()];
        if with_ratio {
            header.push("probing ratio".to_string());
        }
        let mut table = Table::new(title, header);
        let ratios: std::collections::HashMap<u64, f64> = result
            .ratio_series
            .samples()
            .iter()
            .map(|&(t, r)| (t.as_minutes_f64().round() as u64, r))
            .collect();
        for &(t, s) in result.success_series.samples() {
            let minute = t.as_minutes_f64().round() as u64;
            let mut row = vec![format!("{minute}"), pct(s)];
            if with_ratio {
                row.push(format!("{:.2}", ratios.get(&minute).copied().unwrap_or(f64::NAN)));
            }
            table.push_row(row);
        }
        table
    };

    (
        timeline(&fixed, "Fig 8(a) fixed probing ratio 0.3 under dynamic workload", false),
        timeline(&tuned, "Fig 8(b) adaptive probing-ratio tuning (target 90%)", true),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_build_configs() {
        for name in ["paper", "quick"] {
            let scale = Scale::from_name(name);
            let config = scale.base_config(1);
            assert_eq!(config.ip_nodes, scale.ip_nodes);
            assert_eq!(config.stream_nodes, scale.stream_nodes);
            assert_eq!(config.functions, scale.functions);
        }
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn unknown_scale_panics() {
        let _ = Scale::from_name("galactic");
    }

    /// End-to-end smoke: a minimal Fig. 6-style sweep on a tiny scale.
    #[test]
    fn mini_fig6_point_runs() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_minutes(5);
        scale.rates = vec![5.0];
        let result = run_point(&scale, 3, AlgorithmKind::Acp, 5.0, scale.stream_nodes);
        assert!(result.total_requests > 0);
        assert!(result.overall_success > 0.0);
        let oh = charted_overhead(&result, 5.0);
        assert!(oh > 0.0);
    }

    #[test]
    fn charted_overhead_matches_paper_definitions() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_minutes(5);
        let acp = run_point(&scale, 4, AlgorithmKind::Acp, 5.0, scale.stream_nodes);
        let rp = run_point(&scale, 4, AlgorithmKind::Rp, 5.0, scale.stream_nodes);
        // ACP charts probes + state updates; RP charts probes only.
        let acp_charted = charted_overhead(&acp, 5.0);
        assert!(acp_charted * 5.0 >= acp.overhead.probe_messages as f64);
        let rp_charted = charted_overhead(&rp, 5.0);
        assert!((rp_charted * 5.0 - rp.overhead.probe_messages as f64).abs() < 1.0);
    }
}
