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
//! **One seed is one universe.** Every point of every sweep builds from
//! `scale.base_config(seed)` — the master seed — and differs from its
//! neighbours only in what the figure's axes name: the six algorithms of
//! a Fig. 6 row meet the same topology, placement and arrival stream
//! (common random numbers). Replicates across universes are what
//! `--seed` is for. Points run as independent jobs on the deterministic
//! parallel driver ([`crate::parallel`]), so the output is a pure
//! function of `(scale, seed)` and byte-identical at any `threads`.

use acp_core::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use acp_workload::{QosTier, RateSchedule, ScenarioConfig, ScenarioResult};

use crate::parallel::{grid, run_indexed};
use crate::report::{pct, Table};

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

/// One point of a sweep: where it sits on the sweep's axes, and the
/// whole ledger of the run made there. Tables, asserts and tests read
/// the [`ScenarioResult`] itself, so a column is never a second copy of
/// a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Point<A> {
    /// The axis values of the point (`(nodes, churn)`, a load level, …).
    pub at: A,
    /// Everything the run measured.
    pub result: ScenarioResult,
}

/// Runs the scenario `config(row, column)` at every pair of a sweep's
/// two axes on up to `threads` workers; points come back row-major.
pub(crate) fn sweep<R, C>(
    threads: usize,
    rows: &[R],
    cols: &[C],
    config: impl Fn(R, C) -> ScenarioConfig + Sync,
) -> Vec<Point<(R, C)>>
where
    R: Copy + Send + Sync,
    C: Copy + Send + Sync,
{
    let points = grid(threads, rows, cols, |&row, &col| Point {
        at: (row, col),
        result: acp_workload::run_scenario(config(row, col)),
    });
    points.into_iter().flatten().collect()
}

/// One Fig. 5 table: success vs α (rows) for each `(label, request
/// rate, QoS tier)` column.
fn alpha_sweep(scale: &Scale, seed: u64, threads: usize, title: &str, cols: &[(String, f64, QosTier)]) -> Table {
    let success = grid(threads, &scale.alphas, cols, |&alpha, &(_, rate, tier)| {
        let mut config = scale.base_config(seed);
        config.schedule = RateSchedule::constant(rate);
        config.probing.probing_ratio = alpha;
        config.requests.qos_tier = tier;
        acp_workload::run_scenario(config).overall_success
    });
    let mut header: Vec<String> = vec!["alpha".into()];
    header.extend(cols.iter().map(|(label, ..)| label.clone()));
    let mut table = Table::new(title, header);
    for (alpha, row) in scale.alphas.iter().zip(success) {
        let mut cells = vec![format!("{alpha:.2}")];
        cells.extend(row.into_iter().map(pct));
        table.push_row(cells);
    }
    table
}

/// Runs Fig. 5: composition success rate as a function of the probing
/// ratio, (a) under increasing request rate and (b) under increasingly
/// strict QoS tiers. Returns `[fig5a, fig5b]`.
pub fn fig5(scale: &Scale, seed: u64, threads: usize) -> [Table; 2] {
    let rates: Vec<_> =
        scale.fig5_rates.iter().map(|&r| (format!("{r:.0} reqs/min"), r, QosTier::Normal)).collect();
    let tiers: Vec<_> =
        QosTier::ALL.iter().map(|&t| (format!("{} QoS", t.label()), scale.anchor_rate, t)).collect();
    [
        alpha_sweep(scale, seed, threads, "Fig 5(a) success rate vs probing ratio under request rates", &rates),
        alpha_sweep(scale, seed, threads, "Fig 5(b) success rate vs probing ratio under QoS tiers", &tiers),
    ]
}

/// Runs one Fig. 6/7 sweep point: `algorithm` at `rate` requests/min on
/// a `nodes`-node overlay, for `scale.duration` simulated time.
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

/// The body Figs. 6 and 7 share: every algorithm (columns) at each
/// `(row label, request rate, node count)` of the figure's one axis.
/// Returns `[success table, overhead table]`.
fn algorithm_sweep(
    scale: &Scale,
    seed: u64,
    threads: usize,
    (fig, axis, versus): (&str, &str, &str),
    rows: &[(String, f64, usize)],
) -> [Table; 2] {
    let algos = AlgorithmKind::ALL;
    let results = grid(threads, rows, &algos, |&(_, rate, nodes), &algo| run_point(scale, seed, algo, rate, nodes));

    let mut header: Vec<String> = vec![axis.into()];
    header.extend(algos.iter().map(|a| a.label().to_string()));
    // Last column: how many of the row's Optimal searches hit the expansion
    // cap, so "optimal" is never printed over searches that gave up silently.
    header.push("optimal-truncated".into());
    let mut success = Table::new(format!("{fig}(a) success rate vs {versus}"), header);
    let mut overhead = Table::new(
        format!("{fig}(b) overhead (messages/minute) vs {versus}"),
        vec![axis, "optimal", "acp", "rp", "centralized-n2"],
    );

    let minutes = scale.duration.as_minutes_f64();
    for ((label, _, nodes), per_algo) in rows.iter().zip(&results) {
        let mut srow = vec![label.clone()];
        srow.extend(per_algo.iter().map(|r| pct(r.overall_success)));
        // 0 for every algorithm but Optimal.
        srow.push(per_algo.iter().map(|r| r.optimal_truncated).sum::<u64>().to_string());
        let mut orow = vec![label.clone()];
        for algo in [AlgorithmKind::Optimal, AlgorithmKind::Acp, AlgorithmKind::Rp] {
            let at = algos.iter().position(|&a| a == algo).expect("charted algorithm in ALL");
            orow.push(format!("{:.0}", charted_overhead(&per_algo[at], minutes)));
        }
        orow.push(format!("{}", centralized_update_messages_per_minute(*nodes)));
        success.push_row(srow);
        overhead.push_row(orow);
    }
    [success, overhead]
}

/// Runs Fig. 6 (efficiency, 400 nodes, α = 0.3): returns
/// `[success table, overhead table]`.
pub fn fig6(scale: &Scale, seed: u64, threads: usize) -> [Table; 2] {
    let rows: Vec<_> = scale.rates.iter().map(|&r| (format!("{r:.0}"), r, scale.stream_nodes)).collect();
    algorithm_sweep(scale, seed, threads, ("Fig 6", "rate", "request rate"), &rows)
}

/// Runs Fig. 7 (scalability, 80 req/min, 200–600 nodes): returns
/// `[success table, overhead table]`.
pub fn fig7(scale: &Scale, seed: u64, threads: usize) -> [Table; 2] {
    let rows: Vec<_> = scale.node_counts.iter().map(|&n| (n.to_string(), scale.anchor_rate, n)).collect();
    algorithm_sweep(scale, seed, threads, ("Fig 7", "nodes", "node count"), &rows)
}

/// Runs Fig. 8 (adaptability under the dynamic workload): returns
/// `[fixed-ratio timeline, adaptive-tuning timeline]`.
pub fn fig8(scale: &Scale, seed: u64, threads: usize) -> [Table; 2] {
    let mut results = run_indexed(threads, &[false, true], |&tuned| {
        let mut config = scale.base_config(seed);
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

    [
        timeline(&fixed, "Fig 8(a) fixed probing ratio 0.3 under dynamic workload", false),
        timeline(&tuned, "Fig 8(b) adaptive probing-ratio tuning (target 90%)", true),
    ]
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
