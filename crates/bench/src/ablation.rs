//! Ablation studies over ACP's design choices.
//!
//! The paper fixes several knobs without sweeping them; these experiments
//! quantify how much each one matters:
//!
//! * **risk-tie ε** — when two candidates' risk values `D(c_i)` are within
//!   ε, selection falls back to the congestion function `V(c_i)` (§3.5).
//!   ε = 0 ranks purely by risk; a huge ε ranks purely by congestion.
//! * **global-state threshold θ** — the publish threshold of coarse
//!   updates (§3.2/§4.1, default 10 %). θ = 0 is precise (expensive)
//!   maintenance; a huge θ freezes the board at its bootstrap snapshot.
//! * **tuning strategy** — fixed ratio vs the paper's profiling tuner vs
//!   the control-theoretic PI extension, under the Fig. 8 dynamic
//!   workload.
//! * **bounded probing budget** — the prototype's BCP variant (fixed
//!   per-function budget) against ratio-based ACP.
//!
//! Every sweep fans its variants over [`run_indexed`] worker threads.
//! Like the figures, ablation points build from the master seed: each
//! variant sees the same workload, so differences in a row are caused by
//! the knob alone.

use acp_core::prelude::*;
use acp_workload::{RateSchedule, ScenarioResult};

use crate::experiments::Scale;
use crate::parallel::run_indexed;
use crate::report::{pct, Table};

/// Sweeps the risk-tie epsilon of per-hop candidate ranking.
pub fn ablation_risk_epsilon(scale: &Scale, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Ablation: risk-tie epsilon (per-hop ranking, ACP)",
        vec!["epsilon", "success %", "probe msgs/min"],
    );
    let epsilons = [0.0, 0.02, 0.05, 0.2, 1_000.0];
    let results = run_indexed(threads, &epsilons, |&eps| {
        let mut config = scale.base_config(seed);
        config.schedule = RateSchedule::constant(scale.anchor_rate);
        config.probing.risk_epsilon = eps;
        acp_workload::run_scenario(config)
    });
    let minutes = scale.duration.as_minutes_f64();
    for (&eps, result) in epsilons.iter().zip(&results) {
        let probe_per_min = result.overhead.probe_messages as f64 / minutes;
        let label = if eps >= 1_000.0 { "inf (pure V)".to_string() } else { format!("{eps:.2}") };
        table.push_row(vec![label, pct(result.overall_success()), format!("{probe_per_min:.0}")]);
    }
    table
}

/// Sweeps the coarse-grain publish threshold θ.
pub fn ablation_state_threshold(scale: &Scale, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Ablation: global-state publish threshold (ACP)",
        vec!["theta", "success %", "state msgs/min", "total msgs/min"],
    );
    let thetas = [0.0, 0.05, 0.10, 0.30, 1_000.0];
    let results = run_indexed(threads, &thetas, |&theta| {
        let mut config = scale.base_config(seed);
        config.schedule = RateSchedule::constant(scale.anchor_rate);
        config.global_state.threshold = theta;
        acp_workload::run_scenario(config)
    });
    let minutes = scale.duration.as_minutes_f64();
    for (&theta, result) in thetas.iter().zip(&results) {
        let state_per_min = result.overhead.state_update_messages as f64 / minutes;
        let total_per_min = result.overhead.total_messages() as f64 / minutes;
        let label = if theta >= 1_000.0 { "frozen board".to_string() } else { format!("{theta:.2}") };
        table.push_row(vec![
            label,
            pct(result.overall_success()),
            format!("{state_per_min:.0}"),
            format!("{total_per_min:.0}"),
        ]);
    }
    table
}

/// Compares probing-ratio governance under the Fig. 8 dynamic workload:
/// fixed ratio, the paper's profiling tuner, and the PI-controller
/// extension.
pub fn ablation_tuning(scale: &Scale, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "Ablation: probing-ratio governance under dynamic workload",
        vec!["strategy", "success %", "mean ratio", "probe msgs/min", "profiling sweeps"],
    );
    let mean_ratio = |r: &ScenarioResult| r.ratio_series.mean().unwrap_or(f64::NAN);

    type Strategy = (&'static str, Option<TunerConfig>, Option<PiControllerConfig>);
    let strategies: Vec<Strategy> = vec![
        ("fixed 0.30", None, None),
        (
            "profiling tuner",
            Some(TunerConfig { target_success: 0.90 }),
            None,
        ),
        (
            "PI controller",
            None,
            Some(PiControllerConfig { target_success: 0.90 }),
        ),
    ];
    let results = run_indexed(threads, &strategies, |(_, tuner, controller)| {
        let mut config = scale.base_config(seed);
        config.schedule = scale.fig8_schedule.clone();
        config.duration = scale.fig8_duration;
        config.probing.probing_ratio = 0.3;
        config.tuner = *tuner;
        config.controller = *controller;
        acp_workload::run_scenario(config)
    });
    for ((label, tuner, _), result) in strategies.iter().zip(&results) {
        // Only the profiling tuner reports sweep counts.
        let sweeps = if tuner.is_some() { result.profiling_runs.to_string() } else { "0".to_string() };
        let probe_per_min = result.overhead.probe_messages as f64 / scale.fig8_duration.as_minutes_f64();
        table.push_row(vec![
            label.to_string(),
            pct(result.overall_success()),
            format!("{:.2}", mean_ratio(result)),
            format!("{probe_per_min:.0}"),
            sweeps,
        ]);
    }
    table
}

/// Bounded composition probing budgets against ratio-based ACP.
pub fn ablation_bcp(scale: &Scale, seed: u64, threads: usize) -> Table {
    use acp_simcore::SimTime;
    use acp_workload::{build_system, RequestConfig, RequestGenerator};
    use rand::SeedableRng;

    let mut table = Table::new(
        "Ablation: bounded composition probing (BCP) vs ratio-based ACP",
        vec!["variant", "admitted %", "probe msgs/request"],
    );
    let config = {
        let mut c = scale.base_config(seed);
        c.schedule = RateSchedule::constant(scale.anchor_rate);
        c
    };
    let (system, board, library) = build_system(&config);
    let requests: Vec<_> = {
        let mut generator = RequestGenerator::new(library, RequestConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..300).map(|_| generator.next(&mut rng).0).collect()
    };

    // Variants as data (`Some(budget)` = BCP, `None` = ACP) so the
    // non-`Send` boxed composer is constructed inside each worker.
    let variants: Vec<Option<usize>> = vec![Some(1), Some(2), Some(4), Some(8), None];
    let rows = run_indexed(threads, &variants, |&variant| {
        let mut composer: Box<dyn Composer> = match variant {
            Some(budget) => Box::new(ProbingComposer::bounded(budget, ProbingConfig::default(), 11)),
            None => Box::new(AcpComposer::new(ProbingConfig::default(), 11)),
        };
        let label = match variant {
            Some(budget) => format!("bcp budget {budget}"),
            None => "acp alpha 0.30".to_string(),
        };
        let mut sys = system.clone();
        let mut ok = 0u32;
        let mut probes = 0u64;
        for request in &requests {
            let out = composer.compose(&mut sys, &board, request, SimTime::ZERO);
            probes += out.stats.probe_messages;
            if out.session.is_some() {
                ok += 1;
            }
        }
        vec![
            label,
            pct(ok as f64 / requests.len() as f64),
            format!("{:.1}", probes as f64 / requests.len() as f64),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::{SimDuration, SimTime};

    fn tiny_scale() -> Scale {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_minutes(5);
        scale.fig8_duration = SimDuration::from_minutes(15);
        scale.fig8_schedule = RateSchedule::steps(vec![(SimTime::ZERO, 5.0)]);
        scale.anchor_rate = 5.0;
        scale
    }

    #[test]
    fn risk_epsilon_sweep_produces_rows() {
        let table = ablation_risk_epsilon(&tiny_scale(), 1, 2);
        assert_eq!(table.rows.len(), 5);
    }

    #[test]
    fn bcp_sweep_orders_budgets() {
        let table = ablation_bcp(&tiny_scale(), 2, 2);
        assert_eq!(table.rows.len(), 5);
        // probe traffic grows with budget
        let msgs: Vec<f64> = table.rows.iter().take(4).map(|r| r[2].parse().unwrap()).collect();
        assert!(msgs.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{msgs:?}");
    }
}
