//! `figure_mix`: what a researcher regenerating the paper waits for.
//!
//! One pass is the Fig. 6 grid — request rates {20, 40, 60, 80, 100} ×
//! {Optimal, ACP, SP, RP, Random, Static}, 20 simulated minutes each at
//! paper scale — plus one Fig. 8(b) run: the dynamic 40 → 80 → 60
//! schedule over 150 minutes with the profiling tuner holding 90 %.
//! Every point is one `run_scenario` with its own seed.
//!
//! Why: the same selection and protocol code is used differently.
//! Optimal's branch-and-bound at α = 1 is about half the wall, the
//! baselines skip the board, the tuner replays traces on cloned systems,
//! and every point pays for a fresh topology. A hot-path change tuned
//! for ACP that slows these shows here.

use super::{
    check_scenario, digest_scenario, panel_seed, paper_system, peak_rss_mib, per_cell_cost,
    scenario_layers, seeded_schedule, timed_build, timed_scenario, Digest, Outcome, RunOptions,
    ScenarioCell, Size,
};
use crate::json::Json;
use crate::metrics::ratio;
use crate::stats;
use crate::sut::{AlgorithmKind, RateSchedule, ScenarioConfig, SimDuration, SimTime, TunerConfig};
use crate::trace::{Span, Spans, NO_REQUEST};

/// Points whose `build_system` is timed on its own for `setup_s`: enough
/// for a calm one among them without building every topology twice.
const SETUP_SAMPLES: usize = 8;

/// The Fig. 6 request rates and simulated minutes per grid point.
fn grid(size: Size) -> (&'static [f64], u64) {
    match size {
        Size::Full => (&[20.0, 40.0, 60.0, 80.0, 100.0], 20), // ≈ 15 s with Fig. 8(b)
        Size::Smoke => (&[10.0, 20.0], 5),
    }
}

/// The configs of one pass, in run order; the tuned Fig. 8(b) run is last.
fn pass_configs(opts: &RunOptions, pass: u64) -> Vec<ScenarioConfig> {
    let (rates, minutes) = grid(opts.size);
    let points = (rates.len() * AlgorithmKind::ALL.len() + 1) as u64;
    let index = |i: usize| pass * points + i as u64;
    let point = |i: usize, nominal: &RateSchedule, minutes: u64| ScenarioConfig {
        schedule: seeded_schedule(nominal, minutes, opts, "figure_mix", index(i)),
        duration: SimDuration::from_minutes(minutes),
        ..paper_system(opts.size, panel_seed("figure_mix", index(i)))
    };
    let mut configs = Vec::new();
    for &rate in rates {
        for algorithm in AlgorithmKind::ALL {
            configs.push(ScenarioConfig {
                algorithm,
                ..point(configs.len(), &RateSchedule::constant(rate), minutes)
            });
        }
    }
    let (schedule, minutes) = match opts.size {
        Size::Full => (RateSchedule::figure8(), 150),
        Size::Smoke => (
            RateSchedule::steps(vec![
                (SimTime::ZERO, 8.0),
                (SimTime::from_minutes(10), 24.0),
            ]),
            20,
        ),
    };
    configs.push(ScenarioConfig {
        tuner: Some(TunerConfig {
            target_success: 0.90,
            ..TunerConfig::default()
        }),
        ..point(configs.len(), &schedule, minutes)
    });
    configs
}

pub fn run<S: Spans>(opts: &RunOptions, spans: &mut S) -> Outcome {
    let mut outcome = Outcome::new();
    let mut setups = Vec::new();
    let mut cells: Vec<ScenarioCell> = Vec::new();
    let mut tuned: Vec<bool> = Vec::new();
    let mut timed_s = 0.0;
    let mut pass = 0;
    let mut base_points = 0;
    while pass == 0 || timed_s < opts.seconds {
        for config in pass_configs(opts, pass) {
            spans.enter(Span::Cell, NO_REQUEST);
            if setups.len() < SETUP_SAMPLES {
                setups.push(timed_build(&config, spans));
            }
            tuned.push(config.tuner.is_some());
            let cell = timed_scenario(config, spans);
            spans.exit();
            timed_s += cell.wall_s;
            cells.push(cell);
        }
        pass += 1;
        if pass == 1 {
            base_points = cells.len();
        }
    }

    // Deterministic results: the first pass, ACP's grid points.
    let mut digest = Digest::new();
    let (mut requests, mut composed, mut probes) = (0u64, 0u64, 0u64);
    for (i, cell) in cells[..base_points].iter().enumerate() {
        let r = &cell.result;
        check_scenario(&mut outcome, &format!("point {i} ({})", r.algorithm), r);
        digest_scenario(&mut digest, r);
        if r.algorithm == AlgorithmKind::Acp && !tuned[i] {
            requests += r.total_requests;
            composed += r.total_successes;
            probes += r.overhead.probe_messages;
        }
    }
    outcome.digest = digest.0;
    outcome.attempted = cells.iter().map(|c| c.result.total_requests).sum();
    outcome.declined = cells
        .iter()
        .map(|c| c.result.total_requests - c.result.total_successes)
        .sum();

    per_cell_cost(&mut outcome, &cells);
    let e2e = &mut outcome.end_to_end;
    e2e.set("setup_s", stats::fast_cost(&setups));
    e2e.set(
        "session_ops_per_s",
        ratio(outcome.attempted as f64, timed_s),
    );
    e2e.set("success_rate", ratio(composed as f64, requests as f64));
    e2e.set(
        "probe_msgs_per_request",
        ratio(probes as f64, requests as f64),
    );
    e2e.set("peak_rss_mib", peak_rss_mib());
    outcome.note("passes", Json::int(pass));
    outcome.note("points", Json::int(cells.len() as u64));
    outcome.note(
        "op",
        Json::str("requests submitted over all points, per summed run_scenario wall"),
    );
    outcome.note("success_rate", Json::str("ACP's grid points only"));
    outcome.note("timed_s", Json::num(timed_s));

    if spans.active() {
        let l = &mut outcome.per_layer;
        let acp: Vec<&ScenarioCell> = cells
            .iter()
            .zip(&tuned)
            .filter(|(c, &t)| c.result.algorithm == AlgorithmKind::Acp && !t)
            .map(|(c, _)| c)
            .collect();
        scenario_layers(l, &cells, &acp, spans);
        for algorithm in AlgorithmKind::ALL {
            let points = || {
                cells
                    .iter()
                    .zip(&tuned)
                    .filter(|(c, &t)| c.result.algorithm == algorithm && !t)
            };
            let wall: f64 = points().map(|(c, _)| c.wall_s).sum();
            let requests: u64 = points().map(|(c, _)| c.result.total_requests).sum();
            let composed: u64 = points().map(|(c, _)| c.result.total_successes).sum();
            l.set(&format!("core.algorithms.{algorithm}.wall_s"), wall);
            l.set(
                &format!("core.algorithms.{algorithm}.success_rate"),
                ratio(composed as f64, requests as f64),
            );
        }
        let tuner_runs = || cells.iter().zip(&tuned).filter(|(_, &t)| t);
        l.set(
            "core.tuning.wall_s",
            tuner_runs().map(|(c, _)| c.wall_s).sum(),
        );
        l.set(
            "core.tuning.profiling_runs",
            tuner_runs()
                .map(|(c, _)| c.result.profiling_runs)
                .sum::<u64>() as f64,
        );
    }
    outcome
}
