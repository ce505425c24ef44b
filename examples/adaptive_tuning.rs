//! Adaptive probing-ratio tuning under a dynamic workload (paper Fig. 8).
//!
//! Runs the Fig. 8 scenario at laptop scale: the request rate starts low,
//! surges mid-run, then relaxes. With a fixed probing ratio the success
//! rate sags through the surge; with the tuner enabled ACP raises the
//! probing ratio to hold the 90 % target, then relaxes it again.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use acp_stream::prelude::*;

fn scenario(seed: u64, tuned: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::small(seed);
    config.duration = SimDuration::from_minutes(60);
    config.schedule = RateSchedule::steps(vec![
        (SimTime::ZERO, 8.0),
        (SimTime::from_minutes(20), 24.0),
        (SimTime::from_minutes(40), 12.0),
    ]);
    config.probing = ProbingConfig { probing_ratio: 0.3, ..ProbingConfig::default() };
    if tuned {
        config.tuner = Some(TunerConfig { target_success: 0.9 });
    }
    config
}

fn print_timeline(label: &str, result: &ScenarioResult) {
    println!("\n=== {label} ===");
    println!("{:>8} {:>14} {:>14}", "minute", "success rate", "probing ratio");
    let ratios: std::collections::HashMap<u64, f64> = result
        .ratio_series
        .samples()
        .iter()
        .map(|&(t, r)| (t.as_minutes_f64() as u64, r))
        .collect();
    for &(t, s) in result.success_series.samples() {
        let minute = t.as_minutes_f64() as u64;
        let ratio = ratios.get(&minute).copied().unwrap_or(f64::NAN);
        println!("{minute:>8} {:>13.1}% {ratio:>14.2}", s * 100.0);
    }
    println!(
        "overall: {:.1}% success over {} requests, {} profiling sweep(s)",
        result.overall_success() * 100.0,
        result.total_requests,
        result.profiling_runs,
    );
}

fn main() {
    println!("dynamic workload: 8 req/min → 24 req/min @ t=20 → 12 req/min @ t=40");

    let fixed = run_scenario(scenario(9, false));
    print_timeline("fixed probing ratio α = 0.3 (Fig. 8a)", &fixed);

    let tuned = run_scenario(scenario(9, true));
    print_timeline("adaptive tuning, target 90 % (Fig. 8b)", &tuned);

    // Compare behaviour through the surge (minutes 25–40, after the rate
    // tripled and before it relaxed).
    let surge_mean = |r: &ScenarioResult| {
        let window: Vec<f64> = r
            .success_series
            .samples()
            .iter()
            .filter(|&&(t, _)| (25.0..=40.0).contains(&t.as_minutes_f64()))
            .map(|&(_, s)| s)
            .collect();
        window.iter().sum::<f64>() / window.len().max(1) as f64
    };
    let surge_ratio = tuned
        .ratio_series
        .samples()
        .iter()
        .filter(|&&(t, _)| (25.0..=40.0).contains(&t.as_minutes_f64()))
        .map(|&(_, r)| r)
        .fold(0.0f64, f64::max);
    let (fixed_mean, tuned_mean) = (surge_mean(&fixed), surge_mean(&tuned));
    println!(
        "\nthrough the surge: fixed α=0.3 averaged {:.1}% success; the tuner \
         raised α to {:.1} and averaged {:.1}% — extra probes are spent \
         exactly when the surge demands them, then released.",
        fixed_mean * 100.0,
        surge_ratio,
        tuned_mean * 100.0,
    );
    assert!(tuned_mean >= fixed_mean, "the tuner's surge mean fell below the fixed α's");
    let final_ratio = tuned.ratio_series.samples().last().map_or(f64::NAN, |&(_, r)| r);
    assert!(final_ratio < surge_ratio, "the tuner held α at {final_ratio} after the surge");
}
