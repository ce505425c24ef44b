//! `chaos_full`: every robustness subsystem on at once, through the
//! real `workload::run_scenario` loop.
//!
//! Each cell is one `run_scenario` on the paper system at 80 requests
//! per minute for 90 simulated minutes, with: node, link, component and
//! partition faults at the default rates; in-place repair; the standard
//! four-tenant mix with admission thresholds 0.30 / 0.55 and BestEffort
//! preemption armed at 0.30; and two-phase setup over a transport that
//! drops 5 % of probes and loses 2.5 % of confirmations, half of which
//! resurface as stale acks. The eight cells run twice over, the second
//! pass repeating the first result for result, and each cell counts with
//! the lesser of its two walls: `run_scenario` cannot be sliced from
//! outside, so repeating the same work is the only way to tell the
//! program's time from the neighbours'.
//!
//! Why: node failures invalidate the path memo (~81 % hits here, ~220k
//! misses per cell), so the *cold* routing path is exercised. Leases
//! (~52 per composition), admission shedding, preemption, repair splices and
//! the auditor after every sweep all run here and nowhere else. This is
//! the workload the scenario-subsystem refactor, the one-runtime decision
//! and the trace sink must leave no worse.

use super::{
    check_scenario, digest_scenario, panel_seed, paper_system, peak_rss_mib, per_cell_cost,
    same_result, scenario_layers, seeded_schedule, timed_build, timed_scenario, Digest, Outcome,
    RunOptions, ScenarioCell, Size,
};
use crate::json::Json;
use crate::metrics::ratio;
use crate::stats;
use crate::sut::{
    AdmissionConfig, ChurnConfig, RateSchedule, RepairPolicy, RepairScenarioConfig, ScenarioConfig,
    SetupConfig, SimDuration, TenantsConfig,
};
use crate::trace::{Span, Spans, NO_REQUEST};

/// Frozen sizes: `(deployments, passes over them, simulated minutes per cell, requests per minute)`.
fn sizes(size: Size) -> (u64, u64, u64, f64) {
    match size {
        Size::Full => (8, 2, 90, 80.0), // ≈ 20 s
        Size::Smoke => (2, 2, 30, 20.0),
    }
}

fn cell_config(opts: &RunOptions, cell: u64) -> ScenarioConfig {
    let (_, _, minutes, rate) = sizes(opts.size);
    let mut tenants = TenantsConfig::standard_mix();
    tenants.admission = AdmissionConfig {
        best_effort_threshold: 0.30,
        silver_threshold: 0.55,
    };
    if let Some(preemption) = tenants.preemption.as_mut() {
        preemption.congestion_threshold = 0.30;
    }
    let mut setup = SetupConfig::default();
    setup.faults.probe_drop = 0.05;
    setup.faults.confirm_loss = 0.025;
    setup.faults.stale_ack = 0.5;
    ScenarioConfig {
        schedule: seeded_schedule(
            &RateSchedule::constant(rate),
            minutes,
            opts,
            "chaos_full",
            cell,
        ),
        duration: SimDuration::from_minutes(minutes),
        churn: Some(ChurnConfig::default()),
        repair: Some(RepairScenarioConfig {
            policy: RepairPolicy::Repair,
            ..RepairScenarioConfig::default()
        }),
        tenants: Some(tenants),
        setup: Some(setup),
        ..paper_system(opts.size, panel_seed("chaos_full", cell))
    }
}

pub fn run<S: Spans>(opts: &RunOptions, spans: &mut S) -> Outcome {
    let (deployments, base_passes, _, _) = sizes(opts.size);
    let mut outcome = Outcome::new();
    let mut setups = Vec::new();
    // Per deployment: the first pass's result beside the least wall any
    // pass took. Every pass repeats the same cells — same deployment, same
    // load, same work — so the least wall is the cell without the
    // neighbours, and the passes are `deployments` cells apart in time.
    let mut cells: Vec<ScenarioCell> = Vec::new();
    let mut timed_s = 0.0;
    let mut passes = 0;
    while passes < base_passes || timed_s < opts.seconds {
        for d in 0..deployments {
            let config = cell_config(opts, d);
            spans.enter(Span::Cell, NO_REQUEST);
            if passes == 0 {
                setups.push(timed_build(&config, spans));
            }
            let cell = timed_scenario(config, spans);
            spans.exit();
            timed_s += cell.wall_s;
            outcome.attempted += cell.result.total_requests;
            outcome.declined += cell.result.total_requests - cell.result.total_successes;
            match cells.get_mut(d as usize) {
                None => cells.push(cell),
                Some(first) => {
                    outcome.check(same_result(&first.result, &cell.result), || {
                        format!("cell {d}: pass {passes} differs from the first")
                    });
                    first.wall_s = first.wall_s.min(cell.wall_s);
                }
            }
        }
        passes += 1;
    }

    let mut digest = Digest::new();
    let (mut requests, mut composed, mut probes) = (0u64, 0u64, 0u64);
    for (i, cell) in cells.iter().enumerate() {
        check_scenario(&mut outcome, &format!("cell {i}"), &cell.result);
        digest_scenario(&mut digest, &cell.result);
        requests += cell.result.total_requests;
        composed += cell.result.total_successes;
        probes += cell.result.overhead.probe_messages;
    }
    outcome.digest = digest.0;

    let wall: f64 = cells.iter().map(|c| c.wall_s).sum();
    per_cell_cost(&mut outcome, &cells);
    let e2e = &mut outcome.end_to_end;
    e2e.set("setup_s", stats::fast_cost(&setups));
    e2e.set("session_ops_per_s", ratio(requests as f64, wall));
    e2e.set("success_rate", ratio(composed as f64, requests as f64));
    e2e.set(
        "probe_msgs_per_request",
        ratio(probes as f64, requests as f64),
    );
    e2e.set("peak_rss_mib", peak_rss_mib());
    outcome.note("cells", Json::int(cells.len() as u64));
    outcome.note("passes", Json::int(passes));
    outcome.note(
        "op",
        Json::str("requests submitted (shed ones included), per least run_scenario wall"),
    );
    outcome.note("timed_s", Json::num(timed_s));

    if spans.active() {
        scenario_layers(
            &mut outcome.per_layer,
            &cells,
            &cells.iter().collect::<Vec<_>>(),
            spans,
        );
    }
    outcome
}
