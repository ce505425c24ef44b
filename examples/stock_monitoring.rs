//! Stock-price tracing — a latency-critical pipeline workload.
//!
//! The paper's introduction motivates stream processing with trade
//! surveillance and stock price tracing: long-lived sessions with tight
//! delay bounds. This example floods the system with tick-processing
//! pipelines (filter → aggregate → correlate) and shows how ACP's
//! load-balanced placement keeps admitting sessions after the static
//! baseline has saturated its fixed components.
//!
//! Run with: `cargo run --release --example stock_monitoring`

use acp_stream::prelude::*;

fn pipeline_request(system: &acp_stream::model::StreamSystem, id: u64) -> Request {
    // Different symbols flow through different operator instances: vary
    // the concrete function within each family per request.
    let pick = |cat: FunctionCategory| -> FunctionId {
        let pool: Vec<FunctionId> = system
            .registry()
            .iter()
            .filter(|p| p.category == cat && !system.candidates(p.id).is_empty())
            .map(|p| p.id)
            .collect();
        pool[(id as usize) % pool.len()]
    };
    Request {
        id: RequestId(id),
        graph: FunctionGraph::path(vec![
            pick(FunctionCategory::Filter),
            pick(FunctionCategory::Aggregate),
            pick(FunctionCategory::Correlate),
        ]),
        // Ticks are small but latency-sensitive.
        qos: QosRequirement::new(SimDuration::from_millis(160), LossRate::from_probability(0.05)),
        base_resources: ResourceVector::new(4.0, 24.0),
        bandwidth_kbps: 120.0,
        stream_rate_kbps: 96.0,
        tenant: None,
    }
}

/// Coefficient of variation of per-node CPU utilisation: the paper's
/// load-balancing goal means lower is better.
fn utilization_spread(system: &acp_stream::model::StreamSystem) -> f64 {
    let utils: Vec<f64> = (0..system.node_count())
        .map(|i| {
            let node = system.node(OverlayNodeId(i as u32));
            let cap = node.capacity().cpu;
            if cap > 0.0 {
                node.committed().cpu / cap
            } else {
                0.0
            }
        })
        .collect();
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = utils.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / utils.len() as f64;
    var.sqrt() / mean
}

fn main() {
    let config = ScenarioConfig::small(33);
    println!("flooding the system with stock-tick pipelines until saturation…\n");
    println!("{:<8} {:>10} {:>14} {:>18}", "algo", "admitted", "util spread", "probe msgs");

    let mut rows = Vec::new();
    for kind in [AlgorithmKind::Acp, AlgorithmKind::Rp, AlgorithmKind::Random, AlgorithmKind::Static] {
        let (mut system, mut board, _) = build_system(&config);
        let mut composer = kind.build(ProbingConfig::default(), 5);
        let mut admitted = 0u32;
        let mut probes = 0u64;
        for i in 0..400u64 {
            let request = pipeline_request(&system, i);
            let out = composer.compose(&mut system, &board, &request, SimTime::ZERO);
            probes += out.stats.probe_messages;
            if out.session.is_some() {
                admitted += 1;
            }
            // Threshold-triggered coarse state maintenance (the paper's
            // 10-second local measurement cadence).
            board.refresh_nodes(&system);
        }
        let spread = utilization_spread(&system);
        println!("{:<8} {:>7}/400 {:>13.3} {:>18}", kind.label(), admitted, spread, probes);
        rows.push((kind, admitted, spread));
    }
    let (_, acp_admitted, acp_spread) = rows[0];
    for &(kind, admitted, spread) in &rows[1..] {
        assert!(acp_admitted >= admitted, "{} admitted {admitted}, ACP {acp_admitted}", kind.label());
        assert!(acp_spread <= spread, "{} spread {spread:.3}, ACP {acp_spread:.3}", kind.label());
    }

    println!(
        "\nACP admits the most sessions with the most even utilisation; \
         static saturates its fixed nodes first; random wastes capacity on \
         uneven placement."
    );
}
