//! Micro-benchmarks of ACP's decision kernels: per-hop candidate
//! selection (ranked vs random on 100 nodes, the ranked walk at 20k
//! nodes in ns per examined row), the congestion aggregation metric, and
//! global-state refresh.

use acp_bench::scale_request_config;
use acp_core::overhead::OverheadStats;
use acp_core::selection::{
    select_candidates, select_candidates_with, HopContext, HopSelection, SelectionScratch,
};
use acp_model::prelude::*;
use acp_simcore::DeterministicRng;
use acp_state::{GlobalStateBoard, GlobalStateConfig};
use acp_topology::Overlay;
use acp_workload::{build_system, RequestConfig, RequestGenerator, ScenarioConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (StreamSystem, acp_state::GlobalStateBoard, Request) {
    let mut config = ScenarioConfig::small(11);
    config.stream_nodes = 100;
    config.ip_nodes = 800;
    let (system, board, library) = build_system(&config);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(11).stream("sel");
    let (request, _) = generator.next(&mut rng);
    (system, board, request)
}

fn bench_candidate_selection(c: &mut Criterion) {
    let (mut system, board, request) = setup();
    let mut group = c.benchmark_group("candidate_selection");
    for (label, strategy) in [("ranked", HopSelection::Ranked), ("random", HopSelection::Random)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, &strategy| {
            let mut rng = DeterministicRng::new(12).stream("sel-rng");
            b.iter(|| {
                let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
                let mut stats = OverheadStats::new();
                select_candidates(&mut system, &board, &ctx, strategy, 0.3, 0.05, &mut rng, &mut stats)
            });
        });
    }
    group.finish();
}

/// The ranked walk at the `scale_churn` operating point: a 20k-node
/// synthetic overlay, 3–5 components per node (k ≈ 1 000 per function),
/// quota 8, ε 0.01, the `fig_scale` single-function requests. One
/// iteration selects for every request of a fixed batch; nothing is
/// committed, so the rows examined per iteration repeat exactly and the
/// report's per-element time is ns per examined index row.
fn bench_ranked_at_scale(c: &mut Criterion) {
    const REQUESTS: usize = 512;
    let mut rng = StdRng::seed_from_u64(17);
    let overlay = Overlay::synthetic(20_000, 2, &mut rng);
    let config = SystemConfig { components_per_node: (3, 5), ..SystemConfig::default() };
    let mut system = StreamSystem::generate(overlay, FunctionRegistry::standard(), &config, &mut rng);
    let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
    let mean_k = system.dense_component_count() as f64 / system.registry().len() as f64;
    let alpha = 8.0 / mean_k;
    let mut generator =
        RequestGenerator::new(TemplateLibrary::singletons(system.registry()), scale_request_config());
    let requests: Vec<Request> = (0..REQUESTS).map(|_| generator.next(&mut rng).0).collect();

    let mut scratch = SelectionScratch::default();
    let mut select_all = |system: &mut StreamSystem, stats: &mut OverheadStats| {
        let mut plans = 0;
        for request in &requests {
            let ctx = HopContext { request, vertex: 0, predecessors: &[] };
            let selected = select_candidates_with(
                system,
                &board,
                &ctx,
                HopSelection::Ranked,
                alpha,
                0.01,
                &mut rng,
                stats,
                &mut scratch,
            );
            plans += selected.len();
        }
        plans
    };
    let mut stats = OverheadStats::new();
    select_all(&mut system, &mut stats);
    println!(
        "candidate_selection/ranked_20k: {REQUESTS} selections per iteration, {:.1} of {mean_k:.0} rows examined each",
        stats.selection_examined as f64 / REQUESTS as f64,
    );

    let mut group = c.benchmark_group("candidate_selection");
    group.throughput(Throughput::Elements(stats.selection_examined));
    group.bench_function("ranked_20k", |b| {
        b.iter(|| select_all(&mut system, &mut OverheadStats::new()));
    });
    group.finish();
}

fn bench_congestion_aggregation(c: &mut Criterion) {
    let (mut system, board, request) = setup();
    // Build one composition to evaluate.
    let mut composer = acp_core::AcpComposer::new(acp_core::ProbingConfig::default(), 3);
    use acp_core::Composer as _;
    let out = composer.compose(&mut system, &board, &request, acp_simcore::SimTime::ZERO);
    let sid = out.session.expect("loose request composes");
    let composition = system.session(sid).unwrap().composition.clone();

    c.bench_function("congestion_aggregation", |b| {
        b.iter(|| congestion_aggregation(&system, &request, &composition));
    });
}

fn bench_board_refresh(c: &mut Criterion) {
    let (system, mut board, _request) = setup();
    c.bench_function("global_board_refresh_100_nodes", |b| {
        b.iter(|| board.refresh_nodes(&system));
    });
}

criterion_group!(
    benches,
    bench_candidate_selection,
    bench_ranked_at_scale,
    bench_congestion_aggregation,
    bench_board_refresh
);
criterion_main!(benches);
