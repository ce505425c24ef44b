//! One-shot composition latency per algorithm and system size.
//!
//! Complements the figure binaries: where those measure *protocol message
//! counts* in simulated time, these measure *wall-clock compute cost* of a
//! single `Find` invocation — the number the paper's complexity claims
//! ("adaptive polynomial approximation" vs "exponential overhead") are
//! about.

use acp_core::prelude::*;
use acp_simcore::{DeterministicRng, SimTime};
use acp_workload::{build_system, RequestConfig, RequestGenerator, ScenarioConfig};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn config_for(nodes: usize) -> ScenarioConfig {
    let mut config = ScenarioConfig::small(7);
    config.ip_nodes = (nodes * 8).max(400);
    config.stream_nodes = nodes;
    config
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("compose_once");
    group.sample_size(20);
    for &nodes in &[50usize, 100] {
        let config = config_for(nodes);
        let (system, board, library) = build_system(&config);
        let mut generator = RequestGenerator::new(library, RequestConfig::default());
        let mut rng = DeterministicRng::new(7).stream("bench");
        let (request, _) = generator.next(&mut rng);

        for kind in [
            AlgorithmKind::Acp,
            AlgorithmKind::Sp,
            AlgorithmKind::Rp,
            AlgorithmKind::Random,
            AlgorithmKind::Static,
            AlgorithmKind::Optimal,
        ] {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), nodes),
                &nodes,
                |b, _| {
                    b.iter_batched(
                        || (system.clone(), kind.build(ProbingConfig::default(), 42)),
                        |(mut sys, mut composer)| {
                            composer.compose(&mut sys, &board, &request, SimTime::ZERO)
                        },
                        BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
