//! Probe-path hot-loop benchmarks.
//!
//! Quantifies the two probe-path optimisations:
//!
//! * `Overlay::virtual_path` memoisation — a cache hit, and what the memo
//!   is worth straight after a node failed and recovered,
//! * the probing round as a composer runs it: paths read in place in
//!   the memo, the probe tree in one `ProbeScratch` kept across requests.

use acp_core::prelude::*;
use acp_simcore::{DeterministicRng, SimTime};
use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
use acp_workload::{build_system, RequestConfig, RequestGenerator, ScenarioConfig};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn built_overlay(stream_nodes: usize) -> Overlay {
    let mut rng = StdRng::seed_from_u64(11);
    let graph = InetConfig { nodes: (stream_nodes * 8).max(400), ..InetConfig::default() }
        .generate(&mut rng);
    Overlay::build(&graph, &OverlayConfig { stream_nodes, neighbors: 6 }, &mut rng)
}

fn bench_virtual_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_path");
    group.sample_size(30);

    for &nodes in &[50usize, 200] {
        // Cache hit: the pair has been resolved once; every further query
        // is a hash lookup plus an Arc clone.
        group.bench_with_input(BenchmarkId::new("hit", nodes), &nodes, |b, &nodes| {
            let mut overlay = built_overlay(nodes);
            let (from, to) = (OverlayNodeId(0), OverlayNodeId(nodes as u32 - 1));
            overlay.virtual_path(from, to);
            b.iter(|| overlay.virtual_path(from, to));
        });
    }

    // Node churn under a warm memo, the unit a fault scenario pays per
    // recovery: every source has a tree, one node fails and returns,
    // then 64 warm pairs are looked up again. Trees and memo entries the
    // node never touched must still answer.
    group.bench_function(BenchmarkId::new("fail_recover_lookup", 400), |b| {
        let mut overlay = built_overlay(400);
        for a in 0..400u32 {
            overlay.virtual_path(OverlayNodeId(a), OverlayNodeId((a + 1) % 400));
        }
        let pairs: Vec<(OverlayNodeId, OverlayNodeId)> =
            (0..64u32).map(|i| (OverlayNodeId(i * 5 % 400), OverlayNodeId((i * 37 + 11) % 400))).collect();
        for &(from, to) in &pairs {
            overlay.virtual_path(from, to);
        }
        let mut victim = 0u32;
        b.iter(|| {
            victim = (victim + 7) % 400;
            overlay.set_node_down(OverlayNodeId(victim), true);
            overlay.set_node_down(OverlayNodeId(victim), false);
            pairs.iter().filter_map(|&(from, to)| overlay.virtual_path(from, to)).count()
        });
    });
    group.finish();
}

fn bench_probe_compose_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_compose_loop");
    group.sample_size(20);

    for &nodes in &[50usize, 100] {
        let mut config = ScenarioConfig::small(7);
        config.ip_nodes = (nodes * 8).max(400);
        config.stream_nodes = nodes;
        let (mut system, board, library) = build_system(&config);
        let mut generator = RequestGenerator::new(library, RequestConfig::default());
        let mut request_rng = DeterministicRng::new(13).stream("bench-probe-path");
        let (request, _) = generator.next(&mut request_rng);
        let probing = ProbingConfig::default();

        // Warm the path memo so the measured loop reflects steady-state
        // composition cost (selection, qualification, probe extension).
        probe_compose(
            &mut system,
            &board,
            &request,
            SimTime::ZERO,
            &probing,
            &mut DeterministicRng::new(17).stream("warmup"),
        );

        // One scratch for every iteration, as a composer keeps it.
        let mut scratch = ProbeScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter_batched(
                || (system.clone(), DeterministicRng::new(17).stream("probe")),
                |(mut sys, mut rng)| {
                    compose_with_mode(
                        &mut sys,
                        &board,
                        &request,
                        SimTime::ZERO,
                        &probing,
                        &mut SinglePhase,
                        &mut rng,
                        &mut scratch,
                    )
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_path, bench_probe_compose_loop);
criterion_main!(benches);
