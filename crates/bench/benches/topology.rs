//! Topology substrate benchmark: overlay construction (the k-nearest
//! mesh build) at the paper's scales.

use acp_topology::{InetConfig, Overlay, OverlayConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_overlay_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let graph = InetConfig { nodes: 3_200, ..InetConfig::default() }.generate(&mut rng);
    let mut group = c.benchmark_group("overlay_build");
    group.sample_size(10);
    for &nodes in &[200usize, 400] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                Overlay::build(&graph, &OverlayConfig { stream_nodes: nodes, neighbors: 6 }, &mut rng)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overlay_build);
criterion_main!(benches);
