//! Session commit + close on synthetic overlays of growing size. A
//! commit releases the request's own transient leases first; the lease
//! directory finds them (or finds none) without walking the node and
//! link tables, so the per-pair time must be flat in the node count —
//! both with no lease live and beside other requests' live leases.

use acp_model::prelude::*;
use acp_simcore::SimTime;
use acp_topology::Overlay;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Other requests' leases held live beside the measured pair.
const FOREIGN_LEASES: usize = 64;

fn setup(nodes: usize, foreign_leases: usize) -> (StreamSystem, Request, Composition) {
    let mut rng = StdRng::seed_from_u64(17);
    let overlay = Overlay::synthetic(nodes, 2, &mut rng);
    let config = SystemConfig { components_per_node: (3, 5), ..SystemConfig::default() };
    let mut system = StreamSystem::generate(overlay, FunctionRegistry::standard(), &config, &mut rng);
    let function = system
        .registry()
        .ids()
        .find(|&f| system.candidates(f).len() > foreign_leases)
        .expect("a function with enough candidates");
    let candidates = system.candidates(function).to_vec();
    for (i, &component) in candidates[1..=foreign_leases].iter().enumerate() {
        let held = system.reserve_component_transient(
            RequestId(1_000 + i as u64),
            component,
            ResourceVector::new(0.01, 0.05),
            SimTime::from_minutes(1_000_000),
        );
        assert!(held, "foreign lease {i} must fit");
    }
    let request = Request {
        id: RequestId(1),
        graph: FunctionGraph::path(vec![function]),
        qos: QosRequirement::unconstrained(),
        base_resources: ResourceVector::new(0.01, 0.05),
        bandwidth_kbps: 1.0,
        stream_rate_kbps: 50.0,
        constraints: PlacementConstraints::none(),
        tenant: None,
    };
    let composition = Composition { assignment: vec![candidates[0]], links: Vec::new() };
    (system, request, composition)
}

fn bench_commit_close(c: &mut Criterion) {
    for (label, foreign_leases) in [("no_leases", 0), ("foreign_leases_64", FOREIGN_LEASES)] {
        let mut group = c.benchmark_group(format!("commit_close/{label}"));
        for nodes in [2_000usize, 20_000] {
            let (mut system, request, composition) = setup(nodes, foreign_leases);
            group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
                b.iter(|| {
                    let session =
                        system.commit_session(&request, composition.clone()).expect("qualified");
                    system.close_session(session)
                });
            });
            assert_eq!(system.live_lease_count(), foreign_leases, "the pair must not touch foreign leases");
        }
        group.finish();
    }
}

criterion_group!(benches, bench_commit_close);
criterion_main!(benches);
