//! Property-based tests for the topology substrate.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use acp_simcore::SimDuration;
use acp_topology::{
    Graph, InetConfig, LinkProps, NodeId, Overlay, OverlayConfig, OverlayNodeId, OverlayPath, PairHasher,
    RoutingTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::SeedableRng;

/// Builds a random connected graph from a seed.
fn random_connected_graph(seed: u64, n: usize, extra_edge_prob: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // Random spanning tree first.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(
            NodeId(i as u32),
            NodeId(j as u32),
            LinkProps::new(SimDuration::from_millis(rng.gen_range(1..50)), rng.gen_range(100.0..10_000.0), 0.0),
        );
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(NodeId(a as u32), NodeId(b as u32)) && rng.gen_bool(extra_edge_prob) {
                g.add_edge(
                    NodeId(a as u32),
                    NodeId(b as u32),
                    LinkProps::new(SimDuration::from_millis(rng.gen_range(1..50)), rng.gen_range(100.0..10_000.0), 0.0),
                );
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generator always produces a connected graph of the right size
    /// with every degree at least 1.
    #[test]
    fn inet_invariants(seed in any::<u64>(), n in 10usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = InetConfig { nodes: n, ..InetConfig::default() }.generate(&mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.is_connected());
        for node in g.nodes() {
            prop_assert!(g.degree(node) >= 1);
        }
        // Tree lower bound on edges; simple-graph upper bound.
        prop_assert!(g.edge_count() >= n - 1);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
    }

    /// Shortest-path distances satisfy the triangle inequality
    /// d(a,c) <= d(a,b) + d(b,c) and symmetry d(a,b) == d(b,a).
    #[test]
    fn routing_metric_properties(seed in any::<u64>(), n in 3usize..25) {
        let g = random_connected_graph(seed, n, 0.2);
        let mut rt = RoutingTable::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..10 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            let c = NodeId(rng.gen_range(0..n) as u32);
            let dab = rt.distance(&g, a, b).unwrap();
            let dba = rt.distance(&g, b, a).unwrap();
            let dac = rt.distance(&g, a, c).unwrap();
            let dbc = rt.distance(&g, b, c).unwrap();
            prop_assert_eq!(dab, dba);
            prop_assert!(dac <= dab + dbc);
        }
    }

    /// A routed path's reported delay equals the sum of its edge delays and
    /// never beats any single edge between the endpoints.
    #[test]
    fn path_delay_consistent(seed in any::<u64>(), n in 3usize..20) {
        let g = random_connected_graph(seed, n, 0.3);
        let mut rt = RoutingTable::new();
        for a in 0..n {
            for b in 0..n {
                let p = rt.path(&g, NodeId(a as u32), NodeId(b as u32)).unwrap();
                let sum = p.edges.iter().fold(SimDuration::ZERO, |acc, &e| acc + g.props(e).delay);
                prop_assert_eq!(p.delay, sum);
                // consecutive nodes in the path are joined by the listed edges
                for (i, &e) in p.edges.iter().enumerate() {
                    let (x, y) = g.endpoints(e);
                    let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                    prop_assert!((x, y) == (u, v) || (x, y) == (v, u));
                }
            }
        }
    }
}

/// A 60-node overlay with ties forced: every IP node is a stream node and
/// IP delays are whole milliseconds in 1..=3, so mesh links cost a few
/// milliseconds each and equal-delay routes are the norm. Few neighbours
/// per node leave cut vertices.
fn tied_overlay(seed: u64, neighbors: usize) -> Overlay {
    let mut rng = StdRng::seed_from_u64(seed);
    let ip = InetConfig { nodes: 60, delay_ms: (1, 3), ..InetConfig::default() }.generate(&mut rng);
    Overlay::build(&ip, &OverlayConfig { stream_nodes: 60, neighbors }, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential test of targeted invalidation and re-admission:
    /// under random failures, recoveries and lookups, the warm overlay
    /// answers every pair exactly as a cold overlay with the same down
    /// set — and a recovery leaves a memo that still hits.
    #[test]
    fn warm_routes_match_a_fresh_overlay_under_node_churn(seed in any::<u64>(), neighbors in 1usize..4) {
        let mut ov = tied_overlay(seed, neighbors);
        let n = ov.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let mut down: Vec<OverlayNodeId> = Vec::new();
        // Churn stays inside one neighbourhood, so that adjacent nodes
        // fail and return around each other's stale tree entries.
        let mut hot = vec![OverlayNodeId(rng.gen_range(0..n))];
        for i in 0..12 {
            let Some(&v) = hot.get(i) else { break };
            for (peer, _) in ov.neighbors(v) {
                if !hot.contains(&peer) {
                    hot.push(peer);
                }
            }
        }
        hot.truncate(12);
        // What the run exercised: recoveries that left a warm memo, and
        // up pairs a failed cut vertex separated.
        let (mut warm_recoveries, mut separated_pairs) = (0u32, 0u32);

        let check_all_pairs = |ov: &mut Overlay, down: &[OverlayNodeId], separated: &mut u32| {
            let mut fresh = tied_overlay(seed, neighbors);
            for &v in down {
                fresh.set_node_down(v, true);
            }
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (OverlayNodeId(a), OverlayNodeId(b));
                    let got = ov.virtual_path(a, b);
                    prop_assert_eq!(got.as_deref(), fresh.virtual_path(a, b).as_deref(), "{}->{} with {:?} down", a, b, down);
                    *separated += u32::from(got.is_none() && !down.contains(&a) && !down.contains(&b));
                }
            }
        };

        for step in 0..200 {
            let mut recovered = false;
            match rng.gen_range(0..4) {
                0 => {
                    let v = hot[rng.gen_range(0..hot.len())];
                    if !ov.is_node_down(v) {
                        ov.set_node_down(v, true);
                        down.push(v);
                    }
                }
                1 if !down.is_empty() => {
                    let v = down.swap_remove(rng.gen_range(0..down.len()));
                    ov.set_node_down(v, false);
                    recovered = true;
                    // The point of the change: whatever the memo kept
                    // answers the next lookup without a recomputation.
                    let kept = ov.cached_paths().map(|(pair, _)| pair).min();
                    if let Some((a, b)) = kept {
                        let hits = ov.path_cache_stats().hits;
                        ov.virtual_path(a, b);
                        prop_assert_eq!(ov.path_cache_stats().hits, hits + 1);
                        warm_recoveries += 1;
                    }
                }
                // Lookups, down endpoints included (those memoize refusals),
                // by reference: a miss exactly when the pair is new to the
                // memo, a hit otherwise — and what the reference points at
                // is the `Arc` the cloning read then hands out, as a hit.
                _ => {
                    for _ in 0..8 {
                        let (a, b) = (OverlayNodeId(rng.gen_range(0..n)), OverlayNodeId(rng.gen_range(0..n)));
                        let (before, memoized) = (ov.path_cache_stats(), ov.path_cache_len());
                        let by_ref = ov.virtual_path_ref(a, b).cloned();
                        let first = ov.path_cache_stats();
                        let inserted = (ov.path_cache_len() - memoized) as u64;
                        prop_assert_eq!((first.hits, first.misses), (before.hits + 1 - inserted, before.misses + inserted));
                        let cloned = ov.virtual_path(a, b);
                        let second = ov.path_cache_stats();
                        prop_assert_eq!((second.hits, second.misses), (first.hits + 1, first.misses));
                        prop_assert_eq!(by_ref.is_some(), cloned.is_some());
                        if let (Some(x), Some(y)) = (&by_ref, &cloned) {
                            prop_assert!(Arc::ptr_eq(x, y), "{}->{}: two reads, two paths", a, b);
                            prop_assert!(Arc::ptr_eq(x, ov.memoized_path(a, b).expect("just read")));
                        }
                    }
                }
            }
            if step % 10 == 9 || recovered {
                check_all_pairs(&mut ov, &down, &mut separated_pairs);
            }
        }
        // Every memoized path carries its loss in additive form, exactly
        // as a reader would have computed it.
        let mut lossy = 0;
        for (_, path) in ov.cached_paths() {
            let Some(path) = path else { continue };
            prop_assert_eq!(path.loss_log_survival().to_bits(), (-(1.0 - path.loss_rate()).ln()).to_bits());
            lossy += u32::from(path.loss_log_survival() > 0.0);
        }
        prop_assert!(lossy > 100, "only {} memoized paths lose anything", lossy);
        prop_assert!(warm_recoveries >= 10, "only {} recoveries kept a warm memo", warm_recoveries);
        prop_assert!(neighbors > 1 || separated_pairs > 0, "no failed cut vertex in a sparse mesh");
    }
}

/// Co-located endpoints lose nothing: `-ln(1)`, whose sign is part of the
/// bits every reader used to compute.
#[test]
fn a_colocated_path_stores_negative_zero() {
    let path = OverlayPath::colocated(OverlayNodeId(3));
    assert_eq!(path.loss_rate(), 0.0);
    assert_eq!(path.loss_log_survival().to_bits(), (-0.0f64).to_bits());
    assert_eq!(path.loss_log_survival().to_bits(), (-(1.0f64 - 0.0).ln()).to_bits());
}

#[test]
#[should_panic(expected = "loss probability")]
fn a_path_that_loses_everything_is_refused_at_construction() {
    let _ = OverlayPath::new(vec![OverlayNodeId(0), OverlayNodeId(1)], Vec::new(), SimDuration::ZERO, 1.0, 1.0);
}

/// The memo's hasher over every `(from, to)` of a 512-node id space. The
/// table picks a bucket from the low bits of the hash, so that is where
/// the keys must spread: 262 144 keys thrown uniformly into 65 536
/// buckets leave 64 336 of them occupied on average (197 808
/// collisions), a perfect spread 65 536 (196 608). A bare multiply,
/// without the fold, reaches 512.
#[test]
fn pair_hasher_spreads_the_low_bits_and_tells_direction() {
    let hasher = BuildHasherDefault::<PairHasher>::default();
    let hash = |a: u32, b: u32| hasher.hash_one((OverlayNodeId(a), OverlayNodeId(b)));
    let mut occupied = vec![false; 1 << 16];
    for a in 0..512 {
        for b in 0..512 {
            occupied[(hash(a, b) & 0xffff) as usize] = true;
            assert!(a == b || hash(a, b) != hash(b, a), "({a}, {b}) and its reverse collide");
        }
    }
    let collisions = 512 * 512 - occupied.iter().filter(|&&hit| hit).count();
    assert!(collisions <= 200_000, "{collisions} collisions in the low 16 bits");
    // The control byte comes from the top seven bits.
    let mut tags = [0u32; 128];
    for a in 0..512 {
        for b in 0..512 {
            tags[(hash(a, b) >> 57) as usize] += 1;
        }
    }
    assert!(tags.iter().all(|&count| (1_024..=4_096).contains(&count)), "top bits: {tags:?}");
}
