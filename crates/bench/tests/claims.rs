//! The paper's claims as assertions at quick scale. About its yardstick —
//! "the optimal algorithm [that] exhaustively searches all candidate
//! component compositions" (§4.1) — over several seeds: Optimal admits at
//! least what ACP admits, it finishes every search, and on one and the
//! same system state its φ is never above ACP's. And the shapes of
//! Figs. 5–7, read off the tables the figure functions themselves return
//! at seed 42: every point of a figure is one universe, so the orderings
//! hold row by row, not only in aggregate. (Seeding each cell separately,
//! as the harness did before, fails all three shape tests.)

use acp_bench::experiments::{fig5, fig6, fig7, run_point, Scale};
use acp_bench::parallel::{run_indexed, thread_count};
use acp_bench::Table;
use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{DeterministicRng, SimTime};
use acp_workload::{build_system, RequestConfig, RequestGenerator};

const SEEDS: [u64; 5] = [101, 102, 103, 104, 105];

/// How far Optimal's aggregate success may trail ACP's. Per-request
/// optimality is not aggregate dominance: each algorithm's admissions
/// shape the load its own later requests meet, so single points cross
/// (ROADMAP item 3). Recorded over these 10 runs: Optimal 0.9427, ACP
/// 0.9040 — Optimal leads by 3.9 points, so the margin is not in use; it
/// is the slack a change of seeds or scale is allowed before this fails.
const SUCCESS_MARGIN: f64 = 0.005;

/// Fig. 6(a), Optimal against ACP, at a light and a heavy quick-scale
/// rate: in aggregate Optimal composes at least what ACP does, and none
/// of its searches is cut short by the expansion cap — so the row the
/// figure labels "optimal" is the optimum.
#[test]
fn optimal_admits_at_least_what_acp_admits_and_finishes_every_search() {
    let scale = Scale::quick();
    let points: Vec<(u64, f64, AlgorithmKind)> = SEEDS
        .iter()
        .flat_map(|&seed| {
            [10.0, 30.0].into_iter().flat_map(move |rate| {
                [AlgorithmKind::Optimal, AlgorithmKind::Acp].map(|algorithm| (seed, rate, algorithm))
            })
        })
        .collect();
    let results = run_indexed(thread_count(), &points, |&(seed, rate, algorithm)| {
        run_point(&scale, seed, algorithm, rate, scale.stream_nodes)
    });

    let totals = |algorithm: AlgorithmKind| {
        let of = results.iter().filter(|r| r.algorithm == algorithm);
        let (requests, composed) =
            of.fold((0u64, 0u64), |(q, c), r| (q + r.total_requests, c + r.total_successes));
        composed as f64 / requests as f64
    };
    let (optimal, acp) = (totals(AlgorithmKind::Optimal), totals(AlgorithmKind::Acp));
    println!("aggregate success over {} seeds x 2 rates: optimal {optimal:.4}, acp {acp:.4}", SEEDS.len());
    assert!(
        optimal >= acp - SUCCESS_MARGIN,
        "Optimal composed {optimal:.4} of its requests, ACP {acp:.4}: more than {SUCCESS_MARGIN} behind"
    );
    let truncated: u64 = results.iter().map(|r| r.optimal_truncated).sum();
    assert_eq!(truncated, 0, "searches cut short by the expansion cap");
}

/// ACP approximates the optimum: whenever both compose a request on the
/// same system state, `φ_ACP ≥ φ_Optimal`, request by request. The state
/// evolves under ACP's admissions, with the oldest session closed once
/// 200 are live — loaded enough that about one in eight of the
/// requests is refused; every request is also handed to Optimal on a
/// clone. Recorded: mean φ_ACP / φ_Optimal ≈ 1.3 (printed below).
#[test]
fn acp_phi_is_never_below_optimal_phi_on_the_same_state() {
    let scale = Scale::quick();
    let (mut compared, mut ratio_sum, mut worst) = (0u32, 0.0f64, 1.0f64);
    for seed in SEEDS {
        let config = scale.base_config(seed);
        let (mut system, mut board, library) = build_system(&config);
        let mut generator = RequestGenerator::new(library, RequestConfig::default());
        let mut rng = DeterministicRng::new(seed).stream("claims");
        let mut acp = AcpComposer::new(ProbingConfig::default(), seed);
        let mut live = std::collections::VecDeque::new();
        for _ in 0..400 {
            let (request, _) = generator.next(&mut rng);
            let before = system.clone();

            let mut optimal_system = before.clone();
            let optimal_out = optimal_compose(&mut optimal_system, &request, SimTime::ZERO, &config.optimal);
            assert!(!optimal_out.truncated, "seed {seed}: request {:?} cut short", request.id);

            let acp_out = acp.compose(&mut system, &board, &request, SimTime::ZERO);
            if let Some(acp_session) = acp_out.session {
                live.push_back(acp_session);
                let optimal_session = optimal_out
                    .session
                    .unwrap_or_else(|| panic!("seed {seed}: ACP admitted {:?}, Optimal did not", request.id));
                let phi = |sys: &StreamSystem, sid| {
                    let composition = &sys.session(sid).expect("just committed").composition;
                    congestion_aggregation(&before, &request, composition)
                };
                let acp_phi = phi(&system, acp_session);
                let optimal_phi = phi(&optimal_system, optimal_session);
                assert!(
                    acp_phi >= optimal_phi * (1.0 - 1e-9),
                    "seed {seed}, request {:?}: ACP φ {acp_phi} below the optimum {optimal_phi}",
                    request.id
                );
                compared += 1;
                ratio_sum += acp_phi / optimal_phi;
                worst = worst.max(acp_phi / optimal_phi);
            }
            if live.len() > 200 {
                system.close_session(live.pop_front().expect("non-empty"));
            }
            board.refresh_nodes(&system);
            board.aggregate_links(&system);
        }
    }
    println!(
        "φ_ACP / φ_Optimal over {compared} requests both composed: mean {:.4}, worst {worst:.4}",
        ratio_sum / f64::from(compared)
    );
    assert!(compared >= 1_000, "only {compared} requests were composed by both");
}

/// A table column as numbers, top to bottom.
fn column(table: &Table, name: &str) -> Vec<f64> {
    let at = table.header.iter().position(|h| h == name).unwrap_or_else(|| panic!("no column {name}"));
    table.rows.iter().map(|row| row[at].parse().expect("numeric cell")).collect()
}

fn non_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] >= w[1])
}

/// How far apart ACP and SP — the same probing, ranked by risk or by
/// delay alone — may sit in one row, in points of success rate.
/// Recorded at quick scale, seed 42: 1.6 on Fig. 6 (rate 30), 1.9 on
/// Fig. 7 (30 nodes), ACP ahead in both.
const ACP_SP_MARGIN: f64 = 2.5;

/// Figs. 6(a)/7(a): on one universe per figure, Optimal ≥ ACP ≥ RP ≥
/// Random ≥ Static in every row, with SP beside ACP.
#[test]
fn fig6_and_fig7_order_the_algorithms_in_every_row() {
    let scale = Scale::quick();
    for [success, _] in [fig6(&scale, 42, thread_count()), fig7(&scale, 42, thread_count())] {
        let by_algo = ["optimal", "acp", "rp", "random", "static"].map(|name| column(&success, name));
        let sp = column(&success, "sp");
        for (row, label) in success.rows.iter().map(|r| &r[0]).enumerate() {
            let ranked: Vec<f64> = by_algo.iter().map(|col| col[row]).collect();
            assert!(non_increasing(&ranked), "{} row {label}: {ranked:?}", success.title);
            let gap = (ranked[1] - sp[row]).abs();
            assert!(gap <= ACP_SP_MARGIN, "{} row {label}: acp {} vs sp {}", success.title, ranked[1], sp[row]);
        }
    }
}

/// Fig. 6: every algorithm's success is non-increasing in the request
/// rate (a), and what Optimal, ACP and RP spend is non-decreasing (b).
#[test]
fn fig6_success_falls_and_overhead_rises_with_rate() {
    let [success, overhead] = fig6(&Scale::quick(), 42, thread_count());
    for algo in AlgorithmKind::ALL {
        let col = column(&success, algo.label());
        assert!(non_increasing(&col), "Fig 6(a) {}: {col:?}", algo.label());
    }
    for name in ["optimal", "acp", "rp"] {
        let col = column(&overhead, name);
        assert!(col.windows(2).all(|w| w[0] <= w[1]), "Fig 6(b) {name}: {col:?}");
    }
}

/// Fig. 5: at every α the curves are ordered by request rate (a) and by
/// QoS tier (b), and probing everything composes at least what probing
/// the least does.
#[test]
fn fig5_orders_its_curves_by_rate_and_by_tier() {
    let [by_rate, by_tier] = fig5(&Scale::quick(), 42, thread_count());
    for table in [&by_rate, &by_tier] {
        for row in &table.rows {
            let curves: Vec<f64> = row[1..].iter().map(|c| c.parse().expect("numeric cell")).collect();
            assert!(non_increasing(&curves), "{} at alpha {}: {curves:?}", table.title, row[0]);
        }
    }
    for name in &by_rate.header[1..] {
        let col = column(&by_rate, name);
        assert!(col[col.len() - 1] >= col[0], "Fig 5(a) {name}: {col:?}");
    }
}
