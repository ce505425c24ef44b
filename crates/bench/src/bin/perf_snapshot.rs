//! Performance snapshot for the figure-regeneration harness.
//!
//! Times every figure sweep at the chosen scale (median of `--repeat`
//! runs, so one noisy iteration can't skew the trajectory), samples the
//! `Overlay::virtual_path` memo hit rate and the global-state board's
//! refresh-scan savings on a Fig. 6 workload, measures the two-phase
//! setup path's overhead against the plain path at zero fault rate
//! (median of alternating iterations at figure-loop scale), runs the
//! `fig_scale` memory-layout sweep (nodes × concurrent sessions, up to
//! 100k × 1M on the `paper` axis — session ops/sec, selection-index
//! sublinearity, and peak RSS per point), runs the `fig_tenants`
//! multi-tenant QoS sweep (per-tier success and Jain fairness vs
//! offered load), and writes the numbers to `BENCH_9.json` (override
//! with `--out-file`):
//!
//! ```text
//! cargo run --release -p acp-bench --bin perf_snapshot -- --scale quick
//! ACP_BENCH_THREADS=8 cargo run --release -p acp-bench --bin perf_snapshot
//! cargo run --release -p acp-bench --bin perf_snapshot -- --scale quick --scale-axis paper
//! ```
//!
//! `--scale-axis` picks the fig_scale grid independently of `--scale`
//! (`quick`, `paper`, or `none` to skip; default follows `--scale`).
//! Peak-RSS rows report the process-wide `VmHWM` high-water mark, so
//! within one snapshot only the largest (last) row's value is a clean
//! per-point reading; the rows run smallest-first for that reason.
//!
//! The parallel driver is deterministic, so the snapshot only measures
//! wall-clock — the tables themselves are identical at any thread count
//! and on every repeat.

use std::path::PathBuf;
use std::time::Instant;

use acp_bench::experiments::{
    fig5_threads, fig6_threads, fig7_threads, fig8_threads, run_point, Scale,
};
use acp_bench::report::json_string;
use acp_bench::thread_count;
use acp_bench::{churn_for, run_scale_point, scale_axis, ScaleConfig, ScalePoint};
use acp_bench::{fig_tenants_threads, TenantPoint, LOAD_LEVELS};
use acp_model::prelude::TenantTier;
use acp_core::prelude::{AlgorithmKind, SetupConfig};
use acp_simcore::MessageFaultConfig;
use acp_workload::{run_scenario, RateSchedule, ScenarioResult};

struct FigureTiming {
    name: &'static str,
    points: usize,
    wall_seconds: f64,
}

impl FigureTiming {
    fn points_per_sec(&self) -> f64 {
        self.points as f64 / self.wall_seconds.max(1e-9)
    }
}

/// Median of a sample set (average of the two middles for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Timed samples of the setup-path A/B comparison. Odd, and enough that
/// a single scheduler hiccup lands outside the median.
const SETUP_PATH_ITERS: usize = 5;

/// Scenario runs per timed sample. One anchor point is ~10ms — far too
/// short for a wall-clock delta to rise above timer noise — so each
/// sample aggregates a batch, putting the comparison at figure-loop
/// scale (a figure sweep runs dozens of such points back to back).
const SETUP_PATH_BATCH: usize = 25;

/// Fig. 8 sweeps per timed sample. The sweep is only two points, so a
/// single run finishes in ~0.14 s at quick scale — short enough that
/// scheduler noise dominated its perf-gate row. Batching puts the
/// sample in the same regime as the other figures.
const FIG8_BATCH: usize = 5;

fn main() {
    // Reuse the figure binaries' flags; `--out-file` picks the JSON path.
    let mut args = std::env::args().skip(1);
    let mut scale_name = "quick".to_string();
    let mut seed = 42u64;
    let mut repeat = 3usize;
    let mut out_file = PathBuf::from("BENCH_9.json");
    let mut scale_axis_name: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => scale_name = args.next().expect("--scale needs a value"),
            "--scale-axis" => {
                scale_axis_name = Some(args.next().expect("--scale-axis needs a value"));
            }
            "--seed" => {
                seed = args.next().expect("--seed needs a value").parse().expect("seed must be u64");
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .expect("--repeat needs a value")
                    .parse()
                    .expect("repeat must be a positive integer");
                assert!(repeat > 0, "--repeat must be positive");
            }
            "--out-file" => out_file = PathBuf::from(args.next().expect("--out-file needs a value")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--scale quick|paper] [--scale-axis quick|paper|none] [--seed N] [--repeat N] [--out-file FILE]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    let scale = Scale::from_name(&scale_name);
    let threads = thread_count();

    eprintln!("perf snapshot: scale={scale_name} seed={seed} threads={threads} repeat={repeat}");

    let mut timings = Vec::new();
    let mut time = |name: &'static str, points: usize, run: &mut dyn FnMut()| {
        let mut walls: Vec<f64> = (0..repeat)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64()
            })
            .collect();
        let wall_seconds = median(&mut walls);
        eprintln!("  {name}: {points} points in {wall_seconds:.2}s (median of {repeat})");
        timings.push(FigureTiming { name, points, wall_seconds });
    };

    let algos = AlgorithmKind::ALL.len();
    time(
        "fig5",
        scale.alphas.len() * (scale.fig5_rates.len() + acp_workload::QosTier::ALL.len()),
        &mut || {
            fig5_threads(&scale, seed, threads);
        },
    );
    time("fig6", scale.rates.len() * algos, &mut || {
        fig6_threads(&scale, seed, threads);
    });
    time("fig7", scale.node_counts.len() * algos, &mut || {
        fig7_threads(&scale, seed, threads);
    });
    time("fig8", 2 * FIG8_BATCH, &mut || {
        for _ in 0..FIG8_BATCH {
            fig8_threads(&scale, seed, threads);
        }
    });
    let mut tenant_points: Vec<TenantPoint> = Vec::new();
    time("fig_tenants", LOAD_LEVELS.len(), &mut || {
        tenant_points = fig_tenants_threads(&scale, seed, threads);
    });
    let tenant_violations: u64 = tenant_points.iter().map(|p| p.tenant_violations).sum();
    assert_eq!(tenant_violations, 0, "tenant-isolation invariants must hold in the snapshot");

    // Setup-path overhead, measured the way the figure loop actually
    // runs the composer: the same Fig. 6 anchor point, single-phase vs
    // inert two-phase, alternated for SETUP_PATH_ITERS iterations each
    // and compared at the medians. (The old single-iteration version of
    // this benchmark reported −6.54% "overhead" — pure timer noise —
    // while the figure loop lost 20%; alternating medians keep micro
    // and macro numbers on the same footing.) Results are byte-identical
    // by construction (the equivalence suite enforces it); the delta is
    // pure lease/ledger bookkeeping cost.
    let mut setup_config = scale.base_config(seed);
    setup_config.stream_nodes = scale.stream_nodes;
    setup_config.algorithm = AlgorithmKind::Acp;
    setup_config.schedule = RateSchedule::constant(scale.anchor_rate);
    setup_config.setup = Some(SetupConfig::default());
    let mut plain_walls = Vec::with_capacity(SETUP_PATH_ITERS);
    let mut two_walls = Vec::with_capacity(SETUP_PATH_ITERS);
    let mut probe_point: Option<ScenarioResult> = None;
    let mut two_phase: Option<ScenarioResult> = None;
    for _ in 0..SETUP_PATH_ITERS {
        let start = Instant::now();
        for _ in 0..SETUP_PATH_BATCH {
            let plain =
                run_point(&scale, seed, AlgorithmKind::Acp, scale.anchor_rate, scale.stream_nodes);
            probe_point = Some(plain);
        }
        plain_walls.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..SETUP_PATH_BATCH {
            let two = run_scenario(setup_config.clone());
            two_phase = Some(two);
        }
        two_walls.push(start.elapsed().as_secs_f64());
    }
    let single_wall = median(&mut plain_walls);
    let two_wall = median(&mut two_walls);
    let probe_point = probe_point.expect("at least one iteration");
    let two_phase = two_phase.expect("at least one iteration");
    let cache = probe_point.path_cache;
    let scans = probe_point.state_scans;
    let setup_overhead_pct = (two_wall - single_wall) / single_wall.max(1e-9) * 100.0;
    let lease = two_phase.lease_stats;
    let compositions = two_phase.total_requests.max(1);
    eprintln!(
        "  setup path ({SETUP_PATH_BATCH}-run batches, median of {SETUP_PATH_ITERS}): plain {:.2}s vs two-phase {:.2}s ({:+.1}%), {} leases created / {} expired / {} released / {} promoted / {} reused ({:.2} per composition), {} leaked",
        single_wall,
        two_wall,
        setup_overhead_pct,
        lease.created,
        lease.expired,
        lease.released,
        lease.promoted,
        lease.reused,
        lease.created as f64 / compositions as f64,
        two_phase.leases_leaked,
    );

    // Lossy-transport lease churn at the same point: faults actually
    // land, retries fire, and the retained-lease retry path shows up as
    // `reused` refreshes instead of release/create churn.
    let mut lossy_config = setup_config.clone();
    lossy_config.setup = Some(SetupConfig {
        faults: MessageFaultConfig {
            probe_drop: 0.10,
            confirm_loss: 0.05,
            stale_ack: 0.5,
            ..MessageFaultConfig::default()
        },
        ..SetupConfig::default()
    });
    let lossy = run_scenario(lossy_config);
    let lossy_lease = lossy.lease_stats;
    let lossy_compositions = lossy.total_requests.max(1);
    eprintln!(
        "  lossy path: {} retries over {} requests, {} leases created / {} reused ({:.2} created per composition), {} leaked",
        lossy.setup_stats.retries,
        lossy.total_requests,
        lossy_lease.created,
        lossy_lease.reused,
        lossy_lease.created as f64 / lossy_compositions as f64,
        lossy.leases_leaked,
    );
    eprintln!(
        "  fig6 path cache: {} hits / {} misses ({:.1}% hit rate)",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );
    eprintln!(
        "  fig6 board scans: nodes {}/{} ({:.1}% skipped), links {}/{} ({:.1}% skipped)",
        scans.nodes_scanned,
        scans.nodes_total,
        scans.node_skip_rate() * 100.0,
        scans.links_scanned,
        scans.links_total,
        scans.link_skip_rate() * 100.0
    );

    // fig_scale: the memory-layout sweep. Single-function sessions over a
    // synthetic overlay, ramp-then-churn to the live-session target —
    // measures the dense/arena/index hot path in isolation (session
    // ops/sec, selection sublinearity, peak RSS), not the figure loops.
    // Rows run smallest-first because VmHWM is a process-wide high-water
    // mark: only rows that push past every earlier peak read cleanly.
    let axis = scale_axis_name.unwrap_or_else(|| scale_name.clone());
    let mut scale_rows: Vec<(ScaleConfig, ScalePoint)> = Vec::new();
    if axis != "none" {
        for (nodes, sessions) in scale_axis(&axis) {
            let cfg = ScaleConfig {
                nodes,
                sessions,
                churn: churn_for(sessions),
                quota_target: 8,
                seed,
            };
            eprintln!("  fig_scale: {nodes} nodes x {sessions} sessions...");
            let point = run_scale_point(&cfg);
            eprintln!(
                "    {:.0} session ops/s, selection {:.2} us/op = {:.1} ns/row, commit {:.2} us/op, examined {:.1} of {:.0} candidates per selection ({:.2}%), peak RSS {:.0} MiB",
                point.ops_per_sec,
                point.selection_us_per_op(),
                point.selection_ns_per_row(),
                point.commit_us_per_op(),
                point.examined_per_selection(),
                point.overhead.selection_candidates as f64
                    / (point.committed + point.rejected).max(1) as f64,
                point.examined_fraction() * 100.0,
                point.peak_rss_mib,
            );
            scale_rows.push((cfg, point));
        }
    }

    let total_points: usize = timings.iter().map(|t| t.points).sum();
    let total_wall: f64 = timings.iter().map(|t| t.wall_seconds).sum();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": {},\n", json_string(&scale_name)));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"repeat\": {repeat},\n"));
    json.push_str("  \"figures\": [\n");
    for (i, t) in timings.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": {}, \"points\": {}, \"wall_seconds\": {:.3}, \"points_per_sec\": {:.3}}}{}\n",
            json_string(t.name),
            t.points,
            t.wall_seconds,
            t.points_per_sec(),
            if i + 1 < timings.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_points\": {total_points},\n"));
    json.push_str(&format!("  \"total_wall_seconds\": {total_wall:.3},\n"));
    json.push_str(&format!(
        "  \"total_points_per_sec\": {:.3},\n",
        total_points as f64 / total_wall.max(1e-9)
    ));
    json.push_str("  \"fig6_path_cache\": {\n");
    json.push_str(&format!("    \"hits\": {},\n", cache.hits));
    json.push_str(&format!("    \"misses\": {},\n", cache.misses));
    json.push_str(&format!("    \"hit_rate\": {:.4}\n", cache.hit_rate()));
    json.push_str("  },\n");
    json.push_str("  \"fig6_state_scans\": {\n");
    json.push_str(&format!("    \"nodes_scanned\": {},\n", scans.nodes_scanned));
    json.push_str(&format!("    \"nodes_total\": {},\n", scans.nodes_total));
    json.push_str(&format!("    \"node_skip_rate\": {:.4},\n", scans.node_skip_rate()));
    json.push_str(&format!("    \"links_scanned\": {},\n", scans.links_scanned));
    json.push_str(&format!("    \"links_total\": {},\n", scans.links_total));
    json.push_str(&format!("    \"link_skip_rate\": {:.4}\n", scans.link_skip_rate()));
    json.push_str("  },\n");
    json.push_str(&format!("  \"fig_scale_axis\": {},\n", json_string(&axis)));
    json.push_str("  \"fig_scale\": [\n");
    for (i, (cfg, p)) in scale_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"nodes\": {}, \"sessions\": {}, \"churn\": {}, \"components\": {}, \"committed\": {}, \"closed\": {}, \"rejected\": {}, \"live_at_end\": {}, \"wall_seconds\": {:.3}, \"ops_per_sec\": {:.3}, \"peak_rss_mib\": {:.1}, \"update_messages\": {}, \"selection_candidates\": {}, \"selection_examined\": {}, \"examined_fraction\": {:.6}, \"examined_per_selection\": {:.3}, \"selection_pruned_stale\": {}, \"selection_pruned_static\": {}, \"selection_prescreened\": {}, \"selection_scored\": {}}}{}\n",
            p.nodes,
            p.sessions,
            cfg.churn,
            p.components,
            p.committed,
            p.closed,
            p.rejected,
            p.live_at_end,
            p.wall_seconds,
            p.ops_per_sec,
            p.peak_rss_mib,
            p.update_messages,
            p.overhead.selection_candidates,
            p.overhead.selection_examined,
            p.examined_fraction(),
            p.examined_per_selection(),
            p.overhead.selection_pruned_stale,
            p.overhead.selection_pruned_static,
            p.overhead.selection_prescreened,
            p.overhead.selection_scored,
            if i + 1 < scale_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fig_tenants\": [\n");
    for (i, p) in tenant_points.iter().enumerate() {
        let shed: u64 = p.tiers.iter().map(|t| t.shed).sum();
        json.push_str(&format!(
            "    {{\"load\": {:.1}, \"rate\": {:.1}, \"gold_success\": {:.4}, \"silver_success\": {:.4}, \"best_effort_success\": {:.4}, \"jain\": {:.4}, \"shed\": {}, \"preemptions\": {}, \"tenant_violations\": {}}}{}\n",
            p.load,
            p.rate,
            p.success(TenantTier::Gold),
            p.success(TenantTier::Silver),
            p.success(TenantTier::BestEffort),
            p.jain,
            shed,
            p.preemptions,
            p.tenant_violations,
            if i + 1 < tenant_points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"setup_path\": {\n");
    json.push_str(&format!("    \"iterations\": {SETUP_PATH_ITERS},\n"));
    json.push_str(&format!("    \"batch_runs\": {SETUP_PATH_BATCH},\n"));
    json.push_str(&format!("    \"single_phase_wall_seconds\": {single_wall:.3},\n"));
    json.push_str(&format!("    \"two_phase_wall_seconds\": {two_wall:.3},\n"));
    // The Fig. 6 anchor digest of the single-phase batch: a snapshot
    // whose numbers moved because behaviour moved shows it here.
    json.push_str(&format!("    \"session_digest\": \"{:#018x}\",\n", probe_point.session_digest));
    json.push_str(&format!("    \"overhead_pct\": {setup_overhead_pct:.2},\n"));
    json.push_str(&format!("    \"compositions\": {},\n", two_phase.total_requests));
    json.push_str(&format!("    \"attempts\": {},\n", two_phase.setup_stats.attempts));
    json.push_str(&format!("    \"retries\": {},\n", two_phase.setup_stats.retries));
    json.push_str(&format!("    \"leases_created\": {},\n", lease.created));
    json.push_str(&format!("    \"leases_expired\": {},\n", lease.expired));
    json.push_str(&format!("    \"leases_released\": {},\n", lease.released));
    json.push_str(&format!("    \"leases_promoted\": {},\n", lease.promoted));
    json.push_str(&format!("    \"leases_reused\": {},\n", lease.reused));
    json.push_str(&format!(
        "    \"leases_per_composition\": {:.3},\n",
        lease.created as f64 / compositions as f64
    ));
    json.push_str(&format!("    \"leases_leaked\": {},\n", two_phase.leases_leaked));
    json.push_str("    \"lossy\": {\n");
    json.push_str(&format!("      \"requests\": {},\n", lossy.total_requests));
    json.push_str(&format!("      \"retries\": {},\n", lossy.setup_stats.retries));
    json.push_str(&format!("      \"fault_hit_requests\": {},\n", lossy.fault_hit_requests));
    json.push_str(&format!("      \"leases_created\": {},\n", lossy_lease.created));
    json.push_str(&format!("      \"leases_reused\": {},\n", lossy_lease.reused));
    json.push_str(&format!(
        "      \"leases_per_composition\": {:.3},\n",
        lossy_lease.created as f64 / lossy_compositions as f64
    ));
    json.push_str(&format!("      \"leases_leaked\": {}\n", lossy.leases_leaked));
    json.push_str("    }\n");
    json.push_str("  }\n}\n");

    std::fs::write(&out_file, &json).expect("writing the snapshot file");
    eprintln!("wrote {}", out_file.display());

    if cache.hit_rate() < 0.90 {
        eprintln!(
            "WARNING: fig6 path-cache hit rate {:.1}% below the 90% target",
            cache.hit_rate() * 100.0
        );
    }
    if setup_overhead_pct > 5.0 {
        eprintln!(
            "WARNING: two-phase setup overhead {setup_overhead_pct:.1}% above the 5% target",
        );
    }
}
