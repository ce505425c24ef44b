//! fig_scale smoke gate for `scripts/check.sh`: runs one mid-size point
//! of the memory-layout sweep (10k nodes × 50k concurrent sessions) and
//! asserts the properties the sweep exists to protect — every arrival
//! processed, ranked selection examining exactly the index rows pinned in
//! `tests/counters.rs` (under a fifth of the candidate lists), and peak
//! RSS under twice its measured value. It prints the mean commit
//! cost next to the examined fraction: commit is flat in the node count,
//! so a figure here in the tens of microseconds means a per-commit scan
//! of the node or link tables has crept back in. Beside it, the mean
//! selection cost per call and per examined index row: a look reads one
//! row and one flag (≈ 30 ns), so a figure near 75 ns means the walk is
//! chasing the node and dense tables again. Flags `--nodes`, `--sessions`
//! and `--rss-ceiling-mib` run any other row of the sweep (the paper axis
//! is 10k × 100k, 50k × 500k, 100k × 1M), where the selection check falls
//! back to "examined under half the candidates".

use acp_bench::{churn_for, peak_rss_mib, run_scale_point, ScaleConfig};

/// The default point: `(nodes, sessions)`.
const DEFAULT_POINT: (usize, usize) = (10_000, 50_000);

/// Index rows the ranked walk examines at the default point, of the rows
/// its candidate lists hold: the `fig_scale_10k_by_50k` pin.
const DEFAULT_EXAMINED: (u64, u64) = (5_323_933, 27_439_674);

/// Peak-RSS ceiling for the default point: twice the 30 MiB the
/// dense/arena layout measures there with sessions sharing their
/// templates' graphs, so a layout that doubles the footprint fails. (A
/// graph copied per session reads 40 MiB: `tests/allocs.rs` is what
/// catches that one.)
const DEFAULT_RSS_CEILING_MIB: f64 = 60.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut nodes, mut sessions) = DEFAULT_POINT;
    let mut ceiling = DEFAULT_RSS_CEILING_MIB;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--nodes" => {
                nodes = args.next().expect("--nodes needs a value").parse().expect("usize")
            }
            "--sessions" => {
                sessions = args.next().expect("--sessions needs a value").parse().expect("usize")
            }
            "--rss-ceiling-mib" => {
                ceiling =
                    args.next().expect("--rss-ceiling-mib needs a value").parse().expect("f64")
            }
            "--help" | "-h" => {
                eprintln!("usage: [--nodes N] [--sessions N] [--rss-ceiling-mib F]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let cfg = ScaleConfig { nodes, sessions, churn: churn_for(sessions), quota_target: 8, seed: 42 };
    let point = run_scale_point(&cfg);

    let total = (cfg.sessions + cfg.churn) as u64;
    assert_eq!(
        point.committed + point.rejected,
        total,
        "scale point stopped early: {} committed + {} rejected != {total} arrivals",
        point.committed,
        point.rejected,
    );
    assert!(
        point.rejected * 10 < total,
        "scale point rejected {} of {total} arrivals — the workload no longer fits",
        point.rejected,
    );
    let fraction = point.examined_fraction();
    if (nodes, sessions) == DEFAULT_POINT {
        assert_eq!(
            (point.overhead.selection_examined, point.overhead.selection_candidates),
            DEFAULT_EXAMINED,
            "the ranked walk examined a different number of index rows",
        );
    } else {
        assert!(
            fraction < 0.5,
            "ranked selection examined {:.1}% of candidates — the top-k index is not pruning",
            fraction * 100.0,
        );
    }
    let rss = peak_rss_mib();
    assert!(
        rss <= ceiling,
        "peak RSS {rss:.0} MiB over the {ceiling:.0} MiB ceiling",
    );
    println!(
        "fig_scale smoke OK: {nodes} nodes x {sessions} sessions, {:.0} session ops/s, \
         examined {:.1}% of candidates, selection {:.2} us/op = {:.1} ns/row, commit {:.2} us/op, \
         peak RSS {rss:.0} MiB (ceiling {ceiling:.0})",
        point.ops_per_sec,
        fraction * 100.0,
        point.selection_us_per_op(),
        point.selection_ns_per_row(),
        point.commit_us_per_op(),
    );
}
