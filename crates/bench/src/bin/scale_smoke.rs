//! fig_scale smoke gate for `scripts/check.sh`: runs one mid-size point
//! of the memory-layout sweep (10k nodes × 50k concurrent sessions) and
//! asserts the properties the sweep exists to protect — every arrival
//! processed, ranked selection measurably sublinear in the candidate
//! list, and peak RSS under a hard ceiling. It prints the mean commit
//! cost next to the examined fraction: commit is flat in the node count,
//! so a figure here in the tens of microseconds means a per-commit scan
//! of the node or link tables has crept back in. Beside it, the mean
//! selection cost per call and per examined index row: a look reads one
//! row and one flag (≈ 30 ns), so a figure near 75 ns means the walk is
//! chasing the node and dense tables again. Flags `--nodes`, `--sessions`
//! and `--rss-ceiling-mib` override the defaults.

use acp_bench::{churn_for, peak_rss_mib, run_scale_point, ScaleConfig};

/// Peak-RSS ceiling for the default 10k × 50k point. The dense/arena
/// layout lands around 40 MiB here; the ceiling is far above noise but
/// far below what a HashMap-of-structs layout at this scale costs.
const DEFAULT_RSS_CEILING_MIB: f64 = 2048.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut nodes = 10_000usize;
    let mut sessions = 50_000usize;
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
    assert!(
        fraction < 0.5,
        "ranked selection examined {:.1}% of candidates — the top-k index is not pruning",
        fraction * 100.0,
    );
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
