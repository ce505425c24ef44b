//! Regenerates the paper's figures and the repo's own sweeps:
//!
//! ```text
//! figures <fig5|fig6|fig7|fig8|ablation|repair|tenants|all> [--scale quick|paper] [--seed N] [--out DIR]
//! ```
//!
//! One seed is one universe: every point of every table is built from
//! `--seed`, so rows and columns differ only in what their axes name.
//! Vary `--seed` for replicates. `repair` fails unless the repair arm
//! dominates restart survival at every churn level with clean audits
//! and no leaked lease; `tenants` fails on any isolation violation.

use acp_bench::{
    ablation_bcp, ablation_risk_epsilon, ablation_state_threshold, ablation_tuning, fig5, fig6,
    fig7, fig8, fig_repair, fig_tenants, repair_table, tenants_table, thread_count, write_results,
    CliArgs, Scale, Table,
};

const FIGURES: [&str; 7] = ["fig5", "fig6", "fig7", "fig8", "ablation", "repair", "tenants"];

/// Prints the tables (before any assert on them can fire).
fn show(tables: Vec<Table>) -> Vec<Table> {
    for table in &tables {
        println!("{}", table.render());
    }
    tables
}

fn run(figure: &str, scale: &Scale, seed: u64, threads: usize) -> Vec<Table> {
    match figure {
        "fig5" => show(fig5(scale, seed, threads).into()),
        "fig6" => show(fig6(scale, seed, threads).into()),
        "fig7" => show(fig7(scale, seed, threads).into()),
        "fig8" => show(fig8(scale, seed, threads).into()),
        "ablation" => show(vec![
            ablation_risk_epsilon(scale, seed, threads),
            ablation_state_threshold(scale, seed, threads),
            ablation_bcp(scale, seed, threads),
            ablation_tuning(scale, seed, threads),
        ]),
        "repair" => {
            let cells = fig_repair(scale, seed, threads);
            let tables = show(vec![repair_table(scale, &cells)]);
            for cell in &cells {
                assert_eq!(cell.result.audit_violations, 0, "audits must pass at {:?}", cell.at);
                assert_eq!(cell.result.leases_leaked, 0, "no lease may leak at {:?}", cell.at);
            }
            for pair in cells.chunks(2) {
                let ((churn, _), repair, terminate) = (pair[0].at, &pair[0].result, &pair[1].result);
                assert!(
                    churn == 0.0 || repair.survival() >= terminate.survival(),
                    "repair must dominate restart survival at {churn:.1}x churn"
                );
            }
            tables
        }
        "tenants" => {
            let points = fig_tenants(scale, seed, threads);
            let tables = show(vec![tenants_table(scale, &points)]);
            let violations: u64 = points.iter().map(|p| p.result.tenant_violations).sum();
            assert_eq!(violations, 0, "tenant-isolation invariants must hold at every load level");
            tables
        }
        other => panic!("unknown figure {other}"),
    }
}

fn main() {
    let args = CliArgs::parse();
    let scale = Scale::from_name(&args.scale);
    let threads = thread_count();
    let figures = if args.figure == "all" { &FIGURES[..] } else { &[args.figure.as_str()] };
    for figure in figures {
        eprintln!("running {figure} at scale '{}' (seed {})…", scale.name, args.seed);
        let start = std::time::Instant::now();
        let tables = run(figure, &scale, args.seed, threads);
        write_results(&args.out, &format!("{figure}-{}", scale.name), &tables).expect("write results");
        eprintln!("done in {:.1}s; results under {}", start.elapsed().as_secs_f64(), args.out.display());
    }
}
