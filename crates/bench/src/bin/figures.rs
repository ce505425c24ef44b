//! Regenerates the paper's figures and the repo's own sweeps:
//!
//! ```text
//! figures <fig5|fig6|fig7|fig8|ablation|repair|tenants|chaos|all> [--scale quick|paper] [--seed N] [--out DIR]
//! ```
//!
//! One seed is one universe: every point of every table is built from
//! `--seed`, so rows and columns differ only in what their axes name.
//! Vary `--seed` for replicates. `repair` fails unless the repair arm
//! kills fewer sessions outright than restart at every non-zero churn
//! level, with clean audits and no leaked lease; `tenants` fails on any
//! isolation violation; `chaos` (the churn grid, the probe-loss grid
//! and one long soak) fails on any audit or isolation violation, any
//! leaked lease, or a retry loop recovering under 90 % of the fault-hit
//! compositions.

use acp_bench::{
    ablation_bcp, ablation_risk_epsilon, ablation_state_threshold, ablation_tuning, chaos_grid,
    chaos_table, fig5, fig6, fig7, fig8, fig_repair, fig_tenants, loss_grid, loss_table,
    repair_table, soak, soak_table, tenants_table, thread_count, write_results, CliArgs, Scale,
    Table,
};

const FIGURES: [&str; 8] = ["fig5", "fig6", "fig7", "fig8", "ablation", "repair", "tenants", "chaos"];

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
            // Survival is a replicate claim (`claims.rs`): one universe
            // may lose it. Fewer sessions killed outright holds in each.
            for pair in cells.chunks(2) {
                let ((churn, _), repair, terminate) = (pair[0].at, &pair[0].result, &pair[1].result);
                assert!(
                    churn == 0.0 || repair.sessions_killed < terminate.sessions_killed,
                    "repair must kill fewer sessions than restart at {churn:.1}x churn: {} vs {}",
                    repair.sessions_killed,
                    terminate.sessions_killed
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
        "chaos" => {
            let (churn, loss) = (chaos_grid(scale, seed, threads, false), loss_grid(scale, seed, threads, false));
            let minutes = if scale.name == "paper" { 150 } else { 60 };
            let soaked = soak(scale, seed, 2.0, minutes);
            let tables =
                show(vec![chaos_table(scale, &churn), loss_table(scale, &loss), soak_table(scale, minutes, &soaked)]);
            for r in churn.iter().chain(&loss).map(|c| &c.result).chain([&soaked]) {
                assert_eq!(r.audit_violations, 0, "audits must pass in every chaos run");
                assert_eq!(r.tenant_violations, 0, "tenant isolation must hold in every chaos run");
                assert_eq!(r.leases_leaked, 0, "no lease may leak in any chaos run");
            }
            let recovered: u64 = loss.iter().map(|c| c.result.fault_hit_successes).sum();
            let lost: u64 = loss.iter().map(|c| c.result.setup_stats.fault_failures).sum();
            assert!(
                recovered * 10 >= (recovered + lost) * 9,
                "retry must recover at least 90% of fault-hit compositions: {recovered}/{}",
                recovered + lost
            );
            eprintln!(
                "{} grid cells and the soak audit clean, no lease leaked; {recovered}/{} fault-hit compositions recovered",
                churn.len() + loss.len(),
                recovered + lost
            );
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
