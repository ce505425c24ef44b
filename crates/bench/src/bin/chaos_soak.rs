//! Chaos soak: churn grid plus one long fault-injected run, with the
//! system auditor re-checking every invariant throughout.
//!
//! ```text
//! cargo run -p acp-bench --release --bin chaos_soak -- --scale quick --seed 42
//! cargo run -p acp-bench --release --bin chaos_soak -- --smoke
//! ```
//!
//! `--smoke` runs the quick-scale grids only (no long soak) and exits
//! non-zero on any audit violation — the CI gate used by
//! `scripts/check.sh`. `--assert-no-leaks` additionally fails the run
//! if any reservation lease survives a run's post-horizon reclamation
//! sweep. `--tenants` attaches the standard multi-tenant mix (admission
//! shedding, best-effort preemption, tenant-isolation audits) to every
//! cell and fails the run on any tenant-isolation violation.
//! `--repair` additionally runs the live-repair sweep (both arms per
//! churn level on identical fault plans) and fails the run if the
//! repair arm ever loses survival to the restart baseline, audits
//! dirty, or leaks a lease.

use acp_bench::{
    chaos_grid, chaos_table, fig_repair, loss_grid, loss_table, repair_table, soak, thread_count,
    write_results, Scale,
};
use acp_workload::ScenarioResult;

fn main() {
    let mut scale_name = String::from("quick");
    let mut seed: u64 = 42;
    let mut out = std::path::PathBuf::from("target/experiments");
    let mut smoke = false;
    let mut assert_no_leaks = false;
    let mut tenants = false;
    let mut repair = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => scale_name = args.next().expect("--scale needs a value"),
            "--seed" => {
                seed = args.next().expect("--seed needs a value").parse().expect("seed must be u64");
            }
            "--out" => out = std::path::PathBuf::from(args.next().expect("--out needs a value")),
            "--smoke" => smoke = true,
            "--assert-no-leaks" => assert_no_leaks = true,
            "--tenants" => tenants = true,
            "--repair" => repair = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--scale quick|paper] [--seed N] [--out DIR] [--smoke] [--assert-no-leaks] [--tenants] [--repair]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let scale = Scale::from_name(&scale_name);
    let threads = thread_count();
    eprintln!(
        "running chaos grid at scale '{}' (seed {}{})…",
        scale.name,
        seed,
        if tenants { ", tenanted" } else { "" }
    );
    let start = std::time::Instant::now();
    let cells = chaos_grid(&scale, seed, threads, tenants);
    let table = chaos_table(&scale, &cells);
    println!("{}", table.render());

    eprintln!("running probe-loss grid at scale '{}' (seed {})…", scale.name, seed);
    let loss_cells = loss_grid(&scale, seed, threads, tenants);
    let loss = loss_table(&scale, &loss_cells);
    println!("{}", loss.render());

    // What every run of the session — grid cell, repair arm or soak —
    // must keep at zero.
    let (mut violations, mut tenant_violations, mut leaks) = (0u64, 0u64, 0u64);
    let mut tally = |r: &ScenarioResult| {
        violations += r.audit_violations;
        tenant_violations += r.tenant_violations;
        leaks += r.leases_leaked;
    };
    cells.iter().chain(&loss_cells).for_each(|c| tally(&c.result));

    if repair {
        eprintln!("running repair-vs-restart sweep at scale '{}' (seed {})…", scale.name, seed);
        let repair_cells = fig_repair(&scale, seed, threads);
        repair_cells.iter().for_each(|c| tally(&c.result));
        let repair_report = repair_table(&scale, &repair_cells);
        println!("{}", repair_report.render());
        for pair in repair_cells.chunks(2) {
            let ((churn, _), r, t) = (pair[0].at, &pair[0].result, &pair[1].result);
            if churn > 0.0 && r.survival() < t.survival() {
                eprintln!(
                    "REPAIR FAILED: survival {:.3} < restart baseline {:.3} at {churn:.1}x churn",
                    r.survival(),
                    t.survival(),
                );
                std::process::exit(1);
            }
        }
    }
    let recovered: u64 = loss_cells.iter().map(|c| c.result.fault_hit_successes).sum();
    let fault_lost: u64 = loss_cells.iter().map(|c| c.result.setup_stats.fault_failures).sum();
    if !smoke {
        let minutes = if scale.name == "paper" { 150 } else { 60 };
        eprintln!("soaking {} simulated minutes at 2x churn…", minutes);
        let result = soak(&scale, seed, 2.0, minutes, tenants);
        tally(&result);
        println!(
            "soak: {} events, {} faults ({} classes), {}/{} sessions recovered, \
             {} audit violations, chaos digest {:016x}",
            result.sim_events,
            result.fault_events,
            result.fault_kinds,
            result.sessions_recovered,
            result.sessions_killed,
            result.audit_violations,
            result.chaos_digest(),
        );
        write_results(&out, &format!("chaos-{}", scale.name), &[table, loss]).expect("write results");
    }

    eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
    if violations > 0 {
        eprintln!("AUDIT FAILED: {violations} violations");
        std::process::exit(1);
    }
    if tenant_violations > 0 {
        eprintln!("TENANT ISOLATION FAILED: {} violations", tenant_violations);
        std::process::exit(1);
    }
    if recovered * 10 < (recovered + fault_lost) * 9 {
        eprintln!(
            "RECOVERY FAILED: retry recovered only {}/{} otherwise-failed compositions (< 90%)",
            recovered,
            recovered + fault_lost,
        );
        std::process::exit(1);
    }
    if assert_no_leaks && leaks > 0 {
        eprintln!("LEASE LEAK: {} leases survived the post-horizon reclamation sweep", leaks);
        std::process::exit(1);
    }
    eprintln!(
        "audit clean across {} grid cells ({} lease leaks, {}/{} fault-hit compositions recovered)",
        cells.len() + loss_cells.len(),
        leaks,
        recovered,
        recovered + fault_lost,
    );
}
