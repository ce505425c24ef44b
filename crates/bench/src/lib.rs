//! # acp-bench
//!
//! The benchmark harness regenerating every table and figure of the ACP
//! paper's evaluation (§4):
//!
//! * [`experiments`] — one function per figure (5–8), parameterised by a
//!   [`experiments::Scale`] (`paper` or `quick`).
//! * [`chaos`] — the chaos-soak grid: the same scenarios under seeded
//!   fault injection, with the system auditor re-checking every
//!   conservation invariant throughout (`chaos_soak` binary).
//! * [`parallel`] — the deterministic work-queue driver fanning sweep
//!   points over worker threads (`ACP_BENCH_THREADS` overrides the
//!   count); outputs are byte-identical to a sequential run.
//! * [`report`] — aligned-table rendering plus CSV/JSON export.
//!
//! Binaries `fig5`–`fig8` drive the experiments from the command line:
//!
//! ```text
//! cargo run -p acp-bench --release --bin fig6 -- --scale paper --seed 42
//! ACP_BENCH_THREADS=4 cargo run -p acp-bench --release --bin fig6 -- --scale quick
//! ```
//!
//! Criterion micro-benchmarks (composition latency per algorithm, the
//! probing round, overlay construction, candidate selection, commit and
//! close) live under `benches/`. `tests/counters.rs` and
//! `tests/allocs.rs` pin what a seeded run costs in counts — messages,
//! memo lookups, rows examined, leases, allocations — exactly; wall-clock
//! is the repo benchmark's (`benchmark/`).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod experiments;
pub mod parallel;
pub mod repair;
pub mod report;
pub mod scale;
pub mod tenants;

pub use ablation::{ablation_bcp, ablation_risk_epsilon, ablation_state_threshold, ablation_tuning};
pub use chaos::{
    chaos_grid, chaos_grid_tenanted, chaos_grid_threads, chaos_table, loss_config, loss_grid,
    loss_grid_tenanted, loss_grid_threads, loss_table, soak, soak_tenanted, ChaosCell, LossCell,
    CHURN_LEVELS, PROBE_LOSS_LEVELS,
};
pub use experiments::{
    fig5, fig5_threads, fig6, fig6_threads, fig7, fig7_threads, fig8, fig8_threads, Scale,
};
pub use parallel::{run_indexed, thread_count};
pub use repair::{
    fig_repair, fig_repair_threads, repair_config, repair_table, RepairCell, REPAIR_CHURN_LEVELS,
};
pub use report::{write_results, CliArgs, Table};
pub use scale::{
    churn_for, peak_rss_mib, run_scale_point, scale_request_config, ScaleConfig, ScalePoint,
};
pub use tenants::{
    fig_tenants, fig_tenants_threads, jain_index, sweep_mix, tenants_config, tenants_table,
    TenantPoint, LOAD_LEVELS,
};
