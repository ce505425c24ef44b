//! # acp-bench
//!
//! The benchmark harness regenerating every table and figure of the ACP
//! paper's evaluation (§4):
//!
//! * [`experiments`] — one function per figure (5–8), parameterised by a
//!   [`experiments::Scale`] (`paper` or `quick`), and the
//!   [`experiments::Point`] every other sweep returns: its axis values
//!   beside the run's whole `ScenarioResult`.
//! * [`chaos`] — the chaos-soak grids and the long soak: the same
//!   scenarios under seeded fault injection, with the system auditor
//!   re-checking every conservation invariant throughout (`figures chaos`).
//! * [`parallel`] — the deterministic work-queue driver fanning sweep
//!   points over worker threads (`ACP_BENCH_THREADS` overrides the
//!   count); outputs are byte-identical to a sequential run.
//! * [`report`] — aligned-table rendering plus CSV/JSON export.
//!
//! The `figures` binary drives them from the command line (one seed is
//! one universe; vary `--seed` for replicates):
//!
//! ```text
//! cargo run -p acp-bench --release --bin figures -- fig6 --scale paper --seed 42
//! ACP_BENCH_THREADS=4 cargo run -p acp-bench --release --bin figures -- all --scale quick
//! ```
//!
//! `tests/counters.rs` and `tests/allocs.rs` pin what a seeded run costs
//! in counts — messages, memo lookups, rows examined, leases,
//! allocations — exactly; wall-clock, kernel by kernel, is the repo
//! benchmark's per-layer budget (`benchmark/`).

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
pub use chaos::{chaos_grid, chaos_table, loss_grid, loss_table, soak, soak_table};
pub use experiments::{fig5, fig6, fig7, fig8, Point, Scale};
pub use parallel::thread_count;
pub use repair::{fig_repair, repair_table};
pub use report::{write_results, CliArgs, Table};
pub use scale::{churn_for, peak_rss_mib, run_scale_point, ScaleConfig};
pub use tenants::{fig_tenants, tenants_table};
