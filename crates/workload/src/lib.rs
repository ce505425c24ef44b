//! # acp-workload
//!
//! Workload generation and end-to-end experiment scenarios for the ACP
//! reproduction:
//!
//! * [`arrivals`] — Poisson request arrivals under constant or
//!   piecewise-constant (Fig. 8) rate schedules.
//! * [`requests`] — request sampling from the 20-template library with
//!   uniform QoS/resource requirement distributions and the Fig. 5(b)
//!   QoS tiers; request traces for profiling replay.
//! * [`scenario`] — the full simulation of §4.1: topology → overlay →
//!   deployment → event-driven workload with state maintenance, sampling,
//!   and optional probing-ratio tuning. Its config (what a user writes),
//!   its result (what a run reports) and its event model (one loop over
//!   its own queue) are three files.
//! * [`streaming`] — lazy per-epoch arrival generation for the scale
//!   experiments (the workload is pulled, never materialized whole).

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod requests;
pub mod scenario;
pub mod streaming;

pub use arrivals::RateSchedule;
pub use requests::{standard_universe, QosTier, RequestConfig, RequestGenerator, RequestTrace};
pub use streaming::{Arrival, StreamingArrivals};
// The policy argument of the model's fault operators; a scenario takes it
// from its `repair` config.
pub use acp_model::prelude::RepairPolicy;
pub use scenario::{
    build_system, run_scenario, session_digest, tier_index, ChurnConfig, RepairScenarioConfig,
    ScenarioConfig, ScenarioResult, TenantPreemptionConfig, TenantSpec, TenantsConfig, TierSummary,
};
