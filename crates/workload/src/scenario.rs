//! End-to-end experiment scenarios.
//!
//! [`run_scenario`] wires everything together the way the paper's
//! simulator does (§4.1): generate the IP-layer topology, select the
//! overlay, deploy components, then drive Poisson request arrivals
//! through a composition algorithm inside a discrete-event simulation —
//! with periodic local-state refresh (10 s), virtual-link aggregation
//! (10 min), success-rate sampling (5 min), transient-reservation expiry,
//! session teardown after [5, 15] minutes, and (optionally) the
//! probing-ratio tuner driven by trace replay.
//!
//! The module keeps its three concerns in three files: `config`, what a
//! user writes ([`ScenarioConfig`] and [`ScenarioConfig::validate`]);
//! `result`, what a run reports ([`ScenarioResult`] and
//! [`session_digest`]); and `model`, the event model that turns the one
//! into the other.

mod config;
mod model;
mod result;

pub use config::{
    ChurnConfig, RepairScenarioConfig, ScenarioConfig, TenantPreemptionConfig, TenantSpec, TenantsConfig,
};
pub use model::{build_system, run_scenario};
pub use result::{session_digest, tier_index, ScenarioResult, TierSummary};
