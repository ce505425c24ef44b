//! # acp-core
//!
//! **Adaptive Composition Probing (ACP)** — the primary contribution of
//! "Optimal Component Composition for Scalable Stream Processing"
//! (ICDCS 2005), plus every baseline its evaluation compares against.
//!
//! ACP approximates the NP-hard optimal component composition problem by
//! probing a tunable subset of candidate components per hop:
//!
//! * [`selection`] — per-hop candidate selection (§3.5): risk function
//!   `D(c_i)` and congestion function `V(c_i)` ranking under the coarse
//!   global state.
//! * [`protocol`] — the probing protocol (Fig. 3): per-hop
//!   qualification against precise local state, transient resource
//!   allocation, probe spawning, optimal composition selection by the
//!   congestion aggregation `φ(λ)`, and session setup.
//! * [`tuning`] — the self-tuning probing ratio (§3.4): on-line profiling
//!   of the α → success-rate mapping with trace replay, re-triggered when
//!   prediction error exceeds δ.
//! * [`optimal`] / [`naive`] / [`algorithms`] — the evaluation's
//!   comparison algorithms behind one [`Composer`] trait: exhaustive
//!   optimal, SP, RP, random, and static. [`Composer::compose`] is §2.2's
//!   `Find`; `Close` is `StreamSystem::close_session`.
//! * [`overhead`] — message accounting for the efficiency/scalability
//!   experiments.
//!
//! # Example
//!
//! ```
//! use acp_core::prelude::*;
//! use acp_model::prelude::*;
//! use acp_state::{GlobalStateBoard, GlobalStateConfig};
//! use acp_topology::{inet::InetConfig, overlay::{Overlay, OverlayConfig}};
//! use acp_simcore::SimTime;
//! use rand::SeedableRng;
//!
//! # fn main() {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
//! let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
//! let mut system = StreamSystem::generate(
//!     overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng);
//! let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
//!
//! let fns: Vec<FunctionId> = system.registry().ids()
//!     .filter(|&f| !system.candidates(f).is_empty()).take(3).collect();
//! let request = Request {
//!     id: RequestId(1),
//!     graph: FunctionGraph::path(fns),
//!     qos: QosRequirement::unconstrained(),
//!     base_resources: ResourceVector::new(0.5, 2.0),
//!     bandwidth_kbps: 5.0,
//!     stream_rate_kbps: 100.0,
//!     tenant: None,
//! };
//! let mut acp = AcpComposer::new(ProbingConfig::default(), 42);
//! let outcome = acp.compose(&mut system, &board, &request, SimTime::ZERO);
//! assert!(outcome.session.is_some());
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod algorithms;
pub mod naive;
pub mod optimal;
pub mod overhead;
pub mod preemption;
#[cfg(test)]
mod probe;
pub mod protocol;
pub mod repair;
pub mod selection;
pub mod tuning;
pub mod tuning_control;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::admission::AdmissionConfig;
    pub use crate::algorithms::{
        AcpComposer, AlgorithmKind, ComposeOutcome, Composer, OptimalComposer, ProbingComposer,
    };
    pub use crate::naive::BlindComposer;
    pub use crate::optimal::{optimal_compose, OptimalConfig};
    pub use crate::overhead::{centralized_update_messages_per_minute, OverheadStats};
    pub use crate::preemption::preempt_round;
    pub use crate::protocol::{FinalSelection, ProbingConfig, SetupConfig, SetupStats, TwoPhase};
    pub use crate::repair::{
        RepairAttempt, RepairFailure, RepairPlanner, RepairVerdict, MINI_REQUEST_BIT,
    };
    pub use crate::selection::{probe_quota, select_candidates_with, HopSelection, SelectionScratch};
    pub use crate::tuning::{ProbingRatioTuner, TunerConfig};
    pub use crate::tuning_control::{PiControllerConfig, PiRatioController};
}

pub use prelude::*;
