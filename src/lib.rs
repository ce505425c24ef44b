//! # acp-stream
//!
//! A production-quality Rust reproduction of **"Optimal Component
//! Composition for Scalable Stream Processing"** (Gu, Yu, Nahrstedt —
//! ICDCS 2005): the **Adaptive Composition Probing (ACP)** algorithm, the
//! distributed stream-processing system model it runs on, and the full
//! experimental harness regenerating every figure of the paper.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`simcore`] | deterministic discrete-event simulation substrate |
//! | [`topology`] | power-law IP topology, overlay mesh, delay routing |
//! | [`model`] | QoS/resource algebra, components, function graphs, system state |
//! | [`state`] | the coarse global state board (probes read precise state from the [`model`] directly) |
//! | [`core`] | ACP protocol, probing-ratio tuning, and all baselines |
//! | [`workload`] | request generation and end-to-end experiment scenarios |
//!
//! # Quickstart
//!
//! ```
//! use acp_stream::prelude::*;
//!
//! // A laptop-scale system: 50 stream nodes over a 400-node IP graph.
//! let config = ScenarioConfig::small(7);
//! let (mut system, board, library) = build_system(&config);
//!
//! // Compose a stream application with ACP.
//! let mut generator = RequestGenerator::new(library, RequestConfig::default());
//! let mut rng = DeterministicRng::new(7).stream("quickstart");
//! let (request, _duration) = generator.next(&mut rng);
//! let mut acp = AcpComposer::new(ProbingConfig::default(), 42);
//! let outcome = acp.compose(&mut system, &board, &request, SimTime::ZERO);
//! println!("composed: {:?}", outcome.session.is_some());
//! ```

#![forbid(unsafe_code)]

pub use acp_core as core;
pub use acp_model as model;
pub use acp_simcore as simcore;
pub use acp_state as state;
pub use acp_topology as topology;
pub use acp_workload as workload;

/// Everything a downstream application typically needs.
pub mod prelude {
    pub use acp_core::prelude::*;
    pub use acp_model::prelude::*;
    pub use acp_simcore::{DeterministicRng, FaultKind, SimDuration, SimTime, TimeSeries};
    pub use acp_state::{GlobalStateBoard, GlobalStateConfig};
    pub use acp_topology::{
        inet::InetConfig,
        overlay::{Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId, OverlayPath},
        Graph, LinkProps, NodeId, RoutingTable,
    };
    pub use acp_workload::{
        build_system, run_scenario, QosTier, RateSchedule, RequestConfig, RequestGenerator,
        ScenarioConfig, ScenarioResult,
    };
}
