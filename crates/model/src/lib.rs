//! # acp-model
//!
//! The distributed stream-processing system model of the ACP paper
//! ("Optimal Component Composition for Scalable Stream Processing",
//! ICDCS 2005), §2:
//!
//! * [`qos`] — additive, minimum-optimal QoS algebra (delay + loss rate).
//! * [`resources`] — end-system resource vectors (CPU, memory).
//! * [`function`] — the catalogue of 80 atomic stream-processing
//!   functions with nominal cost profiles.
//! * [`fgraph`] — function graphs (paths / two-branch DAGs) and the
//!   20-template application library.
//! * [`component`] — deployed components and their interfaces.
//! * [`node`] — stream nodes with capacity, committed allocations, and
//!   transient (probe-time) reservations.
//! * [`lease`] — the transient-reservation lease ledger, the directory
//!   of where leases live, and every lease operation of the system
//!   (reserve, release, expire), each costing O(sites touched).
//! * [`request`] — composition requests `(ξ, Q^req, R^req)`.
//! * [`composition`] — component graphs `λ = (C, L)` with QoS
//!   aggregation over branch paths.
//! * [`system`] — the ground-truth [`StreamSystem`]: discovery index,
//!   allocation engine, qualification (Eqs. 2–5), session lifecycle.
//! * [`faults`] — the fault path, a second `impl StreamSystem` block:
//!   every fault operator under one [`RepairPolicy`] argument, the
//!   fault-plan replay (`apply_fault`, the partition refcount), and the
//!   degrade / splice / abandon half of live-session repair.
//! * [`metrics`] — the optimisation metrics: congestion aggregation
//!   `φ(λ)` (Eq. 1), risk `D(c_i)` (Eq. 9), congestion `V(c_i)` (Eq. 10),
//!   and the per-hop qualification predicate (Eqs. 6–8).
//! * [`audit`] — the [`SystemAuditor`](audit::SystemAuditor), re-checking
//!   the conservation invariants (Eqs. 2/4/5, dense-index and path-cache
//!   coherence) after the fact for chaos experiments.
//!
//! # Example
//!
//! ```
//! use acp_model::prelude::*;
//! use acp_topology::{inet::InetConfig, overlay::{Overlay, OverlayConfig}};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
//! let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 20, neighbors: 4 }, &mut rng);
//! let system = StreamSystem::generate(
//!     overlay,
//!     FunctionRegistry::standard(),
//!     &SystemConfig::default(),
//!     &mut rng,
//! );
//! assert_eq!(system.node_count(), 20);
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod component;
pub mod constraints;
pub mod composition;
pub mod faults;
pub mod fgraph;
pub mod function;
pub mod lease;
pub mod metrics;
pub mod node;
pub mod qos;
pub mod repair;
pub mod request;
pub mod resources;
pub mod system;
pub mod tenant;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::audit::{AuditReport, AuditViolation, SystemAuditor};
    pub use crate::component::{Component, ComponentId, DenseComponentId};
    pub use crate::constraints::{
        ComponentAttributes, LicenseClass, LicenseClassOrDefault, LicenseSet, PlacementConstraints,
        SecurityLevel,
    };
    pub use crate::composition::Composition;
    pub use crate::faults::{DegradeOutcome, FaultOutcome, StaleState};
    pub use crate::fgraph::{FunctionGraph, Template, TemplateLibrary, VertexId};
    pub use crate::function::{FunctionCategory, FunctionId, FunctionProfile, FunctionRegistry};
    pub use crate::lease::LeaseStats;
    pub use crate::metrics::{congestion_aggregation, congestion_function, is_unqualified, risk_function};
    pub use crate::node::{ReservationKey, StreamNode};
    pub use crate::qos::{LossRate, Qos, QosRequirement};
    pub use crate::repair::{RepairLedger, RepairPhase, RepairPolicy, RepairTicket};
    pub use crate::request::{Request, RequestId};
    pub use crate::resources::{ResourceKind, ResourceVector};
    pub use crate::system::{
        AdmissionError, Session, SessionId, StreamSystem, SystemConfig,
    };
    pub use crate::tenant::{
        SessionCloseCause, TenantBinding, TenantId, TenantLedger, TenantStats, TenantTier,
    };
}

pub use prelude::*;
