//! The system under test: every item of the `acp_*` library crates that
//! the benchmark calls, imported here and nowhere else.
//!
//! The benchmark drives the program only through these public items, so
//! this file *is* the API surface a later change has to keep (later
//! changes may not edit the benchmark). `grep -n "acp_" benchmark/src`
//! matches this file only.

// simcore: the event queue, simulated time, and label-derived seeds.
pub use acp_simcore::{DeterministicRng, EventQueue, SimDuration, SimTime};

// topology: the overlay and its virtual-path memo.
pub use acp_topology::{Overlay, OverlayNodeId, PathCacheStats};

// model: the stream system, its sessions, and the auditor.
pub use acp_model::prelude::{
    ComponentId, Composition, FunctionRegistry, Request, RequestId, SessionId, StreamSystem,
    SystemAuditor, SystemConfig, TemplateLibrary,
};

// state: the coarse global-state board and its candidate index.
pub use acp_state::{GlobalStateBoard, GlobalStateConfig};

// core: the composers, per-hop selection, and their ledgers.
pub use acp_core::prelude::{
    select_candidates_with, AdmissionConfig, AlgorithmKind, Composer, HopSelection, OptimalConfig,
    OverheadStats, SelectionScratch, SetupConfig, TunerConfig,
};
pub use acp_core::selection::HopContext;

// workload: request generation, arrivals, and the scenario loop.
pub use acp_workload::{
    build_system, run_scenario, session_digest, ChurnConfig, RateSchedule, RepairPolicy,
    RepairScenarioConfig, RequestConfig, RequestGenerator, ScenarioConfig, ScenarioResult,
    StreamingArrivals, TenantsConfig,
};

// The repo's offline stand-in for `rand`, which the public signatures
// above are generic over.
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
