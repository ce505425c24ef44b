//! # acp-state
//!
//! Hierarchical state management for ACP (§3.2 of the paper):
//!
//! * [`global`] — the coarse-grain [`GlobalStateBoard`]:
//!   threshold-triggered node/component updates, periodic virtual-link
//!   aggregation by a rotating aggregation node, and message accounting
//!   for overhead experiments.
//!
//! ACP's candidate selection consults the *global* board (cheap, stale).
//! The fine-grain half of the hierarchy has no type of its own: a probe
//! visiting a node reads that node's precise state straight from
//! `acp_model::StreamSystem` (the ground truth a real node would hold
//! locally), hop by hop, and the deputy picks the final composition from
//! those probe-collected values.

#![forbid(unsafe_code)]

pub mod global;

pub use global::{CandidateIndex, GlobalStateBoard, GlobalStateConfig, IndexEntry, ScanStats};
