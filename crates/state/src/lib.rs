//! # acp-state
//!
//! Hierarchical state management for ACP (§3.2 of the paper):
//!
//! * [`global`] — the coarse-grain [`GlobalStateBoard`]:
//!   threshold-triggered node/component updates, periodic virtual-link
//!   aggregation by a rotating aggregation node, and message accounting
//!   for overhead experiments.
//! * [`local`] — the fine-grain [`LocalStateView`]: a node's precise view
//!   of itself, its overlay neighbours, and its adjacent links; scope is
//!   statically enforced (precise state is never visible beyond the
//!   neighbourhood).
//!
//! ACP's candidate selection consults the *global* board (cheap, stale);
//! probes collect *local* precise state hop by hop; the deputy picks the
//! final composition from the precise probe-collected values.

#![forbid(unsafe_code)]

pub mod global;
pub mod local;

pub use global::{CandidateIndex, GlobalStateBoard, GlobalStateConfig, IndexEntry, ScanStats};
pub use local::{LocalStateView, OutOfScope};
