//! # acp-simcore
//!
//! Deterministic discrete-event simulation substrate used by the ACP
//! (Adaptive Composition Probing) stream-processing reproduction.
//!
//! The paper ("Optimal Component Composition for Scalable Stream
//! Processing", ICDCS 2005) evaluates ACP with an event-driven C++
//! simulator. This crate provides its substrate in Rust; the event loop
//! itself lives with the one model it drives, `acp_workload`'s scenario.
//!
//! * [`time`] — microsecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`queue`] — a stable event queue: events at equal timestamps pop in
//!   the order they were scheduled.
//! * [`rng`] — reproducible random-number streams derived from a single
//!   master seed.
//! * [`series`] — measurement helpers (time series, windowed counters,
//!   simple summary statistics).
//! * [`fault`] — seeded fault schedules ([`FaultPlan`]) and their replay
//!   cursor ([`FaultScheduler`]) for deterministic chaos experiments.
//!
//! # Example
//!
//! A simulation is a loop over the queue: pop the earliest event, and let
//! its handler schedule what follows.
//!
//! ```
//! use acp_simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let mut fired = 0;
//! while let Some(scheduled) = queue.pop() {
//!     fired += 1;
//!     if fired < 10 {
//!         queue.schedule(scheduled.time + SimDuration::from_secs(1), ());
//!     }
//! }
//! assert_eq!(fired, 10);
//! ```

#![forbid(unsafe_code)]

pub mod digest;
pub mod fault;
pub mod queue;
pub mod rng;
pub mod series;
pub mod time;

pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, FaultScheduler, MessageFaultConfig,
    MessageFaultInjector,
};
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::DeterministicRng;
pub use series::{Histogram, SummaryStats, TimeSeries, WindowedCounter};
pub use time::{SimDuration, SimTime};
