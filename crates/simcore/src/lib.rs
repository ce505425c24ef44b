//! # acp-simcore
//!
//! Deterministic discrete-event simulation substrate used by the ACP
//! (Adaptive Composition Probing) stream-processing reproduction.
//!
//! The paper ("Optimal Component Composition for Scalable Stream
//! Processing", ICDCS 2005) evaluates ACP with an event-driven C++
//! simulator. This crate provides the equivalent engine in Rust:
//!
//! * [`time`] — microsecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`queue`] — a stable event queue: events at equal timestamps pop in
//!   the order they were scheduled.
//! * [`engine`] — the [`Simulation`] driver looping over a user-supplied
//!   [`Model`].
//! * [`rng`] — reproducible random-number streams derived from a single
//!   master seed.
//! * [`series`] — measurement helpers (time series, windowed counters,
//!   simple summary statistics).
//! * [`fault`] — seeded fault schedules ([`FaultPlan`]) and their replay
//!   cursor ([`FaultScheduler`]) for deterministic chaos experiments.
//!
//! # Example
//!
//! ```
//! use acp_simcore::{Simulation, Model, EventQueue, SimTime, SimDuration};
//!
//! struct Counter { fired: u32 }
//!
//! impl Model for Counter {
//!     type Event = ();
//!     fn handle_event(&mut self, now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             queue.schedule(now + SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.queue_mut().schedule(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.model().fired, 10);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod queue;
pub mod rng;
pub mod series;
pub mod time;

pub use engine::{Model, Simulation};
pub use fault::{
    DetectionLatency, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, FaultScheduler,
    MessageFaultConfig, MessageFaultInjector, ReliableTransport, Transport,
};
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::DeterministicRng;
pub use series::{Histogram, SummaryStats, TimeSeries, WindowedCounter};
pub use time::{SimDuration, SimTime};
