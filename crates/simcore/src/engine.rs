//! The simulation driver.
//!
//! A [`Simulation`] owns a user-supplied [`Model`] and an [`EventQueue`] and
//! advances simulated time by repeatedly popping the earliest event and
//! handing it to the model. The model may schedule further events through
//! the queue reference it receives.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Behaviour plugged into a [`Simulation`].
///
/// Implementors define the event alphabet and how the model state reacts to
/// each event. Handlers run to completion (no preemption); simulated time
/// only advances between events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Reacts to `event` occurring at simulated instant `now`.
    ///
    /// New events may be scheduled on `queue`; they must not be scheduled
    /// in the past (see [`Simulation::step`] panics).
    fn handle_event(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// A discrete-event simulation: a [`Model`] plus its pending-event queue and
/// clock.
///
/// # Example
///
/// ```
/// use acp_simcore::{Simulation, Model, EventQueue, SimTime, SimDuration};
///
/// struct Ping;
/// impl Model for Ping {
///     type Event = u32;
///     fn handle_event(&mut self, now: SimTime, n: u32, q: &mut EventQueue<u32>) {
///         if n > 0 {
///             q.schedule(now + SimDuration::from_secs(1), n - 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Ping);
/// sim.queue_mut().schedule(SimTime::ZERO, 3);
/// sim.run();
/// assert_eq!(sim.now(), SimTime::from_secs(3));
/// ```
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time (activation time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the event queue (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Processes the single earliest event. Returns `false` when the queue
    /// is empty.
    ///
    /// # Panics
    ///
    /// Panics if the earliest event is scheduled before the current time —
    /// that indicates a model scheduled an event in the past.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(scheduled) => {
                assert!(
                    scheduled.time >= self.now,
                    "event scheduled in the past: {} < {}",
                    scheduled.time,
                    self.now
                );
                self.now = scheduled.time;
                self.processed += 1;
                self.model.handle_event(self.now, scheduled.event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is exhausted or the next event would fire
    /// *after* `deadline`. Events at exactly `deadline` are processed. On
    /// return the clock reads `max(now, deadline)` so follow-up scheduling
    /// is relative to the horizon actually simulated.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

impl<M: Model + std::fmt::Debug> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle_event(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if self.respawn && ev > 0 {
                q.schedule(now + SimDuration::from_secs(1), ev - 1);
            }
        }
    }

    #[test]
    fn run_drains_queue_in_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![], respawn: false });
        sim.queue_mut().schedule(SimTime::from_secs(2), 2);
        sim.queue_mut().schedule(SimTime::from_secs(1), 1);
        sim.run();
        assert_eq!(
            sim.model().seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(Recorder { seen: vec![], respawn: true });
        sim.queue_mut().schedule(SimTime::ZERO, 3);
        sim.run();
        assert_eq!(sim.model().seen.len(), 4); // 3,2,1,0
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut sim = Simulation::new(Recorder { seen: vec![], respawn: false });
        sim.queue_mut().schedule(SimTime::from_secs(1), 1);
        sim.queue_mut().schedule(SimTime::from_secs(5), 5);
        sim.queue_mut().schedule(SimTime::from_secs(10), 10);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.model().seen.len(), 2);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // remaining event still fires later
        sim.run();
        assert_eq!(sim.model().seen.len(), 3);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = Simulation::new(Recorder { seen: vec![], respawn: false });
        sim.run_until(SimTime::from_minutes(10));
        assert_eq!(sim.now(), SimTime::from_minutes(10));
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut sim = Simulation::new(Recorder { seen: vec![], respawn: false });
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = bool;
            fn handle_event(&mut self, _now: SimTime, first: bool, q: &mut EventQueue<bool>) {
                if first {
                    q.schedule(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.queue_mut().schedule(SimTime::from_secs(5), true);
        sim.run();
    }
}
