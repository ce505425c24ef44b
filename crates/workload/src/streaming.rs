//! Streaming (lazy) request arrival generation.
//!
//! The scale experiments drive up to a million concurrent sessions;
//! materializing every `(arrival time, request, duration)` triple up
//! front would cost gigabytes before the first session commits.
//! [`StreamingArrivals`] fuses a [`RateSchedule`] Poisson clock with a
//! [`RequestGenerator`] into a pull-based stream: each call samples
//! exactly one arrival, so the driver's working set is the *live*
//! sessions, never the whole workload. Draws come from the single RNG
//! threaded through the calls, so a streamed run consumes the identical
//! random sequence an eager loop over the same schedule and generator
//! would.

use acp_simcore::{SimDuration, SimTime};
use rand::Rng;

use crate::arrivals::RateSchedule;
use crate::requests::RequestGenerator;
use acp_model::prelude::Request;

/// One sampled arrival: when it lands, what it asks for, how long its
/// session holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Simulated arrival instant.
    pub at: SimTime,
    /// The sampled request.
    pub request: Request,
    /// Session duration (the driver schedules the close at
    /// `at + duration`).
    pub duration: SimDuration,
}

/// Lazy Poisson arrival stream over a piecewise-constant rate schedule.
///
/// The internal clock starts at `t = 0` and advances monotonically with
/// every sampled arrival; zero-rate segments are skipped (see
/// [`RateSchedule::next_arrival`]). The stream itself is unbounded
/// whenever some suffix of the schedule has positive rate — callers
/// bound it with a horizon
/// (`next_before`) or an epoch batch
/// ([`fill_epoch`](StreamingArrivals::fill_epoch)).
#[derive(Debug, Clone)]
pub struct StreamingArrivals {
    schedule: RateSchedule,
    generator: RequestGenerator,
    now: SimTime,
}

impl StreamingArrivals {
    /// Creates a stream starting at `t = 0`.
    pub fn new(schedule: RateSchedule, generator: RequestGenerator) -> Self {
        StreamingArrivals { schedule, generator, now: SimTime::ZERO }
    }

    /// The stream's current clock (the last arrival instant, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generator.generated()
    }

    /// Samples the next arrival strictly before `horizon`, advancing the
    /// clock. Returns `None` — leaving the clock and RNG untouched by any
    /// request draw — when the next arrival lands at or past the horizon
    /// or the remaining schedule is all zero-rate.
    pub(crate) fn next_before<R: Rng + ?Sized>(&mut self, horizon: SimTime, rng: &mut R) -> Option<Arrival> {
        let at = self.schedule.next_arrival(self.now, rng)?;
        if at >= horizon {
            return None;
        }
        self.now = at;
        let (request, duration) = self.generator.next(rng);
        Some(Arrival { at, request, duration })
    }

    /// Drains one epoch `[now, until)` into `out` (cleared first),
    /// returning the number of arrivals. The per-epoch buffer is the
    /// only materialized window — reusing one `Vec` across epochs keeps
    /// the streamed run allocation-flat.
    pub fn fill_epoch<R: Rng + ?Sized>(
        &mut self,
        until: SimTime,
        rng: &mut R,
        out: &mut Vec<Arrival>,
    ) -> usize {
        out.clear();
        while let Some(arrival) = self.next_before(until, rng) {
            out.push(arrival);
        }
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::{standard_universe, RequestConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(seed: u64, schedule: RateSchedule) -> (StreamingArrivals, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, library) = standard_universe(&mut rng);
        let generator = RequestGenerator::new(library, RequestConfig::default());
        (StreamingArrivals::new(schedule, generator), rng)
    }

    #[test]
    fn streamed_arrivals_are_ordered_and_bounded() {
        let (mut s, mut rng) = stream(1, RateSchedule::constant(60.0));
        let horizon = SimTime::from_minutes(10);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(a) = s.next_before(horizon, &mut rng) {
            assert!(a.at > last, "arrivals strictly advance");
            assert!(a.at < horizon);
            assert!(a.duration > SimDuration::ZERO);
            last = a.at;
            count += 1;
        }
        // ~600 expected at 60/min over 10 min.
        assert!((480..=720).contains(&count), "got {count}");
        assert_eq!(s.generated(), count as u64);
    }

    #[test]
    fn streaming_matches_eager_loop_draw_for_draw() {
        // The stream must consume the same RNG sequence as the eager
        // pattern scenario.rs uses: alternate next_arrival / generator
        // draws from one RNG.
        let schedule = RateSchedule::constant(30.0);
        let (mut s, mut rng_a) = stream(7, schedule.clone());
        let mut rng_b = StdRng::seed_from_u64(7);
        let (_, library) = standard_universe(&mut rng_b);
        let mut generator = RequestGenerator::new(library, RequestConfig::default());
        let horizon = SimTime::from_minutes(5);
        let mut now = SimTime::ZERO;
        loop {
            let streamed = s.next_before(horizon, &mut rng_a);
            let eager = match schedule.next_arrival(now, &mut rng_b) {
                Some(t) if t < horizon => {
                    now = t;
                    let (request, duration) = generator.next(&mut rng_b);
                    Some(Arrival { at: t, request, duration })
                }
                _ => None,
            };
            assert_eq!(streamed, eager);
            if streamed.is_none() {
                break;
            }
        }
    }

    #[test]
    fn zero_rate_prefix_jumps_to_first_live_segment() {
        let schedule = RateSchedule::steps(vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_minutes(10), 120.0),
        ]);
        let (mut s, mut rng) = stream(3, schedule);
        let a = s.next_before(SimTime::from_minutes(20), &mut rng).expect("live segment reached");
        assert!(a.at >= SimTime::from_minutes(10));
    }

    #[test]
    fn all_zero_schedule_ends_the_stream() {
        let (mut s, mut rng) = stream(4, RateSchedule::constant(0.0));
        assert!(s.next_before(SimTime::from_minutes(60), &mut rng).is_none());
        assert_eq!(s.generated(), 0, "no request draw on an empty stream");
    }

    #[test]
    fn fill_epoch_reuses_buffer_and_partitions_time() {
        let (mut s, mut rng) = stream(5, RateSchedule::constant(60.0));
        let mut buf = Vec::new();
        let mut total = 0;
        let mut last = SimTime::ZERO;
        for epoch in 1..=6 {
            let until = SimTime::from_minutes(epoch * 5);
            let n = s.fill_epoch(until, &mut rng, &mut buf);
            assert_eq!(n, buf.len());
            for a in &buf {
                assert!(a.at > last && a.at < until, "epoch window respected");
                last = a.at;
            }
            total += n;
        }
        // ~1800 arrivals over 30 min at 60/min.
        assert!((1_500..=2_100).contains(&total), "got {total}");
    }
}
