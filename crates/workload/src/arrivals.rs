//! Request arrival processes.
//!
//! The paper drives its simulator with a request rate expressed in
//! requests per minute, constant within an experiment (Figs. 5–7) or
//! piecewise-constant over time (Fig. 8: 40 → 80 at t=50 min → 60 at
//! t=100 min). Arrivals are Poisson: exponential inter-arrival times at
//! the instantaneous rate.

use acp_simcore::{SimDuration, SimTime};
use rand::Rng;

/// A piecewise-constant request-rate schedule (requests per minute).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(start time, rate)` segments, sorted by start time; the first
    /// segment must start at zero.
    segments: Vec<(SimTime, f64)>,
}

impl RateSchedule {
    /// A constant rate for the whole run.
    ///
    /// # Panics
    ///
    /// Panics when `rate_per_min` is negative or not finite.
    pub fn constant(rate_per_min: f64) -> Self {
        Self::steps(vec![(SimTime::ZERO, rate_per_min)])
    }

    /// A piecewise-constant schedule.
    ///
    /// # Panics
    ///
    /// Panics when segments are empty, unsorted, don't start at zero, or
    /// contain negative/non-finite rates.
    pub fn steps(segments: Vec<(SimTime, f64)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(segments[0].0, SimTime::ZERO, "first segment must start at t=0");
        for pair in segments.windows(2) {
            assert!(pair[0].0 < pair[1].0, "segments must be strictly ordered");
        }
        for &(_, r) in &segments {
            assert!(r.is_finite() && r >= 0.0, "rates must be finite and non-negative");
        }
        RateSchedule { segments }
    }

    /// The paper's Fig. 8 dynamic workload: 40 req/min, surging to 80 at
    /// t = 50 min, relaxing to 60 at t = 100 min.
    pub fn figure8() -> Self {
        Self::steps(vec![
            (SimTime::ZERO, 40.0),
            (SimTime::from_minutes(50), 80.0),
            (SimTime::from_minutes(100), 60.0),
        ])
    }

    /// The instantaneous rate at `t` (requests per minute).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.segments
            .iter()
            .rev()
            .find(|&&(start, _)| start <= t)
            .map(|&(_, r)| r)
            .unwrap_or(self.segments[0].1)
    }

    /// Samples the next Poisson arrival after `now`. In a zero-rate
    /// segment nothing arrives until the next positive-rate segment, so
    /// the draw is taken from that segment's start; `None` when no
    /// positive rate follows. At a positive rate this is one exponential
    /// inter-arrival from `now`, whatever the later segments say.
    pub fn next_arrival<R: Rng + ?Sized>(&self, now: SimTime, rng: &mut R) -> Option<SimTime> {
        let (from, rate) = match self.rate_at(now) {
            rate if rate > 0.0 => (now, rate),
            _ => self.segments.iter().copied().find(|&(start, rate)| start > now && rate > 0.0)?,
        };
        // Exponential inter-arrival with mean 1/rate minutes.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let minutes = -u.ln() / rate;
        Some(from + SimDuration::from_secs_f64(minutes * 60.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_rate_everywhere() {
        let s = RateSchedule::constant(50.0);
        assert_eq!(s.rate_at(SimTime::ZERO), 50.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(1_000)), 50.0);
    }

    #[test]
    fn figure8_schedule_matches_paper() {
        let s = RateSchedule::figure8();
        assert_eq!(s.rate_at(SimTime::ZERO), 40.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(49)), 40.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(50)), 80.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(99)), 80.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(100)), 60.0);
        assert_eq!(s.rate_at(SimTime::from_minutes(150)), 60.0);
    }

    #[test]
    fn arrivals_follow_rate_statistically() {
        let s = RateSchedule::constant(60.0); // one per second on average
        let mut rng = StdRng::seed_from_u64(1);
        let mut now = SimTime::ZERO;
        let mut count = 0;
        let horizon = SimTime::from_minutes(30);
        while let Some(next) = s.next_arrival(now, &mut rng) {
            if next > horizon {
                break;
            }
            now = next;
            count += 1;
        }
        // expect ~1800 arrivals in 30 min; 10% tolerance
        assert!((1_600..=2_000).contains(&count), "got {count}");
    }

    /// A zero-rate segment yields no arrival of its own: the next one is
    /// the first of the following live segment, drawn exactly as a call
    /// at that segment's start would draw it.
    #[test]
    fn zero_rate_resumes_in_the_next_live_segment() {
        let live = SimTime::from_minutes(10);
        let s = RateSchedule::steps(vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_minutes(5), 0.0),
            (live, 5.0),
            (SimTime::from_minutes(20), 0.0),
        ]);
        let resumed = s.next_arrival(SimTime::from_minutes(1), &mut StdRng::seed_from_u64(2));
        let direct = s.next_arrival(live, &mut StdRng::seed_from_u64(2));
        assert!(resumed.is_some_and(|t| t > live));
        assert_eq!(resumed, direct);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.next_arrival(SimTime::from_minutes(25), &mut rng).is_none(), "nothing live follows");
        assert!(RateSchedule::constant(0.0).next_arrival(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn arrivals_advance_time() {
        let s = RateSchedule::constant(10.0);
        let mut rng = StdRng::seed_from_u64(3);
        let now = SimTime::from_minutes(5);
        let next = s.next_arrival(now, &mut rng).unwrap();
        assert!(next > now);
    }

    #[test]
    #[should_panic(expected = "strictly ordered")]
    fn rejects_unsorted_segments() {
        let _ = RateSchedule::steps(vec![(SimTime::ZERO, 1.0), (SimTime::ZERO, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn rejects_late_first_segment() {
        let _ = RateSchedule::steps(vec![(SimTime::from_minutes(1), 1.0)]);
    }
}
