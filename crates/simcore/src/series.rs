//! Measurement helpers: time series, windowed counters, summary statistics.
//!
//! The paper reports *composition success rate* sampled over 5-minute
//! periods and *overhead* as messages per minute; [`WindowedCounter`] and
//! [`TimeSeries`] implement exactly those measurements.

use crate::time::{SimDuration, SimTime};

/// An append-only series of `(time, value)` samples.
///
/// # Example
///
/// ```
/// use acp_simcore::{TimeSeries, SimTime};
/// let mut s = TimeSeries::new("success_rate");
/// s.push(SimTime::from_minutes(5), 0.95);
/// s.push(SimTime::from_minutes(10), 0.90);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.last().unwrap().1, 0.90);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), samples: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous sample (series must be
    /// time-ordered).
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time >= last, "time series samples must be non-decreasing in time");
        }
        self.samples.push((time, value));
    }

    /// All samples in order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Mean of the sample values (ignoring time spacing).
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// Counts successes out of attempts within sampling windows, yielding a
/// rate per window — the paper's composition success rate
/// `u(t) = SuccessNum(t) / RequestNum(t)`.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    window: SimDuration,
    window_start: SimTime,
    successes: u64,
    attempts: u64,
}

impl WindowedCounter {
    /// Creates a counter with the given sampling window, starting at time
    /// zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "sampling window must be positive");
        WindowedCounter {
            window,
            window_start: SimTime::ZERO,
            successes: 0,
            attempts: 0,
        }
    }

    /// Records one attempt and its outcome.
    pub fn record(&mut self, success: bool) {
        self.attempts += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Closes the current window, returning `(window_end, rate)` where
    /// `rate` is successes/attempts in the window (`None` if there were no
    /// attempts). Resets window counters and advances the window start.
    pub fn roll(&mut self, now: SimTime) -> (SimTime, Option<f64>) {
        let rate = if self.attempts == 0 {
            None
        } else {
            Some(self.successes as f64 / self.attempts as f64)
        };
        self.successes = 0;
        self.attempts = 0;
        self.window_start = now;
        (now, rate)
    }

    /// The sampling window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }
}

/// Summary statistics over a set of observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation (`f64::INFINITY` when empty).
    pub min: f64,
    /// Maximum observation (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl SummaryStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SummaryStats { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Mean of the observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &SummaryStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::iter::FromIterator<f64> for SummaryStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SummaryStats::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

/// A fixed-range linear histogram with under/overflow buckets.
///
/// Used for distributional measurements (per-request probe counts,
/// composition latencies) where a mean hides the tail.
///
/// # Example
///
/// ```
/// use acp_simcore::series::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5); // buckets of width 2
/// h.add(1.0);
/// h.add(3.0);
/// h.add(42.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `buckets` equal-width
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `buckets > 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram { lo, hi, buckets: vec![0; buckets], underflow: 0, overflow: 0 }
    }

    /// Records one observation.
    pub fn add(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((v - self.lo) / width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile `q ∈ [0, 1]` from the bucket midpoints
    /// (clamps to the range edges for under/overflowed mass). `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).floor() as u64;
        let mut seen = self.underflow;
        if target < seen {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if target < seen {
                return Some(self.lo + width * (i as f64 + 0.5));
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_orders_and_means() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(2), 3.0);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.name(), "x");
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_series_rejects_backwards_time() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(2), 1.0);
        s.push(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn windowed_counter_rates() {
        let mut c = WindowedCounter::new(SimDuration::from_minutes(5));
        c.record(true);
        c.record(true);
        c.record(false);
        c.record(true);
        let (_, rate) = c.roll(SimTime::from_minutes(5));
        assert_eq!(rate, Some(0.75));
        // next window is fresh
        let (_, rate2) = c.roll(SimTime::from_minutes(10));
        assert_eq!(rate2, None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn windowed_counter_rejects_zero_window() {
        let _ = WindowedCounter::new(SimDuration::ZERO);
    }

    #[test]
    fn summary_stats_basics() {
        let s: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_stats_merge_matches_concat() {
        let a: SummaryStats = [1.0, 2.0].into_iter().collect();
        let b: SummaryStats = [3.0, 4.0].into_iter().collect();
        let mut m = a;
        m.merge(&b);
        let whole: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(m.count, whole.count);
        assert!((m.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert_eq!((m.min, m.max), (whole.min, whole.max));
    }

    #[test]
    fn empty_stats_are_none() {
        let s = SummaryStats::new();
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for v in [5.0, 15.0, 15.5, 99.9] {
            h.add(v);
        }
        h.add(-1.0);
        h.add(100.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.add((i % 10) as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((4.0..=6.0).contains(&median), "median {median}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.5, "first bucket midpoint");
        assert!(h.quantile(1.0).unwrap() >= 9.0);
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
