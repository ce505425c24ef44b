//! Order statistics for the benchmark's reports.

/// Sorts `values` ascending (total order; the benchmark never produces
/// NaN, and `total_cmp` keeps the sort well-defined if it ever did).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// small epsilon keeps `0.99 × 1000 = 990.0000000000001` at rank 990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile not above `wanted` that leaves at least
/// `min_beyond` samples beyond it, searched in steps of 0.1 percentile;
/// `None` when even the median does not.
///
/// A tail percentile with a handful of samples beyond it is one or two
/// outliers, not a distribution: reports use this to fall back to a
/// percentile the sample supports and to say which one they used.
pub fn supported_percentile(n: usize, wanted: f64, min_beyond: usize) -> Option<f64> {
    let mut tenths = (wanted * 1000.0).round() as i64;
    while tenths >= 500 {
        let p = tenths as f64 / 1000.0;
        if n > 0 && samples_beyond(n, p) >= min_beyond {
            return Some(p);
        }
        tenths -= 1;
    }
    None
}

/// A tail percentile together with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The `wanted` percentile of an ascending slice under the "at least ten
/// samples beyond" rule; falls back to the maximum when the sample is too
/// small to support any tail percentile at all.
pub fn tail(sorted: &[f64], wanted: f64) -> Tail {
    match supported_percentile(sorted.len(), wanted, 10) {
        Some(p) => Tail {
            p,
            value: percentile(sorted, p),
            beyond: samples_beyond(sorted.len(), p),
        },
        None => Tail {
            p: 1.0,
            value: *sorted.last().expect("non-empty"),
            beyond: 0,
        },
    }
}

/// Share of a run's slices a timed metric is read from: its calmest
/// twentieth.
pub const CALM_SHARE: f64 = 0.05;

/// Quantile `p ∈ [0, 1]` by linear interpolation between the closest
/// ranks; a lone sample stands for itself.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let j = pos.floor() as usize;
    match v.get(j + 1) {
        Some(next) => v[j] + (next - v[j]) * (pos - j as f64),
        None => v[j],
    }
}

/// A cost (time per unit of work) as the calm part of the run saw it: the
/// 5th percentile over many short slices of the timed work.
///
/// On a shared host the noise is one-sided — co-tenants only ever slow
/// the program down — and it comes in two kinds. Preemption lifts the
/// p99 of a 0.2-second slice from 0.3 ms to a 4 ms time slice; a busy
/// neighbour on the other core lifts it by a third through the shared
/// cache. Both come in phases of seconds. Ten seeded runs of
/// `scale_churn` beside two processes busy 5 seconds in 6 spread, as
/// quartile distance over median: per-slice p99 at the median of the
/// slices 160 %, at their first quartile 19 %, at their 5th percentile
/// 3 % — the first quartile sits where calm and disturbed slices meet as
/// soon as a quarter of the run is calm no longer. On a quiet box the
/// three agree within a point. The calm twentieth measures the code; the
/// median measures the neighbours too.
pub fn fast_cost(values: &[f64]) -> f64 {
    quantile(values, CALM_SHARE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1 000 samples: p99 leaves exactly 10 beyond — just supported.
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(supported_percentile(1_000, 0.99, 10), Some(0.99));
        // 999 samples: p99 leaves 9 beyond — step down to p98.9.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(supported_percentile(999, 0.99, 10), Some(0.989));
        // 100 samples: only p90 leaves ten beyond.
        assert_eq!(supported_percentile(100, 0.99, 10), Some(0.9));
        // 20 samples: the median leaves exactly ten beyond.
        assert_eq!(supported_percentile(20, 0.99, 10), Some(0.5));
        // 19 samples: nothing is supported; the report falls back to max.
        assert_eq!(supported_percentile(19, 0.99, 10), None);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(
            tail(&v, 0.99),
            Tail {
                p: 1.0,
                value: 19.0,
                beyond: 0
            }
        );
        let v: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(
            tail(&v, 0.99),
            Tail {
                p: 0.99,
                value: 1_980.0,
                beyond: 20
            }
        );
    }

    #[test]
    fn quantile_interpolates_between_closest_ranks() {
        // numpy.quantile([1..=21], [0, 0.05, 0.5, 0.95, 1]) == [1, 2, 11, 20, 21]
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 11.0);
        assert_eq!(quantile(&v, 1.0), 21.0);
        assert_eq!((fast_cost(&v), quantile(&v, 0.95)), (2.0, 20.0));
        // numpy.quantile([10, 20, 40], 0.05) == 11.0
        assert!((quantile(&[40.0, 10.0, 20.0], 0.05) - 11.0).abs() < 1e-12);
        assert_eq!(fast_cost(&[3.0]), 3.0);
    }
}
