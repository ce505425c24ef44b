//! QoS algebra.
//!
//! The paper models application QoS as a vector `[q1 … qm]` that is
//! *additive* and *minimum-optimal* along a composition; non-additive
//! metrics (loss rate) are made additive "using logarithm and inverse
//! transformations" (footnote 3). The evaluation uses two metrics:
//! processing/network **delay** and **loss rate**.
//!
//! [`Qos`] stores delay directly (additive) and loss in the log-survival
//! domain `-ln(1 - p)` (see [`LossRate`]), so `Qos` addition composes both
//! metrics correctly and requirement checks are simple comparisons.

use std::ops::{Add, AddAssign};

use acp_simcore::SimDuration;
use acp_topology::OverlayPath;

/// A loss probability stored in the additive log-survival domain.
///
/// For a loss probability `p ∈ [0, 1)` the stored value is `-ln(1 - p)`.
/// Composition of independent lossy stages multiplies survival
/// probabilities, i.e. *adds* log-survival values, so [`LossRate`] values
/// add when QoS vectors aggregate along a path.
///
/// # Example
///
/// ```
/// use acp_model::qos::LossRate;
/// let a = LossRate::from_probability(0.1);
/// let b = LossRate::from_probability(0.2);
/// let c = a + b;
/// // survival 0.9 * 0.8 = 0.72 → loss 0.28
/// assert!((c.probability() - 0.28).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct LossRate(f64);

impl LossRate {
    /// Zero loss.
    pub const ZERO: LossRate = LossRate(0.0);

    /// Builds from a probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1)`.
    pub fn from_probability(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1), got {p}");
        LossRate(-(1.0 - p).ln())
    }

    /// Builds from a raw log-survival value (`-ln(1-p)`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or NaN.
    pub fn from_log_survival(v: f64) -> Self {
        assert!(v >= 0.0, "log-survival value must be non-negative, got {v}");
        LossRate(v)
    }

    /// The loss probability this value represents.
    pub fn probability(self) -> f64 {
        1.0 - (-self.0).exp()
    }

    /// The raw additive (log-survival) value.
    #[inline]
    pub fn log_survival(self) -> f64 {
        self.0
    }

    /// True for exactly zero loss.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for LossRate {
    type Output = LossRate;
    #[inline]
    fn add(self, rhs: LossRate) -> LossRate {
        LossRate(self.0 + rhs.0)
    }
}

impl AddAssign for LossRate {
    fn add_assign(&mut self, rhs: LossRate) {
        self.0 += rhs.0;
    }
}

impl std::fmt::Display for LossRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}%", self.probability() * 100.0)
    }
}

/// A QoS vector: the two metrics of the paper's evaluation, both in
/// additive form.
///
/// `Qos` values aggregate along a composition with `+`; smaller is better
/// in every dimension (minimum-optimal).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Qos {
    /// Processing and/or network delay.
    pub delay: SimDuration,
    /// Loss rate (log-survival domain, additive).
    pub loss: LossRate,
}

impl Qos {
    /// The zero QoS vector (identity of aggregation).
    pub const ZERO: Qos = Qos { delay: SimDuration::ZERO, loss: LossRate::ZERO };

    /// Convenience constructor.
    pub fn new(delay: SimDuration, loss: LossRate) -> Self {
        Qos { delay, loss }
    }

    /// Delay-only QoS (zero loss).
    pub fn from_delay(delay: SimDuration) -> Self {
        Qos { delay, loss: LossRate::ZERO }
    }

    /// What a virtual link adds to a composition: the path's network
    /// delay and its composed loss, read from the additive term the path
    /// stores (`LossRate::from_probability(path.loss_rate())`, bit for
    /// bit, without the `ln`).
    #[inline]
    pub fn of_link(path: &OverlayPath) -> Self {
        Qos { delay: path.delay, loss: LossRate::from_log_survival(path.loss_log_survival()) }
    }

    /// Raises each metric to `other`'s where that is worse: the
    /// per-metric maximum, in place. (Strict comparisons, so of two
    /// equal values the one already here stays.)
    #[inline]
    pub fn raise_to(&mut self, other: Qos) {
        if other.delay > self.delay {
            self.delay = other.delay;
        }
        if other.loss > self.loss {
            self.loss = other.loss;
        }
    }

    /// True when both metrics are within `req`.
    #[inline]
    pub fn satisfies(&self, req: &QosRequirement) -> bool {
        self.delay <= req.max_delay && self.loss <= req.max_loss
    }

    /// The paper's risk ratio (Eq. 9 numerator/denominator per metric):
    /// the *maximum* over metrics of `value / requirement`. Values
    /// ≤ 1 mean the requirement is met; larger values mean violation.
    ///
    /// A zero requirement in a dimension makes that dimension's ratio
    /// `∞` unless the value is also zero.
    #[inline]
    pub fn risk_ratio(&self, req: &QosRequirement) -> f64 {
        self.risk_ratio_against(req.max_delay.as_secs_f64(), req.max_loss.log_survival())
    }

    /// [`Self::risk_ratio`] against a requirement already converted to
    /// its two divisors — `max_delay.as_secs_f64()` and
    /// `max_loss.log_survival()` — so a loop ranking many candidates
    /// for one request converts once.
    #[inline]
    pub fn risk_ratio_against(&self, max_delay_secs: f64, max_loss_log_survival: f64) -> f64 {
        let delay_ratio = ratio(self.delay.as_secs_f64(), max_delay_secs);
        let loss_ratio = ratio(self.loss.log_survival(), max_loss_log_survival);
        delay_ratio.max(loss_ratio)
    }
}

#[inline]
fn ratio(value: f64, bound: f64) -> f64 {
    if bound > 0.0 {
        value / bound
    } else if value == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

impl Add for Qos {
    type Output = Qos;
    #[inline]
    fn add(self, rhs: Qos) -> Qos {
        Qos { delay: self.delay + rhs.delay, loss: self.loss + rhs.loss }
    }
}

impl AddAssign for Qos {
    fn add_assign(&mut self, rhs: Qos) {
        self.delay += rhs.delay;
        self.loss += rhs.loss;
    }
}

impl std::iter::Sum for Qos {
    fn sum<I: Iterator<Item = Qos>>(iter: I) -> Qos {
        iter.fold(Qos::ZERO, |acc, q| acc + q)
    }
}

impl std::fmt::Display for Qos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delay={} loss={}", self.delay, self.loss)
    }
}

/// User QoS requirements `Q^req = [q1^req … qm^req]` (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosRequirement {
    /// Maximum tolerable end-to-end delay.
    pub max_delay: SimDuration,
    /// Maximum tolerable end-to-end loss.
    pub max_loss: LossRate,
}

impl QosRequirement {
    /// Convenience constructor.
    pub fn new(max_delay: SimDuration, max_loss: LossRate) -> Self {
        QosRequirement { max_delay, max_loss }
    }

    /// A requirement so loose it never binds; useful in tests and for
    /// resource-only experiments.
    pub fn unconstrained() -> Self {
        QosRequirement {
            max_delay: SimDuration::from_minutes(24 * 60),
            max_loss: LossRate::from_probability(0.999_999),
        }
    }

    /// Uniformly tightens both bounds by `factor ∈ (0, 1]` — e.g. `0.5`
    /// demands twice-as-strict QoS. Used for the paper's "high QoS" and
    /// "very high QoS" workload tiers (Fig. 5b).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn tightened(&self, factor: f64) -> QosRequirement {
        assert!(factor > 0.0 && factor <= 1.0, "tightening factor must be in (0,1]");
        QosRequirement {
            max_delay: self.max_delay.mul_f64(factor),
            max_loss: LossRate::from_log_survival(self.max_loss.log_survival() * factor),
        }
    }
}

impl std::fmt::Display for QosRequirement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delay≤{} loss≤{}", self.max_delay, self.max_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate_round_trip() {
        for p in [0.0, 0.01, 0.3, 0.9] {
            let l = LossRate::from_probability(p);
            assert!((l.probability() - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn loss_rate_composition_matches_probability_algebra() {
        let a = LossRate::from_probability(0.05);
        let b = LossRate::from_probability(0.10);
        let composed = a + b;
        let expected = 1.0 - 0.95 * 0.90;
        assert!((composed.probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_order_matches_probability_order() {
        let lo = LossRate::from_probability(0.01);
        let hi = LossRate::from_probability(0.02);
        assert!(lo < hi);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_rate_rejects_one() {
        let _ = LossRate::from_probability(1.0);
    }

    #[test]
    fn qos_addition_is_componentwise() {
        let a = Qos::new(SimDuration::from_millis(10), LossRate::from_probability(0.01));
        let b = Qos::new(SimDuration::from_millis(5), LossRate::from_probability(0.02));
        let c = a + b;
        assert_eq!(c.delay, SimDuration::from_millis(15));
        assert!((c.loss.probability() - (1.0 - 0.99 * 0.98)).abs() < 1e-12);
    }

    #[test]
    fn qos_sum_identity() {
        let qs = [Qos::from_delay(SimDuration::from_millis(1)); 3];
        let total: Qos = qs.into_iter().sum();
        assert_eq!(total.delay, SimDuration::from_millis(3));
        assert_eq!(Qos::ZERO + total, total);
    }

    #[test]
    fn satisfies_checks_both_dimensions() {
        let req = QosRequirement::new(SimDuration::from_millis(100), LossRate::from_probability(0.05));
        let ok = Qos::new(SimDuration::from_millis(90), LossRate::from_probability(0.04));
        let late = Qos::new(SimDuration::from_millis(110), LossRate::from_probability(0.01));
        let lossy = Qos::new(SimDuration::from_millis(10), LossRate::from_probability(0.06));
        assert!(ok.satisfies(&req));
        assert!(!late.satisfies(&req));
        assert!(!lossy.satisfies(&req));
    }

    #[test]
    fn risk_ratio_boundary() {
        let req = QosRequirement::new(SimDuration::from_millis(100), LossRate::from_probability(0.05));
        let exact = Qos::new(SimDuration::from_millis(100), LossRate::ZERO);
        assert!((exact.risk_ratio(&req) - 1.0).abs() < 1e-9);
        let half = Qos::new(SimDuration::from_millis(50), LossRate::ZERO);
        assert!((half.risk_ratio(&req) - 0.5).abs() < 1e-9);
        // risk ratio <= 1 iff satisfies (for positive requirements)
        assert!(half.satisfies(&req));
    }

    #[test]
    fn risk_ratio_takes_worst_metric() {
        let req = QosRequirement::new(SimDuration::from_millis(100), LossRate::from_probability(0.05));
        let q = Qos::new(SimDuration::from_millis(10), LossRate::from_probability(0.049));
        let r = q.risk_ratio(&req);
        assert!(r > 0.9 && r < 1.0, "loss should dominate: {r}");
    }

    #[test]
    fn risk_ratio_zero_requirement() {
        let req = QosRequirement::new(SimDuration::ZERO, LossRate::ZERO);
        assert_eq!(Qos::ZERO.risk_ratio(&req), 0.0);
        let q = Qos::from_delay(SimDuration::from_millis(1));
        assert_eq!(q.risk_ratio(&req), f64::INFINITY);
    }

    #[test]
    fn tightened_requirements_are_stricter() {
        let req = QosRequirement::new(SimDuration::from_millis(100), LossRate::from_probability(0.1));
        let tight = req.tightened(0.5);
        assert_eq!(tight.max_delay, SimDuration::from_millis(50));
        assert!(tight.max_loss < req.max_loss);
        let q = Qos::new(SimDuration::from_millis(80), LossRate::ZERO);
        assert!(q.satisfies(&req));
        assert!(!q.satisfies(&tight));
    }

    #[test]
    fn unconstrained_accepts_everything_reasonable() {
        let req = QosRequirement::unconstrained();
        let q = Qos::new(SimDuration::from_minutes(60), LossRate::from_probability(0.5));
        assert!(q.satisfies(&req));
    }
}
