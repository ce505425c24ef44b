//! Control-theoretic probing-ratio tuning.
//!
//! The paper's conclusion proposes "applying control theory to tune the
//! probing ratio more precisely" as future work (§6, item 1). This module
//! implements that extension: a discrete-time PI controller that treats
//! the composition success rate as the process variable and the probing
//! ratio as the actuator.
//!
//! Compared to the profiling tuner ([`crate::tuning::ProbingRatioTuner`]),
//! the controller needs **no trace replay** — it reacts only to the
//! measured success rate — at the cost of slower convergence after abrupt
//! workload shifts. The `ablation` benchmark binary compares both.

/// PI controller parameters; its gains and actuator limits are the
/// constants below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiControllerConfig {
    /// Success-rate setpoint `u*(t)`.
    pub target_success: f64,
}

impl Default for PiControllerConfig {
    fn default() -> Self {
        PiControllerConfig { target_success: 0.90 }
    }
}

/// Proportional gain applied to the current error.
const KP: f64 = 0.8;
/// Integral gain applied to the accumulated error.
const KI: f64 = 0.25;
/// Actuator lower bound.
const MIN_RATIO: f64 = 0.05;
/// Actuator upper bound (the probing-overhead limit of footnote 9).
const MAX_RATIO: f64 = 1.0;
/// Starting probing ratio.
const INITIAL_RATIO: f64 = 0.1;
/// Anti-windup clamp on the absolute integral term.
const INTEGRAL_LIMIT: f64 = 0.4;

/// A discrete PI controller over the probing ratio.
///
/// # Example
///
/// ```
/// use acp_core::tuning_control::{PiControllerConfig, PiRatioController};
///
/// let mut ctrl = PiRatioController::new(PiControllerConfig::default());
/// // Success below target → the controller raises the ratio.
/// let before = ctrl.ratio();
/// ctrl.observe(Some(0.5));
/// assert!(ctrl.ratio() > before);
/// ```
#[derive(Debug, Clone)]
pub struct PiRatioController {
    config: PiControllerConfig,
    ratio: f64,
    integral: f64,
    updates: u64,
}

impl PiRatioController {
    /// Creates a controller at the initial ratio.
    ///
    /// # Panics
    ///
    /// Panics on a target outside `(0, 1]`.
    pub fn new(config: PiControllerConfig) -> Self {
        assert!(config.target_success > 0.0 && config.target_success <= 1.0);
        PiRatioController { config, ratio: INITIAL_RATIO, integral: 0.0, updates: 0 }
    }

    /// The probing ratio currently in force.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of control updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Feeds one sampling-period measurement and updates the actuator.
    /// `None` (no requests in the period) leaves the state untouched.
    /// Returns the (possibly new) ratio.
    pub fn observe(&mut self, measured: Option<f64>) -> f64 {
        let Some(measured) = measured else {
            return self.ratio;
        };
        let error = self.config.target_success - measured.clamp(0.0, 1.0);
        // Anti-windup, part 1: when the error flips sign, bleed half the
        // accumulated integral so the controller releases a saturated
        // actuator promptly instead of riding the wound-up term.
        if error * self.integral < 0.0 {
            self.integral *= 0.5;
        }
        // Anti-windup, part 2 (conditional integration): freeze the
        // integral while the actuator is saturated in the error's
        // direction.
        let saturated_high = self.ratio >= MAX_RATIO && error > 0.0;
        let saturated_low = self.ratio <= MIN_RATIO && error < 0.0;
        if !saturated_high && !saturated_low {
            self.integral = (self.integral + error).clamp(-INTEGRAL_LIMIT, INTEGRAL_LIMIT);
        }
        let delta = KP * error + KI * self.integral;
        self.ratio = (self.ratio + delta).clamp(MIN_RATIO, MAX_RATIO);
        self.updates += 1;
        self.ratio
    }

    /// Resets the integral state (e.g. on a known workload change).
    pub fn reset(&mut self) {
        self.integral = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic plant: success = min(1, ratio/knee), optionally noisy.
    fn plant(knee: f64) -> impl Fn(f64) -> f64 {
        move |ratio: f64| (ratio / knee).min(1.0)
    }

    fn run_steps(ctrl: &mut PiRatioController, plant: impl Fn(f64) -> f64, steps: usize) -> f64 {
        let mut measured = plant(ctrl.ratio());
        for _ in 0..steps {
            ctrl.observe(Some(measured));
            measured = plant(ctrl.ratio());
        }
        measured
    }

    #[test]
    fn raises_ratio_when_below_target() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        let before = ctrl.ratio();
        ctrl.observe(Some(0.4));
        assert!(ctrl.ratio() > before);
    }

    #[test]
    fn lowers_ratio_when_above_target() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        for _ in 0..3 {
            ctrl.observe(Some(0.4));
        }
        let high = ctrl.ratio();
        ctrl.observe(Some(1.0));
        assert!(ctrl.ratio() < high);
    }

    #[test]
    fn converges_to_setpoint_on_linear_plant() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        let final_success = run_steps(&mut ctrl, plant(0.5), 60);
        assert!((final_success - 0.9).abs() < 0.05, "converged to {final_success}");
        // steady-state ratio near knee * target = 0.45
        assert!((ctrl.ratio() - 0.45).abs() < 0.1, "ratio {}", ctrl.ratio());
    }

    #[test]
    fn tracks_workload_shift() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        run_steps(&mut ctrl, plant(0.3), 40);
        let calm = ctrl.ratio();
        // Surge: the knee doubles (same ratio achieves half the success).
        let final_success = run_steps(&mut ctrl, plant(0.6), 60);
        assert!(ctrl.ratio() > calm, "controller must raise the ratio after a surge");
        assert!((final_success - 0.9).abs() < 0.05);
        // Relaxation: knee shrinks back.
        run_steps(&mut ctrl, plant(0.3), 60);
        assert!(ctrl.ratio() < 0.45, "controller must release probes after relaxation");
    }

    #[test]
    fn anti_windup_bounds_integral_under_unreachable_target() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        // Plant can never exceed 0.6: actuator saturates at max_ratio.
        for _ in 0..100 {
            ctrl.observe(Some(0.6));
        }
        assert_eq!(ctrl.ratio(), 1.0, "saturated high");
        // Once the plant recovers, the controller must unwind quickly
        // (bounded integral), reaching below 0.5 within a few periods.
        let mut steps = 0;
        while ctrl.ratio() > 0.5 && steps < 12 {
            ctrl.observe(Some(1.0));
            steps += 1;
        }
        assert!(steps < 12, "windup: took too long to unwind");
    }

    #[test]
    fn missing_measurement_is_a_noop() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        ctrl.observe(Some(0.2));
        let ratio = ctrl.ratio();
        let updates = ctrl.updates();
        ctrl.observe(None);
        assert_eq!(ctrl.ratio(), ratio);
        assert_eq!(ctrl.updates(), updates);
    }

    #[test]
    fn reset_clears_integral() {
        let mut ctrl = PiRatioController::new(PiControllerConfig::default());
        for _ in 0..10 {
            ctrl.observe(Some(0.2));
        }
        ctrl.reset();
        // After reset, a measurement exactly at target leaves the ratio
        // unchanged (pure P term is zero, integral is zero).
        let ratio = ctrl.ratio();
        ctrl.observe(Some(0.9));
        assert!((ctrl.ratio() - ratio).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_a_target_outside_the_unit_interval() {
        let _ = PiRatioController::new(PiControllerConfig { target_success: 0.0 });
    }
}
