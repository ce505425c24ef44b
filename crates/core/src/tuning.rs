//! Probing-ratio tuning (§3.4).
//!
//! ACP maintains a target composition success rate `u*(t)` with the
//! *minimal* probing ratio. The mapping α → success-rate is non-linear and
//! drifts with system conditions, so ACP profiles it on-line: when the
//! measured success rate deviates from the prediction by more than a
//! threshold δ, the tuner re-derives the mapping by **trace replay** —
//! re-running a representative recent workload at increasing probing
//! ratios (base ratio upward in fixed steps) until the success rate
//! saturates or reaches the target — and then picks the minimal ratio
//! predicted to meet the target.

/// Tuner parameters (defaults follow §3.4 and §4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Target composition success rate `u*(t)` (Fig. 8 uses 0.90).
    pub target_success: f64,
    /// Re-profiling trigger: |measured − predicted| > δ (paper: 0.02).
    pub delta: f64,
    /// Profiling starts from this ratio (paper: 0.1).
    pub base_ratio: f64,
    /// Profiling step (paper: 0.1).
    pub step: f64,
    /// Upper bound of the probing ratio (the probing-overhead limit of
    /// footnote 9).
    pub max_ratio: f64,
    /// Saturation detection: stop profiling after the success rate
    /// improves less than this across a step, twice in a row.
    pub saturation_epsilon: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            target_success: 0.90,
            delta: 0.02,
            base_ratio: 0.1,
            step: 0.1,
            max_ratio: 1.0,
            saturation_epsilon: 0.005,
        }
    }
}

/// On-line profiler/controller for the probing ratio.
#[derive(Debug, Clone)]
pub struct ProbingRatioTuner {
    config: TunerConfig,
    ratio: f64,
    predicted: Option<f64>,
    profile: Vec<(f64, f64)>,
    profiling_runs: u64,
}

impl ProbingRatioTuner {
    /// Creates a tuner starting at the base ratio with no prediction (the
    /// first sample always triggers profiling).
    pub fn new(config: TunerConfig) -> Self {
        assert!(config.target_success > 0.0 && config.target_success <= 1.0);
        assert!(config.base_ratio > 0.0 && config.base_ratio <= config.max_ratio);
        assert!(config.step > 0.0);
        ProbingRatioTuner {
            ratio: config.base_ratio,
            config,
            predicted: None,
            profile: Vec::new(),
            profiling_runs: 0,
        }
    }

    /// The probing ratio currently in force.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The most recent α → success-rate profile.
    pub fn profile(&self) -> &[(f64, f64)] {
        &self.profile
    }

    /// Number of profiling sweeps performed.
    pub fn profiling_runs(&self) -> u64 {
        self.profiling_runs
    }

    /// The tuner configuration.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Feeds one sampling-period measurement. `measured` is the success
    /// rate over the period (`None` when no requests arrived — ignored).
    /// `replay` evaluates a candidate ratio against a representative
    /// recent workload (trace replay) and returns the achieved success
    /// rate; it is only invoked when re-profiling triggers.
    ///
    /// Returns `true` when a re-profiling sweep ran.
    pub fn observe<F>(&mut self, measured: Option<f64>, mut replay: F) -> bool
    where
        F: FnMut(f64) -> f64,
    {
        let Some(measured) = measured else {
            return false;
        };
        let needs_profiling = match self.predicted {
            None => true,
            Some(predicted) => (measured - predicted).abs() > self.config.delta,
        };
        if !needs_profiling {
            return false;
        }
        self.reprofile(&mut replay);
        true
    }

    /// Runs a profiling sweep and re-selects the minimal ratio meeting the
    /// target (or the best-achieving ratio if the target is unreachable).
    fn reprofile<F>(&mut self, replay: &mut F)
    where
        F: FnMut(f64) -> f64,
    {
        self.profiling_runs += 1;
        self.profile.clear();
        let mut alpha = self.config.base_ratio;
        let mut flat_steps = 0;
        let mut prev: Option<f64> = None;
        loop {
            let success = replay(alpha).clamp(0.0, 1.0);
            self.profile.push((alpha, success));
            // "The profiling process ... gradually increases the probing
            // ratio ... until the success rate hits the saturation value."
            if success >= self.config.target_success {
                break;
            }
            if let Some(p) = prev {
                if success - p < self.config.saturation_epsilon {
                    flat_steps += 1;
                    if flat_steps >= 2 {
                        break; // saturated below target
                    }
                } else {
                    flat_steps = 0;
                }
            }
            prev = Some(success);
            // Step, keeping within the overhead limit.
            let next = alpha + self.config.step;
            if next > self.config.max_ratio + 1e-9 {
                break;
            }
            alpha = next.min(self.config.max_ratio);
        }
        // Minimal ratio predicted to meet the target, else argmax.
        let chosen = self
            .profile
            .iter()
            .find(|&&(_, s)| s >= self.config.target_success)
            .or_else(|| {
                self.profile.iter().max_by(|a, b| {
                    a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
                })
            })
            .copied()
            .expect("profile contains at least the base ratio");
        self.ratio = chosen.0;
        self.predicted = Some(chosen.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic α→success mapping: saturating curve with a knee.
    fn curve(knee: f64, ceiling: f64) -> impl Fn(f64) -> f64 {
        move |alpha: f64| (ceiling * (alpha / knee)).min(ceiling)
    }

    #[test]
    fn first_sample_triggers_profiling() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        let ran = tuner.observe(Some(0.5), curve(0.3, 1.0));
        assert!(ran);
        assert!(tuner.predicted.is_some());
        assert_eq!(tuner.profiling_runs(), 1);
    }

    #[test]
    fn picks_minimal_ratio_meeting_target() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        // success = min(1.0, α/0.3): target 0.9 reached at α = 0.27, the
        // 0.1-step grid reaches it at 0.3.
        tuner.observe(Some(0.1), curve(0.3, 1.0));
        assert!((tuner.ratio() - 0.3).abs() < 1e-9, "ratio {}", tuner.ratio());
    }

    #[test]
    fn stable_prediction_skips_profiling() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        tuner.observe(Some(0.1), curve(0.3, 1.0));
        let runs = tuner.profiling_runs();
        let predicted = tuner.predicted.unwrap();
        // measured within δ of predicted → no sweep
        let ran = tuner.observe(Some(predicted + 0.01), |_| panic!("must not replay"));
        assert!(!ran);
        assert_eq!(tuner.profiling_runs(), runs);
    }

    #[test]
    fn drift_triggers_reprofiling_and_raises_ratio() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        tuner.observe(Some(0.1), curve(0.3, 1.0));
        let before = tuner.ratio();
        // Workload surge: the same ratio now achieves much less.
        let ran = tuner.observe(Some(0.55), curve(0.6, 1.0));
        assert!(ran);
        assert!(tuner.ratio() > before, "{} should exceed {before}", tuner.ratio());
    }

    #[test]
    fn load_drop_lowers_ratio() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        tuner.observe(Some(0.1), curve(0.6, 1.0));
        let high = tuner.ratio();
        // Measured rate drifts below the prediction by more than δ
        // (conditions changed) → re-profile against the lighter workload.
        let ran = tuner.observe(Some(0.80), curve(0.2, 1.0));
        assert!(ran);
        assert!(tuner.ratio() < high);
    }

    #[test]
    fn unreachable_target_stops_at_saturation() {
        let cfg = TunerConfig { target_success: 0.95, ..TunerConfig::default() };
        let mut tuner = ProbingRatioTuner::new(cfg);
        // Ceiling 0.7 regardless of α — profiling must terminate and pick
        // the best available ratio.
        tuner.observe(Some(0.1), curve(0.2, 0.7));
        assert!(tuner.ratio() <= 1.0);
        let best = tuner.profile().iter().map(|&(_, s)| s).fold(0.0, f64::max);
        assert!((tuner.predicted.unwrap() - best).abs() < 1e-9);
        // Saturation cut the sweep short of max_ratio.
        assert!(tuner.profile().len() < 10);
    }

    #[test]
    fn profile_is_recorded_in_order() {
        let mut tuner = ProbingRatioTuner::new(TunerConfig::default());
        tuner.observe(Some(0.0), curve(0.5, 1.0));
        let profile = tuner.profile();
        assert!(!profile.is_empty());
        for pair in profile.windows(2) {
            assert!(pair[0].0 < pair[1].0, "ratios increase");
        }
        assert!((profile[0].0 - 0.1).abs() < 1e-9, "starts at base ratio");
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_config() {
        let _ = ProbingRatioTuner::new(TunerConfig { base_ratio: 0.0, ..TunerConfig::default() });
    }
}
