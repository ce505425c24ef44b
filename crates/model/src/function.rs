//! Stream-processing functions.
//!
//! Each component provides one *atomic stream processing function* —
//! filtering, aggregation, correlation, audio/video analysis, … (§2.1).
//! The paper's simulator draws component functions "from 80 pre-defined
//! functions"; [`FunctionRegistry::standard`] builds the equivalent
//! catalogue, giving every function a nominal QoS and resource-demand
//! profile from which concrete component instances are sampled.

use acp_simcore::SimDuration;
use rand::Rng;

use crate::qos::{LossRate, Qos};
use crate::resources::ResourceVector;

/// Identifier of a stream-processing function (`F_i` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u16);

impl FunctionId {
    /// Index into the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Broad families of stream operators, used to give the synthetic
/// catalogue realistic heterogeneity (heavier families cost more CPU and
/// processing delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionCategory {
    /// Predicate evaluation and projection; cheap.
    Filter,
    /// Windowed aggregates (sum/avg/count).
    Aggregate,
    /// Multi-stream joins and correlation.
    Correlate,
    /// Format conversion / transcoding.
    Transcode,
    /// Audio/video/signal analysis; expensive.
    Analyze,
}

impl FunctionCategory {
    /// All categories in canonical order.
    pub const ALL: [FunctionCategory; 5] = [
        FunctionCategory::Filter,
        FunctionCategory::Aggregate,
        FunctionCategory::Correlate,
        FunctionCategory::Transcode,
        FunctionCategory::Analyze,
    ];

    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FunctionCategory::Filter => "filter",
            FunctionCategory::Aggregate => "aggregate",
            FunctionCategory::Correlate => "correlate",
            FunctionCategory::Transcode => "transcode",
            FunctionCategory::Analyze => "analyze",
        }
    }

    /// Relative computational weight of this family (1.0 = baseline).
    pub fn weight(self) -> f64 {
        match self {
            FunctionCategory::Filter => 0.5,
            FunctionCategory::Aggregate => 1.0,
            FunctionCategory::Correlate => 1.5,
            FunctionCategory::Transcode => 2.0,
            FunctionCategory::Analyze => 3.0,
        }
    }
}

/// Static profile of one function in the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// The function's identifier.
    pub id: FunctionId,
    /// Human-readable name, e.g. `analyze-03`.
    pub name: String,
    /// Operator family.
    pub category: FunctionCategory,
    /// Nominal per-item processing delay range for component instances.
    pub processing_delay: (SimDuration, SimDuration),
    /// Nominal loss-rate range for component instances (overload drops).
    pub loss_rate: (f64, f64),
    /// Resource demand multiplier applied to a request's base requirement
    /// (`R^ci` varies by function, heavier functions demand more).
    pub demand_factor: f64,
}

impl FunctionProfile {
    /// Samples the QoS of a concrete component instance of this function.
    pub(crate) fn sample_component_qos<R: Rng + ?Sized>(&self, rng: &mut R) -> Qos {
        let (lo, hi) = self.processing_delay;
        let delay = if lo == hi {
            lo
        } else {
            SimDuration::from_micros(rng.gen_range(lo.as_micros()..=hi.as_micros()))
        };
        let loss = if self.loss_rate.0 == self.loss_rate.1 {
            self.loss_rate.0
        } else {
            rng.gen_range(self.loss_rate.0..self.loss_rate.1)
        };
        Qos::new(delay, LossRate::from_probability(loss))
    }

    /// The per-component resource requirement for a request whose base
    /// requirement is `base` (`R^ci = demand_factor · base`).
    pub(crate) fn component_demand(&self, base: &ResourceVector) -> ResourceVector {
        base.scaled(self.demand_factor)
    }
}

/// The catalogue of available stream-processing functions.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionRegistry {
    profiles: Vec<FunctionProfile>,
}

impl FunctionRegistry {
    /// Builds the paper's 80-function catalogue: 16 functions in each of
    /// the five [`FunctionCategory`] families, with processing delay, loss
    /// and demand scaled by family weight.
    pub fn standard() -> Self {
        Self::with_size(80)
    }

    /// Builds a catalogue of `count` functions cycling through the
    /// families. Useful for small tests.
    ///
    /// # Panics
    ///
    /// Panics when `count == 0`.
    pub fn with_size(count: usize) -> Self {
        assert!(count > 0, "registry must contain at least one function");
        let profiles = (0..count)
            .map(|i| {
                let category = FunctionCategory::ALL[i % FunctionCategory::ALL.len()];
                let w = category.weight();
                // Base per-item processing delay 2–8 ms scaled by family
                // weight; a small deterministic stagger (±20 %) keeps
                // same-family functions from being identical.
                let stagger = 0.8 + 0.4 * ((i / FunctionCategory::ALL.len()) % 5) as f64 / 4.0;
                let lo_ms = 2.0 * w * stagger;
                let hi_ms = 8.0 * w * stagger;
                FunctionProfile {
                    id: FunctionId(i as u16),
                    name: format!("{}-{:02}", category.label(), i / FunctionCategory::ALL.len()),
                    category,
                    processing_delay: (
                        SimDuration::from_micros((lo_ms * 1_000.0) as u64),
                        SimDuration::from_micros((hi_ms * 1_000.0) as u64),
                    ),
                    loss_rate: (0.0, 0.003 * w.min(2.0)),
                    demand_factor: w * stagger,
                }
            })
            .collect();
        FunctionRegistry { profiles }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when the catalogue is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile lookup.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn profile(&self, id: FunctionId) -> &FunctionProfile {
        &self.profiles[id.index()]
    }

    /// Iterates over all profiles.
    pub fn iter(&self) -> impl Iterator<Item = &FunctionProfile> {
        self.profiles.iter()
    }

    /// Iterates over all function ids.
    pub fn ids(&self) -> impl Iterator<Item = FunctionId> + '_ {
        (0..self.profiles.len() as u16).map(FunctionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_registry_has_80_functions() {
        let reg = FunctionRegistry::standard();
        assert_eq!(reg.len(), 80);
        assert!(!reg.is_empty());
        // 16 per family
        for cat in FunctionCategory::ALL {
            let n = reg.iter().filter(|p| p.category == cat).count();
            assert_eq!(n, 16, "{cat:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let reg = FunctionRegistry::standard();
        let mut names: Vec<_> = reg.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 80);
    }

    #[test]
    fn heavier_categories_cost_more() {
        let reg = FunctionRegistry::standard();
        let filter = reg.iter().find(|p| p.category == FunctionCategory::Filter).unwrap();
        let analyze = reg.iter().find(|p| p.category == FunctionCategory::Analyze).unwrap();
        assert!(analyze.processing_delay.0 > filter.processing_delay.0);
        assert!(analyze.demand_factor > filter.demand_factor);
    }

    #[test]
    fn sampled_qos_within_profile_range() {
        let reg = FunctionRegistry::standard();
        let mut rng = StdRng::seed_from_u64(5);
        for p in reg.iter() {
            for _ in 0..10 {
                let q = p.sample_component_qos(&mut rng);
                assert!(q.delay >= p.processing_delay.0 && q.delay <= p.processing_delay.1);
                let loss = q.loss.probability();
                assert!(loss >= p.loss_rate.0 && loss <= p.loss_rate.1 + 1e-12);
            }
        }
    }

    #[test]
    fn component_demand_scales_base() {
        let reg = FunctionRegistry::standard();
        let base = ResourceVector::new(10.0, 20.0);
        let p = reg.profile(FunctionId(0));
        let demand = p.component_demand(&base);
        assert!((demand.cpu - 10.0 * p.demand_factor).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_registry() {
        let _ = FunctionRegistry::with_size(0);
    }
}
