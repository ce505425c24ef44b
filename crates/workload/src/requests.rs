//! Request generation.
//!
//! Each request samples a template uniformly from the 20-template
//! library, draws QoS and resource requirements uniformly from configured
//! ranges (§4.1), and carries a session duration uniform in [5, 15]
//! minutes. The QoS tier knob reproduces Fig. 5(b)'s "high QoS" and "very
//! high QoS" workloads ("higher QoS means shorter processing time and
//! lower loss rate requirements").

use std::collections::VecDeque;

use acp_model::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use rand::Rng;

/// QoS strictness tiers of Fig. 5(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosTier {
    /// Baseline requirements.
    Normal,
    /// Requirements tightened to 75 %.
    High,
    /// Requirements tightened to 55 %.
    VeryHigh,
}

impl QosTier {
    /// All tiers in increasing strictness.
    pub const ALL: [QosTier; 3] = [QosTier::Normal, QosTier::High, QosTier::VeryHigh];

    /// The tightening factor applied to sampled requirements.
    pub fn factor(self) -> f64 {
        match self {
            QosTier::Normal => 1.0,
            QosTier::High => 0.75,
            QosTier::VeryHigh => 0.55,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QosTier::Normal => "normal",
            QosTier::High => "high",
            QosTier::VeryHigh => "very-high",
        }
    }
}

/// Ranges from which request requirements are drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestConfig {
    /// Per-hop delay budget range (milliseconds). The end-to-end delay
    /// requirement is the sampled budget times the critical-path length
    /// of the sampled template, so long pipelines receive proportionally
    /// looser absolute bounds — keeping the workload's feasibility
    /// ceiling high while load inflation still makes tight draws hard to
    /// place (the regime where probing more candidates pays off).
    pub per_hop_delay_ms: (f64, f64),
    /// End-to-end loss-rate requirement range.
    pub max_loss: (f64, f64),
    /// QoS tier (tightens the sampled requirement).
    pub qos_tier: QosTier,
    /// Base CPU requirement range (scaled per function by its demand
    /// factor).
    pub base_cpu: (f64, f64),
    /// Base memory requirement range (MB).
    pub base_memory_mb: (f64, f64),
    /// Virtual-link bandwidth requirement range (kbit/s).
    pub bandwidth_kbps: (f64, f64),
    /// Input stream rate range (kbit/s).
    pub stream_rate_kbps: (f64, f64),
    /// Session duration range (minutes) — paper: [5, 15].
    pub session_minutes: (f64, f64),
    /// Fraction of requests carrying application-specific placement
    /// constraints (minimum security level + permissive-licence-only);
    /// the paper's future-work extension. Zero by default.
    pub constrained_fraction: f64,
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig {
            per_hop_delay_ms: (50.0, 120.0),
            max_loss: (0.04, 0.12),
            qos_tier: QosTier::Normal,
            base_cpu: (1.0, 2.2),
            base_memory_mb: (10.0, 24.0),
            bandwidth_kbps: (50.0, 200.0),
            stream_rate_kbps: (50.0, 500.0),
            session_minutes: (5.0, 15.0),
            constrained_fraction: 0.0,
        }
    }
}

/// Draws requests from a template library under a [`RequestConfig`].
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    library: TemplateLibrary,
    config: RequestConfig,
    next_id: u64,
}

impl RequestGenerator {
    /// Creates a generator over `library`.
    pub fn new(library: TemplateLibrary, config: RequestConfig) -> Self {
        RequestGenerator { library, config, next_id: 0 }
    }

    /// The template library in use.
    pub fn library(&self) -> &TemplateLibrary {
        &self.library
    }

    /// The generation parameters.
    pub fn config(&self) -> &RequestConfig {
        &self.config
    }

    /// Samples the next request plus its session duration.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (Request, SimDuration) {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let template = self.library.sample(rng);
        let critical_path = template.graph.critical_path_len() as f64;
        let delay_ms = sample(rng, self.config.per_hop_delay_ms) * critical_path;
        let loss = sample(rng, self.config.max_loss);
        let qos = QosRequirement::new(
            SimDuration::from_secs_f64(delay_ms / 1_000.0),
            LossRate::from_probability(loss),
        )
        .tightened(self.config.qos_tier.factor());
        let constraints = if self.config.constrained_fraction > 0.0
            && rng.gen_bool(self.config.constrained_fraction.clamp(0.0, 1.0))
        {
            PlacementConstraints {
                min_security: SecurityLevel::HARDENED,
                licenses: LicenseSet::of(&[LicenseClass::Permissive]),
            }
        } else {
            PlacementConstraints::none()
        };
        let request = Request {
            id,
            graph: template.graph.clone(),
            qos,
            base_resources: ResourceVector::new(
                sample(rng, self.config.base_cpu),
                sample(rng, self.config.base_memory_mb),
            ),
            bandwidth_kbps: sample(rng, self.config.bandwidth_kbps),
            stream_rate_kbps: sample(rng, self.config.stream_rate_kbps),
            constraints,
            tenant: None,
        };
        let duration = SimDuration::from_secs_f64(sample(rng, self.config.session_minutes) * 60.0);
        (request, duration)
    }

    /// Number of requests generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }
}

/// Uniform over `[lo, hi)`; a degenerate range is its one point and draws
/// nothing.
pub(crate) fn sample<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// Convenience: builds the paper's standard workload universe — an
/// 80-function registry and a 20-template library — from one RNG.
pub fn standard_universe<R: Rng + ?Sized>(rng: &mut R) -> (FunctionRegistry, TemplateLibrary) {
    let registry = FunctionRegistry::standard();
    let library = TemplateLibrary::standard(&registry, rng);
    (registry, library)
}

/// A recorded request trace for probing-ratio profiling ("trace replay of
/// actual workloads in the last sampling period", §3.4).
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    requests: VecDeque<Request>,
    capacity: usize,
}

impl RequestTrace {
    /// Creates a trace buffer holding at most `capacity` requests
    /// (`0`: unbounded).
    pub fn new(capacity: usize) -> Self {
        RequestTrace { requests: VecDeque::new(), capacity }
    }

    /// Records a request (dropping the oldest beyond capacity).
    pub fn record(&mut self, request: Request) {
        if self.requests.len() == self.capacity && self.capacity > 0 {
            self.requests.pop_front();
        }
        self.requests.push_back(request);
    }

    /// Clears the trace (called at each sampling boundary).
    pub fn clear(&mut self) {
        self.requests.clear();
    }

    /// The recorded requests, oldest first.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = &Request> {
        self.requests.iter()
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The timestamp-free clone used by replay runs, re-keyed so replayed
    /// requests never collide with live reservation keys.
    pub(crate) fn replay_requests(&self, key_offset: u64) -> Vec<Request> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                r.id = RequestId(key_offset + i as u64);
                r
            })
            .collect()
    }
}

/// `SimTime`-stamped helper mirroring the paper's sampling periods.
pub fn minutes(t: SimTime) -> f64 {
    t.as_minutes_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator(seed: u64) -> (RequestGenerator, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, library) = standard_universe(&mut rng);
        (RequestGenerator::new(library, RequestConfig::default()), rng)
    }

    #[test]
    fn requests_have_unique_increasing_ids() {
        let (mut g, mut rng) = generator(1);
        let (a, _) = g.next(&mut rng);
        let (b, _) = g.next(&mut rng);
        assert_eq!(a.id, RequestId(0));
        assert_eq!(b.id, RequestId(1));
        assert_eq!(g.generated(), 2);
    }

    #[test]
    fn sampled_values_respect_ranges() {
        let (mut g, mut rng) = generator(2);
        for _ in 0..200 {
            let (r, dur) = g.next(&mut rng);
            let delay_ms = r.qos.max_delay.as_secs_f64() * 1_000.0;
            let critical = r.graph.source_to_sink_paths().iter().map(Vec::len).max().unwrap() as f64;
            assert!(
                (50.0 * critical..120.0 * critical).contains(&delay_ms),
                "delay {delay_ms} for critical path {critical}"
            );
            assert!((1.0..2.2).contains(&r.base_resources.cpu));
            assert!((10.0..24.0).contains(&r.base_resources.memory_mb));
            assert!((50.0..200.0).contains(&r.bandwidth_kbps));
            assert!((50.0..500.0).contains(&r.stream_rate_kbps));
            let mins = dur.as_minutes_f64();
            assert!((5.0..15.0).contains(&mins), "session {mins} min");
        }
    }

    #[test]
    fn tiers_tighten_requirements() {
        let (mut g_normal, mut rng1) = generator(3);
        let (mut g_tight, mut rng2) = generator(3); // same seed → same draws
        g_tight.config.qos_tier = QosTier::VeryHigh;
        let (a, _) = g_normal.next(&mut rng1);
        let (b, _) = g_tight.next(&mut rng2);
        assert!(b.qos.max_delay < a.qos.max_delay);
        assert!(b.qos.max_loss < a.qos.max_loss);
    }

    #[test]
    fn templates_are_sampled_broadly() {
        let (mut g, mut rng) = generator(4);
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..200 {
            let (r, _) = g.next(&mut rng);
            shapes.insert(r.graph.len());
        }
        assert!(shapes.len() >= 3, "should see several template sizes: {shapes:?}");
    }

    #[test]
    fn trace_buffer_evicts_oldest() {
        let (mut g, mut rng) = generator(5);
        let mut trace = RequestTrace::new(3);
        for _ in 0..5 {
            let (r, _) = g.next(&mut rng);
            trace.record(r);
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.requests().next().map(|r| r.id), Some(RequestId(2)), "oldest evicted");
        let replayed = trace.replay_requests(1_000_000);
        assert_eq!(replayed[0].id, RequestId(1_000_000));
        trace.clear();
        assert!(trace.is_empty());
    }

    #[test]
    fn constrained_fraction_yields_constrained_requests() {
        let mut rng = StdRng::seed_from_u64(9);
        let (_, library) = standard_universe(&mut rng);
        let config = RequestConfig { constrained_fraction: 0.5, ..RequestConfig::default() };
        let mut g = RequestGenerator::new(library, config);
        let mut constrained = 0;
        for _ in 0..200 {
            let (r, _) = g.next(&mut rng);
            if r.constraints != PlacementConstraints::none() {
                constrained += 1;
                assert_eq!(r.constraints.min_security, SecurityLevel::HARDENED);
                assert!(r.constraints.licenses.accepts(LicenseClass::Permissive));
                assert!(!r.constraints.licenses.accepts(LicenseClass::Commercial));
            }
        }
        assert!((60..=140).contains(&constrained), "~50% expected, got {constrained}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (mut g1, mut rng1) = generator(6);
        let (mut g2, mut rng2) = generator(6);
        for _ in 0..20 {
            let (a, da) = g1.next(&mut rng1);
            let (b, db) = g2.next(&mut rng2);
            assert_eq!(a, b);
            assert_eq!(da, db);
        }
    }
}
