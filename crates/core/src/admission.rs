//! Multi-tenant admission control at the composition entry point.
//!
//! Before a request reaches the probing protocol, the deputy consults an
//! [`AdmissionController`]: a per-tenant token bucket enforces the
//! tenant's contracted request rate, and a tier-specific congestion gate
//! sheds low-tier traffic when the φ-congestion estimate (derived from
//! the coarse [`GlobalStateBoard`](acp_state::GlobalStateBoard) residual
//! state via `congestion_estimate()`) crosses the tier's threshold —
//! `BestEffort` first, then `Silver`; `Gold` is never shed by the gate.
//!
//! The controller is pure policy: it never touches ground truth, draws
//! no randomness, and decides from exactly (tier, clock, congestion,
//! bucket state) — so a run with one `Gold` tenant and no rate limit
//! makes the same compose calls as a tenant-less run, byte-identically.

use acp_model::prelude::*;
use acp_simcore::SimTime;

/// A deterministic token bucket: `burst` capacity, refilled continuously
/// at `refill_per_sec`, one token per admitted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        assert!(capacity > 0.0 && refill_per_sec >= 0.0, "bucket needs positive capacity");
        TokenBucket { capacity, tokens: capacity, refill_per_sec, last: SimTime::ZERO }
    }

    /// Takes one token at `now`, refilling for the elapsed interval
    /// first. `false` means the caller is over its contracted rate.
    pub(crate) fn try_take(&mut self, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Tier-specific congestion-shedding thresholds. A request is shed when
/// the congestion estimate is **at or above** its tier's threshold;
/// `Gold` has no threshold (never congestion-shed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Shed `BestEffort` at or above this congestion.
    pub best_effort_threshold: f64,
    /// Shed `Silver` at or above this congestion (should exceed the
    /// best-effort threshold so tiers shed in order).
    pub silver_threshold: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { best_effort_threshold: 0.60, silver_threshold: 0.85 }
    }
}

impl AdmissionConfig {
    /// The shed threshold for `tier` (`+∞` for `Gold`).
    pub fn threshold(&self, tier: TenantTier) -> f64 {
        match tier {
            TenantTier::Gold => f64::INFINITY,
            TenantTier::Silver => self.silver_threshold,
            TenantTier::BestEffort => self.best_effort_threshold,
        }
    }
}

/// Outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Forward to the composition protocol.
    Admit,
    /// Shed: the tenant exceeded its token-bucket rate limit.
    ShedRateLimit,
    /// Shed: the congestion estimate crossed the tier's threshold.
    ShedCongestion,
}

impl AdmissionDecision {
    /// True when the request proceeds to composition.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admit)
    }
}

/// The per-tenant admission controller at the composer entry path.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Per-tenant rate limiters, indexed by `TenantId.0`; `None` means
    /// uncapped.
    buckets: Vec<Option<TokenBucket>>,
}

impl AdmissionController {
    /// A controller with the given thresholds and no rate limits.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config, buckets: Vec::new() }
    }

    /// Caps `tenant` at `refill_per_sec` requests/s with `burst` tokens
    /// of burst capacity.
    pub fn set_rate_limit(&mut self, tenant: TenantId, refill_per_sec: f64, burst: f64) {
        let idx = tenant.0 as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, None);
        }
        self.buckets[idx] = Some(TokenBucket::new(burst, refill_per_sec));
    }

    /// Decides one request: rate limit first (the tenant's own
    /// contract), then the tier's congestion gate.
    pub fn admit(
        &mut self,
        binding: TenantBinding,
        now: SimTime,
        congestion: f64,
    ) -> AdmissionDecision {
        if let Some(Some(bucket)) = self.buckets.get_mut(binding.tenant.0 as usize) {
            if !bucket.try_take(now) {
                return AdmissionDecision::ShedRateLimit;
            }
        }
        if congestion >= self.config.threshold(binding.tier) {
            return AdmissionDecision::ShedCongestion;
        }
        AdmissionDecision::Admit
    }

    /// The configured thresholds.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;

    const GOLD: TenantBinding = TenantBinding { tenant: TenantId(0), tier: TenantTier::Gold };
    const SILVER: TenantBinding = TenantBinding { tenant: TenantId(1), tier: TenantTier::Silver };
    const BEST: TenantBinding = TenantBinding { tenant: TenantId(2), tier: TenantTier::BestEffort };

    #[test]
    fn bucket_enforces_rate_and_refills() {
        let mut b = TokenBucket::new(2.0, 1.0);
        let t0 = SimTime::ZERO;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(b.try_take(t1), "one token refilled after 1s at 1/s");
        assert!(!b.try_take(t1));
    }

    #[test]
    fn tiers_shed_in_order_as_congestion_rises() {
        use AdmissionDecision::{Admit, ShedCongestion};
        let mut ctl = AdmissionController::new(AdmissionConfig::default());
        let now = SimTime::ZERO;
        for (congestion, gold, silver, best) in [
            (0.10, Admit, Admit, Admit),
            (0.70, Admit, Admit, ShedCongestion),
            (0.90, Admit, ShedCongestion, ShedCongestion),
            (1.00, Admit, ShedCongestion, ShedCongestion),
        ] {
            assert_eq!(ctl.admit(GOLD, now, congestion), gold);
            assert_eq!(ctl.admit(SILVER, now, congestion), silver);
            assert_eq!(ctl.admit(BEST, now, congestion), best);
        }
    }

    #[test]
    fn rate_limit_applies_per_tenant_before_the_gate() {
        let mut ctl = AdmissionController::new(AdmissionConfig::default());
        ctl.set_rate_limit(BEST.tenant, 0.0, 1.0);
        let now = SimTime::ZERO;
        assert!(ctl.admit(BEST, now, 0.0).admitted());
        assert_eq!(ctl.admit(BEST, now, 0.0), AdmissionDecision::ShedRateLimit);
        assert!(ctl.admit(GOLD, now, 0.0).admitted(), "other tenants uncapped");
    }

    #[test]
    fn gold_is_never_congestion_shed() {
        let mut ctl = AdmissionController::new(AdmissionConfig::default());
        assert!(ctl.admit(GOLD, SimTime::ZERO, 1.0).admitted());
        assert_eq!(ctl.config().threshold(TenantTier::Gold), f64::INFINITY);
    }
}
