//! Multi-tenant admission control at the composition entry point.
//!
//! Before a request reaches the probing protocol, the deputy consults an
//! [`AdmissionController`]: a tier-specific congestion gate sheds
//! low-tier traffic when the φ-congestion estimate (derived from the
//! coarse [`GlobalStateBoard`](acp_state::GlobalStateBoard) residual state
//! via `congestion_estimate()`) crosses the tier's threshold —
//! `BestEffort` first, then `Silver`; `Gold` is never shed by the gate.
//!
//! The controller is pure policy: it never touches ground truth, draws
//! no randomness, and decides from exactly (tier, congestion) — so a run
//! with one `Gold` tenant makes the same compose calls as a tenant-less
//! run, byte-identically.

use acp_model::prelude::*;

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
}

impl AdmissionController {
    /// A controller with the given thresholds.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config }
    }

    /// Decides one request at the tier's congestion gate.
    pub fn admit(&self, binding: TenantBinding, congestion: f64) -> AdmissionDecision {
        if congestion >= self.config.threshold(binding.tier) {
            return AdmissionDecision::ShedCongestion;
        }
        AdmissionDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLD: TenantBinding = TenantBinding { tenant: TenantId(0), tier: TenantTier::Gold };
    const SILVER: TenantBinding = TenantBinding { tenant: TenantId(1), tier: TenantTier::Silver };
    const BEST: TenantBinding = TenantBinding { tenant: TenantId(2), tier: TenantTier::BestEffort };

    #[test]
    fn tiers_shed_in_order_as_congestion_rises() {
        use AdmissionDecision::{Admit, ShedCongestion};
        let ctl = AdmissionController::new(AdmissionConfig::default());
        for (congestion, gold, silver, best) in [
            (0.10, Admit, Admit, Admit),
            (0.70, Admit, Admit, ShedCongestion),
            (0.90, Admit, ShedCongestion, ShedCongestion),
            (1.00, Admit, ShedCongestion, ShedCongestion),
        ] {
            assert_eq!(ctl.admit(GOLD, congestion), gold);
            assert_eq!(ctl.admit(SILVER, congestion), silver);
            assert_eq!(ctl.admit(BEST, congestion), best);
        }
    }

    #[test]
    fn gold_is_never_congestion_shed() {
        let ctl = AdmissionController::new(AdmissionConfig::default());
        assert!(ctl.admit(GOLD, 1.0).admitted());
        assert_eq!(AdmissionConfig::default().threshold(TenantTier::Gold), f64::INFINITY);
    }
}
