//! Multi-tenant admission control at the composition entry point.
//!
//! Before a request reaches the probing protocol, the deputy asks
//! [`AdmissionConfig::sheds`]: a tier-specific congestion gate sheds
//! low-tier traffic when the φ-congestion estimate (derived from the
//! coarse [`GlobalStateBoard`](acp_state::GlobalStateBoard) residual state
//! via `congestion_estimate()`) reaches the tier's threshold —
//! `BestEffort` first, then `Silver`; `Gold` is never shed by the gate.
//!
//! The gate is pure policy: it never touches ground truth, draws no
//! randomness, and decides from exactly (tier, congestion) — so a run
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

    /// True when the gate sheds a `tier` request at `congestion`.
    pub fn sheds(&self, tier: TenantTier, congestion: f64) -> bool {
        congestion >= self.threshold(tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_shed_in_order_as_congestion_rises() {
        let gate = AdmissionConfig::default();
        // The rows at 0.60 and 0.85 sit on the thresholds themselves:
        // the gate sheds at them, not only above.
        for (congestion, gold, silver, best) in [
            (0.10, false, false, false),
            (0.60, false, false, true),
            (0.70, false, false, true),
            (0.85, false, true, true),
            (0.90, false, true, true),
            (1.00, false, true, true),
        ] {
            assert_eq!(gate.sheds(TenantTier::Gold, congestion), gold, "gold at {congestion}");
            assert_eq!(gate.sheds(TenantTier::Silver, congestion), silver, "silver at {congestion}");
            assert_eq!(gate.sheds(TenantTier::BestEffort, congestion), best, "best effort at {congestion}");
        }
    }

    #[test]
    fn gold_is_never_congestion_shed() {
        let gate = AdmissionConfig::default();
        assert!(!gate.sheds(TenantTier::Gold, 1.0));
        assert_eq!(gate.threshold(TenantTier::Gold), f64::INFINITY);
    }
}
