//! Message-overhead accounting.
//!
//! The paper's efficiency and scalability experiments (Figs. 6b, 7b)
//! compare algorithms by *messages per minute*: composition probes for all
//! probing algorithms, plus coarse-grain global-state update messages for
//! ACP. [`OverheadStats`] is the per-request (and mergeable per-period)
//! ledger of those messages.

use std::ops::{Add, AddAssign};

/// Message counters for one composition attempt or one reporting period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverheadStats {
    /// Probe hop messages (probe sent from one node to the next).
    pub probe_messages: u64,
    /// Probes spawned in total (≥ number of hop messages' recipients).
    pub probes_spawned: u64,
    /// Probes dropped mid-flight (failed per-hop qualification).
    pub probes_dropped: u64,
    /// Probes that reached the sink and returned to the deputy.
    pub probes_returned: u64,
    /// Service-discovery lookups performed.
    pub discovery_lookups: u64,
    /// Coarse global-state queries (board reads during selection).
    pub global_state_queries: u64,
    /// Coarse global-state *update* messages (filled from the state board
    /// by the experiment driver; zero for per-request accounting).
    pub state_update_messages: u64,
    /// Session-setup confirmation messages.
    pub confirmation_messages: u64,
    /// Candidates the discovery lookups returned across ranked
    /// selections (the work a full per-hop scan would do).
    pub selection_candidates: u64,
    /// Candidate-index entries ranked selection actually examined.
    /// `examined / candidates` is the measured sublinearity of indexed
    /// selection — entries past the early-exit point are never visited.
    pub selection_examined: u64,
    /// Entries dropped by the static filter (interface rate) before any
    /// board or path work.
    pub selection_pruned_static: u64,
    /// Index entries dropped because their component no longer resolves
    /// to a live dense id (crashed/migrated since the last publish).
    pub selection_pruned_stale: u64,
    /// Entries dropped by the QoS/resource prescreen (Eqs. 6–7 against
    /// published state) before computing a virtual path.
    pub selection_prescreened: u64,
    /// Entries fully scored (path computed, congestion + risk ranked).
    pub selection_scored: u64,
}

impl OverheadStats {
    /// A zeroed ledger.
    pub fn new() -> Self {
        OverheadStats::default()
    }

    /// The paper's headline overhead number: network messages generated —
    /// probe traffic, probe returns, state updates, and confirmations.
    /// (Discovery lookups and board queries are tracked separately; the
    /// paper folds discovery into the probing protocol and treats board
    /// reads as local.)
    pub fn total_messages(&self) -> u64 {
        self.probe_messages + self.probes_returned + self.state_update_messages + self.confirmation_messages
    }
}

impl Add for OverheadStats {
    type Output = OverheadStats;
    fn add(self, rhs: OverheadStats) -> OverheadStats {
        OverheadStats {
            probe_messages: self.probe_messages + rhs.probe_messages,
            probes_spawned: self.probes_spawned + rhs.probes_spawned,
            probes_dropped: self.probes_dropped + rhs.probes_dropped,
            probes_returned: self.probes_returned + rhs.probes_returned,
            discovery_lookups: self.discovery_lookups + rhs.discovery_lookups,
            global_state_queries: self.global_state_queries + rhs.global_state_queries,
            state_update_messages: self.state_update_messages + rhs.state_update_messages,
            confirmation_messages: self.confirmation_messages + rhs.confirmation_messages,
            selection_candidates: self.selection_candidates + rhs.selection_candidates,
            selection_examined: self.selection_examined + rhs.selection_examined,
            selection_pruned_static: self.selection_pruned_static + rhs.selection_pruned_static,
            selection_pruned_stale: self.selection_pruned_stale + rhs.selection_pruned_stale,
            selection_prescreened: self.selection_prescreened + rhs.selection_prescreened,
            selection_scored: self.selection_scored + rhs.selection_scored,
        }
    }
}

impl AddAssign for OverheadStats {
    fn add_assign(&mut self, rhs: OverheadStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for OverheadStats {
    fn sum<I: Iterator<Item = OverheadStats>>(iter: I) -> OverheadStats {
        iter.fold(OverheadStats::new(), |a, b| a + b)
    }
}

/// Per-minute message cost of the centralized strawman the paper compares
/// against: "the centralized algorithm would require `N²` messages per
/// minute to perform precise global state update assuming one minute
/// update period" (§4.2).
pub fn centralized_update_messages_per_minute(node_count: usize) -> u64 {
    (node_count as u64) * (node_count as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_network_traffic_only() {
        let s = OverheadStats {
            probe_messages: 10,
            probes_spawned: 12,
            probes_dropped: 2,
            probes_returned: 3,
            discovery_lookups: 5,
            global_state_queries: 7,
            state_update_messages: 4,
            confirmation_messages: 2,
            ..OverheadStats::new()
        };
        assert_eq!(s.total_messages(), 10 + 3 + 4 + 2);
    }

    #[test]
    fn add_is_componentwise() {
        let a = OverheadStats { probe_messages: 1, probes_spawned: 2, ..OverheadStats::new() };
        let b = OverheadStats { probe_messages: 3, probes_dropped: 4, ..OverheadStats::new() };
        let c = a + b;
        assert_eq!(c.probe_messages, 4);
        assert_eq!(c.probes_spawned, 2);
        assert_eq!(c.probes_dropped, 4);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            OverheadStats { probe_messages: 1, ..OverheadStats::new() },
            OverheadStats { probe_messages: 2, ..OverheadStats::new() },
            OverheadStats { probe_messages: 3, ..OverheadStats::new() },
        ];
        let total: OverheadStats = parts.into_iter().sum();
        assert_eq!(total.probe_messages, 6);
    }

    #[test]
    fn centralized_cost_is_quadratic() {
        assert_eq!(centralized_update_messages_per_minute(400), 160_000);
        assert_eq!(centralized_update_messages_per_minute(0), 0);
    }
}
