//! The sharded single-run simulation runtime.
//!
//! [`ShardedRuntime`] partitions one [`StreamSystem`] into per-shard
//! ownership — contiguous dense node-index ranges (and, by the same
//! rule, link-index ranges) — and fans the heavy whole-system scans of a
//! scenario over a persistent worker pool (one thread per shard, the
//! coordinator running the last shard inline):
//!
//! * the invariant **audit** ([`Self::audit_at`]),
//! * and, via the generic [`Self::scatter`], the global-state refresh
//!   (acp-state) and the composer's per-hop candidate scoring fan-out
//!   (acp-core).
//!
//! # Byte-identity discipline
//!
//! Results must be byte-identical at any shard count, including
//! `shards = 1` (which builds no runtime at all — the sequential path).
//! Every sharded operation therefore follows the scan/apply split of
//! [`acp_simcore::shard`]: shard workers perform **read-only** scans of
//! their ranges behind the scatter barrier, and the coordinator applies
//! every mutation in canonical ascending-index order during the merge.
//! Floating-point sums are never merged from partial sums — an entity's
//! accumulator is always folded by exactly one shard, in the same
//! element order as the sequential code — so f64 rounding brackets
//! identically. All result-affecting RNG draws stay on the coordinator,
//! in sequential order; shard workers draw nothing.
//!
//! # Cross-shard messages
//!
//! Probes and confirms already travel through the [`acp_simcore`]
//! `Transport` abstraction (two-phase setup, PR 6); a shard boundary
//! between a probe's proposer and its candidate makes it a *cross-shard*
//! message. Transport fault draws apply to every forwarded message
//! identically regardless of locality, so shard boundaries only affect
//! the [`ShardStats`] traffic counters — which are shard-count-dependent
//! by design and deliberately excluded from digest comparisons.

use acp_simcore::{ShardMap, ShardPool, SimTime};
use acp_topology::OverlayNodeId;

use crate::audit::{sorted_cached_paths, sorted_sessions, AuditReport, AuditViolation, SystemAuditor};
use crate::system::StreamSystem;

/// Cross-shard traffic accounting. These counters depend on the shard
/// count (a 1-shard run has no cross-shard traffic at all), so they are
/// **not** part of any determinism digest — they describe the runtime's
/// communication structure, not the simulation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Probe forwards whose proposer and candidate share a shard.
    pub local_probes: u64,
    /// Probe forwards crossing a shard boundary.
    pub cross_probes: u64,
    /// Commit confirms landing on the proposer's shard.
    pub local_confirms: u64,
    /// Commit confirms crossing a shard boundary.
    pub cross_confirms: u64,
    /// Scatter barriers executed (one per sharded epoch step).
    pub scatter_epochs: u64,
}

impl ShardStats {
    /// Total probe + confirm messages classified.
    pub fn messages(&self) -> u64 {
        self.local_probes + self.cross_probes + self.local_confirms + self.cross_confirms
    }

    /// Fraction of classified messages that crossed a shard boundary
    /// (0 when nothing was recorded).
    pub fn cross_rate(&self) -> f64 {
        let total = self.messages();
        if total == 0 {
            0.0
        } else {
            (self.cross_probes + self.cross_confirms) as f64 / total as f64
        }
    }
}

/// Per-shard results of one audit scatter; merged field-by-field so the
/// violation order matches the sequential pass order exactly.
struct ShardAuditPart {
    conservation_nodes: Vec<AuditViolation>,
    conservation_links: Vec<AuditViolation>,
    link_state: Vec<AuditViolation>,
    sessions: Vec<AuditViolation>,
    paths: Vec<AuditViolation>,
    lease_nodes: Vec<AuditViolation>,
    lease_links: Vec<AuditViolation>,
}

/// One scenario across all cores: shard ownership maps plus the worker
/// pool executing range scans behind a deterministic barrier.
pub struct ShardedRuntime {
    pool: ShardPool,
    nodes: ShardMap,
    links: ShardMap,
    stats: ShardStats,
}

impl ShardedRuntime {
    /// Builds a runtime for `shards` shards over a system with
    /// `node_count` stream nodes and `link_count` overlay links.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize, node_count: usize, link_count: usize) -> Self {
        ShardedRuntime {
            pool: ShardPool::new(shards),
            nodes: ShardMap::new(node_count, shards),
            links: ShardMap::new(link_count, shards),
            stats: ShardStats::default(),
        }
    }

    /// Builds a runtime sized to `system`.
    pub fn for_system(shards: usize, system: &StreamSystem) -> Self {
        Self::new(shards, system.node_count(), system.link_count())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.pool.shards()
    }

    /// The shard owning stream node `v`.
    pub fn node_owner(&self, v: OverlayNodeId) -> usize {
        self.nodes.owner(v.index())
    }

    /// The node-index range owned by `shard`.
    pub fn node_range(&self, shard: usize) -> std::ops::Range<usize> {
        self.nodes.range(shard)
    }

    /// The link-index range owned by `shard`.
    pub fn link_range(&self, shard: usize) -> std::ops::Range<usize> {
        self.links.range(shard)
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Classifies a probe forward from a proposer on `from` to a
    /// candidate on `to` as local or cross-shard.
    pub fn record_probe(&mut self, from: OverlayNodeId, to: OverlayNodeId) {
        if self.nodes.owner(from.index()) == self.nodes.owner(to.index()) {
            self.stats.local_probes += 1;
        } else {
            self.stats.cross_probes += 1;
        }
    }

    /// Classifies a commit confirm from `from` to `to`.
    pub fn record_confirm(&mut self, from: OverlayNodeId, to: OverlayNodeId) {
        if self.nodes.owner(from.index()) == self.nodes.owner(to.index()) {
            self.stats.local_confirms += 1;
        } else {
            self.stats.cross_confirms += 1;
        }
    }

    /// Runs `f(shard)` on every shard behind the barrier and returns the
    /// per-shard results in shard order. The generic hook other layers
    /// (global-state refresh, composer scoring) build their own
    /// scan/apply splits on.
    pub fn scatter<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.stats.scatter_epochs += 1;
        self.pool.scatter(f)
    }

    /// The sharded invariant audit: every range/slice-parameterised pass
    /// of [`SystemAuditor`] fans out over the shards in one scatter; the
    /// merge concatenates per-shard violation lists pass by pass, which
    /// reproduces the sequential [`SystemAuditor::audit_at`] order (and
    /// therefore its digest) exactly.
    pub fn audit_at(
        &mut self,
        auditor: &SystemAuditor,
        system: &StreamSystem,
        now: Option<SimTime>,
    ) -> AuditReport {
        self.stats.scatter_epochs += 1;
        let sessions = sorted_sessions(system);
        let cached = sorted_cached_paths(system);
        let shards = self.shards();
        let session_map = ShardMap::new(sessions.len(), shards);
        let cache_map = ShardMap::new(cached.len(), shards);
        let nodes = self.nodes;
        let links = self.links;
        // The sequential lease pass skips entirely without the ledger.
        let expiry_at = if system.lease_accounting() { now } else { None };
        let sessions = &sessions;
        let cached = &cached;
        let mut parts: Vec<ShardAuditPart> = self.pool.scatter(|s| {
            let (conservation_nodes, conservation_links) =
                auditor.conservation_for_ranges(system, sessions, nodes.range(s), links.range(s));
            let (lease_nodes, lease_links) = match expiry_at {
                Some(t) => auditor.lease_expiry_for_ranges(system, t, nodes.range(s), links.range(s)),
                None => (Vec::new(), Vec::new()),
            };
            ShardAuditPart {
                conservation_nodes,
                conservation_links,
                link_state: auditor.link_state_for_range(system, links.range(s)),
                sessions: auditor.session_violations_for_slice(system, &sessions[session_map.range(s)]),
                paths: auditor.path_violations_for_entries(system, &cached[cache_map.range(s)]),
                lease_nodes,
                lease_links,
            }
        });
        let mut out = Vec::new();
        // Pass order mirrors `audit_at`: nodes (global, coordinator),
        // conservation (nodes then links), link state, sessions, path
        // cache, leases (ledger then node expiry then link expiry).
        auditor.audit_nodes(system, &mut out);
        for p in &mut parts {
            out.append(&mut p.conservation_nodes);
        }
        for p in &mut parts {
            out.append(&mut p.conservation_links);
        }
        for p in &mut parts {
            out.append(&mut p.link_state);
        }
        for p in &mut parts {
            out.append(&mut p.sessions);
        }
        for p in &mut parts {
            out.append(&mut p.paths);
        }
        auditor.lease_ledger_violations(system, &mut out);
        for p in &mut parts {
            out.append(&mut p.lease_nodes);
        }
        for p in &mut parts {
            out.append(&mut p.lease_links);
        }
        // Tenant and repair passes last, mirroring `audit_at`:
        // inherently global (whole-ledger reads), so the coordinator
        // runs them directly.
        auditor.audit_tenants(system, &mut out);
        auditor.audit_repair(system, &mut out);
        AuditReport::from_violations(out)
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.shards())
            .field("nodes", &self.nodes)
            .field("links", &self.links)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;
    use crate::request::RequestId;
    use crate::resources::ResourceVector;
    use crate::system::{StreamSystem, SystemConfig};
    use acp_simcore::SimDuration;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_system(seed: u64, stream_nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    /// Scatter a few transient leases (node + link) with staggered
    /// expiries over the system.
    fn reserve_leases(sys: &mut StreamSystem, base: SimTime) {
        let functions: Vec<_> = sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        for (i, &f) in functions.iter().enumerate().take(8) {
            let c = sys.candidates(f)[i % sys.candidates(f).len()];
            let expires = base + SimDuration::from_secs(5 + (i as u64 % 4) * 10);
            assert!(sys.reserve_component_transient(
                RequestId(500 + i as u64),
                c,
                ResourceVector::new(0.2, 0.5),
                expires,
            ));
            let peer = sys.candidates(functions[(i + 1) % functions.len()])[0];
            if let Some(path) = sys.virtual_path(c.node, peer.node) {
                sys.reserve_path_transient(RequestId(500 + i as u64), i, &path, 1.0, expires);
            }
        }
    }

    #[test]
    fn sharded_audit_matches_sequential_violation_for_violation() {
        // Build a deliberately broken system: phantom commitments break
        // conservation on several nodes, stale leases break expiry.
        let make = || {
            let mut sys = build_system(12, 30);
            reserve_leases(&mut sys, SimTime::from_secs(0));
            assert!(sys.node_mut(OverlayNodeId(2)).commit(ResourceVector::new(1.0, 1.0)));
            assert!(sys.node_mut(OverlayNodeId(17)).commit(ResourceVector::new(0.5, 2.0)));
            sys
        };
        let auditor = SystemAuditor::default();
        let late = Some(SimTime::from_secs(3600));
        let sys = make();
        let want = auditor.audit_at(&sys, late);
        assert!(!want.is_clean(), "test needs violations to compare");

        for shards in [1usize, 2, 4, 8] {
            let mut rt = ShardedRuntime::for_system(shards, &sys);
            let got = rt.audit_at(&auditor, &sys, late);
            assert_eq!(got.violations(), want.violations(), "shards={shards}");
            assert_eq!(got.digest(), want.digest(), "shards={shards}");
        }
    }

    #[test]
    fn clean_system_audits_clean_under_sharding() {
        let sys = build_system(13, 20);
        let auditor = SystemAuditor::default();
        let mut rt = ShardedRuntime::for_system(4, &sys);
        let report = rt.audit_at(&auditor, &sys, Some(SimTime::from_secs(1)));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.digest(), auditor.audit_at(&sys, Some(SimTime::from_secs(1))).digest());
    }

    #[test]
    fn probe_classification_depends_on_ownership() {
        let sys = build_system(14, 16);
        let mut rt = ShardedRuntime::for_system(4, &sys);
        // Nodes 0 and 1 share shard 0 of 4 over 16 nodes; node 15 is on
        // the last shard.
        rt.record_probe(OverlayNodeId(0), OverlayNodeId(1));
        rt.record_probe(OverlayNodeId(0), OverlayNodeId(15));
        rt.record_confirm(OverlayNodeId(0), OverlayNodeId(15));
        let stats = rt.stats();
        assert_eq!((stats.local_probes, stats.cross_probes), (1, 1));
        assert_eq!((stats.local_confirms, stats.cross_confirms), (0, 1));
        assert!(stats.cross_rate() > 0.5);
    }
}
