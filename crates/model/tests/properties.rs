//! Property-based tests for the system model.

use acp_model::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loss-rate probability ↔ log-survival round trip.
    #[test]
    fn loss_rate_round_trip(p in 0.0f64..0.999) {
        let l = LossRate::from_probability(p);
        prop_assert!((l.probability() - p).abs() < 1e-9);
    }

    /// Loss composition is commutative and matches probability algebra.
    #[test]
    fn loss_composition(p1 in 0.0f64..0.9, p2 in 0.0f64..0.9) {
        let a = LossRate::from_probability(p1);
        let b = LossRate::from_probability(p2);
        let ab = a + b;
        let ba = b + a;
        prop_assert!((ab.probability() - ba.probability()).abs() < 1e-12);
        let expected = 1.0 - (1.0 - p1) * (1.0 - p2);
        prop_assert!((ab.probability() - expected).abs() < 1e-9);
    }

    /// QoS aggregation is monotone: adding a stage never improves QoS.
    #[test]
    fn qos_aggregation_monotone(
        d1 in 0u64..10_000_000, p1 in 0.0f64..0.5,
        d2 in 0u64..10_000_000, p2 in 0.0f64..0.5,
    ) {
        let a = Qos::new(SimDuration::from_micros(d1), LossRate::from_probability(p1));
        let b = Qos::new(SimDuration::from_micros(d2), LossRate::from_probability(p2));
        let sum = a + b;
        prop_assert!(sum.delay >= a.delay && sum.delay >= b.delay);
        prop_assert!(sum.loss >= a.loss && sum.loss >= b.loss);
    }

    /// satisfies() ⇔ risk_ratio ≤ 1 for positive requirements.
    #[test]
    fn satisfies_iff_risk_le_one(
        d in 1u64..10_000_000, p in 0.0001f64..0.5,
        rd in 1u64..10_000_000, rp in 0.0001f64..0.5,
    ) {
        let q = Qos::new(SimDuration::from_micros(d), LossRate::from_probability(p));
        let req = QosRequirement::new(SimDuration::from_micros(rd), LossRate::from_probability(rp));
        let risk = q.risk_ratio(&req);
        prop_assert_eq!(q.satisfies(&req), risk <= 1.0 + 1e-12);
    }

    /// Resource checked_sub succeeds iff dominance holds, and
    /// (a - b) + b == a when it does.
    #[test]
    fn resource_sub_roundtrip(
        ac in 0.0f64..1e6, am in 0.0f64..1e6,
        bc in 0.0f64..1e6, bm in 0.0f64..1e6,
    ) {
        let a = ResourceVector::new(ac, am);
        let b = ResourceVector::new(bc, bm);
        match a.checked_sub(&b) {
            Some(diff) => {
                prop_assert!(a.dominates(&b));
                let back = diff + b;
                prop_assert!((back.cpu - a.cpu).abs() < 1e-9);
                prop_assert!((back.memory_mb - a.memory_mb).abs() < 1e-9);
            }
            None => prop_assert!(!a.dominates(&b)),
        }
    }

    /// Congestion function decreases when availability grows.
    #[test]
    fn congestion_monotone_in_availability(
        cpu in 1.0f64..100.0, mem in 1.0f64..100.0,
        extra in 0.1f64..100.0,
        bw_avail in 1.0f64..10_000.0, bw in 0.0f64..1_000.0,
    ) {
        let demand = ResourceVector::new(cpu / 2.0, mem / 2.0);
        let small = ResourceVector::new(cpu, mem);
        let large = ResourceVector::new(cpu + extra, mem + extra);
        let v_small = congestion_function(&small, &demand, bw_avail, bw);
        let v_large = congestion_function(&large, &demand, bw_avail, bw);
        prop_assert!(v_large <= v_small + 1e-12);
        // more link availability also helps
        let v_more_bw = congestion_function(&small, &demand, bw_avail * 2.0, bw);
        prop_assert!(v_more_bw <= v_small + 1e-12);
    }

    /// Risk function is monotone in the accumulated QoS.
    #[test]
    fn risk_monotone_in_accumulation(
        base in 0u64..1_000_000, inc in 1u64..1_000_000,
    ) {
        let req = QosRequirement::new(SimDuration::from_micros(2_000_000), LossRate::from_probability(0.1));
        let cand = Qos::from_delay(SimDuration::from_micros(10));
        let link = Qos::from_delay(SimDuration::from_micros(10));
        let d1 = risk_function(Qos::from_delay(SimDuration::from_micros(base)), cand, link, &req);
        let d2 = risk_function(Qos::from_delay(SimDuration::from_micros(base + inc)), cand, link, &req);
        prop_assert!(d2 >= d1);
    }

    /// Tightening a requirement never turns an unsatisfied QoS satisfied.
    #[test]
    fn tightening_preserves_failures(
        d in 0u64..1_000_000, p in 0.0f64..0.5, factor in 0.01f64..1.0,
    ) {
        let q = Qos::new(SimDuration::from_micros(d), LossRate::from_probability(p));
        let req = QosRequirement::new(SimDuration::from_micros(500_000), LossRate::from_probability(0.25));
        let tight = req.tightened(factor);
        if !q.satisfies(&req) {
            prop_assert!(!q.satisfies(&tight));
        }
    }
}

mod lease_reconciliation {
    use super::*;
    use acp_model::audit::SystemAuditor;
    use acp_simcore::SimTime;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 120, ..InetConfig::default() }.generate(&mut rng);
        let overlay =
            Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 4 }, &mut rng);
        StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of reserve / confirm / release / expire /
        /// fault events keeps the lease ledger reconciled at every step
        /// and leaves zero orphans after the final reclamation sweep.
        #[test]
        fn lease_interleavings_reconcile_to_zero_orphans(
            seed in 0u64..6,
            ops in prop::collection::vec((0u8..6, 0usize..64, 1u64..9), 1..48),
        ) {
            let mut sys = build(seed);
            let auditor = SystemAuditor::default();
            let mut now = SimTime::ZERO;
            let lease = SimDuration::from_secs(30);
            let fns: Vec<FunctionId> =
                sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
            for (kind, pick, req) in ops {
                let r = RequestId(req);
                match kind {
                    // Reserve end-system resources on a candidate.
                    0 => {
                        let f = fns[pick % fns.len()];
                        let cands = sys.candidates(f);
                        if !cands.is_empty() {
                            let c = cands[pick % cands.len()];
                            let _ = sys.reserve_component_transient(
                                r, c, ResourceVector::new(0.2, 0.8), now + lease,
                            );
                        }
                    }
                    // Reserve bandwidth along a virtual path.
                    1 => {
                        let n = sys.node_count() as u32;
                        let a = OverlayNodeId(pick as u32 % n);
                        let b = OverlayNodeId((pick as u32 / 7 + 1) % n);
                        if a != b {
                            if let Some(path) = sys.virtual_path(a, b) {
                                let _ = sys.reserve_path_transient(r, pick % 4, &path, 1.0, now + lease);
                            }
                        }
                    }
                    // Explicit release (failed composition / lost probe).
                    2 => {
                        sys.release_request_transients(r);
                    }
                    // Time passes; the reclamation sweep runs.
                    3 => {
                        now += SimDuration::from_secs((pick % 40) as u64);
                        sys.expire_transients(now);
                    }
                    // Confirm: commit a session under this request,
                    // promoting whatever leases it holds.
                    4 => {
                        if fns.len() >= 2 && !sys.has_session_for(r) {
                            let f0 = fns[pick % fns.len()];
                            let f1 = fns[(pick + 1) % fns.len()];
                            let (c0s, c1s) = (sys.candidates(f0).to_vec(), sys.candidates(f1).to_vec());
                            if !c0s.is_empty() && !c1s.is_empty() {
                                let c0 = c0s[pick % c0s.len()];
                                let c1 = c1s[pick % c1s.len()];
                                if c0 != c1 {
                                    if let Some(path) = sys.virtual_path(c0.node, c1.node) {
                                        let request = Request {
                                            id: r,
                                            graph: FunctionGraph::path(vec![f0, f1]),
                                            qos: QosRequirement::unconstrained(),
                                            base_resources: ResourceVector::new(0.2, 1.0),
                                            bandwidth_kbps: 2.0,
                                            stream_rate_kbps: 50.0,
                                            constraints: PlacementConstraints::none(),
                                            tenant: None,
                                        };
                                        let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
                                        let _ = sys.commit_session(&request, comp);
                                    }
                                }
                            }
                        }
                    }
                    // Fault: fail-stop and immediate recovery.
                    5 => {
                        if pick % 2 == 0 {
                            let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                            if !sys.is_node_failed(v) {
                                sys.fail_node(v, RepairPolicy::Terminate, SimTime::ZERO);
                                sys.recover_node(v);
                            }
                        } else {
                            let l = OverlayLinkId(pick as u32 % sys.overlay().link_count() as u32);
                            sys.fail_link(l, RepairPolicy::Terminate, SimTime::ZERO);
                            sys.restore_link(l);
                        }
                    }
                    _ => unreachable!(),
                }
                let stats = sys.lease_stats();
                prop_assert!(
                    stats.reconciles(sys.live_lease_count() as u64),
                    "mid-run ledger broken: {:?}", stats
                );
            }
            // Final reclamation sweep one lease horizon later: every
            // outstanding lease is past its expiry, so nothing survives.
            now += lease;
            sys.expire_transients(now);
            prop_assert_eq!(sys.live_lease_count(), 0, "orphans survived the sweep");
            prop_assert!(sys.lease_stats().reconciles(0), "{:?}", sys.lease_stats());
            let report = auditor.audit_at(&sys, Some(now));
            prop_assert!(report.is_clean(), "{}", report);
        }
    }
}

mod lease_directory {
    use super::*;
    use acp_model::audit::SystemAuditor;
    use acp_simcore::SimTime;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Namespace bit of repair mini-requests (mirrors `acp_core::repair`).
    const MINI: u64 = 1 << 63;

    /// One system under a stream of lease / fault / session operations.
    /// Every choice an operation makes is a function of its arguments
    /// and the system's own state, so two drivers fed the same stream
    /// stay in lockstep for as long as their systems agree.
    struct Driver {
        sys: StreamSystem,
        sessions: Vec<SessionId>,
        now: SimTime,
    }

    impl Driver {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let ip = InetConfig { nodes: 120, ..InetConfig::default() }.generate(&mut rng);
            let overlay =
                Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 4 }, &mut rng);
            let sys = StreamSystem::generate(
                overlay,
                FunctionRegistry::standard(),
                &SystemConfig::default(),
                &mut rng,
            );
            Driver { sys, sessions: Vec::new(), now: SimTime::ZERO }
        }

        fn hosted_functions(&self) -> Vec<FunctionId> {
            self.sys.registry().ids().filter(|&f| !self.sys.candidates(f).is_empty()).collect()
        }

        /// A component picked from a deliberately small pool, so streams
        /// revisit `(request, component)` keys and refresh them.
        fn component(&self, pick: usize) -> Option<ComponentId> {
            let fns = self.hosted_functions();
            let cands = self.sys.candidates(*fns.get(pick % fns.len().max(1))?);
            cands.get((pick / 5) % cands.len().max(1)).copied()
        }

        fn node(&self, pick: usize) -> OverlayNodeId {
            OverlayNodeId((pick % self.sys.node_count()) as u32)
        }

        /// Applies one operation; the returned count (leases dropped,
        /// sessions orphaned, …) must match between lockstep drivers.
        fn apply(&mut self, (kind, pick, req): (u8, usize, u64)) -> usize {
            let r = RequestId(req);
            let lease = SimDuration::from_secs(5 + (pick % 4) as u64 * 10);
            let done = match kind {
                // Reserve end-system resources (fresh lease or refresh).
                0 | 1 => match self.component(pick) {
                    Some(c) => {
                        let amount = ResourceVector::new(
                            0.1 + (pick % 7) as f64 * 0.13,
                            0.3 + (pick % 5) as f64 * 0.21,
                        );
                        usize::from(self.sys.reserve_component_transient(r, c, amount, self.now + lease))
                    }
                    None => 0,
                },
                // Reserve bandwidth along a virtual path.
                2 => {
                    let (a, b) = (self.node(pick), self.node(pick / 7 + 1));
                    match self.sys.virtual_path(a, b) {
                        Some(path) if a != b => {
                            let kbps = 0.5 + (pick % 9) as f64 * 0.37;
                            usize::from(self.sys.reserve_path_transient(
                                r, pick % 3, &path, kbps, self.now + lease,
                            ))
                        }
                        _ => 0,
                    }
                }
                3 => self.sys.release_request_transients(r),
                4 => {
                    if let Some(c) = self.component(pick) {
                        self.sys.release_component_transient(r, c);
                    }
                    0
                }
                5 => {
                    self.sys.release_path_transient(r, pick % 3);
                    0
                }
                // Time passes; the reclamation sweep runs.
                6 => {
                    self.now += SimDuration::from_secs((pick % 25) as u64);
                    self.sys.expire_transients(self.now)
                }
                // Node fail-stop, recovered at once (it comes back empty).
                7 => {
                    let v = self.node(pick);
                    if self.sys.is_node_failed(v) {
                        0
                    } else {
                        let orphaned = self.sys.fail_node(v, RepairPolicy::Terminate, SimTime::ZERO).1.orphaned.len();
                        self.sys.recover_node(v);
                        orphaned
                    }
                }
                8 => {
                    let l = OverlayLinkId((pick % self.sys.link_count()) as u32);
                    let orphaned = self.sys.fail_link(l, RepairPolicy::Terminate, SimTime::ZERO).orphaned.len();
                    self.sys.restore_link(l);
                    orphaned
                }
                9 => self.component(pick).map_or(0, |c| self.sys.crash_component(c, RepairPolicy::Terminate, SimTime::ZERO).orphaned.len()),
                10 => match self.component(pick) {
                    Some(c) => usize::from(self.sys.migrate_component(c, self.node(pick / 3)).is_ok()),
                    None => 0,
                },
                11 => usize::from(self.commit(pick, r)),
                12 => {
                    if self.sessions.is_empty() {
                        0
                    } else {
                        let sid = self.sessions.swap_remove(pick % self.sessions.len());
                        usize::from(self.sys.close_session(sid))
                    }
                }
                13 => self.degrade_and_splice(),
                _ => unreachable!(),
            };
            self.sessions.retain(|&sid| self.sys.session(sid).is_some());
            done
        }

        /// Commits a three-function path session under `r`, promoting
        /// whatever leases `r` holds.
        fn commit(&mut self, pick: usize, r: RequestId) -> bool {
            let fns = self.hosted_functions();
            if fns.len() < 3 || self.sys.has_session_for(r) {
                return false;
            }
            let chain: Vec<FunctionId> = (0..3).map(|i| fns[(pick + i) % fns.len()]).collect();
            let assignment: Vec<ComponentId> = chain
                .iter()
                .map(|&f| {
                    let cands = self.sys.candidates(f);
                    cands[(pick / 3) % cands.len()]
                })
                .collect();
            let links: Option<Vec<_>> = assignment
                .windows(2)
                .map(|w| self.sys.virtual_path(w[0].node, w[1].node))
                .collect();
            let Some(links) = links else { return false };
            let request = Request {
                id: r,
                graph: FunctionGraph::path(chain),
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::new(0.2, 1.0),
                bandwidth_kbps: 2.0,
                stream_rate_kbps: 50.0,
                constraints: PlacementConstraints::none(),
                tenant: None,
            };
            match self.sys.commit_session(&request, Composition { assignment, links }) {
                Ok(sid) => {
                    self.sessions.push(sid);
                    true
                }
                Err(_) => false,
            }
        }

        /// Crashes the middle component of the oldest healthy session
        /// and repairs it make-before-break: commit a replacement
        /// mini-session, lease the boundary paths under its request,
        /// splice (which promotes those leases). A repair that cannot
        /// complete is abandoned. Returns 2 for a landed splice.
        fn degrade_and_splice(&mut self) -> usize {
            let sys = &mut self.sys;
            let Some(sid) = self
                .sessions
                .iter()
                .copied()
                .find(|&sid| sys.session(sid).is_some_and(|s| !s.is_degraded()))
            else {
                return 0;
            };
            let s = sys.session(sid).expect("just found");
            let request = s.request_spec.clone();
            let (c0, c1, c2) =
                (s.composition.assignment[0], s.composition.assignment[1], s.composition.assignment[2]);
            if !sys.crash_component(c1, RepairPolicy::Repair, self.now).degraded.contains(&sid) {
                return 1;
            }
            let mid = request.graph.function(1);
            let mini_request = Request {
                id: RequestId(MINI | request.id.0),
                graph: FunctionGraph::path(vec![mid]),
                ..request.clone()
            };
            let expires = self.now + SimDuration::from_secs(30);
            let replacements = sys.candidates(mid).to_vec();
            for c in replacements {
                let segment = Composition { assignment: vec![c], links: vec![] };
                let Ok(mini) = sys.commit_session(&mini_request, segment) else { continue };
                let (prefix, suffix) =
                    (sys.virtual_path(c0.node, c.node), sys.virtual_path(c.node, c2.node));
                let held = match (&prefix, &suffix) {
                    (Some(p), Some(q)) => {
                        sys.reserve_path_transient(mini_request.id, 0, p, request.bandwidth_kbps, expires)
                            && sys.reserve_path_transient(mini_request.id, 1, q, request.bandwidth_kbps, expires)
                    }
                    _ => false,
                };
                if held
                    && sys.splice_repair(sid, mini, mini_request.id, prefix, suffix, self.now).is_ok()
                {
                    return 2;
                }
                sys.release_request_transients(mini_request.id);
                sys.close_session(mini);
            }
            sys.abandon_repair(sid);
            1
        }
    }

    /// The reference the directory is checked against: a lockstep twin
    /// whose directory is thrown away and recomputed by a walk over every
    /// node and every link around each operation. It therefore finds
    /// leases the way the pre-directory full scans did, and the
    /// maintained directory must never make the system under test behave
    /// differently from it.
    fn apply_with_full_scans(oracle: &mut Driver, op: (u8, usize, u64)) -> usize {
        oracle.sys.rescan_lease_directory();
        let done = oracle.apply(op);
        oracle.sys.rescan_lease_directory();
        done
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Under arbitrary interleavings of reserve / refresh, the three
        /// releases, expiry, node and link fail-stop, crash, migration,
        /// commit, close and splice, the directory-backed system and the
        /// full-scan oracle agree after every operation on versions, the
        /// lease ledger, availability and who holds leases — and the
        /// auditor never finds the directory drifted.
        #[test]
        fn directory_matches_full_scan_oracle_under_churn(
            seed in 0u64..6,
            ops in prop::collection::vec((0u8..14, 0usize..512, 1u64..7), 1..64),
        ) {
            let mut sut = Driver::new(seed);
            let mut oracle = Driver::new(seed);
            let auditor = SystemAuditor::default();
            for (step, op) in ops.into_iter().enumerate() {
                let done = sut.apply(op);
                let expected = apply_with_full_scans(&mut oracle, op);
                prop_assert_eq!(done, expected, "step {} {:?}: outcome", step, op);
                let (a, b) = (&sut.sys, &oracle.sys);
                prop_assert_eq!(a.node_versions(), b.node_versions(), "step {} {:?}", step, op);
                prop_assert_eq!(a.link_versions(), b.link_versions(), "step {} {:?}", step, op);
                prop_assert_eq!(a.lease_stats(), b.lease_stats(), "step {} {:?}", step, op);
                prop_assert_eq!(a.leased_requests(), b.leased_requests(), "step {} {:?}", step, op);
                prop_assert_eq!(a.live_lease_count(), b.live_lease_count(), "step {} {:?}", step, op);
                prop_assert_eq!(a.next_lease_expiry(), b.next_lease_expiry(), "step {} {:?}", step, op);
                for i in 0..a.node_count() as u32 {
                    let v = OverlayNodeId(i);
                    prop_assert_eq!(a.node_available(v), b.node_available(v), "step {} {:?}: {}", step, op, v);
                }
                for i in 0..a.link_count() as u32 {
                    let l = OverlayLinkId(i);
                    prop_assert_eq!(
                        a.link_available(l).to_bits(), b.link_available(l).to_bits(),
                        "step {} {:?}: link {}", step, op, i
                    );
                }
                prop_assert!(a.lease_stats().reconciles(a.live_lease_count() as u64));
                let report = auditor.audit(a);
                prop_assert!(
                    !report.violations().iter().any(|v| matches!(v, AuditViolation::LeaseDirectoryMismatch { .. })),
                    "step {} {:?}: {}", step, op, report
                );
            }
            // One lease lifetime later nothing may survive the sweep.
            sut.now += SimDuration::from_secs(60);
            sut.sys.expire_transients(sut.now);
            prop_assert_eq!(sut.sys.live_lease_count(), 0);
            prop_assert!(sut.sys.leased_requests().is_empty());
            prop_assert!(sut.sys.lease_stats().reconciles(0));
        }
    }
}

mod allocation_conservation {
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Committing then closing arbitrary batches of sessions restores
    /// every node and link to its initial availability.
    #[test]
    fn sessions_conserve_resources() {
        let mut rng = StdRng::seed_from_u64(42);
        let ip = InetConfig { nodes: 150, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
        let mut sys = StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng);

        let initial: Vec<ResourceVector> =
            (0..sys.node_count()).map(|i| sys.node_available(acp_topology::OverlayNodeId(i as u32))).collect();
        let initial_links: Vec<f64> = sys.overlay().links().map(|l| sys.link_available(l)).collect();

        // Build several single-edge requests between existing components.
        let mut sessions = Vec::new();
        let fns: Vec<FunctionId> = sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        for i in 0..10 {
            let f0 = fns[i % fns.len()];
            let f1 = fns[(i + 1) % fns.len()];
            let graph = FunctionGraph::path(vec![f0, f1]);
            let req = Request {
                id: RequestId(i as u64),
                graph,
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::new(0.5, 2.0),
                bandwidth_kbps: 5.0,
                stream_rate_kbps: 50.0,
                constraints: PlacementConstraints::none(),
                tenant: None,
            };
            let c0 = sys.candidates(f0)[i % sys.candidates(f0).len()];
            let c1 = sys.candidates(f1)[i % sys.candidates(f1).len()];
            let path = sys.virtual_path(c0.node, c1.node).unwrap();
            let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
            if let Ok(sid) = sys.commit_session(&req, comp) {
                sessions.push(sid);
            }
        }
        assert!(!sessions.is_empty(), "at least some sessions should commit");
        for sid in sessions {
            assert!(sys.close_session(sid));
        }
        for (i, &before) in initial.iter().enumerate() {
            let after = sys.node_available(acp_topology::OverlayNodeId(i as u32));
            assert!((after.cpu - before.cpu).abs() < 1e-9, "node {i} cpu leaked");
            assert!((after.memory_mb - before.memory_mb).abs() < 1e-9, "node {i} mem leaked");
        }
        for (i, l) in sys.overlay().links().enumerate() {
            assert!((sys.link_available(l) - initial_links[i]).abs() < 1e-9, "link {i} bw leaked");
        }
    }
}

mod tenant_isolation {
    use super::*;
    use acp_model::audit::SystemAuditor;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TIERS: [TenantTier; 3] = [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort];

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 120, ..InetConfig::default() }.generate(&mut rng);
        let overlay =
            Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 4 }, &mut rng);
        let mut sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        for (i, &tier) in TIERS.iter().enumerate() {
            sys.register_tenant(TenantId(i as u32), tier);
        }
        sys
    }

    fn binding(i: usize) -> TenantBinding {
        TenantBinding { tenant: TenantId((i % 3) as u32), tier: TIERS[i % 3] }
    }

    /// Commits a two-component session for tenant `binding(pick)`;
    /// returns its id when the system accepts it.
    fn commit(sys: &mut StreamSystem, pick: usize, req: u64) -> Option<SessionId> {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        if fns.len() < 2 || sys.has_session_for(RequestId(req)) {
            return None;
        }
        let f0 = fns[pick % fns.len()];
        let f1 = fns[(pick + 1) % fns.len()];
        let (c0s, c1s) = (sys.candidates(f0).to_vec(), sys.candidates(f1).to_vec());
        if c0s.is_empty() || c1s.is_empty() {
            return None;
        }
        let c0 = c0s[pick % c0s.len()];
        let c1 = c1s[pick % c1s.len()];
        if c0 == c1 {
            return None;
        }
        let path = sys.virtual_path(c0.node, c1.node)?;
        let request = Request {
            id: RequestId(req),
            graph: FunctionGraph::path(vec![f0, f1]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.2, 1.0),
            bandwidth_kbps: 2.0,
            stream_rate_kbps: 50.0,
            constraints: PlacementConstraints::none(),
            tenant: Some(binding(pick)),
        };
        let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
        sys.commit_session(&request, comp).ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Under arbitrary commit / close / crash / migrate / preempt
        /// churn, every per-tenant ledger entry reconciles at every
        /// step, derived per-tenant sums agree with the session table
        /// (the auditor's tenant pass stays clean alongside the global
        /// conservation passes), and preemption victims are exclusively
        /// best-effort.
        #[test]
        fn tenant_ledgers_reconcile_under_churn(
            seed in 0u64..6,
            ops in prop::collection::vec((0u8..6, 0usize..64, 1u64..64), 1..48),
        ) {
            let mut sys = build(seed);
            let auditor = SystemAuditor::default();
            let mut live: Vec<SessionId> = Vec::new();
            for (kind, pick, req) in ops {
                match kind {
                    // Admit: commit a session for a cycling tenant.
                    0 | 1 => {
                        if let Some(sid) = commit(&mut sys, pick, req) {
                            live.push(sid);
                        }
                    }
                    // Graceful close.
                    2 => {
                        if !live.is_empty() {
                            let sid = live.swap_remove(pick % live.len());
                            sys.close_session(sid);
                        }
                    }
                    // Fail-stop node fault (kills its sessions) and
                    // immediate recovery.
                    3 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        if !sys.is_node_failed(v) {
                            sys.fail_node(v, RepairPolicy::Terminate, SimTime::ZERO);
                            sys.recover_node(v);
                        }
                    }
                    // Component crash (kills its sessions).
                    4 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        let cands: Vec<ComponentId> =
                            sys.node(v).components().map(|c| c.id).collect();
                        if !cands.is_empty() {
                            sys.crash_component(cands[pick % cands.len()], RepairPolicy::Terminate, SimTime::ZERO);
                        }
                    }
                    // Preempt: reclaim a best-effort session the way
                    // the pressure controller does.
                    5 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        if let Some(&sid) = sys.best_effort_sessions_on(v).first() {
                            prop_assert!(sys.preempt_session(sid).is_some());
                        }
                    }
                    _ => unreachable!(),
                }
                live.retain(|&sid| sys.sessions().any(|s| s.id == sid));
                for (id, stats) in sys.tenant_ledger().iter() {
                    prop_assert!(
                        stats.reconciles(),
                        "tenant {id} ledger broken mid-run: {stats:?}"
                    );
                    if stats.tier != TenantTier::BestEffort {
                        prop_assert_eq!(
                            stats.preempted, 0,
                            "preemption must only touch best-effort, hit {:?}", stats.tier
                        );
                    }
                }
                let report = auditor.audit_at(&sys, None);
                prop_assert!(report.is_clean(), "{}", report);
            }
            // Drain everything; the ledgers must return to zero live.
            for sid in live {
                sys.close_session(sid);
            }
            for (id, stats) in sys.tenant_ledger().iter() {
                prop_assert_eq!(stats.live, 0, "tenant {} still live: {:?}", id, stats);
                prop_assert!(stats.reconciles(), "final ledger broken: {stats:?}");
                prop_assert!(
                    stats.committed.iter().all(|(_, v)| v.abs() < 1e-6),
                    "tenant {} resources leaked: {:?}", id, stats
                );
            }
            let report = auditor.audit_at(&sys, None);
            prop_assert!(report.is_clean(), "{}", report);
        }

        /// `migrate_component` relocates deployments, never sessions:
        /// tenant ledgers are untouched by migration rounds.
        #[test]
        fn migration_preserves_tenant_ledgers(
            seed in 0u64..4,
            moves in prop::collection::vec((0usize..64, 0u32..15), 1..12),
        ) {
            let mut sys = build(seed);
            for i in 0..8u64 {
                commit(&mut sys, i as usize * 7 + 1, i + 1);
            }
            let before: Vec<_> =
                sys.tenant_ledger().iter().map(|(id, s)| (id, *s)).collect();
            for (pick, node) in moves {
                let v = OverlayNodeId(node % sys.node_count() as u32);
                let cands: Vec<ComponentId> =
                    sys.node(v).components().map(|c| c.id).collect();
                if let Some(&c) = cands.get(pick % cands.len().max(1)) {
                    let to = OverlayNodeId((node + 1) % sys.node_count() as u32);
                    let _ = sys.migrate_component(c, to);
                }
            }
            let after: Vec<_> = sys.tenant_ledger().iter().map(|(id, s)| (id, *s)).collect();
            prop_assert_eq!(before, after, "migration must not move tenant accounting");
        }
    }
}
