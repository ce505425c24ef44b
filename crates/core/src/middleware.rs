//! The session-oriented middleware interface (§2.2).
//!
//! The paper's stream-processing middleware exposes three operations:
//!
//! * `sessionId = Find(ξ, Q^req, R^req)` — run optimal component
//!   composition; a session record is created on success, a null id
//!   (here: `None`) signals composition failure.
//! * `Process(sessionId, data streams)` — start continuous processing on
//!   the session's component graph.
//! * `Close(sessionId)` — tear the session down and delete its record.
//!
//! [`Middleware`] wires a [`Composer`] to a [`StreamSystem`] plus its
//! [`GlobalStateBoard`] behind exactly this interface.

use acp_model::prelude::*;
use acp_simcore::{FaultKind, SimDuration, SimTime};
use acp_state::GlobalStateBoard;

use crate::algorithms::Composer;
use crate::overhead::OverheadStats;

/// Outcome of processing a batch of data units through a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessReport {
    /// Units pushed into the session.
    pub units_in: u64,
    /// Expected units delivered after end-to-end loss.
    pub expected_units_out: f64,
    /// End-to-end per-unit latency along the critical path.
    pub per_unit_delay: SimDuration,
    /// End-to-end loss probability.
    pub loss_probability: f64,
}

/// Outcome of failing over from one fault.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Components undeployed by the fault.
    pub undeployed: Vec<ComponentId>,
    /// Sessions re-established on new compositions: `(old request id,
    /// new session id)`.
    pub recovered: Vec<(RequestId, SessionId)>,
    /// Requests whose sessions could not be recomposed.
    pub lost: Vec<RequestId>,
}

/// The session-oriented stream-processing middleware.
pub struct Middleware<C: Composer> {
    system: StreamSystem,
    board: GlobalStateBoard,
    composer: C,
    overhead: OverheadStats,
}

impl<C: Composer> Middleware<C> {
    /// Assembles the middleware from its parts.
    pub fn new(system: StreamSystem, board: GlobalStateBoard, composer: C) -> Self {
        Middleware { system, board, composer, overhead: OverheadStats::new() }
    }

    /// `Find`: invokes the composition algorithm. Returns the session id
    /// on success, `None` on composition failure.
    pub fn find(&mut self, request: &Request, now: SimTime) -> Option<SessionId> {
        let out = self.composer.compose(&mut self.system, &self.board, request, now);
        self.overhead += out.stats;
        out.session
    }

    /// `Process`: pushes `units` data units through an established
    /// session, reporting the expected delivery and latency from the
    /// composition's aggregated QoS.
    ///
    /// Returns `None` for unknown sessions.
    pub fn process(&self, session: SessionId, units: u64) -> Option<ProcessReport> {
        let record = self.system.session(session)?;
        // Reconstruct the request graph shape from the composition: QoS
        // aggregation only needs per-component QoS and the stored links.
        let qos = self.session_qos(record);
        let loss = qos.loss.probability();
        Some(ProcessReport {
            units_in: units,
            expected_units_out: units as f64 * (1.0 - loss),
            per_unit_delay: qos.delay,
            loss_probability: loss,
        })
    }

    fn session_qos(&self, record: &Session) -> Qos {
        // Critical-path aggregation over the stored composition: sum
        // component QoS plus link QoS along the worst chain. Sessions keep
        // links index-aligned with their request's edges, but the request
        // graph itself is not stored; the composition's own link endpoints
        // recover the chain structure for paths, and for DAGs the
        // summation over all elements is an upper bound — conservative.
        let comp = &record.composition;
        let mut qos: Qos = comp.assignment.iter().map(|&c| self.system.effective_component_qos(c)).sum();
        for path in &comp.links {
            qos += Qos::of_link(path);
        }
        qos
    }

    /// `Close`: tears down the session, releasing its resources. Returns
    /// `false` for unknown sessions.
    pub fn close(&mut self, session: SessionId) -> bool {
        self.system.close_session(session)
    }

    /// Handles one fault: applies it to the system (sessions it strikes
    /// are terminated — the middleware runs no repair planner),
    /// publishes the stale half of the coarse state, and recomposes each
    /// orphaned request on what survives ("for failure resilience, we
    /// connect distributed nodes using application-level overlay links",
    /// §2.1 — the mesh survives, the sessions fail over). This is
    /// [`StreamSystem::apply_fault`], the call a churn scenario replays
    /// its fault plan through; recoveries and restores report nothing.
    pub fn handle_fault(&mut self, kind: FaultKind, now: SimTime) -> FailoverReport {
        let fault = self.system.apply_fault(kind, RepairPolicy::Terminate, now);
        self.overhead.state_update_messages += self.board.publish(&self.system, fault.stale);
        let mut report =
            FailoverReport { undeployed: fault.undeployed, recovered: Vec::new(), lost: Vec::new() };
        for request in fault.broken.orphaned {
            let out = self.composer.compose(&mut self.system, &self.board, &request, now);
            self.overhead += out.stats;
            match out.session {
                Some(sid) => report.recovered.push((request.id, sid)),
                None => report.lost.push(request.id),
            }
        }
        report
    }

    /// Audits the system invariants **and** the coarse view's structural
    /// coherence in one pass.
    pub fn audit(&self) -> AuditReport {
        let mut report = SystemAuditor::default().audit(&self.system);
        report.merge(AuditReport::from_violations(self.board.audit_against(&self.system)));
        report
    }

    /// Periodic maintenance: expire transient reservations and run
    /// threshold-triggered global-state updates.
    pub fn tick(&mut self, now: SimTime) {
        self.system.expire_transients(now);
        let msgs = self.board.refresh_nodes(&self.system);
        self.overhead.state_update_messages += msgs;
    }

    /// The accumulated message overhead (probing + state maintenance).
    pub fn overhead(&self) -> &OverheadStats {
        &self.overhead
    }

    /// Read access to the system.
    pub fn system(&self) -> &StreamSystem {
        &self.system
    }

    /// Mutable access to the system (tests, failure injection).
    pub fn system_mut(&mut self) -> &mut StreamSystem {
        &mut self.system
    }

    /// Read access to the coarse global state.
    pub fn board(&self) -> &GlobalStateBoard {
        &self.board
    }
}

impl<C: Composer> std::fmt::Debug for Middleware<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Middleware")
            .field("algorithm", &self.composer.name())
            .field("sessions", &self.system.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AcpComposer;
    use crate::protocol::ProbingConfig;
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> Middleware<AcpComposer> {
        let mut rng = StdRng::seed_from_u64(77);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
        let system = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
        Middleware::new(system, board, AcpComposer::new(ProbingConfig::default(), 5))
    }

    fn request(mw: &Middleware<AcpComposer>, id: u64) -> Request {
        let sys = mw.system();
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).take(3).collect();
        Request {
            id: RequestId(id),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.3, 1.5),
            bandwidth_kbps: 3.0,
            stream_rate_kbps: 64.0,
            constraints: PlacementConstraints::none(),
            tenant: None,
        }
    }

    #[test]
    fn find_process_close_lifecycle() {
        let mut mw = build();
        let req = request(&mw, 1);
        let sid = mw.find(&req, SimTime::ZERO).expect("find succeeds");
        assert_eq!(mw.system().session_count(), 1);

        let report = mw.process(sid, 1_000).expect("live session processes");
        assert_eq!(report.units_in, 1_000);
        assert!(report.expected_units_out <= 1_000.0);
        assert!(report.expected_units_out > 0.0);
        assert!(report.per_unit_delay > SimDuration::ZERO);

        assert!(mw.close(sid));
        assert_eq!(mw.system().session_count(), 0);
        assert!(mw.process(sid, 1).is_none(), "closed session gone");
        assert!(!mw.close(sid), "double close fails");
    }

    #[test]
    fn failed_find_returns_none() {
        let mut mw = build();
        let mut req = request(&mw, 2);
        req.qos = QosRequirement::new(SimDuration::from_micros(1), LossRate::ZERO);
        assert!(mw.find(&req, SimTime::ZERO).is_none());
        assert_eq!(mw.system().session_count(), 0);
    }

    #[test]
    fn overhead_accumulates_across_finds() {
        let mut mw = build();
        let r1 = request(&mw, 3);
        mw.find(&r1, SimTime::ZERO);
        let after_one = mw.overhead().probe_messages;
        let r2 = request(&mw, 4);
        mw.find(&r2, SimTime::ZERO);
        assert!(mw.overhead().probe_messages > after_one);
    }

    #[test]
    fn node_failure_fails_over_sessions() {
        let mut mw = build();
        // Establish a handful of sessions.
        let mut sids = Vec::new();
        for i in 0..8 {
            let req = request(&mw, 300 + i);
            if let Some(sid) = mw.find(&req, SimTime::ZERO) {
                sids.push(sid);
            }
        }
        assert!(sids.len() >= 6, "idle system should admit");
        // Fail the node hosting the most sessions' components.
        let victim = mw
            .system()
            .sessions()
            .flat_map(|s| s.composition.assignment.iter().map(|c| c.node))
            .next()
            .expect("sessions exist");
        let before_sessions = mw.system().session_count();
        let report = mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(1));
        assert!(mw.system().is_node_failed(victim));
        assert!(!report.undeployed.is_empty());
        assert!(!report.recovered.is_empty() || !report.lost.is_empty(), "some session was affected");
        // Recovered sessions avoid the failed node entirely.
        for &(_, sid) in &report.recovered {
            let composition = &mw.system().session(sid).unwrap().composition;
            assert!(composition.assignment.iter().all(|c| c.node != victim));
        }
        // Session count: before - affected + recovered
        let affected = report.recovered.len() + report.lost.len();
        assert_eq!(
            mw.system().session_count(),
            before_sessions - affected + report.recovered.len()
        );
    }

    #[test]
    fn failed_node_rejects_everything() {
        let mut mw = build();
        let victim = acp_topology::OverlayNodeId(0);
        mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::ZERO);
        let sys = mw.system_mut();
        assert_eq!(sys.node_available(victim), ResourceVector::ZERO);
        assert_eq!(sys.node(victim).component_count(), 0);
        // Discovery no longer offers anything on the failed node.
        for f in sys.registry().ids() {
            assert!(sys.candidates(f).iter().all(|c| c.node != victim));
        }
        // Recovery brings the (empty) node back.
        sys.recover_node(victim);
        assert!(!sys.is_node_failed(victim));
        assert!(sys.node_available(victim).cpu > 0.0);
    }

    #[test]
    fn link_failure_fails_over_and_audits_clean() {
        let mut mw = build();
        for i in 0..10 {
            let req = request(&mw, 400 + i);
            mw.find(&req, SimTime::ZERO);
        }
        // Fail a link some session actually streams over, if any.
        let used = mw
            .system()
            .sessions()
            .flat_map(|s| s.link_allocations().iter().map(|&(l, _)| l))
            .next();
        let link = used.unwrap_or(acp_topology::OverlayLinkId(0));
        let report = mw.handle_fault(FaultKind::LinkFail { link: link.0 }, SimTime::from_secs(1));
        assert!(mw.system().is_link_failed(link));
        assert_eq!(mw.system().link_available(link), 0.0);
        if used.is_some() {
            assert!(!report.recovered.is_empty() || !report.lost.is_empty());
        }
        // No recovered session streams over the dead link.
        for &(_, sid) in &report.recovered {
            assert!(!mw.system().session(sid).unwrap().uses_link(link));
        }
        let audit = mw.audit();
        assert!(audit.is_clean(), "{audit}");
        // Restore re-opens the bandwidth.
        mw.handle_fault(FaultKind::LinkRestore { link: link.0 }, SimTime::from_secs(2));
        assert!(!mw.system().is_link_failed(link));
        assert!(mw.audit().is_clean());
    }

    #[test]
    fn component_crash_fails_over_sessions() {
        let mut mw = build();
        for i in 0..6 {
            let req = request(&mw, 500 + i);
            mw.find(&req, SimTime::ZERO);
        }
        let victim = mw
            .system()
            .sessions()
            .flat_map(|s| s.composition.assignment.iter().copied())
            .next()
            .expect("sessions exist");
        let ordinal =
            mw.system().node(victim.node).components().position(|c| c.id == victim).expect("live");
        let crash = FaultKind::ComponentCrash { node: victim.node.0, ordinal: ordinal as u64 };
        let report = mw.handle_fault(crash, SimTime::from_secs(1));
        assert_eq!(report.undeployed, vec![victim]);
        assert!(!report.recovered.is_empty() || !report.lost.is_empty());
        // The crashed component serves nothing and is gone from discovery.
        assert!(!mw.system().component_in_use(victim));
        for f in mw.system().registry().ids() {
            assert!(mw.system().candidates(f).iter().all(|&c| c != victim));
        }
        for &(_, sid) in &report.recovered {
            let composition = &mw.system().session(sid).unwrap().composition;
            assert!(!composition.assignment.contains(&victim));
        }
        let audit = mw.audit();
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn node_recovery_rejoins_admission_and_mesh() {
        let mut mw = build();
        let victim = acp_topology::OverlayNodeId(1);
        mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::ZERO);
        assert!(mw.system().overlay().is_node_down(victim));
        mw.handle_fault(FaultKind::NodeRecover { node: victim.0 }, SimTime::from_secs(1));
        assert!(!mw.system().is_node_failed(victim));
        assert!(!mw.system().overlay().is_node_down(victim));
        assert!(mw.system().node_available(victim).cpu > 0.0);
        let audit = mw.audit();
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn tick_runs_state_maintenance() {
        let mut mw = build();
        // heavy enough load to cross the publish threshold somewhere
        for i in 0..20 {
            let mut req = request(&mw, 100 + i);
            req.base_resources = ResourceVector::new(2.0, 10.0);
            mw.find(&req, SimTime::ZERO);
        }
        mw.tick(SimTime::from_secs(10));
        assert!(mw.overhead().state_update_messages > 0);
    }
}
