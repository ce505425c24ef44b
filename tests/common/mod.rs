//! Shared fixtures for the root integration suites. Each test binary
//! compiles this module independently (`mod common;`), so helpers a
//! given suite doesn't use are expected.
#![allow(dead_code)]

use acp_stream::prelude::*;

/// The small scenario's universe: system, state board, template library.
pub fn universe(seed: u64) -> (StreamSystem, GlobalStateBoard, TemplateLibrary) {
    build_system(&ScenarioConfig::small(seed))
}

/// The parts `run_scenario` drives, held directly.
pub struct Stack {
    pub system: StreamSystem,
    pub board: GlobalStateBoard,
    pub acp: AcpComposer,
}

impl Stack {
    /// Composes and commits `request` with ACP (§2.2's `Find`).
    pub fn compose(&mut self, request: &Request, now: SimTime) -> Option<SessionId> {
        self.acp.compose(&mut self.system, &self.board, request, now).session
    }

    /// One fault as a churn scenario replays it: applied under
    /// `Terminate`, the stale half of the board published, each orphaned
    /// request recomposed. Returns the undeployed components and each
    /// orphan's new session (`None`: lost).
    pub fn fail_over(&mut self, kind: FaultKind, now: SimTime) -> (Vec<ComponentId>, Vec<Option<SessionId>>) {
        let fault = self.system.apply_fault(kind, RepairPolicy::Terminate, now);
        self.board.publish(&self.system, fault.stale);
        (fault.undeployed, fault.broken.orphaned.iter().map(|r| self.compose(r, now)).collect())
    }

    /// Asserts the system invariants and the board's coherence in one pass.
    pub fn assert_audit_clean(&self, context: &str) {
        let mut report = SystemAuditor.audit(&self.system);
        report.merge(AuditReport::from_violations(self.board.audit_against(&self.system)));
        assert!(report.is_clean(), "audit after {context}:\n{report}");
    }
}

/// A stack over the small universe with 20+ live sessions admitted from
/// the seeded request stream. `tenanted` registers three tenants (Gold,
/// Silver, BestEffort) and binds the requests to them round-robin.
pub fn loaded(seed: u64, tenanted: bool) -> (Stack, Vec<SessionId>) {
    let (mut system, board, library) = universe(seed);
    let tiers = [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort];
    if tenanted {
        for (i, &tier) in tiers.iter().enumerate() {
            system.register_tenant(TenantId(i as u32), tier);
        }
    }
    let mut stack = Stack { system, board, acp: AcpComposer::new(ProbingConfig::default(), 3) };
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(seed).stream("failover");
    let mut sessions = Vec::new();
    for i in 0..30usize {
        let (mut request, _) = generator.next(&mut rng);
        request.tenant = tenanted.then(|| TenantBinding { tenant: TenantId(i as u32 % 3), tier: tiers[i % 3] });
        sessions.extend(stack.compose(&request, SimTime::ZERO));
    }
    assert!(sessions.len() >= 20, "idle system should admit most requests");
    (stack, sessions)
}

/// Eq. 3: the session's end-to-end QoS, aggregated over its request
/// graph at the system's current state, meets the request's requirement.
pub fn meets_its_qos(system: &StreamSystem, sid: SessionId) -> bool {
    let s = system.session(sid).expect("live session");
    s.composition.aggregated_qos(&s.request_spec.graph, |c| system.effective_component_qos(c)).satisfies(&s.request_spec.qos)
}
