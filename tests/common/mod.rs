//! Shared fixtures for the root integration suites. Each test binary
//! compiles this module independently (`mod common;`), so helpers a
//! given suite doesn't use are expected.
#![allow(dead_code)]

use acp_stream::prelude::*;

/// The small scenario's universe: system, state board, template library.
pub fn universe(
    seed: u64,
) -> (acp_stream::model::StreamSystem, GlobalStateBoard, acp_stream::model::TemplateLibrary) {
    build_system(&ScenarioConfig::small(seed))
}

/// A middleware over the small universe with ~20+ live sessions admitted
/// from the seeded request stream — the standard failure-injection
/// fixture.
pub fn loaded_middleware(seed: u64) -> (Middleware<AcpComposer>, Vec<SessionId>) {
    let (system, board, library) = universe(seed);
    let mut mw = Middleware::new(system, board, AcpComposer::new(ProbingConfig::default(), 3));
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(seed).stream("failover");
    let mut sessions = Vec::new();
    for _ in 0..30 {
        let (request, _) = generator.next(&mut rng);
        if let Some(sid) = mw.find(&request, SimTime::ZERO) {
            sessions.push(sid);
        }
    }
    assert!(sessions.len() >= 20, "idle system should admit most requests");
    (mw, sessions)
}

/// [`loaded_middleware`] with three registered
/// tenants (Gold, Silver, BestEffort), every admitted session bound to
/// one of them round-robin.
pub fn tenanted_middleware(seed: u64) -> (Middleware<AcpComposer>, Vec<SessionId>) {
    let (mut system, board, library) = universe(seed);
    for (i, tier) in [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort]
        .into_iter()
        .enumerate()
    {
        system.register_tenant(TenantId(i as u32), tier);
    }
    let mut mw = Middleware::new(system, board, AcpComposer::new(ProbingConfig::default(), 3));
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(seed).stream("failover");
    let mut sessions = Vec::new();
    for i in 0..30u32 {
        let (mut request, _) = generator.next(&mut rng);
        let tier = [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort][i as usize % 3];
        request.tenant = Some(TenantBinding { tenant: TenantId(i % 3), tier });
        if let Some(sid) = mw.find(&request, SimTime::ZERO) {
            sessions.push(sid);
        }
    }
    assert!(sessions.len() >= 20, "idle system should admit most requests");
    (mw, sessions)
}

/// Asserts a clean audit, printing the violations otherwise.
pub fn assert_audit_clean(mw: &Middleware<AcpComposer>, context: &str) {
    let report = mw.audit();
    assert!(report.is_clean(), "audit after {context}:\n{report}");
}
