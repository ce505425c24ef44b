//! Cross-crate integration tests: the full pipeline from topology
//! generation to session teardown, exercised through the facade crate.

mod common;

use acp_stream::prelude::*;
use common::{meets_its_qos, universe};

/// §2.2's `Find` / `Process` / `Close`: compose, check each session's
/// Eq. 3 end-to-end QoS against its request, tear down.
#[test]
fn find_process_close_through_the_composer() {
    let (mut system, board, library) = universe(1);
    let mut acp = AcpComposer::new(ProbingConfig::default(), 9);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(1).stream("it");

    let mut sessions = Vec::new();
    let mut attempts = 0;
    while sessions.len() < 5 && attempts < 50 {
        let (request, _) = generator.next(&mut rng);
        attempts += 1;
        sessions.extend(acp.compose(&mut system, &board, &request, SimTime::ZERO).session);
    }
    assert!(sessions.len() >= 5, "most requests should compose on an idle system");

    for &sid in &sessions {
        assert!(meets_its_qos(&system, sid), "session {sid} misses its QoS");
    }
    for &sid in &sessions {
        assert!(system.close_session(sid));
        assert!(system.session(sid).is_none(), "closed session gone");
        assert!(!system.close_session(sid), "double close fails");
    }
    assert_eq!(system.session_count(), 0);
}

/// ACP is an approximation of the optimal algorithm: whenever ACP admits
/// a request, the exhaustive search must admit it too, and the exhaustive
/// φ(λ) is never worse than ACP's choice.
#[test]
fn acp_success_implies_optimal_success() {
    let (system, board, library) = universe(2);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(2).stream("cmp");

    let mut acp_successes = 0;
    let mut checked = 0;
    for _ in 0..30 {
        let (request, _) = generator.next(&mut rng);
        let mut acp_sys = system.clone();
        let mut acp = AcpComposer::new(ProbingConfig::default(), 3);
        let acp_out = acp.compose(&mut acp_sys, &board, &request, SimTime::ZERO);

        let mut opt_sys = system.clone();
        let mut opt = OptimalComposer::new(OptimalConfig::default());
        let opt_out = opt.compose(&mut opt_sys, &board, &request, SimTime::ZERO);

        if let Some(acp_sid) = acp_out.session {
            acp_successes += 1;
            let opt_sid = opt_out
                .session
                .expect("ACP admitted a request the exhaustive search rejected");
            // φ comparison on the pristine system.
            let acp_comp = acp_sys.session(acp_sid).unwrap().composition.clone();
            let opt_comp = opt_sys.session(opt_sid).unwrap().composition.clone();
            let fresh = system.clone();
            let acp_phi = acp_stream::model::metrics::congestion_aggregation(&fresh, &request, &acp_comp);
            let opt_phi = acp_stream::model::metrics::congestion_aggregation(&fresh, &request, &opt_comp);
            assert!(
                opt_phi <= acp_phi + 1e-6,
                "optimal φ {opt_phi} must not exceed ACP φ {acp_phi}"
            );
            checked += 1;
        }
    }
    assert!(acp_successes >= 15, "idle system should admit most requests ({acp_successes}/30)");
    assert!(checked >= 10);
}

/// The committed composition qualifies at admission time — function
/// coverage and interface rate (Eq. 2), end-to-end QoS (Eq. 3),
/// end-system resources (Eq. 4) and link bandwidth (Eq. 5): ACP never
/// returns an unqualified composition.
#[test]
fn committed_compositions_are_qualified() {
    let (mut system, board, library) = universe(3);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(3).stream("qual");
    let mut acp = AcpComposer::new(ProbingConfig::default(), 4);

    for _ in 0..40 {
        let (request, _) = generator.next(&mut rng);
        let before = system.clone();
        let out = acp.compose(&mut system, &board, &request, SimTime::ZERO);
        if let Some(sid) = out.session {
            let composition = system.session(sid).unwrap().composition.clone();
            // Against the pre-admission state, the composition qualifies.
            let mut pre = before;
            pre.release_request_transients(request.id);
            assert!(
                pre.qualify(&request, &composition).is_ok(),
                "unqualified composition committed"
            );
        }
    }
}

/// Stale global state degrades ACP's selection quality but never its
/// correctness: with a board that is never refreshed, every committed
/// composition is still qualified.
#[test]
fn stale_board_never_breaks_correctness() {
    let (mut system, board, library) = universe(4);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(4).stream("stale");
    let mut acp = AcpComposer::new(ProbingConfig::default(), 5);

    let mut successes = 0;
    for _ in 0..100 {
        let (request, _) = generator.next(&mut rng);
        // board deliberately never refreshed
        let before = system.clone();
        let out = acp.compose(&mut system, &board, &request, SimTime::ZERO);
        if let Some(sid) = out.session {
            successes += 1;
            let composition = system.session(sid).unwrap().composition.clone();
            let mut pre = before;
            pre.release_request_transients(request.id);
            assert!(pre.qualify(&request, &composition).is_ok());
        }
    }
    assert!(successes > 0);
}

/// Failure injection: bursts of impossible requests leave no residue and
/// do not affect subsequent admissions.
#[test]
fn impossible_bursts_leave_no_residue() {
    let (mut system, board, library) = universe(5);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(5).stream("burst");
    let mut acp = AcpComposer::new(ProbingConfig::default(), 6);

    // Baseline admission.
    let (probe_req, _) = generator.next(&mut rng);
    let baseline = acp
        .compose(&mut system.clone(), &board, &probe_req, SimTime::ZERO)
        .session
        .is_some();

    // Burst of impossible requests (absurd resources).
    for _ in 0..25 {
        let (mut request, _) = generator.next(&mut rng);
        request.base_resources = ResourceVector::new(1e9, 1e9);
        let out = acp.compose(&mut system, &board, &request, SimTime::ZERO);
        assert!(out.session.is_none());
    }
    // No sessions, no transient residue.
    assert_eq!(system.session_count(), 0);
    for v in system.overlay().nodes() {
        assert_eq!(system.node(v).transient_count(), 0, "transient residue on {v}");
    }
    // The original request still behaves as before.
    let after = acp.compose(&mut system, &board, &probe_req, SimTime::ZERO).session.is_some();
    assert_eq!(baseline, after);
}

/// Transient reservations of concurrent in-flight requests block each
/// other until expiry (the paper's conflicting-admission protection).
#[test]
fn transient_expiry_restores_capacity() {
    let (mut system, _board, library) = universe(6);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(6).stream("transient");
    let (request, _) = generator.next(&mut rng);

    // Hand-reserve everything on one node as another request would.
    let victim = system.overlay().nodes().next().unwrap();
    let avail = system.node_available(victim);
    let component = system.node(victim).components().next().unwrap().id;
    assert!(system.reserve_component_transient(
        RequestId(999_999),
        component,
        avail,
        SimTime::from_secs(30)
    ));
    let with_hold = system.node_available(victim);
    assert!(with_hold.cpu < 1e-9, "node fully reserved");

    // Time passes; expiry restores capacity.
    system.expire_transients(SimTime::from_secs(30));
    let restored = system.node_available(victim);
    assert!((restored.cpu - avail.cpu).abs() < 1e-9);
    assert!((restored.memory_mb - avail.memory_mb).abs() < 1e-9);
    let _ = request;
}

/// Full scenario reruns bit-identically across processes (determinism of
/// the whole stack: topology, workload, probing, state maintenance).
#[test]
fn scenario_is_deterministic_through_facade() {
    let a = run_scenario(ScenarioConfig::small(77));
    let b = run_scenario(ScenarioConfig::small(77));
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.total_successes, b.total_successes);
    assert_eq!(a.overhead, b.overhead);
    assert_eq!(a.success_series.samples(), b.success_series.samples());
}
