//! Live-session repair: make-before-break segment recomposition.
//!
//! When a fault degrades a live path session (its broken segment's
//! commitments released, a ticket opened in the
//! [`RepairLedger`]), the
//! [`RepairPlanner`] re-probes replacements for *just the broken hops*
//! instead of tearing the whole session down:
//!
//! 1. **Sub-request derivation** — the broken span `[lo, hi]` becomes a
//!    path sub-request over its functions, carrying the residual QoS
//!    budget (the end-to-end requirement minus what the healthy prefix
//!    and suffix already consume) and the original rates and resources.
//! 2. **Segment probing** — the sub-request runs through the caller's
//!    [`Composer`] (a scenario's is an ACP
//!    [`ProbingComposer`](crate::algorithms::ProbingComposer) under the
//!    run's setup transport): transient leases, per-hop qualification,
//!    φ-optimal selection, commit. The mini-session's resources are now
//!    *held* alongside the healthy remainder — make-before-break, never
//!    double-committed (the broken segment released its commitments at
//!    degrade time).
//! 3. **Boundary bridging** — the virtual paths stitching the healthy
//!    anchors to the new segment are reserved transiently under the
//!    mini-request, so splice-time promotion is the standard two-phase
//!    lease promotion.
//! 4. **Splice** — [`StreamSystem::splice_repair`] re-validates Eq. 2/3
//!    end-to-end on the spliced composition, absorbs the mini-session,
//!    promotes the boundary holds, and settles the ticket as repaired.
//!
//! Any failure dismantles the mini-session and its leases and leaves
//! the ticket open; the caller owns the retry budget and the
//! repair-vs-abandon policy. Non-path sessions never reach the planner:
//! the degrade operators terminate them outright (no well-defined broken
//! segment), routing them through the restart arm.

use acp_model::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use acp_state::GlobalStateBoard;
use acp_topology::{OverlayNodeId, SharedPath};

use crate::algorithms::{ComposeOutcome, Composer};

/// High-bit namespace for repair mini-requests: real workload request
/// ids stay below it, so a mini-request can never collide with (or be
/// mistaken for) an admitted request in leases, ledgers, or digests.
pub const MINI_REQUEST_BIT: u64 = 0x8000_0000_0000_0000;

/// Why a repair attempt failed. The ticket stays open in all cases; the
/// caller decides whether the budget allows another attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairFailure {
    /// Probing found no qualified replacement segment.
    NoComposition,
    /// No virtual path connects a healthy anchor to the new segment.
    Disconnected,
    /// A boundary path could not hold the session's bandwidth.
    BoundaryContended,
    /// The splice-time end-to-end re-validation (Eq. 2/3) rejected the
    /// spliced composition.
    SpliceRejected(AdmissionError),
}

impl RepairFailure {
    /// True when a later retry of the *same* splice can plausibly
    /// succeed without the topology changing. Boundary bandwidth
    /// contention eases within seconds as neighbouring sessions end;
    /// the other failures are structural — no replacement candidates,
    /// no connecting path, or a deterministic QoS rejection — and stay
    /// failed until a heal event minutes away, so the caller should
    /// escalate to a full restart instead of burning retry budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, RepairFailure::BoundaryContended)
    }
}

/// Outcome of one [`RepairPlanner::repair_session`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairVerdict {
    /// The segment was spliced in; the session is healthy again.
    Repaired,
    /// The attempt failed; the session stays degraded.
    Failed(RepairFailure),
    /// The session is unknown or not degraded — nothing to repair.
    NotDegraded,
}

/// One repair attempt's verdict plus the underlying probing ledger
/// (absent when the attempt never reached probing).
#[derive(Debug, Clone)]
pub struct RepairAttempt {
    /// What happened.
    pub verdict: RepairVerdict,
    /// The mini-request's probing outcome, for overhead accounting.
    pub probing: Option<ComposeOutcome>,
}

/// Plans and executes make-before-break segment repairs. Stateful only
/// for the mini-request counter: drive repairs in canonical (ascending
/// session id) order so mini-request ids replay identically.
#[derive(Debug, Clone, Default)]
pub struct RepairPlanner {
    mini_counter: u64,
}

impl RepairPlanner {
    /// A fresh planner with an empty mini-request namespace.
    pub fn new() -> Self {
        RepairPlanner::default()
    }

    /// Attempts to repair degraded session `sid`: derives the broken
    /// segment's sub-request, composes a replacement with `composer`,
    /// bridges the boundaries under leases that last `transient_timeout`,
    /// and splices. Charges the ticket one attempt. See the module docs
    /// for the phase breakdown and failure semantics.
    pub fn repair_session(
        &mut self,
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        sid: SessionId,
        now: SimTime,
        composer: &mut dyn Composer,
        transient_timeout: SimDuration,
    ) -> RepairAttempt {
        // Snapshot what the borrow checker won't let us read later.
        let Some(session) = system.session(sid) else {
            return RepairAttempt { verdict: RepairVerdict::NotDegraded, probing: None };
        };
        let Some((lo, hi)) = session.broken_span() else {
            return RepairAttempt { verdict: RepairVerdict::NotDegraded, probing: None };
        };
        let request = session.request_spec.clone();
        let composition = session.composition.clone();
        let nv = composition.assignment.len();
        debug_assert!(request.graph.is_path(), "degrade ops terminate non-path sessions");

        system.repair_ledger_mut().begin_attempt(request.id);

        // Residual QoS budget: what the healthy prefix and suffix leave
        // of the end-to-end requirement, under current load. Heuristic
        // only — the splice re-validates Eq. 3 end-to-end regardless.
        let mut healthy = Qos::ZERO;
        for v in 0..nv {
            if !(lo..=hi).contains(&v) {
                healthy += system.effective_component_qos(composition.assignment[v]);
            }
        }
        for e in 0..composition.links.len() {
            let broken_edge = e + 1 >= lo && e <= hi;
            if !broken_edge {
                healthy += composition.link_qos(e);
            }
        }
        let delay_left =
            (request.qos.max_delay.as_secs_f64() - healthy.delay.as_secs_f64()).max(0.0);
        let loss_left =
            (request.qos.max_loss.log_survival() - healthy.loss.log_survival()).max(0.0);
        let budget = QosRequirement::new(
            SimDuration::from_secs_f64(delay_left),
            LossRate::from_log_survival(loss_left),
        );

        self.mini_counter += 1;
        let mini_request = Request {
            id: RequestId(MINI_REQUEST_BIT | self.mini_counter),
            graph: FunctionGraph::path((lo..=hi).map(|v| request.graph.function(v)).collect()),
            qos: budget,
            tenant: None,
            ..request.clone()
        };

        // Phase 1+2: probe and commit the replacement segment.
        let probing = composer.compose(system, board, &mini_request, now);
        let Some(mini_sid) = probing.session else {
            return RepairAttempt {
                verdict: RepairVerdict::Failed(RepairFailure::NoComposition),
                probing: Some(probing),
            };
        };

        // Boundary bridging: hold the anchor-to-segment paths under the
        // mini-request so the splice promotes them like any other lease.
        let mini_assignment =
            system.session(mini_sid).expect("just committed").composition.assignment.clone();
        let expiry = now + transient_timeout;
        let bridge = |system: &mut StreamSystem,
                          anchor: OverlayNodeId,
                          end: OverlayNodeId,
                          marker: usize|
         -> Result<SharedPath, RepairFailure> {
            let Some(path) = system.virtual_path(anchor, end) else {
                return Err(RepairFailure::Disconnected);
            };
            if !path.is_colocated()
                && !system.reserve_path_transient(
                    mini_request.id,
                    marker,
                    &path,
                    request.bandwidth_kbps,
                    expiry,
                )
            {
                return Err(RepairFailure::BoundaryContended);
            }
            Ok(path)
        };
        let mut prefix_path = None;
        if lo > 0 {
            let anchor = composition.assignment[lo - 1].node;
            let end = mini_assignment.first().expect("non-empty segment").node;
            match bridge(system, anchor, end, lo - 1) {
                Ok(p) => prefix_path = Some(p),
                Err(failure) => {
                    dismantle(system, mini_sid, mini_request.id);
                    return RepairAttempt {
                        verdict: RepairVerdict::Failed(failure),
                        probing: Some(probing),
                    };
                }
            }
        }
        let mut suffix_path = None;
        if hi + 1 < nv {
            let end = mini_assignment.last().expect("non-empty segment").node;
            let anchor = composition.assignment[hi + 1].node;
            match bridge(system, end, anchor, hi) {
                Ok(p) => suffix_path = Some(p),
                Err(failure) => {
                    dismantle(system, mini_sid, mini_request.id);
                    return RepairAttempt {
                        verdict: RepairVerdict::Failed(failure),
                        probing: Some(probing),
                    };
                }
            }
        }

        // Phase 3: splice — validate end-to-end, absorb the mini-session,
        // promote the boundary holds, settle the ticket.
        match system.splice_repair(sid, mini_sid, mini_request.id, prefix_path, suffix_path, now) {
            Ok(()) => {
                RepairAttempt { verdict: RepairVerdict::Repaired, probing: Some(probing) }
            }
            Err(e) => {
                dismantle(system, mini_sid, mini_request.id);
                RepairAttempt {
                    verdict: RepairVerdict::Failed(RepairFailure::SpliceRejected(e)),
                    probing: Some(probing),
                }
            }
        }
    }
}

/// Unwinds a failed attempt after the mini-session committed: drop the
/// boundary holds and close the mini-session (returning its books).
fn dismantle(system: &mut StreamSystem, mini_sid: SessionId, mini_id: RequestId) {
    system.release_request_transients(mini_id);
    system.close_session(mini_sid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ProbingComposer;
    use crate::protocol::{ProbingConfig, SetupConfig, TwoPhase};
    use acp_simcore::MessageFaultConfig;
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64, nodes: usize) -> (StreamSystem, GlobalStateBoard) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 250, ..InetConfig::default() }.generate(&mut rng);
        let overlay =
            Overlay::build(&ip, &OverlayConfig { stream_nodes: nodes, neighbors: 4 }, &mut rng);
        let sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        (sys, board)
    }

    fn path_request(sys: &StreamSystem, id: u64, len: usize) -> Request {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| sys.candidates(f).len() >= 3).take(len).collect();
        assert_eq!(fns.len(), len, "not enough populated functions");
        Request {
            id: RequestId(id),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.5, 2.0),
            bandwidth_kbps: 5.0,
            stream_rate_kbps: 100.0,
            tenant: None,
        }
    }

    #[test]
    fn repairs_crashed_middle_hop_in_place() {
        let (mut sys, board) = build(31, 40);
        let req = path_request(&sys, 1, 3);
        let cfg = ProbingConfig::default();
        let mut acp = ProbingComposer::new(cfg.clone(), 31);
        let out = acp.compose(&mut sys, &board, &req, SimTime::ZERO);
        let sid = out.session.expect("loose request composes");
        let victim = sys.session(sid).unwrap().composition.assignment[1];

        let t0 = SimTime::from_secs(20);
        let outcome = sys.crash_component(victim, RepairPolicy::Repair, t0);
        assert_eq!(outcome.degraded, vec![sid]);
        assert!(sys.session(sid).unwrap().is_degraded());

        let mut planner = RepairPlanner::new();
        let t1 = SimTime::from_secs(23);
        let attempt = planner.repair_session(&mut sys, &board, sid, t1, &mut acp, cfg.transient_timeout);
        assert_eq!(attempt.verdict, RepairVerdict::Repaired, "{attempt:?}");
        let s = sys.session(sid).expect("repaired in place");
        assert!(!s.is_degraded());
        assert_ne!(s.composition.assignment[1], victim);
        assert_eq!(sys.session_count(), 1, "mini-session absorbed");
        let ledger = sys.repair_ledger();
        assert_eq!(ledger.repaired, 1);
        assert!(ledger.reconciles());
        assert!((ledger.mttr_stats().sum - 3.0).abs() < 1e-9, "MTTR fault -> splice");
        let report = SystemAuditor.audit_at(&sys, Some(t1));
        assert!(report.is_clean(), "{report}");
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
        assert_eq!(planner.mini_counter, 1);
    }

    #[test]
    fn healthy_session_is_not_repaired() {
        let (mut sys, board) = build(32, 40);
        let req = path_request(&sys, 2, 3);
        let cfg = ProbingConfig::default();
        let mut acp = ProbingComposer::new(cfg.clone(), 32);
        let out = acp.compose(&mut sys, &board, &req, SimTime::ZERO);
        let sid = out.session.expect("composes");
        let mut planner = RepairPlanner::new();
        let attempt =
            planner.repair_session(&mut sys, &board, sid, SimTime::from_secs(1), &mut acp, cfg.transient_timeout);
        assert_eq!(attempt.verdict, RepairVerdict::NotDegraded);
        assert_eq!(planner.mini_counter, 0);
    }

    #[test]
    fn failed_attempt_keeps_the_ticket_open_and_leaves_no_residue() {
        let (mut sys, board) = build(33, 40);
        let req = path_request(&sys, 3, 3);
        let cfg = ProbingConfig::default();
        let mut acp = ProbingComposer::new(cfg.clone(), 33);
        let out = acp.compose(&mut sys, &board, &req, SimTime::ZERO);
        let sid = out.session.expect("composes");
        let mid_function = req.graph.function(1);
        let t0 = SimTime::from_secs(10);
        // Crash the session's middle hop, then every other candidate of
        // that function — probing has nothing left to splice.
        let victim = sys.session(sid).unwrap().composition.assignment[1];
        sys.crash_component(victim, RepairPolicy::Repair, t0);
        for c in sys.candidates(mid_function).to_vec() {
            sys.crash_component(c, RepairPolicy::Repair, t0);
        }
        assert!(sys.candidates(mid_function).is_empty());

        let mut planner = RepairPlanner::new();
        let attempt =
            planner.repair_session(&mut sys, &board, sid, SimTime::from_secs(12), &mut acp, cfg.transient_timeout);
        assert_eq!(
            attempt.verdict,
            RepairVerdict::Failed(RepairFailure::NoComposition),
            "{attempt:?}"
        );
        let s = sys.session(sid).expect("session still degraded, not torn down");
        assert!(s.is_degraded());
        let ticket = sys.repair_ledger().ticket(req.id).expect("ticket open");
        assert_eq!(ticket.attempts, 1);
        assert_eq!(sys.session_count(), 1, "no mini-session residue");
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
        // The budget-exhausted path gives up cleanly, as a run does: the
        // restart teardown, then the failed restart settles the ticket.
        let restart = sys.terminate_for_restart(sid).expect("a live session");
        sys.repair_ledger_mut().record_abandoned(restart.id);
        assert_eq!(sys.repair_ledger().abandoned, 1);
        assert!(sys.repair_ledger().reconciles());
        let report = SystemAuditor.audit(&sys);
        assert!(report.is_clean(), "{report}");
    }

    /// The repair path under a lossy transport: the segment's probes are
    /// dropped often enough that the first round comes back empty, the
    /// setup path retries with an escalated ratio, and the splice lands.
    #[test]
    fn two_phase_repair_retries_through_probe_loss_and_splices() {
        let (mut sys, board) = build(34, 40);
        let req = path_request(&sys, 4, 3);
        let cfg = ProbingConfig::default();
        let out = ProbingComposer::new(cfg.clone(), 34).compose(&mut sys, &board, &req, SimTime::ZERO);
        let sid = out.session.expect("composes");
        let victim = sys.session(sid).unwrap().composition.assignment[1];
        sys.crash_component(victim, RepairPolicy::Repair, SimTime::from_secs(20));

        let lossy = SetupConfig {
            faults: MessageFaultConfig { probe_drop: 0.5, ..MessageFaultConfig::default() },
            ..SetupConfig::default()
        };
        let mut repair = ProbingComposer::new(cfg.clone(), 35).with_setup(TwoPhase::new(0, lossy));
        let t1 = SimTime::from_secs(23);
        let attempt =
            RepairPlanner::new().repair_session(&mut sys, &board, sid, t1, &mut repair, cfg.transient_timeout);
        assert_eq!(attempt.verdict, RepairVerdict::Repaired, "{attempt:?}");
        let setup = attempt.probing.expect("the segment was probed").setup;
        assert!(setup.probes_lost > 0 && setup.retries > 0, "{setup:?}");
        assert_eq!(setup.attempts, setup.retries + 1);
        let s = sys.session(sid).expect("repaired in place");
        assert!(!s.is_degraded());
        assert_ne!(s.composition.assignment[1], victim);
        assert_eq!(sys.repair_ledger().repaired, 1);
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
        let report = SystemAuditor.audit_at(&sys, Some(t1));
        assert!(report.is_clean(), "{report}");
    }
}
