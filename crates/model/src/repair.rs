//! Per-session repair state machine and the repair ledger.
//!
//! When a fault breaks a live session under the *repair* policy, the
//! session is not torn down: the broken segment's commitments are
//! released, the session enters `Degraded`, and a ticket is opened here.
//! The repair planner (acp-core) later re-probes replacement components
//! for just the broken hops, splices them in make-before-break, and
//! settles the ticket as `Repaired`; exhausting the retry budget settles
//! it as `Abandoned`. The terminate-and-restart baseline shares the same
//! ledger: its tickets settle as *restored* (full recompose) instead of
//! repaired, so MTTR and survival are measured identically in both arms.
//!
//! Reconciliation invariant (checked by the auditor's repair pass):
//! `opened == repaired + restored + abandoned + cancelled + open`.

use acp_simcore::{Histogram, SimTime, SummaryStats};

use crate::request::RequestId;

/// What becomes of a live session a fault breaks — the one argument of
/// every fault operator in [`crate::faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Degrade path sessions in place — the broken segment's commitments
    /// are released, the rest kept — so a freshly probed replacement
    /// segment can be spliced in, make-before-break.
    Repair,
    /// Terminate-and-restart: the session is killed at fault time and
    /// recomposed from scratch. With a repair ledger this is the baseline
    /// arm (same detection latency, so MTTR is measured identically in
    /// both arms); without one it is plain failover.
    Terminate,
}

/// Phase of a session's repair state machine. `Healthy` is implicit (no
/// open ticket); `Repaired`/`Abandoned` are terminal and recorded as
/// ledger counters rather than held on a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPhase {
    /// Fault detected (or pending detection); broken segment released.
    Degraded,
    /// A repair attempt is in flight.
    Repairing,
    /// Splice succeeded (terminal).
    Repaired,
    /// Retry budget exhausted; session terminated (terminal).
    Abandoned,
}

/// An open repair ticket: one broken session awaiting repair (or one
/// killed session awaiting restart, in the terminate baseline). Keyed by
/// the session's *request* id, which survives both splice (same session)
/// and restart (new session, same request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairTicket {
    /// The broken session's request.
    pub request: RequestId,
    /// When the fault struck (MTTR is measured from here, not from
    /// detection — detection latency counts as outage).
    pub failed_at: SimTime,
    /// Repair attempts spent so far.
    pub attempts: u32,
    /// Current phase (`Degraded` or `Repairing` while open).
    pub phase: RepairPhase,
}

/// Running ledger of repair incidents, mirroring [`crate::tenant::TenantLedger`]:
/// open tickets sorted by request id plus lifetime counters and MTTR
/// accumulators. A ticket is opened by every session degraded under
/// [`RepairPolicy::Repair`] and by a restart driver; every other
/// operation is a no-op without one, so a repair-free run leaves the
/// ledger at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairLedger {
    /// Open tickets, sorted by request id (deterministic audit order).
    open: Vec<RepairTicket>,
    /// Tickets ever opened (fault incidents on live sessions).
    pub opened: u64,
    /// Tickets settled by a successful segment splice.
    pub repaired: u64,
    /// Tickets settled by a successful full restart (terminate baseline,
    /// or non-path sessions the splice planner cannot segment).
    pub restored: u64,
    /// Tickets settled by giving up (budget exhausted / unrepairable).
    pub abandoned: u64,
    /// Tickets cancelled because the session closed for an unrelated
    /// reason (natural end, preemption) while awaiting repair.
    pub cancelled: u64,
    /// Total repair/restart attempts across all tickets.
    pub attempts: u64,
    /// Splices that passed the end-to-end Eq. 2/3 re-validation. The
    /// auditor checks `validated == repaired`: every repaired session
    /// went through the full re-qualification at splice time.
    pub validated: u64,
    /// Time-to-repair observations (seconds), fault to settle.
    mttr: SummaryStats,
    /// MTTR histogram (seconds) for p50/p99 readouts.
    mttr_hist: Histogram,
}

impl Default for RepairLedger {
    fn default() -> Self {
        RepairLedger {
            open: Vec::new(),
            opened: 0,
            repaired: 0,
            restored: 0,
            abandoned: 0,
            cancelled: 0,
            attempts: 0,
            validated: 0,
            mttr: SummaryStats::new(),
            // 0–10 minutes at 0.5 s resolution covers every detection
            // latency + retry schedule the scenarios exercise.
            mttr_hist: Histogram::new(0.0, 600.0, 1200),
        }
    }
}

impl RepairLedger {
    /// Opens a ticket for `request` failing at `failed_at`. Idempotent:
    /// a second fault on an already-ticketed session keeps the original
    /// ticket (and its earlier `failed_at` — the outage started then).
    pub fn open_ticket(&mut self, request: RequestId, failed_at: SimTime) {
        match self.open.binary_search_by_key(&request, |t| t.request) {
            Ok(_) => {}
            Err(pos) => {
                self.open.insert(
                    pos,
                    RepairTicket { request, failed_at, attempts: 0, phase: RepairPhase::Degraded },
                );
                self.opened += 1;
            }
        }
    }

    /// Marks the ticket `Repairing` and charges one attempt. Returns
    /// `false` when no ticket is open for `request`.
    pub fn begin_attempt(&mut self, request: RequestId) -> bool {
        match self.ticket_mut(request) {
            Some(t) => {
                t.phase = RepairPhase::Repairing;
                t.attempts += 1;
                self.attempts += 1;
                true
            }
            None => false,
        }
    }

    /// Returns a failed attempt's ticket to `Degraded` (budget permitting,
    /// the planner will come back).
    pub fn attempt_failed(&mut self, request: RequestId) {
        if let Some(t) = self.ticket_mut(request) {
            t.phase = RepairPhase::Degraded;
        }
    }

    /// Settles the ticket as repaired (segment splice) at `now`,
    /// recording MTTR. `validated` marks a splice that passed the
    /// end-to-end Eq. 2/3 re-check.
    pub(crate) fn record_repaired(&mut self, request: RequestId, now: SimTime, validated: bool) {
        if let Some(t) = self.take(request) {
            self.repaired += 1;
            if validated {
                self.validated += 1;
            }
            let secs = now.saturating_since(t.failed_at).as_secs_f64();
            self.mttr.add(secs);
            self.mttr_hist.add(secs);
        }
    }

    /// Settles the ticket as restored (full recompose) at `now`,
    /// recording MTTR.
    pub fn record_restored(&mut self, request: RequestId, now: SimTime) {
        if let Some(t) = self.take(request) {
            self.restored += 1;
            let secs = now.saturating_since(t.failed_at).as_secs_f64();
            self.mttr.add(secs);
            self.mttr_hist.add(secs);
        }
    }

    /// Settles the ticket as abandoned (no MTTR — the session died).
    pub fn record_abandoned(&mut self, request: RequestId) {
        if self.take(request).is_some() {
            self.abandoned += 1;
        }
    }

    /// Cancels an open ticket because its session closed for an
    /// unrelated reason. No-op without a ticket.
    pub fn cancel(&mut self, request: RequestId) {
        if self.take(request).is_some() {
            self.cancelled += 1;
        }
    }

    fn take(&mut self, request: RequestId) -> Option<RepairTicket> {
        match self.open.binary_search_by_key(&request, |t| t.request) {
            Ok(pos) => Some(self.open.remove(pos)),
            Err(_) => None,
        }
    }

    fn ticket_mut(&mut self, request: RequestId) -> Option<&mut RepairTicket> {
        match self.open.binary_search_by_key(&request, |t| t.request) {
            Ok(pos) => Some(&mut self.open[pos]),
            Err(_) => None,
        }
    }

    /// The open ticket for `request`, if any.
    pub fn ticket(&self, request: RequestId) -> Option<&RepairTicket> {
        match self.open.binary_search_by_key(&request, |t| t.request) {
            Ok(pos) => Some(&self.open[pos]),
            Err(_) => None,
        }
    }

    /// Open tickets in ascending request-id order.
    pub(crate) fn open_tickets(&self) -> &[RepairTicket] {
        &self.open
    }

    /// Tickets settled successfully (either arm).
    pub fn recovered(&self) -> u64 {
        self.repaired + self.restored
    }

    /// MTTR summary over settled (recovered) tickets, seconds.
    pub fn mttr_stats(&self) -> &SummaryStats {
        &self.mttr
    }

    /// Approximate MTTR quantile in seconds (`None` with no recoveries).
    pub fn mttr_quantile(&self, q: f64) -> Option<f64> {
        self.mttr_hist.quantile(q)
    }

    /// True when every opened ticket is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.opened
            == self.repaired + self.restored + self.abandoned + self.cancelled + self.open.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn lifecycle_reconciles() {
        let mut ledger = RepairLedger::default();
        assert!(ledger.reconciles());
        ledger.open_ticket(RequestId(7), t(10));
        ledger.open_ticket(RequestId(3), t(12));
        ledger.open_ticket(RequestId(7), t(99)); // idempotent — keeps t=10
        assert_eq!(ledger.opened, 2);
        assert_eq!(ledger.ticket(RequestId(7)).unwrap().failed_at, t(10));
        assert!(ledger.reconciles());

        assert!(ledger.begin_attempt(RequestId(7)));
        assert_eq!(ledger.ticket(RequestId(7)).unwrap().phase, RepairPhase::Repairing);
        ledger.attempt_failed(RequestId(7));
        assert_eq!(ledger.ticket(RequestId(7)).unwrap().phase, RepairPhase::Degraded);
        assert!(ledger.begin_attempt(RequestId(7)));
        ledger.record_repaired(RequestId(7), t(40), true);
        assert_eq!(ledger.repaired, 1);
        assert_eq!(ledger.validated, 1);
        assert_eq!(ledger.attempts, 2);
        assert_eq!(ledger.mttr_stats().count, 1);
        assert!((ledger.mttr_stats().sum - 30.0).abs() < 1e-9);

        ledger.record_abandoned(RequestId(3));
        assert_eq!(ledger.abandoned, 1);
        assert!(ledger.reconciles());
        assert!(ledger.open_tickets().is_empty());
    }

    #[test]
    fn restart_arm_and_cancellation() {
        let mut ledger = RepairLedger::default();
        ledger.open_ticket(RequestId(1), t(5));
        ledger.open_ticket(RequestId(2), t(6));
        ledger.record_restored(RequestId(1), t(9));
        ledger.cancel(RequestId(2));
        ledger.cancel(RequestId(2)); // second cancel is a no-op
        assert_eq!(ledger.restored, 1);
        assert_eq!(ledger.cancelled, 1);
        assert_eq!(ledger.recovered(), 1);
        assert!(ledger.reconciles());
        assert!(ledger.mttr_quantile(0.5).unwrap() < 10.0);
    }

    #[test]
    fn settling_unknown_tickets_is_inert() {
        let mut ledger = RepairLedger::default();
        ledger.record_repaired(RequestId(9), t(1), true);
        ledger.record_restored(RequestId(9), t(1));
        ledger.record_abandoned(RequestId(9));
        assert!(!ledger.begin_attempt(RequestId(9)));
        assert_eq!(ledger.repaired + ledger.restored + ledger.abandoned, 0);
        assert!(ledger.reconciles());
    }

    #[test]
    fn tickets_stay_sorted_by_request() {
        let mut ledger = RepairLedger::default();
        for id in [5u64, 1, 9, 3] {
            ledger.open_ticket(RequestId(id), t(id));
        }
        let ids: Vec<u64> = ledger.open_tickets().iter().map(|t| t.request.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
