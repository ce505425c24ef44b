//! Stream-processing nodes and their resource bookkeeping.
//!
//! Each node tracks its capacity, the resources committed to running
//! sessions, and *transient* reservations made by in-flight probes
//! (§3.3 step 2: "transient resource allocation to avoid conflicting
//! resource admission caused by concurrent probings"). Transient
//! reservations carry an expiry; they become permanent on session
//! confirmation or evaporate after the timeout.

use acp_simcore::SimTime;
use acp_topology::OverlayNodeId;

use crate::component::{Component, ComponentId};
use crate::resources::ResourceVector;

/// Key identifying who holds a transient reservation. Per footnote 7 of
/// the paper, a node reserves resources at most **once per component per
/// request**, so the key is `(request, component)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationKey {
    /// The requesting composition (request id value).
    pub request: u64,
    /// The component the reservation is for.
    pub component: ComponentId,
}

#[derive(Debug, Clone)]
struct TransientAlloc {
    key: ReservationKey,
    amount: ResourceVector,
    expires: SimTime,
}

/// A stream-processing node: capacity, allocations, and hosted components.
///
/// Component slots are **stable**: undeploying a component leaves a
/// tombstone so other components' [`ComponentId`]s stay valid.
#[derive(Debug, Clone)]
pub struct StreamNode {
    id: OverlayNodeId,
    capacity: ResourceVector,
    committed: ResourceVector,
    transient: Vec<TransientAlloc>,
    components: Vec<Option<Component>>,
    failed: bool,
}

impl StreamNode {
    /// Creates a node with the given capacity and components.
    pub fn new(id: OverlayNodeId, capacity: ResourceVector, components: Vec<Component>) -> Self {
        debug_assert!(components.iter().all(|c| c.id.node == id), "component hosted on wrong node");
        StreamNode {
            id,
            capacity,
            committed: ResourceVector::ZERO,
            transient: Vec::new(),
            components: components.into_iter().map(Some).collect(),
            failed: false,
        }
    }

    /// True when the node has failed (fail-stop). A failed node hosts no
    /// components and admits nothing; at the system level its overlay
    /// forwarding plane goes down with it, so routing detours around it.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }

    /// Marks the node failed, dropping all transient reservations and
    /// committed allocations. Returns the components that were deployed.
    pub fn fail(&mut self) -> Vec<Component> {
        self.failed = true;
        self.transient.clear();
        self.committed = ResourceVector::ZERO;
        self.components.iter_mut().filter_map(Option::take).collect()
    }

    /// Brings a failed node back, empty for good: its components are
    /// never redeployed.
    pub fn recover(&mut self) {
        self.failed = false;
    }

    /// The node's overlay identity.
    pub fn id(&self) -> OverlayNodeId {
        self.id
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }

    /// Resources committed to confirmed sessions.
    pub fn committed(&self) -> ResourceVector {
        self.committed
    }

    /// Sum of live transient reservations.
    pub(crate) fn transient_total(&self) -> ResourceVector {
        self.transient.iter().map(|t| t.amount).sum()
    }

    /// Currently **available** resources `[ra1 … ran]`: capacity minus
    /// committed minus transient reservations, clamped at zero. A failed
    /// node has nothing available.
    pub fn available(&self) -> ResourceVector {
        if self.failed {
            return ResourceVector::ZERO;
        }
        self.capacity.saturating_sub(&(self.committed + self.transient_total()))
    }

    /// Iterates over the live hosted components.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.iter().flatten()
    }

    /// Number of live components.
    pub fn component_count(&self) -> usize {
        self.components.iter().flatten().count()
    }

    /// Component lookup by slot (`None` for out-of-range or tombstoned
    /// slots).
    pub fn component(&self, slot: u16) -> Option<&Component> {
        self.components.get(slot as usize).and_then(Option::as_ref)
    }

    /// Deploys a component built by `make` in the first free slot and
    /// returns its identity. `make` receives the assigned
    /// [`ComponentId`].
    #[cfg(test)]
    pub(crate) fn deploy_with(&mut self, make: impl FnOnce(ComponentId) -> Component) -> ComponentId {
        let slot = self
            .components
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.components.len());
        let id = ComponentId::new(self.id, slot as u16);
        let component = make(id);
        debug_assert_eq!(component.id, id, "deployed component must use the assigned id");
        if slot == self.components.len() {
            self.components.push(Some(component));
        } else {
            self.components[slot] = Some(component);
        }
        id
    }

    /// Undeploys the component in `slot`, leaving a tombstone. Returns
    /// the component, or `None` when the slot is empty.
    pub(crate) fn undeploy(&mut self, slot: u16) -> Option<Component> {
        self.components.get_mut(slot as usize).and_then(Option::take)
    }

    /// Attempts a transient reservation of `amount` until `expires`.
    ///
    /// Idempotent per key: if the key already holds a reservation the call
    /// succeeds without reserving again (footnote 7 — one reservation per
    /// component per request, shared by concurrent probes of the same
    /// request).
    ///
    /// Returns `false` (and reserves nothing) when `amount` exceeds the
    /// currently available resources.
    pub(crate) fn reserve_transient(&mut self, key: ReservationKey, amount: ResourceVector, expires: SimTime) -> bool {
        if self.failed {
            return false;
        }
        if let Some(existing) = self.transient.iter_mut().find(|t| t.key == key) {
            // Refresh the expiry so an in-flight probe keeps it alive.
            if expires > existing.expires {
                existing.expires = expires;
            }
            return true;
        }
        if !self.available().dominates(&amount) {
            return false;
        }
        self.transient.push(TransientAlloc { key, amount, expires });
        true
    }

    /// Releases the transient reservation held by `key`, if any; returns
    /// the released amount.
    pub(crate) fn release_transient(&mut self, key: ReservationKey) -> Option<ResourceVector> {
        let idx = self.transient.iter().position(|t| t.key == key)?;
        Some(self.transient.swap_remove(idx).amount)
    }

    /// Releases every transient reservation held by `request` (any
    /// component). Returns how many reservations were dropped.
    pub fn release_request_transients(&mut self, request: u64) -> usize {
        let before = self.transient.len();
        self.transient.retain(|t| t.key.request != request);
        before - self.transient.len()
    }

    /// Releases every transient reservation held **for** `component`
    /// (any request) — a crashed component's leases die with it instead
    /// of lingering until the expiry sweep. Returns how many were
    /// dropped.
    pub(crate) fn release_component_transients(&mut self, component: ComponentId) -> usize {
        let before = self.transient.len();
        self.transient.retain(|t| t.key.component != component);
        before - self.transient.len()
    }

    /// Directly commits resources (bypassing the transient stage), e.g.
    /// when a composition is confirmed after its reservation timed out.
    ///
    /// Returns `false` when the node cannot accommodate the demand.
    pub fn commit(&mut self, amount: ResourceVector) -> bool {
        if self.failed {
            return false;
        }
        if !self.available().dominates(&amount) {
            return false;
        }
        self.committed += amount;
        true
    }

    /// Releases permanently committed resources (session teardown).
    pub fn release(&mut self, amount: ResourceVector) {
        self.committed = self.committed.saturating_sub(&amount);
    }

    /// Drops all transient reservations that expired at or before `now`.
    /// Returns how many were dropped.
    pub fn expire_transients(&mut self, now: SimTime) -> usize {
        let before = self.transient.len();
        self.transient.retain(|t| t.expires > now);
        before - self.transient.len()
    }

    /// Number of live transient reservations.
    pub fn transient_count(&self) -> usize {
        self.transient.len()
    }

    /// Number of live transient reservations whose expiry has passed at
    /// `now` — the leases a reclamation sweep at `now` would drop. The
    /// lease auditor checks this is zero right after a sweep.
    pub(crate) fn expired_transient_count(&self, now: SimTime) -> usize {
        self.transient.iter().filter(|t| t.expires <= now).count()
    }

    /// The earliest expiry among live transient reservations.
    pub(crate) fn earliest_transient_expiry(&self) -> Option<SimTime> {
        self.transient.iter().map(|t| t.expires).min()
    }

    /// Request ids holding at least one live transient reservation here.
    pub(crate) fn transient_requests(&self) -> impl Iterator<Item = u64> + '_ {
        self.transient.iter().map(|t| t.key.request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;
    use crate::function::FunctionId;
    use crate::qos::Qos;

    fn key(req: u64, slot: u16) -> ReservationKey {
        ReservationKey { request: req, component: ComponentId::new(OverlayNodeId(0), slot) }
    }

    fn node(cpu: f64, mem: f64) -> StreamNode {
        StreamNode::new(OverlayNodeId(0), ResourceVector::new(cpu, mem), vec![])
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn available_subtracts_commit_and_transient() {
        let mut n = node(100.0, 100.0);
        assert!(n.commit(ResourceVector::new(30.0, 10.0)));
        assert!(n.reserve_transient(key(1, 0), ResourceVector::new(20.0, 20.0), t(10)));
        assert_eq!(n.available(), ResourceVector::new(50.0, 70.0));
        assert_eq!(n.committed(), ResourceVector::new(30.0, 10.0));
        assert_eq!(n.transient_total(), ResourceVector::new(20.0, 20.0));
    }

    #[test]
    fn reserve_fails_when_insufficient() {
        let mut n = node(10.0, 10.0);
        assert!(!n.reserve_transient(key(1, 0), ResourceVector::new(11.0, 0.0), t(10)));
        assert_eq!(n.transient_count(), 0);
    }

    #[test]
    fn reserve_is_idempotent_per_key() {
        let mut n = node(10.0, 10.0);
        let k = key(1, 0);
        assert!(n.reserve_transient(k, ResourceVector::new(8.0, 8.0), t(10)));
        // Second probe of the same request+component does not double-book.
        assert!(n.reserve_transient(k, ResourceVector::new(8.0, 8.0), t(20)));
        assert_eq!(n.transient_count(), 1);
        assert_eq!(n.available(), ResourceVector::new(2.0, 2.0));
        // Expiry was refreshed to the later time.
        assert_eq!(n.expire_transients(t(15)), 0);
        assert_eq!(n.expire_transients(t(20)), 1);
    }

    #[test]
    fn different_requests_reserve_independently() {
        let mut n = node(10.0, 10.0);
        assert!(n.reserve_transient(key(1, 0), ResourceVector::new(6.0, 6.0), t(10)));
        assert!(!n.reserve_transient(key(2, 0), ResourceVector::new(6.0, 6.0), t(10)), "conflicting admission blocked");
        assert!(n.reserve_transient(key(2, 1), ResourceVector::new(4.0, 4.0), t(10)));
    }

    #[test]
    fn release_returns_resources() {
        let mut n = node(10.0, 10.0);
        n.commit(ResourceVector::new(7.0, 7.0));
        n.release(ResourceVector::new(7.0, 7.0));
        assert_eq!(n.available(), n.capacity());
    }

    #[test]
    fn release_transient_on_probe_drop() {
        let mut n = node(10.0, 10.0);
        let k = key(1, 0);
        n.reserve_transient(k, ResourceVector::new(4.0, 4.0), t(10));
        assert_eq!(n.release_transient(k), Some(ResourceVector::new(4.0, 4.0)));
        assert_eq!(n.release_transient(k), None);
        assert_eq!(n.available(), n.capacity());
    }

    #[test]
    fn expiry_is_strict_after() {
        let mut n = node(10.0, 10.0);
        n.reserve_transient(key(1, 0), ResourceVector::new(1.0, 1.0), t(10));
        assert_eq!(n.expire_transients(t(9)), 0);
        assert_eq!(n.expire_transients(t(10)), 1, "expires at t means gone from t on");
    }

    #[test]
    fn component_lookup() {
        let c = Component {
            id: ComponentId::new(OverlayNodeId(1), 0),
            function: FunctionId(2),
            qos: Qos::from_delay(SimDuration::from_millis(1)),
            max_input_rate_kbps: 100.0,
        };
        let n = StreamNode::new(OverlayNodeId(1), ResourceVector::new(1.0, 1.0), vec![c.clone()]);
        assert_eq!(n.component(0), Some(&c));
        assert_eq!(n.component(1), None);
        assert_eq!(n.component_count(), 1);
    }
}
