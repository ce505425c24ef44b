//! Stream-processing components.
//!
//! A component `c_i` is a deployed instance of a function on a stream
//! node. It exposes a QoS vector (processing time, loss rate) and an
//! interface describing its input requirements — here the maximum input
//! stream rate it can accept, used by the per-hop compatibility check of
//! §3.5 ("checking the input/output stream rate compatibility").

use acp_topology::OverlayNodeId;

use crate::function::FunctionId;
use crate::qos::Qos;

/// Globally unique component identifier: hosting node plus per-node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId {
    /// The stream node hosting the component.
    pub node: OverlayNodeId,
    /// Slot index within the node's component list.
    pub slot: u16,
}

impl ComponentId {
    /// Convenience constructor.
    pub fn new(node: OverlayNodeId, slot: u16) -> Self {
        ComponentId { node, slot }
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}.{}", self.node.0, self.slot)
    }
}

/// Dense per-system component index, assigned by
/// [`crate::system::StreamSystem`] at deployment time and never reused.
/// Migration deploys the component under a **new** dense id (the old one
/// becomes a tombstone), so a dense id always names one immutable
/// `(node, slot, incarnation)`. Flat `Vec`-indexed stores (the global
/// state board's component QoS table) use it in place of a
/// `HashMap<ComponentId, _>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DenseComponentId(pub u32);

impl DenseComponentId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DenseComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A deployed stream-processing component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// The component's identity.
    pub id: ComponentId,
    /// The atomic function it provides (`c_i.f`).
    pub function: FunctionId,
    /// Component QoS vector `[q1^ci … qm^ci]`: per-item processing delay
    /// and loss rate under nominal load.
    pub qos: Qos,
    /// Interface limit: the highest input stream rate (kbit/s) the
    /// component accepts.
    pub max_input_rate_kbps: f64,
}

impl Component {
    /// True when the component can ingest a stream of `rate_kbps`.
    pub fn accepts_rate(&self, rate_kbps: f64) -> bool {
        rate_kbps <= self.max_input_rate_kbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;
    use crate::qos::LossRate;

    fn component(max_rate: f64) -> Component {
        Component {
            id: ComponentId::new(OverlayNodeId(3), 1),
            function: FunctionId(7),
            qos: Qos::new(SimDuration::from_millis(4), LossRate::from_probability(0.001)),
            max_input_rate_kbps: max_rate,
        }
    }

    #[test]
    fn id_display() {
        assert_eq!(ComponentId::new(OverlayNodeId(3), 1).to_string(), "c3.1");
    }

    #[test]
    fn rate_compatibility() {
        let c = component(500.0);
        assert!(c.accepts_rate(500.0));
        assert!(c.accepts_rate(100.0));
        assert!(!c.accepts_rate(500.1));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = ComponentId::new(OverlayNodeId(0), 0);
        let b = ComponentId::new(OverlayNodeId(0), 1);
        let c = ComponentId::new(OverlayNodeId(1), 0);
        assert!(a < b && b < c);
        let set: HashSet<_> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
