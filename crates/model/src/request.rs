//! Stream-processing requests.
//!
//! A request bundles the three parts of §2.2: function requirements (a
//! [`FunctionGraph`]), QoS requirements `Q^req`, and resource requirements
//! `R^req` (per-component end-system resources, per-virtual-link
//! bandwidth, plus the input stream rate used by interface compatibility
//! checks).

use crate::fgraph::FunctionGraph;
use crate::function::FunctionRegistry;
use crate::qos::QosRequirement;
use crate::resources::ResourceVector;
use crate::tenant::TenantBinding;

/// Identifier of a composition request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A stream-processing composition request `(ξ, Q^req, R^req)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique request identity.
    pub id: RequestId,
    /// Function graph ξ (usually instantiated from a template, whose
    /// storage it then shares: cloning a request copies no graph).
    pub graph: FunctionGraph,
    /// End-to-end QoS requirements.
    pub qos: QosRequirement,
    /// Base end-system resource requirement; the demand of vertex `v` is
    /// `base_resources` scaled by the function's demand factor
    /// ([`crate::function::FunctionProfile::demand_factor`]).
    pub base_resources: ResourceVector,
    /// Bandwidth requirement `b^li` of every virtual link (kbit/s).
    pub bandwidth_kbps: f64,
    /// Input stream rate, checked against component interface limits.
    pub stream_rate_kbps: f64,
    /// Owning tenant and service tier; `None` for tenant-less workloads
    /// (the request belongs to the implicit single application of the
    /// source paper). Not part of any digest: session digests fold only
    /// ids and placement.
    pub tenant: Option<TenantBinding>,
}

impl Request {
    /// The end-system demand `R^ci` of the component serving vertex `v`.
    pub fn vertex_demand(&self, registry: &FunctionRegistry, v: usize) -> ResourceVector {
        registry.profile(self.graph.function(v)).component_demand(&self.base_resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use crate::qos::QosRequirement;

    fn request() -> (FunctionRegistry, Request) {
        let reg = FunctionRegistry::standard();
        let graph = FunctionGraph::path(vec![FunctionId(0), FunctionId(4)]);
        let req = Request {
            id: RequestId(1),
            graph,
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(10.0, 20.0),
            bandwidth_kbps: 300.0,
            stream_rate_kbps: 256.0,
            tenant: None,
        };
        (reg, req)
    }

    #[test]
    fn vertex_demand_uses_function_factor() {
        let (reg, req) = request();
        let d0 = req.vertex_demand(&reg, 0);
        let d1 = req.vertex_demand(&reg, 1);
        let f0 = reg.profile(FunctionId(0)).demand_factor;
        let f1 = reg.profile(FunctionId(4)).demand_factor;
        assert!((d0.cpu - 10.0 * f0).abs() < 1e-12);
        assert!((d1.cpu - 10.0 * f1).abs() < 1e-12);
        assert_ne!(d0, d1, "distinct function families demand differently");
    }
}
