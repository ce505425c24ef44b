//! The paper's optimisation metrics.
//!
//! * **Congestion aggregation** `φ(λ)` (Eq. 1) — the global load-balancing
//!   objective minimised by optimal composition selection.
//! * **Risk function** `D(c_i)` (Eq. 9) — per-candidate maximum QoS
//!   violation risk, used to rank candidates during per-hop selection.
//! * **Congestion function** `V(c_i)` (Eq. 10) — per-candidate load
//!   measure, the tie-breaker among low-risk candidates.

use acp_topology::{OverlayLinkId, OverlayNodeId};

use crate::composition::Composition;
use crate::qos::{Qos, QosRequirement};
use crate::request::Request;
use crate::resources::ResourceVector;
use crate::system::StreamSystem;

/// Computes the congestion aggregation metric `φ(λ)` of Eq. 1:
///
/// ```text
/// φ(λ) = Σ_{ci∈λ} Σ_k r_k^{ci} / (rr_k^{ci} + r_k^{ci})
///      + Σ_{li∈λ}     b^{li}   / (rb^{li} + b^{li})
/// ```
///
/// Since residuals are availability minus demand (`rr = ra − r`), each
/// term reduces to `demand / availability` — exactly the worked example of
/// Fig. 4 (`20/50 + 10/60 + …`). Smaller is better. Demands by several
/// vertices of the same composition on one node (or one overlay link)
/// share that node's availability, mirroring the residual-resource
/// accounting of footnote 5.
///
/// Co-located virtual links contribute `0` (infinite residual bandwidth,
/// footnote 8). Returns `f64::INFINITY` when some element lacks capacity
/// altogether.
pub fn congestion_aggregation(system: &StreamSystem, request: &Request, composition: &Composition) -> f64 {
    let mut phi = 0.0;

    // End-system terms, grouping per node so that co-located components of
    // this composition see the availability left by the previous ones.
    // A composition touches a handful of nodes/links: small linear-scan
    // vecs beat hash maps here.
    let mut used_on_node: Vec<(OverlayNodeId, ResourceVector)> = Vec::with_capacity(request.graph.len());
    for v in request.graph.vertices() {
        let id = composition.assignment[v];
        let demand = request.vertex_demand(system.registry(), v);
        let prior = match used_on_node.iter_mut().find(|(n, _)| *n == id.node) {
            Some((_, r)) => r,
            None => {
                used_on_node.push((id.node, ResourceVector::ZERO));
                &mut used_on_node.last_mut().expect("just pushed").1
            }
        };
        let avail = system.node_available(id.node).saturating_sub(prior);
        for (kind, r) in demand.iter() {
            let ra = avail.get(kind);
            if r == 0.0 {
                continue;
            }
            if ra <= 0.0 {
                return f64::INFINITY;
            }
            phi += r / ra;
        }
        *prior += demand;
    }

    // Virtual-link terms: Σ b / ba with ba the bottleneck availability of
    // the virtual link after accounting for this composition's own prior
    // claims on shared overlay links.
    let mut used_on_link: Vec<(OverlayLinkId, f64)> = Vec::with_capacity(composition.overlay_hops());
    let b = request.bandwidth_kbps;
    for path in &composition.links {
        if path.is_colocated() {
            continue; // rb = ∞ ⇒ b/(rb+b) = 0
        }
        let mut ba = f64::INFINITY;
        for &l in &path.links {
            let prior = used_on_link.iter().find(|(x, _)| *x == l).map_or(0.0, |&(_, u)| u);
            ba = ba.min(system.link_available(l) - prior);
        }
        if b > 0.0 {
            if ba <= 0.0 {
                return f64::INFINITY;
            }
            phi += b / ba;
        }
        for &l in &path.links {
            match used_on_link.iter_mut().find(|(x, _)| *x == l) {
                Some((_, u)) => *u += b,
                None => used_on_link.push((l, b)),
            }
        }
    }
    phi
}

/// The risk function `D(c_i)` of Eq. 9: the maximum, over QoS metrics, of
/// `(q^λ + q^{ci} + q^{li}) / q^{req}` — how close probing through
/// candidate `c_i` (over virtual link QoS `link_qos`) would push the
/// partial composition's accumulated QoS `accumulated` toward the
/// requirement. Smaller is better; values above `1` indicate violation.
#[inline]
pub fn risk_function(accumulated: Qos, candidate_qos: Qos, link_qos: Qos, req: &QosRequirement) -> f64 {
    (accumulated + candidate_qos + link_qos).risk_ratio(req)
}

/// The congestion function `V(c_i)` of Eq. 10:
///
/// ```text
/// V(ci) = Σ_k r_k / (rr_k + r_k) + b / (rb + b)
///       = Σ_k demand_k / availability_k + bandwidth / link availability
/// ```
///
/// computed for one candidate component (`availability` on its node) and
/// the virtual link leading to it. Smaller means less loaded. Returns
/// `f64::INFINITY` when the candidate cannot fit at all.
#[inline]
pub fn congestion_function(
    availability: &ResourceVector,
    demand: &ResourceVector,
    link_availability_kbps: f64,
    bandwidth_kbps: f64,
) -> f64 {
    let mut v = 0.0;
    for (kind, r) in demand.iter() {
        if r == 0.0 {
            continue;
        }
        let ra = availability.get(kind);
        if ra <= 0.0 {
            return f64::INFINITY;
        }
        v += r / ra;
    }
    if bandwidth_kbps > 0.0 {
        if link_availability_kbps <= 0.0 {
            return f64::INFINITY;
        }
        // Co-located candidates have infinite link availability ⇒ 0 term.
        if link_availability_kbps.is_finite() {
            v += bandwidth_kbps / link_availability_kbps;
        }
    }
    v
}

/// Per-hop qualification of a candidate (Eqs. 6–8): returns `true` when
/// the candidate is **unqualified** — QoS accumulation would violate the
/// requirement, the node lacks end-system resources, or the virtual link
/// lacks bandwidth.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the paper's Eq. 6–8 inputs
pub fn is_unqualified(
    accumulated: Qos,
    candidate_qos: Qos,
    link_qos: Qos,
    req: &QosRequirement,
    availability: &ResourceVector,
    demand: &ResourceVector,
    link_availability_kbps: f64,
    bandwidth_kbps: f64,
) -> bool {
    // Eq. 6 — QoS accumulation exceeds a requirement dimension.
    if !(accumulated + candidate_qos + link_qos).satisfies(req) {
        return true;
    }
    // Eq. 7 — end-system resources.
    if !availability.dominates(demand) {
        return true;
    }
    // Eq. 8 — bandwidth.
    link_availability_kbps < bandwidth_kbps
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_simcore::SimDuration;
    use crate::qos::LossRate;

    fn qos_ms(ms: u64) -> Qos {
        Qos::from_delay(SimDuration::from_millis(ms))
    }

    fn req_ms(ms: u64) -> QosRequirement {
        QosRequirement::new(SimDuration::from_millis(ms), LossRate::from_probability(0.1))
    }

    #[test]
    fn risk_function_matches_eq9() {
        // (10 + 20 + 30) / 100 = 0.6
        let d = risk_function(qos_ms(10), qos_ms(20), qos_ms(30), &req_ms(100));
        assert!((d - 0.6).abs() < 1e-9);
    }

    #[test]
    fn risk_function_detects_violation() {
        let d = risk_function(qos_ms(60), qos_ms(30), qos_ms(30), &req_ms(100));
        assert!(d > 1.0);
    }

    #[test]
    fn congestion_function_matches_fig4_terms() {
        // Fig. 4: memory 20MB demand / 50MB availability = 0.4, plus
        // bandwidth 200/1000 = 0.2
        let avail = ResourceVector::new(0.0, 50.0);
        let demand = ResourceVector::new(0.0, 20.0);
        let v = congestion_function(&avail, &demand, 1_000.0, 200.0);
        assert!((v - (20.0 / 50.0 + 200.0 / 1_000.0)).abs() < 1e-9);
    }

    #[test]
    fn congestion_function_colocated_is_resource_only() {
        let avail = ResourceVector::new(100.0, 100.0);
        let demand = ResourceVector::new(10.0, 10.0);
        let v = congestion_function(&avail, &demand, f64::INFINITY, 200.0);
        assert!((v - 0.2).abs() < 1e-9);
    }

    #[test]
    fn congestion_function_infinite_when_unfit() {
        let avail = ResourceVector::new(0.0, 100.0);
        let demand = ResourceVector::new(1.0, 1.0);
        assert_eq!(congestion_function(&avail, &demand, 1_000.0, 10.0), f64::INFINITY);
        let avail2 = ResourceVector::new(10.0, 10.0);
        assert_eq!(congestion_function(&avail2, &demand, 0.0, 10.0), f64::INFINITY);
    }

    #[test]
    fn unqualified_checks_all_three_equations() {
        let req = req_ms(100);
        let avail = ResourceVector::new(10.0, 10.0);
        let demand = ResourceVector::new(5.0, 5.0);
        // qualified
        assert!(!is_unqualified(qos_ms(10), qos_ms(10), qos_ms(10), &req, &avail, &demand, 100.0, 50.0));
        // Eq. 6: QoS
        assert!(is_unqualified(qos_ms(80), qos_ms(30), qos_ms(10), &req, &avail, &demand, 100.0, 50.0));
        // Eq. 7: resources
        let big = ResourceVector::new(20.0, 1.0);
        assert!(is_unqualified(qos_ms(10), qos_ms(10), qos_ms(10), &req, &avail, &big, 100.0, 50.0));
        // Eq. 8: bandwidth
        assert!(is_unqualified(qos_ms(10), qos_ms(10), qos_ms(10), &req, &avail, &demand, 40.0, 50.0));
    }
}
