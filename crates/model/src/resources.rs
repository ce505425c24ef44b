//! End-system resource algebra.
//!
//! The paper associates each node with a resource availability vector
//! `[ra1 … ran]` (the evaluation uses CPU and memory) and each request
//! with per-component requirements `R^ci = [r1 … rn]`. Residual resources
//! are `rr = ra − r` and must stay non-negative (Eq. 4).

use std::ops::{Add, AddAssign, Sub, SubAssign};

/// The resource dimensions modelled, matching the paper's examples
/// ("e.g., CPU, memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Abstract CPU capacity units (100 = one saturated core).
    Cpu,
    /// Memory in megabytes.
    MemoryMb,
}

impl ResourceKind {
    /// All modelled dimensions, in canonical order.
    pub const ALL: [ResourceKind; 2] = [ResourceKind::Cpu, ResourceKind::MemoryMb];
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::Cpu => write!(f, "cpu"),
            ResourceKind::MemoryMb => write!(f, "mem"),
        }
    }
}

/// A vector over the [`ResourceKind`] dimensions.
///
/// # Example
///
/// ```
/// use acp_model::resources::ResourceVector;
/// let capacity = ResourceVector::new(100.0, 512.0);
/// let used = ResourceVector::new(30.0, 128.0);
/// let free = capacity - used;
/// assert!(free.dominates(&ResourceVector::new(50.0, 300.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU units.
    pub cpu: f64,
    /// Memory in MB.
    pub memory_mb: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector { cpu: 0.0, memory_mb: 0.0 };

    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative or NaN.
    pub fn new(cpu: f64, memory_mb: f64) -> Self {
        assert!(cpu >= 0.0 && memory_mb >= 0.0, "resource amounts must be non-negative");
        ResourceVector { cpu, memory_mb }
    }

    /// Component lookup by kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::MemoryMb => self.memory_mb,
        }
    }

    /// Iterates over `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        ResourceKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }

    /// True when every component of `self` is ≥ the matching component of
    /// `other` — i.e. `self` can accommodate a demand of `other`.
    #[inline]
    pub fn dominates(&self, other: &ResourceVector) -> bool {
        self.cpu >= other.cpu && self.memory_mb >= other.memory_mb
    }

    /// `self − other` when the result is non-negative in every dimension
    /// (Eq. 4's admissibility), `None` otherwise.
    pub fn checked_sub(&self, other: &ResourceVector) -> Option<ResourceVector> {
        if self.dominates(other) {
            Some(ResourceVector { cpu: self.cpu - other.cpu, memory_mb: self.memory_mb - other.memory_mb })
        } else {
            None
        }
    }

    /// Componentwise `max(self − other, 0)`.
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: (self.cpu - other.cpu).max(0.0),
            memory_mb: (self.memory_mb - other.memory_mb).max(0.0),
        }
    }

    /// Scales every component by `factor ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        ResourceVector { cpu: self.cpu * factor, memory_mb: self.memory_mb * factor }
    }

    /// True when every component is zero.
    pub fn is_zero(&self) -> bool {
        self.cpu == 0.0 && self.memory_mb == 0.0
    }

    /// The largest utilisation fraction `other_k / self_k` over dimensions
    /// (∞ if some dimension of `self` is zero while demanded). Useful as a
    /// load measure of demand `other` against capacity `self`.
    pub fn max_utilization_of(&self, other: &ResourceVector) -> f64 {
        let mut worst: f64 = 0.0;
        for (k, demand) in other.iter() {
            let cap = self.get(k);
            let frac = if cap > 0.0 {
                demand / cap
            } else if demand == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            worst = worst.max(frac);
        }
        worst
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector { cpu: self.cpu + rhs.cpu, memory_mb: self.memory_mb + rhs.memory_mb }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        self.cpu += rhs.cpu;
        self.memory_mb += rhs.memory_mb;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    /// Componentwise subtraction. May go negative — use
    /// [`ResourceVector::checked_sub`] for admission checks.
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector { cpu: self.cpu - rhs.cpu, memory_mb: self.memory_mb - rhs.memory_mb }
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        self.cpu -= rhs.cpu;
        self.memory_mb -= rhs.memory_mb;
    }
}

impl std::iter::Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu={:.1} mem={:.1}MB", self.cpu, self.memory_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_componentwise() {
        let a = ResourceVector::new(10.0, 100.0);
        let b = ResourceVector::new(4.0, 30.0);
        assert_eq!(a + b, ResourceVector::new(14.0, 130.0));
        assert_eq!(a - b, ResourceVector::new(6.0, 70.0));
        assert_eq!(a.scaled(2.0), ResourceVector::new(20.0, 200.0));
    }

    #[test]
    fn dominance_and_checked_sub() {
        let cap = ResourceVector::new(10.0, 100.0);
        let fits = ResourceVector::new(10.0, 100.0);
        let too_big = ResourceVector::new(10.1, 50.0);
        assert!(cap.dominates(&fits));
        assert!(!cap.dominates(&too_big));
        assert_eq!(cap.checked_sub(&fits), Some(ResourceVector::ZERO));
        assert_eq!(cap.checked_sub(&too_big), None);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = ResourceVector::new(5.0, 10.0);
        let b = ResourceVector::new(7.0, 3.0);
        assert_eq!(a.saturating_sub(&b), ResourceVector::new(0.0, 7.0));
    }

    #[test]
    fn utilization_picks_worst_dimension() {
        let cap = ResourceVector::new(100.0, 1000.0);
        let demand = ResourceVector::new(50.0, 900.0);
        assert!((cap.max_utilization_of(&demand) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_zero_capacity() {
        let cap = ResourceVector::new(0.0, 100.0);
        assert_eq!(cap.max_utilization_of(&ResourceVector::new(1.0, 0.0)), f64::INFINITY);
        assert_eq!(cap.max_utilization_of(&ResourceVector::ZERO), 0.0);
    }

    #[test]
    fn get_and_iter_consistent() {
        let v = ResourceVector::new(3.0, 7.0);
        let collected: Vec<_> = v.iter().collect();
        assert_eq!(collected, vec![(ResourceKind::Cpu, 3.0), (ResourceKind::MemoryMb, 7.0)]);
    }

    #[test]
    fn sum_of_vectors() {
        let total: ResourceVector =
            [ResourceVector::new(1.0, 2.0), ResourceVector::new(3.0, 4.0)].into_iter().sum();
        assert_eq!(total, ResourceVector::new(4.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_construction() {
        let _ = ResourceVector::new(-1.0, 0.0);
    }
}
