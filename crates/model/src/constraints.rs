//! Application-specific placement constraints.
//!
//! The paper's conclusion lists "supporting other application specific
//! constraints (e.g., security level, software licence) in component
//! composition" as future work (§6). This module implements that
//! extension: every component carries a security level and a licence
//! class; requests may demand a minimum security level and restrict the
//! licences they accept. The constraints participate in the per-hop
//! compatibility filter (like the stream-rate check, they are static
//! interface properties) and in final qualification.

/// A node/component security level. Higher is more trusted; the paper's
/// §2.1 notes "the constraints of security, software licence, and
/// hardware requirements" as reasons not every node can host every
/// component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SecurityLevel(pub u8);

impl SecurityLevel {
    /// The lowest (untrusted) level.
    pub const PUBLIC: SecurityLevel = SecurityLevel(0);
    /// A mid trust tier.
    pub const HARDENED: SecurityLevel = SecurityLevel(2);
    /// The highest modelled tier.
    pub const CERTIFIED: SecurityLevel = SecurityLevel(4);

    /// True when this level satisfies a required minimum.
    #[inline]
    pub fn satisfies(self, minimum: SecurityLevel) -> bool {
        self >= minimum
    }
}

impl std::fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sec{}", self.0)
    }
}

/// Licence class of a deployed component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LicenseClass {
    /// Freely composable (MIT/Apache-style).
    Permissive,
    /// Requires a commercial agreement.
    Commercial,
    /// Copyleft / usage-restricted.
    Restricted,
}

impl LicenseClass {
    /// All licence classes.
    pub const ALL: [LicenseClass; 3] =
        [LicenseClass::Permissive, LicenseClass::Commercial, LicenseClass::Restricted];

    /// Bit used in [`LicenseSet`].
    fn bit(self) -> u8 {
        match self {
            LicenseClass::Permissive => 1,
            LicenseClass::Commercial => 2,
            LicenseClass::Restricted => 4,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LicenseClass::Permissive => "permissive",
            LicenseClass::Commercial => "commercial",
            LicenseClass::Restricted => "restricted",
        }
    }
}

impl std::fmt::Display for LicenseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of acceptable licence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LicenseSet(u8);

impl LicenseSet {
    /// Accepts every licence class.
    pub const ANY: LicenseSet = LicenseSet(0b111);
    /// Accepts nothing (useful only in tests).
    pub const NONE: LicenseSet = LicenseSet(0);

    /// A set containing exactly `classes`.
    pub fn of(classes: &[LicenseClass]) -> Self {
        LicenseSet(classes.iter().fold(0, |acc, c| acc | c.bit()))
    }

    /// True when `class` is acceptable.
    #[inline]
    pub fn accepts(self, class: LicenseClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// Adds a class.
    pub fn with(self, class: LicenseClass) -> LicenseSet {
        LicenseSet(self.0 | class.bit())
    }

    /// Removes a class.
    pub fn without(self, class: LicenseClass) -> LicenseSet {
        LicenseSet(self.0 & !class.bit())
    }

    /// Number of accepted classes.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no class is accepted.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for LicenseSet {
    fn default() -> Self {
        LicenseSet::ANY
    }
}

/// The static (non-QoS, non-resource) attributes of a component that
/// placement constraints are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ComponentAttributes {
    /// The component's security level.
    pub security: SecurityLevel,
    /// The component's licence class.
    pub license: LicenseClassOrDefault,
}

/// Wrapper giving [`LicenseClass`] a `Default` (permissive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LicenseClassOrDefault(pub LicenseClass);

impl Default for LicenseClassOrDefault {
    fn default() -> Self {
        LicenseClassOrDefault(LicenseClass::Permissive)
    }
}

/// A request's application-specific placement constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PlacementConstraints {
    /// Every chosen component must have at least this security level.
    pub min_security: SecurityLevel,
    /// Every chosen component's licence must be in this set.
    pub licenses: LicenseSet,
}

impl PlacementConstraints {
    /// No constraints (accept anything) — the default.
    pub fn none() -> Self {
        PlacementConstraints::default()
    }

    /// Demands at least `level` everywhere.
    pub fn secure(level: SecurityLevel) -> Self {
        PlacementConstraints { min_security: level, licenses: LicenseSet::ANY }
    }

    /// True when a component with `attributes` is admissible.
    #[inline]
    pub fn admits(&self, attributes: &ComponentAttributes) -> bool {
        attributes.security.satisfies(self.min_security) && self.licenses.accepts(attributes.license.0)
    }
}

impl std::fmt::Display for PlacementConstraints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "min {} / {} licence class(es)", self.min_security, self.licenses.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_levels_order() {
        assert!(SecurityLevel::CERTIFIED.satisfies(SecurityLevel::HARDENED));
        assert!(SecurityLevel::HARDENED.satisfies(SecurityLevel::HARDENED));
        assert!(!SecurityLevel::PUBLIC.satisfies(SecurityLevel::HARDENED));
    }

    #[test]
    fn license_set_operations() {
        let set = LicenseSet::of(&[LicenseClass::Permissive, LicenseClass::Commercial]);
        assert!(set.accepts(LicenseClass::Permissive));
        assert!(set.accepts(LicenseClass::Commercial));
        assert!(!set.accepts(LicenseClass::Restricted));
        assert_eq!(set.len(), 2);
        let grown = set.with(LicenseClass::Restricted);
        assert_eq!(grown, LicenseSet::ANY);
        let shrunk = grown.without(LicenseClass::Commercial).without(LicenseClass::Permissive);
        assert!(shrunk.accepts(LicenseClass::Restricted));
        assert_eq!(shrunk.len(), 1);
        assert!(LicenseSet::NONE.is_empty());
    }

    #[test]
    fn default_constraints_admit_everything() {
        let constraints = PlacementConstraints::none();
        for license in LicenseClass::ALL {
            for level in [SecurityLevel::PUBLIC, SecurityLevel::CERTIFIED] {
                let attrs = ComponentAttributes { security: level, license: LicenseClassOrDefault(license) };
                assert!(constraints.admits(&attrs));
            }
        }
    }

    #[test]
    fn constraints_filter_by_both_dimensions() {
        let constraints = PlacementConstraints {
            min_security: SecurityLevel::HARDENED,
            licenses: LicenseSet::of(&[LicenseClass::Permissive]),
        };
        let good = ComponentAttributes {
            security: SecurityLevel::CERTIFIED,
            license: LicenseClassOrDefault(LicenseClass::Permissive),
        };
        let too_lax = ComponentAttributes {
            security: SecurityLevel::PUBLIC,
            license: LicenseClassOrDefault(LicenseClass::Permissive),
        };
        let wrong_license = ComponentAttributes {
            security: SecurityLevel::CERTIFIED,
            license: LicenseClassOrDefault(LicenseClass::Commercial),
        };
        assert!(constraints.admits(&good));
        assert!(!constraints.admits(&too_lax));
        assert!(!constraints.admits(&wrong_license));
    }
}
