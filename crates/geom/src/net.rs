//! Nets and net kinds.

use std::fmt;

use crate::{NetId, TierId};

/// Electrical role of a net.
///
/// The congestion-driven assignment treats every net alike; the exchange
/// step of the paper moves only **power** pads in a 2-D design (its Fig. 14,
/// line 7) because only they influence the core's IR-drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum NetKind {
    /// An ordinary signal net.
    #[default]
    Signal,
    /// A Vdd supply net; its pad location affects core IR-drop.
    Power,
    /// A ground return net.
    Ground,
}

impl NetKind {
    /// Whether this net participates in power delivery (power or ground).
    #[must_use]
    pub fn is_supply(self) -> bool {
        matches!(self, Self::Power | Self::Ground)
    }
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Signal => "signal",
            Self::Power => "power",
            Self::Ground => "ground",
        };
        f.write_str(s)
    }
}

/// A net: one finger–ball connection with an electrical kind and, for
/// stacking ICs, the tier its die-side pad lives on.
///
/// ```
/// use copack_geom::{Net, NetId, NetKind, TierId};
/// let net = Net::new(NetId::new(3), NetKind::Power, TierId::BASE);
/// assert!(net.kind.is_supply());
/// assert_eq!(net.tier, TierId::BASE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Net {
    /// Identifier of the net.
    pub id: NetId,
    /// Electrical role.
    pub kind: NetKind,
    /// Stacking tier of the die-side pad (always [`TierId::BASE`] for 2-D).
    pub tier: TierId,
}

impl Net {
    /// Creates a net.
    #[must_use]
    pub const fn new(id: NetId, kind: NetKind, tier: TierId) -> Self {
        Self { id, kind, tier }
    }

    /// Creates a 2-D signal net on the base tier.
    #[must_use]
    pub const fn signal(id: NetId) -> Self {
        Self::new(id, NetKind::Signal, TierId::BASE)
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.id, self.kind, self.tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supply_covers_power_and_ground() {
        assert!(NetKind::Power.is_supply());
        assert!(NetKind::Ground.is_supply());
        assert!(!NetKind::Signal.is_supply());
    }

    #[test]
    fn default_kind_is_signal() {
        assert_eq!(NetKind::default(), NetKind::Signal);
    }

    #[test]
    fn signal_constructor_uses_base_tier() {
        let n = Net::signal(NetId::new(1));
        assert_eq!(n.kind, NetKind::Signal);
        assert_eq!(n.tier, TierId::BASE);
    }

    #[test]
    fn display_is_nonempty_and_mentions_kind() {
        let n = Net::new(NetId::new(2), NetKind::Ground, TierId::BASE);
        let s = n.to_string();
        assert!(s.contains("ground"));
        assert!(s.contains("N2"));
    }
}
