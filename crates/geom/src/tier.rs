//! Stacking-IC tiers and stack configuration.

use std::fmt;

use crate::GeomError;

/// Identifier of a stacking tier, 1-based: tier 1 is the base die, larger
/// tiers sit higher in the stack (and are physically smaller).
///
/// The paper's ψ parameter is the number of tiers; each tier `d ∈ 1..=ψ`
/// gets a one-hot ψ-bit "unique parameter" `UP_d` used by the bonding-wire
/// balance metric ω (see `copack_core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(u8);

impl TierId {
    /// The base die of the stack (tier 1); the only tier of a 2-D design.
    pub const BASE: Self = Self(1);

    /// Creates a tier id from a 1-based tier number.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is zero.
    #[must_use]
    pub fn new(tier: u8) -> Self {
        assert!(tier > 0, "tier ids are 1-based");
        Self(tier)
    }

    /// Returns the 1-based tier number.
    #[must_use]
    pub const fn get(self) -> u8 {
        self.0
    }

    /// One-hot "unique parameter" `UP_d` of the paper (§3.2): bit `d − 1`
    /// set. With three tiers, tiers 1..=3 map to `001`, `010`, `100`.
    ///
    /// ```
    /// use copack_geom::TierId;
    /// assert_eq!(TierId::new(1).one_hot(), 0b001);
    /// assert_eq!(TierId::new(3).one_hot(), 0b100);
    /// ```
    #[must_use]
    pub fn one_hot(self) -> u64 {
        1u64 << (self.0 - 1)
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier {}", self.0)
    }
}

/// Physical configuration of a die stack, used to compute bonding-wire
/// lengths and to parameterise the exchange step.
///
/// A 2-D design is a stack with a single tier; see [`StackConfig::planar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    /// Number of tiers ψ (≥ 1).
    pub tiers: u8,
    /// Vertical drop per tier (µm): the extra wire a pad on tier `d` pays
    /// relative to tier `d − 1`.
    pub tier_drop: f64,
    /// Horizontal shrink per tier (µm): each higher die's edge retreats by
    /// this much, so its pads sit farther from the finger ring.
    pub tier_shrink: f64,
    /// Minimum bond height above the base die (µm).
    pub standoff: f64,
}

impl StackConfig {
    /// Configuration of a conventional single-die (2-D) design.
    #[must_use]
    pub const fn planar() -> Self {
        Self {
            tiers: 1,
            tier_drop: 0.0,
            tier_shrink: 0.0,
            standoff: 5.0,
        }
    }

    /// Creates a stacking configuration with `tiers` dies and default
    /// per-tier geometry (20 µm drop, 50 µm shrink, 5 µm standoff).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidStack`] if `tiers` is zero or exceeds 64
    /// (the ω metric packs tier one-hots into a `u64`).
    pub fn stacked(tiers: u8) -> Result<Self, GeomError> {
        if tiers == 0 || tiers > 64 {
            return Err(GeomError::InvalidStack { tiers });
        }
        Ok(Self {
            tiers,
            tier_drop: 20.0,
            tier_shrink: 50.0,
            standoff: 5.0,
        })
    }

    /// Whether this is a stacking (multi-tier) design, the paper's ψ ≥ 2.
    #[must_use]
    pub fn is_stacking(&self) -> bool {
        self.tiers >= 2
    }

    /// Validates that a tier id belongs to this stack.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::TierOutOfRange`] when `tier` exceeds
    /// [`StackConfig::tiers`].
    pub fn check_tier(&self, tier: TierId) -> Result<(), GeomError> {
        if tier.get() > self.tiers {
            return Err(GeomError::TierOutOfRange {
                tier: tier.get(),
                tiers: self.tiers,
            });
        }
        Ok(())
    }

    /// Vertical bonding-wire component for a pad on `tier` (µm).
    #[must_use]
    pub fn drop_of(&self, tier: TierId) -> f64 {
        self.standoff + f64::from(tier.get() - 1) * self.tier_drop
    }

    /// Horizontal retreat of `tier`'s die edge relative to the base die (µm).
    #[must_use]
    pub fn shrink_of(&self, tier: TierId) -> f64 {
        f64::from(tier.get() - 1) * self.tier_shrink
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        Self::planar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_matches_paper_example() {
        // Paper §3.2: with ψ = 3, tiers 1..3 are "001", "010", "100".
        assert_eq!(TierId::new(1).one_hot(), 0b001);
        assert_eq!(TierId::new(2).one_hot(), 0b010);
        assert_eq!(TierId::new(3).one_hot(), 0b100);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn tier_ids_reject_zero() {
        let _ = TierId::new(0);
    }

    #[test]
    fn planar_stack_has_one_tier() {
        let s = StackConfig::planar();
        assert_eq!(s.tiers, 1);
        assert!(!s.is_stacking());
    }

    #[test]
    fn stacked_rejects_degenerate_tier_counts() {
        assert!(StackConfig::stacked(0).is_err());
        assert!(StackConfig::stacked(65).is_err());
        assert!(StackConfig::stacked(4).unwrap().is_stacking());
    }

    #[test]
    fn check_tier_enforces_range() {
        let s = StackConfig::stacked(2).unwrap();
        assert!(s.check_tier(TierId::new(2)).is_ok());
        assert!(s.check_tier(TierId::new(3)).is_err());
    }

    #[test]
    fn drop_and_shrink_grow_with_tier() {
        let s = StackConfig::stacked(3).unwrap();
        assert!(s.drop_of(TierId::new(3)) > s.drop_of(TierId::new(1)));
        assert_eq!(s.shrink_of(TierId::BASE), 0.0);
        assert!(s.shrink_of(TierId::new(2)) > 0.0);
    }
}
