//! Strongly typed identifiers used throughout the workspace.

use std::fmt;

/// Identifier of a net (a finger–ball connection).
///
/// Net ids are small integers chosen by the caller; they need not be dense.
/// The paper labels nets `N_1..N_β`; the examples reuse the raw numbers
/// (e.g. net `11` in Fig. 5), which is why this is a thin wrapper over `u32`
/// rather than an index into a table.
///
/// ```
/// use copack_geom::NetId;
/// let n = NetId::new(11);
/// assert_eq!(n.raw(), 11);
/// assert_eq!(n.to_string(), "N11");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u32);

impl NetId {
    /// Creates a net id from its raw number.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw number of this net id.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NetId {
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Index of a finger slot within one quadrant, **1-based** and counted from
/// the left, exactly as the paper's `F_1..F_α`.
///
/// ```
/// use copack_geom::FingerIdx;
/// let f = FingerIdx::new(5);
/// assert_eq!(f.get(), 5);
/// assert_eq!(f.zero_based(), 4);
/// assert_eq!(f.to_string(), "F5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FingerIdx(u32);

impl FingerIdx {
    /// Creates a finger index from a 1-based position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero; finger slots are 1-based like the paper's
    /// `F_1..F_α`.
    #[must_use]
    #[inline]
    pub fn new(pos: u32) -> Self {
        assert!(pos > 0, "finger indices are 1-based");
        Self(pos)
    }

    /// Creates a finger index from a 0-based position.
    #[must_use]
    pub fn from_zero_based(pos: usize) -> Self {
        Self(u32::try_from(pos).expect("finger index fits in u32") + 1)
    }

    /// Returns the 1-based position.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the 0-based position, convenient for slice indexing.
    #[must_use]
    pub const fn zero_based(self) -> usize {
        (self.0 - 1) as usize
    }
}

impl fmt::Display for FingerIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Index of a bump-ball row within a quadrant, **1-based from the bottom**:
/// row `1` is farthest from the die, row `n` (the "highest horizontal line"
/// in the paper) is adjacent to the finger row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowIdx(u32);

impl RowIdx {
    /// Creates a row index from a 1-based position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero.
    #[must_use]
    pub fn new(pos: u32) -> Self {
        assert!(pos > 0, "row indices are 1-based");
        Self(pos)
    }

    /// Returns the 1-based row number.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the 0-based row number.
    #[must_use]
    pub const fn zero_based(self) -> usize {
        (self.0 - 1) as usize
    }
}

impl fmt::Display for RowIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y={}", self.0)
    }
}

/// One of the four triangular quadrants the package is cut into (paper
/// Fig. 2: the planning problem is solved independently per quadrant).
///
/// The sides are named after the die edge the quadrant's fingers occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuadrantSide {
    /// Fingers along the bottom die edge.
    Bottom,
    /// Fingers along the right die edge.
    Right,
    /// Fingers along the top die edge.
    Top,
    /// Fingers along the left die edge.
    Left,
}

impl QuadrantSide {
    /// All four sides in counter-clockwise perimeter order starting at
    /// [`QuadrantSide::Bottom`].
    pub const ALL: [Self; 4] = [Self::Bottom, Self::Right, Self::Top, Self::Left];

    /// Position of this side in [`QuadrantSide::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Bottom => 0,
            Self::Right => 1,
            Self::Top => 2,
            Self::Left => 3,
        }
    }
}

impl fmt::Display for QuadrantSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Bottom => "bottom",
            Self::Right => "right",
            Self::Top => "top",
            Self::Left => "left",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_id_round_trips_raw_value() {
        assert_eq!(NetId::new(7).raw(), 7);
        assert_eq!(NetId::from(9), NetId::new(9));
    }

    #[test]
    fn net_id_display_uses_paper_notation() {
        assert_eq!(NetId::new(0).to_string(), "N0");
    }

    #[test]
    fn finger_idx_converts_between_bases() {
        let f = FingerIdx::new(1);
        assert_eq!(f.zero_based(), 0);
        assert_eq!(FingerIdx::from_zero_based(4), FingerIdx::new(5));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn finger_idx_rejects_zero() {
        let _ = FingerIdx::new(0);
    }

    #[test]
    fn row_idx_is_one_based() {
        assert_eq!(RowIdx::new(3).zero_based(), 2);
        assert_eq!(RowIdx::new(3).to_string(), "y=3");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn row_idx_rejects_zero() {
        let _ = RowIdx::new(0);
    }

    #[test]
    fn quadrant_sides_enumerate_in_perimeter_order() {
        for (i, side) in QuadrantSide::ALL.iter().enumerate() {
            assert_eq!(side.index(), i);
        }
    }

    #[test]
    fn ids_are_ordered_like_their_raw_values() {
        assert!(NetId::new(1) < NetId::new(2));
        assert!(FingerIdx::new(1) < FingerIdx::new(2));
        assert!(RowIdx::new(1) < RowIdx::new(2));
    }
}
