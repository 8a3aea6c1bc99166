//! Bump-ball references.

use std::fmt;

use crate::{NetId, RowIdx};

/// Location of one bump ball inside a quadrant: the paper's `B_{γ,δ,ε}`
/// (net name γ at column δ of row ε).
///
/// Columns are 1-based from the left within their row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BallRef {
    /// Net connected to this ball.
    pub net: NetId,
    /// Ball row (1-based from the bottom of the quadrant).
    pub row: RowIdx,
    /// Ball column within the row (1-based from the left).
    pub col: u32,
}

impl BallRef {
    /// Creates a ball reference.
    ///
    /// # Panics
    ///
    /// Panics if `col` is zero (columns are 1-based).
    #[must_use]
    pub fn new(net: NetId, row: RowIdx, col: u32) -> Self {
        assert!(col > 0, "ball columns are 1-based");
        Self { net, row, col }
    }

    /// 0-based column, convenient for slice indexing.
    #[must_use]
    pub const fn col_zero_based(self) -> usize {
        (self.col - 1) as usize
    }
}

impl fmt::Display for BallRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B[{}, x={}, {}]", self.net, self.col, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_ref_round_trips_fields() {
        let b = BallRef::new(NetId::new(6), RowIdx::new(3), 2);
        assert_eq!(b.net, NetId::new(6));
        assert_eq!(b.row.get(), 3);
        assert_eq!(b.col_zero_based(), 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn ball_columns_reject_zero() {
        let _ = BallRef::new(NetId::new(1), RowIdx::new(1), 0);
    }

    #[test]
    fn display_mentions_net_and_row() {
        let b = BallRef::new(NetId::new(9), RowIdx::new(2), 4);
        let s = b.to_string();
        assert!(s.contains("N9"));
        assert!(s.contains("y=2"));
    }
}
