//! Pad placements beyond the boundary ring: flip-chip area arrays.
//!
//! The paper (§2.4) adopts wire-bond packaging, noting that "the IR-drop
//! problem of a wire-bond package is worse than a flip-chip package"
//! because flip-chip feeds the core from an **area array** of bumps over
//! the whole die rather than from the boundary. This module models both so
//! the claim can be measured (see the `flipchip` example and the A4 study
//! in `EXPERIMENTS.md`).

use crate::{GridSpec, PadRing, PowerError};

/// A uniform flip-chip power-bump array: `nx × ny` pads spread over the
/// die interior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PadArray {
    /// Pads per row.
    pub nx: usize,
    /// Pads per column.
    pub ny: usize,
}

impl PadArray {
    /// Creates an array.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoPads`] if either dimension is zero.
    pub fn new(nx: usize, ny: usize) -> Result<Self, PowerError> {
        if nx == 0 || ny == 0 {
            return Err(PowerError::NoPads);
        }
        Ok(Self { nx, ny })
    }

    /// Total pad count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the array is empty (never true for a constructed array).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid nodes clamped by the array: pads at the cell centres of an
    /// `nx × ny` partition of the die.
    #[must_use]
    pub fn clamp_nodes(&self, spec: &GridSpec) -> Vec<(usize, usize)> {
        let mut nodes = Vec::with_capacity(self.len());
        for pj in 0..self.ny {
            for pi in 0..self.nx {
                let fx = (pi as f64 + 0.5) / self.nx as f64;
                let fy = (pj as f64 + 0.5) / self.ny as f64;
                let i = ((fx * spec.nx as f64) as usize).min(spec.nx - 1);
                let j = ((fy * spec.ny as f64) as usize).min(spec.ny - 1);
                nodes.push((i, j));
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Where the supply pads sit: the package style.
#[derive(Debug, Clone, PartialEq)]
pub enum PadPlan {
    /// Wire-bond style: pads on the die boundary (the paper's setting).
    WireBond(PadRing),
    /// Flip-chip style: an area array over the die.
    FlipChip(PadArray),
    /// Explicit grid nodes (escape hatch for irregular plans).
    Explicit(Vec<(usize, usize)>),
}

impl PadPlan {
    /// The grid nodes this plan clamps to `Vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoPads`] if the plan clamps nothing, or
    /// [`PowerError::BadSpec`] if an explicit node is outside the grid.
    pub fn clamp_nodes(&self, spec: &GridSpec) -> Result<Vec<(usize, usize)>, PowerError> {
        let nodes = match self {
            Self::WireBond(ring) => ring.clamp_nodes(spec),
            Self::FlipChip(array) => array.clamp_nodes(spec),
            Self::Explicit(nodes) => {
                for &(i, j) in nodes {
                    if i >= spec.nx || j >= spec.ny {
                        return Err(PowerError::BadSpec {
                            parameter: "pad node",
                        });
                    }
                }
                let mut nodes = nodes.clone();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            }
        };
        if nodes.is_empty() {
            return Err(PowerError::NoPads);
        }
        Ok(nodes)
    }

    /// Number of distinct pads in the plan (before grid snapping).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::WireBond(ring) => ring.len(),
            Self::FlipChip(array) => array.len(),
            Self::Explicit(nodes) => nodes.len(),
        }
    }

    /// Whether the plan has no pads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_plan;

    #[test]
    fn array_nodes_cover_the_interior() {
        let spec = GridSpec::default_chip(16);
        let array = PadArray::new(3, 3).unwrap();
        let nodes = array.clamp_nodes(&spec);
        assert_eq!(nodes.len(), 9);
        for (i, j) in nodes {
            assert!(i > 0 && i < 15 && j > 0 && j < 15, "({i},{j}) not interior");
        }
    }

    #[test]
    fn degenerate_arrays_are_rejected() {
        assert!(PadArray::new(0, 3).is_err());
        assert!(PadArray::new(3, 0).is_err());
        assert!(!PadArray::new(2, 2).unwrap().is_empty());
    }

    #[test]
    fn explicit_nodes_validate_bounds() {
        let spec = GridSpec::default_chip(8);
        let ok = PadPlan::Explicit(vec![(0, 0), (7, 7), (0, 0)]);
        assert_eq!(ok.clamp_nodes(&spec).unwrap().len(), 2);
        let bad = PadPlan::Explicit(vec![(8, 0)]);
        assert!(bad.clamp_nodes(&spec).is_err());
        let empty = PadPlan::Explicit(vec![]);
        assert!(empty.clamp_nodes(&spec).is_err());
    }

    #[test]
    fn flip_chip_beats_wire_bond_at_equal_pad_count() {
        // The §2.4 claim, quantified: 16 boundary pads vs a 4×4 area array.
        let spec = GridSpec::default_chip(24);
        let wire_bond = PadPlan::WireBond(crate::PadRing::uniform(16));
        let flip_chip = PadPlan::FlipChip(PadArray::new(4, 4).unwrap());
        let wb = solve_plan(&spec, &wire_bond).unwrap();
        let fc = solve_plan(&spec, &flip_chip).unwrap();
        assert!(
            fc.max_drop() < wb.max_drop() / 2.0,
            "flip-chip {:.4} !<< wire-bond {:.4}",
            fc.max_drop(),
            wb.max_drop()
        );
    }

    #[test]
    fn plan_len_reports_pad_counts() {
        assert_eq!(PadPlan::WireBond(crate::PadRing::uniform(5)).len(), 5);
        assert_eq!(PadPlan::FlipChip(PadArray::new(2, 3).unwrap()).len(), 6);
        assert_eq!(PadPlan::Explicit(vec![(0, 0)]).len(), 1);
    }
}
