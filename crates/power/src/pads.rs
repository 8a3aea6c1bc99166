//! Power-pad rings on the die boundary.

use crate::{GridSpec, PowerError};

/// A set of power pads on the die boundary, each at a normalised perimeter
/// coordinate `t ∈ [0, 1)` (counter-clockwise from the bottom-left corner —
/// the same parameterisation as `copack_geom::Package::perimeter_t`).
///
/// Pads are ideal voltage sources: the grid nodes under them are clamped to
/// `Vdd` by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct PadRing {
    ts: Vec<f64>,
}

impl PadRing {
    /// Builds a ring from perimeter coordinates.
    ///
    /// Coordinates are kept in the order given; duplicates are allowed (two
    /// pads may share a boundary node on a coarse grid).
    ///
    /// # Errors
    ///
    /// * [`PowerError::NoPads`] if `ts` is empty.
    /// * [`PowerError::BadPadPosition`] if a coordinate is outside `[0, 1)`.
    pub fn from_ts<I>(ts: I) -> Result<Self, PowerError>
    where
        I: IntoIterator<Item = f64>,
    {
        let ts: Vec<f64> = ts.into_iter().collect();
        if ts.is_empty() {
            return Err(PowerError::NoPads);
        }
        for &t in &ts {
            if !t.is_finite() || !(0.0..1.0).contains(&t) {
                return Err(PowerError::BadPadPosition { t });
            }
        }
        Ok(Self { ts })
    }

    /// `k` pads spread perfectly uniformly around the perimeter — the
    /// "regularly planned" configuration of the paper's Fig. 6(B).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0, "a pad ring needs at least one pad");
        Self {
            ts: (0..k).map(|i| (i as f64 + 0.5) / k as f64).collect(),
        }
    }

    /// Perimeter coordinates, in insertion order.
    #[must_use]
    pub fn ts(&self) -> &[f64] {
        &self.ts
    }

    /// Number of pads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the ring has no pads (never true for a constructed ring).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The boundary grid nodes the pads clamp, for a given grid. Several
    /// pads may map to one node; the list is deduplicated.
    #[must_use]
    pub fn clamp_nodes(&self, spec: &GridSpec) -> Vec<(usize, usize)> {
        let boundary = spec.boundary_nodes();
        let blen = boundary.len();
        let mut nodes: Vec<(usize, usize)> = self
            .ts
            .iter()
            .map(|&t| boundary[((t * blen as f64).floor() as usize).min(blen - 1)])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ts_validates_range() {
        assert!(matches!(
            PadRing::from_ts(std::iter::empty()),
            Err(PowerError::NoPads)
        ));
        assert!(matches!(
            PadRing::from_ts([0.5, 1.0]),
            Err(PowerError::BadPadPosition { .. })
        ));
        assert!(matches!(
            PadRing::from_ts([-0.1]),
            Err(PowerError::BadPadPosition { .. })
        ));
        assert_eq!(PadRing::from_ts([0.0, 0.5]).unwrap().len(), 2);
    }

    #[test]
    fn uniform_ring_is_evenly_spaced() {
        let ring = PadRing::uniform(4);
        assert_eq!(ring.ts(), &[0.125, 0.375, 0.625, 0.875]);
        assert!(!ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one pad")]
    fn uniform_rejects_zero() {
        let _ = PadRing::uniform(0);
    }

    #[test]
    fn clamp_nodes_land_on_the_boundary() {
        let spec = GridSpec::default_chip(8);
        let ring = PadRing::uniform(6);
        for (i, j) in ring.clamp_nodes(&spec) {
            assert!(i == 0 || j == 0 || i == spec.nx - 1 || j == spec.ny - 1);
        }
    }

    #[test]
    fn coincident_pads_deduplicate() {
        let spec = GridSpec::default_chip(8);
        let ring = PadRing::from_ts([0.1, 0.1, 0.1]).unwrap();
        assert_eq!(ring.clamp_nodes(&spec).len(), 1);
    }

    #[test]
    fn quarter_points_land_on_the_expected_edges() {
        let spec = GridSpec::default_chip(9);
        let ring = PadRing::from_ts([0.0, 0.26, 0.51, 0.76]).unwrap();
        let nodes = ring.clamp_nodes(&spec);
        assert!(nodes.contains(&(0, 0)));
        // t≈0.26 → right edge, t≈0.51 → top edge, t≈0.76 → left edge.
        assert!(nodes.iter().any(|&(i, _)| i == spec.nx - 1));
        assert!(nodes.iter().any(|&(_, j)| j == spec.ny - 1));
        assert!(nodes.iter().filter(|&&(i, _)| i == 0).count() >= 2);
    }
}
