//! Cut-line congestion across quadrant boundaries.
//!
//! The package is planned one triangular quadrant at a time, but wires that
//! cross a line *outside* its via span (the flank regions) run along the
//! diagonal cut-lines, where they meet the neighbouring quadrant's flank
//! wires. The paper notes this explicitly ("two neighboring triangles
//! contribute to the congestion along the cut-line") and offers the DFA
//! slack `n ≥ 2` to reserve room. This module measures that shared
//! congestion for a whole package.

use copack_geom::{Assignment, Package};

use crate::{density_map, DensityMap, DensityModel, RouteError};

/// Flank wire counts of one quadrant: wires crossing left of the first via
/// site and right of the last, maximised over its horizontal lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlankLoad {
    /// Worst per-line count in the left flank region.
    pub left: u32,
    /// Worst per-line count in the right flank region.
    pub right: u32,
}

impl FlankLoad {
    /// The flank loads of a quadrant's density map: the worst first and
    /// last (unbounded) segment counts over its lines.
    #[must_use]
    pub fn of(map: &DensityMap) -> Self {
        let mut load = Self { left: 0, right: 0 };
        for row in &map.rows {
            load.left = load.left.max(*row.counts.first().unwrap_or(&0));
            load.right = load.right.max(*row.counts.last().unwrap_or(&0));
        }
        load
    }
}

/// Cut-line congestion of a full package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutlineReport {
    /// Per-quadrant flank loads, in [`copack_geom::QuadrantSide::ALL`] order.
    pub flanks: [FlankLoad; 4],
    /// Shared congestion on each of the four diagonal cut-lines: the right
    /// flank of side `k` plus the left flank of side `k + 1`.
    pub boundaries: [u32; 4],
}

impl CutlineReport {
    /// The package's cut-line congestion from its per-side flank loads (in
    /// [`copack_geom::QuadrantSide::ALL`] order), e.g. the
    /// [`crate::RoutingReport::flanks`] of the four sides.
    #[must_use]
    pub fn from_flanks(flanks: [FlankLoad; 4]) -> Self {
        let boundaries = std::array::from_fn(|k| flanks[k].right + flanks[(k + 1) % 4].left);
        Self { flanks, boundaries }
    }

    /// The worst shared cut-line congestion.
    #[must_use]
    pub fn max(&self) -> u32 {
        self.boundaries.iter().copied().max().unwrap_or(0)
    }
}

/// Measures the cut-line congestion of a package under per-side
/// assignments (in [`copack_geom::QuadrantSide::ALL`] order).
///
/// # Errors
///
/// Propagates legality errors from any quadrant's density analysis.
pub fn cutline_congestion(
    package: &Package,
    assignments: &[Assignment; 4],
    model: DensityModel,
) -> Result<CutlineReport, RouteError> {
    let mut flanks = [FlankLoad { left: 0, right: 0 }; 4];
    for (side, quadrant) in package.quadrants() {
        let map = density_map(quadrant, &assignments[side.index()], model)?;
        flanks[side.index()] = FlankLoad::of(&map);
    }
    Ok(CutlineReport::from_flanks(flanks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{Package, Quadrant};

    fn fig5_package() -> (Package, [Assignment; 4]) {
        let q = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        (Package::uniform(q), [a.clone(), a.clone(), a.clone(), a])
    }

    #[test]
    fn symmetric_packages_have_symmetric_boundaries() {
        let (p, a) = fig5_package();
        let report = cutline_congestion(&p, &a, DensityModel::Geometric).unwrap();
        // Four identical quadrants: every boundary carries the same load.
        for b in &report.boundaries {
            assert_eq!(*b, report.boundaries[0]);
        }
        assert_eq!(report.max(), report.boundaries[0]);
    }

    #[test]
    fn boundaries_sum_adjacent_flanks() {
        let (p, a) = fig5_package();
        let report = cutline_congestion(&p, &a, DensityModel::Geometric).unwrap();
        for k in 0..4 {
            let next = (k + 1) % 4;
            assert_eq!(
                report.boundaries[k],
                report.flanks[k].right + report.flanks[next].left
            );
        }
    }

    #[test]
    fn mixed_quadrants_differ_per_boundary() {
        use copack_geom::QuadrantSide::{Bottom, Left, Right, Top};
        let q = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap();
        let p = Package::builder()
            .side(Bottom, q.clone())
            .side(Right, q.clone())
            .side(Top, q.clone())
            .side(Left, q)
            .build()
            .unwrap();
        let dfa = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let random = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let assignments = [dfa.clone(), random, dfa.clone(), dfa];
        let report = cutline_congestion(&p, &assignments, DensityModel::Geometric).unwrap();
        // The random side's flanks differ from the DFA sides'.
        let loads: std::collections::HashSet<u32> = report.boundaries.iter().copied().collect();
        assert!(loads.len() > 1, "{report:?}");
    }

    #[test]
    fn illegal_side_is_rejected() {
        let (p, mut a) = fig5_package();
        a[2] = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        assert!(cutline_congestion(&p, &a, DensityModel::Geometric).is_err());
    }
}
