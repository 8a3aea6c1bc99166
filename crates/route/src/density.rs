//! Wire-density maps: the paper's congestion metric.

use std::fmt;

use copack_geom::{Assignment, FingerIdx, NetId, Quadrant, RowIdx};

use crate::crossing::{site_xs, sweep, CrossingSink};
use crate::{check_monotonic, via_plan, RouteError, ViaPlan};

/// How crossing wires are attributed to segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DensityModel {
    /// Wires cross at their straight-flyline x (clamped into the
    /// planarity-forced span); segments are delimited by **all** via sites,
    /// occupied or not ("between assigned and unassigned vias", paper
    /// Fig. 13). This is the model that reproduces the paper's Fig. 5
    /// numbers and the default.
    #[default]
    Geometric,
    /// Wires are attributed purely by order to the span between the two
    /// occupied (terminating) vias bracketing them; unoccupied sites do not
    /// subdivide. An intentionally coarser ablation model.
    OrderOnly,
}

impl fmt::Display for DensityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Geometric => f.write_str("geometric"),
            Self::OrderOnly => f.write_str("order-only"),
        }
    }
}

/// Per-line wire density.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDensity {
    /// The ball row whose horizontal line this is.
    pub row: RowIdx,
    /// Segment boundaries (x-coordinates, increasing). Under
    /// [`DensityModel::Geometric`] these are the line's via sites; under
    /// [`DensityModel::OrderOnly`] the occupied vias only.
    pub boundaries: Vec<f64>,
    /// Wire count per segment; `counts.len() == boundaries.len() + 1`
    /// (the outermost segments are unbounded).
    pub counts: Vec<u32>,
}

impl RowDensity {
    /// Maximum segment density on this line.
    #[must_use]
    pub fn max(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Maximum density over the **interior** segments only — the ones
    /// bounded by two via sites, the paper's literal "wire count between
    /// two continuous vias". Wires crossing outside the line's via span
    /// (the flank regions along the quadrant cut-lines, whose congestion
    /// the paper explicitly ignores) are excluded.
    #[must_use]
    pub fn max_interior(&self) -> u32 {
        if self.counts.len() < 3 {
            return 0;
        }
        self.counts[1..self.counts.len() - 1]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Wire-density map of a whole quadrant, lines ordered top-down.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    /// Per-line densities, highest line first.
    pub rows: Vec<RowDensity>,
}

impl DensityMap {
    /// The paper's "maximum density": the highest segment count anywhere.
    #[must_use]
    pub fn max_density(&self) -> u32 {
        self.rows.iter().map(RowDensity::max).max().unwrap_or(0)
    }

    /// The paper's Table 2 metric: maximum density over interior segments
    /// (bounded by two via sites) anywhere; see
    /// [`RowDensity::max_interior`].
    #[must_use]
    pub fn max_density_interior(&self) -> u32 {
        self.rows
            .iter()
            .map(RowDensity::max_interior)
            .max()
            .unwrap_or(0)
    }

    /// Row achieving the maximum density (highest such line if tied).
    #[must_use]
    pub fn max_density_row(&self) -> Option<RowIdx> {
        let max = self.max_density();
        self.rows.iter().find(|r| r.max() == max).map(|r| r.row)
    }

    /// Density of a specific line.
    #[must_use]
    pub fn row(&self, row: RowIdx) -> Option<&RowDensity> {
        self.rows.iter().find(|r| r.row == row)
    }
}

/// Computes the wire-density map of `assignment` on `quadrant`.
///
/// # Errors
///
/// Propagates legality errors from the crossing model
/// ([`RouteError::NonMonotonic`], [`RouteError::Unplaced`]).
pub fn density_map(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
) -> Result<DensityMap, RouteError> {
    density_map_with_plan(quadrant, assignment, model, &via_plan(quadrant))
}

/// [`density_map`] with telemetry: records one
/// [`copack_obs::Event::DensityEvaluated`] carrying the map's maximum
/// density and line count. A disabled recorder costs nothing.
///
/// # Errors
///
/// As [`density_map`].
pub fn density_map_traced(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
    recorder: &mut dyn copack_obs::Recorder,
) -> Result<DensityMap, RouteError> {
    let map = density_map(quadrant, assignment, model)?;
    if recorder.enabled() {
        recorder.record(&copack_obs::Event::DensityEvaluated {
            max_density: map.max_density(),
            lines: map.rows.len() as u32,
        });
    }
    Ok(map)
}

/// [`density_map`] under an explicit via plan (see
/// [`crate::via_plan_with`]).
///
/// Each crossing is counted into its segment as the crate's crossing pass
/// produces it (see [`crate::line_crossings`] for the crossings
/// themselves), so the map costs `O(crossings + lines × sites)` time and
/// holds nothing per crossing.
///
/// # Errors
///
/// As [`density_map`], and [`crate::line_crossings`]'s errors for a plan
/// of another quadrant.
pub fn density_map_with_plan(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
    plan: &ViaPlan,
) -> Result<DensityMap, RouteError> {
    check_monotonic(quadrant, assignment)?;
    legal_density_map(quadrant, assignment, model, plan)
}

/// [`density_map_with_plan`] for an assignment that has passed
/// [`check_monotonic`].
pub(crate) fn legal_density_map(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
    plan: &ViaPlan,
) -> Result<DensityMap, RouteError> {
    let mut counter = Counter {
        quadrant,
        model,
        rows: Vec::with_capacity(quadrant.row_count()),
        within: (0, 0),
    };
    sweep(quadrant, assignment, plan, &mut counter)?;
    Ok(DensityMap { rows: counter.rows })
}

/// Counts the crossing pass into per-line segment counts.
///
/// A crossing falls in the segment after every boundary left of it: under
/// [`DensityModel::Geometric`] at its x, under
/// [`DensityModel::OrderOnly`] at its span's lower end (an occupied via or
/// the left extent), which puts it in the segment right of that via.
struct Counter<'q> {
    quadrant: &'q Quadrant,
    model: DensityModel,
    rows: Vec<RowDensity>,
    /// The current bracket's boundaries still to compare, as an index
    /// range; under the order-only model its start is the segment.
    within: (usize, usize),
}

impl CrossingSink for Counter<'_> {
    fn line(&mut self, row: RowIdx, _line_y: f64, terminating: &[(NetId, f64)]) {
        let boundaries: Vec<f64> = match self.model {
            DensityModel::Geometric => site_xs(self.quadrant, row),
            DensityModel::OrderOnly => terminating.iter().map(|&(_, vx)| vx).collect(),
        };
        let counts = vec![0u32; boundaries.len() + 1];
        self.rows.push(RowDensity {
            row,
            boundaries,
            counts,
        });
    }

    fn bracket(&mut self, span: (f64, f64), clamp: (f64, f64)) {
        let b = &self
            .rows
            .last()
            .expect("a bracket follows its line")
            .boundaries;
        self.within = match self.model {
            // The crossing's x lies in the clamp range: every boundary
            // left of the range precedes it, and none from its right end
            // on. The sites rise, so a search of the rest suffices.
            DensityModel::Geometric => (
                b.partition_point(|&v| v < clamp.0),
                b.partition_point(|&v| v < clamp.1),
            ),
            DensityModel::OrderOnly => (b.partition_point(|&v| v < span.0), 0),
        };
    }

    fn crossing(&mut self, _net: NetId, _finger: FingerIdx, x: f64) {
        let row = self.rows.last_mut().expect("a crossing follows its line");
        let (lo, hi) = self.within;
        let seg = match self.model {
            // A NaN x (a flyline from a foreign via at the finger row's
            // height) precedes no boundary.
            DensityModel::Geometric if x.is_nan() => 0,
            DensityModel::Geometric => lo + row.boundaries[lo..hi].partition_point(|&b| b < x),
            DensityModel::OrderOnly => lo,
        };
        row.counts[seg] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{Assignment, Quadrant};

    fn fig5() -> Quadrant {
        // Figure-style geometry: fingers span the same width as the ball
        // grid, as drawn in the paper's Fig. 5 (12 fingers over 5 balls).
        let geometry = copack_geom::QuadrantGeometry {
            ball_pitch: 1.0,
            finger_pitch: 0.5,
            finger_width: 0.3,
            finger_height: 0.4,
            via_diameter: 0.1,
            ball_diameter: 0.2,
        };
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .geometry(geometry)
            .build()
            .unwrap()
    }

    #[test]
    fn fig5a_random_order_has_max_density_4() {
        // Paper Fig. 5(A): "the maximum density is 4".
        let q = fig5();
        let a = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let d = density_map(&q, &a, DensityModel::Geometric).unwrap();
        assert_eq!(d.max_density(), 4);
    }

    #[test]
    fn fig5b_dfa_order_has_max_density_2() {
        // Paper Fig. 5(B): "the maximum density is 2".
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let d = density_map(&q, &a, DensityModel::Geometric).unwrap();
        assert_eq!(d.max_density(), 2);
    }

    #[test]
    fn fig10_ifa_order_has_max_density_2() {
        // Paper Fig. 10(B): "The maximum density in the routing result is 2".
        let q = fig5();
        let a = Assignment::from_order([10u32, 1, 11, 2, 3, 6, 4, 5, 9, 7, 8, 0]);
        let d = density_map(&q, &a, DensityModel::Geometric).unwrap();
        assert_eq!(d.max_density(), 2);
    }

    #[test]
    fn max_density_row_is_the_top_line() {
        // Monotonic routing concentrates wires on the highest line
        // (paper §3.2 exploits exactly this).
        let q = fig5();
        let a = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let d = density_map(&q, &a, DensityModel::Geometric).unwrap();
        assert_eq!(d.max_density_row().unwrap().get(), 3);
    }

    #[test]
    fn counts_cover_all_crossing_wires() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            let d = density_map(&q, &a, model).unwrap();
            let totals: Vec<u32> = d.rows.iter().map(|r| r.counts.iter().sum()).collect();
            assert_eq!(totals, vec![9, 5, 0], "model {model}");
        }
    }

    #[test]
    fn order_only_is_never_below_geometric() {
        // Coarser segments can only merge wires together.
        let q = fig5();
        for order in [
            vec![10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0],
            vec![10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0],
        ] {
            let a = Assignment::from_order(order);
            let geo = density_map(&q, &a, DensityModel::Geometric).unwrap();
            let ord = density_map(&q, &a, DensityModel::OrderOnly).unwrap();
            assert!(ord.max_density() >= geo.max_density());
        }
    }

    #[test]
    fn bottom_line_has_no_crossings() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let d = density_map(&q, &a, DensityModel::Geometric).unwrap();
        let bottom = d.row(RowIdx::new(1)).unwrap();
        assert_eq!(bottom.max(), 0);
    }

    #[test]
    fn empty_map_reports_zero() {
        let d = DensityMap { rows: vec![] };
        assert_eq!(d.max_density(), 0);
        assert!(d.max_density_row().is_none());
    }

    #[test]
    fn boundaries_and_counts_are_consistent() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            let d = density_map(&q, &a, model).unwrap();
            for r in &d.rows {
                assert_eq!(r.counts.len(), r.boundaries.len() + 1);
            }
        }
    }

    #[test]
    fn display_names_models() {
        assert_eq!(DensityModel::Geometric.to_string(), "geometric");
        assert_eq!(DensityModel::OrderOnly.to_string(), "order-only");
    }
}
