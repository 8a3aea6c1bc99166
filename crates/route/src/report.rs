//! One-call routing analysis combining legality, density and wirelength.

use std::fmt;

use copack_geom::{Assignment, Quadrant};
use serde::{Deserialize, Serialize};

use crate::{check_monotonic, density_map, total_wirelength, DensityModel, FlankLoad, RouteError};

/// Summary of a routed (analysed) assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingReport {
    /// The paper's "maximum density": worst segment wire count.
    pub max_density: u32,
    /// Maximum density over interior segments only (between two via
    /// sites), excluding the cut-line flank regions the paper ignores.
    pub max_density_interior: u32,
    /// 1-based row of the worst line.
    pub max_density_row: u32,
    /// Maximum density per line, highest line first, as `(row, max)`.
    pub per_row_max: Vec<(u32, u32)>,
    /// Worst flank (cut-line region) wire counts; see
    /// [`crate::CutlineReport::from_flanks`].
    pub flanks: FlankLoad,
    /// Total flyline wirelength (µm).
    pub total_wirelength: f64,
    /// Number of routed nets.
    pub nets: usize,
    /// Density model used.
    pub model: DensityModel,
}

impl fmt::Display for RoutingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets: max density {} (row y={}), wirelength {:.3} um [{}]",
            self.nets, self.max_density, self.max_density_row, self.total_wirelength, self.model
        )
    }
}

/// Analyses `assignment` on `quadrant`: legality check, density map and
/// flyline wirelength.
///
/// # Errors
///
/// * [`RouteError::NonMonotonic`] if the assignment cannot be routed
///   monotonically.
/// * [`RouteError::Unplaced`] if a net is missing a slot.
pub fn analyze(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
) -> Result<RoutingReport, RouteError> {
    check_monotonic(quadrant, assignment)?;
    let density = density_map(quadrant, assignment, model)?;
    let wirelength = total_wirelength(quadrant, assignment)?;
    Ok(RoutingReport {
        max_density: density.max_density(),
        max_density_interior: density.max_density_interior(),
        max_density_row: density.max_density_row().map_or(0, |r| r.get()),
        per_row_max: density
            .rows
            .iter()
            .map(|r| (r.row.get(), r.max()))
            .collect(),
        flanks: FlankLoad::of(&density),
        total_wirelength: wirelength,
        nets: assignment.net_count(),
        model,
    })
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
    fn report_matches_component_analyses() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let r = analyze(&q, &a, DensityModel::Geometric).unwrap();
        assert_eq!(r.max_density, 2);
        assert_eq!(r.nets, 12);
        assert_eq!(r.per_row_max.len(), 3);
        let wl = total_wirelength(&q, &a).unwrap();
        assert!((r.total_wirelength - wl).abs() < 1e-12);
    }

    #[test]
    fn report_rejects_illegal_assignments() {
        let q = fig5();
        let bad = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        assert!(analyze(&q, &bad, DensityModel::Geometric).is_err());
    }

    #[test]
    fn display_mentions_key_numbers() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let r = analyze(&q, &a, DensityModel::Geometric).unwrap();
        let s = r.to_string();
        assert!(s.contains("12 nets") && s.contains("max density 2"));
    }
}
