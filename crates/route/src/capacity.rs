//! Design-rule capacity checking.
//!
//! The paper's motivation for controlling density: "If the density is
//! higher, it indicates that too many wires pass through a narrow range.
//! Therefore, a violation of design rules probably occurred." This module
//! turns that into a check: a segment between two via sites has a physical
//! width; at a given wire pitch it can carry only so many wires. A
//! [`DensityMap`] whose loads exceed those capacities is not manufacturable
//! at that pitch.

use copack_geom::RowIdx;

use crate::DensityMap;

/// One over-capacity segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityViolation {
    /// The line's row.
    pub row: RowIdx,
    /// Segment index on that line (0 = the left flank region).
    pub segment: usize,
    /// Wires crossing the segment.
    pub load: u32,
    /// Wires the segment can physically carry.
    pub capacity: u32,
}

/// Checks every **interior** segment of `map` against the wire pitch
/// (centre-to-centre wire spacing, µm) and via diameter; the unbounded
/// flank segments are skipped. Returns all violations, worst first.
///
/// Capacity of a segment of width `w` is `⌊(w − via_diameter) / pitch⌋`,
/// floored at zero.
///
/// # Panics
///
/// Panics if `wire_pitch` is not positive and finite.
#[must_use]
pub fn check_capacity(
    map: &DensityMap,
    wire_pitch: f64,
    via_diameter: f64,
) -> Vec<CapacityViolation> {
    assert!(
        wire_pitch.is_finite() && wire_pitch > 0.0,
        "wire pitch must be positive"
    );
    let mut violations = Vec::new();
    for row in &map.rows {
        for (segment, window) in row.boundaries.windows(2).enumerate() {
            let width = window[1] - window[0];
            let capacity = (((width - via_diameter) / wire_pitch).floor()).max(0.0) as u32;
            let load = row.counts[segment + 1];
            if load > capacity {
                violations.push(CapacityViolation {
                    row: row.row,
                    segment: segment + 1,
                    load,
                    capacity,
                });
            }
        }
    }
    violations.sort_by_key(|v| std::cmp::Reverse(v.load.saturating_sub(v.capacity)));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{density_map, DensityModel};
    use copack_geom::{Assignment, Quadrant, QuadrantGeometry};

    fn fig5_map(order: [u32; 12]) -> DensityMap {
        let q = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .geometry(QuadrantGeometry {
                ball_pitch: 1.0,
                finger_pitch: 0.5,
                finger_width: 0.3,
                finger_height: 0.4,
                via_diameter: 0.1,
                ball_diameter: 0.2,
            })
            .build()
            .unwrap();
        density_map(&q, &Assignment::from_order(order), DensityModel::Geometric).unwrap()
    }

    #[test]
    fn generous_pitch_passes_everything() {
        // Segment width 1.0 µm, via 0.1: pitch 0.2 gives capacity 4 ≥ any
        // load of the DFA order (max 2).
        let map = fig5_map([10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        assert!(check_capacity(&map, 0.2, 0.1).is_empty());
    }

    #[test]
    fn tight_pitch_flags_the_crowded_segments() {
        // Same geometry, random order (loads up to 4 in one segment… its 4
        // are in a flank, interior max is 3): pitch 0.45 gives capacity 2.
        let map = fig5_map([10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let violations = check_capacity(&map, 0.45, 0.1);
        assert!(!violations.is_empty());
        for v in &violations {
            assert!(v.load > v.capacity);
        }
        // Worst overflow first.
        for w in violations.windows(2) {
            assert!(
                w[0].load - w[0].capacity >= w[1].load - w[1].capacity,
                "{violations:?}"
            );
        }
    }

    #[test]
    fn better_orders_violate_less() {
        let random = fig5_map([10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let dfa = fig5_map([10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let pitch = 0.45;
        assert!(
            check_capacity(&dfa, pitch, 0.1).len() <= check_capacity(&random, pitch, 0.1).len()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pitch_is_rejected() {
        let map = fig5_map([10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let _ = check_capacity(&map, 0.0, 0.1);
    }
}
