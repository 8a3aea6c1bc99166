//! The planar crossing model: where each wire crosses each horizontal line.

use copack_geom::{Assignment, FingerIdx, NetId, Quadrant, RowIdx};

use crate::{check_monotonic, RouteError, ViaPlan, ViaRef};

/// One wire crossing a horizontal grid line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The crossing net.
    pub net: NetId,
    /// The net's finger slot.
    pub finger: FingerIdx,
    /// x-coordinate where the wire crosses the line (geometric model:
    /// straight flyline clamped into the planarity-forced span).
    pub x: f64,
    /// Open interval the wire is forced into by the terminating vias that
    /// bracket it in finger order.
    pub span: (f64, f64),
}

/// All wires interacting with one horizontal grid line.
#[derive(Debug, Clone, PartialEq)]
pub struct LineCrossings {
    /// The ball row whose line this is.
    pub row: RowIdx,
    /// y-coordinate of the line.
    pub line_y: f64,
    /// x-coordinates of the line's via sites (balls + 1, increasing).
    pub site_xs: Vec<f64>,
    /// Nets terminating at this line (at their via), with via x, in finger
    /// (= ball) order.
    pub terminating: Vec<(NetId, f64)>,
    /// Nets crossing this line on their way to a lower row, in finger order.
    pub crossings: Vec<Crossing>,
}

impl LineCrossings {
    /// Total wires touching the line (terminating + crossing).
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.terminating.len() + self.crossings.len()
    }
}

/// Relative clamping margin, as a fraction of the ball pitch. Keeps clamped
/// wires strictly inside their span so segment attribution is unambiguous.
const EPS_FRACTION: f64 = 1e-3;

/// Computes the crossings of every horizontal line of the quadrant, highest
/// line first.
///
/// The assignment must be complete and monotonic-legal. Each placed net's
/// via is looked up once per call; every line is then one sweep over the
/// nets in finger order, in `O(lines × wires)` overall.
///
/// # Errors
///
/// * [`RouteError::NonMonotonic`] / [`RouteError::Unplaced`] from the
///   legality pre-check.
/// * [`RouteError::Unplaced`] for a placed net missing from `plan`.
pub fn line_crossings(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<Vec<LineCrossings>, RouteError> {
    check_monotonic(quadrant, assignment)?;

    // Horizontal extent used when a wire has no bracketing via on one side.
    let pitch = quadrant.geometry().ball_pitch;
    let eps = pitch * EPS_FRACTION;
    let mut half_w: f64 = 0.0;
    for (row, nets) in quadrant.rows_bottom_up() {
        let m = nets.len() as u32;
        half_w = half_w.max(quadrant.via_site_x(row, m + 1).abs());
        half_w = half_w.max(quadrant.via_site_x(row, 1).abs());
    }
    let alpha = quadrant.finger_count() as u32;
    half_w = half_w.max(quadrant.finger_center(FingerIdx::new(alpha)).x.abs());
    let bound = half_w + pitch;

    // Every placed net with its via, in finger order. A net missing from
    // the plan is reported when the top line's sweep reaches it.
    let wires: Vec<(FingerIdx, NetId, Option<ViaRef>)> = assignment
        .iter()
        .map(|(finger, net)| (finger, net, plan.via(net).ok()))
        .collect();

    let finger_y = quadrant.finger_line_y();
    let mut out = Vec::with_capacity(quadrant.row_count());
    for (row, nets) in quadrant.rows_top_down() {
        let line_y = quadrant.line_y(row);
        let m = nets.len() as u32;
        let site_xs: Vec<f64> = (1..=m + 1).map(|s| quadrant.via_site_x(row, s)).collect();

        // Terminating nets, in ball order (= finger order by legality).
        let terminating: Vec<(NetId, f64)> = nets
            .iter()
            .map(|&n| {
                let via = plan.via(n)?;
                Ok((n, via.pos.x))
            })
            .collect::<Result<_, RouteError>>()?;
        let term_pos: Vec<(u32, f64)> = terminating
            .iter()
            .map(|&(n, vx)| {
                let p = assignment
                    .position_of(n)
                    .ok_or(RouteError::Unplaced { net: n })?;
                Ok((p.get(), vx))
            })
            .collect::<Result<_, RouteError>>()?;

        // Crossing nets: via strictly below this line, in finger order.
        // The forced span lies between the terminating vias bracketing the
        // finger position. `term_pos` rises strictly in finger order, so
        // two cursors that only move forward find them: `below` counts the
        // terminating positions left of the finger, `upto` those not right
        // of it. They differ only for a net that both terminates and
        // crosses here, which a plan of another quadrant can produce.
        let (mut below, mut upto) = (0, 0);
        let mut crossings = Vec::new();
        for &(finger, net, via) in &wires {
            let via = via.ok_or(RouteError::Unplaced { net })?;
            if via.row >= row {
                continue;
            }
            let p = finger.get();
            while below < term_pos.len() && term_pos[below].0 < p {
                below += 1;
            }
            while upto < term_pos.len() && term_pos[upto].0 <= p {
                upto += 1;
            }
            let fx = quadrant.finger_center(finger).x;
            let (vx, vy) = (via.pos.x, via.pos.y);
            // Straight flyline finger → via, evaluated at this line.
            let t = (finger_y - line_y) / (finger_y - vy);
            let ideal = fx + (vx - fx) * t;
            let lo = below.checked_sub(1).map_or(-bound, |i| term_pos[i].1);
            let hi = term_pos.get(upto).map_or(bound, |&(_, vx)| vx);
            let x = ideal.clamp(lo + eps, hi - eps);
            crossings.push(Crossing {
                net,
                finger,
                x,
                span: (lo, hi),
            });
        }

        out.push(LineCrossings {
            row,
            line_y,
            site_xs,
            terminating,
            crossings,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::via_plan;
    use copack_geom::{Assignment, Quadrant};

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    fn dfa_order() -> Assignment {
        Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0])
    }

    #[test]
    fn lines_come_top_down_with_correct_populations() {
        let q = fig5();
        let plan = via_plan(&q);
        let lines = line_crossings(&q, &dfa_order(), &plan).unwrap();
        assert_eq!(lines.len(), 3);
        // Top line: 3 terminate, 9 cross.
        assert_eq!(lines[0].row.get(), 3);
        assert_eq!(lines[0].terminating.len(), 3);
        assert_eq!(lines[0].crossings.len(), 9);
        // Middle line: 4 terminate, 5 cross.
        assert_eq!(lines[1].terminating.len(), 4);
        assert_eq!(lines[1].crossings.len(), 5);
        // Bottom line: 5 terminate, none cross.
        assert_eq!(lines[2].terminating.len(), 5);
        assert_eq!(lines[2].crossings.len(), 0);
    }

    #[test]
    fn every_crossing_is_inside_its_span() {
        let q = fig5();
        let plan = via_plan(&q);
        for a in [
            dfa_order(),
            Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]),
        ] {
            for line in line_crossings(&q, &a, &plan).unwrap() {
                for c in &line.crossings {
                    assert!(c.span.0 < c.x && c.x < c.span.1, "{c:?}");
                }
            }
        }
    }

    #[test]
    fn crossing_order_matches_finger_order() {
        // Planarity: crossings are produced in finger order and their spans
        // never regress (span lows are non-decreasing).
        let q = fig5();
        let plan = via_plan(&q);
        for line in line_crossings(&q, &dfa_order(), &plan).unwrap() {
            for w in line.crossings.windows(2) {
                assert!(w[0].finger < w[1].finger);
                assert!(w[0].span.0 <= w[1].span.0);
                assert!(w[0].span.1 <= w[1].span.1);
            }
        }
    }

    #[test]
    fn illegal_assignment_is_rejected() {
        let q = fig5();
        let plan = via_plan(&q);
        let bad = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        assert!(matches!(
            line_crossings(&q, &bad, &plan),
            Err(RouteError::NonMonotonic { .. })
        ));
    }

    #[test]
    fn site_xs_are_strictly_increasing() {
        let q = fig5();
        let plan = via_plan(&q);
        for line in line_crossings(&q, &dfa_order(), &plan).unwrap() {
            assert_eq!(line.site_xs.len(), line.terminating.len() + 1);
            for w in line.site_xs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn wire_count_sums_terminating_and_crossing() {
        let q = fig5();
        let plan = via_plan(&q);
        let lines = line_crossings(&q, &dfa_order(), &plan).unwrap();
        assert_eq!(lines[0].wire_count(), 12);
        assert_eq!(lines[1].wire_count(), 9);
        assert_eq!(lines[2].wire_count(), 5);
    }
}
