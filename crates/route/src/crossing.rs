//! The planar crossing model: where each wire crosses each horizontal line.

use copack_geom::{Assignment, FingerIdx, NetId, Quadrant, RowIdx};

use crate::{check_monotonic, RouteError, ViaPlan};

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
/// The assignment must be complete and monotonic-legal. This collects
/// the crate's one crossing pass, which [`crate::density_map`] runs
/// without storing the crossings.
///
/// # Errors
///
/// * [`RouteError::NonMonotonic`] / [`RouteError::Unplaced`] from the
///   legality pre-check.
/// * [`RouteError::Unplaced`] for a placed net missing from `plan`.
/// * [`RouteError::EmptySpan`] where `plan`, a plan of another quadrant,
///   brackets a crossing wire by vias that leave it no room.
pub fn line_crossings(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<Vec<LineCrossings>, RouteError> {
    check_monotonic(quadrant, assignment)?;
    let mut lines = Lines {
        quadrant,
        lines: Vec::with_capacity(quadrant.row_count()),
        span: (0.0, 0.0),
    };
    sweep(quadrant, assignment, plan, &mut lines)?;
    Ok(lines.lines)
}

/// The x-coordinates of the via sites on `row`'s line (balls + 1,
/// increasing).
pub(crate) fn site_xs(quadrant: &Quadrant, row: RowIdx) -> Vec<f64> {
    let m = quadrant.row(row).len() as u32;
    (1..=m + 1).map(|s| quadrant.via_site_x(row, s)).collect()
}

/// Receives the crossing pass's output in the order the pass produces it.
pub(crate) trait CrossingSink {
    /// A line begins: its row, its height and its terminating nets with
    /// their via x, in ball order.
    fn line(&mut self, row: RowIdx, line_y: f64, terminating: &[(NetId, f64)]);
    /// The crossings that follow, up to the next bracket or line, lie in
    /// the open `span` and are clamped into `clamp`, the span narrowed by
    /// the margin (`clamp.0 <= clamp.1`).
    fn bracket(&mut self, span: (f64, f64), clamp: (f64, f64));
    /// A wire crosses the current line at `x`.
    fn crossing(&mut self, net: NetId, finger: FingerIdx, x: f64);
}

/// Collects the pass into [`LineCrossings`].
struct Lines<'q> {
    quadrant: &'q Quadrant,
    lines: Vec<LineCrossings>,
    span: (f64, f64),
}

impl CrossingSink for Lines<'_> {
    fn line(&mut self, row: RowIdx, line_y: f64, terminating: &[(NetId, f64)]) {
        self.lines.push(LineCrossings {
            row,
            line_y,
            site_xs: site_xs(self.quadrant, row),
            terminating: terminating.to_vec(),
            crossings: Vec::new(),
        });
    }

    fn bracket(&mut self, span: (f64, f64), _clamp: (f64, f64)) {
        self.span = span;
    }

    fn crossing(&mut self, net: NetId, finger: FingerIdx, x: f64) {
        let line = self.lines.last_mut().expect("a crossing follows its line");
        line.crossings.push(Crossing {
            net,
            finger,
            x,
            span: self.span,
        });
    }
}

/// A wire still crossing lines, with the flyline terms its crossings
/// share.
#[derive(Clone, Copy)]
struct Wire {
    net: NetId,
    finger: FingerIdx,
    /// The row whose line its via sits on.
    via_row: RowIdx,
    /// Finger centre x.
    fx: f64,
    /// Via x minus finger x.
    run: f64,
    /// Finger-row y minus via y.
    drop: f64,
}

/// One line's state in the pass: its terminating vias in finger order and
/// the bracket of the last crossing.
struct Line<'t> {
    row: RowIdx,
    /// Finger-row y minus line y.
    rise: f64,
    /// The span's end on a side with no bracketing via, and the clamping
    /// margin.
    bound: f64,
    eps: f64,
    term_pos: &'t [(u32, f64)],
    /// Terminating positions left of the finger, and not right of it.
    below: usize,
    upto: usize,
    /// The cursor pair and clamp range of the last bracket sent.
    bracket: Option<(usize, usize)>,
    clamp: (f64, f64),
}

impl Line<'_> {
    /// Sends `wire`'s crossing of this line to `sink`, preceded by its
    /// bracket when that differs from the previous crossing's.
    fn cross(&mut self, wire: &Wire, sink: &mut impl CrossingSink) -> Result<(), RouteError> {
        // `term_pos` rises strictly in finger order (legality), and wires
        // come in rising finger order too, so both cursors only move
        // forward. They differ only for a net that both terminates and
        // crosses here, which a plan of another quadrant can produce.
        let p = wire.finger.get();
        let term = self.term_pos;
        while self.below < term.len() && term[self.below].0 < p {
            self.below += 1;
        }
        while self.upto < term.len() && term[self.upto].0 <= p {
            self.upto += 1;
        }
        if self.bracket != Some((self.below, self.upto)) {
            let lo = self.below.checked_sub(1).map_or(-self.bound, |i| term[i].1);
            let hi = term.get(self.upto).map_or(self.bound, |&(_, vx)| vx);
            let clamp = (lo + self.eps, hi - self.eps);
            if clamp.0 > clamp.1 {
                return Err(RouteError::EmptySpan {
                    row: self.row.get(),
                    net: wire.net,
                });
            }
            sink.bracket((lo, hi), clamp);
            self.bracket = Some((self.below, self.upto));
            self.clamp = clamp;
        }
        // Straight flyline finger → via, evaluated at this line and
        // clamped into the span.
        let t = self.rise / wire.drop;
        let x = (wire.fx + wire.run * t).clamp(self.clamp.0, self.clamp.1);
        sink.crossing(wire.net, wire.finger, x);
        Ok(())
    }
}

/// The crossing pass: sends every line's crossings to `sink`, highest line
/// first. The assignment must have passed [`check_monotonic`].
///
/// The top line looks up every placed net's via, in finger order, and
/// keeps each wire whose via lies below it in a list of live wires; each
/// lower line walks that list and drops the wires whose via sits on the
/// next line. Every line thus visits exactly its crossing wires. A wire's
/// forced span runs from the last terminating via left of its finger to
/// the first one right of it, and its x is the straight flyline from its
/// finger to its via, clamped into that span. Time is `O(crossings +
/// lines × sites)` plus one via lookup per net; memory is one entry per
/// live wire.
///
/// Errors come in the order a line-by-line scan meets them: on each line,
/// its terminating vias first, then its wires in finger order. A net
/// missing from `plan` therefore fails on the top line.
pub(crate) fn sweep(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
    sink: &mut impl CrossingSink,
) -> Result<(), RouteError> {
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

    let finger_y = quadrant.finger_line_y();
    let top = quadrant.top_row();
    let mut live: Vec<Wire> = Vec::with_capacity(assignment.net_count());
    let mut terminating: Vec<(NetId, f64)> = Vec::new();
    let mut term_pos: Vec<(u32, f64)> = Vec::new();
    for (row, nets) in quadrant.rows_top_down() {
        let line_y = quadrant.line_y(row);
        terminating.clear();
        for &n in nets {
            terminating.push((n, plan.via(n)?.pos.x));
        }
        term_pos.clear();
        for &(n, vx) in &terminating {
            let p = assignment
                .position_of(n)
                .ok_or(RouteError::Unplaced { net: n })?;
            term_pos.push((p.get(), vx));
        }
        sink.line(row, line_y, &terminating);

        let mut line = Line {
            row,
            rise: finger_y - line_y,
            bound,
            eps,
            term_pos: &term_pos,
            below: 0,
            upto: 0,
            bracket: None,
            clamp: (0.0, 0.0),
        };
        // A wire crosses a line iff its via lies below it; it stays live
        // while its via lies below the next line too.
        let crosses_next = |wire: &Wire| wire.via_row.get() + 1 < row.get();
        if row == top {
            for (finger, net) in assignment.iter() {
                let via = plan.via(net)?;
                if via.row >= row {
                    continue;
                }
                // Only a crossing wire needs its finger centre, so a
                // top-row net may sit in a slot the quadrant lacks.
                let fx = quadrant.checked_finger_center(finger)?.x;
                let wire = Wire {
                    net,
                    finger,
                    via_row: via.row,
                    fx,
                    run: via.pos.x - fx,
                    drop: finger_y - via.pos.y,
                };
                line.cross(&wire, sink)?;
                if crosses_next(&wire) {
                    live.push(wire);
                }
            }
        } else {
            let mut kept = 0;
            for i in 0..live.len() {
                let wire = live[i];
                line.cross(&wire, sink)?;
                if crosses_next(&wire) {
                    live[kept] = wire;
                    kept += 1;
                }
            }
            live.truncate(kept);
        }
    }
    Ok(())
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
