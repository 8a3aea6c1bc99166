//! Via assignment: one via per net, fixed at the bottom-left of its ball.

use std::collections::BTreeMap;

use copack_geom::{NetId, Point, Quadrant, RowIdx};

use crate::RouteError;

/// Which corner of its bump ball a net's via occupies.
///
/// The paper fixes the bottom-**left** corner "without loss of
/// generality"; the bottom-right alternative is provided to test that
/// claim (ablation A5 in `EXPERIMENTS.md`). Either choice keeps the
/// monotonic-order rule intact (via order along a row equals ball order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViaRule {
    /// Via at the ball's bottom-left corner (the paper's rule).
    #[default]
    BottomLeft,
    /// Via at the ball's bottom-right corner.
    BottomRight,
}

/// The via chosen for one net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViaRef {
    /// Net owning the via.
    pub net: NetId,
    /// Ball row whose line the via sits on.
    pub row: RowIdx,
    /// Via site index on that line (1-based; site `s` is the bottom-left
    /// corner of ball `s`).
    pub site: u32,
    /// Physical via location.
    pub pos: Point,
}

/// The via plan of a quadrant: every net's via, fixed per the paper's rule
/// ("the connected via is fixed at the bottom-left corner of the bump ball",
/// §3.1, following Kubo–Takahashi).
///
/// The plan depends only on the quadrant, not on the finger assignment, so
/// it can be computed once and reused across candidate assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaPlan {
    vias: BTreeMap<NetId, ViaRef>,
}

impl ViaPlan {
    /// Via of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Unplaced`] if the net is not in the plan.
    pub fn via(&self, net: NetId) -> Result<ViaRef, RouteError> {
        self.vias
            .get(&net)
            .copied()
            .ok_or(RouteError::Unplaced { net })
    }

    /// Iterates all vias in net-id order.
    pub fn iter(&self) -> impl Iterator<Item = &ViaRef> {
        self.vias.values()
    }

    /// Number of vias (= number of nets).
    #[must_use]
    pub fn len(&self) -> usize {
        self.vias.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vias.is_empty()
    }
}

/// Computes the via plan of a quadrant under the paper's bottom-left rule.
#[must_use]
pub fn via_plan(quadrant: &Quadrant) -> ViaPlan {
    via_plan_with(quadrant, ViaRule::BottomLeft)
}

/// Computes the via plan under an explicit [`ViaRule`].
#[must_use]
pub fn via_plan_with(quadrant: &Quadrant, rule: ViaRule) -> ViaPlan {
    let mut vias = BTreeMap::new();
    for (row, nets) in quadrant.rows_bottom_up() {
        for (j, &net) in nets.iter().enumerate() {
            let site = match rule {
                ViaRule::BottomLeft => j as u32 + 1,
                ViaRule::BottomRight => j as u32 + 2,
            };
            vias.insert(
                net,
                ViaRef {
                    net,
                    row,
                    site,
                    pos: Point::new(quadrant.via_site_x(row, site), quadrant.line_y(row)),
                },
            );
        }
    }
    ViaPlan { vias }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::Quadrant;

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    #[test]
    fn plan_covers_every_net() {
        let q = fig5();
        let plan = via_plan(&q);
        assert_eq!(plan.len(), 12);
        assert!(!plan.is_empty());
        for net in q.nets() {
            assert!(plan.via(net.id).is_ok());
        }
    }

    #[test]
    fn vias_sit_bottom_left_of_their_ball() {
        let q = fig5();
        let plan = via_plan(&q);
        for via in plan.iter() {
            let ball = q.ball_of(via.net).unwrap();
            assert_eq!(via.row, ball.row);
            assert_eq!(via.site, ball.col);
            let ball_pos = q.ball_center(ball.row, ball.col);
            assert!(via.pos.x < ball_pos.x, "via left of ball");
            assert_eq!(via.pos.y, ball_pos.y, "via on the ball's line");
        }
    }

    #[test]
    fn one_via_per_net_at_most() {
        // The paper stipulates ≤ 1 via per net; the plan has exactly one.
        let plan = via_plan(&fig5());
        let mut seen = std::collections::HashSet::new();
        for via in plan.iter() {
            assert!(seen.insert(via.net), "net has two vias");
        }
    }

    #[test]
    fn unknown_net_is_an_error() {
        let plan = via_plan(&fig5());
        assert!(matches!(
            plan.via(NetId::new(99)),
            Err(RouteError::Unplaced { .. })
        ));
    }

    #[test]
    fn bottom_right_rule_mirrors_the_sites() {
        let q = fig5();
        let left = via_plan_with(&q, ViaRule::BottomLeft);
        let right = via_plan_with(&q, ViaRule::BottomRight);
        for net in q.nets() {
            let l = left.via(net.id).unwrap();
            let r = right.via(net.id).unwrap();
            assert_eq!(r.site, l.site + 1);
            assert!(r.pos.x > l.pos.x);
            let ball = q.ball_of(net.id).unwrap();
            assert!(
                r.pos.x > q.ball_center(ball.row, ball.col).x,
                "right of ball"
            );
        }
    }

    #[test]
    fn default_rule_is_bottom_left() {
        let q = fig5();
        assert_eq!(via_plan(&q), via_plan_with(&q, ViaRule::BottomLeft));
        assert_eq!(ViaRule::default(), ViaRule::BottomLeft);
    }

    #[test]
    fn via_sites_within_a_row_are_distinct_and_increasing() {
        let q = fig5();
        let plan = via_plan(&q);
        for (row, nets) in q.rows_bottom_up() {
            let xs: Vec<f64> = nets.iter().map(|&n| plan.via(n).unwrap().pos.x).collect();
            for w in xs.windows(2) {
                assert!(w[0] < w[1]);
            }
            let _ = row;
        }
    }
}
