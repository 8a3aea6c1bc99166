//! Wirelength estimation from direct flylines.

use copack_geom::{Assignment, GeomError, NetId, Quadrant};

use crate::{via_plan, RouteError, ViaPlan};

/// Flyline wirelength of one net: finger → via on Layer 1 plus via → ball
/// on Layer 2 (Table 2's caption: "the wirelengths are calculated from the
/// direct flylines between pads/vias").
///
/// # Errors
///
/// [`RouteError::Unplaced`] if the net has no finger slot, or
/// [`RouteError::Geom`] if it is not in the quadrant
/// ([`GeomError::UnknownNet`]) or its slot lies beyond the quadrant's
/// fingers ([`GeomError::SlotOutOfRange`]).
pub fn net_wirelength(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
    net: NetId,
) -> Result<f64, RouteError> {
    let finger = assignment
        .position_of(net)
        .ok_or(RouteError::Unplaced { net })?;
    let via = plan.via(net)?;
    let ball = quadrant.ball_of(net).ok_or(GeomError::UnknownNet { net })?;
    let fp = quadrant.checked_finger_center(finger)?;
    let bp = quadrant.ball_center(ball.row, ball.col);
    Ok(fp.distance(via.pos) + via.pos.distance(bp))
}

/// Total flyline wirelength of the whole quadrant.
///
/// # Errors
///
/// Propagates the first per-net error.
pub fn total_wirelength(quadrant: &Quadrant, assignment: &Assignment) -> Result<f64, RouteError> {
    wirelength_with_plan(quadrant, assignment, &via_plan(quadrant))
}

/// [`total_wirelength`] under a given via plan, summed in net-id order.
pub(crate) fn wirelength_with_plan(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<f64, RouteError> {
    let mut total = 0.0;
    for net in quadrant.nets() {
        total += net_wirelength(quadrant, assignment, plan, net.id)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{Assignment, Quadrant};

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    #[test]
    fn wirelength_is_positive_and_additive() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let plan = via_plan(&q);
        let mut sum = 0.0;
        for net in q.nets() {
            let w = net_wirelength(&q, &a, &plan, net.id).unwrap();
            assert!(w > 0.0);
            sum += w;
        }
        let total = total_wirelength(&q, &a).unwrap();
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn straighter_orders_are_shorter() {
        // The DFA order spreads nets towards their balls; the paper observes
        // its wirelength beats the clustered random order of Fig. 5(A).
        let q = fig5();
        let random = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let dfa = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let wl_random = total_wirelength(&q, &random).unwrap();
        let wl_dfa = total_wirelength(&q, &dfa).unwrap();
        assert!(wl_dfa < wl_random, "{wl_dfa} !< {wl_random}");
    }

    #[test]
    fn unplaced_net_is_an_error() {
        let q = fig5();
        let partial = Assignment::from_order([10u32, 11]);
        assert!(total_wirelength(&q, &partial).is_err());
    }

    #[test]
    fn wirelength_lower_bound_is_flyline_distance() {
        // finger→via→ball is at least the straight finger→ball distance.
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let plan = via_plan(&q);
        for net in q.nets() {
            let finger = a.position_of(net.id).unwrap();
            let ball = q.ball_of(net.id).unwrap();
            let direct = q
                .finger_center(finger)
                .distance(q.ball_center(ball.row, ball.col));
            let w = net_wirelength(&q, &a, &plan, net.id).unwrap();
            assert!(w + 1e-12 >= direct);
        }
    }
}
