//! The crossing sweep against the per-line scan, bit for bit.
//!
//! `copack_route::line_crossings` looks every via up once and finds each
//! crossing wire's bracketing terminating vias with cursors that only move
//! forward. It must return exactly what the per-line scan written out below
//! returns: every line height, via site, terminating via x, crossing x and
//! span to the bit, and the same error. `density_map_with_plan` and
//! `analyze` are held to the scan too: the same segment counts under both
//! density models, by the rule of counting every boundary left of the
//! crossing, and the same flyline wirelength summed in net-id order. The
//! inputs cover fuzz, large-family and preset instances under random, IFA
//! and DFA orders with both via rules, illegal orders, a plan of another
//! quadrant, a net the plan lacks, and a top-row or a crossing net in a
//! slot beyond the quadrant's fingers.

use copack::core::{dfa, ifa, random_assignment};
use copack::gen::{circuits, fuzz_case, large_circuit, large_fuzz_case};
use copack::geom::{Assignment, FingerIdx, GeomError, NetId, Quadrant, QuadrantGeometry};
use copack::route::{
    analyze, check_monotonic, density_map_with_plan, line_crossings, via_plan, via_plan_with,
    Crossing, DensityMap, DensityModel, FlankLoad, LineCrossings, RouteError, RoutingReport,
    RowDensity, ViaPlan, ViaRule,
};

/// Both density models, the default first.
const MODELS: [DensityModel; 2] = [DensityModel::Geometric, DensityModel::OrderOnly];

/// The crossing model's clamping margin, as a fraction of the ball pitch.
const EPS_FRACTION: f64 = 1e-3;

/// The per-line scan: for every line, every placed net's via is looked up
/// and each crossing wire's bracketing terminating vias are found by
/// scanning the line's terminating positions from either end. A bracket
/// that leaves no room for the clamping margin is an `EmptySpan` error.
fn reference(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<Vec<LineCrossings>, RouteError> {
    check_monotonic(quadrant, assignment)?;

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
    let mut out = Vec::with_capacity(quadrant.row_count());
    for (row, nets) in quadrant.rows_top_down() {
        let line_y = quadrant.line_y(row);
        let m = nets.len() as u32;
        let site_xs: Vec<f64> = (1..=m + 1).map(|s| quadrant.via_site_x(row, s)).collect();

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

        let mut crossings = Vec::new();
        for (finger, net) in assignment.iter() {
            let via = plan.via(net)?;
            if via.row >= row {
                continue;
            }
            let fx = quadrant.checked_finger_center(finger)?.x;
            let (vx, vy) = (via.pos.x, via.pos.y);
            let t = (finger_y - line_y) / (finger_y - vy);
            let ideal = fx + (vx - fx) * t;
            let p = finger.get();
            let lo = term_pos
                .iter()
                .rev()
                .find(|&&(tp, _)| tp < p)
                .map_or(-bound, |&(_, vx)| vx);
            let hi = term_pos
                .iter()
                .find(|&&(tp, _)| tp > p)
                .map_or(bound, |&(_, vx)| vx);
            if lo + eps > hi - eps {
                return Err(RouteError::EmptySpan {
                    row: row.get(),
                    net,
                });
            }
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

/// The scan's density map: each line's crossings counted into the segments
/// between its boundaries, the via sites (geometric) or the terminating
/// vias (order-only). A crossing falls in the segment after every boundary
/// left of its x; the order-only model places it at its span's left end.
fn reference_density(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
    model: DensityModel,
) -> Result<DensityMap, RouteError> {
    let lines = reference(quadrant, assignment, plan)?;
    let rows = lines
        .iter()
        .map(|line| {
            let boundaries: Vec<f64> = match model {
                DensityModel::Geometric => line.site_xs.clone(),
                DensityModel::OrderOnly => line.terminating.iter().map(|&(_, vx)| vx).collect(),
            };
            let mut counts = vec![0u32; boundaries.len() + 1];
            for c in &line.crossings {
                let x = match model {
                    DensityModel::Geometric => c.x,
                    DensityModel::OrderOnly => c.span.0,
                };
                counts[boundaries.partition_point(|&b| b < x)] += 1;
            }
            RowDensity {
                row: line.row,
                boundaries,
                counts,
            }
        })
        .collect();
    Ok(DensityMap { rows })
}

/// The scan's routing report under the paper's via plan: legality, the
/// density map, and every net's flyline finger → via → ball summed in
/// net-id order.
fn reference_analysis(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
) -> Result<RoutingReport, RouteError> {
    check_monotonic(quadrant, assignment)?;
    let plan = via_plan(quadrant);
    let density = reference_density(quadrant, assignment, &plan, model)?;
    let mut wirelength = 0.0;
    for net in quadrant.nets() {
        let finger = assignment
            .position_of(net.id)
            .ok_or(RouteError::Unplaced { net: net.id })?;
        let via = plan.via(net.id)?;
        let ball = quadrant.ball_of(net.id).expect("a quadrant net has a ball");
        let ball_center = quadrant.ball_center(ball.row, ball.col);
        wirelength += quadrant.checked_finger_center(finger)?.distance(via.pos)
            + via.pos.distance(ball_center);
    }
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

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts that the sweep and the scan agree to the bit on one input, the
/// crossings and the density map under either model, and returns how many
/// crossings were compared.
fn assert_same(quadrant: &Quadrant, assignment: &Assignment, plan: &ViaPlan, what: &str) -> usize {
    for model in MODELS {
        assert_same_density(
            density_map_with_plan(quadrant, assignment, model, plan),
            reference_density(quadrant, assignment, plan, model),
            &format!("{what} {model}"),
        );
    }
    let (got, want) = match (
        line_crossings(quadrant, assignment, plan),
        reference(quadrant, assignment, plan),
    ) {
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{what}: outcomes differ");
            return 0;
        }
    };
    assert_eq!(got.len(), want.len(), "{what}: line count");
    let mut compared = 0;
    for (g, w) in got.iter().zip(&want) {
        let line = format!("{what}, row {}", w.row.get());
        assert_eq!(g.row, w.row, "{line}");
        assert_eq!(g.line_y.to_bits(), w.line_y.to_bits(), "{line}: line_y");
        assert_eq!(bits(&g.site_xs), bits(&w.site_xs), "{line}: site_xs");
        let term = |l: &LineCrossings| -> Vec<(NetId, u64)> {
            l.terminating
                .iter()
                .map(|&(n, x)| (n, x.to_bits()))
                .collect()
        };
        assert_eq!(term(g), term(w), "{line}: terminating");
        assert_eq!(g.crossings.len(), w.crossings.len(), "{line}: crossings");
        for (gc, wc) in g.crossings.iter().zip(&w.crossings) {
            assert_eq!((gc.net, gc.finger), (wc.net, wc.finger), "{line}");
            assert_eq!(gc.x.to_bits(), wc.x.to_bits(), "{line}: x of {:?}", wc.net);
            assert_eq!(
                (gc.span.0.to_bits(), gc.span.1.to_bits()),
                (wc.span.0.to_bits(), wc.span.1.to_bits()),
                "{line}: span of {:?}",
                wc.net
            );
        }
        compared += w.crossings.len();
    }
    compared
}

/// Asserts that two density outcomes agree: the same maps, boundaries to
/// the bit, or the same error.
fn assert_same_density(
    got: Result<DensityMap, RouteError>,
    want: Result<DensityMap, RouteError>,
    what: &str,
) {
    let (got, want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{what}: density outcomes differ");
            return;
        }
    };
    assert_eq!(got.rows.len(), want.rows.len(), "{what}: density lines");
    for (g, w) in got.rows.iter().zip(&want.rows) {
        let line = format!("{what}, row {}", w.row.get());
        assert_eq!(g.row, w.row, "{line}");
        assert_eq!(
            bits(&g.boundaries),
            bits(&w.boundaries),
            "{line}: boundaries"
        );
        assert_eq!(g.counts, w.counts, "{line}: counts");
    }
}

/// Asserts that `analyze` agrees with the scan under either density model:
/// the same report, wirelength to the bit, or the same error.
fn assert_same_analysis(quadrant: &Quadrant, assignment: &Assignment, what: &str) {
    for model in MODELS {
        let what = format!("{what} {model} analysis");
        match (
            analyze(quadrant, assignment, model),
            reference_analysis(quadrant, assignment, model),
        ) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    got.total_wirelength.to_bits(),
                    want.total_wirelength.to_bits(),
                    "{what}: wirelength"
                );
                assert_eq!(got, want, "{what}");
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{what}: outcomes differ"),
        }
    }
}

/// The random, IFA and DFA orders a quadrant admits (an assigner that
/// rejects the instance contributes nothing).
fn orders(quadrant: &Quadrant, seed: u64) -> Vec<(&'static str, Assignment)> {
    let mut out = Vec::new();
    if let Ok(a) = random_assignment(quadrant, seed) {
        out.push(("random", a));
    }
    if let Ok(a) = ifa(quadrant) {
        out.push(("ifa", a));
    }
    if let Ok(a) = dfa(quadrant, 1) {
        out.push(("dfa", a));
    }
    out
}

/// Every order of `quadrant` under both via rules, plus each order
/// reversed (illegal whenever a row holds two nets), and the analysis of
/// each. Returns the number of crossings compared.
fn check_instance(quadrant: &Quadrant, seed: u64, name: &str) -> usize {
    let mut compared = 0;
    for (method, order) in orders(quadrant, seed) {
        let mut reversed = order.order();
        reversed.reverse();
        let reversed = Assignment::from_order(reversed);
        assert_same_analysis(quadrant, &order, &format!("{name} {method}"));
        assert_same_analysis(quadrant, &reversed, &format!("{name} {method} reversed"));
        for rule in [ViaRule::BottomLeft, ViaRule::BottomRight] {
            let plan = via_plan_with(quadrant, rule);
            let what = format!("{name} {method} {rule:?}");
            compared += assert_same(quadrant, &order, &plan, &what);
            assert_same(quadrant, &reversed, &plan, &format!("{what} reversed"));
        }
    }
    compared
}

#[test]
fn the_sweep_matches_the_scan_on_fuzz_instances() {
    let mut compared = 0;
    for index in 0..120 {
        let case = fuzz_case(0xC0FFEE, index).expect("fuzz case builds");
        compared += check_instance(&case.quadrant, index, &format!("fuzz {index}"));
    }
    for index in 0..24 {
        let case = large_fuzz_case(0xC0FFEE, index).expect("large fuzz case builds");
        compared += check_instance(&case.quadrant, index, &format!("large fuzz {index}"));
    }
    assert!(compared > 10_000, "only {compared} crossings compared");
}

#[test]
fn the_sweep_matches_the_scan_on_presets() {
    for circuit in circuits() {
        let quadrant = circuit.build_quadrant().expect("Table 1 circuits build");
        assert!(check_instance(&quadrant, 7, &circuit.name) > 0);
    }
    for seed in [1, 2] {
        let spec = large_circuit("1k", seed).expect("1k is a preset size");
        let quadrant = spec.build_quadrant().expect("large-1k builds");
        assert!(check_instance(&quadrant, seed, &spec.name) > 0);
    }
}

#[test]
fn illegal_orders_fail_identically() {
    let quadrant = circuits()[0].build_quadrant().expect("circuit 1 builds");
    let mut order = dfa(&quadrant, 1).expect("dfa").order();
    order.reverse();
    let reversed = Assignment::from_order(order);
    let plan = via_plan_with(&quadrant, ViaRule::BottomLeft);
    let err = line_crossings(&quadrant, &reversed, &plan).unwrap_err();
    assert!(matches!(err, RouteError::NonMonotonic { .. }), "{err:?}");
    assert_eq!(Err(err), reference(&quadrant, &reversed, &plan));
    assert_same(&quadrant, &reversed, &plan, "reversed dfa");
    assert_same_analysis(&quadrant, &reversed, "reversed dfa");
}

/// `order` widened to `slots + 1` slots, with `net` (placed in `order` or
/// not) in the last one.
fn with_net_in_an_extra_slot(order: &Assignment, net: NetId, slots: usize) -> Assignment {
    let mut out = Assignment::empty(slots + 1);
    for (finger, placed) in order.iter() {
        if placed != net {
            out.place(placed, finger).expect("free slot");
        }
    }
    out.place(net, FingerIdx::new(slots as u32 + 1))
        .expect("free slot");
    out
}

#[test]
fn a_top_row_net_beyond_the_last_finger_routes() {
    // A top-row net terminates on the highest line and crosses none, so
    // its finger centre is never needed, even in a slot the quadrant does
    // not have. `analyze` measures every net's wirelength from its finger
    // centre, so there the slot is a typed error, in the library and in
    // the scan alike.
    for circuit in circuits() {
        let quadrant = circuit.build_quadrant().expect("Table 1 circuits build");
        for (method, order) in orders(&quadrant, 3) {
            let top = quadrant.row(quadrant.top_row());
            let rightmost = *top.last().expect("rows are non-empty");
            let slots = quadrant.finger_count().max(order.finger_count());
            let shifted = with_net_in_an_extra_slot(&order, rightmost, slots);
            assert!(shifted.finger_count() > quadrant.finger_count());
            for rule in [ViaRule::BottomLeft, ViaRule::BottomRight] {
                let plan = via_plan_with(&quadrant, rule);
                let what = format!("{} {method} {rule:?} extra slot", circuit.name);
                assert!(line_crossings(&quadrant, &shifted, &plan).is_ok(), "{what}");
                assert_same(&quadrant, &shifted, &plan, &what);
            }
            let what = format!("{} {method} extra slot", circuit.name);
            assert_same_analysis(&quadrant, &shifted, &what);
            assert_eq!(
                analyze(&quadrant, &shifted, DensityModel::Geometric).err(),
                Some(RouteError::Geom(GeomError::SlotOutOfRange {
                    slot: slots,
                    fingers: quadrant.finger_count()
                })),
                "{what}"
            );
        }
    }
}

#[test]
fn a_crossing_net_beyond_the_last_finger_is_a_typed_error() {
    // The bottom row's rightmost net stays legal in a slot past the
    // quadrant's fingers, but it crosses every line above its row, and a
    // crossing needs its finger centre.
    for circuit in circuits() {
        let quadrant = circuit.build_quadrant().expect("Table 1 circuits build");
        let (_, bottom) = quadrant.rows_bottom_up().next().expect("rows exist");
        let rightmost = *bottom.last().expect("rows are non-empty");
        for (method, order) in orders(&quadrant, 5) {
            let slots = quadrant.finger_count().max(order.finger_count());
            let shifted = with_net_in_an_extra_slot(&order, rightmost, slots);
            let beyond = Err(RouteError::Geom(GeomError::SlotOutOfRange {
                slot: slots,
                fingers: quadrant.finger_count(),
            }));
            for rule in [ViaRule::BottomLeft, ViaRule::BottomRight] {
                let plan = via_plan_with(&quadrant, rule);
                let what = format!("{} {method} {rule:?} crossing net beyond", circuit.name);
                assert_eq!(
                    line_crossings(&quadrant, &shifted, &plan).map(|_| ()),
                    beyond,
                    "{what}"
                );
                assert_same(&quadrant, &shifted, &plan, &what);
            }
            let what = format!("{} {method} crossing net beyond", circuit.name);
            assert_same_analysis(&quadrant, &shifted, &what);
            assert_eq!(
                analyze(&quadrant, &shifted, DensityModel::Geometric).map(|_| ()),
                beyond,
                "{what}"
            );
        }
    }
}

/// `quadrant` with its rows stacked in reverse: the same nets, each on
/// another line.
fn rows_reversed(quadrant: &Quadrant) -> Quadrant {
    let mut builder = Quadrant::builder()
        .geometry(*quadrant.geometry())
        .fingers(quadrant.finger_count());
    for (_, nets) in quadrant.rows_top_down() {
        builder = builder.row(nets.iter().copied());
    }
    builder.build().expect("a permuted quadrant builds")
}

#[test]
fn a_plan_of_another_quadrant_matches_the_scan() {
    // Under a foreign plan a net can terminate on a line (by the
    // quadrant's rows) and cross it (by the plan's via): the one case
    // where the wire's own position is among the bracketing candidates.
    let mut compared = 0;
    for index in 0..40 {
        let case = fuzz_case(0xF0E1, index).expect("fuzz case builds");
        let other = rows_reversed(&case.quadrant);
        for (method, order) in orders(&case.quadrant, index) {
            for rule in [ViaRule::BottomLeft, ViaRule::BottomRight] {
                let plan = via_plan_with(&other, rule);
                let what = format!("fuzz {index} {method} {rule:?} foreign plan");
                compared += assert_same(&case.quadrant, &order, &plan, &what);
            }
        }
    }
    assert!(compared > 0);

    // A plan of a quadrant with three times the ball pitch puts net 3's
    // via at the finger row's height, right below its finger, so its
    // flyline's x on the top line is 0 · ∞ = NaN, which precedes no
    // segment boundary.
    let geometry = |ball_pitch, finger_pitch| QuadrantGeometry {
        ball_pitch,
        finger_pitch,
        ..QuadrantGeometry::default()
    };
    let build = |g| {
        Quadrant::builder()
            .row([3u32])
            .row([1u32])
            .geometry(g)
            .build()
            .expect("quadrant builds")
    };
    let quadrant = build(geometry(1.0, 3.0));
    let plan = via_plan_with(&build(geometry(3.0, 3.0)), ViaRule::BottomRight);
    let order = Assignment::from_order([1u32, 3]);
    let top = &line_crossings(&quadrant, &order, &plan).expect("routes")[0];
    assert!(top.crossings[0].x.is_nan(), "{top:?}");
    assert_same(&quadrant, &order, &plan, "NaN flyline");
}

#[test]
fn a_net_missing_from_the_plan_fails_identically() {
    let quadrant = circuits()[1].build_quadrant().expect("circuit 2 builds");
    let order = dfa(&quadrant, 1).expect("dfa");
    let foreign = NetId::new(quadrant.nets().map(|n| n.id.raw()).max().unwrap_or(0) + 1);
    let with_foreign = with_net_in_an_extra_slot(&order, foreign, order.finger_count());
    let plan = via_plan_with(&quadrant, ViaRule::BottomLeft);
    assert_eq!(
        line_crossings(&quadrant, &with_foreign, &plan).unwrap_err(),
        RouteError::Unplaced { net: foreign }
    );
    assert_same(&quadrant, &with_foreign, &plan, "foreign net");
    assert_same_analysis(&quadrant, &with_foreign, "foreign net");
}

#[test]
fn a_plan_that_leaves_a_wire_no_room_is_a_typed_error() {
    // Net 3 crosses the top line between the vias of nets 1 and 2. Under
    // the plan of a quadrant whose top row lists 2 before 1, net 1's via
    // lies right of net 2's, so the span between them is empty.
    let quadrant = Quadrant::builder()
        .row([3u32])
        .row([1u32, 2])
        .build()
        .expect("quadrant builds");
    let other = Quadrant::builder()
        .row([3u32])
        .row([2u32, 1])
        .build()
        .expect("quadrant builds");
    let order = Assignment::from_order([1u32, 3, 2]);
    check_monotonic(&quadrant, &order).expect("the order is legal");
    let plan = via_plan_with(&other, ViaRule::BottomLeft);
    let empty = RouteError::EmptySpan {
        row: 2,
        net: NetId::new(3),
    };
    assert_eq!(line_crossings(&quadrant, &order, &plan).unwrap_err(), empty);
    for model in MODELS {
        assert_eq!(
            density_map_with_plan(&quadrant, &order, model, &plan).unwrap_err(),
            empty
        );
    }
    assert_same(&quadrant, &order, &plan, "empty span");
    assert_same_analysis(&quadrant, &order, "empty span's own plan");
}
