//! The production IR solver against the independent references.
//!
//! `copack_power::solve_mg` (conjugate gradient preconditioned by a
//! multigrid V-cycle) computes every IR value the flow reports. Every
//! voltage it returns, and the maximum drop, must lie within 1e-9 V of the
//! dense LU solve (`solve_dense`, up to `MAX_DENSE_NODES` free nodes) or of
//! plain CG (`solve_cg`) on larger grids: on any grid shape, sheet
//! anisotropy, clamp set and current map, and on the IR-drop figures the
//! co-design flow reports for the Table 1 circuits.

use copack::core::{Codesign, ExchangeConfig, Schedule};
use copack::gen::circuits;
use copack::geom::{Assignment, NetKind, Quadrant};
use copack::obs::{Event, Solver, TraceBuffer};
use copack::power::{
    solve_cg_nodes, solve_dense_nodes, solve_mg_nodes, solve_mg_nodes_traced, GridSpec, Hotspot,
    IrMap, PadArray, PadPlan, PadRing, MAX_DENSE_NODES,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The accuracy every reported IR value is held to (volts).
const IR_TOL: f64 = 1e-9;

/// The reference solve: dense LU when the free nodes fit, plain CG
/// otherwise.
fn reference(spec: &GridSpec, clamp: &[(usize, usize)]) -> IrMap {
    if spec.node_count() - clamp.len() <= MAX_DENSE_NODES {
        solve_dense_nodes(spec, clamp).expect("dense solves")
    } else {
        solve_cg_nodes(spec, clamp).expect("cg solves")
    }
}

/// Solves with the production solver and the reference; every voltage and
/// the maximum drop must agree within [`IR_TOL`].
fn assert_matches_reference(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let got = solve_mg_nodes(spec, clamp)
        .map_err(|e| TestCaseError::fail(format!("solver failed: {e}")))?;
    let want = reference(spec, clamp);
    for (k, (g, w)) in got.voltages().iter().zip(want.voltages()).enumerate() {
        prop_assert!(
            (g - w).abs() <= IR_TOL,
            "node {k}: {g} vs reference {w} ({:.3e} V)",
            (g - w).abs()
        );
    }
    prop_assert!((got.max_drop() - want.max_drop()).abs() <= IR_TOL);
    Ok(())
}

/// Grid shapes: a third are 2×N or N×2 strips, the rest anything in
/// `[2, 64]²`.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (0usize..6, 2usize..=64, 2usize..=64).prop_map(|(kind, a, b)| match kind {
        0 => (2, b),
        1 => (a, 2),
        _ => (a, b),
    })
}

/// Sheet resistances with up to 10× anisotropy either way.
fn sheets() -> impl Strategy<Value = (f64, f64)> {
    (0.02f64..0.08, -1.0f64..1.0).prop_map(|(rx, exp)| (rx, rx * 10f64.powf(exp)))
}

/// Hotspots, a quarter of them with multiplier 0 (nodes that sink no
/// current).
fn hotspots() -> impl Strategy<Value = Vec<Hotspot>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.6, 0usize..4),
        0..3usize,
    )
    .prop_map(|spots| {
        spots
            .into_iter()
            .map(|(cx, cy, radius, m)| Hotspot {
                cx,
                cy,
                radius,
                multiplier: [0.0, 0.5, 2.0, 6.0][m],
            })
            .collect()
    })
}

/// Which clamp set a case uses.
#[derive(Debug, Clone)]
enum Pads {
    /// A wire-bond pad ring at these perimeter coordinates.
    Ring(Vec<f64>),
    /// A flip-chip area array of this many pads per row and column.
    Array(usize, usize),
    /// Explicit nodes at these fractions of the grid's width and height.
    Explicit(Vec<(f64, f64)>),
}

fn pads() -> impl Strategy<Value = Pads> {
    (
        0usize..3,
        prop::collection::vec(0.0f64..1.0, 1..24usize),
        (1usize..=4, 1usize..=4),
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8usize),
    )
        .prop_map(|(kind, ts, (ax, ay), at)| match kind {
            0 => Pads::Ring(ts),
            1 => Pads::Array(ax, ay),
            _ => Pads::Explicit(at),
        })
}

fn plan(pads: Pads, spec: &GridSpec) -> PadPlan {
    match pads {
        Pads::Ring(ts) => PadPlan::WireBond(PadRing::from_ts(ts).expect("ts in [0, 1)")),
        Pads::Array(ax, ay) => PadPlan::FlipChip(PadArray::new(ax, ay).expect("non-empty")),
        Pads::Explicit(at) => PadPlan::Explicit(
            at.into_iter()
                .map(|(u, v)| {
                    (
                        (u * spec.nx as f64) as usize % spec.nx,
                        (v * spec.ny as f64) as usize % spec.ny,
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mg_matches_dense_or_cg_on_random_grids(
        dims in shape(),
        pads in pads(),
        hotspots in hotspots(),
        sheets in sheets(),
    ) {
        let (nx, ny) = dims;
        let spec = GridSpec {
            nx,
            ny,
            r_sheet_x: sheets.0,
            r_sheet_y: sheets.1,
            hotspots,
            ..GridSpec::default_chip(nx)
        };
        let clamp = plan(pads, &spec).clamp_nodes(&spec).expect("plan clamps nodes");
        assert_matches_reference(&spec, &clamp)?;
    }
}

#[test]
fn edge_shapes_match_the_reference() {
    for (nx, ny) in [
        (2, 2),
        (2, 64),
        (64, 2),
        (3, 17),
        (17, 3),
        (5, 15),
        (5, 16),
        (7, 33),
        (48, 48),
        (48, 47),
    ] {
        let spec = GridSpec {
            nx,
            ny,
            ..GridSpec::default_chip(nx)
        };
        let ring = PadRing::uniform(6);
        assert_matches_reference(&spec, &ring.clamp_nodes(&spec))
            .unwrap_or_else(|e| panic!("{nx}x{ny}: {e:?}"));
    }
}

#[test]
fn a_zero_current_map_returns_vdd_everywhere() {
    // A multiplier-0 hotspot that covers the whole die: no node sinks
    // current, so no node drops, and nothing divides 0 by 0.
    let spec = GridSpec {
        hotspots: vec![Hotspot {
            cx: 0.5,
            cy: 0.5,
            radius: 1.0,
            multiplier: 0.0,
        }],
        ..GridSpec::default_chip(24)
    };
    let clamp = PadRing::uniform(5).clamp_nodes(&spec);
    let map = solve_mg_nodes(&spec, &clamp).expect("solves");
    assert!(map.voltages().iter().all(|&v| v == spec.vdd));
    assert_eq!(map.max_drop(), 0.0);
}

#[test]
fn a_solve_records_one_sweep_per_iteration_and_one_done() {
    let spec = GridSpec::default_chip(48);
    let clamp = PadRing::from_ts([0.02, 0.3, 0.55, 0.81])
        .expect("ring")
        .clamp_nodes(&spec);
    let mut trace = TraceBuffer::new();
    solve_mg_nodes_traced(&spec, &clamp, &mut trace).expect("solves");
    let (done, sweeps) = trace.events().split_last().expect("events recorded");
    let residuals: Vec<f64> = sweeps
        .iter()
        .enumerate()
        .map(|(k, event)| match *event {
            Event::SolverSweep {
                solver: Solver::Mg,
                sweep,
                residual,
            } if sweep as usize == k => residual,
            ref other => panic!("event {k}: {other:?}"),
        })
        .collect();
    assert!(
        (5..=30).contains(&residuals.len()),
        "{} iterations",
        residuals.len()
    );
    let last = *residuals.last().expect("at least one iteration");
    assert!(last <= 1e-10, "stopped at {last:e}");
    assert_eq!(
        done,
        &Event::SolverDone {
            solver: Solver::Mg,
            sweeps: residuals.len() as u32,
            residual: last,
            converged: true,
        }
    );
}

/// The pad ring `Codesign` solves for an order: every power net's finger
/// position, replicated onto all four sides of the die.
fn replicated_power_ring(quadrant: &Quadrant, assignment: &Assignment) -> Option<PadRing> {
    let alpha = assignment.finger_count() as f64;
    let ts: Vec<f64> = quadrant
        .nets_of_kind(NetKind::Power)
        .flat_map(|net| {
            let pos = assignment.position_of(net).expect("power net is placed");
            let frac = (pos.get() as f64 - 0.5) / alpha;
            (0..4u32).map(move |side| (f64::from(side) + frac) / 4.0)
        })
        .collect();
    (!ts.is_empty()).then(|| PadRing::from_ts(ts).expect("ts in [0, 1)"))
}

fn cg_ir(quadrant: &Quadrant, assignment: &Assignment, grid: &GridSpec) -> f64 {
    let ring = replicated_power_ring(quadrant, assignment).expect("power nets");
    solve_cg_nodes(grid, &ring.clamp_nodes(grid))
        .expect("cg solves")
        .max_drop()
}

#[test]
fn table1_ir_drop_matches_cg() {
    // The shipped flow and grid; a short anneal keeps the test quick and
    // still moves the pads between the two solves.
    let flow = Codesign {
        exchange: ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 1e-2,
                cooling: 0.85,
                ..Schedule::default()
            },
            ..ExchangeConfig::default()
        },
        ..Codesign::default()
    };
    for planar in circuits() {
        for circuit in [planar.stacked(4), planar] {
            let quadrant = circuit.build_quadrant().expect("Table 1 circuits build");
            let report = Codesign {
                stack: circuit.stack().expect("valid tier count"),
                ..flow.clone()
            }
            .run(&quadrant)
            .expect("flow runs");
            for (label, got, order) in [
                ("before", report.ir_before, &report.initial),
                ("after", report.ir_after, &report.final_assignment),
            ] {
                let got = got.unwrap_or_else(|| panic!("{}: no power nets", circuit.name));
                let want = cg_ir(&quadrant, order, &flow.grid);
                assert!(
                    (got - want).abs() <= IR_TOL,
                    "{}: IR {label} exchange {got} vs cg {want}",
                    circuit.name
                );
            }
        }
    }
}
