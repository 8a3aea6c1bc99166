//! The production IR solver against the independent references.
//!
//! `copack_power::solve_mg` (conjugate gradient preconditioned by a
//! multigrid V-cycle) computes every IR value the flow reports. Every
//! voltage it returns, and the maximum drop, must lie within 1e-9 V of the
//! dense LU solve (`solve_dense`, up to `MAX_DENSE_NODES` free nodes) or of
//! plain CG (`solve_cg`) on larger grids: on any grid shape, sheet
//! anisotropy, clamp set and current map, and on the IR-drop figures the
//! co-design flow reports for the Table 1 circuits.

use copack::core::{evaluate_ir_map_traced, Codesign, ExchangeConfig, Schedule};
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

/// A 64-bit FNV-1a digest, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one traced solve: the bits of every voltage, of every
    /// per-iteration residual, and the iteration count.
    fn solve(&mut self, map: &IrMap, trace: &TraceBuffer) {
        for &v in map.voltages() {
            self.word(v.to_bits());
        }
        for event in trace.events() {
            match *event {
                Event::SolverSweep { residual, .. } => self.word(residual.to_bits()),
                Event::SolverDone { sweeps, .. } => self.word(u64::from(sweeps)),
                ref other => panic!("unexpected event {other:?}"),
            }
        }
    }
}

/// SplitMix64: a fixed, dependency-free stream for the pinned grid list.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The solver's exact output on the flow's 20 Table 1 pad rings: the
/// default `Codesign` on circuits 1–5 at ψ = 1 and 4, solved before and
/// after the exchange. A kernel rewrite that keeps each node's operands
/// and their order leaves this digest unchanged; anything else moves it.
#[test]
fn table1_rings_solve_to_pinned_bits() {
    let mut digest = Fnv::new();
    for planar in circuits() {
        for circuit in [planar.clone(), planar.stacked(4)] {
            let quadrant = circuit.build_quadrant().expect("Table 1 circuits build");
            let flow = Codesign {
                stack: circuit.stack().expect("valid tier count"),
                ..Codesign::default()
            };
            let report = flow.run(&quadrant).expect("flow runs");
            for (reported, order) in [
                (report.ir_before, &report.initial),
                (report.ir_after, &report.final_assignment),
            ] {
                let mut trace = TraceBuffer::new();
                let map = evaluate_ir_map_traced(&quadrant, order, &flow.grid, None, &mut trace)
                    .expect("solves")
                    .expect("power nets");
                assert_eq!(reported, Some(map.max_drop()), "{}", circuit.name);
                digest.solve(&map, &trace);
            }
        }
    }
    assert_eq!(digest.0, 0x8742_bfd5_b6ad_4c5e, "digest {:#018x}", digest.0);
}

/// The solver's exact output on a fixed list of 250 seeded grids: 2×N
/// and N×2 strips and other shapes up to 64×64, sheets up to 10×
/// anisotropic either way, ring, area-array and explicit clamp sets, and
/// the two strips whose coarse operators are singular. Hotspots are left
/// out: their current map goes through libm's `hypot`, which the
/// proptests above cover to 1e-9 V instead.
#[test]
fn seeded_grids_solve_to_pinned_bits() {
    let mut rng = SplitMix(0x5eed_0f1e_2024_0018);
    let mut cases: Vec<(GridSpec, Vec<(usize, usize)>)> = Vec::new();
    // Coarse rows 0 and 1 (then 1 and 2) share one free fine row, so the
    // Galerkin operator below them is singular.
    for (ny, rows) in [(5, &[0, 2, 3][..]), (7, &[0, 1, 2, 4, 5][..])] {
        let spec = GridSpec {
            nx: 2,
            ny,
            ..GridSpec::default_chip(2)
        };
        let clamp = rows.iter().flat_map(|&j| [(0, j), (1, j)]).collect();
        cases.push((spec, clamp));
    }
    while cases.len() < 250 {
        let (nx, ny) = match rng.below(0, 5) {
            0 => (2, rng.below(2, 64)),
            1 => (rng.below(2, 64), 2),
            _ => (rng.below(2, 64), rng.below(2, 64)),
        };
        let r_sheet_x = 0.02 + 0.06 * rng.unit();
        let ratio = if rng.below(0, 1) == 0 {
            0.1 + 0.9 * rng.unit()
        } else {
            1.0 + 9.0 * rng.unit()
        };
        let spec = GridSpec {
            nx,
            ny,
            r_sheet_x,
            r_sheet_y: r_sheet_x * ratio,
            ..GridSpec::default_chip(nx)
        };
        let plan = match rng.below(0, 2) {
            0 => {
                let ts: Vec<f64> = (0..rng.below(1, 23)).map(|_| rng.unit()).collect();
                PadPlan::WireBond(PadRing::from_ts(ts).expect("ts in [0, 1)"))
            }
            1 => PadPlan::FlipChip(
                PadArray::new(rng.below(1, 4), rng.below(1, 4)).expect("non-empty"),
            ),
            _ => PadPlan::Explicit(
                (0..rng.below(1, 7))
                    .map(|_| (rng.below(0, nx - 1), rng.below(0, ny - 1)))
                    .collect(),
            ),
        };
        let clamp = plan.clamp_nodes(&spec).expect("plan clamps nodes");
        cases.push((spec, clamp));
    }
    let mut digest = Fnv::new();
    for (spec, clamp) in &cases {
        let mut trace = TraceBuffer::new();
        let map = solve_mg_nodes_traced(spec, clamp, &mut trace).expect("solves");
        digest.solve(&map, &trace);
    }
    assert_eq!(digest.0, 0x07b2_011f_274f_5c7b, "digest {:#018x}", digest.0);
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
