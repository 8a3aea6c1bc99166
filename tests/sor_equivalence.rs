//! The SOR kernel against a row-major reference sweep, bit for bit.
//!
//! `copack_power`'s SOR solver visits the grid in skewed bands so that
//! independent node updates overlap. That order must not change a single
//! bit: every voltage, every per-sweep residual and the sweep count must
//! equal those of the plain row-major Gauss–Seidel sweep written out below,
//! on any grid shape, clamp set, current map and warm start, and on the
//! IR-drop figures the co-design flow reports for the Table 1 circuits.

use copack::core::{Codesign, ExchangeConfig, Schedule};
use copack::gen::circuits;
use copack::geom::{Assignment, NetKind, Quadrant};
use copack::obs::{Event, Recorder, Solver, TraceBuffer};
use copack::power::{
    solve_sor_nodes_warm_traced, GridSpec, Hotspot, IrMap, PadArray, PadPlan, PadRing, PowerError,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The solver's convergence tolerance on the largest update (volts).
const TOL: f64 = 1e-12;

/// The solver's sweep cap.
const MAX_SWEEPS: usize = 200_000;

/// Row-major SOR: each node sees its left and lower neighbours from this
/// sweep and its right and upper neighbours from the last, and one running
/// maximum collects the updates. Events and errors follow the solver's
/// contract.
fn reference_solve(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let (nx, ny) = (spec.nx, spec.ny);
    let n = spec.node_count();
    let mut clamped = vec![false; n];
    for &(i, j) in clamp {
        clamped[spec.idx(i, j)] = true;
    }
    let (gx, gy) = (spec.gx(), spec.gy());
    let sinks: Vec<f64> = (0..n)
        .map(|p| spec.node_current_at(p % nx, p / nx))
        .collect();
    let omega = 2.0 / (1.0 + (std::f64::consts::PI / nx.max(ny) as f64).sin());
    let mut v = match guess {
        Some(g) if g.len() == n => g
            .iter()
            .zip(&clamped)
            .map(|(&x, &c)| if c { spec.vdd } else { x })
            .collect(),
        _ => vec![spec.vdd; n],
    };
    let mut residual = f64::INFINITY;
    for sweep in 0..MAX_SWEEPS {
        let mut max_delta: f64 = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                let p = spec.idx(i, j);
                if clamped[p] {
                    continue;
                }
                let mut num = -sinks[p];
                let mut den = 0.0;
                if i > 0 {
                    num += gx * v[p - 1];
                    den += gx;
                }
                if i + 1 < nx {
                    num += gx * v[p + 1];
                    den += gx;
                }
                if j > 0 {
                    num += gy * v[p - nx];
                    den += gy;
                }
                if j + 1 < ny {
                    num += gy * v[p + nx];
                    den += gy;
                }
                let v_gs = num / den;
                let delta = omega * (v_gs - v[p]);
                v[p] += delta;
                max_delta = max_delta.max(delta.abs());
            }
        }
        residual = max_delta;
        recorder.record(&Event::SolverSweep {
            solver: Solver::Sor,
            sweep: sweep as u32,
            residual,
        });
        if residual < TOL {
            recorder.record(&Event::SolverDone {
                solver: Solver::Sor,
                sweeps: (sweep + 1) as u32,
                residual,
                converged: true,
            });
            return Ok(IrMap::new(nx, ny, spec.vdd, v));
        }
    }
    recorder.record(&Event::SolverDone {
        solver: Solver::Sor,
        sweeps: MAX_SWEEPS as u32,
        residual,
        converged: false,
    });
    Err(PowerError::NoConvergence {
        iterations: MAX_SWEEPS,
        residual,
    })
}

/// A solver event with its floats as bits, so equality is bit equality.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Sweep {
        sweep: u32,
        residual: u64,
    },
    Done {
        sweeps: u32,
        residual: u64,
        converged: bool,
    },
}

fn steps(trace: &TraceBuffer) -> Vec<Step> {
    trace
        .events()
        .iter()
        .map(|event| match *event {
            Event::SolverSweep {
                solver: Solver::Sor,
                sweep,
                residual,
            } => Step::Sweep {
                sweep,
                residual: residual.to_bits(),
            },
            Event::SolverDone {
                solver: Solver::Sor,
                sweeps,
                residual,
                converged,
            } => Step::Done {
                sweeps,
                residual: residual.to_bits(),
                converged,
            },
            ref other => panic!("unexpected solver event {other:?}"),
        })
        .collect()
}

fn bits(map: &IrMap) -> Vec<u64> {
    map.voltages().iter().map(|v| v.to_bits()).collect()
}

/// Solves with the library and with the reference; both must produce the
/// same voltages and the same sweep-by-sweep residual stream, bit for bit.
fn assert_bit_identical(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
) -> Result<(), TestCaseError> {
    let mut want_trace = TraceBuffer::new();
    let want = reference_solve(spec, clamp, guess, &mut want_trace).expect("reference converges");
    let mut got_trace = TraceBuffer::new();
    let got = solve_sor_nodes_warm_traced(spec, clamp, guess, &mut got_trace)
        .map_err(|e| TestCaseError::fail(format!("solver failed: {e}")))?;
    prop_assert_eq!(steps(&got_trace), steps(&want_trace));
    prop_assert!(bits(&got) == bits(&want), "voltages differ");
    Ok(())
}

/// A deterministic warm start: voltages scattered below `Vdd`.
fn guess_values(len: usize, seed: u64, vdd: f64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vdd * (1.0 - (x >> 11) as f64 / (1u64 << 53) as f64 * 0.2)
        })
        .collect()
}

/// Grid shapes: a third are 2×N or N×2 strips, the rest anything in
/// `[2, 64]²` (most heights are not a multiple of any band height).
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (0usize..6, 2usize..=64, 2usize..=64).prop_map(|(kind, a, b)| match kind {
        0 => (2, b),
        1 => (a, 2),
        _ => (a, b),
    })
}

/// Hotspots, a quarter of them with multiplier 0 (a node that sinks no
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
}

fn pads() -> impl Strategy<Value = Pads> {
    (
        any::<bool>(),
        prop::collection::vec(0.0f64..1.0, 1..24usize),
        1usize..=4,
        1usize..=4,
    )
        .prop_map(|(ring, ts, ax, ay)| {
            if ring {
                Pads::Ring(ts)
            } else {
                Pads::Array(ax, ay)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sor_matches_the_row_major_reference_bit_for_bit(
        dims in shape(),
        pads in pads(),
        hotspots in hotspots(),
        sheets in (0.02f64..0.08, 0.02f64..0.08),
        warm in 0usize..4,
        seed in any::<u64>(),
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
        let plan = match pads {
            Pads::Ring(ts) => PadPlan::WireBond(PadRing::from_ts(ts).expect("ts in [0, 1)")),
            Pads::Array(ax, ay) => PadPlan::FlipChip(PadArray::new(ax, ay).expect("non-empty")),
        };
        let clamp = plan.clamp_nodes(&spec).expect("plan clamps nodes");
        let n = spec.node_count();
        // 0: cold; 1: a warm start of the right length; 2 and 3: guesses
        // of the wrong length, which the solver ignores.
        let guess = match warm {
            0 => None,
            1 => Some(guess_values(n, seed, spec.vdd)),
            2 => Some(guess_values(n + 1, seed, spec.vdd)),
            _ => Some(guess_values(n - 1, seed, spec.vdd)),
        };
        assert_bit_identical(&spec, &clamp, guess.as_deref())?;
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
        assert_bit_identical(&spec, &ring.clamp_nodes(&spec), None)
            .unwrap_or_else(|e| panic!("{nx}x{ny}: {e:?}"));
    }
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

fn reference_ir(quadrant: &Quadrant, assignment: &Assignment, grid: &GridSpec) -> Option<u64> {
    let ring = replicated_power_ring(quadrant, assignment)?;
    let map = reference_solve(grid, &ring.clamp_nodes(grid), None, &mut TraceBuffer::new())
        .expect("reference converges");
    Some(map.max_drop().to_bits())
}

#[test]
fn table1_ir_drop_matches_the_reference_bit_for_bit() {
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
            assert!(
                report.ir_before.is_some(),
                "{}: no power nets",
                circuit.name
            );
            assert_eq!(
                report.ir_before.map(f64::to_bits),
                reference_ir(&quadrant, &report.initial, &flow.grid),
                "{}: IR before exchange",
                circuit.name
            );
            assert_eq!(
                report.ir_after.map(f64::to_bits),
                reference_ir(&quadrant, &report.final_assignment, &flow.grid),
                "{}: IR after exchange",
                circuit.name
            );
        }
    }
}
