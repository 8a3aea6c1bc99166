//! Successive over-relaxation solver for the power grid.

use copack_obs::{Event, NoopRecorder, Recorder, Solver};

use crate::{GridSpec, IrMap, PadRing, PowerError};

/// Convergence tolerance on the largest per-sweep voltage update (volts).
const TOL: f64 = 1e-12;

/// Hard cap on SOR sweeps.
const MAX_SWEEPS: usize = 200_000;

/// Solves the discretised Eq. 1 by successive over-relaxation.
///
/// Pad nodes are clamped to `Vdd`; every other node satisfies the 5-point
/// balance with a constant current sink. The relaxation factor is the
/// classic optimum for the Laplace operator on an `n`-point mesh,
/// `ω = 2 / (1 + sin(π/n))`.
///
/// # Errors
///
/// * [`PowerError::BadSpec`] for an invalid grid.
/// * [`PowerError::NoConvergence`] if the sweep cap is hit (practically
///   unreachable for sane grids).
pub fn solve_sor(spec: &GridSpec, pads: &PadRing) -> Result<IrMap, PowerError> {
    solve_sor_nodes(spec, &pads.clamp_nodes(spec))
}

/// [`solve_sor`] warm-started from a previous solution's voltages.
///
/// When the pad ring changes only slightly between solves (one pad
/// moved), the previous fixed point is an excellent initial iterate and
/// SOR converges in a fraction of the sweeps. The result satisfies the same `1e-12`
/// convergence tolerance as a cold solve but is **not** bit-identical to
/// one (the iteration path differs).
///
/// A `guess` of the wrong length (e.g. from a different grid) is ignored
/// and the solve falls back to the cold start. Clamp nodes in the guess
/// are reset to `Vdd`.
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_warm(
    spec: &GridSpec,
    pads: &PadRing,
    guess: Option<&[f64]>,
) -> Result<IrMap, PowerError> {
    solve_sor_nodes_warm(spec, &pads.clamp_nodes(spec), guess)
}

/// [`solve_sor_warm`] with telemetry: one [`Event::SolverSweep`] per
/// sweep (the residual is the largest voltage update) and a final
/// [`Event::SolverDone`]. A disabled recorder costs nothing and the
/// solve is bit-identical to the untraced entry points.
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_warm_traced(
    spec: &GridSpec,
    pads: &PadRing,
    guess: Option<&[f64]>,
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    solve_sor_nodes_warm_traced(spec, &pads.clamp_nodes(spec), guess, recorder)
}

/// [`solve_sor`] for an explicit clamp-node list (any [`crate::PadPlan`]).
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_nodes(spec: &GridSpec, clamp: &[(usize, usize)]) -> Result<IrMap, PowerError> {
    solve_sor_nodes_warm(spec, clamp, None)
}

/// [`solve_sor_nodes`] with an optional warm-start guess (see
/// [`solve_sor_warm`]).
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_nodes_warm(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
) -> Result<IrMap, PowerError> {
    solve_sor_nodes_warm_traced(spec, clamp, guess, &mut NoopRecorder)
}

/// [`solve_sor_nodes_warm`] with telemetry (see
/// [`solve_sor_warm_traced`]).
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_nodes_warm_traced(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    solve_capped(spec, clamp, guess, recorder, MAX_SWEEPS)
}

/// [`solve_sor_nodes_warm_traced`] with an explicit sweep cap.
fn solve_capped(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
    recorder: &mut dyn Recorder,
    max_sweeps: usize,
) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let (nx, ny) = (spec.nx, spec.ny);
    let n = spec.node_count();
    let mut nodes: Vec<Node> = (0..ny)
        .flat_map(|j| {
            (0..nx).map(move |i| {
                if i > 0 && i + 1 < nx && j > 0 && j + 1 < ny {
                    Node::Interior
                } else {
                    Node::Edge
                }
            })
        })
        .collect();
    for &(i, j) in clamp {
        nodes[spec.idx(i, j)] = Node::Clamped;
    }
    let sinks: Vec<f64> = (0..n)
        .map(|p| spec.node_current_at(p % nx, p / nx))
        .collect();
    let stencil = Stencil {
        nx,
        ny,
        gx: spec.gx(),
        gy: spec.gy(),
        omega: 2.0 / (1.0 + (std::f64::consts::PI / nx.max(ny) as f64).sin()),
        nodes: &nodes,
        sinks: &sinks,
    };

    let mut v = match guess {
        Some(g) if g.len() == n => {
            let mut v = g.to_vec();
            // The clamp set may differ from the guess's solve; re-pin pads.
            for (p, node) in nodes.iter().enumerate() {
                if matches!(node, Node::Clamped) {
                    v[p] = spec.vdd;
                }
            }
            v
        }
        _ => vec![spec.vdd; n],
    };
    let rec_on = recorder.enabled();
    let mut residual = f64::INFINITY;
    for sweep in 0..max_sweeps {
        residual = stencil.sweep(&mut v);
        if rec_on {
            recorder.record(&Event::SolverSweep {
                solver: Solver::Sor,
                sweep: sweep as u32,
                residual,
            });
        }
        if residual < TOL {
            if rec_on {
                recorder.record(&Event::SolverDone {
                    solver: Solver::Sor,
                    sweeps: (sweep + 1) as u32,
                    residual,
                    converged: true,
                });
            }
            return Ok(IrMap::new(nx, ny, spec.vdd, v));
        }
    }
    if rec_on {
        recorder.record(&Event::SolverDone {
            solver: Solver::Sor,
            sweeps: max_sweeps as u32,
            residual,
            converged: false,
        });
    }
    Err(PowerError::NoConvergence {
        iterations: max_sweeps,
        residual,
    })
}

/// Rows per band of the skewed sweep (see [`Stencil::sweep`]).
const BAND: usize = 16;

/// How a grid node relaxes.
#[derive(Clone, Copy)]
enum Node {
    /// Free, with all four neighbours on the grid.
    Interior,
    /// Free, on the die boundary: the terms of missing neighbours drop out.
    Edge,
    /// Pinned to `Vdd` under a pad; never updated.
    Clamped,
}

/// The discretised Eq. 1 on one grid, as the SOR sweep reads it.
struct Stencil<'a> {
    nx: usize,
    ny: usize,
    gx: f64,
    gy: f64,
    omega: f64,
    nodes: &'a [Node],
    sinks: &'a [f64],
}

impl Stencil<'_> {
    /// One SOR sweep over `v`; returns the largest voltage update.
    ///
    /// The result is bit-identical to a row-major Gauss–Seidel sweep
    /// (`for j { for i { .. } }`), but the nodes are visited in skewed
    /// bands so the CPU can overlap their updates. Rows go in bands of
    /// [`BAND`]; at step `t`, band row `r` updates column `t − r`. Every
    /// update still sees its left and lower neighbours already updated
    /// this sweep and its right and upper neighbours not yet updated,
    /// exactly as in row-major order, and runs the same arithmetic in the
    /// same order. The updates of one step are independent, so their
    /// dependency chains (each ending in a divide) run side by side
    /// instead of one after another. Each band row keeps its own running
    /// maximum, folded after the sweep: a maximum is exact in any order,
    /// and one shared accumulator would chain the rows again.
    ///
    /// Interior nodes skip the edge path's four bounds tests; their sum is
    /// the edge path's with every term present, in the same order.
    // Out of line: inlined into the solve loop it ran ~15 % slower.
    #[inline(never)]
    fn sweep(&self, v: &mut [f64]) -> f64 {
        let Self {
            nx,
            ny,
            gx,
            gy,
            omega,
            nodes,
            sinks,
        } = *self;
        // The edge path's denominator with all four terms present
        // (`0.0 + gx` is exactly `gx`).
        let interior_den = gx + gx + gy + gy;
        let mut row_maxima = [0.0f64; BAND];
        for j0 in (0..ny).step_by(BAND) {
            let h = BAND.min(ny - j0);
            for t in 0..nx + h - 1 {
                // Band rows whose column `t - r` is on the grid.
                let first = t.saturating_sub(nx - 1);
                for (r, row_max) in (first..).zip(&mut row_maxima[first..h.min(t + 1)]) {
                    let (i, j) = (t - r, j0 + r);
                    let p = j * nx + i;
                    let delta = match nodes[p] {
                        Node::Interior => {
                            let num = -sinks[p]
                                + gx * v[p - 1]
                                + gx * v[p + 1]
                                + gy * v[p - nx]
                                + gy * v[p + nx];
                            omega * (num / interior_den - v[p])
                        }
                        Node::Edge => {
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
                            omega * (num / den - v[p])
                        }
                        Node::Clamped => continue,
                    };
                    v[p] += delta;
                    *row_max = row_max.max(delta.abs());
                }
            }
        }
        row_maxima.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use copack_obs::TraceBuffer;

    use super::*;

    #[test]
    fn all_nodes_at_or_below_vdd() {
        let spec = GridSpec::default_chip(16);
        let map = solve_sor(&spec, &PadRing::uniform(8)).unwrap();
        for &v in map.voltages() {
            assert!(v <= spec.vdd + 1e-9);
            assert!(v > 0.0);
        }
        assert!(map.max_drop() > 0.0);
    }

    #[test]
    fn pad_nodes_stay_clamped() {
        let spec = GridSpec::default_chip(12);
        let ring = PadRing::uniform(4);
        let map = solve_sor(&spec, &ring).unwrap();
        for (i, j) in ring.clamp_nodes(&spec) {
            assert_eq!(map.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn more_pads_reduce_the_drop() {
        let spec = GridSpec::default_chip(16);
        let few = solve_sor(&spec, &PadRing::uniform(2)).unwrap();
        let many = solve_sor(&spec, &PadRing::uniform(16)).unwrap();
        assert!(many.max_drop() < few.max_drop());
    }

    #[test]
    fn uniform_pads_beat_clustered_pads() {
        // The paper's Fig. 6(A) vs (B): random/clustered pads are much
        // worse than regularly spread pads.
        let spec = GridSpec::default_chip(16);
        let uniform = solve_sor(&spec, &PadRing::uniform(6)).unwrap();
        let clustered = solve_sor(
            &spec,
            &PadRing::from_ts([0.0, 0.02, 0.04, 0.06, 0.08, 0.10]).unwrap(),
        )
        .unwrap();
        assert!(uniform.max_drop() < clustered.max_drop());
    }

    #[test]
    fn symmetric_pads_give_a_symmetric_map() {
        let spec = GridSpec::default_chip(12);
        // Pads at the four edge mid-points: 90°-rotation symmetric.
        let ring = PadRing::uniform(4);
        let map = solve_sor(&spec, &ring).unwrap();
        let n = spec.nx - 1;
        for i in 0..spec.nx {
            for j in 0..spec.ny {
                let a = map.voltage(i, j);
                let b = map.voltage(n - i, n - j); // 180° rotation
                assert!((a - b).abs() < 1e-7, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn worst_node_is_far_from_pads() {
        // One pad at the bottom-left corner: the worst drop must be in the
        // opposite half of the die.
        let spec = GridSpec::default_chip(12);
        let map = solve_sor(&spec, &PadRing::from_ts([0.0]).unwrap()).unwrap();
        let (i, j) = map.worst_node();
        assert!(i + j > spec.nx / 2, "worst node ({i},{j}) too close to pad");
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point() {
        let spec = GridSpec::default_chip(16);
        let a = PadRing::from_ts([0.1, 0.35, 0.6, 0.85]).unwrap();
        let b = PadRing::from_ts([0.12, 0.35, 0.6, 0.85]).unwrap(); // one pad nudged
        let cold_a = solve_sor(&spec, &a).unwrap();
        let cold_b = solve_sor(&spec, &b).unwrap();
        let warm_b = solve_sor_warm(&spec, &b, Some(cold_a.voltages())).unwrap();
        for (w, c) in warm_b.voltages().iter().zip(cold_b.voltages()) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
        // Clamp nodes stay pinned even when the guess had them free.
        for (i, j) in b.clamp_nodes(&spec) {
            assert_eq!(warm_b.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn mismatched_guess_falls_back_to_cold_start() {
        let spec = GridSpec::default_chip(12);
        let ring = PadRing::uniform(4);
        let cold = solve_sor(&spec, &ring).unwrap();
        let short_guess = vec![spec.vdd; 7];
        let warm = solve_sor_warm(&spec, &ring, Some(&short_guess)).unwrap();
        assert_eq!(warm.voltages(), cold.voltages());
    }

    #[test]
    fn a_stalled_solve_reports_its_last_residual() {
        let spec = GridSpec::default_chip(16);
        let clamp = PadRing::uniform(4).clamp_nodes(&spec);
        let mut trace = TraceBuffer::new();
        let err = solve_capped(&spec, &clamp, None, &mut trace, 3).unwrap_err();
        let residuals: Vec<f64> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::SolverSweep { residual, .. } => Some(residual),
                _ => None,
            })
            .collect();
        assert_eq!(residuals.len(), 3);
        let last = residuals[2];
        assert!(last > TOL, "3 sweeps must not converge");
        assert_eq!(
            err,
            PowerError::NoConvergence {
                iterations: 3,
                residual: last
            }
        );
        assert!(err.to_string().contains(&format!("{last:.3e}")), "{err}");
        assert_eq!(
            trace.events().last(),
            Some(&Event::SolverDone {
                solver: Solver::Sor,
                sweeps: 3,
                residual: last,
                converged: false,
            })
        );
    }

    #[test]
    fn bad_spec_is_rejected() {
        let bad = GridSpec {
            vdd: 0.0,
            ..GridSpec::default_chip(8)
        };
        assert!(solve_sor(&bad, &PadRing::uniform(2)).is_err());
    }

    #[test]
    fn drop_scales_linearly_with_current() {
        // The system is linear: doubling J0 doubles every drop.
        let spec = GridSpec::default_chip(10);
        let double = GridSpec {
            current_density: spec.current_density * 2.0,
            ..spec.clone()
        };
        let ring = PadRing::uniform(5);
        let a = solve_sor(&spec, &ring).unwrap();
        let b = solve_sor(&double, &ring).unwrap();
        assert!((b.max_drop() / a.max_drop() - 2.0).abs() < 1e-6);
    }
}
