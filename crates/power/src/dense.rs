//! Dense direct solver, the ground truth the iterative solvers are
//! cross-checked against.
//!
//! Builds the reduced conductance matrix over the free (un-clamped) nodes
//! explicitly and solves it by Gaussian elimination with partial pivoting.
//! Cubic in the node count, so it is only meant for the small grids the
//! verification oracles use — [`solve_dense`] refuses grids above
//! [`MAX_DENSE_NODES`] free nodes rather than silently taking minutes.

use crate::{GridSpec, IrMap, PadRing, PowerError};

/// Largest free-node count the dense solver accepts (a 32×32 grid).
pub const MAX_DENSE_NODES: usize = 1024;

/// Solves the power grid exactly (up to rounding) by dense LU with partial
/// pivoting on the free nodes. The linear system is identical to the one
/// [`crate::solve_mg`] and [`crate::solve_cg`] iterate on: diagonal = sum
/// of adjacent edge conductances, off-diagonal = −g per free neighbour,
/// right-hand side = −I(i,j) plus `g·Vdd` per clamped neighbour.
///
/// # Errors
///
/// * [`PowerError::BadSpec`] for an invalid grid, a clamp node off the
///   grid, or more than [`MAX_DENSE_NODES`] free nodes (the solver is
///   O(n³)).
/// * [`PowerError::NoPads`] for an empty clamp list.
/// * [`PowerError::NoConvergence`] if elimination hits a zero pivot (the
///   grid floats, which cannot happen once a pad clamps a node).
pub fn solve_dense(spec: &GridSpec, pads: &PadRing) -> Result<IrMap, PowerError> {
    solve_dense_nodes(spec, &pads.clamp_nodes(spec))
}

/// [`solve_dense`] for an explicit clamp-node list.
///
/// # Errors
///
/// As [`solve_dense`].
pub fn solve_dense_nodes(spec: &GridSpec, clamp: &[(usize, usize)]) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let clamped = spec.clamp_mask(clamp)?;
    let (nx, ny) = (spec.nx, spec.ny);
    let n = spec.node_count();

    let mut free_of = vec![usize::MAX; n];
    let mut free_nodes = Vec::new();
    for p in 0..n {
        if !clamped[p] {
            free_of[p] = free_nodes.len();
            free_nodes.push(p);
        }
    }
    let nf = free_nodes.len();
    if nf == 0 {
        return Ok(IrMap::new(nx, ny, spec.vdd, vec![spec.vdd; n]));
    }
    if nf > MAX_DENSE_NODES {
        return Err(PowerError::BadSpec {
            parameter: "node count (dense solver)",
        });
    }

    let gx = spec.gx();
    let gy = spec.gy();

    // Row-major augmented system [A | b] over the free nodes.
    let mut a = vec![0.0f64; nf * nf];
    let mut b: Vec<f64> = free_nodes
        .iter()
        .map(|&p| -spec.node_current_at(p % nx, p / nx))
        .collect();
    for (f, &p) in free_nodes.iter().enumerate() {
        let (i, j) = (p % nx, p / nx);
        let mut diag = 0.0;
        {
            let mut edge = |q: usize, g: f64| {
                diag += g;
                if clamped[q] {
                    b[f] += g * spec.vdd;
                } else {
                    a[f * nf + free_of[q]] = -g;
                }
            };
            if i > 0 {
                edge(p - 1, gx);
            }
            if i + 1 < nx {
                edge(p + 1, gx);
            }
            if j > 0 {
                edge(p - nx, gy);
            }
            if j + 1 < ny {
                edge(p + nx, gy);
            }
        }
        a[f * nf + f] = diag;
    }

    // Gaussian elimination with partial pivoting.
    let mut perm: Vec<usize> = (0..nf).collect();
    for col in 0..nf {
        let (pivot_row, pivot_abs) = (col..nf)
            .map(|r| (r, a[perm[r] * nf + col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty pivot range");
        if pivot_abs == 0.0 {
            return Err(PowerError::NoConvergence {
                iterations: col,
                residual: f64::INFINITY,
            });
        }
        perm.swap(col, pivot_row);
        let pr = perm[col];
        let pivot = a[pr * nf + col];
        for &row in &perm[(col + 1)..nf] {
            let factor = a[row * nf + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[row * nf + col] = 0.0;
            for c in (col + 1)..nf {
                a[row * nf + c] -= factor * a[pr * nf + c];
            }
            b[row] -= factor * b[pr];
        }
    }

    // Back substitution.
    let mut x = vec![0.0f64; nf];
    for col in (0..nf).rev() {
        let row = perm[col];
        let mut acc = b[row];
        for c in (col + 1)..nf {
            acc -= a[row * nf + c] * x[c];
        }
        x[col] = acc / a[row * nf + col];
    }

    let mut v = vec![spec.vdd; n];
    for (f, &p) in free_nodes.iter().enumerate() {
        v[p] = x[f];
    }
    Ok(IrMap::new(nx, ny, spec.vdd, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_cg, solve_mg};

    #[test]
    fn dense_matches_mg_and_cg() {
        let spec = GridSpec::default_chip(12);
        for ring in [
            PadRing::uniform(3),
            PadRing::uniform(8),
            PadRing::from_ts([0.0, 0.03, 0.7]).unwrap(),
        ] {
            let d = solve_dense(&spec, &ring).unwrap();
            let m = solve_mg(&spec, &ring).unwrap();
            let c = solve_cg(&spec, &ring).unwrap();
            for ((vd, vm), vc) in d.voltages().iter().zip(m.voltages()).zip(c.voltages()) {
                assert!((vd - vm).abs() < 1e-9, "{vd} vs mg {vm}");
                assert!((vd - vc).abs() < 1e-9, "{vd} vs cg {vc}");
            }
        }
    }

    #[test]
    fn dense_respects_clamps() {
        let spec = GridSpec::default_chip(9);
        let ring = PadRing::uniform(5);
        let map = solve_dense(&spec, &ring).unwrap();
        for (i, j) in ring.clamp_nodes(&spec) {
            assert_eq!(map.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn oversized_grids_are_refused() {
        let spec = GridSpec::default_chip(64);
        let err = solve_dense(&spec, &PadRing::uniform(4)).unwrap_err();
        assert!(matches!(err, PowerError::BadSpec { .. }));
    }

    #[test]
    fn bad_spec_is_rejected() {
        let bad = GridSpec {
            nx: 1,
            ..GridSpec::default_chip(8)
        };
        assert!(solve_dense(&bad, &PadRing::uniform(2)).is_err());
    }

    #[test]
    fn anisotropy_is_reflected_exactly() {
        let spec = GridSpec {
            r_sheet_y: 0.4,
            ..GridSpec::default_chip(10)
        };
        let ring = PadRing::from_ts([0.06]).unwrap();
        let d = solve_dense(&spec, &ring).unwrap();
        let c = solve_cg(&spec, &ring).unwrap();
        assert!((d.max_drop() - c.max_drop()).abs() < 1e-6);
    }

    #[test]
    fn an_empty_clamp_list_is_no_pads() {
        let spec = GridSpec::default_chip(8);
        assert_eq!(solve_dense_nodes(&spec, &[]), Err(PowerError::NoPads));
    }

    #[test]
    fn an_off_grid_clamp_node_is_a_bad_spec() {
        let spec = GridSpec::default_chip(8);
        for node in [(8, 0), (0, 8)] {
            assert_eq!(
                solve_dense_nodes(&spec, &[(0, 0), node]),
                Err(PowerError::BadSpec {
                    parameter: "pad node"
                })
            );
        }
    }
}
