//! Multigrid-preconditioned conjugate gradient: the production IR solver.
//!
//! The solve works on the drop `d = Vdd − V`. Clamped nodes are `d = 0`
//! and the right-hand side is each free node's sink current, so the system
//! is the grid's conductance matrix restricted to the free nodes, `A·d = I`.
//! It is symmetric positive definite as soon as one node is clamped.
//!
//! * **Level 0** is the implicit 5-point stencil on the grid padded by one
//!   ghost ring. Its inverse diagonal is 0 at clamped nodes, and every
//!   vector is 0 at clamped and ghost nodes, so couplings to clamps and to
//!   the die edge vanish without branches.
//! * **Coarse levels.** Coarse node `I` sits on fine node `2I`, with
//!   `⌈n/2⌉` nodes per axis. The prolongation `P` is bilinear (the last odd
//!   fine node copies its one coarse neighbour) and has zero rows at dead
//!   fine nodes: the clamps on level 0, and on a coarse level the nodes
//!   whose `P` column one level up is empty. Each coarse operator is the
//!   Galerkin product `PᵀAP`, a 9-point stencil rebuilt on every solve
//!   because the clamp set changes. A dead coarse row is an identity row
//!   with a zero right-hand side, so its value stays 0.
//! * The levels go down to at most 3×3, solved by dense Cholesky.
//! * The preconditioner is one V(1,1) cycle: forward Gauss–Seidel before
//!   the coarse correction, backward Gauss–Seidel after it, which keeps it
//!   symmetric as CG requires.
//!
//! **Wavefront sweeps.** A Gauss–Seidel update chains each node to the one
//! before it in its row, so a row-by-row sweep runs one dependent
//! multiply-add after another. The sweeps instead run bands of rows side
//! by side, each row a fixed number of columns behind the row it depends
//! on: one column on level 0 (its 5-point stencil reaches the node below
//! or above), two on the 9-point levels (they also reach that node's
//! diagonal neighbours). Every node still reads updated neighbours on one
//! side and not-yet-updated ones on the other, exactly as in row-major
//! order, and evaluates the same expression on them, so the sweeps are
//! bit-identical to the row-by-row ones; only the chains overlap. All
//! per-node loops run over per-row slices, which keeps bounds checks out
//! of them.
//!
//! CG stops at `‖r‖₂ ≤ 1e-10·‖b‖₂`, in 12–14 iterations on the 48×48 grid
//! for every Table 1 ring. The solver is single-threaded and
//! deterministic: the same inputs give the same bits.

use copack_obs::{Event, NoopRecorder, Recorder, Solver};

use crate::{GridSpec, IrMap, PadRing, PowerError};

/// Stopping rule: `‖r‖₂ ≤ TOL·‖b‖₂`.
const TOL: f64 = 1e-10;

/// Safety cap on CG iterations. Not a tuning knob: the worst of 600 random
/// grids, clamp sets, sheets (up to 10× anisotropy) and hotspots took 25.
/// Point smoothing weakens under extreme anisotropy, so the cap leaves
/// room for it: on the 48×48 grid, 10³× takes about 210 iterations and
/// 10⁵× about 730.
const MAX_ITERS: usize = 1000;

/// The coarsest level has at most this many nodes per axis.
const COARSEST: usize = 3;

/// Solves the discretised Eq. 1 by multigrid-preconditioned conjugate
/// gradient (see the module docs).
///
/// Pad nodes are clamped to `Vdd`; every other node satisfies the 5-point
/// balance with its current sink.
///
/// # Errors
///
/// * [`PowerError::BadSpec`] for an invalid grid.
/// * [`PowerError::NoConvergence`] if the iteration cap is hit (not seen on
///   any grid the flow or the tests build).
pub fn solve_mg(spec: &GridSpec, pads: &PadRing) -> Result<IrMap, PowerError> {
    solve_mg_nodes(spec, &pads.clamp_nodes(spec))
}

/// [`solve_mg`] with telemetry: one [`Event::SolverSweep`] per CG
/// iteration (the residual is `‖r‖₂/‖b‖₂`) and a final
/// [`Event::SolverDone`]. A disabled recorder costs nothing and the solve
/// is bit-identical to the untraced entry points.
///
/// # Errors
///
/// As [`solve_mg`].
pub fn solve_mg_traced(
    spec: &GridSpec,
    pads: &PadRing,
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    solve_mg_nodes_traced(spec, &pads.clamp_nodes(spec), recorder)
}

/// [`solve_mg`] for an explicit clamp-node list (any [`crate::PadPlan`]).
///
/// # Errors
///
/// As [`solve_mg`], plus [`PowerError::NoPads`] for an empty list and
/// [`PowerError::BadSpec`] for a node off the grid.
pub fn solve_mg_nodes(spec: &GridSpec, clamp: &[(usize, usize)]) -> Result<IrMap, PowerError> {
    solve_mg_nodes_traced(spec, clamp, &mut NoopRecorder)
}

/// [`solve_mg_nodes`] with telemetry (see [`solve_mg_traced`]).
///
/// # Errors
///
/// As [`solve_mg_nodes`].
pub fn solve_mg_nodes_traced(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    solve_capped(spec, clamp, recorder, MAX_ITERS)
}

/// [`solve_mg_nodes_traced`] with an explicit iteration cap.
fn solve_capped(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    recorder: &mut dyn Recorder,
    max_iters: usize,
) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let clamped = spec.clamp_mask(clamp)?;
    let (nx, ny) = (spec.nx, spec.ny);
    let fine = Fine::new(spec, &clamped);
    let w = fine.width();

    // The right-hand side, which the residual starts as (d₀ = 0).
    let mut r = vec![0.0; fine.len()];
    for j in 0..ny {
        for i in 0..nx {
            if !clamped[j * nx + i] {
                r[(j + 1) * w + i + 1] = spec.node_current_at(i, j);
            }
        }
    }
    let b_norm = dot(&r, &r).sqrt();
    let rec_on = recorder.enabled();
    let done = |recorder: &mut dyn Recorder, sweeps: usize, residual: f64, converged| {
        if rec_on {
            recorder.record(&Event::SolverDone {
                solver: Solver::Mg,
                sweeps: sweeps as u32,
                residual,
                converged,
            });
        }
    };
    if b_norm == 0.0 {
        // No current anywhere: no drop anywhere.
        done(recorder, 0, 0.0, true);
        return Ok(IrMap::new(nx, ny, spec.vdd, vec![spec.vdd; nx * ny]));
    }

    let mut mg = Multigrid::new(fine);
    let mut d = vec![0.0; r.len()];
    let mut zq = vec![0.0; r.len()];
    let mut p = vec![0.0; r.len()];
    mg.precondition(&r, &mut zq);
    p.copy_from_slice(&zq);
    let mut rz = dot(&r, &zq);
    let mut residual = 1.0;
    for it in 0..max_iters {
        // `zq` holds the preconditioned residual until `p` is built from
        // it, then `A·p`.
        mg.fine.apply(&p, &mut zq);
        let alpha = rz / dot(&p, &zq);
        for ((dk, rk), (pk, qk)) in d.iter_mut().zip(&mut r).zip(p.iter().zip(&zq)) {
            *dk += alpha * pk;
            *rk -= alpha * qk;
        }
        residual = dot(&r, &r).sqrt() / b_norm;
        if rec_on {
            recorder.record(&Event::SolverSweep {
                solver: Solver::Mg,
                sweep: it as u32,
                residual,
            });
        }
        if residual <= TOL {
            done(recorder, it + 1, residual, true);
            let v = (0..ny)
                .flat_map(|j| (0..nx).map(move |i| (j + 1) * w + i + 1))
                .map(|k| spec.vdd - d[k])
                .collect();
            return Ok(IrMap::new(nx, ny, spec.vdd, v));
        }
        mg.precondition(&r, &mut zq);
        let rz_next = dot(&r, &zq);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pk, zk) in p.iter_mut().zip(&zq) {
            *pk = zk + beta * *pk;
        }
    }
    done(recorder, max_iters, residual, false);
    Err(PowerError::NoConvergence {
        iterations: max_iters,
        residual,
    })
}

/// `x·y`, summed in four interleaved lanes (a fixed order, so the result
/// is deterministic) to break the add chain.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0; 4];
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail: f64 = xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    for (a, b) in xc.zip(yc) {
        for k in 0..4 {
            lanes[k] += a[k] * b[k];
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// The bilinear prolongation on one axis of `n` fine nodes: fine node `i`
/// takes `w_lo` of coarse node `lo` and `w_hi` of `lo + 1`. An even node
/// sits on coarse node `i/2`; an odd node lies halfway between `i/2` and
/// `i/2 + 1`, except the last odd node, which copies `i/2`.
fn parents(i: usize, n: usize) -> (usize, f64, f64) {
    if i % 2 == 0 || i + 1 == n {
        (i / 2, 1.0, 0.0)
    } else {
        (i / 2, 0.5, 0.5)
    }
}

/// The weights with which coarse node `c` gathers fine nodes `2c − 1`,
/// `2c` and `2c + 1` on an axis of `n` fine nodes (a column of the
/// prolongation); a fine node off the axis weighs 0.
fn gather_weights(c: usize, n: usize) -> [f64; 3] {
    let below = if c > 0 { 0.5 } else { 0.0 };
    let above = match (2 * c + 2).cmp(&n) {
        std::cmp::Ordering::Less => 0.5,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => 0.0,
    };
    [below, 1.0, above]
}

/// The 1-D Galerkin product `PᵀTP` of a tridiagonal `T` on an axis whose
/// coarse node `c` is the last one with a fine node beyond it
/// (`last_odd`, that is `2c + 2 = n`) or not. `t[f]` holds fine row
/// `2c − 1 + f` of `T` as `[sub, diag, super]` couplings; rows off the axis
/// are zero. Returns coarse row `c` as `[sub, diag, super]`.
#[inline(always)]
fn galerkin_1d(last_odd: bool, t: [[f64; 3]; 3]) -> [f64; 3] {
    let [[lm, dm, um], [l0, d0, u0], [lp, dp, up]] = t;
    // Fine node 2c + 1 is the last odd node: it belongs to c alone.
    let wp = if last_odd { 1.0 } else { 0.5 };
    let sub = 0.5 * lm + 0.25 * dm + 0.5 * l0;
    let diag = 0.25 * dm + 0.5 * um + 0.5 * l0 + d0 + wp * (u0 + lp) + wp * wp * dp;
    let sup = if last_odd {
        0.0
    } else {
        0.5 * u0 + 0.25 * dp + 0.5 * up
    };
    [sub, diag, sup]
}

/// Level 0: the implicit 5-point stencil on the padded grid.
///
/// A free node's diagonal (the sum of its adjacent edge conductances)
/// depends only on whether it sits on a die edge, so it is kept per
/// padded column for edge rows and for inner rows, and the mask applies it
/// to the free nodes.
struct Fine {
    nx: usize,
    ny: usize,
    gx: f64,
    gy: f64,
    /// 1 at free nodes, 0 at clamped and ghost nodes.
    mask: Vec<f64>,
    /// Free-node diagonal per padded column: `[edge rows, inner rows]`.
    diag: [Vec<f64>; 2],
    /// Its inverse.
    inv_diag: [Vec<f64>; 2],
}

impl Fine {
    fn new(spec: &GridSpec, clamped: &[bool]) -> Self {
        let (nx, ny) = (spec.nx, spec.ny);
        let (gx, gy) = (spec.gx(), spec.gy());
        let w = nx + 2;
        let mut mask = vec![0.0; w * (ny + 2)];
        for (j, row) in clamped.chunks_exact(nx).enumerate() {
            for (i, &c) in row.iter().enumerate() {
                mask[(j + 1) * w + i + 1] = if c { 0.0 } else { 1.0 };
            }
        }
        let diag = [1.0, 2.0].map(|vertical: f64| {
            let mut d = vec![0.0; w];
            for (i, di) in d[1..=nx].iter_mut().enumerate() {
                let horizontal = f64::from(u8::from(i > 0) + u8::from(i + 1 < nx));
                *di = horizontal * gx + vertical * gy;
            }
            d
        });
        let inv_diag = [0, 1].map(|kind| {
            diag[kind]
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
                .collect()
        });
        Self {
            nx,
            ny,
            gx,
            gy,
            mask,
            diag,
            inv_diag,
        }
    }

    /// Padded row length.
    fn width(&self) -> usize {
        self.nx + 2
    }

    /// Padded node count.
    fn len(&self) -> usize {
        self.mask.len()
    }

    /// Which per-column diagonal grid row `j` uses: 0 on the bottom and
    /// top rows, 1 inside.
    fn kind(&self, j: usize) -> usize {
        usize::from(j > 0 && j + 1 < self.ny)
    }

    /// Grid rows `j0 .. j0 + R` of the mask, the inverse diagonal and
    /// `r`, as padded rows: what a Gauss–Seidel update reads besides the
    /// neighbours.
    fn band_rows<'a, const R: usize>(&'a self, r: &'a [f64], j0: usize) -> [[&'a [f64]; 3]; R] {
        let w = self.width();
        std::array::from_fn(|q| {
            let at = (j0 + q + 1) * w;
            [
                &self.mask[at..at + w],
                &self.inv_diag[self.kind(j0 + q)][..w],
                &r[at..at + w],
            ]
        })
    }

    /// `q = A·p`, 0 at clamped nodes.
    fn apply(&self, p: &[f64], q: &mut [f64]) {
        let (w, nx, gx, gy) = (self.width(), self.nx, self.gx, self.gy);
        let rows = p.windows(3 * w).step_by(w);
        for (j, (p, q)) in rows.zip(q[w..].chunks_exact_mut(w)).enumerate() {
            let (south, centre, north) = (&p[..w], &p[w..2 * w], &p[2 * w..]);
            let mask = &self.mask[(j + 1) * w..(j + 2) * w];
            let diag = &self.diag[self.kind(j)];
            let nodes = q[1..=nx]
                .iter_mut()
                .zip(&mask[1..=nx])
                .zip(&diag[1..=nx])
                .zip(centre.windows(3))
                .zip(south[1..=nx].iter().zip(&north[1..=nx]));
            for ((((q, &m), &d), c), (&s, &n)) in nodes {
                let off = gx * (c[0] + c[2]) + gy * (s + n);
                *q = m * (d * c[1] - off);
            }
        }
    }

    /// One forward Gauss–Seidel sweep on `A·z = r` from `z = 0`: only the
    /// west and south neighbours, already updated, contribute. The west
    /// term is added last and kept in a register, so the chain from one
    /// node to the next is one multiply and one add.
    ///
    /// The rows go in wavefront bands (see [`wavefront`]), each row one
    /// column behind the row below it.
    fn forward_from_zero(&self, r: &[f64], z: &mut [f64]) {
        let mut j = 0;
        while j + BAND <= self.ny {
            self.forward_band::<BAND>(r, z, j);
            j += BAND;
        }
        for j in j..self.ny {
            self.forward_band::<1>(r, z, j);
        }
    }

    /// [`Fine::forward_from_zero`] on grid rows `j0 .. j0 + R`. A row's
    /// south neighbour is the value the row below produced one step
    /// earlier, still in its register.
    fn forward_band<const R: usize>(&self, r: &[f64], z: &mut [f64], j0: usize) {
        let (w, nx, gx, gy) = (self.width(), self.nx, self.gx, self.gy);
        let (done, band) = z.split_at_mut((j0 + 1) * w);
        let south = &done[j0 * w..][..w];
        let mut rows = band.chunks_exact_mut(w);
        let mut z: [&mut [f64]; R] =
            std::array::from_fn(|_| &mut rows.next().expect("band row")[..w]);
        let cells = self.band_rows::<R>(r, j0);
        let mut west = [0.0; R];
        wavefront::<R>(nx, |q, i| {
            let s = if q == 0 { south[i] } else { west[q - 1] };
            let [mask, inv, r] = cells[q];
            let scale = mask[i] * inv[i];
            west[q] = scale * (r[i] + gy * s) + scale * gx * west[q];
            z[q][i] = west[q];
        });
    }

    /// `t = r − A·z` right after [`Fine::forward_from_zero`]: the sweep
    /// satisfied each node's equation with its east and north neighbours
    /// at 0, so only those two couplings remain.
    fn upper_residual(&self, z: &[f64], t: &mut [f64]) {
        let (w, nx, gx, gy) = (self.width(), self.nx, self.gx, self.gy);
        let rows = z[w..].windows(2 * w).step_by(w);
        let masks = self.mask[w..].chunks_exact(w);
        for ((z, t), mask) in rows
            .zip(t[w..].chunks_exact_mut(w))
            .zip(masks)
            .take(self.ny)
        {
            let (centre, north) = (&z[..w], &z[w..]);
            let nodes = t[1..=nx]
                .iter_mut()
                .zip(&mask[1..=nx])
                .zip(centre[2..].iter().zip(&north[1..=nx]));
            for ((t, &m), (&e, &n)) in nodes {
                *t = m * (gx * e + gy * n);
            }
        }
    }

    /// One backward Gauss–Seidel sweep on `A·z = r`, with the east term
    /// chained as in [`Fine::forward_from_zero`].
    ///
    /// The rows go in wavefront bands from the top, each row one column
    /// behind the row above it.
    fn backward(&self, r: &[f64], z: &mut [f64]) {
        let mut top = self.ny;
        while top >= BAND {
            top -= BAND;
            self.backward_band::<BAND>(r, z, top);
        }
        for j in (0..top).rev() {
            self.backward_band::<1>(r, z, j);
        }
    }

    /// [`Fine::backward`] on grid rows `j0 .. j0 + R`. A row's north
    /// neighbour is the value the row above produced one step earlier,
    /// still in its register; its south neighbour is not yet updated,
    /// because the row below runs a column behind.
    fn backward_band<const R: usize>(&self, r: &[f64], z: &mut [f64], j0: usize) {
        let (w, nx, gx, gy) = (self.width(), self.nx, self.gx, self.gy);
        let (done, band) = z.split_at_mut((j0 + 1) * w);
        let south = &done[j0 * w..][..w];
        let (band, north) = band.split_at_mut(R * w);
        let north = &north[..w];
        // Band row q is grid row j0 + R − 1 − q: row 0 on top.
        let mut rows = band.chunks_exact_mut(w).rev();
        let mut z: [&mut [f64]; R] =
            std::array::from_fn(|_| &mut rows.next().expect("band row")[..w]);
        let mut cells = self.band_rows::<R>(r, j0);
        cells.reverse();
        let mut east = [0.0; R];
        wavefront::<R>(nx, |q, s| {
            let i = nx + 1 - s;
            let n = if q == 0 { north[i] } else { east[q - 1] };
            let so = if q + 1 == R { south[i] } else { z[q + 1][i] };
            let [mask, inv, r] = cells[q];
            let scale = mask[i] * inv[i];
            let rest = r[i] + gx * z[q][i - 1] + gy * (so + n);
            east[q] = scale * rest + scale * gx * east[q];
            z[q][i] = east[q];
        });
    }

    /// The operator's padded row `j` as 9-point stencils over the live
    /// nodes: couplings to clamps and ghosts dropped, all zero at a clamp.
    fn stencil_row(&self, j: usize, out: &mut [[f64; 9]]) {
        let (w, nx, gx, gy) = (self.width(), self.nx, self.gx, self.gy);
        let m = &self.mask[j * w..(j + 3) * w];
        let (south, centre, north) = (&m[..w], &m[w..2 * w], &m[2 * w..]);
        let diag = &self.diag[self.kind(j)];
        out[0] = [0.0; 9];
        out[nx + 1] = [0.0; 9];
        let nodes = out[1..=nx]
            .iter_mut()
            .zip(centre.windows(3))
            .zip(&diag[1..=nx])
            .zip(south[1..=nx].iter().zip(&north[1..=nx]));
        for (((s, c), &d), (&so, &no)) in nodes {
            *s = if c[1] != 0.0 {
                [
                    0.0,
                    -gy * so,
                    0.0,
                    -gx * c[0],
                    d,
                    -gx * c[2],
                    0.0,
                    -gy * no,
                    0.0,
                ]
            } else {
                [0.0; 9]
            };
        }
    }
}

/// A coarse level: a stored 9-point stencil on its padded grid. Stencil
/// entry `3·(dj + 1) + (di + 1)` couples node `(i, j)` to `(i + di, j + dj)`.
struct Coarse {
    nx: usize,
    ny: usize,
    /// Galerkin stencil per padded node; all zero at dead and ghost nodes.
    a: Vec<[f64; 9]>,
    /// Inverse of the stencil centre; 0 at dead and ghost nodes.
    inv_diag: Vec<f64>,
    /// The level's solution and right-hand side.
    x: Vec<f64>,
    b: Vec<f64>,
}

impl Coarse {
    /// The Galerkin operator `PᵀAP` below a fine level of `fnx × fny`
    /// nodes, whose padded row `j` `fine_row` writes as 9-point stencils.
    ///
    /// `P` is a tensor product, so the product is taken one axis at a
    /// time: each fine row is coarsened in x (`B = PxᵀAPx`, row by row),
    /// then each coarse row `J` is coarsened in y from the three `B` rows
    /// `2J − 1 … 2J + 1` it gathers, so only three `B` rows are ever held.
    fn galerkin(fnx: usize, fny: usize, fine_row: impl Fn(usize, &mut [[f64; 9]])) -> Self {
        let (nx, ny) = (fnx.div_ceil(2), fny.div_ceil(2));
        let w = nx + 2;
        let len = w * (ny + 2);
        let mut a = vec![[0.0; 9]; len];
        let mut fine = vec![[0.0; 9]; fnx + 2];
        // B rows 2J − 1, 2J and 2J + 1 (zero off the grid).
        let mut rows = [vec![[0.0; 9]; w], vec![[0.0; 9]; w], vec![[0.0; 9]; w]];
        let mut coarsen_x = |j: usize, out: &mut [[f64; 9]]| {
            if j >= fny {
                out.fill([0.0; 9]);
                return;
            }
            fine_row(j, &mut fine);
            // Coarse node c gathers fine nodes 2c − 1 … 2c + 1.
            let gathers = fine.windows(3).step_by(2);
            for (c, (s, f)) in out[1..=nx].iter_mut().zip(gathers).enumerate() {
                let last_odd = 2 * c + 2 == fnx;
                let (lo, mid, hi) = (&f[0], &f[1], &f[2]);
                for d in [0, 3, 6] {
                    let t = [
                        [lo[d], lo[d + 1], lo[d + 2]],
                        [mid[d], mid[d + 1], mid[d + 2]],
                        [hi[d], hi[d + 1], hi[d + 2]],
                    ];
                    s[d..d + 3].copy_from_slice(&galerkin_1d(last_odd, t));
                }
            }
        };
        for cj in 0..ny {
            if cj > 0 {
                rows.swap(0, 2);
            }
            let [_, mid, high] = &mut rows;
            coarsen_x(2 * cj, mid);
            coarsen_x(2 * cj + 1, high);
            let last_odd = 2 * cj + 2 == fny;
            let [low, mid, high] = &rows;
            let out = &mut a[(cj + 1) * w + 1..][..nx];
            let columns = low[1..=nx].iter().zip(&mid[1..=nx]).zip(&high[1..=nx]);
            for (s, ((lo, mid), hi)) in out.iter_mut().zip(columns) {
                for d in 0..3 {
                    let t = [
                        [lo[d], lo[3 + d], lo[6 + d]],
                        [mid[d], mid[3 + d], mid[6 + d]],
                        [hi[d], hi[3 + d], hi[6 + d]],
                    ];
                    let [sub, diag, sup] = galerkin_1d(last_odd, t);
                    s[d] = sub;
                    s[3 + d] = diag;
                    s[6 + d] = sup;
                }
            }
        }
        let inv_diag = a
            .iter()
            .map(|s| if s[4] > 0.0 { 1.0 / s[4] } else { 0.0 })
            .collect();
        Self {
            nx,
            ny,
            a,
            inv_diag,
            x: vec![0.0; len],
            b: vec![0.0; len],
        }
    }

    fn width(&self) -> usize {
        self.nx + 2
    }

    /// Padded row `j` of the stored stencils (zero at ghosts and dead
    /// nodes).
    fn stencil_row(&self, j: usize, out: &mut [[f64; 9]]) {
        let start = (j + 1) * self.width();
        out.copy_from_slice(&self.a[start..start + self.width()]);
    }

    /// Grid row `j`'s stencils, inverse diagonal and `b`, as padded rows:
    /// what a Gauss–Seidel update reads besides the neighbours.
    fn cells(&self, j: usize) -> (&[[f64; 9]], &[f64], &[f64]) {
        let at = (j + 1) * self.width()..(j + 2) * self.width();
        (&self.a[at.clone()], &self.inv_diag[at.clone()], &self.b[at])
    }

    /// One forward Gauss–Seidel sweep on `A·x = b` from `x = 0`, the west
    /// term chained as on level 0.
    ///
    /// The rows go in bands of two as on level 0 (see [`wavefront`]), but
    /// the upper row runs two columns behind the lower one: its south-east
    /// neighbour must be updated first. A 9-point update is bound by its
    /// loads rather than by its chain, so wider bands buy nothing here.
    fn forward_from_zero(&mut self) {
        let (w, nx, ny) = (self.width(), self.nx, self.ny);
        // Node `i` of a row from its cells and the row below it.
        let node = |(a, inv, b): (&[[f64; 9]], &[f64], &[f64]), i: usize, below: &[f64], west| {
            let (a, s) = (&a[i], inv[i]);
            let lower = a[0] * below[i - 1] + a[1] * below[i] + a[2] * below[i + 1];
            s * (b[i] - lower) - s * a[3] * west
        };
        let mut x = std::mem::take(&mut self.x);
        for j in (0..ny).step_by(2) {
            let (done, band) = x.split_at_mut((j + 1) * w);
            let south = &done[j * w..];
            let lead = self.cells(j);
            if j + 1 == ny {
                let mut west = 0.0;
                for (i, x) in (1..=nx).zip(&mut band[1..=nx]) {
                    west = node(lead, i, south, west);
                    *x = west;
                }
                break;
            }
            let trail = self.cells(j + 1);
            let (xl, xt) = band[..2 * w].split_at_mut(w);
            let (mut wl, mut wt) = (0.0, 0.0);
            let first = nx.min(2);
            for (i, x) in (1..=first).zip(&mut xl[1..]) {
                wl = node(lead, i, south, wl);
                *x = wl;
            }
            for i in first + 1..=nx {
                wt = node(trail, i - 2, xl, wt);
                xt[i - 2] = wt;
                wl = node(lead, i, south, wl);
                xl[i] = wl;
            }
            let last = nx + 1 - first;
            for (i, x) in (last..=nx).zip(&mut xt[last..]) {
                wt = node(trail, i, xl, wt);
                *x = wt;
            }
        }
        self.x = x;
    }

    /// `t = b − A·x` right after [`Coarse::forward_from_zero`].
    fn upper_residual(&self, t: &mut [f64]) {
        let (w, nx) = (self.width(), self.nx);
        let rows = self.x[w..].windows(2 * w).step_by(w);
        let stencils = self.a[w..].chunks_exact(w);
        for ((x, t), a) in rows
            .zip(t[w..].chunks_exact_mut(w))
            .zip(stencils)
            .take(self.ny)
        {
            let (centre, north) = (&x[..w], &x[w..]);
            let nodes = t[1..=nx]
                .iter_mut()
                .zip(&a[1..=nx])
                .zip(centre[2..].iter().zip(north.windows(3)));
            for ((t, a), (&e, n)) in nodes {
                *t = -(a[5] * e + a[6] * n[0] + a[7] * n[1] + a[8] * n[2]);
            }
        }
    }

    /// One backward Gauss–Seidel sweep on `A·x = b`, the east term chained.
    ///
    /// The rows go in bands of two from the top, the lower row two columns
    /// behind the upper one: its north-west neighbour must be updated
    /// first, and the upper row's south-east neighbour must not be.
    fn backward(&mut self) {
        let (w, nx) = (self.width(), self.nx);
        // Node `i` of a row from its cells, its old west neighbour and the
        // rows below and above it.
        let node = |(a, inv, b): (&[[f64; 9]], &[f64], &[f64]),
                    i: usize,
                    below: &[f64],
                    west: f64,
                    above: &[f64],
                    east: f64| {
            let (a, s) = (&a[i], inv[i]);
            let off = a[0] * below[i - 1]
                + a[1] * below[i]
                + a[2] * below[i + 1]
                + a[3] * west
                + a[6] * above[i - 1]
                + a[7] * above[i]
                + a[8] * above[i + 1];
            s * (b[i] - off) - s * a[5] * east
        };
        let mut x = std::mem::take(&mut self.x);
        for j in (0..self.ny).rev().step_by(2) {
            let lead = self.cells(j);
            if j == 0 {
                let (south, band) = x.split_at_mut(w);
                let (x, north) = band.split_at_mut(w);
                let north = &north[..w];
                let mut east = 0.0;
                for i in (1..=nx).rev() {
                    east = node(lead, i, south, x[i - 1], north, east);
                    x[i] = east;
                }
                break;
            }
            let trail = self.cells(j - 1);
            let (done, band) = x.split_at_mut(j * w);
            let south = &done[(j - 1) * w..];
            let (xt, band) = band.split_at_mut(w);
            let (xl, north) = band.split_at_mut(w);
            let north = &north[..w];
            let (mut el, mut et) = (0.0, 0.0);
            for i in (nx.max(2) - 1..=nx).rev() {
                el = node(lead, i, xt, xl[i - 1], north, el);
                xl[i] = el;
            }
            for i in (1..nx.max(2) - 1).rev() {
                et = node(trail, i + 2, south, xt[i + 1], xl, et);
                xt[i + 2] = et;
                el = node(lead, i, xt, xl[i - 1], north, el);
                xl[i] = el;
            }
            for i in (1..=nx.min(2)).rev() {
                et = node(trail, i, south, xt[i - 1], xl, et);
                xt[i] = et;
            }
        }
        self.x = x;
    }
}

/// Rows per wavefront band of a level-0 Gauss–Seidel sweep.
const BAND: usize = 4;

/// Runs one band of `R` rows of a level-0 Gauss–Seidel sweep over `n`
/// columns as a skewed wavefront: at step `t`, band row `q` makes its
/// visit number `t − q` (from 1), one column behind the row before it, so
/// the rows' dependency chains overlap. Within a step the rows go from
/// last to first. `visit(q, s)` updates row `q` at its visit `s ∈ 1..=n`;
/// the caller maps `s` to a column in its sweep direction.
///
/// The row before a row is a column ahead of it, so its neighbour there
/// is already updated; the row after it is a column behind, so its
/// neighbour there is not yet: every node reads exactly the values a
/// row-by-row sweep would give it.
#[inline(always)]
fn wavefront<const R: usize>(n: usize, mut visit: impl FnMut(usize, usize)) {
    let skew = R - 1;
    for t in 1..=n + skew {
        if t > skew && t <= n {
            for q in (0..R).rev() {
                visit(q, t - q);
            }
        } else {
            for q in (0..R).rev() {
                let s = t.wrapping_sub(q);
                if (1..=n).contains(&s) {
                    visit(q, s);
                }
            }
        }
    }
}

/// `coarse = Pᵀ·t` onto the padded `⌈fnx/2⌉ × ⌈fny/2⌉` level below a
/// fine level of `fnx × fny` nodes, one axis at a time through `row`
/// (scratch of at least `fnx + 2`). Off-grid fine entries of `t` are never
/// read with a non-zero weight, so `t` may hold stale values there.
fn restrict(fnx: usize, fny: usize, t: &[f64], coarse: &mut [f64], row: &mut [f64]) {
    let (nx, ny) = (fnx.div_ceil(2), fny.div_ceil(2));
    let (fw, w) = (fnx + 2, nx + 2);
    let row = &mut row[..fw];
    for cj in 0..ny {
        let [w0, w1, w2] = gather_weights(cj, fny);
        // Padded fine rows 2cj − 1, 2cj and 2cj + 1.
        let [r0, r1, r2] = [0, 1, 2].map(|q| &t[(2 * cj + q) * fw..(2 * cj + q + 1) * fw]);
        for (f, out) in row.iter_mut().enumerate() {
            *out = w0 * r0[f] + w1 * r1[f] + w2 * r2[f];
        }
        // Only the first and last coarse nodes miss a fine neighbour.
        let out = &mut coarse[(cj + 1) * w + 1..][..nx];
        for (c, (o, f)) in out.iter_mut().zip(row.windows(3).step_by(2)).enumerate() {
            let [v0, v1, v2] = if c == 0 || c + 1 == nx {
                gather_weights(c, fnx)
            } else {
                [0.5, 1.0, 0.5]
            };
            *o = v0 * f[0] + v1 * f[1] + v2 * f[2];
        }
    }
}

/// `fine += mask ⊙ (P·coarse)` onto a fine level of `fnx × fny` nodes, one
/// axis at a time through `row` (scratch of at least `⌈fnx/2⌉ + 2`).
/// `mask` gives the weight of the fine node at a padded index.
fn prolongate(
    coarse: &[f64],
    fnx: usize,
    fny: usize,
    fine: &mut [f64],
    mask: impl Fn(usize) -> f64,
    row: &mut [f64],
) {
    let (fw, w) = (fnx + 2, fnx.div_ceil(2) + 2);
    let row = &mut row[..w];
    // Fine columns 2c and 2c + 1 below `pairs` lie on and between coarse
    // columns c and c + 1; the one or two after them copy coarse column
    // `pairs` (see `parents`). The weights 1 and 0 stay multiplies, as in
    // `parents`: `0.0 * r` can turn a `-0.0` sum into `+0.0`, so dropping
    // it would move bits.
    let pairs = (fnx - 1) / 2;
    for j in 0..fny {
        let (lo, w_lo, w_hi) = parents(j, fny);
        let below = &coarse[(lo + 1) * w..(lo + 2) * w];
        let above = &coarse[(lo + 2) * w..(lo + 3) * w];
        for ((out, b), a) in row.iter_mut().zip(below).zip(above) {
            *out = w_lo * b + w_hi * a;
        }
        let base = (j + 1) * fw + 1;
        let (head, tail) = fine[base..base + fnx].split_at_mut(2 * pairs);
        for (c, (f, r)) in head
            .chunks_exact_mut(2)
            .zip(row[1..].windows(2))
            .enumerate()
        {
            f[0] += mask(base + 2 * c) * (1.0 * r[0] + 0.0 * r[1]);
            f[1] += mask(base + 2 * c + 1) * (0.5 * r[0] + 0.5 * r[1]);
        }
        let (r0, r1) = (row[pairs + 1], row[pairs + 2]);
        for (i, f) in tail.iter_mut().enumerate() {
            *f += mask(base + 2 * pairs + i) * (1.0 * r0 + 0.0 * r1);
        }
    }
}

/// Dense Cholesky factor of the coarsest level, with dead rows as identity
/// rows.
///
/// A Galerkin operator can be only semidefinite when the dead nodes make
/// two `P` columns equal on the live nodes. Its right-hand side is then
/// still consistent (it lies in the range of `Pᵀ`), so a pivot that
/// vanishes marks a dependent unknown, which is set to 0.
struct Dense {
    nx: usize,
    ny: usize,
    /// Lower-triangular factor, row-major `m × m` with `m = nx·ny`.
    l: Vec<f64>,
    /// Scratch for the two triangular solves.
    y: Vec<f64>,
}

impl Dense {
    fn factor(level: &Coarse) -> Self {
        let (nx, ny) = (level.nx, level.ny);
        let m = nx * ny;
        let mut l = vec![0.0; m * m];
        for j in 0..ny {
            for i in 0..nx {
                let p = j * nx + i;
                let k = (j + 1) * level.width() + i + 1;
                if level.inv_diag[k] == 0.0 {
                    l[p * m + p] = 1.0;
                    continue;
                }
                for (s, &v) in level.a[k].iter().enumerate() {
                    if v != 0.0 {
                        let q = (j + s / 3 - 1) * nx + (i + s % 3 - 1);
                        l[p * m + q] = v;
                    }
                }
            }
        }
        for c in 0..m {
            let diag = l[c * m + c];
            let pivot = diag - (0..c).map(|k| l[c * m + k] * l[c * m + k]).sum::<f64>();
            if pivot <= 1e-12 * diag {
                for r in c..m {
                    l[r * m + c] = 0.0;
                }
                continue;
            }
            let root = pivot.sqrt();
            l[c * m + c] = root;
            for r in c + 1..m {
                let dotp: f64 = (0..c).map(|k| l[r * m + k] * l[c * m + k]).sum();
                l[r * m + c] = (l[r * m + c] - dotp) / root;
            }
        }
        // Clear the upper triangle the matrix occupied.
        for r in 0..m {
            for c in r + 1..m {
                l[r * m + c] = 0.0;
            }
        }
        Self {
            nx,
            ny,
            l,
            y: vec![0.0; m],
        }
    }

    /// Solves the level exactly: `level.x = A⁻¹·level.b`.
    fn solve(&mut self, level: &mut Coarse) {
        let (nx, m) = (self.nx, self.nx * self.ny);
        let w = nx + 2;
        let at = |p: usize| (p / nx + 1) * w + p % nx + 1;
        let (l, y) = (&self.l, &mut self.y);
        for (p, y) in y.iter_mut().enumerate() {
            *y = level.b[at(p)];
        }
        for r in 0..m {
            let lrr = l[r * m + r];
            let sum: f64 = (0..r).map(|k| l[r * m + k] * y[k]).sum();
            y[r] = if lrr == 0.0 { 0.0 } else { (y[r] - sum) / lrr };
        }
        for r in (0..m).rev() {
            let lrr = l[r * m + r];
            let sum: f64 = (r + 1..m).map(|k| l[k * m + r] * y[k]).sum();
            y[r] = if lrr == 0.0 { 0.0 } else { (y[r] - sum) / lrr };
        }
        for (p, &v) in y.iter().enumerate() {
            level.x[at(p)] = v;
        }
    }
}

/// The level hierarchy of one solve and the V-cycle over it.
struct Multigrid {
    fine: Fine,
    /// Levels 1, 2, …; the last one is at most [`COARSEST`] per axis.
    coarse: Vec<Coarse>,
    /// Factor of the last coarse level.
    dense: Dense,
    /// Residual scratch shared by every level (level 0's size).
    t: Vec<f64>,
    /// One-row scratch for the transfer operators.
    row: Vec<f64>,
}

impl Multigrid {
    fn new(fine: Fine) -> Self {
        let mut coarse = vec![Coarse::galerkin(fine.nx, fine.ny, |j, out| {
            fine.stencil_row(j, out);
        })];
        loop {
            let last = coarse.last().expect("one coarse level");
            if last.nx <= COARSEST && last.ny <= COARSEST {
                break;
            }
            let next = Coarse::galerkin(last.nx, last.ny, |j, out| last.stencil_row(j, out));
            coarse.push(next);
        }
        let dense = Dense::factor(coarse.last().expect("one coarse level"));
        let t = vec![0.0; fine.len()];
        let row = vec![0.0; fine.width()];
        Self {
            fine,
            coarse,
            dense,
            t,
            row,
        }
    }

    /// `z = M⁻¹·r` for the V(1,1) cycle `M⁻¹`.
    fn precondition(&mut self, r: &[f64], z: &mut [f64]) {
        let (fine, t, row) = (&self.fine, &mut self.t, &mut self.row);
        fine.forward_from_zero(r, z);
        fine.upper_residual(z, t);
        restrict(fine.nx, fine.ny, t, &mut self.coarse[0].b, row);
        let last = self.coarse.len() - 1;
        for k in 0..last {
            let (upper, lower) = self.coarse.split_at_mut(k + 1);
            let (level, next) = (&mut upper[k], &mut lower[0]);
            level.forward_from_zero();
            level.upper_residual(t);
            restrict(level.nx, level.ny, t, &mut next.b, row);
        }
        self.dense.solve(&mut self.coarse[last]);
        for k in (0..last).rev() {
            let (upper, lower) = self.coarse.split_at_mut(k + 1);
            let (level, next) = (&mut upper[k], &lower[0]);
            prolongate(&next.x, level.nx, level.ny, &mut level.x, |_| 1.0, row);
            level.backward();
        }
        let first = &self.coarse[0].x;
        prolongate(first, fine.nx, fine.ny, z, |k| fine.mask[k], row);
        fine.backward(r, z);
    }
}

#[cfg(test)]
mod tests {
    use copack_obs::TraceBuffer;

    use super::*;
    use crate::{solve_dense_nodes, PadArray, PadPlan};

    fn assert_close(a: &IrMap, b: &IrMap, tol: f64) {
        for (x, y) in a.voltages().iter().zip(b.voltages()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn all_nodes_at_or_below_vdd() {
        let spec = GridSpec::default_chip(16);
        let map = solve_mg(&spec, &PadRing::uniform(8)).unwrap();
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
        let map = solve_mg(&spec, &ring).unwrap();
        for (i, j) in ring.clamp_nodes(&spec) {
            assert_eq!(map.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn more_pads_reduce_the_drop() {
        let spec = GridSpec::default_chip(16);
        let few = solve_mg(&spec, &PadRing::uniform(2)).unwrap();
        let many = solve_mg(&spec, &PadRing::uniform(16)).unwrap();
        assert!(many.max_drop() < few.max_drop());
    }

    #[test]
    fn uniform_pads_beat_clustered_pads() {
        // The paper's Fig. 6(A) vs (B): random/clustered pads are much
        // worse than regularly spread pads.
        let spec = GridSpec::default_chip(16);
        let uniform = solve_mg(&spec, &PadRing::uniform(6)).unwrap();
        let clustered = solve_mg(
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
        let map = solve_mg(&spec, &ring).unwrap();
        let n = spec.nx - 1;
        for i in 0..spec.nx {
            for j in 0..spec.ny {
                let a = map.voltage(i, j);
                let b = map.voltage(n - i, n - j); // 180° rotation
                assert!((a - b).abs() < 1e-9, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn worst_node_is_far_from_pads() {
        // One pad at the bottom-left corner: the worst drop must be in the
        // opposite half of the die.
        let spec = GridSpec::default_chip(12);
        let map = solve_mg(&spec, &PadRing::from_ts([0.0]).unwrap()).unwrap();
        let (i, j) = map.worst_node();
        assert!(i + j > spec.nx / 2, "worst node ({i},{j}) too close to pad");
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
        let a = solve_mg(&spec, &ring).unwrap();
        let b = solve_mg(&double, &ring).unwrap();
        assert!((b.max_drop() / a.max_drop() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matches_dense_on_rings_and_arrays() {
        let spec = GridSpec {
            nx: 13,
            ny: 9,
            r_sheet_y: 0.4,
            ..GridSpec::default_chip(13)
        };
        for plan in [
            PadPlan::WireBond(PadRing::uniform(3)),
            PadPlan::WireBond(PadRing::from_ts([0.0, 0.03, 0.7]).unwrap()),
            PadPlan::FlipChip(PadArray::new(3, 2).unwrap()),
            PadPlan::Explicit(vec![(6, 4)]),
        ] {
            let clamp = plan.clamp_nodes(&spec).unwrap();
            let mg = solve_mg_nodes(&spec, &clamp).unwrap();
            let dense = solve_dense_nodes(&spec, &clamp).unwrap();
            assert_close(&mg, &dense, 1e-12);
        }
    }

    /// `nx × ny` with every node of `rows` clamped plus `extra` nodes.
    fn strip(nx: usize, ny: usize, rows: &[usize], extra: &[(usize, usize)]) {
        let spec = GridSpec {
            nx,
            ny,
            ..GridSpec::default_chip(nx)
        };
        let mut clamp: Vec<(usize, usize)> = rows
            .iter()
            .flat_map(|&j| (0..nx).map(move |i| (i, j)))
            .collect();
        clamp.extend_from_slice(extra);
        let mg = solve_mg_nodes(&spec, &clamp).unwrap_or_else(|e| panic!("{nx}x{ny}: {e}"));
        let dense = solve_dense_nodes(&spec, &clamp).unwrap();
        assert_close(&mg, &dense, 1e-12);
    }

    #[test]
    fn degenerate_shapes_and_clamp_sets_converge() {
        // Strips, 1-node-wide coarse axes, and clamp sets that leave
        // single free nodes.
        strip(2, 2, &[], &[(0, 0)]);
        strip(2, 2, &[], &[(0, 0), (1, 0), (0, 1)]);
        strip(2, 9, &[], &[(0, 0), (1, 1), (0, 2), (1, 4), (0, 5)]);
        strip(9, 2, &[], &[(8, 1)]);
        strip(3, 3, &[], &[(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)]);
    }

    #[test]
    fn equal_coarse_columns_are_solved_exactly() {
        // Only fine row 1 is free among coarse rows 0 and 1's supports,
        // so their P columns are equal on the live nodes: the coarsest
        // (1×3) operator is singular and its Cholesky meets a zero pivot.
        strip(2, 5, &[0, 2, 3], &[]);
        // The same on a middle level: coarse rows 1 and 2 share only the
        // free fine row 3.
        strip(2, 7, &[0, 1, 2, 4, 5], &[]);
    }

    #[test]
    fn extreme_anisotropy_still_converges() {
        // 10⁴× between the two sheets needs about 460 iterations.
        for (r_sheet_x, r_sheet_y) in [(0.0004, 4.0), (4.0, 0.0004)] {
            let spec = GridSpec {
                r_sheet_x,
                r_sheet_y,
                ..GridSpec::default_chip(31)
            };
            let clamp = PadRing::uniform(12).clamp_nodes(&spec);
            let mg = solve_mg_nodes(&spec, &clamp).unwrap();
            let dense = solve_dense_nodes(&spec, &clamp).unwrap();
            assert_close(&mg, &dense, 1e-9);
        }
    }

    #[test]
    fn coarse_operators_are_symmetric() {
        let spec = GridSpec {
            nx: 21,
            ny: 14,
            r_sheet_x: 0.07,
            ..GridSpec::default_chip(21)
        };
        let clamp = PadRing::from_ts([0.05, 0.3, 0.31, 0.8])
            .unwrap()
            .clamp_nodes(&spec);
        let mg = Multigrid::new(Fine::new(&spec, &spec.clamp_mask(&clamp).unwrap()));
        assert_eq!(mg.coarse.len(), 3, "21x14 -> 11x7 -> 6x4 -> 3x2");
        for level in &mg.coarse {
            let w = level.width() as isize;
            for j in 0..level.ny {
                let start = (j + 1) * level.width() + 1;
                for k in start..start + level.nx {
                    for s in 0..9 {
                        let q = k as isize + (s as isize / 3 - 1) * w + (s as isize % 3 - 1);
                        let back = level.a[q as usize][8 - s];
                        let there = level.a[k][s];
                        assert!((there - back).abs() <= 1e-12 * there.abs().max(1.0));
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_current_map_is_vdd_everywhere() {
        let spec = GridSpec {
            hotspots: vec![crate::Hotspot {
                cx: 0.5,
                cy: 0.5,
                radius: 1.0,
                multiplier: 0.0,
            }],
            ..GridSpec::default_chip(9)
        };
        let mut trace = TraceBuffer::new();
        let map = solve_mg_traced(&spec, &PadRing::uniform(3), &mut trace).unwrap();
        assert!(map.voltages().iter().all(|&v| v == spec.vdd));
        assert_eq!(
            trace.events(),
            &[Event::SolverDone {
                solver: Solver::Mg,
                sweeps: 0,
                residual: 0.0,
                converged: true,
            }]
        );
    }

    #[test]
    fn a_stalled_solve_reports_its_last_residual() {
        let spec = GridSpec::default_chip(16);
        let clamp = PadRing::uniform(4).clamp_nodes(&spec);
        let mut trace = TraceBuffer::new();
        let err = solve_capped(&spec, &clamp, &mut trace, 3).unwrap_err();
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
        assert!(last > TOL, "3 iterations must not converge");
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
                solver: Solver::Mg,
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
        assert!(solve_mg(&bad, &PadRing::uniform(2)).is_err());
    }

    #[test]
    fn an_empty_clamp_list_is_no_pads() {
        let spec = GridSpec::default_chip(8);
        assert_eq!(solve_mg_nodes(&spec, &[]), Err(PowerError::NoPads));
    }

    #[test]
    fn an_off_grid_clamp_node_is_a_bad_spec() {
        let spec = GridSpec::default_chip(8);
        for node in [(8, 0), (0, 8)] {
            assert_eq!(
                solve_mg_nodes(&spec, &[(0, 0), node]),
                Err(PowerError::BadSpec {
                    parameter: "pad node"
                })
            );
        }
    }
}
