//! Compact finite-difference IR-drop model and power-grid solvers.
//!
//! This crate re-implements the IR-drop substrate the paper relies on: the
//! compact physical model of Shakeri–Meindl (*"Compact physical IR-drop
//! models for chip/package co-design of gigascale integration"*, IEEE TED
//! 2005, the paper's reference \[17\]). The chip's power distribution grid is
//! discretised on a uniform mesh; every node draws the same current
//! (`J₀·Δx·Δy`, the paper's Eq. 1) and power pads on the die boundary act as
//! ideal voltage sources. Solving the resulting linear system yields the
//! IR-drop map; the maximum drop (`Vdd − min V`) is the paper's headline
//! metric ("maximum value of IR-drop").
//!
//! Three solvers are provided and cross-validated against each other:
//!
//! * [`solve_mg`] — conjugate gradient preconditioned by one multigrid
//!   V-cycle, the production solver behind every reported IR value; about
//!   13 iterations on the flow's 48×48 grid, in O(n) memory;
//! * [`solve_cg`] — matrix-free conjugate gradient on the free nodes,
//!   without a preconditioner;
//! * [`solve_dense`] — small dense LU ground truth for the verification
//!   oracles (`copack-verify`).
//!
//! The two references exist only to check the production solver: the
//! `ir-cross-check` oracle holds all three to 1e-9 V of each other.
//!
//! Because a full solve per simulated-annealing move would dominate the
//! exchange step's runtime, the paper optimises a *proxy* instead: it
//! "compute\[s\] the variation of Δx and Δy" — i.e. how evenly the power pads
//! are spread along the boundary. [`PadSpacingProxy`] implements that
//! surrogate; `copack-core` uses it inside the annealer and this crate's
//! full solver for the reported before/after numbers, exactly like the
//! paper.
//!
//! # Example
//!
//! ```
//! use copack_power::{GridSpec, PadRing, solve_mg};
//!
//! # fn main() -> Result<(), copack_power::PowerError> {
//! let spec = GridSpec::default_chip(24);
//! // Four pads spread uniformly around the die vs. four clustered pads.
//! let uniform = PadRing::uniform(4);
//! let clustered = PadRing::from_ts([0.0, 0.01, 0.02, 0.03])?;
//! let good = solve_mg(&spec, &uniform)?;
//! let bad = solve_mg(&spec, &clustered)?;
//! assert!(good.max_drop() < bad.max_drop());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cg;
mod dense;
mod error;
mod grid;
mod irmap;
mod mg;
mod pads;
mod placement;
mod proxy;

pub use analysis::{improvement_percent, solve_plan};
pub use cg::{solve_cg, solve_cg_nodes, solve_cg_nodes_traced, solve_cg_traced};
pub use dense::{solve_dense, solve_dense_nodes, MAX_DENSE_NODES};
pub use error::PowerError;
pub use grid::{GridSpec, Hotspot};
pub use irmap::IrMap;
pub use mg::{solve_mg, solve_mg_nodes, solve_mg_nodes_traced, solve_mg_traced};
pub use pads::PadRing;
pub use placement::{PadArray, PadPlan};
pub use proxy::{slot_delta_ir, slot_gap_squares, PadSpacingProxy, SlotRing};
