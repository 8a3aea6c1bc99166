//! Congestion-driven finger/pad assignment and IR-drop-aware exchange:
//! the primary contribution of *"Package routability- and IR-drop-aware
//! finger/pad assignment in chip-package co-design"* (Lu, Chen, Liu, Shih;
//! DATE 2009, extended in INTEGRATION 2012).
//!
//! The paper plans the net order on a BGA quadrant's finger row in two
//! steps:
//!
//! 1. **Congestion-driven assignment** — produce a monotonic-legal net
//!    order with low package wire density:
//!    * [`random_assignment`] — the baseline: a uniformly random order that
//!      merely respects the monotonic rule;
//!    * [`ifa`] — Intuitive-insertion-based Finger/pad Assignment (Fig. 9),
//!      `O(n²)`;
//!    * [`dfa`] — Density-interval-based Finger/pad Assignment (Fig. 11),
//!      `O(n)`, the stronger method for deep ball grids.
//! 2. **Finger/pad exchange** ([`exchange`], Fig. 14) — simulated annealing
//!    over adjacent swaps under the monotonicity-preserving range
//!    constraint, minimising the paper's Eq. 3:
//!    `Cost = λ·Δ_IR + ρ·ID + φ·ω`, where
//!    * `Δ_IR` is the fast power-pad spacing proxy
//!      ([`copack_power::PadSpacingProxy`]), scored on finger slots by its
//!      exact integer form ([`copack_power::slot_delta_ir`]),
//!    * `ID` is the increased-density penalty over the top-line sections
//!      (Eq. 2, [`increased_density`]),
//!    * `ω` is the stacking bonding-wire balance metric ([`omega`]).
//!
//! [`Codesign`] wires both steps together with the full IR-drop solve of
//! [`copack_power`] for reporting, reproducing the paper's experimental
//! flow end to end.
//!
//! # Example
//!
//! ```
//! use copack_core::{dfa, ifa, random_assignment};
//! use copack_geom::Quadrant;
//! use copack_route::{analyze, DensityModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = Quadrant::builder()
//!     .row([10u32, 2, 4, 7, 0])
//!     .row([1u32, 3, 5, 8])
//!     .row([11u32, 6, 9])
//!     .build()?;
//!
//! // The paper's worked examples, reproduced exactly:
//! let i = ifa(&q)?;
//! assert_eq!(i.to_string(), "10,1,11,2,3,6,4,5,9,7,8,0"); // §3.1.1
//! let d = dfa(&q, 1)?;
//! assert_eq!(d.to_string(), "10,11,1,2,6,3,4,9,5,7,8,0"); // Fig. 12
//!
//! // Any method's output is monotonic-legal, hence routable:
//! let r = random_assignment(&q, 42)?;
//! assert!(analyze(&q, &r, DensityModel::Geometric).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod bondwire;
mod cancel;
mod config;
mod delta;
mod dfa;
mod draw;
mod error;
mod exchange;
mod ifa;
mod margin;
mod omega;
mod package_plan;
mod pipeline;
mod portfolio;
mod random;
mod sections;
mod tracker;
mod warm;

pub use anneal::{Acceptance, Schedule};
pub use bondwire::{bondwire_lengths, total_bondwire};
pub use cancel::CancelToken;
pub use config::{AssignMethod, CostWeights, ExchangeConfig};
pub use delta::{apply_delta, cancelling_delta, diff_quadrant, Edit, InstanceDelta, QuadrantDelta};
pub use dfa::dfa;
pub use error::CoreError;
pub use exchange::{
    exchange, exchange_cancellable, exchange_reference, exchange_reference_traced, exchange_traced,
    ExchangeResult, ExchangeStats,
};
pub use ifa::ifa;
pub use margin::{margin_penalty, MarginTracker};
pub use omega::{omega, omega_of_assignment};
pub use package_plan::{
    evaluate_package_ir, evaluate_package_ir_traced, plan_package, plan_package_traced,
    PackageReport,
};
pub use pipeline::{
    assign, evaluate_ir, evaluate_ir_map, evaluate_ir_map_traced, evaluate_supply_noise, Codesign,
    CodesignReport, SupplyNoise,
};
pub use portfolio::{
    derive_seed, exchange_portfolio, exchange_portfolio_cancellable, exchange_portfolio_traced,
    replay_journal, PortfolioConfig, PortfolioMode, PortfolioResult, StartReport,
};
pub use random::random_assignment;
pub use sections::{increased_density, SectionBaseline};
pub use tracker::{DeltaIrTracker, OmegaTracker, SectionTracker};
pub use warm::{exchange_warm, repair_assignment, warm_schedule};
