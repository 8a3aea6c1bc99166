//! Invariant oracles and a deterministic differential fuzz driver.
//!
//! Every guarantee the paper states is an *invariant*: monotonic routes
//! stay monotonic under the exchange-range constraint, the incremental
//! Eq. 2/Eq. 3 bookkeeping must agree with the from-scratch definitions,
//! the IR proxy must track the real solvers, and the whole pipeline must
//! be deterministic. This crate makes those invariants first-class:
//!
//! * [`check_quadrant`] runs the seven oracles on one problem instance and
//!   returns a verdict per oracle (`copack check` renders the table);
//! * [`run_fuzz`] drives the oracles over an endless seeded stream of
//!   generated instances ([`copack_gen::fuzz_case`]) and, on a failure,
//!   **shrinks** the instance (drop nets, halve rows, re-seed) to a
//!   minimal reproducer it can write to a corpus directory.
//!
//! The oracles, in the order they run:
//!
//! | oracle | invariant |
//! |---|---|
//! | `monotonicity`  | every accepted exchange move preserves the monotonic via rule, and replaying the best prefix of the move journal reproduces the returned order bit for bit |
//! | `density`       | the O(1) kernel equals `exchange_reference`, and the incremental `SectionTracker`/`DeltaIrTracker`/`RangeCache` state replayed over the journal equals the from-scratch definitions on the final order |
//! | `ir-cross-check`| the production multigrid-preconditioned CG, plain CG, and a small dense direct solve agree within 1e-9 V on the same pad assignment |
//! | `determinism`   | same seed ⇒ byte-identical reports for every thread count, and re-running the pipeline reproduces itself |
//! | `cost-ledger`   | each journal Δcost equals the cost difference bit-exactly, and the final cost is the running minimum bit-exactly |
//! | `replan_vs_scratch` | the warm-started replan of a churned instance validates clean and lands within [`REPLAN_TOLERANCE`] of the from-scratch cost |
//! | `tune-determinism` | the auto-tuner emits a byte-identical `.tune` profile for every worker-thread count and reproduces itself on a rerun |
//!
//! Everything here is deterministic: a failing case is fully described by
//! the driver seed and case index, which the shrunk reproducer's sidecar
//! file records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod corpus;
mod fuzz;
mod oracles;
mod replan;
mod report;
pub mod selftest;
mod shrink;

pub use config::VerifyConfig;
pub use corpus::{read_sidecar, write_reproducer, Sidecar};
pub use fuzz::{run_fuzz, run_fuzz_with, FuzzConfig, FuzzFailure, FuzzOutcome};
pub use oracles::{
    check_cost_ledger, check_density_conservation, check_determinism, check_ir_cross,
    check_monotonicity_preserved, check_quadrant, check_tune_determinism, ORACLE_NAMES,
};
pub use replan::{
    check_replan_vs_scratch, check_replan_with_delta, shrink_replan_delta, REPLAN_TOLERANCE,
};
pub use report::{verdict_table, OracleReport};
pub use shrink::{keep_bottom_rows, without_net};
