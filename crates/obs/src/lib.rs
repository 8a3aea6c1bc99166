//! `copack-obs` — zero-cost-when-disabled telemetry for the copack
//! annealing and solver hot paths.
//!
//! The design is a single dyn-dispatch seam: instrumented functions take
//! a `&mut dyn `[`Recorder`] and call [`Recorder::record`] at event
//! sites. Hot loops cache [`Recorder::enabled`] (and, for per-proposal
//! events, [`Recorder::wants_rejected`]) in local `bool`s once at
//! startup, so with the default [`NoopRecorder`] every event site
//! reduces to a never-taken branch — no allocation, no formatting, and
//! bit-identical numeric results (asserted by golden tests).
//!
//! Pieces:
//! * [`Event`] — the flat event vocabulary (SA moves, temperature steps,
//!   solver sweeps, density evaluations, package-side markers), each
//!   hand-serialisable to one JSON line (this crate has no deps).
//! * [`NoopRecorder`] — the free default.
//! * [`TraceBuffer`] — in-memory capture; one per worker thread. The
//!   parallel callers (package sides, portfolio starts) merge by
//!   recording each buffer's events into the caller's recorder in
//!   structural order (side, then start index), never in
//!   thread-completion order.
//! * [`JsonlSink`] — streaming JSONL file sink that goes inert on the
//!   first I/O error instead of killing the run.
//! * [`TraceSummary`] and the replay helpers — post-hoc analysis used by
//!   `--metrics`, `bench_exchange`, and the trace-invariant tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod event;
mod jsonl;
mod recorder;
mod signals;
mod summary;

pub use buffer::TraceBuffer;
pub use event::{Event, Solver};
pub use jsonl::{JsonlSink, ObsError};
pub use recorder::{NoopRecorder, Recorder};
pub use signals::{early_signals, EarlySignals};
pub use summary::{
    acceptance_curve, accepted_signature, portfolio_cost_curves, replay_final_cost, residual_curve,
    split_runs, AcceptedMove, PortfolioCurve, TraceSummary,
};
