//! A resident batch-planning service for the finger/pad planner.
//!
//! The paper's flow (Lu, Chen, Liu, Shih; DATE 2009) is a batch
//! optimisation: every circuit in Table 1 is planned independently,
//! and design-space sweeps re-plan the *same* instance under many
//! configurations. This crate turns the one-shot `copack plan` pipeline
//! into a daemon built for that workload:
//!
//! * **Protocol** ([`Request`], [`Response`]) — newline-delimited JSON frames over a
//!   local TCP socket; every failure is a typed [`ServeError`], never a
//!   dropped connection. Batches stream per-item frames in completion
//!   order, closed by a summary frame.
//! * **Reactor** — one readiness-polled event loop owns every socket,
//!   so the daemon is `workers + 1` threads no matter how many clients
//!   connect (pre-v2 each connection parked a thread).
//! * **Bounded pool** ([`Server`]) — a fixed worker-thread pool behind
//!   two bounded class queues ([`JobClass::Interactive`] /
//!   [`JobClass::Bulk`]) with weighted dequeue, explicit backpressure
//!   (`queue_full`), and per-job wall-clock timeouts enforced by the
//!   cooperative [`copack_core::CancelToken`] threaded into the anneal
//!   loop.
//! * **Tiered result cache** ([`ResultCache`]) — results are keyed by a
//!   canonical hash of `(instance, config)` ([`cache_key`]): a bounded
//!   LRU memory tier answers repeats instantly, *concurrent* duplicates
//!   coalesce onto a single computation, and an optional persistent
//!   disk tier (checksummed, atomically written) survives restarts —
//!   even a `SIGKILL` mid-write.
//!
//! Determinism is preserved across the service boundary: a plan served
//! by the daemon is byte-identical to `copack plan` run locally on the
//! same inputs, because both sides share one executor ([`execute_job`])
//! and the annealer's RNG stream is untouched by cancellation polling.
//!
//! ```no_run
//! use copack_serve::{Client, JobSpec, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let plan = client.plan(&JobSpec::new("quadrant a\nrow 2 1 3\n"))?;
//! assert_eq!(plan.cache, "miss");
//! client.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod error;
mod job;
mod json;
mod metrics;
mod protocol;
mod reactor;
mod server;
mod store;

pub use cache::{CacheConfig, CacheStats, Lookup, ResultCache, Waiter};
pub use client::{BatchOutcome, Client};
pub use error::{ErrorKind, ServeError};
pub use job::{
    cache_key, cache_key_with, execute_job, execute_job_full, ExecReport, JobClass, JobOutput,
    JobSpec, JournalRecord,
};
pub use metrics::{pool_metrics_text, PoolMetrics};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, BatchSummary, Frame,
    LineReader, PlanResponse, Request, Response, StatusSnapshot, MAX_BATCH, MAX_FRAME,
};
pub use server::{ServeConfig, ServeSummary, Server};
