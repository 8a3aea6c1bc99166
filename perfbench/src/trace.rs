//! The traced run's instruments, all outside the program: spans timed
//! around calls into the public layer functions, and a counting
//! [`Recorder`] passed into the public `*_traced` entry points.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use copack_obs::{Event, Recorder};

/// One timed call: the layer it belongs to, the job (request) it served,
/// and its start and end in nanoseconds since the process began timing.
/// The span that caused it is its job's `"job"` span.
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans kept in memory until the run ends. Every thread's spans share
/// one clock, so they can be merged.
#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&self) -> u64 {
        now_ns()
    }

    /// Closes the span opened at `start_ns`; returns its length in ms.
    pub fn end(&mut self, name: &'static str, job: u32, start_ns: u64) -> f64 {
        let end_ns = now_ns();
        self.0.push(Span {
            name,
            job,
            start_ns,
            end_ns,
        });
        (end_ns - start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn time<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.begin();
        let out = f();
        self.end(name, job, start_ns);
        out
    }

    /// Adds `other`'s spans, their job ids shifted by `first_job`.
    pub fn append(&mut self, other: Spans, first_job: u32) {
        self.0.extend(other.0.into_iter().map(|s| Span {
            job: s.job + first_job,
            ..s
        }));
    }

    /// Total milliseconds per span name.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.0 {
            *totals.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        totals
    }

    /// Layer time over job wall time: the sum of every non-`"job"` span
    /// divided by the sum of the `"job"` spans. Layer spans never nest,
    /// so 1.0 means the layer spans cover every job completely.
    pub fn coverage(&self) -> f64 {
        let totals = self.totals_ms();
        let layers: f64 = totals
            .iter()
            .filter(|(name, _)| **name != "job")
            .map(|(_, ms)| ms)
            .sum();
        crate::stats::ratio(layers, totals.get("job").copied().unwrap_or(0.0))
    }

    /// Writes every span as a tab-separated line: name, job, start and
    /// end in nanoseconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("name\tjob\tstart_ns\tend_ns\n");
        for s in &self.0 {
            let _ = writeln!(out, "{}\t{}\t{}\t{}", s.name, s.job, s.start_ns, s.end_ns);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Work counts gathered from the events the `*_traced` entry points emit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub solves: u64,
    pub sweeps: u64,
    pub proposed: u64,
    pub accepted: u64,
    pub range_rejected: u64,
}

impl Recorder for Counts {
    fn record(&mut self, event: &Event) {
        match event {
            Event::SolverDone { sweeps, .. } => {
                self.solves += 1;
                self.sweeps += u64::from(*sweeps);
            }
            Event::TempStep {
                proposed,
                accepted,
                constraint_rejected,
                ..
            } => {
                self.proposed += proposed;
                self.accepted += accepted;
                self.range_rejected += constraint_rejected;
            }
            _ => {}
        }
    }
}
