//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see the experiment index in `DESIGN.md`); this small library holds the
//! text-table and timing plumbing they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reports;

pub use reports::{fig5_report, margin_report, table2_report, table3_report};

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// A plain-text table printer that mimics the paper's layout: a header row,
/// aligned columns, and whatever summary rows the caller appends.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let print_row = |row: &[String], out: &mut String| {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            let _ = writeln!(out);
        };
        print_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            print_row(row, &mut out);
        }
        out
    }
}

/// Maps `f` over `items` on up to `threads` OS threads (`0` = the
/// machine's available parallelism), returning results in input order.
///
/// The harness binaries use this to process the five Table 1 circuits
/// concurrently: each item's work is independent, so the output — and any
/// aggregate computed from it — is identical for every thread count.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(items.len())
    .max(1);
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    if workers == 1 {
        for (slot, item) in results.iter_mut().zip(items) {
            *slot = Some(f(item));
        }
    } else {
        // Contiguous chunks keep each worker's output slots disjoint.
        let chunk = items.len().div_ceil(workers);
        let f = &f;
        std::thread::scope(|scope| {
            for (work, out) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (item, slot) in work.iter().zip(out.iter_mut()) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// The spread of one configuration's timed runs, as every `BENCH_*.json`
/// row records it: the repetition count, the minimum, the upper median
/// and the nearest-rank p90, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Timed runs.
    pub reps: usize,
    /// Fastest run.
    pub min: f64,
    /// Upper median run.
    pub median: f64,
    /// Nearest-rank 90th-percentile run.
    pub p90: f64,
}

impl Spread {
    /// Summarises per-run wall seconds.
    ///
    /// # Panics
    ///
    /// On an empty set of runs.
    #[must_use]
    pub fn of(mut seconds: Vec<f64>) -> Self {
        assert!(!seconds.is_empty(), "a spread needs at least one run");
        seconds.sort_by(f64::total_cmp);
        let n = seconds.len();
        Self {
            reps: n,
            min: seconds[0],
            median: seconds[n / 2],
            p90: seconds[(n * 9).div_ceil(10) - 1],
        }
    }

    /// The spread's JSON fields, without braces:
    /// `"reps": …, "min_s": …, "median_s": …, "p90_s": …`.
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"reps\": {}, \"min_s\": {:.6}, \"median_s\": {:.6}, \"p90_s\": {:.6}",
            self.reps, self.min, self.median, self.p90
        )
    }
}

/// Wall seconds of one call, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// Runs `f` once untimed, then `reps` timed runs: their spread, and the
/// last run's result.
///
/// # Panics
///
/// If `reps` is 0.
pub fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Spread, T) {
    let mut result = f();
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (s, r) = timed(&mut f);
        seconds.push(s);
        result = r;
    }
    (Spread::of(seconds), result)
}

/// Wall seconds of one run of the host reference: a fixed workload that
/// calls no copack code, so its time moves only with the host's speed.
///
/// A shared host can run the same binary up to 2× faster or slower from
/// one run to the next. A bench that times this beside its rows, in the
/// same rounds, can record each row as a ratio to it, and two commits'
/// files then compare ratio to ratio. The workload has the two shapes the
/// timed code has: relaxation sweeps over a 48×48 grid (the IR solve's)
/// and dependent updates of a small integer table (the exchange's), about
/// a millisecond or two in all.
#[must_use]
pub fn host_reference_seconds() -> f64 {
    timed(|| black_box(host_reference())).0
}

/// The host reference's work; returns a value that depends on all of it.
fn host_reference() -> u64 {
    const SIDE: usize = 48;
    let mut grid = vec![0.0f64; SIDE * SIDE];
    for _ in 0..100 {
        for r in 1..SIDE - 1 {
            for c in 1..SIDE - 1 {
                let i = r * SIDE + c;
                let around = grid[i - SIDE] + grid[i + SIDE] + grid[i - 1] + grid[i + 1];
                grid[i] = 0.25 * (around + 1e-3);
            }
        }
    }
    const TABLE: usize = 4096;
    let mut table = vec![0u32; TABLE];
    let mut x = 0x2545_f491u32;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize % TABLE;
        table[i] = table[i].wrapping_add(x) ^ table[(i + 1) % TABLE];
    }
    let sum = table
        .iter()
        .fold(0u64, |a, &v| a.wrapping_add(u64::from(v)));
    grid[SIDE * SIDE / 2].to_bits() ^ sum
}

/// The host's core count, which every `BENCH_*.json` records.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Formats a float with 2 decimal places (the paper's table style).
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float as a whole-number micron count with thousands
/// separators, like the paper's wirelength columns ("42,844").
#[must_use]
pub fn thousands(v: f64) -> String {
    let n = v.round() as i64;
    let s = n.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    if n < 0 {
        out.insert(0, '-');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.render();
        assert!(s.starts_with("a    bb"), "{s}");
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn spread_takes_the_upper_median_and_nearest_rank_p90() {
        let s = Spread::of((1..=10).rev().map(f64::from).collect());
        assert_eq!((s.reps, s.min, s.median, s.p90), (10, 1.0, 6.0, 9.0));
        let one = Spread::of(vec![0.5]);
        assert_eq!((one.min, one.median, one.p90), (0.5, 0.5, 0.5));
        assert_eq!(
            Spread::of(vec![0.25, 0.125]).json_fields(),
            "\"reps\": 2, \"min_s\": 0.125000, \"median_s\": 0.250000, \"p90_s\": 0.250000"
        );
    }

    #[test]
    fn repeat_timed_warms_up_then_times_every_rep() {
        let mut calls = 0;
        let (spread, last) = repeat_timed(3, || {
            calls += 1;
            calls
        });
        assert_eq!((spread.reps, last, calls), (3, 4, 4));
    }

    #[test]
    fn host_reference_is_fixed_work() {
        assert_eq!(host_reference(), host_reference());
        assert!(host_reference_seconds() > 0.0);
    }

    #[test]
    fn thousands_inserts_separators() {
        assert_eq!(thousands(42844.0), "42,844");
        assert_eq!(thousands(999.4), "999");
        assert_eq!(thousands(1_234_567.0), "1,234,567");
        assert_eq!(thousands(-1234.0), "-1,234");
    }

    #[test]
    fn f2_rounds_to_two_places() {
        assert_eq!(f2(10.619), "10.62");
        assert_eq!(f2(1.0), "1.00");
    }

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..13).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0usize, 1, 2, 5, 32] {
            assert_eq!(
                par_map(&items, threads, |x| x * x),
                expected,
                "threads = {threads}"
            );
        }
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, 4, |x| x + 1).is_empty());
    }
}
