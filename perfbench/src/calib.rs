//! Host-speed calibration. On a shared host the same job can run up to 2×
//! faster or slower from one half hour to the next, as other tenants come
//! and go. A fixed kernel that calls nothing from copack is timed between
//! the timed steps of a run, and the run's timings are reported at the
//! reference host speed: a change in the host's speed cancels, a change in
//! copack's speed shows.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, ms_since};

/// Side of the stencil grid, the IR solve's 48×48.
const N: usize = 48;
/// Over-relaxed Gauss–Seidel sweeps per kernel call.
const SWEEPS: usize = 240;
/// Entries of the table walked, a few times the exchange's per-net arrays
/// at 1 000 nets, so it stays in the L1 and L2 caches as they do.
const TABLE: usize = 4096;
/// Dependent reads and writes of the table per kernel call.
const STEPS: usize = 800_000;

/// The reference host speed, as the median time of one kernel call. It
/// sets only the unit: reported times read as if the kernel had taken
/// this long, about what it takes on a 2-vCPU Xeon VM in its faster state.
pub const REFERENCE_MS: f64 = 4.0;

/// The calibration kernel: SOR sweeps over a grid with a uniform source
/// (the shape of the IR solves), then a pseudo-random walk that reads and
/// updates a small integer table (the access pattern of the exchange and
/// routing steps).
fn kernel() -> f64 {
    let mut v = vec![0.0f64; N * N];
    for _ in 0..SWEEPS {
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                let k = i * N + j;
                let avg = 0.25 * (v[k - 1] + v[k + 1] + v[k - N] + v[k + N] + 1e-3);
                v[k] += 1.8 * (avg - v[k]);
            }
        }
    }
    let mut table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut x = 1u32;
    for _ in 0..STEPS {
        let i = x as usize % TABLE;
        x = table[i] ^ x.rotate_left(5);
        table[i] = table[i].wrapping_add(x);
    }
    v[N * N / 2] + f64::from(x)
}

/// Kernel times of one run.
pub struct Calibration {
    threads: usize,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Calibration for a workload whose jobs run on `threads` threads: a
    /// sample runs the kernel on that many threads at once and lasts
    /// until the last one ends, as a fork–join job waits for its slowest
    /// side.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            samples_ms: Vec::new(),
        }
    }

    /// Times one sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(|| black_box(kernel()));
            }
            black_box(kernel());
        });
        self.samples_ms.push(ms_since(start));
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// How many times slower than the reference the host ran this run:
    /// the median kernel time over [`REFERENCE_MS`].
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ms) / REFERENCE_MS
    }
}
