//! What every workload shares: repeated set-up, the closed job loop, the
//! output ledger, quality figures and the two metric lists.

use std::collections::BTreeMap;
use std::time::Instant;

use copack_core::evaluate_ir;
use copack_geom::{Assignment, Package, Quadrant};
use copack_io::fnv1a64;
use copack_power::GridSpec;
use copack_route::{analyze, cutline_congestion, is_monotonic, DensityModel};

use crate::calib::Calibration;
use crate::inputs::GRID;
use crate::stats::{mean, median, ms_since, peak_rss_mb, quantile, ratio, Metrics};
use crate::trace::{Counts, Spans};

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times and keeps the last state, tearing the
/// earlier ones down untimed. The host's speed is sampled before each.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
    calibration: &mut Calibration,
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        calibration.sample();
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// Per-job output digests, checked against a reference after timing.
#[derive(Default)]
pub struct Ledger {
    /// `(job index, digest)`; `None` when the job returned an error.
    pub outputs: Vec<(usize, Option<u64>)>,
    pub problems: Vec<String>,
}

impl Ledger {
    pub fn record<E: std::fmt::Display>(&mut self, job: usize, digest: Result<u64, E>) {
        match digest {
            Ok(d) => self.outputs.push((job, Some(d))),
            Err(e) => {
                self.problem(format!("job {job} failed: {e}"));
                self.outputs.push((job, None));
            }
        }
    }

    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Jobs whose digest equals the reference digest of the same job.
    pub fn verify(&mut self, reference: &[u64]) -> usize {
        let mut ok = 0;
        let mut bad = Vec::new();
        for &(job, digest) in &self.outputs {
            if digest == Some(reference[job]) {
                ok += 1;
            } else if digest.is_some() {
                bad.push(job);
            }
        }
        if !bad.is_empty() {
            self.problem(format!(
                "{} outputs differ from the reference (first: job {})",
                bad.len(),
                bad[0]
            ));
        }
        ok
    }
}

/// Error text for the ledger.
pub fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn digest(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

/// The closed loop reads the process's peak memory after this many
/// cycles, so `peak_rss_mb` measures a fixed amount of work however fast
/// the host runs. The loop runs at least this many cycles.
const RSS_CYCLES: usize = 3;

/// What a closed loop measured.
pub struct Loop {
    /// Jobs per second of each cycle.
    pub cycle_rates: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    /// `VmHWM` after [`RSS_CYCLES`] cycles.
    pub peak_rss_mb: f64,
    pub ledger: Ledger,
}

/// A closed loop on the calling thread: whole cycles over `jobs`, the next
/// job starting when the previous one returns, until `seconds` pass and at
/// least [`RSS_CYCLES`] cycles are done. The host's speed is sampled after
/// each cycle, outside the cycle's time.
pub fn closed_loop<J, O, E: std::fmt::Display>(
    jobs: &[J],
    seconds: f64,
    mut run: impl FnMut(&J) -> Result<O, E>,
    digest_of: impl Fn(&O) -> u64,
    calibration: &mut Calibration,
) -> Loop {
    let mut cycle_rates = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut ledger = Ledger::default();
    let mut rss = 0.0;
    let start = Instant::now();
    while cycle_rates.len() < RSS_CYCLES || start.elapsed().as_secs_f64() < seconds {
        let cycle = Instant::now();
        for (index, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let out = run(job);
            latencies_ms.push(ms_since(t));
            ledger.record(index, out.map(|o| digest_of(&o)));
        }
        cycle_rates.push(jobs.len() as f64 / cycle.elapsed().as_secs_f64());
        if cycle_rates.len() == RSS_CYCLES {
            rss = peak_rss_mb();
        }
        calibration.sample();
    }
    Loop {
        cycle_rates,
        latencies_ms,
        peak_rss_mb: rss,
        ledger,
    }
}

/// The paper's Table 2/3 quality figures of a set of plans (means over
/// plans). Deterministic for a given seed.
#[derive(Default)]
pub struct Quality {
    pub max_density: Vec<f64>,
    pub wirelength_mm: Vec<f64>,
    pub ir_drop_mv: Vec<f64>,
    pub eq3_cost: Vec<f64>,
    pub cutline_max: Vec<f64>,
}

impl Quality {
    /// Adds one quadrant plan, evaluated the way the paper's test
    /// circuits are: all four package sides carry this quadrant and
    /// order. Fails if the order is not monotonic.
    pub fn add_quadrant_plan(
        &mut self,
        quadrant: &Quadrant,
        order: &Assignment,
        eq3_cost: f64,
    ) -> Result<(), String> {
        if !is_monotonic(quadrant, order) {
            return Err("a final order is not monotonic".into());
        }
        let routing =
            analyze(quadrant, order, DensityModel::Geometric).map_err(|e| e.to_string())?;
        let ir = evaluate_ir(quadrant, order, &GridSpec::default_chip(GRID))
            .map_err(|e| e.to_string())?
            .ok_or("a plan has no power pads")?;
        let package = Package::uniform(quadrant.clone());
        let sides = [order.clone(), order.clone(), order.clone(), order.clone()];
        let cutlines = cutline_congestion(&package, &sides, DensityModel::Geometric)
            .map_err(|e| e.to_string())?;
        self.max_density.push(f64::from(routing.max_density));
        self.wirelength_mm.push(routing.total_wirelength);
        self.ir_drop_mv.push(ir * 1e3);
        self.eq3_cost.push(eq3_cost);
        self.cutline_max.push(f64::from(cutlines.max()));
        Ok(())
    }
}

/// Everything the untraced run of a workload measured. Times are as
/// measured; the metrics report them at the reference host speed.
pub struct EndToEnd {
    pub calibration: Calibration,
    pub setup_s: Vec<f64>,
    /// Jobs per second of each cycle.
    pub cycle_rates: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The workload's fixed tail percentile, as a fraction.
    pub tail: f64,
    pub attempted: usize,
    pub ok: usize,
    pub quality: Quality,
}

/// The `end_to_end` metrics, in `BENCHMARK.json` order. Every time is
/// divided, and every rate multiplied, by the run's host slowdown; the
/// measured values go to standard error.
pub fn end_to_end_metrics(e: &EndToEnd) -> Metrics {
    let n = e.latencies_ms.len();
    let q = &e.quality;
    let slowdown = e.calibration.slowdown();
    let (setup_s, jobs_per_s) = (median(&e.setup_s), median(&e.cycle_rates));
    let (p50, tail) = (median(&e.latencies_ms), quantile(&e.latencies_ms, e.tail));
    eprintln!(
        "host slowdown {slowdown:.4} (median of {} calibration samples); as measured: \
         setup_s {setup_s:.6}, jobs_per_s {jobs_per_s:.6}, latency_ms_p50 {p50:.6}, \
         latency_ms_tail {tail:.6}",
        e.calibration.samples()
    );
    let mut m = Metrics::default();
    m.add("setup_s", "s", setup_s / slowdown, e.setup_s.len());
    m.add(
        "jobs_per_s",
        "1/s",
        jobs_per_s * slowdown,
        e.cycle_rates.len(),
    );
    m.add("latency_ms_p50", "ms", p50 / slowdown, n);
    m.add("latency_ms_tail", "ms", tail / slowdown, n);
    m.add(
        "ok_share",
        "ratio",
        ratio(e.ok as f64, e.attempted as f64),
        e.attempted,
    );
    m.add("peak_rss_mb", "MiB", e.peak_rss_mb, 1);
    m.add(
        "max_density",
        "wires",
        mean(&q.max_density),
        q.max_density.len(),
    );
    m.add(
        "wirelength_mm",
        "mm",
        mean(&q.wirelength_mm),
        q.wirelength_mm.len(),
    );
    m.add("ir_drop_mv", "mV", mean(&q.ir_drop_mv), q.ir_drop_mv.len());
    m.add("eq3_cost", "cost", mean(&q.eq3_cost), q.eq3_cost.len());
    m.add(
        "cutline_max",
        "wires",
        mean(&q.cutline_max),
        q.cutline_max.len(),
    );
    m
}

/// The `per_layer` metrics, in `BENCHMARK.json` order, with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("power.ir_solve_ms", "ms"),
    ("power.sor_sweeps", "count"),
    ("power.node_updates_per_s", "1/s"),
    ("core.exchange_ms", "ms"),
    ("core.moves_per_s", "1/s"),
    ("core.accept_ratio", "ratio"),
    ("core.range_reject_ratio", "ratio"),
    ("core.portfolio_ms", "ms"),
    ("core.portfolio_speedup", "ratio"),
    ("core.portfolio_pruned", "count"),
    ("core.package_speedup", "ratio"),
    ("route.analyze_ms", "ms"),
    ("route.cutline_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.daemon_hit_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.plan_ms", "ms"),
    ("serve.daemon_miss_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.hit_share", "ratio"),
    ("core.assign_ms", "ms"),
    ("core.omega_ms", "ms"),
    ("io.emit_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values by name with their sample counts. A layer the
/// workload's jobs never call reads 0 with 0 samples.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// The layers of a traced planning run: each span total (span names
    /// are metric names) as ms per job, and the kernel counts as work per
    /// second of the span that did the work — the SOR solves, and the
    /// anneal inside `anneal_span`.
    pub fn from_trace(spans: &Spans, jobs: usize, c: &Counts, anneal_span: &str) -> Self {
        let totals = spans.totals_ms();
        let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
        let mut layers = Self::default();
        for (&name, &ms) in &totals {
            if name != "job" {
                layers.set(name, ratio(ms, jobs as f64), jobs);
            }
        }
        let grid_nodes = (GRID * GRID) as u64;
        layers.set(
            "power.sor_sweeps",
            ratio(c.sweeps as f64, c.solves as f64),
            c.solves as usize,
        );
        layers.set(
            "power.node_updates_per_s",
            ratio(
                (c.sweeps * grid_nodes) as f64,
                total("power.ir_solve_ms") / 1e3,
            ),
            c.solves as usize,
        );
        layers.set(
            "core.moves_per_s",
            ratio(c.proposed as f64, total(anneal_span) / 1e3),
            c.proposed as usize,
        );
        layers.set(
            "core.accept_ratio",
            ratio(c.accepted as f64, c.proposed as f64),
            c.proposed as usize,
        );
        layers.set(
            "core.range_reject_ratio",
            ratio(c.range_rejected as f64, c.proposed as f64),
            c.proposed as usize,
        );
        layers.set("trace.coverage", spans.coverage(), jobs);
        layers
    }

    /// The metrics at the reference host speed: times are divided, and
    /// rates multiplied, by the run's host slowdown.
    pub fn metrics(&self, calibration: &Calibration) -> Metrics {
        let slowdown = calibration.slowdown();
        eprintln!(
            "host slowdown {slowdown:.4} (median of {} calibration samples); \
             per-layer times and rates are scaled by it",
            calibration.samples()
        );
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
            let value = match unit {
                "ms" => value / slowdown,
                "1/s" => value * slowdown,
                _ => value,
            };
            m.add(name, unit, value, samples);
        }
        m
    }
}

/// Fails the run unless the layer spans add up to within 5 % of the traced
/// job wall time.
pub fn require_coverage(spans: &Spans, ledger: &mut Ledger) {
    let coverage = spans.coverage();
    if coverage < 0.95 {
        ledger.problem(format!("trace coverage {coverage:.4} is below 0.95"));
    }
}

/// `100 × (traced / plain − 1)` over mean job wall times.
pub fn overhead_pct(traced_ms: &[f64], plain_ms: &[f64]) -> f64 {
    100.0 * (ratio(mean(traced_ms), mean(plain_ms)) - 1.0)
}
