//! `large-package`: eight seeded large-1k (ψ = 2) packages, each job
//! parse → `plan_package` (`threads = 2`) → emit the four side orders.

use std::time::Instant;

use copack_core::{
    assign, evaluate_package_ir_traced, exchange_traced, plan_package, Codesign, PackageReport,
};
use copack_gen::SplitMix64;
use copack_geom::{Assignment, Package, QuadrantSide};
use copack_io::{parse_quadrant, write_assignment};
use copack_route::{analyze, cutline_congestion, is_monotonic};

use crate::calib::Calibration;
use crate::harness::{
    closed_loop, digest, end_to_end_metrics, overhead_pct, repeated_setup, require_coverage, text,
    EndToEnd, Layers, Ledger, Quality,
};
use crate::inputs::{large_1k, PlanInput};
use crate::stats::{ms_since, ratio};
use crate::trace::{Counts, Spans};
use crate::Outcome;

/// Threads of each `plan_package` job.
const THREADS: usize = 2;

/// Packages per cycle. Eight keep the spread of the run's mean Eq. 3 cost
/// over run seeds (IQR up to 8 % of the median at four) well inside the
/// bound.
const PACKAGES: usize = 8;

/// The tail percentile. Near-identical packages leave no clusters to
/// straddle, and p80 keeps 40 or more jobs beyond it in a 30 s run.
const TAIL: f64 = 0.80;

struct Planned {
    emitted: String,
    report: PackageReport,
}

fn emit(name: &str, orders: &[Assignment; 4]) -> String {
    QuadrantSide::ALL
        .iter()
        .zip(orders)
        .map(|(side, order)| write_assignment(&format!("{name} {side:?}"), order))
        .collect()
}

fn plan(input: &PlanInput, threads: usize) -> Result<Planned, String> {
    let (name, quadrant) = parse_quadrant(&input.text).map_err(text)?;
    let package = Package::uniform(quadrant);
    let report = plan_package(&package, &input.codesign(threads).map_err(text)?).map_err(text)?;
    Ok(Planned {
        emitted: emit(&name, &report.assignments),
        report,
    })
}

fn job(input: &PlanInput) -> Result<Planned, String> {
    plan(input, THREADS)
}

fn planned_digest(p: &Planned) -> u64 {
    digest(&format!("{}\n{:?}", p.emitted, p.report))
}

/// `plan_package` replayed serially through its public steps, each in a
/// span. Returns the emitted orders, the equivalent report and the four
/// sides' final Eq. 3 costs.
fn replay(
    input: &PlanInput,
    job: u32,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(Planned, [f64; 4]), String> {
    let (name, quadrant) = spans
        .time("io.parse_ms", job, || parse_quadrant(&input.text))
        .map_err(text)?;
    let package = Package::uniform(quadrant);
    let config: Codesign = input.codesign(1).map_err(text)?;
    let mut initials = Vec::with_capacity(4);
    for (_, q) in package.quadrants() {
        initials.push(
            spans
                .time("core.assign_ms", job, || assign(q, config.method))
                .map_err(text)?,
        );
    }
    let initials: [Assignment; 4] = initials.try_into().expect("four sides");
    let ir_before = spans
        .time("power.ir_solve_ms", job, || {
            evaluate_package_ir_traced(&package, &initials, &config.grid, counts)
        })
        .map_err(text)?;
    let mut finals = Vec::with_capacity(4);
    let mut routing = Vec::with_capacity(4);
    let mut costs = [0.0; 4];
    for ((side, q), initial) in package.quadrants().zip(&initials) {
        let mut exchange = config.exchange.clone();
        // plan_package's per-side seed rule.
        exchange.seed = config.exchange.seed.wrapping_add(side.index() as u64 + 1);
        let result = spans
            .time("core.exchange_ms", job, || {
                exchange_traced(q, initial, &config.stack, &exchange, counts)
            })
            .map_err(text)?;
        routing.push(
            spans
                .time("route.analyze_ms", job, || {
                    analyze(q, &result.assignment, config.density_model)
                })
                .map_err(text)?,
        );
        costs[side.index()] = result.stats.final_cost;
        finals.push(result.assignment);
    }
    let finals: [Assignment; 4] = finals.try_into().expect("four sides");
    let ir_after = spans
        .time("power.ir_solve_ms", job, || {
            evaluate_package_ir_traced(&package, &finals, &config.grid, counts)
        })
        .map_err(text)?;
    let cutlines = spans
        .time("route.cutline_ms", job, || {
            cutline_congestion(&package, &finals, config.density_model)
        })
        .map_err(text)?;
    let emitted = spans.time("io.emit_ms", job, || emit(&name, &finals));
    let report = PackageReport {
        assignments: finals,
        routing: routing.try_into().expect("four sides"),
        ir_before,
        ir_after,
        cutlines,
    };
    Ok((Planned { emitted, report }, costs))
}

/// The untimed reference: `plan_package` at 2 threads, and its serial
/// replay for the per-side Eq. 3 costs, which must agree with it.
fn reference(inputs: &[PlanInput], ledger: &mut Ledger) -> (Vec<u64>, Quality) {
    let mut digests = Vec::new();
    let mut quality = Quality::default();
    let mut spans = Spans::default();
    for input in inputs {
        let checked = (|| -> Result<u64, String> {
            let planned = plan(input, THREADS)?;
            let (replayed, costs) = replay(input, 0, &mut spans, &mut Counts::default())?;
            if replayed.report != planned.report || replayed.emitted != planned.emitted {
                return Err("the serial replay differs from plan_package at 2 threads".into());
            }
            let (_, quadrant) = parse_quadrant(&input.text).map_err(text)?;
            let r = &planned.report;
            if !r.assignments.iter().all(|a| is_monotonic(&quadrant, a)) {
                return Err("a final order is not monotonic".into());
            }
            quality.max_density.push(f64::from(r.max_density()));
            quality
                .wirelength_mm
                .push(r.routing.iter().map(|x| x.total_wirelength).sum());
            quality
                .ir_drop_mv
                .push(r.ir_after.ok_or("no power pads")? * 1e3);
            quality.eq3_cost.push(costs.iter().sum::<f64>() / 4.0);
            quality.cutline_max.push(f64::from(r.cutlines.max()));
            Ok(planned_digest(&planned))
        })();
        digests.push(checked.unwrap_or_else(|e| {
            ledger.problem(e);
            0
        }));
    }
    (digests, quality)
}

fn setup(seed: u64) -> Vec<PlanInput> {
    let inputs = large_1k(&mut SplitMix64::new(seed), PACKAGES);
    for input in &inputs {
        let _ = job(input);
    }
    inputs
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        return run_traced(seed, seconds);
    }
    let mut calibration = Calibration::new(THREADS);
    let (inputs, setup_s) = repeated_setup(|| setup(seed), drop, &mut calibration);
    let timed = closed_loop(&inputs, seconds, job, planned_digest, &mut calibration);
    let mut ledger = timed.ledger;
    let (reference, quality) = reference(&inputs, &mut ledger);
    let ok = ledger.verify(&reference);
    let attempted = ledger.outputs.len();
    let metrics = end_to_end_metrics(&EndToEnd {
        calibration,
        setup_s,
        cycle_rates: timed.cycle_rates,
        latencies_ms: timed.latencies_ms,
        peak_rss_mb: timed.peak_rss_mb,
        tail: TAIL,
        attempted,
        ok,
        quality,
    });
    Outcome::new(attempted, ok, ledger.problems, metrics)
}

/// Per package: the plain serial job (parse → `plan_package` at 1 thread
/// → emit), its traced serial replay, and the plan at 2 threads — all
/// three must produce the same orders.
fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let inputs = setup(seed);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut ledger = Ledger::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut one_thread_ms, mut two_thread_ms) = (0.0, 0.0);
    let mut job = 0u32;
    let mut calibration = Calibration::new(1);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        calibration.sample();
        for (index, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let serial = plan(input, 1);
            let ms = ms_since(t);
            plain_ms.push(ms);
            one_thread_ms += ms;
            ledger.record(index, serial.map(|p| planned_digest(&p)));

            let opened = spans.begin();
            let replayed = replay(input, job, &mut spans, &mut counts);
            traced_ms.push(spans.end("job", job, opened));
            ledger.record(index, replayed.map(|(p, _)| planned_digest(&p)));

            let t = Instant::now();
            let parallel = plan(input, THREADS);
            two_thread_ms += ms_since(t);
            ledger.record(index, parallel.map(|p| planned_digest(&p)));
            job += 1;
        }
    }
    let (reference, _) = reference(&inputs, &mut ledger);
    let ok = ledger.verify(&reference);
    require_coverage(&spans, &mut ledger);

    let jobs = traced_ms.len();
    let mut layers = Layers::from_trace(&spans, jobs, &counts, "core.exchange_ms");
    layers.set(
        "core.package_speedup",
        ratio(one_thread_ms, two_thread_ms),
        jobs,
    );
    layers.set(
        "trace.overhead_pct",
        overhead_pct(&traced_ms, &plain_ms),
        jobs,
    );
    Outcome::new(
        ledger.outputs.len(),
        ok,
        ledger.problems,
        layers.metrics(&calibration),
    )
    .with_spans(spans)
}
