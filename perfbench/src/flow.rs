//! `table1-flow`: the paper's Table 2/3 experiment. A job is one Table 3
//! row — a Table 1 circuit planned planar and at ψ = 4 — each plan being
//! parse → `Codesign::run` (DFA, exchange, two full 48×48 SOR solves, ω
//! and bond-wire) → `write_assignment`, on one thread.

use std::time::Instant;

use copack_core::{
    assign, evaluate_ir_map_traced, exchange_traced, omega_of_assignment, total_bondwire,
    CodesignReport, ExchangeStats,
};
use copack_gen::SplitMix64;
use copack_geom::Quadrant;
use copack_io::{parse_quadrant, write_assignment};
use copack_route::{analyze, RoutingReport};

use crate::calib::Calibration;
use crate::harness::{
    closed_loop, digest, end_to_end_metrics, overhead_pct, repeated_setup, require_coverage, text,
    EndToEnd, Layers, Ledger, Quality,
};
use crate::inputs::{table1_rows, PlanInput};
use crate::stats::ms_since;
use crate::trace::{Counts, Spans};
use crate::{portfolio, serve, Outcome};

/// The tail percentile. One row in five is circuit 1, the slowest, so
/// p90 sits in the middle of its cluster rather than on the edge between
/// two rows.
const TAIL: f64 = 0.90;

/// Exchange-seed sets per cycle. Like `table3_report`, every circuit is
/// planned under several seeds, so the quality figures of a run do not
/// hinge on one seed per circuit; six keep their spread over run seeds
/// (IQR of `cutline_max` up to 7 % of the median at three) well inside
/// the bound.
const SEED_SETS: usize = 6;

type Row = [PlanInput; 2];

/// What one plan shows its user: the emitted order and the report's
/// after-exchange figures.
struct Plan {
    emitted: String,
    routing_after: RoutingReport,
    ir_after: Option<f64>,
    omega_after: u64,
    bondwire_after: f64,
    stats: ExchangeStats,
}

impl Plan {
    fn digest(&self) -> u64 {
        digest(&format!(
            "{}\n{:?}\n{:?}\n{}\n{:?}\n{:?}",
            self.emitted,
            self.routing_after,
            self.ir_after,
            self.omega_after,
            self.bondwire_after,
            self.stats
        ))
    }
}

fn plan(input: &PlanInput) -> Result<(Plan, CodesignReport, Quadrant), String> {
    let (name, quadrant) = parse_quadrant(&input.text).map_err(text)?;
    let report = input
        .codesign(1)
        .map_err(text)?
        .run(&quadrant)
        .map_err(text)?;
    let plan = Plan {
        emitted: write_assignment(&name, &report.final_assignment),
        routing_after: report.routing_after.clone(),
        ir_after: report.ir_after,
        omega_after: report.omega_after,
        bondwire_after: report.bondwire_after,
        stats: report.exchange,
    };
    Ok((plan, report, quadrant))
}

fn row_job(row: &Row) -> Result<[Plan; 2], String> {
    Ok([plan(&row[0])?.0, plan(&row[1])?.0])
}

fn row_digest(plans: &[Plan; 2]) -> u64 {
    plans[0].digest() ^ plans[1].digest().rotate_left(1)
}

/// `Codesign::run` split into its public steps, each in a span.
fn plan_traced(
    input: &PlanInput,
    job: u32,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<Plan, String> {
    let (name, q) = spans
        .time("io.parse_ms", job, || parse_quadrant(&input.text))
        .map_err(text)?;
    let cfg = input.codesign(1).map_err(text)?;
    let psi = cfg.stack.tiers;
    let initial = spans
        .time("core.assign_ms", job, || assign(&q, cfg.method))
        .map_err(text)?;
    spans
        .time("route.analyze_ms", job, || {
            analyze(&q, &initial, cfg.density_model)
        })
        .map_err(text)?;
    spans
        .time("power.ir_solve_ms", job, || {
            evaluate_ir_map_traced(&q, &initial, &cfg.grid, None, counts)
        })
        .map_err(text)?;
    spans
        .time("core.omega_ms", job, || {
            omega_of_assignment(&q, &initial, psi)?;
            total_bondwire(&q, &initial, &cfg.stack)
        })
        .map_err(text)?;
    let result = spans
        .time("core.exchange_ms", job, || {
            exchange_traced(&q, &initial, &cfg.stack, &cfg.exchange, counts)
        })
        .map_err(text)?;
    let order = &result.assignment;
    let routing_after = spans
        .time("route.analyze_ms", job, || {
            analyze(&q, order, cfg.density_model)
        })
        .map_err(text)?;
    let ir_after = spans
        .time("power.ir_solve_ms", job, || {
            evaluate_ir_map_traced(&q, order, &cfg.grid, None, counts)
        })
        .map_err(text)?
        .map(|map| map.max_drop());
    let (omega_after, bondwire_after) = spans
        .time("core.omega_ms", job, || {
            Ok::<_, copack_core::CoreError>((
                omega_of_assignment(&q, order, psi)?,
                total_bondwire(&q, order, &cfg.stack)?,
            ))
        })
        .map_err(text)?;
    let emitted = spans.time("io.emit_ms", job, || write_assignment(&name, order));
    Ok(Plan {
        emitted,
        routing_after,
        ir_after,
        omega_after,
        bondwire_after,
        stats: result.stats,
    })
}

/// Plans every row once more, untimed: the reference digests, the
/// monotonicity check and the quality figures.
fn reference(rows: &[Row], ledger: &mut Ledger) -> (Vec<u64>, Quality) {
    let mut digests = Vec::new();
    let mut quality = Quality::default();
    for row in rows {
        let checked = (|| -> Result<u64, String> {
            let (a, report_a, quadrant_a) = plan(&row[0])?;
            let (b, report_b, quadrant_b) = plan(&row[1])?;
            for (report, quadrant) in [(report_a, quadrant_a), (report_b, quadrant_b)] {
                let cost = report.exchange.final_cost;
                quality.add_quadrant_plan(&quadrant, &report.final_assignment, cost)?;
            }
            Ok(row_digest(&[a, b]))
        })();
        digests.push(checked.unwrap_or_else(|e| {
            ledger.problem(format!("reference: {e}"));
            0
        }));
    }
    (digests, quality)
}

fn setup(seed: u64) -> Vec<Row> {
    let rows = table1_rows(&mut SplitMix64::new(seed), SEED_SETS);
    // One untimed warm-up cycle.
    for row in &rows {
        let _ = row_job(row);
    }
    rows
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        return run_traced(seed, seconds);
    }
    let mut calibration = Calibration::new(1);
    let (rows, setup_s) = repeated_setup(|| setup(seed), drop, &mut calibration);
    let timed = closed_loop(&rows, seconds, row_job, row_digest, &mut calibration);
    let mut ledger = timed.ledger;
    let (reference, quality) = reference(&rows, &mut ledger);
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

/// Alternates, row by row, the plain job with its split, traced twin;
/// both must match the reference. Outside both, each row also goes
/// through the portfolio probe. The serve probe runs after the loop.
fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let rows = setup(seed);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut ledger = Ledger::default();
    let mut portfolio = portfolio::Probe::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut job = 0u32;
    let mut calibration = Calibration::new(1);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        calibration.sample();
        for (index, row) in rows.iter().enumerate() {
            let t = Instant::now();
            let plain = row_job(row);
            plain_ms.push(ms_since(t));
            ledger.record(index, plain.map(|p| row_digest(&p)));

            let opened = spans.begin();
            let split = plan_traced(&row[0], job, &mut spans, &mut counts)
                .and_then(|a| Ok([a, plan_traced(&row[1], job, &mut spans, &mut counts)?]));
            traced_ms.push(spans.end("job", job, opened));
            ledger.record(index, split.map(|p| row_digest(&p)));

            if let Err(e) = portfolio.row(row) {
                ledger.problem(e);
            }
            job += 1;
        }
    }
    let (reference, _) = reference(&rows, &mut ledger);
    let ok = ledger.verify(&reference);
    require_coverage(&spans, &mut ledger);

    let jobs = traced_ms.len();
    let mut layers = Layers::from_trace(&spans, jobs, &counts, "core.exchange_ms");
    portfolio.report(&mut layers);
    layers.set(
        "trace.overhead_pct",
        overhead_pct(&traced_ms, &plain_ms),
        jobs,
    );
    let (mut attempted, mut ok, mut problems) = (ledger.outputs.len(), ok, ledger.problems);
    match serve::measure(seed, &mut layers) {
        Ok(served) => {
            attempted += served.attempted;
            ok += served.ok;
            problems.extend(served.problems);
            spans.append(served.spans, job);
        }
        Err(e) => problems.push(format!("serve: {e}")),
    }
    Outcome::new(attempted, ok, problems, layers.metrics(&calibration)).with_spans(spans)
}
