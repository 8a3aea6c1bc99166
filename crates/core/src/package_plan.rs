//! Whole-package co-design: plan all four quadrants and evaluate them
//! together.
//!
//! The paper plans each triangular quadrant independently (its §2.1) and
//! evaluates symmetric test circuits; [`plan_package`] is the general
//! driver: it runs the two-step flow per side, evaluates the IR-drop from
//! the **actual** four pad rings (not a replicated one), and reports the
//! shared cut-line congestion across quadrant boundaries.

use std::thread::ScopedJoinHandle;

use copack_geom::{Assignment, NetKind, Package, Quadrant, QuadrantSide};
use copack_obs::{Event, NoopRecorder, Recorder, TraceBuffer};
use copack_power::{solve_mg_traced, GridSpec, PadRing};
use copack_route::{analyze, CutlineReport, RoutingReport};

use crate::{assign, exchange_traced, Codesign, CoreError, ExchangeResult};

/// The outcome of planning a whole package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageReport {
    /// Final per-side assignments, in [`QuadrantSide::ALL`] order.
    pub assignments: [Assignment; 4],
    /// Per-side routing reports after the exchange step.
    pub routing: [RoutingReport; 4],
    /// Full-package IR-drop before the exchange (V), if power nets exist.
    pub ir_before: Option<f64>,
    /// Full-package IR-drop after the exchange (V).
    pub ir_after: Option<f64>,
    /// Shared congestion along the four diagonal cut-lines.
    pub cutlines: CutlineReport,
}

impl PackageReport {
    /// The worst per-side max density.
    #[must_use]
    pub fn max_density(&self) -> u32 {
        self.routing
            .iter()
            .map(|r| r.max_density)
            .max()
            .unwrap_or(0)
    }
}

/// Full-package IR-drop (volts) from per-side assignments: every side's
/// power pads are mapped to their true perimeter positions and the grid is
/// solved once. Returns `None` when the package has no power nets.
///
/// # Errors
///
/// Propagates model/solver errors.
pub fn evaluate_package_ir(
    package: &Package,
    assignments: &[Assignment; 4],
    grid: &GridSpec,
) -> Result<Option<f64>, CoreError> {
    evaluate_package_ir_traced(package, assignments, grid, &mut NoopRecorder)
}

/// [`evaluate_package_ir`] with telemetry: the grid solve streams its
/// per-iteration residuals into `recorder`.
///
/// # Errors
///
/// As [`evaluate_package_ir`].
pub fn evaluate_package_ir_traced(
    package: &Package,
    assignments: &[Assignment; 4],
    grid: &GridSpec,
    recorder: &mut dyn Recorder,
) -> Result<Option<f64>, CoreError> {
    let pads = package.pads_of_kind(assignments, NetKind::Power)?;
    if pads.is_empty() {
        return Ok(None);
    }
    let ring = PadRing::from_ts(pads.iter().map(|(_, slot)| slot.t))?;
    Ok(Some(solve_mg_traced(grid, &ring, recorder)?.max_drop()))
}

/// Anneals and analyses one side; the unit of work the package planner
/// fans out across threads. The recorder receives the side's exchange
/// events plus one `RoutingEvaluated` for the post-exchange analysis.
fn plan_side(
    side: QuadrantSide,
    quadrant: &Quadrant,
    initial: &Assignment,
    config: &Codesign,
    recorder: &mut dyn Recorder,
) -> Result<(Assignment, RoutingReport), CoreError> {
    let mut side_config = config.exchange.clone();
    // The derived seed depends only on the side, so the outcome is the
    // same whether the sides run serially or concurrently.
    side_config.seed = config.exchange.seed.wrapping_add(side.index() as u64 + 1);
    let ExchangeResult { assignment, .. } =
        exchange_traced(quadrant, initial, &config.stack, &side_config, recorder)?;
    let report = analyze(quadrant, &assignment, config.density_model)?;
    if recorder.enabled() {
        recorder.record(&Event::RoutingEvaluated {
            max_density: report.max_density,
            total_wirelength: report.total_wirelength,
        });
    }
    Ok((assignment, report))
}

/// Resolves a `threads` setting: `0` means the machine's available
/// parallelism.
pub(crate) fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Joins scoped worker threads before their scope ends.
///
/// `std::thread::scope` returns as soon as every worker's closure has
/// finished, while the OS threads may still be exiting and holding their
/// malloc arenas. Workers spawned right after that open fresh arenas, so
/// the process's peak memory would grow with the host's load. `join`
/// waits for each thread to end. A worker's panic is re-raised as is.
pub(crate) fn join_workers(handles: Vec<ScopedJoinHandle<'_, ()>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Plans every quadrant of `package` with the two-step flow and evaluates
/// the package as a whole.
///
/// Each side gets a distinct annealing seed derived from
/// `config.exchange.seed` so symmetric packages do not anneal in lockstep.
/// The four sides are independent, so they are annealed concurrently on up
/// to [`Codesign::threads`] OS threads (`0` = available parallelism,
/// `1` = serial); because the per-side seeds depend only on the side, the
/// report is **bit-identical for every thread count**.
///
/// # Errors
///
/// Propagates errors from any side's assignment or exchange, or from the
/// package-level evaluation.
pub fn plan_package(package: &Package, config: &Codesign) -> Result<PackageReport, CoreError> {
    plan_package_traced(package, config, &mut NoopRecorder)
}

/// [`plan_package`] with telemetry.
///
/// Each worker thread records its side into a private
/// [`TraceBuffer`] (recorders are `&mut`-threaded, never shared); the
/// buffers are then replayed into `recorder` in [`QuadrantSide::ALL`]
/// order, bracketed by `SideBegin`/`SideEnd` markers, regardless of
/// which thread finished first. The merged trace is therefore identical
/// for every thread count except for the wall-clock `seconds` field of
/// `SideEnd` — the CI determinism check strips exactly that field.
///
/// # Errors
///
/// As [`plan_package`].
pub fn plan_package_traced(
    package: &Package,
    config: &Codesign,
    recorder: &mut dyn Recorder,
) -> Result<PackageReport, CoreError> {
    let rec_on = recorder.enabled();
    let rec_rejected = rec_on && recorder.wants_rejected();
    let side_buffer = || {
        if rec_rejected {
            TraceBuffer::with_rejected()
        } else {
            TraceBuffer::new()
        }
    };
    let mut initials: Vec<Assignment> = Vec::with_capacity(4);
    for (_, quadrant) in package.quadrants() {
        initials.push(assign(quadrant, config.method)?);
    }
    let initials: [Assignment; 4] = initials.try_into().expect("four quadrants");
    let ir_before = evaluate_package_ir_traced(package, &initials, &config.grid, recorder)?;

    let sides: Vec<(QuadrantSide, &Quadrant)> = package.quadrants().collect();
    let workers = effective_threads(config.threads).min(sides.len()).max(1);
    let mut planned: Vec<Option<Result<(Assignment, RoutingReport), CoreError>>> =
        (0..sides.len()).map(|_| None).collect();
    // One `(trace, wall seconds)` slot per side, filled by whichever
    // worker plans it, merged below in side order.
    let mut traces: Vec<Option<(TraceBuffer, f64)>> = (0..sides.len()).map(|_| None).collect();
    let plan_one = |side: QuadrantSide,
                    quadrant: &Quadrant,
                    initial: &Assignment,
                    trace_slot: &mut Option<(TraceBuffer, f64)>|
     -> Result<(Assignment, RoutingReport), CoreError> {
        if rec_on {
            let mut buf = side_buffer();
            let start = std::time::Instant::now();
            let planned = plan_side(side, quadrant, initial, config, &mut buf);
            *trace_slot = Some((buf, start.elapsed().as_secs_f64()));
            planned
        } else {
            plan_side(side, quadrant, initial, config, &mut NoopRecorder)
        }
    };
    if workers == 1 {
        for (slot, (side, quadrant)) in sides.iter().enumerate() {
            planned[slot] = Some(plan_one(
                *side,
                quadrant,
                &initials[slot],
                &mut traces[slot],
            ));
        }
    } else {
        // Contiguous chunks keep the output slots disjoint per worker, so
        // each scoped thread owns its slice of the result vector.
        let chunk = sides.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (((work, init), out), trace_out) in sides
                .chunks(chunk)
                .zip(initials.chunks(chunk))
                .zip(planned.chunks_mut(chunk))
                .zip(traces.chunks_mut(chunk))
            {
                let plan_one = &plan_one;
                handles.push(scope.spawn(move || {
                    for ((((side, quadrant), initial), slot), trace_slot) in
                        work.iter().zip(init).zip(out.iter_mut()).zip(trace_out)
                    {
                        *slot = Some(plan_one(*side, quadrant, initial, trace_slot));
                    }
                }));
            }
            join_workers(handles);
        });
    }
    if rec_on {
        for (slot, trace) in traces.into_iter().enumerate() {
            let (buf, seconds) = trace.expect("every side traced");
            recorder.record(&Event::SideBegin { side: slot as u8 });
            for event in buf.events() {
                recorder.record(event);
            }
            recorder.record(&Event::SideEnd {
                side: slot as u8,
                seconds,
            });
        }
    }
    let mut finals: Vec<Assignment> = Vec::with_capacity(4);
    let mut routing: Vec<RoutingReport> = Vec::with_capacity(4);
    for result in planned {
        let (assignment, report) = result.expect("every side planned")?;
        finals.push(assignment);
        routing.push(report);
    }
    let finals: [Assignment; 4] = finals.try_into().expect("four quadrants");
    let routing: [RoutingReport; 4] = routing.try_into().expect("four quadrants");
    let ir_after = evaluate_package_ir_traced(package, &finals, &config.grid, recorder)?;
    // Each side's analysis already measured its flanks under the package's
    // density model: the same figures `cutline_congestion` recomputes.
    let cutlines = CutlineReport::from_flanks(std::array::from_fn(|k| routing[k].flanks));
    Ok(PackageReport {
        assignments: finals,
        routing,
        ir_before,
        ir_after,
        cutlines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExchangeConfig, Schedule};
    use copack_geom::{NetKind, Quadrant};
    use copack_route::is_monotonic;

    fn package() -> Package {
        let q = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(9u32, NetKind::Power)
            .net_kind(0u32, NetKind::Ground)
            .build()
            .unwrap();
        Package::uniform(q)
    }

    fn fast() -> Codesign {
        Codesign {
            grid: GridSpec::default_chip(16),
            exchange: ExchangeConfig {
                // Base seed chosen so the per-side derived seeds visibly
                // desynchronise on this tiny fixture under the workspace
                // RNG stream (see `distinct_seeds_desynchronise_the_sides`).
                seed: 42,
                schedule: Schedule {
                    moves_per_temp_per_finger: 1,
                    final_temp_ratio: 1e-2,
                    cooling: 0.85,
                    ..Schedule::default()
                },
                ..ExchangeConfig::default()
            },
            ..Codesign::default()
        }
    }

    #[test]
    fn plans_all_four_sides_legally() {
        let p = package();
        let report = plan_package(&p, &fast()).unwrap();
        for (side, quadrant) in p.quadrants() {
            assert!(is_monotonic(quadrant, &report.assignments[side.index()]));
        }
        assert!(report.max_density() > 0);
        assert!(report.ir_before.is_some());
        assert!(report.ir_after.is_some());
    }

    #[test]
    fn package_ir_does_not_regress() {
        let p = package();
        let report = plan_package(&p, &fast()).unwrap();
        let (before, after) = (report.ir_before.unwrap(), report.ir_after.unwrap());
        assert!(after <= before * 1.05, "{before} -> {after}");
    }

    #[test]
    fn distinct_seeds_desynchronise_the_sides() {
        // Identical quadrants, but per-side seeds: at least two sides end
        // with different final orders.
        let p = package();
        let report = plan_package(&p, &fast()).unwrap();
        let orders: std::collections::HashSet<String> =
            report.assignments.iter().map(ToString::to_string).collect();
        assert!(orders.len() > 1, "all sides annealed identically");
    }

    #[test]
    fn thread_count_never_changes_the_plan() {
        // The per-side seeds depend only on the side, so the serial path
        // and any parallel schedule must produce bit-identical reports.
        let p = package();
        let serial = plan_package(
            &p,
            &Codesign {
                threads: 1,
                ..fast()
            },
        )
        .unwrap();
        for threads in [0usize, 2, 3, 4, 16] {
            let parallel = plan_package(&p, &Codesign { threads, ..fast() }).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn package_ir_matches_replicated_evaluation_for_symmetric_plans() {
        // If all sides share one assignment, the package evaluation must
        // equal the single-quadrant `evaluate_ir` replication.
        let p = package();
        let (_, q) = p.quadrants().next().unwrap();
        let a = crate::dfa(q, 1).unwrap();
        let grid = GridSpec::default_chip(16);
        let assignments = [a.clone(), a.clone(), a.clone(), a.clone()];
        let package_ir = evaluate_package_ir(&p, &assignments, &grid)
            .unwrap()
            .unwrap();
        let replicated = crate::evaluate_ir(q, &a, &grid).unwrap().unwrap();
        assert!((package_ir - replicated).abs() < 1e-12);
    }

    #[test]
    fn powerless_package_reports_none() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let p = Package::uniform(q.clone());
        let a = Assignment::from_order([1u32, 2]);
        let assignments = [a.clone(), a.clone(), a.clone(), a];
        let grid = GridSpec::default_chip(12);
        assert_eq!(evaluate_package_ir(&p, &assignments, &grid).unwrap(), None);
    }
}
