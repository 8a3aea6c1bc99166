//! The seven invariant oracles.
//!
//! Each oracle is a pure function `(Quadrant, VerifyConfig) →`
//! [`OracleReport`]: it builds its own initial assignment (always
//! [`AssignMethod::dfa_default`], the paper's recommended flow), performs
//! the seeded exchange/solve work it needs, and states a verdict. An
//! instance without power pads (or otherwise without movable nets) is a
//! *vacuous pass* — the invariant is not exercisable, which the detail
//! line says explicitly so verdict tables stay honest.

use copack_core::{
    assign, exchange, exchange_reference, exchange_traced, increased_density, plan_package,
    AssignMethod, Codesign, CoreError, DeltaIrTracker, PortfolioConfig, SectionTracker,
};
use copack_geom::{Assignment, FingerIdx, NetKind, Package, Quadrant, StackConfig};
use copack_io::{write_tune, ClassConfig};
use copack_obs::{Event, Recorder, TraceBuffer};
use copack_power::{solve_cg, solve_dense, solve_mg, GridSpec, PadRing};
use copack_route::{exchange_range, is_monotonic, RangeCache};
use copack_tune::{tune, TrialSpace, TuneError, TuneOptions};

use crate::{OracleReport, VerifyConfig};

/// The stable oracle names, in execution order.
pub const ORACLE_NAMES: [&str; 7] = [
    "monotonicity",
    "density",
    "ir-cross-check",
    "determinism",
    "cost-ledger",
    "replan_vs_scratch",
    "tune-determinism",
];

/// Agreement tolerance of the IR cross-check: the accuracy every reported
/// IR value is held to. The production solver stops at a relative
/// residual of 1e-10 and lands within ~1e-14 V of dense LU on the oracle's
/// grids, so 1e-9 V still leaves room for CG's rounding while catching any
/// modelling mismatch or a solver stopped short.
const IR_TOL: f64 = 1e-9;

/// Runs all seven oracles on one instance, emitting one
/// [`Event::OracleChecked`] per verdict into `recorder`.
pub fn check_quadrant(
    quadrant: &Quadrant,
    config: &VerifyConfig,
    recorder: &mut dyn Recorder,
) -> Vec<OracleReport> {
    let reports = vec![
        check_monotonicity_preserved(quadrant, config),
        check_density_conservation(quadrant, config),
        check_ir_cross(quadrant, config),
        check_determinism(quadrant, config),
        check_cost_ledger(quadrant, config),
        crate::check_replan_vs_scratch(quadrant, config),
        check_tune_determinism(quadrant, config),
    ];
    if recorder.enabled() {
        for r in &reports {
            recorder.record(&Event::OracleChecked {
                oracle: r.oracle.to_owned(),
                passed: r.passed,
                detail: r.detail.clone(),
            });
        }
    }
    reports
}

/// Shared preamble: the DFA initial order plus the instance's stack, or a
/// ready-made verdict when the instance cannot be exercised.
fn setup(
    oracle: &'static str,
    quadrant: &Quadrant,
    config: &VerifyConfig,
) -> Result<(Assignment, StackConfig), OracleReport> {
    let stack = match config.stack() {
        Ok(s) => s,
        Err(e) => return Err(OracleReport::fail(oracle, format!("bad stack: {e}"))),
    };
    match assign(quadrant, AssignMethod::dfa_default()) {
        Ok(a) => Ok((a, stack)),
        Err(e) => Err(OracleReport::fail(
            oracle,
            format!("assignment failed: {e}"),
        )),
    }
}

/// Maps an exchange error to a verdict: `NoMovablePads` is a vacuous
/// pass, anything else a failure.
fn exchange_err(oracle: &'static str, e: &CoreError) -> OracleReport {
    if matches!(e, CoreError::NoMovablePads) {
        OracleReport::pass(oracle, "vacuous: no movable pads")
    } else {
        OracleReport::fail(oracle, format!("exchange failed: {e}"))
    }
}

/// The accepted-move slots and per-move costs of a captured run.
fn accepted_moves(events: &[Event]) -> Vec<(u32, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::MoveAccepted {
                left_slot, cost, ..
            } => Some((*left_slot, *cost)),
            _ => None,
        })
        .collect()
}

/// Oracle 1 — monotonicity: the initial order is monotonic, every accepted
/// move's intermediate order is monotonic, and replaying the best prefix
/// of the move journal reproduces the returned order slot for slot.
#[must_use]
pub fn check_monotonicity_preserved(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "monotonicity";
    let (initial, stack) = match setup(NAME, quadrant, config) {
        Ok(v) => v,
        Err(r) => return r,
    };
    if !is_monotonic(quadrant, &initial) {
        return OracleReport::fail(NAME, "initial DFA order violates the via rule");
    }
    let mut buf = TraceBuffer::new();
    let result = match exchange_traced(
        quadrant,
        &initial,
        &stack,
        &config.exchange_config(),
        &mut buf,
    ) {
        Ok(r) => r,
        Err(e) => return exchange_err(NAME, &e),
    };
    let events = buf.into_events();
    let moves = accepted_moves(&events);

    let mut replay = initial.clone();
    let mut best_cost = result.stats.initial_cost;
    let mut best = replay.clone();
    for (k, &(left_slot, cost)) in moves.iter().enumerate() {
        if let Err(e) = replay.swap(FingerIdx::new(left_slot), FingerIdx::new(left_slot + 1)) {
            return OracleReport::fail(NAME, format!("move {k} swaps slot {left_slot}: {e}"));
        }
        if !is_monotonic(quadrant, &replay) {
            return OracleReport::fail(
                NAME,
                format!("move {k} (slot {left_slot}) breaks the via rule"),
            );
        }
        if cost < best_cost {
            best_cost = cost;
            best = replay.clone();
        }
    }
    if best != result.assignment {
        return OracleReport::fail(NAME, "best-prefix replay differs from the returned order");
    }
    if !is_monotonic(quadrant, &result.assignment) {
        return OracleReport::fail(NAME, "returned order violates the via rule");
    }
    if let Err(e) = result.assignment.validate_complete(quadrant) {
        return OracleReport::fail(NAME, format!("returned order incomplete: {e}"));
    }
    OracleReport::pass(
        NAME,
        format!(
            "{} accepted moves replayed, best prefix matches",
            moves.len()
        ),
    )
}

/// Oracle 2 — density conservation: the O(1) kernel equals the
/// from-scratch reference bit for bit, and the incremental
/// `SectionTracker`/`DeltaIrTracker` state replayed over the accepted
/// journal equals the from-scratch Eq. 2 / Δ_IR definitions on the final
/// order; `RangeCache` on the final order equals `exchange_range` per net.
#[must_use]
pub fn check_density_conservation(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "density";
    let (initial, stack) = match setup(NAME, quadrant, config) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let xcfg = config.exchange_config();

    let kernel = match exchange(quadrant, &initial, &stack, &xcfg) {
        Ok(r) => r,
        Err(e) => return exchange_err(NAME, &e),
    };
    let reference = match exchange_reference(quadrant, &initial, &stack, &xcfg) {
        Ok(r) => r,
        Err(e) => return OracleReport::fail(NAME, format!("reference failed: {e}")),
    };
    if kernel.assignment != reference.assignment {
        return OracleReport::fail(NAME, "kernel and reference orders differ");
    }
    if kernel.stats != reference.stats {
        return OracleReport::fail(NAME, "kernel and reference statistics differ");
    }

    let mut buf = TraceBuffer::new();
    if let Err(e) = exchange_traced(quadrant, &initial, &stack, &xcfg, &mut buf) {
        return exchange_err(NAME, &e);
    }
    let events = buf.into_events();
    let moves = accepted_moves(&events);

    let mut sections = match SectionTracker::new(quadrant, &initial) {
        Ok(t) => t,
        Err(e) => return OracleReport::fail(NAME, format!("section tracker: {e}")),
    };
    let mut ir = match DeltaIrTracker::new(quadrant, &initial) {
        Ok(t) => t,
        Err(e) => return OracleReport::fail(NAME, format!("ir tracker: {e}")),
    };
    let mut replay = initial.clone();
    for &(left_slot, _) in &moves {
        let left = FingerIdx::new(left_slot);
        let right = FingerIdx::new(left_slot + 1);
        match (replay.net_at(left), replay.net_at(right)) {
            (Some(a), Some(b)) => {
                sections.apply_adjacent_swap(a, b);
            }
            _ => return OracleReport::fail(NAME, format!("journal swaps empty slot {left_slot}")),
        }
        ir.apply_adjacent_swap(left);
        if replay.swap(left, right).is_err() {
            return OracleReport::fail(NAME, format!("journal slot {left_slot} out of range"));
        }
    }

    let scratch_id = match increased_density(quadrant, &initial, &replay) {
        Ok(v) => v,
        Err(e) => return OracleReport::fail(NAME, format!("scratch ID failed: {e}")),
    };
    if sections.increased_density() != scratch_id {
        return OracleReport::fail(
            NAME,
            format!(
                "incremental ID {} != from-scratch ID {scratch_id}",
                sections.increased_density()
            ),
        );
    }
    let scratch_ir = match DeltaIrTracker::new(quadrant, &replay) {
        Ok(t) => t.delta_ir(),
        Err(e) => return OracleReport::fail(NAME, format!("scratch Δ_IR failed: {e}")),
    };
    let incremental_ir = ir.delta_ir();
    if incremental_ir.to_bits() != scratch_ir.to_bits() {
        return OracleReport::fail(
            NAME,
            format!("incremental Δ_IR {incremental_ir:e} != from-scratch Δ_IR {scratch_ir:e}"),
        );
    }

    let cache = match RangeCache::new(quadrant, &kernel.assignment) {
        Ok(c) => c,
        Err(e) => return OracleReport::fail(NAME, format!("range cache: {e}")),
    };
    for net in quadrant.nets().map(|n| n.id) {
        let idx = match cache.index_of(net) {
            Some(i) => i,
            None => return OracleReport::fail(NAME, format!("net {net:?} missing from cache")),
        };
        let cached = cache.range(idx);
        let scratch = match exchange_range(quadrant, &kernel.assignment, net) {
            Ok((lo, hi)) => (lo.get(), hi.get()),
            Err(e) => return OracleReport::fail(NAME, format!("exchange_range: {e}")),
        };
        if cached != scratch {
            return OracleReport::fail(
                NAME,
                format!("range of {net:?}: cache {cached:?} != scratch {scratch:?}"),
            );
        }
    }

    OracleReport::pass(
        NAME,
        format!(
            "kernel == reference over {} accepted moves, ID {scratch_id}, {} ranges",
            moves.len(),
            quadrant.net_count()
        ),
    )
}

/// The full-package perimeter coordinates of the power pads of one
/// quadrant's assignment — the same four-side replication
/// `copack_core::evaluate_ir_map` uses.
fn power_pad_ts(quadrant: &Quadrant, assignment: &Assignment) -> Vec<f64> {
    let alpha = assignment.finger_count() as f64;
    let mut ts = Vec::new();
    for net in quadrant.nets_of_kind(NetKind::Power) {
        if let Some(pos) = assignment.position_of(net) {
            let frac = (f64::from(pos.get()) - 0.5) / alpha;
            for side in 0..4u8 {
                ts.push((f64::from(side) + frac) / 4.0);
            }
        }
    }
    ts
}

/// Oracle 3 — IR cross-check: the production multigrid-preconditioned CG,
/// plain CG and the dense direct solve agree node for node (within
/// `IR_TOL`, 1 nV) on the pad ring implied by the DFA order's power pads.
#[must_use]
pub fn check_ir_cross(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "ir-cross-check";
    let (initial, _) = match setup(NAME, quadrant, config) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let ts = power_pad_ts(quadrant, &initial);
    if ts.is_empty() {
        return OracleReport::pass(NAME, "vacuous: no power pads");
    }
    let ring = match PadRing::from_ts(ts) {
        Ok(r) => r,
        Err(e) => return OracleReport::fail(NAME, format!("pad ring: {e}")),
    };
    let spec = GridSpec::default_chip(config.grid_n);
    let mg = match solve_mg(&spec, &ring) {
        Ok(m) => m,
        Err(e) => return OracleReport::fail(NAME, format!("mg: {e}")),
    };
    let cg = match solve_cg(&spec, &ring) {
        Ok(m) => m,
        Err(e) => return OracleReport::fail(NAME, format!("cg: {e}")),
    };
    let dense = match solve_dense(&spec, &ring) {
        Ok(m) => m,
        Err(e) => return OracleReport::fail(NAME, format!("dense: {e}")),
    };
    let mut worst: f64 = 0.0;
    for ((m, c), d) in mg
        .voltages()
        .iter()
        .zip(cg.voltages())
        .zip(dense.voltages())
    {
        worst = worst.max((m - d).abs()).max((c - d).abs());
    }
    if worst > IR_TOL {
        return OracleReport::fail(
            NAME,
            format!("solvers disagree by {worst:.3e} V (tolerance {IR_TOL:.0e})"),
        );
    }
    let drop_spread = (mg.max_drop() - dense.max_drop())
        .abs()
        .max((cg.max_drop() - dense.max_drop()).abs());
    if drop_spread > IR_TOL {
        return OracleReport::fail(NAME, format!("max-drop disagreement {drop_spread:.3e} V"));
    }
    OracleReport::pass(
        NAME,
        format!(
            "mg/cg/dense agree on {} pads ({}x{} grid)",
            ring.len(),
            config.grid_n,
            config.grid_n
        ),
    )
}

/// Oracle 4 — pipeline determinism: `plan_package` yields byte-identical
/// reports for thread counts 1, 2 and 4, and `Codesign::run` reproduces
/// itself for the same seed.
#[must_use]
pub fn check_determinism(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "determinism";
    let stack = match config.stack() {
        Ok(s) => s,
        Err(e) => return OracleReport::fail(NAME, format!("bad stack: {e}")),
    };
    let codesign = |threads: usize| Codesign {
        method: AssignMethod::dfa_default(),
        exchange: config.exchange_config(),
        stack,
        grid: GridSpec::default_chip(config.grid_n),
        threads,
        ..Codesign::default()
    };
    let package = Package::uniform(quadrant.clone());
    let mut baseline: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let report = match plan_package(&package, &codesign(threads)) {
            Ok(r) => r,
            Err(e) => return exchange_err(NAME, &e),
        };
        let bytes = format!("{report:?}");
        match &baseline {
            None => baseline = Some(bytes),
            Some(b) if *b != bytes => {
                return OracleReport::fail(
                    NAME,
                    format!("package plan differs between --threads 1 and {threads}"),
                );
            }
            Some(_) => {}
        }
    }
    let flow = codesign(1);
    let a = match flow.run(quadrant) {
        Ok(r) => format!("{r:?}"),
        Err(e) => return exchange_err(NAME, &e),
    };
    let b = match flow.run(quadrant) {
        Ok(r) => format!("{r:?}"),
        Err(e) => return exchange_err(NAME, &e),
    };
    if a != b {
        return OracleReport::fail(NAME, "same-seed pipeline runs differ");
    }
    OracleReport::pass(NAME, "threads 1/2/4 and repeated runs byte-identical")
}

/// Oracle 5 — cost ledger: in the captured journal each Δcost equals the
/// cost difference bit-exactly, the uphill flag matches the delta's sign,
/// the run's final cost is the running minimum bit-exactly, and the event
/// counters agree with the returned statistics.
#[must_use]
pub fn check_cost_ledger(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "cost-ledger";
    let (initial, stack) = match setup(NAME, quadrant, config) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let mut buf = TraceBuffer::new();
    let result = match exchange_traced(
        quadrant,
        &initial,
        &stack,
        &config.exchange_config(),
        &mut buf,
    ) {
        Ok(r) => r,
        Err(e) => return exchange_err(NAME, &e),
    };
    let events = buf.into_events();

    let mut current: Option<f64> = None;
    let mut best: Option<f64> = None;
    let mut run_end: Option<f64> = None;
    let mut accepted: u64 = 0;
    let mut uphill: u64 = 0;
    for e in &events {
        match e {
            Event::RunStart { initial_cost, .. } => {
                current = Some(*initial_cost);
                best = Some(*initial_cost);
                if initial_cost.to_bits() != result.stats.initial_cost.to_bits() {
                    return OracleReport::fail(NAME, "RunStart cost != stats.initial_cost");
                }
            }
            Event::MoveAccepted {
                delta,
                cost,
                uphill: up,
                ..
            } => {
                let Some(prev) = current else {
                    return OracleReport::fail(NAME, "move before RunStart");
                };
                let recomputed = cost - prev;
                if recomputed.to_bits() != delta.to_bits() {
                    return OracleReport::fail(
                        NAME,
                        format!(
                            "move {accepted}: Δ {delta:e} != cost step {recomputed:e} (bit-exact)"
                        ),
                    );
                }
                if *up != (*delta > 0.0) {
                    return OracleReport::fail(
                        NAME,
                        format!("move {accepted}: uphill flag {up} vs Δ {delta:e}"),
                    );
                }
                current = Some(*cost);
                if let Some(b) = best {
                    if *cost < b {
                        best = Some(*cost);
                    }
                }
                accepted += 1;
                if *up {
                    uphill += 1;
                }
            }
            Event::RunEnd {
                final_cost,
                accepted: acc,
                uphill_accepted,
                ..
            } => {
                run_end = Some(*final_cost);
                if *acc != accepted || *uphill_accepted != uphill {
                    return OracleReport::fail(
                        NAME,
                        format!("RunEnd counters ({acc}, {uphill_accepted}) != journal ({accepted}, {uphill})"),
                    );
                }
            }
            _ => {}
        }
    }
    let (Some(best), Some(final_cost)) = (best, run_end) else {
        return OracleReport::fail(NAME, "journal lacks RunStart/RunEnd");
    };
    if final_cost.to_bits() != best.to_bits() {
        return OracleReport::fail(
            NAME,
            format!("final cost {final_cost:e} != running minimum {best:e} (bit-exact)"),
        );
    }
    if result.stats.final_cost.to_bits() != final_cost.to_bits() {
        return OracleReport::fail(NAME, "stats.final_cost != RunEnd final cost");
    }
    if result.stats.accepted > result.stats.proposed
        || result.stats.uphill_accepted > result.stats.accepted
    {
        return OracleReport::fail(NAME, "inconsistent exchange statistics");
    }
    OracleReport::pass(
        NAME,
        format!("{accepted} deltas audited bit-exactly, {uphill} uphill"),
    )
}

/// Oracle 7 — tune determinism: the auto-tuner emits a byte-identical
/// `.tune` profile for worker-thread counts 1 and 2 and reproduces itself
/// on a rerun, over a small trial space built around this instance's own
/// verification schedule.
#[must_use]
pub fn check_tune_determinism(quadrant: &Quadrant, config: &VerifyConfig) -> OracleReport {
    const NAME: &str = "tune-determinism";
    let stack = match config.stack() {
        Ok(s) => s,
        Err(e) => return OracleReport::fail(NAME, format!("bad stack: {e}")),
    };
    // A tiny space anchored at the oracle's own short schedule: single
    // starts keep the walk cheap, and one two-start point exercises the
    // portfolio path inside a trial.
    let base = ClassConfig::from_configs(
        &config.exchange_config(),
        &PortfolioConfig {
            starts: 1,
            ..PortfolioConfig::default()
        },
    );
    let space = TrialSpace {
        points: vec![
            base,
            ClassConfig {
                cooling: 0.8,
                ..base
            },
            ClassConfig {
                moves_per_temp: base.moves_per_temp + 1,
                ..base
            },
            ClassConfig {
                starts: 2,
                prune_margin: 0.25,
                ..base
            },
        ],
    };
    let options = |threads: usize| TuneOptions {
        seed: config.exchange_seed,
        threads,
        rounds: 1,
    };
    let family = [("instance".to_owned(), quadrant.clone(), stack)];
    let mut baseline: Option<(String, usize)> = None;
    for (threads, label) in [(1usize, "threads 1"), (2, "threads 2"), (1, "rerun")] {
        let report = match tune(&family, &space, &options(threads)) {
            Ok(r) => r,
            Err(TuneError::Core(e)) => return exchange_err(NAME, &e),
            Err(e) => return OracleReport::fail(NAME, format!("tune failed: {e}")),
        };
        let bytes = write_tune(&report.profile);
        match &baseline {
            None => baseline = Some((bytes, report.trials)),
            Some((b, _)) if *b != bytes => {
                return OracleReport::fail(NAME, format!("profile differs under {label}"));
            }
            Some(_) => {}
        }
    }
    let (_, trials) = baseline.expect("three tune runs recorded a baseline");
    OracleReport::pass(
        NAME,
        format!(
            "profile byte-identical across threads 1/2 and a rerun ({} points, {trials} trials)",
            space.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_obs::NoopRecorder;

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(2u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(9u32, NetKind::Power)
            .build()
            .unwrap()
    }

    fn no_power() -> Quadrant {
        Quadrant::builder().row([1u32, 2, 3]).build().unwrap()
    }

    #[test]
    fn monotonicity_oracle_passes_on_fig5() {
        let r = check_monotonicity_preserved(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
        assert_eq!(r.oracle, "monotonicity");
    }

    #[test]
    fn density_oracle_passes_on_fig5() {
        let r = check_density_conservation(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn ir_cross_oracle_passes_on_fig5() {
        let r = check_ir_cross(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
        assert!(r.detail.contains("mg/cg/dense"), "{}", r.detail);
    }

    #[test]
    fn determinism_oracle_passes_on_fig5() {
        let r = check_determinism(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn cost_ledger_oracle_passes_on_fig5() {
        let r = check_cost_ledger(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
        assert!(r.detail.contains("bit-exactly"), "{}", r.detail);
    }

    #[test]
    fn tune_determinism_oracle_passes_on_fig5() {
        let r = check_tune_determinism(&fig5(), &VerifyConfig::default());
        assert!(r.passed, "{}", r.detail);
        assert!(r.detail.contains("byte-identical"), "{}", r.detail);
    }

    #[test]
    fn powerless_instances_pass_vacuously() {
        let q = no_power();
        let cfg = VerifyConfig::default();
        for r in check_quadrant(&q, &cfg, &mut NoopRecorder) {
            assert!(r.passed, "{}: {}", r.oracle, r.detail);
        }
    }

    #[test]
    fn suite_emits_one_event_per_oracle() {
        let mut buf = TraceBuffer::new();
        let reports = check_quadrant(&fig5(), &VerifyConfig::default(), &mut buf);
        assert_eq!(reports.len(), ORACLE_NAMES.len());
        let oracle_events = buf
            .events()
            .iter()
            .filter(|e| matches!(e, Event::OracleChecked { .. }))
            .count();
        assert_eq!(oracle_events, ORACLE_NAMES.len());
        for (r, name) in reports.iter().zip(ORACLE_NAMES) {
            assert_eq!(r.oracle, name);
            assert!(r.passed, "{name}: {}", r.detail);
        }
    }

    #[test]
    fn stacked_instances_exercise_all_oracles() {
        let q = Quadrant::builder()
            .row([1u32, 2, 3, 4, 5])
            .row([6u32, 7, 8])
            .net_kind(2u32, NetKind::Power)
            .net_kind(7u32, NetKind::Power)
            .net_tier(3u32, copack_geom::TierId::new(2))
            .net_tier(8u32, copack_geom::TierId::new(2))
            .build()
            .unwrap();
        for r in check_quadrant(&q, &VerifyConfig::quick(2), &mut NoopRecorder) {
            assert!(r.passed, "{}: {}", r.oracle, r.detail);
        }
    }
}
