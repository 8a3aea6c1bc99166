//! The end-to-end co-design pipeline: congestion-driven assignment followed
//! by the IR-drop-aware exchange, evaluated like the paper's §4.

use copack_geom::{Assignment, NetKind, Quadrant, StackConfig};
use copack_obs::{Event, NoopRecorder, Recorder};
use copack_power::{
    improvement_percent, solve_sor, solve_sor_warm_traced, GridSpec, IrMap, PadRing,
};
use copack_route::{analyze, DensityModel, RoutingReport};
use serde::{Deserialize, Serialize};

use crate::{
    dfa, exchange_traced, ifa, omega_of_assignment, random_assignment, total_bondwire,
    AssignMethod, CoreError, ExchangeConfig, ExchangeResult, ExchangeStats,
};

/// Runs the chosen congestion-driven assignment method.
///
/// # Errors
///
/// Propagates the method's errors (e.g. [`CoreError::BadConfig`] for a
/// zero DFA slack).
pub fn assign(quadrant: &Quadrant, method: AssignMethod) -> Result<Assignment, CoreError> {
    match method {
        AssignMethod::Random { seed } => random_assignment(quadrant, seed),
        AssignMethod::Ifa => ifa(quadrant),
        AssignMethod::Dfa { slack } => dfa(quadrant, slack),
    }
}

/// Full-chip IR-drop (volts) of an assignment, assuming the package's four
/// quadrants all use this quadrant and order (the symmetric configuration
/// of the paper's test circuits). Power pads map onto the die perimeter and
/// the grid is solved with the full finite-difference model.
///
/// Returns `None` when the quadrant has no power nets (nothing clamps the
/// grid).
///
/// # Errors
///
/// Propagates [`CoreError::Power`] from the solver.
pub fn evaluate_ir(
    quadrant: &Quadrant,
    assignment: &Assignment,
    grid: &GridSpec,
) -> Result<Option<f64>, CoreError> {
    Ok(evaluate_ir_map(quadrant, assignment, grid, None)?.map(|map| map.max_drop()))
}

/// [`evaluate_ir`] returning the whole voltage map, with an optional
/// warm-start guess for the solver.
///
/// The annealer's `FullSolve` objective uses this to chain solves: each
/// accepted move's solution seeds the next solve
/// ([`copack_power::solve_sor_warm`]), which converges in a fraction of the
/// sweeps when only one pad moved. Pass `None` for a cold solve — then the
/// result is exactly [`solve_sor`]'s.
///
/// # Errors
///
/// As [`evaluate_ir`].
pub fn evaluate_ir_map(
    quadrant: &Quadrant,
    assignment: &Assignment,
    grid: &GridSpec,
    warm: Option<&[f64]>,
) -> Result<Option<IrMap>, CoreError> {
    evaluate_ir_map_traced(quadrant, assignment, grid, warm, &mut NoopRecorder)
}

/// [`evaluate_ir_map`] with telemetry: the SOR solve streams per-sweep
/// residuals into `recorder` (see
/// [`copack_power::solve_sor_warm_traced`]).
///
/// # Errors
///
/// As [`evaluate_ir`].
pub fn evaluate_ir_map_traced(
    quadrant: &Quadrant,
    assignment: &Assignment,
    grid: &GridSpec,
    warm: Option<&[f64]>,
    recorder: &mut dyn Recorder,
) -> Result<Option<IrMap>, CoreError> {
    let Some(ring) = replicated_ring(quadrant, assignment, NetKind::Power)? else {
        return Ok(None);
    };
    Ok(Some(solve_sor_warm_traced(grid, &ring, warm, recorder)?))
}

/// The die's pad ring for the nets of `kind`: each net's finger position
/// replicated onto all four sides, as in the paper's symmetric test
/// circuits. `None` when the quadrant has no such nets.
fn replicated_ring(
    quadrant: &Quadrant,
    assignment: &Assignment,
    kind: NetKind,
) -> Result<Option<PadRing>, CoreError> {
    let alpha = assignment.finger_count() as f64;
    let mut ts = Vec::new();
    for net in quadrant.nets_of_kind(kind) {
        let pos = assignment
            .position_of(net)
            .ok_or(copack_route::RouteError::Unplaced { net })?;
        let frac = (pos.get() as f64 - 0.5) / alpha;
        for side in 0..4u32 {
            ts.push((f64::from(side) + frac) / 4.0);
        }
    }
    if ts.is_empty() {
        return Ok(None);
    }
    Ok(Some(PadRing::from_ts(ts)?))
}

/// Worst-case supply noise of a full Vdd + ground rail pair.
///
/// The paper evaluates the Vdd rail only; real sign-off adds the ground
/// network's symmetric *bounce*, and the core's usable swing shrinks by
/// both. The worst total is taken per node (the same gate sees its local
/// drop and its local bounce).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupplyNoise {
    /// Worst Vdd-rail drop (V), from the power pads.
    pub vdd_drop: f64,
    /// Worst ground-rail bounce (V), from the ground pads.
    pub ground_bounce: f64,
    /// Worst per-node sum of drop and bounce (V).
    pub worst_total: f64,
}

/// Solves both supply rails: the Vdd grid fed by the power pads and the
/// (electrically symmetric) ground grid fed by the ground pads, and
/// combines them per node.
///
/// Returns `None` when either rail has no pads.
///
/// # Errors
///
/// Propagates [`CoreError::Power`] from the solver.
pub fn evaluate_supply_noise(
    quadrant: &Quadrant,
    assignment: &Assignment,
    grid: &GridSpec,
) -> Result<Option<SupplyNoise>, CoreError> {
    let ring_of = |kind| replicated_ring(quadrant, assignment, kind);
    let (Some(power), Some(ground)) = (ring_of(NetKind::Power)?, ring_of(NetKind::Ground)?) else {
        return Ok(None);
    };
    let vdd_map = solve_sor(grid, &power)?;
    let gnd_map = solve_sor(grid, &ground)?;
    let mut worst_total: f64 = 0.0;
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            worst_total = worst_total.max(vdd_map.drop_at(i, j) + gnd_map.drop_at(i, j));
        }
    }
    Ok(Some(SupplyNoise {
        vdd_drop: vdd_map.max_drop(),
        ground_bounce: gnd_map.max_drop(),
        worst_total,
    }))
}

/// Configuration of the full two-step co-design flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codesign {
    /// Step 1: the congestion-driven assignment method.
    pub method: AssignMethod,
    /// Step 2: the exchange configuration.
    pub exchange: ExchangeConfig,
    /// Stack configuration (ψ = 1 for 2-D).
    pub stack: StackConfig,
    /// Power-grid model for the reported IR-drop numbers.
    pub grid: GridSpec,
    /// Density model for the routing reports.
    pub density_model: DensityModel,
    /// Worker threads for whole-package planning
    /// ([`crate::plan_package`] anneals the four quadrants concurrently).
    /// `0` means "use the machine's available parallelism"; `1` forces the
    /// serial path. Results are bit-identical for every thread count: each
    /// side's annealing seed depends only on the side, never on the
    /// schedule.
    pub threads: usize,
}

impl Default for Codesign {
    fn default() -> Self {
        Self {
            method: AssignMethod::dfa_default(),
            exchange: ExchangeConfig::default(),
            stack: StackConfig::planar(),
            grid: GridSpec::default_chip(48),
            density_model: DensityModel::Geometric,
            threads: 0,
        }
    }
}

impl Codesign {
    /// Runs assignment + exchange on one quadrant and evaluates everything
    /// the paper reports.
    ///
    /// # Errors
    ///
    /// Propagates errors from any stage; see [`exchange`](fn@crate::exchange) for the
    /// exchange-step conditions.
    pub fn run(&self, quadrant: &Quadrant) -> Result<CodesignReport, CoreError> {
        self.run_traced(quadrant, &mut NoopRecorder)
    }

    /// [`run`](Self::run) with telemetry: the exchange step streams its
    /// SA events, the IR evaluations their solver residuals, and each
    /// routing analysis one [`Event::RoutingEvaluated`] into `recorder`.
    /// With a disabled recorder this *is* `run` (the plain entry point
    /// delegates here) and results are bit-identical.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_traced(
        &self,
        quadrant: &Quadrant,
        recorder: &mut dyn Recorder,
    ) -> Result<CodesignReport, CoreError> {
        fn record_routing(recorder: &mut dyn Recorder, r: &RoutingReport) {
            recorder.record(&Event::RoutingEvaluated {
                max_density: r.max_density,
                total_wirelength: r.total_wirelength,
            });
        }
        let rec_on = recorder.enabled();
        let initial = assign(quadrant, self.method)?;
        let routing_before = analyze(quadrant, &initial, self.density_model)?;
        if rec_on {
            record_routing(recorder, &routing_before);
        }
        let ir_before = evaluate_ir_map_traced(quadrant, &initial, &self.grid, None, recorder)?
            .map(|map| map.max_drop());
        let psi = self.stack.tiers;
        let omega_before = omega_of_assignment(quadrant, &initial, psi)?;
        let bondwire_before = total_bondwire(quadrant, &initial, &self.stack)?;

        let ExchangeResult { assignment, stats } =
            exchange_traced(quadrant, &initial, &self.stack, &self.exchange, recorder)?;

        let routing_after = analyze(quadrant, &assignment, self.density_model)?;
        if rec_on {
            record_routing(recorder, &routing_after);
        }
        let ir_after = evaluate_ir_map_traced(quadrant, &assignment, &self.grid, None, recorder)?
            .map(|map| map.max_drop());
        let omega_after = omega_of_assignment(quadrant, &assignment, psi)?;
        let bondwire_after = total_bondwire(quadrant, &assignment, &self.stack)?;

        let ir_improvement_percent = match (ir_before, ir_after) {
            (Some(b), Some(a)) => Some(improvement_percent(b, a)),
            _ => None,
        };
        // The paper's "Improved bonding wire (%)": the reduction in zero-bit
        // count, normalised by the total zero-bit capacity of the grouping
        // (groups x (psi-1)), which is what lands its Table 3 numbers in
        // the 10-20% band.
        let omega_improvement_percent = if psi > 1 {
            let groups = initial.finger_count().div_ceil(psi as usize) as f64;
            let capacity = groups * f64::from(psi - 1);
            Some((omega_before as f64 - omega_after as f64) / capacity * 100.0)
        } else {
            None
        };

        Ok(CodesignReport {
            initial,
            final_assignment: assignment,
            routing_before,
            routing_after,
            ir_before,
            ir_after,
            ir_improvement_percent,
            omega_before,
            omega_after,
            omega_improvement_percent,
            bondwire_before,
            bondwire_after,
            exchange: stats,
        })
    }
}

/// Everything the paper's Tables 2/3 report for one quadrant.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignReport {
    /// Order after the congestion-driven assignment.
    pub initial: Assignment,
    /// Order after the exchange step.
    pub final_assignment: Assignment,
    /// Routing analysis of the initial order.
    pub routing_before: RoutingReport,
    /// Routing analysis of the final order.
    pub routing_after: RoutingReport,
    /// Full-model IR-drop before exchange (V), if power nets exist.
    pub ir_before: Option<f64>,
    /// Full-model IR-drop after exchange (V).
    pub ir_after: Option<f64>,
    /// The paper's "Improved IR-drop (%)".
    pub ir_improvement_percent: Option<f64>,
    /// ω before exchange.
    pub omega_before: u64,
    /// ω after exchange.
    pub omega_after: u64,
    /// The paper's "Improved bonding wire (%)" (from ω, as in Table 3).
    pub omega_improvement_percent: Option<f64>,
    /// Physical bonding-wire length before (µm).
    pub bondwire_before: f64,
    /// Physical bonding-wire length after (µm).
    pub bondwire_after: f64,
    /// Annealer statistics.
    pub exchange: ExchangeStats,
}

impl CodesignReport {
    /// Physical bonding-wire improvement in percent.
    #[must_use]
    pub fn bondwire_improvement_percent(&self) -> f64 {
        improvement_percent(self.bondwire_before, self.bondwire_after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{NetKind, TierId};

    fn quadrant() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(9u32, NetKind::Power)
            .net_kind(0u32, NetKind::Ground)
            .build()
            .unwrap()
    }

    fn fast() -> Codesign {
        Codesign {
            exchange: ExchangeConfig {
                schedule: crate::Schedule {
                    moves_per_temp_per_finger: 2,
                    final_temp_ratio: 1e-2,
                    ..crate::Schedule::default()
                },
                ..ExchangeConfig::default()
            },
            grid: GridSpec::default_chip(16),
            ..Codesign::default()
        }
    }

    #[test]
    fn assign_dispatches_all_methods() {
        let q = quadrant();
        assert_eq!(
            assign(&q, AssignMethod::Ifa).unwrap().to_string(),
            "10,1,11,2,3,6,4,5,9,7,8,0"
        );
        assert_eq!(
            assign(&q, AssignMethod::Dfa { slack: 1 })
                .unwrap()
                .to_string(),
            "10,11,1,2,6,3,4,9,5,7,8,0"
        );
        assert_eq!(
            assign(&q, AssignMethod::Random { seed: 1 })
                .unwrap()
                .net_count(),
            12
        );
    }

    #[test]
    fn evaluate_ir_reports_drop_for_powered_quadrants() {
        let q = quadrant();
        let a = assign(&q, AssignMethod::dfa_default()).unwrap();
        let ir = evaluate_ir(&q, &a, &GridSpec::default_chip(16)).unwrap();
        let drop = ir.expect("quadrant has power nets");
        assert!(drop > 0.0 && drop < 1.0);
    }

    #[test]
    fn evaluate_ir_is_none_without_power_nets() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let a = Assignment::from_order([1u32, 2]);
        assert_eq!(
            evaluate_ir(&q, &a, &GridSpec::default_chip(16)).unwrap(),
            None
        );
    }

    #[test]
    fn full_pipeline_produces_consistent_report() {
        let q = quadrant();
        let report = fast().run(&q).unwrap();
        assert_eq!(report.initial.net_count(), 12);
        assert_eq!(report.final_assignment.net_count(), 12);
        assert!(report.ir_before.is_some());
        assert!(report.ir_improvement_percent.is_some());
        // Exchange never loses cost.
        assert!(report.exchange.final_cost <= report.exchange.initial_cost + 1e-9);
        // Planar design: omega is zero on both sides.
        assert_eq!(report.omega_before, 0);
        assert_eq!(report.omega_after, 0);
        assert_eq!(report.omega_improvement_percent, None);
    }

    #[test]
    fn exchange_step_does_not_hurt_ir() {
        // The proxy and the full model agree directionally: after the
        // exchange, the solved IR-drop must not be (meaningfully) worse.
        let q = quadrant();
        let report = fast().run(&q).unwrap();
        let before = report.ir_before.unwrap();
        let after = report.ir_after.unwrap();
        assert!(after <= before * 1.02, "IR got worse: {before} → {after}");
    }

    #[test]
    fn supply_noise_combines_both_rails() {
        let q = quadrant(); // has power and ground nets
        let a = assign(&q, AssignMethod::dfa_default()).unwrap();
        let grid = GridSpec::default_chip(16);
        let noise = evaluate_supply_noise(&q, &a, &grid)
            .unwrap()
            .expect("both rails padded");
        assert!(noise.vdd_drop > 0.0);
        assert!(noise.ground_bounce > 0.0);
        // The worst total is at least each rail's worst and at most their sum.
        assert!(noise.worst_total >= noise.vdd_drop.max(noise.ground_bounce));
        assert!(noise.worst_total <= noise.vdd_drop + noise.ground_bounce + 1e-12);
    }

    #[test]
    fn supply_noise_requires_both_rails() {
        let q = Quadrant::builder()
            .row([1u32, 2])
            .net_kind(1u32, NetKind::Power)
            .build()
            .unwrap();
        let a = Assignment::from_order([1u32, 2]);
        let grid = GridSpec::default_chip(12);
        assert_eq!(evaluate_supply_noise(&q, &a, &grid).unwrap(), None);
    }

    #[test]
    fn stacked_pipeline_reports_omega_improvement() {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let mut cfg = fast();
        cfg.stack = StackConfig::stacked(2).unwrap();
        // Let the bonding-wire term dominate so omega reliably improves on
        // this tiny instance.
        cfg.exchange.weights = crate::CostWeights {
            lambda: 0.0,
            rho: 0.5,
            phi: 1.0,
            margin: 0.0,
        };
        let report = cfg.run(&q).unwrap();
        assert!(report.omega_after <= report.omega_before);
        assert!(report.bondwire_before > 0.0 && report.bondwire_after > 0.0);
    }
}
