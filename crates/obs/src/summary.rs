//! Post-hoc analysis of captured event streams: run splitting, replay,
//! and the aggregate [`TraceSummary`].

use std::fmt::Write as _;

use crate::event::{Event, Solver};

/// Splits a merged trace into per-run slices. A run is everything from
/// an [`Event::RunStart`] through its matching [`Event::RunEnd`]
/// (inclusive). Events outside any run (side markers, notes, solver
/// events from standalone IR evaluations) are skipped.
#[must_use]
pub fn split_runs(events: &[Event]) -> Vec<&[Event]> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, e) in events.iter().enumerate() {
        match e {
            Event::RunStart { .. } => start = Some(i),
            Event::RunEnd { .. } => {
                if let Some(s) = start.take() {
                    runs.push(&events[s..=i]);
                }
            }
            _ => {}
        }
    }
    runs
}

/// Replays one run's accepted moves to its final cost, bit for bit.
///
/// The kernel records the Eq. 3 cost *after* each accepted move (not the
/// delta), and its returned cost is the minimum cost ever held — so the
/// replay is `min(initial_cost, min over accepted costs)`, an exact
/// f64 computation with no re-accumulation error. Returns `None` if the
/// slice has no [`Event::RunStart`].
#[must_use]
pub fn replay_final_cost(run: &[Event]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for e in run {
        match e {
            Event::RunStart { initial_cost, .. } => best = Some(*initial_cost),
            Event::MoveAccepted { cost, .. } => {
                if let Some(b) = best {
                    if *cost < b {
                        best = Some(*cost);
                    }
                }
            }
            _ => {}
        }
    }
    best
}

/// One accepted move, reduced to bit-comparable fields. `ir_changed` is
/// deliberately excluded: the reference implementation recomputes the
/// IR term from scratch every move and cannot report cache reuse.
pub type AcceptedMove = (u32, u32, u64, u64);

/// The accepted-move sequence of a trace as bit-exact tuples
/// `(step, left_slot, delta_bits, cost_bits)` — the trajectory
/// fingerprint the kernel-vs-reference proptests compare.
#[must_use]
pub fn accepted_signature(events: &[Event]) -> Vec<AcceptedMove> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::MoveAccepted {
                step,
                left_slot,
                delta,
                cost,
                ..
            } => Some((*step, *left_slot, delta.to_bits(), cost.to_bits())),
            _ => None,
        })
        .collect()
}

/// Per-temperature-step acceptance fractions (accepted / proposed),
/// in step order — the input to the acceptance sparkline.
#[must_use]
pub fn acceptance_curve(events: &[Event]) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::TempStep {
                proposed, accepted, ..
            } => Some(if *proposed == 0 {
                0.0
            } else {
                *accepted as f64 / *proposed as f64
            }),
            _ => None,
        })
        .collect()
}

/// One portfolio start's telemetry, extracted from a merged trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCurve {
    /// Start index (originals `0..K`, then replacements).
    pub start: u32,
    /// The seed the start annealed with.
    pub seed: u64,
    /// Whether the start was pruned before the schedule ended.
    pub pruned: bool,
    /// Eq. 3 cost at the end of each temperature step, in step order —
    /// the input to the per-start sparkline.
    pub costs: Vec<f64>,
}

/// Per-start cost curves of a multi-start portfolio trace: one entry per
/// [`Event::PortfolioStart`], in trace (= start-index) order, each
/// holding the costs of the `TempStep` events up to the next start
/// marker. Empty when the trace has no portfolio events.
#[must_use]
pub fn portfolio_cost_curves(events: &[Event]) -> Vec<PortfolioCurve> {
    let mut curves: Vec<PortfolioCurve> = Vec::new();
    for e in events {
        match e {
            Event::PortfolioStart { start, seed } => curves.push(PortfolioCurve {
                start: *start,
                seed: *seed,
                pruned: false,
                costs: Vec::new(),
            }),
            Event::PortfolioPrune { .. } => {
                if let Some(c) = curves.last_mut() {
                    c.pruned = true;
                }
            }
            Event::TempStep { cost, .. } => {
                if let Some(c) = curves.last_mut() {
                    c.costs.push(*cost);
                }
            }
            _ => {}
        }
    }
    curves
}

/// Per-sweep residuals of the given solver, in sweep order — the input
/// to the residual sparkline.
#[must_use]
pub fn residual_curve(events: &[Event], solver: Solver) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SolverSweep {
                solver: s,
                residual,
                ..
            } if *s == solver => Some(*residual),
            _ => None,
        })
        .collect()
}

/// Aggregate statistics over a (possibly merged, multi-run) trace.
///
/// Deliberately contains **no wall-clock fields**: two traces of the
/// same work merged from different thread counts summarise identically,
/// which is what the CI determinism check asserts. Timings live only in
/// [`Event::SideEnd`] and are reported separately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Complete exchange runs seen.
    pub runs: u64,
    /// Total proposed moves across runs.
    pub proposed: u64,
    /// Total accepted moves across runs.
    pub accepted: u64,
    /// Total accepted uphill moves.
    pub uphill_accepted: u64,
    /// Total range-constraint rejections.
    pub constraint_rejected: u64,
    /// Total applied swaps that reused the cached Δ_IR term.
    pub ir_noop_applied: u64,
    /// Total temperature steps across runs.
    pub temperature_steps: u64,
    /// Sum of the runs' final costs (bit-deterministic because each
    /// run's cost is summed in run order).
    pub final_cost_sum: f64,
    /// Multigrid-preconditioned CG solves completed.
    pub mg_solves: u64,
    /// Total multigrid-preconditioned CG iterations.
    pub mg_iters: u64,
    /// CG solves completed.
    pub cg_solves: u64,
    /// Total CG iterations.
    pub cg_iters: u64,
    /// Largest `max_density` over density/routing evaluations.
    pub max_density: u32,
    /// Package sides seen (via [`Event::SideEnd`]).
    pub sides: u64,
}

impl TraceSummary {
    /// Builds the summary by folding over `events`.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Self::default();
        for e in events {
            match e {
                Event::RunEnd {
                    final_cost,
                    proposed,
                    accepted,
                    uphill_accepted,
                    constraint_rejected,
                    temperature_steps,
                } => {
                    s.runs += 1;
                    s.proposed += proposed;
                    s.accepted += accepted;
                    s.uphill_accepted += uphill_accepted;
                    s.constraint_rejected += constraint_rejected;
                    s.temperature_steps += temperature_steps;
                    s.final_cost_sum += final_cost;
                }
                Event::TempStep {
                    ir_noop_applied, ..
                } => s.ir_noop_applied += ir_noop_applied,
                Event::SolverDone { solver, sweeps, .. } => match solver {
                    Solver::Mg => {
                        s.mg_solves += 1;
                        s.mg_iters += u64::from(*sweeps);
                    }
                    Solver::Cg => {
                        s.cg_solves += 1;
                        s.cg_iters += u64::from(*sweeps);
                    }
                },
                Event::DensityEvaluated { max_density, .. }
                | Event::RoutingEvaluated { max_density, .. } => {
                    s.max_density = s.max_density.max(*max_density);
                }
                Event::SideEnd { .. } => s.sides += 1,
                _ => {}
            }
        }
        s
    }

    /// Overall acceptance fraction, or 0 when nothing was proposed.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }

    /// Multi-line human-readable rendering (the `--metrics` block).
    /// Deterministic for a given trace: contains no timings.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "runs {}  steps {}  proposed {}  accepted {} ({:.1}%)",
            self.runs,
            self.temperature_steps,
            self.proposed,
            self.accepted,
            100.0 * self.acceptance_rate()
        );
        let _ = writeln!(
            out,
            "uphill {}  constraint-rejected {}  ir-noop {}  final-cost-sum {:.6}",
            self.uphill_accepted,
            self.constraint_rejected,
            self.ir_noop_applied,
            self.final_cost_sum
        );
        if self.mg_solves + self.cg_solves > 0 {
            let _ = writeln!(
                out,
                "mg {} solves / {} iters  cg {} solves / {} iters",
                self.mg_solves, self.mg_iters, self.cg_solves, self.cg_iters
            );
        }
        if self.sides > 0 {
            let _ = writeln!(out, "sides {}", self.sides);
        }
        if self.max_density > 0 {
            let _ = writeln!(out, "max-density {}", self.max_density);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portfolio_curves_follow_start_markers() {
        let temp_step = |step: u32, cost: f64| Event::TempStep {
            step,
            temperature: 1.0,
            proposed: 10,
            accepted: 5,
            uphill_accepted: 0,
            constraint_rejected: 0,
            ir_noop_applied: 0,
            cost,
        };
        let events = vec![
            Event::PortfolioStart { start: 0, seed: 42 },
            temp_step(0, 9.0),
            temp_step(1, 8.0),
            Event::PortfolioStart { start: 1, seed: 7 },
            temp_step(0, 9.5),
            Event::PortfolioPrune {
                start: 1,
                epoch: 0,
                best_cost: 9.5,
                global_best: 8.0,
            },
        ];
        let curves = portfolio_cost_curves(&events);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].start, 0);
        assert_eq!(curves[0].seed, 42);
        assert!(!curves[0].pruned);
        assert_eq!(curves[0].costs, vec![9.0, 8.0]);
        assert_eq!(curves[1].start, 1);
        assert!(curves[1].pruned);
        assert_eq!(curves[1].costs, vec![9.5]);
        assert!(portfolio_cost_curves(&[temp_step(0, 1.0)]).is_empty());
    }

    fn run_events() -> Vec<Event> {
        vec![
            Event::RunStart {
                initial_cost: 10.0,
                ir_term: 4.0,
                initial_temperature: 3.0,
                final_temperature: 0.003,
                cooling: 0.9,
                moves_per_temp: 4,
                movable_nets: 2,
            },
            Event::MoveAccepted {
                step: 0,
                left_slot: 1,
                delta: -2.0,
                cost: 8.0,
                ir_term: 3.0,
                ir_changed: true,
                uphill: false,
            },
            Event::MoveAccepted {
                step: 0,
                left_slot: 2,
                delta: 1.0,
                cost: 9.0,
                ir_term: 3.0,
                ir_changed: false,
                uphill: true,
            },
            Event::TempStep {
                step: 0,
                temperature: 3.0,
                proposed: 4,
                accepted: 2,
                uphill_accepted: 1,
                constraint_rejected: 1,
                ir_noop_applied: 1,
                cost: 9.0,
            },
            Event::RunEnd {
                final_cost: 8.0,
                proposed: 4,
                accepted: 2,
                uphill_accepted: 1,
                constraint_rejected: 1,
                temperature_steps: 1,
            },
        ]
    }

    #[test]
    fn split_and_replay() {
        let mut events = vec![Event::SideBegin { side: 0 }];
        events.extend(run_events());
        events.push(Event::SideEnd {
            side: 0,
            seconds: 0.1,
        });
        let runs = split_runs(&events);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 5);
        assert_eq!(replay_final_cost(runs[0]), Some(8.0));
    }

    #[test]
    fn replay_handles_no_accepted_moves() {
        let events = [Event::RunStart {
            initial_cost: 7.0,
            ir_term: 0.0,
            initial_temperature: 1.0,
            final_temperature: 0.001,
            cooling: 0.9,
            moves_per_temp: 1,
            movable_nets: 1,
        }];
        assert_eq!(replay_final_cost(&events), Some(7.0));
        assert_eq!(replay_final_cost(&[]), None);
    }

    #[test]
    fn signature_and_curves() {
        let events = run_events();
        let sig = accepted_signature(&events);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0], (0, 1, (-2.0f64).to_bits(), 8.0f64.to_bits()));
        assert_eq!(acceptance_curve(&events), vec![0.5]);
        assert!(residual_curve(&events, Solver::Mg).is_empty());
    }

    #[test]
    fn summary_aggregates_and_ignores_timing() {
        let mut events = run_events();
        events.push(Event::SolverDone {
            solver: Solver::Mg,
            sweeps: 100,
            residual: 1e-13,
            converged: true,
        });
        events.push(Event::SideEnd {
            side: 3,
            seconds: 123.0,
        });
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.runs, 1);
        assert_eq!(s.proposed, 4);
        assert_eq!(s.accepted, 2);
        assert_eq!(s.ir_noop_applied, 1);
        assert_eq!(s.mg_solves, 1);
        assert_eq!(s.mg_iters, 100);
        assert_eq!(s.sides, 1);
        assert!((s.acceptance_rate() - 0.5).abs() < 1e-15);

        // A different wall time must not change the summary.
        let mut events2 = events.clone();
        if let Some(Event::SideEnd { seconds, .. }) = events2.last_mut() {
            *seconds = 456.0;
        }
        assert_eq!(s, TraceSummary::from_events(&events2));
        let text = s.to_text();
        assert!(text.contains("accepted 2 (50.0%)"), "{text}");
        assert!(!text.to_lowercase().contains("seconds"), "{text}");
    }
}
