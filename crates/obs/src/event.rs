//! The telemetry event vocabulary.
//!
//! Every instrumented hot path — the annealing kernel, the grid solvers,
//! the density estimator, the package planner — narrates itself as a flat
//! stream of [`Event`]s. Events carry plain numbers only (no geometry
//! handles), so the crate has no dependencies and any sink can serialise
//! them.

use std::fmt::Write as _;

/// Which grid solver emitted a solver event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Multigrid-preconditioned conjugate gradient (the
    /// `copack_power::solve_mg` family, every production IR solve).
    Mg,
    /// Conjugate gradient (the `copack_power::solve_cg` family).
    Cg,
}

impl Solver {
    /// Stable lowercase name used in serialised traces.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Self::Mg => "mg",
            Self::Cg => "cg",
        }
    }
}

/// One telemetry event.
///
/// The variants mirror the instrumented layers:
///
/// * `RunStart` / `MoveAccepted` / `MoveRejected` / `TempStep` / `RunEnd`
///   — one simulated-annealing exchange run (paper Fig. 14). Rejected
///   moves are high-volume and only recorded when the sink opts in via
///   [`crate::Recorder::wants_rejected`].
/// * `SolverSweep` / `SolverDone` — per-iteration residuals of the MG/CG
///   power-grid solvers.
/// * `DensityEvaluated` / `RoutingEvaluated` — route-layer congestion
///   evaluations.
/// * `SideBegin` / `SideEnd` — quadrant boundaries in a whole-package
///   plan; `SideEnd` carries the side's wall time (the one
///   non-deterministic field in a trace).
/// * `Note` — free-form annotations (warnings, context markers).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An exchange run began (after validation, before the first move).
    RunStart {
        /// Eq. 3 cost of the initial order.
        initial_cost: f64,
        /// λ-weighted Δ_IR term of the initial order (the cached value
        /// the kernel reuses across IR-neutral swaps).
        ir_term: f64,
        /// Start temperature.
        initial_temperature: f64,
        /// Temperature below which the schedule stops.
        final_temperature: f64,
        /// Geometric cooling factor per temperature step.
        cooling: f64,
        /// Proposed moves per temperature step.
        moves_per_temp: u64,
        /// Number of movable nets (power pads at ψ = 1, all pads stacked).
        movable_nets: u64,
    },
    /// A proposed swap was accepted.
    MoveAccepted {
        /// Temperature-step index the move happened in.
        step: u32,
        /// Left (1-based) finger slot of the adjacent pair that swapped.
        left_slot: u32,
        /// Cost delta of the move (negative = improvement).
        delta: f64,
        /// Eq. 3 cost after the move.
        cost: f64,
        /// λ-weighted Δ_IR term after the move.
        ir_term: f64,
        /// Whether the swap moved a power-pad coordinate (`false` means
        /// the Δ_IR term was reused from cache, bit for bit).
        ir_changed: bool,
        /// Whether the move increased the cost (uphill).
        uphill: bool,
    },
    /// A proposed swap reached the acceptance coin and lost. Only
    /// recorded for sinks with [`crate::Recorder::wants_rejected`].
    MoveRejected {
        /// Temperature-step index.
        step: u32,
        /// Left (1-based) finger slot of the proposed pair.
        left_slot: u32,
        /// Cost delta the rejected move would have caused.
        delta: f64,
    },
    /// A temperature step completed (aggregate counters for the step).
    TempStep {
        /// Step index, 0-based.
        step: u32,
        /// Temperature during this step (before cooling).
        temperature: f64,
        /// Moves proposed this step.
        proposed: u64,
        /// Moves accepted this step.
        accepted: u64,
        /// Accepted moves that increased the cost.
        uphill_accepted: u64,
        /// Proposals rejected by the range constraint before costing.
        constraint_rejected: u64,
        /// Applied proposals whose swap left the Δ_IR term untouched
        /// (the tracker reported a no-op, so the cached term was reused).
        ir_noop_applied: u64,
        /// Eq. 3 cost at the end of the step.
        cost: f64,
    },
    /// An exchange run finished; mirrors the run's final statistics.
    RunEnd {
        /// Best cost seen (the returned order's cost).
        final_cost: f64,
        /// Total proposed moves.
        proposed: u64,
        /// Total accepted moves.
        accepted: u64,
        /// Total uphill accepted moves.
        uphill_accepted: u64,
        /// Total range-constraint rejections.
        constraint_rejected: u64,
        /// Temperature steps performed.
        temperature_steps: u64,
    },
    /// One solver sweep/iteration completed.
    SolverSweep {
        /// Which solver.
        solver: Solver,
        /// Iteration index, 0-based.
        sweep: u32,
        /// Relative residual norm `‖r‖₂/‖b‖₂` after the iteration.
        residual: f64,
    },
    /// A solve finished.
    SolverDone {
        /// Which solver.
        solver: Solver,
        /// Sweeps/iterations performed.
        sweeps: u32,
        /// Final convergence measure.
        residual: f64,
        /// Whether the tolerance was met (a `false` here precedes a
        /// `NoConvergence` error).
        converged: bool,
    },
    /// A wire-density map was computed.
    DensityEvaluated {
        /// The map's maximum segment density.
        max_density: u32,
        /// Number of horizontal lines in the map.
        lines: u32,
    },
    /// A full routing analysis (density + wirelength) was computed.
    RoutingEvaluated {
        /// Maximum wire density of the routing.
        max_density: u32,
        /// Total wirelength (µm).
        total_wirelength: f64,
    },
    /// A package side's plan is about to be replayed into the merged
    /// trace (sides always merge in `copack_geom::QuadrantSide::ALL` order).
    SideBegin {
        /// Side index, 0..4.
        side: u8,
    },
    /// A package side's plan finished.
    SideEnd {
        /// Side index, 0..4.
        side: u8,
        /// Wall-clock seconds the side's planning took. The only
        /// non-deterministic field in a trace; determinism checks strip
        /// lines containing `"seconds"`.
        seconds: f64,
    },
    /// A planning job travelled through the `copack-serve` daemon: one
    /// event per protocol `plan` request, whether it executed, was
    /// answered from the result cache, coalesced onto an in-flight
    /// duplicate, timed out, failed, or was rejected by backpressure.
    ServeJob {
        /// How the cache answered: `"miss"` (executed), `"hit"`
        /// (already cached), `"coalesced"` (waited on an in-flight
        /// duplicate), or `"none"` (never reached the cache, e.g.
        /// rejected).
        cache: String,
        /// Outcome: `"ok"`, `"timeout"`, `"error"`, or `"rejected"`.
        outcome: String,
        /// Admission class the job was scheduled under:
        /// `"interactive"` or `"bulk"`.
        class: String,
        /// Jobs waiting in the bounded queue when this one was admitted
        /// (or rejected).
        queue_depth: u32,
        /// Wall-clock seconds from admission to response. Like
        /// `SideEnd`'s field, the one non-deterministic value; determinism
        /// diffs strip lines containing `"seconds"`.
        seconds: f64,
    },
    /// The `copack-serve` pool's lifetime counters, emitted once at
    /// shutdown.
    ServePool {
        /// Worker threads the pool ran.
        workers: u32,
        /// Bounded queue capacity (backpressure threshold).
        queue_capacity: u32,
        /// Plan requests received.
        submitted: u64,
        /// Jobs that executed to completion.
        completed: u64,
        /// Requests answered from the result cache.
        cache_hits: u64,
        /// Requests that coalesced onto an in-flight duplicate.
        coalesced: u64,
        /// Requests rejected because the queue was full.
        rejected: u64,
        /// Jobs cancelled by their wall-clock deadline.
        timeouts: u64,
    },
    /// The `copack-serve` result cache's tier telemetry, emitted once at
    /// shutdown alongside [`Event::ServePool`].
    ServeCache {
        /// Lookups answered by the bounded memory tier.
        mem_hits: u64,
        /// Lookups answered by the persistent disk tier.
        disk_hits: u64,
        /// Lookups that found neither tier populated.
        misses: u64,
        /// Entries evicted from the memory tier by its LRU bound.
        evictions: u64,
        /// Disk entries that failed validation and were quarantined.
        quarantined: u64,
        /// Live disk-tier entries at shutdown.
        disk_entries: u64,
    },
    /// One start of a multi-start exchange portfolio is about to run; its
    /// trace (`RunStart`…) follows. Starts always merge in start-index
    /// order, so the merged trace is thread-count-invariant.
    PortfolioStart {
        /// Start index, 0-based. Indices < K are the original starts;
        /// larger indices are replacements spawned for pruned starts.
        start: u32,
        /// The derived seed this start annealed with.
        seed: u64,
    },
    /// A portfolio start was abandoned at a sync epoch because its
    /// best-so-far cost trailed the global best by more than the prune
    /// margin.
    PortfolioPrune {
        /// Start index of the pruned start.
        start: u32,
        /// Sync-epoch index (0-based) at which the prune fired.
        epoch: u32,
        /// The pruned start's best-so-far cost, frozen at the prune.
        best_cost: f64,
        /// The global best cost the start was compared against.
        global_best: f64,
    },
    /// A `coop`-mode portfolio respawned a pruned slot from the current
    /// leader's best-prefix plan, perturbed by a seeded k-swap kick.
    PortfolioCrossover {
        /// Start index of the respawned slot.
        start: u32,
        /// Start index of the leader whose plan seeded the respawn.
        parent: u32,
        /// Sync-epoch barrier (0-based) at which the crossover fired.
        epoch: u32,
        /// Kick swaps actually applied (may fall short of the configured
        /// kick size on tightly range-constrained instances).
        kick: u32,
        /// The leader's best-so-far cost at the barrier.
        parent_cost: f64,
    },
    /// A `coop`-mode portfolio recomputed its adaptive prune margin at an
    /// epoch barrier from the live starts' best-cost spread.
    PortfolioMargin {
        /// Sync-epoch barrier (0-based).
        epoch: u32,
        /// The effective (widened) relative margin used for this
        /// barrier's prune verdicts.
        margin: f64,
        /// The observed relative best-cost spread it widened to.
        spread: f64,
        /// Live starts folded into the spread.
        live: u32,
    },
    /// An incremental replan began: the delta's dirty-set classification
    /// of the instance, emitted before any quadrant is planned.
    ReplanStart {
        /// Quadrants in the instance.
        quadrants: u32,
        /// Quadrants the delta actually touches (the rest reuse their
        /// previous plan or cache entry verbatim).
        dirty: u32,
    },
    /// A quadrant's previous plan was reused during a replan instead of
    /// being recomputed.
    QuadrantReused {
        /// The quadrant's name.
        name: String,
        /// Where the reused plan came from: `"previous"` (clean quadrant,
        /// prior plan returned verbatim), `"mem"` or `"disk"` (serve
        /// cache tiers).
        tier: String,
    },
    /// A dirty quadrant is about to warm-start, and this is where its
    /// starting assignment came from.
    QuadrantWarmed {
        /// The quadrant's name.
        name: String,
    },
    /// An invariant oracle (`copack-verify`) delivered a verdict.
    OracleChecked {
        /// Stable oracle name (`"monotonicity"`, `"density"`,
        /// `"ir-cross-check"`, `"determinism"`, `"cost-ledger"`).
        oracle: String,
        /// Whether the invariant held.
        passed: bool,
        /// Deterministic one-line detail (witness values, never timings).
        detail: String,
    },
    /// Free-form annotation.
    Note {
        /// The annotation text.
        text: String,
    },
}

/// Writes `v` as JSON (shortest round-trip representation; non-finite
/// values become `null`, which JSON requires).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Stable machine-readable tag of the variant (the `"ev"` field of
    /// the JSONL encoding).
    #[must_use]
    pub const fn kind(&self) -> &'static str {
        match self {
            Self::RunStart { .. } => "run_start",
            Self::MoveAccepted { .. } => "move_accepted",
            Self::MoveRejected { .. } => "move_rejected",
            Self::TempStep { .. } => "temp_step",
            Self::RunEnd { .. } => "run_end",
            Self::SolverSweep { .. } => "solver_sweep",
            Self::SolverDone { .. } => "solver_done",
            Self::DensityEvaluated { .. } => "density",
            Self::RoutingEvaluated { .. } => "routing",
            Self::SideBegin { .. } => "side_begin",
            Self::SideEnd { .. } => "side_end",
            Self::ServeJob { .. } => "serve_job",
            Self::ServePool { .. } => "serve_pool",
            Self::ServeCache { .. } => "serve_cache",
            Self::PortfolioStart { .. } => "portfolio_start",
            Self::PortfolioPrune { .. } => "portfolio_prune",
            Self::PortfolioCrossover { .. } => "portfolio_crossover",
            Self::PortfolioMargin { .. } => "portfolio_margin",
            Self::ReplanStart { .. } => "replan_start",
            Self::QuadrantReused { .. } => "quadrant_reused",
            Self::QuadrantWarmed { .. } => "quadrant_warmed",
            Self::OracleChecked { .. } => "oracle",
            Self::Note { .. } => "note",
        }
    }

    /// Appends the event as one JSON object (no trailing newline) to
    /// `out`. The encoding is self-describing: `{"ev": "<kind>", ...}`.
    /// Floats use Rust's shortest round-trip formatting, so equal traces
    /// serialise to byte-equal lines.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"ev\":\"{}\"", self.kind());
        match self {
            Self::RunStart {
                initial_cost,
                ir_term,
                initial_temperature,
                final_temperature,
                cooling,
                moves_per_temp,
                movable_nets,
            } => {
                out.push_str(",\"initial_cost\":");
                json_f64(out, *initial_cost);
                out.push_str(",\"ir_term\":");
                json_f64(out, *ir_term);
                out.push_str(",\"t0\":");
                json_f64(out, *initial_temperature);
                out.push_str(",\"t_final\":");
                json_f64(out, *final_temperature);
                out.push_str(",\"cooling\":");
                json_f64(out, *cooling);
                let _ = write!(
                    out,
                    ",\"moves_per_temp\":{moves_per_temp},\"movable_nets\":{movable_nets}"
                );
            }
            Self::MoveAccepted {
                step,
                left_slot,
                delta,
                cost,
                ir_term,
                ir_changed,
                uphill,
            } => {
                let _ = write!(out, ",\"step\":{step},\"slot\":{left_slot},\"delta\":");
                json_f64(out, *delta);
                out.push_str(",\"cost\":");
                json_f64(out, *cost);
                out.push_str(",\"ir_term\":");
                json_f64(out, *ir_term);
                let _ = write!(out, ",\"ir_changed\":{ir_changed},\"uphill\":{uphill}");
            }
            Self::MoveRejected {
                step,
                left_slot,
                delta,
            } => {
                let _ = write!(out, ",\"step\":{step},\"slot\":{left_slot},\"delta\":");
                json_f64(out, *delta);
            }
            Self::TempStep {
                step,
                temperature,
                proposed,
                accepted,
                uphill_accepted,
                constraint_rejected,
                ir_noop_applied,
                cost,
            } => {
                let _ = write!(out, ",\"step\":{step},\"temperature\":");
                json_f64(out, *temperature);
                let _ = write!(
                    out,
                    ",\"proposed\":{proposed},\"accepted\":{accepted},\
                     \"uphill\":{uphill_accepted},\"constraint_rejected\":{constraint_rejected},\
                     \"ir_noop\":{ir_noop_applied},\"cost\":"
                );
                json_f64(out, *cost);
            }
            Self::RunEnd {
                final_cost,
                proposed,
                accepted,
                uphill_accepted,
                constraint_rejected,
                temperature_steps,
            } => {
                out.push_str(",\"final_cost\":");
                json_f64(out, *final_cost);
                let _ = write!(
                    out,
                    ",\"proposed\":{proposed},\"accepted\":{accepted},\
                     \"uphill\":{uphill_accepted},\"constraint_rejected\":{constraint_rejected},\
                     \"temperature_steps\":{temperature_steps}"
                );
            }
            Self::SolverSweep {
                solver,
                sweep,
                residual,
            } => {
                let _ = write!(
                    out,
                    ",\"solver\":\"{}\",\"sweep\":{sweep},\"residual\":",
                    solver.as_str()
                );
                json_f64(out, *residual);
            }
            Self::SolverDone {
                solver,
                sweeps,
                residual,
                converged,
            } => {
                let _ = write!(
                    out,
                    ",\"solver\":\"{}\",\"sweeps\":{sweeps},\"residual\":",
                    solver.as_str()
                );
                json_f64(out, *residual);
                let _ = write!(out, ",\"converged\":{converged}");
            }
            Self::DensityEvaluated { max_density, lines } => {
                let _ = write!(out, ",\"max_density\":{max_density},\"lines\":{lines}");
            }
            Self::RoutingEvaluated {
                max_density,
                total_wirelength,
            } => {
                let _ = write!(out, ",\"max_density\":{max_density},\"wirelength\":");
                json_f64(out, *total_wirelength);
            }
            Self::SideBegin { side } => {
                let _ = write!(out, ",\"side\":{side}");
            }
            Self::SideEnd { side, seconds } => {
                let _ = write!(out, ",\"side\":{side},\"seconds\":");
                json_f64(out, *seconds);
            }
            Self::ServeJob {
                cache,
                outcome,
                class,
                queue_depth,
                seconds,
            } => {
                out.push_str(",\"cache\":");
                json_str(out, cache);
                out.push_str(",\"outcome\":");
                json_str(out, outcome);
                out.push_str(",\"class\":");
                json_str(out, class);
                let _ = write!(out, ",\"queue_depth\":{queue_depth},\"seconds\":");
                json_f64(out, *seconds);
            }
            Self::ServePool {
                workers,
                queue_capacity,
                submitted,
                completed,
                cache_hits,
                coalesced,
                rejected,
                timeouts,
            } => {
                let _ = write!(
                    out,
                    ",\"workers\":{workers},\"queue_capacity\":{queue_capacity},\
                     \"submitted\":{submitted},\"completed\":{completed},\
                     \"cache_hits\":{cache_hits},\"coalesced\":{coalesced},\
                     \"rejected\":{rejected},\"timeouts\":{timeouts}"
                );
            }
            Self::ServeCache {
                mem_hits,
                disk_hits,
                misses,
                evictions,
                quarantined,
                disk_entries,
            } => {
                let _ = write!(
                    out,
                    ",\"mem_hits\":{mem_hits},\"disk_hits\":{disk_hits},\
                     \"misses\":{misses},\"evictions\":{evictions},\
                     \"quarantined\":{quarantined},\"disk_entries\":{disk_entries}"
                );
            }
            Self::PortfolioStart { start, seed } => {
                let _ = write!(out, ",\"start\":{start},\"seed\":{seed}");
            }
            Self::PortfolioPrune {
                start,
                epoch,
                best_cost,
                global_best,
            } => {
                let _ = write!(out, ",\"start\":{start},\"epoch\":{epoch},\"best_cost\":");
                json_f64(out, *best_cost);
                out.push_str(",\"global_best\":");
                json_f64(out, *global_best);
            }
            Self::PortfolioCrossover {
                start,
                parent,
                epoch,
                kick,
                parent_cost,
            } => {
                let _ = write!(
                    out,
                    ",\"start\":{start},\"parent\":{parent},\"epoch\":{epoch},\"kick\":{kick},\"parent_cost\":"
                );
                json_f64(out, *parent_cost);
            }
            Self::PortfolioMargin {
                epoch,
                margin,
                spread,
                live,
            } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"margin\":");
                json_f64(out, *margin);
                out.push_str(",\"spread\":");
                json_f64(out, *spread);
                let _ = write!(out, ",\"live\":{live}");
            }
            Self::ReplanStart { quadrants, dirty } => {
                let _ = write!(out, ",\"quadrants\":{quadrants},\"dirty\":{dirty}");
            }
            Self::QuadrantReused { name, tier } => {
                out.push_str(",\"name\":");
                json_str(out, name);
                out.push_str(",\"tier\":");
                json_str(out, tier);
            }
            Self::QuadrantWarmed { name } => {
                out.push_str(",\"name\":");
                json_str(out, name);
            }
            Self::OracleChecked {
                oracle,
                passed,
                detail,
            } => {
                out.push_str(",\"oracle\":");
                json_str(out, oracle);
                let _ = write!(out, ",\"passed\":{passed},\"detail\":");
                json_str(out, detail);
            }
            Self::Note { text } => {
                out.push_str(",\"text\":");
                json_str(out, text);
            }
        }
        out.push('}');
    }

    /// The event as a standalone JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_stable() {
        let events = [
            Event::RunStart {
                initial_cost: 1.0,
                ir_term: 0.5,
                initial_temperature: 2.0,
                final_temperature: 0.01,
                cooling: 0.9,
                moves_per_temp: 10,
                movable_nets: 3,
            },
            Event::MoveAccepted {
                step: 0,
                left_slot: 1,
                delta: -0.5,
                cost: 0.5,
                ir_term: 0.25,
                ir_changed: true,
                uphill: false,
            },
            Event::MoveRejected {
                step: 0,
                left_slot: 1,
                delta: 0.5,
            },
            Event::TempStep {
                step: 0,
                temperature: 2.0,
                proposed: 10,
                accepted: 4,
                uphill_accepted: 1,
                constraint_rejected: 2,
                ir_noop_applied: 3,
                cost: 0.5,
            },
            Event::RunEnd {
                final_cost: 0.5,
                proposed: 10,
                accepted: 4,
                uphill_accepted: 1,
                constraint_rejected: 2,
                temperature_steps: 1,
            },
            Event::SolverSweep {
                solver: Solver::Mg,
                sweep: 0,
                residual: 1e-3,
            },
            Event::SolverDone {
                solver: Solver::Cg,
                sweeps: 12,
                residual: 1e-13,
                converged: true,
            },
            Event::DensityEvaluated {
                max_density: 2,
                lines: 3,
            },
            Event::RoutingEvaluated {
                max_density: 2,
                total_wirelength: 42.5,
            },
            Event::SideBegin { side: 0 },
            Event::SideEnd {
                side: 0,
                seconds: 0.125,
            },
            Event::ServeJob {
                cache: "hit".to_owned(),
                outcome: "ok".to_owned(),
                class: "interactive".to_owned(),
                queue_depth: 2,
                seconds: 0.004,
            },
            Event::ServePool {
                workers: 4,
                queue_capacity: 64,
                submitted: 10,
                completed: 7,
                cache_hits: 2,
                coalesced: 1,
                rejected: 0,
                timeouts: 0,
            },
            Event::ServeCache {
                mem_hits: 2,
                disk_hits: 1,
                misses: 4,
                evictions: 1,
                quarantined: 0,
                disk_entries: 3,
            },
            Event::PortfolioStart {
                start: 3,
                seed: 0x5EED,
            },
            Event::PortfolioPrune {
                start: 3,
                epoch: 1,
                best_cost: 12.5,
                global_best: 9.0,
            },
            Event::PortfolioCrossover {
                start: 4,
                parent: 0,
                epoch: 1,
                kick: 4,
                parent_cost: 9.0,
            },
            Event::PortfolioMargin {
                epoch: 1,
                margin: 0.25,
                spread: 0.1,
                live: 4,
            },
            Event::ReplanStart {
                quadrants: 4,
                dirty: 1,
            },
            Event::QuadrantReused {
                name: "north".to_owned(),
                tier: "previous".to_owned(),
            },
            Event::QuadrantWarmed {
                name: "north".to_owned(),
            },
            Event::OracleChecked {
                oracle: "density".to_owned(),
                passed: true,
                detail: "kernel == reference".to_owned(),
            },
            Event::Note {
                text: "hi \"there\"\n".to_owned(),
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "duplicate kind tag");
        for e in &events {
            let json = e.to_json();
            assert!(json.starts_with("{\"ev\":\""), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert!(!json.contains('\n'), "{json}");
        }
    }

    #[test]
    fn json_escapes_strings_and_nonfinite_floats() {
        let note = Event::Note {
            text: "a\"b\\c\nd".to_owned(),
        };
        assert_eq!(note.to_json(), r#"{"ev":"note","text":"a\"b\\c\nd"}"#);
        let e = Event::SolverSweep {
            solver: Solver::Mg,
            sweep: 1,
            residual: f64::NAN,
        };
        assert!(e.to_json().contains("\"residual\":null"));
    }

    #[test]
    fn float_encoding_round_trips_exactly() {
        // `{:?}` prints the shortest string that parses back to the same
        // bits — the property the trace-determinism diff relies on.
        for v in [0.1 + 0.2, 1.0 / 3.0, 1e-300, -0.0, 123456.789] {
            let e = Event::SolverSweep {
                solver: Solver::Cg,
                sweep: 0,
                residual: v,
            };
            let json = e.to_json();
            let field = json.split("\"residual\":").nth(1).unwrap();
            let parsed: f64 = field.trim_end_matches('}').parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{json}");
        }
    }

    #[test]
    fn solver_names_are_stable() {
        assert_eq!(Solver::Mg.as_str(), "mg");
        assert_eq!(Solver::Cg.as_str(), "cg");
    }
}
