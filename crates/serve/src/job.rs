//! Job specification, content-addressed cache keys, and the shared
//! executor.
//!
//! [`execute_job_full`] is the one planning flow behind the daemon's
//! worker pool, `copack plan` (without `--package`) and the dirty branch
//! of `copack replan`: DFA/IFA/random assignment, then optionally the
//! IR-drop-aware exchange (plain, portfolio, or warm-started from a
//! previous plan). All three build a [`JobSpec`] and print the report it
//! returns, so a plan served from the daemon is byte-identical to one
//! produced locally by construction. The cache key ([`cache_key`])
//! hashes the *canonical* circuit text plus every spec field that
//! influences the result — and nothing else, so cosmetic differences
//! (file name, comments, row-order quirks) and execution-only knobs
//! (timeouts) coalesce onto one entry.

use copack_core::{
    assign, exchange_cancellable, exchange_portfolio_cancellable, exchange_warm, AssignMethod,
    CancelToken, CoreError, ExchangeConfig, PortfolioConfig, PortfolioMode,
};
use copack_geom::{Assignment, Quadrant, StackConfig};
use copack_io::{
    canonical_portfolio_mode_params, canonical_portfolio_params, canonical_quadrant_text,
    classify_quadrant, fnv1a64, parse_assignment, write_assignment, TuneProfile,
};
use copack_obs::{Event, NoopRecorder, Recorder};
use copack_route::{analyze, DensityModel, RoutingReport};
use std::fmt::Write as _;

use crate::error::{ErrorKind, ServeError};

/// Version tag mixed into every cache key; bump whenever the executor's
/// observable output changes so stale entries can never be replayed.
const KEY_DOMAIN: &str = "copack-serve/v1";

/// Admission class for queue scheduling.
///
/// Classes shape *when* a job runs, never *what* it computes, so the
/// class is deliberately absent from [`cache_key`]: an interactive
/// submission can be answered from a result a bulk sweep produced and
/// vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobClass {
    /// Latency-sensitive work (the default): design-loop submissions
    /// that a human is waiting on. Dequeued with priority weight
    /// [`JobClass::INTERACTIVE_WEIGHT`].
    #[default]
    Interactive,
    /// Throughput work: sweeps and batch re-plans that tolerate
    /// queueing. Guaranteed progress (one bulk job per weight window)
    /// but never allowed to starve interactive traffic.
    Bulk,
}

impl JobClass {
    /// How many consecutive interactive dequeues are allowed before a
    /// waiting bulk job is guaranteed a turn.
    pub const INTERACTIVE_WEIGHT: u32 = 4;

    /// The class's wire tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Bulk => "bulk",
        }
    }

    /// Parses a wire tag back into a class.
    #[must_use]
    pub fn parse_tag(tag: &str) -> Option<Self> {
        match tag {
            "interactive" => Some(JobClass::Interactive),
            "bulk" => Some(JobClass::Bulk),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One planning job, as submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The circuit text (`.copack` quadrant format), verbatim.
    pub circuit: String,
    /// Initial-assignment method; defaults mirror `copack plan`
    /// (DFA with slack 1).
    pub method: AssignMethod,
    /// Whether to refine with the annealing exchange pass.
    pub exchange: bool,
    /// Stacking tiers for the exchange objective (1 = planar).
    pub psi: u8,
    /// RNG seed for the exchange pass.
    pub exchange_seed: u64,
    /// Multi-start portfolio width for the exchange pass; `1` (the
    /// default) runs the plain single-start kernel.
    pub starts: u32,
    /// Raw `f64` bits of the portfolio prune margin (`f64::to_bits`).
    /// Carried as bits so the spec stays `Eq`/hashable and the value
    /// round-trips the wire and the cache key exactly. Inert when
    /// `starts <= 1`.
    pub prune_margin_bits: u64,
    /// Cooperation mode for the multi-start portfolio. `Race` (the
    /// default) is the pre-cooperative independent portfolio; `Coop`
    /// adds crossover respawns and adaptive margins. Inert when
    /// `starts <= 1`.
    pub mode: PortfolioMode,
    /// Crossover kick size (seeded adjacent swaps applied to the
    /// leader's plan on a cooperative respawn). Inert unless
    /// `mode == Coop` and `starts > 1`.
    pub kick_size: u32,
    /// Previous assignment file text (`copack plan --out` format) for
    /// an incremental replan. When set (and `exchange` is on) the
    /// worker warm-starts the anneal from the repaired previous plan
    /// instead of a cold DFA start. Inert when `exchange` is off.
    pub prev: Option<String>,
    /// Raw `f64` bits of the net-separation margin weight
    /// (`CostWeights::margin`). Bits for the same reason as
    /// `prune_margin_bits`; zero (the default) leaves the term off.
    pub margin_bits: u64,
    /// Whether to plan under the loaded tuning profile (`copack serve
    /// --profile`, or `plan`/`replan --profile`). When set, the
    /// profile's tuned configuration for the circuit's instance class
    /// replaces the spec's schedule/weight/portfolio tunables (the seed
    /// and `psi` stay the spec's), and the profile fingerprint plus
    /// class key join the cache key so tuned and untuned results never
    /// collide.
    /// A daemon with no profile loaded rejects such jobs as bad
    /// requests, and so does any daemon when the job also sets one of
    /// the portfolio or margin tunables the profile replaces.
    pub profile: bool,
    /// Per-job wall-clock budget; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// Admission class (execution-only: scheduling priority, never part
    /// of the cache key).
    pub class: JobClass,
}

impl JobSpec {
    /// A spec with `copack plan`'s defaults for the given circuit text.
    #[must_use]
    pub fn new(circuit: impl Into<String>) -> Self {
        Self {
            circuit: circuit.into(),
            method: AssignMethod::Dfa { slack: 1 },
            exchange: false,
            psi: 1,
            exchange_seed: ExchangeConfig::default().seed,
            starts: 1,
            prune_margin_bits: PortfolioConfig::default().prune_margin.to_bits(),
            mode: PortfolioMode::Race,
            kick_size: PortfolioConfig::default().kick_size,
            prev: None,
            margin_bits: 0.0f64.to_bits(),
            profile: false,
            timeout_ms: None,
            class: JobClass::Interactive,
        }
    }

    /// The wire name of the first tunable a profile job sets away from
    /// [`JobSpec::new`]'s default: the portfolio fields and the margin
    /// weight, which the profile replaces. `None` when all are default.
    #[must_use]
    pub(crate) fn profile_conflict(&self) -> Option<&'static str> {
        let default = Self::new("");
        [
            ("starts", self.starts != default.starts),
            (
                "prune_margin_bits",
                self.prune_margin_bits != default.prune_margin_bits,
            ),
            ("mode", self.mode != default.mode),
            ("kick_size", self.kick_size != default.kick_size),
            ("margin_bits", self.margin_bits != default.margin_bits),
        ]
        .into_iter()
        .find_map(|(field, set)| set.then_some(field))
    }

    /// The first tunable whose value no planner accepts, as its wire
    /// name and what it expects instead: zero starts or kick size, or a
    /// negative or NaN prune margin or margin weight. Values are checked
    /// whether or not the job would use them, so the CLI and the daemon
    /// refuse the same values. `None` when every tunable is valid.
    #[must_use]
    pub fn invalid_tunable(&self) -> Option<(&'static str, &'static str)> {
        let non_negative = |bits: u64| f64::from_bits(bits) >= 0.0;
        [
            ("starts", "at least 1 start", self.starts >= 1),
            (
                "prune_margin_bits",
                "a non-negative number",
                non_negative(self.prune_margin_bits),
            ),
            ("kick_size", "at least 1 swap", self.kick_size >= 1),
            (
                "margin_bits",
                "a non-negative number",
                non_negative(self.margin_bits),
            ),
        ]
        .into_iter()
        .find_map(|(field, expects, valid)| (!valid).then_some((field, expects)))
    }
}

/// The result of a completed job — exactly what `copack plan` would
/// print and write for the same inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The circuit's own name (from its header line).
    pub name: String,
    /// The human-readable report lines (`{name}: {method} -> ...`,
    /// optionally the after-exchange line, then `order: ...`).
    pub report: String,
    /// The assignment file bytes ([`write_assignment`] output) —
    /// byte-identical to `copack plan --out`.
    pub assignment: String,
}

/// Content-addressed key for `(instance, config)`.
///
/// Hashes the `KEY_DOMAIN` tag, each result-affecting spec field in a
/// fixed order, then the canonical circuit serialization. Exchange-only
/// parameters (`psi`, `exchange_seed`) are folded in **only when the
/// exchange pass is enabled** — with it disabled they cannot affect the
/// output, so specs differing only there share a key; likewise the
/// portfolio parameters (`starts`, `prune_margin_bits`) join only when
/// `starts > 1`, separating K=1 from K>1 jobs without disturbing
/// pre-portfolio keys. `timeout_ms` is never part of the key: it bounds
/// execution, not the result.
#[must_use]
pub fn cache_key(spec: &JobSpec, quadrant: &Quadrant) -> u64 {
    cache_key_with(spec, quadrant, None)
}

/// [`cache_key`] under a loaded tuning profile.
///
/// A profile-using job (`spec.profile`) additionally folds in the
/// profile's content fingerprint and the circuit's class key — the two
/// values that determine which tuned configuration the executor will
/// apply — so results planned under different profiles (or after a
/// profile reload) never collide, while non-profile jobs keep their
/// pre-profile keys bit for bit.
#[must_use]
pub fn cache_key_with(spec: &JobSpec, quadrant: &Quadrant, profile: Option<&TuneProfile>) -> u64 {
    let mut material = String::new();
    let _ = write!(material, "{KEY_DOMAIN}|method={}|", spec.method);
    if spec.profile {
        if let Some(p) = profile {
            let _ = write!(
                material,
                "profile={:016x}|class={}|",
                p.fingerprint(),
                classify_quadrant(quadrant)
            );
        }
    }
    if spec.exchange {
        let _ = write!(
            material,
            "exchange=true|psi={}|xseed={}|",
            spec.psi, spec.exchange_seed
        );
        // Portfolio parameters join the key only for true multi-start
        // jobs: at `starts <= 1` they cannot affect the result (the
        // portfolio degenerates to the plain kernel), and omitting them
        // keeps every pre-portfolio cache key stable.
        if spec.starts > 1 {
            material.push_str(&canonical_portfolio_params(
                spec.starts,
                spec.prune_margin_bits,
            ));
            // Cooperative-mode parameters fold in only for a non-default
            // mode: at `mode == Race` they cannot affect the result, and
            // omitting them keeps every pre-cooperative key stable.
            if spec.mode != PortfolioMode::Race {
                material.push_str(&canonical_portfolio_mode_params(
                    spec.mode.as_str(),
                    spec.kick_size,
                ));
            }
        }
        // Same conditional pattern for the replan extensions: a zero
        // margin weight is the pre-margin objective and a missing
        // `prev` is a cold plan, so both fold in only when they can
        // change the result — every pre-replan key stays stable.
        if f64::from_bits(spec.margin_bits) != 0.0 {
            let _ = write!(material, "margin_bits={}|", spec.margin_bits);
        }
        if let Some(prev) = &spec.prev {
            let _ = write!(material, "prev={:016x}|", fnv1a64(prev.as_bytes()));
        }
    } else {
        material.push_str("exchange=false|");
    }
    material.push_str(&canonical_quadrant_text(quadrant));
    fnv1a64(material.as_bytes())
}

/// Runs one job to completion (or cancellation) as the daemon does:
/// the portfolio anneals its starts on the calling thread, and nothing
/// is recorded. perfbench's serve probe calls this form.
///
/// # Errors
///
/// As [`execute_job_full`].
pub fn execute_job(
    spec: &JobSpec,
    name: &str,
    quadrant: &Quadrant,
    cancel: &CancelToken,
) -> Result<JobOutput, ServeError> {
    execute_job_full(spec, name, quadrant, cancel, None, 1, &mut NoopRecorder)
}

/// Runs one job to completion (or cancellation).
///
/// `profile` is the loaded tuning profile, applied when the spec asks
/// for it. `threads` caps the portfolio's worker threads (0 = available
/// parallelism); the daemon passes 1, because its workers are already
/// the pool's concurrency unit, and the result is identical for every
/// count. `recorder` receives one `routing_evaluated` event per routing
/// line of the report and every event of the exchange pass.
///
/// # Errors
///
/// [`ErrorKind::Timeout`] when `cancel` fires mid-run;
/// [`ErrorKind::BadRequest`] when `prev` is not an assignment file;
/// [`ErrorKind::JobFailed`] when the planner itself rejects the
/// instance (no legal assignment, invalid stack, ...).
pub fn execute_job_full(
    spec: &JobSpec,
    name: &str,
    quadrant: &Quadrant,
    cancel: &CancelToken,
    profile: Option<&TuneProfile>,
    threads: usize,
    recorder: &mut dyn Recorder,
) -> Result<JobOutput, ServeError> {
    let mut assignment = assign(quadrant, spec.method).map_err(|e| job_failed(&e))?;
    let mut report = String::new();
    let routing = route(quadrant, &assignment, recorder)?;
    let _ = writeln!(report, "{name}: {} -> {routing}", spec.method);

    if spec.exchange {
        if cancel.is_cancelled() {
            return Err(ServeError::new(
                ErrorKind::Timeout,
                "the job was cancelled before the exchange pass started",
            ));
        }
        let stack = if spec.psi <= 1 {
            StackConfig::planar()
        } else {
            StackConfig::stacked(spec.psi).map_err(|e| job_failed(&e))?
        };
        let mut config = ExchangeConfig {
            seed: spec.exchange_seed,
            ..ExchangeConfig::default()
        };
        config.weights.margin = f64::from_bits(spec.margin_bits);
        let mut portfolio = PortfolioConfig {
            starts: spec.starts,
            prune_margin: f64::from_bits(spec.prune_margin_bits),
            threads,
            mode: spec.mode,
            kick_size: spec.kick_size,
            ..PortfolioConfig::default()
        };
        if spec.profile {
            if let Some(p) = profile {
                // The tuned class configuration replaces the spec's
                // schedule/weight/portfolio tunables wholesale; the
                // seed, the stacking and the thread count stay.
                p.config_for(quadrant).apply(&mut config, &mut portfolio);
                config.seed = spec.exchange_seed;
            }
        }
        let on_core_error = |e: CoreError| match e {
            CoreError::Cancelled => ServeError::new(
                ErrorKind::Timeout,
                "the job exceeded its wall-clock budget during exchange",
            ),
            other => job_failed(&other),
        };
        let result = if let Some(prev_text) = &spec.prev {
            // Incremental replan: warm-start from the previous plan
            // (repair, reheat, shortened schedule — or bit-identical
            // from-scratch below the core's size cutoff). The warm
            // path is single-start by construction, so it takes
            // precedence over the portfolio width.
            let (_, previous) = parse_assignment(prev_text).map_err(|e| {
                ServeError::new(
                    ErrorKind::BadRequest,
                    format!("previous assignment does not parse: {e}"),
                )
            })?;
            exchange_warm(quadrant, &previous, &stack, &config, recorder, cancel)
                .map_err(on_core_error)?
        } else if portfolio.starts > 1 {
            let won = exchange_portfolio_cancellable(
                quadrant,
                &assignment,
                &stack,
                &config,
                &portfolio,
                recorder,
                cancel,
            )
            .map_err(on_core_error)?;
            let _ = writeln!(
                report,
                "{name}: portfolio K={} winner start {} seed {} pruned {}",
                portfolio.starts,
                won.winner_start,
                won.winner_seed,
                won.pruned()
            );
            won.result
        } else {
            exchange_cancellable(quadrant, &assignment, &stack, &config, recorder, cancel)
                .map_err(on_core_error)?
        };
        assignment = result.assignment;
        let routing = route(quadrant, &assignment, recorder)?;
        let verb = if spec.prev.is_some() {
            "replan"
        } else {
            "exchange"
        };
        let _ = writeln!(
            report,
            "{name}: after {verb} (cost {:.4} -> {:.4}) -> {routing}",
            result.stats.initial_cost, result.stats.final_cost
        );
    }

    let _ = writeln!(report, "order: {assignment}");
    Ok(JobOutput {
        name: name.to_owned(),
        report,
        assignment: write_assignment(name, &assignment),
    })
}

/// A planner error as a failed job.
fn job_failed(e: &dyn std::fmt::Display) -> ServeError {
    ServeError::new(ErrorKind::JobFailed, e.to_string())
}

/// Routes `assignment` for a report line and records the result.
fn route(
    quadrant: &Quadrant,
    assignment: &Assignment,
    recorder: &mut dyn Recorder,
) -> Result<RoutingReport, ServeError> {
    let routing =
        analyze(quadrant, assignment, DensityModel::Geometric).map_err(|e| job_failed(&e))?;
    recorder.record(&Event::RoutingEvaluated {
        max_density: routing.max_density,
        total_wirelength: routing.total_wirelength,
    });
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_io::{parse_quadrant, ClassConfig};

    fn circuit() -> (String, Quadrant) {
        let text = "quadrant demo\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\n";
        let (name, q) = parse_quadrant(text).expect("valid circuit");
        (name, q)
    }

    #[test]
    fn the_key_ignores_execution_only_knobs() {
        let (_, q) = circuit();
        let base = JobSpec::new("");
        let timed = JobSpec {
            timeout_ms: Some(5),
            ..base.clone()
        };
        assert_eq!(cache_key(&base, &q), cache_key(&timed, &q));

        // The admission class shapes scheduling, never the result: a
        // bulk submission shares its key with the interactive twin.
        let bulk = JobSpec {
            class: JobClass::Bulk,
            ..base.clone()
        };
        assert_eq!(cache_key(&base, &q), cache_key(&bulk, &q));

        // With exchange off, exchange-only parameters are inert too.
        let reseeded = JobSpec {
            exchange_seed: 999,
            psi: 4,
            ..base.clone()
        };
        assert_eq!(cache_key(&base, &q), cache_key(&reseeded, &q));

        // With exchange on, they are load-bearing.
        let on = JobSpec {
            exchange: true,
            ..base.clone()
        };
        let on_reseeded = JobSpec {
            exchange_seed: 999,
            ..on.clone()
        };
        assert_ne!(cache_key(&on, &q), cache_key(&on_reseeded, &q));
        assert_ne!(cache_key(&base, &q), cache_key(&on, &q));
    }

    #[test]
    fn the_key_separates_portfolio_widths_but_not_inert_params() {
        let (_, q) = circuit();
        let single = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        // Inert at K=1: portfolio params don't perturb the key, which
        // also keeps pre-portfolio cache keys stable.
        let single_margin = JobSpec {
            prune_margin_bits: 0.5f64.to_bits(),
            ..single.clone()
        };
        assert_eq!(cache_key(&single, &q), cache_key(&single_margin, &q));

        // K=1 and K>1 never share a key.
        let multi = JobSpec {
            starts: 4,
            ..single.clone()
        };
        assert_ne!(cache_key(&single, &q), cache_key(&multi, &q));
        // At K>1 both width and margin are load-bearing.
        let wider = JobSpec {
            starts: 8,
            ..multi.clone()
        };
        let tighter = JobSpec {
            prune_margin_bits: 0.5f64.to_bits(),
            ..multi.clone()
        };
        assert_ne!(cache_key(&multi, &q), cache_key(&wider, &q));
        assert_ne!(cache_key(&multi, &q), cache_key(&tighter, &q));

        // With exchange off, portfolio params are inert entirely.
        let off = JobSpec::new("");
        let off_multi = JobSpec {
            starts: 8,
            ..off.clone()
        };
        assert_eq!(cache_key(&off, &q), cache_key(&off_multi, &q));
    }

    #[test]
    fn the_key_folds_mode_params_only_for_cooperative_multi_start_jobs() {
        let (_, q) = circuit();
        let multi = JobSpec {
            exchange: true,
            starts: 4,
            ..JobSpec::new("")
        };
        // Race is the default mode: mode parameters are inert there, so
        // pre-cooperative keys stay byte-stable even with exotic knobs.
        let race_kicked = JobSpec {
            kick_size: 9,
            ..multi.clone()
        };
        assert_eq!(cache_key(&multi, &q), cache_key(&race_kicked, &q));

        // A non-default mode separates, and its kick is load-bearing.
        let coop = JobSpec {
            mode: PortfolioMode::Coop,
            ..multi.clone()
        };
        assert_ne!(cache_key(&multi, &q), cache_key(&coop, &q));
        let coop_kicked = JobSpec {
            kick_size: 9,
            ..coop.clone()
        };
        assert_ne!(cache_key(&coop, &q), cache_key(&coop_kicked, &q));

        // At K=1 the whole portfolio block (mode included) is inert.
        let single_coop = JobSpec {
            starts: 1,
            ..coop.clone()
        };
        let single = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        assert_eq!(cache_key(&single, &q), cache_key(&single_coop, &q));
    }

    #[test]
    fn the_key_folds_replan_fields_only_when_they_can_matter() {
        let (_, q) = circuit();
        // With exchange off, margin and prev are inert.
        let off = JobSpec::new("");
        let off_margin = JobSpec {
            margin_bits: 0.5f64.to_bits(),
            ..off.clone()
        };
        let off_prev = JobSpec {
            prev: Some("assignment demo\norder 1 2\n".to_owned()),
            ..off.clone()
        };
        assert_eq!(cache_key(&off, &q), cache_key(&off_margin, &q));
        assert_eq!(cache_key(&off, &q), cache_key(&off_prev, &q));

        // With exchange on, a zero margin still matches the pre-margin
        // key, a nonzero margin separates, and so does a previous plan
        // (content-addressed: equal text, equal key).
        let on = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        let on_zero_margin = JobSpec {
            margin_bits: 0.0f64.to_bits(),
            ..on.clone()
        };
        assert_eq!(cache_key(&on, &q), cache_key(&on_zero_margin, &q));
        let on_margin = JobSpec {
            margin_bits: 0.5f64.to_bits(),
            ..on.clone()
        };
        assert_ne!(cache_key(&on, &q), cache_key(&on_margin, &q));
        let prev_a = JobSpec {
            prev: Some("assignment demo\norder 1 2\n".to_owned()),
            ..on.clone()
        };
        let prev_a_again = prev_a.clone();
        let prev_b = JobSpec {
            prev: Some("assignment demo\norder 2 1\n".to_owned()),
            ..on.clone()
        };
        assert_ne!(cache_key(&on, &q), cache_key(&prev_a, &q));
        assert_eq!(cache_key(&prev_a, &q), cache_key(&prev_a_again, &q));
        assert_ne!(cache_key(&prev_a, &q), cache_key(&prev_b, &q));
    }

    #[test]
    fn a_replan_job_warm_starts_from_the_previous_plan() {
        let text =
            "quadrant demo\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\nnet 5 power\n";
        let (name, q) = parse_quadrant(text).expect("valid circuit");
        let cold_spec = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        let cold = execute_job(&cold_spec, &name, &q, &CancelToken::new()).expect("cold plan");
        let warm_spec = JobSpec {
            prev: Some(cold.assignment.clone()),
            ..cold_spec.clone()
        };
        let warm = execute_job(&warm_spec, &name, &q, &CancelToken::new()).expect("warm plan");
        assert!(warm.report.contains("after replan"), "{}", warm.report);
        assert!(!cold.report.contains("after replan"), "{}", cold.report);
        // The warm result is a complete assignment of the same instance.
        let (_, parsed) = parse_assignment(&warm.assignment).expect("warm output parses");
        assert_eq!(parsed.net_count(), q.net_count());
        // A previous plan that is not an assignment file is a typed
        // bad-request, not a panic.
        let junk = JobSpec {
            prev: Some("not an assignment".to_owned()),
            ..cold_spec
        };
        let err = execute_job(&junk, &name, &q, &CancelToken::new()).expect_err("junk prev");
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn portfolio_executor_reports_the_winner_and_matches_the_plain_kernel_at_k1() {
        // The exchange pass needs power pads; extend the fixture.
        let text =
            "quadrant demo\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\nnet 5 power\n";
        let (name, q) = parse_quadrant(text).expect("valid circuit");
        let single = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        let multi = JobSpec {
            starts: 4,
            ..single.clone()
        };
        let solo = execute_job(&single, &name, &q, &CancelToken::new()).expect("solo");
        let port = execute_job(&multi, &name, &q, &CancelToken::new()).expect("portfolio");
        assert!(port.report.contains("portfolio K=4 winner start "));
        assert!(!solo.report.contains("portfolio"));
        // The portfolio's final cost can only match or beat the
        // single-start run (start 0 anneals with the base seed itself).
        let final_cost = |r: &str| -> f64 {
            let line = r
                .lines()
                .find(|l| l.contains("after exchange"))
                .expect("after-exchange line");
            let tail = line.split("(cost ").nth(1).expect("cost fragment");
            let after = tail.split(" -> ").nth(1).expect("final cost");
            after
                .split(')')
                .next()
                .expect("closing paren")
                .parse()
                .expect("parseable cost")
        };
        assert!(final_cost(&port.report) <= final_cost(&solo.report));
    }

    #[test]
    fn executor_matches_the_paper_worked_example() {
        let (name, q) = circuit();
        let spec = JobSpec::new("");
        let out = execute_job(&spec, &name, &q, &CancelToken::new()).expect("plan succeeds");
        // DFA with slack 1 reproduces Fig. 12's order.
        assert!(out.report.contains("order: 10,11,1,2,6,3,4,9,5,7,8,0"));
        assert!(out.assignment.contains("order 10 11 1 2 6 3 4 9 5 7 8 0"));
        assert_eq!(out.name, "demo");
    }

    fn profile_for(q: &Quadrant, tuned: ClassConfig) -> TuneProfile {
        TuneProfile {
            seed: 0xC0DE,
            space_fingerprint: 1,
            classes: vec![(classify_quadrant(q), tuned)],
        }
    }

    #[test]
    fn the_key_folds_the_profile_only_when_requested_and_loaded() {
        let (_, q) = circuit();
        let plain = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        let tuned = JobSpec {
            profile: true,
            ..plain.clone()
        };
        let profile = profile_for(&q, ClassConfig::default_config());
        // Without the flag the loaded profile is inert: pre-profile
        // keys stay stable even on a daemon that has one loaded.
        assert_eq!(
            cache_key_with(&plain, &q, None),
            cache_key_with(&plain, &q, Some(&profile))
        );
        assert_eq!(cache_key(&plain, &q), cache_key_with(&plain, &q, None));
        // With the flag and a loaded profile the key separates, and two
        // different profiles never collide.
        assert_ne!(
            cache_key_with(&plain, &q, Some(&profile)),
            cache_key_with(&tuned, &q, Some(&profile))
        );
        let other = profile_for(
            &q,
            ClassConfig {
                cooling: 0.85,
                ..ClassConfig::default_config()
            },
        );
        assert_ne!(
            cache_key_with(&tuned, &q, Some(&profile)),
            cache_key_with(&tuned, &q, Some(&other))
        );
    }

    #[test]
    fn a_profile_widens_a_default_job_into_its_tuned_portfolio() {
        let text =
            "quadrant demo\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\nnet 5 power\n";
        let (name, q) = parse_quadrant(text).expect("valid circuit");
        let spec = JobSpec {
            exchange: true,
            profile: true,
            ..JobSpec::new("")
        };
        let profile = profile_for(
            &q,
            ClassConfig {
                starts: 2,
                ..ClassConfig::default_config()
            },
        );
        let run = execute_job_full(
            &spec,
            &name,
            &q,
            &CancelToken::new(),
            Some(&profile),
            1,
            &mut NoopRecorder,
        )
        .expect("tuned plan");
        assert!(run.report.contains("portfolio K=2"), "{}", run.report);
        // An unknown class falls back to the built-in default class
        // config (which carries the default K=4 portfolio): same bytes
        // as a profile-less job submitted with those knobs spelled out.
        let empty = TuneProfile {
            seed: 0xC0DE,
            space_fingerprint: 1,
            classes: Vec::new(),
        };
        let fallback = execute_job_full(
            &spec,
            &name,
            &q,
            &CancelToken::new(),
            Some(&empty),
            1,
            &mut NoopRecorder,
        )
        .expect("fallback plan");
        let plain_spec = JobSpec {
            profile: false,
            starts: PortfolioConfig::default().starts,
            ..spec.clone()
        };
        let plain = execute_job(&plain_spec, &name, &q, &CancelToken::new()).expect("plain plan");
        assert_eq!(fallback, plain);
    }

    #[test]
    fn a_cancelled_token_surfaces_as_timeout() {
        let (name, q) = circuit();
        let spec = JobSpec {
            exchange: true,
            ..JobSpec::new("")
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = execute_job(&spec, &name, &q, &cancel).expect_err("cancelled");
        assert_eq!(err.kind, ErrorKind::Timeout);
    }
}
