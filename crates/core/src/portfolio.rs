//! Parallel multi-start exchange portfolio with deterministic best-of
//! reduction.
//!
//! One SA trajectory (paper Fig. 14) is seed-sensitive: a single unlucky
//! start can land far from the Table 3 improvements. The portfolio runs
//! `K` independently-seeded starts of the same instance and keeps the
//! best, with two properties that make it safe to wire through the whole
//! stack:
//!
//! * **Thread-count invariance.** Every decision that influences the
//!   result — per-start seeds, prune verdicts, the final reduction — is
//!   made at synchronisation barriers in *start-index order*, never in
//!   thread-completion order. `threads = 1` and `threads = N` produce
//!   byte-identical winners (asserted by tests here and property-tested
//!   in `copack-verify`).
//! * **Never worse than one start.** Start 0 anneals with the base seed
//!   itself ([`derive_seed`]`(base, 0) == base`) and is exempt from
//!   pruning and from tempering swaps — it always runs its full
//!   schedule at the base temperatures, exactly as a plain
//!   [`crate::exchange`] with the same seed would — and the reduction
//!   picks the minimum best-so-far cost, so the portfolio's winner costs
//!   at most what the single-start run would. (Pruning start 0 on an
//!   early trailing position would break this: a trajectory behind at a
//!   barrier can still finish ahead.)
//!
//! # Execution model
//!
//! The cooling schedule is cut into [`PortfolioConfig::sync_epochs`]
//! segments. Each *round*, every live start advances one epoch (on up to
//! [`PortfolioConfig::threads`] OS threads); at the barrier any start
//! whose best-so-far trails the **baseline** (start 0's best-so-far) by
//! more than [`PortfolioConfig::prune_margin`] (relative) is abandoned —
//! its driver is dropped, its best cost *and best-prefix journal* frozen
//! as a reduction candidate, and (budget permitting) a freshly-seeded
//! replacement start joins the next round. Replacements take seeds
//! `derive_seed(base, K + j)` so the seed stream never depends on timing.
//! The final epoch runs the schedule to completion, absorbing the
//! ±1-step float rounding of the epoch split.
//!
//! Pruning against the baseline rather than the global leader keeps the
//! verdicts **independent of `K`**: start `k`'s trajectory, and the epoch
//! at which it is pruned, are the same in every portfolio that contains
//! it. Widening the portfolio therefore only *adds* candidates to the
//! final reduction, so the winner's cost is monotone in `K` (pinned by
//! `tests/quality_regression.rs`). Leader-relative pruning broke this:
//! a wider portfolio tightens the early-epoch threshold and can abandon —
//! mid-descent — the very trajectory a narrower portfolio would have
//! carried to the win.
//!
//! The winner's accepted-move journal (and best-prefix length) is
//! returned so the `copack-verify` oracles can replay the trajectory
//! unchanged; [`replay_journal`] is the replay helper.
//!
//! # Cooperative modes
//!
//! [`PortfolioMode`] selects how the starts relate: `race` (the default,
//! bit-identical to the pre-mode portfolio), `coop` (leader crossover on
//! respawn plus an adaptive prune margin) and `temper` (a parallel
//! tempering ladder with deterministic Metropolis swaps at epoch
//! barriers). All three keep the byte-identical-across-threads contract:
//! every mode-specific decision — the crossover parent, the kick swaps,
//! the adaptive margin, each swap verdict — is taken at the barrier, in
//! start-index order, from values that do not depend on thread
//! scheduling. A crossover respawn's journal is re-based onto the
//! portfolio's initial order by storing the parent's best prefix (plus
//! kick swaps) and prepending it on reduction, so the replay contract
//! holds in every mode.

use copack_geom::{Assignment, FingerIdx, Quadrant, StackConfig};
use copack_obs::{Event, NoopRecorder, Recorder, TraceBuffer};
use copack_route::RangeCache;

use crate::exchange::{slot_tables, ExchangeDriver, NO_NET};
use crate::package_plan::{effective_threads, join_workers};
use crate::{CancelToken, CoreError, ExchangeConfig, ExchangeResult};

/// How the portfolio's starts relate to each other.
///
/// `Race` is the original independent-racing model and the default
/// everywhere (CLI, serve, tune): its results, cache keys and goldens
/// are bit-identical to portfolios that predate the cooperative modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PortfolioMode {
    /// Independent racing: starts never exchange information, pruned
    /// slots respawn from a fresh seed, and the prune margin is the
    /// constant [`PortfolioConfig::prune_margin`]. Prune verdicts are
    /// `K`-invariant, so the winner's cost is monotone in `K`.
    #[default]
    Race,
    /// Cooperative ensemble: a pruned slot respawns from the current
    /// leader's best-prefix plan perturbed by a seeded
    /// [`PortfolioConfig::kick_size`]-swap kick, and the prune margin
    /// widens from the observed cross-start cost spread at each epoch
    /// barrier (never below the configured base margin, so every start
    /// that survives a `Race` portfolio also survives here).
    Coop,
    /// Parallel tempering: start `r` anneals on temperature rung
    /// `initial_temp_factor · ladder_ratio^r`, cooling faster so that
    /// every rung reaches the base final temperature in the base step
    /// count; nothing is ever pruned, and adjacent rungs propose a
    /// deterministic Metropolis swap of thermal states at each epoch
    /// barrier (even pairs on even barriers, odd pairs on odd ones).
    /// Rung 0 never swaps, so it anneals exactly as start 0 does in
    /// the other modes.
    Temper,
}

impl PortfolioMode {
    /// Stable lowercase tag, used by the CLI, the wire protocol, cache
    /// keys and `.tune` profiles.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Race => "race",
            Self::Coop => "coop",
            Self::Temper => "temper",
        }
    }

    /// Parses [`PortfolioMode::as_str`] back; `None` for unknown tags.
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        match tag {
            "race" => Some(Self::Race),
            "coop" => Some(Self::Coop),
            "temper" => Some(Self::Temper),
            _ => None,
        }
    }
}

/// Configuration of a multi-start exchange portfolio.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioConfig {
    /// Number of independently-seeded starts, `K ≥ 1`. `K = 1` runs the
    /// plain kernel (bit-identical to [`crate::exchange`]).
    pub starts: u32,
    /// Relative prune margin: at each sync epoch a start is abandoned
    /// when `best > baseline + prune_margin · (|baseline| + 1)`, where
    /// `baseline` is start 0's best-so-far. `0.0` prunes every start
    /// trailing the baseline; `f64::INFINITY` disables pruning. Start 0
    /// (the caller's seed) is never pruned regardless of margin, so the
    /// threshold — and with it every prune verdict — is the same in every
    /// portfolio width `K`.
    pub prune_margin: f64,
    /// Number of synchronisation epochs the cooling schedule is cut
    /// into, `≥ 1`. More epochs prune earlier but synchronise more often.
    pub sync_epochs: u32,
    /// Worker threads (`0` = available parallelism, `1` = serial). Has
    /// no effect on results, only on wall clock.
    pub threads: usize,
    /// How the starts cooperate. Defaults to [`PortfolioMode::Race`].
    pub mode: PortfolioMode,
    /// `Coop` only: number of seeded adjacent swaps a crossover respawn
    /// applies to the leader's plan before re-annealing, `≥ 1`. Inert in
    /// the other modes.
    pub kick_size: u32,
    /// `Temper` only: geometric spacing of the temperature ladder,
    /// `≥ 1.0` and finite (rung `r` heats the initial temperature by
    /// `ladder_ratio^r`; `1.0` collapses the ladder onto one rung).
    /// Inert in the other modes.
    pub ladder_ratio: f64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        Self {
            starts: 4,
            prune_margin: 0.25,
            sync_epochs: 4,
            threads: 0,
            mode: PortfolioMode::Race,
            kick_size: 4,
            ladder_ratio: 1.5,
        }
    }
}

impl PortfolioConfig {
    /// Whether the configuration is usable.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.starts >= 1
            && self.sync_epochs >= 1
            && self.prune_margin >= 0.0
            && self.kick_size >= 1
            && self.ladder_ratio.is_finite()
            && self.ladder_ratio >= 1.0
    }
}

/// Outcome of one start, reported whether it won, lost or was pruned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartReport {
    /// Start index: `0..K` are the original starts, `K..` replacements.
    pub start: u32,
    /// The derived seed the start annealed with.
    pub seed: u64,
    /// Best Eq. 3 cost the start reached before finishing (or being
    /// frozen by a prune).
    pub best_cost: f64,
    /// The start's sync epoch at which it was pruned, if it was.
    pub pruned_at: Option<u32>,
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioResult {
    /// The winning start's [`ExchangeResult`] (assignment + stats),
    /// exactly as a solo run with the winning seed would return it.
    pub result: ExchangeResult,
    /// Index of the winning start.
    pub winner_start: u32,
    /// Seed the winning start annealed with.
    pub winner_seed: u64,
    /// The winner's accepted-move journal (1-based finger-slot pairs).
    pub journal: Vec<(u32, u32)>,
    /// Length of the journal prefix that produced the winner's best cost.
    pub best_len: usize,
    /// Per-start outcomes in start-index order (originals then
    /// replacements).
    pub starts: Vec<StartReport>,
}

impl PortfolioResult {
    /// Number of starts that were pruned.
    #[must_use]
    pub fn pruned(&self) -> usize {
        self.starts.iter().filter(|s| s.pruned_at.is_some()).count()
    }
}

/// Derives the seed of start `k` from the portfolio's base seed.
///
/// Start 0 keeps the base seed itself, so every portfolio contains the
/// plain single-start trajectory and `K = 1` is bit-identical to
/// [`crate::exchange`]. Starts `k ≥ 1` (and pruned-start replacements,
/// which take `k = K, K+1, …`) use the SplitMix64 finalizer over
/// `base + k·γ` — statistically independent streams from one u64, with
/// no RNG state to thread between starts.
#[must_use]
pub fn derive_seed(base: u64, k: u32) -> u64 {
    if k == 0 {
        return base;
    }
    let mut z = base.wrapping_add(u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays `best_len` journal entries onto `initial` — the reduction the
/// kernel itself performs, exposed so the `copack-verify` oracles can
/// reproduce a portfolio winner from its journal.
///
/// # Errors
///
/// Propagates [`Assignment::swap`] failures (an out-of-range slot means
/// the journal does not belong to this instance).
pub fn replay_journal(
    initial: &Assignment,
    journal: &[(u32, u32)],
    best_len: usize,
) -> Result<Assignment, CoreError> {
    let mut a = initial.clone();
    for &(x, y) in &journal[..best_len] {
        a.swap(FingerIdx::new(x), FingerIdx::new(y))?;
    }
    Ok(a)
}

/// Salt folded into the base seed before deriving a crossover kick
/// stream, so kick randomness never collides with the per-start
/// annealing seeds derived from the same base.
const KICK_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Metropolis acceptance probability of a tempering swap between two
/// rungs holding states of cost `cost_a`/`cost_b` at temperatures
/// `temp_a`/`temp_b`: `min(1, exp((1/Tₐ − 1/T_b)(Eₐ − E_b)))`.
///
/// Exposed so `tests/tempering_invariants.rs` can re-derive every swap
/// verdict from the `PortfolioSwap` event fields alone.
#[must_use]
pub fn tempering_swap_probability(cost_a: f64, cost_b: f64, temp_a: f64, temp_b: f64) -> f64 {
    let beta_a = 1.0 / temp_a.max(f64::MIN_POSITIVE);
    let beta_b = 1.0 / temp_b.max(f64::MIN_POSITIVE);
    ((beta_a - beta_b) * (cost_a - cost_b)).exp().min(1.0)
}

/// The uniform draw a tempering swap compares against: the SplitMix64
/// finalizer over `(seed, epoch, rung)`, mapped to `[0, 1)`. Epoch-major
/// and start-indexed, so the verdict is a pure function of the barrier —
/// never of thread scheduling.
#[must_use]
pub fn tempering_swap_draw(seed: u64, epoch: u32, rung: u32) -> f64 {
    let lane = (u64::from(epoch) << 32) | u64::from(rung);
    let mut z = seed
        .wrapping_add(0x632B_E592_86AA_633B)
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether the rung pair `(rung, rung+1)` swaps thermal states at
/// `epoch`: draw < probability, both sides deterministic functions of
/// `(seed, epoch, rung, costs, temps)`.
#[must_use]
pub fn tempering_swap_accepts(
    seed: u64,
    epoch: u32,
    rung: u32,
    cost_a: f64,
    cost_b: f64,
    temp_a: f64,
    temp_b: f64,
) -> bool {
    tempering_swap_draw(seed, epoch, rung)
        < tempering_swap_probability(cost_a, cost_b, temp_a, temp_b)
}

/// Applies up to `kick_size` seeded adjacent swaps to `a`, each checked
/// against the kernel's own range constraint (mover's target inside its
/// span, displaced neighbour's new slot inside its own), and returns the
/// journal entries of the swaps actually applied. Proposals that fail
/// the constraint are skipped, bounded by `8 · kick_size` attempts, so a
/// tightly-constrained instance degrades to a smaller (possibly empty)
/// kick instead of looping.
fn kick_plan(
    quadrant: &Quadrant,
    a: &mut Assignment,
    seed: u64,
    kick_size: u32,
) -> Result<Vec<(u32, u32)>, CoreError> {
    let alpha = a.finger_count();
    if alpha < 2 {
        return Ok(Vec::new());
    }
    let mut cache = RangeCache::new(quadrant, a)?;
    let (mut pos1, mut slot_net) = slot_tables(quadrant, a);
    let mut swaps = Vec::with_capacity(kick_size as usize);
    let mut state = seed;
    for _ in 0..kick_size.saturating_mul(8) {
        if swaps.len() >= kick_size as usize {
            break;
        }
        // SplitMix64 step → left slot of the proposed adjacent pair.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let s = 1 + u32::try_from(z % (alpha as u64 - 1)).expect("slot fits u32");
        let (li, ri) = (slot_net[(s - 1) as usize], slot_net[s as usize]);
        if li == NO_NET || ri == NO_NET {
            continue;
        }
        let (li, ri) = (li as usize, ri as usize);
        let (llo, lhi) = cache.range(li);
        if s + 1 < llo || s + 1 > lhi {
            continue;
        }
        let (rlo, rhi) = cache.range(ri);
        if s < rlo || s > rhi {
            continue;
        }
        a.swap(FingerIdx::new(s), FingerIdx::new(s + 1))?;
        slot_net.swap((s - 1) as usize, s as usize);
        pos1[li] = s + 1;
        pos1[ri] = s;
        cache.note_moved(li, &pos1);
        cache.note_moved(ri, &pos1);
        swaps.push((s, s + 1));
    }
    Ok(swaps)
}

/// One start's in-flight state.
struct Run<'a> {
    start: u32,
    seed: u64,
    driver: Option<ExchangeDriver<'a>>,
    buffer: TraceBuffer,
    /// Epochs this run has completed.
    epochs_done: u32,
    pruned_at: Option<u32>,
    /// Best cost, frozen at prune time (mirrors the driver's while live).
    frozen_best: f64,
    /// The best-prefix journal and stats frozen at prune time, kept as a
    /// best-of candidate so abandoning a start never discards its
    /// trajectory from the reduction.
    frozen: Option<crate::exchange::FrozenRun>,
    /// Journal prefix this run's driver was seeded from, relative to the
    /// *portfolio's* initial order. Empty for fresh starts; a `Coop`
    /// crossover respawn carries its parent's best prefix plus the kick
    /// swaps here, so `prefix ++ own journal` always replays from the
    /// global initial.
    prefix: Vec<(u32, u32)>,
    failure: Option<CoreError>,
}

impl Run<'_> {
    fn best_cost(&self) -> f64 {
        self.driver
            .as_ref()
            .map_or(self.frozen_best, ExchangeDriver::best_cost)
    }

    fn is_finished(&self) -> bool {
        self.driver.as_ref().map_or(true, ExchangeDriver::is_done)
    }

    /// Advances this run's next epoch (`budget` steps, or to the end on
    /// the final epoch). Failures are parked in `self.failure` so the
    /// threaded path needs no cross-thread error channel.
    fn advance_epoch(&mut self, budget: usize, last: bool, rec_on: bool, cancel: &CancelToken) {
        let Some(driver) = &mut self.driver else {
            return;
        };
        if driver.is_done() {
            return;
        }
        let outcome = if rec_on {
            if last {
                driver.run_to_end(&mut self.buffer, cancel)
            } else {
                driver.advance(budget, &mut self.buffer, cancel)
            }
        } else {
            let mut noop = NoopRecorder;
            if last {
                driver.run_to_end(&mut noop, cancel)
            } else {
                driver.advance(budget, &mut noop, cancel)
            }
        };
        self.epochs_done += 1;
        if let Err(e) = outcome {
            self.failure = Some(e);
        }
    }
}

/// Runs a `K`-start exchange portfolio and returns the deterministic
/// best-of reduction. See the module docs for the execution model.
///
/// # Errors
///
/// As [`crate::exchange`], plus [`CoreError::BadConfig`] for an invalid
/// [`PortfolioConfig`].
pub fn exchange_portfolio(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    portfolio: &PortfolioConfig,
) -> Result<PortfolioResult, CoreError> {
    exchange_portfolio_traced(
        quadrant,
        initial,
        stack,
        config,
        portfolio,
        &mut NoopRecorder,
    )
}

/// [`exchange_portfolio`] with telemetry.
///
/// Each start records into a private [`TraceBuffer`]; the buffers are
/// merged into `recorder` in start-index order after the last round, so
/// the merged trace is identical for every thread count. Each start's
/// trace opens with [`Event::PortfolioStart`] and, if it was abandoned,
/// closes with [`Event::PortfolioPrune`]; only the winner emits
/// `RunEnd`.
///
/// # Errors
///
/// As [`exchange_portfolio`].
pub fn exchange_portfolio_traced(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    portfolio: &PortfolioConfig,
    recorder: &mut dyn Recorder,
) -> Result<PortfolioResult, CoreError> {
    exchange_portfolio_cancellable(
        quadrant,
        initial,
        stack,
        config,
        portfolio,
        recorder,
        &CancelToken::default(),
    )
}

/// [`exchange_portfolio_traced`] honoring a [`CancelToken`] (polled by
/// every live start; the first cancellation, in start-index order, is
/// propagated).
///
/// # Errors
///
/// As [`exchange_portfolio`], plus [`CoreError::Cancelled`].
pub fn exchange_portfolio_cancellable(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    portfolio: &PortfolioConfig,
    recorder: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<PortfolioResult, CoreError> {
    if !portfolio.is_valid() {
        return Err(CoreError::BadConfig {
            parameter: "portfolio",
        });
    }
    let k = portfolio.starts;
    let epochs = portfolio.sync_epochs;
    let total_steps = config.schedule.temperature_steps();
    let rec_on = recorder.enabled();
    let rec_rejected = rec_on && recorder.wants_rejected();

    /// Everything a `Coop` crossover respawn starts from: the kicked
    /// plan, its journal relative to the portfolio's initial order, and
    /// the provenance the `PortfolioCrossover` event reports.
    struct CrossoverSpawn {
        plan: Assignment,
        prefix: Vec<(u32, u32)>,
        parent: u32,
        parent_cost: f64,
        epoch: u32,
        kick: u32,
    }

    let mode = portfolio.mode;
    let spawn = |start: u32, cross: Option<CrossoverSpawn>| -> Result<Run<'_>, CoreError> {
        let seed = derive_seed(config.seed, start);
        let mut cfg = ExchangeConfig {
            seed,
            ..config.clone()
        };
        if mode == PortfolioMode::Temper && start > 0 {
            // Temperature rung `start` starts `heat` times hotter and
            // cools faster by `heat^(-1/steps)` per step, so it reaches
            // the base final temperature in the base step count: the
            // ladder stays in lockstep, and every rung ends as cold as a
            // `race` start.
            let heat = portfolio
                .ladder_ratio
                .powi(i32::try_from(start).expect("start index fits i32"));
            let steps = total_steps as f64;
            cfg.schedule.initial_temp_factor *= heat;
            cfg.schedule.final_temp_ratio /= heat;
            cfg.schedule.cooling *= heat.powf(-steps.recip());
        }
        let (plan, prefix, origin) = match cross {
            Some(c) => (
                Some(c.plan),
                c.prefix,
                Some((c.parent, c.parent_cost, c.epoch, c.kick)),
            ),
            None => (None, Vec::new(), None),
        };
        let mut buffer = if rec_rejected {
            TraceBuffer::with_rejected()
        } else {
            TraceBuffer::new()
        };
        let from = plan.as_ref().unwrap_or(initial);
        let driver = if rec_on {
            buffer.push(Event::PortfolioStart { start, seed });
            if let Some((parent, parent_cost, epoch, kick)) = origin {
                buffer.push(Event::PortfolioCrossover {
                    start,
                    parent,
                    epoch,
                    kick,
                    parent_cost,
                });
            }
            ExchangeDriver::new(quadrant, from, stack, &cfg, &mut buffer)?
        } else {
            ExchangeDriver::new(quadrant, from, stack, &cfg, &mut NoopRecorder)?
        };
        Ok(Run {
            start,
            seed,
            driver: Some(driver),
            buffer,
            epochs_done: 0,
            pruned_at: None,
            frozen_best: f64::INFINITY,
            frozen: None,
            prefix,
            failure: None,
        })
    };

    let mut runs: Vec<Run<'_>> = (0..k).map(|s| spawn(s, None)).collect::<Result<_, _>>()?;
    // Replacement budget: at most K extra starts over the whole run, so
    // aggressive margins cannot spawn unboundedly.
    let mut replacements_left = k;
    let mut next_start = k;

    // Integer split of the schedule into epochs; the final epoch runs to
    // the true end of the schedule instead of a step count, absorbing the
    // ±1-step rounding of `temperature_steps()`.
    let budget_of = |epoch: u32| -> usize {
        let (e, n) = (epoch as usize, epochs as usize);
        ((e + 1) * total_steps) / n - (e * total_steps) / n
    };

    while runs.iter().any(|r| !r.is_finished()) {
        // Advance every live, unfinished run one epoch.
        let workers = effective_threads(portfolio.threads).min(runs.len()).max(1);
        if workers == 1 {
            for run in &mut runs {
                let epoch = run.epochs_done;
                run.advance_epoch(budget_of(epoch), epoch + 1 >= epochs, rec_on, cancel);
            }
        } else {
            let chunk = runs.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for slice in runs.chunks_mut(chunk) {
                    handles.push(scope.spawn(move || {
                        for run in slice {
                            let epoch = run.epochs_done;
                            run.advance_epoch(
                                budget_of(epoch),
                                epoch + 1 >= epochs,
                                rec_on,
                                cancel,
                            );
                        }
                    }));
                }
                join_workers(handles);
            });
        }
        // Barrier: propagate the first failure in start-index order.
        for run in &mut runs {
            if let Some(e) = run.failure.take() {
                return Err(e);
            }
        }
        // The barrier index every epoch-major decision below keys on:
        // start 0 (always `runs[0]`, never pruned) has completed exactly
        // one epoch per round.
        let barrier_epoch = runs[0].epochs_done.saturating_sub(1);

        if mode == PortfolioMode::Temper {
            // Parallel tempering: no pruning — every rung survives to the
            // end — and adjacent rungs propose a Metropolis swap of
            // thermal states while the whole ladder is still live.
            // Even-indexed pairs on even barriers, odd-indexed on odd
            // ones, each verdict a pure function of (seed, barrier, rung,
            // current costs, temperatures) — epoch-major, so threads
            // 1 and N agree bit-for-bit. Rung 0 never swaps: it is the
            // caller's plain anneal, as start 0 is in the other modes,
            // so the winner is never worse than a single start.
            if runs.len() > 1 && runs.iter().all(|r| !r.is_finished()) {
                let mut i = if barrier_epoch % 2 == 0 { 2 } else { 1 };
                while i + 1 < runs.len() {
                    let (head, tail) = runs.split_at_mut(i + 1);
                    let ra = &mut head[i];
                    let rb = &mut tail[0];
                    if let (Some(da), Some(db)) = (ra.driver.as_mut(), rb.driver.as_mut()) {
                        let (cost_a, cost_b) = (da.current_cost(), db.current_cost());
                        let (temp_a, temp_b) = (da.temperature(), db.temperature());
                        let accepted = tempering_swap_accepts(
                            config.seed,
                            barrier_epoch,
                            u32::try_from(i).expect("rung index fits u32"),
                            cost_a,
                            cost_b,
                            temp_a,
                            temp_b,
                        );
                        if accepted {
                            da.swap_thermal(db);
                        }
                        if rec_on {
                            ra.buffer.push(Event::PortfolioSwap {
                                epoch: barrier_epoch,
                                start_a: ra.start,
                                start_b: rb.start,
                                cost_a,
                                cost_b,
                                temp_a,
                                temp_b,
                                accepted,
                            });
                        }
                    }
                    i += 2;
                }
            }
            continue;
        }

        // Prune verdicts, in start-index order against the baseline —
        // start 0's best-so-far. Start 0 is exempt: it carries the
        // caller's seed, always survives (so at least one start does),
        // and keeping it alive to the end makes the K-start winner never
        // worse than the K = 1 run. In `Race` the threshold depends only
        // on start 0's (K-invariant) trajectory, so each start is pruned
        // at the same epoch in every portfolio that contains it — the
        // property that makes the winner's cost monotone in K.
        let baseline_best = runs
            .iter()
            .find(|r| r.start == 0)
            .expect("start 0 is never removed")
            .best_cost();
        let margin = if mode == PortfolioMode::Coop {
            // Adaptive margin: widen to the observed relative best-cost
            // spread of the live starts, clamped to [base, 4·base].
            // Widen-only, so every original start that survives a `Race`
            // portfolio (identical trajectory, identical barrier costs)
            // also survives here; folding min/max in start-index order
            // keeps the value bit-identical for every thread count.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut live = 0u32;
            for run in &runs {
                if run.driver.is_some() {
                    let b = run.best_cost();
                    lo = lo.min(b);
                    hi = hi.max(b);
                    live += 1;
                }
            }
            let spread = ((hi - lo) / (baseline_best.abs() + 1.0)).max(0.0);
            let widened = spread.clamp(portfolio.prune_margin, 4.0 * portfolio.prune_margin);
            if rec_on {
                runs[0].buffer.push(Event::PortfolioMargin {
                    epoch: barrier_epoch,
                    margin: widened,
                    spread,
                    live,
                });
            }
            widened
        } else {
            portfolio.prune_margin
        };
        let threshold = margin.mul_add(baseline_best.abs() + 1.0, baseline_best);
        let mut spawn_requests = 0u32;
        for run in &mut runs {
            if run.start == 0 || run.driver.is_none() || run.is_finished() {
                continue;
            }
            let best = run.best_cost();
            if best > threshold {
                run.frozen_best = best;
                run.pruned_at = Some(run.epochs_done.saturating_sub(1));
                // Fold the pruned trajectory into the reduction instead
                // of discarding it with the driver.
                run.frozen = run.driver.as_ref().map(ExchangeDriver::freeze);
                run.driver = None;
                if rec_on {
                    run.buffer.push(Event::PortfolioPrune {
                        start: run.start,
                        epoch: run.epochs_done.saturating_sub(1),
                        best_cost: best,
                        global_best: baseline_best,
                    });
                }
                if replacements_left > 0 {
                    replacements_left -= 1;
                    spawn_requests += 1;
                }
            }
        }
        if spawn_requests > 0 && mode == PortfolioMode::Coop {
            // Crossover respawns: seed each replacement from the current
            // leader's best-prefix plan, perturbed by a deterministic
            // `kick_size`-swap kick. The leader is chosen by the same
            // (best cost, start index) order as the final reduction, over
            // live and just-frozen trajectories alike, so the choice is
            // thread-count invariant.
            let leader = runs
                .iter()
                .filter(|r| r.driver.is_some() || r.frozen.is_some())
                .min_by(|a, b| {
                    a.best_cost()
                        .partial_cmp(&b.best_cost())
                        .expect("costs are finite")
                        .then(a.start.cmp(&b.start))
                })
                .expect("start 0 is never removed");
            let mut full = leader.prefix.clone();
            match (&leader.driver, &leader.frozen) {
                (Some(d), _) => full.extend(d.journal().take(d.best_len())),
                (None, Some(f)) => full.extend_from_slice(&f.0[..f.1]),
                (None, None) => unreachable!("leader candidates hold a driver or a frozen run"),
            }
            let (parent, parent_cost) = (leader.start, leader.best_cost());
            for _ in 0..spawn_requests {
                let mut plan = replay_journal(initial, &full, full.len())?;
                let kick_seed = derive_seed(config.seed ^ KICK_SALT, next_start);
                let kicks = kick_plan(quadrant, &mut plan, kick_seed, portfolio.kick_size)?;
                let mut prefix = full.clone();
                prefix.extend_from_slice(&kicks);
                let run = spawn(
                    next_start,
                    Some(CrossoverSpawn {
                        plan,
                        prefix,
                        parent,
                        parent_cost,
                        epoch: barrier_epoch,
                        kick: u32::try_from(kicks.len()).expect("kick count fits u32"),
                    }),
                )?;
                next_start += 1;
                runs.push(run);
            }
        } else {
            for _ in 0..spawn_requests {
                let run = spawn(next_start, None)?;
                next_start += 1;
                runs.push(run);
            }
        }
    }

    // Deterministic reduction: minimum (best cost, start index) over
    // *every* run — live finishers and pruned starts' frozen journals
    // alike. (A pruned run's frozen best strictly exceeded the baseline's
    // best-so-far when it was dropped, and the baseline only improves, so
    // in practice a frozen candidate never wins — but folding it in keeps
    // the reduction correct under any future prune rule, and the frozen
    // journal is what the replay path needs if one ever does.)
    let winner_idx = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.driver.is_some() || r.frozen.is_some())
        .min_by(|(_, a), (_, b)| {
            a.best_cost()
                .partial_cmp(&b.best_cost())
                .expect("costs are finite")
                .then(a.start.cmp(&b.start))
        })
        .map(|(i, _)| i)
        .expect("start 0 is never pruned");

    // Finish the winner (rematerialise + RunEnd into its own buffer),
    // then merge every start's trace in start-index order. A pruned
    // winner rematerialises from its frozen best-prefix journal.
    let (result, journal, best_len) = {
        let run = &mut runs[winner_idx];
        // A crossover winner's own journal is relative to its kicked
        // starting plan; prepending the stored prefix re-bases it onto
        // the portfolio's initial order, so the replay contract — and
        // every `copack-verify` oracle built on it — holds in all modes.
        // For fresh starts the prefix is empty and nothing changes.
        let prefix = std::mem::take(&mut run.prefix);
        if let Some(driver) = run.driver.as_mut() {
            let result = if rec_on {
                driver.finish(&mut run.buffer)?
            } else {
                driver.finish(&mut NoopRecorder)?
            };
            let best_len = prefix.len() + driver.best_len();
            let mut journal = prefix;
            journal.extend(driver.journal());
            (result, journal, best_len)
        } else {
            let (own, own_best, stats) = run.frozen.take().expect("pruned winner was frozen");
            let best_len = prefix.len() + own_best;
            let mut journal = prefix;
            journal.extend_from_slice(&own);
            let assignment = replay_journal(initial, &journal, best_len)?;
            (ExchangeResult { assignment, stats }, journal, best_len)
        }
    };
    let mut starts = Vec::with_capacity(runs.len());
    for run in &mut runs {
        starts.push(StartReport {
            start: run.start,
            seed: run.seed,
            best_cost: run.best_cost(),
            pruned_at: run.pruned_at,
        });
        if rec_on {
            for event in run.buffer.events() {
                recorder.record(event);
            }
        }
    }
    let winner = &runs[winner_idx];
    Ok(PortfolioResult {
        result,
        winner_start: winner.start,
        winner_seed: winner.seed,
        journal,
        best_len,
        starts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exchange, random_assignment, Schedule};
    use copack_geom::NetKind;

    fn fast_config(seed: u64) -> ExchangeConfig {
        ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 2,
                final_temp_ratio: 1e-2,
                ..Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        }
    }

    /// Fig. 5 instance with power nets sprinkled in (the exchange test
    /// fixture) plus a random initial order.
    fn case() -> (Quadrant, Assignment) {
        let q = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(9u32, NetKind::Power)
            .net_kind(0u32, NetKind::Ground)
            .build()
            .expect("fixture builds");
        let a = random_assignment(&q, 7).expect("assignable");
        (q, a)
    }

    /// A 48-finger, 4-row instance: big enough that different seeds reach
    /// genuinely different best costs, so pruning has something to do.
    fn big_case() -> (Quadrant, Assignment) {
        let mut b = Quadrant::builder();
        let mut id = 0u32;
        for _ in 0..4 {
            let row: Vec<u32> = (0..12)
                .map(|_| {
                    id += 1;
                    id
                })
                .collect();
            b = b.row(row);
        }
        for p in [1u32, 5, 9, 14, 20, 26, 33, 40, 47] {
            b = b.net_kind(p, NetKind::Power);
        }
        let q = b.build().expect("fixture builds");
        let a = random_assignment(&q, 7).expect("assignable");
        (q, a)
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(0xC0DE, 0), 0xC0DE);
        let seeds: Vec<u64> = (0..16).map(|k| derive_seed(0xC0DE, k)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision: {seeds:?}");
        // Stable across releases: pinned spot value.
        assert_eq!(derive_seed(0, 1), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 1), derive_seed(1, 1));
    }

    #[test]
    fn single_start_portfolio_matches_plain_exchange_bit_for_bit() {
        let (q, a) = case();
        let stack = StackConfig::default();
        let cfg = fast_config(0x5EED);
        let solo = exchange(&q, &a, &stack, &cfg).expect("solo run");
        let portfolio = exchange_portfolio(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig {
                starts: 1,
                threads: 1,
                ..PortfolioConfig::default()
            },
        )
        .expect("portfolio run");
        assert_eq!(portfolio.result, solo);
        assert_eq!(portfolio.winner_start, 0);
        assert_eq!(portfolio.winner_seed, 0x5EED);
    }

    #[test]
    fn thread_count_never_changes_the_winner() {
        let (q, a) = case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xC0DE);
        let base = PortfolioConfig {
            starts: 5,
            prune_margin: 0.05,
            sync_epochs: 4,
            threads: 1,
            ..PortfolioConfig::default()
        };
        let serial = exchange_portfolio(&q, &a, &stack, &cfg, &base).expect("serial portfolio");
        for threads in [2, 8] {
            let threaded =
                exchange_portfolio(&q, &a, &stack, &cfg, &PortfolioConfig { threads, ..base })
                    .expect("threaded portfolio");
            assert_eq!(threaded, serial, "threads={threads}");
        }
    }

    #[test]
    fn portfolio_winner_is_never_worse_than_single_start() {
        let (q, a) = case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xBEEF);
        let solo = exchange(&q, &a, &stack, &cfg).expect("solo run");
        for mode in [
            PortfolioMode::Race,
            PortfolioMode::Coop,
            PortfolioMode::Temper,
        ] {
            let portfolio = exchange_portfolio(
                &q,
                &a,
                &stack,
                &cfg,
                &PortfolioConfig {
                    starts: 8,
                    threads: 0,
                    mode,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio run");
            assert!(
                portfolio.result.stats.final_cost <= solo.stats.final_cost,
                "mode {mode:?}: portfolio {} > solo {}",
                portfolio.result.stats.final_cost,
                solo.stats.final_cost
            );
        }
    }

    /// The regression a starved schedule exposed: under aggressive
    /// pruning the baseline start can trail at an early barrier, and
    /// pruning it there lets the whole portfolio finish *worse* than the
    /// K = 1 run (a trajectory behind at a barrier can still finish
    /// ahead). Start 0 is exempt from pruning, so the never-worse
    /// guarantee must hold even in this regime.
    #[test]
    fn the_baseline_start_survives_aggressive_pruning() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 5e-2,
                cooling: 0.7,
                ..Schedule::default()
            },
            seed: 0x5EED_2009,
            ..ExchangeConfig::default()
        };
        let solo = exchange(&q, &a, &stack, &cfg).expect("solo run");
        for margin in [0.0, 0.05, 0.25] {
            let portfolio = exchange_portfolio(
                &q,
                &a,
                &stack,
                &cfg,
                &PortfolioConfig {
                    starts: 8,
                    prune_margin: margin,
                    sync_epochs: 8,
                    threads: 1,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio run");
            let baseline = portfolio
                .starts
                .iter()
                .find(|s| s.start == 0)
                .expect("start 0 is reported");
            assert!(
                baseline.pruned_at.is_none(),
                "margin {margin}: the baseline start was pruned"
            );
            assert!(
                portfolio.result.stats.final_cost <= solo.stats.final_cost,
                "margin {margin}: portfolio {} > solo {}",
                portfolio.result.stats.final_cost,
                solo.stats.final_cost
            );
        }
    }

    #[test]
    fn winner_journal_replays_to_the_winning_assignment() {
        let (q, a) = case();
        let portfolio = exchange_portfolio(
            &q,
            &a,
            &StackConfig::default(),
            &fast_config(0xF00D),
            &PortfolioConfig::default(),
        )
        .expect("portfolio run");
        let replayed =
            replay_journal(&a, &portfolio.journal, portfolio.best_len).expect("journal replays");
        assert_eq!(replayed, portfolio.result.assignment);
    }

    #[test]
    fn zero_margin_prunes_and_spawns_replacements_deterministically() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xABBA);
        let base = PortfolioConfig {
            starts: 6,
            prune_margin: 0.0,
            sync_epochs: 24,
            threads: 1,
            ..PortfolioConfig::default()
        };
        let serial = exchange_portfolio(&q, &a, &stack, &cfg, &base).expect("serial");
        assert!(serial.pruned() > 0, "zero margin should prune something");
        // At least one survivor, and the winner is never a pruned start.
        let winner = serial
            .starts
            .iter()
            .find(|s| s.start == serial.winner_start)
            .expect("winner is reported");
        assert!(winner.pruned_at.is_none());
        let threaded = exchange_portfolio(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig { threads: 4, ..base },
        )
        .expect("threaded");
        assert_eq!(threaded, serial);
    }

    #[test]
    fn pruned_starts_never_beat_the_winner() {
        let (q, a) = big_case();
        let portfolio = exchange_portfolio(
            &q,
            &a,
            &StackConfig::default(),
            &fast_config(0xD1CE),
            &PortfolioConfig {
                starts: 8,
                prune_margin: 0.01,
                sync_epochs: 8,
                threads: 1,
                ..PortfolioConfig::default()
            },
        )
        .expect("portfolio run");
        let winner_cost = portfolio.result.stats.final_cost;
        for s in portfolio.starts.iter().filter(|s| s.pruned_at.is_some()) {
            assert!(
                s.best_cost >= winner_cost,
                "pruned start {} at {} beat winner at {}",
                s.start,
                s.best_cost,
                winner_cost
            );
        }
    }

    #[test]
    fn trace_merges_in_start_order_and_is_thread_invariant() {
        let (q, a) = case();
        let stack = StackConfig::default();
        let cfg = fast_config(0x7EAC);
        let base = PortfolioConfig {
            starts: 4,
            prune_margin: 0.1,
            sync_epochs: 3,
            threads: 1,
            ..PortfolioConfig::default()
        };
        let mut buf1 = TraceBuffer::new();
        let r1 = exchange_portfolio_traced(&q, &a, &stack, &cfg, &base, &mut buf1)
            .expect("traced serial");
        let mut buf8 = TraceBuffer::new();
        let r8 = exchange_portfolio_traced(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig { threads: 8, ..base },
            &mut buf8,
        )
        .expect("traced threaded");
        assert_eq!(r1, r8);
        assert_eq!(buf1.events(), buf8.events());
        // Starts are announced in index order.
        let announced: Vec<u32> = buf1
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PortfolioStart { start, .. } => Some(*start),
                _ => None,
            })
            .collect();
        let mut sorted = announced.clone();
        sorted.sort_unstable();
        assert_eq!(announced, sorted);
        assert!(announced.len() >= 4);
        // Exactly one RunEnd: the winner's.
        let run_ends = buf1
            .events()
            .iter()
            .filter(|e| matches!(e, Event::RunEnd { .. }))
            .count();
        assert_eq!(run_ends, 1);
    }

    #[test]
    fn cancelled_token_aborts_the_portfolio() {
        let (q, a) = case();
        let token = CancelToken::new();
        token.cancel();
        let err = exchange_portfolio_cancellable(
            &q,
            &a,
            &StackConfig::default(),
            &fast_config(1),
            &PortfolioConfig::default(),
            &mut NoopRecorder,
            &token,
        )
        .expect_err("cancelled run must fail");
        assert!(matches!(err, CoreError::Cancelled));
    }

    #[test]
    fn mode_tags_round_trip() {
        for mode in [
            PortfolioMode::Race,
            PortfolioMode::Coop,
            PortfolioMode::Temper,
        ] {
            assert_eq!(PortfolioMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(PortfolioMode::parse("anneal"), None);
        assert_eq!(PortfolioMode::default(), PortfolioMode::Race);
    }

    #[test]
    fn default_config_still_races() {
        // The default mode must stay `race` forever: every pre-mode
        // golden, cache key and oracle depends on it.
        assert_eq!(PortfolioConfig::default().mode, PortfolioMode::Race);
    }

    #[test]
    fn cooperative_modes_are_thread_count_invariant() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xC0DE);
        for mode in [PortfolioMode::Coop, PortfolioMode::Temper] {
            let base = PortfolioConfig {
                starts: 5,
                prune_margin: 0.05,
                sync_epochs: 4,
                threads: 1,
                mode,
                ..PortfolioConfig::default()
            };
            let mut buf1 = TraceBuffer::new();
            let serial = exchange_portfolio_traced(&q, &a, &stack, &cfg, &base, &mut buf1)
                .expect("serial portfolio");
            for threads in [2, 8] {
                let mut bufn = TraceBuffer::new();
                let threaded = exchange_portfolio_traced(
                    &q,
                    &a,
                    &stack,
                    &cfg,
                    &PortfolioConfig {
                        threads,
                        ..base.clone()
                    },
                    &mut bufn,
                )
                .expect("threaded portfolio");
                assert_eq!(threaded, serial, "mode {mode:?} threads {threads}");
                assert_eq!(buf1.events(), bufn.events(), "mode {mode:?} trace");
            }
        }
    }

    #[test]
    fn cooperative_winners_replay_from_the_global_initial() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 5e-2,
                cooling: 0.7,
                ..Schedule::default()
            },
            seed: 0xD0_5EED,
            ..ExchangeConfig::default()
        };
        for mode in [PortfolioMode::Coop, PortfolioMode::Temper] {
            let portfolio = exchange_portfolio(
                &q,
                &a,
                &stack,
                &cfg,
                &PortfolioConfig {
                    starts: 8,
                    prune_margin: 0.0,
                    sync_epochs: 8,
                    threads: 1,
                    mode,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio run");
            let replayed = replay_journal(&a, &portfolio.journal, portfolio.best_len)
                .expect("journal replays");
            assert_eq!(
                replayed, portfolio.result.assignment,
                "mode {mode:?}: composed journal must replay to the winner"
            );
        }
    }

    #[test]
    fn coop_zero_margin_prunes_spawn_crossovers() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xABBA);
        let mut buf = TraceBuffer::new();
        let result = exchange_portfolio_traced(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig {
                starts: 6,
                prune_margin: 0.0,
                sync_epochs: 24,
                threads: 1,
                mode: PortfolioMode::Coop,
                ..PortfolioConfig::default()
            },
            &mut buf,
        )
        .expect("coop portfolio");
        assert!(result.pruned() > 0, "zero margin should prune something");
        let crossovers: Vec<(u32, u32)> = buf
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PortfolioCrossover { start, parent, .. } => Some((*start, *parent)),
                _ => None,
            })
            .collect();
        assert!(
            !crossovers.is_empty(),
            "coop respawns must announce their crossover parent"
        );
        for (start, parent) in crossovers {
            assert!(start >= 6, "crossover slots are replacements");
            assert!(parent < start, "the parent precedes the respawn");
        }
        // The margin trace fires at every barrier start 0 reaches.
        assert!(buf
            .events()
            .iter()
            .any(|e| matches!(e, Event::PortfolioMargin { .. })));
    }

    #[test]
    fn temper_never_prunes_and_announces_swaps() {
        let (q, a) = big_case();
        let stack = StackConfig::default();
        let cfg = fast_config(0xFADE);
        let mut buf = TraceBuffer::new();
        let result = exchange_portfolio_traced(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig {
                starts: 4,
                prune_margin: 0.0, // would prune aggressively in race
                sync_epochs: 6,
                threads: 1,
                mode: PortfolioMode::Temper,
                ..PortfolioConfig::default()
            },
            &mut buf,
        )
        .expect("temper portfolio");
        assert_eq!(result.pruned(), 0, "tempering never prunes a rung");
        assert_eq!(result.starts.len(), 4, "tempering never respawns");
        let swaps: Vec<u32> = buf
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PortfolioSwap { start_a, .. } => Some(*start_a),
                _ => None,
            })
            .collect();
        assert!(!swaps.is_empty(), "barriers must propose rung swaps");
        // Every swap verdict re-derives from the event fields alone.
        for e in buf.events() {
            if let Event::PortfolioSwap {
                epoch,
                start_a,
                cost_a,
                cost_b,
                temp_a,
                temp_b,
                accepted,
                ..
            } = e
            {
                assert_eq!(
                    tempering_swap_accepts(
                        cfg.seed, *epoch, *start_a, *cost_a, *cost_b, *temp_a, *temp_b
                    ),
                    *accepted,
                    "swap verdicts are a pure function of (seed, epoch, rung, costs)"
                );
            }
        }
    }

    #[test]
    fn single_start_temper_is_bit_identical_to_race() {
        let (q, a) = case();
        let stack = StackConfig::default();
        let cfg = fast_config(0x1ADD);
        let race = exchange_portfolio(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig {
                starts: 1,
                threads: 1,
                ..PortfolioConfig::default()
            },
        )
        .expect("race run");
        let temper = exchange_portfolio(
            &q,
            &a,
            &stack,
            &cfg,
            &PortfolioConfig {
                starts: 1,
                threads: 1,
                mode: PortfolioMode::Temper,
                ..PortfolioConfig::default()
            },
        )
        .expect("temper run");
        assert_eq!(temper, race, "a 1-rung ladder degenerates to race");
    }

    #[test]
    fn invalid_portfolio_config_is_rejected() {
        let (q, a) = case();
        for bad in [
            PortfolioConfig {
                starts: 0,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                sync_epochs: 0,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                prune_margin: -0.5,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                prune_margin: f64::NAN,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                kick_size: 0,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                ladder_ratio: 0.5,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                ladder_ratio: f64::NAN,
                ..PortfolioConfig::default()
            },
            PortfolioConfig {
                ladder_ratio: f64::INFINITY,
                ..PortfolioConfig::default()
            },
        ] {
            let err = exchange_portfolio(&q, &a, &StackConfig::default(), &fast_config(1), &bad)
                .expect_err("invalid config must fail");
            assert!(matches!(
                err,
                CoreError::BadConfig {
                    parameter: "portfolio"
                }
            ));
        }
    }
}
