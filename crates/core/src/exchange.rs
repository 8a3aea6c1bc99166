//! The finger/pad exchange step (paper Fig. 14): simulated annealing over
//! adjacent swaps under the monotonicity-preserving range constraint.
//!
//! Two implementations share the contract:
//!
//! * [`exchange`] — the production kernel. Each proposal reads and writes
//!   only flat `u32` tables over the quadrant's dense net index: positions
//!   and slot occupants, exchange ranges in a [`RangeCache`], the Δ_IR
//!   term as an integer gap-square sum in a [`crate::DeltaIrTracker`]. The
//!   best-seen state is a **move journal** (accepted swaps + a prefix
//!   length) rematerialised once at the end instead of a full clone per
//!   improvement. The move loop is monomorphised over whether the Δ_IR
//!   term is scored, so a proposal never dispatches on it, and it
//!   allocates nothing.
//! * [`exchange_reference`] — the original straight-line implementation
//!   that re-derives ranges and re-scores the pad spacing from scratch
//!   every move. Kept as the executable specification: the two produce
//!   **bit-identical** [`ExchangeResult`]s for any seed and configuration
//!   (equivalence is property- and integration-tested), and the benches
//!   measure the kernel against it. Both score Δ_IR with one shared exact
//!   formula, [`copack_power::slot_delta_ir`].

use copack_geom::{Assignment, FingerIdx, NetId, NetKind, Quadrant, StackConfig};
use copack_obs::{Event, NoopRecorder, Recorder};
use copack_power::{slot_delta_ir, slot_gap_squares};
use copack_route::{check_monotonic, exchange_range, RangeCache};
use rand::{Rng, RngCore, SeedableRng};

use crate::omega::check_tier;
use crate::{
    margin_penalty, omega_of_assignment, Acceptance, CancelToken, CoreError, CostWeights,
    DeltaIrTracker, ExchangeConfig, MarginTracker, OmegaTracker, SectionTracker,
};

/// How many proposals the kernel lets pass between cancellation polls
/// inside one temperature step. Steps are also polled at their boundary,
/// so this only bounds the abort latency of very large
/// `moves_per_temp` schedules; the poll itself is a relaxed atomic load.
const CANCEL_POLL_MASK: usize = 0x1FF;

/// Outcome of the exchange step.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeResult {
    /// The improved assignment.
    pub assignment: Assignment,
    /// Run statistics.
    pub stats: ExchangeStats,
}

/// Statistics of one annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeStats {
    /// Cost of the initial order (Eq. 3).
    pub initial_cost: f64,
    /// Cost of the final order.
    pub final_cost: f64,
    /// Moves proposed (including range-constraint rejections).
    pub proposed: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// Accepted moves that made the cost worse (uphill).
    pub uphill_accepted: usize,
    /// Moves rejected by the range constraint before costing.
    pub constraint_rejected: usize,
    /// Temperature steps performed.
    pub temperature_steps: usize,
}

/// The movable-net set of a run: power pads only for 2-D designs
/// (Fig. 14 line 7), every pad for stacking designs (line 5).
fn movable_nets(quadrant: &Quadrant, psi: u8) -> Vec<NetId> {
    if psi == 1 {
        quadrant.nets_of_kind(NetKind::Power).collect()
    } else {
        quadrant.nets().map(|n| n.id).collect()
    }
}

/// Slot sentinel of the kernel's `u32` slot table: an empty finger.
pub(crate) const NO_NET: u32 = u32::MAX;

/// The kernel's position tables for `assignment`, over the quadrant's
/// dense net index: each net's 1-based finger (0 while unplaced), and the
/// dense index of the net in each 0-based slot ([`NO_NET`] when empty).
pub(crate) fn slot_tables(quadrant: &Quadrant, assignment: &Assignment) -> (Vec<u32>, Vec<u32>) {
    let mut pos1 = vec![0; quadrant.net_count()];
    let mut slot_net = vec![NO_NET; assignment.finger_count()];
    for (i, net) in quadrant.nets().enumerate() {
        if let Some(p) = assignment.position_of(net.id) {
            pos1[i] = p.get();
            slot_net[p.zero_based()] = u32::try_from(i).expect("net index fits u32");
        }
    }
    (pos1, slot_net)
}

/// The λ·Δ_IR term as the move loop sees it.
///
/// [`ExchangeDriver::temp_step`] checks once per temperature step whether
/// the run scores Δ_IR and runs the loop monomorphised over the matching
/// implementation, so no proposal dispatches on it. Slots are 1-based, as
/// in the journal.
trait IrTerm {
    /// Mirrors the swap of slots `left_slot` and `left_slot + 1`. Returns
    /// `true` iff the term can have changed; the loop re-reads it only
    /// then and otherwise reuses the identical cached `f64`.
    fn swap(&mut self, left_slot: u32) -> bool;
    /// Undoes `swap(left_slot)` for a rejected move.
    fn revert(&mut self, left_slot: u32);
    /// The λ-weighted term of the current state.
    fn term(&self, lambda: f64) -> f64;
}

/// The λ = 0 term: no swap changes it.
struct NoIr;

impl IrTerm for NoIr {
    fn swap(&mut self, _left_slot: u32) -> bool {
        false
    }

    fn revert(&mut self, _left_slot: u32) {}

    fn term(&self, _lambda: f64) -> f64 {
        0.0
    }
}

/// The paper's pad-spacing proxy, tracked incrementally. The tracker
/// reports exactly whether a pad coordinate moved: two power pads or two
/// non-power nets trading places leave the spacing untouched.
impl IrTerm for DeltaIrTracker {
    #[inline]
    fn swap(&mut self, left_slot: u32) -> bool {
        self.apply_adjacent_swap(FingerIdx::new(left_slot))
    }

    #[inline]
    fn revert(&mut self, left_slot: u32) {
        self.revert_adjacent_swap(FingerIdx::new(left_slot));
    }

    #[inline]
    fn term(&self, lambda: f64) -> f64 {
        if self.power_pad_count() == 0 {
            0.0
        } else {
            lambda * self.delta_ir()
        }
    }
}

/// The ω term, scored only when ψ > 1 and φ > 0.
enum Omega {
    /// ω is not scored.
    Off,
    /// Dense orders: the incremental [`OmegaTracker`].
    Tracked(OmegaTracker),
    /// Sparse orders, which the tracker does not model: ω recounted from
    /// the slot table after every swap, the occupied slots in order cut
    /// into groups of ψ exactly as [`omega_of_assignment`] cuts
    /// [`Assignment::order`]. `bits[i]` is net `i`'s one-hot tier bit.
    Recount { psi: u32, bits: Vec<u64> },
}

impl Omega {
    /// Mirrors the swap of 1-based slots `left_slot` and `left_slot + 1`.
    #[inline]
    fn swap(&mut self, left_slot: u32) {
        if let Self::Tracked(tracker) = self {
            tracker.swap_slots(left_slot as usize - 1);
        }
    }

    /// ω of the current order, or `None` when it is not scored.
    #[inline]
    fn value(&self, slot_net: &[u32]) -> Option<u64> {
        match self {
            Self::Off => None,
            Self::Tracked(tracker) => Some(tracker.omega()),
            Self::Recount { psi, bits } => {
                let (mut total, mut union, mut filled) = (0u64, 0u64, 0u32);
                for &net in slot_net.iter().filter(|&&n| n != NO_NET) {
                    union |= bits[net as usize];
                    filled += 1;
                    if filled == *psi {
                        total += u64::from(psi - union.count_ones());
                        (union, filled) = (0, 0);
                    }
                }
                if filled > 0 {
                    total += u64::from(psi - union.count_ones());
                }
                Some(total)
            }
        }
    }
}

/// Runs the power-supply-noise-driven exchange (Fig. 14) on an initial
/// order.
///
/// * 2-D designs (ψ = 1): only **power** pads are picked for swapping
///   (Fig. 14 line 7); `ID` (Eq. 2) and `Δ_IR` drive the cost, ω is
///   identically zero.
/// * Stacking designs (ψ ≥ 2): any pad may move (line 5) and ω joins the
///   cost.
///
/// Every proposed swap must keep both involved nets inside their exchange
/// ranges (strictly between their same-row neighbours), so the result is
/// always monotonic-legal and hence routable; the final order is verified
/// before it is returned.
///
/// This is the incremental kernel (see the module docs); it matches
/// [`exchange_reference`] bit for bit.
///
/// # Errors
///
/// * [`CoreError::BadConfig`] for invalid weights or schedule.
/// * [`CoreError::Geom`] ([`copack_geom::GeomError::TierOutOfRange`]) when
///   ψ > 1 and a net's tier exceeds ψ.
/// * [`CoreError::NoMovablePads`] for a 2-D design without power nets.
/// * [`CoreError::Route`] if `initial` is incomplete or illegal, or —
///   defensively — if the final order fails the monotonicity re-check.
pub fn exchange(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
) -> Result<ExchangeResult, CoreError> {
    exchange_traced(quadrant, initial, stack, config, &mut NoopRecorder)
}

/// [`exchange`] with telemetry: emits `RunStart`, per-move
/// `MoveAccepted`/`MoveRejected`, per-step `TempStep` and a final
/// `RunEnd` into `recorder`.
///
/// The recorder's [`Recorder::enabled`]/[`Recorder::wants_rejected`]
/// flags are cached once at startup; with a disabled recorder the run is
/// bit-identical to [`exchange`] (it *is* `exchange` — the plain entry
/// point delegates here with a [`NoopRecorder`]). Recording only reads
/// values the run already computed, so an enabled recorder observes, and
/// never perturbs, the trajectory.
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_traced(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
) -> Result<ExchangeResult, CoreError> {
    exchange_cancellable(
        quadrant,
        initial,
        stack,
        config,
        recorder,
        &CancelToken::new(),
    )
}

/// [`exchange_traced`] with cooperative cancellation: the annealing loop
/// polls `cancel` at every temperature-step boundary and every few hundred
/// proposals within a step, returning [`CoreError::Cancelled`] promptly
/// once the token fires (explicitly or via its wall-clock deadline).
///
/// A run that completes without the token firing is **bit-identical** to
/// [`exchange`] — the polls never touch the RNG stream or any cost state.
/// This is the entry point `copack-serve` uses to enforce per-job
/// timeouts.
///
/// # Errors
///
/// As [`exchange`], plus [`CoreError::Cancelled`].
pub fn exchange_cancellable(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<ExchangeResult, CoreError> {
    let mut driver = ExchangeDriver::new(quadrant, initial, stack, config, recorder)?;
    driver.run_to_end(recorder, cancel)?;
    driver.finish(recorder)
}

/// A pruned run's remains: the accepted-move journal, its best-prefix
/// length, and the stats with `final_cost` stamped to the best seen —
/// everything [`crate::portfolio`] needs to keep the trajectory as a
/// best-of candidate after the driver is gone.
pub(crate) type FrozenRun = (Vec<(u32, u32)>, usize, ExchangeStats);

/// Resumable state of one annealing run, advanced in temperature steps.
///
/// [`exchange_cancellable`] drives a driver straight to completion. The
/// multi-start portfolio (`crate::portfolio`) instead advances K drivers
/// epoch by epoch: pausing between [`ExchangeDriver::temp_step`] calls
/// touches no RNG or cost state, which is what makes sync-epoch prune
/// decisions schedule-independent.
///
/// The Δ_IR tracker and the rest of the state live in separate fields
/// so a step can borrow them apart: it checks for the tracker once and
/// hands the term to the [`Walk`]'s move loop.
pub(crate) struct ExchangeDriver<'a> {
    quadrant: &'a Quadrant,
    cooling: f64,
    final_temp: f64,
    /// The Δ_IR tracker; `None` when λ = 0.
    ir: Option<DeltaIrTracker>,
    walk: Walk,
}

/// Everything a proposal reads and writes.
///
/// Positions, slots, ranges and section membership are flat arrays over
/// the quadrant's dense net index (`u32` entries with a sentinel where an
/// `Option` would be), so a proposal does no keyed lookup. The Eq. 3 terms
/// other than Δ_IR are tracked incrementally here; the best-seen state is
/// a **move journal** (one `u32` word per accepted swap, plus the length
/// of the best prefix), rematerialised once by [`ExchangeDriver::finish`].
struct Walk {
    weights: CostWeights,
    acceptance: Acceptance,
    /// Finger count α.
    alpha: u32,
    /// Dense indices of the nets a proposal may pick.
    movable: Vec<u32>,
    cache: RangeCache,
    /// 1-based finger of each net.
    pos1: Vec<u32>,
    /// Net in each 0-based slot ([`NO_NET`] when empty).
    slot_net: Vec<u32>,
    sections: SectionTracker,
    /// Whether each net is a top-row net (a section delimiter).
    is_delim: Vec<bool>,
    /// Eq. 2's `ID`, refreshed only when a swap crosses a delimiter.
    id_value: u32,
    omega: Omega,
    margin: Option<MarginTracker>,
    rng: rand::rngs::StdRng,
    /// The λ-weighted Δ_IR term of the current state.
    ir_term: f64,
    current_cost: f64,
    temperature: f64,
    moves_per_temp: usize,
    stats: ExchangeStats,
    rec_on: bool,
    rec_rejected: bool,
    /// Accepted swaps, packed by [`pack`].
    journal: Vec<u32>,
    best_len: usize,
    best_cost: f64,
}

/// Packs the accepted swap `pos → target` (adjacent fingers) into one
/// journal word: the mover's finger and the direction bit.
fn pack(pos: u32, target: u32) -> u32 {
    pos << 1 | u32::from(target > pos)
}

/// The `(pos, target)` pair of a packed journal word.
fn unpack(word: u32) -> (u32, u32) {
    let pos = word >> 1;
    (pos, if word & 1 == 1 { pos + 1 } else { pos - 1 })
}

impl<'a> ExchangeDriver<'a> {
    /// Validates the inputs, builds every incremental tracker, computes
    /// the initial cost and temperature, and records `RunStart`.
    ///
    /// The recorder's `enabled`/`wants_rejected` flags are cached here,
    /// once.
    ///
    /// # Errors
    ///
    /// As [`exchange`].
    pub(crate) fn new(
        quadrant: &'a Quadrant,
        initial: &Assignment,
        stack: &StackConfig,
        config: &ExchangeConfig,
        recorder: &mut dyn Recorder,
    ) -> Result<Self, CoreError> {
        let psi = stack.tiers;
        let movable = validate(quadrant, initial, psi, config)?;
        let alpha = initial.finger_count();

        let cache = RangeCache::new(quadrant, initial)?;
        let movable: Vec<u32> = movable
            .iter()
            .map(|&n| {
                let i = cache.index_of(n).expect("movable net is in the quadrant");
                u32::try_from(i).expect("net index fits u32")
            })
            .collect();
        let (pos1, slot_net) = slot_tables(quadrant, initial);

        // Incremental trackers: an adjacent swap moves one net across at
        // most one section delimiter, touches at most two omega groups and
        // moves at most one power pad, so every Eq. 3 term updates in O(1)
        // (see `tracker.rs`; equivalence to the from-scratch definitions
        // is property-tested there).
        let sections = SectionTracker::new(quadrant, initial)?;
        // ID bookkeeping: the value is an integer (no float-ordering
        // hazard), and it only changes when a net crosses a section
        // delimiter — which requires one of the swapped nets to be a
        // top-row net. Pre-resolving delimiter-ness lets the hot loop skip
        // the tracker entirely for the common within-section swap, and
        // `id_value` caches the O(sections) metric between crossings.
        let is_delim: Vec<bool> = quadrant
            .nets()
            .map(|n| sections.is_delimiter(n.id))
            .collect();
        let id_value = sections.increased_density();
        // ω exists only when it is scored; the tiers were checked above.
        let omega = if psi > 1 && config.weights.phi > 0.0 {
            if initial.net_count() == alpha {
                Omega::Tracked(OmegaTracker::new(quadrant, initial, psi)?)
            } else {
                Omega::Recount {
                    psi: u32::from(psi),
                    bits: quadrant.nets().map(|n| n.tier.one_hot()).collect(),
                }
            }
        } else {
            Omega::Off
        };
        // The margin tracker only exists when the term is weighted: at
        // μ = 0 nothing is built or updated.
        let margin = (config.weights.margin > 0.0).then(|| MarginTracker::new(quadrant, initial));
        let ir = if config.weights.lambda > 0.0 {
            Some(DeltaIrTracker::new(quadrant, initial)?)
        } else {
            None
        };
        let ir_term = ir.as_ref().map_or(0.0, |t| t.term(config.weights.lambda));

        // The journal is reserved once at the run's proposal bound, so it
        // never copies itself while it grows; capacity that is never
        // touched is never resident. If the reservation fails, or a
        // tempering swap stretches the run past the bound, it grows as
        // any `Vec` does.
        let moves_per_temp = config.schedule.moves_per_temp_per_finger * alpha;
        let mut journal = Vec::new();
        let _ = journal
            .try_reserve_exact(moves_per_temp.saturating_mul(config.schedule.temperature_steps()));

        // Telemetry flags, cached once: with a disabled recorder every
        // event site is a never-taken branch and the run stays
        // bit-identical.
        let rec_on = recorder.enabled();
        let mut walk = Walk {
            weights: config.weights,
            acceptance: config.acceptance,
            // Below 2^31, so a journal word has room for the direction bit.
            alpha: u32::try_from(alpha)
                .ok()
                .filter(|&a| a < 1 << 31)
                .expect("finger count fits the journal packing"),
            movable,
            cache,
            pos1,
            slot_net,
            sections,
            is_delim,
            id_value,
            omega,
            margin,
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
            ir_term,
            current_cost: 0.0,
            temperature: 0.0,
            moves_per_temp,
            stats: ExchangeStats {
                initial_cost: 0.0,
                final_cost: 0.0,
                proposed: 0,
                accepted: 0,
                uphill_accepted: 0,
                constraint_rejected: 0,
                temperature_steps: 0,
            },
            rec_on,
            rec_rejected: rec_on && recorder.wants_rejected(),
            journal,
            best_len: 0,
            best_cost: 0.0,
        };
        let initial_cost = walk.eval_cost();
        walk.current_cost = initial_cost;

        // Temperature scale: tied to the IR/ID part of the cost only. The
        // omega term's magnitude grows with the finger count and would
        // otherwise over-heat stacking runs relative to 2-D ones.
        let omega_part = walk
            .omega
            .value(&walk.slot_net)
            .map_or(0.0, |omega| config.weights.phi * omega as f64);
        let temp_base = (initial_cost - omega_part).max(0.0);
        walk.temperature = config.schedule.initial_temp_factor * (temp_base + 1.0);
        let final_temp = walk.temperature * config.schedule.final_temp_ratio;

        walk.stats.initial_cost = initial_cost;
        walk.stats.final_cost = initial_cost;
        walk.best_cost = initial_cost;

        if walk.rec_on {
            recorder.record(&Event::RunStart {
                initial_cost,
                ir_term: walk.ir_term,
                initial_temperature: walk.temperature,
                final_temperature: final_temp,
                cooling: config.schedule.cooling,
                moves_per_temp: walk.moves_per_temp as u64,
                movable_nets: walk.movable.len() as u64,
            });
        }
        Ok(Self {
            quadrant,
            cooling: config.schedule.cooling,
            final_temp,
            ir,
            walk,
        })
    }

    /// Whether the schedule has cooled past its final temperature.
    pub(crate) fn is_done(&self) -> bool {
        self.walk.temperature <= self.final_temp
    }

    /// Best cost seen so far (the initial cost before any step).
    pub(crate) fn best_cost(&self) -> f64 {
        self.walk.best_cost
    }

    /// Cost of the *current* (not best) state — what a tempering swap
    /// decision must look at, since the plan a rung would hand over is
    /// its live trajectory, not its best prefix.
    pub(crate) fn current_cost(&self) -> f64 {
        self.walk.current_cost
    }

    /// The current temperature.
    pub(crate) fn temperature(&self) -> f64 {
        self.walk.temperature
    }

    /// Exchanges thermal states — temperature, final temperature and
    /// cooling factor — with `other`, for a tempering swap.
    ///
    /// The triple is the rung: a rung's temperatures are the products of
    /// its own cooling factor, so the driver that takes it over continues
    /// the same sequence to the same step count, and the ladder stays in
    /// lockstep across sync epochs. Exchanging thermal states while plans,
    /// journals and RNG streams stay put is observably identical to the
    /// textbook "swap the configurations" formulation, but keeps every
    /// cost ledger and the journal-replay contract trivially intact.
    pub(crate) fn swap_thermal(&mut self, other: &mut Self) {
        std::mem::swap(&mut self.walk.temperature, &mut other.walk.temperature);
        std::mem::swap(&mut self.final_temp, &mut other.final_temp);
        std::mem::swap(&mut self.cooling, &mut other.cooling);
    }

    /// The accepted-move journal so far, as `(pos, target)` pairs.
    pub(crate) fn journal(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.walk.journal.iter().map(|&word| unpack(word))
    }

    /// Length of the journal prefix that produced [`Self::best_cost`].
    pub(crate) fn best_len(&self) -> usize {
        self.walk.best_len
    }

    /// Freezes the run for a portfolio prune: the accepted-move journal,
    /// its best-prefix length, and the stats so far with `final_cost`
    /// stamped to the best seen. The portfolio reduction keeps the frozen
    /// trajectory as a best-of candidate after the driver is dropped.
    pub(crate) fn freeze(&self) -> FrozenRun {
        let mut stats = self.walk.stats;
        stats.final_cost = self.walk.best_cost;
        (self.journal().collect(), self.walk.best_len, stats)
    }

    /// Advances up to `steps` temperature steps (stopping early when the
    /// schedule completes).
    ///
    /// # Errors
    ///
    /// [`CoreError::Cancelled`] when `cancel` fires; the state then holds
    /// whatever progress was made and must not be advanced further.
    pub(crate) fn advance(
        &mut self,
        steps: usize,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        for _ in 0..steps {
            if self.is_done() {
                break;
            }
            self.temp_step(recorder, cancel)?;
        }
        Ok(())
    }

    /// Runs the remaining schedule to completion.
    ///
    /// # Errors
    ///
    /// As [`ExchangeDriver::advance`].
    pub(crate) fn run_to_end(
        &mut self,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        while !self.is_done() {
            self.temp_step(recorder, cancel)?;
        }
        Ok(())
    }

    /// One temperature step: `moves_per_temp` proposals, the `TempStep`
    /// event, one cooling multiply.
    ///
    /// # Errors
    ///
    /// As [`ExchangeDriver::advance`].
    pub(crate) fn temp_step(
        &mut self,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        if cancel.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        let walk = &mut self.walk;
        let step_start = walk.stats;
        let ir_noop = match &mut self.ir {
            None => walk.proposals(&mut NoIr, recorder, cancel),
            Some(tracker) => walk.proposals(tracker, recorder, cancel),
        }?;
        if walk.rec_on {
            let stats = &walk.stats;
            recorder.record(&Event::TempStep {
                step: stats.temperature_steps as u32,
                temperature: walk.temperature,
                proposed: (stats.proposed - step_start.proposed) as u64,
                accepted: (stats.accepted - step_start.accepted) as u64,
                uphill_accepted: (stats.uphill_accepted - step_start.uphill_accepted) as u64,
                constraint_rejected: (stats.constraint_rejected - step_start.constraint_rejected)
                    as u64,
                ir_noop_applied: ir_noop,
                cost: walk.current_cost,
            });
        }
        walk.temperature *= self.cooling;
        walk.stats.temperature_steps += 1;
        Ok(())
    }

    /// Rematerialises the best state seen, re-checks its legality, and
    /// records `RunEnd`. The walk's slot table is rewound to the best
    /// state, so the driver must not be advanced afterwards.
    ///
    /// # Errors
    ///
    /// [`CoreError::Route`] — defensively — if the final order fails the
    /// monotonicity re-check.
    pub(crate) fn finish(
        &mut self,
        recorder: &mut dyn Recorder,
    ) -> Result<ExchangeResult, CoreError> {
        let walk = &mut self.walk;
        // Rematerialise the best state on the flat slot table: every swap
        // is self-inverse, so undoing the accepted moves past the best
        // prefix, last first, rewinds the live order to the best one.
        // The `Assignment` is built once, from the rewound table.
        for &word in walk.journal[walk.best_len..].iter().rev() {
            let (a, b) = unpack(word);
            walk.slot_net.swap(a as usize - 1, b as usize - 1);
        }
        let ids = self.quadrant.net_index().ids();
        let mut best = Assignment::empty(walk.slot_net.len());
        for (slot, &net) in walk.slot_net.iter().enumerate() {
            if net != NO_NET {
                best.place(ids[net as usize], FingerIdx::from_zero_based(slot))?;
            }
        }
        // The range constraint guarantees legality move by move; re-check
        // the final order for real (not just in debug builds) so a tracker
        // or journal defect can never escape as an unroutable "result".
        check_monotonic(self.quadrant, &best)?;
        walk.stats.final_cost = walk.best_cost;
        if walk.rec_on {
            recorder.record(&Event::RunEnd {
                final_cost: walk.best_cost,
                proposed: walk.stats.proposed as u64,
                accepted: walk.stats.accepted as u64,
                uphill_accepted: walk.stats.uphill_accepted as u64,
                constraint_rejected: walk.stats.constraint_rejected as u64,
                temperature_steps: walk.stats.temperature_steps as u64,
            });
        }
        Ok(ExchangeResult {
            assignment: best,
            stats: walk.stats,
        })
    }
}

impl Walk {
    /// Eq. 3, term by term in the reference order (the additions must
    /// associate identically for bit-equal costs). The λ·Δ_IR term is the
    /// cached [`Walk::ir_term`]: it is the only float-valued term, and
    /// reusing the identical f64 across moves that leave the pad
    /// coordinates untouched keeps bit-equality trivially intact.
    #[inline]
    fn eval_cost(&self) -> f64 {
        let mut cost = 0.0;
        if self.weights.lambda > 0.0 {
            cost += self.ir_term;
        }
        if self.weights.rho > 0.0 {
            cost += self.weights.rho * f64::from(self.id_value);
        }
        if let Some(omega) = self.omega.value(&self.slot_net) {
            cost += self.weights.phi * omega as f64;
        }
        if let Some(margin) = &self.margin {
            cost += self.weights.margin * margin.total() as f64;
        }
        cost
    }

    /// One temperature step's `moves_per_temp` proposals under the Δ_IR
    /// term `ir`. Returns how many applied swaps left the term untouched
    /// (counted only while recording, for `TempStep`).
    ///
    /// The RNG draws are the reference's, in its order: the mover
    /// (`gen_range`), the direction (`gen_bool(0.5)`'s outcome, read from
    /// one raw word), and the Metropolis draw only for an uphill move.
    ///
    /// # Errors
    ///
    /// [`CoreError::Cancelled`] when `cancel` fires mid-step.
    fn proposals<I: IrTerm>(
        &mut self,
        ir: &mut I,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<u64, CoreError> {
        let mut ir_noop: u64 = 0;
        let step = self.stats.temperature_steps as u32;
        let picks = self.movable.len();
        for _ in 0..self.moves_per_temp {
            self.stats.proposed += 1;
            if self.stats.proposed & CANCEL_POLL_MASK == 0 && cancel.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
            let mover = self.movable[self.rng.gen_range(0..picks)];
            let pos = self.pos1[mover as usize];
            // The reference's `gen_bool(0.5)`, from the draw's top bit:
            // `(x >> 11) · 2⁻⁵³ < 0.5` holds iff bit 63 of `x` is clear.
            let right = self.rng.next_u64() >> 63 == 0;
            let target = if right {
                if pos >= self.alpha {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
                pos + 1
            } else {
                if pos == 1 {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
                pos - 1
            };

            // Range constraint: the moved net must stay inside its span,
            // and the displaced neighbour (if any) inside its own.
            let (lo, hi) = self.cache.range(mover as usize);
            if target < lo || target > hi {
                self.stats.constraint_rejected += 1;
                continue;
            }
            let neighbour = self.slot_net[target as usize - 1];
            let occupied = neighbour != NO_NET;
            if occupied {
                let (lo, hi) = self.cache.range(neighbour as usize);
                if pos < lo || pos > hi {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
            }

            // Apply the swap to the trackers (self-inverse on revert).
            let left_slot = pos.min(target);
            let (left_net, right_net) = if right {
                (mover, neighbour)
            } else {
                (neighbour, mover)
            };
            // The section counts only change when exactly one of the two
            // nets is a delimiter; skip the tracker (and the cached ID
            // refresh) for the common within-section swap.
            let crosses =
                occupied && self.is_delim[mover as usize] != self.is_delim[neighbour as usize];
            let id_before = self.id_value;
            if crosses {
                self.sections
                    .apply_adjacent_swap_idx(left_net as usize, right_net as usize);
                self.id_value = self.sections.increased_density();
            }
            self.omega.swap(left_slot);
            if let Some(margin) = &mut self.margin {
                margin.apply_adjacent_swap(FingerIdx::new(left_slot));
            }
            let ir_changed = ir.swap(left_slot);
            if self.rec_on && !ir_changed {
                ir_noop += 1;
            }
            self.slot_net.swap(pos as usize - 1, target as usize - 1);
            self.pos1[mover as usize] = target;
            if occupied {
                self.pos1[neighbour as usize] = pos;
            }

            let ir_term_before = self.ir_term;
            if ir_changed {
                self.ir_term = ir.term(self.weights.lambda);
            }
            let new_cost = self.eval_cost();
            let delta = new_cost - self.current_cost;
            let accept = delta <= 0.0
                || self
                    .acceptance
                    .accepts(delta, self.temperature, self.rng.gen::<f64>());
            if accept {
                self.stats.accepted += 1;
                if delta > 0.0 {
                    self.stats.uphill_accepted += 1;
                }
                self.current_cost = new_cost;
                // Only the moved nets' row-neighbours see stale ranges.
                self.cache.note_moved(mover as usize, &self.pos1);
                if occupied {
                    self.cache.note_moved(neighbour as usize, &self.pos1);
                }
                self.journal.push(pack(pos, target));
                if self.current_cost < self.best_cost {
                    self.best_cost = self.current_cost;
                    self.best_len = self.journal.len();
                }
                if self.rec_on {
                    recorder.record(&Event::MoveAccepted {
                        step,
                        left_slot,
                        delta,
                        cost: new_cost,
                        ir_term: self.ir_term,
                        ir_changed,
                        uphill: delta > 0.0,
                    });
                }
            } else {
                if self.rec_rejected {
                    recorder.record(&Event::MoveRejected {
                        step,
                        left_slot,
                        delta,
                    });
                }
                self.ir_term = ir_term_before;
                self.slot_net.swap(pos as usize - 1, target as usize - 1); // revert
                self.pos1[mover as usize] = pos;
                if occupied {
                    self.pos1[neighbour as usize] = target;
                }
                if crosses {
                    self.sections
                        .apply_adjacent_swap_idx(right_net as usize, left_net as usize);
                    self.id_value = id_before;
                }
                self.omega.swap(left_slot);
                if let Some(margin) = &mut self.margin {
                    margin.apply_adjacent_swap(FingerIdx::new(left_slot));
                }
                ir.revert(left_slot);
            }
        }
        Ok(ir_noop)
    }
}

/// Input validation shared by the kernel and [`exchange_reference`]:
/// weights, schedule, a legal and complete initial order, tiers within ψ
/// when ω can be scored, and a non-empty movable set, checked in that
/// order. Returns the movable nets.
fn validate(
    quadrant: &Quadrant,
    initial: &Assignment,
    psi: u8,
    config: &ExchangeConfig,
) -> Result<Vec<NetId>, CoreError> {
    if !config.weights.is_valid() {
        return Err(CoreError::BadConfig {
            parameter: "weights",
        });
    }
    if !config.schedule.is_valid() {
        return Err(CoreError::BadConfig {
            parameter: "schedule",
        });
    }
    check_monotonic(quadrant, initial)?;
    initial.validate_complete(quadrant)?;
    if psi > 1 {
        // A planar exchange never scores ω; a stacked one may, so every
        // tier must fit ψ (the first offender in id order is reported).
        quadrant.nets().try_for_each(|n| check_tier(n.tier, psi))?;
    }
    let movable = movable_nets(quadrant, psi);
    if movable.is_empty() {
        return Err(CoreError::NoMovablePads);
    }
    Ok(movable)
}

/// The original from-scratch exchange implementation, kept as the
/// executable specification for [`exchange`].
///
/// Each move re-derives both exchange ranges, re-collects the power-pad
/// slots and re-sums their squared gaps ([`slot_gap_squares`]) — `O(β)`-ish
/// work per proposal — and clones the whole assignment on every
/// improvement. Use it to cross-check the kernel (they are bit-identical)
/// and as the baseline in the benches; use [`exchange`] everywhere else.
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_reference(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
) -> Result<ExchangeResult, CoreError> {
    exchange_reference_traced(quadrant, initial, stack, config, &mut NoopRecorder)
}

/// [`exchange_reference`] with telemetry, emitting the same event
/// vocabulary as [`exchange_traced`].
///
/// The two record **equal** event streams for any seed (the
/// full-trajectory equivalence property): the
/// reference derives `ir_changed` from the swapped nets' kinds — exactly
/// one of the two slots holds a power pad, an empty slot counting as
/// non-power — which is the same predicate the kernel's
/// [`crate::DeltaIrTracker`] answers from its slot ranks.
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_reference_traced(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
) -> Result<ExchangeResult, CoreError> {
    let psi = stack.tiers;
    let movable = validate(quadrant, initial, psi, config)?;

    let alpha = initial.finger_count();
    let mut sections = SectionTracker::new(quadrant, initial)?;
    let dense = initial.net_count() == alpha;
    let mut omega_tracker = if psi > 1 && dense {
        Some(OmegaTracker::new(quadrant, initial, psi)?)
    } else {
        None
    };
    // Returns `(cost, ir_term)`: the λ-weighted Δ_IR term is split out so
    // telemetry can report it per accepted move, exactly as the kernel's
    // cached term. The additions associate as before, so costs stay
    // bit-identical.
    let cost_of = |a: &Assignment,
                   sections: &SectionTracker,
                   omega_tracker: &Option<OmegaTracker>|
     -> Result<(f64, f64), CoreError> {
        let mut cost = 0.0;
        let mut ir_term = 0.0;
        if config.weights.lambda > 0.0 {
            // From scratch every move: the power pads' slots, their
            // integer gaps, and the shared exact formula.
            let mut slots: Vec<u32> = quadrant
                .nets_of_kind(NetKind::Power)
                .filter_map(|n| a.position_of(n))
                .map(|f| f.zero_based() as u32)
                .collect();
            slots.sort_unstable();
            if !slots.is_empty() {
                let g = slot_gap_squares(&slots, alpha as u64);
                ir_term =
                    config.weights.lambda * slot_delta_ir(g, slots.len() as u64, alpha as u64);
                cost += ir_term;
            }
        }
        if config.weights.rho > 0.0 {
            cost += config.weights.rho * f64::from(sections.increased_density());
        }
        if config.weights.phi > 0.0 && psi > 1 {
            let omega = match omega_tracker {
                Some(tracker) => tracker.omega(),
                None => omega_of_assignment(quadrant, a, psi)?,
            };
            cost += config.weights.phi * omega as f64;
        }
        if config.weights.margin > 0.0 {
            // From scratch every move — the executable spec of the
            // kernel's `MarginTracker`. Integer totals, so the two agree
            // exactly.
            cost += config.weights.margin * margin_penalty(quadrant, a) as f64;
        }
        Ok((cost, ir_term))
    };
    // The kernel's `DeltaIrTracker` reports whether a swap moved a power
    // pad's coordinate; the reference answers the same question from the
    // swapped slots' net kinds (an empty slot counts as non-power).
    let slot_is_power = |n: Option<NetId>| -> bool {
        n.is_some_and(|id| quadrant.net(id).map(|net| net.kind) == Some(NetKind::Power))
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut current = initial.clone();
    let (initial_cost, initial_ir_term) = cost_of(&current, &sections, &omega_tracker)?;
    let mut current_cost = initial_cost;

    let omega_part = match (&omega_tracker, psi > 1 && config.weights.phi > 0.0) {
        (Some(tracker), true) => config.weights.phi * tracker.omega() as f64,
        (None, true) => config.weights.phi * omega_of_assignment(quadrant, initial, psi)? as f64,
        _ => 0.0,
    };
    let temp_base = (initial_cost - omega_part).max(0.0);
    let mut temperature = config.schedule.initial_temp_factor * (temp_base + 1.0);
    let final_temp = temperature * config.schedule.final_temp_ratio;
    let moves_per_temp = config.schedule.moves_per_temp_per_finger * alpha;

    let mut stats = ExchangeStats {
        initial_cost,
        final_cost: initial_cost,
        proposed: 0,
        accepted: 0,
        uphill_accepted: 0,
        constraint_rejected: 0,
        temperature_steps: 0,
    };

    let rec_on = recorder.enabled();
    let rec_rejected = rec_on && recorder.wants_rejected();
    if rec_on {
        recorder.record(&Event::RunStart {
            initial_cost,
            ir_term: initial_ir_term,
            initial_temperature: temperature,
            final_temperature: final_temp,
            cooling: config.schedule.cooling,
            moves_per_temp: moves_per_temp as u64,
            movable_nets: movable.len() as u64,
        });
    }

    let mut best = current.clone();
    let mut best_cost = current_cost;

    while temperature > final_temp {
        let step_start = stats;
        let mut step_ir_noop: u64 = 0;
        for _ in 0..moves_per_temp {
            stats.proposed += 1;
            let net = movable[rng.gen_range(0..movable.len())];
            let pos = current.position_of(net).expect("complete assignment");
            let right = rng.gen_bool(0.5);
            let target = if right {
                if pos.get() as usize >= alpha {
                    stats.constraint_rejected += 1;
                    continue;
                }
                FingerIdx::new(pos.get() + 1)
            } else {
                if pos.get() == 1 {
                    stats.constraint_rejected += 1;
                    continue;
                }
                FingerIdx::new(pos.get() - 1)
            };

            let (lo, hi) = exchange_range(quadrant, &current, net)?;
            if target < lo || target > hi {
                stats.constraint_rejected += 1;
                continue;
            }
            if let Some(neighbour) = current.net_at(target) {
                let (nlo, nhi) = exchange_range(quadrant, &current, neighbour)?;
                if pos < nlo || pos > nhi {
                    stats.constraint_rejected += 1;
                    continue;
                }
            }

            let left_slot = if pos < target { pos } else { target };
            let left_net = current.net_at(left_slot);
            let right_net = current.net_at(FingerIdx::new(left_slot.get() + 1));
            if let (Some(l), Some(r)) = (left_net, right_net) {
                sections.apply_adjacent_swap(l, r);
            }
            if let Some(tracker) = &mut omega_tracker {
                tracker.apply_adjacent_swap(left_slot);
            }
            // Same predicate the kernel's tracker answers in O(1): the
            // Δ_IR term moves iff exactly one swapped slot holds a power
            // pad.
            let ir_changed =
                config.weights.lambda > 0.0 && slot_is_power(left_net) != slot_is_power(right_net);
            if rec_on && !ir_changed {
                step_ir_noop += 1;
            }
            current.swap(pos, target)?;
            let (new_cost, new_ir_term) = cost_of(&current, &sections, &omega_tracker)?;
            let delta = new_cost - current_cost;
            let accept = if delta <= 0.0 {
                true
            } else {
                config
                    .acceptance
                    .accepts(delta, temperature, rng.gen::<f64>())
            };
            if accept {
                stats.accepted += 1;
                if delta > 0.0 {
                    stats.uphill_accepted += 1;
                }
                current_cost = new_cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = current.clone();
                }
                if rec_on {
                    recorder.record(&Event::MoveAccepted {
                        step: stats.temperature_steps as u32,
                        left_slot: left_slot.get(),
                        delta,
                        cost: new_cost,
                        ir_term: new_ir_term,
                        ir_changed,
                        uphill: delta > 0.0,
                    });
                }
            } else {
                if rec_rejected {
                    recorder.record(&Event::MoveRejected {
                        step: stats.temperature_steps as u32,
                        left_slot: left_slot.get(),
                        delta,
                    });
                }
                current.swap(pos, target)?; // revert
                if let (Some(l), Some(r)) = (left_net, right_net) {
                    sections.apply_adjacent_swap(r, l);
                }
                if let Some(tracker) = &mut omega_tracker {
                    tracker.apply_adjacent_swap(left_slot);
                }
            }
        }
        if rec_on {
            recorder.record(&Event::TempStep {
                step: stats.temperature_steps as u32,
                temperature,
                proposed: (stats.proposed - step_start.proposed) as u64,
                accepted: (stats.accepted - step_start.accepted) as u64,
                uphill_accepted: (stats.uphill_accepted - step_start.uphill_accepted) as u64,
                constraint_rejected: (stats.constraint_rejected - step_start.constraint_rejected)
                    as u64,
                ir_noop_applied: step_ir_noop,
                cost: current_cost,
            });
        }
        temperature *= config.schedule.cooling;
        stats.temperature_steps += 1;
    }

    check_monotonic(quadrant, &best)?;
    stats.final_cost = best_cost;
    if rec_on {
        recorder.record(&Event::RunEnd {
            final_cost: best_cost,
            proposed: stats.proposed as u64,
            accepted: stats.accepted as u64,
            uphill_accepted: stats.uphill_accepted as u64,
            constraint_rejected: stats.constraint_rejected as u64,
            temperature_steps: stats.temperature_steps as u64,
        });
    }
    Ok(ExchangeResult {
        assignment: best,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dfa, CostWeights};
    use copack_geom::{NetKind, Quadrant, TierId};
    use copack_power::PadSpacingProxy;
    use copack_route::is_monotonic;

    /// Fig. 5 instance with power nets sprinkled in.
    fn quadrant_2d() -> Quadrant {
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

    /// Two-tier version of the same instance.
    fn quadrant_stacked() -> Quadrant {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        b.build().unwrap()
    }

    fn fast_config(seed: u64) -> ExchangeConfig {
        ExchangeConfig {
            schedule: crate::Schedule {
                moves_per_temp_per_finger: 2,
                final_temp_ratio: 1e-2,
                ..crate::Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        }
    }

    #[test]
    fn exchange_never_breaks_monotonicity() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for seed in 0..5 {
            let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(seed)).unwrap();
            assert!(is_monotonic(&q, &r.assignment), "seed {seed}");
            assert!(r.assignment.validate_complete(&q).is_ok());
        }
    }

    #[test]
    fn exchange_does_not_increase_cost() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(1)).unwrap();
        assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        // The heart of the optimisation's correctness argument: the
        // incremental kernel and the from-scratch reference walk the same trajectory and return equal results —
        // assignment AND statistics — for planar and stacked runs alike.
        let planar = quadrant_2d();
        let stacked = quadrant_stacked();
        for seed in 0..8 {
            let cfg = fast_config(seed);
            let i = dfa(&planar, 1).unwrap();
            let a = exchange(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            let b = exchange_reference(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            assert_eq!(a, b, "planar seed {seed}");

            let i = dfa(&stacked, 1).unwrap();
            let stack = StackConfig::stacked(2).unwrap();
            let a = exchange(&stacked, &i, &stack, &cfg).unwrap();
            let b = exchange_reference(&stacked, &i, &stack, &cfg).unwrap();
            assert_eq!(a, b, "stacked seed {seed}");
        }
    }

    #[test]
    fn kernel_matches_reference_on_sparse_instances() {
        // Sparse + stacked exercises the omega fallback and empty-slot
        // swaps in the same run.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .fingers(15);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        for seed in 0..4 {
            let cfg = fast_config(seed);
            let a = exchange(&q, &initial, &stack, &cfg).unwrap();
            let b = exchange_reference(&q, &initial, &stack, &cfg).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn kernel_matches_reference_with_margin_term() {
        // The fourth cost term stays inside the bit-identity contract:
        // with μ > 0 the kernel's incremental MarginTracker and the
        // reference's from-scratch margin_penalty walk the same
        // trajectory (the penalty is integer-valued, so no float drift).
        let planar = quadrant_2d();
        let stacked = quadrant_stacked();
        for seed in 0..6 {
            let mut cfg = fast_config(seed);
            cfg.weights.margin = 1.5;
            let i = dfa(&planar, 1).unwrap();
            let a = exchange(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            let b = exchange_reference(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            assert_eq!(a, b, "planar seed {seed}");

            let i = dfa(&stacked, 1).unwrap();
            let stack = StackConfig::stacked(2).unwrap();
            let a = exchange(&stacked, &i, &stack, &cfg).unwrap();
            let b = exchange_reference(&stacked, &i, &stack, &cfg).unwrap();
            assert_eq!(a, b, "stacked seed {seed}");
        }
    }

    #[test]
    fn margin_weight_zero_never_builds_the_tracker() {
        // Default weights must be bit-identical to pre-margin builds:
        // the cheapest proof is that μ = 0 and an explicit μ = 0 config
        // agree with each other and the default config exactly.
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let base = exchange(&q, &initial, &StackConfig::planar(), &fast_config(3)).unwrap();
        let mut cfg = fast_config(3);
        cfg.weights.margin = 0.0;
        let zeroed = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        assert_eq!(base, zeroed);
    }

    #[test]
    fn margin_term_reduces_the_penalty_when_dominant() {
        let q = quadrant_stacked();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        let before = margin_penalty(&q, &initial);
        let mut cfg = fast_config(4);
        cfg.weights = CostWeights {
            lambda: 0.0,
            rho: 0.0,
            phi: 0.0,
            margin: 1.0,
        };
        let r = exchange(&q, &initial, &stack, &cfg).unwrap();
        let after = margin_penalty(&q, &r.assignment);
        assert!(after <= before, "{after} !<= {before}");
        assert!(is_monotonic(&q, &r.assignment));
    }

    #[test]
    fn two_d_exchange_moves_only_power_pads() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(2)).unwrap();
        // Signal/ground nets may be displaced by a power pad swapping with
        // them, but their *relative* order must be intact.
        let signals_before: Vec<_> = initial
            .order()
            .into_iter()
            .filter(|&n| q.net(n).unwrap().kind != NetKind::Power)
            .collect();
        let signals_after: Vec<_> = r
            .assignment
            .order()
            .into_iter()
            .filter(|&n| q.net(n).unwrap().kind != NetKind::Power)
            .collect();
        assert_eq!(signals_before, signals_after);
    }

    #[test]
    fn exchange_improves_power_pad_spreading() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let proxy_of = |a: &Assignment| {
            let ts: Vec<f64> = q
                .nets_of_kind(NetKind::Power)
                .map(|n| (a.position_of(n).unwrap().get() as f64 - 0.5) / 12.0)
                .collect();
            PadSpacingProxy::new(&ts).unwrap().delta_ir()
        };
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(3)).unwrap();
        assert!(proxy_of(&r.assignment) <= proxy_of(&initial) + 1e-12);
    }

    #[test]
    fn stacked_exchange_reduces_omega() {
        let q = quadrant_stacked();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        let om_before = omega_of_assignment(&q, &initial, 2).unwrap();
        // Make the bonding-wire term the dominant objective so the test
        // exercises the omega mechanics rather than the weight balance.
        let mut cfg = fast_config(4);
        cfg.weights = CostWeights {
            lambda: 0.0,
            rho: 0.5,
            phi: 1.0,
            margin: 0.0,
        };
        let r = exchange(&q, &initial, &stack, &cfg).unwrap();
        let om_after = omega_of_assignment(&q, &r.assignment, 2).unwrap();
        assert!(om_after <= om_before, "{om_after} !<= {om_before}");
        assert!(is_monotonic(&q, &r.assignment));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let a = exchange(&q, &initial, &StackConfig::planar(), &fast_config(9)).unwrap();
        let b = exchange(&q, &initial, &StackConfig::planar(), &fast_config(9)).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn no_power_pads_in_2d_is_an_error() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let initial = Assignment::from_order([1u32, 2]);
        for f in [exchange, exchange_reference] {
            assert!(matches!(
                f(&q, &initial, &StackConfig::planar(), &fast_config(0)),
                Err(CoreError::NoMovablePads)
            ));
        }
    }

    #[test]
    fn tiers_above_psi_are_rejected_when_omega_can_be_scored() {
        // Kernel and reference share the check, at entry, whatever φ is
        // and whether the order is dense or sparse.
        for (tier, fingers) in [(3u8, 12usize), (200, 12), (3, 15)] {
            let q = Quadrant::builder()
                .row([10u32, 2, 4, 7, 0])
                .row([1u32, 3, 5, 8])
                .row([11u32, 6, 9])
                .net_kind(5u32, NetKind::Power)
                .net_tier(4u32, TierId::new(tier))
                .fingers(fingers)
                .build()
                .unwrap();
            let initial = dfa(&q, 1).unwrap();
            let stack = StackConfig::stacked(2).unwrap();
            for phi in [0.25, 0.0] {
                let mut cfg = fast_config(1);
                cfg.weights.phi = phi;
                for f in [exchange, exchange_reference] {
                    assert_eq!(
                        f(&q, &initial, &stack, &cfg),
                        Err(CoreError::Geom(copack_geom::GeomError::TierOutOfRange {
                            tier,
                            tiers: 2
                        })),
                        "tier {tier}, {fingers} fingers, phi {phi}"
                    );
                }
            }
            // A planar exchange never scores ω, so it ignores tiers.
            let planar = exchange(&q, &initial, &StackConfig::planar(), &fast_config(1)).unwrap();
            let reference =
                exchange_reference(&q, &initial, &StackConfig::planar(), &fast_config(1)).unwrap();
            assert_eq!(planar, reference);
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for f in [exchange, exchange_reference] {
            let mut bad = fast_config(0);
            bad.weights = CostWeights {
                lambda: -1.0,
                ..CostWeights::default()
            };
            assert!(matches!(
                f(&q, &initial, &StackConfig::planar(), &bad),
                Err(CoreError::BadConfig { .. })
            ));
            let mut bad = fast_config(0);
            bad.schedule.cooling = 2.0;
            assert!(f(&q, &initial, &StackConfig::planar(), &bad).is_err());
        }
    }

    #[test]
    fn illegal_initial_order_is_rejected() {
        let q = quadrant_2d();
        let bad = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        for f in [exchange, exchange_reference] {
            assert!(f(&q, &bad, &StackConfig::planar(), &fast_config(0)).is_err());
        }
    }

    #[test]
    fn result_is_never_worse_than_the_input_even_with_bad_rules() {
        // The annealer returns the best state seen, so even the paper's
        // inverted acceptance rule cannot hand back a degraded order.
        use crate::Acceptance;
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for acceptance in [
            Acceptance::Metropolis,
            Acceptance::AsWritten,
            Acceptance::Greedy,
        ] {
            let mut cfg = fast_config(11);
            cfg.acceptance = acceptance;
            let r = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
            assert!(
                r.stats.final_cost <= r.stats.initial_cost + 1e-9,
                "{acceptance:?}: {} > {}",
                r.stats.final_cost,
                r.stats.initial_cost
            );
        }
    }

    #[test]
    fn sparse_assignments_exchange_via_the_fallback_path() {
        // More fingers than nets: the omega tracker declines and the
        // exchange falls back to recomputation; legality must still hold.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .fingers(15);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        assert_eq!(initial.finger_count(), 15);
        let stack = StackConfig::stacked(2).unwrap();
        let r = exchange(&q, &initial, &stack, &fast_config(8)).unwrap();
        assert!(is_monotonic(&q, &r.assignment));
        assert!(r.assignment.validate_complete(&q).is_ok());
        assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn cancelled_token_aborts_the_run_with_a_typed_error() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = exchange_cancellable(
            &q,
            &initial,
            &StackConfig::planar(),
            &fast_config(1),
            &mut NoopRecorder,
            &token,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
        // An already-expired deadline behaves the same.
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let err = exchange_cancellable(
            &q,
            &initial,
            &StackConfig::planar(),
            &fast_config(1),
            &mut NoopRecorder,
            &expired,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
    }

    #[test]
    fn uncancelled_token_leaves_the_run_bit_identical() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let cfg = fast_config(7);
        let plain = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        let token = CancelToken::deadline_in(std::time::Duration::from_secs(3600));
        let tokened = exchange_cancellable(
            &q,
            &initial,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &token,
        )
        .unwrap();
        assert_eq!(plain, tokened);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(5)).unwrap();
        let s = r.stats;
        assert!(s.accepted <= s.proposed);
        assert!(s.uphill_accepted <= s.accepted);
        assert!(s.constraint_rejected <= s.proposed);
        assert!(s.temperature_steps > 0);
    }
}
