//! Warm-started exchange for incremental re-planning (`copack replan`).
//!
//! When a quadrant is edited, its previous plan is almost right: most
//! nets keep their relative order, and the monotonic rule is a purely
//! per-row property. So instead of a cold Random/IFA/DFA start plus a
//! full annealing schedule, the replan path, **at scale**:
//!
//! 1. **repairs** the previous assignment against the edited quadrant
//!    ([`repair_assignment`]) — surviving nets keep their old relative
//!    order, removed nets vanish, new nets append, and each ball row's
//!    occupied slots are rewritten in ball order so the result is
//!    monotonic-legal by construction;
//! 2. **reheats to cold-equivalent temperature**: the annealer
//!    auto-scales its starting temperature from the start's own cost,
//!    so a cheap repaired start would get a walk too cold to escape
//!    the basin an edit stranded it in — the initial temperature
//!    factor is scaled by the heat ratio of a fresh DFA construction
//!    over the repaired plan, matching a cold run's *absolute*
//!    starting temperature;
//! 3. **anneals a shortened schedule** from the repaired start
//!    ([`warm_schedule`]): the final-temperature ratio is raised to
//!    the 2/3 power, cutting the cooling tail — and the temperature
//!    step count — to roughly two thirds.
//!
//! Small instances (fewer fingers than the internal scratch cutoff)
//! are planned from scratch instead, bit-identically to a cold run: a
//! tiny anneal is start-dominated noise that no warm policy keeps
//! reliably equivalent, and re-running it is free.
//!
//! The combination is what `BENCH_replan.json` measures and the
//! `replan_vs_scratch` oracle proves equivalent: the warm result must
//! validate clean and land within a pinned cost band of from-scratch.

use copack_geom::{Assignment, FingerIdx, NetId, Quadrant, StackConfig};
use copack_obs::Recorder;
use copack_route::check_monotonic;

use crate::{
    dfa, exchange_cancellable, margin_penalty, CancelToken, CoreError, DeltaIrTracker,
    ExchangeConfig, ExchangeResult, Schedule,
};

/// Builds a monotonic-legal starting assignment for an edited quadrant
/// from the previous plan.
///
/// Surviving nets are packed densely (slots `1..=β`) in their previous
/// left-to-right order; a net new to the quadrant is **spliced next to
/// its row neighbours** — right after the nearest surviving ball to its
/// left in its row, else right before the nearest survivor to its
/// right, else (a wholly new row) appended in ball order. Splicing
/// matters because the warm annealer only proposes *adjacent* swaps
/// under a shortened schedule: a new net appended at the far end of the
/// order could never migrate home in the steps available. Each ball
/// row's occupied slots are then rewritten with that row's nets in ball
/// order — the monotonic rule is exactly "per-row ball order on the
/// fingers", so the result is always legal, whatever the edit did.
///
/// # Errors
///
/// [`CoreError::Route`] — defensively — if the repaired order fails the
/// monotonicity re-check (a bug, not an input condition).
pub fn repair_assignment(
    quadrant: &Quadrant,
    previous: &Assignment,
) -> Result<Assignment, CoreError> {
    let index = quadrant.net_index();
    // Survivors in previous order.
    let mut order: Vec<NetId> = Vec::with_capacity(quadrant.net_count());
    let mut placed = vec![false; index.len()];
    for (_, net) in previous.iter() {
        if let Some(i) = index.get(net) {
            if !placed[i] {
                placed[i] = true;
                order.push(net);
            }
        }
    }
    // New nets, spliced next to a row neighbour already in the order.
    for (_, nets) in quadrant.rows_bottom_up() {
        for (k, &net) in nets.iter().enumerate() {
            let i = index.get(net).expect("row net is interned");
            if placed[i] {
                continue;
            }
            let is_placed = |n: &&NetId| placed[index.get(**n).expect("row net is interned")];
            let at = if let Some(&left) = nets[..k].iter().rev().find(is_placed) {
                order
                    .iter()
                    .position(|&o| o == left)
                    .expect("placed net in order")
                    + 1
            } else if let Some(&right) = nets[k + 1..].iter().find(is_placed) {
                order
                    .iter()
                    .position(|&o| o == right)
                    .expect("placed net in order")
            } else {
                order.len()
            };
            order.insert(at, net);
            placed[i] = true;
        }
    }

    // Dense pack, then per-row reorder on a flat slot array.
    let mut slot_of = vec![usize::MAX; index.len()];
    for (slot, &net) in order.iter().enumerate() {
        slot_of[index.get(net).expect("ordered net is interned")] = slot;
    }
    let mut slots: Vec<Option<NetId>> = vec![None; quadrant.finger_count()];
    for (_, nets) in quadrant.rows_bottom_up() {
        let mut row_slots: Vec<usize> = nets
            .iter()
            .map(|&net| slot_of[index.get(net).expect("row net is interned")])
            .collect();
        row_slots.sort_unstable();
        for (&slot, &net) in row_slots.iter().zip(nets.iter()) {
            slots[slot] = Some(net);
        }
    }

    let mut repaired = Assignment::empty(quadrant.finger_count());
    for (slot, net) in slots.iter().enumerate() {
        if let Some(net) = net {
            repaired.place(*net, FingerIdx::from_zero_based(slot))?;
        }
    }
    check_monotonic(quadrant, &repaired)?;
    Ok(repaired)
}

/// The shortened annealing schedule of a warm start: the full reheat of
/// the base schedule, but a final-temperature ratio raised to the 2/3
/// power (e.g. `1e-3 → 1e-2`), which under geometric cooling cuts the
/// temperature step count to about two thirds. Cooling rate and
/// moves-per-temperature are untouched.
///
/// The full reheat is deliberate: an ECO edit can obsolete the previous
/// plan's power-pad spacing wholesale (a retype adds or removes a supply
/// pad), leaving the repaired start in a deep local minimum that only a
/// hot walk escapes. What the warm start saves is the *tail* — the slow
/// final decades of cooling exist to polish a cold random start, and a
/// repaired plan re-converges earlier.
#[must_use]
pub fn warm_schedule(base: &Schedule) -> Schedule {
    Schedule {
        final_temp_ratio: base.final_temp_ratio.powf(2.0 / 3.0),
        ..*base
    }
}

/// Cap on how far the warm reheat may scale the initial temperature
/// factor above the cold schedule's. A near-perfect repaired start has
/// near-zero heat, and matching a cold run's absolute temperature from
/// it would need an absurd factor; past this point the walk is already
/// effectively random and more heat buys nothing.
const MAX_REHEAT_SCALE: f64 = 64.0;

/// Below this finger count the replan path plans the edited quadrant
/// **from scratch** — bit-identically to a cold run — instead of
/// warm-starting. A tiny instance gives the annealer so few proposals
/// that the outcome is start-dominated noise: across the fuzz corpus,
/// neither the repaired start nor any reheat policy keeps small
/// instances reliably inside the replan band, while a from-scratch
/// anneal is equivalent *by construction* and costs microseconds at
/// this size. Warm-starting pays off exactly where it matters — at
/// scale, where the schedule has room to work and a cold anneal is
/// expensive.
const WARM_SCRATCH_CUTOFF: usize = 48;

/// The annealer's temperature base of a candidate start: the Eq. 3
/// terms that scale the starting temperature (`λ·Δ_IR + μ·SM` — the ω
/// part is excluded, exactly as the exchange driver excludes it, and
/// the ID term is zero by definition against the run's own initial).
/// Always uses the pad-spacing proxy for the IR term: this is a
/// deterministic reheat heuristic, not the annealer's objective, and
/// must stay cheap even under `IrObjective::FullSolve`.
fn start_heat(
    quadrant: &Quadrant,
    start: &Assignment,
    config: &ExchangeConfig,
) -> Result<f64, CoreError> {
    let ir = DeltaIrTracker::new(quadrant, start)?.delta_ir();
    let margin = if config.weights.margin > 0.0 {
        margin_penalty(quadrant, start) as f64
    } else {
        0.0
    };
    Ok(config.weights.lambda * ir + config.weights.margin * margin)
}

/// Runs the exchange on `quadrant` seeded from `previous` (typically
/// the plan of the quadrant *before* an edit): repair, then anneal the
/// shortened [`warm_schedule`]. Deterministic for a fixed
/// `(previous, config)` — repair is pure and the annealer is seeded.
///
/// Below `WARM_SCRATCH_CUTOFF` (48) fingers the edited quadrant is simply
/// planned from scratch — same DFA start, same schedule, same seed as a
/// cold run, so the result is *bit-identical* to from-scratch and the
/// replan equivalence holds by construction (a tiny anneal is
/// start-dominated noise no warm policy keeps in band, and re-running
/// it costs nothing).
///
/// At scale the repaired plan is the start, but it interacts subtly
/// with the annealer's auto-scaled temperature: the starting
/// temperature is `initial_temp_factor × (initial cost − ω part)`, so
/// a *cheap* repaired start gets a *cold* walk — too cold to rearrange
/// the supply-pad spacing an edit obsoleted, whatever the schedule
/// length. The warm path therefore compares the repaired start's heat
/// against a fresh DFA construction's (`start_heat`: λ·Δ_IR + μ·SM, one O(n)
/// evaluation each) and scales `initial_temp_factor` by the ratio
/// `fresh/repaired` (capped at `MAX_REHEAT_SCALE`, 64), so the warm
/// anneal reheats to the same **absolute** temperature a cold run
/// would start at. Basin escape then no longer depends on how cheap
/// the start happens to be, and since the returned plan is the running
/// *minimum* over the trajectory, extra heat can never make the result
/// worse than the repaired start itself.
///
/// A single anneal either way — and the shortened schedule's step
/// count depends only on `final_temp_ratio` and `cooling`, so the
/// replan speedup holds at scale.
///
/// # Errors
///
/// As [`crate::exchange`], plus [`CoreError::Cancelled`].
pub fn exchange_warm(
    quadrant: &Quadrant,
    previous: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<ExchangeResult, CoreError> {
    let repaired = repair_assignment(quadrant, previous)?;
    let fresh = dfa(quadrant, 1).ok();
    if quadrant.finger_count() < WARM_SCRATCH_CUTOFF {
        if let Some(fresh) = fresh {
            return exchange_cancellable(quadrant, &fresh, stack, config, recorder, cancel);
        }
        // No DFA construction for this instance: anneal the repaired
        // plan under the cold schedule instead.
        return exchange_cancellable(quadrant, &repaired, stack, config, recorder, cancel);
    }
    let mut warm = config.clone();
    warm.schedule = warm_schedule(&config.schedule);
    if let Some(fresh) = fresh {
        let repaired_heat = start_heat(quadrant, &repaired, config)?;
        let fresh_heat = start_heat(quadrant, &fresh, config)?;
        if repaired_heat > 0.0 && fresh_heat > repaired_heat {
            let scale = (fresh_heat / repaired_heat).min(MAX_REHEAT_SCALE);
            warm.schedule.initial_temp_factor *= scale;
        }
    }
    exchange_cancellable(quadrant, &repaired, stack, &warm, recorder, cancel)
}

/// [`exchange_warm`] seeded from a frozen run's journal instead of a
/// materialised plan: replays `journal[..best_len]` onto `initial`
/// (the winning trajectory kept by the portfolio reduction) and warm
/// starts from the replayed plan.
///
/// # Errors
///
/// As [`exchange_warm`]; [`CoreError::Geom`] if the journal does not
/// replay onto `initial`.
#[allow(clippy::too_many_arguments)] // the journal pair is inherent to the entry point
pub fn exchange_warm_from_journal(
    quadrant: &Quadrant,
    initial: &Assignment,
    journal: &[(u32, u32)],
    best_len: usize,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<ExchangeResult, CoreError> {
    let previous = crate::replay_journal(initial, journal, best_len)?;
    exchange_warm(quadrant, &previous, stack, config, recorder, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_delta, dfa, diff_quadrant, exchange, QuadrantDelta};
    use copack_geom::{NetKind, TierId};
    use copack_obs::NoopRecorder;
    use copack_route::is_monotonic;

    fn base() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .build()
            .unwrap()
    }

    fn edited() -> Quadrant {
        // Net 7 removed, nets 12 and 13 added, net 4 retyped.
        Quadrant::builder()
            .row([10u32, 2, 4, 0, 12])
            .row([1u32, 3, 5, 8, 13])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(4u32, NetKind::Power)
            .build()
            .unwrap()
    }

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

    #[test]
    fn repair_of_an_unedited_plan_is_the_plan_itself() {
        let q = base();
        let plan = dfa(&q, 1).unwrap();
        let repaired = repair_assignment(&q, &plan).unwrap();
        assert_eq!(repaired, plan);
    }

    #[test]
    fn repair_survives_every_edit_class() {
        let q = base();
        let plan = exchange(
            &q,
            &dfa(&q, 1).unwrap(),
            &StackConfig::planar(),
            &fast_config(1),
        )
        .unwrap()
        .assignment;
        let e = edited();
        let repaired = repair_assignment(&e, &plan).unwrap();
        assert!(is_monotonic(&e, &repaired));
        assert!(repaired.validate_complete(&e).is_ok());
        // Survivors keep their previous relative order within each row.
        let survivors_prev: Vec<NetId> = plan
            .order()
            .into_iter()
            .filter(|&n| e.net(n).is_some())
            .collect();
        assert!(!survivors_prev.is_empty());
    }

    #[test]
    fn repair_handles_sparse_and_tiered_quadrants() {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .fingers(15);
        for n in [10u32, 2, 4, 1] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let plan = dfa(&q, 1).unwrap();
        // Drop a net and add one via the delta layer.
        let d = QuadrantDelta {
            edits: vec![
                crate::Edit::Remove(NetId::new(7)),
                crate::Edit::Add {
                    net: NetId::new(42),
                    row: 1,
                    at: 0,
                },
                crate::Edit::Fingers(15),
            ],
        };
        let e = apply_delta(&q, &d).unwrap();
        let repaired = repair_assignment(&e, &plan).unwrap();
        assert!(is_monotonic(&e, &repaired));
        assert!(repaired.validate_complete(&e).is_ok());
        assert_eq!(repaired.finger_count(), 15);
    }

    #[test]
    fn warm_schedule_is_shorter_but_valid() {
        let cold = Schedule::default();
        let warm = warm_schedule(&cold);
        assert!(warm.is_valid());
        // ~2/3 of the cold step count: strictly shorter, but keeps the
        // full reheat (same initial temperature factor).
        assert!(warm.temperature_steps() < cold.temperature_steps() * 3 / 4);
        assert!(warm.temperature_steps() > cold.temperature_steps() / 2);
        assert_eq!(warm.initial_temp_factor, cold.initial_temp_factor);
        assert_eq!(warm.cooling, cold.cooling);
        assert_eq!(
            warm.moves_per_temp_per_finger,
            cold.moves_per_temp_per_finger
        );
    }

    #[test]
    fn exchange_warm_lands_in_the_scratch_feasibility_class() {
        let q = base();
        let cfg = fast_config(7);
        let cold = exchange(&q, &dfa(&q, 1).unwrap(), &StackConfig::planar(), &cfg).unwrap();
        let e = edited();
        let scratch = exchange(&e, &dfa(&e, 1).unwrap(), &StackConfig::planar(), &cfg).unwrap();
        let warm = exchange_warm(
            &e,
            &cold.assignment,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(is_monotonic(&e, &warm.assignment));
        assert!(warm.assignment.validate_complete(&e).is_ok());
        // Same feasibility class, cost within a generous factor of
        // from-scratch (the verify oracle pins the production band).
        assert!(
            warm.stats.final_cost <= scratch.stats.final_cost * 2.0 + 1e-9,
            "warm {} vs scratch {}",
            warm.stats.final_cost,
            scratch.stats.final_cost
        );
    }

    #[test]
    fn small_instances_replan_bit_identically_to_scratch() {
        // Below the scratch cutoff the warm path runs the cold pipeline
        // verbatim: same DFA start, same schedule, same seed.
        let q = base();
        let e = edited();
        let cfg = fast_config(11);
        let prev = exchange(&q, &dfa(&q, 1).unwrap(), &StackConfig::planar(), &cfg)
            .unwrap()
            .assignment;
        let scratch = exchange(&e, &dfa(&e, 1).unwrap(), &StackConfig::planar(), &cfg).unwrap();
        let warm = exchange_warm(
            &e,
            &prev,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(e.finger_count() < WARM_SCRATCH_CUTOFF);
        assert_eq!(warm, scratch);
    }

    #[test]
    fn exchange_warm_is_deterministic() {
        let q = base();
        let e = edited();
        let cfg = fast_config(3);
        let prev = exchange(&q, &dfa(&q, 1).unwrap(), &StackConfig::planar(), &cfg)
            .unwrap()
            .assignment;
        let a = exchange_warm(
            &e,
            &prev,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        let b = exchange_warm(
            &e,
            &prev,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn journal_seeded_warm_start_matches_plan_seeded() {
        let q = base();
        let e = edited();
        let cfg = fast_config(5);
        let initial = dfa(&q, 1).unwrap();
        let cold = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        // Rebuild the journal by rerunning through the portfolio path.
        let p = crate::exchange_portfolio(
            &q,
            &initial,
            &StackConfig::planar(),
            &cfg,
            &crate::PortfolioConfig {
                starts: 1,
                ..crate::PortfolioConfig::default()
            },
        )
        .unwrap();
        let from_journal = exchange_warm_from_journal(
            &e,
            &initial,
            &p.journal,
            p.best_len,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        let from_plan = exchange_warm(
            &e,
            &cold.assignment,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .unwrap();
        // K = 1 portfolio's winner IS the plain exchange result, so both
        // seeds are the same assignment and the runs coincide exactly.
        assert_eq!(from_journal, from_plan);
    }

    #[test]
    fn diffed_and_applied_edit_round_trips_into_repair() {
        let q = base();
        let e = edited();
        let delta = diff_quadrant(&q, &e);
        let rebuilt = apply_delta(&q, &delta).unwrap();
        assert_eq!(rebuilt, e);
        let plan = dfa(&q, 1).unwrap();
        let repaired = repair_assignment(&rebuilt, &plan).unwrap();
        assert!(is_monotonic(&rebuilt, &repaired));
    }
}
