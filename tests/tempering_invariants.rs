//! Property tests of the parallel-tempering portfolio mode.
//!
//! Three contracts pin the ladder:
//!
//! 1. **Swaps exchange complete thermal states.** A rung's plan,
//!    journal, and RNG stream never leave their slot — only the thermal
//!    state (temperature, final temperature, cooling factor) moves — so
//!    every rung's cost ledger must re-audit bit-exactly across every
//!    swap barrier: each accepted move's Δ equals the cost step, and the
//!    run's final cost is the running minimum. A swap that corrupted a
//!    driver's state would break the chain at the barrier. Every rung
//!    is scheduled to end at the base final temperature.
//! 2. **Swap verdicts are pure.** Each `PortfolioSwap` event carries
//!    everything that decided it: re-deriving the Metropolis verdict
//!    from `(seed, epoch, rung, costs, temps)` must reproduce the
//!    recorded `accepted` flag, the proposal schedule must pair only
//!    adjacent rungs above rung 0 with the epoch's parity, and a rerun
//!    must produce the identical swap sequence.
//! 3. **A 1-rung ladder degenerates to `race`** byte-for-byte: result,
//!    journal, and trace.

use copack::core::{
    dfa, exchange_portfolio, exchange_portfolio_traced, tempering_swap_accepts,
    tempering_swap_draw, tempering_swap_probability, ExchangeConfig, PortfolioConfig,
    PortfolioMode, Schedule,
};
use copack::geom::{NetKind, Quadrant, StackConfig};
use copack::obs::{Event, TraceBuffer};
use proptest::prelude::*;

/// Strategy: a quadrant with 2..=4 rows of 2..=7 balls, net ids shuffled
/// deterministically, every third net (and net 1) a power pad.
fn quadrant_strategy() -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(2usize..=7, 2..=4), any::<u64>()).prop_map(|(sizes, seed)| {
        let total: usize = sizes.iter().sum();
        let mut ids: Vec<u32> = (1..=total as u32).collect();
        let mut state = seed | 1;
        for i in (1..ids.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            ids.swap(i, j);
        }
        let mut builder = Quadrant::builder();
        let mut cursor = 0;
        for &s in &sizes {
            builder = builder.row(ids[cursor..cursor + s].iter().copied());
            cursor += s;
        }
        for id in 1..=total as u32 {
            if id == 1 || id % 3 == 0 {
                builder = builder.net_kind(id, NetKind::Power);
            }
        }
        builder.build().expect("generated quadrants are valid")
    })
}

/// A schedule with enough temperature steps for several sync barriers,
/// short enough for many proptest cases.
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

/// One recorded `PortfolioSwap`, bit-exact: `(epoch, start_a, start_b,
/// cost_a, cost_b, temp_a, temp_b, accepted)` with the floats as bits.
type SwapRecord = (u32, u32, u32, u64, u64, u64, u64, bool);

fn temper_config(starts: u32, ladder_ratio: f64) -> PortfolioConfig {
    PortfolioConfig {
        starts,
        threads: 1,
        mode: PortfolioMode::Temper,
        ladder_ratio,
        ..PortfolioConfig::default()
    }
}

/// Splits a merged portfolio trace into per-start segments (each starts
/// at its `PortfolioStart` marker; the preamble before the first marker
/// belongs to no start).
fn per_start_segments(events: &[Event]) -> Vec<&[Event]> {
    let mut boundaries: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, Event::PortfolioStart { .. }).then_some(i))
        .collect();
    boundaries.push(events.len());
    boundaries.windows(2).map(|w| &events[w[0]..w[1]]).collect()
}

/// Audits one start's cost ledger bit-exactly: every accepted move's Δ
/// equals the cost step, and the final cost is the running minimum.
/// Returns the number of moves audited.
fn audit_ledger(segment: &[Event]) -> Result<usize, String> {
    let mut current: Option<f64> = None;
    let mut best: Option<f64> = None;
    let mut audited = 0usize;
    for e in segment {
        match e {
            Event::RunStart { initial_cost, .. } => {
                current = Some(*initial_cost);
                best = Some(*initial_cost);
            }
            Event::MoveAccepted { delta, cost, .. } => {
                let prev = current.ok_or("move before RunStart")?;
                let step = cost - prev;
                if step.to_bits() != delta.to_bits() {
                    return Err(format!(
                        "move {audited}: Δ {delta:e} != cost step {step:e} (bit-exact)"
                    ));
                }
                current = Some(*cost);
                if cost < best.as_ref().unwrap() {
                    best = Some(*cost);
                }
                audited += 1;
            }
            Event::RunEnd { final_cost, .. } => {
                let b = best.ok_or("RunEnd before RunStart")?;
                if final_cost.to_bits() != b.to_bits() {
                    return Err(format!(
                        "final cost {final_cost:e} != running minimum {b:e} (bit-exact)"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(audited)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: every rung's ledger re-audits exactly across every
    /// swap barrier — thermal swaps exchange complete states and leave
    /// every driver's plan/cost bookkeeping untouched — and every rung
    /// is scheduled to end at the same final temperature.
    #[test]
    fn every_rung_ledger_re_audits_exactly_across_swaps(
        q in quadrant_strategy(),
        seed in any::<u64>(),
        starts in 2u32..=5,
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let mut buf = TraceBuffer::new();
        let won = exchange_portfolio_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &fast_config(seed),
            &temper_config(starts, 1.5),
            &mut buf,
        )
        .expect("temper portfolio runs");
        prop_assert_eq!(won.pruned(), 0, "tempering never prunes");
        let events = buf.into_events();
        let segments = per_start_segments(&events);
        prop_assert_eq!(segments.len(), starts as usize);
        for (rung, segment) in segments.iter().enumerate() {
            if let Err(e) = audit_ledger(segment) {
                prop_assert!(false, "rung {}: {}", rung, e);
            }
        }
        // The ladder heats the early steps only: every rung cools to
        // the base final temperature.
        let finals: Vec<f64> = segments
            .iter()
            .filter_map(|segment| {
                segment.iter().find_map(|e| match e {
                    Event::RunStart { final_temperature, .. } => Some(*final_temperature),
                    _ => None,
                })
            })
            .collect();
        prop_assert_eq!(finals.len(), starts as usize);
        for (rung, f) in finals.iter().enumerate() {
            prop_assert!(
                (f - finals[0]).abs() <= 1e-12 * finals[0],
                "rung {} ends at {:e}, rung 0 at {:e}",
                rung,
                f,
                finals[0]
            );
        }
    }

    /// Contract 2: swap verdicts re-derive from the event fields alone,
    /// proposals pair only adjacent rungs above rung 0 on the epoch's
    /// parity, and a rerun reproduces the identical swap sequence.
    #[test]
    fn swap_verdicts_are_pure_functions_of_the_barrier(
        q in quadrant_strategy(),
        seed in any::<u64>(),
        starts in 2u32..=5,
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let config = fast_config(seed);
        let portfolio = temper_config(starts, 1.5);
        let mut buf = TraceBuffer::new();
        exchange_portfolio_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &config,
            &portfolio,
            &mut buf,
        )
        .expect("temper portfolio runs");
        let swap_fields = |events: &[Event]| -> Vec<SwapRecord> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::PortfolioSwap {
                        epoch,
                        start_a,
                        start_b,
                        cost_a,
                        cost_b,
                        temp_a,
                        temp_b,
                        accepted,
                    } => Some((
                        *epoch,
                        *start_a,
                        *start_b,
                        cost_a.to_bits(),
                        cost_b.to_bits(),
                        temp_a.to_bits(),
                        temp_b.to_bits(),
                        *accepted,
                    )),
                    _ => None,
                })
                .collect()
        };
        let events = buf.into_events();
        let swaps = swap_fields(&events);
        for &(epoch, start_a, start_b, cost_a, cost_b, temp_a, temp_b, accepted) in &swaps {
            prop_assert_eq!(start_b, start_a + 1, "swaps pair adjacent rungs only");
            prop_assert!(start_a >= 1, "rung 0 never swaps");
            prop_assert_eq!(
                start_a % 2,
                epoch % 2,
                "pair parity must follow the barrier's parity"
            );
            let rederived = tempering_swap_accepts(
                config.seed,
                epoch,
                start_a,
                f64::from_bits(cost_a),
                f64::from_bits(cost_b),
                f64::from_bits(temp_a),
                f64::from_bits(temp_b),
            );
            prop_assert_eq!(rederived, accepted, "verdict must re-derive from the event");
            // The draw and probability the verdict is built from are
            // themselves pure: recomputing them is stable, the draw is a
            // unit uniform, and the probability a valid Metropolis one.
            let draw = tempering_swap_draw(config.seed, epoch, start_a);
            prop_assert_eq!(
                draw.to_bits(),
                tempering_swap_draw(config.seed, epoch, start_a).to_bits()
            );
            prop_assert!((0.0..1.0).contains(&draw));
            let p = tempering_swap_probability(
                f64::from_bits(cost_a),
                f64::from_bits(cost_b),
                f64::from_bits(temp_a),
                f64::from_bits(temp_b),
            );
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(accepted, draw < p);
        }
        // Rerun: the identical swap sequence, bit for bit.
        let mut rerun_buf = TraceBuffer::new();
        exchange_portfolio_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &config,
            &portfolio,
            &mut rerun_buf,
        )
        .expect("rerun runs");
        let rerun_events = rerun_buf.into_events();
        prop_assert_eq!(swaps, swap_fields(&rerun_events));
    }

    /// Contract 3: a 1-rung ladder is `race`, byte for byte — result,
    /// journal, winner identity, and the full trace.
    #[test]
    fn a_one_rung_ladder_degenerates_to_race(
        q in quadrant_strategy(),
        seed in any::<u64>(),
        ladder_ratio in 1.0f64..4.0,
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let config = fast_config(seed);
        let run = |mode: PortfolioMode, buf: &mut TraceBuffer| {
            exchange_portfolio_traced(
                &q,
                &initial,
                &StackConfig::planar(),
                &config,
                &PortfolioConfig {
                    mode,
                    ladder_ratio,
                    ..temper_config(1, ladder_ratio)
                },
                buf,
            )
            .expect("single-start portfolio runs")
        };
        let mut race_buf = TraceBuffer::new();
        let race = run(PortfolioMode::Race, &mut race_buf);
        let mut temper_buf = TraceBuffer::new();
        let temper = run(PortfolioMode::Temper, &mut temper_buf);
        prop_assert_eq!(race, temper);
        prop_assert_eq!(race_buf.events(), temper_buf.events());
    }

    /// A flat ladder (`ladder_ratio == 1.0`) holds every rung at the
    /// same temperature: every Metropolis proposal is then a certain
    /// accept (`exp(0) = 1` beats any unit draw), and swapping equal
    /// thermal states is a no-op — so the winner must equal the same
    /// seed's multi-rung result at ratio 1.0 run twice (determinism
    /// through degenerate swaps).
    #[test]
    fn a_flat_ladder_accepts_every_swap_and_stays_deterministic(
        q in quadrant_strategy(),
        seed in any::<u64>(),
        starts in 2u32..=4,
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let config = fast_config(seed);
        let mut buf = TraceBuffer::new();
        let first = exchange_portfolio_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &config,
            &temper_config(starts, 1.0),
            &mut buf,
        )
        .expect("flat ladder runs");
        let events = buf.into_events();
        for e in &events {
            if let Event::PortfolioSwap { accepted, temp_a, temp_b, .. } = e {
                prop_assert_eq!(temp_a.to_bits(), temp_b.to_bits());
                prop_assert!(*accepted, "equal-temperature proposals are certain accepts");
            }
        }
        let second = exchange_portfolio(
            &q,
            &initial,
            &StackConfig::planar(),
            &config,
            &temper_config(starts, 1.0),
        )
        .expect("flat ladder reruns");
        prop_assert_eq!(first, second);
    }
}
