//! Property-based determinism oracles for the multi-start exchange
//! portfolio.
//!
//! The portfolio's contract is stronger than "same seed, same answer":
//! the winning plan, its replay journal, and the per-start report must
//! be **bit-identical for every thread count**, and pruned starts must
//! never displace the winner the reduction would have picked without
//! them. These properties are exercised here over randomly generated
//! quadrants (not just the Table 1 circuits), at several portfolio
//! widths and prune margins.

use copack_core::{
    dfa, exchange_portfolio, replay_journal, ExchangeConfig, PortfolioConfig, PortfolioMode,
    PortfolioResult, Schedule,
};
use copack_geom::{NetKind, Quadrant, StackConfig, TierId};
use proptest::prelude::*;

/// Strategy: a quadrant with 1..=4 rows of 2..=7 balls, net ids shuffled
/// deterministically from the seed. Net 1 and every third net are power
/// pads (the exchange needs at least one); with `tiers > 1` nets stripe
/// across tiers.
fn quadrant_strategy(tiers: u8) -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(2usize..=7, 1..=4), any::<u64>()).prop_map(move |(sizes, seed)| {
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
            if tiers > 1 {
                builder =
                    builder.net_tier(id, TierId::new(((id - 1) % u32::from(tiers) + 1) as u8));
            }
        }
        builder.build().expect("generated quadrants are valid")
    })
}

/// A schedule short enough for many proptest cases, long enough for
/// starts to diverge and prunes to fire.
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

fn run_mode(
    q: &Quadrant,
    seed: u64,
    starts: u32,
    prune_margin: f64,
    threads: usize,
    mode: PortfolioMode,
) -> PortfolioResult {
    let initial = dfa(q, 1).expect("dfa");
    exchange_portfolio(
        q,
        &initial,
        &StackConfig::planar(),
        &fast_config(seed),
        &PortfolioConfig {
            starts,
            prune_margin,
            threads,
            mode,
            ..PortfolioConfig::default()
        },
    )
    .expect("portfolio runs")
}

fn run(q: &Quadrant, seed: u64, starts: u32, prune_margin: f64, threads: usize) -> PortfolioResult {
    run_mode(q, seed, starts, prune_margin, threads, PortfolioMode::Race)
}

/// Strategy for the prune margin: pruning off, aggressive, and the
/// default — the determinism contract must hold under all of them.
fn margin_strategy() -> impl Strategy<Value = f64> {
    (0usize..3).prop_map(|i| [f64::INFINITY, 0.0, 0.25][i])
}

/// Strategy over the cooperation modes: every contract in this file must
/// hold for `race`, `coop`, and `temper` alike.
fn mode_strategy() -> impl Strategy<Value = PortfolioMode> {
    (0usize..3).prop_map(|i| {
        [
            PortfolioMode::Race,
            PortfolioMode::Coop,
            PortfolioMode::Temper,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The winning plan, journal, winner identity, and the full per-start
    /// report are bit-identical across thread counts 1, 2, and 8 — and
    /// across a rerun — in every cooperation mode.
    #[test]
    fn the_portfolio_is_thread_count_invariant(
        q in quadrant_strategy(1),
        seed in any::<u64>(),
        starts in 1u32..=6,
        margin in margin_strategy(),
        mode in mode_strategy(),
    ) {
        let serial = run_mode(&q, seed, starts, margin, 1, mode);
        let rerun = run_mode(&q, seed, starts, margin, 1, mode);
        prop_assert_eq!(&serial.result.assignment, &rerun.result.assignment);
        prop_assert_eq!(&serial.journal, &rerun.journal);
        for threads in [2usize, 8] {
            let parallel = run_mode(&q, seed, starts, margin, threads, mode);
            prop_assert_eq!(&serial.result.assignment, &parallel.result.assignment);
            prop_assert_eq!(&serial.journal, &parallel.journal);
            prop_assert_eq!(serial.winner_start, parallel.winner_start);
            prop_assert_eq!(serial.winner_seed, parallel.winner_seed);
            prop_assert_eq!(
                serial.result.stats.final_cost.to_bits(),
                parallel.result.stats.final_cost.to_bits()
            );
            prop_assert_eq!(serial.starts.len(), parallel.starts.len());
            for (a, b) in serial.starts.iter().zip(&parallel.starts) {
                prop_assert_eq!(a.start, b.start);
                prop_assert_eq!(a.seed, b.seed);
                prop_assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
                prop_assert_eq!(a.pruned_at, b.pruned_at);
            }
        }
    }

    /// Pruned starts never affect the reduction: the winner is always a
    /// start that survived to the end, every pruned start's frozen best
    /// is strictly worse than the winning cost, and turning pruning off
    /// entirely never yields a better winner than the pruned portfolio
    /// found (pruning only discards provably-trailing trajectories).
    #[test]
    fn pruned_starts_never_affect_the_reduction(
        q in quadrant_strategy(1),
        seed in any::<u64>(),
        starts in 2u32..=6,
    ) {
        let pruned = run(&q, seed, starts, 0.0, 1);
        let winner = pruned
            .starts
            .iter()
            .find(|s| s.start == pruned.winner_start)
            .expect("winner is reported");
        prop_assert!(winner.pruned_at.is_none(), "the winner was pruned");
        for s in pruned.starts.iter().filter(|s| s.pruned_at.is_some()) {
            prop_assert!(
                s.best_cost > pruned.result.stats.final_cost,
                "pruned start {} (best {}) beats the winner ({})",
                s.start,
                s.best_cost,
                pruned.result.stats.final_cost
            );
        }
    }

    /// The winner's journal replays onto the initial assignment to the
    /// exact winning plan — the property `copack-verify`'s replay oracle
    /// relies on (also under stacking, where ω joins the cost) — in every
    /// cooperation mode. For `coop` this covers crossed-over slots: a
    /// crossover winner's journal is its parent's prefix plus the kick
    /// plus its own accepted moves, and the composition must still land
    /// on the winning plan. For `temper` it covers swapped rungs, whose
    /// journals never leave their slot by construction.
    #[test]
    fn the_winning_journal_replays_to_the_winning_plan(
        q in quadrant_strategy(2),
        seed in any::<u64>(),
        starts in 1u32..=4,
        margin in margin_strategy(),
        mode in mode_strategy(),
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let stack = StackConfig::stacked(2).expect("valid stack");
        let won = exchange_portfolio(
            &q,
            &initial,
            &stack,
            &fast_config(seed),
            &PortfolioConfig {
                starts,
                prune_margin: margin,
                threads: 1,
                mode,
                ..PortfolioConfig::default()
            },
        )
        .expect("portfolio runs");
        let replayed = replay_journal(&initial, &won.journal, won.best_len).expect("replays");
        prop_assert_eq!(&replayed, &won.result.assignment);
    }

    /// A zero-margin `coop` portfolio prunes aggressively and respawns
    /// slots from the leader's plan; every one of those crossed-over
    /// slots must still satisfy the replay and determinism contracts,
    /// and the `coop` winner can never lose to the same-budget `race`
    /// portfolio's start 0 (the shared, structurally-exempt baseline).
    #[test]
    fn crossed_over_slots_uphold_the_contracts(
        q in quadrant_strategy(1),
        seed in any::<u64>(),
        starts in 2u32..=6,
    ) {
        let coop = run_mode(&q, seed, starts, 0.0, 1, PortfolioMode::Coop);
        let initial = dfa(&q, 1).expect("dfa");
        let replayed =
            replay_journal(&initial, &coop.journal, coop.best_len).expect("replays");
        prop_assert_eq!(&replayed, &coop.result.assignment);
        // Start 0 runs the caller's seed in both modes and is never
        // pruned, so its trajectory is mode-invariant: coop's winner is
        // at worst that shared baseline.
        let race = run_mode(&q, seed, 1, 0.0, 1, PortfolioMode::Race);
        prop_assert!(
            coop.result.stats.final_cost <= race.result.stats.final_cost,
            "coop winner {} lost to its own start 0 at {}",
            coop.result.stats.final_cost,
            race.result.stats.final_cost
        );
    }

    /// Tempering never prunes: every rung survives to the reduction,
    /// whatever the margin knob says, and the winner replays. Rung 0
    /// never swaps, so it anneals exactly as the single start does, and
    /// the winner is at worst that plain anneal.
    #[test]
    fn tempering_rungs_all_survive(
        q in quadrant_strategy(1),
        seed in any::<u64>(),
        starts in 2u32..=5,
        margin in margin_strategy(),
    ) {
        let won = run_mode(&q, seed, starts, margin, 1, PortfolioMode::Temper);
        prop_assert_eq!(won.pruned(), 0);
        prop_assert_eq!(won.starts.len(), starts as usize);
        let initial = dfa(&q, 1).expect("dfa");
        let replayed = replay_journal(&initial, &won.journal, won.best_len).expect("replays");
        prop_assert_eq!(&replayed, &won.result.assignment);
        let solo = run_mode(&q, seed, 1, margin, 1, PortfolioMode::Race);
        prop_assert_eq!(
            won.starts[0].best_cost.to_bits(),
            solo.result.stats.final_cost.to_bits(),
            "rung 0 must anneal exactly as the single start"
        );
        prop_assert!(won.result.stats.final_cost <= solo.result.stats.final_cost);
    }
}
