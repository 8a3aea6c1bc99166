//! Property-based tests of the core invariants, spanning crates.

use copack::core::{
    dfa, exchange, exchange_reference, ifa, omega_of_assignment, random_assignment, DeltaIrTracker,
    ExchangeConfig, Schedule,
};
use copack::geom::{FingerIdx, NetKind, Quadrant, StackConfig, TierId};
use copack::power::{
    slot_delta_ir, slot_gap_squares, solve_cg, solve_mg, GridSpec, PadRing, PadSpacingProxy,
};
use copack::route::{
    density_map, exchange_range, extract_paths, is_monotonic, DensityModel, RangeCache,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a quadrant with 1..=5 rows of 1..=8 balls, net ids shuffled,
/// every third net a power pad. With `tiers > 1` the nets are striped
/// across that many tiers (ω asserts `tier ≤ ψ`, so planar tests must use
/// `tiers = 1`, the default tier of every net).
fn quadrant_strategy_tiered(tiers: u8) -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(1usize..=8, 1..=5), any::<u64>()).prop_map(move |(sizes, seed)| {
        let total: usize = sizes.iter().sum();
        // Deterministic Fisher–Yates from the seed, no external RNG needed.
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
            if id % 3 == 0 {
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

fn quadrant_strategy() -> impl Strategy<Value = Quadrant> {
    quadrant_strategy_tiered(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_assignment_methods_are_monotonic_legal(q in quadrant_strategy(), seed in any::<u64>()) {
        for a in [
            random_assignment(&q, seed).expect("random"),
            ifa(&q).expect("ifa"),
            dfa(&q, 1).expect("dfa"),
            dfa(&q, 3).expect("dfa slack 3"),
        ] {
            prop_assert!(is_monotonic(&q, &a));
            prop_assert_eq!(a.net_count(), q.net_count());
            prop_assert!(a.validate_complete(&q).is_ok());
        }
    }

    #[test]
    fn density_counts_conserve_crossings(q in quadrant_strategy(), seed in any::<u64>()) {
        let a = random_assignment(&q, seed).expect("random");
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            let map = density_map(&q, &a, model).expect("legal");
            // Wires crossing line y = nets whose ball row is strictly below y.
            for row_density in &map.rows {
                let y = row_density.row.get();
                let expected: usize = (1..y)
                    .map(|lower| q.row(lower).len())
                    .sum();
                let counted: u32 = row_density.counts.iter().sum();
                prop_assert_eq!(counted as usize, expected);
            }
        }
    }

    #[test]
    fn exchange_ranges_contain_current_positions(q in quadrant_strategy(), seed in any::<u64>()) {
        let a = random_assignment(&q, seed).expect("random");
        for net in q.nets() {
            let pos = a.position_of(net.id).expect("placed");
            let (lo, hi) = exchange_range(&q, &a, net.id).expect("range");
            prop_assert!(lo <= pos && pos <= hi, "{}: {pos:?} not in [{lo:?}, {hi:?}]", net.id);
        }
    }

    #[test]
    fn paths_are_monotonic_and_cover_all_nets(q in quadrant_strategy(), seed in any::<u64>()) {
        let a = random_assignment(&q, seed).expect("random");
        let paths = extract_paths(&q, &a).expect("legal");
        prop_assert_eq!(paths.len(), q.net_count());
        for p in &paths {
            prop_assert!(p.is_monotonic());
            prop_assert!(p.length() > 0.0);
        }
    }

    #[test]
    fn planar_omega_is_always_zero(q in quadrant_strategy(), seed in any::<u64>()) {
        let a = random_assignment(&q, seed).expect("random");
        prop_assert_eq!(omega_of_assignment(&q, &a, 1).expect("omega"), 0);
    }

    #[test]
    fn proxy_gaps_always_sum_to_one(ts in prop::collection::vec(0.0f64..1.0, 1..20)) {
        let proxy = PadSpacingProxy::new(&ts).expect("valid positions");
        let sum: f64 = proxy.gaps().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(proxy.delta_ir() >= 0.0);
        prop_assert!(proxy.max_gap() <= 1.0 + 1e-12);
    }

    #[test]
    fn mg_and_cg_agree_on_random_rings(
        ts in prop::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let spec = GridSpec::default_chip(10);
        let ring = PadRing::from_ts(ts).expect("valid ring");
        let a = solve_mg(&spec, &ring).expect("mg");
        let b = solve_cg(&spec, &ring).expect("cg");
        prop_assert!((a.max_drop() - b.max_drop()).abs() < 1e-9);
    }

    #[test]
    fn exchange_preserves_legality_and_cost_on_arbitrary_instances(
        q in quadrant_strategy(),
        seed in any::<u64>(),
    ) {
        prop_assume!(q.nets_of_kind(NetKind::Power).next().is_some());
        let initial = dfa(&q, 1).expect("dfa");
        let cfg = ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 0.2,
                cooling: 0.5,
                ..Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        };
        let r = exchange(&q, &initial, &StackConfig::planar(), &cfg).expect("runs");
        prop_assert!(is_monotonic(&q, &r.assignment));
        prop_assert!(r.assignment.validate_complete(&q).is_ok());
        prop_assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn random_assignment_is_a_permutation(q in quadrant_strategy(), seed in any::<u64>()) {
        let a = random_assignment(&q, seed).expect("random");
        let mut ids: Vec<u32> = a.order().iter().map(|n| n.raw()).collect();
        ids.sort_unstable();
        let expected: Vec<u32> = (1..=q.net_count() as u32).collect();
        prop_assert_eq!(ids, expected);
    }

    /// The incremental kernel and the from-scratch reference must agree on
    /// the full [`copack::core::ExchangeResult`] — assignment, every
    /// statistic, both costs — for any quadrant and seed, at ψ = 1 and on
    /// a stacking design. This exercises the Δ_IR tracker, the range
    /// cache and the journal-rematerialised best all at once: a drifted
    /// float, a stale range or a mis-replayed journal each break equality.
    #[test]
    fn kernel_and_reference_exchanges_are_bit_identical_planar(
        q in quadrant_strategy(),
        seed in any::<u64>(),
    ) {
        prop_assume!(q.nets_of_kind(NetKind::Power).next().is_some());
        let initial = dfa(&q, 1).expect("dfa");
        let cfg = ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 2,
                final_temp_ratio: 0.1,
                cooling: 0.6,
                ..Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        };
        let fast = exchange(&q, &initial, &StackConfig::planar(), &cfg).expect("kernel runs");
        let slow =
            exchange_reference(&q, &initial, &StackConfig::planar(), &cfg).expect("reference runs");
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn kernel_and_reference_exchanges_are_bit_identical_stacked(
        q in quadrant_strategy_tiered(3),
        seed in any::<u64>(),
    ) {
        let initial = dfa(&q, 1).expect("dfa");
        let cfg = ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 2,
                final_temp_ratio: 0.1,
                cooling: 0.6,
                ..Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        };
        let stack = StackConfig::stacked(3).expect("valid stack");
        let fast = exchange(&q, &initial, &stack, &cfg).expect("kernel runs");
        let slow = exchange_reference(&q, &initial, &stack, &cfg).expect("reference runs");
        prop_assert_eq!(&fast, &slow);
    }

    /// Replaying an arbitrary accepted/rejected move sequence through the
    /// Δ_IR tracker reproduces the from-scratch score — the shared exact
    /// formula over the power pads' slots — **bit for bit** at every read,
    /// and that score lies within 1e-12 relative of the float
    /// pad-spacing proxy over their coordinates. A rejected move is
    /// reverted with `revert_adjacent_swap`, as the annealer does. Reads
    /// come at random points (between a swap and its revert, after the
    /// revert, or not for several moves).
    #[test]
    fn delta_ir_tracker_replays_match_the_proxy(
        q in quadrant_strategy(),
        moves in prop::collection::vec((any::<u64>(), any::<bool>(), 0u8..4), 1..60),
    ) {
        prop_assume!(q.nets_of_kind(NetKind::Power).next().is_some());
        let mut a = dfa(&q, 1).expect("dfa");
        let alpha = a.finger_count();
        prop_assume!(alpha >= 2);
        let fresh = |a: &copack::geom::Assignment| -> Result<f64, TestCaseError> {
            let mut slots: Vec<u32> = q
                .nets_of_kind(NetKind::Power)
                .filter_map(|n| a.position_of(n))
                .map(|f| f.zero_based() as u32)
                .collect();
            slots.sort_unstable();
            let (k, alpha) = (slots.len() as u64, alpha as u64);
            let exact = slot_delta_ir(slot_gap_squares(&slots, alpha), k, alpha);
            let ts: Vec<f64> = slots
                .iter()
                .map(|&s| (f64::from(s) + 0.5) / alpha as f64)
                .collect();
            let float = PadSpacingProxy::new(&ts).expect("proxy").delta_ir();
            // Relative, with an absolute floor for rings that are uniform
            // in exact arithmetic (score 0, float sum ~1e-33).
            prop_assert!(
                (exact - float).abs() <= 1e-12 * float.max(1e-12),
                "exact {:e} vs float {:e}",
                exact,
                float
            );
            Ok(exact)
        };
        let mut tracker = DeltaIrTracker::new(&q, &a).expect("tracker");
        for (pick, accepted, reads) in moves {
            let left = FingerIdx::new(1 + (pick % (alpha as u64 - 1)) as u32);
            let right = FingerIdx::new(left.get() + 1);
            tracker.apply_adjacent_swap(left);
            a.swap(left, right).expect("swap");
            if reads & 1 == 1 {
                prop_assert_eq!(tracker.delta_ir().to_bits(), fresh(&a)?.to_bits());
            }
            if !accepted {
                tracker.revert_adjacent_swap(left);
                a.swap(left, right).expect("swap");
            }
            if reads & 2 == 2 {
                prop_assert_eq!(tracker.delta_ir().to_bits(), fresh(&a)?.to_bits());
            }
        }
        prop_assert_eq!(tracker.delta_ir().to_bits(), fresh(&a)?.to_bits());
    }

    /// A [`RangeCache`] refreshed only via `note_moved` on accepted moves
    /// (rejected ones revert without notification, as in the annealer)
    /// always matches [`exchange_range`] recomputed on the live assignment.
    #[test]
    fn range_cache_replays_match_recomputation(
        q in quadrant_strategy(),
        seed in any::<u64>(),
        moves in prop::collection::vec((any::<u64>(), any::<bool>()), 1..60),
    ) {
        let mut a = random_assignment(&q, seed).expect("random");
        let alpha = a.finger_count();
        prop_assume!(alpha >= 2);
        let mut cache = RangeCache::new(&q, &a).expect("cache");
        for (pick, accepted) in moves {
            let p = FingerIdx::new(1 + (pick % (alpha as u64 - 1)) as u32);
            let t = FingerIdx::new(p.get() + 1);
            let (Some(na), Some(nb)) = (a.net_at(p), a.net_at(t)) else { continue };
            // Only monotonicity-preserving swaps, as the annealer proposes.
            let (alo, ahi) = exchange_range(&q, &a, na).expect("range");
            let (blo, bhi) = exchange_range(&q, &a, nb).expect("range");
            if t < alo || t > ahi || p < blo || p > bhi {
                continue;
            }
            a.swap(p, t).expect("swap");
            if accepted {
                let pos: Vec<u32> = q
                    .nets()
                    .map(|n| a.position_of(n.id).expect("dense").get())
                    .collect();
                cache.note_moved(cache.index_of(na).expect("known"), &pos);
                cache.note_moved(cache.index_of(nb).expect("known"), &pos);
            } else {
                a.swap(p, t).expect("revert");
            }
            for net in q.nets() {
                let i = cache.index_of(net.id).expect("known");
                let (lo, hi) = exchange_range(&q, &a, net.id).expect("range");
                prop_assert_eq!(cache.range(i), (lo.get(), hi.get()), "net {}", net.id.raw());
            }
        }
    }

    /// Every generated quadrant passes all five `copack-verify` oracles:
    /// the invariants the oracles encode are theorems of the model, not
    /// properties of hand-picked fixtures. Each case is five full oracle
    /// passes under the quick profile (`PROPTEST_CASES` scales it up in
    /// release CI).
    #[test]
    fn oracles_hold_on_arbitrary_quadrants(q in quadrant_strategy(), seed in any::<u64>()) {
        let config = copack::verify::VerifyConfig {
            exchange_seed: seed,
            ..Default::default()
        };
        let reports = copack::verify::check_quadrant(
            &q,
            &config,
            &mut copack::obs::NoopRecorder,
        );
        prop_assert_eq!(reports.len(), copack::verify::ORACLE_NAMES.len());
        for r in &reports {
            prop_assert!(r.passed, "oracle {} failed: {}", r.oracle, r.detail);
        }
    }
}
