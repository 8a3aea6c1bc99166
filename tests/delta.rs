//! Property tests of the ECO delta layer: `diff_quadrant` followed by
//! `apply_delta` reproduces the target quadrant **byte-identically**
//! (through the circuit format, so geometry, finger counts, and per-net
//! kind/tier overrides all survive), the self-diff is always empty, and
//! the `.edits` text format round-trips every diff the generator can
//! produce. The no-op check reads every delta as a rebuild would.

use copack::core::{apply_delta, cancelling_delta, diff_quadrant, InstanceDelta};
use copack::gen::{churn, SplitMix64, STANDARD_CHURN};
use copack::geom::{NetKind, Quadrant, TierId};
use copack::io::{parse_delta, write_delta, write_quadrant};
use proptest::prelude::*;

/// Strategy: a quadrant with 1..=5 rows of 1..=8 balls, shuffled net
/// ids, every third net a power pad, optionally striped across `tiers`
/// stacking tiers — the same shape `tests/properties.rs` uses.
fn quadrant_strategy_tiered(tiers: u8) -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(1usize..=8, 1..=5), any::<u64>()).prop_map(move |(sizes, seed)| {
        let total: usize = sizes.iter().sum();
        let mut ids: Vec<u32> = (1..=total as u32).collect();
        let mut rng = SplitMix64::new(seed | 1);
        for i in (1..ids.len()).rev() {
            let j = (rng.next_u64() >> 16) as usize % (i + 1);
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

/// Asserts the delta contract between two concrete quadrants: applying
/// the diff of `a -> b` onto `a` lands exactly on `b`, including the
/// serialized circuit-file bytes.
fn assert_round_trip(a: &Quadrant, b: &Quadrant) {
    let delta = diff_quadrant(a, b);
    let rebuilt = apply_delta(a, &delta).expect("the diff applies to its own base");
    assert_eq!(&rebuilt, b, "structural equality");
    assert_eq!(
        write_quadrant("q", &rebuilt),
        write_quadrant("q", b),
        "byte-identical through the circuit format"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_then_apply_reproduces_the_target_exactly(
        a in quadrant_strategy_tiered(1),
        b in quadrant_strategy_tiered(1),
    ) {
        assert_round_trip(&a, &b);
    }

    #[test]
    fn diff_then_apply_round_trips_tiered_instances(
        a in quadrant_strategy_tiered(3),
        b in quadrant_strategy_tiered(3),
    ) {
        assert_round_trip(&a, &b);
    }

    #[test]
    fn a_self_diff_is_always_empty(q in quadrant_strategy_tiered(2)) {
        let delta = diff_quadrant(&q, &q);
        prop_assert!(delta.is_empty(), "self-diff produced {:?}", delta.edits);
        // And the empty delta is the identity.
        prop_assert_eq!(apply_delta(&q, &delta).expect("identity applies"), q);
    }

    #[test]
    fn churn_deltas_round_trip_like_any_other_eco(
        q in quadrant_strategy_tiered(2),
        seed in any::<u64>(),
    ) {
        // The standard-churn generator is how the quality bands and the
        // fuzz stream produce ECOs — its edits must obey the same
        // exactness contract as arbitrary pairs.
        let edited = churn(&q, seed, STANDARD_CHURN).expect("churn applies");
        assert_round_trip(&q, &edited);
    }

    #[test]
    fn the_noop_check_agrees_with_rebuilding(
        a in quadrant_strategy_tiered(2),
        b in quadrant_strategy_tiered(2),
        c in quadrant_strategy_tiered(2),
    ) {
        // A backed-out ECO (a -> b -> a), and the same followed by a real
        // one (a -> c): the no-op check must agree with applying the
        // delta and comparing the result with its base.
        let backed_out = cancelling_delta(&a, &b);
        let mut real = backed_out.clone();
        real.edits.extend(diff_quadrant(&a, &c).edits);
        for delta in [backed_out, real] {
            let rebuilt = apply_delta(&a, &delta).expect("the delta applies");
            prop_assert_eq!(delta.is_noop_for(&a).expect("the check runs"), rebuilt == a);
        }
    }

    #[test]
    fn the_edits_format_round_trips_every_diff(
        a in quadrant_strategy_tiered(3),
        b in quadrant_strategy_tiered(3),
    ) {
        let delta = InstanceDelta {
            quadrants: vec![("north".to_owned(), diff_quadrant(&a, &b))],
        };
        let text = write_delta("eco", &delta);
        let (name, parsed) = parse_delta(&text).expect("written deltas parse");
        prop_assert_eq!(name, "eco");
        prop_assert_eq!(parsed, delta);
    }
}

#[test]
fn the_empty_delta_file_round_trips() {
    let text = write_delta("noop", &InstanceDelta::default());
    let (name, parsed) = parse_delta(&text).expect("empty delta parses");
    assert_eq!(name, "noop");
    assert!(parsed.is_empty());
    assert!(parsed.is_clean("anything"));
}
