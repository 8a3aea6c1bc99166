//! Property tests: the text formats round-trip arbitrary valid models.

use copack_core::PortfolioMode;
use copack_geom::{Assignment, FingerIdx, NetKind, Quadrant, TierId};
use copack_io::{
    parse_assignment, parse_quadrant, parse_tune, write_assignment, write_quadrant, write_tune,
    ClassConfig, ClassKey, TuneProfile,
};
use proptest::prelude::*;

fn quadrant_strategy() -> impl Strategy<Value = Quadrant> {
    (
        prop::collection::vec(1usize..=6, 1..=4),
        any::<u64>(),
        0u8..=3, // extra fingers beyond the net count
    )
        .prop_map(|(sizes, seed, extra)| {
            let total: usize = sizes.iter().sum();
            let mut ids: Vec<u32> = (1..=total as u32).collect();
            let mut state = seed | 1;
            let mut next = |bound: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % bound
            };
            for i in (1..ids.len()).rev() {
                let j = next(i + 1);
                ids.swap(i, j);
            }
            let mut builder = Quadrant::builder().fingers(total + extra as usize);
            let mut cursor = 0;
            for &s in &sizes {
                builder = builder.row(ids[cursor..cursor + s].iter().copied());
                cursor += s;
            }
            // Deterministic kind/tier sprinkling.
            for &id in &ids {
                match id % 5 {
                    0 => builder = builder.net_kind(id, NetKind::Power),
                    1 => builder = builder.net_kind(id, NetKind::Ground),
                    _ => {}
                }
                if id % 3 == 0 {
                    builder = builder.net_tier(id, TierId::new((id % 4) as u8 + 1));
                }
            }
            builder.build().expect("generated quadrants are valid")
        })
}

/// A finite `f64` with the full bit-pattern range the hex encoding must
/// preserve (subnormals, negative zero, huge magnitudes). Non-finite
/// bit patterns have their top exponent bit cleared, which lands on a
/// finite value while keeping sign and mantissa arbitrary.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let value = f64::from_bits(bits);
        if value.is_finite() {
            value
        } else {
            f64::from_bits(bits & !(1u64 << 62))
        }
    })
}

fn class_config_strategy() -> impl Strategy<Value = ClassConfig> {
    (
        (finite_f64(), finite_f64(), finite_f64(), any::<u32>()),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        (any::<u32>(), finite_f64()),
        (0u8..3, any::<u32>(), finite_f64()),
    )
        .prop_map(
            |(
                (cooling, initial_temp_factor, final_temp_ratio, moves_per_temp),
                (lambda, rho, phi, margin),
                (starts, prune_margin),
                (mode, kick_size, ladder_ratio),
            )| ClassConfig {
                cooling,
                initial_temp_factor,
                final_temp_ratio,
                moves_per_temp,
                lambda,
                rho,
                phi,
                margin,
                starts,
                prune_margin,
                mode: match mode {
                    0 => PortfolioMode::Race,
                    1 => PortfolioMode::Coop,
                    _ => PortfolioMode::Temper,
                },
                kick_size,
                ladder_ratio,
            },
        )
}

fn tune_profile_strategy() -> impl Strategy<Value = TuneProfile> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(
            (
                (1u32..=4096, 1u32..=128, 1u8..=8, 0u8..=100),
                class_config_strategy(),
            ),
            0..=6,
        ),
    )
        .prop_map(|(seed, space_fingerprint, raw)| {
            // The writer emits classes in sorted key order; build the
            // profile that way (deduplicated) so round-trips compare
            // structurally equal.
            let mut classes: Vec<(ClassKey, ClassConfig)> = Vec::new();
            for ((nets, rows, tiers, power_pct), config) in raw {
                let key = ClassKey {
                    nets,
                    rows,
                    tiers,
                    power_pct,
                };
                if !classes.iter().any(|(k, _)| *k == key) {
                    classes.push((key, config));
                }
            }
            classes.sort_by_key(|a| a.0);
            TuneProfile {
                seed,
                space_fingerprint,
                classes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quadrants_round_trip(q in quadrant_strategy(), name in "[a-z][a-z0-9 _-]{0,20}") {
        let text = write_quadrant(&name, &q);
        let (parsed_name, parsed) = parse_quadrant(&text).expect("own output parses");
        // Names are whitespace-normalised by the tokenising parser.
        let normalised: Vec<&str> = name.split_whitespace().collect();
        prop_assert_eq!(parsed_name, normalised.join(" "));
        prop_assert_eq!(parsed, q);
    }

    #[test]
    fn dense_assignments_round_trip(q in quadrant_strategy()) {
        // A dense order over the quadrant's nets.
        let order: Vec<_> = q.nets().map(|n| n.id).collect();
        let a = Assignment::from_order(order);
        let (_, parsed) = parse_assignment(&write_assignment("c", &a)).expect("parses");
        prop_assert_eq!(parsed, a);
    }

    #[test]
    fn sparse_assignments_round_trip(
        q in quadrant_strategy(),
        stride in 2usize..4,
    ) {
        // Place every net `stride` slots apart: a sparse plan.
        let nets: Vec<_> = q.nets().map(|n| n.id).collect();
        let mut a = Assignment::empty(nets.len() * stride);
        for (i, net) in nets.iter().enumerate() {
            a.place(*net, FingerIdx::from_zero_based(i * stride)).expect("free slot");
        }
        let (_, parsed) = parse_assignment(&write_assignment("c", &a)).expect("parses");
        // Slot-form trims trailing empty slots; compare the placements.
        for net in &nets {
            prop_assert_eq!(parsed.position_of(*net), a.position_of(*net));
        }
        prop_assert_eq!(parsed.net_count(), a.net_count());
    }

    #[test]
    fn tune_profiles_round_trip_bit_exactly(profile in tune_profile_strategy()) {
        let text = write_tune(&profile);
        let parsed = parse_tune(&text).expect("own output parses");
        // Every f64 travels as its IEEE-754 bit pattern, so the parsed
        // profile is structurally equal — subnormals, -0.0 and all.
        prop_assert_eq!(&parsed, &profile);
        // And the round-tripped document is byte-stable.
        prop_assert_eq!(write_tune(&parsed), text);
    }

    #[test]
    fn corrupting_any_tune_byte_is_rejected_or_equivalent(
        profile in tune_profile_strategy(),
        position in any::<u64>(),
        replacement in 0x20u8..0x7f,
    ) {
        let text = write_tune(&profile);
        let mut bytes = text.clone().into_bytes();
        let at = (position % bytes.len() as u64) as usize;
        bytes[at] = replacement;
        if bytes == text.as_bytes() {
            return Ok(()); // replacement landed on the same byte
        }
        // A single corrupted byte must never pass silently as a
        // *different* profile: either the checksum (or structure)
        // rejects it, or the mutation was semantically neutral and
        // re-serialises to the identical document.
        if let Some(Ok(reparsed)) = String::from_utf8(bytes).ok().map(|s| parse_tune(&s)) {
            prop_assert_eq!(write_tune(&reparsed), text);
        }
    }
}
