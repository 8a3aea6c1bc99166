//! Cache-key separation: distinct instances and distinct configurations
//! must never share a key on the paper's Table 1 circuits, and the key
//! must be insensitive to serialization noise (the complementary
//! invariance properties live in `copack-io`'s cache_key tests).

mod support;

use copack_core::{AssignMethod, PortfolioMode};
use copack_geom::Quadrant;
use copack_io::parse_quadrant;
use copack_serve::{cache_key, encode_request, JobSpec, Request};
use proptest::prelude::*;
use std::collections::HashMap;

fn table1_quadrants() -> Vec<(String, Quadrant)> {
    (1..=5)
        .map(|n| parse_quadrant(&support::circuit_text(n)).expect("Table 1 circuits parse"))
        .collect()
}

/// Every result-affecting configuration we expose through the protocol.
fn config_grid() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for method in [
        AssignMethod::Dfa { slack: 1 },
        AssignMethod::Dfa { slack: 2 },
        AssignMethod::Ifa,
        AssignMethod::Random { seed: 42 },
        AssignMethod::Random { seed: 43 },
    ] {
        specs.push(JobSpec {
            method,
            ..JobSpec::new("")
        });
        for (psi, xseed) in [(1u8, 0xC0DEu64), (2, 0xC0DE), (1, 7), (4, 7)] {
            specs.push(JobSpec {
                method,
                exchange: true,
                psi,
                exchange_seed: xseed,
                ..JobSpec::new("")
            });
        }
    }
    specs
}

#[test]
fn no_two_circuit_config_pairs_collide() {
    let quadrants = table1_quadrants();
    let specs = config_grid();
    let mut seen: HashMap<u64, String> = HashMap::new();
    for (name, quadrant) in &quadrants {
        for (i, spec) in specs.iter().enumerate() {
            let key = cache_key(spec, quadrant);
            let label = format!("{name} / config {i}");
            if let Some(previous) = seen.insert(key, label.clone()) {
                panic!("key collision: `{previous}` and `{label}` share {key:016x}");
            }
        }
    }
    // 5 circuits × (5 methods × (1 + 4 exchange variants)) distinct keys.
    assert_eq!(seen.len(), 5 * 5 * 5);
}

#[test]
fn the_same_pair_always_reproduces_its_key() {
    let quadrants = table1_quadrants();
    let specs = config_grid();
    for (_, quadrant) in &quadrants {
        for spec in &specs {
            assert_eq!(cache_key(spec, quadrant), cache_key(spec, quadrant));
        }
    }
}

/// The Fig. 5 quadrant: small enough to pin a whole frame as a literal.
const FIG5: &str = "quadrant fig5\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\n";

#[test]
fn keys_and_frames_are_pinned() {
    // A changed key re-plans every stored result, and a changed frame is
    // one older peers may not read, so each literal changes only on
    // purpose.
    let (_, quadrant) = parse_quadrant(FIG5).expect("Fig. 5 parses");
    // The DFA plan of the same quadrant, as `copack plan --out` writes it.
    let prev = "assignment fig5\norder 10 11 1 2 6 3 4 9 5 7 8 0\n";
    let single = JobSpec {
        exchange: true,
        ..JobSpec::new(FIG5)
    };
    let cases = [
        (
            single.clone(),
            0x75be_6639_d2e3_e1ec,
            r#"{"op":"plan","circuit":"quadrant fig5\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\n","method":"dfa","slack":1,"exchange":true,"psi":1,"xseed":49374}"#,
        ),
        (
            JobSpec {
                starts: 4,
                prune_margin_bits: 0.1f64.to_bits(),
                ..single.clone()
            },
            0x3eb5_ba2b_5b94_81e4,
            r#"{"op":"plan","circuit":"quadrant fig5\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\n","method":"dfa","slack":1,"exchange":true,"psi":1,"xseed":49374,"starts":4,"prune_margin_bits":4591870180066957722}"#,
        ),
        (
            JobSpec {
                starts: 8,
                mode: PortfolioMode::Coop,
                kick_size: 8,
                ..single.clone()
            },
            0xd0c2_781e_0ca1_08eb,
            r#"{"op":"plan","circuit":"quadrant fig5\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\n","method":"dfa","slack":1,"exchange":true,"psi":1,"xseed":49374,"starts":8,"prune_margin_bits":4598175219545276416,"mode":"coop","kick_size":8}"#,
        ),
        (
            JobSpec {
                margin_bits: 0.5f64.to_bits(),
                prev: Some(prev.to_owned()),
                ..single
            },
            0x5006_41b1_060e_5d1d,
            r#"{"op":"plan","circuit":"quadrant fig5\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\n","method":"dfa","slack":1,"exchange":true,"psi":1,"xseed":49374,"margin_bits":4602678819172646912,"prev":"assignment fig5\norder 10 11 1 2 6 3 4 9 5 7 8 0\n"}"#,
        ),
    ];
    for (spec, key, frame) in cases {
        assert_eq!(cache_key(&spec, &quadrant), key, "{frame}");
        assert_eq!(encode_request(&Request::Plan(spec)), frame);
    }
}

/// An arbitrary protocol-reachable spec over the Table 1 instances.
fn spec_strategy() -> impl Strategy<Value = (usize, JobSpec)> {
    (
        (0usize..5, 0u8..3, 0u32..=3, any::<u64>()),
        (0u8..2, 1u8..=8, any::<u64>()),
    )
        .prop_map(
            |((circuit, selector, slack, seed), (exchange, psi, xseed))| {
                let method = match selector {
                    0 => AssignMethod::Dfa { slack },
                    1 => AssignMethod::Ifa,
                    _ => AssignMethod::Random { seed },
                };
                (
                    circuit,
                    JobSpec {
                        method,
                        exchange: exchange == 1,
                        psi,
                        exchange_seed: xseed,
                        ..JobSpec::new("")
                    },
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distinct_work_never_collides_and_identical_work_always_matches(
        a in spec_strategy(),
        b in spec_strategy(),
    ) {
        let (ia, sa) = a;
        let (ib, sb) = b;
        let quadrants = table1_quadrants();
        let ka = cache_key(&sa, &quadrants[ia].1);
        let kb = cache_key(&sb, &quadrants[ib].1);

        // Normalise away fields that cannot affect the result, then
        // decide whether the two submissions describe the same work.
        let canon = |spec: &JobSpec| {
            let mut c = spec.clone();
            c.timeout_ms = None;
            if !c.exchange {
                c.psi = 1;
                c.exchange_seed = 0;
            }
            c
        };
        if ia == ib && canon(&sa) == canon(&sb) {
            prop_assert!(ka == kb, "identical work must share a key");
        } else {
            prop_assert!(ka != kb, "distinct work must not collide");
        }
    }
}
