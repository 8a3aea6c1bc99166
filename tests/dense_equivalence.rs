//! Observational equivalence of the dense interned hot-path structures
//! against from-scratch keyed models.
//!
//! The PR-6 interning layer replaced the `BTreeMap`-keyed lookups on the
//! annealer's inner loop ([`copack::geom::NetIndex`] inside the
//! assignment, the section tracker, and the route range cache) with dense
//! arrays indexed by the quadrant's net interning. These tests pin the
//! refactor's contract: every dense structure answers exactly what the
//! keyed model it replaced would have answered, on fuzzed instances from
//! both generator families — including the reduced industrial-scale
//! (`large`) cases whose equal-row, deep-stack shape the Table 1 circuits
//! never produce.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use copack::core::{dfa, SectionBaseline, SectionTracker};
use copack::gen::{fuzz_case, large_fuzz_case, SplitMix64};
use copack::geom::{NetId, Quadrant};
use copack::route::{exchange_range, RangeCache};

/// A deterministic mixed bag of fuzzed quadrants: the classic generator
/// and the reduced large family, several seeds each.
fn fuzzed_quadrants() -> Vec<Quadrant> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 2009] {
        for index in 0..4u64 {
            out.push(fuzz_case(seed, index).expect("case builds").quadrant);
            out.push(large_fuzz_case(seed, index).expect("case builds").quadrant);
        }
    }
    out
}

#[test]
fn net_index_answers_exactly_like_a_btreemap() {
    for quadrant in fuzzed_quadrants() {
        let model: BTreeMap<NetId, usize> = quadrant
            .nets()
            .map(|n| n.id)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, i))
            .collect();
        let index = quadrant.net_index();
        assert_eq!(index.len(), model.len());
        assert_eq!(
            index.ids(),
            model.keys().copied().collect::<Vec<_>>(),
            "interned order is the BTreeMap iteration order"
        );
        for (&net, &i) in &model {
            assert_eq!(index.get(net), Some(i));
            assert_eq!(index.id(i), net);
        }
        // Misses answer like the map too: probe a band around every hit.
        for probe in 0..=(index.ids()[index.len() - 1].raw() + 2) {
            let probe = NetId::from(probe);
            assert_eq!(
                index.get(probe),
                model.get(&probe).copied(),
                "probe {probe:?}"
            );
        }
    }
}

#[test]
fn section_tracker_matches_the_from_scratch_recompute_under_swap_walks() {
    for (case, quadrant) in fuzzed_quadrants().into_iter().enumerate() {
        let initial = dfa(&quadrant, 1).expect("dfa");
        let baseline = SectionBaseline::record(&quadrant, &initial).expect("baseline");
        let mut tracker = SectionTracker::new(&quadrant, &initial).expect("tracker");
        let mut assignment = initial.clone();
        let mut rng = SplitMix64::new(case as u64);
        for step in 0..200u32 {
            let p = rng.below(assignment.finger_count() as u64 - 1) as usize;
            let (a, b) = (
                copack::geom::FingerIdx::from_zero_based(p),
                copack::geom::FingerIdx::from_zero_based(p + 1),
            );
            let (Some(left), Some(right)) = (assignment.net_at(a), assignment.net_at(b)) else {
                continue;
            };
            if tracker.is_delimiter(left) && tracker.is_delimiter(right) {
                continue;
            }
            tracker.apply_adjacent_swap(left, right);
            assignment.swap(a, b).expect("adjacent swap");

            // The dense incremental state must agree with a full keyed
            // recompute of both the counts and Eq. 2's ID.
            let fresh = SectionTracker::new(&quadrant, &assignment).expect("tracker");
            assert_eq!(
                tracker.counts(),
                fresh.counts(),
                "case {case} step {step}: counts diverged"
            );
            assert_eq!(
                tracker.increased_density(),
                baseline
                    .increased_density(&quadrant, &assignment)
                    .expect("recompute"),
                "case {case} step {step}: ID diverged"
            );
        }
    }
}

#[test]
fn range_cache_matches_the_keyed_model_and_the_direct_recompute() {
    for quadrant in fuzzed_quadrants() {
        let assignment = dfa(&quadrant, 1).expect("dfa");
        let cache = RangeCache::new(&quadrant, &assignment).expect("cache");
        let sorted: Vec<NetId> = quadrant
            .nets()
            .map(|n| n.id)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(cache.net_count(), sorted.len());
        for (i, &net) in sorted.iter().enumerate() {
            assert_eq!(
                cache.index_of(net),
                Some(i),
                "cache index order is the keyed iteration order"
            );
            let (lo, hi) = exchange_range(&quadrant, &assignment, net).expect("range");
            assert_eq!(
                cache.range(i),
                (lo.get(), hi.get()),
                "primed range of {net:?}"
            );
        }
    }
}

fn copack(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_copack"))
        .args(args)
        .output()
        .expect("binary spawns")
}

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("copack_dense_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end determinism contract of the industrial-scale family:
/// generating the same `(size, seed)` twice yields byte-identical circuit
/// files across separate processes, and planning the full package at 1
/// and 8 worker threads yields byte-identical plans.
#[test]
fn large_family_gen_and_plan_are_byte_deterministic_across_threads() {
    let dir = TestDir::new("large");
    let circuit = dir.0.join("large.copack");
    let gen_args = [
        "gen",
        "--family",
        "large",
        "--size",
        "1k",
        "--seed",
        "7",
        "--out",
        circuit.to_str().unwrap(),
    ];
    let out = copack(&gen_args);
    assert!(out.status.success(), "{out:?}");
    let first = std::fs::read(&circuit).expect("circuit written");

    let again = dir.0.join("again.copack");
    let mut regen = gen_args;
    regen[8] = again.to_str().unwrap();
    let out = copack(&regen);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        first,
        std::fs::read(&again).expect("circuit written"),
        "gen --family large forked across processes"
    );

    let plan_with = |threads: &str| {
        let out = copack(&[
            "plan",
            circuit.to_str().unwrap(),
            "--package",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        out.stdout
    };
    let serial = plan_with("1");
    assert!(
        String::from_utf8_lossy(&serial).contains("package plan"),
        "plan output: {}",
        String::from_utf8_lossy(&serial)
    );
    assert_eq!(
        serial,
        plan_with("8"),
        "package plan bytes changed under --threads 8"
    );
}
