//! Replays every committed fuzz reproducer under plain `cargo test`.
//!
//! Each `tests/corpus/*.copack` file is a shrunk instance that once
//! exposed a bug (in an oracle, a tracker, or — for the seeded entries —
//! the deliberately broken suite in `copack_verify::selftest`), paired
//! with a `.seed` sidecar recording how it was found and how to re-check
//! it. Running the full real-oracle suite over all of them on every test
//! run makes each reproducer a permanent regression guard: the bug class
//! it witnessed can never silently return. A replan reproducer also
//! carries the shrunk ECO as a `.edits` file; that exact delta is
//! replayed through the `replan_vs_scratch` check as well, since the
//! suite's own replan oracle derives a different churn delta.

use std::fs;
use std::path::PathBuf;

use copack::obs::NoopRecorder;
use copack::verify::{
    check_quadrant, check_replan_with_delta, read_sidecar, VerifyConfig, ORACLE_NAMES,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_entries() -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "copack"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn corpus_is_not_empty_and_fully_paired() {
    let entries = corpus_entries();
    assert!(!entries.is_empty(), "the seeded corpus must not vanish");
    for circuit in &entries {
        let sidecar = circuit.with_extension("seed");
        assert!(
            sidecar.exists(),
            "{} lacks its .seed sidecar",
            circuit.display()
        );
    }
}

#[test]
fn every_reproducer_passes_all_real_oracles() {
    for circuit in corpus_entries() {
        let text = fs::read_to_string(&circuit).unwrap();
        let (name, quadrant) = copack::io::parse_quadrant(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.display()));
        let sidecar =
            read_sidecar(&circuit.with_extension("seed")).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            ORACLE_NAMES.contains(&sidecar.oracle.as_str()),
            "{name}: unknown oracle `{}` in sidecar",
            sidecar.oracle
        );
        let mut config = VerifyConfig::quick(sidecar.tiers);
        config.exchange_seed = sidecar.exchange_seed;
        let mut reports = check_quadrant(&quadrant, &config, &mut NoopRecorder);
        let edits = circuit.with_extension("edits");
        if edits.exists() {
            let text = fs::read_to_string(&edits).unwrap();
            let (_, delta) = copack::io::parse_delta(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", edits.display()));
            let delta = delta
                .get(&name)
                .unwrap_or_else(|| panic!("{}: no section for `{name}`", edits.display()));
            reports.push(check_replan_with_delta(&quadrant, delta, &config));
        }
        for report in reports {
            assert!(
                report.passed,
                "{name}: oracle {} regressed: {}",
                report.oracle, report.detail
            );
        }
    }
}
