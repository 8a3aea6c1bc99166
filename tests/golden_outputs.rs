//! Bit-identity of the paper artefacts against checked-in goldens.
//!
//! The telemetry layer's contract is that the default (no-op recorder)
//! paths do not perturb results: `table2`, `table3`, and `fig5` must
//! produce the exact bytes captured before the layer existed. The goldens
//! in `tests/golden/` were generated with
//! `cargo run --release -p copack-bench --bin <name>` at the pre-telemetry
//! commit; regenerate them the same way if an intentional model change
//! lands (and say so in the commit message).

use std::fs;
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fig5_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::fig5_report(), golden("fig5.txt"));
}

#[test]
fn table2_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::table2_report(), golden("table2.txt"));
}

#[test]
fn table3_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::table3_report(), golden("table3.txt"));
}

/// The A8 margin ablation is pinned too: its μ = 0 column runs the
/// annealer with the margin term disabled, so this golden doubles as
/// the bit-identity proof that adding the term did not perturb the
/// default flow.
#[test]
fn margin_ablation_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::margin_report(), golden("margin.txt"));
}

/// The `copack check` verdict table of every Table 1 circuit is pinned:
/// all seven oracles pass, and the detail lines (accepted-move counts,
/// pad counts, Eq. 2 `ID`) are seeded and therefore byte-stable.
/// Regenerate with
/// `for n in 1 2 3 4 5; do copack gen $n --out c.copack && copack check c.copack; done`
/// if an intentional model change lands.
#[test]
fn check_verdict_tables_are_bit_identical_to_the_golden() {
    let mut out = String::new();
    for n in 1..=5 {
        let c = copack::gen::circuit(n);
        let quadrant = c.build_quadrant().unwrap();
        let name = c.name.replace(' ', "");
        let reports = copack::verify::check_quadrant(
            &quadrant,
            &copack::verify::VerifyConfig::default(),
            &mut copack::obs::NoopRecorder,
        );
        out.push_str(&copack::verify::verdict_table(&name, &reports));
    }
    assert_eq!(out, golden("check.txt"));
}

/// Fig. 15's metrics: circuit 2's maximum density and flyline wirelength
/// under the random, IFA and DFA assignments, and the ordering verdict.
#[test]
fn fig15_output_is_bit_identical_to_the_golden() {
    assert_eq!(copack_bench::fig15_report(), golden("fig15.txt"));
}
