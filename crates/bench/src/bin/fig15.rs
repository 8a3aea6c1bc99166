//! Regenerates the paper's **Fig. 15**: routing plots of circuit 2 under
//! the random, IFA and DFA assignments. Writes three SVGs to
//! `target/fig15_{random,ifa,dfa}.svg` under the working directory
//! (created if it is missing) and prints the per-plot metrics
//! (DFA should look the straightest and score the lowest density, as in
//! the paper).
//!
//! Run with `cargo run --release -p copack-bench --bin fig15`.

use std::fs;

use copack_core::{assign, AssignMethod};
use copack_gen::circuit;
use copack_geom::Package;
use copack_route::{analyze, DensityModel};
use copack_viz::{package_svg, routing_svg, routing_svg_balanced};

fn main() {
    let c = circuit(2);
    let q = c.build_quadrant().expect("circuit 2 builds");

    let cases = [
        ("random", AssignMethod::Random { seed: 11 }),
        ("ifa", AssignMethod::Ifa),
        ("dfa", AssignMethod::dfa_default()),
    ];

    fs::create_dir_all("target").expect("target directory created");
    println!("Fig. 15: routing plots of {} (one quadrant)", c.name);
    let mut densities = Vec::new();
    for (name, method) in cases {
        let a = assign(&q, method).expect("assignment");
        let report = analyze(&q, &a, DensityModel::Geometric).expect("routable");
        let svg = routing_svg(&q, &a).expect("renders");
        let path = format!("target/fig15_{name}.svg");
        fs::write(&path, svg).expect("svg written");
        let balanced = routing_svg_balanced(&q, &a).expect("renders");
        fs::write(format!("target/fig15_{name}_balanced.svg"), balanced).expect("svg written");
        println!(
            "  {name:<7} max density {:>2}, wirelength {:>8.2} um  -> {path}",
            report.max_density, report.total_wirelength
        );
        densities.push(report.max_density);
    }
    assert!(
        densities[2] <= densities[1] && densities[1] <= densities[0],
        "expected DFA <= IFA <= random, got {densities:?}"
    );
    println!("Ordering DFA <= IFA <= random reproduced (paper shows the same).");

    // Bonus: the whole four-quadrant package under the DFA plan.
    let dfa = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    let package = Package::uniform(q);
    let sides = [dfa.clone(), dfa.clone(), dfa.clone(), dfa];
    let svg = package_svg(&package, &sides).expect("renders");
    fs::write("target/fig15_package.svg", svg).expect("svg written");
    println!("Whole-package view -> target/fig15_package.svg");
}
