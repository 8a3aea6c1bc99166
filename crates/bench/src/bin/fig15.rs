//! Regenerates the paper's **Fig. 15**: routing plots of circuit 2 under
//! the random, IFA and DFA assignments. Prints the per-plot metrics
//! ([`copack_bench::fig15_report`]: DFA should score the lowest density, as
//! in the paper) and writes three SVGs to
//! `target/fig15_{random,ifa,dfa}.svg` under the working directory
//! (created if it is missing), each with a balanced twin.
//!
//! Run with `cargo run --release -p copack-bench --bin fig15`.

use std::fs;

use copack_bench::{fig15_report, FIG15_CASES};
use copack_core::{assign, AssignMethod};
use copack_gen::circuit;
use copack_geom::Package;
use copack_viz::{package_svg, routing_svg, routing_svg_balanced};

fn main() {
    print!("{}", fig15_report());

    let q = circuit(2).build_quadrant().expect("circuit 2 builds");
    fs::create_dir_all("target").expect("target directory created");
    for (name, method) in FIG15_CASES {
        let a = assign(&q, method).expect("assignment");
        let svg = routing_svg(&q, &a).expect("renders");
        let path = format!("target/fig15_{name}.svg");
        fs::write(&path, svg).expect("svg written");
        let balanced = routing_svg_balanced(&q, &a).expect("renders");
        fs::write(format!("target/fig15_{name}_balanced.svg"), balanced).expect("svg written");
        println!("  {name:<7} -> {path}");
    }

    // Bonus: the whole four-quadrant package under the DFA plan.
    let dfa = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    let package = Package::uniform(q);
    let sides = [dfa.clone(), dfa.clone(), dfa.clone(), dfa];
    let svg = package_svg(&package, &sides).expect("renders");
    fs::write("target/fig15_package.svg", svg).expect("svg written");
    println!("Whole-package view -> target/fig15_package.svg");
}
