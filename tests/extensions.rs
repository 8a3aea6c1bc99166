//! Integration tests for the extension features beyond the paper's core:
//! cut-line analysis, via rules, flip-chip pads, hotspots, dual-rail noise,
//! the package view, and the text formats.

use copack::core::{
    assign, evaluate_supply_noise, plan_package, AssignMethod, Codesign, ExchangeConfig, Schedule,
};
use copack::gen::{circuit, circuits, large_circuit};
use copack::geom::{Assignment, Package, StackConfig};
use copack::io::{parse_assignment, parse_quadrant, write_assignment, write_quadrant};
use copack::power::{solve_plan, GridSpec, Hotspot, PadArray, PadPlan, PadRing, Solver};
use copack::route::{
    cutline_congestion, density_map, density_map_with_plan, via_plan_with, DensityModel, FlankLoad,
    ViaRule,
};
use copack::viz::package_svg;

#[test]
fn cutline_congestion_is_stable_across_circuits() {
    for idx in 1..=5 {
        let c = circuit(idx);
        let q = c.build_quadrant().expect("builds");
        let package = Package::uniform(q.clone());
        let a = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let sides = [a.clone(), a.clone(), a.clone(), a];
        let report =
            cutline_congestion(&package, &sides, DensityModel::Geometric).expect("routable");
        // Symmetric package: one value on all four boundaries, and the
        // flank load is the step-2 triangle's geometric floor.
        assert!(report.boundaries.iter().all(|&b| b == report.max()));
        assert!(report.max() > 0);
    }
}

#[test]
fn via_rules_give_similar_densities() {
    // The "without loss of generality" claim: switching the via corner
    // must not change DFA's interior density by more than 1.
    for idx in 1..=5 {
        let q = circuit(idx).build_quadrant().expect("builds");
        let a = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let bl = density_map_with_plan(
            &q,
            &a,
            DensityModel::Geometric,
            &via_plan_with(&q, ViaRule::BottomLeft),
        )
        .expect("routable");
        let br = density_map_with_plan(
            &q,
            &a,
            DensityModel::Geometric,
            &via_plan_with(&q, ViaRule::BottomRight),
        )
        .expect("routable");
        let d = bl
            .max_density_interior()
            .abs_diff(br.max_density_interior());
        assert!(d <= 1, "circuit {idx}: interior density differs by {d}");
        // The default plan equals the bottom-left plan.
        let default = density_map(&q, &a, DensityModel::Geometric).expect("routable");
        assert_eq!(default.max_density(), bl.max_density());
    }
}

#[test]
fn flip_chip_always_beats_the_ring() {
    let grid = GridSpec::default_chip(20);
    for side in [2usize, 3, 4] {
        let pads = side * side;
        let wb = solve_plan(
            &grid,
            &PadPlan::WireBond(PadRing::uniform(pads)),
            Solver::Sor,
        )
        .expect("solves");
        let fc = solve_plan(
            &grid,
            &PadPlan::FlipChip(PadArray::new(side, side).expect("array")),
            Solver::Cg,
        )
        .expect("solves");
        assert!(fc.max_drop() < wb.max_drop(), "{pads} pads");
    }
}

#[test]
fn hotspots_worsen_the_drop_and_move_the_worst_node() {
    let base = GridSpec::default_chip(24);
    let ring = PadRing::uniform(8);
    let flat = copack::power::solve_sor(&base, &ring).expect("solves");
    let hot = GridSpec {
        hotspots: vec![Hotspot {
            cx: 0.2,
            cy: 0.2,
            radius: 0.15,
            multiplier: 8.0,
        }],
        ..base
    };
    let heated = copack::power::solve_sor(&hot, &ring).expect("solves");
    assert!(heated.max_drop() > flat.max_drop());
    // The worst node migrates towards the hotspot corner.
    let (i, j) = heated.worst_node();
    assert!(
        i < 12 && j < 12,
        "worst node ({i},{j}) not near the hotspot"
    );
}

#[test]
fn dual_rail_noise_exceeds_single_rail() {
    let q = circuit(2).build_quadrant().expect("builds");
    let a = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    let grid = GridSpec::default_chip(16);
    let noise = evaluate_supply_noise(&q, &a, &grid)
        .expect("solves")
        .expect("both rails");
    let vdd_only = copack::core::evaluate_ir(&q, &a, &grid)
        .expect("solves")
        .expect("power nets");
    assert!((noise.vdd_drop - vdd_only).abs() < 1e-12);
    assert!(noise.worst_total >= vdd_only);
}

#[test]
fn package_view_renders_every_circuit() {
    let c = circuit(1);
    let q = c.build_quadrant().expect("builds");
    let package = Package::uniform(q.clone());
    let a = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    let sides = [a.clone(), a.clone(), a.clone(), a];
    let svg = package_svg(&package, &sides).expect("renders");
    assert!(svg.starts_with("<svg"));
    assert_eq!(svg.matches("<polyline").count(), q.net_count() * 4);
}

#[test]
fn io_round_trips_generated_circuits_and_plans() {
    for idx in 1..=5 {
        let c = circuit(idx).stacked(2);
        let q = c.build_quadrant().expect("builds");
        let (_, q2) = parse_quadrant(&write_quadrant(&c.name, &q)).expect("parses");
        assert_eq!(q, q2, "circuit {idx} round trip");

        let a = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let (_, a2) = parse_assignment(&write_assignment(&c.name, &a)).expect("parses");
        assert_eq!(a, a2);
    }
}

#[test]
fn parsed_circuits_flow_through_the_whole_stack() {
    // Text file → quadrant → plan → route → serialize plan → re-parse.
    let q_text = write_quadrant("t", &circuit(1).build_quadrant().expect("builds"));
    let (_, q) = parse_quadrant(&q_text).expect("parses");
    let a = assign(&q, AssignMethod::Ifa).expect("ifa");
    let report = copack::route::analyze(&q, &a, DensityModel::Geometric).expect("routable");
    assert!(report.max_density > 0);
    let (_, a2) = parse_assignment(&write_assignment("t", &a)).expect("parses");
    assert_eq!(
        copack::route::analyze(&q, &a2, DensityModel::Geometric)
            .expect("routable")
            .max_density,
        report.max_density
    );
}

#[test]
fn mixed_assignment_packages_report_asymmetric_cutlines() {
    let q = circuit(1).build_quadrant().expect("builds");
    let package = Package::uniform(q.clone());
    let dfa = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    // Seed chosen so the shuffled side visibly differs from its DFA
    // neighbours at the cutlines under the workspace RNG stream.
    let random = assign(&q, AssignMethod::Random { seed: 9 }).expect("random");
    let sides: [Assignment; 4] = [dfa.clone(), random, dfa.clone(), dfa];
    let report = cutline_congestion(&package, &sides, DensityModel::Geometric).expect("routable");
    let distinct: std::collections::HashSet<u32> = report.boundaries.iter().copied().collect();
    assert!(distinct.len() > 1);
}

fn fast_package_flow(stack: StackConfig, model: DensityModel, threads: usize) -> Codesign {
    Codesign {
        grid: GridSpec::default_chip(16),
        exchange: ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 1e-2,
                cooling: 0.85,
                ..Schedule::default()
            },
            ..ExchangeConfig::default()
        },
        stack,
        density_model: model,
        threads,
        ..Codesign::default()
    }
}

/// The Table 1 circuits (planar) and two large-1k presets (at their ψ),
/// each as a uniform package.
fn table1_and_large_1k_packages() -> Vec<(String, Package, StackConfig)> {
    let mut out: Vec<_> = circuits()
        .into_iter()
        .map(|c| {
            let quadrant = c.build_quadrant().expect("Table 1 circuits build");
            (c.name, Package::uniform(quadrant), StackConfig::planar())
        })
        .collect();
    for seed in [1, 2] {
        let spec = large_circuit("1k", seed).expect("1k is a preset size");
        let quadrant = spec.build_quadrant().expect("large-1k builds");
        let stack = spec.stack().expect("preset stack");
        out.push((
            format!("{} seed {seed}", spec.name),
            Package::uniform(quadrant),
            stack,
        ));
    }
    out
}

#[test]
fn package_cutlines_equal_a_fresh_measurement() {
    // plan_package reads the cut-line congestion off its four side reports
    // instead of routing each side again. The figures must equal what
    // cutline_congestion measures on the final orders, and every side's
    // flanks those of its own density map, under both density models and
    // any thread count.
    let mut loaded = 0;
    for (name, package, stack) in table1_and_large_1k_packages() {
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            let mut reports = Vec::new();
            for threads in [1, 2] {
                let what = format!("{name} {model} threads {threads}");
                let report =
                    plan_package(&package, &fast_package_flow(stack, model, threads)).expect(&what);
                let fresh = cutline_congestion(&package, &report.assignments, model).expect(&what);
                assert_eq!(report.cutlines, fresh, "{what}");
                for (side, quadrant) in package.quadrants() {
                    let k = side.index();
                    let map = density_map(quadrant, &report.assignments[k], model).expect(&what);
                    assert_eq!(
                        report.routing[k].flanks,
                        FlankLoad::of(&map),
                        "{what} {side:?}"
                    );
                }
                loaded += usize::from(report.cutlines.max() > 0);
                reports.push(report);
            }
            assert_eq!(reports[0], reports[1], "{name} {model}: thread count");
        }
    }
    assert!(loaded > 0, "no package loads its cut-lines");
}
