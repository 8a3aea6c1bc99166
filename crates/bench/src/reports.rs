//! The paper-artefact generators as pure functions.
//!
//! Each function renders one table or figure of the paper to the exact
//! text its `src/bin/` wrapper prints — the binaries stay the command-line
//! entry points, while `tests/golden_outputs.rs` pins the bytes against
//! the checked-in goldens in `tests/golden/` (the no-op-recorder
//! bit-identity guarantee).

use std::fmt::Write as _;

use copack_core::{
    assign, dfa, exchange, ifa, margin_penalty, AssignMethod, Codesign, CodesignReport,
    CostWeights, ExchangeConfig,
};
use copack_gen::{circuit, circuits};
use copack_geom::{Assignment, Quadrant, QuadrantGeometry};
use copack_power::GridSpec;
use copack_route::{analyze, balanced_density_map, DensityModel};
use copack_viz::{density_histogram, routing_ascii};

use crate::{f2, par_map, thousands, TextTable};

/// Renders the paper's **Table 2**: maximum package density and total
/// wirelength of the Random / IFA / DFA assignments on the five Table 1
/// circuits, plus the normalised average row.
///
/// Paper reference values: average density ratios 1 / 0.63 / 0.36 and
/// average wirelength ratios 1 / 0.88 / 0.82; every circuit satisfies
/// Random > IFA > DFA on density.
#[must_use]
pub fn table2_report() -> String {
    // The random baseline averages a few seeds so one unlucky draw does not
    // skew the ratios (the paper's random column is a single sample of an
    // unspecified seed).
    const RANDOM_SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

    let mut table = TextTable::new([
        "Input case",
        "Bal Random",
        "Bal IFA",
        "Bal DFA",
        "Fly Random",
        "Fly IFA",
        "Fly DFA",
        "WL Random",
        "WL IFA",
        "WL DFA",
    ]);

    // The five circuits are independent; measure them concurrently and
    // aggregate in input order (the output is thread-count invariant).
    let circuits = circuits();
    let rows = par_map(&circuits, 0, |circuit| {
        let quadrant = circuit.build_quadrant().expect("circuit builds");

        let mut rand_density = 0.0;
        let mut rand_balanced = 0.0;
        let mut rand_wl = 0.0;
        for &seed in &RANDOM_SEEDS {
            let a = assign(&quadrant, AssignMethod::Random { seed }).expect("random");
            let r = analyze(&quadrant, &a, DensityModel::Geometric).expect("routable");
            rand_density += f64::from(r.max_density);
            rand_balanced += f64::from(
                balanced_density_map(&quadrant, &a)
                    .expect("routable")
                    .max_density(),
            );
            rand_wl += r.total_wirelength;
        }
        rand_density /= RANDOM_SEEDS.len() as f64;
        rand_balanced /= RANDOM_SEEDS.len() as f64;
        rand_wl /= RANDOM_SEEDS.len() as f64;

        let ifa_a = assign(&quadrant, AssignMethod::Ifa).expect("ifa");
        let ifa_r = analyze(&quadrant, &ifa_a, DensityModel::Geometric).expect("routable");
        let ifa_bal = balanced_density_map(&quadrant, &ifa_a)
            .expect("routable")
            .max_density();
        let dfa_a = assign(&quadrant, AssignMethod::dfa_default()).expect("dfa");
        let dfa_r = analyze(&quadrant, &dfa_a, DensityModel::Geometric).expect("routable");
        let dfa_bal = balanced_density_map(&quadrant, &dfa_a)
            .expect("routable")
            .max_density();

        // The paper reports whole-package numbers (4 identical quadrants):
        // density is per-quadrant, wirelength sums over the package.
        let wl_scale = 4.0;
        let cells = [
            circuit.name.clone(),
            f2(rand_balanced),
            ifa_bal.to_string(),
            dfa_bal.to_string(),
            f2(rand_density),
            ifa_r.max_density.to_string(),
            dfa_r.max_density.to_string(),
            thousands(rand_wl * wl_scale),
            thousands(ifa_r.total_wirelength * wl_scale),
            thousands(dfa_r.total_wirelength * wl_scale),
        ];
        // ratios: balanced ifa, dfa; flyline ifa, dfa; wl ifa, dfa
        let ratios = [
            f64::from(ifa_bal) / rand_balanced,
            f64::from(dfa_bal) / rand_balanced,
            f64::from(ifa_r.max_density) / rand_density,
            f64::from(dfa_r.max_density) / rand_density,
            ifa_r.total_wirelength / rand_wl,
            dfa_r.total_wirelength / rand_wl,
        ];
        (cells, ratios)
    });

    let mut ratio_sums = [0.0f64; 6];
    for (cells, ratios) in rows {
        table.row(cells);
        for (sum, r) in ratio_sums.iter_mut().zip(ratios) {
            *sum += r;
        }
    }

    let n = circuits.len() as f64;
    table.row([
        "Average".to_owned(),
        "1.00".to_owned(),
        f2(ratio_sums[0] / n),
        f2(ratio_sums[1] / n),
        "1.00".to_owned(),
        f2(ratio_sums[2] / n),
        f2(ratio_sums[3] / n),
        "1.00".to_owned(),
        f2(ratio_sums[4] / n),
        f2(ratio_sums[5] / n),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: maximum density and total wirelength (random avg of {} seeds)",
        RANDOM_SEEDS.len()
    );
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "'Bal' = crossings balanced by the router (the paper routes with [10]'s"
    );
    let _ = writeln!(
        out,
        "iterative improvement, so its numbers are post-balancing); 'Fly' = naive"
    );
    let _ = writeln!(out, "flyline crossings.");
    let _ = writeln!(
        out,
        "Paper averages: density 1 / 0.63 / 0.36, wirelength 1 / 0.88 / 0.82"
    );
    out
}

/// Exchange seeds averaged per configuration (the annealer is stochastic;
/// the paper reports single runs of an unspecified seed).
const TABLE3_SEEDS: [u64; 3] = [0xC0DE, 0xBEEF, 0xF00D];

/// Exchange seeds of Table 3's spread lines: seeds `1..=24`.
const TABLE3_SPREAD_SEEDS: u64 = 24;

/// One flow run's Table 3 figures: IR improvement, bonding-wire
/// improvement and after-exchange max density.
fn table3_run(base: &Codesign, quadrant: &Quadrant, seed: u64) -> (CodesignReport, [f64; 3]) {
    let mut cfg = base.clone();
    cfg.exchange.seed = seed;
    let report = cfg.run(quadrant).expect("pipeline runs");
    let figures = [
        report.ir_improvement_percent.unwrap_or(0.0),
        report.omega_improvement_percent.unwrap_or(0.0),
        f64::from(report.routing_after.max_density),
    ];
    (report, figures)
}

/// Runs the flow once per seed and returns the last report plus the
/// seed-averaged IR improvement, bonding-wire improvement, and
/// after-exchange max density.
fn averaged(base: &Codesign, quadrant: &Quadrant) -> (CodesignReport, f64, f64, f64) {
    let mut sums = [0.0f64; 3];
    let mut last = None;
    for &seed in &TABLE3_SEEDS {
        let (report, figures) = table3_run(base, quadrant, seed);
        for (sum, v) in sums.iter_mut().zip(figures) {
            *sum += v;
        }
        last = Some(report);
    }
    let n = TABLE3_SEEDS.len() as f64;
    (
        last.expect("at least one seed"),
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
    )
}

/// The IR and bonding-wire improvements of one configuration at every
/// spread seed.
fn spread_runs(base: &Codesign, quadrant: &Quadrant) -> Vec<[f64; 2]> {
    (1..=TABLE3_SPREAD_SEEDS)
        .map(|seed| {
            let [ir, bondwire, _] = table3_run(base, quadrant, seed).1;
            [ir, bondwire]
        })
        .collect()
}

/// Renders the paper's **Table 3**: the effect of the finger/pad exchange
/// step after DFA, for 2-D (ψ = 1) and 4-tier stacking (ψ = 4) versions of
/// the five circuits — max density before/after, IR-drop improvement, and
/// (for stacking) the bonding-wire improvement.
///
/// Below the table, one line per improvement column gives the seed spread
/// of its average row: the five-circuit average at each of 24 exchange
/// seeds, as mean and min–max, and whether the paper's average falls
/// inside that range.
///
/// Paper reference values: 2-D IR-drop improvement avg 10.61%; stacking
/// (ψ = 4) IR-drop improvement avg 4.58% and bonding-wire improvement avg
/// 15.66%; density after exchanging grows by a couple of units (the cost
/// of the IR/bond-wire gains).
#[must_use]
pub fn table3_report() -> String {
    const COLUMNS: [(&str, f64); 3] = [
        ("2-D IR impr %", 10.61),
        ("4T IR impr %", 4.58),
        ("4T bondwire impr %", 15.66),
    ];
    let base = Codesign {
        grid: GridSpec::default_chip(48),
        ..Codesign::default()
    };

    let mut table = TextTable::new([
        "Input case",
        "2D dens DFA",
        "2D dens exch",
        "2D IR impr %",
        "4T dens DFA",
        "4T dens exch",
        "4T IR impr %",
        "4T bondwire impr %",
    ]);

    // Each circuit's 2-D and stacked runs are independent of every other
    // circuit; fan them out and aggregate in input order.
    let circuits = circuits();
    let rows = par_map(&circuits, 0, |circuit| {
        // 2-D run.
        let q2 = circuit.build_quadrant().expect("circuit builds");
        let (r2, ir2, _, dens2) = averaged(&base, &q2);

        // 4-tier stacking run.
        let stacked = circuit.stacked(4);
        let q4 = stacked.build_quadrant().expect("stacked circuit builds");
        let cfg4 = Codesign {
            stack: stacked.stack().expect("valid stack"),
            ..base.clone()
        };
        let (r4, ir4, bw4, dens4) = averaged(&cfg4, &q4);

        let cells = [
            circuit.name.clone(),
            r2.routing_before.max_density.to_string(),
            f2(dens2),
            f2(ir2),
            r4.routing_before.max_density.to_string(),
            f2(dens4),
            f2(ir4),
            f2(bw4),
        ];
        let (spread2, spread4) = (spread_runs(&base, &q2), spread_runs(&cfg4, &q4));
        let spread = [
            spread2.iter().map(|r| r[0]).collect::<Vec<_>>(),
            spread4.iter().map(|r| r[0]).collect(),
            spread4.iter().map(|r| r[1]).collect(),
        ];
        (cells, [ir2, ir4, bw4], spread)
    });

    let mut sums = [0.0f64; 3];
    // Per column, the sum over circuits at each spread seed.
    let mut seed_sums = [[0.0f64; TABLE3_SPREAD_SEEDS as usize]; 3];
    for (cells, improvements, spread) in rows {
        table.row(cells);
        for (sum, v) in sums.iter_mut().zip(improvements) {
            *sum += v;
        }
        for (column, runs) in seed_sums.iter_mut().zip(spread) {
            for (sum, v) in column.iter_mut().zip(runs) {
                *sum += v;
            }
        }
    }

    let n = circuits.len() as f64;
    table.row([
        "Average improvement".to_owned(),
        String::new(),
        String::new(),
        f2(sums[0] / n),
        String::new(),
        String::new(),
        f2(sums[1] / n),
        f2(sums[2] / n),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: finger/pad exchange on 2-D (psi=1) and stacking (psi=4) ICs \
         (improvements averaged over {} seeds)",
        TABLE3_SEEDS.len()
    );
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "Paper averages: 2-D IR 10.61%, stacking IR 4.58%, bonding wire 15.66%"
    );
    let _ = writeln!(
        out,
        "Average improvement over seeds 1-{TABLE3_SPREAD_SEEDS} (mean, min-max):"
    );
    for ((name, paper), column) in COLUMNS.iter().zip(seed_sums) {
        let averages: Vec<f64> = column.iter().map(|sum| sum / n).collect();
        let mean = averages.iter().sum::<f64>() / averages.len() as f64;
        let (lo, hi) = averages
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let verdict = if (lo..=hi).contains(paper) {
            "inside"
        } else {
            "outside"
        };
        let _ = writeln!(
            out,
            "  {name:<20} {} ({}-{}); paper {paper:.2} {verdict}",
            f2(mean),
            f2(lo),
            f2(hi)
        );
    }
    out
}

/// Renders the **A8 margin ablation**: the optional net-separation
/// margin term `SM` (weight μ, the fourth term of Eq. 3 — off by
/// default) swept over μ ∈ {0, 1.5, 5} on the five Table 1 circuits,
/// one exchange run each from the DFA initial order (seed 0xC0DE).
///
/// Reported per circuit: the initial DFA penalty, the penalty after
/// exchanging at each weight, and the after-exchange max density at the
/// extremes — the ablation shows what the term buys (margin) and what
/// it costs (density), and the golden pin in `tests/golden/margin.txt`
/// locks the μ = 0 column to the pre-margin annealer bit-for-bit.
#[must_use]
pub fn margin_report() -> String {
    const MARGIN_WEIGHTS: [f64; 3] = [0.0, 1.5, 5.0];

    let mut table = TextTable::new([
        "Input case",
        "SM DFA",
        "SM u=0",
        "SM u=1.5",
        "SM u=5",
        "dens u=0",
        "dens u=5",
    ]);

    // Circuits are independent; measure concurrently, aggregate in
    // input order (thread-count invariant like every other report).
    let circuits = circuits();
    let rows = par_map(&circuits, 0, |circuit| {
        let quadrant = circuit.build_quadrant().expect("circuit builds");
        let initial = dfa(&quadrant, 1).expect("dfa runs");
        let stack = copack_geom::StackConfig::planar();

        let mut penalties = Vec::with_capacity(MARGIN_WEIGHTS.len());
        let mut densities = Vec::with_capacity(MARGIN_WEIGHTS.len());
        for &margin in &MARGIN_WEIGHTS {
            let config = ExchangeConfig {
                weights: CostWeights {
                    margin,
                    ..CostWeights::default()
                },
                ..ExchangeConfig::default()
            };
            let result = exchange(&quadrant, &initial, &stack, &config).expect("exchange runs");
            penalties.push(margin_penalty(&quadrant, &result.assignment));
            densities.push(
                analyze(&quadrant, &result.assignment, DensityModel::Geometric)
                    .expect("routable")
                    .max_density,
            );
        }

        let cells = [
            circuit.name.clone(),
            margin_penalty(&quadrant, &initial).to_string(),
            penalties[0].to_string(),
            penalties[1].to_string(),
            penalties[2].to_string(),
            densities[0].to_string(),
            densities[2].to_string(),
        ];
        // Ratio of the strongly-weighted penalty to the unweighted one.
        let ratio = penalties[2] as f64 / penalties[0] as f64;
        (cells, ratio)
    });

    let mut ratio_sum = 0.0;
    for (cells, ratio) in rows {
        table.row(cells);
        ratio_sum += ratio;
    }
    let n = circuits.len() as f64;
    table.row([
        "Average SM ratio (u=5 / u=0)".to_owned(),
        String::new(),
        "1.00".to_owned(),
        String::new(),
        f2(ratio_sum / n),
        String::new(),
        String::new(),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "A8: net-separation margin term (mu, the optional fourth term of Eq. 3)"
    );
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "SM sums R - |row(a) - row(a+1)| over adjacent occupied fingers; lower"
    );
    let _ = writeln!(
        out,
        "is more lateral bond-wire margin. mu = 0 is bit-identical to the"
    );
    let _ = writeln!(
        out,
        "pre-margin annealer (the tracker is never built), so its column pins"
    );
    let _ = writeln!(out, "the default flow while the sweep shows the trade-off.");
    out
}

/// Renders the paper's **Fig. 5 / Fig. 10 / Fig. 12** worked example: the
/// 12-net, 3-row quadrant under the random order (density 4), the IFA
/// order (density 2) and the DFA order (density 2), printed with the same
/// finger orders the paper lists.
///
/// # Panics
///
/// Panics if the routability model disagrees with the paper's densities —
/// the worked example doubles as a correctness check.
#[must_use]
pub fn fig5_report() -> String {
    // Figure-style geometry: fingers span the ball grid, as drawn.
    let geometry = QuadrantGeometry {
        ball_pitch: 1.0,
        finger_pitch: 0.5,
        finger_width: 0.3,
        finger_height: 0.4,
        via_diameter: 0.1,
        ball_diameter: 0.2,
    };
    let q = Quadrant::builder()
        .row([10u32, 2, 4, 7, 0])
        .row([1u32, 3, 5, 8])
        .row([11u32, 6, 9])
        .geometry(geometry)
        .build()
        .expect("the Fig. 5 instance builds");

    let cases = [
        (
            "Fig. 5(A) random order",
            Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]),
            4u32,
        ),
        ("Fig. 10 IFA", ifa(&q).expect("ifa runs"), 2),
        ("Fig. 12 DFA", dfa(&q, 1).expect("dfa runs"), 2),
    ];

    let mut out = String::new();
    for (name, assignment, paper_density) in cases {
        let report = analyze(&q, &assignment, DensityModel::Geometric).expect("orders are legal");
        let _ = writeln!(out, "== {name} ==");
        let _ = write!(out, "{}", routing_ascii(&q, &assignment).expect("renders"));
        let _ = write!(
            out,
            "{}",
            density_histogram(&q, &assignment, DensityModel::Geometric).expect("renders")
        );
        let _ = writeln!(
            out,
            "max density {} (paper: {paper_density}), wirelength {:.2} um\n",
            report.max_density, report.total_wirelength
        );
        assert_eq!(
            report.max_density, paper_density,
            "{name}: model disagrees with the paper"
        );
    }
    let _ = writeln!(out, "All three worked examples match the paper exactly.");
    out
}

/// The assignments of the paper's **Fig. 15** routing plots of circuit 2,
/// in the order they are drawn: random, IFA and DFA.
pub const FIG15_CASES: [(&str, AssignMethod); 3] = [
    ("random", AssignMethod::Random { seed: 11 }),
    ("ifa", AssignMethod::Ifa),
    ("dfa", AssignMethod::dfa_default()),
];

/// Renders the metrics of the paper's **Fig. 15**: the maximum density and
/// flyline wirelength of circuit 2 under the random, IFA and DFA
/// assignments, and the ordering verdict the plots show.
///
/// # Panics
///
/// Panics unless DFA ≤ IFA ≤ random on maximum density, the ordering the
/// paper's plots show.
#[must_use]
pub fn fig15_report() -> String {
    let c = circuit(2);
    let q = c.build_quadrant().expect("circuit 2 builds");
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 15: routing plots of {} (one quadrant)", c.name);
    let mut densities = Vec::new();
    for (name, method) in FIG15_CASES {
        let a = assign(&q, method).expect("assignment");
        let report = analyze(&q, &a, DensityModel::Geometric).expect("routable");
        let _ = writeln!(
            out,
            "  {name:<7} max density {:>2}, wirelength {:>8.2} um",
            report.max_density, report.total_wirelength
        );
        densities.push(report.max_density);
    }
    assert!(
        densities[2] <= densities[1] && densities[1] <= densities[0],
        "expected DFA <= IFA <= random, got {densities:?}"
    );
    let _ = writeln!(
        out,
        "Ordering DFA <= IFA <= random reproduced (paper shows the same)."
    );
    out
}
