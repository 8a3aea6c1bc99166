//! Machine-readable IR-solver benchmark: times `solve_mg` on the 20 pad
//! rings the Table 1 flow solves (circuits 1–5 at ψ = 1 and 4, before and
//! after the exchange, on the default 48×48 grid), on one 64×64 grid and on
//! one 2×64 strip, and writes `BENCH_ir.json` for tracking across commits.
//!
//! Every row records its CG iteration count, its repetition count and the
//! min, median and p90 wall seconds per solve. The `table1_rings` block
//! pools the 20 rings' solves into one spread: the per-solve cost of the
//! co-design flow's IR step. The file also records the host's core count.
//!
//! The rows are timed round-robin, one solve per row per round after one
//! untimed round, so host drift spreads over every row alike. Each ring's
//! solve must reproduce, bit for bit, the IR drop the flow reported.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_ir`.

use copack_bench::{host_cores, timed, Spread};
use copack_core::Codesign;
use copack_gen::circuits;
use copack_geom::{Assignment, NetKind, Quadrant};
use copack_obs::{Event, TraceBuffer};
use copack_power::{solve_mg, solve_mg_traced, GridSpec, PadRing};

/// Timed rounds: one solve of every row per round.
const ROUNDS: usize = 41;

/// One timed configuration.
struct Case {
    name: String,
    grid: GridSpec,
    ring: PadRing,
}

/// The pad ring the flow solves for an order: every power net's finger
/// position, replicated onto all four sides of the die.
fn power_ring(quadrant: &Quadrant, order: &Assignment) -> PadRing {
    let alpha = order.finger_count() as f64;
    let ts: Vec<f64> = quadrant
        .nets_of_kind(NetKind::Power)
        .flat_map(|net| {
            let pos = order.position_of(net).expect("power net is placed");
            let frac = (pos.get() as f64 - 0.5) / alpha;
            (0..4u32).map(move |side| (f64::from(side) + frac) / 4.0)
        })
        .collect();
    PadRing::from_ts(ts).expect("Table 1 circuits have power nets")
}

/// The 20 rings of the default flow on the Table 1 circuits.
fn table1_rings() -> Vec<Case> {
    let mut cases = Vec::new();
    for planar in circuits() {
        for psi in [1u8, 4] {
            let circuit = if psi == 1 {
                planar.clone()
            } else {
                planar.stacked(psi)
            };
            let quadrant = circuit.build_quadrant().expect("circuit builds");
            let flow = Codesign {
                stack: circuit.stack().expect("valid tier count"),
                ..Codesign::default()
            };
            let report = flow.run(&quadrant).expect("flow runs");
            for (stage, order, reported) in [
                ("before", &report.initial, report.ir_before),
                ("after", &report.final_assignment, report.ir_after),
            ] {
                let ring = power_ring(&quadrant, order);
                let drop = solve_mg(&flow.grid, &ring).expect("solves").max_drop();
                assert_eq!(
                    Some(drop.to_bits()),
                    reported.map(f64::to_bits),
                    "{} psi={psi} {stage}: the ring is not the one the flow solved",
                    circuit.name
                );
                cases.push(Case {
                    name: format!("{} psi={psi} {stage}", planar.name),
                    grid: flow.grid.clone(),
                    ring,
                });
            }
        }
    }
    cases
}

/// CG iterations of one solve.
fn iterations(case: &Case) -> u32 {
    let mut trace = TraceBuffer::new();
    solve_mg_traced(&case.grid, &case.ring, &mut trace).expect("solves");
    match trace.events().last() {
        Some(&Event::SolverDone { sweeps, .. }) => sweeps,
        other => panic!("{}: solve ended with {other:?}", case.name),
    }
}

fn main() {
    let mut cases = table1_rings();
    let rings = cases.len();
    cases.push(Case {
        name: "uniform-16 64x64".into(),
        grid: GridSpec::default_chip(64),
        ring: PadRing::uniform(16),
    });
    cases.push(Case {
        name: "uniform-4 2x64".into(),
        grid: GridSpec {
            nx: 2,
            ny: 64,
            ..GridSpec::default_chip(2)
        },
        ring: PadRing::uniform(4),
    });

    let mut samples = vec![Vec::with_capacity(ROUNDS); cases.len()];
    for round in 0..=ROUNDS {
        for (case, times) in cases.iter().zip(&mut samples) {
            let (seconds, map) = timed(|| solve_mg(&case.grid, &case.ring).expect("solves"));
            std::hint::black_box(map);
            // Round 0 is the warm-up.
            if round > 0 {
                times.push(seconds);
            }
        }
    }

    let pooled = Spread::of(samples[..rings].concat());
    let mut rows = Vec::new();
    for (case, times) in cases.iter().zip(samples) {
        let spread = Spread::of(times);
        let iters = iterations(case);
        println!(
            "{:<24} {}x{}: median {:.1} us, p90 {:.1} us, {iters} iterations",
            case.name,
            case.grid.nx,
            case.grid.ny,
            spread.median * 1e6,
            spread.p90 * 1e6,
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"grid\": \"{}x{}\", \"pads\": {}, \"iterations\": {iters}, {}}}",
            case.name,
            case.grid.nx,
            case.grid.ny,
            case.ring.len(),
            spread.json_fields()
        ));
    }
    println!(
        "table1 rings: median {:.1} us, p90 {:.1} us per solve over {} solves",
        pooled.median * 1e6,
        pooled.p90 * 1e6,
        pooled.reps
    );

    let cores = host_cores();
    let json = format!(
        "{{\n  \"benchmark\": \"ir\",\n  \"solver\": \"solve_mg\",\n  \"cores\": {cores},\n  \
         \"table1_rings\": {{\"rings\": {rings}, {}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        pooled.json_fields(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_ir.json", &json).expect("write BENCH_ir.json");
    println!("wrote BENCH_ir.json ({cores} cores)");
}
