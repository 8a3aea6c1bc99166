//! Machine-readable portfolio-annealing benchmark: for every Table 1
//! circuit, sweep the portfolio width (quality vs. starts at a fixed
//! thread count), the worker count (wall clock vs. threads at a fixed
//! width), and the cooperation mode (quality vs. `race`/`coop`/`temper`
//! at an equal move budget), asserting the structural guarantees along
//! the way — the K-start winner is never worse than the single start it
//! contains, the winner is bit-identical for every thread count, and
//! the cooperative modes never lose to `race` at the same budget.
//! Writes the curves to `BENCH_portfolio.json` for tracking across
//! commits.
//!
//! Every configuration runs once untimed and [`REPS`] times timed; the
//! file records the spread of its wall seconds (reps, min, median, p90)
//! and the host's core count, and the thread crossover compares medians.
//! Every run of a configuration must return the same winner.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_portfolio`.

use std::fmt::Write as _;

use copack_bench::{host_cores, repeat_timed, Spread};
use copack_core::{
    assign, exchange_portfolio, AssignMethod, ExchangeConfig, PortfolioConfig, PortfolioMode,
    Schedule,
};
use copack_gen::{circuits, large_circuit};
use copack_geom::{Assignment, Quadrant, StackConfig};

/// Portfolio widths for the quality sweep (K = 1 is the plain-exchange
/// baseline).
const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// Worker counts for the wall-clock sweep (at the widest portfolio).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Timed runs per configuration, after one untimed run.
const REPS: usize = 5;

/// A deliberately starved schedule: with this little annealing budget a
/// single start routinely stalls in a local minimum, which is exactly
/// the regime where portfolio width pays (and the sweep stays fast
/// enough to run five circuits times twelve configurations).
fn bench_config() -> ExchangeConfig {
    ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 5e-2,
            cooling: 0.7,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    }
}

/// The schedule for the quality-vs-mode sweep. Deeper than the starved
/// width sweep on purpose: on a one-shot starved ramp the hot rungs of
/// a tempering ladder have only a few steps to cool in. The paper-style
/// claim the mode gate pins — cooperation never loses at an equal move
/// budget — is about schedules deep enough for the ladder (and
/// `coop`'s crossover respawns) to actually mix.
fn mode_config() -> ExchangeConfig {
    ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    }
}

/// The cooperation modes the quality gate sweeps, `race` first (it is
/// the baseline the other two are compared against).
const MODES: [PortfolioMode; 3] = [
    PortfolioMode::Race,
    PortfolioMode::Coop,
    PortfolioMode::Temper,
];

/// One portfolio configuration's measurements.
struct Sample {
    starts: u32,
    threads: usize,
    winner_start: u32,
    cost: f64,
    pruned: usize,
    wall: Spread,
}

/// Runs `portfolio` [`REPS`] times after one untimed run; every run must
/// return the same winner.
fn run_portfolio(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    portfolio: &PortfolioConfig,
) -> Sample {
    let mut first = None;
    let (wall, won) = repeat_timed(REPS, || {
        let won = exchange_portfolio(quadrant, initial, stack, config, portfolio)
            .expect("portfolio runs");
        let winner = (won.winner_start, won.result.assignment.clone());
        assert_eq!(
            first.get_or_insert_with(|| winner.clone()),
            &winner,
            "portfolio runs differ"
        );
        won
    });
    Sample {
        starts: portfolio.starts,
        threads: portfolio.threads,
        winner_start: won.winner_start,
        cost: won.result.stats.final_cost,
        pruned: won.pruned(),
        wall,
    }
}

/// The width and thread sweeps' portfolio: `starts` starts on `threads`
/// workers, the rest at the defaults.
fn width(starts: u32, threads: usize) -> PortfolioConfig {
    PortfolioConfig {
        starts,
        threads,
        ..PortfolioConfig::default()
    }
}

/// Runs the three cooperation modes at an equal move budget and asserts
/// the never-worse gate: `coop` and `temper` winner costs must not
/// exceed `race`'s on the same instance, schedule, and seed. `template`
/// carries the portfolio shape (starts, sync epochs, ladder ratio); the
/// mode is overridden per run. Returns the samples in `MODES` order.
fn mode_sweep(
    name: &str,
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    template: &PortfolioConfig,
) -> Vec<Sample> {
    let sweep: Vec<Sample> = MODES
        .iter()
        .map(|&mode| {
            let portfolio = PortfolioConfig {
                mode,
                threads: 1,
                ..*template
            };
            run_portfolio(quadrant, initial, stack, config, &portfolio)
        })
        .collect();
    let race = sweep[0].cost;
    // ULP headroom, not a quality band. The Δ_IR term is exact, so plans
    // equal in exact arithmetic already score bit-equal.
    let gate = race * (1.0 + 1e-12);
    for (mode, sample) in MODES.iter().zip(&sweep).skip(1) {
        assert!(
            sample.cost <= gate,
            "{name}: {} winner ({:.17e}) lost to race ({race:.17e}) at an equal move budget",
            mode.as_str(),
            sample.cost
        );
    }
    sweep
}

fn json_mode_sweep(out: &mut String, template: &PortfolioConfig, sweep: &[Sample]) {
    out.push_str("     \"quality_vs_mode\": [");
    for (j, (mode, s)) in MODES.iter().zip(sweep).enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"mode\": \"{}\", \"starts\": {}, \"sync_epochs\": {}, \"kick_size\": {}, \
             \"ladder_ratio\": {}, \"cost\": {:.6}, \"pruned\": {}, \"wall\": {{{}}}}}",
            mode.as_str(),
            s.starts,
            template.sync_epochs,
            template.kick_size,
            template.ladder_ratio,
            s.cost,
            s.pruned,
            s.wall.json_fields()
        );
    }
    out.push(']');
}

fn json_sample(out: &mut String, sample: &Sample) {
    let _ = write!(
        out,
        "{{\"starts\": {}, \"threads\": {}, \"winner_start\": {}, \"cost\": {:.6}, \
         \"pruned\": {}, \"wall\": {{{}}}}}",
        sample.starts,
        sample.threads,
        sample.winner_start,
        sample.cost,
        sample.pruned,
        sample.wall.json_fields()
    );
}

fn main() {
    let mut json = format!(
        "{{\n  \"benchmark\": \"portfolio\",\n  \"cores\": {},\n  \"circuits\": [\n",
        host_cores()
    );
    // Circuits run serially so the wall-clock sweep measures the
    // portfolio's own threading, not cross-circuit contention.
    for (i, circuit) in circuits().iter().enumerate() {
        let quadrant = circuit.build_quadrant().expect("circuit builds");
        let initial = assign(&quadrant, AssignMethod::dfa_default()).expect("dfa");

        // Quality vs. starts at one worker: how much does width buy?
        let quality: Vec<Sample> = WIDTHS
            .iter()
            .map(|&k| {
                run_portfolio(
                    &quadrant,
                    &initial,
                    &StackConfig::planar(),
                    &bench_config(),
                    &width(k, 1),
                )
            })
            .collect();
        let baseline = quality[0].cost;
        let widest = quality.last().expect("non-empty sweep");
        assert!(
            widest.cost <= baseline,
            "{}: K={} winner ({:.6}) worse than single start ({:.6})",
            &circuit.name,
            widest.starts,
            widest.cost,
            baseline
        );

        // Wall clock vs. threads at the widest portfolio; the winner must
        // not move.
        let scaling: Vec<Sample> = THREADS
            .iter()
            .map(|&t| {
                run_portfolio(
                    &quadrant,
                    &initial,
                    &StackConfig::planar(),
                    &bench_config(),
                    &width(*WIDTHS.last().expect("widths"), t),
                )
            })
            .collect();
        for s in &scaling {
            assert!(
                s.cost.to_bits() == scaling[0].cost.to_bits()
                    && s.winner_start == scaling[0].winner_start,
                "{}: winner changed under --threads {}",
                circuit.name,
                s.threads
            );
        }

        // Quality vs. cooperation mode at an equal move budget; the
        // never-worse gate fires inside the sweep.
        let mode_shape = PortfolioConfig {
            starts: *WIDTHS.last().expect("widths"),
            ..PortfolioConfig::default()
        };
        let modes = mode_sweep(
            &circuit.name,
            &quadrant,
            &initial,
            &StackConfig::planar(),
            &mode_config(),
            &mode_shape,
        );

        println!(
            "{}: K=1 cost {:.4} -> K=8 cost {:.4} (winner start {}, {} pruned); \
             1 thread {:.3} s -> {} threads {:.3} s; \
             race {:.4} / coop {:.4} / temper {:.4}",
            &circuit.name,
            baseline,
            widest.cost,
            widest.winner_start,
            widest.pruned,
            scaling[0].wall.median,
            scaling.last().expect("non-empty sweep").threads,
            scaling.last().expect("non-empty sweep").wall.median,
            modes[0].cost,
            modes[1].cost,
            modes[2].cost,
        );

        let _ = writeln!(json, "    {{\"name\": \"{}\",", circuit.name);
        json.push_str("     \"quality_vs_starts\": [");
        for (j, s) in quality.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json_sample(&mut json, s);
        }
        json.push_str("],\n     \"wall_clock_vs_threads\": [");
        for (j, s) in scaling.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json_sample(&mut json, s);
        }
        json.push_str("],\n");
        json_mode_sweep(&mut json, &mode_shape, &modes);
        json.push('}');
        if i + 1 < circuits().len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");
    bench_large(&mut json);
    json.push_str("}\n");
    std::fs::write("BENCH_portfolio.json", &json).expect("write BENCH_portfolio.json");
    println!("wrote BENCH_portfolio.json");
}

/// The industrial-scale rows the parallelism and cooperation stories
/// hang on. On the 1k-net preset an eight-start portfolio is swept over
/// worker counts: at Table 1 sizes a start finishes in microseconds and
/// thread spawn overhead eats the speedup, but at 1k nets each start
/// carries real work, so this run *asserts* the crossover — eight
/// workers must finish the same portfolio in less wall time than one —
/// alongside the usual bit-identity of the winner across every thread
/// count. Both the 1k and 4k presets then run the quality-vs-mode gate:
/// `coop` and `temper` must not lose to `race` at an equal move budget
/// at industrial scale either.
fn bench_large(json: &mut String) {
    // A fuller schedule than the Table 1 sweep: enough annealing per
    // start that the work, not the thread plumbing, dominates. Doubles
    // as the mode-gate schedule at this scale (deep enough for the
    // temperature ladder to mix).
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    json.push_str("  \"large\": [\n");
    for (row, preset) in ["1k", "4k"].iter().enumerate() {
        let spec = large_circuit(preset, 42).expect("preset name");
        let stack = spec.stack().expect("valid stack");
        let quadrant = spec.build_quadrant().expect("instance builds");
        let initial = assign(&quadrant, AssignMethod::dfa_default()).expect("dfa");

        // The thread-scaling sweep (and its crossover assert) only on
        // the 1k row: it pins the plumbing, and once is enough.
        let scaling: Option<Vec<Sample>> = (*preset == "1k").then(|| {
            let scaling: Vec<Sample> = THREADS
                .iter()
                .map(|&t| {
                    run_portfolio(
                        &quadrant,
                        &initial,
                        &stack,
                        &config,
                        &width(*WIDTHS.last().expect("widths"), t),
                    )
                })
                .collect();
            for s in &scaling {
                assert!(
                    s.cost.to_bits() == scaling[0].cost.to_bits()
                        && s.winner_start == scaling[0].winner_start,
                    "{}: winner changed under --threads {}",
                    spec.name,
                    s.threads
                );
            }
            let serial = scaling.first().expect("non-empty sweep");
            let widest = scaling.last().expect("non-empty sweep");
            // The crossover only exists where the hardware can actually
            // run the workers side by side; on a single core the same
            // sweep instead bounds the thread plumbing's overhead.
            let cores = host_cores();
            let (widest_s, serial_s) = (widest.wall.median, serial.wall.median);
            if cores >= 2 {
                assert!(
                    widest_s < serial_s,
                    "{}: {} threads ({widest_s:.3} s) failed to beat 1 thread ({serial_s:.3} s) \
                     on {cores} cores",
                    spec.name,
                    widest.threads
                );
            } else {
                println!(
                    "note: single core — asserting thread overhead is bounded, not the crossover"
                );
                assert!(
                    widest_s < serial_s * 1.5,
                    "{}: {} threads ({widest_s:.3} s) cost >50% over 1 thread ({serial_s:.3} s) \
                     on one core",
                    spec.name,
                    widest.threads
                );
            }
            println!(
                "{}: K={} cost {:.4} (winner start {}); 1 thread {:.3} s -> {} threads {:.3} s \
                 ({:.2}x)",
                spec.name,
                widest.starts,
                widest.cost,
                widest.winner_start,
                serial.wall.median,
                widest.threads,
                widest.wall.median,
                serial.wall.median / widest.wall.median.max(1e-12),
            );
            scaling
        });

        // At industrial scale the ladder needs room to mix before the
        // gate is meaningful: at least as many barriers as rungs (so a
        // good configuration can percolate down the ladder) and a soft
        // ratio (so adjacent rungs overlap enough for Metropolis swaps
        // to fire). With the Table 1 defaults (4 barriers, ratio 1.5)
        // one swap of nine proposed fires on large-4k, and the ladder
        // cannot mix.
        let mode_shape = PortfolioConfig {
            starts: *WIDTHS.last().expect("widths"),
            sync_epochs: 8,
            ladder_ratio: 1.1,
            ..PortfolioConfig::default()
        };
        let modes = mode_sweep(
            &spec.name,
            &quadrant,
            &initial,
            &stack,
            &config,
            &mode_shape,
        );
        println!(
            "{}: race {:.4} / coop {:.4} / temper {:.4} at K=8",
            spec.name, modes[0].cost, modes[1].cost, modes[2].cost
        );

        let _ = writeln!(json, "    {{\"name\": \"{}\",", spec.name);
        if let Some(scaling) = &scaling {
            json.push_str("     \"wall_clock_vs_threads\": [");
            for (j, s) in scaling.iter().enumerate() {
                if j > 0 {
                    json.push_str(", ");
                }
                json_sample(json, s);
            }
            json.push_str("],\n");
        }
        json_mode_sweep(json, &mode_shape, &modes);
        json.push('}');
        if row == 0 {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n");
}
