//! Machine-readable auto-tuner benchmark: `copack-tune` over the
//! eight-member tuning family (quick space, two halving rounds) and
//! the industrial `large-1k` instance (a fast-schedule space, one
//! round), gating the subsystem's never-worse guarantee — for **every
//! instance class** the tuned winner's full-run cost is at most the
//! default configuration's. A final end-to-end spot check replays one
//! family member through `exchange_portfolio` under the emitted
//! profile and under the defaults, and asserts the tuned run does not
//! lose there either.
//!
//! Unlike the timing benches, every number here is deterministic (the
//! tuner is seeded and thread-invariant), so the gate is exact, not
//! statistical. Each suite's wall clock is reported for context only, as
//! the spread of one untimed and five timed tunes (reps, min, median,
//! p90) beside the host's core count. Results go to `BENCH_tune.json`.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_tune`.

use std::fmt::Write as _;

use copack_bench::{host_cores, repeat_timed};
use copack_core::{dfa, exchange_portfolio, ExchangeConfig, PortfolioConfig, Schedule};
use copack_gen::{large_circuit, tune_family};
use copack_geom::{Quadrant, StackConfig};
use copack_io::ClassConfig;
use copack_tune::{tune, TrialSpace, TuneOptions};

/// Timed tunes per suite, after one untimed tune.
const REPS: usize = 5;

/// One class outcome as a JSON object line.
fn class_entry(suite: &str, class: &copack_tune::ClassOutcome) -> String {
    let mut entry = String::new();
    let _ = write!(
        entry,
        "    {{\"suite\": \"{suite}\", \"class\": \"{}\", \"members\": {}, \
         \"winner_point\": {}, \"default_cost\": {:.6}, \"winner_cost\": {:.6}, \
         \"correlation\": {:.4}, \"pruned_points\": {}}}",
        class.key,
        class.members.len(),
        class.winner,
        class.default_cost,
        class.winner_cost,
        class.correlation,
        class.pruned_points
    );
    entry
}

/// Gates every class of a report on the never-worse guarantee.
fn gate(suite: &str, report: &copack_tune::TuneReport, entries: &mut Vec<String>) {
    for class in &report.classes {
        assert!(
            class.winner_cost <= class.default_cost,
            "{suite}/{}: tuned winner {:.6} regressed past the default {:.6}",
            class.key,
            class.winner_cost,
            class.default_cost
        );
        entries.push(class_entry(suite, class));
    }
}

/// Full-length portfolio cost of `point` on one instance, the way
/// `copack plan --profile` runs it (base seed, single-threaded).
fn plan_cost(quadrant: &Quadrant, stack: &StackConfig, point: &ClassConfig) -> f64 {
    let mut config = ExchangeConfig::default();
    let mut portfolio = PortfolioConfig::default();
    point.apply(&mut config, &mut portfolio);
    portfolio.threads = 1;
    let initial = dfa(quadrant, 1).expect("dfa");
    exchange_portfolio(quadrant, &initial, stack, &config, &portfolio)
        .expect("portfolio runs")
        .result
        .stats
        .final_cost
}

fn main() {
    let mut entries: Vec<String> = Vec::new();

    // Suite 1: the tuning family under the CI-quick space and the
    // default two-round halving schedule.
    let family: Vec<(String, Quadrant, StackConfig)> = tune_family()
        .iter()
        .map(|c| {
            (
                c.name.replace(' ', ""),
                c.build_quadrant().expect("family member builds"),
                c.stack().expect("family member stacks"),
            )
        })
        .collect();
    let (family_time, family_report) = repeat_timed(REPS, || {
        tune(&family, &TrialSpace::quick(), &TuneOptions::default()).expect("family tune runs")
    });
    gate("family-quick", &family_report, &mut entries);
    println!(
        "family-quick: {} classes, {} trials, {:.3} s (median of {REPS})",
        family_report.classes.len(),
        family_report.trials,
        family_time.median
    );

    // Suite 2: the industrial large-1k instance under a fast-schedule
    // single-start space — the shape a user would tune a big design
    // with when full-length portfolios are too expensive to sweep.
    let spec = large_circuit("1k", 42).expect("preset name");
    let quadrant = spec.build_quadrant().expect("instance builds");
    let stack = spec.stack().expect("valid stack");
    let base = ClassConfig::from_configs(
        &ExchangeConfig {
            schedule: Schedule {
                cooling: 0.7,
                moves_per_temp_per_finger: 1,
                ..Schedule::default()
            },
            ..ExchangeConfig::default()
        },
        &PortfolioConfig {
            starts: 1,
            ..PortfolioConfig::default()
        },
    );
    let space = TrialSpace {
        points: vec![
            base,
            ClassConfig {
                cooling: 0.85,
                ..base
            },
            ClassConfig {
                lambda: base.lambda * 0.5,
                ..base
            },
            ClassConfig {
                starts: 2,
                prune_margin: 0.25,
                ..base
            },
        ],
    };
    let large = [(spec.name.clone(), quadrant, stack)];
    let (large_time, large_report) = repeat_timed(REPS, || {
        tune(
            &large,
            &space,
            &TuneOptions {
                rounds: 1,
                ..TuneOptions::default()
            },
        )
        .expect("large tune runs")
    });
    gate("large-1k-fast", &large_report, &mut entries);
    println!(
        "large-1k-fast: {} classes, {} trials, {:.3} s (median of {REPS})",
        large_report.classes.len(),
        large_report.trials,
        large_time.median
    );

    // End-to-end spot check: plan one family member the way the CLI
    // would under `--profile` and under the defaults; the profile must
    // not lose on its own training family.
    let (name, quadrant, stack) = &family[0];
    let tuned_point = family_report.profile.config_for(quadrant);
    let tuned = plan_cost(quadrant, stack, &tuned_point);
    let default = plan_cost(quadrant, stack, &ClassConfig::default_config());
    assert!(
        tuned <= default,
        "{name}: planned cost under the profile {tuned:.6} regressed past the default {default:.6}"
    );
    println!("spot-check {name}: tuned {tuned:.4} <= default {default:.4}");

    let json = format!(
        "{{\n  \"benchmark\": \"tune\",\n  \"gate\": \"winner_cost <= default_cost per class\",\n  \
         \"cores\": {},\n  \"family_seconds\": {{{}}},\n  \"large_seconds\": {{{}}},\n  \
         \"spot_check\": {{\"member\": \"{name}\", \"tuned_cost\": {tuned:.6}, \
         \"default_cost\": {default:.6}}},\n  \"classes\": [\n{}\n  ]\n}}\n",
        host_cores(),
        family_time.json_fields(),
        large_time.json_fields(),
        entries.join(",\n")
    );
    std::fs::write("BENCH_tune.json", &json).expect("write BENCH_tune.json");
    println!("wrote BENCH_tune.json");
}
