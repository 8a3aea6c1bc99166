//! Machine-readable replan benchmark: a warm-started incremental
//! replan versus a cold from-scratch re-plan of a whole 4-quadrant
//! package under an ECO batch, on the industrial `large` family at 1k
//! and 4k nets per quadrant.
//!
//! The package model is the repo's standard one — four identical
//! quadrants — and the ECO batch is the realistic mixed delta: one
//! quadrant genuinely edited, one resubmitted with a **no-op delta**
//! (edit lists that cancel out, which
//! [`copack_core::QuadrantDelta::is_noop_for`] detects so the previous
//! plan is reused without repair or annealing), and two untouched. A
//! cold re-plan anneals all four from scratch; the incremental path
//! answers the clean quadrants from the result cache, dismisses the
//! no-op delta with one equivalence check, and warm-starts only the
//! dirty one ([`exchange_warm`]: repair, reheat, shortened schedule).
//! The expected gap is therefore ~4× from the dirty-set reduction
//! times ~1.5× from the shortened schedule, and the run **asserts**
//! the measured replan speedup holds at least 5× — a regression gate
//! on the warm path, not a scoreboard.
//!
//! Each quantity is timed over one untimed and five timed runs, and the
//! file records every spread (reps, min, median, p90) and the host's core
//! count. The gate reads the minimums: a scheduler stall can only inflate
//! a sample, never deflate it, so the fastest run is the closest to the
//! code's true cost and a single noisy sample cannot swing the gate.
//!
//! The runs are strictly serial — concurrent timing on a shared
//! machine would corrupt the numbers. Results go to `BENCH_replan.json`.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_replan`.

use std::fmt::Write as _;

use copack_bench::{host_cores, repeat_timed, Spread};
use copack_core::{
    cancelling_delta, dfa, exchange, exchange_warm, CancelToken, ExchangeConfig, Schedule,
};
use copack_gen::{churn, large_circuit, STANDARD_CHURN};
use copack_obs::NoopRecorder;

/// One timed quantity's JSON object.
fn json_spread(key: &str, spread: &Spread) -> String {
    format!("\"{key}\": {{{}}}", spread.json_fields())
}

fn main() {
    // Enough temperature steps that the anneal dominates the fixed
    // per-run setup (repair, reheat heat evaluations, tracker
    // construction) — on a starved schedule those fixed costs eat the
    // shortened-schedule gain and the gate sits on the noise floor.
    // Both sides run the identical config, so the ratio is what it
    // would be under the default schedule.
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-3,
            cooling: 0.9,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    const QUADRANTS: f64 = 4.0;
    const CHURN_SEED: u64 = 9;
    const MIN_SPEEDUP: f64 = 5.0;
    let runs = 5;

    let mut entries: Vec<String> = Vec::new();
    for size in ["1k", "4k"] {
        let spec = large_circuit(size, 42).expect("preset name");
        let stack = spec.stack().expect("valid stack");
        let quadrant = spec.build_quadrant().expect("instance builds");

        // The original submission: one cold anneal per quadrant. All
        // four quadrants are identical, so one run times them all —
        // and its winner is the `prev` plan the replan warm-starts
        // from.
        let initial = dfa(&quadrant, 1).expect("dfa");
        let (clean, previous) = repeat_timed(runs, || {
            exchange(&quadrant, &initial, &stack, &config).expect("cold anneal runs")
        });
        let clean_seconds = clean.min;

        // The ECO batch dirties exactly one quadrant under the standard
        // churn, and resubmits a second with a delta whose edits cancel
        // out to a no-op.
        let edited = churn(&quadrant, CHURN_SEED, STANDARD_CHURN).expect("churn applies");
        let noop = cancelling_delta(&quadrant, &edited);
        assert!(!noop.is_empty(), "the no-op delta must carry real edits");

        // Cold replan: every quadrant re-anneals from scratch — the
        // edited one plus the three untouched ones.
        let dirty_initial = dfa(&edited, 1).expect("dfa on the edited instance");
        let (dirty, scratch) = repeat_timed(runs, || {
            exchange(&edited, &dirty_initial, &stack, &config).expect("cold dirty anneal runs")
        });
        let cold_seconds = dirty.min + (QUADRANTS - 1.0) * clean_seconds;

        // Incremental replan: the untouched quadrants answer from the
        // cache (zero annealer work), the no-op resubmission is
        // dismissed by one equivalence check, and only the dirty one
        // warm-starts.
        let (noop_check, noop_detected) = repeat_timed(runs, || {
            noop.is_noop_for(&quadrant).expect("no-op check runs")
        });
        let noop_seconds = noop_check.min;
        assert!(noop_detected, "the cancelling delta must read as a no-op");
        let (anneal, warm) = repeat_timed(runs, || {
            exchange_warm(
                &edited,
                &previous.assignment,
                &stack,
                &config,
                &mut NoopRecorder,
                &CancelToken::new(),
            )
            .expect("warm replan runs")
        });
        let warm_seconds = anneal.min + noop_seconds;

        // The warm path is seeded and repair is pure: a second run must
        // reproduce the first bit for bit.
        let again = exchange_warm(
            &edited,
            &previous.assignment,
            &stack,
            &config,
            &mut NoopRecorder,
            &CancelToken::new(),
        )
        .expect("warm replan reruns");
        assert_eq!(warm, again, "{size}: warm replan is not deterministic");

        let speedup = cold_seconds / warm_seconds.max(1e-12);
        let cost_ratio = warm.stats.final_cost / scratch.stats.final_cost.max(1e-12);
        println!(
            "large-{size} ({} nets/quadrant): cold {cold_seconds:.3} s, replan \
             {warm_seconds:.3} s ({speedup:.1}x, no-op check {noop_seconds:.6} s), \
             warm/scratch cost {cost_ratio:.3}",
            quadrant.net_count()
        );
        assert!(
            speedup >= MIN_SPEEDUP,
            "large-{size}: replan speedup {speedup:.2}x fell below the {MIN_SPEEDUP}x gate \
             (cold {cold_seconds:.3} s over {QUADRANTS} quadrants, warm {warm_seconds:.3} s)"
        );

        let mut entry = String::new();
        let _ = write!(
            entry,
            "    {{\"name\": \"{}\", \"nets\": {}, \"quadrants\": {QUADRANTS}, \
             \"churn\": {STANDARD_CHURN}, \
             \"cold_seconds\": {cold_seconds:.6}, \"warm_seconds\": {warm_seconds:.6}, \
             \"noop_check_seconds\": {noop_seconds:.6}, \
             \"speedup\": {speedup:.2}, \"cost_ratio\": {cost_ratio:.4}, \
             \"deterministic\": true, \"spreads\": {{{}, {}, {}, {}}}}}",
            spec.name,
            quadrant.net_count(),
            json_spread("cold_clean_quadrant", &clean),
            json_spread("cold_dirty_quadrant", &dirty),
            json_spread("noop_check", &noop_check),
            json_spread("warm_anneal", &anneal)
        );
        entries.push(entry);
    }

    let json = format!(
        "{{\n  \"benchmark\": \"replan\",\n  \"model\": \"4-quadrant package, 1 dirty under \
         standard churn, 1 no-op resubmission, 2 clean\",\n  \"cores\": {},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \"instances\": [\n{}\n  ]\n}}\n",
        host_cores(),
        entries.join(",\n")
    );
    std::fs::write("BENCH_replan.json", &json).expect("write BENCH_replan.json");
    println!("wrote BENCH_replan.json");
}
