//! Machine-readable exchange-kernel benchmark: runs the incremental
//! [`exchange`] and the from-scratch [`exchange_reference`] on every
//! Table 1 circuit (ψ = 1 and ψ = 4) and on the large-1k/4k presets,
//! checks they produce identical results, and writes per-row timings to
//! `BENCH_exchange.json` for tracking across commits.
//!
//! Every row records its repetition count and the min, median and p90
//! wall seconds per run (kernel and reference runs interleaved, after one
//! untimed warm-up each); moves/second and the speedup come from the
//! medians. The file also records the host's core count.
//!
//! Each repetition also times the host reference
//! ([`copack_bench::host_reference_seconds`]), a fixed loop that calls no
//! copack code. The file records its spread over the whole run, and each
//! row's `host_ratio`: the kernel's median over the median of the
//! reference loops timed in that row's repetitions. Host speed cancels in
//! the ratio, so two commits' files compare ratio to ratio.
//!
//! The `scaling` block is the O(1)-proposal gate: the kernel alone on
//! large-1k and large-4k at the default schedule, in interleaved rounds.
//! The run asserts that the median over rounds of (4k ns per proposal ÷
//! 1k ns per proposal) is at most 1.10: a proposal must not get dearer
//! as the quadrant grows.
//!
//! The runs are strictly serial — concurrent timing on a shared machine
//! would corrupt the numbers.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_exchange`.

use std::fmt::Write as _;

use copack_bench::{host_cores, host_reference_seconds, timed, Spread};
use copack_core::{
    dfa, exchange, exchange_reference, exchange_traced, ExchangeConfig, ExchangeResult, Schedule,
};
use copack_gen::{circuits, large_circuit};
use copack_geom::{Assignment, Quadrant, StackConfig};
use copack_obs::{replay_final_cost, split_runs, JsonlSink, TraceBuffer};

/// Timed repetitions per Table 1 row (a run takes a few milliseconds).
const CIRCUIT_REPS: usize = 21;

/// Timed repetitions per large row: the reference takes ~0.6 s per run
/// at 4k nets.
const LARGE_REPS: usize = 9;

/// Interleaved untraced/traced pairs of the telemetry measurement.
const TELEMETRY_REPS: usize = 60;

/// Interleaved rounds of the scaling gate (one large-1k and one large-4k
/// kernel run each, at the default schedule).
const SCALING_ROUNDS: usize = 7;

/// The scaling gate: the median ratio of large-4k to large-1k ns per
/// proposal may not exceed this.
const SCALING_GATE: f64 = 1.10;

/// The spread of one configuration's timed runs.
struct Timing {
    spread: Spread,
    /// Proposed moves per run (the same in every run).
    moves: usize,
}

impl Timing {
    fn of(seconds: Vec<f64>, moves: usize) -> Self {
        Self {
            spread: Spread::of(seconds),
            moves,
        }
    }

    fn moves_per_sec(&self) -> f64 {
        self.moves as f64 / self.spread.median.max(1e-12)
    }
}

fn json_timing(out: &mut String, key: &str, t: &Timing) {
    let _ = write!(
        out,
        "\"{key}\": {{{}, \"moves\": {}, \"moves_per_sec\": {:.1}}}",
        t.spread.json_fields(),
        t.moves,
        t.moves_per_sec()
    );
}

/// Times the kernel and the reference on one configuration: one untimed
/// warm-up each, then `reps` interleaved rounds of kernel, reference and
/// host reference. Every run must return the same result — the benchmark
/// doubles as an end-to-end equivalence check on real circuit sizes.
/// Returns the kernel's and the reference's timings and the host
/// reference's seconds.
fn bench_pair(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    reps: usize,
) -> (Timing, Timing, Vec<f64>) {
    let kernel = || exchange(quadrant, initial, stack, config).expect("kernel runs");
    let reference =
        || exchange_reference(quadrant, initial, stack, config).expect("reference runs");
    let expected: ExchangeResult = kernel();
    assert_eq!(
        expected,
        reference(),
        "kernel diverged from the reference implementation"
    );
    let (mut inc, mut slow) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut host = Vec::with_capacity(reps);
    for _ in 0..reps {
        host.push(host_reference_seconds());
        let (seconds, result) = timed(kernel);
        assert_eq!(result, expected, "kernel runs differ");
        inc.push(seconds);
        let (seconds, result) = timed(reference);
        assert_eq!(
            result, expected,
            "kernel diverged from the reference implementation"
        );
        slow.push(seconds);
    }
    let moves = expected.stats.proposed;
    (Timing::of(inc, moves), Timing::of(slow, moves), host)
}

/// One `circuits` entry of the JSON, echoed to the console; `host` holds
/// the host reference's seconds in the row's rounds.
fn row(name: &str, psi: u8, nets: usize, inc: &Timing, reference: &Timing, host: &[f64]) -> String {
    let speedup = reference.spread.median / inc.spread.median.max(1e-12);
    let host_ratio = inc.spread.median / Spread::of(host.to_vec()).median;
    let mut entry = String::new();
    let _ = write!(
        entry,
        "    {{\"name\": \"{name}\", \"psi\": {psi}, \"nets\": {nets}, "
    );
    json_timing(&mut entry, "incremental", inc);
    entry.push_str(", ");
    json_timing(&mut entry, "reference", reference);
    let _ = write!(
        entry,
        ", \"speedup\": {speedup:.2}, \"host_ratio\": {host_ratio:.4}}}"
    );
    println!(
        "{name} psi={psi}: incremental {:.1} moves/s ({:.1} ns/move, median of {}), \
         reference {:.1} moves/s ({speedup:.2}x)",
        inc.moves_per_sec(),
        inc.spread.median * 1e9 / inc.moves.max(1) as f64,
        inc.spread.reps,
        reference.moves_per_sec(),
    );
    entry
}

fn main() {
    // Long enough to amortise the O(P) per-run setup (tracker and cache
    // construction, journal replay) so the numbers measure the per-move
    // inner loop, yet short enough to finish in seconds.
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    let cores = host_cores();

    let mut entries: Vec<String> = Vec::new();
    let mut host: Vec<f64> = Vec::new();
    for circuit in circuits() {
        for psi in [1u8, 4] {
            let (c, stack) = if psi == 1 {
                (circuit.clone(), StackConfig::planar())
            } else {
                let stacked = circuit.stacked(psi);
                let stack = stacked.stack().expect("valid stack");
                (stacked, stack)
            };
            let quadrant = c.build_quadrant().expect("circuit builds");
            let initial = dfa(&quadrant, 1).expect("dfa");
            let (inc, reference, seconds) =
                bench_pair(&quadrant, &initial, &stack, &config, CIRCUIT_REPS);
            let nets = quadrant.net_count();
            entries.push(row(&circuit.name, psi, nets, &inc, &reference, &seconds));
            host.extend(seconds);
        }
    }

    bench_large(&mut entries, &mut host);

    let scaling = bench_scaling(&mut host);

    let telemetry = bench_telemetry(&config);

    let json = format!(
        "{{\n  \"benchmark\": \"exchange\",\n  \"cores\": {cores},\n  \"host_reference\": {{{}}},\n  \
         \"circuits\": [\n{}\n  ],\n{scaling}{telemetry}}}\n",
        Spread::of(host).json_fields(),
        entries.join(",\n")
    );
    std::fs::write("BENCH_exchange.json", &json).expect("write BENCH_exchange.json");
    println!("wrote BENCH_exchange.json ({cores} cores)");
}

/// Industrial-scale rows: the dense-index kernel against the keyed
/// reference at 1k and 4k nets per quadrant. At these sizes the sparse
/// lookups the reference still does per move stop fitting in cache, so
/// the gap is the whole point of the interning layer — the run asserts
/// the dense kernel holds at least a 1.5× moves/sec lead, turning the
/// bench into a crossover regression gate rather than a scoreboard.
///
/// The schedule is deliberately starved (one move per temperature per
/// finger, fast cooling) to bound the reference's wall time; both
/// kernels run the identical trajectory, so the ratio is unaffected.
fn bench_large(entries: &mut Vec<String>, host: &mut Vec<f64>) {
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 5e-2,
            cooling: 0.7,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for size in ["1k", "4k"] {
        let spec = large_circuit(size, 42).expect("preset name");
        let stack = spec.stack().expect("valid stack");
        let quadrant = spec.build_quadrant().expect("instance builds");
        let initial = dfa(&quadrant, 1).expect("dfa");
        let (inc, reference, seconds) =
            bench_pair(&quadrant, &initial, &stack, &config, LARGE_REPS);
        let (inc_rate, ref_rate) = (inc.moves_per_sec(), reference.moves_per_sec());
        assert!(
            inc_rate >= 1.5 * ref_rate,
            "{}: dense kernel at {inc_rate:.1} moves/s lost its 1.5x lead \
             over the reference at {ref_rate:.1} moves/s",
            spec.name
        );
        let nets = quadrant.net_count();
        entries.push(row(
            &spec.name, spec.tiers, nets, &inc, &reference, &seconds,
        ));
        host.extend(seconds);
    }
}

/// The O(1)-proposal gate: the kernel alone on large-1k and large-4k at
/// the default schedule, one run of each (and one host reference) per
/// round after one untimed round. Each round gives a ratio of 4k to 1k ns
/// per proposal; the run asserts the median ratio is at most
/// [`SCALING_GATE`]. Every run of a size must return the same result.
fn bench_scaling(host: &mut Vec<f64>) -> String {
    let config = ExchangeConfig::default();
    let cases: Vec<(String, Quadrant, Assignment, StackConfig)> = ["1k", "4k"]
        .into_iter()
        .map(|size| {
            let spec = large_circuit(size, 42).expect("preset name");
            let quadrant = spec.build_quadrant().expect("instance builds");
            let initial = dfa(&quadrant, 1).expect("dfa");
            (
                spec.name.clone(),
                quadrant,
                initial,
                spec.stack().expect("valid stack"),
            )
        })
        .collect();
    let mut expected: Vec<Option<ExchangeResult>> = vec![None, None];
    let mut seconds: [Vec<f64>; 2] = Default::default();
    let mut ratios = Vec::with_capacity(SCALING_ROUNDS);
    let mut rounds_host = Vec::with_capacity(SCALING_ROUNDS);
    for round in 0..=SCALING_ROUNDS {
        let host_seconds = host_reference_seconds();
        let mut ns_per_proposal = [0.0f64; 2];
        for (i, (name, quadrant, initial, stack)) in cases.iter().enumerate() {
            let (elapsed, result) =
                timed(|| exchange(quadrant, initial, stack, &config).expect("kernel runs"));
            ns_per_proposal[i] = elapsed * 1e9 / result.stats.proposed.max(1) as f64;
            match &expected[i] {
                Some(first) => assert_eq!(&result, first, "{name}: kernel runs differ"),
                None => expected[i] = Some(result),
            }
            // Round 0 is the warm-up.
            if round > 0 {
                seconds[i].push(elapsed);
            }
        }
        if round > 0 {
            ratios.push(ns_per_proposal[1] / ns_per_proposal[0]);
            rounds_host.push(host_seconds);
        }
    }
    let ratio = Spread::of(ratios.clone()).median;
    let mut block =
        format!("  \"scaling\": {{\"schedule\": \"default\", \"rounds\": {SCALING_ROUNDS}, ");
    for ((name, ..), (times, result)) in cases.iter().zip(seconds.into_iter().zip(&expected)) {
        let timing = Timing::of(times, result.as_ref().expect("ran").stats.proposed);
        let ns = timing.spread.median * 1e9 / timing.moves.max(1) as f64;
        let host_ratio = timing.spread.median / Spread::of(rounds_host.clone()).median;
        println!(
            "{name} default schedule: {ns:.1} ns/proposal (median of {SCALING_ROUNDS}), \
             {:.1} moves/s",
            timing.moves_per_sec()
        );
        json_timing(&mut block, name, &timing);
        let _ = write!(
            block,
            ", \"{name}_ns_per_proposal\": {ns:.1}, \"{name}_host_ratio\": {host_ratio:.4}, "
        );
    }
    let _ = writeln!(
        block,
        "\"ratio_4k_1k\": {ratio:.3}, \"round_ratios\": [{}], \"gate\": {SCALING_GATE:.2}}},",
        ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    host.extend(rounds_host);
    println!(
        "scaling: large-4k / large-1k ns per proposal, median of {SCALING_ROUNDS} rounds: \
         {ratio:.3} (gate {SCALING_GATE:.2})"
    );
    assert!(
        ratio <= SCALING_GATE,
        "a large-4k proposal costs {ratio:.3}x a large-1k one, above the \
         {SCALING_GATE:.2}x gate: proposals are not O(1)"
    );
    block
}

/// Measures the telemetry overhead on the largest circuit (Table 1
/// circuit 5, planar): the kernel annealing with a live [`JsonlSink`]
/// versus the untraced kernel, plus the exact-replay check — the trace's
/// accepted moves must replay bit-for-bit to the kernel's final cost.
///
/// The sink stages events in memory during the run and serialises them
/// at `finish`, so the annealing time (what moves/sec is computed over)
/// and the drain time are measured separately — the drain is reporting
/// I/O, not kernel work. The overhead is the median over interleaved
/// pairs of traced ÷ untraced annealing time, and must stay under 10 %.
fn bench_telemetry(config: &ExchangeConfig) -> String {
    let all = circuits();
    let circuit = all.last().expect("Table 1 has circuits");
    let quadrant = circuit.build_quadrant().expect("circuit builds");
    let initial = dfa(&quadrant, 1).expect("dfa");
    let stack = StackConfig::planar();

    // The runs are short (under a millisecond), so scheduler jitter
    // would swamp a single comparison. Interleave baseline/traced pairs
    // over many repetitions and take the *median* of the per-pair time
    // ratios: the two runs of a pair see the same host speed, so drift
    // between pairs cancels, and a mean would let a single scheduler
    // stall swing the overhead figure by more than the quantity being
    // measured.
    let trace_path = std::env::temp_dir().join("bench_exchange_trace.jsonl");
    let mut baseline_result = None;
    let mut traced_result = None;
    let mut baseline_samples = Vec::with_capacity(TELEMETRY_REPS);
    let mut anneal_samples = Vec::with_capacity(TELEMETRY_REPS);
    let mut drain_samples = Vec::with_capacity(TELEMETRY_REPS);
    let mut pair_ratios = Vec::with_capacity(TELEMETRY_REPS);
    for timed_pair in 0..=TELEMETRY_REPS {
        let (base_elapsed, base) =
            timed(|| exchange(&quadrant, &initial, &stack, config).expect("kernel runs"));

        let mut sink = JsonlSink::create(&trace_path).expect("temp trace file");
        let (anneal, result) = timed(|| {
            exchange_traced(&quadrant, &initial, &stack, config, &mut sink).expect("kernel runs")
        });
        let (drain, _) = timed(|| sink.finish().expect("trace flush"));
        // The zeroth pair is warm-up (matching `bench_pair`).
        if timed_pair > 0 {
            baseline_samples.push(base_elapsed);
            anneal_samples.push(anneal);
            drain_samples.push(drain);
            pair_ratios.push(anneal / base_elapsed.max(1e-12));
        }
        baseline_result = Some(base);
        traced_result = Some(result);
    }
    assert_eq!(
        baseline_result, traced_result,
        "telemetry perturbed the kernel's result"
    );
    let moves = baseline_result.expect("ran at least once").stats.proposed;
    let baseline = Timing::of(baseline_samples, moves);
    let traced = Timing::of(anneal_samples, moves);
    let drain = Timing::of(drain_samples, moves);
    let _ = std::fs::remove_file(&trace_path);

    // Exact replay: capture the same run in memory and fold the accepted
    // moves back to the final cost.
    let mut buffer = TraceBuffer::new();
    let result =
        exchange_traced(&quadrant, &initial, &stack, config, &mut buffer).expect("kernel runs");
    let events = buffer.into_events();
    let replayed = split_runs(&events)
        .first()
        .and_then(|run| replay_final_cost(run))
        .expect("trace has a run");
    assert_eq!(
        replayed.to_bits(),
        result.stats.final_cost.to_bits(),
        "trace replay diverged from the kernel's final cost"
    );

    let (base_rate, traced_rate) = (baseline.moves_per_sec(), traced.moves_per_sec());
    // The median pair can still leave the traced run *faster* than the
    // baseline on a noisy host; a negative overhead is measurement
    // noise, not a real speedup, so clamp at zero rather than report it.
    let overhead_percent = (100.0 * (Spread::of(pair_ratios).median - 1.0)).max(0.0);
    println!(
        "telemetry ({} psi=1): untraced {base_rate:.1} moves/s, jsonl {traced_rate:.1} moves/s \
         ({overhead_percent:.1}% overhead, drain {:.1} ms), replay exact over {} events",
        circuit.name,
        drain.spread.median * 1e3,
        events.len()
    );
    assert!(
        overhead_percent < 10.0,
        "telemetry overhead {overhead_percent:.1}% exceeds the 10% budget"
    );

    let mut block = String::new();
    let _ = write!(
        block,
        "  \"telemetry\": {{\"circuit\": \"{}\", \"psi\": 1, ",
        circuit.name
    );
    json_timing(&mut block, "untraced", &baseline);
    block.push_str(", ");
    json_timing(&mut block, "jsonl", &traced);
    let _ = writeln!(
        block,
        ", \"overhead_percent\": {overhead_percent:.2}, \"drain_median_s\": {:.6}, \
         \"events\": {}, \"replay_exact\": true}}",
        drain.spread.median,
        events.len()
    );
    block
}
