//! The copack benchmark: one workload per run, measured from outside the
//! program by timing calls into the public functions of its crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the `end_to_end` metrics of
//! `BENCHMARK.json` (`--trace 0`) or its `per_layer` metrics
//! (`--trace 1`). A table of the same metrics with their sample counts
//! goes to standard error. A failed output check prints the result with
//! `"correct": false` and exits with status 1.

mod calib;
mod flow;
mod harness;
mod inputs;
mod package;
mod portfolio;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use stats::Metrics;
use trace::Spans;

/// What a run reports.
pub struct Outcome {
    attempted: usize,
    ok: usize,
    problems: Vec<String>,
    metrics: Metrics,
    spans: Spans,
}

impl Outcome {
    pub fn new(attempted: usize, ok: usize, problems: Vec<String>, metrics: Metrics) -> Self {
        Self {
            attempted,
            ok,
            problems,
            metrics,
            spans: Spans::default(),
        }
    }

    /// Attaches the traced run's spans, written out when the run ends.
    pub fn with_spans(self, spans: Spans) -> Self {
        Self { spans, ..self }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.ok == self.attempted && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.attempted - self.ok,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: copack-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "table1-flow" => flow::run(seed, seconds, traced),
        "large-package" => package::run(seed, seconds, traced),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{:<26} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics.0 {
        eprintln!(
            "{:<26} {:>16.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    if !outcome.spans.0.is_empty() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{seed}.tsv", args.workload));
        if let Err(e) = outcome.spans.write(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
