//! The `copack` command-line interface.
//!
//! The binary in `src/bin/copack.rs` is a thin wrapper around [`run`]; the
//! logic lives here so integration tests can drive it without spawning
//! processes.
//!
//! ```text
//! copack gen <1..=5>                       write a Table 1 circuit file
//! copack plan <circuit> [options]          assign (and optionally exchange)
//! copack replan <circuit> --prev PLAN --delta EDITS
//!                                          incrementally re-plan after an ECO
//! copack route <circuit> <assignment>      analyse a routing
//! copack ir <circuit> <assignment>         solve the IR-drop map
//! copack check <circuit>                   run the seven invariant oracles
//! copack fuzz [--budget-secs N]            fuzz the oracles over generated
//!                                          instances, shrinking failures
//! copack tune [circuits...]                auto-tune schedules/weights into
//!                                          a reusable .tune profile
//! copack serve [--addr HOST:PORT]          run the resident planning daemon
//! copack submit <circuit>                  plan one circuit via the daemon
//! copack batch <dir>                       plan every circuit in a directory
//! copack shutdown                          drain and stop the daemon
//! ```

use std::fmt::Write as _;
use std::fs;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use copack_core::{
    apply_delta, plan_package, plan_package_traced, AssignMethod, CancelToken, Codesign,
    PortfolioMode,
};
use copack_gen::circuit;
use copack_geom::{Assignment, Package, Quadrant, StackConfig};
use copack_io::{
    classify_quadrant, parse_assignment, parse_delta, parse_quadrant, parse_tune, write_quadrant,
    write_tune, TuneProfile,
};
use copack_obs::{Event, JsonlSink, NoopRecorder, Recorder, TraceBuffer, TraceSummary};
use copack_power::GridSpec;
use copack_route::{analyze, balanced_density_map, DensityModel};
use copack_serve::{
    execute_job_full, pool_metrics_text, Client, JobClass, JobSpec, PlanResponse, ServeConfig,
    Server,
};
use copack_tune::{tune, TrialSpace, TuneOptions};
use copack_viz::{density_histogram, routing_ascii, routing_svg, trace_sparklines};

/// Usage text printed for `--help` or argument errors.
pub const USAGE: &str = "\
copack - package routability- and IR-drop-aware finger/pad planning

USAGE:
  copack gen <1..=5> [--out FILE]
      Write circuit N of the paper's Table 1 in the circuit format.

  copack gen --family large [--size 1k|4k|10k] [--seed N] [--out FILE]
      Write an industrial-scale instance (1k/4k/10k nets per quadrant,
      hundreds of ball rows, stacked tiers up to psi = 8). Generation is
      byte-identical for a fixed --size/--seed on every platform.

  copack plan <circuit-file> [--method dfa|ifa|random] [--seed N]
              [--slack N] [--exchange] [--psi N] [--starts K]
              [--prune-margin F] [--portfolio-mode race|coop|temper]
              [--kick-size N] [--ladder-ratio F] [--margin-weight F]
              [--profile FILE] [--out FILE] [--svg FILE] [--package]
              [--threads N] [--trace FILE] [--metrics]
      Run the congestion-driven assignment (default: dfa) and optionally
      the IR-drop-aware exchange step; print the routing report.
      With --starts K > 1 the exchange runs as a multi-start portfolio:
      K independently-seeded anneals race, starts trailing the global
      best by --prune-margin (relative, default 0.25) are pruned and
      re-seeded at sync points, and the best final cost wins (ties to
      the lowest start index). The winner is byte-identical for every
      --threads value. --portfolio-mode picks the cooperation policy:
      `race` (the default) keeps the starts independent; `coop` respawns
      pruned starts from the current leader's plan perturbed by a seeded
      --kick-size swap kick and adapts the prune margin to the observed
      cross-start spread; `temper` runs a parallel-tempering ladder
      (rung temperatures scale by --ladder-ratio, default 1.5) with
      deterministic Metropolis swaps at epoch boundaries and no pruning.
      Every mode honours the same determinism contract: byte-identical
      output for every --threads value and across reruns. With --package, plan all four quadrants of a
      uniform package and report the package-level IR-drop and cut-line
      congestion; --threads caps the worker threads (0 = available
      parallelism, 1 = serial; the result is identical for every thread
      count). --margin-weight adds the weighted net-separation margin
      term to the exchange cost (0, the default, leaves it off).
      --profile loads a `copack tune` profile and plans the exchange
      under the tuned configuration for the circuit's instance class
      (unknown classes fall back to the defaults), as `submit
      --use-profile` does on a daemon serving that profile. The profile
      sets the portfolio and margin knobs, so --profile refuses
      --starts, --prune-margin, --portfolio-mode, --kick-size,
      --ladder-ratio and --margin-weight; --xseed and --psi still apply.
      The report is the one `submit` prints for the same flags, plus a
      `tuned profile applied` line.

  copack replan <circuit-file> --prev ASSIGNMENT --delta EDITS
                [--psi N] [--xseed N] [--margin-weight F]
                [--profile FILE] [--out FILE] [--trace FILE] [--metrics]
      Incrementally re-plan after an ECO. <circuit-file> is the base
      (pre-edit) circuit, --prev its planned assignment (`copack plan
      --out` format), --delta the edit list (`.edits` format). When the
      delta does not touch this quadrant — or lists edits that cancel
      out to a no-op — the previous plan is reused verbatim: the --out
      file is byte-identical to --prev and no annealing work runs (the
      trace proves it: `replan_start` with dirty 0 plus one
      `quadrant_reused`). A dirty quadrant applies its edits, repairs
      the previous assignment onto the edited netlist, and re-anneals
      from that warm start; the result lands in the same feasibility
      class as a from-scratch plan, with its cost inside the
      `replan_vs_scratch` oracle's band. After its dirty-count line a
      dirty replan prints the report `submit --exchange --prev`
      returns for the edited circuit. --profile applies a tuned
      configuration and refuses the flags it replaces, as in plan.

  copack route <circuit-file> <assignment-file> [--svg FILE]
      Check legality and print density/wirelength analysis.

  copack ir <circuit-file> <assignment-file> [--grid N] [--trace FILE]
            [--metrics]
      Solve the finite-difference IR-drop model for the power pads.

  copack check <circuit-file> [--psi N] [--trace FILE] [--metrics]
      Run the seven invariant oracles (monotonicity, density,
      ir-cross-check, determinism, cost-ledger, replan_vs_scratch,
      tune-determinism) on the circuit and print the verdict table;
      exits non-zero if any oracle fails.

  copack tune [circuit-files...] [--quick] [--rounds N] [--seed N]
              [--threads N] [--psi N] [--out FILE]
      Auto-tune the SA schedule, Eq. 3 weights, and portfolio knobs
      over a circuit family (default: the built-in 8-member tuning
      family; pass circuit files to tune your own) and distil one
      winning configuration per instance class into a reusable .tune
      profile (written with --out; loaded by plan/replan/serve via
      --profile). Trials are seeded and journaled: early
      successive-halving rounds run bit-exact schedule prefixes, cheap
      trace signals rank the candidates (the per-class Spearman
      correlation in the report says how predictive they were), and
      survivors run full-length. The default configuration always
      competes in the final round and a candidate only wins by beating
      it on every family member, so a profile can never regress a
      family instance. The emitted profile is byte-identical for every
      --threads value and across reruns. --quick sweeps a 4-point
      space (CI smoke); the default space has 20 points.

  copack fuzz [--budget-secs N] [--cases N] [--seed S] [--corpus DIR]
              [--trace FILE] [--metrics]
      Drive the oracles over a seeded stream of generated instances
      (default: seed 1, 10 s budget). The first violation is shrunk to a
      minimal reproducer — written to DIR with --corpus — and the run
      exits non-zero.

  copack serve [--addr HOST:PORT] [--workers N] [--queue N]
               [--timeout-secs N] [--cache-dir DIR] [--cache-mem-limit B]
               [--profile FILE] [--port-file FILE] [--trace FILE]
               [--metrics]
      Run the resident planning daemon: jobs arrive as JSON lines over a
      local TCP socket, a single event loop owns every connection (idle
      clients cost no threads), jobs run on a bounded worker pool, and
      identical submissions are answered from a content-addressed result
      cache. Prints `listening on ADDR` once bound (use --addr with port
      0 and --port-file to discover an ephemeral port), then blocks
      until a client sends shutdown. --queue bounds each class's job
      queue (a full queue rejects with a typed backpressure error);
      --timeout-secs is the default per-job wall-clock budget (0 =
      unlimited). --cache-dir persists results (checksummed, atomically
      written; corrupt entries are quarantined, and a restarted daemon
      answers from the warm store); --cache-mem-limit bounds the
      in-memory tier in bytes (LRU eviction; 0 = unbounded; default
      64 MiB). --profile loads a `copack tune` profile: jobs submitted
      with --use-profile plan under its tuned per-class configuration
      (the profile fingerprint and class key join the cache key, so
      tuned and untuned results never collide); without a loaded
      profile such jobs are refused with a typed bad-request error.

  copack submit <circuit-file> [--addr HOST:PORT] [--method dfa|ifa|random]
                [--seed N] [--slack N] [--exchange] [--psi N] [--xseed N]
                [--starts K] [--prune-margin F]
                [--portfolio-mode race|coop|temper] [--kick-size N]
                [--ladder-ratio F] [--margin-weight F]
                [--prev FILE] [--use-profile] [--timeout-ms N]
                [--class interactive|bulk] [--out FILE]
      Submit one planning job to a running daemon and print its report.
      The planning flags mirror `copack plan`; --xseed seeds the exchange
      pass, --starts/--prune-margin select the portfolio (part of the
      daemon's cache key, as are --portfolio-mode/--kick-size/
      --ladder-ratio when a non-default mode is chosen),
      --timeout-ms overrides the daemon's default
      budget, --class picks the admission class (interactive jobs are
      prioritised, bulk jobs never starve; the result is identical
      either way). --prev FILE ships a previous assignment so the
      daemon warm-starts the exchange from it (an incremental replan of
      one quadrant); --margin-weight sets the net-separation margin
      term. Both join the cache key only when they can change the
      result. --use-profile plans under the daemon's loaded tuning
      profile (see serve --profile), which sets the portfolio and margin
      flags, so it refuses them. --out writes the assignment file
      (byte-identical to `copack plan --out`).

  copack batch <dir> [--addr HOST:PORT] [--class interactive|bulk]
               [--stream] [planning flags as submit]
      Submit every `*.copack` file in <dir> to the daemon as one
      streamed batch and print a per-job verdict table (directory
      order); exits non-zero if any job fails or times out. --stream
      also prints one live line per job as its result arrives
      (completion order). --class classes the whole batch (default
      interactive; use bulk for sweeps that should yield to interactive
      traffic).

  copack shutdown [--addr HOST:PORT]
      Ask the daemon to drain its queue and stop.

  Telemetry (plan, ir, check, fuzz, serve): --trace FILE streams the
  run's events as JSON lines; --metrics appends a summary block (for
  serve: queue depth, cache hit rate, p50/p99 latency; for portfolio
  plans: one cost sparkline per start, pruned starts flagged). Neither
  flag changes the computed result.
";

/// Where the daemon listens (and clients connect) unless `--addr` says
/// otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:46071";

/// Runs the CLI on pre-split arguments (without the program name) and
/// returns the text to print.
///
/// # Errors
///
/// Returns a human-readable message (file, parse, or model error) suitable
/// for printing to stderr with a non-zero exit code.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("gen") => cmd_gen(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("replan") => cmd_replan(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("ir") => cmd_ir(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("--help" | "-h" | "help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

struct Options {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take a value; everything else `--x` is boolean.
const VALUED: [&str; 35] = [
    "--portfolio-mode",
    "--kick-size",
    "--ladder-ratio",
    "--prev",
    "--profile",
    "--rounds",
    "--delta",
    "--margin-weight",
    "--family",
    "--size",
    "--starts",
    "--prune-margin",
    "--out",
    "--svg",
    "--method",
    "--seed",
    "--slack",
    "--psi",
    "--grid",
    "--threads",
    "--trace",
    "--budget-secs",
    "--cases",
    "--corpus",
    "--addr",
    "--workers",
    "--queue",
    "--timeout-secs",
    "--port-file",
    "--xseed",
    "--timeout-ms",
    "--cache-dir",
    "--cache-mem-limit",
    "--worker-stall-ms",
    "--class",
];

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            if VALUED.contains(&arg.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{flag} needs a value"))?;
                flags.push((flag.to_owned(), Some(value.clone())));
            } else {
                flags.push((flag.to_owned(), None));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Options { positional, flags })
}

impl Options {
    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flag(name).and_then(|v| v.as_deref())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }
}

/// Telemetry wiring shared by `plan` and `ir`: events are buffered in
/// memory during the run and drained afterwards, so the hot paths never
/// touch the filesystem. The trace file is opened *before* the run — an
/// unwritable `--trace` path fails loudly up front — while write errors
/// during the drain degrade to a warning line (the run's result is
/// already computed and is still printed).
struct Telemetry {
    buffer: TraceBuffer,
    sink: Option<(String, JsonlSink<BufWriter<File>>)>,
    metrics: bool,
}

impl Telemetry {
    /// Builds the telemetry state from `--trace`/`--metrics`, or `None`
    /// when neither flag is present (the untraced paths stay untouched).
    fn from_options(opts: &Options) -> Result<Option<Self>, String> {
        let metrics = opts.flag("metrics").is_some();
        let trace = opts.value("trace");
        if !metrics && trace.is_none() {
            return Ok(None);
        }
        let sink = match trace {
            Some(path) => {
                let sink = JsonlSink::create(Path::new(path)).map_err(|e| e.to_string())?;
                Some((path.to_owned(), sink))
            }
            None => None,
        };
        Ok(Some(Self {
            buffer: TraceBuffer::new(),
            sink,
            metrics,
        }))
    }

    /// Drains the buffered events into the trace file and renders the
    /// `--metrics` block into `out`.
    fn finish(self, out: &mut String) {
        let events = self.buffer.into_events();
        if let Some((path, mut sink)) = self.sink {
            for event in &events {
                sink.record(event);
            }
            match sink.finish() {
                Ok(_) => {
                    let _ = writeln!(out, "wrote {path} ({} events)", events.len());
                }
                Err(e) => {
                    let _ = writeln!(out, "warning: trace file {path} is incomplete: {e}");
                }
            }
        }
        if self.metrics {
            let summary = TraceSummary::from_events(&events);
            out.push_str(&summary.to_text());
            out.push_str(&trace_sparklines(&events, 60));
        }
    }
}

fn load_quadrant(path: &str) -> Result<(String, Quadrant), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_quadrant(&text).map_err(|e| format!("{path}: {e}"))
}

/// Reads the plan an assignment file records for `quadrant`, over all of
/// its fingers (see [`planned_assignment`]).
fn load_assignment(path: &str, quadrant: &Quadrant) -> Result<Assignment, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    planned_assignment(quadrant, &text).map_err(|e| format!("{path}: {e}"))
}

/// Parses `--psi` (default 1, planar) into the stack configuration every
/// planning verb uses.
fn stack_config(opts: &Options) -> Result<StackConfig, String> {
    let psi = opts.num("psi", 1u8)?;
    match psi {
        0 => Err("--psi expects at least 1 tier".to_owned()),
        1 => Ok(StackConfig::planar()),
        _ => StackConfig::stacked(psi).map_err(|e| e.to_string()),
    }
}

/// The tunables a tuning profile replaces, as (flag, [`JobSpec`] field
/// name): a profile job refuses the flags, and a value no planner
/// accepts is reported under its flag.
const PROFILE_TUNABLES: [(&str, &str); 6] = [
    ("starts", "starts"),
    ("prune-margin", "prune_margin_bits"),
    ("portfolio-mode", "mode"),
    ("kick-size", "kick_size"),
    ("ladder-ratio", "ladder_ratio_bits"),
    ("margin-weight", "margin_bits"),
];

/// Builds a job spec, without its circuit, from the planning flags
/// `plan`, `replan`, `submit` and `batch` share: `--method`, `--seed`,
/// `--slack`, `--exchange`, `--psi`, `--xseed`, the portfolio flags and
/// `--margin-weight`. Every verb therefore rejects a bad value with the
/// same message. `profile_flag` is the verb's profile switch: when it is
/// given, the job plans under the tuning profile and refuses the flags
/// the profile replaces.
fn job_spec_from_options(opts: &Options, profile_flag: &str) -> Result<JobSpec, String> {
    let default = JobSpec::new("");
    let seed = opts.num("seed", 42u64)?;
    let slack = opts.num("slack", 1u32)?;
    let spec = JobSpec {
        method: match opts.value("method").unwrap_or("dfa") {
            "dfa" => AssignMethod::Dfa { slack },
            "ifa" => AssignMethod::Ifa,
            "random" => AssignMethod::Random { seed },
            other => return Err(format!("unknown method `{other}` (dfa|ifa|random)")),
        },
        exchange: opts.flag("exchange").is_some(),
        starts: opts.num("starts", default.starts)?,
        prune_margin_bits: opts
            .num("prune-margin", f64::from_bits(default.prune_margin_bits))?
            .to_bits(),
        mode: match opts.value("portfolio-mode") {
            None => default.mode,
            Some(tag) => PortfolioMode::parse(tag)
                .ok_or_else(|| format!("unknown portfolio mode `{tag}` (race|coop|temper)"))?,
        },
        kick_size: opts.num("kick-size", default.kick_size)?,
        ladder_ratio_bits: opts
            .num("ladder-ratio", f64::from_bits(default.ladder_ratio_bits))?
            .to_bits(),
        psi: stack_config(opts)?.tiers,
        margin_bits: opts.num("margin-weight", 0.0f64)?.to_bits(),
        exchange_seed: opts.num("xseed", default.exchange_seed)?,
        profile: opts.flag(profile_flag).is_some(),
        ..default
    };
    if let Some((field, expects)) = spec.invalid_tunable() {
        let (flag, _) = PROFILE_TUNABLES
            .iter()
            .find(|(_, name)| *name == field)
            .expect("every checked tunable has a flag");
        return Err(format!("--{flag} expects {expects}"));
    }
    if let Some((flag, _)) = PROFILE_TUNABLES
        .iter()
        .find(|(flag, _)| spec.profile && opts.value(flag).is_some())
    {
        return Err(format!(
            "--{flag} cannot be combined with --{profile_flag}: the tuning profile sets it"
        ));
    }
    Ok(spec)
}

/// Loads `--profile` (a `copack tune` output file), or `None` when the
/// flag is absent. Parse failures — truncation, checksum mismatch,
/// version skew — surface as typed errors with the file name attached.
fn load_profile(opts: &Options) -> Result<Option<TuneProfile>, String> {
    match opts.value("profile") {
        None => Ok(None),
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Some(parse_tune(&text).map_err(|e| format!("{path}: {e}"))?))
        }
    }
}

fn maybe_write(path: Option<&str>, content: &str, out: &mut String) -> Result<(), String> {
    if let Some(path) = path {
        fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let (name, q) = match opts.value("family").unwrap_or("table1") {
        "table1" => {
            let [index] = opts.positional.as_slice() else {
                return Err(format!("gen expects one circuit index\n\n{USAGE}"));
            };
            let n: usize = index
                .parse()
                .map_err(|_| format!("`{index}` is not a circuit index"))?;
            if !(1..=5).contains(&n) {
                return Err("Table 1 has circuits 1..=5".to_owned());
            }
            let c = circuit(n);
            let q = c.build_quadrant().map_err(|e| e.to_string())?;
            (c.name.replace(' ', ""), q)
        }
        "large" => {
            if !opts.positional.is_empty() {
                return Err("gen --family large takes --size, not an index".to_owned());
            }
            let size = opts.value("size").unwrap_or("1k");
            let seed = opts.num("seed", 42u64)?;
            let spec = copack_gen::large_circuit(size, seed).ok_or_else(|| {
                format!(
                    "unknown large size `{size}` (sizes: {})",
                    copack_gen::LARGE_SIZES.join(", ")
                )
            })?;
            let q = spec.build_quadrant().map_err(|e| e.to_string())?;
            (spec.name, q)
        }
        other => {
            return Err(format!(
                "unknown family `{other}` (families: table1, large)"
            ));
        }
    };
    let text = write_quadrant(&name, &q);
    let mut out = String::new();
    match opts.value("out") {
        Some(_) => maybe_write(opts.value("out"), &text, &mut out)?,
        None => out = text,
    }
    Ok(out)
}

fn cmd_plan(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(format!("plan expects one circuit file\n\n{USAGE}"));
    };
    let (name, quadrant) = load_quadrant(path)?;
    let mut telemetry = Telemetry::from_options(&opts)?;

    let spec = job_spec_from_options(&opts, "profile")?;
    let profile = load_profile(&opts)?;
    if profile.is_some() && (!spec.exchange || opts.flag("package").is_some()) {
        return Err("--profile tunes the exchange pass: it requires --exchange and does not apply to --package".to_owned());
    }

    if opts.flag("package").is_some() {
        let threads = opts.num("threads", 0usize)?;
        let config = Codesign {
            method: spec.method,
            stack: stack_config(&opts)?,
            threads,
            ..Codesign::default()
        };
        let package = Package::uniform(quadrant);
        let report = match telemetry.as_mut() {
            Some(t) => plan_package_traced(&package, &config, &mut t.buffer),
            None => plan_package(&package, &config),
        }
        .map_err(|e| e.to_string())?;
        let mut out = String::new();
        let _ = writeln!(out, "{name}: package plan ({})", spec.method);
        for (i, r) in report.routing.iter().enumerate() {
            let _ = writeln!(out, "  side {i}: {r}");
        }
        if let (Some(before), Some(after)) = (report.ir_before, report.ir_after) {
            let _ = writeln!(
                out,
                "  package IR-drop: {:.3} mV -> {:.3} mV",
                before * 1000.0,
                after * 1000.0
            );
        }
        let _ = writeln!(
            out,
            "  worst cut-line congestion: {}",
            report.cutlines.max()
        );
        for (i, a) in report.assignments.iter().enumerate() {
            let _ = writeln!(out, "  order[{i}]: {a}");
        }
        if let Some(t) = telemetry {
            t.finish(&mut out);
        }
        return Ok(out);
    }

    // `--threads` only sizes the exchange's portfolio (the plan is the
    // same for every count), so it is read only when there is one.
    let threads = if spec.exchange {
        opts.num("threads", 0usize)?
    } else {
        0
    };
    let mut noop = NoopRecorder;
    let recorder: &mut dyn Recorder = match telemetry.as_mut() {
        Some(t) => &mut t.buffer,
        None => &mut noop,
    };
    let job = execute_job_full(
        &spec,
        &name,
        &quadrant,
        &CancelToken::new(),
        profile.as_ref(),
        threads,
        recorder,
    )
    .map_err(|e| e.message)?;
    let mut out = job.report;
    if profile.is_some() {
        let tuned = format!(
            "{name}: tuned profile applied (class {})\n",
            classify_quadrant(&quadrant)
        );
        out.insert_str(out.find('\n').map_or(0, |i| i + 1), &tuned);
    }
    maybe_write(opts.value("out"), &job.assignment, &mut out)?;
    if let Some(svg_path) = opts.value("svg") {
        let assignment = planned_assignment(&quadrant, &job.assignment)?;
        let svg = routing_svg(&quadrant, &assignment).map_err(|e| e.to_string())?;
        maybe_write(Some(svg_path), &svg, &mut out)?;
    }
    if let Some(t) = telemetry {
        t.finish(&mut out);
    }
    Ok(out)
}

/// The plan an assignment file written for `quadrant` records, over all
/// of the quadrant's fingers (a sparse file omits trailing spare ones).
fn planned_assignment(quadrant: &Quadrant, text: &str) -> Result<Assignment, String> {
    let (_, parsed) = parse_assignment(text).map_err(|e| e.to_string())?;
    let mut assignment = Assignment::empty(quadrant.finger_count());
    for (finger, net) in parsed.iter() {
        assignment.place(net, finger).map_err(|e| e.to_string())?;
    }
    Ok(assignment)
}

fn cmd_replan(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(format!("replan expects one circuit file\n\n{USAGE}"));
    };
    let prev_path = opts
        .value("prev")
        .ok_or_else(|| format!("replan needs --prev ASSIGNMENT-FILE\n\n{USAGE}"))?;
    let delta_path = opts
        .value("delta")
        .ok_or_else(|| format!("replan needs --delta EDITS-FILE\n\n{USAGE}"))?;
    let (name, base) = load_quadrant(path)?;
    let prev_text = fs::read_to_string(prev_path).map_err(|e| format!("{prev_path}: {e}"))?;
    let previous =
        planned_assignment(&base, &prev_text).map_err(|e| format!("{prev_path}: {e}"))?;
    let delta_text = fs::read_to_string(delta_path).map_err(|e| format!("{delta_path}: {e}"))?;
    let (_, delta) = parse_delta(&delta_text).map_err(|e| format!("{delta_path}: {e}"))?;
    let profile = load_profile(&opts)?;
    let mut telemetry = Telemetry::from_options(&opts)?;

    let mut out = String::new();
    // A quadrant is clean when the delta does not list it — or when it
    // does but the listed edits cancel out to a no-op (an ECO that was
    // made and reverted, then resubmitted). Either way the edited
    // netlist equals the base, so the previous plan is still exactly
    // valid and repair + re-anneal would be pure waste.
    // (An *invalid* delta is not a no-op: it falls through to the dirty
    // path, where `apply_delta` reports the real error.)
    let noop_resubmission = delta
        .get(&name)
        .is_some_and(|d| d.is_noop_for(&base).unwrap_or(false));
    if delta.is_clean(&name) || noop_resubmission {
        // Untouched quadrant: reuse the previous plan verbatim. Nothing
        // is re-annealed — the only trace is the replan bookkeeping —
        // and --out gets the previous file's bytes, not a re-render, so
        // reuse is bit-for-bit.
        if let Some(t) = telemetry.as_mut() {
            t.buffer.record(&Event::ReplanStart {
                quadrants: 1,
                dirty: 0,
            });
            t.buffer.record(&Event::QuadrantReused {
                name: name.clone(),
                tier: "previous".to_owned(),
            });
        }
        let _ = writeln!(
            out,
            "{name}: replan 0/1 quadrants dirty; previous plan reused"
        );
        let _ = writeln!(out, "order: {previous}");
        maybe_write(opts.value("out"), &prev_text, &mut out)?;
        if let Some(t) = telemetry {
            t.finish(&mut out);
        }
        return Ok(out);
    }

    let quadrant_delta = delta
        .get(&name)
        .expect("a dirty instance lists this quadrant");
    let edited = apply_delta(&base, quadrant_delta).map_err(|e| format!("{delta_path}: {e}"))?;
    // The job `submit --prev` sends for the edited circuit: a warm
    // start, so the portfolio flags do not apply.
    let spec = JobSpec {
        exchange: true,
        prev: Some(prev_text),
        ..job_spec_from_options(&opts, "profile")?
    };
    if profile.is_some() {
        let _ = writeln!(
            out,
            "{name}: tuned profile applied (class {})",
            classify_quadrant(&edited)
        );
    }
    let _ = writeln!(out, "{name}: replan 1/1 quadrants dirty");
    if let Some(t) = telemetry.as_mut() {
        t.buffer.record(&Event::ReplanStart {
            quadrants: 1,
            dirty: 1,
        });
    }
    let mut noop = NoopRecorder;
    let recorder: &mut dyn Recorder = match telemetry.as_mut() {
        Some(t) => &mut t.buffer,
        None => &mut noop,
    };
    let job = execute_job_full(
        &spec,
        &name,
        &edited,
        &CancelToken::new(),
        profile.as_ref(),
        1,
        recorder,
    )
    .map_err(|e| e.message)?;
    out.push_str(&job.report);
    maybe_write(opts.value("out"), &job.assignment, &mut out)?;
    if let Some(t) = telemetry {
        t.finish(&mut out);
    }
    Ok(out)
}

fn cmd_route(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [circuit_path, assignment_path] = opts.positional.as_slice() else {
        return Err(format!(
            "route expects a circuit and an assignment\n\n{USAGE}"
        ));
    };
    let (name, quadrant) = load_quadrant(circuit_path)?;
    let assignment = load_assignment(assignment_path, &quadrant)?;
    let report =
        analyze(&quadrant, &assignment, DensityModel::Geometric).map_err(|e| e.to_string())?;
    let balanced = balanced_density_map(&quadrant, &assignment)
        .map_err(|e| e.to_string())?
        .max_density();
    let mut out = String::new();
    let _ = writeln!(out, "{name}: {report}");
    let _ = writeln!(
        out,
        "{name}: best-achievable (balanced) max density {balanced}"
    );
    let _ = write!(
        out,
        "{}",
        routing_ascii(&quadrant, &assignment).map_err(|e| e.to_string())?
    );
    let _ = write!(
        out,
        "{}",
        density_histogram(&quadrant, &assignment, DensityModel::Geometric)
            .map_err(|e| e.to_string())?
    );
    if let Some(svg_path) = opts.value("svg") {
        let svg = routing_svg(&quadrant, &assignment).map_err(|e| e.to_string())?;
        maybe_write(Some(svg_path), &svg, &mut out)?;
    }
    Ok(out)
}

fn cmd_ir(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [circuit_path, assignment_path] = opts.positional.as_slice() else {
        return Err(format!("ir expects a circuit and an assignment\n\n{USAGE}"));
    };
    let (name, quadrant) = load_quadrant(circuit_path)?;
    let assignment = load_assignment(assignment_path, &quadrant)?;
    let n = opts.num("grid", 48usize)?;
    let grid = GridSpec::default_chip(n);
    let mut telemetry = Telemetry::from_options(&opts)?;
    let mut noop = NoopRecorder;
    let recorder: &mut dyn Recorder = match telemetry.as_mut() {
        Some(t) => &mut t.buffer,
        None => &mut noop,
    };
    let drop = copack_core::evaluate_ir_map_traced(&quadrant, &assignment, &grid, None, recorder)
        .map_err(|e| e.to_string())?
        .map(|map| map.max_drop());
    let mut out = match drop {
        Some(v) => format!(
            "{name}: max IR-drop {:.3} mV ({n}x{n} grid, pads replicated on 4 sides)\n",
            v * 1000.0
        ),
        None => format!("{name}: no power nets, nothing to solve\n"),
    };
    if let Some(t) = telemetry {
        t.finish(&mut out);
    }
    Ok(out)
}

fn cmd_check(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(format!("check expects one circuit file\n\n{USAGE}"));
    };
    let (name, quadrant) = load_quadrant(path)?;
    let psi = opts.num("psi", 1u8)?;
    let mut telemetry = Telemetry::from_options(&opts)?;
    let mut noop = NoopRecorder;
    let recorder: &mut dyn Recorder = match telemetry.as_mut() {
        Some(t) => &mut t.buffer,
        None => &mut noop,
    };
    let config = copack_verify::VerifyConfig::quick(psi);
    let reports = copack_verify::check_quadrant(&quadrant, &config, recorder);
    let mut out = copack_verify::verdict_table(&name, &reports);
    if let Some(t) = telemetry {
        t.finish(&mut out);
    }
    if reports.iter().all(|r| r.passed) {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_fuzz(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    if !opts.positional.is_empty() {
        return Err(format!("fuzz takes only flags\n\n{USAGE}"));
    }
    let seed = opts.num("seed", 1u64)?;
    let cases = match opts.value("cases") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--cases expects a number, got `{v}`"))?,
        ),
        None => None,
    };
    // Without an explicit case count the run is wall-clock bounded;
    // 10 s of the quick profile covers a few hundred instances.
    let default_budget = if cases.is_none() { 10 } else { 0 };
    let budget_secs = opts.num("budget-secs", default_budget)?;
    let config = copack_verify::FuzzConfig {
        seed,
        budget: (budget_secs > 0).then(|| std::time::Duration::from_secs(budget_secs)),
        max_cases: cases,
        corpus_dir: opts.value("corpus").map(std::path::PathBuf::from),
    };
    let mut telemetry = Telemetry::from_options(&opts)?;
    let mut noop = NoopRecorder;
    let recorder: &mut dyn Recorder = match telemetry.as_mut() {
        Some(t) => &mut t.buffer,
        None => &mut noop,
    };
    let outcome = copack_verify::run_fuzz(&config, recorder);
    let mut out = String::new();
    match &outcome.failure {
        None => {
            let _ = writeln!(
                out,
                "fuzz: {} cases, seed {seed}, 0 violations",
                outcome.cases
            );
        }
        Some(f) => {
            let _ = writeln!(
                out,
                "fuzz: VIOLATION in case {} (seed {seed}, {} generator)",
                f.case_index, f.variant
            );
            let _ = writeln!(out, "  oracle: {}", f.oracle);
            let _ = writeln!(out, "  detail: {}", f.detail);
            let _ = writeln!(
                out,
                "  shrunk: {} nets, {} rows, exchange seed {}",
                f.quadrant.net_count(),
                f.quadrant.row_count(),
                f.config.exchange_seed
            );
            if let Some(delta) = &f.delta {
                let _ = writeln!(
                    out,
                    "  delta: {} edits (replan reproducer)",
                    delta.edits.len()
                );
            }
            match &f.reproducer {
                Some(p) => {
                    let _ = writeln!(out, "  reproducer: {}", p.display());
                }
                None => {
                    let _ = writeln!(out, "  reproducer: not written (pass --corpus DIR)");
                }
            }
            if let Some(p) = &f.edits_file {
                let _ = writeln!(out, "  edits: {}", p.display());
            }
        }
    }
    if let Some(t) = telemetry {
        t.finish(&mut out);
    }
    if outcome.failure.is_none() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_tune(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let stack = stack_config(&opts)?;
    let mut instances: Vec<(String, Quadrant, StackConfig)> = Vec::new();
    if opts.positional.is_empty() {
        // The built-in tuning family: Table 1 plus stacked and deep-row
        // variants, chosen to cover the instance classes the other
        // verbs see.
        for c in copack_gen::tune_family() {
            let quadrant = c.build_quadrant().map_err(|e| e.to_string())?;
            let stack = c.stack().map_err(|e| e.to_string())?;
            instances.push((c.name.replace(' ', ""), quadrant, stack));
        }
    } else {
        for path in &opts.positional {
            let (name, quadrant) = load_quadrant(path)?;
            instances.push((name, quadrant, stack));
        }
    }
    let space = if opts.flag("quick").is_some() {
        TrialSpace::quick()
    } else {
        TrialSpace::standard()
    };
    let options = TuneOptions {
        seed: opts.num("seed", TuneOptions::default().seed)?,
        threads: opts.num("threads", 0usize)?,
        rounds: opts.num("rounds", TuneOptions::default().rounds)?,
    };
    let report = tune(&instances, &space, &options).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "tuned {} instances over {} points ({} trials, seed {})",
        instances.len(),
        space.len(),
        report.trials,
        options.seed
    );
    for class in &report.classes {
        let _ = writeln!(
            out,
            "  {}: winner point {} cost {:.4} -> {:.4} (corr {:+.2}, {} pruned; members {})",
            class.key,
            class.winner,
            class.default_cost,
            class.winner_cost,
            class.correlation,
            class.pruned_points,
            class.members.join(", ")
        );
    }
    maybe_write(opts.value("out"), &write_tune(&report.profile), &mut out)?;
    Ok(out)
}

/// The job `submit` and `batch` send, without its circuit: the shared
/// planning flags with `--use-profile`, plus `--timeout-ms`, `--prev`
/// and `--class`.
fn served_job_spec(opts: &Options) -> Result<JobSpec, String> {
    let spec = job_spec_from_options(opts, "use-profile")?;
    let timeout_ms = match opts.value("timeout-ms") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--timeout-ms expects a number, got `{v}`"))?,
        ),
    };
    let prev = match opts.value("prev") {
        None => None,
        Some(p) => Some(fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?),
    };
    Ok(JobSpec {
        prev,
        timeout_ms,
        class: job_class_from_options(opts)?,
        ..spec
    })
}

/// Parses `--class` (default: interactive).
fn job_class_from_options(opts: &Options) -> Result<JobClass, String> {
    match opts.value("class") {
        None => Ok(JobClass::Interactive),
        Some(tag) => JobClass::parse_tag(tag)
            .ok_or_else(|| format!("unknown class `{tag}` (interactive|bulk)")),
    }
}

fn connect_daemon(opts: &Options) -> Result<(String, Client), String> {
    let addr = opts.value("addr").unwrap_or(DEFAULT_ADDR).to_owned();
    let client = Client::connect(&addr)
        .map_err(|e| format!("no daemon at {addr} ({e}); start one with `copack serve`"))?;
    Ok((addr, client))
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    if !opts.positional.is_empty() {
        return Err(format!("serve takes only flags\n\n{USAGE}"));
    }
    let addr = opts.value("addr").unwrap_or(DEFAULT_ADDR);
    let timeout_secs = opts.num("timeout-secs", 30u64)?;
    let stall_ms = opts.num("worker-stall-ms", 0u64)?;
    let config = ServeConfig {
        workers: opts.num("workers", 0usize)?,
        queue_capacity: opts.num("queue", 64usize)?,
        default_timeout: (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs)),
        // Test hook (undocumented): slows every worker down so harness
        // tests can observe queues and in-flight batches.
        worker_stall: (stall_ms > 0).then(|| std::time::Duration::from_millis(stall_ms)),
        cache_dir: opts.value("cache-dir").map(std::path::PathBuf::from),
        cache_mem_limit: opts.num("cache-mem-limit", ServeConfig::default().cache_mem_limit)?,
        profile: load_profile(&opts)?,
    };
    let trace = opts.value("trace").map(str::to_owned);
    let metrics = opts.flag("metrics").is_some();

    let server = Server::bind(addr, config).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Announce the bound address *before* blocking in the accept loop,
    // so scripts (and the CI smoke test) can connect; `run` only
    // returns after a client sends shutdown.
    println!("listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    maybe_write(
        opts.value("port-file"),
        &format!("{}\n", local.port()),
        &mut String::new(),
    )?;

    let summary = server.run().map_err(|e| e.to_string())?;
    let mut out = String::new();
    let s = &summary.status;
    let _ = writeln!(
        out,
        "served {} jobs: {} completed, {} cache hits, {} coalesced, {} rejected, {} timeouts",
        s.submitted, s.completed, s.cache_hits, s.coalesced, s.rejected, s.timeouts
    );
    let c = &summary.cache;
    let _ = writeln!(
        out,
        "cache disk {} entries ({} disk hits, {} evictions, {} quarantined)",
        c.disk_entries, c.disk_hits, c.evictions, c.quarantined
    );
    if let Some(path) = trace {
        let mut sink = JsonlSink::create(Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;
        for event in &summary.events {
            sink.record(event);
        }
        match sink.finish() {
            Ok(_) => {
                let _ = writeln!(out, "wrote {path} ({} events)", summary.events.len());
            }
            Err(e) => {
                let _ = writeln!(out, "warning: trace file {path} is incomplete: {e}");
            }
        }
    }
    if metrics {
        out.push_str(&pool_metrics_text(&summary.events));
    }
    Ok(out)
}

fn cmd_submit(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(format!("submit expects one circuit file\n\n{USAGE}"));
    };
    let circuit = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = JobSpec {
        circuit,
        ..served_job_spec(&opts)?
    };
    let (_, mut client) = connect_daemon(&opts)?;
    let plan = client.plan(&spec).map_err(|e| format!("{path}: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "{path}: cache {} (key {:016x})", plan.cache, plan.key);
    out.push_str(&plan.report);
    maybe_write(opts.value("out"), &plan.assignment, &mut out)?;
    Ok(out)
}

fn cmd_batch(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let [dir] = opts.positional.as_slice() else {
        return Err(format!("batch expects one directory\n\n{USAGE}"));
    };
    let mut files: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "copack"))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{dir}: no .copack files to plan"));
    }

    // One connection, one batch frame: the daemon streams per-item
    // frames back in completion order (tagged with each job's
    // submission index) and closes with a summary frame. --stream
    // prints a live line per arriving item before the final table.
    let template = served_job_spec(&opts)?;
    let class = template.class;
    let stream = opts.flag("stream").is_some();
    let mut rows: Vec<(String, Result<PlanResponse, String>)> = files
        .iter()
        .map(|file| (file.clone(), Err("no response from daemon".to_owned())))
        .collect();
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut submitted: Vec<usize> = Vec::new();
    for (index, file) in files.iter().enumerate() {
        let path = Path::new(dir).join(file);
        match fs::read_to_string(&path) {
            Ok(circuit) => {
                specs.push(JobSpec {
                    circuit,
                    ..template.clone()
                });
                submitted.push(index);
            }
            Err(e) => rows[index].1 = Err(format!("{}: {e}", path.display())),
        }
    }
    if !specs.is_empty() {
        let (addr, mut client) = connect_daemon(&opts)?;
        let total = specs.len();
        let mut done = 0usize;
        let outcome = client
            .batch(&specs, class, |seq, result| {
                done += 1;
                if stream {
                    let file = submitted
                        .get(seq as usize)
                        .map_or("?", |&index| files[index].as_str());
                    match result {
                        Ok(plan) => {
                            println!("[{done}/{total}] {file}: PASS (cache {})", plan.cache)
                        }
                        Err(error) => println!("[{done}/{total}] {file}: FAIL ({error})"),
                    }
                }
            })
            .map_err(|e| format!("{addr}: {e}"))?;
        for (seq, result) in outcome.items {
            if let Some(&index) = submitted.get(seq as usize) {
                rows[index].1 = result.map_err(|e| e.to_string());
            }
        }
    }

    // Render the same verdict-table shape `copack check` prints, in
    // directory order regardless of completion order.
    let results = rows;
    let passed = results.iter().filter(|(_, r)| r.is_ok()).count();
    let width = results
        .iter()
        .map(|(file, _)| file.len())
        .max()
        .unwrap_or(0)
        .max("job".len());
    let mut out = String::new();
    let _ = writeln!(out, "{dir}: {passed}/{} jobs passed", results.len());
    let _ = writeln!(out, "  {:width$}  verdict  detail", "job");
    for (file, result) in &results {
        match result {
            Ok(plan) => {
                let detail = plan.report.lines().next().unwrap_or("").to_owned();
                let _ = writeln!(
                    out,
                    "  {file:width$}  {:7}  cache {}; {detail}",
                    "PASS", plan.cache
                );
            }
            Err(message) => {
                let _ = writeln!(out, "  {file:width$}  {:7}  {message}", "FAIL");
            }
        }
    }
    if passed == results.len() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_shutdown(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    if !opts.positional.is_empty() {
        return Err(format!("shutdown takes only flags\n\n{USAGE}"));
    }
    let (addr, mut client) = connect_daemon(&opts)?;
    client.shutdown().map_err(|e| format!("{addr}: {e}"))?;
    Ok(format!("daemon at {addr} is draining\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    /// A per-test scratch directory, unique across concurrently running
    /// test binaries (pid) and across tests within one binary (tag), and
    /// removed when the test ends — tests must not share fixed paths or
    /// leak into the system temp dir.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("copack_cli_{tag}_{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&s(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["frob"])).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn usage_names_the_tune_space_sizes() {
        let quick = TrialSpace::quick().len();
        let standard = TrialSpace::standard().len();
        assert!(
            USAGE.contains(&format!("--quick sweeps a {quick}-point")),
            "{USAGE}"
        );
        assert!(
            USAGE.contains(&format!("the default space has {standard} points")),
            "{USAGE}"
        );
    }

    #[test]
    fn every_verb_rejects_a_bad_planning_flag_alike() {
        let dir = TestDir::new("bad_flags");
        let circuit = dir.path("c1.copack");
        fs::write(&circuit, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let circuit = circuit.to_str().unwrap();
        let jobs = dir.0.to_str().unwrap();
        for (bad, message) in [
            (
                ["--prune-margin", "-1"],
                "--prune-margin expects a non-negative number",
            ),
            (
                ["--prune-margin", "NaN"],
                "--prune-margin expects a non-negative number",
            ),
            (["--psi", "0"], "--psi expects at least 1 tier"),
        ] {
            let planning = ["--exchange", "--starts", "4", bad[0], bad[1]];
            let plan = run(&s(&[&["plan", circuit][..], &planning].concat())).unwrap_err();
            assert_eq!(plan, message, "{bad:?}");
            // Nothing listens on port 1: the flags fail before a connection.
            for verb in [["submit", circuit], ["batch", jobs]] {
                let args = [&verb[..], &planning, &["--addr", "127.0.0.1:1"]].concat();
                assert_eq!(run(&s(&args)).unwrap_err(), plan, "{verb:?} {bad:?}");
            }
        }
    }

    #[test]
    fn serving_verbs_validate_their_arguments() {
        assert!(run(&s(&["serve", "stray"]))
            .unwrap_err()
            .contains("serve takes only flags"));
        assert!(run(&s(&["submit"]))
            .unwrap_err()
            .contains("submit expects one circuit file"));
        assert!(run(&s(&["batch"]))
            .unwrap_err()
            .contains("batch expects one directory"));
        assert!(run(&s(&["shutdown", "stray"]))
            .unwrap_err()
            .contains("shutdown takes only flags"));

        // A directory without circuits is an error, not an empty table.
        let dir = TestDir::new("empty_batch");
        let err = run(&s(&["batch", dir.0.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no .copack files"), "error: {err}");

        // Planning-flag validation happens before any connection.
        let circuit = dir.path("c.copack");
        fs::write(&circuit, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let err = run(&s(&[
            "submit",
            circuit.to_str().unwrap(),
            "--method",
            "magic",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown method"), "error: {err}");
    }

    #[test]
    fn submit_refuses_the_flags_a_profile_replaces() {
        let dir = TestDir::new("profile_flags");
        let (circuit, prev, _) = plan_previous(&dir);
        let (circuit, prev) = (circuit.to_str().unwrap(), prev.to_str().unwrap());
        let profile = dir.path("empty.tune");
        let empty = TuneProfile {
            seed: 1,
            space_fingerprint: 1,
            classes: Vec::new(),
        };
        fs::write(&profile, write_tune(&empty)).unwrap();
        let profile = profile.to_str().unwrap();
        let edits = dir.path("eco.edits");
        fs::write(&edits, "delta eco\nquadrant circuit1\nremove 4\n").unwrap();
        let edits = edits.to_str().unwrap();
        let jobs = dir.0.to_str().unwrap();
        for (flag, value) in [
            ("--starts", "8"),
            ("--prune-margin", "0.5"),
            ("--portfolio-mode", "coop"),
            ("--kick-size", "3"),
            ("--ladder-ratio", "3.0"),
            ("--margin-weight", "0.5"),
        ] {
            for (args, switch) in [
                (vec!["submit", circuit, "--use-profile"], "--use-profile"),
                (vec!["batch", jobs, "--use-profile"], "--use-profile"),
                (
                    vec!["plan", circuit, "--exchange", "--profile", profile],
                    "--profile",
                ),
                (
                    vec![
                        "replan",
                        circuit,
                        "--prev",
                        prev,
                        "--delta",
                        edits,
                        "--profile",
                        profile,
                    ],
                    "--profile",
                ),
            ] {
                let err = run(&s(&[&args[..], &[flag, value]].concat())).unwrap_err();
                assert!(
                    err.contains(&format!("{flag} cannot be combined with {switch}")),
                    "{args:?} {flag}: {err}"
                );
            }
        }
    }

    #[test]
    fn gen_emits_a_parsable_circuit() {
        let text = run(&s(&["gen", "2"])).unwrap();
        let (name, q) = copack_io::parse_quadrant(&text).unwrap();
        assert_eq!(name, "circuit2");
        assert_eq!(q.net_count(), 40);
    }

    #[test]
    fn gen_validates_the_index() {
        assert!(run(&s(&["gen", "0"])).is_err());
        assert!(run(&s(&["gen", "9"])).is_err());
        assert!(run(&s(&["gen", "two"])).is_err());
        assert!(run(&s(&["gen"])).is_err());
    }

    #[test]
    fn gen_large_family_emits_a_parsable_circuit() {
        let text = run(&s(&["gen", "--family", "large", "--size", "1k"])).unwrap();
        let (name, q) = parse_quadrant(&text).unwrap();
        assert_eq!(name, "large-1k");
        assert_eq!(q.net_count(), 1_000);
        assert_eq!(q.row_count(), 100);
    }

    #[test]
    fn gen_large_family_is_byte_deterministic() {
        let args = s(&["gen", "--family", "large", "--size", "1k", "--seed", "7"]);
        assert_eq!(run(&args).unwrap(), run(&args).unwrap());
        let other = run(&s(&[
            "gen", "--family", "large", "--size", "1k", "--seed", "8",
        ]))
        .unwrap();
        assert_ne!(run(&args).unwrap(), other);
    }

    #[test]
    fn gen_validates_family_and_size() {
        assert!(run(&s(&["gen", "--family", "huge"])).is_err());
        assert!(run(&s(&["gen", "--family", "large", "--size", "3k"])).is_err());
        assert!(run(&s(&["gen", "--family", "large", "1"])).is_err());
    }

    #[test]
    fn plan_route_ir_round_trip_through_files() {
        let dir = TestDir::new("roundtrip");
        let circuit_path = dir.path("c1.copack");
        let assignment_path = dir.path("c1.order");

        let text = run(&s(&["gen", "1"])).unwrap();
        fs::write(&circuit_path, text).unwrap();

        let out = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--method",
            "dfa",
            "--out",
            assignment_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("dfa"), "{out}");
        assert!(out.contains("max density"));

        let out = run(&s(&[
            "route",
            circuit_path.to_str().unwrap(),
            assignment_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("fingers:"));
        assert!(out.contains("balanced"));

        let out = run(&s(&[
            "ir",
            circuit_path.to_str().unwrap(),
            assignment_path.to_str().unwrap(),
            "--grid",
            "12",
        ]))
        .unwrap();
        assert!(out.contains("mV"), "{out}");
    }

    /// A plan with trailing spare fingers is read back at the circuit's
    /// finger count, not at its last occupied slot: `ir` solves the ring
    /// the planner placed, `route` draws every finger, and a clean
    /// `replan` prints the planned order.
    #[test]
    fn sparse_plans_are_read_at_the_circuits_width() {
        let dir = TestDir::new("sparse_plan");
        let circuit_path = dir.path("c1.copack");
        let plan_path = dir.path("c1.order");
        let text = run(&s(&["gen", "1"])).unwrap() + "fingers 34\n";
        fs::write(&circuit_path, &text).unwrap();
        let (circuit, path) = (circuit_path.to_str().unwrap(), plan_path.to_str().unwrap());
        let planned = run(&s(&["plan", circuit, "--exchange", "--out", path])).unwrap();
        let order = planned
            .lines()
            .find(|l| l.starts_with("order: "))
            .expect("plan prints its order");
        assert_eq!(order.matches(',').count(), 33, "{order}");
        // The last occupied slot is below 34, so the file alone would
        // size the plan to fewer fingers.
        let (_, parsed) = parse_assignment(&fs::read_to_string(&plan_path).unwrap()).unwrap();
        assert!(parsed.finger_count() < 34, "{}", parsed.finger_count());

        let (_, quadrant) = parse_quadrant(&text).unwrap();
        let mut widened = Assignment::empty(34);
        for (finger, net) in parsed.iter() {
            widened.place(net, finger).unwrap();
        }
        let drop = copack_core::evaluate_ir_map(&quadrant, &widened, &GridSpec::default_chip(48))
            .unwrap()
            .unwrap()
            .max_drop();
        let ir = run(&s(&["ir", circuit, path])).unwrap();
        assert!(
            ir.contains(&format!("max IR-drop {:.3} mV", drop * 1000.0)),
            "{ir}"
        );
        let route = run(&s(&["route", circuit, path])).unwrap();
        let fingers = route
            .lines()
            .find(|l| l.starts_with("fingers: "))
            .expect("route draws the fingers");
        assert_eq!(fingers, order.replacen("order: ", "fingers: ", 1));

        let edits = dir.path("noop.edits");
        fs::write(
            &edits,
            copack_io::write_delta("circuit1", &copack_core::InstanceDelta::default()),
        )
        .unwrap();
        let args = ["replan", circuit, "--prev", path, "--delta"];
        let mut args = s(&args);
        args.push(edits.to_str().unwrap().to_owned());
        let replanned = run(&args).unwrap();
        assert!(replanned.contains(order), "{replanned}");
    }

    #[test]
    fn plan_supports_exchange_and_methods() {
        let dir = TestDir::new("methods");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        for method in ["ifa", "random"] {
            let out = run(&s(&[
                "plan",
                circuit_path.to_str().unwrap(),
                "--method",
                method,
            ]))
            .unwrap();
            assert!(out.contains("max density"), "{method}: {out}");
        }
        let out = run(&s(&["plan", circuit_path.to_str().unwrap(), "--exchange"])).unwrap();
        assert!(out.contains("after exchange"), "{out}");
        assert!(run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--method",
            "magic"
        ]))
        .is_err());
    }

    #[test]
    fn package_planning_is_thread_count_invariant() {
        let dir = TestDir::new("threads");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let plan_with = |threads: &str| {
            run(&s(&[
                "plan",
                circuit_path.to_str().unwrap(),
                "--package",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        let serial = plan_with("1");
        assert!(serial.contains("package plan"), "{serial}");
        assert!(serial.contains("package IR-drop"), "{serial}");
        assert!(serial.contains("order[3]"), "{serial}");
        for threads in ["0", "4"] {
            assert_eq!(serial, plan_with(threads), "--threads {threads}");
        }
    }

    #[test]
    fn portfolio_plans_are_thread_count_invariant() {
        let dir = TestDir::new("portfolio");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let plan_with = |threads: &str| {
            run(&s(&[
                "plan",
                circuit_path.to_str().unwrap(),
                "--exchange",
                "--starts",
                "4",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        let serial = plan_with("1");
        assert!(serial.contains("portfolio K=4 winner start "), "{serial}");
        assert!(serial.contains("after exchange"), "{serial}");
        for threads in ["0", "8"] {
            assert_eq!(serial, plan_with(threads), "--threads {threads}");
        }

        // One start takes the plain exchange path: no portfolio line,
        // byte-identical to omitting --starts entirely.
        let single = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--starts",
            "1",
        ]))
        .unwrap();
        assert!(!single.contains("portfolio"), "{single}");
        assert_eq!(
            single,
            run(&s(&["plan", circuit_path.to_str().unwrap(), "--exchange"])).unwrap()
        );

        assert!(run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--starts",
            "0",
        ]))
        .unwrap_err()
        .contains("--starts"));
    }

    #[test]
    fn portfolio_metrics_render_per_start_sparklines() {
        let dir = TestDir::new("portfolio_metrics");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let out = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--starts",
            "3",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("portfolio K=3"), "{out}");
        for start in ["start 0", "start 1", "start 2"] {
            assert!(out.contains(start), "missing {start}: {out}");
        }
    }

    #[test]
    fn telemetry_flags_do_not_change_the_report() {
        let dir = TestDir::new("telemetry");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let trace_path = dir.path("c1.trace.jsonl");

        let plain = run(&s(&["plan", circuit_path.to_str().unwrap(), "--exchange"])).unwrap();
        let traced = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
        ]))
        .unwrap();

        // The telemetry block is strictly appended: the report itself is
        // byte-identical.
        assert!(traced.starts_with(&plain), "{traced}");
        assert!(traced.contains("proposed"), "{traced}");
        assert!(traced.contains("acceptance "), "{traced}");

        // The trace file holds one JSON object per line and brackets the
        // exchange with run_start/run_end.
        let text = fs::read_to_string(&trace_path).unwrap();
        assert!(text.lines().count() > 2, "{text}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains(r#""ev":"run_start""#), "{text}");
        assert!(text.contains(r#""ev":"run_end""#), "{text}");
    }

    #[test]
    fn package_metrics_summary_is_thread_count_invariant() {
        let dir = TestDir::new("metrics");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let plan_with = |threads: &str| {
            run(&s(&[
                "plan",
                circuit_path.to_str().unwrap(),
                "--package",
                "--metrics",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        let serial = plan_with("1");
        assert!(serial.contains("runs"), "{serial}");
        assert_eq!(serial, plan_with("4"));
    }

    #[test]
    fn unwritable_trace_path_fails_before_the_run() {
        let dir = TestDir::new("badtrace");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let err = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--trace",
            "/nonexistent-dir-for-copack-cli/t.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot open trace file"), "{err}");
        assert!(err.contains("t.jsonl"), "{err}");
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run(&s(&["plan", "/nonexistent/file.copack"])).unwrap_err();
        assert!(err.contains("/nonexistent/file.copack"));
    }

    #[test]
    fn valued_flags_require_values() {
        let err = run(&s(&["gen", "1", "--out"])).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn check_prints_an_all_pass_verdict_table() {
        let dir = TestDir::new("check");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let out = run(&s(&["check", circuit_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("7/7 oracles passed"), "{out}");
        for oracle in copack_verify::ORACLE_NAMES {
            assert!(out.contains(oracle), "{oracle} missing from {out}");
        }
        assert!(!out.contains("FAIL"), "{out}");
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["check", "/nonexistent/f.copack"])).is_err());
    }

    #[test]
    fn check_emits_oracle_events_into_the_trace() {
        let dir = TestDir::new("checktrace");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let trace_path = dir.path("check.jsonl");
        let out = run(&s(&[
            "check",
            circuit_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("7/7"), "{out}");
        let text = fs::read_to_string(&trace_path).unwrap();
        assert_eq!(
            text.matches(r#""ev":"oracle""#).count(),
            copack_verify::ORACLE_NAMES.len(),
            "{text}"
        );
        assert!(text.contains(r#""passed":true"#), "{text}");
    }

    /// Plans circuit 1 into `prev`, returning the written bytes.
    fn plan_previous(dir: &TestDir) -> (std::path::PathBuf, std::path::PathBuf, String) {
        let circuit = dir.path("c1.copack");
        fs::write(&circuit, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let prev = dir.path("c1.order");
        run(&s(&[
            "plan",
            circuit.to_str().unwrap(),
            "--exchange",
            "--out",
            prev.to_str().unwrap(),
        ]))
        .unwrap();
        let prev_bytes = fs::read_to_string(&prev).unwrap();
        (circuit, prev, prev_bytes)
    }

    #[test]
    fn replan_validates_its_arguments() {
        let dir = TestDir::new("replan_args");
        let (circuit, prev, _) = plan_previous(&dir);
        assert!(run(&s(&["replan"]))
            .unwrap_err()
            .contains("replan expects one circuit file"));
        assert!(run(&s(&["replan", circuit.to_str().unwrap()]))
            .unwrap_err()
            .contains("--prev"));
        assert!(run(&s(&[
            "replan",
            circuit.to_str().unwrap(),
            "--prev",
            prev.to_str().unwrap(),
        ]))
        .unwrap_err()
        .contains("--delta"));
    }

    #[test]
    fn replan_reuses_the_previous_plan_bit_for_bit_on_a_clean_delta() {
        let dir = TestDir::new("replan_clean");
        let (circuit, prev, prev_bytes) = plan_previous(&dir);
        let edits = dir.path("noop.edits");
        fs::write(
            &edits,
            copack_io::write_delta("circuit1", &copack_core::InstanceDelta::default()),
        )
        .unwrap();
        let out_path = dir.path("replanned.order");
        let trace_path = dir.path("replan.jsonl");
        let out = run(&s(&[
            "replan",
            circuit.to_str().unwrap(),
            "--prev",
            prev.to_str().unwrap(),
            "--delta",
            edits.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0/1 quadrants dirty"), "{out}");
        assert!(out.contains("previous plan reused"), "{out}");
        // Bit-for-bit reuse of the previous plan file.
        assert_eq!(fs::read_to_string(&out_path).unwrap(), prev_bytes);
        // The trace proves zero annealing work happened: only the
        // replan bookkeeping, no exchange run events.
        let text = fs::read_to_string(&trace_path).unwrap();
        assert!(text.contains(r#""ev":"replan_start""#), "{text}");
        assert!(text.contains(r#""dirty":0"#), "{text}");
        assert!(text.contains(r#""ev":"quadrant_reused""#), "{text}");
        assert!(text.contains(r#""tier":"previous""#), "{text}");
        assert!(!text.contains(r#""ev":"run_start""#), "{text}");
    }

    #[test]
    fn replan_reanneals_a_dirty_quadrant_deterministically() {
        let dir = TestDir::new("replan_dirty");
        let (circuit, prev, _) = plan_previous(&dir);
        // A standard-churn ECO expressed as a diffed delta file.
        let (_, base) = parse_quadrant(&fs::read_to_string(&circuit).unwrap()).unwrap();
        let churned = copack_gen::churn(&base, 7, copack_gen::STANDARD_CHURN).unwrap();
        let qdelta = copack_core::diff_quadrant(&base, &churned);
        assert!(!qdelta.is_empty());
        let delta = copack_core::InstanceDelta {
            quadrants: vec![("circuit1".to_owned(), qdelta)],
        };
        let edits = dir.path("eco.edits");
        fs::write(&edits, copack_io::write_delta("circuit1", &delta)).unwrap();
        let out_path = dir.path("replanned.order");
        let args = s(&[
            "replan",
            circuit.to_str().unwrap(),
            "--prev",
            prev.to_str().unwrap(),
            "--delta",
            edits.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("1/1 quadrants dirty"), "{out}");
        assert!(out.contains("after replan (cost "), "{out}");
        // The written assignment is for the *edited* netlist.
        let replanned = parse_assignment(&fs::read_to_string(&out_path).unwrap())
            .unwrap()
            .1;
        assert_eq!(replanned.finger_count(), churned.finger_count());
        // Deterministic: a second run is byte-identical.
        assert_eq!(run(&args).unwrap(), out);
    }

    #[test]
    fn replan_skips_repair_for_a_delta_whose_edits_cancel_out() {
        let dir = TestDir::new("replan_noop");
        let (circuit, prev, prev_bytes) = plan_previous(&dir);
        // A non-empty edit list that lands back on the base netlist:
        // forward churn edits immediately undone by their reverses.
        let (_, base) = parse_quadrant(&fs::read_to_string(&circuit).unwrap()).unwrap();
        let churned = copack_gen::churn(&base, 7, copack_gen::STANDARD_CHURN).unwrap();
        let qdelta = copack_core::cancelling_delta(&base, &churned);
        assert!(!qdelta.is_empty());
        let delta = copack_core::InstanceDelta {
            quadrants: vec![("circuit1".to_owned(), qdelta)],
        };
        let edits = dir.path("noop.edits");
        fs::write(&edits, copack_io::write_delta("circuit1", &delta)).unwrap();
        let out_path = dir.path("replanned.order");
        let trace_path = dir.path("replan.jsonl");
        let out = run(&s(&[
            "replan",
            circuit.to_str().unwrap(),
            "--prev",
            prev.to_str().unwrap(),
            "--delta",
            edits.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0/1 quadrants dirty"), "{out}");
        assert!(out.contains("previous plan reused"), "{out}");
        assert_eq!(fs::read_to_string(&out_path).unwrap(), prev_bytes);
        let text = fs::read_to_string(&trace_path).unwrap();
        assert!(!text.contains(r#""ev":"run_start""#), "{text}");
    }

    /// The final cost of an `after exchange (cost a -> b)` verb line.
    fn final_cost(out: &str) -> f64 {
        let (_, tail) = out.split_once("after exchange (cost ").unwrap();
        let (_, tail) = tail.split_once("-> ").unwrap();
        let (cost, _) = tail.split_once(')').unwrap();
        cost.trim().parse().unwrap()
    }

    #[test]
    fn a_tuned_profile_never_loses_to_the_default_plan() {
        let dir = TestDir::new("plan_profile");
        let circuit = dir.path("c1.copack");
        fs::write(&circuit, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let profile = dir.path("c1.tune");
        let out = run(&s(&[
            "tune",
            circuit.to_str().unwrap(),
            "--quick",
            "--out",
            profile.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("tuned 1 instances"), "{out}");

        // --profile is an exchange-pass knob.
        let err = run(&s(&[
            "plan",
            circuit.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("requires --exchange"), "{err}");

        let default = run(&s(&["plan", circuit.to_str().unwrap(), "--exchange"])).unwrap();
        let tuned = run(&s(&[
            "plan",
            circuit.to_str().unwrap(),
            "--exchange",
            "--profile",
            profile.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(tuned.contains("tuned profile applied (class "), "{tuned}");
        // Never-worse guarantee on a family member: the winner carries
        // the default point through the final round, and the default
        // point's portfolio subsumes the single-start run.
        assert!(
            final_cost(&tuned) <= final_cost(&default),
            "tuned {tuned} vs default {default}"
        );
    }

    #[test]
    fn tune_emits_byte_identical_profiles_across_threads_and_reruns() {
        let dir = TestDir::new("tune_threads");
        let circuit = dir.path("c1.copack");
        fs::write(&circuit, run(&s(&["gen", "1"])).unwrap()).unwrap();
        let emit = |tag: &str, threads: &str| {
            let path = dir.path(tag);
            run(&s(&[
                "tune",
                circuit.to_str().unwrap(),
                "--quick",
                "--seed",
                "5",
                "--threads",
                threads,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            fs::read_to_string(&path).unwrap()
        };
        let one = emit("a.tune", "1");
        assert_eq!(one, emit("b.tune", "2"));
        assert_eq!(one, emit("c.tune", "1"));
        // The emitted profile is a valid, loadable `.tune` document.
        copack_io::parse_tune(&one).unwrap();
    }

    #[test]
    fn margin_weight_is_validated_and_changes_the_cost_ledger() {
        let dir = TestDir::new("margin");
        let circuit_path = dir.path("c1.copack");
        fs::write(&circuit_path, run(&s(&["gen", "1"])).unwrap()).unwrap();
        assert!(run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--margin-weight",
            "-1",
        ]))
        .unwrap_err()
        .contains("--margin-weight"));
        // Weight 0 (default) is byte-identical to omitting the flag.
        let plain = run(&s(&["plan", circuit_path.to_str().unwrap(), "--exchange"])).unwrap();
        let zero = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--margin-weight",
            "0",
        ]))
        .unwrap();
        assert_eq!(plain, zero);
        // A non-zero weight changes the annealer's cost surface.
        let weighted = run(&s(&[
            "plan",
            circuit_path.to_str().unwrap(),
            "--exchange",
            "--margin-weight",
            "5.0",
        ]))
        .unwrap();
        assert_ne!(plain, weighted);
    }

    #[test]
    fn fuzz_bounded_by_cases_is_clean_and_deterministic() {
        let a = run(&s(&["fuzz", "--seed", "1", "--cases", "3"])).unwrap();
        assert!(a.contains("3 cases"), "{a}");
        assert!(a.contains("0 violations"), "{a}");
        let b = run(&s(&["fuzz", "--seed", "1", "--cases", "3"])).unwrap();
        assert_eq!(a, b);
        assert!(run(&s(&["fuzz", "extra"])).is_err());
        assert!(run(&s(&["fuzz", "--cases", "zebra"])).is_err());
    }
}
