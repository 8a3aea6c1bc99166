//! End-to-end coverage for the serving verbs: `copack serve`, `submit`,
//! `batch`, and `shutdown`, driven through the same `cli::run` entry
//! point the binary uses.
//!
//! The acceptance property lives here: a plan served by the daemon is
//! byte-identical to `copack plan --out` run locally, and serving the
//! same instance twice answers the second request from the cache.

use copack::cli;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

/// Per-test scratch directory (same idiom as the cli unit tests).
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("copack_serve_cli_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Starts `copack serve` on an ephemeral port in a background thread and
/// returns the daemon's address plus the join handle for its output.
fn start_daemon(
    dir: &TestDir,
    tag: &str,
    extra: &[&str],
) -> (String, std::thread::JoinHandle<Result<String, String>>) {
    let port_file = dir.path(&format!("port_{tag}.txt"));
    let mut args = s(&["serve", "--addr", "127.0.0.1:0", "--port-file", &port_file]);
    args.extend(s(extra));
    let handle = std::thread::spawn(move || cli::run(&args));

    let deadline = Instant::now() + Duration::from_secs(5);
    let port = loop {
        if let Ok(text) = fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                break port;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    (format!("127.0.0.1:{port}"), handle)
}

#[test]
fn served_plans_are_byte_identical_to_local_plans_and_repeat_as_cache_hits() {
    let dir = TestDir::new("identity");
    let circuit = dir.path("circuit1.copack");
    cli::run(&s(&["gen", "1", "--out", &circuit])).expect("gen writes the circuit");

    let (addr, daemon) = start_daemon(&dir, "identity", &["--workers", "2", "--metrics"]);

    // The same job three ways: locally, served fresh, served repeated.
    let local_order = dir.path("local.order");
    cli::run(&s(&["plan", &circuit, "--exchange", "--out", &local_order])).expect("local plan");

    let first_order = dir.path("first.order");
    let first = cli::run(&s(&[
        "submit",
        &circuit,
        "--exchange",
        "--addr",
        &addr,
        "--out",
        &first_order,
    ]))
    .expect("first submit");
    assert!(first.contains("cache miss"), "fresh job executes: {first}");

    let second_order = dir.path("second.order");
    let second = cli::run(&s(&[
        "submit",
        &circuit,
        "--exchange",
        "--addr",
        &addr,
        "--out",
        &second_order,
    ]))
    .expect("second submit");
    assert!(
        second.contains("cache hit"),
        "repeat is answered from cache: {second}"
    );

    // Determinism across the service boundary, at the byte level.
    let local_bytes = fs::read(&local_order).unwrap();
    assert_eq!(fs::read(&first_order).unwrap(), local_bytes);
    assert_eq!(fs::read(&second_order).unwrap(), local_bytes);

    let shutdown = cli::run(&s(&["shutdown", "--addr", &addr])).expect("shutdown");
    assert!(shutdown.contains("draining"));

    let summary = daemon
        .join()
        .expect("no panic")
        .expect("daemon exits cleanly");
    assert!(summary.contains("served 2 jobs"), "summary: {summary}");
    assert!(summary.contains("1 cache hits"), "summary: {summary}");
    // --metrics renders the pool block.
    assert!(summary.contains("hit-rate"), "summary: {summary}");
    assert!(summary.contains("latency p50"), "summary: {summary}");

    // Across the planning flags, on a second daemon: `plan` prints the
    // report `submit` returns, line for line, and writes the same order.
    let (addr, daemon) = start_daemon(&dir, "flags", &["--workers", "2"]);
    let flag_sets: [&[&str]; 6] = [
        &["--method", "ifa"],
        &["--method", "random"],
        &["--psi", "4"],
        &["--starts", "4", "--portfolio-mode", "race"],
        &["--starts", "4", "--portfolio-mode", "coop"],
        &["--margin-weight", "0.5"],
    ];
    for flags in flag_sets {
        let (local_order, served_order) = (dir.path("local.order"), dir.path("served.order"));
        let with = |verb: &str, order: &str, extra: &[&str]| {
            let mut args = s(&[verb, &circuit, "--exchange", "--out", order]);
            args.extend(s(flags));
            args.extend(s(extra));
            cli::run(&args).unwrap_or_else(|e| panic!("{verb} {flags:?}: {e}"))
        };
        let local = with("plan", &local_order, &[]);
        let served = with("submit", &served_order, &["--addr", &addr]);
        assert_eq!(
            report_lines(&local),
            report_lines(&served),
            "{flags:?}: {local} vs {served}"
        );
        assert_eq!(
            fs::read(&local_order).unwrap(),
            fs::read(&served_order).unwrap(),
            "{flags:?}"
        );
    }

    // A dirty `replan` prints, after its dirty-count line, the report
    // `submit --prev` returns for the edited circuit.
    let prev = dir.path("prev.order");
    cli::run(&s(&["plan", &circuit, "--exchange", "--out", &prev])).expect("previous plan");
    let (_, base) = copack::io::parse_quadrant(&fs::read_to_string(&circuit).unwrap()).unwrap();
    let edited = copack::gen::churn(&base, 7, copack::gen::STANDARD_CHURN).unwrap();
    let delta = copack::core::InstanceDelta {
        quadrants: vec![(
            "circuit1".to_owned(),
            copack::core::diff_quadrant(&base, &edited),
        )],
    };
    let (edits, edited_circuit) = (dir.path("eco.edits"), dir.path("edited.copack"));
    fs::write(&edits, copack::io::write_delta("circuit1", &delta)).unwrap();
    fs::write(
        &edited_circuit,
        copack::io::write_quadrant("circuit1", &edited),
    )
    .unwrap();
    let (replanned, served_order) = (dir.path("replanned.order"), dir.path("served.order"));
    let replan = cli::run(&s(&[
        "replan", &circuit, "--prev", &prev, "--delta", &edits, "--out", &replanned,
    ]))
    .expect("replan");
    let served = cli::run(&s(&[
        "submit",
        &edited_circuit,
        "--exchange",
        "--prev",
        &prev,
        "--addr",
        &addr,
        "--out",
        &served_order,
    ]))
    .expect("submit --prev");
    let (dirty, report) = replan
        .split_once('\n')
        .expect("a dirty-count line, then the report");
    assert_eq!(dirty, "circuit1: replan 1/1 quadrants dirty");
    assert_eq!(report_lines(report), report_lines(&served), "{replan}");
    assert_eq!(
        fs::read(&replanned).unwrap(),
        fs::read(&served_order).unwrap()
    );

    cli::run(&s(&["shutdown", "--addr", &addr])).expect("shutdown");
    daemon
        .join()
        .expect("no panic")
        .expect("daemon exits cleanly");
}

/// The plan report lines of a `plan`, `replan` or `submit` output:
/// without `submit`'s `cache …` line and the `wrote …` lines.
fn report_lines(out: &str) -> Vec<&str> {
    out.lines()
        .filter(|line| !line.starts_with("wrote ") && !line.contains(": cache "))
        .collect()
}

#[test]
fn batch_prints_a_verdict_table_and_propagates_failures_as_nonzero_exit() {
    let dir = TestDir::new("batch");
    let jobs = dir.path("jobs");
    fs::create_dir_all(&jobs).unwrap();
    cli::run(&s(&["gen", "1", "--out", &dir.path("jobs/a_good.copack")])).expect("gen");
    cli::run(&s(&["gen", "2", "--out", &dir.path("jobs/b_good.copack")])).expect("gen");

    let (addr, daemon) = start_daemon(&dir, "batch", &["--workers", "2"]);

    // All-good directory: Ok, all PASS, check-style table shape.
    let table = cli::run(&s(&["batch", &jobs, "--addr", &addr])).expect("all jobs pass");
    assert!(table.contains("2/2 jobs passed"), "table: {table}");
    assert!(table.contains("job"), "has a header: {table}");
    assert!(table.contains("verdict"), "has a header: {table}");
    assert!(table.contains("PASS"), "table: {table}");
    assert!(
        table.contains("cache miss"),
        "details carry cache state: {table}"
    );
    assert!(!table.contains("FAIL"), "table: {table}");

    // Add a circuit that cannot parse: batch must return Err (nonzero
    // exit through the binary) and mark exactly that job FAIL.
    fs::write(dir.path("jobs/c_bad.copack"), "quadrant broken\nrow x y\n").unwrap();
    let table = cli::run(&s(&["batch", &jobs, "--addr", &addr]))
        .expect_err("a failing job fails the batch");
    assert!(table.contains("2/3 jobs passed"), "table: {table}");
    assert!(table.contains("c_bad.copack"), "table: {table}");
    assert!(table.contains("FAIL"), "table: {table}");
    assert!(
        table.contains("bad_request"),
        "typed error in detail: {table}"
    );
    // The good jobs are now cache hits — still PASS.
    assert!(table.contains("cache hit"), "table: {table}");

    cli::run(&s(&["shutdown", "--addr", &addr])).expect("shutdown");
    daemon
        .join()
        .expect("no panic")
        .expect("daemon exits cleanly");
}

#[test]
fn client_verbs_fail_cleanly_without_a_daemon() {
    let dir = TestDir::new("nodaemon");
    let circuit = dir.path("c.copack");
    cli::run(&s(&["gen", "1", "--out", &circuit])).expect("gen");

    // Port 9 (discard) on localhost is essentially never listening.
    for args in [
        vec!["submit", circuit.as_str(), "--addr", "127.0.0.1:9"],
        vec!["shutdown", "--addr", "127.0.0.1:9"],
    ] {
        let err = cli::run(&s(&args)).expect_err("no daemon to talk to");
        assert!(err.contains("no daemon at"), "error: {err}");
    }
}
