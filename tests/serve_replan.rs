//! The daemon's incremental-replan path, end to end against the real
//! `copack serve` binary: a replan request answers untouched quadrants
//! from the tiered cache (memory or disk), runs workers only on the
//! dirty set, folds the reuse rate into `--metrics`, and survives a
//! `SIGKILL` between the original submission and the replan — the
//! successor daemon reproduces the replan byte-identically from the
//! warm disk store.

mod serve_harness;

use copack_core::diff_quadrant;
use copack_gen::{churn, STANDARD_CHURN};
use copack_io::parse_quadrant;
use copack_serve::{JobClass, JobSpec};
use serve_harness::{circuit_text, Daemon, Scratch};

/// A planning spec with the exchange on (the only mode where `prev`
/// can matter).
fn exchange_spec(circuit: String) -> JobSpec {
    let mut spec = JobSpec::new(circuit);
    spec.exchange = true;
    spec
}

/// An ECO'd copy of circuit `index` under the standard churn, as
/// circuit-file text. The delta is guaranteed non-empty.
fn churned_circuit_text(index: usize, seed: u64) -> String {
    let (name, base) = parse_quadrant(&circuit_text(index)).expect("circuit parses");
    let edited = churn(&base, seed, STANDARD_CHURN).expect("churn applies");
    assert!(
        !diff_quadrant(&base, &edited).is_empty(),
        "the churn must actually edit the instance"
    );
    copack_io::write_quadrant(&name, &edited)
}

#[test]
fn a_replan_reuses_untouched_quadrants_and_recomputes_the_dirty_one() {
    let scratch = Scratch::new("replan_reuse");
    let daemon = Daemon::spawn(&scratch, "a", &["--workers", "2", "--metrics"]);
    let mut client = daemon.client();

    // The original submission: three quadrants planned as a batch.
    let specs: Vec<JobSpec> = (1..=3).map(|i| exchange_spec(circuit_text(i))).collect();
    let first = client
        .batch(&specs, JobClass::Interactive, |_, _| {})
        .expect("original batch plans");
    assert_eq!(first.summary.failed, 0);
    let prev_of_2 = first
        .items
        .iter()
        .find(|(seq, _)| *seq == 1)
        .and_then(|(_, r)| r.as_ref().ok())
        .expect("circuit 2 planned")
        .assignment
        .clone();

    // The ECO touches only circuit 2: its replan spec carries the
    // edited circuit and the previous plan; circuits 1 and 3 resubmit
    // unchanged specs.
    let mut dirty = exchange_spec(churned_circuit_text(2, 7));
    dirty.prev = Some(prev_of_2);
    let replan_specs = vec![specs[0].clone(), dirty, specs[2].clone()];
    let outcome = client
        .replan(&replan_specs, JobClass::Interactive, |_, _| {})
        .expect("replan streams");
    assert_eq!(outcome.summary.failed, 0);

    for (seq, result) in &outcome.items {
        let plan = result.as_ref().expect("replan item succeeds");
        match seq {
            // Untouched quadrants answer from the in-memory tier —
            // no worker ran for them.
            0 | 2 => assert_eq!(plan.cache, "hit", "seq {seq} should be reused"),
            1 => {
                assert_eq!(plan.cache, "miss", "the dirty quadrant recomputes");
                assert!(
                    plan.report.contains("after replan"),
                    "the dirty quadrant warm-starts from prev: {}",
                    plan.report
                );
            }
            other => panic!("unexpected seq {other}"),
        }
    }

    // The daemon's closing --metrics block reports the reuse rate.
    let summary = daemon.shutdown();
    assert!(
        summary.contains("replan requests 1  quadrants 3  reused 2 (reuse-rate 66.7%)"),
        "metrics report the reuse rate: {summary}"
    );
}

#[test]
fn a_replan_of_a_portfolio_winner_answers_alike_on_its_planner_and_a_fresh_daemon() {
    let scratch = Scratch::new("replan_winner");
    let trace_a = scratch.path("a.jsonl");
    let trace_b = scratch.path("b.jsonl");

    // Daemon A plans circuit 2 as a K=4 portfolio.
    let mut portfolio = exchange_spec(circuit_text(2));
    portfolio.starts = 4;
    let daemon_a = Daemon::spawn(
        &scratch,
        "a",
        &["--workers", "1", "--trace", trace_a.to_str().unwrap()],
    );
    let mut client = daemon_a.client();
    let won = client.plan(&portfolio).expect("portfolio plans");
    assert!(won.report.contains("portfolio K=4"), "{}", won.report);

    // A warm refinement of the same quadrant against that winner: the
    // prev hash changes the cache key, so the worker runs and
    // warm-starts from the parsed plan text.
    let mut refine = portfolio.clone();
    refine.prev = Some(won.assignment.clone());
    let on_a = client.plan(&refine).expect("replan on daemon A");
    assert_eq!(on_a.cache, "miss");
    drop(client);
    let stdout_a = daemon_a.shutdown();
    assert!(stdout_a.contains("wrote "), "{stdout_a}");
    let text_a = std::fs::read_to_string(&trace_a).expect("trace a");
    assert!(
        text_a.contains(r#""ev":"quadrant_warmed","name":"circuit2""#),
        "daemon A warm-starts the replan: {text_a}"
    );

    // A fresh daemon that never planned the winner must land on the
    // same bytes.
    let daemon_b = Daemon::spawn(
        &scratch,
        "b",
        &["--workers", "1", "--trace", trace_b.to_str().unwrap()],
    );
    let mut client = daemon_b.client();
    let on_b = client.plan(&refine).expect("replan on daemon B");
    assert_eq!(on_b.cache, "miss");
    assert_eq!(on_b.assignment, on_a.assignment);
    assert_eq!(on_b.report, on_a.report);
    drop(client);
    daemon_b.shutdown();
    let text_b = std::fs::read_to_string(&trace_b).expect("trace b");
    assert!(
        text_b.contains(r#""ev":"quadrant_warmed","name":"circuit2""#),
        "daemon B warm-starts the replan: {text_b}"
    );
}

#[test]
fn a_sigkill_between_submit_and_replan_replays_byte_identically_from_disk() {
    let scratch = Scratch::new("replan_recovery");
    let cache_dir = scratch.path("cache");
    let cache_flag = cache_dir.to_string_lossy().into_owned();

    let specs: Vec<JobSpec> = (1..=3).map(|i| exchange_spec(circuit_text(i))).collect();
    let mut dirty = exchange_spec(churned_circuit_text(2, 11));

    // Daemon A plans the original batch and the reference replan, then
    // dies by SIGKILL — nothing survives except the disk store.
    let first = Daemon::spawn(
        &scratch,
        "a",
        &["--workers", "1", "--cache-dir", &cache_flag],
    );
    let mut client = first.client();
    let original = client
        .batch(&specs, JobClass::Interactive, |_, _| {})
        .expect("original batch plans");
    assert_eq!(original.summary.failed, 0);
    dirty.prev = Some(
        original
            .items
            .iter()
            .find(|(seq, _)| *seq == 1)
            .and_then(|(_, r)| r.as_ref().ok())
            .expect("circuit 2 planned")
            .assignment
            .clone(),
    );
    let replan_specs = vec![specs[0].clone(), dirty, specs[2].clone()];
    let reference = client
        .replan(&replan_specs, JobClass::Interactive, |_, _| {})
        .expect("reference replan streams");
    assert_eq!(reference.summary.failed, 0);
    drop(client);
    first.kill9();

    // Daemon B on the same store: the identical replan request is
    // answered entirely from disk, byte-for-byte the same.
    let second = Daemon::spawn(
        &scratch,
        "b",
        &["--workers", "1", "--cache-dir", &cache_flag],
    );
    let mut client = second.client();
    let replayed = client
        .replan(&replan_specs, JobClass::Interactive, |_, _| {})
        .expect("replayed replan streams");
    assert_eq!(replayed.summary.failed, 0);
    assert_eq!(replayed.items.len(), reference.items.len());
    for (seq, result) in &replayed.items {
        let plan = result.as_ref().expect("replayed item succeeds");
        assert_eq!(plan.cache, "disk", "seq {seq} answers from the warm store");
        let before = reference
            .items
            .iter()
            .find(|(s, _)| s == seq)
            .and_then(|(_, r)| r.as_ref().ok())
            .expect("reference item succeeded");
        assert_eq!(plan.assignment, before.assignment, "seq {seq} bytes");
        assert_eq!(plan.report, before.report, "seq {seq} report");
    }

    let status = client.status().expect("status");
    assert_eq!(status.disk_hits, 3, "every replan item was a disk hit");
}
