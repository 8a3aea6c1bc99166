//! End-to-end tests of the compiled `copack` binary (not just the library
//! entry point): real process, real files, real exit codes.

use std::path::PathBuf;
use std::process::Command;

fn copack(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_copack"))
        .args(args)
        .output()
        .expect("binary spawns")
}

/// A per-test scratch directory, unique across concurrently running test
/// binaries (pid) and across tests within this binary (tag), removed when
/// the test ends.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("copack_bin_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn help_exits_zero() {
    let out = copack(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_stderr() {
    let out = copack(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    assert!(out.stdout.is_empty());
}

#[test]
fn full_workflow_through_the_binary() {
    let dir = TestDir::new("e2e");
    let circuit = dir.path("c1.copack");
    let order = dir.path("c1.order");

    let out = copack(&["gen", "1", "--out", circuit.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    let out = copack(&[
        "plan",
        circuit.to_str().unwrap(),
        "--out",
        order.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("max density"));

    let out = copack(&["route", circuit.to_str().unwrap(), order.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("balanced"));

    let out = copack(&[
        "ir",
        circuit.to_str().unwrap(),
        order.to_str().unwrap(),
        "--grid",
        "12",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mV"));

    let out = copack(&["check", circuit.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("7/7 oracles passed"));
}

#[test]
fn fuzz_through_the_binary_is_clean() {
    let out = copack(&["fuzz", "--seed", "1", "--cases", "2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 violations"));
}

#[test]
fn missing_file_exits_nonzero() {
    let out = copack(&["plan", "/definitely/not/a/file.copack"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("file.copack"));
}

/// A net whose tier exceeds ψ is an input error: `check` and a stacked
/// `plan --exchange` exit 1 with a one-line `error:`, never a panic
/// (exit 101) — also for tiers past the 64-bit tier codes.
#[test]
fn tiers_above_psi_exit_with_an_error_not_a_panic() {
    let dir = TestDir::new("tiers");
    let circuit = dir.path("c1.copack");
    let out = copack(&["gen", "1", "--out", circuit.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&circuit).unwrap();
    assert!(
        text.contains("\nnet 4 power\n"),
        "circuit 1 has power net 4"
    );
    for tier in [3u32, 200] {
        let bad = dir.path(&format!("tier{tier}.copack"));
        let edited = text.replace("\nnet 4 power\n", &format!("\nnet 4 power tier={tier}\n"));
        std::fs::write(&bad, edited).unwrap();
        let bad = bad.to_str().unwrap();
        for args in [
            vec!["check", bad, "--psi", "2"],
            vec!["plan", bad, "--exchange", "--psi", "2"],
        ] {
            let out = copack(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("tier {tier} exceeds the stack's 2 tiers")),
                "{args:?}: {stderr}"
            );
        }
    }
}
