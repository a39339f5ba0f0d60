//! `repro` usage errors: a bad request exits 2 with a one-line message,
//! never a panic and never a silent success.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(message), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
}

#[test]
fn zero_iterations_is_a_usage_error() {
    assert_usage_error(&["trace", "--iters", "0"], "--iters must be at least 1");
}

#[test]
fn why_mtx_outside_the_run_is_a_usage_error() {
    assert_usage_error(
        &["why", "--mtx", "99999"],
        "--mtx 99999 is not in the run (MTXs 0..=",
    );
}
