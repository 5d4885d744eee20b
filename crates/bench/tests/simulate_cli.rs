//! The `simulate` CLI reports rejected configurations and failed runs
//! as typed errors with a non-zero exit status, never as a panic.

use std::path::PathBuf;
use std::process::Command;

/// Runs `simulate` with `args` and asserts its exit code and that it
/// did not panic; returns its stderr.
fn expect_exit(args: &[&str], code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn indivisible_ways_are_a_config_error() {
    let err = expect_exit(&["crc", "--scale", "tiny", "--ways", "3"], 2);
    assert!(err.contains("64 entries x 3 ways"), "{err}");
}

#[test]
fn zero_entries_are_a_config_error() {
    let err = expect_exit(&["crc", "--scale", "tiny", "--entries", "0"], 2);
    assert!(err.contains("0 entries x 2 ways"), "{err}");
}

#[test]
fn undersized_two_level_l1_is_a_config_error() {
    let args = [
        "crc",
        "--scale",
        "tiny",
        "--storage",
        "two-level",
        "--entries",
        "0",
    ];
    let err = expect_exit(&args, 2);
    assert!(err.contains("two-level L1"), "{err}");
}

#[test]
fn faulting_program_is_a_failed_run() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("simulate_cli_fault.s");
    std::fs::write(&path, "lui r1, 0x7fff\nld r2, 0(r1)\nhalt\n").unwrap();
    let err = expect_exit(&[path.to_str().unwrap()], 1);
    assert!(err.contains("functional execution faulted"), "{err}");
}

#[test]
fn valid_run_succeeds() {
    expect_exit(&["crc", "--scale", "tiny"], 0);
}
