//! Command-line contract of the `figures` binary: bad input exits with
//! status 2 and a usage line instead of being ignored or panicking, and
//! a known target still runs and writes its CSV.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn the figures binary")
}

fn assert_usage_error(args: &[&str]) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "figures {args:?}: {stderr}");
    assert!(
        stderr.contains("usage: figures") && stderr.contains("extrapolate|scale|all"),
        "figures {args:?} must print the usage line: {stderr}"
    );
}

#[test]
fn unknown_target_is_a_usage_error() {
    assert_usage_error(&["serve"]);
    assert_usage_error(&["fig11"]);
}

#[test]
fn unknown_flag_or_missing_value_is_a_usage_error() {
    assert_usage_error(&["--max-nodes"]);
    assert_usage_error(&["fig4", "--max-nodes", "many"]);
    assert_usage_error(&["--no-bench"]);
}

#[test]
fn known_target_runs_and_writes_its_csv() {
    let dir = std::env::temp_dir().join(format!("figures-cli-{}", std::process::id()));
    let out = figures(&["extrapolate", "--out-dir", dir.to_str().expect("utf-8 temp path")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("extrapolate.csv").is_file(), "extrapolate.csv not written");
    std::fs::remove_dir_all(&dir).expect("remove the scratch output directory");
}
