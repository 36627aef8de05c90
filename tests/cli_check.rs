//! `apusim check`, the one check front end, end to end: a name filter
//! checks only the matching shipped workloads and prints exactly the
//! harness's JSON report, and a filter that matches nothing is a usage
//! error.

use mi300a_zerocopy::mapcheck::{check_all, render_json};
use std::process::Command;

fn apusim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apusim"))
}

#[test]
fn check_json_of_one_workload_equals_the_harness_report() {
    let out = apusim()
        .args(["check", "--json", "ep"])
        .output()
        .expect("spawn apusim");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let cells = check_all(Some("ep")).expect("capture succeeds");
    assert!(!cells.is_empty());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert_eq!(stdout, format!("{}\n", render_json(&cells)));
}

#[test]
fn check_of_an_unmatched_name_exits_2() {
    let out = apusim()
        .args(["check", "no-such-workload"])
        .output()
        .expect("spawn apusim");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}
