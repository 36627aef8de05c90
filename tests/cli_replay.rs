//! Single-file `apusim replay` runs the same cell as the batch path: for
//! every elide mode, the makespan, memory digest and ledger it prints equal
//! `execute` on the same request, and a configuration the capture does not
//! admit is refused by the request gate before any replay starts. Errors
//! are one line: a missing capture exits 1 naming its path, a malformed
//! option value exits 2 naming the flag and the value.

use mi300a_zerocopy::batch::{execute, ElideKind, SweepRequest};
use mi300a_zerocopy::mapcheck::capture_workload;
use mi300a_zerocopy::omp::{MapIr, RuntimeConfig};
use mi300a_zerocopy::workloads::{OpenFoamMini, Stream, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

/// Capture `w` into the test scratch directory; returns the file path and
/// the capture itself.
fn write_capture(w: &dyn Workload, file: &str) -> (PathBuf, Arc<MapIr>) {
    let ir = capture_workload(w, 1).expect("capture");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, ir.to_text()).expect("write capture");
    (path, Arc::new(ir))
}

fn replay(path: &Path, config: &str, elide: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apusim"))
        .arg("replay")
        .arg(path)
        .args(["--config", config, "--elide", elide])
        .output()
        .expect("spawn apusim")
}

#[test]
fn single_file_replay_matches_the_batch_cell_in_every_elide_mode() {
    let (path, ir) = write_capture(&Stream::scaled(0.02), "cli_replay_stream.mapir");
    for elide in ElideKind::ALL {
        let out = replay(&path, "copy", elide.token());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--elide {elide}: {out:?}");
        let req = SweepRequest::builder("stream", Arc::clone(&ir))
            .config(RuntimeConfig::LegacyCopy)
            .elide(elide)
            .build()
            .unwrap();
        let cell = execute(&req).unwrap();
        let line = |prefix: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("--elide {elide}: no '{prefix}' line in {stdout}"))
                .to_string()
        };
        assert_eq!(
            line("makespan:"),
            format!("makespan: {}", cell.makespan),
            "--elide {elide}"
        );
        assert_eq!(
            line("memory digest:"),
            format!("memory digest: {:#018x}", cell.memory_digest),
            "--elide {elide}"
        );
        assert!(
            stdout.contains(&cell.ledger.to_string()),
            "--elide {elide}: ledger differs from the batch cell's:\n{stdout}\n{}",
            cell.ledger
        );
    }
}

#[test]
fn single_file_replay_refuses_an_inadmissible_config_before_replay() {
    let (path, _) = write_capture(&OpenFoamMini::scaled(0.02), "cli_replay_openfoam.mapir");
    let out = replay(&path, "copy", "off");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The request gate's `RawAccessNeedsXnack`, in its display form.
    assert!(
        stderr.contains("config 'copy' runs without XNACK (MC005)"),
        "{stderr}"
    );
    assert!(!stderr.contains("GpuFatalFault"), "{stderr}");
}

#[test]
fn a_missing_capture_exits_1_with_one_line_naming_its_path() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_replay_missing.mapir");
    let _ = std::fs::remove_file(&path);
    let out = replay(&path, "copy", "off");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with(&format!("apusim: {}: ", path.display())),
        "{stderr}"
    );
    assert!(!stderr.contains("Os {"), "{stderr}");
}

#[test]
fn a_malformed_option_value_exits_2_naming_the_flag_and_the_value() {
    // A zero thread count or size is malformed too: rejected while
    // parsing, before any run starts.
    // So is a scale that names no positive size, and a zero admission
    // bound: `serve` exits before it binds (its socket's directory does
    // not exist).
    let cases: [(&[&str], &str); 9] = [
        (
            &["run", "stencil", "--threads", "x"],
            "bad value 'x' for --threads",
        ),
        (
            &["run", "stencil", "--threads", "0"],
            "bad value '0' for --threads",
        ),
        (&["sweep", "--threads", "0"], "bad value '0' for --threads"),
        (&["sweep", "--sizes", "0"], "bad value '0' for --sizes"),
        (
            &["run", "stream", "--scale", "nan"],
            "bad value 'nan' for --scale",
        ),
        (
            &["run", "stream", "--scale", "0"],
            "bad value '0' for --scale",
        ),
        (
            &["run", "stream", "--scale", "-1"],
            "bad value '-1' for --scale",
        ),
        (
            &["run", "stream", "--scale", "inf"],
            "bad value 'inf' for --scale",
        ),
        (
            &[
                "serve",
                "--socket",
                "no-such-dir/s.sock",
                "--max-inflight",
                "0",
            ],
            "bad value '0' for --max-inflight",
        ),
    ];
    for (args, diagnostic) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_apusim"))
            .args(args)
            .output()
            .expect("spawn apusim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let mut lines = stderr.lines();
        assert_eq!(
            lines.next(),
            Some(format!("apusim: {diagnostic}").as_str()),
            "{stderr}"
        );
        assert_eq!(lines.next(), Some("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

#[test]
fn a_capture_no_address_space_holds_exits_1_with_one_line() {
    // An allocation of u64::MAX bytes is out of memory; a range that ends
    // past the address space is no range, and parsing names its line.
    let cases = [
        ("0 host_alloc 0 18446744073709551615", "out of HBM"),
        ("0 host_alloc 4096 18446744073709551615", "line 2: "),
    ];
    for (record, diagnostic) in cases {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_replay_huge.mapir");
        std::fs::write(&path, format!("mapir v1\n{record}\n")).expect("write capture");
        let out = replay(&path, "copy", "off");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{record}: {out:?}");
        assert_eq!(stderr.lines().count(), 1, "{record}: {stderr}");
        assert!(stderr.contains(diagnostic), "{record}: {stderr}");
    }
}

#[test]
fn a_missing_operand_exits_2_naming_what_is_missing() {
    let cases: [&[&str]; 7] = [
        &[],
        &["run"],
        &["replay"],
        &["optimize"],
        &["request"],
        &["cache"],
        &["run", "bogus"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_apusim"))
            .args(args)
            .output()
            .expect("spawn apusim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(first.starts_with("apusim: "), "{args:?}: {stderr}");
        assert_eq!(lines.next(), Some("usage:"), "{args:?}: {stderr}");
    }
}
