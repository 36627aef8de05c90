//! Single-file `apusim replay` runs the same cell as the batch path: for
//! every elide mode, the makespan, memory digest and ledger it prints equal
//! `execute` on the same request, and a configuration the capture does not
//! admit is refused by the request gate before any replay starts.

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
    assert!(stderr.contains("RawAccessNeedsXnack"), "{stderr}");
    assert!(!stderr.contains("GpuFatalFault"), "{stderr}");
}
