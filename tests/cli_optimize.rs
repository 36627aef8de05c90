//! `apusim optimize` end to end: a shipped capture is rewritten with every
//! admissible configuration's equivalence contract holding, the rewrite is
//! a capture `apusim replay` accepts, and an ill-formed program is refused
//! with exit 2 and never rewritten.

use mi300a_zerocopy::mapcheck::{admissible_configs, capture_workload};
use mi300a_zerocopy::omp::MapIr;
use mi300a_zerocopy::workloads::Stream;
use std::path::PathBuf;
use std::process::Command;

fn tmp_file(file: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    let _ = std::fs::remove_file(&path);
    path
}

fn apusim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apusim"))
}

#[test]
fn optimize_rewrites_a_capture_that_replays() {
    let input = tmp_file("cli_optimize_in.mapir");
    let output = tmp_file("cli_optimize_out.mapir");
    let ir = capture_workload(&Stream::scaled(0.05), 1).expect("capture");
    std::fs::write(&input, ir.to_text()).expect("write capture");

    let out = apusim()
        .arg("optimize")
        .arg(&input)
        .arg("-o")
        .arg(&output)
        .arg("--report")
        .output()
        .expect("spawn apusim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(!stdout.contains("BROKEN"), "{stdout}");
    let configs = admissible_configs(&ir);
    assert!(!configs.is_empty());
    for config in configs {
        let verdict = format!("  {:<6} ok  ", config.token());
        assert!(
            stdout.lines().any(|l| l.starts_with(&verdict)),
            "no `ok` verdict for {}:\n{stdout}",
            config.token()
        );
    }

    let rewritten = std::fs::read_to_string(&output).expect("optimized capture written");
    MapIr::parse(&rewritten).expect("optimized capture parses");
    let out = apusim()
        .arg("replay")
        .arg(&input)
        .arg(&output)
        .args(["--config", "copy", "--cache", "off"])
        .output()
        .expect("spawn apusim");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn optimize_refuses_an_ill_formed_program_without_writing() {
    let input = tmp_file("cli_optimize_leak.mapir");
    let output = tmp_file("cli_optimize_leak_out.mapir");
    // An MC001 leak: entered, never exited.
    std::fs::write(
        &input,
        "mapir v1\n0 host_alloc 4096 4096\n0 host_write 4096 4096\n0 enter to 0 4096 4096\n",
    )
    .expect("write capture");
    let out = apusim()
        .arg("optimize")
        .arg(&input)
        .arg("-o")
        .arg(&output)
        .output()
        .expect("spawn apusim");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!output.exists(), "a refused program must not be rewritten");
}
