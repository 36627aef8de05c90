//! The `repro` binary end to end: a quick pass with the elision delta and
//! the attribution profile writes every artifact as CSV, and an unknown
//! argument is a usage error.

use std::path::PathBuf;
use std::process::Command;

/// Every CSV `repro --quick --elide --profile --csv DIR` writes.
const CSVS: [&str; 14] = [
    "ablation_eager_maps.csv",
    "ablation_page_size.csv",
    "ablation_streaming.csv",
    "fig3_s2.csv",
    "fig3_s32.csv",
    "fig3_s8.csv",
    "fig4.csv",
    "profile_kernels.csv",
    "profile_sites.csv",
    "sweep.csv",
    "table1.csv",
    "table2.csv",
    "table3.csv",
    "table3_elision.csv",
];

#[test]
fn quick_pass_writes_every_artifact_as_csv() {
    // A fresh working directory: the sweep's result cache lands there too.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_repro_quick");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--elide", "--profile", "--csv", "csv"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());

    let mut written: Vec<String> = std::fs::read_dir(dir.join("csv"))
        .expect("csv dir written")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, CSVS);
    // With --csv the profiles go into DIR, not the working directory.
    assert!(!dir.join("profile_sites.csv").exists());

    let header = |name: &str| {
        let csv = std::fs::read_to_string(dir.join("csv").join(name)).expect("read csv");
        csv.lines().next().unwrap_or_default().to_string()
    };
    assert_eq!(
        header("profile_sites.csv"),
        "workload,config,addr,len,maps,allocs,copies,bytes,elided,\
         mm_alloc_us,mm_copy_us,mm_free_us,mm_prefault_us,mm_map_us,mm_saved_us,mm_total_us"
    );
    assert_eq!(
        header("profile_kernels.csv"),
        "workload,config,kernel,launches,compute_us,fault_stall_us,tlb_stall_us,\
         replayed_pages,zero_filled_pages"
    );
}

#[test]
fn unknown_argument_exits_2_with_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--bogus")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(lines[0].contains("--bogus"), "{stderr}");
    assert!(lines[1].starts_with("usage: repro "), "{stderr}");
}
