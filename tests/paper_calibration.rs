//! Calibration tests: the reproduced tables and figures must land in the
//! paper's bands at reference scale, and the ablations behind the paper's
//! explanations (`repro --ablations`) must keep their shape and printed
//! values. These pin the headline results so that refactoring the runtime
//! or cost model cannot silently break the reproduction (see EXPERIMENTS.md
//! for the paper-vs-measured record).

use mi300a_zerocopy::analysis::paper::{
    ablation_eager_maps, ablation_page_size, ablation_streaming, qmc_sweep, spec_suite, table3,
    PaperConfig,
};
use mi300a_zerocopy::analysis::{
    measure_all_configs, order_of_magnitude_us, ratio, ExperimentConfig,
};
use mi300a_zerocopy::omp::RuntimeConfig;
use mi300a_zerocopy::workloads::NioSize;

/// Paper Table II with tolerance bands (ratio, +-rel).
const TABLE2_BANDS: [(&str, [f64; 3]); 5] = [
    // (benchmark, [Implicit Z-C, USM, Eager Maps]) paper values
    ("403.stencil", [0.99, 0.99, 0.98]),
    ("404.lbm", [1.05, 1.043, 1.025]),
    ("452.ep", [0.89, 0.89, 0.99]),
    ("457.spC", [7.80, 7.61, 8.10]),
    ("470.bt", [4.88, 4.77, 5.10]),
];

#[test]
fn table2_ratios_match_paper_bands() {
    let exp = ExperimentConfig::noiseless();
    for (name, paper) in TABLE2_BANDS {
        let w = spec_suite(1.0)
            .into_iter()
            .find(|w| w.name() == name)
            .expect("benchmark exists");
        let ms = measure_all_configs(w.as_ref(), 1, &exp).unwrap();
        let copy = &ms[0];
        for (ci, config) in RuntimeConfig::ZERO_COPY.iter().enumerate() {
            let m = ms.iter().find(|m| m.config == *config).unwrap();
            let r = ratio(copy, m);
            let expected = paper[ci];
            // Band: 12% relative for the big ratios, 0.05 absolute for the
            // near-unity ones (the paper's own CoV is 3%).
            let ok = if expected > 2.0 {
                (r / expected - 1.0).abs() < 0.12
            } else {
                (r - expected).abs() < 0.06
            };
            assert!(
                ok,
                "{name} {config}: measured {r:.3}, paper {expected} (out of band)"
            );
        }
    }
}

#[test]
fn table3_orders_match_paper_exactly() {
    let cfg = PaperConfig {
        spec_scale: 1.0,
        ..PaperConfig::quick()
    };
    let t = table3(&cfg).unwrap();
    // Rows: Copy, Implicit Z-C or USM, Eager Maps.
    // Columns: config, stencil MM, stencil MI, ep MM, ep MI.
    let expect = [
        ["Copy", "O(10^5)", "O(0)", "O(10^5)", "O(0)"],
        ["Implicit Z-C or USM", "O(0)", "O(10^6)", "O(0)", "O(10^6)"],
        ["Eager Maps", "O(10^4)", "O(0)", "O(10^5)", "O(0)"],
    ];
    for (row, exp_row) in t.rows.iter().zip(expect) {
        assert_eq!(row.as_slice(), exp_row.as_slice(), "Table III row mismatch");
    }
}

#[test]
fn qmcpack_ratio_trends_match_figures_3_and_4() {
    // Reduced sweep (3 sizes x 2 thread counts), noiseless for determinism.
    let cfg = PaperConfig {
        exp: ExperimentConfig::noiseless(),
        qmc_steps: 150,
        qmc_repeats: 1,
        sizes: vec![
            NioSize { factor: 2 },
            NioSize { factor: 16 },
            NioSize { factor: 128 },
        ],
        threads: vec![1, 8],
        spec_scale: 0.05,
        table1_steps: 100,
        jobs: 0,
    };
    let cells = qmc_sweep(&cfg).unwrap();
    let get = |f: u32, t: usize| {
        cells
            .iter()
            .find(|c| c.size.factor == f && c.threads == t)
            .unwrap()
    };

    // Zero-copy always beats Copy for QMCPack (abstract: 1.2x-2.3x).
    for c in &cells {
        for config in RuntimeConfig::ZERO_COPY {
            let r = c.ratio_of(config);
            assert!(
                r > 1.0 && r < 3.0,
                "S{} {}T {config}: ratio {r:.2} outside QMCPack band",
                c.size.factor,
                c.threads
            );
        }
    }

    // Fig. 3 trend: more threads => better zero-copy ratio at small sizes.
    assert!(
        get(2, 8).ratio_of(RuntimeConfig::ImplicitZeroCopy)
            > get(2, 1).ratio_of(RuntimeConfig::ImplicitZeroCopy)
    );

    // Fig. 4 trend: bigger problem => smaller advantage (kernel time
    // dominates and there is less transfer cost to fold).
    let r_s2 = get(2, 8).ratio_of(RuntimeConfig::ImplicitZeroCopy);
    let r_s16 = get(16, 8).ratio_of(RuntimeConfig::ImplicitZeroCopy);
    let r_s128 = get(128, 8).ratio_of(RuntimeConfig::ImplicitZeroCopy);
    assert!(r_s2 > r_s16 && r_s16 > r_s128, "{r_s2} {r_s16} {r_s128}");

    // Eager Maps scales at a lower rate than the other two for small sizes,
    // and converges with Implicit Zero-Copy at S128 (paper §V-A.4).
    assert!(
        get(2, 8).ratio_of(RuntimeConfig::EagerMaps)
            < get(2, 8).ratio_of(RuntimeConfig::ImplicitZeroCopy)
    );
    let em_128 = get(128, 8).ratio_of(RuntimeConfig::EagerMaps);
    assert!(
        (em_128 / r_s128 - 1.0).abs() < 0.03,
        "EM {em_128} should converge with IZC {r_s128} at S128"
    );

    // USM and Implicit Z-C are identical for QMCPack (no globals).
    for c in &cells {
        let izc = c.ratio_of(RuntimeConfig::ImplicitZeroCopy);
        let usm = c.ratio_of(RuntimeConfig::UnifiedSharedMemory);
        assert!((izc - usm).abs() < 1e-9);
    }
}

#[test]
fn ep_overheads_have_paper_magnitudes() {
    // MI for zero-copy ep is "a few million microseconds" (seconds).
    let exp = ExperimentConfig::noiseless();
    let w = spec_suite(1.0)
        .into_iter()
        .find(|w| w.name() == "452.ep")
        .unwrap();
    let ms = measure_all_configs(w.as_ref(), 1, &exp).unwrap();
    let izc = ms
        .iter()
        .find(|m| m.config == RuntimeConfig::ImplicitZeroCopy)
        .unwrap();
    assert_eq!(
        order_of_magnitude_us(izc.report.ledger.mi_total()),
        "O(10^6)"
    );
    let copy = &ms[0];
    assert_eq!(
        order_of_magnitude_us(copy.report.ledger.mm_total()),
        "O(10^5)"
    );
    assert_eq!(copy.report.ledger.mi_total().as_nanos(), 0);
}

/// Milliseconds of a printed makespan cell ("20.557ms", "7.621s").
fn cell_ms(cell: &str) -> f64 {
    match cell.strip_suffix("ms") {
        Some(ms) => ms.parse().unwrap(),
        None => 1e3 * cell.strip_suffix('s').unwrap().parse::<f64>().unwrap(),
    }
}

#[test]
fn eager_maps_ablation_tracks_the_prefault_syscall_cost() {
    let t = ablation_eager_maps(&PaperConfig::quick()).unwrap();
    // Columns: syscall cost (us), QMCPack S2 IZC/EM, 457.spC IZC/EM.
    let col = |c: usize| -> Vec<f64> { t.rows.iter().map(|r| r[c].parse().unwrap()).collect() };
    let (qmc, spc) = (col(1), col(2));
    // QMCPack's frequent small maps: IZC is ahead at every cost, even with
    // free syscalls, and further ahead the dearer each syscall.
    assert!(qmc.iter().all(|&r| r < 1.0), "{qmc:?}");
    assert!(qmc.windows(2).all(|w| w[1] < w[0]), "{qmc:?}");
    // spC's bulk re-touch: EM is ahead up to 3 us and behind from 10 us.
    assert!(spc[..3].iter().all(|&r| r > 1.0), "{spc:?}");
    assert!(spc[3..].iter().all(|&r| r < 1.0), "{spc:?}");
    let expect = [
        ["0", "0.971", "1.057"],
        ["1", "0.900", "1.038"],
        ["3", "0.785", "1.001"],
        ["10", "0.542", "0.891"],
        ["30", "0.288", "0.679"],
    ];
    assert_eq!(t.rows.len(), expect.len());
    for (row, exp_row) in t.rows.iter().zip(expect) {
        assert_eq!(
            row.as_slice(),
            exp_row.as_slice(),
            "Eager Maps ablation row"
        );
    }
}

#[test]
fn streaming_ablation_saturates_at_two_dma_engines() {
    let t = ablation_streaming(&PaperConfig::quick()).unwrap();
    // Columns: DMA engines, threads, makespan; engines 1, 2, 4 x threads 1, 8.
    let at = |threads: &str| -> Vec<f64> {
        t.rows
            .iter()
            .filter(|r| r[1] == threads)
            .map(|r| cell_ms(&r[2]))
            .collect()
    };
    let (one, eight) = (at("1"), at("8"));
    // One thread has no concurrent transfers to hide: engines do not matter.
    assert!(one.iter().all(|&ms| ms == one[0]), "{one:?}");
    // Eight threads stream: each engine count hides more, but going from 2
    // to 4 engines gains under 2 %.
    assert!(eight.windows(2).all(|w| w[1] < w[0]), "{eight:?}");
    assert!((eight[1] - eight[2]) / eight[1] < 0.02, "{eight:?}");
    let expect = [
        ["1", "1", "20.557ms"],
        ["1", "8", "32.465ms"],
        ["2", "1", "20.557ms"],
        ["2", "8", "29.804ms"],
        ["4", "1", "20.557ms"],
        ["4", "8", "29.397ms"],
    ];
    assert_eq!(t.rows.len(), expect.len());
    for (row, exp_row) in t.rows.iter().zip(expect) {
        assert_eq!(row.as_slice(), exp_row.as_slice(), "streaming ablation row");
    }
}

#[test]
fn page_size_ablation_shows_510x_zero_fill_pages_on_4k_pages() {
    let t = ablation_page_size(&PaperConfig::quick()).unwrap();
    // Rows: 2MiB IZC, 2MiB EM, 4KiB IZC, 4KiB EM.
    // Columns: pages, config, zero-fill pages, makespan.
    let pages = |i: usize| -> u64 { t.rows[i][2].parse().unwrap() };
    let ms = |i: usize| cell_ms(&t.rows[i][3]);
    // Both zero-copy configurations touch the same pages.
    assert_eq!(pages(0), pages(1));
    assert_eq!(pages(2), pages(3));
    assert_eq!((pages(2) as f64 / pages(0) as f64).round(), 510.0);
    // 4 KiB pages slow both down; IZC, which faults page by page, far more
    // than EM, which prefaults in bulk.
    assert!(ms(2) > ms(0) && ms(3) > ms(1));
    assert!(ms(2) / ms(0) > ms(3) / ms(1));
    let expect = [
        ["2MiB", "Implicit Z-C", "113", "124.279ms"],
        ["2MiB", "Eager Maps", "113", "110.729ms"],
        ["4KiB", "Implicit Z-C", "57672", "7.621s"],
        ["4KiB", "Eager Maps", "57672", "711.756ms"],
    ];
    assert_eq!(t.rows.len(), expect.len());
    for (row, exp_row) in t.rows.iter().zip(expect) {
        assert_eq!(row.as_slice(), exp_row.as_slice(), "page-size ablation row");
    }
}
