//! Property: the four runtime configurations are OpenMP-semantically
//! equivalent. Random offload programs with real kernel bodies must leave
//! host memory in an identical state under every configuration.

use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::{AddrRange, CostModel, VirtAddr};
use mi300a_zerocopy::omp::{MapEntry, OmpRuntime, RuntimeConfig, TargetRegion};
use mi300a_zerocopy::sim::{SplitMix64, VirtDuration};
use proptest::prelude::*;

/// A small random offload program description.
#[derive(Debug, Clone)]
struct Program {
    /// Number of f64 buffers.
    buffers: usize,
    /// Buffer length in f64 elements.
    len: usize,
    /// Steps; each step picks a src/dst pair and an operation.
    steps: Vec<(usize, usize, u8)>,
}

fn read_f64s(rt: &OmpRuntime, addr: VirtAddr, n: usize) -> Vec<f64> {
    let mut raw = vec![0u8; n * 8];
    rt.mem().cpu_read(addr, &mut raw).unwrap();
    raw.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn write_f64s(rt: &mut OmpRuntime, addr: VirtAddr, vals: &[f64]) {
    let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    rt.mem_mut().cpu_write(addr, &raw).unwrap();
}

/// Execute the program under `config`; return the final buffer contents.
fn execute(p: &Program, config: RuntimeConfig, seed: u64) -> Vec<Vec<f64>> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(config)
        .build()
        .unwrap();
    let bytes = (p.len * 8) as u64;
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let bufs: Vec<VirtAddr> = (0..p.buffers)
        .map(|_| rt.host_alloc(0, bytes).unwrap())
        .collect();
    for &b in &bufs {
        let init: Vec<f64> = (0..p.len).map(|_| -8.0 + 16.0 * rng.next_f64()).collect();
        write_f64s(&mut rt, b, &init);
    }

    for &(src, dst, op) in &p.steps {
        let (src, dst) = (src % p.buffers, dst % p.buffers);
        let sa = bufs[src];
        let da = bufs[dst];
        let n = p.len;
        let region = TargetRegion::new("step", VirtDuration::from_micros(5))
            .map(MapEntry::to(AddrRange::new(sa, bytes)))
            .map(MapEntry::tofrom(AddrRange::new(da, bytes)))
            .body(move |ctx| {
                let s = ctx.read_f64s(ctx.arg(0), n)?;
                let d = ctx.read_f64s(ctx.arg(1), n)?;
                let out: Vec<f64> = match op % 3 {
                    0 => s.iter().zip(&d).map(|(a, b)| a + b).collect(),
                    1 => s.iter().zip(&d).map(|(a, b)| a * 0.5 + b * 0.5).collect(),
                    _ => s.iter().zip(&d).map(|(a, b)| a.max(*b)).collect(),
                };
                ctx.write_f64s(ctx.arg(1), &out)
            });
        rt.target(0, region).unwrap();
    }

    let out = bufs.iter().map(|&b| read_f64s(&rt, b, p.len)).collect();
    assert_eq!(rt.live_mappings(), 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_configs_produce_identical_memory(
        buffers in 1usize..4,
        len in 1usize..64,
        steps in proptest::collection::vec((0usize..4, 0usize..4, 0u8..3), 0..12),
        seed in any::<u64>(),
    ) {
        // Same-buffer src/dst would alias `to` and `tofrom` maps of the same
        // range, which is a partial-overlap error; skip those pairs.
        let steps: Vec<_> = steps
            .into_iter()
            .filter(|(s, d, _)| s % buffers != d % buffers)
            .collect();
        let p = Program { buffers, len, steps };
        let reference = execute(&p, RuntimeConfig::LegacyCopy, seed);
        for config in [
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
            RuntimeConfig::EagerMaps,
        ] {
            let got = execute(&p, config, seed);
            prop_assert_eq!(&reference, &got, "config {} diverged", config);
        }
    }
}

/// Multi-threaded equivalence: two host threads drive disjoint buffer sets
/// concurrently (recording interleaves at the runtime level); results must
/// still match across configurations.
fn execute_two_threads(p: &Program, config: RuntimeConfig, seed: u64) -> Vec<Vec<f64>> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(config)
        .threads(2)
        .build()
        .unwrap();
    let bytes = (p.len * 8) as u64;
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Two disjoint universes, one per thread.
    let bufs: Vec<Vec<VirtAddr>> = (0..2)
        .map(|t| {
            (0..p.buffers)
                .map(|_| rt.host_alloc(t, bytes).unwrap())
                .collect()
        })
        .collect();
    for universe in &bufs {
        for &b in universe {
            let init: Vec<f64> = (0..p.len).map(|_| -8.0 + 16.0 * rng.next_f64()).collect();
            write_f64s(&mut rt, b, &init);
        }
    }
    for &(src, dst, op) in &p.steps {
        for (t, universe) in bufs.iter().enumerate() {
            let (src, dst) = (src % p.buffers, dst % p.buffers);
            let sa = universe[src];
            let da = universe[dst];
            let n = p.len;
            let region = TargetRegion::new("step", VirtDuration::from_micros(5))
                .map(MapEntry::to(AddrRange::new(sa, bytes)))
                .map(MapEntry::tofrom(AddrRange::new(da, bytes)))
                .body(move |ctx| {
                    let s = ctx.read_f64s(ctx.arg(0), n)?;
                    let d = ctx.read_f64s(ctx.arg(1), n)?;
                    let out: Vec<f64> = match op % 3 {
                        0 => s.iter().zip(&d).map(|(a, b)| a + b).collect(),
                        1 => s.iter().zip(&d).map(|(a, b)| a * 0.5 + b * 0.5).collect(),
                        _ => s.iter().zip(&d).map(|(a, b)| a.max(*b)).collect(),
                    };
                    ctx.write_f64s(ctx.arg(1), &out)
                });
            rt.target(t, region).unwrap();
        }
    }
    bufs.iter()
        .flat_map(|universe| universe.iter().map(|&b| read_f64s(&rt, b, p.len)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn two_thread_programs_are_equivalent_across_configs(
        buffers in 2usize..4,
        len in 1usize..32,
        steps in proptest::collection::vec((0usize..4, 0usize..4, 0u8..3), 0..8),
        seed in any::<u64>(),
    ) {
        let steps: Vec<_> = steps
            .into_iter()
            .filter(|(s, d, _)| s % buffers != d % buffers)
            .collect();
        let p = Program { buffers, len, steps };
        let reference = execute_two_threads(&p, RuntimeConfig::LegacyCopy, seed);
        for config in RuntimeConfig::ZERO_COPY {
            let got = execute_two_threads(&p, config, seed);
            prop_assert_eq!(&reference, &got, "config {} diverged", config);
        }
    }
}

#[test]
fn persistent_mapping_with_updates_is_equivalent() {
    // enter data + repeated kernels + explicit updates: the Copy staleness
    // path exercised deliberately, ending in the same state everywhere.
    let run = |config: RuntimeConfig| -> Vec<f64> {
        let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(config)
            .build()
            .unwrap();
        const N: usize = 32;
        let bytes = (N * 8) as u64;
        let a = rt.host_alloc(0, bytes).unwrap();
        write_f64s(&mut rt, a, &vec![1.0; N]);
        let r = AddrRange::new(a, bytes);
        rt.target_enter_data(0, &[MapEntry::to(r)]).unwrap();
        for _ in 0..5 {
            let region = TargetRegion::new("double", VirtDuration::from_micros(3))
                .map(MapEntry::alloc(r))
                .body(move |ctx| {
                    let v = ctx.read_f64s(ctx.arg(0), N)?;
                    ctx.write_f64s(ctx.arg(0), &v.iter().map(|x| x * 2.0).collect::<Vec<_>>())
                });
            rt.target(0, region).unwrap();
        }
        rt.target_exit_data(0, &[MapEntry::from(r)], false).unwrap();
        read_f64s(&rt, a, N)
    };
    let expected = vec![32.0; 32];
    for config in RuntimeConfig::ALL {
        assert_eq!(run(config), expected, "{config}");
    }
}
