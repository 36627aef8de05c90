//! APU vs discrete GPU: the contrast that motivates the paper.
//!
//! Runs the same workloads on the simulated MI300A APU and on an MI200-class
//! discrete device (separate VRAM behind a ~50 GB/s link):
//!
//! 1. QMCPack under Copy — the discrete device pays interconnect-speed
//!    transfers where the APU pays HBM-to-HBM copies, and the APU's
//!    zero-copy configuration folds even those.
//! 2. 452.ep under Implicit Zero-Copy with a working set *larger than
//!    VRAM* — unified-memory oversubscription makes pages migrate over the
//!    link every sweep (the collapse reported by the paper's related work).
//!
//! The measurements are `analysis::extensions::{porting_story,
//! oversubscription}`, which `tests/extensions.rs` pins.
//!
//! ```text
//! cargo run --release --example apu_vs_discrete
//! ```

use mi300a_zerocopy::analysis::extensions::{
    oversubscription, porting_story, OVERSUBSCRIPTION_GIB,
};
use mi300a_zerocopy::mem::DiscreteSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== 1. QMCPack S8, 4 threads, the porting story ==\n");
    let story = porting_story()?;
    println!("{:<44} {:>12}", "system / configuration", "makespan");
    println!(
        "{:<44} {:>12}",
        "discrete GPU, Copy (the starting point)",
        story.discrete_copy.to_string()
    );
    println!(
        "{:<44} {:>12}",
        "MI300A APU, Copy (recompile only)",
        story.apu_copy.to_string()
    );
    println!(
        "{:<44} {:>12}",
        "MI300A APU, Implicit Zero-Copy",
        story.apu_izc.to_string()
    );
    println!(
        "\nAPU speedup from faster copies alone: {:.2}x; with zero-copy: {:.2}x\n",
        story.copy_speedup(),
        story.zero_copy_speedup()
    );

    println!("== 2. Unified-memory oversubscription on the discrete device ==\n");
    println!(
        "452.ep-like working sets under Implicit Zero-Copy (VRAM = {} GiB):\n",
        DiscreteSpec::mi200_class().vram_bytes >> 30
    );
    println!(
        "{:>18} | {:>14} | {:>14} | {:>12} | {:>12}",
        "working set", "APU", "discrete", "migrated", "evicted"
    );
    for gib in OVERSUBSCRIPTION_GIB {
        let p = oversubscription(gib)?;
        println!(
            "{:>13} GiB | {:>14} | {:>14} | {:>12} | {:>12}",
            p.gib,
            p.apu.to_string(),
            p.discrete.to_string(),
            p.migrated_pages,
            p.evicted_pages,
        );
    }
    println!("\nBelow VRAM capacity the discrete device pays one migration per page;");
    println!("past 64 GiB every sweep re-migrates its working set over the link —");
    println!("the oversubscription collapse the APU architecture eliminates.");
    Ok(())
}
