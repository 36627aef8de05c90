//! Multi-socket MI300A card (paper §III-A): one MPI-style rank per socket,
//! domain-decomposed stencil with halo exchanges over the xGMI fabric.
//!
//! Each socket owns a slab of the domain in its own HBM and sweeps it with
//! zero-copy kernels; after every sweep, neighbouring ranks exchange halo
//! rows. Weak scaling: per-socket work is constant, so the card's makespan
//! should stay nearly flat as sockets are added, paying only the fabric.
//! The measurement is `analysis::extensions::weak_scaling`, which
//! `tests/extensions.rs` pins.
//!
//! ```text
//! cargo run --release --example multi_socket
//! ```

use mi300a_zerocopy::analysis::extensions::{weak_scaling, WEAK_SCALING_SOCKETS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Domain-decomposed stencil on a multi-socket APU card (weak scaling)\n");
    println!(
        "{:>8} | {:>12} | {:>16} | {:>10}",
        "sockets", "makespan", "exchanged bytes", "efficiency"
    );
    let mut base = None;
    for sockets in WEAK_SCALING_SOCKETS {
        let p = weak_scaling(sockets)?;
        let eff = p.efficiency(base.get_or_insert(p));
        println!(
            "{:>8} | {:>12} | {:>16} | {:>9.1}%",
            p.sockets,
            p.makespan.to_string(),
            p.exchanged_bytes,
            100.0 * eff
        );
    }
    println!("\nPer-socket work is constant; added sockets cost only the xGMI halo");
    println!("exchanges, so weak-scaling efficiency stays high — the paper's");
    println!("one-rank-per-socket recommendation for multi-socket MI300A cards.");
    Ok(())
}
