//! Multi-socket APU cards (paper §III-A).
//!
//! "APU sockets can be composed together in a multi-socket accelerator
//! card... GPUs in different sockets are seen by OpenMP as multiple
//! devices. Programmers can either program multiple sockets using a single
//! OpenMP program, by carefully selecting CPU and GPU thread affinity, or
//! use one MPI process per socket."
//!
//! [`CardRuntime`] models the second, recommended style: one runtime (rank)
//! per socket, each with its own HBM, page tables and device, executing in
//! parallel; ranks synchronize through explicit halo exchanges that move
//! content between the sockets' memories over the inter-socket fabric
//! (xGMI). The card's makespan is the slowest socket plus exchange time —
//! exactly the MPI+OpenMP execution model the paper describes for MI300A
//! nodes.

use crate::config::RuntimeConfig;
use crate::error::OmpError;
use crate::runtime::{OmpRuntime, RunReport};
use apu_mem::{CostModel, VirtAddr};
use hsa_rocr::Topology;
use sim_des::VirtDuration;

/// Inter-socket fabric parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    /// Socket-to-socket bandwidth (bytes/s) — xGMI-class.
    pub bandwidth: u64,
    /// Per-message latency.
    pub latency: VirtDuration,
}

impl Fabric {
    /// xGMI-class fabric between MI300A sockets.
    pub fn xgmi() -> Self {
        Fabric {
            bandwidth: 100_000_000_000, // ~100 GB/s per direction
            latency: VirtDuration::from_micros(2),
        }
    }

    /// Time to move `bytes` between sockets.
    pub fn transfer_time(&self, bytes: u64) -> VirtDuration {
        self.latency + sim_des::transfer_time(bytes, self.bandwidth)
    }
}

/// A multi-socket APU card driven MPI-style: one rank per socket.
pub struct CardRuntime {
    sockets: Vec<OmpRuntime>,
    fabric: Fabric,
    exchanges: u64,
    exchanged_bytes: u64,
}

/// Per-card results: one report per socket plus the card makespan.
#[derive(Debug)]
pub struct CardReport {
    /// Per-socket run reports, in socket order.
    pub sockets: Vec<RunReport>,
    /// Card execution time: the slowest socket (ranks run in parallel).
    pub makespan: VirtDuration,
    /// Halo exchanges performed.
    pub exchanges: u64,
    /// Bytes moved across the fabric.
    pub exchanged_bytes: u64,
}

impl CardRuntime {
    /// A card with `sockets` sockets, each running `config` with
    /// `threads_per_socket` OpenMP host threads.
    pub fn new(
        cost: CostModel,
        topo: Topology,
        config: RuntimeConfig,
        sockets: usize,
        threads_per_socket: usize,
    ) -> Result<Self, OmpError> {
        assert!(sockets >= 1, "at least one socket");
        let sockets = (0..sockets)
            .map(|_| {
                OmpRuntime::builder(cost.clone(), topo)
                    .config(config)
                    .threads(threads_per_socket)
                    .build()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CardRuntime {
            sockets,
            fabric: Fabric::xgmi(),
            exchanges: 0,
            exchanged_bytes: 0,
        })
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets.len()
    }

    /// The rank running on socket `s`.
    pub fn socket(&mut self, s: usize) -> &mut OmpRuntime {
        &mut self.sockets[s]
    }

    /// Halo exchange: copy `len` bytes from `(src_socket, src)` to
    /// `(dst_socket, dst)` over the fabric. Both ranks' thread 0 block for
    /// the transfer (a blocking MPI_Sendrecv). Content really moves between
    /// the two sockets' memories.
    pub fn exchange(
        &mut self,
        src_socket: usize,
        src: VirtAddr,
        dst_socket: usize,
        dst: VirtAddr,
        len: u64,
    ) -> Result<(), OmpError> {
        assert_ne!(src_socket, dst_socket, "exchange is inter-socket");
        let cost = self.fabric.transfer_time(len);
        // Move real content: read from the source socket, write to the
        // destination socket (which counts as CPU touch there).
        let mut buf = vec![0u8; len as usize];
        self.sockets[src_socket]
            .mem()
            .cpu_read(src, &mut buf)
            .map_err(OmpError::Mem)?;
        self.sockets[dst_socket]
            .mem_mut()
            .cpu_write(dst, &buf)
            .map_err(OmpError::Mem)?;
        // Both ranks block for the fabric transfer.
        self.sockets[src_socket].host_compute(0, cost);
        self.sockets[dst_socket].host_compute(0, cost);
        self.exchanges += 1;
        self.exchanged_bytes += len;
        Ok(())
    }

    /// Finish all ranks; the card's makespan is the slowest socket.
    pub fn finish(self) -> CardReport {
        let reports: Vec<RunReport> = self.sockets.into_iter().map(OmpRuntime::finish).collect();
        let makespan = reports
            .iter()
            .map(|r| r.makespan)
            .max()
            .unwrap_or(VirtDuration::ZERO);
        CardReport {
            sockets: reports,
            makespan,
            exchanges: self.exchanges,
            exchanged_bytes: self.exchanged_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TargetRegion;
    use crate::mapping::MapEntry;
    use apu_mem::AddrRange;

    fn card(sockets: usize) -> CardRuntime {
        CardRuntime::new(
            CostModel::mi300a(),
            Topology::default(),
            RuntimeConfig::ImplicitZeroCopy,
            sockets,
            1,
        )
        .unwrap()
    }

    #[test]
    fn sockets_run_in_parallel() {
        // The same per-socket work on 1 vs 2 sockets: the card makespan
        // stays flat (weak scaling), instead of doubling.
        let work = |rt: &mut OmpRuntime| {
            let a = rt.host_alloc(0, 1 << 20).unwrap();
            for _ in 0..50 {
                rt.target(
                    0,
                    TargetRegion::new("k", VirtDuration::from_micros(100))
                        .map(MapEntry::tofrom(AddrRange::new(a, 1 << 20))),
                )
                .unwrap();
            }
        };
        let mut one = card(1);
        work(one.socket(0));
        let one = one.finish();

        let mut two = card(2);
        work(two.socket(0));
        work(two.socket(1));
        let two = two.finish();

        assert_eq!(two.sockets.len(), 2);
        let slack = one.makespan / 20; // 5%
        assert!(two.makespan <= one.makespan + slack);
        // Total kernels across the card doubled.
        let total: u64 = two.sockets.iter().map(|r| r.ledger.kernels).sum();
        assert_eq!(total, 2 * one.sockets[0].ledger.kernels);
    }

    #[test]
    fn exchange_moves_real_content_and_charges_fabric_time() {
        let mut c = card(2);
        let a = c.socket(0).host_alloc(0, 4096).unwrap();
        let b = c.socket(1).host_alloc(0, 4096).unwrap();
        c.socket(0).mem_mut().cpu_write(a, b"halo data").unwrap();
        c.exchange(0, a, 1, b, 9).unwrap();
        let mut buf = [0u8; 9];
        c.socket(1).mem().cpu_read(b, &mut buf).unwrap();
        assert_eq!(&buf, b"halo data");
        let report = c.finish();
        assert_eq!(report.exchanges, 1);
        assert_eq!(report.exchanged_bytes, 9);
        // Both sockets' timelines include the fabric time.
        let t = Fabric::xgmi().transfer_time(9);
        for r in &report.sockets {
            assert!(r.makespan >= t);
        }
    }

    #[test]
    fn fabric_transfer_time_scales() {
        let f = Fabric::xgmi();
        assert!(f.transfer_time(1 << 30) > f.transfer_time(1 << 20));
        // Latency floor for tiny messages.
        assert!(f.transfer_time(1) >= f.latency);
    }

    #[test]
    #[should_panic(expected = "inter-socket")]
    fn same_socket_exchange_rejected() {
        let mut c = card(2);
        let a = c.socket(0).host_alloc(0, 4096).unwrap();
        let _ = c.exchange(0, a, 0, a, 4);
    }
}
