//! The single physical HBM storage shared by CPU and GPU.
//!
//! Frame allocation is a bump allocator with a free list (first-fit reuse).
//! Content is *sparsely materialized*: a 4 KiB chunk of real bytes is only
//! allocated when something actually writes it, so multi-GiB simulated
//! allocations cost host memory only where kernels with real bodies touch
//! them. Unwritten bytes read as zero, matching fresh OS pages.
//!
//! Content is read in place: [`PhysicalMemory::spans`] walks a window as
//! borrowed materialized chunks and lengths of unmaterialized zero runs,
//! with one ordered range query over the chunk store. [`read`] is built on
//! it, and a caller that only consumes content (a digest) can fold the
//! spans directly: the walk copies nothing, and its own cost is
//! O(materialized chunks in the window), whatever the window's length.
//!
//! [`read`]: PhysicalMemory::read

use crate::addr::PhysAddr;
use crate::error::MemError;
use std::collections::BTreeMap;

const CHUNK: u64 = 4096;

/// The APU's HBM array, seen as one logical memory by CPU and GPU.
#[derive(Debug)]
pub struct PhysicalMemory {
    capacity: u64,
    next: u64,
    allocated: u64,
    /// Freed ranges (start, len), first-fit reused.
    free_list: Vec<(u64, u64)>,
    /// Sparse content store: chunk index -> 4 KiB of real bytes.
    chunks: BTreeMap<u64, Box<[u8]>>,
}

impl PhysicalMemory {
    /// A memory of `capacity` bytes (MI300A: 128 GiB HBM3).
    pub fn new(capacity: u64) -> Self {
        PhysicalMemory {
            capacity,
            next: 0,
            allocated: 0,
            free_list: Vec::new(),
            chunks: BTreeMap::new(),
        }
    }

    /// MI300A-sized instance (128 GiB HBM).
    pub fn mi300a() -> Self {
        Self::new(128 * 1024 * 1024 * 1024)
    }

    /// Number of identical servers in the pool.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Bytes of real backing store currently materialized.
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.len() as u64 * CHUNK
    }

    /// Allocate `len` bytes aligned to `align` (a power of two).
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<PhysAddr, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        // First-fit over the free list.
        for i in 0..self.free_list.len() {
            let (start, flen) = self.free_list[i];
            let aligned = (start + align - 1) & !(align - 1);
            let pad = aligned - start;
            if flen >= pad + len {
                // Carve [aligned, aligned+len) out of the hole.
                self.free_list.remove(i);
                if pad > 0 {
                    self.free_list.push((start, pad));
                }
                let tail = flen - pad - len;
                if tail > 0 {
                    self.free_list.push((aligned + len, tail));
                }
                self.allocated += len;
                return Ok(PhysAddr(aligned));
            }
        }
        let aligned = (self.next + align - 1) & !(align - 1);
        if len > self.capacity.saturating_sub(aligned) {
            return Err(MemError::OutOfMemory {
                requested: len,
                available: self.capacity.saturating_sub(self.next),
            });
        }
        if aligned > self.next {
            self.free_list.push((self.next, aligned - self.next));
        }
        self.next = aligned + len;
        self.allocated += len;
        Ok(PhysAddr(aligned))
    }

    /// Return `[addr, addr+len)` to the allocator and drop its content.
    pub fn free(&mut self, addr: PhysAddr, len: u64) {
        let len = len.max(1);
        let first_chunk = addr.as_u64() / CHUNK;
        let last_chunk = (addr.as_u64() + len - 1) / CHUNK;
        let keys: Vec<u64> = self
            .chunks
            .range(first_chunk..=last_chunk)
            .map(|(k, _)| *k)
            .collect();
        for c in keys {
            self.chunks.remove(&c);
        }
        self.free_list.push((addr.as_u64(), len));
        self.allocated = self.allocated.saturating_sub(len);
    }

    /// Walk `[addr, addr+len)` in address order as content spans. Each
    /// materialized chunk's part of the window is passed as
    /// `f(Some(bytes), bytes.len())`, borrowed in place; each maximal run of
    /// unmaterialized bytes, which read as zero, as `f(None, n)`. Spans are
    /// contiguous and non-empty, their lengths sum to `len`, and an empty
    /// window yields none.
    pub fn spans(&self, addr: PhysAddr, len: u64, mut f: impl FnMut(Option<&[u8]>, u64)) {
        if len == 0 {
            return;
        }
        let start = addr.as_u64();
        let end = start + len;
        let mut pos = start;
        for (&k, chunk) in self.chunks.range(start / CHUNK..=(end - 1) / CHUNK) {
            let chunk_base = k * CHUNK;
            let lo = chunk_base.max(start);
            let hi = (chunk_base + CHUNK).min(end);
            if lo > pos {
                f(None, lo - pos);
            }
            f(
                Some(&chunk[(lo - chunk_base) as usize..(hi - chunk_base) as usize]),
                hi - lo,
            );
            pos = hi;
        }
        if pos < end {
            f(None, end - pos);
        }
    }

    /// Read `buf.len()` bytes starting at `addr`. Unmaterialized bytes are 0.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        self.spans(addr, buf.len() as u64, |bytes, n| {
            let dst = &mut buf[off..off + n as usize];
            match bytes {
                Some(b) => dst.copy_from_slice(b),
                None => dst.fill(0),
            }
            off += dst.len();
        });
    }

    /// Write `data` starting at `addr`, materializing chunks as needed.
    /// Writing zeros to an unmaterialized chunk is a no-op — the chunk
    /// already reads as zero — so bulk zero-initialization of fresh memory
    /// stays metadata-only.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut pos = addr.as_u64();
        let mut off = 0usize;
        while off < data.len() {
            let chunk_idx = pos / CHUNK;
            let in_chunk = (pos % CHUNK) as usize;
            let take = ((CHUNK as usize) - in_chunk).min(data.len() - off);
            let src = &data[off..off + take];
            match self.chunks.get_mut(&chunk_idx) {
                Some(chunk) => chunk[in_chunk..in_chunk + take].copy_from_slice(src),
                None if src.iter().all(|&b| b == 0) => {}
                None => {
                    let mut chunk = vec![0u8; CHUNK as usize].into_boxed_slice();
                    chunk[in_chunk..in_chunk + take].copy_from_slice(src);
                    self.chunks.insert(chunk_idx, chunk);
                }
            }
            pos += take as u64;
            off += take;
        }
    }

    /// Copy `len` bytes from `src` to `dst` (the DMA engine's content move).
    /// Cost is proportional to the *materialized* chunks in the two ranges,
    /// so multi-GiB modeled copies of untouched memory are metadata-free.
    /// Source and destination must not overlap (DMA semantics).
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) {
        if len == 0 {
            return;
        }
        debug_assert!(
            src.as_u64() + len <= dst.as_u64() || dst.as_u64() + len <= src.as_u64(),
            "DMA copy ranges must not overlap"
        );
        // 1. Zero the destination spans that are already materialized: where
        //    the source is sparse it reads as zero, and materialized source
        //    spans are overwritten below anyway.
        let d0 = dst.as_u64();
        let dst_keys: Vec<u64> = self
            .chunks
            .range(d0 / CHUNK..=(d0 + len - 1) / CHUNK)
            .map(|(k, _)| *k)
            .collect();
        for k in dst_keys {
            let chunk_base = k * CHUNK;
            let lo = chunk_base.max(d0);
            let hi = (chunk_base + CHUNK).min(d0 + len);
            let c = self.chunks.get_mut(&k).expect("key just collected");
            c[(lo - chunk_base) as usize..(hi - chunk_base) as usize].fill(0);
        }
        // 2. Move content from each materialized source chunk.
        let s0 = src.as_u64();
        let src_keys: Vec<u64> = self
            .chunks
            .range(s0 / CHUNK..=(s0 + len - 1) / CHUNK)
            .map(|(k, _)| *k)
            .collect();
        let mut buf = [0u8; CHUNK as usize];
        for k in src_keys {
            let chunk_base = k * CHUNK;
            let lo = chunk_base.max(s0);
            let hi = (chunk_base + CHUNK).min(s0 + len);
            let span = (hi - lo) as usize;
            self.read(PhysAddr(lo), &mut buf[..span]);
            self.write(PhysAddr(d0 + (lo - s0)), &buf[..span]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_respects_alignment() {
        let mut m = PhysicalMemory::new(1 << 20);
        let a = m.alloc(100, 4096).unwrap();
        let b = m.alloc(100, 4096).unwrap();
        assert_eq!(a.as_u64() % 4096, 0);
        assert_eq!(b.as_u64() % 4096, 0);
        assert_ne!(a, b);
        assert_eq!(m.allocated(), 200);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = PhysicalMemory::new(8192);
        m.alloc(8192, 1).unwrap();
        let err = m.alloc(1, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn free_enables_reuse() {
        let mut m = PhysicalMemory::new(8192);
        let a = m.alloc(4096, 4096).unwrap();
        m.alloc(4096, 4096).unwrap();
        assert!(m.alloc(4096, 4096).is_err());
        m.free(a, 4096);
        let c = m.alloc(4096, 4096).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PhysicalMemory::new(1 << 20);
        let mut buf = [0xAAu8; 64];
        m.read(PhysAddr(1000), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_chunks() {
        let mut m = PhysicalMemory::new(1 << 20);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        m.write(PhysAddr(4090), &data); // straddles chunk boundaries
        let mut back = vec![0u8; data.len()];
        m.read(PhysAddr(4090), &mut back);
        assert_eq!(back, data);
        assert!(m.resident_bytes() >= data.len() as u64);
    }

    #[test]
    fn copy_moves_content() {
        let mut m = PhysicalMemory::new(1 << 20);
        let data = vec![7u8; 5000];
        m.write(PhysAddr(100), &data);
        m.copy(PhysAddr(100), PhysAddr(100_000), 5000);
        let mut back = vec![0u8; 5000];
        m.read(PhysAddr(100_000), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn copy_of_unmaterialized_source_stays_sparse() {
        let mut m = PhysicalMemory::new(1 << 20);
        m.copy(PhysAddr(0), PhysAddr(500_000), 100_000);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn copy_zeroes_existing_destination() {
        let mut m = PhysicalMemory::new(1 << 20);
        m.write(PhysAddr(200_000), &[9u8; 100]);
        m.copy(PhysAddr(0), PhysAddr(200_000), 100); // src is zeros
        let mut back = [1u8; 100];
        m.read(PhysAddr(200_000), &mut back);
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_writes_to_fresh_memory_stay_sparse() {
        let mut m = PhysicalMemory::new(1 << 20);
        m.write(PhysAddr(0), &vec![0u8; 64 * 1024]);
        assert_eq!(m.resident_bytes(), 0);
        let mut back = [1u8; 64];
        m.read(PhysAddr(4096), &mut back);
        assert!(back.iter().all(|&b| b == 0));
        // A single non-zero byte materializes only the chunk holding it.
        let mut data = vec![0u8; 2 * CHUNK as usize];
        data[CHUNK as usize] = 1;
        m.write(PhysAddr(100_000 / CHUNK * CHUNK), &data);
        assert_eq!(m.resident_bytes(), CHUNK);
    }

    #[test]
    fn zero_writes_still_clear_materialized_chunks() {
        let mut m = PhysicalMemory::new(1 << 20);
        m.write(PhysAddr(0), &[7u8; 100]);
        assert_eq!(m.resident_bytes(), CHUNK);
        m.write(PhysAddr(0), &[0u8; 100]);
        // The chunk stays materialized but its content is zeroed.
        assert_eq!(m.resident_bytes(), CHUNK);
        let mut back = [1u8; 100];
        m.read(PhysAddr(0), &mut back);
        assert!(back.iter().all(|&b| b == 0));
    }

    /// Size of the property tests' memory: 32 chunks, so random writes
    /// leave both materialized and untouched chunks.
    const PROP_CAP: u64 = 32 * CHUNK;

    /// A sparse memory built from `writes`, plus the flat bytes it must
    /// read as. Each write `(addr, len, fill, zero_off, zero_len)` stores a
    /// `fill`-seeded pattern (with some zero bytes in it), which may
    /// straddle chunk boundaries, then writes zeros over a part of it, so
    /// zero writes land in chunks that are already materialized.
    fn sparse_memory(writes: &[(u64, u64, u8, u64, u64)]) -> (PhysicalMemory, Vec<u8>) {
        let mut m = PhysicalMemory::new(PROP_CAP);
        let mut model = vec![0u8; PROP_CAP as usize];
        let mut put = |m: &mut PhysicalMemory, addr: u64, data: &[u8]| {
            m.write(PhysAddr(addr), data);
            model[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        };
        for &(addr, len, fill, zero_off, zero_len) in writes {
            let len = len.min(PROP_CAP - addr);
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(fill)).collect();
            put(&mut m, addr, &data);
            let zero_at = addr + zero_off % len;
            let zero_len = zero_len.min(addr + len - zero_at);
            put(&mut m, zero_at, &vec![0u8; zero_len as usize]);
        }
        (m, model)
    }

    /// Check every property of the span walk over one window.
    fn check_window(m: &PhysicalMemory, model: &[u8], start: u64, len: u64) {
        let mut pos = start;
        let mut shape: Vec<(bool, u64)> = Vec::new();
        let mut concat = Vec::new();
        m.spans(PhysAddr(start), len, |bytes, n| {
            assert!(n > 0, "empty span at {pos}");
            match bytes {
                Some(b) => {
                    assert_eq!(b.len() as u64, n);
                    let k = pos / CHUNK;
                    assert_eq!((pos + n - 1) / CHUNK, k, "span at {pos} crosses a chunk");
                    let chunk = m.chunks.get(&k).expect("Some span over a sparse chunk");
                    let in_place = chunk[(pos % CHUNK) as usize..].as_ptr();
                    assert_eq!(b.as_ptr(), in_place, "span at {pos} is not borrowed");
                    concat.extend_from_slice(b);
                }
                None => {
                    assert!(
                        !matches!(shape.last(), Some((false, _))),
                        "zero runs at {pos} not coalesced"
                    );
                    let materialized = m.chunks.range(pos / CHUNK..=(pos + n - 1) / CHUNK);
                    assert_eq!(materialized.count(), 0, "zero run at {pos} over content");
                    concat.resize(concat.len() + n as usize, 0);
                }
            }
            shape.push((bytes.is_some(), n));
            pos += n;
        });
        assert_eq!(pos - start, len, "span lengths must sum to the window");
        let want = &model[start as usize..(start + len) as usize];
        assert_eq!(concat, want);
        let mut buf = vec![0xAAu8; len as usize];
        m.read(PhysAddr(start), &mut buf);
        assert_eq!(buf, want);
        let touches_content = len > 0
            && m.chunks
                .range(start / CHUNK..=(start + len - 1) / CHUNK)
                .next()
                .is_some();
        if !touches_content {
            let expected = if len == 0 { vec![] } else { vec![(false, len)] };
            assert_eq!(shape, expected, "window at {start} touches no content");
        }
    }

    proptest::proptest! {
        /// The span walk over random sparse memories and random windows
        /// (mid-chunk starts, empty, whole memory) agrees with a flat byte
        /// model and with `read`, borrows every content span from one
        /// materialized chunk, and reports untouched windows as one run.
        #[test]
        fn spans_walk_the_store_in_place(
            writes in proptest::collection::vec(
                (0..PROP_CAP, 1..3 * CHUNK, 1u8..255, 0..3 * CHUNK, 0..2 * CHUNK),
                0..8,
            ),
            windows in proptest::collection::vec((0..PROP_CAP, 0..4 * CHUNK), 1..12),
        ) {
            let (m, model) = sparse_memory(&writes);
            for &(start, len) in &windows {
                check_window(&m, &model, start, len.min(PROP_CAP - start));
                check_window(&m, &model, start, 0);
            }
            check_window(&m, &model, 0, PROP_CAP);
            check_window(&m, &model, CHUNK / 2, PROP_CAP - CHUNK);
        }
    }

    #[test]
    fn free_drops_content() {
        let mut m = PhysicalMemory::new(1 << 20);
        m.write(PhysAddr(0), &[5u8; 4096]);
        assert!(m.resident_bytes() > 0);
        m.free(PhysAddr(0), 4096);
        assert_eq!(m.resident_bytes(), 0);
        let mut b = [1u8; 16];
        m.read(PhysAddr(0), &mut b);
        assert!(b.iter().all(|&x| x == 0));
    }
}
