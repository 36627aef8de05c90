//! Shared FNV-1a digesting.
//!
//! One 64-bit FNV-1a implementation serves every digest in the workspace:
//! the runtime's [`memory_digest`](crate::OmpRuntime::memory_digest) over
//! live memory contents, the batch driver's content-addressed request
//! digests (capture text + canonical request encoding), and any future
//! fingerprinting. Keeping a single implementation pins the constants in
//! one place and lets tests assert known vectors once.
//!
//! FNV-1a is not cryptographic — it is a fast, stable fingerprint. The
//! result cache stores the full canonical encoding next to each digest and
//! verifies it on lookup, so a (vanishingly unlikely) collision degrades to
//! a cache miss, never to a wrong result.

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use omp_offload::digest::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"foobar");
/// assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv1a {
            state: FNV_OFFSET_BASIS,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb `n` zero bytes: the state `write(&vec![0; n])` leaves, with
    /// no buffer of that size. Byte-serial over one static zero page, so it
    /// costs O(n) like [`write`](Self::write).
    pub fn write_zeros(&mut self, mut n: u64) {
        static ZERO_PAGE: [u8; 4096] = [0; 4096];
        while n > 0 {
            let take = n.min(ZERO_PAGE.len() as u64) as usize;
            self.write(&ZERO_PAGE[..take]);
            n -= take as u64;
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The digest of everything absorbed so far. The hasher stays usable;
    /// further writes continue from this state.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot digest of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64-bit test vectors; these pin the constants and
    /// byte order for every digest user in the workspace (memory digests,
    /// batch request digests, cache keys).
    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    proptest::proptest! {
        /// `write_zeros(n)` leaves the state `write(&vec![0; n])` leaves,
        /// from random start states, at every page-boundary length and at
        /// one random length.
        #[test]
        fn write_zeros_equals_writing_zeros(
            prefix in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
            random_n in 0u64..20_000,
        ) {
            let mut start = Fnv1a::new();
            start.write(&prefix);
            for n in [0, 1, 4095, 4096, 4097, 3 * 4096 + 5, random_n] {
                let mut zeros = start;
                zeros.write_zeros(n);
                let mut bytes = start;
                bytes.write(&vec![0u8; n as usize]);
                proptest::prop_assert_eq!(zeros, bytes, "n = {}", n);
            }
        }
    }

    #[test]
    fn write_str_matches_bytes() {
        let mut a = Fnv1a::new();
        a.write_str("mapir v1\n");
        assert_eq!(a.finish(), fnv1a(b"mapir v1\n"));
    }
}
