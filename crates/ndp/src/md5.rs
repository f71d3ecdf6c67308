//! MD5 message digest (RFC 1321).
//!
//! MD5 is the integrity check OpenStack Swift, Amazon S3, and Azure Blob
//! perform on every object (Table II of the paper), and the hash the
//! SSD→Processing→NIC microbenchmark of Figure 11b computes.
//!
//! [`md5`] skips the work of a leading run of all-zero 4 KiB pages, the
//! common input in the simulator: flash nobody wrote reads back as zeros,
//! as a deallocated NVMe block does. MD5's chaining state after a run of
//! whole 64-byte blocks depends only on those blocks, not on what follows
//! or on the message length (the length enters only in the final padded
//! block). So the state after `k` zero pages is a constant, computed once
//! per process for `k ≤ 256` (1 MiB), and [`md5`] resumes from it with
//! the byte count set to `4096·k`. The zero run is found by scanning the
//! input itself, so the digest is exact for every input; a longer run is
//! hashed on from the 1 MiB state as usual.

use std::sync::OnceLock;

/// `K[i] = floor(2^32 * |sin(i + 1)|`, precomputed as the RFC specifies.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 state.
///
/// ```
/// use dcs_ndp::md5::Md5;
/// let mut h = Md5::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(dcs_ndp::to_hex(&h.finalize()), "5eb63bbbe01eeed093cb22bb8f5acdc3");
/// ```
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything fit in the partial buffer; the remainder
                // handling below must not clobber `buf_len`.
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            self.compress(block.try_into().expect("64-byte chunk"));
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Completes the hash, returning the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length is appended outside of update (update would recount it).
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One 64-byte block, in RFC 1321's four-round form: fully unrolled,
    /// so every message index, constant and shift is a literal.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        // The auxiliary functions. `f` is `(x & y) | (!x & z)` as a
        // select; `g` is `(x & z) | (y & !z)` with the OR as an add (the
        // two terms share no bit), so `y & !z` joins the sum before `x`,
        // the previous step's result, is ready.
        macro_rules! f {
            ($x:expr, $y:expr, $z:expr) => {
                $z ^ ($x & ($y ^ $z))
            };
        }
        macro_rules! g {
            ($x:expr, $y:expr, $z:expr) => {
                ($x & $z).wrapping_add($y & !$z)
            };
        }
        macro_rules! h {
            ($x:expr, $y:expr, $z:expr) => {
                $x ^ $y ^ $z
            };
        }
        macro_rules! i {
            ($x:expr, $y:expr, $z:expr) => {
                $y ^ ($x | !$z)
            };
        }
        // a = b + ((a + op(b, c, d) + m + k) <<< s)
        macro_rules! step {
            ($op:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($op!($b, $c, $d))
                        .wrapping_add($m)
                        .wrapping_add($k)
                        .rotate_left($s),
                );
            };
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        // Round 1.
        step!(f, a, b, c, d, m[0], K[0], 7);
        step!(f, d, a, b, c, m[1], K[1], 12);
        step!(f, c, d, a, b, m[2], K[2], 17);
        step!(f, b, c, d, a, m[3], K[3], 22);
        step!(f, a, b, c, d, m[4], K[4], 7);
        step!(f, d, a, b, c, m[5], K[5], 12);
        step!(f, c, d, a, b, m[6], K[6], 17);
        step!(f, b, c, d, a, m[7], K[7], 22);
        step!(f, a, b, c, d, m[8], K[8], 7);
        step!(f, d, a, b, c, m[9], K[9], 12);
        step!(f, c, d, a, b, m[10], K[10], 17);
        step!(f, b, c, d, a, m[11], K[11], 22);
        step!(f, a, b, c, d, m[12], K[12], 7);
        step!(f, d, a, b, c, m[13], K[13], 12);
        step!(f, c, d, a, b, m[14], K[14], 17);
        step!(f, b, c, d, a, m[15], K[15], 22);
        // Round 2.
        step!(g, a, b, c, d, m[1], K[16], 5);
        step!(g, d, a, b, c, m[6], K[17], 9);
        step!(g, c, d, a, b, m[11], K[18], 14);
        step!(g, b, c, d, a, m[0], K[19], 20);
        step!(g, a, b, c, d, m[5], K[20], 5);
        step!(g, d, a, b, c, m[10], K[21], 9);
        step!(g, c, d, a, b, m[15], K[22], 14);
        step!(g, b, c, d, a, m[4], K[23], 20);
        step!(g, a, b, c, d, m[9], K[24], 5);
        step!(g, d, a, b, c, m[14], K[25], 9);
        step!(g, c, d, a, b, m[3], K[26], 14);
        step!(g, b, c, d, a, m[8], K[27], 20);
        step!(g, a, b, c, d, m[13], K[28], 5);
        step!(g, d, a, b, c, m[2], K[29], 9);
        step!(g, c, d, a, b, m[7], K[30], 14);
        step!(g, b, c, d, a, m[12], K[31], 20);
        // Round 3.
        step!(h, a, b, c, d, m[5], K[32], 4);
        step!(h, d, a, b, c, m[8], K[33], 11);
        step!(h, c, d, a, b, m[11], K[34], 16);
        step!(h, b, c, d, a, m[14], K[35], 23);
        step!(h, a, b, c, d, m[1], K[36], 4);
        step!(h, d, a, b, c, m[4], K[37], 11);
        step!(h, c, d, a, b, m[7], K[38], 16);
        step!(h, b, c, d, a, m[10], K[39], 23);
        step!(h, a, b, c, d, m[13], K[40], 4);
        step!(h, d, a, b, c, m[0], K[41], 11);
        step!(h, c, d, a, b, m[3], K[42], 16);
        step!(h, b, c, d, a, m[6], K[43], 23);
        step!(h, a, b, c, d, m[9], K[44], 4);
        step!(h, d, a, b, c, m[12], K[45], 11);
        step!(h, c, d, a, b, m[15], K[46], 16);
        step!(h, b, c, d, a, m[2], K[47], 23);
        // Round 4.
        step!(i, a, b, c, d, m[0], K[48], 6);
        step!(i, d, a, b, c, m[7], K[49], 10);
        step!(i, c, d, a, b, m[14], K[50], 15);
        step!(i, b, c, d, a, m[5], K[51], 21);
        step!(i, a, b, c, d, m[12], K[52], 6);
        step!(i, d, a, b, c, m[3], K[53], 10);
        step!(i, c, d, a, b, m[10], K[54], 15);
        step!(i, b, c, d, a, m[1], K[55], 21);
        step!(i, a, b, c, d, m[8], K[56], 6);
        step!(i, d, a, b, c, m[15], K[57], 10);
        step!(i, c, d, a, b, m[6], K[58], 15);
        step!(i, b, c, d, a, m[13], K[59], 21);
        step!(i, a, b, c, d, m[4], K[60], 6);
        step!(i, d, a, b, c, m[11], K[61], 10);
        step!(i, c, d, a, b, m[2], K[62], 15);
        step!(i, b, c, d, a, m[9], K[63], 21);
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// Bytes per page of the zero-prefix table.
const ZERO_PAGE: usize = 4096;

/// Longest zero prefix the table covers, in pages (1 MiB).
const ZERO_PAGES_MAX: usize = 256;

/// Entry `k` is the chaining state after hashing `k` zero pages from the
/// IV (entry 0 is the IV itself), built on first use.
fn zero_page_states() -> &'static [[u32; 4]; ZERO_PAGES_MAX + 1] {
    static STATES: OnceLock<[[u32; 4]; ZERO_PAGES_MAX + 1]> = OnceLock::new();
    STATES.get_or_init(|| {
        let mut h = Md5::new();
        let mut states = [h.state; ZERO_PAGES_MAX + 1];
        for state in &mut states[1..] {
            for _ in 0..ZERO_PAGE / 64 {
                h.compress(&[0; 64]);
            }
            *state = h.state;
        }
        states
    })
}

/// Whole zero pages at the start of `data`, at most [`ZERO_PAGES_MAX`].
/// OR-folds 64-byte chunks and stops at the first non-zero one.
fn leading_zero_pages(data: &[u8]) -> usize {
    data.chunks_exact(ZERO_PAGE)
        .take(ZERO_PAGES_MAX)
        .take_while(|page| {
            page.chunks_exact(64)
                .all(|chunk| chunk.iter().fold(0, |acc, &b| acc | b) == 0)
        })
        .count()
}

/// One-shot MD5 of `data`. A leading run of zero pages resumes from a
/// precomputed state (see the module docs); the digest is the same.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let pages = leading_zero_pages(data);
    let mut h = Md5::new();
    h.state = zero_page_states()[pages];
    h.total_len = (pages * ZERO_PAGE) as u64;
    h.update(&data[pages * ZERO_PAGE..]);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let vectors: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in vectors {
            assert_eq!(to_hex(&md5(input)), expected, "input {input:?}");
        }
    }

    /// Digests of the pattern `i % 251` at lengths around the padding
    /// and block boundaries, plus 1 MiB. Computed once with Python's
    /// `hashlib.md5(bytes(i % 251 for i in range(n))).hexdigest()`.
    #[test]
    fn pinned_pattern_digests() {
        let pinned: [(usize, &str); 7] = [
            (55, "6912ee65fff2d9f9ce2508cddf8bcda0"),
            (56, "51fdd1acda72405dfdfa03fcb85896d7"),
            (63, "48a6295221902e8e0938f773a7185e72"),
            (64, "b2d3f56bc197fd985d5965079b5e7148"),
            (65, "8bd7053801c768420faf816fadba971c"),
            (4095, "93e25733058beb5eb38c4f6db613da70"),
            (1 << 20, "8f293a2f6c19b345152f7a49bb4c643c"),
        ];
        for (len, expected) in pinned {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(to_hex(&md5(&data)), expected, "len {len}");
        }
    }

    /// Zero inputs, computed with Python's
    /// `hashlib.md5(bytes(n)).hexdigest()`: both resume from the
    /// zero-page table (one page, and its last entry).
    #[test]
    fn pinned_zero_digests() {
        assert_eq!(to_hex(&md5(&[0; 4096])), "620f0b67a91f7f74151bc5be745b7110");
        assert_eq!(
            to_hex(&md5(&vec![0; 1 << 20])),
            "b6d81b360a5672d80c27430f39153e2c"
        );
    }

    /// The zero-prefix path against plain streaming `Md5::update`, on
    /// zero inputs around the block, page and table boundaries and on
    /// each of them with one non-zero byte planted inside, before or
    /// after a page boundary.
    #[test]
    fn zero_prefix_matches_streaming() {
        let streaming = |data: &[u8]| {
            let mut h = Md5::new();
            h.update(data);
            h.finalize()
        };
        const MIB: usize = 1 << 20;
        let lens = [0, 1, 63, 64, 4095, 4096, 4097, MIB, MIB + 3 * 4096 + 7];
        for len in lens {
            let mut data = vec![0u8; len];
            assert_eq!(md5(&data), streaming(&data), "zeros, len {len}");
            for at in [0, 63, 64, 4095, 4096, MIB - 1] {
                if at < len {
                    data[at] = 0x5a;
                    assert_eq!(md5(&data), streaming(&data), "len {len}, byte at {at}");
                    data[at] = 0;
                }
            }
        }
    }

    #[test]
    fn leading_zero_pages_counts_whole_pages_only() {
        let mut data = vec![0u8; 3 * 4096 + 100];
        assert_eq!(leading_zero_pages(&data), 3);
        data[2 * 4096 + 4095] = 1;
        assert_eq!(leading_zero_pages(&data), 2);
        data[0] = 1;
        assert_eq!(leading_zero_pages(&data), 0);
        assert_eq!(leading_zero_pages(&[0; 4095]), 0);
        assert_eq!(leading_zero_pages(&vec![0; 300 * 4096]), ZERO_PAGES_MAX);
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let reference = md5(&data);
        for split in [0, 1, 63, 64, 65, 128, 299, 300] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // 55/56/57 bytes straddle the padding boundary; 64 is one block.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Md5::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), md5(&data), "len {len}");
        }
    }
}
