//! DEFLATE (RFC 1951) compression/decompression and GZIP (RFC 1952)
//! framing, from scratch.
//!
//! HDFS and Amazon S3 GZIP objects between storage and network operations
//! (Table II); the paper's NDP bank includes a GZIP IP core (Table III).
//! The compressor here uses LZ77 with hash-chain matching and lazy
//! evaluation, emitting fixed-Huffman blocks with a stored-block fallback
//! for incompressible data. The decompressor handles all three DEFLATE
//! block types (stored, fixed Huffman, dynamic Huffman), so output from
//! zlib/gzip implementations inflates correctly too.

use crate::crc32::Crc32;

/// Errors from inflating malformed or truncated streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended in the middle of a block.
    UnexpectedEof,
    /// Reserved block type 0b11 encountered.
    InvalidBlockType,
    /// A Huffman code not present in the code table was read.
    InvalidCode,
    /// A match distance pointed before the start of the output.
    DistanceTooFar,
    /// A stored block's LEN and NLEN fields disagree.
    StoredLengthMismatch,
    /// A dynamic-Huffman code-length table was inconsistent.
    InvalidCodeLengths,
    /// The gzip magic bytes were wrong.
    BadGzipMagic,
    /// The gzip header used an unsupported compression method or flag.
    UnsupportedGzip,
    /// The gzip trailer CRC did not match the inflated data.
    BadChecksum,
    /// The gzip trailer length did not match the inflated data.
    BadLength,
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of compressed input",
            InflateError::InvalidBlockType => "reserved deflate block type",
            InflateError::InvalidCode => "invalid huffman code",
            InflateError::DistanceTooFar => "match distance exceeds produced output",
            InflateError::StoredLengthMismatch => "stored block length check failed",
            InflateError::InvalidCodeLengths => "inconsistent dynamic huffman code lengths",
            InflateError::BadGzipMagic => "not a gzip stream",
            InflateError::UnsupportedGzip => "unsupported gzip method or flags",
            InflateError::BadChecksum => "gzip crc mismatch",
            InflateError::BadLength => "gzip length mismatch",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

// ---------------------------------------------------------------------------
// Bit I/O (DEFLATE packs bits LSB-first; Huffman codes go MSB-first).
// ---------------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes `n` bits of `value`, least-significant bit first.
    fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        self.bit_buf |= (value as u64) << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code: its bits go most-significant first.
    fn write_huffman(&mut self, code: u32, len: u32) {
        let mut reversed = 0u32;
        for i in 0..len {
            reversed |= ((code >> i) & 1) << (len - 1 - i);
        }
        self.write_bits(reversed, len);
    }

    /// Pads to a byte boundary with zero bits.
    fn align_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    fn refill(&mut self) {
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Reads `n` bits LSB-first.
    fn read_bits(&mut self, n: u32) -> Result<u32, InflateError> {
        debug_assert!(n <= 32);
        self.refill();
        if self.bit_count < n {
            return Err(InflateError::UnexpectedEof);
        }
        let v = (self.bit_buf & ((1u64 << n) - 1)) as u32;
        let v = if n == 0 { 0 } else { v };
        self.bit_buf >>= n;
        self.bit_count -= n;
        Ok(v)
    }

    /// Reads one bit.
    fn read_bit(&mut self) -> Result<u32, InflateError> {
        self.read_bits(1)
    }

    /// Discards bits to the next byte boundary and returns the byte offset.
    fn align_byte(&mut self) {
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
    }

    /// Reads `n` whole bytes (must be byte-aligned).
    fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, InflateError> {
        debug_assert!(self.bit_count.is_multiple_of(8));
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if self.bit_count >= 8 {
                out.push((self.bit_buf & 0xFF) as u8);
                self.bit_buf >>= 8;
                self.bit_count -= 8;
            } else if self.pos < self.data.len() {
                out.push(self.data[self.pos]);
                self.pos += 1;
            } else {
                return Err(InflateError::UnexpectedEof);
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Length / distance code tables (RFC 1951 §3.2.5).
// ---------------------------------------------------------------------------

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Maps a match length (3..=258) to `(code_index, extra_bits, extra_value)`.
fn length_to_code(len: u16) -> (usize, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    let idx = match LENGTH_BASE.binary_search(&len) {
        Ok(i) => {
            // Length 258 must use code 285 (the last), not a shorter code
            // that happens to share the base.
            if len == 258 {
                28
            } else {
                i
            }
        }
        Err(i) => i - 1,
    };
    let extra = LENGTH_EXTRA[idx];
    (idx, extra, (len - LENGTH_BASE[idx]) as u32)
}

/// Maps a match distance (1..=32768) to `(code_index, extra_bits, extra)`.
fn dist_to_code(dist: u16) -> (usize, u32, u32) {
    debug_assert!(dist >= 1);
    let idx = match DIST_BASE.binary_search(&dist) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    (idx, DIST_EXTRA[idx], (dist - DIST_BASE[idx]) as u32)
}

/// Fixed Huffman literal/length code for a symbol (RFC 1951 §3.2.6).
fn fixed_lit_code(sym: u32) -> (u32, u32) {
    match sym {
        0..=143 => (0b0011_0000 + sym, 8),
        144..=255 => (0b1_1001_0000 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        280..=287 => (0b1100_0000 + (sym - 280), 8),
        _ => unreachable!("literal/length symbol out of range"),
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman decoding.
// ---------------------------------------------------------------------------

/// A canonical Huffman decoder built from per-symbol code lengths.
struct HuffmanDecoder {
    /// `counts[l]` = number of codes of length `l`.
    counts: [u16; 16],
    /// Symbols ordered by (length, symbol) — canonical order.
    symbols: Vec<u16>,
}

impl HuffmanDecoder {
    fn from_lengths(lengths: &[u8]) -> Result<Self, InflateError> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l as usize >= 16 {
                return Err(InflateError::InvalidCodeLengths);
            }
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        // Over-subscribed tables are invalid; incomplete ones are tolerated
        // (some encoders emit a single-code distance table).
        let mut left = 1i32;
        for &count in &counts[1..16] {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return Err(InflateError::InvalidCodeLengths);
            }
        }
        let mut offsets = [0u16; 16];
        for l in 1..15 {
            offsets[l + 1] = offsets[l] + counts[l];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        Ok(HuffmanDecoder { counts, symbols })
    }

    /// Decodes one symbol, reading bits MSB-of-code-first.
    fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, InflateError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            code |= reader.read_bit()? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(InflateError::InvalidCode)
    }
}

// ---------------------------------------------------------------------------
// Compression: LZ77 with hash chains + fixed-Huffman emission.
// ---------------------------------------------------------------------------

const WINDOW_SIZE: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_CHAIN: usize = 128;

fn hash3(data: &[u8], pos: usize) -> usize {
    let v = (data[pos] as u32) | ((data[pos + 1] as u32) << 8) | ((data[pos + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// One LZ77 token.
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

fn lz77_tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    if data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW_SIZE];

    let find_match = |head: &[usize], prev: &[usize], pos: usize| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0;
        let mut cand = head[hash3(data, pos)];
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut chain = 0;
        while cand != usize::MAX && chain < MAX_CHAIN {
            // Slots in `prev` are recycled modulo the window, so a stale
            // entry can point forward; that also terminates the chain.
            if cand >= pos || pos - cand > WINDOW_SIZE {
                break;
            }
            let mut l = 0;
            while l < max_len && data[cand + l] == data[pos + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = pos - cand;
                if l == max_len {
                    break;
                }
            }
            cand = prev[cand % WINDOW_SIZE];
            chain += 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    };

    let insert = |head: &mut [usize], prev: &mut [usize], pos: usize| {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            prev[pos % WINDOW_SIZE] = head[h];
            head[h] = pos;
        }
    };

    let mut pos = 0;
    let mut pending: Option<(usize, usize)> = None; // lazy-match candidate at pos-1
    while pos < data.len() {
        let here = find_match(&head, &prev, pos);
        match (pending.take(), here) {
            (Some((plen, _)), Some((len, dist))) if len > plen => {
                // The match starting now is better: emit the previous byte
                // as a literal and keep evaluating from here.
                tokens.push(Token::Literal(data[pos - 1]));
                insert(&mut head, &mut prev, pos);
                pending = Some((len, dist));
                pos += 1;
                // Next iteration compares the deferred match (now at pos-1)
                // against whatever starts at the new pos.
                continue;
            }
            (Some((plen, pdist)), _) => {
                // Previous position's match wins; emit it (it covers pos-1..).
                tokens.push(Token::Match {
                    len: plen as u16,
                    dist: pdist as u16,
                });
                // Insert hash entries for the matched span (skipping pos-1,
                // already inserted).
                let end = (pos - 1) + plen;
                while pos < end {
                    insert(&mut head, &mut prev, pos);
                    pos += 1;
                }
                continue;
            }
            (None, Some((len, dist))) => {
                // Defer: maybe pos+1 has a longer match (lazy evaluation).
                insert(&mut head, &mut prev, pos);
                pending = Some((len, dist));
                pos += 1;
                continue;
            }
            (None, None) => {
                tokens.push(Token::Literal(data[pos]));
                insert(&mut head, &mut prev, pos);
                pos += 1;
            }
        }
    }
    if let Some((plen, pdist)) = pending {
        tokens.push(Token::Match {
            len: plen as u16,
            dist: pdist as u16,
        });
    }
    tokens
}

/// Compresses `data` into a raw DEFLATE stream.
///
/// Emits a single fixed-Huffman block, or a stored block when that would be
/// smaller (incompressible input).
pub fn deflate_compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77_tokenize(data);
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // BTYPE = fixed Huffman
    for t in &tokens {
        match *t {
            Token::Literal(b) => {
                let (code, len) = fixed_lit_code(b as u32);
                w.write_huffman(code, len);
            }
            Token::Match { len, dist } => {
                let (lidx, lextra_bits, lextra) = length_to_code(len);
                let (code, clen) = fixed_lit_code(257 + lidx as u32);
                w.write_huffman(code, clen);
                if lextra_bits > 0 {
                    w.write_bits(lextra, lextra_bits);
                }
                let (didx, dextra_bits, dextra) = dist_to_code(dist);
                w.write_huffman(didx as u32, 5);
                if dextra_bits > 0 {
                    w.write_bits(dextra, dextra_bits);
                }
            }
        }
    }
    let (eob_code, eob_len) = fixed_lit_code(256);
    w.write_huffman(eob_code, eob_len);
    let compressed = w.finish();

    // Stored-block fallback: 5 bytes of framing per 65535-byte chunk.
    let stored_size = 1 + data.len() + 5 * data.len().div_ceil(65535).max(1);
    if compressed.len() > stored_size {
        deflate_store(data)
    } else {
        compressed
    }
}

/// Emits `data` as uncompressed stored blocks (the escape hatch for
/// incompressible input).
pub(crate) fn deflate_store(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[][..]]
    } else {
        data.chunks(65535).collect()
    };
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i == chunks.len() - 1;
        w.write_bits(last as u32, 1);
        w.write_bits(0, 2); // BTYPE = stored
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bits(len as u32, 16);
        w.write_bits(!len as u32, 16);
        for &b in *chunk {
            w.write_bits(b as u32, 8);
        }
    }
    w.finish()
}

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns an [`InflateError`] for truncated or malformed input.
pub fn deflate_decompress(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => inflate_stored(&mut r, &mut out)?,
            1 => {
                let (lit, dist) = fixed_decoders();
                inflate_block(&mut r, &mut out, &lit, &dist)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist)?;
            }
            _ => return Err(InflateError::InvalidBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), InflateError> {
    r.align_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(InflateError::StoredLengthMismatch);
    }
    out.extend(r.read_bytes(len as usize)?);
    Ok(())
}

fn fixed_decoders() -> (HuffmanDecoder, HuffmanDecoder) {
    let mut lit_lengths = [0u8; 288];
    for (sym, l) in lit_lengths.iter_mut().enumerate() {
        *l = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    let dist_lengths = [5u8; 30];
    (
        HuffmanDecoder::from_lengths(&lit_lengths).expect("fixed table is valid"),
        HuffmanDecoder::from_lengths(&dist_lengths).expect("fixed table is valid"),
    )
}

/// Order in which code-length-code lengths are transmitted (RFC 1951).
const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

fn read_dynamic_tables(
    r: &mut BitReader<'_>,
) -> Result<(HuffmanDecoder, HuffmanDecoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    let mut clc_lengths = [0u8; 19];
    for &idx in CLC_ORDER.iter().take(hclen) {
        clc_lengths[idx] = r.read_bits(3)? as u8;
    }
    let clc = HuffmanDecoder::from_lengths(&clc_lengths)?;
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(InflateError::InvalidCodeLengths);
                }
                let repeat = 3 + r.read_bits(2)? as usize;
                let prev = lengths[i - 1];
                for _ in 0..repeat {
                    if i >= lengths.len() {
                        return Err(InflateError::InvalidCodeLengths);
                    }
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 => {
                let repeat = 3 + r.read_bits(3)? as usize;
                i += repeat;
            }
            18 => {
                let repeat = 11 + r.read_bits(7)? as usize;
                i += repeat;
            }
            _ => return Err(InflateError::InvalidCode),
        }
    }
    if i > lengths.len() {
        return Err(InflateError::InvalidCodeLengths);
    }
    let lit = HuffmanDecoder::from_lengths(&lengths[..hlit])?;
    let dist = HuffmanDecoder::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &HuffmanDecoder,
    dist: &HuffmanDecoder,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = (sym - 257) as usize;
                let len = LENGTH_BASE[idx] as usize + r.read_bits(LENGTH_EXTRA[idx])? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(InflateError::InvalidCode);
                }
                let distance = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym])? as usize;
                if distance > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                let start = out.len() - distance;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(InflateError::InvalidCode),
        }
    }
}

// ---------------------------------------------------------------------------
// GZIP framing (RFC 1952).
// ---------------------------------------------------------------------------

/// Wraps `data` in a gzip member: 10-byte header, DEFLATE body, CRC32 +
/// length trailer.
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![
        0x1f, 0x8b, // magic
        0x08, // CM = deflate
        0x00, // FLG
        0, 0, 0, 0,    // MTIME
        0x00, // XFL
        0xff, // OS = unknown
    ];
    out.extend(deflate_compress(data));
    let mut crc = Crc32::new();
    crc.update(data);
    out.extend(crc.finalize().to_le_bytes());
    out.extend((data.len() as u32).to_le_bytes());
    out
}

/// Unwraps and inflates a gzip member, verifying the trailer.
///
/// # Errors
///
/// Returns an [`InflateError`] on framing, CRC, or inflate failures.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    if data.len() < 18 {
        return Err(InflateError::UnexpectedEof);
    }
    if data[0] != 0x1f || data[1] != 0x8b {
        return Err(InflateError::BadGzipMagic);
    }
    if data[2] != 0x08 {
        return Err(InflateError::UnsupportedGzip);
    }
    let flg = data[3];
    if flg & 0b1110_0000 != 0 {
        return Err(InflateError::UnsupportedGzip);
    }
    let mut pos = 10;
    if flg & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(InflateError::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    if flg & 0x08 != 0 {
        // FNAME: zero-terminated
        pos += data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(InflateError::UnexpectedEof)?
            + 1;
    }
    if flg & 0x10 != 0 {
        // FCOMMENT
        pos += data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(InflateError::UnexpectedEof)?
            + 1;
    }
    if flg & 0x02 != 0 {
        // FHCRC
        pos += 2;
    }
    if pos + 8 > data.len() {
        return Err(InflateError::UnexpectedEof);
    }
    let body = &data[pos..data.len() - 8];
    let inflated = deflate_decompress(body)?;
    let trailer = &data[data.len() - 8..];
    let expect_crc = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes"));
    let expect_len = u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&inflated);
    if crc.finalize() != expect_crc {
        return Err(InflateError::BadChecksum);
    }
    if inflated.len() as u32 != expect_len {
        return Err(InflateError::BadLength);
    }
    Ok(inflated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let compressed = deflate_compress(data);
        let decompressed = deflate_decompress(&compressed).expect("valid stream");
        assert_eq!(
            decompressed,
            data,
            "roundtrip failed for {} bytes",
            data.len()
        );
    }

    #[test]
    fn roundtrip_basic_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello hello hello hello hello");
        roundtrip(&vec![0u8; 100_000]);
        let text = b"It is a truth universally acknowledged, that a single man in \
                     possession of a good fortune, must be in want of a wife. "
            .repeat(50);
        roundtrip(&text);
    }

    #[test]
    fn roundtrip_binary_patterns() {
        let ramp: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        roundtrip(&ramp);
        // Pseudorandom (incompressible) data exercises the stored fallback.
        let mut x = 0x12345678u32;
        let rand: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&rand);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"abcabcabc".repeat(1000);
        let compressed = deflate_compress(&data);
        assert!(
            compressed.len() < data.len() / 10,
            "{} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn incompressible_data_uses_stored_fallback() {
        let mut x = 0x9E3779B9u32;
        let rand: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let compressed = deflate_compress(&rand);
        // Stored framing: 5 bytes per 64k chunk + 1.
        assert!(compressed.len() <= rand.len() + 16);
    }

    #[test]
    fn stored_blocks_roundtrip() {
        let data = b"stored block payload".repeat(10_000); // > 64 KiB
        let stored = deflate_store(&data);
        assert_eq!(deflate_decompress(&stored).unwrap(), data);
    }

    #[test]
    fn inflate_rejects_truncation() {
        let data = b"some reasonably long input with repeats repeats repeats".repeat(10);
        let compressed = deflate_compress(&data);
        for cut in [0, 1, compressed.len() / 2, compressed.len() - 1] {
            let r = deflate_decompress(&compressed[..cut]);
            assert!(
                r.is_err() || r.unwrap() != data,
                "cut {cut} must not roundtrip"
            );
        }
    }

    #[test]
    fn inflate_rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=3.
        let bad = [0b0000_0111u8];
        assert_eq!(
            deflate_decompress(&bad),
            Err(InflateError::InvalidBlockType)
        );
    }

    #[test]
    fn inflate_rejects_bad_stored_length() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bits(5, 16);
        w.write_bits(1234, 16); // wrong NLEN
        let bad = w.finish();
        assert_eq!(
            deflate_decompress(&bad),
            Err(InflateError::StoredLengthMismatch)
        );
    }

    /// A raw deflate stream with dynamic Huffman tables produced by zlib
    /// (level 9, wbits −15) — exercises the dynamic table reader against a
    /// third-party encoder. Fixture generated in `tests/data/`.
    #[test]
    fn inflate_dynamic_huffman_stream_from_zlib() {
        let stream = include_bytes!("../tests/data/dynamic.deflate");
        let expected = include_bytes!("../tests/data/dynamic.raw");
        assert_eq!((stream[0] >> 1) & 3, 2, "fixture must be a dynamic block");
        let out = deflate_decompress(stream).expect("zlib-produced stream");
        assert_eq!(out, expected);
    }

    /// A gzip member produced by CPython's gzip module round-trips through
    /// our decompressor, trailer checks included.
    #[test]
    fn gunzip_zlib_produced_member() {
        let gz = include_bytes!("../tests/data/lorem.gz");
        let expected = include_bytes!("../tests/data/dynamic.raw");
        assert_eq!(gzip_decompress(gz).unwrap(), expected);
    }

    #[test]
    fn gzip_roundtrip_and_trailer_checks() {
        let data = b"gzip framing test data, with some repetition repetition".repeat(20);
        let gz = gzip_compress(&data);
        assert_eq!(&gz[..2], &[0x1f, 0x8b]);
        assert_eq!(gzip_decompress(&gz).unwrap(), data);

        // Corrupt the CRC.
        let mut bad = gz.clone();
        let n = bad.len();
        bad[n - 5] ^= 0xFF;
        assert_eq!(gzip_decompress(&bad), Err(InflateError::BadChecksum));

        // Corrupt the magic.
        let mut bad = gz.clone();
        bad[0] = 0;
        assert_eq!(gzip_decompress(&bad), Err(InflateError::BadGzipMagic));
    }

    #[test]
    fn gzip_rejects_short_input() {
        assert_eq!(
            gzip_decompress(&[0x1f, 0x8b]),
            Err(InflateError::UnexpectedEof)
        );
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_to_code(3), (0, 0, 0));
        assert_eq!(length_to_code(10), (7, 0, 0));
        assert_eq!(length_to_code(11), (8, 1, 0));
        assert_eq!(length_to_code(12), (8, 1, 1));
        assert_eq!(length_to_code(258), (28, 0, 0));
        // 257 must use code 284 with extra 26, not code 285.
        assert_eq!(length_to_code(257), (27, 5, 30));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_to_code(1), (0, 0, 0));
        assert_eq!(dist_to_code(4), (3, 0, 0));
        assert_eq!(dist_to_code(5), (4, 1, 0));
        assert_eq!(dist_to_code(32768), (29, 13, 8191));
    }

    #[test]
    fn fixed_code_table_matches_rfc() {
        assert_eq!(fixed_lit_code(0), (0x30, 8));
        assert_eq!(fixed_lit_code(143), (0xBF, 8));
        assert_eq!(fixed_lit_code(144), (0x190, 9));
        assert_eq!(fixed_lit_code(255), (0x1FF, 9));
        assert_eq!(fixed_lit_code(256), (0, 7));
        assert_eq!(fixed_lit_code(279), (0x17, 7));
        assert_eq!(fixed_lit_code(280), (0xC0, 8));
        assert_eq!(fixed_lit_code(287), (0xC7, 8));
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xABCD, 16);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bit().unwrap(), 1);
    }
}
