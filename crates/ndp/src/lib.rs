//! # dcs-ndp — near-device processing algorithms, from scratch
//!
//! Table II of the DCS-ctrl paper catalogs the intermediate data processing
//! that scale-out storage applications perform between device operations:
//! data-integrity checks (MD5, CRC32, SHA), encryption (AES-256), and
//! compression (GZIP). The paper offloads these to FPGA IP cores inside the
//! HDC Engine (Table III); this crate supplies *functionally real*
//! implementations so that the simulated data path is end-to-end
//! verifiable: the MD5 an NDP unit produces is the MD5 of the exact bytes
//! that crossed the simulated fabric.
//!
//! Everything is implemented from first principles on `std` only:
//!
//! * [`md5`] — RFC 1321, incremental and one-shot.
//! * [`sha1`] — RFC 3174 / FIPS 180-4.
//! * [`sha256`] — FIPS 180-4.
//! * [`crc32`] — IEEE 802.3 (the polynomial HDFS and Ethernet use).
//! * [`aes`] — AES-256 block cipher with ECB and CTR modes.
//! * [`deflate`] — DEFLATE (RFC 1951) compression and decompression plus
//!   the GZIP (RFC 1952) framing.
//!
//! [`NdpFunction`] is the uniform dispatch surface the HDC Engine's NDP
//! units use.
//!
//! ```
//! use dcs_ndp::{md5::md5, crc32::crc32};
//! assert_eq!(hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
//! ```

pub mod aes;
pub mod crc32;
pub mod deflate;
pub mod function;
pub mod md5;
pub mod sha1;
pub mod sha256;

pub use function::{NdpError, NdpFunction, NdpOutput};

/// Formats bytes as lowercase hex (handy for digest comparison in tests and
/// examples).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("writing to String cannot fail");
    }
    s
}

/// Parses a lowercase/uppercase hex string into bytes.
///
/// # Panics
///
/// Panics on odd length or non-hex characters (test helper, not a parser
/// for untrusted input).
#[cfg(test)]
pub(crate) fn from_hex(s: &str) -> Vec<u8> {
    assert!(
        s.len().is_multiple_of(2),
        "hex string must have even length"
    );
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("invalid hex digit"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0x00, 0xde, 0xad, 0xbe, 0xef, 0xff];
        assert_eq!(to_hex(&bytes), "00deadbeefff");
        assert_eq!(from_hex("00deadbeefff"), bytes);
        assert_eq!(from_hex("DEADBEEF"), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn from_hex_rejects_odd_length() {
        from_hex("abc");
    }
}
