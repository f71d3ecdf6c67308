//! The uniform dispatch surface for NDP units.
//!
//! The HDC Engine's near-device processing bank (§III-D) exposes a small
//! menu of functions — the rows of Table III — selected per D2D command by
//! a function identifier plus auxiliary data (keys, nonces). This module
//! gives every function one calling convention so the engine, the GPU
//! baseline, and the host-CPU baseline all run the *same* computation and
//! end-to-end tests can compare their outputs byte for byte.

use crate::aes::Aes256;
use crate::crc32::crc32;
use crate::deflate::{gzip_compress, gzip_decompress};
use crate::md5::md5;
use crate::sha1::sha1;
use crate::sha256::sha256;

/// The intermediate-processing functions of Table III (plus the inverse
/// transforms needed for receive paths).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NdpFunction {
    /// MD5 digest (Swift/S3/Azure object integrity).
    Md5,
    /// SHA-1 digest.
    Sha1,
    /// SHA-256 digest.
    Sha256,
    /// CRC-32 checksum (HDFS block integrity).
    Crc32,
    /// AES-256-CTR encryption (aux = 32-byte key ‖ 16-byte nonce).
    Aes256Encrypt,
    /// AES-256-CTR decryption (same aux layout; CTR is self-inverse).
    Aes256Decrypt,
    /// GZIP compression.
    GzipCompress,
    /// GZIP decompression.
    GzipDecompress,
}

impl NdpFunction {
    /// All functions, in Table III row order (the inverse transforms share
    /// their row's hardware).
    pub const ALL: [NdpFunction; 8] = [
        NdpFunction::Md5,
        NdpFunction::Sha1,
        NdpFunction::Sha256,
        NdpFunction::Crc32,
        NdpFunction::Aes256Encrypt,
        NdpFunction::Aes256Decrypt,
        NdpFunction::GzipCompress,
        NdpFunction::GzipDecompress,
    ];

    /// Short name used in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            NdpFunction::Md5 => "md5",
            NdpFunction::Sha1 => "sha1",
            NdpFunction::Sha256 => "sha256",
            NdpFunction::Crc32 => "crc32",
            NdpFunction::Aes256Encrypt => "aes256-encrypt",
            NdpFunction::Aes256Decrypt => "aes256-decrypt",
            NdpFunction::GzipCompress => "gzip-compress",
            NdpFunction::GzipDecompress => "gzip-decompress",
        }
    }

    /// Digest length in bytes for digest functions, `None` for transforms.
    pub fn digest_len(self) -> Option<usize> {
        match self {
            NdpFunction::Md5 => Some(16),
            NdpFunction::Sha1 => Some(20),
            NdpFunction::Sha256 => Some(32),
            NdpFunction::Crc32 => Some(4),
            _ => None,
        }
    }

    /// Whether the function leaves the data stream unchanged and only
    /// produces a digest (integrity checks) rather than transforming it.
    pub fn is_digest(self) -> bool {
        matches!(
            self,
            NdpFunction::Md5 | NdpFunction::Sha1 | NdpFunction::Sha256 | NdpFunction::Crc32
        )
    }

    /// The function's own rule for `aux`: the AES variants take the
    /// 32-byte key followed by the 16-byte CTR nonce; the rest ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`NdpError::BadAux`] if `aux` is malformed.
    pub fn check_aux(self, aux: &[u8]) -> Result<(), NdpError> {
        match self {
            NdpFunction::Aes256Encrypt | NdpFunction::Aes256Decrypt if aux.len() != 48 => {
                Err(NdpError::BadAux {
                    function: self,
                    expected: "32-byte key followed by 16-byte nonce",
                })
            }
            _ => Ok(()),
        }
    }

    /// Executes the function over `input` with the parameters `aux`
    /// ([`NdpFunction::check_aux`]).
    ///
    /// # Errors
    ///
    /// Returns [`NdpError`] if `aux` is malformed or (for
    /// [`NdpFunction::GzipDecompress`]) the input is not a valid gzip
    /// stream.
    pub fn apply(self, input: &[u8], aux: &[u8]) -> Result<NdpOutput, NdpError> {
        self.check_aux(aux)?;
        match self {
            NdpFunction::Md5 => Ok(NdpOutput::digest(md5(input).to_vec())),
            NdpFunction::Sha1 => Ok(NdpOutput::digest(sha1(input).to_vec())),
            NdpFunction::Sha256 => Ok(NdpOutput::digest(sha256(input).to_vec())),
            NdpFunction::Crc32 => Ok(NdpOutput::digest(crc32(input).to_be_bytes().to_vec())),
            NdpFunction::Aes256Encrypt | NdpFunction::Aes256Decrypt => {
                let key: [u8; 32] = aux[..32].try_into().expect("length checked");
                let nonce: [u8; 16] = aux[32..].try_into().expect("length checked");
                let aes = Aes256::new(&key);
                Ok(NdpOutput::transformed(aes.ctr_crypt(&nonce, input)))
            }
            NdpFunction::GzipCompress => Ok(NdpOutput::transformed(gzip_compress(input))),
            NdpFunction::GzipDecompress => gzip_decompress(input)
                .map(NdpOutput::transformed)
                .map_err(|source| NdpError::Inflate { source }),
        }
    }
}

impl std::fmt::Display for NdpFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an NDP function produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NdpOutput {
    /// For digest functions: the digest bytes; the data stream itself is
    /// unchanged. For transforms: `None`.
    pub digest: Option<Vec<u8>>,
    /// For transform functions: the transformed data that continues down
    /// the D2D pipeline. For digests: `None` (caller keeps the input).
    pub data: Option<Vec<u8>>,
}

impl NdpOutput {
    fn digest(d: Vec<u8>) -> Self {
        NdpOutput {
            digest: Some(d),
            data: None,
        }
    }

    fn transformed(d: Vec<u8>) -> Self {
        NdpOutput {
            digest: None,
            data: Some(d),
        }
    }

    /// The bytes that flow onward: the transformed data, or `input` itself
    /// for digest functions.
    #[cfg(test)]
    pub(crate) fn forward_data<'a>(&'a self, input: &'a [u8]) -> &'a [u8] {
        self.data.as_deref().unwrap_or(input)
    }
}

/// Errors from [`NdpFunction::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdpError {
    /// The auxiliary parameter block had the wrong shape.
    BadAux {
        /// Function that rejected the aux data.
        function: NdpFunction,
        /// What the function expected.
        expected: &'static str,
    },
    /// Decompression failed.
    Inflate {
        /// The underlying inflate failure.
        source: crate::deflate::InflateError,
    },
}

impl std::fmt::Display for NdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdpError::BadAux { function, expected } => {
                write!(f, "{function} requires aux data: {expected}")
            }
            NdpError::Inflate { source } => write!(f, "decompression failed: {source}"),
        }
    }
}

impl std::error::Error for NdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NdpError::Inflate { source } => Some(source),
            NdpError::BadAux { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    #[test]
    fn digest_functions_pass_data_through() {
        let input = b"integrity-checked payload";
        for f in [
            NdpFunction::Md5,
            NdpFunction::Sha1,
            NdpFunction::Sha256,
            NdpFunction::Crc32,
        ] {
            let out = f.apply(input, &[]).unwrap();
            assert!(f.is_digest());
            assert!(out.digest.is_some(), "{f}");
            assert_eq!(out.forward_data(input), input, "{f}");
        }
    }

    #[test]
    fn md5_digest_matches_direct_call() {
        let out = NdpFunction::Md5.apply(b"abc", &[]).unwrap();
        assert_eq!(
            to_hex(out.digest.as_ref().unwrap()),
            "900150983cd24fb0d6963f7d28e17f72"
        );
    }

    #[test]
    fn aes_roundtrip_through_dispatch() {
        let mut aux = vec![7u8; 32];
        aux.extend([9u8; 16]);
        let pt = b"secret object contents".to_vec();
        let enc = NdpFunction::Aes256Encrypt.apply(&pt, &aux).unwrap();
        let ct = enc.data.clone().unwrap();
        assert_ne!(ct, pt);
        let dec = NdpFunction::Aes256Decrypt.apply(&ct, &aux).unwrap();
        assert_eq!(dec.data.unwrap(), pt);
    }

    #[test]
    fn aes_rejects_malformed_aux() {
        let err = NdpFunction::Aes256Encrypt
            .apply(b"x", &[0u8; 10])
            .unwrap_err();
        assert!(matches!(err, NdpError::BadAux { .. }));
        assert!(err.to_string().contains("32-byte key"));
    }

    #[test]
    fn gzip_roundtrip_through_dispatch() {
        let data = b"compress me please, there is repetition repetition".repeat(8);
        let gz = NdpFunction::GzipCompress
            .apply(&data, &[])
            .unwrap()
            .data
            .unwrap();
        assert!(gz.len() < data.len());
        let back = NdpFunction::GzipDecompress
            .apply(&gz, &[])
            .unwrap()
            .data
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn gzip_decompress_surfaces_inflate_errors() {
        let err = NdpFunction::GzipDecompress
            .apply(b"not gzip at all!!!", &[])
            .unwrap_err();
        assert!(matches!(err, NdpError::Inflate { .. }));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = NdpFunction::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NdpFunction::ALL.len());
    }
}
