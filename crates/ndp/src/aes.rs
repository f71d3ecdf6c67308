//! AES-256 (FIPS 197) block cipher with ECB and CTR modes.
//!
//! Scale-out storage services encrypt objects at rest and in flight
//! (AES-256 rows of Table II); the paper's NDP bank includes a tiny-AES IP
//! core that sustains 40.9 Gbps (Table III). This module supplies the
//! functional equivalent: key schedule, block encrypt/decrypt, and a CTR
//! mode that the NDP units use for length-preserving payload encryption.
//!
//! The S-box and its inverse are derived at compile time from the GF(2^8)
//! definition rather than pasted as opaque tables.

/// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) (0 maps to 0), via a^254.
const fn ginv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1; square-and-multiply with exponent 254 = 0b11111110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gmul(result, base);
        }
        base = gmul(base, base);
        exp >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = ginv(i as u8);
        // Affine transform: b ^ rot1 ^ rot2 ^ rot3 ^ rot4 ^ 0x63.
        let mut x = inv;
        let mut y = inv;
        let mut r = 0;
        while r < 4 {
            y = y.rotate_left(1);
            x ^= y;
            r += 1;
        }
        sbox[i] = x ^ 0x63;
        i += 1;
    }
    sbox
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

const SBOX: [u8; 256] = build_sbox();
const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

/// Number of 32-bit words in an AES-256 key.
const NK: usize = 8;
/// Number of rounds for AES-256.
const NR: usize = 14;

/// An expanded AES-256 key, ready to encrypt or decrypt 16-byte blocks.
///
/// ```
/// use dcs_ndp::aes::Aes256;
/// let key = [0u8; 32];
/// let aes = Aes256::new(&key);
/// let block = [0u8; 16];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(aes.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes256 {
    round_keys: [[u8; 16]; NR + 1],
}

impl std::fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes256 { round_keys: [redacted] }")
    }
}

impl Aes256 {
    /// Block size in bytes.
    pub const BLOCK: usize = 16;

    /// Expands a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for (i, word) in w.iter_mut().take(NK).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gmul(rcon, 2);
            } else if i % NK == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes256 { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout: byte `state[r + 4c]` is row r, column c (FIPS 197).
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..NR {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[NR]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            Self::inv_shift_rows(&mut state);
            Self::inv_sub_bytes(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        Self::inv_sub_bytes(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }

    /// Encrypts whole blocks in ECB mode (test/verification use only — ECB
    /// leaks patterns and must not protect real data).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a multiple of 16 bytes.
    #[cfg(test)]
    pub(crate) fn ecb_encrypt(&self, data: &[u8]) -> Vec<u8> {
        assert!(
            data.len().is_multiple_of(Self::BLOCK),
            "ECB requires whole blocks"
        );
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks_exact(Self::BLOCK) {
            let block: [u8; 16] = chunk.try_into().expect("16-byte chunk");
            out.extend_from_slice(&self.encrypt_block(&block));
        }
        out
    }

    /// Decrypts whole blocks in ECB mode.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a multiple of 16 bytes.
    #[cfg(test)]
    pub(crate) fn ecb_decrypt(&self, data: &[u8]) -> Vec<u8> {
        assert!(
            data.len().is_multiple_of(Self::BLOCK),
            "ECB requires whole blocks"
        );
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks_exact(Self::BLOCK) {
            let block: [u8; 16] = chunk.try_into().expect("16-byte chunk");
            out.extend_from_slice(&self.decrypt_block(&block));
        }
        out
    }

    /// CTR-mode keystream application: encrypts or decrypts (the operation
    /// is its own inverse) `data` of any length under `nonce`.
    pub fn ctr_crypt(&self, nonce: &[u8; 16], data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut counter = u128::from_be_bytes(*nonce);
        for chunk in data.chunks(Self::BLOCK) {
            let ks = self.encrypt_block(&counter.to_be_bytes());
            out.extend(chunk.iter().zip(ks.iter()).map(|(d, k)| d ^ k));
            counter = counter.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_hex, to_hex};

    #[test]
    fn sbox_matches_fips_spot_values() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    /// FIPS 197 appendix C.3 AES-256 known-answer test.
    #[test]
    fn fips197_c3() {
        let key: [u8; 32] =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes256::new(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(to_hex(&ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    /// NIST SP 800-38A F.1.5 ECB-AES256 vectors (first two blocks).
    #[test]
    fn sp800_38a_ecb() {
        let key: [u8; 32] =
            from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let aes = Aes256::new(&key);
        let pt = from_hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let ct = aes.ecb_encrypt(&pt);
        assert_eq!(
            to_hex(&ct),
            "f3eed1bdb5d2a03c064b5a7e3db181f8591ccb10d410ed26dc5ba74a31362870"
        );
        assert_eq!(aes.ecb_decrypt(&ct), pt);
    }

    /// NIST SP 800-38A F.5.5 CTR-AES256 vector (first block).
    #[test]
    fn sp800_38a_ctr() {
        let key: [u8; 32] =
            from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let nonce: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let aes = Aes256::new(&key);
        let pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
        let ct = aes.ctr_crypt(&nonce, &pt);
        assert_eq!(to_hex(&ct), "601ec313775789a5b7a7f504bbf3d228");
    }

    #[test]
    fn ctr_is_its_own_inverse_for_any_length() {
        let key = [7u8; 32];
        let nonce = [9u8; 16];
        let aes = Aes256::new(&key);
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let ct = aes.ctr_crypt(&nonce, &data);
            assert_eq!(aes.ctr_crypt(&nonce, &ct), data, "len {len}");
            if len >= 16 {
                assert_ne!(ct, data, "ciphertext must differ, len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn ecb_rejects_partial_blocks() {
        let aes = Aes256::new(&[0u8; 32]);
        let _ = aes.ecb_encrypt(&[0u8; 15]);
    }

    #[test]
    fn debug_redacts_key_material() {
        let aes = Aes256::new(&[0x42u8; 32]);
        assert!(!format!("{aes:?}").contains("42"));
    }
}
