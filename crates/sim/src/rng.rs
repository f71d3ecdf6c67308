//! A small, fast, deterministic random number generator
//! (xoshiro256\*\* seeded via SplitMix64).
//!
//! The simulator keeps exactly one of these in the [`World`](crate::World)
//! so that every random decision in a scenario is reproducible from the
//! scenario seed alone. Workload crates that want the richer `rand`
//! distributions draw their seeds from this generator.

/// Deterministic xoshiro256\*\* generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded with SplitMix64, as
    /// recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        // SplitMix64 cannot produce an all-zero state from any seed, but be
        // explicit about the invariant xoshiro requires.
        debug_assert!(s.iter().any(|&x| x != 0));
        Rng { s }
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = range.end - range.start;
        // Multiply-shift rejection-free mapping (Lemire); bias is negligible
        // for simulation purposes (span << 2^64).
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen_f64() < p
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// inter-arrival times, as §V-C of the paper uses for request arrivals).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; guard the log against u == 0.
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller; one value per call for simplicity).
    pub(crate) fn gen_normal(&mut self) -> f64 {
        let u1 = self.gen_f64().max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normally distributed value with the given parameters of the
    /// underlying normal (used for file-size distributions).
    pub fn gen_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gen_normal()).exp()
    }

    /// Derives an independent child generator (for decoupling workload
    /// streams from simulator-internal draws).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Fills `buf` with random bytes (used to generate file payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::new(99);
        for _ in 0..10_000 {
            let v = r.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        Rng::new(0).gen_range(5..5);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Rng::new(42);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "sample mean {mean}");
    }

    #[test]
    fn bernoulli_frequency_is_close() {
        let mut r = Rng::new(42);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "sample frequency {freq}");
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut r = Rng::new(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // 13 zero bytes from a random generator is astronomically unlikely.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = Rng::new(11);
        let mut child = parent.fork();
        // Child continues deterministically regardless of parent usage.
        let c1 = child.next_u64();
        let mut parent2 = Rng::new(11);
        let mut child2 = parent2.fork();
        assert_eq!(c1, child2.next_u64());
    }
}
