//! Request generation: Poisson arrivals and the Dropbox-like object-size
//! distribution.
//!
//! §V-C1: "To model a realistic user behavior, we generate user requests
//! with the parameters (e.g., PUT/GET ratio, file size distribution) in
//! \[42\] obtained from the real-world data-serving service. We also use
//! the Poisson process to model request arrivals."

use dcs_sim::Rng;

/// One gap of a Poisson arrival process: an exponential inter-arrival
/// time of mean `mean_ns` nanoseconds, at least 1 ns so arrivals never
/// share a timestamp. Every open-loop workload draws its arrivals here.
pub fn poisson_gap(rng: &mut Rng, mean_ns: f64) -> u64 {
    (rng.gen_exp(mean_ns) as u64).max(1)
}

/// Object-size distribution.
///
/// Drago et al. observe personal-cloud objects dominated by small files
/// with a heavy tail of multi-megabyte ones; we model that as a lognormal
/// body clamped to a block-aligned range (the clamp also keeps simulated
/// memory bounded).
#[derive(Clone, Debug)]
pub struct SizeDistribution {
    /// Mean of the underlying normal (ln bytes).
    pub mu: f64,
    /// Std-dev of the underlying normal.
    pub sigma: f64,
    /// Smallest object (block-aligned).
    pub min: usize,
    /// Largest object (block-aligned).
    pub max: usize,
}

impl Default for SizeDistribution {
    fn default() -> Self {
        // Median ≈ e^11.8 ≈ 130 KiB; tail to 1 MiB (clamped).
        SizeDistribution {
            mu: 11.8,
            sigma: 1.1,
            min: 4096,
            max: 1 << 20,
        }
    }
}

impl SizeDistribution {
    /// Draws a block-aligned object size.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let raw = rng.gen_lognormal(self.mu, self.sigma);
        let clamped = raw.clamp(self.min as f64, self.max as f64) as usize;
        clamped.div_ceil(4096) * 4096
    }

    /// Analytic-ish mean of the *clamped, block-aligned* distribution,
    /// estimated by sampling (deterministic seed), for rate planning.
    pub fn mean_estimate(&self) -> f64 {
        let mut rng = Rng::new(0xD15C);
        let n = 20_000;
        (0..n).map(|_| self.sample(&mut rng)).sum::<usize>() as f64 / n as f64
    }
}

/// Zipfian key-popularity generator (the YCSB / Gray et al. algorithm).
///
/// Draws *ranks* in `0..items` where rank 0 is the hottest key and
/// popularity falls off as `1 / (rank+1)^theta`. `theta` parameterizes the
/// skew: YCSB's default is 0.99 (a few keys absorb most traffic);
/// `theta → 0` approaches uniform. Construction precomputes the
/// cumulative mass function once (O(n)); each draw then inverts it with
/// a binary search (O(log n)), so sampling is *exact* — unlike the
/// usual YCSB continuous approximation, whose tail error a
/// goodness-of-fit test over a few thousand ranks can detect — and,
/// driven by the deterministic [`Rng`], fully reproducible.
///
/// Callers that need the hot keys scattered across the keyspace (so
/// neighboring ranks do not shard together) should mix the returned rank
/// through a hash; the store layer does exactly that.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    /// `cdf[r]` = P(rank <= r); last entry is forced to exactly 1.
    cdf: Vec<f64>,
}

impl Zipfian {
    /// A generator over `items` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or `theta` is not in `[0, 1)`.
    pub fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items > 0, "a zipfian needs at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(items, theta);
        let mut cdf = Vec::with_capacity(items as usize);
        let mut acc = 0.0;
        for rank in 0..items {
            acc += 1.0 / ((rank + 1) as f64).powf(theta) / zetan;
            cdf.push(acc);
        }
        // Float rounding can leave the last entry a hair under 1; pin it
        // so every u in [0, 1) lands on a valid rank.
        *cdf.last_mut().expect("items > 0, so the CDF has an entry") = 1.0;
        Zipfian {
            items,
            theta,
            zetan,
            cdf,
        }
    }

    /// The harmonic-like normalizer `sum_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of ranks.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of drawing rank `r` (for goodness-of-fit checks).
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank < self.items, "rank out of range");
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Draws a rank in `0..items`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        // First rank whose cumulative mass strictly exceeds u.
        self.cdf.partition_point(|&c| c <= u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gap_mean_is_close() {
        let mut rng = Rng::new(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| poisson_gap(&mut rng, 10_000.0) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10_000.0).abs() < 300.0, "{mean}");
    }

    #[test]
    fn sizes_are_block_aligned_and_clamped() {
        let d = SizeDistribution::default();
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert_eq!(s % 4096, 0);
            assert!(s >= d.min && s <= d.max.div_ceil(4096) * 4096, "{s}");
        }
    }

    #[test]
    fn mean_estimate_is_stable_and_sane() {
        let d = SizeDistribution::default();
        let m = d.mean_estimate();
        assert!(m > 100_000.0 && m < 400_000.0, "{m}");
        assert_eq!(m, d.mean_estimate(), "deterministic");
    }

    #[test]
    fn poisson_gaps_are_exponential_not_just_right_on_average() {
        // An exponential distribution has CV = 1 and P(X < mean) = 1 - 1/e.
        // Catching either off guards against a generator that hits the
        // mean with the wrong shape (e.g. uniform or constant gaps).
        let mean = 25_000.0;
        let mut rng = Rng::new(11);
        let n = 40_000;
        let gaps: Vec<f64> = (0..n).map(|_| poisson_gap(&mut rng, mean) as f64).collect();
        let m = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / m;
        assert!((cv - 1.0).abs() < 0.03, "coefficient of variation {cv}");
        let below = gaps.iter().filter(|&&g| g < mean).count() as f64 / n as f64;
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (below - expect).abs() < 0.01,
            "P(gap<mean) {below} vs {expect}"
        );
    }

    #[test]
    fn size_sample_mean_matches_clamped_lognormal_analytics() {
        // For the unclamped lognormal, E[X] = exp(mu + sigma^2/2). Clamping
        // to [min, max] and block-rounding shifts that; bound the sampled
        // mean between the clamp floor's effect and the analytic mean, and
        // require run-to-run agreement under the same seed.
        let d = SizeDistribution::default();
        let unclamped_mean = (d.mu + d.sigma * d.sigma / 2.0).exp();
        let n = 40_000;
        let mut rng = Rng::new(12);
        let mean = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        // The max clamp only cuts the mean; block alignment adds < 4 KiB.
        assert!(
            mean < unclamped_mean + 4096.0,
            "sampled {mean} above analytic unclamped {unclamped_mean}"
        );
        // The clamp cannot cut the Dropbox-like mix below half its
        // analytic mean (most mass is far from the 1 MiB cap).
        assert!(
            mean > unclamped_mean / 2.0,
            "sampled {mean} vs {unclamped_mean}"
        );
        let mut rng2 = Rng::new(12);
        let mean2 = (0..n).map(|_| d.sample(&mut rng2) as f64).sum::<f64>() / n as f64;
        assert_eq!(mean, mean2, "same seed, same mean");
    }

    #[test]
    fn zipfian_chi_square_goodness_of_fit() {
        // 64 ranks at YCSB's default skew; compare observed counts against
        // the analytic cell probabilities. With dof = 63 the 99.9th
        // percentile of chi-square is ~104, so 150 gives a generous margin
        // while still catching a generator with the wrong shape (uniform
        // draws score in the tens of thousands here).
        let z = Zipfian::new(64, 0.99);
        let n = 200_000u64;
        let mut rng = Rng::new(0x21BF);
        let mut counts = vec![0u64; 64];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let chi2: f64 = (0..64)
            .map(|r| {
                let expect = z.probability(r as u64) * n as f64;
                let diff = counts[r] as f64 - expect;
                diff * diff / expect
            })
            .sum();
        assert!(chi2 < 150.0, "chi-square {chi2} rejects the zipfian fit");
        // Sanity on the same draw set: probabilities sum to 1 and the head
        // dominates the way 1/i^0.99 says it should.
        let total_p: f64 = (0..64).map(|r| z.probability(r)).sum();
        assert!((total_p - 1.0).abs() < 1e-9, "{total_p}");
        assert!(
            counts[0] > counts[10] && counts[10] > counts[63],
            "{counts:?}"
        );
    }

    #[test]
    fn zipfian_is_deterministic_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<u64>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same ranks");
        assert_ne!(a, draw(8), "different seed, different ranks");
        assert!(a.iter().all(|&r| r < 1000));
    }

    #[test]
    fn zipfian_skew_concentrates_the_head() {
        // The hot-10% share of traffic must grow with theta, and theta→0
        // must approach uniform (10% of ranks ≈ 10% of draws).
        let head_share = |theta: f64| {
            let z = Zipfian::new(100, theta);
            let mut rng = Rng::new(99);
            let n = 50_000;
            let hot = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
            hot as f64 / n as f64
        };
        let flat = head_share(0.01);
        let ycsb = head_share(0.99);
        assert!((flat - 0.10).abs() < 0.02, "theta~0 head share {flat}");
        assert!(ycsb > 0.5, "theta=0.99 head share {ycsb}");
        assert!(ycsb > flat + 0.3);
    }

    #[test]
    fn zipfian_single_item_always_rank_zero() {
        let z = Zipfian::new(1, 0.5);
        let mut rng = Rng::new(3);
        assert!((0..100).all(|_| z.sample(&mut rng) == 0));
    }

    #[test]
    fn wider_sigma_fattens_the_tail() {
        let narrow = SizeDistribution {
            sigma: 0.4,
            ..SizeDistribution::default()
        };
        let wide = SizeDistribution {
            sigma: 1.4,
            ..SizeDistribution::default()
        };
        let count_max = |d: &SizeDistribution, seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).filter(|_| d.sample(&mut rng) >= d.max).count()
        };
        assert!(count_max(&wide, 13) > 10 * count_max(&narrow, 13).max(1));
    }
}
