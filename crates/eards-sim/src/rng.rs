//! Deterministic random numbers and the statistical distributions the
//! simulator needs.
//!
//! The paper (§IV) injects measured variability into the model — e.g. VM
//! creation times follow a Normal(µ = 40 s, σ = 2.5 s) observed on the real
//! testbed. We keep every stochastic element behind [`SimRng`], a small
//! seedable PRNG wrapper, so a whole datacenter run is reproducible from a
//! single seed, and independent subsystems can `fork` their own streams
//! without coupling their consumption order.
//!
//! The generator itself is xoshiro256++ seeded through SplitMix64 (the
//! algorithm of rand 0.8's `SmallRng` on 64-bit platforms), and
//! distribution sampling (Normal, LogNormal, Exponential, Weibull, Pareto)
//! is implemented here directly: the code is short, and owning it lets
//! golden and property tests pin its exact behaviour.

use crate::persist::{Persist, PersistError, Reader, Writer};

/// The SplitMix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random number generator for simulations.
///
/// A xoshiro256++ stream plus the distribution samplers used by the
/// datacenter model. Two `SimRng`s created from equal seeds produce equal
/// streams on every platform.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// The xoshiro256++ state; never all zero (a fixed point).
    s: [u64; 4],
    /// Cached second value from the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        SimRng {
            s: [(); 4].map(|()| {
                state = state.wrapping_add(GOLDEN);
                mix64(state)
            }),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child stream is a deterministic function of the parent's current
    /// state and `stream`, so different subsystems (workload generation,
    /// creation jitter, failures, …) can consume randomness without
    /// perturbing each other's sequences.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix a fresh draw with the stream id through SplitMix64 so forks
        // with different ids are decorrelated even from identical parents.
        let z = self.next_u64().wrapping_add(stream.wrapping_mul(GOLDEN));
        SimRng::seed_from_u64(mix64(z))
    }

    /// Uniform value in `[0, 1)`: 53 random mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// Standard normal draw via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller needs u1 in (0, 1]; resample the open bound away.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Normal draw truncated below at `floor` (resampled, not clamped, to
    /// avoid a probability mass spike at the floor). Used for operation
    /// durations, which must stay positive.
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        // For the parameterizations we use (mean >> floor), rejection is
        // cheap. Bail out to the floor after a bounded number of attempts so
        // adversarial parameters cannot loop forever.
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if x >= floor {
                return x;
            }
        }
        floor
    }

    /// Exponential draw with the given `rate` (λ). Mean is `1 / rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "rate must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -u.ln() / rate
    }

    /// Log-normal draw: `exp(N(mu, sigma))`.
    ///
    /// `mu`/`sigma` are the parameters of the underlying normal, i.e. the
    /// median of the distribution is `exp(mu)`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Weibull draw with shape `k` and scale `lambda`.
    pub fn weibull(&mut self, k: f64, lambda: f64) -> f64 {
        debug_assert!(k > 0.0 && lambda > 0.0);
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        lambda * (-u.ln()).powf(1.0 / k)
    }

    /// Bounded Pareto draw on `[lo, hi]` with tail index `alpha`.
    ///
    /// Used for job runtimes: grid workloads are famously heavy-tailed
    /// (many short jobs, a few very long ones).
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Draws an index according to the given non-negative weights.
    /// Panics if the weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs a positive total weight");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Raw 64-bit draw (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }
}

/// Canonical state: the full xoshiro256++ state plus the cached Box–Muller
/// spare, so a restored generator continues the exact stream — including a
/// pending second normal draw.
impl Persist for SimRng {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        for &word in &self.s {
            w.put_u64(word);
        }
        w.put_opt(&self.gauss_spare);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut s = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        if s == [0; 4] {
            // Seeding never produces the all-zero fixed point; remap it.
            s = [1, 2, 3, 4];
        }
        Ok(SimRng {
            s,
            gauss_spare: r.get_opt()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.normal(10.0, 2.0), b.normal(10.0, 2.0));
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(s1, s2);

        // Same parent state + same stream id = same child.
        let mut p1 = SimRng::seed_from_u64(9);
        let mut p2 = SimRng::seed_from_u64(9);
        let mut f1 = p1.fork(3);
        let mut f2 = p2.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn normal_matches_parameters() {
        let mut rng = SimRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.normal(40.0, 2.5)).collect();
        let (mean, sd) = sample_stats(&samples);
        assert!((mean - 40.0).abs() < 0.1, "mean {mean}");
        assert!((sd - 2.5).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn normal_at_least_respects_floor() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(rng.normal_at_least(5.0, 10.0, 1.0) >= 1.0);
        }
        // Degenerate parameters terminate at the floor.
        assert_eq!(rng.normal_at_least(-100.0, 0.0, 3.0), 3.0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exponential(0.25)).collect();
        let (mean, _) = sample_stats(&samples);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut below_mid = 0usize;
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.2, 10.0, 10_000.0);
            assert!((10.0..=10_000.0).contains(&x), "x = {x}");
            if x < 100.0 {
                below_mid += 1;
            }
        }
        // Heavy head: the vast majority of mass sits near the lower bound.
        assert!(below_mid > 8_000, "below_mid = {below_mid}");
    }

    #[test]
    fn weibull_positive_and_scaled() {
        let mut rng = SimRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.weibull(1.0, 3.0)).collect();
        // k = 1 degenerates to Exponential(1/3): mean 3.
        let (mean, _) = sample_stats(&samples);
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn log_normal_median() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut samples: Vec<f64> = (0..20_001).map(|_| rng.log_normal(2.0, 1.0)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 2.0f64.exp()).abs() < 0.3, "median {median}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_800..3_200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut rng = SimRng::seed_from_u64(8);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 3.0])] += 1;
        }
        assert!((4_000..6_000).contains(&counts[0]), "{counts:?}");
        assert!((9_000..11_000).contains(&counts[1]), "{counts:?}");
        assert!((14_000..16_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn persist_round_trip_continues_stream() {
        use crate::persist::{Reader, Writer};

        let mut rng = SimRng::seed_from_u64(0xEA2D5);
        // Burn an odd number of normal draws so a Box–Muller spare is cached.
        for _ in 0..7 {
            rng.normal(10.0, 3.0);
        }
        let mut w = Writer::new();
        rng.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let mut restored = SimRng::restore(&mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..64 {
            assert_eq!(rng.normal(10.0, 3.0), restored.normal(10.0, 3.0));
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn uniform_range_empty_returns_lo() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(rng.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform_range(5.0, 4.0), 5.0);
        let x = rng.uniform_range(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }
}
