//! Deterministic random-number generation with independent substreams.
//!
//! A simulation run is identified by a single `u64` seed. Components that
//! need their own stream of randomness (per-node noise, per-application work
//! sampling, the arrival process) get a *fork*: an independent generator
//! derived from the base seed and a caller-chosen stream label. Forking
//! keeps results stable when one component starts drawing more samples —
//! adding a draw in the localizer cannot perturb task-duration sampling.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), implemented locally so
//! the workspace has no external dependencies, seeded through SplitMix64 so
//! that closely related `(seed, stream)` pairs still yield well-separated
//! states.

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer used to derive
/// substream seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core state: 4×64 bits, seeded by iterating SplitMix64.
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Xoshiro256 {
        // Standard recommendation: fill the state with SplitMix64 output so
        // even all-zero / low-entropy seeds yield a valid (nonzero) state.
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(sm);
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// A deterministic simulation RNG.
pub struct SimRng {
    inner: Xoshiro256,
    seed: u64,
}

impl SimRng {
    /// Create the root generator for a run.
    pub fn new(seed: u64) -> SimRng {
        SimRng {
            inner: Xoshiro256::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// The seed this generator (or fork chain) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream identified by `stream`.
    ///
    /// Forks of the same `(seed, stream)` pair are identical; forks of
    /// different streams are statistically independent.
    pub fn fork(&self, stream: u64) -> SimRng {
        let sub = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)));
        SimRng {
            inner: Xoshiro256::seed_from_u64(sub),
            seed: sub,
        }
    }

    /// Derive a substream from a string label (hashed FNV-1a).
    pub fn fork_named(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        self.fork(h)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits → the standard [0, 1) mapping.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire's multiply-shift with rejection: exactly uniform.
        let mut x = self.inner.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.inner.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index into empty slice");
        self.below(len as u64) as usize
    }

    /// Standard normal variate via Box–Muller (one value per call; the
    /// second value is discarded to keep the draw count predictable).
    pub(crate) fn std_normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimRng(seed={:#x})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let root = SimRng::new(99);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let mut f1b = root.fork(1);
        assert_eq!(f1.u64(), f1b.u64());
        assert_ne!(f1.u64(), f2.u64());
    }

    #[test]
    fn named_forks_reproducible() {
        let root = SimRng::new(5);
        let mut a = root.fork_named("localizer");
        let mut b = root.fork_named("localizer");
        let mut c = root.fork_named("arrivals");
        assert_eq!(a.u64(), b.u64());
        assert_ne!(a.u64(), c.u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let n = r.below(10);
            assert!(n < 10);
            let m = r.range(5, 8);
            assert!((5..8).contains(&m));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::new(1234);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.std_normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
