//! Latency/work distributions used by the cluster and application models.
//!
//! The paper's delays are multiplicative in nature (JVM start, init code,
//! I/O transfers all have log-normal-looking marginals with occasional heavy
//! tails), so the core primitive is [`Dist::LogNormalMed`] parameterized by
//! its *median* — far easier to calibrate against the paper's reported
//! medians than `(mu, sigma)`. Heavy-tailed arrivals use [`Dist::Pareto`].
//!
//! Everything samples through [`SimRng`] so results stay deterministic.

use crate::rng::SimRng;
use crate::time::Millis;

/// Anything that can be sampled to an `f64`.
pub trait Sample {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Draw one value and quantize it to whole milliseconds (rounding to
    /// nearest, clamping at zero).
    fn sample_ms(&self, rng: &mut SimRng) -> Millis {
        Millis(self.sample(rng).max(0.0).round() as u64)
    }
}

/// A parametric distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Const(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Log-normal parameterized by its median and the σ of the underlying
    /// normal: `exp(ln(median) + sigma·N(0,1))`.
    LogNormalMed { median: f64, sigma: f64 },
    /// Exponential with the given mean.
    Exp { mean: f64 },
    /// Pareto (Lomax-style, shifted to start at `scale`):
    /// `scale / U^(1/alpha)`. `alpha <= 1` has infinite mean — used for
    /// bursty arrival gaps, never for work sizes.
    Pareto { scale: f64, alpha: f64 },
    /// `base`, clamped into `[lo, hi]`. Keeps log-normal tails from
    /// producing absurd outliers in work items while preserving the bulk.
    Clamped { base: Box<Dist>, lo: f64, hi: f64 },
    /// `base + offset` (offset may be negative; results are not clamped).
    Shifted { base: Box<Dist>, offset: f64 },
    /// Draw from `a` with probability `p`, else from `b`. Used for
    /// bimodal effects such as "mostly fast, occasionally very slow".
    Mix { p: f64, a: Box<Dist>, b: Box<Dist> },
}

impl Dist {
    /// Constant distribution.
    pub fn constant(v: f64) -> Dist {
        Dist::Const(v)
    }

    /// Log-normal with the given median and shape.
    pub fn lognormal(median: f64, sigma: f64) -> Dist {
        assert!(median > 0.0 && sigma >= 0.0);
        Dist::LogNormalMed { median, sigma }
    }

    /// Uniform on `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(lo <= hi);
        Dist::Uniform { lo, hi }
    }

    /// Exponential with the given mean.
    pub fn exp(mean: f64) -> Dist {
        assert!(mean > 0.0);
        Dist::Exp { mean }
    }

    /// Pareto with the given scale (minimum) and tail index.
    pub fn pareto(scale: f64, alpha: f64) -> Dist {
        assert!(scale > 0.0 && alpha > 0.0);
        Dist::Pareto { scale, alpha }
    }

    /// Clamp this distribution into `[lo, hi]`.
    pub fn clamped(self, lo: f64, hi: f64) -> Dist {
        assert!(lo <= hi);
        Dist::Clamped {
            base: Box::new(self),
            lo,
            hi,
        }
    }

    /// Shift this distribution by `offset`.
    pub fn shifted(self, offset: f64) -> Dist {
        Dist::Shifted {
            base: Box::new(self),
            offset,
        }
    }

    /// Mixture: this distribution with probability `p`, else `other`.
    pub fn mixed(self, p: f64, other: Dist) -> Dist {
        assert!((0.0..=1.0).contains(&p));
        Dist::Mix {
            p,
            a: Box::new(self),
            b: Box::new(other),
        }
    }

    /// The distribution's median (exact for every variant except `Mix`,
    /// where it returns the p-weighted blend of medians as a calibration
    /// aid).
    pub fn median(&self) -> f64 {
        match self {
            Dist::Const(v) => *v,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::LogNormalMed { median, .. } => *median,
            Dist::Exp { mean } => mean * std::f64::consts::LN_2,
            Dist::Pareto { scale, alpha } => scale * 2f64.powf(1.0 / alpha),
            Dist::Clamped { base, lo, hi } => base.median().clamp(*lo, *hi),
            Dist::Shifted { base, offset } => base.median() + offset,
            Dist::Mix { p, a, b } => p * a.median() + (1.0 - p) * b.median(),
        }
    }

    /// Multiply the location of the distribution by `k`, preserving shape.
    /// Used to scale calibrated work profiles (e.g. double the opened
    /// files ⇒ double the init work).
    pub fn scaled(&self, k: f64) -> Dist {
        assert!(k >= 0.0);
        match self {
            Dist::Const(v) => Dist::Const(v * k),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::LogNormalMed { median, sigma } => Dist::LogNormalMed {
                median: median * k,
                sigma: *sigma,
            },
            Dist::Exp { mean } => Dist::Exp { mean: mean * k },
            Dist::Pareto { scale, alpha } => Dist::Pareto {
                scale: scale * k,
                alpha: *alpha,
            },
            Dist::Clamped { base, lo, hi } => Dist::Clamped {
                base: Box::new(base.scaled(k)),
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Shifted { base, offset } => Dist::Shifted {
                base: Box::new(base.scaled(k)),
                offset: offset * k,
            },
            Dist::Mix { p, a, b } => Dist::Mix {
                p: *p,
                a: Box::new(a.scaled(k)),
                b: Box::new(b.scaled(k)),
            },
        }
    }
}

impl Sample for Dist {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Const(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::LogNormalMed { median, sigma } => (median.ln() + sigma * rng.std_normal()).exp(),
            Dist::Exp { mean } => {
                let u = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::Pareto { scale, alpha } => {
                let u = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
                scale / u.powf(1.0 / alpha)
            }
            Dist::Clamped { base, lo, hi } => base.sample(rng).clamp(*lo, *hi),
            Dist::Shifted { base, offset } => base.sample(rng) + offset,
            Dist::Mix { p, a, b } => {
                if rng.chance(*p) {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_median(d: &Dist, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::new(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[n / 2]
    }

    #[test]
    fn const_is_constant() {
        let mut rng = SimRng::new(0);
        let d = Dist::constant(42.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42.0);
        }
        assert_eq!(d.median(), 42.0);
    }

    #[test]
    fn lognormal_median_matches() {
        let d = Dist::lognormal(700.0, 0.4);
        let m = empirical_median(&d, 9, 40_001);
        assert!((m - 700.0).abs() / 700.0 < 0.05, "median {m}");
    }

    #[test]
    fn exp_mean_matches() {
        let d = Dist::exp(250.0);
        let mut rng = SimRng::new(17);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let d = Dist::pareto(100.0, 1.5);
        let mut rng = SimRng::new(21);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 100.0);
        }
        // analytic median: scale * 2^(1/alpha)
        let m = empirical_median(&d, 22, 40_001);
        assert!((m - d.median()).abs() / d.median() < 0.08, "median {m}");
    }

    #[test]
    fn clamped_bounds_hold() {
        let d = Dist::lognormal(100.0, 2.0).clamped(50.0, 200.0);
        let mut rng = SimRng::new(2);
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            assert!((50.0..=200.0).contains(&x));
        }
    }

    #[test]
    fn shifted_offsets() {
        let d = Dist::constant(10.0).shifted(5.0);
        let mut rng = SimRng::new(2);
        assert_eq!(d.sample(&mut rng), 15.0);
        assert_eq!(d.median(), 15.0);
    }

    #[test]
    fn mix_draws_from_both() {
        let d = Dist::constant(1.0).mixed(0.5, Dist::constant(2.0));
        let mut rng = SimRng::new(8);
        let n = 4000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1.0).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn scaled_scales_medians() {
        let d = Dist::lognormal(700.0, 0.3).scaled(2.0);
        assert!((d.median() - 1400.0).abs() < 1e-9);
        let u = Dist::uniform(1.0, 3.0).scaled(10.0);
        assert_eq!(u, Dist::uniform(10.0, 30.0));
    }

    #[test]
    fn sample_ms_quantizes() {
        let mut rng = SimRng::new(0);
        assert_eq!(Dist::constant(1.4).sample_ms(&mut rng), Millis(1));
        assert_eq!(Dist::constant(1.6).sample_ms(&mut rng), Millis(2));
        assert_eq!(Dist::constant(-3.0).sample_ms(&mut rng), Millis(0));
    }

    #[test]
    fn uniform_median() {
        assert_eq!(Dist::uniform(0.0, 10.0).median(), 5.0);
    }
}
