//! Submission-pattern generation modeled on the google-trace subsets the
//! paper uses (§IV-A: a 2 000-query "long trace" for overall delays and a
//! 200-query "short trace" for component studies).
//!
//! Google-trace arrivals are bursty and heavy-tailed (Reiss et al., SoCC
//! 2012): jobs arrive in clumps separated by longer lulls. We regenerate
//! that character with a two-level process — burst sizes are
//! Pareto-distributed, gaps inside a burst are short exponentials, gaps
//! between bursts are heavy-tailed — scaled so that the paper's "moderate
//! cluster load" holds for the default job mix.

use simkit::{Dist, Millis, Sample, SimRng};

/// Parameters of the arrival process.
#[derive(Debug, Clone)]
pub struct TraceParams {
    /// Mean within-burst gap (ms).
    pub intra_gap_ms: f64,
    /// Burst size tail (Pareto scale / alpha).
    pub burst_scale: f64,
    /// Burst size tail index.
    pub burst_alpha: f64,
    /// Between-burst gap (ms): Pareto for the heavy tail.
    pub inter_gap_scale_ms: f64,
    /// Between-burst gap tail index.
    pub inter_gap_alpha: f64,
}

impl TraceParams {
    /// The default calibration: ~0.2 jobs/s on average, bursts of 1–10,
    /// occasional multi-minute lulls — moderate load for 40-second query
    /// jobs on the paper's 25-node cluster. Bursts are capped well below
    /// cluster capacity: the paper measures the *system's* scheduling
    /// delay and explicitly excludes resource-queueing under overload
    /// (§III-B, §IV-B).
    pub fn moderate() -> TraceParams {
        TraceParams {
            intra_gap_ms: 900.0,
            burst_scale: 1.0,
            burst_alpha: 1.5,
            inter_gap_scale_ms: 7_000.0,
            inter_gap_alpha: 1.6,
        }
    }

    /// A heavy-burst calibration for tail studies: near-simultaneous
    /// submissions within a burst (mean 120 ms gap), bursts reaching the
    /// cap of 10, and long quiet inter-burst valleys. The mix produces
    /// pronounced out-application tail delay — many AMs racing for
    /// containers at once — while staying below sustained overload, so
    /// SLO burn-rate alerts fire during bursts and resolve in valleys.
    pub fn bursty() -> TraceParams {
        TraceParams {
            intra_gap_ms: 120.0,
            burst_scale: 4.0,
            burst_alpha: 1.1,
            inter_gap_scale_ms: 20_000.0,
            inter_gap_alpha: 1.3,
        }
    }

    /// Scale all gaps by `k` (>1 = sparser trace, lighter load). Useful
    /// for sweeps where jobs grow (Fig 5's 200 GB point would otherwise
    /// saturate the cluster, which the paper explicitly avoids).
    pub fn sparser(mut self, k: f64) -> TraceParams {
        assert!(k > 0.0);
        self.intra_gap_ms *= k;
        self.inter_gap_scale_ms *= k;
        self
    }
}

/// Generate `n` arrival offsets (sorted, starting near zero).
pub fn arrival_times(n: usize, params: &TraceParams, rng: &mut SimRng) -> Vec<Millis> {
    let intra = Dist::exp(params.intra_gap_ms);
    let burst = Dist::pareto(params.burst_scale, params.burst_alpha);
    let inter = Dist::pareto(params.inter_gap_scale_ms, params.inter_gap_alpha)
        .clamped(params.inter_gap_scale_ms, params.inter_gap_scale_ms * 50.0);
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0f64;
    while out.len() < n {
        let burst_len = burst.sample(rng).round().clamp(1.0, 10.0) as usize;
        for _ in 0..burst_len {
            if out.len() >= n {
                break;
            }
            out.push(Millis(t as u64));
            t += intra.sample(rng).max(1.0);
        }
        t += inter.sample(rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_sorted() {
        let mut rng = SimRng::new(1);
        let t = arrival_times(500, &TraceParams::moderate(), &mut rng);
        assert_eq!(t.len(), 500);
        for w in t.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(t[0] < Millis(10_000));
    }

    #[test]
    fn trace_is_bursty() {
        // Coefficient of variation of inter-arrival gaps must exceed 1
        // (a Poisson process has CV = 1; bursty is heavier).
        let mut rng = SimRng::new(2);
        let t = arrival_times(2_000, &TraceParams::moderate(), &mut rng);
        let gaps: Vec<f64> = t.windows(2).map(|w| (w[1].0 - w[0].0) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.2, "cv {cv} not bursty");
    }

    #[test]
    fn moderate_load_rate() {
        // Average arrival rate in a band that keeps a 25-node cluster
        // moderately loaded for ~40 s jobs: 0.1–1 jobs/s.
        let mut rng = SimRng::new(3);
        let t = arrival_times(2_000, &TraceParams::moderate(), &mut rng);
        let span_s = (t.last().unwrap().0 - t[0].0) as f64 / 1000.0;
        let rate = t.len() as f64 / span_s;
        assert!((0.1..1.0).contains(&rate), "rate {rate}/s");
    }

    #[test]
    fn sparser_stretches_time() {
        let mut r1 = SimRng::new(4);
        let mut r2 = SimRng::new(4);
        let a = arrival_times(300, &TraceParams::moderate(), &mut r1);
        let b = arrival_times(300, &TraceParams::moderate().sparser(4.0), &mut r2);
        assert!(b.last().unwrap().0 > a.last().unwrap().0 * 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        assert_eq!(
            arrival_times(200, &TraceParams::moderate(), &mut r1),
            arrival_times(200, &TraceParams::moderate(), &mut r2)
        );
    }
}
