//! Container-allocation throughput (Table II): how many containers per
//! second the scheduler hands out, measured from `ALLOCATED` log events.

use logmodel::TsMs;

use crate::event::{EventKind, SchedEvent};

/// Throughput measurement over an allocation-event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Total containers allocated.
    pub total: u64,
    /// Mean rate over the active span (first→last allocation), 1/s.
    pub mean_per_sec: f64,
    /// Peak rate over any sliding window, 1/s.
    pub peak_per_sec: f64,
    /// The sliding-window width used for the peak, ms.
    pub window_ms: u64,
}

/// Measure allocation throughput. `window_ms` is the sliding window for
/// the peak rate (the paper's per-second numbers correspond to 1 000 ms).
pub fn allocation_throughput(events: &[SchedEvent], window_ms: u64) -> Throughput {
    let mut times: Vec<TsMs> = events
        .iter()
        .filter(|e| e.kind == EventKind::ContainerAllocated)
        .map(|e| e.ts)
        .collect();
    times.sort();
    let total = times.len() as u64;
    if times.is_empty() {
        return Throughput {
            total: 0,
            mean_per_sec: 0.0,
            peak_per_sec: 0.0,
            window_ms,
        };
    }
    let last = times.last().copied().unwrap_or(times[0]);
    let span_ms = last.since(times[0]).max(1);
    let mean_per_sec = total as f64 * 1000.0 / span_ms as f64;

    // Sliding window: two pointers over the sorted timestamps.
    let mut peak = 0usize;
    let mut lo = 0usize;
    for hi in 0..times.len() {
        while times[hi].since(times[lo]) >= window_ms {
            lo += 1;
        }
        peak = peak.max(hi - lo + 1);
    }
    Throughput {
        total,
        mean_per_sec,
        peak_per_sec: peak as f64 * 1000.0 / window_ms as f64,
        window_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use logmodel::ApplicationId;

    fn alloc_at(ts: u64) -> SchedEvent {
        let cid = ApplicationId::new(1, 1).attempt(1).container(ts);
        ev(ts, EventKind::ContainerAllocated, cid.app(), Some(cid))
    }

    #[test]
    fn empty_stream() {
        let t = allocation_throughput(&[], 1000);
        assert_eq!(t.total, 0);
        assert_eq!(t.peak_per_sec, 0.0);
    }

    #[test]
    fn uniform_rate() {
        // 1 allocation every 10 ms for 1 s ⇒ 100 total, ~100/s.
        let evs: Vec<SchedEvent> = (0..100).map(|i| alloc_at(i * 10)).collect();
        let t = allocation_throughput(&evs, 1000);
        assert_eq!(t.total, 100);
        assert!((t.mean_per_sec - 101.0).abs() < 2.0, "{}", t.mean_per_sec);
        assert!((t.peak_per_sec - 100.0).abs() < 2.0, "{}", t.peak_per_sec);
    }

    #[test]
    fn bursty_peak_exceeds_mean() {
        // 50 allocations in the first 100 ms, then 50 spread over 10 s.
        let mut evs: Vec<SchedEvent> = (0..50).map(|i| alloc_at(i * 2)).collect();
        evs.extend((0..50).map(|i| alloc_at(1000 + i * 200)));
        let t = allocation_throughput(&evs, 1000);
        assert_eq!(t.total, 100);
        assert!(t.peak_per_sec > t.mean_per_sec * 2.0, "{t:?}");
    }

    #[test]
    fn other_events_ignored() {
        let app = ApplicationId::new(1, 1);
        let mut evs = vec![alloc_at(0), alloc_at(10)];
        evs.push(ev(5, EventKind::AppSubmitted, app, None));
        let t = allocation_throughput(&evs, 1000);
        assert_eq!(t.total, 2);
    }
}
