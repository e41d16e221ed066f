//! Thread-stress property test for the one-lock recorder.
//!
//! Eight threads record while a ninth takes snapshots; the final
//! snapshot must equal the sequential sum exactly — the property
//! the `sdlint::interleave` registry-snapshot model checks exhaustively
//! at small scale, exercised here at real scale on real threads.

use obs::Recorder;

const THREADS: u64 = 8;
const ITERS: u64 = 2_000;

#[test]
fn merged_snapshot_equals_sequential_sum_under_contention() {
    let r = Recorder::new();
    r.enable();
    let rr = &r;
    std::thread::scope(|s| {
        // Writers: counters, histograms, and sketches from 8 threads.
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..ITERS {
                    rr.count("stress_total", 1);
                    rr.count_labeled("stress_kind_total", &[("kind", "w")], 2);
                    rr.observe("stress_hist", &[10, 100, 1000], (t * ITERS + i) % 2000);
                    rr.sketch_observe("stress_sketch", (t * ITERS + i) % 5000);
                }
            });
        }
        // A concurrent snapshotter: mid-run snapshots must never observe
        // more than the final total, never go backwards, and never tear.
        s.spawn(move || {
            let mut last = 0u64;
            for _ in 0..50 {
                let snap = rr.snapshot();
                let n = snap.counter("stress_total");
                assert!(n <= THREADS * ITERS, "snapshot overshot: {n}");
                assert!(n >= last, "snapshot went backwards: {n} < {last}");
                last = n;
                let k = snap.counter_labeled("stress_kind_total", &[("kind", "w")]);
                assert_eq!(k % 2, 0, "labeled counter torn: {k}");
            }
        });
    });

    let snap = r.snapshot();
    assert_eq!(snap.counter("stress_total"), THREADS * ITERS);
    assert_eq!(
        snap.counter_labeled("stress_kind_total", &[("kind", "w")]),
        2 * THREADS * ITERS
    );

    // Histogram totals are exact: every observation lands in exactly one
    // bucket, independent of the schedule.
    let h = snap
        .histograms
        .get(&obs::MetricKey::plain("stress_hist"))
        .expect("histogram present");
    assert_eq!(h.count, THREADS * ITERS);
    let per_thread_sum: u64 = (0..ITERS).map(|i| i % 2000).sum::<u64>();
    let total_sum: u64 = (0..THREADS)
        .map(|t| (0..ITERS).map(|i| (t * ITERS + i) % 2000).sum::<u64>())
        .sum();
    assert!(total_sum >= per_thread_sum);
    assert_eq!(h.sum, total_sum);

    // Sketch count is exact too (values are rank-compressed, counts are
    // not).
    let sk = snap
        .sketches
        .get(&obs::MetricKey::plain("stress_sketch"))
        .expect("sketch present");
    assert_eq!(sk.count(), THREADS * ITERS);
}

#[test]
fn gauge_set_latest_write_wins_across_threads() {
    let r = Recorder::new();
    r.enable();
    let rr = &r;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..200 {
                    rr.gauge_set("stress_gauge", (t * 1000 + i) as f64);
                }
            });
        }
    });
    // Whichever thread took the lock last wins; the value must be one that was
    // actually written, not a blend.
    let v = r.snapshot().gauge("stress_gauge").expect("gauge present");
    let t = (v as u64) / 1000;
    let i = (v as u64) % 1000;
    assert!(t < THREADS && i < 200, "gauge value {v} was never written");
}
