//! Property-based tests for the DES kernel's core data structures,
//! run as seeded randomized loops over `SimRng` (the workspace is
//! dependency-free, so there is no proptest); each case is deterministic
//! per seed.

use simkit::{Dist, EventQueue, Millis, PsResource, Sample, SimRng};

const CASES: u64 = 200;

/// Drain a resource via the tick protocol, returning completions.
fn drain(res: &mut PsResource, start: Millis) -> Vec<(u64, Millis)> {
    let mut out = Vec::new();
    let mut now = start;
    let mut guard = 0;
    while let Some((at, gen)) = res.next_completion(now) {
        assert!(at >= now, "completion in the past");
        now = at;
        for id in res.on_tick(now, gen).expect("a just-armed tick is fresh") {
            out.push((id.0, now));
        }
        guard += 1;
        assert!(guard < 100_000, "drain did not terminate");
    }
    out
}

/// Work conservation: all submitted work completes, and total work
/// done matches the sum of flow sizes.
#[test]
fn ps_completes_all_work() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x20 + case);
        let nflows = rng.range(1, 20) as usize;
        let flows: Vec<(f64, f64, f64)> = (0..nflows)
            .map(|_| {
                (
                    rng.range_f64(1.0, 5_000.0),
                    rng.range_f64(1.0, 4.0),
                    rng.range_f64(0.1, 4.0),
                )
            })
            .collect();
        let capacity = rng.range_f64(0.5, 64.0);
        let mut res = PsResource::new(capacity);
        let mut expected = 0.0;
        for (work, weight, cap) in &flows {
            res.add_flow(Millis(0), *work, *weight, *cap);
            expected += work;
        }
        let done = drain(&mut res, Millis(0));
        assert_eq!(done.len(), flows.len(), "case {case}");
        assert!(
            (res.work_done() - expected).abs() < 1e-3,
            "case {case}: work done {} != submitted {}",
            res.work_done(),
            expected
        );
        assert_eq!(res.active_flows(), 0, "case {case}");
    }
}

/// No flow finishes earlier than its physically fastest possible time
/// (work / min(cap, capacity)) nor later than the fully serialized
/// bound (total work / capacity, plus per-flow cap effects).
#[test]
fn ps_completion_times_within_physical_bounds() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x21 + case);
        let nflows = rng.range(1, 12) as usize;
        let flows: Vec<(f64, f64)> = (0..nflows)
            .map(|_| (rng.range_f64(10.0, 2_000.0), rng.range_f64(0.1, 2.0)))
            .collect();
        let capacity = rng.range_f64(1.0, 16.0);
        let mut res = PsResource::new(capacity);
        let mut ids = Vec::new();
        let mut total_work = 0.0;
        for (work, cap) in &flows {
            ids.push((res.add_flow(Millis(0), *work, 1.0, *cap), *work, *cap));
            total_work += work;
        }
        let done = drain(&mut res, Millis(0));
        let slowest_cap = flows.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        let upper = total_work / capacity.min(slowest_cap) + flows.len() as f64 + 2.0;
        for (fid, at) in &done {
            let (_, work, cap) = ids.iter().find(|(i, _, _)| i.0 == *fid).unwrap();
            let fastest = work / cap.min(capacity);
            assert!(
                (at.as_f64() + 1.0) >= fastest,
                "case {case}: flow finished at {} but needs at least {fastest}",
                at.as_f64()
            );
            assert!(
                at.as_f64() <= upper,
                "case {case}: flow at {} beyond bound {upper}",
                at.as_f64()
            );
        }
    }
}

/// Equal flows submitted together finish together (fairness), and a
/// strictly smaller flow never finishes after a bigger equal-cap one.
#[test]
fn ps_smaller_flows_finish_no_later() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x22 + case);
        let nflows = rng.range(2, 10) as usize;
        let works: Vec<f64> = (0..nflows).map(|_| rng.range_f64(1.0, 1_000.0)).collect();
        let capacity = rng.range_f64(1.0, 8.0);
        let mut res = PsResource::new(capacity);
        let ids: Vec<_> = works
            .iter()
            .map(|w| res.add_flow(Millis(0), *w, 1.0, 1.0))
            .collect();
        let done = drain(&mut res, Millis(0));
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                if works[i] < works[j] {
                    let ta = done.iter().find(|(f, _)| f == &a.0).unwrap().1;
                    let tb = done.iter().find(|(f, _)| f == &b.0).unwrap().1;
                    assert!(ta <= tb, "case {case}: smaller flow finished later");
                }
            }
        }
    }
}

/// The event queue pops in nondecreasing time order with FIFO ties,
/// regardless of push order.
#[test]
fn queue_pops_sorted_stable() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x23 + case);
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Millis(*t), i);
        }
        let mut last: Option<(Millis, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "case {case}");
                if t == lt {
                    assert!(i > li, "case {case}: FIFO violated on tie");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Distribution samples respect their support.
#[test]
fn dist_samples_in_support() {
    for case in 0..CASES {
        let mut seeder = SimRng::new(0x24 + case);
        let seed = seeder.u64();
        let median = seeder.range_f64(1.0, 10_000.0);
        let sigma = seeder.range_f64(0.0, 1.5);
        let mut rng = SimRng::new(seed);
        let ln = Dist::lognormal(median, sigma);
        for _ in 0..50 {
            assert!(ln.sample(&mut rng) > 0.0, "case {case}");
        }
        let cl = Dist::lognormal(median, sigma).clamped(median * 0.5, median * 2.0);
        for _ in 0..50 {
            let x = cl.sample(&mut rng);
            assert!(x >= median * 0.5 && x <= median * 2.0, "case {case}");
        }
        let pareto = Dist::pareto(median, 1.2);
        for _ in 0..50 {
            assert!(pareto.sample(&mut rng) >= median, "case {case}");
        }
    }
}

/// Forked RNG streams are reproducible and order-independent.
#[test]
fn rng_forks_reproducible() {
    for case in 0..CASES {
        let mut seeder = SimRng::new(0x25 + case);
        let seed = seeder.u64();
        let a = seeder.below(1000);
        let b = seeder.below(1000);
        if a == b {
            continue;
        }
        let root = SimRng::new(seed);
        let mut fa1 = root.fork(a);
        let mut fb = root.fork(b);
        let mut fa2 = root.fork(a);
        let xa1 = fa1.u64();
        let _ = fb.u64();
        let xa2 = fa2.u64();
        assert_eq!(xa1, xa2, "case {case}");
    }
}
