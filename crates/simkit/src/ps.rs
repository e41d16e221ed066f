//! Processor-sharing resources: the contention primitive behind every delay
//! the paper characterizes.
//!
//! A [`PsResource`] is a work-conserving queue with total capacity `C`
//! (work units per millisecond). Active flows share `C` in proportion to
//! their weights, except that no flow can exceed its own rate cap. The same
//! primitive models:
//!
//! * a node's **CPU pool**: capacity = cores (cpu-ms of work per wall ms),
//!   flow weight = thread count, per-flow cap = thread count (a JVM start
//!   with one hot thread cannot use 32 cores);
//! * a node's **IO channel** (disk + NIC folded together, see DESIGN.md):
//!   capacity = aggregate MB/ms, per-flow cap = single-stream MB/ms.
//!
//! ## Protocol with the event loop
//!
//! The resource does not own the event queue. Instead every mutation bumps a
//! generation counter; the owning model asks [`PsResource::next_completion`]
//! for the earliest finish time, schedules a tick event carrying the
//! generation, and on tick calls [`PsResource::on_tick`]. Between mutations
//! rates are constant, so completions computed in closed form are exact (up
//! to the deliberate ceil-to-millisecond quantization).
//!
//! **The tick invariant.** The owner re-arms after every mutation
//! (`add_flow`) and after every fresh tick. So while a resource
//! has work, the queue holds a tick carrying its current generation. A
//! stale tick (generation mismatch) makes `on_tick` return `None`, and the
//! owner must then schedule *nothing*. Re-arming from a stale tick would
//! only queue a duplicate of that live tick: same time, same generation,
//! queued later, so it fires after the live one and finds nothing to do.
//! Such duplicates multiply with every mutation and change no outcome.

use std::collections::BTreeMap;

use crate::time::Millis;

/// Identifies a flow within one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Generation stamp used to invalidate stale tick events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceGen(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    weight: f64,
    cap: f64,
}

const EPS: f64 = 1e-6;

/// A weighted processor-sharing resource with per-flow rate caps.
#[derive(Debug)]
pub struct PsResource {
    capacity: f64,
    flows: BTreeMap<u64, Flow>,
    next_id: u64,
    gen: u64,
    /// Last time (fractional ms) progress was applied.
    last: f64,
    /// Flows that reached zero remaining work during the last advance and
    /// await collection by `on_tick`.
    finished: Vec<FlowId>,
    /// Lifetime accounting.
    work_done: f64,
    /// What [`PsResource::compute_rates`] leaves behind, kept so a rate
    /// computation allocates nothing: each flow's rate by its position
    /// in `flows`, and every `(id, rate)` in the order water-filling
    /// settled it.
    rate_at: Vec<f64>,
    settled: Vec<(u64, f64)>,
    /// The flows not yet settled during a computation, `(position, id,
    /// weight, cap)`.
    unsettled: Vec<(usize, u64, f64, f64)>,
}

impl PsResource {
    /// A resource with the given total capacity (work units per ms).
    pub fn new(capacity: f64) -> PsResource {
        assert!(capacity > 0.0, "capacity must be positive");
        PsResource {
            capacity,
            flows: BTreeMap::new(),
            next_id: 0,
            gen: 0,
            last: 0.0,
            finished: Vec::new(),
            work_done: 0.0,
            rate_at: Vec::new(),
            settled: Vec::new(),
            unsettled: Vec::new(),
        }
    }

    /// Total capacity in work units per millisecond.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight flows (including finished-but-uncollected).
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current generation stamp.
    pub fn gen(&self) -> ResourceGen {
        ResourceGen(self.gen)
    }

    /// Total work completed over the resource's lifetime.
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Add a flow with `work` units outstanding, fair-share `weight`, and a
    /// maximum absorption rate of `cap` units/ms. Returns its id. Bumps the
    /// generation: the caller must reschedule its tick.
    pub fn add_flow(&mut self, now: Millis, work: f64, weight: f64, cap: f64) -> FlowId {
        assert!(work >= 0.0 && weight > 0.0 && cap > 0.0);
        self.advance_to(now.as_f64());
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                remaining: work,
                weight,
                cap,
            },
        );
        if work <= EPS {
            self.finished.push(FlowId(id));
        }
        self.gen += 1;
        FlowId(id)
    }

    /// Remaining work for a flow, if it is still in flight.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id.0).map(|f| f.remaining)
    }

    /// The earliest upcoming completion: `(time, generation)`. The time is
    /// rounded *up* to a whole millisecond so the tick never fires early.
    /// `None` when no unfinished flows remain and nothing awaits collection.
    /// It changes no flow: `&mut` is for the rate buffers only.
    pub fn next_completion(&mut self, now: Millis) -> Option<(Millis, ResourceGen)> {
        if !self.finished.is_empty() {
            return Some((now.max(Millis::from_f64_ceil(self.last)), self.gen()));
        }
        self.compute_rates();
        let mut best: Option<f64> = None;
        for (f, &rate) in self.flows.values().zip(&self.rate_at) {
            if rate <= 0.0 {
                continue;
            }
            let t = self.last + f.remaining / rate;
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
        best.map(|t| {
            let at = Millis::from_f64_ceil(t).max(now);
            (at, self.gen())
        })
    }

    /// Process a tick scheduled with generation `gen` at time `now`.
    /// Returns `None` for a stale tick, which changes nothing and must not
    /// be re-armed (see the module docs). Otherwise returns the flows that
    /// completed, possibly none. Completion removes flows and bumps the
    /// generation when anything finished, and the caller re-arms from
    /// `next_completion`.
    pub fn on_tick(&mut self, now: Millis, gen: ResourceGen) -> Option<Vec<FlowId>> {
        if gen != self.gen() {
            return None;
        }
        self.advance_to(now.as_f64());
        let done = std::mem::take(&mut self.finished);
        if !done.is_empty() {
            for id in &done {
                self.flows.remove(&id.0);
            }
            self.gen += 1;
        }
        Some(done)
    }

    /// Apply progress at current rates over `[self.last, now_ms]`.
    fn advance_to(&mut self, now_ms: f64) {
        if now_ms <= self.last {
            return;
        }
        let dt = now_ms - self.last;
        self.compute_rates();
        for &(id, rate) in &self.settled {
            if let Some(f) = self.flows.get_mut(&id) {
                let done = (rate * dt).min(f.remaining);
                f.remaining -= done;
                self.work_done += done;
                if f.remaining <= EPS && done > 0.0 {
                    f.remaining = 0.0;
                    let fid = FlowId(id);
                    if !self.finished.contains(&fid) {
                        self.finished.push(fid);
                    }
                }
            }
        }
        self.last = now_ms;
    }

    /// Weighted max-min fair ("water-filling") rates under per-flow caps.
    ///
    /// Iteratively: give every unfixed flow a share proportional to its
    /// weight; any flow whose share exceeds its cap is fixed at the cap and
    /// the leftover capacity is redistributed. Terminates in at most
    /// `n` rounds. The result lands in `rate_at` (by position in `flows`)
    /// and `settled` (in settling order, which fixes the order flows
    /// progress and finish in `advance_to`).
    fn compute_rates(&mut self) {
        let (rate_at, settled, unsettled) =
            (&mut self.rate_at, &mut self.settled, &mut self.unsettled);
        rate_at.clear();
        rate_at.resize(self.flows.len(), 0.0);
        settled.clear();
        unsettled.clear();
        for (pos, (id, f)) in self.flows.iter().enumerate() {
            if f.remaining > EPS {
                unsettled.push((pos, *id, f.weight, f.cap));
            } else {
                settled.push((*id, 0.0));
            }
        }
        let mut settle = |pos: usize, id: u64, rate: f64| {
            rate_at[pos] = rate;
            settled.push((id, rate));
        };
        let mut cap_left = self.capacity;
        loop {
            if unsettled.is_empty() || cap_left <= 0.0 {
                for &(pos, id, _, _) in unsettled.iter() {
                    settle(pos, id, 0.0);
                }
                break;
            }
            let wsum: f64 = unsettled.iter().map(|&(_, _, w, _)| w).sum();
            let mut fixed_any = false;
            let mut i = 0;
            while i < unsettled.len() {
                let (pos, id, w, cap) = unsettled[i];
                let share = cap_left * w / wsum;
                if cap <= share + 1e-12 {
                    settle(pos, id, cap);
                    cap_left -= cap;
                    unsettled.swap_remove(i);
                    fixed_any = true;
                } else {
                    i += 1;
                }
            }
            if !fixed_any {
                // No caps bind: everyone gets their proportional share.
                for &(pos, id, w, _) in unsettled.iter() {
                    settle(pos, id, cap_left.max(0.0) * w / wsum);
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a resource to completion of all flows, returning
    /// `(flow, completion_time)` pairs, using the tick protocol exactly as a
    /// model would.
    fn drain(res: &mut PsResource, start: Millis) -> Vec<(FlowId, Millis)> {
        let mut out = Vec::new();
        let mut now = start;
        while let Some((at, gen)) = res.next_completion(now) {
            now = at;
            for id in res.on_tick(now, gen).expect("a just-armed tick is fresh") {
                out.push((id, now));
            }
        }
        out
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let mut res = PsResource::new(10.0);
        // 100 units at cap 2/ms => 50 ms.
        let f = res.add_flow(Millis(0), 100.0, 1.0, 2.0);
        let done = drain(&mut res, Millis(0));
        assert_eq!(done, vec![(f, Millis(50))]);
    }

    #[test]
    fn single_flow_limited_by_capacity() {
        let mut res = PsResource::new(1.0);
        // cap 5/ms but capacity 1/ms => 100 ms.
        let f = res.add_flow(Millis(0), 100.0, 1.0, 5.0);
        let done = drain(&mut res, Millis(0));
        assert_eq!(done, vec![(f, Millis(100))]);
    }

    #[test]
    fn equal_flows_share_fairly() {
        let mut res = PsResource::new(2.0);
        // Two identical flows, each capped at 2: share capacity equally at
        // 1/ms each => both finish at 100 ms.
        let a = res.add_flow(Millis(0), 100.0, 1.0, 2.0);
        let b = res.add_flow(Millis(0), 100.0, 1.0, 2.0);
        let done = drain(&mut res, Millis(0));
        assert_eq!(done.len(), 2);
        assert!(done.contains(&(a, Millis(100))));
        assert!(done.contains(&(b, Millis(100))));
    }

    #[test]
    fn weighted_sharing() {
        let mut res = PsResource::new(3.0);
        // weight 2 vs 1 => rates 2 and 1.
        let a = res.add_flow(Millis(0), 200.0, 2.0, 10.0);
        let b = res.add_flow(Millis(0), 100.0, 1.0, 10.0);
        let done = drain(&mut res, Millis(0));
        assert!(done.contains(&(a, Millis(100))));
        assert!(done.contains(&(b, Millis(100))));
    }

    #[test]
    fn capped_flow_leaves_slack_to_others() {
        let mut res = PsResource::new(10.0);
        // a capped at 1/ms; b takes the rest (cap 9/ms).
        let a = res.add_flow(Millis(0), 100.0, 1.0, 1.0);
        let b = res.add_flow(Millis(0), 90.0, 1.0, 9.0);
        let done = drain(&mut res, Millis(0));
        assert!(done.contains(&(a, Millis(100))), "{done:?}");
        assert!(done.contains(&(b, Millis(10))), "{done:?}");
    }

    #[test]
    fn rates_speed_up_after_completion() {
        let mut res = PsResource::new(2.0);
        // Both capped at 2. Shares 1/1. b finishes at t=10 (10 units);
        // a then runs at 2/ms: a has 100-10=90 left => +45ms => t=55.
        let a = res.add_flow(Millis(0), 100.0, 1.0, 2.0);
        let b = res.add_flow(Millis(0), 10.0, 1.0, 2.0);
        let done = drain(&mut res, Millis(0));
        assert!(done.contains(&(b, Millis(10))), "{done:?}");
        assert!(done.contains(&(a, Millis(55))), "{done:?}");
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut res = PsResource::new(2.0);
        let a = res.add_flow(Millis(0), 100.0, 1.0, 2.0);
        // a alone at 2/ms. At t=20 (60 left for a), b arrives; both at 1/ms.
        // b: 30 units => done t=50. a: 60-30=30 left at t=50, then 2/ms
        // => done t=65.
        let (at, gen) = res.next_completion(Millis(0)).unwrap();
        assert_eq!(at, Millis(50));
        let b = res.add_flow(Millis(20), 30.0, 1.0, 2.0);
        // The original tick is now stale.
        assert_eq!(res.on_tick(Millis(50), gen), None);
        let done = drain(&mut res, Millis(20));
        assert!(done.contains(&(b, Millis(50))), "{done:?}");
        assert!(done.contains(&(a, Millis(65))), "{done:?}");
    }

    #[test]
    fn zero_work_flow_completes_immediately() {
        let mut res = PsResource::new(1.0);
        let a = res.add_flow(Millis(5), 0.0, 1.0, 1.0);
        let (at, gen) = res.next_completion(Millis(5)).unwrap();
        assert_eq!(at, Millis(5));
        assert_eq!(res.on_tick(at, gen), Some(vec![a]));
    }

    #[test]
    fn stale_tick_is_ignored() {
        let mut res = PsResource::new(1.0);
        res.add_flow(Millis(0), 10.0, 1.0, 1.0);
        let (_, gen) = res.next_completion(Millis(0)).unwrap();
        res.add_flow(Millis(1), 10.0, 1.0, 1.0); // bumps gen
        let live = res.next_completion(Millis(1));
        assert_eq!(res.on_tick(Millis(10), gen), None);
        // Nothing moved: the live tick is still the one to arm.
        assert_eq!(res.next_completion(Millis(10)), live);
    }

    #[test]
    fn work_conservation_accounting() {
        let mut res = PsResource::new(4.0);
        res.add_flow(Millis(0), 100.0, 1.0, 4.0);
        res.add_flow(Millis(0), 60.0, 1.0, 4.0);
        drain(&mut res, Millis(0));
        assert!(
            (res.work_done() - 160.0).abs() < 1e-3,
            "{}",
            res.work_done()
        );
    }

    #[test]
    fn completion_time_never_in_past() {
        let mut res = PsResource::new(1.0);
        res.add_flow(Millis(0), 0.5, 1.0, 1.0); // exact completion at 0.5ms
        let (at, _) = res.next_completion(Millis(0)).unwrap();
        assert_eq!(at, Millis(1)); // ceil quantization
    }

    #[test]
    fn many_flows_complete_in_order_of_size() {
        let mut res = PsResource::new(8.0);
        let flows: Vec<FlowId> = (1..=8)
            .map(|i| res.add_flow(Millis(0), (i * 100) as f64, 1.0, 8.0))
            .collect();
        let done = drain(&mut res, Millis(0));
        let order: Vec<FlowId> = done.iter().map(|(f, _)| *f).collect();
        assert_eq!(order, flows, "smaller flows must finish first");
        // Times must be non-decreasing.
        for w in done.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
