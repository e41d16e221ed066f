//! A minimal scoped worker pool for the offline analysis pipeline.
//!
//! SDchecker's front half is embarrassingly parallel per log stream —
//! reading, parsing and extracting one source needs nothing from another
//! — so all we need is a deterministic ordered `map` over a work list.
//! (The per-application fan-out that once ran on it too is gone: the
//! whole per-application stage costs less than partitioning its input.)
//! This module provides exactly that on
//! `std::thread::scope` (no external dependencies): results come back in
//! input order regardless of which worker ran which item, and
//! `Parallelism::ONE` runs the plain sequential loop on the calling thread
//! with no pool at all, so the single-threaded path is byte-for-byte the
//! pre-parallelism code path.
//!
//! Ownership rule: the pool's items are lent, never given. A worker
//! gets `&T` and so can drop nothing the calling thread allocated; the
//! caller frees its own work list after the pool has joined. glibc frees
//! a chunk into the arena that allocated it, under that arena's lock, so
//! workers dropping the caller's items all queue on the main arena: on a
//! 10 026-file corpus that was 1 000–2 200 voluntary context switches a
//! run at two threads, and under ten once the items were lent.
//!
//! Later PRs should reuse this instead of hand-rolling thread scopes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads a pipeline stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Strictly sequential: run everything on the calling thread.
    pub const ONE: Parallelism = Parallelism { threads: 1 };

    /// Exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism::new(Self::hardware_threads())
    }

    /// The machine's available hardware parallelism (1 when unknown).
    pub fn hardware_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// `requested` workers clamped to the hardware parallelism. More
    /// workers than hardware threads only adds scheduling overhead
    /// (benchmarks show a net slowdown), so binaries route `--threads`
    /// through here and report requested vs effective separately.
    pub fn clamped(requested: usize) -> Parallelism {
        Parallelism::new(requested.max(1).min(Self::hardware_threads()))
    }

    /// The configured worker count.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Whether this configuration runs the sequential code path.
    pub(crate) fn is_sequential(self) -> bool {
        self.threads == 1
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::auto()
    }
}

/// Apply `f` to every item, returning results in input order.
///
/// With `Parallelism::ONE` (or fewer than two items) this is exactly
/// `items.iter().map(f).collect()` on the calling thread. Otherwise a
/// scoped pool of `min(threads, items)` workers claims items one index
/// at a time off a shared counter; the pool lives only for the duration
/// of the call, so `f` may borrow from the caller's stack.
///
/// A panic in `f` propagates to the caller, with its own payload, once
/// all workers have stopped.
pub fn map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if par.is_sequential() || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let n = items.len();
    let (next, f) = (&AtomicUsize::new(0), &f);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..par.threads().min(n))
            .map(|w| {
                s.spawn(move || {
                    let _span = obs::span("par_worker").arg("worker", w).arg("items", n);
                    let mut local = Vec::new();
                    // One item per claim, so a slow item cannot starve
                    // the other workers of the rest of the list.
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else {
                            break;
                        };
                        local.push((idx, f(item)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    debug_assert_eq!(done.len(), n);
    done.sort_by_key(|(idx, _)| *idx);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let seq = map(Parallelism::ONE, &items, |x| x * x);
        for threads in [2, 3, 8, 64] {
            let par = map(Parallelism::new(threads), &items, |x| x * x);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn order_is_input_order_despite_uneven_work() {
        let items: Vec<usize> = (0..32).collect();
        let out = map(Parallelism::new(4), &items, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = [10u64, 20, 30];
        let out = map(Parallelism::new(2), &[0usize, 1, 2], |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_single_item() {
        let out: Vec<u32> = map(Parallelism::new(8), &[] as &[u32], |&x| x);
        assert!(out.is_empty());
        let out = map(Parallelism::new(8), &[5u32], |x| x + 1);
        assert_eq!(out, vec![6]);
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn a_worker_panic_reaches_the_caller() {
        map(Parallelism::new(2), &[0u32, 1, 2, 3, 4], |&i| {
            assert_ne!(i, 3, "item {i}");
        });
    }

    #[test]
    fn parallelism_clamps_and_defaults() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert!(Parallelism::ONE.is_sequential());
        assert!(Parallelism::auto().threads() >= 1);
        assert!(!Parallelism::new(2).is_sequential());
    }

    #[test]
    fn clamped_never_exceeds_hardware() {
        let hw = Parallelism::hardware_threads();
        assert!(hw >= 1);
        assert_eq!(Parallelism::clamped(0).threads(), 1);
        assert_eq!(Parallelism::clamped(1).threads(), 1);
        assert_eq!(Parallelism::clamped(hw).threads(), hw);
        assert_eq!(Parallelism::clamped(hw + 100).threads(), hw);
    }
}
