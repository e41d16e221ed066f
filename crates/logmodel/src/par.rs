//! A minimal scoped worker pool for the offline analysis pipeline.
//!
//! SDchecker's front half is embarrassingly parallel per log stream —
//! reading, parsing and extracting one source needs nothing from another
//! — and its back half per application, once each application's events
//! are gathered from the streams: so all we need is a deterministic
//! ordered `map` over a work list. This module provides exactly that on
//! `std::thread::scope` (no external dependencies): results come back in
//! input order regardless of which worker ran which item, and
//! `Parallelism::ONE` runs the plain sequential loop on the calling thread
//! with no pool at all, so the single-threaded path is byte-for-byte the
//! pre-parallelism code path.
//!
//! [`stream`] is the same pool for a caller that folds results as they
//! come: the calling thread hands the items out one at a time, heaviest
//! first, lent mutably to whichever worker is free (each with a scratch
//! slot of its own), and takes the results in input order while later
//! items are still being worked on; a result ahead of its turn waits on
//! the calling thread, and no item more than [`STREAM_AHEAD`] per worker
//! past the one whose turn it is is handed out, so what waits is
//! bounded by items, not by the work list. The daemon's catch-up poll
//! reads and scans files that way and folds the scans into its one
//! analyzer.
//!
//! Ownership rule: the pool's items are lent, never given. A worker
//! gets `&T` (`&mut T` from [`stream`]) and so can drop nothing the
//! calling thread allocated; the caller frees its own work list after
//! the pool has joined. glibc frees
//! a chunk into the arena that allocated it, under that arena's lock, so
//! workers dropping the caller's items all queue on the main arena: on a
//! 10 026-file corpus that was 1 000–2 200 voluntary context switches a
//! run at two threads, and under ten once the items were lent.
//!
//! Later PRs should reuse this instead of hand-rolling thread scopes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

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

/// How many items per worker [`stream`] may hand out past the one whose
/// results the calling thread waits for. The daemon's first poll had up
/// to 17 items (21 batches of scans) waiting on two workers over a
/// 500-application corpus, and 28 (69) over 2 000 applications: the runs
/// of applications the second worker scans while the first reads the
/// ResourceManager log, which comes before them in input order. A
/// window of a few items would keep the second worker idle for most of
/// that read.
pub const STREAM_AHEAD: usize = 16;

/// Apply `work` to every item over a pool; each call hands its item's
/// results, any number of them, to its `emit`, and they reach `take` on
/// the calling thread in item order — within an item, in emission
/// order — as soon as they and every earlier one are made.
///
/// The calling thread hands the items out, lent mutably, one at a time
/// to whichever of the `n = min(threads, items, scratch.len())` workers
/// is free (worker `w` working with `scratch[w]`), heaviest `weight`
/// first, ties in input order: the heaviest item starts at once and the
/// rest fill in around it, but no item more than [`STREAM_AHEAD`] × `n`
/// places past the first whose results are not all taken yet: a worker
/// comes free with none of those left waits until the calling thread
/// moves on. A result made ahead of its turn waits on the calling thread;
/// what waits is the results of at most that many items, which is what
/// an uneven work list costs. With
/// `Parallelism::ONE` (or `n < 2`) it is the plain loop on the calling
/// thread with `scratch[0]`, `emit` being `take`, so `scratch` must not
/// be empty. Workers record nothing and free nothing the caller
/// allocated.
///
/// A panic in `work` or in `take` reaches the caller with its payload
/// once all workers have stopped.
pub fn stream<T, W, R>(
    par: Parallelism,
    items: &mut [T],
    weight: impl Fn(&T) -> u64,
    scratch: &mut [W],
    work: impl Fn(&mut W, &mut T, &mut dyn FnMut(R)) + Sync,
    mut take: impl FnMut(R),
) where
    T: Send,
    W: Send,
    R: Send,
{
    let n = par.threads().min(items.len()).min(scratch.len());
    if n < 2 {
        let slot = &mut scratch[0];
        for item in items {
            work(slot, item, &mut take);
        }
        return;
    }
    let (len, window) = (items.len(), STREAM_AHEAD * n);
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weight(&items[i])));
    let mut slots: Vec<Option<&mut T>> = items.iter_mut().map(Some).collect();
    // The heaviest item not handed out yet within the window past `next`.
    let mut job = |next: usize| {
        let at = order.iter().position(|&i| i < next + window)?;
        let i = order.remove(at);
        Some((i, slots[i].take()?))
    };
    let work = &work;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Done<R>>();
        let (inboxes, workers): (Vec<_>, Vec<_>) = scratch[..n]
            .iter_mut()
            .enumerate()
            .map(|(w, slot)| {
                let (to_worker, inbox) = mpsc::channel::<(usize, &mut T)>();
                let tx = tx.clone();
                let worker = s.spawn(move || {
                    for (i, item) in inbox {
                        // Each result goes out when the next one is made,
                        // the last with the word that the item is done.
                        let mut last = None;
                        let mut emit = |r| {
                            if let Some(made) = last.replace(r) {
                                drop(tx.send(Done::Part(i, made)));
                            }
                        };
                        let run = || work(slot, item, &mut emit);
                        let msg = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                        {
                            Ok(()) => Done::Item(i, w, last.take()),
                            Err(panic) => Done::Panic(panic),
                        };
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                });
                (to_worker, worker)
            })
            .unzip();
        drop(tx);
        // Two items each to start: one to work on, one to go on with
        // while this thread is busy taking. A worker owed an item the
        // window held back is fed once the window moves.
        let mut owed: Vec<usize> = Vec::new();
        for _ in 0..2 {
            for (w, inbox) in inboxes.iter().enumerate() {
                match job(0) {
                    Some(job) => drop(inbox.send(job)),
                    None => owed.push(w),
                }
            }
        }
        // Results ahead of their turn, and whether their item is done.
        let mut ahead: std::collections::BTreeMap<usize, (Vec<R>, bool)> = Default::default();
        let mut next = 0;
        while next < len {
            let Ok(msg) = rx.recv() else { break };
            match msg {
                Done::Part(i, r) if i == next => take(r),
                Done::Part(i, r) => ahead.entry(i).or_default().0.push(r),
                Done::Item(i, w, last) => {
                    owed.push(w);
                    let entry = ahead.entry(i).or_default();
                    entry.0.extend(last);
                    entry.1 = true;
                    while let Some((parts, done)) = ahead.remove(&next) {
                        parts.into_iter().for_each(&mut take);
                        if !done {
                            break;
                        }
                        next += 1;
                    }
                    while let Some(&w) = owed.last() {
                        let Some(job) = job(next) else { break };
                        drop(inboxes[w].send(job));
                        owed.pop();
                    }
                }
                Done::Panic(panic) => {
                    drop(inboxes);
                    std::panic::resume_unwind(panic);
                }
            }
        }
        drop(inboxes);
        for w in workers {
            w.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// What a [`stream`] worker tells the calling thread.
enum Done<R> {
    /// A result of item `i`.
    Part(usize, R),
    /// Item `i` is done, with its last result; worker `w` is free.
    Item(usize, usize, Option<R>),
    /// `work` panicked.
    Panic(Box<dyn std::any::Any + Send>),
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
    fn stream_takes_results_in_input_order_at_every_width() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<usize> = (0..40).collect();
            let mut scratch = vec![0usize; threads];
            let mut got = Vec::new();
            stream(
                Parallelism::new(threads),
                &mut items,
                |&i| (i % 5) as u64,
                &mut scratch,
                |seen, i, emit| {
                    if *i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    *seen += 1;
                    *i += 100;
                    // Item i emits i % 3 results.
                    for k in 0..*i % 3 {
                        emit((*i, k));
                    }
                },
                |r| got.push(r),
            );
            let want: Vec<(usize, usize)> = (100..140)
                .flat_map(|i| (0..i % 3).map(move |k| (i, k)))
                .collect();
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(
                items,
                (100..140).collect::<Vec<_>>(),
                "every item lent mutably, once"
            );
            assert_eq!(scratch.iter().sum::<usize>(), 40);
        }
    }

    #[test]
    fn the_heaviest_item_starts_first_and_is_taken_in_its_turn() {
        let mut items = vec![1u64, 1, 1, 1, 1, 1, 40];
        let mut first = [None, None];
        let mut got = Vec::new();
        stream(
            Parallelism::new(2),
            &mut items,
            |&w| w,
            &mut first,
            |first, &mut w, emit| {
                first.get_or_insert(w);
                std::thread::sleep(std::time::Duration::from_millis(w));
                emit(w);
                emit(w + 100);
            },
            |w| got.push(w),
        );
        assert_eq!(first, [Some(40), Some(1)], "the heavy item went out first");
        assert_eq!(
            got,
            [1, 101, 1, 101, 1, 101, 1, 101, 1, 101, 1, 101, 40, 140]
        );
    }

    #[test]
    fn stream_hands_out_no_item_past_its_window() {
        let threads = 2;
        let window = STREAM_AHEAD * threads;
        let mut items: Vec<usize> = (0..4 * window).collect();
        let started = AtomicUsize::new(0);
        let mut got = Vec::new();
        stream(
            Parallelism::new(threads),
            &mut items,
            |_| 1,
            &mut [(), ()],
            |_, &mut i, emit| {
                started.fetch_max(i, Ordering::Relaxed);
                if i == 0 {
                    // Long enough for the other worker to reach the
                    // window's end, which it must not pass.
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    emit(started.load(Ordering::Relaxed));
                }
            },
            |furthest| got.push(furthest),
        );
        assert_eq!(got, [window - 1], "items started while item 0 ran");
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_stream_worker_panic_reaches_the_caller() {
        let mut items: Vec<u32> = (0..32).collect();
        stream(
            Parallelism::new(2),
            &mut items,
            |_| 1,
            &mut [(), ()],
            |_, &mut i, emit| {
                assert_ne!(i, 5, "item {i}");
                emit(i);
            },
            |_| {},
        );
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
