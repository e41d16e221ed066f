//! The simulator's allocations are counted, not hoped for.
//!
//! A simulated event allocates for what it writes (a log line's message,
//! and its source's text as that grows) and for what it hands on (a
//! grant's container list, a finished flow list), not for buffers the
//! engine, the world or a processor-sharing resource can keep from one
//! event to the next. A rendered log line is one allocation of exactly
//! its length. This binary installs a counting allocator (it is its own
//! process, so nothing else is affected) and holds both to a number.
//! Counts are per thread, so the harness running tests side by side does
//! not disturb them. CI also runs it with `--release`, the profile the
//! claim is about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use logmodel::{format_line, Level, RecordRef, TsMs};
use simkit::{Millis, SimRng};
use sparksim::{simulate, World};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` this thread made
    /// since it started counting; `None` while it is not.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // A thread past its teardown has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates and never touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return how many allocations this thread made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|n| n.replace(None));
    (out, n.expect("counting was on"))
}

/// The safety net `simulate`'s callers pass.
const HORIZON: Millis = Millis(24 * 60 * 60 * 1000);

fn tpch(n: usize, seed: u64) -> Vec<(Millis, sparksim::JobSpec)> {
    tpch_stream(
        n,
        2048.0,
        4,
        &TraceParams::moderate(),
        &mut SimRng::new(seed),
    )
}

/// Allocations per processed event of the 50-application TPC-H stream
/// (seed 1, 21 419 events), counted when this bound was set: 15 685, or
/// 0.73 per event, in the dev and the release profile alike. While the
/// store kept each line as a record with a class and a message string of
/// its own, the same run made 18 780 (0.88 per event, bound 0.95); while
/// each state transition rendered its entity's id into a string of its
/// own, 25 827 (1.21 per event, bound 1.3); before the engine, the world
/// and the processor-sharing resources kept their per-event buffers,
/// 91 923 (4.29 per event). What remains is what the events write and
/// hand on: each log line's message and its source's growing text, each
/// grant's container list, each tick's finished flows.
const ALLOCS_PER_EVENT: f64 = 0.79;

#[test]
fn fifty_app_stream_stays_within_its_allocations_per_event() {
    let mut engine = World::engine(ClusterConfig::default(), 1, tpch(50, 1));
    let ((), allocs) = allocations(|| engine.run_until(HORIZON));
    assert_eq!(engine.model().summaries.len(), 50);
    let events = engine.processed();
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events = {per_event:.2} per event, \
         bound {ALLOCS_PER_EVENT}: does a step, a notice cascade or a rate \
         computation build a buffer again?"
    );
}

#[test]
fn a_rendered_line_is_one_allocation() {
    let (store, _) = simulate(ClusterConfig::default(), 3, tpch(12, 3), HORIZON);
    let epoch = *store.epoch();
    // Every level, and an empty class and message, beside the stream.
    let record = |ts, level, class, message| RecordRef {
        ts: TsMs(ts),
        level,
        class,
        message,
    };
    let extra = [Level::Debug, Level::Info, Level::Warn, Level::Error]
        .into_iter()
        .flat_map(|level| {
            [
                record(12_345, level, "RMAppImpl", "a message"),
                record(0, level, "", ""),
            ]
        });
    let records: Vec<RecordRef<'_>> = store
        .sources()
        .flat_map(|src| store.records(src).iter())
        .chain(extra)
        .collect();
    let (bytes, allocs) = allocations(|| {
        records
            .iter()
            .map(|&r| format_line(&epoch, r).len())
            .sum::<usize>()
    });
    assert!(records.len() > 1_000, "{} records", records.len());
    assert!(bytes > 100 * records.len());
    assert_eq!(allocs, records.len() as u64, "one allocation per line");
    // And that one allocation is the line's exact length.
    for &r in &records {
        let line = format_line(&epoch, r);
        assert_eq!(line.capacity(), line.len(), "{line}");
    }
}
