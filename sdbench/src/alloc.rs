//! A counting global allocator for the traced run: allocations and peak
//! live bytes of a region of code, so later zero-copy work can claim a
//! count. Counting is off except inside [`measure`]; when off it costs one
//! relaxed load per allocation, in the harness only — the binaries under
//! test do not link this.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough. Exact counts need the measured region to run on one thread,
// which `measure`'s callers ensure.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, with counters.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters never touch
// the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grow(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What a measured region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Most bytes live at once, over what was live when the region began.
    pub peak_live_bytes: u64,
}

/// Run `f` with counting on and return what it allocated. Regions do not
/// nest, and the count is exact only while no other thread allocates.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let stats = AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_peak_of_a_region() {
        // Other test threads allocate and free meanwhile, so only the
        // count's lower bound is certain here; the traced run, on one
        // thread, insists that counts and peak repeat exactly.
        let (len, stats) = measure(|| {
            let big: Vec<u8> = vec![1; 3 << 20];
            let small: Vec<Vec<u8>> = (0..100).map(|i| vec![i as u8; 64]).collect();
            big.len() + small.len()
        });
        assert_eq!(len, (3 << 20) + 100);
        assert!(stats.allocs >= 102, "{stats:?}");
        // Counting is off again: nothing accumulates outside a region.
        let before = ALLOCS.load(Ordering::Relaxed);
        drop(vec![0u8; 4096]);
        assert_eq!(ALLOCS.load(Ordering::Relaxed), before);
    }
}
