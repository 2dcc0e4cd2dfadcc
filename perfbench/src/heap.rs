//! Heap accounting for the traced run: bytes live and the peak reached
//! through the global allocator. Counting is off until the traced run
//! switches it on, so the end-to-end runs pay one relaxed load per
//! allocation and nothing else.
//!
//! Heap bytes repeat exactly at a fixed seed, where resident memory
//! does not: freed pages stay resident and are reused by later calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, with optional byte accounting.
pub struct Counting;

fn grew(bytes: usize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ON.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's. The counters are
// statistics that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Starts counting. Blocks allocated before this call are not counted,
/// so only differences between readings mean anything.
pub fn start() {
    ON.store(true, Relaxed);
}

/// Runs `f` and returns its result with the peak heap it reached above
/// the bytes live when it started, in MB (10^6 bytes).
pub fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, f64) {
    assert!(ON.load(Relaxed), "heap counting is off");
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    let peak = PEAK.load(Relaxed);
    (out, (peak - base) as f64 / 1e6)
}
