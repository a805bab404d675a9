//! The counting global allocator of the benchmark binary.
//!
//! It supplies two things: the live heap and its peak (for
//! `peak_heap_mb`), and per-thread allocation counts that the tracer
//! charges to the innermost open span (for the per-layer `*.allocs`
//! metrics). The hot path touches only thread-local cells; a thread's
//! live-byte delta is folded into the shared total once it passes
//! [`FLUSH`] bytes, so the live and peak figures are exact to within
//! `FLUSH` per thread. A thread that exits takes its unfolded delta with
//! it, and the driver starts two worker threads per batch, so `FLUSH` is
//! small: an edit-session pass of 61 batches drifts by at most 122 KiB.
//!
//! Allocation counts repeat exactly from run to run only in
//! single-threaded workloads: with worker threads, which thread runs a
//! job (and so which thread's counters move) depends on scheduling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// The allocator: [`System`] plus counters.
pub struct Counting;

/// Per-thread live-byte drift allowed before folding into [`LIVE`].
const FLUSH: i64 = 1024;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static PENDING: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn publish(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_live(delta: i64) {
    // `try_with` fails only while the thread's locals are being torn
    // down; count those bytes directly rather than lose them.
    let pending = PENDING.try_with(|p| {
        let v = p.get() + delta;
        if v.abs() >= FLUSH {
            p.set(0);
            Some(v)
        } else {
            p.set(v);
            None
        }
    });
    match pending {
        Ok(Some(v)) => publish(v),
        Ok(None) => {}
        Err(_) => publish(delta),
    }
}

fn note_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    note_live(size as i64);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping around it only updates counters and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note_live(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations pass
        // through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
            note_live(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Allocations and bytes requested so far by the calling thread.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Starts a peak measurement: folds the calling thread's pending drift
/// into the live total, makes the current live heap the peak, and
/// returns it in bytes.
pub fn reset_peak() -> i64 {
    let v = PENDING.with(|p| p.replace(0));
    let live = LIVE.fetch_add(v, Relaxed) + v;
    PEAK.store(live, Relaxed);
    live
}

/// The peak live heap, in bytes, since the last [`reset_peak`].
pub fn peak() -> i64 {
    let v = PENDING.with(|p| p.replace(0));
    publish(v);
    PEAK.load(Relaxed)
}
