//! Heap accounting: a counting wrapper around the system allocator.
//!
//! Counts are taken only while [`counting`] is on — the harness turns it on
//! for the measured passes and off for reference-kernel runs, set-up and the
//! harness's own bookkeeping — so `allocs_per_unit` is a property of the
//! measured program, repeats to the last digit, and does not see the host's
//! speed.
//!
//! The switch and the counters are per thread: the measured passes run on
//! the thread that switched counting on, and a test running beside them on
//! another thread cannot leak into their counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // `const` cells of `Copy` data: no lazy initialisation and no destructor,
    // so touching them from inside the allocator cannot itself allocate.
    static ON: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, which is
        // `System`'s, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(bytes: usize) {
    if ON.get() {
        CALLS.set(CALLS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

/// Turn counting on or off for the calling thread.
pub fn counting(on: bool) {
    ON.set(on);
}

/// `(allocations incl. reallocs, bytes requested)` the calling thread has
/// counted so far.
pub fn counted() -> (u64, u64) {
    (CALLS.get(), BYTES.get())
}
