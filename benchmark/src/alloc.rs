//! A pass-through allocator that counts allocations while counting is
//! switched on, so the replay can report exact allocations per
//! superstep. The `bench` binary installs it as its
//! `#[global_allocator]`; the server child does not, so the end-to-end
//! numbers never pay for it.
//!
//! The switch matters: a counter bumped on every allocation is one cache
//! line written by every thread, and with two shard threads allocating
//! twelve times per 0.8 µs superstep it halved the sharded replay's
//! speed. Switched off, an allocation costs one relaxed load of a line
//! nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// See the module docs.
#[derive(Debug)]
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn bump() {
    // Relaxed: the count is a statistic and publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is delegated to `System` unchanged; the
// counter has no effect on what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, plus the caller's guarantee that
        // `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) made while counting was on; 0 if the
/// counting allocator is not installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
