//! Heap-allocation audits.  The audits are integration tests
//! (`tests/*.rs`), each its own binary; this library installs the counting
//! global allocator they share and reads its tally.
//!
//! The allocator counts every allocation of the process, so each audit file
//! holds a single test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// The one unsafe item of the crate (see its Cargo.toml).
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract, so the callers' guarantees (a non-zero
// layout size, a pointer `System` allocated with that layout) pass straight
// through.  Counting is an atomic add, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc`, forwarded; `ptr`
        // came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc`, forwarded; `ptr`
        // came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations (and reallocations) the process has made so far.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}
