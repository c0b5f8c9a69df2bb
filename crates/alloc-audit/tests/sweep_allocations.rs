//! The bounded sweep's heap allocations do not grow with the number of
//! computations it checks: the word-parallel evaluator reuses its memo
//! tables and group pool from pass to pass, and only the counterexample, if
//! any, is built as a `Trace`.
//!
//! A counting global allocator tallies every allocation of the process, so
//! this file holds a single test: no other test thread allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ilogic_core::arena::FormulaArena;
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::dsl::{always, end, event, fwd_to, prop};
use ilogic_core::pool::{Parallelism, ResourceBudget};

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

/// Allocations a depth-4 sweep may make beyond the depth-3 one: its longer
/// computations visit more intervals, so the reused tables grow a few more
/// times before they settle.
const SLACK: usize = 8;

#[test]
fn a_full_sweep_allocates_independently_of_its_size() {
    let mut arena = FormulaArena::new();
    // `[ end => q ] [](q | p)`, valid at every depth.
    let formula =
        arena.intern(&always(prop("q").or(prop("p"))).within(end(fwd_to(event(prop("q"))))));
    // (computations checked, allocations made) of one full sweep.
    let sweep = |depth: usize| {
        let checker = BoundedChecker::new(["q", "p"], depth);
        let budget = ResourceBudget::unbounded();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sweep = checker.sweep_budgeted(&arena, formula, None, Parallelism::Off, &budget);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(sweep.counterexample.is_none(), "the formula is valid up to depth {depth}");
        (sweep.traces_checked, allocations)
    };
    let (small, small_allocations) = sweep(3);
    let (large, large_allocations) = sweep(4);
    println!(
        "{small} computations: {small_allocations} allocations; \
         {large} computations: {large_allocations} allocations"
    );
    assert_eq!((small, large), (312, 1592));
    assert!(
        large_allocations <= small_allocations + SLACK,
        "a sweep of {large} computations made {large_allocations} allocations, one of {small} \
         made {small_allocations}: allocations grow with the computations checked"
    );
}
