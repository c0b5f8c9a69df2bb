//! The bounded sweep's heap allocations do not grow with the number of
//! computations it checks: the word-parallel evaluator reuses its memo
//! tables and group pool from pass to pass, and only the counterexample, if
//! any, is built as a `Trace`.
//!
//! The crate's counting global allocator tallies every allocation of the
//! process, so this file holds a single test: no other test thread
//! allocates while it counts.

use ilogic_alloc_audit::allocations;
use ilogic_core::arena::FormulaArena;
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::dsl::{always, end, event, fwd_to, prop};
use ilogic_core::pool::{Parallelism, ResourceBudget};

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
        let before = allocations();
        let sweep = checker.sweep_budgeted(&arena, formula, None, Parallelism::Off, &budget);
        let made = allocations() - before;
        assert!(sweep.counterexample.is_none(), "the formula is valid up to depth {depth}");
        (sweep.traces_checked, made)
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
