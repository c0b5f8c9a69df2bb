//! An `Explore` check's heap allocations do not grow with the number of
//! runs it checks: every run is a pass of the arena engine over reused memo
//! tables, and the explicit quantifier domain is borrowed by every run
//! rather than copied for each.  That holds with a quantifier too: the
//! engine's environment interner answers a bind it has seen before without
//! building a binding list.
//!
//! The crate's counting global allocator tallies every allocation of the
//! process, so this file holds a single test: no other test thread
//! allocates while it counts.

use ilogic_alloc_audit::allocations;
use ilogic_core::dsl::{always, end, event, fwd_to, prop, prop_args, var};
use ilogic_core::prelude::*;
use ilogic_core::session::{CheckRequest, Session};

/// Allocations a check of 256 runs may make beyond one of 64: a later run
/// may be the first to grow a reused table once more.
const SLACK: usize = 8;

/// The `index`-th run: one to five states over `p` and `q`, every third a
/// lasso.
fn run(index: usize) -> Trace {
    let len = 1 + index % 5;
    let states: Vec<State> = (0..len)
        .map(|at| {
            let mut state = State::new();
            if (index >> at) & 1 == 1 {
                state.insert(Prop::plain("p"));
            }
            if ((index * 7) >> at) & 1 == 1 {
                state.insert(Prop::plain("q"));
            }
            state
        })
        .collect();
    match index % 3 {
        0 => Trace::lasso(states, index % len),
        _ => Trace::finite(states),
    }
}

#[test]
fn an_explore_check_allocates_independently_of_its_runs() {
    // `[ end => q ] [](q | p)`, valid, so it holds on every run, alone and
    // as `∀v. (… | x(v))`, which binds `v` to each of the 16 domain values.
    let valid = always(prop("q").or(prop("p"))).within(end(fwd_to(event(prop("q")))));
    let quantified = valid.clone().or(prop_args("x", [var("v")])).forall("v");
    let domain: Vec<Value> = (0..16).map(Value::Int).collect();
    let session = Session::new().with_verdict_cache(false);
    for formula in [valid, quantified] {
        let request = |runs: usize| {
            CheckRequest::new(formula.clone())
                .over_runs((0..runs).map(run).collect())
                .with_domain(domain.clone())
        };
        // (runs checked, allocations made) of one check; the request is
        // built before counting starts.
        let explore = |runs: usize| {
            let request = request(runs);
            let before = allocations();
            let report = session.check(request);
            let made = allocations() - before;
            assert_eq!(report.verdict, Verdict::Holds, "{formula} holds on every run");
            (report.stats.traces_checked, made)
        };
        // A first check interns the formula; the two measured ones do not.
        explore(64);
        let (small, small_allocations) = explore(64);
        let (large, large_allocations) = explore(256);
        println!(
            "{formula}: {small} runs: {small_allocations} allocations; \
             {large} runs: {large_allocations} allocations"
        );
        assert_eq!((small, large), (64, 256));
        assert!(
            large_allocations <= small_allocations + SLACK,
            "an Explore check of {formula} over {large} runs made {large_allocations} \
             allocations, one over {small} made {small_allocations}: allocations grow with \
             the runs checked"
        );
    }
}
