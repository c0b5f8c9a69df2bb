//! The heap allocations of `Session::check(..).auto()` on the benchmark's
//! `decide_heavy` population: the first 200 distinct draws of the
//! hard-family generator (`hard_family_percent: 100`) from seed 9001,
//! checked in draw order on a session that has interned them all first.
//! The session runs every check on the calling thread, as the benchmark's
//! does: a sweep fanned out to worker threads allocates for the threads.
//!
//! A decide-routed request translates its formula to LTL, builds the
//! tableau `Graph(¬B)`, runs the §5 condition or the §5.3 evaluated
//! fixpoint and sweeps for a counterexample; a bounded-routed one sweeps
//! only.  The audit pins the set-up (a fresh session plus 200 interns), the
//! whole pass, and three requests: the `[ => q ] <>r` shape whose explicit
//! condition artifact runs, the 33-node `[ => p ] []r` tableau and a
//! bounded-routed request.
//!
//! The crate's counting global allocator tallies every allocation of the
//! process, so this file holds a single test: no other test thread
//! allocates while it counts.

use std::collections::HashSet;

use ilogic_alloc_audit::allocations;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::pool::Parallelism;
use ilogic_core::prelude::*;
use ilogic_core::session::{CheckRequest, Session};

/// Ceilings: each reading of the allocation-lean request path plus at most
/// 10% slack.  It read a set-up of 26 allocations, a pass of 9 429, and 195,
/// 121 and 20 for the three requests; the request path before it read 544,
/// 26 604, 1 055, 352 and 40.  The set-up is the cost of `Session::new` and
/// `intern`, which must not grow.
const SETUP: usize = 28;
const PASS: usize = 10_000;
const EVENTUALLY_ARTIFACT: usize = 214;
const ALWAYS_33_NODES: usize = 133;
const BOUNDED: usize = 22;

/// The first `count` distinct hard-family draws of the seed-9001 stream.
fn population(count: usize) -> Vec<Formula> {
    let config = GeneratorConfig { hard_family_percent: 100, ..GeneratorConfig::default() };
    let mut generator = FormulaGenerator::from_seed(9001, config);
    let mut seen = HashSet::new();
    let mut formulas = Vec::with_capacity(count);
    while formulas.len() < count {
        let formula = generator.next_formula();
        if seen.insert(formula.clone()) {
            formulas.push(formula);
        }
    }
    formulas
}

#[test]
fn a_decide_heavy_pass_allocates_within_its_ceilings() {
    let formulas = population(200);
    let requests: Vec<CheckRequest> =
        formulas.iter().map(|f| CheckRequest::new(f.clone()).auto()).collect();
    let texts: Vec<String> = formulas.iter().map(ToString::to_string).collect();
    let mut made = Vec::with_capacity(formulas.len());
    let mut backends = Vec::with_capacity(formulas.len());

    let before = allocations();
    let session = Session::new().with_parallelism(Parallelism::Off);
    for formula in &formulas {
        session.intern(formula);
    }
    let setup = allocations() - before;

    let before_pass = allocations();
    for request in requests {
        let before = allocations();
        let report = session.check(request);
        made.push(allocations() - before);
        backends.push(report.backend);
    }
    let pass = allocations() - before_pass;

    let of = |text: &str| {
        let at = texts.iter().position(|t| t == text).unwrap_or_else(|| panic!("{text} drawn"));
        (made[at], backends[at])
    };
    let (eventually, eventually_backend) = of("[ => q ] <>r");
    let (always, always_backend) = of("[ => p ] []r");
    let (bounded, bounded_backend) = of("~[ end => q ] [](r | r)");
    let decide: Vec<usize> =
        (0..made.len()).filter(|&i| backends[i] == "decide").map(|i| made[i]).collect();
    println!(
        "set-up {setup}; pass {pass} ({} decide-routed, {} allocations); \
         [ => q ] <>r {eventually}; [ => p ] []r {always}; ~[ end => q ] [](r | r) {bounded}",
        decide.len(),
        decide.iter().sum::<usize>()
    );
    assert_eq!(
        (eventually_backend, always_backend, bounded_backend),
        ("decide", "decide", "bounded")
    );
    assert!(setup <= SETUP, "the set-up made {setup} allocations, more than {SETUP}");
    assert!(pass <= PASS, "the pass made {pass} allocations, more than {PASS}");
    assert!(
        eventually <= EVENTUALLY_ARTIFACT,
        "[ => q ] <>r made {eventually} allocations, more than {EVENTUALLY_ARTIFACT}"
    );
    assert!(always <= ALWAYS_33_NODES, "[ => p ] []r made {always}, more than {ALWAYS_33_NODES}");
    assert!(bounded <= BOUNDED, "~[ end => q ] [](r | r) made {bounded}, more than {BOUNDED}");
}
