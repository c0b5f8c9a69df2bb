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
//! It then pins a verdict-cache hit: the same three requests again through
//! `Session::check`, and a repeated `POST /check` body through the daemon's
//! `router::handle` on its warm session — parse, lint, check and encode.
//!
//! The crate's counting global allocator tallies every allocation of the
//! process, so this file holds a single test: no other test thread
//! allocates while it counts.

use std::collections::HashSet;
use std::sync::Arc;

use ilogic_alloc_audit::allocations;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::pool::Parallelism;
use ilogic_core::prelude::*;
use ilogic_core::session::{CheckReport, CheckRequest, Session};
use ilogic_server::config::ServerConfig;
use ilogic_server::http::Request;
use ilogic_server::metrics::Metrics;
use ilogic_server::router::{self, ServerContext};
use ilogic_server::shed::AdmissionGate;
use ilogic_server::store::JobStore;

/// Ceilings: each reading of the allocation-lean request path plus at most
/// 10% slack.  It read a set-up of 26 allocations, a pass of 9 429, and 195,
/// 121 and 20 for the three requests; the request path before it read 544,
/// 26 604, 1 055, 352 and 40.  With the analysis memo (each formula's
/// findings and estimate, and the alphabet kept from the analysis pass) the
/// pass reads 9 428 and the three requests 196, 125 and 20; a memo that also
/// kept `¬B` and the alphabet behind an `Arc` read 9 663, 197, 127 and 21.
/// The set-up is the cost of `Session::new` and `intern`, which must not
/// grow: it read 17 once the arena kept one copy of each node, indexed by
/// tables of ids rather than by maps keyed on a second copy (26 before).
const SETUP: usize = 18;
const PASS: usize = 10_000;
const EVENTUALLY_ARTIFACT: usize = 214;
const ALWAYS_33_NODES: usize = 133;
const BOUNDED: usize = 22;

/// Ceilings of a verdict-cache hit, each reading plus at most 10% slack.
/// Through `Session::check` the three requests above read 6, 9 and 4
/// allocations on a hit (the memoized analysis's diagnostics, the routing
/// record, one clone of the stored verdict); when every hit re-ran the
/// analysis pass they read 59, 50 and 13.  Through `router::handle`, a
/// repeated body of the `[ => q ] <>r` request reads 29; when the wire
/// layer linted it on a throwaway arena first, 147.
const HIT: usize = 10;
const ROUTED_HIT: usize = 32;

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

    for text in ["[ => q ] <>r", "[ => p ] []r", "~[ end => q ] [](r | r)"] {
        let at = texts.iter().position(|t| t == text).expect("drawn");
        let request = CheckRequest::new(formulas[at].clone()).auto();
        let before = allocations();
        let report = session.check(request);
        let hit = allocations() - before;
        println!("hit {text}: {hit}");
        assert_eq!(report.stats.cache.hits, 1, "{text}");
        assert!(hit <= HIT, "a hit on {text} made {hit} allocations, more than {HIT}");
    }

    let routed_hit = served_hit("[ => q ] <>r");
    println!("routed hit [ => q ] <>r: {routed_hit}");
    assert!(routed_hit <= ROUTED_HIT, "a served hit made {routed_hit}, more than {ROUTED_HIT}");
}

/// The allocations of `router::handle` answering a repeated `POST /check`
/// body, in the benchmark's request shape, from its warm session.
fn served_hit(formula: &str) -> usize {
    let config = ServerConfig::default();
    let metrics = Metrics::new(config.capacity);
    let ctx = ServerContext {
        gate: AdmissionGate::new(Arc::clone(&metrics), config.retry_after_ms),
        store: JobStore::new(config.job_sets_retained),
        session: Session::new().with_parallelism(Parallelism::Off),
        metrics,
        config,
    };
    let body = format!(
        r#"{{"formula":"{formula}","backend":{{"kind":"auto"}},"budget":{{"timeout_ms":2000}}}}"#
    );
    let request = Request { method: "POST".into(), path: "/check".into(), body, keep_alive: true };
    assert_eq!(router::handle(&request, &ctx).status, 200);
    let before = allocations();
    let response = router::handle(&request, &ctx);
    let made = allocations() - before;
    let report = CheckReport::from_json(&response.body).expect("a report");
    assert_eq!(report.stats.cache.hits, 1, "{}", response.body);
    made
}
