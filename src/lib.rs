//! # ilogic
//!
//! Umbrella crate for the reproduction of *"An Interval Logic for Higher-Level
//! Temporal Reasoning"* (Schwartz, Melliar-Smith, Vogt, Plaisted; NASA CR
//! 172262 / PODC 1983), fronted by the unified [`Session`] checking API.
//!
//! New to the codebase?  Read `ARCHITECTURE.md` at the repository root
//! first — it maps the crates, explains the arena + snapshot + pool
//! concurrency model the parallel engines share, compares the four
//! backends, and states the determinism guarantees.  Its full text is
//! reproduced at the end of this page, under [Architecture](#architecture).
//!
//! # Quick start
//!
//! Every way of asking "does this formula hold?" goes through one door: build
//! a [`Session`], describe the check with a builder-style [`CheckRequest`]
//! selecting a [`Backend`], and read the uniform [`Verdict`] (plus timing and
//! memoization statistics) off the returned [`CheckReport`].  One-shot checks
//! use [`Session::check`]; batches use [`Session::check_many`] (below):
//!
//! ```
//! use ilogic::core::dsl::*;
//! use ilogic::core::prelude::*;
//! use ilogic::{CheckRequest, Session, Verdict};
//!
//! let mut session = Session::new();
//!
//! // [ A => *B ] <> D over a concrete computation.
//! let formula = eventually(prop("D")).within(fwd(event(prop("A")), must(event(prop("B")))));
//! let trace = Trace::finite(vec![
//!     State::new(),
//!     State::new().with("A"),
//!     State::new().with("A").with("D"),
//!     State::new().with("A").with("B"),
//! ]);
//! assert_eq!(session.check(CheckRequest::new(formula.clone()).on_trace(&trace)).verdict,
//!            Verdict::Holds);
//!
//! // The same formula is not *valid*: bounded search produces a countermodel.
//! let report = session.check(CheckRequest::new(formula).bounded(["A", "B", "D"], 3));
//! assert!(report.verdict.counterexample().is_some());
//!
//! // Theorems of the translatable fragment are settled exactly by the tableau.
//! let theorem = always(prop("P")).implies(eventually(prop("P")));
//! assert_eq!(session.check(CheckRequest::new(theorem).decide()).verdict, Verdict::Holds);
//! ```
//!
//! Specifications (Init clauses + axioms) check the same way, with clause
//! subformulas hash-consed across the whole session:
//!
//! ```
//! use ilogic::core::dsl::*;
//! use ilogic::core::prelude::*;
//! use ilogic::Session;
//!
//! let spec = Spec::new("toy").init("I1", not(prop("R")));
//! let trace = Trace::finite(vec![State::new()]);
//! assert!(Session::new().check_spec(&spec, &trace).passed());
//! ```
//!
//! # Batches
//!
//! A service workload is many checks with deadlines, not one: hand a whole
//! batch to [`Session::check_many`], and the [`core::scheduler`] multiplexes
//! it across the worker pool — a two-millisecond `Decide` job no longer
//! waits behind a two-minute `Bounded` sweep.  Batch results are
//! **bit-identical** (verdicts, counterexamples, deterministic statistics)
//! to a sequential loop of single-threaded [`Session::check`] calls in
//! request order, at every worker count.
//!
//! ```
//! use ilogic::core::dsl::*;
//! use ilogic::{CheckRequest, Parallelism, ResourceBudget, Session};
//! use std::time::Duration;
//!
//! let mut session = Session::new().with_parallelism(Parallelism::Fixed(4));
//! // One budget for the whole batch: structural caps + a shared deadline.
//! let budget = ResourceBudget::default().with_timeout(Duration::from_secs(5));
//! let reports = session.check_many(vec![
//!     CheckRequest::new(always(prop("P")).implies(eventually(prop("P"))))
//!         .decide()
//!         .with_budget(budget.clone()),
//!     CheckRequest::new(prop("P").or(prop("P").not()))
//!         .bounded(["P"], 3)
//!         .with_budget(budget.clone()),
//! ]);
//! assert!(reports.iter().all(|r| r.verdict.passed()));
//! ```
//!
//! Reports serialize to stable JSON for crossing process boundaries —
//! [`CheckReport::to_json`] / [`CheckReport::from_json`] round-trip every
//! field, counterexample traces included, with no external dependencies.
//!
//! ## Migration note (`check` loops → `check_many`)
//!
//! Pre-PR 4 code used one-shot [`Session::check`] in a loop and per-layer
//! limit types.  The mapping onto the current API:
//!
//! * `for r in requests { session.check(r) }` → [`Session::check_many`]
//!   (same reports, in order, cross-request parallel).  The asynchronous
//!   job queue with per-job handles that once stood beside it had no
//!   callers and was removed: threads that want reports one at a time call
//!   [`Session::check`] on a shared `&Session`;
//! * per-layer limit types (`BuildLimits` / `ConditionLimits`) and ad-hoc
//!   refutation caps → one [`ResourceBudget`]
//!   ([`CheckRequest::with_budget`] or [`Session::set_budget`]); the old
//!   shim types were removed once all call sites migrated;
//! * matching on `Verdict::Unknown` → `Verdict::Unknown { exhausted }`,
//!   where `exhausted` names the budget resource that ran out
//!   ([`Exhaustion`]), or is `None` outside the decidable fragment.
//!
//! ## Migration note (`&mut Session` → `&Session`)
//!
//! Since PR 10 every checking entry point — [`Session::check`] and
//! [`Session::check_many`] — takes `&self`: interning and the verdict cache
//! live behind one short-lived internal lock, so a session can be shared by
//! reference across threads (the warm-cache model `ilogic::server` runs).
//! Migrating:
//!
//! * drop the `mut` from `let mut session = Session::new()` — an immutable
//!   binding now checks;
//! * code that hands interning to a separate component can give it the
//!   `Copy` handle `Session::interner()`
//!   ([`ilogic_core::session::InternHandle`]); checking threads share the
//!   `&Session` itself;
//! * duplicate requests now replay cached outcomes —
//!   [`CheckStats`]`.cache` labels hits per request,
//!   `Session::cumulative_cache` totals them, and
//!   `Session::with_verdict_cache(false)` restores the old
//!   always-recompute behaviour.
//!
//! # Which checker do I want?
//!
//! | Backend | Ask it for | Guarantee | Cost | Parallelism | Budget caps that apply |
//! |---------|------------|-----------|------|-------------|------------------------|
//! | [`Backend::Trace`] (`.on_trace(…)`) | conformance of one simulated/recorded run | exact for that computation | linear-ish in trace × formula (memoized) | single-threaded (one trace) | deadline/cancel only |
//! | [`Backend::Explore`] (`.over_runs(…)` / `ilogic::systems::explore::explore_backend`) | conformance of **every** interleaving of a small model | exact for the enumerated runs; counterexample run on failure | #runs × trace-check | single-threaded; lazy sources stream run by run | `max_enumeration` over runs; deadline/cancel |
//! | [`Backend::Bounded`] (`.bounded(props, n)`) | validity evidence / refutation of a schema | counterexamples are genuine; `ValidUpTo(n)` is evidence, not proof | exponential in `n` and `props` — keep both small | sharded sweep: `n` workers cover interleaved slices with early-exit cancellation | `max_enumeration` over computations; deadline/cancel |
//! | [`Backend::Decide`] (`.decide()`) | theoremhood in the LTL-translatable fragment | exact (tableau decision); `Unknown { exhausted }` outside the fragment or under budget | tableau is exponential worst-case, fast on the report's idioms | sequential tableau, prune and fixpoint; sharded refutation sweep | `max_nodes`/`max_edges` (tableau), `max_enumeration` (refutation); deadline/cancel |
//! | [`Backend::Auto`] (`.auto()`) | "pick the right engine for me" | the pre-flight cost estimator routes to `Decide` or `Bounded`; the report names the routed backend and carries an `R001` routing diagnostic | the routed engine's cost plus microseconds of analysis | the routed engine's shape | the routed engine's caps; routing adjusts `max_implicants` for predicted condition blowups |
//!
//! Rule of thumb: simulator and explorer traces → `Trace`/`Explore`; "is this
//! schema a theorem?" → `Auto`, or hand-pick `Decide` first and `Bounded` as
//! the refutation workhorse; the catalogue and the test suite use `Bounded`
//! throughout.  Every check also runs the pre-flight analysis pass
//! ([`ilogic_core::analysis`]): lints and a cost estimate ride in each
//! report, and [`CheckRequest::with_preflight`] rejects predicted-over-budget
//! jobs before they run with a `C002` diagnostic instead of occupying a
//! worker.
//! Whatever the backend, running out of any [`ResourceBudget`] resource
//! yields `Verdict::Unknown { exhausted: Some(…) }` — a budget can withhold
//! an answer but never flip one.
//!
//! # Parallelism
//!
//! Fan a check's enumeration across a worker pool with
//! [`CheckRequest::with_parallelism`]([`Parallelism::Auto`] /
//! [`Parallelism::Fixed`]`(n)` / [`Parallelism::Off`]), set a session-wide
//! default with [`Session::set_parallelism`] (which also sizes the batch
//! scheduler), or force a whole process onto the pool with the
//! `ILOGIC_TEST_PARALLEL` environment variable (`1`/`auto`, a worker count,
//! or `0` to force off).  Three sites fan out, each because it measured
//! ≥ 1.3x at two workers: the bounded sweep (the `Bounded` backend and the
//! `Decide` refutation sweep), the batch scheduler, and — at the temporal
//! layer — the extralogical selection search of
//! `ilogic::temporal::algorithm_b::AlgorithmB::with_parallelism`.  Everything
//! else (tableau, prune, condition fixpoint, spec clauses, `Explore` runs,
//! `ilogic::systems::explore::explore`, the low-level pipeline) runs on the
//! calling thread; `ARCHITECTURE.md` holds the measurements.  The two
//! sharded searches visit their first indices on the calling thread and fan
//! out only when those do not answer, so a typical refutation, which fails
//! within a few dozen computations, never pays for spawning workers; the
//! bounded sweep also stays on the calling thread when fewer than some
//! 65 000 computations remain, where two workers did not pay.
//!
//! Verdicts never depend on the worker count: the sharded searches pick
//! counterexamples deterministically (lowest enumeration index wins), so
//! parallel runs are bit-identical to sequential ones — same `Verdict`, same
//! counterexample trace.  Worker evaluation is
//! shared-nothing over a frozen [`core::arena::ArenaSnapshot`]; per-worker
//! memo statistics are merged into the report, and the session accumulates
//! them across requests ([`Session::cumulative_memo`]).
//!
//! # Layers
//!
//! The member crates remain the low-level layer, fully public:
//!
//! * [`core`] (`ilogic-core`) — syntax, formal model, hash-consed
//!   [`core::arena`], bounded checking, specifications, parser, LTL reduction,
//!   and the [`core::session`] module re-exported here;
//! * [`temporal`] (`ilogic-temporal`) — the Appendix B temporal substrate:
//!   tableau graphs, Algorithm A, Algorithm B, specialized theories;
//! * [`lowlevel`] (`ilogic-lowlevel`) — the Appendix C low-level language and
//!   its decision pipeline;
//! * [`systems`] (`ilogic-systems`) — the Chapter 5–8 case-study simulators,
//!   their specifications, and the exhaustive explorer.
//!
//! Direct use of `Evaluator::check`, `BoundedChecker::counterexample`,
//! `explore`, or the tableau remains supported for callers that need the
//! engine-specific knobs; prefer [`Session`] everywhere else.
//!
//! ---
#![doc = include_str!("../ARCHITECTURE.md")]

pub use ilogic_core as core;
pub use ilogic_lowlevel as lowlevel;
pub use ilogic_server as server;
pub use ilogic_systems as systems;
pub use ilogic_temporal as temporal;

pub use ilogic_core::pool::{CancelToken, Exhaustion, Parallelism, ResourceBudget, WorkerPool};
pub use ilogic_core::session::{
    Backend, CacheStats, CheckReport, CheckRequest, CheckStats, ErrorReport, InternHandle,
    RunSource, Session, Verdict,
};
