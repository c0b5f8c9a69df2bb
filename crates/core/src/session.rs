//! The unified checking API: [`Session`], [`CheckRequest`], [`Backend`],
//! [`Verdict`] — one request at a time ([`Session::check`]) or a whole
//! batch ([`Session::check_many`]).
//!
//! The repository grew four disconnected ways of asking whether a formula
//! holds — [`crate::semantics::Evaluator::check`] over a single trace,
//! [`crate::bounded::BoundedChecker`] over every small computation, run
//! enumeration from an explorer, and the tableau decision procedure reached
//! through [`crate::ltl_translate`] — each with its own calling convention and
//! result shape.  A [`Session`] is the one front door: it owns a hash-consed
//! [`FormulaArena`] shared by every check (so formulas interned once are
//! shared across requests), takes a builder-style [`CheckRequest`] selecting a
//! [`Backend`], and returns a [`CheckReport`] carrying a uniform [`Verdict`]
//! plus timing and memoization statistics.
//!
//! ```
//! use ilogic_core::dsl::*;
//! use ilogic_core::session::{CheckRequest, Session, Verdict};
//!
//! let session = Session::new();
//! // P ∨ ¬P is a theorem: no computation of length ≤ 3 refutes it.
//! let request = CheckRequest::new(prop("P").or(prop("P").not())).bounded(["P"], 3);
//! assert_eq!(session.check(request).verdict, Verdict::ValidUpTo(3));
//! ```
//!
//! # Batches
//!
//! A service workload is many checks, not one: [`Session::check_many`] takes
//! a whole batch and spreads its jobs across the worker pool
//! ([`crate::scheduler`]), so small jobs do not serialize behind a big
//! sweep.  Batch results are *bit-identical* (verdicts, counterexamples,
//! deterministic statistics) to a sequential loop of single-threaded
//! [`Session::check`] calls, at every worker count — see the scheduler
//! module for the discipline.
//!
//! ```
//! use ilogic_core::dsl::*;
//! use ilogic_core::session::{CheckRequest, Session};
//!
//! let session = Session::new();
//! let reports = session.check_many(vec![
//!     CheckRequest::new(prop("P").or(prop("P").not())).bounded(["P"], 3),
//!     CheckRequest::new(always(prop("P")).implies(eventually(prop("P")))).decide(),
//! ]);
//! assert!(reports.iter().all(|report| report.verdict.passed()));
//! ```
//!
//! # Concurrency
//!
//! Every dispatch method takes `&self`: a `Session` is `Sync`, and threads
//! sharing one (directly, or interning through the [`Session::interner`]
//! handle) may intern and check concurrently.  Backends never run under the
//! session's lock — each check executes over an O(1)
//! [`crate::arena::ArenaSnapshot`] of the arena version it was prepared
//! against, so new work (which interns) proceeds while earlier checks are
//! still running on older versions.  Only the configuration setters
//! ([`Session::set_parallelism`], [`Session::set_budget`],
//! [`Session::set_preflight`], [`Session::set_verdict_cache`]) take
//! `&mut self`: configuration is fixed while a session is shared.
//!
//! # The verdict cache
//!
//! `Decide` and `Bounded` verdicts are pure functions of the interned
//! formula and the structural budget caps, so the session memoizes them
//! across requests: a repeated check replays the stored outcome —
//! bit-identical to recomputation in everything but wall-clock duration and
//! the [`CheckStats::cache`] counters themselves.  Requests that are *not*
//! such pure functions bypass the cache entirely: `Trace`/`Explore`
//! backends (their verdicts depend on caller-supplied computations),
//! explicit quantifier domains, budgets carrying a cancellation token, and
//! requests whose deadline has already expired.  Outcomes cut by a deadline
//! or a cancellation are never stored.  [`Session::cumulative_cache`]
//! exposes the running hit/miss tally; [`Session::set_verdict_cache`] turns
//! the cache off for A/B comparisons.
//!
//! Beside it sits the **analysis memo**, keyed by [`FormulaId`]: the first
//! request of a formula runs the analysis pass (lints, the
//! [`CostEstimate`], the one LTL translation and the formula's alphabet),
//! and every later request of the same formula — whatever its backend —
//! takes the findings and the estimate from the memo.  The translation and
//! the alphabet go to the first request's backend and are not kept; a
//! repeat that runs a backend derives them again.  The analysis is a
//! function of the interned formula, so a memoized one is what a fresh pass
//! would produce.
//! With the analysis in hand, `prepare` routes the request, builds its cache
//! key and probes the cache once, under the same lock: a hit clones the
//! stored outcome once and is answered there, without a snapshot or a
//! backend.  Both stores keep at most 2^16 entries; past that they stop
//! storing and count each refusal ([`Session::store_gauges`]).
//!
//! # Resource control
//!
//! Every cutoff — tableau size, condition-DNF implicants, enumeration depth,
//! wall-clock deadline, cooperative cancellation — is one type:
//! [`ResourceBudget`], attached per request with [`CheckRequest::with_budget`]
//! or per session with [`Session::set_budget`].  A check that runs out of any
//! resource answers `Verdict::Unknown { exhausted: Some(…) }` uniformly,
//! whatever backend it ran on.
//!
//! The pre-existing entry points remain available as the low-level layer; the
//! facade is how new code (and all the `examples/`) should check formulas.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ilogic_temporal::algorithm_b::{condition_of_graph_budgeted_stats, AlgorithmB, Decision};
use ilogic_temporal::syntax::VarSpec;
use ilogic_temporal::tableau::TableauGraph;
use ilogic_temporal::theory::PropositionalTheory;

pub use ilogic_temporal::dnf::store::StoreStats as ConditionStats;

use crate::analysis::{
    self, Analysis, CostEstimate, Diagnostic, DiagnosticCode, RunInputs, Severity,
};
use crate::arena::{ArenaRead, ArenaVersion, FormulaArena, FormulaId, MemoEvaluator, MemoStats};
use crate::bounded::{self, BoundedChecker};
use crate::json::{Json, JsonError, JsonWriter};
use crate::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::scheduler;
use crate::spec::{close_free_variables, Spec, SpecReport};
use crate::star::eliminate_star;
use crate::syntax::Formula;
use crate::trace::Trace;
use crate::value::Value;

/// Which checking engine a [`CheckRequest`] runs on.
#[derive(Clone, Debug)]
pub enum Backend {
    /// Evaluate the formula over one concrete computation.
    Trace(Trace),
    /// Evaluate the formula over a set of enumerated runs (typically produced
    /// by an explorer such as `ilogic_systems::explore::collect_runs`).
    Explore {
        /// Where the runs come from: a pre-collected `Vec<Trace>` or a lazy
        /// producer consumed run by run at check time.
        runs: RunSource,
    },
    /// Exhaustive bounded-model validity search over every computation (with
    /// stutter and optionally lasso extension) up to `max_len` states over the
    /// proposition alphabet `props`.
    Bounded {
        /// Proposition names of the enumerated alphabet.
        props: Vec<String>,
        /// Maximum number of explicit states per computation.
        max_len: usize,
        /// Whether ultimately periodic (lasso) extensions are enumerated.
        lassos: bool,
    },
    /// Decide validity via the reduction to linear-time temporal logic and the
    /// Appendix B tableau.  Exact on the translatable fragment; outside it the
    /// verdict is [`Verdict::Unknown`].
    Decide,
    /// Let the pre-flight analysis pick: `Decide` (with the evaluated
    /// fixpoint forced for predicted-blowup shapes) when the formula is
    /// LTL-translatable, otherwise a `Bounded` refutation sweep over the
    /// formula's propositions at the deepest depth whose enumeration fits
    /// the budget — the rule is [`auto_backend`], resolved deterministically
    /// at prepare time, so `Auto` batches stay bit-identical to sequential
    /// loops.  `Auto` never routes to `Trace`/`Explore`: those need a
    /// computation attached, which only an explicit request carries.  The
    /// report quotes the *resolved* backend's name, and an `R001` diagnostic
    /// records the routing decision.
    Auto,
}

/// The runs checked by [`Backend::Explore`].
///
/// Either a pre-collected vector ([`RunSource::collected`], what
/// [`CheckRequest::over_runs`] builds — the PR 1 behaviour) or a lazy producer
/// ([`RunSource::lazy`]) that is only consumed while the check runs, so
/// explorers can stream runs into the session without materializing them all:
/// a model with millions of interleavings costs memory proportional to one
/// run, not to the run count.
#[derive(Clone)]
pub struct RunSource {
    inner: RunsInner,
}

#[derive(Clone)]
enum RunsInner {
    Collected(Vec<Trace>),
    Lazy(Arc<dyn Fn() -> Box<dyn Iterator<Item = Trace> + Send> + Send + Sync>),
}

impl RunSource {
    /// Runs already materialized in memory.
    pub fn collected(runs: Vec<Trace>) -> RunSource {
        RunSource { inner: RunsInner::Collected(runs) }
    }

    /// Runs produced on demand.  `make` is called once per check to obtain a
    /// fresh iterator (the source must be re-iterable because a `CheckRequest`
    /// is `Clone` and may be checked more than once).
    pub fn lazy<F, I>(make: F) -> RunSource
    where
        F: Fn() -> I + Send + Sync + 'static,
        I: Iterator<Item = Trace> + Send + 'static,
    {
        RunSource {
            inner: RunsInner::Lazy(Arc::new(move || {
                Box::new(make()) as Box<dyn Iterator<Item = Trace> + Send>
            })),
        }
    }

    /// The number of runs, when already known (collected sources only).
    pub fn len_hint(&self) -> Option<usize> {
        match &self.inner {
            RunsInner::Collected(runs) => Some(runs.len()),
            RunsInner::Lazy(_) => None,
        }
    }
}

impl From<Vec<Trace>> for RunSource {
    fn from(runs: Vec<Trace>) -> RunSource {
        RunSource::collected(runs)
    }
}

impl fmt::Debug for RunSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            RunsInner::Collected(runs) => {
                f.debug_tuple("RunSource::collected").field(&runs.len()).finish()
            }
            RunsInner::Lazy(_) => f.debug_tuple("RunSource::lazy").finish(),
        }
    }
}

/// A builder-style description of one check: the formula plus the backend and
/// options to run it with.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    formula: Formula,
    backend: Backend,
    domain: Option<Vec<Value>>,
    parallelism: Option<Parallelism>,
    budget: Option<ResourceBudget>,
    preflight: bool,
}

impl CheckRequest {
    /// A request for `formula`, defaulting to the [`Backend::Decide`] engine;
    /// select another backend with the builder methods.
    pub fn new(formula: Formula) -> CheckRequest {
        CheckRequest {
            formula,
            backend: Backend::Decide,
            domain: None,
            parallelism: None,
            budget: None,
            preflight: false,
        }
    }

    /// Checks the formula over one concrete computation.
    pub fn on_trace(mut self, trace: &Trace) -> CheckRequest {
        self.backend = Backend::Trace(trace.clone());
        self
    }

    /// Checks the formula over every run in `runs` (e.g. the complete runs of
    /// an exhaustively explored model).
    pub fn over_runs(mut self, runs: Vec<Trace>) -> CheckRequest {
        self.backend = Backend::Explore { runs: RunSource::collected(runs) };
        self
    }

    /// Checks the formula over runs streamed from a lazy producer; see
    /// [`RunSource::lazy`].
    pub fn over_run_source(mut self, runs: RunSource) -> CheckRequest {
        self.backend = Backend::Explore { runs };
        self
    }

    /// Fans the check's enumeration across a worker pool: the `Bounded`
    /// sweep, and the refutation sweep of `Decide`, past the first few
    /// hundred computations and only when some 65 000 or more remain (a
    /// sweep that settles sooner, or is smaller, never spawns a worker).
    /// Every other phase, and the `Trace` and `Explore` backends, runs on
    /// the calling thread.  When not set, the session default and then the
    /// `ILOGIC_TEST_PARALLEL` environment override apply; the fallback is
    /// [`Parallelism::Off`].
    ///
    /// Verdicts are independent of the worker count — the parallel engines
    /// select counterexamples deterministically (lowest enumeration index
    /// wins), so `Fixed(8)` returns bit-identical results to `Off`, just
    /// faster.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> CheckRequest {
        self.parallelism = Some(parallelism);
        self
    }

    /// Searches for a counterexample among every computation up to `max_len`
    /// states over the alphabet `props` (lassos included).
    pub fn bounded<I, S>(mut self, props: I, max_len: usize) -> CheckRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.backend = Backend::Bounded {
            props: props.into_iter().map(Into::into).collect(),
            max_len,
            lassos: true,
        };
        self
    }

    /// Restricts a [`CheckRequest::bounded`] request to stutter extensions only.
    pub fn without_lassos(mut self) -> CheckRequest {
        if let Backend::Bounded { lassos, .. } = &mut self.backend {
            *lassos = false;
        }
        self
    }

    /// Decides validity via the LTL reduction and the tableau.
    pub fn decide(mut self) -> CheckRequest {
        self.backend = Backend::Decide;
        self
    }

    /// Routes the request by pre-flight analysis; see [`Backend::Auto`].
    pub fn auto(mut self) -> CheckRequest {
        self.backend = Backend::Auto;
        self
    }

    /// Enables pre-flight admission for this request: when the structural
    /// cost estimate says the job cannot complete within its budget, the
    /// check answers `Verdict::Unknown { exhausted }` *immediately* — with a
    /// `C002` diagnostic naming the doomed resource — instead of occupying a
    /// worker discovering the same thing.  Off by default, because admission
    /// also rejects jobs an engine would have *partially* answered (a sweep
    /// cut mid-way still examines real computations).  A session-wide switch
    /// is [`Session::set_preflight`].
    pub fn with_preflight(mut self) -> CheckRequest {
        self.preflight = true;
        self
    }

    /// Uses an explicit backend value.
    pub fn with_backend(mut self, backend: Backend) -> CheckRequest {
        self.backend = backend;
        self
    }

    /// Quantifies data variables over an explicit domain instead of the
    /// values occurring in each checked trace.
    pub fn with_domain(mut self, domain: Vec<Value>) -> CheckRequest {
        self.domain = Some(domain);
        self
    }

    /// Attaches a [`ResourceBudget`] — the single limits surface of every
    /// backend: tableau node/edge caps and the condition-implicant cap for
    /// `Decide`, the enumeration cap for `Bounded`/`Explore` and the
    /// refutation sweep, plus the wall-clock deadline and cancellation token
    /// honoured by all of them.  When not set, the session default
    /// ([`Session::set_budget`]) and then [`ResourceBudget::default`] apply.
    ///
    /// Running out of any resource yields
    /// `Verdict::Unknown { exhausted: Some(…) }`; a budget can never flip a
    /// settled verdict, only withhold one.
    pub fn with_budget(mut self, budget: ResourceBudget) -> CheckRequest {
        self.budget = Some(budget);
        self
    }

    /// The budget attached with [`CheckRequest::with_budget`], if any —
    /// admission layers inspect it (e.g. to refuse a request whose deadline
    /// already expired) without consuming the request.
    pub fn budget(&self) -> Option<&ResourceBudget> {
        self.budget.as_ref()
    }

    /// The formula the request checks — deduplication and cache layers key
    /// on it without consuming the request.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }
}

/// The uniform answer of every backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds of everything the backend examined (a single trace,
    /// every enumerated run, or — for `Decide` — every computation).
    Holds,
    /// A concrete computation falsifying the property.
    Counterexample(Trace),
    /// No counterexample exists among computations of up to the given number
    /// of explicit states (bounded-validity evidence, not a proof).
    ValidUpTo(usize),
    /// The backend could not settle the property.  `exhausted` reports the
    /// [`ResourceBudget`] resource that ran out, uniformly for every backend;
    /// `None` means the property is genuinely out of the backend's reach
    /// (outside the decidable fragment, or there was nothing to check).
    Unknown {
        /// The budget resource that ran out, if the cutoff was a budget.
        exhausted: Option<Exhaustion>,
    },
}

impl Verdict {
    /// The `Unknown` verdict with no budget involvement (outside the
    /// fragment, nothing to check).
    pub fn unknown() -> Verdict {
        Verdict::Unknown { exhausted: None }
    }

    /// The `Unknown` verdict caused by running out of a budget resource.
    pub fn exhausted(exhausted: Exhaustion) -> Verdict {
        Verdict::Unknown { exhausted: Some(exhausted) }
    }

    /// `true` for [`Verdict::Holds`] and [`Verdict::ValidUpTo`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Holds | Verdict::ValidUpTo(_))
    }

    /// `true` for any [`Verdict::Unknown`], budget-caused or not.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// The falsifying computation, if one was found.
    pub fn counterexample(&self) -> Option<&Trace> {
        match self {
            Verdict::Counterexample(trace) => Some(trace),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Counterexample(trace) => write!(f, "counterexample: {trace}"),
            Verdict::ValidUpTo(bound) => write!(f, "valid up to bound {bound}"),
            Verdict::Unknown { exhausted: None } => write!(f, "unknown"),
            Verdict::Unknown { exhausted: Some(cut) } => write!(f, "unknown ({cut})"),
        }
    }
}

/// Hit/miss counters of the session's cross-request verdict cache — the
/// cache-level analogue of [`MemoStats`].  See the module-level *verdict
/// cache* section for what is (and is not) cached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered by replaying a stored outcome, no backend run.
    pub hits: u64,
    /// Cacheable requests that ran a backend (and stored their outcome).
    pub misses: u64,
}

impl CacheStats {
    /// Adds another counter set into this one (used for the session's
    /// running totals).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Uniform measurements attached to every [`CheckReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Wall-clock time spent inside the backend.
    pub duration: Duration,
    /// Number of computations examined, summed over workers.  A sharded
    /// sweep counts only the computations at or below its counterexample's
    /// index, so the count is the sequential sweep's at every worker count.
    pub traces_checked: usize,
    /// Memoization counters of the arena evaluator for *this* check (for
    /// `Decide`, those of the refutation sweep); per-worker counters are
    /// merged at join.
    pub memo: MemoStats,
    /// Memoization counters accumulated by the session across every request
    /// so far, this one included — see [`Session::cumulative_memo`].
    pub session_memo: MemoStats,
    /// Condition-store counters of this check's `Decide` run — distinct
    /// implicants interned, product-memo hits/misses, the widest condition
    /// DNF, plus the worklist-fixpoint tallies (`rounds`,
    /// `equations_evaluated`, `equations_skipped`; the evaluated Boolean
    /// modes report only the latter trio) — all zero for the other backends
    /// (and for `Decide` requests whose formula never reaches the condition
    /// fixpoint).
    pub condition: ConditionStats,
    /// Condition-store counters accumulated by the session across every
    /// request so far, this one included — see
    /// [`Session::cumulative_condition`].
    pub session_condition: ConditionStats,
    /// The budget resource that ran out, when the verdict is
    /// `Unknown { exhausted: Some(…) }` — duplicated here so the stats line
    /// alone says *why* a check stopped early.
    pub exhausted: Option<Exhaustion>,
    /// Total distinct nodes in the session arena after the check.
    pub arena_nodes: usize,
    /// Number of pool workers that ran the check: the request's worker
    /// count when a `Bounded` or `Decide` refutation sweep fanned out, 1 for
    /// every other check, all of which run on the calling thread.  A sweep
    /// checks its first few hundred computations on the calling thread and
    /// fans out only when some 65 000 or more remain, so a sweep that
    /// settles sooner, or is smaller, reports 1.
    pub workers: usize,
    /// The pre-flight [`CostEstimate`] the session computed for the formula
    /// — what `Backend::Auto` routed on and what pre-flight admission
    /// compared against the budget.  `None` only in reports parsed from
    /// pre-analysis (PR ≤ 5) JSON documents.
    pub estimate: Option<CostEstimate>,
    /// Verdict-cache activity of *this* request: `hits == 1` when the report
    /// was replayed from the session's cross-request verdict cache,
    /// `misses == 1` when the request was cacheable but had to run (storing
    /// its outcome), both zero when the request bypassed the cache
    /// (uncacheable backend, explicit domain, cancellable or already-expired
    /// budget, pre-flight rejection, or a disabled cache).
    pub cache: CacheStats,
    /// Verdict-cache counters accumulated by the session across every
    /// request so far, this one included — see [`Session::cumulative_cache`].
    pub session_cache: CacheStats,
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} traces in {:?}, {} memo hits / {} misses, {} arena nodes, {} worker{}",
            self.traces_checked,
            self.duration,
            self.memo.hits,
            self.memo.misses,
            self.arena_nodes,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
        )?;
        if self.condition.interned_implicants > 0 {
            write!(
                f,
                ", {} condition implicants ({} memo hits, widest {})",
                self.condition.interned_implicants,
                self.condition.memo_hits,
                self.condition.peak_dnf_width,
            )?;
        }
        if self.condition.rounds > 0 {
            // The worklist-fixpoint counters: present whenever the §5.3
            // iteration ran at all — including the evaluated (Boolean) modes,
            // which intern nothing but still report their rounds.
            write!(
                f,
                ", {} fixpoint rounds ({} equations evaluated, {} skipped)",
                self.condition.rounds,
                self.condition.equations_evaluated,
                self.condition.equations_skipped,
            )?;
        }
        if let Some(cut) = self.exhausted {
            write!(f, ", exhausted: {cut}")?;
        }
        if self.cache.hits > 0 {
            write!(f, ", verdict cache hit")?;
        }
        Ok(())
    }
}

/// The result of [`Session::check`]: the verdict plus uniform statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Timing and evaluation statistics.
    pub stats: CheckStats,
    /// Name of the backend that ran (`"trace"`, `"explore"`, `"bounded"`,
    /// `"decide"`).
    pub backend: &'static str,
    /// For a [`Verdict::Counterexample`], the enumeration index of the
    /// falsifying computation in the backend's source: the run-source index
    /// for `Explore`, the global enumeration index for `Bounded` and the
    /// `Decide` refutation sweep, `0` for `Trace`.  `None` otherwise.
    pub failing_index: Option<usize>,
    /// Findings of the pre-flight analysis pass: lints on the checked
    /// formula, the `R001` routing record for `Auto` requests, and the
    /// `C002` rejection record when pre-flight admission refused the job.
    /// Deterministic (same request ⇒ same diagnostics, at any worker count).
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// The falsifying computation together with its source index — for
    /// `Explore`-backend failures, the index of the failing run in the
    /// submitted [`RunSource`] (see [`CheckReport::failing_index`] for the
    /// other backends).
    pub fn counterexample(&self) -> Option<(usize, &Trace)> {
        match &self.verdict {
            Verdict::Counterexample(trace) => Some((self.failing_index.unwrap_or(0), trace)),
            _ => None,
        }
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({} traces, {:?}, {} memo hits)",
            self.backend,
            self.verdict,
            self.stats.traces_checked,
            self.stats.duration,
            self.stats.memo.hits
        )?;
        for diagnostic in &self.diagnostics {
            write!(f, "\n  {diagnostic}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serialization: a stable, dependency-free JSON rendering of reports, so
// results can cross a process boundary (service responses, archived batch
// runs, CI diffs).  `from_json(to_json(r))` reconstructs every field
// losslessly, counterexample traces included.  Encoding streams each field
// straight into one `JsonWriter` (the `write_*` functions below hold the
// only copy of the field order); decoding parses a `Json` tree.
// ---------------------------------------------------------------------------

/// Initial buffer of one encoded report: a verdict-cache hit encodes to
/// ~1.1 KB, so most reports never reallocate.
const REPORT_CAPACITY: usize = 1536;

impl CheckReport {
    /// Renders the report as a single-line JSON document; inverse of
    /// [`CheckReport::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = JsonWriter::with_capacity(REPORT_CAPACITY);
        self.write_json(&mut out);
        out.into_string()
    }

    /// Streams the document [`CheckReport::to_json`] returns into `out` —
    /// for bodies that embed reports, such as the service's job listings.
    pub fn write_json(&self, out: &mut JsonWriter) {
        out.raw(r#"{"backend":"#).str(self.backend).raw(r#","verdict":"#);
        write_verdict(out, &self.verdict);
        out.raw(r#","failing_index":"#);
        match self.failing_index {
            Some(index) => out.int(index as i64),
            None => out.null(),
        };
        out.raw(r#","stats":"#);
        write_stats(out, &self.stats);
        out.raw(r#","diagnostics":"#).array(&self.diagnostics, write_diagnostic).raw("}");
    }

    /// Parses a report rendered by [`CheckReport::to_json`].
    pub fn from_json(input: &str) -> Result<CheckReport, JsonError> {
        let root = Json::parse(input)?;
        let backend = match root.require("backend")?.as_str() {
            Some("trace") => "trace",
            Some("explore") => "explore",
            Some("bounded") => "bounded",
            Some("decide") => "decide",
            other => return Err(JsonError::new(format!("unknown backend {other:?}"))),
        };
        let failing_index = match root.require("failing_index")? {
            Json::Null => None,
            value => Some(usize_of(value, "failing_index")?),
        };
        // Diagnostics were added in PR 6; reports serialized by earlier
        // versions omit the field and parse as diagnostic-free.
        let diagnostics = match root.get("diagnostics") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Array(entries)) => {
                entries.iter().map(diagnostic_from_json).collect::<Result<_, _>>()?
            }
            Some(other) => return Err(JsonError::new(format!("bad diagnostics {other:?}"))),
        };
        Ok(CheckReport {
            verdict: verdict_from_json(root.require("verdict")?)?,
            stats: stats_from_json(root.require("stats")?)?,
            backend,
            failing_index,
            diagnostics,
        })
    }
}

/// A structured error answer with a stable machine-readable code — the one
/// failure shape shared by every consumer-facing refusal: HTTP 4xx/5xx
/// bodies from the checking service, pre-flight admission rejections
/// (diagnostic code `C002`), and any other path that must say *no* across a
/// process boundary.  Round-trips through JSON like [`CheckReport`] does.
///
/// The `code` is the contract: clients branch on it, so codes are stable
/// strings (`"parse"`, `"lint"`, `"bad-json"`, `"shed"`, `"C002"`, …) while
/// `message` stays free-form for humans.  `diagnostics` carries the same
/// [`Diagnostic`] objects reports do, so a lint rejection loses nothing
/// relative to a completed check; `retry_after_ms` is set when the refusal
/// is load-dependent (shedding) rather than inherent to the request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReport {
    /// Stable machine-readable error code clients branch on.
    pub code: String,
    /// Human-readable description of the failure.
    pub message: String,
    /// Analysis findings that caused or accompanied the refusal (lint
    /// diagnostics for 400s, the `C002` record for admission rejections).
    pub diagnostics: Vec<Diagnostic>,
    /// For load-dependent refusals (shedding): how long the client should
    /// wait before retrying, in milliseconds.  `None` when retrying cannot
    /// help (malformed input, unknown route).
    pub retry_after_ms: Option<u64>,
}

impl ErrorReport {
    /// An error with the given stable code and human-readable message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> ErrorReport {
        ErrorReport {
            code: code.into(),
            message: message.into(),
            diagnostics: Vec::new(),
            retry_after_ms: None,
        }
    }

    /// Attaches analysis diagnostics (builder-style).
    pub fn with_diagnostics(mut self, diagnostics: Vec<Diagnostic>) -> ErrorReport {
        self.diagnostics = diagnostics;
        self
    }

    /// Marks the refusal as load-dependent, advising a retry after the given
    /// number of milliseconds (builder-style).
    pub fn with_retry_after_ms(mut self, retry_after_ms: u64) -> ErrorReport {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }

    /// The pre-flight admission refusal carried by `report`, if it was
    /// rejected before running: a report whose diagnostics contain the
    /// `C002` over-budget record (see [`CheckRequest::with_preflight`])
    /// becomes an `ErrorReport` with code `"C002"`, quoting the rejection
    /// message and every diagnostic of the original report.  Returns `None`
    /// for reports that actually ran.
    pub fn from_rejection(report: &CheckReport) -> Option<ErrorReport> {
        let rejection = report.diagnostics.iter().find(|d| d.code == DiagnosticCode::OverBudget)?;
        Some(
            ErrorReport::new(DiagnosticCode::OverBudget.as_str(), rejection.message.clone())
                .with_diagnostics(report.diagnostics.clone()),
        )
    }

    /// The error as a JSON tree: [`ErrorReport::to_json`] parsed back;
    /// inverse of [`ErrorReport::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        Json::parse(&self.to_json()).expect("the report writers emit valid JSON")
    }

    /// Renders the error as a single-line JSON document; inverse of
    /// [`ErrorReport::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = JsonWriter::with_capacity(256);
        out.raw(r#"{"error":"#).str(&self.code);
        out.raw(r#","message":"#).str(&self.message);
        out.raw(r#","diagnostics":"#).array(&self.diagnostics, write_diagnostic);
        if let Some(ms) = self.retry_after_ms {
            out.raw(r#","retry_after_ms":"#).int(saturating_i64(ms));
        }
        out.raw("}");
        out.into_string()
    }

    /// Parses an error rendered by [`ErrorReport::to_json_value`].
    pub fn from_json_value(root: &Json) -> Result<ErrorReport, JsonError> {
        let code = root
            .require("error")?
            .as_str()
            .ok_or_else(|| JsonError::new("field `error` is not a string"))?
            .to_string();
        let message = root
            .require("message")?
            .as_str()
            .ok_or_else(|| JsonError::new("field `message` is not a string"))?
            .to_string();
        let diagnostics = match root.get("diagnostics") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Array(entries)) => {
                entries.iter().map(diagnostic_from_json).collect::<Result<_, _>>()?
            }
            Some(other) => return Err(JsonError::new(format!("bad diagnostics {other:?}"))),
        };
        let retry_after_ms = match root.get("retry_after_ms") {
            None | Some(Json::Null) => None,
            Some(found) => Some(uint_field(found, "retry_after_ms")?),
        };
        Ok(ErrorReport { code, message, diagnostics, retry_after_ms })
    }

    /// Parses an error rendered by [`ErrorReport::to_json`].
    pub fn from_json(input: &str) -> Result<ErrorReport, JsonError> {
        ErrorReport::from_json_value(&Json::parse(input)?)
    }
}

impl fmt::Display for ErrorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms}ms)")?;
        }
        for diagnostic in &self.diagnostics {
            write!(f, "\n  {diagnostic}")?;
        }
        Ok(())
    }
}

fn int_field(value: &Json, name: &str) -> Result<i64, JsonError> {
    value.as_int().ok_or_else(|| JsonError::new(format!("field `{name}` is not an integer")))
}

/// A non-negative integer field; negative values are a shape error, not a
/// wrap-around (this layer parses documents that crossed a process boundary,
/// so corrupt input must be rejected, never reinterpreted).
fn uint_field(value: &Json, name: &str) -> Result<u64, JsonError> {
    u64::try_from(int_field(value, name)?)
        .map_err(|_| JsonError::new(format!("field `{name}` is negative")))
}

fn usize_of(value: &Json, name: &str) -> Result<usize, JsonError> {
    Ok(uint_field(value, name)? as usize)
}

/// A `u64` counter as a JSON integer, saturating at `i64::MAX`.
fn saturating_i64(count: u64) -> i64 {
    count.min(i64::MAX as u64) as i64
}

/// The tree of a streamed document: how the public `*_to_json` functions
/// derive their `Json` from the same writers the reports use.
fn tree(write: impl FnOnce(&mut JsonWriter)) -> Json {
    let mut out = JsonWriter::default();
    write(&mut out);
    Json::parse(out.as_str()).expect("the report writers emit valid JSON")
}

fn write_verdict(out: &mut JsonWriter, verdict: &Verdict) {
    match verdict {
        Verdict::Holds => out.raw(r#"{"kind":"holds"}"#),
        Verdict::Counterexample(trace) => {
            out.raw(r#"{"kind":"counterexample","trace":"#);
            write_trace(out, trace);
            out.raw("}")
        }
        Verdict::ValidUpTo(bound) => {
            out.raw(r#"{"kind":"valid_up_to","bound":"#).int(*bound as i64).raw("}")
        }
        Verdict::Unknown { exhausted } => {
            out.raw(r#"{"kind":"unknown","exhausted":"#);
            write_exhaustion(out, *exhausted);
            out.raw("}")
        }
    };
}

fn write_exhaustion(out: &mut JsonWriter, exhausted: Option<Exhaustion>) {
    match exhausted {
        Some(cut) => out.str(exhaustion_name(cut)),
        None => out.null(),
    };
}

fn verdict_from_json(value: &Json) -> Result<Verdict, JsonError> {
    match value.require("kind")?.as_str() {
        Some("holds") => Ok(Verdict::Holds),
        Some("counterexample") => {
            Ok(Verdict::Counterexample(trace_from_json(value.require("trace")?)?))
        }
        Some("valid_up_to") => Ok(Verdict::ValidUpTo(usize_of(value.require("bound")?, "bound")?)),
        Some("unknown") => {
            let exhausted = match value.require("exhausted")? {
                Json::Null => None,
                Json::Str(name) => Some(exhaustion_from_name(name)?),
                other => return Err(JsonError::new(format!("bad exhaustion {other:?}"))),
            };
            Ok(Verdict::Unknown { exhausted })
        }
        other => Err(JsonError::new(format!("unknown verdict kind {other:?}"))),
    }
}

fn exhaustion_name(cut: Exhaustion) -> &'static str {
    match cut {
        Exhaustion::Nodes => "nodes",
        Exhaustion::Edges => "edges",
        Exhaustion::Implicants => "implicants",
        Exhaustion::Enumeration => "enumeration",
        Exhaustion::Deadline => "deadline",
        Exhaustion::Cancelled => "cancelled",
    }
}

fn exhaustion_from_name(name: &str) -> Result<Exhaustion, JsonError> {
    Ok(match name {
        "nodes" => Exhaustion::Nodes,
        "edges" => Exhaustion::Edges,
        "implicants" => Exhaustion::Implicants,
        "enumeration" => Exhaustion::Enumeration,
        "deadline" => Exhaustion::Deadline,
        "cancelled" => Exhaustion::Cancelled,
        other => return Err(JsonError::new(format!("unknown exhaustion `{other}`"))),
    })
}

fn write_stats(out: &mut JsonWriter, stats: &CheckStats) {
    out.raw(r#"{"duration_ns":"#).int(stats.duration.as_nanos().min(i64::MAX as u128) as i64);
    out.raw(r#","traces_checked":"#).int(stats.traces_checked as i64);
    out.raw(r#","memo":"#);
    write_hits(out, stats.memo.hits, stats.memo.misses);
    out.raw(r#","session_memo":"#);
    write_hits(out, stats.session_memo.hits, stats.session_memo.misses);
    out.raw(r#","condition":"#);
    write_condition(out, stats.condition);
    out.raw(r#","session_condition":"#);
    write_condition(out, stats.session_condition);
    out.raw(r#","exhausted":"#);
    write_exhaustion(out, stats.exhausted);
    out.raw(r#","arena_nodes":"#).int(stats.arena_nodes as i64);
    out.raw(r#","workers":"#).int(stats.workers as i64);
    out.raw(r#","estimate":"#);
    write_estimate(out, stats.estimate);
    out.raw(r#","cache":"#);
    write_hits(out, stats.cache.hits, stats.cache.misses);
    out.raw(r#","session_cache":"#);
    write_hits(out, stats.session_cache.hits, stats.session_cache.misses);
    out.raw("}");
}

fn stats_from_json(value: &Json) -> Result<CheckStats, JsonError> {
    // The condition/exhausted fields were added in PR 5; reports serialized
    // by earlier versions omit them, and the stable-wire-format promise cuts
    // both ways — absent fields parse as their defaults instead of rejecting
    // the document.
    let exhausted = match value.get("exhausted") {
        None | Some(Json::Null) => None,
        Some(Json::Str(name)) => Some(exhaustion_from_name(name)?),
        Some(other) => return Err(JsonError::new(format!("bad stats exhaustion {other:?}"))),
    };
    let condition = match value.get("condition") {
        Some(found) => condition_from_json(found)?,
        None => ConditionStats::default(),
    };
    let session_condition = match value.get("session_condition") {
        Some(found) => condition_from_json(found)?,
        None => ConditionStats::default(),
    };
    // The estimate was added in PR 6: absent (or Null) in earlier documents.
    let estimate = match value.get("estimate") {
        None | Some(Json::Null) => None,
        Some(found) => Some(estimate_from_json(found)?),
    };
    // The verdict-cache counters were added in PR 10; absent fields default
    // to zero, like the PR 5 condition fields above.
    let cache = match value.get("cache") {
        Some(found) => cache_from_json(found)?,
        None => CacheStats::default(),
    };
    let session_cache = match value.get("session_cache") {
        Some(found) => cache_from_json(found)?,
        None => CacheStats::default(),
    };
    Ok(CheckStats {
        duration: Duration::from_nanos(uint_field(value.require("duration_ns")?, "duration_ns")?),
        traces_checked: usize_of(value.require("traces_checked")?, "traces_checked")?,
        memo: memo_from_json(value.require("memo")?)?,
        session_memo: memo_from_json(value.require("session_memo")?)?,
        condition,
        session_condition,
        exhausted,
        arena_nodes: usize_of(value.require("arena_nodes")?, "arena_nodes")?,
        workers: usize_of(value.require("workers")?, "workers")?,
        estimate,
        cache,
        session_cache,
    })
}

/// Renders one [`Diagnostic`] as the JSON object embedded in
/// [`CheckReport::to_json`] documents and [`ErrorReport`] bodies; inverse of
/// [`diagnostic_from_json`].  Public so wire layers (the HTTP service)
/// can emit diagnostics in error payloads without reimplementing the shape.
pub fn diagnostic_to_json(diagnostic: &Diagnostic) -> Json {
    tree(|out| write_diagnostic(out, diagnostic))
}

fn write_diagnostic(out: &mut JsonWriter, diagnostic: &Diagnostic) {
    out.raw(r#"{"code":"#).str(diagnostic.code.as_str());
    out.raw(r#","severity":"#).str(diagnostic.severity.as_str());
    out.raw(r#","path":"#).array(&diagnostic.path, |out, id| {
        out.int(id.index() as i64);
    });
    out.raw(r#","message":"#).str(&diagnostic.message).raw("}");
}

/// Parses a [`Diagnostic`] rendered by [`diagnostic_to_json`].
pub fn diagnostic_from_json(value: &Json) -> Result<Diagnostic, JsonError> {
    let code = match value.require("code")?.as_str() {
        Some(name) => DiagnosticCode::parse(name)
            .ok_or_else(|| JsonError::new(format!("unknown diagnostic code `{name}`")))?,
        None => return Err(JsonError::new("diagnostic `code` is not a string")),
    };
    let path = value
        .require("path")?
        .as_array()
        .ok_or_else(|| JsonError::new("diagnostic `path` is not an array"))?
        .iter()
        .map(|entry| Ok(FormulaId::from_index(usize_of(entry, "path")?)))
        .collect::<Result<Vec<_>, JsonError>>()?;
    let message = value
        .require("message")?
        .as_str()
        .ok_or_else(|| JsonError::new("diagnostic `message` is not a string"))?
        .to_string();
    // The severity is derived from the code (as `Diagnostic::new` does) —
    // the serialized field is for human readers and non-Rust consumers.
    Ok(Diagnostic::new(code, path, message))
}

/// `u64` counters can saturate at `u64::MAX` (the estimator's way of saying
/// "assume infinite"), which does not fit the JSON layer's `i64` integers —
/// so the three magnitude fields are decimal strings on the wire.
fn u64_str_field(value: &Json, name: &str) -> Result<u64, JsonError> {
    match value.require(name)?.as_str() {
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| JsonError::new(format!("field `{name}` is not a decimal u64"))),
        None => Err(JsonError::new(format!("field `{name}` is not a string"))),
    }
}

fn write_estimate(out: &mut JsonWriter, estimate: Option<CostEstimate>) {
    let Some(estimate) = estimate else {
        out.null();
        return;
    };
    out.raw(r#"{"translatable":"#).bool(estimate.translatable);
    out.raw(r#","closure_components":"#).int(estimate.closure_components as i64);
    out.raw(r#","closure_atoms":"#).int(estimate.closure_atoms as i64);
    out.raw(r#","size":"#).int(estimate.size as i64);
    out.raw(r#","propositions":"#).int(estimate.propositions as i64);
    out.raw(r#","nodes":"#).u64_str(estimate.nodes);
    out.raw(r#","edges":"#).u64_str(estimate.edges);
    out.raw(r#","condition_width":"#).u64_str(estimate.condition_width);
    out.raw(r#","artifact_intractable":"#).bool(estimate.artifact_intractable);
    out.raw(r#","deep_nesting":"#).bool(estimate.deep_nesting).raw("}");
}

fn bool_field(value: &Json, name: &str) -> Result<bool, JsonError> {
    value
        .require(name)?
        .as_bool()
        .ok_or_else(|| JsonError::new(format!("field `{name}` is not a boolean")))
}

fn estimate_from_json(value: &Json) -> Result<CostEstimate, JsonError> {
    Ok(CostEstimate {
        translatable: bool_field(value, "translatable")?,
        closure_components: usize_of(value.require("closure_components")?, "closure_components")?,
        closure_atoms: usize_of(value.require("closure_atoms")?, "closure_atoms")?,
        size: usize_of(value.require("size")?, "size")?,
        propositions: usize_of(value.require("propositions")?, "propositions")?,
        nodes: u64_str_field(value, "nodes")?,
        edges: u64_str_field(value, "edges")?,
        condition_width: u64_str_field(value, "condition_width")?,
        artifact_intractable: bool_field(value, "artifact_intractable")?,
        deep_nesting: bool_field(value, "deep_nesting")?,
    })
}

fn write_condition(out: &mut JsonWriter, condition: ConditionStats) {
    out.raw(r#"{"interned_implicants":"#).int(condition.interned_implicants as i64);
    out.raw(r#","interned_dnfs":"#).int(condition.interned_dnfs as i64);
    out.raw(r#","memo_hits":"#).int(saturating_i64(condition.memo_hits));
    out.raw(r#","memo_misses":"#).int(saturating_i64(condition.memo_misses));
    out.raw(r#","peak_dnf_width":"#).int(condition.peak_dnf_width as i64);
    out.raw(r#","rounds":"#).int(saturating_i64(condition.rounds));
    out.raw(r#","equations_evaluated":"#).int(saturating_i64(condition.equations_evaluated));
    out.raw(r#","equations_skipped":"#).int(saturating_i64(condition.equations_skipped)).raw("}");
}

fn condition_from_json(value: &Json) -> Result<ConditionStats, JsonError> {
    // The worklist counters (`rounds`/`equations_*`) were added in PR 7:
    // tolerate their absence so pre-PR7 reports still load (defaulting the
    // counters to zero, like the whole `condition` object pre-PR5).
    let worklist_count = |name: &'static str| -> Result<u64, JsonError> {
        match value.get(name) {
            Some(found) => uint_field(found, name),
            None => Ok(0),
        }
    };
    Ok(ConditionStats {
        interned_implicants: usize_of(
            value.require("interned_implicants")?,
            "interned_implicants",
        )?,
        interned_dnfs: usize_of(value.require("interned_dnfs")?, "interned_dnfs")?,
        memo_hits: uint_field(value.require("memo_hits")?, "memo_hits")?,
        memo_misses: uint_field(value.require("memo_misses")?, "memo_misses")?,
        peak_dnf_width: usize_of(value.require("peak_dnf_width")?, "peak_dnf_width")?,
        rounds: worklist_count("rounds")?,
        equations_evaluated: worklist_count("equations_evaluated")?,
        equations_skipped: worklist_count("equations_skipped")?,
    })
}

/// The `{"hits", "misses"}` object of the memo and verdict-cache counters.
fn write_hits(out: &mut JsonWriter, hits: u64, misses: u64) {
    out.raw(r#"{"hits":"#).int(saturating_i64(hits));
    out.raw(r#","misses":"#).int(saturating_i64(misses)).raw("}");
}

fn cache_from_json(value: &Json) -> Result<CacheStats, JsonError> {
    Ok(CacheStats {
        hits: uint_field(value.require("hits")?, "hits")?,
        misses: uint_field(value.require("misses")?, "misses")?,
    })
}

fn memo_from_json(value: &Json) -> Result<MemoStats, JsonError> {
    Ok(MemoStats {
        hits: uint_field(value.require("hits")?, "hits")?,
        misses: uint_field(value.require("misses")?, "misses")?,
    })
}

/// Renders one [`Trace`] as the JSON object used inside
/// [`CheckReport::to_json`] counterexamples; inverse of [`trace_from_json`].
/// Public so wire layers can ship concrete computations (a `Trace` backend's
/// trace, an `Explore` backend's runs) in request bodies using the exact
/// shape reports already use.
pub fn trace_to_json(trace: &Trace) -> Json {
    tree(|out| write_trace(out, trace))
}

fn write_trace(out: &mut JsonWriter, trace: &Trace) {
    out.raw(r#"{"extension":"#);
    match trace.extension() {
        crate::trace::Extension::Stutter => out.raw(r#""stutter""#),
        crate::trace::Extension::Loop(start) => out.raw(r#"{"loop":"#).int(start as i64).raw("}"),
    };
    out.raw(r#","states":"#).array(trace.states(), write_state).raw("}");
}

/// Parses a [`Trace`] rendered by [`trace_to_json`].
pub fn trace_from_json(value: &Json) -> Result<Trace, JsonError> {
    let states: Vec<crate::state::State> = value
        .require("states")?
        .as_array()
        .ok_or_else(|| JsonError::new("`states` is not an array"))?
        .iter()
        .map(state_from_json)
        .collect::<Result<_, _>>()?;
    if states.is_empty() {
        return Err(JsonError::new("a trace must contain at least one state"));
    }
    match value.require("extension")? {
        Json::Str(kind) if kind == "stutter" => Ok(Trace::finite(states)),
        looped @ Json::Object(_) => {
            let start = usize_of(looped.require("loop")?, "loop")?;
            if start >= states.len() {
                return Err(JsonError::new("loop start out of range"));
            }
            Ok(Trace::lasso(states, start))
        }
        other => Err(JsonError::new(format!("bad extension {other:?}"))),
    }
}

fn write_state(out: &mut JsonWriter, state: &crate::state::State) {
    out.raw(r#"{"props":"#).array(state.props(), |out, prop| {
        out.raw(r#"{"name":"#).str(&prop.name);
        out.raw(r#","args":"#).array(&prop.args, write_value).raw("}");
    });
    out.raw(r#","vars":"#).array(state.vars(), |out, (name, value)| {
        out.raw(r#"{"name":"#).str(name).raw(r#","value":"#);
        write_value(out, value);
        out.raw("}");
    });
    out.raw("}");
}

fn state_from_json(value: &Json) -> Result<crate::state::State, JsonError> {
    let mut state = crate::state::State::new();
    for prop in
        value.require("props")?.as_array().ok_or_else(|| JsonError::new("`props` not an array"))?
    {
        let name = prop
            .require("name")?
            .as_str()
            .ok_or_else(|| JsonError::new("prop name not a string"))?
            .to_string();
        let args: Vec<Value> = prop
            .require("args")?
            .as_array()
            .ok_or_else(|| JsonError::new("prop args not an array"))?
            .iter()
            .map(value_from_json)
            .collect::<Result<_, _>>()?;
        state.insert(crate::state::Prop { name, args });
    }
    for var in
        value.require("vars")?.as_array().ok_or_else(|| JsonError::new("`vars` not an array"))?
    {
        let name = var
            .require("name")?
            .as_str()
            .ok_or_else(|| JsonError::new("var name not a string"))?
            .to_string();
        state.set_var(name, value_from_json(var.require("value")?)?);
    }
    Ok(state)
}

/// Renders one [`Value`] as the JSON object used inside serialized traces
/// and domains; inverse of [`value_from_json`].
pub fn value_to_json(value: &Value) -> Json {
    tree(|out| write_value(out, value))
}

fn write_value(out: &mut JsonWriter, value: &Value) {
    match value {
        Value::Int(i) => out.raw(r#"{"int":"#).int(*i),
        Value::Bool(b) => out.raw(r#"{"bool":"#).bool(*b),
        Value::Sym(s) => out.raw(r#"{"sym":"#).str(s),
    }
    .raw("}");
}

/// Parses a [`Value`] rendered by [`value_to_json`].
pub fn value_from_json(value: &Json) -> Result<Value, JsonError> {
    if let Some(i) = value.get("int") {
        return Ok(Value::Int(int_field(i, "int")?));
    }
    if let Some(b) = value.get("bool") {
        return Ok(Value::Bool(b.as_bool().ok_or_else(|| JsonError::new("bad bool value"))?));
    }
    if let Some(s) = value.get("sym") {
        return Ok(Value::Sym(
            s.as_str().ok_or_else(|| JsonError::new("bad sym value"))?.to_string(),
        ));
    }
    Err(JsonError::new(format!("unrecognized value {value:?}")))
}

/// Recovers the guard from a poisoned lock: a panic in one checking thread
/// must not wedge every other thread of a long-lived session (the state a
/// mid-panic update could skew is statistics, never verdicts).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arena, cumulative counters, the verdict cache and the analysis memo —
/// everything a check touches at prepare and finalize time, under one lock
/// that is *never* held while a backend runs.
#[derive(Debug, Default)]
struct SessionState {
    arena: FormulaArena,
    cumulative: MemoStats,
    cumulative_condition: ConditionStats,
    cumulative_cache: CacheStats,
    verdicts: HashMap<CacheKey, CachedOutcome>,
    /// The analysis memo: the findings and estimate of every formula the
    /// session has prepared, so a repeated formula is analysed once.  It
    /// keeps no [`RunInputs`]: only a backend run reads them, and they
    /// would hold a translation per formula that a cache hit never reads.
    analyses: HashMap<FormulaId, Analysis>,
    /// Outcomes and analyses not stored because their store was full.
    refused_stores: u64,
}

impl SessionState {
    /// The analysis of the formula interned as `id`: the memo's entry, or a
    /// fresh pass the memo keeps while it is under [`VERDICT_CACHE_CAP`].
    /// A fresh pass also returns the [`RunInputs`] it derived on the way.
    fn analysis(&mut self, id: FormulaId, formula: &Formula) -> (Analysis, Option<RunInputs>) {
        if let Some(known) = self.analyses.get(&id) {
            return (known.clone(), None);
        }
        let (analysis, inputs) = analysis::analyze_interned(&self.arena, id, formula);
        if self.analyses.len() < VERDICT_CACHE_CAP {
            self.analyses.insert(id, analysis.clone());
        } else {
            self.refused_stores += 1;
        }
        (analysis, Some(inputs))
    }
}

/// The sizes of a session's two cross-request stores, and how many stores
/// their cap refused: what the service's `/metrics` reports of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreGauges {
    /// Entries of the verdict cache.
    pub verdict_entries: usize,
    /// Entries of the analysis memo.
    pub analysis_entries: usize,
    /// Verdicts and analyses that were not stored because their store was
    /// full.
    pub refused_stores: u64,
}

/// A read view of the session arena, returned by [`Session::arena`]: derefs
/// to [`FormulaArena`] while holding the session's state lock.
///
/// Keep it short-lived: the session cannot prepare or finalize checks while
/// a view is alive, and calling any other `Session` method from the same
/// thread while holding one deadlocks (the lock is not reentrant).
#[derive(Debug)]
pub struct ArenaRef<'a>(MutexGuard<'a, SessionState>);

impl std::ops::Deref for ArenaRef<'_> {
    type Target = FormulaArena;

    fn deref(&self) -> &FormulaArena {
        &self.0.arena
    }
}

/// A [`Backend`] after `Auto` routing: what [`execute`] runs.
#[derive(Debug)]
enum Engine {
    Trace(Trace),
    Explore(RunSource),
    /// `props` is `None` when the alphabet is the formula's own, as every
    /// `Auto`-routed sweep's is: the job's analysis holds it.
    Bounded {
        props: Option<Vec<String>>,
        max_len: usize,
        lassos: bool,
    },
    Decide,
}

impl Engine {
    /// Whether a run reads the job's [`RunInputs`]: a decision reads `¬B`
    /// and its refutation sweep the alphabet, and a sweep over the
    /// formula's own alphabet reads that.
    fn reads_inputs(&self) -> bool {
        matches!(self, Engine::Decide | Engine::Bounded { props: None, .. })
    }

    fn name(&self) -> &'static str {
        match self {
            Engine::Trace(_) => "trace",
            Engine::Explore(_) => "explore",
            Engine::Bounded { .. } => "bounded",
            Engine::Decide => "decide",
        }
    }
}

/// The cacheable subset of [`Backend`] — the decision procedures whose
/// outcome is a pure function of the interned formula and the structural
/// budget caps.  `Trace`/`Explore` verdicts depend on caller-supplied
/// computations the key cannot name, so those backends never reach a key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CacheableBackend {
    Decide,
    /// `props` is `None` when the alphabet is the formula's own
    /// [`analysis::proposition_names`], as every `Auto`-routed sweep's is:
    /// the key's formula determines it, so the key need not copy it
    /// (the job's [`Engine::Bounded`] already says which it is).
    Bounded {
        props: Option<Vec<String>>,
        max_len: usize,
        lassos: bool,
    },
}

/// Key of the session verdict cache.  Hash-consing makes the formula
/// component a single [`FormulaId`], and every *structural* budget cap is
/// part of the key (two requests that could be cut at different points are
/// different entries), as is the worker count (reports quote it).
/// Wall-clock deadlines are deliberately **not** in the key — see
/// [`Session::cache_plan`] for the timing rules.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    formula: FormulaId,
    backend: CacheableBackend,
    max_nodes: usize,
    max_edges: usize,
    max_implicants: usize,
    max_enumeration: usize,
    workers: usize,
}

/// A stored backend outcome: every deterministic field of a [`JobOutcome`]
/// (the wall-clock duration is supplied per replay).
#[derive(Clone, Debug)]
struct CachedOutcome {
    verdict: Verdict,
    traces_checked: usize,
    memo: MemoStats,
    condition: ConditionStats,
    workers: usize,
    failing_index: Option<usize>,
}

impl CachedOutcome {
    fn of(outcome: &JobOutcome) -> CachedOutcome {
        CachedOutcome {
            verdict: outcome.verdict.clone(),
            traces_checked: outcome.traces_checked,
            memo: outcome.memo,
            condition: outcome.condition,
            workers: outcome.workers,
            failing_index: outcome.failing_index,
        }
    }

    /// Rebuilds the outcome a fresh run would have produced, so `finalize`
    /// replays the cumulative-counter merges exactly as recomputation would.
    /// The verdict is cloned here, once per replay.
    fn replay(&self, duration: Duration) -> JobOutcome {
        JobOutcome {
            verdict: self.verdict.clone(),
            traces_checked: self.traces_checked,
            memo: self.memo,
            condition: self.condition,
            workers: self.workers,
            failing_index: self.failing_index,
            duration,
        }
    }
}

/// What the verdict cache decided about one prepared job.
#[derive(Clone, Debug)]
enum CachePlan {
    /// The request is uncacheable: run it, store nothing, count nothing.
    Bypass,
    /// Found in the session cache: [`Session::prepare`] returned the
    /// replayed outcome beside the job, and no backend runs.
    Hit,
    /// Cacheable but absent: execute, then store under this key at finalize
    /// time (unless the run was cut by a deadline or a cancellation — those
    /// outcomes are timing-dependent and must never be replayed).
    Miss(CacheKey),
    /// A duplicate of an earlier not-yet-finalized job in the same batch:
    /// skip execution and replay the entry that job stores when it
    /// finalizes — exactly the hit a sequential loop would have scored.
    Defer(CacheKey),
}

/// Entry cap of the verdict cache and of the analysis memo: a long-lived
/// server session must not grow without bound, so once a store holds this
/// many entries it stops storing new ones (lookups, and the determinism
/// rules, are unaffected).  Each refused store is counted
/// ([`StoreGauges::refused_stores`]), so a full store shows on `/metrics`.
/// Unit tests fill a small cap.
const VERDICT_CACHE_CAP: usize = if cfg!(test) { 64 } else { 1 << 16 };

/// The unified checking façade.
///
/// A session owns a [`FormulaArena`]; every checked formula is interned into
/// it, so repeated checks of overlapping formulas share structure and
/// spec-clause subformulas are deduplicated across clauses.  `Decide` and
/// `Bounded` verdicts are additionally memoized across requests by the
/// session verdict cache (module-level *verdict cache* section).
///
/// Enumerating sweeps (`Bounded`, and the refutation sweep of `Decide`) fan
/// out across a worker pool when parallelism is enabled — per request
/// ([`CheckRequest::with_parallelism`]), per session
/// ([`Session::set_parallelism`]), or for a whole process via the
/// `ILOGIC_TEST_PARALLEL` environment variable — and so do batches
/// ([`Session::check_many`]).  Worker evaluation is shared-nothing over an
/// [`crate::arena::ArenaSnapshot`]; verdicts are bit-identical to the
/// single-threaded path.
///
/// Dispatch takes `&self` (module-level *concurrency* section): the arena,
/// counters, and cache live behind one short-held lock, and backends always
/// run over an O(1) arena snapshot with the lock released.
#[derive(Debug)]
pub struct Session {
    state: Mutex<SessionState>,
    default_parallelism: Option<Parallelism>,
    default_budget: Option<ResourceBudget>,
    preflight: bool,
    cache_enabled: bool,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            state: Mutex::new(SessionState::default()),
            default_parallelism: None,
            default_budget: None,
            preflight: false,
            cache_enabled: true,
        }
    }
}

impl Session {
    /// A fresh session with an empty arena.
    pub fn new() -> Session {
        Session::default()
    }

    /// A read view of the session's arena (for inspection; sizes, node
    /// access, [`FormulaArena::version`]).  The view holds the session's
    /// state lock — drop it before calling other session methods.
    pub fn arena(&self) -> ArenaRef<'_> {
        ArenaRef(lock(&self.state))
    }

    /// The interning surface of this session: a `Copy` handle exposing only
    /// [`Session::intern`] / [`Session::extract`] / the arena version, for
    /// threads that grow the formula store while others run checks.
    pub fn interner(&self) -> InternHandle<'_> {
        InternHandle { session: self }
    }

    /// Sets the parallelism used by requests that don't choose their own (and
    /// by [`Session::check_spec`]).  Builder-style variant:
    /// [`Session::with_parallelism`].
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.default_parallelism = Some(parallelism);
    }

    /// [`Session::set_parallelism`], builder-style.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Session {
        self.set_parallelism(parallelism);
        self
    }

    /// Sets the [`ResourceBudget`] used by requests that don't attach their
    /// own ([`CheckRequest::with_budget`]); the fallback is
    /// [`ResourceBudget::default`].  Builder-style variant:
    /// [`Session::with_budget`].
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.default_budget = Some(budget);
    }

    /// [`Session::set_budget`], builder-style.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Session {
        self.set_budget(budget);
        self
    }

    /// Turns pre-flight admission on (or off) for every request this session
    /// runs: jobs whose predicted cost exceeds their budget answer
    /// `Unknown { exhausted }` immediately, with a `C002` diagnostic in the
    /// report, instead of occupying a worker until the budget trips at run
    /// time.  Off by default; a single request opts in with
    /// [`CheckRequest::with_preflight`].
    pub fn set_preflight(&mut self, on: bool) {
        self.preflight = on;
    }

    /// [`Session::set_preflight`], builder-style.
    pub fn with_preflight(mut self) -> Session {
        self.set_preflight(true);
        self
    }

    /// Turns the cross-request verdict cache off (or back on).  On by
    /// default; turning it off makes every request run its backend, which is
    /// what the differential fuzzer compares cached sessions against.
    pub fn set_verdict_cache(&mut self, on: bool) {
        self.cache_enabled = on;
    }

    /// [`Session::set_verdict_cache`], builder-style.
    pub fn with_verdict_cache(mut self, on: bool) -> Session {
        self.set_verdict_cache(on);
        self
    }

    /// Memoization counters accumulated across every check this session ran —
    /// per-request counters are visible in each [`CheckReport`]; this is their
    /// running sum, making cross-request cache behaviour observable.
    pub fn cumulative_memo(&self) -> MemoStats {
        lock(&self.state).cumulative
    }

    /// Condition-store counters accumulated across every `Decide` check this
    /// session ran (counts add, the peak-width takes the max) — the running
    /// sum of each report's [`CheckStats::condition`].
    pub fn cumulative_condition(&self) -> ConditionStats {
        lock(&self.state).cumulative_condition
    }

    /// Verdict-cache hit/miss counters accumulated across every request this
    /// session ran — the running sum of each report's [`CheckStats::cache`].
    pub fn cumulative_cache(&self) -> CacheStats {
        lock(&self.state).cumulative_cache
    }

    /// The entries of the verdict cache and of the analysis memo, and the
    /// stores their cap refused so far.
    pub fn store_gauges(&self) -> StoreGauges {
        let state = lock(&self.state);
        StoreGauges {
            verdict_entries: state.verdicts.len(),
            analysis_entries: state.analyses.len(),
            refused_stores: state.refused_stores,
        }
    }

    /// Whether this session has analysed `formula` before and found no
    /// error-severity diagnostic.  It looks the formula up in the arena
    /// without interning it and reads the analysis memo, so asking about a
    /// formula the session has not seen leaves the arena as it was; `false`
    /// means "not known clean", not "refused".
    pub fn is_known_clean(&self, formula: &Formula) -> bool {
        let state = lock(&self.state);
        let known = state.arena.lookup(formula).and_then(|id| state.analyses.get(&id));
        known.is_some_and(|analysis| {
            !analysis.diagnostics.iter().any(|d| d.severity == Severity::Error)
        })
    }

    /// Effective parallelism: the request's explicit choice, else the session
    /// default, else the environment override, else off.
    fn resolve_parallelism(&self, requested: Option<Parallelism>) -> Parallelism {
        requested
            .or(self.default_parallelism)
            .or_else(Parallelism::from_env)
            .unwrap_or(Parallelism::Off)
    }

    /// Effective budget: the request's explicit choice, else the session
    /// default, else [`ResourceBudget::default`].
    fn resolve_budget(&self, requested: Option<ResourceBudget>) -> ResourceBudget {
        requested.or_else(|| self.default_budget.clone()).unwrap_or_default()
    }

    /// Interns a formula into the session arena.  Safe to call while checks
    /// are mid-flight on other threads: they read older arena versions
    /// through their snapshots and never observe the new ids.
    pub fn intern(&self, formula: &Formula) -> FormulaId {
        lock(&self.state).arena.intern(formula)
    }

    /// Reconstructs the boxed formula behind an id interned by this session.
    pub fn extract(&self, id: FormulaId) -> Formula {
        lock(&self.state).arena.extract(id)
    }

    /// Interns the request's formula, takes its analysis from the memo (or
    /// runs the pass once and memoizes it), and resolves its knobs —
    /// including `Backend::Auto` routing and (when enabled) pre-flight
    /// admission — recording the arena size the report will quote and the
    /// job's verdict-cache plan.  Interning is the only arena mutation a
    /// check performs, so preparing a whole batch in submission order leaves
    /// the arena in exactly the state a sequential loop of `check` calls
    /// would produce.  Routing and admission read only the request and the
    /// deterministic [`CostEstimate`], so they too replay identically, and
    /// so does the memo: the analysis is a function of the interned formula.
    ///
    /// The verdict cache is probed here, once: a hit returns the stored
    /// outcome beside the job, and the job runs no backend.
    ///
    /// `batch_keys` is the set of cache keys earlier jobs of the same batch
    /// plan to store: a duplicate becomes a [`CachePlan::Defer`], scoring
    /// the hit the sequential loop would have scored (where the earlier
    /// duplicate has already finalized) instead of executing twice.
    fn prepare(
        &self,
        state: &mut SessionState,
        request: CheckRequest,
        batch_keys: Option<&mut HashSet<CacheKey>>,
    ) -> (PreparedJob, Option<JobOutcome>) {
        let CheckRequest { formula, backend, domain, parallelism, budget, preflight } = request;
        let id = state.arena.intern(&formula);
        let (Analysis { mut diagnostics, estimate }, mut inputs) = state.analysis(id, &formula);
        let mut budget = self.resolve_budget(budget);
        let engine = match backend {
            Backend::Auto => {
                let (routed, routed_budget) = route(&estimate, &budget);
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::Routed,
                    vec![id],
                    route_message(routed.name(), &estimate),
                ));
                budget = routed_budget;
                routed
            }
            Backend::Trace(trace) => Engine::Trace(trace),
            Backend::Explore { runs } => Engine::Explore(runs),
            Backend::Bounded { props, max_len, lassos } => {
                let own = &inputs.get_or_insert_with(|| analysis::run_inputs(&formula)).alphabet;
                Engine::Bounded { props: (props != *own).then_some(props), max_len, lassos }
            }
            Backend::Decide => Engine::Decide,
        };
        let rejection =
            (preflight || self.preflight).then(|| admission(&engine, &estimate, &budget)).flatten();
        if let Some(cut) = rejection {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::OverBudget,
                vec![id],
                format!(
                    "pre-flight: predicted cost exceeds the budget ({}); \
                     the job was rejected without running",
                    exhaustion_name(cut)
                ),
            ));
        }
        let mut job = PreparedJob {
            id,
            estimate,
            inputs: RunInputs::default(),
            engine,
            domain,
            parallelism: self.resolve_parallelism(parallelism),
            budget,
            arena_nodes: state.arena.formula_count() + state.arena.term_count(),
            diagnostics,
            rejection,
            cache: CachePlan::Bypass,
        };
        if let Some(key) = self.cache_key(&job) {
            if let Some(stored) = state.verdicts.get(&key) {
                job.cache = CachePlan::Hit;
                return (job, Some(stored.replay(Duration::ZERO)));
            }
            let deferred = batch_keys.is_some_and(|seen| !seen.insert(key.clone()));
            job.cache = if deferred { CachePlan::Defer(key) } else { CachePlan::Miss(key) };
        }
        // A backend will run: hand it `¬B` and the alphabet if it reads them,
        // from the fresh pass or, after a memo hit, derived again.  A
        // deferred duplicate replays its twin's outcome instead (`run_batch`
        // derives them in the rare case it runs after all).
        let runs = job.rejection.is_none() && !matches!(job.cache, CachePlan::Defer(_));
        if runs && job.engine.reads_inputs() {
            job.inputs = inputs.unwrap_or_else(|| analysis::run_inputs(&formula));
        }
        (job, None)
    }

    /// The verdict-cache key of one prepared job, or `None` when the job
    /// bypasses the cache.
    ///
    /// The timing rules keep cached reports bit-identical to recomputation:
    ///
    /// * a budget carrying a **cancellation token** bypasses — the request
    ///   races its token by design, and a replay would erase that race;
    /// * a budget whose deadline (or token) has **already tripped** bypasses
    ///   — the backend will answer `Unknown { exhausted }` without running,
    ///   and that answer must not be hidden behind a cached settled verdict;
    /// * a *live* deadline does **not** bypass: serving a settled outcome is
    ///   bit-identical to a recomputation that didn't trip, and outcomes
    ///   that *were* cut by a deadline are never stored (see
    ///   [`Session::finalize`]), so a replay can never launder a cut.
    ///
    /// Structural exhaustions (`Nodes`/`Edges`/`Implicants`/`Enumeration`)
    /// are deterministic in the key's caps and cache like any settled
    /// verdict.
    fn cache_key(&self, job: &PreparedJob) -> Option<CacheKey> {
        if !self.cache_enabled
            || job.rejection.is_some()
            || job.domain.is_some()
            || job.budget.cancel_token().is_some()
            || job.budget.interrupted().is_some()
        {
            return None;
        }
        let backend = match &job.engine {
            Engine::Decide => CacheableBackend::Decide,
            Engine::Bounded { props, max_len, lassos } => CacheableBackend::Bounded {
                props: props.clone(),
                max_len: *max_len,
                lassos: *lassos,
            },
            Engine::Trace(_) | Engine::Explore(_) => return None,
        };
        Some(CacheKey {
            formula: job.id,
            backend,
            max_nodes: job.budget.max_nodes(),
            max_edges: job.budget.max_edges(),
            max_implicants: job.budget.max_implicants(),
            max_enumeration: job.budget.max_enumeration(),
            workers: job.parallelism.workers(),
        })
    }

    /// Folds a finished job into the session counters (in submission order
    /// for batches — the same merge order as a sequential loop), stores
    /// cache misses, and shapes the report.
    fn finalize(
        &self,
        state: &mut SessionState,
        job: PreparedJob,
        outcome: JobOutcome,
    ) -> CheckReport {
        let request_cache = match job.cache {
            CachePlan::Bypass => CacheStats::default(),
            CachePlan::Hit | CachePlan::Defer(_) => CacheStats { hits: 1, misses: 0 },
            CachePlan::Miss(key) => {
                // Deadline/cancellation cuts are where the run *stopped*,
                // not what the formula *is* — replaying one later would be
                // wrong, so they are never stored.
                let timing_cut = matches!(
                    outcome.verdict,
                    Verdict::Unknown {
                        exhausted: Some(Exhaustion::Deadline | Exhaustion::Cancelled)
                    }
                );
                if !timing_cut {
                    if state.verdicts.len() < VERDICT_CACHE_CAP {
                        state.verdicts.insert(key, CachedOutcome::of(&outcome));
                    } else {
                        state.refused_stores += 1;
                    }
                }
                CacheStats { hits: 0, misses: 1 }
            }
        };
        state.cumulative.merge(outcome.memo);
        state.cumulative_condition.merge(outcome.condition);
        state.cumulative_cache.merge(request_cache);
        let exhausted = match &outcome.verdict {
            Verdict::Unknown { exhausted } => *exhausted,
            _ => None,
        };
        CheckReport {
            verdict: outcome.verdict,
            stats: CheckStats {
                duration: outcome.duration,
                traces_checked: outcome.traces_checked,
                memo: outcome.memo,
                session_memo: state.cumulative,
                condition: outcome.condition,
                session_condition: state.cumulative_condition,
                exhausted,
                arena_nodes: job.arena_nodes,
                workers: outcome.workers,
                estimate: Some(job.estimate),
                cache: request_cache,
                session_cache: state.cumulative_cache,
            },
            backend: job.engine.name(),
            failing_index: outcome.failing_index,
            diagnostics: job.diagnostics,
        }
    }

    /// Runs a check and reports the verdict with uniform statistics.
    pub fn check(&self, request: CheckRequest) -> CheckReport {
        let start = Instant::now();
        let mut state = lock(&self.state);
        let (job, replayed) = self.prepare(&mut state, request, None);
        if let Some(mut outcome) = replayed {
            // A cache hit: the stored outcome, under the same lock.
            outcome.duration = start.elapsed();
            return self.finalize(&mut state, job, outcome);
        }
        // Execute with no lock held, over an O(1) snapshot of the arena
        // version the job was prepared against: other threads intern and
        // dispatch freely while this backend runs.
        let snapshot = state.arena.snapshot();
        drop(state);
        let outcome = execute(&snapshot, &job);
        self.finalize(&mut lock(&self.state), job, outcome)
    }

    /// Checks a whole batch of requests, multiplexed across the worker pool
    /// (the session parallelism, or the `ILOGIC_TEST_PARALLEL` override,
    /// decides the worker count), and returns the reports in request order.
    ///
    /// Each job of a batch executes single-threaded — the batch trades
    /// intra-request fan-out for cross-request fan-out, and a per-request
    /// [`CheckRequest::with_parallelism`] is deliberately ignored — so the
    /// result is bit-identical, in everything but wall-clock durations and
    /// cutoffs from a deadline or cancellation, to
    /// `requests.into_iter().map(|r|
    /// session.check(r.with_parallelism(Parallelism::Off))).collect()`,
    /// whatever the worker count.  For one heavy request that should itself
    /// fan out, call [`Session::check`] instead.
    pub fn check_many(&self, requests: Vec<CheckRequest>) -> Vec<CheckReport> {
        self.run_batch(requests)
    }

    /// Prepares, executes, and finalizes one batch — the engine behind
    /// [`Session::check_many`].
    fn run_batch(&self, requests: Vec<CheckRequest>) -> Vec<CheckReport> {
        // Phase 1 — prepare sequentially in request order under the state
        // lock: interning replays the arena states of the sequential loop,
        // and each job's intra-request parallelism is pinned off (the
        // scheduler owns the workers).  One O(1) snapshot of the resulting
        // arena version serves the whole batch.
        let (jobs, mut slots, snapshot) = {
            let mut state = lock(&self.state);
            let mut batch_keys = HashSet::new();
            let (jobs, slots): (Vec<PreparedJob>, Vec<Option<JobOutcome>>) = requests
                .into_iter()
                .map(|request| {
                    let request = request.with_parallelism(Parallelism::Off);
                    self.prepare(&mut state, request, Some(&mut batch_keys))
                })
                .unzip();
            (jobs, slots, state.arena.snapshot())
        };
        // Phase 2 — execute the jobs that actually need a backend across the
        // pool, with no lock held.  Cache hits (whose slots hold their
        // replayed outcomes already) and within-batch duplicates skip
        // execution entirely; per-job results don't depend on which worker
        // runs them.
        let pool = WorkerPool::new(self.resolve_parallelism(None));
        let runnable: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| matches!(job.cache, CachePlan::Bypass | CachePlan::Miss(_)))
            .map(|(index, _)| index)
            .collect();
        let outcomes: Vec<JobOutcome> =
            scheduler::run_jobs(&pool, runnable.len(), |i| execute(&snapshot, &jobs[runnable[i]]));
        for (index, outcome) in runnable.into_iter().zip(outcomes) {
            slots[index] = Some(outcome);
        }
        // Phase 3 — finalize in request order, replaying the sequential
        // loop's cumulative-counter merges and cache stores/replays.
        let mut state = lock(&self.state);
        jobs.into_iter()
            .zip(slots)
            .map(|(mut job, slot)| {
                let outcome = match (&job.cache, slot) {
                    (_, Some(outcome)) => outcome,
                    (CachePlan::Defer(key), None) => match state.verdicts.get(key) {
                        Some(stored) => stored.replay(Duration::ZERO),
                        // The earlier duplicate was cut by its deadline and
                        // stored nothing: run the job after all (rare, and
                        // timing cuts are outside the bit-identity contract
                        // anyway), with the inputs `prepare` left out.
                        None => {
                            if job.engine.reads_inputs() {
                                job.inputs = analysis::run_inputs(&state.arena.extract(job.id));
                            }
                            execute(&snapshot, &job)
                        }
                    },
                    (_, None) => unreachable!("runnable jobs and cache hits have an outcome"),
                };
                self.finalize(&mut state, job, outcome)
            })
            .collect()
    }

    /// Checks every clause of a specification against a trace through the
    /// session arena, producing the familiar [`SpecReport`].
    ///
    /// Clause formulas are universally closed, `*`-eliminated, and interned —
    /// so subformulas shared between clauses (ubiquitous in the Chapter 5–8
    /// specifications) are evaluated once per interval/binding context.
    pub fn check_spec(&self, spec: &Spec, trace: &Trace) -> SpecReport {
        self.check_spec_with_domain(spec, trace, trace.value_domain())
    }

    /// [`Session::check_spec`] with an explicit quantifier domain.
    ///
    /// The clauses are checked on the calling thread with one memo table,
    /// so a subformula shared between clauses is evaluated once.  Striping
    /// clauses across two workers ran at 0.38x on the ring-election spec.
    pub fn check_spec_with_domain(
        &self,
        spec: &Spec,
        trace: &Trace,
        domain: Vec<Value>,
    ) -> SpecReport {
        // Intern every clause under the state lock, then evaluate over an
        // O(1) snapshot of the resulting arena version with no lock held —
        // the same prepare/execute split the check paths use.
        let (prepared, snapshot) = {
            let mut state = lock(&self.state);
            let prepared: Vec<(String, crate::spec::ClauseKind, FormulaId)> = spec
                .clauses()
                .iter()
                .map(|clause| {
                    let closed = close_free_variables(&clause.formula);
                    let reduced = eliminate_star(&closed);
                    (clause.label.clone(), clause.kind, state.arena.intern(&reduced))
                })
                .collect();
            (prepared, state.arena.snapshot())
        };
        let mut memo = MemoEvaluator::new(&snapshot).with_domain(domain);
        let verdicts = memo.check_all(trace, prepared.iter().map(|(_, _, id)| *id));
        lock(&self.state).cumulative.merge(memo.stats());
        let results = prepared
            .into_iter()
            .zip(verdicts)
            .map(|((label, kind, _), holds)| crate::spec::ClauseResult { label, kind, holds })
            .collect();
        SpecReport { spec: spec.name().to_string(), results }
    }
}

/// The interning surface of a [`Session`], from [`Session::interner`]: a
/// `Copy` handle that can only grow (and read back) the formula store —
/// hand it to producer threads that mint ids while consumer threads check.
///
/// ```
/// use ilogic_core::dsl::*;
/// use ilogic_core::session::Session;
///
/// let session = Session::new();
/// let interner = session.interner();
/// let id = interner.intern(&prop("P").or(prop("P").not()));
/// assert_eq!(interner.extract(id), prop("P").or(prop("P").not()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct InternHandle<'s> {
    session: &'s Session,
}

impl InternHandle<'_> {
    /// See [`Session::intern`].
    pub fn intern(&self, formula: &Formula) -> FormulaId {
        self.session.intern(formula)
    }

    /// See [`Session::extract`].
    pub fn extract(&self, id: FormulaId) -> Formula {
        self.session.extract(id)
    }

    /// The arena version covering everything interned so far: ids below it
    /// are visible to every [`crate::arena::ArenaSnapshot`] taken from now
    /// on (see [`FormulaArena::version`]).
    pub fn version(&self) -> ArenaVersion {
        self.session.arena().version()
    }
}

/// A [`CheckRequest`] after [`Session::prepare`]: formula interned and
/// analysed, knobs resolved, arena size recorded.  The unit of work the
/// scheduler multiplexes.
pub(crate) struct PreparedJob {
    id: FormulaId,
    /// The analysis pass's cost prediction for the formula.
    estimate: CostEstimate,
    /// `¬B` and the alphabet when the job's engine reads them
    /// ([`Engine::reads_inputs`]) and a backend will run; empty otherwise.
    inputs: RunInputs,
    engine: Engine,
    domain: Option<Vec<Value>>,
    parallelism: Parallelism,
    budget: ResourceBudget,
    arena_nodes: usize,
    /// Findings of the analysis pass (plus routing/rejection records),
    /// carried verbatim into the report.
    diagnostics: Vec<Diagnostic>,
    /// `Some` when pre-flight admission refused the job: [`execute`]
    /// short-circuits to `Unknown { exhausted }` without running a backend.
    rejection: Option<Exhaustion>,
    /// What the verdict cache decided for this job at prepare time.
    cache: CachePlan,
}

/// Everything a backend run produces; [`Session::finalize`] adds the
/// session-level fields (cumulative counters, arena size).
pub(crate) struct JobOutcome {
    verdict: Verdict,
    traces_checked: usize,
    memo: MemoStats,
    /// Condition-store counters (non-zero only for `Decide` runs that reached
    /// the condition fixpoint).
    condition: ConditionStats,
    workers: usize,
    failing_index: Option<usize>,
    duration: Duration,
}

/// Runs one prepared job against an arena view.  This is the *single*
/// execution path behind both [`Session::check`] and the batch scheduler —
/// which is what makes batch results bit-identical to a loop of `check`
/// calls: there is no second implementation to diverge.
pub(crate) fn execute<A: ArenaRead + Sync>(arena: &A, job: &PreparedJob) -> JobOutcome {
    let start = Instant::now();
    if let Some(cut) = job.rejection {
        // Pre-flight admission already refused this job at prepare time: the
        // verdict is the same `Unknown { exhausted }` the budget would have
        // produced, minus the work.
        return JobOutcome {
            verdict: Verdict::exhausted(cut),
            traces_checked: 0,
            memo: MemoStats::default(),
            condition: ConditionStats::default(),
            workers: 1,
            failing_index: None,
            duration: start.elapsed(),
        };
    }
    let mut condition = ConditionStats::default();
    let (verdict, traces_checked, memo, workers, failing_index) = match &job.engine {
        Engine::Trace(trace) => {
            let mut memo = MemoEvaluator::new(arena);
            if let Some(domain) = &job.domain {
                memo = memo.with_domain(domain.clone());
            }
            if let Some(cut) = job.budget.interrupted() {
                (Verdict::exhausted(cut), 0, MemoStats::default(), 1, None)
            } else if memo.check(trace, job.id) {
                (Verdict::Holds, 1, memo.stats(), 1, None)
            } else {
                (Verdict::Counterexample(trace.clone()), 1, memo.stats(), 1, Some(0))
            }
        }
        Engine::Explore(runs) => {
            let (verdict, checked, memo, index) =
                drive_runs(arena, runs, job.id, job.domain.as_deref(), &job.budget);
            (verdict, checked, memo, 1, index)
        }
        Engine::Bounded { props, max_len, lassos } => {
            let props = props.as_deref().unwrap_or(&job.inputs.alphabet);
            let mut checker = BoundedChecker::new(props.iter().map(String::as_str), *max_len);
            if !lassos {
                checker = checker.without_lassos();
            }
            let sweep = checker.sweep_budgeted(
                arena,
                job.id,
                job.domain.as_deref(),
                job.parallelism,
                &job.budget,
            );
            let (verdict, index) = match sweep.counterexample {
                Some((index, trace)) => (Verdict::Counterexample(trace), Some(index)),
                None => match sweep.exhausted {
                    Some(cut) => (Verdict::exhausted(cut), None),
                    None => (Verdict::ValidUpTo(*max_len), None),
                },
            };
            (verdict, sweep.traces_checked, sweep.memo, sweep.workers, index)
        }
        Engine::Decide => {
            let (verdict, traces_checked, memo, workers, failing_index, stats) = decide(arena, job);
            condition = stats;
            (verdict, traces_checked, memo, workers, failing_index)
        }
    };
    JobOutcome {
        verdict,
        traces_checked,
        memo,
        condition,
        workers,
        failing_index,
        duration: start.elapsed(),
    }
}

/// The `Decide` backend: translate to LTL and run Algorithm B under the
/// job's [`ResourceBudget`] (deeply nested translations are exponential — a
/// blowup yields `Unknown { exhausted }`, never a hang, under any finite
/// budget; [`ResourceBudget::unbounded`] is the caller explicitly choosing
/// run-to-completion, however long that takes).  On non-validity, search for
/// a small concrete counterexample — the sweep draws on the same budget's
/// enumeration cap, so the verdict stays uniform with the other backends.
///
/// Since the condition-store rewrite the validity check is Algorithm B end
/// to end.  Under a finite implicant cap the explicit §5 condition is
/// attempted first on the interned, [`ConditionStats`]-instrumented store —
/// its counters are the report's condition statistics.  When that artifact
/// trips the cap (or the cap is infinite), the decision comes from the
/// *evaluated* fixpoint instead — the same §5.3 iteration run over plain
/// Booleans — which terminates fast on every input, so verdicts are never
/// weaker than the pre-store tableau-pruning check, only the statistics
/// richer.
///
/// Under parallelism only the refutation sweep fans out — the same sharded
/// lowest-index-wins sweep the `Bounded` backend uses, past the same
/// sequential head, and the only phase whose report carries more than one
/// worker.  The tableau build, the prune
/// and the condition fixpoint run on the calling thread: their striped
/// variants measured slower at two workers (see the fan-out table in
/// `ARCHITECTURE.md`).  Verdicts — `Holds`, the concrete counterexample,
/// and `Unknown`-under-budget alike — are bit-identical at every worker
/// count (deadline/cancellation cuts aside).
fn decide<A: ArenaRead + Sync>(
    arena: &A,
    job: &PreparedJob,
) -> (Verdict, usize, MemoStats, usize, Option<usize>, ConditionStats) {
    let none = MemoStats::default();
    let mut condition_stats = ConditionStats::default();
    let Some(negation) = &job.inputs.negation else {
        return (Verdict::unknown(), 0, none, 1, None, condition_stats);
    };
    // Algorithm B reads the formula it decides only for the classes of its
    // constraint variables, which `B` and `¬B` share, so the negation the
    // tableau is built from stands in for `B` below.  Every variable is a
    // state variable, so the extralogical selection search — the only phase
    // `AlgorithmB::with_parallelism` reaches — never runs here.
    let theory = PropositionalTheory::new();
    let algorithm = AlgorithmB::new(&theory, VarSpec::all_state());
    // One tableau build serves both phases below.
    let decided = match TableauGraph::try_build_budgeted(negation, &job.budget, Parallelism::Off) {
        Err(cut) => Err(cut),
        Ok(graph) => {
            // Phase 1 — the explicit condition artifact, attempted only
            // under a finite implicant cap: on the interned store it is
            // cheap for typical formulas and its counters — reported even
            // when the artifact trips — are the report's condition
            // statistics.  An *unbounded* request must never be parked on a
            // condition whose minimal DNF is intractably wide (the nested
            // weak-until family) when the decision itself doesn't need it.
            let mut decided: Option<Result<Decision, Exhaustion>> = None;
            if job.budget.max_implicants() != usize::MAX {
                let (artifact, stats) =
                    condition_of_graph_budgeted_stats(graph.clone(), &job.budget, job.parallelism);
                condition_stats = stats;
                if let Ok(condition) = artifact {
                    decided = Some(algorithm.decide_from_condition_budgeted(
                        negation,
                        &condition,
                        &job.budget,
                    ));
                }
            }
            // Phase 2 — the evaluated fixpoint
            // (`AlgorithmB::decide_from_graph_budgeted_stats`): decides
            // validity by running the §5.3 worklist fixpoint over plain
            // Booleans, so it is exact and fast on exactly the formulas
            // whose explicit condition blows the budget.  Its rounds and
            // evaluated/skipped tallies merge into the report's condition
            // statistics (its interning counters are zero by nature).
            decided.unwrap_or_else(|| {
                let (decision, stats) =
                    algorithm.decide_from_graph_budgeted_stats(negation, &graph, &job.budget);
                condition_stats.merge(stats);
                decision
            })
        }
    };
    let refuted = match decided {
        Ok(Decision::Valid) => return (Verdict::Holds, 0, none, 1, None, condition_stats),
        // Not valid (or a mixed-mode Unknown, out of reach for the all-state
        // classification used here): a concrete countermodel is worth the
        // sweep below.
        Ok(Decision::NotValid | Decision::Unknown) => None,
        Err(cut) => Some(cut),
    };
    // Concretize over the deepest bound whose enumeration fits the budget.
    // A saturated model count never fits — the enumeration's global indices
    // would overflow — so a very wide alphabet degrades to `Unknown` even
    // under an unbounded cap rather than attempting an uncountable sweep.
    // Whether the *budget* (as opposed to saturation or the internal depth
    // constant) rejected a deeper bound is tracked so the verdict only
    // reports `exhausted: Some(Enumeration)` when raising `max_enumeration`
    // could actually have helped.
    let props = &job.inputs.alphabet;
    let (depth, cap_blocked_depth) = refutation_depth(props.len(), job.budget.max_enumeration());
    let budget_cut_depth = cap_blocked_depth.then_some(Exhaustion::Enumeration);
    let Some(depth) = depth else {
        // No enumerable refutation depth at all: name the tableau cut or the
        // cap if one of them is to blame; pure saturation is a plain
        // `Unknown` no budget change can fix.
        return match refuted.or(budget_cut_depth) {
            Some(cut) => (Verdict::exhausted(cut), 0, none, 1, None, condition_stats),
            None => (Verdict::unknown(), 0, none, 1, None, condition_stats),
        };
    };
    let checker = BoundedChecker::new(props.iter().map(String::as_str), depth);
    let sweep = checker.sweep_budgeted(arena, job.id, None, job.parallelism, &job.budget);
    let (verdict, index) = match sweep.counterexample {
        Some((index, trace)) => (Verdict::Counterexample(trace), Some(index)),
        // No countermodel within reach: blame the earliest budget cut — the
        // tableau exhaustion if there was one, a sweep cut otherwise, or the
        // enumeration cap when it forced a shallower bound than the budget-
        // independent choice would have used.  A sweep that ran the deepest
        // enumerable depth to completion exhausted nothing: the verdict is a
        // plain `Unknown` (the depth limit is an internal constant, not a
        // budget resource).
        None => match refuted.or(sweep.exhausted).or(budget_cut_depth) {
            Some(cut) => (Verdict::exhausted(cut), None),
            None => (Verdict::unknown(), None),
        },
    };
    (verdict, sweep.traces_checked, sweep.memo, sweep.workers, index, condition_stats)
}

/// The `Explore` engine: checks the runs of `runs` against `formula` in
/// order, on the calling thread, and reports the first failing run.  Runs
/// at or beyond the budget's enumeration cap are not examined (a
/// deterministic truncation reported as `Unknown { exhausted: Enumeration }`
/// when no earlier run fails); the deadline/cancellation cutoffs are polled
/// every few hundred runs.  A lazy source is pulled one run at a time, so
/// memory stays bounded and an early exit never drains the producer.
/// It does not fan out: striping runs across two workers ran at 0.84–0.96x.
fn drive_runs<A: ArenaRead>(
    arena: &A,
    runs: &RunSource,
    formula: FormulaId,
    domain: Option<&[Value]>,
    budget: &ResourceBudget,
) -> (Verdict, usize, MemoStats, Option<usize>) {
    let mut memo = MemoEvaluator::new(arena);
    if let Some(domain) = domain {
        memo = memo.with_domain(domain.to_vec());
    }
    let cap = budget.max_enumeration();
    let mut checked = 0usize;
    // `Ok` is a failing run, `Err` the cut that stopped the sweep.
    let mut check = |index: usize, run: &Trace| -> Option<Result<(usize, Trace), Exhaustion>> {
        if index >= cap {
            // Runs exist at or beyond the cap: truncated, not complete.
            return Some(Err(Exhaustion::Enumeration));
        }
        if checked.is_multiple_of(crate::pool::INTERRUPT_POLL_PERIOD) {
            if let Some(cut) = budget.interrupted() {
                return Some(Err(cut));
            }
        }
        checked += 1;
        (!memo.check(run, formula)).then(|| Ok((index, run.clone())))
    };
    let stop = match &runs.inner {
        RunsInner::Collected(all) => all.iter().enumerate().find_map(|(i, run)| check(i, run)),
        RunsInner::Lazy(make) => make().enumerate().find_map(|(i, run)| check(i, &run)),
    };
    // A collected source longer than the cap ends truncated whatever the
    // timing: the deterministic cut takes precedence over a concurrent
    // timing one so repeated runs agree whenever they can.
    let past_cap = runs.len_hint().is_some_and(|len| len > cap);
    let (verdict, index) = match stop {
        Some(Ok((index, trace))) => (Verdict::Counterexample(trace), Some(index)),
        Some(Err(_)) if past_cap => (Verdict::exhausted(Exhaustion::Enumeration), None),
        Some(Err(cut)) => (Verdict::exhausted(cut), None),
        None if checked == 0 => (Verdict::unknown(), None),
        None => (Verdict::Holds, None),
    };
    (verdict, checked, memo.stats(), index)
}

/// Trace length used to concretize tableau non-validity into a counterexample.
/// The enumeration is `(2^props)^len`-sized, so the bound is lowered until the
/// sweep fits the budget's `max_enumeration` cap (and ultimately abandoned as
/// `Unknown`) rather than letting a wide alphabet stall a call documented
/// never to hang.
const DECIDE_REFUTATION_BOUND: usize = 4;

/// The deepest refutation length, at most [`DECIDE_REFUTATION_BOUND`], whose
/// enumeration over `props` propositions (lassos included) fits `cap`, and
/// whether the cap — not a count too large to represent — ruled out a deeper
/// one.  `None` when no length fits.
fn refutation_depth(props: usize, cap: usize) -> (Option<usize>, bool) {
    let mut cap_blocked = false;
    for len in (1..=DECIDE_REFUTATION_BOUND).rev() {
        let count = bounded::model_count(props, len, true);
        if count == usize::MAX {
            continue; // Uncountable at this depth: not a budget matter.
        }
        if count > cap {
            cap_blocked = true;
            continue;
        }
        return (Some(len), cap_blocked);
    }
    (None, cap_blocked)
}

/// Resolves [`Backend::Auto`] against the pre-flight [`CostEstimate`]:
/// the concrete backend plus the (possibly adjusted) budget the routed job
/// runs under.
///
/// * Translatable, no predicted blowup — `Decide` with the caller's budget
///   unchanged: the explicit §5 condition artifact is cheap here and its
///   counters are worth having in the report.
/// * Translatable, predicted blowup (the artifact-intractable
///   prefix-invariance family, or deeply nested prefixes) — `Decide` with an
///   infinite implicant cap, which the decide path reads as "skip the explicit
///   artifact, decide by the evaluated fixpoint": exact, fast, and immune to
///   the predicted condition width.
/// * Untranslatable — a `Bounded` refutation sweep over the formula's own
///   propositions, at the deepest length whose enumeration fits the budget's
///   `max_enumeration` cap (the same degradation rule the decide path's
///   concretization sweep uses; depth 1 is the floor).
///
/// Routing never picks `Trace` or `Explore`: both need run sources the
/// request didn't supply.  The function is deterministic in the request and
/// estimate alone, so batch routing is bit-identical to a sequential loop.
pub fn auto_backend(
    formula: &Formula,
    estimate: &CostEstimate,
    budget: &ResourceBudget,
) -> (Backend, ResourceBudget) {
    match route(estimate, budget) {
        (Engine::Bounded { max_len, lassos, .. }, budget) => {
            let props = analysis::proposition_names(formula);
            (Backend::Bounded { props, max_len, lassos }, budget)
        }
        (_, budget) => (Backend::Decide, budget),
    }
}

/// [`auto_backend`] as the session runs it: the sweep's alphabet is the
/// formula's own, which the estimate counts
/// ([`CostEstimate::propositions`]) and the job's analysis holds.
fn route(estimate: &CostEstimate, budget: &ResourceBudget) -> (Engine, ResourceBudget) {
    if estimate.translatable {
        let budget = if estimate.blowup() {
            budget.clone().with_max_implicants(usize::MAX)
        } else {
            budget.clone()
        };
        (Engine::Decide, budget)
    } else {
        let max_len =
            refutation_depth(estimate.propositions, budget.max_enumeration()).0.unwrap_or(1);
        (Engine::Bounded { props: None, max_len, lassos: true }, budget.clone())
    }
}

/// The message of the `R001` routing record: where `Auto` sent the job and
/// why, written into one buffer.
fn route_message(routed: &str, estimate: &CostEstimate) -> String {
    use std::fmt::Write;
    let mut message = String::with_capacity(128);
    let _ = write!(message, "auto: routed to `{routed}` (");
    if estimate.artifact_intractable {
        message.push_str("artifact-intractable prefix-invariance shape: evaluated fixpoint forced");
    } else if estimate.deep_nesting {
        message.push_str("deeply nested prefixes: evaluated fixpoint forced");
    } else if estimate.translatable {
        let _ = write!(
            message,
            "translatable, predicted ≤{} tableau nodes / ≤{} edges",
            estimate.nodes, estimate.edges
        );
    } else {
        message.push_str("outside the translatable fragment: bounded refutation sweep");
    }
    message.push(')');
    message
}

/// Pre-flight admission: compares the predicted cost of the *resolved*
/// backend against the budget and names the resource that would trip, or
/// `None` to admit.  Only predictions the estimator actually makes are
/// enforced — `Trace`/`Explore` jobs (cost proportional to caller-supplied
/// run sources) and untranslatable `Decide` jobs are always admitted, so
/// admission never rejects work the estimator can't see.
fn admission(
    engine: &Engine,
    estimate: &CostEstimate,
    budget: &ResourceBudget,
) -> Option<Exhaustion> {
    match engine {
        Engine::Bounded { props, max_len, lassos } => {
            let alphabet = props.as_ref().map_or(estimate.propositions, Vec::len);
            (bounded::model_count(alphabet, *max_len, *lassos) > budget.max_enumeration())
                .then_some(Exhaustion::Enumeration)
        }
        Engine::Decide if estimate.translatable => {
            if estimate.nodes > budget.max_nodes() as u64 {
                Some(Exhaustion::Nodes)
            } else if estimate.edges > budget.max_edges() as u64 {
                Some(Exhaustion::Edges)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::state::State;

    fn trace_of(rows: &[&[&str]]) -> Trace {
        Trace::finite(
            rows.iter()
                .map(|props| {
                    let mut state = State::new();
                    for p in *props {
                        state.insert(crate::state::Prop::plain(*p));
                    }
                    state
                })
                .collect(),
        )
    }

    #[test]
    fn trace_backend_reports_holds_and_counterexample() {
        let session = Session::new();
        let formula = prop("D").eventually().within(event(prop("A")).then(event(prop("B"))));
        let good = trace_of(&[&[], &["A"], &["A", "D"], &["A", "B"]]);
        let report = session.check(CheckRequest::new(formula.clone()).on_trace(&good));
        assert_eq!(report.verdict, Verdict::Holds);
        assert_eq!(report.backend, "trace");
        assert_eq!(report.stats.traces_checked, 1);

        let bad = trace_of(&[&[], &["A"], &["A"], &["A", "B"]]);
        let report = session.check(CheckRequest::new(formula).on_trace(&bad));
        assert_eq!(report.verdict.counterexample(), Some(&bad));
    }

    #[test]
    fn bounded_backend_reports_valid_up_to_bound() {
        let session = Session::new();
        let tautology = prop("P").or(prop("P").not());
        let report = session.check(CheckRequest::new(tautology).bounded(["P"], 3));
        assert_eq!(report.verdict, Verdict::ValidUpTo(3));
        assert!(report.verdict.passed());
        assert!(report.stats.traces_checked > 0);

        let contingent = prop("P");
        let report = session.check(CheckRequest::new(contingent).bounded(["P"], 3));
        assert!(matches!(report.verdict, Verdict::Counterexample(_)));
    }

    #[test]
    fn explore_backend_checks_every_run() {
        let session = Session::new();
        let runs = vec![trace_of(&[&[], &["A"]]), trace_of(&[&[], &[], &["A"]])];
        let occurs_a = occurs(event(prop("A")));
        let report = session.check(CheckRequest::new(occurs_a.clone()).over_runs(runs.clone()));
        assert_eq!(report.verdict, Verdict::Holds);
        assert_eq!(report.stats.traces_checked, 2);

        let mut with_bad = runs;
        with_bad.push(trace_of(&[&[], &[]]));
        let report = session.check(CheckRequest::new(occurs_a).over_runs(with_bad));
        assert!(matches!(report.verdict, Verdict::Counterexample(_)));

        let report = session.check(CheckRequest::new(prop("A")).over_runs(Vec::new()));
        assert_eq!(report.verdict, Verdict::unknown());
    }

    #[test]
    fn decide_backend_settles_the_translatable_fragment() {
        let session = Session::new();
        // □P ⊃ ◇P is a theorem of the temporal substrate.
        let theorem = always(prop("P")).implies(eventually(prop("P")));
        let report = session.check(CheckRequest::new(theorem).decide());
        assert_eq!(report.verdict, Verdict::Holds);
        assert_eq!(report.backend, "decide");

        // ◇P is not valid: the tableau refutes it and the bounded search
        // produces a concrete countermodel.
        let report = session.check(CheckRequest::new(eventually(prop("P"))).decide());
        assert!(matches!(report.verdict, Verdict::Counterexample(_)));

        // Quantified formulas are outside the fragment.
        let report =
            session.check(CheckRequest::new(prop_args("p", [var("x")]).forall("x")).decide());
        assert_eq!(report.verdict, Verdict::unknown());
    }

    #[test]
    fn sessions_share_structure_across_checks() {
        let session = Session::new();
        let f = prop("D").eventually().within(event(prop("A")).then(event(prop("B"))));
        let g = prop("D").always().within(event(prop("A")).then(event(prop("B"))));
        let t = trace_of(&[&[], &["A"], &["A", "D"], &["A", "B"]]);
        session.check(CheckRequest::new(f).on_trace(&t));
        let nodes_after_first = session.arena().formula_count();
        session.check(CheckRequest::new(g).on_trace(&t));
        // The second formula only adds its top connective (plus the In node).
        assert!(session.arena().formula_count() <= nodes_after_first + 2);
    }

    #[test]
    fn spec_checks_route_through_the_arena() {
        let spec = Spec::new("toy")
            .init("Init", prop("R").not())
            .axiom("A1", always(prop("R").implies(eventually(prop("A")))));
        let good = trace_of(&[&[], &["R"], &["A"]]);
        let bad = trace_of(&[&["R"], &["R"], &[]]);
        let session = Session::new();
        assert!(session.check_spec(&spec, &good).passed());
        let report = session.check_spec(&spec, &bad);
        assert!(!report.passed());
        assert_eq!(report.failures(), vec!["Init", "A1"]);
        assert!(
            session.cumulative_memo().misses > 0,
            "spec checking must feed the cumulative counters"
        );
    }

    #[test]
    fn parallel_bounded_requests_match_sequential_verdicts() {
        use crate::pool::Parallelism;
        let formulas = [
            prop("P").or(prop("P").not()),
            prop("P"),
            always(eventually(prop("P"))).implies(eventually(always(prop("P")))),
        ];
        for formula in formulas {
            let sequential =
                Session::new().check(CheckRequest::new(formula.clone()).bounded(["P", "Q"], 3));
            for workers in 1..=4 {
                let parallel = Session::new().check(
                    CheckRequest::new(formula.clone())
                        .bounded(["P", "Q"], 3)
                        .with_parallelism(Parallelism::Fixed(workers)),
                );
                assert_eq!(parallel.verdict, sequential.verdict, "workers={workers}");
                // 312 computations stay below the fan-out grain.
                assert_eq!(parallel.stats.workers, 1, "workers={workers}");
            }
        }
        // A valid formula's sweep of 344 864 computations fans out past its
        // head and reports the workers it was sharded across.
        let fanned = Session::new().check(
            CheckRequest::new(prop("P").or(prop("P").not()))
                .bounded(["P", "Q", "R", "S"], 4)
                .with_parallelism(Parallelism::Fixed(2)),
        );
        assert_eq!(fanned.verdict, Verdict::ValidUpTo(4));
        assert_eq!(fanned.stats.traces_checked, 344_864);
        assert_eq!(fanned.stats.workers, 2);
    }

    #[test]
    fn explore_requests_pick_the_first_failing_run() {
        let runs: Vec<Trace> = (0..40)
            .map(|i| if i % 7 == 3 { trace_of(&[&[], &[]]) } else { trace_of(&[&[], &["A"]]) })
            .collect();
        let occurs_a = occurs(event(prop("A")));
        let report = Session::new().check(CheckRequest::new(occurs_a).over_runs(runs.clone()));
        // Run index 3 is the first failure in enumeration order.
        assert_eq!(report.verdict.counterexample(), Some(&runs[3]));
        assert_eq!(report.stats.traces_checked, 4, "checking stops at the first failure");
    }

    #[test]
    fn checks_that_never_fan_out_report_one_worker() {
        use crate::pool::Parallelism;
        let fixed4 = |request: CheckRequest| {
            Session::new().check(request.with_parallelism(Parallelism::Fixed(4)))
        };
        // A theorem settles in the fixpoint: no refutation sweep runs.
        let theorem = fixed4(CheckRequest::new(prop("P").or(prop("P").not())).decide());
        assert_eq!(theorem.verdict, Verdict::Holds);
        assert_eq!(theorem.stats.workers, 1);
        // Explore checks its runs on the calling thread.
        let runs = vec![trace_of(&[&[], &["A"]]), trace_of(&[&[], &[], &["A"]])];
        let explore = fixed4(CheckRequest::new(occurs(event(prop("A")))).over_runs(runs));
        assert!(explore.verdict.passed());
        assert_eq!(explore.stats.workers, 1);
        // A non-theorem's refutation sweep fails in its head, on the
        // calling thread.
        let refuted = fixed4(CheckRequest::new(prop("P")).decide());
        assert!(refuted.verdict.counterexample().is_some());
        assert_eq!(refuted.stats.workers, 1);
    }

    #[test]
    fn lazy_run_sources_stream_batches() {
        let mk_run = |with_a: bool| {
            if with_a {
                trace_of(&[&[], &["A"]])
            } else {
                trace_of(&[&[], &[]])
            }
        };
        // 200 runs, failure at index 130: the lazy source is pulled run by
        // run and checking stops at the failure.
        let source = RunSource::lazy(move || (0..200).map(move |i| mk_run(i != 130)));
        assert_eq!(source.len_hint(), None);
        let occurs_a = occurs(event(prop("A")));
        let report =
            Session::new().check(CheckRequest::new(occurs_a).over_run_source(source.clone()));
        assert_eq!(report.verdict.counterexample(), Some(&mk_run(false)));
        assert!(
            report.stats.traces_checked < 200,
            "early exit must not drain the lazy source (checked {})",
            report.stats.traces_checked
        );
        // An empty lazy source is Unknown, like an empty collected one.
        let empty = RunSource::lazy(std::iter::empty::<Trace>);
        let report = Session::new().check(CheckRequest::new(prop("A")).over_run_source(empty));
        assert_eq!(report.verdict, Verdict::unknown());
    }

    #[test]
    fn sessions_accumulate_memo_stats_across_requests() {
        let session = Session::new();
        let f = prop("D").eventually().within(event(prop("A")).then(event(prop("B"))));
        let t = trace_of(&[&[], &["A"], &["A", "D"], &["A", "B"]]);
        let first = session.check(CheckRequest::new(f.clone()).on_trace(&t));
        let after_first = session.cumulative_memo();
        assert_eq!(
            after_first, first.stats.memo,
            "one request: cumulative equals the request's own counters"
        );
        let second = session.check(CheckRequest::new(f).on_trace(&t));
        let after_second = session.cumulative_memo();
        assert_eq!(after_second.hits, first.stats.memo.hits + second.stats.memo.hits);
        assert_eq!(after_second.misses, first.stats.memo.misses + second.stats.memo.misses);
        assert_eq!(second.stats.session_memo, after_second);
    }

    #[test]
    fn reports_render_for_humans() {
        let session = Session::new();
        let report = session.check(CheckRequest::new(prop("P")).bounded(["P"], 2));
        let shown = report.to_string();
        assert!(shown.contains("bounded"));
        assert!(shown.contains("counterexample"));
    }

    #[test]
    fn decide_checks_surface_condition_store_counters() {
        let session = Session::new();
        // ◇P is refutable and Graph(¬◇P) has real edges, so the condition
        // fixpoint interns real implicants.  (A theorem like □P ⊃ ◇P has a
        // contradictory negation whose graph is edgeless — its condition is ⊤
        // with zero interned implicants, legitimately.)
        let refutable = eventually(prop("P"));
        let report = session.check(CheckRequest::new(refutable.clone()).decide());
        assert!(matches!(report.verdict, Verdict::Counterexample(_)), "got {}", report.verdict);
        assert!(
            report.stats.condition.interned_implicants > 0,
            "a tractable Decide must report its condition-store work"
        );
        assert_eq!(report.stats.session_condition, report.stats.condition);
        assert_eq!(session.cumulative_condition(), report.stats.condition);
        // A second decide accumulates (counts add, peak takes the max).
        let second = session.check(CheckRequest::new(always(prop("Q"))).decide());
        assert!(second.stats.condition.interned_implicants > 0);
        let cumulative = session.cumulative_condition();
        assert_eq!(
            cumulative.interned_implicants,
            report.stats.condition.interned_implicants + second.stats.condition.interned_implicants
        );
        assert!(
            cumulative.peak_dnf_width
                >= report.stats.condition.peak_dnf_width.max(second.stats.condition.peak_dnf_width)
        );
        assert_eq!(second.stats.session_condition, cumulative);
        // Non-decide backends report zero condition work.
        let bounded = session.check(CheckRequest::new(prop("P")).bounded(["P"], 2));
        assert_eq!(bounded.stats.condition, ConditionStats::default());
        // An unbounded budget skips the explicit artifact — the evaluated
        // fixpoint decides without interning a single implicant, but still
        // reports the rounds and evaluations of its Boolean worklist.
        let unbounded = Session::new()
            .with_budget(ResourceBudget::unbounded())
            .check(CheckRequest::new(refutable).decide());
        assert!(matches!(unbounded.verdict, Verdict::Counterexample(_)));
        assert_eq!(unbounded.stats.condition.interned_implicants, 0);
        assert_eq!(unbounded.stats.condition.interned_dnfs, 0);
        assert_eq!(unbounded.stats.condition.peak_dnf_width, 0);
        assert!(
            unbounded.stats.condition.rounds > 0
                && unbounded.stats.condition.equations_evaluated > 0,
            "the evaluated fixpoint must report its worklist rounds, got {:?}",
            unbounded.stats.condition
        );
    }

    #[test]
    fn stats_display_names_condition_work_and_exhaustion() {
        let session = Session::new();
        let decided = session.check(CheckRequest::new(eventually(prop("P"))).decide());
        assert!(
            decided.stats.to_string().contains("condition implicants"),
            "got: {}",
            decided.stats
        );
        // An enumeration-capped bounded sweep names the cut in its stats line.
        let capped = session.check(
            CheckRequest::new(prop("P").or(prop("P").not()))
                .bounded(["P", "Q"], 3)
                .with_budget(ResourceBudget::default().with_max_enumeration(1)),
        );
        assert_eq!(capped.verdict, Verdict::exhausted(Exhaustion::Enumeration));
        assert_eq!(capped.stats.exhausted, Some(Exhaustion::Enumeration));
        assert!(
            capped.stats.to_string().contains("exhausted: enumeration budget exhausted"),
            "got: {}",
            capped.stats
        );
    }

    #[test]
    fn pre_condition_era_reports_still_parse() {
        // A report rendered before the PR 5 stats fields existed (no
        // `condition`, `session_condition`, or `exhausted`): the stable
        // wire-format promise means it parses with defaults rather than
        // being rejected.
        let legacy = concat!(
            "{\"backend\":\"trace\",\"verdict\":{\"kind\":\"holds\"},",
            "\"failing_index\":null,\"stats\":{\"duration_ns\":5,",
            "\"traces_checked\":1,\"memo\":{\"hits\":2,\"misses\":3},",
            "\"session_memo\":{\"hits\":2,\"misses\":3},",
            "\"arena_nodes\":4,\"workers\":1}}",
        );
        let parsed = CheckReport::from_json(legacy).expect("legacy reports must parse");
        assert_eq!(parsed.verdict, Verdict::Holds);
        assert_eq!(parsed.stats.condition, ConditionStats::default());
        assert_eq!(parsed.stats.session_condition, ConditionStats::default());
        assert_eq!(parsed.stats.exhausted, None);
        assert_eq!(parsed.stats.memo.hits, 2);
    }

    #[test]
    fn condition_counters_survive_an_artifact_budget_trip() {
        // A Decide whose condition artifact trips the implicant cap still
        // reports the interning work of the attempt (the cap is 3: the graph
        // of ¬◇P has enough edge atoms to charge past it).
        let session = Session::new().with_budget(ResourceBudget::default().with_max_implicants(3));
        let report = session.check(CheckRequest::new(eventually(prop("P"))).decide());
        assert!(
            report.stats.condition.interned_implicants > 0,
            "the tripped artifact's counters must surface; got {:?}",
            report.stats.condition
        );
        // The decision itself still settles through the evaluated fixpoint.
        assert!(matches!(report.verdict, Verdict::Counterexample(_)), "got {}", report.verdict);
    }

    #[test]
    fn reports_round_trip_condition_and_exhaustion_fields() {
        let session = Session::new();
        let reports = vec![
            session.check(CheckRequest::new(always(prop("P")).implies(prop("P"))).decide()),
            session.check(
                CheckRequest::new(prop("P"))
                    .bounded(["P"], 2)
                    .with_budget(ResourceBudget::default().with_max_enumeration(1)),
            ),
        ];
        for report in reports {
            let json = report.to_json();
            let parsed = CheckReport::from_json(&json).expect("round trip");
            assert_eq!(parsed, report);
            assert_eq!(parsed.to_json(), json, "stable rendering");
        }
    }

    #[test]
    fn error_reports_round_trip_and_quote_preflight_rejections() {
        // A pre-flight rejection becomes a structured error carrying the
        // original C002 diagnostic...
        let session = Session::new();
        let rejected = session.check(
            CheckRequest::new(eventually(prop("P")))
                .decide()
                .with_preflight()
                .with_budget(ResourceBudget::default().with_max_nodes(1)),
        );
        let error = ErrorReport::from_rejection(&rejected)
            .expect("a preflight-rejected report yields an error");
        assert_eq!(error.code, "C002");
        assert!(error.diagnostics.iter().any(|d| d.code == DiagnosticCode::OverBudget));
        // ...and a report that actually ran yields none.
        let ran = session.check(CheckRequest::new(prop("P").or(prop("P").not())).decide());
        assert_eq!(ErrorReport::from_rejection(&ran), None);

        // Round trip, with and without the optional fields.
        let cases = vec![
            error,
            ErrorReport::new("shed", "over capacity").with_retry_after_ms(250),
            ErrorReport::new("bad-json", "JSON error at byte 3: expected `:`"),
        ];
        for case in cases {
            let json = case.to_json();
            let parsed = ErrorReport::from_json(&json).expect("round trip");
            assert_eq!(parsed, case);
            assert_eq!(parsed.to_json(), json, "stable rendering");
        }
    }

    #[test]
    fn verdict_cache_replays_reports_bit_identically() {
        let requests = || {
            vec![
                // A counterexample with a failing index and condition work...
                CheckRequest::new(eventually(prop("P"))).decide(),
                // ...and a *structural* exhaustion, which caches like any
                // settled verdict (it is a pure function of the caps).
                CheckRequest::new(prop("P").or(prop("P").not()))
                    .bounded(["P", "Q"], 3)
                    .with_budget(ResourceBudget::default().with_max_enumeration(1)),
            ]
        };
        let cached = Session::new();
        let uncached = Session::new().with_verdict_cache(false);
        for (request, twin) in requests().into_iter().zip(requests()) {
            let first = cached.check(request.clone());
            uncached.check(twin.clone());
            assert_eq!(first.stats.cache, CacheStats { hits: 0, misses: 1 });
            let mut hit = cached.check(request);
            let mut recomputed = uncached.check(twin);
            assert_eq!(hit.stats.cache, CacheStats { hits: 1, misses: 0 });
            assert_eq!(recomputed.stats.cache, CacheStats::default());
            // The replayed report is bit-identical to the recomputation the
            // cache-off session performed — wall clock and the cache
            // counters themselves aside.
            hit.stats.duration = Duration::ZERO;
            recomputed.stats.duration = Duration::ZERO;
            hit.stats.cache = CacheStats::default();
            hit.stats.session_cache = CacheStats::default();
            assert_eq!(hit, recomputed);
        }
        assert_eq!(cached.cumulative_cache(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(uncached.cumulative_cache(), CacheStats::default());
    }

    #[test]
    fn batched_duplicates_score_the_sequential_loops_hits() {
        use crate::pool::Parallelism;
        let theorem = always(prop("P")).implies(eventually(prop("P")));
        let batch = || -> Vec<CheckRequest> {
            (0..4).map(|_| CheckRequest::new(theorem.clone()).decide()).collect()
        };
        let session = Session::new();
        let reports = session.check_many(batch());
        assert_eq!(reports[0].stats.cache, CacheStats { hits: 0, misses: 1 });
        for report in &reports[1..] {
            assert_eq!(report.stats.cache, CacheStats { hits: 1, misses: 0 });
        }
        // Bit-identical (durations aside) to the sequential loop of `check`
        // calls, where the duplicates hit the session cache one by one.
        let sequential = Session::new();
        let looped: Vec<CheckReport> = batch()
            .into_iter()
            .map(|r| sequential.check(r.with_parallelism(Parallelism::Off)))
            .collect();
        for (mut batched, mut one_shot) in reports.into_iter().zip(looped) {
            batched.stats.duration = Duration::ZERO;
            one_shot.stats.duration = Duration::ZERO;
            assert_eq!(batched, one_shot);
        }
    }

    #[test]
    fn timing_budgets_bypass_the_verdict_cache() {
        // An already-expired deadline: the cut answer must come from the
        // backend both times, never from (or into) the cache.
        let session = Session::new();
        let expired = || {
            CheckRequest::new(eventually(prop("P")))
                .decide()
                .with_budget(ResourceBudget::default().with_timeout(Duration::ZERO))
        };
        for _ in 0..2 {
            let report = session.check(expired());
            assert_eq!(report.verdict, Verdict::exhausted(Exhaustion::Deadline));
            assert_eq!(report.stats.cache, CacheStats::default());
        }
        // A cancellable budget bypasses even when its token never fires.
        let token = crate::pool::CancelToken::new();
        let cancellable = CheckRequest::new(eventually(prop("P")))
            .decide()
            .with_budget(ResourceBudget::default().with_cancel(token));
        let report = session.check(cancellable);
        assert!(matches!(report.verdict, Verdict::Counterexample(_)));
        assert_eq!(report.stats.cache, CacheStats::default());
        assert_eq!(session.cumulative_cache(), CacheStats::default());
        // ...but a *live* deadline may serve a settled cached verdict: the
        // replay is bit-identical to a recomputation that didn't trip.
        let warm = session.check(CheckRequest::new(eventually(prop("P"))).decide());
        assert_eq!(warm.stats.cache, CacheStats { hits: 0, misses: 1 });
        let live = session.check(
            CheckRequest::new(eventually(prop("P")))
                .decide()
                .with_budget(ResourceBudget::default().with_timeout(Duration::from_secs(3600))),
        );
        assert_eq!(live.stats.cache, CacheStats { hits: 1, misses: 0 });
        assert_eq!(live.verdict, warm.verdict);
    }

    #[test]
    fn cache_counters_round_trip_json() {
        let session = Session::new();
        let request = CheckRequest::new(always(prop("P")).implies(prop("P"))).decide();
        session.check(request.clone());
        let hit = session.check(request);
        assert_eq!(hit.stats.cache, CacheStats { hits: 1, misses: 0 });
        assert_eq!(hit.stats.session_cache, CacheStats { hits: 1, misses: 1 });
        assert!(hit.stats.to_string().contains("verdict cache hit"), "got: {}", hit.stats);
        let json = hit.to_json();
        assert!(json.contains("\"cache\""));
        let parsed = CheckReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, hit);
        assert_eq!(parsed.to_json(), json, "stable rendering");
    }

    #[test]
    fn a_memo_hit_reports_what_a_fresh_analysis_reports() {
        let formulas = [
            eventually(prop("P")),
            always(prop("P")).implies(eventually(prop("P"))),
            // A lint error, a routing record and an untranslatable shape.
            prop("P").and(prop("P").not()),
            prop("D").eventually().within(event(prop("A")).then(event(prop("B")))),
            prop_args("p", [var("x")]).forall("x"),
        ];
        // Both sessions intern the formulas in the same order, so their
        // arenas agree id for id; only `memoized` has analysed them (an
        // `Explore` check over no runs analyses its formula, runs nothing,
        // bypasses the verdict cache and leaves every counter at zero).
        let memoized = || {
            let session = Session::new();
            for formula in &formulas {
                session.check(CheckRequest::new(formula.clone()).over_runs(Vec::new()));
            }
            assert_eq!(session.store_gauges().analysis_entries, formulas.len());
            session
        };
        let interned = || {
            let session = Session::new();
            for formula in &formulas {
                session.intern(formula);
            }
            session
        };
        for formula in &formulas {
            let own = analysis::proposition_names(formula);
            let requests = [
                CheckRequest::new(formula.clone()).auto(),
                CheckRequest::new(formula.clone()).decide(),
                CheckRequest::new(formula.clone()).bounded(own, 2),
                CheckRequest::new(formula.clone()).bounded(["P", "Q"], 2),
                CheckRequest::new(formula.clone())
                    .decide()
                    .with_preflight()
                    .with_budget(ResourceBudget::default().with_max_nodes(1)),
            ];
            for request in requests {
                let mut hit = memoized().check(request.clone());
                let mut fresh = interned().check(request);
                hit.stats.duration = Duration::ZERO;
                fresh.stats.duration = Duration::ZERO;
                assert_eq!(hit, fresh, "{formula}");
                assert_eq!(hit.to_json(), fresh.to_json(), "{formula}");
            }
        }
    }

    #[test]
    fn only_analysed_clean_formulas_are_known_clean() {
        let session = Session::new();
        let clean = eventually(prop("P"));
        let linted = prop("P").and(prop("P").not());
        assert!(!session.is_known_clean(&clean));
        assert_eq!(session.arena().formula_count(), 0, "asking interns nothing");
        session.intern(&clean);
        assert!(!session.is_known_clean(&clean), "interned is not analysed");
        session.check(CheckRequest::new(clean.clone()).decide());
        assert!(session.is_known_clean(&clean));
        session.check(CheckRequest::new(linted.clone()).decide());
        assert!(!session.is_known_clean(&linted), "an error-severity finding is not clean");
    }

    #[test]
    fn full_stores_count_the_stores_they_refuse() {
        let session = Session::new();
        let request =
            |i: usize| CheckRequest::new(prop(format!("P{i}"))).bounded([format!("P{i}")], 1);
        for i in 0..VERDICT_CACHE_CAP {
            session.check(request(i));
        }
        let full = StoreGauges {
            verdict_entries: VERDICT_CACHE_CAP,
            analysis_entries: VERDICT_CACHE_CAP,
            refused_stores: 0,
        };
        assert_eq!(session.store_gauges(), full);
        // One formula more: neither its analysis nor its outcome is stored,
        // and both refusals are counted, each time it is checked.
        for refused in [2, 4] {
            let report = session.check(request(VERDICT_CACHE_CAP));
            assert_eq!(report.stats.cache, CacheStats { hits: 0, misses: 1 });
            assert_eq!(session.store_gauges(), StoreGauges { refused_stores: refused, ..full });
        }
        // A stored formula still hits, and refuses nothing.
        let report = session.check(request(0));
        assert_eq!(report.stats.cache, CacheStats { hits: 1, misses: 0 });
        assert_eq!(session.store_gauges(), StoreGauges { refused_stores: 4, ..full });
    }

    #[test]
    fn a_deferred_duplicate_runs_when_its_twin_stored_nothing() {
        let session = Session::new();
        for i in 0..VERDICT_CACHE_CAP {
            session.check(CheckRequest::new(prop(format!("P{i}"))).bounded([format!("P{i}")], 1));
        }
        // The cache is full, so the first `◇Q` stores nothing and its twin
        // runs the decision itself, on inputs derived after the memo hit.
        let request = || CheckRequest::new(eventually(prop("Q"))).auto();
        let reports = session.check_many(vec![request(), request()]);
        let fresh = Session::new().check(request());
        assert!(matches!(fresh.verdict, Verdict::Counterexample(_)), "{:?}", fresh.verdict);
        for report in reports {
            assert_eq!(report.verdict, fresh.verdict);
            assert_eq!(report.stats.traces_checked, fresh.stats.traces_checked);
        }
    }

    #[test]
    fn batch_cache_hits_replay_what_a_loop_replays() {
        use crate::pool::Parallelism;
        let requests = || {
            vec![
                CheckRequest::new(eventually(prop("P"))).decide(),
                CheckRequest::new(eventually(prop("Q"))).auto(),
                CheckRequest::new(eventually(prop("P"))).decide(),
            ]
        };
        let batched = Session::new();
        batched.check(requests().remove(0));
        let looped = Session::new();
        looped.check(requests().remove(0));
        let reports = batched.check_many(requests());
        assert_eq!(reports[0].stats.cache, CacheStats { hits: 1, misses: 0 });
        for (mut batch, request) in reports.into_iter().zip(requests()) {
            let mut one = looped.check(request.with_parallelism(Parallelism::Off));
            batch.stats.duration = Duration::ZERO;
            one.stats.duration = Duration::ZERO;
            assert_eq!(batch, one);
        }
    }

    #[test]
    fn interned_formulas_are_checked_without_reinterning() {
        let session = Session::new();
        let interner = session.interner();
        let id = interner.intern(&prop("P").or(prop("P").not()));
        let before = interner.version();
        let report = session.check(CheckRequest::new(interner.extract(id)).bounded(["P"], 3));
        assert_eq!(report.verdict, Verdict::ValidUpTo(3));
        // Checking interned nothing new: the formula was already present.
        assert_eq!(interner.version(), before);
        assert_eq!(session.cumulative_cache(), CacheStats { hits: 0, misses: 1 });
    }
}
