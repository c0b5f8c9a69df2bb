//! A scoped worker pool for the sharded checking engines.
//!
//! Within one request the paper's procedure is sequential: build
//! `Graph(¬B)` (Appendix B), run the §5.3 double fixpoint, then the bounded
//! refutation.  The pool fans out only where a measurement at two workers
//! shows it pays (the fan-out table in `ARCHITECTURE.md`, kept honest by
//! `tests/fanout_audit.rs`):
//!
//! * the bounded sweep (`ilogic_core::bounded`), a conjunction over
//!   independently enumerable computations, sharded by global index;
//! * the extralogical selection search of [`crate::algorithm_b`], a
//!   mixed-radix enumeration searched lowest-index-first;
//! * the session's job scheduler (`ilogic_core::scheduler`), which runs
//!   whole requests side by side.
//!
//! Tableau pruning, the condition fixpoint, spec checking, explore-mode
//! checking and the low-level pipeline all run on the calling thread: their
//! striped variants lost at two workers (0.1x–1.0x), because each stripe is
//! microseconds of work against tens of microseconds of spawn and join.
//!
//! The module lives in `ilogic-temporal`, the lowest crate of the workspace,
//! and `ilogic_core` re-exports it as `ilogic_core::pool`.  It provides:
//!
//! * [`Parallelism`] — the user-facing knob ([`Parallelism::Auto`] /
//!   [`Parallelism::Fixed`] / [`Parallelism::Off`]), with an environment
//!   override (`ILOGIC_TEST_PARALLEL`) so whole test suites can be swept onto
//!   the pool without touching call sites;
//! * [`WorkerPool`] — a scoped fork/join pool over [`std::thread`].  Workers
//!   borrow from the caller's stack (arena snapshots, traces, conditions),
//!   run one closure per worker index, and are joined before `run` returns,
//!   so there is no lifetime laundering and no idle thread kept around;
//! * [`Earliest`] — a lock-free "lowest index wins" cancellation cell.  A
//!   plain `AtomicBool` stop flag would make counterexample selection racy
//!   (whichever shard set it first would win); publishing the lowest global
//!   index found so far lets every shard stop as soon as it can no longer
//!   improve the answer while keeping verdicts bit-identical to the
//!   sequential sweep;
//! * [`ResourceBudget`] / [`CancelToken`] / [`Exhaustion`] — the unified
//!   resource-control surface every budgeted engine shares: structural caps
//!   (nodes, edges, implicants, enumerated computations) plus a wall-clock
//!   deadline and a cooperative cancellation token, reported uniformly as an
//!   [`Exhaustion`] value.  It lives here for the same reason the pool does:
//!   every layer above (tableau, condition fixpoint, bounded sweep, low-level
//!   pipeline, session scheduler) enforces the same budget type.
//!
//! The pool uses `std::thread::scope` — no external dependencies — and spawns
//! workers per call.  Spawn and join cost tens of microseconds, more than a
//! typical refutation's whole search (a few dozen checks), so each sharded
//! search first visits a head of its lowest indices on the calling thread
//! and fans out only when the head does not answer; past the head the
//! shards are coarse (milliseconds to seconds each), spawn cost is noise,
//! and a persistent pool with channels would buy nothing but complexity.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many workers a check fans out across.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    Fixed(usize),
    /// Single-threaded: the check runs inline on the calling thread.
    #[default]
    Off,
}

/// Environment variable consulted by [`Parallelism::from_env`]; setting it to
/// `1`/`auto` forces [`Parallelism::Auto`], to `n > 1` forces
/// [`Parallelism::Fixed`]`(n)`.  Used by CI to sweep the whole test suite
/// through the parallel engine without editing every request.
pub const PARALLELISM_ENV: &str = "ILOGIC_TEST_PARALLEL";

impl Parallelism {
    /// The number of workers this setting resolves to (always ≥ 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, usize::from),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Off => 1,
        }
    }

    /// The parallelism forced by the [`PARALLELISM_ENV`] environment
    /// variable, if set: `1`, `true` or `auto` mean [`Parallelism::Auto`];
    /// any other number means [`Parallelism::Fixed`] of that many workers;
    /// `0`, `off` or `false` mean [`Parallelism::Off`]; unset or empty means
    /// no override.
    ///
    /// A set-but-unintelligible value (say `ILOGIC_TEST_PARALLEL=fuor` in a
    /// CI matrix) is treated as no override, but warns once on stderr — a
    /// typo'd parallel sweep must not silently masquerade as a sequential
    /// run.
    pub fn from_env() -> Option<Parallelism> {
        let raw = std::env::var(PARALLELISM_ENV).ok()?;
        match Parallelism::parse(&raw) {
            Ok(parallelism) => parallelism,
            Err(message) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| eprintln!("warning: {message}; ignoring the override"));
                None
            }
        }
    }

    /// Parses a [`PARALLELISM_ENV`] override value.
    ///
    /// `Ok(None)` means "no override" (empty/whitespace value); `Err` carries
    /// a human-readable description of a malformed value.
    pub fn parse(raw: &str) -> Result<Option<Parallelism>, String> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" => Ok(None),
            "1" | "true" | "auto" | "on" => Ok(Some(Parallelism::Auto)),
            "0" | "false" | "off" => Ok(Some(Parallelism::Off)),
            other => match other.parse::<usize>() {
                Ok(n) => Ok(Some(Parallelism::Fixed(n))),
                Err(_) => Err(format!(
                    "{PARALLELISM_ENV}={raw:?} is not a worker count (expected a number, \
                     `auto`, or `off`)"
                )),
            },
        }
    }
}

/// A scoped fork/join worker pool.
///
/// [`WorkerPool::run`] executes one job instance per worker index and returns
/// the results in worker order.  With a single worker the job runs inline on
/// the calling thread — `Parallelism::Off` costs nothing over a plain call.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with the worker count resolved from `parallelism`.
    pub fn new(parallelism: Parallelism) -> WorkerPool {
        WorkerPool { workers: parallelism.workers() }
    }

    /// Number of workers `run` fans out across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(worker_index)` once per worker (indices `0..workers()`),
    /// concurrently, and collects the results in worker order.
    ///
    /// The closure may borrow from the caller's stack — workers are scoped and
    /// joined before this returns.  A panicking worker propagates its panic to
    /// the caller after the remaining workers have been joined.
    pub fn run<T, F>(&self, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 {
            return vec![job(0)];
        }
        std::thread::scope(|scope| {
            let job = &job;
            let handles: Vec<_> = (0..self.workers).map(|w| scope.spawn(move || job(w))).collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    }

    /// Deterministic lowest-index-wins search over the indices `0..items`.
    /// The indices below `head` are visited first, in order, on the calling
    /// thread, so a search that answers early never pays for spawning
    /// workers; only if none of them answers does the pool fan out over the
    /// rest: worker `w` visits `head + w`, `head + w + n`, … in increasing
    /// order with a fresh `St::default()` state (a poll counter, say), the
    /// first `Some` stops that worker, an [`Earliest`] cell lets every worker
    /// stop once its next index can no longer beat the published best, and
    /// the find with the lowest index wins ([`min_find`]) — exactly the find
    /// a sequential scan of the same range would return first.
    pub fn search<St, T, Visit>(
        &self,
        items: usize,
        head: usize,
        visit: Visit,
    ) -> Option<(usize, T)>
    where
        St: Default,
        T: Send,
        Visit: Fn(&mut St, usize) -> Option<T> + Sync,
    {
        let head = if self.workers == 1 { items } else { head.min(items) };
        let mut state = St::default();
        let first = (0..head).find_map(|index| Some((index, visit(&mut state, index)?)));
        if first.is_some() || head == items {
            return first;
        }
        let earliest = Earliest::new();
        min_find(self.run(|w| {
            let mut state = St::default();
            let mut index = head + w;
            while index < items.min(earliest.bound()) {
                if let Some(witness) = visit(&mut state, index) {
                    earliest.record(index);
                    return Some((index, witness));
                }
                index += self.workers;
            }
            None
        }))
    }
}

/// The deterministic join of a sharded search: among the per-worker finds,
/// the one with the lowest index — the find a sequential sweep would have
/// produced first.  Shared by every parallel engine so the tie-break lives in
/// exactly one place.
pub fn min_find<T>(finds: impl IntoIterator<Item = Option<(usize, T)>>) -> Option<(usize, T)> {
    let mut best: Option<(usize, T)> = None;
    for find in finds.into_iter().flatten() {
        match &best {
            Some((index, _)) if *index <= find.0 => {}
            _ => best = Some(find),
        }
    }
    best
}

/// A lock-free "earliest find wins" cell for deterministic parallel search.
///
/// Shards publish the global enumeration index of each counterexample they
/// find; [`Earliest::bound`] is then an upper bound on the index any shard
/// still needs to examine.  Because the bound only ever decreases, a shard
/// that stops once its next index reaches the bound can never skip a
/// counterexample earlier than the published one — so taking the minimum over
/// all shards at join yields exactly the counterexample the sequential sweep
/// would have returned first.
#[derive(Debug, Default)]
pub struct Earliest {
    best: AtomicUsize,
}

impl Earliest {
    /// A cell with no find recorded (bound = `usize::MAX`).
    pub fn new() -> Earliest {
        Earliest { best: AtomicUsize::new(usize::MAX) }
    }

    /// Records a find at `index`, lowering the bound if it improves it.
    pub fn record(&self, index: usize) {
        self.best.fetch_min(index, Ordering::Relaxed);
    }

    /// The lowest index recorded so far (`usize::MAX` if none): enumeration
    /// indices at or above this can no longer affect the result.
    pub fn bound(&self) -> usize {
        self.best.load(Ordering::Relaxed)
    }

    /// `true` once any find has been recorded.
    pub fn found(&self) -> bool {
        self.bound() != usize::MAX
    }
}

/// Which resource of a [`ResourceBudget`] ran out first.
///
/// Carried by `Verdict::Unknown { exhausted }` (and by the budgeted engine
/// entry points as the `Err` of their `Result`s) so every backend reports a
/// cutoff the same way instead of each layer inventing its own sentinel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// The graph-node cap ([`ResourceBudget::max_nodes`]) tripped — tableau
    /// nodes, or product states of the low-level search.
    Nodes,
    /// The graph-edge cap ([`ResourceBudget::max_edges`]) tripped.
    Edges,
    /// The DNF implicant cap ([`ResourceBudget::max_implicants`]) tripped in
    /// the Appendix B §5.3 condition fixpoint.
    Implicants,
    /// The enumeration cap ([`ResourceBudget::max_enumeration`]) tripped — a
    /// bounded sweep, refutation search, or selection check stopped before
    /// examining every candidate.  Also reported for a space too large to
    /// index in a machine word at all (e.g. a bounded sweep over 64+
    /// propositions), which no cap increase can cover.
    Enumeration,
    /// The wall-clock deadline ([`ResourceBudget::with_deadline`]) passed.
    Deadline,
    /// The cancellation token ([`ResourceBudget::with_cancel`]) fired.
    Cancelled,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Exhaustion::Nodes => "node budget exhausted",
            Exhaustion::Edges => "edge budget exhausted",
            Exhaustion::Implicants => "implicant budget exhausted",
            Exhaustion::Enumeration => "enumeration budget exhausted",
            Exhaustion::Deadline => "deadline passed",
            Exhaustion::Cancelled => "cancelled",
        })
    }
}

/// A cooperative cancellation token shared by every phase of (a batch of)
/// checks.
///
/// Cloning is cheap (an [`Arc`]); every clone observes the same flag.  The
/// engines poll the token at phase boundaries — per tableau level, per
/// fixpoint sweep, every few hundred enumerated computations — so
/// cancellation is prompt but never preemptive.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token: every budget sharing it reports
    /// [`Exhaustion::Cancelled`] at its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called (on any clone).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The single resource-control surface of every checking engine.
///
/// One budget covers all cutoff dimensions that used to be scattered across
/// the layers (per-type tableau and condition-fixpoint limit structs,
/// ad-hoc refutation caps in the session): structural
/// caps (`max_nodes`/`max_edges` for graphs, `max_implicants` for condition
/// DNFs, `max_enumeration` for model sweeps) plus a wall-clock deadline and a
/// cooperative [`CancelToken`].  Whichever trips first ends the work with the
/// matching [`Exhaustion`], which the session surfaces uniformly as
/// `Verdict::Unknown { exhausted }`.
///
/// # Determinism
///
/// The structural caps are functions of the work's *content*, so budgeted
/// answers under them are bit-identical at every worker count (the same
/// discipline the PR 2/3 engines established).  The deadline and the cancel
/// token are wall-clock/timing dependent by nature: they can only turn an
/// answer into `Unknown`, never flip a settled verdict, but *which* runs are
/// cut is not reproducible.  Leave them unset (the default) where
/// reproducibility matters.
#[derive(Clone, Debug)]
pub struct ResourceBudget {
    max_nodes: usize,
    max_edges: usize,
    max_implicants: usize,
    max_enumeration: usize,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Default for ResourceBudget {
    /// The service defaults: tableau caps of 20 000 nodes / 200 000 edges
    /// and 10 000 condition implicants (the pre-unification per-layer
    /// defaults), plus 2 000 000 enumerated computations —
    /// generalizing the cap that used to apply only to the `Decide`
    /// refutation sweep to *every* enumerating backend.  Bounded/Explore
    /// checks had no cap before unification: a sweep larger than the default
    /// cap now answers `Unknown { exhausted: Enumeration }` instead of
    /// running arbitrarily long; pass [`ResourceBudget::unbounded`] (or a
    /// larger `with_max_enumeration`) to restore the old run-to-completion
    /// behaviour.  No deadline, no cancel token.
    fn default() -> ResourceBudget {
        ResourceBudget {
            max_nodes: 20_000,
            max_edges: 200_000,
            max_implicants: 10_000,
            max_enumeration: 2_000_000,
            deadline: None,
            cancel: None,
        }
    }
}

impl ResourceBudget {
    /// The default budget; see [`ResourceBudget::default`].
    pub fn new() -> ResourceBudget {
        ResourceBudget::default()
    }

    /// No caps, no deadline, no token: every engine runs to completion
    /// however long that takes.
    pub fn unbounded() -> ResourceBudget {
        ResourceBudget {
            max_nodes: usize::MAX,
            max_edges: usize::MAX,
            max_implicants: usize::MAX,
            max_enumeration: usize::MAX,
            deadline: None,
            cancel: None,
        }
    }

    /// Caps the number of graph nodes (tableau nodes; product states of the
    /// low-level search).
    pub fn with_max_nodes(mut self, max_nodes: usize) -> ResourceBudget {
        self.max_nodes = max_nodes;
        self
    }

    /// Caps the number of graph edges.
    pub fn with_max_edges(mut self, max_edges: usize) -> ResourceBudget {
        self.max_edges = max_edges;
        self
    }

    /// Caps the implicant count of any condition DNF (and the pre-absorption
    /// product estimate of any single fixpoint equation).
    pub fn with_max_implicants(mut self, max_implicants: usize) -> ResourceBudget {
        self.max_implicants = max_implicants;
        self
    }

    /// Caps the number of computations an enumerating sweep examines.
    pub fn with_max_enumeration(mut self, max_enumeration: usize) -> ResourceBudget {
        self.max_enumeration = max_enumeration;
        self
    }

    /// Sets an absolute wall-clock deadline; work still running past it is
    /// cut with [`Exhaustion::Deadline`].  Budgets sharing one deadline
    /// instant (e.g. every job of a batch) expire together.
    pub fn with_deadline(mut self, deadline: Instant) -> ResourceBudget {
        self.deadline = Some(deadline);
        self
    }

    /// [`ResourceBudget::with_deadline`] relative to now.  A timeout too
    /// large for the clock to represent means no deadline (it could never
    /// fire anyway), not a panic.
    pub fn with_timeout(mut self, timeout: Duration) -> ResourceBudget {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Attaches a cooperative cancellation token; see [`CancelToken`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> ResourceBudget {
        self.cancel = Some(cancel);
        self
    }

    /// The graph-node cap.
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// The graph-edge cap.
    pub fn max_edges(&self) -> usize {
        self.max_edges
    }

    /// The condition-DNF implicant cap.
    pub fn max_implicants(&self) -> usize {
        self.max_implicants
    }

    /// The enumeration cap.
    pub fn max_enumeration(&self) -> usize {
        self.max_enumeration
    }

    /// The wall-clock deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the timing-dependent cutoffs: [`Exhaustion::Cancelled`] if the
    /// token fired, else [`Exhaustion::Deadline`] if the deadline passed,
    /// else `None`.  The engines call this at phase boundaries — and, inside
    /// long enumerations, every [`INTERRUPT_POLL_PERIOD`] items per worker;
    /// the structural caps are checked inline by each engine.
    pub fn interrupted(&self) -> Option<Exhaustion> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(Exhaustion::Cancelled);
        }
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Some(Exhaustion::Deadline);
        }
        None
    }
}

/// How many items a worker examines between polls of a [`ResourceBudget`]'s
/// timing-dependent cutoffs inside a long enumeration (bounded-model sweeps,
/// explore-run sweeps, selection checks).  One policy for every engine:
/// polling is a couple of atomic loads plus, with a deadline set, one
/// `Instant::now()` — a few hundred evaluations apart keeps that in the
/// noise while still cutting within milliseconds of the signal.
pub const INTERRUPT_POLL_PERIOD: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_and_fixed_resolve_to_expected_worker_counts() {
        assert_eq!(Parallelism::Off.workers(), 1);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(3).workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn pool_runs_every_worker_and_keeps_order() {
        let pool = WorkerPool::new(Parallelism::Fixed(4));
        assert_eq!(pool.workers(), 4);
        let squares = pool.run(|w| w * w);
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(Parallelism::Off);
        let results = pool.run(|w| w);
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn workers_can_borrow_the_callers_stack() {
        let data: Vec<usize> = (0..100).collect();
        let pool = WorkerPool::new(Parallelism::Fixed(3));
        let sums = pool.run(|w| data.iter().skip(w).step_by(3).sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), data.iter().sum::<usize>());
    }

    #[test]
    fn search_finds_what_a_sequential_scan_finds_first() {
        let needles = [vec![], vec![0], vec![7], vec![2, 9, 31], vec![40, 41]];
        for items in [0, 1, 8, 42] {
            for needle in &needles {
                let expected = needle.iter().copied().filter(|&i| i < items).min();
                for head in [0, 3, 100] {
                    for workers in 1..=4 {
                        let pool = WorkerPool::new(Parallelism::Fixed(workers));
                        let found = pool.search(items, head, |_: &mut (), i| {
                            needle.contains(&i).then_some(i * 10)
                        });
                        assert_eq!(
                            found,
                            expected.map(|i| (i, i * 10)),
                            "{items} items, needles {needle:?}, head {head}, {workers} workers"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn search_visits_its_head_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let pool = WorkerPool::new(Parallelism::Fixed(4));
        let visited = |limit: usize| {
            move |seen: &mut usize, i: usize| {
                *seen += 1;
                assert_eq!(std::thread::current().id() == caller, i < limit, "index {i}");
                (i == 5).then_some(*seen)
            }
        };
        // A find inside the head: no worker ever starts.
        assert_eq!(pool.search(100, 8, visited(8)), Some((5, 6)));
        // A find past the head: the head's indices stay on the caller.
        assert_eq!(pool.search(100, 2, visited(2)).map(|(i, _)| i), Some(5));
    }

    #[test]
    fn earliest_keeps_the_minimum() {
        let cell = Earliest::new();
        assert!(!cell.found());
        assert_eq!(cell.bound(), usize::MAX);
        cell.record(42);
        cell.record(77);
        cell.record(7);
        assert_eq!(cell.bound(), 7);
        assert!(cell.found());
    }

    #[test]
    fn budgets_report_interruption_in_priority_order() {
        let unbounded = ResourceBudget::unbounded();
        assert_eq!(unbounded.interrupted(), None);
        assert_eq!(unbounded.max_nodes(), usize::MAX);

        let token = CancelToken::new();
        let budget = ResourceBudget::default()
            .with_timeout(Duration::from_secs(3600))
            .with_cancel(token.clone());
        assert_eq!(budget.interrupted(), None);
        token.cancel();
        assert_eq!(budget.interrupted(), Some(Exhaustion::Cancelled));
        // Every clone of the token observes the cancellation.
        assert!(budget.cancel_token().expect("token attached").is_cancelled());

        let expired = ResourceBudget::default().with_timeout(Duration::ZERO);
        assert_eq!(expired.interrupted(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn budget_builders_set_every_cap() {
        let budget = ResourceBudget::new()
            .with_max_nodes(1)
            .with_max_edges(2)
            .with_max_implicants(3)
            .with_max_enumeration(4);
        assert_eq!(
            (
                budget.max_nodes(),
                budget.max_edges(),
                budget.max_implicants(),
                budget.max_enumeration()
            ),
            (1, 2, 3, 4)
        );
        assert!(budget.deadline().is_none());
        assert!(budget.cancel_token().is_none());
    }

    #[test]
    fn parallelism_parse_accepts_the_documented_forms() {
        assert_eq!(Parallelism::parse(""), Ok(None));
        assert_eq!(Parallelism::parse("  "), Ok(None));
        assert_eq!(Parallelism::parse("1"), Ok(Some(Parallelism::Auto)));
        assert_eq!(Parallelism::parse("true"), Ok(Some(Parallelism::Auto)));
        assert_eq!(Parallelism::parse("AUTO"), Ok(Some(Parallelism::Auto)));
        assert_eq!(Parallelism::parse("on"), Ok(Some(Parallelism::Auto)));
        assert_eq!(Parallelism::parse("0"), Ok(Some(Parallelism::Off)));
        assert_eq!(Parallelism::parse("off"), Ok(Some(Parallelism::Off)));
        assert_eq!(Parallelism::parse("false"), Ok(Some(Parallelism::Off)));
        assert_eq!(Parallelism::parse(" 4 "), Ok(Some(Parallelism::Fixed(4))));
        assert_eq!(Parallelism::parse("16"), Ok(Some(Parallelism::Fixed(16))));
    }

    #[test]
    fn parallelism_parse_rejects_malformed_values() {
        for bad in ["fuor", "4.0", "-2", "yes please", "auto2"] {
            let err = Parallelism::parse(bad).expect_err("should reject");
            assert!(err.contains(PARALLELISM_ENV), "error must name the variable: {err}");
            assert!(err.contains(bad.trim()), "error must echo the value: {err}");
        }
    }

    #[test]
    fn earliest_is_deterministic_under_concurrent_records() {
        let cell = Earliest::new();
        let pool = WorkerPool::new(Parallelism::Fixed(4));
        pool.run(|w| {
            for i in (w..1000).step_by(4) {
                cell.record(i);
            }
        });
        assert_eq!(cell.bound(), 0);
    }
}
