//! A scoped worker pool for the sharded checking engines.
//!
//! The bounded validity search is a conjunction over independently enumerable
//! computations, explore-mode checking is independent per run, spec checking
//! is independent per clause, tableau pruning is independent per literal
//! conjunction and per eventuality, and the Appendix B §5.3 condition
//! fixpoint evaluates a sweep of equations from one frozen snapshot — all
//! embarrassingly parallel.  This module provides the (deliberately small)
//! machinery those parallel paths share.  It lives in `ilogic-temporal`, the
//! lowest crate of the workspace, so that every layer — [`crate::tableau`]
//! and [`crate::algorithm_b`] here,
//! `ilogic_core::session` / `ilogic_core::bounded` (which re-export this
//! module as `ilogic_core::pool`, the path most callers use),
//! `ilogic_lowlevel::decide`, and `ilogic_systems::explore` — fans out over
//! the same machinery:
//!
//! * [`Parallelism`] — the user-facing knob ([`Parallelism::Auto`] /
//!   [`Parallelism::Fixed`] / [`Parallelism::Off`]), with an environment
//!   override (`ILOGIC_TEST_PARALLEL`) so whole test suites can be swept onto
//!   the pool without touching call sites;
//! * [`WorkerPool`] — a scoped fork/join pool over [`std::thread`].  Workers
//!   borrow from the caller's stack (arena snapshots, traces, models), run one
//!   closure per worker index, and are joined before `run` returns, so there
//!   is no lifetime laundering and no idle thread kept around;
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
//! workers per call.  The checks this repository runs are coarse (milliseconds
//! to minutes per shard), so thread spawn cost is noise; a persistent pool
//! with channels would buy nothing but complexity.

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
        self.run_over(vec![(); self.workers], |w, _| job(w))
            .into_iter()
            .map(|(result, ())| result)
            .collect()
    }

    /// Ordered parallel map: evaluates `f(0..count)` with the indices striped
    /// across the workers (worker `w` takes `w`, `w + n`, …) and returns the
    /// results in index order — the canonical "stripe and merge" idiom shared
    /// by the tableau level expander, the condition-fixpoint sweeps, and the
    /// low-level pipeline's deletion masks.
    ///
    /// `f` must be a pure function of the index (every caller here passes
    /// one), which makes the output — element for element — identical to the
    /// sequential `(0..count).map(f)` at any worker count.
    ///
    /// Small batches run inline: below [`MAP_INLINE_PER_WORKER`] items per
    /// worker the per-call `std::thread` spawn/join (~tens of µs) would
    /// dominate fine-grained work, and iterated callers (fixpoint sweeps run
    /// hundreds of times) would pay it every call.  Inline and striped
    /// evaluation produce the same vector, so the cutover is invisible to
    /// callers.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || count < self.workers * MAP_INLINE_PER_WORKER {
            return (0..count).map(f).collect();
        }
        let striped =
            self.run(|w| (w..count).step_by(self.workers).map(|i| (i, f(i))).collect::<Vec<_>>());
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (i, result) in striped.into_iter().flatten() {
            results[i] = Some(result);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("stripes cover every index exactly once"))
            .collect()
    }

    /// [`WorkerPool::map`] over a *sparse* index set: evaluates `f(i)` for
    /// each `i` in `indices` (striped across the workers by list position)
    /// and returns the results in list order — the fan-out primitive of the
    /// semi-naive condition fixpoint, whose per-round ready set is a small,
    /// changing subset of the equation universe.
    ///
    /// Like [`WorkerPool::map`], `f` must be a pure function of the index, so
    /// the output is — element for element — identical to the sequential
    /// `indices.iter().map(|&i| f(i))` at any worker count, and small ready
    /// sets run inline under the same [`MAP_INLINE_PER_WORKER`] threshold.
    pub fn map_indexed<T, F>(&self, indices: &[usize], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || indices.len() < self.workers * MAP_INLINE_PER_WORKER {
            return indices.iter().map(|&i| f(i)).collect();
        }
        let striped = self.run(|w| {
            (w..indices.len())
                .step_by(self.workers)
                .map(|pos| (pos, f(indices[pos])))
                .collect::<Vec<_>>()
        });
        let mut results: Vec<Option<T>> = (0..indices.len()).map(|_| None).collect();
        for (pos, result) in striped.into_iter().flatten() {
            results[pos] = Some(result);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("stripes cover every position exactly once"))
            .collect()
    }

    /// Deterministic lowest-index-wins search over the indices
    /// `offset .. offset + items`: worker `w` visits `offset + w`,
    /// `offset + w + n`, … in increasing order, mutating its entry of
    /// `states`; the first `Some` stops that worker, an [`Earliest`] cell
    /// lets every worker stop once its next index can no longer beat the
    /// published best, and the find with the lowest index wins
    /// ([`min_find`]) — exactly the find a sequential scan of the same range
    /// would return first.
    ///
    /// `states` must hold one entry per worker; it is moved in and handed
    /// back (in worker order) so callers searching in rounds — e.g. batches
    /// pulled from a lazy producer — keep per-worker caches and allocations
    /// alive across calls.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != self.workers()`.
    pub fn search<St, T, Visit>(
        &self,
        items: usize,
        offset: usize,
        states: Vec<St>,
        visit: Visit,
    ) -> (Option<(usize, T)>, Vec<St>)
    where
        St: Send,
        T: Send,
        Visit: Fn(&mut St, usize) -> Option<T> + Sync,
    {
        assert_eq!(states.len(), self.workers, "one worker state per worker");
        let earliest = Earliest::new();
        let results = self.run_over(states, |w, state| {
            let mut found = None;
            let mut index = offset + w;
            while index < offset + items {
                if index >= earliest.bound() {
                    break;
                }
                if let Some(witness) = visit(state, index) {
                    earliest.record(index);
                    found = Some((index, witness));
                    break;
                }
                index += self.workers;
            }
            found
        });
        let mut finds = Vec::with_capacity(results.len());
        let mut states = Vec::with_capacity(results.len());
        for (found, state) in results {
            finds.push(found);
            states.push(state);
        }
        (min_find(finds), states)
    }

    /// [`WorkerPool::run`] with owned per-worker state: worker `w` receives
    /// `&mut states[w]`, and each state is handed back alongside the job's
    /// result in worker order.
    fn run_over<St, T, F>(&self, mut states: Vec<St>, job: F) -> Vec<(T, St)>
    where
        St: Send,
        T: Send,
        F: Fn(usize, &mut St) -> T + Sync,
    {
        if self.workers == 1 {
            let mut state = states.pop().expect("one worker state per worker");
            let result = job(0, &mut state);
            return vec![(result, state)];
        }
        std::thread::scope(|scope| {
            let job = &job;
            let handles: Vec<_> = states
                .into_iter()
                .enumerate()
                .map(|(w, mut state)| {
                    scope.spawn(move || {
                        let result = job(w, &mut state);
                        (result, state)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    }
}

/// Minimum items *per worker* below which [`WorkerPool::map`] runs inline
/// instead of spawning scoped threads.  The work this repository maps is
/// coarse (tableau node expansions, DNF fixpoint equations, per-edge theory
/// checks on big graphs), so a small multiple of the worker count is enough
/// to keep spawn/join cost in the noise while still fanning out every batch
/// that can plausibly profit.
pub const MAP_INLINE_PER_WORKER: usize = 4;

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
    fn map_preserves_index_order_on_both_paths() {
        let pool = WorkerPool::new(Parallelism::Fixed(3));
        // Below the inline threshold (runs sequentially)…
        let small: Vec<usize> = pool.map(5, |i| i * 10);
        assert_eq!(small, vec![0, 10, 20, 30, 40]);
        // …and above it (striped across workers): same contract.
        let threshold = 3 * MAP_INLINE_PER_WORKER;
        let big: Vec<usize> = pool.map(threshold + 7, |i| i * i);
        assert_eq!(big, (0..threshold + 7).map(|i| i * i).collect::<Vec<_>>());
        // Zero items is a no-op on any pool.
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn map_indexed_preserves_list_order_on_both_paths() {
        let pool = WorkerPool::new(Parallelism::Fixed(3));
        // A sparse, unsorted index set below the inline threshold…
        let small = [7usize, 2, 9];
        assert_eq!(pool.map_indexed(&small, |i| i * 10), vec![70, 20, 90]);
        // …and one above it (striped): same contract, list order kept.
        let big: Vec<usize> = (0..3 * MAP_INLINE_PER_WORKER + 5).map(|i| i * 3 + 1).collect();
        assert_eq!(
            pool.map_indexed(&big, |i| i + 1),
            big.iter().map(|&i| i + 1).collect::<Vec<_>>()
        );
        // The empty ready set is a no-op on any pool.
        assert_eq!(pool.map_indexed(&[], |i| i), Vec::<usize>::new());
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
