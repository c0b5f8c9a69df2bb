//! Exhaustive bounded-model validity checking.
//!
//! The interval logic is decidable (the report proves PSPACE membership via the
//! reduction of Appendix C), but the full decision procedure is of substantial
//! complexity.  For confirming the valid-formula catalogue of Chapter 4,
//! refuting non-theorems, and cross-checking the other engines of this
//! repository, an exhaustive search over *all* computations up to a bounded
//! length (over a finite proposition alphabet, with both stutter and lasso
//! extensions) is simple, exact for refutation, and strong evidence for
//! validity.
//!
//! A counterexample returned by [`BoundedChecker::counterexample`] is a genuine
//! counterexample to validity; absence of a counterexample up to the bound is
//! reported by [`BoundedChecker::valid_up_to_bound`].
//!
//! # Sharding
//!
//! The enumeration order is fixed and assigns every computation a *global
//! index* (`0..model_count()`).  [`BoundedChecker::shard`] carves the
//! enumeration into `n` interleaved slices — shard `i` yields exactly the
//! computations whose global index is `≡ i (mod n)` — so `n` workers sweep
//! disjoint slices of the same search space.  Combined with the
//! lowest-global-index-wins cancellation of [`crate::pool::Earliest`],
//! [`BoundedChecker::counterexample_parallel`] returns *bit-identical*
//! verdicts to the sequential sweep: the same `Option<Trace>`, the very same
//! counterexample.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::arena::{ArenaRead, FormulaArena, FormulaId, MemoEvaluator, MemoStats};
use crate::pool::{
    Earliest, Exhaustion, Parallelism, ResourceBudget, WorkerPool, INTERRUPT_POLL_PERIOD,
};
use crate::semantics::Evaluator;
use crate::state::{Prop, State};
use crate::syntax::Formula;
use crate::trace::{Extension, Trace};

/// Exhaustive enumerator of small computations over a finite proposition alphabet.
#[derive(Clone, Debug)]
pub struct BoundedChecker {
    /// The alphabet's propositions, built once: bit `i` of a letter asserts
    /// `props[i]`.
    props: Vec<Prop>,
    max_len: usize,
    include_lassos: bool,
}

impl BoundedChecker {
    /// Creates a checker over the given proposition names and maximum trace length.
    pub fn new<I, S>(props: I, max_len: usize) -> BoundedChecker
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        BoundedChecker {
            props: props.into_iter().map(Prop::plain).collect(),
            max_len: max_len.max(1),
            include_lassos: true,
        }
    }

    /// Disables the enumeration of lasso (ultimately periodic) extensions,
    /// keeping only stutter-extended finite computations.
    pub fn without_lassos(mut self) -> BoundedChecker {
        self.include_lassos = false;
        self
    }

    /// The number of computations that will be enumerated, saturating at
    /// `usize::MAX` — a space too large to count is, for every caller
    /// (budget truncation checks, refutation-bound selection), equivalent to
    /// one larger than any cap.
    pub fn model_count(&self) -> usize {
        model_count(self.props.len(), self.max_len, self.include_lassos)
    }

    /// Calls `f` for every enumerated computation until it returns `false`;
    /// returns `true` if `f` accepted every computation.  The trace handed
    /// to `f` is a reused buffer (see [`TraceShard::for_each_trace`]): clone
    /// it to keep it past the call.
    pub fn for_each_trace(&self, mut f: impl FnMut(&Trace) -> bool) -> bool {
        self.shard(0, 1).for_each_trace(|_, trace| f(trace))
    }

    /// The `index`-th of `count` interleaved slices of the enumeration: the
    /// shard yields exactly the computations whose global enumeration index is
    /// `≡ index (mod count)`, in increasing index order, lassos included.
    ///
    /// `count` shards together cover the full enumeration exactly once, so
    /// `count` workers each sweeping one shard perform the same search as one
    /// sequential sweep.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    pub fn shard(&self, index: usize, count: usize) -> TraceShard<'_> {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        TraceShard { checker: self, index, count, start: 0 }
    }

    fn state_of(&self, bits: usize) -> State {
        let mut state = State::new();
        for (i, prop) in self.props.iter().enumerate() {
            if bits & (1 << i) != 0 {
                state.insert(prop.clone());
            }
        }
        state
    }

    /// Searches for a computation (within the bound) that falsifies `formula`.
    ///
    /// The formula is interned into a fresh [`FormulaArena`] and evaluated
    /// with the memoized arena evaluator; to amortize interning over many
    /// queries, intern once and use
    /// [`BoundedChecker::counterexample_interned`].
    pub fn counterexample(&self, formula: &Formula) -> Option<Trace> {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        self.counterexample_interned(&arena, id)
    }

    /// Searches for a counterexample to an already interned formula.
    pub fn counterexample_interned(
        &self,
        arena: &FormulaArena,
        formula: FormulaId,
    ) -> Option<Trace> {
        let mut memo = MemoEvaluator::new(arena);
        let mut found = None;
        self.for_each_trace(|trace| {
            if !memo.check(trace, formula) {
                found = Some(trace.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// [`BoundedChecker::counterexample`] over the boxed AST without interning
    /// or memoization: an independent reference, which `perfbench`'s answer
    /// verification uses to re-check `Holds` and `ValidUpTo` verdicts.
    /// Prefer the default path.
    pub fn counterexample_boxed(&self, formula: &Formula) -> Option<Trace> {
        let mut found = None;
        self.for_each_trace(|trace| {
            if !Evaluator::new(trace).check(formula) {
                found = Some(trace.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// `true` if no computation within the bound falsifies `formula`.
    pub fn valid_up_to_bound(&self, formula: &Formula) -> bool {
        self.counterexample(formula).is_none()
    }

    /// `true` if no computation within the bound falsifies the interned formula.
    pub fn valid_up_to_bound_interned(&self, arena: &FormulaArena, formula: FormulaId) -> bool {
        self.counterexample_interned(arena, formula).is_none()
    }

    /// Searches for a computation (within the bound) that satisfies `formula`.
    pub fn witness(&self, formula: &Formula) -> Option<Trace> {
        self.counterexample(&formula.clone().not())
    }

    /// Sharded parallel counterexample search: the first few hundred
    /// computations (the head) are checked on the calling thread, and only
    /// if none of them fails, and at least some 8 000 remain, do
    /// `parallelism` workers sweep disjoint interleaved slices of the rest
    /// (a smaller sweep runs whole on the calling thread), each with a private
    /// [`MemoEvaluator`] over `arena` (typically an
    /// [`crate::arena::ArenaSnapshot`]), with early-exit cancellation once a
    /// counterexample is found.  A typical refutation fails within the head,
    /// and smaller full sweeps lost at two workers, so neither pays for
    /// spawning workers.
    ///
    /// The verdict is **bit-identical** to the sequential sweep: among all
    /// counterexamples found, the one with the lowest global enumeration index
    /// — exactly the computation [`BoundedChecker::counterexample_interned`]
    /// would return — wins.  The statistics are the sequential sweep's too:
    /// workers may examine computations above the winning index before the
    /// cancellation signal reaches them, but only the computations at or
    /// below it are counted, and a memoized check's counters depend on its
    /// computation alone.
    pub fn sweep_parallel<A>(
        &self,
        arena: &A,
        formula: FormulaId,
        domain: Option<&[crate::value::Value]>,
        parallelism: Parallelism,
    ) -> ParallelSweep
    where
        A: ArenaRead + Sync,
    {
        self.sweep_budgeted(arena, formula, domain, parallelism, &ResourceBudget::unbounded())
    }

    /// [`BoundedChecker::sweep_parallel`] under a [`ResourceBudget`]: only
    /// computations with global enumeration index below
    /// `budget.max_enumeration()` are examined, and the deadline/cancellation
    /// cutoffs are polled every few hundred computations per worker.
    ///
    /// The enumeration cap is deterministic — the swept prefix is the same at
    /// every worker count, so verdicts under it stay bit-identical to the
    /// capped sequential sweep.  When the cap truncates the enumeration (and
    /// no counterexample was found below it), [`ParallelSweep::exhausted`]
    /// reports [`Exhaustion::Enumeration`]; a deadline or cancellation cut is
    /// reported the same way but is inherently timing-dependent.
    ///
    /// The lowest-index-wins guarantee survives timing cuts: a counterexample
    /// is only reported when every interrupted worker had already examined
    /// all of its shard's indices *below* the find — otherwise an earlier
    /// counterexample might sit in the unexamined gap, so the sweep reports
    /// the interruption instead of a possibly-non-minimal find.
    pub fn sweep_budgeted<A>(
        &self,
        arena: &A,
        formula: FormulaId,
        domain: Option<&[crate::value::Value]>,
        parallelism: Parallelism,
        budget: &ResourceBudget,
    ) -> ParallelSweep
    where
        A: ArenaRead + Sync,
    {
        let pool = WorkerPool::new(parallelism);
        self.sweep_fanning(arena, formula, domain, pool, FanOut::MEASURED, budget)
    }

    /// [`BoundedChecker::sweep_budgeted`] with the point at which it fans
    /// out given explicitly (tests drive small sweeps onto the pool).
    fn sweep_fanning<A>(
        &self,
        arena: &A,
        formula: FormulaId,
        domain: Option<&[crate::value::Value]>,
        pool: WorkerPool,
        fan_out: FanOut,
        budget: &ResourceBudget,
    ) -> ParallelSweep
    where
        A: ArenaRead + Sync,
    {
        let workers = pool.workers();
        if self.props.len() >= usize::BITS as usize {
            // The alphabet itself cannot be indexed in a machine word — the
            // enumeration machinery (bit-pattern words, global indices) does
            // not extend to such spaces, so the sweep truncates immediately
            // instead of overflowing.
            return ParallelSweep {
                counterexample: None,
                traces_checked: 0,
                memo: MemoStats::default(),
                workers: 1,
                exhausted: Some(Exhaustion::Enumeration),
            };
        }
        let earliest = Earliest::new();
        let cap = budget.max_enumeration();
        // One worker's part: the computations of `shard` below `end`, until
        // one fails, a lower find makes the rest moot or a timing cut fires.
        // Several fan-out workers can run past the winning index, by amounts
        // that depend on timing; each (`progress` holds every worker's cell
        // and its own index) then logs its counters after every check so the
        // join can count only the checks at or below the winner.  Every find
        // lies at or above the lowest index some worker has yet to pass
        // (`passed[v]` is worker `v`'s next unexamined index while its checks
        // hold), so the log entries below that floor collapse into the last
        // of them and a log only spans the workers' spread.
        let sweep_shard = |shard: TraceShard<'_>,
                           end: usize,
                           progress: Option<(&[AtomicUsize], usize)>| {
            let mut memo = MemoEvaluator::new(arena);
            if let Some(domain) = domain {
                memo = memo.with_domain(domain.to_vec());
            }
            let mut part = ShardPart {
                found: None,
                checked: 0,
                memo: MemoStats::default(),
                interrupt: None,
                log: progress.map(|_| Vec::new()),
            };
            shard.for_each_trace(|global, trace| {
                if global >= end || global >= earliest.bound() || global >= cap {
                    return false;
                }
                if part.checked.is_multiple_of(INTERRUPT_POLL_PERIOD) {
                    if let Some(cut) = budget.interrupted() {
                        part.interrupt = Some((cut, global));
                        return false;
                    }
                    if let (Some((passed, _)), Some(log)) = (progress, &mut part.log) {
                        let floor =
                            passed.iter().fold(usize::MAX, |f, p| f.min(p.load(Ordering::Relaxed)));
                        let settled = log.partition_point(|&(i, ..)| i < floor);
                        log.drain(..settled.saturating_sub(1));
                    }
                }
                part.checked += 1;
                let holds = memo.check(trace, formula);
                if let Some(log) = &mut part.log {
                    log.push((global, part.checked, memo.stats()));
                }
                if holds {
                    if let Some((passed, w)) = progress {
                        passed[w].store(global + shard.count, Ordering::Relaxed);
                    }
                    true
                } else {
                    earliest.record(global);
                    part.found = Some((global, trace.clone()));
                    false
                }
            });
            part.memo = memo.stats();
            part
        };
        // The head: the calling thread checks the first `fan_out.head`
        // computations, or all of them when there is one worker or too few
        // would remain to pay for the pool, and the pool fans out over the
        // rest only if the head settles nothing.
        let end = cap.min(self.model_count());
        let head = if workers == 1 || end.saturating_sub(fan_out.head) < fan_out.min_rest {
            usize::MAX
        } else {
            fan_out.head
        };
        let mut parts = vec![sweep_shard(self.shard(0, 1), head, None)];
        let settled = parts[0].found.is_some() || parts[0].interrupt.is_some() || head >= end;
        if !settled {
            let passed: Vec<AtomicUsize> =
                (0..workers).map(|w| AtomicUsize::new(head + w)).collect();
            parts.extend(pool.run(|w| {
                let shard = TraceShard {
                    checker: self,
                    index: (head + w) % workers,
                    count: workers,
                    start: head,
                };
                sweep_shard(shard, usize::MAX, Some((&passed, w)))
            }));
        }
        let mut sweep = ParallelSweep {
            counterexample: None,
            traces_checked: 0,
            memo: MemoStats::default(),
            workers: if settled { 1 } else { workers },
            exhausted: None,
        };
        let mut interrupted: Option<Exhaustion> = None;
        // Lowest index any interrupted worker left unexamined: finds at or
        // above it cannot be proven minimal.
        let mut unexamined_floor = usize::MAX;
        for part in &parts {
            if let Some((cut, stopped_at)) = part.interrupt {
                interrupted = interrupted.or(Some(cut));
                unexamined_floor = unexamined_floor.min(stopped_at);
            }
        }
        sweep.counterexample =
            crate::pool::min_find(parts.iter_mut().map(|part| part.found.take()))
                .filter(|(index, _)| *index < unexamined_floor);
        let winner = sweep.counterexample.as_ref().map_or(usize::MAX, |(index, _)| *index);
        for part in parts {
            let (checked, stats) = match part.log {
                // A fan-out worker's checks are in ascending index order.
                Some(log) => log
                    .iter()
                    .rev()
                    .find(|&&(global, ..)| global <= winner)
                    .map_or((0, MemoStats::default()), |&(_, checked, stats)| (checked, stats)),
                // The head lies below every fan-out index: all of it counts.
                None => (part.checked, part.memo),
            };
            sweep.traces_checked += checked;
            sweep.memo.merge(stats);
        }
        if sweep.counterexample.is_none() {
            // The deterministic cut (enumeration cap, a pure function of the
            // checker and the budget) takes precedence over the
            // timing-dependent ones so repeated runs agree whenever they can.
            let truncated = cap < self.model_count();
            sweep.exhausted = truncated.then_some(Exhaustion::Enumeration).or(interrupted);
        }
        sweep
    }

    /// [`BoundedChecker::counterexample`] fanned across a worker pool; the
    /// returned counterexample is identical to the sequential one.
    pub fn counterexample_parallel(
        &self,
        arena: &FormulaArena,
        formula: FormulaId,
        parallelism: Parallelism,
    ) -> Option<Trace> {
        let snapshot = arena.snapshot();
        self.sweep_parallel(&snapshot, formula, None, parallelism)
            .counterexample
            .map(|(_, trace)| trace)
    }
}

/// The number of computations a [`BoundedChecker`] over `props` propositions
/// and lengths `1..=max_len` enumerates (with or without lassos), saturating
/// at `usize::MAX`.  Like [`BoundedChecker::new`], it reads a `max_len` of 0
/// as 1.
pub(crate) fn model_count(props: usize, max_len: usize, lassos: bool) -> usize {
    let Some(alphabet) = u32::try_from(props).ok().and_then(|p| 1usize.checked_shl(p)) else {
        return usize::MAX;
    };
    let mut total = 0usize;
    for len in 1..=max_len.max(1) {
        let Some(words) = alphabet.checked_pow(len as u32) else {
            return usize::MAX;
        };
        let extensions = if lassos { 1 + len } else { 1 };
        total = total.saturating_add(words.saturating_mul(extensions));
    }
    total
}

/// The merged outcome of a [`BoundedChecker::sweep_parallel`] /
/// [`BoundedChecker::sweep_budgeted`] search.
#[derive(Clone, Debug)]
pub struct ParallelSweep {
    /// The counterexample with the lowest global enumeration index, if any —
    /// the same computation the sequential sweep returns first.
    pub counterexample: Option<(usize, Trace)>,
    /// Computations evaluated across all workers; with a counterexample,
    /// only those at or below its index.
    pub traces_checked: usize,
    /// Per-worker memoization counters of the checks counted in
    /// `traces_checked`, merged at join.
    pub memo: MemoStats,
    /// Number of workers that swept: the pool's size when the sweep fanned
    /// out, and 1 when it never left the calling thread — it settled in its
    /// head (the first few hundred computations), or fewer than some 8 000
    /// computations remained after it, or the pool has one worker.
    pub workers: usize,
    /// `Some` when the sweep ended because a [`ResourceBudget`] resource ran
    /// out *before* the enumeration was exhausted (and no counterexample was
    /// found below the cut): absence of a counterexample is then inconclusive
    /// rather than bounded-validity evidence.
    pub exhausted: Option<Exhaustion>,
}

/// When a multi-worker [`BoundedChecker::sweep_budgeted`] fans out: it
/// checks its first `head` computations on the calling thread, and shards
/// the rest across the pool only if the head settles nothing and at least
/// `min_rest` computations remain.
#[derive(Clone, Copy, Debug)]
struct FanOut {
    head: usize,
    min_rest: usize,
}

impl FanOut {
    /// The measured grain (the fan-out table in `ARCHITECTURE.md`).  A
    /// typical refutation fails within a few dozen computations, where
    /// spawning workers costs more than the whole sweep, and a few hundred
    /// checks cost about as much as the spawn.  A full sweep of fewer than
    /// about 8 000 computations lost at two workers (0.43x at 312, 0.78x at
    /// 2 256, 1.06x at 7 736) and paid above (1.24x at 17 184, 1.34x at
    /// 22 736).  Since the enumeration reuses its trace buffer, the sweeps
    /// above the grain still pay (1.32x at 17 184, 1.41x at 22 736, 1.53x at
    /// 344 864).
    const MEASURED: FanOut = FanOut { head: 256, min_rest: 8192 };
}

/// One worker's share of a [`BoundedChecker::sweep_budgeted`] sweep.
struct ShardPart {
    /// Its failing computation, if any (the lowest of its shard).
    found: Option<(usize, Trace)>,
    /// The computations it checked and the memo counters of those checks.
    checked: usize,
    memo: MemoStats,
    /// A timing cut, with the first global index it did NOT examine because
    /// of it.
    interrupt: Option<(Exhaustion, usize)>,
    /// For a fan-out worker, `(global index, checks so far, memo counters)`
    /// after each check.
    log: Option<Vec<(usize, usize, MemoStats)>>,
}

/// One interleaved slice of a [`BoundedChecker`] enumeration; see
/// [`BoundedChecker::shard`].
#[derive(Clone, Copy, Debug)]
pub struct TraceShard<'a> {
    checker: &'a BoundedChecker,
    index: usize,
    count: usize,
    /// No computation below this global index is yielded.
    start: usize,
}

impl TraceShard<'_> {
    /// Whether the computation at global index `at` belongs to this shard.
    fn yields(&self, at: usize) -> bool {
        at >= self.start && at % self.count == self.index
    }

    /// Calls `f(global_index, trace)` for every computation in this shard, in
    /// increasing global-index order, until `f` returns `false`; returns
    /// `true` if `f` accepted every computation of the shard.
    ///
    /// The `&Trace` handed to `f` is one buffer per length, reused for every
    /// computation of that length: it is valid only for the duration of the
    /// call, so clone it to keep it.  The enumeration walks the same
    /// mixed-radix word order as the sequential sweep; when the shard selects
    /// at least one extension of a word, the buffer rebuilds only the
    /// positions whose letter changed since the last selected word (about one
    /// state per word) and then switches its extension in place from the
    /// stutter to each lasso.  Skipping a foreign word costs nothing, and a
    /// selected one compares one letter per position.
    pub fn for_each_trace(&self, mut f: impl FnMut(usize, &Trace) -> bool) -> bool {
        let checker = self.checker;
        let alphabet = 1usize << checker.props.len();
        // Extensions enumerated per word: the stutter extension plus (with
        // lassos) one lasso per loop start.
        let mut global = 0usize;
        for len in 1..=checker.max_len {
            let block = if checker.include_lassos { 1 + len } else { 1 };
            let mut word = vec![0usize; len];
            // The buffer starts at the all-empty word (letter 0, no
            // proposition); `held[pos]` is the letter it holds at `pos`.
            let mut buffer = Trace::finite(vec![State::new(); len]);
            let mut held = vec![0usize; len];
            loop {
                // Does this word's block contain any index of the shard?
                let selected = (0..block).any(|k| self.yields(global + k));
                if selected {
                    for (pos, (&letter, held)) in word.iter().zip(&mut held).enumerate() {
                        if *held != letter {
                            buffer.set_state(pos, checker.state_of(letter));
                            *held = letter;
                        }
                    }
                    if self.yields(global) {
                        buffer.set_extension(Extension::Stutter);
                        if !f(global, &buffer) {
                            return false;
                        }
                    }
                    if checker.include_lassos {
                        for loop_start in 0..len {
                            let at = global + 1 + loop_start;
                            if self.yields(at) {
                                buffer.set_extension(Extension::Loop(loop_start));
                                if !f(at, &buffer) {
                                    return false;
                                }
                            }
                        }
                    }
                }
                global += block;
                // Advance the word (mixed-radix counter).
                let mut pos = 0;
                loop {
                    if pos == len {
                        break;
                    }
                    word[pos] += 1;
                    if word[pos] < alphabet {
                        break;
                    }
                    word[pos] = 0;
                    pos += 1;
                }
                if pos == len {
                    break;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn tautologies_have_no_counterexample() {
        let checker = BoundedChecker::new(["P"], 3);
        assert!(checker.valid_up_to_bound(&prop("P").or(prop("P").not())));
        assert!(checker.valid_up_to_bound(&Formula::True));
    }

    #[test]
    fn contingent_formulas_are_refuted() {
        let checker = BoundedChecker::new(["P"], 3);
        let cex = checker.counterexample(&prop("P")).expect("P is not valid");
        assert!(!Evaluator::new(&cex).check(&prop("P")));
        assert!(checker.counterexample(&eventually(prop("P"))).is_some());
    }

    #[test]
    fn witnesses_are_found_for_satisfiable_formulas() {
        let checker = BoundedChecker::new(["P", "Q"], 3);
        let w = checker
            .witness(&occurs(event(prop("P"))).and(always(prop("Q").not())))
            .expect("satisfiable");
        let ev = Evaluator::new(&w);
        assert!(ev.check(&occurs(event(prop("P")))));
    }

    #[test]
    fn lassos_matter_for_infinitary_properties() {
        // □◇P ∧ ◇□¬P is unsatisfiable; but □◇P alone needs a lasso witness
        // in which P keeps recurring without holding in the final state forever.
        let with_lassos = BoundedChecker::new(["P"], 3);
        let without = BoundedChecker::new(["P"], 3).without_lassos();
        let recurring_not_stable =
            always(eventually(prop("P"))).and(eventually(always(prop("P"))).not());
        assert!(with_lassos.witness(&recurring_not_stable).is_some());
        assert!(without.witness(&recurring_not_stable).is_none());
    }

    #[test]
    fn model_count_matches_enumeration() {
        let checker = BoundedChecker::new(["P"], 2);
        let mut seen = 0usize;
        checker.for_each_trace(|_| {
            seen += 1;
            true
        });
        assert_eq!(seen, checker.model_count());
    }

    /// The computation at global index `index` of the enumeration over
    /// `props`, built from scratch: lengths ascend, words count in mixed
    /// radix with position 0 least significant, and each word yields its
    /// stutter extension and then (with lassos) one lasso per loop start.
    fn decode(props: &[&str], lassos: bool, mut index: usize) -> Trace {
        let alphabet = 1usize << props.len();
        for len in 1.. {
            let block = if lassos { 1 + len } else { 1 };
            let size = alphabet.pow(len as u32) * block;
            if index >= size {
                index -= size;
                continue;
            }
            let (mut word, extension) = (index / block, index % block);
            let states = (0..len)
                .map(|_| {
                    let letter = word % alphabet;
                    word /= alphabet;
                    props
                        .iter()
                        .enumerate()
                        .filter(|&(bit, _)| letter & (1 << bit) != 0)
                        .fold(State::new(), |state, (_, &name)| state.with(name))
                })
                .collect();
            return match extension {
                0 => Trace::finite(states),
                k => Trace::lasso(states, k - 1),
            };
        }
        unreachable!("lengths are unbounded")
    }

    #[test]
    fn every_enumeration_matches_the_index_decoder() {
        // The enumeration reuses one buffer per length, so a stale position
        // or extension would show here as a trace differing from the one
        // built from scratch for its index.
        let names = ["P", "Q", "R"];
        for (props, max_len, lassos) in (1..=3)
            .flat_map(|p| (1..=4).map(move |len| (p, len)))
            .flat_map(|(p, len)| [true, false].map(|lassos| (&names[..p], len, lassos)))
        {
            let mut checker = BoundedChecker::new(props.iter().copied(), max_len);
            if !lassos {
                checker = checker.without_lassos();
            }
            let case = format!("{props:?} up to {max_len}, lassos {lassos}");
            let total = checker.model_count();
            let reference: Vec<Trace> = (0..total).map(|i| decode(props, lassos, i)).collect();
            let mut sequential = Vec::new();
            checker.for_each_trace(|trace| {
                sequential.push(trace.clone());
                true
            });
            assert!(sequential == reference, "for_each_trace differs from the decoder: {case}");
            // Every shard yields exactly its indices' computations, in
            // increasing order; together they cover the enumeration once.
            for count in 1..=4 {
                for index in 0..count {
                    let mut expected = (index..total).step_by(count);
                    checker.shard(index, count).for_each_trace(|global, trace| {
                        assert_eq!(Some(global), expected.next(), "shard {index}/{count}: {case}");
                        assert!(trace == &reference[global], "index {global}: {case}");
                        true
                    });
                    assert_eq!(expected.next(), None, "shard {index}/{count} stops short: {case}");
                }
                // The shards of a fan-out past a head of `start`
                // computations, worker `w` starting at `start + w`.
                let start = 5.min(total);
                for w in 0..count {
                    let shard =
                        TraceShard { checker: &checker, index: (start + w) % count, count, start };
                    let mut expected = (start + w..total).step_by(count);
                    shard.for_each_trace(|global, trace| {
                        assert_eq!(Some(global), expected.next(), "worker {w}/{count}: {case}");
                        assert!(trace == &reference[global], "index {global}: {case}");
                        true
                    });
                    assert_eq!(expected.next(), None, "worker {w}/{count} stops short: {case}");
                }
            }
        }
    }

    #[test]
    fn parallel_counterexamples_are_bit_identical_to_sequential() {
        use crate::pool::Parallelism;
        let small = BoundedChecker::new(["P", "Q"], 3);
        // Refuted only by three distinct states in order, the earliest
        // after thousands of computations: past several interrupt-poll
        // periods of every worker.
        let exactly = |on: &[&str]| {
            ["P", "Q", "R", "S"].iter().fold(Formula::True, |f, &p| {
                f.and(if on.contains(&p) { prop(p) } else { not(prop(p)) })
            })
        };
        let late = not(eventually(
            exactly(&["S"]).and(eventually(exactly(&["R"]).and(eventually(exactly(&["R", "S"]))))),
        ));
        let cases = [
            (small.clone(), prop("P")),
            (small.clone(), eventually(prop("P"))),
            (small.clone(), prop("P").or(prop("P").not())),
            (small.clone(), always(eventually(prop("P"))).implies(eventually(always(prop("P"))))),
            (
                small,
                occurs(event(prop("Q"))).not().implies(Formula::False.within(event(prop("Q")))),
            ),
            (BoundedChecker::new(["P", "Q", "R", "S"], 3), late),
        ];
        for (checker, formula) in &cases {
            let mut arena = FormulaArena::new();
            let id = arena.intern(formula);
            let sequential = checker.counterexample_interned(&arena, id);
            let snapshot = arena.snapshot();
            let swept = checker.sweep_parallel(&snapshot, id, None, Parallelism::Off);
            for workers in 1..=4 {
                let parallel =
                    checker.counterexample_parallel(&arena, id, Parallelism::Fixed(workers));
                assert_eq!(
                    parallel, sequential,
                    "parallel({workers}) and sequential verdicts differ on {formula}"
                );
                // The counters count the same checks as the sequential sweep,
                // however far the workers ran past the winner.
                let sharded =
                    checker.sweep_parallel(&snapshot, id, None, Parallelism::Fixed(workers));
                assert_eq!(
                    (sharded.traces_checked, sharded.memo),
                    (swept.traces_checked, swept.memo),
                    "parallel({workers}) and sequential counters differ on {formula}"
                );
                // Driven onto the pool from the first computation, or past a
                // three-computation head, however small the sweep.
                for fan_out in [FanOut { head: 0, min_rest: 0 }, FanOut { head: 3, min_rest: 0 }] {
                    let forced = checker.sweep_fanning(
                        &snapshot,
                        id,
                        None,
                        WorkerPool::new(Parallelism::Fixed(workers)),
                        fan_out,
                        &ResourceBudget::unbounded(),
                    );
                    assert_eq!(
                        forced.counterexample.map(|(_, trace)| trace),
                        sequential,
                        "{fan_out:?} at {workers} workers differs on {formula}"
                    );
                    assert_eq!(
                        (forced.traces_checked, forced.memo),
                        (swept.traces_checked, swept.memo),
                        "{fan_out:?} at {workers} workers counts differently on {formula}"
                    );
                }
            }
        }
    }

    #[test]
    fn model_count_saturates_instead_of_overflowing() {
        // 16 propositions at length 4: (2^16)^4 = 2^64 words — the count
        // saturates instead of overflowing, and a budgeted sweep over the
        // space truncates cleanly under its enumeration cap.
        let wide = BoundedChecker::new((0..16).map(|i| format!("P{i}")), 4);
        assert_eq!(wide.model_count(), usize::MAX);
        // Even the alphabet itself can be too wide to count; its sweep
        // truncates up front instead of overflowing the word arithmetic.
        let wider = BoundedChecker::new((0..70).map(|i| format!("P{i}")), 1);
        assert_eq!(wider.model_count(), usize::MAX);
        {
            let mut arena = FormulaArena::new();
            let id = arena.intern(&prop("P0"));
            let sweep = wider.sweep_budgeted(
                &arena,
                id,
                None,
                crate::pool::Parallelism::Off,
                &ResourceBudget::default(),
            );
            assert_eq!(sweep.counterexample, None);
            assert_eq!(sweep.exhausted, Some(Exhaustion::Enumeration));
            assert_eq!(sweep.traces_checked, 0);
        }
        let mut arena = FormulaArena::new();
        let id = arena.intern(&prop("P0").or(prop("P0").not()));
        let capped = ResourceBudget::unbounded().with_max_enumeration(10);
        let sweep = wide.sweep_budgeted(&arena, id, None, crate::pool::Parallelism::Off, &capped);
        assert_eq!(sweep.counterexample, None);
        assert_eq!(sweep.exhausted, Some(Exhaustion::Enumeration));
        assert_eq!(sweep.traces_checked, 10);
    }

    #[test]
    fn budgeted_sweeps_cut_deterministically() {
        use crate::pool::{CancelToken, Parallelism};
        let checker = BoundedChecker::new(["P"], 2);
        let mut arena = FormulaArena::new();
        let not_p = prop("P").not();
        let id = arena.intern(&not_p);
        // The first counterexample of ¬P sits at global index 2 (the first
        // word with P asserted).
        let full = checker.sweep_parallel(&arena, id, None, Parallelism::Off);
        assert_eq!(full.counterexample.as_ref().map(|(i, _)| *i), Some(2));
        assert_eq!(full.exhausted, None);
        // At the measured grain this sweep stays on the calling thread; the
        // forced fan-out shards it from the first computation.
        let fan_outs = [FanOut::MEASURED, FanOut { head: 0, min_rest: 0 }];
        for (workers, fan_out) in (1..=4).flat_map(|w| fan_outs.map(|f| (w, f))) {
            let pool = WorkerPool::new(Parallelism::Fixed(workers));
            let sweep = |budget: &ResourceBudget| {
                checker.sweep_fanning(&arena, id, None, pool, fan_out, budget)
            };
            // A cap below the counterexample index truncates: no
            // counterexample, exhaustion reported — identically at every
            // worker count.
            let capped = ResourceBudget::unbounded().with_max_enumeration(2);
            let cut = sweep(&capped);
            assert_eq!(cut.counterexample, None, "workers={workers} {fan_out:?}");
            assert_eq!(cut.exhausted, Some(Exhaustion::Enumeration), "workers={workers}");
            assert!(cut.traces_checked <= 2, "workers={workers} {fan_out:?}");
            // A cap above it finds the very same counterexample.
            let enough = ResourceBudget::unbounded().with_max_enumeration(3);
            let found = sweep(&enough);
            assert_eq!(found.counterexample, full.counterexample, "workers={workers} {fan_out:?}");
            assert_eq!(found.exhausted, None, "workers={workers} {fan_out:?}");
        }
        // A pre-cancelled token stops the sweep before anything is examined.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        let cut = checker.sweep_budgeted(&arena, id, None, Parallelism::Off, &cancelled);
        assert_eq!(cut.counterexample, None);
        assert_eq!(cut.exhausted, Some(Exhaustion::Cancelled));
        assert_eq!(cut.traces_checked, 0);
    }

    #[test]
    fn vacuity_of_unconstructible_intervals_is_confirmed() {
        // ¬*I ⊃ [I]α is valid: check the instance with I = event Q, α = false.
        let checker = BoundedChecker::new(["P", "Q"], 3);
        let f = occurs(event(prop("Q"))).not().implies(Formula::False.within(event(prop("Q"))));
        assert!(checker.valid_up_to_bound(&f));
    }
}
