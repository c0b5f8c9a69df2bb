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
//! # Enumeration order and blocks
//!
//! The enumeration order is fixed and assigns every computation a *global
//! index* (`0..model_count()`): lengths ascend; within a length, words count
//! in mixed radix with position 0 least significant; each word yields its
//! stutter extension and then (with lassos) one lasso per loop start.
//!
//! Every sweep ([`BoundedChecker::sweep_budgeted`] and the entry points
//! built on it) evaluates the words of one length in *blocks* of 64
//! consecutive words, one bit of a `u64` truth mask per word: one pass of
//! the word-parallel evaluator checks one extension of all the block's
//! words at once.  The failing computation reported is the one with the
//! lowest global index, as a scan in enumeration order would find it, and
//! it is built as a [`Trace`] only once it is known.  Because every
//! computation below it is checked, the count of checked computations is
//! arithmetic: the winner's index plus one, or the size of the (capped)
//! enumeration when nothing fails.
//!
//! # Sharding
//!
//! A large sweep can fan out: past a head checked on the calling thread,
//! worker `w` of `n` takes every `n`-th of the remaining blocks.  Combined
//! with the lowest-global-index-wins cancellation of
//! [`crate::pool::Earliest`], [`BoundedChecker::sweep_budgeted`] returns
//! *bit-identical* verdicts at every worker count: the same
//! `Option<Trace>`, the very same counterexample.

use crate::arena::{
    ArenaRead, BlockEvaluator, FormulaArena, FormulaId, MemoStats, MemoTables, LANES,
};
use crate::pool::{Earliest, Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::semantics::Evaluator;
use crate::state::{Prop, State};
use crate::syntax::Formula;
use crate::trace::{Extension, Trace};
use crate::value::Value;

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

    /// Calls `f` for every enumerated computation, in global-index order,
    /// until it returns `false`; returns `true` if `f` accepted every
    /// computation.
    ///
    /// The `&Trace` handed to `f` is one buffer per length, reused for every
    /// computation of that length: it is valid only for the duration of the
    /// call, so clone it to keep it.  For each word the buffer rebuilds only
    /// the positions whose letter changed since the previous word (about one
    /// state per word), then switches its extension in place from the
    /// stutter to each lasso.  This is the per-computation enumeration
    /// behind [`BoundedChecker::counterexample_boxed`]; the sweeps evaluate
    /// whole blocks of words instead (see the module docs).
    pub fn for_each_trace(&self, mut f: impl FnMut(&Trace) -> bool) -> bool {
        let alphabet = 1usize << self.props.len();
        for len in 1..=self.max_len {
            let mut word = vec![0usize; len];
            // The buffer starts at the all-empty word (letter 0, no
            // proposition); `held[pos]` is the letter it holds at `pos`.
            let mut buffer = Trace::finite(vec![State::new(); len]);
            let mut held = vec![0usize; len];
            loop {
                for (pos, (&letter, held)) in word.iter().zip(&mut held).enumerate() {
                    if *held != letter {
                        buffer.set_state(pos, self.state_of(letter));
                        *held = letter;
                    }
                }
                buffer.set_extension(Extension::Stutter);
                if !f(&buffer) {
                    return false;
                }
                if self.include_lassos {
                    for loop_start in 0..len {
                        buffer.set_extension(Extension::Loop(loop_start));
                        if !f(&buffer) {
                            return false;
                        }
                    }
                }
                // Advance the word (mixed-radix counter); it wraps to the
                // all-empty word after the last one.
                let advanced = word.iter_mut().any(|letter| {
                    *letter = (*letter + 1) % alphabet;
                    *letter != 0
                });
                if !advanced {
                    break;
                }
            }
        }
        true
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

    /// The blocks of the enumeration, in global-index order.
    fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        let alphabet = 1usize << self.props.len();
        let mut base = 0usize;
        (1..=self.max_len).flat_map(move |len| {
            let words = u32::try_from(len)
                .ok()
                .and_then(|len| alphabet.checked_pow(len))
                .unwrap_or(usize::MAX);
            let extensions = if self.include_lassos { 1 + len } else { 1 };
            let first = base;
            base = base.saturating_add(words.saturating_mul(extensions));
            (0..words.div_ceil(LANES)).map(move |block| {
                let first_word = block * LANES;
                Block {
                    len,
                    first_word,
                    words: (words - first_word).min(LANES),
                    extensions,
                    first_index: first.saturating_add(first_word.saturating_mul(extensions)),
                }
            })
        })
    }

    /// The computation at `at`, built from scratch.
    fn computation(&self, at: Coordinates) -> Trace {
        let width = self.props.len() as u32;
        let letters = (0..at.len as u32).map(|pos| {
            let letter = at.word.checked_shr(width * pos).unwrap_or(0);
            self.state_of(letter & ((1 << width) - 1))
        });
        match at.extension {
            0 => Trace::finite(letters.collect()),
            k => Trace::lasso(letters.collect(), k - 1),
        }
    }

    /// Checks every extension of `block` whose computation lies below
    /// `cap`: the global index and coordinates of the block's lowest failing
    /// computation, if any, and the number of computations evaluated.
    ///
    /// Extensions are evaluated in order, stutter first; once lane `j`
    /// fails, later extensions evaluate only the lanes below `j`, the only
    /// ones that can still fail at a lower index.
    fn sweep_block<A: ArenaRead>(
        &self,
        evaluator: &mut BlockEvaluator<'_, A>,
        block: Block,
        formula: FormulaId,
        cap: usize,
    ) -> (Option<(usize, Coordinates)>, usize) {
        let width = self.props.len();
        evaluator.load(block.len, |pos, prop| lanes_with_bit(block.first_word, width * pos + prop));
        let mut best: Option<(usize, usize)> = None;
        let mut evaluated = 0;
        for extension in 0..block.extensions {
            // Lane `j` is computation `first_index + j * extensions + extension`.
            let below_cap = cap
                .saturating_sub(block.first_index.saturating_add(extension))
                .div_ceil(block.extensions);
            let lanes = best.map_or(block.words, |(lane, _)| lane).min(below_cap);
            if lanes == 0 {
                continue;
            }
            evaluated += lanes;
            let kind = match extension {
                0 => Extension::Stutter,
                k => Extension::Loop(k - 1),
            };
            let live = u64::MAX >> (LANES - lanes);
            let failing = evaluator.failing(formula, kind, live);
            if failing != 0 {
                best = Some((failing.trailing_zeros() as usize, extension));
            }
        }
        let find = best.map(|(lane, extension)| {
            let index = block.first_index + lane * block.extensions + extension;
            (index, Coordinates { len: block.len, word: block.first_word + lane, extension })
        });
        (find, evaluated)
    }

    /// Searches for a computation (within the bound) that falsifies `formula`
    /// (a satisfying computation of `φ` is a counterexample to `¬φ`).
    ///
    /// The formula is interned into a fresh [`FormulaArena`] and swept on the
    /// calling thread with the word-parallel evaluator; to amortize interning
    /// over many queries, or to fan out or budget the sweep, intern once and
    /// call [`BoundedChecker::sweep_budgeted`].
    pub fn counterexample(&self, formula: &Formula) -> Option<Trace> {
        let mut arena = FormulaArena::new();
        let id = arena.intern(formula);
        self.sweep_budgeted(&arena, id, None, Parallelism::Off, &ResourceBudget::unbounded())
            .counterexample
            .map(|(_, trace)| trace)
    }

    /// [`BoundedChecker::counterexample`] one computation at a time over the
    /// boxed AST, without interning, memoization or word-parallel passes:
    /// an independent reference, which `perfbench`'s answer verification
    /// uses to re-check `Holds` and `ValidUpTo` verdicts.  Prefer the
    /// default path.
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

    /// The bounded sweep: checks the enumeration block by block (see the
    /// module docs) and returns the counterexample with the lowest global
    /// index.  The first few hundred computations (the head) are checked on
    /// the calling thread, and only if none of them fails, and at least
    /// some 65 000 remain, do `parallelism` workers sweep disjoint
    /// interleaved sets of the remaining blocks (a smaller sweep runs whole
    /// on the calling thread), each with a private evaluator over `arena`
    /// (typically an [`crate::arena::ArenaSnapshot`]), with early-exit
    /// cancellation once a counterexample is found.  A typical refutation
    /// fails within the head, so it never pays for spawning workers.
    ///
    /// The verdict is **bit-identical** to the sequential sweep: among all
    /// counterexamples found, the one with the lowest global enumeration
    /// index — exactly the computation the sweep at [`Parallelism::Off`]
    /// returns — wins.  The statistics are the sequential sweep's too:
    /// `traces_checked` is arithmetic (see [`ParallelSweep::traces_checked`]),
    /// and the memo counters count the blocks up to the winner's, whose
    /// passes do not depend on any other block.
    ///
    /// Only computations with global enumeration index below
    /// `budget.max_enumeration()` are examined, and the deadline/cancellation
    /// cutoffs are polled before each block
    /// ([`ResourceBudget::unbounded`] sweeps the whole enumeration).  The
    /// enumeration cap is deterministic — the swept prefix is the same at
    /// every worker count, so verdicts under it stay bit-identical to the
    /// capped sequential sweep.  When the cap truncates the enumeration (and
    /// no counterexample was found below it), [`ParallelSweep::exhausted`]
    /// reports [`Exhaustion::Enumeration`]; a deadline or cancellation cut is
    /// reported the same way but is inherently timing-dependent.
    ///
    /// The lowest-index-wins guarantee survives timing cuts: a counterexample
    /// is only reported when every interrupted worker had already examined
    /// all of its blocks *below* the find — otherwise an earlier
    /// counterexample might sit in the unexamined gap, so the sweep reports
    /// the interruption instead of a possibly-non-minimal find.
    pub fn sweep_budgeted<A>(
        &self,
        arena: &A,
        formula: FormulaId,
        domain: Option<&[Value]>,
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
        domain: Option<&[Value]>,
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
        // One worker's part: its blocks in increasing order, until one
        // fails, a lower find makes the rest moot or a timing cut fires.  A
        // fan-out worker can pass the winning block by an amount that
        // depends on timing, so it logs its counters after each block and
        // the join counts only the blocks up to the winner's.
        let sweep_part = |blocks: &mut dyn Iterator<Item = Block>, fanned: bool| {
            let mut tables = MemoTables::default();
            let mut evaluator = BlockEvaluator::new(arena, &mut tables, &self.props, domain);
            let mut part = ShardPart::default();
            for block in blocks {
                if block.first_index >= cap.min(earliest.bound()) {
                    break;
                }
                if let Some(cut) = budget.interrupted() {
                    part.interrupt = Some((cut, block.first_index));
                    break;
                }
                let (find, evaluated) = self.sweep_block(&mut evaluator, block, formula, cap);
                part.evaluated += evaluated;
                if fanned {
                    part.log.push((block.first_index, evaluator.stats()));
                }
                if let Some((index, _)) = find {
                    earliest.record(index);
                    part.found = find;
                    break;
                }
            }
            part.memo = evaluator.stats();
            part
        };
        // The head: the calling thread checks the blocks starting below
        // `fan_out.head`, or all of them when there is one worker or too
        // few would remain to pay for the pool, and the pool fans out over
        // the rest only if the head settles nothing.
        let end = cap.min(self.model_count());
        let head = if workers == 1 || end.saturating_sub(fan_out.head) < fan_out.min_rest {
            usize::MAX
        } else {
            fan_out.head
        };
        let first = sweep_part(&mut self.blocks().take_while(|b| b.first_index < head), false);
        let settled = first.found.is_some() || first.interrupt.is_some() || head >= end;
        let fanned = if settled {
            Vec::new()
        } else {
            pool.run(|w| {
                let rest = self.blocks().skip_while(|b| b.first_index < head);
                sweep_part(&mut rest.skip(w).step_by(workers), true)
            })
        };
        let parts = || std::iter::once(&first).chain(&fanned);
        // Lowest index any interrupted worker left unexamined: finds at or
        // above it cannot be proven minimal.
        let mut interrupted: Option<Exhaustion> = None;
        let mut unexamined_floor = usize::MAX;
        for part in parts() {
            if let Some((cut, stopped_at)) = part.interrupt {
                interrupted = interrupted.or(Some(cut));
                unexamined_floor = unexamined_floor.min(stopped_at);
            }
        }
        let winner = crate::pool::min_find(parts().map(|part| part.found))
            .filter(|(index, _)| *index < unexamined_floor);
        let last = winner.map_or(usize::MAX, |(index, _)| index);
        let mut memo = MemoStats::default();
        for part in parts() {
            memo.merge(if part.log.is_empty() {
                // The head, which lies below every fan-out block, or a
                // worker that swept nothing: all of it counts.
                part.memo
            } else {
                // A fan-out worker's blocks are in ascending index order.
                part.log
                    .iter()
                    .rev()
                    .find(|&&(first, _)| first <= last)
                    .map_or(MemoStats::default(), |&(_, stats)| stats)
            });
        }
        let exhausted = match winner {
            Some(_) => None,
            // The deterministic cut (enumeration cap, a pure function of the
            // checker and the budget) takes precedence over the
            // timing-dependent ones so repeated runs agree whenever they can.
            None => (cap < self.model_count()).then_some(Exhaustion::Enumeration).or(interrupted),
        };
        ParallelSweep {
            counterexample: winner.map(|(index, at)| (index, self.computation(at))),
            traces_checked: winner
                .map_or_else(|| parts().map(|part| part.evaluated).sum(), |(index, _)| index + 1),
            memo,
            workers: if settled { 1 } else { workers },
            exhausted,
        }
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

/// The lanes of a block starting at word `first_word` (a multiple of
/// [`LANES`]) whose word has bit `bit` set: lane `j` is word
/// `first_word + j`, so the low six bits are those of `j` and the others
/// those of `first_word`.
fn lanes_with_bit(first_word: usize, bit: usize) -> u64 {
    const LOW_BITS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match LOW_BITS.get(bit) {
        Some(&lanes) => lanes,
        None if first_word.checked_shr(bit as u32).unwrap_or(0) & 1 != 0 => u64::MAX,
        None => 0,
    }
}

/// Up to [`LANES`] consecutive words of one length, swept together: lane
/// `j` is word `first_word + j`, and its computations are the global indices
/// `first_index + j * extensions + e` for `e` in `0..extensions`.
#[derive(Clone, Copy, Debug)]
struct Block {
    len: usize,
    first_word: usize,
    words: usize,
    extensions: usize,
    first_index: usize,
}

/// A computation by its place in the enumeration: the word of `len`
/// letters and the extension (0 is the stutter, `k + 1` the lasso back to
/// position `k`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Coordinates {
    len: usize,
    word: usize,
    extension: usize,
}

/// The merged outcome of a [`BoundedChecker::sweep_budgeted`] search.
#[derive(Clone, Debug)]
pub struct ParallelSweep {
    /// The counterexample with the lowest global enumeration index, if any —
    /// the same computation the sequential sweep returns first.
    pub counterexample: Option<(usize, Trace)>,
    /// The computations checked: with a counterexample, its index plus one
    /// (every computation below it is checked, none above it counts);
    /// without one, the computations evaluated — the whole enumeration, or
    /// the part below the enumeration cap, unless a timing cut stopped the
    /// sweep.
    pub traces_checked: usize,
    /// Memo-table probes of the word-parallel passes over the blocks up to
    /// the counterexample's (all of them without one), merged at join.
    pub memo: MemoStats,
    /// Number of workers that swept: the pool's size when the sweep fanned
    /// out, and 1 when it never left the calling thread — it settled in its
    /// head (the first few hundred computations), or fewer than some 65 000
    /// computations remained after it, or the pool has one worker.
    pub workers: usize,
    /// `Some` when the sweep ended because a [`ResourceBudget`] resource ran
    /// out *before* the enumeration was exhausted (and no counterexample was
    /// found below the cut): absence of a counterexample is then inconclusive
    /// rather than bounded-validity evidence.
    pub exhausted: Option<Exhaustion>,
}

/// When a multi-worker [`BoundedChecker::sweep_budgeted`] fans out: it
/// checks the blocks starting within its first `head` computations on the
/// calling thread, and shards the rest across the pool only if the head
/// settles nothing and at least `min_rest` computations remain.
#[derive(Clone, Copy, Debug)]
struct FanOut {
    head: usize,
    min_rest: usize,
}

impl FanOut {
    /// The measured grain (the fan-out table in `ARCHITECTURE.md`).  A
    /// typical refutation fails within a few dozen computations, where
    /// spawning workers costs more than the whole sweep.  The word-parallel
    /// sweep checks about 90 computations per microsecond, so spawning two
    /// workers weighs as much as some 7 000 computations: with the fan-out
    /// forced past the head, full sweeps ran at 0.06x–0.77x from 312 to
    /// 17 184 computations and 1.04x–1.26x at 22 736–36 408, and paid
    /// 1.51x at 134 208, 1.59x at 219 344 and 1.76x at 344 864.
    const MEASURED: FanOut = FanOut { head: 256, min_rest: 65_536 };
}

/// One worker's share of a [`BoundedChecker::sweep_budgeted`] sweep.
#[derive(Default)]
struct ShardPart {
    /// Its failing computation, if any (the lowest of its blocks).
    found: Option<(usize, Coordinates)>,
    /// The computations it evaluated and the memo counters of its passes.
    evaluated: usize,
    memo: MemoStats,
    /// A timing cut, with the first global index it did NOT examine because
    /// of it.
    interrupt: Option<(Exhaustion, usize)>,
    /// For a fan-out worker, `(first index, memo counters so far)` after
    /// each block.
    log: Vec<(usize, MemoStats)>,
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
            .counterexample(&occurs(event(prop("P"))).and(always(prop("Q").not())).not())
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
        let refuted = recurring_not_stable.not();
        assert!(with_lassos.counterexample(&refuted).is_some());
        assert!(without.counterexample(&refuted).is_none());
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
        // built from scratch for its index.  The blocks must tile the same
        // indices, and their lane masks must assert what the decoder's
        // states assert.
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
            let mut next = 0;
            for block in checker.blocks() {
                assert_eq!(block.first_index, next, "blocks leave a gap: {case}");
                for (lane, extension) in
                    (0..block.words).flat_map(|lane| (0..block.extensions).map(move |e| (lane, e)))
                {
                    let word = block.first_word + lane;
                    let at = Coordinates { len: block.len, word, extension };
                    assert!(checker.computation(at) == reference[next], "index {next}: {case}");
                    for (pos, state) in reference[next].states().iter().enumerate() {
                        for (bit, &name) in props.iter().enumerate() {
                            let lanes = lanes_with_bit(block.first_word, props.len() * pos + bit);
                            assert_eq!(
                                lanes >> lane & 1 == 1,
                                state.holds(&Prop::plain(name)),
                                "lane {lane} of index {next}, {name} at {pos}: {case}"
                            );
                        }
                    }
                    next += 1;
                }
            }
            assert_eq!(next, total, "blocks stop short: {case}");
        }
    }

    #[test]
    fn every_lane_of_every_pass_matches_a_per_computation_check() {
        // A formula rarely fails first in a block's last lanes, so the
        // sweeps' answers alone could miss a lane the masks drop or misread.
        // Every pass's whole failing mask, and every block's lowest failure,
        // are compared with the boxed evaluator on each computation.
        let (p, q, r) = (prop("P"), prop("Q"), prop("R"));
        let formulas = [
            // Fails only on the words asserting everything everywhere: the
            // last lane of a block.
            not(always(p.clone().and(q.clone()).and(r.clone()))),
            always(q.clone().or(p.clone())).within(end(fwd_to(event(q.clone())))),
            eventually(p.clone()).within(fwd_to(event(q.clone()))),
            always(p.clone()).within(must(begin(fwd(event(p.clone()), event(q.clone()))))),
            eventually(r.clone()).within(bwd(event(p.clone()), event(q.clone()))),
            // The last rise of `R`, undefined where it recurs in a loop.
            eventually(q.clone()).within(bwd_from(event(r.clone()))),
            occurs(event(p.clone().and(q.clone()))).implies(eventually(r.clone())),
            always(eventually(p.clone())).implies(eventually(always(p))),
        ];
        for (props, depth) in [(&["P", "Q", "R"][..], 3), (&["P", "Q"][..], 4)] {
            let checker = BoundedChecker::new(props.iter().copied(), depth);
            for formula in &formulas {
                let mut arena = FormulaArena::new();
                let id = arena.intern(formula);
                let mut holds = Vec::new();
                checker.for_each_trace(|trace| {
                    holds.push(Evaluator::new(trace).check(formula));
                    true
                });
                let mut tables = MemoTables::default();
                let mut evaluator = BlockEvaluator::new(&arena, &mut tables, &checker.props, None);
                for block in checker.blocks() {
                    let index =
                        |lane: usize, e: usize| block.first_index + lane * block.extensions + e;
                    evaluator.load(block.len, |pos, prop| {
                        lanes_with_bit(block.first_word, props.len() * pos + prop)
                    });
                    for e in 0..block.extensions {
                        let kind = if e == 0 { Extension::Stutter } else { Extension::Loop(e - 1) };
                        let live = u64::MAX >> (LANES - block.words);
                        let expected = (0..block.words)
                            .filter(|&lane| !holds[index(lane, e)])
                            .fold(0u64, |lanes, lane| lanes | 1 << lane);
                        assert_eq!(
                            evaluator.failing(id, kind, live),
                            expected,
                            "{formula} over {props:?}, block at {}, extension {e}",
                            block.first_index
                        );
                    }
                    let lowest = (0..block.words)
                        .flat_map(|lane| (0..block.extensions).map(move |e| index(lane, e)))
                        .find(|&at| !holds[at]);
                    let (found, _) = checker.sweep_block(&mut evaluator, block, id, usize::MAX);
                    assert_eq!(
                        found.map(|(at, _)| at),
                        lowest,
                        "{formula} over {props:?}, block at {}",
                        block.first_index
                    );
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
            let sequential = checker.counterexample(formula);
            let snapshot = arena.snapshot();
            let unbounded = ResourceBudget::unbounded();
            let swept = checker.sweep_budgeted(&snapshot, id, None, Parallelism::Off, &unbounded);
            assert_eq!(swept.counterexample.as_ref().map(|(_, trace)| trace), sequential.as_ref());
            for workers in 1..=4 {
                let sharded = checker.sweep_budgeted(
                    &snapshot,
                    id,
                    None,
                    Parallelism::Fixed(workers),
                    &unbounded,
                );
                assert_eq!(
                    sharded.counterexample.as_ref().map(|(_, trace)| trace),
                    sequential.as_ref(),
                    "parallel({workers}) and sequential verdicts differ on {formula}"
                );
                // The counters count the same checks as the sequential sweep,
                // however far the workers ran past the winner.
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
                        &unbounded,
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
        let full = checker.sweep_budgeted(
            &arena,
            id,
            None,
            Parallelism::Off,
            &ResourceBudget::unbounded(),
        );
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
