//! The interned-implicant condition store.
//!
//! The Appendix B §5.3 condition fixpoint manipulates monotone DNFs whose
//! implicants overlap massively: every `fail`/`delete` equation of a sweep
//! re-conjoins the same `□¬prop(e)` terms, consecutive Jacobi sweeps differ in
//! a handful of equations, and absorption keeps collapsing products back onto
//! a small set of minimal implicants.  The naive
//! `BTreeSet<BTreeSet<usize>>` representation (see [`super::Dnf`]) pays for
//! that overlap on every operation — deep clones of every atom set, an O(n²)
//! absorption rebuild per product, and a full structural comparison per
//! convergence test.  On the nested weak-until translations of interval
//! formulas (`[ => Q ] []P`, ROADMAP's measured blowup) those constants turn a
//! moderate-sized fixpoint into one that does not terminate in hours.
//!
//! A [`ConditionStore`] removes the duplication instead of re-paying it,
//! following the same hash-consing discipline as the PR 1 formula arena:
//!
//! * **Implicants are interned**: each distinct sorted atom set is stored
//!   once and handled as a `Copy` [`ImplicantId`].
//! * **DNFs are interned**: each distinct antichain of implicant ids is a
//!   [`DnfId`], so the fixpoint's convergence test ("did this equation
//!   change?") is an integer comparison instead of a structural one.
//! * **Products are memoized**: `∧`/`∨` results are cached per `(DnfId,
//!   DnfId)` pair, so re-evaluating an equation whose inputs did not change
//!   since the last round costs a handful of hash lookups — and the PR 7
//!   worklist engine goes one step further and never re-visits such an
//!   equation at all (see [`StoreStats::equations_skipped`]).
//! * **Absorption is incremental and pre-interning**: products stream
//!   through a bitset antichain builder — implicants as flat bitsets over the atom
//!   universe, subsumption a few early-exiting word comparisons, candidates
//!   that absorption discards never allocated, interned, or charged; there
//!   is no quadratic all-pairs rebuild and no pre-absorption
//!   materialization.  Structural shortcuts (row collapse, per-row residual
//!   minimization — see [`ConditionStore::and`]) keep the common fixpoint
//!   products far below their nominal pair counts.
//! * **Budgets charge distinct implicants**: every *newly interned* implicant
//!   charges one unit to the shared [`DnfBudget`] cell
//!   ([`DnfBudget::charge`]).  Re-deriving an implicant the computation has
//!   already seen is free, so the budget measures the size of the condition
//!   space actually retained — not the pre-absorption product estimate the
//!   PR 2 budget had to cut on (which tripped even when absorption would have
//!   collapsed the product to a handful of implicants).
//!
//! # Concurrency
//!
//! The store is a plain single-writer structure, and the fixpoint that owns
//! it runs on the calling thread: each round evaluates its ready set — under
//! the worklist engine only the equations whose inputs changed since
//! their last evaluation, under a full (Jacobi) sweep all of them — in task
//! order.  An equation with unchanged inputs would have replayed entirely
//! from the memo tables, so the store contents — ids, memo tables, and the
//! distinct-implicant budget charge — are identical whether or not the
//! unchanged equations were skipped.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use super::{Dnf, DnfBudget};

/// An interned implicant: a distinct sorted set of edge atoms, stored once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImplicantId(u32);

/// An interned monotone DNF: a distinct antichain of [`ImplicantId`]s.
///
/// Because interning is canonical, two conditions are semantically equal iff
/// their `DnfId`s are equal — the O(1) comparison the fixpoint convergence
/// test runs thousands of times per decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnfId(u32);

/// The empty implicant (the conjunction of no atoms, i.e. `true`), pre-seeded
/// in every store.
const EMPTY_IMPLICANT: ImplicantId = ImplicantId(0);

impl ConditionStore {
    /// The condition `false` (no implicants), pre-seeded in every store.
    pub const BOTTOM: DnfId = DnfId(0);
    /// The condition `true` (the empty implicant alone), pre-seeded in every
    /// store.
    pub const TOP: DnfId = DnfId(1);
}

/// Counters describing how much sharing a [`ConditionStore`] achieved.
///
/// Surfaced per decision through `Condition::store_stats` and — session-side —
/// through `CheckStats::condition` / the `Session` cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct implicants interned (the quantity the [`DnfBudget`] charges;
    /// seeds excluded).  Monotone over the store's lifetime, so this is also
    /// the peak distinct-implicant count of the computation.
    pub interned_implicants: usize,
    /// Distinct DNFs (antichains) interned, seeds excluded.
    pub interned_dnfs: usize,
    /// `∧`/`∨` products answered from the `(DnfId, DnfId)` memo tables
    /// (identity shortcuts such as `x ∧ ⊤ = x` are not counted).
    pub memo_hits: u64,
    /// `∧`/`∨` products that had to be computed (and were then memoized).
    pub memo_misses: u64,
    /// Widest antichain interned: the largest implicant count of any single
    /// condition DNF the computation produced.
    pub peak_dnf_width: usize,
    /// Fixpoint rounds run: every worklist round of the §5.3 iteration,
    /// `fail` and `delete` phases both counted.  The evaluated Boolean
    /// fixpoint reports its rounds here too (with zero interning counters),
    /// and the naive baseline reports its full-sweep rounds so differential
    /// tests can compare convergence.
    pub rounds: u64,
    /// Equations actually evaluated across all rounds.  The semi-naive
    /// worklist evaluates only equations whose inputs changed since their
    /// last evaluation; the baseline's full (Jacobi) sweeps evaluate
    /// `rounds × equations`.
    pub equations_evaluated: u64,
    /// Equations *skipped* by the worklist: per round, the equations of the
    /// active phase whose inputs did not change and which a full sweep would
    /// have re-evaluated (from memo) anyway.  Zero for baseline runs — the
    /// worklist tests assert it is strictly positive on ladder3.
    pub equations_skipped: u64,
}

impl StoreStats {
    /// Accumulates `other` into `self`: counts add, the peak takes the max.
    /// Used by the session to keep cumulative counters across checks.
    pub fn merge(&mut self, other: StoreStats) {
        self.interned_implicants += other.interned_implicants;
        self.interned_dnfs += other.interned_dnfs;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.peak_dnf_width = self.peak_dnf_width.max(other.peak_dnf_width);
        self.rounds += other.rounds;
        self.equations_evaluated += other.equations_evaluated;
        self.equations_skipped += other.equations_skipped;
    }
}

impl std::ops::AddAssign for StoreStats {
    fn add_assign(&mut self, other: StoreStats) {
        self.merge(other);
    }
}

/// A multiply-xor hasher (FxHash-style) for the store's id-keyed memo maps
/// and the tableau's hash-consed closure terms — the same trade the core
/// arena makes: these keys are tiny `Copy` values hit on every product,
/// where SipHash's DoS resistance buys nothing.
#[derive(Clone, Copy, Default)]
pub(crate) struct StoreHasher {
    hash: u64,
}

impl StoreHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for StoreHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub(crate) type StoreMap<K, V> = HashMap<K, V, BuildHasherDefault<StoreHasher>>;

/// The interned implicant/DNF arena; see the [module documentation](self).
#[derive(Debug, Default)]
pub struct ConditionStore {
    /// Id → sorted atom list.  Slot 0 is the empty implicant.
    implicants: Vec<Box<[u32]>>,
    implicant_lookup: StoreMap<Box<[u32]>, ImplicantId>,
    /// Id → antichain, as an id-sorted implicant list.  Slots 0/1 are ⊥/⊤.
    dnfs: Vec<Box<[ImplicantId]>>,
    dnf_lookup: StoreMap<Box<[ImplicantId]>, DnfId>,
    /// Memoized products, keyed on the (commutatively normalized) operand
    /// pair.
    and_memo: StoreMap<(DnfId, DnfId), DnfId>,
    or_memo: StoreMap<(DnfId, DnfId), DnfId>,
    /// One past the largest atom interned so far — the width of the bitset
    /// universe the product builders work over.
    atom_bound: u32,
    stats: StoreStats,
}

impl ConditionStore {
    /// An empty store, pre-seeded with ⊥, ⊤ and the empty implicant (the
    /// seeds are not charged to any budget).
    pub fn new() -> ConditionStore {
        let mut store = ConditionStore::default();
        store.implicants.push(Box::from([] as [u32; 0]));
        store.implicant_lookup.insert(Box::from([] as [u32; 0]), EMPTY_IMPLICANT);
        store.dnfs.push(Box::from([] as [ImplicantId; 0])); // ⊥
        store.dnf_lookup.insert(Box::from([] as [ImplicantId; 0]), Self::BOTTOM);
        store.dnfs.push(Box::from([EMPTY_IMPLICANT])); // ⊤
        store.dnf_lookup.insert(Box::from([EMPTY_IMPLICANT]), Self::TOP);
        store
    }

    /// The interning/memoization counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Records one round of the §5.3 worklist: how many equations the round
    /// actually evaluated (its ready set) and how many it skipped because
    /// none of their inputs changed since their last evaluation.  Both
    /// tallies are pure functions of the iteration history.
    pub fn record_sweep(&mut self, evaluated: u64, skipped: u64) {
        self.stats.rounds += 1;
        self.stats.equations_evaluated += evaluated;
        self.stats.equations_skipped += skipped;
    }

    /// Number of distinct implicants interned (seeds excluded) — the quantity
    /// charged to the budget.
    pub fn implicant_count(&self) -> usize {
        self.implicants.len() - 1
    }

    /// Number of distinct DNFs interned (the ⊥/⊤ seeds excluded).
    pub fn dnf_count(&self) -> usize {
        self.dnfs.len() - 2
    }

    /// Number of implicants of the DNF `id`.
    pub fn width(&self, id: DnfId) -> usize {
        self.dnfs[id.0 as usize].len()
    }

    /// `true` iff `id` is the condition `false`.
    pub fn is_bottom(&self, id: DnfId) -> bool {
        id == Self::BOTTOM
    }

    /// `true` iff `id` is the condition `true`.
    pub fn is_top(&self, id: DnfId) -> bool {
        id == Self::TOP
    }

    /// A borrowed view of the DNF `id`; see [`DnfRef`].
    pub fn dnf(&self, id: DnfId) -> DnfRef<'_> {
        DnfRef { store: self, id }
    }

    /// Interns the sorted atom list `atoms`, charging the budget if it is
    /// new; `None` when the charge trips the budget.
    fn intern_implicant(&mut self, atoms: Box<[u32]>, budget: &DnfBudget) -> Option<ImplicantId> {
        debug_assert!(atoms.windows(2).all(|w| w[0] < w[1]), "implicant atoms must be sorted");
        match self.implicant_lookup.entry(atoms) {
            Entry::Occupied(hit) => Some(*hit.get()),
            Entry::Vacant(slot) => {
                if !budget.charge(1) {
                    return None;
                }
                let id = ImplicantId(u32::try_from(self.implicants.len()).ok()?);
                if let Some(&last) = slot.key().last() {
                    self.atom_bound = self.atom_bound.max(last + 1);
                }
                self.implicants.push(slot.key().clone());
                self.stats.interned_implicants += 1;
                Some(*slot.insert(id))
            }
        }
    }

    /// Interns an antichain given as an unsorted, possibly duplicated
    /// implicant list (the caller guarantees minimality).
    fn intern_antichain(&mut self, mut members: Vec<ImplicantId>) -> DnfId {
        members.sort_unstable();
        members.dedup();
        let members: Box<[ImplicantId]> = members.into();
        match self.dnf_lookup.entry(members) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(slot) => {
                let id = DnfId(
                    u32::try_from(self.dnfs.len()).expect("more than u32::MAX distinct DNFs"),
                );
                self.stats.peak_dnf_width = self.stats.peak_dnf_width.max(slot.key().len());
                self.dnfs.push(slot.key().clone());
                self.stats.interned_dnfs += 1;
                *slot.insert(id)
            }
        }
    }

    /// The condition consisting of the single atom `atom`; `None` when
    /// interning a new implicant trips the budget.
    pub fn atom(&mut self, atom: usize, budget: &DnfBudget) -> Option<DnfId> {
        let atom = u32::try_from(atom).ok()?;
        let implicant = self.intern_implicant(Box::from([atom]), budget)?;
        Some(self.intern_antichain(vec![implicant]))
    }

    /// Interns a legacy [`Dnf`] value, charging every new implicant; `None`
    /// on a budget trip.
    pub fn intern_dnf(&mut self, dnf: &Dnf, budget: &DnfBudget) -> Option<DnfId> {
        let mut members = Vec::with_capacity(dnf.implicant_count());
        for implicant in dnf.implicants() {
            let atoms: Box<[u32]> =
                implicant.iter().map(|&atom| u32::try_from(atom).ok()).collect::<Option<_>>()?;
            members.push(self.intern_implicant(atoms, budget)?);
        }
        // A `Dnf` is canonical (minimal) by construction, so the members
        // already form an antichain.
        Some(self.intern_antichain(members))
    }

    /// Reconstructs the explicit [`Dnf`] behind `id`.
    pub fn extract(&self, id: DnfId) -> Dnf {
        let implicants = self.dnfs[id.0 as usize]
            .iter()
            .map(|&imp| self.implicants[imp.0 as usize].iter().map(|&atom| atom as usize).collect())
            .collect();
        Dnf::from_implicants_unchecked(implicants)
    }

    /// Number of `u64` words a bitset over the currently interned atom
    /// universe needs.
    fn bit_words(&self) -> usize {
        (self.atom_bound as usize).div_ceil(64).max(1)
    }

    /// Writes implicant `imp`'s atom set as a bitset into `out` (sized
    /// `words`).
    fn implicant_bits(&self, imp: ImplicantId, out: &mut [u64]) {
        out.fill(0);
        for &atom in &self.implicants[imp.0 as usize] {
            out[(atom / 64) as usize] |= 1u64 << (atom % 64);
        }
    }

    /// The sorted atom list behind a bitset row.
    fn atoms_of_bits(bits: &[u64]) -> Box<[u32]> {
        let mut atoms = Vec::new();
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                atoms.push(w as u32 * 64 + bit);
                rest &= rest - 1;
            }
        }
        atoms.into()
    }

    /// The members of `id` sorted by ascending atom-set size (then id):
    /// feeding products and disjunctions shortest-first makes absorption
    /// maximally eager.  The minimal DNF is unique, so processing order can
    /// never change a result — only how much transient work a builder holds.
    fn by_len(&self, id: DnfId) -> Vec<ImplicantId> {
        let mut members = self.dnfs[id.0 as usize].to_vec();
        members.sort_by_key(|&imp| (self.implicants[imp.0 as usize].len(), imp));
        members
    }

    /// Disjunction of two interned conditions.  Infallible in the budget
    /// sense — every implicant of the result already exists in one of the
    /// operands, so nothing new is interned or charged — but still memoized.
    pub fn or(&mut self, a: DnfId, b: DnfId) -> DnfId {
        if a == b || b == Self::BOTTOM {
            return a;
        }
        if a == Self::BOTTOM {
            return b;
        }
        if a == Self::TOP || b == Self::TOP {
            return Self::TOP;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&hit) = self.or_memo.get(&key) {
            self.stats.memo_hits += 1;
            return hit;
        }
        self.stats.memo_misses += 1;
        let mut candidates = self.by_len(a);
        candidates.extend(self.by_len(b));
        candidates.sort_by_key(|&imp| (self.implicants[imp.0 as usize].len(), imp));
        candidates.dedup();
        let words = self.bit_words();
        let mut builder = BitAntichain::new(words);
        let mut bits = vec![0u64; words];
        for &imp in &candidates {
            self.implicant_bits(imp, &mut bits);
            builder.offer(&bits, imp);
        }
        let result = self.intern_antichain(builder.tags);
        self.or_memo.insert(key, result);
        result
    }

    /// Conjunction of two interned conditions: the absorbed product of their
    /// implicant sets.  `None` when interning a *surviving* product implicant
    /// trips the shared budget (the cell is left tripped for every sharer).
    ///
    /// The product never materializes pre-absorption: pairwise unions are
    /// single-word-op bitset ORs streamed through a bitset antichain, where a
    /// candidate subsumed by the running minimal antichain dies on a probe
    /// (a few early-exiting word comparisons) and kills the members it
    /// strictly shrinks.  Only the survivors — the implicants of the
    /// canonical result — are interned and charged; on the measured
    /// `[ => Q ] []P` fixpoint the discarded transients outnumber them by two
    /// orders of magnitude.
    ///
    /// Two structural shortcuts keep the common fixpoint products far below
    /// the nominal `|a|·|b|` pair count:
    ///
    /// * **Row collapse** — if some column implicant is a subset of row
    ///   implicant `ia`, the whole row yields just `ia` (its union with that
    ///   column *is* `ia`, and every other union is a superset).  The
    ///   fixpoint's terms all carry a singleton edge atom, so rows whose
    ///   implicant mentions any of the term's edges collapse without a single
    ///   union.
    /// * **Wider-side rows** — rows come from the wider operand, maximizing
    ///   collapse opportunities.
    pub fn and(&mut self, a: DnfId, b: DnfId, budget: &DnfBudget) -> Option<DnfId> {
        if a == Self::BOTTOM || b == Self::BOTTOM {
            return Some(Self::BOTTOM);
        }
        if a == Self::TOP || a == b {
            return Some(b);
        }
        if b == Self::TOP {
            return Some(a);
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&hit) = self.and_memo.get(&key) {
            self.stats.memo_hits += 1;
            return Some(hit);
        }
        self.stats.memo_misses += 1;
        let (rows, cols) = if self.width(a) >= self.width(b) {
            (self.by_len(a), self.by_len(b))
        } else {
            (self.by_len(b), self.by_len(a))
        };
        let words = self.bit_words();
        let mut col_bits = vec![0u64; words * cols.len()];
        for (c, &ib) in cols.iter().enumerate() {
            self.implicant_bits(ib, &mut col_bits[c * words..(c + 1) * words]);
        }
        let mut builder = BitAntichain::new(words);
        let mut residuals = BitAntichain::new(words);
        let mut row_bits = vec![0u64; words];
        let mut scratch = vec![0u64; words];
        'rows: for (row, &ia) in rows.iter().enumerate() {
            // Nothing is interned until the survivors are known, so the
            // budget cannot trip mid-product — but a deadline/cancellation
            // (or another sharer's trip) should still cut a huge product
            // promptly.
            if row % 64 == 0 && budget.poll_interrupts() {
                return None;
            }
            self.implicant_bits(ia, &mut row_bits);
            // A member already ⊆ ia subsumes every union of this row.
            if builder.contains_subset_of(&row_bits) {
                continue;
            }
            // Per-row residual filter: the row's candidates are
            // `ia ∪ ib = ia ∪ (ib ∖ ia)`, so within the row only the
            // *minimal residuals* `ib ∖ ia` matter — `res ⊆ res'` makes the
            // second union a superset of the first.  An empty residual
            // (`ib ⊆ ia`) collapses the whole row to `ia` itself.  On the
            // dense fixpoint products this turns thousands of global
            // antichain offers per row into a handful.
            residuals.clear();
            for c in 0..cols.len() {
                let mut empty = true;
                for (w, &col_word) in col_bits[c * words..(c + 1) * words].iter().enumerate() {
                    scratch[w] = col_word & !row_bits[w];
                    empty &= scratch[w] == 0;
                }
                if empty {
                    builder.offer(&row_bits, ());
                    continue 'rows;
                }
                residuals.offer(&scratch, ());
            }
            for r in 0..residuals.len() {
                for (w, &res_word) in residuals.row(r).iter().enumerate() {
                    scratch[w] = row_bits[w] | res_word;
                }
                builder.offer(&scratch, ());
            }
        }
        let mut survivors = Vec::with_capacity(builder.len());
        for m in 0..builder.len() {
            let atoms = Self::atoms_of_bits(builder.row(m));
            survivors.push(self.intern_implicant(atoms, budget)?);
        }
        let result = self.intern_antichain(survivors);
        self.and_memo.insert(key, result);
        Some(result)
    }

    /// Conjunction of a slice of interned conditions, folded in order (the
    /// per-step results are canonical, so the fold order cannot change the
    /// answer — only which intermediate products get memoized).  `None` on a
    /// budget trip.
    pub fn all(&mut self, terms: &[DnfId], budget: &DnfBudget) -> Option<DnfId> {
        if terms.contains(&Self::BOTTOM) {
            return Some(Self::BOTTOM);
        }
        let mut acc = Self::TOP;
        for &term in terms {
            if budget.tripped() {
                return None;
            }
            acc = self.and(acc, term, budget)?;
        }
        Some(acc)
    }
}

/// Streaming minimal-antichain builder over implicant *bitsets*, with two-way
/// absorption.
///
/// Members are flat bitset rows (`words` `u64`s each) over the store's atom
/// universe; an optional tag of type `T` rides along with each row
/// ([`ConditionStore::or`] tags rows with their already-interned
/// [`ImplicantId`]s, products use `()`).  [`BitAntichain::offer`] checks the
/// candidate against every live member with early-exiting word operations —
/// `member ⊆ candidate` drops the candidate, `candidate ⊂ member` kills the
/// member (swap-removed; the surviving *set* is the unique minimal antichain,
/// so member order is immaterial).  On the dense, heavily-overlapping
/// implicants of the condition fixpoint this probe is an order of magnitude
/// faster than an inverted-index hit count, whose per-atom posting lists grow
/// with exactly the density that makes the probe hot.
struct BitAntichain<T> {
    words: usize,
    /// Flattened live member rows: member `m` occupies
    /// `rows[m * words .. (m + 1) * words]`.
    rows: Vec<u64>,
    /// Per-member tags, parallel to the rows.
    tags: Vec<T>,
}

impl<T> BitAntichain<T> {
    fn new(words: usize) -> BitAntichain<T> {
        BitAntichain { words: words.max(1), rows: Vec::new(), tags: Vec::new() }
    }

    /// Number of live members.
    fn len(&self) -> usize {
        self.tags.len()
    }

    /// Empties the builder, keeping its allocations.
    fn clear(&mut self) {
        self.rows.clear();
        self.tags.clear();
    }

    /// The bitset row of member `m`.
    fn row(&self, m: usize) -> &[u64] {
        &self.rows[m * self.words..(m + 1) * self.words]
    }

    /// `true` iff some live member is a subset of `candidate` (leaves the
    /// builder unchanged) — the probe behind the row-collapse shortcut in
    /// [`ConditionStore::and`].
    fn contains_subset_of(&self, candidate: &[u64]) -> bool {
        (0..self.len()).any(|m| self.row(m).iter().zip(candidate).all(|(&mw, &cw)| mw & !cw == 0))
    }

    /// Offers a candidate implicant: inserted (with `tag`) unless a live
    /// member subsumes it; live members it strictly shrinks are killed.
    fn offer(&mut self, candidate: &[u64], tag: T) {
        let mut m = 0;
        while m < self.len() {
            let row = &self.rows[m * self.words..(m + 1) * self.words];
            let mut member_minus_candidate = 0u64;
            let mut candidate_minus_member = 0u64;
            for (&mw, &cw) in row.iter().zip(candidate) {
                member_minus_candidate |= mw & !cw;
                candidate_minus_member |= cw & !mw;
                if member_minus_candidate != 0 && candidate_minus_member != 0 {
                    break;
                }
            }
            if member_minus_candidate == 0 {
                // member ⊆ candidate (equality included): drop the candidate.
                return;
            }
            if candidate_minus_member == 0 {
                // candidate ⊂ member: kill the member (swap-remove its row
                // and tag; `m` is re-examined with the swapped-in row).
                let last = self.len() - 1;
                if m != last {
                    let (head, tail) = self.rows.split_at_mut(last * self.words);
                    head[m * self.words..(m + 1) * self.words].copy_from_slice(&tail[..self.words]);
                }
                self.rows.truncate(last * self.words);
                self.tags.swap_remove(m);
                continue;
            }
            m += 1;
        }
        self.rows.extend_from_slice(candidate);
        self.tags.push(tag);
    }
}

/// A borrowed, read-only view of one interned DNF.
///
/// The antichain analogue of handing out `&Dnf`: all inspection — width,
/// implicant iteration, evaluation — without extracting the explicit
/// representation.
#[derive(Clone, Copy, Debug)]
pub struct DnfRef<'s> {
    store: &'s ConditionStore,
    id: DnfId,
}

impl<'s> DnfRef<'s> {
    /// The interned id this view refers to.
    pub fn id(&self) -> DnfId {
        self.id
    }

    /// `true` iff the condition is identically false.
    pub fn is_bottom(&self) -> bool {
        self.id == ConditionStore::BOTTOM
    }

    /// `true` iff the condition is identically true.
    pub fn is_top(&self) -> bool {
        self.id == ConditionStore::TOP
    }

    /// The number of implicants.
    pub fn implicant_count(&self) -> usize {
        self.store.width(self.id)
    }

    /// The implicants, each as a sorted slice of edge atoms.
    pub fn implicants(&self) -> impl Iterator<Item = &'s [u32]> + '_ {
        self.store.dnfs[self.id.0 as usize]
            .iter()
            .map(move |&imp| &*self.store.implicants[imp.0 as usize])
    }

    /// Evaluates the condition under an assignment of atoms to Booleans.
    pub fn eval(&self, assignment: &dyn Fn(usize) -> bool) -> bool {
        self.implicants().any(|imp| imp.iter().all(|&atom| assignment(atom as usize)))
    }

    /// Extracts the explicit [`Dnf`].
    pub fn to_dnf(&self) -> Dnf {
        self.store.extract(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded() -> DnfBudget {
        DnfBudget::unbounded()
    }

    #[test]
    fn seeds_are_canonical() {
        let store = ConditionStore::new();
        assert!(store.is_bottom(ConditionStore::BOTTOM));
        assert!(store.is_top(ConditionStore::TOP));
        assert_eq!(store.implicant_count(), 0);
        assert_eq!(store.dnf_count(), 0);
        assert_eq!(store.extract(ConditionStore::BOTTOM), Dnf::bottom());
        assert_eq!(store.extract(ConditionStore::TOP), Dnf::top());
    }

    #[test]
    fn interning_is_idempotent_and_charges_once() {
        let mut store = ConditionStore::new();
        let budget = DnfBudget::new(10);
        let a1 = store.atom(7, &budget).unwrap();
        let a2 = store.atom(7, &budget).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(store.implicant_count(), 1);
        assert_eq!(budget.charged(), 1);
    }

    #[test]
    fn products_match_the_legacy_representation() {
        let mut store = ConditionStore::new();
        let budget = unbounded();
        let a = store.atom(1, &budget).unwrap();
        let b = store.atom(2, &budget).unwrap();
        let c = store.atom(3, &budget).unwrap();
        let ab = store.or(a, b);
        let ac = store.and(a, c, &budget).unwrap();
        let dist = store.and(ab, c, &budget).unwrap();
        let legacy = Dnf::atom(1).or(&Dnf::atom(2)).and(&Dnf::atom(3));
        assert_eq!(store.extract(dist), legacy);
        assert_eq!(store.extract(ac), Dnf::atom(1).and(&Dnf::atom(3)));
        // Canonicity: recomputing through a different shape returns the same id.
        let bc = store.and(b, c, &budget).unwrap();
        let dist2 = store.or(ac, bc);
        assert_eq!(dist, dist2);
    }

    #[test]
    fn absorption_is_incremental_and_minimal() {
        let mut store = ConditionStore::new();
        let budget = unbounded();
        let a = store.atom(1, &budget).unwrap();
        let b = store.atom(2, &budget).unwrap();
        let ab = store.and(a, b, &budget).unwrap();
        // a ∨ (a ∧ b) absorbs to a.
        assert_eq!(store.or(a, ab), a);
        // (a ∨ b) ∧ a absorbs to a.
        let aorb = store.or(a, b);
        assert_eq!(store.and(aorb, a, &budget).unwrap(), a);
    }

    #[test]
    fn memo_hits_are_counted() {
        let mut store = ConditionStore::new();
        let budget = unbounded();
        let a = store.atom(1, &budget).unwrap();
        let b = store.atom(2, &budget).unwrap();
        let first = store.and(a, b, &budget).unwrap();
        let misses = store.stats().memo_misses;
        let second = store.and(b, a, &budget).unwrap();
        assert_eq!(first, second, "∧ is commutative through the normalized memo key");
        assert_eq!(store.stats().memo_misses, misses, "second product must not recompute");
        assert!(store.stats().memo_hits >= 1);
    }

    #[test]
    fn budget_charges_distinct_implicants_only() {
        let mut store = ConditionStore::new();
        let budget = DnfBudget::new(3);
        let a = store.atom(1, &budget).unwrap();
        let b = store.atom(2, &budget).unwrap();
        // Product ab is the third distinct implicant: exactly at the limit.
        let ab = store.and(a, b, &budget).unwrap();
        assert_eq!(store.extract(ab), Dnf::atom(1).and(&Dnf::atom(2)));
        assert_eq!(budget.charged(), 3);
        assert!(!budget.tripped());
        // Recomputing (memo hit) and re-interning charge nothing further.
        assert_eq!(store.and(b, a, &budget), Some(ab));
        assert_eq!(store.atom(1, &budget), Some(a));
        assert_eq!(budget.charged(), 3);
        // One genuinely new implicant beyond the limit trips the cell.
        assert_eq!(store.atom(9, &budget), None);
        assert!(budget.tripped());
        assert_eq!(budget.exhaustion(), Some(crate::pool::Exhaustion::Implicants));
        // A tripped cell rejects even previously interned work.
        assert_eq!(store.all(&[a, b], &budget), None);
    }

    #[test]
    fn extraction_round_trips_interning() {
        let legacy =
            Dnf::atom(1).or(&Dnf::atom(2).and(&Dnf::atom(3))).or(&Dnf::atom(4).and(&Dnf::atom(5)));
        let mut store = ConditionStore::new();
        let budget = unbounded();
        let id = store.intern_dnf(&legacy, &budget).unwrap();
        assert_eq!(store.extract(id), legacy);
        let view = store.dnf(id);
        assert_eq!(view.implicant_count(), legacy.implicant_count());
        assert_eq!(view.to_dnf(), legacy);
        assert!(view.eval(&|atom| atom == 1));
        assert!(!view.eval(&|atom| atom == 2));
    }
}
