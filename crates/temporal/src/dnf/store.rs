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
//! * **Flat storage**: implicants and antichains are spans of two flat
//!   `u32` pools, found through open-addressing tables that compare a probe
//!   against the pool in place, so no key is boxed or stored twice.  The
//!   product and disjunction builders work in buffers the store owns and
//!   reuses from one `∧`/`∨` to the next, so a product allocates only when
//!   it outgrows every earlier one.
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

/// Variable-length `u32` lists interned to dense ids in first-seen order:
/// the lists concatenated in one pool (list `id` is
/// `pool[starts[id]..starts[id + 1]]`), found through an open-addressing
/// table of `id + 1` (0 marks a free slot) kept at most half full.  A
/// lookup compares the probe key against the pool in place, so no list is
/// stored twice or boxed.
#[derive(Debug)]
struct Spans {
    pool: Vec<u32>,
    starts: Vec<u32>,
    table: Vec<u32>,
}

impl Spans {
    /// Spans holding the distinct `seeds`, in order.
    fn seeded(seeds: &[&[u32]]) -> Spans {
        let mut spans = Spans { pool: Vec::new(), starts: vec![0], table: vec![0; 16] };
        for seed in seeds {
            let slot = spans.find(seed).expect_err("the seeds are distinct");
            spans.insert(slot, seed);
        }
        spans
    }

    /// Makes room for `lists` more lists of about `width` entries each.
    fn reserve(&mut self, lists: usize, width: usize) {
        self.pool.reserve(lists * width);
        self.starts.reserve(lists);
        let wanted = (2 * (self.len() + lists)).next_power_of_two();
        if wanted > self.table.len() {
            self.rehash(wanted);
        }
    }

    /// Rebuilds the table at `size` slots, a power of two.
    fn rehash(&mut self, size: usize) {
        let mut table = vec![0; size];
        let mask = size - 1;
        for id in 0..self.len() as u32 {
            let mut slot = Self::hash(self.get(id)) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = id + 1;
        }
        self.table = table;
    }

    /// The number of lists.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// List `id`.
    fn get(&self, id: u32) -> &[u32] {
        &self.pool[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }

    /// A multiply-xor hash of a list, its high half folded into the low one.
    fn hash(key: &[u32]) -> usize {
        let mut hasher = StoreHasher::default();
        hasher.add(key.len() as u64);
        for &word in key {
            hasher.add(u64::from(word));
        }
        (hasher.hash ^ (hasher.hash >> 32)) as usize
    }

    /// The id of `key`, or the free table slot where it would go.
    fn find(&self, key: &[u32]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = Self::hash(key) & mask;
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                entry if self.get(entry - 1) == key => return Ok(entry - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends `key` under the next id at `slot`, a free slot [`Spans::find`]
    /// named for it, and returns the id; `None` past `u32::MAX` lists.
    fn insert(&mut self, slot: usize, key: &[u32]) -> Option<u32> {
        let id = u32::try_from(self.len()).ok()?;
        self.pool.extend_from_slice(key);
        self.starts.push(u32::try_from(self.pool.len()).ok()?);
        self.table[slot] = id + 1;
        if 2 * self.len() > self.table.len() {
            self.rehash(2 * self.table.len());
        }
        Some(id)
    }
}

/// The interned implicant/DNF arena; see the [module documentation](self).
#[derive(Debug)]
pub struct ConditionStore {
    /// Id → sorted atom list.  Slot 0 is the empty implicant.
    implicants: Spans,
    /// Id → antichain, as an id-sorted list of implicant ids.  Slots 0/1
    /// are ⊥/⊤.
    dnfs: Spans,
    /// Memoized products, keyed on the (commutatively normalized) operand
    /// pair.
    and_memo: StoreMap<(DnfId, DnfId), DnfId>,
    or_memo: StoreMap<(DnfId, DnfId), DnfId>,
    /// One past the largest atom interned so far — the width of the bitset
    /// universe the product builders work over.
    atom_bound: u32,
    stats: StoreStats,
    /// Working buffers of `∧`/`∨`, reused from product to product.
    scratch: Scratch,
}

/// The buffers one `∧` or `∨` works in: operand member lists, bitset rows,
/// the antichain builders and the survivors.
#[derive(Debug, Default)]
struct Scratch {
    rows: Vec<ImplicantId>,
    cols: Vec<ImplicantId>,
    col_bits: Vec<u64>,
    row_bits: Vec<u64>,
    bits: Vec<u64>,
    builder: BitAntichain<()>,
    residuals: BitAntichain<()>,
    tagged: BitAntichain<ImplicantId>,
    /// Member ids on their way to [`ConditionStore::intern_antichain`].
    members: Vec<u32>,
    atoms: Vec<u32>,
}

impl Default for ConditionStore {
    fn default() -> ConditionStore {
        ConditionStore::new()
    }
}

impl ConditionStore {
    /// An empty store, pre-seeded with ⊥, ⊤ and the empty implicant (the
    /// seeds are not charged to any budget).
    pub fn new() -> ConditionStore {
        ConditionStore {
            // The empty implicant; ⊥ and ⊤.
            implicants: Spans::seeded(&[&[]]),
            dnfs: Spans::seeded(&[&[], &[EMPTY_IMPLICANT.0]]),
            and_memo: StoreMap::default(),
            or_memo: StoreMap::default(),
            atom_bound: 0,
            stats: StoreStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// Makes room for a fixpoint over `atoms` edge atoms: their singleton
    /// implicants and conditions, as many more of each, and as many
    /// memoized products, so a small fixpoint interns without regrowing.
    pub(crate) fn reserve_for_atoms(&mut self, atoms: usize) {
        self.implicants.reserve(2 * atoms, 2);
        self.dnfs.reserve(2 * atoms, 2);
        self.and_memo.reserve(atoms);
        self.or_memo.reserve(atoms);
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
        self.dnfs.get(id.0).len()
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

    /// The members of DNF `id`.
    fn members(&self, id: DnfId) -> impl Iterator<Item = ImplicantId> + '_ {
        self.dnfs.get(id.0).iter().map(|&imp| ImplicantId(imp))
    }

    /// The sorted atom list of implicant `imp`.
    fn atoms(&self, imp: ImplicantId) -> &[u32] {
        self.implicants.get(imp.0)
    }

    /// Interns the sorted atom list `atoms`, charging the budget if it is
    /// new; `None` when the charge trips the budget.
    fn intern_implicant(&mut self, atoms: &[u32], budget: &DnfBudget) -> Option<ImplicantId> {
        debug_assert!(atoms.windows(2).all(|w| w[0] < w[1]), "implicant atoms must be sorted");
        let slot = match self.implicants.find(atoms) {
            Ok(id) => return Some(ImplicantId(id)),
            Err(slot) => slot,
        };
        if !budget.charge(1) {
            return None;
        }
        let id = ImplicantId(self.implicants.insert(slot, atoms)?);
        if let Some(&last) = atoms.last() {
            self.atom_bound = self.atom_bound.max(last + 1);
        }
        self.stats.interned_implicants += 1;
        Some(id)
    }

    /// Interns an antichain given as an unsorted, possibly duplicated list
    /// of implicant ids (the caller guarantees minimality); sorts `members`
    /// in place.
    fn intern_antichain(&mut self, members: &mut Vec<u32>) -> DnfId {
        members.sort_unstable();
        members.dedup();
        match self.dnfs.find(members) {
            Ok(id) => DnfId(id),
            Err(slot) => {
                let id = self.dnfs.insert(slot, members).expect("more than u32::MAX distinct DNFs");
                self.stats.peak_dnf_width = self.stats.peak_dnf_width.max(members.len());
                self.stats.interned_dnfs += 1;
                DnfId(id)
            }
        }
    }

    /// The condition consisting of the single atom `atom`; `None` when
    /// interning a new implicant trips the budget.
    pub fn atom(&mut self, atom: usize, budget: &DnfBudget) -> Option<DnfId> {
        let atom = u32::try_from(atom).ok()?;
        let implicant = self.intern_implicant(&[atom], budget)?;
        let mut members = std::mem::take(&mut self.scratch.members);
        members.clear();
        members.push(implicant.0);
        let id = self.intern_antichain(&mut members);
        self.scratch.members = members;
        Some(id)
    }

    /// Interns a legacy [`Dnf`] value, charging every new implicant; `None`
    /// on a budget trip.
    pub fn intern_dnf(&mut self, dnf: &Dnf, budget: &DnfBudget) -> Option<DnfId> {
        let mut members = Vec::with_capacity(dnf.implicant_count());
        for implicant in dnf.implicants() {
            let atoms: Vec<u32> =
                implicant.iter().map(|&atom| u32::try_from(atom).ok()).collect::<Option<_>>()?;
            members.push(self.intern_implicant(&atoms, budget)?.0);
        }
        // A `Dnf` is canonical (minimal) by construction, so the members
        // already form an antichain.
        Some(self.intern_antichain(&mut members))
    }

    /// Reconstructs the explicit [`Dnf`] behind `id`.
    pub fn extract(&self, id: DnfId) -> Dnf {
        let implicants = self
            .members(id)
            .map(|imp| self.atoms(imp).iter().map(|&atom| atom as usize).collect())
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
        for &atom in self.atoms(imp) {
            out[(atom / 64) as usize] |= 1u64 << (atom % 64);
        }
    }

    /// Writes the sorted atom list behind a bitset row into `atoms`.
    fn atoms_of_bits(bits: &[u64], atoms: &mut Vec<u32>) {
        atoms.clear();
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                atoms.push(w as u32 * 64 + bit);
                rest &= rest - 1;
            }
        }
    }

    /// Sorts `members` by ascending atom-set size (then id): feeding
    /// products and disjunctions shortest-first makes absorption maximally
    /// eager.  The minimal DNF is unique, so processing order can never
    /// change a result — only how much transient work a builder holds.
    fn sort_by_len(&self, members: &mut [ImplicantId]) {
        members.sort_by_key(|&imp| (self.atoms(imp).len(), imp));
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
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch { rows: candidates, bits, tagged: builder, members, .. } = &mut scratch;
        candidates.clear();
        candidates.extend(self.members(a));
        candidates.extend(self.members(b));
        self.sort_by_len(candidates);
        candidates.dedup();
        let words = self.bit_words();
        builder.reset(words);
        bits.clear();
        bits.resize(words, 0);
        for &imp in candidates.iter() {
            self.implicant_bits(imp, bits);
            builder.offer(bits, imp);
        }
        members.clear();
        members.extend(builder.tags.iter().map(|imp| imp.0));
        let result = self.intern_antichain(members);
        self.scratch = scratch;
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
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.product(a, b, budget, &mut scratch);
        self.scratch = scratch;
        let result = result?;
        self.and_memo.insert(key, result);
        Some(result)
    }

    /// The body of [`ConditionStore::and`], in the store's reused buffers.
    fn product(
        &mut self,
        a: DnfId,
        b: DnfId,
        budget: &DnfBudget,
        scratch: &mut Scratch,
    ) -> Option<DnfId> {
        let Scratch {
            rows,
            cols,
            col_bits,
            row_bits,
            bits,
            builder,
            residuals,
            members,
            atoms,
            ..
        } = scratch;
        let (wide, narrow) = if self.width(a) >= self.width(b) { (a, b) } else { (b, a) };
        rows.clear();
        rows.extend(self.members(wide));
        self.sort_by_len(rows);
        cols.clear();
        cols.extend(self.members(narrow));
        self.sort_by_len(cols);
        let words = self.bit_words();
        col_bits.clear();
        col_bits.resize(words * cols.len(), 0);
        for (c, &ib) in cols.iter().enumerate() {
            self.implicant_bits(ib, &mut col_bits[c * words..(c + 1) * words]);
        }
        builder.reset(words);
        residuals.reset(words);
        row_bits.clear();
        row_bits.resize(words, 0);
        bits.clear();
        bits.resize(words, 0);
        'rows: for (row, &ia) in rows.iter().enumerate() {
            // Nothing is interned until the survivors are known, so the
            // budget cannot trip mid-product — but a deadline/cancellation
            // (or another sharer's trip) should still cut a huge product
            // promptly.
            if row % 64 == 0 && budget.poll_interrupts() {
                return None;
            }
            self.implicant_bits(ia, row_bits);
            // A member already ⊆ ia subsumes every union of this row.
            if builder.contains_subset_of(row_bits) {
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
                    bits[w] = col_word & !row_bits[w];
                    empty &= bits[w] == 0;
                }
                if empty {
                    builder.offer(row_bits, ());
                    continue 'rows;
                }
                residuals.offer(bits, ());
            }
            for r in 0..residuals.len() {
                for (w, &res_word) in residuals.row(r).iter().enumerate() {
                    bits[w] = row_bits[w] | res_word;
                }
                builder.offer(bits, ());
            }
        }
        members.clear();
        for m in 0..builder.len() {
            Self::atoms_of_bits(builder.row(m), atoms);
            members.push(self.intern_implicant(atoms, budget)?.0);
        }
        Some(self.intern_antichain(members))
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
#[derive(Debug)]
struct BitAntichain<T> {
    words: usize,
    /// Flattened live member rows: member `m` occupies
    /// `rows[m * words .. (m + 1) * words]`.
    rows: Vec<u64>,
    /// Per-member tags, parallel to the rows.
    tags: Vec<T>,
}

impl<T> Default for BitAntichain<T> {
    fn default() -> BitAntichain<T> {
        BitAntichain { words: 1, rows: Vec::new(), tags: Vec::new() }
    }
}

impl<T> BitAntichain<T> {
    /// Empties the builder for rows of `words` words, keeping its
    /// allocations.
    fn reset(&mut self, words: usize) {
        self.words = words.max(1);
        self.clear();
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
        let store = self.store;
        store.members(self.id).map(move |imp| store.atoms(imp))
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
