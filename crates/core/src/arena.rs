//! Hash-consed formula arena and memoized evaluation.
//!
//! The boxed [`Formula`]/[`IntervalTerm`] trees of [`crate::syntax`] are
//! convenient to build but costly to check: structurally identical subformulas
//! are distinct allocations, equality is a deep walk, and the interval
//! semantics re-derives identical subformula verdicts again and again — most
//! painfully inside [`crate::bounded::BoundedChecker`], which evaluates the
//! same formula over millions of enumerated computations.
//!
//! This module provides the structural-sharing layer underneath the
//! [`crate::session`] API:
//!
//! * [`FormulaArena`] interns every formula and interval-term node exactly
//!   once, handing out `Copy`-able [`FormulaId`] / [`TermId`] handles with
//!   O(1) equality and hashing.  `intern` / `extract` are lossless bridges to
//!   the boxed AST;
//! * [`MemoEvaluator`] evaluates interned formulas with a memo table keyed on
//!   `(FormulaId, Interval, environment)`, so shared subterms — made explicit
//!   by hash-consing — are evaluated once per (interval, binding) context
//!   rather than once per syntactic occurrence;
//! * [`ArenaSnapshot`] is a frozen, `Send + Sync` *version* of an arena's
//!   nodes.  The arena's storage is multiversion — an append-only store of
//!   `Arc`-shared chunks — so taking a snapshot is O(1) (one `Arc` bump per
//!   store) and never copies nodes; interning *after* a snapshot leaves every
//!   outstanding snapshot untouched, because the id space is append-only and
//!   a writer that would mutate a shared chunk copies it first
//!   ([`Arc::make_mut`]).  Snapshotting is how the sharded engines of
//!   [`crate::session`] hand one interned formula to many worker threads:
//!   each worker owns a cheap clone of the snapshot plus its private
//!   [`MemoEvaluator`], so evaluation is shared-nothing — no locks anywhere
//!   on the hot path — and the per-worker [`MemoStats`] are
//!   [merged](MemoStats::merge) at join.  Because snapshots are this cheap,
//!   new formulas can be interned and dispatched *while* earlier checks are
//!   still running over older versions — there is no stop-the-world barrier
//!   between interning and checking.
//!
//! The memoized evaluator implements exactly the satisfaction relation of
//! [`crate::semantics::Evaluator`]; the two are cross-checked by the property
//! suite in `tests/arena.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::interval::{Constructed, Endpoint, Interval};
use crate::semantics::Dir;
use crate::syntax::{Arg, CmpOp, Expr, Formula, IntervalTerm, Pred};
use crate::trace::{Extension, Trace};
use crate::value::Value;

/// Handle of an interned formula node. Copyable; equal ids ⇔ structurally
/// equal formulas (within one arena).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The raw arena slot of this id — stable within one arena, and the
    /// currency diagnostics use to point at a subformula.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw slot previously obtained via
    /// [`FormulaId::index`].  Only meaningful against the same arena the
    /// index came from (deserialized diagnostics, debugger round-trips).
    pub fn from_index(index: usize) -> FormulaId {
        FormulaId(index as u32)
    }
}

/// Handle of an interned interval-term node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The raw arena slot of this id (see [`FormulaId::index`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned formula node: the [`Formula`] constructors with child links
/// replaced by arena ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FormulaNode {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A state predicate.
    Pred(Pred),
    /// Negation.
    Not(FormulaId),
    /// Conjunction.
    And(FormulaId, FormulaId),
    /// Disjunction.
    Or(FormulaId, FormulaId),
    /// `□ α`.
    Always(FormulaId),
    /// `◇ α`.
    Eventually(FormulaId),
    /// `[ I ] α`.
    In(TermId, FormulaId),
    /// `∀ var . α`.
    Forall(String, FormulaId),
    /// `∃ var . α`.
    Exists(String, FormulaId),
}

/// An interned interval-term node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// An event term.
    Event(FormulaId),
    /// `begin I`.
    Begin(TermId),
    /// `end I`.
    End(TermId),
    /// `I ⇒ J` (either side optional).
    Forward(Option<TermId>, Option<TermId>),
    /// `I ⇐ J` (either side optional).
    Backward(Option<TermId>, Option<TermId>),
    /// `* I`.
    Must(TermId),
}

/// Log₂ of the chunk size of the multiversion node stores.  1024 nodes per
/// chunk keeps the copy-on-write unit small (a writer racing a live snapshot
/// re-copies at most one chunk) while the power of two turns id resolution
/// into a shift and a mask.
const CHUNK_SHIFT: usize = 10;
/// Nodes per chunk (`1 << CHUNK_SHIFT`).
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// Append-only, `Arc`-chunked node storage: the multiversion substrate under
/// [`FormulaArena`].
///
/// Nodes live in fixed-size chunks, each behind its own `Arc`, with the chunk
/// spine itself behind one more `Arc`.  A snapshot clones the spine `Arc` —
/// O(1), no node is copied — and an append goes through [`Arc::make_mut`]
/// twice: the spine (a `Vec` of pointers) and the tail chunk are each copied
/// only when a live snapshot still shares them, and at most once per
/// snapshot.  Ids are dense indices, so the id space is append-only: a node's
/// slot never moves, and every snapshot resolves the ids minted before it to
/// bit-identical nodes.
#[derive(Clone, Debug)]
struct ChunkedStore<T> {
    spine: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T> Default for ChunkedStore<T> {
    fn default() -> ChunkedStore<T> {
        ChunkedStore { spine: Arc::new(Vec::new()), len: 0 }
    }
}

impl<T: Clone> ChunkedStore<T> {
    fn push(&mut self, value: T) {
        let spine = Arc::make_mut(&mut self.spine);
        if self.len & (CHUNK - 1) == 0 {
            spine.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let tail = spine.last_mut().expect("a chunk was just ensured");
        let chunk = Arc::make_mut(tail);
        chunk.reserve(CHUNK - chunk.len());
        chunk.push(value);
        self.len += 1;
    }

    #[inline]
    fn get(&self, index: usize) -> &T {
        &self.spine[index >> CHUNK_SHIFT][index & (CHUNK - 1)]
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The O(1) versioned view: one `Arc` bump; sees exactly `len` nodes.
    fn freeze(&self) -> FrozenStore<T> {
        FrozenStore { spine: Arc::clone(&self.spine), len: self.len }
    }
}

/// One version of a [`ChunkedStore`]: an immutable prefix view.
#[derive(Clone, Debug)]
struct FrozenStore<T> {
    spine: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T> FrozenStore<T> {
    #[inline]
    fn get(&self, index: usize) -> &T {
        debug_assert!(index < self.len, "id {index} minted after this snapshot's version");
        &self.spine[index >> CHUNK_SHIFT][index & (CHUNK - 1)]
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A hash-consing arena for formulas and interval terms.
///
/// Every distinct node is stored exactly once; interning the same structure
/// twice returns the same id.  Ids are only meaningful within the arena that
/// produced them.
///
/// Storage is multiversion (see [`FormulaArena::snapshot`]): nodes live in
/// append-only `Arc`-shared chunks, so snapshots are O(1) and interning never
/// invalidates one — ids stay stable for the lifetime of the arena.
#[derive(Clone, Debug, Default)]
pub struct FormulaArena {
    formulas: ChunkedStore<FormulaNode>,
    terms: ChunkedStore<TermNode>,
    formula_ids: HashMap<FormulaNode, FormulaId>,
    term_ids: HashMap<TermNode, TermId>,
}

impl FormulaArena {
    /// An empty arena.
    pub fn new() -> FormulaArena {
        FormulaArena::default()
    }

    /// Interns a node, returning the existing id when the node is already present.
    pub fn formula(&mut self, node: FormulaNode) -> FormulaId {
        if let Some(&id) = self.formula_ids.get(&node) {
            return id;
        }
        let id = FormulaId(u32::try_from(self.formulas.len()).expect("arena overflow"));
        self.formulas.push(node.clone());
        self.formula_ids.insert(node, id);
        id
    }

    /// The arena's current version: the number of formula and term nodes
    /// interned so far, i.e. exactly the ids a snapshot taken now would see.
    pub fn version(&self) -> ArenaVersion {
        ArenaVersion { formulas: self.formulas.len(), terms: self.terms.len() }
    }

    /// Interns a term node, deduplicating structurally equal terms.
    pub fn term(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.term_ids.get(&node) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("arena overflow"));
        self.terms.push(node);
        self.term_ids.insert(node, id);
        id
    }

    /// The node behind a formula id.
    pub fn formula_node(&self, id: FormulaId) -> &FormulaNode {
        self.formulas.get(id.0 as usize)
    }

    /// The node behind a term id.
    pub fn term_node(&self, id: TermId) -> &TermNode {
        self.terms.get(id.0 as usize)
    }

    /// Number of distinct formula nodes interned.
    pub fn formula_count(&self) -> usize {
        self.formulas.len()
    }

    /// Number of distinct term nodes interned.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Interns a boxed formula, sharing every repeated subformula and subterm.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        let node = match formula {
            Formula::True => FormulaNode::True,
            Formula::False => FormulaNode::False,
            Formula::Pred(p) => FormulaNode::Pred(p.clone()),
            Formula::Not(a) => FormulaNode::Not(self.intern(a)),
            Formula::And(a, b) => FormulaNode::And(self.intern(a), self.intern(b)),
            Formula::Or(a, b) => FormulaNode::Or(self.intern(a), self.intern(b)),
            Formula::Always(a) => FormulaNode::Always(self.intern(a)),
            Formula::Eventually(a) => FormulaNode::Eventually(self.intern(a)),
            Formula::In(term, a) => FormulaNode::In(self.intern_term(term), self.intern(a)),
            Formula::Forall(v, a) => FormulaNode::Forall(v.clone(), self.intern(a)),
            Formula::Exists(v, a) => FormulaNode::Exists(v.clone(), self.intern(a)),
        };
        self.formula(node)
    }

    /// Interns a boxed interval term.
    pub fn intern_term(&mut self, term: &IntervalTerm) -> TermId {
        let node = match term {
            IntervalTerm::Event(f) => TermNode::Event(self.intern(f)),
            IntervalTerm::Begin(t) => TermNode::Begin(self.intern_term(t)),
            IntervalTerm::End(t) => TermNode::End(self.intern_term(t)),
            IntervalTerm::Forward(a, b) => TermNode::Forward(
                a.as_deref().map(|t| self.intern_term(t)),
                b.as_deref().map(|t| self.intern_term(t)),
            ),
            IntervalTerm::Backward(a, b) => TermNode::Backward(
                a.as_deref().map(|t| self.intern_term(t)),
                b.as_deref().map(|t| self.intern_term(t)),
            ),
            IntervalTerm::Must(t) => TermNode::Must(self.intern_term(t)),
        };
        self.term(node)
    }

    /// Reconstructs the boxed formula behind an id (the inverse of [`FormulaArena::intern`]).
    pub fn extract(&self, id: FormulaId) -> Formula {
        match self.formula_node(id) {
            FormulaNode::True => Formula::True,
            FormulaNode::False => Formula::False,
            FormulaNode::Pred(p) => Formula::Pred(p.clone()),
            FormulaNode::Not(a) => Formula::Not(Box::new(self.extract(*a))),
            FormulaNode::And(a, b) => {
                Formula::And(Box::new(self.extract(*a)), Box::new(self.extract(*b)))
            }
            FormulaNode::Or(a, b) => {
                Formula::Or(Box::new(self.extract(*a)), Box::new(self.extract(*b)))
            }
            FormulaNode::Always(a) => Formula::Always(Box::new(self.extract(*a))),
            FormulaNode::Eventually(a) => Formula::Eventually(Box::new(self.extract(*a))),
            FormulaNode::In(t, a) => Formula::In(self.extract_term(*t), Box::new(self.extract(*a))),
            FormulaNode::Forall(v, a) => Formula::Forall(v.clone(), Box::new(self.extract(*a))),
            FormulaNode::Exists(v, a) => Formula::Exists(v.clone(), Box::new(self.extract(*a))),
        }
    }

    /// Reconstructs the boxed interval term behind an id.
    pub fn extract_term(&self, id: TermId) -> IntervalTerm {
        match self.term_node(id) {
            TermNode::Event(f) => IntervalTerm::Event(Box::new(self.extract(*f))),
            TermNode::Begin(t) => IntervalTerm::Begin(Box::new(self.extract_term(*t))),
            TermNode::End(t) => IntervalTerm::End(Box::new(self.extract_term(*t))),
            TermNode::Forward(a, b) => IntervalTerm::Forward(
                a.map(|t| Box::new(self.extract_term(t))),
                b.map(|t| Box::new(self.extract_term(t))),
            ),
            TermNode::Backward(a, b) => IntervalTerm::Backward(
                a.map(|t| Box::new(self.extract_term(t))),
                b.map(|t| Box::new(self.extract_term(t))),
            ),
            TermNode::Must(t) => IntervalTerm::Must(Box::new(self.extract_term(*t))),
        }
    }

    /// Negation at the id level (with the same constant folding as [`Formula::not`]).
    pub fn not(&mut self, id: FormulaId) -> FormulaId {
        match self.formula_node(id).clone() {
            FormulaNode::True => self.formula(FormulaNode::False),
            FormulaNode::False => self.formula(FormulaNode::True),
            FormulaNode::Not(inner) => inner,
            _ => self.formula(FormulaNode::Not(id)),
        }
    }

    /// An O(1) versioned handle on every node interned so far.
    ///
    /// The snapshot is `Send + Sync + Clone` and costs two `Arc` bumps to
    /// take — no node is ever copied.  It sees *exactly* the ids interned
    /// before it ([`ArenaSnapshot::version`]): ids handed out by this arena
    /// up to that point resolve to bit-identical nodes in every snapshot
    /// that contains them, so a formula interned once can be evaluated
    /// concurrently by any number of worker threads without locking.  Nodes
    /// interned *after* the snapshot are not visible in it, and — because
    /// the store is multiversion — interning more never disturbs an
    /// outstanding snapshot.  Snapshots are cheap enough to take per check,
    /// and long-lived enough to keep: [`crate::session::Session`] interns
    /// and dispatches new jobs while earlier jobs are still evaluating over
    /// older versions.
    pub fn snapshot(&self) -> ArenaSnapshot {
        ArenaSnapshot { formulas: self.formulas.freeze(), terms: self.terms.freeze() }
    }
}

/// The version of an arena or snapshot: how many formula and term nodes are
/// visible.  Ids are dense, so `FormulaId::index() < version.formulas` is
/// exactly "this id resolves in that version".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArenaVersion {
    /// Number of formula nodes visible.
    pub formulas: usize,
    /// Number of term nodes visible.
    pub terms: usize,
}

/// Read-only access to interned nodes: what an evaluator actually needs.
///
/// Implemented by [`FormulaArena`] (single-threaded callers keep borrowing the
/// arena directly) and by [`ArenaSnapshot`] (worker threads read a frozen
/// view).  [`MemoEvaluator`] is generic over this trait, defaulting to
/// `FormulaArena` so existing call sites are unchanged.
pub trait ArenaRead {
    /// The node behind a formula id.
    fn formula_node(&self, id: FormulaId) -> &FormulaNode;
    /// The node behind a term id.
    fn term_node(&self, id: TermId) -> &TermNode;
}

impl ArenaRead for FormulaArena {
    fn formula_node(&self, id: FormulaId) -> &FormulaNode {
        FormulaArena::formula_node(self, id)
    }

    fn term_node(&self, id: TermId) -> &TermNode {
        FormulaArena::term_node(self, id)
    }
}

/// One version of a [`FormulaArena`]: a frozen, read-only view of the nodes
/// interned before it was taken.
///
/// Created by [`FormulaArena::snapshot`] in O(1); cloning is two `Arc`
/// bumps.  The snapshot shares the arena's chunks rather than copying them —
/// the arena's copy-on-write appends guarantee the shared prefix never
/// changes underneath it.  It drops the interning hash maps — it can only
/// *resolve* ids, not mint new ones — which is exactly the contract of
/// shared-nothing parallel evaluation: intern on the session side, evaluate
/// everywhere, at whatever version each job was dispatched with.
#[derive(Clone, Debug)]
pub struct ArenaSnapshot {
    formulas: FrozenStore<FormulaNode>,
    terms: FrozenStore<TermNode>,
}

impl ArenaSnapshot {
    /// Number of formula nodes visible in the snapshot.
    pub fn formula_count(&self) -> usize {
        self.formulas.len()
    }

    /// Number of term nodes visible in the snapshot.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The version this snapshot was taken at: exactly the ids it resolves.
    pub fn version(&self) -> ArenaVersion {
        ArenaVersion { formulas: self.formulas.len(), terms: self.terms.len() }
    }
}

impl ArenaRead for ArenaSnapshot {
    fn formula_node(&self, id: FormulaId) -> &FormulaNode {
        self.formulas.get(id.0 as usize)
    }

    fn term_node(&self, id: TermId) -> &TermNode {
        self.terms.get(id.0 as usize)
    }
}

/// A fast multiply-xor hasher (FxHash-style) for the small `Copy` memo keys;
/// SipHash's DoS resistance buys nothing here and costs a lot in the
/// per-node-visit hot path.
#[derive(Clone, Copy, Default)]
struct MemoHasher {
    hash: u64,
}

impl MemoHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MemoHasher {
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
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
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

type MemoMap<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

/// Interned environments: a canonical, deduplicated rendering of data-variable
/// bindings, so that memo keys stay `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct EnvId(u32);

const EMPTY_ENV: EnvId = EnvId(0);

#[derive(Debug, Default)]
struct EnvInterner {
    /// Canonical bindings per id; index 0 is the empty environment.
    envs: Vec<Vec<(String, Value)>>,
    ids: HashMap<Vec<(String, Value)>, EnvId>,
}

impl EnvInterner {
    fn new() -> EnvInterner {
        let mut interner = EnvInterner::default();
        interner.envs.push(Vec::new());
        interner.ids.insert(Vec::new(), EMPTY_ENV);
        interner
    }

    fn bindings(&self, id: EnvId) -> &[(String, Value)] {
        &self.envs[id.0 as usize]
    }

    fn get<'a>(&'a self, id: EnvId, name: &str) -> Option<&'a Value> {
        let bindings = self.bindings(id);
        bindings.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| &bindings[i].1)
    }

    /// The environment equal to `id` with `name` (re)bound to `value`.
    fn bind(&mut self, id: EnvId, name: &str, value: &Value) -> EnvId {
        let mut bindings = self.bindings(id).to_vec();
        match bindings.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => bindings[i].1 = value.clone(),
            Err(i) => bindings.insert(i, (name.to_string(), value.clone())),
        }
        if let Some(&existing) = self.ids.get(&bindings) {
            return existing;
        }
        let fresh = EnvId(u32::try_from(self.envs.len()).expect("environment interner overflow"));
        self.envs.push(bindings.clone());
        self.ids.insert(bindings, fresh);
        fresh
    }
}

/// Memoization counters of a [`MemoEvaluator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Memo-table hits (verdicts reused rather than recomputed).
    pub hits: u64,
    /// Memo-table misses (verdicts computed and stored).
    pub misses: u64,
}

impl MemoStats {
    /// Folds another evaluator's counters into this one — how the per-worker
    /// statistics of a sharded check are combined at join, and how
    /// [`crate::session::Session`] accumulates counters across requests.
    pub fn merge(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl std::ops::AddAssign for MemoStats {
    fn add_assign(&mut self, other: MemoStats) {
        self.merge(other);
    }
}

/// Evaluates interned formulas over concrete computations, memoizing every
/// subformula verdict on `(FormulaId, Interval, environment)` and every
/// interval construction on `(TermId, Interval, direction, environment)`.
///
/// The evaluator is reusable across traces: [`MemoEvaluator::check`] clears
/// the per-trace memo tables but keeps their allocations and the interned
/// environments, which is what makes it cheap inside the bounded checker's
/// enumeration loop.
///
/// The evaluator is generic over [`ArenaRead`]: single-threaded code borrows
/// the [`FormulaArena`] itself (the default), worker threads borrow a
/// per-worker clone of an [`ArenaSnapshot`].  Either way the memo tables are
/// private to the evaluator, so concurrent evaluators never contend.
#[derive(Debug)]
pub struct MemoEvaluator<'a, A: ArenaRead = FormulaArena> {
    arena: &'a A,
    memo: MemoMap<(FormulaId, Interval, EnvId), bool>,
    construct_memo: MemoMap<(TermId, Interval, Dir, EnvId), Constructed>,
    envs: EnvInterner,
    stats: MemoStats,
    explicit_domain: Option<Vec<Value>>,
    /// Per-formula "contains a quantifier" cache; when a formula has none, the
    /// per-trace value domain is never computed (hot loops stay allocation-free).
    needs_domain: MemoMap<FormulaId, bool>,
}

impl<'a, A: ArenaRead> MemoEvaluator<'a, A> {
    /// Creates a memoized evaluator over an arena or snapshot. The quantifier
    /// domain defaults to each checked trace's value domain.
    pub fn new(arena: &'a A) -> MemoEvaluator<'a, A> {
        MemoEvaluator {
            arena,
            memo: MemoMap::default(),
            construct_memo: MemoMap::default(),
            envs: EnvInterner::new(),
            stats: MemoStats::default(),
            explicit_domain: None,
            needs_domain: MemoMap::default(),
        }
    }

    /// Uses an explicit quantifier domain instead of each trace's value domain.
    pub fn with_domain(mut self, domain: Vec<Value>) -> MemoEvaluator<'a, A> {
        self.explicit_domain = Some(domain);
        self
    }

    /// The memoization counters accumulated so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Satisfaction of `formula` by the whole computation (`⟨0, ∞⟩ ⊨ formula`).
    pub fn check(&mut self, trace: &Trace, formula: FormulaId) -> bool {
        self.memo.clear();
        self.construct_memo.clear();
        let quantified = self.formula_needs_domain(formula);
        let domain = match &self.explicit_domain {
            Some(d) => d.clone(),
            None if quantified => trace.value_domain(),
            None => Vec::new(),
        };
        let cx = TraceCx { trace, domain: &domain };
        self.eval(&cx, formula, Interval::unbounded(0), EMPTY_ENV)
    }

    /// Checks several formulas against the *same* computation, sharing the
    /// memo tables across them — subformulas common to two formulas (explicit
    /// in the arena) are evaluated once, not once per formula.
    pub fn check_all(
        &mut self,
        trace: &Trace,
        formulas: impl IntoIterator<Item = FormulaId>,
    ) -> Vec<bool> {
        self.memo.clear();
        self.construct_memo.clear();
        let mut domain: Option<Vec<Value>> = None;
        formulas
            .into_iter()
            .map(|id| {
                let quantified = self.formula_needs_domain(id);
                if domain.is_none() {
                    domain = Some(match &self.explicit_domain {
                        Some(d) => d.clone(),
                        None if quantified => trace.value_domain(),
                        None => Vec::new(),
                    });
                } else if self.explicit_domain.is_none()
                    && quantified
                    && domain.as_ref().is_some_and(Vec::is_empty)
                {
                    domain = Some(trace.value_domain());
                }
                let cx = TraceCx { trace, domain: domain.as_deref().unwrap_or(&[]) };
                self.eval(&cx, id, Interval::unbounded(0), EMPTY_ENV)
            })
            .collect()
    }

    /// Whether the formula contains any quantifier (cached per id).
    fn formula_needs_domain(&mut self, id: FormulaId) -> bool {
        if let Some(&known) = self.needs_domain.get(&id) {
            return known;
        }
        let answer = match self.arena.formula_node(id) {
            FormulaNode::True | FormulaNode::False | FormulaNode::Pred(_) => false,
            FormulaNode::Forall(_, _) | FormulaNode::Exists(_, _) => true,
            FormulaNode::Not(a) | FormulaNode::Always(a) | FormulaNode::Eventually(a) => {
                self.formula_needs_domain(*a)
            }
            FormulaNode::And(a, b) | FormulaNode::Or(a, b) => {
                let (a, b) = (*a, *b);
                self.formula_needs_domain(a) || self.formula_needs_domain(b)
            }
            FormulaNode::In(t, a) => {
                let (t, a) = (*t, *a);
                self.term_needs_domain(t) || self.formula_needs_domain(a)
            }
        };
        self.needs_domain.insert(id, answer);
        answer
    }

    fn term_needs_domain(&mut self, id: TermId) -> bool {
        match *self.arena.term_node(id) {
            TermNode::Event(f) => self.formula_needs_domain(f),
            TermNode::Begin(t) | TermNode::End(t) | TermNode::Must(t) => self.term_needs_domain(t),
            TermNode::Forward(a, b) | TermNode::Backward(a, b) => {
                a.is_some_and(|t| self.term_needs_domain(t))
                    || b.is_some_and(|t| self.term_needs_domain(t))
            }
        }
    }

    fn eval(&mut self, cx: &TraceCx<'_>, id: FormulaId, interval: Interval, env: EnvId) -> bool {
        let interval = cx.canonicalize(interval);
        let arena = self.arena;
        // Structurally cheap nodes are evaluated directly: a memo probe costs
        // as much as the node itself, and their expensive descendants are
        // memoized in their own right.
        match arena.formula_node(id) {
            FormulaNode::True => return true,
            FormulaNode::False => return false,
            FormulaNode::Pred(pred) => return self.eval_pred(cx, pred, interval.lo, env),
            FormulaNode::Not(a) => return !self.eval(cx, *a, interval, env),
            FormulaNode::And(a, b) => {
                return self.eval(cx, *a, interval, env) && self.eval(cx, *b, interval, env)
            }
            FormulaNode::Or(a, b) => {
                return self.eval(cx, *a, interval, env) || self.eval(cx, *b, interval, env)
            }
            _ => {}
        }
        let key = (id, interval, env);
        if let Some(&verdict) = self.memo.get(&key) {
            self.stats.hits += 1;
            return verdict;
        }
        self.stats.misses += 1;
        let verdict = match arena.formula_node(id) {
            FormulaNode::True
            | FormulaNode::False
            | FormulaNode::Pred(_)
            | FormulaNode::Not(_)
            | FormulaNode::And(_, _)
            | FormulaNode::Or(_, _) => unreachable!("handled above"),
            FormulaNode::Always(a) => cx
                .suffix_positions(interval)
                .all(|k| self.eval(cx, *a, Interval { lo: k, hi: interval.hi }, env)),
            FormulaNode::Eventually(a) => cx
                .suffix_positions(interval)
                .any(|k| self.eval(cx, *a, Interval { lo: k, hi: interval.hi }, env)),
            FormulaNode::In(term, a) => {
                match self.construct(cx, *term, interval, Dir::Forward, env) {
                    Constructed::Violated => false,
                    Constructed::NotFound => true,
                    Constructed::Found(sub) => self.eval(cx, *a, sub, env),
                }
            }
            FormulaNode::Forall(var, a) => (0..cx.domain.len()).all(|i| {
                let bound = self.envs.bind(env, var, &cx.domain[i]);
                self.eval(cx, *a, interval, bound)
            }),
            FormulaNode::Exists(var, a) => (0..cx.domain.len()).any(|i| {
                let bound = self.envs.bind(env, var, &cx.domain[i]);
                self.eval(cx, *a, interval, bound)
            }),
        };
        self.memo.insert(key, verdict);
        verdict
    }

    /// The interval-construction function `F(term, context, direction)` over ids.
    fn construct(
        &mut self,
        cx: &TraceCx<'_>,
        id: TermId,
        ctx: Interval,
        dir: Dir,
        env: EnvId,
    ) -> Constructed {
        let ctx = cx.canonicalize(ctx);
        let arena = self.arena;
        // Only event scans are worth memoizing: they loop over trace
        // positions evaluating the event formula twice per step.  The other
        // term constructors are constant glue around their children.
        if let TermNode::Event(event) = *arena.term_node(id) {
            let key = (id, ctx, dir, env);
            if let Some(&built) = self.construct_memo.get(&key) {
                self.stats.hits += 1;
                return built;
            }
            self.stats.misses += 1;
            let built = self.find_event(cx, event, ctx, dir, env);
            self.construct_memo.insert(key, built);
            return built;
        }
        let built = match *arena.term_node(id) {
            TermNode::Event(_) => unreachable!("handled above"),
            TermNode::Begin(inner) => self
                .construct(cx, inner, ctx, dir, env)
                .and_then(|iv| Constructed::Found(Interval::unit(iv.first()))),
            TermNode::End(inner) => self
                .construct(cx, inner, ctx, dir, env)
                .and_then(|iv| Constructed::from_option(iv.last().map(Interval::unit))),
            TermNode::Must(inner) => match self.construct(cx, inner, ctx, dir, env) {
                Constructed::NotFound => Constructed::Violated,
                other => other,
            },
            TermNode::Forward(lhs, rhs) => match (lhs, rhs) {
                (None, None) => Constructed::Found(ctx),
                (Some(i), None) => self.construct(cx, i, ctx, dir, env).and_then(|iv| {
                    Constructed::from_option(iv.last().map(|lo| Interval { lo, hi: ctx.hi }))
                }),
                (None, Some(j)) => self.construct(cx, j, ctx, Dir::Forward, env).and_then(|iv| {
                    Constructed::from_option(
                        iv.last().map(|hi| Interval::bounded(ctx.lo, hi.max(ctx.lo))),
                    )
                }),
                (Some(i), Some(j)) => {
                    // F(I ⇒ J, ctx, d) = F(⇒ J, F(I ⇒, ctx, d), F). Thanks to
                    // hash-consing the derived half-open terms are interned
                    // once and their constructions memoized like any other.
                    match self.construct(cx, i, ctx, dir, env).and_then(|iv| {
                        Constructed::from_option(iv.last().map(|lo| Interval { lo, hi: ctx.hi }))
                    }) {
                        Constructed::Found(mid) => {
                            let mid = cx.canonicalize(mid);
                            self.construct(cx, j, mid, Dir::Forward, env).and_then(|iv| {
                                Constructed::from_option(
                                    iv.last().map(|hi| Interval::bounded(mid.lo, hi.max(mid.lo))),
                                )
                            })
                        }
                        other => other,
                    }
                }
            },
            TermNode::Backward(lhs, rhs) => match (lhs, rhs) {
                (None, None) => Constructed::Found(ctx),
                (Some(i), None) => self.construct(cx, i, ctx, Dir::Backward, env).and_then(|iv| {
                    Constructed::from_option(iv.last().map(|lo| Interval { lo, hi: ctx.hi }))
                }),
                (None, Some(j)) => self.construct(cx, j, ctx, dir, env).and_then(|iv| {
                    Constructed::from_option(
                        iv.last().map(|hi| Interval::bounded(ctx.lo, hi.max(ctx.lo))),
                    )
                }),
                (Some(i), Some(j)) => {
                    // F(I ⇐ J, ctx, d) = F(I ⇐, F(⇐ J, ctx, d), F).
                    match self.construct(cx, j, ctx, dir, env).and_then(|iv| {
                        Constructed::from_option(
                            iv.last().map(|hi| Interval::bounded(ctx.lo, hi.max(ctx.lo))),
                        )
                    }) {
                        Constructed::Found(mid) => {
                            let mid = cx.canonicalize(mid);
                            self.construct(cx, i, mid, Dir::Backward, env).and_then(|iv| {
                                Constructed::from_option(
                                    iv.last().map(|lo| Interval { lo, hi: mid.hi }),
                                )
                            })
                        }
                        other => other,
                    }
                }
            },
        };
        built
    }

    /// Locates the first (or last) change of `event` from false to true within `ctx`.
    fn find_event(
        &mut self,
        cx: &TraceCx<'_>,
        event: FormulaId,
        ctx: Interval,
        dir: Dir,
        env: EnvId,
    ) -> Constructed {
        let (scan_hi, loop_region) = cx.event_scan_bounds(ctx);
        // The first rise for a forward scan, the last one for a backward scan.
        let mut found: Option<usize> = None;
        let mut recurring = false;
        let mut k = ctx.lo + 1;
        while k <= scan_hi {
            let before = Interval { lo: k - 1, hi: ctx.hi };
            let here = Interval { lo: k, hi: ctx.hi };
            if !self.eval(cx, event, before, env) && self.eval(cx, event, here, env) {
                if let Some(region_start) = loop_region {
                    if k > region_start {
                        recurring = true;
                    }
                }
                found = Some(k);
                if dir == Dir::Forward {
                    break;
                }
            }
            k += 1;
        }
        if dir == Dir::Backward && recurring {
            // Infinitely many occurrences: max is undefined.
            return Constructed::NotFound;
        }
        match found {
            Some(k) => Constructed::Found(Interval::bounded(k - 1, k)),
            None => Constructed::NotFound,
        }
    }

    /// Evaluates a state predicate at a position of the trace, resolving data
    /// variables in the interned environment. No values are cloned.
    fn eval_pred(&self, cx: &TraceCx<'_>, pred: &Pred, position: usize, env: EnvId) -> bool {
        let state = cx.trace.state(position);
        match pred {
            Pred::Prop { name, args } => state.props().any(|p| {
                p.name == *name
                    && p.args.len() == args.len()
                    && p.args.iter().zip(args).all(|(held, wanted)| match wanted {
                        Arg::Value(v) => held == v,
                        Arg::Var(x) => self.envs.get(env, x) == Some(held),
                    })
            }),
            Pred::Cmp { lhs, op, rhs } => {
                fn lookup<'r>(
                    expr: &'r Expr,
                    state: &'r crate::state::State,
                    envs: &'r EnvInterner,
                    env: EnvId,
                ) -> Option<&'r Value> {
                    match expr {
                        Expr::StateVar(name) => state.var(name),
                        Expr::DataVar(name) => envs.get(env, name),
                        Expr::Lit(v) => Some(v),
                    }
                }
                let (Some(l), Some(r)) =
                    (lookup(lhs, state, &self.envs, env), lookup(rhs, state, &self.envs, env))
                else {
                    return false;
                };
                match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        let (Some(a), Some(b)) = (l.as_int(), r.as_int()) else { return false };
                        match op {
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }
}

/// Per-trace context shared by the evaluation recursion.
struct TraceCx<'t> {
    trace: &'t Trace,
    domain: &'t [Value],
}

impl TraceCx<'_> {
    fn canonicalize(&self, interval: Interval) -> Interval {
        match interval.hi {
            Endpoint::Infinite => {
                Interval { lo: self.trace.canonical(interval.lo), hi: interval.hi }
            }
            Endpoint::At(_) => interval,
        }
    }

    fn event_scan_bounds(&self, ctx: Interval) -> (usize, Option<usize>) {
        match ctx.hi {
            Endpoint::At(j) => {
                let cap = match self.trace.extension() {
                    Extension::Stutter => j.min(self.trace.len().saturating_sub(1)),
                    Extension::Loop(_) => j,
                };
                (cap, None)
            }
            Endpoint::Infinite => match self.trace.extension() {
                Extension::Stutter => (self.trace.len().saturating_sub(1), None),
                Extension::Loop(start) => {
                    let period = self.trace.len() - start;
                    (ctx.lo.max(start) + period, Some(start))
                }
            },
        }
    }

    fn suffix_positions(&self, interval: Interval) -> std::ops::RangeInclusive<usize> {
        let hi = match interval.hi {
            Endpoint::At(j) => j,
            Endpoint::Infinite => match self.trace.extension() {
                Extension::Stutter => interval.lo.max(self.trace.len().saturating_sub(1)),
                Extension::Loop(start) => {
                    let period = self.trace.len() - start;
                    interval.lo.max(start) + period - 1
                }
            },
        };
        interval.lo..=hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::semantics::Evaluator;
    use crate::state::{Prop, State};

    fn trace_of(rows: &[&[&str]]) -> Trace {
        Trace::finite(
            rows.iter()
                .map(|props| {
                    let mut state = State::new();
                    for p in *props {
                        state.insert(Prop::plain(*p));
                    }
                    state
                })
                .collect(),
        )
    }

    #[test]
    fn interning_is_idempotent_and_shares_subterms() {
        let mut arena = FormulaArena::new();
        let f = prop("D").eventually().within(event(prop("A")).then(event(prop("B"))));
        let id1 = arena.intern(&f);
        let id2 = arena.intern(&f);
        assert_eq!(id1, id2);
        let nodes_before = arena.formula_count();
        // A formula sharing the A/B events adds only the genuinely new nodes.
        let g = prop("D").always().within(event(prop("A")).then(event(prop("B"))));
        arena.intern(&g);
        assert!(arena.formula_count() <= nodes_before + 2, "subterms must be shared");
    }

    #[test]
    fn extract_round_trips() {
        let mut arena = FormulaArena::new();
        let formulas = [
            prop("P"),
            prop("P").not().and(prop("Q")).or(Formula::True),
            eventually(prop("D")).within(fwd(event(prop("A")), must(event(prop("B"))))),
            always(prop_args("got", [var("x")])).forall("x"),
            prop("S").within(begin(bwd(event(prop("X")), event(prop("C"))))),
        ];
        for f in formulas {
            let id = arena.intern(&f);
            assert_eq!(arena.extract(id), f);
        }
    }

    #[test]
    fn memo_evaluator_agrees_with_the_reference_semantics() {
        let mut arena = FormulaArena::new();
        let formulas = [
            prop("D").eventually().within(event(prop("A")).then(event(prop("B")))),
            prop("D").eventually().within(event(prop("A")).then(must(event(prop("B"))))),
            prop("D").eventually().within(event(prop("X")).back_from(event(prop("C")))),
            prop("P").always(),
            occurs(event(prop("P"))),
            Formula::False.within(end(event(prop("A")).onward())),
        ];
        let traces = [
            trace_of(&[&[], &["A"], &["A", "D"], &["A", "B"]]),
            trace_of(&[&[], &["A"], &["A"]]),
            trace_of(&[&["P"], &["P"], &["P", "Q"]]),
            trace_of(&[&["D"], &["X"], &[], &["X"], &["X", "C"]]),
            Trace::lasso(vec![State::new(), State::new().with("P")], 0),
        ];
        let ids: Vec<FormulaId> = formulas.iter().map(|f| arena.intern(f)).collect();
        let mut memo = MemoEvaluator::new(&arena);
        for trace in &traces {
            let reference = Evaluator::new(trace);
            for (f, id) in formulas.iter().zip(&ids) {
                assert_eq!(
                    memo.check(trace, *id),
                    reference.check(f),
                    "memo and reference disagree on {f} over {trace}"
                );
            }
        }
    }

    #[test]
    fn shared_subterms_produce_memo_hits() {
        // V1 shape: [I]p ∧ [I]q re-uses the event scans of I = A ⇒ B.
        let mut arena = FormulaArena::new();
        let i = || fwd(event(prop("A")), event(prop("B")));
        let f = prop("P").within(i()).and(prop("Q").within(i()));
        let id = arena.intern(&f);
        let trace = trace_of(&[&[], &["A", "P", "Q"], &["A"], &["A", "B"]]);
        let mut memo = MemoEvaluator::new(&arena);
        assert!(memo.check(&trace, id));
        assert!(memo.stats().hits > 0, "the second [I] must reuse the first I's event scans");
    }

    #[test]
    fn arena_not_folds_constants() {
        let mut arena = FormulaArena::new();
        let t = arena.formula(FormulaNode::True);
        let f = arena.formula(FormulaNode::False);
        assert_eq!(arena.not(t), f);
        let p = arena.intern(&prop("P"));
        let np = arena.not(p);
        assert_eq!(arena.not(np), p);
    }

    #[test]
    fn snapshots_are_shareable_and_resolve_the_same_nodes() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArenaSnapshot>();
        assert_send_sync::<MemoEvaluator<'_, ArenaSnapshot>>();
        assert_send_sync::<crate::semantics::Env>();
        assert_send_sync::<Trace>();

        let mut arena = FormulaArena::new();
        let f = prop("D").eventually().within(event(prop("A")).then(event(prop("B"))));
        let id = arena.intern(&f);
        let snapshot = arena.snapshot();
        assert_eq!(snapshot.formula_count(), arena.formula_count());
        assert_eq!(snapshot.term_count(), arena.term_count());

        // Two workers evaluate through clones of the snapshot and agree with
        // the arena-borrowing evaluator.
        let trace = trace_of(&[&[], &["A"], &["A", "D"], &["A", "B"]]);
        let expected = MemoEvaluator::new(&arena).check(&trace, id);
        let verdicts = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let local = snapshot.clone();
                    let trace = &trace;
                    scope.spawn(move || MemoEvaluator::new(&local).check(trace, id))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(verdicts, vec![expected; 2]);
    }

    #[test]
    fn snapshots_are_isolated_versions_of_an_append_only_id_space() {
        let mut arena = FormulaArena::new();
        let first = arena.intern(&prop("P").always());
        let v1 = arena.snapshot();
        assert_eq!(v1.version(), arena.version());

        // Interning past the snapshot (enough to cross a chunk boundary and
        // force tail copy-on-write several times over) must not disturb it.
        let before = v1.version();
        let mut later = Vec::new();
        for i in 0..(super::CHUNK * 2 + 7) {
            later.push(arena.intern(&prop(format!("Q{i}")).eventually()));
        }
        let v2 = arena.snapshot();
        assert_eq!(v1.version(), before, "an old snapshot never grows");
        assert!(v2.version() > v1.version());

        // Old ids resolve to bit-identical nodes in the arena and both
        // versions; new ids resolve only where they exist.
        let node = arena.formula_node(first).clone();
        assert_eq!(*ArenaRead::formula_node(&v1, first), node);
        assert_eq!(*ArenaRead::formula_node(&v2, first), node);
        for &id in &later {
            assert!(id.index() < v2.version().formulas);
            assert_eq!(ArenaRead::formula_node(&v2, id), arena.formula_node(id));
        }
        assert!(
            later.iter().all(|id| id.index() >= v1.version().formulas),
            "nodes interned after v1 are outside v1's id space"
        );

        // And both versions evaluate their ids identically to the live arena.
        let trace = trace_of(&[&["P"], &["P"]]);
        assert_eq!(
            MemoEvaluator::new(&v1).check(&trace, first),
            MemoEvaluator::new(&arena).check(&trace, first)
        );
    }

    #[test]
    fn memo_stats_merge_adds_counters() {
        let mut a = MemoStats { hits: 3, misses: 5 };
        a.merge(MemoStats { hits: 10, misses: 1 });
        assert_eq!(a, MemoStats { hits: 13, misses: 6 });
        let mut b = MemoStats::default();
        b += a;
        assert_eq!(b, a);
    }

    #[test]
    fn quantifiers_use_the_trace_domain() {
        let mut arena = FormulaArena::new();
        let f = prop_args("atEnq", [var("a")]).eventually().forall("a");
        let id = arena.intern(&f);
        let trace = Trace::finite(vec![
            State::new().with_args("atEnq", [1i64]),
            State::new().with_args("atEnq", [2i64]),
        ]);
        let mut memo = MemoEvaluator::new(&arena);
        assert!(memo.check(&trace, id));
        let mut with_domain = MemoEvaluator::new(&arena).with_domain(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
        ]);
        assert!(!with_domain.check(&trace, id), "value 3 never enqueued");
    }
}
