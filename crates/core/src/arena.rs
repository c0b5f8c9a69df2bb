//! Hash-consed formula arena and the interval engine over it.
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
//! * one interval engine evaluates interned formulas.  A pass evaluates a
//!   formula over up to 64 computations of the same length and extension,
//!   with a `u64` truth mask in place of each `bool`, memoizing verdicts on
//!   `(FormulaId, Interval, environment)` so shared subterms — made explicit
//!   by hash-consing — are evaluated once per (interval, binding) context
//!   rather than once per syntactic occurrence.  Its two uses differ only
//!   in where a pass reads its state predicates: [`MemoEvaluator`] checks
//!   one concrete trace (the `Trace` and `Explore` backends, spec checks)
//!   as a one-lane pass over that trace's states, and the bounded sweep
//!   checks 64 enumerated computations per pass from per-position word
//!   masks;
//! * [`ArenaSnapshot`] is a frozen, `Send + Sync` *version* of an arena's
//!   nodes.  The arena's storage is multiversion — an append-only store of
//!   `Arc`-shared chunks — so taking a snapshot is O(1) (one `Arc` bump per
//!   store) and never copies nodes; interning *after* a snapshot leaves every
//!   outstanding snapshot untouched, because the id space is append-only and
//!   a writer that would mutate a shared chunk copies it first
//!   ([`Arc::make_mut`]).  Snapshotting is how the sharded engines of
//!   [`crate::session`] hand one interned formula to many worker threads:
//!   each worker owns a cheap clone of the snapshot plus its private memo
//!   tables, so evaluation is shared-nothing — no locks anywhere on the hot
//!   path — and the per-worker [`MemoStats`] are [merged](MemoStats::merge)
//!   at join.  Because snapshots are this cheap, new formulas can be
//!   interned and dispatched *while* earlier checks are still running over
//!   older versions — there is no stop-the-world barrier between interning
//!   and checking.
//!
//! The engine implements exactly the satisfaction relation of
//! [`crate::semantics::Evaluator`]; the two are cross-checked by the property
//! suite in `tests/arena.rs`, by the bounded module's tests (every lane of a
//! sweep pass against a per-computation scan) and by the differential fuzz
//! oracle's `sweep` and `explore-vs-reference` invariants.

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::interval::{Endpoint, Interval};
use crate::semantics::Dir;
use crate::state::{Prop, State};
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// A [`FormulaNode`] with its owned parts borrowed: the key
/// [`FormulaArena::intern`] probes with, so re-interning a formula the arena
/// already holds clones no predicate or variable name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey<'a> {
    True,
    False,
    Pred(&'a Pred),
    Not(FormulaId),
    And(FormulaId, FormulaId),
    Or(FormulaId, FormulaId),
    Always(FormulaId),
    Eventually(FormulaId),
    In(TermId, FormulaId),
    Forall(&'a str, FormulaId),
    Exists(&'a str, FormulaId),
}

impl NodeKey<'_> {
    /// The owned node.
    fn to_node(self) -> FormulaNode {
        match self {
            NodeKey::True => FormulaNode::True,
            NodeKey::False => FormulaNode::False,
            NodeKey::Pred(p) => FormulaNode::Pred(p.clone()),
            NodeKey::Not(a) => FormulaNode::Not(a),
            NodeKey::And(a, b) => FormulaNode::And(a, b),
            NodeKey::Or(a, b) => FormulaNode::Or(a, b),
            NodeKey::Always(a) => FormulaNode::Always(a),
            NodeKey::Eventually(a) => FormulaNode::Eventually(a),
            NodeKey::In(t, a) => FormulaNode::In(t, a),
            NodeKey::Forall(v, a) => FormulaNode::Forall(v.to_string(), a),
            NodeKey::Exists(v, a) => FormulaNode::Exists(v.to_string(), a),
        }
    }
}

/// What the arena's formula index hashes and compares: an owned node and a
/// borrowed key look the same, so the index can be probed with either.
trait AsNodeKey {
    fn key(&self) -> NodeKey<'_>;
}

impl AsNodeKey for FormulaNode {
    fn key(&self) -> NodeKey<'_> {
        match self {
            FormulaNode::True => NodeKey::True,
            FormulaNode::False => NodeKey::False,
            FormulaNode::Pred(p) => NodeKey::Pred(p),
            FormulaNode::Not(a) => NodeKey::Not(*a),
            FormulaNode::And(a, b) => NodeKey::And(*a, *b),
            FormulaNode::Or(a, b) => NodeKey::Or(*a, *b),
            FormulaNode::Always(a) => NodeKey::Always(*a),
            FormulaNode::Eventually(a) => NodeKey::Eventually(*a),
            FormulaNode::In(t, a) => NodeKey::In(*t, *a),
            FormulaNode::Forall(v, a) => NodeKey::Forall(v, *a),
            FormulaNode::Exists(v, a) => NodeKey::Exists(v, *a),
        }
    }
}

impl AsNodeKey for NodeKey<'_> {
    fn key(&self) -> NodeKey<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsNodeKey + 'a> for FormulaNode {
    fn borrow(&self) -> &(dyn AsNodeKey + 'a) {
        self
    }
}

impl Hash for dyn AsNodeKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn AsNodeKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn AsNodeKey + '_ {}

// Hashes as its borrowed key, so the formula index can be probed with one.
impl Hash for FormulaNode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
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
        self.insert_formula(node)
    }

    /// Stores a node the arena does not hold yet under the next id.
    fn insert_formula(&mut self, node: FormulaNode) -> FormulaId {
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
        let key = match formula {
            Formula::True => NodeKey::True,
            Formula::False => NodeKey::False,
            Formula::Pred(p) => NodeKey::Pred(p),
            Formula::Not(a) => NodeKey::Not(self.intern(a)),
            Formula::And(a, b) => NodeKey::And(self.intern(a), self.intern(b)),
            Formula::Or(a, b) => NodeKey::Or(self.intern(a), self.intern(b)),
            Formula::Always(a) => NodeKey::Always(self.intern(a)),
            Formula::Eventually(a) => NodeKey::Eventually(self.intern(a)),
            Formula::In(term, a) => NodeKey::In(self.intern_term(term), self.intern(a)),
            Formula::Forall(v, a) => NodeKey::Forall(v, self.intern(a)),
            Formula::Exists(v, a) => NodeKey::Exists(v, self.intern(a)),
        };
        match self.formula_ids.get(&key as &dyn AsNodeKey) {
            Some(&id) => id,
            None => self.insert_formula(key.to_node()),
        }
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
pub(crate) struct EnvId(u32);

const EMPTY_ENV: EnvId = EnvId(0);

/// Starts empty: the empty environment [`EMPTY_ENV`] is implicit, so an
/// unquantified check allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct EnvInterner {
    /// Canonical bindings of environment `i + 1` at index `i`, each binding
    /// at least one variable.
    envs: Vec<Vec<(String, Value)>>,
    ids: HashMap<Vec<(String, Value)>, EnvId>,
    /// The answers of earlier binds, under a hash of `(env, var, value)`,
    /// so a repeated bind builds no binding list.
    binds: MemoMap<u64, EnvId>,
}

impl EnvInterner {
    fn bindings(&self, id: EnvId) -> &[(String, Value)] {
        match id.0.checked_sub(1) {
            Some(at) => &self.envs[at as usize],
            None => &[],
        }
    }

    fn get<'a>(&'a self, id: EnvId, name: &str) -> Option<&'a Value> {
        let bindings = self.bindings(id);
        bindings.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| &bindings[i].1)
    }

    /// The environment equal to `id` with `name` (re)bound to `value`.
    ///
    /// A bind answered before is found by its hash and verified against the
    /// answer's bindings, allocating nothing; a first bind (or one whose
    /// hash collides with another's) builds the binding list and interns it.
    fn bind(&mut self, id: EnvId, name: &str, value: &Value) -> EnvId {
        let hash = BuildHasherDefault::<MemoHasher>::default().hash_one((id, name, value));
        if let Some(&known) = self.binds.get(&hash) {
            if self.is_bind(known, id, name, value) {
                return known;
            }
        }
        let mut bindings = self.bindings(id).to_vec();
        match bindings.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => bindings[i].1 = value.clone(),
            Err(i) => bindings.insert(i, (name.to_string(), value.clone())),
        }
        let bound = match self.ids.get(&bindings) {
            Some(&existing) => existing,
            None => {
                let fresh = EnvId(
                    u32::try_from(self.envs.len() + 1).expect("environment interner overflow"),
                );
                self.envs.push(bindings.clone());
                self.ids.insert(bindings, fresh);
                fresh
            }
        };
        self.binds.insert(hash, bound);
        bound
    }

    /// Whether environment `bound` is `id` with `name` (re)bound to `value`.
    fn is_bind(&self, bound: EnvId, id: EnvId, name: &str, value: &Value) -> bool {
        let base = self.bindings(id);
        let below = base.iter().take_while(|(n, _)| n.as_str() < name);
        let above = base.iter().skip_while(|(n, _)| n.as_str() <= name);
        let expected = below
            .map(|(n, v)| (n.as_str(), v))
            .chain(std::iter::once((name, value)))
            .chain(above.map(|(n, v)| (n.as_str(), v)));
        self.bindings(bound).iter().map(|(n, v)| (n.as_str(), v)).eq(expected)
    }
}

/// Memo-table counters of the interval engine: hits are verdicts or event
/// scans reused rather than recomputed, misses the ones computed and
/// stored.  A [`MemoEvaluator`] and the bounded sweep report them as a
/// check's `memo`.
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

/// Checks interned formulas over concrete computations.
///
/// Each check is a one-lane pass of the interval engine behind the bounded
/// sweep (see the [module docs](self)), reading its predicates from the
/// checked trace's states.  The engine memoizes every subformula verdict on
/// `(FormulaId, Interval, environment)` and every event scan on
/// `(TermId, Interval, direction, environment)`.
///
/// The evaluator is reusable across traces: a check clears the memo tables
/// but keeps their allocations and the interned environments, and borrows
/// the explicit quantifier domain, if any, rather than copying it.  Without
/// one, the domain is the checked trace's value domain, computed at the
/// first quantifier the check reaches.
///
/// The evaluator is generic over [`ArenaRead`]: single-threaded code borrows
/// the [`FormulaArena`] itself (the default), worker threads borrow a
/// per-worker clone of an [`ArenaSnapshot`].  Either way the memo tables are
/// private to the evaluator, so concurrent evaluators never contend.
#[derive(Debug)]
pub struct MemoEvaluator<'a, A: ArenaRead = FormulaArena> {
    arena: &'a A,
    domain: Option<Vec<Value>>,
    tables: MemoTables,
}

impl<'a, A: ArenaRead> MemoEvaluator<'a, A> {
    /// Creates a memoized evaluator over an arena or snapshot. The quantifier
    /// domain defaults to each checked trace's value domain.
    pub fn new(arena: &'a A) -> MemoEvaluator<'a, A> {
        MemoEvaluator { arena, domain: None, tables: MemoTables::default() }
    }

    /// Uses an explicit quantifier domain instead of each trace's value domain.
    pub fn with_domain(mut self, domain: Vec<Value>) -> MemoEvaluator<'a, A> {
        self.domain = Some(domain);
        self
    }

    /// The memoization counters accumulated so far.
    pub fn stats(&self) -> MemoStats {
        self.tables.stats
    }

    /// Satisfaction of `formula` by the whole computation (`⟨0, ∞⟩ ⊨ formula`).
    pub fn check(&mut self, trace: &Trace, formula: FormulaId) -> bool {
        self.pass(trace).satisfying(formula) != 0
    }

    /// Checks several formulas against the *same* computation, sharing the
    /// memo tables across them — subformulas common to two formulas (explicit
    /// in the arena) are evaluated once, not once per formula.
    pub fn check_all(
        &mut self,
        trace: &Trace,
        formulas: impl IntoIterator<Item = FormulaId>,
    ) -> Vec<bool> {
        let mut pass = self.pass(trace);
        formulas.into_iter().map(|id| pass.satisfying(id) != 0).collect()
    }

    /// A one-lane pass over `trace`, on cleared memo tables.
    fn pass<'p>(&'p mut self, trace: &'p Trace) -> BlockEvaluator<'p, A, &'p Trace> {
        self.tables.clear();
        BlockEvaluator {
            arena: self.arena,
            letters: trace,
            domain: self.domain.as_deref().map(Cow::Borrowed),
            tables: &mut self.tables,
            shape: Shape { len: trace.len(), extension: trace.extension() },
            live: 1,
        }
    }
}

/// Whether `pred` holds in `state`, resolving data variables in the
/// interned environment `env`.  No values are cloned.
fn pred_holds(state: &State, pred: &Pred, envs: &EnvInterner, env: EnvId) -> bool {
    match pred {
        Pred::Prop { name, args } => state.props().any(|p| {
            p.name == *name
                && p.args.len() == args.len()
                && p.args.iter().zip(args).all(|(held, wanted)| match wanted {
                    Arg::Value(v) => held == v,
                    Arg::Var(x) => envs.get(env, x) == Some(held),
                })
        }),
        Pred::Cmp { lhs, op, rhs } => {
            fn lookup<'r>(
                expr: &'r Expr,
                state: &'r State,
                envs: &'r EnvInterner,
                env: EnvId,
            ) -> Option<&'r Value> {
                match expr {
                    Expr::StateVar(name) => state.var(name),
                    Expr::DataVar(name) => envs.get(env, name),
                    Expr::Lit(v) => Some(v),
                }
            }
            let (Some(l), Some(r)) = (lookup(lhs, state, envs, env), lookup(rhs, state, envs, env))
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

/// Computations a [`BlockEvaluator`] pass evaluates together: one per bit
/// of a `u64` lane mask.
pub(crate) const LANES: usize = u64::BITS as usize;

/// Where a [`BlockEvaluator`] pass reads its state predicates: the only
/// thing in which a check of one trace differs from a sweep pass.
pub(crate) trait Letters {
    /// The lanes where the predicate node `id`, that is `pred`, holds at
    /// the recorded position `position`, resolving data variables in `env`.
    fn pred(
        &mut self,
        id: FormulaId,
        pred: &Pred,
        position: usize,
        envs: &EnvInterner,
        env: EnvId,
    ) -> u64;

    /// The computations' value domain: the quantifier domain when no
    /// explicit one is given.
    fn value_domain(&self) -> Vec<Value>;
}

/// A concrete trace is a pass of one lane, whose predicates hold or not.
impl Letters for &Trace {
    fn pred(
        &mut self,
        _: FormulaId,
        pred: &Pred,
        position: usize,
        envs: &EnvInterner,
        env: EnvId,
    ) -> u64 {
        if pred_holds(self.state(position), pred, envs, env) {
            !0
        } else {
            0
        }
    }

    fn value_domain(&self) -> Vec<Value> {
        Trace::value_domain(self)
    }
}

/// The words of the computations a sweep pass checks, over plain
/// propositions only: lane `j` asserts `props[i]` at position `p` when bit
/// `j` of the mask [`BlockEvaluator::load`] stored for `(p, i)` is set.
///
/// Such states hold no data values, so an unparameterized predicate reads
/// those masks, a parameterized one never holds, a comparison is evaluated
/// once for all lanes, and the value domain is empty.
pub(crate) struct Words<'a> {
    props: &'a [Prop],
    /// `letters[p * props.len() + i]`: the lanes asserting `props[i]` at
    /// position `p`.
    letters: Vec<u64>,
    /// Per predicate node, the propositions (bit `i` is `props[i]`) that
    /// satisfy it.
    pred_props: MemoMap<FormulaId, u64>,
}

impl Letters for Words<'_> {
    fn pred(
        &mut self,
        id: FormulaId,
        pred: &Pred,
        position: usize,
        envs: &EnvInterner,
        env: EnvId,
    ) -> u64 {
        match pred {
            Pred::Prop { name, args } => {
                let props = self.props;
                let held = *self.pred_props.entry(id).or_insert_with(|| {
                    props
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| args.is_empty() && p.name == *name)
                        .fold(0, |bits, (i, _)| bits | 1 << i)
                });
                let row = position * props.len();
                let mut lanes = 0;
                let mut rest = held;
                while rest != 0 {
                    lanes |= self.letters[row + rest.trailing_zeros() as usize];
                    rest &= rest - 1;
                }
                lanes
            }
            // A comparison reads no proposition: its value is the same in
            // every lane, that of a state holding nothing.
            Pred::Cmp { .. } => {
                if pred_holds(&State::new(), pred, envs, env) {
                    !0
                } else {
                    0
                }
            }
        }
    }

    fn value_domain(&self) -> Vec<Value> {
        Vec::new()
    }
}

/// The reusable tables of a [`BlockEvaluator`]: cleared before each pass,
/// with their allocations, the interned environments and the counters kept.
#[derive(Debug, Default)]
pub(crate) struct MemoTables {
    memo: MemoMap<(FormulaId, Interval, EnvId), u64>,
    construct_memo: MemoMap<(TermId, Interval, Dir, EnvId), Lanes>,
    /// The found intervals of every construction of the pass, each with its
    /// lanes; a [`Lanes`] owns a contiguous range of them.
    groups: Vec<(Interval, u64)>,
    /// Where a construction over several sub-constructions collects its
    /// groups before it moves them into `groups` as one range.
    scratch: Vec<(Interval, u64)>,
    envs: EnvInterner,
    stats: MemoStats,
}

impl MemoTables {
    fn clear(&mut self) {
        self.memo.clear();
        self.construct_memo.clear();
        self.groups.clear();
    }
}

/// The outcome of constructing an interval for every lane of a
/// [`BlockEvaluator`] pass: the lanes of each found interval (a range of
/// the evaluator's group pool), and the lanes for which the construction
/// found nothing or violated a `*` obligation.  Every live lane is in
/// exactly one of them.
#[derive(Clone, Copy, Debug)]
struct Lanes {
    groups: (usize, usize),
    not_found: u64,
    violated: u64,
}

/// The interval engine: evaluates an interned formula over up to [`LANES`]
/// computations at once, each a bit of a `u64` truth mask.
///
/// The computations of one pass share their length and extension, so the
/// intervals an evaluation visits are the same for all of them; only the
/// truth values of their predicates, read from the [`Letters`] `L`,
/// differ.  An interval construction can end at a different interval in
/// each lane, so it yields one lane mask per resulting interval, plus the
/// lanes where it found nothing or violated a `*` obligation.  Verdicts are
/// memoized on `(FormulaId, Interval, EnvId)` with masks as values, and
/// event scans on `(TermId, Interval, Dir, EnvId)`.
///
/// The quantifier domain is the explicit one, if given, and otherwise the
/// letters' value domain, computed at the first quantifier a pass reaches.
///
/// Lanes outside a pass's live mask are don't-cares: their bits in any
/// intermediate mask are unspecified, and the evaluation stops early once
/// every live lane is settled.
pub(crate) struct BlockEvaluator<'a, A: ArenaRead, L: Letters = Words<'a>> {
    arena: &'a A,
    letters: L,
    domain: Option<Cow<'a, [Value]>>,
    tables: &'a mut MemoTables,
    shape: Shape,
    live: u64,
}

impl<'a, A: ArenaRead> BlockEvaluator<'a, A, Words<'a>> {
    /// A sweep evaluator over computations on the alphabet `props`, with
    /// the quantifier domain `domain` and the reusable tables `tables`.
    pub(crate) fn new(
        arena: &'a A,
        tables: &'a mut MemoTables,
        props: &'a [Prop],
        domain: Option<&'a [Value]>,
    ) -> Self {
        BlockEvaluator {
            arena,
            letters: Words { props, letters: Vec::new(), pred_props: MemoMap::default() },
            domain: domain.map(Cow::Borrowed),
            tables,
            shape: Shape { len: 1, extension: Extension::Stutter },
            live: 0,
        }
    }

    /// Loads the words of the next passes: `len` positions, where lane `j`
    /// asserts `props[i]` at position `p` when bit `j` of
    /// `asserted(p, i)` is set.
    pub(crate) fn load(&mut self, len: usize, asserted: impl Fn(usize, usize) -> u64) {
        let width = self.letters.props.len();
        self.letters.letters.clear();
        self.letters.letters.extend((0..len * width).map(|at| asserted(at / width, at % width)));
        self.shape.len = len;
    }

    /// The live lanes whose loaded word, with `extension`, falsifies
    /// `formula` over the whole computation.
    pub(crate) fn failing(&mut self, formula: FormulaId, extension: Extension, live: u64) -> u64 {
        self.tables.clear();
        self.shape.extension = extension;
        self.live = live;
        live & !self.satisfying(formula)
    }
}

impl<A: ArenaRead, L: Letters> BlockEvaluator<'_, A, L> {
    /// The memo-table probes of every pass so far.
    pub(crate) fn stats(&self) -> MemoStats {
        self.tables.stats
    }

    /// The live lanes whose computation satisfies `formula` as a whole.
    fn satisfying(&mut self, formula: FormulaId) -> u64 {
        self.eval(formula, Interval::unbounded(0), EMPTY_ENV) & self.live
    }

    fn eval(&mut self, id: FormulaId, interval: Interval, env: EnvId) -> u64 {
        let interval = self.shape.canonicalize(interval);
        let arena = self.arena;
        let live = self.live;
        // Structurally cheap nodes are evaluated directly, a connective
        // short-circuiting once its left side settles every live lane: a
        // memo probe costs as much as the node itself, and their expensive
        // descendants are memoized in their own right.
        match arena.formula_node(id) {
            FormulaNode::True => return !0,
            FormulaNode::False => return 0,
            FormulaNode::Pred(pred) => {
                let position = self.shape.canonical(interval.lo);
                return self.letters.pred(id, pred, position, &self.tables.envs, env);
            }
            FormulaNode::Not(a) => return !self.eval(*a, interval, env),
            FormulaNode::And(a, b) => {
                let left = self.eval(*a, interval, env);
                return if left & live == 0 { left } else { left & self.eval(*b, interval, env) };
            }
            FormulaNode::Or(a, b) => {
                let left = self.eval(*a, interval, env);
                return if left & live == live {
                    left
                } else {
                    left | self.eval(*b, interval, env)
                };
            }
            _ => {}
        }
        let key = (id, interval, env);
        if let Some(&verdict) = self.tables.memo.get(&key) {
            self.tables.stats.hits += 1;
            return verdict;
        }
        self.tables.stats.misses += 1;
        let verdict = match arena.formula_node(id) {
            FormulaNode::True
            | FormulaNode::False
            | FormulaNode::Pred(_)
            | FormulaNode::Not(_)
            | FormulaNode::And(_, _)
            | FormulaNode::Or(_, _) => unreachable!("handled above"),
            FormulaNode::Always(a) => {
                let mut all = !0;
                for k in self.shape.suffix_positions(interval) {
                    all &= self.eval(*a, Interval { lo: k, hi: interval.hi }, env);
                    if all & live == 0 {
                        break;
                    }
                }
                all
            }
            FormulaNode::Eventually(a) => {
                let mut any = 0;
                for k in self.shape.suffix_positions(interval) {
                    any |= self.eval(*a, Interval { lo: k, hi: interval.hi }, env);
                    if any & live == live {
                        break;
                    }
                }
                any
            }
            FormulaNode::In(term, a) => {
                let built = self.construct(*term, interval, Dir::Forward, env);
                let mut holds = built.not_found;
                for at in built.groups.0..built.groups.1 {
                    let (sub, lanes) = self.tables.groups[at];
                    holds |= lanes & self.eval(*a, sub, env);
                }
                holds
            }
            FormulaNode::Forall(var, a) => {
                let mut all = !0;
                for value in 0..self.domain_len() {
                    let bound = self.bind(env, var, value);
                    all &= self.eval(*a, interval, bound);
                    if all & live == 0 {
                        break;
                    }
                }
                all
            }
            FormulaNode::Exists(var, a) => {
                let mut any = 0;
                for value in 0..self.domain_len() {
                    let bound = self.bind(env, var, value);
                    any |= self.eval(*a, interval, bound);
                    if any & live == live {
                        break;
                    }
                }
                any
            }
        };
        self.tables.memo.insert(key, verdict);
        verdict
    }

    /// The size of the quantifier domain, computing the letters' value
    /// domain when no explicit one was given and no quantifier needed it yet.
    fn domain_len(&mut self) -> usize {
        let letters = &self.letters;
        self.domain.get_or_insert_with(|| Cow::Owned(letters.value_domain())).len()
    }

    /// The environment `env` with `var` bound to the quantifier domain's
    /// value at `index` (after [`BlockEvaluator::domain_len`]).
    fn bind(&mut self, env: EnvId, var: &str, index: usize) -> EnvId {
        let domain = self.domain.as_deref().expect("the domain is computed before binding");
        self.tables.envs.bind(env, var, &domain[index])
    }

    /// The interval-construction function `F(term, context, direction)` over
    /// lane masks.
    fn construct(&mut self, id: TermId, ctx: Interval, dir: Dir, env: EnvId) -> Lanes {
        let ctx = self.shape.canonicalize(ctx);
        let arena = self.arena;
        // Only event scans are worth memoizing: they loop over trace
        // positions evaluating the event formula twice per step.  The other
        // term constructors are constant glue around their children.
        if let TermNode::Event(event) = *arena.term_node(id) {
            let key = (id, ctx, dir, env);
            if let Some(&built) = self.tables.construct_memo.get(&key) {
                self.tables.stats.hits += 1;
                return built;
            }
            self.tables.stats.misses += 1;
            let built = self.find_event(event, ctx, dir, env);
            self.tables.construct_memo.insert(key, built);
            return built;
        }
        // The interval a construction continues from, and the ones it ends at.
        let onward = |iv: Interval| iv.last().map(|lo| Interval { lo, hi: ctx.hi });
        let up_to = |iv: Interval| iv.last().map(|hi| Interval::bounded(ctx.lo, hi.max(ctx.lo)));
        match *arena.term_node(id) {
            TermNode::Event(_) => unreachable!("handled above"),
            TermNode::Begin(inner) => {
                let built = self.construct(inner, ctx, dir, env);
                self.map(built, |iv| Some(Interval::unit(iv.first())))
            }
            TermNode::End(inner) => {
                let built = self.construct(inner, ctx, dir, env);
                self.map(built, |iv| iv.last().map(Interval::unit))
            }
            TermNode::Must(inner) => {
                let built = self.construct(inner, ctx, dir, env);
                Lanes { not_found: 0, violated: built.violated | built.not_found, ..built }
            }
            TermNode::Forward(None, None) | TermNode::Backward(None, None) => {
                let at = self.tables.groups.len();
                self.tables.groups.push((ctx, self.live));
                Lanes { groups: (at, at + 1), not_found: 0, violated: 0 }
            }
            TermNode::Forward(Some(i), None) => {
                let built = self.construct(i, ctx, dir, env);
                self.map(built, onward)
            }
            TermNode::Forward(None, Some(j)) => {
                let built = self.construct(j, ctx, Dir::Forward, env);
                self.map(built, up_to)
            }
            TermNode::Forward(Some(i), Some(j)) => {
                // F(I ⇒ J, ctx, d) = F(⇒ J, F(I ⇒, ctx, d), F). Thanks to
                // hash-consing the derived half-open terms are interned
                // once and their constructions memoized like any other.
                let built = self.construct(i, ctx, dir, env);
                let mids = self.map(built, onward);
                self.then(mids, j, Dir::Forward, env, |mid, iv| {
                    iv.last().map(|hi| Interval::bounded(mid.lo, hi.max(mid.lo)))
                })
            }
            TermNode::Backward(Some(i), None) => {
                let built = self.construct(i, ctx, Dir::Backward, env);
                self.map(built, onward)
            }
            TermNode::Backward(None, Some(j)) => {
                let built = self.construct(j, ctx, dir, env);
                self.map(built, up_to)
            }
            TermNode::Backward(Some(i), Some(j)) => {
                // F(I ⇐ J, ctx, d) = F(I ⇐, F(⇐ J, ctx, d), F).
                let built = self.construct(j, ctx, dir, env);
                let mids = self.map(built, up_to);
                self.then(mids, i, Dir::Backward, env, |mid, iv| {
                    iv.last().map(|lo| Interval { lo, hi: mid.hi })
                })
            }
        }
    }

    /// `built` with each found interval `iv` replaced by `step(iv)`, or its
    /// lanes moved to `not_found` where that is `None`.
    fn map(&mut self, built: Lanes, step: impl Fn(Interval) -> Option<Interval>) -> Lanes {
        let mark = self.tables.scratch.len();
        let mut not_found = built.not_found;
        for at in built.groups.0..built.groups.1 {
            let (iv, lanes) = self.tables.groups[at];
            match step(iv) {
                Some(next) => gather(&mut self.tables.scratch, mark, next, lanes),
                None => not_found |= lanes,
            }
        }
        self.settle(mark, not_found, built.violated)
    }

    /// Continues every found interval `mid` of `mids` with the construction
    /// of `term` from `mid` (canonicalized) in direction `dir`, each of its
    /// found intervals `iv` becoming `step(mid, iv)`.
    fn then(
        &mut self,
        mids: Lanes,
        term: TermId,
        dir: Dir,
        env: EnvId,
        step: impl Fn(Interval, Interval) -> Option<Interval>,
    ) -> Lanes {
        let mark = self.tables.scratch.len();
        let (mut not_found, mut violated) = (mids.not_found, mids.violated);
        for at in mids.groups.0..mids.groups.1 {
            let (mid, lanes) = self.tables.groups[at];
            let mid = self.shape.canonicalize(mid);
            let built = self.construct(term, mid, dir, env);
            not_found |= built.not_found & lanes;
            violated |= built.violated & lanes;
            for inner in built.groups.0..built.groups.1 {
                let (iv, within) = self.tables.groups[inner];
                let both = within & lanes;
                if both == 0 {
                    continue;
                }
                match step(mid, iv) {
                    Some(next) => gather(&mut self.tables.scratch, mark, next, both),
                    None => not_found |= both,
                }
            }
        }
        self.settle(mark, not_found, violated)
    }

    /// Moves the groups gathered in `scratch` from `mark` into the group
    /// pool as one range.
    fn settle(&mut self, mark: usize, not_found: u64, violated: u64) -> Lanes {
        let at = self.tables.groups.len();
        self.tables.groups.extend(self.tables.scratch.drain(mark..));
        Lanes { groups: (at, self.tables.groups.len()), not_found, violated }
    }

    /// Locates each lane's first (or last) change of `event` from false to
    /// true within `ctx`.
    fn find_event(&mut self, event: FormulaId, ctx: Interval, dir: Dir, env: EnvId) -> Lanes {
        let (scan_hi, loop_region) = self.shape.event_scan_bounds(ctx);
        let mark = self.tables.scratch.len();
        // Lanes whose rise is still to be found; a backward scan visits the
        // positions from the last, so each lane's first rise is its last.
        let mut pending = self.live;
        let mut not_found = 0;
        for step in 0..scan_hi.saturating_sub(ctx.lo) {
            if pending == 0 {
                break;
            }
            let k = match dir {
                Dir::Forward => ctx.lo + 1 + step,
                Dir::Backward => scan_hi - step,
            };
            let before = !self.eval(event, Interval { lo: k - 1, hi: ctx.hi }, env) & pending;
            if before == 0 {
                continue;
            }
            let rise = before & self.eval(event, Interval { lo: k, hi: ctx.hi }, env);
            if rise == 0 {
                continue;
            }
            pending &= !rise;
            if dir == Dir::Backward && loop_region.is_some_and(|start| k > start) {
                // A rise inside the loop recurs forever: max is undefined.
                not_found |= rise;
            } else {
                gather(&mut self.tables.scratch, mark, Interval::bounded(k - 1, k), rise);
            }
        }
        self.settle(mark, not_found | pending, 0)
    }
}

/// Adds `lanes` to the group of `interval` among `groups[from..]`, or opens
/// one.
fn gather(groups: &mut Vec<(Interval, u64)>, from: usize, interval: Interval, lanes: u64) {
    match groups[from..].iter_mut().find(|(iv, _)| *iv == interval) {
        Some((_, held)) => *held |= lanes,
        None => groups.push((interval, lanes)),
    }
}

/// What the interval arithmetic of an evaluation needs to know about a
/// computation: its length and extension.  Every computation of one
/// [`BlockEvaluator`] pass shares its shape, so the intervals an evaluation
/// visits are the same for all of them; only the truth values differ.
#[derive(Clone, Copy, Debug)]
struct Shape {
    len: usize,
    extension: Extension,
}

impl Shape {
    /// The recorded position that position `index` repeats (see
    /// [`Trace::canonical`]).
    fn canonical(self, index: usize) -> usize {
        if index < self.len {
            return index;
        }
        match self.extension {
            Extension::Stutter => self.len - 1,
            Extension::Loop(start) => start + (index - start) % (self.len - start),
        }
    }

    fn canonicalize(self, interval: Interval) -> Interval {
        match interval.hi {
            Endpoint::Infinite => Interval { lo: self.canonical(interval.lo), hi: interval.hi },
            Endpoint::At(_) => interval,
        }
    }

    fn event_scan_bounds(self, ctx: Interval) -> (usize, Option<usize>) {
        match ctx.hi {
            Endpoint::At(j) => {
                let cap = match self.extension {
                    Extension::Stutter => j.min(self.len.saturating_sub(1)),
                    Extension::Loop(_) => j,
                };
                (cap, None)
            }
            Endpoint::Infinite => match self.extension {
                Extension::Stutter => (self.len.saturating_sub(1), None),
                Extension::Loop(start) => {
                    let period = self.len - start;
                    (ctx.lo.max(start) + period, Some(start))
                }
            },
        }
    }

    fn suffix_positions(self, interval: Interval) -> std::ops::RangeInclusive<usize> {
        let hi = match interval.hi {
            Endpoint::At(j) => j,
            Endpoint::Infinite => match self.extension {
                Extension::Stutter => interval.lo.max(self.len.saturating_sub(1)),
                Extension::Loop(start) => {
                    let period = self.len - start;
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
