//! The tableau-like satisfiability graph of Appendix B §3.
//!
//! Given a temporal formula `B`, [`TableauGraph::build`] constructs a graph
//! `Graph(B)` representing the set of models of `B`.  Nodes represent states
//! and are labelled with the formulae that must hold of the remaining
//! computation; edges are labelled with a conjunction of literals (the
//! propositional commitment made in the source state), a set of
//! *eventualities* (formulae that must eventually be satisfied on any
//! continuation) and a set of *satisfied eventualities* (eventualities
//! discharged by this very transition).
//!
//! [`prune`] implements the `Iter` deletion loop: edges whose literal label is
//! inconsistent (propositionally, or in a specialized theory for Algorithm A)
//! are removed, edges carrying an eventuality that can no longer be satisfied
//! by any path are removed, and nodes with no outgoing edges are removed, until
//! a fixpoint is reached.  `B` is satisfiable iff the initial node survives.
//!
//! # Interned expansion
//!
//! Construction never expands boxed formula sets.  It hash-conses the
//! formula into a DAG of connectives over operand ids and computes, on those
//! ids, its expansion closure (every formula the rules can reach).  The
//! closure is sorted once by a structural comparator that ranks ids exactly
//! as `Ltl`'s derived order ranks the formulas, and numbered, so a node
//! label, a next-state set or an eventuality set is a fixed-width bitset of
//! closure ids and a pending formula is a `u32`.  Because ascending id order
//! is `BTreeSet<Ltl>` order, the traversal, the node ids and the edge ids are
//! exactly those of an expansion over the formulas themselves (a
//! `#[cfg(test)]` reference builder pins this).  `Ltl` values are
//! materialised only where the API hands them out: the eventualities, the
//! labels and the [`Edge`]s, each once, on first use of the accessors that
//! return them, which the decision procedures never call.
//!
//! # Storage
//!
//! A graph's tables are a few flat buffers, built without per-item
//! allocations: node labels and edge annotations are fixed-width bitsets
//! concatenated in one buffer each, found through open-addressing tables of
//! ids; the distinct literal conjunctions are spans of one `Literal` pool;
//! the eventuality index, the predecessor lists and the strongly connected
//! components are compressed rows.  The buffers are sized up front from the
//! closure and from the largest tableaux the benchmark workload builds, so a
//! typical build does not regrow them.  The tables sit behind one `Arc`, so
//! cloning a graph (the explicit condition artifact takes its graph by
//! value) copies none of them.
//!
//! # One sequential pass
//!
//! [`TableauGraph::try_build_budgeted`] is one breadth-first pass on the
//! calling thread: it takes the nodes in id order, expands each label
//! depth-first, and records every saturated alternative as an edge at once,
//! interning its target label and its annotation (literals, promised and
//! fulfilled eventualities).  The build does not fan out: expanding each
//! BFS level across two workers and merging in sequential order ran at
//! 0.77–0.87x the sequential build on the `decide_heavy` tableaux.
//! [`prune`] runs on the calling thread too: striping its theory checks and
//! per-eventuality reachability passes across two workers ran at 0.10x on
//! `response_ladder(3)` and 0.96–0.99x on the larger tableaux.
//!
//! # Cost
//!
//! On the hard `[ => α ] []β` family the tableau used to be the main cost
//! of a decision.  `perfbench --workload decide_heavy --seed 1 --seconds 8
//! --trace 1` replays one round of the benchmark's hard-family workload (44
//! tableaux) layer by layer.  While `ilogic-core`'s `to_ltl` wrote "up to
//! the first `q` event" as a strong-until chain, the LTL image of
//! `[ => r ] [](p | q)` expanded to 97 nodes and 3362 edges and the round to
//! 1815 nodes.  On a shared 2-vCPU Intel Xeon VM it read `tableau.build_us`
//! 1419 µs and `tableau.busy_ms` 1472 ms (build and prune together) when
//! expansion cloned boxed formula sets.  Over interned ids with a
//! level-parallel build it read a median of 145 µs and 25.2 ms, and with the
//! fused sequential pass over a hash-consed closure 34 µs and 10.0 ms (seven
//! alternating runs of each on the same host), for the same 1815 nodes.
//!
//! The translation now finds the rise of `q` with one next step, so the same
//! shape expands to 33 nodes and 410 edges and the round to 749 nodes.  One
//! traced run of each encoding on a 2-vCPU VM read `tableau.build_us` 48.9 →
//! 21.0 µs and `tableau.busy_ms` 15.5 → 2.8 ms.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use crate::algorithm_b::Sccs;
use crate::dnf::store::StoreMap;
use crate::pool::{Exhaustion, Parallelism, ResourceBudget};
use crate::syntax::{Atom, Literal, Ltl};
use crate::theory::{Theory, TheoryResult};

/// Identifier of a node in a [`TableauGraph`].
pub type NodeId = usize;
/// Identifier of an edge in a [`TableauGraph`].
pub type EdgeId = usize;

/// An edge of the tableau graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The conjunction of literals labelling the edge (its "propositional part").
    pub literals: Vec<Literal>,
    /// Eventualities promised by this edge: formulae that must hold at some
    /// later instant on every model continuing through this edge.
    pub eventualities: BTreeSet<Ltl>,
    /// Eventualities discharged by this edge: the labelled formula holds in the
    /// source state of this transition.
    pub fulfilled: BTreeSet<Ltl>,
}

/// The tableau graph of a formula.
///
/// The graph is held over the ids of its interned closure.  The `Ltl`
/// labels and [`Edge`]s are materialised from them on the first call of
/// [`TableauGraph::label`], [`TableauGraph::edges`] or
/// [`TableauGraph::edge`], once per graph; the decision procedures read the
/// ids, the literals and the derived indices and never pay for it.
#[derive(Clone, Debug)]
pub struct TableauGraph {
    /// The graph's tables, shared by clones: cloning a graph (the explicit
    /// condition artifact takes its graph by value) copies none of them.
    data: Arc<GraphData>,
}

/// The tables of a [`TableauGraph`].
#[derive(Debug)]
struct GraphData {
    /// The closure the ids index.
    closure: Closure,
    /// Node labels as closure bitsets, `closure.words` each.
    labels: Vec<u64>,
    /// Source and target of each edge.  A node's edges are contiguous and
    /// the nodes come in id order.
    ends: Vec<(NodeId, NodeId)>,
    /// The distinct edge annotations, `ANNOTATION × closure.words` each;
    /// [`EventualityIndex::annotation`] names each edge's.
    annotations: Vec<u64>,
    /// The distinct literal conjunctions, concatenated: conjunction `c` is
    /// `literals[literal_starts[c]..literal_starts[c + 1]]`.  Each
    /// annotation names its conjunction in `annotation_literals`.
    literals: Vec<Literal>,
    literal_starts: Vec<u32>,
    annotation_literals: Vec<u32>,
    /// The edges leaving node `n` are `edge_ids[starts[n]..starts[n + 1]]`,
    /// where `edge_ids[e] == e`.
    starts: Vec<usize>,
    edge_ids: Vec<EdgeId>,
    initial: NodeId,
    ev_index: EventualityIndex,
    plan: SweepPlan,
    /// The `Ltl` labels and edges, once materialised.
    materialised: OnceLock<(Vec<BTreeSet<Ltl>>, Vec<Edge>)>,
    /// The eventualities as formulas, once materialised.
    eventualities: OnceLock<Vec<Ltl>>,
}

/// Per-graph eventuality index, derived once at the end of construction:
/// the closure ids of the graph's distinct eventualities in ascending order,
/// plus CSR-packed lists of the indices each edge mentions (`mentions`) and
/// fulfills (`fulfilled`).  Edges with the same annotation share one row.
/// Algorithm B's fixpoint engines and the Boolean projection consult it
/// instead of re-deriving the union and re-probing the per-edge
/// `BTreeSet`s — deep structural `Ltl` comparisons that used to dominate
/// whole evaluator calls — on every run over the same graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventualityIndex {
    /// The closure ids of the distinct eventualities, ascending (so in
    /// `Ltl`'s order); [`TableauGraph::eventualities`] materialises them.
    ids: Vec<u32>,
    /// Each edge's annotation: its row below, and its index into the
    /// graph's annotations.
    annotation: Vec<u32>,
    /// Concatenated ascending per-annotation lists of mentioned indices.
    mentions: Vec<u32>,
    /// `mentions` range of annotation `a`: `starts[a]..starts[a + 1]`.
    mentions_starts: Vec<u32>,
    /// Concatenated ascending per-annotation lists of fulfilled indices.
    fulfilled: Vec<u32>,
    /// `fulfilled` range of annotation `a`.
    fulfilled_starts: Vec<u32>,
}

impl EventualityIndex {
    /// The index of edges whose annotations are `annotation`, over the
    /// distinct annotations `annotations`.
    fn build(closure: &Closure, annotations: &Interner, annotation: Vec<u32>) -> EventualityIndex {
        let mut union = vec![0u64; closure.words];
        for a in 0..annotations.len() {
            for (word, promised) in union.iter_mut().zip(closure.slot(annotations.key(a), PROMISED))
            {
                *word |= promised;
            }
        }
        // Closure ids ascend in `Ltl`'s order, so `all` comes out ascending
        // and so does every CSR row.
        let mut position = vec![u32::MAX; closure.len()];
        let all: Vec<u32> = ids(&union).collect();
        for (ei, &id) in all.iter().enumerate() {
            position[id as usize] = ei as u32;
        }
        let rows = annotations.len();
        let mut mentions = Vec::with_capacity(rows * all.len());
        let mut mentions_starts = Vec::with_capacity(rows + 1);
        mentions_starts.push(0);
        let mut fulfilled = Vec::with_capacity(rows * all.len());
        let mut fulfilled_starts = Vec::with_capacity(rows + 1);
        fulfilled_starts.push(0);
        for a in 0..annotations.len() {
            let key = annotations.key(a);
            mentions.extend(ids(closure.slot(key, PROMISED)).map(|id| position[id as usize]));
            mentions_starts.push(mentions.len() as u32);
            fulfilled.extend(
                ids(closure.slot(key, FULFILLED))
                    .map(|id| position[id as usize])
                    .filter(|&ei| ei != u32::MAX),
            );
            fulfilled_starts.push(fulfilled.len() as u32);
        }
        EventualityIndex {
            ids: all,
            annotation,
            mentions,
            mentions_starts,
            fulfilled,
            fulfilled_starts,
        }
    }

    /// The number of distinct eventualities.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Ascending indices (into [`TableauGraph::eventualities`]) of the
    /// eventualities edge `eid` mentions.
    pub(crate) fn mentions(&self, eid: EdgeId) -> &[u32] {
        let a = self.annotation[eid] as usize;
        &self.mentions[self.mentions_starts[a] as usize..self.mentions_starts[a + 1] as usize]
    }

    /// Ascending indices of the eventualities edge `eid` fulfills.
    pub(crate) fn fulfilled(&self, eid: EdgeId) -> &[u32] {
        let a = self.annotation[eid] as usize;
        &self.fulfilled[self.fulfilled_starts[a] as usize..self.fulfilled_starts[a + 1] as usize]
    }
}

/// Per-graph fixpoint plan, derived once at the end of construction for the
/// semi-naive worklist driver of [`crate::algorithm_b`]: the strongly
/// connected components in reverse-topological order, the reverse-dependency
/// CSR that turns a changed `delete`/`fail` value into the tasks to mark
/// dirty, each edge's target node as a flat array, and the dense
/// edge × eventuality "not fulfilled" table the `fail` equations branch on.
/// Every entry is a pure function of the finished graph, so computing it
/// here amortizes it across every fixpoint run — most visibly across the
/// repeated Boolean-projected evaluations one evaluated decision makes over
/// the same tableau.  The `BTreeSet` baseline deliberately does *not* read
/// it: as the independent oracle it derives its components per call and
/// reads the edges' eventuality sets.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepPlan {
    /// Strongly connected components, reverse-topological (every edge leaves
    /// a component listed no earlier than its target's), in one flat buffer.
    pub(crate) sccs: Sccs,
    /// Row `m`: the nodes whose equations read the values at `m`,
    /// ascending.
    preds: Csr,
    /// Target node of each edge.
    pub(crate) targets: Vec<u32>,
    /// `unfulfilled[eid * ne + ei]`: edge `eid` does not fulfill eventuality
    /// `ei` (an index into [`TableauGraph::eventualities`]).
    pub(crate) unfulfilled: Vec<bool>,
}

impl SweepPlan {
    fn build(graph: &TableauGraph) -> SweepPlan {
        let n = graph.node_count();
        let sccs = crate::algorithm_b::strongly_connected_components(graph);
        // Edges come grouped by ascending source, so every row comes out
        // ascending.
        let preds = Csr::group(n, graph.data.ends.iter().map(|&(from, to)| (to, from as u32)));
        let ne = graph.data.ev_index.len();
        let targets = graph.data.ends.iter().map(|&(_, to)| to as u32).collect();
        let mut unfulfilled = vec![true; graph.edge_count() * ne];
        for eid in 0..graph.edge_count() {
            for &ei in graph.data.ev_index.fulfilled(eid) {
                unfulfilled[eid * ne + ei as usize] = false;
            }
        }
        SweepPlan { sccs, preds, targets, unfulfilled }
    }

    /// Nodes whose equations read the values at `m`, ascending.
    pub(crate) fn preds_of(&self, m: NodeId) -> &[u32] {
        self.preds.row(m)
    }
}

/// The top connective of a hash-consed formula, over the term ids of its
/// operands (an atom names its index among the formula's sorted atoms).
/// The variants are declared in `Ltl`'s order, so the derived order ranks
/// two different connectives as `Ltl`'s derived `Ord` does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    True,
    False,
    Atom(u32),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Next(u32),
    Always(u32),
    Eventually(u32),
    Until(u32, u32),
}

/// The formulas of one build, hash-consed bottom-up into a DAG of
/// [`Kind`]s: structurally equal formulas share one term id.  The atoms are
/// owned by a build (`A = Atom`) and borrowed by [`closure_profile`].
#[derive(Debug)]
struct Terms<A = Atom> {
    /// The distinct atoms of the root formula, ascending.
    atoms: Vec<A>,
    /// Each term's connective, by term id.
    kinds: Vec<Kind>,
    index: StoreMap<Kind, u32>,
}

impl<A: Borrow<Atom>> Terms<A> {
    /// Terms over the sorted distinct `atoms` of `root`, with room for
    /// about twice its subformulas: the rules add at most a negation or a
    /// dual per connective.
    fn with_atoms(atoms: Vec<A>, root: &Ltl) -> Terms<A> {
        let capacity = 2 * root.size();
        Terms {
            atoms,
            kinds: Vec::with_capacity(capacity),
            index: StoreMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// The id of the term `kind`, interned on first sight.
    fn make(&mut self, kind: Kind) -> u32 {
        *self.index.entry(kind).or_insert_with(|| {
            self.kinds.push(kind);
            self.kinds.len() as u32 - 1
        })
    }

    /// Interns `formula` and its subformulas.
    fn intern(&mut self, formula: &Ltl) -> u32 {
        let kind = match formula {
            Ltl::True => Kind::True,
            Ltl::False => Kind::False,
            Ltl::Atom(atom) => Kind::Atom(
                self.atoms
                    .binary_search_by(|known| known.borrow().cmp(atom))
                    .expect("atoms are collected from the root") as u32,
            ),
            Ltl::Not(a) => Kind::Not(self.intern(a)),
            Ltl::And(a, b) => Kind::And(self.intern(a), self.intern(b)),
            Ltl::Or(a, b) => Kind::Or(self.intern(a), self.intern(b)),
            Ltl::Next(a) => Kind::Next(self.intern(a)),
            Ltl::Always(a) => Kind::Always(self.intern(a)),
            Ltl::Eventually(a) => Kind::Eventually(self.intern(a)),
            Ltl::Until(p, q) => Kind::Until(self.intern(p), self.intern(q)),
        };
        self.make(kind)
    }

    /// [`Ltl::not`] on term ids, its simplifications included.
    fn not(&mut self, id: u32) -> u32 {
        match self.kinds[id as usize] {
            Kind::True => self.make(Kind::False),
            Kind::False => self.make(Kind::True),
            Kind::Not(inner) => inner,
            _ => self.make(Kind::Not(id)),
        }
    }

    /// The expansion rule of term `id`, over the term ids of the formulas
    /// it rewrites to, interning them.  The constructors are exactly the
    /// ones the expansion rules apply to formulas (`Ltl::not`'s
    /// simplifications included), so the closure holds every formula an
    /// expansion can push.
    fn rule(&mut self, id: u32) -> Rule {
        match self.kinds[id as usize] {
            Kind::True => Rule::True,
            Kind::False => Rule::False,
            Kind::Atom(_) => Rule::Literal(id, true),
            Kind::Not(inner) => match self.kinds[inner as usize] {
                Kind::True => Rule::False,
                Kind::False => Rule::True,
                Kind::Atom(_) => Rule::Literal(inner, false),
                Kind::Not(a) => Rule::Rewrite(a),
                Kind::And(a, b) => {
                    let or = Kind::Or(self.not(a), self.not(b));
                    Rule::Rewrite(self.make(or))
                }
                Kind::Or(a, b) => Rule::Both(self.not(a), self.not(b)),
                Kind::Next(a) => Rule::Next(self.not(a)),
                Kind::Always(a) => {
                    let eventually = Kind::Eventually(self.not(a));
                    Rule::Rewrite(self.make(eventually))
                }
                Kind::Eventually(a) => {
                    let always = Kind::Always(self.not(a));
                    Rule::Rewrite(self.make(always))
                }
                Kind::Until(p, q) => Rule::NotUntil(self.not(p), self.not(q)),
            },
            Kind::And(a, b) => Rule::Both(a, b),
            Kind::Or(a, b) => Rule::Either(a, b),
            Kind::Next(a) => Rule::Next(a),
            Kind::Always(a) => Rule::Always(a),
            Kind::Eventually(a) => Rule::Eventually(a),
            Kind::Until(p, q) => Rule::Until(p, q),
        }
    }

    /// Compares terms `a` and `b` as `Ltl`'s derived `Ord` compares the
    /// formulas they stand for.
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        match (self.kinds[a as usize], self.kinds[b as usize]) {
            (Kind::Atom(x), Kind::Atom(y)) => x.cmp(&y),
            (Kind::Not(x), Kind::Not(y))
            | (Kind::Next(x), Kind::Next(y))
            | (Kind::Always(x), Kind::Always(y))
            | (Kind::Eventually(x), Kind::Eventually(y)) => self.cmp(x, y),
            (Kind::And(x1, x2), Kind::And(y1, y2))
            | (Kind::Or(x1, x2), Kind::Or(y1, y2))
            | (Kind::Until(x1, x2), Kind::Until(y1, y2)) => {
                self.cmp(x1, y1).then_with(|| self.cmp(x2, y2))
            }
            // Distinct terms of one connective without operands cannot
            // exist, so these are different connectives.
            (x, y) => x.cmp(&y),
        }
    }
}

impl Terms {
    /// The formula term `id` stands for.
    fn ltl(&self, id: u32) -> Ltl {
        let operand = |a: u32| Box::new(self.ltl(a));
        match self.kinds[id as usize] {
            Kind::True => Ltl::True,
            Kind::False => Ltl::False,
            Kind::Atom(atom) => Ltl::Atom(self.atoms[atom as usize].clone()),
            Kind::Not(a) => Ltl::Not(operand(a)),
            Kind::And(a, b) => Ltl::And(operand(a), operand(b)),
            Kind::Or(a, b) => Ltl::Or(operand(a), operand(b)),
            Kind::Next(a) => Ltl::Next(operand(a)),
            Kind::Always(a) => Ltl::Always(operand(a)),
            Kind::Eventually(a) => Ltl::Eventually(operand(a)),
            Kind::Until(p, q) => Ltl::Until(operand(p), operand(q)),
        }
    }
}

/// The expansion closure of a formula, interned: every formula the
/// Appendix B expansion rules can reach from the root (plus the plain atom
/// of each negated atom, which names its literal), sorted once in `Ltl`'s
/// order and numbered densely.  Ascending id order is therefore exactly
/// `BTreeSet<Ltl>` iteration order, so an expansion over ids visits
/// formulas, interns node labels and assigns node and edge ids in the same
/// order as one over the formulas themselves.  Sets of formulas become
/// fixed-width bitsets of `words` `u64`s.
#[derive(Debug)]
struct Closure {
    /// The hash-consed terms the closure formulas are drawn from.
    terms: Terms,
    /// The term id of each closure formula, ascending in `Ltl`'s order; a
    /// formula's closure id is its index.
    members: Vec<u32>,
    /// What expanding each formula does, by closure id.
    rules: Vec<Rule>,
    /// `u64` words per bitset of closure ids.
    words: usize,
    /// Id of the root formula.
    root: u32,
}

/// The expansion rule of one closure formula, over the ids of the formulas
/// it rewrites to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    /// `⊤`, `¬⊥`: nothing to do.
    True,
    /// `⊥`, `¬⊤`: the branch is inconsistent.
    False,
    /// An atom (`true`) or a negated atom (`false`); the id is that of the
    /// plain atom formula.
    Literal(u32, bool),
    /// `¬¬a → a`, `¬(a ∧ b) → ¬a ∨ ¬b`, `¬□a → ◇¬a`, `¬◇a → □¬a`.
    Rewrite(u32),
    /// `a ∧ b`, and `¬(a ∨ b) → ¬a ∧ ¬b`: both now.
    Both(u32, u32),
    /// `a ∨ b`: branch.
    Either(u32, u32),
    /// `◦a`, and `¬◦a → ◦¬a`: the operand next.
    Next(u32),
    /// `□a → a ∧ ◦□a`.
    Always(u32),
    /// `◇a → a ∨ ◦◇a`, eventuality `a`.
    Eventually(u32),
    /// Weak `U(p, q) → q ∨ (p ∧ ◦U(p, q))`.
    Until(u32, u32),
    /// `¬U(p, q) → ¬q ∧ (¬p ∨ ◦¬U(p, q))`, eventuality `¬p`; the ids are
    /// those of `¬p` and `¬q`.
    NotUntil(u32, u32),
}

impl Rule {
    /// The rule with every formula id it names passed through `f`.
    fn map(self, mut f: impl FnMut(u32) -> u32) -> Rule {
        match self {
            Rule::True | Rule::False => self,
            Rule::Literal(a, positive) => Rule::Literal(f(a), positive),
            Rule::Rewrite(a) => Rule::Rewrite(f(a)),
            Rule::Both(a, b) => Rule::Both(f(a), f(b)),
            Rule::Either(a, b) => Rule::Either(f(a), f(b)),
            Rule::Next(a) => Rule::Next(f(a)),
            Rule::Always(a) => Rule::Always(f(a)),
            Rule::Eventually(a) => Rule::Eventually(f(a)),
            Rule::Until(p, q) => Rule::Until(f(p), f(q)),
            Rule::NotUntil(p, q) => Rule::NotUntil(f(p), f(q)),
        }
    }
}

/// Bitset slots of an expansion state, each `Closure::words` wide, packed
/// in one buffer: the positive and negative literals (by plain-atom id),
/// the eventualities promised and fulfilled, the formulas already expanded
/// on this branch, and the next state's label.  The first `ANNOTATION`
/// slots are the edge's annotation.
const POSITIVE: usize = 0;
const NEGATIVE: usize = 1;
const PROMISED: usize = 2;
const FULFILLED: usize = 3;
const ANNOTATION: usize = 4;
const SEEN: usize = 4;
const NEXT: usize = 5;
const SLOTS: usize = 6;

/// Inserts `id` into slot `slot` of `bits`; `false` if it was already there.
fn insert(bits: &mut [u64], words: usize, slot: usize, id: u32) -> bool {
    let (word, mask) = (slot * words + id as usize / 64, 1u64 << (id % 64));
    let fresh = bits[word] & mask == 0;
    bits[word] |= mask;
    fresh
}

/// Whether slot `slot` of `bits` holds `id`.
fn contains(bits: &[u64], words: usize, slot: usize, id: u32) -> bool {
    bits[slot * words + id as usize / 64] & (1u64 << (id % 64)) != 0
}

/// The ids of a bitset, ascending.
fn ids(set: &[u64]) -> impl Iterator<Item = u32> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

impl Closure {
    /// Interns the expansion closure of `root`.
    fn of(root: &Ltl) -> Closure {
        let mut atoms = root.atoms();
        atoms.sort_unstable();
        let mut terms = Terms::with_atoms(atoms, root);
        let root = terms.intern(root);
        // Every term the rules reach from the root, with its rule over term
        // ids.
        let capacity = terms.kinds.capacity();
        let mut rules: Vec<Option<Rule>> = Vec::with_capacity(capacity);
        let mut members = Vec::with_capacity(capacity);
        let mut stack = Vec::with_capacity(capacity);
        stack.push(root);
        while let Some(id) = stack.pop() {
            if rules.get(id as usize).is_some_and(Option::is_some) {
                continue;
            }
            let rule = terms.rule(id).map(|next| {
                stack.push(next);
                next
            });
            rules.resize(terms.kinds.len(), None);
            rules[id as usize] = Some(rule);
            members.push(id);
        }
        members.sort_unstable_by(|&a, &b| terms.cmp(a, b));
        let mut rank = vec![u32::MAX; terms.kinds.len()];
        for (closure_id, &id) in members.iter().enumerate() {
            rank[id as usize] = closure_id as u32;
        }
        let rules = members
            .iter()
            .map(|&id| {
                rules[id as usize].expect("every member's rule").map(|next| rank[next as usize])
            })
            .collect();
        Closure {
            words: members.len().div_ceil(64),
            root: rank[root as usize],
            rules,
            members,
            terms,
        }
    }

    /// The number of closure formulas.
    fn len(&self) -> usize {
        self.members.len()
    }

    /// The closure formula `id`, materialised.
    fn formula(&self, id: u32) -> Ltl {
        self.terms.ltl(self.members[id as usize])
    }

    /// Slot `slot` of an expansion state or an annotation.
    fn slot<'b>(&self, state: &'b [u64], slot: usize) -> &'b [u64] {
        &state[slot * self.words..(slot + 1) * self.words]
    }

    /// Appends the literals of a conjunction (the positive and negative
    /// slots that lead an annotation) to `out`, in `Atom` order.
    fn literals(&self, conjunction: &[u64], out: &mut Vec<Literal>) {
        let positive = self.slot(conjunction, POSITIVE);
        let negative = self.slot(conjunction, NEGATIVE);
        for (w, (&p, &n)) in positive.iter().zip(negative).enumerate() {
            let mut rest = p | n;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let id = w as u32 * 64 + bit;
                let Kind::Atom(atom) = self.terms.kinds[self.members[id as usize] as usize] else {
                    unreachable!("literal ids name plain atoms")
                };
                out.push(Literal {
                    atom: self.terms.atoms[atom as usize].clone(),
                    positive: p & (1 << bit) != 0,
                });
            }
        }
    }

    /// Applies the expansion rules to the working branch until nothing is
    /// pending; `false` when the branch is inconsistent.  Each branch point
    /// defers its right alternative and continues with the left one.
    fn saturate(&self, pending: &mut Vec<u32>, state: &mut [u64], deferred: &mut Deferred) -> bool {
        let words = self.words;
        while let Some(id) = pending.pop() {
            if !insert(state, words, SEEN, id) {
                continue;
            }
            match self.rules[id as usize] {
                Rule::True => {}
                Rule::False => return false,
                Rule::Literal(atom, positive) => {
                    let (this, other) =
                        if positive { (POSITIVE, NEGATIVE) } else { (NEGATIVE, POSITIVE) };
                    if contains(state, words, other, atom) {
                        return false;
                    }
                    insert(state, words, this, atom);
                }
                Rule::Rewrite(a) => pending.push(a),
                Rule::Both(a, b) => {
                    pending.push(a);
                    pending.push(b);
                }
                Rule::Either(a, b) => {
                    deferred.push(pending, Some(b), state, &[], words);
                    pending.push(a);
                }
                Rule::Next(a) => {
                    insert(state, words, NEXT, a);
                }
                Rule::Always(a) => {
                    insert(state, words, NEXT, id);
                    pending.push(a);
                }
                Rule::Eventually(a) => {
                    // `a` now (fulfilled), or defer with the eventuality
                    // promised.
                    deferred.push(pending, None, state, &[(PROMISED, a), (NEXT, id)], words);
                    pending.push(a);
                    insert(state, words, FULFILLED, a);
                }
                Rule::Until(p, q) => {
                    // `q` now (fulfilled), or `p` and defer; no eventuality.
                    deferred.push(pending, Some(p), state, &[(NEXT, id)], words);
                    pending.push(q);
                    insert(state, words, FULFILLED, q);
                }
                Rule::NotUntil(not_p, not_q) => {
                    // `¬q`, and either `¬p` now (fulfilled) or defer with the
                    // eventuality `¬p` promised.
                    pending.push(not_q);
                    deferred.push(pending, None, state, &[(PROMISED, not_p), (NEXT, id)], words);
                    pending.push(not_p);
                    insert(state, words, FULFILLED, not_p);
                }
            }
        }
        true
    }
}

/// The expansion of one node label into its saturated alternatives,
/// produced one at a time, in buffers reused across labels.
///
/// The search is depth-first, left branch first, as a recursive descent
/// over formulas would be: at a branch the working state takes the left
/// alternative and a copy of it takes the right one onto a stack of
/// deferred branches, resumed latest first once the working branch
/// saturates or turns out inconsistent.
struct Expansion {
    pending: Vec<u32>,
    /// The working branch, `SLOTS × words`.
    state: Vec<u64>,
    deferred: Deferred,
    /// The working branch has not been saturated yet.
    fresh: bool,
}

impl Expansion {
    /// Buffers for a closure of `len` formulas, `words` words per bitset.
    /// A branch expands each formula at most once, so at most `len` branch
    /// points are deferred at a time; room is made for up to
    /// [`DEFERRED_RESERVED`] of them, and a deeper expansion regrows.
    fn new(words: usize, len: usize) -> Expansion {
        let deferred = len.min(DEFERRED_RESERVED);
        Expansion {
            pending: Vec::with_capacity(len),
            state: vec![0; SLOTS * words],
            deferred: Deferred {
                pending: Vec::with_capacity(len),
                lens: Vec::with_capacity(deferred),
                states: Vec::with_capacity(deferred * SLOTS * words),
            },
            fresh: false,
        }
    }

    /// Starts over on `label`.
    fn start(&mut self, label: &[u64]) {
        self.pending.clear();
        self.pending.extend(ids(label));
        self.state.fill(0);
        self.deferred.clear();
        self.fresh = true;
    }

    /// The next saturated alternative, or `None` once every branch is done.
    fn next(&mut self, closure: &Closure) -> Option<&[u64]> {
        loop {
            if !std::mem::take(&mut self.fresh)
                && !self.deferred.resume(&mut self.pending, &mut self.state)
            {
                return None;
            }
            if closure.saturate(&mut self.pending, &mut self.state, &mut self.deferred) {
                return Some(&self.state);
            }
        }
    }
}

/// The deferred right branches of one label's expansion, latest last, in
/// flat buffers reused across branches.
#[derive(Default)]
struct Deferred {
    /// Concatenated pending formulas of the branches.
    pending: Vec<u32>,
    /// Number of pending formulas of each branch.
    lens: Vec<usize>,
    /// Concatenated states of the branches, `SLOTS × words` each.
    states: Vec<u64>,
}

impl Deferred {
    /// Defers a copy of the working branch with `push` pending on top and
    /// the `(slot, id)` bits of `marks` set.
    fn push(
        &mut self,
        pending: &[u32],
        push: Option<u32>,
        state: &[u64],
        marks: &[(usize, u32)],
        words: usize,
    ) {
        self.pending.extend_from_slice(pending);
        self.pending.extend(push);
        self.lens.push(pending.len() + usize::from(push.is_some()));
        let at = self.states.len();
        self.states.extend_from_slice(state);
        for &(slot, id) in marks {
            insert(&mut self.states[at..], words, slot, id);
        }
    }

    /// Moves the latest deferred branch into the working one; `false` when
    /// none is left.
    fn resume(&mut self, pending: &mut Vec<u32>, state: &mut [u64]) -> bool {
        let Some(len) = self.lens.pop() else {
            return false;
        };
        pending.clear();
        pending.extend(self.pending.drain(self.pending.len() - len..));
        let at = self.states.len() - state.len();
        state.copy_from_slice(&self.states[at..]);
        self.states.truncate(at);
        true
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.lens.clear();
        self.states.clear();
    }
}

/// Nodes and edges a build makes room for up front: the tableaux of the
/// hard `[ => α ] []β` family reach 33 nodes and 410 edges, and a build that
/// outgrows the room regrows as usual.
const NODES_RESERVED: usize = 64;
const EDGES_RESERVED: usize = 512;
/// Deferred branches an expansion makes room for up front, so a large
/// closure does not reserve room for a branch per formula.
const DEFERRED_RESERVED: usize = 32;

/// Fixed-width bitsets interned to dense ids, in first-seen order: the
/// keys in one flat buffer, found through an open-addressing table of
/// `id + 1` (0 marks a free slot) kept at most half full.  The keys are
/// bitsets the build derives, so a fast unkeyed hash serves.
struct Interner {
    width: usize,
    /// The keys, `width` words each, by id.
    keys: Vec<u64>,
    /// The number of keys (kept apart to spare a division per lookup).
    len: usize,
    table: Vec<u32>,
}

impl Interner {
    /// An interner of keys `width` words wide with room for `keys` keys.
    fn new(width: usize, keys: usize) -> Interner {
        let table = vec![0; (2 * keys).next_power_of_two()];
        Interner { width, keys: Vec::with_capacity(keys * width), len: 0, table }
    }

    /// The id of `key`, interned on first sight.
    fn intern(&mut self, key: &[u64]) -> u32 {
        let mask = self.table.len() - 1;
        let mut slot = hash(key) & mask;
        loop {
            match self.table[slot] {
                0 => break,
                entry if self.key(entry as usize - 1) == key => return entry - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.len as u32;
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.table[slot] = id + 1;
        if 2 * self.len > self.table.len() {
            let mut table = vec![0; 2 * self.table.len()];
            let mask = table.len() - 1;
            for id in 0..self.len {
                let mut slot = hash(self.key(id)) & mask;
                while table[slot] != 0 {
                    slot = (slot + 1) & mask;
                }
                table[slot] = id as u32 + 1;
            }
            self.table = table;
        }
        id
    }

    fn len(&self) -> usize {
        self.len
    }

    fn key(&self, id: usize) -> &[u64] {
        &self.keys[id * self.width..(id + 1) * self.width]
    }
}

/// A multiply-xor hash of a bitset, its high half folded into the low one
/// so that every bit of the key reaches a table index.
fn hash(key: &[u64]) -> usize {
    let h = key
        .iter()
        .fold(0u64, |h, &word| (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95));
    (h ^ (h >> 32)) as usize
}

impl TableauGraph {
    /// Constructs the graph `Graph(formula)` representing the models of `formula`.
    pub fn build(formula: &Ltl) -> TableauGraph {
        TableauGraph::try_build_budgeted(formula, &ResourceBudget::unbounded(), Parallelism::Off)
            .expect("unbounded tableau construction cannot exceed its limits")
    }

    /// Constructs `Graph(formula)` under a [`ResourceBudget`]; the `Err`
    /// names the first resource that ran out ([`Exhaustion::Nodes`] /
    /// [`Exhaustion::Edges`] for the structural caps,
    /// [`Exhaustion::Deadline`] / [`Exhaustion::Cancelled`] for the
    /// cooperative cutoffs, polled once per BFS level).
    ///
    /// Construction is one breadth-first pass over the formula's interned
    /// closure (formula ids, with sets as bitsets) on the calling thread:
    /// nodes are expanded in id order, and each saturated alternative of a
    /// node's label becomes an edge as soon as it is found, its target
    /// label interned and the structural caps checked before the edge is
    /// recorded.  `_parallelism` is ignored (the build never fans out;
    /// see the module documentation) and stays only so existing callers
    /// keep compiling.  Only the deadline/cancellation cutoffs are
    /// timing-dependent.
    pub fn try_build_budgeted(
        formula: &Ltl,
        budget: &ResourceBudget,
        _parallelism: Parallelism,
    ) -> Result<TableauGraph, Exhaustion> {
        let closure = Closure::of(formula);
        let words = closure.words;
        let mut labels = Interner::new(words, NODES_RESERVED);
        let mut annotations = Interner::new(ANNOTATION * words, EDGES_RESERVED / 2);
        let mut ends: Vec<(NodeId, NodeId)> = Vec::with_capacity(EDGES_RESERVED);
        let mut annotation: Vec<u32> = Vec::with_capacity(EDGES_RESERVED);
        let mut starts = Vec::with_capacity(NODES_RESERVED + 1);
        starts.push(0);
        let mut root = vec![0u64; words];
        insert(&mut root, words, 0, closure.root);
        let initial = labels.intern(&root) as NodeId;

        let mut expansion = Expansion::new(words, closure.len());
        // A BFS level is the run of nodes interned while the previous level
        // was expanded; `level_edges` is the edge count at its start.
        let (mut level_end, mut level_edges) = (0, 0);
        let mut node = 0;
        while node < labels.len() {
            if node == level_end {
                if let Some(interrupt) = budget.interrupted() {
                    return Err(interrupt);
                }
                (level_end, level_edges) = (labels.len(), ends.len());
            }
            expansion.start(labels.key(node));
            let mut cut = None;
            while let Some(state) = expansion.next(&closure) {
                let target = labels.intern(closure.slot(state, NEXT)) as NodeId;
                if labels.len() > budget.max_nodes() {
                    cut = Some(Exhaustion::Nodes);
                    break;
                }
                if ends.len() >= budget.max_edges() {
                    cut = Some(Exhaustion::Edges);
                    break;
                }
                ends.push((node, target));
                annotation.push(annotations.intern(&state[..ANNOTATION * words]));
            }
            if let Some(cut) = cut {
                // The answer of a build that expands a whole level before
                // merging it (the reference builder): a node with more
                // alternatives than the edge budget left at its level's
                // start trips `Edges` before any of its edges is merged.
                let level_budget = budget.max_edges() - level_edges;
                expansion.start(labels.key(node));
                let mut alternatives = std::iter::from_fn(|| expansion.next(&closure).map(drop));
                let over = cut == Exhaustion::Nodes && alternatives.nth(level_budget).is_some();
                return Err(if over { Exhaustion::Edges } else { cut });
            }
            starts.push(ends.len());
            node += 1;
        }
        // Each distinct literal conjunction is materialised once; the
        // positive and negative slots lead an annotation and together key it.
        let mut conjunctions = Interner::new((NEGATIVE + 1) * words, annotations.len());
        let annotation_literals = (0..annotations.len())
            .map(|a| conjunctions.intern(&annotations.key(a)[..(NEGATIVE + 1) * words]))
            .collect();
        let mut literals = Vec::with_capacity(conjunctions.len() * closure.terms.atoms.len());
        let mut literal_starts = Vec::with_capacity(conjunctions.len() + 1);
        literal_starts.push(0);
        for c in 0..conjunctions.len() {
            closure.literals(conjunctions.key(c), &mut literals);
            literal_starts.push(literals.len() as u32);
        }
        let mut graph = TableauGraph {
            data: Arc::new(GraphData {
                ev_index: EventualityIndex::build(&closure, &annotations, annotation),
                closure,
                labels: labels.keys,
                edge_ids: (0..ends.len()).collect(),
                ends,
                annotations: annotations.keys,
                literals,
                literal_starts,
                annotation_literals,
                starts,
                initial,
                plan: SweepPlan::default(),
                materialised: OnceLock::new(),
                eventualities: OnceLock::new(),
            }),
        };
        let plan = SweepPlan::build(&graph);
        Arc::get_mut(&mut graph.data).expect("a graph under construction is unshared").plan = plan;
        Ok(graph)
    }

    /// The `Ltl` labels and edges, materialised from the ids on first use.
    fn materialised(&self) -> &(Vec<BTreeSet<Ltl>>, Vec<Edge>) {
        self.data.materialised.get_or_init(|| {
            let closure = &self.data.closure;
            let formulas: Vec<Ltl> =
                (0..closure.len() as u32).map(|id| closure.formula(id)).collect();
            let set = |bits: &[u64]| -> BTreeSet<Ltl> {
                ids(bits).map(|id| formulas[id as usize].clone()).collect()
            };
            let labels = self.data.labels.chunks_exact(closure.words).map(set).collect();
            let edges = self
                .data
                .ends
                .iter()
                .enumerate()
                .map(|(eid, &(from, to))| {
                    let a = self.data.ev_index.annotation[eid] as usize;
                    let stride = ANNOTATION * closure.words;
                    let annotation = &self.data.annotations[a * stride..(a + 1) * stride];
                    Edge {
                        from,
                        to,
                        literals: self.literals(eid).to_vec(),
                        eventualities: set(closure.slot(annotation, PROMISED)),
                        fulfilled: set(closure.slot(annotation, FULFILLED)),
                    }
                })
                .collect();
            (labels, edges)
        })
    }

    /// The conjunction of literals labelling edge `eid` (its
    /// [`Edge::literals`], without materialising the edge).
    pub(crate) fn literals(&self, eid: EdgeId) -> &[Literal] {
        let c = self.literal_set(eid);
        &self.data.literals
            [self.data.literal_starts[c] as usize..self.data.literal_starts[c + 1] as usize]
    }

    /// The distinct literal conjunctions labelling the edges.
    pub(crate) fn literal_sets(&self) -> impl ExactSizeIterator<Item = &[Literal]> {
        self.data
            .literal_starts
            .windows(2)
            .map(|span| &self.data.literals[span[0] as usize..span[1] as usize])
    }

    /// The index into [`TableauGraph::literal_sets`] of edge `eid`'s
    /// conjunction.
    pub(crate) fn literal_set(&self, eid: EdgeId) -> usize {
        self.data.annotation_literals[self.data.ev_index.annotation[eid] as usize] as usize
    }

    /// The target node of edge `eid` (its [`Edge::to`]).
    pub(crate) fn target(&self, eid: EdgeId) -> NodeId {
        self.data.ends[eid].1
    }

    /// The initial node.
    pub fn initial(&self) -> NodeId {
        self.data.initial
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.data.starts.len() - 1
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.data.ends.len()
    }

    /// The label set of a node.
    pub fn label(&self, node: NodeId) -> &BTreeSet<Ltl> {
        &self.materialised().0[node]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.materialised().1
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.materialised().1[id]
    }

    /// Ids of the edges leaving `node`, ascending.
    pub fn outgoing(&self, node: NodeId) -> &[EdgeId] {
        &self.data.edge_ids[self.data.starts[node]..self.data.starts[node + 1]]
    }

    /// The distinct eventualities occurring on any edge, ascending in
    /// `Ltl`'s order (materialised on first use, like the labels).
    pub fn eventualities(&self) -> &[Ltl] {
        self.data.eventualities.get_or_init(|| {
            self.data.ev_index.ids.iter().map(|&id| self.data.closure.formula(id)).collect()
        })
    }

    /// The per-graph eventuality index (see [`EventualityIndex`]).
    pub(crate) fn eventuality_index(&self) -> &EventualityIndex {
        &self.data.ev_index
    }

    /// The per-graph fixpoint plan of the semi-naive worklist engines.
    pub(crate) fn sweep_plan(&self) -> &SweepPlan {
        &self.data.plan
    }
}

/// A static size profile of the graph a formula *would* expand into,
/// computed from the AST alone — no node is ever interned, no edge built.
///
/// This is the closure-size hook behind the `ilogic-core` analysis pass:
/// node labels of [`TableauGraph`] are subsets of the formula's *next
/// components* (the formulas the expansion rules in this module can insert
/// into a node's next-set), so `2^components` bounds the node count and
/// `nodes × 2^atoms` bounds the edge count.  The bounds are loose — see the
/// calibration notes in `ARCHITECTURE.md` — but they are computed in
/// microseconds, which is the point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosureProfile {
    /// Number of distinct next components: `2^components` bounds the node
    /// count of the expanded graph.
    pub components: usize,
    /// Number of distinct atoms: each transition commits to a subset of the
    /// atoms, so `2^atoms` bounds the out-degree multiplicity per node pair.
    pub atoms: usize,
    /// Plain AST size of the formula.
    pub size: usize,
}

/// Computes the [`ClosureProfile`] of `formula` without building a graph.
///
/// The component set follows the expansion rules: `◦a` inserts `a` (or `¬a`
/// under negation), `□a` re-inserts itself, `◇a`/`U(p, q)`/`¬U(p, q)` insert
/// their deferred forms, and negations of `□`/`◇` insert the pushed-in dual.
/// The components are counted as hash-consed term ids over the formula's
/// borrowed atoms, so structurally equal components are one id and no
/// formula is cloned; each subformula is walked once per polarity.
pub fn closure_profile(formula: &Ltl) -> ClosureProfile {
    fn components(
        terms: &mut Terms<&Atom>,
        id: u32,
        positive: bool,
        walked: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) {
        let polarity = if positive { 1 } else { 2 };
        if walked[id as usize] & polarity != 0 {
            return;
        }
        walked[id as usize] |= polarity;
        match terms.kinds[id as usize] {
            Kind::True | Kind::False | Kind::Atom(_) => {}
            Kind::Not(a) => components(terms, a, !positive, walked, out),
            Kind::And(a, b) | Kind::Or(a, b) => {
                components(terms, a, positive, walked, out);
                components(terms, b, positive, walked, out);
            }
            Kind::Next(a) => {
                out.push(if positive { a } else { terms.not(a) });
                components(terms, a, positive, walked, out);
            }
            Kind::Always(a) | Kind::Eventually(a) => {
                out.push(if positive {
                    id
                } else {
                    // ¬□a expands as ◇¬a and ¬◇a as □¬a, each deferring
                    // itself.
                    let not_a = terms.not(a);
                    let dual = match terms.kinds[id as usize] {
                        Kind::Always(_) => Kind::Eventually(not_a),
                        _ => Kind::Always(not_a),
                    };
                    terms.make(dual)
                });
                components(terms, a, positive, walked, out);
                components(terms, a, !positive, walked, out);
            }
            Kind::Until(p, q) => {
                out.push(if positive { id } else { terms.not(id) });
                // Both polarities of both operands can surface during
                // expansion (q now / defer, ¬q ∧ ¬p now / defer).
                for operand in [p, q] {
                    components(terms, operand, true, walked, out);
                    components(terms, operand, false, walked, out);
                }
            }
        }
    }
    fn collect_atoms<'f>(formula: &'f Ltl, out: &mut Vec<&'f Atom>) {
        match formula {
            Ltl::True | Ltl::False => {}
            Ltl::Atom(atom) => out.push(atom),
            Ltl::Not(a) | Ltl::Next(a) | Ltl::Always(a) | Ltl::Eventually(a) => {
                collect_atoms(a, out);
            }
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) => {
                collect_atoms(a, out);
                collect_atoms(b, out);
            }
        }
    }
    let mut atoms = Vec::new();
    collect_atoms(formula, &mut atoms);
    atoms.sort_unstable();
    atoms.dedup();
    let mut terms = Terms::with_atoms(atoms, formula);
    let root = terms.intern(formula);
    // Only the formula's own subterms are walked, and they are interned
    // before the walk starts.
    let mut walked = vec![0u8; terms.kinds.len()];
    let mut out = Vec::with_capacity(terms.kinds.len());
    components(&mut terms, root, true, &mut walked, &mut out);
    out.sort_unstable();
    out.dedup();
    ClosureProfile { components: out.len(), atoms: terms.atoms.len(), size: formula.size() }
}

/// The result of the `Iter` deletion loop.
#[derive(Clone, Debug)]
pub struct Pruned {
    node_alive: Vec<bool>,
    edge_alive: Vec<bool>,
    /// Number of passes of the outer deletion loop.
    pub iterations: usize,
}

impl Pruned {
    /// `true` if the node survived deletion.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.node_alive[node]
    }

    /// `true` if the edge survived deletion.
    pub fn edge_alive(&self, edge: EdgeId) -> bool {
        self.edge_alive[edge]
    }

    /// Number of surviving nodes.
    pub fn live_nodes(&self) -> usize {
        self.node_alive.iter().filter(|b| **b).count()
    }

    /// Number of surviving edges.
    pub fn live_edges(&self) -> usize {
        self.edge_alive.iter().filter(|b| **b).count()
    }
}

/// Runs the `Iter` deletion loop on `graph`, deleting edges whose literal
/// labels are unsatisfiable in `theory` (Algorithm A's extra deletion), edges
/// whose eventualities cannot be satisfied, and nodes with no outgoing edges.
pub fn prune(graph: &TableauGraph, theory: &dyn Theory) -> Pruned {
    prune_budgeted(graph, theory, Parallelism::Off, &ResourceBudget::unbounded())
        .expect("an unbudgeted prune cannot be interrupted")
}

/// [`prune`] under a [`ResourceBudget`]: the deletion loop is polynomial
/// (no structural cap applies), but the budget's deadline/cancellation
/// cutoffs are polled once per deletion round so a service can abandon a
/// prune on a very large graph.  The loop runs on the calling thread;
/// `_parallelism` is ignored and stays only so existing callers keep
/// compiling.
pub fn prune_budgeted(
    graph: &TableauGraph,
    theory: &dyn Theory,
    _parallelism: Parallelism,
    budget: &ResourceBudget,
) -> Result<Pruned, Exhaustion> {
    let index = graph.eventuality_index();
    let mut node_alive = vec![true; graph.node_count()];
    let satisfiable: Vec<bool> = graph
        .literal_sets()
        .map(|set| theory.satisfiable(set) == TheoryResult::Satisfiable)
        .collect();
    let mut edge_alive: Vec<bool> =
        (0..graph.edge_count()).map(|eid| satisfiable[graph.literal_set(eid)]).collect();
    // Each node's incoming edges and each eventuality's fulfilling edges,
    // live or not; the reachability passes skip the dead ones.
    let edges = graph.data.ends.iter().enumerate();
    let incoming = Csr::group(graph.node_count(), edges.map(|(eid, &(_, to))| (to, eid as u32)));
    let fulfilling = Csr::group(
        index.len(),
        (0..graph.edge_count())
            .flat_map(|eid| index.fulfilled(eid).iter().map(move |&ei| (ei as usize, eid as u32))),
    );
    let mut iterations = 0;
    loop {
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        iterations += 1;
        let mut changed = false;

        // Delete edges whose eventualities can no longer be satisfied.
        let reach: Vec<Vec<bool>> = (0..index.len())
            .map(|ei| {
                let seeds = fulfilling.row(ei);
                reachable_to_fulfilling(graph, &node_alive, &edge_alive, &incoming, seeds)
            })
            .collect();
        for (id, &(_, to)) in graph.data.ends.iter().enumerate() {
            if edge_alive[id] && index.mentions(id).iter().any(|&ei| !reach[ei as usize][to]) {
                edge_alive[id] = false;
                changed = true;
            }
        }

        // Delete edges leading to or from dead nodes, and nodes with no live outgoing edge.
        for (id, &(from, to)) in graph.data.ends.iter().enumerate() {
            if edge_alive[id] && (!node_alive[from] || !node_alive[to]) {
                edge_alive[id] = false;
                changed = true;
            }
        }
        for (node, alive) in node_alive.iter_mut().enumerate() {
            if *alive && !graph.outgoing(node).iter().any(|&e| edge_alive[e]) {
                *alive = false;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    Ok(Pruned { node_alive, edge_alive, iterations })
}

/// Rows of `u32` items in one flat buffer (compressed sparse rows).
#[derive(Clone, Debug, Default)]
struct Csr {
    /// Row `r` is `items[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Groups `(row, item)` pairs by row, each row's items in input order.
    fn group(rows: usize, pairs: impl Iterator<Item = (usize, u32)> + Clone) -> Csr {
        let mut starts = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            starts[row + 1] += 1;
        }
        for row in 0..rows {
            starts[row + 1] += starts[row];
        }
        let mut items = vec![0; starts[rows] as usize];
        // Each row's start serves as its cursor, ending at the next row's
        // start; shifting the starts up one row restores them.
        for (row, item) in pairs {
            items[starts[row] as usize] = item;
            starts[row] += 1;
        }
        starts.copy_within(..rows, 1);
        starts[0] = 0;
        Csr { starts, items }
    }

    fn row(&self, row: usize) -> &[u32] {
        &self.items[self.starts[row] as usize..self.starts[row + 1] as usize]
    }
}

/// Computes, for every node, whether a live edge among `fulfilling` (the
/// edges fulfilling one eventuality) is reachable from it through live
/// edges (including taking the fulfilling edge itself).
fn reachable_to_fulfilling(
    graph: &TableauGraph,
    node_alive: &[bool],
    edge_alive: &[bool],
    incoming: &Csr,
    fulfilling: &[u32],
) -> Vec<bool> {
    let mut reach = vec![false; graph.node_count()];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut visit = |eid: u32, queue: &mut VecDeque<NodeId>| {
        let from = graph.data.ends[eid as usize].0;
        if edge_alive[eid as usize] && node_alive[from] && !reach[from] {
            reach[from] = true;
            queue.push_back(from);
        }
    };
    for &eid in fulfilling {
        visit(eid, &mut queue);
    }
    // Backward closure over live edges.
    while let Some(node) = queue.pop_front() {
        for &eid in incoming.row(node) {
            visit(eid, &mut queue);
        }
    }
    reach
}

/// Decides satisfiability of `formula` in pure temporal logic (all atoms uninterpreted).
pub fn satisfiable_pure(formula: &Ltl) -> bool {
    let graph = TableauGraph::build(formula);
    let pruned = prune(&graph, &crate::theory::PropositionalTheory::new());
    pruned.node_alive(graph.initial())
}

/// [`satisfiable_pure`] under a [`ResourceBudget`]: `Err` names the
/// resource that ran out during construction or pruning.
pub fn satisfiable_pure_budgeted(
    formula: &Ltl,
    budget: &ResourceBudget,
) -> Result<bool, Exhaustion> {
    let graph = TableauGraph::try_build_budgeted(formula, budget, Parallelism::Off)?;
    let theory = crate::theory::PropositionalTheory::new();
    let pruned = prune_budgeted(&graph, &theory, Parallelism::Off, budget)?;
    Ok(pruned.node_alive(graph.initial()))
}

/// Decides validity of `formula` in pure temporal logic.
pub fn valid_pure(formula: &Ltl) -> bool {
    !satisfiable_pure(&formula.clone().not())
}

/// [`valid_pure`] under a [`ResourceBudget`].
pub fn valid_pure_budgeted(formula: &Ltl, budget: &ResourceBudget) -> Result<bool, Exhaustion> {
    satisfiable_pure_budgeted(&formula.clone().not(), budget).map(|sat| !sat)
}

/// The formula-level builder the interned one replaced, kept verbatim as
/// the test oracle of its bit-identity: expansion over boxed `Ltl` sets,
/// node interning on `BTreeSet<Ltl>` labels, the eventuality index by
/// binary search, each BFS level expanded in full against the edge budget
/// left at its start before it is merged.  Beside it, the closure
/// computation the hash-consed one replaced: `Ltl` values found by hashing,
/// sorted by `Ltl`'s `Ord` and numbered by binary search.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

    use super::{Edge, NodeId, Rule};
    use crate::pool::{Exhaustion, ResourceBudget};
    use crate::syntax::{Atom, Literal, Ltl};

    /// The closure profile the hash-consed one replaced: the components
    /// as cloned formulas in a `BTreeSet`, every occurrence walked.
    pub(super) fn closure_profile(formula: &Ltl) -> super::ClosureProfile {
        fn components(f: &Ltl, positive: bool, out: &mut BTreeSet<Ltl>) {
            match f {
                Ltl::True | Ltl::False | Ltl::Atom(_) => {}
                Ltl::Not(a) => components(a, !positive, out),
                Ltl::And(a, b) | Ltl::Or(a, b) => {
                    components(a, positive, out);
                    components(b, positive, out);
                }
                Ltl::Next(a) => {
                    out.insert(if positive { (**a).clone() } else { (**a).clone().not() });
                    components(a, positive, out);
                }
                Ltl::Always(a) => {
                    if positive {
                        out.insert(f.clone());
                    } else {
                        out.insert((**a).clone().not().eventually());
                    }
                    components(a, positive, out);
                    components(a, !positive, out);
                }
                Ltl::Eventually(a) => {
                    if positive {
                        out.insert(f.clone());
                    } else {
                        out.insert((**a).clone().not().always());
                    }
                    components(a, positive, out);
                    components(a, !positive, out);
                }
                Ltl::Until(p, q) => {
                    if positive {
                        out.insert(f.clone());
                    } else {
                        out.insert(f.clone().not());
                    }
                    components(p, true, out);
                    components(p, false, out);
                    components(q, true, out);
                    components(q, false, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        components(formula, true, &mut out);
        super::ClosureProfile {
            components: out.len(),
            atoms: formula.atoms().len(),
            size: formula.size(),
        }
    }

    /// The expansion closure of a formula as the formulas themselves,
    /// ascending, with each formula's rule over closure ids.
    pub(super) struct Closure {
        pub(super) formulas: Vec<Ltl>,
        pub(super) rules: Vec<Rule>,
        pub(super) words: usize,
        pub(super) root: u32,
    }

    impl Rule {
        /// The rule of `formula`, naming each formula it rewrites to through
        /// `id`.  The constructors are exactly the ones the expansion rules
        /// apply (`Ltl::not`'s simplifications included), so the closure holds
        /// every formula an expansion can push, and ids compare as the
        /// formulas do.
        fn of(formula: &Ltl, mut id: impl FnMut(Ltl) -> u32) -> Rule {
            match formula {
                Ltl::True => Rule::True,
                Ltl::False => Rule::False,
                Ltl::Atom(_) => Rule::Literal(id(formula.clone()), true),
                Ltl::Not(inner) => match &**inner {
                    Ltl::True => Rule::False,
                    Ltl::False => Rule::True,
                    Ltl::Atom(_) => Rule::Literal(id((**inner).clone()), false),
                    Ltl::Not(a) => Rule::Rewrite(id((**a).clone())),
                    Ltl::And(a, b) => Rule::Rewrite(id(Ltl::Or(
                        Box::new((**a).clone().not()),
                        Box::new((**b).clone().not()),
                    ))),
                    Ltl::Or(a, b) => Rule::Both(id((**a).clone().not()), id((**b).clone().not())),
                    Ltl::Next(a) => Rule::Next(id((**a).clone().not())),
                    Ltl::Always(a) => {
                        Rule::Rewrite(id(Ltl::Eventually(Box::new((**a).clone().not()))))
                    }
                    Ltl::Eventually(a) => {
                        Rule::Rewrite(id(Ltl::Always(Box::new((**a).clone().not()))))
                    }
                    Ltl::Until(p, q) => {
                        Rule::NotUntil(id((**p).clone().not()), id((**q).clone().not()))
                    }
                },
                Ltl::And(a, b) => Rule::Both(id((**a).clone()), id((**b).clone())),
                Ltl::Or(a, b) => Rule::Either(id((**a).clone()), id((**b).clone())),
                Ltl::Next(a) => Rule::Next(id((**a).clone())),
                Ltl::Always(a) => Rule::Always(id((**a).clone())),
                Ltl::Eventually(a) => Rule::Eventually(id((**a).clone())),
                Ltl::Until(p, q) => Rule::Until(id((**p).clone()), id((**q).clone())),
            }
        }
    }

    impl Closure {
        /// Interns the expansion closure of `root`.
        pub(super) fn of(root: &Ltl) -> Closure {
            let mut found: HashSet<Ltl> = HashSet::new();
            let mut stack = vec![root.clone()];
            while let Some(formula) = stack.pop() {
                if found.contains(&formula) {
                    continue;
                }
                Rule::of(&formula, |next| {
                    if !found.contains(&next) {
                        stack.push(next);
                    }
                    0
                });
                found.insert(formula);
            }
            let mut formulas: Vec<Ltl> = found.into_iter().collect();
            formulas.sort_unstable();
            let id_of = |f: &Ltl| formulas.binary_search(f).expect("closed under the rules") as u32;
            let rules = formulas.iter().map(|f| Rule::of(f, |next| id_of(&next))).collect();
            Closure { rules, words: formulas.len().div_ceil(64), root: id_of(root), formulas }
        }
    }

    /// One saturated expansion of a node label set.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct Expansion {
        literals: BTreeMap<Atom, bool>,
        next: BTreeSet<Ltl>,
        eventualities: BTreeSet<Ltl>,
        fulfilled: BTreeSet<Ltl>,
    }

    /// A built graph: node labels, edges, and the eventuality index as
    /// `(all, per-edge mentioned indices, per-edge fulfilled indices)`.
    pub(super) type Built = (Vec<BTreeSet<Ltl>>, Vec<Edge>, EventualityCsr);
    pub(super) type EventualityCsr = (Vec<Ltl>, Vec<Vec<u32>>, Vec<Vec<u32>>);

    /// The old `try_build_budgeted` at `Parallelism::Off`.
    pub(super) fn build(formula: &Ltl, budget: &ResourceBudget) -> Result<Built, Exhaustion> {
        let mut labels: Vec<BTreeSet<Ltl>> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut index: HashMap<BTreeSet<Ltl>, NodeId> = HashMap::new();
        let mut intern = |labels: &mut Vec<BTreeSet<Ltl>>, label: BTreeSet<Ltl>| {
            *index.entry(label.clone()).or_insert_with(|| {
                labels.push(label);
                labels.len() - 1
            })
        };
        let init = intern(&mut labels, [formula.clone()].into_iter().collect());
        let mut frontier: Vec<NodeId> = vec![init];
        let mut processed: BTreeSet<NodeId> = BTreeSet::new();
        while !frontier.is_empty() {
            let level: Vec<NodeId> =
                frontier.drain(..).filter(|node| processed.insert(*node)).collect();
            if level.is_empty() {
                break;
            }
            let level_cap = budget.max_edges().saturating_sub(edges.len());
            let expansions: Vec<_> =
                level.iter().map(|&node| expand_set(&labels[node], level_cap)).collect();
            for (&node, exps) in level.iter().zip(expansions) {
                let Some(exps) = exps else {
                    return Err(Exhaustion::Edges);
                };
                for exp in exps {
                    let target = intern(&mut labels, exp.next.clone());
                    if labels.len() > budget.max_nodes() {
                        return Err(Exhaustion::Nodes);
                    }
                    if edges.len() >= budget.max_edges() {
                        return Err(Exhaustion::Edges);
                    }
                    if !processed.contains(&target) {
                        frontier.push(target);
                    }
                    let literals = exp
                        .literals
                        .iter()
                        .map(|(atom, positive)| Literal { atom: atom.clone(), positive: *positive })
                        .collect();
                    edges.push(Edge {
                        from: node,
                        to: target,
                        literals,
                        eventualities: exp.eventualities,
                        fulfilled: exp.fulfilled,
                    });
                }
            }
        }
        let index = eventuality_index(&edges);
        Ok((labels, edges, index))
    }

    /// The old `EventualityIndex::build`, unpacked into per-edge rows.
    fn eventuality_index(edges: &[Edge]) -> EventualityCsr {
        let mut set: BTreeSet<&Ltl> = BTreeSet::new();
        for edge in edges {
            set.extend(edge.eventualities.iter());
        }
        let all: Vec<Ltl> = set.into_iter().cloned().collect();
        let row = |evs: &BTreeSet<Ltl>| -> Vec<u32> {
            evs.iter().filter_map(|ev| all.binary_search(ev).ok()).map(|ei| ei as u32).collect()
        };
        let mentions = edges.iter().map(|edge| row(&edge.eventualities)).collect();
        let fulfilled = edges.iter().map(|edge| row(&edge.fulfilled)).collect();
        (all, mentions, fulfilled)
    }

    /// Expands a set of formulae into all of its saturated alternatives, or
    /// `None` when more than `cap` alternatives would be produced.
    fn expand_set(label: &BTreeSet<Ltl>, cap: usize) -> Option<Vec<Expansion>> {
        let mut results = Vec::new();
        let pending: Vec<Ltl> = label.iter().cloned().collect();
        if expand_rec(pending, BTreeSet::new(), Expansion::default(), &mut results, cap) {
            Some(results)
        } else {
            None
        }
    }

    /// Returns `false` when the expansion exceeded `cap` alternatives.
    fn expand_rec(
        mut pending: Vec<Ltl>,
        mut seen: BTreeSet<Ltl>,
        mut acc: Expansion,
        results: &mut Vec<Expansion>,
        cap: usize,
    ) -> bool {
        loop {
            let Some(formula) = pending.pop() else {
                if results.len() >= cap {
                    return false;
                }
                results.push(acc);
                return true;
            };
            if !seen.insert(formula.clone()) {
                continue;
            }
            match formula {
                Ltl::True => {}
                Ltl::False => return true, // inconsistent branch
                Ltl::Atom(atom) => {
                    if !add_literal(&mut acc, atom, true) {
                        return true;
                    }
                }
                Ltl::Not(inner) => match *inner {
                    Ltl::True => return true,
                    Ltl::False => {}
                    Ltl::Atom(atom) => {
                        if !add_literal(&mut acc, atom, false) {
                            return true;
                        }
                    }
                    Ltl::Not(a) => pending.push(*a),
                    Ltl::And(a, b) => {
                        // ¬(a ∧ b)  →  ¬a ∨ ¬b
                        pending.push(Ltl::Or(Box::new(a.not()), Box::new(b.not())));
                    }
                    Ltl::Or(a, b) => {
                        pending.push(a.not());
                        pending.push(b.not());
                    }
                    Ltl::Next(a) => {
                        acc.next.insert(a.not());
                    }
                    Ltl::Always(a) => pending.push(Ltl::Eventually(Box::new(a.not()))),
                    Ltl::Eventually(a) => pending.push(Ltl::Always(Box::new(a.not()))),
                    Ltl::Until(p, q) => {
                        // ¬U(p, q)  →  ¬q ∧ (¬p  ∨  ◦¬U(p, q))  with eventuality ¬p.
                        let not_p = p.clone().not();
                        let not_u = Ltl::Until(p, q.clone()).not();
                        pending.push(q.not());
                        // Branch 1: ¬p holds now (eventuality fulfilled).
                        let mut now = Expansion {
                            literals: acc.literals.clone(),
                            next: acc.next.clone(),
                            eventualities: acc.eventualities.clone(),
                            fulfilled: acc.fulfilled.clone(),
                        };
                        now.fulfilled.insert(not_p.clone());
                        let mut now_pending = pending.clone();
                        now_pending.push(not_p.clone());
                        if !expand_rec(now_pending, seen.clone(), now, results, cap) {
                            return false;
                        }
                        // Branch 2: defer; promise the eventuality ¬p.
                        acc.eventualities.insert(not_p);
                        acc.next.insert(not_u);
                        continue;
                    }
                },
                Ltl::And(a, b) => {
                    pending.push(*a);
                    pending.push(*b);
                }
                Ltl::Or(a, b) => {
                    let mut left_pending = pending.clone();
                    left_pending.push(*a);
                    if !expand_rec(left_pending, seen.clone(), acc.clone(), results, cap) {
                        return false;
                    }
                    pending.push(*b);
                    continue;
                }
                Ltl::Next(a) => {
                    acc.next.insert(*a);
                }
                Ltl::Always(a) => {
                    // □a  →  a ∧ ◦□a
                    acc.next.insert(Ltl::Always(a.clone()));
                    pending.push(*a);
                }
                Ltl::Eventually(a) => {
                    // ◇a  →  a  ∨  ◦◇a  (eventuality a).
                    let body = (*a).clone();
                    // Branch 1: a holds now (eventuality fulfilled).
                    let mut now = acc.clone();
                    now.fulfilled.insert(body.clone());
                    let mut now_pending = pending.clone();
                    now_pending.push(body.clone());
                    if !expand_rec(now_pending, seen.clone(), now, results, cap) {
                        return false;
                    }
                    // Branch 2: defer.
                    acc.eventualities.insert(body);
                    acc.next.insert(Ltl::Eventually(a));
                    continue;
                }
                Ltl::Until(p, q) => {
                    // Weak until:  U(p, q)  →  q  ∨  (p ∧ ◦U(p, q)); no eventuality.
                    let mut q_now = acc.clone();
                    let mut q_pending = pending.clone();
                    q_pending.push((*q).clone());
                    q_now.fulfilled.insert((*q).clone());
                    if !expand_rec(q_pending, seen.clone(), q_now, results, cap) {
                        return false;
                    }
                    pending.push((*p).clone());
                    acc.next.insert(Ltl::Until(p, q));
                    continue;
                }
            }
        }
    }

    /// Adds a literal to an expansion; returns `false` if it contradicts an existing literal.
    fn add_literal(acc: &mut Expansion, atom: Atom, positive: bool) -> bool {
        match acc.literals.get(&atom) {
            Some(&existing) => existing == positive,
            None => {
                acc.literals.insert(atom, positive);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::semantics::{TlState, TlTrace};
    use crate::theory::PropositionalTheory;

    fn p() -> Ltl {
        Ltl::prop("P")
    }
    fn q() -> Ltl {
        Ltl::prop("Q")
    }

    /// `[ ⇒ q ] □p` / `[ ⇒ q ] ◇p` as `ilogic-core`'s `to_ltl` used to
    /// write them: the constructive strong-until chain up to the first `q`
    /// event.  Its graphs are larger than the one-step encoding's, so they
    /// stay here as the heaviest shapes the reference comparison runs on.
    fn up_to_event(q: Ltl, p: Ltl) -> Ltl {
        let completion = p.clone().and(q.clone());
        let falling = p.clone().and(q.clone().not());
        let inner = falling.clone().strong_until(completion);
        p.and(q).strong_until(falling.and(inner))
    }

    fn prefix_always(q: Ltl, p: Ltl) -> Ltl {
        let never = q.clone().always().or(q.clone().until(q.clone().not().always()));
        never.or(up_to_event(q, p))
    }

    fn prefix_eventually(q: Ltl, p: Ltl) -> Ltl {
        up_to_event(q, p.not()).not()
    }

    /// The hard shapes, as the formulas whose tableau the decision builds
    /// (the negated LTL image), with their pinned node/edge counts.
    fn hard_shapes() -> Vec<(&'static str, Ltl, usize, usize)> {
        let r = || Ltl::prop("R");
        vec![
            ("[ => P ] [](P | Q)", prefix_always(p(), p().or(q())).not(), 79, 1812),
            ("[ => R ] [](P | Q)", prefix_always(r(), p().or(q())).not(), 97, 3362),
            ("~[ => P ] <>Q", prefix_eventually(p(), q()).not().not(), 13, 195),
        ]
    }

    /// Builds `formula` with the interned builder and the reference one
    /// under `budget`, and requires the same answer: the same cap tripped,
    /// or the same labels, edges (ids, ends, literals, eventualities,
    /// fulfilled) and eventuality index.
    fn assert_matches_reference(formula: &Ltl, budget: &ResourceBudget, parallelism: Parallelism) {
        let expected = reference::build(formula, budget);
        let actual = TableauGraph::try_build_budgeted(formula, budget, parallelism);
        match (expected, actual) {
            (Err(expected), Err(actual)) => assert_eq!(expected, actual, "{formula}"),
            (Ok((labels, edges, (all, mentions, fulfilled))), Ok(graph)) => {
                assert_eq!(graph.initial(), 0, "{formula}");
                assert_eq!(graph.node_count(), labels.len(), "{formula}");
                for (node, label) in labels.iter().enumerate() {
                    assert_eq!(graph.label(node), label, "{formula} node {node}");
                }
                assert_eq!(graph.edges(), edges, "{formula}");
                for (eid, edge) in edges.iter().enumerate() {
                    assert_eq!(graph.literals(eid), edge.literals, "{formula} e{eid}");
                    assert_eq!(graph.target(eid), edge.to, "{formula} e{eid}");
                }
                for node in 0..graph.node_count() {
                    let from_node: Vec<EdgeId> =
                        (0..edges.len()).filter(|&eid| edges[eid].from == node).collect();
                    assert_eq!(graph.outgoing(node), from_node, "{formula} node {node}");
                }
                assert_eq!(graph.eventualities(), all, "{formula}");
                for eid in 0..edges.len() {
                    assert_eq!(
                        graph.data.ev_index.mentions(eid),
                        mentions[eid],
                        "{formula} e{eid}"
                    );
                    assert_eq!(
                        graph.data.ev_index.fulfilled(eid),
                        fulfilled[eid],
                        "{formula} e{eid}"
                    );
                }
            }
            (expected, actual) => panic!(
                "{formula}: reference {:?} vs interned {:?}",
                expected.map(|(labels, edges, _)| (labels.len(), edges.len())),
                actual.map(|graph| (graph.node_count(), graph.edge_count()))
            ),
        }
    }

    /// Budgets around the formula's own size: unbounded, then node and edge
    /// caps at 0, 1, half, one short and exactly enough.
    fn tight_budgets(formula: &Ltl) -> Vec<ResourceBudget> {
        let graph = TableauGraph::build(formula);
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        let mut budgets = vec![ResourceBudget::unbounded()];
        for cap in [0, 1, nodes / 2, nodes.saturating_sub(1), nodes] {
            budgets.push(ResourceBudget::unbounded().with_max_nodes(cap));
        }
        for cap in [0, 1, edges / 2, edges.saturating_sub(1), edges] {
            budgets.push(ResourceBudget::unbounded().with_max_edges(cap));
        }
        budgets
    }

    /// Random formulas over raw constructors, so shapes `Ltl::not`'s
    /// simplifications never build (`¬⊤`, `¬¬a`, `¬(a ∧ b)`) occur too.
    fn arb_formula() -> BoxedStrategy<Ltl> {
        let leaf = prop_oneof![
            Just(p()),
            Just(q()),
            Just(Ltl::prop("R")),
            Just(Ltl::True),
            Just(Ltl::False),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|a| Ltl::Not(Box::new(a))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Ltl::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Ltl::Or(Box::new(a), Box::new(b))),
                inner.clone().prop_map(Ltl::next),
                inner.clone().prop_map(Ltl::always),
                inner.clone().prop_map(Ltl::eventually),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.until(b)),
            ]
        })
        .boxed()
    }

    /// Budgets capping nodes and edges together, each at 0, 1, half, one
    /// short and exactly enough.
    fn joint_budgets(formula: &Ltl) -> Vec<ResourceBudget> {
        let graph = TableauGraph::build(formula);
        let caps = |n: usize| [0, 1, n / 2, n.saturating_sub(1), n];
        let mut budgets = Vec::new();
        for nodes in caps(graph.node_count()) {
            for edges in caps(graph.edge_count()) {
                budgets
                    .push(ResourceBudget::unbounded().with_max_nodes(nodes).with_max_edges(edges));
            }
        }
        budgets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The hash-consed closure holds the reference closure's formulas in
        /// the same order, with the same rules, and its id comparator agrees
        /// with `Ltl::cmp` on every pair of interned terms.
        #[test]
        fn hash_consed_closure_matches_the_reference(formula in arb_formula()) {
            let closure = Closure::of(&formula);
            let expected = reference::Closure::of(&formula);
            let formulas: Vec<Ltl> =
                (0..closure.len() as u32).map(|id| closure.formula(id)).collect();
            prop_assert_eq!(&formulas, &expected.formulas);
            prop_assert_eq!(&closure.rules, &expected.rules);
            prop_assert_eq!((closure.root, closure.words), (expected.root, expected.words));
            let terms = &closure.terms;
            let ltls: Vec<Ltl> = (0..terms.kinds.len() as u32).map(|id| terms.ltl(id)).collect();
            for a in 0..ltls.len() {
                for b in 0..ltls.len() {
                    prop_assert_eq!(
                        terms.cmp(a as u32, b as u32),
                        ltls[a].cmp(&ltls[b]),
                        "{} vs {}",
                        &ltls[a],
                        &ltls[b]
                    );
                }
            }
        }

        /// The hash-consed closure profile counts what the cloning one
        /// counted.
        #[test]
        fn closure_profile_matches_the_reference(formula in arb_formula()) {
            prop_assert_eq!(closure_profile(&formula), reference::closure_profile(&formula));
        }

        /// Node and edge caps together name the cap the reference builder
        /// names, including where a node's expansion outruns its level's
        /// edge budget before its edges would trip the node cap.
        #[test]
        fn interned_builder_matches_the_reference_under_joint_caps(formula in arb_formula()) {
            for budget in joint_budgets(&formula) {
                assert_matches_reference(&formula, &budget, Parallelism::Off);
            }
        }

        /// The interned builder is bit-identical to the reference builder
        /// on random formulas, under tight structural caps too, and at two
        /// workers.
        #[test]
        fn interned_builder_matches_the_reference(formula in arb_formula()) {
            for budget in tight_budgets(&formula) {
                assert_matches_reference(&formula, &budget, Parallelism::Off);
            }
            assert_matches_reference(&formula, &ResourceBudget::unbounded(), Parallelism::Fixed(2));
        }
    }

    #[test]
    fn interned_builder_matches_the_reference_on_the_hard_shapes() {
        let mut formulas: Vec<Ltl> = crate::patterns::appendix_b_table()
            .into_iter()
            .map(|(_, formula)| formula.not())
            .collect();
        for (name, formula, nodes, edges) in hard_shapes() {
            let graph = TableauGraph::build(&formula);
            assert_eq!((graph.node_count(), graph.edge_count()), (nodes, edges), "{name}");
            formulas.push(formula);
        }
        for formula in &formulas {
            for budget in tight_budgets(formula) {
                assert_matches_reference(formula, &budget, Parallelism::Off);
            }
        }
    }

    #[test]
    fn tautologies_are_valid() {
        assert!(valid_pure(&p().or(p().not())));
        assert!(valid_pure(&Ltl::True));
        assert!(!valid_pure(&p()));
    }

    #[test]
    fn contradictions_are_unsatisfiable() {
        assert!(!satisfiable_pure(&p().and(p().not())));
        assert!(satisfiable_pure(&p().and(q().not())));
    }

    #[test]
    fn eventually_always_implies_always_eventually() {
        let f = p().always().eventually().implies(p().eventually().always());
        assert!(valid_pure(&f));
        // The converse is not valid.
        let g = p().eventually().always().implies(p().always().eventually());
        assert!(!valid_pure(&g));
    }

    #[test]
    fn eventually_p_implies_eventually_p_is_valid() {
        assert!(valid_pure(&p().eventually().implies(p().eventually())));
    }

    #[test]
    fn always_p_and_not_p_unsat() {
        assert!(!satisfiable_pure(&p().always().and(p().not().eventually())));
        assert!(satisfiable_pure(&p().always()));
    }

    #[test]
    fn eventuality_forces_fulfilment() {
        // ◇P ∧ □¬P is unsatisfiable; the eventuality check must detect it.
        let f = p().eventually().and(p().not().always());
        assert!(!satisfiable_pure(&f));
    }

    #[test]
    fn weak_until_without_eventuality_is_satisfiable_by_invariance() {
        // U(P, Q) ∧ □¬Q is satisfiable (P can hold forever).
        let f = p().until(q()).and(q().not().always());
        assert!(satisfiable_pure(&f));
        // But additionally requiring ◇¬P makes it unsatisfiable.
        let g = p().until(q()).and(q().not().always()).and(p().not().eventually());
        assert!(!satisfiable_pure(&g));
    }

    #[test]
    fn negated_weak_until_requires_eventual_not_p() {
        // ¬U(P, Q) ∧ □P is unsatisfiable (¬U implies ◇¬P).
        let f = p().until(q()).not().and(p().always());
        assert!(!satisfiable_pure(&f));
        // ¬U(P, Q) alone is satisfiable.
        assert!(satisfiable_pure(&p().until(q()).not()));
    }

    #[test]
    fn until_unrolling_is_valid() {
        // U(p, q)  ≡  q ∨ (p ∧ ◦U(p, q))
        let u = p().until(q());
        let unrolled = q().or(p().and(u.clone().next()));
        assert!(valid_pure(&u.clone().iff(unrolled)));
    }

    #[test]
    fn budgeted_construction_names_the_tripped_cap() {
        let formula = p().always().not();
        // Generous budget: construction succeeds and matches the unbounded graph.
        let graph = TableauGraph::try_build_budgeted(
            &formula,
            &ResourceBudget::default(),
            Parallelism::Off,
        )
        .expect("well within the default caps");
        assert_eq!(graph.node_count(), TableauGraph::build(&formula).node_count());
        // A 1-node budget trips on Nodes, a 0-edge budget on Edges.
        let no_nodes = ResourceBudget::unbounded().with_max_nodes(0);
        assert_eq!(
            TableauGraph::try_build_budgeted(&formula, &no_nodes, Parallelism::Off).err(),
            Some(Exhaustion::Nodes)
        );
        let no_edges = ResourceBudget::unbounded().with_max_edges(0);
        assert_eq!(
            TableauGraph::try_build_budgeted(&formula, &no_edges, Parallelism::Off).err(),
            Some(Exhaustion::Edges)
        );
        // A pre-cancelled token interrupts before the first level.
        let token = crate::pool::CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        assert_eq!(valid_pure_budgeted(&formula, &cancelled).err(), Some(Exhaustion::Cancelled));
        // The budgeted validity entry settles a theorem under the default caps.
        assert_eq!(valid_pure_budgeted(&p().or(p().not()), &ResourceBudget::default()), Ok(true));
    }

    #[test]
    fn graph_counts_are_positive() {
        let graph = TableauGraph::build(&p().always().not());
        assert!(graph.node_count() >= 1);
        assert!(graph.edge_count() >= 1);
        let pruned = prune(&graph, &PropositionalTheory::new());
        assert!(pruned.iterations >= 1);
    }

    /// Cross-validate the tableau against the concrete semantics on random formulas.
    #[test]
    fn tableau_agrees_with_semantics_on_small_formulas() {
        // Enumerate all traces of length 3 with a loop over props {P, Q} and
        // compare "satisfiable" with "has a model among these traces".
        // (Only one direction can be checked exhaustively: a model among the
        //  enumerated traces implies satisfiability.)
        let formulas = vec![
            p().always(),
            p().eventually().and(q().eventually()),
            p().until(q()),
            p().until(q()).not(),
            p().always().eventually(),
            p().implies(q().next()).always(),
        ];
        for f in formulas {
            let mut found_model = false;
            for bits in 0..64u32 {
                let states: Vec<TlState> = (0..3)
                    .map(|i| {
                        TlState::new()
                            .with_prop("P", bits & (1 << (2 * i)) != 0)
                            .with_prop("Q", bits & (1 << (2 * i + 1)) != 0)
                    })
                    .collect();
                for loop_start in 0..3 {
                    let trace = TlTrace::lasso(states.clone(), loop_start);
                    if trace.eval(&f) {
                        found_model = true;
                    }
                }
            }
            if found_model {
                assert!(satisfiable_pure(&f), "semantic model exists but tableau says unsat: {f}");
            }
        }
    }
}
