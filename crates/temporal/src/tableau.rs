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
//! Construction never expands boxed formula sets.  It first computes the
//! formula's expansion closure (every formula the rules can reach), sorts it
//! in `Ltl`'s order and numbers it, so a node label, a next-state set or an
//! eventuality set is a fixed-width bitset of closure ids and a pending
//! formula is a `u32`.  Because ascending id order is `BTreeSet<Ltl>` order,
//! the traversal, the node ids and the edge ids are exactly those of an
//! expansion over the formulas themselves (a `#[cfg(test)]` reference
//! builder pins this).  Each distinct literal conjunction is materialised
//! once per graph; the `Ltl` labels and [`Edge`]s are materialised once, on
//! first use of the accessors that return them, which the decision
//! procedures never call.
//!
//! # Parallelism
//!
//! Both phases fan out over the [`crate::pool`] worker pool —
//! [`TableauGraph::try_build_budgeted`] expands each breadth-first frontier's
//! node labels concurrently (expansion is a pure function of the label set
//! over the shared, read-only closure table) and merges the results in
//! sequential frontier order on the calling thread, and [`prune_with`]
//! stripes the per-edge theory checks and the per-eventuality reachability
//! analyses.  The merge discipline makes the graph *bit-identical* at every
//! worker count: same node ids, same edge ids, same exhaustion answers under
//! the structural caps of a [`crate::pool::ResourceBudget`].
//!
//! # Cost
//!
//! On the hard `[ => α ] []β` family the tableau used to be the main cost
//! of a decision: the LTL image of `[ => r ] [](p | q)` expands to 97 nodes
//! and 3362 edges.  `perfbench --workload decide_heavy --seed 1 --seconds 8
//! --trace 1` replays one round of the benchmark's hard-family workload (44
//! tableaux, 1815 nodes in all) layer by layer.  On a shared 2-vCPU Intel
//! Xeon VM it read `tableau.build_us` 1419 µs and `tableau.busy_ms` 1472 ms
//! (build and prune together) when expansion cloned boxed formula sets,
//! and reads 144 µs and 24 ms over interned ids, for the same 1815 nodes.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

use crate::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::syntax::{Literal, Ltl};
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
    /// The closure the ids index, shared by clones.
    closure: Arc<Closure>,
    /// Node labels as closure bitsets, `closure.words` each.
    labels: Vec<u64>,
    /// Source and target of each edge.
    ends: Vec<(NodeId, NodeId)>,
    /// Each edge's saturated expansion state, `SLOTS × closure.words` each.
    states: Vec<u64>,
    /// The distinct literal conjunctions, and each edge's index into them.
    literal_sets: Vec<Vec<Literal>>,
    edge_literals: Vec<u32>,
    outgoing: Vec<Vec<EdgeId>>,
    initial: NodeId,
    ev_index: EventualityIndex,
    plan: SweepPlan,
    /// The `Ltl` labels and edges, once materialised.
    materialised: OnceLock<(Vec<BTreeSet<Ltl>>, Vec<Edge>)>,
}

/// Per-graph eventuality index, derived once at the end of construction:
/// the distinct eventualities of the graph in ascending order, plus
/// CSR-packed per-edge lists of the indices each edge mentions
/// (`eventualities`) and fulfills (`fulfilled`).  Algorithm B's fixpoint
/// engines and the Boolean projection consult it instead of re-deriving the
/// union and re-probing the per-edge `BTreeSet`s — deep structural `Ltl`
/// comparisons that used to dominate whole evaluator calls — on every run
/// over the same graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventualityIndex {
    /// The distinct eventualities, ascending in `Ltl`'s order.
    pub(crate) all: Vec<Ltl>,
    /// Concatenated ascending per-edge lists of mentioned indices.
    mentions: Vec<u32>,
    /// `mentions` range of edge `eid`: `starts[eid]..starts[eid + 1]`.
    mentions_starts: Vec<u32>,
    /// Concatenated ascending per-edge lists of fulfilled indices.
    fulfilled: Vec<u32>,
    /// `fulfilled` range of edge `eid`.
    fulfilled_starts: Vec<u32>,
}

impl EventualityIndex {
    /// The index of the edges whose saturated expansion states (`SLOTS ×
    /// words` each, in edge order) are `states`.
    fn build(closure: &Closure, states: &[u64]) -> EventualityIndex {
        let edges = states.chunks_exact(SLOTS * closure.words);
        let mut union = vec![0u64; closure.words];
        for state in edges.clone() {
            for (word, promised) in union.iter_mut().zip(closure.slot(state, PROMISED)) {
                *word |= promised;
            }
        }
        // Closure ids ascend in `Ltl`'s order, so `all` comes out ascending
        // and so does every CSR row.
        let mut position = vec![u32::MAX; closure.formulas.len()];
        let all = ids(&union)
            .enumerate()
            .map(|(ei, id)| {
                position[id as usize] = ei as u32;
                closure.formulas[id as usize].clone()
            })
            .collect();
        let mut mentions = Vec::new();
        let mut mentions_starts = vec![0];
        let mut fulfilled = Vec::new();
        let mut fulfilled_starts = vec![0];
        for state in edges {
            mentions.extend(ids(closure.slot(state, PROMISED)).map(|id| position[id as usize]));
            mentions_starts.push(mentions.len() as u32);
            fulfilled.extend(
                ids(closure.slot(state, FULFILLED))
                    .map(|id| position[id as usize])
                    .filter(|&ei| ei != u32::MAX),
            );
            fulfilled_starts.push(fulfilled.len() as u32);
        }
        EventualityIndex { all, mentions, mentions_starts, fulfilled, fulfilled_starts }
    }

    /// Ascending indices (into [`EventualityIndex::all`]) of the
    /// eventualities edge `eid` mentions.
    pub(crate) fn mentions(&self, eid: EdgeId) -> &[u32] {
        &self.mentions[self.mentions_starts[eid] as usize..self.mentions_starts[eid + 1] as usize]
    }

    /// Ascending indices of the eventualities edge `eid` fulfills.
    pub(crate) fn fulfilled(&self, eid: EdgeId) -> &[u32] {
        &self.fulfilled
            [self.fulfilled_starts[eid] as usize..self.fulfilled_starts[eid + 1] as usize]
    }
}

/// Per-graph fixpoint plan, derived once at the end of construction for the
/// semi-naive worklist engines of [`crate::algorithm_b`]: the strongly
/// connected components in reverse-topological order, the reverse-dependency
/// CSR that turns a changed `delete`/`fail` value into the tasks to mark
/// dirty, each edge's target node as a flat array, and the dense
/// edge × eventuality "not fulfilled" table the `fail` equations branch on.
/// Every entry is a pure function of the finished graph, so computing it
/// here amortizes it across every fixpoint run — most visibly across the
/// thousands of Boolean-projected evaluations one evaluated decision makes
/// over the same tableau.  The full-sweep and baseline disciplines
/// deliberately do *not* read it: they preserve their original per-call
/// derivations as the comparison anchors.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepPlan {
    /// Strongly connected components, reverse-topological (every edge leaves
    /// a component listed no earlier than its target's).
    pub(crate) sccs: Vec<Vec<NodeId>>,
    /// `rev_preds` range of node `m`: `rev_starts[m]..rev_starts[m + 1]`.
    rev_starts: Vec<u32>,
    /// Concatenated ascending predecessor lists: the nodes whose equations
    /// read the values at `m`.
    rev_preds: Vec<u32>,
    /// Target node of each edge.
    pub(crate) targets: Vec<u32>,
    /// `unfulfilled[eid * ne + ei]`: edge `eid` does not fulfill eventuality
    /// `ei` (an index into [`EventualityIndex::all`]).
    pub(crate) unfulfilled: Vec<bool>,
}

impl SweepPlan {
    fn build(graph: &TableauGraph) -> SweepPlan {
        let n = graph.node_count();
        let sccs = crate::algorithm_b::strongly_connected_components(graph);
        let mut rev_starts = vec![0u32; n + 1];
        for node in 0..n {
            for &eid in graph.outgoing(node) {
                rev_starts[graph.target(eid) + 1] += 1;
            }
        }
        for m in 0..n {
            rev_starts[m + 1] += rev_starts[m];
        }
        let mut rev_preds = vec![0u32; rev_starts[n] as usize];
        let mut cursor = rev_starts.clone();
        // The outer loop ascends in `node`, so every row comes out ascending.
        for node in 0..n {
            for &eid in graph.outgoing(node) {
                let to = graph.target(eid);
                rev_preds[cursor[to] as usize] = node as u32;
                cursor[to] += 1;
            }
        }
        let ne = graph.ev_index.all.len();
        let targets = graph.ends.iter().map(|&(_, to)| to as u32).collect();
        let mut unfulfilled = vec![true; graph.edge_count() * ne];
        for eid in 0..graph.edge_count() {
            for &ei in graph.ev_index.fulfilled(eid) {
                unfulfilled[eid * ne + ei as usize] = false;
            }
        }
        SweepPlan { sccs, rev_starts, rev_preds, targets, unfulfilled }
    }

    /// Nodes whose equations read the values at `m`, ascending.
    pub(crate) fn preds_of(&self, m: NodeId) -> &[u32] {
        &self.rev_preds[self.rev_starts[m] as usize..self.rev_starts[m + 1] as usize]
    }
}

/// The expansion closure of a formula, interned: every formula the
/// Appendix B expansion rules can reach from the root (plus the plain atom
/// of each negated atom, which names its literal), built with the same
/// `Ltl` constructors the rules use, sorted once in `Ltl`'s order and
/// numbered densely.  Ascending id order is therefore exactly `BTreeSet<Ltl>`
/// iteration order, so an expansion over ids visits formulas, interns node
/// labels and assigns node and edge ids in the same order as one over the
/// formulas themselves.  Sets of formulas become fixed-width bitsets of
/// `words` `u64`s.  The table is read-only once built, so the worker pool
/// shares it.
#[derive(Debug)]
struct Closure {
    /// The closure formulas, ascending; a formula's id is its index.
    formulas: Vec<Ltl>,
    /// What expanding each formula does, by id.
    rules: Vec<Rule>,
    /// `u64` words per bitset of closure ids.
    words: usize,
    /// Id of the root formula.
    root: u32,
}

/// The expansion rule of one closure formula, over the ids of the formulas
/// it rewrites to.
#[derive(Clone, Copy, Debug)]
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
                Ltl::Always(a) => Rule::Rewrite(id(Ltl::Eventually(Box::new((**a).clone().not())))),
                Ltl::Eventually(a) => Rule::Rewrite(id(Ltl::Always(Box::new((**a).clone().not())))),
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

/// Bitset slots of an expansion state, each `Closure::words` wide, packed
/// in one buffer: the formulas already expanded on this branch, the next
/// state's label, the eventualities promised, the eventualities fulfilled,
/// and the positive and negative literals (by plain-atom id).
const SEEN: usize = 0;
const NEXT: usize = 1;
const PROMISED: usize = 2;
const FULFILLED: usize = 3;
const POSITIVE: usize = 4;
const NEGATIVE: usize = 5;
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

    /// The formulas of a bitset, materialised.
    fn set(&self, bits: &[u64]) -> BTreeSet<Ltl> {
        ids(bits).map(|id| self.formulas[id as usize].clone()).collect()
    }

    /// Slot `slot` of an expansion state.
    fn slot<'b>(&self, state: &'b [u64], slot: usize) -> &'b [u64] {
        &state[slot * self.words..(slot + 1) * self.words]
    }

    /// The literals of a saturated expansion, in `Atom` order.
    fn literals(&self, state: &[u64]) -> Vec<Literal> {
        let positive = self.slot(state, POSITIVE);
        let negative = self.slot(state, NEGATIVE);
        let either: Vec<u64> = positive.iter().zip(negative).map(|(p, n)| p | n).collect();
        ids(&either)
            .map(|id| {
                let Ltl::Atom(atom) = &self.formulas[id as usize] else {
                    unreachable!("literal ids name plain atoms")
                };
                Literal { atom: atom.clone(), positive: contains(state, self.words, POSITIVE, id) }
            })
            .collect()
    }

    /// Expands a node label into all of its saturated alternatives, each a
    /// `SLOTS × words` state appended to the returned buffer, or `None`
    /// when more than `cap` alternatives would be produced.
    ///
    /// The search is depth-first, left branch first, as a recursive descent
    /// over formulas would be: at a branch the working state takes the left
    /// alternative and a copy of it takes the right one onto a stack of
    /// deferred branches, resumed latest first once the working branch
    /// saturates or turns out inconsistent.
    fn expand_label(&self, label: &[u64], cap: usize) -> Option<Vec<u64>> {
        let words = self.words;
        let mut results = Vec::new();
        let mut pending: Vec<u32> = ids(label).collect();
        let mut state = vec![0u64; SLOTS * words];
        let mut deferred = Deferred::default();
        loop {
            if self.saturate(&mut pending, &mut state, &mut deferred) {
                if results.len() / state.len() >= cap {
                    return None;
                }
                results.extend_from_slice(&state);
            }
            if !deferred.resume(&mut pending, &mut state) {
                return Some(results);
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
}

impl TableauGraph {
    /// Constructs the graph `Graph(formula)` representing the models of `formula`.
    pub fn build(formula: &Ltl) -> TableauGraph {
        TableauGraph::try_build_budgeted(formula, &ResourceBudget::unbounded(), Parallelism::Off)
            .expect("unbounded tableau construction cannot exceed its limits")
    }

    /// Constructs `Graph(formula)` under a [`ResourceBudget`], with the
    /// frontier expanded across a worker pool; the `Err` names the first
    /// resource that ran out ([`Exhaustion::Nodes`] / [`Exhaustion::Edges`]
    /// for the structural caps, [`Exhaustion::Deadline`] /
    /// [`Exhaustion::Cancelled`] for the cooperative cutoffs, polled once per
    /// BFS level).
    ///
    /// Construction is a breadth-first saturation over the formula's
    /// interned closure (formula ids, with sets as bitsets): each BFS
    /// level's node labels are expanded (a pure function of the label set)
    /// concurrently, and the per-node expansion lists are then merged on the
    /// calling thread *in sequential frontier order* — interning target
    /// labels, assigning node and edge identifiers, and applying the
    /// structural cap checks in exactly the order the single-threaded loop
    /// would.  The resulting graph is therefore bit-identical (same node
    /// ids, same edge ids, same edge order) at every worker count, and
    /// structural-cap `Err` answers agree too: expansion caps are taken from
    /// the level-start edge budget, which can only postpone a blowup into
    /// the merge's own limit checks, never change the answer.  Only the
    /// deadline/cancellation cutoffs are timing-dependent.
    pub fn try_build_budgeted(
        formula: &Ltl,
        budget: &ResourceBudget,
        parallelism: Parallelism,
    ) -> Result<TableauGraph, Exhaustion> {
        let pool = WorkerPool::new(parallelism);
        let closure = Closure::of(formula);
        let words = closure.words;
        let stride = SLOTS * words;
        // Node labels as bitsets, interned on the bitset.
        let mut labels: Vec<Box<[u64]>> = Vec::new();
        let mut index: HashMap<Box<[u64]>, NodeId> = HashMap::new();
        let mut intern = |labels: &mut Vec<Box<[u64]>>, label: &[u64]| -> NodeId {
            if let Some(&id) = index.get(label) {
                return id;
            }
            index.insert(label.into(), labels.len());
            labels.push(label.into());
            labels.len() - 1
        };
        // Edges as `(from, to)`, with their saturated expansion states.
        let mut ends: Vec<(NodeId, NodeId)> = Vec::new();
        let mut states: Vec<u64> = Vec::new();
        let mut outgoing: Vec<Vec<EdgeId>> = Vec::new();

        let mut root = vec![0u64; words];
        insert(&mut root, words, 0, closure.root);
        let initial = intern(&mut labels, &root);

        let mut frontier: Vec<NodeId> = vec![initial];
        let mut processed: Vec<bool> = Vec::new();
        while !frontier.is_empty() {
            if let Some(interrupt) = budget.interrupted() {
                return Err(interrupt);
            }
            // Replay the sequential queue discipline: dequeue in order,
            // skipping nodes already processed (a node can be discovered
            // twice before its turn comes).
            processed.resize(labels.len(), false);
            let level: Vec<NodeId> = frontier
                .drain(..)
                .filter(|&node| !std::mem::replace(&mut processed[node], true))
                .collect();
            if level.is_empty() {
                break;
            }
            // Every node of the level is expanded against the level-start
            // budget; the merge below re-applies the exact per-edge checks.
            let level_cap = budget.max_edges().saturating_sub(ends.len());
            let expansions = expand_level(&closure, &labels, &level, level_cap, &pool);
            for (&node, exps) in level.iter().zip(expansions) {
                // A worker that blew the level budget implies the sequential
                // loop would have exhausted `max_edges` at this node or an
                // earlier one — either way the edge cap is the answer.
                let Some(exps) = exps else {
                    return Err(Exhaustion::Edges);
                };
                for state in exps.chunks_exact(stride) {
                    let target = intern(&mut labels, closure.slot(state, NEXT));
                    if labels.len() > budget.max_nodes() {
                        return Err(Exhaustion::Nodes);
                    }
                    if ends.len() >= budget.max_edges() {
                        return Err(Exhaustion::Edges);
                    }
                    if processed.get(target) != Some(&true) {
                        frontier.push(target);
                    }
                    outgoing.resize(labels.len(), Vec::new());
                    outgoing[node].push(ends.len());
                    ends.push((node, target));
                    states.extend_from_slice(state);
                }
            }
        }
        outgoing.resize(labels.len(), Vec::new());
        // Each distinct literal conjunction is materialised once: the
        // positive and negative slots are adjacent, so together they key it.
        let mut literal_sets = Vec::new();
        let mut literal_index: HashMap<&[u64], u32> = HashMap::new();
        let edge_literals = states
            .chunks_exact(stride)
            .map(|state| {
                let polarities = &state[POSITIVE * words..(NEGATIVE + 1) * words];
                *literal_index.entry(polarities).or_insert_with(|| {
                    literal_sets.push(closure.literals(state));
                    literal_sets.len() as u32 - 1
                })
            })
            .collect();
        let mut graph = TableauGraph {
            ev_index: EventualityIndex::build(&closure, &states),
            closure: Arc::new(closure),
            labels: labels.concat(),
            ends,
            states,
            literal_sets,
            edge_literals,
            outgoing,
            initial,
            plan: SweepPlan::default(),
            materialised: OnceLock::new(),
        };
        graph.plan = SweepPlan::build(&graph);
        Ok(graph)
    }

    /// The `Ltl` labels and edges, materialised from the ids on first use.
    fn materialised(&self) -> &(Vec<BTreeSet<Ltl>>, Vec<Edge>) {
        self.materialised.get_or_init(|| {
            let closure = &*self.closure;
            let labels = self.labels.chunks_exact(closure.words).map(|l| closure.set(l)).collect();
            let edges = (0..self.edge_count())
                .map(|eid| {
                    let (from, to) = self.ends[eid];
                    let state = self.state(eid);
                    Edge {
                        from,
                        to,
                        literals: self.literals(eid).to_vec(),
                        eventualities: closure.set(closure.slot(state, PROMISED)),
                        fulfilled: closure.set(closure.slot(state, FULFILLED)),
                    }
                })
                .collect();
            (labels, edges)
        })
    }

    /// The saturated expansion state of edge `eid`.
    fn state(&self, eid: EdgeId) -> &[u64] {
        let stride = SLOTS * self.closure.words;
        &self.states[eid * stride..(eid + 1) * stride]
    }

    /// The conjunction of literals labelling edge `eid` (its
    /// [`Edge::literals`], without materialising the edge).
    pub(crate) fn literals(&self, eid: EdgeId) -> &[Literal] {
        &self.literal_sets[self.edge_literals[eid] as usize]
    }

    /// The target node of edge `eid` (its [`Edge::to`]).
    pub(crate) fn target(&self, eid: EdgeId) -> NodeId {
        self.ends[eid].1
    }

    /// The initial node.
    pub fn initial(&self) -> NodeId {
        self.initial
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.outgoing.len()
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.ends.len()
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

    /// Ids of the edges leaving `node`.
    pub fn outgoing(&self, node: NodeId) -> &[EdgeId] {
        &self.outgoing[node]
    }

    /// The distinct eventualities occurring on any edge, ascending in
    /// `Ltl`'s order (cached at construction).
    pub fn eventualities(&self) -> &[Ltl] {
        &self.ev_index.all
    }

    /// The per-graph eventuality index (see [`EventualityIndex`]).
    pub(crate) fn eventuality_index(&self) -> &EventualityIndex {
        &self.ev_index
    }

    /// The per-graph fixpoint plan of the semi-naive worklist engines.
    pub(crate) fn sweep_plan(&self) -> &SweepPlan {
        &self.plan
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
pub fn closure_profile(formula: &Ltl) -> ClosureProfile {
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
                    // ¬□a expands as ◇¬a, which defers itself.
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
                // Both polarities of both operands can surface during
                // expansion (q now / defer, ¬q ∧ ¬p now / defer).
                components(p, true, out);
                components(p, false, out);
                components(q, true, out);
                components(q, false, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    components(formula, true, &mut out);
    ClosureProfile { components: out.len(), atoms: formula.atoms().len(), size: formula.size() }
}

/// Expands every node of one BFS level, striping the nodes across the worker
/// pool, and returns the expansion buffers in level order.
///
/// Expansion is a pure function of the label set over the shared, read-only
/// closure table, so the stripes can run concurrently; the deterministic
/// part — interning targets and assigning identifiers — stays with the
/// caller's sequential merge.
fn expand_level(
    closure: &Closure,
    labels: &[Box<[u64]>],
    level: &[NodeId],
    cap: usize,
    pool: &WorkerPool,
) -> Vec<Option<Vec<u64>>> {
    pool.map(level.len(), |i| closure.expand_label(&labels[level[i]], cap))
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
    prune_with(graph, theory, Parallelism::Off)
}

/// [`prune`] with the per-edge theory checks and the per-eventuality
/// reachability analyses fanned across a worker pool.
///
/// Both phases are pure functions of the current alive sets — the theory
/// filter is independent per edge and the fulfilling-reachability map is
/// independent per eventuality — so the deletion loop deletes exactly the
/// same edges in the same rounds at every worker count.
pub fn prune_with(graph: &TableauGraph, theory: &dyn Theory, parallelism: Parallelism) -> Pruned {
    prune_budgeted(graph, theory, parallelism, &ResourceBudget::unbounded())
        .expect("an unbudgeted prune cannot be interrupted")
}

/// [`prune_with`] under a [`ResourceBudget`]: the deletion loop is polynomial
/// (no structural cap applies), but the budget's deadline/cancellation
/// cutoffs are polled once per deletion round so a service can abandon a
/// prune on a very large graph.
pub fn prune_budgeted(
    graph: &TableauGraph,
    theory: &dyn Theory,
    parallelism: Parallelism,
    budget: &ResourceBudget,
) -> Result<Pruned, Exhaustion> {
    let pool = WorkerPool::new(parallelism);
    let index = graph.eventuality_index();
    let mut node_alive = vec![true; graph.node_count()];
    let mut edge_alive: Vec<bool> = pool.map(graph.edge_count(), |i| {
        theory.satisfiable(graph.literals(i)) == TheoryResult::Satisfiable
    });
    let mut iterations = 0;
    loop {
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        iterations += 1;
        let mut changed = false;

        // Delete edges whose eventualities can no longer be satisfied.  The
        // backward-reachability map of each eventuality is independent of the
        // others, so the eventualities stripe across the pool; the shared
        // incoming-edge index is built once per round.
        let incoming = incoming_index(graph, &edge_alive);
        let reach: Vec<Vec<bool>> = pool.map(index.all.len(), |ei| {
            reachable_to_fulfilling(graph, &node_alive, &edge_alive, &incoming, ei as u32)
        });
        for (id, &(_, to)) in graph.ends.iter().enumerate() {
            if edge_alive[id] && index.mentions(id).iter().any(|&ei| !reach[ei as usize][to]) {
                edge_alive[id] = false;
                changed = true;
            }
        }

        // Delete edges leading to or from dead nodes, and nodes with no live outgoing edge.
        for (id, &(from, to)) in graph.ends.iter().enumerate() {
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

/// The incoming live-edge index shared by every eventuality's reachability
/// pass of one deletion round.
fn incoming_index(graph: &TableauGraph, edge_alive: &[bool]) -> Vec<Vec<EdgeId>> {
    let mut incoming: Vec<Vec<EdgeId>> = vec![Vec::new(); graph.node_count()];
    for (id, &(_, to)) in graph.ends.iter().enumerate() {
        if edge_alive[id] {
            incoming[to].push(id);
        }
    }
    incoming
}

/// Computes, for every node, whether a live edge fulfilling eventuality `ei`
/// (an index into [`EventualityIndex::all`]) is reachable from it through
/// live edges (including taking the fulfilling edge itself).
fn reachable_to_fulfilling(
    graph: &TableauGraph,
    node_alive: &[bool],
    edge_alive: &[bool],
    incoming: &[Vec<EdgeId>],
    ei: u32,
) -> Vec<bool> {
    let mut reach = vec![false; graph.node_count()];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for (id, &(from, _)) in graph.ends.iter().enumerate() {
        if edge_alive[id]
            && node_alive[from]
            && graph.ev_index.fulfilled(id).contains(&ei)
            && !reach[from]
        {
            reach[from] = true;
            queue.push_back(from);
        }
    }
    // Backward closure over live edges.
    while let Some(node) = queue.pop_front() {
        for &eid in &incoming[node] {
            let from = graph.ends[eid].0;
            if node_alive[from] && !reach[from] {
                reach[from] = true;
                queue.push_back(from);
            }
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

/// [`satisfiable_pure`] under a [`ResourceBudget`], with construction and
/// pruning fanned across a worker pool; the answer (including
/// structural-cap `Err`s) is identical at every worker count.
pub fn satisfiable_pure_budgeted(
    formula: &Ltl,
    budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<bool, Exhaustion> {
    let graph = TableauGraph::try_build_budgeted(formula, budget, parallelism)?;
    let pruned =
        prune_budgeted(&graph, &crate::theory::PropositionalTheory::new(), parallelism, budget)?;
    Ok(pruned.node_alive(graph.initial()))
}

/// Decides validity of `formula` in pure temporal logic.
pub fn valid_pure(formula: &Ltl) -> bool {
    !satisfiable_pure(&formula.clone().not())
}

/// [`valid_pure`] under a [`ResourceBudget`], fanned across a worker pool;
/// the answer (including structural-cap `Err`s) is identical at every worker
/// count.
pub fn valid_pure_budgeted(
    formula: &Ltl,
    budget: &ResourceBudget,
    parallelism: Parallelism,
) -> Result<bool, Exhaustion> {
    satisfiable_pure_budgeted(&formula.clone().not(), budget, parallelism).map(|sat| !sat)
}

/// The formula-level builder the interned one replaced, kept verbatim as
/// the test oracle of its bit-identity: expansion over boxed `Ltl` sets,
/// node interning on `BTreeSet<Ltl>` labels, the eventuality index by
/// binary search.  Sequential only (the level-parallel merge is checked
/// against the sequential build separately).
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    use super::{Edge, NodeId};
    use crate::pool::{Exhaustion, ResourceBudget};
    use crate::syntax::{Atom, Literal, Ltl};

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

    /// `[ ⇒ q ] □p` / `[ ⇒ q ] ◇p` as `ilogic-core`'s `to_ltl` writes them:
    /// the constructive strong-until chain up to the first `q` event.
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
                    assert_eq!(graph.ev_index.mentions(eid), mentions[eid], "{formula} e{eid}");
                    assert_eq!(graph.ev_index.fulfilled(eid), fulfilled[eid], "{formula} e{eid}");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

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
        assert_eq!(
            valid_pure_budgeted(&formula, &cancelled, Parallelism::Off).err(),
            Some(Exhaustion::Cancelled)
        );
        // The budgeted validity entry settles a theorem under the default caps.
        assert_eq!(
            valid_pure_budgeted(&p().or(p().not()), &ResourceBudget::default(), Parallelism::Off),
            Ok(true)
        );
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
