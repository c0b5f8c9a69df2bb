//! Algorithm B of Appendix B §5: computing the condition formula `C`.
//!
//! Given a formula `A`, the algorithm builds `Graph(¬A)` and computes, by a
//! double fixpoint iteration, a *condition* under which the initial node would
//! be deleted.  The condition is a monotone Boolean combination of atoms
//! "□¬prop(e)" for edges `e` of the graph; written in disjunctive normal form
//! it is the maximal formula `∨ᵢ □Cᵢ` such that `TL ⊨ (∨ᵢ □Cᵢ) ⊃ A`
//! (Theorem 1).  The specialized theory is consulted only at the very end:
//!
//! * when every constraint variable is a *state* variable, `TL(T) ⊨ A` iff
//!   `T ⊨ Cᵢ` for some `i`, which (because each `Cᵢ` is a conjunction of
//!   negated edge labels) reduces to every edge label of some implicant being
//!   `T`-unsatisfiable;
//! * when every constraint variable is *extralogical*, `TL(T) ⊨ A` iff
//!   `T ⊨ ∨ᵢ Cᵢ` (Corollary 2), decided here by refuting the negation
//!   selection by selection;
//! * for a mixture the first check is still sufficient for validity, and the
//!   procedure answers [`Decision::Unknown`] when it fails (the report notes
//!   the general mixed case requires the state variables of each `Cᵢ` to be
//!   quantified separately).
//!
//! As the report describes, the fixpoint iteration is accelerated by iterating
//! over the strongly connected components of the graph in dependency order.
//!
//! # One fixpoint engine over two lattices
//!
//! The §5.3 double fixpoint is the procedure's hot phase — PR 2 measured the
//! `[ => Q ] []P` blowup *here*, not in tableau construction (the graph of
//! the translation of the time was only 97 nodes / 3362 edges and built in
//! ~55 ms, but the unbudgeted fixpoint over explicit `BTreeSet` DNFs did not
//! terminate in hours; today's translation builds 33 nodes / 410 edges, and
//! the explicit condition still trips the default implicant cap).  One
//! semi-naive worklist driver runs it, over whichever lattice the caller
//! needs:
//!
//! * **Decisions** ([`AlgorithmB::decide`] / [`AlgorithmB::decide_budgeted`])
//!   never materialize a condition in the state-variable, mixed, and
//!   propositional modes: they run the fixpoint over plain Booleans
//!   ([`evaluate_condition_at_budgeted_stats`]) — evaluation at an atom
//!   assignment is a lattice homomorphism onto the Booleans, so the projected
//!   fixpoint returns exactly the condition's truth value in O(graph) time.
//!   This is what finally refutes the prefix-invariance family in
//!   milliseconds.
//! * **The explicit condition artifact**
//!   ([`AlgorithmB::condition_budgeted`], [`condition_of_graph_budgeted`])
//!   runs over the interned [`crate::dnf::store::ConditionStore`]: `delete`/
//!   `fail` values are hash-consed [`DnfId`]s, products are memoized, and
//!   the shared atomic [`crate::dnf::DnfBudget`] cell charges *distinct*
//!   implicants, so heavily-absorbing computations fit budgets the old
//!   pre-absorption estimate tripped on.
//!
//! The driver reads the graph's cached sweep plan (SCC order,
//! reverse-dependency CSR, fulfillment tables), seeds every equation of a
//! phase, and afterwards re-evaluates only the equations whose inputs
//! changed.  Each round evaluates its ready set in task order against the
//! values at the round's start, so the interned DNFs come out in one fixed
//! order.  The PR 3 `BTreeSet` fixpoint survives as
//! [`condition_of_graph_baseline`], the independent oracle for tests and the
//! `condition_fixpoint` bench.
//!
//! The procedure runs on the calling thread except for one phase: the
//! extralogical selection search, which [`AlgorithmB::with_parallelism`]
//! shards across the [`crate::pool`] workers past its first few dozen
//! selections (1.9x at two workers on the 153 600 selections of the §5.1
//! example; batching fixpoint rounds across workers lost, at 0.2–0.6x).

use std::collections::{BTreeMap, BTreeSet};

use crate::dnf::store::{ConditionStore, DnfId, StoreStats};
use crate::dnf::{Dnf, DnfBudget};
use crate::pool::{Exhaustion, Parallelism, ResourceBudget, WorkerPool};
use crate::syntax::{Ltl, VarSpec};
use crate::tableau::{EdgeId, EventualityIndex, NodeId, SweepPlan, TableauGraph};
use crate::theory::Theory;

/// Selections the extralogical selection search visits on the calling
/// thread before it fans out.  A satisfiable selection usually comes early,
/// and a selection's theory check costs microseconds, so a few dozen of them
/// cost about as much as spawning the workers (see the fan-out table in
/// `ARCHITECTURE.md`).
const SELECTION_HEAD: usize = 32;

/// Which classes of constraint variable a formula mentions, which fixes how
/// the condition answers validity (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// State variables only, or no variables at all: "some implicant has
    /// only `T`-unsatisfiable edges" is exact.
    State,
    /// Extralogical variables only: decided by the selection search.
    Extralogical,
    /// Both: the implicant check is only sufficient.
    Mixed,
}

/// The answer of the combined decision procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The formula is valid in `TL(T)`.
    Valid,
    /// The formula is not valid in `TL(T)` (exact in the supported modes).
    NotValid,
    /// The procedure could not establish validity (mixed variable modes, or a
    /// case-split explosion was cut off); the formula may or may not be valid.
    Unknown,
}

/// The condition formula computed by Algorithm B, together with the graph it refers to.
#[derive(Debug)]
pub struct Condition {
    graph: TableauGraph,
    delete_init: Dnf,
    outer_rounds: usize,
    store_stats: StoreStats,
}

impl Condition {
    /// The tableau graph of `¬A` the condition refers to.
    pub fn graph(&self) -> &TableauGraph {
        &self.graph
    }

    /// The condition `delete(init)` as a monotone DNF over edge identifiers.
    pub fn dnf(&self) -> &Dnf {
        &self.delete_init
    }

    /// Number of outer rounds of the double fixpoint iteration.
    pub fn outer_rounds(&self) -> usize {
        self.outer_rounds
    }

    /// Interning/memoization counters of the [`ConditionStore`] the fixpoint
    /// ran on, plus the worklist counters (`rounds`, `equations_evaluated`,
    /// `equations_skipped`).  The [`condition_of_graph_baseline`] path
    /// bypasses the store — its interning counters stay zero — but still
    /// reports its rounds and evaluations.
    pub fn store_stats(&self) -> StoreStats {
        self.store_stats
    }

    /// `true` if the condition establishes validity in pure temporal logic
    /// (the condition contains the empty implicant, i.e. it is identically true).
    pub fn valid_in_pure_tl(&self) -> bool {
        self.delete_init.is_top()
    }

    /// The disjuncts `Cᵢ` of the condition, each given as the list of edge
    /// labels `prop(e)` whose henceforth-negation is conjoined in `Cᵢ`.
    pub fn disjuncts(&self) -> Vec<Vec<&[crate::syntax::Literal]>> {
        self.delete_init
            .implicants()
            .map(|imp| imp.iter().map(|&e| self.graph.literals(e)).collect())
            .collect()
    }
}

/// Algorithm B: condition computation plus the end-of-run theory check.
pub struct AlgorithmB<'t> {
    theory: &'t dyn Theory,
    vars: VarSpec,
    parallelism: Parallelism,
    /// Upper bound on the number of selections explored in the
    /// extralogical-variable check before giving up with [`Decision::Unknown`].
    pub selection_limit: usize,
}

impl<'t> AlgorithmB<'t> {
    /// Creates the procedure over the given theory and variable classification.
    pub fn new(theory: &'t dyn Theory, vars: VarSpec) -> AlgorithmB<'t> {
        AlgorithmB { theory, vars, parallelism: Parallelism::Off, selection_limit: 200_000 }
    }

    /// Shards the extralogical selection search (the end-of-run check of
    /// the purely extralogical mode) across a worker pool once its first few
    /// dozen selections, checked on the calling thread, have not answered;
    /// every other phase runs on the calling thread.  Answers (including
    /// `Unknown`-under-budget) are identical at every worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> AlgorithmB<'t> {
        self.parallelism = parallelism;
        self
    }

    /// The variable classes `formula` mentions.
    fn mode(&self, formula: &Ltl) -> Mode {
        let vars = formula.variables();
        let has_state = vars.iter().any(|v| !self.vars.is_extralogical(v));
        let has_extra = vars.iter().any(|v| self.vars.is_extralogical(v));
        match (has_state, has_extra) {
            (_, false) => Mode::State,
            (false, true) => Mode::Extralogical,
            (true, true) => Mode::Mixed,
        }
    }

    /// Computes the condition formula for `formula` (i.e. for `Graph(¬formula)`).
    pub fn condition(&self, formula: &Ltl) -> Condition {
        self.condition_budgeted(formula, &ResourceBudget::unbounded())
            .expect("an unbounded budget cannot be exceeded")
    }

    /// [`AlgorithmB::condition`] under a [`ResourceBudget`]: the `Err` names
    /// the first resource that ran out in either the tableau construction or
    /// the condition fixpoint.  The DNF fixpoint is the dangerous phase — on
    /// the nested weak-until translations of interval formulas it explodes
    /// combinatorially even when the graph itself stays small (e.g.
    /// `¬to_ltl([ => Q ] []P)` builds a 33-node / 410-edge graph in
    /// microseconds whose condition trips the default 10 000-implicant cap).
    pub fn condition_budgeted(
        &self,
        formula: &Ltl,
        budget: &ResourceBudget,
    ) -> Result<Condition, Exhaustion> {
        let graph =
            TableauGraph::try_build_budgeted(&formula.clone().not(), budget, Parallelism::Off)?;
        condition_of_graph_budgeted(graph, budget)
    }

    /// Decides whether `formula` is valid in `TL(T)`.
    pub fn decide(&self, formula: &Ltl) -> Decision {
        let budget = ResourceBudget::unbounded().with_max_enumeration(self.selection_limit);
        self.decide_budgeted(formula, &budget).unwrap_or(Decision::Unknown)
    }

    /// [`AlgorithmB::decide`] under a [`ResourceBudget`]: `Err` (naming the
    /// exhausted resource) instead of hanging when the construction, the
    /// fixpoint, or the end-of-run selection enumeration blows past the
    /// budget.  Callers that only need the three-valued answer can flatten
    /// `Err(_)` to [`Decision::Unknown`].
    ///
    /// # The evaluated fixpoint
    ///
    /// In the state-variable, mixed, and purely propositional modes the
    /// decision never needs the condition *formula* — only the condition
    /// *evaluated* at up to two atom assignments: `delete(init)` contains an
    /// implicant of `T`-unsatisfiable edges iff the monotone function it
    /// denotes is true at the assignment "□¬prop(e) ↦ prop(e)
    /// T-unsatisfiable", and it is `⊥` iff it is false at the all-true
    /// assignment.  Because evaluation at a point is a lattice homomorphism
    /// from canonical monotone DNFs onto the Booleans — it commutes with `∧`,
    /// `∨`, and hence with every step of the §5.3 iteration, whose extreme
    /// fixpoints are preserved — these truth values can be computed by
    /// running the *same* double fixpoint over plain Booleans
    /// ([`evaluate_condition_at_budgeted_stats`]): O(graph) work, no DNF
    /// ever materialized, no implicant budget consumed.
    ///
    /// This is what tames the nested weak-until family for good: the
    /// `[ => Q ] []P` condition's minimal DNF is astronomically wide (the
    /// interned store pushed the explicit frontier from ~10³ to ~10⁵ distinct
    /// implicants and it still grows), but its *decision* falls out of the
    /// Boolean projection in milliseconds.  The explicit condition — the
    /// artifact the specialized-theory checks and [`Condition::disjuncts`]
    /// need — remains available through [`AlgorithmB::condition_budgeted`]
    /// under the distinct-implicant budget, and the purely-extralogical mode
    /// (whose selection check enumerates the implicants) still computes it.
    pub fn decide_budgeted(
        &self,
        formula: &Ltl,
        budget: &ResourceBudget,
    ) -> Result<Decision, Exhaustion> {
        let graph =
            TableauGraph::try_build_budgeted(&formula.clone().not(), budget, Parallelism::Off)?;
        self.decide_from_graph_budgeted_stats(formula, &graph, budget).0
    }

    /// [`AlgorithmB::decide_budgeted`] over an already-built `Graph(¬formula)`
    /// — for callers (the `Session` Decide backend) that also compute the
    /// explicit condition artifact from the same graph and must not pay the
    /// tableau construction twice — that also reports the fixpoint counters
    /// of the attempt, on *both* outcomes.  In the
    /// evaluated (Boolean) modes the interning counters stay zero but the
    /// `rounds`/`equations_evaluated`/`equations_skipped` trio measures the
    /// fixpoint's work; in the purely extralogical mode the counters
    /// are those of the explicit condition computation.
    pub fn decide_from_graph_budgeted_stats(
        &self,
        formula: &Ltl,
        graph: &TableauGraph,
        budget: &ResourceBudget,
    ) -> (Result<Decision, Exhaustion>, StoreStats) {
        let mode = self.mode(formula);
        if mode == Mode::Extralogical {
            // Purely extralogical: the selection check needs the actual
            // implicants, so the explicit (budgeted) condition is computed.
            let (result, stats) =
                condition_of_graph_budgeted_stats(graph.clone(), budget, Parallelism::Off);
            return match result {
                Ok(condition) => {
                    (self.decide_from_condition_budgeted(formula, &condition, budget), stats)
                }
                Err(cut) => (Err(cut), stats),
            };
        }
        let mut stats = StoreStats::default();
        if let Some(cut) = budget.interrupted() {
            return (Err(cut), stats);
        }
        // One theory check per distinct literal conjunction, shared by the
        // edges it labels.
        let mut unsat_sets = Vec::with_capacity(graph.literal_sets().len());
        for (count, literals) in graph.literal_sets().iter().enumerate() {
            // Theory checks can be the slow part on big graphs: honour the
            // deadline/cancellation cutoffs mid-scan like every other engine.
            if count % crate::pool::INTERRUPT_POLL_PERIOD == 0 {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
            }
            unsat_sets.push(!self.theory.satisfiable(literals).is_sat());
        }
        let unsat: Vec<bool> =
            (0..graph.edge_count()).map(|eid| unsat_sets[graph.literal_set(eid)]).collect();
        let (at_unsat, eval_stats) = evaluate_condition_at_budgeted_stats(graph, &unsat, budget);
        stats.merge(eval_stats);
        match at_unsat {
            Err(cut) => return (Err(cut), stats),
            // Some implicant of delete(init) has only T-unsatisfiable edges
            // (the empty implicant of a ⊤ condition included).
            Ok(true) => return (Ok(Decision::Valid), stats),
            Ok(false) => {}
        }
        if mode == Mode::Mixed {
            // Mixed mode: the pointwise check is only sufficient.  delete(init)
            // evaluating false even at the all-true assignment means it is ⊥ —
            // not valid in any mode; anything else stays out of reach.
            let all_true = vec![true; graph.edge_count()];
            let (at_top, eval_stats) =
                evaluate_condition_at_budgeted_stats(graph, &all_true, budget);
            stats.merge(eval_stats);
            return match at_top {
                Err(cut) => (Err(cut), stats),
                Ok(false) => (Ok(Decision::NotValid), stats),
                Ok(true) => (Ok(Decision::Unknown), stats),
            };
        }
        // Pure state-variable (or purely propositional) mode: the pointwise
        // check is exact.
        (Ok(Decision::NotValid), stats)
    }

    /// Decides validity given a previously computed condition (allows callers
    /// to time the construction and iteration phases separately), under a
    /// [`ResourceBudget`]: the extralogical-variable selection check
    /// enumerates at most `budget.max_enumeration()` selections
    /// (`Err(Enumeration)` beyond that), and the budget's
    /// deadline/cancellation cutoffs are polled before the sweep starts and
    /// every few hundred selections per worker.
    pub fn decide_from_condition_budgeted(
        &self,
        formula: &Ltl,
        condition: &Condition,
        budget: &ResourceBudget,
    ) -> Result<Decision, Exhaustion> {
        if condition.valid_in_pure_tl() {
            return Ok(Decision::Valid);
        }
        if condition.dnf().is_bottom() {
            return Ok(Decision::NotValid);
        }
        // Sufficient check, exact when all variables are state variables:
        // some implicant has every edge label T-unsatisfiable.
        let graph = condition.graph();
        let implicant_valid = |implicant: &BTreeSet<EdgeId>| {
            implicant.iter().all(|&e| !self.theory.satisfiable(graph.literals(e)).is_sat())
        };
        if condition.dnf().implicants().any(implicant_valid) {
            return Ok(Decision::Valid);
        }

        match self.mode(formula) {
            // Pure state-variable (or purely propositional) mode: the check above is exact.
            Mode::State => return Ok(Decision::NotValid),
            // Mixed mode: we only implement the sufficient check.  Not a
            // budget matter — the procedure simply has no exact answer here.
            Mode::Mixed => return Ok(Decision::Unknown),
            Mode::Extralogical => {}
        }
        // Extralogical-only mode: T ⊨ ∨ᵢ Cᵢ  iff  every selection of one edge per
        // implicant yields a T-unsatisfiable conjunction of edge labels.
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        let implicants: Vec<Vec<EdgeId>> =
            condition.dnf().implicants().map(|imp| imp.iter().copied().collect()).collect();
        let cap = budget.max_enumeration();
        let total: usize = implicants
            .iter()
            .map(Vec::len)
            .try_fold(1usize, |acc, n| acc.checked_mul(n).filter(|&v| v <= cap))
            .unwrap_or(usize::MAX);
        if total == usize::MAX {
            return Err(Exhaustion::Enumeration);
        }
        // The selections are a mixed-radix enumeration (first implicant
        // varying fastest); past its head, shard it across the pool.  The answer — "does any
        // selection have a T-model?" — does not depend on *which* satisfiable
        // selection is found, and the sharded search's lowest-index-wins
        // early exit keeps even the work pattern deterministic.  Each worker
        // re-polls the budget's timing cutoffs every few hundred selections,
        // so a deadline or cancellation cuts a long sweep mid-flight (a
        // timing-dependent cut, like everywhere else those knobs apply).
        enum Hit {
            Sat,
            Cut(Exhaustion),
        }
        let pool = WorkerPool::new(self.parallelism);
        let hit = pool.search(total, SELECTION_HEAD, |visited: &mut usize, index| {
            *visited += 1;
            if visited.is_multiple_of(crate::pool::INTERRUPT_POLL_PERIOD) {
                if let Some(cut) = budget.interrupted() {
                    return Some(Hit::Cut(cut));
                }
            }
            let mut rest = index;
            let mut literals = Vec::new();
            for imp in &implicants {
                let pick = rest % imp.len();
                rest /= imp.len();
                literals.extend(graph.literals(imp[pick]).iter().cloned());
            }
            // A satisfiable selection is a T-model of the negation.
            self.theory.satisfiable(&literals).is_sat().then_some(Hit::Sat)
        });
        match hit {
            Some((_, Hit::Sat)) => Ok(Decision::NotValid),
            Some((_, Hit::Cut(cut))) => Err(cut),
            None => Ok(Decision::Valid),
        }
    }
}

/// Computes the condition `delete(init)` of a tableau graph by the double
/// fixpoint iteration of Appendix B §5.3, accelerated per strongly connected
/// component as described in §6.
pub fn condition_of_graph(graph: TableauGraph) -> Condition {
    condition_of_graph_budgeted(graph, &ResourceBudget::unbounded())
        .expect("an unbounded budget cannot be exceeded")
}

/// [`condition_of_graph`] under a [`ResourceBudget`]: enforces the
/// distinct-implicant cap *and* the budget's deadline/cancellation cutoffs
/// (polled at every round and inside large products through the shared
/// [`DnfBudget`] cell), and names the exhausted resource on `Err`.
///
/// The fixpoint runs on a [`ConditionStore`]: `delete`/`fail` values are
/// `Copy` [`DnfId`]s, the equations' `∨`/`∧` are memoized store operations,
/// and the convergence test per equation is an id comparison, which is also
/// the change test the semi-naive worklist hangs on.  Each round evaluates
/// its ready set in ascending task order against the values at the round's
/// start, interning new implicants (each distinct one charged once to the
/// budget cell) and growing the memo tables.  Skipping is conservative: an
/// equation whose inputs did not change would replay entirely from the memo
/// tables to the value it already has, without mutating the store or
/// charging the budget.  `fail` descends monotonically from `⊤` to its
/// greatest fixpoint and `delete` ascends from `⊥` to its least, so the
/// result is the condition [`condition_of_graph_baseline`] computes by full
/// sweeps.
pub fn condition_of_graph_budgeted(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
) -> Result<Condition, Exhaustion> {
    condition_of_graph_budgeted_stats(graph, resource_budget, Parallelism::Off).0
}

/// [`condition_of_graph_budgeted`] that also hands back the
/// [`ConditionStore`] counters on *both* outcomes — a budget trip still did
/// real interning/memoization work, and the session reports surface it.  On
/// `Ok` the same counters are also available via [`Condition::store_stats`].
/// The fixpoint runs on the calling thread; `_parallelism` is ignored and
/// stays only so existing callers keep compiling.
pub fn condition_of_graph_budgeted_stats(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
    _parallelism: Parallelism,
) -> (Result<Condition, Exhaustion>, StoreStats) {
    let budget = DnfBudget::from_budget(resource_budget);
    let mut store = ConditionStore::new();
    // The equations' leaves: one □¬prop(e) atom per edge, interned once and
    // shared by every equation that mentions the edge.
    let atoms: Option<Vec<DnfId>> =
        (0..graph.edge_count()).map(|eid| store.atom(eid, &budget)).collect();
    let mut lattice = Interned { store, budget, atoms: Vec::new(), terms: Vec::new() };
    let solved = match atoms {
        Some(atoms) => {
            lattice.atoms = atoms;
            solve(&graph, &mut lattice)
        }
        None => Err(lattice.cut()),
    };
    let stats = lattice.store.stats();
    match solved {
        Ok((delete_init, outer_rounds)) => {
            let delete_init = lattice.store.extract(delete_init);
            (Ok(Condition { graph, delete_init, outer_rounds, store_stats: stats }), stats)
        }
        Err(cut) => (Err(cut), stats),
    }
}

/// Evaluates the condition `delete(init)` of a tableau graph as a plain
/// Boolean at the atom assignment `atom_true` (indexed by edge id), by
/// running the Appendix B §5.3 double fixpoint over the two-point lattice
/// instead of over condition DNFs.
///
/// Soundness is the canonicity argument of the [`crate::dnf`] module turned
/// around: evaluation at a fixed assignment is a lattice homomorphism from
/// canonical monotone DNFs onto the Booleans, so it commutes with every
/// `∧`/`∨` of the iteration and with its extreme fixpoints — the Boolean
/// returned here is exactly `delete(init)` of
/// [`condition_of_graph_budgeted`] evaluated at `atom_true`, computed in
/// O(graph · rounds) time and O(graph) space however wide the explicit
/// condition would be.  [`AlgorithmB::decide_budgeted`] uses it to decide
/// the state-variable and propositional modes without materializing a single
/// implicant.
///
/// The budget's wall-clock deadline and cancellation token are polled once
/// per fixpoint round (the structural caps cannot apply — the Boolean
/// projection allocates nothing to cap); `Err` names the timing cutoff that
/// fired.
///
/// Alongside the Boolean it reports the worklist counters of the run —
/// `rounds`, `equations_evaluated`, `equations_skipped`; the interning
/// counters stay zero, nothing is ever interned here.  It is the same
/// worklist driver as [`condition_of_graph_budgeted`]'s, over the cached
/// sweep plan, so the repeated evaluations of one decision over one tableau
/// amortize everything but the fixpoint itself.
pub fn evaluate_condition_at_budgeted_stats(
    graph: &TableauGraph,
    atom_true: &[bool],
    budget: &ResourceBudget,
) -> (Result<bool, Exhaustion>, StoreStats) {
    let mut lattice = AtAssignment { atom_true, budget, stats: StoreStats::default() };
    let delete_init = solve(graph, &mut lattice).map(|(delete_init, _)| delete_init);
    (delete_init, lattice.stats)
}

/// A lattice the §5.3 fixpoint runs over: the interned condition DNFs
/// ([`Interned`]) or the Booleans at one atom assignment
/// ([`AtAssignment`]).  `Err` names the resource that ran out.
trait Lattice {
    type Value: Copy + Eq;
    /// The greatest element, where every `fail` starts.
    const TOP: Self::Value;
    /// The least element, where every `delete` starts.
    const BOTTOM: Self::Value;

    /// The atom `□¬prop(e)` of edge `eid`.
    fn atom(&self, eid: EdgeId) -> Self::Value;

    /// The disjunction of `first` and `rest`, folded left to right, each
    /// operand of `rest` computed when the disjunction asks for it.
    fn any(
        &mut self,
        first: Self::Value,
        rest: impl Iterator<Item = Self::Value>,
    ) -> Result<Self::Value, Exhaustion>;

    /// The conjunction of `term(eid)` over `edges`, each term computed when
    /// the conjunction asks for it.
    fn all<F>(&mut self, edges: &[EdgeId], term: F) -> Result<Self::Value, Exhaustion>
    where
        F: FnMut(&mut Self, EdgeId) -> Result<Self::Value, Exhaustion>;

    /// The timing cutoff that fired, if any; polled once per round.
    fn interrupted(&mut self) -> Option<Exhaustion>;

    /// Tallies one round: the equations it evaluated and those it skipped.
    fn tally(&mut self, evaluated: u64, skipped: u64);
}

/// Interned condition DNFs: values are [`DnfId`]s of one
/// [`ConditionStore`], and every new implicant is charged to the budget.
struct Interned {
    store: ConditionStore,
    budget: DnfBudget,
    /// Interned `□¬prop(e)` atom conditions, indexed by edge id.
    atoms: Vec<DnfId>,
    /// The terms of the conjunction being evaluated (reused across the run).
    terms: Vec<DnfId>,
}

impl Interned {
    /// Why the budget cell tripped.
    fn cut(&self) -> Exhaustion {
        self.budget.exhaustion().unwrap_or(Exhaustion::Implicants)
    }
}

impl Lattice for Interned {
    type Value = DnfId;
    const TOP: DnfId = ConditionStore::TOP;
    const BOTTOM: DnfId = ConditionStore::BOTTOM;

    fn atom(&self, eid: EdgeId) -> DnfId {
        self.atoms[eid]
    }

    fn any(
        &mut self,
        first: DnfId,
        mut rest: impl Iterator<Item = DnfId>,
    ) -> Result<DnfId, Exhaustion> {
        rest.try_fold(first, |acc, b| {
            if self.budget.tripped() {
                return Err(self.cut());
            }
            Ok(self.store.or(acc, b))
        })
    }

    /// Every term is interned before the first product, as
    /// [`ConditionStore::all`] takes them all at once.
    fn all<F>(&mut self, edges: &[EdgeId], mut term: F) -> Result<DnfId, Exhaustion>
    where
        F: FnMut(&mut Self, EdgeId) -> Result<DnfId, Exhaustion>,
    {
        let mut terms = std::mem::take(&mut self.terms);
        terms.clear();
        for &eid in edges {
            terms.push(term(self, eid)?);
        }
        let all = self.store.all(&terms, &self.budget).ok_or_else(|| self.cut());
        self.terms = terms;
        all
    }

    fn interrupted(&mut self) -> Option<Exhaustion> {
        self.budget.poll_interrupts().then(|| self.cut())
    }

    fn tally(&mut self, evaluated: u64, skipped: u64) {
        self.store.record_sweep(evaluated, skipped);
    }
}

/// The Booleans at the atom assignment `atom_true`: the image of
/// [`Interned`] under evaluation at that point.
struct AtAssignment<'a> {
    atom_true: &'a [bool],
    budget: &'a ResourceBudget,
    stats: StoreStats,
}

impl Lattice for AtAssignment<'_> {
    type Value = bool;
    const TOP: bool = true;
    const BOTTOM: bool = false;

    fn atom(&self, eid: EdgeId) -> bool {
        self.atom_true[eid]
    }

    /// Stops at the first true operand.
    fn any(
        &mut self,
        first: bool,
        mut rest: impl Iterator<Item = bool>,
    ) -> Result<bool, Exhaustion> {
        Ok(first || rest.any(|b| b))
    }

    /// Stops at the first false term.
    fn all<F>(&mut self, edges: &[EdgeId], mut term: F) -> Result<bool, Exhaustion>
    where
        F: FnMut(&mut Self, EdgeId) -> Result<bool, Exhaustion>,
    {
        for &eid in edges {
            if !term(self, eid)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn interrupted(&mut self) -> Option<Exhaustion> {
        self.budget.interrupted()
    }

    fn tally(&mut self, evaluated: u64, skipped: u64) {
        self.stats.rounds += 1;
        self.stats.equations_evaluated += evaluated;
        self.stats.equations_skipped += skipped;
    }
}

/// Runs the §5.3 double fixpoint of `graph` over `lattice` and returns
/// `delete(init)` with the number of outer rounds.
///
/// Per component of the graph's sweep plan, in reverse-topological order,
/// `fail` is reset to ⊤ and descends to its greatest fixpoint, then `delete`
/// ascends to its least; the pair repeats while some `delete` change is read
/// *inside* the component.  A change every reader of which lies in a later
/// component cannot move this component's fixpoint, so it triggers no
/// verification round.
///
/// Each phase is a semi-naive worklist.  It seeds every equation of the
/// component (a phase boundary touches all their inputs); afterwards a
/// changed value enqueues exactly the equations that read it, found in the
/// reverse-dependency CSR, with a dirty flag absorbing duplicates.  A round
/// evaluates its ready set in ascending task order against the values at
/// the round's start and then applies the results in the same order, so the
/// [`Interned`] instance interns in one fixed order.
fn solve<L: Lattice>(
    graph: &TableauGraph,
    lattice: &mut L,
) -> Result<(L::Value, usize), Exhaustion> {
    let n = graph.node_count();
    let ne = graph.eventualities().len();
    let plan = graph.sweep_plan();
    // Worklist buffers are sized once for the largest component: per-trip
    // allocations dominate on tableaux with thousands of trivial components.
    let tasks = plan.sccs.iter().map(Vec::len).max().unwrap_or(0) * ne.max(1);
    let mut values = vec![L::BOTTOM; n];
    values.resize(n * (ne + 1), L::TOP);
    let mut worklist = Worklist {
        graph,
        plan,
        index: graph.eventuality_index(),
        n,
        ne,
        values,
        pos: vec![usize::MAX; n],
        dirty: vec![false; tasks],
        ready: Vec::with_capacity(tasks),
        queue: Vec::with_capacity(tasks),
        results: Vec::with_capacity(tasks),
    };
    let mut outer_rounds = 0;
    for component in &plan.sccs {
        for (i, &node) in component.iter().enumerate() {
            worklist.pos[node] = i;
        }
        loop {
            outer_rounds += 1;
            for ei in 0..ne {
                for &node in component {
                    worklist.values[(ei + 1) * n + node] = L::TOP;
                }
            }
            worklist.settle::<L, true>(lattice, component)?;
            if !worklist.settle::<L, false>(lattice, component)? {
                break;
            }
        }
        for &node in component {
            worklist.pos[node] = usize::MAX;
        }
    }
    Ok((worklist.values[graph.initial()], outer_rounds))
}

/// The state of one [`solve`] run.  Within a component, the equation
/// `fail(A, N)` is task `pos[N] * ne + A` and `delete(N)` is task `pos[N]`.
struct Worklist<'g, V> {
    graph: &'g TableauGraph,
    plan: &'g SweepPlan,
    index: &'g EventualityIndex,
    n: usize,
    ne: usize,
    /// `delete(N)` at `N`, `fail(A, N)` at `(A + 1) * n + N`.
    values: Vec<V>,
    /// Each node's position in the component being solved; `usize::MAX`
    /// outside it (those values are final, so changes never reach them).
    pos: Vec<usize>,
    /// Tasks waiting in `queue`.
    dirty: Vec<bool>,
    ready: Vec<usize>,
    queue: Vec<usize>,
    /// The values of this round's `ready` tasks, in the same order.
    results: Vec<V>,
}

impl<V: Copy + Eq> Worklist<'_, V> {
    /// Iterates the `fail` equations (`FAIL`) or the `delete` equations of
    /// `component` to their fixpoint; `true` when some changed value is read
    /// inside the component.
    fn settle<L: Lattice<Value = V>, const FAIL: bool>(
        &mut self,
        lattice: &mut L,
        component: &[NodeId],
    ) -> Result<bool, Exhaustion> {
        let (n, width) = (self.n, if FAIL { self.ne } else { 1 });
        let base = if FAIL { n } else { 0 };
        let count = component.len() * width;
        // A task's node and, for `fail`, its eventuality.
        let task =
            |t: usize| if FAIL { (component[t / width], t % width) } else { (component[t], 0) };
        self.queue.clear();
        self.queue.extend(0..count);
        self.dirty[..count].fill(true);
        let mut read_inside = false;
        while !self.queue.is_empty() {
            if let Some(cut) = lattice.interrupted() {
                return Err(cut);
            }
            std::mem::swap(&mut self.ready, &mut self.queue);
            self.queue.clear();
            self.ready.sort_unstable();
            lattice.tally(self.ready.len() as u64, (count - self.ready.len()) as u64);
            self.results.clear();
            for i in 0..self.ready.len() {
                let t = self.ready[i];
                self.dirty[t] = false;
                let (node, k) = task(t);
                let value = self.equation(lattice, node, FAIL.then_some(k))?;
                self.results.push(value);
            }
            for (&t, &new) in self.ready.iter().zip(&self.results) {
                let (node, k) = task(t);
                let slot = base + k * n + node;
                if new == self.values[slot] {
                    continue;
                }
                self.values[slot] = new;
                for &p in self.plan.preds_of(node) {
                    let pp = self.pos[p as usize];
                    if pp != usize::MAX {
                        read_inside = true;
                        let pt = pp * width + k;
                        if !self.dirty[pt] {
                            self.dirty[pt] = true;
                            self.queue.push(pt);
                        }
                    }
                }
            }
        }
        Ok(read_inside)
    }

    /// One equation of the §5.3 system at `node`, over the current values:
    ///
    /// * delete(N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ ∨_{A ∈ ev(e)} fail(A, fin(e)) )
    /// * fail(A, N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ \[A not satisfied by e ∧ fail(A, fin(e))\] )
    ///
    /// `fail` names `A` for a `fail` equation and is `None` for `delete`.
    fn equation<L: Lattice<Value = V>>(
        &self,
        lattice: &mut L,
        node: NodeId,
        fail: Option<usize>,
    ) -> Result<V, Exhaustion> {
        let (n, ne, plan, values) = (self.n, self.ne, self.plan, &self.values[..]);
        let edges = self.graph.outgoing(node);
        // The term of edge `eid` is the disjunction of its atom,
        // delete(fin(e)) and fail(A, fin(e)) for some eventualities `A`.
        let fail_at = |to: usize| move |ei: usize| values[(ei + 1) * n + to];
        match fail {
            Some(ei) => lattice.all(edges, |lattice, eid| {
                let to = plan.targets[eid] as usize;
                let unfulfilled = std::iter::once(ei).filter(|&ei| plan.unfulfilled[eid * ne + ei]);
                let rest = std::iter::once(values[to]).chain(unfulfilled.map(fail_at(to)));
                lattice.any(lattice.atom(eid), rest)
            }),
            None => lattice.all(edges, |lattice, eid| {
                let to = plan.targets[eid] as usize;
                let promised = self.index.mentions(eid).iter().map(|&ei| ei as usize);
                let rest = std::iter::once(values[to]).chain(promised.map(fail_at(to)));
                lattice.any(lattice.atom(eid), rest)
            }),
        }
    }
}

/// The PR 3 `BTreeSet` condition fixpoint, kept as the independent oracle:
/// full Jacobi sweeps with SCC acceleration, but explicit [`Dnf`] values
/// (re-cloned and re-absorbed at every product) and the pre-absorption
/// estimate cut of [`Dnf::all_bounded_estimated`] instead of the interned
/// store's distinct-implicant accounting.  Beyond the SCC decomposition it
/// shares no code with the worklist driver: every sweep re-evaluates every
/// equation.  It reports its `rounds` and `equations_evaluated` through
/// [`Condition::store_stats`] (interning counters zero, `equations_skipped`
/// zero by construction) so the differential tests can compare convergence
/// against the worklist driver.
///
/// Tests pin that it computes the same condition as
/// [`condition_of_graph_budgeted`] wherever neither path trips its budget,
/// and the `condition_fixpoint` bench measures the speedup of the interned
/// paths against it.
pub fn condition_of_graph_baseline(
    graph: TableauGraph,
    resource_budget: &ResourceBudget,
) -> Result<Condition, Exhaustion> {
    let budget = DnfBudget::from_budget(resource_budget);
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let sccs = strongly_connected_components(&graph);

    let mut delete: Vec<Dnf> = vec![Dnf::bottom(); n];
    let mut fail: BTreeMap<(usize, NodeId), Dnf> = BTreeMap::new();
    for (ei, _) in eventualities.iter().enumerate() {
        for node in 0..n {
            fail.insert((ei, node), Dnf::top());
        }
    }
    let mut outer_rounds = 0;
    let mut stats = StoreStats::default();

    for component in &sccs {
        let fail_tasks: Vec<(NodeId, usize)> = component
            .iter()
            .flat_map(|&node| (0..eventualities.len()).map(move |ei| (node, ei)))
            .collect();
        loop {
            outer_rounds += 1;
            for &node in component {
                for (ei, _) in eventualities.iter().enumerate() {
                    fail.insert((ei, node), Dnf::top());
                }
            }
            loop {
                stats.rounds += 1;
                stats.equations_evaluated += fail_tasks.len() as u64;
                let Some(updates) = fail_tasks
                    .iter()
                    .map(|&(node, ei)| {
                        fail_equation(&graph, node, ei, &eventualities[ei], &delete, &fail, &budget)
                    })
                    .collect::<Option<Vec<Dnf>>>()
                else {
                    return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
                };
                let mut changed = false;
                for (&(node, ei), new) in fail_tasks.iter().zip(updates) {
                    if new != fail[&(ei, node)] {
                        fail.insert((ei, node), new);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut delete_changed_any = false;
            loop {
                stats.rounds += 1;
                stats.equations_evaluated += component.len() as u64;
                let Some(updates) = component
                    .iter()
                    .map(|&node| {
                        delete_equation(&graph, node, eventualities, &delete, &fail, &budget)
                    })
                    .collect::<Option<Vec<Dnf>>>()
                else {
                    return Err(budget.exhaustion().unwrap_or(Exhaustion::Implicants));
                };
                let mut changed = false;
                for (&node, new) in component.iter().zip(updates) {
                    if new != delete[node] {
                        delete[node] = new;
                        changed = true;
                        delete_changed_any = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if !delete_changed_any {
                break;
            }
        }
    }

    let delete_init = delete[graph.initial()].clone();
    Ok(Condition { graph, delete_init, outer_rounds, store_stats: stats })
}

/// delete(N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ ∨_{A ∈ ev(e)} fail(A, fin(e)) )
fn delete_equation(
    graph: &TableauGraph,
    node: NodeId,
    eventualities: &[Ltl],
    delete: &[Dnf],
    fail: &BTreeMap<(usize, NodeId), Dnf>,
    budget: &DnfBudget,
) -> Option<Dnf> {
    let terms = graph
        .outgoing(node)
        .iter()
        .map(|&eid| {
            let edge = graph.edge(eid);
            let mut term = Dnf::atom(eid).or(&delete[edge.to]);
            for (ei, ev) in eventualities.iter().enumerate() {
                if edge.eventualities.contains(ev) {
                    term = term.or(&fail[&(ei, edge.to)]);
                }
            }
            term
        })
        .collect();
    Dnf::all_bounded_estimated(terms, budget)
}

/// fail(A, N) = ∧ₑ ( □¬prop(e) ∨ delete(fin(e)) ∨ [A not satisfied by e ∧ fail(A, fin(e))] )
fn fail_equation(
    graph: &TableauGraph,
    node: NodeId,
    ev_index: usize,
    ev: &Ltl,
    delete: &[Dnf],
    fail: &BTreeMap<(usize, NodeId), Dnf>,
    budget: &DnfBudget,
) -> Option<Dnf> {
    let terms = graph
        .outgoing(node)
        .iter()
        .map(|&eid| {
            let edge = graph.edge(eid);
            let mut term = Dnf::atom(eid).or(&delete[edge.to]);
            if !edge.fulfilled.contains(ev) {
                term = term.or(&fail[&(ev_index, edge.to)]);
            }
            term
        })
        .collect();
    Dnf::all_bounded_estimated(terms, budget)
}

/// Tarjan's strongly connected components, returned in reverse topological
/// order of the condensation (components with no edges into later components
/// come first), which is the order the fixpoint iteration wants.
pub(crate) fn strongly_connected_components(graph: &TableauGraph) -> Vec<Vec<NodeId>> {
    struct Tarjan<'g> {
        graph: &'g TableauGraph,
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: usize,
        components: Vec<Vec<NodeId>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: NodeId) {
            self.index[v] = Some(self.next_index);
            self.lowlink[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &eid in self.graph.outgoing(v) {
                let w = self.graph.target(eid);
                if self.index[w].is_none() {
                    self.visit(w);
                    self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w].unwrap());
                }
            }
            if self.lowlink[v] == self.index[v].unwrap() {
                let mut component = Vec::new();
                loop {
                    let w = self.stack.pop().expect("stack cannot be empty here");
                    self.on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                self.components.push(component);
            }
        }
    }
    let n = graph.node_count();
    let mut tarjan = Tarjan {
        graph,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        components: Vec::new(),
    };
    for v in 0..n {
        if tarjan.index[v].is_none() {
            tarjan.visit(v);
        }
    }
    // Tarjan emits components in reverse topological order already.
    tarjan.components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{CmpOp, Term};
    use crate::tableau::valid_pure;
    use crate::theory::{LinearTheory, PropositionalTheory};

    fn p() -> Ltl {
        Ltl::prop("P")
    }
    fn q() -> Ltl {
        Ltl::prop("Q")
    }

    #[test]
    fn pure_temporal_agreement_with_iter() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let formulas = vec![
            p().or(p().not()),
            p().always().implies(p()),
            p().always().implies(p().eventually()),
            p().eventually().always().implies(p().always().eventually()),
            p().always().eventually().implies(p().eventually().always()),
            p().until(q()).iff(q().or(p().and(p().until(q()).next()))),
            p().eventually(),
            p().until(q()),
        ];
        for f in formulas {
            let expected = if valid_pure(&f) { Decision::Valid } else { Decision::NotValid };
            assert_eq!(alg.decide(&f), expected, "disagreement on {f}");
        }
    }

    #[test]
    fn condition_of_valid_formula_is_top() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let cond = alg.condition(&p().or(p().not()));
        assert!(cond.valid_in_pure_tl());
        assert!(cond.outer_rounds() >= 1);
    }

    #[test]
    fn state_variable_example_from_section_5_1() {
        // □(x > 0) ∨ □(x < 1): not valid when x is a state variable.
        let gt = Ltl::cmp(Term::var("x"), CmpOp::Gt, Term::int(0));
        let lt = Ltl::cmp(Term::var("x"), CmpOp::Lt, Term::int(1));
        let formula = gt.always().or(lt.always());
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::all_state());
        assert_eq!(alg.decide(&formula), Decision::NotValid);
    }

    #[test]
    fn extralogical_variable_example_from_section_5_1() {
        // □(x > 0) ∨ □(x < 1): valid when x is extralogical (time-independent).
        let gt = Ltl::cmp(Term::var("x"), CmpOp::Gt, Term::int(0));
        let lt = Ltl::cmp(Term::var("x"), CmpOp::Lt, Term::int(1));
        let formula = gt.always().or(lt.always());
        // The full 153 600-selection search; the answer is the same at every
        // worker count (`selection_search_answers_alike_at_every_worker_count`).
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::with_extralogical(["x"]))
            .with_parallelism(Parallelism::Auto);
        assert_eq!(alg.decide(&formula), Decision::Valid);
    }

    #[test]
    fn selection_search_answers_alike_at_every_worker_count() {
        // Purely extralogical formulas whose conditions reach the selection
        // search: 1296 selections each (small enough for a debug build).
        let x = |op, k| Ltl::cmp(Term::var("x"), op, Term::int(k));
        let valid = x(CmpOp::Lt, 1).next().always().or(x(CmpOp::Gt, 0).next());
        let not_valid = x(CmpOp::Gt, 0).next().always().or(x(CmpOp::Gt, 2).next());
        let linear = LinearTheory::new();
        let vars = || VarSpec::with_extralogical(["x"]);
        let unbounded = ResourceBudget::unbounded();
        let token = crate::pool::CancelToken::new();
        token.cancel();
        let cases = [
            (&valid, unbounded.clone(), Ok(Decision::Valid)),
            (&not_valid, unbounded.clone(), Ok(Decision::NotValid)),
            // One selection short of the 1296 the valid case must refute.
            (&valid, unbounded.clone().with_max_enumeration(1295), Err(Exhaustion::Enumeration)),
            (&valid, unbounded.with_cancel(token), Err(Exhaustion::Cancelled)),
        ];
        for (formula, budget, expected) in cases {
            let condition = AlgorithmB::new(&linear, vars())
                .condition_budgeted(formula, &ResourceBudget::default())
                .expect("the condition fits the default budget");
            let parallelisms =
                [Parallelism::Off].into_iter().chain((1..=4).map(Parallelism::Fixed));
            for parallelism in parallelisms {
                let answer = AlgorithmB::new(&linear, vars())
                    .with_parallelism(parallelism)
                    .decide_from_condition_budgeted(formula, &condition, &budget);
                assert_eq!(answer, expected, "{formula} at {parallelism:?}");
            }
        }
    }

    #[test]
    fn state_theory_example_is_valid_with_algorithm_b_too() {
        let a_ge_1 = Ltl::cmp(Term::var("a"), CmpOp::Ge, Term::int(1));
        let a_gt_0 = Ltl::cmp(Term::var("a"), CmpOp::Gt, Term::int(0));
        let formula = a_ge_1.always().implies(a_gt_0.eventually());
        let linear = LinearTheory::new();
        let alg = AlgorithmB::new(&linear, VarSpec::all_state());
        assert_eq!(alg.decide(&formula), Decision::Valid);
    }

    #[test]
    fn bounded_decision_agrees_with_unbounded_on_small_formulas() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let formulas = vec![
            p().or(p().not()),
            p().always().implies(p().eventually()),
            p().eventually(),
            p().until(q()),
        ];
        let budget = ResourceBudget::default().with_max_enumeration(alg.selection_limit);
        for f in formulas {
            assert_eq!(
                alg.decide_budgeted(&f, &budget).unwrap_or(Decision::Unknown),
                alg.decide(&f),
                "budgeted and unbudgeted decisions differ on {f}"
            );
        }
    }

    #[test]
    fn tiny_budgets_yield_unknown_not_a_wrong_answer() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let tight = ResourceBudget::unbounded().with_max_implicants(1);
        // ◇P ∨ ◇Q is NOT valid: under a 1-implicant budget the answer may
        // degrade to Unknown (an Err) but must never become Valid.
        let not_valid = p().eventually().or(q().eventually());
        assert!(!matches!(alg.decide_budgeted(&not_valid, &tight), Ok(Decision::Valid)));
        // □P ⊃ ◇P IS valid: under the same budget the answer may degrade to
        // Unknown but must never become NotValid.
        let valid = p().always().implies(p().eventually());
        assert!(!matches!(alg.decide_budgeted(&valid, &tight), Ok(Decision::NotValid)));
        // And a near-zero build budget trips the construction phase.
        let no_graph = ResourceBudget::unbounded().with_max_nodes(1).with_max_edges(1);
        assert!(alg.decide_budgeted(&not_valid, &no_graph).is_err());
    }

    #[test]
    fn budgeted_decisions_name_the_exhausted_resource() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let not_valid = p().eventually().or(q().eventually());
        // A 1-node/1-edge build budget trips during construction.
        let no_graph = ResourceBudget::unbounded().with_max_nodes(1).with_max_edges(1);
        assert!(matches!(
            alg.decide_budgeted(&not_valid, &no_graph),
            Err(Exhaustion::Nodes | Exhaustion::Edges)
        ));
        // A cancelled token is reported as such from any phase.
        let token = crate::pool::CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        assert_eq!(alg.decide_budgeted(&not_valid, &cancelled), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn disjuncts_expose_edge_labels() {
        let theory = PropositionalTheory::new();
        let alg = AlgorithmB::new(&theory, VarSpec::all_state());
        let cond = alg.condition(&p().eventually());
        // ◇P is not valid; the condition should be non-trivial and expose labels.
        assert!(!cond.valid_in_pure_tl());
        let _ = cond.disjuncts();
        assert!(cond.graph().node_count() >= 1);
    }
}
