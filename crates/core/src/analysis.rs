//! Pre-flight static analysis: lints, cost prediction, and the inputs
//! [`Backend::Auto`](crate::session::Backend::Auto) routes on.
//!
//! Everything here is a pass over the hash-consed [`crate::arena`] — no
//! tableau is built, no condition computed, no trace enumerated — so analysing
//! a formula costs microseconds even when *checking* it would cost minutes.
//! The pass produces two artifacts:
//!
//! * a list of [`Diagnostic`]s — machine-readable findings with a stable
//!   [`DiagnosticCode`], a [`Severity`], a root-to-node [`FormulaId`] path,
//!   and a human-readable message (see the code table in `ARCHITECTURE.md`);
//! * a [`CostEstimate`] — a structural prediction of what the `Decide`
//!   pipeline would pay for the formula (tableau closure size, node/edge
//!   counts, condition-DNF width), calibrated against the measured shapes
//!   listed under "The cost estimator" in `ARCHITECTURE.md`.
//!
//! The estimate is what [`crate::session::Backend::Auto`] routes on and what
//! the opt-in pre-flight admission check compares against a
//! [`ResourceBudget`](crate::pool::ResourceBudget) before a job ever occupies
//! a worker.
//!
//! ```
//! use ilogic_core::analysis::{analyze_formula, DiagnosticCode};
//! use ilogic_core::dsl::*;
//! use ilogic_core::syntax::Formula;
//!
//! // ◇P inside an interval located by an event that can never occur.
//! let vacuous = eventually(prop("P")).within(fwd(event(Formula::False), event(prop("Q"))));
//! let analysis = analyze_formula(&vacuous);
//! assert!(analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::VacuousInterval));
//! ```
//!
//! # Soundness discipline
//!
//! Every lint that claims a semantic fact (vacuous, contradictory,
//! tautological) uses *conservative* three-valued constant propagation: a
//! formula is only called `⊤`/`⊥` when that holds on **every** computation
//! and interval, under the evaluator's actual semantics (weak interval
//! modalities, non-empty suffix ranges, possibly-empty quantifier domains).
//! When in doubt the propagation answers "unknown" and no diagnostic is
//! emitted.  The differential suite in `tests/preflight_analysis.rs` holds
//! the linter to this: every corpus formula it calls tautological or
//! contradictory must get the matching verdict from the `Bounded` backend.

use std::collections::HashMap;
use std::fmt;

use ilogic_temporal::dnf;
use ilogic_temporal::syntax::Ltl;
use ilogic_temporal::tableau;

use crate::arena::{ArenaRead, FormulaArena, FormulaId, FormulaNode, TermId, TermNode};
use crate::ltl_translate::translated;
use crate::spec::{close_free_variables, Spec};
use crate::syntax::{Arg, Expr, Formula, IntervalTerm, Pred};

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — e.g. which backend `Auto` routed to.
    Info,
    /// The spec/formula is probably not what the author meant.
    Warning,
    /// The check is doomed (contradictory clause, rejected job).
    Error,
}

impl Severity {
    /// The wire string (`"info"`, `"warning"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifier of a finding class.  The wire string ([`as_str`]) and
/// the meaning of every code are documented in the `ARCHITECTURE.md`
/// diagnostic table; `tests/lint_audit.rs` fails if they drift apart.
///
/// [`as_str`]: DiagnosticCode::as_str
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// `L001` — a `forall`/`exists` binder whose variable the body never uses.
    UnusedBinder,
    /// `L002` — a data variable used without any binder (the session checks
    /// it unbound; only `Spec` clauses are implicitly closed).
    UnboundVariable,
    /// `L003` — a spec clause structurally identical to an earlier clause of
    /// the same kind.
    DuplicateClause,
    /// `L004` — a spec clause syntactically implied by another clause of the
    /// same kind (e.g. `α` next to `[]α`).
    SubsumedClause,
    /// `L005` — an interval modality whose locator can never succeed, making
    /// the formula trivially true (or, under `Must`, trivially false).
    VacuousInterval,
    /// `L006` — the formula is syntactically contradictory (`⊥` under
    /// conservative constant propagation): no computation can satisfy it.
    Contradictory,
    /// `L007` — the formula is syntactically tautological (`⊤`): it
    /// constrains nothing.
    Tautological,
    /// `L008` — nested `[α ⇒]` prefixes, the weak-until translation shape
    /// whose tableau closure grows exponentially with depth.
    DeepNesting,
    /// `C001` — the `[ ⇒ α ] []β` prefix-invariance family and its dual
    /// `~[ ⇒ α ] <>β`: the evaluated fixpoint decides them far more cheaply
    /// than the explicit §5 condition DNF, which on the `□` shape trips the
    /// default implicant cap.
    ArtifactIntractable,
    /// `C002` — pre-flight admission rejected the job: the predicted cost
    /// exceeds the attached budget, so the check answered `Unknown` without
    /// occupying a worker.
    OverBudget,
    /// `R001` — `Backend::Auto` routing decision (which backend, and why).
    Routed,
}

impl DiagnosticCode {
    /// Every code the analyzers can emit, in code order.
    pub const ALL: [DiagnosticCode; 11] = [
        DiagnosticCode::UnusedBinder,
        DiagnosticCode::UnboundVariable,
        DiagnosticCode::DuplicateClause,
        DiagnosticCode::SubsumedClause,
        DiagnosticCode::VacuousInterval,
        DiagnosticCode::Contradictory,
        DiagnosticCode::Tautological,
        DiagnosticCode::DeepNesting,
        DiagnosticCode::ArtifactIntractable,
        DiagnosticCode::OverBudget,
        DiagnosticCode::Routed,
    ];

    /// The stable wire string (`"L001"` … `"R001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::UnusedBinder => "L001",
            DiagnosticCode::UnboundVariable => "L002",
            DiagnosticCode::DuplicateClause => "L003",
            DiagnosticCode::SubsumedClause => "L004",
            DiagnosticCode::VacuousInterval => "L005",
            DiagnosticCode::Contradictory => "L006",
            DiagnosticCode::Tautological => "L007",
            DiagnosticCode::DeepNesting => "L008",
            DiagnosticCode::ArtifactIntractable => "C001",
            DiagnosticCode::OverBudget => "C002",
            DiagnosticCode::Routed => "R001",
        }
    }

    /// Inverse of [`DiagnosticCode::as_str`].
    pub fn parse(code: &str) -> Option<DiagnosticCode> {
        DiagnosticCode::ALL.into_iter().find(|c| c.as_str() == code)
    }

    /// The severity every diagnostic of this code carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticCode::Routed => Severity::Info,
            DiagnosticCode::Contradictory | DiagnosticCode::OverBudget => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// A short human label for tables.
    pub fn title(self) -> &'static str {
        match self {
            DiagnosticCode::UnusedBinder => "unused binder",
            DiagnosticCode::UnboundVariable => "unbound variable",
            DiagnosticCode::DuplicateClause => "duplicate clause",
            DiagnosticCode::SubsumedClause => "subsumed clause",
            DiagnosticCode::VacuousInterval => "vacuous interval",
            DiagnosticCode::Contradictory => "contradictory",
            DiagnosticCode::Tautological => "tautological",
            DiagnosticCode::DeepNesting => "deep nesting",
            DiagnosticCode::ArtifactIntractable => "artifact-intractable",
            DiagnosticCode::OverBudget => "over budget",
            DiagnosticCode::Routed => "routed",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One machine-readable finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable finding class.
    pub code: DiagnosticCode,
    /// Severity (always `code.severity()` for analyzer-emitted diagnostics).
    pub severity: Severity,
    /// Root-to-node arena path of the subformula the finding is about
    /// (empty when the finding is about a whole clause or job).  Ids are
    /// meaningful against the arena the analysis ran in; across a process
    /// boundary they are stable opaque indices ([`FormulaId::index`]).
    pub path: Vec<FormulaId>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic of `code` with the severity the code prescribes.
    pub fn new(code: DiagnosticCode, path: Vec<FormulaId>, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), path, message: message.into() }
    }

    /// The subformula the finding points at (last element of the path).
    pub fn target(&self) -> Option<FormulaId> {
        self.path.last().copied()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.path.is_empty() {
            write!(f, " (at ")?;
            for (i, id) in self.path.iter().enumerate() {
                if i > 0 {
                    write!(f, "→")?;
                }
                write!(f, "#{}", id.index())?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A structural prediction of what checking the formula costs, computed from
/// the AST alone.
///
/// The model is calibrated against the measured tableau/condition sizes of
/// the report's idioms (see the estimator notes in `ARCHITECTURE.md`): for a
/// translatable formula whose closure has `K` deferred components, the
/// expanded tableau of typical (non-blowup) shapes lands near `K + 1` nodes;
/// the exponential shapes ([`DiagnosticCode::DeepNesting`],
/// [`DiagnosticCode::ArtifactIntractable`]) are modelled at their `2^K`
/// worst case.  Edges multiply the node estimate by the `2^atoms` per-pair
/// transition multiplicity, and the condition width is capped by the Sperner
/// antichain bound — except for the artifact-intractable family, which is
/// pinned to `u64::MAX`: no implicant budget makes its explicit condition
/// worth building.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostEstimate {
    /// Whether the formula is in the LTL-translatable fragment (the
    /// precondition for the `Decide` backend to answer).
    pub translatable: bool,
    /// `K`: distinct deferred components of the closure of the *negated*
    /// translation — what the tableau actually expands.  Zero when
    /// untranslatable.
    pub closure_components: usize,
    /// Distinct atoms of the negated translation.
    pub closure_atoms: usize,
    /// Plain AST size of the interval-logic formula.
    pub size: usize,
    /// Distinct plain proposition names (the `Bounded` alphabet).
    pub propositions: usize,
    /// Predicted tableau node count.
    pub nodes: u64,
    /// Predicted tableau edge count.
    pub edges: u64,
    /// Predicted width of the explicit §5 condition DNF; `u64::MAX` for the
    /// artifact-intractable family.
    pub condition_width: u64,
    /// The `[ ⇒ α ] []β` prefix-invariance shape (or its dual
    /// `~[ ⇒ α ] <>β`): the evaluated fixpoint decides it more cheaply than
    /// the explicit condition artifact, which on the `□` shape trips the
    /// default implicant cap.
    pub artifact_intractable: bool,
    /// Nested `[α ⇒]` prefixes at depth ≥ 2 (the PR 1 exponential
    /// translation family).
    pub deep_nesting: bool,
}

impl CostEstimate {
    /// `true` when the structural model predicts exponential behaviour
    /// (either blowup family).
    pub fn blowup(&self) -> bool {
        self.artifact_intractable || self.deep_nesting
    }
}

/// The `C001` message of `[ => α ] []β`, measured on `[ => Q ] []P`.
const PREFIX_INVARIANCE: &str = "prefix-invariance shape `[ => α ] []β`: its explicit condition \
     DNF trips the default 10 000-implicant cap (measured on `[ => Q ] []P`); the decision comes \
     from the evaluated fixpoint";

/// The `C001` message of `~[ => α ] <>β`, measured on `~[ => Q ] <>P`.
const PREFIX_INVARIANCE_DUAL: &str = "dual prefix-invariance shape `~[ => α ] <>β`: its explicit \
     condition DNF completes (157 interned implicants on `~[ => Q ] <>P`), but the evaluated \
     fixpoint decides it more cheaply, so the decision comes from there";

/// What [`analyze`] returns: findings plus the cost prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// Lint findings, in deterministic walk order.
    pub diagnostics: Vec<Diagnostic>,
    /// The structural cost prediction.
    pub estimate: CostEstimate,
}

/// Analyzes `formula` against (and interning into) `arena`.
///
/// This is the session's entry point: interning is idempotent, so analysing a
/// formula that a check will intern anyway costs one hash-consed walk.
pub fn analyze(arena: &mut FormulaArena, formula: &Formula) -> Analysis {
    let root = arena.intern(formula);
    analyze_interned(&*arena, root, formula).0
}

/// [`analyze`] against a throwaway arena — for callers that only want the
/// findings.
pub fn analyze_formula(formula: &Formula) -> Analysis {
    analyze(&mut FormulaArena::new(), formula)
}

/// [`analyze`] for a formula already interned as `root` — the session's
/// prepare path, which interns exactly once — together with the negated
/// LTL translation `¬B` the estimate profiles, when the formula translates:
/// the formula whose tableau a decision builds, so the session translates
/// each request once.
pub(crate) fn analyze_interned<A: ArenaRead>(
    arena: &A,
    root: FormulaId,
    formula: &Formula,
) -> (Analysis, Option<Ltl>) {
    let mut pass = Pass {
        arena,
        // Every subformula is interned before the formula containing it, so
        // no id of the walk exceeds the root's.
        consts: vec![None; root.index() + 1],
        never: Vec::new(),
        diagnostics: Vec::new(),
        intractable: None,
        deep_nesting: false,
    };
    pass.walk(root, &mut Vec::new(), 0);
    match pass.const_value(root) {
        Some(false) => {
            let d = Diagnostic::new(
                DiagnosticCode::Contradictory,
                vec![root],
                "the formula is syntactically contradictory: no computation satisfies it",
            );
            pass.diagnostics.push(d);
        }
        Some(true) => {
            let d = Diagnostic::new(
                DiagnosticCode::Tautological,
                vec![root],
                "the formula is syntactically tautological: it constrains nothing",
            );
            pass.diagnostics.push(d);
        }
        None => {}
    }
    for var in formula.free_vars() {
        pass.diagnostics.push(Diagnostic::new(
            DiagnosticCode::UnboundVariable,
            vec![root],
            format!(
                "data variable `?{var}` has no binder; session checks treat it as unbound \
                 (only `Spec` clauses are implicitly closed)"
            ),
        ));
    }

    let mut diagnostics = pass.diagnostics;
    let deep_nesting = pass.deep_nesting;
    let intractable = pass.intractable;

    let size = formula.size();
    let propositions = count_propositions(formula);
    // The decision pipeline builds the tableau of the *negation*; profile
    // exactly that.
    let negation = translated(formula).map(Ltl::not);
    let estimate = match &negation {
        Some(negation) => {
            let profile = tableau::closure_profile(negation);
            let artifact_intractable = intractable.is_some();
            if let Some((path, message)) = intractable {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::ArtifactIntractable,
                    path,
                    message,
                ));
            }
            let blowup = artifact_intractable || deep_nesting;
            let nodes = if blowup {
                1u64 << (profile.components.min(20) as u32)
            } else {
                profile.components as u64 + 1
            };
            let edges = nodes.saturating_mul(1u64 << (profile.atoms.min(20) as u32));
            let condition_width = if artifact_intractable {
                u64::MAX
            } else {
                edges.min(dnf::antichain_width_bound(profile.size.min(60)))
            };
            CostEstimate {
                translatable: true,
                closure_components: profile.components,
                closure_atoms: profile.atoms,
                size,
                propositions,
                nodes,
                edges,
                condition_width,
                artifact_intractable,
                deep_nesting,
            }
        }
        None => CostEstimate {
            translatable: false,
            size,
            propositions,
            deep_nesting,
            ..CostEstimate::default()
        },
    };
    (Analysis { diagnostics, estimate }, negation)
}

/// Lints every clause of a specification: per-clause formula lints (with the
/// clause label prefixed onto each message) plus the cross-clause checks —
/// duplicate clauses ([`DiagnosticCode::DuplicateClause`]) and syntactically
/// subsumed clauses ([`DiagnosticCode::SubsumedClause`]).
///
/// Clause formulas are universally closed first, exactly as
/// [`Spec::check`] closes them, so the free-variable convention of
/// specifications never trips the unbound-variable lint.
pub fn lint_spec(spec: &Spec) -> Vec<Diagnostic> {
    lint_spec_in(&mut FormulaArena::new(), spec)
}

/// [`lint_spec`] against a caller-supplied arena, so diagnostic paths stay
/// resolvable (e.g. against a session's arena).
pub fn lint_spec_in(arena: &mut FormulaArena, spec: &Spec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut prepared = Vec::new();
    for clause in spec.clauses() {
        let closed = close_free_variables(&clause.formula);
        let analysis = analyze(arena, &closed);
        for mut diagnostic in analysis.diagnostics {
            diagnostic.message = format!("clause `{}`: {}", clause.label, diagnostic.message);
            out.push(diagnostic);
        }
        prepared.push((clause.label.as_str(), clause.kind, arena.intern(&closed)));
    }
    let mut subsumption = Subsumption { arena: &*arena, memo: HashMap::new() };
    for (j, &(label_j, kind_j, id_j)) in prepared.iter().enumerate() {
        // Exact duplicates first: hash-consing makes this an id comparison.
        if let Some(&(label_i, ..)) =
            prepared[..j].iter().find(|&&(_, kind_i, id_i)| kind_i == kind_j && id_i == id_j)
        {
            out.push(Diagnostic::new(
                DiagnosticCode::DuplicateClause,
                vec![id_j],
                format!("clause `{label_j}` duplicates clause `{label_i}`"),
            ));
            continue;
        }
        // Then one-way syntactic subsumption.  For mutually subsuming
        // (structurally distinct but syntactically equivalent) pairs, only
        // the later clause is flagged.
        let subsumer = prepared.iter().enumerate().find(|&(i, &(_, kind_i, id_i))| {
            i != j
                && kind_i == kind_j
                && id_i != id_j
                && subsumption.subsumes(id_i, id_j)
                && (i < j || !subsumption.subsumes(id_j, id_i))
        });
        if let Some((_, &(label_i, ..))) = subsumer {
            out.push(Diagnostic::new(
                DiagnosticCode::SubsumedClause,
                vec![id_j],
                format!("clause `{label_j}` is syntactically implied by clause `{label_i}`"),
            ));
        }
    }
    out
}

/// Calls `visit` on the name of every plain proposition occurrence of a
/// formula, in walk order.
fn for_each_proposition<'f>(formula: &'f Formula, visit: &mut impl FnMut(&'f str)) {
    fn walk_term<'f>(term: &'f IntervalTerm, visit: &mut impl FnMut(&'f str)) {
        match term {
            IntervalTerm::Event(f) => for_each_proposition(f, visit),
            IntervalTerm::Begin(t) | IntervalTerm::End(t) | IntervalTerm::Must(t) => {
                walk_term(t, visit);
            }
            IntervalTerm::Forward(a, b) | IntervalTerm::Backward(a, b) => {
                if let Some(t) = a {
                    walk_term(t, visit);
                }
                if let Some(t) = b {
                    walk_term(t, visit);
                }
            }
        }
    }
    match formula {
        Formula::True | Formula::False | Formula::Pred(Pred::Cmp { .. }) => {}
        Formula::Pred(Pred::Prop { name, .. }) => visit(name),
        Formula::Not(a)
        | Formula::Always(a)
        | Formula::Eventually(a)
        | Formula::Forall(_, a)
        | Formula::Exists(_, a) => for_each_proposition(a, visit),
        Formula::And(a, b) | Formula::Or(a, b) => {
            for_each_proposition(a, visit);
            for_each_proposition(b, visit);
        }
        Formula::In(term, a) => {
            walk_term(term, visit);
            for_each_proposition(a, visit);
        }
    }
}

/// The distinct plain proposition names appearing in a formula, in first
/// occurrence order — the alphabet the `Bounded` backend enumerates over.
pub fn proposition_names(formula: &Formula) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for_each_proposition(formula, &mut |name| {
        if !out.iter().any(|known| known == name) {
            out.push(name.to_string());
        }
    });
    out
}

/// Whether `names` is exactly [`proposition_names`]`(formula)`, decided
/// without building that list.
pub(crate) fn proposition_names_are(formula: &Formula, names: &[String]) -> bool {
    // While the lists agree, the names seen so far are `names[..matched]`.
    let mut matched = 0;
    let mut agree = true;
    for_each_proposition(formula, &mut |name| {
        if !agree || names[..matched].iter().any(|known| known == name) {
            return;
        }
        agree = names.get(matched).is_some_and(|next| next == name);
        matched += 1;
    });
    agree && matched == names.len()
}

/// [`proposition_names`]`.len()` without the `String` clones — the estimator
/// only needs the count, and this pass runs on every `Session::prepare`.
fn count_propositions(formula: &Formula) -> usize {
    let mut seen: Vec<&str> = Vec::new();
    for_each_proposition(formula, &mut |name| {
        if !seen.contains(&name) {
            seen.push(name);
        }
    });
    seen.len()
}

// ---------------------------------------------------------------------------
// The lint pass: one top-down walk emitting positional diagnostics, backed by
// memoized three-valued constant propagation and locator-constructibility.
// ---------------------------------------------------------------------------

struct Pass<'a, A: ArenaRead> {
    arena: &'a A,
    /// Three-valued constant propagation, memoized per arena id (ids are
    /// dense, so a growable `Vec` beats hashing): the outer `Option` is
    /// "not yet computed", the inner is `Some(true)` = true on every
    /// computation/interval, `Some(false)` = false on every, `None` = unknown.
    consts: Vec<Option<Option<bool>>>,
    /// Whether an interval term's locator can *never* be constructed
    /// (same dense-id memo layout).
    never: Vec<Option<bool>>,
    diagnostics: Vec<Diagnostic>,
    /// Path and `C001` message of the first artifact-intractable site, if
    /// any.
    intractable: Option<(Vec<FormulaId>, &'static str)>,
    deep_nesting: bool,
}

impl<A: ArenaRead> Pass<'_, A> {
    fn walk(&mut self, id: FormulaId, path: &mut Vec<FormulaId>, prefix_depth: usize) {
        path.push(id);
        // `self.arena` is a `&'a` reference, so the node borrow is
        // independent of `self` — no clone needed to recurse mutably.
        let arena = self.arena;
        match *arena.formula_node(id) {
            FormulaNode::True | FormulaNode::False | FormulaNode::Pred(_) => {}
            FormulaNode::Not(a) | FormulaNode::Always(a) | FormulaNode::Eventually(a) => {
                self.walk(a, path, 0);
            }
            FormulaNode::And(a, b) | FormulaNode::Or(a, b) => {
                self.walk(a, path, 0);
                self.walk(b, path, 0);
            }
            FormulaNode::Forall(ref var, a) | FormulaNode::Exists(ref var, a) => {
                if !self.uses_var(a, var) {
                    let d = Diagnostic::new(
                        DiagnosticCode::UnusedBinder,
                        path.clone(),
                        format!("quantifier binds `?{var}` but the body never uses it"),
                    );
                    self.diagnostics.push(d);
                }
                self.walk(a, path, 0);
            }
            FormulaNode::In(term, body) => {
                let term_node = *self.arena.term_node(term);
                // `[ ⇒ α ] □β`, or its dual `¬[ ⇒ α ] ◇β`: either way the
                // tableau of the negated translation carries the □.
                let message = match arena.formula_node(body) {
                    FormulaNode::Always(_) => Some(PREFIX_INVARIANCE),
                    FormulaNode::Eventually(_) => path
                        .len()
                        .checked_sub(2)
                        .is_some_and(|at| {
                            matches!(arena.formula_node(path[at]), FormulaNode::Not(_))
                        })
                        .then_some(PREFIX_INVARIANCE_DUAL),
                    _ => None,
                };
                if let Some(message) = message {
                    if matches!(term_node, TermNode::Forward(None, Some(_)))
                        && self.intractable.is_none()
                    {
                        self.intractable = Some((path.clone(), message));
                    }
                }
                if self.never_constructible(term) {
                    let message = if self.term_has_must(term) {
                        "the interval locator can never succeed and carries a `must`: \
                         the modality is constantly violated"
                    } else {
                        "the interval locator can never succeed: the modality is \
                         vacuously true"
                    };
                    let d = Diagnostic::new(DiagnosticCode::VacuousInterval, path.clone(), message);
                    self.diagnostics.push(d);
                }
                let next_depth = if matches!(term_node, TermNode::Forward(Some(_), None)) {
                    prefix_depth + 1
                } else {
                    0
                };
                if next_depth >= 2 {
                    self.deep_nesting = true;
                }
                if next_depth == 2 {
                    let d = Diagnostic::new(
                        DiagnosticCode::DeepNesting,
                        path.clone(),
                        "nested `[α =>]` prefixes: the weak-until translation's tableau \
                         closure grows exponentially with nesting depth",
                    );
                    self.diagnostics.push(d);
                }
                self.walk_term(term, path);
                self.walk(body, path, next_depth);
            }
        }
        path.pop();
    }

    /// Recurses into the event formulas inside an interval term, so lints
    /// apply inside locators too.
    fn walk_term(&mut self, term: TermId, path: &mut Vec<FormulaId>) {
        match *self.arena.term_node(term) {
            TermNode::Event(f) => self.walk(f, path, 0),
            TermNode::Begin(t) | TermNode::End(t) | TermNode::Must(t) => self.walk_term(t, path),
            TermNode::Forward(a, b) | TermNode::Backward(a, b) => {
                if let Some(t) = a {
                    self.walk_term(t, path);
                }
                if let Some(t) = b {
                    self.walk_term(t, path);
                }
            }
        }
    }

    /// Conservative three-valued constant propagation.  Every `Some` answer
    /// is justified against the evaluator's semantics:
    ///
    /// * suffix ranges are never empty, so `□⊥ = ⊥` and `◇⊤ = ⊤`;
    /// * quantifier domains *can* be empty, so only `∀x.⊤ = ⊤` and
    ///   `∃x.⊥ = ⊥` propagate;
    /// * interval modalities are weak: a locator that never constructs makes
    ///   `[t]α` true (no `must`) or, when the term is `must`-rooted, false;
    ///   a constantly-true body makes a `must`-free `[t]α` true.
    fn const_value(&mut self, id: FormulaId) -> Option<bool> {
        if let Some(Some(v)) = self.consts.get(id.index()) {
            return *v;
        }
        let arena = self.arena;
        let v = match *arena.formula_node(id) {
            FormulaNode::True => Some(true),
            FormulaNode::False => Some(false),
            FormulaNode::Pred(_) => None,
            FormulaNode::Not(a) => self.const_value(a).map(|b| !b),
            FormulaNode::And(a, b) => {
                let (va, vb) = (self.const_value(a), self.const_value(b));
                if va == Some(false) || vb == Some(false) || self.complementary(a, b) {
                    Some(false)
                } else if va == Some(true) && vb == Some(true) {
                    Some(true)
                } else {
                    None
                }
            }
            FormulaNode::Or(a, b) => {
                let (va, vb) = (self.const_value(a), self.const_value(b));
                if va == Some(true) || vb == Some(true) || self.complementary(a, b) {
                    Some(true)
                } else if va == Some(false) && vb == Some(false) {
                    Some(false)
                } else {
                    None
                }
            }
            FormulaNode::Always(a) | FormulaNode::Eventually(a) => self.const_value(a),
            FormulaNode::In(term, body) => {
                if self.never_constructible(term) {
                    if let TermNode::Must(_) = self.arena.term_node(term) {
                        // `construct` lifts the locator's NotFound to
                        // Violated at a must root: constantly false.
                        Some(false)
                    } else if !self.term_has_must(term) {
                        Some(true)
                    } else {
                        // A non-root `must` may yield Violated *or* NotFound
                        // depending on which arm fails first: unknown.
                        None
                    }
                } else if !self.term_has_must(term) && self.const_value(body) == Some(true) {
                    Some(true)
                } else {
                    None
                }
            }
            FormulaNode::Forall(_, a) => (self.const_value(a) == Some(true)).then_some(true),
            FormulaNode::Exists(_, a) => match self.const_value(a) {
                Some(false) => Some(false),
                _ => None,
            },
        };
        if self.consts.len() <= id.index() {
            self.consts.resize(id.index() + 1, None);
        }
        self.consts[id.index()] = Some(v);
        v
    }

    /// `a ∧ ¬a` / `a ∨ ¬a` at the same arena id — syntactic complementarity.
    fn complementary(&self, a: FormulaId, b: FormulaId) -> bool {
        matches!(self.arena.formula_node(b), FormulaNode::Not(inner) if *inner == a)
            || matches!(self.arena.formula_node(a), FormulaNode::Not(inner) if *inner == b)
    }

    /// `true` when the locator can never be constructed, on any computation
    /// and from any context interval.  An event whose formula is constantly
    /// true or constantly false never *changes* to true, so it never fires;
    /// never-ness propagates through every unary wrapper and through any
    /// present arm of a search pair.
    fn never_constructible(&mut self, term: TermId) -> bool {
        if let Some(Some(v)) = self.never.get(term.index()) {
            return *v;
        }
        let v = match *self.arena.term_node(term) {
            TermNode::Event(f) => self.const_value(f).is_some(),
            TermNode::Begin(t) | TermNode::End(t) | TermNode::Must(t) => {
                self.never_constructible(t)
            }
            TermNode::Forward(a, b) | TermNode::Backward(a, b) => {
                a.is_some_and(|t| self.never_constructible(t))
                    || b.is_some_and(|t| self.never_constructible(t))
            }
        };
        if self.never.len() <= term.index() {
            self.never.resize(term.index() + 1, None);
        }
        self.never[term.index()] = Some(v);
        v
    }

    fn term_has_must(&self, term: TermId) -> bool {
        match *self.arena.term_node(term) {
            TermNode::Must(_) => true,
            TermNode::Event(_) => false,
            TermNode::Begin(t) | TermNode::End(t) => self.term_has_must(t),
            TermNode::Forward(a, b) | TermNode::Backward(a, b) => {
                a.is_some_and(|t| self.term_has_must(t)) || b.is_some_and(|t| self.term_has_must(t))
            }
        }
    }

    /// Whether the data variable `name` occurs free in the subformula —
    /// binder-aware (an inner quantifier of the same name shadows).
    fn uses_var(&self, id: FormulaId, name: &str) -> bool {
        match self.arena.formula_node(id) {
            FormulaNode::True | FormulaNode::False => false,
            FormulaNode::Pred(pred) => pred_uses_var(pred, name),
            FormulaNode::Not(a) | FormulaNode::Always(a) | FormulaNode::Eventually(a) => {
                self.uses_var(*a, name)
            }
            FormulaNode::And(a, b) | FormulaNode::Or(a, b) => {
                self.uses_var(*a, name) || self.uses_var(*b, name)
            }
            FormulaNode::In(term, a) => self.term_uses_var(*term, name) || self.uses_var(*a, name),
            FormulaNode::Forall(v, a) | FormulaNode::Exists(v, a) => {
                v != name && self.uses_var(*a, name)
            }
        }
    }

    fn term_uses_var(&self, term: TermId, name: &str) -> bool {
        match *self.arena.term_node(term) {
            TermNode::Event(f) => self.uses_var(f, name),
            TermNode::Begin(t) | TermNode::End(t) | TermNode::Must(t) => {
                self.term_uses_var(t, name)
            }
            TermNode::Forward(a, b) | TermNode::Backward(a, b) => {
                a.is_some_and(|t| self.term_uses_var(t, name))
                    || b.is_some_and(|t| self.term_uses_var(t, name))
            }
        }
    }
}

fn pred_uses_var(pred: &Pred, name: &str) -> bool {
    match pred {
        Pred::Prop { args, .. } => args.iter().any(|arg| matches!(arg, Arg::Var(v) if v == name)),
        Pred::Cmp { lhs, rhs, .. } => {
            let uses = |e: &Expr| matches!(e, Expr::DataVar(v) if v == name);
            uses(lhs) || uses(rhs)
        }
    }
}

// ---------------------------------------------------------------------------
// Syntactic clause subsumption: `subsumes(a, b)` ⇒ a ⊨ b, by structural
// rules only.  Memoized; recursion strictly shrinks `size(a) + size(b)`.
// ---------------------------------------------------------------------------

struct Subsumption<'a, A: ArenaRead> {
    arena: &'a A,
    memo: HashMap<(FormulaId, FormulaId), bool>,
}

impl<A: ArenaRead> Subsumption<'_, A> {
    /// `true` only when `a` syntactically entails `b`.  Sound, far from
    /// complete — the point is catching redundant spec clauses (`α` next to
    /// `[]α`, a conjunct restated alone), not deciding entailment.
    fn subsumes(&mut self, a: FormulaId, b: FormulaId) -> bool {
        if a == b {
            return true;
        }
        if let Some(&v) = self.memo.get(&(a, b)) {
            return v;
        }
        let na = self.arena.formula_node(a).clone();
        let nb = self.arena.formula_node(b).clone();
        // Left-decomposition: weaken `a`.
        let mut v = match na {
            FormulaNode::False => true,
            FormulaNode::And(x, y) => self.subsumes(x, b) || self.subsumes(y, b),
            FormulaNode::Or(x, y) => self.subsumes(x, b) && self.subsumes(y, b),
            // Suffix ranges include the whole computation: □x ⊨ x.
            FormulaNode::Always(x) => self.subsumes(x, b),
            _ => false,
        };
        // Right-decomposition: strengthen towards `b`.
        if !v {
            v = match nb {
                FormulaNode::True => true,
                FormulaNode::And(x, y) => self.subsumes(a, x) && self.subsumes(a, y),
                FormulaNode::Or(x, y) => self.subsumes(a, x) || self.subsumes(a, y),
                // x ⊨ ◇x.
                FormulaNode::Eventually(y) => self.subsumes(a, y),
                _ => false,
            };
        }
        // Monotone congruences.
        if !v {
            v = match (self.arena.formula_node(a).clone(), self.arena.formula_node(b).clone()) {
                (FormulaNode::Not(x), FormulaNode::Not(y)) => self.subsumes(y, x),
                (FormulaNode::Eventually(x), FormulaNode::Eventually(y)) => self.subsumes(x, y),
                (FormulaNode::In(t1, x), FormulaNode::In(t2, y)) if t1 == t2 => self.subsumes(x, y),
                (FormulaNode::Forall(v1, x), FormulaNode::Forall(v2, y)) if v1 == v2 => {
                    self.subsumes(x, y)
                }
                (FormulaNode::Exists(v1, x), FormulaNode::Exists(v2, y)) if v1 == v2 => {
                    self.subsumes(x, y)
                }
                _ => false,
            };
        }
        self.memo.insert((a, b), v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    fn codes(analysis: &Analysis) -> Vec<DiagnosticCode> {
        analysis.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_formula_has_no_findings() {
        let analysis = analyze_formula(&always(prop("P")).implies(eventually(prop("P"))));
        assert!(analysis.diagnostics.is_empty(), "{:?}", analysis.diagnostics);
        assert!(analysis.estimate.translatable);
        assert!(!analysis.estimate.blowup());
    }

    #[test]
    fn tautology_and_contradiction_are_flagged() {
        let taut = analyze_formula(&prop("P").or(prop("P").not()));
        assert!(codes(&taut).contains(&DiagnosticCode::Tautological));
        let contra = analyze_formula(&always(prop("P").and(prop("P").not())));
        assert!(codes(&contra).contains(&DiagnosticCode::Contradictory));
    }

    #[test]
    fn vacuous_locator_is_flagged_and_propagates() {
        // [ (⊥ event) => Q ] ◇P — the forward search can never find ⊥→⊤.
        let f = eventually(prop("P")).within(fwd(event(Formula::False), event(prop("Q"))));
        let analysis = analyze_formula(&f);
        assert!(codes(&analysis).contains(&DiagnosticCode::VacuousInterval));
        // Without a must, the modality is vacuously true.
        assert!(codes(&analysis).contains(&DiagnosticCode::Tautological));
    }

    #[test]
    fn must_rooted_never_locator_is_contradictory() {
        let f = eventually(prop("P")).within(must(event(Formula::False)));
        let analysis = analyze_formula(&f);
        assert!(codes(&analysis).contains(&DiagnosticCode::VacuousInterval));
        assert!(codes(&analysis).contains(&DiagnosticCode::Contradictory));
    }

    #[test]
    fn unused_binder_and_unbound_variable() {
        let unused = analyze_formula(&forall("v", prop("P")));
        assert!(codes(&unused).contains(&DiagnosticCode::UnusedBinder));
        let unbound = analyze_formula(&Formula::Pred(Pred::Prop {
            name: "p".into(),
            args: vec![Arg::Var("v".into())],
        }));
        assert!(codes(&unbound).contains(&DiagnosticCode::UnboundVariable));
    }

    #[test]
    fn prefix_invariance_is_artifact_intractable_without_building_anything() {
        // [ => Q ] []P — the family whose explicit condition trips the default
        // 10 000-implicant cap (33 nodes / 410 edges in Graph(¬B)); the
        // evaluated fixpoint decides it.
        let f = always(prop("P")).within(fwd_to(event(prop("Q"))));
        let analysis = analyze_formula(&f);
        assert!(codes(&analysis).contains(&DiagnosticCode::ArtifactIntractable));
        assert!(analysis.estimate.translatable);
        assert!(analysis.estimate.artifact_intractable);
        assert_eq!(analysis.estimate.condition_width, u64::MAX);
        // The ◇ dual is tractable.
        let dual = eventually(prop("P")).within(fwd_to(event(prop("Q"))));
        let dual_analysis = analyze_formula(&dual);
        assert!(!dual_analysis.estimate.artifact_intractable);
        assert!(dual_analysis.estimate.condition_width < 100);
        // Its negation is the □ shape again once the tableau pushes the
        // negation in: ~[ => Q ] <>P.  Its explicit condition completes (157
        // interned implicants on a 7-node / 36-edge graph), but routing keeps
        // it on the cheaper evaluated fixpoint.
        let negated = analyze_formula(&not(dual));
        assert!(codes(&negated).contains(&DiagnosticCode::ArtifactIntractable));
        assert!(negated.estimate.artifact_intractable && negated.estimate.blowup());
        assert_eq!(negated.estimate.condition_width, u64::MAX);
    }

    #[test]
    fn nested_prefixes_flag_deep_nesting() {
        let mut f = always(prop("P"));
        for name in ["A", "B"] {
            f = f.within(fwd_from(event(prop(name))));
        }
        let analysis = analyze_formula(&f);
        assert!(codes(&analysis).contains(&DiagnosticCode::DeepNesting));
        assert!(analysis.estimate.deep_nesting);
        // A single prefix is the report's bread-and-butter shape: no warning.
        let single = analyze_formula(&always(prop("P")).within(fwd_from(event(prop("A")))));
        assert!(!codes(&single).contains(&DiagnosticCode::DeepNesting));
    }

    #[test]
    fn estimator_tracks_measured_sizes_on_calibration_shapes() {
        // R5 (◇◇P ≡ ◇P): measured 9 nodes / 51 edges.
        let r5 = eventually(eventually(prop("P"))).iff(eventually(prop("P")));
        let est = analyze_formula(&r5).estimate;
        assert!(est.translatable && !est.blowup());
        assert!(est.nodes >= 4 && est.nodes <= 64, "nodes {}", est.nodes);
        assert!(est.edges >= est.nodes, "edges {}", est.edges);
    }

    #[test]
    fn spec_lints_catch_duplicates_and_subsumption() {
        let spec = Spec::new("s")
            .axiom("A", prop("P").implies(always(prop("Q"))))
            .axiom("A-weak", prop("P").implies(prop("Q")))
            .axiom("A-again", prop("P").implies(always(prop("Q"))));
        let findings = lint_spec(&spec);
        assert!(
            findings
                .iter()
                .any(|d| d.code == DiagnosticCode::DuplicateClause
                    && d.message.contains("A-again")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|d| d.code == DiagnosticCode::SubsumedClause && d.message.contains("A-weak")),
            "{findings:?}"
        );
    }

    #[test]
    fn proposition_names_are_compares_with_the_names_in_order() {
        let formula = prop("p").and(always(prop("q").or(prop("p"))));
        let names = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(proposition_names(&formula), names(&["p", "q"]));
        assert!(proposition_names_are(&formula, &names(&["p", "q"])));
        for other in [&["q", "p"][..], &["p"], &["p", "q", "r"], &["p", "p"], &[]] {
            assert!(!proposition_names_are(&formula, &names(other)), "{other:?}");
        }
        assert!(proposition_names_are(&Formula::True, &[]));
    }

    #[test]
    fn diagnostic_codes_round_trip_their_wire_strings() {
        for code in DiagnosticCode::ALL {
            assert_eq!(DiagnosticCode::parse(code.as_str()), Some(code));
            assert_eq!(code.severity(), Diagnostic::new(code, vec![], "x").severity);
        }
    }
}
