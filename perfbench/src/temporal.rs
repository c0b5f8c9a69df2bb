//! The temporal layers replayed one entry point at a time, in the order the
//! session's `decide` backend runs them: translation to LTL, Appendix B
//! tableau construction, the explicit §5 condition artifact and the
//! decision from it, the evaluated §5.3 fixpoint when that artifact trips
//! its implicant cap, and the bounded refutation sweep.  Pruning (Algorithm
//! A's deletion loop) is not on the session's path; it is timed as its own
//! entry point and cross-checks the decision.  Kept in this one file
//! because these are the entry points most likely to be renamed as the
//! library consolidates its `_budgeted`/`_stats` variants.

use ilogic_core::analysis::{analyze_formula, proposition_names};
use ilogic_core::arena::FormulaArena;
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::ltl_translate::to_ltl;
use ilogic_core::pool::{Parallelism, ResourceBudget};
use ilogic_core::session::{auto_backend, ConditionStats, Verdict};
use ilogic_core::syntax::Formula;
use ilogic_temporal::algorithm_b::{condition_of_graph_budgeted_stats, AlgorithmB, Decision};
use ilogic_temporal::syntax::VarSpec;
use ilogic_temporal::tableau::{prune_budgeted, TableauGraph};
use ilogic_temporal::theory::PropositionalTheory;

use crate::trace::Tracer;

/// The deepest refutation sweep the session runs (its
/// `DECIDE_REFUTATION_BOUND`): the sweep uses the deepest length up to this
/// whose enumeration fits the budget.
const REFUTATION_BOUND: usize = 4;

/// What the replay concluded, for comparison with the session's report.
#[derive(Debug, Default)]
pub struct Replay {
    /// The verdict the replayed layers reach, or `None` when a layer ran out
    /// of budget (the session's own verdict is then not comparable).
    pub verdict: Option<Verdict>,
    /// Nodes of the tableau built, `0` when none was.
    pub tableau_nodes: usize,
    /// `true` when the pruning decision disagrees with the fixpoint
    /// decision.
    pub prune_disagrees: bool,
    /// The condition counters of both fixpoint phases, merged as the
    /// session merges them into `CheckStats::condition`.
    pub condition: ConditionStats,
    /// Traces the refutation sweep checked (`CheckStats::traces_checked`).
    pub traces_checked: usize,
    /// Time in the fixpoint phases together, ns; `0` when none ran.
    pub fixpoint_ns: u64,
    /// The fixpoint phases run, in order.
    pub phases: Vec<&'static str>,
}

/// The budget the session's `auto` routing gives `formula` under the
/// request's `budget` (a formula predicted to blow up gets an infinite
/// implicant cap, which skips the condition artifact), keeping only the
/// structural caps: the replay runs after the session answered, when a
/// request's deadline may have passed, and a timing cut says nothing about
/// the layers.
fn routed(formula: &Formula, budget: &ResourceBudget) -> ResourceBudget {
    let (_, budget) = auto_backend(formula, &analyze_formula(formula).estimate, budget);
    ResourceBudget::unbounded()
        .with_max_nodes(budget.max_nodes())
        .with_max_edges(budget.max_edges())
        .with_max_implicants(budget.max_implicants())
        .with_max_enumeration(budget.max_enumeration())
}

/// The refutation sweep checker the session would run over `formula`.
fn refutation_checker(
    formula: &Formula,
    budget: &ResourceBudget,
) -> Option<(usize, BoundedChecker)> {
    let props = proposition_names(formula);
    (1..=REFUTATION_BOUND).rev().map(|len| (len, BoundedChecker::new(props.clone(), len))).find(
        |(_, checker)| {
            let count = checker.model_count();
            count != usize::MAX && count <= budget.max_enumeration()
        },
    )
}

/// Replays the refutation sweep under span `bounded`.
fn sweep(
    formula: &Formula,
    budget: &ResourceBudget,
    tracer: &mut Tracer,
    request: u32,
    parent: usize,
    replay: &mut Replay,
) -> Option<Verdict> {
    let (max_len, checker) = refutation_checker(formula, budget)?;
    let mut arena = FormulaArena::new();
    let id = arena.intern(formula);
    let result = tracer.span("bounded", request, Some(parent), || {
        checker.sweep_budgeted(&arena, id, None, Parallelism::Off, budget)
    });
    replay.traces_checked = result.traces_checked;
    match (result.counterexample, result.exhausted) {
        (Some((_, trace)), _) => Some(Verdict::Counterexample(trace)),
        (None, Some(_)) => None,
        (None, None) => Some(Verdict::ValidUpTo(max_len)),
    }
}

/// Replays a request the session's `auto` routing sent to `backend`
/// (`"decide"` or `"bounded"`) under the request's `budget`, recording one
/// span per layer under `parent`.
pub fn replay(
    formula: &Formula,
    backend: &str,
    budget: &ResourceBudget,
    tracer: &mut Tracer,
    request: u32,
    parent: usize,
) -> Replay {
    let budget = routed(formula, budget);
    let mut replay = Replay::default();
    if backend == "bounded" {
        replay.verdict = sweep(formula, &budget, tracer, request, parent, &mut replay);
        return replay;
    }
    let Ok(ltl) = tracer.span("translate", request, Some(parent), || to_ltl(formula)) else {
        replay.verdict = Some(Verdict::unknown());
        return replay;
    };
    let negated = ltl.clone().not();
    let Ok(graph) = tracer.span("tableau.build", request, Some(parent), || {
        TableauGraph::try_build_budgeted(&negated, &budget, Parallelism::Off)
    }) else {
        return replay;
    };
    replay.tableau_nodes = graph.node_count();
    let theory = PropositionalTheory::new();
    let pruned = tracer.span("tableau.prune", request, Some(parent), || {
        prune_budgeted(&graph, &theory, Parallelism::Off, &budget)
    });
    let algorithm = AlgorithmB::new(&theory, VarSpec::all_state());

    // Phase 1, under a finite implicant cap only: the explicit condition
    // artifact, then the decision from it.
    let mut decision = None;
    if budget.max_implicants() != usize::MAX {
        let (artifact, stats) = tracer.span("fixpoint.condition", request, Some(parent), || {
            condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off)
        });
        replay.fixpoint_ns += tracer.last_ns() as u64;
        replay.phases.push("fixpoint.condition");
        replay.condition = stats;
        if let Ok(condition) = artifact {
            decision = Some(tracer.span("fixpoint.from_condition", request, Some(parent), || {
                algorithm.decide_from_condition_budgeted(&ltl, &condition, &budget)
            }));
            replay.fixpoint_ns += tracer.last_ns() as u64;
            replay.phases.push("fixpoint.from_condition");
        }
    }
    // Phase 2, when the artifact tripped (or was not attempted): the
    // evaluated fixpoint over plain Booleans.
    let decision = decision.unwrap_or_else(|| {
        let (decision, stats) = tracer.span("fixpoint.evaluated", request, Some(parent), || {
            algorithm.decide_from_graph_budgeted_stats(&ltl, &graph, &budget)
        });
        replay.fixpoint_ns += tracer.last_ns() as u64;
        replay.phases.push("fixpoint.evaluated");
        replay.condition.merge(stats);
        decision
    });
    // ¬φ has a model exactly when the initial node survives pruning.
    if let (Ok(pruned), Ok(decision)) = (&pruned, &decision) {
        let satisfiable = pruned.node_alive(graph.initial());
        replay.prune_disagrees = satisfiable != (*decision == Decision::NotValid);
    }
    replay.verdict = match decision {
        Ok(Decision::Valid) => Some(Verdict::Holds),
        Ok(_) => match sweep(formula, &budget, tracer, request, parent, &mut replay) {
            // A clean sweep after a non-valid decision is the session's
            // plain `Unknown`.
            Some(Verdict::ValidUpTo(_)) => Some(Verdict::unknown()),
            other => other,
        },
        Err(_) => None,
    };
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::distinct_hard_formulas;
    use ilogic_core::session::{CheckRequest, Session};

    /// Replays `formulas` after the session checks each under `budget`, and
    /// counts the fixpoint phase sequences seen.  Each replay must record
    /// its phases as spans and reproduce the session's verdict class,
    /// condition counters and sweep count, which differ whenever the phases
    /// run differ.
    fn phase_sequences(formulas: &[Formula], budget: &ResourceBudget) -> [usize; 3] {
        let session = Session::new().with_verdict_cache(false);
        let mut tracer = Tracer::default();
        // Skipped artifact, artifact decided, artifact tripped.
        let mut seen = [0; 3];
        for (i, formula) in formulas.iter().enumerate() {
            let request = CheckRequest::new(formula.clone()).auto().with_budget(budget.clone());
            let report = session.check(request);
            if report.backend != "decide" {
                continue;
            }
            let root = tracer.open("request", i as u32, None);
            let replay = replay(formula, "decide", budget, &mut tracer, i as u32, root);
            tracer.close(root);
            assert_eq!(replay.condition, report.stats.condition, "{formula}: condition counters");
            assert_eq!(replay.traces_checked, report.stats.traces_checked, "{formula}: sweep");
            let verdict = replay.verdict.expect("structural caps only");
            assert_eq!(
                std::mem::discriminant(&verdict),
                std::mem::discriminant(&report.verdict),
                "{formula}"
            );
            assert!(!replay.prune_disagrees, "{formula}");
            let spans: Vec<&str> = tracer
                .spans
                .iter()
                .filter(|s| s.request == i as u32 && s.layer() == "fixpoint")
                .map(|s| s.name)
                .collect();
            assert_eq!(spans, replay.phases, "{formula}");
            let path = match replay.phases.as_slice() {
                ["fixpoint.evaluated"] => 0,
                ["fixpoint.condition", "fixpoint.from_condition"] => 1,
                ["fixpoint.condition", "fixpoint.evaluated"] => 2,
                other => panic!("{formula}: unexpected phases {other:?}"),
            };
            seen[path] += 1;
        }
        seen
    }

    #[test]
    fn replay_runs_the_phases_the_session_runs() {
        let formulas = distinct_hard_formulas(3, 40);
        // The default caps: routing skips the artifact for the formulas
        // predicted to blow up, and the artifact decides the rest.
        let [skipped, decided, _] = phase_sequences(&formulas, &ResourceBudget::default());
        assert!(skipped > 0 && decided > 0, "{skipped} skipped, {decided} decided");
        // A tight implicant cap: the artifact trips, and the evaluated
        // fixpoint decides instead.
        let tight = ResourceBudget::default().with_max_implicants(2);
        let [_, _, tripped] = phase_sequences(&formulas, &tight);
        assert!(tripped > 0, "no artifact tripped");
    }
}
