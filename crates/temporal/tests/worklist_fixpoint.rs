//! Differential tests for the §5.3 fixpoint engine, against independent
//! oracles.
//!
//! One semi-naive worklist driver runs the fixpoint over two lattices: the
//! interned condition DNFs and the Booleans at an atom assignment.  Neither
//! instance is checked against the other; both are pinned here:
//!
//! * the Boolean instance ([`evaluate_condition_at_budgeted_stats`]) equals
//!   the PR 3 `BTreeSet` condition ([`condition_of_graph_baseline`])
//!   evaluated at the same assignment — at random assignments and at the two
//!   a decision uses (the `T`-unsatisfiable edges, and all-true);
//! * the DNF instance ([`condition_of_graph_budgeted_stats`]) under implicant
//!   caps 1..=48 either computes the uncapped condition or reports
//!   [`Exhaustion::Implicants`], repeats its counters exactly, and never
//!   trips at a larger cap after completing at a smaller one;
//! * on ladder3 both instances actually skip equations, and the DNF instance
//!   evaluates fewer of them than the baseline's full sweeps;
//! * on `Graph(¬U(Q, □Q))`, whose `fail` phase needs a second round before
//!   `delete(init)` is right, both instances equal the baseline — the DNF
//!   exactly, the Boolean instance at every assignment.

use ilogic_temporal::algorithm_b::{
    condition_of_graph_baseline, condition_of_graph_budgeted_stats,
    evaluate_condition_at_budgeted_stats, Condition,
};
use ilogic_temporal::patterns;
use ilogic_temporal::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic_temporal::syntax::Ltl;
use ilogic_temporal::tableau::TableauGraph;
use ilogic_temporal::theory::{PropositionalTheory, Theory};
use proptest::prelude::*;

/// Random pure-temporal formulas over a two-proposition alphabet — deep
/// enough to produce multi-node SCCs and several eventualities, the regime
/// where skipping matters.
fn arb_formula(depth: u32) -> BoxedStrategy<Ltl> {
    let leaf =
        prop_oneof![Just(Ltl::prop("P")), Just(Ltl::prop("Q")), Just(Ltl::True), Just(Ltl::False),];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Ltl::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Ltl::next),
            inner.clone().prop_map(Ltl::always),
            inner.clone().prop_map(Ltl::eventually),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.until(b)),
        ]
    })
    .boxed()
}

/// `Graph(¬formula)` under `budget`, or `None` when the build itself trips
/// (nothing to compare then).
fn graph_of(formula: &Ltl, budget: &ResourceBudget) -> Option<TableauGraph> {
    TableauGraph::try_build_budgeted(&formula.clone().not(), budget, Parallelism::Off).ok()
}

/// The pattern catalogue: the §6 measurement table, the eventuality chains
/// and the response ladders.
fn pattern_graphs() -> Vec<(String, TableauGraph)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    for n in 1..=3 {
        formulas.push((format!("chain{n}"), patterns::eventuality_chain(n)));
    }
    formulas.push(("ladder2".to_string(), patterns::response_ladder(2)));
    formulas.push(("ladder3".to_string(), patterns::response_ladder(3)));
    formulas
        .into_iter()
        .map(|(label, formula)| {
            let graph = graph_of(&formula, &ResourceBudget::default())
                .unwrap_or_else(|| panic!("{label}: tableau build tripped"));
            (label, graph)
        })
        .collect()
}

/// Evaluates an explicit condition DNF at an atom assignment.
fn dnf_at(condition: &Condition, atom_true: &[bool]) -> bool {
    condition.dnf().implicants().any(|imp| imp.iter().all(|&e| atom_true[e]))
}

/// The assignments a decision evaluates at — each edge true iff its label
/// is unsatisfiable under [`PropositionalTheory`], and all-true — plus the
/// all-false one and pseudo-random ones drawn from `seed`.
fn assignments(graph: &TableauGraph, seed: u64) -> Vec<Vec<bool>> {
    let theory = PropositionalTheory::new();
    let unsat = graph.edges().iter().map(|e| !theory.satisfiable(&e.literals).is_sat()).collect();
    let ne = graph.edge_count();
    let mut out = vec![unsat, vec![true; ne], vec![false; ne]];
    let mut x = seed | 1;
    for _ in 0..4 {
        out.push(
            (0..ne)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 3 == 0
                })
                .collect(),
        );
    }
    out
}

/// Both instances against the `BTreeSet` baseline computed under
/// `baseline_budget`, the instances themselves running under the default
/// budget:
///
/// * the DNF instance computes the baseline's condition wherever both
///   complete;
/// * the Boolean instance equals the baseline condition at every assignment
///   of [`assignments`];
/// * under every cap in 1..=48 the DNF instance computes its uncapped
///   condition or trips on implicants, gives identical counters on a second
///   run, and completes at twice every cap it completes at.
fn check_graph(label: &str, graph: &TableauGraph, baseline_budget: &ResourceBudget, seed: u64) {
    let budget = ResourceBudget::default();
    let (reference, _) =
        condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off);
    let baseline = condition_of_graph_baseline(graph.clone(), baseline_budget);
    match (&baseline, &reference) {
        (Ok(base), Ok(condition)) => {
            assert_eq!(base.dnf(), condition.dnf(), "{label}: worklist and baseline diverge");
            // The baseline reports its convergence too.
            assert!(base.store_stats().rounds > 0, "{label}: baseline rounds");
            assert_eq!(base.store_stats().equations_skipped, 0, "{label}: baseline skips");
        }
        (Err(base_cut), Err(cut)) => assert_eq!(base_cut, cut, "{label}: trip reasons diverge"),
        // The interned path completing where the estimate cut gave up is
        // the point of the store.
        (Err(_), Ok(_)) => {}
        (Ok(_), Err(cut)) => {
            panic!("{label}: worklist tripped ({cut}) on a condition the baseline completes")
        }
    }
    if let Ok(baseline) = &baseline {
        for (i, atom_true) in assignments(graph, seed).iter().enumerate() {
            let (answer, stats) = evaluate_condition_at_budgeted_stats(graph, atom_true, &budget);
            let answer = answer.expect("structural caps cannot trip the Boolean fixpoint");
            assert_eq!(
                answer,
                dnf_at(baseline, atom_true),
                "{label}: Boolean fixpoint disagrees with the baseline at assignment {i}"
            );
            assert!(stats.rounds > 0, "{label}: the Boolean fixpoint must report its rounds");
            assert_eq!(stats.interned_implicants, 0, "{label}: the Boolean fixpoint interns");
        }
    }
    let Ok(reference) = reference else { return };
    let run = |cap: usize| {
        let budget = ResourceBudget::default().with_max_implicants(cap);
        condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off)
    };
    for cap in 1..=48 {
        let (outcome, stats) = run(cap);
        let (again, again_stats) = run(cap);
        assert_eq!(stats, again_stats, "{label}: counters differ between runs at cap {cap}");
        match (&outcome, &again) {
            (Ok(condition), Ok(repeat)) => {
                assert_eq!(condition.dnf(), reference.dnf(), "{label}: cap {cap} condition");
                assert_eq!(repeat.dnf(), reference.dnf(), "{label}: cap {cap} repeat");
                let (doubled, _) = run(2 * cap);
                let doubled = doubled.unwrap_or_else(|cut| {
                    panic!("{label}: completes at cap {cap} but trips ({cut}) at {}", 2 * cap)
                });
                assert_eq!(doubled.dnf(), reference.dnf(), "{label}: cap {} condition", 2 * cap);
            }
            (Err(cut), Err(repeat)) => {
                assert_eq!(*cut, Exhaustion::Implicants, "{label}: cap {cap} trips on {cut}");
                assert_eq!(cut, repeat, "{label}: cap {cap} trip reasons differ between runs");
            }
            _ => panic!("{label}: cap {cap} completes on only one of two runs"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tableaux through [`check_graph`], the baseline under the
    /// default budget.
    #[test]
    fn both_lattices_match_the_oracles_on_random_tableaux(
        formula in arb_formula(3),
        seed in any::<u64>(),
    ) {
        let budget = ResourceBudget::default();
        let Some(graph) = graph_of(&formula, &budget) else { return Ok(()) };
        check_graph("random", &graph, &budget, seed);
    }
}

/// The pattern catalogue through [`check_graph`].  The baseline runs
/// unbudgeted: its pre-absorption estimate trips ladder3 at the default cap
/// although the computation finishes in milliseconds.
#[test]
fn both_lattices_match_the_oracles_on_pattern_formulas() {
    for (label, graph) in pattern_graphs() {
        check_graph(&label, &graph, &ResourceBudget::unbounded(), 9001);
    }
}

/// Once a component converges it is never re-entered: on ladder3 both
/// lattices skip equations, and the DNF instance evaluates fewer of them
/// than the baseline's full sweeps while reaching the same condition.
#[test]
fn converged_components_are_skipped_on_ladder3() {
    let budget = ResourceBudget::default();
    let graph = graph_of(&patterns::response_ladder(3), &budget)
        .expect("ladder3 builds under the default budget");
    let (condition, stats) =
        condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off);
    let baseline = condition_of_graph_baseline(graph.clone(), &ResourceBudget::unbounded())
        .expect("the unbudgeted baseline completes ladder3");
    assert_eq!(condition.expect("ladder3 fits the default budget").dnf(), baseline.dnf());
    assert!(stats.equations_skipped > 0, "ladder3 must exercise the skip path, got {stats:?}");
    let naive = baseline.store_stats().equations_evaluated;
    assert!(
        stats.equations_evaluated < naive,
        "the worklist must evaluate fewer equations than the baseline ({} vs {naive})",
        stats.equations_evaluated,
    );
    // The all-false assignment forces real iteration: at all-true every
    // equation is trivially true and each phase converges in its seed round.
    let atoms_false = vec![false; graph.edge_count()];
    let (_, eval_stats) = evaluate_condition_at_budgeted_stats(&graph, &atoms_false, &budget);
    assert!(
        eval_stats.equations_skipped > 0,
        "the Boolean fixpoint must skip on ladder3 too, got {eval_stats:?}"
    );
}

/// A worklist must re-enqueue the readers of a changed value until nothing
/// changes.  `Graph(¬U(Q, □Q))` (4 nodes, 11 edges, the eventuality `◇¬Q`)
/// is a fixed graph on which one round per phase is not enough: the
/// `fail(◇¬Q)` values of the component {0, 3} only settle in a second round,
/// and a driver that stops after the first adds the implicants
/// `{0,1,2,7,9,10}`, `{0,2,5,7,10}` and `{2,4,10}` to `delete(init)`, all
/// through the self-loop at node 3 that never fulfills `◇¬Q`.  Both lattices
/// must still equal the baseline: the DNF instance's condition exactly, and
/// the Boolean instance at all 2¹¹ assignments.
#[test]
fn a_second_round_changes_delete_init() {
    let budget = ResourceBudget::default();
    let q = Ltl::prop("Q");
    let graph = graph_of(&q.clone().until(q.always()), &budget).expect("a four-node tableau");
    assert_eq!((graph.node_count(), graph.edge_count()), (4, 11));
    let baseline = condition_of_graph_baseline(graph.clone(), &budget).expect("baseline completes");
    assert_eq!(baseline.dnf().implicants().count(), 6);
    let (condition, _) =
        condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off);
    assert_eq!(condition.expect("fits the default budget").dnf(), baseline.dnf());
    let ne = graph.edge_count();
    for bits in 0u32..1 << ne {
        let atom_true: Vec<bool> = (0..ne).map(|e| bits & (1 << e) != 0).collect();
        let (answer, _) = evaluate_condition_at_budgeted_stats(&graph, &atom_true, &budget);
        assert_eq!(
            answer.expect("structural caps cannot trip the Boolean fixpoint"),
            dnf_at(&baseline, &atom_true),
            "Boolean fixpoint disagrees with the baseline at {bits:011b}"
        );
    }
}
