//! Differential tests for the semi-naive worklist fixpoint (ISSUE 7).
//!
//! The worklist engine skips equations whose inputs did not change since
//! their last evaluation.  The claim that makes that safe — a skipped
//! equation would have replayed entirely from the memo tables, mutating
//! nothing and charging nothing — is pinned here three ways:
//!
//! * against the PR 5 full-sweep (Jacobi) discipline
//!   ([`condition_of_graph_full_sweep_stats`]): bit-identical conditions,
//!   interned-implicant charges, and budget trip reasons, on random
//!   tableaux and on the pattern catalogue;
//! * against the PR 3 `BTreeSet` oracle ([`condition_of_graph_baseline`]):
//!   same conditions wherever neither path trips;
//! * within the worklist engine itself: strictly positive skip counters on
//!   ladder3 — the regression guard that the engine is not silently falling
//!   back to full sweeps.

use ilogic_temporal::algorithm_b::{
    condition_of_graph_baseline, condition_of_graph_budgeted_stats,
    condition_of_graph_full_sweep_stats, evaluate_condition_at_budgeted_stats,
    evaluate_condition_at_full_sweep_stats, Condition,
};
use ilogic_temporal::patterns;
use ilogic_temporal::pool::{Parallelism, ResourceBudget};
use ilogic_temporal::syntax::Ltl;
use ilogic_temporal::tableau::TableauGraph;
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
/// (nothing to compare then — both fixpoint paths would see the same cut).
fn graph_of(formula: &Ltl, budget: &ResourceBudget) -> Option<TableauGraph> {
    TableauGraph::try_build_budgeted(&formula.clone().not(), budget, Parallelism::Off).ok()
}

/// Evaluates an explicit condition DNF at an atom assignment — the spec the
/// Boolean worklist projection must agree with.
fn dnf_at(condition: &Condition, atom_true: &[bool]) -> bool {
    condition.dnf().implicants().any(|imp| imp.iter().all(|&e| atom_true[e]))
}

/// The full differential check for one graph and one budget: worklist vs
/// full-sweep (conditions, charges, trip reasons), plus the skip-accounting
/// invariants.
fn check_worklist_against_full_sweep(label: &str, graph: &TableauGraph, budget: &ResourceBudget) {
    let (full, full_stats) = condition_of_graph_full_sweep_stats(graph.clone(), budget);
    let (delta, delta_stats) =
        condition_of_graph_budgeted_stats(graph.clone(), budget, Parallelism::Off);
    // Charges are bit-identical to the full sweep on both outcomes: a
    // skipped equation never interns.
    assert_eq!(
        full_stats.interned_implicants, delta_stats.interned_implicants,
        "{label}: implicant charges diverge"
    );
    assert_eq!(
        full_stats.interned_dnfs, delta_stats.interned_dnfs,
        "{label}: interned DNF counts diverge"
    );
    assert_eq!(
        full_stats.peak_dnf_width, delta_stats.peak_dnf_width,
        "{label}: peak widths diverge"
    );
    match (&full, &delta) {
        (Ok(full_cond), Ok(delta_cond)) => {
            assert_eq!(full_cond.dnf(), delta_cond.dnf(), "{label}: conditions diverge");
        }
        (Err(full_cut), Err(delta_cut)) => {
            assert_eq!(full_cut, delta_cut, "{label}: trip reasons diverge");
        }
        (full_outcome, delta_outcome) => panic!(
            "{label}: full sweep {} but worklist {}",
            if full_outcome.is_ok() { "completed" } else { "tripped" },
            if delta_outcome.is_ok() { "completed" } else { "tripped" },
        ),
    }
    // Skip accounting: the worklist never evaluates more than the full
    // sweep, and what it skips is exactly what it chose not to evaluate.
    assert!(
        delta_stats.equations_evaluated <= full_stats.equations_evaluated,
        "{label}: worklist evaluated more equations than the full sweep"
    );
    assert_eq!(full_stats.equations_skipped, 0, "{label}: a full sweep must not report skips");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tableaux, default budget: worklist ≡ full sweep ≡ baseline.
    #[test]
    fn worklist_matches_full_sweep_and_baseline_on_random_tableaux(formula in arb_formula(3)) {
        let budget = ResourceBudget::default();
        let Some(graph) = graph_of(&formula, &budget) else { return Ok(()) };
        check_worklist_against_full_sweep("random", &graph, &budget);
        let baseline = condition_of_graph_baseline(graph.clone(), &budget);
        let (delta, _) = condition_of_graph_budgeted_stats(graph, &budget, Parallelism::Off);
        match (&baseline, &delta) {
            (Ok(base), Ok(worklist)) => {
                prop_assert_eq!(base.dnf(), worklist.dnf(), "baseline and worklist diverge");
                // The baseline now reports its convergence too.
                prop_assert!(base.store_stats().rounds > 0);
                prop_assert_eq!(base.store_stats().equations_skipped, 0);
            }
            (Err(base_cut), Err(delta_cut)) => prop_assert_eq!(base_cut, delta_cut),
            // The interned path completing where the estimate cut gave up is
            // the point of the store rewrite.
            (Err(_), Ok(_)) => {}
            (Ok(_), Err(cut)) => {
                panic!("worklist tripped ({cut}) on a condition the baseline completes")
            }
        }
    }

    /// Random tableaux under random tight implicant caps: the worklist trips
    /// exactly when — and exactly as — the full sweep does.
    #[test]
    fn budget_trips_agree_under_tight_caps(formula in arb_formula(3), cap_raw in any::<u8>()) {
        let cap = usize::from(cap_raw) % 48 + 1;
        let budget = ResourceBudget::default().with_max_implicants(cap);
        let Some(graph) = graph_of(&formula, &budget) else { return Ok(()) };
        check_worklist_against_full_sweep("tight-cap", &graph, &budget);
    }

    /// The Boolean worklist projection agrees with the explicit condition
    /// evaluated at random atom assignments (and with itself on trips).
    #[test]
    fn evaluated_worklist_agrees_with_explicit_condition(
        formula in arb_formula(3),
        seed in any::<u64>(),
    ) {
        let budget = ResourceBudget::default();
        let Some(graph) = graph_of(&formula, &budget) else { return Ok(()) };
        let (explicit, _) =
            condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off);
        let Ok(condition) = explicit else { return Ok(()) };
        let atom_true: Vec<bool> =
            (0..graph.edges().len()).map(|e| (seed >> (e % 64)) & 1 == 1).collect();
        let (evaluated, stats) =
            evaluate_condition_at_budgeted_stats(&graph, &atom_true, &budget);
        let answer = evaluated.expect("structural caps cannot trip the Boolean projection");
        prop_assert_eq!(
            answer,
            dnf_at(&condition, &atom_true),
            "Boolean worklist disagrees with the explicit condition"
        );
        prop_assert!(stats.rounds > 0, "the projection must report its rounds");
        prop_assert_eq!(stats.interned_implicants, 0, "the projection interns nothing");
        // And against the preserved PR 5 Boolean full-sweep path: identical
        // answer, strictly no-skip accounting on the anchor, and the
        // worklist never evaluating more equations than the full sweeps.
        let (anchor, anchor_stats) =
            evaluate_condition_at_full_sweep_stats(&graph, &atom_true, &budget);
        prop_assert_eq!(
            answer,
            anchor.expect("the anchor has the same (absent) trip conditions"),
            "Boolean worklist disagrees with the PR 5 full-sweep anchor"
        );
        prop_assert_eq!(anchor_stats.equations_skipped, 0);
        prop_assert!(stats.equations_evaluated <= anchor_stats.equations_evaluated);
    }
}

/// The pattern catalogue — R3–R5, the eventuality chains, the response
/// ladders — through the full differential harness.
#[test]
fn worklist_matches_full_sweep_on_pattern_formulas() {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    for n in 1..=3 {
        formulas.push((format!("chain{n}"), patterns::eventuality_chain(n)));
    }
    formulas.push(("ladder2".to_string(), patterns::response_ladder(2)));
    formulas.push(("ladder3".to_string(), patterns::response_ladder(3)));
    for (label, formula) in formulas {
        let budget = ResourceBudget::default();
        let graph =
            graph_of(&formula, &budget).unwrap_or_else(|| panic!("{label}: tableau build tripped"));
        check_worklist_against_full_sweep(&label, &graph, &budget);
    }
}

/// Once a component converges it is never re-entered: on ladder3 the
/// worklist engine must actually skip work — strictly positive skip
/// counters, strictly fewer evaluations than the full sweep — while
/// reaching the identical condition.  (The bench-smoke job enforces the
/// same guard on the release build.)
#[test]
fn converged_components_are_skipped_on_ladder3() {
    let budget = ResourceBudget::default();
    let formula = patterns::response_ladder(3);
    let graph = graph_of(&formula, &budget).expect("ladder3 builds under the default budget");
    let (delta, delta_stats) =
        condition_of_graph_budgeted_stats(graph.clone(), &budget, Parallelism::Off);
    let (full, full_stats) = condition_of_graph_full_sweep_stats(graph.clone(), &budget);
    assert_eq!(
        delta.expect("ladder3 fits the default budget").dnf(),
        full.expect("ladder3 fits the default budget").dnf(),
    );
    assert!(
        delta_stats.equations_skipped > 0,
        "ladder3 must exercise the skip path, got {delta_stats:?}"
    );
    assert!(
        delta_stats.equations_evaluated < full_stats.equations_evaluated,
        "the worklist must evaluate strictly less than the full sweep \
         ({} vs {})",
        delta_stats.equations_evaluated,
        full_stats.equations_evaluated,
    );
    // The Boolean projection skips on the same structure.  (The all-false
    // assignment forces real iteration — at all-true every equation is
    // trivially ⊤ and each phase converges in its seed round.)
    let atom_true = vec![false; graph.edges().len()];
    let (answer, eval_stats) = evaluate_condition_at_budgeted_stats(&graph, &atom_true, &budget);
    assert!(
        eval_stats.equations_skipped > 0,
        "the Boolean worklist must skip on ladder3 too, got {eval_stats:?}"
    );
    let (anchor, anchor_stats) =
        evaluate_condition_at_full_sweep_stats(&graph, &atom_true, &budget);
    assert_eq!(answer.unwrap(), anchor.unwrap(), "Boolean worklist vs PR 5 anchor on ladder3");
    assert!(
        eval_stats.equations_evaluated < anchor_stats.equations_evaluated,
        "the Boolean worklist must evaluate strictly less than the PR 5 sweeps ({} vs {})",
        eval_stats.equations_evaluated,
        anchor_stats.equations_evaluated,
    );
}
