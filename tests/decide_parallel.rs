//! Parallel/sequential consistency of the `Decide` backend and the temporal
//! decision engines behind it.
//!
//! `Decide` verdicts — `Holds`, the concrete counterexample computation, and
//! `Unknown` (outside the fragment or under budget) alike — must be
//! *identical* whatever the worker count, over the shared parser corpus and
//! the V1–V16 valid-formula catalogue, for `Parallelism::Fixed(1..=4)`: the
//! refutation sweep is the one phase that fans out.  The tableau, its prune
//! and the propositional `AlgorithmB` decisions run on the calling thread
//! whatever the setting, so the remaining tests check them once, with a pool
//! configured, on the Appendix B pattern formulas.

use ilogic::core::dsl::*;
use ilogic::core::parser::{parse_formula, CORPUS};
use ilogic::core::pool::Parallelism;
use ilogic::core::pool::ResourceBudget;
use ilogic::core::prelude::*;
use ilogic::core::valid;
use ilogic::temporal::algorithm_b::{AlgorithmB, Decision};
use ilogic::temporal::patterns;
use ilogic::temporal::prelude::{valid_pure, Ltl, PropositionalTheory, VarSpec};
use ilogic::temporal::tableau::{prune, TableauGraph};
use ilogic::{CheckRequest, Session};

/// Every interval-logic formula the suite sweeps through `Session::decide`:
/// the full parser corpus plus the catalogue.
fn all_formulas() -> Vec<(String, Formula)> {
    CORPUS
        .iter()
        .map(|source| {
            (source.to_string(), parse_formula(source).unwrap_or_else(|e| panic!("{source}: {e}")))
        })
        .chain(valid::catalogue().into_iter().map(|(name, f)| (name.to_string(), f)))
        .collect()
}

/// One `Decide` check of `formula` at the given parallelism.
fn decide_check(formula: &Formula, parallelism: Parallelism) -> ilogic::CheckReport {
    Session::new().check(CheckRequest::new(formula.clone()).decide().with_parallelism(parallelism))
}

/// The temporal-layer pattern formulas: the Appendix B §6 measurement table
/// plus small instances of the synthetic scaling families.
fn pattern_formulas() -> Vec<(String, Ltl)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    for n in 1..=3 {
        formulas.push((format!("chain{n}"), patterns::eventuality_chain(n)));
    }
    for n in 2..=3 {
        formulas.push((format!("ladder{n}"), patterns::response_ladder(n)));
    }
    formulas
}

/// The hard `[ => α ] []β` family and its `~[ => α ] <>β` dual as the LTL
/// images `Decide` translates them to, with the node and edge counts of the
/// `Graph(¬B)` each decision builds.  These are the largest tableaux of the
/// benchmark's `decide_heavy` workload, so the counts are pinned: a change
/// that moves them changes the measured work.
fn hard_family() -> Vec<(String, Ltl, usize, usize)> {
    use ilogic::core::ltl_translate::to_ltl;
    let p_or_q = || prop("p").or(prop("q"));
    [
        ("[ => p ] [](p | q)", always(p_or_q()).within(fwd_to(event(prop("p")))), 31, 303),
        ("[ => r ] [](p | q)", always(p_or_q()).within(fwd_to(event(prop("r")))), 33, 410),
        ("~[ => p ] <>q", not(eventually(prop("q")).within(fwd_to(event(prop("p"))))), 7, 36),
    ]
    .into_iter()
    .map(|(name, formula, nodes, edges)| {
        (name.to_string(), to_ltl(&formula).expect("translatable"), nodes, edges)
    })
    .collect()
}

#[test]
fn hard_family_graph_sizes_are_pinned() {
    for (label, formula, nodes, edges) in hard_family() {
        let graph = TableauGraph::try_build_budgeted(
            &formula.not(),
            &ResourceBudget::default(),
            Parallelism::Off,
        )
        .expect("within the default caps");
        assert_eq!((graph.node_count(), graph.edge_count()), (nodes, edges), "{label}");
    }
}

/// `Session::decide` over the corpus and catalogue: every worker count
/// returns the sequential verdict, counterexample traces included.
#[test]
fn decide_backend_verdicts_are_worker_count_independent() {
    for (label, formula) in all_formulas() {
        let sequential = decide_check(&formula, Parallelism::Off);
        for workers in 1..=4 {
            let parallel = decide_check(&formula, Parallelism::Fixed(workers));
            assert_eq!(
                parallel.verdict, sequential.verdict,
                "decide({workers}) and sequential verdicts differ on {label}"
            );
        }
    }
}

/// The tableau build ignores its `Parallelism` argument: the graph — node
/// ids, edge ids, edge contents, labels — is the same whatever is passed,
/// and its pruned graph keeps the initial node alive exactly when the
/// negated formula is satisfiable, on the pattern formulas and the hard
/// family.
#[test]
fn parallel_tableau_graphs_are_bit_identical() {
    let hard = hard_family().into_iter().map(|(label, formula, _, _)| (label, formula));
    for (label, formula) in pattern_formulas().into_iter().chain(hard) {
        let build = |parallelism| {
            TableauGraph::try_build_budgeted(
                &formula.clone().not(),
                &ResourceBudget::default(),
                parallelism,
            )
        };
        match (build(Parallelism::Off), build(Parallelism::Fixed(2))) {
            (Err(seq_cut), Err(par_cut)) => assert_eq!(seq_cut, par_cut, "{label}"),
            (Ok(seq), Ok(par)) => {
                assert_eq!(seq.node_count(), par.node_count(), "{label}");
                assert_eq!(seq.edges(), par.edges(), "{label}");
                for node in 0..seq.node_count() {
                    assert_eq!(seq.label(node), par.label(node), "{label} node {node}");
                }
                let pruned = prune(&seq, &PropositionalTheory::new());
                assert_eq!(
                    pruned.node_alive(seq.initial()),
                    !valid_pure(&formula),
                    "{label}: the pruned graph disagrees with the Iter check"
                );
            }
            _ => panic!("{label}: budget answers diverge"),
        }
    }
}

/// The budgeted condition fixpoint: `AlgorithmB::decide_budgeted` answers —
/// including the named exhaustion on a budget trip — are the same whether
/// or not the algorithm carries a worker pool, both with the default budget
/// and with a tight one that trips.  These propositional formulas never
/// reach the selection search, the one phase the pool serves.
#[test]
fn budgeted_algorithm_b_decisions_are_worker_count_independent() {
    let theory = PropositionalTheory::new();
    let budgets = [ResourceBudget::default(), ResourceBudget::default().with_max_implicants(2)];
    for (label, formula) in pattern_formulas() {
        for budget in &budgets {
            let sequential =
                AlgorithmB::new(&theory, VarSpec::all_state()).decide_budgeted(&formula, budget);
            let parallel = AlgorithmB::new(&theory, VarSpec::all_state())
                .with_parallelism(Parallelism::Fixed(2))
                .decide_budgeted(&formula, budget);
            assert_eq!(
                parallel,
                sequential,
                "{label}: budgeted decision (max_implicants {}) diverges",
                budget.max_implicants()
            );
        }
    }
}

/// The unbudgeted procedure, carrying a worker pool, agrees with the ground
/// truth of the `Iter` tableau check on the measurement-table formulas.
#[test]
fn parallel_algorithm_b_agrees_with_iter_on_the_measurement_table() {
    let theory = PropositionalTheory::new();
    for (label, formula) in patterns::appendix_b_table() {
        let expected = if valid_pure(&formula) { Decision::Valid } else { Decision::NotValid };
        let decision = AlgorithmB::new(&theory, VarSpec::all_state())
            .with_parallelism(Parallelism::Fixed(2))
            .decide(&formula);
        assert_eq!(decision, expected, "{label}");
    }
}

/// The measured `[ => Q ] []P` blowup, after the condition-store rewrite
/// (ISSUE 5): the *decision* now settles — `NotValid` via the evaluated
/// (Boolean-projected) fixpoint, in milliseconds — while the *explicit
/// condition* artifact still exceeds any practical distinct-implicant budget
/// and must trip it deterministically.
#[test]
fn prefix_invariance_budget_trip_is_worker_count_independent() {
    use ilogic::core::ltl_translate::to_ltl;
    let invalid_formula = always(prop("P")).within(fwd_to(event(prop("Q"))));
    let ltl = to_ltl(&invalid_formula).unwrap();
    let theory = PropositionalTheory::new();
    let at =
        |parallelism| AlgorithmB::new(&theory, VarSpec::all_state()).with_parallelism(parallelism);
    for parallelism in [Parallelism::Off, Parallelism::Fixed(2)] {
        let started = std::time::Instant::now();
        assert_eq!(
            at(parallelism).decide_budgeted(&ltl, &ResourceBudget::default()),
            Ok(Decision::NotValid),
            "the evaluated fixpoint must refute at {parallelism:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "the decision must stay fast"
        );
    }
    let algorithm = at(Parallelism::Fixed(2));
    let started = std::time::Instant::now();
    assert_eq!(
        algorithm.condition_budgeted(&ltl, &ResourceBudget::default()).err(),
        Some(ilogic::core::pool::Exhaustion::Implicants),
        "the explicit condition must trip its budget"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "the condition budget must trip fast"
    );
}
