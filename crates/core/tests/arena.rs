//! Arena coverage: `extract(intern(f)) == f` round-trips over the parser's
//! corpus and over randomly generated formulas, interning the V1–V16 catalogue
//! shares subterms (hash-consing actually deduplicates), and the memoized
//! arena evaluator agrees with the reference semantics on finite traces and
//! lassos, with the trace's own and with an explicit quantifier domain.

use proptest::prelude::*;

use ilogic_core::arena::{FormulaArena, MemoEvaluator};
use ilogic_core::dsl::*;
use ilogic_core::parser::parse_formula;
use ilogic_core::prelude::*;
use ilogic_core::valid;

/// The shared concrete-syntax corpus (every grammar production), re-exported
/// from the parser so all suites exercise the same formulas.
const PARSER_CORPUS: &[&str] = ilogic_core::parser::CORPUS;

#[test]
fn parser_corpus_round_trips_through_the_arena() {
    let mut arena = FormulaArena::new();
    for source in PARSER_CORPUS {
        let formula = parse_formula(source).unwrap_or_else(|e| panic!("corpus `{source}`: {e}"));
        let id = arena.intern(&formula);
        assert_eq!(
            arena.extract(id),
            formula,
            "extract(intern(f)) differs from f for corpus entry `{source}`"
        );
        // Interning the extraction lands on the same id (idempotence).
        let again = arena.intern(&arena.extract(id));
        assert_eq!(id, again, "re-interning `{source}` produced a different id");
    }
}

#[test]
fn catalogue_interning_shares_subterms() {
    let mut arena = FormulaArena::new();
    let catalogue = valid::catalogue();
    let boxed_nodes: usize = catalogue.iter().map(|(_, f)| f.size()).sum();
    let ids: Vec<_> = catalogue.iter().map(|(_, f)| arena.intern(f)).collect();

    // Round-trip and id stability for every schema.
    for ((name, formula), id) in catalogue.iter().zip(&ids) {
        assert_eq!(&arena.extract(*id), formula, "{name} does not round-trip");
        assert_eq!(arena.intern(formula), *id, "{name} re-interns to a new id");
    }

    // Hash-consing must make the arena strictly smaller than the sum of the
    // boxed trees: the catalogue reuses P, Q and the A/B/C events throughout.
    let arena_nodes = arena.formula_count() + arena.term_count();
    assert!(
        arena_nodes < boxed_nodes / 2,
        "expected substantial sharing: {arena_nodes} arena nodes vs {boxed_nodes} boxed nodes"
    );

    // The common `A => B` term is literally the same id wherever it occurs.
    let ab = arena.intern_term(&fwd(event(prop("A")), event(prop("B"))));
    let ab_again = arena.intern_term(&fwd(event(prop("A")), event(prop("B"))));
    assert_eq!(ab, ab_again);
}

fn arb_term(depth: u32) -> BoxedStrategy<IntervalTerm> {
    let leaf = prop_oneof![
        Just(event(prop("A"))),
        Just(event(prop("B"))),
        Just(event(prop("A").and(prop("C")))),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| fwd(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| bwd(a, b)),
            inner.clone().prop_map(fwd_from),
            inner.clone().prop_map(fwd_to),
            inner.clone().prop_map(begin),
            inner.clone().prop_map(end),
            inner.clone().prop_map(must),
        ]
    })
    .boxed()
}

fn arb_formula(depth: u32) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        Just(prop("A")),
        Just(prop("B")),
        Just(prop("C")),
        Just(prop_args("atEnq", [var("a")])),
        Just(cmp(Expr::StateVar("n".into()), CmpOp::Le, Expr::DataVar("a".into()))),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(depth, 24, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Formula::always),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(|f| f.forall("a")),
            inner.clone().prop_map(|f| f.exists("a")),
            (arb_term(2), inner.clone()).prop_map(|(t, f)| f.within(t)),
        ]
    })
    .boxed()
}

/// Finite traces and lassos (any loop start) over `A`, `B` and `C`, with a
/// parameterized `atEnq` at even positions and an integer state variable `n`.
fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    let row = (proptest::collection::vec(any::<bool>(), 3), any::<u8>());
    (proptest::collection::vec(row, 1..=max_len), any::<bool>(), any::<usize>()).prop_map(
        |(rows, lasso, loop_start)| {
            let len = rows.len();
            let states = rows
                .into_iter()
                .enumerate()
                .map(|(i, (row, n))| {
                    let mut s = State::new();
                    for (p, held) in ["A", "B", "C"].iter().zip(row) {
                        if held {
                            s.insert(Prop::plain(*p));
                        }
                    }
                    if i % 2 == 0 {
                        s = s.with_args("atEnq", [i as i64]);
                    }
                    s.with_var("n", i64::from(n % 3))
                })
                .collect();
            if lasso {
                Trace::lasso(states, loop_start % len)
            } else {
                Trace::finite(states)
            }
        },
    )
}

/// An explicit quantifier domain: some of the values the traces hold, and
/// some they never do.
fn arb_domain() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(any::<u8>(), 0..=3)
        .prop_map(|values| values.into_iter().map(|v| Value::Int(i64::from(v % 6))).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The intern/extract bridge is lossless on arbitrary formulas.
    #[test]
    fn intern_extract_round_trips(formula in arb_formula(3)) {
        let mut arena = FormulaArena::new();
        let id = arena.intern(&formula);
        prop_assert_eq!(arena.extract(id), formula);
    }

    /// Structural equality coincides with id equality within one arena.
    #[test]
    fn equal_formulas_get_equal_ids(formula in arb_formula(3)) {
        let mut arena = FormulaArena::new();
        let id1 = arena.intern(&formula);
        let id2 = arena.intern(&formula.clone());
        prop_assert_eq!(id1, id2);
    }

    /// The memoized arena evaluator computes exactly the reference semantics.
    #[test]
    fn memo_evaluator_matches_reference(formula in arb_formula(3), trace in arb_trace(5)) {
        let mut arena = FormulaArena::new();
        let id = arena.intern(&formula);
        let mut memo = MemoEvaluator::new(&arena);
        let reference = Evaluator::new(&trace);
        prop_assert_eq!(
            memo.check(&trace, id),
            reference.check(&formula),
            "disagreement on {} over {}", formula, trace
        );
    }

    /// The same with an explicit quantifier domain.
    #[test]
    fn memo_evaluator_matches_reference_with_domain(
        formula in arb_formula(3),
        trace in arb_trace(5),
        domain in arb_domain(),
    ) {
        let mut arena = FormulaArena::new();
        let id = arena.intern(&formula);
        let mut memo = MemoEvaluator::new(&arena).with_domain(domain.clone());
        let reference = Evaluator::with_domain(&trace, domain.clone());
        prop_assert_eq!(
            memo.check(&trace, id),
            reference.check(&formula),
            "disagreement on {} over {} with domain {:?}", formula, trace, domain
        );
    }

    /// Checking several formulas in one pass answers as separate checks do.
    #[test]
    fn check_all_matches_separate_checks(
        formulas in proptest::collection::vec(arb_formula(3), 1..=4),
        trace in arb_trace(5),
    ) {
        let mut arena = FormulaArena::new();
        let ids: Vec<_> = formulas.iter().map(|f| arena.intern(f)).collect();
        let separate: Vec<bool> =
            ids.iter().map(|&id| MemoEvaluator::new(&arena).check(&trace, id)).collect();
        let mut memo = MemoEvaluator::new(&arena);
        prop_assert_eq!(
            memo.check_all(&trace, ids.iter().copied()),
            separate,
            "disagreement on {:?} over {}", formulas, trace
        );
    }
}
