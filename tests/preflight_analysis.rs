//! Differential tests for the pre-flight analysis pass (`ilogic_core::analysis`)
//! and the `Backend::Auto` routing built on it:
//!
//! * linter/semantics agreement — a formula the ⊥-propagation lint calls
//!   tautological (`L007`) must pass an exhaustive bounded sweep, and one it
//!   calls contradictory (`L006`) must be refuted by it, over every formula
//!   of the shared parser corpus and the V1–V16 catalogue;
//! * routing identity — `Backend::Auto` verdicts are bit-identical to the
//!   hand-routed backend (`session::auto_backend`) at every scheduler worker
//!   count `Fixed(1..=4)`;
//! * `Auto` decides the whole catalogue and the seed system specifications
//!   without ever producing a spurious counterexample;
//! * the estimator flags the `[ =>Q ] []P` prefix-invariance family as
//!   artifact-intractable *without* building a tableau or DNF (microseconds,
//!   not minutes);
//! * no formula of the generator's seed-9001 reference populations trips
//!   the default implicant cap without a predicted blowup.

use proptest::prelude::*;
use proptest::sample::Index;

use ilogic::core::analysis::{self, analyze_formula, DiagnosticCode};
use ilogic::core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic::core::ltl_translate::to_ltl;
use ilogic::core::parser::{parse_formula, CORPUS};
use ilogic::core::session::auto_backend;
use ilogic::core::valid;
use ilogic::temporal::algorithm_b::condition_of_graph_budgeted_stats;
use ilogic::temporal::tableau::TableauGraph;
use ilogic::{
    CheckReport, CheckRequest, Exhaustion, Parallelism, ResourceBudget, Session, Verdict,
};
use ilogic_core::syntax::Formula;

/// Every formula the suite sweeps: the full parser corpus plus the catalogue.
fn all_formulas() -> Vec<(String, Formula)> {
    CORPUS
        .iter()
        .map(|source| {
            (source.to_string(), parse_formula(source).unwrap_or_else(|e| panic!("{source}: {e}")))
        })
        .chain(valid::catalogue().into_iter().map(|(name, f)| (name.to_string(), f)))
        .collect()
}

/// An exhaustive depth-1 bounded verdict over the formula's own propositions
/// — the ground truth the lints are checked against.
fn bounded_verdict(formula: &Formula) -> Verdict {
    let props = analysis::proposition_names(formula);
    let session = Session::new();
    session.check(CheckRequest::new(formula.clone()).bounded(props, 1)).verdict
}

/// `f ∧ ¬f` must be flagged contradictory and refuted by the sweep; `f ∨ ¬f`
/// must be flagged tautological and survive it — for *every* corpus and
/// catalogue formula `f`, however complex.
#[test]
fn complementary_constructions_agree_with_bounded_semantics() {
    for (label, f) in all_formulas() {
        let contradiction = f.clone().and(f.clone().not());
        let analysis = analyze_formula(&contradiction);
        assert!(
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Contradictory),
            "{label}: f & ~f not flagged L006"
        );
        assert!(
            matches!(bounded_verdict(&contradiction), Verdict::Counterexample(_)),
            "{label}: f & ~f not refuted by the bounded sweep"
        );

        let tautology = f.clone().or(f.clone().not());
        let analysis = analyze_formula(&tautology);
        assert!(
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Tautological),
            "{label}: f | ~f not flagged L007"
        );
        assert!(
            matches!(bounded_verdict(&tautology), Verdict::ValidUpTo(_)),
            "{label}: f | ~f refuted by the bounded sweep"
        );
    }
}

/// Whenever the linter *does* flag a plain corpus/catalogue formula, the
/// bounded sweep must agree — `L007` formulas pass, `L006` formulas are
/// refuted.  (Most corpus formulas are flagged neither way; the lint is
/// conservative.)
#[test]
fn lint_verdicts_are_sound_over_the_corpus_and_catalogue() {
    for (label, f) in all_formulas() {
        let analysis = analyze_formula(&f);
        let tautological =
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Tautological);
        let contradictory =
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Contradictory);
        if tautological {
            assert!(
                matches!(bounded_verdict(&f), Verdict::ValidUpTo(_)),
                "{label}: flagged tautological but refuted"
            );
        }
        if contradictory {
            assert!(
                matches!(bounded_verdict(&f), Verdict::Counterexample(_)),
                "{label}: flagged contradictory but not refuted"
            );
        }
    }
}

/// The deterministic portion of two reports must agree exactly; durations
/// and the `Auto` report's extra `R001` routing record aside.
fn assert_routed_identical(auto: &CheckReport, manual: &CheckReport, label: &str) {
    assert_eq!(auto.verdict, manual.verdict, "{label}: verdict");
    assert_eq!(auto.backend, manual.backend, "{label}: backend");
    assert_eq!(auto.failing_index, manual.failing_index, "{label}: failing index");
    assert_eq!(auto.counterexample(), manual.counterexample(), "{label}: counterexample");
    assert_eq!(auto.stats.traces_checked, manual.stats.traces_checked, "{label}: traces");
    assert_eq!(auto.stats.memo, manual.stats.memo, "{label}: memo counters");
    assert_eq!(auto.stats.estimate, manual.stats.estimate, "{label}: estimate");
}

/// `Backend::Auto` is nothing but `auto_backend` applied at prepare time:
/// its verdicts (and every deterministic statistic) are bit-identical to a
/// request that hand-picks the routed backend and budget, at every scheduler
/// worker count.
#[test]
fn auto_is_bit_identical_to_the_hand_routed_backend() {
    // A reduced enumeration cap keeps the deepest routed `Bounded` sweeps
    // small; routing reads the cap, so both sides shrink identically.
    let budget = ResourceBudget::default().with_max_enumeration(10_000);
    let formulas = all_formulas();
    // The reference: hand-routed requests, sequential single-threaded loop.
    let reference = Session::new();
    let manual: Vec<CheckReport> = formulas
        .iter()
        .map(|(_, f)| {
            let estimate = analyze_formula(f).estimate;
            let (backend, routed_budget) = auto_backend(f, &estimate, &budget);
            reference.check(
                CheckRequest::new(f.clone())
                    .with_backend(backend)
                    .with_budget(routed_budget)
                    .with_parallelism(Parallelism::Off),
            )
        })
        .collect();
    for workers in 1..=4 {
        let session = Session::new().with_parallelism(Parallelism::Fixed(workers));
        let auto = session.check_many(
            formulas
                .iter()
                .map(|(_, f)| CheckRequest::new(f.clone()).auto().with_budget(budget.clone()))
                .collect(),
        );
        for (((label, _), auto), manual) in formulas.iter().zip(&auto).zip(&manual) {
            assert_routed_identical(auto, manual, &format!("{label} (workers={workers})"));
            assert!(
                auto.diagnostics.iter().any(|d| d.code == DiagnosticCode::Routed),
                "{label}: auto report lacks the R001 routing record"
            );
        }
    }
}

/// `Auto` decides the whole V1–V16 catalogue under the default budget: the
/// translatable schemata settle as `Holds` through `Decide`, the rest pass
/// their routed bounded sweep — never a spurious counterexample, never an
/// `Unknown`.
#[test]
fn auto_decides_the_full_catalogue() {
    let session = Session::new();
    let reports = session.check_many(
        valid::catalogue().into_iter().map(|(_, f)| CheckRequest::new(f).auto()).collect(),
    );
    for ((name, _), report) in valid::catalogue().iter().zip(&reports) {
        match (&report.verdict, report.backend) {
            (Verdict::Holds, "decide") | (Verdict::ValidUpTo(_), "bounded") => {}
            other => panic!("{name}: unexpected auto outcome {other:?}"),
        }
    }
    // The decidable fragment is actually exercised: at least V7 routes there.
    assert!(reports.iter().any(|r| r.backend == "decide"), "no catalogue entry routed to decide");
}

/// `Auto` handles every clause of the seed system specifications (closed, as
/// `check_spec` closes them) with verdicts identical to the hand-routed
/// backend.
#[test]
fn auto_routes_the_seed_system_specs() {
    use ilogic::systems::specs;
    let specs = [
        specs::unreliable_queue_spec(),
        specs::request_ack_spec("R", "A"),
        specs::ab_sender_spec(),
        specs::mutual_exclusion_spec(),
    ];
    let budget = ResourceBudget::default().with_max_enumeration(10_000);
    for spec in &specs {
        for clause in spec.clauses() {
            let closed = ilogic::core::spec::close_free_variables(&clause.formula);
            let estimate = analyze_formula(&closed).estimate;
            let (backend, routed_budget) = auto_backend(&closed, &estimate, &budget);
            // Both sides sequential (overriding ILOGIC_TEST_PARALLEL): this
            // test pins *routing* identity, and a parallel early-exit sweep's
            // `traces_checked` may overshoot nondeterministically (see
            // `BoundedChecker::sweep_budgeted`) — the worker sweep is
            // `auto_is_bit_identical_to_the_hand_routed_backend`'s job.
            let manual_session = Session::new();
            let manual = manual_session.check(
                CheckRequest::new(closed.clone())
                    .with_backend(backend)
                    .with_budget(routed_budget)
                    .with_parallelism(Parallelism::Off),
            );
            let auto_session = Session::new();
            let auto = auto_session.check(
                CheckRequest::new(closed)
                    .auto()
                    .with_budget(budget.clone())
                    .with_parallelism(Parallelism::Off),
            );
            assert_routed_identical(&auto, &manual, &format!("{}/{}", spec.name(), clause.label));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random conjunctions/disjunctions of corpus formulas: whenever the
    /// conservative ⊥-propagation settles the combination, the bounded
    /// sweep agrees.
    #[test]
    fn random_combinations_never_contradict_the_sweep(
        a in any::<Index>(),
        b in any::<Index>(),
        disjoin in any::<bool>(),
    ) {
        let formulas = all_formulas();
        let left = formulas[a.index(formulas.len())].1.clone();
        let right = formulas[b.index(formulas.len())].1.clone();
        let combined =
            if disjoin { left.or(right) } else { left.and(right) };
        let analysis = analyze_formula(&combined);
        let tautological =
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Tautological);
        let contradictory =
            analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::Contradictory);
        if tautological {
            prop_assert!(matches!(bounded_verdict(&combined), Verdict::ValidUpTo(_)));
        }
        if contradictory {
            prop_assert!(matches!(bounded_verdict(&combined), Verdict::Counterexample(_)));
        }
    }
}

/// The headline guarantee: the estimator classifies the PR 1 pathology
/// `[ =>Q ] []P` as artifact-intractable from structure alone.  The analysis
/// must be instant — no tableau, no DNF — so a generous-but-finite wall-clock
/// ceiling guards against any regression that starts *building* the artifact
/// (which takes minutes, not milliseconds).
#[test]
fn intractable_shape_is_flagged_without_building_anything() {
    let formula = parse_formula("[ => Q ] [] P").unwrap();
    let started = std::time::Instant::now();
    let analysis = analyze_formula(&formula);
    let elapsed = started.elapsed();
    assert!(analysis.estimate.artifact_intractable);
    assert_eq!(analysis.estimate.condition_width, u64::MAX);
    assert!(
        analysis.diagnostics.iter().any(|d| d.code == DiagnosticCode::ArtifactIntractable),
        "C001 missing"
    );
    assert!(elapsed < std::time::Duration::from_millis(250), "analysis took {elapsed:?}");
}

/// The generator's reference populations at seed 9001: the first 200
/// distinct hard-family draws and the first 2000 distinct default-stream
/// draws.
fn seed_9001_populations() -> Vec<Formula> {
    let mut formulas = Vec::new();
    for (hard_family_percent, count) in
        [(100, 200), (GeneratorConfig::default().hard_family_percent, 2000)]
    {
        let config = GeneratorConfig { hard_family_percent, ..GeneratorConfig::default() };
        let mut generator = FormulaGenerator::from_seed(9001, config);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < count {
            let formula = generator.next_formula();
            if seen.insert(formula.clone()) {
                formulas.push(formula);
            }
        }
    }
    formulas
}

/// Blow-up predictor calibration: every formula `Auto` sends to the explicit
/// condition artifact (translatable, no predicted blowup, so a finite
/// implicant cap) must fit the default implicant cap.  A trip means the
/// estimator missed an artifact-intractable shape and the request pays for
/// a doomed artifact attempt before the evaluated fixpoint decides it.
#[test]
fn artifact_trips_are_always_predicted_on_the_reference_populations() {
    let budget = ResourceBudget::default();
    let mut attempted = 0;
    for formula in seed_9001_populations() {
        let estimate = analyze_formula(&formula).estimate;
        if !estimate.translatable || estimate.blowup() {
            continue;
        }
        let negated = to_ltl(&formula).expect("translatable").not();
        let Ok(graph) = TableauGraph::try_build_budgeted(&negated, &budget, Parallelism::Off)
        else {
            continue;
        };
        attempted += 1;
        let (artifact, _) = condition_of_graph_budgeted_stats(graph, &budget, Parallelism::Off);
        assert_ne!(
            artifact.err(),
            Some(Exhaustion::Implicants),
            "the condition artifact of {formula} trips the default cap, but no blowup was predicted"
        );
    }
    assert!(attempted > 700, "only {attempted} artifacts attempted");
}
