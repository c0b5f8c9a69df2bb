//! Parallel/sequential consistency: the sharded engines must return *identical*
//! `Verdict`s — same constructor, same counterexample computation — whatever
//! the worker count.  Exercised over the shared parser corpus and the V1–V16
//! valid-formula catalogue, for `Parallelism::Fixed(1..=4)`, both as a
//! property test (random formula/worker pairings) and as an exhaustive sweep.

use proptest::prelude::*;
use proptest::sample::Index;

use ilogic::core::parser::{parse_formula, CORPUS};
use ilogic::core::pool::Parallelism;
use ilogic::core::prelude::*;
use ilogic::core::valid;
use ilogic::{CheckRequest, Session};

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

/// One bounded check of `formula` at the given parallelism.
fn bounded_check(formula: &Formula, parallelism: Parallelism) -> ilogic::CheckReport {
    Session::new().check(
        CheckRequest::new(formula.clone())
            .bounded(["P", "A", "B"], 2)
            .with_parallelism(parallelism),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random (formula, workers) pairings: verdicts (constructor *and*
    /// counterexample trace) must be bit-identical to the sequential sweep.
    #[test]
    fn parallel_bounded_verdicts_match_sequential(which in any::<Index>(), w in any::<Index>()) {
        let formulas = all_formulas();
        let (label, formula) = &formulas[which.index(formulas.len())];
        let workers = 1 + w.index(4);
        let sequential = bounded_check(formula, Parallelism::Off);
        let parallel = bounded_check(formula, Parallelism::Fixed(workers));
        prop_assert_eq!(
            &parallel.verdict, &sequential.verdict,
            "parallel({}) and sequential verdicts differ on {}", workers, label
        );
    }
}

/// The exhaustive version of the property: every corpus and catalogue formula,
/// every worker count in 1..=4.
#[test]
fn every_formula_agrees_at_every_worker_count() {
    for (label, formula) in all_formulas() {
        let sequential = bounded_check(&formula, Parallelism::Off);
        for workers in 1..=4 {
            let parallel = bounded_check(&formula, Parallelism::Fixed(workers));
            assert_eq!(
                parallel.verdict, sequential.verdict,
                "parallel({workers}) and sequential verdicts differ on {label}"
            );
            // 208 computations stay below the fan-out grain: the sweep runs
            // on the calling thread and says so.
            assert_eq!(parallel.stats.workers, 1, "{label} at {workers} workers");
        }
    }
}

/// The explore backend (lazy, batched) is covered by the same contract: the
/// first failing run in enumeration order wins at every worker count.
#[test]
fn explore_backend_verdicts_are_worker_count_independent() {
    use ilogic::systems::explore::{explore_backend, ExploreLimits, MutexModel};
    use ilogic::systems::specs;

    let theorem = ilogic::core::spec::close_free_variables(&specs::mutual_exclusion_theorem());
    for model in [MutexModel::correct(2, 1), MutexModel::broken(2, 1)] {
        let backend = || explore_backend(&model, ExploreLimits::default(), 128);
        let sequential = Session::new().check(
            CheckRequest::new(theorem.clone())
                .with_backend(backend())
                .with_parallelism(Parallelism::Off),
        );
        for workers in 2..=4 {
            let parallel = Session::new().check(
                CheckRequest::new(theorem.clone())
                    .with_backend(backend())
                    .with_parallelism(Parallelism::Fixed(workers)),
            );
            assert_eq!(
                parallel.verdict, sequential.verdict,
                "explore backend diverges at {workers} workers (skip_inspection={})",
                model.skip_inspection
            );
        }
    }
}
