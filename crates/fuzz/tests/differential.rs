//! The differential corpus: every seeded instance through the full oracle.
//!
//! * `differential_corpus_agrees` — the headline gate.  Sweeps
//!   `ILOGIC_FUZZ_INSTANCES` seeds (default 200; CI runs 2000 in release),
//!   or replays the single seed in `ILOGIC_FUZZ_SEED`.  On a disagreement
//!   the instance is greedily shrunk while the disagreement persists, the
//!   repro is written to `target/ilogic-fuzz-repro.txt` (uploaded by CI as
//!   a failure artifact), and the test panics with the replayable seed.
//! * `planted_disagreement_is_caught_and_shrunk` — regression for the
//!   harness itself: an intentionally buggy oracle stub must be caught by
//!   the corpus loop and minimized to a local minimum by the shrinker.
//! * `planted_translation_bug_is_caught_and_shrunk` — the same for the
//!   translation invariant: a translator that reads every next step as the
//!   present state must disagree with the interval semantics and shrink to
//!   a single prefix interval.
//! * `protocol_zoo_instances_agree_across_backends` — wires the ring
//!   election and sensor bus into the differential corpus: their theorems
//!   cross-checked Explore vs a sequential reference on correct *and*
//!   broken variants.

use ilogic_core::ltl_translate::{to_ltl, TranslateError};
use ilogic_core::prelude::*;
use ilogic_fuzz::oracle::{
    check_instance, classify, disagree, translation_disagreement, Instance, Outcome,
};
use ilogic_fuzz::shrink::{candidates, formula_size, shrink_instance};
use ilogic_fuzz::{repro_path, CorpusPlan};
use ilogic_systems::explore::{collect_runs, explore_backend, ExploreLimits};
use ilogic_systems::ring::{leader_uniqueness_theorem, RingModel};
use ilogic_systems::sensorbus::{bus_exclusivity_theorem, SensorBusModel};
use ilogic_temporal::syntax::Ltl;

#[test]
fn differential_corpus_agrees() {
    let plan = CorpusPlan::from_env();
    for seed in plan.seeds() {
        let instance = Instance::from_seed(seed);
        if let Err(disagreement) = check_instance(&instance) {
            // Shrink while the *same invariant* keeps disagreeing, then
            // leave a repro artifact for CI and panic with the seed.
            let invariant = disagreement.invariant;
            let shrunk = shrink_instance(
                instance,
                |candidate| matches!(check_instance(candidate), Err(d) if d.invariant == invariant),
            );
            let repro = format!("{disagreement}\nshrunk repro:\n{}\n", shrunk.describe());
            let _ = std::fs::write(repro_path(), &repro);
            panic!("{repro}");
        }
    }
}

/// An intentionally buggy "backend": claims every formula that syntactically
/// mentions `q` fails, with the instance's first run as the counterexample.
/// Differentially compared against the real trace backend it must disagree,
/// and the disagreement must shrink to the bare proposition.
fn buggy_oracle_disagrees(instance: &Instance) -> bool {
    let buggy_outcome =
        if ilogic_core::analysis::proposition_names(&instance.formula).contains(&"q".to_string()) {
            Outcome::Fail
        } else {
            Outcome::Pass
        };
    // Reference: the real verdict of the formula over the system's runs.
    let runs = collect_runs(&instance.system, ExploreLimits { max_states: 1000, max_depth: 6 }, 16);
    let session = Session::new();
    let reference = session.check(CheckRequest::new(instance.formula.clone()).over_runs(runs));
    disagree(buggy_outcome, classify(&reference.verdict))
}

#[test]
fn planted_disagreement_is_caught_and_shrunk() {
    // Scan the corpus exactly as the harness would, with the buggy stub in
    // the loop: it must be caught quickly.
    let caught = (0..64)
        .map(Instance::from_seed)
        .find(buggy_oracle_disagrees)
        .expect("the planted bug must disagree somewhere in 64 seeds");
    let original_size = formula_size(&caught.formula);

    let shrunk = shrink_instance(caught, buggy_oracle_disagrees);

    // Demonstrably minimized: still disagreeing, no bigger than the find,
    // and a local minimum — no single further shrink still disagrees.
    assert!(buggy_oracle_disagrees(&shrunk));
    assert!(formula_size(&shrunk.formula) <= original_size);
    for candidate in candidates(&shrunk) {
        assert!(
            !buggy_oracle_disagrees(&candidate),
            "shrinker stopped early: {} still shrinks to {}",
            shrunk.formula,
            candidate.formula
        );
    }
    // For this particular stub the minimum is known exactly: the formula
    // `q` over a run set that satisfies it vacuously or positively.
    assert!(formula_size(&shrunk.formula) <= 2, "expected an atomic repro, got {}", shrunk.formula);
}

/// `to_ltl` with every next step read as the present state: wrong on the
/// prefix intervals `[ => q ] □p` and `[ => q ] ◇p`, which find the rise of
/// `q` with one `◦`.
fn presentist_translation(formula: &Formula) -> Result<Ltl, TranslateError> {
    fn drop_next(ltl: Ltl) -> Ltl {
        match ltl {
            Ltl::Next(a) => drop_next(*a),
            Ltl::Not(a) => drop_next(*a).not(),
            Ltl::And(a, b) => drop_next(*a).and(drop_next(*b)),
            Ltl::Or(a, b) => drop_next(*a).or(drop_next(*b)),
            Ltl::Always(a) => drop_next(*a).always(),
            Ltl::Eventually(a) => drop_next(*a).eventually(),
            Ltl::Until(a, b) => drop_next(*a).until(drop_next(*b)),
            leaf => leaf,
        }
    }
    to_ltl(formula).map(drop_next)
}

#[test]
fn planted_translation_bug_is_caught_and_shrunk() {
    let buggy =
        |i: &Instance| translation_disagreement(&i.formula, presentist_translation).is_some();
    let caught = (0..64)
        .map(Instance::from_seed)
        .find(buggy)
        .expect("the planted translation bug must disagree somewhere in 64 seeds");
    let original_size = formula_size(&caught.formula);

    let shrunk = shrink_instance(caught, buggy);

    assert!(buggy(&shrunk));
    assert!(formula_size(&shrunk.formula) <= original_size);
    for candidate in candidates(&shrunk) {
        assert!(!buggy(&candidate), "shrinker stopped early: {} still shrinks", shrunk.formula);
    }
    // Only a prefix interval carries a `◦`, and a constant body makes it
    // vacuous, so the minimum is `[ => q ] □p` or `[ => q ] ◇p`.
    assert!(
        matches!(shrunk.formula, Formula::In(..)) && formula_size(&shrunk.formula) == 5,
        "expected a single prefix interval over a proposition, got {}",
        shrunk.formula
    );
}

/// A zoo entry: name, closed theorem, and the runs it is checked over.
type ZooEntry = (&'static str, Formula, Box<dyn Fn() -> Vec<Trace>>);

#[test]
fn protocol_zoo_instances_agree_across_backends() {
    let session = Session::new();
    let zoo: Vec<ZooEntry> = vec![
        (
            "ring-correct",
            ilogic_core::spec::close_free_variables(&leader_uniqueness_theorem()),
            Box::new(|| {
                collect_runs(&RingModel::correct(vec![2, 1, 3]), ExploreLimits::default(), 96)
            }),
        ),
        (
            "ring-broken",
            ilogic_core::spec::close_free_variables(&leader_uniqueness_theorem()),
            Box::new(|| {
                collect_runs(&RingModel::broken(vec![2, 1, 3]), ExploreLimits::default(), 96)
            }),
        ),
        (
            "sensorbus-correct",
            ilogic_core::spec::close_free_variables(&bus_exclusivity_theorem()),
            Box::new(|| collect_runs(&SensorBusModel::correct(2, 1), ExploreLimits::default(), 96)),
        ),
        (
            "sensorbus-broken",
            ilogic_core::spec::close_free_variables(&bus_exclusivity_theorem()),
            Box::new(|| collect_runs(&SensorBusModel::broken(2, 1), ExploreLimits::default(), 96)),
        ),
    ];
    for (name, theorem, runs) in zoo {
        let runs = runs();
        assert!(!runs.is_empty(), "{name}: no runs");
        // Explore backend vs the sequential per-run reference loop.
        let explore = session.check(CheckRequest::new(theorem.clone()).over_runs(runs.clone()));
        let mut reference = Outcome::Pass;
        let mut failing = None;
        for (index, run) in runs.iter().enumerate() {
            let report = session.check(CheckRequest::new(theorem.clone()).on_trace(run));
            if classify(&report.verdict) == Outcome::Fail {
                reference = Outcome::Fail;
                failing = Some(index);
                break;
            }
        }
        assert_eq!(
            classify(&explore.verdict),
            reference,
            "{name}: explore {} vs reference {reference:?} (run {failing:?})",
            explore.verdict
        );
        if let Some(index) = failing {
            assert_eq!(explore.failing_index, Some(index), "{name}: failing index drifted");
        }
        // The broken variants must actually fail, the correct ones pass —
        // the zoo is only a differential anchor if both polarities occur.
        let want = if name.ends_with("broken") { Outcome::Fail } else { Outcome::Pass };
        assert_eq!(classify(&explore.verdict), want, "{name}: unexpected polarity");
    }

    // The Explore-caught violations are refuted identically by Bounded and
    // Decide on the propositional rendering (the PR's acceptance anchor;
    // the per-model statements live in the systems crate's own tests).
    for rendering in [
        ilogic_core::dsl::prop("lead_a").and(ilogic_core::dsl::prop("lead_b")).not().always(),
        ilogic_core::dsl::prop("busy_a").and(ilogic_core::dsl::prop("busy_b")).not().always(),
    ] {
        let bounded = session.check(
            CheckRequest::new(rendering.clone())
                .bounded(ilogic_core::analysis::proposition_names(&rendering), 4),
        );
        let decide = session.check(CheckRequest::new(rendering).decide());
        assert_eq!(
            bounded.verdict.counterexample().expect("bounded refutes"),
            decide.verdict.counterexample().expect("decide refutes"),
        );
        assert_eq!(bounded.failing_index, decide.failing_index);
    }
}

#[test]
fn explore_backend_and_collected_runs_agree_on_the_zoo() {
    // The lazy explore_backend must answer exactly like the collected runs
    // (same model, same limits, same cap) — streaming is an implementation
    // detail, not a semantics change.
    let theorem = ilogic_core::spec::close_free_variables(&leader_uniqueness_theorem());
    let session = Session::new();
    for model in [RingModel::correct(vec![2, 1, 3]), RingModel::broken(vec![2, 1, 3])] {
        let collected = collect_runs(&model, ExploreLimits::default(), 96);
        let eager = session.check(CheckRequest::new(theorem.clone()).over_runs(collected));
        let lazy = session.check(CheckRequest::new(theorem.clone()).with_backend(explore_backend(
            &model,
            ExploreLimits::default(),
            96,
        )));
        assert_eq!(eager.verdict, lazy.verdict);
        assert_eq!(eager.failing_index, lazy.failing_index);
    }
}
