//! The differential oracle: one generated instance, every applicable
//! backend, and the invariants that must hold between their answers.
//!
//! Backends answer different questions (bounded validity, full validity,
//! validity over an enumerated run set), so raw verdicts are first folded
//! into a three-valued [`Outcome`]: `Pass` (`Holds`/`ValidUpTo`), `Fail`
//! (`Counterexample`), `Unknown`.  A disagreement is `Pass` vs `Fail` —
//! `Unknown` (a withheld verdict) agrees with everything.  On top of the
//! three-valued agreement the harness checks sharper, structural identities
//! where the implementation guarantees them:
//!
//! * the Chapter 9 reduction is sound where it applies: for a formula that
//!   `to_ltl` accepts, its LTL image and the interval semantics agree on
//!   every computation up to [`CROSS_CHECK_DEPTH`] states (stutter and lasso
//!   extensions) over the formula's alphabet;
//! * the word-parallel bounded sweep answers as a per-computation scan of
//!   the same enumeration does: the same failing index, counterexample and
//!   count of checked computations, with lassos on and off, uncapped and
//!   under enumeration caps that fall inside a block;
//! * `Decide`'s refutation sweep *is* the `Bounded` enumeration (same
//!   propositions, same depth), so when both refute, the counterexample
//!   computations and enumeration indices must be bit-identical;
//! * the evaluated Boolean fixpoint and the explicit condition artifact
//!   decide the same logic, so their verdicts must agree outcome-for-outcome;
//! * `Backend::Auto` must produce the same report as hand-routing through
//!   [`ilogic_core::session::auto_backend`];
//! * the `Explore` backend must agree with the reference semantics
//!   ([`semantics::holds`]) run by run over the same collected runs —
//!   verdict, failing index and counterexample alike;
//! * a *tighter* budget may only withhold a verdict (`Unknown`), never flip
//!   `Pass`↔`Fail`;
//! * the session verdict cache must be semantically invisible: a warm
//!   session replaying duplicate requests answers reports bit-identical to
//!   a `with_verdict_cache(false)` session running the same sequence
//!   (durations and the cache counters themselves aside);
//! * `Parallelism::Fixed(0/2/4)` must not change any verdict, failing index
//!   or budget trip.
//!
//! All budgets are structural (no wall-clock deadline, no cancellation), so
//! every check is deterministic in the instance alone.

use ilogic_core::analysis::{self, proposition_names};
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::ltl_translate::{to_ltl, TranslateError};
use ilogic_core::prelude::*;
use ilogic_core::semantics;
use ilogic_core::session::auto_backend;
use ilogic_systems::explore::{collect_runs, ExploreLimits};
use ilogic_temporal::semantics::{TlState, TlTrace};
use ilogic_temporal::syntax::Ltl;

use crate::sysgen::{system_from_seed, RandomSystem};

/// Depth shared by the `Bounded` cross-check and `Decide`'s refutation sweep
/// (the session's internal `DECIDE_REFUTATION_BOUND`).
pub const CROSS_CHECK_DEPTH: usize = 4;

/// Limits for run collection from generated systems.
const RUN_LIMITS: ExploreLimits = ExploreLimits { max_states: 10_000, max_depth: 7 };

/// Runs collected per generated system.
const MAX_RUNS: usize = 48;

/// One generated instance of the differential corpus.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The seed the instance was generated from (and is replayed by).
    pub seed: u64,
    /// The random formula.
    pub formula: Formula,
    /// The random transition system.
    pub system: RandomSystem,
}

impl Instance {
    /// Regenerates the instance for `seed` — the deterministic inverse of
    /// the seed printed in a failure message.
    pub fn from_seed(seed: u64) -> Instance {
        let mut generator = FormulaGenerator::from_seed(seed, GeneratorConfig::default());
        Instance { seed, formula: generator.next_formula(), system: system_from_seed(seed) }
    }

    /// A compact rendering for failure messages and the repro artifact.
    pub fn describe(&self) -> String {
        format!(
            "seed = {}\nformula = {}\nsystem = {}",
            self.seed,
            self.formula,
            self.system.describe()
        )
    }
}

/// The three-valued folding of a [`Verdict`] the agreement check runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `Holds` or `ValidUpTo`.
    Pass,
    /// `Counterexample`.
    Fail,
    /// Any `Unknown` — agrees with everything.
    Unknown,
}

/// Folds a verdict into its [`Outcome`].
pub fn classify(verdict: &Verdict) -> Outcome {
    match verdict {
        Verdict::Holds | Verdict::ValidUpTo(_) => Outcome::Pass,
        Verdict::Counterexample(_) => Outcome::Fail,
        Verdict::Unknown { .. } => Outcome::Unknown,
    }
}

/// `true` when the two outcomes contradict each other (`Pass` vs `Fail`).
pub fn disagree(a: Outcome, b: Outcome) -> bool {
    matches!((a, b), (Outcome::Pass, Outcome::Fail) | (Outcome::Fail, Outcome::Pass))
}

/// A cross-backend disagreement, carrying everything a failure message
/// needs.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Seed of the offending instance.
    pub seed: u64,
    /// Which oracle invariant broke.
    pub invariant: &'static str,
    /// Human-readable description of the two conflicting answers.
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cross-backend disagreement [{}] at seed = {}: {}\nreplay with: ILOGIC_FUZZ_SEED={} cargo test -p ilogic-fuzz --test differential",
            self.invariant, self.seed, self.detail, self.seed
        )
    }
}

/// The structural budget every oracle check runs under: the service defaults
/// (no deadline, no cancellation — deterministic at any worker count), with
/// the implicant cap pulled down so hard-family instances whose explicit
/// condition artifact is intractable trip fast and fall through to the
/// evaluated fixpoint instead of interning tens of thousands of implicants
/// per instance.
pub fn oracle_budget() -> ResourceBudget {
    ResourceBudget::default().with_max_implicants(512)
}

/// A deliberately tight structural budget for the monotonicity check.
pub fn tight_budget() -> ResourceBudget {
    ResourceBudget::new()
        .with_max_nodes(48)
        .with_max_edges(192)
        .with_max_implicants(64)
        .with_max_enumeration(300)
}

/// The first computation of up to [`CROSS_CHECK_DEPTH`] states over the
/// formula's alphabet (stutter and lasso extensions, in `Bounded`
/// enumeration order) on which `translate`'s LTL image of `formula` and the
/// interval semantics disagree; `None` when they agree everywhere or the
/// formula is outside the translatable fragment.
pub fn translation_disagreement(
    formula: &Formula,
    translate: impl Fn(&Formula) -> Result<Ltl, TranslateError>,
) -> Option<String> {
    let ltl = translate(formula).ok()?;
    let props = proposition_names(formula);
    let mut found = None;
    BoundedChecker::new(props.iter().map(String::as_str), CROSS_CHECK_DEPTH).for_each_trace(
        |trace| {
            let interval = semantics::holds(trace, formula);
            let image = ltl_trace(trace, &props).eval(&ltl);
            if interval != image {
                found = Some(format!("interval: {interval} | LTL image {ltl}: {image} on {trace}"));
            }
            found.is_none()
        },
    );
    found
}

/// What a bounded sweep reports: the failing computation with the lowest
/// global index below the cap (with that index), and the computations
/// checked.
pub type SweepAnswer = (Option<(usize, Trace)>, usize);

/// The word-parallel sweep's answer for `formula` over `checker`'s
/// enumeration below `cap` ([`BoundedChecker::sweep_budgeted`] on the
/// calling thread).
pub fn block_sweep(checker: &BoundedChecker, formula: &Formula, cap: usize) -> SweepAnswer {
    let mut arena = FormulaArena::new();
    let id = arena.intern(formula);
    let budget = ResourceBudget::unbounded().with_max_enumeration(cap);
    let sweep = checker.sweep_budgeted(&arena, id, None, Parallelism::Off, &budget);
    (sweep.counterexample, sweep.traces_checked)
}

/// The first enumeration setting on which `sweep` and a per-computation
/// reference disagree about `formula`, over its alphabet up to
/// [`CROSS_CHECK_DEPTH`] states: lassos on and off, each uncapped and
/// under two caps, the enumeration's middle and three computations short
/// of its end (both inside a block for every alphabet of one to three
/// propositions; a block of the empty alphabet without lassos holds one
/// computation).  The reference checks the computations of
/// [`BoundedChecker::counterexample_boxed`]'s enumeration one at a time with
/// the boxed-AST evaluator: the first failing one below the cap, and as
/// checked computations its index plus one, or the cap (at most the whole
/// enumeration) when none fails.
pub fn sweep_disagreement(
    formula: &Formula,
    sweep: impl Fn(&BoundedChecker, &Formula, usize) -> SweepAnswer,
) -> Option<String> {
    let props = proposition_names(formula);
    for lassos in [true, false] {
        let mut checker = BoundedChecker::new(props.iter().map(String::as_str), CROSS_CHECK_DEPTH);
        if !lassos {
            checker = checker.without_lassos();
        }
        // The uncapped scan answers every cap: a cap only cuts its suffix.
        let mut first_failure = None;
        let mut index = 0;
        checker.for_each_trace(|trace| {
            if !semantics::holds(trace, formula) {
                first_failure = Some((index, trace.clone()));
            }
            index += 1;
            first_failure.is_none()
        });
        let total = checker.model_count();
        for cap in [usize::MAX, total / 2 + 1, total.saturating_sub(3)] {
            let reference = match &first_failure {
                Some((index, trace)) if *index < cap => (Some((*index, trace.clone())), index + 1),
                _ => (None, cap.min(total)),
            };
            let swept = sweep(&checker, formula, cap);
            if swept != reference {
                let show = |(found, checked): &SweepAnswer| match found {
                    Some((index, trace)) => format!("#{index} {trace}, {checked} checked"),
                    None => format!("none, {checked} checked"),
                };
                return Some(format!(
                    "lassos {lassos}, cap {cap}: sweep {} | reference {}",
                    show(&swept),
                    show(&reference)
                ));
            }
        }
    }
    None
}

/// `trace` as an LTL computation over the plain propositions `props`.
fn ltl_trace(trace: &Trace, props: &[String]) -> TlTrace {
    let states = trace
        .states()
        .iter()
        .map(|state| {
            let mut tl = TlState::new();
            for name in props {
                tl.set_prop(name.as_str(), state.holds(&Prop::plain(name.as_str())));
            }
            tl
        })
        .collect();
    match trace.extension() {
        Extension::Stutter => TlTrace::finite(states),
        Extension::Loop(start) => TlTrace::lasso(states, start),
    }
}

/// The full oracle: runs every invariant against the instance and returns
/// the first disagreement found.
pub fn check_instance(instance: &Instance) -> Result<(), Disagreement> {
    let session = Session::new();
    let fail = |invariant: &'static str, detail: String| Disagreement {
        seed: instance.seed,
        invariant,
        detail,
    };

    // --- Translation: the LTL image vs the interval semantics ------------
    if let Some(detail) = translation_disagreement(&instance.formula, to_ltl) {
        return Err(fail("translation", detail));
    }

    // --- Sweep: the word-parallel sweep vs a per-computation scan ---------
    if let Some(detail) = sweep_disagreement(&instance.formula, block_sweep) {
        return Err(fail("sweep", detail));
    }

    // --- Decide vs Bounded: same alphabet, same depth --------------------
    let props = proposition_names(&instance.formula);
    let decide = session
        .check(CheckRequest::new(instance.formula.clone()).decide().with_budget(oracle_budget()));
    let bounded = if props.is_empty() {
        None
    } else {
        Some(
            session.check(
                CheckRequest::new(instance.formula.clone())
                    .bounded(props.clone(), CROSS_CHECK_DEPTH)
                    .with_budget(oracle_budget()),
            ),
        )
    };
    if let Some(bounded) = &bounded {
        let (d, b) = (classify(&decide.verdict), classify(&bounded.verdict));
        if disagree(d, b) {
            return Err(fail(
                "decide-vs-bounded",
                format!("decide: {} | bounded: {}", decide.verdict, bounded.verdict),
            ));
        }
        if let (Verdict::Counterexample(dc), Verdict::Counterexample(bc)) =
            (&decide.verdict, &bounded.verdict)
        {
            if dc != bc || decide.failing_index != bounded.failing_index {
                return Err(fail(
                    "decide-vs-bounded-counterexample",
                    format!(
                        "decide cx #{:?} {dc} | bounded cx #{:?} {bc}",
                        decide.failing_index, bounded.failing_index
                    ),
                ));
            }
        }
    }

    // --- Evaluated fixpoint vs explicit condition artifact ---------------
    let evaluated = session.check(
        CheckRequest::new(instance.formula.clone())
            .decide()
            .with_budget(oracle_budget().with_max_implicants(usize::MAX)),
    );
    let (e, d) = (classify(&evaluated.verdict), classify(&decide.verdict));
    if disagree(e, d) {
        return Err(fail(
            "evaluated-vs-artifact",
            format!(
                "evaluated fixpoint: {} | artifact path: {}",
                evaluated.verdict, decide.verdict
            ),
        ));
    }

    // --- Auto vs hand-routed ---------------------------------------------
    let auto = session
        .check(CheckRequest::new(instance.formula.clone()).auto().with_budget(oracle_budget()));
    let estimate = analysis::analyze_formula(&instance.formula).estimate;
    let (routed_backend, routed_budget) =
        auto_backend(&instance.formula, &estimate, &oracle_budget());
    let routed = session.check(
        CheckRequest::new(instance.formula.clone())
            .with_backend(routed_backend)
            .with_budget(routed_budget),
    );
    if auto.verdict != routed.verdict
        || auto.failing_index != routed.failing_index
        || auto.backend != routed.backend
    {
        return Err(fail(
            "auto-vs-hand-routed",
            format!(
                "auto [{}]: {} (#{:?}) | routed [{}]: {} (#{:?})",
                auto.backend,
                auto.verdict,
                auto.failing_index,
                routed.backend,
                routed.verdict,
                routed.failing_index
            ),
        ));
    }

    // --- Explore vs the reference semantics per run ----------------------
    let runs = collect_runs(&instance.system, RUN_LIMITS, MAX_RUNS);
    let explore = session.check(
        CheckRequest::new(instance.formula.clone())
            .over_runs(runs.clone())
            .with_budget(oracle_budget()),
    );
    // The boxed-AST evaluator, not the `Trace` backend: that one runs the
    // same arena engine as `Explore`, so it would share any fault of it.
    let reference =
        runs.iter().enumerate().find(|(_, run)| !semantics::holds(run, &instance.formula));
    match (&explore.verdict, reference) {
        (Verdict::Counterexample(trace), Some((index, run)))
            if (trace != run || explore.failing_index != Some(index)) =>
        {
            return Err(fail(
                "explore-vs-reference",
                format!(
                    "explore cx #{:?} {trace} | reference cx #{index} {run}",
                    explore.failing_index
                ),
            ));
        }
        (Verdict::Counterexample(trace), None) => {
            return Err(fail(
                "explore-vs-reference",
                format!("explore found cx {trace} but no run fails the reference semantics"),
            ));
        }
        (verdict, Some((index, run))) if classify(verdict) == Outcome::Pass => {
            return Err(fail(
                "explore-vs-reference",
                format!(
                    "explore passed ({verdict}) but run #{index} fails the reference semantics: \
                     {run}"
                ),
            ));
        }
        _ => {}
    }

    // --- Budget monotonicity: tighter budgets only withhold --------------
    let full = classify(&decide.verdict);
    let tight = session
        .check(CheckRequest::new(instance.formula.clone()).decide().with_budget(tight_budget()));
    let tight_outcome = classify(&tight.verdict);
    if tight_outcome != Outcome::Unknown && full != Outcome::Unknown && tight_outcome != full {
        return Err(fail(
            "budget-monotonicity",
            format!("full budget: {} | tight budget: {}", decide.verdict, tight.verdict),
        ));
    }

    // --- Verdict-cache transparency: cached == recomputed ----------------
    // The same duplicate-heavy sequence through a cache-on and a cache-off
    // session: every report must be bit-identical once durations and the
    // cache counters themselves (definitionally different) are masked.
    // Explicitly sequential (overriding `ILOGIC_TEST_PARALLEL`): this
    // invariant is about the cache alone — the parallelism-invariance sweep
    // below owns worker-count coverage.
    let sequence = || {
        let decide = CheckRequest::new(instance.formula.clone())
            .decide()
            .with_budget(oracle_budget())
            .with_parallelism(Parallelism::Off);
        let mut requests = vec![decide.clone()];
        if !props.is_empty() {
            requests.push(
                CheckRequest::new(instance.formula.clone())
                    .bounded(props.clone(), CROSS_CHECK_DEPTH)
                    .with_budget(oracle_budget())
                    .with_parallelism(Parallelism::Off),
            );
        }
        requests.push(decide.clone());
        requests.push(decide);
        requests
    };
    let warm = Session::new();
    let cold = Session::new().with_verdict_cache(false);
    for (step, request) in sequence().into_iter().enumerate() {
        let mut cached = warm.check(request.clone());
        let mut recomputed = cold.check(request);
        for report in [&mut cached, &mut recomputed] {
            report.stats.duration = std::time::Duration::ZERO;
            report.stats.cache = CacheStats::default();
            report.stats.session_cache = CacheStats::default();
        }
        if cached != recomputed {
            return Err(fail(
                "cache-transparency",
                format!("step {step}: cached {cached:?} | recomputed {recomputed:?}"),
            ));
        }
    }
    if warm.cumulative_cache().hits < 2 {
        return Err(fail(
            "cache-transparency",
            format!(
                "the duplicate decides never hit the warm cache: {:?}",
                warm.cumulative_cache()
            ),
        ));
    }

    // --- Parallelism invariance: Fixed(0/2/4) bit-identity ----------------
    // Only the decide refutation sweep actually fans out; `Explore` runs on
    // the calling thread at any setting, and stays here so the request-level
    // contract is checked for both.  Subsampled: the sweep re-runs the two
    // heaviest backends three times each, so spending it on every fourth
    // seed keeps the corpus cheap while still covering hundreds of
    // instances per CI run.
    if !instance.seed.is_multiple_of(4) {
        return Ok(());
    }
    for (name, request) in [
        ("decide", CheckRequest::new(instance.formula.clone()).decide()),
        ("explore", CheckRequest::new(instance.formula.clone()).over_runs(runs.clone())),
    ] {
        let mut baseline: Option<CheckReport> = None;
        for workers in [0usize, 2, 4] {
            let report = session.check(
                request
                    .clone()
                    .with_budget(oracle_budget())
                    .with_parallelism(Parallelism::Fixed(workers)),
            );
            if let Some(baseline) = &baseline {
                if report.verdict != baseline.verdict
                    || report.failing_index != baseline.failing_index
                    || report.stats.exhausted != baseline.stats.exhausted
                {
                    return Err(fail(
                        "parallelism-invariance",
                        format!(
                            "[{name}] workers=0: {} (#{:?}) | workers={workers}: {} (#{:?})",
                            baseline.verdict,
                            baseline.failing_index,
                            report.verdict,
                            report.failing_index
                        ),
                    ));
                }
            } else {
                baseline = Some(report);
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_folds_every_verdict() {
        assert_eq!(classify(&Verdict::Holds), Outcome::Pass);
        assert_eq!(classify(&Verdict::ValidUpTo(4)), Outcome::Pass);
        assert_eq!(classify(&Verdict::unknown()), Outcome::Unknown);
        assert_eq!(classify(&Verdict::exhausted(Exhaustion::Nodes)), Outcome::Unknown);
        assert_eq!(
            classify(&Verdict::Counterexample(Trace::finite(vec![State::new()]))),
            Outcome::Fail
        );
    }

    #[test]
    fn unknown_agrees_with_everything() {
        for outcome in [Outcome::Pass, Outcome::Fail, Outcome::Unknown] {
            assert!(!disagree(Outcome::Unknown, outcome));
            assert!(!disagree(outcome, Outcome::Unknown));
        }
        assert!(disagree(Outcome::Pass, Outcome::Fail));
        assert!(!disagree(Outcome::Pass, Outcome::Pass));
    }

    #[test]
    fn instances_replay_deterministically() {
        for seed in 0..20 {
            let a = Instance::from_seed(seed);
            let b = Instance::from_seed(seed);
            assert_eq!(a.formula, b.formula);
            assert_eq!(a.system, b.system);
        }
    }

    #[test]
    fn a_slice_of_the_corpus_agrees() {
        // The full corpus runs in tests/differential.rs; this in-module
        // smoke keeps the oracle itself covered by `cargo test -p`.
        for seed in 0..8 {
            let instance = Instance::from_seed(seed);
            if let Err(disagreement) = check_instance(&instance) {
                panic!("{disagreement}\n{}", instance.describe());
            }
        }
    }
}
