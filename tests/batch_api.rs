//! The batch API contract: `Session::check_many` must be *bit-identical* —
//! verdicts, counterexample traces and indices, and every deterministic
//! statistic — to a sequential loop of single-threaded
//! `Session::check` calls in request order, at every scheduler worker
//! count; and the unified `ResourceBudget` must be monotone: tightening a
//! budget can only turn answers into `Unknown { exhausted }`, never flip a
//! settled Pass/Fail.  Exercised over the shared parser corpus, the V1–V16
//! valid-formula catalogue, and mixed-backend batches, for
//! `Parallelism::Fixed(1..=4)` schedulers; plus the JSON wire format
//! round-trip.

use proptest::prelude::*;
use proptest::sample::Index;

use ilogic::core::dsl::*;
use ilogic::core::parser::{parse_formula, CORPUS};
use ilogic::core::prelude::*;
use ilogic::core::valid;
use ilogic::{
    CancelToken, CheckReport, CheckRequest, Exhaustion, Parallelism, ResourceBudget, Session,
    Verdict,
};

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

/// The deterministic portion of two reports must agree exactly; only
/// wall-clock durations may differ between the batch and the loop.
fn assert_reports_identical(batch: &CheckReport, sequential: &CheckReport, label: &str) {
    assert_eq!(batch.verdict, sequential.verdict, "{label}: verdict");
    assert_eq!(batch.backend, sequential.backend, "{label}: backend");
    assert_eq!(batch.failing_index, sequential.failing_index, "{label}: failing index");
    assert_eq!(batch.counterexample(), sequential.counterexample(), "{label}: counterexample");
    let (b, s) = (&batch.stats, &sequential.stats);
    assert_eq!(b.traces_checked, s.traces_checked, "{label}: traces_checked");
    assert_eq!(b.memo, s.memo, "{label}: memo counters");
    assert_eq!(b.session_memo, s.session_memo, "{label}: session memo counters");
    assert_eq!(b.arena_nodes, s.arena_nodes, "{label}: arena nodes");
    assert_eq!(b.workers, s.workers, "{label}: workers");
}

/// `check_many` over the corpus + catalogue, swept and (for the catalogue)
/// decided, at every scheduler worker count is the sequential loop, bit for
/// bit (durations aside).
#[test]
fn check_many_is_bit_identical_to_a_sequential_check_loop() {
    let requests: Vec<(String, CheckRequest)> = all_formulas()
        .into_iter()
        .map(|(label, f)| (label, CheckRequest::new(f).bounded(["P", "A", "B"], 2)))
        .chain(
            valid::catalogue()
                .into_iter()
                .map(|(name, f)| (format!("{name} (decide)"), CheckRequest::new(f).decide())),
        )
        .collect();
    // The reference: one session, single-threaded checks in submission order.
    let reference = Session::new();
    let sequential: Vec<CheckReport> = requests
        .iter()
        .map(|(_, r)| reference.check(r.clone().with_parallelism(Parallelism::Off)))
        .collect();
    for workers in 1..=4 {
        let session = Session::new().with_parallelism(Parallelism::Fixed(workers));
        let batch = session.check_many(requests.iter().map(|(_, r)| r.clone()).collect());
        assert_eq!(batch.len(), sequential.len());
        for (((label, _), batched), loop_report) in requests.iter().zip(&batch).zip(&sequential) {
            assert_reports_identical(
                batched,
                loop_report,
                &format!("{label} (scheduler workers={workers})"),
            );
        }
        assert_eq!(
            session.cumulative_memo(),
            reference.cumulative_memo(),
            "cumulative counters diverge at {workers} workers"
        );
    }
}

/// A mixed-backend batch — decide, bounded, trace, explore (collected and
/// lazy) — multiplexes without disturbing any job's result.
#[test]
fn mixed_backend_batches_match_the_loop() {
    let trace = Trace::finite(vec![State::new(), State::new().with("A")]);
    let failing_runs =
        vec![trace.clone(), Trace::finite(vec![State::new()]), Trace::finite(vec![State::new()])];
    let occurs_a = occurs(event(prop("A")));
    let requests = vec![
        CheckRequest::new(always(prop("P")).implies(eventually(prop("P")))).decide(),
        CheckRequest::new(eventually(prop("P"))).decide(),
        CheckRequest::new(prop("P").or(prop("P").not())).bounded(["P"], 3),
        CheckRequest::new(prop("P")).bounded(["P"], 3),
        CheckRequest::new(occurs_a.clone()).on_trace(&trace),
        CheckRequest::new(occurs_a.clone()).over_runs(failing_runs),
        CheckRequest::new(occurs_a.clone()).over_run_source(RunSource::lazy(move || {
            (0..100).map(|i| {
                if i == 37 {
                    Trace::finite(vec![State::new()])
                } else {
                    Trace::finite(vec![State::new(), State::new().with("A")])
                }
            })
        })),
    ];
    let reference = Session::new();
    let sequential: Vec<CheckReport> = requests
        .iter()
        .map(|r| reference.check(r.clone().with_parallelism(Parallelism::Off)))
        .collect();
    // The explore jobs report the failing run's *source index*.
    assert_eq!(sequential[5].failing_index, Some(1));
    assert_eq!(sequential[6].failing_index, Some(37));
    assert_eq!(sequential[5].counterexample().map(|(i, _)| i), Some(1));
    for workers in 1..=4 {
        let session = Session::new().with_parallelism(Parallelism::Fixed(workers));
        let batch = session.check_many(requests.clone());
        for (job, (batched, loop_report)) in batch.iter().zip(&sequential).enumerate() {
            assert_reports_identical(
                batched,
                loop_report,
                &format!("mixed job {job} (scheduler workers={workers})"),
            );
        }
    }
}

// Budgets are jointly monotone: a request under a *tighter* budget either
// answers `Unknown { exhausted }` or agrees (Pass/Fail) with the same
// request under a looser budget — and an expired deadline can only withhold.
// Randomized over the corpus, the structural-cap lattice, and the
// `Decide`/`Bounded` backends.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tighter_budgets_never_flip_a_settled_verdict(
        which in any::<Index>(),
        nodes in any::<Index>(),
        implicants in any::<Index>(),
        enumeration in any::<Index>(),
        use_decide in any::<bool>(),
    ) {
        const CAPS: [usize; 5] = [0, 1, 64, 10_000, usize::MAX];
        let formulas = all_formulas();
        let (label, formula) = &formulas[which.index(formulas.len())];
        let tight_caps = (
            CAPS[nodes.index(CAPS.len())],
            CAPS[implicants.index(CAPS.len())],
            CAPS[enumeration.index(CAPS.len())],
        );
        let budget_of = |(n, i, e): (usize, usize, usize)| {
            ResourceBudget::unbounded()
                .with_max_nodes(n)
                .with_max_edges(n.saturating_mul(16))
                .with_max_implicants(i)
                .with_max_enumeration(e)
        };
        // The loose budget relaxes every cap (to the next lattice point up,
        // here: unbounded).
        let loose_caps = (usize::MAX, usize::MAX, usize::MAX);
        let request = |budget: ResourceBudget| {
            let base = CheckRequest::new(formula.clone());
            let base = if use_decide { base.decide() } else { base.bounded(["P", "A"], 2) };
            base.with_budget(budget)
        };
        let tight = Session::new().check(request(budget_of(tight_caps)));
        let loose = Session::new().check(request(budget_of(loose_caps)));
        if !tight.verdict.is_unknown() {
            prop_assert!(
                !loose.verdict.is_unknown(),
                "{label}: tight budget settled but loose did not ({} vs {})",
                tight.verdict, loose.verdict
            );
            prop_assert_eq!(
                tight.verdict.passed(), loose.verdict.passed(),
                "{label}: tightening the budget flipped Pass/Fail ({} vs {})",
                tight.verdict, loose.verdict
            );
            if !use_decide {
                // For the bounded backend the whole verdict (the same lowest
                // counterexample index) must survive, not just the polarity.
                prop_assert_eq!(
                    &tight.verdict, &loose.verdict,
                    "{label}: bounded verdicts differ under a settled tight budget"
                );
            }
        }
    }

    /// Deadline monotonicity: an already-expired deadline can only produce
    /// `Unknown { exhausted }` — never a flipped or fabricated verdict.
    #[test]
    fn expired_deadlines_only_withhold_verdicts(
        which in any::<Index>(),
        use_decide in any::<bool>(),
    ) {
        let formulas = all_formulas();
        let (label, formula) = &formulas[which.index(formulas.len())];
        let base = CheckRequest::new(formula.clone());
        let base = if use_decide { base.decide() } else { base.bounded(["P", "A"], 2) };
        let expired = base.with_budget(
            ResourceBudget::default().with_timeout(std::time::Duration::ZERO),
        );
        let report = Session::new().check(expired);
        // Outside the translatable fragment `Decide` answers
        // `Unknown { exhausted: None }` regardless of the deadline; either
        // way the verdict must be withheld, never settled or fabricated.
        prop_assert!(
            report.verdict.is_unknown(),
            "{label}: expired deadline produced {} instead of an Unknown",
            report.verdict
        );
    }
}

/// A shared cancellation token cuts every job of a batch to the same uniform
/// `Unknown { exhausted: Cancelled }`.
#[test]
fn shared_cancellation_cuts_the_whole_batch_uniformly() {
    let token = CancelToken::new();
    let budget = ResourceBudget::default().with_cancel(token.clone());
    let requests: Vec<CheckRequest> = vec![
        CheckRequest::new(prop("P").or(prop("P").not()))
            .bounded(["P"], 3)
            .with_budget(budget.clone()),
        CheckRequest::new(always(prop("P")).implies(eventually(prop("P"))))
            .decide()
            .with_budget(budget.clone()),
    ];
    token.cancel();
    let session = Session::new().with_parallelism(Parallelism::Fixed(2));
    for (job, report) in session.check_many(requests).into_iter().enumerate() {
        assert_eq!(
            report.verdict,
            Verdict::exhausted(Exhaustion::Cancelled),
            "job {job} was not cut by the shared token"
        );
    }
}

/// The wire format: `from_json(to_json(report))` reconstructs every field —
/// verdicts with counterexample traces (stutter and lasso extensions,
/// parameterized propositions, state variables), exhaustion reasons, and all
/// statistics.
#[test]
fn reports_round_trip_through_json() {
    let fancy_state = State::new().with("A").with_args("atEnq", [3i64]).with_var("exp", 1i64);
    let fancy = Trace::lasso(vec![State::new(), fancy_state], 1);
    let requests = vec![
        CheckRequest::new(always(prop("P")).implies(eventually(prop("P")))).decide(),
        CheckRequest::new(prop("P")).bounded(["P"], 3),
        CheckRequest::new(prop("P").or(prop("P").not())).bounded(["P"], 2),
        CheckRequest::new(occurs(event(prop("Zed")))).on_trace(&fancy),
        CheckRequest::new(prop_args("p", [var("x")]).forall("x")).decide(),
        CheckRequest::new(prop("P"))
            .decide()
            .with_budget(ResourceBudget::unbounded().with_max_nodes(0).with_max_enumeration(0)),
    ];
    let session = Session::new();
    for (job, report) in session.check_many(requests).into_iter().enumerate() {
        let json = report.to_json();
        let parsed =
            CheckReport::from_json(&json).unwrap_or_else(|e| panic!("job {job}: {e}\n{json}"));
        assert_eq!(parsed, report, "job {job} did not round-trip\n{json}");
        // Serialization is stable: a second trip prints the same document.
        assert_eq!(parsed.to_json(), json, "job {job}: unstable rendering");
    }
    // Malformed documents are rejected, not misparsed.
    assert!(CheckReport::from_json("{}").is_err());
    assert!(CheckReport::from_json("{\"backend\":\"warp\"}").is_err());
    // Negative counters in a (corrupt) document are a parse error, never a
    // silent wrap-around into huge unsigned values.
    let valid = Session::new()
        .check(CheckRequest::new(prop("P").or(prop("P").not())).bounded(["P"], 2))
        .to_json();
    for (field, bad) in
        [("\"bound\":2", "\"bound\":-2"), ("\"duration_ns\":", "\"duration_ns\":-1,\"x\":")]
    {
        let corrupt = valid.replacen(field, bad, 1);
        if corrupt != valid {
            assert!(
                CheckReport::from_json(&corrupt).is_err(),
                "negative `{field}` accepted:\n{corrupt}"
            );
        }
    }
}

/// The scheduler honours the `ILOGIC_TEST_PARALLEL` override like every other
/// engine: with the variable set (as in CI), batches run across the pool and
/// still match the loop.  Here we just pin the env-independent contract that
/// an explicitly `Off` scheduler equals `check` exactly.
#[test]
fn single_worker_batches_equal_one_shot_checks() {
    let formulas = [prop("P"), prop("P").or(prop("P").not())];
    let requests: Vec<CheckRequest> =
        formulas.iter().map(|f| CheckRequest::new(f.clone()).bounded(["P"], 2)).collect();
    let batch_session = Session::new().with_parallelism(Parallelism::Off);
    let batch = batch_session.check_many(requests.clone());
    let loop_session = Session::new().with_parallelism(Parallelism::Off);
    let looped: Vec<CheckReport> = requests.into_iter().map(|r| loop_session.check(r)).collect();
    for (job, (batched, one_shot)) in batch.iter().zip(&looped).enumerate() {
        assert_reports_identical(batched, one_shot, &format!("job {job}"));
    }
}
