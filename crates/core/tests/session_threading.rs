//! Cross-thread `Session` coverage: the shared-session concurrency model.
//!
//! Since the multiversion arena landed, a [`Session`] is **shared**:
//! `check`/`check_many` take `&self` (the arena, counters and verdict cache
//! live behind one interior lock), so many threads may dispatch into one
//! session concurrently — the model `ilogic-server` runs its warm `/check`
//! session in.  Interning never blocks running checks: a check snapshots the
//! arena version current at its prepare, and later interns append ids that
//! the older snapshot simply does not see.  These tests pin the contract:
//!
//! 1. `Session` (and its [`InternHandle`]) are `Send + Sync` — the
//!    compile-time audit.
//! 2. Concurrent sessions on many threads produce reports bit-identical to
//!    each other and to a fresh main-thread session — the stress test.
//! 3. A second thread's `check()` interns and answers new work while a
//!    prior check is mid-flight, and both reports are bit-identical to
//!    sequential execution — the multiversion-arena acceptance test.
//! 4. Interleaving interning with `check`/`check_many` dispatches at
//!    `Fixed(0/2/4)` never changes an answer: each check resolves exactly
//!    its version's ids, and duplicate requests replay their first
//!    occurrence's report from the verdict cache bit-for-bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ilogic_core::arena::MemoStats;
use ilogic_core::dsl::prop;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::prelude::*;
use ilogic_core::session::ConditionStats;

/// The compile-time audit: sessions may move across threads *and* be shared
/// by reference across threads.  (This is a *static* assertion — if a
/// thread-affine or non-`Sync` field ever sneaks into these types, this
/// test stops compiling, not just passing.)
#[test]
fn sessions_requests_and_reports_are_send_and_sync() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Session>();
    assert_sync::<Session>();
    assert_send::<InternHandle<'_>>();
    assert_send::<CheckRequest>();
    assert_send::<CheckReport>();
    assert_send::<ResourceBudget>();
}

fn workload() -> Vec<CheckRequest> {
    let mut generator = FormulaGenerator::from_seed(
        0x5EED_1E57,
        GeneratorConfig { max_depth: 3, ..GeneratorConfig::default() },
    );
    (0..24)
        .map(|_| {
            CheckRequest::new(generator.next_formula())
                .auto()
                .with_budget(ResourceBudget::default().with_timeout(Duration::from_secs(30)))
        })
        .collect()
}

fn zero_durations(reports: &mut [CheckReport]) {
    for report in reports {
        report.stats.duration = Duration::ZERO;
    }
}

/// Masks the fields that legitimately depend on what else the session did
/// around a job — wall clock, and the session-cumulative gauges whose merge
/// order follows completion order: everything *else* must be bit-identical
/// to sequential execution.
fn normalize(report: &mut CheckReport) {
    report.stats.duration = Duration::ZERO;
    report.stats.session_memo = MemoStats::default();
    report.stats.session_condition = ConditionStats::default();
    report.stats.session_cache = CacheStats::default();
}

/// Eight threads, each with its own fresh session over the same request
/// stream: all of them must agree bit-for-bit with a main-thread session.
/// This is the determinism guarantee the server's fresh-session-per-job-set
/// design leans on — thread identity must never leak into a report.
#[test]
fn concurrent_sessions_are_bit_identical_across_threads() {
    let mut baseline = Session::new().check_many(workload());
    zero_durations(&mut baseline);

    let workers: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(|| {
                let mut reports = Session::new().check_many(workload());
                zero_durations(&mut reports);
                reports
            })
        })
        .collect();
    for (index, worker) in workers.into_iter().enumerate() {
        let reports = worker.join().expect("worker thread completes");
        assert_eq!(reports, baseline, "thread {index} diverged from the main-thread baseline");
    }
}

/// A session may migrate between threads mid-life (ownership transfer):
/// what it accumulated before the move — interned formulas, cumulative
/// counters, cached verdicts — survives it, and checking continues
/// deterministically.
#[test]
fn a_session_moved_across_threads_keeps_its_state() {
    let session = Session::new();
    let tautology = || CheckRequest::new(prop("P").or(prop("P").not())).decide();
    let first = session.check(tautology());
    assert!(first.verdict.passed());

    // Move the session into another thread and keep checking there.
    let joined = thread::spawn(move || {
        let report = session.check(CheckRequest::new(prop("Q").implies(prop("Q"))).decide());
        (session, report)
    })
    .join()
    .expect("the migrated session thread completes");
    let (session, report) = joined;
    assert!(report.verdict.passed(), "the migrated session checks");
    assert_eq!(session.cumulative_cache(), CacheStats { hits: 0, misses: 2 });

    // And back on this thread, the same session keeps checking — and still
    // holds the verdict it cached before the first move.
    let again = session.check(tautology());
    assert_eq!(again.stats.cache.hits, 1, "the pre-move verdict survives both moves");
    assert_eq!(again.verdict, first.verdict);
    let last = session.check(CheckRequest::new(prop("R").and(prop("R").not()).not()).decide());
    assert!(last.verdict.passed());
}

/// A short witness trace for the blocking explore job: P at step 0, Q from
/// step 1 on.
fn witness() -> Trace {
    let mut builder = TraceBuilder::new();
    builder.assert_prop(Prop::plain("P"));
    builder.commit();
    builder.retract_prop(&Prop::plain("P"));
    builder.assert_prop(Prop::plain("Q"));
    builder.commit();
    builder.finish()
}

/// The PR-10 acceptance test: one thread's `check()` accepts, interns and
/// answers a new formula while another thread's check is **provably
/// mid-flight** (its run producer blocks on a flag until the new check has
/// returned), and both reports come back bit-identical to sequential
/// execution of the same requests.  Under the old stop-the-world snapshot
/// this deadlocked by design; the multiversion arena makes it the daemon's
/// steady state.
#[test]
fn check_interns_new_work_while_a_prior_check_is_mid_flight() {
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let blocking_source = {
        let started = Arc::clone(&started);
        let release = Arc::clone(&release);
        RunSource::lazy(move || {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            let mut emitted = 0usize;
            std::iter::from_fn(move || {
                if emitted == 0 {
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                }
                emitted += 1;
                (emitted <= 3).then(witness)
            })
        })
    };

    let explore = CheckRequest::new(prop("P").or(prop("Q"))).over_run_source(blocking_source);
    let decide = CheckRequest::new(prop("R").implies(prop("R"))).decide();

    let session = Session::new();
    let (mut mid_flight, mut interned_during) = thread::scope(|scope| {
        let session = &session;
        let first = explore.clone();
        let runner = scope.spawn(move || session.check(first));

        // Only proceed once the explore check is genuinely inside its run
        // producer — mid-flight, not merely dispatched.
        while !started.load(Ordering::SeqCst) {
            thread::yield_now();
        }

        // The whole point: a new formula is accepted, interned, checked,
        // and *answered* while the first check is still blocked mid-run.
        let nodes_before = session.arena().formula_count();
        let second_report = session.check(decide.clone());
        assert!(second_report.verdict.passed(), "{second_report:?}");
        assert!(
            session.arena().formula_count() > nodes_before,
            "the second check interned new ids while the first one ran"
        );

        release.store(true, Ordering::SeqCst);
        let first_report = runner.join().expect("the mid-flight job completes");
        (first_report, second_report)
    });

    // Sequential execution of the same two requests on a fresh session (the
    // release flag stays up, so the source no longer blocks).
    let sequential = Session::new();
    let mut explore_sequential = sequential.check(explore);
    let mut decide_sequential = sequential.check(decide);
    for report in
        [&mut mid_flight, &mut interned_during, &mut explore_sequential, &mut decide_sequential]
    {
        normalize(report);
    }
    assert_eq!(mid_flight, explore_sequential, "the interrupted job's report is unchanged");
    assert_eq!(interned_during, decide_sequential, "the mid-flight check's report is unchanged");
}

/// Seeded interleaving sweep: a duplicate-heavy request stream is
/// dispatched in small batches with fresh formulas interned between
/// requests, at `Fixed(0/2/4)` workers — a batch of one through `check`
/// (pinned off, as `check_many` pins its jobs), longer ones through
/// `check_many`.  Each check must resolve exactly its version's ids —
/// interning noise around it must not perturb a single answer — so every
/// report is compared against a cold single-request session, duplicates
/// must replay their first occurrence bit-for-bit, and the three worker
/// counts must agree on everything.
#[test]
fn interleaved_interning_never_perturbs_in_flight_checks() {
    let mut generator = FormulaGenerator::from_seed(
        0xA11C_E5ED,
        GeneratorConfig { max_depth: 3, ..GeneratorConfig::default() },
    );
    let distinct: Vec<Formula> = (0..8).map(|_| generator.next_formula()).collect();
    let noise: Vec<Formula> = (0..18).map(|_| generator.next_formula()).collect();
    // Every third request repeats an earlier body: cache hits under
    // interleaved interning.
    let requests: Vec<CheckRequest> = (0..18)
        .map(|job| {
            let formula = if job % 3 == 2 {
                &distinct[((job - 1) / 2) % 8]
            } else {
                &distinct[(job / 2) % 8]
            };
            CheckRequest::new(formula.clone()).decide()
        })
        .collect();

    // Cold references: one fresh, cache-off, sequential session per request.
    let references: Vec<CheckReport> = requests
        .iter()
        .map(|request| {
            Session::new()
                .with_verdict_cache(false)
                .check(request.clone().with_parallelism(Parallelism::Off))
        })
        .collect();

    let mut per_worker_runs: Vec<Vec<CheckReport>> = Vec::new();
    for workers in [0usize, 2, 4] {
        let session = Session::new().with_parallelism(Parallelism::Fixed(workers));
        let interner = session.interner();
        let dispatch = |mut batch: Vec<CheckRequest>| {
            if batch.len() == 1 {
                let request = batch.pop().expect("a batch of one");
                vec![session.check(request.with_parallelism(Parallelism::Off))]
            } else {
                session.check_many(batch)
            }
        };
        let mut reports: Vec<CheckReport> = Vec::new();
        let mut batch = Vec::new();
        for (job, request) in requests.iter().enumerate() {
            batch.push(request.clone());
            // Interleave: intern noise the pending requests must *not* see,
            // and verify the version handle ratchets forward as ids append.
            let before = interner.version();
            let id = interner.intern(&noise[job]);
            assert!(interner.version() >= before, "versions are monotone");
            assert_eq!(&interner.extract(id), &noise[job], "interned ids round-trip");
            // Dispatch a prefix mid-stream so checks and interning overlap.
            if job % 3 == 0 {
                reports.extend(dispatch(std::mem::take(&mut batch)));
            }
        }
        reports.extend(dispatch(batch));

        for (job, (report, reference)) in reports.iter().zip(&references).enumerate() {
            assert_eq!(
                report.verdict, reference.verdict,
                "job {job} at {workers} workers diverged from its cold reference"
            );
            assert_eq!(report.failing_index, reference.failing_index, "job {job} index");
            assert_eq!(report.stats.exhausted, reference.stats.exhausted, "job {job} exhaustion");
        }
        // Duplicates replay their first occurrence bit-for-bit (the cache
        // counters themselves and wall clock aside).
        for job in (2..18).step_by(3) {
            let first = (0..job)
                .find(|&earlier| requests[earlier].formula() == requests[job].formula())
                .expect("every third request repeats an earlier body");
            let mut replayed = reports[job].clone();
            let mut original = reports[first].clone();
            assert!(replayed.stats.cache.hits > 0, "job {job} was served from the cache");
            for report in [&mut replayed, &mut original] {
                normalize(report);
                report.stats.cache = CacheStats::default();
                // The arena-occupancy gauge reads the arena *now*; the noise
                // interned between the two occurrences legitimately grew it.
                report.stats.arena_nodes = 0;
            }
            assert_eq!(replayed, original, "job {job} must replay job {first} bit-for-bit");
        }
        let mut normalized = reports;
        zero_durations(&mut normalized);
        per_worker_runs.push(normalized);
    }
    assert_eq!(per_worker_runs[0], per_worker_runs[1], "workers 0 vs 2 diverged");
    assert_eq!(per_worker_runs[0], per_worker_runs[2], "workers 0 vs 4 diverged");
}
