//! Experiment `PR-3`: sequential vs sharded parallel `Decide` pipeline.
//!
//! Benchmarks the two layers the PR 3 parallelization touched:
//!
//! * the temporal decision procedure — `AlgorithmB::decide` (tableau
//!   construction + `Iter`-equivalent condition fixpoint + end checks) on the
//!   Appendix B measurement-table formulas and the synthetic scaling
//!   families, single-threaded vs `Parallelism::Fixed(4)`;
//! * the budgeted blowup path — `decide_budgeted` on the `[ => Q ] []P`
//!   prefix-invariance translation, where the §5.3 condition fixpoint trips
//!   `ResourceBudget::default()` and must answer `Unknown` fast in both
//!   modes;
//! * the `Session` front door — `CheckRequest::decide()` end to end
//!   (LTL reduction, tableau, condition fixpoint, sharded refutation
//!   sweep) on a theorem and a refutable formula.
//!
//! The tableau is built in one sequential pass at every worker count (a
//! level-parallel build ran at 0.77–0.87x sequential at two workers and was
//! removed), so the parallel mode fans out only the fixpoint and the sweep.
//!
//! Decisions and verdicts are asserted bit-identical across modes before
//! anything is timed, so the comparison is pure engine overhead/speedup.
//! Results are recorded in `BENCH_PR3.json` at the workspace root.
//!
//! Run with `cargo bench -p ilogic-bench --bench parallel_decide`.

use std::path::PathBuf;
use std::time::Duration;

use criterion::{BenchResult, Criterion};
use ilogic_core::dsl::*;
use ilogic_core::ltl_translate::to_ltl;
use ilogic_core::pool::Parallelism;
use ilogic_core::pool::ResourceBudget;
use ilogic_core::session::{CheckRequest, Session};
use ilogic_core::syntax::Formula;
use ilogic_temporal::algorithm_b::AlgorithmB;
use ilogic_temporal::patterns;
use ilogic_temporal::syntax::{Ltl, VarSpec};
use ilogic_temporal::theory::PropositionalTheory;

/// Workers in the parallel mode.
const WORKERS: usize = 4;

/// The temporal-layer formulas swept through the full decision procedure.
///
/// `response_ladder(4)` is deliberately absent: its unbudgeted condition
/// fixpoint is intractable (measured on both the pre-PR 3 Gauss–Seidel
/// iteration and the current Jacobi sweeps) — it appears below as a
/// budget-trip case instead.
fn temporal_cases() -> Vec<(&'static str, Ltl)> {
    let mut cases = patterns::appendix_b_table();
    cases.push(("ladder3", patterns::response_ladder(3)));
    cases.push(("chain3", patterns::eventuality_chain(3)));
    cases
}

/// The session-layer formulas swept through `CheckRequest::decide()`.
fn session_cases() -> Vec<(&'static str, Formula)> {
    vec![
        ("theorem", always(prop("P")).implies(eventually(prop("P")))),
        ("refutable", eventually(prop("P")).and(eventually(prop("Q")))),
    ]
}

fn bench_decide(c: &mut Criterion) {
    let theory = PropositionalTheory::new();
    let cases = temporal_cases();

    for (mode, parallelism) in
        [("algb_sequential", Parallelism::Off), ("algb_parallel4", Parallelism::Fixed(WORKERS))]
    {
        let mut group = c.benchmark_group(mode);
        group.sample_size(10);
        group.measurement_time(Duration::from_millis(2500));
        group.warm_up_time(Duration::from_millis(300));
        for (name, formula) in &cases {
            // Bit-identical decisions are part of the experiment's contract.
            let sequential = AlgorithmB::new(&theory, VarSpec::all_state()).decide(formula);
            let parallel = AlgorithmB::new(&theory, VarSpec::all_state())
                .with_parallelism(parallelism)
                .decide(formula);
            assert_eq!(parallel, sequential, "{name}: parallel decision diverged");
            group.bench_function(*name, |b| {
                let alg =
                    AlgorithmB::new(&theory, VarSpec::all_state()).with_parallelism(parallelism);
                b.iter(|| alg.decide(formula));
            });
        }
        group.finish();
    }

    // The measured blowup: the budget must trip to Unknown in both modes.
    let prefix_ltl =
        to_ltl(&always(prop("P")).within(fwd_to(event(prop("Q"))))).expect("translatable");
    for (mode, parallelism) in
        [("budget_sequential", Parallelism::Off), ("budget_parallel4", Parallelism::Fixed(WORKERS))]
    {
        let mut group = c.benchmark_group(mode);
        group.sample_size(10);
        group.measurement_time(Duration::from_millis(2500));
        group.warm_up_time(Duration::from_millis(300));
        group.bench_function("prefix_invariance_unknown", |b| {
            let alg = AlgorithmB::new(&theory, VarSpec::all_state()).with_parallelism(parallelism);
            b.iter(|| alg.decide_budgeted(&prefix_ltl, &ResourceBudget::default()));
        });
        group.bench_function("ladder4_unknown", |b| {
            let ladder = patterns::response_ladder(4);
            let alg = AlgorithmB::new(&theory, VarSpec::all_state()).with_parallelism(parallelism);
            b.iter(|| alg.decide_budgeted(&ladder, &ResourceBudget::default()));
        });
        group.finish();
    }

    for (mode, parallelism) in [
        ("session_sequential", Parallelism::Off),
        ("session_parallel4", Parallelism::Fixed(WORKERS)),
    ] {
        let mut group = c.benchmark_group(mode);
        group.sample_size(10);
        group.measurement_time(Duration::from_millis(2500));
        group.warm_up_time(Duration::from_millis(300));
        for (name, formula) in session_cases() {
            let sequential =
                Session::new().check(CheckRequest::new(formula.clone()).decide()).verdict;
            let parallel = Session::new()
                .check(CheckRequest::new(formula.clone()).decide().with_parallelism(parallelism))
                .verdict;
            assert_eq!(parallel, sequential, "{name}: parallel verdict diverged");
            group.bench_function(name, move |b| {
                let session = Session::new();
                b.iter(|| {
                    session
                        .check(
                            CheckRequest::new(formula.clone())
                                .decide()
                                .with_parallelism(parallelism),
                        )
                        .verdict
                        .passed()
                });
            });
        }
        group.finish();
    }
}

fn record(results: &[BenchResult]) {
    let mean_of = |prefix: &str, name: &str| {
        results
            .iter()
            .find(|r| r.name == format!("{prefix}/{name}"))
            .map_or(f64::NAN, |r| r.mean_ns)
    };
    let mut entries = Vec::new();
    let mut total_seq = 0.0;
    let mut total_par = 0.0;
    let names: Vec<&str> = temporal_cases().iter().map(|(n, _)| *n).collect();
    for name in &names {
        let seq = mean_of("algb_sequential", name);
        let par = mean_of("algb_parallel4", name);
        total_seq += seq;
        total_par += par;
        entries.push(format!(
            "    {{\"formula\": \"{name}\", \"sequential_ns\": {seq:.0}, \
             \"parallel4_ns\": {par:.0}, \"speedup\": {:.2}}}",
            seq / par
        ));
    }
    let budget_entries: Vec<String> = ["prefix_invariance_unknown", "ladder4_unknown"]
        .iter()
        .map(|name| {
            let seq = mean_of("budget_sequential", name);
            let par = mean_of("budget_parallel4", name);
            format!(
                "    {{\"case\": \"{name}\", \"sequential_ns\": {seq:.0}, \
                 \"parallel4_ns\": {par:.0}, \"speedup\": {:.2}}}",
                seq / par
            )
        })
        .collect();
    let session_entries: Vec<String> = session_cases()
        .iter()
        .map(|(name, _)| {
            let seq = mean_of("session_sequential", name);
            let par = mean_of("session_parallel4", name);
            format!(
                "    {{\"request\": \"{name}\", \"sequential_ns\": {seq:.0}, \
                 \"parallel4_ns\": {par:.0}, \"speedup\": {:.2}}}",
                seq / par
            )
        })
        .collect();
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"experiment\": \"PR3 parallel Decide pipeline (tableau + DNF condition fixpoint + \
         session backend) vs sequential\",\n  \
         \"workers\": {WORKERS},\n  \"hardware_threads\": {hw},\n  \
         \"unit\": \"ns per full decision\",\n  \
         \"note\": \"decisions/verdicts bit-identical across modes (asserted before timing). \
         Fan-out speedup is bounded above by hardware_threads — on a 1-thread container the \
         4-worker runs measure thread spawn/merge overhead, not speedup; re-run on multi-core \
         hardware for real fan-out numbers. budget_trips rows time the \
         ResourceBudget::default() trip to Unknown on the two measured condition-fixpoint \
         blowups — the [ => Q ] []P prefix-invariance translation (PR 2) and response_ladder(4) \
         (PR 3; intractable unbudgeted under both the old Gauss-Seidel and the new Jacobi \
         iteration) — which must stay milliseconds-fast in both modes\",\n  \
         \"algorithm_b\": [\n{}\n  ],\n  \
         \"budget_trips\": [\n{}\n  ],\n  \
         \"session_decide\": [\n{}\n  ],\n  \
         \"total_sequential_ns\": {total_seq:.0},\n  \"total_parallel4_ns\": {total_par:.0},\n  \
         \"overall_speedup\": {:.2}\n}}\n",
        entries.join(",\n"),
        budget_entries.join(",\n"),
        session_entries.join(",\n"),
        total_seq / total_par
    );
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_PR3.json"].iter().collect();
    std::fs::write(&path, &json).expect("write BENCH_PR3.json");
    println!("\nrecorded {} (overall speedup {:.2}x)", path.display(), total_seq / total_par);
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_decide(&mut criterion);
    record(&criterion.take_results());
}
