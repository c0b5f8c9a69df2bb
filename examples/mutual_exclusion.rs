//! Chapter 8: distributed mutual exclusion — the specification of Figure 8-1,
//! the derived mutual-exclusion theorem, a bounded-model rendition of the
//! proof obligations of Figure 8-2, and exhaustive small-scope verification of
//! the algorithm over every interleaving — all checked through the unified
//! `Session` API.
//!
//! Run with `cargo run --example mutual_exclusion`.

use ilogic::core::spec::close_free_variables;
use ilogic::systems::explore::{explore, explore_backend, ExploreLimits, MutexModel};
use ilogic::systems::mutex::{mutual_exclusion_holds, simulate, simulate_broken, MutexWorkload};
use ilogic::systems::specs;
use ilogic::{CheckRequest, Parallelism, Session};

fn main() {
    // The session's bounded sweep picks up the ILOGIC_TEST_PARALLEL override
    // (1/auto, a worker count, or 0); the explorer runs on the calling
    // thread.  Verdicts are identical whatever the worker count.
    let parallelism = Parallelism::from_env().unwrap_or(Parallelism::Off);
    println!("parallelism: {parallelism:?} ({} workers)\n", parallelism.workers());
    let session = Session::new();
    let theorem = close_free_variables(&specs::mutual_exclusion_theorem());

    println!("== the algorithm against Figure 8-1, several contention schedules ==");
    for seed in [1u64, 7, 13, 29] {
        let workload = MutexWorkload { processes: 3, entries: 1, cs_duration: 1, seed };
        let trace = simulate(workload);
        let report = session.check_spec(&specs::mutual_exclusion_spec(), &trace);
        let excl = session.check(CheckRequest::new(theorem.clone()).on_trace(&trace));
        println!(
            "seed {seed:>2}: spec {}, derived []~(cs(i) & cs(j)) {}, direct check {}",
            if report.passed() { "conforms" } else { "VIOLATED" },
            excl.verdict.passed(),
            mutual_exclusion_holds(&trace, workload.processes),
        );
    }

    println!("\n== a broken algorithm that skips the flag inspection ==");
    let broken = simulate_broken(2);
    let report = session.check_spec(&specs::mutual_exclusion_spec(), &broken);
    print!("{report}");
    let excl = session.check(CheckRequest::new(theorem.clone()).on_trace(&broken));
    println!("derived theorem: {}", excl.verdict);

    println!("\n== Figure 8-2, lemma L2 as a bounded-model check ==");
    // L2 (propositional rendition for two processes): if x_i holds throughout
    // an interval, the x_j <= cs_j interval cannot be found inside it, given
    // axiom A1.  We check the instance over the interval [ x_i <= cs_i ].
    use ilogic::core::dsl::*;
    let a1 = eventually(not(prop("xi"))).within(bwd(event(prop("xj")), event(prop("csj"))));
    let a2 = always(prop("csj").implies(prop("xj"))).and(always(prop("csi").implies(prop("xi"))));
    let l2 = a1.clone().and(a2).implies(
        always(prop("xi"))
            .implies(not(occurs(bwd(event(prop("xj")), event(prop("csj"))))))
            .within(bwd(event(prop("xi")), event(prop("csi")))),
    );
    let report = session.check(CheckRequest::new(l2).bounded(["xi", "xj", "csi", "csj"], 3));
    println!(
        "lemma L2 instance: {} ({} computations, {:?}, {} memo hits, {} workers)",
        report.verdict,
        report.stats.traces_checked,
        report.stats.duration,
        report.stats.memo.hits,
        report.stats.workers
    );

    println!("\n== exhaustive small-scope verification (every interleaving) ==");
    for (label, model) in [
        ("2 processes x 2 entries", MutexModel::correct(2, 2)),
        ("3 processes x 1 entry", MutexModel::correct(3, 1)),
    ] {
        let report = explore(&model, ExploreLimits::default(), MutexModel::mutual_exclusion);
        println!(
            "{label}: {} ({} states, {} transitions)",
            if report.verified() { "verified" } else { "NOT verified" },
            report.states,
            report.transitions
        );
    }

    println!("\n== the derived theorem over every complete run, via the explore backend ==");
    let backend = explore_backend(&MutexModel::correct(2, 1), ExploreLimits::default(), 256);
    let report = session.check(CheckRequest::new(theorem).with_backend(backend));
    println!(
        "theorem over all runs: {} ({} runs checked in {:?})",
        report.verdict, report.stats.traces_checked, report.stats.duration
    );

    let broken_model = MutexModel::broken(2, 1);
    let report = explore(&broken_model, ExploreLimits::default(), MutexModel::mutual_exclusion);
    if let Some(violation) = report.violation {
        println!("broken variant: counterexample interleaving {:?}", violation.actions);
    }
}
