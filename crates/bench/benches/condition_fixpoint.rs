//! Experiment `PR7`: the §5.3 condition fixpoint — one semi-naive worklist
//! driver over the interned DNFs and over the Booleans — against the PR 3
//! `BTreeSet` baseline, and the Boolean worklist against the PR 5 Boolean
//! sweep, on the tractable conditions and the measured `[ => Q ] []P` blowup
//! family.
//!
//! Four claims are measured (and asserted before timing):
//!
//! 1. On tractable conditions (the §6 measurement table, eventuality chains,
//!    response ladders) the worklist engine computes the *same* condition as
//!    the baseline, while skipping equations (the skip rate is recorded per
//!    formula).
//! 2. The Boolean-projected worklist — the per-call path of an evaluated
//!    decision — beats the PR 5 Boolean sweep by amortizing the per-tableau
//!    plan (SCCs, reverse-dependency CSR, fulfillment tables) the sweep
//!    re-derives on every call, at the identical answer.  That sweep is the
//!    gate's private reference ([`reference_sweep`]).
//! 3. On the prefix-invariance family the explicit condition is intractable,
//!    but the worklist trips its budget fast.
//! 4. The decision itself (`AlgorithmB::decide_budgeted`) refutes the
//!    prefix-invariance formula in milliseconds via the Boolean worklist.
//!
//! The bench doubles as an automated performance gate: `main` asserts
//! generous wall-clock ceilings on the headline measurements, the
//! skip-rate regression guard — `equations_skipped` must be strictly
//! positive on ladder3, or the engine has silently fallen back to full
//! sweeps — and the evaluated-path speedup floor (≥ 1.5x on at least two of
//! R3/R4/R5/ladder3), and exits non-zero past them.  CI's `bench-smoke` job
//! runs it on every push (see `.github/workflows/ci.yml`).
//!
//! Results are written to `BENCH_PR7.json` at the workspace root.

use std::path::PathBuf;
use std::time::Duration;

use criterion::{BatchSize, BenchResult, Criterion};
use ilogic_core::dsl::*;
use ilogic_core::ltl_translate::to_ltl;
use ilogic_temporal::algorithm_b::{
    condition_of_graph_baseline, condition_of_graph_budgeted_stats,
    evaluate_condition_at_budgeted_stats, AlgorithmB, Decision,
};
use ilogic_temporal::dnf::store::StoreStats;
use ilogic_temporal::patterns;
use ilogic_temporal::pool::{Exhaustion, Parallelism, ResourceBudget};
use ilogic_temporal::syntax::{Ltl, VarSpec};
use ilogic_temporal::tableau::{NodeId, TableauGraph};
use ilogic_temporal::theory::PropositionalTheory;

/// Generous wall-clock ceilings for the CI perf gate: an order of magnitude
/// above the numbers measured on the 1-thread container (decide ~60 ms, trip
/// ~250 ms release), so only a genuine regression — not scheduler noise —
/// fails the job.
const DECIDE_CEILING: Duration = Duration::from_secs(10);
const TRIP_CEILING: Duration = Duration::from_secs(60);

/// The evaluated-path speedup floor: the worklist engine's Boolean
/// projection must beat the PR 5 sweep by at least this factor on at least
/// [`EVAL_SPEEDUP_MIN_FORMULAS`] of the named formulas (measured margins sit
/// near 2x, so only a real regression — not noise — crosses the floor).
const EVAL_SPEEDUP_FLOOR: f64 = 1.5;
const EVAL_SPEEDUP_MIN_FORMULAS: usize = 2;
const EVAL_SPEEDUP_CANDIDATES: [&str; 4] = ["R3", "R4", "R5", "ladder3"];

/// The tractable condition computations every discipline completes.
fn tractable_formulas() -> Vec<(String, Ltl)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    formulas.push(("chain3".into(), patterns::eventuality_chain(3)));
    formulas.push(("ladder2".into(), patterns::response_ladder(2)));
    formulas.push(("ladder3".into(), patterns::response_ladder(3)));
    formulas
}

fn prefix_invariance_ltl() -> Ltl {
    let formula = always(prop("P")).within(fwd_to(event(prop("Q"))));
    to_ltl(&formula).unwrap()
}

fn build_graph(formula: &Ltl) -> TableauGraph {
    TableauGraph::try_build_budgeted(
        &formula.clone().not(),
        &ResourceBudget::default(),
        Parallelism::Off,
    )
    .expect("the measured graphs fit the default build caps")
}

/// The PR 5 Boolean projection, the reference of the evaluated-path
/// speedup floor: full Jacobi sweeps — every component equation
/// re-evaluated every round until an unchanged round — with in-place
/// updates, the SCCs re-derived per call and the per-edge `BTreeSet<Ltl>`
/// fulfillment lookups of the original hot loop.  Reports
/// `rounds`/`equations_evaluated` like the library engine
/// (`equations_skipped` zero by construction; nothing is ever interned).
fn reference_sweep(
    graph: &TableauGraph,
    atom_true: &[bool],
    budget: &ResourceBudget,
) -> (Result<bool, Exhaustion>, StoreStats) {
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let ne = eventualities.len();
    let sccs = strongly_connected_components(graph);
    let mut stats = StoreStats::default();
    let mut delete = vec![false; n];
    let mut fail = vec![true; n * ne];
    for component in &sccs {
        loop {
            for &node in component {
                for ei in 0..ne {
                    fail[ei * n + node] = true;
                }
            }
            // fail to its greatest fixpoint within the component (in-place
            // chaotic iteration reaches the same extreme fixpoint as the
            // Jacobi sweeps of the DNF-valued run).
            loop {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                stats.rounds += 1;
                stats.equations_evaluated += (component.len() * ne) as u64;
                let mut changed = false;
                for &node in component {
                    for (ei, ev) in eventualities.iter().enumerate() {
                        let new = graph.outgoing(node).iter().all(|&eid| {
                            let edge = graph.edge(eid);
                            atom_true[eid]
                                || delete[edge.to]
                                || (!edge.fulfilled.contains(ev) && fail[ei * n + edge.to])
                        });
                        if new != fail[ei * n + node] {
                            fail[ei * n + node] = new;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // delete to its least fixpoint within the component.
            let mut delete_changed_any = false;
            loop {
                if let Some(cut) = budget.interrupted() {
                    return (Err(cut), stats);
                }
                stats.rounds += 1;
                stats.equations_evaluated += component.len() as u64;
                let mut changed = false;
                for &node in component {
                    let new = graph.outgoing(node).iter().all(|&eid| {
                        let edge = graph.edge(eid);
                        atom_true[eid]
                            || delete[edge.to]
                            || eventualities.iter().enumerate().any(|(ei, ev)| {
                                edge.eventualities.contains(ev) && fail[ei * n + edge.to]
                            })
                    });
                    if new != delete[node] {
                        delete[node] = new;
                        changed = true;
                        delete_changed_any = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if !delete_changed_any {
                break;
            }
        }
    }
    (Ok(delete[graph.initial()]), stats)
}

/// Tarjan's strongly connected components of the reference sweep, in
/// reverse topological order of the condensation.
fn strongly_connected_components(graph: &TableauGraph) -> Vec<Vec<NodeId>> {
    struct Tarjan<'g> {
        graph: &'g TableauGraph,
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: usize,
        components: Vec<Vec<NodeId>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: NodeId) {
            self.index[v] = Some(self.next_index);
            self.lowlink[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &eid in self.graph.outgoing(v) {
                let w = self.graph.edge(eid).to;
                if self.index[w].is_none() {
                    self.visit(w);
                    self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w].unwrap());
                }
            }
            if self.lowlink[v] == self.index[v].unwrap() {
                let mut component = Vec::new();
                loop {
                    let w = self.stack.pop().expect("stack cannot be empty here");
                    self.on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                self.components.push(component);
            }
        }
    }
    let n = graph.node_count();
    let mut tarjan = Tarjan {
        graph,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        components: Vec::new(),
    };
    for v in 0..n {
        if tarjan.index[v].is_none() {
            tarjan.visit(v);
        }
    }
    tarjan.components
}

/// Per-formula work accounting of the worklist engine, captured once before
/// timing and recorded alongside the wall-clock rows.
struct WorkRow {
    name: String,
    evaluated_delta: u64,
    skipped_delta: u64,
    rounds_delta: u64,
    /// Boolean-projected counters at the measured assignment: the worklist
    /// and the reference sweep.
    eval_bool_delta: u64,
    eval_bool_full: u64,
    eval_bool_skipped: u64,
}

fn bench_condition_fixpoint(c: &mut Criterion) -> Vec<WorkRow> {
    // The tractable comparison runs unbudgeted: every discipline completes
    // these conditions, and an unbounded budget keeps the baseline's
    // pessimistic estimate cut (which trips on ladder3 at the default cap
    // even though the computation finishes in milliseconds) out of the
    // timing.
    let unbounded = ResourceBudget::unbounded();
    let budget = ResourceBudget::default();

    // Correctness before timing: identical conditions on every tractable
    // formula, and an identical Boolean at the measured evaluated-path
    // assignment.
    let mut work = Vec::new();
    for (name, formula) in tractable_formulas() {
        let graph = build_graph(&formula);
        let (delta, delta_stats) =
            condition_of_graph_budgeted_stats(graph.clone(), &unbounded, Parallelism::Off);
        let delta = delta.unwrap_or_else(|cut| panic!("{name}: worklist fixpoint tripped {cut}"));
        let atoms_false = vec![false; graph.edge_count()];
        let (eval_delta, eval_delta_stats) =
            evaluate_condition_at_budgeted_stats(&graph, &atoms_false, &unbounded);
        let (eval_full, eval_full_stats) = reference_sweep(&graph, &atoms_false, &unbounded);
        assert_eq!(
            eval_delta, eval_full,
            "{name}: the Boolean-projected worklist and sweep disagree"
        );
        let baseline = condition_of_graph_baseline(graph, &unbounded)
            .unwrap_or_else(|cut| panic!("{name}: baseline fixpoint tripped {cut}"));
        assert_eq!(delta.dnf(), baseline.dnf(), "{name}: worklist and baseline disagree");
        work.push(WorkRow {
            name,
            evaluated_delta: delta_stats.equations_evaluated,
            skipped_delta: delta_stats.equations_skipped,
            rounds_delta: delta_stats.rounds,
            eval_bool_delta: eval_delta_stats.equations_evaluated,
            eval_bool_full: eval_full_stats.equations_evaluated,
            eval_bool_skipped: eval_delta_stats.equations_skipped,
        });
    }
    // The skip-rate regression guard: ladder3 has multi-node SCCs whose
    // convergence tails the worklist must skip.  Zero skips means the engine
    // silently degenerated into full sweeps — fail the bench (and hence the
    // CI bench-smoke job) before any timing.
    let ladder3 = work.iter().find(|row| row.name == "ladder3").expect("ladder3 is measured");
    assert!(
        ladder3.skipped_delta > 0,
        "regression guard: equations_skipped is zero on ladder3 — the worklist engine is \
         not skipping ({} evaluated over {} rounds)",
        ladder3.evaluated_delta,
        ladder3.rounds_delta,
    );

    // Timing: the §5.3 fixpoint only — the graph is pre-built and cloned in
    // the untimed setup half of each iteration, so the rows compare the
    // fixpoints, not the allocator.
    let mut group = c.benchmark_group("condition");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(1200));
    group.warm_up_time(Duration::from_millis(200));
    for (name, formula) in tractable_formulas() {
        let graph = build_graph(&formula);
        group.bench_function(format!("delta/{name}"), |b| {
            b.iter_batched(
                || graph.clone(),
                |g| condition_of_graph_budgeted_stats(g, &unbounded, Parallelism::Off),
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("baseline/{name}"), |b| {
            b.iter_batched(
                || graph.clone(),
                |g| condition_of_graph_baseline(g, &unbounded),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    // Timing: the Boolean-projected fixpoint at a fixed edge assignment over
    // a pre-built tableau — the per-call shape of an evaluated decision,
    // which runs this loop once per candidate assignment over one graph.
    let mut group = c.benchmark_group("evaluated");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(400));
    group.warm_up_time(Duration::from_millis(100));
    for (name, formula) in tractable_formulas() {
        let graph = build_graph(&formula);
        let atoms_false = vec![false; graph.edge_count()];
        group.bench_function(format!("delta/{name}"), |b| {
            b.iter(|| evaluate_condition_at_budgeted_stats(&graph, &atoms_false, &unbounded));
        });
        group.bench_function(format!("full_sweep/{name}"), |b| {
            b.iter(|| reference_sweep(&graph, &atoms_false, &unbounded));
        });
    }
    group.finish();

    // The blowup family: the condition's budget trip and the evaluated
    // decision.
    let ltl = prefix_invariance_ltl();
    let theory = PropositionalTheory::new();
    let algorithm = AlgorithmB::new(&theory, VarSpec::all_state());
    assert_eq!(
        algorithm.decide_budgeted(&ltl, &budget),
        Ok(Decision::NotValid),
        "the evaluated fixpoint must refute the prefix-invariance formula"
    );
    let blowup_graph = build_graph(&ltl);

    let mut group = c.benchmark_group("prefix_invariance");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(2500));
    group.warm_up_time(Duration::from_millis(200));
    group.bench_function("decide_evaluated", |b| {
        b.iter(|| algorithm.decide_budgeted(&ltl, &budget));
    });
    group.bench_function("condition_trip/delta", |b| {
        b.iter_batched(
            || blowup_graph.clone(),
            |g| condition_of_graph_budgeted_stats(g, &budget, Parallelism::Off).0.is_err(),
            BatchSize::LargeInput,
        );
    });
    group.finish();

    // The service path end to end: Decide request → budgeted condition
    // artifact (trips) → evaluated decision → concrete countermodel.
    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(2500));
    group.warm_up_time(Duration::from_millis(200));
    group.bench_function("decide/prefix_invariance", |b| {
        let formula = always(prop("P")).within(fwd_to(event(prop("Q"))));
        b.iter(|| {
            let session = ilogic_core::session::Session::new();
            let report =
                session.check(ilogic_core::session::CheckRequest::new(formula.clone()).decide());
            assert!(report.verdict.counterexample().is_some());
            report
        });
    });
    group.finish();
    work
}

fn mean_of(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("missing bench result {name}"))
        .mean_ns
}

fn record(results: &[BenchResult], work: &[WorkRow]) {
    let mut rows = Vec::new();
    let mut eval_rows = Vec::new();
    let mut total_delta = 0.0;
    let mut eval_floor_hits = 0usize;
    for row in work {
        let name = &row.name;
        let delta = mean_of(results, &format!("condition/delta/{name}"));
        let baseline = mean_of(results, &format!("condition/baseline/{name}"));
        total_delta += delta;
        let skip_rate =
            row.skipped_delta as f64 / (row.evaluated_delta + row.skipped_delta).max(1) as f64;
        rows.push(format!(
            "    {{\"formula\": \"{name}\", \"delta_ns\": {delta:.0}, \
             \"baseline_btreeset_ns\": {baseline:.0}, \"equations_evaluated_delta\": {}, \
             \"equations_skipped_delta\": {}, \"skip_rate\": {skip_rate:.3}, \
             \"rounds_delta\": {}}}",
            row.evaluated_delta, row.skipped_delta, row.rounds_delta,
        ));
        let eval_delta = mean_of(results, &format!("evaluated/delta/{name}"));
        let eval_full = mean_of(results, &format!("evaluated/full_sweep/{name}"));
        let eval_speedup = eval_full / eval_delta;
        if EVAL_SPEEDUP_CANDIDATES.contains(&name.as_str()) && eval_speedup >= EVAL_SPEEDUP_FLOOR {
            eval_floor_hits += 1;
        }
        eval_rows.push(format!(
            "    {{\"formula\": \"{name}\", \"full_sweep_ns\": {eval_full:.0}, \
             \"delta_ns\": {eval_delta:.0}, \"speedup_delta_vs_full_sweep\": {eval_speedup:.2}, \
             \"equations_evaluated_delta\": {}, \"equations_evaluated_full_sweep\": {}, \
             \"equations_skipped_delta\": {}}}",
            row.eval_bool_delta, row.eval_bool_full, row.eval_bool_skipped,
        ));
    }
    let decide = mean_of(results, "prefix_invariance/decide_evaluated");
    let trip_delta = mean_of(results, "prefix_invariance/condition_trip/delta");
    let session_decide = mean_of(results, "session/decide/prefix_invariance");
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"experiment\": \"PR7 semi-naive worklist condition fixpoint (one driver over \
         the interned DNFs and the Booleans), PR3 BTreeSet baseline for context, PR5 Boolean \
         sweep as the evaluated-path reference\",\n  \
         \"hardware_threads\": {hw},\n  \"unit\": \"ns\",\n  \
         \"note\": \"conditions asserted identical to the baseline, and Booleans to the PR5 \
         sweep, before timing. condition rows: the Appendix B \\u00a75.3 condition fixpoint \
         only, graph pre-built and cloned in the untimed setup half of each iteration, \
         unbudgeted, 1 worker — delta re-evaluates only equations whose inputs changed \
         (skip_rate = fraction of a full sweep's evaluations avoided). evaluated_fixpoint rows: \
         the Boolean-projected fixpoint at a fixed all-false edge assignment over a pre-built \
         tableau — the per-call shape of an evaluated decision; delta amortizes the per-tableau \
         plan (SCCs, reverse-dependency CSR, fulfillment tables) the PR5 sweep re-derives on \
         every call, which is where the headline speedup lives. prefix_invariance rows: the \
         measured [ => Q ] []P blowup — decide_evaluated is the Boolean-projected worklist that \
         refutes in milliseconds the formula every budget 10^4..10^7 previously answered \
         Unknown on; its explicit condition stays intractable, so condition_trip_delta times \
         the honest budget trip at the default cap. session_decide is the service path end to \
         end\",\n  \
         \"condition_fixpoint\": [\n{}\n  ],\n  \
         \"condition_totals\": {{\"delta_ns\": {total_delta:.0}}},\n  \
         \"evaluated_fixpoint\": [\n{}\n  ],\n  \
         \"prefix_invariance\": {{\n    \
         \"decide_evaluated_ns\": {decide:.0},\n    \
         \"condition_trip_delta_ns\": {trip_delta:.0},\n    \
         \"session_decide_ns\": {session_decide:.0}\n  }}\n}}\n",
        rows.join(",\n"),
        eval_rows.join(",\n"),
    );
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_PR7.json"].iter().collect();
    std::fs::write(&path, &json).expect("write BENCH_PR7.json");
    println!("\nrecorded {}", path.display());

    // The perf gate: generous ceilings on the headline numbers, so CI fails
    // on a genuine regression of the decision or of the budget-trip path —
    // plus the evaluated-path speedup floor.
    let decide_time = Duration::from_nanos(decide as u64);
    let trip_time = Duration::from_nanos(trip_delta as u64);
    assert!(
        decide_time < DECIDE_CEILING,
        "perf gate: prefix-invariance decide took {decide_time:?} (ceiling {DECIDE_CEILING:?})"
    );
    assert!(
        trip_time < TRIP_CEILING,
        "perf gate: prefix-invariance condition budget trip took {trip_time:?} \
         (ceiling {TRIP_CEILING:?})"
    );
    assert!(
        eval_floor_hits >= EVAL_SPEEDUP_MIN_FORMULAS,
        "perf gate: the evaluated worklist beat the PR5 sweep {EVAL_SPEEDUP_FLOOR}x on only \
         {eval_floor_hits} of {EVAL_SPEEDUP_CANDIDATES:?} (need {EVAL_SPEEDUP_MIN_FORMULAS})"
    );
    println!(
        "perf gate: decide {decide_time:?} < {DECIDE_CEILING:?}, trip {trip_time:?} < \
         {TRIP_CEILING:?}, evaluated ≥{EVAL_SPEEDUP_FLOOR}x on {eval_floor_hits}/{} named \
         formulas — ok",
        EVAL_SPEEDUP_CANDIDATES.len()
    );
}

// `criterion_group!`/`criterion_main!` are intentionally not used: `main`
// post-processes the results into BENCH_PR7.json and enforces the perf-gate
// ceilings plus the ladder3 skip-rate regression guard.
fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    let work = bench_condition_fixpoint(&mut criterion);
    record(&criterion.take_results(), &work);
}
