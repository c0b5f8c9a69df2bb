//! The performance gates, with the deterministic contracts their timings
//! rest on.
//!
//! Plain tests pin what the timed rows compute; tier-1 runs them:
//!
//! * the Boolean-projected worklist answers as the full-sweep reference it
//!   replaced ([`reference_sweep`]) on the tractable set;
//! * every duplicate of the catalogue batch hits a fresh session's verdict
//!   cache, and the warm reports are bit-identical to cold recomputation.
//!
//! The timing gates are ignored by default: they only mean something in a
//! release build on an otherwise idle machine.  CI's `perf-gates` job runs
//! them all with
//!
//! ```text
//! cargo test -q --release --test perf_gates -- --include-ignored
//! ```
//!
//! Every row is the mean time per call over [`SAMPLES`] timed samples after
//! a warm-up ([`mean_ns`]); inputs a call consumes are built outside the
//! timed part.  The tests of this file take one lock, so no two of them
//! share the machine while a gate is timing.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ilogic::core::dsl::*;
use ilogic::core::ltl_translate::to_ltl;
use ilogic::core::valid;
use ilogic::temporal::algorithm_b::{
    condition_of_graph_budgeted_stats, evaluate_condition_at_budgeted_stats, AlgorithmB, Decision,
};
use ilogic::temporal::patterns;
use ilogic::temporal::syntax::{Ltl, VarSpec};
use ilogic::temporal::tableau::{NodeId, TableauGraph};
use ilogic::temporal::theory::PropositionalTheory;
use ilogic::{CacheStats, CheckRequest, Exhaustion, Parallelism, ResourceBudget, Session};
use ilogic_fuzz::oracle::{check_instance, Instance};

/// Timed samples per row.
const SAMPLES: u32 = 10;

/// Mean nanoseconds per call of `routine` over [`SAMPLES`] timed samples.
/// The warm-up doubles as calibration: it runs batches of doubling size
/// until `warm_up_ms` have passed or one batch takes 10 ms, and each sample
/// then makes enough calls to fill `measure_ms / SAMPLES`.  A sample builds
/// its calls' inputs with `setup` before its clock starts.
fn mean_ns<I, R>(
    warm_up_ms: u64,
    measure_ms: u64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> f64 {
    let mut timed = |calls: u64| {
        let inputs: Vec<I> = (0..calls).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            black_box(routine(input));
        }
        start.elapsed()
    };
    let warm_up = Instant::now();
    let mut calls = 1;
    let per_call_ns = loop {
        let elapsed = timed(calls);
        if warm_up.elapsed() >= Duration::from_millis(warm_up_ms)
            || elapsed >= Duration::from_millis(10)
        {
            break (elapsed.as_nanos() as f64 / calls as f64).max(1.0);
        }
        calls *= 2;
    };
    let per_sample_ns = (measure_ms * 1_000_000 / u64::from(SAMPLES)) as f64;
    let calls = ((per_sample_ns / per_call_ns).round() as u64).max(1);
    let total: Duration = (0..SAMPLES).map(|_| timed(calls)).sum();
    total.as_nanos() as f64 / (u64::from(SAMPLES) * calls) as f64
}

/// One test of this file at a time: a gate times nothing but its rows.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The §5.3 condition fixpoint.
// ---------------------------------------------------------------------------

/// The evaluated worklist must beat [`reference_sweep`] by at least this
/// factor on at least [`EVAL_SPEEDUP_MIN_FORMULAS`] of
/// [`EVAL_SPEEDUP_CANDIDATES`] (measured margins sit near 2x, so only a real
/// regression crosses the floor).
const EVAL_SPEEDUP_FLOOR: f64 = 1.5;
const EVAL_SPEEDUP_MIN_FORMULAS: usize = 2;
const EVAL_SPEEDUP_CANDIDATES: [&str; 4] = ["R3", "R4", "R5", "ladder3"];

/// Ceilings on the prefix-invariance decision and its condition-budget
/// trip, far above the ~64 µs and ~0.6 s measured in a release build on a
/// 2-vCPU VM, so only a genuine regression, not scheduler noise, crosses
/// them.
const DECIDE_CEILING: Duration = Duration::from_secs(10);
const TRIP_CEILING: Duration = Duration::from_secs(60);

/// The tractable condition computations: the §6 measurement table, an
/// eventuality chain and two response ladders.
fn tractable_formulas() -> Vec<(String, Ltl)> {
    let mut formulas: Vec<(String, Ltl)> =
        patterns::appendix_b_table().into_iter().map(|(n, f)| (n.to_string(), f)).collect();
    formulas.push(("chain3".into(), patterns::eventuality_chain(3)));
    formulas.push(("ladder2".into(), patterns::response_ladder(2)));
    formulas.push(("ladder3".into(), patterns::response_ladder(3)));
    formulas
}

/// The LTL image of `[ => Q ] []P`, whose explicit condition is intractable.
fn prefix_invariance_ltl() -> Ltl {
    to_ltl(&always(prop("P")).within(fwd_to(event(prop("Q"))))).expect("translatable")
}

fn build_graph(formula: &Ltl) -> TableauGraph {
    TableauGraph::try_build_budgeted(
        &formula.clone().not(),
        &ResourceBudget::default(),
        Parallelism::Off,
    )
    .expect("the measured graphs fit the default build caps")
}

/// The full-sweep Boolean projection of the §5.3 fixpoint that the worklist
/// replaced, the reference of the evaluated-path speedup floor: every
/// component equation re-evaluated every round until an unchanged round,
/// with in-place updates, the SCCs re-derived per call and per-edge
/// `BTreeSet<Ltl>` fulfillment lookups.
fn reference_sweep(
    graph: &TableauGraph,
    atom_true: &[bool],
    budget: &ResourceBudget,
) -> Result<bool, Exhaustion> {
    let n = graph.node_count();
    let eventualities = graph.eventualities();
    let ne = eventualities.len();
    let mut delete = vec![false; n];
    let mut fail = vec![true; n * ne];
    for component in &strongly_connected_components(graph) {
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
                    return Err(cut);
                }
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
                    return Err(cut);
                }
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
    Ok(delete[graph.initial()])
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

/// The timed rows of the speedup floor compute the same Boolean: the
/// worklist answers as the reference sweep on every tractable formula, at
/// the timed all-false assignment and at all-true.
#[test]
fn the_boolean_worklist_answers_as_the_reference_sweep() {
    let _gate = exclusive();
    let unbounded = ResourceBudget::unbounded();
    for (name, formula) in tractable_formulas() {
        let graph = build_graph(&formula);
        for value in [false, true] {
            let atoms = vec![value; graph.edge_count()];
            let (worklist, _) = evaluate_condition_at_budgeted_stats(&graph, &atoms, &unbounded);
            assert_eq!(
                worklist,
                reference_sweep(&graph, &atoms, &unbounded),
                "{name}: the worklist and the reference sweep disagree with every atom {value}"
            );
        }
    }
}

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_evaluated_worklist_beats_the_reference_sweep() {
    let _gate = exclusive();
    let unbounded = ResourceBudget::unbounded();
    let mut hits = Vec::new();
    for (name, formula) in tractable_formulas() {
        if !EVAL_SPEEDUP_CANDIDATES.contains(&name.as_str()) {
            continue;
        }
        let graph = build_graph(&formula);
        let atoms = vec![false; graph.edge_count()];
        let worklist = mean_ns(
            100,
            400,
            || (),
            |()| evaluate_condition_at_budgeted_stats(&graph, &atoms, &unbounded),
        );
        let sweep = mean_ns(100, 400, || (), |()| reference_sweep(&graph, &atoms, &unbounded));
        let speedup = sweep / worklist;
        println!("evaluated {name}: {worklist:.0} ns vs sweep {sweep:.0} ns, {speedup:.2}x");
        if speedup >= EVAL_SPEEDUP_FLOOR {
            hits.push(name);
        }
    }
    assert!(
        hits.len() >= EVAL_SPEEDUP_MIN_FORMULAS,
        "the evaluated worklist beat the reference sweep {EVAL_SPEEDUP_FLOOR}x only on \
         {hits:?} of {EVAL_SPEEDUP_CANDIDATES:?} (need {EVAL_SPEEDUP_MIN_FORMULAS})"
    );
}

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_prefix_invariance_decision_stays_under_its_ceiling() {
    let _gate = exclusive();
    let ltl = prefix_invariance_ltl();
    let budget = ResourceBudget::default();
    let theory = PropositionalTheory::new();
    let algorithm = AlgorithmB::new(&theory, VarSpec::all_state());
    assert_eq!(algorithm.decide_budgeted(&ltl, &budget), Ok(Decision::NotValid));
    let decide = mean_ns(200, 2500, || (), |()| algorithm.decide_budgeted(&ltl, &budget));
    let decide = Duration::from_nanos(decide as u64);
    println!("prefix-invariance decide: {decide:?}");
    assert!(decide < DECIDE_CEILING, "decide took {decide:?} (ceiling {DECIDE_CEILING:?})");
}

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_prefix_invariance_condition_trips_under_its_ceiling() {
    let _gate = exclusive();
    let budget = ResourceBudget::default();
    let graph = build_graph(&prefix_invariance_ltl());
    let trip = mean_ns(
        200,
        2500,
        || graph.clone(),
        |g| condition_of_graph_budgeted_stats(g, &budget, Parallelism::Off).0.is_err(),
    );
    let trip = Duration::from_nanos(trip as u64);
    println!("prefix-invariance condition trip: {trip:?}");
    assert!(
        trip < TRIP_CEILING,
        "the condition budget trip took {trip:?} (ceiling {TRIP_CEILING:?})"
    );
}

// ---------------------------------------------------------------------------
// The session verdict cache and the batch API.
// ---------------------------------------------------------------------------

/// Distinct request bodies, and jobs, of the duplicate-heavy batch.
const DISTINCT: usize = 10;
const JOBS: usize = 100;

/// The warm batch must beat cold recomputation by at least this factor.
const CACHE_SPEEDUP_FLOOR: f64 = 5.0;

/// The pre-flight analysis pass must cost less than this share of the
/// single-worker service batch.
const ANALYSIS_SHARE_CEILING: f64 = 0.05;

/// The duplicate-heavy batch: `DISTINCT` catalogue schemas, bounded
/// 3-proposition sweeps (milliseconds each) alternating with decisions
/// (microseconds), then duplicates cycling over them up to `JOBS` jobs.
fn duplicate_batch() -> Vec<CheckRequest> {
    let distinct: Vec<CheckRequest> = valid::catalogue()
        .into_iter()
        .take(DISTINCT)
        .enumerate()
        .map(|(index, (_, formula))| {
            if index % 2 == 0 {
                CheckRequest::new(formula).bounded(["P", "Q", "A"], 2)
            } else {
                CheckRequest::new(formula).decide()
            }
        })
        .collect();
    assert_eq!(distinct.len(), DISTINCT, "the catalogue covers the distinct pool");
    (0..JOBS).map(|job| distinct[job % DISTINCT].clone()).collect()
}

/// The service batch: every catalogue schema decided, and swept over two
/// and three propositions.
fn service_batch() -> Vec<CheckRequest> {
    valid::catalogue()
        .into_iter()
        .flat_map(|(_, formula)| {
            [
                CheckRequest::new(formula.clone()).decide(),
                CheckRequest::new(formula.clone()).bounded(["P", "Q"], 2),
                CheckRequest::new(formula).bounded(["P", "Q", "A"], 2),
            ]
        })
        .collect()
}

/// The cache must not change a single answer: a fresh session serves every
/// duplicate of the batch from its cache, and its reports equal a cache-off
/// session's, wall clock and the cache counters aside.
#[test]
fn every_duplicate_hits_and_replays_bit_identically() {
    let _gate = exclusive();
    let requests = duplicate_batch();
    let mut cold = Session::new().with_verdict_cache(false).check_many(requests.clone());
    let mut warm = Session::new().check_many(requests);
    let hits: u64 = warm.iter().map(|r| r.stats.cache.hits).sum();
    assert_eq!(hits as usize, JOBS - DISTINCT, "every duplicate hits the fresh warm session");
    for report in cold.iter_mut().chain(warm.iter_mut()) {
        report.stats.duration = Duration::ZERO;
        report.stats.cache = CacheStats::default();
        report.stats.session_cache = CacheStats::default();
    }
    assert_eq!(cold, warm, "cached reports must be bit-identical to recomputation");
}

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_verdict_cache_speeds_the_duplicate_batch_fivefold() {
    let _gate = exclusive();
    let requests = duplicate_batch();
    let cold = mean_ns(
        300,
        2500,
        || (),
        |()| Session::new().with_verdict_cache(false).check_many(requests.clone()).len(),
    );
    let warm = mean_ns(300, 2500, || (), |()| Session::new().check_many(requests.clone()).len());
    let speedup = cold / warm;
    println!("verdict cache: cold {cold:.0} ns, warm {warm:.0} ns, {speedup:.2}x");
    assert!(
        speedup >= CACHE_SPEEDUP_FLOOR,
        "verdict cache speedup {speedup:.2}x on the 90%-duplicate batch ({cold:.0} ns cold vs \
         {warm:.0} ns warm); the floor is {CACHE_SPEEDUP_FLOOR}x"
    );
}

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_analysis_pass_is_a_small_share_of_the_batch() {
    let _gate = exclusive();
    let requests = service_batch();
    let batch = mean_ns(
        300,
        2500,
        || (),
        |()| {
            let session = Session::new().with_parallelism(Parallelism::Fixed(1));
            session.check_many(requests.clone()).len()
        },
    );
    // A persistent arena, like the session's: `prepare` interns the formula
    // anyway, so the pass's own cost is the hash-consed re-walk and the
    // analysis.
    let mut arena = ilogic::core::arena::FormulaArena::default();
    let analysis = mean_ns(
        200,
        1000,
        || (),
        |()| {
            requests
                .iter()
                .map(|r| ilogic::core::analysis::analyze(&mut arena, r.formula()).diagnostics.len())
                .sum::<usize>()
        },
    );
    let share = analysis / batch;
    println!("analysis pass: {analysis:.0} ns of a {batch:.0} ns batch, {:.1}%", share * 100.0);
    assert!(
        share < ANALYSIS_SHARE_CEILING,
        "the analysis pass is {:.1}% of the batch ({analysis:.0} ns of {batch:.0} ns); the \
         ceiling is {:.0}%",
        share * 100.0,
        ANALYSIS_SHARE_CEILING * 100.0
    );
}

// ---------------------------------------------------------------------------
// The differential-fuzz corpus.
// ---------------------------------------------------------------------------

/// The timed instance set: the corpus's first 64 seeds, generated once.
const TIMED_SEEDS: u64 = 64;

/// How many times each timed sweep checks the set.  One fixed set run 1x,
/// 2x and 4x isolates the harness's scaling from the seed mix: later seed
/// ranges hold costlier instances, so growing the seed range would time
/// the mix too.
const REPEATS: [u64; 3] = [1, 2, 4];

/// The measured rate must put CI's 2000-instance corpus under this ceiling
/// (~10 s measured in a release build on a 2-vCPU VM).
const CI_CORPUS: f64 = 2000.0;
const CI_CEILING: Duration = Duration::from_secs(600);

/// Doubling the instances checked may grow the per-instance cost by less
/// than this.
const PER_INSTANCE_GROWTH_CEILING: f64 = 3.0;

#[test]
#[ignore = "ISSUE 22: release-mode timing gate, run by CI's perf-gates job"]
fn the_fuzz_corpus_fits_its_ci_budget_and_scales_linearly() {
    let _gate = exclusive();
    let instances: Vec<Instance> = (0..TIMED_SEEDS).map(Instance::from_seed).collect();
    let sweeps: Vec<(u64, f64)> = REPEATS
        .iter()
        .map(|&repeats| {
            let ns = mean_ns(
                300,
                2500,
                || (),
                |()| {
                    for _ in 0..repeats {
                        let agreed = instances.iter().filter(|i| check_instance(i).is_ok());
                        assert_eq!(agreed.count(), instances.len(), "the timed set must agree");
                    }
                },
            );
            (repeats * TIMED_SEEDS, ns)
        })
        .collect();
    let (largest, largest_ns) = sweeps[sweeps.len() - 1];
    let instances_per_sec = largest as f64 / (largest_ns * 1e-9);
    let ci_seconds = CI_CORPUS / instances_per_sec;
    println!("fuzz corpus: {sweeps:?} ns; {CI_CORPUS} instances ≈ {ci_seconds:.1} s");
    assert!(
        ci_seconds < CI_CEILING.as_secs_f64(),
        "extrapolated CI corpus time {ci_seconds:.0} s exceeds the {CI_CEILING:?} ceiling \
         ({instances_per_sec:.1} instances/sec)"
    );
    for window in sweeps.windows(2) {
        let ((small_n, small_ns), (large_n, large_ns)) = (window[0], window[1]);
        let growth = (large_ns / large_n as f64) / (small_ns / small_n as f64);
        assert!(
            growth < PER_INSTANCE_GROWTH_CEILING,
            "per-instance cost grew {growth:.2}x from {small_n} to {large_n} checks of the \
             same instances; the corpus must scale linearly"
        );
    }
}
