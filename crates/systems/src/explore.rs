//! Small-scope exhaustive exploration of the case-study algorithms.
//!
//! The report argues (Chapter 9) that "no specification method for distributed
//! and concurrent systems can be successful without mechanical verification
//! support", because hand analysis of process interleavings is error-prone.
//! The randomized simulators of this crate exercise *some* interleavings; this
//! module complements them with a systematic explorer that enumerates *every*
//! reachable interleaving of a small configuration, checks a safety predicate
//! in every reachable state, and projects explored runs to traces so that the
//! interval-logic specifications can be checked over them as well.
//!
//! The explorer is generic over a [`Model`]; the module provides
//! [`MutexModel`], a transition-system rendering of the Chapter 8 distributed
//! mutual-exclusion algorithm (with a `skip_inspection` switch reproducing the
//! broken variant), so that the mutual-exclusion property can be verified
//! exhaustively rather than only on sampled schedules.
//!
//! Exploration runs on the calling thread.  Striping each breadth-first
//! frontier across two workers ran at 0.49x on `MutexModel::correct(3, 2)`
//! and 0.80x on `MutexModel::correct(4, 2)`: successor generation is
//! microseconds per state, and the visited-set merge is sequential anyway.

use std::collections::{BTreeMap, BTreeSet};

use ilogic_core::prelude::*;
use ilogic_core::session::RunSource;

/// A finite-state transition system explored by [`explore`].
pub trait Model {
    /// A global state of the system.
    type State: Clone + Ord;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// The enabled transitions of a state: a human-readable action label plus
    /// the successor state.
    fn successors(&self, state: &Self::State) -> Vec<(String, Self::State)>;

    /// Projects a global state onto the propositions recorded in traces.
    fn observe(&self, state: &Self::State) -> State;
}

impl<M: Model + ?Sized> Model for &M {
    type State = M::State;

    fn initial(&self) -> Self::State {
        (**self).initial()
    }

    fn successors(&self, state: &Self::State) -> Vec<(String, Self::State)> {
        (**self).successors(state)
    }

    fn observe(&self, state: &Self::State) -> State {
        (**self).observe(state)
    }
}

/// Resource limits for an exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Maximum length of any explored run (in actions).
    pub max_depth: usize,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits { max_states: 200_000, max_depth: 128 }
    }
}

/// A safety violation found by the explorer.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The sequence of action labels leading to the violating state.
    pub actions: Vec<String>,
    /// The violating run projected to a trace (initial state included).
    pub trace: Trace,
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// Number of distinct states visited.
    pub states: usize,
    /// Number of transitions taken.
    pub transitions: usize,
    /// Whether the exploration was truncated by [`ExploreLimits`].
    pub truncated: bool,
    /// The first safety violation found, if any.
    pub violation: Option<Violation>,
}

impl ExplorationReport {
    /// `true` if no violation was found (and the exploration was complete).
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// Explores every state reachable from the initial state (breadth first),
/// checking `safe` in each and reconstructing a counterexample run for the
/// first violation found.
pub fn explore<M: Model>(
    model: &M,
    limits: ExploreLimits,
    safe: impl Fn(&M::State) -> bool,
) -> ExplorationReport {
    let initial = model.initial();
    let mut parent: BTreeMap<M::State, (M::State, String)> = BTreeMap::new();
    let mut visited: BTreeSet<M::State> = BTreeSet::new();
    visited.insert(initial.clone());

    let mut transitions = 0usize;
    let mut truncated = false;
    let mut violation: Option<Violation> = None;

    if !safe(&initial) {
        violation = Some(reconstruct(model, &parent, &initial));
    }

    // Level-synchronous BFS: `frontier` holds every state at the current
    // depth, in the order they were discovered.
    let mut frontier = vec![initial];
    let mut level_depth = 0usize;
    'levels: while !frontier.is_empty() && violation.is_none() {
        if level_depth >= limits.max_depth {
            truncated = true;
            break;
        }
        let mut next_frontier = Vec::new();
        for state in &frontier {
            for (label, next) in model.successors(state) {
                transitions += 1;
                if visited.contains(&next) {
                    continue;
                }
                if visited.len() >= limits.max_states {
                    truncated = true;
                    break;
                }
                visited.insert(next.clone());
                parent.insert(next.clone(), (state.clone(), label));
                if !safe(&next) {
                    violation = Some(reconstruct(model, &parent, &next));
                    break 'levels;
                }
                next_frontier.push(next);
            }
        }
        frontier = next_frontier;
        level_depth += 1;
    }

    ExplorationReport { states: visited.len(), transitions, truncated, violation }
}

fn reconstruct<M: Model>(
    model: &M,
    parent: &BTreeMap<M::State, (M::State, String)>,
    target: &M::State,
) -> Violation {
    let mut actions = Vec::new();
    let mut states = vec![target.clone()];
    let mut cursor = target.clone();
    while let Some((prev, label)) = parent.get(&cursor) {
        actions.push(label.clone());
        states.push(prev.clone());
        cursor = prev.clone();
    }
    actions.reverse();
    states.reverse();
    let trace = Trace::finite(states.iter().map(|s| model.observe(s)).collect());
    Violation { actions, trace }
}

/// Packages the complete runs of `model` as a *lazy* [`Backend::Explore`]
/// value: runs are streamed out of a depth-first [`RunIter`] one at a time
/// while the check executes, so the checker's memory footprint is one run,
/// not the whole run set.
///
/// ```
/// use ilogic_core::prelude::*;
/// use ilogic_core::dsl::*;
/// use ilogic_systems::explore::{explore_backend, ExploreLimits, MutexModel};
///
/// let model = MutexModel::correct(2, 1);
/// let mut session = Session::new();
/// let request = CheckRequest::new(always(prop("ok").or(prop("ok").not())))
///     .with_backend(explore_backend(&model, ExploreLimits::default(), 16));
/// assert!(session.check(request).verdict.passed());
/// ```
pub fn explore_backend<M>(model: &M, limits: ExploreLimits, max_runs: usize) -> Backend
where
    M: Model + Clone + Send + Sync + 'static,
    M::State: Send,
{
    let model = model.clone();
    Backend::Explore {
        runs: RunSource::lazy(move || RunIter::new(model.clone(), limits, max_runs)),
    }
}

/// One randomly scheduled run of the model, projected onto a trace: at every
/// state a uniformly chosen enabled transition is taken, until the system
/// quiesces or `max_steps` transitions have fired.  Deterministic in `seed` —
/// this is how the simulators and the differential-fuzz corpus sample
/// schedules the exhaustive explorer would only reach late.
pub fn random_run<M: Model>(model: &M, max_steps: usize, seed: u64) -> Trace {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = model.initial();
    let mut states = vec![model.observe(&state)];
    for _ in 0..max_steps {
        let mut successors = model.successors(&state);
        if successors.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..successors.len());
        state = successors.swap_remove(pick).1;
        states.push(model.observe(&state));
    }
    Trace::finite(states)
}

/// Enumerates complete runs of the model (depth-first, up to the limits) and
/// projects each onto a trace.  A run is complete when it reaches a state with
/// no enabled transition or the depth limit.
///
/// Collects the whole run set eagerly; prefer [`RunIter`] (or the lazy
/// [`explore_backend`]) when the runs are only consumed once.
pub fn collect_runs<M: Model>(model: &M, limits: ExploreLimits, max_runs: usize) -> Vec<Trace> {
    RunIter::new(model, limits, max_runs).collect()
}

/// A streaming depth-first enumerator of the complete runs of a model.
///
/// Yields each complete run (a path from the initial state to a state with no
/// fresh successor, or to the depth limit) projected onto a [`Trace`], in
/// depth-first order — the same order and run set `collect_runs` materializes.
/// Transitions that immediately revisit a state already on the path are
/// filtered out: they only pump cycles and never add new observable
/// behaviour.
///
/// The iterator owns its model (use a `&M` model — [`Model`] is implemented
/// for references — to borrow instead), holds only the current path plus one
/// pending-successor frame per depth, and is `Send` whenever the model and its
/// states are, which is what lets [`explore_backend`] hand it to a session
/// as a lazy run source.
#[derive(Debug)]
pub struct RunIter<M: Model> {
    model: M,
    limits: ExploreLimits,
    max_runs: usize,
    emitted: usize,
    path: Vec<M::State>,
    on_path: BTreeSet<M::State>,
    /// Remaining untried successors at each depth; `pending.len()` is always
    /// `path.len() - 1` outside of `next` (frame `d` holds the siblings of
    /// `path[d + 1]`).
    pending: Vec<std::vec::IntoIter<M::State>>,
    /// Whether the tip of `path` still needs to be expanded.
    descend: bool,
    done: bool,
}

impl<M: Model> RunIter<M> {
    /// An iterator over the complete runs of `model`.
    pub fn new(model: M, limits: ExploreLimits, max_runs: usize) -> RunIter<M> {
        let initial = model.initial();
        RunIter {
            model,
            limits,
            max_runs,
            emitted: 0,
            path: vec![initial],
            on_path: BTreeSet::new(),
            pending: Vec::new(),
            descend: true,
            done: false,
        }
    }

    fn project(&self) -> Trace {
        Trace::finite(self.path.iter().map(|s| self.model.observe(s)).collect())
    }

    /// Pops the current tip and advances to its next pending sibling.
    /// Returns `false` when the whole tree is exhausted.
    fn backtrack(&mut self) -> bool {
        loop {
            let Some(frame) = self.pending.last_mut() else {
                return false;
            };
            let tip = self.path.pop().expect("path holds a state per frame");
            self.on_path.remove(&tip);
            if let Some(sibling) = frame.next() {
                self.on_path.insert(sibling.clone());
                self.path.push(sibling);
                self.descend = true;
                return true;
            }
            self.pending.pop();
        }
    }
}

impl<M: Model> Iterator for RunIter<M> {
    type Item = Trace;

    fn next(&mut self) -> Option<Trace> {
        if self.done || self.emitted >= self.max_runs {
            return None;
        }
        loop {
            if self.descend {
                self.descend = false;
                let tip = self.path.last().expect("path is never empty");
                let fresh: Vec<M::State> = self
                    .model
                    .successors(tip)
                    .into_iter()
                    .map(|(_, next)| next)
                    .filter(|next| !self.on_path.contains(next))
                    .collect();
                if fresh.is_empty() || self.path.len() > self.limits.max_depth {
                    let run = self.project();
                    self.emitted += 1;
                    if !self.backtrack() {
                        self.done = true;
                    }
                    return Some(run);
                }
                let mut frame = fresh.into_iter();
                let first = frame.next().expect("fresh is non-empty");
                self.pending.push(frame);
                self.on_path.insert(first.clone());
                self.path.push(first);
                self.descend = true;
            } else if !self.backtrack() {
                self.done = true;
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The Chapter 8 distributed mutual-exclusion algorithm as a model.
// ---------------------------------------------------------------------------

/// Per-process phase of the mutual-exclusion algorithm.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutexPhase {
    /// Not competing; the number of critical-section entries still to perform.
    Idle(usize),
    /// Flag set; the other processes still to be observed false, plus the
    /// remaining entry budget.
    Checking(Vec<usize>, usize),
    /// In the critical section; remaining entry budget after this entry.
    Critical(usize),
    /// Finished.
    Done,
}

/// A global state: one phase per process.
pub type MutexState = Vec<MutexPhase>;

/// The distributed mutual-exclusion algorithm of Chapter 8 as an explorable
/// transition system.
#[derive(Clone, Copy, Debug)]
pub struct MutexModel {
    /// Number of processes.
    pub processes: usize,
    /// Critical-section entries each process performs.
    pub entries: usize,
    /// Reproduces the broken variant: processes enter without inspecting the
    /// other flags.
    pub skip_inspection: bool,
}

impl MutexModel {
    /// The correct algorithm.
    pub fn correct(processes: usize, entries: usize) -> MutexModel {
        MutexModel { processes, entries, skip_inspection: false }
    }

    /// The broken variant that skips flag inspection.
    pub fn broken(processes: usize, entries: usize) -> MutexModel {
        MutexModel { processes, entries, skip_inspection: true }
    }

    fn flag_up(phase: &MutexPhase) -> bool {
        matches!(phase, MutexPhase::Checking(_, _) | MutexPhase::Critical(_))
    }

    fn in_cs(phase: &MutexPhase) -> bool {
        matches!(phase, MutexPhase::Critical(_))
    }

    /// The safety property of Figure 8-1's derived theorem: at most one
    /// process in the critical section.
    pub fn mutual_exclusion(state: &MutexState) -> bool {
        state.iter().filter(|p| MutexModel::in_cs(p)).count() <= 1
    }
}

impl Model for MutexModel {
    type State = MutexState;

    fn initial(&self) -> MutexState {
        vec![MutexPhase::Idle(self.entries); self.processes]
    }

    fn successors(&self, state: &MutexState) -> Vec<(String, MutexState)> {
        let mut result = Vec::new();
        for i in 0..self.processes {
            match &state[i] {
                MutexPhase::Idle(0) => {
                    let mut next = state.clone();
                    next[i] = MutexPhase::Done;
                    result.push((format!("finish({i})"), next));
                }
                MutexPhase::Idle(budget) => {
                    // Signal the intention to enter: set x(i).
                    let mut next = state.clone();
                    let to_check = if self.skip_inspection {
                        Vec::new()
                    } else {
                        (0..self.processes).filter(|&j| j != i).collect()
                    };
                    next[i] = MutexPhase::Checking(to_check, *budget);
                    result.push((format!("set_flag({i})"), next));
                }
                MutexPhase::Checking(to_check, budget) => {
                    if let Some(&j) = to_check.first() {
                        // Observe x(j): abandon if it is up, tick it off otherwise.
                        let mut next = state.clone();
                        if MutexModel::flag_up(&state[j]) {
                            next[i] = MutexPhase::Idle(*budget);
                            result.push((format!("abandon({i},{j})"), next));
                        } else {
                            let rest = to_check[1..].to_vec();
                            next[i] = MutexPhase::Checking(rest, *budget);
                            result.push((format!("observe({i},{j})"), next));
                        }
                    } else {
                        // Every other flag has been observed false: enter.
                        let mut next = state.clone();
                        next[i] = MutexPhase::Critical(*budget - 1);
                        result.push((format!("enter({i})"), next));
                    }
                }
                MutexPhase::Critical(budget) => {
                    let mut next = state.clone();
                    next[i] = MutexPhase::Idle(*budget);
                    result.push((format!("exit({i})"), next));
                }
                MutexPhase::Done => {}
            }
        }
        result
    }

    fn observe(&self, state: &MutexState) -> State {
        let mut observed = State::new();
        for (i, phase) in state.iter().enumerate() {
            if MutexModel::flag_up(phase) {
                observed.insert(Prop::with_args("x", [i as i64]));
            }
            if MutexModel::in_cs(phase) {
                observed.insert(Prop::with_args("cs", [i as i64]));
            }
        }
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutex::mutual_exclusion_holds;
    use crate::specs::mutual_exclusion_spec;

    #[test]
    fn correct_algorithm_is_verified_exhaustively_for_two_processes() {
        let model = MutexModel::correct(2, 2);
        let report = explore(&model, ExploreLimits::default(), MutexModel::mutual_exclusion);
        assert!(report.verified(), "violation: {:?}", report.violation.map(|v| v.actions));
        assert!(report.states > 10);
    }

    #[test]
    fn correct_algorithm_is_verified_exhaustively_for_three_processes() {
        let model = MutexModel::correct(3, 1);
        let report = explore(&model, ExploreLimits::default(), MutexModel::mutual_exclusion);
        assert!(report.verified(), "violation: {:?}", report.violation.map(|v| v.actions));
        assert!(report.states > 50);
    }

    #[test]
    fn broken_algorithm_yields_a_counterexample_run() {
        let model = MutexModel::broken(2, 1);
        let report = explore(&model, ExploreLimits::default(), MutexModel::mutual_exclusion);
        let violation = report.violation.expect("the broken variant must be caught");
        assert!(!mutual_exclusion_holds(&violation.trace, 2));
        // The counterexample really interleaves two entries.
        assert!(violation.actions.iter().filter(|a| a.starts_with("enter")).count() == 2);
    }

    #[test]
    fn explored_runs_satisfy_the_figure_8_1_specification() {
        let model = MutexModel::correct(2, 1);
        let runs = collect_runs(&model, ExploreLimits::default(), 64);
        assert!(!runs.is_empty());
        let spec = mutual_exclusion_spec();
        let session = Session::new();
        for trace in &runs {
            let report = session.check_spec(&spec, trace);
            assert!(report.passed(), "spec violated on run {trace}: {:?}", report.failures());
        }
    }

    #[test]
    fn explore_backend_routes_runs_through_the_session_api() {
        let model = MutexModel::correct(2, 1);
        let backend = explore_backend(&model, ExploreLimits::default(), 64);
        let theorem =
            ilogic_core::spec::close_free_variables(&crate::specs::mutual_exclusion_theorem());
        let session = Session::new();
        let report = session.check(CheckRequest::new(theorem.clone()).with_backend(backend));
        assert_eq!(report.backend, "explore");
        assert!(report.verdict.passed(), "{}", report.verdict);
        assert!(report.stats.traces_checked > 0);

        // The broken variant's runs are rejected with a concrete counterexample run.
        let broken = explore_backend(&MutexModel::broken(2, 1), ExploreLimits::default(), 64);
        let report = session.check(CheckRequest::new(theorem).with_backend(broken));
        assert!(report.verdict.counterexample().is_some());
    }

    #[test]
    fn run_iter_streams_the_same_runs_collect_runs_materializes() {
        let model = MutexModel::correct(2, 1);
        let collected = collect_runs(&model, ExploreLimits::default(), 64);
        let streamed: Vec<Trace> = RunIter::new(&model, ExploreLimits::default(), 64).collect();
        assert_eq!(streamed, collected);
        // The run cap truncates the stream at the same prefix.
        let capped: Vec<Trace> = RunIter::new(&model, ExploreLimits::default(), 5).collect();
        assert_eq!(capped.as_slice(), &collected[..5]);
    }

    #[test]
    fn exploration_limits_are_respected() {
        let model = MutexModel::correct(3, 2);
        let limits = ExploreLimits { max_states: 25, max_depth: 8 };
        let report = explore(&model, limits, MutexModel::mutual_exclusion);
        assert!(report.truncated);
        assert!(report.states <= 25);
        assert!(!report.verified());
    }

    #[test]
    fn collect_runs_projects_initial_and_final_states() {
        let model = MutexModel::correct(2, 1);
        let runs = collect_runs(&model, ExploreLimits::default(), 8);
        for trace in &runs {
            // Initial state: no flags, no critical sections.
            assert!(trace.states()[0].props().count() == 0);
        }
    }
}
