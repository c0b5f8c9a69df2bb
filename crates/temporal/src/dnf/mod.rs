//! Positive disjunctive normal forms over edge atoms.
//!
//! Algorithm B manipulates *conditions*: monotone Boolean combinations of the
//! atoms "□¬prop(e)" for edges `e` of the tableau graph.  A monotone Boolean
//! function has a unique minimal DNF (its prime implicants), so representing
//! conditions as antichains of implicant sets gives a canonical form that
//! makes the fixpoint convergence test a pure equality check.
//!
//! The module carries **two representations** of that canonical form:
//!
//! * [`Dnf`] — the explicit `BTreeSet<BTreeSet<usize>>` value type.  Simple,
//!   self-contained, and the *differential baseline*: every interned
//!   operation is property-tested against it, and
//!   [`Dnf::all_bounded_estimated`] preserves the PR 3 estimate-cut product
//!   for benchmark comparison.
//! * [`store::ConditionStore`] — the interned arena the engines actually run
//!   on.  Implicants are hash-consed to `Copy` [`store::ImplicantId`]s
//!   (each distinct atom set stored once), whole antichains to
//!   [`store::DnfId`]s (equality = id equality), `∧`/`∨` products are
//!   memoized per `(DnfId, DnfId)` pair, and absorption is an incremental
//!   bitset-probe insert that never materializes the pre-absorption product.
//!   See the [`store`] module documentation for the design.
//!
//! Canonicity is also what the semi-naive worklist engine of
//! [`crate::algorithm_b`] leans on: an equation whose input ids did not
//! change replays to the id it already has, so skipping it (and the whole
//! verification round of a converged component) is invisible to the store.  The
//! historical flip side was cost — on the nested weak-until translations of
//! interval formulas (the measured `[ => Q ] []P` family) the pre-absorption
//! products grow combinatorially over thousands of edge atoms, which is
//! exactly the duplication the interned store collapses.  [`Dnf::all_bounded`]
//! routes through the store, and the shared [`DnfBudget`] cell now charges
//! **distinct interned implicants** ([`DnfBudget::charge`]): re-deriving a
//! known implicant is free, the first computation to push the distinct count
//! past the cap trips the cell, and the whole computation cuts over to an honest "unknown" instead of stalling.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::pool::{Exhaustion, ResourceBudget};

pub mod store;

/// The widest a *minimal* DNF over `atoms` edge atoms can possibly be,
/// saturating at `u64::MAX`.
///
/// A minimal DNF is an antichain of implicant sets, and by Sperner's theorem
/// the largest antichain over an `atoms`-element set has
/// `C(atoms, ⌊atoms/2⌋)` members.  This is the width hook behind the
/// `ilogic-core` cost estimator: it clamps structural width predictions to
/// what an antichain can mathematically reach without running any condition
/// computation (the bound saturates past 67 atoms — by then the width is
/// astronomically beyond any practical implicant budget anyway).
pub fn antichain_width_bound(atoms: usize) -> u64 {
    let n = atoms as u64;
    let k = n / 2;
    // C(n, k) built incrementally: multiply before divide keeps the running
    // value integral; checked ops saturate the whole bound on overflow.
    let mut result: u64 = 1;
    for i in 1..=k {
        let Some(scaled) = result.checked_mul(n - k + i) else {
            return u64::MAX;
        };
        result = scaled / i;
    }
    result
}

/// A shared, atomic implicant budget for a batch of DNF computations.
///
/// One cell is created per [`crate::algorithm_b`] condition computation and
/// shared by every equation it evaluates: the first computation to exceed
/// the budget [`DnfBudget::trip`]s the cell, and every later
/// [`Dnf::all_bounded`] aborts at its next fold step.  Because a trip means
/// the whole computation's answer is already `None`, the early aborts never
/// change an answer — they only stop the fixpoint from burning CPU on a
/// result that is doomed.
///
/// A cell built from a [`ResourceBudget`] ([`DnfBudget::from_budget`]) also
/// carries the budget's wall-clock deadline and cancellation token:
/// [`Dnf::all_bounded`] polls them on entry and trips the cell with
/// [`Exhaustion::Deadline`] / [`Exhaustion::Cancelled`], so a runaway
/// fixpoint honours the same cutoffs as every other engine.  The reason the
/// cell tripped is recorded and exposed by [`DnfBudget::exhaustion`].
#[derive(Debug)]
pub struct DnfBudget {
    limit: usize,
    /// The originating budget, consulted only for its timing cutoffs
    /// ([`ResourceBudget::interrupted`] — one implementation of the
    /// cancel-then-deadline priority for every engine); `None` for the
    /// cap-only constructors.
    timing: Option<ResourceBudget>,
    /// Distinct implicants charged so far ([`DnfBudget::charge`]).
    charged: AtomicUsize,
    tripped: AtomicBool,
    /// The first recorded trip reason ([`OnceLock`]: later [`trip_with`]
    /// calls lose the `set` race and their reason is dropped — pinned by the
    /// `first_trip_reason_wins_under_concurrent_trips` regression test).
    ///
    /// [`trip_with`]: DnfBudget::trip_with
    reason: OnceLock<Exhaustion>,
}

impl DnfBudget {
    /// A budget allowing at most `limit` *distinct* implicants across every
    /// computation sharing this cell (see [`DnfBudget::charge`]).
    pub fn new(limit: usize) -> DnfBudget {
        DnfBudget {
            limit,
            timing: None,
            charged: AtomicUsize::new(0),
            tripped: AtomicBool::new(false),
            reason: OnceLock::new(),
        }
    }

    /// A cell enforcing `budget`'s implicant cap, deadline, and cancellation
    /// token.
    pub fn from_budget(budget: &ResourceBudget) -> DnfBudget {
        DnfBudget {
            limit: budget.max_implicants(),
            timing: Some(budget.clone()),
            charged: AtomicUsize::new(0),
            tripped: AtomicBool::new(false),
            reason: OnceLock::new(),
        }
    }

    /// No budget: computations run to completion however large they get.
    pub fn unbounded() -> DnfBudget {
        DnfBudget::new(usize::MAX)
    }

    /// The implicant cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// `true` when the implicant cap has no effect (the timing cutoffs, if
    /// any, still apply).
    pub fn is_unbounded(&self) -> bool {
        self.limit == usize::MAX
    }

    /// Charges `new_implicants` freshly interned implicants to the cell;
    /// `false` when the running total exceeds [`DnfBudget::limit`] (the cell
    /// is then tripped with [`Exhaustion::Implicants`]) or the cell was
    /// already tripped.
    ///
    /// The [`store::ConditionStore`] calls this exactly once per *distinct*
    /// implicant — duplicates are interning hits and charge nothing — so the
    /// cap bounds the size of the condition space explored, not the number of
    /// operations.  The total charged is a commutative sum over sharers,
    /// which keeps the trip/no-trip outcome independent of evaluation order
    /// for any fixed set of computations.
    pub fn charge(&self, new_implicants: usize) -> bool {
        if self.tripped() {
            return false;
        }
        if self.limit == usize::MAX {
            return true;
        }
        let total = self.charged.fetch_add(new_implicants, Ordering::Relaxed) + new_implicants;
        if total > self.limit {
            self.trip();
            return false;
        }
        true
    }

    /// Distinct implicants charged so far.
    pub fn charged(&self) -> usize {
        self.charged.load(Ordering::Relaxed)
    }

    /// Marks the budget as exhausted by the implicant cap, telling every
    /// sharer to abort.
    pub fn trip(&self) {
        self.trip_with(Exhaustion::Implicants);
    }

    /// Marks the budget as exhausted for `reason`; the first recorded reason
    /// wins.
    pub fn trip_with(&self, reason: Exhaustion) {
        let _ = self.reason.set(reason);
        self.tripped.store(true, Ordering::Release);
    }

    /// `true` once any sharer exceeded the budget.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Why the cell tripped, if it has.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.reason.get().copied()
    }

    /// Polls the timing cutoffs, tripping the cell if one fired; returns
    /// `true` when the cell is (now) tripped.
    pub(crate) fn poll_interrupts(&self) -> bool {
        if self.tripped() {
            return true;
        }
        if let Some(cut) = self.timing.as_ref().and_then(ResourceBudget::interrupted) {
            self.trip_with(cut);
            return true;
        }
        false
    }
}

/// A monotone condition in minimal disjunctive normal form.
///
/// An implicant is a set of edge identifiers, read as the conjunction of the
/// corresponding "□¬prop(e)" atoms; the condition is the disjunction of its
/// implicants.  The empty implicant is `true`; the empty set of implicants is
/// `false`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Dnf {
    implicants: BTreeSet<BTreeSet<usize>>,
}

impl Dnf {
    /// The condition `false`.
    pub fn bottom() -> Dnf {
        Dnf { implicants: BTreeSet::new() }
    }

    /// The condition `true`.
    pub fn top() -> Dnf {
        let mut implicants = BTreeSet::new();
        implicants.insert(BTreeSet::new());
        Dnf { implicants }
    }

    /// The condition consisting of the single atom `id`.
    pub fn atom(id: usize) -> Dnf {
        let mut implicant = BTreeSet::new();
        implicant.insert(id);
        let mut implicants = BTreeSet::new();
        implicants.insert(implicant);
        Dnf { implicants }
    }

    /// `true` if the condition is identically false.
    pub fn is_bottom(&self) -> bool {
        self.implicants.is_empty()
    }

    /// `true` if the condition is identically true.
    pub fn is_top(&self) -> bool {
        self.implicants.contains(&BTreeSet::new())
    }

    /// The implicants of the condition.
    pub fn implicants(&self) -> impl Iterator<Item = &BTreeSet<usize>> {
        self.implicants.iter()
    }

    /// The number of implicants.
    pub fn implicant_count(&self) -> usize {
        self.implicants.len()
    }

    /// Wraps an implicant set the caller guarantees is already a minimal
    /// antichain — the [`store::ConditionStore`] extraction path, where
    /// minimality is an interning invariant.
    pub(crate) fn from_implicants_unchecked(implicants: BTreeSet<BTreeSet<usize>>) -> Dnf {
        debug_assert!(
            implicants
                .iter()
                .all(|imp| !implicants.iter().any(|other| other != imp && other.is_subset(imp))),
            "store extraction must hand over a minimal antichain"
        );
        Dnf { implicants }
    }

    /// Removes implicants that are supersets of other implicants (absorption).
    fn absorb(mut implicants: BTreeSet<BTreeSet<usize>>) -> Dnf {
        let list: Vec<BTreeSet<usize>> = implicants.iter().cloned().collect();
        implicants.retain(|imp| !list.iter().any(|other| other != imp && other.is_subset(imp)));
        Dnf { implicants }
    }

    /// Disjunction of two conditions.
    pub fn or(&self, other: &Dnf) -> Dnf {
        if self.is_top() || other.is_top() {
            return Dnf::top();
        }
        let mut implicants = self.implicants.clone();
        implicants.extend(other.implicants.iter().cloned());
        Dnf::absorb(implicants)
    }

    /// Conjunction of two conditions.
    pub fn and(&self, other: &Dnf) -> Dnf {
        if self.is_bottom() || other.is_bottom() {
            return Dnf::bottom();
        }
        let mut implicants = BTreeSet::new();
        for a in &self.implicants {
            for b in &other.implicants {
                let mut joined = a.clone();
                joined.extend(b.iter().copied());
                implicants.insert(joined);
            }
        }
        Dnf::absorb(implicants)
    }

    /// Disjunction of an iterator of conditions.
    pub fn any<I: IntoIterator<Item = Dnf>>(items: I) -> Dnf {
        items.into_iter().fold(Dnf::bottom(), |acc, d| acc.or(&d))
    }

    /// Conjunction of an iterator of conditions.
    pub fn all<I: IntoIterator<Item = Dnf>>(items: I) -> Dnf {
        items.into_iter().fold(Dnf::top(), |acc, d| acc.and(&d))
    }

    /// Conjunction of DNF terms under a shared budget, computed through a
    /// fresh [`store::ConditionStore`]: `None` when the number of *distinct*
    /// implicants explored (term implicants plus every product implicant,
    /// each counted once however often it recurs) exceeds
    /// [`DnfBudget::limit`], or when another sharer of `budget` has already
    /// tripped it.
    ///
    /// This replaces the PR 3 pre-absorption estimate cut (kept as
    /// [`Dnf::all_bounded_estimated`] for differential benchmarks), which
    /// tripped on `Π |termᵢ|` even when absorption would have collapsed the
    /// product to a handful of implicants — the measured failure mode of the
    /// `[ => Q ] []P` condition fixpoint.  Charging distinct implicants lets
    /// heavily-absorbing products complete under modest budgets while still
    /// cutting a genuinely exploding computation off deterministically.
    /// The per-call distinct count is a function of the term multiset alone
    /// (interning dedups whatever the arrival order), so the `Some`/`None`
    /// answer does not depend on evaluation or association order.
    pub fn all_bounded(terms: Vec<Dnf>, budget: &DnfBudget) -> Option<Dnf> {
        if budget.poll_interrupts() {
            // Another sharer already blew the budget (or the deadline or
            // cancel token fired): the batch's answer is `None` regardless of
            // this product, so don't bother computing it.
            return None;
        }
        if terms.iter().any(Dnf::is_bottom) {
            // The product is ⊥ whatever the other terms hold; charging their
            // implicants would be pure noise.
            return Some(Dnf::bottom());
        }
        let mut store = store::ConditionStore::new();
        let mut ids = Vec::with_capacity(terms.len());
        for term in &terms {
            ids.push(store.intern_dnf(term, budget)?);
        }
        let result = store.all(&ids, budget)?;
        Some(store.extract(result))
    }

    /// The PR 3 implementation of [`Dnf::all_bounded`]: `None` when the
    /// pre-absorption product estimate `Π max(1, |termᵢ|)` exceeds
    /// [`DnfBudget::limit`].
    ///
    /// Kept as the *baseline* the interned path is benchmarked and
    /// property-tested against.  The estimate is a sound but badly
    /// conservative cut: it bounds every intermediate and final implicant
    /// count, so an accepted estimate caps the computation's cost — but it
    /// also trips on products absorption would have collapsed, which is what
    /// made the nested weak-until condition fixpoints answer `Unknown` at
    /// every budget from 10⁴ to 10⁷ implicants.
    pub fn all_bounded_estimated(terms: Vec<Dnf>, budget: &DnfBudget) -> Option<Dnf> {
        if budget.poll_interrupts() {
            return None;
        }
        if !budget.is_unbounded() {
            let estimate = terms.iter().try_fold(1usize, |acc, term| {
                acc.checked_mul(term.implicant_count().max(1)).filter(|&est| est <= budget.limit())
            });
            if estimate.is_none() {
                budget.trip();
                return None;
            }
        }
        let mut acc = Dnf::top();
        for term in &terms {
            if budget.tripped() {
                return None;
            }
            acc = acc.and(term);
        }
        debug_assert!(
            budget.is_unbounded() || acc.implicant_count() <= budget.limit(),
            "a canonical product can never exceed its accepted pre-absorption estimate"
        );
        Some(acc)
    }

    /// Evaluates the condition under an assignment of atoms to Booleans.
    pub fn eval(&self, assignment: &dyn Fn(usize) -> bool) -> bool {
        self.implicants.iter().any(|imp| imp.iter().all(|&id| assignment(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave() {
        assert!(Dnf::bottom().is_bottom());
        assert!(Dnf::top().is_top());
        assert!(!Dnf::atom(1).is_bottom());
        assert!(!Dnf::atom(1).is_top());
    }

    #[test]
    fn lattice_laws() {
        let a = Dnf::atom(1);
        let b = Dnf::atom(2);
        assert_eq!(a.or(&Dnf::bottom()), a);
        assert_eq!(a.and(&Dnf::top()), a);
        assert_eq!(a.and(&Dnf::bottom()), Dnf::bottom());
        assert_eq!(a.or(&Dnf::top()), Dnf::top());
        assert_eq!(a.or(&b), b.or(&a));
        assert_eq!(a.and(&b), b.and(&a));
    }

    #[test]
    fn absorption_keeps_minimal_implicants() {
        // a ∨ (a ∧ b) = a
        let a = Dnf::atom(1);
        let ab = Dnf::atom(1).and(&Dnf::atom(2));
        assert_eq!(a.or(&ab), a);
        // (a ∨ b) ∧ a = a
        let aorb = Dnf::atom(1).or(&Dnf::atom(2));
        assert_eq!(aorb.and(&a), a);
    }

    #[test]
    fn distribution() {
        // (a ∨ b) ∧ c = (a∧c) ∨ (b∧c)
        let lhs = Dnf::atom(1).or(&Dnf::atom(2)).and(&Dnf::atom(3));
        let rhs = Dnf::atom(1).and(&Dnf::atom(3)).or(&Dnf::atom(2).and(&Dnf::atom(3)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eval_matches_structure() {
        let cond = Dnf::atom(1).and(&Dnf::atom(2)).or(&Dnf::atom(3));
        assert!(cond.eval(&|id| id == 3));
        assert!(cond.eval(&|id| id == 1 || id == 2));
        assert!(!cond.eval(&|id| id == 1));
        assert!(Dnf::top().eval(&|_| false));
        assert!(!Dnf::bottom().eval(&|_| true));
    }

    #[test]
    fn any_and_all_fold_correctly() {
        let items = vec![Dnf::atom(1), Dnf::atom(2)];
        assert_eq!(Dnf::any(items.clone()), Dnf::atom(1).or(&Dnf::atom(2)));
        assert_eq!(Dnf::all(items), Dnf::atom(1).and(&Dnf::atom(2)));
        assert_eq!(Dnf::any(Vec::new()), Dnf::bottom());
        assert_eq!(Dnf::all(Vec::new()), Dnf::top());
    }

    #[test]
    fn empty_conditions_under_a_budget() {
        // The empty conjunction is ⊤ even under the tightest budget (⊤ has
        // one — empty — implicant, within any limit ≥ 1).
        let budget = DnfBudget::new(1);
        assert_eq!(Dnf::all_bounded(Vec::new(), &budget), Some(Dnf::top()));
        assert!(!budget.tripped());
        // A conjunction with a ⊥ term collapses to ⊥ (zero implicants), which
        // also fits every budget; the max(1, ·) estimate must not zero out
        // the product.
        let with_bottom = vec![Dnf::atom(1), Dnf::bottom(), Dnf::atom(2)];
        assert_eq!(Dnf::all_bounded(with_bottom, &budget), Some(Dnf::bottom()));
        assert!(!budget.tripped());
    }

    #[test]
    fn absorption_inside_a_bounded_product() {
        // (a ∨ b) ∧ (a ∨ c) expands to a ∨ ac ∨ ab ∨ bc and absorbs to
        // a ∨ bc; the canonical result must match the unbudgeted fold.  The
        // distinct implicants *charged* are the three atoms plus the one
        // surviving product implicant bc — the ab/ac transients die inside
        // the raw product builder before interning — so a budget of 4 fits
        // exactly.
        let a_or_ab = Dnf::atom(1).or(&Dnf::atom(1).and(&Dnf::atom(2)));
        assert_eq!(a_or_ab, Dnf::atom(1), "absorption keeps the minimal implicant");
        let terms = vec![Dnf::atom(1).or(&Dnf::atom(2)), Dnf::atom(1).or(&Dnf::atom(3))];
        let unbudgeted = Dnf::all(terms.clone());
        let budget = DnfBudget::new(4);
        assert_eq!(Dnf::all_bounded(terms, &budget), Some(unbudgeted));
        assert_eq!(budget.charged(), 4);
        assert!(!budget.tripped());
    }

    #[test]
    fn budget_exhaustion_boundary() {
        // (a ∨ b) ∧ (c ∨ d): 4 atom implicants plus 4 distinct product
        // implicants = 8 distinct implicants explored, result 4 implicants.
        let terms = || vec![Dnf::atom(1).or(&Dnf::atom(2)), Dnf::atom(3).or(&Dnf::atom(4))];
        // Budget exactly at the boundary: allowed, cell untouched.
        let exact = DnfBudget::new(8);
        let result = Dnf::all_bounded(terms(), &exact).expect("charge == limit must pass");
        assert_eq!(result.implicant_count(), 4);
        assert_eq!(exact.charged(), 8);
        assert!(!exact.tripped());
        // One below: the last distinct product implicant trips the cell, and
        // the cell records it for every sharer.
        let tight = DnfBudget::new(7);
        assert_eq!(Dnf::all_bounded(terms(), &tight), None);
        assert!(tight.tripped());
        // A tripped cell rejects even trivially small follow-up work.
        assert_eq!(Dnf::all_bounded(vec![Dnf::atom(1)], &tight), None);
        // The unbounded budget never trips (and never counts).
        let unbounded = DnfBudget::unbounded();
        assert!(unbounded.is_unbounded());
        assert_eq!(Dnf::all_bounded(terms(), &unbounded), Some(result.clone()));
        assert!(!unbounded.tripped());
        // The estimate-cut baseline still trips on its pre-absorption
        // estimate: 2 × 2 = 4 > 3.
        let baseline = DnfBudget::new(3);
        assert_eq!(Dnf::all_bounded_estimated(terms(), &baseline), None);
        assert!(baseline.tripped());
        let baseline_fit = DnfBudget::new(4);
        assert_eq!(
            Dnf::all_bounded_estimated(terms(), &baseline_fit).as_ref(),
            Some(&result),
            "baseline and interned paths agree whenever neither trips"
        );
    }

    #[test]
    fn budgets_record_why_they_tripped() {
        use crate::pool::{CancelToken, Exhaustion, ResourceBudget};
        // Implicant-cap trip records Implicants.
        let tight = DnfBudget::new(1);
        let wide = vec![Dnf::atom(1).or(&Dnf::atom(2)), Dnf::atom(3).or(&Dnf::atom(4))];
        assert_eq!(Dnf::all_bounded(wide.clone(), &tight), None);
        assert_eq!(tight.exhaustion(), Some(Exhaustion::Implicants));
        // The first recorded reason wins.
        tight.trip_with(Exhaustion::Deadline);
        assert_eq!(tight.exhaustion(), Some(Exhaustion::Implicants));
        // A cancelled token trips the cell before any product is expanded.
        let token = CancelToken::new();
        token.cancel();
        let cancelled =
            DnfBudget::from_budget(&ResourceBudget::unbounded().with_cancel(token.clone()));
        assert!(cancelled.is_unbounded());
        assert_eq!(Dnf::all_bounded(vec![Dnf::atom(1)], &cancelled), None);
        assert_eq!(cancelled.exhaustion(), Some(Exhaustion::Cancelled));
        // An expired deadline does the same.
        let expired = DnfBudget::from_budget(
            &ResourceBudget::unbounded().with_timeout(std::time::Duration::ZERO),
        );
        assert_eq!(Dnf::all_bounded(vec![Dnf::atom(1)], &expired), None);
        assert_eq!(expired.exhaustion(), Some(Exhaustion::Deadline));
        // An untripped cell reports nothing.
        assert_eq!(DnfBudget::unbounded().exhaustion(), None);
    }

    #[test]
    fn canonical_inputs_keep_charges_tight() {
        // Terms are canonical *before* the product: `a ∨ ab` absorbs to `a`
        // at construction, so interning it charges a single distinct
        // implicant and the conjunction fits the tightest budget.
        let terms = vec![Dnf::atom(1).or(&Dnf::atom(1).and(&Dnf::atom(2)))];
        let budget = DnfBudget::new(1);
        assert_eq!(Dnf::all_bounded(terms, &budget), Some(Dnf::atom(1)));
        assert_eq!(budget.charged(), 1);
        assert!(!budget.tripped());
    }

    #[test]
    fn first_trip_reason_wins_under_concurrent_trips() {
        // The trip reason is a `OnceLock`: later trips lose the `set` race
        // and are dropped.  This is the contract `CheckStats` and the JSON
        // reports rely on — one stable exhaustion reason per computation —
        // and it must survive representation rewrites, so pin it both
        // sequentially and under a real multi-thread race.
        use crate::pool::{Parallelism, WorkerPool};
        let cell = DnfBudget::new(0);
        cell.trip_with(Exhaustion::Implicants);
        let pool = WorkerPool::new(Parallelism::Fixed(4));
        pool.run(|_| {
            for _ in 0..100 {
                cell.trip_with(Exhaustion::Deadline);
                cell.trip_with(Exhaustion::Cancelled);
            }
        });
        assert!(cell.tripped());
        assert_eq!(cell.exhaustion(), Some(Exhaustion::Implicants), "first recorded reason wins");
        // A purely concurrent race records exactly one of the raced reasons.
        let raced = DnfBudget::new(0);
        let reasons = [Exhaustion::Implicants, Exhaustion::Deadline, Exhaustion::Cancelled];
        pool.run(|w| raced.trip_with(reasons[w % reasons.len()]));
        assert!(raced.tripped());
        let winner = raced.exhaustion().expect("a raced trip must record a reason");
        assert!(reasons.contains(&winner));
    }
}
