//! Cross-request job multiplexing for [`Session::check_many`].
//!
//! A service workload is many independent checks of very different sizes,
//! where a two-millisecond `Decide` job must not queue behind a two-minute
//! `Bounded` sweep.  The crate-private `run_jobs` spreads one batch onto
//! the [`crate::pool::WorkerPool`], one *job* per worker at a time, pulled
//! from a shared atomic queue head so workers that finish small jobs
//! immediately pick up the next one.
//!
//! # Determinism
//!
//! Batched execution keeps the repository's contract that parallelism never
//! changes an answer:
//!
//! * every job is **self-contained** — it reads a frozen
//!   [`crate::arena::ArenaSnapshot`] and owns its evaluator state, so its
//!   outcome is a pure function of the prepared request, not of which worker
//!   ran it or when;
//! * jobs of a batch execute **single-threaded** (the batch trades
//!   intra-request fan-out for cross-request fan-out), so each outcome —
//!   verdict, counterexample, trace counts, memo counters — is bit-identical
//!   to what a sequential loop of single-threaded
//!   [`Session::check`](crate::session::Session::check) calls would produce;
//! * results are **finalized in request order** on the calling thread
//!   (cumulative counters, arena sizes, verdict-cache stores), replaying the
//!   sequential loop's bookkeeping exactly — which is also what lets a
//!   duplicate of an earlier job in the batch *defer* to its twin and replay
//!   the stored outcome rather than racing it.
//!
//! Only wall-clock durations — and cutoffs from a shared deadline or
//! cancellation token, which are timing-dependent by nature — vary between
//! runs.
//!
//! [`Session::check_many`]: crate::session::Session::check_many

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::WorkerPool;

/// Runs `count` jobs across the pool and returns their outcomes in job
/// order.
///
/// Workers claim job indices from a shared atomic head — a worker that
/// finishes a small job immediately claims the next, so the batch's
/// wall-clock time approaches `total_work / workers` regardless of how
/// unevenly sized the jobs are (the classic list-scheduling bound: no worker
/// idles while jobs remain).  `run` must be a pure function of the index —
/// every caller passes the session's `execute` over a frozen snapshot — so
/// although the *assignment* of jobs to workers is racy, the returned
/// outcomes are not.
pub(crate) fn run_jobs<T, F>(pool: &WorkerPool, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if pool.workers() == 1 || count < 2 {
        return (0..count).map(run).collect();
    }
    let head = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = pool.run(|_| {
        let mut mine = Vec::new();
        loop {
            let index = head.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            mine.push((index, run(index)));
        }
        mine
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (index, outcome) in per_worker.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "job {index} ran twice");
        slots[index] = Some(outcome);
    }
    slots.into_iter().map(|slot| slot.expect("every job index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Parallelism;

    #[test]
    fn run_jobs_returns_outcomes_in_job_order() {
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(Parallelism::Fixed(workers));
            let outcomes = run_jobs(&pool, 23, |i| i * i);
            assert_eq!(outcomes, (0..23).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
        // Empty and single-job batches short-circuit.
        let pool = WorkerPool::new(Parallelism::Fixed(4));
        assert_eq!(run_jobs(&pool, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_jobs(&pool, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn uneven_jobs_all_complete_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let pool = WorkerPool::new(Parallelism::Fixed(3));
        let outcomes = run_jobs(&pool, 50, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            // Uneven work: every 7th job is much heavier.
            if i % 7 == 0 {
                (0..10_000).sum::<usize>() + i
            } else {
                i
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 50);
        for (i, outcome) in outcomes.iter().enumerate() {
            let expected = if i % 7 == 0 { (0..10_000).sum::<usize>() + i } else { i };
            assert_eq!(*outcome, expected);
        }
    }
}
