//! Service counters with an accounting invariant.
//!
//! One mutex guards every counter, so a `/metrics` scrape is a consistent
//! snapshot: at any instant, **accepted = completed + shed + in_flight**
//! holds exactly.  ("Accepted" counts every job presented to the admission
//! gate — jobs the gate then shed included; `rejected` counts malformed
//! requests answered 4xx, which never reach the gate.)  Scattered atomics
//! would be marginally cheaper per update but could be scraped mid-update,
//! and the whole point of the gauge is that an operator (or the CI smoke
//! job) can assert the balance.
//!
//! The scrape also reports the warm session's two cross-request stores —
//! the verdict cache and the analysis memo — by their entries, and how many
//! stores their cap refused (`refused_stores`): a full store stops storing,
//! and this counter is where that shows.  The session owns those figures
//! ([`StoreGauges`]); the route hands them in.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ilogic_core::json::{Json, JsonWriter};
use ilogic_core::session::StoreGauges;

/// Upper bounds (µs) of the latency-histogram buckets; the implicit last
/// bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 12] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 2_000_000];

#[derive(Debug, Default)]
struct MetricsInner {
    accepted: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    errors_5xx: u64,
    in_flight: u64,
    cache_hits: u64,
    cache_misses: u64,
    latency_counts: [u64; LATENCY_BUCKETS_US.len() + 1],
    latency_sum_us: u64,
    latency_samples: u64,
}

/// The service's counters; shared by the connection threads, the batch
/// workers and the admission gate.  See the module docs for the invariant.
#[derive(Debug)]
pub struct Metrics {
    capacity: usize,
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    /// Fresh counters for a gate of the given capacity.
    pub fn new(capacity: usize) -> Arc<Metrics> {
        Arc::new(Metrics { capacity, inner: Mutex::new(MetricsInner::default()) })
    }

    /// Presents `jobs` jobs to the admission gate: they are counted as
    /// accepted either way, and either enter the in-flight gauge (`true`) or
    /// are shed because the gauge would exceed capacity (`false`).  A batch
    /// is admitted all-or-nothing — partial admission would make the
    /// client's view of its own batch incoherent.
    pub fn admit(&self, jobs: u64) -> bool {
        let mut inner = self.lock();
        inner.accepted += jobs;
        if inner.in_flight + jobs <= self.capacity as u64 {
            inner.in_flight += jobs;
            true
        } else {
            inner.shed += jobs;
            false
        }
    }

    /// Moves `jobs` admitted jobs from in-flight to shed: the post-admission
    /// refusals (pre-flight `C002`, a deadline already expired on arrival)
    /// that answer 503 without running the job.
    pub fn shed_in_flight(&self, jobs: u64) {
        let mut inner = self.lock();
        inner.in_flight -= jobs;
        inner.shed += jobs;
    }

    /// Moves `jobs` admitted jobs from in-flight to completed, recording one
    /// latency sample per job (`latency` is the elapsed time of the unit
    /// they ran in: the request for `/check`, the job set for `/batch`).
    pub fn complete(&self, jobs: u64, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        let mut inner = self.lock();
        inner.in_flight -= jobs;
        inner.completed += jobs;
        inner.latency_counts[bucket] += jobs;
        inner.latency_sum_us += micros * jobs;
        inner.latency_samples += jobs;
    }

    /// Counts one malformed request answered 4xx (never presented to the
    /// gate).
    pub fn reject(&self) {
        self.lock().rejected += 1;
    }

    /// Accumulates the verdict-cache counters a completed `/check` report
    /// carried (`report.stats.cache`): how many of its decisions were served
    /// from the shared session's cross-request cache vs computed fresh.
    /// Bypassed requests contribute to neither counter.
    pub fn record_cache(&self, hits: u64, misses: u64) {
        let mut inner = self.lock();
        inner.cache_hits += hits;
        inner.cache_misses += misses;
    }

    /// Counts one internal 5xx that was *not* a shed 503 — the smoke job
    /// asserts this stays zero.
    pub fn error_5xx(&self) {
        self.lock().errors_5xx += 1;
    }

    /// A consistent snapshot as the `/metrics` JSON document, streamed
    /// under the lock, with the session's `stores` figures beside the cache
    /// counters.
    pub fn to_json(&self, stores: StoreGauges) -> String {
        let inner = self.lock();
        let mut out = JsonWriter::with_capacity(768);
        out.raw(r#"{"accepted":"#).int(inner.accepted as i64);
        out.raw(r#","completed":"#).int(inner.completed as i64);
        out.raw(r#","shed":"#).int(inner.shed as i64);
        out.raw(r#","rejected":"#).int(inner.rejected as i64);
        out.raw(r#","errors_5xx":"#).int(inner.errors_5xx as i64);
        out.raw(r#","in_flight":"#).int(inner.in_flight as i64);
        out.raw(r#","capacity":"#).int(self.capacity as i64);
        out.raw(r#","cache_hits":"#).int(inner.cache_hits as i64);
        out.raw(r#","cache_misses":"#).int(inner.cache_misses as i64);
        out.raw(r#","verdict_cache_entries":"#).int(stores.verdict_entries as i64);
        out.raw(r#","analysis_memo_entries":"#).int(stores.analysis_entries as i64);
        out.raw(r#","refused_stores":"#).int(stores.refused_stores.min(i64::MAX as u64) as i64);
        out.raw(r#","latency":{"count":"#).int(inner.latency_samples as i64);
        out.raw(r#","sum_us":"#).int(inner.latency_sum_us.min(i64::MAX as u64) as i64);
        out.raw(r#","buckets":"#).array(
            inner.latency_counts.iter().enumerate(),
            |out, (index, &count)| {
                out.raw(r#"{"le_us":"#);
                match LATENCY_BUCKETS_US.get(index) {
                    Some(&bound) => out.int(bound as i64),
                    None => out.str("inf"),
                };
                out.raw(r#","count":"#).int(count as i64).raw("}");
            },
        );
        out.raw("}}");
        out.into_string()
    }

    /// The [`Metrics::to_json`] document as a tree, for callers that read
    /// individual counters.
    pub fn snapshot(&self, stores: StoreGauges) -> Json {
        Json::parse(&self.to_json(stores)).expect("the metrics writer emits valid JSON")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        // Counter updates cannot panic while holding the lock, so a poisoned
        // mutex means a panic elsewhere already took the process down a path
        // where best-effort counters are the least concern.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(snapshot: &Json, name: &str) -> i64 {
        snapshot.get(name).and_then(Json::as_int).expect(name)
    }

    #[test]
    fn the_accounting_identity_holds_through_every_transition() {
        let metrics = Metrics::new(2);
        assert!(metrics.admit(2), "under capacity admits");
        assert!(!metrics.admit(1), "a full gauge sheds");
        metrics.complete(1, Duration::from_micros(300));
        assert!(metrics.admit(1), "capacity freed by completion readmits");
        metrics.shed_in_flight(1);
        metrics.reject();

        let snapshot = metrics.snapshot(StoreGauges::default());
        let accepted = field(&snapshot, "accepted");
        let balance = field(&snapshot, "completed")
            + field(&snapshot, "shed")
            + field(&snapshot, "in_flight");
        assert_eq!(accepted, balance, "accepted = completed + shed + in_flight; {snapshot}");
        assert_eq!(accepted, 4);
        assert_eq!(field(&snapshot, "shed"), 2, "one gate shed + one post-admission shed");
        assert_eq!(field(&snapshot, "rejected"), 1);
        assert_eq!(field(&snapshot, "in_flight"), 1);
    }

    #[test]
    fn cache_counters_accumulate_and_surface_in_the_snapshot() {
        let metrics = Metrics::new(8);
        metrics.record_cache(0, 1);
        metrics.record_cache(2, 0);
        let snapshot = metrics.snapshot(StoreGauges::default());
        assert_eq!(field(&snapshot, "cache_hits"), 2, "{snapshot}");
        assert_eq!(field(&snapshot, "cache_misses"), 1, "{snapshot}");
    }

    #[test]
    fn latency_samples_land_in_the_right_bucket() {
        let metrics = Metrics::new(8);
        metrics.admit(1);
        metrics.complete(1, Duration::from_micros(300));
        let snapshot = metrics.snapshot(StoreGauges::default());
        let buckets = snapshot
            .get("latency")
            .and_then(|l| l.get("buckets"))
            .and_then(Json::as_array)
            .expect("buckets");
        // 300µs falls in the `le_us: 500` bucket (index 2).
        assert_eq!(buckets[2].get("count").and_then(Json::as_int), Some(1), "{snapshot}");
        assert_eq!(
            snapshot.get("latency").and_then(|l| l.get("count")).and_then(Json::as_int),
            Some(1)
        );
    }

    #[test]
    fn the_scrape_body_is_pinned() {
        let metrics = Metrics::new(3);
        metrics.admit(2);
        metrics.complete(1, Duration::from_micros(300));
        metrics.complete(1, Duration::from_secs(9));
        metrics.reject();
        metrics.record_cache(5, 7);
        let stores = StoreGauges { verdict_entries: 4, analysis_entries: 6, refused_stores: 1 };
        // Captured from the tree-building encoder the writer replaced; the
        // three store figures were added after it.
        let golden = concat!(
            r#"{"accepted":2,"completed":2,"shed":0,"rejected":1,"errors_5xx":0,"in_flight":0,"#,
            r#""capacity":3,"cache_hits":5,"cache_misses":7,"verdict_cache_entries":4,"#,
            r#""analysis_memo_entries":6,"refused_stores":1,"latency":{"count":2,"sum_us":9000300,"#,
            r#""buckets":[{"le_us":100,"count":0},{"le_us":250,"count":0},{"le_us":500,"count":1},"#,
            r#"{"le_us":1000,"count":0},{"le_us":2500,"count":0},{"le_us":5000,"count":0},"#,
            r#"{"le_us":10000,"count":0},{"le_us":25000,"count":0},{"le_us":50000,"count":0},"#,
            r#"{"le_us":100000,"count":0},{"le_us":500000,"count":0},{"le_us":2000000,"count":0},"#,
            r#"{"le_us":"inf","count":1}]}}"#,
        );
        assert_eq!(metrics.to_json(stores), golden);
    }
}
