//! Route dispatch and the request handlers.
//!
//! | Route | Answer |
//! |---|---|
//! | `POST /check` | one job, synchronously: `200` with the [`CheckReport`] JSON |
//! | `POST /batch` | many jobs: `202` with `{"id", "jobs"}` |
//! | `GET /jobs/:id` | poll: `200` with `{"id", "status", "jobs"}` plus `"reports"` once done |
//! | `DELETE /jobs/:id` | cancel: `200` with `{"id", "status", "jobs", "cancelled"}` |
//! | `GET /healthz` | `200 {"status":"ok"}` |
//! | `GET /metrics` | `200` with the counter snapshot |
//!
//! Every error body is an [`ErrorReport`]; see `wire` for the 4xx codes and
//! `shed` for the 503 state machine.  The `/check` and `/batch` admission
//! semantics differ deliberately: a single check is refused *individually*
//! (capacity 503, pre-flight `C002` 503, expired-deadline 503), while a
//! batch is admitted **all-or-nothing** — once admitted, every job in it
//! runs and reports normally (a pre-flight-rejected job answers its usual
//! `Unknown` report with the `C002` diagnostic, an expired-deadline job its
//! `Unknown { Deadline }`), because a batch's contract is that its reports
//! are bit-identical to in-process [`Session::check_many`] of the same
//! requests, refusals included.
//!
//! Their execution substrates differ the same way.  `POST /check` runs on
//! one long-lived **warm session** shared by every connection thread (the
//! multiversion arena makes concurrent interning and checking safe), so a
//! duplicate body — same formula, same backend, same structural budget —
//! short-circuits to the session's verdict cache: the report is
//! bit-identical to recomputation, answered without running a decision, and
//! the hit lands in `report.stats.cache` and the `/metrics`
//! `cache_hits`/`cache_misses` counters.  The route asks the session
//! before it lints: a formula the session has analysed and found clean
//! skips the wire layer's lint, which would analyse it again on a
//! throwaway arena, and any other formula is linted as
//! [`wire::check_request_from_json`] lints it, so refusals are unchanged
//! and a refused formula never enters the session.  `POST /batch` keeps its
//! fresh-session-per-set model (that is what its bit-identity contract is
//! stated against), and its per-set [`CancelToken`] budgets bypass the
//! verdict cache by design.
//!
//! [`CancelToken`]: ilogic_core::pool::CancelToken

use std::sync::Arc;
use std::time::Instant;

use ilogic_core::json::{Json, JsonWriter};
use ilogic_core::session::{CheckReport, ErrorReport, Session};
use ilogic_core::syntax::Formula;

use crate::config::ServerConfig;
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::shed::AdmissionGate;
use crate::store::{JobSetView, JobStore};
use crate::wire;

/// Everything a handler needs, shared across connection threads.
#[derive(Debug)]
pub struct ServerContext {
    /// The server configuration.
    pub config: ServerConfig,
    /// Shared counters.
    pub metrics: Arc<Metrics>,
    /// The admission gate.
    pub gate: AdmissionGate,
    /// The batch job-set store.
    pub store: Arc<JobStore>,
    /// The long-lived warm session every `POST /check` runs on: its
    /// multiversion arena interns concurrently from all connection threads,
    /// and its verdict cache answers duplicate bodies without recomputing.
    pub session: Session,
}

/// Dispatches one request to its handler.
pub fn handle(request: &Request, ctx: &ServerContext) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::new(200, r#"{"status":"ok"}"#),
        ("GET", "/metrics") => Response::new(200, ctx.metrics.to_json(ctx.session.store_gauges())),
        ("POST", "/check") => check(request, ctx),
        ("POST", "/batch") => batch(request, ctx),
        ("GET", path) if path.starts_with("/jobs/") => jobs(path, ctx),
        ("DELETE", path) if path.starts_with("/jobs/") => cancel_jobs(path, ctx),
        (_, "/healthz" | "/metrics" | "/check" | "/batch") => rejected(
            ctx,
            405,
            ErrorReport::new("method-not-allowed", "wrong method for this route"),
        ),
        (_, path) if path.starts_with("/jobs/") => rejected(
            ctx,
            405,
            ErrorReport::new("method-not-allowed", "wrong method for this route"),
        ),
        (_, path) => {
            rejected(ctx, 404, ErrorReport::new("not-found", format!("no route for {path}")))
        }
    }
}

/// A 4xx refusal: counted as rejected, never presented to the gate.
fn rejected(ctx: &ServerContext, status: u16, error: ErrorReport) -> Response {
    ctx.metrics.reject();
    Response::new(status, error.to_json())
}

/// A shed 503: the error body carries the retry advice, mirrored into the
/// `Retry-After` header when present.
fn shed_response(error: &ErrorReport) -> Response {
    let response = Response::new(503, error.to_json());
    match error.retry_after_ms {
        Some(ms) => response.with_retry_after_ms(ms),
        None => response,
    }
}

fn check(request: &Request, ctx: &ServerContext) -> Response {
    let body = match Json::parse(&request.body) {
        Ok(body) => body,
        Err(error) => return rejected(ctx, 400, wire::body_error(&error)),
    };
    let lint = |formula: &Formula, text: &str| {
        if ctx.session.is_known_clean(formula) {
            Ok(())
        } else {
            wire::lint(formula, text)
        }
    };
    let job = match wire::check_request_linted(&body, &ctx.config, lint) {
        Ok(job) => job,
        Err(error) => return rejected(ctx, 400, error),
    };
    if let Err(error) = ctx.gate.try_admit(1) {
        return shed_response(&error);
    }
    // The wire layer attaches a deadline to every request; one that already
    // expired (timeout_ms: 0, or clamped to an exhausted window) is refused
    // without occupying a worker.
    if job.budget().is_some_and(AdmissionGate::already_expired) {
        ctx.metrics.shed_in_flight(1);
        return shed_response(&ctx.gate.expired_error());
    }
    let started = Instant::now();
    // The shared warm session: a repeated body is answered from the verdict
    // cache (bit-identical to recomputation) with the memoized analysis,
    // and the arena's hash-consing makes re-interning a known formula cheap.
    let report = ctx.session.check(job);
    let elapsed = started.elapsed();
    // The pre-flight C002 path: the job was predicted too expensive for its
    // budget and never ran; answer 503 with the structured rejection.
    if let Some(error) = ErrorReport::from_rejection(&report) {
        ctx.metrics.shed_in_flight(1);
        return shed_response(&error);
    }
    ctx.metrics.record_cache(report.stats.cache.hits, report.stats.cache.misses);
    ctx.metrics.complete(1, elapsed);
    Response::new(200, report.to_json())
}

fn batch(request: &Request, ctx: &ServerContext) -> Response {
    let body = match Json::parse(&request.body) {
        Ok(body) => body,
        Err(error) => return rejected(ctx, 400, wire::body_error(&error)),
    };
    let requests = match wire::batch_from_json(&body, &ctx.config) {
        Ok(requests) => requests,
        Err(error) => return rejected(ctx, 400, error),
    };
    let jobs = requests.len();
    if let Err(error) = ctx.gate.try_admit(jobs as u64) {
        return shed_response(&error);
    }
    let id = ctx.store.enqueue(requests);
    let mut body = JsonWriter::with_capacity(32);
    body.raw(r#"{"id":"#).int(id as i64).raw(r#","jobs":"#).int(jobs as i64).raw("}");
    Response::new(202, body.into_string())
}

fn jobs(path: &str, ctx: &ServerContext) -> Response {
    let Ok(id) = path["/jobs/".len()..].parse::<u64>() else {
        return rejected(
            ctx,
            400,
            ErrorReport::new("bad-request", format!("`{path}` is not /jobs/<integer id>")),
        );
    };
    let Some(view) = ctx.store.status(id) else {
        return rejected(
            ctx,
            404,
            ErrorReport::new("not-found", format!("no job set {id} (never submitted or evicted)")),
        );
    };
    // Reports stream through `CheckReport::write_json`, so the fetched
    // documents are byte-for-byte what `CheckReport::to_json` produces.
    let mut body = job_set_header(&view);
    if let Some(reports) = &view.reports {
        body.raw(r#","reports":"#).array(reports, |out, report| report.write_json(out));
    }
    body.raw("}");
    Response::new(200, body.into_string())
}

/// `DELETE /jobs/:id`: trips the set's cancel token.  Remaining jobs settle
/// as `Unknown { Cancelled }` reports — the set still completes and stays
/// fetchable, so cancellation never breaks the "admitted work always
/// reports" contract.  Unknown ids answer a structured 404.
fn cancel_jobs(path: &str, ctx: &ServerContext) -> Response {
    let Ok(id) = path["/jobs/".len()..].parse::<u64>() else {
        return rejected(
            ctx,
            400,
            ErrorReport::new("bad-request", format!("`{path}` is not /jobs/<integer id>")),
        );
    };
    let Some(view) = ctx.store.cancel(id) else {
        return rejected(
            ctx,
            404,
            ErrorReport::new("not-found", format!("no job set {id} (never submitted or evicted)")),
        );
    };
    let mut body = job_set_header(&view);
    body.raw("}");
    Response::new(200, body.into_string())
}

/// The unclosed `{"id", "status", "jobs"[, "cancelled"]` prefix shared by
/// the `/jobs/:id` poll and cancel bodies.
fn job_set_header(view: &JobSetView) -> JsonWriter {
    let mut body = JsonWriter::with_capacity(64);
    body.raw(r#"{"id":"#).int(view.id as i64);
    body.raw(r#","status":"#).str(view.status.as_str());
    body.raw(r#","jobs":"#).int(view.jobs as i64);
    if view.cancelled {
        body.raw(r#","cancelled":true"#);
    }
    body
}

/// Parses the `"reports"` array out of a `GET /jobs/:id` response body —
/// the inverse of the rendering above, shared with tests and clients.
pub fn reports_from_jobs_body(
    body: &str,
) -> Result<Vec<CheckReport>, ilogic_core::json::JsonError> {
    let root = Json::parse(body)?;
    let reports = root
        .require("reports")?
        .as_array()
        .ok_or_else(|| ilogic_core::json::JsonError::new("`reports` is not an array"))?;
    reports.iter().map(|report| CheckReport::from_json(&report.to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;

    fn context() -> ServerContext {
        let config = ServerConfig::default();
        let metrics = Metrics::new(config.capacity);
        ServerContext {
            gate: AdmissionGate::new(Arc::clone(&metrics), config.retry_after_ms),
            store: JobStore::new(config.job_sets_retained),
            session: Session::new(),
            metrics,
            config,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request { method: "POST".into(), path: path.into(), body: body.into(), keep_alive: true }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), body: String::new(), keep_alive: true }
    }

    #[test]
    fn the_routing_table_distinguishes_404_and_405() {
        let ctx = context();
        assert_eq!(handle(&get("/healthz"), &ctx).status, 200);
        assert_eq!(handle(&get("/metrics"), &ctx).status, 200);
        assert_eq!(handle(&get("/nope"), &ctx).status, 404);
        assert_eq!(handle(&get("/check"), &ctx).status, 405);
        assert_eq!(handle(&post("/healthz", ""), &ctx).status, 405);
        assert_eq!(handle(&get("/jobs/xyz"), &ctx).status, 400);
        assert_eq!(handle(&get("/jobs/0"), &ctx).status, 404);
    }

    #[test]
    fn check_answers_reports_and_structured_400s() {
        let ctx = context();
        let ok = handle(
            &post("/check", r#"{"formula": "P | ~P", "backend": {"kind": "decide"}}"#),
            &ctx,
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        let report = CheckReport::from_json(&ok.body).expect("the body is a report");
        assert!(report.verdict.passed());

        let bad_json = handle(&post("/check", "{"), &ctx);
        assert_eq!(bad_json.status, 400);
        let error = ErrorReport::from_json(&bad_json.body).expect("structured 400");
        assert_eq!(error.code, "bad-json");
        assert!(error.message.contains("byte"), "offset surfaces: {error}");

        let bad_formula = handle(&post("/check", r#"{"formula": "(P"}"#), &ctx);
        assert_eq!(bad_formula.status, 400);
        assert_eq!(ErrorReport::from_json(&bad_formula.body).unwrap().code, "parse");

        // Non-BMP text escaped as a UTF-16 surrogate pair (Python's
        // `json.dumps` default) reaches the formula parser intact.
        let escaped = handle(&post("/check", r#"{"formula": "(\ud83d\ude00"}"#), &ctx);
        assert_eq!(escaped.status, 400);
        let error = ErrorReport::from_json(&escaped.body).unwrap();
        assert_eq!(error.code, "parse", "{error}");
    }

    #[test]
    fn expired_deadlines_are_shed_with_structured_503s() {
        let ctx = context();
        let response =
            handle(&post("/check", r#"{"formula": "P", "budget": {"timeout_ms": 0}}"#), &ctx);
        assert_eq!(response.status, 503, "{}", response.body);
        let error = ErrorReport::from_json(&response.body).expect("structured 503");
        assert_eq!(error.code, "deadline");
        assert!(error.retry_after_ms.is_some());
        // The job is accounted as shed, keeping the identity balanced.
        let snapshot = ctx.metrics.snapshot(ctx.session.store_gauges());
        assert_eq!(snapshot.get("shed").and_then(Json::as_int), Some(1), "{snapshot}");
        assert_eq!(snapshot.get("in_flight").and_then(Json::as_int), Some(0), "{snapshot}");
    }

    #[test]
    fn preflight_rejections_reuse_the_c002_path_as_503s() {
        let ctx = context();
        let body = r#"{"formula": "<> P", "backend": {"kind": "decide"},
                       "budget": {"max_nodes": 1}, "preflight": true}"#;
        let response = handle(&post("/check", body), &ctx);
        assert_eq!(response.status, 503, "{}", response.body);
        let error = ErrorReport::from_json(&response.body).expect("structured 503");
        assert_eq!(error.code, "C002");
        assert!(!error.diagnostics.is_empty(), "the C002 diagnostic rides along: {error}");
    }

    #[test]
    fn batches_queue_and_polls_fetch_reports() {
        let ctx = context();
        let accepted = handle(
            &post("/batch", r#"{"jobs": [{"formula": "P | ~P", "backend": {"kind": "decide"}}]}"#),
            &ctx,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let id = Json::parse(&accepted.body).unwrap().get("id").and_then(Json::as_int).unwrap();

        // No worker thread in this test: the set stays queued.
        let poll = handle(&get(&format!("/jobs/{id}")), &ctx);
        assert_eq!(poll.status, 200);
        let root = Json::parse(&poll.body).expect("poll body is JSON");
        assert_eq!(root.get("status").and_then(Json::as_str), Some("queued"));
        assert!(root.get("reports").is_none(), "no reports before done");

        // Drain it and poll again.
        ctx.store.shutdown();
        ctx.store.worker_loop(&ctx.metrics);
        let poll = handle(&get(&format!("/jobs/{id}")), &ctx);
        let root = Json::parse(&poll.body).expect("poll body is JSON");
        assert_eq!(root.get("status").and_then(Json::as_str), Some("done"));
        let reports = reports_from_jobs_body(&poll.body).expect("reports parse");
        assert_eq!(reports.len(), 1);
        assert!(reports[0].verdict.passed());
    }

    #[test]
    fn duplicate_checks_short_circuit_to_the_verdict_cache() {
        let ctx = context();
        let body = r#"{"formula": "[](P -> <>Q)", "backend": {"kind": "decide"}}"#;
        let cold = handle(&post("/check", body), &ctx);
        assert_eq!(cold.status, 200, "{}", cold.body);
        let warm = handle(&post("/check", body), &ctx);
        assert_eq!(warm.status, 200, "{}", warm.body);

        let cold = CheckReport::from_json(&cold.body).expect("cold report parses");
        let warm = CheckReport::from_json(&warm.body).expect("warm report parses");
        assert_eq!((cold.stats.cache.hits, cold.stats.cache.misses), (0, 1), "first body misses");
        assert_eq!((warm.stats.cache.hits, warm.stats.cache.misses), (1, 0), "repeat body hits");
        // The cached answer is the recomputation's answer.
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.failing_index, cold.failing_index);
        assert_eq!(warm.stats.memo, cold.stats.memo);

        let snapshot = ctx.metrics.snapshot(ctx.session.store_gauges());
        assert_eq!(snapshot.get("cache_hits").and_then(Json::as_int), Some(1), "{snapshot}");
        assert_eq!(snapshot.get("cache_misses").and_then(Json::as_int), Some(1), "{snapshot}");
    }

    #[test]
    fn lint_refusals_repeat_byte_for_byte_and_never_enter_the_session() {
        let ctx = context();
        let clean = r#"{"formula": "<>P", "budget": {"timeout_ms": 2000}}"#;
        assert_eq!(handle(&post("/check", clean), &ctx).status, 200);
        let nodes = ctx.session.arena().formula_count();
        // `P & ~P` fails lint; the body also carries a bad field, which the
        // lint refusal outranks.
        for body in [r#"{"formula": "P & ~P"}"#, r#"{"formula": "P & ~P", "backend": 7}"#] {
            let value = Json::parse(body).expect("test body parses");
            let expected = wire::check_request_from_json(&value, &ctx.config)
                .expect_err("lint refusal")
                .to_json();
            let first = handle(&post("/check", body), &ctx);
            let again = handle(&post("/check", body), &ctx);
            assert_eq!((first.status, again.status), (400, 400), "{body}");
            assert_eq!(first.body, expected, "{body}");
            assert_eq!(again.body, expected, "{body}");
            assert_eq!(ErrorReport::from_json(&first.body).unwrap().code, "lint");
        }
        assert_eq!(ctx.session.arena().formula_count(), nodes, "refused formulas are not interned");
        assert!(!ctx
            .session
            .is_known_clean(&ilogic_core::parser::parse_formula("P & ~P").unwrap()));
    }

    #[test]
    fn metrics_report_the_sessions_stores() {
        let ctx = context();
        let body = r#"{"formula": "[](P -> <>Q)", "backend": {"kind": "decide"}}"#;
        handle(&post("/check", body), &ctx);
        handle(&post("/check", body), &ctx);
        handle(
            &post(
                "/check",
                r#"{"formula": "<>P", "backend": {"kind": "trace",
            "trace": {"extension": "stutter", "states": [{"props": [], "vars": []}]}}}"#,
            ),
            &ctx,
        );
        let metrics = handle(&get("/metrics"), &ctx);
        let snapshot = Json::parse(&metrics.body).expect("metrics are JSON");
        let field = |name: &str| snapshot.get(name).and_then(Json::as_int);
        assert_eq!(field("verdict_cache_entries"), Some(1), "{snapshot}");
        assert_eq!(field("analysis_memo_entries"), Some(2), "{snapshot}");
        assert_eq!(field("refused_stores"), Some(0), "{snapshot}");
    }

    #[test]
    fn delete_cancels_job_sets_and_answers_structured_errors() {
        let ctx = context();
        let accepted = handle(
            &post("/batch", r#"{"jobs": [{"formula": "[](P -> <>Q)"}, {"formula": "<>P"}]}"#),
            &ctx,
        );
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let id = Json::parse(&accepted.body).unwrap().get("id").and_then(Json::as_int).unwrap();
        assert_eq!(accepted.body, format!(r#"{{"id":{id},"jobs":2}}"#));

        let delete = |path: &str| Request {
            method: "DELETE".into(),
            path: path.into(),
            body: String::new(),
            keep_alive: true,
        };
        // Unknown and malformed ids answer structured errors.
        assert_eq!(handle(&delete("/jobs/999"), &ctx).status, 404);
        assert_eq!(handle(&delete("/jobs/xyz"), &ctx).status, 400);

        // Cancelling the queued set answers its view with the flag set...
        let cancelled = handle(&delete(&format!("/jobs/{id}")), &ctx);
        assert_eq!(cancelled.status, 200, "{}", cancelled.body);
        assert_eq!(
            cancelled.body,
            format!(r#"{{"id":{id},"status":"queued","jobs":2,"cancelled":true}}"#)
        );

        // ...and once a worker drains it, every job settled as cancelled —
        // the set completed and its reports stay fetchable.
        ctx.store.shutdown();
        ctx.store.worker_loop(&ctx.metrics);
        let poll = handle(&get(&format!("/jobs/{id}")), &ctx);
        assert!(poll.body.contains("\"cancelled\":true"), "{}", poll.body);
        let reports = reports_from_jobs_body(&poll.body).expect("reports parse");
        assert_eq!(reports.len(), 2);
        // The embedded reports are byte-for-byte their own encodings.
        let (first, second) = (reports[0].to_json(), reports[1].to_json());
        assert_eq!(
            poll.body,
            format!(
                r#"{{"id":{id},"status":"done","jobs":2,"cancelled":true,"reports":[{first},{second}]}}"#
            )
        );
        for report in &reports {
            use ilogic_core::pool::Exhaustion;
            use ilogic_core::session::Verdict;
            assert_eq!(
                report.verdict,
                Verdict::Unknown { exhausted: Some(Exhaustion::Cancelled) },
                "{report:?}"
            );
        }
    }

    #[test]
    fn over_capacity_batches_are_shed_all_or_nothing() {
        let mut ctx = context();
        ctx.config.capacity = 2;
        ctx.metrics = Metrics::new(2);
        ctx.gate = AdmissionGate::new(Arc::clone(&ctx.metrics), 99);
        let body = r#"{"jobs": [{"formula": "P"}, {"formula": "Q"}, {"formula": "R"}]}"#;
        let response = handle(&post("/batch", body), &ctx);
        assert_eq!(response.status, 503, "{}", response.body);
        let error = ErrorReport::from_json(&response.body).expect("structured 503");
        assert_eq!(error.code, "shed");
        assert_eq!(error.retry_after_ms, Some(99));
        let snapshot = ctx.metrics.snapshot(ctx.session.store_gauges());
        assert_eq!(snapshot.get("shed").and_then(Json::as_int), Some(3), "all three jobs shed");
        assert_eq!(snapshot.get("in_flight").and_then(Json::as_int), Some(0));
    }
}
