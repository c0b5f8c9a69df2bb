//! End-to-end tests: a real daemon on an ephemeral port, a real TCP client.
//!
//! The headline assertion is **wire/in-process bit-identity**: a mixed batch
//! POSTed over HTTP — all four explicit backends, plus one
//! pre-flight-rejected job and one job whose deadline expired before it
//! could start — must come back (via `GET /jobs/:id`) equal to
//! `Session::check_many` on the *same* requests translated through the
//! *same* wire layer in-process, with only the wall-clock `duration` field
//! zeroed on both sides.  The overload test then verifies the shedding
//! contract over a live connection: structured 503 with retry advice, the
//! connection survives (keep-alive, never dropped mid-response), and the
//! metrics identity `accepted = completed + shed + in_flight` holds at
//! every scrape.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ilogic_core::json::Json;
use ilogic_core::pool::CancelToken;
use ilogic_core::session::{trace_to_json, CheckReport, ErrorReport, Session};
use ilogic_core::state::Prop;
use ilogic_core::trace::TraceBuilder;
use ilogic_server::client::ClientConn;
use ilogic_server::config::ServerConfig;
use ilogic_server::router::reports_from_jobs_body;
use ilogic_server::{server, store, wire};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        connection_threads: 2,
        batch_workers: 1,
        capacity: 16,
        max_timeout: Duration::from_secs(5),
        // Tight idle timeouts so shutdown (which waits for open keep-alive
        // connections to quiesce) stays fast in tests.
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> ClientConn {
    ClientConn::connect(addr, Duration::from_secs(10)).expect("daemon accepts connections")
}

/// The identity `accepted = completed + shed + in_flight` must hold at every
/// scrape, and the daemon must never have counted an internal 5xx.
fn assert_balanced(snapshot: &Json) {
    let counter = |name: &str| snapshot.get(name).and_then(Json::as_int).unwrap_or(-1);
    assert_eq!(
        counter("accepted"),
        counter("completed") + counter("shed") + counter("in_flight"),
        "metrics identity broken: {snapshot}"
    );
    assert_eq!(counter("errors_5xx"), 0, "internal errors: {snapshot}");
}

/// A short witness trace: P pulses at step 1, Q from step 2 on.
fn witness_trace_json() -> String {
    let mut builder = TraceBuilder::new();
    builder.commit();
    builder.assert_prop(Prop::plain("P"));
    builder.commit();
    builder.retract_prop(&Prop::plain("P"));
    builder.assert_prop(Prop::plain("Q"));
    builder.commit();
    trace_to_json(&builder.finish()).to_string()
}

/// The mixed batch: every explicit backend, a pre-flight rejection, and an
/// already-expired deadline.  Returned as the raw wire body so both the
/// HTTP POST and the in-process comparison translate the *same bytes*.
fn mixed_batch_body() -> String {
    let trace = witness_trace_json();
    format!(
        concat!(
            r#"{{"jobs": ["#,
            r#"{{"formula": "[](P -> <>Q)", "backend": {{"kind": "decide"}}}}, "#,
            r#"{{"formula": "<>(P & ~Q)", "backend": {{"kind": "bounded", "props": ["P", "Q"], "max_len": 3}}}}, "#,
            r#"{{"formula": "<> Q", "backend": {{"kind": "trace", "trace": {trace}}}}}, "#,
            r#"{{"formula": "[] ~(P & Q)", "backend": {{"kind": "explore", "runs": [{trace}]}}}}, "#,
            r#"{{"formula": "<> P", "backend": {{"kind": "decide"}}, "budget": {{"max_nodes": 1}}, "preflight": true}}, "#,
            r#"{{"formula": "P | ~P", "backend": {{"kind": "decide"}}, "budget": {{"timeout_ms": 0}}}}"#,
            r#"]}}"#
        ),
        trace = trace
    )
}

fn poll_until_done(conn: &mut ClientConn, id: i64) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let poll = conn.get(&format!("/jobs/{id}")).expect("poll succeeds");
        assert_eq!(poll.status, 200, "{}", poll.body);
        let root = Json::parse(&poll.body).expect("poll body is JSON");
        if root.get("status").and_then(Json::as_str) == Some("done") {
            return poll.body;
        }
        assert!(Instant::now() < deadline, "batch never completed: {}", poll.body);
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn wire_batches_are_bit_identical_to_in_process_check_many() {
    let config = test_config();
    let handle = server::start(config.clone()).expect("daemon starts");
    let mut conn = connect(handle.addr());

    let health = conn.get("/healthz").expect("healthz answers");
    assert_eq!((health.status, health.body.as_str()), (200, r#"{"status":"ok"}"#));

    let body = mixed_batch_body();
    let accepted = conn.post("/batch", &body).expect("batch posts");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let root = Json::parse(&accepted.body).expect("202 body is JSON");
    let id = root.get("id").and_then(Json::as_int).expect("202 carries the set id");
    assert_eq!(root.get("jobs").and_then(Json::as_int), Some(6));

    let done = poll_until_done(&mut conn, id);
    let mut fetched = reports_from_jobs_body(&done).expect("reports parse");

    // The comparison side: the same bytes through the same wire translation,
    // run in-process on a fresh session exactly as the batch workers do —
    // including the per-set cancel token every admitted set's budgets carry.
    let requests = wire::batch_from_json(&Json::parse(&body).expect("batch body parses"), &config)
        .expect("the mixed batch translates");
    let requests = store::attach_cancel(requests, &CancelToken::new());
    let mut expected = Session::new().check_many(requests);

    assert_eq!(fetched.len(), 6);
    for report in fetched.iter_mut().chain(expected.iter_mut()) {
        report.stats.duration = Duration::ZERO;
    }
    assert_eq!(fetched, expected, "wire reports must be bit-identical to in-process ones");

    // Spot-check the interesting members: the pre-flight job carries its
    // C002 rejection, the expired job its deadline exhaustion — *as
    // reports*, because an admitted batch always runs every job.
    assert!(
        fetched[4].diagnostics.iter().any(|d| format!("{:?}", d.code).contains("OverBudget")),
        "job 4 was pre-flight rejected: {:?}",
        fetched[4]
    );
    assert!(!fetched[4].verdict.passed(), "a rejected job cannot claim a pass");
    assert!(!fetched[5].verdict.passed(), "an expired job cannot claim a pass");

    let metrics = conn.get("/metrics").expect("metrics answers");
    assert_balanced(&Json::parse(&metrics.body).expect("metrics body is JSON"));
    // Closing the client first lets the serving thread quiesce immediately
    // instead of waiting out the idle read timeout.
    drop(conn);
    handle.shutdown();
}

#[test]
fn overload_sheds_with_structured_503s_and_keeps_the_connection() {
    let mut config = test_config();
    config.capacity = 2;
    config.retry_after_ms = 180;
    let handle = server::start(config).expect("daemon starts");
    let mut conn = connect(handle.addr());

    // Fill the admission gate from inside the process — deterministic
    // overload, no timing games.
    assert!(handle.metrics().admit(2), "the empty gate admits up to capacity");

    let shed = conn
        .post("/check", r#"{"formula": "P | ~P", "backend": {"kind": "decide"}}"#)
        .expect("the refusal is a complete response, not a dropped connection");
    assert_eq!(shed.status, 503, "{}", shed.body);
    let error = ErrorReport::from_json(&shed.body).expect("structured 503");
    assert_eq!(error.code, "shed");
    assert_eq!(error.retry_after_ms, Some(180));
    assert_eq!(shed.retry_after, Some(1), "retry advice mirrors into the header (rounded up)");

    // The identity holds while the gate is full...
    let metrics = conn.get("/metrics").expect("metrics answers while overloaded");
    let snapshot = Json::parse(&metrics.body).expect("metrics body is JSON");
    assert_balanced(&snapshot);
    assert_eq!(snapshot.get("in_flight").and_then(Json::as_int), Some(2), "{snapshot}");

    // ...and the *same connection* recovers once capacity frees up: the 503
    // did not cost us the keep-alive session.
    handle.metrics().complete(2, Duration::from_micros(50));
    let ok = conn
        .post("/check", r#"{"formula": "P | ~P", "backend": {"kind": "decide"}}"#)
        .expect("the connection survived the shed");
    assert_eq!(ok.status, 200, "{}", ok.body);

    let metrics = conn.get("/metrics").expect("metrics answers");
    let snapshot = Json::parse(&metrics.body).expect("metrics body is JSON");
    assert_balanced(&snapshot);
    assert_eq!(snapshot.get("shed").and_then(Json::as_int), Some(1), "{snapshot}");
    drop(conn);
    handle.shutdown();
}

#[test]
fn duplicate_checks_hit_the_warm_verdict_cache_over_the_wire() {
    let handle = server::start(test_config()).expect("daemon starts");
    let mut conn = connect(handle.addr());

    // The same body twice — versioned, to exercise the api_version field on
    // the accept path too.  The repeat must be served from the shared
    // session's verdict cache with the identical answer.
    let body = r#"{"api_version": 1, "formula": "[](P -> <>Q)", "backend": {"kind": "decide"}}"#;
    let cold = conn.post("/check", body).expect("first check answers");
    assert_eq!(cold.status, 200, "{}", cold.body);
    let warm = conn.post("/check", body).expect("repeat check answers");
    assert_eq!(warm.status, 200, "{}", warm.body);
    let cold = CheckReport::from_json(&cold.body).expect("cold report parses");
    let warm = CheckReport::from_json(&warm.body).expect("warm report parses");
    assert_eq!((cold.stats.cache.hits, cold.stats.cache.misses), (0, 1), "{cold:?}");
    assert_eq!((warm.stats.cache.hits, warm.stats.cache.misses), (1, 0), "{warm:?}");
    assert_eq!(warm.verdict, cold.verdict, "a cached verdict is the recomputed verdict");
    assert_eq!(warm.failing_index, cold.failing_index);
    assert_eq!(warm.diagnostics, cold.diagnostics);

    // The hit rate is scrapeable.
    let metrics = conn.get("/metrics").expect("metrics answers");
    let snapshot = Json::parse(&metrics.body).expect("metrics body is JSON");
    assert_balanced(&snapshot);
    assert_eq!(snapshot.get("cache_hits").and_then(Json::as_int), Some(1), "{snapshot}");
    assert_eq!(snapshot.get("cache_misses").and_then(Json::as_int), Some(1), "{snapshot}");

    // An unsupported wire version is refused with the stable code.
    let refused = conn.post("/check", r#"{"api_version": 2, "formula": "P"}"#).expect("answers");
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert_eq!(ErrorReport::from_json(&refused.body).unwrap().code, "api-version");

    drop(conn);
    handle.shutdown();
}

/// Reads one response off a raw socket: the status and the body.
fn read_raw_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line.split(' ').nth(1).and_then(|code| code.parse().ok()).expect("status");
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn requests_split_across_segments_are_answered() {
    let handle = server::start(test_config()).expect("daemon starts");
    let stream = TcpStream::connect(handle.addr()).expect("daemon accepts connections");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let body = r#"{"formula": "[](P -> <>Q)", "backend": {"kind": "decide"}}"#;
    let head = format!("POST /check HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n", body.len());
    // The head and the body in two writes, as a client that does not frame
    // its request into one buffer sends them; then a request cut inside a
    // header line, on the same connection.
    let (cut_head, rest) = head.split_at(30);
    for parts in [vec![head.as_str(), body], vec![cut_head, rest, body]] {
        for part in parts {
            writer.write_all(part.as_bytes()).expect("writes");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (status, answer) = read_raw_response(&mut reader);
        assert_eq!(status, 200, "{answer}");
        let report = CheckReport::from_json(&answer).expect("a report");
        assert!(report.verdict.counterexample().is_some(), "{answer}");
    }
    drop((reader, writer));
    handle.shutdown();
}

#[test]
fn delete_cancels_a_job_set_over_the_wire() {
    let handle = server::start(test_config()).expect("daemon starts");
    let mut conn = connect(handle.addr());

    let accepted = conn
        .post("/batch", r#"{"api_version": 1, "jobs": [{"formula": "[](P -> <>Q)"}]}"#)
        .expect("batch posts");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = Json::parse(&accepted.body).unwrap().get("id").and_then(Json::as_int).unwrap();

    // Cancellation answers the set's view with the flag up, whatever station
    // the race put it in (queued, running, or already done).
    let cancelled = conn.delete(&format!("/jobs/{id}")).expect("delete answers");
    assert_eq!(cancelled.status, 200, "{}", cancelled.body);
    let root = Json::parse(&cancelled.body).expect("cancel body is JSON");
    assert_eq!(root.get("cancelled"), Some(&Json::Bool(true)), "{root}");

    // The set still completes and reports: cancellation is a fast
    // completion, never a dropped answer.
    poll_until_done(&mut conn, id);

    // Unknown ids answer a structured 404.
    let missing = conn.delete("/jobs/424242").expect("delete answers");
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert_eq!(ErrorReport::from_json(&missing.body).unwrap().code, "not-found");

    drop(conn);
    handle.shutdown();
}

#[test]
fn single_checks_round_trip_error_reports_over_the_wire() {
    let handle = server::start(test_config()).expect("daemon starts");
    let mut conn = connect(handle.addr());

    // Syntax error: the hardened JSON layer's byte offset reaches the client.
    let bad = conn.post("/check", r#"{"formula": }"#).expect("400 answers");
    assert_eq!(bad.status, 400);
    let error = ErrorReport::from_json(&bad.body).expect("structured 400");
    assert_eq!(error.code, "bad-json");
    assert!(error.message.contains("byte 12"), "offset of the bad token: {error}");

    // Lint refusal: diagnostics survive the wire round trip.
    let lint = conn.post("/check", r#"{"formula": "P & ~P"}"#).expect("400 answers");
    assert_eq!(lint.status, 400);
    let error = ErrorReport::from_json(&lint.body).expect("structured 400");
    assert_eq!(error.code, "lint");
    assert!(!error.diagnostics.is_empty(), "{error}");

    // A well-formed check still answers on the same (kept-alive) connection.
    let ok = conn.post("/check", r#"{"formula": "[](P -> P)"}"#).expect("200 answers");
    assert_eq!(ok.status, 200, "{}", ok.body);
    drop(conn);
    handle.shutdown();
}
