//! One timed round, the aggregation of rounds into a run's metrics, and the
//! traced layer-by-layer replay.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ilogic_core::analysis::analyze_formula;
use ilogic_core::json::Json;
use ilogic_core::parser::parse_formula;
use ilogic_core::pool::ResourceBudget;
use ilogic_core::session::{CheckReport, CheckRequest, Session};
use ilogic_core::syntax::Formula;
use ilogic_server::client::ClientConn;
use ilogic_server::config::ServerConfig;
use ilogic_server::http::Request;
use ilogic_server::metrics::Metrics as ServerMetrics;
use ilogic_server::router::{self, ServerContext};
use ilogic_server::shed::AdmissionGate;
use ilogic_server::store::JobStore;
use ilogic_server::wire;

use crate::serve;
use crate::stats::{median, ratio, tail, Metrics};
use crate::temporal;
use crate::trace::Tracer;
use crate::verify::{body_formula, expected, Class, Expected, Verifier};
use crate::workload::{Sequence, Transport, Workload, WARMUP_TIMEOUT_MS};

/// How far the traced requests' summed self times may fall short of the
/// traced wall time (the loop's own bookkeeping between requests).
pub const TRACE_SLACK: f64 = 0.05;

/// The mix of answers a run saw, counted per request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Expected `400` refusals of text the parser rejects.
    pub rejected: u64,
    /// Expected `400` refusals of formulas with an error-severity lint.
    pub linted: u64,
    /// Transport errors, `5xx`, `503`, unexpected statuses, wrong verdicts.
    pub failed: u64,
    /// `Holds` or `Counterexample` verdicts.
    pub decided: u64,
    /// `Unknown` verdicts.
    pub unknown: u64,
    /// Answers replayed from the verdict cache.
    pub cache_hits: u64,
    /// Reports whose resolved backend was `decide`.
    pub routed_decide: u64,
    /// Reports whose resolved backend was `bounded`.
    pub routed_bounded: u64,
}

impl Tally {
    fn report(&mut self, report: &CheckReport) {
        match Class::of(&report.verdict) {
            Class::Valid | Class::Invalid(_) => self.decided += 1,
            Class::Unknown(_) => self.unknown += 1,
            Class::ValidUpTo(_) => {}
        }
        self.cache_hits += report.stats.cache.hits;
        match report.backend {
            "decide" => self.routed_decide += 1,
            "bounded" => self.routed_bounded += 1,
            _ => {}
        }
    }

    /// Requests answered with a report: neither refused nor failed.
    fn verdicts(&self) -> u64 {
        self.attempted - self.rejected - self.linted - self.failed
    }

    fn fields(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("attempted", &mut self.attempted),
            ("rejected", &mut self.rejected),
            ("linted", &mut self.linted),
            ("failed", &mut self.failed),
            ("decided", &mut self.decided),
            ("unknown", &mut self.unknown),
            ("cache_hits", &mut self.cache_hits),
            ("routed_decide", &mut self.routed_decide),
            ("routed_bounded", &mut self.routed_bounded),
        ]
    }

    fn add(&mut self, other: &Tally) {
        let mut other = other.clone();
        for ((_, mine), (_, theirs)) in self.fields().into_iter().zip(other.fields()) {
            *mine += *theirs;
        }
    }

    /// The mix shares a claim on repeated or hard inputs cites.
    pub fn mix(&self) -> String {
        let share = |n| ratio(n, self.attempted);
        format!(
            "parser_reject={:.4} lint_reject={:.4} cache_hit={:.4} routed_decide={:.4} \
             routed_bounded={:.4} unknown={:.4} (of {} requests)",
            share(self.rejected),
            share(self.linted),
            share(self.cache_hits),
            share(self.routed_decide),
            share(self.routed_bounded),
            share(self.unknown),
            self.attempted
        )
    }
}

/// One timed pass over a round's sequence.
#[derive(Debug)]
struct Pass {
    /// Client-side latency of every request, ms, in send order.
    latencies_ms: Vec<f64>,
    /// First send to last answer.
    wall: Duration,
    /// The pass's answer mix.
    tally: Tally,
}

/// What one round measured and verified.  Each timing is the best of the
/// round's passes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Verdicts completed per second over a pass's whole sequence.
    pub throughput_rps: f64,
    /// A pass's median client-side latency, ms.
    pub latency_p50_ms: f64,
    /// A pass's latency at `tail_percentile`, ms.
    pub latency_tail_ms: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_percentile: f64,
    /// A pass's first send to last answer, s.
    pub wall_s: f64,
    /// Median of the round's set-ups, s.
    pub setup_s: f64,
    /// `VmHWM` of the round's process right after its sequence, MB.
    pub peak_rss_mb: f64,
    /// The answer mix, summed over the passes.
    pub tally: Tally,
}

impl Round {
    fn measured(passes: &[Pass], setups: &[Duration], peak: f64) -> Round {
        let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        let mut round = Round {
            throughput_rps: 0.0,
            latency_p50_ms: f64::INFINITY,
            latency_tail_ms: f64::INFINITY,
            wall_s: f64::INFINITY,
            setup_s: median(&setups),
            peak_rss_mb: peak,
            ..Round::default()
        };
        for pass in passes {
            let mut sorted = pass.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let (percentile, latency_tail_ms) = tail(&sorted);
            let wall = pass.wall.as_secs_f64();
            round.throughput_rps = round.throughput_rps.max(pass.tally.verdicts() as f64 / wall);
            round.latency_p50_ms = round.latency_p50_ms.min(median(&sorted));
            round.latency_tail_ms = round.latency_tail_ms.min(latency_tail_ms);
            round.tail_percentile = percentile;
            round.wall_s = round.wall_s.min(wall);
            round.tally.add(&pass.tally);
        }
        round
    }

    fn numbers(&mut self) -> [(&'static str, &mut f64); 7] {
        [
            ("throughput_rps", &mut self.throughput_rps),
            ("latency_p50_ms", &mut self.latency_p50_ms),
            ("latency_tail_ms", &mut self.latency_tail_ms),
            ("tail_percentile", &mut self.tail_percentile),
            ("wall_s", &mut self.wall_s),
            ("setup_s", &mut self.setup_s),
            ("peak_rss_mb", &mut self.peak_rss_mb),
        ]
    }

    /// The round as one JSON line, for the parent process.
    pub fn to_json(&self) -> String {
        let mut round = self.clone();
        let mut json = Json::object();
        for (name, value) in round.numbers() {
            json = json.field(name, Json::Float(*value));
        }
        for (name, value) in round.tally.fields() {
            json = json.field(name, Json::Int(*value as i64));
        }
        json.to_string()
    }

    /// Parses [`Round::to_json`].
    pub fn from_json(line: &str) -> Option<Round> {
        let json = Json::parse(line).ok()?;
        let mut round = Round::default();
        for (name, value) in round.numbers() {
            *value = json.get(name)?.as_f64()?;
        }
        for (name, value) in round.tally.fields() {
            *value = u64::try_from(json.get(name)?.as_int()?).ok()?;
        }
        Some(round)
    }
}

/// A run's end-to-end metrics, plus the printed-only extras, and the summed
/// answer mix.  Each timing is the best round's figure (the highest
/// throughput, the lowest latency or set-up time): interference from other
/// tenants of a shared host only ever slows a round, so the best round is
/// the steadiest estimate of the program's own speed.  Memory is the median
/// round's.
pub fn aggregate(rounds: &[Round], requests: usize) -> (Metrics, Metrics, Tally) {
    let values = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let lowest = |f| values(f).into_iter().fold(f64::INFINITY, f64::min);
    let highest = |f| values(f).into_iter().fold(f64::NEG_INFINITY, f64::max);
    let mut tally = Tally::default();
    for round in rounds {
        tally.add(&round.tally);
    }
    let mut gated = Metrics::default();
    gated.push("throughput_rps", highest(|r| r.throughput_rps), "1/s");
    gated.push("latency_p50_ms", lowest(|r| r.latency_p50_ms), "ms");
    gated.push("latency_tail_ms", lowest(|r| r.latency_tail_ms), "ms");
    gated.push("decided_ratio", ratio(tally.decided, tally.attempted), "ratio");
    gated.push("setup_s", lowest(|r| r.setup_s), "s");
    gated.push("peak_rss_mb", median(&values(|r| r.peak_rss_mb)), "MB");
    let mut extra = Metrics::default();
    let errors = tally.rejected + tally.linted + tally.failed;
    extra.push("error_ratio", ratio(errors, tally.attempted), "ratio");
    extra.push("latency_tail_percentile", lowest(|r| r.tail_percentile), "percentile");
    extra.push("latency_samples_per_pass", requests as f64, "count");
    extra.push("rounds", rounds.len() as f64, "count");
    extra.push("round_wall_s", median(&values(|r| r.wall_s)), "s");
    (gated, extra, tally)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no VmHWM in /proc/self/status"))
}

/// Connections for `workload`, capped at the hardware threads.
pub fn connections(workload: &Workload, hardware_threads: usize) -> usize {
    match workload.transport {
        Transport::Http { connections } => connections.min(hardware_threads).max(1),
        Transport::InProcess => 1,
    }
}

/// Runs one round: warm-up on the disjoint stream, the set-ups, the closed
/// loop over the round's sequence, then verification of every answer.
/// Returns the round and the reasons for the first few wrong answers.
pub fn round(
    workload: &Workload,
    sequence: &Sequence,
    warmup: Sequence,
    connections: usize,
) -> io::Result<(Round, Vec<String>)> {
    match (sequence, warmup) {
        (Sequence::Http { prime, bodies }, Sequence::Http { bodies: warm, .. }) => {
            http_round(workload, prime, bodies, &warm, connections, sequence.passes())
        }
        (Sequence::Formulas(formulas), Sequence::Formulas(warm)) => {
            in_process_round(workload, formulas, warm)
        }
        _ => unreachable!("a workload's warm-up has its own request shape"),
    }
}

fn http_round(
    workload: &Workload,
    prime: &[String],
    bodies: &[String],
    warm: &[String],
    connections: usize,
    passes: usize,
) -> io::Result<(Round, Vec<String>)> {
    let handle = serve::start(connections)?;
    let warmed = serve::drive(handle.addr(), warm, connections);
    handle.shutdown();
    warmed?;

    let mut setups = Vec::with_capacity(workload.setups);
    let mut kept = None;
    for _ in 0..workload.setups {
        let (handle, took, primed) = serve::setup(connections, prime)?;
        setups.push(took);
        if let Some((old, _)) = kept.replace((handle, primed)) {
            let old: ilogic_server::ServerHandle = old;
            old.shutdown();
        }
    }
    let (handle, primed) = kept.expect("at least one set-up");
    let mut verifier = Verifier::default();
    let mut texts = HashMap::new();
    let mut text_of = |body: &String| -> String {
        texts.entry(body.clone()).or_insert_with(|| body_formula(body)).clone()
    };
    // Priming answers are verified like the timed ones, but not counted.
    for (body, answer) in prime.iter().zip(&primed) {
        verifier.http(&text_of(body), answer.status, &answer.body);
    }
    // Every pass runs on the one set-up daemon.  Each is verified, untimed,
    // before the next, so only one pass's answers are ever held.
    let mut measured = Vec::with_capacity(passes);
    let mut failure = None;
    for _ in 0..passes {
        let (answers, wall) = match serve::drive(handle.addr(), bodies, connections) {
            Ok(driven) => driven,
            Err(error) => {
                failure = Some(error);
                break;
            }
        };
        let mut tally = Tally::default();
        for (body, answer) in bodies.iter().zip(&answers) {
            tally.attempted += 1;
            let text = text_of(body);
            if !verifier.http(&text, answer.status, &answer.body) {
                tally.failed += 1;
            } else if answer.status == 400 {
                match expected(&text) {
                    Expected::Refusal("lint") => tally.linted += 1,
                    _ => tally.rejected += 1,
                }
            } else if let Ok(report) = CheckReport::from_json(&answer.body) {
                tally.report(&report);
            }
        }
        let latencies_ms = answers.iter().map(|a| a.latency.as_secs_f64() * 1e3).collect();
        measured.push(Pass { latencies_ms, wall, tally });
    }
    let peak = peak_rss_mb();
    handle.shutdown();
    if let Some(error) = failure {
        return Err(error);
    }
    let mut round = Round::measured(&measured, &setups, peak?);
    // A wrong priming answer fails the round too.
    round.tally.failed = round.tally.failed.max(verifier.wrong_count);
    Ok((round, verifier.wrong))
}

/// A fresh session with every formula of the sequence interned: the
/// in-process workload's set-up (an arena preload).
fn preloaded(formulas: &[Formula]) -> Session {
    let session = Session::new();
    for formula in formulas {
        session.intern(formula);
    }
    session
}

fn in_process_round(
    workload: &Workload,
    formulas: &[Formula],
    warm: Vec<Formula>,
) -> io::Result<(Round, Vec<String>)> {
    let session = Session::new();
    let budget = ResourceBudget::default()
        .with_timeout(Duration::from_millis(WARMUP_TIMEOUT_MS.unsigned_abs()));
    for formula in warm {
        session.check(CheckRequest::new(formula).auto().with_budget(budget.clone()));
    }
    drop(session);

    let mut setups = Vec::with_capacity(workload.setups);
    let mut session = None;
    for _ in 0..workload.setups {
        let started = Instant::now();
        let fresh = preloaded(formulas);
        setups.push(started.elapsed());
        session = Some(fresh);
    }
    let session = session.expect("at least one set-up");
    let requests: Vec<CheckRequest> =
        formulas.iter().map(|f| CheckRequest::new(f.clone()).auto()).collect();
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let mut reports = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for request in requests {
        let sent = Instant::now();
        reports.push(session.check(request));
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    let wall = started.elapsed();
    let peak = peak_rss_mb()?;

    let mut verifier = Verifier::default();
    let mut tally = Tally::default();
    for (formula, report) in formulas.iter().zip(&reports) {
        tally.attempted += 1;
        if verifier.report(formula, report) {
            tally.report(report);
        } else {
            tally.failed += 1;
        }
    }
    let pass = Pass { latencies_ms, wall, tally };
    Ok((Round::measured(&[pass], &setups, peak), verifier.wrong))
}

/// Accumulators of the traced replay.
#[derive(Debug, Default)]
struct Layered {
    tally: Tally,
    parse_rejects: u64,
    report_bytes: Vec<f64>,
    http_self_ns: Vec<f64>,
    wire_self_ns: Vec<f64>,
    rounds: u64,
    evaluated: u64,
    skipped: u64,
    traces_checked: u64,
    memo_hits: u64,
    memo_misses: u64,
    tableau_nodes: u64,
    fixpoint_ns: Vec<f64>,
    evaluated_decisions: u64,
    mismatches: Vec<String>,
}

impl Layered {
    fn stats(&mut self, report: &CheckReport) {
        self.tally.report(report);
        // A cache hit replays the stored outcome's counters; only count the
        // work a backend actually did.
        if report.stats.cache.hits > 0 {
            return;
        }
        let s = &report.stats;
        self.rounds += s.condition.rounds;
        self.evaluated += s.condition.equations_evaluated;
        self.skipped += s.condition.equations_skipped;
        self.traces_checked += s.traces_checked as u64;
        self.memo_hits += s.memo.hits;
        self.memo_misses += s.memo.misses;
    }

    /// Records a disagreement between two layers' verdicts for request `i`.
    fn compare(&mut self, i: u32, what: &str, a: &Class, b: &Class) {
        if a != b && !a.timing_cut() && !b.timing_cut() {
            self.mismatches.push(format!("request {i}: {what}: {a:?} vs {b:?}"));
        }
    }

    /// Replays the temporal layers of a backend run under the request's
    /// `budget` and compares verdicts and counters with the session's.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        i: u32,
        root: usize,
        formula: &Formula,
        budget: &ResourceBudget,
        report: &CheckReport,
    ) {
        if report.stats.cache.hits > 0 || !matches!(report.backend, "decide" | "bounded") {
            return;
        }
        let replay = temporal::replay(formula, report.backend, budget, tracer, i, root);
        self.tableau_nodes += replay.tableau_nodes as u64;
        if report.backend == "decide" && replay.verdict.is_some() {
            self.fixpoint_ns.push(replay.fixpoint_ns as f64);
            self.evaluated_decisions += u64::from(replay.phases.contains(&"fixpoint.evaluated"));
        }
        if replay.prune_disagrees {
            self.mismatches
                .push(format!("request {i}: tableau pruning disagrees with the fixpoint"));
        }
        let Some(verdict) = replay.verdict else { return };
        let session = Class::of(&report.verdict);
        self.compare(i, "temporal replay vs session", &Class::of(&verdict), &session);
        // The counters differ whenever the replay ran other phases than
        // the session did; a timing cut stops the session's phases early.
        let counters = (replay.condition, replay.traces_checked);
        if !session.timing_cut()
            && counters != (report.stats.condition, report.stats.traces_checked)
        {
            self.mismatches.push(format!(
                "request {i}: temporal replay counters {counters:?} vs session {:?}",
                (report.stats.condition, report.stats.traces_checked)
            ));
        }
    }
}

/// What the traced replay produced.
#[derive(Debug)]
pub struct Traced {
    /// The per-layer metrics, in report order.
    pub metrics: Metrics,
    /// The spans, for writing out.
    pub tracer: Tracer,
    /// Layer verdicts that disagreed with `Session::check`.
    pub mismatches: Vec<String>,
    /// The answer mix of the replay.
    pub tally: Tally,
}

/// Replays `sequence` layer by layer with spans, after an untimed priming
/// of every layer's state; `untraced_wall` is the timed run's wall time,
/// for the overhead figure.
pub fn traced(sequence: &Sequence, untraced_wall: Duration) -> io::Result<Traced> {
    let mut tracer = Tracer::default();
    let mut layered = Layered::default();
    let session = Session::new();
    let started;
    match sequence {
        Sequence::Http { prime, bodies } => {
            let config = serve::config(1);
            let (handle, _, _) = serve::setup(1, prime)?;
            let metrics = ServerMetrics::new(config.capacity);
            let ctx = ServerContext {
                gate: AdmissionGate::new(Arc::clone(&metrics), config.retry_after_ms),
                metrics,
                store: JobStore::new(config.job_sets_retained),
                session: Session::new(),
                config: config.clone(),
            };
            for body in prime {
                router::handle(&post(body), &ctx);
                if let Ok(request) = translate(body, &config) {
                    session.check(request);
                }
            }
            let mut client = ClientConn::connect(handle.addr(), Duration::from_secs(30))?;
            started = Instant::now();
            for (i, body) in bodies.iter().enumerate() {
                let i = i as u32;
                let root = tracer.open("request", i, None);
                http_request(
                    &mut tracer,
                    &mut layered,
                    &mut client,
                    &ctx,
                    &session,
                    &config,
                    body,
                    i,
                    root,
                );
                tracer.close(root);
            }
            drop(client);
            handle.shutdown();
        }
        Sequence::Formulas(formulas) => {
            // The same arena preload the timed run's set-up performs.
            for formula in formulas {
                session.intern(formula);
            }
            started = Instant::now();
            for (i, formula) in formulas.iter().enumerate() {
                let i = i as u32;
                let root = tracer.open("request", i, None);
                layered.tally.attempted += 1;
                let request = CheckRequest::new(formula.clone()).auto();
                tracer.span("arena", i, Some(root), || session.intern(formula));
                let report = session_check(&mut tracer, &session, request, i, root);
                layered.stats(&report);
                let budget = ResourceBudget::default();
                layered.replay(&mut tracer, i, root, formula, &budget, &report);
                tracer.close(root);
            }
        }
    }
    let wall = started.elapsed();
    let arena_nodes = {
        let arena = session.arena();
        arena.formula_count() + arena.term_count()
    };
    let metrics = layer_metrics(&tracer, &layered, wall, untraced_wall, arena_nodes);
    Ok(Traced { metrics, tracer, mismatches: layered.mismatches, tally: layered.tally })
}

fn post(body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/check".to_string(),
        body: body.to_string(),
        keep_alive: true,
    }
}

fn translate(body: &str, config: &ServerConfig) -> Result<CheckRequest, String> {
    let json = Json::parse(body).map_err(|e| e.to_string())?;
    wire::check_request_from_json(&json, config).map_err(|e| e.code)
}

/// `Session::check` under a span named by how the request was served.
fn session_check(
    tracer: &mut Tracer,
    session: &Session,
    request: CheckRequest,
    i: u32,
    root: usize,
) -> CheckReport {
    let index = tracer.open("session", i, Some(root));
    let report = session.check(request);
    tracer.close(index);
    tracer.spans[index].name = if report.stats.cache.hits > 0 {
        "session.hit"
    } else if report.backend == "bounded" {
        "session.bounded"
    } else {
        "session.decide"
    };
    report
}

/// The verdict class of a `/check` answer body, if it is a report.
fn body_class(status: u16, body: &str) -> Option<Class> {
    (status == 200)
        .then(|| CheckReport::from_json(body).ok())
        .flatten()
        .map(|r| Class::of(&r.verdict))
}

#[allow(clippy::too_many_arguments)]
fn http_request(
    tracer: &mut Tracer,
    layered: &mut Layered,
    client: &mut ClientConn,
    ctx: &ServerContext,
    session: &Session,
    config: &ServerConfig,
    body: &str,
    i: u32,
    root: usize,
) {
    layered.tally.attempted += 1;
    let answer = tracer.span("http", i, Some(root), || client.post("/check", body));
    let http_ns = tracer.last_ns();
    let request = post(body);
    let routed = tracer.span("router", i, Some(root), || router::handle(&request, ctx));
    layered.http_self_ns.push(http_ns - tracer.last_ns());

    let json = tracer
        .span("json.parse", i, Some(root), || Json::parse(body))
        .expect("benchmark bodies are JSON");
    let job = tracer.span("wire", i, Some(root), || wire::check_request_from_json(&json, config));
    let wire_ns = tracer.last_ns();
    let text = json.get("formula").and_then(Json::as_str).unwrap_or_default();
    let parsed = tracer.span("parser", i, Some(root), || parse_formula(text));
    let mut inner_ns = tracer.last_ns();
    if let Ok(formula) = &parsed {
        tracer.span("analysis", i, Some(root), || analyze_formula(formula));
        inner_ns += tracer.last_ns();
    } else {
        layered.parse_rejects += 1;
    }
    layered.wire_self_ns.push(wire_ns - inner_ns);

    let http_class = match &answer {
        Ok(response) => body_class(response.status, &response.body),
        Err(_) => None,
    };
    let routed_class = body_class(routed.status, &routed.body);
    match job {
        Ok(request) => {
            let formula = request.formula().clone();
            let budget = request.budget().cloned().unwrap_or_default();
            tracer.span("arena", i, Some(root), || session.intern(&formula));
            let report = session_check(tracer, session, request, i, root);
            let encoded = tracer.span("json.encode", i, Some(root), || report.to_json());
            layered.report_bytes.push(encoded.len() as f64);
            layered.stats(&report);
            let class = Class::of(&report.verdict);
            match (&http_class, &routed_class) {
                (Some(h), Some(r)) => {
                    layered.compare(i, "http vs session", h, &class);
                    layered.compare(i, "router vs session", r, &class);
                }
                _ => layered
                    .mismatches
                    .push(format!("request {i}: a layer refused a checkable request")),
            }
            layered.replay(tracer, i, root, &formula, &budget, &report);
        }
        Err(error) => {
            tracer.span("json.encode", i, Some(root), || error.to_json());
            if error.code == "lint" {
                layered.tally.linted += 1;
            } else {
                layered.tally.rejected += 1;
            }
            let statuses = (answer.as_ref().map_or(0, |a| a.status), routed.status);
            if statuses != (400, 400) {
                layered.mismatches.push(format!("request {i}: refusal answered {statuses:?}"));
            }
        }
    }
}

/// The per-layer metrics of a traced replay.
fn layer_metrics(
    tracer: &Tracer,
    layered: &Layered,
    wall: Duration,
    untraced_wall: Duration,
    arena_nodes: usize,
) -> Metrics {
    let busy_ns = tracer.busy();
    let busy = |layer: &str| busy_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    // `+ 0.0` turns the empty sum's `-0` into `0`.
    let sum_ms = |v: &[f64]| v.iter().sum::<f64>() / 1e6 + 0.0;
    let median_us = |v: &[f64]| median(v) / 1e3;
    let t = &layered.tally;
    let reports = t.verdicts();
    let mut m = Metrics::default();
    m.push("http.busy_ms", sum_ms(&layered.http_self_ns), "ms");
    m.push("http.self_us", median_us(&layered.http_self_ns), "us");
    m.push("router.busy_ms", busy("router"), "ms");
    m.push("router.handle_us", tracer.p50_us("router"), "us");
    m.push("json.busy_ms", busy("json"), "ms");
    m.push("json.parse_us", tracer.p50_us("json.parse"), "us");
    m.push("json.encode_us", tracer.p50_us("json.encode"), "us");
    m.push("json.report_bytes", median(&layered.report_bytes), "bytes");
    m.push("wire.busy_ms", sum_ms(&layered.wire_self_ns), "ms");
    m.push("wire.translate_us", median_us(&layered.wire_self_ns), "us");
    m.push("parser.busy_ms", busy("parser"), "ms");
    m.push("parser.parse_us", tracer.p50_us("parser"), "us");
    m.push("parser.reject_ratio", ratio(layered.parse_rejects, t.attempted), "ratio");
    m.push("analysis.busy_ms", busy("analysis"), "ms");
    m.push("analysis.analyze_us", tracer.p50_us("analysis"), "us");
    m.push("session.route_decide_ratio", ratio(t.routed_decide, reports), "ratio");
    m.push("arena.busy_ms", busy("arena"), "ms");
    m.push("arena.intern_us", tracer.p50_us("arena"), "us");
    m.push("arena.nodes_end", arena_nodes as f64, "count");
    m.push("session.busy_ms", busy("session"), "ms");
    m.push("session.check_hit_us", tracer.p50_us("session.hit"), "us");
    m.push("session.check_decide_us", tracer.p50_us("session.decide"), "us");
    m.push("session.check_bounded_us", tracer.p50_us("session.bounded"), "us");
    m.push("session.cache_hit_ratio", ratio(t.cache_hits, reports), "ratio");
    m.push("session.unknown_ratio", ratio(t.unknown, reports), "ratio");
    m.push("translate.busy_ms", busy("translate"), "ms");
    m.push("translate.to_ltl_us", tracer.p50_us("translate"), "us");
    m.push("tableau.busy_ms", busy("tableau"), "ms");
    m.push("tableau.build_us", tracer.p50_us("tableau.build"), "us");
    m.push("tableau.prune_us", tracer.p50_us("tableau.prune"), "us");
    m.push("tableau.nodes", layered.tableau_nodes as f64, "count");
    m.push("fixpoint.busy_ms", busy("fixpoint"), "ms");
    m.push("fixpoint.decide_us", median_us(&layered.fixpoint_ns), "us");
    m.push("fixpoint.condition_us", tracer.p50_us("fixpoint.condition"), "us");
    m.push("fixpoint.evaluated_us", tracer.p50_us("fixpoint.evaluated"), "us");
    m.push(
        "fixpoint.evaluated_ratio",
        ratio(layered.evaluated_decisions, layered.fixpoint_ns.len() as u64),
        "ratio",
    );
    m.push("fixpoint.rounds", layered.rounds as f64, "count");
    m.push("fixpoint.equations_evaluated", layered.evaluated as f64, "count");
    m.push(
        "fixpoint.skip_ratio",
        ratio(layered.skipped, layered.evaluated + layered.skipped),
        "ratio",
    );
    m.push("bounded.busy_ms", busy("bounded"), "ms");
    m.push("bounded.sweep_us", tracer.p50_us("bounded"), "us");
    m.push("bounded.traces_checked", layered.traces_checked as f64, "count");
    m.push(
        "memo.hit_ratio",
        ratio(layered.memo_hits, layered.memo_hits + layered.memo_misses),
        "ratio",
    );
    let traced_ms = wall.as_secs_f64() * 1e3;
    m.push("trace.wall_ms", traced_ms, "ms");
    m.push("trace.overhead_ms", traced_ms - untraced_wall.as_secs_f64() * 1e3, "ms");
    m.push("trace.unattributed_ratio", busy("request") / traced_ms, "ratio");
    m.push("trace.self_sum_ratio", self_sum_ratio(tracer, wall), "ratio");
    m
}

/// Summed per-request self times over the traced wall time: `1` when the
/// spans account for every nanosecond of the replay loop.
pub fn self_sum_ratio(tracer: &Tracer, wall: Duration) -> f64 {
    let total: u64 = tracer.self_by_request().values().sum();
    total as f64 / wall.as_nanos().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use crate::workload::{check_body, distinct_hard_formulas, generated_texts, TIMEOUT_MS};

    /// `(name, unit)` pairs of one section of the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let root = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let entries = root.get(section).and_then(Json::as_array).expect("a metric list");
        entries
            .iter()
            .map(|entry| {
                let field = |key| entry.get(key).and_then(Json::as_str).expect(key).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &Metrics) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    fn sample_round() -> Round {
        let pass = |wall_ms, latencies_ms: &[f64]| Pass {
            latencies_ms: latencies_ms.to_vec(),
            wall: Duration::from_millis(wall_ms),
            tally: Tally { attempted: 4, decided: 2, ..Tally::default() },
        };
        let passes = [pass(10, &[1.0, 2.0, 3.0, 4.0]), pass(8, &[1.5, 1.5, 2.5, 5.0])];
        Round::measured(&passes, &[Duration::from_millis(3)], 12.5)
    }

    #[test]
    fn a_round_reports_its_best_pass_and_sums_the_mix() {
        let round = sample_round();
        assert_eq!(round.throughput_rps, 4.0 / 0.008);
        assert_eq!((round.latency_p50_ms, round.latency_tail_ms), (1.5, 1.5));
        assert_eq!(round.wall_s, 0.008);
        assert_eq!((round.tally.attempted, round.tally.decided), (8, 4));
    }

    #[test]
    fn rounds_round_trip_through_their_json_line() {
        let round = sample_round();
        assert_eq!(Round::from_json(&round.to_json()), Some(round));
    }

    #[test]
    fn end_to_end_metrics_are_named_and_united_as_declared() {
        let (gated, extra, tally) = aggregate(&[sample_round(), sample_round()], 4);
        assert_eq!(emitted(&gated), declared("end_to_end"));
        assert_eq!(tally.attempted, 16);
        for metric in gated.iter().chain(extra.iter()) {
            assert!(valid_name(&metric.name) && !metric.unit.is_empty(), "{metric:?}");
        }
        assert!(gated.iter().all(|m| m.value > 0.0), "end-to-end metrics are never 0");
    }

    #[test]
    fn traced_in_process_replay_accounts_for_its_wall_time() {
        let sequence = Sequence::Formulas(distinct_hard_formulas(5, 12));
        let traced = traced(&sequence, Duration::from_millis(1)).expect("in-process replay");
        assert!(traced.mismatches.is_empty(), "{:?}", traced.mismatches);
        assert_eq!(emitted(&traced.metrics), declared("per_layer"));
        let value = |name| traced.metrics.get(name).expect(name).value;
        assert!((1.0 - value("trace.self_sum_ratio")).abs() <= TRACE_SLACK);
        assert_eq!(value("trace.overhead_ms"), value("trace.wall_ms") - 1.0);
        // No serving layer runs in process.
        assert_eq!(value("http.busy_ms") + value("json.busy_ms") + value("router.busy_ms"), 0.0);
        assert!(value("session.busy_ms") > 0.0);
    }

    #[test]
    fn traced_http_replay_agrees_layer_by_layer() {
        let texts = generated_texts(11, 24);
        let prime: Vec<String> = texts[..6].iter().map(|t| check_body(t, TIMEOUT_MS)).collect();
        let bodies: Vec<String> = texts.iter().map(|t| check_body(t, TIMEOUT_MS)).collect();
        let sequence = Sequence::Http { prime, bodies };
        let traced = traced(&sequence, Duration::ZERO).expect("loopback replay");
        assert!(traced.mismatches.is_empty(), "{:?}", traced.mismatches);
        assert_eq!(traced.tally.attempted, 24);
        let value = |name| traced.metrics.get(name).expect(name).value;
        assert!((1.0 - value("trace.self_sum_ratio")).abs() <= TRACE_SLACK);
        assert!(value("router.busy_ms") > 0.0 && value("json.parse_us") > 0.0);
    }
}
