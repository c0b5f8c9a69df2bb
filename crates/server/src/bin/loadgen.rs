//! `loadgen`: a seeded load generator for `ilogic-server`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7015 [--connections 8] [--seconds 5]
//!         [--seed 9001] [--out target/loadgen-report.json] [--max-shed-rate 0.9]
//!         [--duplicate-rate 0.0] [--min-cache-hit-rate 0.0]
//! ```
//!
//! Each connection thread drives one keep-alive connection with a stream of
//! `POST /check` jobs drawn from [`FormulaGenerator`] (seed + thread index,
//! so runs are reproducible and threads never collide).  With
//! `--duplicate-rate p`, each job re-sends a recently sent formula with
//! probability `p` (seeded, so the mix is reproducible) — the
//! millions-of-users workload shape the server's warm verdict cache exists
//! for.  After the window it scrapes `GET /metrics` and verifies the
//! service-level contract:
//!
//! - the accounting identity `accepted = completed + shed + in_flight`;
//! - zero non-shed 5xx responses (500s, broken connections);
//! - every 4xx body is an [`ErrorReport`] whose code is `parse` or `lint`
//!   (the generator's formulas are well-formed JSON, so any other refusal
//!   is a service bug).  `parse` refusals are expected while the formula
//!   printer emits text the grammar rejects; their share is reported so
//!   that gap stays visible;
//! - the shed rate stays under `--max-shed-rate`;
//! - with `--min-cache-hit-rate r`: the server-side verdict-cache hit rate
//!   `cache_hits / (cache_hits + cache_misses)` reaches at least `r`.
//!
//! Results (jobs/sec, p50/p99 latency, shed rate, cache hit rate, 4xx
//! counts per error code, metric counters) go to stdout and to `--out` as
//! JSON.  Exit status is non-zero
//! when any contract clause fails, so CI can gate on it directly.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::json::Json;
use ilogic_core::session::ErrorReport;
use ilogic_server::client::ClientConn;

struct Args {
    addr: SocketAddr,
    connections: usize,
    seconds: u64,
    seed: u64,
    out: Option<String>,
    max_shed_rate: f64,
    duplicate_rate: f64,
    min_cache_hit_rate: Option<f64>,
}

/// The 4xx error codes a stream of generated formulas may draw: `parse`
/// (printed text the grammar rejects) and `lint` (a contradictory formula).
const EXPECTED_4XX: [&str; 2] = ["parse", "lint"];

#[derive(Default)]
struct ThreadOutcome {
    ok: u64,
    shed: u64,
    /// Every 4xx answer.
    refused_4xx: u64,
    /// 4xx answers per `ErrorReport` code.
    refusals: BTreeMap<String, u64>,
    /// 4xx answers whose body is not an `ErrorReport` or whose code is not
    /// in [`EXPECTED_4XX`], with the first such answer kept for the log.
    unexpected_4xx: u64,
    unexpected_sample: Option<String>,
    non_shed_5xx: u64,
    transport_errors: u64,
    latencies_us: Vec<u64>,
}

impl ThreadOutcome {
    /// Counts one 4xx answer under its error code, and as unexpected unless
    /// it is a structured `parse`/`lint` refusal.
    fn refused(&mut self, status: u16, body: &str) {
        self.refused_4xx += 1;
        let code = ErrorReport::from_json(body).ok().map(|error| error.code);
        if let Some(code) = &code {
            *self.refusals.entry(code.clone()).or_default() += 1;
        }
        if !code.is_some_and(|code| EXPECTED_4XX.contains(&code.as_str())) {
            self.unexpected_4xx += 1;
            self.unexpected_sample.get_or_insert_with(|| format!("{status} {body}"));
        }
    }

    fn answered(&self) -> u64 {
        self.ok + self.shed + self.refused_4xx + self.non_shed_5xx
    }

    fn merge(&mut self, other: ThreadOutcome) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.refused_4xx += other.refused_4xx;
        for (code, count) in other.refusals {
            *self.refusals.entry(code).or_default() += count;
        }
        self.unexpected_4xx += other.unexpected_4xx;
        if self.unexpected_sample.is_none() {
            self.unexpected_sample = other.unexpected_sample;
        }
        self.non_shed_5xx += other.non_shed_5xx;
        self.transport_errors += other.transport_errors;
        self.latencies_us.extend(other.latencies_us);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadgen: {message}");
            std::process::exit(2);
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..args.connections)
        .map(|index| {
            let stop = Arc::clone(&stop);
            let addr = args.addr;
            let seed = args.seed.wrapping_add(index as u64);
            let duplicate_rate = args.duplicate_rate;
            std::thread::spawn(move || drive_connection(addr, seed, duplicate_rate, &stop))
        })
        .collect();
    std::thread::sleep(Duration::from_secs(args.seconds));
    stop.store(true, Ordering::SeqCst);
    let outcomes: Vec<ThreadOutcome> =
        workers.into_iter().map(|w| w.join().expect("worker thread exits cleanly")).collect();
    let elapsed = started.elapsed();

    let mut total = ThreadOutcome::default();
    for outcome in outcomes {
        total.merge(outcome);
    }
    total.latencies_us.sort_unstable();

    let metrics = scrape_metrics(args.addr);
    let report = build_report(&args, &total, elapsed, metrics.as_ref());
    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(error) =
            std::fs::File::create(path).and_then(|mut file| writeln!(file, "{report}"))
        {
            eprintln!("loadgen: writing {path}: {error}");
            std::process::exit(1);
        }
    }

    let parse = total.refusals.get("parse").copied().unwrap_or(0);
    eprintln!(
        "loadgen: {parse} of {} answers ({:.1}%) refused as `parse`: generated formulas whose \
         printed text the grammar rejects",
        total.answered(),
        100.0 * parse_share(&total)
    );
    let violations = contract_violations(&args, &total, metrics.as_ref());
    for violation in &violations {
        eprintln!("loadgen: CONTRACT VIOLATION: {violation}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// How many recently sent formulas each connection keeps for re-sending
/// under `--duplicate-rate`.
const DUPLICATE_POOL: usize = 16;

/// A tiny seeded xorshift64 step — enough randomness to mix duplicates into
/// the stream reproducibly without pulling in a real PRNG.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One connection's request loop: generate (or re-send), post, classify,
/// repeat.
fn drive_connection(
    addr: SocketAddr,
    seed: u64,
    duplicate_rate: f64,
    stop: &AtomicBool,
) -> ThreadOutcome {
    let mut outcome = ThreadOutcome::default();
    let mut generator = FormulaGenerator::from_seed(seed, GeneratorConfig::default());
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut pool: Vec<String> = Vec::new();
    let mut conn: Option<ClientConn> = None;
    while !stop.load(Ordering::SeqCst) {
        let Some(client) = connected(&mut conn, addr, &mut outcome) else { continue };
        let duplicate =
            !pool.is_empty() && (next_u64(&mut rng) as f64 / u64::MAX as f64) < duplicate_rate;
        let formula = if duplicate {
            pool[next_u64(&mut rng) as usize % pool.len()].clone()
        } else {
            let fresh = generator.next_formula().to_string();
            if pool.len() < DUPLICATE_POOL {
                pool.push(fresh.clone());
            } else {
                pool[next_u64(&mut rng) as usize % DUPLICATE_POOL] = fresh.clone();
            }
            fresh
        };
        let body = Json::object()
            .field("formula", Json::Str(formula))
            .field("backend", Json::object().field("kind", Json::Str("auto".into())))
            .field("budget", Json::object().field("timeout_ms", Json::Int(2_000)))
            .to_string();
        let sent = Instant::now();
        match client.post("/check", &body) {
            Ok(response) => {
                let micros = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                match response.status {
                    200 => {
                        outcome.ok += 1;
                        outcome.latencies_us.push(micros);
                    }
                    503 => outcome.shed += 1,
                    400..=499 => outcome.refused(response.status, &response.body),
                    _ => outcome.non_shed_5xx += 1,
                }
            }
            Err(_) => {
                outcome.transport_errors += 1;
                conn = None;
            }
        }
    }
    outcome
}

/// Returns the live connection, dialing a new one after transport errors.
fn connected<'a>(
    conn: &'a mut Option<ClientConn>,
    addr: SocketAddr,
    outcome: &mut ThreadOutcome,
) -> Option<&'a mut ClientConn> {
    if conn.is_none() {
        match ClientConn::connect(addr, Duration::from_secs(10)) {
            Ok(client) => *conn = Some(client),
            Err(_) => {
                outcome.transport_errors += 1;
                std::thread::sleep(Duration::from_millis(10));
                return None;
            }
        }
    }
    conn.as_mut()
}

fn scrape_metrics(addr: SocketAddr) -> Option<Json> {
    let mut conn = ClientConn::connect(addr, Duration::from_secs(10)).ok()?;
    let response = conn.get("/metrics").ok()?;
    Json::parse(&response.body).ok()
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// The share of answered requests refused as `parse`.
fn parse_share(total: &ThreadOutcome) -> f64 {
    let parse = total.refusals.get("parse").copied().unwrap_or(0);
    parse as f64 / total.answered().max(1) as f64
}

fn shed_rate(total: &ThreadOutcome) -> f64 {
    let answered = total.ok + total.shed;
    if answered == 0 {
        return 0.0;
    }
    total.shed as f64 / answered as f64
}

/// The server-side verdict-cache counters and hit rate from a `/metrics`
/// snapshot; `None` when the scrape failed or the fields are missing.
fn cache_hit_rate(metrics: Option<&Json>) -> Option<(i64, i64, f64)> {
    let snapshot = metrics?;
    let hits = snapshot.get("cache_hits").and_then(Json::as_int)?;
    let misses = snapshot.get("cache_misses").and_then(Json::as_int)?;
    let total = hits + misses;
    let rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
    Some((hits, misses, rate))
}

fn build_report(
    args: &Args,
    total: &ThreadOutcome,
    elapsed: Duration,
    metrics: Option<&Json>,
) -> Json {
    let jobs_per_sec = total.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    let (cache_hits, cache_misses, hit_rate) = cache_hit_rate(metrics).unwrap_or((0, 0, 0.0));
    Json::object()
        .field("bench", Json::Str("ilogic-server loadgen".into()))
        .field("addr", Json::Str(args.addr.to_string()))
        .field("connections", Json::Int(args.connections as i64))
        .field("seconds", Json::Int(args.seconds as i64))
        .field("seed", Json::Int(args.seed as i64))
        .field("completed", Json::Int(total.ok as i64))
        .field("shed", Json::Int(total.shed as i64))
        .field("refused_4xx", Json::Int(total.refused_4xx as i64))
        .field(
            "refusals",
            Json::Object(
                total
                    .refusals
                    .iter()
                    .map(|(code, &count)| (code.clone(), Json::Int(count as i64)))
                    .collect(),
            ),
        )
        .field("unexpected_4xx", Json::Int(total.unexpected_4xx as i64))
        .field("parse_share", Json::Float((parse_share(total) * 10_000.0).round() / 10_000.0))
        .field("non_shed_5xx", Json::Int(total.non_shed_5xx as i64))
        .field("transport_errors", Json::Int(total.transport_errors as i64))
        .field("jobs_per_sec", Json::Float((jobs_per_sec * 100.0).round() / 100.0))
        .field("p50_us", Json::Int(percentile(&total.latencies_us, 0.50) as i64))
        .field("p99_us", Json::Int(percentile(&total.latencies_us, 0.99) as i64))
        .field("shed_rate", Json::Float((shed_rate(total) * 10_000.0).round() / 10_000.0))
        .field("duplicate_rate", Json::Float(args.duplicate_rate))
        .field("cache_hits", Json::Int(cache_hits))
        .field("cache_misses", Json::Int(cache_misses))
        .field("cache_hit_rate", Json::Float((hit_rate * 10_000.0).round() / 10_000.0))
        .field("server_metrics", metrics.cloned().unwrap_or(Json::Null))
}

/// The service-level contract checked after the window.
fn contract_violations(args: &Args, total: &ThreadOutcome, metrics: Option<&Json>) -> Vec<String> {
    let mut violations = Vec::new();
    if total.unexpected_4xx > 0 {
        violations.push(format!(
            "{} 4xx answers were not `parse`/`lint` ErrorReports (want 0); first: {}",
            total.unexpected_4xx,
            total.unexpected_sample.as_deref().unwrap_or_default()
        ));
    }
    if total.non_shed_5xx > 0 {
        violations.push(format!("{} non-shed 5xx responses (want 0)", total.non_shed_5xx));
    }
    let rate = shed_rate(total);
    if rate > args.max_shed_rate {
        violations
            .push(format!("shed rate {rate:.4} exceeds --max-shed-rate {}", args.max_shed_rate));
    }
    if total.ok == 0 {
        violations.push("no successful checks completed during the window".to_string());
    }
    match metrics {
        None => violations.push("could not scrape /metrics after the run".to_string()),
        Some(snapshot) => {
            let counter = |name: &str| snapshot.get(name).and_then(Json::as_int).unwrap_or(-1);
            let accepted = counter("accepted");
            let balance = counter("completed") + counter("shed") + counter("in_flight");
            if accepted != balance {
                violations.push(format!(
                    "metrics identity broken: accepted={accepted} but completed+shed+in_flight={balance}"
                ));
            }
            if counter("errors_5xx") != 0 {
                violations.push(format!(
                    "server counted {} internal 5xx errors (want 0)",
                    counter("errors_5xx")
                ));
            }
        }
    }
    if let Some(min) = args.min_cache_hit_rate {
        match cache_hit_rate(metrics) {
            None => violations
                .push("no cache counters in /metrics to gate --min-cache-hit-rate on".to_string()),
            Some((hits, misses, rate)) => {
                if rate < min {
                    violations.push(format!(
                        "verdict-cache hit rate {rate:.4} ({hits} hits / {misses} misses) \
                         below --min-cache-hit-rate {min}"
                    ));
                }
            }
        }
    }
    violations
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        addr: "127.0.0.1:7015".parse().expect("default addr parses"),
        connections: 8,
        seconds: 5,
        seed: 9001,
        out: None,
        max_shed_rate: 0.9,
        duplicate_rate: 0.0,
        min_cache_hit_rate: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => {
                let raw = value("--addr")?;
                parsed.addr = raw.parse().map_err(|_| format!("bad --addr {raw:?}"))?;
            }
            "--connections" => {
                parsed.connections =
                    value("--connections")?.parse().map_err(|_| "bad --connections".to_string())?;
            }
            "--seconds" => {
                parsed.seconds =
                    value("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--max-shed-rate" => {
                parsed.max_shed_rate = value("--max-shed-rate")?
                    .parse()
                    .map_err(|_| "bad --max-shed-rate".to_string())?;
            }
            "--duplicate-rate" => {
                parsed.duplicate_rate = value("--duplicate-rate")?
                    .parse::<f64>()
                    .ok()
                    .filter(|rate| (0.0..=1.0).contains(rate))
                    .ok_or_else(|| "bad --duplicate-rate (want 0.0..=1.0)".to_string())?;
            }
            "--min-cache-hit-rate" => {
                parsed.min_cache_hit_rate = Some(
                    value("--min-cache-hit-rate")?
                        .parse::<f64>()
                        .ok()
                        .filter(|rate| (0.0..=1.0).contains(rate))
                        .ok_or_else(|| "bad --min-cache-hit-rate (want 0.0..=1.0)".to_string())?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.connections == 0 {
        return Err("--connections must be at least 1".to_string());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_structured_parse_and_lint_refusals_are_expected() {
        let mut outcome = ThreadOutcome::default();
        outcome.refused(400, &ErrorReport::new("parse", "no").to_json());
        outcome.refused(400, &ErrorReport::new("lint", "no").to_json());
        outcome.refused(400, &ErrorReport::new("parse", "again").to_json());
        assert_eq!(outcome.unexpected_4xx, 0);

        outcome.refused(404, &ErrorReport::new("not-found", "no route").to_json());
        outcome.refused(400, "not an error report");
        assert_eq!(outcome.unexpected_4xx, 2);
        assert!(outcome.unexpected_sample.as_deref().is_some_and(|s| s.starts_with("404 ")));
        let counts: Vec<_> = outcome.refusals.iter().map(|(c, &n)| (c.as_str(), n)).collect();
        assert_eq!(counts, [("lint", 1), ("not-found", 1), ("parse", 2)]);
        assert!((parse_share(&outcome) - 0.4).abs() < 1e-9, "2 of 5 answers");
    }
}
