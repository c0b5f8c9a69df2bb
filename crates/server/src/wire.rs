//! The request wire schema: JSON in, [`CheckRequest`] out.
//!
//! A request body looks like
//!
//! ```json
//! {
//!   "api_version": 1,
//!   "formula": "[](P -> <>Q)",
//!   "backend": {"kind": "bounded", "props": ["P", "Q"], "max_len": 3},
//!   "budget": {"max_nodes": 10000, "timeout_ms": 2000},
//!   "preflight": true
//! }
//! ```
//!
//! with the formula in the parser grammar (`ilogic_core::parser`), the
//! backend one of `auto` (the default), `decide`, `bounded`, `trace`
//! (carrying a serialized trace) or `explore` (carrying serialized runs),
//! and an optional budget whose every dimension is **clamped** by the server
//! configuration — a request can ask for less than
//! [`ServerConfig::budget_caps`] in any dimension, never more, and always
//! runs under a wall-clock deadline of at most
//! [`ServerConfig::max_timeout`].
//!
//! Translation failures are structured [`ErrorReport`]s with stable codes:
//! `bad-json` (the body is not JSON — the message carries the byte offset),
//! `bad-request` (valid JSON, wrong shape), `api-version` (an
//! `"api_version"` other than [`API_VERSION`]; the field is optional and
//! defaults to the current version), `parse` (the formula string does
//! not parse — the message carries the position), and `lint` (the formula
//! parsed but carries an error-severity analysis finding; the report quotes
//! the [`Diagnostic`](ilogic_core::analysis::Diagnostic)s).  The same
//! translation is exported so in-process
//! tests can build the *exact* requests the server would, keeping the
//! end-to-end bit-identity check honest.
//!
//! # Where lint runs
//!
//! Lint is one step of the translation, run on the parsed formula right
//! after it parses and before any other field is read, so a lint refusal
//! outranks every later field's error.  [`check_request_from_json`] lints
//! with [`lint`], the analysis pass on a throwaway arena.
//! [`check_request_linted`] takes the step as an argument: the `/check`
//! route first asks its warm session whether it has analysed the formula
//! already and found it clean ([`Session::is_known_clean`]), and runs
//! [`lint`] only when it has not.  A formula that fails lint never reaches
//! the session, so the session only knows clean formulas, and every
//! refusal body is the one [`lint`] writes.
//!
//! [`Session::is_known_clean`]: ilogic_core::session::Session::is_known_clean

use std::time::Duration;

use ilogic_core::analysis::{analyze_formula, Severity};
use ilogic_core::json::{Json, JsonError};
use ilogic_core::parser::parse_formula;
use ilogic_core::pool::ResourceBudget;
use ilogic_core::session::{
    trace_from_json, value_from_json, CheckRequest, ErrorReport, RunSource,
};
use ilogic_core::syntax::Formula;
use ilogic_core::trace::Trace;

use crate::config::ServerConfig;

/// The `bad-json` error for a body that failed [`Json::parse`]; the message
/// carries the byte offset the hardened JSON layer reports.
pub fn body_error(error: &JsonError) -> ErrorReport {
    ErrorReport::new("bad-json", error.to_string())
}

fn bad_request(message: impl Into<String>) -> ErrorReport {
    ErrorReport::new("bad-request", message)
}

/// The wire schema version this server speaks.
pub const API_VERSION: i64 = 1;

/// Validates an optional `"api_version"` field: absent defaults to the
/// current version ([`API_VERSION`]); any other value is refused with the
/// stable `api-version` code so old clients get a structured, actionable
/// error instead of a shape mismatch deeper in translation.
fn api_version_field(value: &Json) -> Result<(), ErrorReport> {
    match value.get("api_version") {
        None | Some(Json::Int(API_VERSION)) => Ok(()),
        Some(other) => Err(ErrorReport::new(
            "api-version",
            format!("unsupported api_version {other} (this server speaks {API_VERSION})"),
        )),
    }
}

/// Translates one job object into a [`CheckRequest`], clamping its budget by
/// `config`; see the module docs for the schema and the error codes.
pub fn check_request_from_json(
    value: &Json,
    config: &ServerConfig,
) -> Result<CheckRequest, ErrorReport> {
    check_request_linted(value, config, lint)
}

/// [`check_request_from_json`] with the lint step supplied by the caller:
/// `lint` gets the parsed formula and its text as soon as the formula
/// parses, and its refusal is the translation's answer (see the module
/// docs, "Where lint runs").
pub fn check_request_linted(
    value: &Json,
    config: &ServerConfig,
    lint: impl FnOnce(&Formula, &str) -> Result<(), ErrorReport>,
) -> Result<CheckRequest, ErrorReport> {
    let Json::Object(fields) = value else {
        return Err(bad_request("a job must be a JSON object"));
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "formula" | "backend" | "budget" | "preflight" | "domain" | "api_version"
        ) {
            return Err(bad_request(format!("unknown job field `{key}`")));
        }
    }
    api_version_field(value)?;

    let formula = formula_field(value, lint)?;
    let mut request = CheckRequest::new(formula);

    request = match value.get("backend") {
        None => request.auto(),
        Some(backend) => backend_field(backend, request)?,
    };

    request = request.with_budget(budget_field(value.get("budget"), config)?);

    let preflight = match value.get("preflight") {
        None => config.preflight,
        Some(Json::Bool(on)) => *on || config.preflight,
        Some(other) => {
            return Err(bad_request(format!("`preflight` must be a boolean, got {other}")))
        }
    };
    if preflight {
        request = request.with_preflight();
    }

    if let Some(domain) = value.get("domain") {
        let Some(entries) = domain.as_array() else {
            return Err(bad_request("`domain` must be an array of values"));
        };
        let domain = entries
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|error| bad_request(format!("bad `domain` entry: {error}")))?;
        request = request.with_domain(domain);
    }

    Ok(request)
}

fn formula_field(
    value: &Json,
    lint: impl FnOnce(&Formula, &str) -> Result<(), ErrorReport>,
) -> Result<Formula, ErrorReport> {
    let text = value
        .require("formula")
        .map_err(|error| bad_request(error.to_string()))?
        .as_str()
        .ok_or_else(|| bad_request("`formula` must be a string in the parser grammar"))?;
    let formula = parse_formula(text).map_err(|error| {
        ErrorReport::new(
            "parse",
            format!("formula does not parse at position {}: {}", error.position, error.message),
        )
    })?;
    lint(&formula, text)?;
    Ok(formula)
}

/// The lint step of [`check_request_from_json`]: refuses a formula with an
/// error-severity finding (a contradictory pattern the author almost
/// certainly did not mean) up front, carrying the same diagnostics a
/// completed report would.  `text` is the formula as the request sent it.
/// The analysis runs on a throwaway arena.
pub fn lint(formula: &Formula, text: &str) -> Result<(), ErrorReport> {
    let analysis = analyze_formula(formula);
    if analysis.diagnostics.iter().any(|d| d.severity == Severity::Error) {
        return Err(ErrorReport::new("lint", format!("formula `{text}` fails analysis"))
            .with_diagnostics(analysis.diagnostics));
    }
    Ok(())
}

fn backend_field(backend: &Json, request: CheckRequest) -> Result<CheckRequest, ErrorReport> {
    let kind = backend
        .require("kind")
        .map_err(|error| bad_request(format!("bad `backend`: {error}")))?
        .as_str()
        .ok_or_else(|| bad_request("`backend.kind` must be a string"))?;
    match kind {
        "auto" => Ok(request.auto()),
        "decide" => Ok(request.decide()),
        "bounded" => {
            let props = backend
                .require("props")
                .ok()
                .and_then(Json::as_array)
                .ok_or_else(|| bad_request("`bounded` needs a `props` array"))?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad_request("`props` entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let max_len = backend
                .require("max_len")
                .ok()
                .and_then(Json::as_int)
                .filter(|n| *n >= 0)
                .ok_or_else(|| bad_request("`bounded` needs a non-negative `max_len`"))?;
            let lassos = match backend.get("lassos") {
                None => true,
                Some(Json::Bool(lassos)) => *lassos,
                Some(other) => {
                    return Err(bad_request(format!("`lassos` must be a boolean, got {other}")))
                }
            };
            let request = request.bounded(props, max_len as usize);
            Ok(if lassos { request } else { request.without_lassos() })
        }
        "trace" => {
            let trace = backend
                .require("trace")
                .map_err(|error| bad_request(format!("`trace` backend: {error}")))?;
            let trace = trace_from_json(trace)
                .map_err(|error| bad_request(format!("bad `trace`: {error}")))?;
            Ok(request.on_trace(&trace))
        }
        "explore" => {
            let runs = backend
                .require("runs")
                .ok()
                .and_then(Json::as_array)
                .ok_or_else(|| bad_request("`explore` needs a `runs` array"))?
                .iter()
                .map(trace_from_json)
                .collect::<Result<Vec<Trace>, _>>()
                .map_err(|error| bad_request(format!("bad `runs` entry: {error}")))?;
            Ok(request.over_run_source(RunSource::collected(runs)))
        }
        other => Err(bad_request(format!(
            "unknown backend kind `{other}` (expected auto/decide/bounded/trace/explore)"
        ))),
    }
}

/// Builds the effective [`ResourceBudget`]: each requested dimension is
/// `min`-ed with the configured cap, and the wall-clock timeout (defaulting
/// to the maximum) is capped at [`ServerConfig::max_timeout`] — so every
/// admitted job runs under a deadline the *server* chose to tolerate.
fn budget_field(
    value: Option<&Json>,
    config: &ServerConfig,
) -> Result<ResourceBudget, ErrorReport> {
    let caps = &config.budget_caps;
    let mut timeout = config.max_timeout;
    let mut budget = caps.clone();
    if let Some(value) = value {
        let Json::Object(fields) = value else {
            return Err(bad_request("`budget` must be an object"));
        };
        let dimension = |name: &str| -> Result<Option<usize>, ErrorReport> {
            match value.get(name) {
                None => Ok(None),
                Some(found) => {
                    found.as_int().filter(|n| *n >= 0).map(|n| Some(n as usize)).ok_or_else(|| {
                        bad_request(format!("`budget.{name}` must be a non-negative integer"))
                    })
                }
            }
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "max_nodes" | "max_edges" | "max_implicants" | "max_enumeration" | "timeout_ms"
            ) {
                return Err(bad_request(format!("unknown budget field `{key}`")));
            }
        }
        if let Some(n) = dimension("max_nodes")? {
            budget = budget.with_max_nodes(n.min(caps.max_nodes()));
        }
        if let Some(n) = dimension("max_edges")? {
            budget = budget.with_max_edges(n.min(caps.max_edges()));
        }
        if let Some(n) = dimension("max_implicants")? {
            budget = budget.with_max_implicants(n.min(caps.max_implicants()));
        }
        if let Some(n) = dimension("max_enumeration")? {
            budget = budget.with_max_enumeration(n.min(caps.max_enumeration()));
        }
        if let Some(ms) = dimension("timeout_ms")? {
            timeout = Duration::from_millis(ms as u64).min(config.max_timeout);
        }
    }
    Ok(budget.with_timeout(timeout))
}

/// Translates a `POST /batch` body (`{"jobs": [job, …]}`) into requests,
/// enforcing [`ServerConfig::max_batch_jobs`]; a failing job's error message
/// is prefixed with its index so the client knows which entry to fix.
pub fn batch_from_json(
    root: &Json,
    config: &ServerConfig,
) -> Result<Vec<CheckRequest>, ErrorReport> {
    api_version_field(root)?;
    let jobs = root
        .require("jobs")
        .map_err(|error| bad_request(error.to_string()))?
        .as_array()
        .ok_or_else(|| bad_request("`jobs` must be an array"))?;
    if jobs.is_empty() {
        return Err(bad_request("`jobs` must not be empty"));
    }
    if jobs.len() > config.max_batch_jobs {
        return Err(bad_request(format!(
            "batch of {} jobs exceeds the limit of {}",
            jobs.len(),
            config.max_batch_jobs
        )));
    }
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            check_request_from_json(job, config).map_err(|mut error| {
                error.message = format!("job {index}: {}", error.message);
                error
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServerConfig {
        ServerConfig {
            budget_caps: ResourceBudget::default().with_max_nodes(1000),
            max_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn the_happy_path_translates_every_backend_kind() {
        let config = config();
        for body in [
            r#"{"formula": "[]P"}"#,
            r#"{"formula": "[]P", "backend": {"kind": "decide"}}"#,
            r#"{"formula": "[]P", "backend": {"kind": "bounded", "props": ["P"], "max_len": 2}}"#,
            r#"{"formula": "[]P", "backend": {"kind": "bounded", "props": ["P"], "max_len": 2, "lassos": false}}"#,
        ] {
            let value = Json::parse(body).expect("test body parses");
            check_request_from_json(&value, &config).expect(body);
        }
    }

    #[test]
    fn budgets_clamp_to_the_configured_caps() {
        let config = config();
        // Asking for more nodes than the cap silently gets the cap; asking
        // for fewer is honoured.  (The clamp is visible through the request's
        // debug rendering, which quotes the budget.)
        let over = Json::parse(r#"{"formula": "P", "budget": {"max_nodes": 999999}}"#).unwrap();
        let request = check_request_from_json(&over, &config).expect("translates");
        assert!(format!("{request:?}").contains("max_nodes: 1000"), "{request:?}");
        let under = Json::parse(r#"{"formula": "P", "budget": {"max_nodes": 7}}"#).unwrap();
        let request = check_request_from_json(&under, &config).expect("translates");
        assert!(format!("{request:?}").contains("max_nodes: 7"), "{request:?}");
        // Every request gets a deadline even when it asked for none.
        let bare = Json::parse(r#"{"formula": "P"}"#).unwrap();
        let request = check_request_from_json(&bare, &config).expect("translates");
        assert!(format!("{request:?}").contains("deadline: Some"), "{request:?}");
    }

    #[test]
    fn translation_failures_carry_stable_codes() {
        let config = config();
        let cases = [
            (r#"{"formula": 7}"#, "bad-request"),
            (r#"{"formual": "P"}"#, "bad-request"),
            (r#"{"formula": "P", "backend": {"kind": "quantum"}}"#, "bad-request"),
            (r#"{"formula": "P", "budget": {"max_nodez": 1}}"#, "bad-request"),
            (r#"{"formula": "(P"}"#, "parse"),
        ];
        for (body, code) in cases {
            let value = Json::parse(body).expect("test body parses");
            let error = check_request_from_json(&value, &config).expect_err(body);
            assert_eq!(error.code, code, "{body}: {error}");
        }
    }

    #[test]
    fn api_versions_default_to_current_and_refuse_the_rest() {
        let config = config();
        for body in [r#"{"formula": "P"}"#, r#"{"formula": "P", "api_version": 1}"#] {
            let value = Json::parse(body).expect("test body parses");
            check_request_from_json(&value, &config).expect(body);
        }
        for body in
            [r#"{"formula": "P", "api_version": 2}"#, r#"{"formula": "P", "api_version": "1"}"#]
        {
            let value = Json::parse(body).expect("test body parses");
            let error = check_request_from_json(&value, &config).expect_err(body);
            assert_eq!(error.code, "api-version", "{body}: {error}");
            assert!(error.message.contains("speaks 1"), "{error}");
        }
        // The batch root takes the same field with the same refusal.
        let root = Json::parse(r#"{"api_version": 0, "jobs": [{"formula": "P"}]}"#).unwrap();
        assert_eq!(batch_from_json(&root, &config).expect_err("refused").code, "api-version");
        let root = Json::parse(r#"{"api_version": 1, "jobs": [{"formula": "P"}]}"#).unwrap();
        assert_eq!(batch_from_json(&root, &config).expect("accepted").len(), 1);
    }

    #[test]
    fn error_severity_lints_are_refused_with_diagnostics() {
        // `P & ~P` trips the L006 contradictory-conjunction lint at error
        // severity; the refusal must quote the diagnostics.
        let value = Json::parse(r#"{"formula": "P & ~P"}"#).unwrap();
        let error = check_request_from_json(&value, &config()).expect_err("lint refusal");
        assert_eq!(error.code, "lint");
        assert!(!error.diagnostics.is_empty(), "{error}");
        // The shape round-trips like reports do.
        assert_eq!(ErrorReport::from_json(&error.to_json()), Ok(error));
    }

    #[test]
    fn batches_are_bounded_and_name_the_failing_job() {
        let config = config();
        let root = Json::parse(r#"{"jobs": [{"formula": "P"}, {"formula": "(Q"}]}"#).unwrap();
        let error = batch_from_json(&root, &config).expect_err("job 1 fails");
        assert!(error.message.starts_with("job 1:"), "{error}");
        let root = Json::parse(r#"{"jobs": []}"#).unwrap();
        assert!(batch_from_json(&root, &config).is_err());
    }
}
