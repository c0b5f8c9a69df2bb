//! The report codec's contract, pinned from both sides.
//!
//! * **Byte identity.**  Response bodies are a wire contract: clients diff
//!   them, archive them and compare them across versions.  The golden
//!   documents below were captured from the tree-building encoder this
//!   crate used before reports were streamed through [`JsonWriter`]; every
//!   report must keep encoding to exactly those bytes.
//! * **Oracle.**  For every report, the encoding is already canonical
//!   (`parse` then print reproduces it) and decodes back to the same report.
//!   The sweep covers real `Auto` answers on the generator's seed-9001
//!   populations and hand-built reports whose strings hold every character
//!   class the escaper treats specially.
//!
//! [`JsonWriter`]: ilogic_core::json::JsonWriter

use std::collections::HashSet;
use std::time::Duration;

use ilogic_core::arena::MemoStats;
use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::json::Json;
use ilogic_core::parser::parse_formula;
use ilogic_core::prelude::*;
use ilogic_core::session::ConditionStats;

// ---------------------------------------------------------------------------
// Fixed reports
// ---------------------------------------------------------------------------

/// Every control character, the two JSON metacharacters, DEL, the line
/// separator JavaScript treats as a newline, and 2-, 3- and 4-byte UTF-8.
fn adversarial() -> String {
    let mut text: String = (0u32..0x20).filter_map(char::from_u32).collect();
    text.push_str("\"\\\u{7f}\u{2028}é λ → ∞ 😀 end");
    text
}

fn state(props: &[(&str, Vec<Value>)], vars: &[(&str, Value)]) -> State {
    let mut state = State::new();
    for (name, args) in props {
        state.insert(Prop { name: (*name).to_string(), args: args.clone() });
    }
    for (name, value) in vars {
        state.set_var(*name, value.clone());
    }
    state
}

fn stats(duration_ns: u64) -> CheckStats {
    CheckStats {
        duration: Duration::from_nanos(duration_ns),
        traces_checked: 42,
        memo: MemoStats { hits: 7, misses: 3 },
        session_memo: MemoStats { hits: 70, misses: 30 },
        condition: ConditionStats::default(),
        session_condition: ConditionStats {
            interned_implicants: 11,
            interned_dnfs: 5,
            memo_hits: 9,
            memo_misses: 4,
            peak_dnf_width: 3,
            rounds: 6,
            equations_evaluated: 14,
            equations_skipped: 2,
        },
        exhausted: None,
        arena_nodes: 17,
        workers: 1,
        estimate: Some(CostEstimate {
            translatable: true,
            closure_components: 4,
            closure_atoms: 2,
            size: 9,
            propositions: 2,
            nodes: 48,
            edges: 192,
            condition_width: 16,
            artifact_intractable: false,
            deep_nesting: false,
        }),
        cache: CacheStats { hits: 0, misses: 1 },
        session_cache: CacheStats { hits: 12, misses: 8 },
    }
}

fn routed(path: &[usize], message: &str) -> Diagnostic {
    Diagnostic::new(
        DiagnosticCode::Routed,
        path.iter().copied().map(FormulaId::from_index).collect(),
        message,
    )
}

/// A lasso counterexample found by the bounded sweep at index 5, with
/// predicate arguments of every value kind and data variables.
fn lasso_counterexample() -> CheckReport {
    let trace = Trace::lasso(
        vec![
            state(
                &[("P", vec![]), ("at", vec![Value::Int(-3), Value::Bool(true)])],
                &[("x", Value::Int(0))],
            ),
            state(&[("Q", vec![Value::Sym("idle".into())])], &[("x", Value::Int(1))]),
            state(&[], &[("x", Value::Int(2)), ("mode", Value::Sym("run".into()))]),
        ],
        1,
    );
    CheckReport {
        verdict: Verdict::Counterexample(trace),
        stats: CheckStats { workers: 2, ..stats(1_234_567) },
        backend: "bounded",
        failing_index: Some(5),
        diagnostics: vec![routed(&[0], "routed to bounded: not translatable")],
    }
}

/// A decided formula answered from the verdict cache.
fn holds() -> CheckReport {
    CheckReport {
        verdict: Verdict::Holds,
        stats: CheckStats {
            condition: ConditionStats {
                interned_implicants: 0,
                interned_dnfs: 0,
                memo_hits: 0,
                memo_misses: 0,
                peak_dnf_width: 0,
                rounds: 3,
                equations_evaluated: 7,
                equations_skipped: 1,
            },
            cache: CacheStats { hits: 1, misses: 0 },
            ..stats(2_500)
        },
        backend: "decide",
        failing_index: None,
        diagnostics: vec![routed(&[], "routed to decide: translatable, K = 4")],
    }
}

fn valid_up_to() -> CheckReport {
    CheckReport {
        verdict: Verdict::ValidUpTo(4),
        stats: stats(987_654_321),
        backend: "bounded",
        failing_index: None,
        diagnostics: Vec::new(),
    }
}

fn edges_exhausted() -> CheckReport {
    CheckReport {
        verdict: Verdict::exhausted(Exhaustion::Edges),
        stats: CheckStats { exhausted: Some(Exhaustion::Edges), estimate: None, ..stats(31_000) },
        backend: "decide",
        failing_index: None,
        diagnostics: Vec::new(),
    }
}

/// A job pre-flight admission refused: its predicted condition width
/// saturated at `u64::MAX`, which the wire carries as a decimal string.
fn preflight_rejection() -> CheckReport {
    let mut stats = stats(0);
    stats.traces_checked = 0;
    stats.estimate = Some(CostEstimate {
        translatable: true,
        closure_components: 12,
        closure_atoms: 3,
        size: 31,
        propositions: 3,
        nodes: 4096,
        edges: u64::MAX,
        condition_width: u64::MAX,
        artifact_intractable: true,
        deep_nesting: true,
    });
    stats.cache = CacheStats::default();
    CheckReport {
        verdict: Verdict::unknown(),
        stats,
        backend: "decide",
        failing_index: None,
        diagnostics: vec![
            Diagnostic::new(
                DiagnosticCode::ArtifactIntractable,
                vec![FormulaId::from_index(0), FormulaId::from_index(2)],
                "the explicit condition DNF is intractably wide",
            ),
            Diagnostic::new(
                DiagnosticCode::OverBudget,
                Vec::new(),
                "predicted condition width 18446744073709551615 exceeds the budget",
            ),
        ],
    }
}

/// The `400 lint` refusal of a contradictory formula.
fn lint_refusal() -> ErrorReport {
    ErrorReport::new("lint", "formula `[ P ] false` fails analysis").with_diagnostics(vec![
        Diagnostic::new(
            DiagnosticCode::Contradictory,
            vec![FormulaId::from_index(0), FormulaId::from_index(1)],
            "the formula is syntactically contradictory",
        ),
    ])
}

/// A shed `503` carrying retry advice.
fn shed_refusal() -> ErrorReport {
    ErrorReport::new("shed", "at capacity: 64 jobs in flight").with_retry_after_ms(250)
}

/// Reports whose every free-form string is [`adversarial`].
fn adversarial_reports() -> Vec<CheckReport> {
    let nasty = adversarial();
    let trace = Trace::finite(vec![
        state(
            &[(nasty.as_str(), vec![Value::Sym(nasty.clone()), Value::Int(i64::MIN)])],
            &[(nasty.as_str(), Value::Sym(nasty.clone()))],
        ),
        state(&[("plain", vec![Value::Int(i64::MAX)])], &[]),
    ]);
    vec![
        CheckReport {
            verdict: Verdict::Counterexample(trace),
            stats: stats(1),
            backend: "trace",
            failing_index: Some(0),
            diagnostics: vec![routed(&[3, 1, 4], &nasty)],
        },
        CheckReport { diagnostics: vec![routed(&[], &nasty); 3], ..holds() },
    ]
}

fn adversarial_errors() -> Vec<ErrorReport> {
    let nasty = adversarial();
    vec![
        ErrorReport::new("parse", nasty.clone()),
        ErrorReport::new(nasty.clone(), "code and message swap roles").with_retry_after_ms(0),
        ErrorReport::new("lint", nasty.clone()).with_diagnostics(vec![
            Diagnostic::new(DiagnosticCode::Contradictory, Vec::new(), nasty.clone()),
            Diagnostic::new(DiagnosticCode::VacuousInterval, vec![FormulaId::from_index(9)], ""),
        ]),
    ]
}

// ---------------------------------------------------------------------------
// Golden bodies
// ---------------------------------------------------------------------------

const LASSO_COUNTEREXAMPLE: &str = r#"{"backend":"bounded","verdict":{"kind":"counterexample","trace":{"extension":{"loop":1},"states":[{"props":[{"name":"P","args":[]},{"name":"at","args":[{"int":-3},{"bool":true}]}],"vars":[{"name":"x","value":{"int":0}}]},{"props":[{"name":"Q","args":[{"sym":"idle"}]}],"vars":[{"name":"x","value":{"int":1}}]},{"props":[],"vars":[{"name":"mode","value":{"sym":"run"}},{"name":"x","value":{"int":2}}]}]}},"failing_index":5,"stats":{"duration_ns":1234567,"traces_checked":42,"memo":{"hits":7,"misses":3},"session_memo":{"hits":70,"misses":30},"condition":{"interned_implicants":0,"interned_dnfs":0,"memo_hits":0,"memo_misses":0,"peak_dnf_width":0,"rounds":0,"equations_evaluated":0,"equations_skipped":0},"session_condition":{"interned_implicants":11,"interned_dnfs":5,"memo_hits":9,"memo_misses":4,"peak_dnf_width":3,"rounds":6,"equations_evaluated":14,"equations_skipped":2},"exhausted":null,"arena_nodes":17,"workers":2,"estimate":{"translatable":true,"closure_components":4,"closure_atoms":2,"size":9,"propositions":2,"nodes":"48","edges":"192","condition_width":"16","artifact_intractable":false,"deep_nesting":false},"cache":{"hits":0,"misses":1},"session_cache":{"hits":12,"misses":8}},"diagnostics":[{"code":"R001","severity":"info","path":[0],"message":"routed to bounded: not translatable"}]}"#;
const HOLDS: &str = r#"{"backend":"decide","verdict":{"kind":"holds"},"failing_index":null,"stats":{"duration_ns":2500,"traces_checked":42,"memo":{"hits":7,"misses":3},"session_memo":{"hits":70,"misses":30},"condition":{"interned_implicants":0,"interned_dnfs":0,"memo_hits":0,"memo_misses":0,"peak_dnf_width":0,"rounds":3,"equations_evaluated":7,"equations_skipped":1},"session_condition":{"interned_implicants":11,"interned_dnfs":5,"memo_hits":9,"memo_misses":4,"peak_dnf_width":3,"rounds":6,"equations_evaluated":14,"equations_skipped":2},"exhausted":null,"arena_nodes":17,"workers":1,"estimate":{"translatable":true,"closure_components":4,"closure_atoms":2,"size":9,"propositions":2,"nodes":"48","edges":"192","condition_width":"16","artifact_intractable":false,"deep_nesting":false},"cache":{"hits":1,"misses":0},"session_cache":{"hits":12,"misses":8}},"diagnostics":[{"code":"R001","severity":"info","path":[],"message":"routed to decide: translatable, K = 4"}]}"#;
const VALID_UP_TO: &str = r#"{"backend":"bounded","verdict":{"kind":"valid_up_to","bound":4},"failing_index":null,"stats":{"duration_ns":987654321,"traces_checked":42,"memo":{"hits":7,"misses":3},"session_memo":{"hits":70,"misses":30},"condition":{"interned_implicants":0,"interned_dnfs":0,"memo_hits":0,"memo_misses":0,"peak_dnf_width":0,"rounds":0,"equations_evaluated":0,"equations_skipped":0},"session_condition":{"interned_implicants":11,"interned_dnfs":5,"memo_hits":9,"memo_misses":4,"peak_dnf_width":3,"rounds":6,"equations_evaluated":14,"equations_skipped":2},"exhausted":null,"arena_nodes":17,"workers":1,"estimate":{"translatable":true,"closure_components":4,"closure_atoms":2,"size":9,"propositions":2,"nodes":"48","edges":"192","condition_width":"16","artifact_intractable":false,"deep_nesting":false},"cache":{"hits":0,"misses":1},"session_cache":{"hits":12,"misses":8}},"diagnostics":[]}"#;
const EDGES_EXHAUSTED: &str = r#"{"backend":"decide","verdict":{"kind":"unknown","exhausted":"edges"},"failing_index":null,"stats":{"duration_ns":31000,"traces_checked":42,"memo":{"hits":7,"misses":3},"session_memo":{"hits":70,"misses":30},"condition":{"interned_implicants":0,"interned_dnfs":0,"memo_hits":0,"memo_misses":0,"peak_dnf_width":0,"rounds":0,"equations_evaluated":0,"equations_skipped":0},"session_condition":{"interned_implicants":11,"interned_dnfs":5,"memo_hits":9,"memo_misses":4,"peak_dnf_width":3,"rounds":6,"equations_evaluated":14,"equations_skipped":2},"exhausted":"edges","arena_nodes":17,"workers":1,"estimate":null,"cache":{"hits":0,"misses":1},"session_cache":{"hits":12,"misses":8}},"diagnostics":[]}"#;
const PREFLIGHT_REJECTION: &str = r#"{"backend":"decide","verdict":{"kind":"unknown","exhausted":null},"failing_index":null,"stats":{"duration_ns":0,"traces_checked":0,"memo":{"hits":7,"misses":3},"session_memo":{"hits":70,"misses":30},"condition":{"interned_implicants":0,"interned_dnfs":0,"memo_hits":0,"memo_misses":0,"peak_dnf_width":0,"rounds":0,"equations_evaluated":0,"equations_skipped":0},"session_condition":{"interned_implicants":11,"interned_dnfs":5,"memo_hits":9,"memo_misses":4,"peak_dnf_width":3,"rounds":6,"equations_evaluated":14,"equations_skipped":2},"exhausted":null,"arena_nodes":17,"workers":1,"estimate":{"translatable":true,"closure_components":12,"closure_atoms":3,"size":31,"propositions":3,"nodes":"4096","edges":"18446744073709551615","condition_width":"18446744073709551615","artifact_intractable":true,"deep_nesting":true},"cache":{"hits":0,"misses":0},"session_cache":{"hits":12,"misses":8}},"diagnostics":[{"code":"C001","severity":"warning","path":[0,2],"message":"the explicit condition DNF is intractably wide"},{"code":"C002","severity":"error","path":[],"message":"predicted condition width 18446744073709551615 exceeds the budget"}]}"#;
const PREFLIGHT_REJECTION_ERROR: &str = r#"{"error":"C002","message":"predicted condition width 18446744073709551615 exceeds the budget","diagnostics":[{"code":"C001","severity":"warning","path":[0,2],"message":"the explicit condition DNF is intractably wide"},{"code":"C002","severity":"error","path":[],"message":"predicted condition width 18446744073709551615 exceeds the budget"}]}"#;
const LINT_REFUSAL: &str = r#"{"error":"lint","message":"formula `[ P ] false` fails analysis","diagnostics":[{"code":"L006","severity":"error","path":[0,1],"message":"the formula is syntactically contradictory"}]}"#;
const SHED_REFUSAL: &str = r#"{"error":"shed","message":"at capacity: 64 jobs in flight","diagnostics":[],"retry_after_ms":250}"#;

#[test]
fn reports_encode_to_the_golden_bodies() {
    let cases = [
        ("lasso counterexample", lasso_counterexample(), LASSO_COUNTEREXAMPLE),
        ("holds", holds(), HOLDS),
        ("valid up to 4", valid_up_to(), VALID_UP_TO),
        ("edges exhausted", edges_exhausted(), EDGES_EXHAUSTED),
        ("pre-flight rejection", preflight_rejection(), PREFLIGHT_REJECTION),
    ];
    for (name, report, golden) in cases {
        assert_eq!(report.to_json(), golden, "{name}: the body drifted from the golden bytes");
    }
}

#[test]
fn errors_encode_to_the_golden_bodies() {
    let rejection =
        ErrorReport::from_rejection(&preflight_rejection()).expect("a C002 report is a refusal");
    let cases = [
        ("pre-flight rejection", rejection, PREFLIGHT_REJECTION_ERROR),
        ("lint refusal", lint_refusal(), LINT_REFUSAL),
        ("shed refusal", shed_refusal(), SHED_REFUSAL),
    ];
    for (name, error, golden) in cases {
        assert_eq!(error.to_json(), golden, "{name}: the body drifted from the golden bytes");
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Asserts both halves of the codec contract for one report.
fn assert_round_trips(report: &CheckReport) {
    let body = report.to_json();
    let canonical = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}")).to_string();
    assert_eq!(body, canonical, "the encoding is not in canonical form");
    assert_eq!(CheckReport::from_json(&body).as_ref(), Ok(report), "decoding lost a field: {body}");
}

fn assert_error_round_trips(error: &ErrorReport) {
    let body = error.to_json();
    let canonical = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}")).to_string();
    assert_eq!(body, canonical, "the encoding is not in canonical form");
    assert_eq!(ErrorReport::from_json(&body).as_ref(), Ok(error), "decoding lost a field: {body}");
}

#[test]
fn fixed_and_adversarial_reports_round_trip() {
    let fixed =
        [lasso_counterexample(), holds(), valid_up_to(), edges_exhausted(), preflight_rejection()];
    for report in fixed.iter().chain(&adversarial_reports()) {
        assert_round_trips(report);
    }
    let rejection = ErrorReport::from_rejection(&preflight_rejection()).expect("a refusal");
    for error in [rejection, lint_refusal(), shed_refusal()].iter().chain(&adversarial_errors()) {
        assert_error_round_trips(error);
    }
}

#[test]
fn adversarial_strings_are_escaped_exactly_where_json_requires() {
    let body = ErrorReport::new("x", adversarial()).to_json();
    // Control characters use the short escapes where JSON has one and
    // lower-case `\u00xx` otherwise; everything else is copied verbatim.
    let expected_message = concat!(
        r#"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r"#,
        r#"\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019"#,
        r#"\u001a\u001b\u001c\u001d\u001e\u001f\"\\"#,
        "\u{7f}\u{2028}é λ → ∞ 😀 end",
    );
    assert_eq!(body, format!(r#"{{"error":"x","message":"{expected_message}","diagnostics":[]}}"#));
}

/// The first `count` distinct draws of the seed-9001 stream at the given
/// hard-family share, keeping only those whose printed text parses when
/// `parseable` is set (and checking the parsed formula, as the service
/// would).
fn population(hard_family_percent: u32, count: usize, parseable: bool) -> Vec<Formula> {
    let config = GeneratorConfig { hard_family_percent, ..GeneratorConfig::default() };
    let mut generator = FormulaGenerator::from_seed(9001, config);
    let mut seen = HashSet::new();
    let mut formulas = Vec::new();
    while formulas.len() < count {
        let drawn = generator.next_formula();
        if !seen.insert(drawn.clone()) {
            continue;
        }
        if !parseable {
            formulas.push(drawn);
        } else if let Ok(parsed) = parse_formula(&drawn.to_string()) {
            formulas.push(parsed);
        }
    }
    formulas
}

#[test]
fn auto_reports_on_the_reference_populations_round_trip() {
    let default_percent = GeneratorConfig::default().hard_family_percent;
    let formulas =
        population(default_percent, 500, true).into_iter().chain(population(100, 200, false));
    let session = Session::new();
    let mut counterexamples = 0;
    for formula in formulas {
        let report = session.check(CheckRequest::new(formula).auto());
        counterexamples += usize::from(report.counterexample().is_some());
        assert_round_trips(&report);
    }
    assert!(counterexamples > 0, "the sweep must cover counterexample traces");
}
