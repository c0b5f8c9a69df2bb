//! Answer verification, run untimed after each timed sequence.
//!
//! Each distinct formula is judged once against the paper's direct
//! semantics, and every answer for it must agree with that judgement:
//!
//! - a counterexample must falsify the formula under `semantics::holds`;
//! - a `Holds` or `ValidUpTo` verdict must survive a boxed bounded search
//!   (`BoundedChecker::counterexample_boxed`) at [`VALID_CHECK_DEPTH`];
//! - every `200` body must round-trip byte-for-byte through
//!   `CheckReport::from_json`;
//! - an HTTP status must be the one the request calls for: `400` with code
//!   `parse` exactly when the text does not parse, `lint` exactly when it
//!   parses with an error-severity finding, `200` otherwise.

use std::collections::HashMap;

use ilogic_core::analysis::{analyze_formula, proposition_names, Severity};
use ilogic_core::bounded::BoundedChecker;
use ilogic_core::json::Json;
use ilogic_core::parser::parse_formula;
use ilogic_core::semantics::holds;
use ilogic_core::session::{CheckReport, ErrorReport, Verdict};
use ilogic_core::syntax::Formula;
use ilogic_core::trace::Trace;

/// Computation length of the boxed search that cross-checks valid verdicts.
pub const VALID_CHECK_DEPTH: usize = 2;

/// What a request should be answered with, computed from its text alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// A `200` report for this formula.
    Report(Formula),
    /// A `400` refusal with this error code (`parse` or `lint`).
    Refusal(&'static str),
}

/// The answer a formula text calls for.
pub fn expected(text: &str) -> Expected {
    let Ok(formula) = parse_formula(text) else {
        return Expected::Refusal("parse");
    };
    if analyze_formula(&formula).diagnostics.iter().any(|d| d.severity == Severity::Error) {
        return Expected::Refusal("lint");
    }
    Expected::Report(formula)
}

/// The formula text of a `/check` body built by the workload generator.
pub fn body_formula(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|json| json.get("formula").and_then(Json::as_str).map(str::to_string))
        .expect("benchmark bodies carry a formula string")
}

/// The verdict class the benchmark reports and compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// `Holds`: valid.
    Valid,
    /// `Counterexample`: invalid, with the falsifying computation.
    Invalid(Trace),
    /// `ValidUpTo(k)`: no counterexample up to `k` states.
    ValidUpTo(usize),
    /// `Unknown`; `true` when a deadline or cancellation cut it, which makes
    /// it timing-dependent and incomparable.
    Unknown(bool),
}

impl Class {
    /// The class of `verdict`.
    pub fn of(verdict: &Verdict) -> Class {
        match verdict {
            Verdict::Holds => Class::Valid,
            Verdict::Counterexample(trace) => Class::Invalid(trace.clone()),
            Verdict::ValidUpTo(bound) => Class::ValidUpTo(*bound),
            Verdict::Unknown { exhausted } => Class::Unknown(matches!(
                exhausted,
                Some(
                    ilogic_core::pool::Exhaustion::Deadline
                        | ilogic_core::pool::Exhaustion::Cancelled
                )
            )),
        }
    }

    /// `true` for a timing-dependent `Unknown`, which no other answer is
    /// compared against.
    pub fn timing_cut(&self) -> bool {
        matches!(self, Class::Unknown(true))
    }
}

/// Judges answers, remembering one settled class per formula so repeated
/// formulas are verified once and must all agree.
#[derive(Debug, Default)]
pub struct Verifier {
    settled: HashMap<Formula, Class>,
    /// Answers found wrong, with a reason each (at most a few are kept).
    pub wrong: Vec<String>,
    /// Number of wrong answers.
    pub wrong_count: u64,
}

impl Verifier {
    fn fail(&mut self, reason: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(reason);
        }
    }

    /// Judges one report for `formula`; `false` when it is wrong.
    pub fn report(&mut self, formula: &Formula, report: &CheckReport) -> bool {
        let class = Class::of(&report.verdict);
        if class.timing_cut() {
            return true;
        }
        if let Some(known) = self.settled.get(formula) {
            if *known == class {
                return true;
            }
            let known = known.clone();
            self.fail(format!("`{formula}`: {class:?} disagrees with earlier {known:?}"));
            return false;
        }
        let sound = match &report.verdict {
            Verdict::Counterexample(trace) => !holds(trace, formula),
            Verdict::Holds => valid_up_to(formula, VALID_CHECK_DEPTH),
            Verdict::ValidUpTo(bound) => valid_up_to(formula, (*bound).min(VALID_CHECK_DEPTH)),
            Verdict::Unknown { .. } => true,
        };
        self.settled.insert(formula.clone(), class.clone());
        if !sound {
            self.fail(format!("`{formula}`: {class:?} contradicts the direct semantics"));
        }
        sound
    }

    /// Judges one HTTP answer to the body for formula `text`; `false` when
    /// the status, the body encoding, or the verdict is wrong.
    pub fn http(&mut self, text: &str, status: u16, body: &str) -> bool {
        match (expected(text), status) {
            (Expected::Report(formula), 200) => match CheckReport::from_json(body) {
                Ok(report) if report.to_json() == body => self.report(&formula, &report),
                Ok(_) => {
                    self.fail(format!("`{text}`: report does not round-trip through JSON"));
                    false
                }
                Err(error) => {
                    self.fail(format!("`{text}`: unparseable report: {error}"));
                    false
                }
            },
            (Expected::Refusal(code), 400) => match ErrorReport::from_json(body) {
                Ok(error) if error.code == code => true,
                _ => {
                    self.fail(format!("`{text}`: expected a `{code}` refusal, got {body}"));
                    false
                }
            },
            (want, got) => {
                self.fail(format!("`{text}`: status {got}, expected {want:?}"));
                false
            }
        }
    }
}

/// `true` when no computation of up to `depth` states over the formula's
/// propositions falsifies it.
fn valid_up_to(formula: &Formula, depth: usize) -> bool {
    BoundedChecker::new(proposition_names(formula), depth.max(1))
        .counterexample_boxed(formula)
        .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilogic_core::session::{CheckRequest, Session};

    #[test]
    fn correct_reports_pass_and_forged_ones_fail() {
        let session = Session::new();
        let valid = parse_formula("[](p | ~p)").expect("parses");
        let invalid = parse_formula("[]p").expect("parses");
        let valid_report = session.check(CheckRequest::new(valid.clone()).auto());
        let invalid_report = session.check(CheckRequest::new(invalid.clone()).auto());
        let mut verifier = Verifier::default();
        assert!(verifier.report(&valid, &valid_report));
        assert!(verifier.report(&invalid, &invalid_report));
        assert_eq!(verifier.wrong_count, 0);

        // A valid verdict on an invalid formula is caught by the boxed
        // search; a disagreeing repeat by the settled table.
        let mut forged = invalid_report.clone();
        forged.verdict = Verdict::Holds;
        assert!(!Verifier::default().report(&invalid, &forged));
        assert!(!verifier.report(&valid, &invalid_report));
        assert_eq!(verifier.wrong_count, 1);
    }

    #[test]
    fn statuses_must_match_the_text() {
        let mut verifier = Verifier::default();
        assert!(!verifier.http("[]p", 400, "{}"));
        assert!(!verifier.http("[](", 200, "{}"));
        assert_eq!(expected("[]("), Expected::Refusal("parse"));
    }
}
