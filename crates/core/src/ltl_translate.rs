//! Translation of an interval-logic fragment into linear-time temporal logic.
//!
//! The report notes (Chapter 9) that "interval logic has a complete
//! axiomatization, through a reduction to linear-time temporal logic".  The
//! general reduction is intricate (it is the subject of Appendix C's low-level
//! language); this module implements the practically useful fragment that
//! covers the report's simpler specification idioms, and is cross-validated
//! against the interval-logic semantics by the test suite:
//!
//! * formulas without interval operators (`□`, `◇`, Boolean structure over
//!   propositions) translate homomorphically;
//! * `[ p ⇒ ] α` — "from the end of the next `p` event onward" — translates to
//!   a weak-until expression that waits for the change of `p` from false to
//!   true and asserts the translation of `α` there;
//! * `[ ⇒ q ] □p` and `[ ⇒ q ] ◇p` — invariance / eventuality up to the end of
//!   the first `q` event — find the rise of `q` with a single next step:
//!   `[ ⇒ q ] □p` is `never(q) ∨ U(p, p ∧ ¬q ∧ ◦(p ∧ q))` and `[ ⇒ q ] ◇p` is
//!   `¬U_s(¬p, ¬p ∧ ¬q ∧ ◦(¬p ∧ q))`, where `never(q)` is `□q ∨ U(q, □¬q)`;
//! * `[ ⇒ ] α` — the whole context — is `α` (valid formula V7).
//!
//! The encoding of the prefix intervals sets the size of everything the
//! decision procedure builds afterwards, since `Decide` expands the
//! Appendix B graph of the negated translation.  An earlier strong-until
//! chain, `U_s(p ∧ q, (p ∧ ¬q) ∧ U_s(p ∧ ¬q, p ∧ q))`, carried two `◇`
//! eventualities over compound bodies; the one-step encoding carries at most
//! one.  On `[ ⇒ r ] □(p ∨ q)` that shrinks `Graph(¬B)` from 97 nodes / 3362
//! edges to 33 / 410, and one round of the benchmark's `decide_heavy`
//! workload (44 tableaux) from 1815 nodes to 749.  The tests keep the chain
//! as the oracle of the equivalence.
//!
//! Everything outside the fragment is rejected with
//! [`TranslateError::Unsupported`]; the Appendix C pipeline
//! (`ilogic-lowlevel`) handles the general language.

use std::fmt;

use ilogic_temporal::syntax::Ltl;

use crate::syntax::{Formula, IntervalTerm, Pred};

/// Reasons a formula falls outside the supported fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The construct is not part of the supported fragment.
    Unsupported(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unsupported(what) => {
                write!(f, "construct outside the LTL-translatable fragment: {what}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translates an interval formula (interpreted over the whole computation) into LTL.
pub fn to_ltl(formula: &Formula) -> Result<Ltl, TranslateError> {
    translate(formula).map_err(TranslateError::from)
}

/// [`to_ltl`] for callers that only need to know whether the formula
/// translates: the reason it does not is never rendered.
pub(crate) fn translated(formula: &Formula) -> Option<Ltl> {
    translate(formula).ok()
}

/// The part of a formula that puts it outside the fragment, borrowed;
/// rendered into a [`TranslateError`] only when [`to_ltl`] reports it.
#[derive(Debug)]
enum Unsupported<'f> {
    Pred(&'f Pred),
    NotState(&'f Formula),
    Quantifier,
    PrefixBody(&'f Formula),
    Term(&'f IntervalTerm),
    Event(&'f IntervalTerm),
}

impl From<Unsupported<'_>> for TranslateError {
    fn from(why: Unsupported<'_>) -> TranslateError {
        TranslateError::Unsupported(match why {
            Unsupported::Pred(other) => {
                format!("only plain propositions are translatable, got {other}")
            }
            Unsupported::NotState(other) => format!("not a state formula: {other}"),
            Unsupported::Quantifier => {
                "quantifiers must be instantiated before translation".to_string()
            }
            Unsupported::PrefixBody(other) => {
                format!("body of a prefix interval must be □ or ◇ of a state formula, got {other}")
            }
            Unsupported::Term(other) => format!("interval term {other}"),
            Unsupported::Event(other) => format!("event term {other}"),
        })
    }
}

fn prop_name(pred: &Pred) -> Result<String, Unsupported<'_>> {
    match pred {
        Pred::Prop { name, args } if args.is_empty() => Ok(name.clone()),
        other => Err(Unsupported::Pred(other)),
    }
}

/// A state formula over plain propositions, translated to a propositional LTL formula.
fn state_formula(formula: &Formula) -> Result<Ltl, Unsupported<'_>> {
    match formula {
        Formula::True => Ok(Ltl::True),
        Formula::False => Ok(Ltl::False),
        Formula::Pred(p) => Ok(Ltl::prop(prop_name(p)?)),
        Formula::Not(a) => Ok(state_formula(a)?.not()),
        Formula::And(a, b) => Ok(state_formula(a)?.and(state_formula(b)?)),
        Formula::Or(a, b) => Ok(state_formula(a)?.or(state_formula(b)?)),
        other => Err(Unsupported::NotState(other)),
    }
}

fn translate(formula: &Formula) -> Result<Ltl, Unsupported<'_>> {
    match formula {
        Formula::True => Ok(Ltl::True),
        Formula::False => Ok(Ltl::False),
        Formula::Pred(p) => Ok(Ltl::prop(prop_name(p)?)),
        Formula::Not(a) => Ok(translate(a)?.not()),
        Formula::And(a, b) => Ok(translate(a)?.and(translate(b)?)),
        Formula::Or(a, b) => Ok(translate(a)?.or(translate(b)?)),
        Formula::Always(a) => Ok(translate(a)?.always()),
        Formula::Eventually(a) => Ok(translate(a)?.eventually()),
        Formula::In(term, body) => translate_interval(term, body),
        Formula::Forall(_, _) | Formula::Exists(_, _) => Err(Unsupported::Quantifier),
    }
}

/// Translation of `[ term ] body` for the supported term shapes.
fn translate_interval<'f>(
    term: &'f IntervalTerm,
    body: &'f Formula,
) -> Result<Ltl, Unsupported<'f>> {
    match term {
        // [ p ⇒ ] α : from the end of the next p event onward.
        IntervalTerm::Forward(Some(event), None) => {
            let p = event_predicate(event)?;
            let alpha = translate(body)?;
            Ok(after_next_event(&p, alpha))
        }
        // [ ⇒ q ] □p  and  [ ⇒ q ] ◇p : up to the end of the first q event.
        IntervalTerm::Forward(None, Some(event)) => {
            let q = event_predicate(event)?;
            match body {
                Formula::Always(inner) => {
                    let p = state_formula(inner)?;
                    Ok(up_to_event_always(&q, p))
                }
                Formula::Eventually(inner) => {
                    let p = state_formula(inner)?;
                    Ok(up_to_event_eventually(&q, p))
                }
                other => Err(Unsupported::PrefixBody(other)),
            }
        }
        // [ ⇒ ] α : the whole context (valid formula V7).
        IntervalTerm::Forward(None, None) => translate(body),
        other => Err(Unsupported::Term(other)),
    }
}

/// Extracts the state predicate of a simple event term.
fn event_predicate(term: &IntervalTerm) -> Result<Ltl, Unsupported<'_>> {
    match term {
        IntervalTerm::Event(f) => state_formula(f),
        other => Err(Unsupported::Event(other)),
    }
}

/// `[ p ⇒ ] α`: if the event "p becomes true" occurs, α holds at the state at
/// which it becomes true; vacuously true otherwise.
///
/// LTL encoding: `U(p, ¬p ∧ U(¬p, p ∧ α))` — an initial (possibly empty)
/// segment where `p` holds, then a segment where `¬p` holds, weak so that the
/// formula is vacuously true if the change never happens.
fn after_next_event(p: &Ltl, alpha: Ltl) -> Ltl {
    let change = p.clone().not().until(p.clone().and(alpha));
    p.clone().until(p.clone().not().and(change))
}

/// The constructive part of `[ ⇒ q ] □x`: the first `q` event completes and `x`
/// holds at every state up to and including that completion.
///
/// Encoded with one next step: `U_s(x, x ∧ ¬q ∧ ◦(x ∧ q))` — `x` holds up to
/// some rise of `q` (a `¬q` state followed by a `q` state) and at both of its
/// states.  Let `k` be the completion of the first rise, the first state with
/// `q` after a `¬q` state.  Any step `j` satisfying `¬q ∧ ◦q` has `j + 1 ≥ k`,
/// so `x` on `[0, j + 1]` covers `[0, k]`; conversely `j = k − 1` is a
/// witness.  The formula carries a single eventuality, which is what keeps the
/// Appendix B graph of its negation small.
fn up_to_event_constructive(q: &Ltl, x: &Ltl) -> Ltl {
    x.clone().strong_until(rise_within(q, x))
}

/// `x ∧ ¬q ∧ ◦(x ∧ q)`: `q` rises at the next step and `x` holds at both ends.
fn rise_within(q: &Ltl, x: &Ltl) -> Ltl {
    x.clone().and(q.clone().not()).and(x.clone().and(q.clone()).next())
}

/// `[ ⇒ q ] □p`: `p` holds from now until (and including) the state at which
/// the first `q` event completes; vacuously true if `q` never changes to true.
///
/// Encoded as `never(q) ∨ U(p, p ∧ ¬q ∧ ◦(p ∧ q))`: the weak until needs no
/// eventuality, since its `□p` reading already implies `p` up to the
/// completion whenever the event occurs.
fn up_to_event_always(q: &Ltl, p: Ltl) -> Ltl {
    let rise = rise_within(q, &p);
    event_never_occurs(q).or(p.until(rise))
}

/// `[ ⇒ q ] ◇p`: if the first `q` event completes, `p` holds at some state up
/// to and including that completion; vacuously true if it never occurs.
fn up_to_event_eventually(q: &Ltl, p: Ltl) -> Ltl {
    // "Not (the event completes with ¬p throughout)" — vacuously true when the
    // event never occurs because the constructive encoding then fails.
    up_to_event_constructive(q, &p.not()).not()
}

/// The event "q becomes true" never occurs: `□q ∨ U(q, □¬q)`.
fn event_never_occurs(q: &Ltl) -> Ltl {
    q.clone().always().or(q.clone().until(q.clone().not().always()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::semantics::Evaluator;
    use crate::state::{Prop, State};
    use crate::trace::Trace;
    use ilogic_temporal::semantics::{TlState, TlTrace};

    /// Check that the translation and the interval-logic semantics agree on all
    /// traces over the given propositions up to length 4 (stutter-extended).
    fn agree_on_small_traces(formula: &Formula, props: &[&str]) {
        let ltl = to_ltl(formula).expect("formula should be in the fragment");
        let alphabet = 1usize << props.len();
        for len in 1..=4usize {
            let mut word = vec![0usize; len];
            loop {
                let states: Vec<State> = word
                    .iter()
                    .map(|&bits| {
                        let mut s = State::new();
                        for (i, p) in props.iter().enumerate() {
                            if bits & (1 << i) != 0 {
                                s.insert(Prop::plain(*p));
                            }
                        }
                        s
                    })
                    .collect();
                let tl_states: Vec<TlState> = word
                    .iter()
                    .map(|&bits| {
                        let mut s = TlState::new();
                        for (i, p) in props.iter().enumerate() {
                            s.set_prop(*p, bits & (1 << i) != 0);
                        }
                        s
                    })
                    .collect();
                let il = Evaluator::new(&Trace::finite(states)).check(formula);
                let tl = TlTrace::finite(tl_states).eval(&ltl);
                assert_eq!(il, tl, "disagreement on word {word:?} for {formula}");
                let mut pos = 0;
                loop {
                    if pos == len {
                        break;
                    }
                    word[pos] += 1;
                    if word[pos] < alphabet {
                        break;
                    }
                    word[pos] = 0;
                    pos += 1;
                }
                if pos == len {
                    break;
                }
            }
        }
    }

    #[test]
    fn plain_temporal_formulas_translate_homomorphically() {
        agree_on_small_traces(&always(prop("P").implies(eventually(prop("Q")))), &["P", "Q"]);
        agree_on_small_traces(&eventually(prop("P")).and(always(prop("Q")).not()), &["P", "Q"]);
    }

    #[test]
    fn suffix_interval_after_event() {
        // [ P ⇒ ] □Q  and  [ P ⇒ ] ◇Q
        agree_on_small_traces(&always(prop("Q")).within(fwd_from(event(prop("P")))), &["P", "Q"]);
        agree_on_small_traces(
            &eventually(prop("Q")).within(fwd_from(event(prop("P")))),
            &["P", "Q"],
        );
    }

    /// The prefix-interval bodies both encodings are checked on: an atom, a
    /// disjunction, bodies that mention the event atom `Q`, and a negation.
    fn prefix_bodies() -> Vec<Formula> {
        vec![prop("P"), prop("P").or(prop("R")), prop("Q"), prop("Q").or(prop("P")), not(prop("P"))]
    }

    #[test]
    fn prefix_interval_up_to_event() {
        // [ ⇒ Q ] □β  and  [ ⇒ Q ] ◇β
        let to_q = || fwd_to(event(prop("Q")));
        for body in prefix_bodies() {
            agree_on_small_traces(&always(body.clone()).within(to_q()), &["P", "Q", "R"]);
            agree_on_small_traces(&eventually(body.clone()).within(to_q()), &["P", "Q", "R"]);
        }
    }

    /// The strong-until chain encodings the one-step ones replaced: an
    /// initial `x ∧ q` segment, then `x ∧ ¬q`, ending at `x ∧ q`.
    mod chain {
        use super::*;

        fn constructive(q: &Ltl, x: &Ltl) -> Ltl {
            let completion = x.clone().and(q.clone());
            let falling = x.clone().and(q.clone().not());
            let inner = falling.clone().strong_until(completion);
            x.clone().and(q.clone()).strong_until(falling.and(inner))
        }

        pub fn always(q: &Ltl, p: Ltl) -> Ltl {
            event_never_occurs(q).or(constructive(q, &p))
        }

        pub fn eventually(q: &Ltl, p: Ltl) -> Ltl {
            constructive(q, &p.not()).not()
        }
    }

    #[test]
    fn one_step_encodings_are_equivalent_to_the_chains() {
        use ilogic_temporal::tableau::valid_pure;
        let q = Ltl::prop("Q");
        for body in prefix_bodies() {
            let p = state_formula(&body).unwrap();
            let always = up_to_event_always(&q, p.clone());
            assert!(valid_pure(&chain::always(&q, p.clone()).iff(always)), "[ => Q ] []{body}");
            let eventually = up_to_event_eventually(&q, p.clone());
            assert!(valid_pure(&chain::eventually(&q, p).iff(eventually)), "[ => Q ] <>{body}");
        }
    }

    #[test]
    fn whole_context_interval_is_identity() {
        agree_on_small_traces(&always(prop("P")).within(whole()), &["P"]);
    }

    #[test]
    fn unsupported_constructs_are_rejected() {
        let backward = always(prop("P")).within(bwd_from(event(prop("Q"))));
        assert!(to_ltl(&backward).is_err());
        let quantified = prop_args("p", [var("x")]).forall("x");
        assert!(to_ltl(&quantified).is_err());
        let err = to_ltl(&backward).unwrap_err();
        assert!(err.to_string().contains("fragment"));
    }
}
