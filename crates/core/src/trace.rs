//! Computation sequences (traces) over which interval formulas are interpreted.
//!
//! The formal model of Chapter 3 interprets formulas over infinite state
//! sequences and stipulates that "for a finite computation, we extend the last
//! state to form an infinite sequence".  A [`Trace`] therefore stores a finite
//! list of states together with an extension policy:
//!
//! * [`Extension::Stutter`] — the last state repeats forever (the report's
//!   convention, and what the case-study simulators produce);
//! * [`Extension::Loop`] — the suffix starting at a designated position repeats
//!   forever (an ultimately periodic word), used to exercise genuinely infinite
//!   behaviours such as `□◇` in tests and the bounded-model validity checker.

use std::fmt;

use crate::state::{Prop, State};
use crate::value::Value;

/// How the finite list of recorded states is extended to an infinite sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extension {
    /// The final state repeats forever.
    Stutter,
    /// The suffix beginning at the given index repeats forever.
    Loop(usize),
}

/// A computation sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    states: Vec<State>,
    extension: Extension,
}

impl Trace {
    /// A finite computation, extended by repeating its last state (the report's
    /// convention).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty.
    pub fn finite(states: Vec<State>) -> Trace {
        assert!(!states.is_empty(), "a computation must contain at least one state");
        Trace { states, extension: Extension::Stutter }
    }

    /// An ultimately periodic computation whose suffix from `loop_start` repeats forever.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or `loop_start` is out of range.
    pub fn lasso(states: Vec<State>, loop_start: usize) -> Trace {
        assert!(!states.is_empty(), "a computation must contain at least one state");
        assert!(loop_start < states.len(), "loop start must index an existing state");
        Trace { states, extension: Extension::Loop(loop_start) }
    }

    /// Replaces the recorded state at `index`, keeping the length.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn set_state(&mut self, index: usize, state: State) {
        self.states[index] = state;
    }

    /// Switches the extension policy, keeping the recorded states.
    ///
    /// # Panics
    ///
    /// Panics if a loop start is out of range.
    pub(crate) fn set_extension(&mut self, extension: Extension) {
        if let Extension::Loop(start) = extension {
            assert!(start < self.states.len(), "loop start must index an existing state");
        }
        self.extension = extension;
    }

    /// The number of explicitly recorded states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`; traces are non-empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The extension policy.
    pub fn extension(&self) -> Extension {
        self.extension
    }

    /// The state at (conceptually infinite) position `index`.
    pub fn state(&self, index: usize) -> &State {
        let n = self.states.len();
        if index < n {
            return &self.states[index];
        }
        match self.extension {
            Extension::Stutter => &self.states[n - 1],
            Extension::Loop(start) => {
                let period = n - start;
                &self.states[start + (index - start) % period]
            }
        }
    }

    /// The explicitly recorded states.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// A position `h` such that for every `k ≥ h` the suffix of the trace
    /// starting at `k` equals the suffix starting at `canonical(k)`, where
    /// `canonical` folds positions back into `[loop_start, horizon)`.
    ///
    /// Quantifications over an unbounded set of positions (as in `□`, `◇`, and
    /// event searches over intervals with an infinite right endpoint) only need
    /// to examine positions below the horizon.
    pub fn horizon(&self) -> usize {
        match self.extension {
            Extension::Stutter => self.states.len(),
            Extension::Loop(start) => self.states.len() + (self.states.len() - start),
        }
    }

    /// Folds an arbitrary position to a canonical representative below the horizon
    /// whose suffix is identical.
    pub fn canonical(&self, index: usize) -> usize {
        let n = self.states.len();
        if index < n {
            return index;
        }
        match self.extension {
            Extension::Stutter => n - 1,
            Extension::Loop(start) => {
                let period = n - start;
                start + (index - start) % period
            }
        }
    }

    /// `true` if the suffix starting at `index` never changes again, i.e. the
    /// trace has entered its final repeated state (stutter extension only).
    pub fn is_quiescent_from(&self, index: usize) -> bool {
        match self.extension {
            Extension::Stutter => index >= self.states.len() - 1,
            Extension::Loop(_) => false,
        }
    }

    /// All distinct values appearing as a parameter of any proposition or as
    /// the value of any state component; used as the default data domain when
    /// checking quantified specification axioms.
    pub fn value_domain(&self) -> Vec<Value> {
        let mut values = Vec::new();
        for state in &self.states {
            for prop in state.props() {
                for value in &prop.args {
                    if !values.contains(value) {
                        values.push(value.clone());
                    }
                }
            }
            for (_, value) in state.vars() {
                if !values.contains(value) {
                    values.push(value.clone());
                }
            }
        }
        values
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, state) in self.states.iter().enumerate() {
            if let Extension::Loop(start) = self.extension {
                if start == i {
                    write!(f, " ↻")?;
                }
            }
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{state}")?;
        }
        if matches!(self.extension, Extension::Stutter) {
            write!(f, " ...")?;
        }
        Ok(())
    }
}

/// An incremental builder for traces, used by the case-study simulators.
///
/// The builder maintains a *current* state; each call to [`TraceBuilder::commit`]
/// appends a snapshot of it.  Propositions that model instantaneous events can
/// be asserted for a single state with [`TraceBuilder::pulse`].
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    states: Vec<State>,
    current: State,
    pulses: Vec<Prop>,
}

impl TraceBuilder {
    /// Creates a builder whose current state is empty.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Creates a builder starting from the given state.
    pub fn starting_from(state: State) -> TraceBuilder {
        TraceBuilder { states: Vec::new(), current: state, pulses: Vec::new() }
    }

    /// Asserts a proposition in the current (and all future) states until retracted.
    pub fn assert_prop(&mut self, prop: Prop) -> &mut Self {
        self.current.insert(prop);
        self
    }

    /// Retracts a proposition from the current (and all future) states until re-asserted.
    pub fn retract_prop(&mut self, prop: &Prop) -> &mut Self {
        self.current.remove(prop);
        self
    }

    /// Asserts a proposition for the next committed state only.
    pub fn pulse(&mut self, prop: Prop) -> &mut Self {
        self.current.insert(prop.clone());
        self.pulses.push(prop);
        self
    }

    /// Sets a state component in the current (and all future) states.
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.current.set_var(name, value);
        self
    }

    /// Appends a snapshot of the current state to the trace.
    pub fn commit(&mut self) -> &mut Self {
        self.states.push(self.current.clone());
        for prop in self.pulses.drain(..) {
            self.current.remove(&prop);
        }
        self
    }

    /// Number of committed states so far.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no state has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Finishes the trace with the stutter extension.
    ///
    /// If no state was ever committed the current state is committed first, so
    /// the resulting trace is never empty.
    pub fn finish(mut self) -> Trace {
        if self.states.is_empty() {
            self.states.push(self.current.clone());
        }
        Trace::finite(self.states)
    }

    /// Finishes the trace as a lasso looping back to `loop_start`.
    pub fn finish_lasso(mut self, loop_start: usize) -> Trace {
        if self.states.is_empty() {
            self.states.push(self.current.clone());
        }
        Trace::lasso(self.states, loop_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Prop {
        Prop::plain(name)
    }

    #[test]
    fn stutter_extension_repeats_last_state() {
        let trace = Trace::finite(vec![State::new().with("A"), State::new().with("B")]);
        assert!(trace.state(1).holds(&p("B")));
        assert!(trace.state(100).holds(&p("B")));
        assert_eq!(trace.canonical(100), 1);
        assert!(trace.is_quiescent_from(1));
        assert!(!trace.is_quiescent_from(0));
    }

    #[test]
    fn lasso_extension_cycles() {
        let trace = Trace::lasso(
            vec![State::new().with("A"), State::new().with("B"), State::new().with("C")],
            1,
        );
        assert!(trace.state(3).holds(&p("B")));
        assert!(trace.state(4).holds(&p("C")));
        assert!(trace.state(5).holds(&p("B")));
        assert_eq!(trace.canonical(5), 1);
        assert_eq!(trace.horizon(), 5);
        assert!(!trace.is_quiescent_from(10));
    }

    #[test]
    fn value_domain_collects_parameters_and_components() {
        let trace = Trace::finite(vec![
            State::new().with_args("atEnq", [1i64]).with_var("exp", 0i64),
            State::new().with_args("atEnq", [2i64]),
        ]);
        let domain = trace.value_domain();
        assert!(domain.contains(&Value::Int(1)));
        assert!(domain.contains(&Value::Int(2)));
        assert!(domain.contains(&Value::Int(0)));
        assert_eq!(domain.len(), 3);
    }

    #[test]
    fn builder_commits_and_pulses() {
        let mut builder = TraceBuilder::new();
        builder.assert_prop(p("R"));
        builder.commit();
        builder.pulse(p("ack"));
        builder.commit();
        builder.commit();
        let trace = builder.finish();
        assert_eq!(trace.len(), 3);
        assert!(trace.state(0).holds(&p("R")));
        assert!(trace.state(1).holds(&p("ack")));
        assert!(!trace.state(2).holds(&p("ack")));
        assert!(trace.state(2).holds(&p("R")));
    }

    #[test]
    fn empty_builder_still_produces_a_state() {
        let trace = TraceBuilder::new().finish();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn display_mentions_extension() {
        let trace = Trace::finite(vec![State::new().with("A")]);
        assert!(trace.to_string().contains("..."));
    }
}
