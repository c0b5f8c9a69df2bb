//! # ilogic-temporal
//!
//! Propositional discrete linear-time temporal logic with the tableau-based
//! decision procedures of Appendix B of *"An Interval Logic for Higher-Level
//! Temporal Reasoning"* (Schwartz, Melliar-Smith, Vogt, Plaisted; NASA CR
//! 172262 / PODC 1983).
//!
//! The crate provides:
//!
//! * [`syntax`] — formulas with `□`, `◇`, `◦` and the report's *weak* `Until`,
//!   over uninterpreted propositions and specialized-theory constraint atoms;
//! * [`semantics`] — exact evaluation over ultimately periodic computation
//!   sequences;
//! * [`tableau`] — the satisfiability graph `Graph(B)` and the `Iter` deletion
//!   loop;
//! * [`theory`] — specialized theories (propositional, linear integer
//!   arithmetic, equality) used by the combined procedures;
//! * [`algorithm_a`] — Algorithm A: the tableau pruned by a theory oracle;
//! * [`algorithm_b`] — Algorithm B: the condition formula `C = ∨ᵢ □Cᵢ` computed
//!   by a double fixpoint, with the theory consulted only at the end;
//! * [`patterns`] — the R3/R4/R5 formulae of the report's measurement table
//!   and synthetic formula families for scaling studies;
//! * [`pool`] — the workspace-wide scoped worker pool and [`pool::Parallelism`]
//!   knob (re-exported as `ilogic_core::pool`); hosted here, at the bottom of
//!   the crate graph, so Algorithm B's selection search can fan out over the
//!   same machinery as the higher layers.
//!
//! # Example
//!
//! ```
//! use ilogic_temporal::prelude::*;
//!
//! // "Henceforth a >= 1 implies eventually a > 0" (Appendix B §1).
//! let a_ge_1 = Ltl::cmp(Term::var("a"), CmpOp::Ge, Term::int(1));
//! let a_gt_0 = Ltl::cmp(Term::var("a"), CmpOp::Gt, Term::int(0));
//! let formula = a_ge_1.always().implies(a_gt_0.eventually());
//!
//! let linear = LinearTheory::new();
//! let algorithm = AlgorithmA::new(&linear);
//! assert!(algorithm.valid(&formula));
//! ```

pub mod algorithm_a;
pub mod algorithm_b;
pub mod dnf;
pub mod patterns;
pub mod pool;
pub mod semantics;
pub mod syntax;
pub mod tableau;
pub mod theory;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::algorithm_a::{AlgorithmA, AlgorithmAReport};
    pub use crate::algorithm_b::{AlgorithmB, Condition, Decision};
    pub use crate::pool::{Parallelism, WorkerPool};
    pub use crate::semantics::{TlState, TlTrace};
    pub use crate::syntax::{Atom, CmpOp, Literal, Ltl, Term, VarSpec};
    pub use crate::tableau::{prune, satisfiable_pure, valid_pure, TableauGraph};
    pub use crate::theory::{
        CombinedTheory, EqualityTheory, LinearTheory, PropositionalTheory, Theory, TheoryResult,
    };
}
