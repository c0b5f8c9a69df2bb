//! Differential fuzzing for the interval-logic checker.
//!
//! The paper's closing argument (Chapter 9) is that no specification method
//! survives without mechanical verification support; the strongest
//! mechanical gate this repo can buy is cross-checking its backends against
//! each other on instances nobody hand-picked.  This crate supplies the
//! three pieces:
//!
//! * **Generators** — seeded, deterministic random formulas
//!   ([`ilogic_core::generate`], re-exported here) and random transition
//!   systems ([`sysgen`]) implementing the [`ilogic_systems::explore::Model`]
//!   trait, built from the compat `proptest` combinators;
//! * **Oracle** — [`oracle::check_instance`] checks the LTL translation of
//!   one generated instance against the interval semantics and the
//!   word-parallel bounded sweep against a per-computation scan, then runs
//!   it through every applicable backend pairing (`Decide` vs `Bounded`,
//!   evaluated fixpoint vs explicit condition artifact, `Auto` vs
//!   hand-routed, `Explore` vs the reference semantics per run) and asserts
//!   verdict agreement, budget monotonicity (a tighter budget may only
//!   withhold a verdict, never flip it) and parallelism invariance
//!   (`Fixed(0/2/4)` bit-identity);
//! * **Shrinker** — [`shrink::shrink_instance`] greedily minimizes a
//!   disagreeing instance while the disagreement persists, so failures are
//!   reported as a small formula/system plus the replayable seed that
//!   regenerates (and re-shrinks) them.
//!
//! # Replaying a failure
//!
//! Every disagreement message starts with `seed = <n>`.  To replay exactly
//! that instance:
//!
//! ```text
//! ILOGIC_FUZZ_SEED=<n> cargo test -p ilogic-fuzz --test differential
//! ```
//!
//! The corpus size of a full run is controlled by `ILOGIC_FUZZ_INSTANCES`
//! (default 200 locally; CI runs 2000 in release).  The shrunk repro is also
//! written to `target/ilogic-fuzz-repro.txt` so CI can upload it as an
//! artifact.

pub mod oracle;
pub mod shrink;
pub mod sysgen;

pub use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};

/// Environment variable selecting how many seeded instances a corpus run
/// checks.
pub const INSTANCES_ENV: &str = "ILOGIC_FUZZ_INSTANCES";

/// Environment variable replaying one specific seed instead of a corpus.
pub const SEED_ENV: &str = "ILOGIC_FUZZ_SEED";

/// Instances checked when [`INSTANCES_ENV`] is unset: small enough for a
/// debug-profile `cargo test -q`, large enough to catch coarse regressions.
pub const DEFAULT_INSTANCES: u64 = 200;

/// The corpus either replays one seed or sweeps a seed range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusPlan {
    /// Replay exactly this seed.
    Single(u64),
    /// Check seeds `0..n`.
    Sweep(u64),
}

impl CorpusPlan {
    /// Reads [`SEED_ENV`]/[`INSTANCES_ENV`] into a plan.
    ///
    /// # Panics
    ///
    /// Panics on malformed values — a typo'd CI matrix must not silently
    /// shrink the corpus.
    pub fn from_env() -> CorpusPlan {
        if let Ok(raw) = std::env::var(SEED_ENV) {
            let seed = raw
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{SEED_ENV}={raw:?} is not a seed"));
            return CorpusPlan::Single(seed);
        }
        match std::env::var(INSTANCES_ENV) {
            Ok(raw) => {
                let n = raw
                    .trim()
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("{INSTANCES_ENV}={raw:?} is not a count"));
                CorpusPlan::Sweep(n)
            }
            Err(_) => CorpusPlan::Sweep(DEFAULT_INSTANCES),
        }
    }

    /// The seeds this plan visits.
    pub fn seeds(self) -> std::ops::Range<u64> {
        match self {
            CorpusPlan::Single(seed) => seed..seed + 1,
            CorpusPlan::Sweep(n) => 0..n,
        }
    }
}

/// Where the shrunk repro of a corpus failure is written (CI uploads this
/// file as the failure artifact).
pub fn repro_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/ilogic-fuzz-repro.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_plan_parses_the_seed_range() {
        assert_eq!(CorpusPlan::Sweep(5).seeds(), 0..5);
        assert_eq!(CorpusPlan::Single(42).seeds(), 42..43);
    }
}
