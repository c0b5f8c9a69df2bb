//! Workload definitions and their pre-generated request sequences.
//!
//! Every workload is a fixed sequence run to completion in a closed loop.
//! A run is [`rounds`] rounds, each in its own process (see `main`); a
//! round runs its sequence in one or more timed passes
//! ([`Sequence::passes`]).  The sequence's
//! size is fixed per workload, so the run length changes how many rounds
//! are measured, never which requests.
//! Its *content* is a reference population drawn once from
//! [`REFERENCE_SEED`]; the run's `--seed` draws each round's *order* (and,
//! for the HTTP workloads, the interleaving across connections) plus the
//! disjoint warm-up stream.  Sizing runs showed why the content cannot be
//! re-drawn per seed: the generator's decide costs are so heavy-tailed (the
//! top 2% of distinct formulas carry 30–90% of the time) that a seed-drawn
//! sample of a size that fits a run moves throughput by 15–100% between
//! seeds.  Fixing the population keeps the work per round constant, so
//! run-to-run spread measures the program and the machine, not the draw.

use std::collections::HashSet;

use ilogic_core::generate::{FormulaGenerator, GeneratorConfig};
use ilogic_core::json::Json;
use ilogic_core::syntax::Formula;

/// The generator seed of every workload's reference population — the seed
/// the request-mix shares in the benchmark's definition were measured on.
pub const REFERENCE_SEED: u64 = 9001;

/// How requests reach the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `POST /check` to an in-process `ilogic_server` over `connections`
    /// keep-alive connections (capped at the hardware threads).
    Http {
        /// Requested client connections (and server connection threads).
        connections: usize,
    },
    /// `Session::check` called directly, one request at a time.
    InProcess,
}

/// One workload: its name, why it exists, and what it isolates.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name the command line and later changes cite.
    pub name: &'static str,
    /// One line: why the workload was chosen.
    pub reason: &'static str,
    /// The layers whose cost the workload's end-to-end numbers expose.
    pub isolates: &'static str,
    /// How requests are delivered.
    pub transport: Transport,
    /// Requests in a round's sequence.
    pub requests: usize,
    /// Timed set-ups per round; a round's set-up time is their median.
    pub setups: usize,
}

/// Every workload the benchmark defines.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "check_repeat",
        reason: "a primed pool replayed over one keep-alive connection: nearly every request is a \
                 verdict-cache hit or a parser rejection, so no backend runs",
        isolates: "http, json, wire, parser, analysis, arena, cache probe, encode",
        transport: Transport::Http { connections: 1 },
        requests: 5_120,
        setups: 1,
    },
    Workload {
        name: "check_unique",
        reason: "the loadgen request shape at the generator's natural mix over two connections \
                 sharing one warm session: the whole path, decide tail and arena growth included",
        isolates: "whole path; tableau, fixpoint and sweep dominate; arena growth drives peak RSS",
        transport: Transport::Http { connections: 2 },
        requests: 1_200,
        setups: 5,
    },
    Workload {
        name: "decide_heavy",
        reason: "distinct hard-family formulas as ASTs through Session::check: no serving layer, \
                 the temporal decision procedure does nearly all the work",
        isolates: "ltl_translate, tableau, algorithm_b fixpoint, bounded refutation sweep",
        transport: Transport::InProcess,
        requests: 200,
        setups: 5,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Formula-text draws that make up `check_repeat`'s primed pool; the
/// workload's request count is a multiple of it, so every seed sends each
/// draw equally often.
pub const REPEAT_POOL: usize = 64;

/// The wall-clock budget every HTTP request carries (the loadgen shape).
pub const TIMEOUT_MS: i64 = 2_000;

/// The budget warm-up requests carry: short, so a heavy warm-up draw warms
/// the code without stretching the run.
pub const WARMUP_TIMEOUT_MS: i64 = 50;

/// Warm-up requests sent before timing, in every round.
pub const WARMUP_REQUESTS: usize = 50;

/// The `/check` body of the loadgen request shape for `formula`.
pub fn check_body(formula: &str, timeout_ms: i64) -> String {
    Json::object()
        .field("formula", Json::Str(formula.to_string()))
        .field("backend", Json::object().field("kind", Json::Str("auto".into())))
        .field("budget", Json::object().field("timeout_ms", Json::Int(timeout_ms)))
        .to_string()
}

/// `count` formula texts of the default generator stream from `seed`.
pub fn generated_texts(seed: u64, count: usize) -> Vec<String> {
    let mut generator = FormulaGenerator::from_seed(seed, GeneratorConfig::default());
    (0..count).map(|_| generator.next_formula().to_string()).collect()
}

/// The first `count` distinct hard-family formulas (`hard_family_percent:
/// 100`) of the stream from `seed`, as ASTs — the parser never sees them.
pub fn distinct_hard_formulas(seed: u64, count: usize) -> Vec<Formula> {
    let config = GeneratorConfig { hard_family_percent: 100, ..GeneratorConfig::default() };
    let mut generator = FormulaGenerator::from_seed(seed, config);
    let mut seen = HashSet::new();
    let mut formulas = Vec::with_capacity(count);
    while formulas.len() < count {
        let formula = generator.next_formula();
        if seen.insert(formula.clone()) {
            formulas.push(formula);
        }
    }
    formulas
}

/// A seeded SplitMix64 stream: the benchmark's only source of order.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed` in the named `domain`, so order, interleaving
    /// and warm-up draws never share a stream.
    pub fn new(seed: u64, domain: u64) -> Rng {
        Rng(seed ^ domain.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The [`Rng::new`] domain of round `round`'s order.
fn order_domain(round: usize) -> u64 {
    1 + 2 * round as u64
}

/// The [`Rng::new`] domain of round `round`'s warm-up seed.
fn warmup_domain(round: usize) -> u64 {
    2 + 2 * round as u64
}

/// The generator seed of round `round`'s warm-up stream: derived from the
/// run seed, and never the reference seed, so warm-up draws are a disjoint
/// stream.
pub fn warmup_seed(seed: u64, round: usize) -> u64 {
    let derived = Rng::new(seed, warmup_domain(round)).next_u64();
    if derived == REFERENCE_SEED {
        derived + 1
    } else {
        derived
    }
}

/// One workload's pre-generated timed sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sequence {
    /// `/check` bodies, in send order, plus the pool primed during set-up
    /// (empty unless the workload primes).
    Http {
        /// Bodies sent once each during set-up, in order.
        prime: Vec<String>,
        /// The timed bodies, in send order.
        bodies: Vec<String>,
    },
    /// ASTs checked in order.
    Formulas(Vec<Formula>),
}

/// Timed passes per round over a sequence that primes a cache.  A pass
/// leaves a primed cache as it found it, so every pass measures the same
/// state; the passes sample more of a round's time.
pub const PRIMED_PASSES: usize = 4;

impl Sequence {
    /// Timed passes per round: [`PRIMED_PASSES`] when the sequence primes
    /// a cache, else one, since a second pass would no longer be
    /// cache-cold.
    pub fn passes(&self) -> usize {
        match self {
            Sequence::Http { prime, .. } if !prime.is_empty() => PRIMED_PASSES,
            _ => 1,
        }
    }
}

#[cfg(test)]
impl Sequence {
    /// Requests in the timed part.
    pub fn len(&self) -> usize {
        match self {
            Sequence::Http { bodies, .. } => bodies.len(),
            Sequence::Formulas(formulas) => formulas.len(),
        }
    }

    /// The timed requests as text, in sorted order.
    fn sorted(&self) -> Vec<String> {
        let mut requests: Vec<String> = match self {
            Sequence::Http { bodies, .. } => bodies.clone(),
            Sequence::Formulas(formulas) => formulas.iter().map(ToString::to_string).collect(),
        };
        requests.sort();
        requests
    }
}

/// About how long one round of any workload takes on a 2-thread host.
pub const ROUND_SECONDS: u64 = 2;

/// The fewest rounds a run makes, however short.
const MIN_ROUNDS: usize = 2;

/// Rounds in a run of `seconds`.
pub fn rounds(seconds: u64) -> usize {
    ((seconds / ROUND_SECONDS) as usize).max(MIN_ROUNDS)
}

/// The timed sequence of round `round` of `workload` under `seed`.
pub fn sequence(workload: &Workload, seed: u64, round: usize) -> Sequence {
    let requests = workload.requests;
    let mut rng = Rng::new(seed, order_domain(round));
    match workload.name {
        "check_repeat" => {
            let pool = generated_texts(REFERENCE_SEED, REPEAT_POOL);
            let prime = pool.iter().map(|text| check_body(text, TIMEOUT_MS)).collect();
            // Each pass over the pool is a fresh seeded permutation.
            let mut bodies = Vec::with_capacity(requests);
            let mut order: Vec<usize> = (0..pool.len()).collect();
            while bodies.len() < requests {
                rng.shuffle(&mut order);
                for &index in order.iter().take(requests - bodies.len()) {
                    bodies.push(check_body(&pool[index], TIMEOUT_MS));
                }
            }
            Sequence::Http { prime, bodies }
        }
        "check_unique" => {
            let mut texts = generated_texts(REFERENCE_SEED, requests);
            rng.shuffle(&mut texts);
            let bodies = texts.iter().map(|text| check_body(text, TIMEOUT_MS)).collect();
            Sequence::Http { prime: Vec::new(), bodies }
        }
        "decide_heavy" => {
            let mut formulas = distinct_hard_formulas(REFERENCE_SEED, requests);
            rng.shuffle(&mut formulas);
            Sequence::Formulas(formulas)
        }
        other => unreachable!("no sequence for workload {other}"),
    }
}

/// The warm-up sequence of round `round` of `workload` under `seed`: the
/// same request shape drawn from the disjoint warm-up stream, with a short
/// budget.
pub fn warmup(workload: &Workload, seed: u64, round: usize) -> Sequence {
    let seed = warmup_seed(seed, round);
    match workload.transport {
        Transport::Http { .. } => Sequence::Http {
            prime: Vec::new(),
            bodies: generated_texts(seed, WARMUP_REQUESTS)
                .iter()
                .map(|text| check_body(text, WARMUP_TIMEOUT_MS))
                .collect(),
        },
        Transport::InProcess => Sequence::Formulas(distinct_hard_formulas(seed, WARMUP_REQUESTS)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_different_seed_different_order() {
        for workload in &WORKLOADS {
            let a = sequence(workload, 7, 0);
            let b = sequence(workload, 7, 0);
            let c = sequence(workload, 8, 0);
            let d = sequence(workload, 7, 1);
            assert_eq!(a, b, "{}: same seed must give byte-identical inputs", workload.name);
            assert_ne!(a, c, "{}: another seed must give other inputs", workload.name);
            assert_ne!(a, d, "{}: rounds run in different orders", workload.name);
            assert_eq!(a.len(), workload.requests);
            // Another seed reorders the same requests.
            assert_eq!(a.sorted(), c.sorted(), "{}: the population is fixed", workload.name);
        }
    }

    #[test]
    fn warmup_streams_depend_on_the_seed_and_avoid_the_reference() {
        for workload in &WORKLOADS {
            assert_eq!(warmup(workload, 3, 0), warmup(workload, 3, 0));
            assert_ne!(warmup(workload, 3, 0), warmup(workload, 4, 0));
            assert_ne!(warmup(workload, 3, 0), warmup(workload, 3, 1));
        }
        assert_ne!(warmup_seed(REFERENCE_SEED, 0), REFERENCE_SEED);
    }

    #[test]
    fn every_workload_states_a_one_line_reason() {
        let mut names = HashSet::new();
        for workload in &WORKLOADS {
            assert!(names.insert(workload.name));
            assert!(!workload.reason.contains('\n') && workload.reason.len() <= 200);
            assert!(!workload.isolates.is_empty());
        }
    }
}
