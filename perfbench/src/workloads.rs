//! The three workloads and their seeded input generators.
//!
//! Every workload runs J = 4 joiners of the adaptive operator
//! (`OperatorKind::Dynamic`) on the threaded backend. Inputs are
//! generated from `--seed` before any timer starts; the program only
//! ever sees the generated arrivals.

use std::collections::HashMap;

use aoj_core::predicate::Predicate;
use aoj_core::ticket::mix64;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::{fluctuating, interleave, Arrivals};
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::report::MatchDigest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Joiners in every workload.
pub const J: u32 = 4;

/// One workload's configuration.
#[derive(Clone)]
pub struct Spec {
    pub name: &'static str,
    pub predicate: Predicate,
    /// Count-window span in tuples (`None`: every tuple is kept).
    pub window: Option<u64>,
    /// Tuples per session. A run repeats sessions of this size until
    /// its time is up.
    pub session_tuples: usize,
}

/// Every workload `--workload` accepts; `BENCHMARK.json` lists them all.
/// Each is a closed loop: one pusher sends the next tuple as soon as the
/// previous push returns.
pub const NAMES: [&str; 3] = ["steady-equi", "hot-band", "fluct-migrate"];

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        // Data plane at full speed: ~1.6 matches per tuple, no migration.
        "steady-equi" => Spec {
            name: "steady-equi",
            predicate: Predicate::Equi,
            window: Some(200_000),
            session_tuples: 400_000,
        },
        // Match delivery: ~36 matches per tuple, all consumed.
        "hot-band" => Spec {
            name: "hot-band",
            predicate: Predicate::Band { width: 2 },
            window: Some(2_000),
            session_tuples: 50_000,
        },
        // Alg. 2 decisions, the epoch protocol and state transfer.
        "fluct-migrate" => Spec {
            name: "fluct-migrate",
            predicate: Predicate::Equi,
            window: None,
            session_tuples: 400_000,
        },
        _ => return None,
    };
    Some(s)
}

/// A session's input plus what the output check needs.
pub struct Input {
    pub arrivals: Arrivals,
    /// Exact digest of every R×S pair, for unwindowed workloads.
    pub oracle: Option<MatchDigest>,
}

fn uniform(n: usize, keys: i64, rng: &mut StdRng) -> Vec<StreamItem> {
    (0..n)
        .map(|_| StreamItem {
            key: rng.gen_range(0..keys),
            aux: 0,
            bytes: 64,
        })
        .collect()
}

/// The established Zipf z = 1 band join: keys 1..=1000, `|r − s| ≤ 2`.
fn zipf(n: usize, seed: u64) -> Vec<StreamItem> {
    let mut z = ZipfSampler::new(1_000, 1.0, seed);
    (0..n)
        .map(|_| StreamItem {
            key: z.next() as i64,
            aux: 0,
            bytes: 96,
        })
        .collect()
}

pub fn generate(spec: &Spec, seed: u64) -> Input {
    let n = spec.session_tuples;
    let seed = mix64(seed ^ 0xBE7C_4A11);
    let mut rng = StdRng::seed_from_u64(seed);
    let (r_items, s_items) = match spec.name {
        // R:S 1:10 over the Zipf band keys.
        "hot-band" => (zipf(n / 11, seed ^ 1), zipf(n - n / 11, seed ^ 2)),
        "fluct-migrate" => (
            uniform(n / 2, 1 << 20, &mut rng),
            uniform(n - n / 2, 1 << 20, &mut rng),
        ),
        _ => (
            uniform(n / 2, 1 << 16, &mut rng),
            uniform(n - n / 2, 1 << 16, &mut rng),
        ),
    };
    let w = Workload {
        name: spec.name,
        predicate: spec.predicate.clone(),
        r_items,
        s_items,
    };
    // The unwindowed workload follows the §5.4 fluctuating schedule; its
    // output is exact, so an oracle digest can check it.
    let (arrivals, oracle) = if spec.window.is_none() {
        let a = fluctuating(&w, 4, seed);
        let o = oracle_digest(&a);
        (a, Some(o))
    } else {
        (interleave(&w, seed ^ 3), None)
    };
    Input { arrivals, oracle }
}

/// Every equi-join pair of `arrivals`, found by hashing keys; sequence
/// numbers are arrival positions, as the operator assigns them.
fn oracle_digest(arrivals: &Arrivals) -> MatchDigest {
    let mut by_key: HashMap<i64, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for (seq, (rel, it)) in arrivals.iter().enumerate() {
        let e = by_key.entry(it.key).or_default();
        match rel {
            Rel::R => e.0.push(seq as u64),
            Rel::S => e.1.push(seq as u64),
        }
    }
    let mut d = MatchDigest::default();
    for (rs, ss) in by_key.values() {
        for &r in rs {
            for &s in ss {
                d.fold(r, s);
            }
        }
    }
    d
}
