//! The benchmark's workloads and the seeded inputs they are built from.

use isrl_core::serving::AlgoKind;
use isrl_data::{Dataset, Distribution};
use isrl_geometry::sampling::sample_simplex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How sessions arrive.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson session arrivals at a fixed rate (sessions per second);
    /// every user answers as soon as its question arrives.
    Open { sessions_per_s: f64 },
    /// A fixed number of users in flight; a finished session is replaced
    /// by a new user at once.
    Closed { users: usize },
}

impl Load {
    pub fn is_open(&self) -> bool {
        matches!(self, Load::Open { .. })
    }
}

/// The bound the recommended tuple's regret ratio must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegretBound {
    /// Exact EA: regret ≤ ε (Lemmas 4–7).
    Eps,
    /// AA: regret ≤ d²ε (Lemmas 8–10).
    DSquaredEps,
    /// No guarantee to check (EA's sampled terminal check is Monte-Carlo);
    /// the violation rate is measured instead.
    Measured,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Rows and dimensions of the anti-correlated `isrl --builtin` dataset.
    pub n: usize,
    pub d: usize,
    pub algo: AlgoKind,
    /// `--geometry` for EA (`None` for AA, which rejects the flag).
    pub geometry: Option<&'static str>,
    /// ε used for training and sent in every `hello`.
    pub eps: f64,
    /// `isrl train --episodes`.
    pub episodes: usize,
    pub load: Load,
    /// Users `0..quality_users` define `questions_per_session` and the
    /// quality shares, so those are deterministic at a fixed seed; users the
    /// wire run did not reach are completed in the in-process replay.
    pub quality_users: usize,
    pub regret_bound: RegretBound,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire-ea-d4",
        n: 2000,
        d: 4,
        algo: AlgoKind::Ea,
        geometry: Some("exact"),
        eps: 0.1,
        episodes: 100,
        load: Load::Open {
            sessions_per_s: 40.0,
        },
        quality_users: 1600,
        regret_bound: RegretBound::Eps,
    },
    Workload {
        name: "scan-ea-d20",
        n: 10000,
        d: 20,
        algo: AlgoKind::Ea,
        geometry: Some("sampled"),
        eps: 0.2,
        episodes: 2,
        load: Load::Closed { users: 16 },
        quality_users: 64,
        regret_bound: RegretBound::Measured,
    },
    Workload {
        name: "lp-aa-d20",
        n: 10000,
        d: 20,
        algo: AlgoKind::Aa,
        geometry: None,
        eps: 0.1,
        episodes: 8,
        load: Load::Closed { users: 32 },
        quality_users: 256,
        regret_bound: RegretBound::DSquaredEps,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `--builtin` spec, e.g. `anti:2000x4`.
    pub fn builtin(&self) -> String {
        format!("anti:{}x{}", self.n, self.d)
    }

    /// The dataset `isrl --builtin <spec> --seed <seed>` serves: the
    /// generator's output, reduced to its skyline for d ≤ 8 as the CLI does.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let raw = isrl_data::generate(self.n, self.d, Distribution::AntiCorrelated, seed);
        if self.d > 8 {
            raw
        } else {
            isrl_data::skyline(&raw)
        }
    }

    /// The upper bound on regret this workload must respect, if any.
    pub fn regret_limit(&self) -> Option<f64> {
        match self.regret_bound {
            RegretBound::Eps => Some(self.eps),
            RegretBound::DSquaredEps => Some((self.d * self.d) as f64 * self.eps),
            RegretBound::Measured => None,
        }
    }
}

/// SplitMix64 finaliser over `(seed, stream)`, masked to 52 bits so the
/// value survives the wire protocol's exact-JSON-integer fields.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xF_FFFF_FFFF_FFFF
}

/// Stream tag for the open-loop arrival schedule of connection `c`.
pub const ARRIVAL_STREAM: u64 = 1 << 40;

/// One simulated user: the session seed sent in `hello` and the hidden
/// utility vector its answers come from.
#[derive(Debug, Clone)]
pub struct UserSpec {
    pub seed: u64,
    pub utility: Vec<f64>,
}

impl UserSpec {
    pub fn new(workload_seed: u64, user: usize, d: usize) -> Self {
        let seed = mix(workload_seed, user as u64);
        let utility = sample_simplex(d, &mut StdRng::seed_from_u64(seed));
        Self { seed, utility }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_and_users_are_seeded() {
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
        assert!(Workload::by_name("nope").is_none());
        let a = UserSpec::new(3, 5, 4);
        let b = UserSpec::new(3, 5, 4);
        assert_eq!(a.utility, b.utility);
        assert_ne!(a.seed, UserSpec::new(3, 6, 4).seed);
        assert!(mix(u64::MAX, 1) < 1 << 52);
    }
}
