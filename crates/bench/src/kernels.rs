//! Every timed workload of the bench harness, defined once, and the one
//! timer that measures them. `perf_check` (the regression gate) and
//! `bench_all` (the `BENCH_*.json` artifacts) are the only callers, so a
//! fixture changed here changes both in step.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use isrl_core::prelude::*;
use isrl_data::Dataset;
use isrl_geometry::{Halfspace, Polytope, Region, RegionLpCache};
use isrl_linalg::vector;
use isrl_obs::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples per measurement; the reported value is their minimum — the
/// achievable floor is far more stable under transient scheduler and
/// frequency noise than the median, and a *code* regression raises the
/// floor too.
pub const REPS: usize = 5;

/// Elementwise minimum of `sample` over [`REPS`] calls, after one warm-up
/// call. Measurements that yield several figures per run (a p50 and a p99)
/// take each figure's own floor.
pub fn best_of<const N: usize>(mut sample: impl FnMut() -> [f64; N]) -> [f64; N] {
    sample();
    (0..REPS)
        .map(|_| sample())
        .fold([f64::INFINITY; N], |acc, s| {
            std::array::from_fn(|k| acc[k].min(s[k]))
        })
}

/// Milliseconds of `iters` calls of `f`: the [`best_of`] sample.
pub fn min_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let [ms] = best_of(|| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        [t.elapsed().as_secs_f64() * 1e3]
    });
    ms
}

/// A seeded sequence of `cuts` pairwise-preference half-spaces that all
/// contain the simplex barycenter — so every prefix bounds a nonempty
/// region — plus `probes` random hyperplanes standing in for a round's
/// candidate cut tests.
pub fn cut_workload(
    d: usize,
    cuts: usize,
    probes: usize,
    seed: u64,
) -> (Vec<Halfspace>, Vec<Halfspace>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bary = vec![1.0 / d as f64; d];
    let mut seq = Vec::with_capacity(cuts);
    while seq.len() < cuts {
        let a: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        let b: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        if let Some(h) = Halfspace::preferring(&a, &b) {
            seq.push(if h.contains(&bary, 0.0) {
                h
            } else {
                h.flipped()
            });
        }
    }
    let probe_set = (0..probes)
        .map(|_| Halfspace::new((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect();
    (seq, probe_set)
}

/// The region cut by the first `cuts` half-spaces of [`cut_workload`].
pub fn cut_region(d: usize, cuts: usize, seed: u64) -> Region {
    let mut region = Region::full(d);
    for h in cut_workload(d, cuts, 0, seed).0 {
        region.add(h);
    }
    region
}

/// One interactive episode's LP bill, cold: after every cut, the inner
/// sphere, the outer rectangle and each probe's cut test, solved from
/// scratch.
pub fn replay_cold(d: usize, seq: &[Halfspace], probes: &[Halfspace]) {
    let mut region = Region::full(d);
    for h in seq {
        region.add(h.clone());
        black_box(region.inner_sphere());
        black_box(region.outer_rectangle());
        for p in probes {
            black_box(region.is_cut_by(p));
        }
    }
}

/// The same bill as [`replay_cold`] through a carried basis cache.
pub fn replay_warm(d: usize, seq: &[Halfspace], probes: &[Halfspace]) {
    let mut region = Region::full(d);
    let mut cache = RegionLpCache::new();
    for h in seq {
        region.add(h.clone());
        black_box(region.inner_sphere_with(&mut cache));
        black_box(region.outer_rectangle_with(&mut cache));
        for p in probes {
            black_box(region.is_cut_by_with(p, &mut cache));
        }
    }
}

/// Replays the warm and cold paths in lockstep and counts summary or
/// verdict mismatches beyond 1e-9; the warm path's contract is zero.
pub fn count_divergences(d: usize, seq: &[Halfspace], probes: &[Halfspace]) -> usize {
    const TOL: f64 = 1e-9;
    let mut region = Region::full(d);
    let mut cache = RegionLpCache::new();
    let mut divergences = 0usize;
    for h in seq {
        region.add(h.clone());
        match (region.inner_sphere(), region.inner_sphere_with(&mut cache)) {
            (Some(c), Some(w)) => {
                if (c.radius() - w.radius()).abs() > TOL * c.radius().abs().max(1.0) {
                    divergences += 1;
                }
            }
            (None, None) => {}
            _ => divergences += 1,
        }
        match (
            region.outer_rectangle(),
            region.outer_rectangle_with(&mut cache),
        ) {
            (Some(c), Some(w)) => {
                let off = |a: &[f64], b: &[f64]| a.iter().zip(b).any(|(x, y)| (x - y).abs() > TOL);
                if off(c.min(), w.min()) || off(c.max(), w.max()) {
                    divergences += 1;
                }
            }
            (None, None) => {}
            _ => divergences += 1,
        }
        for p in probes {
            if region.is_cut_by(p) != region.is_cut_by_with(p, &mut cache) {
                divergences += 1;
            }
        }
    }
    divergences
}

/// EA's per-round vertex choice on a deep region (d = 4, 14 cuts, seed 6):
/// re-enumerate `region` from scratch, or patch `prior_polytope` (the
/// first 13 cuts) with the `last` one.
pub struct VertexFixture {
    /// All 14 cuts.
    pub region: Region,
    /// The first 13 cuts.
    pub prior: Region,
    /// The 14th cut.
    pub last: Halfspace,
    /// `prior`'s vertex set.
    pub prior_polytope: Polytope,
}

/// Builds the [`VertexFixture`].
pub fn vertex_fixture() -> VertexFixture {
    let (d, cuts) = (4usize, 14usize);
    let region = cut_region(d, cuts, 6);
    let mut prior = Region::full(d);
    for h in &region.halfspaces()[..cuts - 1] {
        prior.add(h.clone());
    }
    let last = region.halfspaces()[cuts - 1].clone();
    let prior_polytope = Polytope::from_region(&prior).expect("barycenter kept feasible");
    VertexFixture {
        region,
        prior,
        last,
        prior_polytope,
    }
}

/// What one pass of an algorithm over a user set cost.
#[derive(Debug, Clone, Default)]
pub struct RoundCost {
    /// Interactions run (one per user).
    pub users: usize,
    /// Rounds asked over all interactions.
    pub rounds: usize,
    /// Wall seconds inside the interactions.
    pub secs: f64,
    /// Each round's latency in ms, when the pass ran with
    /// `TraceMode::PerRound`; empty otherwise.
    pub round_ms: Vec<f64>,
}

impl RoundCost {
    /// Mean rounds per interaction.
    pub fn mean_rounds(&self) -> f64 {
        self.rounds as f64 / self.users.max(1) as f64
    }

    /// Wall milliseconds per round.
    pub fn ms_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.secs * 1e3 / self.rounds as f64
        }
    }
}

/// Runs `algo` to completion once per user, reseeding it with
/// `0x5eed + i` before user `i`. Under `TraceMode::PerRound` the per-round
/// latencies are the deltas of the cumulative per-round `elapsed` stamps;
/// the telemetry sink is not involved.
pub fn per_round(
    algo: &mut dyn InteractiveAlgorithm,
    data: &Dataset,
    users: &[Vec<f64>],
    eps: f64,
    mode: TraceMode,
) -> RoundCost {
    let mut cost = RoundCost {
        users: users.len(),
        ..RoundCost::default()
    };
    for (i, u) in users.iter().enumerate() {
        algo.reseed(0x5eed + i as u64);
        let mut user = SimulatedUser::new(u.clone());
        let out = algo.run(data, &mut user, eps, mode);
        cost.rounds += out.rounds;
        cost.secs += out.elapsed.as_secs_f64();
        let mut prev = 0.0f64;
        for rt in &out.trace {
            let e = rt.elapsed.as_secs_f64() * 1e3;
            cost.round_ms.push(e - prev);
            prev = e;
        }
    }
    cost
}

/// Steps one [`ServeSession`] per user for at most `cap` rounds — the
/// bounded-prefix measurement for workloads whose full interaction does
/// not finish in reasonable time (exact geometry at d = 20). Session `i`
/// is seeded like [`per_round`]'s reseed.
pub fn per_round_capped(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    users: &[Vec<f64>],
    eps: f64,
    cap: usize,
) -> RoundCost {
    let mut cost = RoundCost {
        users: users.len(),
        ..RoundCost::default()
    };
    for (i, u) in users.iter().enumerate() {
        let mut session =
            ServeSession::new(Arc::clone(policy), Arc::clone(data), eps, 0x5eed + i as u64)
                .expect("a valid session");
        session.step_blocking();
        while !session.is_finished() && session.rounds() < cap {
            let (p_i, p_j) = session.current_points().expect("unfinished session");
            let prefers_first = vector::dot(u, p_i) >= vector::dot(u, p_j);
            session
                .answer(prefers_first)
                .expect("a question is pending");
            session.step_blocking();
        }
        cost.rounds += session.rounds();
        cost.secs += session.elapsed().as_secs_f64();
    }
    cost
}

/// The commit under measurement: `GITHUB_SHA` in CI, else `git rev-parse`.
pub fn current_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how this process measures: `{commit, cpu, nproc, command}`.
/// The CPU is `/proc/cpuinfo`'s first model name ("unknown" elsewhere).
pub fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("commit".into(), current_commit().into()),
        ("cpu".into(), cpu.into()),
        ("nproc".into(), nproc.into()),
        (
            "command".into(),
            std::env::args().collect::<Vec<_>>().join(" ").into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_workload_keeps_the_barycenter_and_replays_per_seed() {
        for (d, cuts) in [(2usize, 3usize), (4, 14), (20, 15)] {
            let (seq, probes) = cut_workload(d, cuts, 6, 1);
            assert_eq!(seq.len(), cuts);
            assert_eq!(probes.len(), 6);
            let bary = vec![1.0 / d as f64; d];
            assert!(seq.iter().all(|h| h.contains(&bary, 0.0)));
            assert_eq!((seq, probes), cut_workload(d, cuts, 6, 1));
        }
    }
}
