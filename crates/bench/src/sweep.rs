//! Experiment plumbing: dataset construction, algorithm factories, and
//! parallel evaluation sweeps shared by the `figures` binary and the
//! Criterion benches.

use isrl_core::prelude::*;
use isrl_data::{real, skyline, synthetic, Dataset, Distribution};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Skyline preprocessing is skipped above this dimensionality: in high
/// dimension nearly every anti-correlated point is a skyline point, so the
/// quadratic-ish SFS pass buys nothing (consistent with the paper's setup,
/// which only reports polytope algorithms up to d = 10 anyway).
pub const SKYLINE_DIM_CAP: usize = 8;

/// What data an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataSpec {
    /// Börzsönyi synthetic data.
    Synthetic {
        /// Tuples before skyline preprocessing.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Correlation structure.
        dist: Distribution,
    },
    /// The Car stand-in (d = 3), sized to `n` tuples.
    Car {
        /// Tuples before skyline preprocessing.
        n: usize,
    },
    /// The Player stand-in (d = 20), sized to `n` tuples.
    Player {
        /// Tuples before skyline preprocessing.
        n: usize,
    },
}

impl DataSpec {
    /// Dimensionality of the spec.
    pub fn dim(&self) -> usize {
        match self {
            DataSpec::Synthetic { d, .. } => *d,
            DataSpec::Car { .. } => real::CAR_D,
            DataSpec::Player { .. } => real::PLAYER_D,
        }
    }

    /// Builds (and skyline-preprocesses, when `d ≤` [`SKYLINE_DIM_CAP`])
    /// the dataset.
    pub fn build(&self, seed: u64) -> Dataset {
        let raw = match *self {
            DataSpec::Synthetic { n, d, dist } => synthetic::generate(n, d, dist, seed),
            DataSpec::Car { n } => real::car_like_sized(n, seed),
            DataSpec::Player { n } => real::player_like_sized(n, seed),
        };
        if raw.dim() <= SKYLINE_DIM_CAP {
            skyline(&raw)
        } else {
            raw
        }
    }
}

/// The algorithms of the paper's §V (plus the related-work UtilityApprox).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// The exact RL agent.
    Ea,
    /// The approximate RL agent.
    Aa,
    /// UH-Random (SIGMOD'19).
    UhRandom,
    /// UH-Simplex (SIGMOD'19).
    UhSimplex,
    /// SinglePass (KDD'23).
    SinglePass,
    /// UtilityApprox (SIGMOD'12).
    UtilityApprox,
}

impl AlgoKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::Ea => "EA",
            AlgoKind::Aa => "AA",
            AlgoKind::UhRandom => "UH-Random",
            AlgoKind::UhSimplex => "UH-Simplex",
            AlgoKind::SinglePass => "SinglePass",
            AlgoKind::UtilityApprox => "UtilityApprox",
        }
    }

    /// Whether the algorithm maintains explicit polytopes (and so, like in
    /// the paper, is only run at low dimensionality).
    pub fn needs_polytopes(&self) -> bool {
        matches!(
            self,
            AlgoKind::Ea | AlgoKind::UhRandom | AlgoKind::UhSimplex
        )
    }

    /// The paper's §V roster for a given dimensionality: polytope
    /// algorithms are dropped above d = 10.
    pub fn roster(d: usize) -> Vec<AlgoKind> {
        if d <= 10 {
            vec![
                AlgoKind::Ea,
                AlgoKind::Aa,
                AlgoKind::UhRandom,
                AlgoKind::UhSimplex,
                AlgoKind::SinglePass,
            ]
        } else {
            vec![AlgoKind::Aa, AlgoKind::SinglePass]
        }
    }
}

/// Sweep-wide knobs (scaled by the binary's `--scale`).
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Number of test users per measurement.
    pub test_users: usize,
    /// RL training episodes for EA/AA.
    pub train_episodes: usize,
    /// EA per-round sampling budget.
    pub ea_samples: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SweepParams {
    fn default() -> Self {
        Self {
            test_users: 20,
            train_episodes: 120,
            ea_samples: 80,
            seed: 7,
        }
    }
}

/// Builds (training included, for the RL agents) an algorithm instance.
pub fn make_algo(
    kind: AlgoKind,
    data: &Dataset,
    eps: f64,
    params: &SweepParams,
) -> Box<dyn InteractiveAlgorithm + Send> {
    let d = data.dim();
    match kind {
        AlgoKind::Ea => {
            let mut cfg = EaConfig::paper_default().with_seed(params.seed);
            cfg.n_samples = params.ea_samples;
            let mut agent = EaAgent::new(d, cfg);
            let train = sample_users(d, params.train_episodes, params.seed.wrapping_add(100));
            agent.train(data, &train, eps);
            Box::new(agent)
        }
        AlgoKind::Aa => {
            let cfg = AaConfig::paper_default().with_seed(params.seed);
            let mut agent = AaAgent::new(d, cfg);
            let train = sample_users(d, params.train_episodes, params.seed.wrapping_add(200));
            agent.train(data, &train, eps);
            Box::new(agent)
        }
        AlgoKind::UhRandom => Box::new(UhBaseline::random(params.seed)),
        AlgoKind::UhSimplex => Box::new(UhBaseline::simplex(params.seed)),
        AlgoKind::SinglePass => Box::new(SinglePass::seeded(params.seed)),
        AlgoKind::UtilityApprox => Box::new(UtilityApprox::default()),
    }
}

/// One sweep cell: a dataset spec evaluated at one regret threshold over
/// one algorithm roster. [`run_sweep`] flattens a batch of these into a
/// shared (algorithm × cell × user) work queue.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Data to run on.
    pub spec: DataSpec,
    /// Regret threshold ε.
    pub eps: f64,
    /// Algorithms to evaluate.
    pub kinds: Vec<AlgoKind>,
    /// Dataset construction seed.
    pub data_seed: u64,
}

/// SplitMix64 finalizer: mixes the sweep seed with a work item's
/// (cell, algorithm, user) coordinates so every interaction gets an
/// independent, schedule-invariant RNG stream.
fn item_seed(base: u64, cell: usize, algo: usize, user: usize) -> u64 {
    let mut z = base
        .wrapping_add((cell as u64).wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add((algo as u64).wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add((user as u64).wrapping_mul(0x94d049bb133111eb))
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One trained-agent slot per (cell, algorithm): filled by the training
/// phase, then locked per evaluation item (agents are stateful).
type AgentSlots = Vec<Vec<Mutex<Option<Box<dyn InteractiveAlgorithm + Send>>>>>;

fn worker_count(items: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(items.max(1))
}

/// A sweep lock is poisoned only after another worker panicked; the scope
/// re-raises that panic.
const POISONED: &str = "a sweep worker panicked";

/// Runs `work` over `items` on a fixed pool of scoped workers. Each worker
/// claims the next unclaimed item through a shared cursor, so items start
/// in queue order whatever the pool size.
fn drain<T: Copy + Sync>(items: &[T], work: impl Fn(T) + Sync) {
    // The cursor publishes no other data (`items` is shared read-only), so
    // `Relaxed` suffices: each index is claimed by exactly one worker.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..worker_count(items.len()) {
            scope.spawn(|| {
                while let Some(&item) = items.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    work(item);
                }
            });
        }
    });
}

/// The work-queue core shared by [`run_algos`] and [`run_sweep`]: trains
/// every (cell × algorithm) pair, then evaluates (cell × algorithm × user)
/// items, both phases drained by a fixed worker pool.
///
/// Parallelism is fine-grained: a slow algorithm (EA at d = 4) no longer
/// serializes the whole cell behind its single thread — its per-user items
/// interleave with every other cell and algorithm on the queue. Items for
/// one trained agent still exclude each other (the agent is stateful), so
/// the schedule never runs one agent concurrently; [`item_seed`] +
/// [`InteractiveAlgorithm::reseed`] make each item's outcome a pure
/// function of its coordinates, independent of pop order.
fn run_cells(
    cells: &[(&Dataset, f64, &[AlgoKind])],
    params: &SweepParams,
) -> Vec<Vec<(AlgoKind, Evaluation)>> {
    // Per-cell test users (same seed per cell as the historical single-cell
    // sweep, so user populations are comparable across cells of equal dim).
    let users: Vec<Vec<Vec<f64>>> = cells
        .iter()
        .map(|(data, _, _)| {
            sample_users(data.dim(), params.test_users, params.seed.wrapping_add(300))
        })
        .collect();

    // Phase 1 — training queue over (cell, algo).
    let agents: AgentSlots = cells
        .iter()
        .map(|(_, _, kinds)| kinds.iter().map(|_| Mutex::new(None)).collect())
        .collect();
    let train_items: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, (_, _, kinds))| (0..kinds.len()).map(move |a| (c, a)))
        .collect();
    drain(&train_items, |(c, a)| {
        let (data, eps, kinds) = cells[c];
        *agents[c][a].lock().expect(POISONED) = Some(make_algo(kinds[a], data, eps, params));
    });

    // Phase 2 — evaluation queue over (cell, algo, user).
    type UserResult = (usize, usize, usize, InteractionOutcome, f64);
    let eval_items: Vec<(usize, usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, (_, _, kinds))| {
            let users = users[c].len();
            (0..kinds.len()).flat_map(move |a| (0..users).map(move |u| (c, a, u)))
        })
        .collect();
    let results: Mutex<Vec<UserResult>> = Mutex::new(Vec::new());
    drain(&eval_items, |(c, a, u)| {
        let (data, eps, kinds) = cells[c];
        let truth = &users[c][u];
        let mut guard = agents[c][a].lock().expect(POISONED);
        let algo = guard.as_mut().expect("trained in phase 1");
        algo.reseed(item_seed(params.seed, c, a, u));
        let mut user = SimulatedUser::new(truth.clone());
        let out = algo.run(data, &mut user, eps, TraceMode::Off);
        drop(guard);
        let regret = isrl_core::regret::regret_ratio_of_index(data, out.point_index, truth);
        if isrl_obs::enabled() {
            // Schema (DESIGN.md §9) wants a human-readable cell
            // label; cells here are anonymous, so derive one.
            let cell = format!("c{c}_d{}_n{}_eps{eps}", data.dim(), data.len());
            isrl_obs::emit(
                isrl_obs::Event::new("sweep_item")
                    .field("cell", cell)
                    .field("algo", kinds[a].name())
                    .field("user", u as u64)
                    .field("rounds", out.rounds as u64)
                    .field("secs", out.elapsed.as_secs_f64())
                    .field("regret", regret)
                    .field("truncated", out.truncated),
            );
        }
        results.lock().expect(POISONED).push((c, a, u, out, regret));
    });

    // Reassemble per-(cell, algo) evaluations in user order.
    let mut per_user = results.into_inner().expect(POISONED);
    per_user.sort_by_key(|&(c, a, u, _, _)| (c, a, u));
    let mut out: Vec<Vec<(AlgoKind, Evaluation)>> = cells
        .iter()
        .map(|(_, _, kinds)| {
            kinds
                .iter()
                .map(|&k| {
                    (
                        k,
                        Evaluation {
                            stats: Default::default(),
                            outcomes: Vec::new(),
                            regrets: Vec::new(),
                        },
                    )
                })
                .collect()
        })
        .collect();
    for (c, a, _, outcome, regret) in per_user {
        let eval = &mut out[c][a].1;
        eval.regrets.push(regret);
        eval.outcomes.push(outcome);
    }
    for cell in &mut out {
        for (_, eval) in cell {
            let obs: Vec<(usize, f64, f64, bool)> = eval
                .outcomes
                .iter()
                .zip(&eval.regrets)
                .map(|(o, &r)| (o.rounds, o.elapsed.as_secs_f64(), r, o.truncated))
                .collect();
            eval.stats = RunStats::from_observations(&obs);
        }
    }
    out
}

/// Builds and evaluates a whole batch of sweep cells on one shared work
/// queue — dataset construction, training, and per-user evaluation all
/// overlap across cells. Results come back in cell order, each cell's
/// algorithms in roster order.
pub fn run_sweep(cells: &[SweepCell], params: &SweepParams) -> Vec<Vec<(AlgoKind, Evaluation)>> {
    let datasets: Vec<Dataset> = cells.iter().map(|c| c.spec.build(c.data_seed)).collect();
    let flat: Vec<(&Dataset, f64, &[AlgoKind])> = cells
        .iter()
        .zip(&datasets)
        .map(|(c, d)| (d, c.eps, c.kinds.as_slice()))
        .collect();
    run_cells(&flat, params)
}

/// Evaluates each algorithm (trained where applicable) on the same test
/// users, in parallel over a fine-grained (algorithm × user) work queue.
/// Results come back in the input order.
pub fn run_algos(
    data: &Dataset,
    kinds: &[AlgoKind],
    eps: f64,
    params: &SweepParams,
) -> Vec<(AlgoKind, Evaluation)> {
    run_cells(&[(data, eps, kinds)], params).remove(0)
}

/// Per-round interaction progress (Figures 7–8): mean max-regret-so-far and
/// mean cumulative seconds at each round index, averaged over users.
pub struct Progress {
    /// Algorithm measured.
    pub kind: AlgoKind,
    /// `(round, mean max regret, mean cumulative seconds)` rows.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Runs each algorithm with per-round tracing and estimates the maximum
/// regret ratio of the current recommendation after every round.
pub fn run_progress(
    data: &Dataset,
    kinds: &[AlgoKind],
    eps: f64,
    params: &SweepParams,
    max_round: usize,
    regret_samples: usize,
) -> Vec<Progress> {
    let users = sample_users(data.dim(), params.test_users, params.seed.wrapping_add(300));
    kinds
        .iter()
        .map(|&kind| {
            let mut algo = make_algo(kind, data, eps, params);
            // For each round index: collected (regret, secs) pairs.
            let mut acc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); max_round];
            for (ui, u) in users.iter().enumerate() {
                let mut user = SimulatedUser::new(u.clone());
                // Cap tracing: snapshots beyond max_round are never read,
                // and an uncapped SinglePass trace costs O(rounds²) memory.
                let out = algo.run(data, &mut user, eps, TraceMode::FirstRounds(max_round));
                for t in out.trace.iter().take(max_round) {
                    let r = max_regret_estimate(
                        data,
                        &t.region,
                        t.best_index,
                        regret_samples,
                        params.seed.wrapping_add(ui as u64),
                    )
                    .unwrap_or(0.0);
                    acc[t.round - 1].push((r, t.elapsed.as_secs_f64()));
                }
                // Runs that stop before max_round keep their final state for
                // the remaining rounds (regret of the returned point, final time).
                if out.rounds < max_round {
                    let final_regret =
                        isrl_core::regret::regret_ratio_of_index(data, out.point_index, u);
                    for slot in acc.iter_mut().take(max_round).skip(out.rounds) {
                        slot.push((final_regret, out.elapsed.as_secs_f64()));
                    }
                }
            }
            let rows = acc
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .map(|(i, v)| {
                    let n = v.len() as f64;
                    let mr = v.iter().map(|x| x.0).sum::<f64>() / n;
                    let ms = v.iter().map(|x| x.1).sum::<f64>() / n;
                    (i + 1, mr, ms)
                })
                .collect();
            Progress { kind, rows }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataspec_builds_and_preprocesses() {
        let spec = DataSpec::Synthetic {
            n: 300,
            d: 3,
            dist: Distribution::AntiCorrelated,
        };
        let data = spec.build(1);
        assert_eq!(data.dim(), 3);
        assert!(data.len() <= 300, "skyline only removes points");
        let hi = DataSpec::Synthetic {
            n: 100,
            d: 12,
            dist: Distribution::Independent,
        };
        assert_eq!(hi.build(1).len(), 100, "no skyline pass above the cap");
    }

    #[test]
    fn roster_follows_the_paper() {
        assert_eq!(AlgoKind::roster(4).len(), 5);
        let high = AlgoKind::roster(20);
        assert_eq!(high, vec![AlgoKind::Aa, AlgoKind::SinglePass]);
        assert!(AlgoKind::Ea.needs_polytopes());
        assert!(!AlgoKind::SinglePass.needs_polytopes());
    }

    #[test]
    fn run_algos_returns_in_order() {
        let spec = DataSpec::Synthetic {
            n: 120,
            d: 2,
            dist: Distribution::AntiCorrelated,
        };
        let data = spec.build(2);
        let params = SweepParams {
            test_users: 3,
            train_episodes: 4,
            ea_samples: 30,
            seed: 5,
        };
        let kinds = [AlgoKind::UtilityApprox, AlgoKind::SinglePass];
        let res = run_algos(&data, &kinds, 0.15, &params);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].0, AlgoKind::UtilityApprox);
        assert_eq!(res[1].0, AlgoKind::SinglePass);
        assert_eq!(res[0].1.stats.runs, 3);
    }

    #[test]
    fn run_algos_is_schedule_invariant() {
        // Per-item reseeding makes every (algorithm × user) outcome a pure
        // function of its coordinates: two sweeps over the same cell must
        // agree exactly, however the queue was drained.
        let spec = DataSpec::Synthetic {
            n: 100,
            d: 2,
            dist: Distribution::AntiCorrelated,
        };
        let data = spec.build(4);
        let params = SweepParams {
            test_users: 4,
            train_episodes: 3,
            ea_samples: 30,
            seed: 9,
        };
        let kinds = [
            AlgoKind::UhRandom,
            AlgoKind::SinglePass,
            AlgoKind::UtilityApprox,
        ];
        let a = run_algos(&data, &kinds, 0.15, &params);
        let b = run_algos(&data, &kinds, 0.15, &params);
        for ((ka, ea), (kb, eb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(ea.regrets, eb.regrets, "{}", ka.name());
            let rounds = |e: &Evaluation| e.outcomes.iter().map(|o| o.rounds).collect::<Vec<_>>();
            assert_eq!(rounds(ea), rounds(eb), "{}", ka.name());
        }
    }

    #[test]
    fn run_sweep_covers_every_cell_in_order() {
        let params = SweepParams {
            test_users: 2,
            train_episodes: 2,
            ea_samples: 30,
            seed: 11,
        };
        let cells = vec![
            SweepCell {
                spec: DataSpec::Synthetic {
                    n: 80,
                    d: 2,
                    dist: Distribution::Independent,
                },
                eps: 0.2,
                kinds: vec![AlgoKind::SinglePass, AlgoKind::UtilityApprox],
                data_seed: 21,
            },
            SweepCell {
                spec: DataSpec::Synthetic {
                    n: 60,
                    d: 3,
                    dist: Distribution::AntiCorrelated,
                },
                eps: 0.15,
                kinds: vec![AlgoKind::UtilityApprox],
                data_seed: 22,
            },
        ];
        let res = run_sweep(&cells, &params);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].len(), 2);
        assert_eq!(res[0][0].0, AlgoKind::SinglePass);
        assert_eq!(res[0][1].0, AlgoKind::UtilityApprox);
        assert_eq!(res[1].len(), 1);
        for cell in &res {
            for (_, eval) in cell {
                assert_eq!(eval.stats.runs, params.test_users);
                assert_eq!(eval.outcomes.len(), params.test_users);
            }
        }
    }

    #[test]
    fn item_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..4 {
            for a in 0..6 {
                for u in 0..50 {
                    assert!(
                        seen.insert(item_seed(7, c, a, u)),
                        "collision at {c}/{a}/{u}"
                    );
                }
            }
        }
    }

    #[test]
    fn progress_rows_are_monotone_in_round() {
        let spec = DataSpec::Synthetic {
            n: 100,
            d: 2,
            dist: Distribution::AntiCorrelated,
        };
        let data = spec.build(3);
        let params = SweepParams {
            test_users: 2,
            train_episodes: 0,
            ea_samples: 30,
            seed: 6,
        };
        let prog = run_progress(&data, &[AlgoKind::SinglePass], 0.1, &params, 5, 200);
        assert_eq!(prog.len(), 1);
        for w in prog[0].rows.windows(2) {
            assert!(w[1].0 <= w[0].0 + 1); // rounds increase
        }
    }
}
