//! `perf-check` — the noise-aware perf-regression gate.
//!
//! Runs a fixed set of quick seeded benches (min of [`REPS`] reps each):
//!
//! * `kernel.vertex_update` — incremental vertex enumeration on a 14-cut
//!   region at d = 4 (the hot-path layer's headline kernel);
//! * `kernel.top1_batch` — the scalar reference top-1 utility scan (one
//!   row-major pass per utility vector) at n = 50k, d = 20, 32 utility
//!   vectors. Older `BENCH_history.jsonl` entries timed a cache-blocked
//!   row-major scan under this name, which measured within a few percent
//!   of the per-utility loop;
//! * `kernel.dot` — the scalar dot product over a 20k × 24 flat buffer
//!   (the innermost loop of the reference scan);
//! * `scan.top1_soa` — the structure-of-arrays top-1 scan at the same
//!   shape as `kernel.top1_batch` (n = 50k, d = 20, 32 utilities), the
//!   kernel every `Dataset` scan (serving, estimator, EA/AA) runs;
//! * `lp.warm_replay` / `lp.cold_replay` — the warm-started vs cold LP
//!   replay of a 15-cut sequence at d = 8 with candidate-cut probes;
//! * `geom.cloud_cut` — building a d = 20 sample cloud and pushing a
//!   12-cut sequence through its incremental resample-on-cut path;
//! * `round.ea_untrained` — per-round milliseconds of an untrained EA
//!   interaction at d = 4 over seeded simulated users;
//! * `round.ea_sampled_d20` — per-round milliseconds of full untrained EA
//!   episodes on the sampled geometry backend at d = 20, n = 2000. This
//!   metric also carries an *absolute* ceiling ([`CEILINGS`]): 142.79 ms,
//!   one tenth of the exact backend's measured per-round cost at the same
//!   shape, checked even on a fresh history;
//! * `p99.round_ea_untrained` / `p99.round_ea_sampled_d20` — the p99
//!   *tail* of the same two round workloads, estimated by the
//!   `isrl_obs::QuantileSketch` over per-round `elapsed` deltas of
//!   `TraceMode::PerRound` runs (sink disabled, so the mean metrics above
//!   are undisturbed). The mean metrics miss a regression that only
//!   inflates occasional rounds (a degenerate cut, an LP repair storm);
//!   the tail metrics exist to catch exactly those, under the wider
//!   `p99.` tolerance band;
//! * `serve.session_ms` / `serve.round_p99` — the multi-session serving
//!   core: 64 untrained-EA sessions driven lockstep through one
//!   `SessionRegistry` with cross-user batching on (n = 1000, d = 4).
//!   `session_ms` is mean wall milliseconds per completed session;
//!   `round_p99` is the sketched p99 of one coalesced `pump_all` cycle
//!   (the serving analogue of a round's server-side latency);
//! * `serve.wire_round_p50` / `serve.wire_round_p99` — the same policy
//!   and dataset over the wire: an in-process `spawn_server` on loopback
//!   and `run_loadgen` replaying 64 users over 2 connections. Each is the
//!   client-observed round latency (send → reply read), so TCP, the
//!   reactor and the frame codec are gated, not only the registry.
//!
//! The run is compared against the median-of-window baseline with
//! per-metric relative tolerances (`bench::history`; rationale in
//! DESIGN.md §11) and, on a clean pass, appended to `BENCH_history.jsonl`
//! (commit, timestamp, metric map) — a regressed run never becomes part
//! of the baseline it failed against. Exits nonzero when any metric
//! regressed. An empty or missing history seeds the baseline and passes.
//!
//! Usage:
//!   cargo run -p isrl-bench --release --bin perf_check [-- flags]
//!     --history <path>   history file (default BENCH_history.jsonl)
//!     --dry-run          measure and compare, but do not append
//!     --scale <x>        multiply every measured timing by <x>
//!                        (CI self-test hook: --scale 2.0 simulates a
//!                        uniform 2x slowdown and must fail the gate)

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;

use isrl_bench::history::{
    baseline_of, check, check_ceilings, parse_history, HistoryRecord, BASELINE_WINDOW, CEILINGS,
    HISTORY_FILE,
};
use isrl_core::prelude::*;
use isrl_data::{generate, skyline, Distribution};
use isrl_geometry::{
    GeometryBackend, Halfspace, Polytope, Region, RegionGeometry, RegionLpCache, WalkConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reps per metric; the recorded value is their minimum — the achievable
/// floor is far more stable under transient scheduler/frequency noise
/// than the median, and a *code* regression raises the floor too.
const REPS: usize = 5;

/// Milliseconds of one `f()` call.
fn ms_of<F: FnMut()>(mut f: F) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Min-of-[`REPS`] milliseconds of `f`, after one warm-up call.
fn bench<F: FnMut()>(mut f: F) -> f64 {
    f();
    (0..REPS)
        .map(|_| ms_of(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// A seeded cut sequence keeping the barycenter feasible, plus probe
/// hyperplanes (the same construction as the lp_warm artifact).
fn cut_workload(
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
        .map(|_| {
            let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Halfspace::new(v)
        })
        .collect();
    (seq, probe_set)
}

fn kernel_vertex_update() -> f64 {
    let (d, cuts) = (4usize, 14usize);
    let (seq, _) = cut_workload(d, cuts, 0, 6);
    let mut prior = Region::full(d);
    for h in &seq[..cuts - 1] {
        prior.add(h.clone());
    }
    let last = seq[cuts - 1].clone();
    let prior_polytope = Polytope::from_region(&prior).expect("barycenter kept feasible");
    // 5000 updates per sample keeps one sample around a millisecond —
    // a 50-iteration sample sits at ~10 us, where timer and scheduling
    // jitter alone produce 1.7x run-to-run scatter.
    bench(|| {
        for _ in 0..5000 {
            black_box(prior_polytope.update(&prior, &last));
        }
    })
}

fn kernel_top1_batch() -> f64 {
    let data = generate(50_000, 20, Distribution::AntiCorrelated, 11);
    let d = data.dim();
    let utilities = sample_users(d, 32, 12);
    let flat = data.as_flat();
    bench(|| {
        black_box(isrl_linalg::top1_batch(&utilities, flat, d));
    })
}

fn kernel_dot() -> f64 {
    let data = generate(20_000, 24, Distribution::Independent, 13);
    let d = data.dim();
    let u = sample_users(d, 1, 14).pop().expect("one user");
    let flat = data.as_flat();
    bench(|| {
        let mut acc = 0.0f64;
        for p in flat.chunks_exact(d) {
            acc += isrl_linalg::vector::dot(p, &u);
        }
        black_box(acc);
    })
}

fn scan_top1_soa() -> f64 {
    let data = generate(50_000, 20, Distribution::AntiCorrelated, 11);
    let utilities = sample_users(data.dim(), 32, 12);
    let soa = data.soa(); // mirror built outside the timed region
    bench(|| {
        black_box(isrl_linalg::top1_soa(&utilities, soa));
    })
}

fn geom_cloud_cut() -> f64 {
    let d = 20usize;
    let (seq, _) = cut_workload(d, 12, 0, 21);
    bench(|| {
        let mut geom = RegionGeometry::sampled(d, WalkConfig::default(), 77);
        for h in &seq {
            geom.add(h.clone());
        }
        black_box(geom.support_size());
    })
}

fn lp_replays() -> (f64, f64) {
    let (d, cuts, probes) = (8usize, 15usize, 6usize);
    let (seq, probe_set) = cut_workload(d, cuts, probes, 1);
    let replay_cold = || {
        let mut region = Region::full(d);
        for h in &seq {
            region.add(h.clone());
            black_box(region.inner_sphere());
            black_box(region.outer_rectangle());
            for p in &probe_set {
                black_box(region.is_cut_by(p));
            }
        }
    };
    let replay_warm = || {
        let mut region = Region::full(d);
        let mut cache = RegionLpCache::new();
        for h in &seq {
            region.add(h.clone());
            black_box(region.inner_sphere_with(&mut cache));
            black_box(region.outer_rectangle_with(&mut cache));
            for p in &probe_set {
                black_box(region.is_cut_by_with(p, &mut cache));
            }
        }
    };
    (bench(replay_warm), bench(replay_cold))
}

fn round_ea_untrained() -> f64 {
    let data = skyline(&generate(400, 4, Distribution::AntiCorrelated, 1));
    let d = data.dim();
    let eps = 0.15;
    let users = sample_users(d, 3, 3);
    let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
    let run_all = |ea: &mut EaAgent| {
        let mut rounds = 0usize;
        let mut secs = 0.0f64;
        for (i, u) in users.iter().enumerate() {
            ea.reseed(0x5eed + i as u64);
            let mut user = SimulatedUser::new(u.clone());
            let out = ea.run(&data, &mut user, eps, TraceMode::Off);
            rounds += out.rounds;
            secs += out.elapsed.as_secs_f64();
        }
        (rounds, secs)
    };
    run_all(&mut ea); // warm-up
    (0..REPS)
        .map(|_| {
            let (rounds, secs) = run_all(&mut ea);
            secs * 1e3 / rounds.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn round_ea_sampled_d20() -> f64 {
    let data = generate(2_000, 20, Distribution::AntiCorrelated, 1);
    let d = data.dim();
    let eps = 0.15;
    let users = sample_users(d, 2, 6);
    let mut cfg = EaConfig::paper_default().with_seed(7);
    cfg.geometry = GeometryBackend::Sampled;
    let mut ea = EaAgent::new(d, cfg);
    let run_all = |ea: &mut EaAgent| {
        let mut rounds = 0usize;
        let mut secs = 0.0f64;
        for (i, u) in users.iter().enumerate() {
            ea.reseed(0x5eed + i as u64);
            let mut user = SimulatedUser::new(u.clone());
            let out = ea.run(&data, &mut user, eps, TraceMode::Off);
            rounds += out.rounds;
            secs += out.elapsed.as_secs_f64();
        }
        (rounds, secs)
    };
    run_all(&mut ea); // warm-up
    (0..REPS)
        .map(|_| {
            let (rounds, secs) = run_all(&mut ea);
            secs * 1e3 / rounds.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-round latencies (ms) of one replay of `users`, taken as deltas of
/// the cumulative per-round `elapsed` stamps of a `TraceMode::PerRound`
/// run. The telemetry sink stays disabled — the round trace is part of the
/// interaction API, not the global sink.
fn round_latencies(ea: &mut EaAgent, data: &isrl_data::Dataset, users: &[Vec<f64>]) -> Vec<f64> {
    let eps = 0.15;
    let mut out = Vec::new();
    for (i, u) in users.iter().enumerate() {
        ea.reseed(0x5eed + i as u64);
        let mut user = SimulatedUser::new(u.clone());
        let outcome = ea.run(data, &mut user, eps, TraceMode::PerRound);
        let mut prev = 0.0f64;
        for rt in &outcome.trace {
            let e = rt.elapsed.as_secs_f64() * 1e3;
            out.push(e - prev);
            prev = e;
        }
    }
    out
}

/// Min-of-[`REPS`] sketched p99 of per-round latency: each rep feeds one
/// replay's rounds into a fresh `QuantileSketch` (1% relative error) and
/// reads its p99; the minimum is the achievable tail floor, stable under
/// transient noise for the same reason the mean metrics use min.
fn p99_of<F: FnMut() -> Vec<f64>>(mut latencies: F) -> f64 {
    latencies(); // warm-up
    (0..REPS)
        .map(|_| {
            let mut sk = isrl_obs::QuantileSketch::default_config();
            for ms in latencies() {
                sk.record(ms);
            }
            sk.quantile(0.99)
        })
        .fold(f64::INFINITY, f64::min)
}

fn p99_round_ea_untrained() -> f64 {
    let data = skyline(&generate(400, 4, Distribution::AntiCorrelated, 1));
    let d = data.dim();
    let users = sample_users(d, 3, 3);
    let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
    p99_of(|| round_latencies(&mut ea, &data, &users))
}

fn p99_round_ea_sampled_d20() -> f64 {
    let data = generate(2_000, 20, Distribution::AntiCorrelated, 1);
    let d = data.dim();
    let users = sample_users(d, 2, 6);
    let mut cfg = EaConfig::paper_default().with_seed(7);
    cfg.geometry = GeometryBackend::Sampled;
    let mut ea = EaAgent::new(d, cfg);
    p99_of(|| round_latencies(&mut ea, &data, &users))
}

/// The dataset and untrained-EA policy both serving benches run.
fn serve_fixture() -> (Arc<isrl_data::Dataset>, Arc<ServePolicy>) {
    let data = Arc::new(generate(1_000, 4, Distribution::AntiCorrelated, 9));
    let policy = Arc::new(ServePolicy::Ea(EaAgent::new(
        data.dim(),
        EaConfig::paper_default().with_seed(4),
    )));
    (data, policy)
}

/// Regret threshold of every serving-bench session.
const SERVE_EPS: f64 = 0.15;

/// The serving-core bench: 64 untrained-EA sessions through one registry,
/// answered lockstep by seeded simulated utilities, batching enabled.
/// Returns `(serve.session_ms, serve.round_p99)`: mean wall ms per
/// session, and the sketched p99 of one coalesced `pump_all` cycle.
fn serve_registry() -> (f64, f64) {
    let (data, policy) = serve_fixture();
    let n_sessions = 64usize;
    let users = sample_users(data.dim(), n_sessions, 17);
    let run_once = || -> (f64, f64) {
        let mut registry = SessionRegistry::new(Arc::clone(&data));
        registry.register(Arc::clone(&policy));
        let ids: Vec<u64> = (0..n_sessions)
            .map(|i| {
                registry
                    .open(AlgoKind::Ea, SERVE_EPS, 0x5eed + i as u64)
                    .unwrap()
            })
            .collect();
        let t0 = std::time::Instant::now();
        let mut sk = isrl_obs::QuantileSketch::default_config();
        loop {
            let t = std::time::Instant::now();
            registry.pump_all();
            sk.record(t.elapsed().as_secs_f64() * 1e3);
            let mut any_open = false;
            for (k, id) in ids.iter().enumerate() {
                let Some(session) = registry.session(*id) else {
                    continue;
                };
                if session.is_finished() {
                    continue;
                }
                any_open = true;
                let (p1, p2) = session.current_points().expect("pumped sessions ask");
                let prefers = isrl_linalg::vector::dot(&users[k], p1)
                    >= isrl_linalg::vector::dot(&users[k], p2);
                registry.answer(*id, prefers).unwrap();
            }
            if !any_open {
                break;
            }
        }
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        (total_ms / n_sessions as f64, sk.quantile(0.99))
    };
    run_once(); // warm-up
    (0..REPS)
        .map(|_| run_once())
        .fold((f64::INFINITY, f64::INFINITY), |acc, (s, p)| {
            (acc.0.min(s), acc.1.min(p))
        })
}

/// The wire-path bench: a loopback server over the serving fixture, and
/// `run_loadgen` replaying 64 users over 2 connections. Returns the
/// best-of-[`REPS`] `(serve.wire_round_p50, serve.wire_round_p99)`: the
/// client-observed round latency quantiles in ms.
fn serve_wire() -> (f64, f64) {
    let (data, policy) = serve_fixture();
    let run_once = || -> (f64, f64) {
        let server = spawn_server(
            Arc::clone(&data),
            vec![Arc::clone(&policy)],
            ServerConfig::default(),
        )
        .expect("binding a loopback port");
        let report = run_loadgen(&LoadgenConfig {
            addr: server.addr().to_string(),
            users: 64,
            concurrency: 2,
            seed: 17,
            eps: SERVE_EPS,
            ..LoadgenConfig::default()
        })
        .expect("loadgen over loopback");
        server.shutdown();
        (report.round_p50_ms, report.round_p99_ms)
    };
    run_once(); // warm-up
    (0..REPS)
        .map(|_| run_once())
        .fold((f64::INFINITY, f64::INFINITY), |acc, (p50, p99)| {
            (acc.0.min(p50), acc.1.min(p99))
        })
}

fn current_commit() -> String {
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut history_path = HISTORY_FILE.to_string();
    let mut dry_run = false;
    let mut scale = 1.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--history" => {
                history_path = it.next().expect("--history needs a path").clone();
            }
            "--dry-run" => dry_run = true,
            "--scale" => {
                scale = it
                    .next()
                    .expect("--scale needs a factor")
                    .parse()
                    .expect("--scale factor must be a number");
            }
            other => {
                eprintln!("unknown flag {other:?} (see the module docs)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("perf-check: {REPS} reps per metric, min recorded");
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let t0 = std::time::Instant::now();
    metrics.insert("kernel.vertex_update".into(), kernel_vertex_update());
    metrics.insert("kernel.top1_batch".into(), kernel_top1_batch());
    metrics.insert("kernel.dot".into(), kernel_dot());
    metrics.insert("scan.top1_soa".into(), scan_top1_soa());
    let (warm, cold) = lp_replays();
    metrics.insert("lp.warm_replay".into(), warm);
    metrics.insert("lp.cold_replay".into(), cold);
    metrics.insert("geom.cloud_cut".into(), geom_cloud_cut());
    metrics.insert("round.ea_untrained".into(), round_ea_untrained());
    metrics.insert("round.ea_sampled_d20".into(), round_ea_sampled_d20());
    metrics.insert("p99.round_ea_untrained".into(), p99_round_ea_untrained());
    metrics.insert(
        "p99.round_ea_sampled_d20".into(),
        p99_round_ea_sampled_d20(),
    );
    let (serve_session, serve_p99) = serve_registry();
    metrics.insert("serve.session_ms".into(), serve_session);
    metrics.insert("serve.round_p99".into(), serve_p99);
    let (wire_p50, wire_p99) = serve_wire();
    metrics.insert("serve.wire_round_p50".into(), wire_p50);
    metrics.insert("serve.wire_round_p99".into(), wire_p99);
    for v in metrics.values_mut() {
        *v *= scale;
    }
    for (name, v) in &metrics {
        eprintln!("  {name:<24} {v:>10.4} ms");
    }
    eprintln!("measured in {:.1}s", t0.elapsed().as_secs_f64());

    let history_text = std::fs::read_to_string(&history_path).unwrap_or_default();
    let history = match parse_history(&history_text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {history_path}: {e}");
            std::process::exit(2);
        }
    };
    let record = HistoryRecord {
        commit: current_commit(),
        unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        metrics,
    };

    let regressions = if history.is_empty() {
        eprintln!("{history_path}: no history — this run seeds the baseline");
        Vec::new()
    } else {
        let baseline = baseline_of(&history, BASELINE_WINDOW);
        check(&baseline, &record.metrics)
    };
    // Absolute ceilings hold even on a fresh history: a first run that
    // breaches one must not seed the baseline.
    let ceilings = check_ceilings(&record.metrics);
    if !ceilings.is_empty() {
        eprintln!("({} absolute ceiling(s) configured)", CEILINGS.len());
    }

    // Append only on a clean pass: a regressed run must not become part
    // of the baseline it just failed against.
    if dry_run {
        eprintln!("--dry-run: not appending to {history_path}");
    } else if !regressions.is_empty() || !ceilings.is_empty() {
        eprintln!("regressions detected: not appending to {history_path}");
    } else {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .expect("opening the history file");
        writeln!(file, "{}", record.to_jsonl()).expect("appending the history record");
        eprintln!(
            "appended record for {} to {history_path} ({} total)",
            record.commit,
            history.len() + 1
        );
    }

    if regressions.is_empty() && ceilings.is_empty() {
        println!("perf-check: OK ({} metric(s))", record.metrics.len());
    } else {
        for r in &regressions {
            eprintln!("REGRESSION {r}");
        }
        for v in &ceilings {
            eprintln!("CEILING {v}");
        }
        println!(
            "perf-check: FAILED ({} regression(s), {} ceiling breach(es))",
            regressions.len(),
            ceilings.len()
        );
        std::process::exit(1);
    }
}
