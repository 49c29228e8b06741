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
use isrl_bench::kernels::{
    best_of, current_commit, cut_workload, min_ms, per_round, replay_cold, replay_warm,
    vertex_fixture, REPS,
};
use isrl_core::prelude::*;
use isrl_data::{generate, skyline, Dataset, Distribution};
use isrl_geometry::{GeometryBackend, RegionGeometry, WalkConfig};

fn kernel_vertex_update() -> f64 {
    let f = vertex_fixture();
    // 5000 updates per sample keeps one sample around a millisecond —
    // a 50-iteration sample sits at ~10 us, where timer and scheduling
    // jitter alone produce 1.7x run-to-run scatter.
    min_ms(5000, || {
        black_box(f.prior_polytope.update(&f.prior, &f.last));
    })
}

fn kernel_top1_batch() -> f64 {
    let data = generate(50_000, 20, Distribution::AntiCorrelated, 11);
    let d = data.dim();
    let utilities = sample_users(d, 32, 12);
    let flat = data.as_flat();
    min_ms(1, || {
        black_box(isrl_linalg::top1_batch(&utilities, flat, d));
    })
}

fn kernel_dot() -> f64 {
    let data = generate(20_000, 24, Distribution::Independent, 13);
    let d = data.dim();
    let u = sample_users(d, 1, 14).pop().expect("one user");
    let flat = data.as_flat();
    min_ms(1, || {
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
    min_ms(1, || {
        black_box(isrl_linalg::top1_soa(&utilities, soa));
    })
}

fn geom_cloud_cut() -> f64 {
    let d = 20usize;
    let (seq, _) = cut_workload(d, 12, 0, 21);
    min_ms(1, || {
        let mut geom = RegionGeometry::sampled(d, WalkConfig::default(), 77);
        for h in &seq {
            geom.add(h.clone());
        }
        black_box(geom.support_size());
    })
}

/// `(lp.warm_replay, lp.cold_replay)`.
fn lp_replays() -> (f64, f64) {
    let d = 8usize;
    let (seq, probes) = cut_workload(d, 15, 6, 1);
    (
        min_ms(1, || replay_warm(d, &seq, &probes)),
        min_ms(1, || replay_cold(d, &seq, &probes)),
    )
}

/// Regret threshold of every round and serving bench.
const EPS: f64 = 0.15;

/// `(round.*, p99.round_*)` of one untrained-EA workload: the per-round
/// mean, and the p99 *tail* from a fresh `QuantileSketch` (1% relative
/// error) per rep over `TraceMode::PerRound` passes, so the mean pass is
/// undisturbed.
fn round_metrics(ea: &mut EaAgent, data: &Dataset, users: &[Vec<f64>]) -> (f64, f64) {
    let [mean] = best_of(|| [per_round(ea, data, users, EPS, TraceMode::Off).ms_per_round()]);
    let [p99] = best_of(|| {
        let mut sk = isrl_obs::QuantileSketch::default_config();
        for ms in per_round(ea, data, users, EPS, TraceMode::PerRound).round_ms {
            sk.record(ms);
        }
        [sk.quantile(0.99)]
    });
    (mean, p99)
}

/// `round.ea_untrained` and its p99: d = 4, skyline of 400 tuples.
fn round_ea_untrained() -> (f64, f64) {
    let data = skyline(&generate(400, 4, Distribution::AntiCorrelated, 1));
    let users = sample_users(data.dim(), 3, 3);
    let mut ea = EaAgent::new(data.dim(), EaConfig::paper_default().with_seed(4));
    round_metrics(&mut ea, &data, &users)
}

/// `round.ea_sampled_d20` and its p99: the sampled backend at d = 20.
fn round_ea_sampled_d20() -> (f64, f64) {
    let data = generate(2_000, 20, Distribution::AntiCorrelated, 1);
    let users = sample_users(data.dim(), 2, 6);
    let mut cfg = EaConfig::paper_default().with_seed(7);
    cfg.geometry = GeometryBackend::Sampled;
    let mut ea = EaAgent::new(data.dim(), cfg);
    round_metrics(&mut ea, &data, &users)
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

/// The serving-core bench: 64 untrained-EA sessions through one registry,
/// answered lockstep by seeded simulated utilities, scans coalesced.
/// Returns `(serve.session_ms, serve.round_p99)`: mean wall ms per
/// session, and the sketched p99 of one coalesced `pump_all` cycle.
fn serve_registry() -> (f64, f64) {
    let (data, policy) = serve_fixture();
    let n_sessions = 64usize;
    let users = sample_users(data.dim(), n_sessions, 17);
    let run_once = || {
        let mut registry = SessionRegistry::new(Arc::clone(&data));
        registry.register(Arc::clone(&policy));
        let ids: Vec<u64> = (0..n_sessions)
            .map(|i| registry.open(AlgoKind::Ea, EPS, 0x5eed + i as u64).unwrap())
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
        [total_ms / n_sessions as f64, sk.quantile(0.99)]
    };
    let [session_ms, round_p99] = best_of(run_once);
    (session_ms, round_p99)
}

/// The wire-path bench: a loopback server over the serving fixture, and
/// `run_loadgen` replaying 64 users over 2 connections. Returns the
/// best-of-[`REPS`] `(serve.wire_round_p50, serve.wire_round_p99)`: the
/// client-observed round latency quantiles in ms.
fn serve_wire() -> (f64, f64) {
    let (data, policy) = serve_fixture();
    let run_once = || {
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
            eps: EPS,
            ..LoadgenConfig::default()
        })
        .expect("loadgen over loopback");
        server.shutdown();
        [report.round_p50_ms, report.round_p99_ms]
    };
    let [p50, p99] = best_of(run_once);
    (p50, p99)
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
    let (mean, p99) = round_ea_untrained();
    metrics.insert("round.ea_untrained".into(), mean);
    metrics.insert("p99.round_ea_untrained".into(), p99);
    let (mean, p99) = round_ea_sampled_d20();
    metrics.insert("round.ea_sampled_d20".into(), mean);
    metrics.insert("p99.round_ea_sampled_d20".into(), p99);
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
