//! Emits `BENCH_hotpath.json`: per-round wall-clock of the learned agents
//! (EA, AA) at the paper's two focus dimensionalities, measured end-to-end
//! through the hot-path layer — incremental vertex enumeration inside EA's
//! region state and the batched utility-scan kernel under both agents'
//! per-round scoring.
//!
//! EA at d = 20 runs full interactions on the sampled geometry backend
//! (the default auto-by-dimension resolution): its exact vertex set grows
//! combinatorially with the cut count, but the hit-and-run sample cloud
//! keeps per-round cost flat. `BENCH_geom_scale.json` (the `geom_scale`
//! bin) holds the exact-vs-sampled comparison across dimensionalities;
//! this artifact records the end-to-end agent rows.
//!
//! Usage: `cargo run -p isrl-bench --release --bin hotpath [-- out.json]`
//! (run from the repository root so the artifact lands next to ROADMAP.md).

use isrl_bench::report::{f2, Table};
use isrl_core::prelude::*;
use isrl_data::{generate, skyline, Dataset, Distribution};
use std::path::PathBuf;

/// Runs `algo` to completion once per evaluation user and reports
/// `(mean rounds, wall-clock ms per round, total seconds)`.
fn per_round_full(
    algo: &mut dyn InteractiveAlgorithm,
    data: &Dataset,
    users: &[Vec<f64>],
    eps: f64,
) -> (f64, f64, f64) {
    let mut rounds = 0usize;
    let mut secs = 0.0f64;
    for (i, u) in users.iter().enumerate() {
        algo.reseed(0x5eed + i as u64);
        let mut user = SimulatedUser::new(u.clone());
        let out = algo.run(data, &mut user, eps, TraceMode::Off);
        rounds += out.rounds;
        secs += out.elapsed.as_secs_f64();
    }
    let mean_rounds = rounds as f64 / users.len() as f64;
    let ms = if rounds == 0 {
        0.0
    } else {
        secs * 1e3 / rounds as f64
    };
    (mean_rounds, ms, secs)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));
    let mut table = Table::new(
        "hotpath",
        "Per-round wall-clock of the learned agents through the hot-path layer",
        &[
            "algorithm",
            "d",
            "n",
            "eval_users",
            "mode",
            "mean_rounds",
            "per_round_ms",
            "total_s",
        ],
    );
    let record = |table: &mut Table,
                  name: &str,
                  d: usize,
                  n: usize,
                  users: usize,
                  mode: &str,
                  m: (f64, f64, f64)| {
        eprintln!(
            "{name} d={d} ({mode}): {:.2} rounds, {:.3} ms/round",
            m.0, m.1
        );
        table.push_row(vec![
            name.into(),
            d.to_string(),
            n.to_string(),
            users.to_string(),
            mode.into(),
            f2(m.0),
            f2(m.1),
            f2(m.2),
        ]);
    };

    // d = 4: the low-dimensional regime where EA's vertex-based state is
    // exact (Figures 9-12). Skyline-pruned anti-correlated data, as in the
    // paper's synthetic setup.
    {
        let data = skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1));
        let d = data.dim();
        let eps = 0.1;
        let train = sample_users(d, 40, 2);
        let eval = sample_users(d, 8, 3);
        eprintln!("training EA/AA at d={d} on {} users...", train.len());
        let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
        ea.train(&data, &train, eps);
        let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(4));
        aa.train(&data, &train, eps);
        let m = per_round_full(&mut ea, &data, &eval, eps);
        record(&mut table, "EA", d, data.len(), eval.len(), "full", m);
        let m = per_round_full(&mut aa, &data, &eval, eps);
        record(&mut table, "AA", d, data.len(), eval.len(), "full", m);
    }

    // d = 20: the high-dimensional regime (Figures 13-16). AA runs to
    // completion as always; EA now does too — the auto backend resolves
    // to the sampled utility-region geometry above d = 7, so full
    // episodes terminate instead of drowning in vertex enumeration. The
    // EA policy stays untrained here (the row measures the hot path, not
    // the learned question order).
    {
        let data = generate(2_000, 20, Distribution::AntiCorrelated, 1);
        let d = data.dim();
        let eps = 0.15;
        let eval = sample_users(d, 4, 6);
        eprintln!("training AA at d={d} on 20 users...");
        let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(7));
        aa.train(&data, &sample_users(d, 20, 5), eps);
        let m = per_round_full(&mut aa, &data, &eval, eps);
        record(&mut table, "AA", d, data.len(), eval.len(), "full", m);
        let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(7));
        let m = per_round_full(&mut ea, &data, &eval, eps);
        record(&mut table, "EA", d, data.len(), eval.len(), "full", m);
    }

    let kernels = kernel_before_after();
    let overhead = profiling_overhead();

    let combined = format!(
        "{{\n\"per_round\": {},\n\"kernels\": {},\n\"profiling_overhead\": {}\n}}\n",
        table.to_json().trim_end(),
        kernels.to_json().trim_end(),
        overhead.to_json().trim_end()
    );
    std::fs::write(&out, combined).expect("writing the hot-path artifact");
    println!("{}", table.render());
    println!("{}", kernels.render());
    println!("{}", overhead.render());
    println!("wrote {}", out.display());
}

/// Cost of the span-profiler instrumentation with the sink *disabled* —
/// the state every benchmark and production run above pays. Measures the
/// per-call cost of a disabled `isrl_obs::span` (one relaxed atomic load),
/// counts how many spans one real EA round actually opens (by running a
/// round with the profiler on and summing span counts), and expresses
/// their product as a percentage of the measured per-round wall time. The
/// budget is < 1%: instrumentation must be free when nobody is looking.
fn profiling_overhead() -> Table {
    // Per-call cost, amortized over a tight loop. The sink is disabled
    // (default state), so span() takes the early-out path.
    assert!(
        !isrl_obs::enabled(),
        "sink must be off for the overhead row"
    );
    let calls = 2_000_000usize;
    let ns_per_span = time_ms(1, || {
        for _ in 0..calls {
            let _guard = std::hint::black_box(isrl_obs::span("overhead_probe"));
        }
    }) * 1e6
        / calls as f64;

    // Spans per round, counted on the same d = 4 EA workload as the
    // per-round rows: one profiled run, total span count / total rounds.
    let data = skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1));
    let d = data.dim();
    let eps = 0.1;
    let users = sample_users(d, 4, 3);
    let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
    let mut rounds = 0usize;
    let mut secs = 0.0f64;
    isrl_obs::reset();
    isrl_obs::set_enabled(true);
    for (i, u) in users.iter().enumerate() {
        ea.reseed(0x5eed + i as u64);
        let mut user = SimulatedUser::new(u.clone());
        let out = ea.run(&data, &mut user, eps, TraceMode::Off);
        rounds += out.rounds;
        secs += out.elapsed.as_secs_f64();
    }
    isrl_obs::set_enabled(false);
    // Each interaction emitted one `profile` event; its per-path counts
    // are exactly the spans the round hot path opens.
    let mut jsonl = Vec::new();
    isrl_obs::snapshot()
        .write_jsonl(&mut jsonl)
        .expect("serializing the profile events");
    let spans: u64 = isrl_obs::profile::ProfileAccum::from_trace(
        &String::from_utf8(jsonl).expect("trace is utf-8"),
    )
    .expect("profile events parse")
    .spans
    .values()
    .map(|s| s.count)
    .sum();
    isrl_obs::reset();

    let spans_per_round = spans as f64 / rounds.max(1) as f64;
    let round_ms = secs * 1e3 / rounds.max(1) as f64;
    let overhead_pct = spans_per_round * ns_per_span / 1e6 / round_ms * 100.0;
    eprintln!(
        "profiling overhead (sink off): {ns_per_span:.2} ns/span x {spans_per_round:.1} \
         spans/round = {overhead_pct:.4}% of a {round_ms:.3} ms round"
    );
    assert!(
        overhead_pct < 1.0,
        "disabled-sink profiling overhead {overhead_pct:.4}% breaches the 1% budget"
    );

    let mut table = Table::new(
        "profiling_overhead",
        "Disabled-sink span instrumentation cost on the EA round hot path",
        &[
            "ns_per_span",
            "spans_per_round",
            "round_ms",
            "overhead_pct",
            "budget_pct",
        ],
    );
    table.push_row(vec![
        format!("{ns_per_span:.2}"),
        f2(spans_per_round),
        format!("{round_ms:.3}"),
        format!("{overhead_pct:.4}"),
        "1.0".into(),
    ]);
    table
}

/// Mean milliseconds per call of `f` over `iters` calls.
fn time_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let t = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Minimum single-run wall-clock over `runs` repeats — the scan-kernel
/// rows compare mins so a scheduler hiccup in one run cannot flip a
/// before/after ratio.
fn min_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Direct before/after timings of the two kernels this layer replaced:
/// from-scratch vs incremental vertex enumeration on a deep region, and
/// the scalar vs batched top-1 utility scan at the regret estimator's
/// working size. The criterion benches measure the same pairs with proper
/// statistics; these rows make the artifact self-contained.
fn kernel_before_after() -> Table {
    use isrl_geometry::{Halfspace, Polytope, Region};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut table = Table::new(
        "hotpath_kernels",
        "Kernel wall-clock before/after the hot-path layer",
        &["kernel", "params", "before_ms", "after_ms", "speedup"],
    );

    // Vertex enumeration: 14-cut region at d = 4, barycenter kept feasible.
    let (d, cuts) = (4usize, 14usize);
    let mut rng = StdRng::seed_from_u64(6);
    let bary = vec![1.0 / d as f64; d];
    let mut region = Region::full(d);
    while region.len() < cuts {
        let a: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        let b: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        if let Some(h) = Halfspace::preferring(&a, &b) {
            region.add(if h.contains(&bary, 0.0) {
                h
            } else {
                h.flipped()
            });
        }
    }
    let mut prior = Region::full(d);
    for h in &region.halfspaces()[..cuts - 1] {
        prior.add(h.clone());
    }
    let last = region.halfspaces()[cuts - 1].clone();
    let prior_polytope = Polytope::from_region(&prior).expect("barycenter kept feasible");
    let before = time_ms(200, || {
        std::hint::black_box(Polytope::from_region(&region));
    });
    let after = time_ms(200, || {
        std::hint::black_box(prior_polytope.update(&prior, &last));
    });
    table.push_row(vec![
        "vertex_enumeration".into(),
        format!("d={d} cuts={cuts}"),
        format!("{before:.4}"),
        format!("{after:.4}"),
        f2(before / after),
    ]);

    // Top-1 utility scan at n = 100k, d = 20, 32 utility vectors:
    // `before_ms` is the scalar reference (`top1_batch`, one row-major
    // pass per utility vector), `after_ms` the structure-of-arrays kernel
    // every `Dataset` scan runs (mirror built outside the timed region).
    let data = generate(100_000, 20, Distribution::AntiCorrelated, 11);
    let sd = data.dim();
    let utilities = sample_users(sd, 32, 12);
    let reference_ms = min_ms(4, || {
        std::hint::black_box(isrl_linalg::top1_batch(&utilities, data.as_flat(), sd));
    });
    let soa = data.soa();
    let soa_ms = min_ms(4, || {
        std::hint::black_box(isrl_linalg::top1_soa(&utilities, soa));
    });
    table.push_row(vec![
        "top1_soa".into(),
        format!("n={} d={sd} k={}", data.len(), utilities.len()),
        format!("{reference_ms:.2}"),
        format!("{soa_ms:.2}"),
        f2(reference_ms / soa_ms),
    ]);
    table
}
