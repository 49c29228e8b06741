//! `bench_all` — regenerates the `BENCH_*.json` artifacts from the shared
//! workloads of `isrl_bench::kernels`:
//!
//! * `hotpath` — per-round wall-clock of every algorithm at d = 4 and
//!   d = 20 (`hotpath`), the kernels the hot-path layer replaced
//!   (`hotpath_kernels`), the disabled-sink span cost (`profiling_overhead`,
//!   asserted < 1% of a round) and one row per micro-benchmark (`micro`);
//! * `lp_warm` — warm-started vs cold LP replays of a seeded cut sequence
//!   (`lp_warm`), the warm-path counters (`warm_counters`) and the
//!   warm/cold divergence count (`total_divergences`, asserted zero);
//! * `geom_scale` — untrained EA per-round cost on the sampled backend for
//!   d = 8..24 plus a 6-round exact prefix at d = 20 (`geom_scale`), and
//!   the sampled-vs-exact speedup (`geom_speedup`, asserted ≥ 10).
//!
//! Every file has one shape: `{"provenance": {"commit", "cpu", "nproc",
//! "command"}, "tables": [{"id", "title", "rows": [{column: cell}]}]}`.
//!
//! Usage: `cargo run -p isrl-bench --release --bin bench_all --
//! [hotpath|lp_warm|geom_scale]... [--out DIR]` — all three artifacts by
//! default, written to DIR (default: the working directory, so run it from
//! the repository root).

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

use isrl_bench::kernels::{
    count_divergences, cut_region, cut_workload, min_ms, per_round, per_round_capped, provenance,
    replay_cold, replay_warm, vertex_fixture, RoundCost,
};
use isrl_bench::report::{artifact, f2, Table};
use isrl_core::prelude::*;
use isrl_data::{generate, skyline, Distribution};
use isrl_geometry::{
    min_enclosing_sphere, sampling, EnclosingSphereParams, GeometryBackend, Halfspace, Polytope,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ARTIFACTS: [&str; 3] = ["hotpath", "lp_warm", "geom_scale"];

fn main() {
    let mut out = PathBuf::from(".");
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a directory").into(),
            name if ARTIFACTS.contains(&name) => names.push(name.to_string()),
            other => {
                eprintln!("unknown argument {other:?}; expected {ARTIFACTS:?} or --out DIR");
                std::process::exit(2);
            }
        }
    }
    if names.is_empty() {
        names = ARTIFACTS.map(String::from).to_vec();
    }
    std::fs::create_dir_all(&out).expect("creating the output directory");
    for name in &names {
        let tables = match name.as_str() {
            "hotpath" => hotpath(),
            "lp_warm" => lp_warm(),
            _ => geom_scale(),
        };
        for t in &tables {
            println!("{}", t.render());
        }
        let path = out.join(format!("BENCH_{name}.json"));
        let doc = artifact(provenance(), &tables);
        std::fs::write(&path, format!("{doc}\n")).expect("writing the artifact");
        println!("wrote {}", path.display());
    }
}

/// Columns of the per-round tables; the first names the row's variant.
fn round_table(id: &str, title: &str, variant: &str) -> Table {
    Table::new(
        id,
        title,
        &[
            variant,
            "d",
            "n",
            "eval_users",
            "mode",
            "mean_rounds",
            "per_round_ms",
            "total_s",
        ],
    )
}

fn push_round(table: &mut Table, label: &str, d: usize, n: usize, mode: &str, c: &RoundCost) {
    eprintln!(
        "{label} d={d} ({mode}): {:.2} rounds, {:.3} ms/round",
        c.mean_rounds(),
        c.ms_per_round()
    );
    table.push_row(vec![
        label.into(),
        d.to_string(),
        n.to_string(),
        c.users.to_string(),
        mode.into(),
        f2(c.mean_rounds()),
        f2(c.ms_per_round()),
        f2(c.secs),
    ]);
}

/// Runs every algorithm of `algos` over `users` into `table`.
fn push_algos(
    table: &mut Table,
    algos: &mut [Box<dyn InteractiveAlgorithm>],
    data: &isrl_data::Dataset,
    users: &[Vec<f64>],
    eps: f64,
) {
    for algo in algos {
        let cost = per_round(algo.as_mut(), data, users, eps, TraceMode::Off);
        push_round(table, algo.name(), data.dim(), data.len(), "full", &cost);
    }
}

fn hotpath() -> Vec<Table> {
    let mut table = round_table(
        "hotpath",
        "Per-round wall-clock of the learned agents and baselines through the hot-path layer",
        "algorithm",
    );

    // d = 4: the low-dimensional regime where EA's vertex-based state is
    // exact (Figures 9-12). Skyline-pruned anti-correlated data, as in the
    // paper's synthetic setup.
    let data = skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1));
    let d = data.dim();
    let train = sample_users(d, 40, 2);
    let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
    ea.train(&data, &train, 0.1);
    let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(4));
    aa.train(&data, &train, 0.1);
    let mut algos: Vec<Box<dyn InteractiveAlgorithm>> = vec![
        Box::new(ea),
        Box::new(aa),
        Box::new(UhBaseline::random(4)),
        Box::new(UhBaseline::simplex(4)),
        Box::new(SinglePass::seeded(4)),
        Box::new(UtilityApprox::default()),
    ];
    push_algos(&mut table, &mut algos, &data, &sample_users(d, 8, 3), 0.1);

    // d = 20: the high-dimensional regime (Figures 13-16). EA resolves to
    // the sampled geometry above d = 7 and stays untrained: the row
    // measures the hot path, not the learned question order.
    let data = generate(2_000, 20, Distribution::AntiCorrelated, 1);
    let d = data.dim();
    let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(7));
    aa.train(&data, &sample_users(d, 20, 5), 0.15);
    let mut algos: Vec<Box<dyn InteractiveAlgorithm>> = vec![
        Box::new(aa),
        Box::new(EaAgent::new(d, EaConfig::paper_default().with_seed(7))),
        Box::new(SinglePass::seeded(7)),
    ];
    push_algos(&mut table, &mut algos, &data, &sample_users(d, 4, 6), 0.15);

    vec![table, kernel_before_after(), profiling_overhead(), micro()]
}

/// Direct before/after timings of the two kernels the hot-path layer
/// replaced: from-scratch vs incremental vertex enumeration on a deep
/// region, and the scalar reference vs the structure-of-arrays top-1 scan
/// at the regret estimator's working size.
fn kernel_before_after() -> Table {
    let mut table = Table::new(
        "hotpath_kernels",
        "Kernel wall-clock before/after the hot-path layer",
        &["kernel", "params", "before_ms", "after_ms", "speedup"],
    );
    let f = vertex_fixture();
    let before = min_ms(200, || {
        black_box(Polytope::from_region(&f.region));
    }) / 200.0;
    let after = min_ms(5000, || {
        black_box(f.prior_polytope.update(&f.prior, &f.last));
    }) / 5000.0;
    table.push_row(vec![
        "vertex_enumeration".into(),
        format!("d=4 cuts={}", f.region.len()),
        format!("{before:.4}"),
        format!("{after:.4}"),
        f2(before / after),
    ]);

    // n = 100k, d = 20, 32 utility vectors; the column mirror is built
    // outside the timed region.
    let data = generate(100_000, 20, Distribution::AntiCorrelated, 11);
    let d = data.dim();
    let utilities = sample_users(d, 32, 12);
    let reference_ms = min_ms(1, || {
        black_box(isrl_linalg::top1_batch(&utilities, data.as_flat(), d));
    });
    let soa = data.soa();
    let soa_ms = min_ms(1, || {
        black_box(isrl_linalg::top1_soa(&utilities, soa));
    });
    table.push_row(vec![
        "top1_soa".into(),
        format!("n={} d={d} k={}", data.len(), utilities.len()),
        format!("{reference_ms:.2}"),
        format!("{soa_ms:.2}"),
        f2(reference_ms / soa_ms),
    ]);
    table
}

/// Cost of the span-profiler instrumentation with the sink *disabled* —
/// the state every benchmark and production run pays: the per-call cost
/// of a disabled `isrl_obs::span` times the spans one real EA round opens
/// (counted from a profiled run), as a share of the round's wall time.
/// The budget is < 1%: instrumentation must be free when nobody looks.
fn profiling_overhead() -> Table {
    assert!(
        !isrl_obs::enabled(),
        "sink must be off for the overhead row"
    );
    let calls = 2_000_000usize;
    let ns_per_span = min_ms(1, || {
        for _ in 0..calls {
            let _guard = black_box(isrl_obs::span("overhead_probe"));
        }
    }) * 1e6
        / calls as f64;

    // Spans per round on the d = 4 EA workload of the per-round rows. Each
    // interaction emits one `profile` event whose per-path counts are
    // exactly the spans the round hot path opens.
    let data = skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1));
    let users = sample_users(data.dim(), 4, 3);
    let mut ea = EaAgent::new(data.dim(), EaConfig::paper_default().with_seed(4));
    isrl_obs::reset();
    isrl_obs::set_enabled(true);
    let cost = per_round(&mut ea, &data, &users, 0.1, TraceMode::Off);
    isrl_obs::set_enabled(false);
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

    let spans_per_round = spans as f64 / cost.rounds.max(1) as f64;
    let round_ms = cost.ms_per_round();
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

/// One row per per-round primitive: data generation and scans, the
/// geometry and LP kernels behind EA's and AA's state, and the DQN's
/// fixed cost. Each row is milliseconds per call.
fn micro() -> Table {
    let mut table = Table::new(
        "micro",
        "Per-call wall-clock of the per-round primitives",
        &["kernel", "params", "ms"],
    );
    let mut row = |kernel: &str, params: &str, iters: usize, f: &mut dyn FnMut()| {
        let ms = min_ms(iters, f) / iters as f64;
        eprintln!("{kernel} {params}: {ms:.4} ms");
        table.push_row(vec![kernel.into(), params.into(), format!("{ms:.4}")]);
    };

    let low = skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1));
    let mut ea = EaAgent::new(4, EaConfig::paper_default().with_seed(8));
    let one_user = sample_users(4, 1, 9);
    row("training_episode", "EA d=4 users=1", 5, &mut || {
        black_box(ea.train(&low, &one_user, 0.1));
    });
    row("generate", "anti n=10000 d=4", 5, &mut || {
        black_box(generate(10_000, 4, Distribution::AntiCorrelated, 1));
    });
    let raw = generate(10_000, 4, Distribution::AntiCorrelated, 2);
    row("skyline", "anti n=10000 d=4", 3, &mut || {
        black_box(skyline(&raw));
    });
    let big = generate(100_000, 4, Distribution::AntiCorrelated, 3);
    let bary = vec![0.25; 4];
    row("argmax_utility", "n=100000 d=4", 10, &mut || {
        black_box(big.argmax_utility(&bary));
    });
    let vertices = Polytope::from_region(&cut_region(5, 6, 2))
        .expect("barycenter kept feasible")
        .vertices()
        .to_vec();
    row("outer_sphere", "d=5 cuts=6", 100, &mut || {
        black_box(min_enclosing_sphere(
            &vertices,
            EnclosingSphereParams::default(),
        ));
    });
    let mut rng = StdRng::seed_from_u64(3);
    row("sampling_simplex_100", "d=20", 100, &mut || {
        for _ in 0..100 {
            black_box(sampling::sample_simplex(20, &mut rng));
        }
    });
    let region = cut_region(20, 5, 4);
    let start = region.feasible_point().expect("barycenter kept feasible");
    let mut rng = StdRng::seed_from_u64(5);
    row("sampling_hit_and_run_100", "d=20 cuts=5", 10, &mut || {
        black_box(sampling::hit_and_run(
            20,
            region.halfspaces(),
            &start,
            100,
            2,
            &mut rng,
        ));
    });
    let region = cut_region(20, 20, 1);
    row("inner_sphere_lp", "d=20 H=20", 20, &mut || {
        black_box(region.inner_sphere());
    });
    let region = cut_region(20, 10, 2);
    row("outer_rectangle_2d_lps", "d=20 H=10", 5, &mut || {
        black_box(region.outer_rectangle());
    });
    let region = cut_region(20, 10, 3);
    let mut probe = vec![0.0; 20];
    probe[0] = 1.0;
    probe[1] = -1.0;
    let probe = Halfspace::new(probe);
    row("strict_feasibility_cut_test", "d=20 H=10", 50, &mut || {
        black_box(region.is_cut_by(&probe));
    });
    let mlp = isrl_nn::Mlp::new(
        &[65, 64, 1],
        isrl_nn::Activation::Selu,
        isrl_nn::Init::LecunNormal,
        &mut StdRng::seed_from_u64(1),
    );
    let x = vec![0.1; 65];
    row(
        "mlp_forward_backward",
        "input=65 hidden=64",
        1000,
        &mut || {
            let (y, cache) = mlp.forward_cached(&x);
            black_box(mlp.backward(&cache, &isrl_nn::loss::mse_grad(&y, &[0.5])));
        },
    );
    let (state_dim, action_dim) = (61usize, 40usize);
    let mut dqn = isrl_rl::Dqn::new(isrl_rl::DqnConfig::paper_default(state_dim, action_dim));
    for k in 0..128 {
        dqn.push_transition(isrl_rl::Transition {
            state: vec![0.1 * (k % 7) as f64; state_dim],
            action: vec![0.2; action_dim],
            reward: if k % 9 == 0 { 100.0 } else { 0.0 },
            next: (k % 2 == 1).then(|| isrl_rl::NextState {
                state: vec![0.3; state_dim],
                actions: vec![vec![0.4; action_dim]; 5],
            }),
        });
    }
    row("dqn_train_step", "state=61 action=40", 20, &mut || {
        black_box(dqn.train_step());
    });
    table
}

fn lp_warm() -> Vec<Table> {
    let mut table = Table::new(
        "lp_warm",
        "Warm-started vs cold LP solving on the per-round geometry workload",
        &[
            "d",
            "cuts",
            "probes",
            "cold_ms",
            "warm_ms",
            "speedup",
            "divergences",
        ],
    );
    let dims = [4usize, 8, 12, 20];
    let (cuts, probes) = (15usize, 6usize);
    let mut total_divergences = 0usize;
    for d in dims {
        let (seq, probe_set) = cut_workload(d, cuts, probes, 1);
        let divergences = count_divergences(d, &seq, &probe_set);
        total_divergences += divergences;
        let iters = if d >= 12 { 4 } else { 10 };
        let cold_ms = min_ms(iters, || replay_cold(d, &seq, &probe_set)) / iters as f64;
        let warm_ms = min_ms(iters, || replay_warm(d, &seq, &probe_set)) / iters as f64;
        eprintln!(
            "d={d} cuts={cuts}: cold {cold_ms:.3} ms, warm {warm_ms:.3} ms, \
             speedup {:.2}, divergences {divergences}",
            cold_ms / warm_ms
        );
        table.push_row(vec![
            d.to_string(),
            cuts.to_string(),
            probes.to_string(),
            format!("{cold_ms:.4}"),
            format!("{warm_ms:.4}"),
            f2(cold_ms / warm_ms),
            divergences.to_string(),
        ]);
    }

    // Warm-path telemetry over one sweep: how often the carried basis
    // survives vs falls back to the cold path, how many LPs the
    // certificates answered without a solve, and how many extents the
    // family solved on its shared tableau.
    isrl_obs::set_enabled(true);
    isrl_obs::reset();
    for d in dims {
        let (seq, probe_set) = cut_workload(d, cuts, probes, 1);
        replay_warm(d, &seq, &probe_set);
    }
    let snap = isrl_obs::snapshot();
    isrl_obs::set_enabled(false);
    let names = [
        "lp.warm.attempts",
        "lp.warm.hits",
        "lp.warm.fallbacks",
        "lp.warm.repair_pivots",
        "lp.warm.refactor_pivots",
        "lp.cert.extent_hits",
        "lp.cert.cut_hits",
        "lp.family.solves",
    ];
    let values = names.map(|name| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    });
    let hit_rate = values[1] as f64 / values[0].max(1) as f64;
    let mut counters = Table::new(
        "warm_counters",
        "Warm-path LP counters over one sweep",
        &[names.as_slice(), &["hit_rate"]].concat(),
    );
    let mut cells: Vec<String> = values.iter().map(u64::to_string).collect();
    cells.push(format!("{hit_rate:.4}"));
    counters.push_row(cells);

    assert_eq!(
        total_divergences, 0,
        "warm and cold LP paths disagreed {total_divergences} times"
    );
    let mut total = Table::new(
        "total_divergences",
        "Warm/cold LP summary or verdict mismatches over every row",
        &["total_divergences"],
    );
    total.push_row(vec![total_divergences.to_string()]);
    vec![table, counters, total]
}

fn geom_scale() -> Vec<Table> {
    let mut table = round_table(
        "geom_scale",
        "Untrained EA per-round wall-clock by dimensionality and geometry backend",
        "backend",
    );
    let (n, eps) = (2_000usize, 0.15);
    let ea_on = |d: usize, geometry: GeometryBackend| {
        let mut cfg = EaConfig::paper_default().with_seed(7);
        cfg.geometry = geometry;
        EaAgent::new(d, cfg)
    };

    let mut sampled_d20_ms = f64::NAN;
    for d in [8usize, 12, 16, 20, 24] {
        let data = generate(n, d, Distribution::AntiCorrelated, 1);
        let mut ea = ea_on(d, GeometryBackend::Sampled);
        let cost = per_round(&mut ea, &data, &sample_users(d, 4, 6), eps, TraceMode::Off);
        if d == 20 {
            sampled_d20_ms = cost.ms_per_round();
        }
        push_round(&mut table, "sampled", d, n, "full", &cost);
    }

    // The exact baseline at d = 20 over a 6-round prefix: the workload
    // whose per-round cost (1427.9 ms when the sampled backend landed)
    // set the 10x acceptance bar.
    let d = 20usize;
    let data = Arc::new(generate(n, d, Distribution::AntiCorrelated, 1));
    let policy = Arc::new(ServePolicy::Ea(ea_on(d, GeometryBackend::Exact)));
    let cost = per_round_capped(&policy, &data, &sample_users(d, 4, 6), eps, 6);
    push_round(&mut table, "exact", d, n, "first6", &cost);

    let exact_d20_ms = cost.ms_per_round();
    let speedup = exact_d20_ms / sampled_d20_ms;
    println!("sampled-vs-exact speedup at d=20: {speedup:.2}x");
    assert!(
        speedup >= 10.0,
        "sampled backend is only {speedup:.2}x faster than exact at d=20 (bar: 10x)"
    );
    let mut speed = Table::new(
        "geom_speedup",
        "Sampled vs exact per-round wall-clock at d = 20",
        &[
            "d",
            "sampled_per_round_ms",
            "exact_per_round_ms",
            "speedup_sampled_vs_exact_d20",
            "bar",
        ],
    );
    speed.push_row(vec![
        d.to_string(),
        f2(sampled_d20_ms),
        f2(exact_d20_ms),
        f2(speedup),
        "10".into(),
    ]);
    vec![table, speed]
}
