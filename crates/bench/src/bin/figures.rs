//! Regenerates every figure of the paper's evaluation (§V).
//!
//! ```text
//! cargo run -p isrl-bench --release --bin figures -- all
//! cargo run -p isrl-bench --release --bin figures -- fig9 fig15 --scale 2 --out results
//! ```
//!
//! Experiments: fig6a fig6b fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//! fig15 fig16 ablation noise (or `all`). `--scale` multiplies the dataset
//! sizes and training budgets (1.0 = the repo's laptop-scale defaults;
//! absolute numbers differ from the paper's M3/Python setup by design —
//! EXPERIMENTS.md compares *shapes*). Tables print to stdout and land as
//! CSV under `--out` (default `results/`).

use isrl_bench::report::{f2, f4, secs, Table};
use isrl_bench::sweep::{
    run_algos, run_progress, run_sweep, AlgoKind, DataSpec, SweepCell, SweepParams,
};
use isrl_core::prelude::*;
use isrl_core::regret::regret_ratio_of_index;
use isrl_data::Distribution;
use std::path::PathBuf;

#[derive(Debug, Clone)]
struct Cli {
    experiments: Vec<String>,
    scale: f64,
    out: PathBuf,
    users: usize,
    train: usize,
    trace_out: Option<PathBuf>,
    metrics_interval: Option<f64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        experiments: Vec::new(),
        scale: 1.0,
        out: PathBuf::from("results"),
        users: 15,
        train: 100,
        trace_out: None,
        metrics_interval: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => cli.scale = args.next().expect("--scale needs a value").parse().unwrap(),
            "--out" => cli.out = PathBuf::from(args.next().expect("--out needs a value")),
            "--users" => cli.users = args.next().expect("--users needs a value").parse().unwrap(),
            "--train" => cli.train = args.next().expect("--train needs a value").parse().unwrap(),
            "--trace-out" => {
                cli.trace_out = Some(PathBuf::from(
                    args.next().expect("--trace-out needs a value"),
                ));
            }
            "--metrics-interval" => {
                cli.metrics_interval = Some(
                    args.next()
                        .expect("--metrics-interval needs seconds")
                        .parse()
                        .expect("--metrics-interval must be a number of seconds"),
                );
            }
            other => cli.experiments.push(other.to_string()),
        }
    }
    if cli.experiments.is_empty() {
        eprintln!(
            "usage: figures <exp>... [--scale X] [--out DIR] [--users N] [--train N] [--trace-out t.jsonl] [--metrics-interval s]"
        );
        eprintln!(
            "exps: fig6a fig6b fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 ablation noise all"
        );
        std::process::exit(2);
    }
    cli
}

const EPS_SWEEP: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

fn sc(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(2)
}

struct Ctx {
    scale: f64,
    users: usize,
    train: usize,
}

impl Ctx {
    fn params(&self, seed: u64) -> SweepParams {
        SweepParams {
            test_users: self.users,
            train_episodes: sc(self.train, self.scale),
            ea_samples: 80,
            seed,
        }
    }

    fn synth(&self, d: usize) -> DataSpec {
        DataSpec::Synthetic {
            n: sc(2_000, self.scale),
            d,
            dist: Distribution::AntiCorrelated,
        }
    }
}

/// Builds the (rounds, time, regret) table triple over a labelled x-axis;
/// shared by fig9/10/15/16 (ε sweeps) and fig11–14 (n/d sweeps).
fn sweep_tables(
    id: &str,
    title: &str,
    xlabel: &str,
    xs: &[String],
    per_x: Vec<Vec<(AlgoKind, Evaluation)>>,
) -> Vec<Table> {
    let algos: Vec<AlgoKind> = per_x[0].iter().map(|(k, _)| *k).collect();
    let names: Vec<String> = algos.iter().map(|a| a.name().to_string()).collect();
    let mut headers = vec![xlabel];
    headers.extend(names.iter().map(String::as_str));
    let mut rounds = Table::new(format!("{id}a"), format!("{title} — rounds"), &headers);
    let mut time = Table::new(format!("{id}b"), format!("{title} — time"), &headers);
    let mut regret = Table::new(
        format!("{id}c"),
        format!("{title} — final regret"),
        &headers,
    );
    for (x, evals) in xs.iter().zip(&per_x) {
        let mut r = vec![x.clone()];
        let mut t = vec![x.clone()];
        let mut g = vec![x.clone()];
        for (_, e) in evals {
            r.push(f2(e.stats.mean_rounds));
            t.push(secs(e.stats.mean_seconds));
            g.push(f4(e.stats.mean_regret));
        }
        rounds.push_row(r);
        time.push_row(t);
        regret.push_row(g);
    }
    vec![rounds, time, regret]
}

fn fig6a(ctx: &Ctx) -> Vec<Table> {
    // Vary the training-set size; report mean inference rounds of EA and AA.
    let data = ctx.synth(4).build(11);
    let sizes = [
        0,
        sc(25, ctx.scale),
        sc(50, ctx.scale),
        sc(100, ctx.scale),
        sc(200, ctx.scale),
    ];
    let mut t = Table::new(
        "fig6a",
        "Vary training size (d=4 synthetic)",
        &["train", "EA", "AA"],
    );
    for &s in &sizes {
        let params = SweepParams {
            train_episodes: s,
            ..ctx.params(21)
        };
        let evals = run_algos(&data, &[AlgoKind::Ea, AlgoKind::Aa], 0.1, &params);
        t.push_row(vec![
            s.to_string(),
            f2(evals[0].1.stats.mean_rounds),
            f2(evals[1].1.stats.mean_rounds),
        ]);
    }
    vec![t]
}

fn fig6b(ctx: &Ctx) -> Vec<Table> {
    // Vary the action-space size m_h.
    let data = ctx.synth(4).build(12);
    let mut t = Table::new(
        "fig6b",
        "Vary action-space size m_h (d=4 synthetic)",
        &["m_h", "EA", "AA"],
    );
    for m_h in [2usize, 5, 10, 20] {
        let params = ctx.params(22);
        let users = sample_users(4, params.test_users, params.seed.wrapping_add(300));
        let train = sample_users(4, params.train_episodes, params.seed.wrapping_add(100));
        let mut ea_cfg = EaConfig::paper_default().with_seed(params.seed);
        ea_cfg.m_h = m_h;
        ea_cfg.n_samples = params.ea_samples;
        let mut ea = EaAgent::new(4, ea_cfg);
        ea.train(&data, &train, 0.1);
        let ea_eval = evaluate(&mut ea, &data, &users, 0.1, TraceMode::Off);
        let mut aa_cfg = AaConfig::paper_default().with_seed(params.seed);
        aa_cfg.m_h = m_h;
        let mut aa = AaAgent::new(4, aa_cfg);
        aa.train(&data, &train, 0.1);
        let aa_eval = evaluate(&mut aa, &data, &users, 0.1, TraceMode::Off);
        t.push_row(vec![
            m_h.to_string(),
            f2(ea_eval.stats.mean_rounds),
            f2(aa_eval.stats.mean_rounds),
        ]);
    }
    vec![t]
}

fn progress_tables(
    id: &str,
    title: &str,
    data: &isrl_data::Dataset,
    kinds: &[AlgoKind],
    ctx: &Ctx,
    max_round: usize,
    regret_samples: usize,
) -> Vec<Table> {
    let params = SweepParams {
        test_users: ctx.users.min(5),
        ..ctx.params(31)
    };
    let progress = run_progress(data, kinds, 0.1, &params, max_round, regret_samples);
    let mut headers = vec!["round".to_string()];
    for p in &progress {
        headers.push(format!("{} maxregret", p.kind.name()));
        headers.push(format!("{} cum.time", p.kind.name()));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(id, title, &hdr_refs);
    for round in 1..=max_round {
        let mut row = vec![round.to_string()];
        let mut any = false;
        for p in &progress {
            match p.rows.iter().find(|r| r.0 == round) {
                Some(&(_, mr, ts)) => {
                    row.push(f4(mr));
                    row.push(secs(ts));
                    any = true;
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        if any {
            t.push_row(row);
        }
    }
    vec![t]
}

fn fig7(ctx: &Ctx) -> Vec<Table> {
    let data = ctx.synth(4).build(13);
    progress_tables(
        "fig7",
        "Interaction progress (d=4 synthetic, eps=0.1)",
        &data,
        &[
            AlgoKind::Ea,
            AlgoKind::Aa,
            AlgoKind::UhRandom,
            AlgoKind::UhSimplex,
        ],
        ctx,
        10,
        800,
    )
}

fn fig8(ctx: &Ctx) -> Vec<Table> {
    let data = ctx.synth(20).build(14);
    progress_tables(
        "fig8",
        "Interaction progress (d=20 synthetic, eps=0.1)",
        &data,
        &[AlgoKind::Aa, AlgoKind::SinglePass],
        ctx,
        15,
        400,
    )
}

fn eps_sweep(ctx: &Ctx, id: &str, title: &str, spec: DataSpec, kinds: &[AlgoKind]) -> Vec<Table> {
    let data = spec.build(15);
    let params = ctx.params(41);
    // Train each RL agent once (at ε = 0.1) and reuse it across the sweep —
    // the policy only selects questions; the ε-dependent stopping condition
    // is applied at inference (documented in EXPERIMENTS.md; the paper
    // retrains per setting, which changes constants, not trends).
    let users = sample_users(data.dim(), params.test_users, params.seed.wrapping_add(300));
    let mut algos: Vec<Box<dyn InteractiveAlgorithm + Send>> = kinds
        .iter()
        .map(|&k| isrl_bench::sweep::make_algo(k, &data, 0.1, &params))
        .collect();
    let xs: Vec<String> = EPS_SWEEP.iter().map(|e| format!("{e}")).collect();
    let per_x: Vec<Vec<(AlgoKind, Evaluation)>> = EPS_SWEEP
        .iter()
        .map(|&eps| {
            kinds
                .iter()
                .zip(algos.iter_mut())
                .map(|(&k, algo)| {
                    (
                        k,
                        evaluate(algo.as_mut(), &data, &users, eps, TraceMode::Off),
                    )
                })
                .collect()
        })
        .collect();
    sweep_tables(id, title, "eps", &xs, per_x)
}

fn fig9(ctx: &Ctx) -> Vec<Table> {
    eps_sweep(
        ctx,
        "fig9",
        "Vary eps (d=4 synthetic)",
        ctx.synth(4),
        &AlgoKind::roster(4),
    )
}

fn fig10(ctx: &Ctx) -> Vec<Table> {
    eps_sweep(
        ctx,
        "fig10",
        "Vary eps (d=20 synthetic)",
        ctx.synth(20),
        &AlgoKind::roster(20),
    )
}

fn n_sweep(ctx: &Ctx, id: &str, title: &str, d: usize) -> Vec<Table> {
    let kinds = AlgoKind::roster(d);
    let ns: Vec<usize> = [500usize, 2_000, 8_000]
        .iter()
        .map(|&n| sc(n, ctx.scale))
        .collect();
    let xs: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
    // One shared work queue across every n-cell: training and per-user
    // items from all cells interleave instead of running cell-by-cell.
    let cells: Vec<SweepCell> = ns
        .iter()
        .map(|&n| SweepCell {
            spec: DataSpec::Synthetic {
                n,
                d,
                dist: Distribution::AntiCorrelated,
            },
            eps: 0.1,
            kinds: kinds.clone(),
            data_seed: 16,
        })
        .collect();
    let per_x = run_sweep(&cells, &ctx.params(42));
    sweep_tables(id, title, "n", &xs, per_x)
}

fn fig11(ctx: &Ctx) -> Vec<Table> {
    n_sweep(ctx, "fig11", "Vary n (d=4 synthetic)", 4)
}

fn fig12(ctx: &Ctx) -> Vec<Table> {
    n_sweep(ctx, "fig12", "Vary n (d=20 synthetic)", 20)
}

fn d_sweep(ctx: &Ctx, id: &str, title: &str, dims: &[usize], kinds: &[AlgoKind]) -> Vec<Table> {
    let xs: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    let cells: Vec<SweepCell> = dims
        .iter()
        .map(|&d| SweepCell {
            spec: ctx.synth(d),
            eps: 0.1,
            kinds: kinds.to_vec(),
            data_seed: 17,
        })
        .collect();
    let per_x = run_sweep(&cells, &ctx.params(43));
    sweep_tables(id, title, "d", &xs, per_x)
}

fn fig13(ctx: &Ctx) -> Vec<Table> {
    d_sweep(
        ctx,
        "fig13",
        "Vary d (low-dimensional)",
        &[2, 3, 4, 5],
        &AlgoKind::roster(4),
    )
}

fn fig14(ctx: &Ctx) -> Vec<Table> {
    d_sweep(
        ctx,
        "fig14",
        "Vary d (high-dimensional)",
        &[5, 10, 15, 20, 25],
        &AlgoKind::roster(20),
    )
}

fn fig15(ctx: &Ctx) -> Vec<Table> {
    let n = sc(isrl_data::real::CAR_N, ctx.scale.min(1.0));
    eps_sweep(
        ctx,
        "fig15",
        "Vary eps (Car)",
        DataSpec::Car { n },
        &AlgoKind::roster(3),
    )
}

fn fig16(ctx: &Ctx) -> Vec<Table> {
    let n = sc(isrl_data::real::PLAYER_N, ctx.scale.min(1.0));
    eps_sweep(
        ctx,
        "fig16",
        "Vary eps (Player)",
        DataSpec::Player { n },
        &AlgoKind::roster(20),
    )
}

fn ablation(ctx: &Ctx) -> Vec<Table> {
    let data = ctx.synth(4).build(18);
    let params = ctx.params(51);
    let users = sample_users(4, params.test_users, params.seed.wrapping_add(300));
    let train = sample_users(4, params.train_episodes, params.seed.wrapping_add(100));
    let mut t = Table::new(
        "ablation",
        "Design-choice ablations (d=4 synthetic, eps=0.1)",
        &["variant", "mean rounds", "mean regret"],
    );
    let push = |t: &mut Table, label: &str, eval: &Evaluation| {
        t.push_row(vec![
            label.to_string(),
            f2(eval.stats.mean_rounds),
            f4(eval.stats.mean_regret),
        ]);
    };

    // (a) RL value: trained vs untrained agents.
    let mut ea_cfg = EaConfig::paper_default().with_seed(params.seed);
    ea_cfg.n_samples = params.ea_samples;
    let mut ea_untrained = EaAgent::new(4, ea_cfg.clone());
    let e = evaluate(&mut ea_untrained, &data, &users, 0.1, TraceMode::Off);
    push(&mut t, "EA untrained", &e);
    let mut ea_trained = EaAgent::new(4, ea_cfg.clone());
    ea_trained.train(&data, &train, 0.1);
    let e = evaluate(&mut ea_trained, &data, &users, 0.1, TraceMode::Off);
    push(&mut t, "EA trained", &e);

    let aa_cfg = AaConfig::paper_default().with_seed(params.seed);
    let mut aa_untrained = AaAgent::new(4, aa_cfg.clone());
    let e = evaluate(&mut aa_untrained, &data, &users, 0.1, TraceMode::Off);
    push(&mut t, "AA untrained", &e);
    let mut aa_trained = AaAgent::new(4, aa_cfg.clone());
    aa_trained.train(&data, &train, 0.1);
    let e = evaluate(&mut aa_trained, &data, &users, 0.1, TraceMode::Off);
    push(&mut t, "AA trained", &e);

    // (b) AA's inner-sphere ranking vs random candidate order.
    let mut aa_rand_cfg = AaConfig::paper_default().with_seed(params.seed);
    aa_rand_cfg.pair_gen.rank_by_distance = false;
    let mut aa_rand = AaAgent::new(4, aa_rand_cfg);
    aa_rand.train(&data, &train, 0.1);
    let e = evaluate(&mut aa_rand, &data, &users, 0.1, TraceMode::Off);
    push(&mut t, "AA random-rank actions", &e);

    // (c) EA's Lemma-5 sampling budget.
    for n_samples in [10usize, 80] {
        let mut cfg = ea_cfg.clone();
        cfg.n_samples = n_samples;
        let mut ea = EaAgent::new(4, cfg);
        ea.train(&data, &train, 0.1);
        let e = evaluate(&mut ea, &data, &users, 0.1, TraceMode::Off);
        push(&mut t, &format!("EA n_samples={n_samples}"), &e);
    }

    // (d) EA's two-part state design (§IV-B): drop either part, or replace
    // the greedy max-coverage representative selection.
    use isrl_core::ea::StateVariant;
    for (variant, label) in [
        (StateVariant::RepsOnly, "EA state reps-only"),
        (StateVariant::SphereOnly, "EA state sphere-only"),
        (StateVariant::StridedReps, "EA state strided-reps"),
    ] {
        let mut cfg = ea_cfg.clone();
        cfg.state_variant = variant;
        let mut ea = EaAgent::new(4, cfg);
        ea.train(&data, &train, 0.1);
        let e = evaluate(&mut ea, &data, &users, 0.1, TraceMode::Off);
        push(&mut t, label, &e);
    }
    vec![t]
}

fn noise(ctx: &Ctx) -> Vec<Table> {
    // The paper's future work: users who answer incorrectly with some
    // probability. Measures robustness of each stopping condition.
    let data = ctx.synth(4).build(19);
    let params = ctx.params(52);
    let users = sample_users(4, params.test_users, params.seed.wrapping_add(300));
    let mut t = Table::new(
        "noise",
        "Noisy users (d=4 synthetic, eps=0.1): mean rounds / mean regret",
        &["flip prob", "EA", "AA", "UH-Simplex", "SinglePass"],
    );
    for &flip in &[0.0, 0.05, 0.10, 0.20] {
        let mut row = vec![format!("{flip}")];
        for kind in [
            AlgoKind::Ea,
            AlgoKind::Aa,
            AlgoKind::UhSimplex,
            AlgoKind::SinglePass,
        ] {
            let mut algo = isrl_bench::sweep::make_algo(kind, &data, 0.1, &params);
            let mut rounds = 0.0;
            let mut regret = 0.0;
            for (ui, u) in users.iter().enumerate() {
                let mut user = NoisyUser::new(u.clone(), flip, params.seed + ui as u64);
                let out = algo.run(&data, &mut user, 0.1, TraceMode::Off);
                rounds += out.rounds as f64;
                regret += regret_ratio_of_index(&data, out.point_index, u);
            }
            let n = users.len() as f64;
            row.push(format!("{} / {}", f2(rounds / n), f4(regret / n)));
        }
        t.push_row(row);
    }
    vec![t]
}

fn main() {
    let cli = parse_cli();
    let mut snapshotter = None;
    if cli.trace_out.is_some() || cli.metrics_interval.is_some() {
        isrl_obs::current_sink().set_enabled(true);
        if let Some(secs) = cli.metrics_interval.filter(|&s| s > 0.0) {
            snapshotter = Some(isrl_obs::Snapshotter::start(
                std::time::Duration::from_secs_f64(secs),
                true,
            ));
        }
    }
    let ctx = Ctx {
        scale: cli.scale,
        users: cli.users,
        train: cli.train,
    };
    let all = [
        "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "ablation", "noise",
    ];
    let wanted: Vec<&str> = if cli.experiments.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        cli.experiments.iter().map(String::as_str).collect()
    };

    for exp in wanted {
        let start = std::time::Instant::now();
        eprintln!(">> running {exp} (scale {})", ctx.scale);
        let tables = match exp {
            "fig6a" => fig6a(&ctx),
            "fig6b" => fig6b(&ctx),
            "fig7" => fig7(&ctx),
            "fig8" => fig8(&ctx),
            "fig9" => fig9(&ctx),
            "fig10" => fig10(&ctx),
            "fig11" => fig11(&ctx),
            "fig12" => fig12(&ctx),
            "fig13" => fig13(&ctx),
            "fig14" => fig14(&ctx),
            "fig15" => fig15(&ctx),
            "fig16" => fig16(&ctx),
            "ablation" => ablation(&ctx),
            "noise" => noise(&ctx),
            other => {
                eprintln!("unknown experiment {other:?}; skipping");
                continue;
            }
        };
        for table in &tables {
            println!("{}", table.render());
            if let Err(e) = table.save_csv(&cli.out) {
                eprintln!("warning: could not save {}: {e}", table.id);
            }
        }
        eprintln!("<< {exp} done in {:.1}s", start.elapsed().as_secs_f64());
    }

    // Per-item sweep telemetry rides along with the tables: every
    // evaluated (cell, algo, user) item is a `sweep_item` event, and the
    // trailing summary line carries the LP/sampling/scan aggregates.
    if let Some(s) = snapshotter.take() {
        s.stop();
    }
    if let Some(path) = &cli.trace_out {
        let sink = isrl_obs::current_sink();
        sink.set_enabled(false);
        let snap = sink.snapshot();
        match std::fs::File::create(path) {
            Ok(file) => {
                let mut w = std::io::BufWriter::new(file);
                if let Err(e) = snap.write_jsonl(&mut w) {
                    eprintln!("warning: could not write trace: {e}");
                } else {
                    eprintln!(
                        "trace: {} events written to {}",
                        snap.n_events(),
                        path.display()
                    );
                }
            }
            Err(e) => eprintln!("warning: could not create {}: {e}", path.display()),
        }
    }
}
