//! End-to-end interaction benchmarks: one full interactive session per
//! algorithm, at the two dimensionalities the paper's figures focus on.
//! These are the numbers behind the "execution time" columns of
//! Figures 9–16 (absolute values differ from the paper's Python/M3 setup;
//! relative ordering is the reproduction target).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isrl_core::prelude::*;
use isrl_data::{generate, skyline, Distribution};
use std::hint::black_box;

fn low_dim_data() -> isrl_data::Dataset {
    skyline(&generate(2_000, 4, Distribution::AntiCorrelated, 1))
}

fn high_dim_data() -> isrl_data::Dataset {
    generate(2_000, 20, Distribution::AntiCorrelated, 1)
}

fn bench_low_dim(c: &mut Criterion) {
    let data = low_dim_data();
    let d = data.dim();
    let eps = 0.1;
    let train = sample_users(d, 40, 2);
    let user_vec = sample_users(d, 1, 3).pop().unwrap();

    let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(4));
    ea.train(&data, &train, eps);
    let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(4));
    aa.train(&data, &train, eps);

    let mut g = c.benchmark_group("interaction_d4");
    g.sample_size(10);
    let mut algos: Vec<Box<dyn InteractiveAlgorithm>> = vec![
        Box::new(ea),
        Box::new(aa),
        Box::new(UhBaseline::random(4)),
        Box::new(UhBaseline::simplex(4)),
        Box::new(SinglePass::seeded(4)),
        Box::new(UtilityApprox::default()),
    ];
    for algo in &mut algos {
        let name = algo.name();
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut user = SimulatedUser::new(user_vec.clone());
                black_box(algo.run(&data, &mut user, eps, TraceMode::Off))
            })
        });
    }
    g.finish();
}

fn bench_high_dim(c: &mut Criterion) {
    let data = high_dim_data();
    let d = data.dim();
    let eps = 0.15;
    let train = sample_users(d, 20, 5);
    let user_vec = sample_users(d, 1, 6).pop().unwrap();

    let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(7));
    aa.train(&data, &train, eps);

    let mut g = c.benchmark_group("interaction_d20");
    g.sample_size(10);
    let mut algos: Vec<Box<dyn InteractiveAlgorithm>> =
        vec![Box::new(aa), Box::new(SinglePass::seeded(7))];
    for algo in &mut algos {
        let name = algo.name();
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut user = SimulatedUser::new(user_vec.clone());
                black_box(algo.run(&data, &mut user, eps, TraceMode::Off))
            })
        });
    }
    g.finish();
}

fn bench_top1_batch_vs_scalar(c: &mut Criterion) {
    // The utility-scan kernel at the regret estimator's working size:
    // n = 100k points, d = 20, a batch of sampled utility vectors. The
    // scalar reference streams the 16 MB row-major buffer once per utility
    // vector; the batched `Dataset` scan runs the structure-of-arrays
    // kernel over the column mirror (built before timing).
    let data = generate(100_000, 20, Distribution::AntiCorrelated, 11);
    let d = data.dim();
    let utilities = sample_users(d, 32, 12);
    let flat = data.as_flat();
    data.soa();

    let mut g = c.benchmark_group("top1_batch_vs_scalar");
    g.sample_size(10);
    g.bench_function("scalar", |b| {
        b.iter(|| black_box(isrl_linalg::top1_batch(&utilities, flat, d)))
    });
    g.bench_function("batched", |b| {
        b.iter(|| black_box(data.top1_batch(&utilities)))
    });
    g.finish();
}

fn bench_training_episode(c: &mut Criterion) {
    // Cost of one RL training episode (the offline side of the system).
    let data = low_dim_data();
    let d = data.dim();
    let mut g = c.benchmark_group("training_episode_d4");
    g.sample_size(10);
    g.bench_function("EA", |b| {
        let mut ea = EaAgent::new(d, EaConfig::paper_default().with_seed(8));
        let users = sample_users(d, 1, 9);
        b.iter(|| black_box(ea.train(&data, &users, 0.1)))
    });
    g.bench_function("AA", |b| {
        let mut aa = AaAgent::new(d, AaConfig::paper_default().with_seed(8));
        let users = sample_users(d, 1, 9);
        b.iter(|| black_box(aa.train(&data, &users, 0.1)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_low_dim,
    bench_high_dim,
    bench_top1_batch_vs_scalar,
    bench_training_episode
);
criterion_main!(benches);
