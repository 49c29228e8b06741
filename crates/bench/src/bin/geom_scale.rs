//! Emits `BENCH_geom_scale.json`: per-round wall-clock of full untrained
//! EA episodes on the *sampled* utility-region backend across
//! d ∈ {8, 12, 16, 20, 24} at n = 2000 anti-correlated tuples — the scaling
//! regime where exact vertex enumeration is hopeless — plus one measured
//! exact-backend row at d = 20 (stepped over a bounded round prefix via the
//! session API, since a full exact interaction there does not terminate in
//! reasonable time). The artifact carries an explicit
//! `speedup_sampled_vs_exact_d20` figure so the ≥10x acceptance criterion
//! of the sampled-geometry layer is self-contained; `perf_check` gates the
//! same quantity continuously through its `round.ea_sampled_d20` ceiling.
//!
//! Usage: `cargo run -p isrl-bench --release --bin geom_scale [-- out.json]`
//! (run from the repository root so the artifact lands next to ROADMAP.md).

use std::sync::Arc;

use isrl_bench::report::{f2, Table};
use isrl_core::prelude::*;
use isrl_data::{generate, Dataset, Distribution};
use isrl_geometry::GeometryBackend;
use isrl_linalg::vector;

/// Runs `ea` to completion once per user and reports
/// `(mean rounds, wall-clock ms per round, total seconds)`.
fn per_round_full(
    ea: &mut EaAgent,
    data: &Dataset,
    users: &[Vec<f64>],
    eps: f64,
) -> (f64, f64, f64) {
    let mut rounds = 0usize;
    let mut secs = 0.0f64;
    for (i, u) in users.iter().enumerate() {
        ea.reseed(0x5eed + i as u64);
        let mut user = SimulatedUser::new(u.clone());
        let out = ea.run(data, &mut user, eps, TraceMode::Off);
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

/// Steps an exact-backend EA session for at most `cap` rounds per user —
/// the bounded-prefix measurement the d = 20 exact row needs. Session `i`
/// is seeded like `per_round_full`'s `reseed`.
fn per_round_capped(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    users: &[Vec<f64>],
    eps: f64,
    cap: usize,
) -> (f64, f64, f64) {
    let mut rounds = 0usize;
    let mut secs = 0.0f64;
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
        rounds += session.rounds();
        secs += session.elapsed().as_secs_f64();
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
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_geom_scale.json"));
    let mut table = Table::new(
        "geom_scale",
        "Untrained EA per-round wall-clock by dimensionality and geometry backend",
        &[
            "backend",
            "d",
            "n",
            "eval_users",
            "mode",
            "mean_rounds",
            "per_round_ms",
            "total_s",
        ],
    );
    let eps = 0.15;
    let n = 2_000usize;

    let mut sampled_d20_ms = f64::NAN;
    for d in [8usize, 12, 16, 20, 24] {
        let data = generate(n, d, Distribution::AntiCorrelated, 1);
        let users = sample_users(d, 4, 6);
        let mut cfg = EaConfig::paper_default().with_seed(7);
        cfg.geometry = GeometryBackend::Sampled;
        let mut ea = EaAgent::new(d, cfg);
        let m = per_round_full(&mut ea, &data, &users, eps);
        eprintln!(
            "sampled d={d}: {:.2} rounds, {:.3} ms/round ({:.1}s total)",
            m.0, m.1, m.2
        );
        if d == 20 {
            sampled_d20_ms = m.1;
        }
        table.push_row(vec![
            "sampled".into(),
            d.to_string(),
            n.to_string(),
            users.len().to_string(),
            "full".into(),
            f2(m.0),
            f2(m.1),
            f2(m.2),
        ]);
    }

    // The exact baseline at d = 20, over a 6-round prefix: the very
    // workload whose measured per-round cost (1427.9 ms at the time the
    // sampled backend landed) set the 10x acceptance bar.
    let d = 20usize;
    let data = Arc::new(generate(n, d, Distribution::AntiCorrelated, 1));
    let users = sample_users(d, 4, 6);
    let mut cfg = EaConfig::paper_default().with_seed(7);
    cfg.geometry = GeometryBackend::Exact;
    let policy = Arc::new(ServePolicy::Ea(EaAgent::new(d, cfg)));
    let m = per_round_capped(&policy, &data, &users, eps, 6);
    eprintln!(
        "exact d={d} (first6): {:.2} rounds, {:.3} ms/round ({:.1}s total)",
        m.0, m.1, m.2
    );
    let exact_d20_ms = m.1;
    table.push_row(vec![
        "exact".into(),
        d.to_string(),
        n.to_string(),
        users.len().to_string(),
        "first6".into(),
        f2(m.0),
        f2(m.1),
        f2(m.2),
    ]);

    let speedup = exact_d20_ms / sampled_d20_ms;
    let combined = format!(
        "{{\n\"geom_scale\": {},\n\"speedup_sampled_vs_exact_d20\": {:.2}\n}}\n",
        table.to_json().trim_end(),
        speedup
    );
    std::fs::write(&out, combined).expect("writing the geom-scale artifact");
    println!("{}", table.render());
    println!("sampled-vs-exact speedup at d=20: {speedup:.2}x");
    println!("wrote {}", out.display());
}
