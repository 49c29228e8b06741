//! Correctness checks, metric definitions, the per-layer attribution table
//! and the result line.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use crate::client::ReqRecord;
use crate::procs::ServeRound;
use crate::replay::{Replayed, RequestCost};
use crate::stats::{mean, median, quantile, ratio};
use crate::{Bench, Pass};
use isrl_core::regret::regret_ratio_of_index;
use isrl_obs::Json;

/// Correctness-oracle verdict over every pass.
pub struct Checked {
    pub errors: Vec<String>,
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn find(replayed: &[Replayed], user: usize) -> Option<&Replayed> {
    replayed
        .binary_search_by_key(&user, |r| r.user)
        .ok()
        .map(|i| &replayed[i])
}

/// Runs the correctness oracle:
/// * every `done` tuple is the dataset row at its index;
/// * every user's wire questions and outcome equal the in-process replay's;
/// * the recommendation respects the workload's regret bound (ε for exact
///   EA, d²ε for AA) for every completed wire session and quality user.
pub fn check(bench: &Bench, passes: &[&Pass], replayed: &[Replayed]) -> Checked {
    let data = &bench.data;
    let mut errors = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        for s in &pass.run.sessions {
            let Some(r) = find(replayed, s.user) else {
                errors.push(format!("pass {p} user {}: not replayed", s.user));
                continue;
            };
            for (k, (o1, o2)) in s.questions.iter().enumerate() {
                let same = r.questions.get(k).is_some_and(|&(i, j)| {
                    data.point(i) == o1.as_slice() && data.point(j) == o2.as_slice()
                });
                if !same {
                    errors.push(format!(
                        "pass {p} user {}: question {} differs from the replay",
                        s.user,
                        k + 1
                    ));
                    break;
                }
            }
            let Some(done) = &s.done else { continue };
            if done.index >= data.len() || data.point(done.index) != done.tuple.as_slice() {
                errors.push(format!(
                    "pass {p} user {}: done tuple is not dataset row {}",
                    s.user, done.index
                ));
            }
            if done.rounds != s.questions.len()
                || done.rounds != r.rounds()
                || done.index != r.recommendation
                || done.truncated != r.truncated
            {
                errors.push(format!(
                    "pass {p} user {}: outcome (rounds {}, index {}, truncated {}) differs from \
                     the replay (rounds {}, index {}, truncated {})",
                    s.user,
                    done.rounds,
                    done.index,
                    done.truncated,
                    r.rounds(),
                    r.recommendation,
                    r.truncated
                ));
            }
        }
    }
    if let Some(limit) = bench.w.regret_limit() {
        for r in replayed.iter().filter(|r| r.complete) {
            let regret = regret_of(bench, r);
            if regret > limit {
                errors.push(format!(
                    "user {}: regret {regret} exceeds the bound {limit}",
                    r.user
                ));
            }
        }
    }
    for e in errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }
    Checked { errors }
}

fn regret_of(bench: &Bench, r: &Replayed) -> f64 {
    let spec = crate::workload::UserSpec::new(bench.seed, r.user, bench.w.d);
    regret_ratio_of_index(&bench.data, r.recommendation, &spec.utility)
}

/// Quality over the fixed user set `0..quality_users`:
/// (questions per session, share within ε, share truncated).
fn quality(bench: &Bench, replayed: &[Replayed]) -> (f64, f64, f64) {
    let set: Vec<&Replayed> = replayed
        .iter()
        .filter(|r| r.user < bench.w.quality_users)
        .collect();
    let n = set.len() as f64;
    let questions = mean(&set.iter().map(|r| r.rounds() as f64).collect::<Vec<_>>());
    let violations = set
        .iter()
        .filter(|r| regret_of(bench, r) > bench.w.eps)
        .count() as f64;
    let truncated = set.iter().filter(|r| r.truncated).count() as f64;
    (questions, ratio(violations, n), ratio(truncated, n))
}

fn rounds_ms(records: &[ReqRecord]) -> Vec<f64> {
    records.iter().map(|r| r.round_ms).collect()
}

/// Measurement windows per pass. The host's speed drifts over seconds, so
/// rate and median latency are reported as medians over windows.
const WINDOWS: usize = 5;

/// The pass's records split into `WINDOWS` equal time windows.
fn windows(pass: &Pass) -> Vec<Vec<&ReqRecord>> {
    let span = pass.duration.as_secs_f64();
    let mut out = vec![Vec::new(); WINDOWS];
    for r in pass.run.records.iter().filter(|r| r.at_s < span) {
        out[((r.at_s / span * WINDOWS as f64) as usize).min(WINDOWS - 1)].push(r);
    }
    out
}

/// Median over windows of each window's median round.
fn round_p50(pass: &Pass) -> f64 {
    let p50s: Vec<f64> = windows(pass)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(&w.iter().map(|r| r.round_ms).collect::<Vec<_>>()))
        .collect();
    median(&p50s)
}

fn attempted(pass: &Pass) -> usize {
    pass.run.records.len() + pass.run.failed
}

/// Completed sessions per second. Open loop: every session runs to its
/// `done`, over first arrival → last reply. Closed loop: the median over
/// windows of requests served per second, ÷ requests per session of the
/// quality set — sessions in flight count by the share they finished.
fn sessions_per_s(bench: &Bench, pass: &Pass, questions: f64) -> f64 {
    if bench.w.load.is_open() {
        let done = pass
            .run
            .sessions
            .iter()
            .filter(|s| s.done.is_some())
            .count();
        ratio(done as f64, pass.run.elapsed_s)
    } else {
        let window_s = pass.duration.as_secs_f64() / WINDOWS as f64;
        let rates: Vec<f64> = windows(pass)
            .iter()
            .map(|w| w.len() as f64 / window_s)
            .collect();
        ratio(median(&rates), 1.0 + questions)
    }
}

pub fn end_to_end(bench: &Bench, pass: &Pass, replayed: &[Replayed], setup_s: f64) -> Vec<Metric> {
    let rounds = rounds_ms(&pass.run.records);
    let (questions, violation, truncated) = quality(bench, replayed);
    let failed = ratio(pass.run.failed as f64, attempted(pass) as f64);
    vec![
        ("round_p50_ms", round_p50(pass), "ms"),
        ("round_p99_ms", quantile(&rounds, 0.99), "ms"),
        (
            "sessions_per_s",
            sessions_per_s(bench, pass, questions),
            "1/s",
        ),
        ("questions_per_session", questions, "count"),
        ("eps_ok_share", 1.0 - violation, "ratio"),
        ("completed_share", 1.0 - truncated, "ratio"),
        ("request_ok_share", 1.0 - failed, "ratio"),
        ("setup_s", setup_s, "s"),
        ("server_peak_rss_mb", pass.peak_rss_mb, "MB"),
    ]
}

/// `serve_round` events closer together than this were emitted by one
/// batch: the core emits a batch's events back to back, and consecutive
/// batches are at least one batch window (500 µs) apart.
const BATCH_GAP_MS: f64 = 0.25;

/// One request of the traced pass, split into layers (ms). The rows add up
/// to `round` exactly. A request waits for the whole micro-batch it rides
/// in, so the compute rows are the batch's, replayed per session:
///
/// * `encode` — client-side frame encoding;
/// * `transit` — client → server clock: TCP, the reader thread and the
///   channel queue (= round − encode − server − the open/cut work the core
///   did for this request and the batch requests accepted before it);
/// * `open`, `cut`, `scan`, `finish` — the batch's session compute from the
///   in-process replay (`ServeSession::new`, `answer`, `top1_batch`,
///   `provide_scan`);
/// * `unattributed` — server time the replay does not explain: the batch
///   window, frame encode and write, and any gap between the server's
///   coalesced scan and the replay's per-session scans.
struct Split {
    round: f64,
    server: f64,
    rows: [f64; 7],
    /// `true` for a `hello`.
    hello: bool,
    /// This request's own replayed compute.
    cost: RequestCost,
}

const ROWS: [&str; 7] = [
    "encode",
    "transit",
    "open",
    "cut",
    "scan",
    "finish",
    "unattributed",
];

/// The server's micro-batches, recovered from the `serve_round` events.
fn batches(rounds: &[ServeRound]) -> Vec<Vec<&ServeRound>> {
    let mut out: Vec<Vec<&ServeRound>> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for e in rounds {
        if e.t_ms - last_t >= BATCH_GAP_MS {
            out.push(Vec::new());
        }
        last_t = e.t_ms;
        out.last_mut().expect("pushed above").push(e);
    }
    out
}

/// Splits the traced requests whose whole batch was replayed (requests
/// answered after the client stopped reading have no record, and their
/// batches are left out).
fn splits(traced: &Pass, replayed: &[Replayed]) -> Result<Vec<Split>, String> {
    const MS: f64 = 1e-6;
    let rounds = traced
        .server_rounds
        .as_ref()
        .ok_or("the traced pass has no server trace")?;
    let mut cost_of: HashMap<u64, RequestCost> = HashMap::new();
    for rec in &traced.run.records {
        let cost = find(replayed, rec.user)
            .and_then(|r| r.costs.get(rec.index))
            .ok_or_else(|| {
                format!(
                    "request {} of user {} was not replayed",
                    rec.index, rec.user
                )
            })?;
        cost_of.insert(rec.req, *cost);
    }
    let batches = batches(rounds);
    let mut by_req: HashMap<u64, (usize, usize, f64)> = HashMap::new();
    for (b, batch) in batches.iter().enumerate() {
        for (pos, e) in batch.iter().enumerate() {
            by_req.insert(e.req, (b, pos, e.ms));
        }
    }
    let mut out = Vec::with_capacity(traced.run.records.len());
    for rec in &traced.run.records {
        let &(b, pos, server) = by_req
            .get(&rec.req)
            .ok_or_else(|| format!("request {} has no serve_round event", rec.req))?;
        let batch: Option<Vec<&RequestCost>> =
            batches[b].iter().map(|e| cost_of.get(&e.req)).collect();
        let Some(batch) = batch else { continue };
        let accept = |c: &RequestCost| (c.open_ns + c.cut_ns) * MS;
        let before: f64 = batch[..=pos].iter().map(|c| accept(c)).sum();
        let after: f64 = batch[pos + 1..].iter().map(|c| accept(c)).sum();
        let sum = |f: fn(&RequestCost) -> f64| batch.iter().map(|c| f(c) * MS).sum::<f64>();
        let (scan, finish) = (sum(|c| c.scan_ns), sum(|c| c.finish_ns));
        let encode = rec.encode_ns * MS;
        out.push(Split {
            round: rec.round_ms,
            server,
            rows: [
                encode,
                rec.round_ms - encode - server - before,
                sum(|c| c.open_ns),
                sum(|c| c.cut_ns),
                scan,
                finish,
                server - scan - finish - after,
            ],
            hello: rec.index == 0,
            cost: cost_of[&rec.req],
        });
    }
    Ok(out)
}

pub fn per_layer(
    bench: &Bench,
    plain: &Pass,
    traced: &Pass,
    replayed: &[Replayed],
    train_s: f64,
) -> Result<Vec<Metric>, String> {
    let splits = splits(traced, replayed)?;
    attribution(bench, &splits)?;
    let batch_sizes: Vec<f64> = batches(traced.server_rounds.as_deref().unwrap_or_default())
        .iter()
        .map(|b| b.len() as f64)
        .collect();
    let costs: Vec<&RequestCost> = splits.iter().map(|s| &s.cost).collect();
    let answers: Vec<&RequestCost> = splits
        .iter()
        .filter(|s| !s.hello)
        .map(|s| &s.cost)
        .collect();
    let hellos: Vec<&RequestCost> = splits.iter().filter(|s| s.hello).map(|s| &s.cost).collect();
    let recs = &traced.run.records;
    let col = |f: &dyn Fn(&Split) -> f64| splits.iter().map(f).collect::<Vec<f64>>();
    let transit = col(&|s| s.round - s.server);
    let server = col(&|s| s.server);
    let utilities: f64 = costs.iter().map(|c| c.utilities as f64).sum();
    let scan_ns: f64 = costs.iter().map(|c| c.scan_ns).sum();
    let n_rounds = costs.len() as f64;
    let (n, d) = (bench.data.len() as f64, bench.data.dim() as f64);
    let batch = |k: &str| {
        traced
            .batch
            .get(&format!("serve.batch.{k}"))
            .copied()
            .unwrap_or(0.0)
    };
    let calls = batch("calls");
    let p50 = |v: &[f64]| median(v);
    let (plain_p50, traced_p50) = (round_p50(plain), round_p50(traced));
    let (_, violation, truncated) = quality(bench, replayed);
    let all_attempted = (attempted(plain) + attempted(traced)) as f64;
    let all_failed = (plain.run.failed + traced.run.failed) as f64;
    Ok(vec![
        (
            "protocol.encode_us",
            mean(&recs.iter().map(|r| r.encode_ns / 1e3).collect::<Vec<_>>()),
            "us",
        ),
        (
            "protocol.decode_us",
            mean(&recs.iter().map(|r| r.decode_ns / 1e3).collect::<Vec<_>>()),
            "us",
        ),
        (
            "protocol.frame_bytes",
            mean(&recs.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        ("server.transit_ms_p50", quantile(&transit, 0.5), "ms"),
        ("server.transit_ms_p99", quantile(&transit, 0.99), "ms"),
        ("server.request_ms_p50", quantile(&server, 0.5), "ms"),
        ("server.request_ms_p99", quantile(&server, 0.99), "ms"),
        ("server.msgs_per_batch", mean(&batch_sizes), "count"),
        (
            "registry.sessions_per_call",
            ratio(batch("sessions"), calls),
            "count",
        ),
        (
            "registry.utilities_per_call",
            ratio(batch("utilities"), calls),
            "count",
        ),
        (
            "registry.coalesced_share",
            ratio(batch("coalesced"), calls),
            "ratio",
        ),
        ("scan.ms_per_round", ratio(scan_ns / 1e6, n_rounds), "ms"),
        (
            "scan.ns_per_row_utility",
            ratio(scan_ns, utilities * n),
            "ns",
        ),
        (
            "scan.bytes_per_round",
            ratio(utilities, n_rounds) * n * d * 8.0,
            "bytes",
        ),
        (
            "session.finish_ms",
            mean(&costs.iter().map(|c| c.finish_ns / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "session.cut_ms",
            mean(&answers.iter().map(|c| c.cut_ns / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "session.open_ms",
            mean(&hellos.iter().map(|c| c.open_ns / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "session.utilities_per_round",
            ratio(utilities, n_rounds),
            "count",
        ),
        ("unattributed_ms_p50", p50(&col(&|s| s.rows[6])), "ms"),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced_p50 - plain_p50, plain_p50),
            "%",
        ),
        (
            "client.lag_ms_p99",
            quantile(&recs.iter().map(|r| r.lag_ms).collect::<Vec<_>>(), 0.99),
            "ms",
        ),
        ("eps_violation_share", violation, "ratio"),
        ("truncated_share", truncated, "ratio"),
        ("failed_share", ratio(all_failed, all_attempted), "ratio"),
        ("train_s", train_s, "s"),
    ])
}

/// The attribution check: per request the layer rows add up to the client
/// round by construction, so their means must add up to the mean round.
/// Prints the table (mean, share of the mean round, p50) to stderr.
fn attribution(bench: &Bench, splits: &[Split]) -> Result<(), String> {
    let rows: Vec<Vec<f64>> = (0..ROWS.len())
        .map(|i| splits.iter().map(|s| s.rows[i]).collect())
        .collect();
    let round: Vec<f64> = splits.iter().map(|s| s.round).collect();
    let total = mean(&round);
    let sum: f64 = rows.iter().map(|r| mean(r)).sum();
    eprintln!(
        "perfbench: {} attribution over {} requests (ms per request)",
        bench.w.name,
        splits.len()
    );
    eprintln!("  {:<14}{:>10}{:>9}{:>10}", "layer", "mean", "share", "p50");
    for (name, r) in ROWS.iter().zip(&rows) {
        eprintln!(
            "  {:<14}{:>10.4}{:>8.1}%{:>10.4}",
            name,
            mean(r),
            100.0 * ratio(mean(r), total),
            median(r)
        );
    }
    eprintln!(
        "  {:<14}{:>10.4}{:>8.1}%{:>10.4}",
        "client round",
        total,
        100.0,
        median(&round)
    );
    if (sum - total).abs() > 1e-6 * total.abs().max(1.0) {
        return Err(format!(
            "attribution check failed: layers sum to {sum} ms, the round is {total} ms"
        ));
    }
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result(checked: &Checked, passes: &[&Pass], metrics: Vec<Metric>) -> String {
    let attempted: usize = passes.iter().map(|p| attempted(p)).sum();
    let failed: usize = passes.iter().map(|p| p.run.failed).sum();
    for p in passes {
        for f in p.run.failures.iter().take(5) {
            eprintln!("perfbench: request failed: {f}");
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), unit.into()),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct".into(), checked.errors.is_empty().into()),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

/// Provenance of a run: source revision, CPU, `nproc`, seed and command.
pub fn provenance(isrl: &Path, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command: Vec<Json> = std::env::args().map(Json::from).collect();
    Json::obj(vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.into()),
        ("seconds".into(), seconds.into()),
        ("trace".into(), trace.into()),
        ("commit".into(), commit.into()),
        ("source_fnv".into(), source_fingerprint().into()),
        ("cpu".into(), cpu.into()),
        ("nproc".into(), nproc.into()),
        ("isrl".into(), isrl.display().to_string().into()),
        ("command".into(), Json::Arr(command)),
    ])
    .to_string()
}

/// FNV-1a over the Rust sources, the lock file and the benchmark, so runs
/// from a checkout that is not a git repository still name their source.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Appends the run (provenance and result) to the checkout's run log.
pub fn log_run(provenance: &str, result: &str) {
    let path = Path::new(".bench_build").join("perfbench-runs.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{{\"provenance\":{provenance},\"result\":{result}}}");
    }
}
