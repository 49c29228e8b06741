//! End-to-end serving benchmark for the `isrl` server.
//!
//! One invocation runs one workload: it trains the served checkpoint with
//! `isrl train`, launches `isrl serve --listen`, drives it from this
//! process over loopback, replays every user in-process to check the
//! answers, and prints one JSON result line on stdout:
//!
//! ```text
//! perfbench --isrl <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs an
//! untraced and a traced pass and reports the per-layer breakdown. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod client;
mod procs;
mod replay;
mod report;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use client::{ClientConfig, ClientRun};
use isrl_core::serving::ServePolicy;
use isrl_data::Dataset;
use isrl_geometry::GeometryBackend;
use procs::{Server, WorkDir};
use replay::Replayed;
use workload::Workload;

/// Server launches timed per run, half before the load and half after;
/// `setup_s` is their median.
const SETUP_LAUNCHES: usize = 16;
/// An open-loop run whose client ran later than this at p99 did not offer
/// the load it meant to, and is invalid.
const LAG_LIMIT_MS: f64 = 10.0;
/// Round samples a measured pass needs: ten beyond the p99. A closed loop
/// short of them at `--seconds` measures on, up to twice as long.
const MIN_ROUND_SAMPLES: usize = 1000;

struct Args {
    isrl: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (want one of {})",
            names.join(", ")
        )
    })?;
    let int = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a non-negative integer"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = int("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        isrl: PathBuf::from(get("isrl")?),
        workload,
        seed: int("seed")?,
        seconds,
        trace,
    })
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything measured about one pass of load against one server.
pub struct Pass {
    pub run: ClientRun,
    /// How long sessions were started.
    pub duration: Duration,
    /// `serve.batch.*` shutdown counters.
    pub batch: BTreeMap<String, f64>,
    pub peak_rss_mb: f64,
    /// The traced server's `serve_round` events.
    pub server_rounds: Option<Vec<procs::ServeRound>>,
}

/// The shared state of one invocation.
pub struct Bench {
    pub w: &'static Workload,
    pub seed: u64,
    pub isrl: PathBuf,
    pub dir: WorkDir,
    pub conns: usize,
    pub nproc: usize,
    pub data: Arc<Dataset>,
    pub policy: Arc<ServePolicy>,
}

impl Bench {
    fn client(&self, addr: String, duration: Duration, min_replies: usize) -> ClientConfig {
        ClientConfig {
            addr,
            conns: self.conns,
            d: self.w.d,
            algo: self.w.algo,
            eps: self.w.eps,
            seed: self.seed,
            load: self.w.load,
            duration,
            min_replies,
        }
    }

    /// One timed server launch, shut down at once; returns `setup_s`.
    fn set_up(&self) -> Result<f64, String> {
        let server = self.launch(false)?;
        let setup = server.setup.as_secs_f64();
        server.shutdown()?;
        Ok(setup)
    }

    fn launch(&self, traced: bool) -> Result<Server, String> {
        let trace = traced.then(|| self.dir.file("serve-trace.jsonl"));
        Server::launch(
            &self.isrl,
            self.w,
            self.seed,
            &self.dir.file("model.ckpt"),
            &self.dir.file("port"),
            trace.as_deref(),
        )
    }

    /// Drives `server` for `duration` (longer for a closed loop short of
    /// `min_replies`), then shuts it down.
    fn pass(
        &self,
        server: Server,
        duration: Duration,
        min_replies: usize,
        traced: bool,
    ) -> Result<Pass, String> {
        let run = client::run(&self.client(server.addr(), duration, min_replies))?;
        let peak_rss_mb = server.peak_rss_mb()?;
        let batch = server.shutdown()?;
        let server_rounds = if traced {
            Some(procs::serve_rounds(&self.dir.file("serve-trace.jsonl"))?)
        } else {
            None
        };
        self.check_budget(&run)?;
        Ok(Pass {
            duration: Duration::from_secs_f64(run.measured_s),
            run,
            batch,
            peak_rss_mb,
            server_rounds,
        })
    }

    /// The client must stay within one process, `nproc` threads and
    /// `nproc` connections, and an open loop must keep to its schedule.
    fn check_budget(&self, run: &ClientRun) -> Result<(), String> {
        if self.conns > self.nproc || run.max_threads > self.nproc {
            return Err(format!(
                "client budget exceeded: {} connections, {} threads, nproc {}",
                self.conns, run.max_threads, self.nproc
            ));
        }
        if !self.w.load.is_open() {
            return Ok(());
        }
        let lags: Vec<f64> = run.records.iter().map(|r| r.lag_ms).collect();
        let lag = stats::quantile(&lags, 0.99);
        if lag > LAG_LIMIT_MS {
            return Err(format!(
                "invalid run: the client fell behind (lag p99 {lag:.3} ms > {LAG_LIMIT_MS} ms)"
            ));
        }
        Ok(())
    }
}

fn load_policy(w: &Workload, ckpt: &std::path::Path) -> Result<ServePolicy, String> {
    let bytes = std::fs::read(ckpt).map_err(|e| format!("read checkpoint: {e}"))?;
    let mut policy =
        ServePolicy::from_checkpoint(&bytes).map_err(|e| format!("load checkpoint: {e:?}"))?;
    if let Some(g) = w.geometry {
        let backend = GeometryBackend::parse(g).ok_or_else(|| format!("bad geometry {g:?}"))?;
        policy.set_geometry(backend);
    }
    Ok(policy)
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = report::provenance(&args.isrl, w.name, args.seed, args.seconds, args.trace);
    eprintln!("perfbench: {provenance}");

    let dir = WorkDir::create(w.name, args.seed)?;
    let train_s = procs::train(&args.isrl, w, &dir.file("model.ckpt"))?.as_secs_f64();
    let data = Arc::new(w.dataset(args.seed));
    data.soa();
    let policy = Arc::new(load_policy(w, &dir.file("model.ckpt"))?);
    let bench = Bench {
        w,
        seed: args.seed,
        isrl: args.isrl.clone(),
        dir,
        conns: nproc.min(2),
        nproc,
        data,
        policy,
    };
    let seconds = Duration::from_secs(args.seconds);

    let result = if args.trace {
        // Untraced then traced, half the time each, on fresh servers: the
        // traced pass gives the breakdown, the pair gives the overhead.
        let half = seconds / 2;
        let plain = bench.pass(bench.launch(false)?, half, 0, false)?;
        let traced = bench.pass(bench.launch(true)?, half, 0, true)?;
        let replayed = replay_all(&bench, &[&plain, &traced])?;
        let checked = report::check(&bench, &[&plain, &traced], &replayed);
        let metrics = report::per_layer(&bench, &plain, &traced, &replayed, train_s)?;
        report::result(&checked, &[&plain, &traced], metrics)
    } else {
        let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
        for _ in 1..SETUP_LAUNCHES / 2 {
            setups.push(bench.set_up()?);
        }
        let server = bench.launch(false)?;
        setups.push(server.setup.as_secs_f64());
        let pass = bench.pass(server, seconds, MIN_ROUND_SAMPLES, false)?;
        if pass.run.records.len() < MIN_ROUND_SAMPLES {
            return Err(format!(
                "invalid run: {} round samples, need {MIN_ROUND_SAMPLES} for a p99",
                pass.run.records.len()
            ));
        }
        let replayed = replay_all(&bench, &[&pass])?;
        let checked = report::check(&bench, &[&pass], &replayed);
        // The other half of the set-ups come after the load, so their
        // median samples the host's drifting speed at two points.
        while setups.len() < SETUP_LAUNCHES {
            setups.push(bench.set_up()?);
        }
        let metrics = report::end_to_end(&bench, &pass, &replayed, stats::median(&setups));
        report::result(&checked, &[&pass], metrics)
    };
    report::log_run(&provenance, &result);
    Ok(result)
}

/// Replays the fixed quality set in full, and every other user a pass
/// started as far as the wire got (in full if it finished there).
fn replay_all(bench: &Bench, passes: &[&Pass]) -> Result<Vec<Replayed>, String> {
    let mut limits: BTreeMap<usize, Option<usize>> =
        (0..bench.w.quality_users).map(|u| (u, None)).collect();
    for s in passes.iter().flat_map(|p| &p.run.sessions) {
        let limit = match &s.done {
            Some(_) => None,
            None => Some(s.questions.len()),
        };
        let merged = match (limits.get(&s.user), limit) {
            (Some(None), _) | (_, None) => None,
            (Some(&Some(a)), Some(b)) => Some(a.max(b)),
            (None, Some(b)) => Some(b),
        };
        limits.insert(s.user, merged);
    }
    let users: Vec<(usize, Option<usize>)> = limits.into_iter().collect();
    replay::replay(
        &bench.policy,
        &bench.data,
        bench.w.eps,
        bench.seed,
        &users,
        bench.nproc.min(2),
    )
}
