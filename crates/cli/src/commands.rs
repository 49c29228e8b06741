//! The five CLI subcommands.

use crate::args::Args;
use crate::data_io::{resolve_dataset, DataSource};
use isrl_core::checkpoint;
use isrl_core::prelude::*;
use isrl_core::regret::regret_ratio_of_index;
use isrl_data::Dataset;
use isrl_geometry::GeometryBackend;
use std::io::Write as _;

/// Boxed error for command results.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Parses `--geometry exact|sampled|auto`. `None` when the flag is absent
/// (callers keep the agent's default, auto-by-dimension).
fn geometry_arg(args: &Args) -> Result<Option<GeometryBackend>, Box<dyn std::error::Error>> {
    match args.get("geometry") {
        None => Ok(None),
        Some(v) => GeometryBackend::parse(v)
            .map(Some)
            .ok_or_else(|| format!("--geometry must be exact|sampled|auto, got {v:?}").into()),
    }
}

/// Echoes every watchdog anomaly from a training run to stderr so broken
/// runs are loud even without a trace file.
fn warn_anomalies(anomalies: &[Anomaly]) {
    for a in anomalies {
        eprintln!(
            "warning: training anomaly {} at episode {}: {}",
            a.kind.as_str(),
            a.episode,
            a.detail
        );
    }
}

fn describe(data: &Dataset, source: &DataSource) {
    let attrs = if data.attributes().is_empty() {
        String::from("unnamed")
    } else {
        data.attributes().join(", ")
    };
    println!(
        "dataset: {:?} — {} tuples × {} attributes ({attrs})",
        source,
        data.len(),
        data.dim()
    );
}

/// `isrl generate` — write a dataset as CSV.
pub fn generate(args: &Args) -> CmdResult {
    args.ensure_known(&["builtin", "data", "smaller", "seed", "no-skyline", "out"])?;
    let (data, source) = resolve_dataset(args)?;
    describe(&data, &source);
    let out = args.required("out")?;
    let headers: Vec<String> = if data.attributes().is_empty() {
        (0..data.dim()).map(|i| format!("attr{i}")).collect()
    } else {
        data.attributes().to_vec()
    };
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<f64>> = data.iter().map(<[f64]>::to_vec).collect();
    std::fs::write(out, isrl_data::csv::write_csv(&header_refs, &rows))?;
    println!("wrote {} rows to {out}", data.len());
    Ok(())
}

/// `isrl train` — train an EA/AA agent and save a checkpoint.
pub fn train(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "builtin",
        "data",
        "smaller",
        "seed",
        "no-skyline",
        "algo",
        "eps",
        "episodes",
        "lr",
        "geometry",
        "out",
        "trace-out",
        "metrics",
        "metrics-interval",
    ])?;
    let (data, source) = resolve_dataset(args)?;
    describe(&data, &source);
    let tracing = crate::trace::begin(args)?;
    let algo = args.get("algo").unwrap_or("ea");
    let eps = args.get_or("eps", 0.1f64, "number")?;
    let episodes = args.get_or("episodes", 200usize, "integer")?;
    let seed = args.get_or("seed", 7u64, "integer")?;
    // Deliberately accepts any f64 (including "nan"): a poisoned learning
    // rate is the standard training-health drill — the watchdog must catch
    // it, not the argument parser.
    let lr = match args.get("lr").filter(|v| !v.is_empty()) {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--lr {v:?} is not a valid number"))?,
        ),
    };
    let geometry = geometry_arg(args)?;
    let out = args.required("out")?;
    let users = sample_users(data.dim(), episodes, seed.wrapping_add(1));

    println!("training {algo} for {episodes} episodes at eps {eps}…");
    let start = std::time::Instant::now();
    let blob = match algo {
        "ea" => {
            let mut cfg = EaConfig::paper_default().with_seed(seed);
            if let Some(backend) = geometry {
                cfg.geometry = backend;
            }
            if let Some(lr) = lr {
                cfg.lr = lr;
            }
            let mut agent = EaAgent::new(data.dim(), cfg);
            let report = agent.train(&data, &users, eps);
            println!(
                "final-quarter mean rounds: {:.2}",
                report.mean_rounds_final_quarter
            );
            warn_anomalies(&report.anomalies);
            checkpoint::save_ea(&agent)
        }
        "aa" => {
            if geometry.is_some() {
                return Err("--geometry applies to --algo ea only (AA never enumerates)".into());
            }
            let mut cfg = AaConfig::paper_default().with_seed(seed);
            if let Some(lr) = lr {
                cfg.lr = lr;
            }
            let mut agent = AaAgent::new(data.dim(), cfg);
            let report = agent.train(&data, &users, eps);
            println!(
                "final-quarter mean rounds: {:.2}",
                report.mean_rounds_final_quarter
            );
            warn_anomalies(&report.anomalies);
            checkpoint::save_aa(&agent)
        }
        other => return Err(format!("--algo must be ea or aa, got {other:?}").into()),
    };
    std::fs::write(out, &blob)?;
    println!(
        "trained in {:.1}s; checkpoint ({} bytes) saved to {out}",
        start.elapsed().as_secs_f64(),
        blob.len()
    );
    crate::trace::finish(tracing)
}

fn load_agent(
    path: &str,
    geometry: Option<GeometryBackend>,
) -> Result<Box<dyn InteractiveAlgorithm>, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    if let Ok(mut agent) = checkpoint::load_ea(&bytes) {
        // The backend is a serving-time choice, not persisted state: a
        // checkpoint restores to the auto-by-dimension default unless the
        // flag overrides it here.
        if let Some(backend) = geometry {
            agent.set_geometry(backend);
        }
        return Ok(Box::new(agent));
    }
    if geometry.is_some() {
        return Err("--geometry applies to EA checkpoints only (AA never enumerates)".into());
    }
    Ok(Box::new(checkpoint::load_aa(&bytes)?))
}

/// `isrl eval` — run a trained (or baseline) algorithm over simulated users.
pub fn eval(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "builtin",
        "data",
        "smaller",
        "seed",
        "no-skyline",
        "model",
        "baseline",
        "eps",
        "geometry",
        "users",
        "noise",
        "trace-out",
        "metrics",
        "metrics-interval",
    ])?;
    let (data, source) = resolve_dataset(args)?;
    describe(&data, &source);
    let tracing = crate::trace::begin(args)?;
    let eps = args.get_or("eps", 0.1f64, "number")?;
    let n_users = args.get_or("users", 30usize, "integer")?;
    let seed = args.get_or("seed", 7u64, "integer")?;
    let noise = args.get_or("noise", 0.0f64, "number")?;
    let geometry = geometry_arg(args)?;

    let mut algo: Box<dyn InteractiveAlgorithm> = match (args.get("model"), args.get("baseline")) {
        (Some(path), _) if !path.is_empty() => load_agent(path, geometry)?,
        (_, Some(name)) if !name.is_empty() => {
            if geometry.is_some() {
                return Err("--geometry applies to EA checkpoints, not baselines".into());
            }
            match name {
                "uh-random" => Box::new(UhBaseline::random(seed)),
                "uh-simplex" => Box::new(UhBaseline::simplex(seed)),
                "single-pass" => Box::new(SinglePass::seeded(seed)),
                "utility-approx" => Box::new(UtilityApprox::default()),
                other => {
                    return Err(format!(
                "--baseline must be uh-random|uh-simplex|single-pass|utility-approx, got {other:?}"
            )
                    .into())
                }
            }
        }
        _ => return Err("provide --model <ckpt> or --baseline <name>".into()),
    };

    let users = sample_users(data.dim(), n_users, seed.wrapping_add(2));
    let mut rounds = 0.0;
    let mut secs = 0.0;
    let mut regret_sum = 0.0;
    let mut regret_max: f64 = 0.0;
    let mut truncated = 0usize;
    for (i, u) in users.iter().enumerate() {
        let out = if noise > 0.0 {
            let mut user = NoisyUser::new(u.clone(), noise, seed + i as u64);
            algo.run(&data, &mut user, eps, TraceMode::Off)
        } else {
            let mut user = SimulatedUser::new(u.clone());
            algo.run(&data, &mut user, eps, TraceMode::Off)
        };
        let regret = regret_ratio_of_index(&data, out.point_index, u);
        rounds += out.rounds as f64;
        secs += out.elapsed.as_secs_f64();
        regret_sum += regret;
        regret_max = regret_max.max(regret);
        truncated += usize::from(out.truncated);
    }
    let n = users.len() as f64;
    println!("algorithm:    {}", algo.name());
    println!("users:        {n_users} (noise {noise})");
    println!("mean rounds:  {:.2}", rounds / n);
    println!("mean time:    {:.2}ms", secs / n * 1e3);
    println!(
        "mean regret:  {:.4} (max {:.4}, threshold {eps})",
        regret_sum / n,
        regret_max
    );
    println!("truncated:    {truncated}/{n_users}");
    crate::trace::finish(tracing)
}

/// Loads a checkpoint as a shared serving policy, applying the EA
/// geometry override with `load_agent`'s semantics.
fn load_policy(
    path: &str,
    geometry: Option<GeometryBackend>,
) -> Result<ServePolicy, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    let mut policy = ServePolicy::from_checkpoint(&bytes)?;
    if let Some(backend) = geometry {
        if !policy.set_geometry(backend) {
            return Err("--geometry applies to EA checkpoints only (AA never enumerates)".into());
        }
    }
    Ok(policy)
}

/// `isrl serve --listen` — the multi-session TCP server (DESIGN.md §14),
/// with the operational-observability knobs of DESIGN.md §16.
fn serve_listen(args: &Args, data: Dataset, listen: &str) -> CmdResult {
    let tracing = crate::trace::begin(args)?;
    let policy = load_policy(args.required("model")?, geometry_arg(args)?)?;
    let defaults = ServerConfig::default();
    let rolling_window = args.get_or(
        "rolling-window",
        defaults.rolling_window.as_secs_f64(),
        "number of seconds",
    )?;
    if rolling_window.is_nan() || rolling_window <= 0.0 {
        return Err(format!("--rolling-window {rolling_window} must be > 0").into());
    }
    let slow_factor = args.get_or("slow-factor", defaults.slow_factor, "number")?;
    if slow_factor.is_nan() || slow_factor <= 1.0 {
        return Err(format!("--slow-factor {slow_factor} must be > 1").into());
    }
    let cfg = ServerConfig {
        addr: listen.to_string(),
        rolling_window: std::time::Duration::from_secs_f64(rolling_window),
        flight_depth: args.get_or("flight-depth", defaults.flight_depth, "integer")?,
        slow_factor,
        slow_warmup: args.get_or("slow-warmup", defaults.slow_warmup, "integer")?,
        slow_cooldown: args.get_or("slow-cooldown", defaults.slow_cooldown, "integer")?,
        ..defaults
    };
    let handle = spawn_server(
        std::sync::Arc::new(data),
        vec![std::sync::Arc::new(policy)],
        cfg,
    )?;
    println!("serving on {}", handle.addr());
    if let Some(path) = args.get("port-file").filter(|p| !p.is_empty()) {
        // Written after the listener is live, so anything polling this
        // file can connect as soon as it appears.
        std::fs::write(path, format!("{}\n", handle.addr().port()))?;
    }
    std::io::stdout().flush().ok();
    let stats = handle.join();
    println!(
        "sessions: {} opened, {} completed, {} error frame(s)",
        stats.sessions_opened, stats.sessions_completed, stats.errors
    );
    println!(
        "requests: {} served, {} slow_round dump(s)",
        stats.requests, stats.slow_rounds
    );
    println!("serve.batch.calls {}", stats.batch.calls);
    println!("serve.batch.coalesced {}", stats.batch.coalesced);
    println!("serve.batch.sessions {}", stats.batch.sessions_scanned);
    println!("serve.batch.utilities {}", stats.batch.utilities);
    // The final snapshot and sink drain happen here, after the reactor
    // has fully stopped — a clean shutdown flushes every buffered serve
    // event instead of losing the tail of the trace.
    crate::trace::finish(tracing)
}

/// `isrl serve` — interview a human on stdin with a trained agent, or run
/// the multi-session TCP server with `--listen`.
pub fn serve(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "builtin",
        "data",
        "smaller",
        "seed",
        "no-skyline",
        "model",
        "eps",
        "geometry",
        "listen",
        "port-file",
        "rolling-window",
        "flight-depth",
        "slow-factor",
        "slow-warmup",
        "slow-cooldown",
        "trace-out",
        "metrics",
        "metrics-interval",
    ])?;
    let (data, source) = resolve_dataset(args)?;
    describe(&data, &source);
    if let Some(listen) = args.get("listen").filter(|a| !a.is_empty()) {
        let listen = listen.to_string();
        return serve_listen(args, data, &listen);
    }
    for flag in [
        "port-file",
        "rolling-window",
        "flight-depth",
        "slow-factor",
        "slow-warmup",
        "slow-cooldown",
    ] {
        if args.has(flag) {
            return Err(format!("--{flag} requires --listen").into());
        }
    }
    // Stdin interviews honor the telemetry flags too (they used to be
    // silently ignored on this path).
    let tracing = crate::trace::begin(args)?;
    let eps = args.get_or("eps", 0.1f64, "number")?;
    let mut algo = load_agent(args.required("model")?, geometry_arg(args)?)?;
    println!("answer each question with 1 or 2.\n");

    struct Stdin<'a> {
        attrs: &'a [String],
        asked: usize,
    }
    impl User for Stdin<'_> {
        fn prefers(&mut self, p_i: &[f64], p_j: &[f64]) -> bool {
            self.asked += 1;
            let show = |p: &[f64]| {
                p.iter()
                    .enumerate()
                    .map(|(k, v)| {
                        let name = self.attrs.get(k).map(String::as_str).unwrap_or("attr");
                        format!("{name} {:.0}%", v * 100.0)
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!("Q{}:", self.asked);
            println!("  option 1: {}", show(p_i));
            println!("  option 2: {}", show(p_j));
            loop {
                print!("> ");
                std::io::stdout().flush().ok();
                let mut line = String::new();
                if std::io::stdin().read_line(&mut line).is_err() || line.is_empty() {
                    return true; // EOF: pick option 1 and let the run finish
                }
                // The wire protocol's answer parser, so stdin and TCP
                // agree on what counts as a valid choice.
                match isrl_core::serving::parse_choice(&line) {
                    Some(choice) => return choice,
                    None => println!("please answer 1 or 2"),
                }
            }
        }
        fn questions_asked(&self) -> usize {
            self.asked
        }
    }

    let attrs = data.attributes().to_vec();
    let mut user = Stdin {
        attrs: &attrs,
        asked: 0,
    };
    let out = algo.run(&data, &mut user, eps, TraceMode::Off);
    let p = data.point(out.point_index);
    println!("\nafter {} questions, your tuple:", out.rounds);
    for (k, v) in p.iter().enumerate() {
        let name = attrs.get(k).map(String::as_str).unwrap_or("attr");
        println!("  {name}: {:.0}%", v * 100.0);
    }
    crate::trace::finish(tracing)
}

/// `isrl stats` — query a live `serve --listen` server's read-only
/// RED-metrics snapshot over the wire (DESIGN.md §16).
pub fn stats(args: &Args) -> CmdResult {
    use isrl_core::serving::protocol::{line_bytes, ClientFrame, ServerFrame};
    args.ensure_known(&["connect", "detail", "json"])?;
    let addr = args.required("connect")?;
    let detail = args.has("detail");
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream.set_nodelay(true)?;
    stream.write_all(&line_bytes(&ClientFrame::Stats { detail }.to_line()))?;
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line)?;
    if line.trim().is_empty() {
        return Err("server closed the connection without answering".into());
    }
    let frame = ServerFrame::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
    let ServerFrame::Stats { body } = frame else {
        return Err(format!("unexpected reply frame: {}", line.trim_end()).into());
    };
    if args.has("json") {
        println!("{body}");
        return Ok(());
    }
    print!("{}", render_stats(&body));
    Ok(())
}

/// Human-readable rendering of a `stats` frame body. Unknown or missing
/// fields degrade to 0 rather than erroring — the snapshot is advisory.
fn render_stats(body: &isrl_obs::json::Json) -> String {
    use isrl_obs::json::Json;
    let num = |path: &[&str]| -> f64 {
        let mut cur = body;
        for key in path {
            match cur.get(key) {
                Some(v) => cur = v,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(
        &mut out,
        format!(
            "server stats (asked over conn {}, uptime {:.1}s)",
            num(&["conn"]),
            num(&["uptime_ms"]) / 1e3
        ),
    );
    push(
        &mut out,
        format!(
            "connections:   {} active ({} busy, {} idle), {} opened",
            num(&["connections", "active"]),
            num(&["connections", "busy"]),
            num(&["connections", "idle"]),
            num(&["connections", "opened"])
        ),
    );
    push(
        &mut out,
        format!(
            "sessions:      {} active, {} opened, {} completed",
            num(&["sessions", "active"]),
            num(&["sessions", "opened"]),
            num(&["sessions", "completed"])
        ),
    );
    push(
        &mut out,
        format!(
            "requests:      {} total, {:.1}/s over the last {:.0}s",
            num(&["requests", "total"]),
            num(&["requests", "rate_per_s"]),
            num(&["requests", "window_s"])
        ),
    );
    push(
        &mut out,
        format!(
            "round latency: p50 {:.3}ms  p90 {:.3}ms  p99 {:.3}ms  max {:.3}ms  (n={})",
            num(&["round_ms", "p50"]),
            num(&["round_ms", "p90"]),
            num(&["round_ms", "p99"]),
            num(&["round_ms", "max"]),
            num(&["round_ms", "count"])
        ),
    );
    let errors = body
        .get("errors_by_kind")
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    if errors.is_empty() {
        push(&mut out, "errors:        none".to_string());
    } else {
        let listed: Vec<String> = errors
            .iter()
            .map(|(k, v)| format!("{k} {}", v.as_f64().unwrap_or(0.0)))
            .collect();
        push(&mut out, format!("errors:        {}", listed.join(", ")));
    }
    push(
        &mut out,
        format!(
            "batch:         {} calls, {} coalesced, {} session-scans, {} utilities; \
             last window drained {} msg(s)",
            num(&["batch", "calls"]),
            num(&["batch", "coalesced"]),
            num(&["batch", "sessions_scanned"]),
            num(&["batch", "utilities"]),
            num(&["batch", "window_occupancy"])
        ),
    );
    push(
        &mut out,
        format!(
            "flight:        ring depth {}, {} buffered, {} recorded, {} slow_round dump(s)",
            num(&["flight", "depth"]),
            num(&["flight", "buffered"]),
            num(&["flight", "recorded"]),
            num(&["flight", "slow_rounds"])
        ),
    );
    if let Some(per_conn) = body.get("per_conn").and_then(Json::as_arr) {
        for c in per_conn {
            let id = c.get("conn").and_then(Json::as_f64).unwrap_or(0.0);
            let sessions = c.get("sessions").and_then(Json::as_f64).unwrap_or(0.0);
            push(&mut out, format!("  conn {id}: {sessions} session(s)"));
        }
    }
    out
}

/// `isrl loadgen` — replay N simulated users against a live server.
pub fn loadgen(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "connect",
        "users",
        "concurrency",
        "seed",
        "eps",
        "algo",
        "noise",
        "shutdown",
        "out",
        "trace-out",
        "metrics",
        "metrics-interval",
    ])?;
    let tracing = crate::trace::begin(args)?;
    let algo = args.get("algo").unwrap_or("ea");
    let algo = isrl_core::serving::AlgoKind::parse(algo)
        .ok_or_else(|| format!("--algo must be ea or aa, got {algo:?}"))?;
    let cfg = LoadgenConfig {
        addr: args.required("connect")?.to_string(),
        users: args.get_or("users", 32usize, "integer")?,
        concurrency: args.get_or("concurrency", 8usize, "integer")?,
        seed: args.get_or("seed", 7u64, "integer")?,
        eps: args.get_or("eps", 0.1f64, "number")?,
        algo,
        noise: args.get_or("noise", 0.0f64, "number")?,
        send_shutdown: args.has("shutdown"),
    };
    let report = run_loadgen(&cfg).map_err(|e| format!("loadgen: {e}"))?;
    println!("users:          {} (algo {})", report.users, algo.as_str());
    println!(
        "rounds:         {} total, {} session(s) truncated",
        report.rounds_total, report.truncated
    );
    println!("elapsed:        {:.2}s", report.elapsed_secs);
    println!("sessions/sec:   {:.1}", report.sessions_per_sec);
    println!("round p50:      {:.3}ms", report.round_p50_ms);
    println!("round p99:      {:.3}ms", report.round_p99_ms);
    let per_user: Vec<String> = report
        .rounds_per_user
        .iter()
        .map(ToString::to_string)
        .collect();
    println!("per-user rounds: {}", per_user.join(","));
    if let Some(out) = args.get("out").filter(|p| !p.is_empty()) {
        std::fs::write(out, format!("{}\n", report.to_json()))?;
        println!("report saved to {out}");
    }
    crate::trace::finish(tracing)
}

/// `isrl inspect` — summarize a checkpoint.
pub fn inspect(args: &Args) -> CmdResult {
    args.ensure_known(&["model"])?;
    let path = args.required("model")?;
    let bytes = std::fs::read(path)?;
    if let Ok(agent) = checkpoint::load_ea(&bytes) {
        let cfg = agent.config();
        println!("kind:              EA (exact)");
        println!("dimensionality:    {}", agent.dim());
        println!("episodes trained:  {}", agent.episodes_trained());
        println!("network params:    {}", agent.dqn().network().n_params());
        println!(
            "state:             m_e={} d_eps={} variant={:?}",
            cfg.m_e, cfg.d_eps, cfg.state_variant
        );
        println!(
            "actions:           m_h={} n_samples={}",
            cfg.m_h, cfg.n_samples
        );
        println!(
            "rl:                gamma={} lr={} c={}",
            cfg.gamma, cfg.lr, cfg.reward_c
        );
        return Ok(());
    }
    let agent = checkpoint::load_aa(&bytes)?;
    let cfg = agent.config();
    println!("kind:              AA (approximate)");
    println!("dimensionality:    {}", agent.dim());
    println!("episodes trained:  {}", agent.episodes_trained());
    println!("network params:    {}", agent.dqn().network().n_params());
    println!(
        "actions:           m_h={} top_k={} rank_by_distance={}",
        cfg.m_h, cfg.pair_gen.top_k, cfg.pair_gen.rank_by_distance
    );
    println!(
        "rl:                gamma={} lr={} c={}",
        cfg.gamma, cfg.lr, cfg.reward_c
    );
    Ok(())
}
