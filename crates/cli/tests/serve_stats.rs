//! Operational-observability battery for `serve --listen` (DESIGN.md §16):
//!
//! * the live `stats` frame answers mid-run with nonzero RED metrics
//!   (rolling p99, active connections) while loadgen traffic is flowing;
//! * the flight recorder, drilled with an `ISRL_SLOW_SPAN` injection into
//!   one `top1` scan, dumps exactly one schema-valid `slow_round` event
//!   whose profile ranks the injected span first;
//! * the live snapshot agrees with the post-hoc trace: request counts
//!   match exactly and the rolling p99 matches the p99 recomputed from
//!   the `serve_round` events, at the sketch's rank, within sketch error;
//! * `--metrics-interval` timeseries samples carry the serve gauges
//!   (`serve.active_sessions`, `serve.batch.window_occupancy`) and the
//!   final snapshot survives clean shutdown;
//! * a request's latency clock starts when its line is read, so a stall
//!   in the cut its answer applies shows in its `serve_round` event.

use std::io::Write;
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("isrl_serve_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

fn isrl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args(args)
        .output()
        .expect("failed to spawn isrl")
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
    }
}

/// Waits for `serve --port-file` to name the bound port; returns the
/// server's address.
fn wait_for_port(port_file: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(p) = std::fs::read_to_string(port_file)
            .ok()
            .and_then(|t| t.trim().parse::<u16>().ok())
        {
            return format!("127.0.0.1:{p}");
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote the port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends a `shutdown` frame and waits for the server to exit.
fn shut_down(addr: &str, server: &mut KillOnDrop) -> ExitStatus {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream.write_all(b"{\"kind\":\"shutdown\"}\n").unwrap();
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(s) = server.0.try_wait().expect("try_wait failed") {
            return s;
        }
        assert!(Instant::now() < deadline, "server did not exit");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pulls the numeric value after `"key":` out of a one-line JSON document
/// (first occurrence).
fn field_f64(line: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + needle.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad number for {key}: {e}"))
}

/// The exact `q`-quantile at the rank `QuantileSketch::quantile` (and so
/// the rolling sketch behind the `stats` frame) estimates: the 0-based
/// order statistic `floor(q·(n−1))`.
fn sketch_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

#[test]
fn live_stats_and_flight_recorder_drill() {
    let ckpt = tmp("stats.ckpt");
    let out = isrl(&[
        "train",
        "--builtin",
        "anti:40x2",
        "--algo",
        "ea",
        "--episodes",
        "1",
        "--seed",
        "3",
        "--eps",
        "0.2",
        "--out",
        &ckpt,
    ]);
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Server with telemetry, a fast snapshotter, and a slow-span drill:
    // the 12th `top1` scan process-wide busy-waits 2000ms, stalling exactly
    // one micro-batch well past `slow_factor × rolling p99`. The factor is
    // deliberately high so only the injection can breach it; the stall is
    // long enough that it still does when a loaded host (or a debug
    // build) pushes the early rolling p99 to tens of ms. The
    // cooldown is effectively infinite so at most one dump can ever fire —
    // "exactly one slow_round" is then a hard assertion, not a race.
    let port_file = tmp("stats.port");
    let trace = tmp("server.jsonl");
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_isrl"))
            .env("ISRL_SLOW_SPAN", "top1:2000:@12")
            .args([
                "serve",
                "--builtin",
                "anti:40x2",
                "--model",
                &ckpt,
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
                "--trace-out",
                &trace,
                "--metrics-interval",
                "0.2",
                "--slow-warmup",
                "2",
                "--slow-factor",
                "30",
                "--slow-cooldown",
                "1000000",
                "--flight-depth",
                "8",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn isrl serve"),
    );
    let addr = wait_for_port(&port_file);

    let loadgen = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_isrl"))
            .args([
                "loadgen",
                "--connect",
                &addr,
                "--users",
                "32",
                "--concurrency",
                "8",
                "--seed",
                "7",
                "--eps",
                "0.2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn isrl loadgen"),
    );

    // Mid-run: poll the live endpoint until the snapshot shows traffic.
    // The injected stall guarantees the run lasts well past one poll.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = isrl(&["stats", "--connect", &addr, "--json"]);
        assert!(
            out.status.success(),
            "isrl stats failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let snap = String::from_utf8_lossy(&out.stdout).trim().to_string();
        let served = field_f64(&snap, "count");
        let active = field_f64(&snap, "active");
        if served > 0.0 && active >= 1.0 {
            assert!(
                field_f64(&snap, "p99") > 0.0,
                "rolling p99 should be nonzero once rounds are recorded: {snap}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stats never showed live traffic: {snap}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut loadgen = loadgen;
    let status = loadgen.0.wait().expect("loadgen wait failed");
    assert!(status.success(), "loadgen exited {:?}", status.code());

    // Quiescent snapshot: every request is recorded, nothing in flight.
    let out = isrl(&["stats", "--connect", &addr, "--json"]);
    assert!(out.status.success());
    let snap = String::from_utf8_lossy(&out.stdout).trim().to_string();
    let live_total = field_f64(&snap, "total");
    let live_count = field_f64(&snap, "count");
    let live_p99 = field_f64(&snap, "p99");
    let live_slow = field_f64(&snap, "slow_rounds");
    assert_eq!(live_total, live_count, "all requests in the window: {snap}");
    assert_eq!(live_slow, 1.0, "exactly one slow_round dump: {snap}");

    // Clean shutdown; the final metrics snapshot must still be flushed.
    let status = shut_down(&addr, &mut server);
    let mut stdout = String::new();
    std::io::Read::read_to_string(server.0.stdout.as_mut().unwrap(), &mut stdout).unwrap();
    assert!(
        status.success(),
        "server exited {:?}:\n{stdout}",
        status.code()
    );
    let requests_line = stdout
        .lines()
        .find(|l| l.starts_with("requests:"))
        .unwrap_or_else(|| panic!("no requests line:\n{stdout}"));
    let served: f64 = requests_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(served, live_total, "lifetime requests: {requests_line}");
    assert!(
        requests_line.contains("1 slow_round dump(s)"),
        "exactly one dump: {requests_line}"
    );

    // The trace validates, and the post-hoc view agrees with the live one:
    // the same number of serve_round events, and the p99 of their exact
    // latencies (at the sketch's rank) within the rolling sketch's error.
    let v = isrl(&["trace-validate", &trace]);
    assert!(
        v.status.success(),
        "trace-validate failed: {}\n{}",
        String::from_utf8_lossy(&v.stdout),
        String::from_utf8_lossy(&v.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut round_ms: Vec<f64> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"serve_round\""))
        .map(|l| field_f64(l, "ms"))
        .collect();
    assert_eq!(
        round_ms.len() as f64,
        live_total,
        "one serve_round event per request"
    );
    round_ms.sort_by(f64::total_cmp);
    let exact_p99 = sketch_rank(&round_ms, 0.99);
    assert!(
        (live_p99 - exact_p99).abs() <= 0.05 * exact_p99 + 0.5,
        "live p99 {live_p99}ms vs post-hoc {exact_p99}ms"
    );

    // Exactly one slow_round event, blaming the injected span.
    let slow: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"slow_round\""))
        .collect();
    assert_eq!(slow.len(), 1, "exactly one slow_round dump: {slow:?}");
    assert!(
        field_f64(slow[0], "ms") >= 400.0,
        "dump should carry the stalled round: {}",
        slow[0]
    );

    // The serve gauges ride the snapshotter's timeseries samples.
    let timeseries: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"timeseries\""))
        .collect();
    assert!(!timeseries.is_empty(), "no timeseries events in trace");
    assert!(
        timeseries
            .iter()
            .any(|l| l.contains("serve.active_sessions")),
        "serve.active_sessions gauge missing from timeseries"
    );
    assert!(
        timeseries
            .iter()
            .any(|l| l.contains("serve.batch.window_occupancy")),
        "serve.batch.window_occupancy gauge missing from timeseries"
    );

    // `trace-report` turns the same trace into the serve tables; the slow
    // table ranks the injected span first.
    let dir = tmp("report");
    let r = isrl(&[
        "trace-report",
        &trace,
        "--only",
        "serve,slow",
        "--json",
        &dir,
    ]);
    assert!(
        r.status.success(),
        "trace-report failed: {}",
        String::from_utf8_lossy(&r.stderr)
    );
    let slow_json =
        std::fs::read_to_string(std::path::Path::new(&dir).join("trace_slow.json")).unwrap();
    assert!(
        slow_json.contains("serve_batch/top1"),
        "slow table should blame serve_batch/top1: {slow_json}"
    );
    let serve_json =
        std::fs::read_to_string(std::path::Path::new(&dir).join("trace_serve.json")).unwrap();
    assert!(
        serve_json.contains("p99_ms") || serve_json.contains("p99"),
        "serve table saved: {serve_json}"
    );
}

#[test]
fn request_latency_counts_the_answers_own_cut() {
    let ckpt = tmp("clock.ckpt");
    let out = isrl(&[
        "train",
        "--builtin",
        "anti:200x3",
        "--algo",
        "ea",
        "--episodes",
        "1",
        "--seed",
        "3",
        "--eps",
        "0.05",
        "--out",
        &ckpt,
    ]);
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The third `geom_update` process-wide — the cut applied by the third
    // answer, on the core thread before the batch runs — busy-waits 300 ms.
    let port_file = tmp("clock.port");
    let trace = tmp("clock.jsonl");
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_isrl"))
            .env("ISRL_SLOW_SPAN", "geom_update:300:@3")
            .args([
                "serve",
                "--builtin",
                "anti:200x3",
                "--model",
                &ckpt,
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
                "--trace-out",
                &trace,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn isrl serve"),
    );
    let addr = wait_for_port(&port_file);

    let out = isrl(&[
        "loadgen",
        "--connect",
        &addr,
        "--users",
        "1",
        "--concurrency",
        "1",
        "--seed",
        "7",
        "--eps",
        "0.05",
    ]);
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let status = shut_down(&addr, &mut server);
    assert!(status.success(), "server exited {:?}", status.code());

    // One user's requests are served in order: hello, then one answer per
    // round. The fourth request carries the third answer.
    let text = std::fs::read_to_string(&trace).unwrap();
    let round_ms: Vec<f64> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"serve_round\""))
        .map(|l| field_f64(l, "ms"))
        .collect();
    assert!(
        round_ms.len() >= 4,
        "the session needs at least three answers: {round_ms:?}"
    );
    assert!(
        round_ms[3] >= 300.0,
        "the stalled answer's request must count its cut: {round_ms:?}"
    );
}
