//! Protocol-level load generation: N simulated users over real TCP.
//!
//! Each user runs the full `hello → question/answer → done` conversation
//! against a live server, answering from a [`SimulatedUser`] (or
//! [`NoisyUser`]) oracle whose hidden utility vector is derived
//! deterministically from `(seed, user index)`. Because serving sessions
//! are isolated, the per-user question counts are a pure function of the
//! config — independent of concurrency, batching, and scheduling — which
//! the loadgen determinism test pins.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::serving::protocol::{line_bytes, ClientFrame, ServerFrame};
use crate::serving::AlgoKind;
use crate::user::{NoisyUser, SimulatedUser, User};
use isrl_geometry::sampling::sample_simplex;
use isrl_obs::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What to replay.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of simulated users.
    pub users: usize,
    /// Worker threads (connections); users are dealt round-robin.
    pub concurrency: usize,
    /// Base seed; user `u` plays utility/seed `mix(seed, u)`.
    pub seed: u64,
    /// Regret threshold ε sent in each `hello`.
    pub eps: f64,
    /// Which algorithm to request.
    pub algo: AlgoKind,
    /// Answer flip probability (0 = the noiseless oracle).
    pub noise: f64,
    /// Send a `shutdown` frame after all users finish.
    pub send_shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            users: 1,
            concurrency: 8,
            seed: 0,
            eps: 0.1,
            algo: AlgoKind::Ea,
            noise: 0.0,
            send_shutdown: false,
        }
    }
}

/// Aggregated results of a loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Users replayed.
    pub users: usize,
    /// Questions each user answered, indexed by user.
    pub rounds_per_user: Vec<usize>,
    /// Users whose sessions ended truncated.
    pub truncated: usize,
    /// Total questions answered.
    pub rounds_total: usize,
    /// Wall-clock for the whole replay.
    pub elapsed_secs: f64,
    /// Completed sessions per second of wall-clock.
    pub sessions_per_sec: f64,
    /// Median request→response latency (ms) across all rounds.
    pub round_p50_ms: f64,
    /// 99th-percentile request→response latency (ms).
    pub round_p99_ms: f64,
}

impl LoadgenReport {
    /// The report as JSON (the CLI's `--out` / `BENCH_serve.json` format).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("users".into(), self.users.into()),
            ("rounds_total".into(), self.rounds_total.into()),
            ("truncated".into(), self.truncated.into()),
            ("elapsed_secs".into(), self.elapsed_secs.into()),
            ("sessions_per_sec".into(), self.sessions_per_sec.into()),
            ("round_p50_ms".into(), self.round_p50_ms.into()),
            ("round_p99_ms".into(), self.round_p99_ms.into()),
            (
                "rounds_per_user".into(),
                Json::Arr(
                    self.rounds_per_user
                        .iter()
                        .map(|&r| Json::Num(r as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// SplitMix64-style per-user seed derivation: decorrelates users while
/// keeping each one a pure function of `(seed, user)`. Masked to 52 bits
/// so the seed survives the wire protocol's exact-JSON-integer fields.
fn mix(seed: u64, user: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(user.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xF_FFFF_FFFF_FFFF
}

struct UserOutcome {
    user: usize,
    rounds: usize,
    truncated: bool,
    latencies_ms: Vec<f64>,
    wall_ms: f64,
    /// Server-assigned connection id (from the wire frames), for the
    /// per-connection `serve_session` tags.
    conn: u64,
}

/// Nearest-rank percentile over already-sorted latencies. Deliberately
/// *not* `norms::percentile`: the loadgen reports the nearest observed
/// sample (p99 of [1,2,3,4,100] is 100, not an interpolated blend), and
/// its inputs are `Instant`-derived so the NaN-propagation policy of the
/// stats module does not apply.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Replays `cfg.users` conversations and aggregates latency/throughput.
/// With the telemetry sink enabled, also records each round into the
/// `serve.round_ms` sketch and emits one `serve_session` event per user.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.users == 0 {
        return Err("need at least one user".to_string());
    }
    let concurrency = cfg.concurrency.clamp(1, cfg.users);
    let started = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|w| {
            let cfg = cfg.clone();
            std::thread::spawn(move || -> Result<Vec<UserOutcome>, String> {
                let stream = TcpStream::connect(&cfg.addr)
                    .map_err(|e| format!("connect {}: {e}", cfg.addr))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("set_nodelay: {e}"))?;
                let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                let mut reader = BufReader::new(stream);
                (w..cfg.users)
                    .step_by(concurrency)
                    .map(|u| run_user(&cfg, u, &mut writer, &mut reader))
                    .collect()
            })
        })
        .collect();

    let mut outcomes: Vec<UserOutcome> = Vec::with_capacity(cfg.users);
    let mut first_err: Option<String> = None;
    for worker in workers {
        match worker.join().expect("loadgen worker panicked") {
            Ok(batch) => outcomes.extend(batch),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let elapsed_secs = started.elapsed().as_secs_f64();

    if cfg.send_shutdown {
        let mut conn = TcpStream::connect(&cfg.addr)
            .map_err(|e| format!("connect for shutdown {}: {e}", cfg.addr))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        conn.write_all(&line_bytes(&ClientFrame::Shutdown.to_line()))
            .map_err(|e| format!("send shutdown: {e}"))?;
    }

    outcomes.sort_by_key(|o| o.user);
    if isrl_obs::enabled() {
        for o in &outcomes {
            for &l in &o.latencies_ms {
                isrl_obs::sketch_record("serve.round_ms", l);
            }
            isrl_obs::emit(
                isrl_obs::Event::new("serve_session")
                    .field("algo", cfg.algo.label())
                    .field("user", o.user as u64)
                    .field("conn", o.conn)
                    .field("rounds", o.rounds as u64)
                    .field("ms", o.wall_ms),
            );
        }
    }

    let rounds_per_user: Vec<usize> = outcomes.iter().map(|o| o.rounds).collect();
    let rounds_total = rounds_per_user.iter().sum();
    let mut all_latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    all_latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(LoadgenReport {
        users: cfg.users,
        truncated: outcomes.iter().filter(|o| o.truncated).count(),
        rounds_per_user,
        rounds_total,
        elapsed_secs,
        sessions_per_sec: cfg.users as f64 / elapsed_secs.max(1e-9),
        round_p50_ms: percentile(&all_latencies, 0.50),
        round_p99_ms: percentile(&all_latencies, 0.99),
    })
}

/// One user's conversation over an already-connected stream.
fn run_user(
    cfg: &LoadgenConfig,
    user: usize,
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> Result<UserOutcome, String> {
    let user_seed = mix(cfg.seed, user as u64);
    let user_started = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut oracle: Option<Box<dyn User>> = None;
    let mut session_id: Option<u64> = None;

    let hello = ClientFrame::Hello {
        algo: cfg.algo,
        eps: cfg.eps,
        seed: user_seed,
    };
    let mut sent_at = Instant::now();
    send(writer, &hello)?;

    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("user {user}: read: {e}"))?;
        if n == 0 {
            return Err(format!("user {user}: server closed the connection"));
        }
        latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
        match ServerFrame::parse(line.trim_end()).map_err(|e| format!("user {user}: {e}"))? {
            ServerFrame::Question {
                session,
                round,
                req,
                option1,
                option2,
                ..
            } => {
                match session_id {
                    None => session_id = Some(session),
                    Some(sid) if sid == session => {}
                    Some(sid) => {
                        return Err(format!(
                            "user {user}: question for session {session}, expected {sid}"
                        ));
                    }
                }
                let oracle = oracle.get_or_insert_with(|| {
                    let mut rng = StdRng::seed_from_u64(user_seed);
                    let utility = sample_simplex(option1.len(), &mut rng);
                    if cfg.noise > 0.0 {
                        Box::new(NoisyUser::new(utility, cfg.noise, user_seed)) as Box<dyn User>
                    } else {
                        Box::new(SimulatedUser::new(utility)) as Box<dyn User>
                    }
                });
                let choice = oracle.prefers(&option1, &option2);
                // Echo the request id so the server can verify we are
                // answering the question it actually sent.
                let answer = ClientFrame::Answer {
                    session,
                    round,
                    choice,
                    req: Some(req),
                };
                sent_at = Instant::now();
                send(writer, &answer)?;
            }
            ServerFrame::Done {
                conn,
                session,
                rounds,
                truncated,
                ..
            } => {
                if let Some(sid) = session_id {
                    if sid != session {
                        return Err(format!(
                            "user {user}: done for session {session}, expected {sid}"
                        ));
                    }
                }
                return Ok(UserOutcome {
                    user,
                    rounds: rounds as usize,
                    truncated,
                    latencies_ms,
                    wall_ms: user_started.elapsed().as_secs_f64() * 1e3,
                    conn,
                });
            }
            ServerFrame::Error { code, message, .. } => {
                return Err(format!("user {user}: server error [{code}]: {message}"));
            }
            ServerFrame::Stats { .. } => {
                return Err(format!("user {user}: unexpected stats frame"));
            }
        }
    }
}

fn send(writer: &mut TcpStream, frame: &ClientFrame) -> Result<(), String> {
    writer
        .write_all(&line_bytes(&frame.to_line()))
        .map_err(|e| format!("send: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_decorrelates_and_is_stable() {
        assert_eq!(mix(7, 0), mix(7, 0));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
    }

    #[test]
    fn percentile_is_exact_on_small_sets() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
