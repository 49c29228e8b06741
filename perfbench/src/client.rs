//! The load generator: one client process multiplexing many simulated
//! users over at most `nproc` connections.
//!
//! Sessions are owned per connection, so each connection carries many
//! concurrent sessions; replies are matched to sessions by id, and a reply
//! for a session id not yet seen on the connection answers the oldest
//! outstanding `hello` (the server answers a connection's requests in the
//! order it read them). Every frame goes out as one `write` on a
//! `TCP_NODELAY` socket, so the client adds no Nagle delay of its own.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::workload::{mix, Load, UserSpec, ARRIVAL_STREAM};
use isrl_core::serving::protocol::{ClientFrame, ServerFrame};
use isrl_core::serving::AlgoKind;
use isrl_core::user::{SimulatedUser, User};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A request with no reply after this long has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest single blocking read, so schedules and deadlines stay live.
const MAX_WAIT: Duration = Duration::from_millis(20);
/// Blocking reads stop this long before a deadline; the rest is polled.
const TICK_SLACK: Duration = Duration::from_millis(5);
/// Sleep between non-blocking polls.
const POLL_SLEEP: Duration = Duration::from_micros(50);

/// What one pass of load looks like.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub addr: String,
    pub conns: usize,
    pub d: usize,
    pub algo: AlgoKind,
    pub eps: f64,
    pub seed: u64,
    pub load: Load,
    /// How long new sessions are started.
    pub duration: Duration,
    /// Closed loop: keep starting sessions past `duration`, up to twice it,
    /// until the connections together have read this many replies.
    pub min_replies: usize,
}

/// One request (a `hello` or an `answer`) and its reply.
#[derive(Debug, Clone)]
pub struct ReqRecord {
    pub user: usize,
    /// 0 for the `hello`, k for the answer to question k.
    pub index: usize,
    /// The server's request id, echoed in the reply.
    pub req: u64,
    /// Request due → reply frame read.
    pub round_ms: f64,
    /// Request due → request written: how late the client ran.
    pub lag_ms: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Request plus reply line, newlines included.
    pub bytes: usize,
    /// When the reply was read, seconds into the pass.
    pub at_s: f64,
}

/// The wire's final frame of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    pub index: usize,
    pub tuple: Vec<f64>,
    pub rounds: usize,
    pub truncated: bool,
}

/// Everything one user saw over the wire.
#[derive(Debug, Clone)]
pub struct SessionLog {
    pub user: usize,
    pub questions: Vec<(Vec<f64>, Vec<f64>)>,
    pub done: Option<Done>,
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub records: Vec<ReqRecord>,
    /// Every started session, sorted by user.
    pub sessions: Vec<SessionLog>,
    pub failed: usize,
    pub failures: Vec<String>,
    /// First `hello` due → last reply read.
    pub elapsed_s: f64,
    /// Most threads this process ran at once during the pass.
    pub max_threads: usize,
    /// How long sessions were started, seconds.
    pub measured_s: f64,
}

/// Runs one pass: one connection per worker, the first on this thread.
pub fn run(cfg: &ClientConfig) -> Result<ClientRun, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let replies = AtomicUsize::new(0);
    let replies = &replies;
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let others: Vec<_> = (1..cfg.conns)
            .map(|c| s.spawn(move || Conn::open(cfg, c, start, replies)?.drive()))
            .collect();
        let mut all = vec![Conn::open(cfg, 0, start, replies).and_then(Conn::drive)];
        all.extend(others.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("client thread panicked".into()))
        }));
        all
    });
    let mut out = ClientRun::default();
    for r in results {
        let r = r?;
        out.records.extend(r.records);
        out.sessions.extend(r.sessions);
        out.failed += r.failed;
        out.failures.extend(r.failures);
        out.elapsed_s = out.elapsed_s.max(r.elapsed_s);
        out.max_threads = out.max_threads.max(r.max_threads);
        out.measured_s = out.measured_s.max(r.measured_s);
    }
    out.sessions.sort_by_key(|s| s.user);
    Ok(out)
}

/// The open-loop arrival offsets of connection `c`: a Poisson process of
/// rate `rate / conns` over `[0, duration)`, conditioned on its expected
/// count — that many uniform arrival times, sorted — so every seed offers
/// the same number of sessions.
fn arrivals(cfg: &ClientConfig, c: usize, rate: f64) -> VecDeque<Duration> {
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, ARRIVAL_STREAM + c as u64));
    let span = cfg.duration.as_secs_f64();
    let count = (rate * span / cfg.conns as f64).round() as usize;
    let mut times: Vec<f64> = (0..count)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * span)
        .collect();
    times.sort_by(f64::total_cmp);
    times.into_iter().map(Duration::from_secs_f64).collect()
}

/// A request written and awaiting its reply.
struct Pending {
    user: usize,
    index: usize,
    due: Instant,
    sent: Instant,
    encode_ns: f64,
    bytes: usize,
}

struct Live {
    log: SessionLog,
    oracle: SimulatedUser,
    pending: Option<Pending>,
}

/// One connection and the sessions it carries.
struct Conn<'a> {
    cfg: &'a ClientConfig,
    /// Replies read by all connections of the pass.
    replies: &'a AtomicUsize,
    stream: TcpStream,
    start: Instant,
    /// Users this connection plays next: `c, c + conns, c + 2·conns, …`.
    next_user: usize,
    schedule: VecDeque<Duration>,
    hellos: VecDeque<(Pending, SimulatedUser)>,
    live: HashMap<u64, Live>,
    buf: Vec<u8>,
    last_reply: Instant,
    /// Users kept in flight (closed loop only).
    closed_users: usize,
    /// Set once the connection is unusable (disconnect, timeout, protocol
    /// mismatch); the pass ends for this connection.
    broken: bool,
    nonblocking: bool,
    out: ClientRun,
}

impl<'a> Conn<'a> {
    fn open(
        cfg: &'a ClientConfig,
        c: usize,
        start: Instant,
        replies: &'a AtomicUsize,
    ) -> Result<Self, String> {
        let stream =
            TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let (schedule, closed_users) = match cfg.load {
            Load::Open { sessions_per_s } => (arrivals(cfg, c, sessions_per_s), 0),
            Load::Closed { users } => (
                VecDeque::new(),
                users / cfg.conns + usize::from(c < users % cfg.conns),
            ),
        };
        Ok(Conn {
            cfg,
            replies,
            stream,
            start,
            next_user: c,
            schedule,
            hellos: VecDeque::new(),
            live: HashMap::new(),
            buf: Vec::with_capacity(1 << 16),
            last_reply: start,
            closed_users,
            broken: false,
            nonblocking: false,
            out: ClientRun::default(),
        })
    }

    fn in_flight(&self) -> usize {
        self.hellos.len() + self.live.len()
    }

    /// Whether new sessions still start at `now`.
    fn accepting(&self, now: Instant) -> bool {
        now < self.start + self.cfg.duration
            || (!self.cfg.load.is_open()
                && self.replies.load(Ordering::Relaxed) < self.cfg.min_replies
                && now < self.start + 2 * self.cfg.duration)
    }

    fn drive(mut self) -> Result<ClientRun, String> {
        while Instant::now() < self.start {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.out.measured_s = self.cfg.duration.as_secs_f64();
        while !self.broken {
            let now = Instant::now();
            let accepting = self.accepting(now);
            while let Some(&at) = self.schedule.front() {
                let due = self.start + at;
                if due > now {
                    break;
                }
                self.schedule.pop_front();
                self.hello(due)?;
            }
            if accepting {
                while self.in_flight() < self.closed_users {
                    self.hello(now)?;
                }
            }
            if self.out.max_threads == 0 {
                self.out.max_threads = process_threads();
            }
            let waiting = self.in_flight() > 0;
            match self.cfg.load {
                Load::Closed { .. } if !accepting => {
                    self.out.measured_s = now.saturating_duration_since(self.start).as_secs_f64();
                    break;
                }
                Load::Open { .. } if self.schedule.is_empty() && !waiting => break,
                _ => {}
            }
            if waiting && now.duration_since(self.last_reply.max(self.start)) > REQUEST_TIMEOUT {
                self.fail_all("timeout");
            }
            let mut wait = MAX_WAIT;
            if let Some(&at) = self.schedule.front() {
                wait = wait.min((self.start + at).saturating_duration_since(now));
            }
            let end = self.start + self.cfg.duration;
            if now < end {
                wait = wait.min(end.saturating_duration_since(now));
            }
            if !self.read(wait)? {
                self.fail_all("server closed the connection");
            }
        }
        // Sessions still in flight (closed loop) are abandoned: their
        // outstanding request is neither a success nor a failure.
        self.abandon();
        self.out.elapsed_s = self
            .last_reply
            .saturating_duration_since(self.start)
            .as_secs_f64();
        Ok(self.out)
    }

    /// Waits up to `wait` for data, then handles every complete line read.
    /// Returns `false` once the server has closed the connection.
    ///
    /// Socket read timeouts are rounded up to the kernel tick, which would
    /// make the open-loop generator late; so the last stretch of a wait
    /// polls a non-blocking socket between short sleeps instead.
    fn read(&mut self, wait: Duration) -> Result<bool, String> {
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 1 << 16];
        let n = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let blocking = left > TICK_SLACK;
            self.set_nonblocking(!blocking)?;
            if blocking {
                self.stream
                    .set_read_timeout(Some(left - TICK_SLACK))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => break n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return Ok(false),
            }
            if left.is_zero() {
                return Ok(true);
            }
            if !blocking {
                std::thread::sleep(left.min(POLL_SLEEP));
            }
        };
        let arrived = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some(pos) = self.buf[consumed..].iter().position(|&b| b == b'\n') {
            if self.broken {
                break;
            }
            let line = String::from_utf8_lossy(&self.buf[consumed..consumed + pos]).into_owned();
            consumed += pos + 1;
            self.reply(&line, arrived)?;
        }
        self.buf.drain(..consumed);
        Ok(true)
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        if self.nonblocking != on {
            self.stream
                .set_nonblocking(on)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            self.nonblocking = on;
        }
        Ok(())
    }

    fn write(&mut self, line: &str) -> Result<usize, String> {
        self.set_nonblocking(false)?;
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        Ok(bytes.len())
    }

    /// Encodes and writes a request frame; returns (encode ns, bytes, sent).
    fn send(&mut self, frame: &ClientFrame) -> Result<(f64, usize, Instant), String> {
        let t = Instant::now();
        let line = frame.to_line();
        let encode_ns = t.elapsed().as_nanos() as f64;
        let bytes = self.write(&line)?;
        Ok((encode_ns, bytes, Instant::now()))
    }

    fn hello(&mut self, due: Instant) -> Result<(), String> {
        let user = self.next_user;
        self.next_user += self.cfg.conns;
        let spec = UserSpec::new(self.cfg.seed, user, self.cfg.d);
        let frame = ClientFrame::Hello {
            algo: self.cfg.algo,
            eps: self.cfg.eps,
            seed: spec.seed,
        };
        let (encode_ns, bytes, sent) = self.send(&frame)?;
        let pending = Pending {
            user,
            index: 0,
            due,
            sent,
            encode_ns,
            bytes,
        };
        self.hellos
            .push_back((pending, SimulatedUser::new(spec.utility)));
        Ok(())
    }

    /// The session a reply belongs to: live by id, else the oldest `hello`.
    fn claim(&mut self, session: u64) -> Option<&mut Live> {
        if !self.live.contains_key(&session) {
            let (pending, oracle) = self.hellos.pop_front()?;
            let log = SessionLog {
                user: pending.user,
                questions: Vec::new(),
                done: None,
            };
            self.live.insert(
                session,
                Live {
                    log,
                    oracle,
                    pending: Some(pending),
                },
            );
        }
        self.live.get_mut(&session)
    }

    fn record(&mut self, p: Pending, req: u64, arrived: Instant, decode_ns: f64, len: usize) {
        self.replies.fetch_add(1, Ordering::Relaxed);
        self.last_reply = self.last_reply.max(arrived);
        self.out.records.push(ReqRecord {
            user: p.user,
            index: p.index,
            req,
            round_ms: arrived.saturating_duration_since(p.due).as_secs_f64() * 1e3,
            lag_ms: p.sent.saturating_duration_since(p.due).as_secs_f64() * 1e3,
            encode_ns: p.encode_ns,
            decode_ns,
            bytes: p.bytes + len + 1,
            at_s: arrived.saturating_duration_since(self.start).as_secs_f64(),
        });
    }

    fn reply(&mut self, line: &str, arrived: Instant) -> Result<(), String> {
        let t = Instant::now();
        let frame = ServerFrame::parse(line);
        let decode_ns = t.elapsed().as_nanos() as f64;
        let frame = match frame {
            Ok(f) => f,
            Err(e) => {
                self.fail_all(&format!("unparsable server frame: {e}"));
                return Ok(());
            }
        };
        match frame {
            ServerFrame::Question {
                session,
                round,
                req,
                option1,
                option2,
                ..
            } => {
                let Some(live) = self.claim(session) else {
                    return self.mismatch(session, "question for no outstanding request");
                };
                let Some(pending) = live.pending.take() else {
                    return self.mismatch(session, "question with no request outstanding");
                };
                if round as usize != live.log.questions.len() + 1 {
                    return self.mismatch(session, "question round out of sequence");
                }
                let choice = live.oracle.prefers(&option1, &option2);
                live.log.questions.push((option1, option2));
                self.record(pending, req, arrived, decode_ns, line.len());
                let index = round as usize;
                let answer = ClientFrame::Answer {
                    session,
                    round,
                    choice,
                    req: Some(req),
                };
                let (encode_ns, bytes, sent) = self.send(&answer)?;
                let live = self.live.get_mut(&session).expect("claimed above");
                live.pending = Some(Pending {
                    user: live.log.user,
                    index,
                    due: arrived,
                    sent,
                    encode_ns,
                    bytes,
                });
            }
            ServerFrame::Done {
                session,
                req,
                rounds,
                index,
                tuple,
                truncated,
                ..
            } => {
                let Some(live) = self.claim(session) else {
                    return self.mismatch(session, "done for no outstanding request");
                };
                let Some(pending) = live.pending.take() else {
                    return self.mismatch(session, "done with no request outstanding");
                };
                let mut live = self.live.remove(&session).expect("claimed above");
                live.log.done = Some(Done {
                    index: index as usize,
                    tuple,
                    rounds: rounds as usize,
                    truncated,
                });
                self.out.sessions.push(live.log);
                self.record(pending, req, arrived, decode_ns, line.len());
                if !self.cfg.load.is_open() && self.accepting(arrived) {
                    self.hello(arrived)?;
                }
            }
            ServerFrame::Error {
                session,
                code,
                message,
                ..
            } => {
                let failed = match session.and_then(|s| self.live.remove(&s)) {
                    Some(live) => Some(live.log),
                    None => self.hellos.pop_front().map(|(p, _)| SessionLog {
                        user: p.user,
                        questions: Vec::new(),
                        done: None,
                    }),
                };
                self.out.failed += 1;
                self.out
                    .failures
                    .push(format!("error frame [{code}]: {message}"));
                if let Some(log) = failed {
                    self.out.sessions.push(log);
                }
            }
            ServerFrame::Stats { .. } => {
                self.fail_all("unexpected stats frame");
            }
        }
        Ok(())
    }

    fn mismatch(&mut self, session: u64, what: &str) -> Result<(), String> {
        self.fail_all(&format!("protocol mismatch on session {session}: {what}"));
        Ok(())
    }

    /// Fails every outstanding request of the connection and ends its pass.
    fn fail_all(&mut self, why: &str) {
        let outstanding =
            self.hellos.len() + self.live.values().filter(|l| l.pending.is_some()).count();
        self.out.failed += outstanding.max(1);
        self.out.failures.push(why.to_string());
        self.abandon();
        self.schedule.clear();
        self.broken = true;
    }

    /// Moves every session still in flight to the pass's session logs.
    fn abandon(&mut self) {
        for (_, live) in self.live.drain() {
            self.out.sessions.push(live.log);
        }
        for (p, _) in self.hellos.drain(..) {
            self.out.sessions.push(SessionLog {
                user: p.user,
                questions: Vec::new(),
                done: None,
            });
        }
    }
}

/// Threads of this process right now (`/proc/self/status`).
pub fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
