//! A hand-rolled blocking TCP reactor for the serving protocol.
//!
//! No async runtime (the workspace builds with its vendored dependency
//! set): one accept thread, one reader thread per connection feeding a
//! channel, and a single core thread that owns the [`SessionRegistry`]
//! and all writers. The core drains the channel in micro-batches — after
//! the first message it keeps reading until [`ServerConfig::batch_window`]
//! elapses with nothing new (or [`ServerConfig::max_drain`] messages) —
//! so concurrent users' round scans land in the same
//! [`SessionRegistry::pump_all`] and coalesce into shared `top1_batch`
//! calls.
//!
//! **Operational observability** (DESIGN.md §16): every accepted
//! `hello`/`answer` is a *request* with a server-assigned id; the frame it
//! produces echoes that id plus the connection id, and (when telemetry is
//! on) a `serve_round` event tags the request's server-side latency with
//! the `(conn, req)` pair. A rolling-window [`RollingSketch`] of those
//! latencies backs the read-only `stats` frame, answered inline from the
//! core thread without pausing session processing. A [`FlightRecorder`]
//! ring keeps the last rounds' span trees (the whole batch runs inside a
//! `serve_batch` profile scope); a round breaching
//! `slow_factor × rolling p99` dumps a `slow_round` event explaining
//! where the time went. The profile scope and flight recorder are armed
//! only while the telemetry sink is enabled, so an untraced server keeps
//! the zero-instrumentation fast path.
//!
//! **How frames leave.** The core queues each frame it owes a connection
//! in that connection's outbox; once a micro-batch's frames are built,
//! `Core::flush` sends every non-empty outbox with one `write_all`.
//! Accepted sockets set `TCP_NODELAY`, so that write goes out at once
//! instead of waiting on the client's delayed ACK.
//!
//! A client line longer than [`MAX_LINE_BYTES`] is answered with one
//! `frame_too_long` error frame, flushed before its connection is closed,
//! so a peer that never sends `\n` cannot grow server memory without
//! bound.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::serving::protocol::{line_bytes, ClientFrame, ServerFrame};
use crate::serving::{BatchStats, ServePolicy, SessionRegistry};
use isrl_data::Dataset;
use isrl_obs::json::Json;
use isrl_obs::{FlightRecord, FlightRecorder, RollingSketch};

/// Longest client line the reader threads accept, in bytes (without the
/// newline). Legitimate frames are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reactor knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// How long the core waits for further traffic after a message before
    /// processing the batch. Larger windows coalesce more cross-user
    /// scans at the cost of per-round latency.
    pub batch_window: Duration,
    /// Cap on messages drained per batch.
    pub max_drain: usize,
    /// Horizon of the rolling round-latency sketch behind the `stats`
    /// frame and the flight-recorder threshold.
    pub rolling_window: Duration,
    /// Rounds kept in the flight-recorder ring.
    pub flight_depth: usize,
    /// A round slower than `slow_factor ×` rolling p99 triggers a
    /// `slow_round` dump.
    pub slow_factor: f64,
    /// Rolling-sketch samples required before the slow-round trigger
    /// arms (a cold p99 is noise).
    pub slow_warmup: u64,
    /// Requests to suppress further dumps after one fires — one incident,
    /// one dump, even when the stall's queue backlog drains slowly.
    pub slow_cooldown: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            batch_window: Duration::from_micros(500),
            max_drain: 256,
            rolling_window: Duration::from_secs(30),
            flight_depth: 32,
            slow_factor: 4.0,
            slow_warmup: 64,
            slow_cooldown: 64,
        }
    }
}

/// What the server did over its lifetime, returned by
/// [`ServerHandle::join`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Sessions opened by `hello` frames.
    pub sessions_opened: u64,
    /// Sessions served to their `done` frame.
    pub sessions_completed: u64,
    /// `error` frames sent.
    pub errors: u64,
    /// Requests served (accepted `hello`/`answer` frames).
    pub requests: u64,
    /// `slow_round` flight-recorder dumps emitted.
    pub slow_rounds: u64,
    /// The registry's cross-user batcher counters.
    pub batch: BatchStats,
}

enum Msg {
    /// A connection arrived; the stream is the writer half.
    NewConn(u64, TcpStream),
    /// One line from a connection, stamped when its reader thread read it:
    /// a request's latency clock starts there, so it counts the channel
    /// queue and the request's own cut as well as the batch.
    Line(u64, String, Instant),
    /// A connection sent a line longer than [`MAX_LINE_BYTES`].
    Oversize(u64),
    /// A connection's reader hit EOF or an error.
    Closed(u64),
    /// Stop serving ([`ServerHandle::shutdown`]).
    Stop,
}

/// A running server. Dropping the handle does not stop it — call
/// [`join`](Self::join) (waits for a client `shutdown` frame) or
/// [`shutdown`](Self::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    tx: Sender<Msg>,
    core: JoinHandle<ServerStats>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits until the server stops (a client sends `shutdown`) and
    /// returns its lifetime stats.
    pub fn join(self) -> ServerStats {
        let stats = self.core.join().expect("server core thread panicked");
        let _ = self.accept.join();
        stats
    }

    /// Asks the server to stop now and waits for it.
    pub fn shutdown(self) -> ServerStats {
        let _ = self.tx.send(Msg::Stop);
        self.join()
    }
}

/// Binds `cfg.addr` and spawns the reactor over the given dataset and
/// policies. Returns once the listener is live.
pub fn spawn_server(
    data: Arc<Dataset>,
    policies: Vec<Arc<ServePolicy>>,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let (tx, rx) = channel::<Msg>();
    let stop = Arc::new(AtomicBool::new(false));

    let accept = {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, tx, stop))
    };
    let core = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || core_loop(data, policies, cfg, rx, stop, addr))
    };
    Ok(ServerHandle {
        addr,
        tx,
        core,
        accept,
    })
}

fn accept_loop(listener: TcpListener, tx: Sender<Msg>, stop: Arc<AtomicBool>) {
    let mut next_conn = 1u64;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let conn = next_conn;
        next_conn += 1;
        // The writer clone shares this socket. A batch's frames leave in
        // one write, which Nagle must not hold back for the client's ACK.
        let _ = stream.set_nodelay(true);
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        // NewConn is enqueued before the reader thread exists, so the core
        // always learns of the writer before the connection's first line.
        if tx.send(Msg::NewConn(conn, writer)).is_err() {
            return;
        }
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            loop {
                match read_line_capped(&mut reader) {
                    Ok(Some(line)) => {
                        if tx.send(Msg::Line(conn, line, Instant::now())).is_err() {
                            return;
                        }
                    }
                    Err(LineError::TooLong) => {
                        let _ = tx.send(Msg::Oversize(conn));
                        break;
                    }
                    Ok(None) | Err(LineError::Io) => break,
                }
            }
            let _ = tx.send(Msg::Closed(conn));
        });
    }
}

enum LineError {
    /// The line exceeds [`MAX_LINE_BYTES`].
    TooLong,
    /// A read error or invalid UTF-8 (as `BufRead::lines` reports).
    Io,
}

/// Reads one `\n`-terminated line (a trailing `\r` is stripped, as
/// `BufRead::lines` does), buffering at most [`MAX_LINE_BYTES`] + 1 bytes.
/// `Ok(None)` at end of stream.
fn read_line_capped(reader: &mut impl BufRead) -> Result<Option<String>, LineError> {
    let mut buf = Vec::new();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|_| LineError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(LineError::TooLong);
    }
    String::from_utf8(buf).map(Some).map_err(|_| LineError::Io)
}

/// One request accepted this batch, owing its connection a frame.
struct Touched {
    conn: u64,
    sid: u64,
    /// Server-assigned request id.
    req: u64,
    /// When the request's line was read off its connection.
    accepted: Instant,
}

/// The writer half of a live connection and the frames it is owed.
struct Writer {
    stream: TcpStream,
    /// `\n`-terminated frames queued since the last flush.
    outbox: Vec<u8>,
}

impl Writer {
    /// Sends the outbox in one `write_all`; `false` when the write failed.
    fn flush(&mut self) -> bool {
        if self.outbox.is_empty() {
            return true;
        }
        let ok = self.stream.write_all(&self.outbox).is_ok();
        self.outbox.clear();
        ok
    }
}

/// The single thread that owns all serving state.
struct Core {
    registry: SessionRegistry,
    /// Each live connection's writer and outbox.
    writers: BTreeMap<u64, Writer>,
    /// Which connection owns each live session.
    owner: BTreeMap<u64, u64>,
    stats: ServerStats,
    /// Requests accepted this batch whose sessions owe a frame.
    touched: Vec<Touched>,
    stopping: bool,
    cfg: ServerConfig,
    started: Instant,
    /// Next request id (globally unique, starts at 1).
    next_req: u64,
    /// Per session: the request id carried by the last `question` frame,
    /// which a client-supplied `req` echo must match.
    last_req: BTreeMap<u64, u64>,
    /// Connections ever accepted.
    conns_opened: u64,
    /// Error counts by machine-readable kind.
    errors_by_kind: BTreeMap<&'static str, u64>,
    /// Rolling server-side request latencies (ms).
    rolling: RollingSketch,
    flight: FlightRecorder,
    /// Requests since the last `slow_round` dump (starts saturated so the
    /// first incident can fire).
    since_slow: u64,
    /// Messages drained in the last micro-batch (for the `stats` frame).
    last_drained: u64,
    /// Messages handled in the current micro-batch.
    batch_msgs: u64,
}

fn core_loop(
    data: Arc<Dataset>,
    policies: Vec<Arc<ServePolicy>>,
    cfg: ServerConfig,
    rx: Receiver<Msg>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) -> ServerStats {
    let mut registry = SessionRegistry::new(data);
    for policy in policies {
        registry.register(policy);
    }
    let mut core = Core {
        registry,
        writers: BTreeMap::new(),
        owner: BTreeMap::new(),
        stats: ServerStats::default(),
        touched: Vec::new(),
        stopping: false,
        started: Instant::now(),
        next_req: 1,
        last_req: BTreeMap::new(),
        conns_opened: 0,
        errors_by_kind: BTreeMap::new(),
        rolling: RollingSketch::new(0.01, cfg.rolling_window, 6),
        flight: FlightRecorder::new(cfg.flight_depth),
        since_slow: cfg.slow_cooldown,
        last_drained: 0,
        batch_msgs: 0,
        cfg,
    };

    while !core.stopping {
        let first = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        core.handle(first);
        // Micro-batch: keep draining while traffic is arriving back to
        // back, so concurrent sessions advance in one pump.
        while !core.stopping && core.touched.len() < core.cfg.max_drain {
            match rx.recv_timeout(core.cfg.batch_window) {
                Ok(m) => core.handle(m),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    core.stopping = true;
                    break;
                }
            }
        }
        core.advance();
    }

    // Unblock the accept loop (it is parked in `accept`) with a dummy
    // connection, then drop every client connection. Every batch ends in
    // a flush, so no queued frame is lost here.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    for writer in core.writers.values() {
        let _ = writer.stream.shutdown(Shutdown::Both);
    }
    core.stats.batch = core.registry.stats();
    core.stats
}

impl Core {
    fn handle(&mut self, msg: Msg) {
        self.batch_msgs += 1;
        match msg {
            Msg::NewConn(conn, stream) => {
                self.conns_opened += 1;
                self.writers.insert(
                    conn,
                    Writer {
                        stream,
                        outbox: Vec::new(),
                    },
                );
            }
            Msg::Closed(conn) => {
                // Frames still queued for a closed peer are discarded.
                self.writers.remove(&conn);
                let orphaned: Vec<u64> = self
                    .owner
                    .iter()
                    .filter(|&(_, &c)| c == conn)
                    .map(|(&sid, _)| sid)
                    .collect();
                for sid in orphaned {
                    self.drop_session(sid);
                }
            }
            Msg::Line(conn, line, read_at) => self.handle_line(conn, &line, read_at),
            Msg::Oversize(conn) => {
                self.error(
                    conn,
                    None,
                    None,
                    "frame_too_long",
                    format!("line exceeds {MAX_LINE_BYTES} bytes; closing the connection"),
                );
                // The error frame goes out before the close. The reader
                // thread has stopped; its `Closed` follows and drops the
                // connection's sessions.
                if let Some(mut writer) = self.writers.remove(&conn) {
                    writer.flush();
                    let _ = writer.stream.shutdown(Shutdown::Both);
                }
            }
            Msg::Stop => self.stopping = true,
        }
    }

    fn drop_session(&mut self, sid: u64) {
        self.owner.remove(&sid);
        self.last_req.remove(&sid);
        self.registry.close(sid);
    }

    fn handle_line(&mut self, conn: u64, line: &str, read_at: Instant) {
        let frame = match ClientFrame::parse(line) {
            Ok(f) => f,
            Err(message) => {
                self.error(conn, None, None, "parse", message);
                return;
            }
        };
        match frame {
            ClientFrame::Hello { algo, eps, seed } => match self.registry.open(algo, eps, seed) {
                Ok(sid) => {
                    self.owner.insert(sid, conn);
                    self.stats.sessions_opened += 1;
                    self.accept_request(conn, sid, read_at);
                }
                Err(e) => self.error(conn, None, None, "open", e.to_string()),
            },
            ClientFrame::Answer {
                session,
                round,
                choice,
                req,
            } => {
                // A session is only addressable from the connection that
                // opened it.
                if self.owner.get(&session) != Some(&conn) {
                    self.error(
                        conn,
                        Some(session),
                        req,
                        "unknown_session",
                        format!("unknown session {session}"),
                    );
                    return;
                }
                let live = self
                    .registry
                    .session(session)
                    .expect("owned session must be live");
                if live.current_question().is_none() {
                    self.error(
                        conn,
                        Some(session),
                        req,
                        "no_pending",
                        "no question is pending".to_string(),
                    );
                    return;
                }
                let expected = live.rounds() as u64 + 1;
                if round != expected {
                    self.error(
                        conn,
                        Some(session),
                        req,
                        "stale_round",
                        format!("unexpected round {round} (the pending round is {expected})"),
                    );
                    return;
                }
                // An answer may echo the question frame's request id; a
                // mismatch means the client answered a question it never
                // saw (split-brain or replay) — reject without touching
                // the session.
                if let Some(echo) = req {
                    let pending = self.last_req.get(&session).copied();
                    if pending != Some(echo) {
                        self.error(
                            conn,
                            Some(session),
                            req,
                            "req_mismatch",
                            format!(
                                "request id {echo} does not match the pending question{}",
                                pending.map_or(String::new(), |p| format!(" (expected {p})"))
                            ),
                        );
                        return;
                    }
                }
                match self.registry.answer(session, choice) {
                    Ok(()) => self.accept_request(conn, session, read_at),
                    Err(e) => self.error(conn, Some(session), req, "no_pending", e.to_string()),
                }
            }
            ClientFrame::Stats { detail } => {
                let frame = self.stats_frame(conn, detail);
                self.send(conn, &frame);
            }
            ClientFrame::Shutdown => self.stopping = true,
        }
    }

    /// Assigns a request id and queues the session for this batch's pump.
    fn accept_request(&mut self, conn: u64, sid: u64, read_at: Instant) {
        let req = self.next_req;
        self.next_req += 1;
        self.touched.push(Touched {
            conn,
            sid,
            req,
            accepted: read_at,
        });
    }

    /// Runs the coalesced scans for everything that moved this batch,
    /// queues each touched session's next frame, then flushes every
    /// connection's frames (error and `stats` frames included).
    fn advance(&mut self) {
        self.last_drained = std::mem::take(&mut self.batch_msgs);
        if self.touched.is_empty() {
            self.flush();
            return;
        }
        // Arm the profile scope only when telemetry is on: an unconditional
        // scope would put every span on the slow path and show up in
        // `serve.round_p99`.
        let profiling = isrl_obs::enabled();
        if profiling {
            isrl_obs::profile_begin();
        }
        let mut responded: Vec<(u64, u64, u64, u64, Instant)> = Vec::new(); // (conn, sid, req, round, accepted)
        let flushed = {
            let _batch = isrl_obs::span("serve_batch");
            let pump_started = Instant::now();
            self.registry.pump_all();
            isrl_obs::sketch_record("serve.pump_ms", pump_started.elapsed().as_secs_f64() * 1e3);

            let touched = std::mem::take(&mut self.touched);
            for t in touched {
                let Some(session) = self.registry.session(t.sid) else {
                    continue; // connection closed in the same batch
                };
                let round;
                if session.is_finished() {
                    let index = session
                        .recommendation()
                        .expect("a finished serving session always has a recommendation");
                    round = session.rounds() as u64;
                    let frame = ServerFrame::Done {
                        conn: t.conn,
                        session: t.sid,
                        req: t.req,
                        rounds: round,
                        index: index as u64,
                        tuple: self.registry.data().point(index).to_vec(),
                        truncated: session.truncated(),
                    };
                    if isrl_obs::enabled() {
                        isrl_obs::emit(
                            isrl_obs::Event::new("serve_session")
                                .field("algo", session.algo().label())
                                .field("user", t.sid)
                                .field("conn", t.conn)
                                .field("rounds", round)
                                .field("ms", session.elapsed().as_secs_f64() * 1e3),
                        );
                    }
                    self.drop_session(t.sid);
                    self.stats.sessions_completed += 1;
                    self.send(t.conn, &frame);
                } else {
                    round = session.rounds() as u64 + 1;
                    let (option1, option2) = {
                        let (a, b) = session
                            .current_points()
                            .expect("an unfinished pumped session has a question");
                        (a.to_vec(), b.to_vec())
                    };
                    let frame = ServerFrame::Question {
                        conn: t.conn,
                        session: t.sid,
                        round,
                        req: t.req,
                        option1,
                        option2,
                    };
                    self.last_req.insert(t.sid, t.req);
                    self.send(t.conn, &frame);
                }
                // `round` here is the round the *response* opens (or the
                // final count for `done`); the hello → first-question
                // request reports round 0.
                let reported_round = round.saturating_sub(1);
                responded.push((t.conn, t.sid, t.req, reported_round, t.accepted));
            }
            self.flush();
            Instant::now()
        };
        // A request's latency ends once its frame is written.
        let responded: Vec<(u64, u64, u64, u64, f64)> = responded
            .into_iter()
            .map(|(conn, sid, req, round, accepted)| {
                let ms = (flushed - accepted).as_secs_f64() * 1e3;
                (conn, sid, req, round, ms)
            })
            .collect();
        let pairs = if profiling {
            isrl_obs::profile_end()
        } else {
            Vec::new()
        };
        self.finish_batch(&responded, pairs, profiling);
    }

    /// Post-batch accounting: telemetry events, the rolling sketch, and
    /// the flight-recorder slow-round trigger.
    fn finish_batch(
        &mut self,
        responded: &[(u64, u64, u64, u64, f64)],
        pairs: Vec<(String, u64, Duration)>,
        profiling: bool,
    ) {
        self.stats.requests += responded.len() as u64;
        // Threshold from the rolling p99 *before* this batch is recorded,
        // so one stall cannot raise the bar it is judged against.
        let summary = self.rolling.summary();
        let warm = summary.count >= self.cfg.slow_warmup;
        let threshold_ms = self.cfg.slow_factor * summary.p99;

        let mut worst: Option<&(u64, u64, u64, u64, f64)> = None;
        for r in responded {
            let (conn, sid, req, round, ms) = *r;
            self.rolling.record(ms);
            if profiling {
                isrl_obs::add("serve.requests", 1);
                isrl_obs::emit(
                    isrl_obs::Event::new("serve_round")
                        .field("conn", conn)
                        .field("req", req)
                        .field("session", sid)
                        .field("round", round)
                        .field("ms", ms),
                );
                self.flight.record(FlightRecord {
                    conn,
                    req,
                    session: sid,
                    round,
                    ms,
                    spans: pairs.clone(),
                });
                if ms > threshold_ms && worst.map_or(true, |w| ms > w.4) {
                    worst = Some(r);
                }
            }
        }
        if !profiling {
            return;
        }
        // At most one dump per batch (the whole batch shares one stall),
        // and none inside the cooldown after an incident.
        let fired = match worst {
            Some(&(conn, sid, req, round, ms))
                if warm && self.since_slow >= self.cfg.slow_cooldown =>
            {
                let record = FlightRecord {
                    conn,
                    req,
                    session: sid,
                    round,
                    ms,
                    spans: pairs,
                };
                isrl_obs::emit(
                    self.flight
                        .slow_round_event(&record, threshold_ms, summary.p99),
                );
                isrl_obs::add("serve.slow_rounds", 1);
                self.stats.slow_rounds += 1;
                true
            }
            _ => false,
        };
        if fired {
            self.since_slow = 0;
        } else {
            self.since_slow = self.since_slow.saturating_add(responded.len() as u64);
        }
        isrl_obs::gauge_set(
            "serve.round_p99_us",
            (self.rolling.summary().p99 * 1e3) as u64,
        );
    }

    /// Builds the read-only RED-metrics snapshot answering a `stats`
    /// frame. Everything is already owned by the core thread, so this is
    /// a map scan — no pump, no pause.
    fn stats_frame(&mut self, conn: u64, detail: bool) -> ServerFrame {
        let busy: BTreeSet<u64> = self.owner.values().copied().collect();
        let round = self.rolling.summary();
        let batch = self.registry.stats();
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let errors = obj(self
            .errors_by_kind
            .iter()
            .map(|(k, v)| (*k, Json::from(*v)))
            .collect());
        let mut fields = vec![
            ("kind", Json::from("stats")),
            ("conn", Json::from(conn)),
            (
                "uptime_ms",
                Json::from(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "connections",
                obj(vec![
                    ("active", Json::from(self.writers.len())),
                    ("busy", Json::from(busy.len())),
                    (
                        "idle",
                        Json::from(self.writers.len().saturating_sub(busy.len())),
                    ),
                    ("opened", Json::from(self.conns_opened)),
                ]),
            ),
            (
                "sessions",
                obj(vec![
                    ("active", Json::from(self.owner.len())),
                    ("opened", Json::from(self.stats.sessions_opened)),
                    ("completed", Json::from(self.stats.sessions_completed)),
                    ("errors", Json::from(self.stats.errors)),
                ]),
            ),
            (
                "requests",
                obj(vec![
                    ("total", Json::from(self.stats.requests)),
                    ("window_s", Json::from(self.rolling.window().as_secs_f64())),
                    ("rate_per_s", Json::from(self.rolling.rate_per_sec())),
                ]),
            ),
            (
                "round_ms",
                obj(vec![
                    ("count", Json::from(round.count)),
                    ("p50", Json::from(round.p50)),
                    ("p90", Json::from(round.p90)),
                    ("p99", Json::from(round.p99)),
                    ("max", Json::from(round.max)),
                ]),
            ),
            ("errors_by_kind", errors),
            (
                "batch",
                obj(vec![
                    ("calls", Json::from(batch.calls)),
                    ("coalesced", Json::from(batch.coalesced)),
                    ("sessions_scanned", Json::from(batch.sessions_scanned)),
                    ("utilities", Json::from(batch.utilities)),
                    ("window_occupancy", Json::from(self.last_drained)),
                ]),
            ),
            (
                "flight",
                obj(vec![
                    ("depth", Json::from(self.flight.cap())),
                    ("buffered", Json::from(self.flight.len())),
                    ("recorded", Json::from(self.flight.recorded())),
                    ("slow_rounds", Json::from(self.stats.slow_rounds)),
                ]),
            ),
        ];
        if detail {
            let per_conn = Json::Arr(
                self.writers
                    .keys()
                    .map(|&c| {
                        let sessions = self.owner.values().filter(|&&o| o == c).count();
                        obj(vec![
                            ("conn", Json::from(c)),
                            ("sessions", Json::from(sessions)),
                        ])
                    })
                    .collect(),
            );
            fields.push(("per_conn", per_conn));
        }
        ServerFrame::Stats { body: obj(fields) }
    }

    fn error(
        &mut self,
        conn: u64,
        session: Option<u64>,
        req: Option<u64>,
        code: &'static str,
        message: String,
    ) {
        self.stats.errors += 1;
        *self.errors_by_kind.entry(code).or_insert(0) += 1;
        if isrl_obs::enabled() {
            isrl_obs::emit(
                isrl_obs::Event::new("serve_error")
                    .field("conn", conn)
                    .field("kind", code),
            );
        }
        let frame = ServerFrame::Error {
            conn,
            session,
            req,
            code: code.to_string(),
            message,
        };
        self.send(conn, &frame);
    }

    /// Queues `frame` in its connection's outbox for the next flush.
    fn send(&mut self, conn: u64, frame: &ServerFrame) {
        if let Some(writer) = self.writers.get_mut(&conn) {
            writer
                .outbox
                .extend_from_slice(&line_bytes(&frame.to_line()));
        }
    }

    /// Writes each connection's queued frames with one `write_all`. A
    /// failed write drops that connection's writer.
    fn flush(&mut self) {
        self.writers.retain(|_, writer| writer.flush());
    }
}
