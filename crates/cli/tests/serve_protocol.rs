//! Serve-path protocol conformance battery (DESIGN.md §14).
//!
//! Runs the real binary (`serve --listen`) and speaks the line-JSON
//! protocol over TCP, pinning:
//!
//! * golden transcripts — the same `hello` + answer stream yields
//!   byte-identical server frames (modulo the session id), across both
//!   repeat sessions on one connection and separate connections;
//! * malformed frames — truncated JSON, unknown kinds, answers for
//!   unknown/foreign sessions, and stale-round answers each get an
//!   `error` frame back without killing the connection, the server, or
//!   any other live session;
//! * request-id echo (DESIGN.md §16) — every `question` carries a `req`
//!   id; an answer echoing the wrong id is rejected with a
//!   `req_mismatch` error frame while the pending round stays answerable;
//! * the frame-length cap — a line longer than 64 KiB gets one
//!   `frame_too_long` error frame and its connection is closed, while
//!   other connections' sessions keep their golden transcripts;
//! * the read-only `stats` frame — a live RED-metrics snapshot with its
//!   documented sections, and a malformed `stats` request erroring
//!   without collateral;
//! * batched frame writes — sessions interleaved on one connection keep
//!   their solo transcripts, and a round pays no Nagle/delayed-ACK stall;
//! * clean shutdown — a `shutdown` frame stops the server with exit 0
//!   and the batch counters on stdout.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use isrl_core::serving::protocol::line_bytes;

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("isrl_serve_protocol_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// Trains the tiny checkpoint every server in this file serves.
fn train_ckpt(tag: &str) -> String {
    let ckpt = tmp(&format!("{tag}.ckpt"));
    let out = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args([
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
        ])
        .output()
        .expect("failed to spawn isrl train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    ckpt
}

struct Server {
    child: Child,
}

impl Server {
    /// Starts `serve --listen 127.0.0.1:0` and polls the port file.
    fn start(ckpt: &str, tag: &str) -> (Server, u16) {
        let port_file = tmp(&format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_isrl"))
            .args([
                "serve",
                "--builtin",
                "anti:40x2",
                "--model",
                ckpt,
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn isrl serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        let port = loop {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse::<u16>().ok())
            {
                break p;
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        (Server { child }, port)
    }

    /// Waits for exit (the shutdown frame must already be sent) and
    /// returns the server's stdout; asserts exit 0.
    fn wait(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(s) = self.child.try_wait().expect("try_wait failed") {
                break s;
            }
            assert!(Instant::now() < deadline, "server did not exit");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stdout = String::new();
        self.child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut stdout)
            .unwrap();
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert!(
            status.success(),
            "server exited {:?}; stderr:\n{stderr}",
            status.code()
        );
        stdout
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> Conn {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect failed");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Conn {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(&line_bytes(line)).unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read failed");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }
}

/// Pulls the integer value of `"key":N` out of a frame.
fn field_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + needle.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn kind_of(line: &str) -> &'static str {
    for k in ["question", "done", "error", "stats"] {
        if line.contains(&format!("\"kind\":\"{k}\"")) {
            return k;
        }
    }
    panic!("unrecognized frame: {line}");
}

fn hello(seed: u64) -> String {
    format!(r#"{{"kind":"hello","algo":"ea","eps":0.2,"seed":{seed}}}"#)
}

fn answer(session: u64, round: u64, choice: u64) -> String {
    format!(r#"{{"kind":"answer","session":{session},"round":{round},"choice":{choice}}}"#)
}

fn answer_req(session: u64, round: u64, choice: u64, req: u64) -> String {
    format!(
        r#"{{"kind":"answer","session":{session},"round":{round},"choice":{choice},"req":{req}}}"#
    )
}

/// Strips the per-run wire ids (`session`, `conn`, `req`) from a frame so
/// transcripts from different sessions/connections compare byte-equal.
fn normalize(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["session", "conn", "req"] {
        if out.contains(&format!("\"{key}\":")) {
            let v = field_u64(line, key);
            out = out.replace(&format!("\"{key}\":{v}"), &format!("\"{key}\":_"));
        }
    }
    out
}

/// Runs one full session (always answering option 1, echoing each
/// question's request id) and returns every server frame with the wire
/// ids normalized out.
fn run_session(conn: &mut Conn, seed: u64) -> Vec<String> {
    conn.send(&hello(seed));
    let mut transcript = Vec::new();
    loop {
        let line = conn.recv();
        let sid = field_u64(&line, "session");
        transcript.push(normalize(&line));
        match kind_of(&line) {
            "question" => {
                let round = field_u64(&line, "round");
                let req = field_u64(&line, "req");
                conn.send(&answer_req(sid, round, 1, req));
            }
            "done" => return transcript,
            other => panic!("unexpected {other} frame: {line}"),
        }
    }
}

#[test]
fn golden_transcripts_are_reproducible() {
    let ckpt = train_ckpt("golden");
    let (server, port) = Server::start(&ckpt, "golden");

    let mut conn = Conn::open(port);
    let first = run_session(&mut conn, 5);
    assert!(first.len() >= 2, "expected questions then done: {first:?}");
    assert_eq!(kind_of(first.last().unwrap()), "done");

    // Same connection, fresh session, same seed: byte-identical frames.
    let repeat = run_session(&mut conn, 5);
    assert_eq!(first, repeat, "same seed must replay identically");

    // A different connection is just as deterministic.
    let mut other = Conn::open(port);
    assert_eq!(first, run_session(&mut other, 5));

    // A different seed should (for this dataset) diverge somewhere.
    assert_ne!(first, run_session(&mut conn, 6));

    conn.send(r#"{"kind":"shutdown"}"#);
    let stdout = server.wait();
    assert!(
        stdout.contains("serve.batch.calls"),
        "missing batch counters:\n{stdout}"
    );
}

#[test]
fn malformed_frames_get_error_frames_without_collateral() {
    let ckpt = train_ckpt("malformed");
    let (server, port) = Server::start(&ckpt, "malformed");

    // A live session on connection 1, paused at its first question.
    let mut conn1 = Conn::open(port);
    conn1.send(&hello(9));
    let q1 = conn1.recv();
    assert_eq!(kind_of(&q1), "question");
    let sid1 = field_u64(&q1, "session");

    // Connection 2 sends garbage; each line gets an error frame and the
    // connection stays usable.
    let mut conn2 = Conn::open(port);
    for bad in [
        r#"{"kind":"hello","algo":"#, // truncated JSON
        r#"{"kind":"mystery"}"#,      // unknown kind
        "[1,2,3]",                    // not an object
        r#"{"kind":"answer","session":999,"round":1,"choice":1}"#, // never opened
    ] {
        conn2.send(bad);
        let resp = conn2.recv();
        assert_eq!(kind_of(&resp), "error", "for {bad}: {resp}");
    }

    // Sessions are only addressable from their owning connection.
    conn2.send(&answer(sid1, 1, 1));
    let resp = conn2.recv();
    assert_eq!(kind_of(&resp), "error");
    assert!(
        resp.contains("unknown session"),
        "foreign-session answer should be rejected: {resp}"
    );

    // The abused connection still serves a full session…
    let transcript = run_session(&mut conn2, 5);
    assert_eq!(kind_of(transcript.last().unwrap()), "done");

    // …and the paused session on connection 1 was never perturbed. An
    // answer for a round that is not pending is rejected without
    // advancing anything…
    conn1.send(&answer(sid1, 5, 1));
    let resp = conn1.recv();
    assert_eq!(kind_of(&resp), "error", "wrong-round answer: {resp}");
    assert!(resp.contains("round"), "should name the round: {resp}");

    // …then the still-pending round 1 answers normally through to done.
    conn1.send(&answer(sid1, 1, 1));
    let mut line = conn1.recv();
    loop {
        match kind_of(&line) {
            "done" => break,
            "question" => {
                conn1.send(&answer(sid1, field_u64(&line, "round"), 1));
                line = conn1.recv();
            }
            other => panic!("unexpected {other} frame: {line}"),
        }
    }

    // A double answer after completion hits a closed session.
    conn1.send(&answer(sid1, 1, 1));
    let resp = conn1.recv();
    assert_eq!(kind_of(&resp), "error", "answer after done: {resp}");

    conn1.send(r#"{"kind":"shutdown"}"#);
    let stdout = server.wait();
    // Every malformed line above was counted on the server side too.
    let errors: u64 = stdout
        .lines()
        .find(|l| l.starts_with("sessions:"))
        .and_then(|l| l.split_whitespace().nth(5))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no sessions line in stdout:\n{stdout}"));
    assert!(errors >= 7, "expected >= 7 error frames, saw {errors}");
}

#[test]
fn oversize_line_closes_its_connection_without_collateral() {
    let ckpt = train_ckpt("oversize");
    let (server, port) = Server::start(&ckpt, "oversize");
    let golden = run_session(&mut Conn::open(port), 5);

    // One peer streams up to 4 MiB without ever sending a newline. The
    // server must cut it off at 64 KiB; past that, writes fail once the
    // connection is closed.
    let mut hog = Conn::open(port);
    hog.writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut hog_writer = hog.writer.try_clone().unwrap();
    let streamer = std::thread::spawn(move || {
        let chunk = [b'x'; 4096];
        for _ in 0..1024 {
            if hog_writer.write_all(&chunk).is_err() {
                return;
            }
        }
    });

    // Meanwhile a second connection runs a full session, unperturbed.
    let mut other = Conn::open(port);
    assert_eq!(golden, run_session(&mut other, 5));

    // The hog gets exactly one error frame, then the connection closes.
    let resp = hog.recv();
    assert_eq!(kind_of(&resp), "error", "oversize line: {resp}");
    assert!(
        resp.contains("\"code\":\"frame_too_long\""),
        "expected frame_too_long code: {resp}"
    );
    let mut rest = String::new();
    match hog.reader.read_line(&mut rest) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("connection stayed open after an oversize line: {rest}"),
    }
    streamer.join().unwrap();

    // The server still serves the golden sequence to new connections.
    assert_eq!(golden, run_session(&mut Conn::open(port), 5));
    other.send(r#"{"kind":"shutdown"}"#);
    server.wait();
}

#[test]
fn request_id_mismatch_is_rejected_without_collateral() {
    let ckpt = train_ckpt("reqid");
    let (server, port) = Server::start(&ckpt, "reqid");

    let mut conn = Conn::open(port);
    conn.send(&hello(9));
    let q = conn.recv();
    assert_eq!(kind_of(&q), "question");
    let sid = field_u64(&q, "session");
    let round = field_u64(&q, "round");
    let req = field_u64(&q, "req");

    // Echoing a request id the server never attached to this question is
    // a split-brain answer: rejected by code, session untouched.
    conn.send(&answer_req(sid, round, 1, req + 999));
    let resp = conn.recv();
    assert_eq!(kind_of(&resp), "error", "req mismatch: {resp}");
    assert!(
        resp.contains("\"code\":\"req_mismatch\""),
        "expected req_mismatch code: {resp}"
    );

    // The pending round is still answerable with the correct echo, and
    // the session runs through to done.
    conn.send(&answer_req(sid, round, 1, req));
    let mut line = conn.recv();
    loop {
        match kind_of(&line) {
            "done" => break,
            "question" => {
                let r = field_u64(&line, "round");
                let rq = field_u64(&line, "req");
                conn.send(&answer_req(sid, r, 1, rq));
                line = conn.recv();
            }
            other => panic!("unexpected {other} frame: {line}"),
        }
    }

    // An answer that omits `req` entirely is still accepted (the echo is
    // opt-in), pinned by a fresh session answered the legacy way.
    conn.send(&hello(11));
    let q = conn.recv();
    assert_eq!(kind_of(&q), "question");
    let sid = field_u64(&q, "session");
    conn.send(&answer(sid, field_u64(&q, "round"), 1));
    let next = conn.recv();
    assert_ne!(kind_of(&next), "error", "legacy answer rejected: {next}");

    conn.send(r#"{"kind":"shutdown"}"#);
    server.wait();
}

#[test]
fn stats_frame_snapshots_red_metrics_live() {
    let ckpt = train_ckpt("stats");
    let (server, port) = Server::start(&ckpt, "stats");

    // A session mid-flight so the snapshot has something to show.
    let mut busy = Conn::open(port);
    busy.send(&hello(9));
    let q = busy.recv();
    assert_eq!(kind_of(&q), "question");

    let mut conn = Conn::open(port);
    // Malformed stats request: `detail` must be a boolean. The error
    // names the code and the connection survives.
    conn.send(r#"{"kind":"stats","detail":1}"#);
    let resp = conn.recv();
    assert_eq!(kind_of(&resp), "error", "bad detail: {resp}");
    assert!(resp.contains("\"code\":\"parse\""), "code: {resp}");

    conn.send(r#"{"kind":"stats"}"#);
    let snap = conn.recv();
    assert_eq!(kind_of(&snap), "stats", "stats reply: {snap}");
    for section in [
        "\"uptime_ms\"",
        "\"connections\"",
        "\"sessions\"",
        "\"requests\"",
        "\"round_ms\"",
        "\"errors_by_kind\"",
        "\"batch\"",
        "\"flight\"",
    ] {
        assert!(snap.contains(section), "missing {section}: {snap}");
    }
    // The busy connection's open session and served request are visible.
    assert!(field_u64(&snap, "active") >= 1, "no active conns: {snap}");
    assert!(field_u64(&snap, "total") >= 1, "no requests: {snap}");
    // The parse error above is broken out by kind.
    assert!(snap.contains("\"parse\":1"), "error kinds: {snap}");

    // `--detail` adds the per-connection breakdown.
    conn.send(r#"{"kind":"stats","detail":true}"#);
    let snap = conn.recv();
    assert!(snap.contains("\"per_conn\""), "missing per_conn: {snap}");

    // The paused session was never perturbed: it still answers round 1.
    let sid = field_u64(&q, "session");
    busy.send(&answer_req(sid, 1, 1, field_u64(&q, "req")));
    let next = busy.recv();
    assert_ne!(kind_of(&next), "error", "paused session broke: {next}");

    // The `isrl stats` subcommand renders the same snapshot human-first.
    let out = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args(["stats", "--connect", &format!("127.0.0.1:{port}")])
        .output()
        .expect("failed to spawn isrl stats");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "isrl stats failed: {text}");
    assert!(text.contains("round latency:"), "stats output: {text}");
    let json = Command::new(env!("CARGO_BIN_EXE_isrl"))
        .args(["stats", "--connect", &format!("127.0.0.1:{port}"), "--json"])
        .output()
        .expect("failed to spawn isrl stats --json");
    let text = String::from_utf8_lossy(&json.stdout);
    assert!(json.status.success(), "isrl stats --json failed: {text}");
    assert!(
        text.trim_start().starts_with('{') && text.contains("\"round_ms\""),
        "json output: {text}"
    );

    conn.send(r#"{"kind":"shutdown"}"#);
    server.wait();
}

#[test]
fn interleaved_sessions_on_one_connection_keep_their_transcripts() {
    let ckpt = train_ckpt("interleave");
    let (server, port) = Server::start(&ckpt, "interleave");
    let seeds: Vec<u64> = (5..13).collect();
    let solo: Vec<Vec<String>> = seeds
        .iter()
        .map(|&seed| run_session(&mut Conn::open(port), seed))
        .collect();

    // All hellos back to back on one connection, then every open
    // session's answer back to back each round, so one batch owes the
    // connection several frames.
    let mut conn = Conn::open(port);
    for &seed in &seeds {
        conn.send(&hello(seed));
    }
    // The server answers a connection's requests in the order it read
    // them, so the k-th new session id belongs to the k-th hello.
    let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut transcripts: Vec<Vec<String>> = vec![Vec::new(); seeds.len()];
    let mut outstanding = seeds.len();
    while outstanding > 0 {
        let mut answers = Vec::new();
        for _ in 0..outstanding {
            let line = conn.recv();
            let sid = field_u64(&line, "session");
            let next = slot_of.len();
            let slot = *slot_of.entry(sid).or_insert(next);
            transcripts[slot].push(normalize(&line));
            match kind_of(&line) {
                "question" => answers.push(answer_req(
                    sid,
                    field_u64(&line, "round"),
                    1,
                    field_u64(&line, "req"),
                )),
                "done" => {}
                other => panic!("unexpected {other} frame: {line}"),
            }
        }
        for answer in &answers {
            conn.send(answer);
        }
        outstanding = answers.len();
    }
    assert_eq!(slot_of.len(), seeds.len(), "one session per hello");
    for ((seed, alone), interleaved) in seeds.iter().zip(&solo).zip(&transcripts) {
        assert_eq!(alone, interleaved, "seed {seed} diverged when interleaved");
    }

    conn.send(r#"{"kind":"shutdown"}"#);
    server.wait();
}

/// Sends `line`, reads the reply, and records the client round in ms.
fn timed_request(conn: &mut Conn, line: &str, rounds_ms: &mut Vec<f64>) -> String {
    let sent = Instant::now();
    conn.send(line);
    let reply = conn.recv();
    rounds_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    reply
}

#[test]
fn served_rounds_pay_no_delayed_ack_stall() {
    let ckpt = train_ckpt("nodelay");
    let (server, port) = Server::start(&ckpt, "nodelay");

    // Whole sessions back to back on one connection until at least 30
    // rounds are timed. A frame that leaves as two segments stalls each
    // round on the client's delayed ACK, 40 ms or more on Linux.
    let mut conn = Conn::open(port);
    let mut rounds_ms = Vec::new();
    let mut seed = 0;
    while rounds_ms.len() < 30 {
        let mut line = timed_request(&mut conn, &hello(seed), &mut rounds_ms);
        while kind_of(&line) == "question" {
            let answer = answer_req(
                field_u64(&line, "session"),
                field_u64(&line, "round"),
                1,
                field_u64(&line, "req"),
            );
            line = timed_request(&mut conn, &answer, &mut rounds_ms);
        }
        assert_eq!(kind_of(&line), "done", "unexpected frame: {line}");
        seed += 1;
    }
    rounds_ms.sort_by(f64::total_cmp);
    let median = rounds_ms[rounds_ms.len() / 2];
    assert!(
        median < 15.0,
        "median client round {median:.2} ms over {} rounds: {rounds_ms:?}",
        rounds_ms.len()
    );

    conn.send(r#"{"kind":"shutdown"}"#);
    server.wait();
}
