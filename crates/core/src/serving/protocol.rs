//! The line-delimited JSON wire protocol.
//!
//! One frame per line, both directions. A client opens a session with
//! `hello`, the server replies with `question` frames (or `done`
//! immediately), the client echoes each question's round number back in
//! its `answer`, and the server closes the session with `done`. Anything
//! the server cannot accept yields an `error` frame scoped to the
//! offending session (or to no session for unparsable input) — the
//! connection and every other session stay live.
//!
//! **Wire-level tracing.** Every server frame carries the connection id
//! (`conn`, assigned at accept) and a request id (`req`): each accepted
//! `hello`/`answer` is a request, and the frame it produces echoes that
//! request's id. Clients *may* echo the last `req` they saw back in the
//! next `answer`; when present it must match the server's pending id for
//! the session or the answer is rejected (`req_mismatch`) — catching
//! split-brain clients that the round echo alone cannot. The pair
//! `(conn, req)` is what tags `serve_round`/`slow_round` telemetry, so
//! post-hoc `trace-report` can attribute latency per connection.
//!
//! A read-only `stats` frame snapshots the server's RED metrics (see
//! DESIGN.md §16 for the body schema); `isrl stats --connect` is a thin
//! client for it.
//!
//! ```text
//! → {"kind":"hello","algo":"ea","eps":0.1,"seed":42}
//! ← {"kind":"question","conn":1,"session":1,"round":1,"req":1,"option1":[..],"option2":[..]}
//! → {"kind":"answer","session":1,"round":1,"choice":1,"req":1}
//! ← {"kind":"done","conn":1,"session":1,"req":2,"rounds":4,"index":7,"tuple":[..],"truncated":false}
//! → {"kind":"stats"}
//! ← {"kind":"stats","conn":1,"uptime_ms":…,"sessions":{…},"round_ms":{…},…}
//! → {"kind":"shutdown"}
//! ```
//!
//! Frames are hand-rolled over [`isrl_obs::json`] — the workspace builds
//! with no serialization dependency. Every writer, server and clients
//! alike, sends a frame's [`line_bytes`] in one `write_all`.

use crate::serving::{choice_from_number, parse_choice, AlgoKind};
use isrl_obs::json::{self, Json};

/// A frame sent by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a session.
    Hello {
        /// Which registered policy to interact with.
        algo: AlgoKind,
        /// Regret threshold ε (default 0.1).
        eps: f64,
        /// Per-session randomness seed (default 0).
        seed: u64,
    },
    /// Answer the pending question of a session.
    Answer {
        /// The session id from the `question` frame.
        session: u64,
        /// The round being answered, echoed from the `question` frame —
        /// lets the server reject answers racing a stale question.
        round: u64,
        /// `true` = the first option is preferred.
        choice: bool,
        /// Optional echo of the `question` frame's request id; when
        /// present it must match or the answer is rejected.
        req: Option<u64>,
    },
    /// Ask for a read-only RED-metrics snapshot.
    Stats {
        /// `true` adds the per-connection session breakdown.
        detail: bool,
    },
    /// Ask the server to stop accepting work and exit cleanly.
    Shutdown,
}

/// A frame sent by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// The pending question of a session.
    Question {
        /// Connection the frame is for (assigned at accept).
        conn: u64,
        /// Session the question belongs to.
        session: u64,
        /// 1-based round number, to be echoed in the `answer`.
        round: u64,
        /// Request id of the `hello`/`answer` that produced this question;
        /// may be echoed in the next `answer`.
        req: u64,
        /// The first tuple's attribute values.
        option1: Vec<f64>,
        /// The second tuple's attribute values.
        option2: Vec<f64>,
    },
    /// The session finished; its recommendation.
    Done {
        /// Connection the frame is for.
        conn: u64,
        /// Session that finished.
        session: u64,
        /// Request id of the final `answer`.
        req: u64,
        /// Questions the user answered.
        rounds: u64,
        /// Dataset index of the recommended tuple.
        index: u64,
        /// The recommended tuple's attribute values.
        tuple: Vec<f64>,
        /// `true` when the session ended without certifying termination.
        truncated: bool,
    },
    /// A frame was rejected; the session (if any) and connection live on.
    Error {
        /// Connection the frame is for.
        conn: u64,
        /// The session the rejected frame addressed, when identifiable.
        session: Option<u64>,
        /// The client-supplied request id, when the rejected frame had one.
        req: Option<u64>,
        /// Machine-readable error kind (`parse`, `unknown_session`,
        /// `stale_round`, `req_mismatch`, `no_pending`, `open`,
        /// `frame_too_long`).
        code: String,
        /// Human-readable reason.
        message: String,
    },
    /// The RED-metrics snapshot answering a `stats` request. The body is
    /// the whole frame object (schema in DESIGN.md §16).
    Stats {
        /// The full frame, `kind`/`conn` fields included.
        body: Json,
    },
}

/// A frame line's wire bytes: the line plus its terminating `\n`, for a
/// single `write_all`. Writing the line and the newline separately sends
/// two segments, and Nagle's algorithm holds the second one back until
/// the peer's delayed ACK, about 40 ms later on Linux.
pub fn line_bytes(line: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    bytes
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num_field(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn id_field(obj: &Json, key: &str) -> Result<u64, String> {
    let v = num_field(obj, key)?;
    if v.fract() == 0.0 && (0.0..9.0e15).contains(&v) {
        Ok(v as u64)
    } else {
        Err(format!("field {key:?} must be a non-negative integer"))
    }
}

fn opt_id_field(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => Ok(Some(id_field(obj, key)?)),
    }
}

fn floats(value: &Json, key: &str) -> Result<Vec<f64>, String> {
    value
        .as_arr()
        .and_then(|items| items.iter().map(Json::as_f64).collect())
        .ok_or_else(|| format!("field {key:?} must be an array of numbers"))
}

fn kind_of(line: &str) -> Result<(Json, String), String> {
    let doc = json::parse(line)?;
    let kind = field(&doc, "kind")?
        .as_str()
        .ok_or_else(|| "field \"kind\" must be a string".to_string())?
        .to_string();
    Ok((doc, kind))
}

impl ClientFrame {
    /// Parses one client line. The error string becomes the `error`
    /// frame's message.
    pub fn parse(line: &str) -> Result<Self, String> {
        let (doc, kind) = kind_of(line)?;
        match kind.as_str() {
            "hello" => {
                let algo_text = field(&doc, "algo")?
                    .as_str()
                    .ok_or_else(|| "field \"algo\" must be a string".to_string())?;
                let algo = AlgoKind::parse(algo_text)
                    .ok_or_else(|| format!("unknown algorithm {algo_text:?} (want ea or aa)"))?;
                let eps = match doc.get("eps") {
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| "field \"eps\" must be a number".to_string())?,
                    None => 0.1,
                };
                let seed = match doc.get("seed") {
                    Some(_) => id_field(&doc, "seed")?,
                    None => 0,
                };
                Ok(ClientFrame::Hello { algo, eps, seed })
            }
            "answer" => {
                let session = id_field(&doc, "session")?;
                let round = id_field(&doc, "round")?;
                let choice = match field(&doc, "choice")? {
                    Json::Num(x) => choice_from_number(*x),
                    Json::Str(s) => parse_choice(s),
                    _ => None,
                }
                .ok_or_else(|| "field \"choice\" must be 1 or 2".to_string())?;
                let req = opt_id_field(&doc, "req")?;
                Ok(ClientFrame::Answer {
                    session,
                    round,
                    choice,
                    req,
                })
            }
            "stats" => {
                let detail = match doc.get("detail") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| "field \"detail\" must be a bool".to_string())?,
                };
                Ok(ClientFrame::Stats { detail })
            }
            "shutdown" => Ok(ClientFrame::Shutdown),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }

    /// Serializes the frame as one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            ClientFrame::Hello { algo, eps, seed } => Json::obj(vec![
                ("kind".into(), "hello".into()),
                ("algo".into(), algo.as_str().into()),
                ("eps".into(), (*eps).into()),
                ("seed".into(), (*seed).into()),
            ]),
            ClientFrame::Answer {
                session,
                round,
                choice,
                req,
            } => {
                let mut fields = vec![
                    ("kind".into(), "answer".into()),
                    ("session".into(), (*session).into()),
                    ("round".into(), (*round).into()),
                    ("choice".into(), if *choice { 1u64 } else { 2u64 }.into()),
                ];
                if let Some(r) = req {
                    fields.push(("req".into(), (*r).into()));
                }
                Json::obj(fields)
            }
            ClientFrame::Stats { detail } => {
                let mut fields = vec![("kind".into(), "stats".into())];
                if *detail {
                    fields.push(("detail".into(), true.into()));
                }
                Json::obj(fields)
            }
            ClientFrame::Shutdown => Json::obj(vec![("kind".into(), "shutdown".into())]),
        };
        obj.to_string()
    }
}

impl ServerFrame {
    /// Parses one server line (the loadgen's half of the conversation).
    pub fn parse(line: &str) -> Result<Self, String> {
        let (doc, kind) = kind_of(line)?;
        match kind.as_str() {
            "question" => Ok(ServerFrame::Question {
                conn: id_field(&doc, "conn")?,
                session: id_field(&doc, "session")?,
                round: id_field(&doc, "round")?,
                req: id_field(&doc, "req")?,
                option1: floats(field(&doc, "option1")?, "option1")?,
                option2: floats(field(&doc, "option2")?, "option2")?,
            }),
            "done" => Ok(ServerFrame::Done {
                conn: id_field(&doc, "conn")?,
                session: id_field(&doc, "session")?,
                req: id_field(&doc, "req")?,
                rounds: id_field(&doc, "rounds")?,
                index: id_field(&doc, "index")?,
                tuple: floats(field(&doc, "tuple")?, "tuple")?,
                truncated: field(&doc, "truncated")?
                    .as_bool()
                    .ok_or_else(|| "field \"truncated\" must be a bool".to_string())?,
            }),
            "error" => Ok(ServerFrame::Error {
                conn: id_field(&doc, "conn")?,
                session: opt_id_field(&doc, "session")?,
                req: opt_id_field(&doc, "req")?,
                code: field(&doc, "code")?
                    .as_str()
                    .ok_or_else(|| "field \"code\" must be a string".to_string())?
                    .to_string(),
                message: field(&doc, "message")?
                    .as_str()
                    .ok_or_else(|| "field \"message\" must be a string".to_string())?
                    .to_string(),
            }),
            "stats" => Ok(ServerFrame::Stats { body: doc }),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }

    /// Serializes the frame as one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            ServerFrame::Question {
                conn,
                session,
                round,
                req,
                option1,
                option2,
            } => Json::obj(vec![
                ("kind".into(), "question".into()),
                ("conn".into(), (*conn).into()),
                ("session".into(), (*session).into()),
                ("round".into(), (*round).into()),
                ("req".into(), (*req).into()),
                ("option1".into(), option1.as_slice().into()),
                ("option2".into(), option2.as_slice().into()),
            ]),
            ServerFrame::Done {
                conn,
                session,
                req,
                rounds,
                index,
                tuple,
                truncated,
            } => Json::obj(vec![
                ("kind".into(), "done".into()),
                ("conn".into(), (*conn).into()),
                ("session".into(), (*session).into()),
                ("req".into(), (*req).into()),
                ("rounds".into(), (*rounds).into()),
                ("index".into(), (*index).into()),
                ("tuple".into(), tuple.as_slice().into()),
                ("truncated".into(), (*truncated).into()),
            ]),
            ServerFrame::Error {
                conn,
                session,
                req,
                code,
                message,
            } => Json::obj(vec![
                ("kind".into(), "error".into()),
                ("conn".into(), (*conn).into()),
                ("session".into(), session.map_or(Json::Null, |s| s.into())),
                ("req".into(), req.map_or(Json::Null, |r| r.into())),
                ("code".into(), code.as_str().into()),
                ("message".into(), message.as_str().into()),
            ]),
            ServerFrame::Stats { body } => return body.to_string(),
        };
        obj.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Hello {
                algo: AlgoKind::Ea,
                eps: 0.1,
                seed: 42,
            },
            ClientFrame::Answer {
                session: 3,
                round: 7,
                choice: true,
                req: None,
            },
            ClientFrame::Answer {
                session: 3,
                round: 8,
                choice: false,
                req: Some(19),
            },
            ClientFrame::Stats { detail: false },
            ClientFrame::Stats { detail: true },
            ClientFrame::Shutdown,
        ];
        for f in frames {
            assert_eq!(ClientFrame::parse(&f.to_line()).unwrap(), f);
        }
    }

    #[test]
    fn line_bytes_terminate_the_line_once() {
        let line = ClientFrame::Shutdown.to_line();
        let bytes = line_bytes(&line);
        assert_eq!(&bytes[..line.len()], line.as_bytes());
        assert_eq!(&bytes[line.len()..], b"\n");
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Question {
                conn: 2,
                session: 1,
                round: 1,
                req: 11,
                option1: vec![1.0, 0.05],
                option2: vec![0.4, 0.85],
            },
            ServerFrame::Done {
                conn: 2,
                session: 1,
                req: 15,
                rounds: 4,
                index: 2,
                tuple: vec![0.6, 0.65],
                truncated: false,
            },
            ServerFrame::Error {
                conn: 2,
                session: None,
                req: None,
                code: "parse".into(),
                message: "unknown frame kind \"zap\"".into(),
            },
            ServerFrame::Error {
                conn: 2,
                session: Some(9),
                req: Some(31),
                code: "req_mismatch".into(),
                message: "request id 31 does not match".into(),
            },
        ];
        for f in frames {
            assert_eq!(ServerFrame::parse(&f.to_line()).unwrap(), f);
        }
    }

    #[test]
    fn stats_reply_round_trips_as_opaque_body() {
        let line = r#"{"kind":"stats","conn":3,"uptime_ms":12.5,"sessions":{"active":2}}"#;
        let f = ServerFrame::parse(line).unwrap();
        match &f {
            ServerFrame::Stats { body } => {
                assert_eq!(
                    body.get("conn").and_then(Json::as_f64),
                    Some(3.0),
                    "body keeps all fields"
                );
            }
            other => panic!("expected stats frame, got {other:?}"),
        }
        assert_eq!(ServerFrame::parse(&f.to_line()).unwrap(), f);
    }

    #[test]
    fn hello_defaults_apply() {
        let f = ClientFrame::parse(r#"{"kind":"hello","algo":"aa"}"#).unwrap();
        assert_eq!(
            f,
            ClientFrame::Hello {
                algo: AlgoKind::Aa,
                eps: 0.1,
                seed: 0,
            }
        );
    }

    #[test]
    fn answer_accepts_string_choice_and_optional_req() {
        let f =
            ClientFrame::parse(r#"{"kind":"answer","session":1,"round":1,"choice":"2"}"#).unwrap();
        assert_eq!(
            f,
            ClientFrame::Answer {
                session: 1,
                round: 1,
                choice: false,
                req: None,
            }
        );
        let f = ClientFrame::parse(r#"{"kind":"answer","session":1,"round":1,"choice":1,"req":4}"#)
            .unwrap();
        assert_eq!(
            f,
            ClientFrame::Answer {
                session: 1,
                round: 1,
                choice: true,
                req: Some(4),
            }
        );
    }

    #[test]
    fn malformed_client_lines_are_rejected() {
        for bad in [
            "",
            "{",
            r#"{"kind":"hello","algo":"ea""#,
            "[1,2]",
            r#"{"algo":"ea"}"#,
            r#"{"kind":"zap"}"#,
            r#"{"kind":"hello","algo":"xx"}"#,
            r#"{"kind":"hello","algo":"ea","eps":"hot"}"#,
            r#"{"kind":"answer","round":1,"choice":1}"#,
            r#"{"kind":"answer","session":1,"round":1,"choice":3}"#,
            r#"{"kind":"answer","session":1,"round":1,"choice":"maybe"}"#,
            r#"{"kind":"answer","session":-1,"round":1,"choice":1}"#,
            r#"{"kind":"answer","session":1.5,"round":1,"choice":1}"#,
            r#"{"kind":"answer","session":1,"round":1,"choice":1,"req":-2}"#,
            r#"{"kind":"answer","session":1,"round":1,"choice":1,"req":0.5}"#,
            r#"{"kind":"stats","detail":1}"#,
            r#"{"kind":"stats","detail":"yes"}"#,
        ] {
            assert!(ClientFrame::parse(bad).is_err(), "must reject {bad:?}");
        }
    }
}
