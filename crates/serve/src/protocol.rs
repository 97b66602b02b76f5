//! The `napel-serve` wire protocol: newline-delimited text with a
//! versioned header.
//!
//! A session opens with the client sending the header line
//! ([`PROTOCOL_HEADER`]); the server answers `ok - napel-serve v1` and
//! then speaks request/response until either side closes. Every request
//! carries a client-chosen id token echoed in its response, so responses
//! may arrive out of order (batching and sharding reorder freely) and the
//! client can account for every request it sent — the "zero lost
//! acknowledged requests" invariant the chaos tests enforce.
//!
//! Requests:
//!
//! ```text
//! predict <id> <model-key> <f64> <f64> ...   score one feature row
//! ping <id>                                  liveness probe
//! stats <id>                                 live server counters
//! metrics <id>                               Prometheus text exposition
//! trace <id> [max]                           drain sampled request traces
//! shutdown <id>                              begin a clean drain
//! panic <id>                                 chaos mode: panic the worker
//! stall <id> <millis>                        chaos mode: occupy the worker
//! quit                                       close this connection
//! ```
//!
//! Responses:
//!
//! ```text
//! ok <id> <payload...>
//! err <id> <kind> <detail...>
//! ```
//!
//! `metrics` is the one multi-line response in the protocol, and it is
//! block-framed so line-oriented clients stay simple: the server sends
//! `ok <id> metrics <n>`, then exactly `n` raw exposition lines, then a
//! lone `.` terminator. The whole block is written contiguously, so it
//! never interleaves with other responses on the connection. `trace`
//! stays single-line: its payload is one JSON object holding at most
//! [`TRACE_MAX_PER_REQUEST`] traces (drain repeatedly for more).
//!
//! where `<kind>` is one of [`ErrorKind`]'s tokens. Hostile input is a
//! first-class concern: lines are capped at [`MAX_LINE_BYTES`] (the cap is
//! enforced *while reading*, so an attacker cannot balloon server memory
//! by never sending a newline), non-UTF-8 bytes and unparsable requests
//! yield a typed `err ... protocol ...` response after which the server
//! closes the connection, and model keys are restricted to a safe
//! character set so a request can never name a path outside the model
//! directory.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::time::Duration;

/// The versioned header both sides must agree on, and the first line a
/// client sends.
pub const PROTOCOL_HEADER: &str = "napel-serve v1";

/// Hard cap on a single protocol line, in bytes. A `predict` row of ~400
/// features at ~24 bytes per float is under 10 KiB; 64 KiB leaves
/// generous headroom while bounding per-connection buffer growth.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The id used when a response cannot echo a client id (handshake
/// replies, and errors for lines too mangled to carry one).
pub const NO_ID: &str = "-";

/// Most traces one `trace` response carries. 64 traces at ~300 bytes
/// each keeps the single-line JSON payload far inside
/// [`MAX_LINE_BYTES`], which the client enforces on responses too.
pub const TRACE_MAX_PER_REQUEST: usize = 64;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score one feature row against the named model bundle.
    Predict {
        /// Client-chosen id echoed in the response.
        id: String,
        /// Model key (resolves to `<models-dir>/<key>.napel`).
        model: String,
        /// Raw combined feature row.
        row: Vec<f64>,
    },
    /// Liveness probe; answered inline by the connection handler.
    Ping {
        /// Client-chosen id echoed in the response.
        id: String,
    },
    /// Live counter snapshot; answered inline by the connection handler.
    Stats {
        /// Client-chosen id echoed in the response.
        id: String,
    },
    /// Live Prometheus text exposition; answered inline as a block-framed
    /// multi-line response.
    Metrics {
        /// Client-chosen id echoed in the response.
        id: String,
    },
    /// Drain up to `max` sampled request traces from the trace ring.
    Trace {
        /// Client-chosen id echoed in the response.
        id: String,
        /// Most traces to return (clamped to [`TRACE_MAX_PER_REQUEST`]).
        max: usize,
    },
    /// Begin a clean drain of the whole server.
    Shutdown {
        /// Client-chosen id echoed in the response.
        id: String,
    },
    /// Chaos mode only: panic the worker that dequeues this request
    /// (exercises the supervision/restart path).
    Panic {
        /// Client-chosen id echoed in the response.
        id: String,
    },
    /// Chaos mode only: occupy the worker for the given duration
    /// (exercises queue backpressure and deadlines).
    Stall {
        /// Client-chosen id echoed in the response.
        id: String,
        /// How long the worker sleeps.
        millis: u64,
    },
    /// Close this connection cleanly.
    Quit,
}

impl Request {
    /// The request's id, if it carries one.
    pub fn id(&self) -> &str {
        match self {
            Request::Predict { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Trace { id, .. }
            | Request::Shutdown { id }
            | Request::Panic { id }
            | Request::Stall { id, .. } => id,
            Request::Quit => NO_ID,
        }
    }
}

/// Typed error categories carried on the wire (`err <id> <kind> ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was malformed (unknown command, bad
    /// float, oversized line, non-UTF-8 bytes, missing header...). The
    /// server closes the connection after reporting one of these.
    Protocol,
    /// The named model bundle is missing, unreadable, or corrupt.
    Model,
    /// The feature row does not match the model's schema.
    Schema,
    /// Load shedding: the shard's queue was at its high-water mark.
    Shed,
    /// The request sat in the queue past its deadline and was dropped
    /// before wasting a worker.
    Deadline,
    /// The server is draining and no longer admits work.
    Shutdown,
    /// A worker panicked while this request was in flight, or the
    /// shard's restart circuit breaker is open.
    Internal,
}

impl ErrorKind {
    /// Stable on-wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Model => "model",
            ErrorKind::Schema => "schema",
            ErrorKind::Shed => "shed",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses an on-wire token.
    pub fn parse(tok: &str) -> Option<ErrorKind> {
        Some(match tok {
            "protocol" => ErrorKind::Protocol,
            "model" => ErrorKind::Model,
            "schema" => ErrorKind::Schema,
            "shed" => ErrorKind::Shed,
            "deadline" => ErrorKind::Deadline,
            "shutdown" => ErrorKind::Shutdown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success: `ok <id> <payload>`.
    Ok {
        /// Echoed request id.
        id: String,
        /// Command-specific payload (may be empty).
        payload: String,
    },
    /// Failure: `err <id> <kind> <detail>`.
    Err {
        /// Echoed request id (or [`NO_ID`]).
        id: String,
        /// Typed category.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// A success response.
    pub fn ok(id: impl Into<String>, payload: impl Into<String>) -> Response {
        Response::Ok {
            id: id.into(),
            payload: payload.into(),
        }
    }

    /// An error response.
    pub fn error(id: impl Into<String>, kind: ErrorKind, detail: impl Into<String>) -> Response {
        Response::Err {
            id: id.into(),
            kind,
            detail: detail.into(),
        }
    }

    /// The echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => id,
        }
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }

    /// Renders the response as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Ok { id, payload } if payload.is_empty() => format!("ok {id}"),
            Response::Ok { id, payload } => format!("ok {id} {payload}"),
            Response::Err { id, kind, detail } => format!("err {id} {kind} {detail}"),
        }
    }

    /// Parses a wire line (the client side of the protocol).
    pub fn parse(line: &str) -> Option<Response> {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("ok ") {
            let (id, payload) = match rest.split_once(' ') {
                Some((id, payload)) => (id, payload),
                None => (rest, ""),
            };
            return Some(Response::ok(id, payload));
        }
        let rest = line.strip_prefix("err ")?;
        let (id, rest) = rest.split_once(' ')?;
        let (kind_tok, detail) = match rest.split_once(' ') {
            Some((k, d)) => (k, d),
            None => (rest, ""),
        };
        Some(Response::error(id, ErrorKind::parse(kind_tok)?, detail))
    }
}

/// Why a request line failed to parse. Each variant renders to a typed
/// `err ... protocol ...` response via [`ProtocolError::to_response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line held bytes that are not UTF-8.
    NotUtf8,
    /// A line exceeded [`MAX_LINE_BYTES`].
    Oversized {
        /// The enforced cap.
        limit: usize,
    },
    /// The first token is not a known command.
    UnknownCommand(String),
    /// The command is missing its id token.
    MissingId(&'static str),
    /// A `predict` is missing its model key or row.
    Missing {
        /// Echoed id.
        id: String,
        /// What was missing.
        what: &'static str,
    },
    /// A model key holds characters outside `[A-Za-z0-9._-]`.
    BadModelKey {
        /// Echoed id.
        id: String,
        /// The offending key.
        key: String,
    },
    /// A feature token is not a finite float.
    BadFloat {
        /// Echoed id.
        id: String,
        /// The offending token.
        token: String,
    },
    /// A chaos-only command arrived while chaos mode is off.
    ChaosDisabled {
        /// Echoed id.
        id: String,
        /// The refused command.
        command: &'static str,
    },
    /// The session did not open with [`PROTOCOL_HEADER`].
    BadHeader(String),
}

impl ProtocolError {
    /// The id the error response should echo ([`NO_ID`] when the line was
    /// too mangled to carry one).
    pub fn id(&self) -> &str {
        match self {
            ProtocolError::Missing { id, .. }
            | ProtocolError::BadModelKey { id, .. }
            | ProtocolError::BadFloat { id, .. }
            | ProtocolError::ChaosDisabled { id, .. } => id,
            _ => NO_ID,
        }
    }

    /// The typed error response for this parse failure.
    pub fn to_response(&self) -> Response {
        Response::error(self.id(), ErrorKind::Protocol, self.to_string())
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NotUtf8 => write!(f, "line is not UTF-8"),
            ProtocolError::Oversized { limit } => {
                write!(f, "line exceeds the {limit}-byte cap")
            }
            ProtocolError::UnknownCommand(cmd) => write!(f, "unknown command `{cmd}`"),
            ProtocolError::MissingId(cmd) => write!(f, "`{cmd}` needs an id"),
            ProtocolError::Missing { what, .. } => write!(f, "predict lacks {what}"),
            ProtocolError::BadModelKey { key, .. } => {
                write!(
                    f,
                    "model key `{key}` holds characters outside [A-Za-z0-9._-]"
                )
            }
            ProtocolError::BadFloat { token, .. } => {
                write!(f, "`{token}` is not a finite number")
            }
            ProtocolError::ChaosDisabled { command, .. } => {
                write!(
                    f,
                    "`{command}` requests need the server started with --chaos"
                )
            }
            ProtocolError::BadHeader(line) => {
                write!(f, "expected the `{PROTOCOL_HEADER}` header, got `{line}`")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Whether `key` is a safe model key: nonempty, at most 128 bytes, only
/// `[A-Za-z0-9._-]`. The character set excludes path separators, so a key
/// can never escape the model directory.
pub fn valid_model_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 128
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Parses one request line. `chaos` gates the fault-injection commands.
///
/// # Errors
///
/// A [`ProtocolError`] describing the malformation; render it with
/// [`ProtocolError::to_response`] and close the connection.
pub fn parse_request(line: &str, chaos: bool) -> Result<Request, ProtocolError> {
    let mut toks = line.split_ascii_whitespace();
    let cmd = toks.next().unwrap_or("");
    match cmd {
        "predict" => {
            let id = toks
                .next()
                .ok_or(ProtocolError::MissingId("predict"))?
                .to_string();
            let model = toks
                .next()
                .ok_or(ProtocolError::Missing {
                    id: id.clone(),
                    what: "a model key",
                })?
                .to_string();
            if !valid_model_key(&model) {
                return Err(ProtocolError::BadModelKey { id, key: model });
            }
            let mut row = Vec::new();
            for tok in toks {
                let v: f64 = tok.parse().map_err(|_| ProtocolError::BadFloat {
                    id: id.clone(),
                    token: tok.to_string(),
                })?;
                if !v.is_finite() {
                    return Err(ProtocolError::BadFloat {
                        id,
                        token: tok.to_string(),
                    });
                }
                row.push(v);
            }
            if row.is_empty() {
                return Err(ProtocolError::Missing {
                    id,
                    what: "a feature row",
                });
            }
            Ok(Request::Predict { id, model, row })
        }
        "ping" => Ok(Request::Ping {
            id: toks
                .next()
                .ok_or(ProtocolError::MissingId("ping"))?
                .to_string(),
        }),
        "stats" => Ok(Request::Stats {
            id: toks
                .next()
                .ok_or(ProtocolError::MissingId("stats"))?
                .to_string(),
        }),
        "metrics" => Ok(Request::Metrics {
            id: toks
                .next()
                .ok_or(ProtocolError::MissingId("metrics"))?
                .to_string(),
        }),
        "trace" => {
            let id = toks
                .next()
                .ok_or(ProtocolError::MissingId("trace"))?
                .to_string();
            let max = match toks.next() {
                Some(tok) => tok
                    .parse::<usize>()
                    .ok()
                    .filter(|&m| m > 0)
                    .ok_or_else(|| ProtocolError::BadFloat {
                        id: id.clone(),
                        token: tok.to_string(),
                    })?,
                None => TRACE_MAX_PER_REQUEST,
            };
            Ok(Request::Trace {
                id,
                max: max.min(TRACE_MAX_PER_REQUEST),
            })
        }
        "shutdown" => Ok(Request::Shutdown {
            id: toks
                .next()
                .ok_or(ProtocolError::MissingId("shutdown"))?
                .to_string(),
        }),
        "panic" => {
            let id = toks
                .next()
                .ok_or(ProtocolError::MissingId("panic"))?
                .to_string();
            if !chaos {
                return Err(ProtocolError::ChaosDisabled {
                    id,
                    command: "panic",
                });
            }
            Ok(Request::Panic { id })
        }
        "stall" => {
            let id = toks
                .next()
                .ok_or(ProtocolError::MissingId("stall"))?
                .to_string();
            if !chaos {
                return Err(ProtocolError::ChaosDisabled {
                    id,
                    command: "stall",
                });
            }
            let millis = toks.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                ProtocolError::BadFloat {
                    id: id.clone(),
                    token: "(stall millis)".to_string(),
                }
            })?;
            Ok(Request::Stall { id, millis })
        }
        "quit" => Ok(Request::Quit),
        other => Err(ProtocolError::UnknownCommand(other.to_string())),
    }
}

/// What [`LineReader::next_line`] can report besides a line.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete line (newline stripped, not yet UTF-8-checked).
    Line(Vec<u8>),
    /// Orderly end of stream.
    Eof,
    /// A line exceeded [`MAX_LINE_BYTES`] before its newline arrived.
    Oversized,
    /// The underlying read timed out (a slow or stalled client).
    TimedOut,
    /// Any other I/O failure.
    Io(io::Error),
}

/// An incremental, cap-enforcing line reader.
///
/// Unlike `BufRead::read_line`, the cap is enforced *while* bytes
/// accumulate: a peer that streams forever without a newline is cut off
/// at [`MAX_LINE_BYTES`] instead of growing the buffer unboundedly, and a
/// read timeout on the underlying stream surfaces as
/// [`ReadEvent::TimedOut`] instead of an unstructured error.
pub struct LineReader<R: Read> {
    inner: R,
    /// Bytes read but not yet returned start at `start`.
    pending: Vec<u8>,
    /// Offset of the next line in `pending`.
    start: usize,
    /// How many bytes past `start` hold no newline (already scanned).
    scanned: usize,
    cap: usize,
}

impl<R: Read> LineReader<R> {
    /// A reader over `inner` with the default [`MAX_LINE_BYTES`] cap.
    pub fn new(inner: R) -> LineReader<R> {
        Self::with_cap(inner, MAX_LINE_BYTES)
    }

    /// Overrides the line cap (tests).
    pub fn with_cap(inner: R, cap: usize) -> LineReader<R> {
        LineReader {
            inner,
            pending: Vec::new(),
            start: 0,
            scanned: 0,
            cap,
        }
    }

    /// Reads until the next newline, EOF, cap breach, or timeout. Each
    /// byte is scanned for the newline once, however the stream is split
    /// into reads.
    pub fn next_line(&mut self) -> ReadEvent {
        loop {
            let from = self.start + self.scanned;
            // `skip_until` over a slice is the standard library's memchr:
            // it consumes through the first newline, or everything.
            let mut unscanned = &self.pending[from..];
            let seen = unscanned.skip_until(b'\n').unwrap_or_default();
            if seen > 0 && self.pending[from + seen - 1] == b'\n' {
                let end = from + seen - 1;
                let mut line = &self.pending[self.start..end];
                if let [rest @ .., b'\r'] = line {
                    line = rest;
                }
                let event = if line.len() > self.cap {
                    ReadEvent::Oversized
                } else {
                    ReadEvent::Line(line.to_vec())
                };
                self.start = end + 1;
                self.scanned = 0;
                return event;
            }
            self.scanned = self.pending.len() - self.start;
            // One byte of slack for a CR that the newline would strip, so
            // the verdict does not depend on where reads split the line.
            if self.scanned > self.cap + 1 {
                return ReadEvent::Oversized;
            }
            // Drop the lines already returned, so `pending` holds at most
            // one partial line plus the next read.
            self.pending.drain(..self.start);
            self.start = 0;
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return ReadEvent::TimedOut;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return ReadEvent::Io(e),
            }
        }
    }
}

/// Renders a `predict` success payload. Values use Rust's shortest
/// round-trip float formatting, so the client recovers them exactly.
pub fn predict_payload(ipc: f64, energy_pj: f64, spread: f64) -> String {
    format!("ipc={ipc} energy_pj={energy_pj} spread={spread}")
}

/// Extracts a named float from an `ok` payload rendered by
/// [`predict_payload`].
pub fn payload_field(payload: &str, name: &str) -> Option<f64> {
    payload.split_ascii_whitespace().find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == name).then(|| v.parse().ok())?
    })
}

/// A duration rendered for diagnostics (`1.5s`, `250ms`).
pub fn human_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.1}s", d.as_secs_f64())
    } else {
        format!("{}ms", d.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_parse() {
        let r = parse_request("predict a1 fig4-atax 1.0 2.5 -3e-2", false).unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: "a1".into(),
                model: "fig4-atax".into(),
                row: vec![1.0, 2.5, -0.03],
            }
        );
        assert_eq!(r.id(), "a1");
        assert_eq!(
            parse_request("ping p", false).unwrap(),
            Request::Ping { id: "p".into() }
        );
        assert_eq!(
            parse_request("stats s", false).unwrap(),
            Request::Stats { id: "s".into() }
        );
        assert_eq!(
            parse_request("shutdown x", false).unwrap(),
            Request::Shutdown { id: "x".into() }
        );
        assert_eq!(parse_request("quit", false).unwrap(), Request::Quit);
        assert_eq!(
            parse_request("stall z 250", true).unwrap(),
            Request::Stall {
                id: "z".into(),
                millis: 250
            }
        );
    }

    #[test]
    fn metrics_and_trace_requests_parse() {
        assert_eq!(
            parse_request("metrics m1", false).unwrap(),
            Request::Metrics { id: "m1".into() }
        );
        assert_eq!(
            parse_request("trace t1", false).unwrap(),
            Request::Trace {
                id: "t1".into(),
                max: TRACE_MAX_PER_REQUEST
            }
        );
        assert_eq!(
            parse_request("trace t2 5", false).unwrap(),
            Request::Trace {
                id: "t2".into(),
                max: 5
            }
        );
        // Requests above the cap are clamped, not refused.
        assert_eq!(
            parse_request("trace t3 9999", false).unwrap(),
            Request::Trace {
                id: "t3".into(),
                max: TRACE_MAX_PER_REQUEST
            }
        );
        assert!(parse_request("metrics", false).is_err());
        assert!(parse_request("trace", false).is_err());
        assert!(parse_request("trace t4 0", false).is_err());
        assert!(parse_request("trace t5 lots", false).is_err());
    }

    #[test]
    fn malformed_requests_are_typed() {
        for (line, needle) in [
            ("", "unknown command"),
            ("frobnicate x", "unknown command"),
            ("predict", "needs an id"),
            ("predict a", "model key"),
            ("predict a m", "feature row"),
            ("predict a ../evil 1.0", "outside"),
            ("predict a m 1.0 nan", "not a finite"),
            ("predict a m 1.0 wat", "not a finite"),
            ("panic a", "--chaos"),
            ("stall a 10", "--chaos"),
        ] {
            let err = parse_request(line, false).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{line}` → `{msg}` lacks `{needle}`");
            // Every parse failure renders as a protocol-kind response.
            match err.to_response() {
                Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
                other => panic!("expected err response, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_echo_the_id_when_the_line_carried_one() {
        let err = parse_request("predict req7 m 1.0 wat", false).unwrap_err();
        assert_eq!(err.id(), "req7");
        let err = parse_request("nonsense", false).unwrap_err();
        assert_eq!(err.id(), NO_ID);
    }

    #[test]
    fn model_key_charset() {
        assert!(valid_model_key("fig4-atax"));
        assert!(valid_model_key("m_1.v2"));
        assert!(!valid_model_key(""));
        assert!(!valid_model_key("a/b"));
        assert!(!valid_model_key("a\\b"));
        assert!(!valid_model_key("a b"));
        assert!(!valid_model_key(&"x".repeat(129)));
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::ok("a1", predict_payload(0.5, 120.25, 1.08)),
            Response::ok("p", "pong"),
            Response::ok("e", ""),
            Response::error("x", ErrorKind::Shed, "queue full at 64"),
            Response::error(NO_ID, ErrorKind::Protocol, "unknown command `hax`"),
        ] {
            let line = r.render();
            let back = Response::parse(&line).unwrap_or_else(|| panic!("unparsable `{line}`"));
            assert_eq!(back, r, "{line}");
        }
        assert!(Response::parse("gibberish").is_none());
        assert!(Response::parse("err x nosuchkind detail").is_none());
    }

    #[test]
    fn predict_payload_round_trips_floats() {
        let payload = predict_payload(0.123456789012345, 98765.4321, 1.0000001);
        assert_eq!(payload_field(&payload, "ipc"), Some(0.123456789012345));
        assert_eq!(payload_field(&payload, "energy_pj"), Some(98765.4321));
        assert_eq!(payload_field(&payload, "spread"), Some(1.0000001));
        assert_eq!(payload_field(&payload, "missing"), None);
    }

    #[test]
    fn line_reader_splits_and_caps() {
        let mut r = LineReader::with_cap(Cursor::new(b"one\ntwo\r\nthree".to_vec()), 16);
        assert!(matches!(r.next_line(), ReadEvent::Line(l) if l == b"one"));
        assert!(matches!(r.next_line(), ReadEvent::Line(l) if l == b"two"));
        // Trailing partial line without a newline: EOF.
        assert!(matches!(r.next_line(), ReadEvent::Eof));

        // A line past the cap trips Oversized even with no newline in sight.
        let mut r = LineReader::with_cap(Cursor::new(vec![b'x'; 64]), 16);
        assert!(matches!(r.next_line(), ReadEvent::Oversized));
        // And with a newline, the per-line check still applies.
        let mut big = vec![b'y'; 32];
        big.push(b'\n');
        let mut r = LineReader::with_cap(Cursor::new(big), 16);
        assert!(matches!(r.next_line(), ReadEvent::Oversized));
    }

    /// A stream that hands out at most `step` bytes per read.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The lines of `data` at `cap`, read `step` bytes at a time, up to
    /// EOF or the first `Oversized` (`None`), after which the server hangs
    /// up.
    fn read_lines(data: &[u8], step: usize, cap: usize) -> Vec<Option<Vec<u8>>> {
        let stream = Trickle {
            data: data.to_vec(),
            pos: 0,
            step,
        };
        let mut r = LineReader::with_cap(stream, cap);
        let mut out = Vec::new();
        loop {
            match r.next_line() {
                ReadEvent::Line(l) => out.push(Some(l)),
                ReadEvent::Oversized => {
                    out.push(None);
                    return out;
                }
                ReadEvent::Eof => return out,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn line_reader_is_independent_of_read_sizes() {
        let cap = 16;
        let exact = vec![b'x'; cap];
        let mut data = b"alpha\nbeta\r\n\n\r\n".to_vec();
        data.extend_from_slice(&exact);
        data.extend_from_slice(b"\n");
        data.extend_from_slice(&exact);
        data.extend_from_slice(b"\r\n");
        let mut over = data.clone();
        over.extend_from_slice(&[b'y'; 17]);
        over.extend_from_slice(b"\nnever\n");
        let mut over_crlf = data.clone();
        over_crlf.extend_from_slice(&[b'y'; 17]);
        over_crlf.extend_from_slice(b"\r\n");
        let lines: Vec<Option<Vec<u8>>> = vec![
            Some(b"alpha".to_vec()),
            Some(b"beta".to_vec()),
            Some(Vec::new()),
            Some(Vec::new()),
            Some(exact.clone()),
            Some(exact.clone()),
        ];
        let mut oversized = lines.clone();
        oversized.push(None);
        for step in [1, 3, 4096] {
            // Several lines per read, CRLF, empty lines, a line of exactly
            // the cap (with and without CR) and the unterminated tail.
            assert_eq!(read_lines(&data, step, cap), lines, "step {step}");
            let mut tail = data.clone();
            tail.extend_from_slice(b"partial");
            assert_eq!(read_lines(&tail, step, cap), lines, "step {step}");
            // Cap + 1 bytes is oversized, CR or not.
            assert_eq!(read_lines(&over, step, cap), oversized, "step {step}");
            assert_eq!(read_lines(&over_crlf, step, cap), oversized, "step {step}");
        }
    }

    #[test]
    fn line_reader_scans_each_byte_once() {
        // A 65,535-byte line arriving one byte per read, each read followed
        // by a timeout: every call must resume the newline search where
        // the previous one stopped, so the scan is linear in the line.
        struct Drip {
            data: Vec<u8>,
            pos: usize,
            ready: bool,
        }
        impl Read for Drip {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.ready = !self.ready;
                if !self.ready {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let Some(&b) = self.data.get(self.pos) else {
                    return Ok(0);
                };
                buf[0] = b;
                self.pos += 1;
                Ok(1)
            }
        }
        let mut data = vec![b'z'; 65_535];
        data.push(b'\n');
        let mut r = LineReader::new(Drip {
            data,
            pos: 0,
            ready: false,
        });
        for delivered in 1..=65_535 {
            assert!(matches!(r.next_line(), ReadEvent::TimedOut));
            assert_eq!((r.start, r.scanned), (0, delivered));
        }
        assert!(matches!(r.next_line(), ReadEvent::Line(l) if l.len() == 65_535));
        assert!(matches!(r.next_line(), ReadEvent::TimedOut));
        assert!(matches!(r.next_line(), ReadEvent::Eof));
    }

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(Duration::from_millis(250)), "250ms");
        assert_eq!(human_duration(Duration::from_millis(1500)), "1.5s");
    }
}
