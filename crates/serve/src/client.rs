//! A minimal synchronous client for the `napel-serve` protocol.
//!
//! Used by the `loadgen` binary and the integration tests. Handles the
//! header handshake and line framing; callers speak request lines and
//! get parsed [`Response`]s back.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{LineReader, ReadEvent, Response, PROTOCOL_HEADER};

/// A connected, handshaken client session.
pub struct ServeClient {
    write_half: TcpStream,
    reader: LineReader<TcpStream>,
    /// The line being sent plus its newline, reused across sends so each
    /// line takes one write on the `TCP_NODELAY` socket, not two.
    out: Vec<u8>,
}

impl ServeClient {
    /// Connects, performs the header handshake, and verifies the
    /// server's greeting.
    ///
    /// # Errors
    ///
    /// Connection failures, or a malformed/absent greeting.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<ServeClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        let mut client = ServeClient {
            write_half,
            reader: LineReader::new(stream),
            out: Vec::new(),
        };
        client.send_line(PROTOCOL_HEADER)?;
        match client.read_response()? {
            Some(greeting) if greeting.is_ok() => Ok(client),
            Some(other) => Err(io::Error::other(format!(
                "server refused the handshake: {}",
                other.render()
            ))),
            None => Err(io::Error::other("server closed during the handshake")),
        }
    }

    /// Sends one raw line (newline appended).
    ///
    /// # Errors
    ///
    /// Underlying socket write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.write_half.write_all(&self.out)
    }

    /// Reads the next response line; `None` on orderly EOF.
    ///
    /// # Errors
    ///
    /// Timeouts, I/O failures, or a line the client cannot parse as a
    /// response.
    pub fn read_response(&mut self) -> io::Result<Option<Response>> {
        match self.reader.next_line() {
            ReadEvent::Line(bytes) => {
                let line = String::from_utf8(bytes)
                    .map_err(|_| io::Error::other("non-UTF-8 response line"))?;
                Response::parse(&line)
                    .map(Some)
                    .ok_or_else(|| io::Error::other(format!("unparsable response `{line}`")))
            }
            ReadEvent::Eof => Ok(None),
            ReadEvent::Oversized => Err(io::Error::other("oversized response line")),
            ReadEvent::TimedOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a response",
            )),
            ReadEvent::Io(e) => Err(e),
        }
    }

    /// Sends one request line and reads one response — the simple
    /// lockstep pattern (no pipelining).
    ///
    /// # Errors
    ///
    /// Write/read failures, or EOF before a response arrived.
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        self.send_line(line)?;
        self.read_response()?
            .ok_or_else(|| io::Error::other("connection closed before a response"))
    }

    /// Reads one raw line (no response parsing). Block-framed payload
    /// lines are raw text, not `ok`/`err` lines.
    fn read_raw_line(&mut self) -> io::Result<String> {
        match self.reader.next_line() {
            ReadEvent::Line(bytes) => {
                String::from_utf8(bytes).map_err(|_| io::Error::other("non-UTF-8 response line"))
            }
            ReadEvent::Eof => Err(io::Error::other("connection closed mid-block")),
            ReadEvent::Oversized => Err(io::Error::other("oversized response line")),
            ReadEvent::TimedOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a response",
            )),
            ReadEvent::Io(e) => Err(e),
        }
    }

    /// Sends `metrics <id>` and reassembles the block-framed reply
    /// (`ok <id> metrics <n>`, then `n` raw lines, then `.`) into the
    /// Prometheus exposition text.
    ///
    /// # Errors
    ///
    /// Write/read failures, an `err` response, or a malformed block
    /// (bad header, premature terminator, missing terminator).
    pub fn fetch_metrics(&mut self, id: &str) -> io::Result<String> {
        self.send_line(&format!("metrics {id}"))?;
        let header = self
            .read_response()?
            .ok_or_else(|| io::Error::other("connection closed before a response"))?;
        let declared: usize = match &header {
            Response::Ok { payload, .. } => payload
                .strip_prefix("metrics ")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| {
                    io::Error::other(format!("malformed metrics header `{}`", header.render()))
                })?,
            Response::Err { .. } => {
                return Err(io::Error::other(format!(
                    "metrics request refused: {}",
                    header.render()
                )))
            }
        };
        let mut text = String::new();
        for _ in 0..declared {
            let line = self.read_raw_line()?;
            if line == "." {
                return Err(io::Error::other("metrics block ended early"));
            }
            text.push_str(&line);
            text.push('\n');
        }
        match self.read_raw_line()?.as_str() {
            "." => Ok(text),
            other => Err(io::Error::other(format!(
                "expected the `.` block terminator, got `{other}`"
            ))),
        }
    }

    /// The underlying socket (for tests poking at shutdown semantics).
    pub fn stream(&self) -> &TcpStream {
        &self.write_half
    }
}
