//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol
//! for a loopback scheduling daemon, now with persistent connections.
//!
//! [`HttpConn`] owns one socket for its whole life: the read buffer
//! survives across requests (so pipelined bytes are never dropped),
//! reads are staged under two timeouts (an *idle* timeout while
//! waiting for the next request, a *header* timeout once the first
//! byte of one has arrived — the slowloris guard), and every outcome
//! the connection loop must distinguish is a [`ReadOutcome`] variant
//! rather than a squashed `io::Error`. Chunked bodies and TLS remain
//! deliberately out of scope; the consumers are `impacct-cli top`,
//! CI smoke scripts, `bench_server`, and `curl`.
//!
//! Limits are enforced while reading, before any scheduling work
//! runs: 8 KiB per header line, 100 headers, 8 MiB of body.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request-line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
const MAX_HEADERS: usize = 100;
/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target, without the query.
    pub path: String,
    /// Query parameters in request order; flags parse as `(key, "")`.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in request order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Protocol version (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
}

impl Request {
    /// First query parameter named `key`, if any.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open after this
    /// request: HTTP/1.1 defaults to keep-alive unless it sends
    /// `Connection: close`; HTTP/1.0 defaults to close unless it
    /// sends `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Read timeouts for one connection, staged by what the server is
/// waiting for.
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Budget for the head + body of a request once its first byte
    /// has arrived (the slowloris guard; expiry → `408`).
    pub header_timeout: Duration,
    /// Budget for the gap *between* requests on a kept-alive
    /// connection (expiry → silent close).
    pub idle_timeout: Duration,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            header_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything one read attempt on a connection can resolve to.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete framed request.
    Request(Request),
    /// Peer closed cleanly, reset, or went idle past the idle timeout
    /// before sending a single byte — close without responding.
    Closed,
    /// A request *started* arriving and then stalled past the header
    /// timeout (slowloris, stalled body) — respond `408` and close.
    TimedOut,
    /// Protocol violation; respond with `status` and close (the
    /// framing is unrecoverable, so the connection cannot continue).
    Malformed {
        /// Response status to send (`400`, `413`).
        status: u16,
        /// Human-readable violation for the error body.
        msg: String,
    },
}

/// One persistent HTTP/1.1 connection: a buffered reader that
/// survives across requests plus the socket for writes.
#[derive(Debug)]
pub struct HttpConn {
    reader: BufReader<TcpStream>,
}

/// Internal read failure, mapped to [`ReadOutcome`] at the request
/// boundary.
enum ReadErr {
    Eof,
    TimedOut,
    Io,
    Malformed(u16, String),
}

impl From<io::Error> for ReadErr {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadErr::TimedOut,
            io::ErrorKind::UnexpectedEof => ReadErr::Eof,
            _ => ReadErr::Io,
        }
    }
}

impl HttpConn {
    /// Wraps an accepted socket. Timeouts are (re)armed per read
    /// phase, so the caller does not pre-configure the stream.
    pub fn new(stream: TcpStream) -> HttpConn {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        // Responses are small and latency-bound; on a kept-alive
        // connection Nagle + delayed ACK would stall every exchange
        // by tens of milliseconds.
        let _ = stream.set_nodelay(true);
        HttpConn {
            reader: BufReader::new(stream),
        }
    }

    fn set_read_timeout(&self, timeout: Duration) {
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
    }

    fn read_byte(&mut self) -> Result<u8, ReadErr> {
        let buf = self.reader.fill_buf()?;
        match buf.first() {
            Some(&b) => {
                self.reader.consume(1);
                Ok(b)
            }
            None => Err(ReadErr::Eof),
        }
    }

    /// Reads one CRLF-terminated line (CR optional), capped at
    /// [`MAX_LINE`] bytes.
    fn read_line(&mut self) -> Result<String, ReadErr> {
        let mut line = Vec::new();
        loop {
            match self.read_byte()? {
                b'\n' => break,
                b => line.push(b),
            }
            if line.len() > MAX_LINE {
                return Err(ReadErr::Malformed(400, "header line exceeds 8 KiB".into()));
            }
        }
        while line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line)
            .map_err(|_| ReadErr::Malformed(400, "header line is not UTF-8".into()))
    }

    /// Reads the next framed request off the connection.
    ///
    /// `first` selects the timeout for the leading byte: a fresh
    /// connection gets the header timeout end-to-end, a kept-alive
    /// one may sit idle up to `idle_timeout` before its next request.
    pub fn read_request(&mut self, limits: &ConnLimits, first: bool) -> ReadOutcome {
        self.set_read_timeout(if first {
            limits.header_timeout
        } else {
            limits.idle_timeout
        });
        // The leading byte decides idle-close vs. slowloris: zero
        // bytes then silence is a dead peer, not a stalled request.
        let lead = match self.read_byte() {
            Ok(b) => b,
            Err(ReadErr::Eof) | Err(ReadErr::TimedOut) | Err(ReadErr::Io) => {
                return ReadOutcome::Closed
            }
            Err(ReadErr::Malformed(status, msg)) => return ReadOutcome::Malformed { status, msg },
        };
        self.set_read_timeout(limits.header_timeout);
        match self.read_request_after(lead) {
            Ok(request) => ReadOutcome::Request(request),
            Err(ReadErr::TimedOut) => ReadOutcome::TimedOut,
            Err(ReadErr::Eof) => ReadOutcome::Malformed {
                status: 400,
                msg: "connection closed mid-request".into(),
            },
            Err(ReadErr::Io) => ReadOutcome::Closed,
            Err(ReadErr::Malformed(status, msg)) => ReadOutcome::Malformed { status, msg },
        }
    }

    fn read_request_after(&mut self, lead: u8) -> Result<Request, ReadErr> {
        let mut request_line = self.read_line()?;
        request_line.insert(0, char::from(lead));

        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return Err(ReadErr::Malformed(
                        400,
                        format!("malformed request line {request_line:?}"),
                    ))
                }
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ReadErr::Malformed(
                400,
                format!("unsupported protocol {version:?}"),
            ));
        }
        let (method, target, version) =
            (method.to_string(), target.to_string(), version.to_string());

        let (path, query_raw) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target, String::new()),
        };
        let query = query_raw
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (pair.to_string(), String::new()),
            })
            .collect();

        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(ReadErr::Malformed(400, "too many headers".into()));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ReadErr::Malformed(400, format!("malformed header {line:?}")))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }

        let content_length = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| ReadErr::Malformed(400, format!("bad content-length {v:?}")))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > MAX_BODY {
            return Err(ReadErr::Malformed(413, "request body exceeds 8 MiB".into()));
        }

        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ReadErr::Malformed(400, "truncated body".into())
            } else {
                ReadErr::from(e)
            }
        })?;

        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
            version,
        })
    }

    /// Writes one framed response; `close` selects the `Connection`
    /// header (the caller owns the keep-alive decision).
    pub fn write_response(&mut self, response: &Response, close: bool) -> io::Result<()> {
        response.write_to(self.reader.get_mut(), close)
    }
}

/// One HTTP/1.1 response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers appended after the standard set.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A `text/plain; charset=utf-8` response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Appends an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Writes the framed response and flushes the stream. `close`
    /// picks `Connection: close` vs `Connection: keep-alive`.
    pub fn write_to<W: Write>(&self, stream: &mut W, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write for head + body: two small writes on a kept-alive
        // socket invite a Nagle/delayed-ACK stall between them.
        let mut raw = head.into_bytes();
        raw.extend_from_slice(&self.body);
        stream.write_all(&raw)?;
        stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = HttpConn::new(stream);
        let outcome = conn.read_request(&ConnLimits::default(), true);
        writer.join().unwrap();
        outcome
    }

    fn expect_request(outcome: ReadOutcome) -> Request {
        match outcome {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let request = expect_request(roundtrip(
            b"POST /schedule?format=pasdl&cache=off HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 5\r\n\r\nhello",
        ));
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/schedule");
        assert_eq!(request.query_param("format"), Some("pasdl"));
        assert_eq!(request.query_param("cache"), Some("off"));
        assert_eq!(request.query_param("missing"), None);
        assert_eq!(request.header("host"), Some("localhost"));
        assert_eq!(request.body, b"hello");
        assert!(
            request.wants_keep_alive(),
            "HTTP/1.1 defaults to keep-alive"
        );
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
        ] {
            assert!(
                matches!(roundtrip(raw), ReadOutcome::Malformed { status: 400, .. }),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn connection_header_semantics_per_version() {
        let close = expect_request(roundtrip(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!close.wants_keep_alive());
        let legacy = expect_request(roundtrip(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(!legacy.wants_keep_alive(), "HTTP/1.0 defaults to close");
        let legacy_ka = expect_request(roundtrip(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ));
        assert!(legacy_ka.wants_keep_alive());
    }

    #[test]
    fn oversized_content_length_is_413_and_junk_is_400() {
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n"),
            ReadOutcome::Malformed { status: 413, .. }
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            ReadOutcome::Malformed { status: 400, .. }
        ));
    }

    #[test]
    fn truncated_body_is_a_400_not_a_hang() {
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            ReadOutcome::Malformed { status: 400, .. }
        ));
    }

    #[test]
    fn reason_covers_the_overload_statuses() {
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(429), "Too Many Requests");
        assert_eq!(reason(503), "Service Unavailable");
    }
}
