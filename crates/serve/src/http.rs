//! Minimal HTTP/1.1 framing: enough of the protocol for the serving loop
//! (request line, `Content-Length` bodies, keep-alive) and nothing more.
//! The offline build has no tokio/hyper.
//!
//! The core is a **pure incremental parser**: [`try_parse_request`] takes
//! whatever bytes have arrived so far and either produces a complete
//! [`Request`] (consuming exactly its bytes, preserving pipelined
//! read-ahead), asks for more data, or reports a protocol violation with
//! the status to reject with (`400`/`413`/`431`). Two I/O drivers share
//! it: the blocking [`HttpConn`] (the client side of tests and the bench
//! driver's stub loops) and the non-blocking state machine in
//! [`crate::mux`], which multiplexes thousands of keep-alive connections
//! over one `poll(2)` event loop. [`render_response`] is the matching
//! serialiser, so both drivers emit byte-identical responses.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (query strings are not split off; the protocol does
    /// not use them).
    pub path: String,
    /// Raw request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Client-declared deadline budget (`x-tspn-deadline-ms` header);
    /// `None` means "use the server's default request timeout".
    pub deadline_ms: Option<u64>,
}

/// Outcome of waiting for the next request on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request arrived.
    Request(Request),
    /// The peer closed the connection between requests.
    Closed,
    /// The read timeout elapsed with no bytes pending — the caller should
    /// check its shutdown flag and wait again.
    Idle,
}

/// Why reading the next request failed.
#[derive(Debug)]
pub enum ReadError {
    /// Transport failure (peer vanished, stalled transfer): nothing can
    /// usefully be written back; just close.
    Io(std::io::Error),
    /// Protocol violation with a status worth telling the client about
    /// (`400` malformed, `413` body too large, `431` headers too large).
    /// The caller should [`HttpConn::reject`] with these and close —
    /// request framing can no longer be trusted, so keep-alive is over.
    Bad {
        /// Response status to write.
        status: u16,
        /// Human-readable detail for the typed error body.
        message: String,
    },
}

impl ReadError {
    fn bad(status: u16, message: impl Into<String>) -> Self {
        ReadError::Bad {
            status,
            message: message.into(),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// How long a *partially received* request may dribble in before the
/// connection is dropped as dead.
pub(crate) const PARTIAL_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on the request-line + headers block. Nothing in the protocol
/// needs long headers; a peer that exceeds this gets `431` and the
/// connection closed instead of growing the buffer without bound.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A persistent connection with its read-ahead buffer (pipelined bytes
/// beyond the current request survive into the next call).
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        HttpConn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads the next request, honouring the stream's read timeout for
    /// idle detection (see [`ReadOutcome::Idle`]).
    ///
    /// # Errors
    /// [`ReadError::Io`] for transport failures (close silently);
    /// [`ReadError::Bad`] for protocol violations — `400` malformed,
    /// `413` body above `max_body`, `431` headers above
    /// [`MAX_HEADER_BYTES`] — which the caller should write with
    /// [`HttpConn::reject`] before closing.
    pub fn read_request(&mut self, max_body: usize) -> Result<ReadOutcome, ReadError> {
        let mut chunk = [0u8; 4096];
        let mut partial_since: Option<Instant> = None;
        loop {
            if let Some(req) = try_parse_request(&mut self.buf, max_body)? {
                return Ok(ReadOutcome::Request(req));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Closed)
                    } else {
                        Err(ReadError::Io(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "connection closed mid-request",
                        )))
                    };
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    partial_since.get_or_insert_with(Instant::now);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.buf.is_empty() {
                        return Ok(ReadOutcome::Idle);
                    }
                    // A half-received request (headers or body) may only
                    // dribble in a bounded while: a stalled transfer must
                    // not pin this handler (and clean shutdown) forever.
                    let since = *partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > PARTIAL_DEADLINE {
                        return Err(ReadError::Io(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "request stalled mid-transfer",
                        )));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }

    /// Writes a JSON response.
    ///
    /// # Errors
    /// Propagates stream write failures.
    pub fn respond(&mut self, status: u16, body: &str, keep_alive: bool) -> std::io::Result<()> {
        self.respond_ex(status, body, keep_alive, None)
    }

    /// Writes a JSON response with an optional `Retry-After` hint
    /// (seconds) — attached to shed responses (429/503) so well-behaved
    /// clients back off instead of hammering an overloaded server.
    ///
    /// # Errors
    /// Propagates stream write failures.
    pub fn respond_ex(
        &mut self,
        status: u16,
        body: &str,
        keep_alive: bool,
        retry_after: Option<u64>,
    ) -> std::io::Result<()> {
        self.stream
            .write_all(&render_response(status, body, keep_alive, retry_after))?;
        self.stream.flush()
    }

    /// Best-effort typed-error response before closing a broken
    /// connection (the error code follows from the status).
    pub fn reject(&mut self, status: u16, message: &str) {
        let body = crate::protocol::error_response(error_code(status), message);
        let _ = self.respond(status, &body, false);
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// * `Ok(Some(req))` — a full request was buffered; exactly its bytes are
///   drained from `buf`, so pipelined read-ahead survives for the next
///   call.
/// * `Ok(None)` — the bytes so far are a valid prefix; read more and call
///   again. (The parser is stateless between calls: re-parsing the small
///   header block on each arrival is far cheaper than a read syscall.)
/// * `Err` — protocol violation; the framing can no longer be trusted, so
///   the caller must reject-and-close. `431` once a terminator-free
///   header block exceeds [`MAX_HEADER_BYTES`], `400` for a malformed
///   request line / `Content-Length` / unsupported `Transfer-Encoding`,
///   `413` the moment the headers *declare* a body above `max_body`
///   (never buffering it).
///
/// # Errors
/// [`ReadError::Bad`] as described above; never [`ReadError::Io`].
pub fn try_parse_request(buf: &mut Vec<u8>, max_body: usize) -> Result<Option<Request>, ReadError> {
    let Some(end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::bad(
                431,
                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            ));
        }
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = (
        parts.next().unwrap_or("").to_ascii_uppercase(),
        parts.next().unwrap_or("").to_string(),
        parts.next().unwrap_or(""),
    );
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::bad(
            400,
            format!("malformed request line {request_line:?}"),
        ));
    }
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut deadline_ms = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::bad(400, "bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-tspn-deadline-ms") {
            // An unparseable deadline falls back to the server default
            // rather than failing the request.
            deadline_ms = value.parse::<u64>().ok().filter(|&ms| ms >= 1);
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            // Only Content-Length framing is implemented; silently
            // treating a chunked body as empty would leave its
            // framing bytes to desync the keep-alive stream.
            return Err(ReadError::bad(
                400,
                format!("unsupported Transfer-Encoding {value:?}"),
            ));
        }
    }
    if content_length > max_body {
        return Err(ReadError::bad(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let body_start = end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    // Keep any pipelined bytes for the next request.
    buf.drain(..body_start + content_length);
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
        deadline_ms,
    }))
}

/// Serialises one JSON response to wire bytes: status line,
/// `Content-Type`/`Content-Length`, an optional `Retry-After` hint
/// (seconds, attached to 429/503 sheds so well-behaved clients back off),
/// and the `Connection` disposition. Shared by the blocking writer and
/// the mux's buffered writer so both emit byte-identical responses.
pub fn render_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<u64>,
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Index of the `\r\n\r\n` header terminator, if buffered.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The typed-error `code` implied by a status (for connection-level
/// rejections that never reach a route handler).
pub(crate) fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        410 => "gone",
        413 => "payload_too_large",
        422 => "unprocessable",
        429 => "overloaded",
        431 => "headers_too_large",
        503 => "unavailable",
        _ => "internal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_header_end(b""), None);
    }

    #[test]
    fn reason_phrases_cover_protocol_statuses() {
        for s in [200, 400, 404, 405, 410, 413, 422, 429, 431, 500, 503] {
            assert_ne!(reason_phrase(s), "Unknown");
        }
        assert_eq!(reason_phrase(299), "Unknown");
    }

    #[test]
    fn error_codes_follow_statuses() {
        assert_eq!(error_code(400), "bad_request");
        assert_eq!(error_code(405), "method_not_allowed");
        assert_eq!(error_code(410), "gone");
        assert_eq!(error_code(422), "unprocessable");
        assert_eq!(error_code(429), "overloaded");
        assert_eq!(error_code(431), "headers_too_large");
        assert_eq!(error_code(500), "internal");
    }

    #[test]
    fn incremental_parser_accepts_byte_at_a_time_arrival() {
        let wire = b"POST /v1/predict HTTP/1.1\r\nx-tspn-deadline-ms: 40\r\n\
                     Content-Length: 4\r\n\r\nbody";
        let mut buf = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            buf.push(b);
            let parsed = try_parse_request(&mut buf, 4096).expect("valid prefix");
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "incomplete at byte {i}");
            } else {
                let req = parsed.expect("complete at the last byte");
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/v1/predict");
                assert_eq!(req.body, b"body");
                assert_eq!(req.deadline_ms, Some(40));
                assert!(req.keep_alive);
                assert!(buf.is_empty(), "exactly the request consumed");
            }
        }
    }

    #[test]
    fn incremental_parser_preserves_pipelined_requests() {
        let mut buf = b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n".to_vec();
        let first = try_parse_request(&mut buf, 4096)
            .expect("parses")
            .expect("complete");
        assert_eq!(first.path, "/healthz");
        let second = try_parse_request(&mut buf, 4096)
            .expect("parses")
            .expect("read-ahead survived");
        assert_eq!(second.path, "/v1/stats");
        assert!(buf.is_empty());
        assert!(try_parse_request(&mut buf, 4096)
            .expect("empty ok")
            .is_none());
    }

    #[test]
    fn incremental_parser_rejects_oversized_declarations_without_the_body() {
        // 413 fires the moment the headers complete, body unseen.
        let mut buf = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec();
        let err = try_parse_request(&mut buf, 4096).expect_err("must refuse");
        let ReadError::Bad { status, .. } = err else {
            panic!("expected Bad");
        };
        assert_eq!(status, 413);

        // 431 fires as soon as a terminator-free header block exceeds the
        // cap — no request line needed.
        let mut buf = vec![b'a'; MAX_HEADER_BYTES + 1];
        let err = try_parse_request(&mut buf, 4096).expect_err("must refuse");
        let ReadError::Bad { status, .. } = err else {
            panic!("expected Bad");
        };
        assert_eq!(status, 431);
    }

    #[test]
    fn rendered_responses_carry_framing_and_retry_hints() {
        let bytes = render_response(429, "{}", true, Some(1));
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        let bytes = render_response(200, "{\"ok\":true}", false, None);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(!text.contains("Retry-After"), "{text}");
    }

    // ----- socket-level behaviour -------------------------------------
    //
    // Each test stands up a real loopback pair: the "server" side wraps
    // the accepted stream in HttpConn (exactly as handle_connection
    // does), the "client" side writes raw bytes.

    use std::net::{TcpListener, TcpStream};

    fn pair() -> (HttpConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        (HttpConn::new(server), client)
    }

    fn drive(conn: &mut HttpConn, max_body: usize) -> Result<ReadOutcome, ReadError> {
        // Skip Idle ticks so tests only see terminal outcomes.
        loop {
            match conn.read_request(max_body) {
                Ok(ReadOutcome::Idle) => continue,
                other => return other,
            }
        }
    }

    fn read_all(mut stream: &TcpStream) -> String {
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn oversized_header_block_yields_431_and_a_closed_connection() {
        let (mut conn, mut client) = pair();
        // A header line that never ends: the buffer must not grow past
        // MAX_HEADER_BYTES before the connection is refused.
        client
            .write_all(b"GET / HTTP/1.1\r\nx-filler: ")
            .expect("w");
        client
            .write_all(&vec![b'a'; MAX_HEADER_BYTES + 64])
            .expect("w");
        let err = drive(&mut conn, 1 << 20).expect_err("must refuse");
        let ReadError::Bad { status, .. } = err else {
            panic!("expected Bad, got {err:?}");
        };
        assert_eq!(status, 431);
        conn.reject(status, "too big");
        drop(conn);
        let answer = read_all(&client);
        assert!(answer.starts_with("HTTP/1.1 431 "), "{answer}");
        assert!(answer.contains("headers_too_large"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
    }

    #[test]
    fn oversized_body_yields_413_without_buffering_it() {
        let (mut conn, mut client) = pair();
        client
            .write_all(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
            .expect("w");
        let err = drive(&mut conn, 4096).expect_err("must refuse");
        let ReadError::Bad { status, .. } = err else {
            panic!("expected Bad, got {err:?}");
        };
        assert_eq!(status, 413);
        conn.reject(status, "body too large");
        drop(conn);
        let answer = read_all(&client);
        assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
        assert!(answer.contains("payload_too_large"), "{answer}");
    }

    #[test]
    fn connection_close_is_honoured_after_the_response() {
        let (mut conn, mut client) = pair();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("w");
        let outcome = drive(&mut conn, 4096).expect("request parses");
        let ReadOutcome::Request(req) = outcome else {
            panic!("expected a request");
        };
        assert!(!req.keep_alive, "Connection: close noted");
        conn.respond(200, "{}", req.keep_alive).expect("respond");
        drop(conn);
        let answer = read_all(&client);
        assert!(answer.contains("Connection: close"), "{answer}");
        assert!(
            answer.ends_with("{}"),
            "clean close after the body: {answer}"
        );
    }

    #[test]
    fn parse_error_yields_400_then_close() {
        let (mut conn, mut client) = pair();
        client.write_all(b"NOT-HTTP\r\n\r\n").expect("w");
        let err = drive(&mut conn, 4096).expect_err("must refuse");
        let ReadError::Bad { status, .. } = err else {
            panic!("expected Bad, got {err:?}");
        };
        assert_eq!(status, 400);
        conn.reject(status, "malformed");
        drop(conn);
        let answer = read_all(&client);
        assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
    }

    #[test]
    fn deadline_header_is_parsed_and_garbage_ignored() {
        let (mut conn, mut client) = pair();
        client
            .write_all(
                b"POST /v1/predict HTTP/1.1\r\nx-tspn-deadline-ms: 250\r\n\
                  Content-Length: 2\r\n\r\n{}",
            )
            .expect("w");
        let ReadOutcome::Request(req) = drive(&mut conn, 4096).expect("parses") else {
            panic!("expected a request");
        };
        assert_eq!(req.deadline_ms, Some(250));

        client
            .write_all(
                b"POST /v1/predict HTTP/1.1\r\nX-TSPN-Deadline-Ms: never\r\n\
                  Content-Length: 2\r\n\r\n{}",
            )
            .expect("w");
        let ReadOutcome::Request(req) = drive(&mut conn, 4096).expect("parses") else {
            panic!("expected a request");
        };
        assert_eq!(req.deadline_ms, None, "garbage deadline → server default");
    }

    #[test]
    fn retry_after_header_is_emitted_on_shed_responses() {
        let (mut conn, client) = pair();
        conn.respond_ex(429, "{\"error\":{}}", false, Some(2))
            .expect("respond");
        drop(conn);
        let answer = read_all(&client);
        assert!(
            answer.starts_with("HTTP/1.1 429 Too Many Requests"),
            "{answer}"
        );
        assert!(answer.contains("Retry-After: 2\r\n"), "{answer}");
    }
}
