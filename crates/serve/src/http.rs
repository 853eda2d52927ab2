//! Minimal HTTP/1.1 framing: enough of the protocol for the serving loop
//! (request line, `Content-Length` bodies, keep-alive) and nothing more.
//! The offline build has no tokio/hyper.
//!
//! The core is a **pure incremental parser**: [`try_parse_request`] takes
//! whatever bytes have arrived so far and either produces a complete
//! [`Request`] (consuming exactly its bytes, preserving pipelined
//! read-ahead), asks for more data, or reports a protocol violation with
//! the status to reject with (`400`/`413`/`431`). The socket I/O around
//! it is the non-blocking state machine in [`crate::mux`], which
//! multiplexes thousands of keep-alive connections over one `poll(2)`
//! event loop.
//! [`render_response`] is the matching serialiser.

use std::time::Duration;

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

/// Why reading the next request failed.
#[derive(Debug)]
pub enum ReadError {
    /// Protocol violation with a status worth telling the client about
    /// (`400` malformed, `413` body too large, `431` headers too large).
    /// The caller should answer with these and close — request framing
    /// can no longer be trusted, so keep-alive is over.
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

/// How long a *partially received* request may dribble in before the
/// connection is dropped as dead.
pub(crate) const PARTIAL_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on the request-line + headers block. Nothing in the protocol
/// needs long headers; a peer that exceeds this gets `431` and the
/// connection closed instead of growing the buffer without bound.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

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
/// [`ReadError::Bad`] as described above.
pub fn try_parse_request(buf: &mut Vec<u8>, max_body: usize) -> Result<Option<Request>, ReadError> {
    let Some((head, end)) = split_head(buf).map_err(|m| ReadError::bad(431, m))? else {
        return Ok(None);
    };
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
    let headers = parse_headers(lines).map_err(|m| ReadError::bad(400, m))?;
    if headers.content_length > max_body {
        return Err(ReadError::bad(
            413,
            format!(
                "body of {} bytes exceeds the {max_body}-byte limit",
                headers.content_length
            ),
        ));
    }
    let Some(body) = take_body(buf, end, headers.content_length) else {
        return Ok(None);
    };
    Ok(Some(Request {
        method,
        path,
        body,
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
        keep_alive: headers.keep_alive.unwrap_or(version != "HTTP/1.0"),
        deadline_ms: headers.deadline_ms,
    }))
}

/// One parsed HTTP response, including the overload-control metadata the
/// client's retry layer keys on.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the protocol's bodies are always UTF-8 JSON).
    pub body: String,
    /// `Retry-After` seconds, when the server attached one to a shed.
    pub retry_after: Option<u64>,
    /// Whether the server keeps the connection open after this response
    /// (false for `Connection: close`).
    pub keep_alive: bool,
}

/// Tries to parse one complete response from the front of `buf` — the
/// counterpart of [`try_parse_request`], with the same framing rules
/// (`Content-Length` is ASCII digits, conflicting repeats and
/// `Transfer-Encoding` are refused). `Ok(Some(..))` drains exactly the
/// response's bytes; `Ok(None)` asks for more.
///
/// # Errors
/// `InvalidData` for a malformed status line, header block or body:
/// the connection's framing can no longer be trusted.
pub fn try_parse_response(buf: &mut Vec<u8>) -> std::io::Result<Option<Response>> {
    let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let Some((head, end)) = split_head(buf).map_err(invalid)? else {
        return Ok(None);
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let (version, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let status = parse_digits(code)
        .filter(|_| code.len() == 3 && version.starts_with("HTTP/1."))
        .and_then(|s| u16::try_from(s).ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let headers = parse_headers(lines).map_err(invalid)?;
    let Some(body) = take_body(buf, end, headers.content_length) else {
        return Ok(None);
    };
    let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 response body".into()))?;
    Ok(Some(Response {
        status,
        body,
        retry_after: headers.retry_after,
        keep_alive: headers.keep_alive.unwrap_or(version != "HTTP/1.0"),
    }))
}

/// The error for a connection that closed before the response whose
/// bytes so far are `buf` was complete.
pub(crate) fn closed_early(buf: &[u8]) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        if buf.is_empty() {
            "connection closed before the status line"
        } else {
            "connection closed mid-response"
        },
    )
}

/// The head at the front of `buf` (start line and header lines, without
/// consuming them) and the index of its `\r\n\r\n` terminator; `Ok(None)`
/// until the terminator arrives, `Err` once a terminator-free head exceeds
/// [`MAX_HEADER_BYTES`].
fn split_head(buf: &[u8]) -> Result<Option<(String, usize)>, String> {
    let Some(end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(format!("header block exceeds {MAX_HEADER_BYTES} bytes"));
        }
        return Ok(None);
    };
    let head = String::from_utf8_lossy(buf.get(..end).unwrap_or_default()).into_owned();
    Ok(Some((head, end)))
}

/// The headers either parser acts on.
#[derive(Default)]
struct Headers {
    content_length: usize,
    /// `Some(false)` for `Connection: close`, `Some(true)` for any other
    /// `Connection` value, `None` without one (the version decides).
    keep_alive: Option<bool>,
    deadline_ms: Option<u64>,
    retry_after: Option<u64>,
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, String> {
    let mut h = Headers::default();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len = parse_digits(value).ok_or("bad Content-Length")?;
            // Identical repeats are harmless; differing ones leave the
            // body's extent ambiguous.
            if content_length.is_some_and(|prev| prev != len) {
                return Err("conflicting Content-Length headers".to_string());
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            h.keep_alive = Some(!value.eq_ignore_ascii_case("close"));
        } else if name.eq_ignore_ascii_case("x-tspn-deadline-ms") {
            // An unparseable deadline falls back to the server default
            // rather than failing the request.
            h.deadline_ms = value.parse::<u64>().ok().filter(|&ms| ms >= 1);
        } else if name.eq_ignore_ascii_case("retry-after") {
            h.retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            // Only Content-Length framing is implemented; silently
            // treating a chunked body as empty would leave its
            // framing bytes to desync the keep-alive stream.
            return Err(format!("unsupported Transfer-Encoding {value:?}"));
        }
    }
    h.content_length = content_length.unwrap_or(0);
    Ok(h)
}

/// Drains the message whose head ends at `end` and returns its body, or
/// `None` (nothing drained) while the body is still arriving. Pipelined
/// bytes after it stay in `buf`.
fn take_body(buf: &mut Vec<u8>, end: usize, len: usize) -> Option<Vec<u8>> {
    let body_start = end + 4;
    let body = buf.get(body_start..body_start.checked_add(len)?)?.to_vec();
    buf.drain(..body_start + len);
    Some(body)
}

/// A `Content-Length` or status code: ASCII digits only (no sign, no
/// space), and small enough for `usize`.
fn parse_digits(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Serialises one request to wire bytes, head and body in one buffer:
/// `Content-Length` framing, keep-alive, and the `x-tspn-deadline-ms`
/// budget when one is given.
pub fn render_request(method: &str, path: &str, body: &[u8], deadline_ms: Option<u64>) -> Vec<u8> {
    let deadline = deadline_ms
        .map(|ms| format!("x-tspn-deadline-ms: {ms}\r\n"))
        .unwrap_or_default();
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         {deadline}Connection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serialises one JSON response to wire bytes: status line,
/// `Content-Type`/`Content-Length`, an optional `Retry-After` hint
/// (seconds, attached to 429/503 sheds so well-behaved clients back off),
/// and the `Connection` disposition.
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
        let ReadError::Bad { status, .. } =
            try_parse_request(&mut buf, 4096).expect_err("must refuse");
        assert_eq!(status, 413);

        // 431 fires as soon as a terminator-free header block exceeds the
        // cap — no request line needed.
        let mut buf = vec![b'a'; MAX_HEADER_BYTES + 1];
        let ReadError::Bad { status, .. } =
            try_parse_request(&mut buf, 4096).expect_err("must refuse");
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

    #[test]
    fn retry_after_header_is_emitted_on_shed_responses() {
        let bytes = render_response(429, "{\"error\":{}}", false, Some(2));
        let answer = String::from_utf8(bytes).unwrap();
        assert!(
            answer.starts_with("HTTP/1.1 429 Too Many Requests"),
            "{answer}"
        );
        assert!(answer.contains("Retry-After: 2\r\n"), "{answer}");
        assert!(answer.contains("Connection: close\r\n"), "{answer}");
    }

    #[test]
    fn parse_error_yields_400_then_close() {
        // The status the caller answers with before closing (the mux
        // test of the same request checks the close on a real socket).
        let mut buf = b"NOT-HTTP\r\n\r\n".to_vec();
        let ReadError::Bad { status, .. } =
            try_parse_request(&mut buf, 4096).expect_err("must refuse");
        assert_eq!(status, 400);
    }

    #[test]
    fn deadline_header_is_parsed_and_garbage_ignored() {
        let mut buf = b"POST /v1/predict HTTP/1.1\r\nx-tspn-deadline-ms: 250\r\n\
                        Content-Length: 2\r\n\r\n{}\
                        POST /v1/predict HTTP/1.1\r\nX-TSPN-Deadline-Ms: never\r\n\
                        Content-Length: 2\r\n\r\n{}"
            .to_vec();
        let req = try_parse_request(&mut buf, 4096)
            .expect("parses")
            .expect("complete");
        assert_eq!(req.deadline_ms, Some(250));
        let req = try_parse_request(&mut buf, 4096)
            .expect("parses")
            .expect("complete");
        assert_eq!(req.deadline_ms, None, "garbage deadline → server default");
    }

    /// Parses one complete request, or returns the rejection status.
    fn parse_one(wire: &[u8]) -> Result<Request, u16> {
        let mut buf = wire.to_vec();
        match try_parse_request(&mut buf, 4096) {
            Ok(Some(req)) => Ok(req),
            Ok(None) => panic!("incomplete: {:?}", String::from_utf8_lossy(wire)),
            Err(ReadError::Bad { status, .. }) => Err(status),
        }
    }

    #[test]
    fn content_length_accepts_ascii_digits_only() {
        for value in ["+5", "-5", "5 5", "0x5", "", "٥"] {
            let wire = format!("POST /v1/predict HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert_eq!(parse_one(wire.as_bytes()).err(), Some(400), "{value:?}");
        }
        let req = parse_one(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello")
            .expect("leading zeros are digits");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let wire = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 5\r\n\
                     content-length: 2\r\n\r\nhello";
        assert_eq!(parse_one(wire).err(), Some(400));
    }

    #[test]
    fn identical_content_lengths_are_accepted() {
        let wire = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 5\r\n\
                     Content-Length: 5\r\n\r\nhello";
        assert_eq!(parse_one(wire).expect("one extent").body, b"hello");
    }

    /// Parses one complete response, or returns the refusal.
    fn parse_response(wire: &[u8]) -> std::io::Result<Response> {
        let mut buf = wire.to_vec();
        let resp = try_parse_response(&mut buf)?.expect("complete");
        assert!(buf.is_empty(), "exactly the response consumed");
        Ok(resp)
    }

    #[test]
    fn response_parser_accepts_byte_at_a_time_arrival() {
        let wire = render_response(200, "{\"ok\":true}", true, None);
        let mut buf = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            buf.push(b);
            let parsed = try_parse_response(&mut buf).expect("valid prefix");
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "incomplete at byte {i}");
            } else {
                let resp = parsed.expect("complete at the last byte");
                assert_eq!((resp.status, resp.body.as_str()), (200, "{\"ok\":true}"));
                assert!(resp.keep_alive);
                assert!(buf.is_empty());
            }
        }
    }

    #[test]
    fn response_parser_preserves_pipelined_responses() {
        let mut buf = render_response(200, "{}", true, None);
        buf.extend_from_slice(&render_response(404, "{\"e\":1}", true, None));
        let first = try_parse_response(&mut buf)
            .expect("parses")
            .expect("complete");
        assert_eq!((first.status, first.body.as_str()), (200, "{}"));
        let second = try_parse_response(&mut buf)
            .expect("parses")
            .expect("read-ahead survived");
        assert_eq!((second.status, second.body.as_str()), (404, "{\"e\":1}"));
        assert!(buf.is_empty());
        assert!(try_parse_response(&mut buf).expect("empty ok").is_none());
    }

    #[test]
    fn response_parser_refuses_bad_status_lines_and_signed_lengths() {
        for wire in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"HTTP/1.1 2000 OK\r\n\r\n",
            b"HTTP/1.1 +20 OK\r\n\r\n",
            b"SPDY/3 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let err = parse_response(wire).expect_err("must refuse");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{wire:?}");
        }
        let mut huge = b"HTTP/1.1 200 OK\r\nx: ".to_vec();
        huge.resize(MAX_HEADER_BYTES + 1, b'a');
        assert!(try_parse_response(&mut huge).is_err());
    }

    #[test]
    fn response_parser_reads_retry_after_and_connection_close() {
        let shed = parse_response(&render_response(503, "{}", true, Some(2))).expect("shed");
        assert_eq!(
            (shed.status, shed.retry_after, shed.keep_alive),
            (503, Some(2), true)
        );
        let closing = parse_response(&render_response(200, "{}", false, None)).expect("close");
        assert_eq!((closing.retry_after, closing.keep_alive), (None, false));
        let old = parse_response(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n").expect("1.0");
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn rendered_requests_parse_back() {
        let wire = render_request("POST", "/v1/predict", b"{}", Some(40));
        let req = parse_one(&wire).expect("round trip");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/predict")
        );
        assert_eq!(
            (req.body.as_slice(), req.deadline_ms),
            (&b"{}"[..], Some(40))
        );
        assert!(req.keep_alive);
        let req = parse_one(&render_request("GET", "/healthz", b"", None)).expect("no budget");
        assert_eq!(req.deadline_ms, None);
    }
}
