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
    let Some(end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::bad(
                431,
                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            ));
        }
        return Ok(None);
    };
    let head = String::from_utf8_lossy(buf.get(..end).unwrap_or_default()).into_owned();
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
    let Some(body) = buf.get(body_start..body_start + content_length) else {
        return Ok(None);
    };
    let body = body.to_vec();
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
}
