//! A tiny blocking HTTP/1.1 client over one keep-alive connection — the
//! counterpart of [`crate::http`], shared by the integration tests, the
//! `serve_bench` load generator and the CI smoke driver.
//!
//! [`Client::request_with_retry`] adds overload-aware resilience: typed
//! sheds (`429 overloaded`, `503 shutting_down`/`not_ready`) are retried
//! with capped exponential backoff plus jitter, waiting at least the
//! server's `Retry-After` hint. Transport errors are retried (with a
//! reconnect) only for **idempotent** requests — a session create or
//! check-in append whose connection died mid-flight may or may not have
//! been applied server-side, so replaying it could double-book state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Value;

/// One full HTTP response, including the overload-control metadata the
/// retry layer keys on.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the protocol's bodies are always UTF-8 JSON).
    pub body: String,
    /// `Retry-After` seconds, when the server attached one to a shed.
    pub retry_after: Option<u64>,
}

/// Backoff policy for [`Client::request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed — deterministic per client so tests and the bench
    /// driver reproduce their schedules exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x7e57,
        }
    }
}

/// Statuses the retry layer treats as "the server explicitly shed this
/// request without processing it" — safe to replay for any method.
fn is_typed_shed(status: u16) -> bool {
    status == 429 || status == 503
}

/// Whether a request can be replayed after a *transport* failure, where
/// the client cannot know if the server applied it. Session creates and
/// check-in appends mutate server state non-idempotently; everything else
/// in the protocol (predictions, reads, deletes, admin) replays safely.
pub(crate) fn is_idempotent(method: &str, path: &str) -> bool {
    if method != "POST" {
        return true;
    }
    path != "/v1/sessions" && !path.ends_with("/checkins")
}

/// One persistent client connection.
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    rng: StdRng,
    deadline_ms: Option<u64>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Ok(Client {
            addr: addr.to_string(),
            reader: BufReader::new(Self::open(addr)?),
            rng: StdRng::seed_from_u64(RetryPolicy::default().seed),
            deadline_ms: None,
        })
    }

    /// Attaches (or clears) an `x-tspn-deadline-ms` budget sent with every
    /// subsequent request on this client.
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
    }

    fn open(addr: &str) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(stream)
    }

    /// Drops the current connection and dials a fresh one.
    ///
    /// # Errors
    /// Connection failures.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.reader = BufReader::new(Self::open(&self.addr)?);
        Ok(())
    }

    /// Issues one request and reads the full response.
    ///
    /// # Errors
    /// I/O failures or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.request_full(method, path, body)
            .map(|r| (r.status, r.body))
    }

    /// Issues one request and reads the full response, including the
    /// `Retry-After` hint.
    ///
    /// # Errors
    /// I/O failures or a malformed response.
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let body = body.unwrap_or("");
        let deadline = self
            .deadline_ms
            .map(|ms| format!("x-tspn-deadline-ms: {ms}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
             {deadline}Connection: keep-alive\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_response()
    }

    /// [`Client::request_full`] wrapped in the overload-aware retry loop:
    ///
    /// * Typed sheds (429/503) are replayed after a capped-exponential,
    ///   jittered backoff — never sooner than the server's `Retry-After`.
    /// * Transport errors reconnect and replay **only** idempotent
    ///   requests (see `is_idempotent`); a session create/append error
    ///   surfaces immediately because its server-side effect is unknown.
    ///
    /// The last shed response is returned (never hidden behind an error)
    /// when attempts run out, so callers can count sheds.
    ///
    /// # Errors
    /// Transport failures (non-idempotent, or attempts exhausted).
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        policy: RetryPolicy,
    ) -> std::io::Result<Response> {
        let mut backoff = policy.base;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 1..=policy.max_attempts.max(1) {
            if attempt > 1 {
                // Jittered: 50%..100% of the nominal backoff, so a fleet
                // of shed clients does not re-arrive in lockstep.
                let nominal = backoff.min(policy.cap);
                std::thread::sleep(nominal.mul_f64(self.rng.gen_range(0.5..=1.0)));
                backoff = backoff.saturating_mul(2);
            }
            if last_err.take().is_some() && self.reconnect().is_err() {
                // Server gone; keep trying until attempts run out.
                last_err = Some(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "reconnect failed",
                ));
                continue;
            }
            match self.request_full(method, path, body) {
                Ok(resp) if is_typed_shed(resp.status) && attempt < policy.max_attempts => {
                    // Honour Retry-After as a floor on the next backoff.
                    if let Some(secs) = resp.retry_after {
                        backoff = backoff.max(Duration::from_secs(secs));
                    }
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    if !is_idempotent(method, path) {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "retries exhausted")
        }))
    }

    /// `GET` shorthand.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    /// `POST` shorthand with a JSON body.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    /// `POST` that parses the response body as JSON.
    ///
    /// # Errors
    /// I/O failures or a response body that is not valid JSON.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Value)> {
        let (status, text) = self.post(path, body)?;
        let value = serde_json::from_str::<Value>(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("non-JSON response {text:?}: {e}"),
            )
        })?;
        Ok((status, value))
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        if status_line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad Content-Length in response",
                        )
                    })?;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response body")
        })?;
        Ok(Response {
            status,
            body,
            retry_after,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted stub server: each inner vec is one accepted connection;
    /// each entry answers one request with the given raw bytes (`None`
    /// closes the connection instead of answering — a mid-flight kill).
    fn stub_server(
        script: Vec<Vec<Option<String>>>,
    ) -> (String, Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let requests = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&requests);
        let handle = std::thread::spawn(move || {
            for conn in script {
                let (stream, _) = listener.accept().expect("stub accept");
                let mut reader = BufReader::new(stream);
                for response in conn {
                    if read_one_request(&mut reader).is_none() {
                        return;
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    match response {
                        Some(raw) => {
                            let stream = reader.get_mut();
                            stream.write_all(raw.as_bytes()).expect("stub write");
                            stream.flush().expect("stub flush");
                        }
                        None => break, // drop the connection mid-flight
                    }
                }
            }
        });
        (addr, requests, handle)
    }

    /// Reads one request (headers + Content-Length body) off the stub's
    /// connection; `None` when the client hung up.
    fn read_one_request(reader: &mut BufReader<TcpStream>) -> Option<()> {
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).ok()?;
        Some(())
    }

    fn shed_429() -> String {
        "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 0\r\n\
         Connection: keep-alive\r\n\r\n{}"
            .to_string()
    }

    fn ok_200() -> String {
        "HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}"
            .to_string()
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            seed: 7,
        }
    }

    #[test]
    fn typed_sheds_are_retried_until_the_server_recovers() {
        let (addr, requests, server) = stub_server(vec![vec![
            Some(shed_429()),
            Some(shed_429()),
            Some(ok_200()),
        ]]);
        let mut client = Client::connect(&addr).expect("connect");
        let resp = client
            .request_with_retry("POST", "/v1/predict", Some("{}"), fast_policy())
            .expect("retry succeeds");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}");
        assert_eq!(requests.load(Ordering::SeqCst), 3, "two sheds then success");
        drop(client);
        server.join().expect("stub exits");
    }

    #[test]
    fn exhausted_retries_surface_the_last_shed_not_an_error() {
        let (addr, requests, server) = stub_server(vec![vec![
            Some(shed_429()),
            Some(shed_429()),
            Some(shed_429()),
            Some(shed_429()),
        ]]);
        let mut client = Client::connect(&addr).expect("connect");
        let resp = client
            .request_with_retry("POST", "/v1/predict", Some("{}"), fast_policy())
            .expect("a typed shed is a response, not an error");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(0));
        assert_eq!(requests.load(Ordering::SeqCst), 4, "all attempts consumed");
        drop(client);
        server.join().expect("stub exits");
    }

    #[test]
    fn transport_errors_reconnect_and_replay_idempotent_requests() {
        // First connection dies mid-flight; the retry dials a second one.
        let (addr, requests, server) = stub_server(vec![vec![None], vec![Some(ok_200())]]);
        let mut client = Client::connect(&addr).expect("connect");
        let resp = client
            .request_with_retry("GET", "/healthz", None, fast_policy())
            .expect("idempotent request survives a dead connection");
        assert_eq!(resp.status, 200);
        assert_eq!(requests.load(Ordering::SeqCst), 2);
        drop(client);
        server.join().expect("stub exits");
    }

    #[test]
    fn non_idempotent_appends_are_never_replayed_after_transport_errors() {
        for path in ["/v1/sessions", "/v1/sessions/s3/checkins"] {
            let (addr, requests, server) = stub_server(vec![vec![None]]);
            let mut client = Client::connect(&addr).expect("connect");
            let err = client
                .request_with_retry("POST", path, Some("{}"), fast_policy())
                .expect_err("unknown server-side effect must surface");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{path}");
            assert_eq!(
                requests.load(Ordering::SeqCst),
                1,
                "{path}: one attempt only"
            );
            drop(client);
            server.join().expect("stub exits");
        }
    }

    #[test]
    fn idempotency_is_decided_by_method_and_path() {
        assert!(is_idempotent("GET", "/v1/sessions"));
        assert!(is_idempotent("DELETE", "/v1/sessions/s1"));
        assert!(is_idempotent("POST", "/v1/predict"));
        assert!(is_idempotent("POST", "/v1/sessions/s1/predict"));
        assert!(!is_idempotent("POST", "/v1/sessions"));
        assert!(!is_idempotent("POST", "/v1/sessions/s1/checkins"));
    }
}
