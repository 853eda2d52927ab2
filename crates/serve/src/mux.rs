//! Event-driven connection multiplexer: one `poll(2)` loop owns every
//! client socket, a small fixed worker pool runs the route handlers.
//!
//! The pre-scale-out server spent a thread per connection; a thousand
//! idle keep-alive clients cost a thousand parked threads. Here they cost
//! one `pollfd` each: the mux thread is the **only** reader and writer of
//! client sockets, driving each connection through a small state machine
//! — accumulate bytes and feed them to the incremental parser
//! ([`crate::http::try_parse_request`]); on a complete request, hand it
//! to the worker pool (workers may block — the micro-batcher wait happens
//! there); buffer the worker's response and drain it on `POLLOUT`. All
//! of PR 6's protocol protections survive unchanged because they live in
//! the shared parser and renderer: `431`/`413` limits, malformed-request
//! `400`s, the partial-transfer deadline (enforced here by sweeping
//! half-read connections on poll ticks), and typed `Retry-After` sheds.
//!
//! Workers finish a request by pushing the response over a channel and
//! writing one byte to a loopback **wake** socket the mux polls, so a
//! completion interrupts the poll wait exactly like client traffic
//! (std-only; no pipe/eventfd FFI — the only syscall shim is `poll`
//! itself, following the `signal` precedent in the `tspn-serve` binary).
//!
//! Shutdown/draining: once the shutdown flag is up the listener closes,
//! idle connections are dropped, in-flight requests finish (handlers
//! answer new ones with typed `503 shutting_down`), every queued response
//! byte is flushed with `Connection: close`, and the loop exits when no
//! connections remain (bounded by a drain grace).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, render_response, try_parse_request, ReadError, Request};

// ---------------------------------------------------------------------
// poll(2) shim
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    /// Readable-data readiness.
    pub const POLLIN: i16 = 0x001;
    /// Writable readiness.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (always reported).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always reported).
    pub const POLLHUP: i16 = 0x010;
    /// Invalid fd (always reported).
    pub const POLLNVAL: i16 = 0x020;

    /// Mirror of the kernel's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses. A negative
    /// return (e.g. `EINTR`) is reported as 0 — the caller's loop treats
    /// it as an idle tick and re-polls.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid exclusive slice of `repr(C)` pollfd
        // records for the duration of the call; the kernel only writes
        // the `revents` fields.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        n.max(0)
    }

    use std::os::unix::io::AsRawFd;

    pub fn fd_of(s: &impl AsRawFd) -> i32 {
        s.as_raw_fd()
    }
}

#[cfg(not(unix))]
mod sys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Portable fallback without a poll syscall: report everything ready
    /// after a short sleep. Correct (all I/O is non-blocking and handles
    /// `WouldBlock`) but busier than the real thing.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(1, 2) as u64
        ));
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        fds.len() as i32
    }

    pub fn fd_of<T>(_s: &T) -> i32 {
        0
    }
}

use sys::{fd_of, poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

/// Multiplexer limits. The server and the router both run with
/// [`MuxConfig::default`]; tests shrink the pool and the drain grace.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Request-body cap (bytes); above it the parser rejects with `413`.
    pub max_body: usize,
    /// Worker threads running route handlers. Workers may block on the
    /// micro-batcher, so this bounds concurrently *processed* requests —
    /// connections themselves are unbounded by threads.
    pub workers: usize,
    /// A buffered response making no write progress for this long means a
    /// dead or malicious peer; the connection is dropped.
    pub write_timeout: Duration,
    /// Hard bound on draining after shutdown: connections still open this
    /// long after the flag go up are dropped.
    pub drain_grace: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            // The protocol's bodies are tiny.
            max_body: 64 * 1024,
            workers: 32,
            write_timeout: Duration::from_secs(10),
            // Covers the worst-case in-flight wait: the deadline clamp
            // plus the flush grace is minutes only for abusive header
            // values; real traffic drains in seconds.
            drain_grace: Duration::from_secs(30),
        }
    }
}

/// What a route handler produced for one request.
#[derive(Debug, Clone)]
pub struct MuxResponse {
    /// HTTP status.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` seconds to attach (typed sheds).
    pub retry_after: Option<u64>,
    /// Force `Connection: close` regardless of what the client asked.
    pub close: bool,
}

/// A route handler: runs on a worker thread, may block (e.g. on the
/// micro-batcher), must be shutdown-aware itself (the mux hands it every
/// completed request, including during draining).
pub type Handler = dyn Fn(&Request) -> MuxResponse + Send + Sync;

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

struct Job {
    conn: u64,
    req: Request,
}

struct Completion {
    conn: u64,
    keep_alive: bool,
    resp: MuxResponse,
}

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Pool {
    queue: Arc<(Mutex<PoolQueue>, Condvar)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn spawn(
        workers: usize,
        handler: Arc<Handler>,
        done_tx: mpsc::Sender<Completion>,
        wake: &TcpStream,
    ) -> std::io::Result<Pool> {
        let queue: Arc<(Mutex<PoolQueue>, Condvar)> = Arc::default();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let done_tx = done_tx.clone();
            let mut wake = wake.try_clone()?;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mux-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let (lock, cv) = &*queue;
                            // Poison-recover: the queue is a VecDeque plus
                            // a bool, both structurally valid after any
                            // panic mid-hold, so a poisoned worker must
                            // not cascade into the rest of the pool.
                            let mut q = lock.lock().unwrap_or_else(|p| p.into_inner());
                            loop {
                                if let Some(job) = q.jobs.pop_front() {
                                    break job;
                                }
                                if q.closed {
                                    return;
                                }
                                q = cv.wait(q).unwrap_or_else(|p| p.into_inner());
                            }
                        };
                        let resp = handler(&job.req);
                        let keep_alive = job.req.keep_alive;
                        if done_tx
                            .send(Completion {
                                conn: job.conn,
                                keep_alive,
                                resp,
                            })
                            .is_ok()
                        {
                            // Nudge the poll loop; a failed wake is fine —
                            // the loop re-checks completions every tick.
                            let _ = wake.write_all(&[1]);
                        }
                    })?,
            );
        }
        Ok(Pool { queue, handles })
    }

    fn dispatch(&self, job: Job) {
        let (lock, cv) = &*self.queue;
        lock.lock()
            .unwrap_or_else(|p| p.into_inner())
            .jobs
            .push_back(job);
        cv.notify_one();
    }

    fn close_and_join(self) {
        {
            let (lock, cv) = &*self.queue;
            lock.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
            cv.notify_all();
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

enum Phase {
    /// Accumulating request bytes; the parser is fed after every read.
    Reading,
    /// A request is with the worker pool (or a terminal reject response
    /// is queued); no further parsing until its response is queued, so
    /// pipelined responses keep request order.
    Processing,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// First byte of a partially buffered request arrived then.
    partial_since: Option<Instant>,
    /// Last moment the queued response made write progress.
    write_since: Option<Instant>,
    close_after_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::Reading,
            partial_since: None,
            write_since: None,
            close_after_write: false,
        }
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn queue_response(&mut self, status: u16, body: &str, keep: bool, retry_after: Option<u64>) {
        self.out
            .extend_from_slice(&render_response(status, body, keep, retry_after));
        self.write_since.get_or_insert_with(Instant::now);
        self.close_after_write = !keep;
    }
}

/// Per-tick read cap per connection, so one firehose peer cannot starve
/// the rest of the loop.
const READ_BURST: usize = 256 * 1024;

/// Poll timeout: bounds the latency of shutdown checks and partial/write
/// deadline sweeps when no traffic flows.
const TICK: Duration = Duration::from_millis(100);

/// How long idle keep-alive connections stay open after draining begins,
/// so a request already on the wire (or about to be sent) receives the
/// typed `503 shutting_down` rather than a connection reset.
const DRAIN_NOTIFY: Duration = Duration::from_millis(1000);

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Runs the multiplexer until `shutdown` goes up and every connection has
/// drained. Call on a dedicated thread; `handler` runs on pool workers.
///
/// # Errors
/// Only setup failures (wake-channel plumbing, worker spawn); once the
/// loop is running, per-connection I/O errors just drop that connection.
pub fn run(
    listener: TcpListener,
    cfg: MuxConfig,
    shutdown: Arc<AtomicBool>,
    handler: Arc<Handler>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_tx, mut wake_rx) = wake_pair()?;
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let pool = Pool::spawn(cfg.workers.max(1), handler, done_tx, &wake_tx)?;

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut draining_since: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_ids: Vec<u64> = Vec::new();

    loop {
        // --- shutdown / draining transitions --------------------------
        if shutdown.load(Ordering::Acquire) && draining_since.is_none() {
            draining_since = Some(Instant::now());
            // Stop accepting and release the port immediately.
            listener = None;
        }
        if let Some(since) = draining_since {
            // Established keep-alive connections get a short notify window:
            // one last request can still arrive and be answered with the
            // handler's typed `503 shutting_down` (+ `Connection: close`)
            // instead of hitting a reset. After the window, idle
            // connections have nothing left to wait for and are dropped;
            // in-flight work stays bounded by `drain_grace`.
            let notify = since.elapsed() <= DRAIN_NOTIFY;
            conns.retain(|_, c| {
                notify
                    || matches!(c.phase, Phase::Processing)
                    || c.has_pending_out()
                    || !c.buf.is_empty()
            });
            if conns.is_empty() || since.elapsed() > cfg.drain_grace {
                break;
            }
        }

        // --- build the poll set ---------------------------------------
        fds.clear();
        fd_ids.clear();
        fds.push(PollFd {
            fd: fd_of(&wake_rx),
            events: POLLIN,
            revents: 0,
        });
        if let Some(l) = &listener {
            fds.push(PollFd {
                fd: fd_of(l),
                events: POLLIN,
                revents: 0,
            });
        }
        let base = fds.len();
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if matches!(conn.phase, Phase::Reading) && !conn.has_pending_out() {
                events |= POLLIN;
            }
            if conn.has_pending_out() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: fd_of(&conn.stream),
                events,
                revents: 0,
            });
            fd_ids.push(id);
        }

        poll_fds(&mut fds, TICK.as_millis() as i32);

        // --- wake channel: drain the nudge bytes ----------------------
        if fds[0].revents & POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }

        // --- accept new connections -----------------------------------
        if let Some(l) = &listener {
            if fds[base - 1].revents & POLLIN != 0 {
                for _ in 0..128 {
                    match l.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            next_id += 1;
                            conns.insert(next_id, Conn::new(stream));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            }
        }

        // --- worker completions: queue response bytes -----------------
        let draining = draining_since.is_some();
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue; // connection died while the worker ran
            };
            let keep = done.keep_alive && !done.resp.close && !draining;
            conn.queue_response(
                done.resp.status,
                &done.resp.body,
                keep,
                done.resp.retry_after,
            );
            conn.phase = Phase::Reading;
            // Pipelined read-ahead may already hold the next request; it
            // is parsed once this response finishes writing (ordering),
            // or on the next readable tick.
        }

        // --- per-connection I/O ---------------------------------------
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (i, &id) in fd_ids.iter().enumerate() {
            let revents = fds[base + i].revents;
            let Some(conn) = conns.get_mut(&id) else {
                // Bookkeeping drift between fd_ids and the conn map is a
                // bug, but retiring the orphaned fd beats aborting the mux
                // thread with every live connection on it.
                dead.push(id);
                continue;
            };
            if revents & (POLLERR | POLLNVAL) != 0 {
                dead.push(id);
                continue;
            }
            if revents & POLLHUP != 0 && !matches!(conn.phase, Phase::Reading) {
                // Peer hung up while its request is in flight (or while a
                // terminal response drains): kill-mid-flight, drop. A
                // Reading conn handles HUP through read() → EOF below.
                dead.push(id);
                continue;
            }
            if revents & POLLOUT != 0 && conn.has_pending_out() {
                if flush_out(conn).is_err() {
                    dead.push(id);
                    continue;
                }
                if !conn.has_pending_out() && conn.close_after_write {
                    dead.push(id);
                    continue;
                }
            }
            if revents & (POLLIN | POLLHUP) != 0 && matches!(conn.phase, Phase::Reading) {
                match read_burst(conn) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => {
                        // EOF between requests is a clean close; EOF with
                        // a partial request buffered cannot complete.
                        dead.push(id);
                        continue;
                    }
                }
            }
            // Parse/dispatch whenever the conn is idle-reading with no
            // response in flight or pending.
            if matches!(conn.phase, Phase::Reading) && !conn.has_pending_out() {
                advance(conn, id, cfg.max_body, &pool);
            }
            // Deadline sweeps.
            if conn
                .partial_since
                .is_some_and(|t| now.duration_since(t) > http::PARTIAL_DEADLINE)
            {
                dead.push(id);
                continue;
            }
            if conn
                .write_since
                .is_some_and(|t| now.duration_since(t) > cfg.write_timeout)
            {
                dead.push(id);
            }
        }
        for id in dead {
            conns.remove(&id);
        }
    }

    pool.close_and_join();
    Ok(())
}

/// Reads until `WouldBlock` (capped at [`READ_BURST`] per call). Returns
/// `Ok(false)` on EOF, `Ok(true)` otherwise.
fn read_burst(conn: &mut Conn) -> std::io::Result<bool> {
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.partial_since.get_or_insert_with(Instant::now);
                total += n;
                if total >= READ_BURST {
                    return Ok(true);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Feeds buffered bytes to the parser; on a complete request hands it to
/// the pool (entering [`Phase::Processing`]), on a protocol violation
/// queues the typed reject and closes after writing it.
fn advance(conn: &mut Conn, id: u64, max_body: usize, pool: &Pool) {
    match try_parse_request(&mut conn.buf, max_body) {
        Ok(Some(req)) => {
            conn.partial_since = None;
            conn.phase = Phase::Processing;
            pool.dispatch(Job { conn: id, req });
        }
        Ok(None) => {
            if conn.buf.is_empty() {
                conn.partial_since = None;
            }
        }
        Err(ReadError::Bad { status, message }) => {
            let body = crate::protocol::error_response(http::error_code(status), &message);
            conn.queue_response(status, &body, false, None);
            // No worker owns this conn; Processing just blocks parsing.
            conn.phase = Phase::Processing;
            conn.partial_since = None;
        }
    }
}

/// Writes as much pending response as the socket accepts right now.
fn flush_out(conn: &mut Conn) -> std::io::Result<()> {
    while conn.has_pending_out() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "peer stopped accepting",
                ))
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.write_since = Some(Instant::now());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    conn.write_since = None;
    Ok(())
}

/// A loopback socket pair used as the worker→mux wake channel (std-only;
/// avoids pipe/eventfd FFI). The write end is cloned per worker; the read
/// end sits in the poll set.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let gate = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(gate.local_addr()?)?;
    let (rx, _) = gate.accept()?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    fn start_echo(
        workers: usize,
    ) -> (
        String,
        Arc<AtomicBool>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handler: Arc<Handler> = Arc::new(|req: &Request| MuxResponse {
            status: 200,
            body: format!("{{\"path\":{:?},\"len\":{}}}", req.path, req.body.len()),
            retry_after: None,
            close: false,
        });
        let cfg = MuxConfig {
            workers,
            drain_grace: Duration::from_secs(2),
            ..MuxConfig::default()
        };
        let h = std::thread::spawn(move || run(listener, cfg, flag, handler));
        (addr, shutdown, h)
    }

    /// Writes raw bytes on a fresh connection and reads until the mux
    /// closes it (a read timeout turns a connection left open into a
    /// failure instead of a hang).
    fn exchange(addr: &str, wire: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(wire).expect("write");
        let mut out = Vec::new();
        stream
            .read_to_end(&mut out)
            .expect("the mux closes the connection");
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_keep_alive_sequences_and_rejects_bad_framing() {
        let (addr, shutdown, mux) = start_echo(2);
        let mut c = crate::client::Client::connect(&addr).expect("connect");
        for i in 0..5 {
            let (status, body) = c
                .post("/v1/predict", &"x".repeat(i + 1))
                .expect("keep-alive request");
            assert_eq!(status, 200);
            assert!(body.contains(&format!("\"len\":{}", i + 1)), "{body}");
        }
        // A second, malformed connection gets a typed 400 and a close —
        // the first connection keeps serving afterwards.
        let answer = exchange(&addr, b"NOT-HTTP\r\n\r\n");
        assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
        assert!(answer.contains("bad_request"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        let (status, _) = c.get("/healthz").expect("still serving");
        assert_eq!(status, 200);
        drop(c);
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
    }

    #[test]
    fn concurrent_connections_outnumber_workers() {
        // 8 concurrent clients over 2 workers: connections are poll
        // entries, not threads, so all of them complete.
        let (addr, shutdown, mux) = start_echo(2);
        let mut joins = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            joins.push(std::thread::spawn(move || {
                let mut c = crate::client::Client::connect(&addr).expect("connect");
                let (status, body) = c.post(&format!("/echo/{i}"), "{}").expect("request");
                assert_eq!(status, 200);
                assert!(body.contains(&format!("/echo/{i}")), "{body}");
            }));
        }
        for j in joins {
            j.join().expect("client");
        }
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
    }

    #[test]
    fn draining_closes_idle_connections_and_exits() {
        let (addr, shutdown, mux) = start_echo(1);
        // An idle keep-alive connection holds no thread and must not
        // block shutdown.
        let idle = TcpStream::connect(&addr).expect("connect idle");
        std::thread::sleep(Duration::from_millis(50));
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
        drop(idle);
    }

    #[test]
    fn oversized_header_block_yields_431_and_a_closed_connection() {
        let (addr, shutdown, mux) = start_echo(1);
        // A header line that never ends, one byte past the cap: the
        // buffer must not grow further before the connection is refused.
        let mut wire = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        wire.resize(http::MAX_HEADER_BYTES + 1, b'a');
        let answer = exchange(&addr, &wire);
        assert!(answer.starts_with("HTTP/1.1 431 "), "{answer}");
        assert!(answer.contains("headers_too_large"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
    }

    #[test]
    fn oversized_body_yields_413_without_buffering_it() {
        let (addr, shutdown, mux) = start_echo(1);
        // Only the headers are sent: the refusal must not wait for the
        // declared body.
        let answer = exchange(
            &addr,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        );
        assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
        assert!(answer.contains("payload_too_large"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
    }

    #[test]
    fn connection_close_is_honoured_after_the_response() {
        let (addr, shutdown, mux) = start_echo(1);
        let answer = exchange(&addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        assert!(
            answer.ends_with("{\"path\":\"/healthz\",\"len\":0}"),
            "clean close after the body: {answer}"
        );
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
    }
}
