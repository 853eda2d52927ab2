//! Event-driven connection multiplexer: one `poll(2)` loop owns every
//! client socket and calls the route handler inline.
//!
//! The pre-scale-out server spent a thread per connection; a thousand
//! idle keep-alive clients cost a thousand parked threads. Here they cost
//! one `pollfd` each: the mux thread is the **only** reader and writer of
//! client sockets, driving each connection through a small state machine
//! — accumulate bytes and feed them to the incremental parser
//! ([`crate::http::try_parse_request`]); on a complete request, call the
//! [`Handler`] on this thread with the request and a [`Reply`]; write the
//! reply's bytes as soon as it is completed, falling back to `POLLOUT`
//! only when the socket is full. All of PR 6's protocol protections
//! survive unchanged because they live in the shared parser and renderer:
//! `431`/`413` limits, malformed-request `400`s, the partial-transfer
//! deadline (enforced here by sweeping half-read connections on poll
//! ticks), and typed `Retry-After` sheds.
//!
//! A handler never blocks. It answers at once (`Reply::send` on this
//! thread, written in the same loop iteration) or moves the [`Reply`] to
//! the thread that will produce the answer: a batcher lane, a
//! per-request thread, the router's forwarding pool. The reply contract:
//!
//! * A [`Reply`] is completed at most once, from any thread. Dropped
//!   unsent, it answers a typed `500 internal`.
//! * Each connection numbers its requests, so a late reply can never
//!   answer the connection's next request.
//! * The handler returns a **give-up instant** for a deferred reply. If
//!   the reply has not arrived by then, the mux answers `503
//!   deadline_exceeded` itself and drops the reply when it comes.
//! * The call runs under `catch_unwind`: a panicking handler costs its
//!   request one `500`, and the mux thread carries on.
//!
//! A reply completed on another thread lands in a shared outbox. If the
//! loop may be asleep in `poll`, the sender also writes one byte to a
//! loopback **wake** socket the mux polls, so the completion interrupts
//! the poll wait exactly like client traffic (std-only; no pipe/eventfd
//! FFI — the only syscall shim is `poll` itself, following the `signal`
//! precedent in the `tspn-serve` binary). Replies sent while the loop is
//! awake, inline ones included, write no wake byte.
//!
//! Shutdown/draining: once the shutdown flag is up the listener closes,
//! idle connections are dropped, in-flight requests finish (handlers
//! answer new ones with typed `503 shutting_down`), every queued response
//! byte is flushed with `Connection: close`, and the loop exits when no
//! connections remain (bounded by a drain grace).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, render_response, try_parse_request, ReadError, Request};
use crate::protocol::ApiError;

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
/// [`MuxConfig::default`]; tests shrink the drain grace.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Request-body cap (bytes); above it the parser rejects with `413`.
    pub max_body: usize,
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

impl MuxResponse {
    /// A keep-alive answer. The typed sheds (429/503) carry `Retry-After`,
    /// so well-behaved clients back off instead of hammering a full
    /// queue.
    pub fn new(status: u16, body: String) -> MuxResponse {
        MuxResponse {
            status,
            body,
            retry_after: (status == 429 || status == 503).then_some(RETRY_AFTER_SECS),
            close: false,
        }
    }

    /// A typed error answer.
    pub fn error(err: &ApiError) -> MuxResponse {
        let (status, body) = err.render();
        MuxResponse::new(status, body)
    }
}

/// `Retry-After` seconds on the typed sheds.
const RETRY_AFTER_SECS: u64 = 1;

/// A route handler. It runs **inline on the mux thread** and must not
/// block: it answers through `reply` at once, or moves `reply` to the
/// thread that will answer. It returns the give-up instant for a deferred
/// reply (`None`: wait for it, bounded only by the drain grace at
/// shutdown). Handlers are shutdown-aware themselves: the mux hands them
/// every completed request, including during draining.
pub type Handler = dyn Fn(Request, Reply) -> Option<Instant> + Send;

/// The answer slot of one request. Any thread may complete it, once, with
/// [`Reply::send`]; dropping it unsent answers a typed `500 internal`.
pub struct Reply {
    conn: u64,
    seq: u64,
    /// `None` once the reply has been sent.
    outbox: Option<Arc<Outbox>>,
}

impl Reply {
    /// Completes the request with `resp`.
    pub fn send(mut self, resp: MuxResponse) {
        self.complete(resp);
    }

    fn complete(&mut self, resp: MuxResponse) {
        if let Some(outbox) = self.outbox.take() {
            outbox.push(Completion {
                conn: self.conn,
                seq: self.seq,
                resp,
            });
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if self.outbox.is_some() {
            self.complete(MuxResponse::error(&ApiError::internal(
                "the request failed before it was answered (e.g. its prediction batch \
                 crashed); retry",
            )));
        }
    }
}

// ---------------------------------------------------------------------
// Completions
// ---------------------------------------------------------------------

struct Completion {
    conn: u64,
    seq: u64,
    resp: MuxResponse,
}

/// Replies completed but not yet queued on their connection, and the
/// wake channel that tells a sleeping loop about them.
struct Outbox {
    done: Mutex<Vec<Completion>>,
    /// Up while the loop may be blocked in `poll`: the next sender writes
    /// one wake byte and lowers it, so a burst of completions costs one
    /// byte and completions sent while the loop is awake cost none.
    asleep: AtomicBool,
    wake: TcpStream,
}

impl Outbox {
    fn push(&self, done: Completion) {
        // Poison-recover: a Vec of completions is structurally valid
        // after any panic mid-hold.
        self.done
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(done);
        if self.asleep.swap(false, Ordering::SeqCst) {
            // A failed wake is fine — the loop re-checks the outbox every
            // tick.
            let _ = (&self.wake).write_all(&[1]);
        }
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(|p| p.into_inner()))
    }

    fn is_empty(&self) -> bool {
        self.done
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_empty()
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

enum Phase {
    /// Accumulating request bytes; the parser is fed after every read.
    Reading,
    /// Request `seq` is with its handler; no further parsing until its
    /// reply is queued, so pipelined responses keep request order.
    Awaiting {
        seq: u64,
        keep_alive: bool,
        give_up: Option<Instant>,
    },
    /// A terminal reject is queued; the connection closes once it is
    /// written.
    Rejected,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Sequence number of the next request parsed on this connection.
    next_seq: u64,
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
            next_seq: 0,
            partial_since: None,
            write_since: None,
            close_after_write: false,
        }
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// True when the connection can parse its next request now.
    fn ready_to_parse(&self) -> bool {
        matches!(self.phase, Phase::Reading) && !self.has_pending_out()
    }

    /// Queues a response and writes as much of it as the socket takes
    /// right away; the rest waits for `POLLOUT`. Returns false when the
    /// connection is finished: a write failed, or a closing response is
    /// fully written.
    fn answer(&mut self, status: u16, body: &str, keep: bool, retry_after: Option<u64>) -> bool {
        self.out
            .extend_from_slice(&render_response(status, body, keep, retry_after));
        self.write_since.get_or_insert_with(Instant::now);
        self.close_after_write = !keep;
        self.flush_out().is_ok() && !self.closing_done()
    }

    /// True once a closing response has been written in full.
    fn closing_done(&self) -> bool {
        self.close_after_write && !self.has_pending_out()
    }

    /// Writes as much pending response as the socket accepts right now.
    fn flush_out(&mut self) -> std::io::Result<()> {
        while let Some(pending) = self.out.get(self.out_pos..).filter(|p| !p.is_empty()) {
            match self.stream.write(pending) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "peer stopped accepting",
                    ))
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.write_since = Some(Instant::now());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        self.write_since = None;
        Ok(())
    }
}

/// Per-tick read cap per connection, so one firehose peer cannot starve
/// the rest of the loop.
const READ_BURST: usize = 256 * 1024;

/// Per-tick cap on pipelined requests served from one connection's read
/// buffer, for the same reason; the rest wait for the next (immediate)
/// tick.
const PIPELINE_BURST: usize = 16;

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

/// Everything one loop iteration needs besides the connection table.
struct Loop<'a> {
    cfg: MuxConfig,
    handler: &'a Handler,
    outbox: &'a Arc<Outbox>,
    draining: bool,
    /// A connection may hold a complete request in its read buffer: poll
    /// again without waiting.
    busy: bool,
}

/// Runs the multiplexer until `shutdown` goes up and every connection has
/// drained. Call on a dedicated thread; `handler` runs on it.
///
/// # Errors
/// Only setup failures (the wake-channel plumbing); once the loop is
/// running, per-connection I/O errors just drop that connection.
pub fn run(
    listener: TcpListener,
    cfg: MuxConfig,
    shutdown: Arc<AtomicBool>,
    handler: Box<Handler>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_tx, mut wake_rx) = wake_pair()?;
    let outbox = Arc::new(Outbox {
        done: Mutex::new(Vec::new()),
        asleep: AtomicBool::new(false),
        wake: wake_tx,
    });
    let mut lp = Loop {
        cfg,
        handler: &*handler,
        outbox: &outbox,
        draining: false,
        busy: false,
    };

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
            lp.draining = true;
            // Established keep-alive connections get a short notify window:
            // one last request can still arrive and be answered with the
            // handler's typed `503 shutting_down` (+ `Connection: close`)
            // instead of hitting a reset. After the window, idle
            // connections have nothing left to wait for and are dropped;
            // in-flight work stays bounded by `drain_grace`.
            let notify = since.elapsed() <= DRAIN_NOTIFY;
            conns.retain(|_, c| {
                notify
                    || !matches!(c.phase, Phase::Reading)
                    || c.has_pending_out()
                    || !c.buf.is_empty()
            });
            if conns.is_empty() || since.elapsed() > cfg.drain_grace {
                break;
            }
        }

        // --- build the poll set ---------------------------------------
        let now = Instant::now();
        let mut timeout = TICK;
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
            if conn.ready_to_parse() {
                events |= POLLIN;
            }
            if conn.has_pending_out() {
                events |= POLLOUT;
            }
            if let Phase::Awaiting {
                give_up: Some(t), ..
            } = conn.phase
            {
                timeout = timeout.min(t.saturating_duration_since(now));
            }
            fds.push(PollFd {
                fd: fd_of(&conn.stream),
                events,
                revents: 0,
            });
            fd_ids.push(id);
        }

        // Raise `asleep` *before* the last outbox check: a reply pushed
        // after the check sees the flag and writes a wake byte.
        outbox.asleep.store(true, Ordering::SeqCst);
        if lp.busy || !outbox.is_empty() {
            timeout = Duration::ZERO;
        }
        // Round up, so a give-up instant less than a millisecond away
        // does not spin the loop.
        let timeout_ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        poll_fds(&mut fds, timeout_ms);
        outbox.asleep.store(false, Ordering::SeqCst);

        let mut revents = fds.iter().map(|f| f.revents);

        // --- wake channel: drain the nudge bytes ----------------------
        if revents.next().unwrap_or(0) & POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }

        // --- accept new connections -----------------------------------
        if let Some(l) = &listener {
            if revents.next().unwrap_or(0) & POLLIN != 0 {
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

        // --- replies completed on other threads -----------------------
        lp.busy = false;
        lp.complete(&mut conns);

        // --- per-connection I/O ---------------------------------------
        let now = Instant::now();
        for (&id, pfd) in fd_ids.iter().zip(fds.get(base..).unwrap_or(&[])) {
            if !lp.turn(&mut conns, id, pfd.revents, now) {
                conns.remove(&id);
            }
        }
    }
    Ok(())
}

impl Loop<'_> {
    /// Queues every completed reply on its connection and writes it. A
    /// reply whose connection is gone, or which the mux already gave up
    /// on, is dropped.
    fn complete(&mut self, conns: &mut HashMap<u64, Conn>) {
        for done in self.outbox.take() {
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue; // the connection died while its reply was pending
            };
            let keep_alive = match conn.phase {
                Phase::Awaiting {
                    seq, keep_alive, ..
                } if seq == done.seq => keep_alive,
                _ => continue, // a late reply: the mux answered 503 already
            };
            conn.phase = Phase::Reading;
            let keep = keep_alive && !done.resp.close && !self.draining;
            let resp = &done.resp;
            if conn.answer(resp.status, &resp.body, keep, resp.retry_after) {
                // Pipelined read-ahead parses on the next (immediate) tick.
                self.busy |= conn.ready_to_parse() && !conn.buf.is_empty();
            } else {
                conns.remove(&done.conn);
            }
        }
    }

    /// One connection's turn: socket I/O on its poll events, the give-up
    /// sweep, then parse and dispatch buffered requests, then the socket
    /// deadline sweeps. Returns false when the connection is finished.
    fn turn(
        &mut self,
        conns: &mut HashMap<u64, Conn>,
        id: u64,
        revents: i16,
        now: Instant,
    ) -> bool {
        let Some(conn) = conns.get_mut(&id) else {
            return false; // a completion already retired it
        };
        if revents & (POLLERR | POLLNVAL) != 0 {
            return false;
        }
        if revents & POLLHUP != 0 && !matches!(conn.phase, Phase::Reading) {
            // Peer hung up while its request is in flight (or while a
            // terminal response drains): kill-mid-flight, drop. A
            // Reading conn handles HUP through read() → EOF below.
            return false;
        }
        if revents & POLLOUT != 0
            && conn.has_pending_out()
            && (conn.flush_out().is_err() || conn.closing_done())
        {
            return false;
        }
        // EOF between requests is a clean close; EOF with a partial
        // request buffered cannot complete.
        if revents & (POLLIN | POLLHUP) != 0
            && matches!(conn.phase, Phase::Reading)
            && !matches!(read_burst(conn), Ok(true))
        {
            return false;
        }
        if let Phase::Awaiting {
            keep_alive,
            give_up: Some(t),
            ..
        } = conn.phase
        {
            if now >= t {
                // Answer for the handler; its reply is dropped on arrival
                // because the phase no longer awaits its sequence number.
                conn.phase = Phase::Reading;
                let gone = MuxResponse::error(&ApiError::deadline_exceeded(
                    "request deadline exceeded before the batch ran",
                ));
                let keep = keep_alive && !self.draining;
                if !conn.answer(gone.status, &gone.body, keep, gone.retry_after) {
                    return false;
                }
            }
        }

        // Parse and dispatch while the connection is free to; an inline
        // reply is written before the next request is parsed. A burst cut
        // short by the cap leaves read-ahead for the next tick.
        let mut parsed = 0;
        loop {
            let Some(conn) = conns.get_mut(&id) else {
                return false;
            };
            if !conn.ready_to_parse() {
                break;
            }
            if parsed == PIPELINE_BURST {
                self.busy = true;
                break;
            }
            match self.dispatch(conn, id) {
                Parsed::Request => self.complete(conns),
                Parsed::Incomplete => break,
                Parsed::Finished => return false,
            }
            parsed += 1;
        }

        let Some(conn) = conns.get_mut(&id) else {
            return false;
        };
        let partial_expired = conn
            .partial_since
            .is_some_and(|t| now.duration_since(t) > http::PARTIAL_DEADLINE);
        let write_stalled = conn
            .write_since
            .is_some_and(|t| now.duration_since(t) > self.cfg.write_timeout);
        !partial_expired && !write_stalled
    }

    /// Feeds buffered bytes to the parser. A complete request goes to the
    /// handler, inline and under `catch_unwind`; a protocol violation
    /// queues the typed reject, which closes the connection once written.
    fn dispatch(&mut self, conn: &mut Conn, id: u64) -> Parsed {
        match try_parse_request(&mut conn.buf, self.cfg.max_body) {
            Ok(Some(req)) => {
                conn.partial_since = None;
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let keep_alive = req.keep_alive;
                let reply = Reply {
                    conn: id,
                    seq,
                    outbox: Some(Arc::clone(self.outbox)),
                };
                // A panic drops `reply` while unwinding, which answers
                // 500; the loop carries on.
                let handler = self.handler;
                let give_up =
                    catch_unwind(AssertUnwindSafe(|| handler(req, reply))).unwrap_or(None);
                conn.phase = Phase::Awaiting {
                    seq,
                    keep_alive,
                    give_up,
                };
                Parsed::Request
            }
            Ok(None) => {
                if conn.buf.is_empty() {
                    conn.partial_since = None;
                }
                Parsed::Incomplete
            }
            Err(ReadError::Bad { status, message }) => {
                let body = crate::protocol::error_response(http::error_code(status), &message);
                conn.phase = Phase::Rejected;
                conn.partial_since = None;
                if conn.answer(status, &body, false, None) {
                    Parsed::Request
                } else {
                    Parsed::Finished
                }
            }
        }
    }
}

/// What [`Loop::dispatch`] made of a connection's read buffer.
enum Parsed {
    /// A request went to the handler, or a reject is queued.
    Request,
    /// The buffer holds no complete request yet.
    Incomplete,
    /// A reject was written in full; the connection is done.
    Finished,
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
                conn.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
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

/// A loopback socket pair used as the reply→mux wake channel (std-only;
/// avoids pipe/eventfd FFI). The write end lives in the outbox; the read
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
    use std::sync::mpsc;

    fn echo(req: &Request) -> MuxResponse {
        MuxResponse {
            status: 200,
            body: format!("{{\"path\":{:?},\"len\":{}}}", req.path, req.body.len()),
            retry_after: None,
            close: false,
        }
    }

    fn start(
        handler: Box<Handler>,
    ) -> (
        String,
        Arc<AtomicBool>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let cfg = MuxConfig {
            drain_grace: Duration::from_secs(2),
            ..MuxConfig::default()
        };
        let h = std::thread::spawn(move || run(listener, cfg, flag, handler));
        (addr, shutdown, h)
    }

    fn start_echo() -> (
        String,
        Arc<AtomicBool>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        start(Box::new(|req: Request, reply: Reply| {
            reply.send(echo(&req));
            None
        }))
    }

    fn stop(shutdown: Arc<AtomicBool>, mux: std::thread::JoinHandle<std::io::Result<()>>) {
        shutdown.store(true, Ordering::Release);
        mux.join().expect("mux thread").expect("clean exit");
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

    fn code_of(body: &str) -> String {
        let v: serde::Value = serde_json::from_str(body).expect("typed JSON body");
        crate::protocol::error_of(&v).expect("typed error").0
    }

    #[test]
    fn serves_keep_alive_sequences_and_rejects_bad_framing() {
        let (addr, shutdown, mux) = start_echo();
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
        stop(shutdown, mux);
    }

    #[test]
    fn a_pending_deferred_reply_does_not_delay_inline_answers_elsewhere() {
        // `/park` hands its reply to the test, which sits on it; every
        // other path answers inline. Eight connections are answered while
        // the parked one waits, then the parked reply completes from the
        // test thread.
        let (parked_tx, parked_rx) = mpsc::channel::<(Request, Reply)>();
        let (addr, shutdown, mux) = start(Box::new(move |req: Request, reply: Reply| {
            if req.path == "/park" {
                let _ = parked_tx.send((req, reply));
            } else {
                reply.send(echo(&req));
            }
            None
        }));
        let parked = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = crate::client::Client::connect(&addr).expect("connect");
                c.post("/park", "{}").expect("parked request")
            })
        };
        let (req, reply) = parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked request reaches the handler");
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
        assert!(
            !parked.is_finished(),
            "the parked request was answered early"
        );
        reply.send(echo(&req));
        let (status, body) = parked.join().expect("parked client");
        assert_eq!(status, 200);
        assert!(body.contains("/park"), "{body}");
        stop(shutdown, mux);
    }

    #[test]
    fn a_dropped_reply_answers_500_and_the_connection_keeps_serving() {
        let (addr, shutdown, mux) = start(Box::new(|req: Request, reply: Reply| {
            if req.path == "/drop" {
                // Dropped on another thread, as a crashed batch does.
                std::thread::spawn(move || drop(reply));
            } else {
                reply.send(echo(&req));
            }
            None
        }));
        let mut c = crate::client::Client::connect(&addr).expect("connect");
        let (status, body) = c.post("/drop", "{}").expect("typed answer");
        assert_eq!(status, 500, "{body}");
        assert_eq!(code_of(&body), "internal");
        let (status, body) = c.get("/after").expect("same connection");
        assert_eq!(status, 200);
        assert!(body.contains("/after"), "{body}");
        drop(c);
        stop(shutdown, mux);
    }

    #[test]
    fn a_reply_after_the_give_up_instant_is_discarded_for_one_503() {
        let (late_tx, late_rx) = mpsc::channel::<()>();
        let (addr, shutdown, mux) = start(Box::new(move |req: Request, reply: Reply| {
            if req.path == "/slow" {
                let late_tx = late_tx.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(300));
                    reply.send(echo(&req));
                    let _ = late_tx.send(());
                });
                Some(Instant::now() + Duration::from_millis(50))
            } else {
                reply.send(echo(&req));
                None
            }
        }));
        let mut c = crate::client::Client::connect(&addr).expect("connect");
        let resp = c
            .request_full("POST", "/slow", Some("{}"))
            .expect("typed answer");
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(code_of(&resp.body), "deadline_exceeded");
        assert_eq!(resp.retry_after, Some(1));
        // The late reply is completed, then discarded: the next request
        // on the connection gets its own answer, not the stale one.
        late_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the late reply was sent");
        let (status, body) = c.get("/next").expect("same connection");
        assert_eq!(status, 200);
        assert!(body.contains("/next"), "{body}");
        drop(c);
        // On a raw socket: exactly one response for the slow request,
        // nothing after it.
        let wire = b"POST /slow HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(wire).expect("write");
        stream
            .set_read_timeout(Some(Duration::from_millis(800)))
            .expect("timeout");
        let mut out = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n) = stream.read(&mut chunk) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&out);
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        drop(stream);
        stop(shutdown, mux);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_across_threads() {
        // Each reply completes on its own thread, the earliest request
        // slowest: order must still follow the requests.
        let (addr, shutdown, mux) = start(Box::new(|req: Request, reply: Reply| {
            let i: u64 = req.path.trim_start_matches("/r").parse().unwrap_or(0);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10 * (5 - i.min(5))));
                reply.send(echo(&req));
            });
            None
        }));
        let mut wire = Vec::new();
        for i in 0..5 {
            let close = if i == 4 { "Connection: close\r\n" } else { "" };
            wire.extend_from_slice(format!("GET /r{i} HTTP/1.1\r\n{close}\r\n").as_bytes());
        }
        let answer = exchange(&addr, &wire);
        let order: Vec<usize> = (0..5)
            .map(|i| {
                answer
                    .find(&format!("\"/r{i}\""))
                    .expect("every request answered")
            })
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{answer}");
        assert_eq!(answer.matches("HTTP/1.1 200 ").count(), 5, "{answer}");
        stop(shutdown, mux);
    }

    #[test]
    fn a_panicking_inline_handler_answers_500_and_the_mux_keeps_serving() {
        let (addr, shutdown, mux) = start(Box::new(|req: Request, reply: Reply| {
            if req.path == "/panic" {
                panic!("handler bug");
            }
            reply.send(echo(&req));
            None
        }));
        let mut c = crate::client::Client::connect(&addr).expect("connect");
        let (status, body) = c.get("/panic").expect("typed answer");
        assert_eq!(status, 500, "{body}");
        assert_eq!(code_of(&body), "internal");
        let (status, _) = c.get("/healthz").expect("same connection");
        assert_eq!(status, 200);
        let mut other = crate::client::Client::connect(&addr).expect("new connection");
        let (status, _) = other.get("/healthz").expect("mux still serving");
        assert_eq!(status, 200);
        drop((c, other));
        stop(shutdown, mux);
    }

    #[test]
    fn draining_closes_idle_connections_and_exits() {
        let (addr, shutdown, mux) = start_echo();
        // An idle keep-alive connection holds no thread and must not
        // block shutdown.
        let idle = TcpStream::connect(&addr).expect("connect idle");
        std::thread::sleep(Duration::from_millis(50));
        stop(shutdown, mux);
        drop(idle);
    }

    #[test]
    fn oversized_header_block_yields_431_and_a_closed_connection() {
        let (addr, shutdown, mux) = start_echo();
        // A header line that never ends, one byte past the cap: the
        // buffer must not grow further before the connection is refused.
        let mut wire = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        wire.resize(http::MAX_HEADER_BYTES + 1, b'a');
        let answer = exchange(&addr, &wire);
        assert!(answer.starts_with("HTTP/1.1 431 "), "{answer}");
        assert!(answer.contains("headers_too_large"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        stop(shutdown, mux);
    }

    #[test]
    fn oversized_body_yields_413_without_buffering_it() {
        let (addr, shutdown, mux) = start_echo();
        // Only the headers are sent: the refusal must not wait for the
        // declared body.
        let answer = exchange(
            &addr,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        );
        assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
        assert!(answer.contains("payload_too_large"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        stop(shutdown, mux);
    }

    #[test]
    fn fragmented_and_pipelined_writes_get_byte_identical_responses() {
        let (addr, shutdown, mux) = start(Box::new(|req: Request, reply: Reply| {
            let body = String::from_utf8_lossy(&req.body).into_owned();
            reply.send(MuxResponse {
                status: 200,
                body: format!("{{\"path\":{:?},\"body\":{body:?}}}", req.path),
                retry_after: None,
                close: false,
            });
            None
        }));
        let bodies = ["", "{}", "{\"user\":7,\"checkins\":[[1,2]]}", "x", "tail"];
        let requests: Vec<Vec<u8>> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let close = if i + 1 == bodies.len() {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                format!(
                    "POST /r{i} HTTP/1.1\r\nContent-Length: {}\r\n{close}\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        // Writes each chunk as its own `write` on a fresh connection and
        // reads until the mux closes it after the last response.
        let send = |chunks: Vec<Vec<u8>>| -> Vec<u8> {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            for chunk in &chunks {
                stream.write_all(chunk).expect("write");
            }
            let mut out = Vec::new();
            stream
                .read_to_end(&mut out)
                .expect("the mux closes the connection");
            out
        };
        let whole = send(vec![requests.concat()]);
        let bytewise = send(requests.concat().into_iter().map(|b| vec![b]).collect());
        let pairs = send(requests.chunks(2).map(<[Vec<u8>]>::concat).collect());
        let text = String::from_utf8_lossy(&whole);
        assert_eq!(
            text.matches("HTTP/1.1 200 ").count(),
            bodies.len(),
            "{text}"
        );
        assert!(text.contains("\"body\":\"tail\""), "{text}");
        assert_eq!(bytewise, whole, "byte-at-a-time writes");
        assert_eq!(pairs, whole, "pipelined pairs");
        stop(shutdown, mux);
    }

    #[test]
    fn connection_close_is_honoured_after_the_response() {
        let (addr, shutdown, mux) = start_echo();
        let answer = exchange(&addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        assert!(
            answer.ends_with("{\"path\":\"/healthz\",\"len\":0}"),
            "clean close after the body: {answer}"
        );
        stop(shutdown, mux);
    }
}
