//! The cross-process router: a thin `/v1` proxy that pins every request
//! to the backend its shard hash selects, so a fleet of independent
//! `tspn-serve` processes behaves like one logical server.
//!
//! The router is deliberately *thin*: it owns no model, no sessions, and
//! no batcher. It answers locally only where a fleet-wide view is the
//! whole point — `GET /healthz` and `GET /v1/stats` (the backends'
//! `aggregate` ledgers merged via [`protocol::merge_stats`]),
//! `GET /v1/topology` (the fleet map), `POST /admin/shutdown`
//! (stops the router itself), and `POST /admin/reload` (broadcast to
//! every backend). **Everything else is forwarded verbatim** to the
//! backend selected by the same FNV-1a hash the backends use for lane
//! placement ([`crate::shard`]): users by `hash(user)`, ad-hoc `/v1`
//! payloads by content hash, session calls by the backend residue baked
//! into the session id. Requests the router cannot parse go to backend 0
//! unchanged, whose own parsers produce the *bitwise-identical* typed
//! error a standalone server would — the router duplicates no error
//! logic.
//!
//! Forwarding runs on the mux thread itself, which owns the router's
//! state. The handler renders a request onto an idle non-blocking
//! keep-alive link to its backend and parks the client's `Reply` with
//! it. The links sit in the mux's poll set, and a backend answer framed
//! by [`crate::http::try_parse_response`] completes its `Reply` in the
//! same loop iteration. Fan-outs walk the backends in order on the same
//! links, stopping at the first failure. Per backend, at most 32 links
//! carry a call or are being dialled; further calls wait in FIFO order,
//! and at most 16 idle links are kept. A link whose answer says
//! `Connection: close`, or which the backend closes while idle, is
//! dropped before another call can use it. Dialling blocks, so each dial
//! runs on a short-lived thread that hands the stream back through a wake
//! socket; steady traffic reuses links and never dials. An idle router therefore runs two threads: the process's
//! main thread and the mux.
//!
//! Transport faults map onto the protocol's retry contract: a failure to
//! even connect (nothing sent) or a failed **idempotent** request yields
//! a retryable `503 not_ready`; a non-idempotent request (session create
//! or append) that died mid-flight yields `500 internal`, which clients
//! never replay, because its server-side effect is unknown. A call that
//! fails on a reused link is replayed once on a fresh dial when it is
//! idempotent, and a backend that has not answered within 30 s counts as
//! a transport failure.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;

use crate::client::is_idempotent;
use crate::http::{closed_early, render_request, try_parse_response, Request, Response};
use crate::mux::{self, fd_of, MuxConfig, MuxResponse, PollFd, Reply, Service, POLLIN, POLLOUT};
use crate::protocol::{
    self, health_response, merge_stats, parse_lane_stats, parse_stats, parse_topology,
    stats_response, topology_response, ApiError, LaneStats, StatsSnapshot,
};
use crate::shard::{backend_of_session_id, shard_of_content, shard_of_user, SHARD_FN_ID};

/// How many idle keep-alive links the router keeps per backend.
const POOL_CAP: usize = 16;

/// How many links per backend may carry a call or be dialling at once.
const LINK_CAP: usize = 32;

/// How long a backend may take to answer a call once it is sent.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Backend addresses, in shard order: backend `i` of `backends.len()`.
    pub backends: Vec<String>,
}

/// A running router: its address and the thread driving its mux.
pub struct RouterHandle {
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    mux_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins draining: new requests get `503 shutting_down`, in-flight
    /// forwards finish, then the mux exits.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested (a signal handler's store or a
    /// client's `POST /admin/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the mux thread exits (call [`RouterHandle::shutdown`]
    /// first, or `POST /admin/shutdown` the router).
    pub fn join(mut self) {
        if let Some(t) = self.mux_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.mux_thread.take() {
            let _ = t.join();
        }
    }
}

/// Why a backend call failed — the distinction drives the status mapping.
enum CallError {
    /// Could not connect; nothing was sent, so any request retries safely.
    Connect(std::io::Error),
    /// The connection died after the request may have been transmitted.
    Transport(std::io::Error),
}

/// What becomes of a call's answer, run on the mux thread once the
/// answer (or the failure to get one) is in.
type Then = Box<dyn FnOnce(&mut Router, Result<Response, CallError>) + Send>;

/// One request on its way to a backend.
struct Call {
    /// The rendered request, kept for a replay.
    wire: Vec<u8>,
    idempotent: bool,
    /// Already failed once on a reused link: it may only go on a fresh one.
    retried: bool,
    then: Then,
}

/// One non-blocking keep-alive connection to a backend, carrying at most
/// one call at a time.
struct Link {
    stream: TcpStream,
    call: Option<Call>,
    /// How much of the call's request is written.
    sent: usize,
    /// When the backend must have answered the call by.
    give_up: Instant,
    /// Answer bytes so far.
    buf: Vec<u8>,
    /// Has carried a call before, so the backend may have closed it since.
    reused: bool,
    /// A write failed while the call was being put on the link; the next
    /// turn reports it.
    broken: Option<std::io::Error>,
}

impl Link {
    fn new(stream: TcpStream) -> Link {
        Link {
            stream,
            call: None,
            sent: 0,
            give_up: Instant::now(),
            buf: Vec::new(),
            reused: false,
            broken: None,
        }
    }

    /// Puts `call` on this idle link and writes what the socket takes now.
    fn start(&mut self, call: Call) {
        self.call = Some(call);
        self.sent = 0;
        self.give_up = Instant::now() + ANSWER_TIMEOUT;
        self.broken = self.flush().err();
    }

    fn pending_out(&self) -> bool {
        self.call.as_ref().is_some_and(|c| self.sent < c.wire.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let Some(call) = &self.call else {
            return Ok(());
        };
        while let Some(rest) = call.wire.get(self.sent..).filter(|r| !r.is_empty()) {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One tick of I/O on the link's poll events. `Ok(Some(answer))`: the
    /// call in flight was answered. `Err`: the link is dead — for an idle
    /// link, the backend closed it or sent bytes nobody asked for.
    fn turn(&mut self, revents: i16, now: Instant) -> std::io::Result<Option<Response>> {
        if let Some(e) = self.broken.take() {
            return Err(e);
        }
        if revents & POLLOUT != 0 {
            self.flush()?;
        }
        if revents & !POLLOUT != 0 {
            let open = mux::read_available(&mut self.stream, &mut self.buf, usize::MAX)?;
            if self.call.is_none() {
                return match open && self.buf.is_empty() {
                    true => Ok(None),
                    false => Err(std::io::Error::new(
                        ErrorKind::ConnectionAborted,
                        "idle link closed by the backend",
                    )),
                };
            }
            if let Some(answer) = try_parse_response(&mut self.buf)? {
                return Ok(Some(answer));
            }
            if !open {
                return Err(closed_early(&self.buf));
            }
        }
        if self.call.is_some() && now >= self.give_up {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("no answer within {} s", ANSWER_TIMEOUT.as_secs()),
            ));
        }
        Ok(None)
    }
}

/// One backend: its links and the calls waiting for one.
struct Backend {
    addr: String,
    links: Vec<Link>,
    /// Dials in progress.
    dialling: usize,
    /// Calls waiting for a link, oldest first.
    waiting: VecDeque<Call>,
}

/// A finished dial: the backend's index and the stream, or why not.
type Dialled = (usize, std::io::Result<TcpStream>);

/// The router's state, owned by the mux thread.
struct Router {
    backends: Vec<Backend>,
    shutdown: Arc<AtomicBool>,
    /// Finished dials, and the wake socket the dial threads nudge.
    dialled: mpsc::Receiver<Dialled>,
    dial_tx: mpsc::Sender<Dialled>,
    wake_rx: TcpStream,
    wake_tx: Arc<TcpStream>,
    /// Finished calls, handed to their continuations by
    /// [`Router::settle`].
    done: Vec<(Then, Result<Response, CallError>)>,
}

/// Starts the router on `cfg.addr`, proxying for `cfg.backends`.
///
/// # Errors
/// An empty backend list, bind failures, or thread-spawn failures.
/// Backends are *not* dialled eagerly — a backend may boot after the
/// router, and an unreachable one degrades to per-request `503`s on its
/// shard only.
pub fn start_router(cfg: RouterConfig) -> Result<RouterHandle, String> {
    if cfg.backends.is_empty() {
        return Err("router mode needs at least one backend address".to_string());
    }
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (wake_tx, wake_rx) = mux::wake_pair().map_err(|e| format!("router wake channel: {e}"))?;
    let (dial_tx, dialled) = mpsc::channel();
    let mut router = Router {
        backends: cfg
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                links: Vec::new(),
                dialling: 0,
                waiting: VecDeque::new(),
            })
            .collect(),
        shutdown: Arc::clone(&shutdown),
        dialled,
        dial_tx,
        wake_rx,
        wake_tx: Arc::new(wake_tx),
        done: Vec::new(),
    };
    let flag = Arc::clone(&shutdown);
    let mux_thread = std::thread::Builder::new()
        .name("tspn-route-mux".to_string())
        .spawn(move || {
            if let Err(e) = mux::run_service(listener, MuxConfig::default(), flag, &mut router) {
                eprintln!("tspn-serve: router mux error: {e}");
            }
        })
        .map_err(|e| format!("spawn router mux: {e}"))?;
    Ok(RouterHandle {
        shutdown,
        local_addr,
        mux_thread: Some(mux_thread),
    })
}

impl Service for Router {
    fn handle(&mut self, req: Request, reply: Reply) -> Option<Instant> {
        self.respond(req, reply);
        self.settle();
        None
    }

    fn poll_set(&mut self, fds: &mut Vec<PollFd>) {
        fds.push(PollFd {
            fd: fd_of(&self.wake_rx),
            events: POLLIN,
            revents: 0,
        });
        for link in self.backends.iter().flat_map(|b| &b.links) {
            fds.push(PollFd {
                fd: fd_of(&link.stream),
                events: if link.pending_out() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                },
                revents: 0,
            });
        }
    }

    fn serviced(&mut self, fds: &[PollFd]) {
        let mut revents = fds.iter().map(|f| f.revents);
        if revents.next().unwrap_or(0) != 0 {
            let mut sink = [0u8; 64];
            while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        let now = Instant::now();
        for b in 0..self.backends.len() {
            let Some(backend) = self.backends.get_mut(b) else {
                continue;
            };
            let done = &mut self.done;
            let mut failed = Vec::new();
            backend.links.retain_mut(|link| {
                match link.turn(revents.next().unwrap_or(0), now) {
                    Ok(None) => true,
                    Ok(Some(answer)) => {
                        // Read-ahead past an answer means lost framing.
                        let keep = answer.keep_alive && link.buf.is_empty();
                        if let Some(call) = link.call.take() {
                            done.push((call.then, Ok(answer)));
                        }
                        link.reused = true;
                        keep
                    }
                    Err(e) => {
                        if let Some(call) = link.call.take() {
                            failed.push((call, link.reused, e));
                        }
                        false
                    }
                }
            });
            for (call, reused, e) in failed {
                self.fail(b, call, reused, e);
            }
            self.pump(b);
        }
        while let Ok((b, dialled)) = self.dialled.try_recv() {
            self.on_dial(b, dialled);
        }
        self.settle();
    }
}

impl Router {
    fn addr(&self, b: usize) -> &str {
        self.backends.get(b).map_or("?", |backend| &backend.addr)
    }

    /// Queues a call of `wire` on backend `b` and starts what can start.
    fn call(&mut self, b: usize, wire: Vec<u8>, idempotent: bool, then: Then) {
        // An out-of-range index cannot happen (every shard function is
        // reduced mod the backend count); dropping the call would answer
        // its reply 500.
        if let Some(backend) = self.backends.get_mut(b) {
            backend.waiting.push_back(Call {
                wire,
                idempotent,
                retried: false,
                then,
            });
        }
        self.pump(b);
    }

    /// Puts waiting calls on idle links, oldest first; dials for the rest
    /// within [`LINK_CAP`]; trims idle links to [`POOL_CAP`].
    fn pump(&mut self, b: usize) {
        let Some(backend) = self.backends.get_mut(b) else {
            return;
        };
        while let Some(retried) = backend.waiting.front().map(|c| c.retried) {
            let Some(link) = backend
                .links
                .iter_mut()
                .rev()
                .find(|l| l.call.is_none() && !(retried && l.reused))
            else {
                break;
            };
            if let Some(call) = backend.waiting.pop_front() {
                link.start(call);
            }
        }
        let busy = backend.links.iter().filter(|l| l.call.is_some()).count();
        while backend.dialling < backend.waiting.len() && busy + backend.dialling < LINK_CAP {
            backend.dialling += 1;
            dial(b, &backend.addr, &self.dial_tx, &self.wake_tx);
        }
        let mut idle = 0;
        backend.links.retain(|l| {
            l.call.is_some() || {
                idle += 1;
                idle <= POOL_CAP
            }
        });
    }

    /// A call whose link died: replayed once on a fresh dial when that is
    /// safe — it is idempotent and the link was reused, so the backend may
    /// simply have closed it — and failed otherwise.
    fn fail(&mut self, b: usize, mut call: Call, reused: bool, e: std::io::Error) {
        match self.backends.get_mut(b) {
            Some(backend) if reused && call.idempotent && !call.retried => {
                call.retried = true;
                backend.waiting.push_front(call);
            }
            _ => self.done.push((call.then, Err(CallError::Transport(e)))),
        }
    }

    fn on_dial(&mut self, b: usize, dialled: std::io::Result<TcpStream>) {
        let Some(backend) = self.backends.get_mut(b) else {
            return;
        };
        backend.dialling = backend.dialling.saturating_sub(1);
        match dialled {
            Ok(stream) => backend.links.push(Link::new(stream)),
            // Nothing was sent; the oldest waiting call takes the failure.
            Err(e) => {
                if let Some(call) = backend.waiting.pop_front() {
                    self.done.push((call.then, Err(CallError::Connect(e))));
                }
            }
        }
        self.pump(b);
    }

    /// Hands finished calls to their continuations, which may issue more.
    fn settle(&mut self) {
        while !self.done.is_empty() {
            for (then, result) in std::mem::take(&mut self.done) {
                then(self, result);
            }
        }
    }

    /// The router's request handler.
    fn respond(&mut self, req: Request, reply: Reply) {
        if self.shutdown.load(Ordering::Acquire) {
            let mut resp = error(ApiError::shutting_down(
                "router is draining; retry against a healthy instance",
            ));
            resp.close = true;
            return reply.send(resp);
        }
        let (path, _) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => self.fan_out(Fanout::get("/v1/stats", reply, |r, answers| {
                r.fleet_stats(answers)
                    .map_or_else(|resp| resp, |(s, _)| ok(health_response(&s)))
            })),
            ("GET", "/v1/stats") => self.fan_out(Fanout::get("/v1/stats", reply, |r, answers| {
                r.fleet_stats(answers)
                    .map_or_else(|resp| resp, |(s, lanes)| ok(stats_response(&s, &lanes)))
            })),
            ("GET", "/v1/topology") => {
                self.fan_out(Fanout::get("/v1/topology", reply, Router::fleet_topology))
            }
            ("POST", "/admin/shutdown") => {
                self.shutdown.store(true, Ordering::Release);
                reply.send(MuxResponse {
                    status: 200,
                    body: "{\"ok\":true}".to_string(),
                    retry_after: None,
                    close: true,
                });
            }
            // Broadcast so the fleet swaps checkpoints together. All or
            // nothing in effect: validation failures are deterministic
            // (every backend rejects the same file identically), so either
            // all backends bump their published version or none do; the
            // first failure's typed answer is returned verbatim. A
            // non-UTF-8 body falls through to `forward`'s 400.
            ("POST", "/admin/reload") if std::str::from_utf8(&req.body).is_ok() => {
                self.fan_out(Fanout {
                    wire: render_request("POST", "/admin/reload", &req.body, req.deadline_ms),
                    answers: Vec::new(),
                    reply,
                    finish: |_, answers| {
                        answers.last().cloned().map_or_else(
                            || error(ApiError::internal("no backends answered")),
                            verbatim,
                        )
                    },
                })
            }
            _ => self.forward(req, reply),
        }
    }
}

fn error(err: ApiError) -> MuxResponse {
    MuxResponse::error(&err)
}

fn ok(body: String) -> MuxResponse {
    MuxResponse::new(200, body)
}

/// A backend's answer, passed through unchanged.
fn verbatim(resp: Response) -> MuxResponse {
    MuxResponse {
        status: resp.status,
        body: resp.body,
        retry_after: resp.retry_after,
        close: false,
    }
}

/// Dials backend `b` on a short-lived thread (a blocking connect must not
/// stall the loop) and hands the stream back through `tx` and the wake
/// socket.
fn dial(b: usize, addr: &str, tx: &mpsc::Sender<Dialled>, wake: &Arc<TcpStream>) {
    let (addr, sender, wake) = (addr.to_string(), tx.clone(), Arc::clone(wake));
    let spawned = std::thread::Builder::new()
        .name("tspn-route-dial".to_string())
        .spawn(move || {
            let stream = TcpStream::connect(&addr).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            });
            let _ = sender.send((b, stream));
            // A failed wake is fine — the loop checks for dials every tick.
            let _ = (&*wake).write_all(&[1]);
        });
    if let Err(e) = spawned {
        // Picked up on the loop's next tick.
        let _ = tx.send((b, Err(e)));
    }
}

// ---------------------------------------------------------------------
// Forwarding
// ---------------------------------------------------------------------

/// Which backend owns a request. Bodies that fail to parse route to
/// backend 0, whose identical parsers answer with the standalone
/// server's exact typed error.
fn backend_index(n: usize, method: &str, path: &str, body: &[u8]) -> usize {
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        let segment = rest.split('/').next().unwrap_or("");
        return protocol::parse_session_id(segment).map_or(0, |id| backend_of_session_id(id, n));
    }
    match (method, path) {
        ("POST", "/v1/sessions") => {
            protocol::parse_session_create(body).map_or(0, |r| shard_of_user(r.user, n))
        }
        ("POST", "/v1/predict") => {
            protocol::parse_v1_predict(body).map_or(0, |r| shard_of_content(r.user, &r.checkins, n))
        }
        _ => 0,
    }
}

impl Router {
    fn forward(&mut self, req: Request, reply: Reply) {
        if std::str::from_utf8(&req.body).is_err() {
            // Matches the backends' own `parse_json` refusal byte-for-byte.
            return reply.send(error(ApiError::bad_request("body is not UTF-8")));
        }
        let (path, _) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
        let b = backend_index(self.backends.len(), &req.method, path, &req.body);
        let idempotent = is_idempotent(&req.method, path);
        let wire = render_request(&req.method, &req.path, &req.body, req.deadline_ms);
        self.call(
            b,
            wire,
            idempotent,
            Box::new(move |r: &mut Router, result| {
                reply.send(r.forwarded(b, idempotent, result));
            }),
        );
    }

    fn forwarded(
        &self,
        b: usize,
        idempotent: bool,
        result: Result<Response, CallError>,
    ) -> MuxResponse {
        let addr = self.addr(b);
        match result {
            Ok(resp) => verbatim(resp),
            Err(CallError::Connect(e)) => error(ApiError::not_ready(format!(
                "backend {addr} unreachable: {e}"
            ))),
            Err(CallError::Transport(e)) if idempotent => error(ApiError::not_ready(format!(
                "backend {addr} connection failed: {e}"
            ))),
            // Session create/append with an unknown server-side effect:
            // 500 so overload-aware clients do NOT auto-replay it.
            Err(CallError::Transport(e)) => error(ApiError::internal(format!(
                "backend {addr} connection failed mid-request: {e}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Fan-outs (answered locally)
// ---------------------------------------------------------------------

/// One request asked of every backend in order. The first failure ends
/// it: a non-200 answer is returned verbatim, a transport failure as
/// `503 not_ready`.
struct Fanout {
    wire: Vec<u8>,
    /// The 200 answers so far, in backend order.
    answers: Vec<Response>,
    reply: Reply,
    /// Turns every backend's answer into the reply.
    finish: fn(&Router, &[Response]) -> MuxResponse,
}

impl Fanout {
    fn get(path: &str, reply: Reply, finish: fn(&Router, &[Response]) -> MuxResponse) -> Fanout {
        Fanout {
            wire: render_request("GET", path, b"", None),
            answers: Vec::new(),
            reply,
            finish,
        }
    }
}

impl Router {
    /// Asks the next backend.
    fn fan_out(&mut self, f: Fanout) {
        let b = f.answers.len();
        let wire = f.wire.clone();
        // Every fan-out request (stats, topology, reload) replays safely.
        self.call(
            b,
            wire,
            true,
            Box::new(move |r: &mut Router, result| r.fanned(b, f, result)),
        );
    }

    fn fanned(&mut self, b: usize, mut f: Fanout, result: Result<Response, CallError>) {
        match result {
            Ok(resp) if resp.status == 200 => {
                f.answers.push(resp);
                if f.answers.len() < self.backends.len() {
                    return self.fan_out(f);
                }
                let resp = (f.finish)(self, &f.answers);
                f.reply.send(resp);
            }
            Ok(resp) => f.reply.send(verbatim(resp)),
            Err(CallError::Connect(e) | CallError::Transport(e)) => f.reply.send(error(
                ApiError::not_ready(format!("backend {} unreachable: {e}", self.addr(b))),
            )),
        }
    }

    /// Parses every backend's answer as JSON.
    fn json(&self, answers: &[Response], what: &str) -> Result<Vec<Value>, MuxResponse> {
        answers
            .iter()
            .enumerate()
            .map(|(b, resp)| {
                serde_json::from_str::<Value>(&resp.body).map_err(|e| {
                    error(ApiError::internal(format!(
                        "backend {} returned non-JSON for {what}: {e}",
                        self.addr(b)
                    )))
                })
            })
            .collect()
    }

    /// The fleet ledger behind `/healthz` and `/v1/stats`: every backend's
    /// v2 `aggregate` merged into one snapshot, and their `lanes` arrays
    /// spliced into one fleet-wide list, renumbered in backend order.
    fn fleet_stats(
        &self,
        answers: &[Response],
    ) -> Result<(StatsSnapshot, Vec<LaneStats>), MuxResponse> {
        let mut merged: Option<StatsSnapshot> = None;
        let mut lanes: Vec<LaneStats> = Vec::new();
        for (b, v) in self.json(answers, "/v1/stats")?.iter().enumerate() {
            let Some(s) = v.get("aggregate").and_then(parse_stats) else {
                return Err(error(ApiError::internal(format!(
                    "backend {} returned an unparseable v2 stats answer",
                    self.addr(b)
                ))));
            };
            merged = Some(match merged {
                Some(acc) => merge_stats(&acc, &s),
                None => s,
            });
            for lane in v.get("lanes").and_then(Value::as_array).unwrap_or(&[]) {
                if let Some(mut l) = parse_lane_stats(lane) {
                    l.lane = lanes.len();
                    lanes.push(l);
                }
            }
        }
        let merged = merged.ok_or_else(|| error(ApiError::internal("no backends answered")))?;
        Ok((merged, lanes))
    }

    fn fleet_topology(&self, answers: &[Response]) -> MuxResponse {
        let answers = match self.json(answers, "/v1/topology") {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let mut total_lanes = 0usize;
        for (b, v) in answers.iter().enumerate() {
            let Some(t) = parse_topology(v) else {
                return error(ApiError::internal(format!(
                    "backend {} returned an unparseable topology",
                    self.addr(b)
                )));
            };
            if t.shard_fn != SHARD_FN_ID {
                return error(ApiError::internal(format!(
                    "backend {} speaks shard fn {:?}, router speaks {:?}",
                    self.addr(b),
                    t.shard_fn,
                    SHARD_FN_ID
                )));
            }
            total_lanes += t.lanes;
        }
        let addrs: Vec<String> = self.backends.iter().map(|b| b.addr.clone()).collect();
        ok(topology_response(
            "router",
            total_lanes,
            SHARD_FN_ID,
            0,
            self.backends.len(),
            &addrs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{error_of, v1_predict_request_body};
    use std::sync::atomic::AtomicUsize;
    use tspn_data::{PoiId, Visit};

    fn visit(poi: usize) -> Visit {
        Visit {
            poi: PoiId(poi),
            time: 0,
        }
    }

    /// A stub backend is just the real mux with a canned handler — the
    /// router cannot tell the difference, and keep-alive/framing come
    /// for free.
    fn stub_backend(
        handler: impl Fn(&Request) -> (u16, String) + Send + Sync + 'static,
    ) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
        canned_stub("127.0.0.1:0", false, handler)
    }

    /// A canned stub on `addr`; `close` ends every answer with
    /// `Connection: close`.
    fn canned_stub(
        addr: &str,
        close: bool,
        handler: impl Fn(&Request) -> (u16, String) + Send + Sync + 'static,
    ) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
        stub_on(
            addr,
            Box::new(move |req, reply| {
                let (status, body) = handler(&req);
                reply.send(MuxResponse {
                    status,
                    body,
                    retry_after: None,
                    close,
                });
                None
            }),
        )
    }

    fn stub_on(addr: &str, h: Box<mux::Handler>) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
        let listener = TcpListener::bind(addr).expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            mux::run(listener, MuxConfig::default(), flag, h).expect("stub mux runs");
        });
        (addr, stop, handle)
    }

    fn stop(stubs: Vec<(Arc<AtomicBool>, JoinHandle<()>)>) {
        for (flag, handle) in stubs {
            flag.store(true, Ordering::Release);
            handle.join().unwrap();
        }
    }

    fn echo_backend(i: usize) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
        stub_backend(move |req| {
            (
                200,
                format!(
                    "{{\"backend\":{i},\"method\":\"{}\",\"path\":\"{}\"}}",
                    req.method, req.path
                ),
            )
        })
    }

    fn start(backends: Vec<String>) -> RouterHandle {
        start_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends,
        })
        .expect("router starts")
    }

    fn backend_of(client: &mut Client, method: &str, path: &str, body: Option<&str>) -> usize {
        let (status, text) = client.request(method, path, body).expect("request");
        assert_eq!(status, 200, "{method} {path}: {text}");
        let v = serde_json::from_str::<Value>(&text).expect("json");
        v.get("backend").and_then(Value::as_usize).expect("backend")
    }

    #[test]
    fn requests_are_pinned_to_the_backend_the_shard_hash_selects() {
        let (a0, s0, h0) = echo_backend(0);
        let (a1, s1, h1) = echo_backend(1);
        let router = start(vec![a0, a1]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");

        // Session ids carry their backend residue: (id - 1) mod 2.
        assert_eq!(backend_of(&mut client, "GET", "/v1/sessions/s1", None), 0);
        assert_eq!(backend_of(&mut client, "GET", "/v1/sessions/s2", None), 1);
        assert_eq!(
            backend_of(&mut client, "POST", "/v1/sessions/s3/predict", Some("{}")),
            0
        );

        // User-keyed requests follow shard_of_user; payloads follow the
        // content hash. Check a handful against the hash directly.
        for user in 0..8usize {
            let checkins = [visit(user + 3)];
            let body = v1_predict_request_body(user, &checkins, 4, 10);
            assert_eq!(
                backend_of(&mut client, "POST", "/v1/predict", Some(&body)),
                shard_of_content(user, &checkins, 2),
                "payload {user}"
            );
            let create = format!("{{\"user\":{user}}}");
            assert_eq!(
                backend_of(&mut client, "POST", "/v1/sessions", Some(&create)),
                shard_of_user(user, 2),
                "create {user}"
            );
        }

        // Unparseable bodies and unknown routes go to backend 0, whose
        // parsers own the typed error.
        assert_eq!(
            backend_of(&mut client, "POST", "/v1/predict", Some("not json")),
            0
        );
        assert_eq!(backend_of(&mut client, "GET", "/nope", None), 0);

        drop(client);
        router.shutdown();
        router.join();
        s0.store(true, Ordering::Release);
        s1.store(true, Ordering::Release);
        h0.join().unwrap();
        h1.join().unwrap();
    }

    fn canned_stats(i: u64) -> StatsSnapshot {
        StatsSnapshot {
            snapshot: i + 1,
            published: i + 1,
            served: 10 * (i + 1),
            served_v1: 6 * (i + 1),
            served_session: 4 * (i + 1),
            batches: 3,
            history_memo_hits: 5 * (i + 1),
            history_memo_misses: 2,
            queue: 1,
            ready: true,
            queue_cap: 64,
            session_ttl_ms: 1000,
            session_capacity: 16,
            request_timeout_ms: 10_000,
            ..StatsSnapshot::default()
        }
    }

    fn stats_backend(i: u64) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
        stub_backend(move |req| {
            let s = canned_stats(i);
            let lane = LaneStats {
                lane: 0,
                snapshot: s.snapshot,
                ready: true,
                queue_cap: 64,
                served: s.served,
                batches: s.batches,
                history_memo_hits: s.history_memo_hits,
                history_memo_misses: s.history_memo_misses,
                ..LaneStats::default()
            };
            match req.path.as_str() {
                "/v1/stats" => (200, stats_response(&s, &[lane])),
                "/v1/topology" => (
                    200,
                    topology_response("backend", 2, SHARD_FN_ID, i as usize, 2, &[]),
                ),
                _ => (404, "{}".to_string()),
            }
        })
    }

    #[test]
    fn fleet_views_merge_backend_ledgers() {
        let (a0, s0, h0) = stats_backend(0);
        let (a1, s1, h1) = stats_backend(1);
        let router = start(vec![a0.clone(), a1.clone()]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");

        // /healthz and the stats aggregate both report the two backends'
        // aggregates summed.
        let (status, text) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200);
        let v = serde_json::from_str::<Value>(&text).expect("json");
        assert_eq!(v.get("served").and_then(Value::as_usize), Some(30));
        assert_eq!(v.get("snapshot").and_then(Value::as_usize), Some(2));
        assert_eq!(v.get("batches").and_then(Value::as_usize), Some(6));
        assert_eq!(v.get("queue").and_then(Value::as_usize), Some(2));
        assert_eq!(v.get("ready").and_then(Value::as_bool), Some(true));

        let (status, text) = client.get("/v1/stats").expect("v3 stats");
        assert_eq!(status, 200);
        let v = serde_json::from_str::<Value>(&text).expect("json");
        assert_eq!(v.get("schema_version").and_then(Value::as_usize), Some(3));
        let aggregate = v.get("aggregate").expect("aggregate");
        let served = aggregate.get("served").expect("served object");
        assert!(served.get("legacy_predict").is_none());
        let merged = parse_stats(aggregate).expect("aggregate parse");
        assert_eq!(merged.served, 30);
        assert_eq!(merged.served_v1, 18);
        assert_eq!(merged.served_session, 12);
        assert_eq!(merged.served, merged.served_v1 + merged.served_session);
        assert_eq!(merged.batches, 6);
        assert_eq!(merged.history_memo_hits, 15);
        assert_eq!(merged.history_memo_misses, 4);
        assert_eq!(merged.queue, 2);
        assert_eq!(merged.snapshot, 2);
        assert!(merged.ready);
        assert_eq!(merged.queue_cap, 64);

        // The lane arrays splice, renumbered in backend order.
        let lanes = v.get("lanes").and_then(Value::as_array).expect("lanes");
        assert_eq!(lanes.len(), 2);
        for (i, lane) in lanes.iter().enumerate() {
            let l = parse_lane_stats(lane).expect("lane");
            assert_eq!(l.lane, i);
            assert_eq!(l.history_memo_hits, 5 * (i as u64 + 1));
        }

        // Topology: fleet mode, summed lanes, backend list.
        let (status, text) = client.get("/v1/topology").expect("topology");
        assert_eq!(status, 200);
        let t = parse_topology(&serde_json::from_str::<Value>(&text).unwrap()).expect("topo");
        assert_eq!(t.mode, "router");
        assert_eq!(t.lanes, 4);
        assert_eq!(t.shard_index, 0);
        assert_eq!(t.shard_count, 2);
        assert_eq!(t.backends, vec![a0, a1]);

        drop(client);
        router.shutdown();
        router.join();
        s0.store(true, Ordering::Release);
        s1.store(true, Ordering::Release);
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn unreachable_backends_shed_only_their_own_shard() {
        let (a0, s0, h0) = echo_backend(0);
        // Backend 1 is a dead address: bind a port, then drop it.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let router = start(vec![a0, dead]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");

        let payload_on = |backend: usize| {
            let poi = (0..)
                .find(|&p| shard_of_content(0, &[visit(p)], 2) == backend)
                .unwrap();
            v1_predict_request_body(0, &[visit(poi)], 4, 10)
        };

        let (status, _) = client
            .post("/v1/predict", &payload_on(0))
            .expect("live shard");
        assert_eq!(status, 200, "live backend keeps serving");

        let resp = client
            .request_full("POST", "/v1/predict", Some(&payload_on(1)))
            .expect("typed refusal, not a dropped connection");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        let v = serde_json::from_str::<Value>(&resp.body).expect("json");
        assert_eq!(error_of(&v).expect("typed").0, "not_ready");

        drop(client);
        router.shutdown();
        router.join();
        s0.store(true, Ordering::Release);
        h0.join().unwrap();
    }

    #[test]
    fn admin_shutdown_stops_the_router_but_not_the_backends() {
        let (a0, s0, h0) = echo_backend(0);
        let router = start(vec![a0.clone()]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
        let (status, text) = client.post("/admin/shutdown", "{}").expect("shutdown");
        assert_eq!(status, 200);
        assert_eq!(text, "{\"ok\":true}");
        router.join();

        // The backend is still alive and answering directly.
        let mut direct = Client::connect(&a0).expect("backend still up");
        let (status, _) = direct.get("/healthz").expect("direct healthz");
        assert_eq!(status, 200);

        drop(direct);
        s0.store(true, Ordering::Release);
        h0.join().unwrap();
    }

    #[test]
    fn reload_broadcasts_to_every_backend() {
        use std::sync::atomic::AtomicUsize;
        let hits = Arc::new(AtomicUsize::new(0));
        let mk = |hits: Arc<AtomicUsize>| {
            stub_backend(move |req| {
                assert_eq!(req.path, "/admin/reload");
                hits.fetch_add(1, Ordering::SeqCst);
                (200, "{\"ok\":true,\"snapshot\":2}".to_string())
            })
        };
        let (a0, s0, h0) = mk(Arc::clone(&hits));
        let (a1, s1, h1) = mk(Arc::clone(&hits));
        let router = start(vec![a0, a1]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
        let (status, text) = client
            .post("/admin/reload", "{\"path\":\"ckpt.json\"}")
            .expect("reload");
        assert_eq!(status, 200);
        assert_eq!(text, "{\"ok\":true,\"snapshot\":2}");
        assert_eq!(hits.load(Ordering::SeqCst), 2, "both backends reloaded");

        drop(client);
        router.shutdown();
        router.join();
        s0.store(true, Ordering::Release);
        s1.store(true, Ordering::Release);
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn a_link_whose_answer_says_close_is_never_reused() {
        let creates = |router: &RouterHandle| {
            let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
            for user in 0..3 {
                let (status, body) = client
                    .post("/v1/sessions", &format!("{{\"user\":{user}}}"))
                    .expect("create");
                assert_eq!(status, 200, "create {user}: {body}");
            }
        };
        let (a0, s0, h0) = canned_stub("127.0.0.1:0", true, |_| (200, "{}".to_string()));
        let router = start(vec![a0]);
        creates(&router);
        router.shutdown();
        router.join();
        stop(vec![(s0, h0)]);

        // A backend that says close but leaves the socket open: the
        // answer alone retires the link, so each create dials afresh.
        let (a0, seen, h0) = scripted_backend(vec![1, 1, 1], false);
        let router = start(vec![a0]);
        creates(&router);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            3,
            "no create sent on a closed link"
        );
        router.shutdown();
        router.join();
        h0.join().unwrap();
    }

    #[test]
    fn a_backend_restart_does_not_fail_the_next_session_create() {
        let created = |_: &Request| (200, "{}".to_string());
        let (a0, s0, h0) = canned_stub("127.0.0.1:0", false, created);
        let router = start(vec![a0.clone()]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
        let (status, body) = client.post("/v1/sessions", "{\"user\":1}").expect("create");
        assert_eq!(status, 200, "{body}");
        // The stopped backend closes the router's idle link; the reboot
        // listens on the same port.
        stop(vec![(s0, h0)]);
        let (_, s1, h1) = canned_stub(&a0, false, created);
        let (status, body) = client.post("/v1/sessions", "{\"user\":2}").expect("create");
        assert_eq!(status, 200, "a create the backend never received: {body}");
        drop(client);
        router.shutdown();
        router.join();
        stop(vec![(s1, h1)]);
    }

    #[test]
    fn a_hung_backend_stalls_only_its_own_shard() {
        let (a0, s0, h0) = echo_backend(0);
        // Backend 1 hands every reply to the test, which sits on it.
        let (parked_tx, parked_rx) = mpsc::channel::<Reply>();
        let (a1, s1, h1) = stub_on(
            "127.0.0.1:0",
            Box::new(move |_, reply| {
                let _ = parked_tx.send(reply);
                None
            }),
        );
        let router = start(vec![a0, a1]);
        let entry = router.local_addr().to_string();
        let payload_on = |backend: usize| {
            let poi = (0..)
                .find(|&p| shard_of_content(0, &[visit(p)], 2) == backend)
                .unwrap();
            v1_predict_request_body(0, &[visit(poi)], 4, 10)
        };
        let hung = {
            let (entry, body) = (entry.clone(), payload_on(1));
            std::thread::spawn(move || Client::connect(&entry)?.post("/v1/predict", &body))
        };
        let parked = parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the request reaches the hung backend");

        let asked = Instant::now();
        let mut client = Client::connect(&entry).expect("connect");
        let (status, text) = client
            .post("/v1/predict", &payload_on(0))
            .expect("live shard");
        assert_eq!(status, 200, "{text}");
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "the live shard waited {:?} behind the hung one",
            asked.elapsed()
        );
        assert!(!hung.is_finished(), "the hung request was answered early");

        parked.send(MuxResponse::new(200, "{\"late\":true}".to_string()));
        let (status, text) = hung.join().unwrap().expect("the parked answer arrives");
        assert_eq!((status, text.as_str()), (200, "{\"late\":true}"));
        drop(client);
        router.shutdown();
        router.join();
        stop(vec![(s0, h0), (s1, h1)]);
    }

    /// A raw backend: connection `i` answers `script[i]` requests with
    /// `200` (saying `Connection: close` unless `keep_alive`, but leaving
    /// the socket open either way), then reads one more and closes without
    /// an answer (a kill mid-flight). Counts the requests it reads.
    fn scripted_backend(
        script: Vec<usize>,
        keep_alive: bool,
    ) -> (String, Arc<AtomicUsize>, JoinHandle<()>) {
        use crate::http::{render_response, try_parse_request};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        let handle = std::thread::spawn(move || {
            for answers in script {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut buf = Vec::new();
                'conn: for served in 0.. {
                    while try_parse_request(&mut buf, 1 << 16)
                        .expect("request")
                        .is_none()
                    {
                        let mut chunk = [0u8; 4096];
                        match stream.read(&mut chunk) {
                            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                            _ => break 'conn,
                        }
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    if served == answers {
                        break;
                    }
                    stream
                        .write_all(&render_response(200, "{}", keep_alive, None))
                        .expect("answer");
                }
            }
        });
        (addr, seen, handle)
    }

    #[test]
    fn a_call_killed_on_a_reused_link_is_replayed_once_only_if_idempotent() {
        // A read dies on the reused link and succeeds on a fresh dial.
        let (addr, seen, backend) = scripted_backend(vec![1, 1], true);
        let router = start(vec![addr]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
        for _ in 0..2 {
            let (status, body) = client.get("/v1/sessions/s1").expect("read");
            assert_eq!(status, 200, "{body}");
        }
        assert_eq!(seen.load(Ordering::SeqCst), 3, "one replay on a fresh link");
        drop(client);
        router.shutdown();
        router.join();
        backend.join().unwrap();

        // A session create is never replayed: its effect is unknown.
        let (addr, seen, backend) = scripted_backend(vec![1], true);
        let router = start(vec![addr]);
        let mut client = Client::connect(&router.local_addr().to_string()).expect("connect");
        let (status, _) = client.post("/v1/sessions", "{\"user\":1}").expect("create");
        assert_eq!(status, 200);
        let (status, body) = client.post("/v1/sessions", "{\"user\":2}").expect("create");
        assert_eq!(status, 500, "{body}");
        let v = serde_json::from_str::<Value>(&body).expect("json");
        assert_eq!(error_of(&v).expect("typed").0, "internal");
        assert_eq!(seen.load(Ordering::SeqCst), 2, "no replay");
        drop(client);
        router.shutdown();
        router.join();
        backend.join().unwrap();
    }
}
