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
//! Every route handler here blocks on a backend socket, so the mux thread
//! does not run them: it queues each request with its reply for a fixed
//! pool of 32 forwarding threads, which bounds how many requests are in
//! flight to the backends at once.
//!
//! Transport faults map onto the protocol's retry contract: a failure to
//! even connect (nothing sent) or a failed **idempotent** request yields
//! a retryable `503 not_ready`; a non-idempotent request (session create
//! or append) that died mid-flight yields `500 internal`, which clients
//! never replay, because its server-side effect is unknown.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use serde::Value;

use crate::client::{is_idempotent, Client, Response};
use crate::http::Request;
use crate::mux::{self, MuxConfig, MuxResponse, Reply};
use crate::protocol::{
    self, health_response, merge_stats, parse_lane_stats, parse_stats, parse_topology,
    stats_response, topology_response, ApiError, LaneStats, StatsSnapshot,
};
use crate::shard::{backend_of_session_id, shard_of_content, shard_of_user, SHARD_FN_ID};

/// How many idle keep-alive connections the router retains per backend.
const POOL_CAP: usize = 16;

/// Forwarding threads: each carries one request at a time through its
/// backend round-trip.
const FORWARDERS: usize = 32;

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

/// One backend: its address and a pool of idle keep-alive connections.
struct Backend {
    addr: String,
    pool: Mutex<Vec<Client>>,
}

impl Backend {
    fn new(addr: &str) -> Backend {
        Backend {
            addr: addr.to_string(),
            pool: Mutex::new(Vec::new()),
        }
    }

    fn put(&self, client: Client) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// Issues one request, reusing a pooled connection when one is idle.
    /// A *pooled* connection may have gone stale (the backend restarted or
    /// reaped it), so a failure there is retried once on a fresh dial —
    /// but only when replaying is safe ([`is_idempotent`]).
    fn call(
        &self,
        method: &str,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, CallError> {
        let pooled = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let was_pooled = pooled.is_some();
        let mut client = match pooled {
            Some(c) => c,
            None => Client::connect(&self.addr).map_err(CallError::Connect)?,
        };
        client.set_deadline_ms(deadline_ms);
        match client.request_full(method, path, Some(body)) {
            Ok(resp) => {
                self.put(client);
                Ok(resp)
            }
            Err(first) if was_pooled && is_idempotent(method, path) => {
                let mut fresh = Client::connect(&self.addr).map_err(|_| {
                    // The stale-conn error is the more informative one.
                    CallError::Transport(first)
                })?;
                fresh.set_deadline_ms(deadline_ms);
                match fresh.request_full(method, path, Some(body)) {
                    Ok(resp) => {
                        self.put(fresh);
                        Ok(resp)
                    }
                    Err(e) => Err(CallError::Transport(e)),
                }
            }
            Err(e) => Err(CallError::Transport(e)),
        }
    }
}

struct RouterState {
    backends: Vec<Backend>,
    shutdown: Arc<AtomicBool>,
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
    let state = Arc::new(RouterState {
        backends: cfg.backends.iter().map(|a| Backend::new(a)).collect(),
        shutdown: Arc::clone(&shutdown),
    });
    // The mux handler only queues; the forwarding threads answer. When the
    // mux exits it drops the handler and with it the sender, so the
    // threads drain the queue and stop.
    let (jobs, queue) = mpsc::channel::<(Request, Reply)>();
    let queue = Arc::new(Mutex::new(queue));
    let mut forwarders = Vec::with_capacity(FORWARDERS);
    for i in 0..FORWARDERS {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        let forwarder = std::thread::Builder::new()
            .name(format!("tspn-route-fwd-{i}"))
            .spawn(move || loop {
                // Poison-recover: a receiver stays usable after any panic.
                let job = queue.lock().unwrap_or_else(|p| p.into_inner()).recv();
                let Ok((req, reply)) = job else {
                    return;
                };
                reply.send(respond(&state, &req));
            })
            .map_err(|e| format!("spawn router forwarder {i}: {e}"))?;
        forwarders.push(forwarder);
    }
    let handler: Box<mux::Handler> = Box::new(move |req, reply| {
        // A failed send hands the reply back inside the error, and
        // dropping it answers 500.
        let _ = jobs.send((req, reply));
        None
    });
    let flag = Arc::clone(&shutdown);
    let mux_thread = std::thread::Builder::new()
        .name("tspn-route-mux".to_string())
        .spawn(move || {
            if let Err(e) = mux::run(listener, MuxConfig::default(), flag, handler) {
                eprintln!("tspn-serve: router mux error: {e}");
            }
            for f in forwarders {
                let _ = f.join();
            }
        })
        .map_err(|e| format!("spawn router mux: {e}"))?;
    Ok(RouterHandle {
        shutdown,
        local_addr,
        mux_thread: Some(mux_thread),
    })
}

fn error(err: ApiError) -> MuxResponse {
    MuxResponse::error(&err)
}

fn ok(body: String) -> MuxResponse {
    MuxResponse::new(200, body)
}

/// The router's request handler, run on the forwarding threads (each
/// call may block on one backend round-trip).
fn respond(state: &RouterState, req: &Request) -> MuxResponse {
    if state.shutdown.load(Ordering::Acquire) {
        let mut resp = error(ApiError::shutting_down(
            "router is draining; retry against a healthy instance",
        ));
        resp.close = true;
        return resp;
    }
    let (path, _) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => match fleet_stats(state) {
            Ok((s, _)) => ok(health_response(&s)),
            Err(resp) => resp,
        },
        ("GET", "/v1/stats") => match fleet_stats(state) {
            Ok((s, lanes)) => ok(stats_response(&s, &lanes)),
            Err(resp) => resp,
        },
        ("GET", "/v1/topology") => fleet_topology(state),
        ("POST", "/admin/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            MuxResponse {
                status: 200,
                body: "{\"ok\":true}".to_string(),
                retry_after: None,
                close: true,
            }
        }
        ("POST", "/admin/reload") => broadcast_reload(state, req),
        _ => forward(state, req),
    }
}

// ---------------------------------------------------------------------
// Forwarding
// ---------------------------------------------------------------------

/// Which backend owns a request. Bodies that fail to parse route to
/// backend 0, whose identical parsers answer with the standalone
/// server's exact typed error.
fn backend_index(state: &RouterState, method: &str, path: &str, body: &[u8]) -> usize {
    let n = state.backends.len();
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

fn forward(state: &RouterState, req: &Request) -> MuxResponse {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        // Matches the backends' own `parse_json` refusal byte-for-byte.
        return error(ApiError::bad_request("body is not UTF-8"));
    };
    let (path, _) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    let idx = backend_index(state, &req.method, path, &req.body);
    let Some(backend) = state.backends.get(idx) else {
        return error(ApiError::internal(format!("no backend {idx}")));
    };
    match backend.call(&req.method, &req.path, body, req.deadline_ms) {
        Ok(resp) => MuxResponse {
            status: resp.status,
            body: resp.body,
            retry_after: resp.retry_after,
            close: false,
        },
        Err(CallError::Connect(e)) => error(ApiError::not_ready(format!(
            "backend {} unreachable: {e}",
            backend.addr
        ))),
        Err(CallError::Transport(e)) if is_idempotent(&req.method, path) => error(
            ApiError::not_ready(format!("backend {} connection failed: {e}", backend.addr)),
        ),
        Err(CallError::Transport(e)) => {
            // Session create/append with an unknown server-side effect:
            // 500 so overload-aware clients do NOT auto-replay it.
            error(ApiError::internal(format!(
                "backend {} connection failed mid-request: {e}",
                backend.addr
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Fleet views (answered locally)
// ---------------------------------------------------------------------

/// Fetches `path` from every backend and parses each answer as JSON.
fn fetch_all(state: &RouterState, path: &str) -> Result<Vec<Value>, MuxResponse> {
    let mut answers = Vec::with_capacity(state.backends.len());
    for backend in &state.backends {
        let resp = backend.call("GET", path, "", None).map_err(|e| {
            let err = match e {
                CallError::Connect(e) | CallError::Transport(e) => e,
            };
            error(ApiError::not_ready(format!(
                "backend {} unreachable: {err}",
                backend.addr
            )))
        })?;
        if resp.status != 200 {
            return Err(MuxResponse {
                status: resp.status,
                body: resp.body,
                retry_after: resp.retry_after,
                close: false,
            });
        }
        let parsed = serde_json::from_str::<Value>(&resp.body).map_err(|e| {
            error(ApiError::internal(format!(
                "backend {} returned non-JSON for {path}: {e}",
                backend.addr
            )))
        })?;
        answers.push(parsed);
    }
    Ok(answers)
}

/// The fleet ledger behind `/healthz` and `/v1/stats`: every backend's v2
/// `aggregate` merged into one snapshot, and their `lanes` arrays spliced
/// into one fleet-wide list, renumbered in backend order.
fn fleet_stats(state: &RouterState) -> Result<(StatsSnapshot, Vec<LaneStats>), MuxResponse> {
    let answers = fetch_all(state, "/v1/stats")?;
    let mut merged: Option<StatsSnapshot> = None;
    let mut lanes: Vec<LaneStats> = Vec::new();
    for (backend, v) in state.backends.iter().zip(&answers) {
        let Some(s) = v.get("aggregate").and_then(parse_stats) else {
            return Err(error(ApiError::internal(format!(
                "backend {} returned an unparseable v2 stats answer",
                backend.addr
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

fn fleet_topology(state: &RouterState) -> MuxResponse {
    let answers = match fetch_all(state, "/v1/topology") {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let mut total_lanes = 0usize;
    for (backend, v) in state.backends.iter().zip(&answers) {
        let Some(t) = parse_topology(v) else {
            return error(ApiError::internal(format!(
                "backend {} returned an unparseable topology",
                backend.addr
            )));
        };
        if t.shard_fn != SHARD_FN_ID {
            return error(ApiError::internal(format!(
                "backend {} speaks shard fn {:?}, router speaks {:?}",
                backend.addr, t.shard_fn, SHARD_FN_ID
            )));
        }
        total_lanes += t.lanes;
    }
    let addrs: Vec<String> = state.backends.iter().map(|b| b.addr.clone()).collect();
    ok(topology_response(
        "router",
        total_lanes,
        SHARD_FN_ID,
        0,
        state.backends.len(),
        &addrs,
    ))
}

/// `POST /admin/reload` fans out to every backend so the fleet swaps
/// checkpoints together. All-or-nothing in effect: validation failures
/// are deterministic (every backend rejects the same file identically),
/// so either all backends bump their published version or none do; the
/// first failure's typed answer is returned verbatim.
fn broadcast_reload(state: &RouterState, req: &Request) -> MuxResponse {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error(ApiError::bad_request("body is not UTF-8"));
    };
    let mut ok: Option<MuxResponse> = None;
    for backend in &state.backends {
        match backend.call("POST", "/admin/reload", body, req.deadline_ms) {
            Ok(resp) if resp.status == 200 => {
                ok = Some(MuxResponse {
                    status: resp.status,
                    body: resp.body,
                    retry_after: resp.retry_after,
                    close: false,
                });
            }
            Ok(resp) => {
                return MuxResponse {
                    status: resp.status,
                    body: resp.body,
                    retry_after: resp.retry_after,
                    close: false,
                }
            }
            Err(_) => {
                return error(ApiError::not_ready(format!(
                    "backend {} unreachable during reload",
                    backend.addr
                )))
            }
        }
    }
    ok.unwrap_or_else(|| error(ApiError::internal("no backends answered")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{error_of, v1_predict_request_body};
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
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let h: Box<mux::Handler> = Box::new(move |req, reply| {
            let (status, body) = handler(&req);
            reply.send(MuxResponse {
                status,
                body,
                retry_after: None,
                close: false,
            });
            None
        });
        let handle = std::thread::spawn(move || {
            mux::run(listener, MuxConfig::default(), flag, h).expect("stub mux runs");
        });
        (addr, stop, handle)
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
}
