//! The long-lived serving process: an event-driven connection
//! multiplexer ([`crate::mux`]) in front of N user-sharded **batcher
//! lanes**, plus the admin endpoints (checkpoint hot-swap, health,
//! shutdown).
//!
//! ## Thread layout
//!
//! * **mux thread** — owns every client socket behind one `poll` loop;
//!   connections are poll entries, not threads. It runs the route handler
//!   inline: sessions, stats, health, topology and shutdown are answered
//!   on the spot; a prediction is parsed, validated and submitted to its
//!   lane with the connection's [`Reply`] as its completion.
//! * **lane threads** (one per lane) — each owns a full [`Predictor`]
//!   replica (the autodiff tape is `Rc`-based, so a model cannot migrate
//!   threads; it is *built* on its lane thread). Each flush first applies
//!   any newer published checkpoint, then answers the whole batch under
//!   that one snapshot — reloads can never mix parameters within a batch.
//!   The lane renders each answer and sends it back through its reply, so
//!   a prediction crosses two thread handoffs: mux → lane → mux.
//! * **reload threads** — `/admin/reload` reads and validates a
//!   checkpoint file, too slow for the mux thread, so each reload runs on
//!   a thread spawned for that request.
//!
//! ## Lanes and sharding
//!
//! Work is partitioned by user with the fleet-wide hash
//! ([`crate::shard`]): session traffic shards on the user index, ad-hoc
//! `/v1/predict` payloads on request content. Every lane is an independent failure domain — its own
//! bounded admission queue, supervisor, circuit breaker, chaos scope, and
//! session-store partition (a user's session state never crosses lanes).
//! Session ids are stride-partitioned (`first = shard + lane·shards + 1`,
//! `stride = shards·lanes`) so an id names its owning backend *and* lane,
//! and lanes never issue colliding ids.
//!
//! Model parameters hot-swap via [`SnapshotHandle`]: `/admin/reload`
//! validates on its own thread and publishes once; every lane applies at
//! its next flush boundary without blocking in-flight work.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tspn_core::{Predictor, Query, SpatialContext, TspnConfig};
use tspn_data::{AdHocTrajectory, UserId, Visit, DEFAULT_GAP_SECS};
use tspn_tensor::serialize::Checkpoint;

use crate::batcher::{BatchConfig, Batcher, Completion, LoopExit, SubmitError, Verdict};
use crate::chaos::{Chaos, ChaosConfig};
use crate::http::Request;
use crate::mux::{self, MuxConfig, MuxResponse, Reply};
use crate::protocol::{self, ApiError, LaneStats};
use crate::session::{SessionConfig, SessionError, SessionStore};
use crate::shard::{self, IdPartition, SHARD_FN_ID};
use crate::snapshot::{validate_shapes, SnapshotHandle};

/// Circuit breaker for a lane's batcher supervisor: this many panics
/// within [`BREAKER_WINDOW`] flip that lane not-ready until
/// [`BREAKER_COOLDOWN`] after the trip. Each lane trips independently —
/// one broken lane sheds only its own shard of users.
const BREAKER_THRESHOLD: u32 = 3;
/// Sliding window over which a lane's flush panics are counted.
const BREAKER_WINDOW: Duration = Duration::from_secs(30);
/// How long a tripped breaker keeps its lane not-ready.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// Deadline budget for a request without an `x-tspn-deadline-ms` header
/// (a header may set its own, clamped to [`MAX_DEADLINE_MS`]).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Result-list truncation when a request omits `top`.
const DEFAULT_TOP: usize = 10;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (`:0` picks a free port).
    pub addr: String,
    /// Micro-batching knobs, applied **per lane** (each lane runs its own
    /// admission queue of `queue_cap`).
    pub batch: BatchConfig,
    /// Session-store knobs, applied **per lane** (capacity is per
    /// partition).
    pub session: SessionConfig,
    /// Fault injection (inert by default); flush faults can be scoped to
    /// one lane via [`ChaosConfig::fault_lane`].
    pub chaos: ChaosConfig,
    /// Batcher lanes (model replicas). Users are pinned to lanes by the
    /// fleet-wide shard hash; 1 reproduces the single-batcher layout.
    pub lanes: usize,
    /// This process's shard index within a routed fleet (0 standalone).
    pub shard_index: usize,
    /// Fleet size when running behind the router (1 standalone).
    pub shard_count: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchConfig::default(),
            session: SessionConfig::default(),
            chaos: ChaosConfig::default(),
            lanes: 1,
            shard_index: 0,
            shard_count: 1,
        }
    }
}

/// The stock serving model configuration (perf-snapshot scale, so a
/// default server boots in seconds on one CPU). The `tspn-serve` binary
/// and the `serve_bench` load generator both build exactly this model, so
/// a fresh server and a client-side reference predictor agree bitwise.
pub fn default_model_config() -> TspnConfig {
    TspnConfig {
        dm: 16,
        image_size: 8,
        attn_blocks: 1,
        hgat_layers: 1,
        top_k: 4,
        max_prefix: 6,
        max_history: 16,
        partition: tspn_core::Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 12,
        },
        ..TspnConfig::default()
    }
}

/// Resolves a preset name to its synthetic dataset configuration — the
/// one name-to-dataset mapping the `tspn-serve` binary and `serve_bench`
/// both use (they must agree bitwise for the smoke checks).
pub fn preset_dataset_config(name: &str, scale: f64) -> Option<tspn_data::synth::SynthConfig> {
    use tspn_data::presets;
    match name {
        "nyc" => Some(presets::nyc_mini(scale)),
        "tky" => Some(presets::tky_mini(scale)),
        "california" => Some(presets::california_mini(scale)),
        "florida" => Some(presets::florida_mini(scale)),
        _ => None,
    }
}

/// Upper clamp on a client-supplied deadline budget: a huge header value
/// must not let one request camp in the queue for minutes.
pub const MAX_DEADLINE_MS: u64 = 60_000;

/// Extra wait past a request's deadline for a flush that already picked
/// the query up — the flush may legitimately finish a little late, and an
/// answer that exists is better than a spurious timeout.
const FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Process-wide serving counters surfaced by `/healthz` and `/v1/stats`.
/// The served total is not stored — it is the sum of the two
/// per-endpoint predict counters, computed at render time so the "counters
/// partition the total" invariant holds by construction. (Per-lane
/// ledgers live on each `Lane`; these split the same totals by
/// *endpoint* instead of by lane.)
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `POST /v1/predict` answers.
    pub served_v1: AtomicU64,
    /// `POST /v1/sessions/{id}/predict` answers.
    pub served_session: AtomicU64,
    /// Successful session-append calls.
    pub session_appends: AtomicU64,
}

/// Overload / failure-recovery state of one lane.
struct Overload {
    /// Requests refused with 429 because the admission queue was full.
    shed_queue_full: AtomicU64,
    /// Requests refused with 503 while draining or breaker-open.
    shed_not_ready: AtomicU64,
    /// Supervisor restarts of the batcher after a panic.
    batcher_restarts: AtomicU64,
    /// Breaker-open deadline in milliseconds since `epoch`; 0 = closed.
    breaker_until_ms: AtomicU64,
    /// Time base for `breaker_until_ms` (an `Instant`, so wall-clock
    /// jumps cannot reopen or extend the breaker).
    epoch: Instant,
}

impl Overload {
    fn new() -> Self {
        Overload {
            shed_queue_full: AtomicU64::new(0),
            shed_not_ready: AtomicU64::new(0),
            batcher_restarts: AtomicU64::new(0),
            breaker_until_ms: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn breaker_open(&self) -> bool {
        let until = self.breaker_until_ms.load(Ordering::Acquire);
        until != 0 && (self.epoch.elapsed().as_millis() as u64) < until
    }

    fn trip_breaker(&self) {
        let until = (self.epoch.elapsed() + BREAKER_COOLDOWN).as_millis() as u64;
        self.breaker_until_ms.store(until.max(1), Ordering::Release);
    }
}

/// One batcher lane: an independent failure domain owning a model
/// replica (on its thread), a bounded admission queue, a session-store
/// partition, and its own breaker/chaos/ledger state.
struct Lane {
    index: usize,
    batcher: Batcher,
    /// The parameter version this lane's model is actually serving
    /// (trails the published version until the next flush boundary).
    applied: AtomicU64,
    /// This lane's session partition (ids stride-partitioned so no two
    /// lanes — or two backends — ever issue the same id).
    sessions: SessionStore,
    /// Flush-fault injection scoped to this lane.
    chaos: Chaos,
    overload: Overload,
    /// Flushed batches on this lane.
    batches: AtomicU64,
    /// Predictions answered through this lane (all endpoints).
    served: AtomicU64,
}

/// State shared by every thread of one server.
struct Shared {
    lanes: Vec<Lane>,
    snapshots: SnapshotHandle,
    shutdown: Arc<AtomicBool>,
    stats: ServeStats,
    /// 503 sheds at the door while draining (before lane resolution).
    shed_draining: AtomicU64,
    /// Reload-path fault injection (checkpoint poisoning is process-wide:
    /// there is one publication stream, not one per lane).
    publish_chaos: Chaos,
    /// POI vocabulary size — payload validation without the model.
    num_pois: usize,
    /// Expected parameter names/shapes for reload validation; filled by
    /// the first lane thread to build its model (replicas agree).
    expected_shapes: OnceLock<Vec<(String, Vec<usize>)>>,
    default_k: usize,
    /// Configured per-lane admission-queue depth (for stats).
    queue_cap: usize,
    /// Per-lane session-store settings (for stats).
    session: SessionConfig,
    shard_index: usize,
    shard_count: usize,
}

impl Shared {
    /// Lane `index`. The shard functions reduce modulo the lane count, so
    /// a miss is a bug; it answers 500 rather than panicking the mux.
    fn lane(&self, index: usize) -> Result<&Lane, ApiError> {
        self.lanes
            .get(index)
            .ok_or_else(|| ApiError::internal(format!("no lane {index}")))
    }

    fn lane_for_user(&self, user: usize) -> Result<&Lane, ApiError> {
        self.lane(shard::shard_of_user(user, self.lanes.len()))
    }

    fn lane_for_content(&self, user: usize, checkins: &[Visit]) -> Result<&Lane, ApiError> {
        self.lane(shard::shard_of_content(user, checkins, self.lanes.len()))
    }

    fn lane_for_session_id(&self, id: u64) -> Result<&Lane, ApiError> {
        self.lane(shard::lane_of_session_id(
            id,
            self.shard_index,
            self.shard_count,
            self.lanes.len(),
        ))
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or let `/admin/shutdown` or a signal set
/// the flag) and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    mux_thread: Option<JoinHandle<()>>,
    lane_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (real port even when configured with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once shutdown has been requested from any path (admin
    /// endpoint, signal handler, or [`ServerHandle::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown (idempotent): the multiplexer stops accepting,
    /// in-flight requests finish, queued predictions still flush.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the server has fully stopped (requires
    /// [`ServerHandle::shutdown`] to have been requested, otherwise this
    /// waits for an external trigger such as `/admin/shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.mux_thread.take() {
            let _ = t.join();
        }
        for t in self.lane_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Builds one model replica **per lane, on that lane's thread** (the tape
/// is `Rc`-based and thread-pinned) and starts serving. Blocks until
/// every lane's model is ready and the listener is bound, so a returned
/// handle is immediately usable.
///
/// `initial` optionally loads a checkpoint over the freshly initialised
/// parameters of every lane before the first request is accepted.
///
/// # Errors
/// Bind failures, or a rejected initial checkpoint.
pub fn start(
    cfg: ServerConfig,
    model_cfg: TspnConfig,
    ctx: SpatialContext,
    initial: Option<Checkpoint>,
) -> Result<ServerHandle, String> {
    let lanes_n = cfg.lanes.max(1);
    let shard_count = cfg.shard_count.max(1);
    let num_pois = ctx.dataset.pois.len();
    let lanes = (0..lanes_n)
        .map(|l| {
            let ids = IdPartition::new(cfg.shard_index, shard_count, l, lanes_n);
            Lane {
                index: l,
                // Batch ids only need process-wide uniqueness (the
                // hot-swap tests key on them), so lanes tile 1-based.
                batcher: Batcher::with_ids(cfg.batch, l as u64 + 1, lanes_n as u64),
                applied: AtomicU64::new(crate::snapshot::BOOT_VERSION),
                sessions: SessionStore::with_ids(cfg.session, ids.first, ids.stride),
                chaos: Chaos::new(cfg.chaos.for_lane(l)),
                overload: Overload::new(),
                batches: AtomicU64::new(0),
                served: AtomicU64::new(0),
            }
        })
        .collect();
    let shared = Arc::new(Shared {
        lanes,
        snapshots: SnapshotHandle::new(),
        shutdown: Arc::new(AtomicBool::new(false)),
        stats: ServeStats::default(),
        shed_draining: AtomicU64::new(0),
        publish_chaos: Chaos::new(cfg.chaos),
        num_pois,
        expected_shapes: OnceLock::new(),
        default_k: model_cfg.top_k,
        queue_cap: cfg.batch.queue_cap,
        session: cfg.session,
        shard_index: cfg.shard_index,
        shard_count,
    });

    // Build each replica on its home thread; hand back readiness (or the
    // initial-checkpoint error) before any socket accepts traffic.
    let mut ctx = Some(ctx);
    let mut lane_threads = Vec::with_capacity(lanes_n);
    let mut readies = Vec::with_capacity(lanes_n);
    for l in 0..lanes_n {
        let (ready_tx, ready_rx) = mpsc::sync_channel::<Result<(), String>>(1);
        // The loop consumes `ctx` exactly on the last lane, so both arms
        // are infallible; a typed error still beats bringing down startup
        // with a panic if that invariant ever drifts.
        let lane_ctx = if l + 1 == lanes_n {
            ctx.take()
                .ok_or_else(|| format!("lane {l}: serving context already consumed"))?
        } else {
            ctx.as_ref()
                .ok_or_else(|| format!("lane {l}: serving context missing"))?
                .clone()
        };
        let shared = Arc::clone(&shared);
        let model_cfg = model_cfg.clone();
        let initial = initial.clone();
        lane_threads.push(
            std::thread::Builder::new()
                .name(format!("tspn-serve-lane-{l}"))
                .spawn(move || lane_main(shared, l, model_cfg, lane_ctx, initial, ready_tx))
                .map_err(|e| format!("spawn lane {l}: {e}"))?,
        );
        readies.push(ready_rx);
    }
    for (l, rx) in readies.into_iter().enumerate() {
        if let Err(e) = rx
            .recv()
            .map_err(|_| format!("lane {l} thread died during startup"))
            .and_then(|r| r)
        {
            shared.shutdown.store(true, Ordering::Release);
            for lane in &shared.lanes {
                lane.batcher.close();
            }
            return Err(e);
        }
    }

    let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
        shared.shutdown.store(true, Ordering::Release);
        for lane in &shared.lanes {
            lane.batcher.close();
        }
        format!("bind {}: {e}", cfg.addr)
    })?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let handler: Box<mux::Handler> = {
        let shared = Arc::clone(&shared);
        Box::new(move |req: Request, reply: Reply| respond(&shared, req, reply))
    };
    let mux_thread = {
        let shared = Arc::clone(&shared);
        let flag = Arc::clone(&shared.shutdown);
        std::thread::Builder::new()
            .name("tspn-serve-mux".to_string())
            .spawn(move || {
                if let Err(e) = mux::run(listener, MuxConfig::default(), flag, handler) {
                    eprintln!("tspn-serve: multiplexer failed: {e}");
                    shared.shutdown.store(true, Ordering::Release);
                }
                // Connections are drained; lanes may now run their queues
                // dry and exit.
                for lane in &shared.lanes {
                    lane.batcher.close();
                }
            })
            .map_err(|e| format!("spawn multiplexer: {e}"))?
    };

    Ok(ServerHandle {
        shared,
        local_addr,
        mux_thread: Some(mux_thread),
        lane_threads,
    })
}

/// A lane thread: build the model replica, publish readiness, then run
/// the serve loop **under supervision**. A panicked flush fails only its
/// own batch; the supervisor rebuilds the model over the same spatial
/// context, restores the last good (published or boot) checkpoint, counts
/// the crash against this lane's circuit breaker, and re-enters the loop
/// — queued requests keep their places throughout, and other lanes never
/// notice.
fn lane_main(
    shared: Arc<Shared>,
    lane_idx: usize,
    model_cfg: TspnConfig,
    ctx: SpatialContext,
    initial: Option<Checkpoint>,
    ready_tx: mpsc::SyncSender<Result<(), String>>,
) {
    let Some(lane) = shared.lanes.get(lane_idx) else {
        let _ = ready_tx.send(Err(format!("lane {lane_idx} was never configured")));
        return;
    };
    let mut predictor = Predictor::new(model_cfg, ctx);
    if let Some(ckpt) = initial {
        if let Err(e) = predictor.load_checkpoint(&ckpt) {
            let _ = ready_tx.send(Err(format!("initial checkpoint rejected: {e}")));
            return;
        }
    }
    let expected: Vec<(String, Vec<usize>)> = predictor
        .model()
        .named_params()
        .iter()
        .map(|(name, t)| (name.clone(), t.shape().0.clone()))
        .collect();
    // Replicas share one config, so whichever lane gets here first pins
    // the shape table everyone validates reloads against.
    let _ = shared.expected_shapes.set(expected);
    let _ = ready_tx.send(Ok(()));

    // The crash-recovery restore point: the parameters currently being
    // served (boot or the last successfully applied publication).
    let mut last_good: Checkpoint = predictor.save();
    let mut applied = shared.snapshots.version();
    // Newest published version that failed validation model-side; tracked
    // so a poisoned publication is rejected once, not re-tried per flush.
    let mut rejected = 0u64;
    let mut panic_times: VecDeque<Instant> = VecDeque::new();
    loop {
        let exit = lane.batcher.run_supervised(|queries| {
            // Hot-swap boundary: at most one snapshot per batch, applied
            // before any query of the batch runs.
            if let Some(published) = shared.snapshots.newer_than(applied.max(rejected)) {
                match predictor.load_checkpoint(&published.checkpoint) {
                    Ok(()) => {
                        applied = published.version;
                        lane.applied.store(applied, Ordering::Release);
                        last_good = published.checkpoint.clone();
                    }
                    // Publications were validated against the same shape
                    // table, so outside fault injection this is
                    // unreachable; keep the old parameters rather than
                    // take the lane down.
                    Err(e) => {
                        rejected = published.version;
                        eprintln!(
                            "tspn-serve: lane {lane_idx}: published checkpoint rejected: {e}"
                        );
                    }
                }
            }
            lane.chaos.on_flush();
            let answers = predictor.predict_batch(queries);
            lane.batches.fetch_add(1, Ordering::Relaxed);
            (answers, applied)
        });
        match exit {
            LoopExit::Drained => return,
            LoopExit::Panicked => {
                let restarts = lane
                    .overload
                    .batcher_restarts
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                eprintln!(
                    "tspn-serve: lane {lane_idx}: batcher flush panicked (restart #{restarts}); \
                     rebuilding model from last good checkpoint"
                );
                predictor = predictor.rebuild();
                if let Err(e) = predictor.load_checkpoint(&last_good) {
                    // Unreachable: `last_good` loaded successfully once.
                    eprintln!("tspn-serve: lane {lane_idx}: post-crash restore failed: {e}");
                }
                let now = Instant::now();
                panic_times.push_back(now);
                while panic_times
                    .front()
                    .is_some_and(|&t| now.duration_since(t) > BREAKER_WINDOW)
                {
                    panic_times.pop_front();
                }
                if panic_times.len() as u32 >= BREAKER_THRESHOLD {
                    lane.overload.trip_breaker();
                    panic_times.clear();
                    eprintln!(
                        "tspn-serve: lane {lane_idx}: circuit breaker open for {:?} \
                         after {} crashes in {:?}",
                        BREAKER_COOLDOWN, BREAKER_THRESHOLD, BREAKER_WINDOW
                    );
                }
            }
        }
    }
}

/// The multiplexer's route handler, called inline on the mux thread, so
/// it never blocks: predictions are submitted to their lane with `reply`
/// as the completion (the return value is then the give-up instant),
/// `/admin/reload` moves to a thread of its own, and everything else is
/// answered on the spot. Prediction routes carry a per-request deadline:
/// the `x-tspn-deadline-ms` budget when the client sent one (clamped to
/// [`MAX_DEADLINE_MS`]), the configured default otherwise.
///
/// During shutdown a request that arrives before the socket closes gets a
/// typed `503 shutting_down` (with `Retry-After`) rather than a reset —
/// a draining server is explicit about it, so clients can fail over.
fn respond(shared: &Arc<Shared>, req: Request, reply: Reply) -> Option<Instant> {
    if shared.draining() {
        shared.shed_draining.fetch_add(1, Ordering::Relaxed);
        let mut resp = MuxResponse::error(&ApiError::shutting_down(
            "server is draining; connection closing",
        ));
        resp.close = true;
        reply.send(resp);
        return None;
    }
    let (path, _) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    let resolved = match route_of(&req.method, path) {
        Ok(r) => r,
        Err(e) => {
            reply.send(finish(shared, e.render()));
            return None;
        }
    };
    let budget_ms = req
        .deadline_ms
        .unwrap_or(REQUEST_TIMEOUT.as_millis() as u64)
        .clamp(1, MAX_DEADLINE_MS);
    let deadline = Instant::now() + Duration::from_millis(budget_ms);
    let answered = match resolved {
        Route::Healthz => (200, protocol::health_response(&stats_snapshot(shared))),
        Route::V1Predict => match v1_predict(shared, &req.body) {
            Ok((lane, query)) => {
                return submit_prediction(shared, lane, query, Endpoint::V1, deadline, reply)
            }
            Err(e) => e.render(),
        },
        Route::V1Stats => (
            200,
            protocol::stats_response(&stats_snapshot(shared), &lane_stats(shared)),
        ),
        Route::V1Topology => {
            let mode = if shared.shard_count > 1 {
                "backend"
            } else {
                "single"
            };
            (
                200,
                protocol::topology_response(
                    mode,
                    shared.lanes.len(),
                    SHARD_FN_ID,
                    shared.shard_index,
                    shared.shard_count,
                    &[],
                ),
            )
        }
        Route::SessionCreate => answer(session_create(shared, &req.body)),
        Route::SessionGet(id) => answer(session_get(shared, id)),
        Route::SessionDelete(id) => answer(session_delete(shared, id)),
        Route::SessionAppend(id) => answer(session_append(shared, id, &req.body)),
        Route::SessionPredict(id) => match session_query(shared, id, &req.body) {
            Ok((lane, query)) => {
                return submit_prediction(shared, lane, query, Endpoint::Session, deadline, reply)
            }
            Err(e) => e.render(),
        },
        Route::AdminReload => {
            let owner = Arc::clone(shared);
            // If the spawn fails, the closure and the reply inside it are
            // dropped, which answers 500.
            let _ = std::thread::Builder::new()
                .name("tspn-serve-reload".to_string())
                .spawn(move || {
                    let answered = reload(&owner, &req.body);
                    reply.send(finish(&owner, answered));
                });
            return None;
        }
        Route::AdminShutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (200, "{\"ok\":true}".to_string())
        }
    };
    reply.send(finish(shared, answered));
    None
}

/// Wraps a route's wire pair for the mux. Keep-alive is decided *after*
/// the work, so a request that itself triggers shutdown is answered
/// `Connection: close` instead of promising a session we then drop.
fn finish(shared: &Shared, (status, body): (u16, String)) -> MuxResponse {
    MuxResponse {
        close: shared.draining(),
        ..MuxResponse::new(status, body)
    }
}

/// One resolved endpoint (routing decided; body not yet parsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    V1Predict,
    V1Stats,
    V1Topology,
    SessionCreate,
    SessionGet(u64),
    SessionDelete(u64),
    SessionAppend(u64),
    SessionPredict(u64),
    AdminReload,
    AdminShutdown,
}

/// Resolves `(method, path)` to a route with correct HTTP hygiene: an
/// unknown path is `404 not_found`, a known path with the wrong verb is
/// `405 method_not_allowed`. The path arrives with its query string
/// already split off.
fn route_of(method: &str, path: &str) -> Result<Route, ApiError> {
    use Route::*;
    let allow = |allowed: &[(&str, Route)]| -> Result<Route, ApiError> {
        allowed
            .iter()
            .find(|(m, _)| *m == method)
            .map(|&(_, r)| r)
            .ok_or_else(|| {
                let verbs: Vec<&str> = allowed.iter().map(|(m, _)| *m).collect();
                ApiError::method_not_allowed(format!(
                    "{method} not allowed on {path} (allowed: {})",
                    verbs.join(", ")
                ))
            })
    };
    match path {
        "/healthz" => return allow(&[("GET", Healthz)]),
        "/v1/predict" => return allow(&[("POST", V1Predict)]),
        "/v1/stats" => return allow(&[("GET", V1Stats)]),
        "/v1/topology" => return allow(&[("GET", V1Topology)]),
        "/v1/sessions" => return allow(&[("POST", SessionCreate)]),
        "/admin/reload" => return allow(&[("POST", AdminReload)]),
        "/admin/shutdown" => return allow(&[("POST", AdminShutdown)]),
        _ => {}
    }
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        let mut parts = rest.splitn(2, '/');
        let id_segment = parts.next().unwrap_or("");
        if let Some(id) = protocol::parse_session_id(id_segment) {
            return match parts.next() {
                None => allow(&[("GET", SessionGet(id)), ("DELETE", SessionDelete(id))]),
                Some("checkins") => allow(&[("POST", SessionAppend(id))]),
                Some("predict") => allow(&[("POST", SessionPredict(id))]),
                Some(_) => Err(ApiError::not_found(format!("no route {method} {path}"))),
            };
        }
    }
    Err(ApiError::not_found(format!("no route {method} {path}")))
}

/// Which endpoint a prediction entered through (for the served ledger).
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    V1,
    Session,
}

impl Endpoint {
    fn counter(self, stats: &ServeStats) -> &AtomicU64 {
        match self {
            Endpoint::V1 => &stats.served_v1,
            Endpoint::Session => &stats.served_session,
        }
    }
}

/// Collapses a handler's typed-error result into the wire pair.
fn answer(result: Result<(u16, String), ApiError>) -> (u16, String) {
    result.unwrap_or_else(|e| e.render())
}

/// Gathers the aggregate ledger `/healthz` and both stats renderings
/// report: per-lane counters summed, `snapshot` the newest version any
/// lane serves, `ready` only when **every** lane is (a tripped lane
/// still sheds its own shard even while the aggregate reads not-ready).
fn stats_snapshot(shared: &Shared) -> protocol::StatsSnapshot {
    let served_v1 = shared.stats.served_v1.load(Ordering::Relaxed);
    let served_session = shared.stats.served_session.load(Ordering::Relaxed);
    let mut snapshot = 0u64;
    let mut queue = 0usize;
    let mut batches = 0u64;
    let mut shed_queue_full = 0u64;
    let mut shed_expired = 0u64;
    let mut shed_not_ready = shared.shed_draining.load(Ordering::Relaxed);
    let mut restarts = 0u64;
    let mut injected_panics = 0u64;
    let mut all_ready = true;
    let mut live = 0usize;
    let mut created = 0u64;
    let mut expired = 0u64;
    let mut evicted = 0u64;
    for lane in &shared.lanes {
        snapshot = snapshot.max(lane.applied.load(Ordering::Acquire));
        queue += lane.batcher.queue_len();
        batches += lane.batches.load(Ordering::Relaxed);
        shed_queue_full += lane.overload.shed_queue_full.load(Ordering::Relaxed);
        shed_expired += lane.batcher.shed_expired_total();
        shed_not_ready += lane.overload.shed_not_ready.load(Ordering::Relaxed);
        restarts += lane.overload.batcher_restarts.load(Ordering::Relaxed);
        injected_panics += lane.chaos.injected_panics();
        all_ready &= !lane.overload.breaker_open();
        let s = lane.sessions.stats();
        live += s.live;
        created += s.created;
        expired += s.expired;
        evicted += s.evicted;
    }
    let session_cfg = shared.session;
    protocol::StatsSnapshot {
        snapshot,
        published: shared.snapshots.version(),
        served: served_v1 + served_session,
        served_v1,
        served_session,
        batches,
        queue,
        ready: !shared.draining() && all_ready,
        queue_cap: shared.queue_cap,
        shed_queue_full,
        shed_expired,
        shed_not_ready,
        batcher_restarts: restarts,
        request_timeout_ms: REQUEST_TIMEOUT.as_millis() as u64,
        chaos_injected_panics: injected_panics,
        chaos_corrupted_publishes: shared.publish_chaos.corrupted_publishes(),
        sessions_live: live,
        sessions_created: created,
        session_appends: shared.stats.session_appends.load(Ordering::Relaxed),
        sessions_expired: expired,
        sessions_evicted: evicted,
        session_ttl_ms: session_cfg.ttl.as_millis() as u64,
        session_capacity: session_cfg.max_sessions,
    }
}

/// The per-lane rows of the v3 stats answer.
fn lane_stats(shared: &Shared) -> Vec<LaneStats> {
    let draining = shared.draining();
    shared
        .lanes
        .iter()
        .map(|lane| LaneStats {
            lane: lane.index,
            snapshot: lane.applied.load(Ordering::Acquire),
            ready: !draining && !lane.overload.breaker_open(),
            queue_depth: lane.batcher.queue_len(),
            queue_cap: shared.queue_cap,
            served: lane.served.load(Ordering::Relaxed),
            batches: lane.batches.load(Ordering::Relaxed),
            shed_queue_full: lane.overload.shed_queue_full.load(Ordering::Relaxed),
            shed_expired: lane.batcher.shed_expired_total(),
            shed_not_ready: lane.overload.shed_not_ready.load(Ordering::Relaxed),
            restarts: lane.overload.batcher_restarts.load(Ordering::Relaxed),
            sessions_live: lane.sessions.stats().live,
            injected_panics: lane.chaos.injected_panics(),
        })
        .collect()
}

/// The shared enqueue tail of every predict flavor: by the time a query
/// reaches here its check-in stream is already resolved and its lane
/// chosen, so payload and session predictions ride the same batcher path
/// (and mix freely within one flush of their lane). Refusals are answered
/// at once; an admitted query takes `reply` along as its completion and
/// the mux gives up on it a bounded grace past the deadline.
fn submit_prediction(
    shared: &Arc<Shared>,
    lane_idx: usize,
    query: Query,
    endpoint: Endpoint,
    deadline: Instant,
    reply: Reply,
) -> Option<Instant> {
    let refusal = match shared.lane(lane_idx) {
        Err(e) => e,
        Ok(lane) if shared.draining() => {
            lane.overload.shed_not_ready.fetch_add(1, Ordering::Relaxed);
            ApiError::shutting_down("server is draining")
        }
        Ok(lane) if lane.overload.breaker_open() => {
            lane.overload.shed_not_ready.fetch_add(1, Ordering::Relaxed);
            ApiError::not_ready(format!(
                "lane {} circuit breaker open after repeated batch crashes",
                lane.index
            ))
        }
        Ok(lane) => {
            let done = LaneReply {
                shared: Arc::clone(shared),
                lane: lane_idx,
                endpoint,
                reply,
            };
            let (refused, done) = match lane.batcher.submit(query, Some(deadline), done) {
                // The batcher already drops queued-and-expired entries, so
                // a reply still missing at the deadline means the flush
                // picked the query up in time and simply runs long: wait
                // a grace.
                Ok(()) => return Some(deadline + FLUSH_GRACE),
                Err(refused) => refused,
            };
            let refusal = match refused {
                SubmitError::QueueFull => {
                    lane.overload
                        .shed_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    ApiError::overloaded(format!("lane {} admission queue is full", lane.index))
                }
                SubmitError::Closed => ApiError::shutting_down("server is draining"),
            };
            done.reply.send(finish(shared, refusal.render()));
            return None;
        }
    };
    reply.send(finish(shared, refusal.render()));
    None
}

/// An admitted prediction's completion. It runs on the lane thread,
/// which renders the answer and sends it to the waiting connection; a
/// crashed batch drops it, and the dropped reply answers 500.
struct LaneReply {
    shared: Arc<Shared>,
    lane: usize,
    endpoint: Endpoint,
    reply: Reply,
}

impl Completion for LaneReply {
    fn complete(self: Box<Self>, verdict: Verdict) {
        let LaneReply {
            shared,
            lane,
            endpoint,
            reply,
        } = *self;
        let answered = match verdict {
            Verdict::Answered(answered) => {
                endpoint
                    .counter(&shared.stats)
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(lane) = shared.lanes.get(lane) {
                    lane.served.fetch_add(1, Ordering::Relaxed);
                }
                (
                    200,
                    protocol::predict_response(&answered.topk, answered.snapshot, answered.batch),
                )
            }
            Verdict::Expired => {
                ApiError::deadline_exceeded("request deadline exceeded before the batch ran")
                    .render()
            }
        };
        reply.send(finish(&shared, answered));
    }
}

/// Validates every POI of a payload against the vocabulary (the bound
/// check itself is [`tspn_data::first_invalid_poi`]).
fn check_vocabulary(shared: &Shared, visits: &[Visit]) -> Result<(), ApiError> {
    match tspn_data::first_invalid_poi(visits, shared.num_pois) {
        Some(i) => {
            let poi = visits.get(i).map_or(0, |v| v.poi.0);
            Err(ApiError::unprocessable(format!(
                "checkin {i} names POI {poi} outside the vocabulary (0..{})",
                shared.num_pois
            )))
        }
        None => Ok(()),
    }
}

/// Builds the payload-addressed query the v1 predict flavors submit. The
/// caller guarantees every POI is inside the vocabulary (checked at
/// request parse time for `/v1/predict`, at create/append time for
/// session state — a session predict never re-scans its visits).
fn adhoc_query(
    shared: &Shared,
    user: usize,
    checkins: &[Visit],
    k: Option<usize>,
    top: Option<usize>,
) -> Result<Query, ApiError> {
    let trajectory = AdHocTrajectory::from_checkins(UserId(user), checkins, DEFAULT_GAP_SECS)
        .map_err(|e| ApiError::unprocessable(e.to_string()))?;
    Ok(Query::adhoc(
        Arc::new(trajectory),
        k.unwrap_or(shared.default_k),
        top.unwrap_or(DEFAULT_TOP),
    ))
}

/// `POST /v1/predict`: run the model directly on the supplied check-in
/// sequence. Stateless payloads shard on request content (user + visits),
/// so repeated identical requests batch on one lane while the overall
/// flow spreads.
fn v1_predict(shared: &Shared, body: &[u8]) -> Result<(usize, Query), ApiError> {
    let req = protocol::parse_v1_predict(body)?;
    check_vocabulary(shared, &req.checkins)?;
    let lane = shared.lane_for_content(req.user, &req.checkins)?;
    let query = adhoc_query(shared, req.user, &req.checkins, req.k, req.top)?;
    Ok((lane.index, query))
}

/// Maps a store failure for session `id` onto the typed error model.
fn session_error(id: u64, e: SessionError) -> ApiError {
    match e {
        SessionError::Unknown => {
            ApiError::not_found(format!("session \"s{id}\" was never created"))
        }
        SessionError::Gone => {
            ApiError::gone(format!("session \"s{id}\" has expired or been deleted"))
        }
        SessionError::Unordered(i) => ApiError::unprocessable(format!(
            "checkin {i} is earlier than the session's newest visit"
        )),
    }
}

/// `POST /v1/sessions`: create a session on the user's lane, optionally
/// seeding check-ins. The seeded create is a single atomic store
/// operation — an invalid seed issues no id, and no racing eviction can
/// strand the seed. The issued id encodes the lane (and shard), so every
/// later call on it lands back on the same partition.
fn session_create(shared: &Shared, body: &[u8]) -> Result<(u16, String), ApiError> {
    let req = protocol::parse_session_create(body)?;
    check_vocabulary(shared, &req.checkins)?;
    let lane = shared.lane_for_user(req.user)?;
    let (id, count) = lane
        .sessions
        .create(req.user, &req.checkins)
        .map_err(|e| match e {
            SessionError::Unordered(i) => {
                ApiError::unprocessable(format!("checkin {i} is earlier than its predecessor"))
            }
            other => session_error(0, other),
        })?;
    let ttl_ms = lane.sessions.config().ttl.as_millis() as u64;
    Ok((
        200,
        protocol::session_created_response(id, req.user, count, ttl_ms),
    ))
}

/// `POST /v1/sessions/{id}/checkins`: append observed visits.
fn session_append(shared: &Shared, id: u64, body: &[u8]) -> Result<(u16, String), ApiError> {
    let checkins = protocol::parse_session_append(body)?;
    check_vocabulary(shared, &checkins)?;
    let lane = shared.lane_for_session_id(id)?;
    let total = lane
        .sessions
        .append(id, &checkins)
        .map_err(|e| session_error(id, e))?;
    shared.stats.session_appends.fetch_add(1, Ordering::Relaxed);
    Ok((200, protocol::session_append_response(id, total)))
}

/// `POST /v1/sessions/{id}/predict`: predict from the accumulated state,
/// on the lane the id encodes (session state and its predictions share a
/// lane by construction).
fn session_query(shared: &Shared, id: u64, body: &[u8]) -> Result<(usize, Query), ApiError> {
    let (k, top) = protocol::parse_predict_opts(body)?;
    let lane = shared.lane_for_session_id(id)?;
    let (user, visits) = lane
        .sessions
        .snapshot(id)
        .map_err(|e| session_error(id, e))?;
    if visits.is_empty() {
        return Err(ApiError::unprocessable(format!(
            "session \"s{id}\" has no check-ins to predict from"
        )));
    }
    let query = adhoc_query(shared, user, &visits, k, top)?;
    Ok((lane.index, query))
}

/// `GET /v1/sessions/{id}`: session state (does not refresh the TTL).
fn session_get(shared: &Shared, id: u64) -> Result<(u16, String), ApiError> {
    let lane = shared.lane_for_session_id(id)?;
    let info = lane.sessions.info(id).map_err(|e| session_error(id, e))?;
    Ok((
        200,
        protocol::session_info_response(id, info.user, info.checkins, info.idle_ms),
    ))
}

/// `DELETE /v1/sessions/{id}`: end a session (it reports `410` after).
fn session_delete(shared: &Shared, id: u64) -> Result<(u16, String), ApiError> {
    let lane = shared.lane_for_session_id(id)?;
    lane.sessions.delete(id).map_err(|e| session_error(id, e))?;
    Ok((200, "{\"ok\":true}".to_string()))
}

/// `POST /admin/reload`: load + validate on the calling (reload) thread,
/// then publish once; every lane applies at its next flush boundary.
fn reload(shared: &Shared, body: &[u8]) -> (u16, String) {
    let path = match protocol::parse_reload(body) {
        Ok(p) => p,
        Err(e) => return e.render(),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return ApiError::bad_request(format!("cannot read {path:?}: {e}")).render();
        }
    };
    let ckpt: Checkpoint = match serde_json::from_str(&text) {
        Ok(c) => c,
        Err(e) => {
            return ApiError::bad_request(format!("cannot parse checkpoint {path:?}: {e}"))
                .render();
        }
    };
    // Set before the listener binds; answer 500 instead of killing the
    // reload thread if a future refactor reorders startup.
    let Some(expected) = shared.expected_shapes.get() else {
        return ApiError::internal("server shape registry not initialised").render();
    };
    if let Err(e) = validate_shapes(&ckpt, expected) {
        return ApiError::bad_request(format!("checkpoint rejected: {e}")).render();
    }
    // Fault injection: poison the checkpoint *after* this handler's
    // validation passed, so each lane's own re-validation is what must
    // catch it (and does — they keep serving the old parameters).
    let mut ckpt = ckpt;
    if shared.publish_chaos.corrupt(&mut ckpt) {
        eprintln!("tspn-serve: chaos poisoned published checkpoint");
    }
    let version = shared.snapshots.publish(ckpt);
    (200, format!("{{\"ok\":true,\"snapshot\":{version}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_distinguishes_unknown_paths_from_wrong_methods() {
        // Known paths with the right verb resolve.
        assert_eq!(route_of("GET", "/healthz"), Ok(Route::Healthz));
        assert_eq!(route_of("POST", "/v1/predict"), Ok(Route::V1Predict));
        assert_eq!(route_of("GET", "/v1/stats"), Ok(Route::V1Stats));
        assert_eq!(route_of("GET", "/v1/topology"), Ok(Route::V1Topology));
        assert_eq!(route_of("POST", "/v1/sessions"), Ok(Route::SessionCreate));
        assert_eq!(route_of("POST", "/admin/reload"), Ok(Route::AdminReload));

        // Known paths with the wrong verb are 405, never 404.
        for (method, path) in [
            ("POST", "/healthz"),
            ("DELETE", "/v1/predict"),
            ("POST", "/v1/stats"),
            ("POST", "/v1/topology"),
            ("GET", "/v1/sessions"),
            ("GET", "/admin/shutdown"),
            ("POST", "/v1/sessions/s1"),
            ("GET", "/v1/sessions/s1/checkins"),
            ("DELETE", "/v1/sessions/s1/predict"),
        ] {
            let err = route_of(method, path).unwrap_err();
            assert_eq!(err.status, 405, "{method} {path} should be 405");
            assert_eq!(err.code, "method_not_allowed");
        }

        // Unknown paths are 404 for any verb.
        for (method, path) in [
            ("GET", "/nope"),
            // The retired index-addressed endpoint.
            ("POST", "/predict"),
            ("GET", "/predict"),
            ("POST", "/v1"),
            ("POST", "/v1/session"),
            ("POST", "/v1/sessions/"),
            ("POST", "/v1/sessions/notanid/predict"),
            ("POST", "/v1/sessions/s1/nope"),
            ("POST", "/v1/sessions/s1/predict/extra"),
        ] {
            let err = route_of(method, path).unwrap_err();
            assert_eq!(err.status, 404, "{method} {path} should be 404");
            assert_eq!(err.code, "not_found");
        }
    }

    #[test]
    fn session_routes_carry_their_id() {
        assert_eq!(route_of("GET", "/v1/sessions/s7"), Ok(Route::SessionGet(7)));
        assert_eq!(
            route_of("DELETE", "/v1/sessions/s7"),
            Ok(Route::SessionDelete(7))
        );
        assert_eq!(
            route_of("POST", "/v1/sessions/s12/checkins"),
            Ok(Route::SessionAppend(12))
        );
        assert_eq!(
            route_of("POST", "/v1/sessions/s12/predict"),
            Ok(Route::SessionPredict(12))
        );
    }
}
