//! The serving wire protocol: a minimal JSON dialect over HTTP/1.1.
//!
//! ## The `/v1` surface (payload-addressed + sessions)
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /v1/predict` | `{"user":U,"checkins":[{"poi":P,"t":T},…][,"k":K][,"top":N]}` | `{"pois":[…],"tiles":[…],"candidates":C,"snapshot":V,"batch":B}` |
//! | `POST /v1/sessions` | `{"user":U[,"checkins":[…]]}` | `{"session":"s1","user":U,"checkins":N,"ttl_ms":T}` |
//! | `POST /v1/sessions/{id}/checkins` | `{"checkins":[…]}` | `{"session":"s1","checkins":N}` |
//! | `POST /v1/sessions/{id}/predict` | `{}` or `{"k":K,"top":N}` | as `/v1/predict` |
//! | `GET /v1/sessions/{id}` | – | `{"session":"s1","user":U,"checkins":N,"idle_ms":I}` |
//! | `DELETE /v1/sessions/{id}` | – | `{"ok":true}` |
//! | `GET /v1/stats` | – | serving + session-store counters, build info (kernel tier, threads) |
//!
//! Every prediction is addressed by a check-in stream: the payload of
//! `/v1/predict` or a session's accumulated visits. There is no
//! dataset-index dialect (the old `POST /predict` is a `404 not_found`).
//!
//! ## Health + admin
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `GET /healthz` | – | status + counters |
//! | `POST /admin/reload` | `{"path":"ckpt.json"}` | `{"ok":true,"snapshot":V}` |
//! | `POST /admin/shutdown` | – | `{"ok":true}` |
//!
//! Errors are **typed**: `{"error":{"code":"…","message":"…"}}` with
//! `400 bad_request` (malformed JSON / wrong field types), `404
//! not_found` (unknown route or never-issued session), `405
//! method_not_allowed`, `410 gone` (expired/evicted/deleted session),
//! `413 payload_too_large` / `431 headers_too_large` (wire-size limits),
//! `422 unprocessable` (well-formed but semantically invalid: POI out of
//! vocabulary, unordered timestamps, empty check-in runs, zero `k`/`top`),
//! `429 overloaded` (admission queue full; carries `Retry-After`), and
//! `503` with code `shutting_down` (draining), `not_ready` (circuit
//! breaker open), or `deadline_exceeded` (request budget spent in queue).

use serde::Value;
use tspn_core::TopK;
use tspn_data::{PoiId, Visit};

// ---------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------

/// A client-facing API error: HTTP status plus the typed JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code (`"bad_request"`, `"gone"`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// `400 bad_request`: malformed JSON or wrong field types.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }

    /// `404 not_found`: unknown route or never-issued resource.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError {
            status: 404,
            code: "not_found",
            message: message.into(),
        }
    }

    /// `405 method_not_allowed`: known path, wrong verb.
    pub fn method_not_allowed(message: impl Into<String>) -> Self {
        ApiError {
            status: 405,
            code: "method_not_allowed",
            message: message.into(),
        }
    }

    /// `410 gone`: the resource existed but has expired or been deleted.
    pub fn gone(message: impl Into<String>) -> Self {
        ApiError {
            status: 410,
            code: "gone",
            message: message.into(),
        }
    }

    /// `422 unprocessable`: well-formed but semantically invalid.
    pub fn unprocessable(message: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            code: "unprocessable",
            message: message.into(),
        }
    }

    /// `429 overloaded`: the admission queue is full; the request was
    /// shed without being executed, so retrying (after `Retry-After`) is
    /// always safe.
    pub fn overloaded(message: impl Into<String>) -> Self {
        ApiError {
            status: 429,
            code: "overloaded",
            message: message.into(),
        }
    }

    /// `503 shutting_down`: the server is draining; this connection gets
    /// a typed refusal instead of a reset.
    pub fn shutting_down(message: impl Into<String>) -> Self {
        ApiError {
            status: 503,
            code: "shutting_down",
            message: message.into(),
        }
    }

    /// `503 not_ready`: the circuit breaker is open after repeated
    /// batcher crashes; predictions are shed until the cool-down passes.
    pub fn not_ready(message: impl Into<String>) -> Self {
        ApiError {
            status: 503,
            code: "not_ready",
            message: message.into(),
        }
    }

    /// `503 deadline_exceeded`: the request's deadline budget elapsed
    /// while it waited; it was dropped before the model ran it.
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        ApiError {
            status: 503,
            code: "deadline_exceeded",
            message: message.into(),
        }
    }

    /// `500 internal`: the batch serving this request crashed; the
    /// supervisor restarts the batcher and subsequent requests succeed.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError {
            status: 500,
            code: "internal",
            message: message.into(),
        }
    }

    /// The `(status, body)` pair the connection handler writes.
    pub fn render(&self) -> (u16, String) {
        (self.status, error_response(self.code, &self.message))
    }
}

/// Renders a typed error body. The message is escaped as a real JSON
/// string (Rust's `{:?}` is *almost* JSON but renders control characters
/// as the invalid `\u{7f}` form, and parts of the message are
/// client-controlled).
pub fn error_response(code: &str, message: &str) -> String {
    let code =
        serde_json::to_string(&code.to_string()).unwrap_or_else(|_| "\"internal\"".to_string());
    let message =
        serde_json::to_string(&message.to_string()).unwrap_or_else(|_| "\"error\"".to_string());
    format!("{{\"error\":{{\"code\":{code},\"message\":{message}}}}}")
}

/// Extracts `(code, message)` from a parsed typed-error answer — the
/// client-side counterpart of [`error_response`], shared by the smoke
/// driver and the tests.
pub fn error_of(answer: &Value) -> Option<(String, String)> {
    let err = answer.get("error")?;
    Some((
        err.get("code")?.as_str()?.to_string(),
        err.get("message")?.as_str()?.to_string(),
    ))
}

// ---------------------------------------------------------------------
// Shared JSON helpers
// ---------------------------------------------------------------------

fn parse_json(body: &[u8]) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8".to_string()))?;
    serde_json::from_str::<Value>(text)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON: {e}")))
}

fn usize_field(v: &Value, name: &str) -> Result<usize, ApiError> {
    v.get(name)
        .ok_or_else(|| ApiError::bad_request(format!("missing field {name:?}")))?
        .as_usize()
        .ok_or_else(|| {
            ApiError::bad_request(format!("field {name:?} must be a non-negative integer"))
        })
}

/// Optional positive integer: absent/null → `None`, zero → 422.
fn optional_positive(v: &Value, name: &str) -> Result<Option<usize>, ApiError> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => {
            let n = val.as_usize().ok_or_else(|| {
                ApiError::bad_request(format!("field {name:?} must be a non-negative integer"))
            })?;
            if n == 0 {
                return Err(ApiError::unprocessable(format!(
                    "field {name:?} must be ≥ 1"
                )));
            }
            Ok(Some(n))
        }
    }
}

/// Parses a `checkins` array of `{"poi":P,"t":T}` records.
fn checkins_field(v: &Value, required: bool) -> Result<Vec<Visit>, ApiError> {
    let field = match v.get("checkins") {
        Some(f) => f,
        None if !required => return Ok(Vec::new()),
        None => return Err(ApiError::bad_request("missing field \"checkins\"")),
    };
    let Value::Array(items) = field else {
        return Err(ApiError::bad_request("field \"checkins\" must be an array"));
    };
    let mut visits = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let poi = item.get("poi").and_then(Value::as_usize).ok_or_else(|| {
            ApiError::bad_request(format!("checkin {i} needs integer field \"poi\""))
        })?;
        let time = item.get("t").and_then(Value::as_i64).ok_or_else(|| {
            ApiError::bad_request(format!("checkin {i} needs integer field \"t\""))
        })?;
        visits.push(Visit {
            poi: PoiId(poi),
            time,
        });
    }
    Ok(visits)
}

/// Renders a `checkins` array (client side).
fn push_checkins(out: &mut String, visits: &[Visit]) {
    out.push_str("\"checkins\":[");
    for (i, v) in visits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"poi\":{},\"t\":{}}}", v.poi.0, v.time));
    }
    out.push(']');
}

/// Extracts the POI ranking from a parsed predict answer.
pub fn pois_of(answer: &Value) -> Option<Vec<tspn_data::PoiId>> {
    match answer.get("pois") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|i| i.as_usize().map(tspn_data::PoiId))
            .collect(),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// v1 payload-addressed predict
// ---------------------------------------------------------------------

/// A parsed `POST /v1/predict` body.
#[derive(Debug, Clone, PartialEq)]
pub struct V1PredictRequest {
    /// Client-supplied user id (opaque; echoed into session state only).
    pub user: usize,
    /// The raw observed check-in stream, oldest first.
    pub checkins: Vec<Visit>,
    /// Tile-selection K; `None` uses the server's configured `top_k`.
    pub k: Option<usize>,
    /// Result-list truncation; `None` uses the server default.
    pub top: Option<usize>,
}

/// Parses a `POST /v1/predict` body.
///
/// # Errors
/// `400` for malformed JSON / wrong types, `422` for an empty `checkins`
/// run or zero `k`/`top` (sequence-order and vocabulary violations are
/// caught against the dataset by the server).
pub fn parse_v1_predict(body: &[u8]) -> Result<V1PredictRequest, ApiError> {
    let v = parse_json(body)?;
    let checkins = checkins_field(&v, true)?;
    if checkins.is_empty() {
        return Err(ApiError::unprocessable("\"checkins\" must be non-empty"));
    }
    Ok(V1PredictRequest {
        user: usize_field(&v, "user")?,
        checkins,
        k: optional_positive(&v, "k")?,
        top: optional_positive(&v, "top")?,
    })
}

/// Renders a `POST /v1/predict` body (client side).
pub fn v1_predict_request_body(user: usize, checkins: &[Visit], k: usize, top: usize) -> String {
    let mut out = String::with_capacity(48 + 24 * checkins.len());
    out.push_str(&format!("{{\"user\":{user},"));
    push_checkins(&mut out, checkins);
    out.push_str(&format!(",\"k\":{k},\"top\":{top}}}"));
    out
}

// ---------------------------------------------------------------------
// v1 sessions
// ---------------------------------------------------------------------

/// A parsed `POST /v1/sessions` body.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCreateRequest {
    /// The session's user id.
    pub user: usize,
    /// Optional initial check-ins (may be empty).
    pub checkins: Vec<Visit>,
}

/// Parses a `POST /v1/sessions` body.
///
/// # Errors
/// `400` on malformed JSON, a missing `user`, or wrong types.
pub fn parse_session_create(body: &[u8]) -> Result<SessionCreateRequest, ApiError> {
    let v = parse_json(body)?;
    Ok(SessionCreateRequest {
        user: usize_field(&v, "user")?,
        checkins: checkins_field(&v, false)?,
    })
}

/// Renders a `POST /v1/sessions` body (client side).
pub fn session_create_body(user: usize, checkins: &[Visit]) -> String {
    let mut out = String::with_capacity(32 + 24 * checkins.len());
    out.push_str(&format!("{{\"user\":{user},"));
    push_checkins(&mut out, checkins);
    out.push('}');
    out
}

/// Parses a `POST /v1/sessions/{id}/checkins` body into the appended run.
///
/// # Errors
/// `400` on malformed JSON or types, `422` on an empty run.
pub fn parse_session_append(body: &[u8]) -> Result<Vec<Visit>, ApiError> {
    let v = parse_json(body)?;
    let checkins = checkins_field(&v, true)?;
    if checkins.is_empty() {
        return Err(ApiError::unprocessable("\"checkins\" must be non-empty"));
    }
    Ok(checkins)
}

/// Renders a `POST /v1/sessions/{id}/checkins` body (client side).
pub fn session_append_body(checkins: &[Visit]) -> String {
    let mut out = String::with_capacity(16 + 24 * checkins.len());
    out.push('{');
    push_checkins(&mut out, checkins);
    out.push('}');
    out
}

/// Parses a `POST /v1/sessions/{id}/predict` body: `k`/`top` overrides.
/// An empty body means "all defaults".
///
/// # Errors
/// `400` on malformed JSON or types, `422` on zero `k`/`top`.
pub fn parse_predict_opts(body: &[u8]) -> Result<(Option<usize>, Option<usize>), ApiError> {
    if body.iter().all(|b| b.is_ascii_whitespace()) {
        return Ok((None, None));
    }
    let v = parse_json(body)?;
    Ok((optional_positive(&v, "k")?, optional_positive(&v, "top")?))
}

/// Renders a `POST /v1/sessions` answer.
pub fn session_created_response(id: u64, user: usize, checkins: usize, ttl_ms: u64) -> String {
    format!("{{\"session\":\"s{id}\",\"user\":{user},\"checkins\":{checkins},\"ttl_ms\":{ttl_ms}}}")
}

/// Renders a `POST /v1/sessions/{id}/checkins` answer.
pub fn session_append_response(id: u64, checkins: usize) -> String {
    format!("{{\"session\":\"s{id}\",\"checkins\":{checkins}}}")
}

/// Renders a `GET /v1/sessions/{id}` answer.
pub fn session_info_response(id: u64, user: usize, checkins: usize, idle_ms: u64) -> String {
    format!(
        "{{\"session\":\"s{id}\",\"user\":{user},\"checkins\":{checkins},\"idle_ms\":{idle_ms}}}"
    )
}

/// Extracts the numeric id from a `"s<N>"` session-id path segment.
pub fn parse_session_id(segment: &str) -> Option<u64> {
    let digits = segment.strip_prefix('s')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------
// Admin + answers
// ---------------------------------------------------------------------

/// Parses an `/admin/reload` body into the checkpoint path.
///
/// # Errors
/// `400` on malformed JSON or a missing path.
pub fn parse_reload(body: &[u8]) -> Result<String, ApiError> {
    let v = parse_json(body)?;
    v.get("path")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request("missing string field \"path\""))
}

/// Renders a predict answer (shared by the payload and session endpoints
/// — one response shape for both).
pub fn predict_response(topk: &TopK, snapshot: u64, batch: u64) -> String {
    let mut out = String::with_capacity(64 + 8 * (topk.pois.len() + topk.tiles.len()));
    out.push_str("{\"pois\":[");
    push_ids(&mut out, topk.pois.iter().map(|p| p.0));
    out.push_str("],\"tiles\":[");
    push_ids(&mut out, topk.tiles.iter().copied());
    out.push_str("],\"candidates\":");
    out.push_str(&topk.candidate_count.to_string());
    out.push_str(",\"snapshot\":");
    out.push_str(&snapshot.to_string());
    out.push_str(",\"batch\":");
    out.push_str(&batch.to_string());
    out.push('}');
    out
}

fn push_ids(out: &mut String, ids: impl Iterator<Item = usize>) {
    for (i, id) in ids.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
}

/// Everything `/healthz` and `/v1/stats` report beyond the serving
/// snapshot versions.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Parameter version the batcher is serving.
    pub snapshot: u64,
    /// Latest validated published version.
    pub published: u64,
    /// Total successful predictions across all endpoints
    /// (`served_v1 + served_session`).
    pub served: u64,
    /// `POST /v1/predict` answers.
    pub served_v1: u64,
    /// `POST /v1/sessions/{id}/predict` answers.
    pub served_session: u64,
    /// Flushed batches.
    pub batches: u64,
    /// History-encoding memo hits: distinct histories of a flush whose
    /// QR-P graph was already encoded (see [`LaneStats`]).
    pub history_memo_hits: u64,
    /// History-encoding memo misses: QR-P graphs built and encoded.
    pub history_memo_misses: u64,
    /// Queries currently queued.
    pub queue: usize,
    /// Live sessions.
    pub sessions_live: usize,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Successful append calls.
    pub session_appends: u64,
    /// TTL expirations.
    pub sessions_expired: u64,
    /// Capacity (LRU) evictions.
    pub sessions_evicted: u64,
    /// Configured session TTL in milliseconds.
    pub session_ttl_ms: u64,
    /// Configured session capacity.
    pub session_capacity: usize,
    /// Whether the server accepts predictions right now (`false` while
    /// the circuit breaker is open).
    pub ready: bool,
    /// Configured admission-queue capacity.
    pub queue_cap: usize,
    /// Requests refused because the admission queue was full (429).
    pub shed_queue_full: u64,
    /// Requests dropped in-queue past their deadline (503).
    pub shed_expired: u64,
    /// Requests refused while the breaker was open (503).
    pub shed_not_ready: u64,
    /// Times the supervisor restarted the batcher after a panic.
    pub batcher_restarts: u64,
    /// Default per-request deadline budget in milliseconds.
    pub request_timeout_ms: u64,
    /// Injected flush panics (fault injection; 0 when chaos is inert).
    pub chaos_injected_panics: u64,
    /// Poisoned checkpoint publications (fault injection).
    pub chaos_corrupted_publishes: u64,
}

/// Renders a `/healthz` answer: readiness, the serving versions, and the
/// overload counters an operator needs at a glance. `status` mirrors
/// `ready` (`"ok"` / `"not_ready"`); the draining state never reaches
/// this renderer (the handler refuses with `503 shutting_down` first).
pub fn health_response(s: &StatsSnapshot) -> String {
    format!(
        "{{\"status\":\"{}\",\"ready\":{},\"snapshot\":{},\"published\":{},\"served\":{},\
         \"batches\":{},\"queue\":{},\"queue_cap\":{},\"restarts\":{},\
         \"shed\":{{\"queue_full\":{},\"expired\":{},\"not_ready\":{}}},\
         \"sessions\":{},\"evictions\":{}}}",
        if s.ready { "ok" } else { "not_ready" },
        s.ready,
        s.snapshot,
        s.published,
        s.served,
        s.batches,
        s.queue,
        s.queue_cap,
        s.batcher_restarts,
        s.shed_queue_full,
        s.shed_expired,
        s.shed_not_ready,
        s.sessions_live,
        s.sessions_expired + s.sessions_evicted,
    )
}

/// The stats `aggregate` object: versions, queue, readiness, per-endpoint
/// served counts, session lifecycle, the overload/shedding ledger, and
/// (always, zeros when inert) the fault-injection counters.
fn aggregate_block(s: &StatsSnapshot) -> String {
    format!(
        "{{\"snapshot\":{},\"published\":{},\"batches\":{},\
         \"history_memo_hits\":{},\"history_memo_misses\":{},\"queue\":{},\"ready\":{},\
         \"served\":{{\"total\":{},\"v1_predict\":{},\"session_predict\":{}}},\
         \"sessions\":{{\"live\":{},\"created\":{},\"appends\":{},\"expired\":{},\"evicted\":{},\
         \"ttl_ms\":{},\"capacity\":{}}},\
         \"overload\":{{\"queue_cap\":{},\"shed_queue_full\":{},\"shed_expired\":{},\
         \"shed_not_ready\":{},\"restarts\":{},\"request_timeout_ms\":{}}},\
         \"chaos\":{{\"injected_panics\":{},\"corrupted_publishes\":{}}}}}",
        s.snapshot,
        s.published,
        s.batches,
        s.history_memo_hits,
        s.history_memo_misses,
        s.queue,
        s.ready,
        s.served,
        s.served_v1,
        s.served_session,
        s.sessions_live,
        s.sessions_created,
        s.session_appends,
        s.sessions_expired,
        s.sessions_evicted,
        s.session_ttl_ms,
        s.session_capacity,
        s.queue_cap,
        s.shed_queue_full,
        s.shed_expired,
        s.shed_not_ready,
        s.batcher_restarts,
        s.request_timeout_ms,
        s.chaos_injected_panics,
        s.chaos_corrupted_publishes,
    )
}

/// The `build` block identifying the compute-kernel tier this process
/// dispatched to (`avx2-fma` or `scalar` — the first thing to check when
/// two replicas disagree on latency) and its thread count.
fn build_block() -> String {
    format!(
        "\"build\":{{\"kernel_tier\":\"{}\",\"threads\":{}}}",
        tspn_tensor::kernel_tier(),
        tspn_tensor::parallel::num_threads(),
    )
}

/// Per-lane counters for the stats `lanes` array: each lane is an
/// independent admission queue + supervised batcher + session-store
/// partition, so shedding, restarts, and breaker state are per-lane
/// facts the aggregate view averages away.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Lane index (`0..lanes`).
    pub lane: usize,
    /// Parameter version this lane's batcher is serving.
    pub snapshot: u64,
    /// Whether this lane accepts predictions (its breaker is closed).
    pub ready: bool,
    /// Queries currently queued in this lane.
    pub queue_depth: usize,
    /// This lane's admission-queue capacity.
    pub queue_cap: usize,
    /// Successful predictions answered by this lane.
    pub served: u64,
    /// Batches this lane has flushed.
    pub batches: u64,
    /// Distinct histories this lane's flushes found in the history
    /// memo: a history whose distinct POIs, in first-visit order, match
    /// one encoded since the parameters last changed, so no QR-P graph
    /// was built and no HGAT ran.
    pub history_memo_hits: u64,
    /// Distinct histories this lane's flushes built and encoded a QR-P
    /// graph for.
    pub history_memo_misses: u64,
    /// 429 sheds: lane queue full.
    pub shed_queue_full: u64,
    /// 503 sheds: deadline spent in this lane's queue.
    pub shed_expired: u64,
    /// 503 sheds: this lane's breaker open.
    pub shed_not_ready: u64,
    /// Supervisor restarts of this lane's batcher.
    pub restarts: u64,
    /// Live sessions pinned to this lane.
    pub sessions_live: usize,
    /// Injected flush panics scoped to this lane.
    pub injected_panics: u64,
}

/// Renders one entry of the stats `lanes` array.
fn lane_block(l: &LaneStats) -> String {
    format!(
        "{{\"lane\":{},\"snapshot\":{},\"ready\":{},\"queue_depth\":{},\"queue_cap\":{},\
         \"served\":{},\"batches\":{},\"history_memo_hits\":{},\"history_memo_misses\":{},\
         \"shed\":{{\"queue_full\":{},\"expired\":{},\"not_ready\":{}}},\
         \"restarts\":{},\"sessions\":{},\"injected_panics\":{}}}",
        l.lane,
        l.snapshot,
        l.ready,
        l.queue_depth,
        l.queue_cap,
        l.served,
        l.batches,
        l.history_memo_hits,
        l.history_memo_misses,
        l.shed_queue_full,
        l.shed_expired,
        l.shed_not_ready,
        l.restarts,
        l.sessions_live,
        l.injected_panics,
    )
}

/// Renders the **schema v3** `GET /v1/stats` answer:
/// `{"schema_version":3,"build":{…},"aggregate":{…},"lanes":[…]}`. The
/// `aggregate` object carries the whole ledger summed across lanes (the
/// `build` block is process-wide and lives at the top level); `lanes`
/// breaks the same ledger down per lane. (v3 dropped v2's
/// `served.legacy_predict` with the index-addressed endpoint, and later
/// added `history_memo_hits` / `history_memo_misses` to both views.)
pub fn stats_response(s: &StatsSnapshot, lanes: &[LaneStats]) -> String {
    let lanes_json: Vec<String> = lanes.iter().map(lane_block).collect();
    format!(
        "{{\"schema_version\":3,{},\"aggregate\":{},\"lanes\":[{}]}}",
        build_block(),
        aggregate_block(s),
        lanes_json.join(","),
    )
}

/// Renders the `GET /v1/topology` answer: how this process participates
/// in the fleet. `mode` is `"single"` (standalone), `"backend"` (one
/// shard of a routed fleet), or `"router"`; `shard_fn` names the hash
/// every participant must share ([`crate::shard::SHARD_FN_ID`]);
/// `backends` lists the fleet's backend addresses (empty unless asked of
/// a router).
pub fn topology_response(
    mode: &str,
    lanes: usize,
    shard_fn: &str,
    shard_index: usize,
    shard_count: usize,
    backends: &[String],
) -> String {
    let addrs: Vec<String> = backends
        .iter()
        .map(|a| serde_json::to_string(&a.to_string()).unwrap_or_else(|_| "\"\"".to_string()))
        .collect();
    format!(
        "{{\"mode\":\"{mode}\",\"lanes\":{lanes},\"shard_fn\":\"{shard_fn}\",\
         \"shard_index\":{shard_index},\"shard_count\":{shard_count},\"backends\":[{}]}}",
        addrs.join(","),
    )
}

/// A fleet participant's shape, as told by `GET /v1/topology`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `"single"`, `"backend"`, or `"router"`.
    pub mode: String,
    /// Batcher lanes in this process (fleet total when asked of a router).
    pub lanes: usize,
    /// Shard-function identifier every participant must share.
    pub shard_fn: String,
    /// This process's shard index (0 for single/router).
    pub shard_index: usize,
    /// Fleet size (1 for single).
    pub shard_count: usize,
    /// Backend addresses (empty unless asked of a router).
    pub backends: Vec<String>,
}

/// Parses a `GET /v1/topology` answer. `None` when the body is not a
/// topology object (callers treat that as "pre-topology server").
pub fn parse_topology(v: &Value) -> Option<Topology> {
    Some(Topology {
        mode: v.get("mode")?.as_str()?.to_string(),
        lanes: v.get("lanes")?.as_usize()?,
        shard_fn: v.get("shard_fn")?.as_str()?.to_string(),
        shard_index: v.get("shard_index")?.as_usize()?,
        shard_count: v.get("shard_count")?.as_usize()?,
        backends: v
            .get("backends")?
            .as_array()?
            .iter()
            .map(|a| a.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?,
    })
}

/// Parses the `aggregate` block of a v3 stats answer back into a
/// [`StatsSnapshot`]. The router uses this to merge backend ledgers into
/// one fleet view. The history-memo counters read as 0 when absent: they
/// joined v3 after its first release.
pub fn parse_stats(v: &Value) -> Option<StatsSnapshot> {
    let num = |path: &[&str]| -> Option<u64> {
        let mut cur = v;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_usize().map(|n| n as u64)
    };
    Some(StatsSnapshot {
        snapshot: num(&["snapshot"])?,
        published: num(&["published"])?,
        served: num(&["served", "total"])?,
        served_v1: num(&["served", "v1_predict"])?,
        served_session: num(&["served", "session_predict"])?,
        batches: num(&["batches"])?,
        history_memo_hits: num(&["history_memo_hits"]).unwrap_or(0),
        history_memo_misses: num(&["history_memo_misses"]).unwrap_or(0),
        queue: num(&["queue"])? as usize,
        sessions_live: num(&["sessions", "live"])? as usize,
        sessions_created: num(&["sessions", "created"])?,
        session_appends: num(&["sessions", "appends"])?,
        sessions_expired: num(&["sessions", "expired"])?,
        sessions_evicted: num(&["sessions", "evicted"])?,
        session_ttl_ms: num(&["sessions", "ttl_ms"])?,
        session_capacity: num(&["sessions", "capacity"])? as usize,
        ready: v.get("ready")?.as_bool()?,
        queue_cap: num(&["overload", "queue_cap"])? as usize,
        shed_queue_full: num(&["overload", "shed_queue_full"])?,
        shed_expired: num(&["overload", "shed_expired"])?,
        shed_not_ready: num(&["overload", "shed_not_ready"])?,
        batcher_restarts: num(&["overload", "restarts"])?,
        request_timeout_ms: num(&["overload", "request_timeout_ms"])?,
        chaos_injected_panics: num(&["chaos", "injected_panics"])?,
        chaos_corrupted_publishes: num(&["chaos", "corrupted_publishes"])?,
    })
}

/// Parses one entry of a stats `lanes` array back into [`LaneStats`] (the
/// router re-numbers and re-renders backend lanes into its fleet view).
/// Absent history-memo counters read as 0, as in [`parse_stats`].
pub fn parse_lane_stats(v: &Value) -> Option<LaneStats> {
    let num = |path: &[&str]| -> Option<u64> {
        let mut cur = v;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_usize().map(|n| n as u64)
    };
    Some(LaneStats {
        lane: num(&["lane"])? as usize,
        snapshot: num(&["snapshot"])?,
        ready: v.get("ready")?.as_bool()?,
        queue_depth: num(&["queue_depth"])? as usize,
        queue_cap: num(&["queue_cap"])? as usize,
        served: num(&["served"])?,
        batches: num(&["batches"])?,
        history_memo_hits: num(&["history_memo_hits"]).unwrap_or(0),
        history_memo_misses: num(&["history_memo_misses"]).unwrap_or(0),
        shed_queue_full: num(&["shed", "queue_full"])?,
        shed_expired: num(&["shed", "expired"])?,
        shed_not_ready: num(&["shed", "not_ready"])?,
        restarts: num(&["restarts"])?,
        sessions_live: num(&["sessions"])? as usize,
        injected_panics: num(&["injected_panics"])?,
    })
}

/// Sums two stats ledgers into a fleet aggregate: counters add, `ready`
/// ANDs (the fleet is ready only when every member is), versions take the
/// newest, and configuration values (`ttl_ms`, `capacity`, `queue_cap`,
/// `request_timeout_ms`) keep `a`'s — a fleet is deployed homogeneous.
pub fn merge_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        snapshot: a.snapshot.max(b.snapshot),
        published: a.published.max(b.published),
        served: a.served + b.served,
        served_v1: a.served_v1 + b.served_v1,
        served_session: a.served_session + b.served_session,
        batches: a.batches + b.batches,
        history_memo_hits: a.history_memo_hits + b.history_memo_hits,
        history_memo_misses: a.history_memo_misses + b.history_memo_misses,
        queue: a.queue + b.queue,
        sessions_live: a.sessions_live + b.sessions_live,
        sessions_created: a.sessions_created + b.sessions_created,
        session_appends: a.session_appends + b.session_appends,
        sessions_expired: a.sessions_expired + b.sessions_expired,
        sessions_evicted: a.sessions_evicted + b.sessions_evicted,
        session_ttl_ms: a.session_ttl_ms,
        session_capacity: a.session_capacity,
        ready: a.ready && b.ready,
        queue_cap: a.queue_cap,
        shed_queue_full: a.shed_queue_full + b.shed_queue_full,
        shed_expired: a.shed_expired + b.shed_expired,
        shed_not_ready: a.shed_not_ready + b.shed_not_ready,
        batcher_restarts: a.batcher_restarts + b.batcher_restarts,
        request_timeout_ms: a.request_timeout_ms,
        chaos_injected_panics: a.chaos_injected_panics + b.chaos_injected_panics,
        chaos_corrupted_publishes: a.chaos_corrupted_publishes + b.chaos_corrupted_publishes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_data::PoiId;

    fn v(poi: usize, t: i64) -> Visit {
        Visit {
            poi: PoiId(poi),
            time: t,
        }
    }

    #[test]
    fn v1_predict_roundtrip_and_statuses() {
        let visits = vec![v(3, 100), v(9, 7 * 3600)];
        let body = v1_predict_request_body(5, &visits, 4, 10);
        let req = parse_v1_predict(body.as_bytes()).unwrap();
        assert_eq!(req.user, 5);
        assert_eq!(req.checkins, visits);
        assert_eq!((req.k, req.top), (Some(4), Some(10)));

        // Negative timestamps survive (i64 field).
        let req = parse_v1_predict(br#"{"user":0,"checkins":[{"poi":1,"t":-5}]}"#).unwrap();
        assert_eq!(req.checkins[0].time, -5);
        assert_eq!((req.k, req.top), (None, None));

        // Missing/empty/typed violations map to the right status class.
        assert_eq!(parse_v1_predict(br#"{"user":0}"#).unwrap_err().status, 400);
        assert_eq!(
            parse_v1_predict(br#"{"user":0,"checkins":[]}"#)
                .unwrap_err()
                .status,
            422
        );
        assert_eq!(
            parse_v1_predict(br#"{"user":0,"checkins":[{"poi":1}]}"#)
                .unwrap_err()
                .status,
            400
        );
        let zero_k = parse_v1_predict(br#"{"user":0,"checkins":[{"poi":1,"t":0}],"k":0}"#);
        assert_eq!(zero_k.unwrap_err().status, 422);
    }

    #[test]
    fn session_bodies_roundtrip() {
        let visits = vec![v(1, 5), v(2, 10)];
        let create = parse_session_create(session_create_body(9, &visits).as_bytes()).unwrap();
        assert_eq!((create.user, create.checkins.clone()), (9, visits.clone()));
        // `checkins` is optional on create…
        let bare = parse_session_create(br#"{"user":2}"#).unwrap();
        assert!(bare.checkins.is_empty());
        // …but `user` is not.
        assert_eq!(parse_session_create(b"{}").unwrap_err().status, 400);

        let appended = parse_session_append(session_append_body(&visits).as_bytes()).unwrap();
        assert_eq!(appended, visits);
        assert_eq!(
            parse_session_append(br#"{"checkins":[]}"#)
                .unwrap_err()
                .status,
            422
        );

        assert_eq!(parse_predict_opts(b"").unwrap(), (None, None));
        assert_eq!(parse_predict_opts(b"{}").unwrap(), (None, None));
        assert_eq!(
            parse_predict_opts(br#"{"k":3,"top":7}"#).unwrap(),
            (Some(3), Some(7))
        );
        assert_eq!(parse_predict_opts(br#"{"top":0}"#).unwrap_err().status, 422);
    }

    #[test]
    fn session_id_segments_parse_strictly() {
        assert_eq!(parse_session_id("s1"), Some(1));
        assert_eq!(parse_session_id("s907"), Some(907));
        assert_eq!(parse_session_id("s"), None);
        assert_eq!(parse_session_id("1"), None);
        assert_eq!(parse_session_id("sx1"), None);
        assert_eq!(parse_session_id("s1x"), None);
    }

    #[test]
    fn reload_request_roundtrip() {
        assert_eq!(parse_reload(br#"{"path":"a/b.json"}"#).unwrap(), "a/b.json");
        assert!(parse_reload(br#"{"file":"a"}"#).is_err());
        assert!(parse_reload(b"{").is_err());
    }

    #[test]
    fn responses_are_valid_json() {
        let topk = TopK {
            pois: vec![PoiId(4), PoiId(1)],
            tiles: vec![7],
            candidate_count: 12,
        };
        let text = predict_response(&topk, 2, 9);
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.get("candidates").and_then(Value::as_usize), Some(12));
        assert_eq!(parsed.get("snapshot").and_then(Value::as_usize), Some(2));

        let stats = StatsSnapshot {
            snapshot: 1,
            published: 2,
            served: 10,
            served_v1: 7,
            served_session: 3,
            batches: 3,
            history_memo_hits: 5,
            history_memo_misses: 8,
            queue: 0,
            sessions_live: 2,
            sessions_created: 5,
            session_appends: 7,
            sessions_expired: 2,
            sessions_evicted: 1,
            session_ttl_ms: 1_000,
            session_capacity: 64,
            ready: true,
            queue_cap: 128,
            shed_queue_full: 6,
            shed_expired: 4,
            shed_not_ready: 2,
            batcher_restarts: 1,
            request_timeout_ms: 10_000,
            chaos_injected_panics: 0,
            chaos_corrupted_publishes: 0,
        };
        let health: Value = serde_json::from_str(&health_response(&stats)).unwrap();
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(health.get("sessions").and_then(Value::as_usize), Some(2));
        assert_eq!(health.get("evictions").and_then(Value::as_usize), Some(3));
        assert_eq!(health.get("queue_cap").and_then(Value::as_usize), Some(128));
        assert_eq!(health.get("restarts").and_then(Value::as_usize), Some(1));
        let shed = health.get("shed").expect("shed object");
        assert_eq!(shed.get("queue_full").and_then(Value::as_usize), Some(6));
        assert_eq!(shed.get("expired").and_then(Value::as_usize), Some(4));
        assert_eq!(shed.get("not_ready").and_then(Value::as_usize), Some(2));

        // Not-ready flips the status string for probes that only look there.
        let tripped = StatsSnapshot {
            ready: false,
            ..stats
        };
        let health: Value = serde_json::from_str(&health_response(&tripped)).unwrap();
        assert_eq!(
            health.get("status").and_then(Value::as_str),
            Some("not_ready")
        );

        // Stats v3: top-level schema_version/build, the ledger under
        // `aggregate`, and a per-lane breakdown.
        let lanes = [
            LaneStats {
                lane: 0,
                snapshot: 1,
                ready: true,
                queue_depth: 0,
                queue_cap: 64,
                served: 6,
                batches: 2,
                history_memo_hits: 5,
                history_memo_misses: 8,
                shed_queue_full: 6,
                shed_expired: 4,
                shed_not_ready: 2,
                restarts: 1,
                sessions_live: 2,
                injected_panics: 0,
            },
            LaneStats {
                lane: 1,
                snapshot: 1,
                ready: false,
                queue_cap: 64,
                served: 4,
                batches: 1,
                ..LaneStats::default()
            },
        ];
        let v3: Value = serde_json::from_str(&stats_response(&stats, &lanes)).unwrap();
        assert_eq!(v3.get("schema_version").and_then(Value::as_usize), Some(3));
        let build = v3.get("build").expect("build object");
        assert_eq!(
            build.get("kernel_tier").and_then(Value::as_str),
            Some(tspn_tensor::kernel_tier())
        );
        assert!(build.get("threads").and_then(Value::as_usize).unwrap() >= 1);
        let agg = v3.get("aggregate").expect("aggregate object");
        let served = agg.get("served").expect("served object");
        assert_eq!(served.get("total").and_then(Value::as_usize), Some(10));
        assert_eq!(served.get("v1_predict").and_then(Value::as_usize), Some(7));
        assert_eq!(
            served.get("session_predict").and_then(Value::as_usize),
            Some(3)
        );
        // The endpoint counters partition the total; the v2
        // index-addressed counter is gone.
        assert!(served.get("legacy_predict").is_none());
        let sessions = agg.get("sessions").expect("sessions object");
        assert_eq!(sessions.get("live").and_then(Value::as_usize), Some(2));
        assert_eq!(
            sessions.get("ttl_ms").and_then(Value::as_usize),
            Some(1_000)
        );
        let overload = agg.get("overload").expect("overload object");
        assert_eq!(
            overload.get("shed_queue_full").and_then(Value::as_usize),
            Some(6)
        );
        assert_eq!(overload.get("restarts").and_then(Value::as_usize), Some(1));
        assert_eq!(
            overload.get("request_timeout_ms").and_then(Value::as_usize),
            Some(10_000)
        );
        let chaos = agg.get("chaos").expect("chaos object");
        assert_eq!(
            chaos.get("injected_panics").and_then(Value::as_usize),
            Some(0)
        );
        assert_eq!(
            agg.get("history_memo_hits").and_then(Value::as_usize),
            Some(5)
        );
        assert_eq!(
            agg.get("history_memo_misses").and_then(Value::as_usize),
            Some(8)
        );
        assert!(agg.get("build").is_none(), "build is top-level in v3");
        let lanes_arr = v3.get("lanes").and_then(Value::as_array).expect("lanes");
        assert_eq!(lanes_arr.len(), 2);
        assert_eq!(lanes_arr[0].get("lane").and_then(Value::as_usize), Some(0));
        assert_eq!(
            lanes_arr[0]
                .get("shed")
                .and_then(|s| s.get("queue_full"))
                .and_then(Value::as_usize),
            Some(6)
        );
        assert_eq!(
            lanes_arr[0]
                .get("history_memo_misses")
                .and_then(Value::as_usize),
            Some(8)
        );
        assert_eq!(
            lanes_arr[1].get("ready").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(
            lanes_arr[1].get("served").and_then(Value::as_usize),
            Some(4)
        );

        // Topology introspection parses and escapes addresses.
        let topo: Value = serde_json::from_str(&topology_response(
            "backend",
            2,
            "fnv1a64",
            1,
            2,
            &["127.0.0.1:7878".to_string(), "127.0.0.1:7879".to_string()],
        ))
        .unwrap();
        assert_eq!(topo.get("mode").and_then(Value::as_str), Some("backend"));
        assert_eq!(topo.get("lanes").and_then(Value::as_usize), Some(2));
        assert_eq!(
            topo.get("shard_fn").and_then(Value::as_str),
            Some("fnv1a64")
        );
        assert_eq!(topo.get("shard_index").and_then(Value::as_usize), Some(1));
        assert_eq!(topo.get("shard_count").and_then(Value::as_usize), Some(2));
        let backends = topo.get("backends").and_then(Value::as_array).unwrap();
        assert_eq!(backends.len(), 2);
        assert_eq!(backends[0].as_str(), Some("127.0.0.1:7878"));

        let session: Value = serde_json::from_str(&session_created_response(3, 8, 0, 900)).unwrap();
        assert_eq!(session.get("session").and_then(Value::as_str), Some("s3"));

        // Typed error bodies parse and echo control characters safely.
        let err: Value = serde_json::from_str(&error_response("gone", "bad \"thing\"")).unwrap();
        let (code, message) = error_of(&err).expect("typed error");
        assert_eq!(code, "gone");
        assert_eq!(message, "bad \"thing\"");
        let tricky = error_response("not_found", "no route GET /\u{7f}\n");
        let parsed: Value = serde_json::from_str(&tricky).unwrap();
        assert_eq!(
            error_of(&parsed).unwrap().1,
            "no route GET /\u{7f}\n".to_string()
        );
    }

    #[test]
    fn stats_and_topology_roundtrip_through_their_parsers() {
        let s = StatsSnapshot {
            snapshot: 3,
            published: 4,
            served: 10,
            served_v1: 8,
            served_session: 2,
            batches: 7,
            history_memo_hits: 14,
            history_memo_misses: 15,
            queue: 1,
            sessions_live: 2,
            sessions_created: 6,
            session_appends: 9,
            sessions_expired: 1,
            sessions_evicted: 1,
            session_ttl_ms: 900_000,
            session_capacity: 4096,
            ready: true,
            queue_cap: 1024,
            shed_queue_full: 11,
            shed_expired: 12,
            shed_not_ready: 13,
            batcher_restarts: 2,
            request_timeout_ms: 10_000,
            chaos_injected_panics: 1,
            chaos_corrupted_publishes: 0,
        };
        // Rendering the v3 aggregate block -> parse_stats is the identity.
        let lane = LaneStats {
            lane: 1,
            snapshot: 3,
            ready: false,
            queue_depth: 2,
            queue_cap: 8,
            served: 5,
            batches: 4,
            history_memo_hits: 6,
            history_memo_misses: 7,
            shed_queue_full: 1,
            shed_expired: 0,
            shed_not_ready: 3,
            restarts: 2,
            sessions_live: 1,
            injected_panics: 2,
        };
        let v3: Value = serde_json::from_str(&stats_response(&s, &[lane])).unwrap();
        let agg_json = v3.get("aggregate").unwrap();
        assert!(agg_json
            .get("served")
            .unwrap()
            .get("legacy_predict")
            .is_none());
        let agg = parse_stats(agg_json).expect("aggregate parse");
        assert_eq!(format!("{agg:?}"), format!("{s:?}"));
        assert_eq!(agg.served, agg.served_v1 + agg.served_session);
        let lanes = v3.get("lanes").and_then(Value::as_array).unwrap();
        let lane_back = parse_lane_stats(&lanes[0]).expect("lane parse");
        assert_eq!(format!("{lane_back:?}"), format!("{lane:?}"));
        // A v3 answer from before the memo counters parses them as 0.
        let mut old_lane = lanes[0].clone();
        if let Value::Object(fields) = &mut old_lane {
            fields.retain(|(k, _)| !k.starts_with("history_memo_"));
        }
        let old_back = parse_lane_stats(&old_lane).expect("pre-counter lane parse");
        assert_eq!(
            (old_back.history_memo_hits, old_back.history_memo_misses),
            (0, 0)
        );
        assert_eq!(old_back.batches, lane.batches);

        // Merging sums counters, ANDs readiness, keeps config from `a`.
        let merged = merge_stats(&s, &agg);
        assert_eq!(merged.served, 20);
        assert_eq!(merged.served, merged.served_v1 + merged.served_session);
        assert_eq!(merged.shed_not_ready, 26);
        assert_eq!(merged.history_memo_hits, 28);
        assert_eq!(merged.history_memo_misses, 30);
        assert_eq!(merged.queue_cap, 1024);
        assert!(merged.ready);
        let mut not_ready = s;
        not_ready.ready = false;
        assert!(!merge_stats(&s, &not_ready).ready);

        // Topology answers round-trip too.
        let rendered = topology_response(
            "router",
            4,
            "fnv1a64",
            0,
            2,
            &["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
        );
        let topo = parse_topology(&serde_json::from_str(&rendered).unwrap()).expect("topology");
        assert_eq!(topo.mode, "router");
        assert_eq!(topo.lanes, 4);
        assert_eq!(topo.shard_count, 2);
        assert_eq!(topo.backends, vec!["127.0.0.1:1", "127.0.0.1:2"]);
    }
}
