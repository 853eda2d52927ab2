//! `serve_bench` — load generator and smoke driver for `tspn-serve`.
//!
//! ```text
//! # self-hosted: spin up an in-process server, drive it, merge metrics
//! cargo run --release -p tspn-bench --bin serve_bench -- --merge BENCH_3.json
//!
//! # CI smoke against an externally started `tspn-serve` process
//! cargo run --release -p tspn-bench --bin serve_bench -- \
//!     --addr 127.0.0.1:7878 --smoke --ckpt boot_ckpt.json
//! ```
//!
//! The load phase drives `--connections` (default 8) concurrent
//! keep-alive connections, `--requests` (default 50) payload-addressed
//! `/v1/predict` calls each (every dataset sample's raw check-in stream),
//! after one untimed warm-up round, and reports `serve_v1_p50_us` /
//! `serve_v1_p99_us` / `serve_v1_qps`.
//! `--merge` appends those metrics into an existing `perf_snapshot` JSON
//! so `perf_check` gates them alongside the training/evaluation timings,
//! plus one `serve_lane<i>_*` group per batcher lane read from the stats
//! view (report-only against pre-lane baselines). `--lanes N` shards the
//! self-hosted server into N batcher lanes.
//!
//! `--chaos` switches to the fault/overload harness instead of the load
//! phases: a self-hosted run arms the chaos layer itself (25 ms flush
//! delay, a 2-panic crash storm, an 8-deep admission queue); against
//! `--addr` the server is expected to have been booted with matching
//! `TSPN_SERVE_FAULT_*` knobs and `--max-queue-depth`. The phase drives
//! a blast of 1.5x the lane's capacity with slow-writer and
//! kill-mid-flight connections
//! and asserts: no hang, every response a typed answer or typed shed,
//! accepted p99 <= 3x the calm p99, and post-chaos predictions bitwise
//! identical to the offline `Predictor` reference. Chaos counters merge
//! as `serve_chaos_*` metrics (report-only against older baselines).
//!
//! `--smoke` additionally asserts protocol correctness: `/healthz`,
//! stats schema v3, valid and *bitwise-reference-identical* top-k
//! answers on the payload and session endpoints, the full session
//! lifecycle (create → append → predict → delete → gone, plus TTL
//! expiry when `--session-ttl-ms` names the server's TTL), a session
//! check-in at an already-visited POI that must hit the history memo
//! (summed `history_memo_hits` rises) and stay bitwise, typed-error
//! statuses (404/405/410/422), `/admin/reload` hot-swap (with `--ckpt`),
//! and rejection of corrupt checkpoints.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use tspn_core::{Predictor, Query, SpatialContext, TspnConfig};
use tspn_data::synth::{generate_dataset, SynthConfig};
use tspn_data::{AdHocTrajectory, LbsnDataset, PoiId, Sample, UserId, Visit, DEFAULT_GAP_SECS};
use tspn_serve::client::RetryPolicy;
use tspn_serve::shard::shard_of_content;
use tspn_serve::{
    protocol, server, BatchConfig, ChaosConfig, Client, ServerConfig, ServerHandle, SessionConfig,
};

struct Args {
    addr: Option<String>,
    connections: usize,
    requests: usize,
    smoke: bool,
    chaos: bool,
    merge: Option<String>,
    preset: String,
    scale: f64,
    days: usize,
    ckpt: Option<String>,
    session_ttl_ms: Option<u64>,
    lanes: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--addr HOST:PORT] [--connections N] [--requests N] [--smoke] \
         [--chaos] [--merge SNAPSHOT.json] [--preset P] [--scale F] [--days N] [--ckpt FILE] \
         [--session-ttl-ms N] [--lanes N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        addr: None,
        connections: 8,
        requests: 50,
        smoke: false,
        chaos: false,
        merge: None,
        preset: "nyc".into(),
        scale: 0.15,
        days: 12,
        ckpt: None,
        session_ttl_ms: None,
        lanes: 1,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => args.addr = Some(value(&mut i)),
            "--connections" => {
                args.connections = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--requests" => args.requests = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--smoke" => args.smoke = true,
            "--chaos" => args.chaos = true,
            "--merge" => args.merge = Some(value(&mut i)),
            "--preset" => args.preset = value(&mut i),
            "--scale" => args.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--days" => args.days = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--ckpt" => args.ckpt = Some(value(&mut i)),
            "--session-ttl-ms" => {
                args.session_ttl_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--lanes" => {
                args.lanes = value(&mut i)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn preset_config(name: &str, scale: f64) -> SynthConfig {
    tspn_serve::preset_dataset_config(name, scale).unwrap_or_else(|| {
        eprintln!("unknown preset {name:?}");
        usage()
    })
}

/// The dataset/model the server serves, regenerated deterministically so
/// this process can address samples and build a bitwise reference.
fn build_context(args: &Args) -> (TspnConfig, SpatialContext) {
    let mut dcfg = preset_config(&args.preset, args.scale);
    dcfg.days = args.days;
    let model_cfg = tspn_serve::default_model_config();
    let (ds, world) = generate_dataset(dcfg);
    let ctx = SpatialContext::build(ds, world, &model_cfg);
    (model_cfg, ctx)
}

/// The `/v1/predict` body carrying a sample's raw check-in stream; the
/// server answers it bitwise like the offline `Query::with_top(s, 4, 10)`.
fn v1_body(ds: &LbsnDataset, s: &Sample) -> String {
    protocol::v1_predict_request_body(s.user_index, &ds.sample_checkins(s), 4, 10)
}

fn pois_of(v: &Value) -> Vec<PoiId> {
    protocol::pois_of(v).unwrap_or_else(|| panic!("predict answer without pois array: {v:?}"))
}

fn main() {
    let args = parse_args();
    let (model_cfg, ctx) = build_context(&args);
    let samples = ctx.dataset.all_samples();
    assert!(!samples.is_empty(), "dataset has no samples");
    println!(
        "serve_bench: dataset {} ({} samples, {} POIs)",
        ctx.dataset.name,
        samples.len(),
        ctx.dataset.pois.len()
    );

    // The v1 payload bodies need each sample's raw check-in stream;
    // render them from the first context now, before it is consumed, so
    // no path ever rebuilds the dataset just for the load phase.
    let v1_bodies: Vec<String> = samples.iter().map(|s| v1_body(&ctx.dataset, s)).collect();

    // The first context then feeds whichever consumer needs one: the
    // bitwise reference predictor (smoke only — the plain load/merge
    // path never needs the model) and then the self-hosted server; only
    // smoke + self-host genuinely needs a second build.
    let mut spare_ctx = Some(ctx);
    let reference = (args.smoke || args.chaos).then(|| {
        Predictor::new(
            model_cfg.clone(),
            spare_ctx.take().expect("first context unused"),
        )
    });

    // Self-host unless an external server was named. A self-hosted smoke
    // run shortens the session TTL so expiry is observable in seconds.
    let self_host_ttl_ms = args.session_ttl_ms.or_else(|| args.smoke.then_some(1_200));
    let (addr, hosted): (String, Option<ServerHandle>) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server_ctx = spare_ctx.take().unwrap_or_else(|| build_context(&args).1);
            let mut session = SessionConfig::default();
            if let Some(ttl_ms) = self_host_ttl_ms {
                session.ttl = Duration::from_millis(ttl_ms);
            }
            // A --chaos self-host arms the fault layer itself: the 25 ms
            // flush delay pins serving capacity (so the blast's overload is
            // arithmetic, not luck), the panic storm exercises the
            // supervisor, and the shallow queue guarantees typed sheds.
            let (batch, chaos) = if args.chaos {
                (
                    BatchConfig {
                        max_batch: 8,
                        queue_cap: 8,
                    },
                    ChaosConfig {
                        flush_delay: Some(Duration::from_millis(25)),
                        flush_panic_every: Some(5),
                        flush_panic_budget: Some(2),
                        ..ChaosConfig::default()
                    },
                )
            } else {
                (BatchConfig::default(), ChaosConfig::default())
            };
            let handle = server::start(
                ServerConfig {
                    batch,
                    chaos,
                    session,
                    lanes: args.lanes,
                    ..ServerConfig::default()
                },
                model_cfg.clone(),
                server_ctx,
                None,
            )
            .unwrap_or_else(|e| panic!("self-hosted server failed to start: {e}"));
            (handle.local_addr().to_string(), Some(handle))
        }
    };
    drop(spare_ctx);
    println!("serve_bench: driving {addr}");

    if args.smoke {
        // Expiry needs to know the server's TTL: explicit flag against an
        // external server, or the shortened TTL we just self-hosted with.
        let ttl_ms = match &args.addr {
            Some(_) => args.session_ttl_ms,
            None => self_host_ttl_ms,
        };
        let reference = reference.as_ref().expect("smoke builds a reference");
        smoke(&addr, reference, &samples, args.ckpt.as_deref(), ttl_ms);
    }

    if args.chaos {
        // Chaos replaces the load phase: a chaos-armed server's flush
        // delay would poison the serve_v1_* latency metrics.
        let reference = reference.as_ref().expect("chaos builds a reference");
        let report = chaos_phase(&addr, reference, &samples);
        if let Some(path) = &args.merge {
            merge_metrics(
                path,
                &[
                    ("serve_chaos_accepted_p99_us", report.accepted_p99_us, "us"),
                    ("serve_chaos_shed_total", report.sheds as f64, "count"),
                    ("serve_chaos_shed_rate", report.shed_rate, "frac"),
                    ("serve_chaos_restarts", report.restarts as f64, "count"),
                    (
                        "serve_chaos_injected_panics",
                        report.injected_panics as f64,
                        "count",
                    ),
                ],
            );
            println!("serve_bench: merged chaos metrics into {path}");
        }
        if let Some(handle) = hosted {
            handle.shutdown();
            handle.join();
        }
        println!("serve_bench: done");
        return;
    }

    // An untimed round first warms each lane's history memo, as the
    // retired index-addressed round did before every committed baseline's
    // serve_v1_* round, so the timed round measures the same steady state.
    let round = || load_phase(&addr, &v1_bodies, args.connections, args.requests);
    round();
    let (v1_p50_us, v1_p99_us, v1_qps, sheds) = round();
    println!("serve_v1_p50_us         {v1_p50_us:>12.1}");
    println!("serve_v1_p99_us         {v1_p99_us:>12.1}");
    println!("serve_v1_qps            {v1_qps:>12.1}");
    if sheds > 0 {
        println!("serve_shed_responses    {sheds:>12}");
    }

    if let Some(path) = &args.merge {
        let mut metrics: Vec<(String, f64, &str)> = vec![
            ("serve_v1_p50_us".into(), v1_p50_us, "us"),
            ("serve_v1_p99_us".into(), v1_p99_us, "us"),
            ("serve_v1_qps".into(), v1_qps, "qps"),
            ("serve_shed_responses".into(), sheds as f64, "count"),
        ];
        // Per-lane breakdown from the stats view: shard imbalance
        // shows up as `serve_lane<i>_served` skew long before it moves
        // the aggregate percentiles.
        metrics.extend(lane_metrics(&addr));
        let borrowed: Vec<(&str, f64, &str)> = metrics
            .iter()
            .map(|(name, value, unit)| (name.as_str(), *value, *unit))
            .collect();
        merge_metrics(path, &borrowed);
        println!("serve_bench: merged serve metrics into {path}");
    }

    if let Some(handle) = hosted {
        handle.shutdown();
        handle.join();
    }
    println!("serve_bench: done");
}

/// Protocol smoke: health, validity, bitwise identity across every
/// address mode, the session lifecycle, typed errors, hot swap, corrupt
/// rejection. Panics (non-zero exit) on any violation.
fn smoke(
    addr: &str,
    reference: &Predictor,
    samples: &[Sample],
    ckpt: Option<&str>,
    session_ttl_ms: Option<u64>,
) {
    let mut client = Client::connect(addr).expect("smoke: connect");

    // Health.
    let (status, text) = client.get("/healthz").expect("smoke: healthz I/O");
    assert_eq!(status, 200, "healthz failed: {text}");
    let health: Value = serde_json::from_str(&text).expect("healthz JSON");
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("ok"),
        "healthz body {text}"
    );
    assert_eq!(
        health.get("ready").and_then(Value::as_bool),
        Some(true),
        "healthz must report readiness: {text}"
    );
    assert!(
        health
            .get("queue_cap")
            .and_then(Value::as_usize)
            .unwrap_or(0)
            > 0,
        "healthz must report the admission queue cap: {text}"
    );
    let shed = health.get("shed").expect("healthz shed ledger");
    for field in ["queue_full", "expired", "not_ready"] {
        assert!(
            shed.get(field).and_then(Value::as_usize).is_some(),
            "healthz shed ledger missing {field}: {text}"
        );
    }
    assert!(
        health.get("restarts").and_then(Value::as_usize).is_some(),
        "healthz must report supervisor restarts: {text}"
    );

    // The stats endpoint carries the same ledger in structured form —
    // schema v3: build info at the top level, the fleet-wide counters
    // under `aggregate`, and one entry per batcher lane under `lanes`.
    let (status, text) = client.get("/v1/stats").expect("smoke: stats I/O");
    assert_eq!(status, 200, "stats failed: {text}");
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    assert_eq!(
        stats.get("schema_version").and_then(Value::as_usize),
        Some(3),
        "stats must declare schema v3: {text}"
    );
    let aggregate = stats.get("aggregate").expect("stats aggregate ledger");
    // The two predict endpoints partition the served total.
    let served = aggregate.get("served").expect("stats served counters");
    let count = |key: &str| num_of(served, &[key]);
    assert!(
        served.get("legacy_predict").is_none()
            && count("total") == count("v1_predict") + count("session_predict"),
        "stats v3 served total must be v1_predict + session_predict: {text}"
    );
    assert_eq!(
        aggregate.get("ready").and_then(Value::as_bool),
        Some(true),
        "stats must report readiness: {text}"
    );
    let overload = aggregate.get("overload").expect("stats overload ledger");
    for field in [
        "queue_cap",
        "shed_queue_full",
        "shed_expired",
        "shed_not_ready",
        "restarts",
        "request_timeout_ms",
    ] {
        assert!(
            overload.get(field).and_then(Value::as_usize).is_some(),
            "stats overload ledger missing {field}: {text}"
        );
    }
    let chaos = aggregate.get("chaos").expect("stats chaos counters");
    for field in ["injected_panics", "corrupted_publishes"] {
        assert!(
            chaos.get(field).and_then(Value::as_usize).is_some(),
            "stats chaos counters missing {field}: {text}"
        );
    }
    // Build info: the server must name the compute-kernel tier it
    // dispatched to, one of the tiers the tensor crate can select.
    let build = stats.get("build").expect("stats build info");
    let tier = build
        .get("kernel_tier")
        .and_then(Value::as_str)
        .expect("stats build info must name the kernel tier");
    assert!(
        tier == "avx2-fma" || tier == "scalar",
        "unknown kernel tier in stats: {tier}"
    );
    assert!(
        build.get("threads").and_then(Value::as_usize).unwrap_or(0) >= 1,
        "stats build info missing thread count: {text}"
    );
    // Every lane must be enumerated, in order, with its own ledger.
    let lanes = stats
        .get("lanes")
        .and_then(Value::as_array)
        .expect("stats lanes array");
    assert!(
        !lanes.is_empty(),
        "stats must list at least one lane: {text}"
    );
    for (i, lane) in lanes.iter().enumerate() {
        assert_eq!(
            lane.get("lane").and_then(Value::as_usize),
            Some(i),
            "lane entries must be ordered by index: {text}"
        );
        assert!(
            protocol::parse_lane_stats(lane).is_some(),
            "lane entry {i} does not parse as LaneStats: {text}"
        );
    }

    // If a known-good checkpoint was provided, hot-swap it in and align
    // the local reference to it; a fresh server is already aligned.
    if let Some(path) = ckpt {
        let body = format!("{{\"path\":{path:?}}}");
        let (status, text) = client
            .post("/admin/reload", &body)
            .expect("smoke: reload I/O");
        assert_eq!(status, 200, "reload of {path} failed: {text}");
        let text = std::fs::read_to_string(path).expect("smoke: read ckpt");
        let parsed = serde_json::from_str(&text).expect("smoke: parse ckpt");
        reference
            .load_checkpoint(&parsed)
            .expect("smoke: reference load");
        println!("serve_bench: hot-swapped {path}");
    }

    // Valid + bitwise-identical top-k answers: a sample's raw check-in
    // stream must reproduce the offline index-addressed ranking exactly.
    let ds = &reference.ctx().dataset;
    for (i, s) in samples.iter().take(5).enumerate() {
        let (status, text) = client
            .post("/v1/predict", &v1_body(ds, s))
            .expect("smoke: v1 predict I/O");
        assert_eq!(status, 200, "v1 predict {i} failed: {text}");
        let v: Value = serde_json::from_str(&text).expect("v1 predict JSON");
        let served = pois_of(&v);
        assert!(!served.is_empty(), "empty top-k for {s:?}");
        let mut unique: Vec<usize> = served.iter().map(|p| p.0).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), served.len(), "duplicate POIs in top-k");
        let offline = reference.predict_one(&Query::with_top(*s, 4, 10));
        assert_eq!(
            served, offline.pois,
            "payload-addressed ranking diverged from offline predict"
        );
    }
    println!("serve_bench: v1-payload top-k answers bitwise-identical to offline predict");

    smoke_sessions(&mut client, reference, samples, session_ttl_ms);
    smoke_session_revisit(&mut client, reference, samples);
    smoke_typed_errors(&mut client, reference);

    // Corrupt checkpoints must be rejected (400) and leave serving intact.
    let corrupt =
        std::env::temp_dir().join(format!("serve-bench-corrupt-{}.json", std::process::id()));
    std::fs::write(&corrupt, "{ definitely not a checkpoint").expect("write corrupt file");
    let body = format!("{{\"path\":{:?}}}", corrupt.display().to_string());
    let (status, text) = client
        .post("/admin/reload", &body)
        .expect("smoke: corrupt reload I/O");
    assert_eq!(status, 400, "corrupt checkpoint accepted: {text}");
    std::fs::remove_file(&corrupt).ok();
    let s = samples[0];
    let (status, text) = client
        .post("/v1/predict", &v1_body(ds, &s))
        .expect("smoke I/O");
    assert_eq!(
        status, 200,
        "server unhealthy after rejected reload: {text}"
    );
    let v: Value = serde_json::from_str(&text).expect("predict JSON");
    assert_eq!(
        pois_of(&v),
        reference.predict_one(&Query::with_top(s, 4, 10)).pois,
        "old snapshot not serving after rejected reload"
    );
    println!("serve_bench: corrupt checkpoint rejected; old snapshot kept serving");
}

/// Session-lifecycle smoke: create → append → predict (bitwise vs the
/// indexed reference at every prefix) → repeat-predict (memoised) →
/// delete → gone, plus TTL expiry when the server's TTL is known.
fn smoke_sessions(
    client: &mut Client,
    reference: &Predictor,
    samples: &[Sample],
    session_ttl_ms: Option<u64>,
) {
    let ds = &reference.ctx().dataset;
    // A sample with real history and a multi-visit prefix exercises the
    // gap re-split and the incremental appends.
    let s = *samples
        .iter()
        .find(|s| s.traj_index > 0 && s.prefix_len >= 2)
        .unwrap_or(&samples[0]);
    let stream = ds.sample_checkins(&s);
    let history = &stream[..stream.len() - s.prefix_len];
    let prefix = &stream[stream.len() - s.prefix_len..];

    let (status, text) = client
        .post(
            "/v1/sessions",
            &protocol::session_create_body(s.user_index, history),
        )
        .expect("smoke: session create I/O");
    assert_eq!(status, 200, "session create failed: {text}");
    let v: Value = serde_json::from_str(&text).expect("session create JSON");
    let id = v
        .get("session")
        .and_then(Value::as_str)
        .expect("session id")
        .to_string();

    // Append the current trajectory one visit at a time; after the j-th
    // append the session equals sample (user, traj, j) exactly.
    for j in 1..=prefix.len() {
        let (status, text) = client
            .post(
                &format!("/v1/sessions/{id}/checkins"),
                &protocol::session_append_body(&prefix[j - 1..j]),
            )
            .expect("smoke: append I/O");
        assert_eq!(status, 200, "append {j} failed: {text}");
        let (status, text) = client
            .post(
                &format!("/v1/sessions/{id}/predict"),
                "{\"k\":4,\"top\":10}",
            )
            .expect("smoke: session predict I/O");
        assert_eq!(status, 200, "session predict {j} failed: {text}");
        let v: Value = serde_json::from_str(&text).expect("session predict JSON");
        let indexed = Sample { prefix_len: j, ..s };
        let offline = reference.predict_one(&Query::with_top(indexed, 4, 10));
        assert_eq!(
            pois_of(&v),
            offline.pois,
            "session predict after {j} appends diverged from the indexed reference"
        );
    }
    // Re-predicting an unchanged session reuses the memoised history
    // encoding; the ranking must be bitwise identical (only the batch
    // sequence number may differ).
    let (_, first) = client
        .post(
            &format!("/v1/sessions/{id}/predict"),
            "{\"k\":4,\"top\":10}",
        )
        .expect("smoke: repeat predict I/O");
    let (_, second) = client
        .post(
            &format!("/v1/sessions/{id}/predict"),
            "{\"k\":4,\"top\":10}",
        )
        .expect("smoke: repeat predict I/O");
    let first: Value = serde_json::from_str(&first).expect("predict JSON");
    let second: Value = serde_json::from_str(&second).expect("predict JSON");
    assert_eq!(
        pois_of(&first),
        pois_of(&second),
        "repeated session predictions must agree"
    );

    // Delete → gone.
    let (status, _) = client
        .request("DELETE", &format!("/v1/sessions/{id}"), None)
        .expect("smoke: delete I/O");
    assert_eq!(status, 200, "session delete failed");
    let (status, text) = client
        .post(&format!("/v1/sessions/{id}/predict"), "{}")
        .expect("smoke: gone I/O");
    assert_eq!(status, 410, "deleted session should be 410, got {text}");
    println!(
        "serve_bench: session create→append→predict→delete lifecycle ok (bitwise vs reference)"
    );

    // TTL expiry (only when the server's TTL is known and waitable).
    if let Some(ttl_ms) = session_ttl_ms.filter(|&t| t <= 10_000) {
        let (status, text) = client
            .post(
                "/v1/sessions",
                &protocol::session_create_body(s.user_index, &stream[..1]),
            )
            .expect("smoke: expiry create I/O");
        assert_eq!(status, 200, "{text}");
        let v: Value = serde_json::from_str(&text).expect("session JSON");
        let idle = v
            .get("session")
            .and_then(Value::as_str)
            .expect("session id")
            .to_string();
        std::thread::sleep(Duration::from_millis(ttl_ms + 400));
        let (status, text) = client
            .post(&format!("/v1/sessions/{idle}/predict"), "{}")
            .expect("smoke: expired I/O");
        assert_eq!(status, 410, "expired session should be 410, got {text}");
        println!("serve_bench: idle session expired after ~{ttl_ms} ms (410 gone)");
    }
}

/// Summed `history_memo_hits` over every lane the server (or, behind a
/// router, the fleet) reports.
fn memo_hits(client: &mut Client) -> u64 {
    let (status, text) = client.get("/v1/stats").expect("smoke: stats I/O");
    assert_eq!(status, 200, "stats failed: {text}");
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    num_of(&stats, &["aggregate", "history_memo_hits"])
}

/// Revisit smoke: a session check-in at a POI the session already holds
/// leaves its history's QR-P graph unchanged, so the next predict reuses
/// the memoised history encoding (the summed `history_memo_hits` rises)
/// and is still bitwise the offline reference's cold answer.
///
/// The session starts from a short run of a sample's check-ins. Each
/// append is a day past the trajectory gap, so the visit before it joins
/// the history: the first append turns the seed run into the history,
/// the second adds a revisit of the seed's first POI to it.
fn smoke_session_revisit(client: &mut Client, reference: &Predictor, samples: &[Sample]) {
    let ds = &reference.ctx().dataset;
    let s = samples[0];
    let stream = ds.sample_checkins(&s);
    let mut visits: Vec<Visit> = stream[..stream.len().min(4)].to_vec();
    let (status, text) = client
        .post(
            "/v1/sessions",
            &protocol::session_create_body(s.user_index, &visits),
        )
        .expect("smoke: revisit create I/O");
    assert_eq!(status, 200, "revisit session create failed: {text}");
    let v: Value = serde_json::from_str(&text).expect("session create JSON");
    let id = v
        .get("session")
        .and_then(Value::as_str)
        .expect("session id")
        .to_string();
    let step = |client: &mut Client, visits: &mut Vec<Visit>| {
        let revisit = Visit {
            poi: visits[0].poi,
            time: visits[visits.len() - 1].time + DEFAULT_GAP_SECS + 86_400,
        };
        visits.push(revisit);
        let (status, text) = client
            .post(
                &format!("/v1/sessions/{id}/checkins"),
                &protocol::session_append_body(&[revisit]),
            )
            .expect("smoke: revisit append I/O");
        assert_eq!(status, 200, "revisit append failed: {text}");
        let before = memo_hits(client);
        let (status, text) = client
            .post(
                &format!("/v1/sessions/{id}/predict"),
                "{\"k\":4,\"top\":10}",
            )
            .expect("smoke: revisit predict I/O");
        assert_eq!(status, 200, "revisit predict failed: {text}");
        let v: Value = serde_json::from_str(&text).expect("session predict JSON");
        // The reference encodes from scratch.
        reference.model().clear_cache();
        let trajectory =
            AdHocTrajectory::from_checkins(UserId(s.user_index), visits, DEFAULT_GAP_SECS)
                .expect("smoke: revisit stream is ordered");
        let offline = reference.predict_one(&Query::adhoc(Arc::new(trajectory), 4, 10));
        assert_eq!(
            pois_of(&v),
            offline.pois,
            "session predict after a revisit diverged from the offline reference"
        );
        memo_hits(client) - before
    };
    // The seed run becomes the history.
    step(client, &mut visits);
    // The history gains a revisit of a POI it holds: the same graph.
    let hits = step(client, &mut visits);
    assert!(
        hits >= 1,
        "a session predict whose history only gained a revisit missed the history memo"
    );
    let (status, _) = client
        .request("DELETE", &format!("/v1/sessions/{id}"), None)
        .expect("smoke: revisit delete I/O");
    assert_eq!(status, 200, "revisit session delete failed");
    println!("serve_bench: session revisit reused the history encoding (bitwise vs reference)");
}

/// Typed-error smoke: each status class answers with its code and the
/// keep-alive connection survives every rejection.
fn smoke_typed_errors(client: &mut Client, reference: &Predictor) {
    let expect = |client: &mut Client,
                  method: &str,
                  path: &str,
                  body: Option<&str>,
                  status: u16,
                  code: &str| {
        let (got, text) = client
            .request(method, path, body)
            .expect("smoke: error I/O");
        assert_eq!(got, status, "{method} {path} should be {status}: {text}");
        let v: Value = serde_json::from_str(&text).expect("typed error JSON");
        let (got_code, _) = protocol::error_of(&v).expect("typed error body");
        assert_eq!(got_code, code, "{method} {path} error code");
    };
    expect(client, "GET", "/nope", None, 404, "not_found");
    expect(
        client,
        "GET",
        "/v1/predict",
        None,
        405,
        "method_not_allowed",
    );
    expect(
        client,
        "POST",
        "/healthz",
        Some("{}"),
        405,
        "method_not_allowed",
    );
    expect(
        client,
        "POST",
        "/v1/predict",
        Some("{oops"),
        400,
        "bad_request",
    );
    // 60 000 nested `[` fit under the body limit; a parser without a
    // depth bound overflows its thread's stack on them and aborts.
    expect(
        client,
        "POST",
        "/v1/predict",
        Some(&"[".repeat(60_000)),
        400,
        "bad_request",
    );
    expect(
        client,
        "POST",
        "/v1/predict",
        Some("{\"user\":0,\"checkins\":[]}"),
        422,
        "unprocessable",
    );
    let vocab = reference.ctx().dataset.pois.len();
    expect(
        client,
        "POST",
        "/v1/predict",
        Some(&format!(
            "{{\"user\":0,\"checkins\":[{{\"poi\":{vocab},\"t\":0}}]}}"
        )),
        422,
        "unprocessable",
    );
    expect(
        client,
        "POST",
        "/v1/sessions/s999999/predict",
        Some("{}"),
        404,
        "not_found",
    );
    println!("serve_bench: typed errors (400/404/405/410/422) all answer with their codes");
}

/// Drives the load: `connections` threads, `requests` keep-alive POSTs
/// of `bodies` (round-robin) to `/v1/predict`, through the retrying
/// client so a transient shed backs off and is counted instead of
/// failing the run;
/// returns `(p50_us, p99_us, qps, sheds)` from client-observed latencies
/// of accepted (200) answers.
fn load_phase(
    addr: &str,
    bodies: &[String],
    connections: usize,
    requests: usize,
) -> (f64, f64, f64, usize) {
    assert!(connections >= 1 && requests >= 1 && !bodies.is_empty());
    let started = Instant::now();
    let per_conn: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..connections {
            let addr = addr.to_string();
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("load: connect");
                let mut lat = Vec::with_capacity(requests);
                let mut sheds = 0usize;
                for r in 0..requests {
                    let body = &bodies[(c * requests + r) % bodies.len()];
                    let t0 = Instant::now();
                    let resp = client
                        .request_with_retry(
                            "POST",
                            "/v1/predict",
                            Some(body),
                            RetryPolicy::default(),
                        )
                        .expect("load: predict I/O");
                    let dt = t0.elapsed();
                    match resp.status {
                        200 => lat.push(dt.as_micros() as u64),
                        // Retries exhausted against a still-shedding
                        // server: counted, not fatal.
                        429 | 503 => sheds += 1,
                        other => panic!("load predict failed ({other}): {}", resp.body),
                    }
                }
                (lat, sheds)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("load client thread"))
            .collect()
    });
    let wall = started.elapsed().max(Duration::from_micros(1));
    let sheds: usize = per_conn.iter().map(|(_, s)| *s).sum();
    let mut latencies: Vec<u64> = per_conn.into_iter().flat_map(|(l, _)| l).collect();
    assert!(
        !latencies.is_empty(),
        "load phase: every request was shed — server permanently overloaded?"
    );
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx] as f64
    };
    (
        pct(0.50),
        pct(0.99),
        latencies.len() as f64 / wall.as_secs_f64(),
        sheds,
    )
}

/// What the chaos phase observed (merged as `serve_chaos_*` metrics).
struct ChaosReport {
    accepted_p99_us: f64,
    sheds: usize,
    shed_rate: f64,
    restarts: u64,
    injected_panics: u64,
}

fn num_of(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"));
    }
    cur.as_usize()
        .unwrap_or_else(|| panic!("non-numeric field {path:?} in {v:?}")) as u64
}

/// The overload/fault harness. The server is expected to be chaos-armed
/// (self-hosted `--chaos` arms it; an external server needs the
/// `TSPN_SERVE_FAULT_*` knobs). Four stages:
///
/// 1. **Storm drain** — sequential predicts until the injected panic
///    budget is spent (10 consecutive accepted answers). Every response
///    on the way must be *typed* (200/429/500/503) — never a reset.
/// 2. **Calm baseline** — sequential accepted p99.
/// 3. **Blast** — 24 concurrent connections: 1.5x what the lane can hold
///    (its 8-deep queue plus its in-flight batch of 8), so 8 requests are
///    over capacity at every moment and sheds follow from arithmetic, not
///    timing. (At 16, exactly the capacity, a closed loop can settle into
///    a perfect fit that never sheds.) Alongside it run
///    slow-writer connections (one header byte per 50 ms — must still be
///    answered) and kill-mid-flight connections (request sent, socket
///    dropped — must not wedge a handler). Accepted p99 must stay within
///    3x calm; sheds must be typed 429/503 with Retry-After.
/// 4. **Recovery** — the queue drains, `/healthz` reports ready, and a
///    fresh prediction is bitwise-identical to the offline reference.
fn chaos_phase(addr: &str, reference: &Predictor, samples: &[Sample]) -> ChaosReport {
    let mut client = Client::connect(addr).expect("chaos: connect");

    // Pin the driven payload to lane 0 of whatever the server reports via
    // `/v1/topology` (payloads shard on content): CI faults exactly lane 0 (`TSPN_SERVE_FAULT_LANE=0`)
    // and a self-hosted run faults every lane, so lane 0 is always a
    // faulted lane and the storm is guaranteed to meet the injected
    // panics rather than sailing past them on an unfaulted shard.
    let lanes = client
        .get("/v1/topology")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, text)| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| protocol::parse_topology(&v))
        .map(|t| t.lanes.max(1))
        .unwrap_or(1);
    let ds = &reference.ctx().dataset;
    let on_lane0 = |s: &&Sample| shard_of_content(s.user_index, &ds.sample_checkins(s), lanes) == 0;
    let s = *samples.iter().find(on_lane0).unwrap_or(&samples[0]);
    let body = v1_body(ds, &s);

    // Stage 1: storm drain.
    let mut consecutive_ok = 0usize;
    let mut storm_typed_errors = 0usize;
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while consecutive_ok < 10 {
        assert!(
            Instant::now() < drain_deadline,
            "chaos: server never settled after its crash storm"
        );
        let resp = client
            .request_full("POST", "/v1/predict", Some(&body))
            .expect("chaos: storm response must be typed, not a reset");
        match resp.status {
            200 => consecutive_ok += 1,
            429 | 500 | 503 => {
                let v: Value = serde_json::from_str(&resp.body)
                    .unwrap_or_else(|e| panic!("chaos: untyped body {:?}: {e}", resp.body));
                protocol::error_of(&v).expect("chaos: typed error body");
                storm_typed_errors += 1;
                consecutive_ok = 0;
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("chaos: unexpected storm status {other}"),
        }
    }
    println!("serve_bench: chaos storm drained ({storm_typed_errors} typed errors, 0 resets)");

    // Stage 2: calm baseline.
    let mut calm: Vec<u64> = (0..12)
        .map(|_| {
            let t0 = Instant::now();
            let resp = client
                .request_full("POST", "/v1/predict", Some(&body))
                .expect("chaos: calm I/O");
            assert_eq!(resp.status, 200, "calm predict shed: {}", resp.body);
            t0.elapsed().as_micros() as u64
        })
        .collect();
    calm.sort_unstable();
    let calm_p99 = calm[calm.len() - 1];

    // Stage 3: blast.
    let connections = 24usize;
    let per_conn = 12usize;
    let outcomes: Vec<(u16, u64)> = std::thread::scope(|scope| {
        // Kill-mid-flight: send a request, drop the socket unread.
        for _ in 0..4 {
            let addr = addr.to_string();
            let body = body.clone();
            scope.spawn(move || {
                for _ in 0..3 {
                    if let Ok(mut stream) = std::net::TcpStream::connect(&addr) {
                        let head = format!(
                            "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        use std::io::Write;
                        let _ = stream.write_all(head.as_bytes());
                        let _ = stream.write_all(body.as_bytes());
                        // Dropped here: the server's answer hits a dead
                        // socket and must not wedge the handler.
                    }
                    std::thread::sleep(Duration::from_millis(40));
                }
            });
        }
        // Slow writers: one header byte per 50 ms — slower than a healthy
        // client, faster than the server's read timeout, so they must be
        // answered, not dropped.
        let slow_joins: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.to_string();
                let body = body.clone();
                scope.spawn(move || {
                    let mut stream =
                        std::net::TcpStream::connect(&addr).expect("chaos: slow connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("slow read timeout");
                    use std::io::{Read, Write};
                    let head = format!(
                        "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let bytes = head.as_bytes();
                    // Trickle the first 40 bytes, then complete.
                    for chunk in bytes[..40.min(bytes.len())].chunks(1) {
                        stream.write_all(chunk).expect("chaos: slow write");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    stream
                        .write_all(&bytes[40.min(bytes.len())..])
                        .expect("chaos: slow finish");
                    let mut buf = [0u8; 4096];
                    let n = stream.read(&mut buf).expect("chaos: slow read");
                    assert!(n > 0, "slow client got EOF instead of an answer");
                    let text = String::from_utf8_lossy(&buf[..n]);
                    assert!(
                        text.starts_with("HTTP/1.1 "),
                        "slow client got a non-HTTP answer: {text:?}"
                    );
                })
            })
            .collect();
        // The blast proper.
        let mut joins = Vec::new();
        for _ in 0..connections {
            let addr = addr.to_string();
            let body = body.clone();
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("chaos: blast connect");
                let mut out = Vec::new();
                for _ in 0..per_conn {
                    let t0 = Instant::now();
                    let resp = client
                        .request_full("POST", "/v1/predict", Some(&body))
                        .expect("chaos: blast response must be typed, not a reset");
                    let us = t0.elapsed().as_micros() as u64;
                    if resp.status != 200 {
                        let v: Value = serde_json::from_str(&resp.body)
                            .unwrap_or_else(|e| panic!("untyped shed {:?}: {e}", resp.body));
                        protocol::error_of(&v).expect("typed shed body");
                        assert!(
                            resp.retry_after.is_some() || resp.status == 500,
                            "shed without Retry-After: {}",
                            resp.body
                        );
                    }
                    out.push((resp.status, us));
                }
                out
            }));
        }
        for j in slow_joins {
            j.join().expect("chaos: slow client");
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("chaos: blast client"))
            .collect()
    });

    let mut accepted: Vec<u64> = Vec::new();
    let mut sheds = 0usize;
    for (status, us) in &outcomes {
        match status {
            200 => accepted.push(*us),
            429 | 503 => sheds += 1,
            500 => sheds += 1, // a late injected panic still counts as typed
            other => panic!("chaos: unexpected blast status {other}"),
        }
    }
    assert!(sheds > 0, "chaos: 1.5x-capacity blast never shed a request");
    assert!(!accepted.is_empty(), "chaos: blast starved every request");
    accepted.sort_unstable();
    let accepted_p99 = accepted[(accepted.len() - 1) * 99 / 100];
    assert!(
        accepted_p99 <= calm_p99 * 3,
        "chaos: accepted p99 {accepted_p99}us exceeds 3x calm p99 {calm_p99}us"
    );
    let shed_rate = sheds as f64 / outcomes.len() as f64;
    println!(
        "serve_bench: chaos blast: {} accepted (p99 {accepted_p99} us <= 3x calm {calm_p99} us), \
         {sheds} typed sheds ({:.0}%)",
        accepted.len(),
        shed_rate * 100.0
    );

    // Stage 4: recovery.
    let recover_deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        // The stats aggregate sums every lane's queue/readiness, which is
        // exactly the fleet-wide recovery question being asked here.
        let (status, text) = client.get("/v1/stats").expect("chaos: stats I/O");
        assert_eq!(status, 200);
        let stats: Value = serde_json::from_str(&text).expect("stats JSON");
        let aggregate = stats.get("aggregate").cloned().expect("stats aggregate");
        if aggregate.get("ready").and_then(Value::as_bool) == Some(true)
            && num_of(&aggregate, &["queue"]) == 0
        {
            break aggregate;
        }
        assert!(
            Instant::now() < recover_deadline,
            "chaos: server never drained its queue after the blast"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let restarts = num_of(&stats, &["overload", "restarts"]);
    let injected_panics = num_of(&stats, &["chaos", "injected_panics"]);

    let (status, text) = client
        .post("/v1/predict", &body)
        .expect("chaos: recovery I/O");
    assert_eq!(status, 200, "post-chaos predict failed: {text}");
    let v: Value = serde_json::from_str(&text).expect("recovery JSON");
    assert_eq!(
        pois_of(&v),
        reference.predict_one(&Query::with_top(s, 4, 10)).pois,
        "post-chaos predictions diverged from the offline reference"
    );
    println!(
        "serve_bench: chaos recovery ok ({restarts} supervisor restarts, \
         {injected_panics} injected panics, predictions bitwise vs reference)"
    );

    ChaosReport {
        accepted_p99_us: accepted_p99 as f64,
        sheds,
        shed_rate,
        restarts,
        injected_panics,
    }
}

/// Reads the server's stats and renders one `serve_lane<i>_*` metric
/// group per lane (served/batches/shed_total/restarts). Best-effort: an
/// unreachable server or a pre-lane body just yields no lane metrics.
fn lane_metrics(addr: &str) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        return out;
    };
    let Ok((200, text)) = client.get("/v1/stats") else {
        return out;
    };
    let Ok(v) = serde_json::from_str::<Value>(&text) else {
        return out;
    };
    for lane in v
        .get("lanes")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let Some(l) = protocol::parse_lane_stats(lane) else {
            continue;
        };
        let shed_total = l.shed_queue_full + l.shed_expired + l.shed_not_ready;
        out.push((
            format!("serve_lane{}_served", l.lane),
            l.served as f64,
            "count",
        ));
        out.push((
            format!("serve_lane{}_batches", l.lane),
            l.batches as f64,
            "count",
        ));
        out.push((
            format!("serve_lane{}_shed_total", l.lane),
            shed_total as f64,
            "count",
        ));
        out.push((
            format!("serve_lane{}_restarts", l.lane),
            l.restarts as f64,
            "count",
        ));
    }
    out
}

/// Appends (or replaces) the serve metrics inside a `perf_snapshot` JSON.
fn merge_metrics(path: &str, metrics: &[(&str, f64, &str)]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let mut snapshot: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse snapshot {path}: {e}"));
    let Value::Object(pairs) = &mut snapshot else {
        panic!("snapshot {path} is not a JSON object");
    };
    let Some((_, Value::Array(entries))) = pairs.iter_mut().find(|(k, _)| k == "metrics") else {
        panic!("snapshot {path} has no metrics array");
    };
    entries.retain(|m| {
        m.get("name")
            .and_then(Value::as_str)
            .is_none_or(|name| !metrics.iter().any(|(n, _, _)| *n == name))
    });
    for (name, value, unit) in metrics {
        entries.push(Value::Object(vec![
            ("name".to_string(), Value::Str((*name).to_string())),
            ("value".to_string(), Value::Num(*value)),
            ("unit".to_string(), Value::Str((*unit).to_string())),
        ]));
    }
    let out = serde_json::to_string(&snapshot).expect("serialise snapshot");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write snapshot {path}: {e}"));
}
