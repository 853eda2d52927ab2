//! End-to-end serving acceptance: concurrent clients over real sockets,
//! bitwise identity with the offline predictor, checkpoint hot-swap with
//! no mixed-parameter batches, and corrupt-checkpoint rejection.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use serde::Value;
use tspn_core::{Query, SpatialContext, TspnConfig, TspnRa};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_city;
use tspn_data::{PoiId, Sample, Visit};
use tspn_serve::protocol::{
    error_of, session_append_body, session_create_body, v1_predict_request_body,
};
use tspn_serve::{
    server, start_router, BatchConfig, Client, RouterConfig, ServerConfig, ServerHandle,
    SessionConfig, BOOT_VERSION,
};

use support::{
    num_field, pois_of, reference_predictor, start_server_overload, stats_of, stream_of, tiny_ctx,
    tiny_model_cfg, v1_body, StopGuard,
};

/// The context a `tspn-serve` backend boots from: the same city as
/// [`tiny_ctx`], without the simulated check-ins.
fn tiny_city_ctx(cfg: &TspnConfig) -> SpatialContext {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (city, world) = generate_city(dcfg);
    SpatialContext::build(city, world, cfg)
}

fn start_server(seed: u64, batch: BatchConfig) -> ServerHandle {
    start_server_with_sessions(seed, batch, SessionConfig::default())
}

fn start_server_with_sessions(
    seed: u64,
    batch: BatchConfig,
    session: SessionConfig,
) -> ServerHandle {
    let cfg = tiny_model_cfg(seed);
    let ctx = tiny_ctx(&cfg);
    server::start(
        ServerConfig {
            batch,
            session,
            ..ServerConfig::default()
        },
        cfg,
        ctx,
        None,
    )
    .expect("server starts")
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers() {
    let handle = start_server(7, BatchConfig::default());
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let per_client = 6usize;
    let clients = 8usize;
    assert!(
        samples.len() >= clients * per_client,
        "dataset too small for test"
    );
    // Bodies are precomputed: the reference predictor is not Sync (the
    // tape is Rc-based) and stays on this thread.
    let bodies: Vec<String> = samples[..clients * per_client]
        .iter()
        .map(|s| v1_body(&reference, s, 4, 10))
        .collect();

    let answers: Vec<(Sample, Vec<PoiId>)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let addr = addr.clone();
            let (samples, bodies) = (&samples, &bodies);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut out = Vec::new();
                for r in 0..per_client {
                    let i = c * per_client + r;
                    let (status, v) = client
                        .post_json("/v1/predict", &bodies[i])
                        .expect("predict I/O");
                    assert_eq!(status, 200, "predict failed: {v:?}");
                    assert_eq!(num_field(&v, "snapshot"), BOOT_VERSION);
                    out.push((samples[i], pois_of(&v)));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });

    assert_eq!(answers.len(), clients * per_client);
    for (s, served) in answers {
        let offline = reference.predict_one(&Query::with_top(s, 4, 10));
        assert_eq!(served, offline.pois, "served ranking diverged for {s:?}");
        assert!(!served.is_empty());
        // Valid top-k: no duplicate POIs.
        let mut unique = served.clone();
        unique.sort_unstable_by_key(|p| p.0);
        unique.dedup();
        assert_eq!(unique.len(), served.len(), "duplicate POIs in top-k");
    }

    // Health reflects the traffic.
    let mut client = Client::connect(&addr).expect("connect");
    let (status, text) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&text).expect("health JSON");
    assert_eq!(num_field(&health, "served") as usize, clients * per_client);
    assert!(num_field(&health, "batches") >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn reload_swaps_checkpoints_without_mixing_a_batch() {
    // Two reference parameter sets over the identical dataset/context.
    let (ref_a, samples) = reference_predictor(7);
    let (ref_b, _) = reference_predictor(999);
    let dir = std::env::temp_dir().join(format!("tspn-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path_a = dir.join("ckpt_a.json");
    let path_b = dir.join("ckpt_b.json");
    std::fs::write(&path_a, serde_json::to_string(&ref_a.save()).unwrap()).unwrap();
    std::fs::write(&path_b, serde_json::to_string(&ref_b.save()).unwrap()).unwrap();

    // Small batches so reloads land between many batches while clients
    // hammer the server.
    let handle = start_server(
        7,
        BatchConfig {
            max_batch: 4,
            queue_cap: 256,
        },
    );
    let addr = handle.local_addr().to_string();
    let q = Query::with_top(samples[0], 4, 8);
    let body = v1_body(&ref_a, &samples[0], 4, 8);
    let expect_a = ref_a.predict_one(&q).pois;
    let expect_b = ref_b.predict_one(&q).pois;
    assert_ne!(
        expect_a, expect_b,
        "seeds must rank differently for this test"
    );

    let stop = AtomicUsize::new(0);
    let observations: Vec<(u64, u64, Vec<PoiId>)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let addr = addr.clone();
            let (stop, body) = (&stop, &body);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut seen = Vec::new();
                while stop.load(Ordering::Acquire) == 0 {
                    let (status, v) = client.post_json("/v1/predict", body).expect("predict I/O");
                    assert_eq!(status, 200, "{v:?}");
                    seen.push((
                        num_field(&v, "batch"),
                        num_field(&v, "snapshot"),
                        pois_of(&v),
                    ));
                }
                seen
            }));
        }
        // Alternate A/B reloads while the clients run.
        let _release_hammers = StopGuard(&stop);
        let mut admin = Client::connect(&addr).expect("connect admin");
        let mut last_version = BOOT_VERSION;
        for round in 0..6 {
            std::thread::sleep(Duration::from_millis(30));
            let path = if round % 2 == 0 { &path_b } else { &path_a };
            let body = format!("{{\"path\":{:?}}}", path.display().to_string());
            let (status, v) = admin.post_json("/admin/reload", &body).expect("reload I/O");
            assert_eq!(status, 200, "reload failed: {v:?}");
            let version = num_field(&v, "snapshot");
            assert!(version > last_version, "snapshot versions are monotonic");
            last_version = version;
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(1, Ordering::Release);
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client"))
            .collect()
    });

    // Every answer matches exactly one reference parameter set, the set
    // implied by its snapshot version — never a mixture.
    let mut by_batch: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut swaps_observed = std::collections::HashSet::new();
    for (batch, snapshot, pois) in &observations {
        swaps_observed.insert(*snapshot);
        // One batch, one snapshot: a second answer from the same batch
        // must agree on the version.
        if let Some(prev) = by_batch.insert(*batch, *snapshot) {
            assert_eq!(prev, *snapshot, "batch {batch} served under two snapshots");
        }
        // Boot (version 1) and odd reload rounds serve seed-7 parameters;
        // even rounds serve seed-999 parameters.
        let expect = if *snapshot == BOOT_VERSION || snapshot % 2 == 1 {
            &expect_a
        } else {
            &expect_b
        };
        assert_eq!(
            pois, expect,
            "snapshot {snapshot} served a mixed/unknown ranking"
        );
    }
    assert!(
        swaps_observed.len() >= 2,
        "test never observed a hot swap (snapshots: {swaps_observed:?})"
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_are_rejected_and_old_snapshot_keeps_serving() {
    let (reference, samples) = reference_predictor(7);
    let dir = std::env::temp_dir().join(format!("tspn-serve-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Corruptions: invalid JSON, wrong shapes, non-finite values.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{ not json").unwrap();
    let mut reshaped = reference.save();
    reshaped.tensors[0].shape = vec![1, 1];
    reshaped.tensors[0].data = vec![0.5];
    let reshaped_path = dir.join("reshaped.json");
    std::fs::write(&reshaped_path, serde_json::to_string(&reshaped).unwrap()).unwrap();
    let mut poisoned = reference.save();
    let n = poisoned.tensors.len() - 1;
    poisoned.tensors[n].data[0] = f32::INFINITY;
    let poisoned_path = dir.join("poisoned.json");
    std::fs::write(&poisoned_path, serde_json::to_string(&poisoned).unwrap()).unwrap();

    let handle = start_server(7, BatchConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let s = samples[1];
    let body = v1_body(&reference, &s, 4, 10);
    let (status, v) = client.post_json("/v1/predict", &body).unwrap();
    assert_eq!(status, 200);
    let before = pois_of(&v);
    assert_eq!(
        before,
        reference.predict_one(&Query::with_top(s, 4, 10)).pois
    );

    for (path, needle) in [
        (dir.join("missing.json"), "cannot read"),
        (garbage.clone(), "cannot parse"),
        (reshaped_path.clone(), "shape mismatch"),
        // Non-finite floats serialise as JSON null, so a poisoned file is
        // caught at parse time (the in-memory non-finite path is covered
        // by the snapshot/predictor unit tests).
        (poisoned_path.clone(), "cannot parse"),
    ] {
        let body = format!("{{\"path\":{:?}}}", path.display().to_string());
        let (status, v) = client
            .post_json("/admin/reload", &body)
            .expect("reload I/O");
        assert_eq!(status, 400, "corrupt checkpoint accepted: {v:?}");
        let (code, err) = tspn_serve::protocol::error_of(&v).expect("typed error body");
        assert_eq!(code, "bad_request");
        assert!(
            err.contains(needle),
            "error {err:?} should mention {needle:?}"
        );
    }

    // Still serving the boot snapshot, bitwise.
    let (status, v) = client.post_json("/v1/predict", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(num_field(&v, "snapshot"), BOOT_VERSION);
    assert_eq!(pois_of(&v), before);

    // Malformed predict bodies and unknown routes answer without killing
    // the connection's session.
    let (status, _) = client.post("/v1/predict", "{\"user\":0,").unwrap();
    assert_eq!(status, 400);
    let vocab = reference.ctx().dataset.pois.len();
    let (status, _) = client
        .post(
            "/v1/predict",
            &format!("{{\"user\":0,\"checkins\":[{{\"poi\":{vocab},\"t\":0}}]}}"),
        )
        .unwrap();
    assert_eq!(status, 422);
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    // The retired index-addressed dialect is an unknown route too.
    let (status, v) = client
        .post_json("/predict", "{\"user\":0,\"traj\":0,\"prefix_len\":1}")
        .unwrap();
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (404, "not_found")
    );
    let (status, _) = client.post("/v1/predict", &body).unwrap();
    assert_eq!(status, 200, "session survives rejected requests");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    v.get(name)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {name:?} in {v:?}"))
}

#[test]
fn mixed_payload_and_session_queries_are_bitwise_identical_under_load() {
    // The acceptance contract: both ways a check-in stream enters — a v1
    // raw payload and a session built from the stream — must return the
    // same ranking as the offline index-addressed reference, bitwise,
    // while both hammer the server concurrently (so one micro-batch
    // flush routinely mixes the two kinds).
    let handle = start_server(
        7,
        BatchConfig {
            max_batch: 8,
            queue_cap: 256,
        },
    );
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let per_client = 6usize;
    let clients = 4usize; // 2 per endpoint
    assert!(samples.len() >= clients * per_client, "dataset too small");
    // Streams are precomputed: the reference predictor itself is not
    // Sync (the tape is Rc-based) and stays on this thread.
    let streams: Vec<Vec<Visit>> = samples.iter().map(|s| stream_of(&reference, s)).collect();

    let answers: Vec<(Sample, Vec<PoiId>)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let addr = addr.clone();
            let (samples, streams) = (&samples, &streams);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut out = Vec::new();
                for r in 0..per_client {
                    let i = (c * per_client + r) % samples.len();
                    let s = samples[i];
                    let v = match c % 2 {
                        // v1 payload-addressed.
                        0 => {
                            let body = v1_predict_request_body(s.user_index, &streams[i], 4, 10);
                            let (status, v) = client
                                .post_json("/v1/predict", &body)
                                .expect("v1 predict I/O");
                            assert_eq!(status, 200, "v1 predict failed: {v:?}");
                            v
                        }
                        // Sessionful: create with the full stream, predict.
                        _ => {
                            let body = session_create_body(s.user_index, &streams[i]);
                            let (status, v) = client
                                .post_json("/v1/sessions", &body)
                                .expect("session create I/O");
                            assert_eq!(status, 200, "session create failed: {v:?}");
                            let id = str_field(&v, "session").to_string();
                            let (status, v) = client
                                .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
                                .expect("session predict I/O");
                            assert_eq!(status, 200, "session predict failed: {v:?}");
                            v
                        }
                    };
                    out.push((s, pois_of(&v)));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });

    for (s, served) in answers {
        let offline = reference.predict_one(&Query::with_top(s, 4, 10));
        assert_eq!(served, offline.pois, "ranking diverged for {s:?}");
    }

    // Per-endpoint stats partition the served total. `/v1/stats` is
    // schema v3: the counters live under `aggregate`, with a `lanes`
    // breakdown beside them, and v2's `legacy_predict` counter is gone.
    let mut client = Client::connect(&addr).expect("connect");
    let (status, text) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    assert_eq!(
        stats.get("schema_version").and_then(Value::as_usize),
        Some(3)
    );
    let agg = stats.get("aggregate").expect("aggregate object");
    let served = agg.get("served").expect("served object");
    let total = num_field(served, "total");
    assert_eq!(total as usize, clients * per_client);
    assert!(served.get("legacy_predict").is_none(), "{served:?}");
    assert_eq!(
        num_field(served, "v1_predict") + num_field(served, "session_predict"),
        total,
        "per-endpoint counters must partition the total"
    );
    // /healthz reports the same total.
    let (status, text) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&text).expect("health JSON");
    assert_eq!(num_field(&health, "served"), total);
    let sessions = agg.get("sessions").expect("sessions object");
    assert_eq!(num_field(sessions, "created") as usize, 2 * per_client);
    let lanes = stats
        .get("lanes")
        .and_then(Value::as_array)
        .expect("lanes array");
    assert_eq!(lanes.len(), 1, "default server runs one lane");

    handle.shutdown();
    handle.join();
}

#[test]
fn a_city_only_backend_answers_bitwise_like_the_full_dataset() {
    // A backend boots from the city alone; its offline references and
    // checkpoints come from the full simulated dataset. Both must agree
    // bitwise on the model's parameters and on every served answer.
    let cfg = tiny_model_cfg(7);
    let city = tiny_city_ctx(&cfg);
    assert!(city.dataset.users.is_empty(), "the city has no check-ins");
    let (reference, samples) = reference_predictor(7);

    // Checkpoints stay interchangeable: `--dump-checkpoint`, `--checkpoint`
    // and `/admin/reload` files load into either context.
    let city_ckpt = TspnRa::new(cfg.clone(), &city).save();
    let full_ckpt = TspnRa::new(cfg.clone(), reference.ctx()).save();
    assert_eq!(city_ckpt.tensors.len(), full_ckpt.tensors.len());
    for (a, b) in city_ckpt.tensors.iter().zip(&full_ckpt.tensors) {
        assert_eq!((&a.name, &a.shape), (&b.name, &b.shape));
        let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(&a.data) == bits(&b.data), "{} differs", a.name);
    }
    assert_eq!(
        serde_json::to_string(&city_ckpt).expect("serialise"),
        serde_json::to_string(&full_ckpt).expect("serialise")
    );

    let handle = server::start(
        ServerConfig {
            batch: BatchConfig {
                max_batch: 8,
                queue_cap: 256,
            },
            lanes: 2,
            ..ServerConfig::default()
        },
        cfg,
        city,
        None,
    )
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Payload-addressed: every sample's raw stream.
    for s in samples.iter().take(24) {
        let (status, v) = client
            .post_json("/v1/predict", &v1_body(&reference, s, 4, 10))
            .expect("v1 predict I/O");
        assert_eq!(status, 200, "v1 predict failed: {v:?}");
        let offline = reference.predict_one(&Query::with_top(*s, 4, 10));
        assert_eq!(pois_of(&v), offline.pois, "v1 ranking diverged for {s:?}");
    }

    // Session-addressed: seed with the history, then append the current
    // trajectory visit by visit and predict after each append.
    let s = *samples
        .iter()
        .find(|s| s.traj_index > 0 && s.prefix_len >= 3)
        .expect("dataset has a deep sample");
    let stream = stream_of(&reference, &s);
    let (history, prefix) = stream.split_at(stream.len() - s.prefix_len);
    let (status, v) = client
        .post_json("/v1/sessions", &session_create_body(s.user_index, history))
        .expect("create I/O");
    assert_eq!(status, 200, "{v:?}");
    let id = str_field(&v, "session").to_string();
    for j in 1..=prefix.len() {
        let (status, v) = client
            .post_json(
                &format!("/v1/sessions/{id}/checkins"),
                &session_append_body(&prefix[j - 1..j]),
            )
            .expect("append I/O");
        assert_eq!(status, 200, "append {j} failed: {v:?}");
        let (status, v) = client
            .post_json(&format!("/v1/sessions/{id}/predict"), r#"{"k":4,"top":10}"#)
            .expect("session predict I/O");
        assert_eq!(status, 200, "session predict {j} failed: {v:?}");
        let offline = reference.predict_one(&Query::with_top(Sample { prefix_len: j, ..s }, 4, 10));
        assert_eq!(pois_of(&v), offline.pois, "session step {j} diverged");
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn session_lifecycle_appends_predict_incrementally_and_expiry_gones() {
    // Short TTL so expiry is observable; capacity 3 so eviction is too.
    let handle = start_server_with_sessions(
        7,
        BatchConfig::default(),
        SessionConfig {
            ttl: Duration::from_millis(400),
            max_sessions: 3,
            max_visits: 1024,
        },
    );
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    // A sample with history and at least two prefix visits, so appends
    // genuinely extend the trajectory.
    let s = *samples
        .iter()
        .find(|s| s.traj_index > 0 && s.prefix_len >= 3)
        .expect("dataset has a deep sample");
    let stream = stream_of(&reference, &s);
    let prefix_len = s.prefix_len;
    let history = &stream[..stream.len() - prefix_len];
    let prefix = &stream[stream.len() - prefix_len..];

    let mut client = Client::connect(&addr).expect("connect");

    // Create seeded with the history only.
    let (status, v) = client
        .post_json("/v1/sessions", &session_create_body(s.user_index, history))
        .expect("create I/O");
    assert_eq!(status, 200, "{v:?}");
    let id = str_field(&v, "session").to_string();
    assert_eq!(num_field(&v, "checkins") as usize, history.len());

    // Append the current trajectory visit by visit; after the j-th append
    // the session addresses exactly sample (user, traj, j) — predictions
    // must match the indexed reference bitwise at every step.
    for j in 1..=prefix_len {
        let (status, v) = client
            .post_json(
                &format!("/v1/sessions/{id}/checkins"),
                &session_append_body(&prefix[j - 1..j]),
            )
            .expect("append I/O");
        assert_eq!(status, 200, "append {j} failed: {v:?}");
        assert_eq!(num_field(&v, "checkins") as usize, history.len() + j);

        let (status, v) = client
            .post_json(&format!("/v1/sessions/{id}/predict"), r#"{"k":4,"top":10}"#)
            .expect("session predict I/O");
        assert_eq!(status, 200, "session predict {j} failed: {v:?}");
        let indexed = Sample { prefix_len: j, ..s };
        let offline = reference.predict_one(&Query::with_top(indexed, 4, 10));
        assert_eq!(
            pois_of(&v),
            offline.pois,
            "session predict after {j} appends diverged from indexed reference"
        );
    }

    // Info reflects the state; an unordered append is rejected atomically.
    let (status, v) = client
        .get(&format!("/v1/sessions/{id}"))
        .map(|(s, t)| (s, serde_json::from_str::<Value>(&t).unwrap()))
        .expect("info I/O");
    assert_eq!(status, 200);
    assert_eq!(num_field(&v, "checkins") as usize, stream.len());
    let backwards = vec![Visit {
        poi: stream[0].poi,
        time: stream[stream.len() - 1].time - 1_000_000,
    }];
    let (status, v) = client
        .post_json(
            &format!("/v1/sessions/{id}/checkins"),
            &session_append_body(&backwards),
        )
        .expect("bad append I/O");
    assert_eq!(status, 422, "{v:?}");
    assert_eq!(error_of(&v).unwrap().0, "unprocessable");

    // Delete → subsequent access is 410 gone; unknown ids are 404.
    let (status, _) = client
        .request("DELETE", &format!("/v1/sessions/{id}"), None)
        .expect("delete I/O");
    assert_eq!(status, 200);
    let (status, v) = client
        .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
        .expect("gone predict I/O");
    assert_eq!(status, 410, "{v:?}");
    assert_eq!(error_of(&v).unwrap().0, "gone");
    let (status, v) = client
        .post_json("/v1/sessions/s999999/predict", "{}")
        .expect("unknown predict I/O");
    assert_eq!(status, 404, "{v:?}");
    assert_eq!(error_of(&v).unwrap().0, "not_found");

    // TTL expiry: an idle session reports 410 after its deadline.
    let (status, v) = client
        .post_json(
            "/v1/sessions",
            &session_create_body(s.user_index, &stream[..1]),
        )
        .expect("create I/O");
    assert_eq!(status, 200);
    let idle = str_field(&v, "session").to_string();
    std::thread::sleep(Duration::from_millis(700));
    let (status, v) = client
        .post_json(&format!("/v1/sessions/{idle}/predict"), "{}")
        .expect("expired predict I/O");
    assert_eq!(status, 410, "expired session not gone: {v:?}");

    // Capacity: creating past max_sessions evicts the longest-idle one.
    let mut ids = Vec::new();
    for _ in 0..4 {
        let (status, v) = client
            .post_json("/v1/sessions", &session_create_body(0, &[]))
            .expect("create I/O");
        assert_eq!(status, 200);
        ids.push(str_field(&v, "session").to_string());
    }
    let (status, _) = client
        .get(&format!("/v1/sessions/{}", ids[0]))
        .expect("evicted info I/O");
    assert_eq!(status, 410, "oldest session should be evicted");

    // healthz and stats surface occupancy and evictions.
    let (status, text) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&text).expect("health JSON");
    assert_eq!(num_field(&health, "sessions"), 3);
    assert!(num_field(&health, "evictions") >= 2, "expiry + capacity");

    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_session_appends_and_predictions_stay_consistent() {
    // One session is shared by an appender thread and several predictor
    // threads racing against TTL and each other; every prediction
    // must equal the reference for SOME prefix the session legitimately
    // held (appends are atomic, so no torn state is ever observable).
    let handle = start_server_with_sessions(
        7,
        BatchConfig {
            max_batch: 4,
            queue_cap: 256,
        },
        SessionConfig {
            ttl: Duration::from_secs(30),
            max_sessions: 64,
            max_visits: 1024,
        },
    );
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let s = *samples
        .iter()
        .filter(|s| s.traj_index > 0)
        .max_by_key(|s| s.prefix_len)
        .expect("dataset has history samples");
    let stream = stream_of(&reference, &s);
    let prefix_len = s.prefix_len;
    let history = &stream[..stream.len() - prefix_len];
    let prefix = &stream[stream.len() - prefix_len..];

    // Every reachable reference ranking, by prefix length — plus the
    // history-only state (before the first racing append lands), which
    // the server splits at the last trajectory gap like any payload.
    let mut expected: Vec<Vec<PoiId>> = (1..=prefix_len)
        .map(|j| {
            let indexed = Sample { prefix_len: j, ..s };
            reference.predict_one(&Query::with_top(indexed, 4, 10)).pois
        })
        .collect();
    let full_prefix_ranking = expected.last().cloned().expect("non-empty prefix");
    {
        let t = tspn_data::AdHocTrajectory::from_checkins(
            tspn_data::UserId(s.user_index),
            history,
            tspn_data::DEFAULT_GAP_SECS,
        )
        .expect("history stream is valid");
        let q = Query::adhoc(std::sync::Arc::new(t), 4, 10);
        expected.push(reference.predict_one(&q).pois);
    }

    let mut admin = Client::connect(&addr).expect("connect");
    let (status, v) = admin
        .post_json(
            "/v1/sessions",
            &session_create_body(s.user_index, &history[..history.len().min(1)]),
        )
        .expect("create I/O");
    assert_eq!(status, 200, "{v:?}");
    let id = str_field(&v, "session").to_string();
    // Seed the remaining history before racing.
    if history.len() > 1 {
        let (status, _) = admin
            .post_json(
                &format!("/v1/sessions/{id}/checkins"),
                &session_append_body(&history[1..]),
            )
            .expect("seed I/O");
        assert_eq!(status, 200);
    }

    std::thread::scope(|scope| {
        // Appender: one visit at a time with small pauses.
        let appender = {
            let (addr, id) = (addr.clone(), id.clone());
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for j in 0..prefix_len {
                    let (status, v) = client
                        .post_json(
                            &format!("/v1/sessions/{id}/checkins"),
                            &session_append_body(&prefix[j..j + 1]),
                        )
                        .expect("append I/O");
                    assert_eq!(status, 200, "racing append failed: {v:?}");
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        };
        // Predictors: hammer the same session; every answer must be one
        // of the legitimate prefix rankings (or 422 before any visit of
        // the current trajectory landed — impossible here: history is
        // non-empty, so the session always has a predictable state).
        for _ in 0..3 {
            let (addr, id) = (addr.clone(), id.clone());
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for _ in 0..10 {
                    let (status, v) = client
                        .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
                        .expect("racing predict I/O");
                    assert_eq!(status, 200, "racing predict failed: {v:?}");
                    let pois = pois_of(&v);
                    assert!(
                        expected.contains(&pois),
                        "ranking matches no reachable session state"
                    );
                }
            });
        }
        appender.join().expect("appender");
    });

    // After the race the session holds the full stream: its prediction is
    // the full-prefix reference, bitwise.
    let (status, v) = admin
        .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
        .expect("final predict I/O");
    assert_eq!(status, 200);
    assert_eq!(pois_of(&v), full_prefix_ranking);

    handle.shutdown();
    handle.join();
}

#[test]
fn typed_errors_cover_the_v1_status_classes() {
    let handle = start_server(7, BatchConfig::default());
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let mut client = Client::connect(&addr).expect("connect");

    // 404 unknown path / 405 wrong method on known paths.
    let (status, v) = client
        .post_json("/v2/predict", "{}")
        .expect("unknown path I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (404, "not_found")
    );
    let (status, v) = client
        .request("GET", "/v1/predict", None)
        .map(|(s, t)| (s, serde_json::from_str::<Value>(&t).unwrap()))
        .expect("wrong method I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (405, "method_not_allowed")
    );
    let (status, v) = client
        .post_json("/healthz", "{}")
        .expect("wrong method I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (405, "method_not_allowed")
    );

    // 400 malformed vs 422 semantically invalid payloads.
    let (status, v) = client
        .post_json("/v1/predict", "{not json")
        .expect("bad json I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (400, "bad_request")
    );
    let (status, v) = client
        .post_json("/v1/predict", r#"{"user":0,"checkins":[]}"#)
        .expect("empty checkins I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (422, "unprocessable")
    );
    let vocab = reference.ctx().dataset.pois.len();
    let (status, v) = client
        .post_json(
            "/v1/predict",
            &format!(r#"{{"user":0,"checkins":[{{"poi":{vocab},"t":0}}]}}"#),
        )
        .expect("bad poi I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (422, "unprocessable")
    );
    let (status, v) = client
        .post_json(
            "/v1/predict",
            r#"{"user":0,"checkins":[{"poi":1,"t":100},{"poi":2,"t":50}]}"#,
        )
        .expect("unordered I/O");
    assert_eq!(
        (status, error_of(&v).unwrap().0.as_str()),
        (422, "unprocessable")
    );

    // The connection session survives every rejected request.
    let s = samples[0];
    let (status, v) = client
        .post_json("/v1/predict", &v1_body(&reference, &s, 4, 10))
        .expect("recovery I/O");
    assert_eq!(status, 200);
    assert_eq!(
        pois_of(&v),
        reference.predict_one(&Query::with_top(s, 4, 10)).pois
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn deeply_nested_bodies_are_refused_by_backend_and_router_alike() {
    // 60 000 `[` bytes fit under the 64 KiB body limit. An unbounded
    // recursive parser overflows the stack of whichever thread reads
    // them — the backend's mux, or the router's mux while it picks a
    // shard — and the overflow aborts the whole process.
    let hostile = "[".repeat(60_000);
    let backend = start_server(7, BatchConfig::default());
    let backend_addr = backend.local_addr().to_string();
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: vec![backend_addr.clone()],
    })
    .expect("router starts");
    let (reference, samples) = reference_predictor(7);
    let s = samples[0];
    let want = reference.predict_one(&Query::with_top(s, 4, 10)).pois;
    for addr in [backend_addr, router.local_addr().to_string()] {
        let mut client = Client::connect(&addr).expect("connect");
        let (status, v) = client
            .post_json("/v1/predict", &hostile)
            .expect("hostile body I/O");
        assert_eq!(
            (status, error_of(&v).unwrap().0.as_str()),
            (400, "bad_request"),
            "{addr}"
        );
        // Same connection, next request: the process is still serving.
        let (status, v) = client
            .post_json("/v1/predict", &v1_body(&reference, &s, 4, 10))
            .expect("recovery I/O");
        assert_eq!(status, 200, "{addr}");
        assert_eq!(pois_of(&v), want, "{addr}");
    }
    router.shutdown();
    router.join();
    backend.shutdown();
    backend.join();
}

/// A `--route` router forwards from its own poll loop: once traffic
/// stops and its short-lived dial threads are gone, the process runs
/// exactly two threads, main and the mux.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_router_process_runs_two_threads() {
    use std::io::BufRead;
    let backends = [
        start_server(7, BatchConfig::default()),
        start_server(7, BatchConfig::default()),
    ];
    let route: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    /// Kills the router if an assertion fails before it is shut down.
    struct Reaper(std::process::Child);
    impl Drop for Reaper {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child = Reaper(
        std::process::Command::new(env!("CARGO_BIN_EXE_tspn-serve"))
            .args(["--port", "0", "--route", &route.join(",")])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn tspn-serve --route"),
    );
    let mut line = String::new();
    std::io::BufReader::new(child.0.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("tspn-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let (reference, samples) = reference_predictor(7);
    let bodies: Vec<String> = samples
        .iter()
        .take(16)
        .map(|s| v1_body(&reference, s, 4, 10))
        .collect();
    std::thread::scope(|scope| {
        for chunk in bodies.chunks(4) {
            let addr = &addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect router");
                for body in chunk {
                    let (status, v) = client
                        .post_json("/v1/predict", body)
                        .expect("routed predict");
                    assert_eq!(status, 200, "{v:?}");
                }
                let (status, _) = client.get("/v1/stats").expect("fleet stats");
                assert_eq!(status, 200);
            });
        }
    });

    let status_path = format!("/proc/{}/status", child.0.id());
    let threads = || {
        let status = std::fs::read_to_string(&status_path).expect("router status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse::<usize>().ok())
            .expect("Threads: line")
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while threads() != 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(threads(), 2, "an idle router runs main and the mux only");

    let mut client = Client::connect(&addr).expect("connect router");
    let (status, _) = client.post("/admin/shutdown", "{}").expect("shutdown");
    assert_eq!(status, 200);
    let exit = child.0.wait().expect("router exits");
    assert!(exit.success(), "{exit:?}");
    for b in backends {
        b.shutdown();
        b.join();
    }
}

#[test]
fn admin_shutdown_stops_the_server_cleanly() {
    let handle = start_server(7, BatchConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client.post("/admin/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    assert!(handle.shutdown_requested());
    handle.join(); // must return: accept loop, handlers and batcher all stop

    // The port is released: a fresh bind to the same address succeeds.
    let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
    let rebind = std::net::TcpListener::bind(("127.0.0.1", port));
    assert!(
        rebind.is_ok(),
        "port still held after clean shutdown: {rebind:?}"
    );
}

#[test]
fn supervisor_restarts_from_last_published_checkpoint_and_breaker_recovers() {
    // Three injected panics (budget), breaker threshold 3: the storm
    // trips the breaker exactly once, then the server must recover and
    // serve the *published* parameters bitwise.
    let handle = start_server_overload(ServerConfig {
        chaos: tspn_serve::ChaosConfig {
            flush_panic_every: Some(1),
            flush_panic_budget: Some(3),
            ..Default::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(999);
    let s = samples[0];
    let predict = v1_body(&reference, &s, 4, 10);

    // Publish the seed-999 parameters before any flush: the first flush
    // applies them, so they are the supervisor's restore point.
    let dir = std::env::temp_dir().join(format!("tspn-serve-supervise-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt_path = dir.join("published.json");
    std::fs::write(
        &ckpt_path,
        serde_json::to_string(&reference.save()).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(&addr).expect("connect");
    let body = format!("{{\"path\":{:?}}}", ckpt_path.display().to_string());
    let (status, v) = client
        .post_json("/admin/reload", &body)
        .expect("reload I/O");
    assert_eq!(status, 200, "{v:?}");
    let published_version = num_field(&v, "snapshot");

    // The crash storm: each predict's flush panics; the waiter gets a
    // typed 500, never a hang or a connection reset.
    for round in 1..=3 {
        let (status, v) = client
            .post_json("/v1/predict", &predict)
            .expect("crash-storm predict I/O");
        assert_eq!(status, 500, "round {round}: {v:?}");
        assert_eq!(error_of(&v).unwrap().0, "internal", "round {round}");
    }

    // The breaker trips once the third restart is processed; observe it
    // through /healthz (not-ready) without issuing predictions.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, text) = client.get("/healthz").expect("healthz I/O");
        assert_eq!(status, 200);
        let health: Value = serde_json::from_str(&text).expect("health JSON");
        if health.get("ready").and_then(Value::as_bool) == Some(false) {
            assert_eq!(str_field(&health, "status"), "not_ready");
            assert_eq!(num_field(&health, "restarts"), 3);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "breaker never tripped after 3 panics"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // While open, predictions shed with a typed 503 not_ready.
    let (status, v) = client
        .post_json("/v1/predict", &predict)
        .expect("breaker predict I/O");
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(error_of(&v).unwrap().0, "not_ready");

    // After the cool-down the breaker closes and the panic budget is
    // spent: service resumes, bitwise identical to the published
    // (seed-999) parameters — proof the supervisor restored them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (_, text) = client.get("/healthz").expect("healthz I/O");
        let health: Value = serde_json::from_str(&text).expect("health JSON");
        if health.get("ready").and_then(Value::as_bool) == Some(true) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "breaker never recovered after its cool-down"
        );
    }
    let (status, v) = client
        .post_json("/v1/predict", &predict)
        .expect("recovered predict I/O");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_field(&v, "snapshot"), published_version);
    assert_eq!(
        pois_of(&v),
        reference.predict_one(&Query::with_top(s, 4, 10)).pois,
        "post-recovery predictions diverged from the published checkpoint"
    );

    let stats = stats_of(&mut client);
    let overload = stats.get("overload").expect("overload object");
    assert_eq!(num_field(overload, "restarts"), 3);
    assert!(num_field(overload, "shed_not_ready") >= 1);
    let chaos = stats.get("chaos").expect("chaos object");
    assert_eq!(num_field(chaos, "injected_panics"), 3);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn draining_server_sheds_typed_503_instead_of_resetting() {
    let handle = start_server(7, BatchConfig::default());
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let body = v1_body(&reference, &samples[0], 4, 10);

    // An established keep-alive connection with a completed request.
    let mut client = Client::connect(&addr).expect("connect");
    let (status, _) = client.post("/v1/predict", &body).expect("warm-up predict");
    assert_eq!(status, 200);

    // Another connection triggers the drain; the first connection's next
    // request must get a typed 503 shutting_down with Retry-After — not
    // a connection reset.
    let mut admin = Client::connect(&addr).expect("connect admin");
    let (status, _) = admin.post("/admin/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200);
    let resp = client
        .request_full("POST", "/v1/predict", Some(&body))
        .expect("draining request should be answered, not reset");
    assert_eq!(resp.status, 503, "{resp:?}");
    let v: Value = serde_json::from_str(&resp.body).expect("typed body");
    assert_eq!(error_of(&v).unwrap().0, "shutting_down");
    assert!(resp.retry_after.is_some(), "drain shed lacks Retry-After");

    handle.join();
}

#[test]
fn lane_partitioned_server_is_bitwise_identical_and_pins_sessions() {
    // Two lanes: every address mode must still answer bitwise like the
    // single offline reference, session ops must follow their session id
    // to its lane from ANY connection, and the stats lanes array must
    // account for all traffic.
    let cfg = tiny_model_cfg(7);
    let ctx = tiny_ctx(&cfg);
    let handle = server::start(
        ServerConfig {
            batch: BatchConfig {
                max_batch: 8,
                queue_cap: 256,
            },
            lanes: 2,
            ..ServerConfig::default()
        },
        cfg,
        ctx,
        None,
    )
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let streams: Vec<Vec<Visit>> = samples.iter().map(|s| stream_of(&reference, s)).collect();

    // Pick payloads covering BOTH lanes (payloads shard on content) so
    // the per-lane counters are deterministic facts, not luck.
    let on_lane = |lane: usize| -> Vec<usize> {
        (0..samples.len())
            .filter(|&i| {
                tspn_serve::shard::shard_of_content(samples[i].user_index, &streams[i], 2) == lane
            })
            .take(4)
            .collect()
    };
    let (lane0, lane1) = (on_lane(0), on_lane(1));
    assert!(
        !lane0.is_empty() && !lane1.is_empty(),
        "dataset covers both lanes"
    );

    let picks: Vec<usize> = lane0.iter().chain(lane1.iter()).copied().collect();
    let answers: Vec<(Sample, Vec<PoiId>)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..6usize {
            let addr = addr.clone();
            let (samples, streams, picks) = (&samples, &streams, &picks);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut out = Vec::new();
                for r in 0..6usize {
                    let i = picks[(c * 6 + r) % picks.len()];
                    let s = samples[i];
                    let v = match c % 2 {
                        0 => {
                            let body = v1_predict_request_body(s.user_index, &streams[i], 4, 10);
                            let (status, v) = client
                                .post_json("/v1/predict", &body)
                                .expect("v1 predict I/O");
                            assert_eq!(status, 200, "v1 predict failed: {v:?}");
                            v
                        }
                        _ => {
                            let body = session_create_body(s.user_index, &streams[i]);
                            let (status, v) = client
                                .post_json("/v1/sessions", &body)
                                .expect("session create I/O");
                            assert_eq!(status, 200, "session create failed: {v:?}");
                            let id = str_field(&v, "session").to_string();
                            let (status, v) = client
                                .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
                                .expect("session predict I/O");
                            assert_eq!(status, 200, "session predict failed: {v:?}");
                            v
                        }
                    };
                    out.push((s, pois_of(&v)));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });
    for (s, served) in answers {
        let offline = reference.predict_one(&Query::with_top(s, 4, 10));
        assert_eq!(
            served, offline.pois,
            "lane-partitioned answer diverged for {s:?}"
        );
    }

    // Session affinity: a session created on one connection is reachable
    // from every other connection — appends and predicts resolve the lane
    // from the id, so there is no cross-lane 404.
    let s = samples[lane0[0]];
    let stream = &streams[lane0[0]];
    let mut creator = Client::connect(&addr).expect("connect");
    let (status, v) = creator
        .post_json(
            "/v1/sessions",
            &session_create_body(s.user_index, &stream[..1]),
        )
        .expect("create I/O");
    assert_eq!(status, 200, "{v:?}");
    let id = str_field(&v, "session").to_string();
    for _ in 0..3 {
        let mut other = Client::connect(&addr).expect("connect");
        let (status, v) = other
            .get(&format!("/v1/sessions/{id}"))
            .map(|(st, t)| (st, serde_json::from_str::<Value>(&t).unwrap()))
            .expect("info I/O");
        assert_eq!(status, 200, "foreign connection lost the session: {v:?}");
        if stream.len() > 1 {
            let (status, v) = other
                .post_json(
                    &format!("/v1/sessions/{id}"),
                    &session_append_body(&stream[1..2]),
                )
                .unwrap_or((0, Value::Null));
            // POST to the session root is 405 — affinity is about the
            // /checkins and /predict verbs below, this is just a probe
            // that the id resolves rather than 404s.
            assert_ne!(status, 404, "session id resolved to the wrong lane: {v:?}");
        }
        let (status, v) = other
            .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
            .expect("foreign predict I/O");
        assert_eq!(status, 200, "cross-connection session predict: {v:?}");
    }

    // Stats: two lanes, both served traffic, and the lane counters sum
    // to the aggregate.
    let mut client = Client::connect(&addr).expect("connect");
    let (status, text) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    let agg = stats.get("aggregate").expect("aggregate");
    let total = num_field(agg.get("served").expect("served"), "total");
    let lanes = stats
        .get("lanes")
        .and_then(Value::as_array)
        .expect("lanes array");
    assert_eq!(lanes.len(), 2);
    let mut lane_sum = 0;
    for lane in lanes {
        let served = num_field(lane, "served");
        assert!(served > 0, "a lane served nothing: {lane:?}");
        lane_sum += served;
    }
    assert_eq!(lane_sum, total, "lane counters must sum to the aggregate");

    handle.shutdown();
    handle.join();
}

#[test]
fn faulting_one_lane_sheds_only_that_shard_while_others_serve() {
    // Chaos scoped to lane 0: every lane-0 flush panics until the breaker
    // opens. Lane-1 users must keep getting bitwise-correct answers the
    // whole time; lane-0 users get typed errors naming their lane.
    let cfg = tiny_model_cfg(7);
    let ctx = tiny_ctx(&cfg);
    let handle = server::start(
        ServerConfig {
            lanes: 2,
            chaos: tspn_serve::ChaosConfig {
                flush_panic_every: Some(1),
                flush_panic_budget: Some(1000),
                fault_lane: Some(0),
                ..Default::default()
            },
            ..ServerConfig::default()
        },
        cfg,
        ctx,
        None,
    )
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    // Payloads shard on content, sessions on user: the lane-1 sample must
    // land on lane 1 both ways, so its session ops meet the healthy lane.
    let on_lane = |lane: usize, by_user: bool| -> Sample {
        *samples
            .iter()
            .find(|s| {
                let content = stream_of(&reference, s);
                tspn_serve::shard::shard_of_content(s.user_index, &content, 2) == lane
                    && (!by_user || tspn_serve::shard::shard_of_user(s.user_index, 2) == lane)
            })
            .expect("dataset covers both lanes")
    };
    let (s0, s1) = (on_lane(0, false), on_lane(1, true));
    let (body0, body1) = (
        v1_body(&reference, &s0, 4, 10),
        v1_body(&reference, &s1, 4, 10),
    );
    let mut client = Client::connect(&addr).expect("connect");

    // Trip lane 0's breaker: three crashed flushes (typed 500s), then the
    // lane sheds 503 not_ready naming itself. The breaker closes again 5 s
    // after the trip; the closing stats check that lane 0 is still down
    // proves every check below ran inside that window.
    for round in 1..=3 {
        let (status, v) = client
            .post_json("/v1/predict", &body0)
            .expect("lane-0 predict I/O");
        assert_eq!(status, 500, "round {round}: {v:?}");
        assert_eq!(error_of(&v).unwrap().0, "internal");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, v) = client
            .post_json("/v1/predict", &body0)
            .expect("lane-0 shed I/O");
        if status == 503 {
            let (code, msg) = error_of(&v).unwrap();
            assert_eq!(code, "not_ready");
            assert!(msg.contains("lane 0"), "shed should name its lane: {msg}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "lane-0 breaker never opened"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Lane 1 keeps serving, bitwise, throughout.
    let expect = reference.predict_one(&Query::with_top(s1, 4, 10)).pois;
    for _ in 0..5 {
        let (status, v) = client
            .post_json("/v1/predict", &body1)
            .expect("lane-1 predict I/O");
        assert_eq!(status, 200, "healthy lane shed: {v:?}");
        assert_eq!(pois_of(&v), expect, "healthy lane diverged");
    }
    // Session ops on the healthy lane work end to end too.
    let stream1 = stream_of(&reference, &s1);
    let (status, v) = client
        .post_json(
            "/v1/sessions",
            &session_create_body(s1.user_index, &stream1),
        )
        .expect("create I/O");
    assert_eq!(status, 200, "{v:?}");
    let id = str_field(&v, "session").to_string();
    let (status, v) = client
        .post_json(&format!("/v1/sessions/{id}/predict"), "{}")
        .expect("session predict I/O");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(pois_of(&v), expect);

    // The fleet view: aggregate not ready (ANDed), lane 0 down, lane 1 up.
    let (status, text) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    let agg = stats.get("aggregate").expect("aggregate");
    assert_eq!(agg.get("ready").and_then(Value::as_bool), Some(false));
    let lanes = stats
        .get("lanes")
        .and_then(Value::as_array)
        .expect("lanes array");
    assert_eq!(lanes.len(), 2);
    assert_eq!(lanes[0].get("ready").and_then(Value::as_bool), Some(false));
    assert_eq!(lanes[1].get("ready").and_then(Value::as_bool), Some(true));
    assert!(num_field(&lanes[0], "injected_panics") >= 3);
    assert_eq!(num_field(&lanes[1], "injected_panics"), 0);
    assert_eq!(num_field(&lanes[1], "restarts"), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn zero_counts_and_deleted_flags_are_usage_errors() {
    // Argument parsing runs before dataset generation, so each refusal is
    // immediate; a process still running after the wait is a failure.
    let cases: [&[&str]; 7] = [
        &["--days", "0"],
        &["--max-batch", "0"],
        &["--max-queue-depth", "0"],
        &["--session-ttl-ms", "0"],
        &["--lanes", "0"],
        &["--shard-count", "0"],
        &["--top", "5"],
    ];
    for args in cases {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tspn-serve"))
            .args(["--port", "0"])
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn tspn-serve");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("wait").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("{args:?}: tspn-serve did not exit");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
