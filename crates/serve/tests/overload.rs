//! Overload acceptance, in a test binary of its own: the accepted p99
//! under 4x overload is compared with a calm p99 taken moments earlier,
//! so no other serving test may run beside it. Cargo runs test binaries
//! one after another.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use serde::Value;
use tspn_core::Query;
use tspn_serve::protocol::error_of;
use tspn_serve::{BatchConfig, Client, ServerConfig};

use support::{
    num_field, pois_of, reference_predictor, start_server_overload, stats_of, v1_body, StopGuard,
};

fn p99(mut latencies: Vec<Duration>) -> Duration {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100]
}

#[test]
fn overload_sheds_typed_429_and_accepted_latency_stays_bounded() {
    // Chaos pins every flush at 25 ms, so serving capacity is a number:
    // max_batch=8 per 25 ms. Four client threads per queue slot overload
    // it deterministically.
    let handle = start_server_overload(ServerConfig {
        batch: BatchConfig {
            max_batch: 8,
            queue_cap: 4,
        },
        chaos: tspn_serve::ChaosConfig {
            flush_delay: Some(Duration::from_millis(25)),
            ..Default::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let (reference, samples) = reference_predictor(7);
    let s = samples[0];
    let body = v1_body(&reference, &s, 4, 10);

    // Calm phase: one client, sequential — the p99 baseline.
    let mut client = Client::connect(&addr).expect("connect");
    let calm: Vec<Duration> = (0..12)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let (status, v) = client
                .post_json("/v1/predict", &body)
                .expect("calm predict I/O");
            assert_eq!(status, 200, "{v:?}");
            t0.elapsed()
        })
        .collect();
    let calm_p99 = p99(calm);

    // Overload phase: 16 concurrent clients (4x the queue, 2x max_batch)
    // hammering with no pauses. Every response must be a typed 200 answer
    // or a typed shed — never a hang or a reset.
    let per_client = 12usize;
    let results: Vec<(u16, Option<String>, Duration)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..16 {
            let (addr, body) = (addr.clone(), &body);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut out = Vec::new();
                for _ in 0..per_client {
                    let t0 = std::time::Instant::now();
                    let resp = client
                        .request_full("POST", "/v1/predict", Some(body))
                        .expect("overload predict I/O: typed shed expected, not a reset");
                    let v: Value = serde_json::from_str(&resp.body)
                        .unwrap_or_else(|e| panic!("untyped body {:?}: {e}", resp.body));
                    let code = error_of(&v).map(|(c, _)| c);
                    if resp.status != 200 {
                        assert!(
                            resp.retry_after.is_some(),
                            "shed without Retry-After: {v:?}"
                        );
                    }
                    out.push((resp.status, code, t0.elapsed()));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("load thread"))
            .collect()
    });

    let mut sheds = 0usize;
    let mut accepted = Vec::new();
    for (status, code, latency) in &results {
        match status {
            200 => accepted.push(*latency),
            429 => {
                assert_eq!(code.as_deref(), Some("overloaded"));
                sheds += 1;
            }
            503 => {
                assert_eq!(code.as_deref(), Some("deadline_exceeded"));
                sheds += 1;
            }
            other => panic!("unexpected status {other} under overload"),
        }
    }
    assert!(sheds > 0, "4x saturation never shed");
    assert!(!accepted.is_empty(), "overload starved every request");
    let accepted_p99 = p99(accepted);
    assert!(
        accepted_p99 <= calm_p99 * 3,
        "accepted p99 {accepted_p99:?} exceeds 3x calm p99 {calm_p99:?}"
    );

    // Deadline phase: a 1 ms budget cannot survive a 25 ms flush already
    // in progress — queued requests are dropped before the flush and
    // answered with a typed 503 deadline_exceeded.
    let stop = AtomicUsize::new(0);
    let expired = std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let (stop, body) = (&stop, &body);
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                while stop.load(Ordering::Acquire) == 0 {
                    let _ = client.post("/v1/predict", body);
                }
            });
        }
        let _release_hammers = StopGuard(&stop);
        let mut client = Client::connect(&addr).expect("connect");
        client.set_deadline_ms(Some(1));
        let mut expired = 0usize;
        for _ in 0..40 {
            let (status, v) = client
                .post_json("/v1/predict", &body)
                .expect("deadline predict I/O");
            match status {
                200 => {}
                // The hammers saturate the depth-4 queue, so this client's
                // requests legitimately shed 429 at admission too; only
                // requests that got *queued* can expire their 1 ms budget.
                429 => assert_eq!(error_of(&v).unwrap().0, "overloaded", "{v:?}"),
                503 => {
                    assert_eq!(error_of(&v).unwrap().0, "deadline_exceeded", "{v:?}");
                    expired += 1;
                }
                other => panic!("unexpected status {other} with a 1 ms deadline: {v:?}"),
            }
        }
        expired
    });
    assert!(
        expired > 0,
        "1 ms deadlines never expired against 25 ms flushes"
    );

    // The server recovered: queue drained, counters surfaced, and answers
    // are still bitwise the offline reference.
    std::thread::sleep(Duration::from_millis(200));
    let mut client = Client::connect(&addr).expect("connect");
    let stats = stats_of(&mut client);
    assert_eq!(stats.get("ready").and_then(Value::as_bool), Some(true));
    let overload = stats.get("overload").expect("overload object");
    assert_eq!(num_field(overload, "queue_cap"), 4);
    assert!(num_field(overload, "shed_queue_full") >= sheds as u64 / 2);
    assert!(num_field(overload, "shed_expired") >= expired as u64);
    assert_eq!(num_field(overload, "restarts"), 0);
    let (status, text) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&text).expect("health JSON");
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
    assert_eq!(num_field(&health, "queue_cap"), 4);
    assert!(health.get("shed").is_some(), "healthz lacks shed counters");

    let (status, v) = client
        .post_json("/v1/predict", &body)
        .expect("post-overload predict I/O");
    assert_eq!(status, 200);
    assert_eq!(
        pois_of(&v),
        reference.predict_one(&Query::with_top(s, 4, 10)).pois,
        "post-overload predictions diverged from the offline reference"
    );

    handle.shutdown();
    handle.join();
}
