//! Fixtures shared by the serving test binaries: the tiny model config
//! and its deterministic context, the offline reference predictor, request
//! bodies, response field readers, and the overload-configured server.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Value;
use tspn_core::{Partition, Predictor, SpatialContext, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::{PoiId, Sample, Visit};
use tspn_serve::protocol::v1_predict_request_body;
use tspn_serve::{server, Client, ServerConfig, ServerHandle};

pub fn tiny_model_cfg(seed: u64) -> TspnConfig {
    TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        max_prefix: 6,
        max_history: 16,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 10,
        },
        seed,
        ..TspnConfig::default()
    }
}

/// The deterministic serving context (regenerable at will: client-side
/// reference predictors see the same dataset the server serves).
pub fn tiny_ctx(cfg: &TspnConfig) -> SpatialContext {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    SpatialContext::build(ds, world, cfg)
}

pub fn reference_predictor(seed: u64) -> (Predictor, Vec<Sample>) {
    let cfg = tiny_model_cfg(seed);
    let ctx = tiny_ctx(&cfg);
    let samples = ctx.dataset.all_samples();
    (Predictor::new(cfg, ctx), samples)
}

/// The `/v1/predict` body carrying sample `s`'s raw check-in stream. The
/// server answers it bitwise like the offline `Query::with_top(s, k, top)`.
pub fn v1_body(reference: &Predictor, s: &Sample, k: usize, top: usize) -> String {
    v1_predict_request_body(s.user_index, &stream_of(reference, s), k, top)
}

pub fn pois_of(v: &Value) -> Vec<PoiId> {
    tspn_serve::protocol::pois_of(v).unwrap_or_else(|| panic!("missing pois array: {v:?}"))
}

pub fn num_field(v: &Value, name: &str) -> u64 {
    v.get(name)
        .and_then(Value::as_usize)
        .unwrap_or_else(|| panic!("missing numeric field {name:?} in {v:?}")) as u64
}

/// Releases `stop`-gated hammer threads even when the owning scope body
/// panics — otherwise `thread::scope`'s implicit join would wait on them
/// forever and the panic would surface as a hang instead of a failure.
pub struct StopGuard<'a>(pub &'a AtomicUsize);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(1, Ordering::Release);
    }
}

/// The raw check-in stream a client would send to address `s` by payload.
pub fn stream_of(reference: &Predictor, s: &Sample) -> Vec<Visit> {
    reference.ctx().dataset.sample_checkins(s)
}

/// Server with explicit overload / chaos knobs (model seed 7 everywhere so
/// the reference predictor matches).
pub fn start_server_overload(cfg: ServerConfig) -> ServerHandle {
    let model_cfg = tiny_model_cfg(7);
    let ctx = tiny_ctx(&model_cfg);
    server::start(cfg, model_cfg, ctx, None).expect("server starts")
}

/// The stats `aggregate` ledger (every lane's counters summed).
pub fn stats_of(client: &mut Client) -> Value {
    let (status, text) = client.get("/v1/stats").expect("stats I/O");
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&text).expect("stats JSON");
    stats.get("aggregate").cloned().expect("aggregate object")
}
