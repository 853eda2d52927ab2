//! Pool acceptance at the full-model level: after a warm-up epoch, the
//! training loop must be served overwhelmingly from recycled buffers.
//!
//! Lives in its own integration binary (= its own process) so the
//! process-global pool counters see only this test's traffic; an exact
//! zero-miss assertion for a fixed-shape loop lives in tspn-tensor's
//! `steady_state_alloc` test. Full model training keeps a small miss tail
//! because per-sample candidate sets produce occasional first-seen buffer
//! lengths. A serving lane trims its thread-local cache once per flush;
//! the last test checks that reuse survives that trim.

use std::sync::{Arc, Mutex};

use tspn_core::{Partition, Predictor, Query, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::{AdHocTrajectory, Sample, UserId, DEFAULT_GAP_SECS};
use tspn_tensor::pool;

/// The pool counters are process-global; serialise the tests so each
/// sees only its own traffic.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn build_trainer() -> (Trainer, Vec<Sample>) {
    let (cfg, ctx) = build_context();
    let samples = ctx.dataset.all_samples();
    (Trainer::new(cfg, ctx), samples)
}

fn build_context() -> (TspnConfig, SpatialContext) {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    let cfg = TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        batch_size: 4,
        epochs: 1,
        lr: 5e-3,
        max_prefix: 6,
        max_history: 16,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 10,
        },
        ..TspnConfig::default()
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    (cfg, ctx)
}

#[test]
fn steady_state_training_mostly_hits_the_buffer_pool() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut trainer, samples) = build_trainer();
    let train: Vec<Sample> = samples.iter().take(16).copied().collect();

    // Warm-up: first-seen lengths allocate. The dense jagged batched
    // forward sizes its sequence tensors by each batch's total live
    // length, so different shuffles produce different buffer lengths —
    // a few epochs cover the length distribution.
    trainer.fit_epochs(&train, 3);
    pool::reset_stats();
    trainer.fit_epochs(&train, 1);
    let stats = pool::stats();
    assert!(
        stats.hits + stats.misses > 1000,
        "expected substantial pool traffic, saw {stats:?}"
    );
    // The jagged batch tensors' lengths depend on each shuffled batch's
    // total live positions, so a fresh shuffle keeps producing a few
    // first-seen lengths; the bulk of the traffic must still recycle.
    assert!(
        stats.hit_rate() > 0.85,
        "steady-state hit rate too low: {stats:?}"
    );
}

#[test]
fn steady_state_sharded_step_allocates_zero_tensor_buffers() {
    // A steady-state training epoch must be served ENTIRELY from
    // recycled buffers — pool misses == 0. Every step is one taped pass
    // on the calling thread, and every kernel inside it runs on that
    // thread too, so no buffer changes threads at any TSPN_NUM_THREADS;
    // repeating one sample keeps every tensor geometry identical across
    // batches regardless of shuffle order. The first measured epoch
    // should clear the bar; the loop below tolerates a few warm-up
    // epochs, while a hot path that allocated per step would never
    // converge and fails the bound.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut trainer, samples) = build_trainer();
    let train = vec![samples[0]; 4];

    trainer.fit_epochs(&train, 3);
    let mut last = None;
    for _ in 0..6 {
        pool::reset_stats();
        trainer.fit_epochs(&train, 1);
        let stats = pool::stats();
        assert!(
            stats.hits > 200,
            "expected substantial pool traffic, saw {stats:?}"
        );
        if stats.misses == 0 {
            return;
        }
        last = Some(stats);
    }
    panic!("sharded steady state kept allocating tensor buffers: {last:?}");
}

#[test]
fn serving_flushes_keep_hitting_the_pool_across_thread_local_trims() {
    // A serving lane answers single-query flushes of payload subjects and
    // trims its thread-local cache after each. Lengths it keeps using
    // must survive the trim: once the stream has been seen, replaying it
    // is served from recycled buffers.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, ctx) = build_context();
    let stream: Vec<Query> = ctx
        .dataset
        .all_samples()
        .iter()
        .take(200)
        .map(|s| {
            let checkins = ctx.dataset.sample_checkins(s);
            let trajectory =
                AdHocTrajectory::from_checkins(UserId(s.user_index), &checkins, DEFAULT_GAP_SECS)
                    .expect("dataset streams are valid");
            Query::adhoc(Arc::new(trajectory), cfg.top_k, 10)
        })
        .collect();
    let predictor = Predictor::new(cfg, ctx);
    let serve = |queries: &[Query]| {
        for q in queries {
            predictor.predict_batch(std::slice::from_ref(q));
            pool::trim_thread_local();
        }
    };

    serve(&stream);
    pool::reset_stats();
    serve(&stream);
    let stats = pool::stats();
    assert!(
        stats.hits + stats.misses > 1000,
        "expected substantial pool traffic, saw {stats:?}"
    );
    assert!(
        stats.hit_rate() >= 0.99,
        "replayed serving stream missed the pool: {stats:?}"
    );
}
