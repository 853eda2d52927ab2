//! The payload-addressing acceptance contract: an ad-hoc subject built
//! from a sample's raw check-in stream must predict **bitwise**
//! identically to the dataset-indexed sample — for every trajectory in
//! the dataset, at every batch composition mixing indexed, payload, and
//! session-style (incrementally assembled) queries, on the batched path
//! and as a batch of one, and equal to the per-sample
//! ranking oracle in `support`.

mod support;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use tspn_core::{Partition, Predictor, Query, SpatialContext, Subject, TspnConfig, TspnRa};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::{AdHocTrajectory, Sample, UserId, Visit, DEFAULT_GAP_SECS};

fn config() -> TspnConfig {
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
        ..TspnConfig::default()
    }
}

/// Context and samples are immutable, `Sync`, and expensive; build once.
/// Models/predictors are built per test (the tape is `Rc`-based and
/// thread-pinned); the fixed seeds make every instance bitwise identical.
fn setup_ctx() -> &'static (SpatialContext, Vec<Sample>) {
    static SETUP: OnceLock<(SpatialContext, Vec<Sample>)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut dcfg = nyc_mini(0.1);
        dcfg.days = 12;
        let (ds, world) = generate_dataset(dcfg);
        let ctx = SpatialContext::build(ds, world, &config());
        let samples = ctx.dataset.all_samples();
        (ctx, samples)
    })
}

/// A fresh deterministic predictor over its own copy of the dataset
/// (identical to `setup_ctx`'s by construction).
fn setup_predictor() -> (Predictor, Vec<Sample>) {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    let ctx = SpatialContext::build(ds, world, &config());
    let samples = ctx.dataset.all_samples();
    (Predictor::new(config(), ctx), samples)
}

/// The payload subject equivalent to an indexed sample: its raw check-in
/// stream, re-split server-style at the trajectory gap.
fn payload_subject(ctx: &SpatialContext, s: &Sample) -> Arc<AdHocTrajectory> {
    let stream = ctx.dataset.sample_checkins(s);
    Arc::new(
        AdHocTrajectory::from_checkins(UserId(s.user_index), &stream, DEFAULT_GAP_SECS)
            .expect("dataset streams are valid"),
    )
}

/// A session-style subject: the same stream assembled from incremental
/// appends (history first, then the current prefix visit by visit), as
/// the server-side session store accumulates it.
fn session_subject(ctx: &SpatialContext, s: &Sample) -> Arc<AdHocTrajectory> {
    let stream = ctx.dataset.sample_checkins(s);
    let mut assembled: Vec<Visit> = Vec::new();
    let history_len = stream.len() - s.prefix_len.min(stream.len());
    assembled.extend_from_slice(&stream[..history_len]);
    for v in &stream[history_len..] {
        assembled.push(*v); // one append per observed visit
    }
    Arc::new(
        AdHocTrajectory::from_checkins(UserId(s.user_index), &assembled, DEFAULT_GAP_SECS)
            .expect("assembled streams are valid"),
    )
}

#[test]
fn every_in_dataset_trajectory_predicts_identically_by_payload_and_index() {
    // Exhaustive over the dataset, including the true online next-visit
    // queries (prefix_len == trajectory length, which all_samples never
    // yields): one big mixed batch of indexed/payload pairs, answered by
    // the batched path, then spot-checked as batches of one.
    let (pred, samples) = setup_predictor();
    let samples = &samples;
    let ctx = pred.ctx();
    let mut queries: Vec<Query> = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        queries.push(Query::with_top(*s, 4, 10));
        queries.push(Query {
            subject: Subject::AdHoc(payload_subject(ctx, s)),
            k: 4,
            top: 10,
        });
    }
    // Next-visit queries for every trajectory's full length.
    let mut next_visit: Vec<Sample> = Vec::new();
    for (ui, user) in ctx.dataset.users.iter().enumerate() {
        for (ti, traj) in user.trajectories.iter().enumerate() {
            next_visit.push(Sample {
                user_index: ui,
                traj_index: ti,
                prefix_len: traj.visits.len(),
            });
        }
    }
    for s in &next_visit {
        queries.push(Query::with_top(*s, 4, 10));
        queries.push(Query {
            subject: Subject::AdHoc(payload_subject(ctx, s)),
            k: 4,
            top: 10,
        });
    }

    let answers = pred.predict_batch(&queries);
    for pair in answers.chunks(2) {
        assert_eq!(pair[0], pair[1], "payload diverged from index");
    }
    // Batch-of-one spot checks (first, last, and a middle pair).
    for i in [0usize, (queries.len() / 2) & !1, queries.len() - 2] {
        let indexed = pred.predict_one(&queries[i]);
        let payload = pred.predict_one(&queries[i + 1]);
        assert_eq!(indexed, payload);
        assert_eq!(indexed, answers[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random batch compositions: indexed, payload, and session-style
    /// subjects with mixed `k`, shuffled and with duplicates, run through
    /// one batched `predict_many` tape. Every answer must equal the
    /// per-sample oracle's ranking of the indexed subject, bitwise —
    /// regardless of which other address modes share the batch.
    #[test]
    fn mixed_compositions_answer_bitwise_identically(
        picks in proptest::collection::vec((0..10_000usize, 0..3u8, 1..6usize), 1..24)
    ) {
        let (ctx, samples) = setup_ctx();
        let model = TspnRa::new(config(), ctx);
        let tables = tspn_tensor::Tensor::no_grad(|| model.batch_tables(ctx));
        let queries: Vec<(Subject, usize)> = picks
            .iter()
            .map(|&(i, mode, k)| {
                let s = samples[i % samples.len()];
                let subject = match mode {
                    0 => Subject::from(s),
                    1 => Subject::AdHoc(payload_subject(ctx, &s)),
                    _ => Subject::AdHoc(session_subject(ctx, &s)),
                };
                (subject, k)
            })
            .collect();
        let answers = model.predict_many(ctx, &queries, &tables);
        for (&(i, _, k), got) in picks.iter().zip(&answers) {
            let s = samples[i % samples.len()];
            let want = support::oracle_predict(&model, ctx, &Subject::from(s), &tables, k);
            prop_assert_eq!(&got.poi_ranking, &want.poi_ranking, "composition broke {:?}", s);
            prop_assert_eq!(&got.tile_ranking, &want.tile_ranking);
            prop_assert_eq!(got.candidate_count, want.candidate_count);
        }
    }
}
