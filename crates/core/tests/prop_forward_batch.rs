//! Property tests for the padded, masked batched forward: per-sample
//! losses, forward outputs and rankings must be **bitwise** identical to
//! the per-sample reference (rankings: the shared oracle in `support`,
//! which ranks the reference forward's outputs) at every batch size and
//! batch composition; gradients must be bitwise identical for a batch of
//! one (multi-sample gradients agree with the reference to float
//! associativity — shared tables receive the same contributions grouped
//! per batched op instead of per sample).

mod support;

use std::sync::OnceLock;

use proptest::prelude::*;

use tspn_core::{Partition, SpatialContext, Subject, TspnConfig, TspnRa};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Sample;
use tspn_tensor::{optim, Tensor};

fn config() -> TspnConfig {
    TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 2,
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

/// Context and samples are immutable and expensive; build them once.
fn setup() -> &'static (SpatialContext, Vec<Sample>) {
    static SETUP: OnceLock<(SpatialContext, Vec<Sample>)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut dcfg = nyc_mini(0.1);
        dcfg.days = 14;
        let (ds, world) = generate_dataset(dcfg);
        let ctx = SpatialContext::build(ds, world, &config());
        let samples = ctx.dataset.all_samples();
        (ctx, samples)
    })
}

/// Picks a ragged batch: `span` indexes spread across the sample set so
/// prefix lengths 1‥max_prefix all occur.
fn pick(samples: &[Sample], picks: &[usize]) -> Vec<Sample> {
    picks.iter().map(|&i| samples[i % samples.len()]).collect()
}

/// Per-sample reference: losses under the same dropout stream.
fn reference_losses(model: &TspnRa, ctx: &SpatialContext, batch: &[Sample]) -> Vec<f32> {
    let tables = model.batch_tables(ctx);
    model.reseed_dropout(0xBEEF);
    batch
        .iter()
        .map(|s| model.loss(ctx, s, &tables).item())
        .collect()
}

fn batched_losses(model: &TspnRa, ctx: &SpatialContext, batch: &[Sample]) -> Vec<f32> {
    let tables = model.batch_tables(ctx);
    model.reseed_dropout(0xBEEF);
    model.loss_batch(ctx, batch, &tables).to_vec()
}

/// Gradient snapshot after one backward from the mean batch loss.
fn grads_of(loss: Tensor, params: &[Tensor]) -> Vec<Vec<f32>> {
    optim::zero_grad(params);
    loss.backward();
    params.iter().map(|p| p.grad()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_losses_match_per_sample_reference_bitwise(
        picks in proptest::collection::vec(0..10_000usize, 1..12)
    ) {
        let (ctx, samples) = setup();
        let batch = pick(samples, &picks);
        let model = TspnRa::new(config(), ctx);
        let reference = reference_losses(&model, ctx, &batch);
        let batched = batched_losses(&model, ctx, &batch);
        assert!(
            batched == reference,
            "losses diverged for picks {picks:?}:\n batched  {batched:?}\n reference {reference:?}"
        );
        // Forward output row `b` is the reference forward of `batch[b]`.
        let tables = model.batch_tables(ctx);
        let out = model.forward_batch(ctx, &batch, &tables, false);
        let (rows_t, rows_p) = (out.h_out_t.to_vec(), out.h_out_p.to_vec());
        let dm = model.config.dm;
        for (b, s) in batch.iter().enumerate() {
            let (want_t, want_p) = model.forward(ctx, s, &tables, false);
            let row = b * dm..(b + 1) * dm;
            assert!(
                bits(&rows_t[row.clone()]) == bits(&want_t.to_vec())
                    && bits(&rows_p[row]) == bits(&want_p.to_vec()),
                "forward row {b} diverged for picks {picks:?}"
            );
        }
    }

    #[test]
    fn batched_rankings_match_per_sample_reference_bitwise(
        picks in proptest::collection::vec(0..10_000usize, 1..10),
        k in 1..6usize,
        two_step in any::<bool>()
    ) {
        let (ctx, samples) = setup();
        let batch = pick(samples, &picks);
        let mut cfg = config();
        cfg.variant.two_step = two_step;
        let model = TspnRa::new(cfg, ctx);
        let tables = Tensor::no_grad(|| model.batch_tables(ctx));
        let queries: Vec<(Subject, usize)> = batch.iter().map(|&s| (Subject::from(s), k)).collect();
        let many = model.predict_many(ctx, &queries, &tables);
        for ((subject, _), got) in queries.iter().zip(&many) {
            let want = support::oracle_predict(&model, ctx, subject, &tables, k);
            prop_assert_eq!(&got.tile_ranking, &want.tile_ranking);
            prop_assert_eq!(&got.poi_ranking, &want.poi_ranking);
            prop_assert_eq!(got.candidate_count, want.candidate_count);
        }
    }
}

#[test]
fn fixed_batch_sizes_one_two_odd_max_match_reference_bitwise() {
    // The sizes the issue names explicitly, with ragged prefixes: 1, 2,
    // odd, and the full configured batch size upper bound.
    let (ctx, samples) = setup();
    let model = TspnRa::new(config(), ctx);
    for &(start, len) in &[(0usize, 1usize), (3, 2), (10, 5), (17, 16)] {
        let batch = pick(samples, &(start..start + len).collect::<Vec<_>>());
        let reference = reference_losses(&model, ctx, &batch);
        let batched = batched_losses(&model, ctx, &batch);
        assert!(
            batched == reference,
            "size {len}: batched {batched:?} vs reference {reference:?}"
        );
    }
}

#[test]
fn single_sample_gradients_match_reference_bitwise() {
    // With one sample the batched tape performs the reference tape's ops
    // in the reference order, so even the gradients are bit-for-bit.
    let (ctx, samples) = setup();
    let model = TspnRa::new(config(), ctx);
    let params = model.params();
    for &i in &[0usize, 7, 23] {
        let batch = pick(samples, &[i]);
        let tables = model.batch_tables(ctx);
        model.reseed_dropout(42);
        let reference = grads_of(model.loss(ctx, &batch[0], &tables), &params);
        let tables = model.batch_tables(ctx);
        model.reseed_dropout(42);
        let batched = grads_of(
            model.loss_batch(ctx, &batch, &tables).sum_all().scale(1.0),
            &params,
        );
        for (pi, (b, r)) in batched.iter().zip(&reference).enumerate() {
            assert!(b == r, "sample {i}: param {pi} gradients diverged");
        }
    }
}

#[test]
fn multi_sample_gradients_match_reference_within_tolerance() {
    // Multi-sample batches group each parameter's per-sample gradient
    // contributions per batched op instead of per sample; the sums agree
    // to float associativity.
    let (ctx, samples) = setup();
    let model = TspnRa::new(config(), ctx);
    let params = model.params();
    let batch = pick(samples, &(5..12).collect::<Vec<_>>());

    let tables = model.batch_tables(ctx);
    model.reseed_dropout(7);
    let inv = 1.0 / batch.len() as f32;
    let batched = grads_of(
        model.loss_batch(ctx, &batch, &tables).sum_all().scale(inv),
        &params,
    );

    let tables = model.batch_tables(ctx);
    model.reseed_dropout(7);
    let mut acc: Option<Tensor> = None;
    for s in &batch {
        let loss = model.loss(ctx, s, &tables);
        acc = Some(match acc {
            Some(a) => a.add(&loss),
            None => loss,
        });
    }
    let reference = grads_of(acc.expect("non-empty").scale(inv), &params);

    for (pi, (b, r)) in batched.iter().zip(&reference).enumerate() {
        for (j, (bv, rv)) in b.iter().zip(r).enumerate() {
            assert!(
                (bv - rv).abs() <= 2e-4 * rv.abs().max(1.0),
                "param {pi} grad {j}: batched {bv} vs reference {rv}"
            );
        }
    }
}

#[test]
fn ragged_prefixes_cover_length_one_and_max() {
    // Guard that the test corpus really is ragged: the picked spreads
    // must include a length-1 prefix and the configured maximum, so the
    // padding paths above are genuinely exercised.
    let (_ctx, samples) = setup();
    let lens: Vec<usize> = samples
        .iter()
        .take(40)
        .map(|s| s.prefix_len.min(config().max_prefix))
        .collect();
    assert!(lens.contains(&1), "no length-1 prefix in the corpus head");
    assert!(
        lens.iter().any(|&l| l >= 4),
        "no long prefix in the corpus head: {lens:?}"
    );
}
