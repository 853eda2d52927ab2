//! Property tests for the PR-9 training hot path: the delta parameter
//! sync must be bitwise identical to the full-copy reference at every
//! batch size and thread count, and the shared-tables decomposition
//! (owner tape + shard gradient leaves + seeded backward) must reproduce
//! the straight-through serial tape bitwise.
//!
//! Thread count is whatever `TSPN_NUM_THREADS` says. Every thread count
//! trains through replicas, so the comparison is real even at 1: there
//! each batch is one shard, refreshed by delta or full-copy sync on the
//! calling thread's replica. CI re-runs this suite with
//! `TSPN_NUM_THREADS=3` (and `TSPN_SIMD=0`), where multi-shard gradient
//! merges and cross-thread replica refreshes are exercised too.

use std::sync::OnceLock;

use tspn_core::{BatchTables, Partition, SpatialContext, Trainer, TspnConfig, TspnRa};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Sample;
use tspn_tensor::{optim, Tensor};

fn config(batch_size: usize) -> TspnConfig {
    TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        batch_size,
        lr: 5e-3,
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
        dcfg.days = 12;
        let (ds, world) = generate_dataset(dcfg);
        let ctx = SpatialContext::build(ds, world, &config(4));
        let samples = ctx.dataset.all_samples();
        (ctx, samples)
    })
}

fn flat_params(trainer: &Trainer) -> Vec<u32> {
    trainer
        .model
        .params()
        .iter()
        .flat_map(|p| p.to_vec())
        .map(f32::to_bits)
        .collect()
}

/// Trains `epochs` epochs with the given sync mode and returns the final
/// parameter bits.
fn train_with_sync(batch_size: usize, delta: bool, epochs: usize) -> Vec<u32> {
    let (ctx, samples) = setup();
    let mut trainer = Trainer::new(config(batch_size), ctx.clone());
    trainer.set_delta_sync(delta);
    let train: Vec<Sample> = samples.iter().take(17).copied().collect();
    trainer.fit_epochs(&train, epochs);
    flat_params(&trainer)
}

#[test]
fn delta_sync_is_bitwise_identical_to_full_copy_across_batch_sizes() {
    for batch_size in [1, 3, 4, 8] {
        let delta = train_with_sync(batch_size, true, 2);
        let full = train_with_sync(batch_size, false, 2);
        assert_eq!(
            delta, full,
            "sync modes diverged at batch_size {batch_size}"
        );
    }
}

#[test]
fn delta_sync_survives_external_parameter_mutation() {
    // mark_model_dirty must force a republish: train, clobber a
    // parameter out-of-band, train again — both modes must agree.
    let run = |delta: bool| {
        let (ctx, samples) = setup();
        let mut trainer = Trainer::new(config(4), ctx.clone());
        trainer.set_delta_sync(delta);
        let train: Vec<Sample> = samples.iter().take(12).copied().collect();
        trainer.fit_epochs(&train, 1);
        let p = &trainer.model.params()[trainer.model.table_params_len()];
        let doctored: Vec<f32> = p.to_vec().iter().map(|v| v * 0.5).collect();
        p.set_data(&doctored);
        trainer.mark_model_dirty();
        trainer.fit_epochs(&train, 1);
        flat_params(&trainer)
    };
    assert_eq!(run(true), run(false), "dirty-mark republish diverged");
}

#[test]
fn shared_tables_gradients_match_straight_through_tape_bitwise() {
    // Reference: one serial tape, loss differentiated straight through
    // batch_tables. Decomposed: the same loss against value-leaves (what
    // a shard sees), then the merged leaf gradients pushed through a
    // separately built tables tape with backward_seeded (what the owner
    // does). Leaf gradients must equal the reference's tables-node
    // gradients, and the final parameter gradients must match bitwise.
    let (ctx, samples) = setup();
    let batch: Vec<Sample> = samples.iter().take(6).copied().collect();
    let seed = 0x5EED;

    // --- straight-through reference ---
    let model_a = TspnRa::new(config(4), ctx);
    let params_a = model_a.params();
    let tables_a = model_a.batch_tables(ctx);
    model_a.reseed_dropout(seed);
    optim::zero_grad(&params_a);
    let loss_a = model_a
        .loss_batch(ctx, &batch, &tables_a)
        .sum_all()
        .scale(1.0 / batch.len() as f32);
    loss_a.backward();
    let tiles_grad_ref = tables_a.tiles.grad();
    let pois_grad_ref = tables_a.pois.grad();
    let grads_a: Vec<Vec<f32>> = params_a.iter().map(|p| p.grad()).collect();

    // --- shared-tables decomposition (same init: same config seed) ---
    let model_b = TspnRa::new(config(4), ctx);
    let params_b = model_b.params();
    let tables_tape = model_b.batch_tables(ctx);
    let leaves = BatchTables {
        tiles: Tensor::param(
            tables_tape.tiles.to_vec(),
            tables_tape.tiles.shape().0.clone(),
        ),
        pois: Tensor::param(
            tables_tape.pois.to_vec(),
            tables_tape.pois.shape().0.clone(),
        ),
    };
    model_b.reseed_dropout(seed);
    optim::zero_grad(&params_b);
    let loss_b = model_b
        .loss_batch(ctx, &batch, &leaves)
        .sum_all()
        .scale(1.0 / batch.len() as f32);
    loss_b.backward();
    assert_eq!(
        loss_a.item().to_bits(),
        loss_b.item().to_bits(),
        "loss must not depend on the decomposition"
    );
    let tiles_grad = leaves.tiles.grad();
    let pois_grad = leaves.pois.grad();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&tiles_grad),
        bits(&tiles_grad_ref),
        "tile leaf gradients diverged from the tables-node reference"
    );
    assert_eq!(
        bits(&pois_grad),
        bits(&pois_grad_ref),
        "POI leaf gradients diverged from the tables-node reference"
    );
    // Owner-side merge: push the leaf gradients through the tables tape.
    tables_tape.tiles.backward_seeded(&tiles_grad);
    tables_tape.pois.backward_seeded(&pois_grad);
    for (i, (pa, pb)) in params_a.iter().zip(&params_b).enumerate() {
        assert_eq!(
            bits(&grads_a[i]),
            bits(&pb.grad()),
            "parameter {i} gradient diverged ({} vs {})",
            pa.shape(),
            pb.shape()
        );
    }
}
