//! The trainer's gradient step is exactly the documented straight-through
//! sequence on the owner's model: `batch_tables`, `reseed_dropout` with
//! `seed ^ step·0x9E3779B97F4A7C15`, the batched loss scaled by
//! `1/len`, `backward`, `grad_global_norm`/`clip_scale`, and
//! `Adam::step_scaled`, with the learning rate decayed once per epoch.
//! A hand-composed run of that sequence must reproduce `fit_epochs`'
//! losses and parameters bit for bit.
//!
//! Thread-count invariance of the same steps is pinned separately by
//! `tests/cross_thread_training.rs`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig, TspnRa};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Sample;
use tspn_tensor::{optim, Tensor};

fn config() -> TspnConfig {
    TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        batch_size: 6,
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

fn param_bits(params: &[Tensor]) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| p.to_vec())
        .map(f32::to_bits)
        .collect()
}

#[test]
fn fit_epochs_matches_hand_composed_straight_through_steps_bitwise() {
    let cfg = config();
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    let ctx = SpatialContext::build(ds, world, &cfg);
    // One batch per epoch, so epoch `e` is gradient step `e`.
    let train: Vec<Sample> = ctx
        .dataset
        .all_samples()
        .into_iter()
        .take(cfg.batch_size)
        .collect();

    let mut trainer = Trainer::new(cfg.clone(), ctx.clone());
    let stats = trainer.fit_epochs(&train, 2);

    // Hand-composed reference on a fresh model (same config seed, same
    // initial parameters). The batch order is the trainer's epoch shuffle,
    // drawn from `StdRng::seed_from_u64(seed ^ 0x7EA1)`.
    let model = TspnRa::new(cfg.clone(), &ctx);
    let params = model.params();
    let mut adam = optim::Adam::new(cfg.lr);
    let mut shuffle = StdRng::seed_from_u64(cfg.seed ^ 0x7EA1);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for (step, epoch) in stats.iter().enumerate() {
        order.shuffle(&mut shuffle);
        let batch: Vec<Sample> = order.iter().map(|&i| train[i]).collect();
        optim::zero_grad(&params);
        let tables = model.batch_tables(&ctx);
        model.reseed_dropout(cfg.seed ^ (step as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let loss = model
            .loss_batch(&ctx, &batch, &tables)
            .sum_all()
            .scale(1.0 / batch.len() as f32);
        assert_eq!(
            loss.item().to_bits(),
            epoch.mean_loss.to_bits(),
            "step {step}: loss diverged from fit_epochs"
        );
        loss.backward();
        let scale = optim::clip_scale(optim::grad_global_norm(&params), 5.0);
        adam.step_scaled(&params, scale, |_| {});
        adam.decay_lr(cfg.lr_decay);
    }
    assert_eq!(
        param_bits(&trainer.model.params()),
        param_bits(&params),
        "fit_epochs parameters diverged from the hand-composed steps"
    );
}
