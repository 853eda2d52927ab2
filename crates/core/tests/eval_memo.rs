//! Repeated evaluations reuse the owner's history encodings, exactly.
//!
//! `Trainer::evaluate` runs on the owner's model on the calling thread,
//! against batch tables cached per `(param version, ctx revision)`. The
//! model's history-encoding memo is keyed by those tables, so while the
//! parameters are unchanged a repeated evaluation encodes no history
//! again: the first call's every lookup hits on every later call, and a
//! smaller evaluation over the same histories (each sample alone) hits
//! too. A new parameter version brings new tables and a fresh memo.
//!
//! No thread count reaches evaluation, so the contract is exact and holds
//! under any `TSPN_NUM_THREADS`.

use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;

/// Identical evaluations after the first.
const REPEATS: usize = 5;

#[test]
fn repeated_evaluations_encode_each_history_once() {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 30;
    let (ds, world) = generate_dataset(dcfg);
    let cfg = TspnConfig {
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
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    // Every sample: several padded chunks, every user's history.
    let eval = ctx.dataset.all_samples();
    let trainer = Trainer::new(cfg, ctx);

    let evaluate = || {
        let before = trainer.model.history_memo_counts();
        let outcomes = trainer.evaluate(&eval);
        (outcomes, trainer.model.history_memo_counts().since(before))
    };
    let (first, cold) = evaluate();
    assert!(cold.misses > 0, "the first call encodes: {cold:?}");
    let lookups = cold.hits + cold.misses;
    for call in 1..=REPEATS {
        let (again, counts) = evaluate();
        assert_eq!(first, again, "call {call} changed an outcome");
        assert_eq!(
            counts.misses, 0,
            "call {call} encoded a history again: {counts:?}"
        );
        assert_eq!(
            counts.hits, lookups,
            "call {call} looked up a different set of histories: {counts:?}"
        );
    }

    // Any later evaluation that needs only histories encoded above is
    // answered from the memo too, whatever its size: here, each sample
    // alone.
    for (i, sample) in eval.iter().enumerate() {
        let before = trainer.model.history_memo_counts();
        let alone = trainer.evaluate(std::slice::from_ref(sample));
        let counts = trainer.model.history_memo_counts().since(before);
        assert_eq!(alone, [first[i]], "sample {i} alone changed its outcome");
        assert_eq!(
            counts.misses, 0,
            "sample {i} alone encoded again: {counts:?}"
        );
    }

    // A new parameter version brings new tables and a fresh memo.
    trainer.mark_model_dirty();
    let (refreshed_outcomes, refreshed) = evaluate();
    assert_eq!(first, refreshed_outcomes);
    assert!(
        refreshed.misses > 0,
        "a new parameter version kept the old memo: {refreshed:?}"
    );
}
