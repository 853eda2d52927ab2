//! The online-serving face of the model: batched queries, truncated
//! top-k answers, and atomic (validate-then-apply) checkpoint loading.
//!
//! [`Predictor`] wraps a [`Trainer`] so the serving layer and the offline
//! evaluation harness run the *same* batched prediction code path
//! ([`Trainer::predict_batch`] / [`Trainer::evaluate_with_k`]): queries
//! are sharded across the persistent worker pool onto cached per-thread
//! model replicas, and every answer is bitwise identical to answering the
//! same query alone, as a batch of one ([`Predictor::predict_one`]).
//! [`crate::TspnRa::predict_many`] is the one inference path under all
//! of these.
//!
//! Checkpoint loading is atomic at this level: [`Predictor::load_checkpoint`]
//! first validates the checkpoint in full (every parameter present, every
//! shape matching, every value finite) and only then writes any tensor, so
//! a corrupt or mismatched file can never leave the model half-restored —
//! the contract the serving layer's hot-swap relies on.

use std::sync::Arc;

use tspn_data::{AdHocTrajectory, Sample};
use tspn_tensor::serialize::Checkpoint;

use crate::config::TspnConfig;
use crate::context::SpatialContext;
use crate::model::{Prediction, TspnRa};
use crate::subject::Subject;
use crate::trainer::Trainer;

/// One batched-prediction request: which [`Subject`] to extend — a
/// dataset-indexed sample or an owned ad-hoc trajectory — the tile
/// selector's K, and how many results to keep.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// What to predict for.
    pub subject: Subject,
    /// Top-K tiles kept by the tile selector (step 1).
    pub k: usize,
    /// How many POIs/tiles to keep in the returned [`TopK`].
    pub top: usize,
}

impl Query {
    /// An index-addressed query returning the full ranking (no truncation).
    pub fn new(sample: Sample, k: usize) -> Self {
        Query {
            subject: Subject::Indexed(sample),
            k,
            top: usize::MAX,
        }
    }

    /// An index-addressed query truncated to the best `top` results.
    pub fn with_top(sample: Sample, k: usize, top: usize) -> Self {
        Query {
            subject: Subject::Indexed(sample),
            k,
            top,
        }
    }

    /// A payload-addressed query over an owned trajectory, truncated to
    /// the best `top` results.
    pub fn adhoc(trajectory: Arc<AdHocTrajectory>, k: usize, top: usize) -> Self {
        Query {
            subject: Subject::AdHoc(trajectory),
            k,
            top,
        }
    }

    /// The indexed sample this query addresses, when it is one.
    pub fn indexed_sample(&self) -> Option<Sample> {
        self.subject.indexed()
    }
}

/// The truncated answer to one [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    /// Best-first POI ids (`R_P`, truncated to the query's `top`).
    pub pois: Vec<tspn_data::PoiId>,
    /// Best-first leaf-tile ranks (`R_T`, truncated likewise; empty in
    /// the single-step ablation).
    pub tiles: Vec<usize>,
    /// How many POI candidates the second step considered (pre-truncation
    /// length of `R_P`).
    pub candidate_count: usize,
}

impl TopK {
    /// Truncates a full [`Prediction`] to its best `top` entries.
    pub fn from_prediction(pred: Prediction, top: usize) -> Self {
        let Prediction {
            mut tile_ranking,
            mut poi_ranking,
            candidate_count,
        } = pred;
        poi_ranking.truncate(top);
        tile_ranking.truncate(top);
        TopK {
            pois: poi_ranking,
            tiles: tile_ranking,
            candidate_count,
        }
    }
}

/// A model held for online serving: answers query batches and hot-swaps
/// checkpoints without ever exposing a half-restored parameter state.
pub struct Predictor {
    trainer: Trainer,
}

impl Predictor {
    /// Builds a predictor with freshly initialised parameters.
    pub fn new(config: TspnConfig, ctx: SpatialContext) -> Self {
        Predictor {
            trainer: Trainer::new(config, ctx),
        }
    }

    /// Discards the model (whose state a panic mid-forward may have left
    /// inconsistent) and rebuilds a fresh one over the same spatial
    /// context and configuration. The context is immutable at serving
    /// time, so only the parameters need restoring afterwards — callers
    /// follow up with [`Predictor::load_checkpoint`] from their last good
    /// snapshot. This is the supervisor's crash-recovery primitive.
    pub fn rebuild(self) -> Predictor {
        let config = self.trainer.model.config.clone();
        let ctx = self.trainer.ctx;
        Predictor::new(config, ctx)
    }

    /// The spatial context the model serves against.
    pub fn ctx(&self) -> &SpatialContext {
        &self.trainer.ctx
    }

    /// The model configuration.
    pub fn config(&self) -> &TspnConfig {
        &self.trainer.model.config
    }

    /// The wrapped model (read access; mutate via checkpoints only).
    pub fn model(&self) -> &TspnRa {
        &self.trainer.model
    }

    /// Snapshots the current parameters ([`TspnRa::save`] format).
    pub fn save(&self) -> Checkpoint {
        self.trainer.model.save()
    }

    /// Validates a checkpoint against this model without touching any
    /// parameter: every named parameter must be present with the exact
    /// shape, and every stored value must be finite.
    ///
    /// # Errors
    /// Returns a message naming the first violation.
    pub fn validate_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), String> {
        for (name, tensor) in self.trainer.model.named_params() {
            let rec = ckpt
                .tensors
                .iter()
                .find(|r| r.name == name)
                .ok_or_else(|| format!("checkpoint missing tensor {name:?}"))?;
            if rec.shape != tensor.shape().0 {
                return Err(format!(
                    "shape mismatch for {name:?}: checkpoint {:?}, model {:?}",
                    rec.shape,
                    tensor.shape().0
                ));
            }
            // A right-shaped record can still carry the wrong number of
            // values (truncated file); without this check the restore
            // below would panic mid-write and break atomicity.
            if rec.data.len() != tensor.len() {
                return Err(format!(
                    "data length {} does not match shape {:?} for {name:?}",
                    rec.data.len(),
                    rec.shape
                ));
            }
            if let Some(bad) = rec.data.iter().find(|v| !v.is_finite()) {
                return Err(format!("non-finite value {bad} in tensor {name:?}"));
            }
        }
        Ok(())
    }

    /// Atomically replaces the parameters from a checkpoint: validates
    /// first ([`Predictor::validate_checkpoint`]), then restores, then
    /// invalidates the cached batch tables. On a validation error **no**
    /// parameter has been modified and the predictor keeps serving the old
    /// snapshot.
    ///
    /// The restore checks a subset of what validation checks, so it cannot
    /// fail once validation has passed. Should it ever, its message is
    /// returned rather than panicking the caller (the `/admin/reload`
    /// handler or the serving supervisor), and the cached tables are still
    /// invalidated because some parameters may already have been written.
    ///
    /// # Errors
    /// Returns the validation message on a corrupt or mismatched file.
    pub fn load_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), String> {
        self.validate_checkpoint(ckpt)?;
        let restored = self.trainer.model.load(ckpt);
        self.trainer.mark_model_dirty();
        restored
    }

    /// Answers a batch of queries in order; see [`Trainer::predict_batch`].
    pub fn predict_batch(&self, queries: &[Query]) -> Vec<TopK> {
        self.trainer.predict_batch(queries)
    }

    /// Answers one query: a batch of one through
    /// [`Predictor::predict_batch`].
    pub fn predict_one(&self, query: &Query) -> TopK {
        self.predict_batch(std::slice::from_ref(query))
            .pop()
            .expect("one query yields one answer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Partition;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;

    fn tiny_predictor() -> (Predictor, Vec<Sample>) {
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
            max_prefix: 6,
            max_history: 16,
            partition: Partition::QuadTree {
                max_depth: 5,
                leaf_capacity: 10,
            },
            ..TspnConfig::default()
        };
        let ctx = SpatialContext::build(ds, world, &cfg);
        let samples = ctx.dataset.all_samples();
        (Predictor::new(cfg, ctx), samples)
    }

    #[test]
    fn predict_batch_matches_single_calls_bitwise() {
        let (pred, samples) = tiny_predictor();
        let queries: Vec<Query> = samples
            .iter()
            .take(24)
            .map(|&s| Query::with_top(s, 4, 10))
            .collect();
        let batched = pred.predict_batch(&queries);
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(got, &pred.predict_one(q), "query {q:?} diverged");
            assert!(got.pois.len() <= 10);
            assert!(!got.pois.is_empty());
        }
    }

    #[test]
    fn truncation_is_a_prefix_of_the_full_ranking() {
        let (pred, samples) = tiny_predictor();
        let s = samples[0];
        let full = pred.predict_one(&Query::new(s, 4));
        let cut = pred.predict_one(&Query::with_top(s, 4, 3));
        assert_eq!(cut.pois.as_slice(), &full.pois[..3.min(full.pois.len())]);
        assert_eq!(cut.candidate_count, full.candidate_count);
    }

    #[test]
    fn load_checkpoint_is_atomic_on_corruption() {
        let (pred, samples) = tiny_predictor();
        let q = Query::with_top(samples[0], 4, 8);
        let before = pred.predict_one(&q);
        let good = pred.save();

        // Missing tensor: rejected, nothing restored.
        let mut missing = good.clone();
        missing.tensors.remove(0);
        assert!(pred
            .load_checkpoint(&missing)
            .unwrap_err()
            .contains("missing"));
        assert_eq!(pred.predict_one(&q), before);

        // Non-finite value: rejected even though shapes all match.
        let mut nan = good.clone();
        let last = nan.tensors.len() - 1;
        nan.tensors[last].data[0] = f32::NAN;
        assert!(pred
            .load_checkpoint(&nan)
            .unwrap_err()
            .contains("non-finite"));
        assert_eq!(pred.predict_one(&q), before);

        // Shape mismatch: rejected.
        let mut reshaped = good.clone();
        reshaped.tensors[0].shape = vec![1];
        reshaped.tensors[0].data = vec![0.0];
        assert!(pred
            .load_checkpoint(&reshaped)
            .unwrap_err()
            .contains("shape mismatch"));
        assert_eq!(pred.predict_one(&q), before);

        // Right shape but truncated values (a partially written file):
        // must be rejected here, not panic mid-restore after earlier
        // tensors were already overwritten.
        let mut truncated = good.clone();
        truncated.tensors[last].data.pop();
        assert!(pred
            .load_checkpoint(&truncated)
            .unwrap_err()
            .contains("data length"));
        assert_eq!(pred.predict_one(&q), before);

        // The untouched checkpoint still loads and reproduces bitwise.
        pred.load_checkpoint(&good).expect("valid checkpoint");
        assert_eq!(pred.predict_one(&q), before);
    }

    #[test]
    fn load_checkpoint_swaps_predictions() {
        let (pred, samples) = tiny_predictor();
        let q = Query::new(samples[0], 4);
        let original = pred.predict_one(&q);
        let ckpt_a = pred.save();

        // A differently-seeded model ranks differently; loading its
        // checkpoint must change the answers, and loading the original
        // must restore them exactly.
        let other = {
            let mut dcfg = nyc_mini(0.1);
            dcfg.days = 12;
            let (ds, world) = generate_dataset(dcfg);
            let cfg = TspnConfig {
                seed: 999,
                ..pred.config().clone()
            };
            let ctx = SpatialContext::build(ds, world, &cfg);
            Predictor::new(cfg, ctx)
        };
        let ckpt_b = other.save();
        pred.load_checkpoint(&ckpt_b).expect("same architecture");
        let swapped = pred.predict_one(&q);
        assert_ne!(
            swapped, original,
            "different parameters must rank differently"
        );
        pred.load_checkpoint(&ckpt_a).expect("restore original");
        assert_eq!(pred.predict_one(&q), original);
    }

    #[test]
    fn rebuild_plus_checkpoint_restores_predictions_bitwise() {
        let (pred, samples) = tiny_predictor();
        let q = Query::with_top(samples[0], 4, 8);
        let before = pred.predict_one(&q);
        let ckpt = pred.save();

        // Crash recovery: throw the model away, rebuild over the same
        // context, restore the snapshot — answers must be identical.
        let rebuilt = pred.rebuild();
        rebuilt.load_checkpoint(&ckpt).expect("snapshot restores");
        assert_eq!(rebuilt.predict_one(&q), before);
    }
}
