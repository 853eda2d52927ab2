//! Training and evaluation driver for TSPN-RA.
//!
//! **Training** runs every gradient step on the owner's model, on the
//! calling thread, as one taped pass: the batch tables
//! ([`crate::TspnRa::batch_tables`]: the CNN pass over every tile plus the
//! POI table merge), one padded, masked batched loss
//! ([`crate::TspnRa::loss_batch`]) over the whole batch, `backward`, and a
//! fused clip + Adam update ([`optim::grad_global_norm`] +
//! [`optim::Adam::step_scaled`]). The autodiff tape is single-threaded
//! `Rc`, and splitting one step across per-thread replicas made
//! training at most about 10% faster on 2 threads while tying every
//! trained number to the thread count; parallel experiments run as
//! independent one-thread jobs instead.
//!
//! **Evaluation and batched prediction** are data-parallel: samples are
//! sharded across the persistent worker pool
//! ([`tspn_tensor::parallel`]), and every pool thread keeps a forward-only
//! model **replica**, cached per thread. A replica remembers the owner's
//! `(param version, ctx revision)` it last copied, together with its
//! wrapped batch tables; while that key is unchanged it reuses both, so
//! its history-encoding memo survives between calls. Work is dispatched
//! per call; nothing occupies a worker between calls, so concurrent
//! trainers and evaluations interleave freely on the shared pool.
//!
//! ## Determinism contract
//!
//! * **Training** is bitwise identical for every thread count: a step's
//!   dropout RNG is seeded from `(seed, step)`, and every kernel inside a
//!   step runs on the calling thread, so the thread count never reaches
//!   its arithmetic (`tests/cross_thread_training.rs`).
//! * **Evaluation** is bitwise identical for every thread count: replicas
//!   hold the exact parameter values, a query's forward rows do not
//!   depend on which shard or padded batch they land in (the GEMM
//!   row-independence contract), and outcomes are reassembled in sample
//!   order.
//! * **Optimizer updates** run as one fused pass with the clip factor
//!   folded in, bitwise identical to the retired clip-then-step sequence
//!   on both kernel tiers.
//!
//! Thread count comes from [`tspn_tensor::parallel::num_threads`]
//! (`TSPN_NUM_THREADS` to override). At `1`, every prediction runs on the
//! owner's model on the calling thread.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tspn_data::Sample;
use tspn_tensor::serialize::Checkpoint;
use tspn_tensor::{optim, parallel, pool, Tensor};

use crate::config::TspnConfig;
use crate::context::SpatialContext;
use crate::model::{BatchTables, Prediction, TspnRa};
use crate::predictor::{Query, TopK};
use crate::subject::Subject;

/// Identity source for trainer instances; keys the per-thread replica
/// cache.
static NEXT_TRAINER_ID: AtomicU64 = AtomicU64::new(1);

/// How many distinct trainers' replicas one pool thread keeps alive. Two
/// covers the common case (a trainer plus a second model under
/// comparison) without letting long test runs pin arbitrary memory.
const MAX_CACHED_REPLICAS: usize = 2;

/// Queries per padded batched forward on the prediction paths: large
/// enough to amortise per-batch fixed costs, small enough to bound the
/// padded `[chunk·S, dm]` scratch at paper scale. Per-sample results are
/// chunk-size-invariant (bitwise), so this is purely a memory/locality
/// knob.
const PRED_CHUNK: usize = 64;

/// One cached model replica, pinned to the thread that built it (the tape
/// is `Rc`-based and must never migrate).
struct ReplicaSlot {
    trainer_id: u64,
    replica: TspnRa,
    /// `replica.params()`, in the same order as the owning trainer's.
    params: Vec<Tensor>,
    /// The owner's cache key these parameters were copied at, with the
    /// batch tables wrapped from the same snapshot; `None` until the first
    /// sync.
    synced: Option<(CacheKey, BatchTables)>,
}

impl ReplicaSlot {
    /// Brings the replica up to `snap`'s key and returns it with its batch
    /// tables. An unchanged key skips the parameter overwrite and keeps the
    /// tables, so the history memo (keyed by the tables' id) survives.
    fn sync(&mut self, snap: &Snapshot) -> (&TspnRa, &BatchTables) {
        if self.synced.as_ref().map(|(key, _)| *key) != Some(snap.key) {
            overwrite_params(&self.params, &snap.params);
            let wrap = |(data, shape): &(Vec<f32>, Vec<usize>)| {
                Tensor::from_vec(pool::take_copied(data), shape.clone())
            };
            let tables = BatchTables {
                tiles: wrap(&snap.tiles),
                pois: wrap(&snap.pois),
            };
            self.synced = Some((snap.key, tables));
        }
        let (_, tables) = self.synced.as_ref().expect("synced above");
        (&self.replica, tables)
    }
}

/// The owner's parameter and batch-table values at one cache key, as plain
/// buffers that replicas on other threads copy from.
struct Snapshot {
    key: CacheKey,
    params: Vec<Vec<f32>>,
    /// `(values, shape)` of the tile table.
    tiles: (Vec<f32>, Vec<usize>),
    /// `(values, shape)` of the POI table.
    pois: (Vec<f32>, Vec<usize>),
}

/// Returns buffers from [`Trainer::param_values`] to the tensor pool.
fn give_values(values: Vec<Vec<f32>>) {
    for buf in values {
        pool::give(buf);
    }
}

/// Overwrites every replica parameter with the owner's values; returns the
/// number of floats copied.
fn overwrite_params(params: &[Tensor], values: &[Vec<f32>]) -> usize {
    for (p, v) in params.iter().zip(values) {
        p.set_data(v);
    }
    values.iter().map(Vec::len).sum()
}

thread_local! {
    /// LRU cache (most recent last) of model replicas on this pool thread.
    static REPLICAS: RefCell<Vec<ReplicaSlot>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's replica slot for `trainer_id`, building a
/// replica on first use. The slot survives across calls, so a shard pays
/// at most one parameter overwrite, never a model build.
fn with_replica<R>(
    trainer_id: u64,
    cfg: &TspnConfig,
    ctx: &SpatialContext,
    f: impl FnOnce(&mut ReplicaSlot) -> R,
) -> R {
    REPLICAS.with(|cell| {
        let mut cache = cell.borrow_mut();
        if let Some(i) = cache.iter().position(|s| s.trainer_id == trainer_id) {
            let slot = cache.remove(i);
            cache.push(slot);
        } else {
            if cache.len() >= MAX_CACHED_REPLICAS {
                cache.remove(0);
            }
            let replica = TspnRa::new(cfg.clone(), ctx);
            let params = replica.params();
            cache.push(ReplicaSlot {
                trainer_id,
                replica,
                params,
                synced: None,
            });
        }
        f(cache.last_mut().expect("replica cached above"))
    })
}

/// Outcome of evaluating one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOutcome {
    /// 0-based rank of the true POI in `R_P`; `None` when tile selection
    /// filtered it out (scored as `|R_P| + 1` per the paper's objective).
    pub rank: Option<usize>,
    /// Length of the returned ranking.
    pub num_ranked: usize,
    /// 0-based rank of the true tile in `R_T` (two-step mode only).
    pub tile_rank: Option<usize>,
    /// Number of POI candidates after tile filtering.
    pub candidate_count: usize,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub mean_loss: f32,
    /// Wall-clock seconds spent in the epoch.
    pub seconds: f64,
}

/// Batch-tables cache key: `(parameter version, context revision)`.
type CacheKey = (u64, u64);

/// Owns the model, the spatial context and the optimizer state.
pub struct Trainer {
    /// The model under training.
    pub model: TspnRa,
    /// The prepared spatial context.
    pub ctx: SpatialContext,
    /// Process-unique identity; keys the pool threads' replica caches.
    id: u64,
    opt: optim::Adam,
    rng: StdRng,
    /// Monotonic counter bumped whenever parameters change; keys the
    /// batch-tables cache together with the context revision.
    version: Cell<u64>,
    /// Cached `batch_tables` for evaluation, keyed by
    /// `(param version, ctx revision)`.
    tables_cache: RefCell<Option<(CacheKey, Rc<BatchTables>)>>,
}

impl Trainer {
    /// Builds context-bound trainer with a fresh model.
    pub fn new(config: TspnConfig, ctx: SpatialContext) -> Self {
        let opt = optim::Adam::new(config.lr);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7EA1);
        let model = TspnRa::new(config, &ctx);
        Trainer {
            model,
            ctx,
            id: NEXT_TRAINER_ID.fetch_add(1, Ordering::Relaxed),
            opt,
            rng,
            version: Cell::new(0),
            tables_cache: RefCell::new(None),
        }
    }

    /// Invalidates cached derived state (the evaluation batch tables and
    /// the replicas' copies of the parameters). The fit/restore paths call
    /// this automatically; call it manually after mutating `model`
    /// parameters from outside the trainer.
    pub fn mark_model_dirty(&self) {
        self.version.set(self.version.get() + 1);
    }

    /// The `(param version, ctx revision)` pair that keys every copy derived
    /// from the current parameters and context.
    fn cache_key(&self) -> CacheKey {
        (self.version.get(), self.ctx.revision())
    }

    /// The batch tables for the current parameters and context, computed
    /// at most once per [`Trainer::cache_key`] — so both optimizer steps
    /// and `ctx.swap_imagery` invalidate it.
    fn shared_tables(&self) -> Rc<BatchTables> {
        let key = self.cache_key();
        let mut cache = self.tables_cache.borrow_mut();
        if let Some((k, tables)) = cache.as_ref() {
            if *k == key {
                return Rc::clone(tables);
            }
        }
        // Evaluation never differentiates through the tables, so skip the
        // tape entirely (the CNN forward over every tile dominates here).
        let tables = Rc::new(Tensor::no_grad(|| self.model.batch_tables(&self.ctx)));
        *cache = Some((key, Rc::clone(&tables)));
        tables
    }

    /// Trains for the configured number of epochs, returning per-epoch stats.
    pub fn fit(&mut self, train: &[Sample]) -> Vec<EpochStats> {
        let epochs = self.model.config.epochs;
        self.fit_epochs(train, epochs)
    }

    /// Trains for an explicit number of epochs.
    ///
    /// Each batch is one taped step on the owner's model, on the calling
    /// thread: the batch tables, the batched loss (dropout seeded from
    /// `(seed, step)`), `backward`, and a fused clip + Adam update. The
    /// result is bitwise identical for every thread count.
    pub fn fit_epochs(&mut self, train: &[Sample], epochs: usize) -> Vec<EpochStats> {
        let Trainer {
            ref model,
            ref ctx,
            ref mut opt,
            ref mut rng,
            ..
        } = *self;
        let params = model.params();
        let cfg = &model.config;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut batch: Vec<Sample> = Vec::with_capacity(cfg.batch_size);
        let mut stats = Vec::with_capacity(epochs);

        let mut step = opt.steps();
        for epoch in 0..epochs {
            // tspn-lint: allow(wall-clock) — epoch wall time is reported in EpochStats metadata only and never feeds a computed value
            let started = std::time::Instant::now();
            order.shuffle(rng);
            let mut total_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                batch.clear();
                batch.extend(chunk.iter().map(|&i| train[i]));
                optim::zero_grad(&params);
                let tables = model.batch_tables(ctx);
                model.reseed_dropout(cfg.seed ^ step.wrapping_mul(0x9E3779B97F4A7C15));
                let loss = model
                    .loss_batch(ctx, &batch, &tables)
                    .sum_all()
                    .scale(1.0 / batch.len() as f32);
                total_loss += loss.item() as f64;
                batches += 1;
                loss.backward();
                let scale = optim::clip_scale(optim::grad_global_norm(&params), 5.0);
                opt.step_scaled(&params, scale, |_| {});
                step += 1;
            }
            opt.decay_lr(cfg.lr_decay);
            stats.push(EpochStats {
                epoch,
                mean_loss: (total_loss / batches.max(1) as f64) as f32,
                seconds: started.elapsed().as_secs_f64(),
            });
        }
        self.mark_model_dirty();
        stats
    }

    /// Trains with per-epoch validation-based model selection: after every
    /// epoch the model is scored on `val` (MRR), and the best parameter
    /// snapshot is restored at the end. This is how long anneal schedules
    /// are run in practice, and it tames the oscillation that aggressive
    /// learning rates show at this reproduction's small scale.
    pub fn fit_validated(
        &mut self,
        train: &[Sample],
        val: &[Sample],
        epochs: usize,
    ) -> Vec<EpochStats> {
        let mut best_mrr = f64::NEG_INFINITY;
        let mut best: Option<Checkpoint> = None;
        let mut all_stats = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let stats = self.fit_epochs(train, 1);
            all_stats.extend(stats);
            let outcomes = self.evaluate(val);
            let mut mrr = 0.0;
            for o in &outcomes {
                if let Some(r) = o.rank {
                    mrr += 1.0 / (r + 1) as f64;
                }
            }
            mrr /= outcomes.len().max(1) as f64;
            if mrr > best_mrr {
                best_mrr = mrr;
                // Re-capture into the previous snapshot's allocations.
                match &mut best {
                    Some(ckpt) => self.model.save_into(ckpt),
                    None => best = Some(self.model.save()),
                }
            }
        }
        if let Some(ckpt) = best {
            self.model
                .load(&ckpt)
                .expect("restoring own snapshot cannot fail");
            self.mark_model_dirty();
        }
        all_stats
    }

    /// Evaluates samples with the configured K.
    pub fn evaluate(&self, samples: &[Sample]) -> Vec<EvalOutcome> {
        self.evaluate_with_k(samples, self.model.config.top_k)
    }

    /// Evaluates samples with an explicit tile-selection K (Fig. 11 sweep).
    ///
    /// Shards samples across the persistent worker pool (forward-only
    /// model replicas, cached per pool thread); results are bitwise
    /// identical for every thread count. Evaluation and online serving
    /// ([`Trainer::predict_batch`]) run through the same
    /// `Trainer::predict_mapped` machinery, so a served ranking is the
    /// offline ranking, bitwise.
    pub fn evaluate_with_k(&self, samples: &[Sample], k: usize) -> Vec<EvalOutcome> {
        let queries: Vec<Query> = samples
            .iter()
            .map(|&sample| Query::new(sample, k))
            .collect();
        self.predict_mapped(&queries, outcome_of)
    }

    /// Answers a batch of prediction queries, sharded across the
    /// persistent worker pool exactly like [`Trainer::evaluate_with_k`];
    /// results are in query order and bitwise identical to answering each
    /// query alone.
    pub fn predict_batch(&self, queries: &[Query]) -> Vec<TopK> {
        self.predict_mapped(queries, |_ctx, q, pred| TopK::from_prediction(pred, q.top))
    }

    /// Query indices sorted by effective prefix length (ties by index):
    /// co-batching like-length prefixes keeps the padded `[B·S, dm]`
    /// tensors dense, and per-subject results are batch-composition
    /// invariant (bitwise), so the ordering is purely a perf knob.
    fn length_sorted_order(&self, queries: &[Query]) -> Vec<usize> {
        let cap = self.model.config.max_prefix;
        let mut order: Vec<usize> = (0..queries.len()).collect();
        // History-free subjects are grouped apart; that keeps chunks
        // homogeneous so the fusion stack's cross-attention row partition
        // takes its all-or-nothing fast paths.
        order.sort_by_key(|&i| {
            let subject = &queries[i].subject;
            (
                usize::from(subject.has_history()),
                subject.prefix(&self.ctx).len().min(cap),
                i,
            )
        });
        order
    }

    /// The shared batched-prediction core: computes (or reuses) the batch
    /// tables once, runs one padded batched forward per [`PRED_CHUNK`]
    /// queries (co-batched by prefix length) and maps each query's
    /// [`Prediction`] through `f`; results return in query order. Large
    /// sets are sharded across the persistent worker pool onto cached
    /// per-thread model replicas; small sets and a single-thread budget run
    /// on the owner's model in place.
    fn predict_mapped<R, F>(&self, queries: &[Query], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&SpatialContext, &Query, Prediction) -> R + Sync,
    {
        let workers = parallel::num_threads();
        let ctx = &self.ctx;
        // Shards take contiguous runs of the length-sorted order, so each
        // run's padded batches stay dense; results scatter back to query
        // order below.
        let order = self.length_sorted_order(queries);
        let predict_run = |model: &TspnRa, tables: &BatchTables, run: &[usize]| {
            let mut results: Vec<R> = Vec::with_capacity(run.len());
            for chunk in run.chunks(PRED_CHUNK) {
                let pairs: Vec<(Subject, usize)> = chunk
                    .iter()
                    .map(|&i| (queries[i].subject.clone(), queries[i].k))
                    .collect();
                let preds = model.predict_many(ctx, &pairs, tables);
                results.extend(
                    chunk
                        .iter()
                        .zip(preds)
                        .map(|(&i, pred)| f(ctx, &queries[i], pred)),
                );
            }
            results
        };
        // The batch tables are computed (or served from cache) exactly
        // once here, so repeated evaluations with unchanged parameters (the
        // Fig. 11 K-sweep) never rerun the CNN pass over all tiles.
        let tables = self.shared_tables();
        // Dispatch is cheap but a stale replica still pays a parameter
        // overwrite; tiny sets stay on the owner's model.
        let flat: Vec<R> = if workers <= 1 || queries.len() < 4 * workers {
            predict_run(&self.model, &tables, &order)
        } else {
            let values = |t: &Tensor| (t.to_vec(), t.shape().0.clone());
            let snapshot = Snapshot {
                key: self.cache_key(),
                params: self.param_values(),
                tiles: values(&tables.tiles),
                pois: values(&tables.pois),
            };
            drop(tables);
            let cfg = &self.model.config;
            let trainer_id = self.id;
            let (predict_run, snap) = (&predict_run, &snapshot);
            let per_shard = queries.len().div_ceil(workers);
            let jobs: Vec<_> = order
                .chunks(per_shard)
                .map(|shard| {
                    move || {
                        with_replica(trainer_id, cfg, ctx, |slot| {
                            let (replica, tables) = slot.sync(snap);
                            let before = replica.history_memo_counts();
                            let results = predict_run(replica, tables, shard);
                            (results, replica.history_memo_counts().since(before))
                        })
                    }
                })
                .collect();
            let mut flat = Vec::with_capacity(queries.len());
            for (results, counts) in parallel::map_scoped(jobs) {
                flat.extend(results);
                self.model.add_history_memo_counts(counts);
            }
            give_values(snapshot.params);
            flat
        };
        let mut out: Vec<Option<R>> = (0..queries.len()).map(|_| None).collect();
        for (&i, r) in order.iter().zip(flat) {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// The owner's parameter values, in `params()` order, in pool buffers
    /// (return them with `give_values`).
    fn param_values(&self) -> Vec<Vec<f32>> {
        self.model
            .params()
            .iter()
            .map(|p| pool::take_copied(&p.data()))
            .collect()
    }

    /// Benchmark hook: the one parameter copy left, the full overwrite a
    /// stale evaluation replica pays (here, the calling thread's replica)
    /// from the owner's current values. Returns the number of f32 values
    /// copied. Hidden: benchmark harnesses only.
    #[doc(hidden)]
    pub fn bench_sync_roundtrip(&mut self) -> usize {
        let values = self.param_values();
        let copied = with_replica(self.id, &self.model.config, &self.ctx, |slot| {
            overwrite_params(&slot.params, &values)
        });
        give_values(values);
        copied
    }

    /// Rough resident-memory estimate in bytes: parameters + Adam moments
    /// + gradients + cached imagery. Used by the Table V reproduction.
    pub fn memory_estimate_bytes(&self) -> usize {
        let param_floats = self.model.num_params();
        // data + grad + two Adam moments
        param_floats * 4 * 4 + self.ctx.imagery.pixel_bytes()
    }
}

/// Scores one finished prediction against its sample's ground truth.
fn outcome_of(ctx: &SpatialContext, query: &Query, pred: Prediction) -> EvalOutcome {
    let sample = query
        .indexed_sample()
        .expect("evaluation queries address dataset samples");
    let target = ctx.dataset.sample_target(&sample);
    let tile_rank = if pred.tile_ranking.is_empty() {
        None
    } else {
        pred.tile_rank_of(ctx.poi_leaf_rank(target.poi))
    };
    EvalOutcome {
        rank: pred.rank_of(target.poi),
        num_ranked: pred.poi_ranking.len(),
        tile_rank,
        candidate_count: pred.candidate_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Partition;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;

    fn tiny_trainer() -> (Trainer, Vec<Sample>) {
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
        let samples = ctx.dataset.all_samples();
        (Trainer::new(cfg, ctx), samples)
    }

    #[test]
    fn one_epoch_reduces_loss() {
        let (mut trainer, samples) = tiny_trainer();
        let train: Vec<Sample> = samples.iter().take(24).copied().collect();
        let stats = trainer.fit_epochs(&train, 3);
        assert_eq!(stats.len(), 3);
        assert!(
            stats[2].mean_loss < stats[0].mean_loss,
            "loss did not decrease: {:?}",
            stats.iter().map(|s| s.mean_loss).collect::<Vec<_>>()
        );
    }

    #[test]
    fn evaluate_reports_consistent_outcomes() {
        let (trainer, samples) = tiny_trainer();
        let eval: Vec<Sample> = samples.iter().take(10).copied().collect();
        let outcomes = trainer.evaluate(&eval);
        assert_eq!(outcomes.len(), 10);
        for o in &outcomes {
            if let Some(r) = o.rank {
                assert!(r < o.num_ranked);
            }
            assert!(o.candidate_count <= trainer.ctx.dataset.pois.len());
            assert!(o.tile_rank.is_some() || o.tile_rank.is_none());
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_exactly() {
        // The acceptance contract: sharded evaluation must return the
        // same ranks as answering each sample alone, bitwise. Singletons
        // always run on the owner's model; on a single-core machine the
        // batched call does too and the test is trivial.
        let (mut trainer, samples) = tiny_trainer();
        let train: Vec<Sample> = samples.iter().take(16).copied().collect();
        trainer.fit_epochs(&train, 1);
        let eval: Vec<Sample> = samples.iter().take(40).copied().collect();
        let parallel = trainer.evaluate(&eval);
        let serial: Vec<EvalOutcome> = eval
            .iter()
            .flat_map(|s| trainer.evaluate(std::slice::from_ref(s)))
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed_and_threads() {
        let run = || {
            let (mut trainer, samples) = tiny_trainer();
            let train: Vec<Sample> = samples.iter().take(16).copied().collect();
            trainer.fit_epochs(&train, 2);
            trainer
                .model
                .params()
                .iter()
                .flat_map(|p| p.to_vec())
                .collect::<Vec<f32>>()
        };
        assert_eq!(run(), run(), "same seed must reproduce bitwise");
    }

    #[test]
    fn evaluate_caches_tables_between_calls() {
        let (mut trainer, samples) = tiny_trainer();
        // Three samples stay on the owner's model at any thread count.
        let eval: Vec<Sample> = samples.iter().take(3).copied().collect();
        let _ = trainer.evaluate(&eval);
        let v1 = trainer.tables_cache.borrow().as_ref().map(|(k, _)| *k);
        let _ = trainer.evaluate(&eval);
        let v2 = trainer.tables_cache.borrow().as_ref().map(|(k, _)| *k);
        assert_eq!(v1, v2, "unchanged params must reuse the cached tables");
        trainer.mark_model_dirty();
        let _ = trainer.evaluate(&eval);
        let v3 = trainer.tables_cache.borrow().as_ref().map(|(k, _)| *k);
        assert_ne!(v1, v3, "dirty marker must invalidate the cache");
        // Context mutation (the Fig. 12b noise sweep path) must also
        // invalidate: scoring noisy imagery against clean-imagery tables
        // would silently flatten the dose-response curve.
        let noisy = trainer.ctx.imagery.with_noise(0.5, 3);
        trainer.ctx.swap_imagery(noisy);
        let clean = trainer.evaluate(&eval);
        let v4 = trainer.tables_cache.borrow().as_ref().map(|(k, _)| *k);
        assert_ne!(v3, v4, "swap_imagery must invalidate the cache");
        let _ = clean;
    }

    #[test]
    #[should_panic(expected = "")]
    fn invalid_sample_panics_rather_than_hanging() {
        // An invalid sample must panic on the calling thread, never hang
        // the batch loop.
        let (mut trainer, _) = tiny_trainer();
        let bogus = Sample {
            user_index: usize::MAX,
            traj_index: 0,
            prefix_len: 1,
        };
        trainer.fit_epochs(&[bogus, bogus], 1);
    }

    #[test]
    fn full_k_guarantees_target_is_ranked() {
        let (trainer, samples) = tiny_trainer();
        let eval: Vec<Sample> = samples.iter().take(6).copied().collect();
        let outcomes = trainer.evaluate_with_k(&eval, trainer.ctx.num_leaves());
        for o in outcomes {
            assert!(
                o.rank.is_some(),
                "with K = all leaves every POI is a candidate"
            );
        }
    }

    #[test]
    fn memory_estimate_positive() {
        let (trainer, _) = tiny_trainer();
        assert!(trainer.memory_estimate_bytes() > 0);
    }

    #[test]
    fn fit_validated_never_ends_worse_than_best_epoch() {
        let (mut trainer, samples) = tiny_trainer();
        let (train, val) = samples.split_at(samples.len() * 3 / 4);
        let train: Vec<Sample> = train.iter().take(30).copied().collect();
        let val: Vec<Sample> = val.iter().take(15).copied().collect();
        let stats = trainer.fit_validated(&train, &val, 3);
        assert_eq!(stats.len(), 3);
        // After restore, the model's val MRR equals the best seen across
        // epochs: re-evaluating cannot be worse than a fresh final epoch.
        let outcomes = trainer.evaluate(&val);
        let mut final_mrr = 0.0;
        for o in &outcomes {
            if let Some(r) = o.rank {
                final_mrr += 1.0 / (r + 1) as f64;
            }
        }
        final_mrr /= outcomes.len().max(1) as f64;
        assert!(final_mrr.is_finite());
        // Train once more WITHOUT validation and confirm the checkpointed
        // model was a genuine snapshot (predictions change when training
        // continues — i.e. restore actually rewrote parameters).
        let before = trainer.model.params()[0].to_vec();
        trainer.fit_epochs(&train, 1);
        let after = trainer.model.params()[0].to_vec();
        assert_ne!(before, after);
    }
}
