//! Training and evaluation driver for TSPN-RA.
//!
//! Both evaluation and per-batch gradient computation are data-parallel:
//! samples are sharded across the persistent worker pool
//! ([`tspn_tensor::parallel`]), and every pool thread owns a full model
//! **replica** (the autodiff tape is single-threaded `Rc`, so replicas —
//! cached per thread and kept in sync from the owner — are how the tape
//! scales across cores). A one-thread training budget is not a separate
//! path: each batch is one shard, run on the calling thread's cached
//! replica. Within a shard the samples no longer run one at a time: each
//! shard is one padded, masked batched forward
//! ([`crate::TspnRa::forward_batch`]), so the ~50-node-per-sample tape
//! overhead is paid once per batch. Shard work
//! is dispatched per batch; nothing occupies a worker between batches,
//! so concurrent trainers and evaluations interleave freely on the
//! shared pool.
//!
//! ## Shared-tables ownership rule
//!
//! The embedding-tables tape ([`crate::TspnRa::batch_tables`]: the CNN
//! pass over every tile plus the POI table merge) is built **once per
//! gradient step, on the dispatching thread** — never inside a shard.
//! Shards receive the table *values* and wrap them in local
//! [`Tensor::param`] leaves; their backward passes accumulate table
//! gradients into those leaves, which the owner merges in shard order and
//! pushes through its own tape with [`Tensor::backward_seeded`] — one
//! im2col/embedding tape per step instead of one per shard. Only the
//! owner ever differentiates through the tables, so the table parameters
//! (the leading [`crate::TspnRa::table_params_len`] entries of `params()`)
//! are **never synchronised to replicas** — shards must not (and cannot)
//! read them.
//!
//! ## Delta-sync publish/version protocol
//!
//! Non-table ("downstream") parameters reach replicas through a
//! double-buffered publish area instead of a whole-model snapshot. The
//! owner keeps, per downstream parameter, a publish buffer plus a
//! monotonic version stamp; [`optim::Adam::step_scaled`] reports which
//! parameters it actually moved, and only those get re-published (copy +
//! version bump). Each replica remembers the version it last copied for
//! every parameter and refreshes exactly the stale ones at shard start —
//! O(changed params) per batch instead of O(all params). External
//! parameter mutation ([`Trainer::mark_model_dirty`]) bumps every stamp.
//! The full-copy refresh (every publish buffer rewritten, every replica
//! copying all of them each batch) survives only as the reference that
//! `tests/prop_trainer_sync.rs` selects through the hidden
//! `Trainer::set_delta_sync(false)`. Both modes copy identical values,
//! so training is **bitwise identical across sync modes**.
//!
//! ## Determinism contract
//!
//! * **Evaluation** is bitwise identical for every thread count: replicas
//!   restore the exact parameter values, forward passes are deterministic
//!   (the GEMM kernels are bitwise thread-count-invariant), and outcomes
//!   are reassembled in sample order.
//! * **Training** is deterministic for a fixed `(seed, thread count)`:
//!   each batch is split into `min(threads, batch)` contiguous shards,
//!   every shard's dropout RNG is seeded from `(seed, step, shard)`, and
//!   shard gradients (downstream and table-leaf alike) merge in shard
//!   order. A shard's result never depends on which pool thread computes
//!   it (replica parameters are refreshed to the published values, and
//!   every task runs under the worker scope), so the schedule is
//!   irrelevant. With `batch_size: 1` every step is one shard at any
//!   thread count, so such a run is bitwise **thread-count-invariant**
//!   (`tests/cross_thread_training.rs`).
//! * **Optimizer updates** run as one fused pass with the clip factor
//!   folded in ([`optim::grad_global_norm`] + [`optim::Adam::step_scaled`]),
//!   bitwise identical to the retired clip-then-step sequence on both
//!   kernel tiers.
//!
//! Thread count comes from [`tspn_tensor::parallel::num_threads`]
//! (`TSPN_NUM_THREADS` to override). At `1`, each training batch is one
//! shard and every prediction runs on the owner's model, both on the
//! calling thread.

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
    /// Per-downstream-parameter version stamps last copied from the
    /// owner's publish area (see the module docs); empty = never synced,
    /// which forces a full copy on first use.
    seen: Vec<u64>,
}

thread_local! {
    /// LRU cache (most recent last) of model replicas on this pool thread.
    static REPLICAS: RefCell<Vec<ReplicaSlot>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's replica for `trainer_id`, building one on
/// first use. The replica survives across batches and fit/evaluate calls,
/// so the per-shard cost is one parameter overwrite, not a model build.
fn with_replica<R>(
    trainer_id: u64,
    cfg: &TspnConfig,
    ctx: &SpatialContext,
    f: impl FnOnce(&TspnRa, &[Tensor], &mut Vec<u64>) -> R,
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
                seen: Vec::new(),
            });
        }
        let slot = cache.last_mut().expect("replica cached above");
        let ReplicaSlot {
            replica,
            params,
            seen,
            ..
        } = slot;
        f(replica, params, seen)
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

/// Owner side of the delta-sync protocol (module docs): per-downstream-
/// parameter publish buffers plus monotonic version stamps. Shard
/// closures borrow it read-only while a batch is in flight; the optimizer
/// epilogue republishes the parameters it touched.
#[derive(Default)]
struct SyncState {
    /// Version stamp per downstream parameter; starts at 1 (replicas
    /// start at "never synced"), bumped on every republish, and never
    /// reset, so replica stamps stay comparable for the trainer's life.
    versions: Vec<u64>,
    /// Published value per downstream parameter. Plain `Vec`s (not pool
    /// buffers): they live for the trainer's lifetime and are rewritten
    /// in place, so steady-state batches never reallocate them.
    publish: Vec<Vec<f32>>,
    /// Set by [`Trainer::mark_model_dirty`]: parameters changed outside
    /// the optimizer, so every buffer must republish with a version bump.
    stale: bool,
}

impl SyncState {
    /// Brings the publish area up to date before a batch dispatch.
    /// `down` is the downstream parameter suffix; in full-copy mode
    /// (`delta == false`) every buffer is rewritten every batch.
    fn prepare(&mut self, down: &[Tensor], delta: bool) {
        if self.versions.len() != down.len() {
            self.versions = vec![1; down.len()];
            self.publish = down.iter().map(|p| p.to_vec()).collect();
            self.stale = false;
        } else if self.stale || !delta {
            for (buf, p) in self.publish.iter_mut().zip(down) {
                buf.clear();
                buf.extend_from_slice(&p.data());
            }
            if self.stale {
                for v in &mut self.versions {
                    *v += 1;
                }
            }
            self.stale = false;
        }
    }

    /// Republishes one downstream parameter after the optimizer moved it.
    fn republish(&mut self, j: usize, p: &Tensor) {
        self.publish[j].clear();
        self.publish[j].extend_from_slice(&p.data());
        self.versions[j] += 1;
    }
}

/// Copies stale published parameters into a replica's downstream suffix
/// and advances its stamps. An empty or mismatched `seen` (fresh replica,
/// or full-copy mode) copies everything.
fn refresh_replica(rdown: &[Tensor], seen: &mut Vec<u64>, sync: &SyncState, delta: bool) {
    if delta && seen.len() == sync.versions.len() {
        for j in 0..rdown.len() {
            if sync.versions[j] > seen[j] {
                rdown[j].set_data(&sync.publish[j]);
                seen[j] = sync.versions[j];
            }
        }
    } else {
        for (p, buf) in rdown.iter().zip(&sync.publish) {
            p.set_data(buf);
        }
        seen.clear();
        seen.extend_from_slice(&sync.versions);
    }
}

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
    /// Delta parameter sync to the training replicas (module docs); `false`
    /// selects the bitwise-identical full-copy reference.
    delta_sync: bool,
    /// Owner side of the publish/version protocol.
    sync: RefCell<SyncState>,
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
            delta_sync: true,
            sync: RefCell::new(SyncState::default()),
        }
    }

    /// Switches training between delta parameter sync and the
    /// full-copy reference (both bitwise identical; see the module docs).
    /// Hidden: `prop_trainer_sync` only.
    #[doc(hidden)]
    pub fn set_delta_sync(&mut self, on: bool) {
        if self.delta_sync != on {
            self.delta_sync = on;
            self.mark_model_dirty();
        }
    }

    /// Invalidates cached derived state (the evaluation batch tables and
    /// the delta-sync publish area). The fit/restore paths call this
    /// automatically; call it manually after mutating `model` parameters
    /// from outside the trainer.
    pub fn mark_model_dirty(&self) {
        self.version.set(self.version.get() + 1);
        self.sync.borrow_mut().stale = true;
    }

    /// The batch tables for the current parameters and context, computed
    /// at most once per `(param version, ctx revision)` pair — so both
    /// optimizer steps and `ctx.swap_imagery` invalidate it.
    fn shared_tables(&self) -> Rc<BatchTables> {
        let key = (self.version.get(), self.ctx.revision());
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
    /// Every batch is split into `min(threads, batch)` contiguous shards
    /// that run on cached per-thread model replicas; the owner builds the
    /// shared tables tape once per batch, publishes only the downstream
    /// parameters the optimizer moved, and merges shard gradients in shard
    /// order (module docs cover the ownership, sync and determinism
    /// contracts). A one-thread budget is simply one shard, run on the
    /// calling thread.
    pub fn fit_epochs(&mut self, train: &[Sample], epochs: usize) -> Vec<EpochStats> {
        let workers = parallel::num_threads();
        let Trainer {
            ref model,
            ref ctx,
            id: trainer_id,
            ref mut opt,
            ref mut rng,
            ref sync,
            delta_sync,
            ..
        } = *self;
        let params = model.params();
        let tpl = model.table_params_len();
        let down = &params[tpl..];
        let batch_size = model.config.batch_size;
        let lr_decay = model.config.lr_decay;
        let seed = model.config.seed;
        let cfg = model.config.clone();
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut stats = Vec::with_capacity(epochs);
        let mut sync = sync.borrow_mut();

        let mut step = opt.steps();
        for epoch in 0..epochs {
            // tspn-lint: allow(wall-clock) — epoch wall time is reported in EpochStats metadata only and never feeds a computed value
            let started = std::time::Instant::now();
            order.shuffle(rng);
            let mut total_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                sync.prepare(down, delta_sync);
                // Shared tables: ONE tape on this thread per step. Shards
                // see only the forward values (as fresh leaves), so the
                // im2col/embedding forward never runs per shard.
                let tables = model.batch_tables(ctx);
                let tiles_shape = tables.tiles.shape().0.clone();
                let pois_shape = tables.pois.shape().0.clone();
                let tiles_vals = tables.tiles.data();
                let pois_vals = tables.pois.data();
                // Shard layout depends only on (batch len, workers), so a
                // fixed thread count reproduces exactly; shard results are
                // additionally independent of which pool thread runs them.
                let shards = workers.min(chunk.len());
                let per_shard = chunk.len().div_ceil(shards);
                let inv_batch = 1.0 / chunk.len() as f32;
                let jobs: Vec<_> = chunk
                    .chunks(per_shard)
                    .enumerate()
                    .map(|(shard_id, shard)| {
                        let samples: Vec<Sample> = shard.iter().map(|&i| train[i]).collect();
                        let dropout_seed = seed
                            ^ step.wrapping_mul(0x9E3779B97F4A7C15)
                            ^ (shard_id as u64).wrapping_mul(0xD1B54A32D192ED03);
                        let cfg = &cfg;
                        let sync: &SyncState = &sync;
                        let (tiles_vals, pois_vals) = (&*tiles_vals, &*pois_vals);
                        let (tiles_shape, pois_shape) = (&tiles_shape, &pois_shape);
                        move || {
                            with_replica(trainer_id, cfg, ctx, |replica, rparams, seen| {
                                refresh_replica(&rparams[tpl..], seen, sync, delta_sync);
                                optim::zero_grad(rparams);
                                replica.reseed_dropout(dropout_seed);
                                // Table values as gradient-collecting
                                // leaves; the tape behind them stays with
                                // the owner.
                                let tables = BatchTables {
                                    tiles: Tensor::param(
                                        pool::take_copied(tiles_vals),
                                        tiles_shape.clone(),
                                    ),
                                    pois: Tensor::param(
                                        pool::take_copied(pois_vals),
                                        pois_shape.clone(),
                                    ),
                                };
                                // One padded batched forward per shard.
                                let loss = replica
                                    .loss_batch(ctx, &samples, &tables)
                                    .sum_all()
                                    .scale(inv_batch);
                                let value = loss.item();
                                loss.backward();
                                let leaf_grad = |t: &Tensor| {
                                    t.with_grad_ref(|g| match g {
                                        Some(g) => pool::take_copied(g),
                                        None => pool::take_zeroed(t.len()),
                                    })
                                };
                                let tiles_grad = leaf_grad(&tables.tiles);
                                let pois_grad = leaf_grad(&tables.pois);
                                let grads: Vec<Vec<f32>> =
                                    rparams[tpl..].iter().map(leaf_grad).collect();
                                (value, tiles_grad, pois_grad, grads)
                            })
                        }
                    })
                    .collect();
                // Dispatch and merge; a panicking shard re-raises here
                // after the batch drains (no half-applied updates).
                let results = parallel::map_scoped(jobs);
                drop(tiles_vals);
                drop(pois_vals);
                optim::zero_grad(&params);
                let mut batch_loss = 0.0f32;
                let mut tiles_merged: Option<Vec<f32>> = None;
                let mut pois_merged: Option<Vec<f32>> = None;
                let merge = |acc: &mut Option<Vec<f32>>, g: Vec<f32>| match acc {
                    None => *acc = Some(g),
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(&g) {
                            *a += b;
                        }
                        pool::give(g);
                    }
                };
                for (loss, tiles_grad, pois_grad, grads) in results {
                    batch_loss += loss;
                    merge(&mut tiles_merged, tiles_grad);
                    merge(&mut pois_merged, pois_grad);
                    for (p, g) in down.iter().zip(&grads) {
                        p.accumulate_grad(g);
                    }
                    for g in grads {
                        pool::give(g);
                    }
                }
                // Backpropagate the merged table gradients through the
                // owner's tape — the tiles and POI tapes are disjoint, so
                // two seeded walks cover the whole tables graph.
                let tiles_merged = tiles_merged.expect("at least one shard ran");
                let pois_merged = pois_merged.expect("at least one shard ran");
                tables.tiles.backward_seeded(&tiles_merged);
                tables.pois.backward_seeded(&pois_merged);
                pool::give(tiles_merged);
                pool::give(pois_merged);
                total_loss += batch_loss as f64;
                batches += 1;
                // Fused clip + update; touched downstream parameters are
                // republished for the next batch's replica refresh.
                let scale = optim::clip_scale(optim::grad_global_norm(&params), 5.0);
                opt.step_scaled(&params, scale, |i| {
                    if delta_sync && i >= tpl {
                        sync.republish(i - tpl, &params[i]);
                    }
                });
                step += 1;
                // Drop the tables tape, then spill this thread's local
                // buffer cache to the shared pool: the dispatching thread
                // may have run a shard job itself, and buffers parked in
                // its local cache would be invisible to whichever worker
                // draws that shard next batch. (Workers spill when idle.)
                // A one-thread budget has no workers, so nothing to spill.
                drop(tables);
                if workers > 1 {
                    pool::flush_thread_local();
                }
            }
            opt.decay_lr(lr_decay);
            stats.push(EpochStats {
                epoch,
                mean_loss: (total_loss / batches.max(1) as f64) as f32,
                seconds: started.elapsed().as_secs_f64(),
            });
        }
        drop(sync);
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
        // Dispatch is cheap but each shard still pays a parameter
        // overwrite; tiny sets stay on the owner's model.
        let flat: Vec<R> = if workers <= 1 || queries.len() < 4 * workers {
            predict_run(&self.model, &tables, &order)
        } else {
            // Shards receive the raw table values and wrap them in
            // non-differentiable tensors.
            let tiles_data = tables.tiles.to_vec();
            let tiles_shape = tables.tiles.shape().0.clone();
            let pois_data = tables.pois.to_vec();
            let pois_shape = tables.pois.shape().0.clone();
            drop(tables);
            let snapshot: Vec<Vec<f32>> = self
                .model
                .params()
                .iter()
                .map(|p| pool::take_copied(&p.data()))
                .collect();
            let cfg = &self.model.config;
            let trainer_id = self.id;
            let predict_run = &predict_run;
            let per_shard = queries.len().div_ceil(workers);
            let jobs: Vec<_> = order
                .chunks(per_shard)
                .map(|shard| {
                    let snapshot = &snapshot;
                    let (tiles_data, tiles_shape) = (&tiles_data, &tiles_shape);
                    let (pois_data, pois_shape) = (&pois_data, &pois_shape);
                    move || {
                        // Full-value overwrite (prediction never steps the
                        // optimizer, so the publish/version protocol does
                        // not apply); replica `seen` stamps are left alone
                        // — they under-report freshness, which is always
                        // safe.
                        with_replica(trainer_id, cfg, ctx, |replica, rparams, _seen| {
                            for (p, values) in rparams.iter().zip(snapshot) {
                                p.set_data(values);
                            }
                            let tables = BatchTables {
                                tiles: Tensor::from_vec(
                                    pool::take_copied(tiles_data),
                                    tiles_shape.clone(),
                                ),
                                pois: Tensor::from_vec(
                                    pool::take_copied(pois_data),
                                    pois_shape.clone(),
                                ),
                            };
                            predict_run(replica, &tables, shard)
                        })
                    }
                })
                .collect();
            let flat = parallel::map_scoped(jobs).into_iter().flatten().collect();
            for buf in snapshot {
                pool::give(buf);
            }
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

    /// Benchmark hook: one full publish + replica-style refresh round
    /// trip over every downstream parameter (the worst case the delta
    /// protocol avoids). Returns the number of f32 values copied each
    /// way. Hidden: perf_snapshot only.
    #[doc(hidden)]
    pub fn bench_sync_roundtrip(&mut self) -> usize {
        let params = self.model.params();
        let down = &params[self.model.table_params_len()..];
        let sync = self.sync.get_mut();
        sync.stale = true;
        sync.prepare(down, true);
        let mut copied = 0;
        for (p, buf) in down.iter().zip(&sync.publish) {
            p.set_data(buf);
            copied += buf.len();
        }
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
        assert_eq!(
            run(),
            run(),
            "same seed + thread count must reproduce bitwise"
        );
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
        // A poisoned shard must surface its panic on the calling thread —
        // a lost worker must not deadlock the batch loop (a one-thread
        // budget runs its one shard inline and re-raises after it).
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
