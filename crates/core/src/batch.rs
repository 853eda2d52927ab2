//! The batched, masked forward: one `[batch, seq, dm]` tape shared by
//! training, evaluation, and serving.
//!
//! [`TspnRa::forward_batch`] runs a whole batch of samples through a
//! single computation tape. Sequence tensors use a **dense jagged**
//! layout: sample `b`'s variable-length prefix occupies rows
//! `offsets[b] .. offsets[b]+lens[b]` of a `[ΣlenS, dm]` matrix, so the
//! row-wise ops (affines, layer norms, softmaxes) never touch a padding
//! row. Attention runs through the fused flash-style node
//! ([`tspn_tensor::fused_attention`]), which streams each sample's live
//! score block through scratch — no padded score tensors and no mask
//! tensors exist anywhere on the tape. The two-step scorer still runs
//! over zero-padded candidate blocks.
//! [`TspnRa::loss_batch`] and [`TspnRa::predict_many`] put the batched
//! tape under the training loss and the inference ranking respectively.
//!
//! ## Contract with the per-sample reference
//!
//! [`TspnRa::forward`] / [`TspnRa::loss`] remain the per-sample
//! reference implementation; only the tests call them. Inference has one
//! path: [`TspnRa::predict`] is a batch of one through
//! [`TspnRa::predict_many`]. The batched path performs, per sample,
//! exactly the same arithmetic in the same order (see
//! `tspn_tensor::ops::batched` for why padding cannot perturb an
//! IEEE-754 result), so:
//!
//! * per-sample **losses** and **forward outputs** are bitwise identical
//!   to the reference at every batch size and thread count;
//! * **predictions/rankings** are bitwise identical to rankings computed
//!   from the reference's forward outputs, and invariant to batch
//!   composition;
//! * **gradients** are bitwise identical to the reference for a batch of
//!   one, and bitwise thread-count-invariant at every batch size. For
//!   multi-sample batches the gradient *values* agree with the reference
//!   to float associativity: shared parameters and tables receive the
//!   same per-sample contributions, but grouped per batched op instead
//!   of per sample, so the last bits of the sums may differ (the
//!   property test pins this down with a tight relative tolerance).
//!
//! Training dropout draws its masks from the model RNG in the exact
//! per-sample order (sample 0's tile mask, sample 0's POI mask, sample
//! 1's tile mask, …) and never consumes randomness for padding, so a
//! fixed seed reproduces the serial reference stream.

use rand::Rng;

use tspn_data::{time_slot, PoiId, Sample, Visit};
use tspn_tensor::{cosine_scores, fused_attention, pool, FusedAttnSpec, Tensor};

use crate::context::SpatialContext;
use crate::model::{descending_order, top_k_indices, BatchTables, Prediction, TspnRa};
use crate::subject::Subject;

/// The fused output vectors of one batched forward.
pub struct BatchForward {
    /// Fused tile queries `h_out_τ`, one row per sample: `[B, dm]`.
    pub h_out_t: Tensor,
    /// Fused POI queries `h_out_p`: `[B, dm]`.
    pub h_out_p: Tensor,
}

impl TspnRa {
    /// Runs the network over a whole batch of samples at once, returning
    /// each sample's fused output vectors as rows of `[B, dm]` matrices.
    /// Row `b` is bitwise identical to what [`TspnRa::forward`] returns
    /// for `samples[b]` (see the module docs for the full contract).
    pub fn forward_batch(
        &self,
        ctx: &SpatialContext,
        samples: &[Sample],
        tables: &BatchTables,
        training: bool,
    ) -> BatchForward {
        let subjects: Vec<Subject> = samples.iter().map(|&s| Subject::Indexed(s)).collect();
        self.forward_batch_subjects(ctx, &subjects, tables, training)
    }

    /// The general batched forward over [`Subject`]s — indexed samples
    /// and ad-hoc trajectories mix freely within one batch, and each row
    /// is bitwise identical to [`TspnRa::forward_subject`] on the same
    /// subject (address mode resolves before the first tensor op, so the
    /// arithmetic cannot observe it).
    pub fn forward_batch_subjects(
        &self,
        ctx: &SpatialContext,
        subjects: &[Subject],
        tables: &BatchTables,
        training: bool,
    ) -> BatchForward {
        let b = subjects.len();
        assert!(b >= 1, "forward_batch needs a non-empty batch");
        let dm = self.config.dm;
        let prefixes: Vec<&[Visit]> = subjects
            .iter()
            .map(|s| self.prefix_visits(ctx, s))
            .collect();
        for p in &prefixes {
            assert!(!p.is_empty(), "subject with empty prefix");
        }
        let lens: Vec<usize> = prefixes.iter().map(|p| p.len()).collect();
        // Dense jagged layout: sample `b`'s positions occupy rows
        // `offsets[b] .. offsets[b]+lens[b]` of every `[T, dm]` sequence
        // tensor — no padding rows exist anywhere in the batch.
        let total: usize = lens.iter().sum();
        let mut offsets = Vec::with_capacity(b);
        {
            let mut next = 0usize;
            for &len in &lens {
                offsets.push(next);
                next += len;
            }
        }

        // --- Sequence embedding: dense gathers ---
        let poi_rows: Vec<usize> = prefixes
            .iter()
            .flat_map(|pfx| pfx.iter().map(|v| v.poi.0))
            .collect();
        let tile_rows: Vec<usize> = prefixes
            .iter()
            .flat_map(|pfx| pfx.iter().map(|v| ctx.poi_leaf_node(v.poi).0))
            .collect();
        let mut h_tile = tables.tiles.gather_rows(&tile_rows);
        let mut h_poi = tables.pois.gather_rows(&poi_rows);

        if self.config.variant.st_encoders {
            let slot_rows: Vec<usize> = prefixes
                .iter()
                .flat_map(|pfx| pfx.iter().map(|v| time_slot(v.time)))
                .collect();
            h_tile = h_tile
                .add(&self.spatial_codes.gather_rows(&poi_rows))
                .add(&self.temporal_tile.slots.weight.gather_rows(&slot_rows));
            h_poi = h_poi.add(&self.temporal_poi.slots.weight.gather_rows(&slot_rows));
        }
        if training && self.dropout.p > 0.0 {
            // One mask tensor per modality, drawn in the per-sample
            // reference order (tile block then POI block, sample by
            // sample); the dense layout consumes no randomness for
            // padding because there is none.
            let keep = 1.0 - self.dropout.p;
            let scale = 1.0 / keep;
            let mut tile_mask = pool::take_uninit(total * dm);
            let mut poi_mask = pool::take_uninit(total * dm);
            {
                let mut rng = self.rng.borrow_mut();
                let mut draw = |buf: &mut [f32]| {
                    for v in buf.iter_mut() {
                        *v = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                    }
                };
                for (&off, &len) in offsets.iter().zip(&lens) {
                    draw(&mut tile_mask[off * dm..(off + len) * dm]);
                    draw(&mut poi_mask[off * dm..(off + len) * dm]);
                }
            }
            h_tile = h_tile.mul(&Tensor::from_vec(tile_mask, vec![total, dm]));
            h_poi = h_poi.mul(&Tensor::from_vec(poi_mask, vec![total, dm]));
        }

        // --- Historical graph knowledge: one disjoint-union HGAT tape
        // for all unique histories in the batch (duplicates share one
        // encoding tensor, so the fusion module's identity dedup still
        // sees one block per trajectory).
        let histories: Vec<Vec<Visit>> = subjects
            .iter()
            .map(|s| self.history_visits(ctx, s))
            .collect();
        let mut hist_t: Vec<Option<Tensor>> = Vec::with_capacity(b);
        let mut hist_p: Vec<Option<Tensor>> = Vec::with_capacity(b);
        for enc in self.history_encodings_batch(ctx, &histories, tables, training) {
            hist_t.push(enc.0);
            hist_p.push(enc.1);
        }

        // --- Fusion (causal masking happens inside the fused attention
        // nodes — no score-shaped mask tensors exist any more) ---
        let fused_t = self.mp1.forward_batch(&h_tile, &offsets, &lens, &hist_t);
        let fused_p = self.mp2.forward_batch(&h_poi, &offsets, &lens, &hist_p);

        // --- Pointer residual over each sample's visited set ---
        let mut visited_tile_groups: Vec<Vec<usize>> = Vec::with_capacity(b);
        let mut visited_poi_groups: Vec<Vec<usize>> = Vec::with_capacity(b);
        for (history, prefix) in histories.iter().zip(&prefixes) {
            let mut visited_tiles: Vec<usize> = Vec::new();
            let mut visited_pois: Vec<usize> = Vec::new();
            for v in history.iter().chain(prefix.iter()) {
                let t = ctx.poi_leaf_node(v.poi).0;
                if !visited_tiles.contains(&t) {
                    visited_tiles.push(t);
                }
                if !visited_pois.contains(&v.poi.0) {
                    visited_pois.push(v.poi.0);
                }
            }
            visited_tile_groups.push(visited_tiles);
            visited_poi_groups.push(visited_pois);
        }
        let h_out_t = pointer_residual_batch(&fused_t, &tables.tiles, &visited_tile_groups);
        let h_out_p = pointer_residual_batch(&fused_p, &tables.pois, &visited_poi_groups);
        BatchForward { h_out_t, h_out_p }
    }

    /// Training losses for a whole batch as a `[B]` tensor of per-sample
    /// losses (Eq. 8 each). Element `b` is bitwise identical to
    /// `self.loss(ctx, &samples[b], tables)`; reduce with
    /// `sum_all().scale(1/B)` to reproduce the serial batch loss's exact
    /// summation order.
    pub fn loss_batch(
        &self,
        ctx: &SpatialContext,
        samples: &[Sample],
        tables: &BatchTables,
    ) -> Tensor {
        let b = samples.len();
        let out = self.forward_batch(ctx, samples, tables, true);
        let targets: Vec<Visit> = samples
            .iter()
            .map(|s| ctx.dataset.sample_target(s))
            .collect();
        let (s, m) = (self.config.arcface_s, self.config.arcface_m);

        if !self.config.variant.two_step {
            // Single-step ablation: rank every POI directly.
            let cos = out.h_out_p.cosine_many_to_rows(&tables.pois);
            let tg: Vec<usize> = targets.iter().map(|t| t.poi.0).collect();
            let lens = vec![ctx.dataset.pois.len(); b];
            return cos.arcface_loss_rows(&tg, &lens, s, m);
        }

        // Step 1: tile loss over all leaf candidates (table shared by the
        // whole batch).
        let leaf_table = self.leaf_table(ctx, tables);
        let cos_t = out.h_out_t.cosine_many_to_rows(&leaf_table);
        let target_leafs: Vec<usize> = targets.iter().map(|t| ctx.poi_leaf_rank(t.poi)).collect();
        let num_leaves = leaf_table.rows();
        let loss_t = cos_t.arcface_loss_rows(&target_leafs, &vec![num_leaves; b], s, m);

        // Step 2: POI loss over each sample's own top-K tile candidates.
        let mut cand_groups: Vec<Vec<usize>> = Vec::with_capacity(b);
        let mut cand_lens: Vec<usize> = Vec::with_capacity(b);
        let mut target_idx: Vec<usize> = Vec::with_capacity(b);
        {
            let scores = cos_t.data();
            for (bi, target) in targets.iter().enumerate() {
                let row = &scores[bi * num_leaves..(bi + 1) * num_leaves];
                let top = top_k_indices(row, self.config.top_k);
                let mut candidate_pois: Vec<PoiId> = top
                    .iter()
                    .flat_map(|&leaf| ctx.leaf_pois[leaf].iter().copied())
                    .collect();
                if !candidate_pois.contains(&target.poi) {
                    candidate_pois.push(target.poi);
                }
                target_idx.push(
                    candidate_pois
                        .iter()
                        .position(|&p| p == target.poi)
                        .expect("target ensured above"),
                );
                cand_lens.push(candidate_pois.len());
                cand_groups.push(candidate_pois.into_iter().map(|p| p.0).collect());
            }
        }
        let c_max = *cand_lens.iter().max().expect("non-empty batch");
        let cand_table = tables.pois.gather_rows_padded(&cand_groups, c_max);
        let cos_p = out.h_out_p.cosine_grouped(&cand_table, &cand_lens);
        let loss_p = cos_p.arcface_loss_rows(&target_idx, &cand_lens, s, m);

        loss_t.scale(self.config.beta).add(&loss_p)
    }

    /// Batched inference: the full two-step ranking for every query
    /// `(subject, k)` — indexed and ad-hoc subjects mix freely — from
    /// **one** padded batched forward. This is the only inference path:
    /// [`TspnRa::predict`], offline evaluation and serving all reach it.
    /// Each returned [`Prediction`] is bitwise identical to ranking the
    /// per-sample [`TspnRa::forward_subject`] outputs for the same
    /// subject, whatever else shares the batch.
    ///
    /// Runs under [`Tensor::no_grad`]: prediction returns rankings, never
    /// tensors, so tape bookkeeping would be pure overhead.
    pub fn predict_many(
        &self,
        ctx: &SpatialContext,
        queries: &[(Subject, usize)],
        tables: &BatchTables,
    ) -> Vec<Prediction> {
        Tensor::no_grad(|| self.predict_many_inner(ctx, queries, tables))
    }

    fn predict_many_inner(
        &self,
        ctx: &SpatialContext,
        queries: &[(Subject, usize)],
        tables: &BatchTables,
    ) -> Vec<Prediction> {
        let subjects: Vec<Subject> = queries.iter().map(|q| q.0.clone()).collect();
        let out = self.forward_batch_subjects(ctx, &subjects, tables, false);
        let dm = self.config.dm;
        let ht = out.h_out_t.data();
        let hp = out.h_out_p.data();

        if !self.config.variant.two_step {
            let pois = tables.pois.to_vec();
            return (0..subjects.len())
                .map(|b| {
                    let scores = cosine_scores(&hp[b * dm..(b + 1) * dm], &pois, dm);
                    let order = descending_order(&scores);
                    Prediction {
                        tile_ranking: Vec::new(),
                        candidate_count: order.len(),
                        poi_ranking: order.into_iter().map(PoiId).collect(),
                    }
                })
                .collect();
        }

        // Leaf table and POI buffers computed once for the whole batch.
        let leaf_table = self.leaf_table(ctx, tables).to_vec();
        let pois = tables.pois.data();
        queries
            .iter()
            .enumerate()
            .map(|(b, &(_, k))| {
                // Step 1: rank all leaves by cosine similarity.
                let t_scores = cosine_scores(&ht[b * dm..(b + 1) * dm], &leaf_table, dm);
                let tile_ranking = descending_order(&t_scores);
                // Step 2: candidates from the top-K tiles.
                let top: Vec<usize> = tile_ranking.iter().copied().take(k).collect();
                let candidates: Vec<PoiId> = top
                    .iter()
                    .flat_map(|&leaf| ctx.leaf_pois[leaf].iter().copied())
                    .collect();
                let mut cand_vals = pool::scratch_uninit(candidates.len() * dm);
                for (r, p) in candidates.iter().enumerate() {
                    cand_vals[r * dm..(r + 1) * dm]
                        .copy_from_slice(&pois[p.0 * dm..(p.0 + 1) * dm]);
                }
                let p_scores = cosine_scores(&hp[b * dm..(b + 1) * dm], &cand_vals, dm);
                let order = descending_order(&p_scores);
                Prediction {
                    tile_ranking,
                    candidate_count: candidates.len(),
                    poi_ranking: order.into_iter().map(|i| candidates[i]).collect(),
                }
            })
            .collect()
    }
}

/// Batched `h + softmax(2·h·Eᵀ)·E·4` over each sample's own visited rows
/// (see `TspnRa::pointer_residual` for the rationale): `h` is `[B, dm]`,
/// `groups[b]` names sample `b`'s visited rows in `table`. One dense
/// gather plus one fused attention node — no padding rows, no mask.
fn pointer_residual_batch(h: &Tensor, table: &Tensor, groups: &[Vec<usize>]) -> Tensor {
    let b = groups.len();
    let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
    // Visited sets are never empty: the prefix itself is visited.
    assert!(
        lens.iter().all(|&l| l >= 1),
        "pointer residual with empty visited sets"
    );
    let rows: Vec<usize> = groups.iter().flatten().copied().collect();
    let memory = table.gather_rows(&rows); // [Σ lens, dm]
    let mut k_starts = Vec::with_capacity(b);
    let mut next = 0usize;
    for &len in &lens {
        k_starts.push(next);
        next += len;
    }
    let q_starts: Vec<usize> = (0..b).collect();
    let ones = vec![1usize; b];
    let pointed = fused_attention(
        h,
        &memory,
        &memory,
        &FusedAttnSpec {
            dm: h.cols(),
            q_col: 0,
            k_col: 0,
            v_col: 0,
            q_starts: &q_starts,
            q_lens: &ones,
            k_starts: &k_starts,
            k_lens: &lens,
            // Scale 2.0 = sharper pointing, folded into the softmax pass.
            scale: 2.0,
            causal: false,
        },
    );
    h.add(&pointed.scale(4.0))
}
