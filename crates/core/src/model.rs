//! The TSPN-RA model (paper Secs. III–V): feature embedding, historical
//! graph knowledge, attention fusion, and the two-step tile→POI predictor
//! with the ArcFace margin loss.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tspn_data::{PoiId, Sample, Timestamp, Visit};
use tspn_graph::{build_qrp, Hgat, QrpGraph, QrpNode, QrpOptions};
use tspn_tensor::nn::{Dropout, EmbeddingTable, Module};
use tspn_tensor::Tensor;

use crate::config::TspnConfig;
use crate::context::SpatialContext;
use crate::embed::{Me1, Me2, SpatialEncoder, TemporalEncoder};
use crate::fusion::FusionModule;
use crate::subject::Subject;

/// Output of one two-step prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Leaf ranks ordered best-first (the tile ranking `R_T`).
    pub tile_ranking: Vec<usize>,
    /// POI ranking `R_P` (candidates from the top-K tiles, best first).
    pub poi_ranking: Vec<PoiId>,
    /// How many POI candidates the second step considered.
    pub candidate_count: usize,
}

impl Prediction {
    /// Rank (0-based) of a POI in `R_P`, `None` when it was filtered out by
    /// tile selection — the paper scores this as `|R_P| + 1`.
    pub fn rank_of(&self, poi: PoiId) -> Option<usize> {
        self.poi_ranking.iter().position(|&p| p == poi)
    }

    /// Rank of a leaf tile in `R_T`.
    pub fn tile_rank_of(&self, leaf_rank: usize) -> Option<usize> {
        self.tile_ranking.iter().position(|&t| t == leaf_rank)
    }
}

/// One trajectory's cached history encodings `(H_T◁, H_P◁)`.
type HistoryEncodings = (Option<Tensor>, Option<Tensor>);

/// Content key of a history visit run: the exact `(poi, time)` sequence.
/// Keys both the QR-P structure cache and the inference-time encoding
/// memo, so an ad-hoc subject whose history matches an indexed sample's
/// (or a session re-predicting an unchanged sequence) reuses the cached
/// work — and two *different* sequences can never collide.
pub(crate) type HistKey = Box<[(usize, i64)]>;

/// Builds the content key of a visit run.
pub(crate) fn hist_key(visits: &[Visit]) -> HistKey {
    visits.iter().map(|v| (v.poi.0, v.time)).collect()
}

/// The inference-time history memo: `(tile-table tensor id, per-history
/// content key encodings)`.
type HistoryCache = (u64, HashMap<HistKey, HistoryEncodings>);

/// Bound on the content-keyed caches. Ad-hoc traffic can present
/// unboundedly many distinct histories; past this many entries a cache is
/// cleared wholesale (the in-dataset working set re-fills in one pass,
/// and correctness never depends on a hit).
const CONTENT_CACHE_CAP: usize = 4096;

/// Per-batch shared tensors (tile and POI embedding tables).
pub struct BatchTables {
    /// `E_T [num_tree_nodes, dm]`, row `i` = tile `NodeId(i)`.
    pub tiles: Tensor,
    /// `E_P [num_pois, dm]`.
    pub pois: Tensor,
}

/// The assembled model.
pub struct TspnRa {
    /// Model configuration.
    pub config: TspnConfig,
    me1: Me1,
    tile_fallback: EmbeddingTable,
    me2: Me2,
    pub(crate) temporal_tile: TemporalEncoder,
    pub(crate) temporal_poi: TemporalEncoder,
    hgat: Hgat,
    pub(crate) mp1: FusionModule,
    pub(crate) mp2: FusionModule,
    pub(crate) dropout: Dropout,
    /// Pre-scaled sinusoidal code per POI location (`0.1 · M_s(loc)`),
    /// gathered per prefix instead of re-running the trig encoder on
    /// every forward pass. Row `i` = POI `i`.
    pub(crate) spatial_codes: Tensor,
    /// QR-P structures keyed by history **content** (graphs are pure
    /// functions of the visit run), so indexed and ad-hoc subjects with
    /// the same history share one structure.
    qrp_cache: RefCell<HashMap<HistKey, Rc<QrpGraph>>>,
    /// Inference-only memo of [`TspnRa::history_encodings_batch`]
    /// outputs, keyed by the tile-table tensor id they were computed
    /// against (history encodings are pure functions of
    /// `(graph, tables)`): `(tables id, per-history content key
    /// encodings)`. Populated only under
    /// [`Tensor::no_grad`], where the cached tensors carry no tape.
    history_cache: RefCell<HistoryCache>,
    /// Packed `[n, 3, s, s]` tile-image input keyed by the context
    /// revision it was staged from. The packed tensor is a pure leaf (no
    /// tape), so reusing it across gradient steps is safe; it only goes
    /// stale when the imagery itself is swapped.
    packed_cache: RefCell<Option<(u64, Tensor)>>,
    pub(crate) rng: RefCell<StdRng>,
}

impl TspnRa {
    /// Builds a model for a prepared spatial context.
    pub fn new(config: TspnConfig, ctx: &SpatialContext) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dm = config.dm;
        let alpha = if config.variant.use_category {
            config.alpha
        } else {
            1.0
        };
        let spatial = SpatialEncoder::new(dm, ctx.dataset.region);
        let mut codes = Vec::with_capacity(ctx.dataset.pois.len() * dm);
        for poi in &ctx.dataset.pois {
            codes.extend(spatial.encode(&poi.loc).into_iter().map(|v| 0.1 * v));
        }
        let spatial_codes = Tensor::from_vec(codes, vec![ctx.dataset.pois.len(), dm]);
        TspnRa {
            me1: Me1::new(&mut rng, config.image_size, dm),
            tile_fallback: EmbeddingTable::new(&mut rng, ctx.num_tiles(), dm),
            me2: Me2::new(
                &mut rng,
                ctx.dataset.pois.len(),
                ctx.dataset.num_categories,
                dm,
                alpha,
            ),
            temporal_tile: TemporalEncoder::new(&mut rng, dm),
            temporal_poi: TemporalEncoder::new(&mut rng, dm),
            hgat: Hgat::new(&mut rng, dm, config.hgat_layers),
            mp1: FusionModule::new(&mut rng, dm, config.attn_blocks),
            mp2: FusionModule::new(&mut rng, dm, config.attn_blocks),
            dropout: Dropout::new(config.dropout),
            spatial_codes,
            qrp_cache: RefCell::new(HashMap::new()),
            history_cache: RefCell::new((0, HashMap::new())),
            packed_cache: RefCell::new(None),
            rng: RefCell::new(StdRng::seed_from_u64(config.seed ^ 0xD20)),
            config,
        }
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        if self.config.variant.use_imagery {
            p.extend(self.me1.params());
        }
        // The per-tile table is always trainable: with imagery it is the
        // small identity correction added to the CNN embedding; without it
        // is the whole tile representation ("No Remote Sensing" ablation).
        p.extend(self.tile_fallback.params());
        p.extend(self.me2.params());
        if self.config.variant.st_encoders {
            p.extend(self.temporal_tile.params());
            p.extend(self.temporal_poi.params());
        }
        if self.config.variant.use_graph {
            p.extend(self.hgat.params());
        }
        p.extend(self.mp1.params());
        p.extend(self.mp2.params());
        p
    }

    /// Total scalar parameter count (Table V memory accounting).
    pub fn num_params(&self) -> usize {
        self.params().iter().map(Tensor::len).sum()
    }

    /// Number of leading entries of [`TspnRa::params`] that feed the
    /// shared embedding tables ([`TspnRa::batch_tables`]): `me1` (when
    /// imagery is on), the per-tile correction table and `me2`. The
    /// data-parallel trainer never syncs these to shard replicas — shards
    /// receive the table *values* as read-only leaves and only the owner
    /// backpropagates the tables tape.
    pub fn table_params_len(&self) -> usize {
        let mut n = 0;
        if self.config.variant.use_imagery {
            n += self.me1.params().len();
        }
        n += self.tile_fallback.params().len();
        n += self.me2.params().len();
        n
    }

    /// Named parameters (stable order) for checkpointing.
    pub fn named_params(&self) -> Vec<(String, Tensor)> {
        self.params()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("tspn.{i}"), p))
            .collect()
    }

    /// Snapshots all parameters into a checkpoint.
    pub fn save(&self) -> tspn_tensor::serialize::Checkpoint {
        let named = self.named_params();
        tspn_tensor::serialize::Checkpoint::capture(named.iter().map(|(n, t)| (n.as_str(), t)))
    }

    /// Re-snapshots all parameters into an existing checkpoint, reusing
    /// its record allocations (see
    /// [`tspn_tensor::serialize::Checkpoint::capture_into`]) — the
    /// zero-allocation form of [`TspnRa::save`] for per-epoch loops.
    pub fn save_into(&self, ckpt: &mut tspn_tensor::serialize::Checkpoint) {
        let named = self.named_params();
        ckpt.capture_into(named.iter().map(|(n, t)| (n.as_str(), t)));
    }

    /// Restores parameters from a checkpoint produced by [`TspnRa::save`]
    /// on a model with the identical configuration.
    ///
    /// # Errors
    /// Returns a message on missing tensors or shape mismatches (e.g. a
    /// checkpoint from a different `dm` or dataset size).
    pub fn load(&self, ckpt: &tspn_tensor::serialize::Checkpoint) -> Result<(), String> {
        let named = self.named_params();
        ckpt.restore(named.iter().map(|(n, t)| (n.as_str(), t)))
    }

    /// Computes the per-batch embedding tables `E_T` and `E_P`.
    ///
    /// With imagery enabled, a tile's embedding is the CNN encoding of its
    /// remote-sensing image plus a learnable per-tile correction, then
    /// L2-normalised — the paper's "cluster of adaptable tile embeddings".
    /// The correction compensates for the lower discriminative power of
    /// this reproduction's 16-pixel procedural tiles versus the paper's
    /// 256-pixel Google-Maps imagery (see DESIGN.md); the environment
    /// signal itself still flows exclusively through the CNN.
    pub fn batch_tables(&self, ctx: &SpatialContext) -> BatchTables {
        let all: Vec<usize> = (0..ctx.num_tiles()).collect();
        let identity = self.tile_fallback.lookup(&all);
        let tiles = if self.config.variant.use_imagery {
            // Stage the raw imagery once per context revision: the packed
            // input is a tape-free leaf, so the copy out of `image_chw`
            // is identical every step until `swap_imagery`.
            let packed = {
                let mut cache = self.packed_cache.borrow_mut();
                match cache.as_ref() {
                    Some((rev, t)) if *rev == ctx.revision() => t.clone(),
                    _ => {
                        let t = self.me1.pack_tiles_chw(&ctx.image_chw);
                        *cache = Some((ctx.revision(), t.clone()));
                        t
                    }
                }
            };
            self.me1
                .embed_batch(&packed)
                .add(&identity)
                .l2_normalize_rows()
        } else {
            identity.l2_normalize_rows()
        };
        let poi_ids: Vec<usize> = (0..ctx.dataset.pois.len()).collect();
        let cate_ids: Vec<usize> = ctx.dataset.pois.iter().map(|p| p.cate.0).collect();
        let pois = self.me2.embed(&poi_ids, &cate_ids);
        BatchTables { tiles, pois }
    }

    /// The prefix of a subject, truncated to the configured window.
    pub(crate) fn prefix_visits<'a>(
        &self,
        ctx: &'a SpatialContext,
        subject: &'a Subject,
    ) -> &'a [Visit] {
        let prefix = subject.prefix(ctx);
        let start = prefix.len().saturating_sub(self.config.max_prefix);
        &prefix[start..]
    }

    /// The concatenated historical visits of a subject, truncated to the
    /// most recent `max_history`. Indexed and ad-hoc subjects resolve to
    /// the same values for the same underlying stream, so everything
    /// downstream (graphs, encodings, pointer residuals) is address-mode
    /// agnostic.
    pub(crate) fn history_visits(&self, ctx: &SpatialContext, subject: &Subject) -> Vec<Visit> {
        let mut visits: Vec<Visit> = match subject {
            Subject::Indexed(s) => ctx
                .dataset
                .sample_history(s)
                .iter()
                .flat_map(|t| t.visits.iter().copied())
                .collect(),
            Subject::AdHoc(t) => t.history.clone(),
        };
        if visits.len() > self.config.max_history {
            visits.drain(..visits.len() - self.config.max_history);
        }
        visits
    }

    /// QR-P graph for a history visit run, cached by content (`key` is
    /// the run's precomputed [`hist_key`] — callers build it once per
    /// subject and share it across every content-keyed cache).
    fn qrp_graph(
        &self,
        ctx: &SpatialContext,
        history: &[Visit],
        key: &HistKey,
    ) -> Option<Rc<QrpGraph>> {
        if !self.config.variant.use_graph || history.is_empty() {
            return None;
        }
        if let Some(g) = self.qrp_cache.borrow().get(key) {
            return Some(Rc::clone(g));
        }
        let graph = Rc::new(build_qrp(
            &ctx.tree,
            &ctx.road_adjacency,
            history,
            &ctx.dataset,
            QrpOptions {
                road_edges: self.config.variant.road_edges,
                contain_edges: self.config.variant.contain_edges,
            },
        ));
        let mut cache = self.qrp_cache.borrow_mut();
        if cache.len() >= CONTENT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key.clone(), Rc::clone(&graph));
        Some(graph)
    }

    /// Initial node features `H^0` of a QR-P graph (Eq. 7): tiles from
    /// `E_T`, POIs from `E_P`. One gather per table plus a permutation
    /// gather back into node order — a fixed four tape nodes instead of
    /// one gather per graph node.
    fn qrp_h0(&self, graph: &QrpGraph, tables: &BatchTables) -> Tensor {
        let mut tile_rows: Vec<usize> = Vec::new();
        let mut poi_rows: Vec<usize> = Vec::new();
        for n in &graph.nodes {
            match n {
                QrpNode::Tile(t) => tile_rows.push(t.0),
                QrpNode::Poi(p) => poi_rows.push(p.0),
            }
        }
        // POI features follow the tile block in the concat; map each node
        // back to its row there.
        let mut perm = Vec::with_capacity(graph.nodes.len());
        let (mut next_tile, mut next_poi) = (0usize, tile_rows.len());
        for n in &graph.nodes {
            match n {
                QrpNode::Tile(_) => {
                    perm.push(next_tile);
                    next_tile += 1;
                }
                QrpNode::Poi(_) => {
                    perm.push(next_poi);
                    next_poi += 1;
                }
            }
        }
        match (tile_rows.is_empty(), poi_rows.is_empty()) {
            (false, false) => Tensor::concat_rows(&[
                tables.tiles.gather_rows(&tile_rows),
                tables.pois.gather_rows(&poi_rows),
            ])
            .gather_rows(&perm),
            (false, true) => tables.tiles.gather_rows(&tile_rows),
            (true, false) => tables.pois.gather_rows(&poi_rows),
            (true, true) => unreachable!("QR-P graphs are non-empty"),
        }
    }

    /// Splits HGAT output rows `off .. off+graph.num_nodes()` of `h` into
    /// the graph's `(H_T◁, H_P◁)` gathers.
    fn split_encoding(graph: &QrpGraph, h: &Tensor, off: usize) -> HistoryEncodings {
        let tile_idx: Vec<usize> = graph.tile_nodes().map(|(i, _)| i + off).collect();
        let poi_idx: Vec<usize> = graph.poi_nodes().map(|(i, _)| i + off).collect();
        let ht = (!tile_idx.is_empty()).then(|| h.gather_rows(&tile_idx));
        let hp = (!poi_idx.is_empty()).then(|| h.gather_rows(&poi_idx));
        (ht, hp)
    }

    /// Batched history encoding: resolves every history's graph (content
    /// and inference caches first), then runs **all** graphs still needing
    /// encoding through one disjoint [`tspn_graph::Hgat::forward_union`]
    /// tape — the per-edge-type GEMMs and padded softmaxes batch across
    /// samples instead of running once per graph. Duplicate histories
    /// share one encoding tensor (by id), which the fusion module's
    /// identity dedup relies on. Under no-grad inference the encodings are
    /// pure functions of `(graph, tables)` and are memoised by sequence
    /// content, so evaluating many prefixes of one trajectory — or a
    /// session re-predicting an unchanged history — runs the HGAT once.
    pub(crate) fn history_encodings_batch(
        &self,
        ctx: &SpatialContext,
        histories: &[Vec<Visit>],
        tables: &BatchTables,
        training: bool,
    ) -> Vec<HistoryEncodings> {
        // Unique histories, in first-appearance order.
        let mut keys: Vec<HistKey> = Vec::new();
        let mut uniq_hist: Vec<&[Visit]> = Vec::new();
        let mut index: HashMap<HistKey, usize> = HashMap::new();
        let mut uniq_of: Vec<usize> = Vec::with_capacity(histories.len());
        for h in histories {
            let key = hist_key(h);
            let next = keys.len();
            let u = *index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                uniq_hist.push(h.as_slice());
                next
            });
            uniq_of.push(u);
        }
        let use_cache = !training && Tensor::grad_suspended();
        if use_cache {
            let tables_id = tables.tiles.id();
            let mut cache = self.history_cache.borrow_mut();
            if cache.0 != tables_id {
                cache.0 = tables_id;
                cache.1.clear();
            }
        }
        // Per unique history: a ready encoding or a graph to encode.
        let mut ready: Vec<Option<HistoryEncodings>> = vec![None; keys.len()];
        let mut pending: Vec<(usize, Rc<QrpGraph>)> = Vec::new();
        for (u, key) in keys.iter().enumerate() {
            if use_cache {
                if let Some(e) = self.history_cache.borrow().1.get(key) {
                    ready[u] = Some(e.clone());
                    continue;
                }
            }
            match self.qrp_graph(ctx, uniq_hist[u], key) {
                Some(g) => pending.push((u, g)),
                None => ready[u] = Some((None, None)),
            }
        }
        // One union tape over everything still to encode.
        if !pending.is_empty() {
            let refs: Vec<&QrpGraph> = pending.iter().map(|(_, g)| g.as_ref()).collect();
            let h0 = if refs.len() == 1 {
                self.qrp_h0(refs[0], tables)
            } else {
                let parts: Vec<Tensor> = refs.iter().map(|g| self.qrp_h0(g, tables)).collect();
                Tensor::concat_rows(&parts)
            };
            let h = self.hgat.forward_union(&refs, &h0);
            let mut off = 0usize;
            for (u, g) in &pending {
                let enc = Self::split_encoding(g, &h, off);
                off += g.num_nodes();
                if use_cache {
                    let mut cache = self.history_cache.borrow_mut();
                    if cache.1.len() >= CONTENT_CACHE_CAP {
                        cache.1.clear();
                    }
                    cache.1.insert(keys[*u].clone(), enc.clone());
                }
                ready[*u] = Some(enc);
            }
        }
        uniq_of
            .iter()
            .map(|&u| ready[u].clone().expect("every unique history resolved"))
            .collect()
    }

    /// Runs the network up to the fused output vectors
    /// `(h_out_τ [1, dm], h_out_p [1, dm])` for a dataset-indexed sample
    /// (see [`TspnRa::forward_subject`] for the general entry point).
    ///
    /// Per-sample test reference for [`TspnRa::forward_batch`]; no
    /// production caller.
    #[doc(hidden)]
    pub fn forward(
        &self,
        ctx: &SpatialContext,
        sample: &Sample,
        tables: &BatchTables,
        training: bool,
    ) -> (Tensor, Tensor) {
        self.forward_subject(ctx, &Subject::Indexed(*sample), tables, training)
    }

    /// Runs the network for any [`Subject`] — indexed or ad-hoc. Both
    /// address modes resolve to the same `(prefix, history)` visit runs
    /// and then share every instruction, so an ad-hoc subject built from
    /// an in-dataset stream produces **bitwise** the indexed result.
    ///
    /// Per-sample test reference for
    /// [`TspnRa::forward_batch_subjects`]; no production caller.
    #[doc(hidden)]
    pub fn forward_subject(
        &self,
        ctx: &SpatialContext,
        subject: &Subject,
        tables: &BatchTables,
        training: bool,
    ) -> (Tensor, Tensor) {
        let prefix = self.prefix_visits(ctx, subject);
        assert!(!prefix.is_empty(), "subject with empty prefix");
        let dm = self.config.dm;

        // --- Tile sequence embedding ---
        let tile_rows: Vec<usize> = prefix.iter().map(|v| ctx.poi_leaf_node(v.poi).0).collect();
        let mut h_tile = tables.tiles.gather_rows(&tile_rows);
        // --- POI sequence embedding ---
        let poi_rows: Vec<usize> = prefix.iter().map(|v| v.poi.0).collect();
        let mut h_poi = tables.pois.gather_rows(&poi_rows);

        if self.config.variant.st_encoders {
            let times: Vec<Timestamp> = prefix.iter().map(|v| v.time).collect();
            // h_τk = M_t(M_s(E_T(τ_k), loc_k), t_k)  (Eq. 2); the spatial
            // codes are pre-computed per POI (locations never change).
            h_tile = h_tile
                .add(&self.spatial_codes.gather_rows(&poi_rows))
                .add(&self.temporal_tile.encode_seq(&times));
            // h_pk = M_t(E_P(p_k), t_k)
            h_poi = h_poi.add(&self.temporal_poi.encode_seq(&times));
        }
        if training {
            let mut rng = self.rng.borrow_mut();
            h_tile = self.dropout.forward(&h_tile, true, &mut *rng);
            h_poi = self.dropout.forward(&h_poi, true, &mut *rng);
        }
        debug_assert_eq!(h_tile.cols(), dm);

        // --- Historical graph knowledge ---
        let history = self.history_visits(ctx, subject);
        let (hist_t, hist_p) = self
            .history_encodings_batch(ctx, std::slice::from_ref(&history), tables, training)
            .pop()
            .expect("one history yields one encoding");

        // --- Fusion ---
        let fused_t = self.mp1.forward(&h_tile, hist_t.as_ref());
        let fused_p = self.mp2.forward(&h_poi, hist_p.as_ref());

        // Pointer residual: an attention-weighted sum over the embeddings
        // of historically visited tiles/POIs, added to the fused output.
        // Cosine ranking compares h_out against E_T/E_P rows, so a soft
        // pointer in that same embedding space lets one query vector stay
        // simultaneously close to several habitual candidates — the
        // multi-modal revisit distribution that P(next tile ∈ visited
        // tiles) ≈ 0.85 makes dominant. At paper scale the cross-attention
        // stack learns this pointing internally; the explicit residual
        // makes it reliable at this reproduction's data scale (DESIGN.md).
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
        let h_out_t = Self::pointer_residual(&fused_t, &tables.tiles, &visited_tiles);
        let h_out_p = Self::pointer_residual(&fused_p, &tables.pois, &visited_pois);
        (h_out_t, h_out_p)
    }

    /// `h + softmax(h·Eᵀ)·E` over the rows of `table` named by `rows`,
    /// as one fused attention node — the same node the batched path's
    /// `pointer_residual_batch` uses, so batch-of-one gradients stay
    /// bitwise identical.
    ///
    /// Per-sample test reference (reached only through
    /// [`TspnRa::forward_subject`]); no production caller.
    fn pointer_residual(h: &Tensor, table: &Tensor, rows: &[usize]) -> Tensor {
        if rows.is_empty() {
            return h.clone();
        }
        let memory = table.gather_rows(rows); // [m, dm]
        let pointed = tspn_tensor::fused_attention(
            h,
            &memory,
            &memory,
            &tspn_tensor::FusedAttnSpec {
                dm: h.cols(),
                q_col: 0,
                k_col: 0,
                v_col: 0,
                q_starts: &[0],
                q_lens: &[1],
                k_starts: &[0],
                k_lens: &[rows.len()],
                // Scale 2.0 = sharper pointing, folded into the softmax.
                scale: 2.0,
                causal: false,
            },
        );
        h.add(&pointed.scale(4.0))
    }

    /// Leaf-tile embedding table (rows follow `ctx.leaves` order).
    pub(crate) fn leaf_table(&self, ctx: &SpatialContext, tables: &BatchTables) -> Tensor {
        let rows: Vec<usize> = ctx.leaves.iter().map(|l| l.0).collect();
        tables.tiles.gather_rows(&rows)
    }

    /// Training loss for one sample (Eq. 8): `β·loss_τ + loss_p`.
    ///
    /// Per-sample test reference for [`TspnRa::loss_batch`]; no
    /// production caller.
    #[doc(hidden)]
    pub fn loss(&self, ctx: &SpatialContext, sample: &Sample, tables: &BatchTables) -> Tensor {
        let (h_out_t, h_out_p) = self.forward(ctx, sample, tables, true);
        let target = ctx.dataset.sample_target(sample);
        let target_leaf = ctx.poi_leaf_rank(target.poi);

        if !self.config.variant.two_step {
            // Single-step ablation: rank every POI directly.
            let cos = h_out_p.cosine_to_rows(&tables.pois);
            return cos.arcface_loss(target.poi.0, self.config.arcface_s, self.config.arcface_m);
        }

        // Step 1: tile loss over all leaf candidates.
        let leaf_table = self.leaf_table(ctx, tables);
        let cos_t = h_out_t.cosine_to_rows(&leaf_table);
        let loss_t = cos_t.arcface_loss(target_leaf, self.config.arcface_s, self.config.arcface_m);

        // Step 2: POI loss over candidates from the current top-K tiles —
        // the tile selector acting as a negative-sample generator.
        let scores = cos_t.to_vec();
        let top = top_k_indices(&scores, self.config.top_k);
        let mut candidate_pois: Vec<PoiId> = top
            .iter()
            .flat_map(|&leaf| ctx.leaf_pois[leaf].iter().copied())
            .collect();
        if !candidate_pois.contains(&target.poi) {
            candidate_pois.push(target.poi);
        }
        let cand_rows: Vec<usize> = candidate_pois.iter().map(|p| p.0).collect();
        let cand_table = tables.pois.gather_rows(&cand_rows);
        let target_idx = candidate_pois
            .iter()
            .position(|&p| p == target.poi)
            .expect("target ensured above");
        let cos_p = h_out_p.cosine_to_rows(&cand_table);
        let loss_p = cos_p.arcface_loss(target_idx, self.config.arcface_s, self.config.arcface_m);

        loss_t.scale(self.config.beta).add(&loss_p)
    }

    /// Inference: the full two-step ranking for a sample with the
    /// configured `top_k` — a batch of one through
    /// [`TspnRa::predict_many`].
    pub fn predict(
        &self,
        ctx: &SpatialContext,
        sample: &Sample,
        tables: &BatchTables,
    ) -> Prediction {
        self.predict_many(
            ctx,
            &[(Subject::Indexed(*sample), self.config.top_k)],
            tables,
        )
        .pop()
        .expect("one query yields one prediction")
    }

    /// Clears the QR-P structure cache (e.g. after swapping imagery the
    /// structures stay valid, but tests use this to force rebuilds) and
    /// the inference-time history-encoding memo.
    pub fn clear_cache(&self) {
        self.qrp_cache.borrow_mut().clear();
        let mut hist = self.history_cache.borrow_mut();
        hist.0 = 0;
        hist.1.clear();
    }

    /// Reseeds the dropout RNG. The data-parallel trainer gives every
    /// gradient shard a seed derived from `(config.seed, step, shard)`, so
    /// training is reproducible for a fixed seed and thread count no
    /// matter which worker executes which shard.
    pub fn reseed_dropout(&self, seed: u64) {
        *self.rng.borrow_mut() = StdRng::seed_from_u64(seed);
    }
}

/// Indices of the `k` largest scores, best first.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut order = descending_order(scores);
    order.truncate(k);
    order
}

/// All indices sorted by descending score (ties by index for determinism).
pub fn descending_order(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Partition;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;

    fn tiny_setup() -> (SpatialContext, TspnConfig) {
        let mut dcfg = nyc_mini(0.1);
        dcfg.days = 30;
        let (ds, world) = generate_dataset(dcfg);
        let cfg = TspnConfig {
            dm: 16,
            image_size: 8,
            top_k: 4,
            attn_blocks: 1,
            hgat_layers: 1,
            max_prefix: 8,
            max_history: 24,
            partition: Partition::QuadTree {
                max_depth: 5,
                leaf_capacity: 10,
            },
            ..TspnConfig::default()
        };
        let ctx = SpatialContext::build(ds, world, &cfg);
        (ctx, cfg)
    }

    fn first_sample(ctx: &SpatialContext) -> Sample {
        // Prefer a sample with real history and a multi-visit prefix so all
        // attention paths are exercised.
        let samples = ctx.dataset.all_samples();
        samples
            .iter()
            .find(|s| s.traj_index > 0 && s.prefix_len >= 2)
            .or_else(|| samples.first())
            .copied()
            .expect("dataset has samples")
    }

    #[test]
    fn forward_produces_dm_vectors() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let (ht, hp) = model.forward(&ctx, &s, &tables, false);
        assert_eq!(ht.shape().0, vec![1, 16]);
        assert_eq!(hp.shape().0, vec![1, 16]);
    }

    #[test]
    fn loss_is_finite_and_differentiable() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let loss = model.loss(&ctx, &s, &tables);
        assert!(loss.item().is_finite());
        loss.backward();
        let with_grad = model
            .params()
            .iter()
            .filter(|p| p.grad().iter().any(|g| g.abs() > 0.0))
            .count();
        // A couple of parameters are legitimately gradient-free on a given
        // sample: attention vectors of edge types absent from this user's
        // QR-P graph, and key biases (softmax shift invariance).
        assert!(
            with_grad + 4 >= model.params().len(),
            "only {with_grad}/{} params got gradient",
            model.params().len()
        );
    }

    #[test]
    fn predict_ranks_all_leaves_and_contains_candidates() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let pred = model.predict(&ctx, &s, &tables);
        assert_eq!(pred.tile_ranking.len(), ctx.num_leaves());
        assert_eq!(pred.poi_ranking.len(), pred.candidate_count);
        // Candidates are exactly the POIs of the top-K tiles.
        let expected: usize = pred.tile_ranking[..4]
            .iter()
            .map(|&l| ctx.leaf_pois[l].len())
            .sum();
        assert_eq!(pred.candidate_count, expected);
    }

    #[test]
    fn larger_k_gives_more_candidates() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let queries = [
            (Subject::Indexed(s), 2),
            (Subject::Indexed(s), ctx.num_leaves()),
        ];
        let preds = model.predict_many(&ctx, &queries, &tables);
        let (small, large) = (&preds[0], &preds[1]);
        assert!(large.candidate_count >= small.candidate_count);
        assert_eq!(large.candidate_count, ctx.dataset.pois.len());
    }

    #[test]
    fn no_two_step_ranks_everything() {
        let (ctx, mut cfg) = tiny_setup();
        cfg.variant.two_step = false;
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let pred = model.predict(&ctx, &s, &tables);
        assert_eq!(pred.poi_ranking.len(), ctx.dataset.pois.len());
        assert!(pred.tile_ranking.is_empty());
    }

    #[test]
    fn no_imagery_variant_runs() {
        let (ctx, mut cfg) = tiny_setup();
        cfg.variant.use_imagery = false;
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let loss = model.loss(&ctx, &s, &tables);
        assert!(loss.item().is_finite());
    }

    #[test]
    fn no_graph_variant_runs() {
        let (ctx, mut cfg) = tiny_setup();
        cfg.variant.use_graph = false;
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let (ht, _) = model.forward(&ctx, &s, &tables, false);
        assert!(ht.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn qrp_cache_reuses_structures() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let _ = model.forward(&ctx, &s, &tables, false);
        let cached = model.qrp_cache.borrow().len();
        let _ = model.forward(&ctx, &s, &tables, false);
        assert_eq!(model.qrp_cache.borrow().len(), cached);
        model.clear_cache();
        assert_eq!(model.qrp_cache.borrow().len(), 0);
    }

    #[test]
    fn top_k_and_order_helpers() {
        let scores = [0.1, 0.9, 0.5, 0.9];
        assert_eq!(descending_order(&scores), vec![1, 3, 2, 0]);
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
    }

    #[test]
    fn checkpoint_roundtrip_restores_predictions() {
        let (ctx, cfg) = tiny_setup();
        let model_a = TspnRa::new(cfg.clone(), &ctx);
        let tables_a = model_a.batch_tables(&ctx);
        let s = first_sample(&ctx);
        let pred_a = model_a.predict(&ctx, &s, &tables_a);
        let ckpt = model_a.save();

        // A model with a different seed starts out different…
        let mut cfg_b = cfg;
        cfg_b.seed = 999;
        let model_b = TspnRa::new(cfg_b, &ctx);
        // …until restored from the checkpoint.
        model_b.load(&ckpt).expect("compatible shapes");
        let tables_b = model_b.batch_tables(&ctx);
        let pred_b = model_b.predict(&ctx, &s, &tables_b);
        assert_eq!(pred_a.tile_ranking, pred_b.tile_ranking);
        assert_eq!(pred_a.poi_ranking, pred_b.poi_ranking);
    }

    #[test]
    fn checkpoint_rejects_mismatched_config() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg.clone(), &ctx);
        let ckpt = model.save();
        let mut cfg_big = cfg;
        cfg_big.dm = 32; // different embedding width
        let other = TspnRa::new(cfg_big, &ctx);
        assert!(other.load(&ckpt).is_err());
    }
}
