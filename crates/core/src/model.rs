//! The TSPN-RA model (paper Secs. III–V): feature embedding, historical
//! graph knowledge, attention fusion, and the two-step tile→POI predictor
//! with the ArcFace margin loss.

use std::cell::{Cell, RefCell};
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

/// Graph key of a windowed history: its distinct POI ids in first-visit
/// order. That is everything [`build_qrp`] reads from a visit run (the
/// tiles follow from the POIs; times and repeat counts never enter the
/// graph), so two runs with one key have one QR-P graph, and under fixed
/// tables one HGAT encoding. Keys both the QR-P structure cache and the
/// inference-time encoding memo: an ad-hoc subject whose history matches
/// an indexed sample's, a session re-predicting an unchanged history, and
/// a session whose newest history visit revisits a POI it already holds
/// all reuse the cached work. Two runs whose graphs differ never share a
/// key. Both caches look a key up as a borrowed `&[usize]`, so a hit
/// allocates none.
pub(crate) type HistKey = Box<[usize]>;

/// Writes the graph key ([`HistKey`]) of a visit run into `key`,
/// replacing its contents.
fn graph_key_into(visits: &[Visit], key: &mut Vec<usize>) {
    key.clear();
    for v in visits {
        if !key.contains(&v.poi.0) {
            key.push(v.poi.0);
        }
    }
}

/// The inference-time history memo: `(tile-table tensor id, encodings
/// per graph key)`.
type HistoryCache = (u64, HashMap<HistKey, HistoryEncodings>);

/// Running totals of no-grad history-memo lookups on one model: one per
/// distinct history run of a batch that has a graph to encode (the
/// variant uses the graph and the history is non-empty).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups answered from the memo: no graph built, no HGAT run.
    pub hits: u64,
    /// Lookups that built the QR-P graph and ran the HGAT.
    pub misses: u64,
}

impl MemoCounts {
    /// The lookups counted after `earlier`, a reading of the same model.
    pub fn since(self, earlier: MemoCounts) -> MemoCounts {
        MemoCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Bound on the graph-keyed caches (the QR-P structure cache, which
/// training fills, and the inference history memo). Ad-hoc traffic can present
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
    /// QR-P structures keyed by the history's graph key ([`HistKey`]:
    /// graphs are pure functions of it), so indexed and ad-hoc subjects
    /// with the same history share one structure. Filled only by taped
    /// passes: training re-encodes every history each step. A no-grad
    /// inference pass reuses a structure training left here (a trained
    /// replica evaluating) but never adds one, because its
    /// `history_cache` entry already spares it the next rebuild.
    qrp_cache: RefCell<HashMap<HistKey, Rc<QrpGraph>>>,
    /// Inference-only memo of [`TspnRa::history_encodings_batch`]
    /// outputs: `(tables id, encodings per graph key)`. History encodings
    /// are pure functions of `(graph, tables)`, so an entry is keyed by
    /// the history's [`HistKey`] and the whole memo by the tile-table
    /// tensor id it was computed against (a new table clears it).
    /// Populated only under [`Tensor::no_grad`], where the cached tensors
    /// carry no tape. This is all a serving replica keeps per history:
    /// the QR-P graph behind an entry is dropped once it is encoded.
    history_cache: RefCell<HistoryCache>,
    /// Hits and misses of `history_cache` lookups so far.
    memo_counts: Cell<MemoCounts>,
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
            memo_counts: Cell::new(MemoCounts::default()),
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

    /// QR-P graph for a non-empty history visit run (`key` is the run's
    /// graph key, see [`graph_key_into`]). Every pass reads `qrp_cache`;
    /// only a taped one fills it, while a no-grad inference pass
    /// (`inference`) drops the graph it built once it is encoded.
    fn qrp_graph(
        &self,
        ctx: &SpatialContext,
        history: &[Visit],
        key: &[usize],
        inference: bool,
    ) -> Rc<QrpGraph> {
        if let Some(g) = self.qrp_cache.borrow().get(key) {
            return Rc::clone(g);
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
        if inference {
            return graph;
        }
        let mut cache = self.qrp_cache.borrow_mut();
        if cache.len() >= CONTENT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key.into(), Rc::clone(&graph));
        graph
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

    /// Batched history encoding: resolves every history's graph (the
    /// inference memo and the structure cache first), then runs **all**
    /// graphs still needing encoding through one disjoint
    /// [`tspn_graph::Hgat::forward_union`] tape — the per-edge-type GEMMs
    /// and padded softmaxes batch across samples instead of running once
    /// per graph.
    ///
    /// Within a batch, histories are grouped by their exact visit run:
    /// equal runs share one encoding tensor (by id), which the fusion
    /// module's identity dedup relies on, and a taped pass shares nothing
    /// more. Under no-grad inference the encodings are pure functions of
    /// `(graph, tables)` and are memoised by graph key ([`HistKey`]): a
    /// run whose distinct POIs, in first-visit order, match an earlier
    /// one's — many prefixes of one trajectory, a session re-predicting an
    /// unchanged history, or one whose newest history visit is a revisit
    /// — reuses that encoding and runs no HGAT. The graphs built for a
    /// miss are dropped after encoding.
    pub(crate) fn history_encodings_batch(
        &self,
        ctx: &SpatialContext,
        histories: &[Vec<Visit>],
        tables: &BatchTables,
        training: bool,
    ) -> Vec<HistoryEncodings> {
        // Unique exact runs, in first-appearance order.
        let mut uniq_hist: Vec<&[Visit]> = Vec::new();
        let mut index: HashMap<&[Visit], usize> = HashMap::new();
        let uniq_of: Vec<usize> = histories
            .iter()
            .map(|h| {
                *index.entry(h).or_insert_with(|| {
                    uniq_hist.push(h);
                    uniq_hist.len() - 1
                })
            })
            .collect();
        // No-grad inference reads and fills the encoding memo and stores no
        // graph; taped passes skip the memo and fill the structure cache.
        let inference = !training && Tensor::grad_suspended();
        if inference {
            let tables_id = tables.tiles.id();
            let mut cache = self.history_cache.borrow_mut();
            if cache.0 != tables_id {
                cache.0 = tables_id;
                cache.1.clear();
            }
        }
        // Per unique run: a ready encoding or a graph to encode (with the
        // graph key its encoding is memoised under).
        let mut ready: Vec<Option<HistoryEncodings>> = vec![None; uniq_hist.len()];
        let mut pending: Vec<(usize, HistKey, Rc<QrpGraph>)> = Vec::new();
        let mut key: Vec<usize> = Vec::new();
        let mut counts = self.memo_counts.get();
        for (u, &hist) in uniq_hist.iter().enumerate() {
            if !self.config.variant.use_graph || hist.is_empty() {
                ready[u] = Some((None, None));
                continue;
            }
            graph_key_into(hist, &mut key);
            if inference {
                if let Some(e) = self.history_cache.borrow().1.get(key.as_slice()) {
                    counts.hits += 1;
                    ready[u] = Some(e.clone());
                    continue;
                }
                counts.misses += 1;
            }
            let graph = self.qrp_graph(ctx, hist, &key, inference);
            pending.push((u, key.as_slice().into(), graph));
        }
        self.memo_counts.set(counts);
        // One union tape over everything still to encode.
        if !pending.is_empty() {
            let refs: Vec<&QrpGraph> = pending.iter().map(|(_, _, g)| g.as_ref()).collect();
            let h0 = if refs.len() == 1 {
                self.qrp_h0(refs[0], tables)
            } else {
                let parts: Vec<Tensor> = refs.iter().map(|g| self.qrp_h0(g, tables)).collect();
                Tensor::concat_rows(&parts)
            };
            let h = self.hgat.forward_union(&refs, &h0);
            let mut off = 0usize;
            for (u, key, g) in pending {
                let enc = Self::split_encoding(&g, &h, off);
                off += g.num_nodes();
                if inference {
                    let mut cache = self.history_cache.borrow_mut();
                    if cache.1.len() >= CONTENT_CACHE_CAP {
                        cache.1.clear();
                    }
                    cache.1.insert(key, enc.clone());
                }
                ready[u] = Some(enc);
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

    /// Hits and misses of the inference-time history-encoding memo since
    /// this model was built ([`TspnRa::clear_cache`] keeps them).
    pub fn history_memo_counts(&self) -> MemoCounts {
        self.memo_counts.get()
    }

    /// Folds lookups counted on another model (a worker replica answering
    /// part of this model's batch) into [`TspnRa::history_memo_counts`].
    pub(crate) fn add_history_memo_counts(&self, more: MemoCounts) {
        let c = self.memo_counts.get();
        self.memo_counts.set(MemoCounts {
            hits: c.hits + more.hits,
            misses: c.misses + more.misses,
        });
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

    /// Reseeds the dropout RNG. The trainer reseeds before every gradient
    /// step with a seed derived from `(config.seed, step)`, so a step's
    /// dropout masks depend on neither the thread count nor the steps
    /// that ran before it.
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

    /// Up to `n` samples whose (non-empty) histories have pairwise
    /// distinct graph keys, with those histories.
    fn distinct_histories(
        model: &TspnRa,
        ctx: &SpatialContext,
        n: usize,
    ) -> (Vec<Sample>, Vec<Vec<Visit>>) {
        let mut seen: std::collections::HashSet<Vec<usize>> = Default::default();
        let (mut samples, mut histories) = (Vec::new(), Vec::new());
        let mut key = Vec::new();
        for s in ctx.dataset.all_samples() {
            let h = model.history_visits(ctx, &Subject::Indexed(s));
            graph_key_into(&h, &mut key);
            if !h.is_empty() && seen.insert(key.clone()) {
                samples.push(s);
                histories.push(h);
                if samples.len() == n {
                    break;
                }
            }
        }
        assert!(samples.len() >= 2, "need several distinct histories");
        (samples, histories)
    }

    fn encoding_bits(e: &HistoryEncodings) -> Vec<Vec<u32>> {
        [&e.0, &e.1]
            .iter()
            .map(|t| {
                t.as_ref().map_or(Vec::new(), |t| {
                    t.to_vec().iter().map(|v| v.to_bits()).collect()
                })
            })
            .collect()
    }

    #[test]
    fn no_grad_pass_keeps_encodings_not_graphs() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = Tensor::no_grad(|| model.batch_tables(&ctx));
        let (_, histories) = distinct_histories(&model, &ctx, 6);
        let n = histories.len();
        let first =
            Tensor::no_grad(|| model.history_encodings_batch(&ctx, &histories, &tables, false));
        assert_eq!(
            model.qrp_cache.borrow().len(),
            0,
            "no-grad pass kept graphs"
        );
        assert_eq!(model.history_cache.borrow().1.len(), n);

        // A repeat is served from the memo: the very same tensors come
        // back (no graph is built, no HGAT runs), so the bits match.
        let again =
            Tensor::no_grad(|| model.history_encodings_batch(&ctx, &histories, &tables, false));
        assert_eq!(model.qrp_cache.borrow().len(), 0);
        assert_eq!(model.history_cache.borrow().1.len(), n);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(encoding_ids(a), encoding_ids(b), "repeat missed the memo");
            assert_eq!(encoding_bits(a), encoding_bits(b));
        }
    }

    /// `history` re-timed, with a revisit of its first POI inserted after
    /// its second visit and a revisit of its last POI appended: the same
    /// distinct POIs in the same first-visit order, so the same graph key.
    fn retimed_with_revisits(history: &[Visit]) -> Vec<Visit> {
        let mut out: Vec<Visit> = history
            .iter()
            .map(|v| Visit {
                time: v.time + 3_600,
                ..*v
            })
            .collect();
        let at = out.len().min(2);
        let revisit = Visit {
            time: out[at - 1].time,
            ..out[0]
        };
        out.insert(at, revisit);
        let last = out[out.len() - 1];
        out.push(Visit {
            time: last.time + 7_200,
            ..last
        });
        out
    }

    fn encoding_ids(e: &HistoryEncodings) -> (Option<u64>, Option<u64>) {
        (e.0.as_ref().map(Tensor::id), e.1.as_ref().map(Tensor::id))
    }

    #[test]
    fn revisits_and_retiming_hit_the_memo_bitwise() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = Tensor::no_grad(|| model.batch_tables(&ctx));
        let (_, histories) = distinct_histories(&model, &ctx, 2);
        let base = histories[0].clone();
        let revisited = retimed_with_revisits(&base);
        assert_ne!(base, revisited);
        let encode = |h: &Vec<Visit>| {
            Tensor::no_grad(|| {
                model.history_encodings_batch(&ctx, std::slice::from_ref(h), &tables, false)
            })
            .pop()
            .expect("one history, one encoding")
        };

        let memoised = encode(&base);
        let before = model.history_memo_counts();
        let hit = encode(&revisited);
        assert_eq!(
            model.history_memo_counts().since(before),
            MemoCounts { hits: 1, misses: 0 }
        );
        assert_eq!(
            encoding_ids(&hit),
            encoding_ids(&memoised),
            "revisit missed"
        );
        assert_eq!(model.history_cache.borrow().1.len(), 1);

        // A cold encode of the revisited run is bitwise the memo hit.
        model.clear_cache();
        let before = model.history_memo_counts();
        let cold = encode(&revisited);
        assert_eq!(
            model.history_memo_counts().since(before),
            MemoCounts { hits: 0, misses: 1 }
        );
        assert_ne!(encoding_ids(&cold), encoding_ids(&hit));
        assert_eq!(encoding_bits(&cold), encoding_bits(&hit));
    }

    #[test]
    fn taped_batch_keeps_runs_with_one_graph_apart() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let (_, histories) = distinct_histories(&model, &ctx, 2);
        let pair = [histories[0].clone(), retimed_with_revisits(&histories[0])];
        let before = model.history_memo_counts();
        let encs = model.history_encodings_batch(&ctx, &pair, &tables, true);
        assert_eq!(encs.len(), 2);
        assert_ne!(encoding_ids(&encs[0]), encoding_ids(&encs[1]));
        assert_eq!(encoding_bits(&encs[0]), encoding_bits(&encs[1]));
        assert_eq!(
            model.history_cache.borrow().1.len(),
            0,
            "taped pass memoised"
        );
        assert_eq!(model.history_memo_counts(), before);
        // The two runs share one structure.
        assert_eq!(model.qrp_cache.borrow().len(), 1);
    }

    #[test]
    fn taped_pass_fills_structure_cache() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let tables = model.batch_tables(&ctx);
        let (_, all) = distinct_histories(&model, &ctx, 7);
        let taped = &all[..all.len() - 1];
        let _ = model.history_encodings_batch(&ctx, taped, &tables, true);
        assert_eq!(model.qrp_cache.borrow().len(), taped.len());
        assert_eq!(
            model.history_cache.borrow().1.len(),
            0,
            "taped pass memoised"
        );
        // A no-grad pass may reuse those structures but adds none, not
        // even for the history training never saw.
        let eval_tables = Tensor::no_grad(|| model.batch_tables(&ctx));
        let _ = Tensor::no_grad(|| model.history_encodings_batch(&ctx, &all, &eval_tables, false));
        assert_eq!(model.qrp_cache.borrow().len(), taped.len());
        assert_eq!(model.history_cache.borrow().1.len(), all.len());
    }

    #[test]
    fn rankings_survive_a_tables_change_without_stored_graphs() {
        let (ctx, cfg) = tiny_setup();
        let model = TspnRa::new(cfg, &ctx);
        let (samples, _) = distinct_histories(&model, &ctx, 6);
        let queries: Vec<(Subject, usize)> = samples
            .iter()
            .map(|s| (Subject::Indexed(*s), model.config.top_k))
            .collect();
        let rankings = |tables: &BatchTables| -> Vec<(Vec<usize>, Vec<PoiId>)> {
            model
                .predict_many(&ctx, &queries, tables)
                .into_iter()
                .map(|p| (p.tile_ranking, p.poi_ranking))
                .collect()
        };
        let tables_a = Tensor::no_grad(|| model.batch_tables(&ctx));
        let first = rankings(&tables_a);
        let tables_b = Tensor::no_grad(|| model.batch_tables(&ctx));
        assert_ne!(tables_a.tiles.id(), tables_b.tiles.id());
        // The memo is keyed to `tables_a`, and no graph was kept: every
        // history is rebuilt and re-encoded against `tables_b`.
        assert_eq!(rankings(&tables_b), first);
        assert_eq!(model.qrp_cache.borrow().len(), 0);
        assert_eq!(model.history_cache.borrow().0, tables_b.tiles.id());
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
