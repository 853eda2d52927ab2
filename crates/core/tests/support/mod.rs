//! The per-sample ranking oracle shared by the batched-inference property
//! tests. Production inference has one path, `TspnRa::predict_many`; this
//! oracle ranks independently of it, from the per-sample reference
//! forward's output rows.

use tspn_core::{descending_order, BatchTables, Prediction, SpatialContext, Subject, TspnRa};
use tspn_data::PoiId;
use tspn_tensor::cosine_scores;

/// The ranking for `subject` with tile-selection `k`: the two-step
/// tile→POI ranking, or the single-step ranking over every POI when
/// `variant.two_step` is off. The forward runs with the tape on, so the
/// model's inference-time history memo is bypassed and every history
/// encoding comes from the per-sample reference itself.
pub fn oracle_predict(
    model: &TspnRa,
    ctx: &SpatialContext,
    subject: &Subject,
    tables: &BatchTables,
    k: usize,
) -> Prediction {
    let dm = model.config.dm;
    let (h_out_t, h_out_p) = model.forward_subject(ctx, subject, tables, false);
    let (query_t, query_p) = (h_out_t.to_vec(), h_out_p.to_vec());
    let pois = tables.pois.to_vec();
    if !model.config.variant.two_step {
        let order = descending_order(&cosine_scores(&query_p, &pois, dm));
        return Prediction {
            tile_ranking: Vec::new(),
            candidate_count: order.len(),
            poi_ranking: order.into_iter().map(PoiId).collect(),
        };
    }

    // Step 1: rank every leaf tile.
    let leaf_table = gather_rows(&tables.tiles.to_vec(), ctx.leaves.iter().map(|l| l.0), dm);
    let tile_ranking = descending_order(&cosine_scores(&query_t, &leaf_table, dm));
    // Step 2: rank the POIs of the top-k tiles.
    let candidates: Vec<PoiId> = tile_ranking
        .iter()
        .take(k)
        .flat_map(|&leaf| ctx.leaf_pois[leaf].iter().copied())
        .collect();
    let cand_table = gather_rows(&pois, candidates.iter().map(|p| p.0), dm);
    let order = descending_order(&cosine_scores(&query_p, &cand_table, dm));
    Prediction {
        tile_ranking,
        candidate_count: candidates.len(),
        poi_ranking: order.into_iter().map(|i| candidates[i]).collect(),
    }
}

/// Rows `ids` of a row-major `[_, dm]` table, concatenated.
fn gather_rows(table: &[f32], ids: impl Iterator<Item = usize>, dm: usize) -> Vec<f32> {
    ids.flat_map(|i| table[i * dm..(i + 1) * dm].iter().copied())
        .collect()
}
