//! The spatial context: everything the model needs about the study region,
//! prepared once per dataset — quad-tree (or grid), rendered imagery,
//! road-derived tile adjacency, and POI↔tile mappings.

use std::collections::BTreeSet;

use tspn_data::{LbsnDataset, PoiId};
use tspn_geo::{NodeId, QuadTree};
use tspn_imagery::ImageryDataset;
use tspn_roadnet::{generate_roads, road_tile_adjacency, RoadGenConfig};
use tspn_world::World;

use crate::config::{Partition, TspnConfig};

/// Pre-computed spatial structures for one dataset.
///
/// `Clone` is deliberate: the serving layer builds one model replica per
/// batcher lane, and each [`crate::Predictor`] owns its context by value.
#[derive(Clone)]
pub struct SpatialContext {
    /// The dataset.
    pub dataset: LbsnDataset,
    /// The world model the dataset was generated from.
    pub world: World,
    /// The spatial partition (adaptive or uniform, per config).
    pub tree: QuadTree,
    /// Dense leaf ordering: `leaves[i]` is leaf number `i`.
    pub leaves: Vec<NodeId>,
    /// Dense leaf index per tree node (usize::MAX for non-leaves).
    leaf_rank: Vec<usize>,
    /// Leaf index of each POI (`poi_leaf[poi.0]`).
    pub poi_leaf: Vec<usize>,
    /// POIs contained in each leaf.
    pub leaf_pois: Vec<Vec<PoiId>>,
    /// Rendered imagery for every tree node.
    pub imagery: ImageryDataset,
    /// Tile pairs directly connected by a road. Ordered (`BTreeSet`) so
    /// edge iteration is identical across processes — QR-P construction
    /// consumes it in order, and the training contract is bitwise
    /// cross-process reproducibility.
    pub road_adjacency: BTreeSet<(NodeId, NodeId)>,
    /// Pre-converted CHW float image buffers, indexed by `NodeId.0`.
    ///
    /// Stored as plain `Vec<f32>` (not tensors) so the whole context is
    /// `Sync` and can be shared by reference across the data-parallel
    /// trainer's worker threads; each model replica wraps them in
    /// (non-differentiable) tensors on demand.
    pub image_chw: Vec<Vec<f32>>,
    /// Image side length of the buffers in [`SpatialContext::image_chw`].
    pub image_chw_size: usize,
    /// Bumped on every content mutation (e.g. [`SpatialContext::swap_imagery`]);
    /// consumers caching context-derived state key on this.
    revision: u64,
}

// The trainer shares `&SpatialContext` across worker threads; keep the
// context free of interior mutability and `Rc`-based types.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<SpatialContext>();
};

impl SpatialContext {
    /// Builds the context for a dataset + world under a model config.
    pub fn build(dataset: LbsnDataset, world: World, config: &TspnConfig) -> Self {
        let locations = dataset.poi_locations();
        let tree = match config.partition {
            Partition::QuadTree {
                max_depth,
                leaf_capacity,
            } => QuadTree::build(
                dataset.region,
                &locations,
                tspn_geo::QuadTreeConfig {
                    max_depth,
                    leaf_capacity,
                },
            ),
            Partition::UniformGrid { depth } => {
                QuadTree::build_uniform(dataset.region, &locations, depth)
            }
        };
        let leaves = tree.leaves();
        let mut leaf_rank = vec![usize::MAX; tree.num_nodes()];
        for (rank, &leaf) in leaves.iter().enumerate() {
            leaf_rank[leaf.0] = rank;
        }
        let mut poi_leaf = vec![usize::MAX; dataset.pois.len()];
        let mut leaf_pois = vec![Vec::new(); leaves.len()];
        for (rank, &leaf) in leaves.iter().enumerate() {
            for &pi in &tree.node(leaf).points {
                poi_leaf[pi] = rank;
                leaf_pois[rank].push(PoiId(pi));
            }
        }
        debug_assert!(poi_leaf.iter().all(|&r| r != usize::MAX));

        // Every node gets an image even with imagery disabled, because
        // `image_buffers_from` needs one per node. That model never reads
        // the pixels (it uses learnable tile-id embeddings instead), so it
        // gets the cheapest render, 8 px. The road edges are derived in
        // the same worker-pool batch as the render.
        let image_size = if config.variant.use_imagery {
            config.image_size
        } else {
            8
        };
        let (imagery, road_adjacency) =
            ImageryDataset::render_all_nodes_and(&world, dataset.region, &tree, image_size, || {
                let roads = generate_roads(&world, RoadGenConfig::default());
                road_tile_adjacency(&roads, &tree, &dataset.region)
            });

        let (image_chw, image_chw_size) =
            Self::image_buffers_from(&imagery, &tree, config.image_size);

        SpatialContext {
            dataset,
            world,
            tree,
            leaves,
            leaf_rank,
            poi_leaf,
            leaf_pois,
            imagery,
            road_adjacency,
            image_chw,
            image_chw_size,
            revision: 0,
        }
    }

    fn image_buffers_from(
        imagery: &ImageryDataset,
        tree: &QuadTree,
        expect_size: usize,
    ) -> (Vec<Vec<f32>>, usize) {
        let size = imagery.image_size();
        let buffers = (0..tree.num_nodes())
            .map(|i| {
                let img = imagery
                    .get(NodeId(i))
                    .unwrap_or_else(|| panic!("missing imagery for node {i}"));
                debug_assert!(size == expect_size || size == 8);
                img.to_chw_f32()
            })
            .collect();
        (buffers, size)
    }

    /// Replaces the imagery (e.g. with a corrupted copy for the Fig. 12b
    /// study), re-deriving the cached buffers.
    pub fn swap_imagery(&mut self, imagery: ImageryDataset) {
        let (chw, size) = Self::image_buffers_from(&imagery, &self.tree, imagery.image_size());
        self.image_chw = chw;
        self.image_chw_size = size;
        self.imagery = imagery;
        self.revision += 1;
    }

    /// Monotonic content revision; changes whenever the context's derived
    /// inputs (currently the imagery) are replaced.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of leaf tiles.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Total tree nodes (all of which have imagery).
    pub fn num_tiles(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Dense leaf rank of a tree node, if it is a leaf.
    pub fn leaf_rank_of(&self, node: NodeId) -> Option<usize> {
        let r = self.leaf_rank[node.0];
        (r != usize::MAX).then_some(r)
    }

    /// Leaf rank containing a POI.
    pub fn poi_leaf_rank(&self, poi: PoiId) -> usize {
        self.poi_leaf[poi.0]
    }

    /// The `NodeId` of the leaf containing a POI.
    pub fn poi_leaf_node(&self, poi: PoiId) -> NodeId {
        self.leaves[self.poi_leaf[poi.0]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;

    fn tiny_context() -> SpatialContext {
        let mut cfg = nyc_mini(0.12);
        cfg.days = 10;
        let (ds, world) = generate_dataset(cfg);
        let model_cfg = TspnConfig {
            image_size: 8,
            partition: Partition::QuadTree {
                max_depth: 5,
                leaf_capacity: 12,
            },
            ..TspnConfig::default()
        };
        SpatialContext::build(ds, world, &model_cfg)
    }

    #[test]
    fn every_poi_has_a_leaf() {
        let ctx = tiny_context();
        for (i, _) in ctx.dataset.pois.iter().enumerate() {
            let rank = ctx.poi_leaf_rank(PoiId(i));
            assert!(rank < ctx.num_leaves());
            assert!(ctx.leaf_pois[rank].contains(&PoiId(i)));
        }
    }

    #[test]
    fn leaf_pois_partition_poi_set() {
        let ctx = tiny_context();
        let total: usize = ctx.leaf_pois.iter().map(Vec::len).sum();
        assert_eq!(total, ctx.dataset.pois.len());
    }

    #[test]
    fn imagery_covers_all_nodes() {
        let ctx = tiny_context();
        assert_eq!(ctx.image_chw.len(), ctx.num_tiles());
        assert_eq!(ctx.imagery.len(), ctx.num_tiles());
    }

    #[test]
    fn leaf_rank_roundtrip() {
        let ctx = tiny_context();
        for (rank, &leaf) in ctx.leaves.iter().enumerate() {
            assert_eq!(ctx.leaf_rank_of(leaf), Some(rank));
        }
        assert_eq!(ctx.leaf_rank_of(ctx.tree.root()), None);
    }

    #[test]
    fn grid_partition_builds() {
        let mut cfg = nyc_mini(0.1);
        cfg.days = 8;
        let (ds, world) = generate_dataset(cfg);
        let model_cfg = TspnConfig {
            image_size: 8,
            partition: Partition::UniformGrid { depth: 4 },
            ..TspnConfig::default()
        };
        let ctx = SpatialContext::build(ds, world, &model_cfg);
        assert_eq!(ctx.num_leaves(), 64); // 8×8 grid
    }

    #[test]
    fn swap_imagery_replaces_buffers() {
        let mut ctx = tiny_context();
        let before = ctx.image_chw[0].clone();
        let noisy = ctx.imagery.with_noise(0.5, 3);
        ctx.swap_imagery(noisy);
        let after = ctx.image_chw[0].clone();
        assert_ne!(before, after);
    }
}
