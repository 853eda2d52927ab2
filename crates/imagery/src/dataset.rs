//! Tile-image dataset: one rendered remote-sensing image per quad-tree
//! leaf tile, mirroring the paper's `D_I = {I_1, …, I_|D_I|}`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tspn_geo::{BBox, NodeId, QuadNode, QuadTree};
use tspn_tensor::parallel;
use tspn_world::World;

use crate::image::TileImage;
use crate::noise_injection::corrupt_pixels;
use crate::render::TileRenderer;

/// Rendered imagery for every leaf tile of a quad-tree.
#[derive(Debug, Clone)]
pub struct ImageryDataset {
    images: HashMap<NodeId, TileImage>,
    size: usize,
}

impl ImageryDataset {
    /// Renders `size × size` imagery for all leaves of `tree` over `region`.
    pub fn render_for_tree(world: &World, region: BBox, tree: &QuadTree, size: usize) -> Self {
        let renderer = TileRenderer::new(world, region);
        let images = tree
            .leaves()
            .into_iter()
            .map(|leaf| (leaf, renderer.render(&tree.node(leaf).bbox, size)))
            .collect();
        ImageryDataset { images, size }
    }

    /// Renders imagery for *every* tree node — non-leaf tiles get coarser,
    /// larger-area views, mirroring the paper's multi-scale imagery
    /// discussion (Fig. 4): the same pixel budget covers more ground for
    /// large tiles.
    ///
    /// Runs on the worker pool; see [`ImageryDataset::render_all_nodes_and`].
    pub fn render_all_nodes(world: &World, region: BBox, tree: &QuadTree, size: usize) -> Self {
        Self::render_all_nodes_and(world, region, tree, size, || ()).0
    }

    /// [`ImageryDataset::render_all_nodes`], with `job` run in the same
    /// worker-pool batch as the render; returns both results.
    ///
    /// The nodes are rendered in contiguous shards, a few per pool thread,
    /// and `job` is the batch's first task, so an independent piece of
    /// set-up (the spatial context derives its road edges this way) shares
    /// the threads with the render instead of waiting for it. Every tile is
    /// a pure function of its node, so the dataset is bitwise the same at
    /// any thread count; at one thread every task runs inline, in order.
    pub fn render_all_nodes_and<T: Send>(
        world: &World,
        region: BBox,
        tree: &QuadTree,
        size: usize,
        job: impl FnOnce() -> T + Send,
    ) -> (Self, T) {
        let renderer = TileRenderer::new(world, region);
        let renderer = &renderer;
        let nodes: Vec<&QuadNode> = tree.iter().collect();
        let per_shard = nodes.len().div_ceil(4 * parallel::num_threads()).max(1);
        let mut shards = vec![Vec::new(); nodes.len().div_ceil(per_shard)];
        let mut out = None;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| out = Some(job()))];
        for (chunk, shard) in nodes.chunks(per_shard).zip(&mut shards) {
            tasks.push(Box::new(move || {
                *shard = chunk
                    .iter()
                    .map(|node| (node.id, renderer.render(&node.bbox, size)))
                    .collect();
            }));
        }
        parallel::run_scoped(tasks);
        let images = shards.into_iter().flatten().collect();
        let out = out.expect("run_scoped runs every task");
        (ImageryDataset { images, size }, out)
    }

    /// Image side length.
    pub fn image_size(&self) -> usize {
        self.size
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when no tiles were rendered.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Image for a tile, if rendered.
    pub fn get(&self, tile: NodeId) -> Option<&TileImage> {
        self.images.get(&tile)
    }

    /// Iterates `(tile, image)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &TileImage)> {
        self.images.iter()
    }

    /// A corrupted copy of the dataset (Fig. 12b's "noisy imagery" arm).
    /// Deterministic for a given seed.
    pub fn with_noise(&self, fraction: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Deterministic iteration order: sort by tile id before corrupting.
        let mut entries: Vec<(&NodeId, &TileImage)> = self.images.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        let images = entries
            .into_iter()
            .map(|(id, img)| (*id, corrupt_pixels(img, fraction, &mut rng)))
            .collect();
        ImageryDataset {
            images,
            size: self.size,
        }
    }

    /// Total bytes of pixel storage — feeds the Table V memory accounting.
    pub fn pixel_bytes(&self) -> usize {
        self.images.values().map(|i| i.pixels.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_geo::{GeoPoint, QuadTreeConfig};
    use tspn_world::{Coast, WorldConfig};

    fn setup() -> (World, BBox, QuadTree) {
        let world = World::new(WorldConfig {
            seed: 3,
            coast: Coast::East,
            ocean_fraction: 0.25,
            num_districts: 2,
            density_falloff: 5.0,
        });
        let region = BBox::new(0.0, 0.0, 1.0, 1.0);
        let pts: Vec<GeoPoint> = (0..200)
            .map(|i| {
                GeoPoint::new(
                    ((i * 37 % 100) as f64 / 100.0).min(0.999),
                    ((i * 61 % 100) as f64 / 100.0).min(0.999),
                )
            })
            .collect();
        let tree = QuadTree::build(
            region,
            &pts,
            QuadTreeConfig {
                max_depth: 5,
                leaf_capacity: 20,
            },
        );
        (world, region, tree)
    }

    #[test]
    fn renders_one_image_per_leaf() {
        let (world, region, tree) = setup();
        let ds = ImageryDataset::render_for_tree(&world, region, &tree, 16);
        assert_eq!(ds.len(), tree.leaves().len());
        for leaf in tree.leaves() {
            assert!(ds.get(leaf).is_some());
            assert_eq!(ds.get(leaf).expect("image").size, 16);
        }
    }

    #[test]
    fn noise_copy_differs_but_same_tiles() {
        let (world, region, tree) = setup();
        let ds = ImageryDataset::render_for_tree(&world, region, &tree, 16);
        let noisy = ds.with_noise(0.2, 7);
        assert_eq!(noisy.len(), ds.len());
        let mut changed = 0;
        for (id, img) in ds.iter() {
            if noisy.get(*id).expect("tile") != img {
                changed += 1;
            }
        }
        assert!(changed > ds.len() / 2, "noise changed only {changed} tiles");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let (world, region, tree) = setup();
        let ds = ImageryDataset::render_for_tree(&world, region, &tree, 8);
        let a = ds.with_noise(0.3, 11);
        let b = ds.with_noise(0.3, 11);
        for (id, img) in a.iter() {
            assert_eq!(b.get(*id).expect("tile"), img);
        }
    }

    #[test]
    fn pixel_bytes_accounting() {
        let (world, region, tree) = setup();
        let ds = ImageryDataset::render_for_tree(&world, region, &tree, 8);
        assert_eq!(ds.pixel_bytes(), ds.len() * 8 * 8 * 3);
    }
}
