//! Golden fingerprints of the spatial context a model is built over: the
//! rendered imagery of every quad-tree node and the road-derived tile
//! adjacency. `golden_datasets.rs` pins the POIs this context partitions;
//! this file pins what `SpatialContext::build` derives from them, so a
//! change to the world fields, the renderer, the road generator or the
//! order in which the build runs its jobs fails here first.
//!
//! Fingerprint: FNV-1a 64. First the node count and image side as
//! little-endian u64 words, then every node's RGB pixel bytes in node-id
//! order, then the edge count and each road-adjacency edge `(a, b)` as two
//! words, in the set's sorted order.
//!
//! The build must give the same context at every `TSPN_NUM_THREADS`; run
//! this file at 1 thread (all jobs inline) and at several to check it.

use tspn_core::{Partition, SpatialContext, TspnConfig};
use tspn_data::presets::{florida_mini, nyc_mini};
use tspn_data::synth::{generate_city, SynthConfig};
use tspn_serve::server::default_model_config;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn fingerprint(ctx: &SpatialContext) -> u64 {
    let mut h = Fnv1a::new();
    h.word(ctx.num_tiles() as u64);
    h.word(ctx.imagery.image_size() as u64);
    for node in ctx.tree.iter() {
        let img = ctx
            .imagery
            .get(node.id)
            .unwrap_or_else(|| panic!("no imagery for node {}", node.id.0));
        h.bytes(&img.pixels);
    }
    h.word(ctx.road_adjacency.len() as u64);
    for (a, b) in &ctx.road_adjacency {
        h.word(a.0 as u64);
        h.word(b.0 as u64);
    }
    h.0
}

fn assert_golden(data: SynthConfig, model: TspnConfig, want: u64) {
    let label = format!("{} ({} POIs)", data.name, data.num_pois);
    let (city, world) = generate_city(data);
    let ctx = SpatialContext::build(city, world, &model);
    let got = fingerprint(&ctx);
    assert_eq!(
        got,
        want,
        "{label}: context fingerprint {got:016x}, want {want:016x} \
         ({} nodes, {} px, {} road edges)",
        ctx.num_tiles(),
        ctx.imagery.image_size(),
        ctx.road_adjacency.len()
    );
}

/// The context every `tspn-serve` backend boots with by default: the
/// `nyc` preset at scale 1.0 under the serving model config (8-px tiles,
/// depth-5 / capacity-12 quad-tree).
#[test]
fn served_nyc_context_is_pinned() {
    assert_golden(nyc_mini(1.0), default_model_config(), 0xcaa8_999e_d0b8_9de6);
}

/// An experiment-sized context: 16-px tiles over the default depth-6 /
/// capacity-30 partition of the coastal Florida preset, so water, coast
/// and highway bridges all reach the imagery and the road edges.
#[test]
fn experiment_florida_context_is_pinned() {
    let model = TspnConfig {
        image_size: 16,
        partition: Partition::QuadTree {
            max_depth: 6,
            leaf_capacity: 30,
        },
        ..TspnConfig::default()
    };
    assert_golden(florida_mini(1.0), model, 0x682f_f9df_1261_bf45);
}
