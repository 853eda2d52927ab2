//! Criterion micro-benchmarks for the performance-critical building
//! blocks: quad-tree construction, QR-P graph assembly, HGAT and attention
//! forward passes, the CNN tile embedder, cosine tile ranking, one
//! end-to-end prediction, and the server's `/v1/predict` body parse.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Visit;
use tspn_geo::{NodeId, QuadTree, QuadTreeConfig};
use tspn_graph::{build_qrp, Hgat, QrpOptions};
use tspn_tensor::{cosine_scores, init};

fn fixture() -> (tspn_data::LbsnDataset, tspn_world::World) {
    let mut cfg = nyc_mini(0.12);
    cfg.days = 15;
    generate_dataset(cfg)
}

fn bench_quadtree(c: &mut Criterion) {
    let (ds, _) = fixture();
    let locs = ds.poi_locations();
    c.bench_function("quadtree_build", |b| {
        b.iter(|| {
            QuadTree::build(
                ds.region,
                &locs,
                QuadTreeConfig {
                    max_depth: 6,
                    leaf_capacity: 10,
                },
            )
        })
    });
    // The fixed-grid ablation's partition (uniform tree) for comparison.
    c.bench_function("quadtree_build_uniform_d5", |b| {
        b.iter(|| QuadTree::build_uniform(ds.region, &locs, 5))
    });

    let tree = QuadTree::build(
        ds.region,
        &locs,
        QuadTreeConfig {
            max_depth: 7,
            leaf_capacity: 6,
        },
    );
    let window = tspn_geo::BBox::new(
        ds.region.min_lat + 0.3 * ds.region.lat_span(),
        ds.region.min_lon + 0.3 * ds.region.lon_span(),
        ds.region.min_lat + 0.6 * ds.region.lat_span(),
        ds.region.min_lon + 0.6 * ds.region.lon_span(),
    );
    c.bench_function("quadtree_range_query", |b| {
        b.iter(|| tree.range_query(&window, &locs))
    });
    let q = ds.region.center();
    c.bench_function("quadtree_nearest", |b| b.iter(|| tree.nearest(&q, &locs)));
}

fn bench_qrp(c: &mut Criterion) {
    let (ds, _) = fixture();
    let tree = QuadTree::build(
        ds.region,
        &ds.poi_locations(),
        QuadTreeConfig {
            max_depth: 6,
            leaf_capacity: 10,
        },
    );
    let leaves = tree.leaves();
    let mut road: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for w in leaves.windows(2) {
        road.insert((w[0].min(w[1]), w[0].max(w[1])));
    }
    let visits: Vec<Visit> = ds.users[0]
        .trajectories
        .iter()
        .flat_map(|t| t.visits.iter().copied())
        .collect();
    c.bench_function("qrp_build", |b| {
        b.iter(|| build_qrp(&tree, &road, &visits, &ds, QrpOptions::default()))
    });

    let graph = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
    let mut rng = StdRng::seed_from_u64(1);
    let hgat = Hgat::new(&mut rng, 32, 2);
    let h0 = init::normal(&mut rng, 0.0, 0.5, vec![graph.num_nodes(), 32]).detach();
    c.bench_function("hgat_forward_2layer", |b| {
        b.iter(|| hgat.forward_union(&[&graph], &h0))
    });
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let block = tspn_core::fusion::FusionModule::new(&mut rng, 32, 2);
    let seq = init::normal(&mut rng, 0.0, 0.5, vec![16, 32]).detach();
    let hist = init::normal(&mut rng, 0.0, 0.5, vec![48, 32]).detach();
    c.bench_function("fusion_2block_seq16_hist48", |b| {
        b.iter(|| block.forward(&seq, Some(&hist)))
    });
}

fn bench_me1(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let me1 = tspn_core::embed::Me1::new(&mut rng, 16, 32);
    let images: Vec<Vec<f32>> = (0..32)
        .map(|i| vec![i as f32 / 32.0; 3 * 16 * 16])
        .collect();
    c.bench_function("me1_embed_32_tiles_16px", |b| {
        b.iter(|| me1.embed_tiles_chw(&images).l2_normalize_rows())
    });
}

fn bench_ranking(c: &mut Criterion) {
    let query: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
    let candidates: Vec<f32> = (0..32 * 2000).map(|i| (i as f32 * 0.37).cos()).collect();
    c.bench_function("cosine_rank_2000x32", |b| {
        b.iter(|| cosine_scores(&query, &candidates, 32))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let (ds, world) = fixture();
    let cfg = TspnConfig {
        dm: 16,
        image_size: 8,
        attn_blocks: 1,
        hgat_layers: 1,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 12,
        },
        ..TspnConfig::default()
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    let trainer = Trainer::new(cfg, ctx);
    let samples = trainer.ctx.dataset.all_samples();
    let sample = samples[samples.len() / 2];
    let tables = trainer.model.batch_tables(&trainer.ctx);
    // A batch of one through `predict_many`, the only inference path;
    // the name is kept so earlier results stay comparable.
    c.bench_function("tspn_predict_one", |b| {
        b.iter(|| trainer.model.predict(&trainer.ctx, &sample, &tables))
    });
    c.bench_function("tspn_batch_tables", |b| {
        b.iter(|| trainer.model.batch_tables(&trainer.ctx))
    });
}

/// The mux thread parses every `/v1/predict` body with this, so the JSON
/// shim's cost per request stays visible here. The body is a stream of
/// 48 check-ins from the served dataset (`nyc`, scale 1, 80 days), the
/// typical `/v1/predict` request of the `serve_repeat` workload.
fn bench_protocol(c: &mut Criterion) {
    let mut cfg = tspn_serve::preset_dataset_config("nyc", 1.0).expect("the nyc preset");
    cfg.days = 80;
    let (ds, _) = generate_dataset(cfg);
    let (user, mut stream) = ds
        .all_samples()
        .iter()
        .map(|s| (s.user_index, ds.sample_checkins(s)))
        .find(|(_, cs)| cs.len() >= 48)
        .expect("a stream of 48 check-ins");
    stream.truncate(48);
    let body = tspn_serve::protocol::v1_predict_request_body(user, &stream, 10, 20);
    c.bench_function("protocol_parse_v1_predict_48_checkins", |b| {
        b.iter(|| tspn_serve::protocol::parse_v1_predict(body.as_bytes()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_quadtree, bench_qrp, bench_attention, bench_me1, bench_ranking, bench_end_to_end,
        bench_protocol
}
criterion_main!(benches);
