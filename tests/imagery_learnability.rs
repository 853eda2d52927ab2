//! Validates the central substitution claim of this reproduction: the
//! synthetic remote-sensing imagery carries enough environmental signal
//! that the paper's `Me1` CNN can learn land-use structure from pixels —
//! the property that makes the imagery ablation and the coastline case
//! study meaningful.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tspn::core::embed::Me1;
use tspn::geo::BBox;
use tspn::imagery::TileRenderer;
use tspn::tensor::nn::{Linear, Module};
use tspn::tensor::optim;
use tspn::world::{Coast, LandUse, World, WorldConfig};

/// Renders labelled tiles: water vs commercial-downtown vs park/suburb.
fn labelled_tiles(world: &World, n_per_class: usize) -> Vec<(Vec<f32>, usize)> {
    let region = BBox::new(0.0, 0.0, 1.0, 1.0);
    let renderer = TileRenderer::new(world, region);
    let mut out = Vec::new();
    let mut counts = [0usize; 3];
    // Scan a grid of small tiles, classify by the world's land use at the
    // tile centre, keep a balanced sample.
    'outer: for gy in 0..40 {
        for gx in 0..40 {
            let x = gx as f64 / 40.0;
            let y = gy as f64 / 40.0;
            let label = match world.land_use(x, y) {
                LandUse::Water => 0,
                LandUse::Commercial => 1,
                LandUse::Park | LandUse::Suburban => 2,
                _ => continue,
            };
            if counts[label] >= n_per_class {
                continue;
            }
            counts[label] += 1;
            let half = 0.02;
            let bbox = BBox::new(
                (y - half).max(0.0),
                (x - half).max(0.0),
                (y + half).min(1.0),
                (x + half).min(1.0),
            );
            let img = renderer.render(&bbox, 8);
            out.push((img.to_chw_f32(), label));
            if counts.iter().all(|&c| c >= n_per_class) {
                break 'outer;
            }
        }
    }
    assert!(
        counts.iter().all(|&c| c >= n_per_class.min(8)),
        "world did not produce all three environment classes: {counts:?}"
    );
    out
}

#[test]
fn me1_learns_land_use_from_pixels() {
    let world = World::new(WorldConfig {
        seed: 404,
        coast: Coast::East,
        ocean_fraction: 0.3,
        num_districts: 3,
        density_falloff: 5.0,
    });
    let tiles = labelled_tiles(&world, 12);
    let mut rng = StdRng::seed_from_u64(5);
    let me1 = Me1::new(&mut rng, 8, 16);
    let head = Linear::new(&mut rng, 16, 3);
    let mut params = me1.params();
    params.extend(head.params());
    let mut opt = optim::Adam::new(5e-3);

    let images: Vec<Vec<f32>> = tiles.iter().map(|(t, _)| t.clone()).collect();
    let labels: Vec<usize> = tiles.iter().map(|(_, l)| *l).collect();

    let accuracy = |me1: &Me1, head: &Linear| -> f64 {
        let feats = me1.embed_tiles_chw(&images).l2_normalize_rows();
        let logits = head.forward(&feats);
        let v = logits.to_vec();
        let c = logits.cols();
        let correct = labels
            .iter()
            .enumerate()
            .filter(|(i, &l)| {
                let row = &v[i * c..(i + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(j, _)| j)
                    .expect("non-empty row");
                pred == l
            })
            .count();
        correct as f64 / labels.len() as f64
    };

    let before = accuracy(&me1, &head);
    for _ in 0..60 {
        optim::zero_grad(&params);
        let feats = me1.embed_tiles_chw(&images).l2_normalize_rows();
        let logits = head.forward(&feats);
        let loss = logits.cross_entropy_logits(&labels);
        loss.backward();
        opt.step(&params);
    }
    let after = accuracy(&me1, &head);
    assert!(
        after > 0.8,
        "Me1 failed to learn land use from pixels: accuracy {before:.2} → {after:.2}"
    );
    assert!(
        after > before,
        "training did not help: {before:.2} → {after:.2}"
    );
}
