//! Property tests for QR-P graph construction over randomised trajectories
//! and road adjacencies.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use tspn_data::{CategoryId, LbsnDataset, Poi, PoiId, UserId, Visit};
use tspn_geo::{BBox, GeoPoint, NodeId, QuadTree, QuadTreeConfig};
use tspn_graph::{build_qrp, EdgeType, QrpNode, QrpOptions};

fn dataset_with_pois(locs: &[(f64, f64)]) -> LbsnDataset {
    let region = BBox::new(0.0, 0.0, 1.0, 1.0);
    let pois: Vec<Poi> = locs
        .iter()
        .enumerate()
        .map(|(i, &(lat, lon))| Poi {
            id: PoiId(i),
            loc: GeoPoint::new(lat, lon),
            cate: CategoryId(i % 5),
        })
        .collect();
    LbsnDataset {
        name: "prop".into(),
        region,
        pois,
        num_categories: 5,
        users: vec![tspn_data::UserHistory {
            user: UserId(0),
            trajectories: Vec::new(),
        }],
    }
}

fn arb_world() -> impl Strategy<Value = (Vec<(f64, f64)>, Vec<usize>, u64)> {
    (
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..60),
        proptest::collection::vec(0usize..1000, 2..40),
        any::<u64>(),
    )
        .prop_map(|(locs, visit_raw, seed)| (locs, visit_raw, seed))
}

/// A small LCG step (the tests' own deterministic stream).
fn lcg(x: &mut u64) -> usize {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    (*x >> 33) as usize
}

/// Asserts two graphs are identical: the same vertex table and, for every
/// edge type, the same neighbour list at every vertex.
fn assert_same_graph(a: &tspn_graph::QrpGraph, b: &tspn_graph::QrpGraph) {
    assert_eq!(a.nodes, b.nodes);
    for ty in EdgeType::ALL {
        for i in 0..a.num_nodes() {
            assert_eq!(a.neighbors(ty, i), b.neighbors(ty, i), "{ty:?} list of {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The history-encoding caches key a QR-P graph by the run's distinct
    /// POIs in first-visit order. Re-timing the visits and adding revisits
    /// of POIs already seen must leave the graph identical; swapping the
    /// first-visit order of two POIs must reorder its vertices.
    #[test]
    fn graph_depends_only_on_first_visit_order((locs, visit_raw, seed) in arb_world()) {
        let ds = dataset_with_pois(&locs);
        let tree = QuadTree::build(
            ds.region,
            &ds.poi_locations(),
            QuadTreeConfig { max_depth: 6, leaf_capacity: 4 },
        );
        let leaves = tree.leaves();
        let mut x = seed | 1;
        let mut road: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for _ in 0..leaves.len() {
            let a = leaves[lcg(&mut x) % leaves.len()];
            let b = leaves[lcg(&mut x) % leaves.len()];
            if a != b {
                road.insert((a.min(b), a.max(b)));
            }
        }
        let visits: Vec<Visit> = visit_raw
            .iter()
            .enumerate()
            .map(|(i, &r)| Visit { poi: PoiId(r % locs.len()), time: i as i64 * 3600 })
            .collect();
        // Re-timed with uneven gaps, with revisits of already-seen POIs
        // inserted after random visits.
        let mut revisited: Vec<Visit> = Vec::new();
        let mut t = 1_000_000i64;
        for v in &visits {
            t += 1 + (lcg(&mut x) % 500_000) as i64;
            revisited.push(Visit { poi: v.poi, time: t });
            while lcg(&mut x).is_multiple_of(3) {
                let seen = revisited[lcg(&mut x) % revisited.len()].poi;
                t += 1 + (lcg(&mut x) % 500_000) as i64;
                revisited.push(Visit { poi: seen, time: t });
            }
        }
        for opts in [
            QrpOptions::default(),
            QrpOptions { road_edges: false, contain_edges: true },
            QrpOptions { road_edges: true, contain_edges: false },
        ] {
            let a = build_qrp(&tree, &road, &visits, &ds, opts);
            let b = build_qrp(&tree, &road, &revisited, &ds, opts);
            assert_same_graph(&a, &b);
        }

        // Swapping the first two distinct POIs' first-visit order.
        let mut distinct: Vec<PoiId> = Vec::new();
        for v in &visits {
            if !distinct.contains(&v.poi) {
                distinct.push(v.poi);
            }
        }
        prop_assume!(distinct.len() >= 2);
        let run = |pois: &[PoiId]| -> Vec<Visit> {
            pois.iter()
                .enumerate()
                .map(|(i, &poi)| Visit { poi, time: i as i64 })
                .collect()
        };
        let a = build_qrp(&tree, &road, &run(&distinct), &ds, QrpOptions::default());
        assert_same_graph(&a, &build_qrp(&tree, &road, &visits, &ds, QrpOptions::default()));
        distinct.swap(0, 1);
        let b = build_qrp(&tree, &road, &run(&distinct), &ds, QrpOptions::default());
        prop_assert_ne!(&a.nodes, &b.nodes);
        prop_assert_eq!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    fn qrp_structure_invariants((locs, visit_raw, seed) in arb_world()) {
        let ds = dataset_with_pois(&locs);
        let tree = QuadTree::build(
            ds.region,
            &ds.poi_locations(),
            QuadTreeConfig { max_depth: 6, leaf_capacity: 4 },
        );
        // Random road adjacency among leaves.
        let leaves = tree.leaves();
        let mut road: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut x = seed | 1;
        for _ in 0..leaves.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = leaves[(x as usize >> 3) % leaves.len()];
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = leaves[(x as usize >> 3) % leaves.len()];
            if a != b {
                road.insert((a.min(b), a.max(b)));
            }
        }
        let visits: Vec<Visit> = visit_raw
            .iter()
            .enumerate()
            .map(|(i, &r)| Visit { poi: PoiId(r % locs.len()), time: i as i64 * 3600 })
            .collect();
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());

        // 1. POI nodes = distinct visited POIs.
        let distinct: HashSet<PoiId> = visits.iter().map(|v| v.poi).collect();
        prop_assert_eq!(g.poi_nodes().count(), distinct.len());

        // 2. Exactly one contain edge per POI node, landing on its leaf.
        for (i, p) in g.poi_nodes() {
            let n = g.neighbors(EdgeType::Contain, i);
            prop_assert_eq!(n.len(), 1);
            match g.nodes[n[0]] {
                QrpNode::Tile(t) => {
                    prop_assert_eq!(t, tree.leaf_for(&ds.poi_loc(p)));
                }
                QrpNode::Poi(_) => prop_assert!(false, "contain edge must reach a tile"),
            }
        }

        // 3. Branch edges form a spanning tree of the tile nodes.
        let tiles = g.tile_nodes().count();
        prop_assert_eq!(g.num_edges(EdgeType::Branch), tiles.saturating_sub(1));

        // 4. Road edges only between leaf tiles that are road-adjacent.
        for (i, t) in g.tile_nodes() {
            for &j in g.neighbors(EdgeType::Road, i) {
                match g.nodes[j] {
                    QrpNode::Tile(o) => {
                        let key = (t.min(o), t.max(o));
                        prop_assert!(road.contains(&key), "road edge not in adjacency");
                    }
                    QrpNode::Poi(_) => prop_assert!(false, "road edge to POI"),
                }
            }
        }

        // 5. Adjacency symmetry for every edge type.
        for ty in EdgeType::ALL {
            for i in 0..g.num_nodes() {
                for &j in g.neighbors(ty, i) {
                    prop_assert!(
                        g.neighbors(ty, j).contains(&i),
                        "edge {:?} {}→{} not symmetric", ty, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn visit_order_does_not_change_structure((locs, visit_raw, _seed) in arb_world()) {
        let ds = dataset_with_pois(&locs);
        let tree = QuadTree::build(
            ds.region,
            &ds.poi_locations(),
            QuadTreeConfig { max_depth: 5, leaf_capacity: 4 },
        );
        let road = BTreeSet::new();
        let visits: Vec<Visit> = visit_raw
            .iter()
            .enumerate()
            .map(|(i, &r)| Visit { poi: PoiId(r % locs.len()), time: i as i64 })
            .collect();
        let mut reversed = visits.clone();
        reversed.reverse();
        for (i, v) in reversed.iter_mut().enumerate() {
            v.time = i as i64; // keep times sorted
        }
        let a = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        let b = build_qrp(&tree, &road, &reversed, &ds, QrpOptions::default());
        prop_assert_eq!(a.num_nodes(), b.num_nodes());
        prop_assert_eq!(
            a.num_edges(EdgeType::Contain),
            b.num_edges(EdgeType::Contain)
        );
        prop_assert_eq!(a.num_edges(EdgeType::Branch), b.num_edges(EdgeType::Branch));
    }
}
