//! Deriving QR-P `road` edges: which pairs of quad-tree leaf tiles are
//! connected by a direct road link (paper Sec. II-B construction step 2).

use std::collections::{BTreeSet, HashSet};

use tspn_geo::{BBox, GeoPoint, NodeId, QuadTree};

use crate::network::RoadNetwork;

/// Converts a normalised world coordinate to a lat/lon point in `region`.
fn to_geo(region: &BBox, x: f64, y: f64) -> GeoPoint {
    GeoPoint::new(
        region.min_lat + y.clamp(0.0, 1.0) * region.lat_span(),
        region.min_lon + x.clamp(0.0, 1.0) * region.lon_span(),
    )
}

/// Computes the set of leaf-tile pairs `(a, b)` with `a < b` connected by at
/// least one road segment.
///
/// Every segment is walked in small steps; each consecutive pair of distinct
/// leaf tiles the walk visits yields an adjacency. This catches both
/// "endpoints in different tiles" and "segment crosses a tile it has no
/// endpoint in" — the situation the paper highlights for small tiles near
/// large-tile boundaries.
///
/// Returns a `BTreeSet` so every consumer iterates the edges in one fixed
/// (sorted) order regardless of the process's SipHash seed — road-edge
/// order feeds QR-P graph construction and must be cross-process stable.
pub fn road_tile_adjacency(
    net: &RoadNetwork,
    tree: &QuadTree,
    region: &BBox,
) -> BTreeSet<(NodeId, NodeId)> {
    // Step fine enough to notice the smallest leaf tile.
    let min_span = tree
        .leaves()
        .iter()
        .map(|&l| {
            let bb = tree.node(l).bbox;
            bb.lat_span().min(bb.lon_span())
        })
        .fold(f64::INFINITY, f64::min);
    let region_span = region.lat_span().min(region.lon_span());
    let step = (min_span / region_span / 2.0).max(1e-4);
    let mut edges = BTreeSet::new();
    for seg in net.segments() {
        let a = net.node(seg.a);
        let b = net.node(seg.b);
        let len = net.distance(seg.a, seg.b);
        let steps = ((len / step).ceil() as usize).clamp(1, 10_000);
        let mut prev_tile: Option<NodeId> = None;
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let x = a.x + (b.x - a.x) * t;
            let y = a.y + (b.y - a.y) * t;
            let tile = tree.leaf_for(&to_geo(region, x, y));
            if let Some(p) = prev_tile {
                if p != tile {
                    let key = if p < tile { (p, tile) } else { (tile, p) };
                    edges.insert(key);
                }
            }
            prev_tile = Some(tile);
        }
    }
    edges
}

/// Restricts an adjacency set to tiles inside `subset` — used when building
/// the QR-P graph over the minimal subtree's leaves only. `BTreeSet`
/// iteration is ascending, so the output is already sorted.
pub fn restrict_adjacency(
    edges: &BTreeSet<(NodeId, NodeId)>,
    subset: &HashSet<NodeId>,
) -> Vec<(NodeId, NodeId)> {
    edges
        .iter()
        .filter(|(a, b)| subset.contains(a) && subset.contains(b))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadClass;
    use tspn_geo::QuadTreeConfig;

    fn tree_over_unit() -> (QuadTree, BBox) {
        let region = BBox::new(0.0, 0.0, 1.0, 1.0);
        // Force a 2-level tree: 17 points clustered into each quadrant.
        let mut pts = Vec::new();
        for q in [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)] {
            for i in 0..5 {
                pts.push(GeoPoint::new(q.0 + 0.01 * i as f64, q.1 + 0.01 * i as f64));
            }
        }
        let tree = QuadTree::build(
            region,
            &pts,
            QuadTreeConfig {
                max_depth: 2,
                leaf_capacity: 5,
            },
        );
        (tree, region)
    }

    #[test]
    fn segment_spanning_two_tiles_links_them() {
        let (tree, region) = tree_over_unit();
        let mut net = RoadNetwork::new();
        let a = net.add_node(0.25, 0.25); // SW tile
        let b = net.add_node(0.75, 0.25); // SE tile
        net.add_segment(a, b, RoadClass::Street);
        let adj = road_tile_adjacency(&net, &tree, &region);
        assert_eq!(adj.len(), 1);
        let (ta, tb) = *adj.iter().next().expect("edge");
        let la = tree.leaf_for(&to_geo(&region, 0.25, 0.25));
        let lb = tree.leaf_for(&to_geo(&region, 0.75, 0.25));
        let expect = if la < lb { (la, lb) } else { (lb, la) };
        assert_eq!((ta, tb), expect);
    }

    #[test]
    fn segment_within_one_tile_adds_nothing() {
        let (tree, region) = tree_over_unit();
        let mut net = RoadNetwork::new();
        let a = net.add_node(0.1, 0.1);
        let b = net.add_node(0.2, 0.2);
        net.add_segment(a, b, RoadClass::Street);
        assert!(road_tile_adjacency(&net, &tree, &region).is_empty());
    }

    #[test]
    fn diagonal_segment_chains_through_intermediate_tiles() {
        let (tree, region) = tree_over_unit();
        let mut net = RoadNetwork::new();
        // Asymmetric diagonal that crosses x=0.5 inside the southern half
        // and y=0.5 inside the eastern half: visits SW → SE → NE.
        let a = net.add_node(0.2, 0.1);
        let b = net.add_node(0.9, 0.8);
        net.add_segment(a, b, RoadClass::Highway);
        let adj = road_tile_adjacency(&net, &tree, &region);
        assert!(adj.len() >= 2, "got {adj:?}");
    }

    #[test]
    fn corner_crossing_diagonal_links_opposite_quadrants() {
        // A segment through the exact centre hops SW → NE directly — the
        // corner-contact case; it must still produce a road edge.
        let (tree, region) = tree_over_unit();
        let mut net = RoadNetwork::new();
        let a = net.add_node(0.1, 0.1);
        let b = net.add_node(0.9, 0.9);
        net.add_segment(a, b, RoadClass::Highway);
        let adj = road_tile_adjacency(&net, &tree, &region);
        assert!(!adj.is_empty());
    }

    #[test]
    fn restrict_filters_to_subset() {
        let (tree, region) = tree_over_unit();
        let mut net = RoadNetwork::new();
        let a = net.add_node(0.25, 0.25);
        let b = net.add_node(0.75, 0.25);
        let c = net.add_node(0.75, 0.75);
        net.add_segment(a, b, RoadClass::Street);
        net.add_segment(b, c, RoadClass::Street);
        let adj = road_tile_adjacency(&net, &tree, &region);
        assert_eq!(adj.len(), 2);
        let keep: HashSet<NodeId> = [
            tree.leaf_for(&to_geo(&region, 0.25, 0.25)),
            tree.leaf_for(&to_geo(&region, 0.75, 0.25)),
        ]
        .into_iter()
        .collect();
        let restricted = restrict_adjacency(&adj, &keep);
        assert_eq!(restricted.len(), 1);
    }
}
