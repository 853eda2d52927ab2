//! QR-P graph construction (paper Sec. II-B).
//!
//! Given a quad-tree `Q`, the road network's tile adjacency, and a user
//! trajectory `S`, the QR-P graph `G_S = ⟨V_S, E_S, Φ_S, Ψ_S⟩` contains
//!
//! * **tile** nodes — the minimal sub-tree `Q_S` whose leaves cover every
//!   POI of `S`,
//! * **POI** nodes — the distinct POIs of `S`,
//! * **branch** edges — parent/child pairs of `Q_S`,
//! * **road** edges — leaf pairs of `Q_S` directly linked by the road
//!   network,
//! * **contain** edges — leaf tile → the POIs lying inside it.

use std::collections::{BTreeSet, HashSet};

use serde::{Deserialize, Serialize};
use tspn_data::{LbsnDataset, PoiId, Visit};
use tspn_geo::{NodeId, QuadTree};

/// A vertex of the QR-P graph (`Φ_S` assigns the type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QrpNode {
    /// A quad-tree tile node.
    Tile(NodeId),
    /// A POI visited in the trajectory.
    Poi(PoiId),
}

/// Edge categories (`Ψ_S`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeType {
    /// Quad-tree parent ↔ child.
    Branch = 0,
    /// Road-connected leaf tiles.
    Road = 1,
    /// Leaf tile ↔ contained POI.
    Contain = 2,
}

impl EdgeType {
    /// All edge types, in index order.
    pub const ALL: [EdgeType; 3] = [EdgeType::Branch, EdgeType::Road, EdgeType::Contain];
}

/// Which edge families to include — the knobs for the paper's fine-grained
/// ablations ("QR-P with no Road" / "no Contain", Table IV).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QrpOptions {
    /// Include road edges.
    pub road_edges: bool,
    /// Include contain edges.
    pub contain_edges: bool,
}

impl Default for QrpOptions {
    fn default() -> Self {
        QrpOptions {
            road_edges: true,
            contain_edges: true,
        }
    }
}

/// The heterogeneous QR-P graph with per-type adjacency lists
/// (undirected: each edge is stored in both directions).
#[derive(Debug, Clone)]
pub struct QrpGraph {
    /// Vertices; index into this table is the node's dense id. Tiles come
    /// first in ascending id order, then POIs in first-visit order.
    pub nodes: Vec<QrpNode>,
    /// How many leading entries of `nodes` are tiles.
    num_tiles: usize,
    /// Adjacency per edge type, indexed by `EdgeType as usize`.
    adj: [Adjacency; 3],
}

/// One edge family in compressed form: node `i`'s neighbours are
/// `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// Packs undirected edges over `n` nodes. Each edge `(a, b)` appends
    /// `b` to `a`'s list and then `a` to `b`'s, so every neighbour list
    /// keeps the order its edges were listed in.
    fn pack(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in edges {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0usize; 2 * edges.len()];
        for &(a, b) in edges {
            targets[cursor[a]] = b;
            cursor[a] += 1;
            targets[cursor[b]] = a;
            cursor[b] += 1;
        }
        Adjacency { offsets, targets }
    }
}

impl QrpGraph {
    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Undirected edge count of a type.
    pub fn num_edges(&self, ty: EdgeType) -> usize {
        self.adj[ty as usize].targets.len() / 2
    }

    /// Dense index of a vertex, if present.
    pub fn index_of(&self, node: QrpNode) -> Option<usize> {
        let (tiles, pois) = self.nodes.split_at(self.num_tiles);
        match node {
            QrpNode::Tile(_) => tiles.binary_search(&node).ok(),
            QrpNode::Poi(_) => pois
                .iter()
                .position(|&p| p == node)
                .map(|i| self.num_tiles + i),
        }
    }

    /// Neighbours of dense node `i` along `ty` edges.
    pub fn neighbors(&self, ty: EdgeType, i: usize) -> &[usize] {
        let adj = &self.adj[ty as usize];
        &adj.targets[adj.offsets[i]..adj.offsets[i + 1]]
    }

    /// Iterator over `(dense_index, node)` of tile vertices.
    pub fn tile_nodes(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            QrpNode::Tile(t) => Some((i, *t)),
            QrpNode::Poi(_) => None,
        })
    }

    /// Iterator over `(dense_index, poi)` of POI vertices.
    pub fn poi_nodes(&self) -> impl Iterator<Item = (usize, PoiId)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            QrpNode::Poi(p) => Some((i, *p)),
            QrpNode::Tile(_) => None,
        })
    }
}

/// Builds the QR-P graph for a visit sequence (the concatenated historical
/// trajectories, per the paper's phase-1 data extraction).
pub fn build_qrp(
    tree: &QuadTree,
    road_adjacency: &BTreeSet<(NodeId, NodeId)>,
    visits: &[Visit],
    dataset: &LbsnDataset,
    options: QrpOptions,
) -> QrpGraph {
    // Distinct POIs in first-visit order.
    let mut seen = HashSet::new();
    let mut pois: Vec<PoiId> = Vec::new();
    for v in visits {
        if seen.insert(v.poi) {
            pois.push(v.poi);
        }
    }
    // Leaf tile of every POI.
    let poi_leaf: Vec<NodeId> = pois
        .iter()
        .map(|&p| tree.leaf_for(&dataset.poi_loc(p)))
        .collect();
    let mut leaf_set: Vec<NodeId> = poi_leaf.clone();
    leaf_set.sort_unstable();
    leaf_set.dedup();
    // Step 1: minimal subtree (sorted, so a tile's dense index is its
    // position in it).
    let subtree = tree.minimal_subtree(&leaf_set);
    let num_tiles = subtree.len();
    let tile_index = |t: NodeId| subtree.binary_search(&t).expect("in subtree");
    let mut edges: [Vec<(usize, usize)>; 3] = Default::default();

    // Branch edges (tree edges of the subtree).
    for (parent, child) in tree.branch_edges_within(&subtree) {
        edges[EdgeType::Branch as usize].push((tile_index(parent), tile_index(child)));
    }
    // Step 2: road edges between subtree leaves. Road-edge insertion
    // order decides the neighbour lists — and therefore the attention
    // summation order — so the adjacency is a `BTreeSet`: its ascending
    // iteration is the same sorted order in every process, keeping
    // training bitwise-reproducible across processes, not just within
    // one. One range query per leaf (ascending, as `leaf_set` is sorted)
    // visits exactly the city-wide scan's surviving edges in the same
    // order, at a cost set by the history rather than the city.
    if options.road_edges {
        for &ta in &leaf_set {
            let linked = road_adjacency
                .range((ta, NodeId(0))..=(ta, NodeId(usize::MAX)))
                .filter(|(_, tb)| leaf_set.binary_search(tb).is_ok());
            for &(ta, tb) in linked {
                edges[EdgeType::Road as usize].push((tile_index(ta), tile_index(tb)));
            }
        }
    }
    // Step 3: contain edges; POI `pi` is vertex `num_tiles + pi`.
    if options.contain_edges {
        for (pi, &tile) in poi_leaf.iter().enumerate() {
            edges[EdgeType::Contain as usize].push((tile_index(tile), num_tiles + pi));
        }
    }
    // Vertex table: tiles first, then POIs.
    let mut nodes: Vec<QrpNode> = subtree.iter().map(|&t| QrpNode::Tile(t)).collect();
    nodes.extend(pois.iter().map(|&p| QrpNode::Poi(p)));
    QrpGraph {
        adj: edges.each_ref().map(|e| Adjacency::pack(nodes.len(), e)),
        nodes,
        num_tiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;
    use tspn_geo::QuadTreeConfig;

    fn fixture() -> (
        LbsnDataset,
        QuadTree,
        BTreeSet<(NodeId, NodeId)>,
        Vec<Visit>,
    ) {
        let mut cfg = nyc_mini(0.15);
        cfg.days = 12;
        let (ds, _world) = generate_dataset(cfg);
        let tree = QuadTree::build(
            ds.region,
            &ds.poi_locations(),
            QuadTreeConfig {
                max_depth: 6,
                leaf_capacity: 10,
            },
        );
        // Fabricated road adjacency: link consecutive leaves pairwise.
        let leaves = tree.leaves();
        let mut road = BTreeSet::new();
        for w in leaves.windows(2) {
            let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
            road.insert((a, b));
        }
        // A trajectory: the first user's full history concatenated.
        let visits: Vec<Visit> = ds.users[0]
            .trajectories
            .iter()
            .flat_map(|t| t.visits.iter().copied())
            .collect();
        (ds, tree, road, visits)
    }

    #[test]
    fn nodes_cover_distinct_pois_and_subtree() {
        let (ds, tree, road, visits) = fixture();
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        let distinct: HashSet<PoiId> = visits.iter().map(|v| v.poi).collect();
        assert_eq!(g.poi_nodes().count(), distinct.len());
        assert!(g.tile_nodes().count() >= 1);
        // Every POI node reachable via exactly one contain edge.
        for (i, _p) in g.poi_nodes() {
            assert_eq!(g.neighbors(EdgeType::Contain, i).len(), 1);
        }
    }

    #[test]
    fn branch_edges_form_subtree() {
        let (ds, tree, road, visits) = fixture();
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        let tiles = g.tile_nodes().count();
        assert_eq!(g.num_edges(EdgeType::Branch), tiles - 1);
    }

    #[test]
    fn ablation_flags_remove_edge_families() {
        let (ds, tree, road, visits) = fixture();
        let no_road = build_qrp(
            &tree,
            &road,
            &visits,
            &ds,
            QrpOptions {
                road_edges: false,
                contain_edges: true,
            },
        );
        assert_eq!(no_road.num_edges(EdgeType::Road), 0);
        assert!(no_road.num_edges(EdgeType::Contain) > 0);
        let no_contain = build_qrp(
            &tree,
            &road,
            &visits,
            &ds,
            QrpOptions {
                road_edges: true,
                contain_edges: false,
            },
        );
        assert_eq!(no_contain.num_edges(EdgeType::Contain), 0);
    }

    #[test]
    fn contain_edge_matches_poi_location() {
        let (ds, tree, road, visits) = fixture();
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        for (i, p) in g.poi_nodes() {
            let tile_idx = g.neighbors(EdgeType::Contain, i)[0];
            match g.nodes[tile_idx] {
                QrpNode::Tile(t) => {
                    assert_eq!(t, tree.leaf_for(&ds.poi_loc(p)), "POI linked to wrong tile")
                }
                QrpNode::Poi(_) => panic!("contain edge must reach a tile"),
            }
        }
    }

    #[test]
    fn road_edges_only_between_graph_leaves() {
        let (ds, tree, road, visits) = fixture();
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        for (i, t) in g.tile_nodes() {
            for &j in g.neighbors(EdgeType::Road, i) {
                match g.nodes[j] {
                    QrpNode::Tile(o) => {
                        assert!(tree.node(t).is_leaf());
                        assert!(tree.node(o).is_leaf());
                    }
                    QrpNode::Poi(_) => panic!("road edge to a POI"),
                }
            }
        }
    }

    #[test]
    fn road_neighbours_follow_the_city_wide_scan_order() {
        let (ds, tree, _, visits) = fixture();
        // A dense adjacency, so most graph leaves have several road edges.
        let leaves = tree.leaves();
        let mut road = BTreeSet::new();
        for (i, &a) in leaves.iter().enumerate() {
            for &b in &leaves[i + 1..] {
                if (a.0 * 7 + b.0) % 3 == 0 {
                    road.insert((a, b));
                }
            }
        }
        let g = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        // Reference: scan every city edge in order, keep those whose ends
        // are both graph tiles, and append to both neighbour lists.
        let mut expected = vec![Vec::new(); g.num_nodes()];
        for &(ta, tb) in &road {
            if let (Some(a), Some(b)) =
                (g.index_of(QrpNode::Tile(ta)), g.index_of(QrpNode::Tile(tb)))
            {
                expected[a].push(b);
                expected[b].push(a);
            }
        }
        assert!(
            g.num_edges(EdgeType::Road) > 0,
            "fixture exercises road edges"
        );
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(g.neighbors(EdgeType::Road, i), want.as_slice(), "node {i}");
        }
    }

    #[test]
    fn empty_trajectory_gives_root_only() {
        let (ds, tree, road, _) = fixture();
        let g = build_qrp(&tree, &road, &[], &ds, QrpOptions::default());
        // No POIs; minimal subtree of no leaves is empty.
        assert_eq!(g.poi_nodes().count(), 0);
    }

    #[test]
    fn repeated_visits_deduplicate() {
        let (ds, tree, road, visits) = fixture();
        let doubled: Vec<Visit> = visits.iter().chain(visits.iter()).copied().collect();
        let a = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
        let b = build_qrp(&tree, &road, &doubled, &ds, QrpOptions::default());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(
            a.num_edges(EdgeType::Contain),
            b.num_edges(EdgeType::Contain)
        );
    }
}
