//! Heterogeneous graph attention (paper Eq. 6).
//!
//! For each edge type `k ∈ {Branch, Road, Contain}` the layer owns a weight
//! `W_k` and an attention vector `a_k`; messages along type-`k` edges are
//! attention-weighted with `softmax_j(LeakyReLU(a_k · [W_k h_i ‖ W_k h_j]))`
//! and summed across types:
//!
//! ```text
//! h_i^{l+1} = σ( Σ_k Σ_{j ∈ N_k(i)} A_k[i,j] · W_k h_j  +  W_self h_i )
//! ```
//!
//! The `W_self` residual term is standard GAT practice and keeps isolated
//! nodes (e.g. a tile with no road neighbours) from collapsing to zero.
//! `σ` is `tanh`, keeping embeddings bounded for the downstream cosine
//! ranking.

use rand::Rng;

use tspn_tensor::nn::Module;
use tspn_tensor::{init, Tensor};

use crate::qrp::{EdgeType, QrpGraph};

/// One HGAT layer.
pub struct HgatLayer {
    /// Per-edge-type transforms `W_k` `[d_in, d_out]`.
    pub type_weights: Vec<Tensor>,
    /// Per-edge-type attention halves: `a_k = [a_left ‖ a_right]`, stored
    /// as two `[d_out, 1]` vectors so scores decompose into
    /// `a_l·W h_i + a_r·W h_j`.
    pub attn_left: Vec<Tensor>,
    /// Right attention halves.
    pub attn_right: Vec<Tensor>,
    /// Self-connection transform `[d_in, d_out]`.
    pub self_weight: Tensor,
    in_dim: usize,
    out_dim: usize,
}

impl HgatLayer {
    /// Creates a layer mapping `in_dim` features to `out_dim`.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        let k = EdgeType::ALL.len();
        HgatLayer {
            type_weights: (0..k).map(|_| init::xavier(rng, in_dim, out_dim)).collect(),
            attn_left: (0..k).map(|_| init::xavier(rng, out_dim, 1)).collect(),
            attn_right: (0..k).map(|_| init::xavier(rng, out_dim, 1)).collect(),
            self_weight: init::xavier(rng, in_dim, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer over the **disjoint union** of one or more
    /// graphs: `h [N, in] → [N, out]`, where `h` stacks the graphs'
    /// feature blocks in order and neighbour indices are offset into the
    /// union. A single graph is the union `&[&graph]`.
    ///
    /// The aggregation runs as **flat padded segmented attention**: per
    /// edge type, every node's neighbour set is gathered into one
    /// zero-padded `[N·D_k, ·]` block (`D_k` = the type's maximum
    /// degree across the union), scored in a single masked row softmax,
    /// and reduced with one batched `[1×D_k]·[D_k×out]` product per node
    /// — a fixed ~10 tape nodes per edge type for the whole union instead
    /// of ~8 per *graph node*, which is what makes history encoding
    /// affordable inside the batched model forward. Padding is
    /// numerically transparent: padded keys are masked to `-1e9` (their
    /// probabilities underflow to exact zeros) and padded neighbour
    /// features are exact zeros, so each node's message is bit-for-bit
    /// the softmax-weighted sum over its live neighbours; a node with no
    /// type-`k` neighbours contributes an exact-zero message row,
    /// matching the retired per-node loop that skipped the type entirely.
    ///
    /// Each node's output row is therefore bitwise the row a singleton
    /// union of its own graph produces: the row-wise GEMMs are
    /// row-equivalent, the union-wide padded degree only appends
    /// masked-to-exact-zero score columns (transparent to the row max /
    /// sum / reduction), and an edge type absent from one member graph
    /// but present elsewhere in the union contributes that graph's nodes
    /// an exact-zero message row — the same value the per-graph skip
    /// produces.
    pub fn forward_union(&self, graphs: &[&QrpGraph], h: &Tensor) -> Tensor {
        assert!(!graphs.is_empty(), "forward_union of zero graphs");
        let n: usize = graphs.iter().map(|g| g.num_nodes()).sum();
        assert_eq!(h.rows(), n, "feature rows must match union nodes");
        assert_eq!(h.cols(), self.in_dim, "feature dim mismatch");

        // Self term for every node.
        let self_term = h.matmul(&self.self_weight); // [N, out]

        let mut message: Option<Tensor> = None;
        for (k, &ty) in EdgeType::ALL.iter().enumerate() {
            let mut groups: Vec<Vec<usize>> = Vec::with_capacity(n);
            let mut off = 0usize;
            for g in graphs {
                for i in 0..g.num_nodes() {
                    groups.push(g.neighbors(ty, i).iter().map(|&j| j + off).collect());
                }
                off += g.num_nodes();
            }
            let degrees: Vec<usize> = groups.iter().map(Vec::len).collect();
            let d_max = degrees.iter().max().copied().unwrap_or(0);
            if d_max == 0 {
                continue; // no edges of this type anywhere in the graph
            }
            let hk = h.matmul(&self.type_weights[k]); // [N, out]
            let sl = hk.matmul(&self.attn_left[k]); // [N, 1]
            let sr = hk.matmul(&self.attn_right[k]); // [N, 1]

            // score[i][j] = LeakyReLU(a_l·Wh_i + a_r·Wh_j), every node's
            // neighbour scores in one padded row.
            let sr_pad = sr
                .gather_rows_padded(&groups, d_max)
                .reshape(vec![n, d_max]);
            let scores = sr_pad.add(&sl).leaky_relu(0.2);
            // Node i owns one score row and the i-th padded neighbour
            // block, of which only its `degrees[i]` rows are live.
            let ones = vec![1usize; n];
            let mask = tspn_tensor::jagged_key_padding_mask(&ones, &degrees, d_max);
            let att = scores.softmax_rows_masked(Some(&mask));
            let neigh_feats = hk.gather_rows_padded(&groups, d_max); // [N·D, out]
            let rows: Vec<usize> = (0..n).collect();
            let blocks: Vec<usize> = (0..n).map(|i| i * d_max).collect();
            let msg = att.bmm_jagged(&neigh_feats, &rows, &ones, &degrees, &blocks); // [N, out]
            message = Some(match message {
                Some(acc) => acc.add(&msg),
                None => msg,
            });
        }
        let combined = match message {
            Some(m) => m.add(&self_term),
            None => self_term,
        };
        combined.tanh()
    }
}

impl Module for HgatLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        p.extend(self.type_weights.iter().cloned());
        p.extend(self.attn_left.iter().cloned());
        p.extend(self.attn_right.iter().cloned());
        p.push(self.self_weight.clone());
        p
    }
}

/// A stack of `n` HGAT layers — the paper iterates aggregation `n` times to
/// produce the final node embeddings.
pub struct Hgat {
    /// The layers, applied in order.
    pub layers: Vec<HgatLayer>,
}

impl Hgat {
    /// `num_layers` layers of width `dim → dim`.
    pub fn new(rng: &mut impl Rng, dim: usize, num_layers: usize) -> Self {
        assert!(num_layers >= 1, "need at least one HGAT layer");
        Hgat {
            layers: (0..num_layers)
                .map(|_| HgatLayer::new(rng, dim, dim))
                .collect(),
        }
    }

    /// Runs all layers over a disjoint union of graphs (see
    /// [`HgatLayer::forward_union`]): `h0` stacks the graphs' initial
    /// feature blocks in order.
    pub fn forward_union(&self, graphs: &[&QrpGraph], h0: &Tensor) -> Tensor {
        let mut h = h0.clone();
        for layer in &self.layers {
            h = layer.forward_union(graphs, &h);
        }
        h
    }
}

impl Module for Hgat {
    fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qrp::{build_qrp, QrpOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;
    use tspn_data::Visit;
    use tspn_geo::{QuadTree, QuadTreeConfig};
    use tspn_tensor::optim;

    fn small_graph() -> QrpGraph {
        let mut cfg = nyc_mini(0.12);
        cfg.days = 10;
        let (ds, _) = generate_dataset(cfg);
        let tree = QuadTree::build(
            ds.region,
            &ds.poi_locations(),
            QuadTreeConfig {
                max_depth: 5,
                leaf_capacity: 10,
            },
        );
        let leaves = tree.leaves();
        let mut road = BTreeSet::new();
        for w in leaves.windows(2) {
            road.insert((w[0].min(w[1]), w[0].max(w[1])));
        }
        let visits: Vec<Visit> = ds.users[0]
            .trajectories
            .iter()
            .flat_map(|t| t.visits.iter().copied())
            .collect();
        build_qrp(&tree, &road, &visits, &ds, QrpOptions::default())
    }

    #[test]
    fn forward_shape_and_bounds() {
        let g = small_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let layer = HgatLayer::new(&mut rng, 8, 8);
        let h = init::normal(&mut rng, 0.0, 1.0, vec![g.num_nodes(), 8]);
        let out = layer.forward_union(&[&g], &h);
        assert_eq!(out.rows(), g.num_nodes());
        assert_eq!(out.cols(), 8);
        for v in out.to_vec() {
            assert!((-1.0..=1.0).contains(&v), "tanh output out of range: {v}");
        }
    }

    #[test]
    fn gradients_flow_to_all_param_groups() {
        let g = small_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = HgatLayer::new(&mut rng, 6, 6);
        let h = init::normal(&mut rng, 0.0, 1.0, vec![g.num_nodes(), 6]);
        let loss = layer.forward_union(&[&g], &h).square().sum_all();
        loss.backward();
        let with_grad = layer
            .params()
            .iter()
            .filter(|p| p.grad().iter().any(|x| x.abs() > 0.0))
            .count();
        // Self weight + at least the type weights of edge types present.
        assert!(with_grad >= 4, "only {with_grad} params received gradient");
    }

    #[test]
    fn stack_runs_multiple_layers() {
        let g = small_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let net = Hgat::new(&mut rng, 8, 2);
        let h = init::normal(&mut rng, 0.0, 1.0, vec![g.num_nodes(), 8]);
        let out = net.forward_union(&[&g], &h);
        assert_eq!(out.rows(), g.num_nodes());
        assert_eq!(net.params().len(), 2 * (3 + 3 + 3 + 1));
    }

    #[test]
    fn information_propagates_along_edges() {
        // Perturbing one node's input must change its neighbours' outputs.
        let g = small_graph();
        // Find a node with at least one neighbour of any type.
        let (node, neighbor) = (0..g.num_nodes())
            .find_map(|i| {
                EdgeType::ALL
                    .iter()
                    .find_map(|&t| g.neighbors(t, i).first().map(|&j| (i, j)))
            })
            .expect("graph has at least one edge");
        let mut rng = StdRng::seed_from_u64(6);
        let layer = HgatLayer::new(&mut rng, 4, 4);
        let base = init::normal(&mut rng, 0.0, 1.0, vec![g.num_nodes(), 4]);
        let out_a = layer.forward_union(&[&g], &base).to_vec();
        // Perturb `node`'s features.
        let mut data = base.to_vec();
        for c in 0..4 {
            data[node * 4 + c] += 3.0;
        }
        let perturbed = Tensor::from_vec(data, vec![g.num_nodes(), 4]);
        let out_b = layer.forward_union(&[&g], &perturbed).to_vec();
        let diff: f32 = (0..4)
            .map(|c| (out_a[neighbor * 4 + c] - out_b[neighbor * 4 + c]).abs())
            .sum();
        assert!(
            diff > 1e-6,
            "neighbour output unchanged — no message passing"
        );
    }

    #[test]
    fn learns_to_match_targets() {
        // Tiny optimisation sanity: HGAT output can fit random targets.
        let g = small_graph();
        let mut rng = StdRng::seed_from_u64(7);
        let layer = HgatLayer::new(&mut rng, 4, 4);
        let h = init::normal(&mut rng, 0.0, 0.5, vec![g.num_nodes(), 4]).detach();
        let target = init::normal(&mut rng, 0.0, 0.5, vec![g.num_nodes(), 4]).detach();
        let params = layer.params();
        let mut opt = optim::Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            optim::zero_grad(&params);
            let loss = layer
                .forward_union(&[&g], &h)
                .sub(&target)
                .square()
                .mean_all();
            last = loss.item();
            first.get_or_insert(last);
            loss.backward();
            opt.step(&params);
        }
        let first = first.expect("ran at least one step");
        assert!(
            last < first * 0.9,
            "loss did not decrease: {first} → {last}"
        );
    }
}
