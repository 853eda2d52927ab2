//! Fused attention and packed projection nodes.
//!
//! The attention stack used to spend five tape nodes per block stage:
//! three projections, a jagged score product, a masked softmax, and a
//! value product — each materialising (and saving) a `[T, S]` matrix.
//! This module collapses them into two:
//!
//! * [`Tensor::affine_packed`] — one `X·[W₀‖W₁‖…]+[b₀‖b₁‖…]` product
//!   for a family of affine heads sharing an input (Q/K/V projections),
//! * [`fused_attention`] — the flash-style
//!   `softmax(scale·Q·Kᵀ [+ causal])·V` as **one** node. The forward
//!   streams per-item `[q, k]` score blocks through scratch (never
//!   materialising the padded `[T, S]` score or probability tensors on
//!   the tape) and saves only each row's softmax `(max, sum)` pair; the
//!   backward recomputes the probabilities bitwise from those two
//!   numbers per row.
//!
//! ## Bitwise contract
//!
//! [`fused_attention`] performs, per item, **exactly** the arithmetic of
//! the composite chain it replaced (`bmm_nt_jagged` →
//! `softmax_rows_scaled_masked` → `bmm_jagged`, or their per-sample
//! `matmul` forms), in the same order — the same `gemm_ex` calls on the
//! same dense live blocks, the same per-row softmax primitives, and a
//! backward whose per-pass structure (dP, dV, dS, dQ, dK; items in batch
//! order within each pass) mirrors the composite's node-by-node reverse
//! sweep. Values *and* gradients are therefore bitwise identical to the
//! composite on every kernel tier and at every batch size
//! (`tests/prop_fused_attention.rs` pins this down).
//!
//! [`Tensor::affine_packed`] is bitwise identical to the separate
//! per-head [`Tensor::affine`] calls in its **forward** (an output
//! element's FMA chain contracts only the shared input width, which
//! packing does not change) and in its **weight and bias gradients**
//! (each head's `dW`/`db` runs the very gemm/reduction the separate op
//! runs). Only `dX` differs in rounding: one product over the packed
//! width replaces a sum of per-head products. Both the batched and the
//! per-sample model paths therefore route through this node, keeping
//! them bitwise interchangeable.

use crate::ops::elementwise::matrix_shape;
use crate::ops::matmul::{gemm_ex, GemmLayout};
use crate::ops::softmax::{softmax_row_backward, softmax_row_in_place};
use crate::pool;
use crate::simd;
use crate::tensor::Tensor;

/// The additive mask value of the composite path's attention masks.
const MASK: f32 = -1e9;

/// Geometry of one [`fused_attention`] call over dense jagged operands.
///
/// Item `i` attends its `q_lens[i]` query rows (rows
/// `q_starts[i] .. q_starts[i]+q_lens[i]` of `q`, columns
/// `q_col .. q_col+dm`) over its `k_lens[i]` key/value rows (rows
/// `k_starts[i] .. k_starts[i]+k_lens[i]` of `k` / `v`, at `k_col` /
/// `v_col`). Query row spans must be disjoint and ascending; key/value
/// blocks may repeat across items (shared histories).
pub struct FusedAttnSpec<'a> {
    /// Head width (columns read from each operand).
    pub dm: usize,
    /// First query column inside `q` (packed-QKV offset; 0 when dense).
    pub q_col: usize,
    /// First key column inside `k`.
    pub k_col: usize,
    /// First value column inside `v`.
    pub v_col: usize,
    /// Query row start per item.
    pub q_starts: &'a [usize],
    /// Live query rows per item.
    pub q_lens: &'a [usize],
    /// Key/value row start per item (one geometry for both operands).
    pub k_starts: &'a [usize],
    /// Live key/value rows per item.
    pub k_lens: &'a [usize],
    /// Score temperature, folded into the softmax exactly as
    /// [`Tensor::softmax_rows_scaled_masked`] folds it.
    pub scale: f32,
    /// Apply the causal mask (query row `u` sees keys `0..=u`; requires
    /// `q_lens[i] == k_lens[i]`).
    pub causal: bool,
}

/// Owned copy of a spec, captured by the backward closure.
struct OwnedSpec {
    dm: usize,
    q_col: usize,
    k_col: usize,
    v_col: usize,
    q_starts: Vec<usize>,
    q_lens: Vec<usize>,
    k_starts: Vec<usize>,
    k_lens: Vec<usize>,
    scale: f32,
    causal: bool,
}

/// A dense `[rows, dm]` view of a (possibly column-strided) operand
/// block: a plain sub-slice when the operand is full-width, a packed
/// copy in `hold` otherwise (copying is bitwise-free).
fn dense_block<'a>(
    data: &'a [f32],
    start: usize,
    rows: usize,
    col: usize,
    dm: usize,
    stride: usize,
    hold: &'a mut Option<pool::Scratch>,
) -> &'a [f32] {
    if col == 0 && stride == dm {
        return &data[start * dm..(start + rows) * dm];
    }
    let mut s = pool::scratch_uninit(rows * dm);
    for r in 0..rows {
        let at = (start + r) * stride + col;
        s[r * dm..(r + 1) * dm].copy_from_slice(&data[at..at + dm]);
    }
    *hold = Some(s);
    &hold.as_ref().expect("just set")[..]
}

/// Adds a dense `[rows, dm]` block into a column-strided gradient region.
fn scatter_add_block(
    grad: &mut [f32],
    start: usize,
    rows: usize,
    col: usize,
    dm: usize,
    stride: usize,
    src: &[f32],
) {
    for r in 0..rows {
        let at = (start + r) * stride + col;
        for (dst, s) in grad[at..at + dm].iter_mut().zip(&src[r * dm..(r + 1) * dm]) {
            *dst += s;
        }
    }
}

/// Applies the composite softmax op's pre-pass to one score row: the
/// temperature multiply (skipped at 1.0, as the composite skips it) and
/// the additive causal mask for columns past the local row index.
fn scale_mask_row(row: &mut [f32], scale: f32, causal: bool, u: usize) {
    if scale != 1.0 {
        for x in row.iter_mut() {
            *x *= scale;
        }
    }
    if causal {
        let from = (u + 1).min(row.len());
        for x in row[from..].iter_mut() {
            *x += MASK;
        }
    }
}

/// Fused scaled-dot-product attention over dense jagged operands:
/// `out[q rows] = softmax(scale·Q·Kᵀ [+ causal])·V` per item, as one
/// tape node (see the module docs for the bitwise contract). Rows of the
/// output not covered by any item stay exact zero.
///
/// # Panics
/// Panics on inconsistent geometry (see [`FusedAttnSpec`]).
pub fn fused_attention(q: &Tensor, k: &Tensor, v: &Tensor, spec: &FusedAttnSpec) -> Tensor {
    let batch = spec.q_starts.len();
    assert!(batch >= 1, "fused_attention needs at least one item");
    assert_eq!(spec.q_lens.len(), batch, "one query length per item");
    assert_eq!(spec.k_starts.len(), batch, "one key start per item");
    assert_eq!(spec.k_lens.len(), batch, "one key length per item");
    let dm = spec.dm;
    assert!(spec.q_col + dm <= q.cols(), "query block out of bounds");
    assert!(spec.k_col + dm <= k.cols(), "key block out of bounds");
    assert!(spec.v_col + dm <= v.cols(), "value block out of bounds");
    assert_eq!(k.rows(), v.rows(), "key/value row geometry must match");
    let t_rows = q.rows();
    for i in 0..batch {
        let (ql, kl) = (spec.q_lens[i], spec.k_lens[i]);
        assert!(
            spec.q_starts[i] + ql <= t_rows,
            "item {i}: query rows out of bounds"
        );
        assert!(
            spec.k_starts[i] + kl <= k.rows(),
            "item {i}: key rows out of bounds"
        );
        if i + 1 < batch {
            assert!(
                spec.q_starts[i] + ql <= spec.q_starts[i + 1],
                "query row spans must be disjoint and ascending"
            );
        }
        if spec.causal {
            assert_eq!(ql, kl, "causal attention needs square live blocks");
        }
    }

    let mut out = pool::take_zeroed(t_rows * dm);
    // Per query row: the softmax (max, sum) pair — all the backward needs
    // to rebuild the probability row bitwise.
    let mut saved = vec![0.0f32; 2 * t_rows];
    {
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        let (qd, kd, vd): (&[f32], &[f32], &[f32]) = (&qd, &kd, &vd);
        let (qs, ks, vs) = (q.cols(), k.cols(), v.cols());
        for i in 0..batch {
            let (ql, kl) = (spec.q_lens[i], spec.k_lens[i]);
            if ql == 0 || kl == 0 {
                continue;
            }
            let (o0, s0) = (spec.q_starts[i] * dm, spec.q_starts[i] * 2);
            let (owin, swin) = (&mut out[o0..o0 + ql * dm], &mut saved[s0..s0 + ql * 2]);
            let (mut qh, mut kh, mut vh) = (None, None, None);
            let qb = dense_block(qd, spec.q_starts[i], ql, spec.q_col, dm, qs, &mut qh);
            let kb = dense_block(kd, spec.k_starts[i], kl, spec.k_col, dm, ks, &mut kh);
            let vb = dense_block(vd, spec.k_starts[i], kl, spec.v_col, dm, vs, &mut vh);
            // Live score block, probabilities in place, value product —
            // the same gemm/softmax calls the composite chain issues for
            // this item's live corner.
            let mut s = pool::scratch_zeroed(ql * kl);
            gemm_ex(GemmLayout::NT, qb, kb, &mut s, ql, dm, kl);
            for u in 0..ql {
                let row = &mut s[u * kl..(u + 1) * kl];
                scale_mask_row(row, spec.scale, spec.causal, u);
                let (mx, sum) = softmax_row_in_place(row);
                swin[2 * u] = mx;
                swin[2 * u + 1] = sum;
            }
            gemm_ex(GemmLayout::NN, &s, vb, owin, ql, kl, dm);
        }
    }

    let track =
        !Tensor::grad_suspended() && (q.requires_grad() || k.requires_grad() || v.requires_grad());
    let sp = OwnedSpec {
        dm,
        q_col: spec.q_col,
        k_col: spec.k_col,
        v_col: spec.v_col,
        q_starts: if track {
            spec.q_starts.to_vec()
        } else {
            Vec::new()
        },
        q_lens: if track {
            spec.q_lens.to_vec()
        } else {
            Vec::new()
        },
        k_starts: if track {
            spec.k_starts.to_vec()
        } else {
            Vec::new()
        },
        k_lens: if track {
            spec.k_lens.to_vec()
        } else {
            Vec::new()
        },
        scale: spec.scale,
        causal: spec.causal,
    };
    if !track {
        saved = Vec::new();
    }
    let (pq, pk, pv) = (q.clone(), k.clone(), v.clone());
    Tensor::from_op(
        out,
        matrix_shape(t_rows, dm),
        vec![q.clone(), k.clone(), v.clone()],
        Box::new(move |o: &Tensor| {
            let og = o.inner.grad.borrow();
            let g = og.as_ref().expect("grad");
            fused_attention_backward(g, &pq, &pk, &pv, &sp, &saved);
        }),
    )
}

/// The backward sweep: recompute the probability blocks bitwise from the
/// saved `(max, sum)` pairs, then apply the composite chain's gradient
/// passes in its exact order — dP and dV (the value-product node), dS
/// (the softmax node), dQ and dK (the score node) — items in batch order
/// within every pass.
fn fused_attention_backward(
    g: &[f32],
    pq: &Tensor,
    pk: &Tensor,
    pv: &Tensor,
    sp: &OwnedSpec,
    saved: &[f32],
) {
    let batch = sp.q_starts.len();
    let dm = sp.dm;
    let (qs, ks, vs) = (pq.cols(), pk.cols(), pv.cols());
    // Dense `[ql, kl]` block offsets inside the transient score-sized
    // scratches.
    let mut blk = Vec::with_capacity(batch + 1);
    let mut total = 0usize;
    blk.push(0);
    for i in 0..batch {
        total += sp.q_lens[i] * sp.k_lens[i];
        blk.push(total);
    }

    // Pass 1: rebuild P (bitwise: same score gemm, saved (max, sum))
    // and compute dP = g·Vᵀ — the value-product node's dA pass.
    let mut p_all = pool::scratch_zeroed(total);
    let mut dp_all = pool::scratch_zeroed(total);
    {
        let (qd, kd, vd) = (pq.data(), pk.data(), pv.data());
        for i in 0..batch {
            let (ql, kl) = (sp.q_lens[i], sp.k_lens[i]);
            if ql == 0 || kl == 0 {
                continue;
            }
            let (mut qh, mut kh, mut vh) = (None, None, None);
            let qb = dense_block(&qd, sp.q_starts[i], ql, sp.q_col, dm, qs, &mut qh);
            let kb = dense_block(&kd, sp.k_starts[i], kl, sp.k_col, dm, ks, &mut kh);
            let vb = dense_block(&vd, sp.k_starts[i], kl, sp.v_col, dm, vs, &mut vh);
            let p = &mut p_all[blk[i]..blk[i + 1]];
            gemm_ex(GemmLayout::NT, qb, kb, p, ql, dm, kl);
            for u in 0..ql {
                let row = &mut p[u * kl..(u + 1) * kl];
                scale_mask_row(row, sp.scale, sp.causal, u);
                let at = (sp.q_starts[i] + u) * 2;
                let (mx, sum) = (saved[at], saved[at + 1]);
                // Same exp pass as the forward's kernel, shifted by the
                // saved max; the recomputed sum equals `sum` bitwise.
                let _ = simd::row_exp_sum(row, mx);
                let inv = 1.0 / sum.max(1e-20);
                for x in row.iter_mut() {
                    *x *= inv;
                }
            }
            let g_i = &g[sp.q_starts[i] * dm..(sp.q_starts[i] + ql) * dm];
            gemm_ex(
                GemmLayout::NT,
                g_i,
                vb,
                &mut dp_all[blk[i]..blk[i + 1]],
                ql,
                dm,
                kl,
            );
        }
    }

    // Pass 2: dV += Pᵀ·g — the value-product node's dB pass.
    if pv.requires_grad() {
        pv.with_grad_mut(|gv| {
            for i in 0..batch {
                let (ql, kl) = (sp.q_lens[i], sp.k_lens[i]);
                if ql == 0 || kl == 0 {
                    continue;
                }
                let p = &p_all[blk[i]..blk[i + 1]];
                let g_i = &g[sp.q_starts[i] * dm..(sp.q_starts[i] + ql) * dm];
                if sp.v_col == 0 && vs == dm {
                    let at = sp.k_starts[i] * dm;
                    gemm_ex(
                        GemmLayout::TN,
                        p,
                        g_i,
                        &mut gv[at..at + kl * dm],
                        kl,
                        ql,
                        dm,
                    );
                } else {
                    let mut dense = pool::scratch_zeroed(kl * dm);
                    gemm_ex(GemmLayout::TN, p, g_i, &mut dense, kl, ql, dm);
                    scatter_add_block(gv, sp.k_starts[i], kl, sp.v_col, dm, vs, &dense);
                }
            }
        });
    }

    // Pass 3: dS — the softmax node's backward, row by row into zeroed
    // scratch (the composite accumulates into a zeroed gradient buffer).
    let mut ds_all = pool::scratch_zeroed(total);
    for (i, &base) in blk.iter().enumerate().take(batch) {
        let (ql, kl) = (sp.q_lens[i], sp.k_lens[i]);
        for u in 0..ql {
            let at = base + u * kl;
            softmax_row_backward(
                &p_all[at..at + kl],
                &dp_all[at..at + kl],
                &mut ds_all[at..at + kl],
                sp.scale,
            );
        }
    }
    drop(p_all);
    drop(dp_all);

    // Pass 4: dQ += dS·K — the score node's dA pass.
    if pq.requires_grad() {
        let kd = pk.data();
        pq.with_grad_mut(|gq| {
            for i in 0..batch {
                let (ql, kl) = (sp.q_lens[i], sp.k_lens[i]);
                if ql == 0 || kl == 0 {
                    continue;
                }
                let mut kh = None;
                let kb = dense_block(&kd, sp.k_starts[i], kl, sp.k_col, dm, ks, &mut kh);
                let ds = &ds_all[blk[i]..blk[i + 1]];
                if sp.q_col == 0 && qs == dm {
                    let at = sp.q_starts[i] * dm;
                    gemm_ex(
                        GemmLayout::NN,
                        ds,
                        kb,
                        &mut gq[at..at + ql * dm],
                        ql,
                        kl,
                        dm,
                    );
                } else {
                    let mut dense = pool::scratch_zeroed(ql * dm);
                    gemm_ex(GemmLayout::NN, ds, kb, &mut dense, ql, kl, dm);
                    scatter_add_block(gq, sp.q_starts[i], ql, sp.q_col, dm, qs, &dense);
                }
            }
        });
    }

    // Pass 5: dK += dSᵀ·Q — the score node's dB pass.
    if pk.requires_grad() {
        let qd = pq.data();
        pk.with_grad_mut(|gk| {
            for i in 0..batch {
                let (ql, kl) = (sp.q_lens[i], sp.k_lens[i]);
                if ql == 0 || kl == 0 {
                    continue;
                }
                let mut qh = None;
                let qb = dense_block(&qd, sp.q_starts[i], ql, sp.q_col, dm, qs, &mut qh);
                let ds = &ds_all[blk[i]..blk[i + 1]];
                if sp.k_col == 0 && ks == dm {
                    let at = sp.k_starts[i] * dm;
                    gemm_ex(
                        GemmLayout::TN,
                        ds,
                        qb,
                        &mut gk[at..at + kl * dm],
                        kl,
                        ql,
                        dm,
                    );
                } else {
                    let mut dense = pool::scratch_zeroed(kl * dm);
                    gemm_ex(GemmLayout::TN, ds, qb, &mut dense, kl, ql, dm);
                    scatter_add_block(gk, sp.k_starts[i], kl, sp.k_col, dm, ks, &dense);
                }
            }
        });
    }
}

/// Packs per-head weight matrices `[k, mᵢ]` column-wise into `[k, Σmᵢ]`.
fn pack_weight_columns(ws: &[Tensor], kin: usize, mt: usize, widths: &[usize]) -> pool::Scratch {
    let mut wp = pool::scratch_uninit(kin * mt);
    let mut col = 0usize;
    for (w, &mw) in ws.iter().zip(widths) {
        let wd = w.data();
        for p in 0..kin {
            wp[p * mt + col..p * mt + col + mw].copy_from_slice(&wd[p * mw..(p + 1) * mw]);
        }
        col += mw;
    }
    wp
}

impl Tensor {
    /// A family of affine heads sharing one input, as **one** tape node:
    /// `self[n×k] · [W₀‖W₁‖…] + [b₀‖b₁‖…] → [n, Σmᵢ]`, head `i`'s output
    /// in columns `Σ_{j<i} mⱼ ..`. Forward values and every `dWᵢ`/`dbᵢ`
    /// are bitwise identical to separate [`Tensor::affine`] calls; only
    /// the input gradient's rounding differs (one packed product instead
    /// of a per-head sum — see the module docs).
    ///
    /// # Panics
    /// Panics when a weight's row count differs from `self`'s columns or
    /// a bias length differs from its weight's columns.
    pub fn affine_packed(&self, layers: &[(&Tensor, &Tensor)]) -> Tensor {
        assert!(!layers.is_empty(), "affine_packed of zero heads");
        let (n, kin) = (self.rows(), self.cols());
        let widths: Vec<usize> = layers
            .iter()
            .map(|(w, b)| {
                assert_eq!(
                    w.rows(),
                    kin,
                    "affine_packed inner dimension mismatch: {} vs {}",
                    self.shape(),
                    w.shape()
                );
                assert_eq!(b.len(), w.cols(), "affine_packed bias length mismatch");
                w.cols()
            })
            .collect();
        let mt: usize = widths.iter().sum();
        let pws: Vec<Tensor> = layers.iter().map(|(w, _)| (*w).clone()).collect();
        let pbs: Vec<Tensor> = layers.iter().map(|(_, b)| (*b).clone()).collect();
        let wp = pack_weight_columns(&pws, kin, mt, &widths);
        let mut out = pool::take_uninit(n * mt);
        {
            // Bias rows first, then the gemm accumulates on top — the
            // affine op's exact element chains.
            let mut brow = pool::scratch_uninit(mt);
            let mut col = 0usize;
            for b in &pbs {
                let bd = b.data();
                brow[col..col + bd.len()].copy_from_slice(&bd);
                col += bd.len();
            }
            for r in 0..n {
                out[r * mt..(r + 1) * mt].copy_from_slice(&brow);
            }
        }
        gemm_ex(GemmLayout::NN, &self.data(), &wp, &mut out, n, kin, mt);
        drop(wp);
        let pa = self.clone();
        let mut parents = vec![self.clone()];
        for (w, b) in layers {
            parents.push((*w).clone());
            parents.push((*b).clone());
        }
        let widths_c = widths;
        Tensor::from_op(
            out,
            matrix_shape(n, mt),
            parents,
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                // dbᵢ: the affine op's row-major column sums, per head.
                let mut col = 0usize;
                for (pb, &mw) in pbs.iter().zip(&widths_c) {
                    if pb.requires_grad() {
                        pb.with_grad_mut(|gb| {
                            for r in 0..n {
                                let grow = &g[r * mt + col..r * mt + col + mw];
                                for (gbj, gj) in gb.iter_mut().zip(grow) {
                                    *gbj += gj;
                                }
                            }
                        });
                    }
                    col += mw;
                }
                // dX = dY·Wᵀ over the packed width (the one place the
                // packing changes rounding versus separate heads).
                if pa.requires_grad() {
                    let wp = pack_weight_columns(&pws, kin, mt, &widths_c);
                    pa.with_grad_mut(|ga| gemm_ex(GemmLayout::NT, g, &wp, ga, n, mt, kin));
                }
                // dWᵢ = Xᵀ·dYᵢ on the densely packed column block — the
                // same gemm the separate affine performs.
                let av = pa.data();
                let mut col = 0usize;
                for (pw, &mw) in pws.iter().zip(&widths_c) {
                    if pw.requires_grad() {
                        let mut gblk = pool::scratch_uninit(n * mw);
                        for r in 0..n {
                            gblk[r * mw..(r + 1) * mw]
                                .copy_from_slice(&g[r * mt + col..r * mt + col + mw]);
                        }
                        pw.with_grad_mut(|gw| gemm_ex(GemmLayout::TN, &av, &gblk, gw, kin, n, mw));
                    }
                    col += mw;
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::batched::jagged_key_padding_mask;
    use crate::ops::softmax::causal_mask;

    fn filled(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 23) as f32 * 0.1 - 1.1
            })
            .collect()
    }

    /// The retired composite, per-sample form: scores → masked scaled
    /// softmax → value product.
    fn composite(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32, mask: Option<&Tensor>) -> Tensor {
        q.matmul_nt(k)
            .softmax_rows_scaled_masked(scale, mask)
            .matmul(v)
    }

    #[test]
    fn fused_matches_composite_causal_bitwise_with_grads() {
        let (n, dm) = (7usize, 12usize);
        let run = |fused: bool| {
            let q = Tensor::param(filled(n * dm, 1), vec![n, dm]);
            let k = Tensor::param(filled(n * dm, 2), vec![n, dm]);
            let v = Tensor::param(filled(n * dm, 3), vec![n, dm]);
            let out = if fused {
                fused_attention(
                    &q,
                    &k,
                    &v,
                    &FusedAttnSpec {
                        dm,
                        q_col: 0,
                        k_col: 0,
                        v_col: 0,
                        q_starts: &[0],
                        q_lens: &[n],
                        k_starts: &[0],
                        k_lens: &[n],
                        scale: 0.25,
                        causal: true,
                    },
                )
            } else {
                composite(&q, &k, &v, 0.25, Some(&causal_mask(n)))
            };
            out.square().sum_all().backward();
            (out.to_vec(), q.grad(), k.grad(), v.grad())
        };
        let f = run(true);
        let c = run(false);
        assert!(f.0 == c.0, "fused causal forward diverged");
        assert!(f.1 == c.1, "fused causal dQ diverged");
        assert!(f.2 == c.2, "fused causal dK diverged");
        assert!(f.3 == c.3, "fused causal dV diverged");
    }

    #[test]
    fn fused_matches_composite_key_padded_bitwise() {
        // One query row over a zero-padded key block, as the pointer
        // residual uses it: fused over the live prefix must equal the
        // composite over the padded width with a key-padding mask.
        let (dm, live, padded) = (8usize, 5usize, 9usize);
        let run = |fused: bool| {
            let q = Tensor::param(filled(dm, 4), vec![1, dm]);
            let mut kv_data = filled(padded * dm, 5);
            for x in kv_data[live * dm..].iter_mut() {
                *x = 0.0;
            }
            let kv = Tensor::param(kv_data, vec![padded, dm]);
            let out = if fused {
                fused_attention(
                    &q,
                    &kv,
                    &kv,
                    &FusedAttnSpec {
                        dm,
                        q_col: 0,
                        k_col: 0,
                        v_col: 0,
                        q_starts: &[0],
                        q_lens: &[1],
                        k_starts: &[0],
                        k_lens: &[live],
                        scale: 2.0,
                        causal: false,
                    },
                )
            } else {
                let mask = jagged_key_padding_mask(&[1], &[live], padded);
                q.matmul_nt(&kv)
                    .softmax_rows_scaled_masked(2.0, Some(&mask))
                    .matmul(&kv)
            };
            out.square().sum_all().backward();
            (out.to_vec(), q.grad(), kv.grad())
        };
        let f = run(true);
        let c = run(false);
        assert!(f.0 == c.0, "padded forward diverged");
        assert!(f.1 == c.1, "padded dQ diverged");
        assert!(f.2 == c.2, "padded dKV diverged");
    }

    #[test]
    fn packed_qkv_columns_feed_fused_attention() {
        // Strided operands (one packed [n, 3·dm] tensor) must produce the
        // same values as dense per-operand tensors.
        let (n, dm) = (5usize, 6usize);
        let data = filled(n * 3 * dm, 6);
        let packed = Tensor::param(data.clone(), vec![n, 3 * dm]);
        let slice_block = |c0: usize| {
            let mut v = Vec::with_capacity(n * dm);
            for r in 0..n {
                v.extend_from_slice(&data[r * 3 * dm + c0..r * 3 * dm + c0 + dm]);
            }
            Tensor::param(v, vec![n, dm])
        };
        let (q, k, v) = (slice_block(0), slice_block(dm), slice_block(2 * dm));
        let (starts, lens) = ([0usize], [n]);
        let spec = |q_col, k_col, v_col| FusedAttnSpec {
            dm,
            q_col,
            k_col,
            v_col,
            q_starts: &starts,
            q_lens: &lens,
            k_starts: &starts,
            k_lens: &lens,
            scale: 0.5,
            causal: true,
        };
        let strided = fused_attention(&packed, &packed, &packed, &spec(0, dm, 2 * dm));
        let dense = fused_attention(&q, &k, &v, &spec(0, 0, 0));
        assert!(
            strided.to_vec() == dense.to_vec(),
            "strided forward diverged"
        );
        // Gradients land in the right column blocks.
        strided.square().sum_all().backward();
        dense.square().sum_all().backward();
        let gp = packed.grad();
        let (gq, gk, gv) = (q.grad(), k.grad(), v.grad());
        for r in 0..n {
            for c in 0..dm {
                assert_eq!(gp[r * 3 * dm + c], gq[r * dm + c], "dQ at ({r},{c})");
                assert_eq!(gp[r * 3 * dm + dm + c], gk[r * dm + c], "dK at ({r},{c})");
                assert_eq!(
                    gp[r * 3 * dm + 2 * dm + c],
                    gv[r * dm + c],
                    "dV at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn jagged_items_match_per_item_composites_bitwise() {
        // Three items of different lengths through one fused call equal
        // three independent per-item composites.
        let dm = 10usize;
        let lens = [4usize, 1, 6];
        let total: usize = lens.iter().sum();
        let starts = [0usize, 4, 5];
        let q = Tensor::param(filled(total * dm, 7), vec![total, dm]);
        let k = Tensor::param(filled(total * dm, 8), vec![total, dm]);
        let v = Tensor::param(filled(total * dm, 9), vec![total, dm]);
        let fused = fused_attention(
            &q,
            &k,
            &v,
            &FusedAttnSpec {
                dm,
                q_col: 0,
                k_col: 0,
                v_col: 0,
                q_starts: &starts,
                q_lens: &lens,
                k_starts: &starts,
                k_lens: &lens,
                scale: 0.3,
                causal: true,
            },
        );
        for (i, (&o, &len)) in starts.iter().zip(&lens).enumerate() {
            let qi = q.slice_rows(o, o + len);
            let ki = k.slice_rows(o, o + len);
            let vi = v.slice_rows(o, o + len);
            let want = composite(&qi, &ki, &vi, 0.3, Some(&causal_mask(len))).to_vec();
            let got = fused.slice_rows(o, o + len).to_vec();
            assert!(got == want, "item {i} diverged");
        }
    }

    #[test]
    fn shared_kv_blocks_accumulate_like_composite() {
        // Two queries sharing one KV block (deduplicated histories):
        // gradients into the shared block must match the composite chain
        // run over the same shared tensor.
        let (dm, hl) = (6usize, 4);
        let run = |fused: bool| {
            let q = Tensor::param(filled(2 * dm, 10), vec![2, dm]);
            let kv = Tensor::param(filled(hl * dm, 11), vec![hl, dm]);
            let out = if fused {
                fused_attention(
                    &q,
                    &kv,
                    &kv,
                    &FusedAttnSpec {
                        dm,
                        q_col: 0,
                        k_col: 0,
                        v_col: 0,
                        q_starts: &[0, 1],
                        q_lens: &[1, 1],
                        k_starts: &[0, 0],
                        k_lens: &[hl, hl],
                        scale: 1.0,
                        causal: false,
                    },
                )
            } else {
                // The composite analogue: each query row attends the same
                // block (both key starts 0); the jagged products reproduce
                // the same accumulation order (item-major within each pass).
                q.bmm_nt_jagged(&kv, hl, &[0, 1], &[1, 1], &[0, 0], &[hl, hl])
                    .softmax_rows_scaled_masked(1.0, None)
                    .bmm_jagged(&kv, &[0, 1], &[1, 1], &[hl, hl], &[0, 0])
            };
            out.square().sum_all().backward();
            (out.to_vec(), q.grad(), kv.grad())
        };
        let f = run(true);
        let c = run(false);
        assert!(f.0 == c.0, "shared-kv forward diverged");
        assert!(f.1 == c.1, "shared-kv dQ diverged");
        assert!(f.2 == c.2, "shared-kv dKV diverged");
    }

    #[test]
    fn affine_packed_matches_separate_affines() {
        let (n, kin, m1, m2) = (6usize, 5usize, 4usize, 7usize);
        let x1 = Tensor::param(filled(n * kin, 12), vec![n, kin]);
        let w1 = Tensor::param(filled(kin * m1, 13), vec![kin, m1]);
        let b1 = Tensor::param(filled(m1, 14), vec![m1]);
        let w2 = Tensor::param(filled(kin * m2, 15), vec![kin, m2]);
        let b2 = Tensor::param(filled(m2, 16), vec![m2]);
        let packed = x1.affine_packed(&[(&w1, &b1), (&w2, &b2)]);
        assert_eq!(packed.rows(), n);
        assert_eq!(packed.cols(), m1 + m2);
        let x2 = Tensor::param(filled(n * kin, 12), vec![n, kin]);
        let w1b = Tensor::param(filled(kin * m1, 13), vec![kin, m1]);
        let b1b = Tensor::param(filled(m1, 14), vec![m1]);
        let w2b = Tensor::param(filled(kin * m2, 15), vec![kin, m2]);
        let b2b = Tensor::param(filled(m2, 16), vec![m2]);
        let (y1, y2) = (x2.affine(&w1b, &b1b), x2.affine(&w2b, &b2b));
        // Forward: packed columns equal the separate outputs bitwise.
        let pv = packed.to_vec();
        let (v1, v2) = (y1.to_vec(), y2.to_vec());
        for r in 0..n {
            assert!(pv[r * (m1 + m2)..r * (m1 + m2) + m1] == v1[r * m1..(r + 1) * m1]);
            assert!(pv[r * (m1 + m2) + m1..(r + 1) * (m1 + m2)] == v2[r * m2..(r + 1) * m2]);
        }
        // Backward: dW/db bitwise, dX within packed-sum tolerance.
        packed.square().sum_all().backward();
        y1.square().sum_all().add(&y2.square().sum_all()).backward();
        assert_eq!(w1.grad(), w1b.grad(), "dW1 diverged");
        assert_eq!(b1.grad(), b1b.grad(), "db1 diverged");
        assert_eq!(w2.grad(), w2b.grad(), "dW2 diverged");
        assert_eq!(b2.grad(), b2b.grad(), "db2 diverged");
        for (a, b) in x1.grad().iter().zip(x2.grad()) {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                "dX too far: {a} vs {b}"
            );
        }
    }

    #[test]
    fn no_grad_skips_saved_state() {
        let dm = 4usize;
        let q = Tensor::param(filled(3 * dm, 17), vec![3, dm]);
        let out = Tensor::no_grad(|| {
            fused_attention(
                &q,
                &q,
                &q,
                &FusedAttnSpec {
                    dm,
                    q_col: 0,
                    k_col: 0,
                    v_col: 0,
                    q_starts: &[0],
                    q_lens: &[3],
                    k_starts: &[0],
                    k_lens: &[3],
                    scale: 1.0,
                    causal: true,
                },
            )
        });
        assert!(out.to_vec().iter().all(|x| x.is_finite()));
        assert!(!out.requires_grad());
    }
}
