//! Batched primitives for the `[batch, seq, dm]` forward pass.
//!
//! The model crate runs every sample of a batch through one shared tape.
//! Sequence tensors are **dense jagged**: sample `b`'s rows sit at
//! `offsets[b] .. offsets[b]+lens[b]` of a `[Σlens, dm]` matrix (no
//! padding rows); only score matrices and gathered candidate/history
//! blocks pad, to a uniform column/row count, with masked or exact-zero
//! dead regions. The ops here supply what that layout needs beyond the
//! existing 2-D operators:
//!
//! * [`Tensor::bmm_jagged`] / [`Tensor::bmm_nt_jagged`] — strided batched
//!   GEMM over offset-addressed per-item row spans with live extents,
//!   riding the kernels of [`crate::ops::matmul`];
//! * [`Tensor::gather_rows_padded`] — the gather/pad primitive that
//!   assembles ragged per-sample row sets into one zero-padded block
//!   tensor (the backward scatter skips the padding);
//! * [`jagged_causal_mask`] / [`jagged_key_padding_mask`] — additive
//!   `-1e9` attention masks (shared layout with
//!   [`Tensor::softmax_rows_masked`]);
//! * [`Tensor::cosine_many_to_rows`] / [`Tensor::cosine_grouped`] and
//!   [`Tensor::arcface_loss_rows`] — the batched two-step scorer.
//!
//! ## Bitwise contract
//!
//! Every op here performs, per sample, **exactly** the arithmetic of its
//! per-sample counterpart, in the same order: padding keys are masked to
//! `-1e9` (their `exp` underflows to exactly `0.0`), padded rows are
//! exact zeros, and zero-valued contributions appended by padding cannot
//! change an IEEE-754 sum. Together with the kernel-invariance of
//! `gemm_ex` (a row's result does not depend on the surrounding product
//! size — see `small_nn`), a batched forward's per-sample outputs are
//! bitwise identical to the serial per-sample forward, at every batch
//! size.

use crate::ops::elementwise::matrix_shape;
use crate::ops::matmul::{gemm_ex, GemmLayout};
use crate::ops::norm::NORM_EPS;
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Per-item geometry of one batched GEMM: where each item's rows live in
/// the flat lhs/rhs/output buffers and how many of them are live. Item
/// `i`'s rhs rows may overlap other items' (shared K/V blocks).
struct BmmPlan {
    /// lhs column count (NT: the contraction width; NN: the padded lhs
    /// column stride).
    k: usize,
    /// Output column stride.
    n: usize,
    /// lhs (= output) row start per item.
    a_start: Vec<usize>,
    /// Live lhs rows per item.
    a_rows: Vec<usize>,
    /// rhs row start per item.
    b_start: Vec<usize>,
    /// Live rhs rows per item (NT: live output columns; NN: live
    /// contraction depth).
    b_rows: Vec<usize>,
}

impl BmmPlan {
    fn batch(&self) -> usize {
        self.a_start.len()
    }

    fn validate(&self, lhs: &Tensor, rhs: &Tensor, out_rows: usize, nn: bool) {
        for i in 0..self.batch() {
            let (a0, am) = (self.a_start[i], self.a_rows[i]);
            let (b0, bm) = (self.b_start[i], self.b_rows[i]);
            assert!(
                a0 + am <= lhs.rows() && a0 + am <= out_rows,
                "item {i}: lhs rows {a0}+{am} out of bounds"
            );
            assert!(
                b0 + bm <= rhs.rows(),
                "item {i}: rhs rows {b0}+{bm} out of bounds"
            );
            if nn {
                assert!(
                    bm <= self.k,
                    "item {i}: contraction {bm} exceeds lhs cols {}",
                    self.k
                );
            }
        }
    }
}

/// Runs `item(i, window)` for every batch item with live rows, where
/// `window` is item `i`'s live row span of `out`.
fn for_each_live_item(out: &mut [f32], plan: &BmmPlan, item: impl Fn(usize, &mut [f32])) {
    let n = plan.n;
    for i in 0..plan.batch() {
        let (start, rows) = (plan.a_start[i] * n, plan.a_rows[i] * n);
        if rows > 0 {
            item(i, &mut out[start..start + rows]);
        }
    }
}

/// Forward of the NT family: `C_i = A_i · B_iᵀ` over each item's live
/// rows/columns; the rest of `out` stays exact zero. Skipping the dead
/// region is bitwise-free: dead output entries are either additively
/// masked downstream or multiplied by exact-zero attention weights.
fn bmm_nt_fwd(a: &[f32], b: &[f32], out: &mut [f32], plan: &BmmPlan) {
    let (k, n) = (plan.k, plan.n);
    for_each_live_item(out, plan, |i, window| {
        let (ml, nl) = (plan.a_rows[i], plan.b_rows[i]);
        if nl == 0 {
            return;
        }
        let a_i = &a[plan.a_start[i] * k..plan.a_start[i] * k + ml * k];
        let b_i = &b[plan.b_start[i] * k..plan.b_start[i] * k + nl * k];
        if nl == n {
            gemm_ex(GemmLayout::NT, a_i, b_i, window, ml, k, n);
        } else {
            let mut dense = pool::scratch_zeroed(ml * nl);
            gemm_ex(GemmLayout::NT, a_i, b_i, &mut dense, ml, k, nl);
            for r in 0..ml {
                window[r * n..r * n + nl].copy_from_slice(&dense[r * nl..(r + 1) * nl]);
            }
        }
    });
}

/// Forward of the NN family: `C_i = A_i · B_i`, contracting only the
/// live depth (the dropped lhs columns are exact zeros, so the dropped
/// products are exact-zero addends).
fn bmm_nn_fwd(a: &[f32], b: &[f32], out: &mut [f32], plan: &BmmPlan) {
    let (k, n) = (plan.k, plan.n);
    for_each_live_item(out, plan, |i, window| {
        let (ml, kl) = (plan.a_rows[i], plan.b_rows[i]);
        if kl == 0 {
            return;
        }
        let a0 = plan.a_start[i] * k;
        let b_i = &b[plan.b_start[i] * n..plan.b_start[i] * n + kl * n];
        if kl == k {
            gemm_ex(GemmLayout::NN, &a[a0..a0 + ml * k], b_i, window, ml, k, n);
        } else {
            // Live lhs corner is column-strided; pack it densely first.
            let mut packed = pool::scratch_uninit(ml * kl);
            for r in 0..ml {
                packed[r * kl..(r + 1) * kl].copy_from_slice(&a[a0 + r * k..a0 + r * k + kl]);
            }
            gemm_ex(GemmLayout::NN, &packed, b_i, window, ml, kl, n);
        }
    });
}

/// Copies the live `[ml, nl]` corner of a row-stride-`n` region densely.
fn pack_live(src: &[f32], ml: usize, nl: usize, n: usize) -> pool::Scratch {
    let mut dense = pool::scratch_uninit(ml * nl);
    for r in 0..ml {
        dense[r * nl..(r + 1) * nl].copy_from_slice(&src[r * n..r * n + nl]);
    }
    dense
}

/// Backward of the NT family (`C_i = A_i · B_iᵀ`): `dA_i = dC_i·B_i`,
/// `dB_i += dC_iᵀ·A_i`, live corners only (the dead regions of `dC` are
/// exact zeros).
fn bmm_nt_bwd(plan: &BmmPlan, g: &[f32], pa: &Tensor, pb: &Tensor) {
    let (k, n) = (plan.k, plan.n);
    if pa.requires_grad() {
        let bv = pb.data();
        pa.with_grad_mut(|ga| {
            for i in 0..plan.batch() {
                let (ml, nl) = (plan.a_rows[i], plan.b_rows[i]);
                if ml == 0 || nl == 0 {
                    continue;
                }
                let b_i = &bv[plan.b_start[i] * k..plan.b_start[i] * k + nl * k];
                let ga_i = &mut ga[plan.a_start[i] * k..plan.a_start[i] * k + ml * k];
                if nl == n {
                    gemm_ex(
                        GemmLayout::NN,
                        &g[plan.a_start[i] * n..plan.a_start[i] * n + ml * n],
                        b_i,
                        ga_i,
                        ml,
                        n,
                        k,
                    );
                } else {
                    let dg = pack_live(&g[plan.a_start[i] * n..], ml, nl, n);
                    gemm_ex(GemmLayout::NN, &dg, b_i, ga_i, ml, nl, k);
                }
            }
        });
    }
    if pb.requires_grad() {
        let av = pa.data();
        pb.with_grad_mut(|gb| {
            for i in 0..plan.batch() {
                let (ml, nl) = (plan.a_rows[i], plan.b_rows[i]);
                if ml == 0 || nl == 0 {
                    continue;
                }
                let a_i = &av[plan.a_start[i] * k..plan.a_start[i] * k + ml * k];
                let gb_i = &mut gb[plan.b_start[i] * k..plan.b_start[i] * k + nl * k];
                if nl == n {
                    gemm_ex(
                        GemmLayout::TN,
                        &g[plan.a_start[i] * n..plan.a_start[i] * n + ml * n],
                        a_i,
                        gb_i,
                        n,
                        ml,
                        k,
                    );
                } else {
                    let dg = pack_live(&g[plan.a_start[i] * n..], ml, nl, n);
                    gemm_ex(GemmLayout::TN, &dg, a_i, gb_i, nl, ml, k);
                }
            }
        });
    }
}

/// Backward of the NN family (`C_i = A_i · B_i`): `dA_i = dC_i·B_iᵀ`,
/// `dB_i += A_iᵀ·dC_i`, live corners only.
fn bmm_nn_bwd(plan: &BmmPlan, g: &[f32], pa: &Tensor, pb: &Tensor) {
    let (k, n) = (plan.k, plan.n);
    if pa.requires_grad() {
        let bv = pb.data();
        pa.with_grad_mut(|ga| {
            for i in 0..plan.batch() {
                let (ml, kl) = (plan.a_rows[i], plan.b_rows[i]);
                if ml == 0 || kl == 0 {
                    continue;
                }
                let g_i = &g[plan.a_start[i] * n..plan.a_start[i] * n + ml * n];
                let b_i = &bv[plan.b_start[i] * n..plan.b_start[i] * n + kl * n];
                let a0 = plan.a_start[i] * k;
                if kl == k {
                    gemm_ex(GemmLayout::NT, g_i, b_i, &mut ga[a0..a0 + ml * k], ml, n, k);
                } else {
                    let mut dense = pool::scratch_zeroed(ml * kl);
                    gemm_ex(GemmLayout::NT, g_i, b_i, &mut dense, ml, n, kl);
                    for r in 0..ml {
                        let at = a0 + r * k;
                        for (dst, src) in ga[at..at + kl].iter_mut().zip(&dense[r * kl..]) {
                            *dst += src;
                        }
                    }
                }
            }
        });
    }
    if pb.requires_grad() {
        let av = pa.data();
        pb.with_grad_mut(|gb| {
            for i in 0..plan.batch() {
                let (ml, kl) = (plan.a_rows[i], plan.b_rows[i]);
                if ml == 0 || kl == 0 {
                    continue;
                }
                let g_i = &g[plan.a_start[i] * n..plan.a_start[i] * n + ml * n];
                let gb_i = &mut gb[plan.b_start[i] * n..plan.b_start[i] * n + kl * n];
                let a0 = plan.a_start[i] * k;
                if kl == k {
                    gemm_ex(GemmLayout::TN, &av[a0..a0 + ml * k], g_i, gb_i, k, ml, n);
                } else {
                    let packed = pack_live(&av[a0..], ml, kl, k);
                    gemm_ex(GemmLayout::TN, &packed, g_i, gb_i, kl, ml, n);
                }
            }
        });
    }
}

/// Builds the NT-family op node from a finished plan.
fn bmm_nt_op(lhs: &Tensor, rhs: &Tensor, out_rows: usize, plan: BmmPlan) -> Tensor {
    assert_eq!(
        rhs.cols(),
        plan.k,
        "bmm_nt_jagged inner dimension mismatch: {} vs {}",
        lhs.shape(),
        rhs.shape()
    );
    plan.validate(lhs, rhs, out_rows, false);
    let mut out = pool::take_zeroed(out_rows * plan.n);
    bmm_nt_fwd(&lhs.data(), &rhs.data(), &mut out, &plan);
    let (pa, pb) = (lhs.clone(), rhs.clone());
    Tensor::from_op(
        out,
        matrix_shape(out_rows, plan.n),
        vec![lhs.clone(), rhs.clone()],
        Box::new(move |o: &Tensor| {
            let og = o.inner.grad.borrow();
            let g = og.as_ref().expect("grad");
            bmm_nt_bwd(&plan, g, &pa, &pb);
        }),
    )
}

/// Builds the NN-family op node from a finished plan.
fn bmm_nn_op(lhs: &Tensor, rhs: &Tensor, out_rows: usize, plan: BmmPlan) -> Tensor {
    assert_eq!(
        lhs.cols(),
        plan.k,
        "bmm_jagged lhs column/stride mismatch: {} vs stride {}",
        lhs.shape(),
        plan.k
    );
    assert_eq!(rhs.cols(), plan.n, "bmm_jagged rhs column mismatch");
    plan.validate(lhs, rhs, out_rows, true);
    let mut out = pool::take_zeroed(out_rows * plan.n);
    bmm_nn_fwd(&lhs.data(), &rhs.data(), &mut out, &plan);
    let (pa, pb) = (lhs.clone(), rhs.clone());
    Tensor::from_op(
        out,
        matrix_shape(out_rows, plan.n),
        vec![lhs.clone(), rhs.clone()],
        Box::new(move |o: &Tensor| {
            let og = o.inner.grad.borrow();
            let g = og.as_ref().expect("grad");
            bmm_nn_bwd(&plan, g, &pa, &pb);
        }),
    )
}

impl Tensor {
    /// Batched `A_i · B_iᵀ` over a **dense** (offset-addressed) layout:
    /// item `i`'s queries are rows `starts[i] .. starts[i]+lens[i]` of
    /// `self`, its keys rows `key_starts[i] .. key_starts[i]+key_lens[i]`
    /// of `rhs` (items may share key rows), and its scores land in the
    /// same query rows of the `[self.rows(), out_cols]` output (columns
    /// past `key_lens[i]` exact zero). This is the self/cross-attention
    /// score product of the dense batched forward, which carries **no
    /// padding rows at all**.
    pub fn bmm_nt_jagged(
        &self,
        rhs: &Tensor,
        out_cols: usize,
        starts: &[usize],
        lens: &[usize],
        key_starts: &[usize],
        key_lens: &[usize],
    ) -> Tensor {
        let batch = starts.len();
        assert!(batch >= 1, "bmm_nt_jagged needs at least one item");
        assert_eq!(lens.len(), batch, "one length per item");
        assert_eq!(key_starts.len(), batch, "one key start per item");
        assert_eq!(key_lens.len(), batch, "one key length per item");
        for &kl in key_lens {
            assert!(
                kl <= out_cols,
                "key length {kl} exceeds out_cols {out_cols}"
            );
        }
        let plan = BmmPlan {
            k: self.cols(),
            n: out_cols,
            a_start: starts.to_vec(),
            a_rows: lens.to_vec(),
            b_start: key_starts.to_vec(),
            b_rows: key_lens.to_vec(),
        };
        bmm_nt_op(self, rhs, self.rows(), plan)
    }

    /// Batched `A_i · B_i` over a dense layout (see
    /// [`Tensor::bmm_nt_jagged`]): item `i` multiplies the live
    /// `inner_lens[i]` columns of its rows against rhs rows
    /// `val_starts[i] .. val_starts[i]+inner_lens[i]` — the attention
    /// value product of the dense batched forward, and the HGAT's
    /// per-node reduction over its padded neighbour block. The dropped
    /// lhs columns must be exact zeros (post-softmax padding weights
    /// are), making the restriction bitwise-free.
    pub fn bmm_jagged(
        &self,
        rhs: &Tensor,
        starts: &[usize],
        lens: &[usize],
        inner_lens: &[usize],
        val_starts: &[usize],
    ) -> Tensor {
        let batch = starts.len();
        assert!(batch >= 1, "bmm_jagged needs at least one item");
        assert_eq!(lens.len(), batch, "one length per item");
        assert_eq!(inner_lens.len(), batch, "one inner length per item");
        assert_eq!(val_starts.len(), batch, "one value start per item");
        let plan = BmmPlan {
            k: self.cols(),
            n: rhs.cols(),
            a_start: starts.to_vec(),
            a_rows: lens.to_vec(),
            b_start: val_starts.to_vec(),
            b_rows: inner_lens.to_vec(),
        };
        bmm_nn_op(self, rhs, self.rows(), plan)
    }

    /// Gathers `groups.len()` ragged row sets from `self` into one
    /// zero-padded block tensor `[B·padded, m]`: block `b` holds the rows
    /// named by `groups[b]` followed by exact-zero padding rows. The
    /// backward scatter-adds only the live rows (in group, then index
    /// order — the per-sample gather order), so padding never touches a
    /// gradient.
    ///
    /// # Panics
    /// Panics when a group is longer than `padded` or an index is out of
    /// bounds.
    pub fn gather_rows_padded(&self, groups: &[Vec<usize>], padded: usize) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        assert!(!groups.is_empty(), "gather_rows_padded of zero groups");
        for group in groups {
            assert!(
                group.len() <= padded,
                "group of {} rows exceeds padded length {padded}",
                group.len()
            );
            for &ix in group {
                assert!(
                    ix < n,
                    "gather_rows_padded index {ix} out of bounds for {n} rows"
                );
            }
        }
        let data = self.data();
        let mut out = pool::take_uninit(groups.len() * padded * m);
        for (b, group) in groups.iter().enumerate() {
            let base = b * padded * m;
            for (r, &ix) in group.iter().enumerate() {
                out[base + r * m..base + (r + 1) * m].copy_from_slice(&data[ix * m..(ix + 1) * m]);
            }
            // Only the padding rows need zeroing; live rows were copied.
            out[base + group.len() * m..base + padded * m].fill(0.0);
        }
        drop(data);
        let out_rows = groups.len() * padded;
        let pa = self.clone();
        // The backward closure needs its own copy of the index groups —
        // but only when a gradient can actually flow (inference under
        // no_grad discards the closure, so skip the O(E) clone there).
        let groups: Vec<Vec<usize>> = if pa.requires_grad() && !Tensor::grad_suspended() {
            groups.to_vec()
        } else {
            Vec::new()
        };
        Tensor::from_op(
            out,
            matrix_shape(out_rows, m),
            vec![self.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pa.requires_grad() {
                    pa.with_grad_mut(|ga| {
                        for (b, group) in groups.iter().enumerate() {
                            let base = b * padded * m;
                            for (r, &ix) in group.iter().enumerate() {
                                for j in 0..m {
                                    ga[ix * m + j] += g[base + r * m + j];
                                }
                            }
                        }
                    });
                }
            }),
        )
    }

    /// Cosine similarity between each row of `self [B, d]` and each row of
    /// `candidates [L, d]` → `[B, L]`. Row `b` performs exactly the
    /// arithmetic of `self.row(b).cosine_to_rows(candidates)`, so the
    /// batched two-step scorer matches the per-sample one bitwise.
    pub fn cosine_many_to_rows(&self, candidates: &Tensor) -> Tensor {
        let (bq, d) = (self.rows(), self.cols());
        assert_eq!(
            candidates.cols(),
            d,
            "cosine_many_to_rows dim mismatch: {} vs {}",
            self.shape(),
            candidates.shape()
        );
        let l = candidates.rows();
        let q = self.data();
        let c = candidates.data();
        // Normalised operands, saved for the backward closed form. The
        // candidate rows are normalised once and reused by every query —
        // same values the per-sample op recomputes per call.
        let mut qhat = pool::scratch_copied(&q);
        let mut qnorms = pool::scratch_uninit(bq);
        for b in 0..bq {
            let row = &mut qhat[b * d..(b + 1) * d];
            let nq = row.iter().map(|x| x * x).sum::<f32>().sqrt() + NORM_EPS;
            qnorms[b] = nq;
            for v in row.iter_mut() {
                *v /= nq;
            }
        }
        let mut chat = pool::scratch_copied(&c);
        let mut cnorms = pool::scratch_uninit(l);
        for r in 0..l {
            let row = &mut chat[r * d..(r + 1) * d];
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt() + NORM_EPS;
            cnorms[r] = norm;
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
        let mut out = pool::take_uninit(bq * l);
        for b in 0..bq {
            let qrow = &qhat[b * d..(b + 1) * d];
            for r in 0..l {
                let crow = &chat[r * d..(r + 1) * d];
                let mut dot = 0.0;
                for (cv, qv) in crow.iter().zip(qrow) {
                    dot += cv * qv;
                }
                out[b * l + r] = dot;
            }
        }
        drop(q);
        drop(c);
        let (pq, pc) = (self.clone(), candidates.clone());
        Tensor::from_op(
            out,
            matrix_shape(bq, l),
            vec![self.clone(), candidates.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                let y = o.inner.data.borrow();
                if pq.requires_grad() {
                    pq.with_grad_mut(|gq| {
                        let mut dqhat = pool::scratch_uninit(d);
                        for b in 0..bq {
                            dqhat.fill(0.0);
                            let gr_row = &g[b * l..(b + 1) * l];
                            for (r, &gr) in gr_row.iter().enumerate() {
                                if gr == 0.0 {
                                    continue;
                                }
                                let crow = &chat[r * d..(r + 1) * d];
                                for (dst, &cv) in dqhat.iter_mut().zip(crow) {
                                    *dst += gr * cv;
                                }
                            }
                            let qrow = &qhat[b * d..(b + 1) * d];
                            let dot: f32 = dqhat.iter().zip(qrow).map(|(a, b)| a * b).sum();
                            for j in 0..d {
                                gq[b * d + j] += (dqhat[j] - qrow[j] * dot) / qnorms[b];
                            }
                        }
                    });
                }
                if pc.requires_grad() {
                    // Per query (sample-major), per candidate row:
                    // dc_r += g_br (q̂_b − ĉ_r y_br)/(‖c_r‖+ε).
                    pc.with_grad_mut(|gc| {
                        for b in 0..bq {
                            let qrow = &qhat[b * d..(b + 1) * d];
                            for r in 0..l {
                                let gr = g[b * l + r];
                                if gr == 0.0 {
                                    continue;
                                }
                                let crow = &chat[r * d..(r + 1) * d];
                                let inv = 1.0 / cnorms[r];
                                let yr = y[b * l + r];
                                for j in 0..d {
                                    gc[r * d + j] += gr * (qrow[j] - crow[j] * yr) * inv;
                                }
                            }
                        }
                    });
                }
            }),
        )
    }

    /// Grouped cosine similarity: row `b` of `self [B, d]` against its own
    /// candidate block `candidates[b·padded .. b·padded+lens[b]]`
    /// (`candidates` is `[B·padded, d]`, zero rows beyond each length) →
    /// `[B, padded]`, entries past `lens[b]` exactly `0.0`. Per sample the
    /// arithmetic is exactly `q_b.cosine_to_rows(own_candidates)`.
    pub fn cosine_grouped(&self, candidates: &Tensor, lens: &[usize]) -> Tensor {
        let (bq, d) = (self.rows(), self.cols());
        assert_eq!(lens.len(), bq, "cosine_grouped needs one length per query");
        assert_eq!(
            candidates.cols(),
            d,
            "cosine_grouped dim mismatch: {} vs {}",
            self.shape(),
            candidates.shape()
        );
        assert_eq!(
            candidates.rows() % bq,
            0,
            "cosine_grouped candidate rows not a multiple of the batch"
        );
        let padded = candidates.rows() / bq;
        for &len in lens {
            assert!(len <= padded, "group length {len} exceeds padded {padded}");
        }
        let q = self.data();
        let c = candidates.data();
        let mut qhat = pool::scratch_copied(&q);
        let mut qnorms = pool::scratch_uninit(bq);
        for b in 0..bq {
            let row = &mut qhat[b * d..(b + 1) * d];
            let nq = row.iter().map(|x| x * x).sum::<f32>().sqrt() + NORM_EPS;
            qnorms[b] = nq;
            for v in row.iter_mut() {
                *v /= nq;
            }
        }
        // Normalised candidate rows and norms, only for live rows.
        let mut chat = pool::scratch_copied(&c);
        let mut cnorms = pool::scratch_uninit(bq * padded);
        let mut out = pool::take_zeroed(bq * padded);
        for (b, &len) in lens.iter().enumerate() {
            let qrow = &qhat[b * d..(b + 1) * d];
            for r in 0..len {
                let at = (b * padded + r) * d;
                let row = &mut chat[at..at + d];
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt() + NORM_EPS;
                cnorms[b * padded + r] = norm;
                let mut dot = 0.0;
                for (v, qh) in row.iter_mut().zip(qrow) {
                    *v /= norm;
                    dot += *v * qh;
                }
                out[b * padded + r] = dot;
            }
        }
        drop(q);
        drop(c);
        let (pq, pc) = (self.clone(), candidates.clone());
        let lens: Vec<usize> = lens.to_vec();
        Tensor::from_op(
            out,
            matrix_shape(bq, padded),
            vec![self.clone(), candidates.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                let y = o.inner.data.borrow();
                if pq.requires_grad() {
                    pq.with_grad_mut(|gq| {
                        let mut dqhat = pool::scratch_uninit(d);
                        for (b, &len) in lens.iter().enumerate() {
                            dqhat.fill(0.0);
                            for r in 0..len {
                                let gr = g[b * padded + r];
                                if gr == 0.0 {
                                    continue;
                                }
                                let crow = &chat[(b * padded + r) * d..(b * padded + r + 1) * d];
                                for (dst, &cv) in dqhat.iter_mut().zip(crow) {
                                    *dst += gr * cv;
                                }
                            }
                            let qrow = &qhat[b * d..(b + 1) * d];
                            let dot: f32 = dqhat.iter().zip(qrow).map(|(a, b)| a * b).sum();
                            for j in 0..d {
                                gq[b * d + j] += (dqhat[j] - qrow[j] * dot) / qnorms[b];
                            }
                        }
                    });
                }
                if pc.requires_grad() {
                    pc.with_grad_mut(|gc| {
                        for (b, &len) in lens.iter().enumerate() {
                            let qrow = &qhat[b * d..(b + 1) * d];
                            for r in 0..len {
                                let gr = g[b * padded + r];
                                if gr == 0.0 {
                                    continue;
                                }
                                let at = (b * padded + r) * d;
                                let crow = &chat[at..at + d];
                                let inv = 1.0 / cnorms[b * padded + r];
                                let yr = y[b * padded + r];
                                for j in 0..d {
                                    gc[at + j] += gr * (qrow[j] - crow[j] * yr) * inv;
                                }
                            }
                        }
                    });
                }
            }),
        )
    }

    /// Row-wise ArcFace margin loss over `[B, padded]` cosines: row `b`
    /// scores its first `lens[b]` entries against target index
    /// `targets[b]`, exactly as `row.arcface_loss(target, s, m)` would,
    /// and the result is the `[B]` vector of per-sample losses (reduce it
    /// in sample order to match the serial loss summation).
    pub fn arcface_loss_rows(&self, targets: &[usize], lens: &[usize], s: f32, m: f32) -> Tensor {
        let (bq, padded) = (self.rows(), self.cols());
        assert_eq!(targets.len(), bq, "one target per row required");
        assert_eq!(lens.len(), bq, "one length per row required");
        assert!(s > 0.0, "arcface scale must be positive");
        let (sin_m, cos_m) = m.sin_cos();
        let mut probs = pool::scratch_zeroed(bq * padded);
        let mut cts = pool::scratch_uninit(bq);
        let mut sin_ts = pool::scratch_uninit(bq);
        let mut losses = pool::take_uninit(bq);
        {
            let cosines = self.data();
            for (b, (&target, &len)) in targets.iter().zip(lens).enumerate() {
                assert!(len >= 1 && len <= padded, "row {b}: invalid length {len}");
                assert!(
                    target < len,
                    "row {b}: arcface target {target} out of range {len}"
                );
                let row = &cosines[b * padded..b * padded + len];
                let ct = row[target].clamp(-1.0 + 1e-4, 1.0 - 1e-4);
                let sin_t = (1.0 - ct * ct).sqrt();
                cts[b] = ct;
                sin_ts[b] = sin_t;
                let prow = &mut probs[b * padded..b * padded + len];
                for (z, &cv) in prow.iter_mut().zip(row.iter()) {
                    *z = s * cv;
                }
                prow[target] = s * (ct * cos_m - sin_t * sin_m);
                let max = prow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for z in prow.iter_mut() {
                    *z = (*z - max).exp();
                    sum += *z;
                }
                let inv = 1.0 / sum.max(1e-20);
                for z in prow.iter_mut() {
                    *z *= inv;
                }
                losses[b] = -(prow[target].max(1e-20)).ln();
            }
        }
        let pa = self.clone();
        let targets: Vec<usize> = targets.to_vec();
        let lens: Vec<usize> = lens.to_vec();
        Tensor::from_op(
            losses,
            Shape::new(vec![bq]),
            vec![self.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pa.requires_grad() {
                    pa.with_grad_mut(|ga| {
                        for (b, (&target, &len)) in targets.iter().zip(&lens).enumerate() {
                            let gb = g[b];
                            let prow = &probs[b * padded..b * padded + len];
                            for (i, &p) in prow.iter().enumerate() {
                                let dl_dz = p - if i == target { 1.0 } else { 0.0 };
                                let dz_dc = if i == target {
                                    s * (cos_m + cts[b] * sin_m / sin_ts[b].max(1e-4))
                                } else {
                                    s
                                };
                                ga[b * padded + i] += gb * dl_dz * dz_dc;
                            }
                        }
                    });
                }
            }),
        )
    }
}

/// Causal mask for the **dense jagged** layout: `[Σlens, s_max]`, where
/// sample `b`'s rows are its `lens[b]` live positions and row `u` masks
/// keys `v > u` with `-1e9` (which also hides every column past the
/// sample's own length).
pub fn jagged_causal_mask(lens: &[usize], s_max: usize) -> Tensor {
    let total: usize = lens.iter().sum();
    let mut data = pool::take_zeroed(total * s_max);
    let mut row = 0usize;
    for &len in lens {
        for u in 0..len {
            for v in data[row * s_max + u + 1..(row + 1) * s_max].iter_mut() {
                *v = -1e9;
            }
            row += 1;
        }
    }
    Tensor::from_vec(data, vec![total, s_max])
}

/// Key-padding mask for the dense jagged layout: `[Σq_lens, padded]`,
/// where sample `b` contributes `q_lens[b]` query rows, each seeing keys
/// `j < key_lens[b]` as valid (`0.0`) and the rest as `-1e9`.
pub fn jagged_key_padding_mask(q_lens: &[usize], key_lens: &[usize], padded: usize) -> Tensor {
    assert_eq!(q_lens.len(), key_lens.len(), "one key length per sample");
    let total: usize = q_lens.iter().sum();
    let mut data = pool::take_zeroed(total * padded);
    let mut row = 0usize;
    for (&ql, &kl) in q_lens.iter().zip(key_lens) {
        assert!(
            kl <= padded,
            "key group {kl} exceeds padded length {padded}"
        );
        for _ in 0..ql {
            for v in data[row * padded + kl..(row + 1) * padded].iter_mut() {
                *v = -1e9;
            }
            row += 1;
        }
    }
    Tensor::from_vec(data, vec![total, padded])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 19) as f32 * 0.1 - 0.9
            })
            .collect()
    }

    /// Row starts of `batch` uniform blocks of `rows` rows each.
    fn block_starts(batch: usize, rows: usize) -> Vec<usize> {
        (0..batch).map(|i| i * rows).collect()
    }

    #[test]
    fn bmm_blocks_match_per_block_matmul_bitwise() {
        let (b, m, k, n) = (3usize, 4usize, 5usize, 6usize);
        let a = Tensor::param(filled(b * m * k, 1), vec![b * m, k]);
        let v = Tensor::param(filled(b * k * n, 2), vec![b * k, n]);
        let out = a.bmm_jagged(
            &v,
            &block_starts(b, m),
            &vec![m; b],
            &vec![k; b],
            &block_starts(b, k),
        );
        assert_eq!(out.shape().0, vec![b * m, n]);
        for bi in 0..b {
            let ab = a.slice_rows(bi * m, (bi + 1) * m);
            let vb = v.slice_rows(bi * k, (bi + 1) * k);
            let want = ab.matmul(&vb).to_vec();
            let got = out.slice_rows(bi * m, (bi + 1) * m).to_vec();
            assert!(got == want, "block {bi} diverged");
        }
    }

    #[test]
    fn bmm_nt_blocks_match_per_block_matmul_nt_bitwise() {
        let (b, m, k, n) = (2usize, 3usize, 7usize, 4usize);
        let a = Tensor::param(filled(b * m * k, 3), vec![b * m, k]);
        let v = Tensor::param(filled(b * n * k, 4), vec![b * n, k]);
        let out = a.bmm_nt_jagged(
            &v,
            n,
            &block_starts(b, m),
            &vec![m; b],
            &block_starts(b, n),
            &vec![n; b],
        );
        for bi in 0..b {
            let ab = a.slice_rows(bi * m, (bi + 1) * m);
            let vb = v.slice_rows(bi * n, (bi + 1) * n);
            let want = ab.matmul_nt(&vb).to_vec();
            let got = out.slice_rows(bi * m, (bi + 1) * m).to_vec();
            assert!(got == want, "block {bi} diverged");
        }
    }

    #[test]
    fn bmm_backward_matches_per_block_backward() {
        let (b, m, k, n) = (2usize, 2usize, 3usize, 2usize);
        let run_batched = || {
            let a = Tensor::param(filled(b * m * k, 5), vec![b * m, k]);
            let v = Tensor::param(filled(b * k * n, 6), vec![b * k, n]);
            a.bmm_jagged(
                &v,
                &block_starts(b, m),
                &vec![m; b],
                &vec![k; b],
                &block_starts(b, k),
            )
            .sum_all()
            .backward();
            (a.grad(), v.grad())
        };
        let run_blocks = || {
            let a = Tensor::param(filled(b * m * k, 5), vec![b * m, k]);
            let v = Tensor::param(filled(b * k * n, 6), vec![b * k, n]);
            let mut acc: Option<Tensor> = None;
            for bi in 0..b {
                let p = a
                    .slice_rows(bi * m, (bi + 1) * m)
                    .matmul(&v.slice_rows(bi * k, (bi + 1) * k))
                    .sum_all();
                acc = Some(match acc {
                    Some(t) => t.add(&p),
                    None => p,
                });
            }
            acc.expect("blocks").backward();
            (a.grad(), v.grad())
        };
        let (ga, gv) = run_batched();
        let (ga2, gv2) = run_blocks();
        assert_eq!(ga, ga2);
        assert_eq!(gv, gv2);
    }

    #[test]
    fn shared_rhs_bmm_variants_match_private_blocks_bitwise() {
        // Three items share two rhs blocks (0, 1, 0) by pointing their key
        // starts at the same rows; the shared products must match private
        // blocks physically replicated by a gather — values and gradients
        // alike.
        let (m, k, n) = (2usize, 4usize, 3usize);
        let idx = [0usize, 1, 0];
        let (starts, ms, ns) = (block_starts(3, m), vec![m; 3], vec![n; 3]);
        let shared_starts: Vec<usize> = idx.iter().map(|&b| b * n).collect();
        let private_starts = block_starts(3, n);
        let rows: Vec<usize> = idx.iter().flat_map(|&b| b * n..(b + 1) * n).collect();
        let run = |shared: bool| {
            let a = Tensor::param(filled(3 * m * k, 12), vec![3 * m, k]);
            let bsh = Tensor::param(filled(2 * n * k, 13), vec![2 * n, k]);
            let vsh = Tensor::param(filled(2 * k * n, 14), vec![2 * k, n]);
            // Value blocks of n rows each, so scores [3·m, n] feed them.
            let vals = vsh.reshape(vec![2 * n, k]);
            let (keys, vals, key_starts) = if shared {
                (bsh.clone(), vals, &shared_starts)
            } else {
                (
                    bsh.gather_rows(&rows),
                    vals.gather_rows(&rows),
                    &private_starts,
                )
            };
            let scores = a.bmm_nt_jagged(&keys, n, &starts, &ms, key_starts, &ns);
            let out = scores.bmm_jagged(&vals, &starts, &ms, &ns, key_starts);
            out.sum_all().backward();
            (out.to_vec(), a.grad(), bsh.grad(), vsh.grad())
        };
        let s = run(true);
        let r = run(false);
        assert!(s.0 == r.0, "shared-rhs forward diverged");
        assert!(s.1 == r.1, "shared-rhs dA diverged");
        assert!(s.2 == r.2, "shared-rhs dB diverged");
        assert!(s.3 == r.3, "shared-rhs dV diverged");
    }

    #[test]
    fn ragged_bmm_matches_full_products_bitwise_under_masked_use() {
        // The forward uses live-extent products exactly where the dead
        // region is either masked away or multiplied by exact zeros;
        // under those conditions values and gradients must match the full
        // product bit for bit.
        let (b, m, k, n) = (3usize, 4usize, 5usize, 4usize);
        let rows_live = [2usize, 4, 1];
        let keys_live = [3usize, 4, 2];
        let (a_starts, b_starts) = (block_starts(b, m), block_starts(b, n));
        // lhs with exact-zero pad rows, rhs with arbitrary pad rows (the
        // score product never reads them past keys_live).
        let zero_padded = |seed: u32, rows: usize, cols: usize, lens: &[usize]| {
            let mut data = filled(b * rows * cols, seed);
            for (i, &len) in lens.iter().enumerate() {
                for v in data[i * rows * cols + len * cols..(i + 1) * rows * cols].iter_mut() {
                    *v = 0.0;
                }
            }
            data
        };
        // Upstream gradient confined to the live corners, as the masked
        // softmax confines it in the real forward.
        let live_weight = {
            let mut w = vec![0.0f32; b * m * n];
            for i in 0..b {
                for r in 0..rows_live[i] {
                    for c in 0..keys_live[i] {
                        w[(i * m + r) * n + c] = 1.0;
                    }
                }
            }
            Tensor::from_vec(w, vec![b * m, n])
        };
        let run = |ragged: bool| {
            let (rows, keys) = if ragged {
                (rows_live.to_vec(), keys_live.to_vec())
            } else {
                (vec![m; b], vec![n; b])
            };
            let a = Tensor::param(zero_padded(21, m, k, &rows_live), vec![b * m, k]);
            let rhs = Tensor::param(filled(b * n * k, 22), vec![b * n, k]);
            let scores = a.bmm_nt_jagged(&rhs, n, &a_starts, &rows, &b_starts, &keys);
            let att = scores.mul(&live_weight); // exact-zero dead region
                                                // Value product: contract only live keys.
            let v = Tensor::param(filled(b * n * 3, 23), vec![b * n, 3]);
            let out = att.bmm_jagged(&v, &a_starts, &rows, &keys, &b_starts);
            let loss = out.sum_all();
            loss.backward();
            (
                scores.mul(&live_weight).to_vec(),
                out.to_vec(),
                a.grad(),
                rhs.grad(),
                v.grad(),
            )
        };
        let rg = run(true);
        let fu = run(false);
        assert!(rg.0 == fu.0, "ragged scores diverged on the live region");
        assert!(rg.1 == fu.1, "ragged value product diverged");
        assert!(rg.2 == fu.2, "ragged dA diverged");
        assert!(rg.3 == fu.3, "ragged dB diverged");
        assert!(rg.4 == fu.4, "ragged dV diverged");
    }

    #[test]
    fn gather_rows_padded_pads_with_exact_zeros_and_scatters_live_rows() {
        let table = Tensor::param(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![3, 2]);
        let out = table.gather_rows_padded(&[vec![2, 0], vec![1]], 3);
        assert_eq!(out.shape().0, vec![6, 2]);
        assert_eq!(
            out.to_vec(),
            vec![5.0, 6.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        );
        out.sum_all().backward();
        // Row 0 gathered once, row 1 once, row 2 once; pads contribute 0.
        assert_eq!(table.grad(), vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn cosine_many_to_rows_matches_per_row_op_bitwise() {
        let q = Tensor::param(filled(3 * 4, 7), vec![3, 4]);
        let cands = Tensor::param(filled(5 * 4, 8), vec![5, 4]);
        let many = q.cosine_many_to_rows(&cands);
        assert_eq!(many.shape().0, vec![3, 5]);
        for b in 0..3 {
            let one = q.slice_rows(b, b + 1).cosine_to_rows(&cands).to_vec();
            assert!(many.slice_rows(b, b + 1).to_vec() == one, "row {b}");
        }
    }

    #[test]
    fn cosine_grouped_matches_per_group_op_bitwise() {
        let q = Tensor::param(filled(2 * 4, 9), vec![2, 4]);
        let g0 = Tensor::from_vec(filled(3 * 4, 10), vec![3, 4]);
        let g1 = Tensor::from_vec(filled(2 * 4, 11), vec![2, 4]);
        // Zero-padded [2·3, 4] block: g0, then g1 plus one zero row.
        let padded = Tensor::from_vec(
            [g0.to_vec(), g1.to_vec(), vec![0.0; 4]].concat(),
            vec![6, 4],
        );
        let got = q.cosine_grouped(&padded, &[3, 2]).to_vec();
        let want0 = q.slice_rows(0, 1).cosine_to_rows(&g0).to_vec();
        let want1 = q.slice_rows(1, 2).cosine_to_rows(&g1).to_vec();
        assert!(got[0..3] == want0[..]);
        assert!(got[3..5] == want1[..]);
        assert_eq!(got[5], 0.0, "padding entry must be exactly zero");
    }

    #[test]
    fn arcface_rows_matches_per_row_loss_bitwise() {
        let cos = Tensor::param(vec![0.9, 0.1, -0.3, 0.0, 0.4, 0.2, 0.0, 0.0], vec![2, 4]);
        let rows = cos.arcface_loss_rows(&[0, 1], &[3, 2], 10.0, 0.2);
        assert_eq!(rows.shape().0, vec![2]);
        let c0 = Tensor::param(vec![0.9, 0.1, -0.3], vec![3]);
        let c1 = Tensor::param(vec![0.4, 0.2], vec![2]);
        let one0 = c0.arcface_loss(0, 10.0, 0.2);
        let one1 = c1.arcface_loss(1, 10.0, 0.2);
        assert_eq!(rows.at(0), one0.item());
        assert_eq!(rows.at(1), one1.item());
        // Gradients per row match the per-sample op too (pads untouched).
        rows.sum_all().backward();
        one0.backward();
        one1.backward();
        let g = cos.grad();
        assert_eq!(g[0..3], c0.grad()[..]);
        assert_eq!(g[4..6], c1.grad()[..]);
        assert_eq!(g[3], 0.0);
        assert_eq!(g[6], 0.0);
    }

    #[test]
    fn masks_have_the_documented_layout() {
        let m = jagged_causal_mask(&[2, 3], 3).to_vec();
        // Sample 0's last row hides the column past its own length.
        assert_eq!(&m[3..6], &[0.0, 0.0, -1e9]);
        // Sample 1, row 0 (overall row 2) masks keys 1 and 2.
        assert_eq!(&m[6..9], &[0.0, -1e9, -1e9]);
        let kp = jagged_key_padding_mask(&[2, 1], &[1, 3], 3).to_vec();
        assert_eq!(&kp[0..3], &[0.0, -1e9, -1e9]);
        assert_eq!(&kp[3..6], &[0.0, -1e9, -1e9]);
        assert_eq!(&kp[6..9], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn masked_padding_softmax_is_bitwise_transparent() {
        // The contract everything rests on: appending masked keys to a row
        // must not change the live probabilities by a single bit.
        let live = Tensor::from_vec(vec![0.3, -1.2, 0.7], vec![1, 3]).softmax_rows();
        let padded = Tensor::from_vec(vec![0.3, -1.2, 0.7, 123.0, -4.0], vec![1, 5])
            .softmax_rows_masked(Some(&jagged_key_padding_mask(&[1], &[3], 5)));
        let lv = live.to_vec();
        let pv = padded.to_vec();
        assert!(
            lv[..] == pv[..3],
            "live probabilities changed: {lv:?} vs {pv:?}"
        );
        assert_eq!(pv[3], 0.0);
        assert_eq!(pv[4], 0.0);
    }
}
