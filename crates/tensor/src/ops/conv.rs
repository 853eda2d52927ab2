//! 2-D convolution, formulated as im2col + GEMM over whole batches.
//!
//! TSPN-RA's `Me1` image encoder replaces 2×2 max-pooling with stride-2
//! convolutions to avoid retaining redundant gradients (Sec. IV-A / Fig. 6),
//! so strided convolution is the only spatial primitive the model needs —
//! and, with remote-sensing tiles embedded for every quad-tree node each
//! batch, it is the model's hottest path.
//!
//! ## Data layout
//!
//! The batched op maps `[N, C, H, W] → [N, O, OH, OW]` through one GEMM:
//!
//! * `im2col` unrolls every image's receptive fields into a shared
//!   column matrix `col [C·kh·kw, N·OH·OW]`: row `r = (ic·kh + ky)·kw + kx`,
//!   column `j = n·OH·OW + oy·OW + ox`. Out-of-bounds (padding) taps are
//!   zero.
//! * forward: `Y [O, N·OH·OW] = W[O, C·kh·kw] · col` via `gemm_ex(NN)` — the
//!   weight's native `[O, C, kh, kw]` layout is already row-major for this —
//!   with the bias pre-broadcast into `Y`, then a cheap transposition of the
//!   two leading axes yields the `[N, O, OH, OW]` output.
//! * backward: `dW = dY·colᵀ` (`gemm_ex(NT)`), `dcol = Wᵀ·dY`
//!   (`gemm_ex(TN)`), and `col2im` scatter-adds `dcol` back into `dX`.
//!   `db` is a row reduction of `dY`.
//!
//! All scratch (`col`, the `[O, N·OH·OW]` staging buffer, and its backward
//! counterparts) is checked out of the buffer pool; the `col` matrix is
//! retained by the backward closure (it is needed for `dW`) and returns to
//! the pool when the tape node drops, so steady-state training steps still
//! allocate nothing.
//!
//! The previous 7-deep loop-nest implementation is retained as
//! [`Tensor::conv2d_reference`]: the property tests assert the GEMM path
//! matches it to float-accumulation-order tolerance on arbitrary shapes.

use crate::ops::matmul::{gemm_ex, GemmLayout};
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Output spatial size for one dimension.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * padding >= kernel,
        "kernel {kernel} larger than padded input {}",
        input + 2 * padding
    );
    (input + 2 * padding - kernel) / stride + 1
}

/// Convolution geometry shared by the forward and backward passes.
#[derive(Debug, Clone, Copy)]
struct ConvDims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    padding: usize,
}

impl ConvDims {
    /// Rows of the column matrix (`C·kh·kw`).
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the column matrix (`N·OH·OW`).
    fn cols(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Spatial size of one output map (`OH·OW`).
    fn ohow(&self) -> usize {
        self.oh * self.ow
    }
}

/// Unrolls one `[C, H, W]` image into its `OH·OW` receptive-field columns
/// of the shared column matrix. `col` is the full `[ckk, cols]` matrix;
/// this image's columns start at `col_base`. Padding taps are zeroed.
fn im2col(image: &[f32], col: &mut [f32], col_base: usize, d: &ConvDims) {
    let (h, w, ohow, cols) = (d.h, d.w, d.ohow(), d.cols());
    let mut r = 0usize;
    for ic in 0..d.c {
        let plane = &image[ic * h * w..(ic + 1) * h * w];
        for ky in 0..d.kh {
            for kx in 0..d.kw {
                let row = &mut col[r * cols + col_base..r * cols + col_base + ohow];
                let mut j = 0usize;
                for oy in 0..d.oh {
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        row[j..j + d.ow].fill(0.0);
                        j += d.ow;
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..d.ow {
                        let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                        row[j] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src[ix as usize]
                        };
                        j += 1;
                    }
                }
                r += 1;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds one image's columns of `dcol` back
/// into its `[C, H, W]` gradient buffer.
fn col2im_add(dcol: &[f32], grad: &mut [f32], col_base: usize, d: &ConvDims) {
    let (h, w, ohow, cols) = (d.h, d.w, d.ohow(), d.cols());
    let mut r = 0usize;
    for ic in 0..d.c {
        let plane = &mut grad[ic * h * w..(ic + 1) * h * w];
        for ky in 0..d.kh {
            for kx in 0..d.kw {
                let row = &dcol[r * cols + col_base..r * cols + col_base + ohow];
                let mut j = 0usize;
                for oy in 0..d.oh {
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        j += d.ow;
                        continue;
                    }
                    let dst = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..d.ow {
                        let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                        if ix >= 0 && ix < w as isize {
                            dst[ix as usize] += row[j];
                        }
                        j += 1;
                    }
                }
                r += 1;
            }
        }
    }
}

/// Validates shapes and derives the conv geometry. `input` must be
/// `[C, H, W]` (rank 3, `n == 1`) or `[N, C, H, W]` (rank 4).
fn conv_dims(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    padding: usize,
) -> ConvDims {
    let in_shape = input.shape();
    let (n, c, h, w) = match in_shape.rank() {
        3 => (1, in_shape.dim(0), in_shape.dim(1), in_shape.dim(2)),
        4 => (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        ),
        _ => panic!("conv input must be [C, H, W] or [N, C, H, W], got {in_shape}"),
    };
    assert!(n > 0, "conv batch must be non-empty");
    let w_shape = weight.shape();
    assert_eq!(
        w_shape.rank(),
        4,
        "conv weight must be [O, C, kh, kw], got {w_shape}"
    );
    let (o, wc, kh, kw) = (
        w_shape.dim(0),
        w_shape.dim(1),
        w_shape.dim(2),
        w_shape.dim(3),
    );
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    assert_eq!(
        bias.len(),
        o,
        "conv2d bias must have one entry per out channel"
    );
    ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
        oh: conv_out_dim(h, kh, stride, padding),
        ow: conv_out_dim(w, kw, stride, padding),
        stride,
        padding,
    }
}

/// The shared im2col + GEMM implementation behind [`Tensor::conv2d`] and
/// [`Tensor::conv2d_batch`]; `out_shape` controls the rank-3/rank-4 view.
fn conv2d_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    d: ConvDims,
    out_shape: Shape,
) -> Tensor {
    let (o, ckk, cols, ohow) = (d.o, d.ckk(), d.cols(), d.ohow());

    // Unroll the whole batch into the shared column matrix.
    let mut col = pool::scratch_uninit(ckk * cols);
    {
        let x = input.data();
        for img in 0..d.n {
            im2col(&x[img * d.c * d.h * d.w..], &mut col, img * ohow, &d);
        }
    }

    // One GEMM for the whole batch: Y[O, N·OH·OW] = W·col (+ bias).
    let mut y = pool::scratch_uninit(o * cols);
    {
        let bv = bias.data();
        for (oc, &b) in bv.iter().enumerate() {
            y[oc * cols..(oc + 1) * cols].fill(b);
        }
    }
    gemm_ex(GemmLayout::NN, &weight.data(), &col, &mut y, o, ckk, cols);

    // Transpose the leading axes: [O, N, OH·OW] → [N, O, OH·OW].
    let mut out = pool::take_uninit(o * cols);
    for img in 0..d.n {
        for oc in 0..o {
            out[(img * o + oc) * ohow..(img * o + oc + 1) * ohow]
                .copy_from_slice(&y[oc * cols + img * ohow..oc * cols + (img + 1) * ohow]);
        }
    }
    drop(y);

    let (pi, pw, pb) = (input.clone(), weight.clone(), bias.clone());
    Tensor::from_op(
        out,
        out_shape,
        vec![input.clone(), weight.clone(), bias.clone()],
        Box::new(move |out_t: &Tensor| {
            let og = out_t.inner.grad.borrow();
            let g = og.as_ref().expect("grad");
            // Reassemble dY in GEMM layout: [N, O, OH·OW] → [O, N·OH·OW].
            let mut g_cn = pool::scratch_uninit(o * cols);
            for img in 0..d.n {
                for oc in 0..o {
                    g_cn[oc * cols + img * ohow..oc * cols + (img + 1) * ohow]
                        .copy_from_slice(&g[(img * o + oc) * ohow..(img * o + oc + 1) * ohow]);
                }
            }
            if pb.requires_grad() {
                pb.with_grad_mut(|gb| {
                    for oc in 0..o {
                        let mut acc = 0.0;
                        for &v in &g_cn[oc * cols..(oc + 1) * cols] {
                            acc += v;
                        }
                        gb[oc] += acc;
                    }
                });
            }
            if pw.requires_grad() {
                // dW[O, ckk] = dY[O, cols] · col[ckk, cols]ᵀ.
                pw.with_grad_mut(|gw| {
                    gemm_ex(GemmLayout::NT, &g_cn, &col, gw, o, cols, ckk);
                });
            }
            if pi.requires_grad() {
                // dcol[ckk, cols] = W[O, ckk]ᵀ · dY[O, cols], then scatter.
                let mut dcol = pool::scratch_zeroed(ckk * cols);
                gemm_ex(GemmLayout::TN, &pw.data(), &g_cn, &mut dcol, ckk, o, cols);
                pi.with_grad_mut(|gi| {
                    for img in 0..d.n {
                        col2im_add(
                            &dcol,
                            &mut gi[img * d.c * d.h * d.w..(img + 1) * d.c * d.h * d.w],
                            img * ohow,
                            &d,
                        );
                    }
                });
            }
        }),
    )
}

impl Tensor {
    /// Convolves `self [C, H, W]` with `weight [O, C, kh, kw]` plus
    /// `bias [O]`, producing `[O, OH, OW]`.
    ///
    /// Routed through the batched im2col + GEMM path with `N = 1`; see
    /// [`Tensor::conv2d_batch`].
    pub fn conv2d(&self, weight: &Tensor, bias: &Tensor, stride: usize, padding: usize) -> Tensor {
        let in_shape = self.shape();
        assert_eq!(
            in_shape.rank(),
            3,
            "conv2d input must be [C, H, W], got {in_shape}"
        );
        let d = conv_dims(self, weight, bias, stride, padding);
        let out_shape = Shape::new(vec![d.o, d.oh, d.ow]);
        conv2d_impl(self, weight, bias, d, out_shape)
    }

    /// Convolves a whole batch `self [N, C, H, W]` with
    /// `weight [O, C, kh, kw]` plus `bias [O]`, producing `[N, O, OH, OW]`
    /// through a **single** im2col + GEMM — the batched entry point the
    /// tile embedder uses to encode every remote-sensing tile at once.
    pub fn conv2d_batch(
        &self,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        padding: usize,
    ) -> Tensor {
        let in_shape = self.shape();
        assert_eq!(
            in_shape.rank(),
            4,
            "conv2d_batch input must be [N, C, H, W], got {in_shape}"
        );
        let d = conv_dims(self, weight, bias, stride, padding);
        let out_shape = Shape::new(vec![d.n, d.o, d.oh, d.ow]);
        conv2d_impl(self, weight, bias, d, out_shape)
    }

    /// The original direct (7-deep loop nest) convolution over one
    /// `[C, H, W]` image, kept as the bit-for-bit readable reference the
    /// property tests compare the GEMM formulation against. Not a hot
    /// path — use [`Tensor::conv2d`] / [`Tensor::conv2d_batch`].
    pub fn conv2d_reference(
        &self,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        padding: usize,
    ) -> Tensor {
        let in_shape = self.shape();
        assert_eq!(
            in_shape.rank(),
            3,
            "conv2d input must be [C, H, W], got {in_shape}"
        );
        let (c, h, w) = (in_shape.dim(0), in_shape.dim(1), in_shape.dim(2));
        let d = conv_dims(self, weight, bias, stride, padding);
        let (o, kh, kw, oh, ow) = (d.o, d.kh, d.kw, d.oh, d.ow);

        let input = self.data();
        let wv = weight.data();
        let bv = bias.data();
        let mut out = pool::take_uninit(o * oh * ow);
        for oc in 0..o {
            let b = bv[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ic in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input[ic * h * w + iy as usize * w + ix as usize]
                                    * wv[((oc * c + ic) * kh + ky) * kw + kx];
                            }
                        }
                    }
                    out[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        drop(input);
        drop(wv);
        drop(bv);

        let (pi, pw, pb) = (self.clone(), weight.clone(), bias.clone());
        Tensor::from_op(
            out,
            Shape::new(vec![o, oh, ow]),
            vec![self.clone(), weight.clone(), bias.clone()],
            Box::new(move |out_t: &Tensor| {
                let og = out_t.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                let input = pi.data();
                let wv = pw.data();
                if pb.requires_grad() {
                    pb.with_grad_mut(|gb| {
                        for oc in 0..o {
                            let mut acc = 0.0;
                            for k in 0..oh * ow {
                                acc += g[oc * oh * ow + k];
                            }
                            gb[oc] += acc;
                        }
                    });
                }
                if pw.requires_grad() {
                    pw.with_grad_mut(|gw| {
                        for oc in 0..o {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let go = g[oc * oh * ow + oy * ow + ox];
                                    if go == 0.0 {
                                        continue;
                                    }
                                    for ic in 0..c {
                                        for ky in 0..kh {
                                            let iy = (oy * stride + ky) as isize - padding as isize;
                                            if iy < 0 || iy >= h as isize {
                                                continue;
                                            }
                                            for kx in 0..kw {
                                                let ix =
                                                    (ox * stride + kx) as isize - padding as isize;
                                                if ix < 0 || ix >= w as isize {
                                                    continue;
                                                }
                                                gw[((oc * c + ic) * kh + ky) * kw + kx] += go
                                                    * input[ic * h * w
                                                        + iy as usize * w
                                                        + ix as usize];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
                if pi.requires_grad() {
                    pi.with_grad_mut(|gi| {
                        for oc in 0..o {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let go = g[oc * oh * ow + oy * ow + ox];
                                    if go == 0.0 {
                                        continue;
                                    }
                                    for ic in 0..c {
                                        for ky in 0..kh {
                                            let iy = (oy * stride + ky) as isize - padding as isize;
                                            if iy < 0 || iy >= h as isize {
                                                continue;
                                            }
                                            for kx in 0..kw {
                                                let ix =
                                                    (ox * stride + kx) as isize - padding as isize;
                                                if ix < 0 || ix >= w as isize {
                                                    continue;
                                                }
                                                gi[ic * h * w + iy as usize * w + ix as usize] +=
                                                    go * wv[((oc * c + ic) * kh + ky) * kw + kx];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(64, 3, 2, 1), 32);
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
        assert_eq!(conv_out_dim(5, 3, 2, 0), 2);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1×1 kernel with weight 1 and bias 0 is the identity map.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), vec![1, 3, 3]);
        let w = Tensor::from_vec(vec![1.0], vec![1, 1, 1, 1]);
        let b = Tensor::from_vec(vec![0.0], vec![1]);
        let y = x.conv2d(&w, &b, 1, 0);
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn stride_two_halves_resolution() {
        let x = Tensor::ones(vec![1, 4, 4]);
        let w = Tensor::ones(vec![1, 1, 2, 2]);
        let b = Tensor::zeros(vec![1]);
        let y = x.conv2d(&w, &b, 2, 0);
        assert_eq!(y.shape().0, vec![1, 2, 2]);
        assert_eq!(y.to_vec(), vec![4.0; 4]); // each window sums 4 ones
    }

    #[test]
    fn padding_extends_borders_with_zeros() {
        let x = Tensor::ones(vec![1, 2, 2]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let b = Tensor::zeros(vec![1]);
        let y = x.conv2d(&w, &b, 1, 1);
        assert_eq!(y.shape().0, vec![1, 2, 2]);
        // Every 3×3 window over the padded 4×4 catches exactly the 4 ones.
        assert_eq!(y.to_vec(), vec![4.0; 4]);
    }

    #[test]
    fn bias_offsets_every_output() {
        let x = Tensor::zeros(vec![1, 2, 2]);
        let w = Tensor::zeros(vec![2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], vec![2]);
        let y = x.conv2d(&w, &b, 1, 0);
        let v = y.to_vec();
        assert_eq!(&v[0..4], &[1.5; 4]);
        assert_eq!(&v[4..8], &[-2.0; 4]);
    }

    #[test]
    fn multi_channel_accumulates() {
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], vec![2, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0], vec![1, 2, 1, 1]);
        let b = Tensor::zeros(vec![1]);
        let y = x.conv2d(&w, &b, 1, 0);
        assert_eq!(y.to_vec(), vec![3.0; 4]);
    }

    #[test]
    fn conv_backward_bias_counts_outputs() {
        let x = Tensor::from_vec(vec![1.0; 9], vec![1, 3, 3]);
        let w = Tensor::param(vec![0.5], vec![1, 1, 1, 1]);
        let b = Tensor::param(vec![0.0], vec![1]);
        let loss = x.conv2d(&w, &b, 1, 0).sum_all();
        loss.backward();
        assert_eq!(b.grad(), vec![9.0]);
        assert_eq!(w.grad(), vec![9.0]); // sum of all inputs
    }

    #[test]
    fn conv_backward_input_grad() {
        let x = Tensor::param(vec![0.0; 4], vec![1, 2, 2]);
        let w = Tensor::from_vec(vec![2.0], vec![1, 1, 1, 1]);
        let b = Tensor::zeros(vec![1]);
        let loss = x.conv2d(&w, &b, 1, 0).sum_all();
        loss.backward();
        assert_eq!(x.grad(), vec![2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_validates_channels() {
        let x = Tensor::zeros(vec![2, 4, 4]);
        let w = Tensor::zeros(vec![1, 3, 2, 2]);
        let b = Tensor::zeros(vec![1]);
        x.conv2d(&w, &b, 1, 0);
    }

    #[test]
    fn batch_matches_per_image_convolution() {
        // Two distinct images through the batched path must equal two
        // independent single-image convolutions.
        let imgs: Vec<f32> = (0..2 * 2 * 3 * 3)
            .map(|v| (v as f32 * 0.37).sin())
            .collect();
        let batch = Tensor::from_vec(imgs.clone(), vec![2, 2, 3, 3]);
        let w = Tensor::from_vec(
            (0..2 * 2 * 2 * 2).map(|v| v as f32 * 0.1 - 0.5).collect(),
            vec![2, 2, 2, 2],
        );
        let b = Tensor::from_vec(vec![0.25, -0.5], vec![2]);
        let y = batch.conv2d_batch(&w, &b, 1, 1);
        assert_eq!(y.shape().0, vec![2, 2, 4, 4]);
        let yv = y.to_vec();
        for img in 0..2 {
            let x = Tensor::from_vec(imgs[img * 18..(img + 1) * 18].to_vec(), vec![2, 3, 3]);
            let single = x.conv2d(&w, &b, 1, 1).to_vec();
            assert_eq!(&yv[img * 32..(img + 1) * 32], &single[..], "image {img}");
        }
    }

    #[test]
    fn batch_backward_matches_summed_single_backwards() {
        let imgs: Vec<f32> = (0..2 * 3 * 3).map(|v| v as f32 * 0.5 - 4.0).collect();
        let run_batched = || {
            let x = Tensor::param(imgs.clone(), vec![2, 1, 3, 3]);
            let w = Tensor::param(vec![0.5, -0.25, 0.75, 1.0], vec![1, 1, 2, 2]);
            let b = Tensor::param(vec![0.125], vec![1]);
            let loss = x.conv2d_batch(&w, &b, 2, 1).sum_all();
            loss.backward();
            (x.grad(), w.grad(), b.grad())
        };
        let run_single = || {
            let w = Tensor::param(vec![0.5, -0.25, 0.75, 1.0], vec![1, 1, 2, 2]);
            let b = Tensor::param(vec![0.125], vec![1]);
            let mut xg = Vec::new();
            for img in 0..2 {
                let x = Tensor::param(imgs[img * 9..(img + 1) * 9].to_vec(), vec![1, 3, 3]);
                let loss = x.conv2d(&w, &b, 2, 1).sum_all();
                loss.backward();
                xg.extend(x.grad());
            }
            (xg, w.grad(), b.grad())
        };
        let (bx, bw, bb) = run_batched();
        let (sx, sw, sb) = run_single();
        for (a, b) in bx.iter().zip(&sx) {
            assert!((a - b).abs() < 1e-5, "dX: {a} vs {b}");
        }
        for (a, b) in bw.iter().zip(&sw) {
            assert!((a - b).abs() < 1e-5, "dW: {a} vs {b}");
        }
        assert!((bb[0] - sb[0]).abs() < 1e-5, "db: {} vs {}", bb[0], sb[0]);
    }

    #[test]
    fn gemm_path_matches_reference_implementation() {
        let x = Tensor::from_vec(
            (0..3 * 5 * 5)
                .map(|v| ((v * 7) % 11) as f32 * 0.3 - 1.5)
                .collect(),
            vec![3, 5, 5],
        );
        let w = Tensor::from_vec(
            (0..4 * 3 * 3 * 3)
                .map(|v| ((v * 5) % 13) as f32 * 0.2 - 1.2)
                .collect(),
            vec![4, 3, 3, 3],
        );
        let b = Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4], vec![4]);
        for &(stride, padding) in &[(1, 0), (1, 1), (2, 1), (3, 2)] {
            let fast = x.conv2d(&w, &b, stride, padding).to_vec();
            let slow = x.conv2d_reference(&w, &b, stride, padding).to_vec();
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert!(
                    (f - s).abs() <= 1e-5 * s.abs().max(1.0),
                    "stride {stride} pad {padding}: {f} vs {s}"
                );
            }
        }
    }
}
