//! Property tests for the im2col + GEMM convolution: on arbitrary shapes,
//! strides and paddings the fast path must agree with the retained naive
//! loop-nest reference ([`Tensor::conv2d_reference`]) — forward values to
//! float-accumulation-order tolerance, gradients likewise.

use proptest::prelude::*;
use tspn_tensor::gradcheck::grad_check;
use tspn_tensor::{conv_out_dim, Tensor};

/// Deterministic pseudo-random values in roughly `[-2, 2]`.
fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
            ((x >> 33) % 33) as f32 * 0.125 - 2.0
        })
        .collect()
}

/// Relative/absolute closeness for values that went through differently
/// ordered float accumulations.
fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol * w.abs().max(1.0),
            "{what} at {i}: {g} vs {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward agreement: batched GEMM conv vs the naive reference, for
    /// every image of the batch, across kernel/stride/padding geometry.
    #[test]
    fn gemm_conv_forward_matches_naive_reference(
        n in 1usize..4,
        c in 1usize..4,
        o in 1usize..5,
        hw in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..500,
    ) {
        prop_assume!(hw + 2 * padding >= k);
        let x = values(n * c * hw * hw, seed);
        let w = Tensor::from_vec(values(o * c * k * k, seed ^ 1), vec![o, c, k, k]);
        let b = Tensor::from_vec(values(o, seed ^ 2), vec![o]);
        let batch = Tensor::from_vec(x.clone(), vec![n, c, hw, hw]);
        let fast = batch.conv2d_batch(&w, &b, stride, padding);
        let oh = conv_out_dim(hw, k, stride, padding);
        let ow = conv_out_dim(hw, k, stride, padding);
        prop_assert_eq!(fast.shape().0.clone(), vec![n, o, oh, ow]);
        let fast_v = fast.to_vec();
        for img in 0..n {
            let xi = Tensor::from_vec(
                x[img * c * hw * hw..(img + 1) * c * hw * hw].to_vec(),
                vec![c, hw, hw],
            );
            let want = xi.conv2d_reference(&w, &b, stride, padding).to_vec();
            assert_close(
                &fast_v[img * o * oh * ow..(img + 1) * o * oh * ow],
                &want,
                1e-5,
                &format!("image {img} ({n}x{c}x{hw} k{k} s{stride} p{padding})"),
            );
        }
    }

    /// Backward agreement: gradients of the GEMM path vs the naive
    /// reference tape on identical parameters.
    #[test]
    fn gemm_conv_backward_matches_naive_reference(
        c in 1usize..3,
        o in 1usize..4,
        hw in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..200,
    ) {
        prop_assume!(hw + 2 * padding >= k);
        let xv = values(c * hw * hw, seed);
        let wv = values(o * c * k * k, seed ^ 3);
        let bv = values(o, seed ^ 4);
        let run = |fast: bool| {
            let x = Tensor::param(xv.clone(), vec![c, hw, hw]);
            let w = Tensor::param(wv.clone(), vec![o, c, k, k]);
            let b = Tensor::param(bv.clone(), vec![o]);
            let y = if fast {
                x.conv2d(&w, &b, stride, padding)
            } else {
                x.conv2d_reference(&w, &b, stride, padding)
            };
            // A non-uniform upstream gradient exercises every tap.
            let weight = Tensor::from_vec(values(y.len(), seed ^ 5), y.shape().clone());
            y.mul(&weight).sum_all().backward();
            (x.grad(), w.grad(), b.grad())
        };
        let (fx, fw, fb) = run(true);
        let (nx, nw, nb) = run(false);
        assert_close(&fx, &nx, 1e-4, "dX");
        assert_close(&fw, &nw, 1e-4, "dW");
        assert_close(&fb, &nb, 1e-4, "db");
    }
}

/// Finite-difference check straight through the batched GEMM formulation.
#[test]
fn gradcheck_through_batched_conv() {
    let (n, c, o, hw, k) = (2usize, 2usize, 3usize, 5usize, 3usize);
    let x = Tensor::param(
        values(n * c * hw * hw, 31)
            .iter()
            .map(|v| v * 0.25)
            .collect(),
        vec![n, c, hw, hw],
    );
    let w = Tensor::param(
        values(o * c * k * k, 37).iter().map(|v| v * 0.25).collect(),
        vec![o, c, k, k],
    );
    let b = Tensor::param(values(o, 41).iter().map(|v| v * 0.25).collect(), vec![o]);
    let (xc, wc, bc) = (x.clone(), w.clone(), b.clone());
    let report = grad_check(
        &[x, w, b],
        move || {
            xc.conv2d_batch(&wc, &bc, 2, 1)
                .square()
                .sum_all()
                .scale(0.05)
        },
        1e-2,
    );
    assert!(
        report.max_rel_err < 5e-2 || report.max_abs_err < 5e-3,
        "batched conv gradients disagree with finite differences: {report:?}"
    );
}
