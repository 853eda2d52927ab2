//! Property tests for the GEMM kernels: every layout must agree with a
//! naive triple-loop reference on arbitrary shapes, including degenerate
//! (zero-sized) dimensions and panels that straddle the
//! microkernel/cache-block boundaries; and every row of a product must be
//! bitwise the same row computed alone, whichever kernel either lands on.

use proptest::prelude::*;
use tspn_tensor::gradcheck::grad_check;
use tspn_tensor::{gemm_ex, GemmLayout, Tensor};

/// Naive reference: `C = op(A)·op(B)` elementwise.
fn reference(layout: GemmLayout, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let a_at = |i: usize, p: usize| match layout {
        GemmLayout::NN | GemmLayout::NT => a[i * k + p],
        GemmLayout::TN => a[p * n + i],
    };
    let b_at = |p: usize, j: usize| match layout {
        GemmLayout::NN | GemmLayout::TN => b[p * m + j],
        GemmLayout::NT => b[j * k + p],
    };
    let mut c = vec![0.0; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_at(i, p) * b_at(p, j);
            }
            c[i * m + j] = acc;
        }
    }
    c
}

fn check_layout(layout: GemmLayout, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) {
    let mut c = vec![0.0f32; n * m];
    gemm_ex(layout, a, b, &mut c, n, k, m);
    let want = reference(layout, a, b, n, k, m);
    for (i, (got, want)) in c.iter().zip(&want).enumerate() {
        let tol = 1e-4 * want.abs().max(1.0);
        assert!(
            (got - want).abs() <= tol,
            "{layout:?} {n}x{k}x{m} at {i}: {got} vs {want}"
        );
    }
}

fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) % 41) as f32 * 0.25 - 5.0
        })
        .collect()
}

/// Values with full 24-bit mantissas, so products round and a changed
/// summation order shows in the bits.
fn rough_values(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed.wrapping_mul(1442695040888963407));
            ((x >> 40) as f32 / 16_777_216.0 - 0.5) * 3.7
        })
        .collect()
}

/// Row `i` of `op(A)` as the operand of a 1-row product in `layout`.
fn a_row(layout: GemmLayout, a: &[f32], i: usize, n: usize, k: usize) -> Vec<f32> {
    match layout {
        GemmLayout::NN | GemmLayout::NT => a[i * k..(i + 1) * k].to_vec(),
        GemmLayout::TN => (0..k).map(|p| a[p * n + i]).collect(),
    }
}

/// The row-independence contract: every row of the `n`-row product
/// `op(A)·op(B)` is bitwise equal to that row computed as a 1-row product,
/// on any kernel tier. Batched-vs-per-sample forwards and length-sorted
/// prediction chunks rest on it.
fn check_rows_independent(layout: GemmLayout, n: usize, k: usize, m: usize, seed: u64) {
    let a = rough_values(n * k, seed);
    let b = rough_values(k * m, seed ^ 0x5EED);
    let mut c = vec![0.5f32; n * m];
    gemm_ex(layout, &a, &b, &mut c, n, k, m);
    for i in 0..n {
        let mut row = vec![0.5f32; m];
        gemm_ex(layout, &a_row(layout, &a, i, n, k), &b, &mut row, 1, k, m);
        for (j, (got, want)) in c[i * m..(i + 1) * m].iter().zip(&row).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{layout:?} {n}x{k}x{m}: element ({i}, {j}) is {got} in the product, {want} alone"
            );
        }
    }
}

/// Shapes on both sides of the dispatch bounds (`SMALL_ELEMS` = 32Ki,
/// `SMALL_KM` = 1Ki, `QUAD_KM` = 4Ki, `KC` = 256), where the full product
/// and its 1-row products land on different kernels.
#[test]
fn product_rows_equal_their_one_row_products_across_dispatch_bounds() {
    let shapes = [
        // n·k·m across SMALL_ELEMS, k·m just past SMALL_KM, m not quad.
        (40, 40, 30),
        (26, 41, 31),
        // k·m at SMALL_KM (small) and just past it.
        (40, 32, 32),
        (40, 41, 25),
        (40, 33, 32),
        // k·m at QUAD_KM with quad-eligible m, and just past it.
        (37, 256, 16),
        (37, 128, 32),
        (37, 129, 32),
        (21, 512, 8),
        // k past KC: several KC chunks per element on every path.
        (8, 513, 16),
        (140, 300, 1),
        (9, 700, 3),
        (66, 257, 17),
        // Small products with quad leftovers (n % 4 != 0).
        (7, 20, 16),
        (5, 300, 1),
    ];
    for (n, k, m) in shapes {
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            check_rows_independent(layout, n, k, m, (n * k * m) as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn product_rows_equal_their_one_row_products(
        n in 1usize..48,
        k_band in 0usize..3,
        k_off in 0usize..64,
        m_pick in 0usize..8,
        m_any in 1usize..40,
        seed in 0u64..1000,
    ) {
        // k within one KC chunk, around KC, or past two chunks; m either
        // quad-eligible (1 or a multiple of 8) or arbitrary.
        let k = [1, 220, 500][k_band] + k_off;
        let m = [1, 8, 16, 32].get(m_pick).copied().unwrap_or(m_any);
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            check_rows_independent(layout, n, k, m, seed);
        }
    }

    #[test]
    fn all_layouts_match_reference(
        n in 0usize..48,
        k in 0usize..48,
        m in 0usize..48,
        seed in 0u64..1000,
    ) {
        let a = values(n * k, seed);
        let b = values(k * m, seed ^ 0xABCD);
        check_layout(GemmLayout::NN, &a, &b, n, k, m);
        check_layout(GemmLayout::TN, &a, &b, n, k, m);
        check_layout(GemmLayout::NT, &a, &b, n, k, m);
    }

    #[test]
    fn blocked_path_matches_reference_on_nonsquare_panels(
        n in 1usize..12,
        seed in 0u64..100,
    ) {
        // Force n·k·m over the small-kernel threshold with long, skinny
        // panels so packing handles ragged strip tails.
        let (k, m) = (130, 33);
        let a = values(n.max(8) * k, seed);
        let b = values(k * m, seed ^ 0x1234);
        check_layout(GemmLayout::NN, &a, &b, n.max(8), k, m);
        check_layout(GemmLayout::NT, &a, &values(m * k, seed ^ 9), n.max(8), k, m);
    }

    #[test]
    fn misaligned_views_match_reference(
        off_a in 0usize..9,
        off_b in 0usize..9,
        n in 1usize..6,
        k in 1usize..40,
        m in 1usize..40,
        seed in 0u64..500,
    ) {
        // Operand slices starting at arbitrary element offsets inside a
        // larger buffer: the vector kernels must handle every 4-byte
        // alignment (unaligned loads), not just 32-byte-aligned panels.
        let abuf = values(off_a + n * k, seed);
        let bbuf = values(off_b + k * m, seed ^ 0x77);
        check_layout(GemmLayout::NN, &abuf[off_a..], &bbuf[off_b..], n, k, m);
        let btbuf = values(off_b + m * k, seed ^ 0x99);
        check_layout(GemmLayout::NT, &abuf[off_a..], &btbuf[off_b..], n, k, m);
    }

    #[test]
    fn lane_remainder_shapes_bitwise_equal_serial_fma_chain(
        n in 1usize..5,
        k in 1usize..200,
        mb in 0usize..5,
        mr in 0usize..16,
        seed in 0u64..500,
    ) {
        // The cross-tier bitwise contract: with k inside one cache chunk
        // (k ≤ KC = 256), every output element is the serial FMA chain
        // over p — on the scalar tier AND on the AVX2 tier, at every
        // lane-remainder width m (16·mb + mr sweeps full 16-lane panels
        // plus every tail width).
        let m = (16 * mb + mr).max(1);
        let a = values(n * k, seed);
        let b = values(k * m, seed ^ 0x3F);
        let mut c = vec![0.0f32; n * m];
        gemm_ex(GemmLayout::NN, &a, &b, &mut c, n, k, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * m + j], acc);
                }
                prop_assert_eq!(
                    c[i * m + j].to_bits(),
                    acc.to_bits(),
                    "element ({}, {}) of {}x{}x{} is not the serial FMA chain",
                    i, j, n, k, m
                );
            }
        }
    }

    #[test]
    fn gemm_accumulates_rather_than_overwrites(
        n in 1usize..8,
        k in 1usize..8,
        m in 1usize..8,
    ) {
        let a = values(n * k, 7);
        let b = values(k * m, 11);
        let mut c = vec![2.5f32; n * m];
        gemm_ex(GemmLayout::NN, &a, &b, &mut c, n, k, m);
        let want = reference(GemmLayout::NN, &a, &b, n, k, m);
        for (got, want) in c.iter().zip(&want) {
            prop_assert!((got - (want + 2.5)).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }
}

#[test]
fn gradcheck_through_matmul_above_the_blocked_threshold() {
    // 12·64·48 = 36864 elements: past SMALL_ELEMS, so both the forward
    // product and the NT/TN backward products exercise the packed kernels.
    let (n, k, m) = (12usize, 64usize, 48usize);
    let a = Tensor::param(
        values(n * k, 3).iter().map(|v| v * 0.05).collect(),
        vec![n, k],
    );
    let b = Tensor::param(
        values(k * m, 5).iter().map(|v| v * 0.05).collect(),
        vec![k, m],
    );
    let (ac, bc) = (a.clone(), b.clone());
    let report = grad_check(&[a, b], move || ac.matmul(&bc).sum_all().scale(1e-2), 1e-2);
    assert!(
        report.max_rel_err < 5e-2 || report.max_abs_err < 5e-3,
        "blocked-kernel gradients disagree with finite differences: {report:?}"
    );
}
