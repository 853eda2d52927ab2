//! Matrix multiplication and transpose.
//!
//! All three GEMM variants the autodiff needs — `A·B` (forward),
//! `Aᵀ·B` and `A·Bᵀ` (the two backward products) — route through one
//! dispatcher, [`gemm_ex`], over a shared cache-blocked kernel:
//!
//! * operand panels are packed into contiguous micro-panels
//!   (`MR`-row strips of A, `NR`-column strips of B), so the transpose
//!   variants never materialise a transposed matrix and the inner loop
//!   always streams unit-stride memory;
//! * a register-tiled `MR×NR` microkernel accumulates in local arrays
//!   with fixed bounds, which the compiler unrolls and vectorises;
//! * small products (the `[1, dm]`-style vectors that dominate model
//!   forward passes) skip packing entirely and use straight ikj loops.
//!
//! Every kernel runs on the calling thread. Each output row's
//! accumulation order depends only on that row and the operands, never
//! on the row count or on which kernel the product lands on, so a row of
//! an `n`-row product is **bitwise identical** to the same row computed
//! as a 1-row product. Batched-vs-per-sample forwards and the trainer's
//! length-sorted prediction chunks rely on this (`tests/prop_gemm.rs`).

use crate::ops::elementwise::matrix_shape;
use crate::pool;
use crate::simd;
use crate::tensor::Tensor;

/// Operand layout for [`gemm_ex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmLayout {
    /// `C += A[n×k] · B[k×m]`.
    NN,
    /// `C += A[k×n]ᵀ · B[k×m]` (A stored k-major, read transposed).
    TN,
    /// `C += A[n×k] · B[m×k]ᵀ` (B stored m-major, read transposed).
    NT,
}

/// Microkernel tile height (rows of A per strip).
const MR: usize = 4;
/// Microkernel tile width (columns of B per strip).
const NR: usize = 16;
/// k-dimension cache block.
const KC: usize = 256;
/// Row-dimension cache block.
const MC: usize = 64;
/// Products with `n·k·m` at or below this run the naive loops (packing
/// overhead loses at these sizes).
const SMALL_ELEMS: usize = 32 * 1024;
/// Skinny products (per-row work `k·m` at or below this) also run the
/// naive loops regardless of row count: with so little depth per row the
/// packed path's panel staging costs more than it saves, and B stays L1
/// resident anyway. The batched `[B·S, dm]` forward at small `dm` lives
/// in this regime. Safe to toggle freely: the small kernels accumulate
/// per KC-chunk exactly like the microkernel, so both paths produce
/// bitwise-identical rows.
const SMALL_KM: usize = 1024;
/// Quad-eligible products (`m == 1` or `m` a multiple of 8, AVX2 tier
/// only) stay on the small path up to this `k·m` bound: the four-row
/// interleaved kernels beat the packing path well past `SMALL_KM`. The
/// backward `Xᵀ·dY` products of the `dm = 16` dense layers (`k` = batch
/// rows, `m = dm`) land in this band.
const QUAD_KM: usize = 4 * 1024;
/// j-strip width of the small kernels' stack-local accumulators.
const SMALL_JB: usize = 64;

/// Row-major GEMM: `c[n×m] += a[n×k] · b[k×m]`.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize, k: usize, m: usize) {
    gemm_ex(GemmLayout::NN, a, b, c, n, k, m);
}

/// The GEMM dispatcher: `c[n×m] += op(A) · op(B)` per `layout`.
///
/// Zero-sized dimensions are valid and leave `c` untouched.
///
/// # Panics
/// Panics (in debug builds) when slice lengths disagree with the shape.
pub fn gemm_ex(
    layout: GemmLayout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    debug_assert_eq!(a.len(), n * k, "A buffer length");
    debug_assert_eq!(b.len(), k * m, "B buffer length (layout {layout:?})");
    debug_assert_eq!(c.len(), n * m, "C buffer length");
    if n == 0 || m == 0 || k == 0 {
        return;
    }
    let small = n * k * m <= SMALL_ELEMS
        || (k <= KC
            && (k * m <= SMALL_KM
                || (k * m <= QUAD_KM && simd::enabled() && (m == 1 || m.is_multiple_of(8)))));
    if small {
        match layout {
            GemmLayout::NN => small_nn(a, b, c, n, k, m),
            GemmLayout::TN => small_tn(a, b, c, n, k, m),
            GemmLayout::NT => small_nt(a, b, c, n, k, m),
        }
    } else {
        gemm_blocked(layout, a, b, c, n, k, m);
    }
}

/// A element `(i, p)` under `layout` (`n`/`k` are logical dims of op(A)).
#[inline(always)]
fn a_at(layout: GemmLayout, a: &[f32], i: usize, p: usize, n: usize, k: usize) -> f32 {
    match layout {
        GemmLayout::NN | GemmLayout::NT => a[i * k + p],
        GemmLayout::TN => a[p * n + i],
    }
}

/// B element `(p, j)` under `layout` (`k`/`m` are logical dims of op(B)).
#[inline(always)]
fn b_at(layout: GemmLayout, b: &[f32], p: usize, j: usize, k: usize, m: usize) -> f32 {
    match layout {
        GemmLayout::NN | GemmLayout::TN => b[p * m + j],
        GemmLayout::NT => b[j * k + p],
    }
}

/// Packs `B[pc..pc+kc, :]` into `NR`-column strips, zero-padding the tail.
fn pack_b_block(
    layout: GemmLayout,
    b: &[f32],
    bpack: &mut [f32],
    pc: usize,
    kc: usize,
    k: usize,
    m: usize,
) {
    let m_strips = m.div_ceil(NR);
    for s in 0..m_strips {
        let j0 = s * NR;
        let cols = NR.min(m - j0);
        let strip = &mut bpack[s * kc * NR..(s + 1) * kc * NR];
        for p in 0..kc {
            for jj in 0..cols {
                strip[p * NR + jj] = b_at(layout, b, pc + p, j0 + jj, k, m);
            }
            for jj in cols..NR {
                strip[p * NR + jj] = 0.0;
            }
        }
    }
}

/// Cache-blocked GEMM: per `KC` k-block, B is packed once into `NR`-column
/// strips, then each `MC`-row block of A is packed into `MR`-row strips
/// and run through the microkernel.
fn gemm_blocked(
    layout: GemmLayout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    let m_strips = m.div_ceil(NR);
    let mut bpack = pool::scratch_uninit(KC.min(k) * m_strips * NR);
    let mut apack = pool::scratch_uninit(KC.min(k) * MC.next_multiple_of(MR));
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        pack_b_block(layout, b, &mut bpack, pc, kc, k, m);
        let mut ic = 0;
        while ic < n {
            let mc = MC.min(n - ic);
            let r_strips = mc.div_ceil(MR);
            // Pack A[ic .., pc..pc+kc] into MR-row strips.
            for s in 0..r_strips {
                let i0 = ic + s * MR;
                let live = MR.min(mc - s * MR);
                let strip = &mut apack[s * kc * MR..(s + 1) * kc * MR];
                for p in 0..kc {
                    for rr in 0..live {
                        strip[p * MR + rr] = a_at(layout, a, i0 + rr, pc + p, n, k);
                    }
                    for rr in live..MR {
                        strip[p * MR + rr] = 0.0;
                    }
                }
            }
            for s in 0..r_strips {
                let i0 = ic + s * MR;
                let live_rows = MR.min(mc - s * MR);
                let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
                for js in 0..m_strips {
                    let j0 = js * NR;
                    let cols = NR.min(m - j0);
                    let bstrip = &bpack[js * kc * NR..(js + 1) * kc * NR];
                    microkernel(astrip, bstrip, kc, c, i0, j0, m, live_rows, cols);
                }
            }
            ic += mc;
        }
        pc += kc;
    }
}

/// `MR×NR` register-tiled core: accumulates one packed A strip against one
/// packed B strip and adds the tile into `c` at `(i0, j0)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel(
    apack: &[f32],
    bpack: &[f32],
    kc: usize,
    c: &mut [f32],
    i0: usize,
    j0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    if simd::enabled() {
        // SAFETY: `simd::enabled()` guarantees AVX2+FMA; the packed strips
        // are exactly kc·MR and kc·NR floats by construction above.
        unsafe { simd::microkernel_avx2(apack, bpack, kc, c, i0, j0, ldc, rows, cols) };
        return;
    }
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let bv: &[f32; NR] = bpack[p * NR..(p + 1) * NR]
            .try_into()
            .expect("packed B strip chunk");
        let av: &[f32; MR] = apack[p * MR..(p + 1) * MR]
            .try_into()
            .expect("packed A strip chunk");
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r][j] += ar * bv[j];
            }
        }
    }
    for r in 0..rows {
        let row = &mut c[(i0 + r) * ldc + j0..(i0 + r) * ldc + j0 + cols];
        for (dst, src) in row.iter_mut().zip(&acc[r][..cols]) {
            *dst += src;
        }
    }
}

/// Four-row-interleaved driver for the small `NN`/`TN` kernels (AVX2
/// tier only): rows run through the quad chunk kernels in groups of
/// four; the return value is the first row left for the caller's
/// per-row loop (0 when the driver does not apply). Applies when
/// `m == 1` (matrix·vector) or `m` is a multiple of 8 (full-lane strips
/// of 8/16 columns). `a_off(i, pc)` addresses row `i`'s element for
/// chunk start `pc` and `a_stride` its per-`p` step (`1`/`k`-row for
/// `NN`, `n`/column for `TN`). Per output element every path keeps the
/// serial per-`p` FMA chain, chunked by `KC`, so quad, per-row, and
/// blocked results are mutually bitwise identical.
#[allow(clippy::too_many_arguments)]
fn small_quad<F: Fn(usize, usize) -> usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    a_stride: usize,
    a_off: F,
) -> usize {
    if !simd::enabled() || n < 4 || !(m == 1 || m.is_multiple_of(8)) {
        return 0;
    }
    let quads = n / 4 * 4;
    for i0 in (0..quads).step_by(4) {
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let offs = [
                a_off(i0, pc),
                a_off(i0 + 1, pc),
                a_off(i0 + 2, pc),
                a_off(i0 + 3, pc),
            ];
            if m == 1 {
                // SAFETY: AVX2+FMA checked above; the offsets address
                // rows i0..i0+4 of A and chunk rows pc..pc+kc of b.
                let sums = unsafe { simd::colvec_quad_chunk_avx2(a, offs, a_stride, b, pc, kc) };
                for (r, s) in sums.iter().enumerate() {
                    c[i0 + r] += s;
                }
            } else {
                for j0 in (0..m).step_by(16) {
                    let cols = 16.min(m - j0);
                    let c_off = [
                        i0 * m + j0,
                        (i0 + 1) * m + j0,
                        (i0 + 2) * m + j0,
                        (i0 + 3) * m + j0,
                    ];
                    // SAFETY: AVX2+FMA checked above; `m % 8 == 0` makes
                    // `cols` 8 or 16, and every strip/row offset is in
                    // bounds of the caller-validated buffers.
                    unsafe {
                        simd::small_quad_chunk_avx2(
                            a,
                            offs,
                            a_stride,
                            b,
                            pc * m + j0,
                            m,
                            kc,
                            c,
                            c_off,
                            cols,
                        )
                    };
                }
            }
            pc += kc;
        }
    }
    quads
}

/// Naive kernel for small `A·B`.
///
/// Accumulates each output element per **KC-chunk** into a stack-local
/// accumulator and only then adds the chunk sum into `c` — exactly the
/// addition order of the blocked microkernel. A product's per-row result
/// therefore never depends on which kernel (naive, quad or blocked) it
/// lands on, which is what lets a padded *batched* forward reproduce the
/// per-sample path bitwise even when the batch crosses the small/blocked
/// size threshold that the lone sample did not.
fn small_nn(a: &[f32], b: &[f32], c: &mut [f32], n: usize, k: usize, m: usize) {
    let vector = simd::enabled();
    let start = small_quad(a, b, c, n, k, m, 1, |i, pc| i * k + pc);
    for i in start..n {
        let a_row = &a[i * k..(i + 1) * k];
        for j0 in (0..m).step_by(SMALL_JB) {
            let cols = SMALL_JB.min(m - j0);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let mut acc = [0.0f32; SMALL_JB];
                if vector {
                    // SAFETY: AVX2+FMA guaranteed by `simd::enabled()`;
                    // `a` covers row i's chunk and `b` covers every chunk
                    // row's `cols` columns from `j0`.
                    unsafe {
                        simd::small_chunk_avx2(
                            a,
                            i * k + pc,
                            1,
                            b,
                            pc * m + j0,
                            m,
                            kc,
                            &mut acc,
                            cols,
                        )
                    };
                } else {
                    for (p, &a_ip) in a_row[pc..pc + kc].iter().enumerate() {
                        if a_ip == 0.0 {
                            continue;
                        }
                        let b_row = &b[(pc + p) * m + j0..(pc + p) * m + j0 + cols];
                        for (av, &b_pj) in acc[..cols].iter_mut().zip(b_row) {
                            *av += a_ip * b_pj;
                        }
                    }
                }
                let c_row = &mut c[i * m + j0..i * m + j0 + cols];
                for (c_ij, &av) in c_row.iter_mut().zip(&acc[..cols]) {
                    *c_ij += av;
                }
                pc += kc;
            }
        }
    }
}

/// Naive kernel for small `Aᵀ·B` (no transpose materialised); same
/// KC-chunked accumulation order as the blocked path (see [`small_nn`]).
fn small_tn(a: &[f32], b: &[f32], c: &mut [f32], n: usize, k: usize, m: usize) {
    let vector = simd::enabled();
    let start = small_quad(a, b, c, n, k, m, n, |i, pc| pc * n + i);
    for i in start..n {
        for j0 in (0..m).step_by(SMALL_JB) {
            let cols = SMALL_JB.min(m - j0);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let mut acc = [0.0f32; SMALL_JB];
                if vector {
                    // SAFETY: AVX2+FMA guaranteed by `simd::enabled()`;
                    // A element p sits at `(pc+p)·n + i` (stride n) and b
                    // covers every chunk row's `cols` columns from `j0`.
                    unsafe {
                        simd::small_chunk_avx2(
                            a,
                            pc * n + i,
                            n,
                            b,
                            pc * m + j0,
                            m,
                            kc,
                            &mut acc,
                            cols,
                        )
                    };
                } else {
                    for p in pc..pc + kc {
                        let a_pi = a[p * n + i];
                        if a_pi == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * m + j0..p * m + j0 + cols];
                        for (av, &b_pj) in acc[..cols].iter_mut().zip(b_row) {
                            *av += a_pi * b_pj;
                        }
                    }
                }
                let c_row = &mut c[i * m + j0..i * m + j0 + cols];
                for (c_ij, &av) in c_row.iter_mut().zip(&acc[..cols]) {
                    *c_ij += av;
                }
                pc += kc;
            }
        }
    }
}

/// Naive kernel for small `A·Bᵀ`; same KC-chunked accumulation order as
/// the blocked path (see [`small_nn`]).
///
/// With at least two output rows, B is cheaply transposed into scratch
/// and the work runs through [`small_nn`]'s strip loop: a row-major dot
/// product is a serial FMA dependency chain (float addition cannot be
/// reassociated), while the strip loop keeps `SMALL_JB` independent
/// accumulators and vectorises. Per element the addition order is
/// unchanged, so the two forms are bitwise identical.
fn small_nt(a: &[f32], b: &[f32], c: &mut [f32], n: usize, k: usize, m: usize) {
    if n >= 2 && k * m <= 4 * SMALL_KM {
        let mut bt = pool::scratch_uninit(k * m);
        for j in 0..m {
            for p in 0..k {
                bt[p * m + j] = b[j * k + p];
            }
        }
        small_nn(a, &bt, c, n, k, m);
        return;
    }
    let vector = simd::enabled();
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * m..(i + 1) * m];
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let acc = if vector {
                    // SAFETY: AVX2+FMA guaranteed by `simd::enabled()`.
                    unsafe { simd::dot_chain_avx2(&a_row[pc..pc + kc], &b_row[pc..pc + kc]) }
                } else {
                    let mut acc = 0.0;
                    for (a_ip, b_jp) in a_row[pc..pc + kc].iter().zip(&b_row[pc..pc + kc]) {
                        acc += a_ip * b_jp;
                    }
                    acc
                };
                *c_ij += acc;
                pc += kc;
            }
        }
    }
}

impl Tensor {
    /// Matrix product `self[n×k] · rhs[k×m] → [n×m]`.
    ///
    /// 1-D operands are treated as a single row (`[k]` ≡ `[1, k]`).
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        let (k2, m) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = pool::take_zeroed(n * m);
        gemm_ex(GemmLayout::NN, &self.data(), &rhs.data(), &mut out, n, k, m);
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            matrix_shape(n, m),
            vec![self.clone(), rhs.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pa.requires_grad() {
                    // dA = dC · Bᵀ
                    let bv = pb.data();
                    pa.with_grad_mut(|ga| gemm_ex(GemmLayout::NT, g, &bv, ga, n, m, k));
                }
                if pb.requires_grad() {
                    // dB = Aᵀ · dC
                    let av = pa.data();
                    pb.with_grad_mut(|gb| gemm_ex(GemmLayout::TN, &av, g, gb, k, n, m));
                }
            }),
        )
    }

    /// Fused affine map `self[n×k] · w[k×m] + b[m]` (bias broadcast over
    /// rows) — the `Linear` layer as **one** tape node instead of a
    /// matmul + broadcast-add pair. Dense layers run a dozen times per
    /// sample forward, so halving their node count is a real win.
    pub fn affine(&self, w: &Tensor, b: &Tensor) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        let (k2, m) = (w.rows(), w.cols());
        assert_eq!(
            k,
            k2,
            "affine inner dimension mismatch: {} vs {}",
            self.shape(),
            w.shape()
        );
        assert_eq!(b.len(), m, "affine bias length mismatch");
        let mut out = pool::take_uninit(n * m);
        {
            let bv = b.data();
            for r in 0..n {
                out[r * m..(r + 1) * m].copy_from_slice(&bv);
            }
        }
        gemm_ex(GemmLayout::NN, &self.data(), &w.data(), &mut out, n, k, m);
        let (pa, pw, pb) = (self.clone(), w.clone(), b.clone());
        Tensor::from_op(
            out,
            matrix_shape(n, m),
            vec![self.clone(), w.clone(), b.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pb.requires_grad() {
                    pb.with_grad_mut(|gb| {
                        for r in 0..n {
                            for (gbj, gj) in gb.iter_mut().zip(&g[r * m..(r + 1) * m]) {
                                *gbj += gj;
                            }
                        }
                    });
                }
                if pa.requires_grad() {
                    // dX = dY · Wᵀ
                    let wv = pw.data();
                    pa.with_grad_mut(|ga| gemm_ex(GemmLayout::NT, g, &wv, ga, n, m, k));
                }
                if pw.requires_grad() {
                    // dW = Xᵀ · dY
                    let av = pa.data();
                    pw.with_grad_mut(|gw| gemm_ex(GemmLayout::TN, &av, g, gw, k, n, m));
                }
            }),
        )
    }

    /// Matrix product against a transposed right operand:
    /// `self[n×k] · rhs[m×k]ᵀ → [n×m]`, without materialising the
    /// transpose (attention scores `Q·Kᵀ` and pointer scores `h·Eᵀ`).
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        let (m, k2) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k,
            k2,
            "matmul_nt inner dimension mismatch: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = pool::take_zeroed(n * m);
        gemm_ex(GemmLayout::NT, &self.data(), &rhs.data(), &mut out, n, k, m);
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            matrix_shape(n, m),
            vec![self.clone(), rhs.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pa.requires_grad() {
                    // dA = dC · B  (dC [n×m], B [m×k])
                    let bv = pb.data();
                    pa.with_grad_mut(|ga| gemm_ex(GemmLayout::NN, g, &bv, ga, n, m, k));
                }
                if pb.requires_grad() {
                    // dB = dCᵀ · A  (dC stored [n×m] read transposed)
                    let av = pa.data();
                    pb.with_grad_mut(|gb| gemm_ex(GemmLayout::TN, g, &av, gb, m, n, k));
                }
            }),
        )
    }

    /// 2-D transpose `[n×m] → [m×n]`.
    pub fn transpose(&self) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        let data = self.data();
        let mut out = pool::take_uninit(n * m);
        for i in 0..n {
            for j in 0..m {
                out[j * n + i] = data[i * m + j];
            }
        }
        drop(data);
        let pa = self.clone();
        Tensor::from_op(
            out,
            matrix_shape(m, n),
            vec![self.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("grad");
                if pa.requires_grad() {
                    pa.with_grad_mut(|ga| {
                        for i in 0..n {
                            for j in 0..m {
                                ga[i * m + j] += g[j * n + i];
                            }
                        }
                    });
                }
            }),
        )
    }

    /// Dot product between two equal-length vectors, as a scalar tensor.
    pub fn dot(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        self.mul(rhs).sum_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x3_3x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().0, vec![2, 2]);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_vector_lhs() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], vec![2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![13.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A·B); dA = 1·Bᵀ (row sums of B per column), dB = Aᵀ·1.
        let a = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::param(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let loss = a.matmul(&b).sum_all();
        loss.backward();
        assert_eq!(a.grad(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape().0, vec![3, 2]);
        assert_eq!(t.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose().to_vec(), a.to_vec());
    }

    #[test]
    fn transpose_backward() {
        let a = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], vec![2, 2]);
        let loss = a.transpose().mul(&w).sum_all();
        loss.backward();
        // Only position (0,0) of the transpose contributes → a[0][0].
        assert_eq!(a.grad(), vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], vec![3]);
        assert_eq!(a.dot(&b).item(), 32.0);
    }

    /// Reference implementation for kernel validation.
    fn reference(
        layout: GemmLayout,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(layout, a, i, p, n, k) * b_at(layout, b, p, j, k, m);
                }
                c[i * m + j] = acc;
            }
        }
        c
    }

    fn filled(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 - 8.0)
            .collect()
    }

    #[test]
    fn blocked_kernels_match_reference_past_block_edges() {
        // Sizes straddling MR/NR/KC/MC boundaries and the small/blocked cut.
        for &(n, k, m) in &[
            (1, 7, 5),
            (4, 16, 16),
            (65, 37, 19),
            (33, 300, 18),
            (70, 70, 70),
        ] {
            for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
                let a = filled(n * k, 1);
                let b = filled(k * m, 2);
                let mut c = vec![0.5; n * m];
                gemm_ex(layout, &a, &b, &mut c, n, k, m);
                let want = reference(layout, &a, &b, n, k, m);
                for (got, w) in c.iter().zip(&want) {
                    assert!(
                        (got - (w + 0.5)).abs() <= 1e-3 * w.abs().max(1.0),
                        "{layout:?} {n}x{k}x{m}: {got} vs {}",
                        w + 0.5
                    );
                }
            }
        }
    }

    #[test]
    fn small_and_blocked_kernels_agree_bitwise_per_element() {
        // The padded batched forward relies on this: a product row's
        // result must not depend on which kernel the *surrounding* size
        // heuristic selects, because batching changes the row count but
        // must not change any row's value. Non-zero C exercises the
        // accumulate-into-existing case (`affine` prefills the bias).
        // The quad-eligible shapes (`m == 1`, `m % 8 == 0`, n ≥ 4) route
        // through the four-row interleaved kernels on the AVX2 tier and
        // must still match the blocked path bit for bit, including the
        // leftover rows when n % 4 != 0.
        for &(n, k, m) in &[
            (3, 64, 48),
            (5, 300, 33),
            (2, 513, 16),
            (1, 16, 70),
            (137, 16, 16),
            (16, 137, 1),
            (9, 300, 8),
            (6, 40, 24),
            (5, 16, 1),
        ] {
            for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
                let a = filled(n * k, 5);
                let b = filled(k * m, 9);
                let mut c_small = vec![0.25f32; n * m];
                match layout {
                    GemmLayout::NN => small_nn(&a, &b, &mut c_small, n, k, m),
                    GemmLayout::TN => small_tn(&a, &b, &mut c_small, n, k, m),
                    GemmLayout::NT => small_nt(&a, &b, &mut c_small, n, k, m),
                }
                let mut c_blocked = vec![0.25f32; n * m];
                gemm_blocked(layout, &a, &b, &mut c_blocked, n, k, m);
                assert!(
                    c_small == c_blocked,
                    "{layout:?} {n}x{k}x{m}: small and blocked kernels diverged"
                );
            }
        }
    }

    #[test]
    fn quad_band_dispatch_matches_blocked_bitwise() {
        // k·m between SMALL_KM and QUAD_KM with m % 8 == 0: on the AVX2
        // tier gemm_ex keeps these on the (quad) small path, on the
        // scalar tier they go blocked — either way the result must equal
        // the serial blocked kernel bit for bit. (16, 137, 16) is the
        // dense-layer backward `Xᵀ·dY` shape at dm = 16.
        for &(n, k, m) in &[(16usize, 137usize, 16usize), (24, 200, 16), (137, 100, 1)] {
            for layout in [GemmLayout::NN, GemmLayout::TN] {
                let a = filled(n * k, 13);
                let b = filled(k * m, 17);
                let mut c_dispatch = vec![0.125f32; n * m];
                gemm_ex(layout, &a, &b, &mut c_dispatch, n, k, m);
                let mut c_blocked = vec![0.125f32; n * m];
                gemm_blocked(layout, &a, &b, &mut c_blocked, n, k, m);
                assert!(
                    c_dispatch == c_blocked,
                    "{layout:?} {n}x{k}x{m}: quad-band dispatch diverged from blocked"
                );
            }
        }
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let mut empty: Vec<f32> = Vec::new();
        gemm_ex(GemmLayout::NN, &[], &[], &mut empty, 0, 0, 0);
        gemm_ex(GemmLayout::NN, &[], &[1.0, 2.0], &mut empty, 0, 1, 2);
        let mut c = vec![3.0; 4];
        // k = 0: C must stay untouched.
        gemm_ex(GemmLayout::NN, &[], &[], &mut c, 2, 0, 2);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn parallel_dispatch_is_bitwise_identical_to_single_threaded() {
        // 160³ = 4.1M elements is past every small-path bound. Kernels
        // run on the calling thread at any TSPN_NUM_THREADS, so gemm_ex
        // must match the blocked kernel bit for bit.
        let (n, k, m) = (160usize, 160usize, 160usize);
        let a = filled(n * k, 3);
        let b = filled(k * m, 7);
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            let mut c_dispatch = vec![0.0f32; n * m];
            gemm_ex(layout, &a, &b, &mut c_dispatch, n, k, m);
            let mut c_serial = vec![0.0f32; n * m];
            gemm_blocked(layout, &a, &b, &mut c_serial, n, k, m);
            assert!(
                c_dispatch == c_serial,
                "{layout:?}: dispatch diverged from the blocked kernel"
            );
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![10.0; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![12.0, 13.0, 14.0, 15.0]);
    }
}
