//! Runtime-dispatched SIMD kernels (AVX2 + FMA) behind the scalar ops.
//!
//! ## Dispatch contract
//!
//! The kernel tier is detected **once**, at the first dispatch, and cached
//! for the process lifetime ([`tier`]): `TSPN_SIMD=0` forces the scalar
//! tier, otherwise x86-64 hosts with AVX2 *and* FMA get [`KernelTier::Avx2Fma`]
//! and everything else falls back to [`KernelTier::Scalar`]. The scalar
//! paths are always compiled and always correct — the SIMD arm is a pure
//! acceleration layer the callers consult per call via [`enabled`].
//!
//! ## Numeric contract
//!
//! Within one tier every kernel is run-to-run deterministic, and the
//! GEMM kernels preserve the per-element accumulation-order contract of
//! `ops/matmul.rs`: each output element is a serial chain over `p` (FMA
//! chain on this tier), chunked by `KC`, so the small, quad and blocked
//! paths stay mutually bitwise identical. Row reductions (softmax sums, layer-norm moments, dot
//! products) accumulate **lane-strided** — element `i` always lands in
//! lane `i mod 8` and the 8 lanes collapse through one fixed tree — which
//! makes every row kernel transparent to zero suffixes: a row padded with
//! exact zeros reduces bitwise the same as the unpadded row, the property
//! the jagged batched ops rely on.
//!
//! **Across** tiers results agree only to tolerance (FMA contracts
//! `a*b+c` into one rounding; the vector `exp` is a polynomial, not libm).
//! Anything asserted bitwise therefore compares values produced on one
//! tier, never across tiers.

use std::sync::OnceLock;

/// Which kernel arm the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar kernels (always available).
    Scalar,
    /// AVX2 + FMA vector kernels (x86-64 only, runtime detected).
    Avx2Fma,
}

impl KernelTier {
    /// Stable lowercase name for logs, stats, and `/v1/stats` build info.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2Fma => "avx2-fma",
        }
    }
}

/// The process-wide kernel tier, detected once at first call.
///
/// `TSPN_SIMD=0` forces [`KernelTier::Scalar`]; any other value (or the
/// variable being unset) lets CPU feature detection decide.
pub fn tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// [`tier`]'s stable name — the introspection hook serving benches record.
pub fn kernel_tier() -> &'static str {
    tier().name()
}

/// True when the AVX2+FMA arm is active.
#[inline]
pub fn enabled() -> bool {
    tier() == KernelTier::Avx2Fma
}

fn detect() -> KernelTier {
    if std::env::var("TSPN_SIMD").is_ok_and(|v| v == "0") {
        return KernelTier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelTier::Avx2Fma;
        }
    }
    KernelTier::Scalar
}

/// Per-step constants of the fused Adam update kernel ([`adam_update`]).
///
/// `c1`/`c2` are the precomputed `1 − β₁` / `1 − β₂` complements (rounded
/// once, on the scalar side, so both tiers consume the identical
/// constant), `b1t`/`b2t` the bias corrections `1 − βᵗ`, and `grad_scale`
/// the folded-in global clip factor (`1.0` when no clipping applies).
#[derive(Debug, Clone, Copy)]
pub struct AdamKernel {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// `1 − β₁`.
    pub c1: f32,
    /// `1 − β₂`.
    pub c2: f32,
    /// Bias correction `1 − β₁ᵗ`.
    pub b1t: f32,
    /// Bias correction `1 − β₂ᵗ`.
    pub b2t: f32,
    /// Stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub wd: f32,
    /// Gradient pre-scale (global-norm clip folded into the pass).
    pub grad_scale: f32,
}

/// Fused Adam update: one pass over `data`/`grad`/`m`/`v` computing
///
/// ```text
/// g    = grad_scale·grad[i] + wd·data[i]
/// m[i] = β₁·m[i] + (1−β₁)·g
/// v[i] = β₂·v[i] + ((1−β₂)·g)·g
/// data[i] −= (lr·(m[i]/b1t)) / (√(v[i]/b2t) + eps)
/// ```
///
/// **Bitwise contract:** every operation is a correctly-rounded IEEE-754
/// mul/add/sub/div/sqrt — deliberately *no* FMA contraction — in the same
/// order on both arms, so the scalar and AVX2 tiers produce bit-identical
/// parameters and moments, and both reproduce the retired two-pass
/// (clip-rewrite then update) optimizer exactly: `grad_scale·grad[i]`
/// rounds identically to the old in-place `grad[i] *= scale` rewrite.
pub fn adam_update(data: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamKernel) {
    debug_assert_eq!(data.len(), grad.len());
    debug_assert_eq!(data.len(), m.len());
    debug_assert_eq!(data.len(), v.len());
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA on this host.
        unsafe { adam_update_avx2(data, grad, m, v, k) }
    } else {
        adam_update_scalar(data, grad, m, v, k);
    }
}

/// Scalar arm of [`adam_update`] (also the cross-tier reference).
fn adam_update_scalar(
    data: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    k: &AdamKernel,
) {
    for i in 0..data.len() {
        let g = k.grad_scale * grad[i] + k.wd * data[i];
        m[i] = k.beta1 * m[i] + k.c1 * g;
        v[i] = k.beta2 * v[i] + (k.c2 * g) * g;
        let m_hat = m[i] / k.b1t;
        let v_hat = v[i] / k.b2t;
        data[i] -= lr_update(k.lr, m_hat, v_hat, k.eps);
    }
}

/// `(lr·m̂) / (√v̂ + eps)` — the scalar arm's update term, split out so the
/// parenthesisation the AVX arm mirrors is pinned in one place.
#[inline]
fn lr_update(lr: f32, m_hat: f32, v_hat: f32, eps: f32) -> f32 {
    (lr * m_hat) / (v_hat.sqrt() + eps)
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::*;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Per-lane load masks for ragged tails: `TAIL_MASKS[r]` has the first
    /// `r` lanes live (`r ∈ 0..8`; a full vector never consults the table).
    static TAIL_MASKS: [[i32; 8]; 8] = {
        let mut masks = [[0i32; 8]; 8];
        let mut r = 0;
        while r < 8 {
            let mut l = 0;
            while l < r {
                masks[r][l] = -1;
                l += 1;
            }
            r += 1;
        }
        masks
    };

    /// Mask vector with the first `r` (`1..=7`) lanes live.
    ///
    /// # Safety
    /// Caller must run on an AVX2 host (guarded by [`super::enabled`]).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tail_mask(r: usize) -> __m256i {
        debug_assert!(r < 8);
        // SAFETY: TAIL_MASKS rows are 8 i32s = 32 bytes, readable.
        _mm256_loadu_si256(TAIL_MASKS[r].as_ptr() as *const __m256i)
    }

    /// Collapses the 8 lanes of an accumulator through one fixed tree:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the lane-strided
    /// reduction order every row kernel shares.
    // SAFETY: unsafe only for the avx2,fma target_feature; touches
    // register values exclusively (no pointers, no slices), so the sole
    // obligation is the caller's — reach this only after `enabled()`
    // confirmed AVX2+FMA at runtime, as every dispatch site does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_add(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s4 = _mm_add_ps(lo, hi); // lane q = l_q + l_{q+4}
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4)); // lane q = s4_q + s4_{q+2}
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
        _mm_cvtss_f32(s1)
    }

    /// Lane-wise max collapsed through the same fixed tree (max is exact,
    /// so the tree shape is unobservable — kept fixed anyway).
    // SAFETY: unsafe only for the avx2,fma target_feature; touches
    // register values exclusively (no pointers, no slices), so the sole
    // obligation is the caller's — reach this only after `enabled()`
    // confirmed AVX2+FMA at runtime, as every dispatch site does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_max(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
        _mm_cvtss_f32(m1)
    }

    /// Vector `exp` — the classic Cephes polynomial (`exp_hi/lo` clamped,
    /// Cody–Waite ln2 split, degree-5 Horner via FMA, exponent-bit 2ⁿ
    /// scale). Deterministic; agrees with libm `expf` to ~1 ulp but is a
    /// **different** function — cross-tier comparisons use tolerance.
    // SAFETY: unsafe only for the avx2,fma target_feature; touches
    // register values exclusively (no pointers, no slices), so the sole
    // obligation is the caller's — reach this only after `enabled()`
    // confirmed AVX2+FMA at runtime, as every dispatch site does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(88.376_26));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-88.376_26));
        // n = round-to-floor(x / ln2)
        let fx = _mm256_fmadd_ps(
            x,
            _mm256_set1_ps(std::f32::consts::LOG2_E),
            _mm256_set1_ps(0.5),
        );
        let fx = _mm256_floor_ps(fx);
        // r = x − n·ln2, split for accuracy.
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), x);
        // Degree-5 polynomial for exp(r) − 1 − r on |r| ≤ ln2/2.
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.398_2e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.666_666_5e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(0.5));
        let z = _mm256_mul_ps(x, x);
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^n through the exponent bits.
        let n = _mm256_cvttps_epi32(fx);
        let pow2n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
        _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n))
    }

    /// Vector `tanh` — rational approximation `x·P(x²)/Q(x²)` (the
    /// classic 7/6-degree fit) on the clamped range `|x| ≤ 7.905`, where
    /// f32 `tanh` saturates anyway. Deterministic and bounded in
    /// `[-1, 1]`; agrees with libm `tanhf` to a few ulp but is a
    /// **different** function — cross-tier comparisons use tolerance,
    /// exactly like the vector `exp`.
    // SAFETY: unsafe only for the avx2,fma target_feature; touches
    // register values exclusively (no pointers, no slices), so the sole
    // obligation is the caller's — reach this only after `enabled()`
    // confirmed AVX2+FMA at runtime, as every dispatch site does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh256(x: __m256) -> __m256 {
        let x = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(7.905_311)),
            _mm256_set1_ps(-7.905_311),
        );
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(-2.760_768_4e-16);
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(2.000_188e-13));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(-8.604_672e-11));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(5.122_297e-8));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(1.485_722_4e-5));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(6.372_619_3e-4));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(4.893_524_6e-3));
        let p = _mm256_mul_ps(p, x);
        let mut q = _mm256_set1_ps(1.198_258_4e-6);
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(1.185_347e-4));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(2.268_434_6e-3));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(4.893_525e-3));
        _mm256_div_ps(p, q)
    }

    /// Elementwise vector tanh `dst[i] = tanh(src[i])`; ragged tails use
    /// masked loads/stores, so every element goes through [`tanh256`].
    ///
    /// # Safety
    /// AVX2+FMA must be available; slices must have equal length.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn tanh_slice_avx2(src: &[f32], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n for both slices.
            _mm256_storeu_ps(dp.add(i), tanh256(_mm256_loadu_ps(sp.add(i))));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: masked load/store touch only the first `rem` lanes.
            _mm256_maskstore_ps(
                dp.add(i),
                mask,
                tanh256(_mm256_maskload_ps(sp.add(i), mask)),
            );
        }
    }

    /// AVX2 `MR×NR` GEMM microkernel: identical loop structure to the
    /// scalar `microkernel` in `ops/matmul.rs` (`MR = 4`, `NR = 16`), with
    /// each `acc[r][j] += a·b` contracted to one FMA. Per output element
    /// the accumulation stays a serial chain over `p`, so every GEMM path
    /// on this tier matches bitwise.
    ///
    /// # Safety
    /// AVX2+FMA must be available ([`super::enabled`]); `apack` holds
    /// `kc·4` floats, `bpack` holds `kc·16`, and rows/cols must address
    /// valid `c` elements exactly as the scalar kernel requires.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn microkernel_avx2(
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
        debug_assert!(apack.len() >= kc * 4 && bpack.len() >= kc * 16);
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        let ap = apack.as_ptr();
        let bp = bpack.as_ptr();
        for p in 0..kc {
            // SAFETY: packed strips are kc·MR / kc·NR floats (asserted).
            let b0 = _mm256_loadu_ps(bp.add(p * 16));
            let b1 = _mm256_loadu_ps(bp.add(p * 16 + 8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&*ap.add(p * 4 + r));
                accr[0] = _mm256_fmadd_ps(ar, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(ar, b1, accr[1]);
            }
        }
        let mut tile = [[0.0f32; 16]; 4];
        for r in 0..4 {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), acc[r][0]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc[r][1]);
        }
        for r in 0..rows {
            let row = &mut c[(i0 + r) * ldc + j0..(i0 + r) * ldc + j0 + cols];
            for (dst, src) in row.iter_mut().zip(&tile[r][..cols]) {
                *dst += src;
            }
        }
    }

    /// One KC-chunk of the small-kernel strip loop:
    /// `acc[j] += Σ_p a[a_off + p·a_stride] · b[b_off + p·m + j]` with the
    /// same zero-`a` skip as the scalar loop. Full 8-lane groups run as
    /// broadcast+FMA; the ragged tail runs scalar `mul_add`, which is the
    /// same serial FMA chain and therefore bitwise identical per element.
    ///
    /// # Safety
    /// AVX2+FMA must be available; `a` must cover `a_off + (kc−1)·a_stride`
    /// and `b` must cover `b_off + (kc−1)·m + cols`; `acc` holds ≥ `cols`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn small_chunk_avx2(
        a: &[f32],
        a_off: usize,
        a_stride: usize,
        b: &[f32],
        b_off: usize,
        m: usize,
        kc: usize,
        acc: &mut [f32],
        cols: usize,
    ) {
        let vec_cols = cols & !7;
        let nregs = vec_cols / 8;
        debug_assert!(nregs <= 8);
        let mut regs = [_mm256_setzero_ps(); 8];
        let bp = b.as_ptr();
        for p in 0..kc {
            let a_ip = *a.get_unchecked(a_off + p * a_stride);
            if a_ip == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(a_ip);
            let brow = bp.add(b_off + p * m);
            for (q, reg) in regs[..nregs].iter_mut().enumerate() {
                // SAFETY: b covers b_off + p·m + vec_cols (caller contract).
                *reg = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow.add(q * 8)), *reg);
            }
            for j in vec_cols..cols {
                let aj = acc.get_unchecked_mut(j);
                *aj = a_ip.mul_add(*brow.add(j), *aj);
            }
        }
        for (q, reg) in regs[..nregs].iter().enumerate() {
            let lane = _mm256_loadu_ps(acc.as_ptr().add(q * 8));
            _mm256_storeu_ps(acc.as_mut_ptr().add(q * 8), _mm256_add_ps(lane, *reg));
        }
    }

    /// One KC-chunk of the small-kernel loop for **four** output rows at
    /// once, over one `cols ∈ {8, 16}` column strip. Per output element
    /// the accumulation is the same serial FMA chain over `p` as
    /// [`small_chunk_avx2`]; interleaving four independent chains only
    /// adds instruction-level parallelism (the per-row path leaves the
    /// FMA unit idle for most of each chain's latency), so the quad and
    /// per-row paths are bitwise identical element for element. A row
    /// `r`'s A element for chunk step `p` sits at `a[a_off[r] + p·a_stride]`
    /// (`a_stride` = 1 walks an `NN` row, = n walks a `TN` column), and
    /// the chunk sum is added into `c` at `c_off[r]` — the same
    /// chunk-then-add order as the per-row kernels.
    ///
    /// # Safety
    /// AVX2+FMA must be available; `a` must cover every
    /// `a_off[r] + (kc−1)·a_stride`, `b` must cover
    /// `b_off + (kc−1)·m + cols`, and `c` must cover `c_off[r] + cols`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn small_quad_chunk_avx2(
        a: &[f32],
        a_off: [usize; 4],
        a_stride: usize,
        b: &[f32],
        b_off: usize,
        m: usize,
        kc: usize,
        c: &mut [f32],
        c_off: [usize; 4],
        cols: usize,
    ) {
        debug_assert!(cols == 8 || cols == 16);
        let wide = cols == 16;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for p in 0..kc {
            // SAFETY: all offsets in bounds per the caller contract.
            let brow = bp.add(b_off + p * m);
            let b0 = _mm256_loadu_ps(brow);
            let b1 = if wide {
                _mm256_loadu_ps(brow.add(8))
            } else {
                _mm256_setzero_ps()
            };
            for (r, (a0, a1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                let ar = _mm256_broadcast_ss(&*ap.add(a_off[r] + p * a_stride));
                *a0 = _mm256_fmadd_ps(ar, b0, *a0);
                if wide {
                    *a1 = _mm256_fmadd_ps(ar, b1, *a1);
                }
            }
        }
        for (r, (a0, a1)) in acc0.iter().zip(acc1.iter()).enumerate() {
            // SAFETY: c covers c_off[r] + cols.
            let crow = c.as_mut_ptr().add(c_off[r]);
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), *a0));
            if wide {
                _mm256_storeu_ps(
                    crow.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), *a1),
                );
            }
        }
    }

    /// One KC-chunk of a matrix·vector product (`m == 1`) for four output
    /// rows at once: four independent serial FMA chains over `p`, each
    /// bitwise identical to the per-row chain [`small_chunk_avx2`] runs
    /// for a single-column strip. Returns the four chunk sums for the
    /// caller to add into `c` in the shared chunk-then-add order.
    ///
    /// # Safety
    /// AVX2+FMA must be available; `a` must cover every
    /// `a_off[r] + (kc−1)·a_stride` and `b` must cover `b_off + kc`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn colvec_quad_chunk_avx2(
        a: &[f32],
        a_off: [usize; 4],
        a_stride: usize,
        b: &[f32],
        b_off: usize,
        kc: usize,
    ) -> [f32; 4] {
        let (ap, bp) = (a.as_ptr(), b.as_ptr().add(b_off));
        let mut acc = [0.0f32; 4];
        for p in 0..kc {
            // SAFETY: offsets in bounds per the caller contract.
            let bv = *bp.add(p);
            for (r, accr) in acc.iter_mut().enumerate() {
                *accr = (*ap.add(a_off[r] + p * a_stride)).mul_add(bv, *accr);
            }
        }
        acc
    }

    /// Serial FMA dot product `Σ_p a[p]·b[p]` — the single-row `A·Bᵀ`
    /// kernel (a dot product is one dependency chain; FMA keeps it on the
    /// tier's per-element contract).
    ///
    /// # Safety
    /// AVX2+FMA must be available; slices must have equal length.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn dot_chain_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc = x.mul_add(*y, acc);
        }
        acc
    }

    /// Row maximum (exact — max has no rounding, so any fold order agrees
    /// with the scalar serial fold bitwise, NaNs excluded).
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_max_avx2(v: &[f32]) -> f32 {
        let n = v.len();
        if n < 8 {
            return v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        }
        let p = v.as_ptr();
        // SAFETY: n ≥ 8 checked above; subsequent loads stay in bounds.
        let mut mx = _mm256_loadu_ps(p);
        let mut i = 8;
        while i + 8 <= n {
            mx = _mm256_max_ps(mx, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut r = reduce_max(mx);
        while i < n {
            r = r.max(*v.get_unchecked(i));
            i += 1;
        }
        r
    }

    /// Fused exp + sum over one softmax row, in place:
    /// `v[i] ← if v[i]−max ≤ −150 { 0 } else { exp(v[i]−max) }`, returning
    /// the lane-strided sum. Every element goes through the same vector
    /// `exp` (ragged tails use masked loads, never a scalar fallback), so
    /// the result of each element — and the lane each element sums into —
    /// is independent of the row width: zero-padded suffixes are bitwise
    /// transparent, exactly like the scalar serial pass.
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_exp_sum_avx2(v: &mut [f32], max: f32) -> f32 {
        let n = v.len();
        let maxv = _mm256_set1_ps(max);
        let cut = _mm256_set1_ps(-150.0);
        let mut sum = _mm256_setzero_ps();
        let p = v.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n.
            let x = _mm256_loadu_ps(p.add(i));
            let d = _mm256_sub_ps(x, maxv);
            let dead = _mm256_cmp_ps::<_CMP_LE_OQ>(d, cut);
            let e = _mm256_andnot_ps(dead, exp256(d));
            sum = _mm256_add_ps(sum, e);
            _mm256_storeu_ps(p.add(i), e);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: maskload/maskstore only touch the first `rem` lanes.
            let x = _mm256_maskload_ps(p.add(i), mask);
            let d = _mm256_sub_ps(x, maxv);
            let dead = _mm256_cmp_ps::<_CMP_LE_OQ>(d, cut);
            let mut e = _mm256_andnot_ps(dead, exp256(d));
            // Dead tail lanes loaded as 0.0 → exp(−max) garbage; zero them
            // before summing so the tail is width-transparent.
            e = _mm256_and_ps(e, _mm256_castsi256_ps(mask));
            sum = _mm256_add_ps(sum, e);
            _mm256_maskstore_ps(p.add(i), mask, e);
        }
        reduce_add(sum)
    }

    /// Lane-strided sum `Σ v[i]` (element `i` in lane `i mod 8`, fixed
    /// reduction tree) — zero suffixes are bitwise transparent.
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_sum_avx2(v: &[f32]) -> f32 {
        let n = v.len();
        let p = v.as_ptr();
        let mut sum = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n.
            sum = _mm256_add_ps(sum, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: masked load touches only the first `rem` lanes; dead
            // lanes read as +0.0 and add nothing.
            sum = _mm256_add_ps(sum, _mm256_maskload_ps(p.add(i), mask));
        }
        reduce_add(sum)
    }

    /// Lane-strided FMA dot `Σ a[i]·b[i]` — shared by the softmax/
    /// fused-attention backward and the layer-norm reductions. Zero
    /// suffixes in either operand are bitwise transparent.
    ///
    /// # Safety
    /// AVX2+FMA must be available; slices must have equal length.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n for both slices.
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: masked loads touch only live lanes; dead lanes are
            // 0·0 and leave the accumulator bits unchanged.
            acc = _mm256_fmadd_ps(
                _mm256_maskload_ps(pa.add(i), mask),
                _mm256_maskload_ps(pb.add(i), mask),
                acc,
            );
        }
        reduce_add(acc)
    }

    /// AVX2 arm of the fused Adam update. Mirrors the scalar arm's exact
    /// op sequence — `vmul`/`vadd`/`vsub`/`vdiv`/`vsqrt` only, **no FMA**
    /// (contraction would merge two roundings and break the cross-tier
    /// bitwise contract); every one of those is correctly rounded per
    /// IEEE-754, so the lanes reproduce the scalar loop bit for bit.
    ///
    /// # Safety
    /// AVX2+FMA must be available ([`super::enabled`]); all four slices
    /// must have equal length (asserted by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn adam_update_avx2(
        data: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        k: &super::AdamKernel,
    ) {
        let n = data.len();
        let scale = _mm256_set1_ps(k.grad_scale);
        let wd = _mm256_set1_ps(k.wd);
        let b1 = _mm256_set1_ps(k.beta1);
        let b2 = _mm256_set1_ps(k.beta2);
        let c1 = _mm256_set1_ps(k.c1);
        let c2 = _mm256_set1_ps(k.c2);
        let b1t = _mm256_set1_ps(k.b1t);
        let b2t = _mm256_set1_ps(k.b2t);
        let eps = _mm256_set1_ps(k.eps);
        let lr = _mm256_set1_ps(k.lr);
        let (dp, gp, mp, vp) = (
            data.as_mut_ptr(),
            grad.as_ptr(),
            m.as_mut_ptr(),
            v.as_mut_ptr(),
        );
        // SAFETY: unsafe only for the avx2,fma target_feature; pure
        // register arithmetic on its arguments. The enclosing kernel is
        // itself only reached behind the runtime `enabled()` dispatch.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn lanes(
            d: __m256,
            g0: __m256,
            m0: __m256,
            v0: __m256,
            scale: __m256,
            wd: __m256,
            b1: __m256,
            b2: __m256,
            c1: __m256,
            c2: __m256,
            b1t: __m256,
            b2t: __m256,
            eps: __m256,
            lr: __m256,
        ) -> (__m256, __m256, __m256) {
            // g = scale·grad + wd·data  (two rounded muls, one rounded add)
            let g = _mm256_add_ps(_mm256_mul_ps(scale, g0), _mm256_mul_ps(wd, d));
            // m = β₁·m + c₁·g
            let m1 = _mm256_add_ps(_mm256_mul_ps(b1, m0), _mm256_mul_ps(c1, g));
            // v = β₂·v + (c₂·g)·g  — left-associated like the scalar arm
            let v1 = _mm256_add_ps(
                _mm256_mul_ps(b2, v0),
                _mm256_mul_ps(_mm256_mul_ps(c2, g), g),
            );
            let m_hat = _mm256_div_ps(m1, b1t);
            let v_hat = _mm256_div_ps(v1, b2t);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let d1 = _mm256_sub_ps(d, _mm256_div_ps(_mm256_mul_ps(lr, m_hat), denom));
            (d1, m1, v1)
        }
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n for all four equal-length slices.
            let (d1, m1, v1) = lanes(
                _mm256_loadu_ps(dp.add(i)),
                _mm256_loadu_ps(gp.add(i)),
                _mm256_loadu_ps(mp.add(i)),
                _mm256_loadu_ps(vp.add(i)),
                scale,
                wd,
                b1,
                b2,
                c1,
                c2,
                b1t,
                b2t,
                eps,
                lr,
            );
            _mm256_storeu_ps(dp.add(i), d1);
            _mm256_storeu_ps(mp.add(i), m1);
            _mm256_storeu_ps(vp.add(i), v1);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: masked loads/stores touch only the first `rem`
            // lanes; dead lanes load +0.0, compute harmless finite
            // garbage (√(0/b2t)+eps never traps) and are never stored.
            let (d1, m1, v1) = lanes(
                _mm256_maskload_ps(dp.add(i), mask),
                _mm256_maskload_ps(gp.add(i), mask),
                _mm256_maskload_ps(mp.add(i), mask),
                _mm256_maskload_ps(vp.add(i), mask),
                scale,
                wd,
                b1,
                b2,
                c1,
                c2,
                b1t,
                b2t,
                eps,
                lr,
            );
            _mm256_maskstore_ps(dp.add(i), mask, d1);
            _mm256_maskstore_ps(mp.add(i), mask, m1);
            _mm256_maskstore_ps(vp.add(i), mask, v1);
        }
    }

    /// Lane-strided centred second moment `Σ (v[i]−mu)²` for layer-norm.
    ///
    /// # Safety
    /// AVX2+FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_sq_diff_sum_avx2(v: &[f32], mu: f32) -> f32 {
        let n = v.len();
        let p = v.as_ptr();
        let muv = _mm256_set1_ps(mu);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n.
            let d = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), muv);
            acc = _mm256_fmadd_ps(d, d, acc);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let mask = tail_mask(rem);
            // SAFETY: masked load touches only live lanes; dead lanes are
            // masked back to zero before the FMA.
            let d = _mm256_sub_ps(_mm256_maskload_ps(p.add(i), mask), muv);
            let d = _mm256_and_ps(d, _mm256_castsi256_ps(mask));
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        reduce_add(acc)
    }
}

// Scalar stand-ins so non-x86 targets still compile the dispatch sites;
// `enabled()` is always false there, so these are never reached.
//
// SAFETY: every stub below is `unsafe fn` purely to mirror the x86
// signatures at the dispatch sites; the bodies dereference nothing and
// unconditionally `unreachable!`, so there is no invariant to uphold —
// calling one is a dispatch bug, not UB.
#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    #![allow(dead_code, clippy::too_many_arguments)]

    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn microkernel_avx2(
        _apack: &[f32],
        _bpack: &[f32],
        _kc: usize,
        _c: &mut [f32],
        _i0: usize,
        _j0: usize,
        _ldc: usize,
        _rows: usize,
        _cols: usize,
    ) {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn small_chunk_avx2(
        _a: &[f32],
        _a_off: usize,
        _a_stride: usize,
        _b: &[f32],
        _b_off: usize,
        _m: usize,
        _kc: usize,
        _acc: &mut [f32],
        _cols: usize,
    ) {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn small_quad_chunk_avx2(
        _a: &[f32],
        _a_off: [usize; 4],
        _a_stride: usize,
        _b: &[f32],
        _b_off: usize,
        _m: usize,
        _kc: usize,
        _c: &mut [f32],
        _c_off: [usize; 4],
        _cols: usize,
    ) {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn colvec_quad_chunk_avx2(
        _a: &[f32],
        _a_off: [usize; 4],
        _a_stride: usize,
        _b: &[f32],
        _b_off: usize,
        _kc: usize,
    ) -> [f32; 4] {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn tanh_slice_avx2(_src: &[f32], _dst: &mut [f32]) {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn dot_chain_avx2(_a: &[f32], _b: &[f32]) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn row_max_avx2(_v: &[f32]) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn row_exp_sum_avx2(_v: &mut [f32], _max: f32) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn row_sum_avx2(_v: &[f32]) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn row_dot_avx2(_a: &[f32], _b: &[f32]) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn row_sq_diff_sum_avx2(_v: &[f32], _mu: f32) -> f32 {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
    // SAFETY: signature-mirroring stub; the body is `unreachable!` and
    // dereferences nothing, so there is no invariant to uphold.
    pub(crate) unsafe fn adam_update_avx2(
        _data: &mut [f32],
        _grad: &[f32],
        _m: &mut [f32],
        _v: &mut [f32],
        _k: &super::AdamKernel,
    ) {
        unreachable!("SIMD arm dispatched on a non-x86 target")
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fallback::*;

/// Row maximum on the active tier (exact on both arms).
#[inline]
pub(crate) fn row_max(v: &[f32]) -> f32 {
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { row_max_avx2(v) }
    } else {
        v.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Fused exp+sum over a softmax row (`v` already scaled and masked): on
/// return `v[i] = exp(v[i]−max)` with the `≤ −150` underflow shortcut,
/// and the returned sum is the tier's row-reduction order.
#[inline]
pub(crate) fn row_exp_sum(v: &mut [f32], max: f32) -> f32 {
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { row_exp_sum_avx2(v, max) }
    } else {
        let mut sum = 0.0;
        for x in v.iter_mut() {
            let d = *x - max;
            *x = if d <= -150.0 { 0.0 } else { d.exp() };
            sum += *x;
        }
        sum
    }
}

/// Row sum on the active tier.
#[inline]
pub(crate) fn row_sum(v: &[f32]) -> f32 {
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { row_sum_avx2(v) }
    } else {
        v.iter().sum()
    }
}

/// Row dot product on the active tier.
#[inline]
pub(crate) fn row_dot(a: &[f32], b: &[f32]) -> f32 {
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { row_dot_avx2(a, b) }
    } else {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

/// Elementwise tanh `dst[i] = tanh(src[i])` on the active tier: the
/// vector rational approximation on the AVX2 arm, libm `tanhf` on the
/// scalar arm. Like the vector `exp`, the tiers agree to tolerance, not
/// bitwise; within one tier the kernel is deterministic and its output
/// is always inside `[-1, 1]`.
#[inline]
pub(crate) fn tanh_slice(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { tanh_slice_avx2(src, dst) }
    } else {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x.tanh();
        }
    }
}

/// Centred second moment `Σ (v[i]−mu)²` on the active tier.
#[inline]
pub(crate) fn row_sq_diff_sum(v: &[f32], mu: f32) -> f32 {
    if enabled() {
        // SAFETY: `enabled()` guarantees AVX2+FMA.
        unsafe { row_sq_diff_sum_avx2(v, mu) }
    } else {
        v.iter().map(|x| (x - mu) * (x - mu)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed);
                ((x >> 40) as i64 % 97) as f32 * 0.11 - 3.0
            })
            .collect()
    }

    #[test]
    fn tier_is_cached_and_named() {
        let t = tier();
        assert_eq!(t, tier(), "tier must be stable for the process");
        assert!(matches!(kernel_tier(), "scalar" | "avx2-fma"));
    }

    #[test]
    fn row_kernels_match_scalar_reference_to_tolerance() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let v = vals(n, 7);
            let serial_max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(row_max(&v), serial_max, "max is exact on every tier");
            let serial_sum: f32 = v.iter().sum();
            assert!((row_sum(&v) - serial_sum).abs() <= 1e-4 * serial_sum.abs().max(1.0));
            let w = vals(n, 13);
            let serial_dot: f32 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert!((row_dot(&v, &w) - serial_dot).abs() <= 1e-3 * serial_dot.abs().max(1.0));
            let mu = if n == 0 { 0.0 } else { serial_sum / n as f32 };
            let serial_var: f32 = v.iter().map(|x| (x - mu) * (x - mu)).sum();
            assert!(
                (row_sq_diff_sum(&v, mu) - serial_var).abs() <= 1e-3 * serial_var.abs().max(1.0)
            );
        }
    }

    #[test]
    fn exp_sum_matches_scalar_to_tolerance_and_zeroes_masked() {
        for n in [1usize, 5, 8, 11, 16, 33] {
            let mut v = vals(n, 3);
            if n > 2 {
                v[n - 1] = -1e9; // a masked entry
            }
            let max = row_max(&v);
            let mut simd_row = v.clone();
            let simd_sum = row_exp_sum(&mut simd_row, max);
            let mut ref_row = v.clone();
            let mut ref_sum = 0.0f32;
            for x in ref_row.iter_mut() {
                let d = *x - max;
                *x = if d <= -150.0 { 0.0 } else { d.exp() };
                ref_sum += *x;
            }
            for (s, r) in simd_row.iter().zip(&ref_row) {
                assert!((s - r).abs() <= 1e-6 * r.abs().max(1e-6), "{s} vs {r}");
            }
            if n > 2 {
                assert_eq!(simd_row[n - 1], 0.0, "masked entry must be exactly zero");
            }
            assert!((simd_sum - ref_sum).abs() <= 1e-5 * ref_sum.abs().max(1.0));
        }
    }

    #[test]
    fn tanh_matches_libm_to_tolerance_and_stays_bounded() {
        // Wide range including the saturated region and ragged tails.
        for n in [1usize, 5, 8, 13, 16, 137] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32 - n as f32 / 2.0) * 0.37).collect();
            let mut dst = vec![0.0f32; n];
            tanh_slice(&src, &mut dst);
            for (&x, &y) in src.iter().zip(&dst) {
                let want = x.tanh();
                assert!(
                    (y - want).abs() <= 2e-7 + 1e-6 * want.abs(),
                    "tanh({x}) = {y}, want {want}"
                );
                assert!((-1.0..=1.0).contains(&y), "tanh({x}) = {y} out of range");
            }
        }
    }

    fn test_kernel(grad_scale: f32, wd: f32, t: u64) -> AdamKernel {
        let (beta1, beta2) = (0.9f32, 0.999f32);
        AdamKernel {
            lr: 1e-2,
            beta1,
            beta2,
            c1: 1.0 - beta1,
            c2: 1.0 - beta2,
            b1t: 1.0 - beta1.powi(t as i32),
            b2t: 1.0 - beta2.powi(t as i32),
            eps: 1e-8,
            wd,
            grad_scale,
        }
    }

    #[test]
    fn adam_update_matches_reference_two_pass() {
        // The fused pass must reproduce the retired sequence exactly:
        // clip-rewrite the gradient in place, then the naive update loop.
        for n in [1usize, 7, 8, 9, 31, 64, 100] {
            for (scale, wd) in [(1.0f32, 0.0f32), (0.37, 0.0), (1.0, 0.01), (0.83, 0.003)] {
                let k = test_kernel(scale, wd, 3);
                let mut data = vals(n, 11);
                let grad = vals(n, 19);
                let mut m = vals(n, 23);
                let mut v: Vec<f32> = vals(n, 29).iter().map(|x| x * x).collect();
                let (mut rd, mut rm, mut rv) = (data.clone(), m.clone(), v.clone());
                let rg: Vec<f32> = grad.iter().map(|g| scale * g).collect();
                for i in 0..n {
                    let g = rg[i] + wd * rd[i];
                    rm[i] = k.beta1 * rm[i] + (1.0 - k.beta1) * g;
                    rv[i] = k.beta2 * rv[i] + (1.0 - k.beta2) * g * g;
                    let m_hat = rm[i] / k.b1t;
                    let v_hat = rv[i] / k.b2t;
                    rd[i] -= k.lr * m_hat / (v_hat.sqrt() + k.eps);
                }
                adam_update(&mut data, &grad, &mut m, &mut v, &k);
                assert!(
                    data.iter()
                        .zip(&rd)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "data diverged at n={n} scale={scale} wd={wd}"
                );
                assert!(m.iter().zip(&rm).all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(v.iter().zip(&rv).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn adam_update_tiers_are_bitwise_identical() {
        // The AVX arm avoids FMA so every lane op is the correctly-rounded
        // IEEE operation the scalar arm performs — compare them directly
        // (runnable regardless of which tier the process dispatches to).
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        for n in [1usize, 5, 8, 13, 16, 27, 96] {
            let k = test_kernel(0.71, 0.002, 5);
            let mut d_s = vals(n, 41);
            let grad = vals(n, 43);
            let mut m_s = vals(n, 47);
            let mut v_s: Vec<f32> = vals(n, 53).iter().map(|x| x * x).collect();
            let (mut d_v, mut m_v, mut v_v) = (d_s.clone(), m_s.clone(), v_s.clone());
            adam_update_scalar(&mut d_s, &grad, &mut m_s, &mut v_s, &k);
            // SAFETY: feature-detected above.
            unsafe { adam_update_avx2(&mut d_v, &grad, &mut m_v, &mut v_v, &k) };
            for (a, b) in d_s.iter().zip(&d_v) {
                assert_eq!(a.to_bits(), b.to_bits(), "data lanes diverged at n={n}");
            }
            for (a, b) in m_s.iter().zip(&m_v) {
                assert_eq!(a.to_bits(), b.to_bits(), "m lanes diverged at n={n}");
            }
            for (a, b) in v_s.iter().zip(&v_v) {
                assert_eq!(a.to_bits(), b.to_bits(), "v lanes diverged at n={n}");
            }
        }
    }

    #[test]
    fn row_reductions_are_zero_suffix_transparent() {
        // The jagged batched ops pad rows with exact zeros; the reductions
        // must be bitwise identical with and without the padding.
        let live = vals(13, 21);
        for pad in [1usize, 3, 8, 19] {
            let mut padded = live.clone();
            padded.extend(std::iter::repeat_n(0.0, pad));
            assert!(row_sum(&padded) == row_sum(&live), "sum not transparent");
            let w_live = vals(13, 5);
            let mut w_padded = w_live.clone();
            w_padded.extend(std::iter::repeat_n(0.0, pad));
            assert!(
                row_dot(&padded, &w_padded) == row_dot(&live, &w_live),
                "dot not transparent"
            );
        }
    }
}
