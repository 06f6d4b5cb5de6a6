//! Micro-kernels and runtime SIMD dispatch for the packed GEMM engine.
//!
//! The engine computes `C += A · B` one `MR × NR` register tile at a time
//! from panels packed by [`crate::pack`]; these tile kernels are the only
//! packed-panel kernels GEMM has. [`microkernel`] reads `f32` B panels and
//! [`microkernel_u16`] widens `bf16`/`f16` ones. Two implementations of
//! each share that contract:
//!
//! * an explicit AVX2+FMA kernel (`x86_64` only), selected at runtime via
//!   `is_x86_feature_detected!`, and
//! * a portable scalar kernel with the identical accumulation order, used
//!   as the fallback and as the reference side of the scalar-vs-SIMD
//!   property tests.
//!
//! [`gemm_unpacked`] runs the same per-element chains straight from
//! row-major operands, for `MC`-row chunks small enough that packing
//! would only copy them: in the same tiles, or, for a product at most
//! [`NARROW_N`] columns wide, as row dots over 8 rows at a time.
//!
//! Setting `LRD_FORCE_SCALAR=1` in the environment pins dispatch to the
//! scalar kernel (CI runs the suite both ways so the portable path cannot
//! rot).

use crate::dtype::{decode_u16, KernelDtype};
use std::sync::OnceLock;

/// Micro-tile height: rows of C updated per kernel invocation.
pub const MR: usize = 6;

/// Micro-tile width: columns of C updated per kernel invocation. Two AVX2
/// vectors of 8 lanes each.
pub const NR: usize = 16;

/// Which kernel implementation executes the micro-tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernel (always available).
    Scalar,
    /// AVX2 + FMA kernel (`x86_64` with runtime feature detection).
    Avx2Fma,
}

impl Backend {
    /// The best SIMD backend the running CPU supports, if any.
    pub fn detect_simd() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Some(Backend::Avx2Fma);
            }
        }
        None
    }

    /// The backend every public matmul entry point uses: the detected SIMD
    /// kernel, unless `LRD_FORCE_SCALAR=1` pins the scalar fallback.
    /// Resolved once per process.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let forced = std::env::var("LRD_FORCE_SCALAR")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            if forced {
                Backend::Scalar
            } else {
                Backend::detect_simd().unwrap_or(Backend::Scalar)
            }
        })
    }

    /// Human-readable backend name (benchmark reports).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
        }
    }
}

/// Whether the CPU has the F16C half↔single converter instructions. The
/// `f16` panel kernel needs `vcvtph2ps`; without it, `f16` panels run
/// through the portable decoder. Resolved once per process.
pub fn has_f16c() -> bool {
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Executes one micro-tile: `C[0..MR][0..NR] += Apanel · Bpanel` over `kc`
/// packed steps, where `c` addresses the tile's top-left element and `ldc`
/// is C's row stride. The caller guarantees the full tile lies inside C
/// (edge tiles go through a local buffer with `ldc = NR`).
///
/// `a` holds `kc` groups of `MR` values (one A column step per group); `b`
/// holds `kc` groups of `NR` values (one B row step per group).
#[inline]
pub fn microkernel(backend: Backend, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    debug_assert!(kc == 0 || c.len() >= (MR - 1) * ldc + NR);
    match backend {
        Backend::Scalar => microkernel_scalar(kc, a, b, c, ldc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        Backend::Avx2Fma => unsafe { microkernel_avx2(kc, a, b, c, ldc) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => microkernel_scalar(kc, a, b, c, ldc),
    }
}

/// Portable reference micro-kernel. Accumulates each C element over `kc` in
/// the same order as the SIMD kernel so the two differ only by FMA's
/// missing intermediate rounding.
fn microkernel_scalar(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        let bp = &b[kk * NR..kk * NR + NR];
        for (accr, &ar) in acc.iter_mut().zip(ap) {
            for (av, &bv) in accr.iter_mut().zip(bp) {
                *av += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

/// AVX2+FMA micro-kernel: 12 YMM accumulators (6 rows × 2 vectors), one
/// broadcast per A element, two loads per B step.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that the slice
/// bounds documented on [`microkernel`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are
    // present and the slice bounds documented on `microkernel` hold — so
    // every pointer formed below stays inside `a`, `b`, or `c`.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

/// Widest product (`n` columns of C) that [`gemm_unpacked`]'s AVX2 body
/// runs as row dots (`dots_avx2`) instead of `NR`-column tiles. At `n = 1`
/// (the `x·U1` and `h1·Γ` stages of a rank-1 factored product) a tile
/// strip would run 16 lanes with 15 of them masked off. The value is the
/// measured crossover (DESIGN.md §7).
pub const NARROW_N: usize = 10;

/// Lane masks: the 8 lanes starting at `8 - w` enable the first `w`.
#[cfg(target_arch = "x86_64")]
const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// `C += A · B` for a product whose operands fit one `KC` block of the
/// packed engine, reading them where they lie: `a` is row-major `m × k`,
/// `b` row-major `k × n`, `c` row-major `m × n`.
///
/// The packed engine would copy every element of such a product into its
/// panels once and read it back once, so this kernel skips the copy. It
/// walks the same `MR × NR` tiles (`NR`-column strips outer, `MR`-row
/// tiles inner, a short last tile where `m % MR != 0`) and masks the
/// ragged right edge instead of zero-padding it. On `avx2+fma` a narrow
/// product (`n ≤` [`NARROW_N`]) instead runs each block of 8 rows as row
/// dots, one 8-lane accumulator per column, and leaves only the last
/// `m % 8` rows to the tiles. Either way each C element still accumulates
/// its products from zero over `k` in order and is then added to C once,
/// so on a single `KC` block the bits equal [`microkernel`]'s for the same
/// backend.
pub fn gemm_unpacked(
    backend: Backend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match backend {
        Backend::Scalar => gemm_unpacked_scalar(m, k, n, a, b, c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection,
        // and the assert above gives the slice bounds the kernel relies on.
        Backend::Avx2Fma => unsafe { gemm_unpacked_avx2(m, k, n, a, b, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => gemm_unpacked_scalar(m, k, n, a, b, c),
    }
}

/// Portable twin of the unpacked AVX2 kernel, in [`microkernel_scalar`]'s
/// accumulation order.
fn gemm_unpacked_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow = &b[kk * n + j0..][..nr];
                for (r, accr) in acc[..mr].iter_mut().enumerate() {
                    let ar = a[(i0 + r) * k + kk];
                    for (av, &bv) in accr.iter_mut().zip(brow) {
                        *av += ar * bv;
                    }
                }
            }
            for (r, accr) in acc[..mr].iter().enumerate() {
                let crow = &mut c[(i0 + r) * n + j0..][..nr];
                for (cv, &av) in crow.iter_mut().zip(accr) {
                    *cv += av;
                }
            }
        }
    }
}

/// AVX2+FMA unpacked kernel: a narrow product's whole 8-row blocks as row
/// dots, then strips of `NR` columns over the remaining rows, each swept
/// by `R`-row tiles with `R` fixed at compile time.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, that `m`, `k`, `n`
/// are non-zero, and that `a`, `b`, `c` hold at least `m·k`, `k·n`, `m·n`
/// values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_unpacked_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut rows_done = 0;
    if n <= NARROW_N && m >= 8 {
        rows_done = m - m % 8;
        // SAFETY: rows `0..rows_done` of the operands the caller vouches
        // for, which is `dots_avx2`'s contract.
        unsafe { dots_avx2(rows_done, k, n, ap, bp, cp) };
    }
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        let mut i0 = rows_done;
        while i0 < m {
            let mr = MR.min(m - i0);
            // SAFETY: rows `i0..i0 + mr` and columns `j0..j0 + nr` lie
            // inside the `m × k`, `k × n`, `m × n` operands the caller
            // vouches for, which is the tile contract.
            unsafe {
                let (at, bt, ct) = (ap.add(i0 * k), bp.add(j0), cp.add(i0 * n + j0));
                match mr {
                    6 => tile_avx2::<6>(k, n, at, bt, ct, nr),
                    5 => tile_avx2::<5>(k, n, at, bt, ct, nr),
                    4 => tile_avx2::<4>(k, n, at, bt, ct, nr),
                    3 => tile_avx2::<3>(k, n, at, bt, ct, nr),
                    2 => tile_avx2::<2>(k, n, at, bt, ct, nr),
                    _ => tile_avx2::<1>(k, n, at, bt, ct, nr),
                }
            }
            i0 += mr;
        }
    }
}

/// Row dots for a narrow product (`n ≤` [`NARROW_N`]): dispatches to
/// [`dots_avx2_n`] with `N = n`. Kept out of line so the tile loop of
/// [`gemm_unpacked_avx2`] compiles as it does without it.
///
/// # Safety
///
/// As [`dots_avx2_n`], with `N = n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline(never)]
unsafe fn dots_avx2(m8: usize, k: usize, n: usize, a: *const f32, b: *const f32, c: *mut f32) {
    // SAFETY: forwarded from this fn's contract.
    unsafe {
        match n {
            1 => dots_avx2_n::<1>(m8, k, a, b, c),
            2 => dots_avx2_n::<2>(m8, k, a, b, c),
            3 => dots_avx2_n::<3>(m8, k, a, b, c),
            4 => dots_avx2_n::<4>(m8, k, a, b, c),
            5 => dots_avx2_n::<5>(m8, k, a, b, c),
            6 => dots_avx2_n::<6>(m8, k, a, b, c),
            7 => dots_avx2_n::<7>(m8, k, a, b, c),
            8 => dots_avx2_n::<8>(m8, k, a, b, c),
            9 => dots_avx2_n::<9>(m8, k, a, b, c),
            _ => dots_avx2_n::<10>(m8, k, a, b, c),
        }
    }
}

/// Row dots for a product `N` columns wide: `C[0..m8] += A[0..m8] · B`,
/// 8 rows at a time (`m8 % 8 == 0`). Each 8-row block of A is transposed
/// in registers, 8 k-steps per `8 × 8` transpose, so lane `r` of step `s`
/// holds `A[i0 + r][kk + s]`. That vector then feeds all `N` columns: one
/// FMA into column `j`'s accumulator per k-step, with `B[kk + s][j]`
/// broadcast. Lane `r` of accumulator `j` is therefore C element
/// `(i0 + r, j)`'s chain, from `+0.0` in k order, exactly as a tile lane
/// runs it; it is added to C once at the end.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, that `k > 0`, that
/// `a` addresses `m8` rows of `k` values at stride `k`, that `b`
/// addresses `k` rows of `N` values, and that `c` addresses `m8` rows of
/// `N` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn dots_avx2_n<const N: usize>(
    m8: usize,
    k: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract. Full 8-step blocks
    // read `A[i0 + r][kk..kk + 8]` inside row `i0 + r`; the last, short
    // block reads through a lane mask, which never accesses a disabled
    // lane. Stores touch only C elements `(i0..i0 + 8, 0..N)`.
    unsafe {
        let mut i0 = 0;
        while i0 < m8 {
            let at = a.add(i0 * k);
            let mut acc = [_mm256_setzero_ps(); N];
            let mut kk = 0;
            while kk < k {
                let w = 8.min(k - kk);
                let mut rows = [_mm256_setzero_ps(); 8];
                if w == 8 {
                    for (r, v) in rows.iter_mut().enumerate() {
                        *v = _mm256_loadu_ps(at.add(r * k + kk));
                    }
                } else {
                    let mask = _mm256_loadu_si256(LANES.as_ptr().add(8 - w) as *const __m256i);
                    for (r, v) in rows.iter_mut().enumerate() {
                        *v = _mm256_maskload_ps(at.add(r * k + kk), mask);
                    }
                }
                let steps = transpose8(rows);
                for (s, &col) in steps[..w].iter().enumerate() {
                    let brow = b.add((kk + s) * N);
                    for (j, acc_j) in acc.iter_mut().enumerate() {
                        *acc_j = _mm256_fmadd_ps(col, _mm256_broadcast_ss(&*brow.add(j)), *acc_j);
                    }
                }
                kk += w;
            }
            let dst = c.add(i0 * N);
            if N == 1 {
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc[0]));
            } else {
                for (j, acc_j) in acc.iter().enumerate() {
                    let mut lanes = [0.0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), *acc_j);
                    for (r, &v) in lanes.iter().enumerate() {
                        *dst.add(r * N + j) += v;
                    }
                }
            }
            i0 += 8;
        }
    }
}

/// `8 × 8` transpose in registers: lane `r` of output `s` is lane `s` of
/// input `r`. Pure data movement, so every value keeps its bits.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8(r: [core::arch::x86_64::__m256; 8]) -> [core::arch::x86_64::__m256; 8] {
    use core::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// One `R × nr` tile of [`gemm_unpacked_avx2`] (`nr ≤ NR`): `R` broadcasts
/// from A rows of stride `k` and two B loads of row stride `n` per k-step,
/// into `2·R` accumulators that are added to C once at the end. A ragged
/// tile (`nr < NR`) loads and stores through lane masks, so no lane past
/// column `nr` is read or written.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, that `a` addresses
/// `R` rows of `k` values at stride `k`, that `b` addresses `k` rows of
/// `nr` values at stride `n`, and that `c` addresses `R` rows of `nr`
/// values at stride `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn tile_avx2<const R: usize>(
    k: usize,
    n: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    nr: usize,
) {
    use core::arch::x86_64::*;
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    // SAFETY: the caller upholds this fn's contract. Full tiles touch only
    // the `R × NR` tile. Ragged tiles touch memory only through
    // `maskload`/`maskstore`, which never access a disabled lane; their
    // second-half address is formed with `wrapping_add`, so it need not lie
    // inside the operand when all its lanes are disabled.
    unsafe {
        if nr == NR {
            for kk in 0..k {
                let brow = b.add(kk * n);
                let b0 = _mm256_loadu_ps(brow);
                let b1 = _mm256_loadu_ps(brow.add(8));
                for r in 0..R {
                    let ar = _mm256_broadcast_ss(&*a.add(r * k + kk));
                    lo[r] = _mm256_fmadd_ps(ar, b0, lo[r]);
                    hi[r] = _mm256_fmadd_ps(ar, b1, hi[r]);
                }
            }
            for r in 0..R {
                let dst = c.add(r * n);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo[r]));
                _mm256_storeu_ps(
                    dst.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi[r]),
                );
            }
        } else {
            let lanes = LANES.as_ptr();
            let m0 = _mm256_loadu_si256(lanes.add(8 - nr.min(8)) as *const __m256i);
            let m1 = _mm256_loadu_si256(lanes.add(8 - nr.saturating_sub(8)) as *const __m256i);
            for kk in 0..k {
                let brow = b.add(kk * n);
                let b0 = _mm256_maskload_ps(brow, m0);
                let b1 = _mm256_maskload_ps(brow.wrapping_add(8), m1);
                for r in 0..R {
                    let ar = _mm256_broadcast_ss(&*a.add(r * k + kk));
                    lo[r] = _mm256_fmadd_ps(ar, b0, lo[r]);
                    hi[r] = _mm256_fmadd_ps(ar, b1, hi[r]);
                }
            }
            for r in 0..R {
                let dst = c.add(r * n);
                let dst_hi = dst.wrapping_add(8);
                let sum0 = _mm256_add_ps(_mm256_maskload_ps(dst, m0), lo[r]);
                let sum1 = _mm256_add_ps(_mm256_maskload_ps(dst_hi, m1), hi[r]);
                _mm256_maskstore_ps(dst, m0, sum0);
                _mm256_maskstore_ps(dst_hi, m1, sum1);
            }
        }
    }
}

/// Executes one micro-tile against a reduced-precision B panel:
/// `C[0..MR][0..NR] += Apanel · decode(Bpanel)` over `kc` packed steps.
/// The A panel stays `f32`; the B panel holds `bf16` or `f16` bit patterns
/// (per `dtype`) that are widened to `f32` in registers before the FMA, so
/// the accumulation order — and therefore the determinism contract — is
/// identical to [`microkernel`] on pre-widened panels.
///
/// `f16` panels use the F16C converter when the CPU has it; otherwise they
/// fall back to the portable decoder (slow but correct, and bit-identical
/// because both decode exactly).
#[inline]
pub fn microkernel_u16(
    backend: Backend,
    dtype: KernelDtype,
    kc: usize,
    a: &[f32],
    b: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    debug_assert!(kc == 0 || c.len() >= (MR - 1) * ldc + NR);
    debug_assert!(dtype != KernelDtype::F32, "f32 panels use microkernel");
    match (backend, dtype) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        (Backend::Avx2Fma, KernelDtype::Bf16) => unsafe { microkernel_avx2_bf16(kc, a, b, c, ldc) },
        #[cfg(target_arch = "x86_64")]
        (Backend::Avx2Fma, KernelDtype::F16) if has_f16c() => {
            // SAFETY: guarded by runtime detection of avx2+fma (backend)
            // and f16c (the branch condition).
            unsafe { microkernel_avx2_f16(kc, a, b, c, ldc) }
        }
        _ => microkernel_scalar_u16(dtype, kc, a, b, c, ldc),
    }
}

/// Portable reduced-precision micro-kernel: decodes each B value with the
/// software converter, then accumulates in the same order as
/// [`microkernel_scalar`].
fn microkernel_scalar_u16(
    dtype: KernelDtype,
    kc: usize,
    a: &[f32],
    b: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let mut brow = [0.0f32; NR];
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        for (w, &bits) in brow.iter_mut().zip(&b[kk * NR..kk * NR + NR]) {
            *w = decode_u16(dtype, bits);
        }
        for (accr, &ar) in acc.iter_mut().zip(ap) {
            for (av, &bv) in accr.iter_mut().zip(&brow) {
                *av += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

/// AVX2+FMA micro-kernel over a `bf16` B panel: each k-step loads 16
/// halves as two `__m128i`, widens them to `f32` with a 16-bit shift
/// (`bf16` is a truncated `f32`), and proceeds exactly like the `f32`
/// kernel. Two extra integer ops per B vector against half the B traffic.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that the slice
/// bounds documented on [`microkernel_u16`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2_bf16(kc: usize, a: &[f32], b: &[u16], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are present
    // and the slice bounds hold — so every pointer below stays in bounds.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let raw0 = _mm_loadu_si128(bp as *const __m128i);
            let raw1 = _mm_loadu_si128(bp.add(8) as *const __m128i);
            let b0 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw0)));
            let b1 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw1)));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

/// AVX2+FMA+F16C micro-kernel over an `f16` B panel: `vcvtph2ps` widens 8
/// halves per load, otherwise identical to the `f32` kernel.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, FMA, *and* F16C, and that the
/// slice bounds documented on [`microkernel_u16`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn microkernel_avx2_f16(kc: usize, a: &[f32], b: &[u16], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA+F16C are
    // present and the slice bounds hold — so every pointer below stays in
    // bounds.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_cvtph_ps(_mm_loadu_si128(bp as *const __m128i));
            let b1 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(8) as *const __m128i));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// The oracle every GEMM route must equal bit for bit: C element
    /// `(i, j)` as its explicit chain, from `+0.0` over `k` in order
    /// (`mul_add` on `avx2+fma`, `acc += a·b` on scalar), added to a zero C
    /// once per `split`-deep block of k, as the engine splits at `KC`.
    pub(crate) fn chain_reference(
        backend: Backend,
        [m, k, n]: [usize; 3],
        a: &[f32],
        b: &[f32],
        split: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for k0 in (0..k).step_by(split) {
                    let mut acc = 0.0f32;
                    for kk in k0..(k0 + split).min(k) {
                        let (x, y) = (a[i * k + kk], b[kk * n + j]);
                        acc = match backend {
                            Backend::Scalar => acc + x * y,
                            Backend::Avx2Fma => x.mul_add(y, acc),
                        };
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    /// Asserts `got` equals `want` bit for bit, counting any two NaNs as
    /// equal (which input NaN an FMA propagates is not part of the
    /// contract).
    pub(crate) fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: element {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// Random normal values with `-0.0`, `±inf` and NaN planted at a few
    /// seeded positions when `specials` is set.
    pub(crate) fn values(len: usize, rng: &mut Rng64, specials: bool) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
        if specials {
            for special in [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0] {
                let at = (rng.next_u64() % len as u64) as usize;
                v[at] = special;
            }
        }
        v
    }

    /// The backends this host can run.
    pub(crate) fn backends() -> Vec<Backend> {
        std::iter::once(Backend::Scalar)
            .chain(Backend::detect_simd())
            .collect()
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of multiply-adds")]
    fn unpacked_routes_match_each_elements_chain() {
        // Row dots (`n ≤ NARROW_N`, whole 8-row blocks), the tiles left
        // after them (`m % 8` rows), and plain tiles (`n > NARROW_N`),
        // against each element's chain, with and without special values.
        let mut rng = Rng64::new(41);
        let ms = (1..=17).chain([32, 1024]);
        for m in ms {
            for k in [1usize, 7, 8, 9, 40, 112, 256, 257] {
                for n in (1..=NARROW_N + 1).chain([NR + 1]) {
                    let specials = (m + k + n) % 3 == 0;
                    let a = values(m * k, &mut rng, specials);
                    let b = values(k * n, &mut rng, specials);
                    for backend in backends() {
                        let mut c = vec![0.0f32; m * n];
                        gemm_unpacked(backend, m, k, n, &a, &b, &mut c);
                        let want = chain_reference(backend, [m, k, n], &a, &b, k);
                        assert_same_bits(&c, &want, &format!("{backend:?} ({m},{k},{n})"));
                    }
                }
            }
        }
    }

    #[test]
    fn unpacked_adds_each_chain_to_c_once() {
        // C is accumulated into, not overwritten: each element gains its
        // whole chain in one add, whatever values C already holds.
        let mut rng = Rng64::new(42);
        for (m, k, n) in [(16usize, 40usize, 1usize), (24, 9, 3), (13, 40, NARROW_N)] {
            let a = values(m * k, &mut rng, false);
            let b = values(k * n, &mut rng, false);
            let c0 = values(m * n, &mut rng, true);
            for backend in backends() {
                let mut c = c0.clone();
                gemm_unpacked(backend, m, k, n, &a, &b, &mut c);
                let chains = chain_reference(backend, [m, k, n], &a, &b, k);
                let want: Vec<f32> = c0.iter().zip(&chains).map(|(x, y)| x + y).collect();
                assert_same_bits(&c, &want, &format!("{backend:?} ({m},{k},{n})"));
            }
        }
    }

    fn naive_tile(kc: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; MR * NR];
        for kk in 0..kc {
            for r in 0..MR {
                for j in 0..NR {
                    c[r * NR + j] += a[kk * MR + r] * b[kk * NR + j];
                }
            }
        }
        c
    }

    fn packed_inputs(kc: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..kc * MR)
            .map(|i| ((i * 7 % 23) as f32) * 0.13 - 1.0)
            .collect();
        let b: Vec<f32> = (0..kc * NR)
            .map(|i| ((i * 5 % 19) as f32) * 0.11 - 0.9)
            .collect();
        (a, b)
    }

    #[test]
    fn scalar_kernel_matches_naive() {
        for kc in [0usize, 1, 3, 17, 64] {
            let (a, b) = packed_inputs(kc.max(1));
            let mut c = vec![0.0f32; MR * NR];
            microkernel(Backend::Scalar, kc, &a, &b, &mut c, NR);
            let want = naive_tile(kc, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn simd_kernel_matches_scalar() {
        let Some(simd) = Backend::detect_simd() else {
            return;
        };
        for kc in [1usize, 2, 7, 40, 256] {
            let (a, b) = packed_inputs(kc);
            let mut cs = vec![0.5f32; MR * NR];
            let mut cv = vec![0.5f32; MR * NR];
            microkernel(Backend::Scalar, kc, &a, &b, &mut cs, NR);
            microkernel(simd, kc, &a, &b, &mut cv, NR);
            for (x, y) in cs.iter().zip(&cv) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn kernel_respects_row_stride() {
        let (a, b) = packed_inputs(5);
        let ldc = NR + 3;
        let mut c = vec![0.0f32; MR * ldc];
        microkernel(Backend::Scalar, 5, &a, &b, &mut c, ldc);
        let want = naive_tile(5, &a, &b);
        for r in 0..MR {
            for j in 0..NR {
                assert!((c[r * ldc + j] - want[r * NR + j]).abs() < 1e-4);
            }
            for j in NR..ldc.min(NR + 3) {
                if r * ldc + j < c.len() {
                    assert_eq!(c[r * ldc + j], 0.0, "stride gap must stay untouched");
                }
            }
        }
    }

    #[test]
    fn u16_scalar_kernel_matches_widened_f32_kernel() {
        use crate::dtype::{decode_u16, encode_u16};
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for kc in [1usize, 3, 17, 64] {
                let (a, b) = packed_inputs(kc);
                let bq: Vec<u16> = b.iter().map(|&v| encode_u16(dtype, v)).collect();
                let bw: Vec<f32> = bq.iter().map(|&v| decode_u16(dtype, v)).collect();
                let mut cq = vec![0.25f32; MR * NR];
                let mut cw = vec![0.25f32; MR * NR];
                microkernel_u16(Backend::Scalar, dtype, kc, &a, &bq, &mut cq, NR);
                microkernel(Backend::Scalar, kc, &a, &bw, &mut cw, NR);
                assert_eq!(cq, cw, "{dtype:?} kc={kc}");
            }
        }
    }

    #[test]
    fn u16_simd_kernel_matches_scalar_within_fma_tolerance() {
        let Some(simd) = Backend::detect_simd() else {
            return;
        };
        use crate::dtype::encode_u16;
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for kc in [1usize, 2, 7, 40, 256] {
                let (a, b) = packed_inputs(kc);
                let bq: Vec<u16> = b.iter().map(|&v| encode_u16(dtype, v)).collect();
                let mut cs = vec![0.5f32; MR * NR];
                let mut cv = vec![0.5f32; MR * NR];
                microkernel_u16(Backend::Scalar, dtype, kc, &a, &bq, &mut cs, NR);
                microkernel_u16(simd, dtype, kc, &a, &bq, &mut cv, NR);
                for (x, y) in cs.iter().zip(&cv) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + x.abs()),
                        "{dtype:?} kc={kc}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn f16c_detection_is_stable() {
        assert_eq!(has_f16c(), has_f16c());
    }

    #[test]
    fn active_backend_is_stable() {
        assert_eq!(Backend::active(), Backend::active());
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2Fma.name(), "avx2+fma");
    }
}
