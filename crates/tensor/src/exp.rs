//! Vectorised `exp` over a slice, bit-identical to glibc's `expf`.
//!
//! [`exp_inplace`] is the one entry point. On the scalar backend it calls
//! `f32::exp` per element. On `avx2+fma` it runs an AVX2 replica of
//! glibc's FMA build of `expf` (`sysdeps/ieee754/flt-32/e_expf.c`, the
//! `__expf_fma` ifunc variant) four lanes at a time:
//!
//! * `x·32/ln2 = k + r` with `k` rounded to an integer by the `0x1.8p52`
//!   shift trick and `r ∈ [-1/2, 1/2]`;
//! * `2^(k/32)` from a 32-entry table of `2^(i/32)` with `k >> 5` added
//!   straight into the exponent bits;
//! * `2^(r/32)` from a degree-3 `f64` polynomial;
//! * the same five FMA contractions the compiler made in `libm.so.6`
//!   (`fma(InvLn2N, x, SHIFT)`, `fma(InvLn2N, x, -kd)`, `fma(r, C0, C1)`,
//!   `fma(r, C2, 1)`, then `fma(z, r², y)`), with the table and the
//!   constants copied bit for bit from its `.rodata`. Only the second one
//!   ever changes a rounded result (two inputs in 2³²), but all five are
//!   kept so the arithmetic is libm's own.
//!
//! Inputs on libm's special-case path (top 12 bits of `|x|` above
//! `0x42a`: `|x| ≥ 88`, infinities and NaN) take `f32::exp` itself, so
//! overflow, underflow and NaN handling stay libm's own. Each element's
//! result depends on that element alone, never on its group-mates. The result therefore matches `f32::exp` bit for bit on
//! x86_64 glibc (checked over all 2³² inputs by an ignored test), which
//! puts `exp` inside the per-backend bit-identity contract next to the
//! GEMM (DESIGN.md §7).

use crate::kernel::Backend;

/// Replaces every element of `xs` with `e^x`, on the active backend.
pub fn exp_inplace(xs: &mut [f32]) {
    match Backend::active() {
        Backend::Scalar => exp_scalar(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        Backend::Avx2Fma => unsafe { exp_avx2(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => exp_scalar(xs),
    }
}

/// Whether [`exp_inplace`] gives `f32::exp`'s bits on this host: always
/// on the scalar backend, and on `avx2+fma` only where `f32::exp` is the
/// glibc `expf` the AVX2 path replicates.
pub fn exp_matches_f32_exp() -> bool {
    Backend::active() == Backend::Scalar || cfg!(all(target_arch = "x86_64", target_env = "gnu"))
}

/// libm `expf`, one element at a time.
pub(crate) fn exp_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = x.exp();
    }
}

/// `2^(i/32)` as `f64` bits, less `i << 47`, for `i` in `0..32`
/// (glibc's `__exp2f_data.tab`): adding `k << 47` to entry `k % 32` gives
/// the bits of `2^(k/32)` for any `|k| < 150·32`.
#[cfg(target_arch = "x86_64")]
static EXP2_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2`.
#[cfg(target_arch = "x86_64")]
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds a double to an integer held in its low
/// mantissa bits.
#[cfg(target_arch = "x86_64")]
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Polynomial for `2^(r/32)`: `C0·r³ + C1·r² + C2·r + 1`.
#[cfg(target_arch = "x86_64")]
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
#[cfg(target_arch = "x86_64")]
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
#[cfg(target_arch = "x86_64")]
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// Largest `(bits >> 20) & 0x7ff` that libm's fast path takes; above it
/// lie `|x| ≥ 88`, infinities and NaN.
#[cfg(target_arch = "x86_64")]
const FAST_TOP12_MAX: i32 = 0x42a;

/// AVX2 replica of glibc's FMA `expf`, four lanes per step; a tail shorter
/// than four runs through a zero-padded group.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn exp_avx2(xs: &mut [f32]) {
    let mut groups = xs.chunks_exact_mut(4);
    for group in &mut groups {
        // SAFETY: the caller guarantees AVX2+FMA; `group` has 4 elements.
        unsafe { exp4_avx2(group) };
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        let mut buf = [0.0f32; 4];
        buf[..tail.len()].copy_from_slice(tail);
        // SAFETY: the caller guarantees AVX2+FMA; `buf` has 4 elements.
        unsafe { exp4_avx2(&mut buf) };
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// One four-lane group of [`exp_avx2`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA. Only `x[..4]` is
/// read and written; a shorter slice panics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
pub(crate) unsafe fn exp4_avx2(x: &mut [f32]) {
    use core::arch::x86_64::*;
    let orig = [x[0], x[1], x[2], x[3]];
    let p = x.as_mut_ptr();
    // SAFETY: the caller guarantees AVX2+FMA; indexing `orig` above proved
    // four elements behind `p`; every gather index is masked to `0..32`,
    // inside `EXP2_TAB`.
    let special = unsafe {
        let xf = _mm_loadu_ps(p);
        let top12 = _mm_and_si128(
            _mm_srli_epi32::<20>(_mm_castps_si128(xf)),
            _mm_set1_epi32(0x7ff),
        );
        let special = _mm_cmpgt_epi32(top12, _mm_set1_epi32(FAST_TOP12_MAX));
        let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let xd = _mm256_cvtps_pd(xf);
        // z = x·32/ln2 = k + r; kd = round(z), ki its integer bits.
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        // s = 2^(k/32) = tab[k % 32] + (k << 47).
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP2_TAB.as_ptr().cast::<i64>(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        // 2^(r/32) ≈ (C0·r + C1)·r² + (C2·r + 1).
        let z = _mm256_fmadd_pd(r, _mm256_set1_pd(C0), _mm256_set1_pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(r, _mm256_set1_pd(C2), _mm256_set1_pd(1.0));
        let y = _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s);
        _mm_storeu_ps(p, _mm256_cvtpd_ps(y));
        _mm_movemask_ps(_mm_castsi128_ps(special))
    };
    // Lanes on libm's special path take libm's own result.
    if special != 0 {
        for (lane, (v, &xv)) in x.iter_mut().zip(&orig).enumerate() {
            if special >> lane & 1 != 0 {
                *v = xv.exp();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `exp_inplace` gives `f32::exp`'s bits for every input.
    fn assert_matches_libm(inputs: &[f32]) {
        let mut got = inputs.to_vec();
        exp_inplace(&mut got);
        for (&x, &y) in inputs.iter().zip(&got) {
            assert_eq!(
                y.to_bits(),
                x.exp().to_bits(),
                "exp({x:e}) [bits {:#010x}]",
                x.to_bits()
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri perturbs each f32::exp call by a few ulp")]
    fn special_values_match_libm() {
        if !exp_matches_f32_exp() {
            return;
        }
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0001), // signalling NaN
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            88.0,
            -88.0,
            88.72284,
            88.72285,
            -103.27893,
            -103.97208,
            -104.0,
            1.0,
            -1.0,
            // The only two fast-path inputs whose result changes when
            // `r = x·InvLn2N − kd` is not fused (found by exhaustive search;
            // the other contractions never change the rounded result).
            f32::from_bits(0x4202_422f),
            f32::from_bits(0xc27c_65d9),
        ];
        assert_matches_libm(&specials);
        // Each special among fast-path neighbours, at varying offsets and
        // tail lengths.
        for (i, &s) in specials.iter().enumerate() {
            for len in 1..=9 {
                let mut v: Vec<f32> = (0..len).map(|j| j as f32 * -0.37).collect();
                v[i % len] = s;
                assert_matches_libm(&v);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of inputs")]
    fn special_path_boundary_buckets_match_libm() {
        if !exp_matches_f32_exp() {
            return;
        }
        // Every input whose top 12 bits are 0x42a (last fast bucket) or
        // 0x42b (first special bucket), both signs.
        for top in [0x42a_u32, 0x42b, 0xc2a, 0xc2b] {
            let inputs: Vec<f32> = (0..1u32 << 20)
                .map(|lo| f32::from_bits(top << 20 | lo))
                .collect();
            assert_matches_libm(&inputs);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of inputs")]
    fn dense_sweep_of_negative_range_matches_libm() {
        if !exp_matches_f32_exp() {
            return;
        }
        // Softmax and SiLU feed exp from [-100, 0]: a uniform grid plus a
        // stride through every binade's bit patterns.
        let grid: Vec<f32> = (0..=1_000_000).map(|i| i as f32 * -1e-4).collect();
        assert_matches_libm(&grid);
        let top = (-100.0f32).to_bits();
        let strided: Vec<f32> = (0x8000_0000u32..=top)
            .step_by(997)
            .map(f32::from_bits)
            .collect();
        assert_matches_libm(&strided);
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri perturbs each f32::exp call by a few ulp")]
    fn empty_and_short_slices() {
        exp_inplace(&mut []);
        if exp_matches_f32_exp() {
            for len in 1..=8 {
                let v: Vec<f32> = (0..len).map(|i| 0.5 - i as f32).collect();
                assert_matches_libm(&v);
            }
        }
    }

    /// Every one of the 2³² inputs. Run in release:
    /// `cargo test --release -p lrd-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    fn all_inputs_match_libm() {
        const CHUNK: u32 = 1 << 16;
        let mut buf = vec![0.0f32; CHUNK as usize];
        for hi in 0..=u32::MAX / CHUNK {
            for (lo, v) in buf.iter_mut().enumerate() {
                *v = f32::from_bits(hi * CHUNK + lo as u32);
            }
            exp_inplace(&mut buf);
            for (lo, &y) in buf.iter().enumerate() {
                let bits = hi * CHUNK + lo as u32;
                let want = f32::from_bits(bits).exp();
                assert_eq!(y.to_bits(), want.to_bits(), "input bits {bits:#010x}");
            }
        }
    }
}
