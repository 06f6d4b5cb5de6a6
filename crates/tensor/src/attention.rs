//! Decode attention of one session over its KV cache, with the keys held
//! in [`KEY_TILE`]-position tiles.
//!
//! A tile stores `KEY_TILE` consecutive positions as `[column][lane]`,
//! where column = `kv_head · head_dim + d` and lane = `t % KEY_TILE`, so
//! one column of a tile is one AVX2 vector of eight keys. Values stay
//! row-major. [`decode_attention`] is the one entry point; it dispatches
//! on [`Backend`] like [`crate::kernel::microkernel`]. The AVX2 kernel
//! covers the served tiny-Llama's shape ([`SERVED`]: four heads of 10,
//! one per KV head); every other shape (GQA, other widths) takes the
//! scalar twin over the same tiles.
//!
//! * **Key dots.** Eight keys per vector, the four heads as independent
//!   chains. Each dot still sums over `d` in order from `-0.0`, one `mul`
//!   then one `add` per step, and is then multiplied by `scale`; the
//!   4 × 8 block is transposed in registers into `[t][h]` rows.
//! * **Softmax.** Scores are kept as `[t][h]`, so a row is one four-lane
//!   `exp` group and each head's in-order sum is one four-lane `add` per
//!   position. Every element gets the same operations as a per-head
//!   loop: subtract the head's max, `exp` (bit-identical to `f32::exp`,
//!   see [`crate::exp`]), sum over `t` in order from `0.0`, divide.
//! * **P·V.** The 40-column row is five vectors: per position one divide
//!   turns the row's exponentials into probabilities, and a fixed
//!   `vpermps` broadcasts each head's into its columns. Each output sums
//!   `p · v` over `t` in order from `0.0`.
//!
//! No step uses FMA, so the AVX2 path and its scalar twin give the same
//! bits, and both give the bits of the plain per-head loop over
//! row-major keys (DESIGN.md §13).

use crate::exp;
use crate::kernel::Backend;

/// Positions per key tile: one AVX2 vector holds one column of a tile.
pub const KEY_TILE: usize = 8;

/// Head layout of an attention layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadShape {
    /// Query heads.
    pub n_heads: usize,
    /// Key/value heads; divides `n_heads` (grouped-query attention when
    /// smaller).
    pub n_kv_heads: usize,
    /// Width of one head.
    pub head_dim: usize,
}

impl HeadShape {
    /// Width of one cached key or value row, `n_kv_heads · head_dim`.
    pub fn width(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }
}

/// Length of the tile buffer holding `len` positions of `width`-wide
/// keys: whole tiles only.
pub fn key_tiles_len(len: usize, width: usize) -> usize {
    len.div_ceil(KEY_TILE) * KEY_TILE * width
}

/// Index of key `(t, col)` in a tile buffer of `width`-wide keys.
pub fn key_index(width: usize, t: usize, col: usize) -> usize {
    (t / KEY_TILE) * KEY_TILE * width + col * KEY_TILE + t % KEY_TILE
}

/// Length of the scratch buffer [`decode_attention`] needs for contexts
/// of up to `len` positions.
pub fn scratch_len(shape: HeadShape, len: usize) -> usize {
    probs_len(shape.n_heads, len) + 2 * shape.n_heads
}

/// The `[t][h]` probabilities of whole tiles, plus one vector of slack
/// so the P·V loop can load eight probabilities from any row.
fn probs_len(n_heads: usize, len: usize) -> usize {
    len.div_ceil(KEY_TILE) * KEY_TILE * n_heads + KEY_TILE
}

/// One session's cached keys and values.
#[derive(Debug, Clone, Copy)]
pub struct CachedKv<'a> {
    /// Keys in tiles, at least [`key_tiles_len`]`(len, width)` long.
    pub keys: &'a [f32],
    /// Values, row-major, at least `len · width` long.
    pub values: &'a [f32],
    /// Cached positions.
    pub len: usize,
}

/// The served tiny-Llama's head shape, the one the AVX2 kernel handles.
/// Every other shape takes the scalar twin, on every backend.
pub const SERVED: HeadShape = HeadShape {
    n_heads: 4,
    n_kv_heads: 4,
    head_dim: 10,
};

/// `out[h] = softmax(q_h · K_kv(h)ᵀ · scale) · V_kv(h)` for every query
/// head `h`, with `scale = 1/√head_dim` and `kv(h) = h / (n_heads /
/// n_kv_heads)`. `q` and `out` are `n_heads · head_dim` long; `out` is
/// overwritten, and an empty cache gives zeros. `scratch` holds at least
/// [`scratch_len`]`(shape, kv.len)`; its contents are ignored.
///
/// # Panics
///
/// Panics if a buffer is shorter than stated above, or if `n_kv_heads`
/// is zero or does not divide `n_heads`.
pub fn decode_attention(
    backend: Backend,
    shape: HeadShape,
    q: &[f32],
    kv: CachedKv<'_>,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let (nh, hd, len, width) = (shape.n_heads, shape.head_dim, kv.len, shape.width());
    assert!(
        shape.n_kv_heads > 0 && nh.is_multiple_of(shape.n_kv_heads),
        "n_kv_heads must divide n_heads"
    );
    assert!(q.len() == nh * hd && out.len() == nh * hd, "q/out width");
    assert!(kv.keys.len() >= key_tiles_len(len, width), "key tiles");
    assert!(kv.values.len() >= len * width, "value rows");
    assert!(scratch.len() >= scratch_len(shape, len), "scratch");
    out.fill(0.0);
    if len == 0 || hd == 0 {
        return;
    }
    let (probs, stats) = scratch.split_at_mut(probs_len(nh, len));
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection;
        // the shape is the served one and the asserts above give the
        // buffer lengths `attend_avx2` requires.
        Backend::Avx2Fma if shape == SERVED => unsafe { attend_avx2(q, kv, probs, stats, out) },
        _ => attend_scalar(shape, q, kv, probs, stats, out),
    }
}

/// Portable twin of [`attend_avx2`] for any head shape, one key dot at a
/// time over the same tiles.
fn attend_scalar(
    shape: HeadShape,
    q: &[f32],
    kv: CachedKv<'_>,
    probs: &mut [f32],
    stats: &mut [f32],
    out: &mut [f32],
) {
    let (nh, hd, width) = (shape.n_heads, shape.head_dim, shape.width());
    let group = nh / shape.n_kv_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let probs = &mut probs[..kv.len * nh];
    for (t, row) in probs.chunks_exact_mut(nh).enumerate() {
        for (h, p) in row.iter_mut().enumerate() {
            let col = (h / group) * hd;
            let mut dot = -0.0f32;
            for (d, &qd) in q[h * hd..(h + 1) * hd].iter().enumerate() {
                dot += qd * kv.keys[key_index(width, t, col + d)];
            }
            *p = dot * scale;
        }
    }
    let (max, sum) = stats[..2 * nh].split_at_mut(nh);
    max.fill(f32::NEG_INFINITY);
    for row in probs.chunks_exact(nh) {
        for (m, &s) in max.iter_mut().zip(row) {
            *m = m.max(s);
        }
    }
    for row in probs.chunks_exact_mut(nh) {
        for (s, &m) in row.iter_mut().zip(&*max) {
            *s -= m;
        }
    }
    exp::exp_scalar(probs);
    sum.fill(0.0);
    for row in probs.chunks_exact(nh) {
        for (a, &e) in sum.iter_mut().zip(row) {
            *a += e;
        }
    }
    for row in probs.chunks_exact_mut(nh) {
        for (e, &a) in row.iter_mut().zip(&*sum) {
            *e /= a;
        }
    }
    for (h, out) in out.chunks_exact_mut(hd).enumerate() {
        let col = (h / group) * hd;
        for (row, v) in probs.chunks_exact(nh).zip(kv.values.chunks_exact(width)) {
            let p = row[h];
            for (o, &vv) in out.iter_mut().zip(&v[col..col + hd]) {
                *o += p * vv;
            }
        }
    }
}

/// Width of a cached row of the served shape: five AVX2 vectors.
#[cfg(target_arch = "x86_64")]
const SERVED_WIDTH: usize = 40;

/// AVX2 decode attention for the [`SERVED`] shape.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, `kv.len > 0`, and
/// the buffer lengths [`decode_attention`] asserts for [`SERVED`]: `q`
/// is 40, `kv.keys` holds whole tiles for `kv.len` positions,
/// `kv.values` holds `kv.len` rows, `probs` is `probs_len(4, kv.len)`
/// and `stats` at least 4.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn attend_avx2(
    q: &[f32],
    kv: CachedKv<'_>,
    probs: &mut [f32],
    stats: &mut [f32],
    out: &mut [f32],
) {
    let tile_len = KEY_TILE * SERVED_WIDTH;
    let tiles = kv.keys[..kv.len.div_ceil(KEY_TILE) * tile_len].chunks_exact(tile_len);
    for (keys, scores) in tiles.zip(probs.chunks_exact_mut(KEY_TILE * 4)) {
        // SAFETY: the caller guarantees AVX2; `q` is 40, `keys` one whole
        // tile and `scores` one tile of `[t][h]` rows.
        unsafe { tile_dots(q, keys, scores) };
    }
    // SAFETY: the caller guarantees AVX2 and FMA; the live rows are rows
    // of four and `stats` holds at least 4.
    let sums = unsafe { exp_rows4(&mut probs[..kv.len * 4], stats) };
    // SAFETY: the caller guarantees AVX2 and the buffer lengths; `probs`
    // keeps its slack of one vector past the last row.
    unsafe { values_avx2(sums, probs, kv.values, kv.len, out) };
}

/// Key dots of one tile: eight keys per vector, the four heads as
/// independent chains, then `×scale`. The 4 × 8 block is transposed in
/// registers and stored as eight `[t][h]` rows.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `q` is 40 long, `keys` is
/// one whole tile (`KEY_TILE · 40`) and `scores` holds `KEY_TILE · 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn tile_dots(q: &[f32], keys: &[f32], scores: &mut [f32]) {
    use core::arch::x86_64::*;
    const HD: usize = SERVED.head_dim;
    debug_assert!(q.len() == SERVED_WIDTH && keys.len() == KEY_TILE * SERVED_WIDTH);
    debug_assert!(scores.len() == KEY_TILE * 4);
    // SAFETY: the caller guarantees AVX2 and the lengths. Head `h < 4`
    // reads `q[h·10 + d]` and tile column `h·10 + d`, i.e.
    // `keys[(h·10 + d)·8..][..8]`, for `d < 10`; the stores write
    // `scores[..32]`.
    unsafe {
        let (qp, kp) = (q.as_ptr(), keys.as_ptr());
        let mut acc = [_mm256_set1_ps(-0.0); 4];
        for d in 0..HD {
            for (h, a) in acc.iter_mut().enumerate() {
                let k = _mm256_loadu_ps(kp.add((h * HD + d) * KEY_TILE));
                let qd = _mm256_broadcast_ss(&*qp.add(h * HD + d));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(qd, k));
            }
        }
        let scale = _mm256_set1_ps(1.0 / (HD as f32).sqrt());
        let [a0, a1, a2, a3] = acc.map(|a| _mm256_mul_ps(a, scale));
        // Rows t and t + 4 share a vector after the in-lane transpose; the
        // 128-bit halves then pair up consecutive rows.
        let t0 = _mm256_unpacklo_ps(a0, a1);
        let t1 = _mm256_unpackhi_ps(a0, a1);
        let t2 = _mm256_unpacklo_ps(a2, a3);
        let t3 = _mm256_unpackhi_ps(a2, a3);
        let r04 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let r15 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let r26 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let r37 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let s = scores.as_mut_ptr();
        _mm256_storeu_ps(s, _mm256_permute2f128_ps::<0x20>(r04, r15));
        _mm256_storeu_ps(s.add(8), _mm256_permute2f128_ps::<0x20>(r26, r37));
        _mm256_storeu_ps(s.add(16), _mm256_permute2f128_ps::<0x31>(r04, r15));
        _mm256_storeu_ps(s.add(24), _mm256_permute2f128_ps::<0x31>(r26, r37));
    }
}

/// The softmax numerators of four-head `[t][h]` rows: one pass for the
/// max (four rows per step, order-free because `max` is), then per row
/// one `sub`, one four-lane `exp` and one four-lane `add` into the
/// in-order sums. Returns the sums, held in `stats[..4]`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, `p.len()` is a
/// multiple of 4 and `stats` holds at least 4.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn exp_rows4<'s>(p: &mut [f32], stats: &'s mut [f32]) -> &'s [f32] {
    use core::arch::x86_64::*;
    debug_assert!(p.len().is_multiple_of(4) && stats.len() >= 4);
    // SAFETY: the caller guarantees AVX2+FMA and the lengths; every load
    // and store addresses a whole chunk of `p` or `stats[..4]`.
    unsafe {
        // `max_ps(s, m)` returns `m` when `s` is NaN: `f32::max`'s rule.
        let mut quads = p.chunks_exact(16);
        let (mut m0, mut m1) = (
            _mm256_set1_ps(f32::NEG_INFINITY),
            _mm256_set1_ps(f32::NEG_INFINITY),
        );
        for quad in &mut quads {
            m0 = _mm256_max_ps(_mm256_loadu_ps(quad.as_ptr()), m0);
            m1 = _mm256_max_ps(_mm256_loadu_ps(quad.as_ptr().add(8)), m1);
        }
        let m = _mm256_max_ps(m0, m1);
        let mut max = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps::<1>(m));
        for row in quads.remainder().chunks_exact(4) {
            max = _mm_max_ps(_mm_loadu_ps(row.as_ptr()), max);
        }
        let mut sum = _mm_setzero_ps();
        for row in p.chunks_exact_mut(4) {
            _mm_storeu_ps(
                row.as_mut_ptr(),
                _mm_sub_ps(_mm_loadu_ps(row.as_ptr()), max),
            );
            exp::exp4_avx2(row);
            sum = _mm_add_ps(sum, _mm_loadu_ps(row.as_ptr()));
        }
        _mm_storeu_ps(stats.as_mut_ptr(), sum);
    }
    &stats[..4]
}

/// P·V over 40-column value rows: five accumulators. Per row, one divide
/// by `sums` turns the four exponentials into probabilities and a fixed
/// `vpermps` broadcasts each head's into its ten columns.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `sums` is 4 long, `values`
/// holds `len` rows of 40, `exps` holds `(len − 1) · 4 + 8` and `out` 40.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn values_avx2(sums: &[f32], exps: &[f32], values: &[f32], len: usize, out: &mut [f32]) {
    use core::arch::x86_64::*;
    const V: usize = SERVED_WIDTH / KEY_TILE;
    /// Head of each column, read as `V` index vectors.
    const HEADS: [i32; SERVED_WIDTH] = {
        let mut heads = [0; SERVED_WIDTH];
        let mut c = 0;
        while c < SERVED_WIDTH {
            heads[c] = (c / SERVED.head_dim) as i32;
            c += 1;
        }
        heads
    };
    debug_assert!(sums.len() == 4 && out.len() == SERVED_WIDTH);
    debug_assert!(values.len() >= len * SERVED_WIDTH && exps.len() >= (len - 1) * 4 + KEY_TILE);
    // Lanes 4..8 hold the next row; they divide by one and are never
    // selected.
    let divisor = [sums[0], sums[1], sums[2], sums[3], 1.0, 1.0, 1.0, 1.0];
    // SAFETY: the caller guarantees AVX2 and the lengths above: row `t <
    // len` reads `exps[4t..][..8]` and `values[40t..][..40]`, the index
    // loads read `HEADS[8j..][..8]` for `j < 5`, and the stores write
    // `out[..40]`.
    unsafe {
        let idx: [__m256i; V] =
            std::array::from_fn(|j| _mm256_loadu_si256(HEADS[j * KEY_TILE..].as_ptr().cast()));
        let divisor = _mm256_loadu_ps(divisor.as_ptr());
        let mut acc = [_mm256_setzero_ps(); V];
        for t in 0..len {
            let p = _mm256_div_ps(_mm256_loadu_ps(exps.as_ptr().add(t * 4)), divisor);
            let v = values.as_ptr().add(t * SERVED_WIDTH);
            for (j, a) in acc.iter_mut().enumerate() {
                let pj = _mm256_permutevar8x32_ps(p, idx[j]);
                let vj = _mm256_loadu_ps(v.add(j * KEY_TILE));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(pj, vj));
            }
        }
        for (j, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add(j * KEY_TILE), *a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Row-major keys and values of `len` random positions, plus the key
    /// tiles holding the same keys.
    fn cache(len: usize, width: usize, rng: &mut Rng64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let rows: Vec<f32> = (0..len * width).map(|_| rng.normal(0.0, 1.0)).collect();
        let values: Vec<f32> = (0..len * width).map(|_| rng.normal(0.0, 1.0)).collect();
        let mut tiles = vec![0.0; key_tiles_len(len, width)];
        for t in 0..len {
            for c in 0..width {
                tiles[key_index(width, t, c)] = rows[t * width + c];
            }
        }
        (rows, tiles, values)
    }

    /// The per-head loop over row-major keys the tiled kernel replaces.
    fn reference(
        shape: HeadShape,
        q: &[f32],
        rows: &[f32],
        values: &[f32],
        len: usize,
    ) -> Vec<f32> {
        let (nh, hd, width) = (shape.n_heads, shape.head_dim, shape.width());
        let group = nh / shape.n_kv_heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut out = vec![0.0f32; nh * hd];
        for h in 0..nh {
            let col = (h / group) * hd;
            let qh = &q[h * hd..(h + 1) * hd];
            let mut p: Vec<f32> = (0..len)
                .map(|t| {
                    let k = &rows[t * width + col..][..hd];
                    qh.iter().zip(k).map(|(&a, &b)| a * b).sum::<f32>() * scale
                })
                .collect();
            let max = p.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            p.iter_mut().for_each(|s| *s = (*s - max).exp());
            let sum = p.iter().fold(0.0f32, |a, &e| a + e);
            for (t, &e) in p.iter().enumerate() {
                let v = &values[t * width + col..][..hd];
                for (o, &vv) in out[h * hd..(h + 1) * hd].iter_mut().zip(v) {
                    *o += e / sum * vv;
                }
            }
        }
        out
    }

    /// The scalar twin gives the reference's bits over tile boundaries,
    /// GQA, and the served 40-column shape. Small enough for Miri, which
    /// perturbs each `f32::exp` by a few ulp, so there it checks a bound.
    #[test]
    fn scalar_twin_matches_per_head_reference() {
        let shapes = [(4, 4, 10), (4, 2, 4), (3, 1, 6), (1, 1, 8)];
        let mut rng = Rng64::new(18);
        for (n_heads, n_kv_heads, head_dim) in shapes {
            let shape = HeadShape {
                n_heads,
                n_kv_heads,
                head_dim,
            };
            for len in [0usize, 1, 7, 8, 9, 17] {
                let (rows, tiles, values) = cache(len, shape.width(), &mut rng);
                let q: Vec<f32> = (0..n_heads * head_dim)
                    .map(|_| rng.normal(0.0, 1.0))
                    .collect();
                let kv = CachedKv {
                    keys: &tiles,
                    values: &values,
                    len,
                };
                let mut scratch = vec![f32::NAN; scratch_len(shape, len)];
                let mut got = vec![f32::NAN; n_heads * head_dim];
                decode_attention(Backend::Scalar, shape, &q, kv, &mut scratch, &mut got);
                let want = reference(shape, &q, &rows, &values, len);
                for (g, w) in got.iter().zip(&want) {
                    if cfg!(miri) {
                        assert!(
                            (g - w).abs() <= 1e-5 * (1.0 + w.abs()),
                            "{shape:?} len {len}"
                        );
                    } else {
                        assert_eq!(g.to_bits(), w.to_bits(), "{shape:?} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn key_index_walks_tiles_column_major() {
        assert_eq!(key_index(3, 0, 0), 0);
        assert_eq!(key_index(3, 1, 0), 1);
        assert_eq!(key_index(3, 0, 1), KEY_TILE);
        assert_eq!(key_index(3, KEY_TILE, 0), 3 * KEY_TILE);
        assert_eq!(key_tiles_len(9, 3), 2 * 3 * KEY_TILE);
        assert_eq!(key_tiles_len(0, 3), 0);
    }
}
