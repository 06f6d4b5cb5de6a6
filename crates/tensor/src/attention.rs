//! The two attention kernels: decode attention of one session over its KV
//! cache ([`decode_attention`]), and prefill self-attention of one whole
//! sequence ([`prefill_attention`], see its own section below).
//!
//! # Decode
//!
//! Decode attention reads the keys from [`KEY_TILE`]-position tiles.
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
//!
//! # Prefill
//!
//! [`prefill_attention`] runs every head of one sequence in one call, with
//! no allocation, and gives the bits of the per-head GEMM loop it replaced
//! (`a·bᵀ`, `×scale`, `-inf` mask, row softmax, `P·V`) on the same backend:
//!
//! * **Scores.** `(0.0 + chain over d) × scale`, the chain being the GEMM
//!   micro-kernel's: from `+0.0`, in order, FMA on `avx2+fma` and `mul`
//!   then `add` on scalar. Only keys `j ≤ i` are computed when causal.
//! * **Softmax.** Subtract the row max, [`crate::exp`], sum in order from
//!   `0.0`, then multiply by `1/sum`.
//! * **P·V.** Each output is `0.0 + chain over t` (keys `t ≤ i` when
//!   causal), the same chain as the scores.
//!
//! A chain longer than the GEMM's depth block [`KC`] restarts from `+0.0`
//! per block and each block is added to the running output, as the
//! engine does. Skipping a masked key is exact: its probability was
//! `+0.0`, so its term could only turn a `-0.0` chain into `+0.0`, and the
//! final `0.0 +` does that anyway. A non-finite value row therefore no
//! longer reaches earlier positions (it used to, through `0·inf = NaN`).
//! The kernel always uses `f32` operands, whatever `LRD_KERNEL_DTYPE` says.
//!
//! The AVX2 kernel takes every shape: it transposes K into scratch once
//! per sequence, computes scores for tiles of four queries × sixteen keys,
//! runs the softmax over whole vectors of each row (lanes past the row's
//! keys are computed and never read), and runs P·V with one vector lane
//! per output element's chain.

use crate::exp;
use crate::kernel::Backend;
use crate::matmul::KC;

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

/// Query rows per tile of the AVX2 prefill kernel.
const ROWS: usize = 4;

/// Keys per score tile of the AVX2 prefill kernel: two vectors.
const KEYS: usize = 16;

/// Lane masks of the AVX2 prefill kernel: the 8 lanes starting at `8 −
/// w` enable the first `w`.
#[cfg(target_arch = "x86_64")]
const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// Length of the scratch buffer [`prefill_attention`] needs for a
/// sequence of `seq` positions: K transposed, plus one tile of score rows.
pub fn prefill_scratch_len(shape: HeadShape, seq: usize) -> usize {
    (shape.width() + ROWS) * seq.next_multiple_of(KEYS)
}

/// One sequence's rows, as the prefill kernels read them.
#[derive(Clone, Copy)]
struct Sequence<'a> {
    shape: HeadShape,
    causal: bool,
    len: usize,
    /// `len` rows of `n_heads · head_dim`.
    q: &'a [f32],
    /// `len` rows of `n_kv_heads · head_dim` each.
    k: &'a [f32],
    v: &'a [f32],
}

impl Sequence<'_> {
    /// Keys query `i` attends to: `0..keys(i)`.
    fn keys(&self, i: usize) -> usize {
        if self.causal {
            i + 1
        } else {
            self.len
        }
    }

    /// Offset of query `i`, head `h` in `q` and in the context rows.
    fn head_at(&self, i: usize, h: usize) -> usize {
        (i * self.shape.n_heads + h) * self.shape.head_dim
    }

    /// First column of head `h`'s KV head in a key or value row.
    fn kv_col(&self, h: usize) -> usize {
        h / (self.shape.n_heads / self.shape.n_kv_heads) * self.shape.head_dim
    }

    fn scale(&self) -> f32 {
        1.0 / (self.shape.head_dim as f32).sqrt()
    }
}

/// Self-attention of one sequence of `seq` positions, every head at once:
/// `ctx[i][h] = Σ_j p_ij · v_j` with `p_i = softmax_j(q_ih · k_j · scale)`
/// over the keys and values of KV head `h / (n_heads / n_kv_heads)`,
/// `scale = 1/√head_dim`, and `j ≤ i` when `causal` (all `j` otherwise).
/// The arithmetic is the per-head GEMM loop's, bit for bit (module docs).
///
/// `q` and `ctx` hold `seq` rows of `n_heads · head_dim`, `k` and `v`
/// `seq` rows of `n_kv_heads · head_dim`. `ctx` is overwritten. `probs`,
/// when given, receives each head's `seq × seq` probabilities, `[h][i][j]`,
/// with `0.0` at masked keys. `scratch` holds at least
/// [`prefill_scratch_len`]`(shape, seq)`; its contents are ignored.
///
/// # Panics
///
/// Panics if a buffer has another length than stated above, if
/// `head_dim` is zero, or if `n_kv_heads` is zero or does not divide
/// `n_heads`.
#[allow(clippy::too_many_arguments)] // the operands of one sequence, as the layer holds them
pub fn prefill_attention(
    backend: Backend,
    shape: HeadShape,
    causal: bool,
    seq: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    ctx: &mut [f32],
    probs: Option<&mut [f32]>,
) {
    let (nh, hd) = (shape.n_heads, shape.head_dim);
    assert!(
        shape.n_kv_heads > 0 && nh.is_multiple_of(shape.n_kv_heads),
        "n_kv_heads must divide n_heads"
    );
    assert!(hd > 0, "head_dim must be positive");
    assert!(
        q.len() == seq * nh * hd && ctx.len() == q.len(),
        "q/ctx rows"
    );
    assert!(
        k.len() == seq * shape.width() && v.len() == k.len(),
        "k/v rows"
    );
    assert!(scratch.len() >= prefill_scratch_len(shape, seq), "scratch");
    assert!(
        probs.as_ref().is_none_or(|p| p.len() == nh * seq * seq),
        "probs"
    );
    if seq == 0 {
        return;
    }
    let s = Sequence {
        shape,
        causal,
        len: seq,
        q,
        k,
        v,
    };
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection;
        // the asserts above give the lengths `prefill_avx2` requires.
        Backend::Avx2Fma => unsafe { prefill_avx2(s, scratch, ctx, probs) },
        _ => prefill_scalar(s, scratch, ctx, probs),
    }
}

/// The GEMM engine's sum of `n` products: an in-order `mul`-then-`add`
/// chain from `+0.0` per [`KC`]-long block, each block added to a total
/// that starts at `0.0`.
fn gemm_sum(n: usize, product: impl Fn(usize) -> f32) -> f32 {
    let mut total = 0.0f32;
    for b0 in (0..n).step_by(KC) {
        let mut acc = 0.0f32;
        for t in b0..n.min(b0 + KC) {
            acc += product(t);
        }
        total += acc;
    }
    total
}

/// Writes query `i`'s probabilities over its `keys` into head `h`'s
/// `seq × seq` block of `probs`, with `0.0` past them.
fn store_probs(probs: &mut [f32], seq: usize, h: usize, i: usize, keys: &[f32]) {
    let row = &mut probs[(h * seq + i) * seq..][..seq];
    let (live, masked) = row.split_at_mut(keys.len());
    live.copy_from_slice(keys);
    masked.fill(0.0);
}

/// Portable twin of [`prefill_avx2`], one query row at a time, reading
/// keys and values where they lie.
fn prefill_scalar(
    s: Sequence<'_>,
    scratch: &mut [f32],
    ctx: &mut [f32],
    mut probs: Option<&mut [f32]>,
) {
    let (hd, width, scale) = (s.shape.head_dim, s.shape.width(), s.scale());
    for h in 0..s.shape.n_heads {
        let col = s.kv_col(h);
        for i in 0..s.len {
            let qi = &s.q[s.head_at(i, h)..][..hd];
            let row = &mut scratch[..s.keys(i)];
            for (j, x) in row.iter_mut().enumerate() {
                let kj = &s.k[j * width + col..][..hd];
                *x = gemm_sum(hd, |d| qi[d] * kj[d]) * scale;
            }
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            row.iter_mut().for_each(|x| *x -= max);
            exp::exp_scalar(row);
            let inv = 1.0 / row.iter().fold(0.0f32, |a, &e| a + e);
            row.iter_mut().for_each(|e| *e *= inv);
            if let Some(p) = probs.as_deref_mut() {
                store_probs(p, s.len, h, i, row);
            }
            let out = &mut ctx[s.head_at(i, h)..][..hd];
            for (c, o) in out.iter_mut().enumerate() {
                *o = gemm_sum(row.len(), |t| row[t] * s.v[t * width + col + c]);
            }
        }
    }
}

/// AVX2 prefill attention, any head shape: K is transposed into
/// `[column][position]` scratch once, then each head runs tiles of up to
/// [`ROWS`] queries through [`attend_tile`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA and the lengths
/// [`prefill_attention`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn prefill_avx2(
    s: Sequence<'_>,
    scratch: &mut [f32],
    ctx: &mut [f32],
    mut probs: Option<&mut [f32]>,
) {
    let (hd, width) = (s.shape.head_dim, s.shape.width());
    let ld = s.len.next_multiple_of(KEYS);
    let (kt, scores) = scratch.split_at_mut(width * ld);
    for (c, column) in kt.chunks_exact_mut(ld).enumerate() {
        let (live, pad) = column.split_at_mut(s.len);
        for (x, row) in live.iter_mut().zip(s.k.chunks_exact(width)) {
            *x = row[c];
        }
        pad.fill(0.0);
    }
    let scores = &mut scores[..ROWS * ld];
    for h in 0..s.shape.n_heads {
        let kt = &kt[s.kv_col(h) * ld..][..hd * ld];
        for i0 in (0..s.len).step_by(ROWS) {
            let rows = ROWS.min(s.len - i0);
            // SAFETY: the caller guarantees AVX2+FMA and the lengths;
            // `rows` query rows from `i0` lie inside the sequence, `kt`
            // holds this KV head's `hd` columns of `ld` and `scores` `ROWS`
            // rows of `ld`.
            unsafe {
                match rows {
                    4 => attend_tile::<4>(s, h, i0, kt, scores, ctx),
                    3 => attend_tile::<3>(s, h, i0, kt, scores, ctx),
                    2 => attend_tile::<2>(s, h, i0, kt, scores, ctx),
                    _ => attend_tile::<1>(s, h, i0, kt, scores, ctx),
                }
            }
            if let Some(p) = probs.as_deref_mut() {
                for (r, row) in scores.chunks_exact(ld).take(rows).enumerate() {
                    store_probs(p, s.len, h, i0 + r, &row[..s.keys(i0 + r)]);
                }
            }
        }
    }
}

/// Queries `i0..i0 + R` of head `h`: scores, softmax and P·V. Row `r`'s
/// probabilities are left in `scores[r·ld..][..keys(i0 + r)]`, with `ld =
/// scores.len() / ROWS`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, the lengths
/// [`prefill_attention`] asserts, `i0 + R ≤ s.len`, and that `kt` holds
/// this head's KV columns of K transposed, `head_dim` columns of `ld`
/// (zero past `s.len`), and `scores` `ROWS` rows of `ld`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn attend_tile<const R: usize>(
    s: Sequence<'_>,
    h: usize,
    i0: usize,
    kt: &[f32],
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let keys: [usize; R] = std::array::from_fn(|r| s.keys(i0 + r));
    // SAFETY: forwarded from this fn's contract.
    unsafe {
        score_tile::<R>(s, h, i0, keys[R - 1], kt, scores);
        softmax_tile(&keys, scores);
        values_tile(s, h, i0, &keys, scores, ctx);
    }
}

/// Scores of queries `i0..i0 + R` against keys `0..keys`, [`KEYS`] at a
/// time: `2R` accumulators, each lane an in-order FMA chain over `d` from
/// `+0.0`, added to `0.0` (the GEMM's `C += acc`, once per [`KC`] block
/// of `d`) and then multiplied by `scale`. Lanes past a row's own keys are
/// computed and never read.
///
/// # Safety
///
/// As [`attend_tile`], plus `keys ≤ s.len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn score_tile<const R: usize>(
    s: Sequence<'_>,
    h: usize,
    i0: usize,
    keys: usize,
    kt: &[f32],
    scores: &mut [f32],
) {
    use core::arch::x86_64::*;
    let (hd, qw) = (s.shape.head_dim, s.shape.n_heads * s.shape.head_dim);
    let ld = kt.len() / hd;
    // SAFETY: the caller guarantees AVX2+FMA and the lengths. Row `r < R`
    // reads `q[head_at(i0 + r, h) + d]` for `d < hd`; `j0 + KEYS ≤ ld`
    // because `j0 < keys ≤ s.len ≤ ld` and both `j0` and `ld` are
    // multiples of `KEYS`, so the `kt` loads stay in column `d < hd` and
    // the `scores` stores in row `r < R ≤ ROWS`.
    unsafe {
        let q = s.q.as_ptr().add(s.head_at(i0, h));
        let (kp, sp) = (kt.as_ptr(), scores.as_mut_ptr());
        let scale = _mm256_set1_ps(s.scale());
        for j0 in (0..keys).step_by(KEYS) {
            for d0 in (0..hd).step_by(KC) {
                let mut acc = [[_mm256_setzero_ps(); 2]; R];
                for d in d0..hd.min(d0 + KC) {
                    let b0 = _mm256_loadu_ps(kp.add(d * ld + j0));
                    let b1 = _mm256_loadu_ps(kp.add(d * ld + j0 + 8));
                    for (r, a) in acc.iter_mut().enumerate() {
                        let qd = _mm256_broadcast_ss(&*q.add(r * qw + d));
                        a[0] = _mm256_fmadd_ps(qd, b0, a[0]);
                        a[1] = _mm256_fmadd_ps(qd, b1, a[1]);
                    }
                }
                let last = d0 + KC >= hd;
                for (r, a) in acc.iter().enumerate() {
                    for (half, &a) in a.iter().enumerate() {
                        let dst = sp.add(r * ld + j0 + half * 8);
                        let prev = if d0 == 0 {
                            _mm256_setzero_ps()
                        } else {
                            _mm256_loadu_ps(dst)
                        };
                        let sum = _mm256_add_ps(prev, a);
                        _mm256_storeu_ps(dst, if last { _mm256_mul_ps(sum, scale) } else { sum });
                    }
                }
            }
        }
    }
}

/// Softmax of `R` score rows, row `r` over its first `keys[r]` entries,
/// with no scalar tail: per row, the max over the live entries (the last
/// vector's dead lanes masked to `-inf`; order-free and NaN-ignoring as
/// `f32::max`, and the sign of a zero max cannot change `exp(s − max)`),
/// then `s − max` over whole vectors and `exp` over whole four-lane groups
/// in place. Lanes past `keys[r]` hold scores of later keys or of the
/// zero padding, so they are finite for finite inputs; they are computed
/// and never read. Then the `R` in-order sums from `0.0` as independent
/// chains, and `× 1/sum` over whole vectors.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that `scores`
/// holds `ROWS` rows of `ld ≥ keys[r].next_multiple_of(8)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn softmax_tile<const R: usize>(keys: &[usize; R], scores: &mut [f32]) {
    use core::arch::x86_64::*;
    let ld = scores.len() / ROWS;
    let sp = scores.as_mut_ptr();
    // SAFETY: the caller guarantees AVX2+FMA and the lengths: row `r`
    // reads and writes `scores[r·ld..][..keys[r].next_multiple_of(8)]`,
    // and the mask load reads `LANES[8 − w..][..8]` for `0 < w < 8`.
    unsafe {
        for (r, &n) in keys.iter().enumerate() {
            let row = sp.add(r * ld);
            let whole = n - n % 8;
            let mut m = _mm256_set1_ps(f32::NEG_INFINITY);
            for t in (0..whole).step_by(8) {
                m = _mm256_max_ps(_mm256_loadu_ps(row.add(t)), m);
            }
            if whole < n {
                let live = _mm256_loadu_ps(LANES.as_ptr().add(8 - (n - whole)).cast());
                let tail = _mm256_blendv_ps(m, _mm256_loadu_ps(row.add(whole)), live);
                m = _mm256_max_ps(tail, m);
            }
            let m = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps::<1>(m));
            let m = _mm_max_ps(_mm_movehl_ps(m, m), m);
            let m = _mm_max_ss(_mm_movehdup_ps(m), m);
            let max = _mm256_broadcastss_ps(m);
            for t in (0..n).step_by(8) {
                _mm256_storeu_ps(row.add(t), _mm256_sub_ps(_mm256_loadu_ps(row.add(t)), max));
            }
            for t in (0..n).step_by(4) {
                exp::exp4_avx2(std::slice::from_raw_parts_mut(row.add(t), 4));
            }
        }
        let mut sums = [0.0f32; R];
        for t in 0..keys[0] {
            for (r, sum) in sums.iter_mut().enumerate() {
                *sum += *sp.add(r * ld + t);
            }
        }
        for t in keys[0]..keys[R - 1] {
            for (r, sum) in sums.iter_mut().enumerate() {
                if t < keys[r] {
                    *sum += *sp.add(r * ld + t);
                }
            }
        }
        for ((r, &n), sum) in keys.iter().enumerate().zip(sums) {
            let (row, inv) = (sp.add(r * ld), _mm256_set1_ps(1.0 / sum));
            for t in (0..n).step_by(8) {
                _mm256_storeu_ps(row.add(t), _mm256_mul_ps(_mm256_loadu_ps(row.add(t)), inv));
            }
        }
    }
}

/// P·V of queries `i0..i0 + R`, sixteen output columns at a time (masked
/// lanes past `head_dim`): each lane an in-order FMA chain over its row's
/// keys from `+0.0`, added to `0.0` once per [`KC`] block of keys. Keys
/// every row attends to run as one loop; the causal tail (at most `R − 1`
/// keys) adds only the rows that attend to it.
///
/// # Safety
///
/// As [`attend_tile`], with `keys[r] = s.keys(i0 + r)` and `scores`
/// holding the tile's probabilities.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn values_tile<const R: usize>(
    s: Sequence<'_>,
    h: usize,
    i0: usize,
    keys: &[usize; R],
    scores: &[f32],
    ctx: &mut [f32],
) {
    use core::arch::x86_64::*;
    let (hd, width, qw) = (
        s.shape.head_dim,
        s.shape.width(),
        s.shape.n_heads * s.shape.head_dim,
    );
    let ld = scores.len() / ROWS;
    let (shared, all) = (keys[0], keys[R - 1]);
    // SAFETY: the caller guarantees AVX2+FMA and the lengths. Value row
    // `t < keys[R − 1] ≤ s.len` is read at columns `kv_col(h) + c0 + l`
    // and context row `i0 + r` (`r < R`) written at `head_at(i0 + r, h)
    // + c0 + l`, only for lanes `l < w ≤ head_dim − c0` the masks enable;
    // a second half whose lanes are all disabled gets its address from
    // `wrapping_add`, so it need not lie inside the slice. Probability `t`
    // of row `r` is `scores[r·ld + t]` with `t < keys[r] ≤ ld`.
    unsafe {
        let lanes = LANES.as_ptr();
        let sp = scores.as_ptr();
        for c0 in (0..hd).step_by(16) {
            let w = (hd - c0).min(16);
            let m0 = _mm256_loadu_si256(lanes.add(8 - w.min(8)).cast());
            let m1 = _mm256_loadu_si256(lanes.add(8 - w.saturating_sub(8)).cast());
            let vp = s.v.as_ptr().add(s.kv_col(h) + c0);
            let out = ctx.as_mut_ptr().add(s.head_at(i0, h) + c0);
            for t0 in (0..all).step_by(KC) {
                let t1 = all.min(t0 + KC);
                let mut acc = [[_mm256_setzero_ps(); 2]; R];
                let common = shared.clamp(t0, t1);
                for t in t0..common {
                    let row = vp.add(t * width);
                    let b0 = _mm256_maskload_ps(row, m0);
                    let b1 = _mm256_maskload_ps(row.wrapping_add(8), m1);
                    for (r, a) in acc.iter_mut().enumerate() {
                        let p = _mm256_broadcast_ss(&*sp.add(r * ld + t));
                        a[0] = _mm256_fmadd_ps(p, b0, a[0]);
                        a[1] = _mm256_fmadd_ps(p, b1, a[1]);
                    }
                }
                for t in common..t1 {
                    let row = vp.add(t * width);
                    let b0 = _mm256_maskload_ps(row, m0);
                    let b1 = _mm256_maskload_ps(row.wrapping_add(8), m1);
                    for (r, a) in acc.iter_mut().enumerate().filter(|&(r, _)| t < keys[r]) {
                        let p = _mm256_broadcast_ss(&*sp.add(r * ld + t));
                        a[0] = _mm256_fmadd_ps(p, b0, a[0]);
                        a[1] = _mm256_fmadd_ps(p, b1, a[1]);
                    }
                }
                for (r, a) in acc.iter().enumerate() {
                    let dst = out.add(r * qw);
                    let dst_hi = dst.wrapping_add(8);
                    let (prev0, prev1) = if t0 == 0 {
                        (_mm256_setzero_ps(), _mm256_setzero_ps())
                    } else {
                        (_mm256_maskload_ps(dst, m0), _mm256_maskload_ps(dst_hi, m1))
                    };
                    _mm256_maskstore_ps(dst, m0, _mm256_add_ps(prev0, a[0]));
                    _mm256_maskstore_ps(dst_hi, m1, _mm256_add_ps(prev1, a[1]));
                }
            }
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

    /// An empty sequence is a no-op on every backend, with empty buffers.
    #[test]
    fn prefill_of_an_empty_sequence_writes_nothing() {
        let backends = std::iter::once(Backend::Scalar).chain(Backend::detect_simd());
        for backend in backends {
            let mut scratch = vec![0.0; prefill_scratch_len(SERVED, 0)];
            let mut probs = [0.0f32; 0];
            prefill_attention(
                backend,
                SERVED,
                true,
                0,
                &[],
                &[],
                &[],
                &mut scratch,
                &mut [],
                Some(&mut probs),
            );
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
