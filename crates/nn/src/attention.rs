//! Multi-head self-attention with manual backpropagation.
//!
//! Supports causal (decoder) and bidirectional (encoder) masking, grouped-
//! query attention, and rotary position embeddings. The four projection
//! weights `W_Q`, `W_K`, `W_V`, `W_SO` are the attention-side decomposable
//! tensors of the paper (Fig. 4) and are held in [`AnyLinear`] slots so the
//! decomposer can factor them in place.

use crate::act::{softmax_rows, softmax_rows_backward};
use crate::decode::DecodeError;
use crate::linear::{AnyLinear, AnyLinearCache};
use crate::param::Param;
use crate::rope::Rope;
use lrd_tensor::exp::exp_inplace;
use lrd_tensor::matmul::{matmul, matmul_transa, matmul_transb};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

/// Per-layer key/value cache for incremental decoding of one session.
///
/// Storage is a pair of flat `f32` buffers (keys post-RoPE, values) whose
/// full `max_seq · width` capacity is reserved up front, so appending a
/// token in the serving hot loop never reallocates, and a session can
/// never grow past its hard `max_seq` bound — [`KvCache::push`] returns a
/// typed error instead.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    /// Cached key rows, flattened; each row is `width` wide.
    k: Vec<f32>,
    /// Cached value rows, flattened.
    v: Vec<f32>,
    /// Row width, `n_kv_heads · head_dim`.
    width: usize,
    /// Hard bound on cached positions.
    max_seq: usize,
    /// Cached positions so far.
    len: usize,
}

impl KvCache {
    /// An empty cache bounded at `max_seq` positions of `width`-wide rows,
    /// with the full capacity reserved immediately.
    pub fn with_bounds(max_seq: usize, width: usize) -> Self {
        KvCache {
            k: Vec::with_capacity(max_seq * width),
            v: Vec::with_capacity(max_seq * width),
            width,
            max_seq,
            len: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hard bound on cached positions.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Appends one position's key/value rows.
    ///
    /// # Errors
    ///
    /// [`DecodeError::CacheFull`] at the `max_seq` bound;
    /// [`DecodeError::BatchMismatch`] if a row is not `width` wide. The
    /// cache is unchanged on error.
    pub fn push(&mut self, k: &[f32], v: &[f32]) -> Result<(), DecodeError> {
        if self.len >= self.max_seq {
            return Err(DecodeError::CacheFull {
                max_seq: self.max_seq,
            });
        }
        for row in [k, v] {
            if row.len() != self.width {
                return Err(DecodeError::BatchMismatch {
                    what: "kv row width",
                    expected: self.width,
                    got: row.len(),
                });
            }
        }
        self.k.extend_from_slice(k);
        self.v.extend_from_slice(v);
        self.len += 1;
        Ok(())
    }
}

/// `out[t] = (q · K[t][off..off + q.len()]) · scale` for every cached
/// row `t < out.len()` of the row-major `keys` (rows `width` wide). Four
/// keys run interleaved; each dot still accumulates over `d` in order,
/// starting from `-0.0` as `Iterator::sum` does.
#[inline(always)]
fn key_scores(q: &[f32], keys: &[f32], width: usize, off: usize, scale: f32, out: &mut [f32]) {
    let hd = q.len();
    let key = |t: usize| &keys[t * width + off..t * width + off + hd];
    let done = out.len() - out.len() % 4;
    for (n, quad) in out[..done].chunks_exact_mut(4).enumerate() {
        let t = 4 * n;
        let (k0, k1, k2, k3) = (key(t), key(t + 1), key(t + 2), key(t + 3));
        let mut acc = [-0.0f32; 4];
        for j in 0..hd {
            acc[0] += q[j] * k0[j];
            acc[1] += q[j] * k1[j];
            acc[2] += q[j] * k2[j];
            acc[3] += q[j] * k3[j];
        }
        for (o, a) in quad.iter_mut().zip(acc) {
            *o = a * scale;
        }
    }
    for (t, o) in out.iter_mut().enumerate().skip(done) {
        let dot: f32 = q.iter().zip(key(t)).map(|(&a, &b)| a * b).sum();
        *o = dot * scale;
    }
}

/// Decode attention of one session over its whole cache, every head:
/// `out[h] = softmax(q_h · K_kv(h)ᵀ · scale) · V_kv(h)`, with `group`
/// query heads per KV head. `scores` holds at least `n_heads · len`.
///
/// `HD` is the head width, fixed at compile time so the value sum runs
/// in a register array; `HD = 0` is the generic fallback for any other
/// width (`q.len() / n_heads`), which accumulates in `out` itself (zero
/// on entry). All heads' scores go through one [`exp_inplace`] call.
#[inline(always)]
fn attend_session<const HD: usize>(
    q: &[f32],
    cache: &KvCache,
    n_heads: usize,
    group: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let hd = if HD == 0 { q.len() / n_heads } else { HD };
    let (width, len) = (cache.width, cache.len());
    if len == 0 || hd == 0 {
        return;
    }
    let scores = &mut scores[..n_heads * len];
    for (h, row) in scores.chunks_exact_mut(len).enumerate() {
        key_scores(
            &q[h * hd..(h + 1) * hd],
            &cache.k,
            width,
            (h / group) * hd,
            scale,
            row,
        );
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for s in row.iter_mut() {
            *s -= max;
        }
    }
    exp_inplace(scores);
    for (h, (row, out)) in scores
        .chunks_exact_mut(len)
        .zip(out.chunks_exact_mut(hd))
        .enumerate()
    {
        let sum = row.iter().fold(0.0f32, |a, &e| a + e);
        for s in row.iter_mut() {
            *s /= sum;
        }
        let off = (h / group) * hd;
        let value = |t: usize| &cache.v[t * width + off..t * width + off + hd];
        if HD == 0 {
            for (t, &p) in row.iter().enumerate() {
                for (o, &vv) in out.iter_mut().zip(value(t)) {
                    *o += p * vv;
                }
            }
        } else {
            let mut acc = [0.0f32; HD];
            for (t, &p) in row.iter().enumerate() {
                for (a, &vv) in acc.iter_mut().zip(value(t)) {
                    *a += p * vv;
                }
            }
            out.copy_from_slice(&acc);
        }
    }
}

/// Multi-head self-attention module.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    /// Query projection, `d × (n_heads · head_dim)`.
    pub wq: AnyLinear,
    /// Key projection, `d × (n_kv_heads · head_dim)`.
    pub wk: AnyLinear,
    /// Value projection, `d × (n_kv_heads · head_dim)`.
    pub wv: AnyLinear,
    /// Output projection, `(n_heads · head_dim) × d`.
    pub wo: AnyLinear,
    n_heads: usize,
    n_kv_heads: usize,
    head_dim: usize,
    causal: bool,
    rope: Option<Rope>,
}

/// Cached forward state for [`MultiHeadAttention::forward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q_cache: AnyLinearCache,
    k_cache: AnyLinearCache,
    v_cache: AnyLinearCache,
    o_cache: AnyLinearCache,
    /// Rotated queries, `(B·T) × (H·hd)`.
    q: Tensor,
    /// Rotated keys, `(B·T) × (Hkv·hd)`.
    k: Tensor,
    /// Values, `(B·T) × (Hkv·hd)`.
    v: Tensor,
    /// Attention probabilities per (batch, head), each `T × T`.
    probs: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl MultiHeadAttention {
    /// Creates a randomly initialized attention module.
    ///
    /// `use_rope = false` corresponds to BERT-style attention whose position
    /// information comes from learned embeddings at the model level.
    ///
    /// # Panics
    ///
    /// Panics if head counts are inconsistent.
    #[allow(clippy::too_many_arguments)] // mirrors the architecture hyper-parameter list
    pub fn new(
        d_model: usize,
        n_heads: usize,
        n_kv_heads: usize,
        max_seq: usize,
        causal: bool,
        use_rope: bool,
        bias: bool,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model must divide by n_heads"
        );
        assert!(
            n_heads.is_multiple_of(n_kv_heads),
            "n_kv_heads must divide n_heads"
        );
        let head_dim = d_model / n_heads;
        MultiHeadAttention {
            wq: AnyLinear::dense(d_model, n_heads * head_dim, bias, rng),
            wk: AnyLinear::dense(d_model, n_kv_heads * head_dim, bias, rng),
            wv: AnyLinear::dense(d_model, n_kv_heads * head_dim, bias, rng),
            wo: AnyLinear::dense(n_heads * head_dim, d_model, bias, rng),
            n_heads,
            n_kv_heads,
            head_dim,
            causal,
            rope: use_rope.then(|| Rope::new(head_dim, max_seq)),
        }
    }

    /// Number of parameters across the four projections.
    pub fn param_count(&self) -> usize {
        self.wq.param_count()
            + self.wk.param_count()
            + self.wv.param_count()
            + self.wo.param_count()
    }

    /// Extracts the `T × head_dim` block for `(batch b, head h)` from a flat
    /// `(B·T) × (H·hd)` activation.
    fn head_block(flat: &Tensor, b: usize, h: usize, seq: usize, head_dim: usize) -> Tensor {
        let mut out = Tensor::zeros(&[seq, head_dim]);
        for t in 0..seq {
            let src = &flat.row(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            out.row_mut(t).copy_from_slice(src);
        }
        out
    }

    /// Adds a `T × head_dim` block back into a flat activation gradient.
    fn add_head_block(
        flat: &mut Tensor,
        block: &Tensor,
        b: usize,
        h: usize,
        seq: usize,
        head_dim: usize,
    ) {
        for t in 0..seq {
            let dst = &mut flat.row_mut(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            for (d, &s) in dst.iter_mut().zip(block.row(t)) {
                *d += s;
            }
        }
    }

    /// Incremental decode: processes one new token (batch 1) at absolute
    /// position `pos`, appending its key/value rows to `cache` and
    /// attending over the whole cache. Returns the attention output
    /// (`1 × d`).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BatchMismatch`] if `x` is not a single row, plus the
    /// [`MultiHeadAttention::decode_step_many`] failure modes.
    pub fn decode_step(
        &self,
        x: &Tensor,
        pos: usize,
        cache: &mut KvCache,
    ) -> Result<Tensor, DecodeError> {
        if x.rows() != 1 {
            return Err(DecodeError::BatchMismatch {
                what: "input rows",
                expected: 1,
                got: x.rows(),
            });
        }
        self.decode_step_many(x, &[pos], &mut [cache])
    }

    /// Continuous-batching decode: processes one new token for each of `S`
    /// independent sessions at once. Row `i` of `xs` is session `i`'s token
    /// activation at absolute position `positions[i]`, extending
    /// `caches[i]`. All four projections run as single `S × d` GEMMs; the
    /// per-session attention over each session's own cache is unchanged
    /// from the batch-1 path, so row `i` of the output is bit-identical to
    /// a [`MultiHeadAttention::decode_step`] call for session `i` alone
    /// (the packed GEMM engine's per-row accumulation order does not
    /// depend on the batch height — see DESIGN.md §13).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BatchMismatch`] if `positions`/`caches` disagree with
    /// `xs.rows()`, [`DecodeError::PositionMismatch`] if a position is not
    /// its cache's length, [`DecodeError::CacheFull`] at a session's
    /// `max_seq` bound. All sessions are validated before any cache is
    /// mutated, so no cache is extended on error.
    pub fn decode_step_many(
        &self,
        xs: &Tensor,
        positions: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Result<Tensor, DecodeError> {
        let s_count = xs.rows();
        if positions.len() != s_count {
            return Err(DecodeError::BatchMismatch {
                what: "positions",
                expected: s_count,
                got: positions.len(),
            });
        }
        if caches.len() != s_count {
            return Err(DecodeError::BatchMismatch {
                what: "caches",
                expected: s_count,
                got: caches.len(),
            });
        }
        for (&pos, cache) in positions.iter().zip(caches.iter()) {
            if pos != cache.len() {
                return Err(DecodeError::PositionMismatch {
                    pos,
                    cached: cache.len(),
                });
            }
            if cache.len() >= cache.max_seq() {
                return Err(DecodeError::CacheFull {
                    max_seq: cache.max_seq(),
                });
            }
        }

        let mut q = self.wq.infer(xs);
        let mut k = self.wk.infer(xs);
        let v = self.wv.infer(xs);
        if let Some(rope) = &self.rope {
            for (i, &pos) in positions.iter().enumerate() {
                let qrow = q.row_mut(i);
                for h in 0..self.n_heads {
                    rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], pos);
                }
                let krow = k.row_mut(i);
                for h in 0..self.n_kv_heads {
                    rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], pos);
                }
            }
        }
        for (i, cache) in caches.iter_mut().enumerate() {
            cache.push(k.row(i), v.row(i))?;
        }

        let ctx = self.attend_caches(&q, caches);
        Ok(self.wo.infer(&ctx))
    }

    /// Decode attention: row `i` of the result holds, for every head `h`,
    /// `softmax(q_h · K_kv(h)ᵀ / √hd) · V_kv(h)` over session `i`'s whole
    /// cache, where `q` row `i` is that session's rotated query.
    ///
    /// One scores buffer serves the whole call. Per element the arithmetic
    /// is fixed: each key dot runs over `d` in order from `-0.0` (four keys
    /// interleaved for throughput), the softmax subtracts the max,
    /// exponentiates through [`exp_inplace`], sums in order and divides,
    /// and the value sum accumulates over `t` in order from `0.0`. Head
    /// width 10, the served tiny-Llama's, is specialised; any other takes
    /// the generic path.
    fn attend_caches(&self, q: &Tensor, caches: &[&mut KvCache]) -> Tensor {
        let hd = self.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let longest = caches.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut scores = vec![0.0f32; self.n_heads * longest];
        let mut ctx = Tensor::zeros(&[caches.len(), self.n_heads * hd]);
        for (i, cache) in caches.iter().enumerate() {
            let (q, out, nh) = (q.row(i), ctx.row_mut(i), self.n_heads);
            match hd {
                10 => attend_session::<10>(q, cache, nh, group, scale, &mut scores, out),
                _ => attend_session::<0>(q, cache, nh, group, scale, &mut scores, out),
            }
        }
        ctx
    }

    /// Forward pass over `x ((B·T) × d)` laid out batch-major.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch · seq`.
    pub fn forward(&self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, AttentionCache) {
        assert_eq!(x.rows(), batch * seq, "attention input rows != batch*seq");
        let (mut q, q_cache) = self.wq.forward(x);
        let (mut k, k_cache) = self.wk.forward(x);
        let (v, v_cache) = self.wv.forward(x);

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = q.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                    let krow = k.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                }
            }
        }

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let mut probs = Vec::with_capacity(batch * self.n_heads);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qb = Self::head_block(&q, b, h, seq, self.head_dim);
                let kb = Self::head_block(&k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&v, b, kv_h, seq, self.head_dim);
                let mut scores = matmul_transb(&qb, &kb).scale(scale);
                if self.causal {
                    for t in 0..seq {
                        let row = scores.row_mut(t);
                        for entry in row.iter_mut().take(seq).skip(t + 1) {
                            *entry = f32::NEG_INFINITY;
                        }
                    }
                }
                let p = softmax_rows(&scores);
                let c = matmul(&p, &vb);
                Self::add_head_block(&mut ctx, &c, b, h, seq, self.head_dim);
                probs.push(p);
            }
        }

        let (y, o_cache) = self.wo.forward(&ctx);
        (
            y,
            AttentionCache {
                q_cache,
                k_cache,
                v_cache,
                o_cache,
                q,
                k,
                v,
                probs,
                batch,
                seq,
            },
        )
    }

    /// Inference-only forward: no projection caches, no retained attention
    /// probabilities — each head's score matrix is dropped as soon as its
    /// context rows are accumulated.
    pub fn infer(&self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        assert_eq!(x.rows(), batch * seq, "attention input rows != batch*seq");
        let mut q = self.wq.infer(x);
        let mut k = self.wk.infer(x);
        let v = self.wv.infer(x);

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = q.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                    let krow = k.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                }
            }
        }

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qb = Self::head_block(&q, b, h, seq, self.head_dim);
                let kb = Self::head_block(&k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&v, b, kv_h, seq, self.head_dim);
                let mut scores = matmul_transb(&qb, &kb).scale(scale);
                if self.causal {
                    for t in 0..seq {
                        let row = scores.row_mut(t);
                        for entry in row.iter_mut().take(seq).skip(t + 1) {
                            *entry = f32::NEG_INFINITY;
                        }
                    }
                }
                let p = softmax_rows(&scores);
                let c = matmul(&p, &vb);
                Self::add_head_block(&mut ctx, &c, b, h, seq, self.head_dim);
            }
        }

        self.wo.infer(&ctx)
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Tensor {
        let (batch, seq) = (cache.batch, cache.seq);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;

        let dctx = self.wo.backward(&cache.o_cache, dy);

        let mut dq = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let mut dk = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);
        let mut dv = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);

        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let p = &cache.probs[b * self.n_heads + h];
                let dcb = Self::head_block(&dctx, b, h, seq, self.head_dim);
                let kb = Self::head_block(&cache.k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&cache.v, b, kv_h, seq, self.head_dim);
                let qb = Self::head_block(&cache.q, b, h, seq, self.head_dim);

                // dP = dC · Vᵀ ; dV = Pᵀ · dC
                let dp = matmul_transb(&dcb, &vb);
                let dvb = matmul_transa(p, &dcb);
                // dS = softmax'(P, dP); masked entries have P = 0 so they
                // produce zero gradient automatically.
                let ds = softmax_rows_backward(p, &dp).scale(scale);
                let dqb = matmul(&ds, &kb);
                let dkb = matmul_transa(&ds, &qb);

                Self::add_head_block(&mut dq, &dqb, b, h, seq, self.head_dim);
                Self::add_head_block(&mut dk, &dkb, b, kv_h, seq, self.head_dim);
                Self::add_head_block(&mut dv, &dvb, b, kv_h, seq, self.head_dim);
            }
        }

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = dq.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply_inverse(
                            &mut qrow[h * self.head_dim..(h + 1) * self.head_dim],
                            t,
                        );
                    }
                    let krow = dk.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply_inverse(
                            &mut krow[h * self.head_dim..(h + 1) * self.head_dim],
                            t,
                        );
                    }
                }
            }
        }

        let mut dx = self.wq.backward(&cache.q_cache, &dq);
        dx.axpy(1.0, &self.wk.backward(&cache.k_cache, &dk));
        dx.axpy(1.0, &self.wv.backward(&cache.v_cache, &dv));
        dx
    }

    /// Visits the four projection slots as `(name, slot)` pairs — the hook
    /// used by the decomposer.
    pub fn visit_linears<'a>(&'a mut self, out: &mut Vec<(&'static str, &'a mut AnyLinear)>) {
        out.push(("wq", &mut self.wq));
        out.push(("wk", &mut self.wk));
        out.push(("wv", &mut self.wv));
        out.push(("wo", &mut self.wo));
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        self.wq.visit_params(&format!("{prefix}.wq"), out);
        self.wk.visit_params(&format!("{prefix}.wk"), out);
        self.wv.visit_params(&format!("{prefix}.wv"), out);
        self.wo.visit_params(&format!("{prefix}.wo"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_tensor::exp::exp_matches_f32_exp;
    use proptest::prelude::*;

    /// The scalar decode-attention loop [`MultiHeadAttention::attend_caches`]
    /// replaced: a fresh scores `Vec` per (session, head), one key dot at a
    /// time, `f32::exp`, and the value sum accumulated straight into `ctx`.
    fn attend_caches_reference(a: &MultiHeadAttention, q: &Tensor, caches: &[KvCache]) -> Tensor {
        let hd = a.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let group = a.n_heads / a.n_kv_heads;
        let mut ctx = Tensor::zeros(&[caches.len(), a.n_heads * hd]);
        for (i, cache) in caches.iter().enumerate() {
            let ctx_len = cache.len();
            for h in 0..a.n_heads {
                let base = (h / group) * hd;
                let qh = &q.row(i)[h * hd..(h + 1) * hd];
                let mut scores = Vec::with_capacity(ctx_len);
                for t in 0..ctx_len {
                    let kh = &cache.k[t * cache.width + base..][..hd];
                    let dot: f32 = qh.iter().zip(kh).map(|(&a, &b)| a * b).sum();
                    scores.push(dot * scale);
                }
                let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                let mut sum = 0.0f32;
                for s in &mut scores {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                for s in &mut scores {
                    *s /= sum;
                }
                let out = &mut ctx.row_mut(i)[h * hd..(h + 1) * hd];
                for (t, &s) in scores.iter().enumerate() {
                    let vh = &cache.v[t * cache.width + base..][..hd];
                    for (o, &vv) in out.iter_mut().zip(vh) {
                        *o += s * vv;
                    }
                }
            }
        }
        ctx
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interleaved, register-blocked kernel gives the reference's
        /// bits for the specialised (10) and generic (8, 12, 16) head widths,
        /// with and without GQA, over every batch and context length.
        #[test]
        fn decode_attention_matches_scalar_reference_bit_for_bit(
            hd_ix in 0usize..4,
            heads_ix in 0usize..6,
            max_seq in 1usize..=64,
            batch in 1usize..=33,
            large_scores in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Off glibc `f32::exp` in the reference is no bit-exact match.
            if !exp_matches_f32_exp() {
                return Ok(());
            }
            let head_dim = [8usize, 10, 16, 12][hd_ix];
            let (n_heads, n_kv_heads) = [(1usize, 1usize), (2, 2), (4, 4), (4, 2), (4, 1), (6, 3)][heads_ix];
            // Large queries push score gaps past 88, into exp's special path.
            let q_scale = if large_scores { 40.0 } else { 1.0 };
            let mut rng = Rng64::new(seed);
            let d_model = n_heads * head_dim;
            let a = MultiHeadAttention::new(d_model, n_heads, n_kv_heads, max_seq, true, true, false, &mut rng);
            let width = n_kv_heads * head_dim;
            let mut caches: Vec<KvCache> = (0..batch)
                .map(|i| {
                    let mut c = KvCache::with_bounds(max_seq, width);
                    // Context lengths cover 1..=max_seq across the batch.
                    let len = 1 + (i * 7 + seed as usize % 5) % max_seq;
                    for _ in 0..len {
                        let k = Tensor::randn(&[1, width], &mut rng);
                        let v = Tensor::randn(&[1, width], &mut rng);
                        c.push(k.data(), v.data()).expect("within bounds");
                    }
                    c
                })
                .collect();
            let q = Tensor::randn(&[batch, d_model], &mut rng).scale(q_scale);
            let want = attend_caches_reference(&a, &q, &caches);
            let refs: Vec<&mut KvCache> = caches.iter_mut().collect();
            let got = a.attend_caches(&q, &refs);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    fn attn(causal: bool, rope: bool, seed: u64) -> MultiHeadAttention {
        let mut rng = Rng64::new(seed);
        MultiHeadAttention::new(8, 2, 2, 16, causal, rope, false, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let a = attn(true, true, 1);
        let mut rng = Rng64::new(10);
        let x = Tensor::randn(&[2 * 5, 8], &mut rng);
        let (y, _) = a.forward(&x, 2, 5);
        assert_eq!(y.dims(), &[10, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // Changing a future token must not affect earlier outputs.
        let a = attn(true, true, 2);
        let mut rng = Rng64::new(11);
        let mut x = Tensor::randn(&[6, 8], &mut rng);
        let (y1, _) = a.forward(&x, 1, 6);
        // Perturb the last token.
        for v in x.row_mut(5) {
            *v += 1.0;
        }
        let (y2, _) = a.forward(&x, 1, 6);
        for t in 0..5 {
            for j in 0..8 {
                assert!(
                    (y1.get(&[t, j]) - y2.get(&[t, j])).abs() < 1e-5,
                    "future token leaked into position {t}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_attends_everywhere() {
        let a = attn(false, false, 3);
        let mut rng = Rng64::new(12);
        let mut x = Tensor::randn(&[4, 8], &mut rng);
        let (y1, _) = a.forward(&x, 1, 4);
        for v in x.row_mut(3) {
            *v += 1.0;
        }
        let (y2, _) = a.forward(&x, 1, 4);
        // Early positions change in an encoder.
        let diff: f32 = (0..8)
            .map(|j| (y1.get(&[0, j]) - y2.get(&[0, j])).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn batches_are_independent() {
        let a = attn(true, true, 4);
        let mut rng = Rng64::new(13);
        let x1 = Tensor::randn(&[3, 8], &mut rng);
        let x2 = Tensor::randn(&[3, 8], &mut rng);
        // Concatenate into a batch of 2.
        let mut both = Vec::new();
        both.extend_from_slice(x1.data());
        both.extend_from_slice(x2.data());
        let xb = Tensor::from_vec(&[6, 8], both);
        let (yb, _) = a.forward(&xb, 2, 3);
        let (y1, _) = a.forward(&x1, 1, 3);
        for t in 0..3 {
            for j in 0..8 {
                assert!((yb.get(&[t, j]) - y1.get(&[t, j])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_dx_matches_finite_difference() {
        let mut a = attn(true, true, 5);
        let mut rng = Rng64::new(14);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let dy = Tensor::randn(&[4, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 4);
        let dx = a.backward(&cache, &dy);
        let ac = a.clone();
        let h = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd =
                (ac.forward(&xp, 1, 4).0.dot(&dy) - ac.forward(&xm, 1, 4).0.dot(&dy)) / (2.0 * h);
            assert!(
                (dx.data()[i] - fd).abs() < 3e-2,
                "dx[{i}]: {} vs {fd}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn backward_weight_grads_match_finite_difference() {
        let mut a = attn(false, false, 6);
        let mut rng = Rng64::new(15);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let dy = Tensor::randn(&[3, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 3);
        a.backward(&cache, &dy);
        // Check a handful of entries of W_Q and W_O.
        let h = 1e-2;
        let grads: Vec<f32> = match &a.wq {
            AnyLinear::Dense(l) => l.w.grad.data().to_vec(),
            _ => unreachable!(),
        };
        for &i in &[0usize, 5, 17, 33] {
            let mut ap = a.clone();
            let mut am = a.clone();
            if let (AnyLinear::Dense(lp), AnyLinear::Dense(lm)) = (&mut ap.wq, &mut am.wq) {
                lp.w.value.data_mut()[i] += h;
                lm.w.value.data_mut()[i] -= h;
            }
            let fd =
                (ap.forward(&x, 1, 3).0.dot(&dy) - am.forward(&x, 1, 3).0.dot(&dy)) / (2.0 * h);
            assert!(
                (grads[i] - fd).abs() < 2e-2,
                "dWq[{i}]: {} vs {fd}",
                grads[i]
            );
        }
    }

    #[test]
    fn gqa_shares_kv_heads() {
        let mut rng = Rng64::new(7);
        let a = MultiHeadAttention::new(8, 4, 2, 16, true, true, false, &mut rng);
        assert_eq!(a.wk.fan_out(), 2 * 2); // n_kv_heads * head_dim
        assert_eq!(a.wq.fan_out(), 4 * 2);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let (y, _) = a.forward(&x, 1, 4);
        assert_eq!(y.dims(), &[4, 8]);
    }

    #[test]
    fn gqa_backward_matches_finite_difference() {
        let mut rng = Rng64::new(8);
        let mut a = MultiHeadAttention::new(8, 4, 2, 16, true, true, false, &mut rng);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let dy = Tensor::randn(&[3, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 3);
        let dx = a.backward(&cache, &dy);
        let ac = a.clone();
        let h = 1e-2;
        for &i in &[0usize, 7, 13, 20] {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd =
                (ac.forward(&xp, 1, 3).0.dot(&dy) - ac.forward(&xm, 1, 3).0.dot(&dy)) / (2.0 * h);
            assert!((dx.data()[i] - fd).abs() < 3e-2);
        }
    }
}
