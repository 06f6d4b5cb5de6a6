//! Multi-head self-attention with manual backpropagation.
//!
//! Supports causal (decoder) and bidirectional (encoder) masking, grouped-
//! query attention, and rotary position embeddings. The four projection
//! weights `W_Q`, `W_K`, `W_V`, `W_SO` are the attention-side decomposable
//! tensors of the paper (Fig. 4) and are held in [`AnyLinear`] slots so the
//! decomposer can factor them in place.

use crate::act::softmax_rows_backward;
use crate::decode::DecodeError;
use crate::linear::AnyLinear;
use crate::param::Param;
use crate::rope::Rope;
use lrd_tensor::attention::{
    decode_attention, key_tiles_len, prefill_attention, prefill_scratch_len, scratch_len, CachedKv,
    HeadShape, KEY_TILE,
};
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{matmul, matmul_transa, matmul_transb};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

/// Per-layer key/value cache for incremental decoding of one session.
///
/// Keys (post-RoPE) sit in [`KEY_TILE`]-position tiles, `[column][lane]`
/// as [`lrd_tensor::attention`] reads them; values are row-major. Both
/// buffers reserve their full `max_seq` capacity up front, so appending a
/// token in the serving hot loop never reallocates, and a session can
/// never grow past its hard `max_seq` bound — [`KvCache::push`] returns a
/// typed error instead. Cloning keeps the reservation.
#[derive(Debug, PartialEq)]
pub struct KvCache {
    /// Cached keys, whole tiles; lanes past `len` are zero.
    k: Vec<f32>,
    /// Cached value rows, flattened; each row is `width` wide.
    v: Vec<f32>,
    /// Row width, `n_kv_heads · head_dim`.
    width: usize,
    /// Hard bound on cached positions.
    max_seq: usize,
    /// Cached positions so far.
    len: usize,
}

impl Clone for KvCache {
    fn clone(&self) -> Self {
        let mut c = KvCache::with_bounds(self.max_seq, self.width);
        c.k.extend_from_slice(&self.k);
        c.v.extend_from_slice(&self.v);
        c.len = self.len;
        c
    }
}

impl KvCache {
    /// An empty cache bounded at `max_seq` positions of `width`-wide rows,
    /// with the full capacity reserved immediately.
    pub fn with_bounds(max_seq: usize, width: usize) -> Self {
        KvCache {
            k: Vec::with_capacity(key_tiles_len(max_seq, width)),
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

    /// Appends one position's key/value rows. The key fills one lane of
    /// the current tile; the first position of a tile zero-fills it.
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
        let tile = KEY_TILE * self.width;
        let lane = self.len % KEY_TILE;
        if lane == 0 {
            self.k.resize(self.k.len() + tile, 0.0);
        }
        let last = self.k.len() - tile;
        for (column, &x) in self.k[last..].chunks_exact_mut(KEY_TILE).zip(k) {
            column[lane] = x;
        }
        self.v.extend_from_slice(v);
        self.len += 1;
        Ok(())
    }

    /// The cached keys and values, as the decode kernel reads them.
    fn view(&self) -> CachedKv<'_> {
        CachedKv {
            keys: &self.k,
            values: &self.v,
            len: self.len,
        }
    }

    /// Key row `t`, gathered from its tile.
    #[cfg(test)]
    fn key(&self, t: usize) -> Vec<f32> {
        (0..self.width)
            .map(|c| self.k[lrd_tensor::attention::key_index(self.width, t, c)])
            .collect()
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
    /// Input of `W_Q`, `W_K` and `W_V`, `(B·T) × d`.
    x: Tensor,
    /// Input of `W_SO`: the per-head contexts, `(B·T) × (H·hd)`.
    ctx: Tensor,
    /// Rotated queries, `(B·T) × (H·hd)`.
    q: Tensor,
    /// Rotated keys, `(B·T) × (Hkv·hd)`.
    k: Tensor,
    /// Values, `(B·T) × (Hkv·hd)`.
    v: Tensor,
    /// Attention probabilities, `[b][h][i][j]`: one `T × T` block per
    /// (batch, head), `0` at masked keys.
    probs: Vec<f32>,
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

    /// This layer's heads, as the attention kernels take them.
    fn head_shape(&self) -> HeadShape {
        HeadShape {
            n_heads: self.n_heads,
            n_kv_heads: self.n_kv_heads,
            head_dim: self.head_dim,
        }
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

        let ctx = self.attend_caches(Backend::active(), &q, caches);
        Ok(self.wo.infer(&ctx))
    }

    /// Decode attention: row `i` of the result holds, for every head `h`,
    /// `softmax(q_h · K_kv(h)ᵀ / √hd) · V_kv(h)` over session `i`'s whole
    /// cache, where `q` row `i` is that session's rotated query. Each
    /// session runs through [`decode_attention`] on `backend`, with one
    /// scratch buffer for the whole call; every backend gives the same bits.
    fn attend_caches(&self, backend: Backend, q: &Tensor, caches: &[&mut KvCache]) -> Tensor {
        let shape = self.head_shape();
        let longest = caches.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut scratch = vec![0.0f32; scratch_len(shape, longest)];
        let mut ctx = Tensor::zeros(&[caches.len(), self.n_heads * self.head_dim]);
        for (i, cache) in caches.iter().enumerate() {
            let (q, out) = (q.row(i), ctx.row_mut(i));
            decode_attention(backend, shape, q, cache.view(), &mut scratch, out);
        }
        ctx
    }

    /// Prefill body of [`MultiHeadAttention::forward`] and
    /// [`MultiHeadAttention::infer`]: the three input projections, RoPE,
    /// and [`MultiHeadAttention::attend_prefill`]. Returns the rotated
    /// queries and keys, the values and the context rows that feed `W_SO`.
    fn prefill(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        probs: Option<&mut [f32]>,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
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

        let ctx = self.attend_prefill(Backend::active(), &q, &k, &v, batch, seq, probs);
        (q, k, v, ctx)
    }

    /// Prefill attention: the context rows `(B·T) × (H·hd)` of rotated
    /// queries `q` over keys `k` and values `v`, one [`prefill_attention`]
    /// call per batch element on `backend`, with one scratch buffer for
    /// the whole call. Each sequence's probabilities, `[h][i][j]`, go to
    /// its `H·T·T` block of `probs` when given.
    #[allow(clippy::too_many_arguments)] // the layer's activations plus the kernel's backend and probs
    fn attend_prefill(
        &self,
        backend: Backend,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        batch: usize,
        seq: usize,
        mut probs: Option<&mut [f32]>,
    ) -> Tensor {
        #[cfg(test)]
        if tests::REFERENCE_PREFILL.get() {
            return tests::attend_prefill_reference(self, backend, q, k, v, batch, seq, probs);
        }
        let shape = self.head_shape();
        let mut scratch = vec![0.0f32; prefill_scratch_len(shape, seq)];
        let mut ctx = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let (qn, kn, pn) = (seq * q.cols(), seq * k.cols(), self.n_heads * seq * seq);
        let rows = q
            .data()
            .chunks_exact(qn)
            .zip(ctx.data_mut().chunks_exact_mut(qn));
        let kv = k.data().chunks_exact(kn).zip(v.data().chunks_exact(kn));
        for (b, ((q, ctx), (k, v))) in rows.zip(kv).enumerate() {
            let probs = probs.as_deref_mut().map(|p| &mut p[b * pn..][..pn]);
            prefill_attention(
                backend,
                shape,
                self.causal,
                seq,
                q,
                k,
                v,
                &mut scratch,
                ctx,
                probs,
            );
        }
        ctx
    }

    /// Forward pass over `x ((B·T) × d)` laid out batch-major.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch · seq`.
    pub fn forward(&self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, AttentionCache) {
        let mut probs = vec![0.0f32; batch * self.n_heads * seq * seq];
        let (q, k, v, ctx) = self.prefill(x, batch, seq, Some(&mut probs));
        let y = self.wo.infer(&ctx);
        let cache = AttentionCache {
            x: x.clone(),
            ctx,
            q,
            k,
            v,
            probs,
            batch,
            seq,
        };
        (y, cache)
    }

    /// Inference-only forward: no retained activations or attention
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch · seq`.
    pub fn infer(&self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        let (.., ctx) = self.prefill(x, batch, seq, None);
        self.wo.infer(&ctx)
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Tensor {
        let (batch, seq) = (cache.batch, cache.seq);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;

        let dctx = self.wo.backward(&cache.ctx, dy);

        let mut dq = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let mut dk = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);
        let mut dv = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);

        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let block = &cache.probs[(b * self.n_heads + h) * seq * seq..][..seq * seq];
                let p = &Tensor::from_vec(&[seq, seq], block.to_vec());
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

        let mut dx = self.wq.backward(&cache.x, &dq);
        dx.axpy(1.0, &self.wk.backward(&cache.x, &dk));
        dx.axpy(1.0, &self.wv.backward(&cache.x, &dv));
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
    use crate::act::softmax_rows;
    use crate::config::TransformerConfig;
    use crate::model::TransformerLm;
    use lrd_tensor::dtype::KernelDtype;
    use lrd_tensor::exp::exp_matches_f32_exp;
    use lrd_tensor::matmul::{gemm, Trans, KC};
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Routes this thread's prefills through [`attend_prefill_reference`].
        pub(super) static REFERENCE_PREFILL: Cell<bool> = const { Cell::new(false) };
    }

    /// The per-(batch, head) prefill loop [`prefill_attention`] replaced,
    /// on `backend`: three head-block copies, `a·bᵀ`, `×scale`, the `-inf`
    /// mask, `softmax_rows`, `P·V` and an add back into `ctx`. Each head's
    /// probabilities go to its `T × T` block of `probs` when given.
    #[allow(clippy::too_many_arguments)] // mirrors `attend_prefill`
    pub(super) fn attend_prefill_reference(
        a: &MultiHeadAttention,
        backend: Backend,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        batch: usize,
        seq: usize,
        mut probs: Option<&mut [f32]>,
    ) -> Tensor {
        let scale = 1.0 / (a.head_dim as f32).sqrt();
        let group = a.n_heads / a.n_kv_heads;
        let mut ctx = Tensor::zeros(&[batch * seq, a.n_heads * a.head_dim]);
        for b in 0..batch {
            for h in 0..a.n_heads {
                let kv_h = h / group;
                let qb = MultiHeadAttention::head_block(q, b, h, seq, a.head_dim);
                let kb = MultiHeadAttention::head_block(k, b, kv_h, seq, a.head_dim);
                let vb = MultiHeadAttention::head_block(v, b, kv_h, seq, a.head_dim);
                let mut scores = gemm(backend, KernelDtype::F32, Trans::B, &qb, &kb).scale(scale);
                if a.causal {
                    for t in 0..seq {
                        let row = scores.row_mut(t);
                        for entry in row.iter_mut().take(seq).skip(t + 1) {
                            *entry = f32::NEG_INFINITY;
                        }
                    }
                }
                let p = softmax_rows(&scores);
                let c = gemm(backend, KernelDtype::F32, Trans::No, &p, &vb);
                MultiHeadAttention::add_head_block(&mut ctx, &c, b, h, seq, a.head_dim);
                if let Some(probs) = probs.as_deref_mut() {
                    let block = seq * seq;
                    probs[(b * a.n_heads + h) * block..][..block].copy_from_slice(p.data());
                }
            }
        }
        ctx
    }

    /// Runs `f` with this thread's prefills on the reference loop.
    fn on_reference<T>(f: impl FnOnce() -> T) -> T {
        REFERENCE_PREFILL.set(true);
        let out = f();
        REFERENCE_PREFILL.set(false);
        out
    }

    /// The backends on which the reference's `softmax_rows`, whose `exp`
    /// follows the active backend, gives the kernel's `exp` bits: every
    /// exact backend where `exp` is `f32::exp`, else the active one.
    fn prefill_backends() -> Vec<Backend> {
        if exp_matches_f32_exp() {
            exact_backends()
        } else {
            vec![Backend::active()]
        }
    }

    fn f32_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The kernel gives the reference's context and probability bits, with
    /// and without `probs`, on random rotated activations of `batch`
    /// sequences of `seq`.
    fn assert_prefill_matches_reference(
        a: &MultiHeadAttention,
        batch: usize,
        seq: usize,
        rng: &mut Rng64,
    ) {
        let rows = batch * seq;
        let q = Tensor::randn(&[rows, a.n_heads * a.head_dim], rng);
        let k = Tensor::randn(&[rows, a.n_kv_heads * a.head_dim], rng);
        let v = Tensor::randn(&[rows, a.n_kv_heads * a.head_dim], rng);
        let pn = batch * a.n_heads * seq * seq;
        for backend in prefill_backends() {
            let (mut got_p, mut want_p) = (vec![f32::NAN; pn], vec![f32::NAN; pn]);
            let got = a.attend_prefill(backend, &q, &k, &v, batch, seq, Some(&mut got_p));
            let want =
                attend_prefill_reference(a, backend, &q, &k, &v, batch, seq, Some(&mut want_p));
            let what = format!("{backend:?} causal {} seq {seq} batch {batch}", a.causal);
            assert_eq!(bits(&got), bits(&want), "ctx, {what}");
            assert_eq!(f32_bits(&got_p), f32_bits(&want_p), "probs, {what}");
            let bare = a.attend_prefill(backend, &q, &k, &v, batch, seq, None);
            assert_eq!(bits(&bare), bits(&want), "ctx without probs, {what}");
        }
    }

    /// Prefill head shapes as `(head_dim, n_heads, n_kv_heads)`: the
    /// served one, GQA, multi-query, and widths 12 and 16.
    const PREFILL_SHAPES: [(usize, usize, usize); 5] =
        [(10, 4, 4), (10, 4, 2), (8, 4, 1), (12, 2, 2), (16, 6, 3)];

    fn prefill_layer(
        shape: (usize, usize, usize),
        max_seq: usize,
        causal: bool,
        rng: &mut Rng64,
    ) -> MultiHeadAttention {
        let (head_dim, n_heads, n_kv_heads) = shape;
        MultiHeadAttention::new(
            n_heads * head_dim,
            n_heads,
            n_kv_heads,
            max_seq,
            causal,
            true,
            false,
            rng,
        )
    }

    /// Every sequence length from 1 to 64, across the GEMM tile edges
    /// (`MR = 6` rows, `NR = 16` columns) and the kernel's own (four
    /// queries, sixteen keys), causal and bidirectional, batch 2.
    #[test]
    fn prefill_attention_pins_every_length_to_64() {
        let mut rng = Rng64::new(500);
        for seq in 1..=64 {
            for causal in [true, false] {
                let shape = PREFILL_SHAPES[seq % PREFILL_SHAPES.len()];
                let a = prefill_layer(shape, 64, causal, &mut rng);
                assert_prefill_matches_reference(&a, 2, seq, &mut rng);
            }
        }
    }

    /// Chains longer than one GEMM depth block (`KC`) restart per block,
    /// in the scores (`head_dim` 264) and in P·V (276 keys); widths 20 and
    /// 264 also leave ragged column strips.
    #[test]
    fn prefill_attention_splits_chains_at_gemm_depth_blocks() {
        let mut rng = Rng64::new(501);
        for (shape, seq) in [((264, 1, 1), 9), ((20, 2, 1), KC + 20)] {
            for causal in [true, false] {
                let a = prefill_layer(shape, seq, causal, &mut rng);
                assert_prefill_matches_reference(&a, 1, seq, &mut rng);
            }
        }
    }

    /// A non-finite value row reaches no earlier position: the kernel
    /// skips masked keys instead of multiplying their zero probability by
    /// the value. A non-finite input row makes its own q, k and v rows
    /// non-finite.
    #[test]
    fn non_finite_future_value_does_not_reach_earlier_positions() {
        let (batch, seq, row) = (2, 9, 6);
        let poisoned = seq + row;
        for (i, &shape) in PREFILL_SHAPES.iter().enumerate() {
            let mut rng = Rng64::new(600 + i as u64);
            let a = prefill_layer(shape, seq, true, &mut rng);
            let x = Tensor::randn(&[batch * seq, a.n_heads * a.head_dim], &mut rng);
            let clean = a.infer(&x, batch, seq);
            for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut xp = x.clone();
                xp.row_mut(poisoned)[0] = value;
                let v = a.wv.infer(&xp);
                assert!(v.row(poisoned).iter().any(|v| !v.is_finite()));
                for y in [a.infer(&xp, batch, seq), a.forward(&xp, batch, seq).0] {
                    for r in (0..batch * seq).filter(|&r| !(poisoned..2 * seq).contains(&r)) {
                        assert_eq!(
                            f32_bits(y.row(r)),
                            f32_bits(clean.row(r)),
                            "{shape:?} {value} row {r}"
                        );
                    }
                }
            }
        }
    }

    /// Training `forward`'s output and probabilities, and `backward`'s
    /// `dx` and weight gradients, carry the reference loop's bits.
    #[test]
    fn forward_and_backward_match_reference_bit_for_bit() {
        let (batch, seq) = (2, 11);
        for (i, &shape) in PREFILL_SHAPES.iter().enumerate() {
            for causal in [true, false] {
                let mut rng = Rng64::new(700 + i as u64);
                let a = prefill_layer(shape, seq, causal, &mut rng);
                let d = a.n_heads * a.head_dim;
                let x = Tensor::randn(&[batch * seq, d], &mut rng);
                let dy = Tensor::randn(&[batch * seq, d], &mut rng);
                let run = || {
                    let mut a = a.clone();
                    let (y, cache) = a.forward(&x, batch, seq);
                    let dx = a.backward(&cache, &dy);
                    let mut params = Vec::new();
                    a.visit_params("attn", &mut params);
                    let grads: Vec<Vec<u32>> = params.iter().map(|(_, p)| bits(&p.grad)).collect();
                    (bits(&y), f32_bits(&cache.probs), bits(&dx), grads)
                };
                let (got, want) = (run(), on_reference(run));
                assert_eq!(got.0, want.0, "{shape:?} causal {causal}: y");
                assert_eq!(got.1, want.1, "{shape:?} causal {causal}: probs");
                assert_eq!(got.2, want.2, "{shape:?} causal {causal}: dx");
                assert_eq!(got.3, want.3, "{shape:?} causal {causal}: weight grads");
            }
        }
    }

    /// Whole-model logits carry the reference loop's bits on tiny-Llama
    /// (causal, RoPE) and tiny-BERT (bidirectional).
    #[test]
    fn logits_match_reference_bit_for_bit_on_tiny_models() {
        for cfg in [
            TransformerConfig::tiny_llama(),
            TransformerConfig::tiny_bert(),
        ] {
            let mut rng = Rng64::new(800);
            let (batch, seq) = (2, 23);
            let tokens: Vec<usize> = (0..batch * seq)
                .map(|_| rng.below(cfg.vocab_size))
                .collect();
            let model = TransformerLm::new(cfg, &mut rng);
            let got = model.logits(&tokens, batch);
            let want = on_reference(|| model.logits(&tokens, batch));
            assert_eq!(bits(&got), bits(&want));
        }
    }

    /// The scalar decode-attention loop [`MultiHeadAttention::attend_caches`]
    /// replaced: a fresh scores `Vec` per (session, head), one key dot at a
    /// time over row-major keys, `f32::exp`, and the value sum accumulated
    /// straight into `ctx`.
    fn attend_caches_reference(a: &MultiHeadAttention, q: &Tensor, caches: &[KvCache]) -> Tensor {
        let hd = a.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let group = a.n_heads / a.n_kv_heads;
        let mut ctx = Tensor::zeros(&[caches.len(), a.n_heads * hd]);
        for (i, cache) in caches.iter().enumerate() {
            let ctx_len = cache.len();
            let keys: Vec<Vec<f32>> = (0..ctx_len).map(|t| cache.key(t)).collect();
            for h in 0..a.n_heads {
                let base = (h / group) * hd;
                let qh = &q.row(i)[h * hd..(h + 1) * hd];
                let mut scores = Vec::with_capacity(ctx_len);
                for key in &keys {
                    let kh = &key[base..][..hd];
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

    /// The backends whose `exp` gives `f32::exp`'s bits on this host: the
    /// scalar one always, the detected SIMD one on x86_64 glibc.
    fn exact_backends() -> Vec<Backend> {
        let glibc = cfg!(all(target_arch = "x86_64", target_env = "gnu"));
        std::iter::once(Backend::Scalar)
            .chain(Backend::detect_simd().filter(|_| glibc))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// One session cache per entry of `lens`, filled with random rows.
    fn random_caches(
        lens: &[usize],
        max_seq: usize,
        width: usize,
        rng: &mut Rng64,
    ) -> Vec<KvCache> {
        lens.iter()
            .map(|&len| {
                let mut c = KvCache::with_bounds(max_seq, width);
                for _ in 0..len {
                    let k = Tensor::randn(&[1, width], rng);
                    let v = Tensor::randn(&[1, width], rng);
                    c.push(k.data(), v.data()).expect("within bounds");
                }
                c
            })
            .collect()
    }

    /// Asserts every exact backend gives the reference's bits, so the
    /// scalar twin and the SIMD kernel also agree with each other.
    fn assert_matches_reference(a: &MultiHeadAttention, q: &Tensor, caches: &mut [KvCache]) {
        let want = attend_caches_reference(a, q, caches);
        let refs: Vec<&mut KvCache> = caches.iter_mut().collect();
        let outs: Vec<Tensor> = exact_backends()
            .into_iter()
            .map(|b| a.attend_caches(b, q, &refs))
            .collect();
        for got in &outs {
            assert_eq!(bits(got), bits(&want));
        }
        assert_eq!(
            bits(&outs[0]),
            bits(&outs[outs.len() - 1]),
            "scalar vs SIMD"
        );
    }

    /// The served shape (four heads of 10, the AVX2 kernel's) and generic
    /// ones (GQA, widths 8, 12, 16), as `(head_dim, n_heads, n_kv_heads)`.
    const SHAPES: [(usize, usize, usize); 6] = [
        (10, 4, 4),
        (10, 4, 2),
        (8, 1, 1),
        (8, 4, 1),
        (12, 2, 2),
        (16, 6, 3),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tiled kernel gives the reference's bits on every exact
        /// backend for the served (4 heads of 10) and generic head shapes,
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
            let head_dim = [8usize, 10, 16, 12][hd_ix];
            let (n_heads, n_kv_heads) = [(1usize, 1usize), (2, 2), (4, 4), (4, 2), (4, 1), (6, 3)][heads_ix];
            // Large queries push score gaps past 88, into exp's special path.
            let q_scale = if large_scores { 40.0 } else { 1.0 };
            let mut rng = Rng64::new(seed);
            let d_model = n_heads * head_dim;
            let a = MultiHeadAttention::new(d_model, n_heads, n_kv_heads, max_seq, true, true, false, &mut rng);
            // Context lengths cover 1..=max_seq across the batch.
            let lens: Vec<usize> = (0..batch).map(|i| 1 + (i * 7 + seed as usize % 5) % max_seq).collect();
            let mut caches = random_caches(&lens, max_seq, n_kv_heads * head_dim, &mut rng);
            let q = Tensor::randn(&[batch, d_model], &mut rng).scale(q_scale);
            assert_matches_reference(&a, &q, &mut caches);
        }

        /// The prefill kernel gives the reference's bits on every exact
        /// backend, over head shapes with and without GQA, causal and
        /// bidirectional, any length to 64 and batches above one.
        #[test]
        fn prefill_attention_matches_per_head_reference_bit_for_bit(
            shape_ix in 0usize..5,
            seq in 1usize..=64,
            batch in 1usize..=3,
            causal in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = Rng64::new(seed);
            let a = prefill_layer(PREFILL_SHAPES[shape_ix], 64, causal, &mut rng);
            assert_prefill_matches_reference(&a, batch, seq, &mut rng);
        }

        /// A pushed key row reads back unchanged from its tile lane, and
        /// every row pushed before it stays put.
        #[test]
        fn push_then_key_round_trips(
            width in 1usize..=48,
            max_seq in 1usize..=40,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng64::new(seed);
            let mut cache = KvCache::with_bounds(max_seq, width);
            let mut rows = Vec::new();
            for _ in 0..max_seq {
                let k = Tensor::randn(&[1, width], &mut rng).data().to_vec();
                cache.push(&k, &k).expect("within bounds");
                rows.push(k);
            }
            for (t, row) in rows.iter().enumerate() {
                prop_assert_eq!(&cache.key(t), row);
            }
        }
    }

    /// Context lengths on each side of the 8-position tile boundaries and
    /// at `max_seq`, for every head shape and exact backend.
    #[test]
    fn decode_attention_pins_tile_boundaries() {
        let max_seq = 64;
        let lens = [7usize, 8, 9, 15, 16, 17, max_seq];
        for (i, &(head_dim, n_heads, n_kv_heads)) in SHAPES.iter().enumerate() {
            let mut rng = Rng64::new(100 + i as u64);
            let d_model = n_heads * head_dim;
            let a = MultiHeadAttention::new(
                d_model, n_heads, n_kv_heads, max_seq, true, true, false, &mut rng,
            );
            let mut caches = random_caches(&lens, max_seq, n_kv_heads * head_dim, &mut rng);
            let q = Tensor::randn(&[lens.len(), d_model], &mut rng);
            assert_matches_reference(&a, &q, &mut caches);
        }
    }

    /// NaN and infinite keys poison the same outputs as in the reference.
    #[test]
    fn non_finite_keys_land_where_the_reference_puts_them() {
        let max_seq = 20;
        for (i, &(head_dim, n_heads, n_kv_heads)) in SHAPES.iter().enumerate() {
            let mut rng = Rng64::new(200 + i as u64);
            let d_model = n_heads * head_dim;
            let width = n_kv_heads * head_dim;
            let a = MultiHeadAttention::new(
                d_model, n_heads, n_kv_heads, max_seq, true, true, false, &mut rng,
            );
            // One session per (row, value) pair; the first stays finite.
            let poison = [
                (3usize, f32::NAN),
                (8, f32::INFINITY),
                (16, f32::NEG_INFINITY),
                (0, f32::NAN),
            ];
            let mut caches = random_caches(&[17; 5], max_seq, width, &mut rng);
            for (c, &(row, value)) in caches.iter_mut().skip(1).zip(&poison) {
                let mut fresh = KvCache::with_bounds(max_seq, width);
                for t in 0..c.len() {
                    let mut k = c.key(t);
                    if t == row {
                        k[0] = value;
                    }
                    let v = c.v[t * width..(t + 1) * width].to_vec();
                    fresh.push(&k, &v).expect("within bounds");
                }
                *c = fresh;
            }
            let q = Tensor::randn(&[caches.len(), d_model], &mut rng);
            let want = attend_caches_reference(&a, &q, &caches);
            let refs: Vec<&mut KvCache> = caches.iter_mut().collect();
            let finite = |t: &Tensor| t.data().iter().map(|v| v.is_finite()).collect::<Vec<_>>();
            for backend in exact_backends() {
                let got = a.attend_caches(backend, &q, &refs);
                assert_eq!(finite(&got), finite(&want), "{backend:?}");
                assert!(finite(&want).contains(&false), "poison reaches the output");
            }
        }
    }

    /// A clone keeps the `max_seq` reservation, so pushing it to the bound
    /// never moves either buffer.
    #[test]
    fn cloned_cache_never_reallocates() {
        let (max_seq, width) = (19, 12);
        let mut rng = Rng64::new(9);
        let mut caches = random_caches(&[5], max_seq, width, &mut rng);
        let mut clone = caches.remove(0).clone();
        let ptrs = (clone.k.as_ptr(), clone.v.as_ptr());
        let row = vec![1.0f32; width];
        while clone.len() < max_seq {
            clone.push(&row, &row).expect("within bounds");
            assert_eq!((clone.k.as_ptr(), clone.v.as_ptr()), ptrs);
        }
        assert!(clone.push(&row, &row).is_err());
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
