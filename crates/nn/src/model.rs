//! The full transformer language model.

use crate::act::log_softmax_rows;
use crate::block::{BlockCache, DecoderBlock, EncoderBlock, TransformerBlock};
use crate::config::{ArchKind, TransformerConfig};
use crate::decode::DecodeError;
use crate::linear::AnyLinear;
use crate::norm::{LayerNorm, LayerNormCache, RmsNorm, RmsNormCache};
use crate::param::Param;
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

/// Final normalization before the LM head (architecture-dependent).
#[derive(Debug, Clone, PartialEq)]
pub enum FinalNorm {
    /// RMSNorm (decoder/Llama).
    Rms(RmsNorm),
    /// LayerNorm (encoder/BERT).
    Layer(LayerNorm),
}

/// Cache for [`FinalNorm`].
#[derive(Debug, Clone)]
pub enum FinalNormCache {
    /// RMSNorm cache.
    Rms(RmsNormCache),
    /// LayerNorm cache.
    Layer(LayerNormCache),
}

impl FinalNorm {
    fn forward(&self, x: &Tensor) -> (Tensor, FinalNormCache) {
        match self {
            FinalNorm::Rms(n) => {
                let (y, c) = n.forward(x);
                (y, FinalNormCache::Rms(c))
            }
            FinalNorm::Layer(n) => {
                let (y, c) = n.forward(x);
                (y, FinalNormCache::Layer(c))
            }
        }
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        match self {
            FinalNorm::Rms(n) => n.infer(x),
            FinalNorm::Layer(n) => n.infer(x),
        }
    }

    fn backward(&mut self, cache: &FinalNormCache, dy: &Tensor) -> Tensor {
        match (self, cache) {
            (FinalNorm::Rms(n), FinalNormCache::Rms(c)) => n.backward(c, dy),
            (FinalNorm::Layer(n), FinalNormCache::Layer(c)) => n.backward(c, dy),
            // lrd-lint: allow(no-panic, "pairing a cache with the wrong norm variant is an internal bug; no recovery is meaningful")
            _ => panic!("FinalNorm::backward: cache variant mismatch"),
        }
    }

    fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        match self {
            FinalNorm::Rms(n) => n.visit_params(prefix, out),
            FinalNorm::Layer(n) => n.visit_params(prefix, out),
        }
    }

    fn param_count(&self) -> usize {
        match self {
            FinalNorm::Rms(n) => n.param_count(),
            FinalNorm::Layer(n) => n.param_count(),
        }
    }
}

/// A decoder-only (Llama-style) or encoder (BERT-style) language model with
/// token embeddings, `n_layers` transformer blocks, a final norm and an LM
/// head.
///
/// # Example
///
/// ```
/// use lrd_nn::{TransformerConfig, TransformerLm};
/// use lrd_tensor::rng::Rng64;
///
/// let mut cfg = TransformerConfig::tiny_llama();
/// cfg.n_layers = 2; // keep the doctest fast
/// let mut rng = Rng64::new(1);
/// let model = TransformerLm::new(cfg, &mut rng);
/// let logits = model.logits(&[1, 2, 3], 1);
/// assert_eq!(logits.dims(), &[3, model.config().vocab_size]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerLm {
    cfg: TransformerConfig,
    /// Token embedding table, `vocab × d`.
    pub tok_embed: Param,
    /// Learned positional embeddings (encoder only), `max_seq × d`.
    pub pos_embed: Option<Param>,
    /// Transformer blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final normalization.
    pub final_norm: FinalNorm,
    /// LM head, `d × vocab`.
    pub lm_head: AnyLinear,
}

/// Incremental decoding state (KV caches + position) for
/// [`TransformerLm::decode_step`] — one per in-flight serving session.
///
/// Created by [`TransformerLm::new_decode_state`], which preallocates
/// every layer's KV cache at its full `max_seq` capacity, so a session's
/// memory footprint is fixed at admission and decoding never reallocates.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeState {
    caches: Vec<crate::attention::KvCache>,
    pos: usize,
}

impl DecodeState {
    /// Number of tokens already consumed.
    pub fn len(&self) -> usize {
        self.pos
    }

    /// Whether no tokens have been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }
}

/// Cached forward state for [`TransformerLm::forward`].
#[derive(Debug, Clone)]
pub struct ModelCache {
    tokens: Vec<usize>,
    seq: usize,
    block_caches: Vec<BlockCache>,
    norm_cache: FinalNormCache,
    /// Final-norm output, the input of the LM head.
    nx: Tensor,
}

impl TransformerLm {
    /// Creates a randomly initialized model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`TransformerConfig::validate`]).
    pub fn new(cfg: TransformerConfig, rng: &mut Rng64) -> Self {
        cfg.validate();
        let std = 0.02f32.max((1.0 / cfg.d_model as f32).sqrt() * 0.5);
        let tok_embed = Param::randn(&[cfg.vocab_size, cfg.d_model], std, rng);
        let pos_embed = matches!(cfg.kind, ArchKind::Encoder)
            .then(|| Param::randn(&[cfg.max_seq, cfg.d_model], std, rng));
        let blocks = (0..cfg.n_layers)
            .map(|_| match cfg.kind {
                ArchKind::Decoder => TransformerBlock::Decoder(DecoderBlock::new(&cfg, rng)),
                ArchKind::Encoder => TransformerBlock::Encoder(EncoderBlock::new(&cfg, rng)),
            })
            .collect();
        let final_norm = match cfg.kind {
            ArchKind::Decoder => FinalNorm::Rms(RmsNorm::new(cfg.d_model)),
            ArchKind::Encoder => FinalNorm::Layer(LayerNorm::new(cfg.d_model)),
        };
        let lm_head = AnyLinear::dense(cfg.d_model, cfg.vocab_size, false, rng);
        TransformerLm {
            cfg,
            tok_embed,
            pos_embed,
            blocks,
            final_norm,
            lm_head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.tok_embed.len()
            + self.pos_embed.as_ref().map_or(0, Param::len)
            + self
                .blocks
                .iter()
                .map(TransformerBlock::param_count)
                .sum::<usize>()
            + self.final_norm.param_count()
            + self.lm_head.param_count()
    }

    /// Embeds a flat, batch-major token slice into `(B·T) × d` activations.
    fn embed(&self, tokens: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(tokens.len(), batch * seq, "token count != batch*seq");
        let d = self.cfg.d_model;
        let mut x = Tensor::zeros(&[batch * seq, d]);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.cfg.vocab_size, "token id {t} out of range");
            x.row_mut(i).copy_from_slice(self.tok_embed.value.row(t));
            if let Some(pe) = &self.pos_embed {
                let pos = i % seq;
                for (a, &b) in x.row_mut(i).iter_mut().zip(pe.value.row(pos)) {
                    *a += b;
                }
            }
        }
        x
    }

    /// Full forward pass returning logits `(B·T) × vocab` and the backward
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != batch·seq`, `seq > max_seq`, or a token id
    /// is out of range.
    pub fn forward(&self, tokens: &[usize], batch: usize) -> (Tensor, ModelCache) {
        let seq = tokens.len() / batch.max(1);
        assert!(
            seq <= self.cfg.max_seq,
            "sequence length {seq} exceeds max_seq"
        );
        let mut x = self.embed(tokens, batch, seq);
        let mut block_caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, c) = block.forward(&x, batch, seq);
            x = y;
            block_caches.push(c);
        }
        let (nx, norm_cache) = self.final_norm.forward(&x);
        let logits = self.lm_head.infer(&nx);
        (
            logits,
            ModelCache {
                tokens: tokens.to_vec(),
                seq,
                block_caches,
                norm_cache,
                nx,
            },
        )
    }

    /// Inference-only logits: the whole stack takes its no-cache path, so
    /// evaluation allocates no backward state at all.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != batch·seq`, `seq > max_seq`, or a token id
    /// is out of range.
    pub fn logits(&self, tokens: &[usize], batch: usize) -> Tensor {
        let seq = tokens.len() / batch.max(1);
        assert!(
            seq <= self.cfg.max_seq,
            "sequence length {seq} exceeds max_seq"
        );
        let mut x = self.embed(tokens, batch, seq);
        for block in &self.blocks {
            x = block.infer(&x, batch, seq);
        }
        let nx = self.final_norm.infer(&x);
        self.lm_head.infer(&nx)
    }

    /// Backward pass from `dlogits`; accumulates gradients into every
    /// parameter.
    pub fn backward(&mut self, cache: &ModelCache, dlogits: &Tensor) {
        let dnx = self.lm_head.backward(&cache.nx, dlogits);
        let mut dx = self.final_norm.backward(&cache.norm_cache, &dnx);
        for (block, bc) in self.blocks.iter_mut().zip(&cache.block_caches).rev() {
            dx = block.backward(bc, &dx);
        }
        // Embedding gradients.
        for (i, &t) in cache.tokens.iter().enumerate() {
            let gr = dx.row(i).to_vec();
            let erow = self.tok_embed.grad.row_mut(t);
            for (a, &b) in erow.iter_mut().zip(&gr) {
                *a += b;
            }
            if let Some(pe) = &mut self.pos_embed {
                let pos = i % cache.seq;
                let prow = pe.grad.row_mut(pos);
                for (a, &b) in prow.iter_mut().zip(&gr) {
                    *a += b;
                }
            }
        }
    }

    /// Sum of log-probabilities of `continuation` given `prefix`
    /// (decoder-only scoring, exactly the quantity the lm-eval-style harness
    /// uses for multiple-choice benchmarks). Also returns the number of
    /// scored tokens, for length normalization.
    ///
    /// # Panics
    ///
    /// Panics if `continuation` is empty or the combined length exceeds
    /// `max_seq`.
    pub fn score_continuation(&self, prefix: &[usize], continuation: &[usize]) -> (f32, usize) {
        assert!(!continuation.is_empty(), "empty continuation");
        let mut tokens = prefix.to_vec();
        tokens.extend_from_slice(continuation);
        let logits = self.logits(&tokens, 1);
        let logp = log_softmax_rows(&logits);
        let mut sum = 0.0f32;
        // Token at position i+1 is predicted from position i.
        let start = prefix.len().max(1) - 1;
        for i in start..tokens.len() - 1 {
            sum += logp.get(&[i, tokens[i + 1]]);
        }
        // When the prefix is empty the first continuation token has no
        // conditioning position and is skipped.
        let scored = tokens.len() - 1 - start;
        (sum, scored)
    }

    /// Incremental decoding state: one KV cache per decoder layer plus the
    /// running position. Every cache's full `max_seq` capacity is reserved
    /// here, so the session's memory footprint is fixed at creation.
    pub fn new_decode_state(&self) -> DecodeState {
        let head_dim = self.cfg.d_model / self.cfg.n_heads;
        let width = self.cfg.n_kv_heads * head_dim;
        DecodeState {
            caches: (0..self.cfg.n_layers)
                .map(|_| crate::attention::KvCache::with_bounds(self.cfg.max_seq, width))
                .collect(),
            pos: 0,
        }
    }

    /// Feeds one token through the model incrementally (decoder only),
    /// returning the next-token logits (`1 × vocab`).
    ///
    /// # Errors
    ///
    /// See [`TransformerLm::decode_step_many`]; the state is unchanged on
    /// error.
    pub fn decode_step(
        &self,
        token: usize,
        state: &mut DecodeState,
    ) -> Result<Tensor, DecodeError> {
        self.decode_step_many(&[token], &mut [state])
    }

    /// Continuous-batching decode: advances `S` independent sessions by one
    /// token each, returning the `S × vocab` next-token logits (row `i`
    /// for session `i`). Each layer runs its projections, MLP and norms as
    /// single `S`-row batches — one batched GEMM per weight per layer per
    /// step — while attention reads each session's own KV cache, so the
    /// logits for every session are bit-identical to decoding it alone
    /// with [`TransformerLm::decode_step`] (see DESIGN.md §13 for the
    /// determinism argument).
    ///
    /// # Errors
    ///
    /// [`DecodeError::NotDecoder`] on encoder models,
    /// [`DecodeError::BatchMismatch`] if `tokens`/`states` disagree or are
    /// empty, [`DecodeError::TokenOutOfRange`] for an invalid token id,
    /// [`DecodeError::CacheFull`] if a session is at `max_seq`. All
    /// sessions are validated before any state is advanced, so every
    /// session is unchanged on error.
    pub fn decode_step_many(
        &self,
        tokens: &[usize],
        states: &mut [&mut DecodeState],
    ) -> Result<Tensor, DecodeError> {
        if !matches!(self.cfg.kind, ArchKind::Decoder) {
            return Err(DecodeError::NotDecoder);
        }
        if tokens.is_empty() || tokens.len() != states.len() {
            return Err(DecodeError::BatchMismatch {
                what: "states",
                expected: tokens.len().max(1),
                got: states.len(),
            });
        }
        for &t in tokens {
            if t >= self.cfg.vocab_size {
                return Err(DecodeError::TokenOutOfRange {
                    token: t,
                    vocab: self.cfg.vocab_size,
                });
            }
        }
        for state in states.iter() {
            if state.pos >= self.cfg.max_seq {
                return Err(DecodeError::CacheFull {
                    max_seq: self.cfg.max_seq,
                });
            }
        }
        let positions: Vec<usize> = states.iter().map(|s| s.pos).collect();
        let mut x = self.tok_embed.value.gather_rows(tokens);
        for (l, block) in self.blocks.iter().enumerate() {
            match block {
                TransformerBlock::Decoder(b) => {
                    let mut layer_caches: Vec<&mut crate::attention::KvCache> =
                        states.iter_mut().map(|s| &mut s.caches[l]).collect();
                    x = b.decode_step_many(&x, &positions, &mut layer_caches)?;
                }
                TransformerBlock::Encoder(_) => return Err(DecodeError::NotDecoder),
            }
        }
        for state in states.iter_mut() {
            state.pos += 1;
        }
        let nx = self.final_norm.infer(&x);
        Ok(self.lm_head.infer(&nx))
    }

    /// Greedy generation using the KV cache: O(context) work per new token
    /// instead of O(context²) full recomputes. Produces exactly the same
    /// tokens as [`TransformerLm::generate_greedy`].
    ///
    /// # Errors
    ///
    /// Propagates [`TransformerLm::decode_step`] failures (encoder model,
    /// out-of-range prompt token).
    pub fn generate_greedy_cached(
        &self,
        prompt: &[usize],
        max_new: usize,
        stop_token: Option<usize>,
    ) -> Result<Vec<usize>, DecodeError> {
        let mut state = self.new_decode_state();
        let mut logits = Tensor::zeros(&[1, self.cfg.vocab_size]);
        for &t in prompt {
            logits = self.decode_step(t, &mut state)?;
        }
        let mut out = Vec::new();
        for _ in 0..max_new {
            if state.pos >= self.cfg.max_seq {
                break;
            }
            let row = logits.row(0);
            let next = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.push(next);
            if Some(next) == stop_token {
                break;
            }
            if out.len() < max_new && state.pos < self.cfg.max_seq {
                logits = self.decode_step(next, &mut state)?;
            }
        }
        Ok(out)
    }

    /// Greedy (argmax) generation of up to `max_new` tokens, stopping early
    /// if `stop_token` is produced.
    pub fn generate_greedy(
        &self,
        prompt: &[usize],
        max_new: usize,
        stop_token: Option<usize>,
    ) -> Vec<usize> {
        let mut tokens = prompt.to_vec();
        for _ in 0..max_new {
            if tokens.len() >= self.cfg.max_seq {
                break;
            }
            let logits = self.logits(&tokens, 1);
            let last = logits.row(logits.rows() - 1);
            let next = last
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            tokens.push(next);
            if Some(next) == stop_token {
                break;
            }
        }
        tokens[prompt.len()..].to_vec()
    }

    /// Visits every parameter as `(name, param)` pairs (optimizer and
    /// checkpoint hook).
    pub fn visit_params(&mut self) -> Vec<(String, &mut Param)> {
        let mut out = Vec::new();
        out.push(("tok_embed".to_string(), &mut self.tok_embed));
        if let Some(pe) = &mut self.pos_embed {
            out.push(("pos_embed".to_string(), pe));
        }
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.visit_params(&format!("blocks.{i}"), &mut out);
        }
        self.final_norm.visit_params("final_norm", &mut out);
        self.lm_head.visit_params("lm_head", &mut out);
        out
    }

    /// Visits every decomposable weight tensor as
    /// `(layer_index, tensor_name, slot)` — the decomposer hook. Tensor
    /// names per layer follow the paper's Fig. 4 ordering.
    pub fn visit_linears(&mut self) -> Vec<(usize, &'static str, &mut AnyLinear)> {
        let mut out = Vec::new();
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let mut slots = Vec::new();
            b.visit_linears(&mut slots);
            for (name, slot) in slots {
                out.push((i, name, slot));
            }
        }
        out
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for (_, p) in self.visit_params() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::cross_entropy;

    fn tiny(kind: ArchKind, n_layers: usize) -> TransformerLm {
        let cfg = TransformerConfig {
            kind,
            vocab_size: 16,
            d_model: 8,
            n_layers,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 16,
            max_seq: 12,
        };
        let mut rng = Rng64::new(42);
        TransformerLm::new(cfg, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let m = tiny(ArchKind::Decoder, 2);
        let logits = m.logits(&[1, 2, 3, 4], 1);
        assert_eq!(logits.dims(), &[4, 16]);
        let logits = m.logits(&[1, 2, 3, 4, 5, 6], 2);
        assert_eq!(logits.dims(), &[6, 16]);
    }

    #[test]
    fn infer_logits_match_training_forward() {
        // The no-cache inference path must agree with forward() bit for bit
        // for both architectures, with grouped-query attention, and with
        // every slot replaced by a rank-1 factored layer.
        let gqa_cfg = TransformerConfig {
            n_heads: 4,
            n_kv_heads: 2,
            ..tiny(ArchKind::Decoder, 2).cfg
        };
        let gqa = TransformerLm::new(gqa_cfg, &mut Rng64::new(43));
        let factored = |m: &TransformerLm| {
            let mut f = m.clone();
            for (_, _, slot) in f.visit_linears() {
                let t = lrd_tensor::tucker::tucker2(&slot.effective_weight(), 1).unwrap();
                *slot = AnyLinear::Factored(crate::linear::FactoredLinear::from_tucker(t, None));
            }
            f
        };
        let dense = [tiny(ArchKind::Decoder, 2), tiny(ArchKind::Encoder, 2), gqa];
        let factored: Vec<_> = dense.iter().map(factored).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, m) in dense.iter().chain(&factored).enumerate() {
            let tokens = [1usize, 2, 3, 4, 5, 6];
            let (train, _) = m.forward(&tokens, 2);
            let infer = m.logits(&tokens, 2);
            assert_eq!(bits(&train), bits(&infer), "model {i} infer path diverged");
        }
    }

    #[test]
    fn encoder_forward_shapes() {
        let m = tiny(ArchKind::Encoder, 2);
        let logits = m.logits(&[0, 1, 2], 1);
        assert_eq!(logits.dims(), &[3, 16]);
        assert!(m.pos_embed.is_some());
    }

    #[test]
    fn backward_populates_all_grads() {
        let mut m = tiny(ArchKind::Decoder, 2);
        let tokens = [1usize, 2, 3, 4];
        let (logits, cache) = m.forward(&tokens, 1);
        let (_, dlogits) = cross_entropy(&logits, &[2, 3, 4, 5]);
        m.backward(&cache, &dlogits);
        let nonzero = m
            .visit_params()
            .iter()
            .filter(|(_, p)| p.grad_norm() > 0.0)
            .count();
        let total = m.visit_params().len();
        // Every parameter that participates should receive gradient; unused
        // embedding rows keep the tok_embed grad nonzero overall anyway.
        assert!(
            nonzero as f32 / total as f32 > 0.95,
            "{nonzero}/{total} grads nonzero"
        );
    }

    #[test]
    fn model_grad_matches_finite_difference() {
        let mut m = tiny(ArchKind::Decoder, 1);
        let tokens = [3usize, 1, 4];
        let targets = [1usize, 4, 2];
        let (logits, cache) = m.forward(&tokens, 1);
        let (_, dlogits) = cross_entropy(&logits, &targets);
        m.backward(&cache, &dlogits);
        // Check several parameters across modules against finite differences.
        let loss_of = |model: &TransformerLm| -> f32 {
            let lg = model.logits(&tokens, 1);
            cross_entropy(&lg, &targets).0
        };
        let h = 1e-2;
        let names_grads: Vec<(String, Vec<f32>)> = {
            let mut mm = m.clone();
            mm.visit_params()
                .into_iter()
                .map(|(n, p)| (n, p.grad.data().to_vec()))
                .collect()
        };
        for (pi, (name, grads)) in names_grads.iter().enumerate().step_by(5) {
            let idx = grads.len() / 2;
            let mut mp = m.clone();
            mp.visit_params()[pi].1.value.data_mut()[idx] += h;
            let mut mmn = m.clone();
            mmn.visit_params()[pi].1.value.data_mut()[idx] -= h;
            let fd = (loss_of(&mp) - loss_of(&mmn)) / (2.0 * h);
            assert!(
                (grads[idx] - fd).abs() < 5e-2,
                "param {name}[{idx}]: {} vs {fd}",
                grads[idx]
            );
        }
    }

    #[test]
    fn score_continuation_prefers_trained_pattern() {
        // An untrained model gives roughly uniform scores; check bookkeeping.
        let m = tiny(ArchKind::Decoder, 2);
        let (lp, n) = m.score_continuation(&[1, 2], &[3, 4]);
        assert_eq!(n, 2);
        assert!(lp < 0.0);
        // Scoring with an empty prefix skips the unconditioned first token.
        let (_, n2) = m.score_continuation(&[], &[3, 4, 5]);
        assert_eq!(n2, 2);
    }

    #[test]
    fn generate_greedy_is_deterministic_and_bounded() {
        let m = tiny(ArchKind::Decoder, 2);
        let g1 = m.generate_greedy(&[1, 2, 3], 4, None);
        let g2 = m.generate_greedy(&[1, 2, 3], 4, None);
        assert_eq!(g1, g2);
        assert!(g1.len() <= 4);
        // Stops at max_seq.
        let g3 = m.generate_greedy(&[1; 10], 100, None);
        assert!(g3.len() <= 2);
    }

    #[test]
    fn cached_generation_matches_full_recompute() {
        let m = tiny(ArchKind::Decoder, 3);
        for prompt in [vec![1usize, 2, 3], vec![7, 7], vec![4, 9, 2, 11]] {
            let full = m.generate_greedy(&prompt, 5, None);
            let cached = m.generate_greedy_cached(&prompt, 5, None).unwrap();
            assert_eq!(full, cached, "prompt {prompt:?}");
        }
    }

    #[test]
    fn decode_step_logits_match_full_forward() {
        let m = tiny(ArchKind::Decoder, 2);
        let tokens = [3usize, 1, 4, 1, 5];
        let full = m.logits(&tokens, 1);
        let mut state = m.new_decode_state();
        let mut last = Tensor::zeros(&[1, 16]);
        for &t in &tokens {
            last = m.decode_step(t, &mut state).unwrap();
        }
        assert_eq!(state.len(), 5);
        let diff: f32 = (0..16)
            .map(|j| (full.get(&[4, j]) - last.get(&[0, j])).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-4, "cached vs full logits diverge by {diff}");
    }

    #[test]
    fn decode_step_rejects_encoder() {
        let m = tiny(ArchKind::Encoder, 1);
        let mut state = m.new_decode_state();
        assert_eq!(
            m.decode_step(1, &mut state),
            Err(DecodeError::NotDecoder),
            "encoder models must be rejected with a typed error"
        );
        assert_eq!(state.len(), 0, "state must be unchanged on error");
    }

    #[test]
    fn decode_step_rejects_bad_token_and_overflow() {
        let m = tiny(ArchKind::Decoder, 1);
        let mut state = m.new_decode_state();
        assert_eq!(
            m.decode_step(99, &mut state),
            Err(DecodeError::TokenOutOfRange {
                token: 99,
                vocab: 16
            })
        );
        assert_eq!(state.len(), 0, "state must be unchanged on error");
        // Fill to max_seq (12), then the next step must fail cleanly.
        for i in 0..12 {
            m.decode_step(i % 16, &mut state).unwrap();
        }
        assert_eq!(
            m.decode_step(1, &mut state),
            Err(DecodeError::CacheFull { max_seq: 12 })
        );
        assert_eq!(state.len(), 12, "state must be unchanged on error");
    }

    #[test]
    fn decode_step_many_is_bit_identical_to_sequential() {
        // Three sessions at staggered positions, advanced together: every
        // logits row must equal the row a lone batch-1 session produces.
        let m = tiny(ArchKind::Decoder, 2);
        let prompts: [&[usize]; 3] = [&[3, 1, 4, 1], &[7, 7], &[9, 2, 6, 5, 3]];
        let mut seq_states: Vec<DecodeState> = Vec::new();
        let mut seq_logits: Vec<Tensor> = Vec::new();
        for prompt in prompts {
            let mut st = m.new_decode_state();
            let mut last = Tensor::zeros(&[1, 16]);
            for &t in prompt {
                last = m.decode_step(t, &mut st).unwrap();
            }
            seq_states.push(st);
            seq_logits.push(last);
        }
        // Replay the same prompts through the batched path, joining each
        // session only while it still has prompt tokens left.
        let mut bat_states: Vec<DecodeState> =
            (0..prompts.len()).map(|_| m.new_decode_state()).collect();
        let max_len = prompts.iter().map(|p| p.len()).max().unwrap();
        let mut last_rows: Vec<Vec<f32>> = vec![Vec::new(); prompts.len()];
        for step in 0..max_len {
            let mut tokens = Vec::new();
            let mut idxs = Vec::new();
            for (i, prompt) in prompts.iter().enumerate() {
                if step < prompt.len() {
                    tokens.push(prompt[step]);
                    idxs.push(i);
                }
            }
            let mut refs: Vec<&mut DecodeState> = bat_states
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| step < prompts[*i].len())
                .map(|(_, s)| s)
                .collect();
            let logits = m.decode_step_many(&tokens, &mut refs).unwrap();
            for (row, &i) in idxs.iter().enumerate() {
                last_rows[i] = logits.row(row).to_vec();
            }
        }
        for i in 0..prompts.len() {
            assert_eq!(bat_states[i], seq_states[i], "session {i} state diverged");
            assert_eq!(
                last_rows[i],
                seq_logits[i].row(0).to_vec(),
                "session {i} logits diverged"
            );
        }
    }

    #[test]
    fn visit_linears_exposes_layer_indices() {
        let mut m = tiny(ArchKind::Decoder, 3);
        let slots = m.visit_linears();
        assert_eq!(slots.len(), 3 * 7);
        assert_eq!(slots[0].0, 0);
        assert_eq!(slots[7].0, 1);
        assert_eq!(slots[14].0, 2);
    }

    #[test]
    fn param_count_matches_visit() {
        let mut m = tiny(ArchKind::Encoder, 2);
        let expected = m.param_count();
        let total: usize = m.visit_params().iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, expected);
    }
}
