//! Tiny runnable model variants used for the accuracy studies.
//!
//! These keep the *structure* that matters to the paper's characterization —
//! Llama's 32 decoder layers with 7 decomposable tensors each, BERT's 12
//! encoder layers with 6 — while shrinking widths so the models train and
//! evaluate on a CPU in seconds-to-minutes.

use lrd_nn::{TransformerConfig, TransformerLm};
use lrd_tensor::rng::Rng64;

use crate::descriptor::{TransformerDescriptor, TransformerFamily};

/// Configuration of the tiny Llama-2-style model (32 layers).
pub fn tiny_llama_config() -> TransformerConfig {
    TransformerConfig::tiny_llama()
}

/// Configuration of the tiny BERT-style model (12 layers).
pub fn tiny_bert_config() -> TransformerConfig {
    TransformerConfig::tiny_bert()
}

/// Builds an untrained tiny Llama model with a deterministic seed.
pub fn build_tiny_llama(seed: u64) -> TransformerLm {
    TransformerLm::new(tiny_llama_config(), &mut Rng64::new(seed))
}

/// Builds an untrained tiny BERT model with a deterministic seed.
pub fn build_tiny_bert(seed: u64) -> TransformerLm {
    TransformerLm::new(tiny_bert_config(), &mut Rng64::new(seed))
}

/// Analytic descriptor matching [`tiny_llama_config`] (used when the same
/// code paths need descriptor-level math for the tiny model).
pub fn tiny_llama_descriptor() -> TransformerDescriptor {
    let c = tiny_llama_config();
    TransformerDescriptor {
        name: "TinyLlama-32L",
        family: TransformerFamily::Llama,
        vocab_size: c.vocab_size,
        d_model: c.d_model,
        n_layers: c.n_layers,
        n_heads: c.n_heads,
        n_kv_heads: c.n_kv_heads,
        d_ff: c.d_ff,
        max_seq: c.max_seq,
        table2_tensor_count: 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_llama_mirrors_llama_structure() {
        let mut m = build_tiny_llama(1);
        assert_eq!(m.config().n_layers, 32);
        let slots = m.visit_linears();
        assert_eq!(
            slots.len(),
            32 * 7,
            "7 decomposable tensors per decoder layer"
        );
    }

    #[test]
    fn tiny_bert_mirrors_bert_structure() {
        let mut m = build_tiny_bert(1);
        assert_eq!(m.config().n_layers, 12);
        let slots = m.visit_linears();
        assert_eq!(
            slots.len(),
            12 * 6,
            "6 decomposable tensors per encoder layer"
        );
    }

    #[test]
    fn deterministic_construction() {
        let a = build_tiny_llama(3);
        let b = build_tiny_llama(3);
        assert_eq!(a, b);
    }

    #[test]
    fn descriptor_matches_model_layer_share() {
        // The descriptor's layer-parameter math should match the live model.
        let desc = tiny_llama_descriptor();
        let model = build_tiny_llama(2);
        let desc_total = desc.total_params();
        let model_total = model.param_count() as u64;
        // Norm counting differs slightly; require < 1% discrepancy.
        let rel = (desc_total as f64 - model_total as f64).abs() / model_total as f64;
        assert!(rel < 0.01, "descriptor {desc_total} vs model {model_total}");
    }
}
