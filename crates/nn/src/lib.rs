//! # lrd-nn
//!
//! A from-scratch transformer stack — layers, manual backpropagation,
//! optimizers, and a trainer — built on [`lrd_tensor`].
//!
//! The paper applies Tucker decomposition to the weight matrices of BERT and
//! Llama 2 and measures the accuracy impact *without retraining* (and, in its
//! future-work section, *with* recovery fine-tuning). To reproduce that
//! end-to-end we need models whose weights were genuinely learned, so this
//! crate implements:
//!
//! * [`linear`] — dense [`linear::Linear`] and the paper's deployed factored
//!   form [`linear::FactoredLinear`] (`y = ((x·U1)·Γ)·U2`), interchangeable
//!   behind [`linear::AnyLinear`].
//! * [`attention`] — multi-head self-attention (causal and bidirectional,
//!   grouped-query capable) with rotary or learned positions.
//! * [`norm`], [`act`], [`mlp`] — LayerNorm/RMSNorm, GELU/SiLU/softmax,
//!   BERT-style and Llama-style (SwiGLU) feed-forward blocks.
//! * [`block`], [`model`] — encoder/decoder blocks and a full
//!   [`model::TransformerLm`] with log-likelihood scoring and greedy
//!   generation (the operations the benchmark harness needs).
//! * [`optim`], [`train`] — AdamW/SGD and a mini-batch trainer.
//! * [`checkpoint`] — deterministic binary save/load of model weights.
//!
//! A linear layer has one forward pass, `infer(&self, x)`, and its
//! `backward(&mut self, x, grad) -> input_grad` takes the same input again.
//! Composite layers expose `forward(&self, …) -> (output, cache)`, whose
//! cache holds each linear input once, a cache-free `infer`, and
//! `backward(&mut self, cache, grad) -> input_grad`. Gradients are verified
//! against finite differences in the test suite.

pub mod act;
pub mod attention;
pub mod block;
pub mod checkpoint;
pub mod config;
pub mod decode;
pub mod linear;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod optim;
pub mod param;
pub mod rope;
pub mod train;

pub use config::{ArchKind, TransformerConfig};
pub use decode::DecodeError;
pub use model::{DecodeState, TransformerLm};
pub use param::Param;
