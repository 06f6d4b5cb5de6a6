//! # lrd-eval
//!
//! A synthetic benchmark suite and evaluation harness standing in for
//! EleutherAI's lm-evaluation-harness and the HuggingFace Open LLM
//! Leaderboard benchmarks used by the paper (Table 3).
//!
//! The real benchmarks (ARC, HellaSwag, MMLU, TruthfulQA, WinoGrande,
//! GSM8K) are natural-language datasets we cannot ship or evaluate against
//! offline. What the paper *uses* them for, however, is a set of accuracy
//! probes of graded difficulty over a model whose weights are perturbed by
//! low-rank decomposition. This crate reproduces that instrument:
//!
//! * [`world`] — a seeded synthetic knowledge world (entities, relations,
//!   facts, 2-hop compositions, properties, popular misconceptions, modular
//!   arithmetic).
//! * [`tasks`] — seven generators that mirror each benchmark's *format and
//!   difficulty profile*: single-hop facts (ARC-Easy), 2-hop composition
//!   (ARC-Challenge), multi-token continuation (HellaSwag), many domains
//!   with skewed training exposure (MMLU), truth-vs-frequency conflict
//!   (TruthfulQA), context-dependent binary choice (WinoGrande), and
//!   8-shot exact-match arithmetic (GSM8K).
//! * [`harness`] — lm-eval-style evaluation: length-normalized
//!   log-likelihood for multiple choice, teacher-forced greedy exact match
//!   for generation and cloze for encoders, all read from logits rows that
//!   one batched loop feeds, parallelized across CPU threads.
//! * [`corpus`] — the training-corpus builder whose mixing weights give the
//!   trained model its benchmark-dependent accuracy margins.

pub mod corpus;
pub mod harness;
pub mod sample;
pub mod tasks;
pub mod vocab;
pub mod world;

pub use harness::{evaluate, Accuracy};
pub use sample::{Benchmark, Sample};
pub use world::World;
