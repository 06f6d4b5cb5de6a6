//! lm-eval-style evaluation harness.
//!
//! Multiple-choice benchmarks are scored by length-normalized
//! log-likelihood (the lm-evaluation-harness `acc_norm` convention);
//! generation benchmarks by greedy decoding and exact match. Scoring is
//! batched (right-padded within each batch) and parallelized across CPU
//! threads, the stand-in for the paper's throughput-oriented max-batch GPU
//! evaluation. Multiple-choice scoring feeds each distinct input whose
//! logits it reads once, trimmed of the unread last token (`DESIGN.md` §3,
//! "Eval harness").

use crate::sample::{Benchmark, Sample, ScoringMode};
use crate::vocab;
use crate::world::World;
use lrd_nn::act::log_softmax_rows;
use lrd_nn::{ArchKind, TransformerLm};
use std::collections::BTreeMap;

/// An accuracy measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Accuracy {
    /// Correctly answered samples.
    pub correct: usize,
    /// Total samples evaluated.
    pub total: usize,
}

impl Accuracy {
    /// Accuracy in percent (0 for an empty evaluation).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.total as f64
        }
    }

    /// Binomial standard error of the accuracy estimate, in percentage
    /// points (the lm-eval-harness `acc_stderr` convention).
    pub fn stderr(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let p = self.correct as f64 / self.total as f64;
        100.0 * (p * (1.0 - p) / self.total as f64).sqrt()
    }
}

impl std::fmt::Display for Accuracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}% ({}/{})",
            self.percent(),
            self.correct,
            self.total
        )
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Number of samples to draw.
    pub n_samples: usize,
    /// Sampling seed (evaluation sets are deterministic per seed).
    pub seed: u64,
    /// Rows per scoring batch.
    pub batch_size: usize,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            n_samples: 200,
            seed: 17,
            batch_size: 64,
            threads: 0,
        }
    }
}

impl EvalOptions {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            // lrd-lint: allow(determinism, "thread count only partitions independent per-sample scoring; results are order-invariant and pinned by determinism tests")
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
                .min(16)
        }
    }
}

/// One distinct input of multiple-choice scoring, and the
/// `(sample, choice)` pairs whose scores read its logits.
struct McInput {
    tokens: Vec<usize>,
    readers: Vec<(usize, usize)>,
}

/// Evaluates `bench` on `model` and returns the accuracy.
///
/// # Panics
///
/// Panics if a sample exceeds the model's maximum sequence length, or if a
/// multiple-choice benchmark is scored on an encoder.
pub fn evaluate(
    model: &TransformerLm,
    bench: &dyn Benchmark,
    world: &World,
    opts: &EvalOptions,
) -> Accuracy {
    let _score = lrd_trace::span("score", bench.name());
    let samples = bench.samples(world, opts.n_samples, opts.seed);
    let acc = match bench.scoring() {
        ScoringMode::MultipleChoice => evaluate_multiple_choice(model, &samples, opts),
        ScoringMode::ExactMatch => evaluate_exact_match(model, &samples, opts),
        ScoringMode::Cloze => evaluate_cloze(model, bench.name(), &samples, opts),
    };
    lrd_trace::counters::add(lrd_trace::Counter::EvalSamplesScored, acc.total as u64);
    acc
}

/// Cloze scoring for encoder models: one forward pass per batch of
/// equal-length prompts; each sample is answered by the choice token with
/// the highest logit at its masked position.
///
/// A prompt without a [`vocab::MASK`] token cannot be scored; such samples
/// are skipped (with a warning naming the task and the first offending
/// sample index, counted in telemetry) instead of panicking the scoring
/// worker and killing the whole harness.
///
/// # Panics
///
/// Panics if prompts have differing lengths (bidirectional attention would
/// see padding) or a choice is not a single token.
fn evaluate_cloze(
    model: &TransformerLm,
    task: &'static str,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Accuracy {
    if samples.is_empty() {
        return Accuracy::default();
    }
    let seq = samples[0].prompt.len();
    for s in samples {
        assert_eq!(s.prompt.len(), seq, "cloze prompts must share one length");
        assert!(
            s.choices.iter().all(|c| c.len() == 1),
            "cloze choices must be single tokens"
        );
    }
    let per_batch = opts.batch_size.max(1);
    let chunks: Vec<&[Sample]> = samples.chunks(per_batch).collect();
    let correct = std::sync::atomic::AtomicUsize::new(0);
    let skipped = std::sync::atomic::AtomicUsize::new(0);
    let first_skipped = std::sync::atomic::AtomicUsize::new(usize::MAX);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = opts.effective_threads().min(chunks.len());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let ci = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if ci >= chunks.len() {
                    break;
                }
                let chunk = chunks[ci];
                let flat: Vec<usize> = chunk
                    .iter()
                    .flat_map(|s| s.prompt.iter().copied())
                    .collect();
                lrd_trace::counters::add(
                    lrd_trace::Counter::EvalTokensForwarded,
                    flat.len() as u64,
                );
                let logits = model.logits(&flat, chunk.len());
                for (i, s) in chunk.iter().enumerate() {
                    let Some(mask_pos) = s.prompt.iter().position(|&t| t == vocab::MASK) else {
                        skipped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        first_skipped
                            .fetch_min(ci * per_batch + i, std::sync::atomic::Ordering::Relaxed);
                        continue;
                    };
                    let row = logits.row(i * seq + mask_pos);
                    let best = s
                        .choices
                        .iter()
                        .enumerate()
                        .max_by(|a, b| {
                            row[a.1[0]]
                                .partial_cmp(&row[b.1[0]])
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(j, _)| j)
                        .unwrap_or(0);
                    if best == s.answer {
                        correct.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let skipped = skipped.into_inner();
    if skipped > 0 {
        lrd_trace::counters::add(lrd_trace::Counter::EvalClozeMissingMask, skipped as u64);
        lrd_trace::warn(format!(
            "{task}: skipped {skipped} cloze prompt(s) without a MASK token \
             (first at sample index {})",
            first_skipped.into_inner()
        ));
    }
    Accuracy {
        correct: correct.into_inner(),
        total: samples.len() - skipped,
    }
}

/// Multiple-choice scoring: each sample picks the choice with the highest
/// mean continuation log-probability (the first on ties).
///
/// # Panics
///
/// Panics if `model` is not a causal decoder or a prompt is empty.
fn evaluate_multiple_choice(
    model: &TransformerLm,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Accuracy {
    let scores = multiple_choice_scores(model, samples, opts);
    let correct = scores
        .iter()
        .zip(samples)
        .filter(|(choices, s)| {
            let mut best = (f32::NEG_INFINITY, usize::MAX);
            for (ci, &score) in choices.iter().enumerate() {
                if score > best.0 {
                    best = (score, ci);
                }
            }
            best.1 == s.answer
        })
        .count();
    Accuracy {
        correct,
        total: samples.len(),
    }
}

/// The mean continuation log-probability of every `(sample, choice)`,
/// indexed `[sample][choice]`; a zero-length choice scores 0.0.
///
/// Position `p` predicts token `p + 1`, so a choice needs the logits of
/// `prompt ++ choice[..len − 1]` only, at positions
/// `prompt.len() − 1 ..= prompt.len() + len − 2`. Choices whose inputs
/// coincide — every choice of a 1-token benchmark — share one input row
/// set. Under causal attention a row's logits do not depend on what
/// follows it or on the other sequences of its batch (`DESIGN.md` §3,
/// "Eval harness"), so the scores are the bits of feeding each
/// `prompt ++ choice` in full.
fn multiple_choice_scores(
    model: &TransformerLm,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Vec<Vec<f32>> {
    assert!(
        matches!(model.config().kind, ArchKind::Decoder),
        "multiple-choice scoring needs a causal decoder: an encoder's rows \
         see the tokens after them (score encoders with cloze)"
    );
    let inputs = distinct_inputs(samples);
    let chunks: Vec<&[McInput]> = inputs.chunks(opts.batch_size.max(1)).collect();
    let threads = opts.effective_threads().min(chunks.len().max(1));

    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<(usize, usize, f32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= chunks.len() {
                            break;
                        }
                        local.extend(score_inputs(model, samples, chunks[i]));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // lrd-lint: allow(no-panic, "join fails only when a scoring worker panicked; re-raising that panic is the correct propagation")
            .flat_map(|h| h.join().expect("scoring worker panicked"))
            .collect()
    });
    let mut scores: Vec<Vec<f32>> = samples.iter().map(|s| vec![0.0; s.choices.len()]).collect();
    for (si, ci, score) in results {
        scores[si][ci] = score;
    }
    scores
}

/// Every distinct `prompt ++ choice[..len − 1]`, in first-occurrence order,
/// with the choices that read it.
fn distinct_inputs(samples: &[Sample]) -> Vec<McInput> {
    let mut index: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
    let mut inputs: Vec<McInput> = Vec::new();
    for (si, s) in samples.iter().enumerate() {
        assert!(
            !s.prompt.is_empty(),
            "multiple-choice sample {si} has an empty prompt: \
             no position predicts its choices' first token"
        );
        for (ci, c) in s.choices.iter().enumerate() {
            let Some((_, head)) = c.split_last() else {
                continue;
            };
            let i = *index
                .entry([&s.prompt[..], head].concat())
                .or_insert_with_key(|tokens| {
                    inputs.push(McInput {
                        tokens: tokens.clone(),
                        readers: Vec::new(),
                    });
                    inputs.len() - 1
                });
            inputs[i].readers.push((si, ci));
        }
    }
    inputs
}

/// Runs one right-padded batch of inputs through the model and returns
/// `(sample, choice, mean continuation log-probability)` for every choice
/// that reads them.
fn score_inputs(
    model: &TransformerLm,
    samples: &[Sample],
    chunk: &[McInput],
) -> Vec<(usize, usize, f32)> {
    let max_len = chunk.iter().map(|r| r.tokens.len()).max().unwrap_or(0);
    let batch = chunk.len();
    let mut flat = vec![vocab::PAD; batch * max_len];
    for (i, input) in chunk.iter().enumerate() {
        flat[i * max_len..i * max_len + input.tokens.len()].copy_from_slice(&input.tokens);
    }
    lrd_trace::counters::add(lrd_trace::Counter::EvalTokensForwarded, flat.len() as u64);
    let logits = model.logits(&flat, batch);
    let logp = log_softmax_rows(&logits);
    let mut out = Vec::new();
    for (i, input) in chunk.iter().enumerate() {
        for &(si, ci) in &input.readers {
            let first = i * max_len + samples[si].prompt.len() - 1;
            let choice = &samples[si].choices[ci];
            let mut sum = 0.0f32;
            for (j, &t) in choice.iter().enumerate() {
                sum += logp.get(&[first + j, t]);
            }
            out.push((si, ci, sum / choice.len() as f32));
        }
    }
    out
}

fn evaluate_exact_match(model: &TransformerLm, samples: &[Sample], opts: &EvalOptions) -> Accuracy {
    let threads = opts.effective_threads().min(samples.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let correct = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= samples.len() {
                    break;
                }
                let s = &samples[i];
                let generated =
                    model.generate_greedy(&s.prompt, s.reference.len(), Some(vocab::EOS));
                if generated == s.reference {
                    correct.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    Accuracy {
        correct: correct.into_inner(),
        total: samples.len(),
    }
}

/// Evaluates every benchmark in [`crate::tasks::registry`] and returns
/// `(name, accuracy)` pairs in Table 3 order.
pub fn evaluate_all(
    model: &TransformerLm,
    world: &World,
    opts: &EvalOptions,
) -> Vec<(&'static str, Accuracy)> {
    crate::tasks::registry()
        .iter()
        .map(|b| (b.name(), evaluate(model, b.as_ref(), world, opts)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::ArcEasy;
    use lrd_nn::TransformerConfig;
    use lrd_tensor::rng::Rng64;

    fn untrained_model() -> TransformerLm {
        let cfg = TransformerConfig {
            kind: ArchKind::Decoder,
            vocab_size: vocab::VOCAB_SIZE,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            max_seq: 64,
        };
        TransformerLm::new(cfg, &mut Rng64::new(3))
    }

    #[test]
    fn untrained_model_scores_near_chance() {
        let model = untrained_model();
        let world = World::new(1);
        let acc = evaluate(
            &model,
            &ArcEasy,
            &world,
            &EvalOptions {
                n_samples: 120,
                seed: 5,
                batch_size: 32,
                threads: 2,
            },
        );
        assert_eq!(acc.total, 120);
        // 4-way multiple choice: chance = 25%.
        assert!(
            (5.0..50.0).contains(&acc.percent()),
            "untrained accuracy = {acc} (expected near chance)"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let model = untrained_model();
        let world = World::new(1);
        let opts = EvalOptions {
            n_samples: 60,
            seed: 9,
            batch_size: 16,
            threads: 4,
        };
        let a = evaluate(&model, &ArcEasy, &world, &opts);
        let b = evaluate(&model, &ArcEasy, &world, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn batching_does_not_change_results() {
        let model = untrained_model();
        let world = World::new(2);
        let a = evaluate(
            &model,
            &ArcEasy,
            &world,
            &EvalOptions {
                n_samples: 40,
                seed: 3,
                batch_size: 4,
                threads: 1,
            },
        );
        let b = evaluate(
            &model,
            &ArcEasy,
            &world,
            &EvalOptions {
                n_samples: 40,
                seed: 3,
                batch_size: 64,
                threads: 3,
            },
        );
        assert_eq!(a, b, "batch size must not affect scoring");
    }

    #[test]
    fn exact_match_scoring_runs() {
        let model = untrained_model();
        let world = World::new(3);
        let acc = evaluate(
            &model,
            &crate::tasks::Gsm8k,
            &world,
            &EvalOptions {
                n_samples: 10,
                seed: 1,
                batch_size: 8,
                threads: 2,
            },
        );
        assert_eq!(acc.total, 10);
        // Untrained: almost certainly 0–30%.
        assert!(acc.percent() <= 40.0);
    }

    #[test]
    fn cloze_scoring_runs_on_encoder() {
        let cfg = TransformerConfig {
            kind: ArchKind::Encoder,
            vocab_size: vocab::VOCAB_SIZE,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            max_seq: 64,
        };
        let model = TransformerLm::new(cfg, &mut Rng64::new(6));
        let world = World::new(4);
        let opts = EvalOptions {
            n_samples: 60,
            seed: 8,
            batch_size: 16,
            threads: 2,
        };
        let a = evaluate(&model, &crate::tasks::BertCloze, &world, &opts);
        let b = evaluate(&model, &crate::tasks::BertCloze, &world, &opts);
        assert_eq!(a, b, "cloze scoring must be deterministic");
        assert_eq!(a.total, 60);
        assert!(
            (5.0..55.0).contains(&a.percent()),
            "untrained cloze near chance: {a}"
        );
    }

    /// Cloze task that omits the MASK token from every third prompt —
    /// regression input for the skip-instead-of-panic path.
    struct PartialMaskCloze;
    impl Benchmark for PartialMaskCloze {
        fn name(&self) -> &'static str {
            "PartialMaskCloze"
        }
        fn scoring(&self) -> ScoringMode {
            ScoringMode::Cloze
        }
        fn sample(&self, _world: &World, rng: &mut Rng64) -> Sample {
            let has_mask = rng.below(3) != 0;
            let mut prompt = vec![1usize; 8];
            if has_mask {
                prompt[3] = vocab::MASK;
            }
            Sample::multiple_choice(prompt, vec![vec![5], vec![6]], rng.below(2))
        }
    }

    #[test]
    fn cloze_without_mask_skips_instead_of_panicking() {
        let cfg = TransformerConfig {
            kind: ArchKind::Encoder,
            vocab_size: vocab::VOCAB_SIZE,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            max_seq: 64,
        };
        let model = TransformerLm::new(cfg, &mut Rng64::new(6));
        let world = World::new(4);
        let opts = EvalOptions {
            n_samples: 30,
            seed: 11,
            batch_size: 8,
            threads: 2,
        };
        let masked = PartialMaskCloze
            .samples(&world, opts.n_samples, opts.seed)
            .iter()
            .filter(|s| s.prompt.contains(&vocab::MASK))
            .count();
        assert!(
            masked < opts.n_samples,
            "seed must produce MASK-less prompts"
        );
        let skipped_before = lrd_trace::counters::get(lrd_trace::Counter::EvalClozeMissingMask);
        let acc = evaluate(&model, &PartialMaskCloze, &world, &opts);
        assert_eq!(acc.total, masked, "total counts only scoreable samples");
        assert!(acc.correct <= acc.total);
        if lrd_trace::enabled() {
            let skipped_after = lrd_trace::counters::get(lrd_trace::Counter::EvalClozeMissingMask);
            assert!(
                skipped_after - skipped_before >= (opts.n_samples - masked) as u64,
                "skipped prompts must be counted"
            );
        }
    }

    /// The tiny-Llama widths at two layers, dense or with every block
    /// linear replaced by its rank-1 factorization.
    fn tiny_llama_2_layers(rank1: bool) -> TransformerLm {
        let cfg = TransformerConfig {
            n_layers: 2,
            ..TransformerConfig::tiny_llama()
        };
        let mut model = TransformerLm::new(cfg, &mut Rng64::new(11));
        if rank1 {
            for (_, _, slot) in model.visit_linears() {
                let t = lrd_tensor::tucker::tucker2(&slot.effective_weight(), 1).unwrap();
                *slot = lrd_nn::linear::AnyLinear::Factored(
                    lrd_nn::linear::FactoredLinear::from_tucker(t, None),
                );
            }
        }
        model
    }

    // The padded full-row scoring that `multiple_choice_scores` replaced,
    // kept verbatim as its bit oracle: every (sample, choice) is fed in
    // full as `prompt ++ choice`, right-padded to its chunk's longest row.

    /// One scoring row: a full (prompt ++ choice) sequence.
    struct Row {
        sample: usize,
        choice: usize,
        tokens: Vec<usize>,
        prefix_len: usize,
    }

    /// Scores every row of a chunk in one padded batch forward pass; returns
    /// `(sample, choice, mean continuation log-probability)` triples.
    fn score_chunk(model: &TransformerLm, chunk: &[Row]) -> Vec<(usize, usize, f32)> {
        let max_len = chunk.iter().map(|r| r.tokens.len()).max().unwrap_or(0);
        let batch = chunk.len();
        let mut flat = vec![vocab::PAD; batch * max_len];
        for (i, row) in chunk.iter().enumerate() {
            flat[i * max_len..i * max_len + row.tokens.len()].copy_from_slice(&row.tokens);
        }
        let logits = model.logits(&flat, batch);
        let logp = log_softmax_rows(&logits);
        chunk
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut sum = 0.0f32;
                let mut count = 0usize;
                // Position p predicts token p+1; score continuation tokens.
                for p in (row.prefix_len - 1)..(row.tokens.len() - 1) {
                    sum += logp.get(&[i * max_len + p, row.tokens[p + 1]]);
                    count += 1;
                }
                (row.sample, row.choice, sum / count.max(1) as f32)
            })
            .collect()
    }

    /// The old path's scores, indexed `[sample][choice]`, and its accuracy
    /// (flattened rows, chunked by `batch_size`, strict-`>` pick in row
    /// order).
    fn reference(
        model: &TransformerLm,
        samples: &[Sample],
        batch_size: usize,
    ) -> (Vec<Vec<f32>>, Accuracy) {
        let mut rows = Vec::new();
        for (si, s) in samples.iter().enumerate() {
            for (ci, c) in s.choices.iter().enumerate() {
                let mut tokens = s.prompt.clone();
                tokens.extend_from_slice(c);
                rows.push(Row {
                    sample: si,
                    choice: ci,
                    tokens,
                    prefix_len: s.prompt.len(),
                });
            }
        }
        let flat: Vec<(usize, usize, f32)> = rows
            .chunks(batch_size.max(1))
            .flat_map(|chunk| score_chunk(model, chunk))
            .collect();
        let mut best: Vec<(f32, usize)> = vec![(f32::NEG_INFINITY, usize::MAX); samples.len()];
        let mut scores: Vec<Vec<f32>> = samples
            .iter()
            .map(|s| vec![f32::NAN; s.choices.len()])
            .collect();
        for &(si, ci, score) in &flat {
            scores[si][ci] = score;
            if score > best[si].0 {
                best[si] = (score, ci);
            }
        }
        let correct = best
            .iter()
            .zip(samples)
            .filter(|((_, ci), s)| *ci == s.answer)
            .count();
        (
            scores,
            Accuracy {
                correct,
                total: samples.len(),
            },
        )
    }

    fn score_bits(scores: &[Vec<f32>]) -> Vec<Vec<u32>> {
        scores
            .iter()
            .map(|s| s.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Asserts the trimmed, deduplicated path reproduces the oracle's score
    /// bits and accuracy at every batch size and thread count.
    fn assert_matches_reference(model: &TransformerLm, samples: &[Sample], what: &str) {
        for batch_size in [1, 5, 64] {
            let (want, want_acc) = reference(model, samples, batch_size);
            for threads in [1, 3] {
                let opts = EvalOptions {
                    n_samples: samples.len(),
                    seed: 0,
                    batch_size,
                    threads,
                };
                let got = multiple_choice_scores(model, samples, &opts);
                assert_eq!(
                    score_bits(&got),
                    score_bits(&want),
                    "{what}: batch {batch_size}, threads {threads}"
                );
                assert_eq!(
                    evaluate_multiple_choice(model, samples, &opts),
                    want_acc,
                    "{what}: batch {batch_size}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn multiple_choice_scores_match_the_full_row_oracle_bit_for_bit() {
        let world = World::new(7);
        for rank1 in [false, true] {
            let model = tiny_llama_2_layers(rank1);
            for bench in crate::tasks::registry() {
                if bench.scoring() != ScoringMode::MultipleChoice {
                    continue;
                }
                for seed in [0, 1, 2] {
                    let samples = bench.samples(&world, 10, seed);
                    let what = format!("{} seed {seed} rank1 {rank1}", bench.name());
                    assert_matches_reference(&model, &samples, &what);
                }
            }
        }
    }

    #[test]
    fn multiple_choice_edge_cases_match_the_full_row_oracle() {
        let p = |v: &[usize]| v.to_vec();
        let mc = |prompt: Vec<usize>, choices: Vec<Vec<usize>>, answer: usize| Sample {
            prompt,
            choices,
            answer,
            reference: Vec::new(),
        };
        let samples = vec![
            // Duplicate choices within a sample: the first one wins ties.
            mc(
                p(&[10, 11, 12]),
                vec![p(&[20, 21]), p(&[20, 21]), p(&[22])],
                1,
            ),
            // The same prompt as the sample above, other choices.
            mc(p(&[10, 11, 12]), vec![p(&[22]), p(&[23, 24, 25])], 0),
            mc(p(&[10, 11, 12]), vec![p(&[22]), p(&[23, 24, 25])], 1),
            // A zero-length choice scores 0.0 and reads no input.
            mc(p(&[30, 31]), vec![vec![], p(&[32])], 0),
            // Multi-token choices sharing their first token.
            mc(p(&[40]), vec![p(&[41, 42, 43]), p(&[41, 44]), p(&[41])], 2),
            // Choice tokens equal to the padding token.
            mc(
                p(&[50, 51, 52, 53]),
                vec![p(&[vocab::PAD]), p(&[54, vocab::PAD])],
                0,
            ),
            // A one-token prompt.
            mc(p(&[60]), vec![p(&[61]), p(&[62])], 1),
        ];
        for rank1 in [false, true] {
            let model = tiny_llama_2_layers(rank1);
            assert_matches_reference(&model, &samples, &format!("edge cases rank1 {rank1}"));
            let opts = EvalOptions {
                n_samples: samples.len(),
                seed: 0,
                batch_size: 4,
                threads: 1,
            };
            assert_eq!(
                multiple_choice_scores(&model, &samples, &opts)[3][0].to_bits(),
                0.0f32.to_bits()
            );
        }
    }

    #[test]
    fn multiple_choice_feeds_each_distinct_trimmed_input_once() {
        let world = World::new(1);
        let arc = ArcEasy.samples(&world, 16, 4);
        let inputs = distinct_inputs(&arc);
        // 1-token choices: every choice reads its bare prompt, so the
        // inputs are the distinct prompts in first-occurrence order.
        let mut prompts: Vec<&Vec<usize>> = Vec::new();
        for s in &arc {
            if !prompts.contains(&&s.prompt) {
                prompts.push(&s.prompt);
            }
        }
        assert!(prompts.len() < arc.len(), "seed must repeat a prompt");
        assert_eq!(
            inputs.iter().map(|i| &i.tokens).collect::<Vec<_>>(),
            prompts
        );
        let readers: usize = inputs.iter().map(|i| i.readers.len()).sum();
        assert_eq!(readers, arc.iter().map(|s| s.choices.len()).sum::<usize>());
        let hella = crate::tasks::HellaSwag.samples(&world, 16, 4);
        for input in distinct_inputs(&hella) {
            let (si, ci) = input.readers[0];
            let (s, c) = (&hella[si], &hella[si].choices[ci]);
            assert_eq!(input.tokens, [&s.prompt[..], &c[..c.len() - 1]].concat());
        }
    }

    #[test]
    #[should_panic(expected = "multiple-choice scoring needs a causal decoder")]
    fn multiple_choice_on_an_encoder_panics() {
        let cfg = TransformerConfig {
            kind: ArchKind::Encoder,
            vocab_size: vocab::VOCAB_SIZE,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            max_seq: 64,
        };
        let model = TransformerLm::new(cfg, &mut Rng64::new(6));
        let opts = EvalOptions {
            n_samples: 4,
            seed: 1,
            batch_size: 4,
            threads: 1,
        };
        let _ = evaluate(&model, &ArcEasy, &World::new(1), &opts);
    }

    #[test]
    fn accuracy_display() {
        let a = Accuracy {
            correct: 3,
            total: 4,
        };
        assert_eq!(a.to_string(), "75.0% (3/4)");
        assert_eq!(Accuracy::default().percent(), 0.0);
    }

    #[test]
    fn accuracy_stderr() {
        // p = 0.5, n = 100 → stderr = 5 percentage points.
        let a = Accuracy {
            correct: 50,
            total: 100,
        };
        assert!((a.stderr() - 5.0).abs() < 1e-9);
        // Shrinks with sample count.
        let b = Accuracy {
            correct: 200,
            total: 400,
        };
        assert!(b.stderr() < a.stderr());
        assert_eq!(Accuracy::default().stderr(), 0.0);
    }

    #[test]
    fn mmlu_domain_breakdown_runs() {
        let model = untrained_model();
        let world = World::new(5);
        let opts = EvalOptions {
            n_samples: 20,
            seed: 2,
            batch_size: 16,
            threads: 1,
        };
        for d in 0..lrd_core_domains() {
            let bench = crate::tasks::MmluDomain(d);
            let acc = evaluate(&model, &bench, &world, &opts);
            assert_eq!(acc.total, 20);
        }
    }

    fn lrd_core_domains() -> usize {
        crate::vocab::N_DOMAINS
    }
}
