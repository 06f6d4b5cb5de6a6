//! lm-eval-style evaluation harness.
//!
//! Multiple-choice benchmarks are scored by length-normalized
//! log-likelihood (the lm-evaluation-harness `acc_norm` convention);
//! generation benchmarks by greedy decoding and exact match; encoder
//! benchmarks by cloze. All three run through one loop: every sample reads
//! logits rows of a distinct input, and the inputs are fed once each, in
//! right-padded batches parallelized across CPU threads (the stand-in for
//! the paper's throughput-oriented max-batch GPU evaluation). Each mode
//! then reduces the rows it read. Exact match reads the argmax of each
//! reference position under teacher forcing, which gives the answer greedy
//! decoding gives (`DESIGN.md` §3, "Eval harness").

use crate::sample::{Benchmark, Sample, ScoringMode};
use crate::vocab;
use crate::world::World;
use lrd_nn::act::log_softmax_rows;
use lrd_nn::{ArchKind, TransformerLm};
use lrd_tensor::Tensor;
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
    /// Most distinct input sequences per `logits` call (fewer when the
    /// inputs would not otherwise give every worker thread a call).
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

/// One distinct model input, and the `(sample, slot)` pairs that read its
/// logits rows. The slot is the choice index for multiple choice, 0 for
/// exact match, and the `MASK` position for cloze.
struct Input {
    tokens: Vec<usize>,
    readers: Vec<(usize, usize)>,
}

/// Evaluates `bench` on `model` and returns the accuracy.
///
/// # Panics
///
/// Panics if a multiple-choice sample exceeds the model's maximum sequence
/// length, or if a multiple-choice or exact-match benchmark is scored on an
/// encoder.
pub fn evaluate(
    model: &TransformerLm,
    bench: &dyn Benchmark,
    world: &World,
    opts: &EvalOptions,
) -> Accuracy {
    let _score = lrd_trace::span("score", bench.name());
    let samples = bench.samples(world, opts.n_samples, opts.seed);
    let hits = match bench.scoring() {
        ScoringMode::MultipleChoice => multiple_choice_hits(model, &samples, opts),
        ScoringMode::ExactMatch => exact_match_hits(model, &samples, opts),
        ScoringMode::Cloze => cloze_hits(model, bench.name(), &samples, opts),
    };
    let acc = accuracy(&hits);
    lrd_trace::counters::add(lrd_trace::Counter::EvalSamplesScored, acc.total as u64);
    acc
}

/// Per-sample outcomes as an accuracy; `None` (an unscorable sample) counts
/// in neither field.
fn accuracy(hits: &[Option<bool>]) -> Accuracy {
    Accuracy {
        correct: hits.iter().filter(|&&h| h == Some(true)).count(),
        total: hits.iter().flatten().count(),
    }
}

/// The one scoring loop: feeds `inputs` through `model` in right-padded
/// `logits` calls of up to `batch_size` inputs on the worker threads, and
/// returns, in input order, what `read` makes of each call's logits and
/// its `(first row of the input, sample, slot)` reads.
fn forward_inputs<T: Send>(
    model: &TransformerLm,
    inputs: &[Input],
    opts: &EvalOptions,
    read: impl Fn(&Tensor, &[(usize, usize, usize)]) -> Vec<T> + Sync,
) -> Vec<T> {
    // Fewer inputs than `threads × batch_size` are split evenly over the
    // threads rather than left to one: batching never changes a read row.
    let threads = opts.effective_threads();
    let size = opts.batch_size.min(inputs.len().div_ceil(threads)).max(1);
    let chunks: Vec<&[Input]> = inputs.chunks(size).collect();
    let threads = threads.min(chunks.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut done: Vec<(usize, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else {
                            break;
                        };
                        let width = chunk.iter().map(|r| r.tokens.len()).max().unwrap_or(0);
                        let mut flat = vec![vocab::PAD; chunk.len() * width];
                        let mut reads = Vec::new();
                        for (b, input) in chunk.iter().enumerate() {
                            let at = b * width;
                            flat[at..at + input.tokens.len()].copy_from_slice(&input.tokens);
                            reads.extend(input.readers.iter().map(|&(si, slot)| (at, si, slot)));
                        }
                        lrd_trace::counters::add(
                            lrd_trace::Counter::EvalTokensForwarded,
                            flat.len() as u64,
                        );
                        local.push((i, read(&model.logits(&flat, chunk.len()), &reads)));
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
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().flat_map(|(_, r)| r).collect()
}

/// Every distinct input in first-occurrence order, with the reads of it;
/// `reads_of(si, s)` yields sample `si`'s reads as `(slot, input)`.
fn distinct_inputs<R: IntoIterator<Item = (usize, Vec<usize>)>>(
    samples: &[Sample],
    reads_of: impl Fn(usize, &Sample) -> R,
) -> Vec<Input> {
    let mut index: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
    let mut inputs: Vec<Input> = Vec::new();
    for (si, s) in samples.iter().enumerate() {
        for (slot, tokens) in reads_of(si, s) {
            let i = *index.entry(tokens).or_insert_with_key(|tokens| {
                inputs.push(Input {
                    tokens: tokens.clone(),
                    readers: Vec::new(),
                });
                inputs.len() - 1
            });
            inputs[i].readers.push((si, slot));
        }
    }
    inputs
}

/// `prompt ++ head`, the input whose rows `prompt.len() − 1 ..` predict a
/// continuation `head ++ [last]` token by token (teacher forcing).
fn teacher_forced(si: usize, s: &Sample, head: &[usize]) -> Vec<usize> {
    assert!(
        !s.prompt.is_empty(),
        "sample {si} has an empty prompt: no position predicts its continuation's first token"
    );
    [&s.prompt[..], head].concat()
}

/// Teacher forcing reads a row as the logits of the tokens up to it, which
/// only causal attention gives.
fn assert_causal(model: &TransformerLm) {
    assert!(
        matches!(model.config().kind, ArchKind::Decoder),
        "multiple-choice scoring needs a causal decoder: an encoder's rows \
         see the tokens after them (score encoders with cloze)"
    );
}

/// The index of the largest value, the last one on ties, as greedy
/// decoding picks its next token.
fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Multiple-choice scoring: each sample picks the choice with the highest
/// mean continuation log-probability (the first on ties).
fn multiple_choice_hits(
    model: &TransformerLm,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Vec<Option<bool>> {
    let scores = multiple_choice_scores(model, samples, opts);
    let hits = scores.iter().zip(samples).map(|(choices, s)| {
        let mut best = (f32::NEG_INFINITY, usize::MAX);
        for (ci, &score) in choices.iter().enumerate() {
            if score > best.0 {
                best = (score, ci);
            }
        }
        Some(best.1 == s.answer)
    });
    hits.collect()
}

/// Every `prompt ++ choice[..len − 1]`, once; a zero-length choice reads
/// nothing.
fn multiple_choice_inputs(samples: &[Sample]) -> Vec<Input> {
    distinct_inputs(samples, |si, s| {
        s.choices
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| Some((ci, teacher_forced(si, s, c.split_last()?.1))))
            .collect::<Vec<_>>()
    })
}

/// The mean continuation log-probability of every `(sample, choice)`,
/// indexed `[sample][choice]`; a zero-length choice scores 0.0.
///
/// Position `p` predicts token `p + 1`, so a choice needs the logits of
/// `prompt ++ choice[..len − 1]` only, at positions
/// `prompt.len() − 1 ..= prompt.len() + len − 2`. Choices whose inputs
/// coincide — every choice of a 1-token benchmark — share one input. Under
/// causal attention a row's logits do not depend on what follows it or on
/// the other sequences of its batch (`DESIGN.md` §3, "Eval harness"), so
/// the scores are the bits of feeding each `prompt ++ choice` in full.
///
/// # Panics
///
/// Panics if `model` is not a causal decoder or a prompt is empty.
fn multiple_choice_scores(
    model: &TransformerLm,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Vec<Vec<f32>> {
    assert_causal(model);
    let inputs = multiple_choice_inputs(samples);
    let read = forward_inputs(model, &inputs, opts, |logits, reads| {
        let logp = log_softmax_rows(logits);
        reads
            .iter()
            .map(|&(at, si, ci)| {
                let first = at + samples[si].prompt.len() - 1;
                let choice = &samples[si].choices[ci];
                let mut sum = 0.0f32;
                for (j, &t) in choice.iter().enumerate() {
                    sum += logp.get(&[first + j, t]);
                }
                (si, ci, sum / choice.len() as f32)
            })
            .collect()
    });
    let mut scores: Vec<Vec<f32>> = samples.iter().map(|s| vec![0.0; s.choices.len()]).collect();
    for (si, ci, score) in read {
        scores[si][ci] = score;
    }
    scores
}

/// Greedy exact match by teacher forcing: a sample is right when, on the
/// input `prompt ++ reference[..len − 1]`, the argmax of row
/// `prompt.len() − 1 + j` is `reference[j]` for every `j`. While every
/// earlier argmax matched, greedy decoding fed that row's prefix, whose
/// last row has the same bits (`DESIGN.md` §3, "Eval harness"). Greedy
/// decoding stops at `EOS` and at `max_seq`, so a reference with an `EOS`
/// before its end, or longer than the room its prompt leaves, is wrong
/// unread; an empty reference is right unread.
///
/// # Panics
///
/// Panics if `model` is not a causal decoder or a prompt is empty.
fn exact_match_hits(
    model: &TransformerLm,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Vec<Option<bool>> {
    assert_causal(model);
    let max_seq = model.config().max_seq;
    let inputs = distinct_inputs(samples, |si, s| {
        let (_, head) = s.reference.split_last()?;
        let producible =
            s.prompt.len() + s.reference.len() <= max_seq && !head.contains(&vocab::EOS);
        producible.then(|| (0, teacher_forced(si, s, head)))
    });
    let read = forward_inputs(model, &inputs, opts, |logits, reads| {
        reads
            .iter()
            .map(|&(at, si, _)| {
                let first = at + samples[si].prompt.len() - 1;
                let mut rows = samples[si].reference.iter().enumerate();
                (si, rows.all(|(j, &t)| argmax(logits.row(first + j)) == t))
            })
            .collect()
    });
    let mut hits: Vec<Option<bool>> = samples
        .iter()
        .map(|s| Some(s.reference.is_empty()))
        .collect();
    for (si, hit) in read {
        hits[si] = Some(hit);
    }
    hits
}

/// Cloze scoring for encoder models: each sample reads its prompt's row at
/// the [`vocab::MASK`] position and picks the choice token with the
/// highest logit there (the last on ties). The prompts share one length,
/// so no batch is padded, and an encoder row does not depend on the other
/// sequences of its batch.
///
/// A prompt without a `MASK` token cannot be scored; such samples are
/// skipped (`None`, with a warning naming the task and the first offending
/// sample index, counted in telemetry) instead of panicking the harness.
///
/// # Panics
///
/// Panics if prompts have differing lengths (bidirectional attention would
/// see padding) or a choice is not a single token.
fn cloze_hits(
    model: &TransformerLm,
    task: &'static str,
    samples: &[Sample],
    opts: &EvalOptions,
) -> Vec<Option<bool>> {
    let seq = samples.first().map_or(0, |s| s.prompt.len());
    for s in samples {
        assert_eq!(s.prompt.len(), seq, "cloze prompts must share one length");
        assert!(
            s.choices.iter().all(|c| c.len() == 1),
            "cloze choices must be single tokens"
        );
    }
    let mask_at = |s: &Sample| s.prompt.iter().position(|&t| t == vocab::MASK);
    let unmasked: Vec<usize> = (0..samples.len())
        .filter(|&si| mask_at(&samples[si]).is_none())
        .collect();
    if let Some(first) = unmasked.first() {
        let skipped = unmasked.len();
        lrd_trace::counters::add(lrd_trace::Counter::EvalClozeMissingMask, skipped as u64);
        lrd_trace::warn(format!(
            "{task}: skipped {skipped} cloze prompt(s) without a MASK token \
             (first at sample index {first})"
        ));
    }
    let inputs = distinct_inputs(samples, |_, s| mask_at(s).map(|m| (m, s.prompt.clone())));
    let read = forward_inputs(model, &inputs, opts, |logits, reads| {
        reads
            .iter()
            .map(|&(at, si, mask)| {
                let row = logits.row(at + mask);
                let s = &samples[si];
                let logit: Vec<f32> = s.choices.iter().map(|c| row[c[0]]).collect();
                (si, argmax(&logit) == s.answer)
            })
            .collect()
    });
    let mut hits: Vec<Option<bool>> = vec![None; samples.len()];
    for (si, hit) in read {
        hits[si] = Some(hit);
    }
    hits
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
        two_layers(TransformerConfig::tiny_llama(), 11, rank1)
    }

    /// `widths` at two layers, dense or rank-1 factored.
    fn two_layers(widths: TransformerConfig, seed: u64, rank1: bool) -> TransformerLm {
        let cfg = TransformerConfig {
            n_layers: 2,
            ..widths
        };
        let mut model = TransformerLm::new(cfg, &mut Rng64::new(seed));
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
                    accuracy(&multiple_choice_hits(model, samples, &opts)),
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
        let inputs = multiple_choice_inputs(&arc);
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
        for input in multiple_choice_inputs(&hella) {
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

    // The batch-1 greedy decoding that exact match replaced
    // (`TransformerLm::generate_greedy`, one `logits` call per token), kept
    // verbatim as its bit oracle.
    fn generate_greedy(
        model: &TransformerLm,
        prompt: &[usize],
        max_new: usize,
        stop_token: Option<usize>,
    ) -> Vec<usize> {
        let mut tokens = prompt.to_vec();
        for _ in 0..max_new {
            if tokens.len() >= model.config().max_seq {
                break;
            }
            let logits = model.logits(&tokens, 1);
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

    /// The first `n` argmax tokens after `prompt`, with neither of greedy
    /// decoding's stops: the reference whose every teacher-forced row
    /// matches.
    fn unstopped_greedy(model: &TransformerLm, prompt: &[usize], n: usize) -> Vec<usize> {
        let mut tokens = prompt.to_vec();
        for _ in 0..n {
            let logits = model.logits(&tokens, 1);
            tokens.push(argmax(logits.row(tokens.len() - 1)));
        }
        tokens.split_off(prompt.len())
    }

    /// Exact-match samples on `model` (`max_seq` 64): prompts of 1 to 66
    /// tokens, each with its own unstopped greedy continuation's prefixes
    /// of 1 to 5 tokens (so `prompt.len() + len` reaches 64 and 65), those
    /// prefixes with the last or the first token changed, and repeats.
    fn exact_match_cases(model: &TransformerLm) -> Vec<Sample> {
        let em = |prompt: &[usize], reference: &[usize]| {
            Sample::exact_match(prompt.to_vec(), reference.to_vec())
        };
        let mut rng = Rng64::new(21);
        let mut samples = Vec::new();
        for len in [1, 5, 53, 60, 63, 64, 66] {
            let prompt: Vec<usize> = (0..len).map(|_| 10 + rng.below(200)).collect();
            let stream = unstopped_greedy(model, &prompt, 65usize.saturating_sub(len).min(5));
            if stream.is_empty() {
                samples.push(em(&prompt, &[11]));
            }
            for k in 1..=stream.len() {
                let mut reference = stream[..k].to_vec();
                samples.push(em(&prompt, &reference));
                reference[k - 1] = (reference[k - 1] + 1) % vocab::VOCAB_SIZE;
                samples.push(em(&prompt, &reference));
                if k > 1 {
                    let mut reference = stream[..k].to_vec();
                    reference[0] = (reference[0] + 1) % vocab::VOCAB_SIZE;
                    samples.push(em(&prompt, &reference));
                }
            }
        }
        let repeats = [samples[0].clone(), samples[4].clone(), samples[9].clone()];
        samples.extend(repeats);
        samples
    }

    /// `model` with `edit` applied to every row of its `lm_head` weight,
    /// whose columns are the tokens.
    fn with_head_columns(model: &TransformerLm, edit: impl FnMut(&mut [f32])) -> TransformerLm {
        let mut edited = model.clone();
        let lrd_nn::linear::AnyLinear::Dense(head) = &mut edited.lm_head else {
            panic!("the lm_head is dense");
        };
        let w = head.w.value.data_mut();
        w.chunks_mut(vocab::VOCAB_SIZE).for_each(edit);
        edited
    }

    /// `model` with its `lm_head` columns for `EOS` and for the second
    /// greedy token after some prompt swapped, and that prompt: its
    /// unstopped greedy continuation is then `[g, EOS, ..]`.
    fn eos_model(model: &TransformerLm) -> (TransformerLm, Vec<usize>) {
        let mut rng = Rng64::new(5);
        loop {
            let prompt: Vec<usize> = (0..6).map(|_| 10 + rng.below(200)).collect();
            let stream = unstopped_greedy(model, &prompt, 2);
            if stream[0] == vocab::EOS || stream[0] == stream[1] {
                continue;
            }
            let swapped = with_head_columns(model, |row| row.swap(stream[1], vocab::EOS));
            return (swapped, prompt);
        }
    }

    fn greedy_hits(model: &TransformerLm, samples: &[Sample]) -> Vec<Option<bool>> {
        samples
            .iter()
            .map(|s| {
                let generated =
                    generate_greedy(model, &s.prompt, s.reference.len(), Some(vocab::EOS));
                Some(generated == s.reference)
            })
            .collect()
    }

    /// Asserts teacher-forced exact match gives greedy decoding's outcome
    /// for every sample, at every batch size and thread count.
    fn assert_exact_match_is_greedy(model: &TransformerLm, samples: &[Sample], what: &str) {
        let want = greedy_hits(model, samples);
        for batch_size in [1, 5, 64] {
            for threads in [1, 3] {
                let opts = EvalOptions {
                    n_samples: samples.len(),
                    seed: 0,
                    batch_size,
                    threads,
                };
                assert_eq!(
                    exact_match_hits(model, samples, &opts),
                    want,
                    "{what}: batch {batch_size}, threads {threads}"
                );
            }
        }
    }

    /// How many samples greedy decoding gets right with a reference of 2+
    /// tokens, and how many it gets wrong although every teacher-forced row
    /// matches (a stop rule decides them).
    fn right_long_and_stopped(model: &TransformerLm, samples: &[Sample]) -> (usize, usize) {
        let hits = greedy_hits(model, samples);
        let max_seq = model.config().max_seq;
        let mut counts = (0, 0);
        for (s, hit) in samples.iter().zip(hits) {
            let len = s.reference.len();
            if hit == Some(true) && len > 1 {
                counts.0 += 1;
            }
            let fits = s.prompt.len() + len - 1 <= max_seq;
            if hit == Some(false) && fits && unstopped_greedy(model, &s.prompt, len) == s.reference
            {
                counts.1 += 1;
            }
        }
        counts
    }

    #[test]
    fn exact_match_matches_the_greedy_oracle() {
        for rank1 in [false, true] {
            let model = tiny_llama_2_layers(rank1);
            let samples = exact_match_cases(&model);
            let (right_long, stopped) = right_long_and_stopped(&model, &samples);
            assert!(
                right_long > 0 && stopped > 0,
                "rank1 {rank1}: {right_long} {stopped}"
            );
            assert_exact_match_is_greedy(&model, &samples, &format!("rank1 {rank1}"));
        }
        let world = World::new(3);
        let model = tiny_llama_2_layers(false);
        for seed in [0, 1] {
            let samples = crate::tasks::Gsm8k.samples(&world, 12, seed);
            assert_exact_match_is_greedy(&model, &samples, &format!("GSM8K seed {seed}"));
        }
    }

    #[test]
    fn exact_match_stops_at_eos_as_greedy_decoding_does() {
        let (model, prompt) = eos_model(&tiny_llama_2_layers(false));
        let stream = unstopped_greedy(&model, &prompt, 3);
        assert_eq!(stream[1], vocab::EOS, "the swap puts EOS second");
        let em = |reference: &[usize]| Sample::exact_match(prompt.clone(), reference.to_vec());
        let mut samples = vec![
            em(&stream[..1]),
            // EOS at the end of the reference: right.
            em(&stream[..2]),
            // EOS inside: greedy decoding stops there, though every
            // teacher-forced row matches.
            em(&stream[..3]),
            em(&[vocab::EOS]),
            // Generating no token matches an empty reference (which
            // `Sample::exact_match` refuses to build).
            Sample {
                reference: Vec::new(),
                ..em(&[11])
            },
        ];
        assert_eq!(
            greedy_hits(&model, &samples),
            [Some(true), Some(true), Some(false), Some(false), Some(true)]
        );
        samples.extend(exact_match_cases(&model));
        assert_exact_match_is_greedy(&model, &samples, "EOS model");
    }

    #[test]
    fn exact_match_breaks_ties_as_greedy_decoding_does() {
        // A copy of the first greedy token's `lm_head` column ties a
        // neighbour's logit with it on every row; greedy decoding picks
        // the later token of the two.
        let model = tiny_llama_2_layers(false);
        let prompt: Vec<usize> = (20..26).collect();
        let g = unstopped_greedy(&model, &prompt, 1)[0];
        let t = if g + 1 < vocab::VOCAB_SIZE && g + 1 != vocab::EOS {
            g + 1
        } else {
            g - 1
        };
        let tied = with_head_columns(&model, |row| row[t] = row[g]);
        let em = |reference: &[usize]| Sample::exact_match(prompt.clone(), reference.to_vec());
        let mut samples = vec![em(&[g.min(t)]), em(&[g.max(t)])];
        assert_eq!(
            greedy_hits(&tied, &samples),
            [Some(false), Some(true)],
            "the logits of {g} and {t} tie"
        );
        samples.extend(exact_match_cases(&tied));
        assert_exact_match_is_greedy(&tied, &samples, "tied model");
    }

    #[test]
    #[should_panic(expected = "multiple-choice scoring needs a causal decoder")]
    fn exact_match_on_an_encoder_panics() {
        let cfg = TransformerConfig {
            n_layers: 1,
            ..TransformerConfig::tiny_bert()
        };
        let model = TransformerLm::new(cfg, &mut Rng64::new(6));
        let opts = EvalOptions {
            n_samples: 4,
            seed: 1,
            batch_size: 4,
            threads: 1,
        };
        let _ = evaluate(&model, &crate::tasks::Gsm8k, &World::new(1), &opts);
    }

    // The per-chunk cloze loop that the one scoring loop replaced, kept as
    // its bit oracle on one thread: the samples are chunked by
    // `batch_size`, and every prompt is fed, `MASK`-less ones included.
    fn cloze_oracle(
        model: &TransformerLm,
        samples: &[Sample],
        batch_size: usize,
    ) -> Vec<Option<bool>> {
        let seq = samples.first().map_or(0, |s| s.prompt.len());
        let mut hits = Vec::new();
        for chunk in samples.chunks(batch_size.max(1)) {
            let flat: Vec<usize> = chunk
                .iter()
                .flat_map(|s| s.prompt.iter().copied())
                .collect();
            let logits = model.logits(&flat, chunk.len());
            for (i, s) in chunk.iter().enumerate() {
                let Some(mask_pos) = s.prompt.iter().position(|&t| t == vocab::MASK) else {
                    hits.push(None);
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
                hits.push(Some(best == s.answer));
            }
        }
        hits
    }

    #[test]
    fn cloze_matches_the_per_chunk_oracle() {
        let world = World::new(4);
        for rank1 in [false, true] {
            let model = two_layers(TransformerConfig::tiny_bert(), 12, rank1);
            let benches: [&dyn Benchmark; 2] = [&crate::tasks::BertCloze, &PartialMaskCloze];
            for bench in benches {
                // Every sample, and a twin whose two choices tie (the last
                // wins), once per answer index, so the outcomes pin each
                // pick; the repeated prompts share one input.
                let samples: Vec<Sample> = bench
                    .samples(&world, 24, 3)
                    .into_iter()
                    .flat_map(|s| {
                        let twin = Sample {
                            choices: vec![s.choices[0].clone(); 2],
                            ..s.clone()
                        };
                        [s, twin]
                    })
                    .flat_map(|s| {
                        (0..s.choices.len()).map(move |answer| Sample {
                            answer,
                            ..s.clone()
                        })
                    })
                    .collect();
                for batch_size in [1, 5, 64] {
                    let want = cloze_oracle(&model, &samples, batch_size);
                    for threads in [1, 3] {
                        let opts = EvalOptions {
                            n_samples: samples.len(),
                            seed: 0,
                            batch_size,
                            threads,
                        };
                        assert_eq!(
                            cloze_hits(&model, bench.name(), &samples, &opts),
                            want,
                            "{} rank1 {rank1}: batch {batch_size}, threads {threads}",
                            bench.name()
                        );
                    }
                }
            }
        }
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
