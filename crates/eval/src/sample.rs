//! Benchmark sample types and the `Benchmark` trait.

use crate::world::World;
use lrd_tensor::rng::Rng64;

/// How a benchmark is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoringMode {
    /// Length-normalized log-likelihood over answer choices (ARC,
    /// HellaSwag, MMLU, TruthfulQA, WinoGrande).
    MultipleChoice,
    /// Greedy generation compared by exact match (GSM8K), scored by
    /// teacher forcing: every reference token must be the argmax of the
    /// row that predicts it, and greedy decoding's `EOS` and `max_seq`
    /// stops must not cut the reference short.
    ExactMatch,
    /// Encoder cloze scoring: the prompt contains one
    /// [`crate::vocab::MASK`] token; single-token choices are compared by
    /// their logit at the masked position (the BERT/SQuAD-style probe).
    Cloze,
}

/// One evaluation sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Prompt token ids (includes any few-shot examples).
    pub prompt: Vec<usize>,
    /// Candidate continuations (multiple-choice mode).
    pub choices: Vec<Vec<usize>>,
    /// Index of the correct choice (multiple-choice mode).
    pub answer: usize,
    /// Reference continuation for exact-match mode.
    pub reference: Vec<usize>,
}

impl Sample {
    /// Builds a multiple-choice sample.
    ///
    /// # Panics
    ///
    /// Panics if `answer` is out of range or any choice is empty.
    pub fn multiple_choice(prompt: Vec<usize>, choices: Vec<Vec<usize>>, answer: usize) -> Self {
        assert!(answer < choices.len(), "answer index out of range");
        assert!(choices.iter().all(|c| !c.is_empty()), "empty choice");
        Sample {
            prompt,
            choices,
            answer,
            reference: Vec::new(),
        }
    }

    /// Builds an exact-match generation sample.
    ///
    /// # Panics
    ///
    /// Panics if the reference is empty.
    pub fn exact_match(prompt: Vec<usize>, reference: Vec<usize>) -> Self {
        assert!(!reference.is_empty(), "empty reference");
        Sample {
            prompt,
            choices: Vec::new(),
            answer: 0,
            reference,
        }
    }
}

/// A benchmark: a named, seeded generator of evaluation samples.
///
/// Implementations live in [`crate::tasks`]; the trait is object-safe so
/// the harness can iterate a heterogeneous registry (Table 3).
pub trait Benchmark {
    /// Benchmark name as used in the paper's tables/figures.
    fn name(&self) -> &'static str;

    /// How this benchmark is scored.
    fn scoring(&self) -> ScoringMode {
        ScoringMode::MultipleChoice
    }

    /// Generates the next evaluation sample.
    fn sample(&self, world: &World, rng: &mut Rng64) -> Sample;

    /// Generates a deterministic evaluation set of `n` samples.
    fn samples(&self, world: &World, n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = Rng64::new(seed ^ 0xBE9C_41AF);
        (0..n).map(|_| self.sample(world, &mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Benchmark for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn sample(&self, _world: &World, rng: &mut Rng64) -> Sample {
            Sample::multiple_choice(vec![1, 2], vec![vec![3], vec![4]], rng.below(2))
        }
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let w = World::new(1);
        let a = Dummy.samples(&w, 10, 7);
        let b = Dummy.samples(&w, 10, 7);
        assert_eq!(a, b);
        let c = Dummy.samples(&w, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "answer index")]
    fn invalid_answer_rejected() {
        let _ = Sample::multiple_choice(vec![1], vec![vec![2]], 3);
    }

    #[test]
    #[should_panic(expected = "empty reference")]
    fn empty_reference_rejected() {
        let _ = Sample::exact_match(vec![1], vec![]);
    }
}
