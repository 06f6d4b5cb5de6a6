//! Shared plumbing for the reproduction harness: the pretrained-model
//! cache, table rendering and CSV emission.

use lrd_eval::corpus::CorpusBuilder;
use lrd_eval::World;
use lrd_nn::checkpoint::{load_model, save_model};
use lrd_nn::train::{TrainConfig, Trainer};
use lrd_nn::TransformerLm;
use std::path::{Path, PathBuf};

/// Schema identifier of the `BENCH_suite.json` document `repro` emits.
pub const SUITE_SCHEMA_NAME: &str = "lrd-bench-suite";

/// Version of the `BENCH_suite.json` layout.
///
/// v2: `kernel_gflops` became an object keyed by kernel dtype
/// (`f32`/`bf16`/`f16`), each holding per-kernel GFLOP/s; added
/// `kernel_dtype` (the resolved `LRD_KERNEL_DTYPE`) and
/// `gemm_bytes_packed` (bytes staged into GEMM pack buffers during the
/// calibration pass).
///
/// v3: added the optional `serve` section — written by `repro serve` —
/// holding the continuous-batching load test's measured percentiles
/// (per-token p50/p95/p99 and TTFT), aggregate tokens/s, and the
/// batched-vs-sequential speedup and bit-identity verdict for the dense
/// model and each factored parameter-reduction point. Documents from
/// other commands omit the section; `metrics_check --suite` validates it
/// only when present (or on demand with `--require-serve`).
///
/// v4: serve runs gained the graceful-degradation breakdown — `shed`,
/// `timed_out`, `readmitted` counts (the accounting identity became
/// `completed + rejected + failed + shed + timed_out == offered`) — plus
/// `healthy_tokens` and `goodput_tokens_per_s` (tokens/s counting only
/// completed sessions' streams); the serve section itself gained the
/// resolved chaos knobs (`faults_active`, `deadline_steps`,
/// `shed_high_water`, `max_admit_per_step`).
///
/// v5: every serve run's `stream_checksum` is a `"0x"`-prefixed 16-digit
/// hex string instead of a JSON number, which rounded checksums above
/// 2⁵³ (two different streams could serialize identically). The `f32`
/// `kernel_gflops` group lost its `batched_matmul_*`, `matvec_*` and
/// `matvec_transb_*` timings with those entry points.
pub const SUITE_SCHEMA_VERSION: u64 = 5;

/// The world seed every experiment shares.
pub const WORLD_SEED: u64 = 2024;

/// The model-construction seed.
pub const MODEL_SEED: u64 = 7;

/// Training hyper-parameters for the cached tiny-Llama baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainOptions {
    /// Optimization steps.
    pub steps: usize,
    /// Sequences per batch.
    pub batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Peak learning rate.
    pub lr: f32,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        PretrainOptions {
            steps: 2500,
            batch: 16,
            seq_len: 48,
            lr: 4e-3,
        }
    }
}

/// Where artifacts (checkpoints, CSVs) live.
pub fn artifacts_dir() -> PathBuf {
    let dir = std::env::var("LRD_ARTIFACTS").unwrap_or_else(|_| "artifacts".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).ok();
    p
}

/// Trains the tiny-Llama baseline on the shared world (logging progress to
/// stderr) and returns it.
pub fn train_tiny_llama(world: &World, opts: &PretrainOptions) -> TransformerLm {
    let mut model = lrd_models::tiny::build_tiny_llama(MODEL_SEED);
    let mut corpus = CorpusBuilder::new(*world, 1, opts.seq_len);
    let mut trainer = Trainer::new(TrainConfig {
        lr: opts.lr,
        warmup: (opts.steps / 20).max(10),
        total_steps: opts.steps,
        clip: 1.0,
        weight_decay: 0.01,
    });
    let t0 = std::time::Instant::now();
    for step in 0..opts.steps {
        let batch = corpus.batch(opts.batch);
        let loss = trainer.step(&mut model, &batch);
        if step % 100 == 0 || step + 1 == opts.steps {
            eprintln!(
                "[train] step {step:>5}/{} loss {loss:.4} ({:.1}s)",
                opts.steps,
                t0.elapsed().as_secs_f32()
            );
        }
    }
    model
}

/// Loads the cached pretrained tiny-Llama, training and caching it on
/// first use. The cache key includes the step count so `--fast` runs use
/// their own checkpoint.
pub fn pretrained_tiny_llama(opts: &PretrainOptions) -> (TransformerLm, World) {
    let world = World::new(WORLD_SEED);
    let path = artifacts_dir().join(format!("tiny_llama_{}steps.ckpt", opts.steps));
    if path.exists() {
        match load_model(&path) {
            Ok(m) => return (m, world),
            Err(e) => eprintln!("[cache] failed to load {}: {e}; retraining", path.display()),
        }
    }
    let mut model = train_tiny_llama(&world, opts);
    if let Err(e) = save_model(&path, &mut model) {
        eprintln!("[cache] failed to save {}: {e}", path.display());
    } else {
        eprintln!("[cache] saved {}", path.display());
    }
    (model, world)
}

/// Trains the tiny-BERT baseline with masked-language-model pre-training.
pub fn train_tiny_bert(world: &World, opts: &PretrainOptions) -> TransformerLm {
    let mut model = lrd_models::tiny::build_tiny_bert(MODEL_SEED ^ 0xBE27);
    let mut corpus = CorpusBuilder::new(*world, 2, opts.seq_len);
    // Post-LN encoders destabilize at decoder-scale learning rates; train
    // the BERT baseline gentler and with a longer warmup.
    let mut trainer = Trainer::new(TrainConfig {
        lr: opts.lr * 0.25,
        warmup: (opts.steps / 8).max(20),
        total_steps: opts.steps,
        clip: 1.0,
        weight_decay: 0.01,
    });
    let t0 = std::time::Instant::now();
    for step in 0..opts.steps {
        // Mix generic MLM with the span-focused cloze objective so the
        // encoder both models the corpus and answers the probe format.
        let batch = if step % 3 == 0 {
            corpus.mlm_batch(opts.batch, 0.2)
        } else {
            corpus.cloze_batch(opts.batch)
        };
        let loss = trainer.step(&mut model, &batch);
        if step % 100 == 0 || step + 1 == opts.steps {
            eprintln!(
                "[train-bert] step {step:>5}/{} loss {loss:.4} ({:.1}s)",
                opts.steps,
                t0.elapsed().as_secs_f32()
            );
        }
    }
    model
}

/// Loads the cached pretrained tiny-BERT, training and caching on first
/// use.
pub fn pretrained_tiny_bert(opts: &PretrainOptions) -> (TransformerLm, World) {
    let world = World::new(WORLD_SEED);
    let path = artifacts_dir().join(format!("tiny_bert_{}steps.ckpt", opts.steps));
    if path.exists() {
        match load_model(&path) {
            Ok(m) => return (m, world),
            Err(e) => eprintln!("[cache] failed to load {}: {e}; retraining", path.display()),
        }
    }
    let mut model = train_tiny_bert(&world, opts);
    if let Err(e) = save_model(&path, &mut model) {
        eprintln!("[cache] failed to save {}: {e}", path.display());
    } else {
        eprintln!("[cache] saved {}", path.display());
    }
    (model, world)
}

/// Renders an ASCII table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    line(&mut out);
    for row in rows {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

/// Writes rows as CSV under the artifacts directory; returns the path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = artifacts_dir().join(name);
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("[csv] failed to write {}: {e}", path.display());
    }
    path
}

/// Removes a cached checkpoint (used by `repro train --force`).
pub fn clear_cache(path: &Path) {
    std::fs::remove_file(path).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["model", "params"],
            &[
                vec!["BERT".into(), "110M".into()],
                vec!["Llama2-7B".into(), "6.7B".into()],
            ],
        );
        assert!(t.contains("| model     | params |"));
        assert!(t.contains("| Llama2-7B | 6.7B   |"));
    }

    #[test]
    fn csv_written() {
        std::env::set_var("LRD_ARTIFACTS", std::env::temp_dir().join("lrd_csv_test"));
        let p = write_csv("t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        std::fs::remove_file(p).ok();
        std::env::remove_var("LRD_ARTIFACTS");
    }
}
