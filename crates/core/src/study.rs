//! Characterization and case-study drivers — one per figure of the paper.
//!
//! Every driver takes a *trained* base model plus the world it was trained
//! on, decomposes clones of it according to the axis under study, and
//! evaluates the benchmark suite. The efficiency drivers run the analytic
//! hardware simulator on the full-size Llama2-7B descriptor.

use crate::compression::param_reduction_pct;
use crate::decompose::{decompose_model, decompose_model_cached, descriptor_decomposition};
use crate::executor::{
    panic_message, run_jobs_isolated, worker_budget, CacheStats, DecompositionCache, JobOutcome,
};
use crate::faults::{injected_nan_error, FaultKind, FaultPlan, FAULTS_ENV};
use crate::journal::{fingerprint, Journal, JournalRecord, Shard};
use crate::select::{all_llama_tensors, preset_config, strided_layers, table4_presets};
use crate::space::DecompositionConfig;
use lrd_eval::harness::{evaluate, EvalOptions};
use lrd_eval::sample::Benchmark;
use lrd_eval::{Accuracy, World};
use lrd_hwsim::device::SystemSpec;
use lrd_hwsim::report::{simulate_inference, InferenceReport};
use lrd_models::descriptor::TransformerDescriptor;
use lrd_nn::TransformerLm;
use lrd_tensor::error::TensorError;
use std::sync::Mutex;
use std::time::Duration;

/// A boxed benchmark usable across threads.
pub type DynBenchmark = Box<dyn Benchmark + Send + Sync>;

/// One evaluated configuration: the γ under study plus per-benchmark
/// accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyPoint {
    /// Human-readable configuration label.
    pub label: String,
    /// Uniform pruned rank (0 for the undecomposed baseline).
    pub rank: usize,
    /// Decomposed layers.
    pub layers: Vec<usize>,
    /// Decomposed tensor indices.
    pub tensors: Vec<usize>,
    /// Parameter reduction versus the dense model, percent (live count).
    pub param_reduction_pct: f64,
    /// `(benchmark, accuracy)` per evaluated benchmark.
    pub results: Vec<(&'static str, Accuracy)>,
    /// Why the point's decomposition failed, if it did. A failed point
    /// carries no results and is skipped by downstream reductions; the
    /// rest of the sweep still runs.
    pub error: Option<String>,
    /// Retries this point consumed before settling (0 on a clean first
    /// attempt; equal to the executor's retry budget when it failed for
    /// good on a transient error).
    pub retries: u32,
}

impl StudyPoint {
    /// Whether this point's decomposition failed.
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }

    /// Mean accuracy (percent) across all evaluated benchmarks.
    pub fn mean_accuracy(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().map(|(_, a)| a.percent()).sum::<f64>() / self.results.len() as f64
    }

    /// Accuracy (percent) on one benchmark, if evaluated.
    pub fn accuracy_of(&self, bench: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|(n, _)| *n == bench)
            .map(|(_, a)| a.percent())
    }
}

/// Builds the [`StudyPoint`] recording a failed decomposition: the error is
/// carried in the point (and counted via telemetry) instead of killing the
/// sweep, so the remaining points still run.
fn failed_point(
    label: String,
    rank: usize,
    cfg: &DecompositionConfig,
    err: impl std::fmt::Display,
    retries: u32,
) -> StudyPoint {
    lrd_trace::counters::add(lrd_trace::Counter::SweepPointsFailed, 1);
    StudyPoint {
        label,
        rank,
        layers: cfg.layers.iter().copied().collect(),
        tensors: cfg.tensors.iter().copied().collect(),
        param_reduction_pct: 0.0,
        results: Vec::new(),
        error: Some(err.to_string()),
        retries,
    }
}

/// Decomposes a clone of `base` with `cfg` and evaluates it on `benches`.
///
/// A configuration that cannot be applied (invalid rank) yields a failed
/// point ([`StudyPoint::is_failed`]) rather than a panic.
pub fn eval_config(
    base: &TransformerLm,
    cfg: &DecompositionConfig,
    label: impl Into<String>,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> StudyPoint {
    let label = label.into();
    let _point = lrd_trace::span("point", label.clone());
    lrd_trace::counters::add(lrd_trace::Counter::SweepPoints, 1);
    let mut model = base.clone();
    let rank = cfg.ranks.iter().map(|(_, _, p)| p).next().unwrap_or(0);
    let reduction = if cfg.is_original() {
        0.0
    } else {
        let _decompose = lrd_trace::span("decompose", label.clone());
        match decompose_model(&mut model, cfg) {
            Ok(report) => report.reduction_pct(),
            Err(e) => return failed_point(label, rank, cfg, e, 0),
        }
    };
    let _eval = lrd_trace::span("eval", label.clone());
    let results = benches
        .iter()
        .map(|b| (b.name(), evaluate(&model, b.as_ref(), world, opts)))
        .collect();
    StudyPoint {
        label,
        rank,
        layers: cfg.layers.iter().copied().collect(),
        tensors: cfg.tensors.iter().copied().collect(),
        param_reduction_pct: reduction,
        results,
        error: None,
        retries: 0,
    }
}

/// Baseline accuracies of the undecomposed model.
pub fn baseline(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> StudyPoint {
    eval_config(
        base,
        &DecompositionConfig::original(),
        "original",
        world,
        benches,
        opts,
    )
}

/// A labelled configuration awaiting evaluation.
pub type StudySpec = (String, DecompositionConfig);

/// Backoff before retry `attempt` (1-based): the base delay scaled
/// linearly by the attempt number, plus a deterministic per-point jitter
/// in `[0, base)` hashed from the label and attempt — staggered enough
/// that retried workers don't stampede in lockstep, yet a pure function
/// of its inputs so runs stay reproducible.
fn backoff_delay(base_ms: u64, label: &str, attempt: u32) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Duration::from_millis(base_ms * u64::from(attempt) + h % base_ms)
}

/// Restores the GEMM thread limit when a worker pool winds down, even if a
/// sweep point panics.
struct ThreadLimitGuard(usize);

impl Drop for ThreadLimitGuard {
    fn drop(&mut self) {
        lrd_tensor::matmul::set_thread_limit(self.0);
    }
}

/// Sweep-level study runner: a bounded worker pool over independent
/// [`StudyPoint`] evaluations sharing one [`DecompositionCache`].
///
/// The executor borrows the frozen base model and world, so every sweep
/// point decomposes a clone of identical weights — the invariant that makes
/// the (layer, tensor, rank)-keyed cache sound and lets it persist across
/// drivers (one executor can serve Figs. 3 and 5–9 back to back, reusing
/// factor pairs between figures).
///
/// Results are bit-identical to the sequential drivers at any pool size:
/// jobs land in index-ordered slots, `tucker2` is deterministic, and
/// evaluation is deterministic in its thread count.
///
/// The executor is also the crash-safety boundary of the sweep runtime:
///
/// * every point runs under panic isolation with a bounded retry budget
///   for *transient* failures ([`TensorError::is_transient`] plus panics),
///   with deterministic jittered backoff between attempts;
/// * an optional soft deadline marks overrunning points as timed out
///   instead of stalling the sweep's results;
/// * an attached [`Journal`] records every settled point durably and
///   [`StudyExecutor::run`] skips points already journaled under the same
///   `(figure, fingerprint)` key, restoring them bit-identically;
/// * a [`FaultPlan`] (from `LRD_FAULTS` by default) injects deterministic
///   failures at the decomposition boundary to exercise all of the above;
/// * an optional [`Shard`] restricts each run to the points it owns
///   (`fingerprint % count == index`), turning journal + merge into a
///   coordinator-free distribution mechanism (DESIGN.md §14).
pub struct StudyExecutor<'a> {
    base: &'a TransformerLm,
    world: &'a World,
    opts: EvalOptions,
    workers: usize,
    use_cache: bool,
    cache: DecompositionCache,
    retries: u32,
    backoff_ms: u64,
    deadline: Option<Duration>,
    faults: FaultPlan,
    journal: Option<&'a Journal>,
    shard: Option<Shard>,
    figure: Mutex<String>,
}

impl<'a> StudyExecutor<'a> {
    /// Creates an executor over a trained base model with an empty cache
    /// and automatic pool sizing. The fault plan is read from `LRD_FAULTS`
    /// (a malformed spec is reported and ignored here — the `repro` CLI
    /// validates it up front and exits instead).
    pub fn new(base: &'a TransformerLm, world: &'a World, opts: &EvalOptions) -> Self {
        let faults = FaultPlan::from_env().unwrap_or_else(|e| {
            lrd_trace::warn(format!("ignoring {FAULTS_ENV}: {e}"));
            FaultPlan::default()
        });
        StudyExecutor {
            base,
            world,
            opts: *opts,
            workers: 0,
            use_cache: true,
            cache: DecompositionCache::new(),
            retries: 2,
            backoff_ms: 25,
            deadline: None,
            faults,
            journal: None,
            shard: None,
            figure: Mutex::new("study".to_string()),
        }
    }

    /// Overrides the worker-pool size (0 = derive from the thread budget).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables factor memoization (on by default). Exists to
    /// A/B the cache against the recompute-every-point path; results are
    /// identical either way.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Sets the per-point retry budget for transient failures (default 2).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the base backoff delay between retry attempts in milliseconds
    /// (default 25; 0 disables sleeping). The actual delay grows linearly
    /// with the attempt number plus a deterministic per-point jitter, so
    /// retried points don't stampede in lockstep yet stay reproducible.
    pub fn with_backoff_ms(mut self, backoff_ms: u64) -> Self {
        self.backoff_ms = backoff_ms;
        self
    }

    /// Sets the per-point soft deadline (default none). An overrunning
    /// point is settled as timed out — see [`run_jobs_isolated`] for the
    /// exact (soft) semantics.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the fault-injection plan (default: from `LRD_FAULTS`).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a durable journal: every settled point is appended, and
    /// [`StudyExecutor::run`] resumes journaled points instead of
    /// recomputing them.
    pub fn with_journal(mut self, journal: &'a Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Restricts sweeps to the points this shard owns (default: all).
    /// Points owned by other shards are *omitted* from the output — not
    /// failed — and counted under `sweep_points_shard_skipped`; journaled
    /// points are still restored regardless of ownership, so resuming from
    /// a merged journal reconstructs the full table (DESIGN.md §14).
    pub fn with_shard(mut self, shard: Option<Shard>) -> Self {
        self.shard = shard;
        self
    }

    /// Names the figure/driver for journal keying (`"fig9"`, `"bert"`, …).
    /// Takes `&self` so one executor can serve several figures back to
    /// back, re-labelling between them.
    pub fn set_figure(&self, figure: &str) {
        *self
            .figure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = figure.to_string();
    }

    /// The frozen base model under study.
    pub fn base(&self) -> &TransformerLm {
        self.base
    }

    /// The world the base model was trained on.
    pub fn world(&self) -> &World {
        self.world
    }

    /// The per-evaluation options (thread field is the *total* budget).
    pub fn opts(&self) -> &EvalOptions {
        &self.opts
    }

    /// Decomposition-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of distinct factor pairs memoized so far.
    pub fn cached_factors(&self) -> usize {
        self.cache.len()
    }

    /// Evaluates every spec on `benches`, in spec order.
    ///
    /// The total thread budget (`opts.threads`, or available parallelism
    /// when 0) is split as workers × per-eval threads; while more than one
    /// worker is live the GEMM thread limit is pinned to 1 so nested matmul
    /// parallelism cannot oversubscribe the host.
    ///
    /// With a journal attached, points already journaled under the current
    /// figure and matching fingerprint are restored instead of recomputed
    /// and the rest are appended as they settle — interrupting a sweep and
    /// re-running it with the same journal yields the same vector as an
    /// uninterrupted run, bit for bit. Panicked and timed-out points are
    /// *not* journaled (they never settled normally) and surface as failed
    /// points in the output.
    ///
    /// With a [`Shard`] attached ([`StudyExecutor::with_shard`]), points
    /// the shard does not own are omitted from the output — the returned
    /// vector keeps spec order but covers only the owned (or journaled)
    /// subset. The journal lookup runs *before* the ownership check, so a
    /// merged journal restores every point and yields the full table.
    pub fn run(&self, benches: &[DynBenchmark], specs: Vec<StudySpec>) -> Vec<StudyPoint> {
        let n = specs.len();
        if n == 0 {
            return Vec::new();
        }
        let figure = self
            .figure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let keys: Vec<u64> = specs
            .iter()
            .map(|(label, cfg)| fingerprint(label, cfg, benches, &self.opts))
            .collect();
        let mut slots: Vec<Option<StudyPoint>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<(usize, StudySpec)> = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let resumed = self
                .journal
                .and_then(|j| j.lookup(&figure, keys[i]))
                .and_then(|record| record.to_point(benches));
            match resumed {
                Some(point) => {
                    lrd_trace::counters::add(lrd_trace::Counter::JournalPointsResumed, 1);
                    slots[i] = Some(point);
                }
                None if self.shard.is_some_and(|s| !s.owns(keys[i])) => {
                    // Another shard's point and not journaled: leave the
                    // slot empty — it is omitted from the output, never
                    // fabricated as a failed row.
                    lrd_trace::counters::add(lrd_trace::Counter::SweepPointsShardSkipped, 1);
                }
                None => pending.push((i, spec)),
            }
        }
        if !pending.is_empty() {
            let budget = worker_budget(self.opts.threads, self.workers, pending.len());
            let run_one = |label: &str, cfg: &DecompositionConfig, key: u64, opts: &EvalOptions| {
                let point = self.eval_point(benches, label.to_string(), cfg, opts);
                if let Some(journal) = self.journal {
                    let record = JournalRecord::from_point(&figure, key, &point);
                    if let Err(e) = journal.append(record) {
                        lrd_trace::warn(format!(
                            "journal append failed for {:?}: {e}",
                            journal.path()
                        ));
                    }
                }
                point
            };
            // A pool splits the thread budget and pins nested GEMM to one
            // thread; a single worker (run inline unless a deadline needs
            // the watchdog) keeps the caller's options and GEMM threading.
            let inner = EvalOptions {
                threads: budget.eval_threads,
                ..self.opts
            };
            let (opts, _guard) = if budget.workers > 1 {
                let limit = lrd_tensor::matmul::set_thread_limit(1);
                (&inner, Some(ThreadLimitGuard(limit)))
            } else {
                (&self.opts, None)
            };
            let (keys, run_one) = (&keys, &run_one);
            let outcomes = run_jobs_isolated(
                pending
                    .iter()
                    .map(|(i, (label, cfg))| move || run_one(label, cfg, keys[*i], opts))
                    .collect(),
                budget.workers,
                self.deadline,
            );
            for ((i, (label, cfg)), outcome) in pending.into_iter().zip(outcomes) {
                slots[i] = Some(match outcome {
                    JobOutcome::Done(point) => point,
                    JobOutcome::Panicked(msg) => {
                        let rank = cfg.ranks.iter().map(|(_, _, p)| p).next().unwrap_or(0);
                        failed_point(label, rank, &cfg, format!("panic: {msg}"), self.retries)
                    }
                    JobOutcome::TimedOut => {
                        lrd_trace::counters::add(lrd_trace::Counter::SweepPointsTimedOut, 1);
                        let rank = cfg.ranks.iter().map(|(_, _, p)| p).next().unwrap_or(0);
                        let deadline = self.deadline.unwrap_or_default();
                        failed_point(
                            label,
                            rank,
                            &cfg,
                            format!("timed out after soft deadline of {deadline:?}"),
                            0,
                        )
                    }
                });
            }
        }
        // Unsharded, every slot settles (restored, computed, or failed);
        // under a shard, unowned un-journaled slots stay `None` and are
        // legitimately omitted from the output.
        slots.into_iter().flatten().collect()
    }

    /// Evaluates one point under the executor's robustness policy: up to
    /// `retries` extra attempts on transient failures (non-converged SVD,
    /// non-finite factors, injected faults, panics), with deterministic
    /// jittered backoff between attempts. Permanent errors (invalid rank,
    /// shape mismatch) fail immediately — they would fail identically on
    /// every attempt.
    fn eval_point(
        &self,
        benches: &[DynBenchmark],
        label: String,
        cfg: &DecompositionConfig,
        opts: &EvalOptions,
    ) -> StudyPoint {
        let _point = lrd_trace::span("point", label.clone());
        lrd_trace::counters::add(lrd_trace::Counter::SweepPoints, 1);
        let rank = cfg.ranks.iter().map(|(_, _, p)| p).next().unwrap_or(0);
        let mut last_error = String::new();
        for attempt in 0..=self.retries {
            if attempt > 0 {
                lrd_trace::counters::add(lrd_trace::Counter::SweepRetries, 1);
                let delay = backoff_delay(self.backoff_ms, &label, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let attempt_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.try_point(benches, &label, cfg, opts, attempt)
            }));
            match attempt_result {
                Ok(Ok(mut point)) => {
                    point.retries = attempt;
                    return point;
                }
                Ok(Err(e)) => {
                    if !e.is_transient() {
                        return failed_point(label, rank, cfg, e, attempt);
                    }
                    last_error = e.to_string();
                }
                // A panic is treated as transient: with fault injection it
                // is one by construction, and a real one is worth a second
                // look before the point is written off.
                Err(payload) => last_error = format!("panic: {}", panic_message(payload)),
            }
        }
        failed_point(label, rank, cfg, last_error, self.retries)
    }

    /// One attempt at a point: fault-injection rolls, decomposition, and
    /// evaluation. Rolls key on the point label and attempt number, so the
    /// injected failure set is a pure function of the fault plan — the
    /// same at every pool size and on every run.
    fn try_point(
        &self,
        benches: &[DynBenchmark],
        label: &str,
        cfg: &DecompositionConfig,
        opts: &EvalOptions,
        attempt: u32,
    ) -> Result<StudyPoint, TensorError> {
        if self.faults.roll(FaultKind::Panic, label, attempt) {
            // lrd-lint: allow(no-panic, "deliberate injected fault: this panic exists to exercise the catch_unwind isolation under chaos runs")
            panic!("injected panic at {label:?} (attempt {attempt})");
        }
        if self.faults.roll(FaultKind::Svd, label, attempt) {
            return Err(TensorError::NotConverged {
                algorithm: "svd (injected fault)",
                iterations: 0,
            });
        }
        let mut model = self.base.clone();
        let rank = cfg.ranks.iter().map(|(_, _, p)| p).next().unwrap_or(0);
        let reduction = if cfg.is_original() {
            0.0
        } else {
            let _decompose = lrd_trace::span("decompose", label.to_string());
            self.decompose_in_place(&mut model, cfg)?.reduction_pct()
        };
        if self.faults.roll(FaultKind::Nan, label, attempt) {
            return Err(injected_nan_error());
        }
        let _eval = lrd_trace::span("eval", label.to_string());
        let results = benches
            .iter()
            .map(|b| (b.name(), evaluate(&model, b.as_ref(), self.world, opts)))
            .collect();
        Ok(StudyPoint {
            label: label.to_string(),
            rank,
            layers: cfg.layers.iter().copied().collect(),
            tensors: cfg.tensors.iter().copied().collect(),
            param_reduction_pct: reduction,
            results,
            error: None,
            retries: 0,
        })
    }

    fn decompose_in_place(
        &self,
        model: &mut TransformerLm,
        cfg: &DecompositionConfig,
    ) -> Result<crate::decompose::DecompositionReport, lrd_tensor::error::TensorError> {
        if self.use_cache {
            decompose_model_cached(model, cfg, &self.cache)
        } else {
            decompose_model(model, cfg)
        }
    }

    /// Decomposes a clone of the base model through the shared cache.
    ///
    /// # Errors
    ///
    /// Returns the decomposition error if the configuration cannot be
    /// applied (invalid rank).
    pub fn decompose_clone(
        &self,
        cfg: &DecompositionConfig,
    ) -> Result<
        (TransformerLm, crate::decompose::DecompositionReport),
        lrd_tensor::error::TensorError,
    > {
        let mut model = self.base.clone();
        let report = self.decompose_in_place(&mut model, cfg)?;
        Ok((model, report))
    }

    /// Baseline accuracies of the undecomposed model.
    pub fn baseline(&self, benches: &[DynBenchmark]) -> StudyPoint {
        let mut pts = self.run(
            benches,
            vec![("original".into(), DecompositionConfig::original())],
        );
        pts.pop().unwrap_or_else(|| {
            // `run` settles one point per spec; defend the API boundary
            // with a FAILED row rather than tearing the caller down.
            failed_point(
                "original".into(),
                0,
                &DecompositionConfig::original(),
                "baseline evaluation produced no point",
                0,
            )
        })
    }

    /// Fig. 3 sweep (see [`rank_sweep`]).
    pub fn rank_sweep(
        &self,
        benches: &[DynBenchmark],
        ranks: &[usize],
        layer_sets: &[(&str, Vec<usize>)],
    ) -> Vec<StudyPoint> {
        let tensors = all_llama_tensors();
        let mut specs = Vec::new();
        for (set_label, layers) in layer_sets {
            for &rank in ranks {
                specs.push((
                    format!("layers {set_label}, PR={rank}"),
                    DecompositionConfig::uniform(layers, &tensors, rank),
                ));
            }
        }
        self.run(benches, specs)
    }

    /// Fig. 5 sweep (see [`tensor_choice`]).
    pub fn tensor_choice(&self, benches: &[DynBenchmark]) -> Vec<StudyPoint> {
        let n_layers = self.base.config().n_layers;
        let tensor_names = layer_tensor_names(self.base);
        let mut specs = Vec::new();
        for (t, name) in tensor_names.iter().enumerate() {
            specs.push((
                format!("{name} (one layer)"),
                DecompositionConfig::uniform(&[n_layers / 2], &[t], 1),
            ));
        }
        let all_layers: Vec<usize> = (0..n_layers).collect();
        for (t, name) in tensor_names.iter().enumerate() {
            specs.push((
                format!("{name} (all layers)"),
                DecompositionConfig::uniform(&all_layers, &[t], 1),
            ));
        }
        self.run(benches, specs)
    }

    /// Fig. 6 sweep (see [`tensor_vs_layer`]).
    pub fn tensor_vs_layer(
        &self,
        benches: &[DynBenchmark],
        single_tensors: &[usize],
        all_tensor_layers: &[usize],
    ) -> Vec<StudyPoint> {
        let n_layers = self.base.config().n_layers;
        let tensor_names = layer_tensor_names(self.base);
        let all_layers: Vec<usize> = (0..n_layers).collect();
        let mut specs: Vec<StudySpec> = single_tensors
            .iter()
            .map(|&t| {
                (
                    format!("{} in all layers", tensor_names[t]),
                    DecompositionConfig::uniform(&all_layers, &[t], 1),
                )
            })
            .collect();
        let all_tensors: Vec<usize> = (0..tensor_names.len()).collect();
        specs.push((
            format!("all tensors in {} layers", all_tensor_layers.len()),
            DecompositionConfig::uniform(all_tensor_layers, &all_tensors, 1),
        ));
        self.run(benches, specs)
    }

    /// Fig. 7 sweep (see [`layer_sensitivity`]).
    pub fn layer_sensitivity(&self, benches: &[DynBenchmark]) -> Vec<StudyPoint> {
        let n_layers = self.base.config().n_layers;
        let all_tensors: Vec<usize> = (0..layer_tensor_names(self.base).len()).collect();
        let specs = (0..n_layers)
            .map(|l| {
                (
                    format!("layer {l}"),
                    DecompositionConfig::uniform(&[l], &all_tensors, 1),
                )
            })
            .collect();
        self.run(benches, specs)
    }

    /// Fig. 8 sweep (see [`layer_distance`]).
    pub fn layer_distance(
        &self,
        benches: &[DynBenchmark],
        strides: &[usize],
        count: usize,
        start: usize,
    ) -> Vec<StudyPoint> {
        let n_layers = self.base.config().n_layers;
        let all_tensors: Vec<usize> = (0..layer_tensor_names(self.base).len()).collect();
        let specs = strides
            .iter()
            .map(|&stride| {
                let layers = strided_layers(n_layers, start, stride, count);
                (
                    format!("stride {stride}"),
                    DecompositionConfig::uniform(&layers, &all_tensors, 1),
                )
            })
            .collect();
        self.run(benches, specs)
    }

    /// Fig. 9 sweep (see [`case_study`]).
    pub fn case_study(&self, benches: &[DynBenchmark]) -> Vec<StudyPoint> {
        let specs = table4_presets()
            .into_iter()
            .map(|(label, _, layers)| (format!("reduction {label}"), preset_config(&layers)))
            .collect();
        self.run(benches, specs)
    }
}

/// Fig. 3: accuracy versus pruned rank. The paper prunes 4096-dim tensors
/// to ranks {500, 250, 1}; `ranks` carries the equivalents scaled to the
/// model under test. Each rank is evaluated at each provided layer set.
pub fn rank_sweep(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
    ranks: &[usize],
    layer_sets: &[(&str, Vec<usize>)],
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).rank_sweep(benches, ranks, layer_sets)
}

/// Paper display names (Fig. 4) of a model's per-layer decomposable
/// tensors, derived from the live model's slot names.
pub fn layer_tensor_names(base: &TransformerLm) -> Vec<&'static str> {
    let mut probe = base.clone();
    probe
        .visit_linears()
        .into_iter()
        .filter(|(layer, _, _)| *layer == 0)
        .map(|(_, name, _)| match name {
            "wq" => "W_Q",
            "wk" => "W_K",
            "wv" => "W_V",
            "wo" => "W_SO",
            "gate" => "W_Gate",
            "up" => "W_Up",
            "down" => "W_Down",
            "intermediate" => "W_Int",
            "output" => "W_Out",
            other => other,
        })
        .collect()
}

/// Fig. 5: per-tensor sensitivity — each decomposable tensor factored
/// (rank 1) either in a single middle layer or in every layer. Works for
/// both architectures (7 Llama tensors, 6 BERT tensors).
pub fn tensor_choice(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).tensor_choice(benches)
}

/// Fig. 6: one-tensor-in-many-layers versus all-tensors-in-few-layers at a
/// matched parameter-reduction target.
///
/// `single_tensors` lists the tensor indices whose all-layer decomposition
/// lands near the target; `all_tensor_layers` is the layer set whose
/// all-tensor decomposition matches it.
pub fn tensor_vs_layer(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
    single_tensors: &[usize],
    all_tensor_layers: &[usize],
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).tensor_vs_layer(
        benches,
        single_tensors,
        all_tensor_layers,
    )
}

/// Fig. 7: per-layer sensitivity — decompose one layer at a time (rank 1,
/// all tensors) and record the aggregate accuracy.
pub fn layer_sensitivity(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).layer_sensitivity(benches)
}

/// Fig. 8: the effect of the distance between decomposed layers — a fixed
/// number of layers placed at increasing strides.
pub fn layer_distance(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
    strides: &[usize],
    count: usize,
    start: usize,
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).layer_distance(benches, strides, count, start)
}

/// Fig. 9: the case-study sweep — accuracy at every Table 4 preset.
pub fn case_study(
    base: &TransformerLm,
    world: &World,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> Vec<StudyPoint> {
    StudyExecutor::new(base, world, opts).case_study(benches)
}

/// One point of the efficiency sweep (Figs. 10–12).
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyPoint {
    /// Table 4 preset label.
    pub label: String,
    /// Parameter reduction, percent (analytic).
    pub param_reduction_pct: f64,
    /// Simulated run report.
    pub report: InferenceReport,
    /// Speedup versus the dense baseline.
    pub speedup: f64,
    /// Energy saving versus dense, percent.
    pub energy_saving_pct: f64,
    /// Memory saving versus dense, percent.
    pub memory_saving_pct: f64,
}

/// Figs. 10–12: latency/energy/memory across the Table 4 presets on the
/// simulated 4×A100 node with the full-size Llama2-7B descriptor.
pub fn efficiency_sweep(
    system: &SystemSpec,
    desc: &TransformerDescriptor,
    batch_per_gpu: usize,
    seq: usize,
) -> Vec<EfficiencyPoint> {
    let dense = simulate_inference(system, desc, &[], batch_per_gpu, seq);
    let presets = table4_presets();
    let workers = worker_budget(0, 0, presets.len()).workers;
    let mut out = vec![EfficiencyPoint {
        label: "0%".into(),
        param_reduction_pct: 0.0,
        report: dense,
        speedup: 1.0,
        energy_saving_pct: 0.0,
        memory_saving_pct: 0.0,
    }];
    for outcome in run_jobs_isolated(
        presets
            .into_iter()
            .map(|(label, _, layers)| {
                move || {
                    let cfg = preset_config(&layers);
                    let decomp = descriptor_decomposition(desc, &cfg);
                    let report = simulate_inference(system, desc, &decomp, batch_per_gpu, seq);
                    EfficiencyPoint {
                        label: label.into(),
                        param_reduction_pct: param_reduction_pct(desc, &cfg),
                        report,
                        speedup: dense.wall_time_s / report.wall_time_s,
                        energy_saving_pct: 100.0 * (dense.energy_j - report.energy_j)
                            / dense.energy_j,
                        memory_saving_pct: 100.0
                            * (dense.memory.total() as f64 - report.memory.total() as f64)
                            / dense.memory.total() as f64,
                    }
                }
            })
            .collect(),
        workers,
        None,
    ) {
        match outcome {
            JobOutcome::Done(point) => out.push(point),
            other => warn_lost_point("efficiency", &other),
        }
    }
    out
}

/// A sweep point's job died (panicked, or — with a deadline — timed out):
/// count it, warn, and let the sweep keep the points it has. One bad
/// preset must cost one point, never the sweep.
fn warn_lost_point<T>(sweep: &str, outcome: &JobOutcome<T>) {
    lrd_trace::counters::add(lrd_trace::Counter::SweepPointsFailed, 1);
    let why = match outcome {
        JobOutcome::Panicked(msg) => format!("panicked: {msg}"),
        _ => "timed out".to_string(),
    };
    lrd_trace::warn(format!("{sweep} sweep point {why}; omitting the point"));
}

/// One point of the decode-phase sweep (extension beyond the paper: the
/// single-token generation regime where weight streaming dominates).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodePoint {
    /// Table 4 preset label.
    pub label: String,
    /// Parameter reduction, percent.
    pub param_reduction_pct: f64,
    /// Seconds per decode step (one token per sequence).
    pub step_time_s: f64,
    /// Speedup versus the dense baseline.
    pub speedup: f64,
}

/// Decode-phase latency across the Table 4 presets: one generated token per
/// sequence against a KV cache of `past_len`. Decode is deeply
/// memory-bound, so the *byte* saving tracks the parameter reduction 1:1;
/// the measured time saving is capped by per-kernel launch overhead (the
/// factored form triples the kernel count), which the sweep exposes.
pub fn decode_sweep(
    system: &SystemSpec,
    desc: &TransformerDescriptor,
    batch: usize,
    past_len: usize,
) -> Vec<DecodePoint> {
    use lrd_hwsim::ops::decode_step_ops;
    use lrd_hwsim::roofline::Roofline;
    let roof = Roofline::new(system.gpu, lrd_models::descriptor::DType::F16);
    let dense_t = roof
        .estimate(&decode_step_ops(desc, batch, past_len, &[]))
        .total();
    let presets = table4_presets();
    let workers = worker_budget(0, 0, presets.len()).workers;
    let mut out = vec![DecodePoint {
        label: "0%".into(),
        param_reduction_pct: 0.0,
        step_time_s: dense_t,
        speedup: 1.0,
    }];
    for outcome in run_jobs_isolated(
        presets
            .into_iter()
            .map(|(label, _, layers)| {
                let roof = &roof;
                move || {
                    let cfg = preset_config(&layers);
                    let decomp = descriptor_decomposition(desc, &cfg);
                    let t = roof
                        .estimate(&decode_step_ops(desc, batch, past_len, &decomp))
                        .total();
                    DecodePoint {
                        label: label.into(),
                        param_reduction_pct: param_reduction_pct(desc, &cfg),
                        step_time_s: t,
                        speedup: dense_t / t,
                    }
                }
            })
            .collect(),
        workers,
        None,
    ) {
        match outcome {
            JobOutcome::Done(point) => out.push(point),
            other => warn_lost_point("decode", &other),
        }
    }
    out
}

/// Definition 1: among evaluated configurations, find the one minimizing
/// `latency × energy` subject to `max(acc_orig − acc(γ), 0) < τ` (accuracy
/// compared as the mean over benchmarks).
///
/// `accuracy_points` and `efficiency_points` are joined by label order —
/// pass the Table 4 case study and efficiency sweep (without its dense
/// first entry misaligning: the dense entry's label is `"0%"` and the
/// baseline StudyPoint should be passed separately).
pub fn optimize_design_goal<'a>(
    baseline_acc: f64,
    accuracy_points: &'a [StudyPoint],
    efficiency_points: &'a [EfficiencyPoint],
    tau_pct: f64,
) -> Option<(&'a StudyPoint, &'a EfficiencyPoint)> {
    let mut best: Option<(&StudyPoint, &EfficiencyPoint, f64)> = None;
    for sp in accuracy_points {
        if sp.is_failed() {
            continue;
        }
        // Join on the preset token (the last whitespace-separated word of
        // the study label, e.g. "reduction 15%" ↔ "15%").
        let key = sp.label.rsplit(' ').next().unwrap_or(&sp.label);
        let Some(ep) = efficiency_points.iter().find(|e| e.label == key) else {
            continue;
        };
        let drop = (baseline_acc - sp.mean_accuracy()).max(0.0);
        if drop >= tau_pct {
            continue;
        }
        let edp = ep.report.wall_time_s * ep.report.energy_j;
        if best.is_none_or(|(_, _, b)| edp < b) {
            best = Some((sp, ep, edp));
        }
    }
    best.map(|(s, e, _)| (s, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_eval::tasks::{ArcEasy, WinoGrande};
    use lrd_models::zoo::llama2_7b;
    use lrd_nn::{ArchKind, TransformerConfig};
    use lrd_tensor::rng::Rng64;

    fn quick_model() -> TransformerLm {
        let cfg = TransformerConfig {
            kind: ArchKind::Decoder,
            vocab_size: 256,
            d_model: 16,
            n_layers: 4,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            max_seq: 64,
        };
        TransformerLm::new(cfg, &mut Rng64::new(9))
    }

    fn quick_benches() -> Vec<DynBenchmark> {
        vec![Box::new(ArcEasy), Box::new(WinoGrande)]
    }

    fn quick_opts() -> EvalOptions {
        EvalOptions {
            n_samples: 20,
            seed: 3,
            batch_size: 32,
            threads: 2,
        }
    }

    #[test]
    fn injected_svd_fault_fails_points_after_retries() {
        let m = quick_model();
        let w = World::new(1);
        let exec = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::parse("svd:1,seed:5").unwrap())
            .with_retries(1)
            .with_backoff_ms(0)
            .with_workers(1);
        let pts = exec.layer_sensitivity(&quick_benches());
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.is_failed(), "rate-1 fault must fail every point");
            assert!(p.error.as_deref().unwrap().contains("did not converge"));
            assert_eq!(p.retries, 1, "the full retry budget was consumed");
        }
    }

    #[test]
    fn injected_panics_are_isolated_and_deterministic_across_pools() {
        let m = quick_model();
        let w = World::new(1);
        let plan = FaultPlan::parse("panic:0.6,seed:11").unwrap();
        let run_with = |workers: usize| {
            let exec = StudyExecutor::new(&m, &w, &quick_opts())
                .with_faults(plan)
                .with_retries(1)
                .with_backoff_ms(0)
                .with_workers(workers);
            exec.layer_sensitivity(&quick_benches())
        };
        let solo = run_with(1);
        let pooled = run_with(2);
        assert_eq!(solo, pooled, "fault decisions must not depend on pool size");
        assert!(
            solo.iter().any(super::StudyPoint::is_failed),
            "rate 0.6 with 1 retry should fail at least one of 4 points"
        );
        for p in solo.iter().filter(|p| p.is_failed()) {
            assert!(p.error.as_deref().unwrap().contains("injected panic"));
        }
    }

    #[test]
    fn transient_faults_recover_within_retry_budget() {
        let m = quick_model();
        let w = World::new(1);
        // With a modest rate and enough retries every point should settle
        // ok (an attempt sequence all-faulted has probability rate^4).
        let exec = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::parse("nan:0.4,seed:2").unwrap())
            .with_retries(3)
            .with_backoff_ms(0)
            .with_workers(1);
        let pts = exec.layer_sensitivity(&quick_benches());
        assert!(pts.iter().all(|p| !p.is_failed()), "all points recover");
        assert!(
            pts.iter().any(|p| p.retries > 0),
            "rate 0.4 should force at least one retry across 4 points"
        );
        // And the recovered results match a fault-free run exactly.
        let clean = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .layer_sensitivity(&quick_benches());
        for (a, b) in pts.iter().zip(&clean) {
            assert_eq!(a.results, b.results);
            assert_eq!(
                a.param_reduction_pct.to_bits(),
                b.param_reduction_pct.to_bits()
            );
        }
    }

    #[test]
    fn journal_resume_skips_and_restores_points() {
        let m = quick_model();
        let w = World::new(1);
        let path =
            std::env::temp_dir().join(format!("lrd-study-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path).unwrap();
        let exec = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .with_journal(&journal);
        exec.set_figure("fig7");
        let first = exec.layer_sensitivity(&quick_benches());
        assert_eq!(journal.len(), 4);

        // Resume from disk: every point restores without recomputation.
        let resumed_journal = Journal::resume(&path).unwrap();
        let resumed_before = lrd_trace::counters::get(lrd_trace::Counter::JournalPointsResumed);
        let exec2 = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .with_journal(&resumed_journal);
        exec2.set_figure("fig7");
        let second = exec2.layer_sensitivity(&quick_benches());
        assert_eq!(first, second, "resumed run must be bit-identical");
        assert!(
            lrd_trace::counters::get(lrd_trace::Counter::JournalPointsResumed)
                >= resumed_before + 4
        );

        // A different figure key does not match the journaled records.
        exec2.set_figure("fig3");
        let other = exec2.layer_sensitivity(&quick_benches());
        assert_eq!(first, other, "recomputation still gives the same data");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_runs_partition_points_and_merged_journal_restores_full_table() {
        let m = quick_model();
        let w = World::new(1);
        let reference = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .layer_sensitivity(&quick_benches());
        assert_eq!(reference.len(), 4);

        // Run each shard with its own journal; outputs must be disjoint
        // and together cover the reference exactly.
        let n = 3u64;
        let mut shard_paths = Vec::new();
        let mut union: Vec<StudyPoint> = Vec::new();
        for i in 0..n {
            let path = std::env::temp_dir()
                .join(format!("lrd-study-shard-{}-{i}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let journal = Journal::create(&path).unwrap();
            let exec = StudyExecutor::new(&m, &w, &quick_opts())
                .with_faults(FaultPlan::default())
                .with_workers(1)
                .with_journal(&journal)
                .with_shard(Some(Shard::new(i, n).unwrap()));
            exec.set_figure("fig7");
            let part = exec.layer_sensitivity(&quick_benches());
            assert_eq!(journal.len(), part.len(), "every owned point journals");
            for p in part {
                assert!(!union.contains(&p), "shards must be disjoint");
                union.push(p);
            }
            shard_paths.push(path);
        }
        assert_eq!(union.len(), reference.len(), "shards must cover the sweep");
        for p in &reference {
            assert!(union.contains(p), "missing point {:?}", p.label);
        }

        // Merge the shard journals and resume unsharded: the full table
        // comes back bit-identical to the uninterrupted reference.
        let out =
            std::env::temp_dir().join(format!("lrd-study-merged-{}.jsonl", std::process::id()));
        let (merged, report) = Journal::merge(&out, &shard_paths).unwrap();
        assert_eq!(report.records, reference.len());
        let exec = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .with_journal(&merged);
        exec.set_figure("fig7");
        let restored = exec.layer_sensitivity(&quick_benches());
        assert_eq!(restored, reference, "merged resume must be bit-identical");

        // A sharded executor resuming from the merged journal also sees
        // the full table: restoration precedes the ownership filter.
        let exec = StudyExecutor::new(&m, &w, &quick_opts())
            .with_faults(FaultPlan::default())
            .with_workers(1)
            .with_journal(&merged)
            .with_shard(Some(Shard::new(0, n).unwrap()));
        exec.set_figure("fig7");
        assert_eq!(exec.layer_sensitivity(&quick_benches()), reference);

        for p in shard_paths.iter().chain([&out]) {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn eval_config_baseline_has_zero_reduction() {
        let m = quick_model();
        let w = World::new(1);
        let p = baseline(&m, &w, &quick_benches(), &quick_opts());
        assert_eq!(p.param_reduction_pct, 0.0);
        assert_eq!(p.results.len(), 2);
        assert!(p.mean_accuracy() >= 0.0);
    }

    #[test]
    fn layer_sensitivity_covers_all_layers() {
        let m = quick_model();
        let w = World::new(1);
        let pts = layer_sensitivity(&m, &w, &quick_benches(), &quick_opts());
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[2].layers, vec![2]);
        // Single-layer rank-1 reduction ≈ layer share of params.
        assert!(pts[0].param_reduction_pct > 0.0);
    }

    #[test]
    fn rank_sweep_labels_and_reductions() {
        let m = quick_model();
        let w = World::new(1);
        let pts = rank_sweep(
            &m,
            &w,
            &quick_benches(),
            &quick_opts(),
            &[1, 2],
            &[("mid", vec![1, 2])],
        );
        assert_eq!(pts.len(), 2);
        assert!(
            pts[0].param_reduction_pct > pts[1].param_reduction_pct,
            "rank 1 reduces more"
        );
        assert!(pts[0].label.contains("PR=1"));
    }

    #[test]
    fn efficiency_sweep_monotone() {
        let sys = SystemSpec::quad_a100();
        let desc = llama2_7b();
        let pts = efficiency_sweep(&sys, &desc, 64, 128);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].param_reduction_pct > w[0].param_reduction_pct);
            assert!(
                w[1].speedup >= w[0].speedup - 1e-9,
                "speedup must not regress"
            );
            assert!(w[1].memory_saving_pct >= w[0].memory_saving_pct - 1e-9);
        }
        // Paper's headline: ~9% params → ~4% latency, ~5% energy savings.
        let nine = &pts[2];
        assert!((nine.param_reduction_pct - 9.0).abs() < 1.0);
        let lat_saving = 100.0 * (1.0 - 1.0 / nine.speedup);
        assert!(
            (2.0..8.0).contains(&lat_saving),
            "latency saving {lat_saving}%"
        );
    }

    #[test]
    fn decode_sweep_savings_approach_param_reduction() {
        let sys = SystemSpec::quad_a100();
        let desc = llama2_7b();
        let pts = decode_sweep(&sys, &desc, 8, 512);
        assert_eq!(pts.len(), 11);
        // At the 48% preset the weight-streaming saving is ~1:1 with
        // parameters but the tripled kernel count claws some back; the net
        // saving must still be substantial.
        let p48 = pts
            .iter()
            .find(|p| (p.param_reduction_pct - 48.0).abs() < 1.0)
            .unwrap();
        let saving = 100.0 * (1.0 - 1.0 / p48.speedup);
        assert!(
            saving > 0.35 * p48.param_reduction_pct,
            "decode saving {saving}% at {}% params",
            p48.param_reduction_pct
        );
        // Monotone speedup.
        for w in pts.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-9);
        }
    }

    #[test]
    fn optimizer_respects_accuracy_constraint() {
        let sys = SystemSpec::quad_a100();
        let desc = llama2_7b();
        let eff = efficiency_sweep(&sys, &desc, 64, 128);
        // Fabricate accuracy points: accuracy collapses beyond 15%.
        let acc: Vec<StudyPoint> = table4_presets()
            .into_iter()
            .map(|(label, red, layers)| StudyPoint {
                label: format!("reduction {label}"),
                rank: 1,
                layers,
                tensors: (0..7).collect(),
                param_reduction_pct: red,
                results: vec![(
                    "ARC Easy",
                    if red <= 15.0 {
                        Accuracy {
                            correct: 70,
                            total: 100,
                        }
                    } else {
                        Accuracy {
                            correct: 30,
                            total: 100,
                        }
                    },
                )],
                error: None,
                retries: 0,
            })
            .collect();
        let best = optimize_design_goal(72.0, &acc, &eff, 5.0).expect("feasible point");
        // 15% is the largest reduction within τ and minimizes EDP.
        assert_eq!(best.0.param_reduction_pct, 15.0);
        // With τ = 50 everything is feasible: picks the largest reduction.
        let loose = optimize_design_goal(72.0, &acc, &eff, 50.0).unwrap();
        assert_eq!(loose.0.param_reduction_pct, 96.0);
        // Infeasible τ: none.
        assert!(optimize_design_goal(72.0, &acc, &eff, 0.0).is_none());
    }
}
