//! Property-based tests for the design-space formalization and the
//! decomposer.

use lrd_core::compression::{decomposed_params, param_reduction_pct, tensor_compression_ratio};
use lrd_core::decompose::{decompose_model, decompose_model_cached};
use lrd_core::executor::{worker_budget, DecompositionCache};
use lrd_core::faults::FaultPlan;
use lrd_core::journal::{Journal, JournalRecord, Shard};
use lrd_core::select::{spread_layers, strided_layers};
use lrd_core::space::DecompositionConfig;
use lrd_core::study::{DynBenchmark, StudyExecutor, StudySpec};
use lrd_eval::harness::EvalOptions;
use lrd_eval::tasks::{ArcEasy, WinoGrande};
use lrd_eval::World;
use lrd_models::zoo::llama2_7b;
use lrd_nn::{ArchKind, TransformerConfig, TransformerLm};
use lrd_tensor::rng::Rng64;
use lrd_tensor::tucker::break_even_rank;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_layers() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(0usize..32, 1..6).prop_map(|s| s.into_iter().collect())
}

fn arb_tensors() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(0usize..7, 1..4).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniform_configs_validate(layers in arb_layers(), tensors in arb_tensors(), rank in 1usize..256) {
        let cfg = DecompositionConfig::uniform(&layers, &tensors, rank);
        prop_assert!(cfg.validate(&llama2_7b()).is_ok());
    }

    #[test]
    fn param_reduction_in_unit_range(layers in arb_layers(), tensors in arb_tensors()) {
        let cfg = DecompositionConfig::uniform(&layers, &tensors, 1);
        let red = param_reduction_pct(&llama2_7b(), &cfg);
        prop_assert!((0.0..=100.0).contains(&red));
    }

    #[test]
    fn reduction_monotone_in_layer_count(tensors in arb_tensors(), rank in 1usize..64) {
        let desc = llama2_7b();
        let mut prev = 0.0f64;
        for n in 1..=4usize {
            let layers: Vec<usize> = (0..n).collect();
            let cfg = DecompositionConfig::uniform(&layers, &tensors, rank);
            let red = param_reduction_pct(&desc, &cfg);
            prop_assert!(red >= prev - 1e-9, "adding a layer must not reduce savings");
            prev = red;
        }
    }

    #[test]
    fn reduction_antitone_in_rank(layers in arb_layers(), tensors in arb_tensors()) {
        let desc = llama2_7b();
        let r1 = param_reduction_pct(&desc, &DecompositionConfig::uniform(&layers, &tensors, 1));
        let r64 = param_reduction_pct(&desc, &DecompositionConfig::uniform(&layers, &tensors, 64));
        prop_assert!(r1 >= r64);
    }

    #[test]
    fn compression_ratio_vs_break_even(h in 4usize..512, w in 4usize..512) {
        let be = break_even_rank(h, w);
        let below = (be * 0.5).max(1.0) as usize;
        prop_assert!(tensor_compression_ratio(h, w, below) > 1.0);
        let above = (be * 1.5) as usize;
        if above <= h.min(w) {
            prop_assert!(tensor_compression_ratio(h, w, above) < 1.0);
        }
    }

    #[test]
    fn decomposed_params_consistent_with_reduction(layers in arb_layers(), rank in 1usize..8) {
        let desc = llama2_7b();
        let tensors: Vec<usize> = (0..7).collect();
        let cfg = DecompositionConfig::uniform(&layers, &tensors, rank);
        let params = decomposed_params(&desc, &cfg) as f64;
        let red = param_reduction_pct(&desc, &cfg);
        let recomputed = 100.0 * (desc.total_params() as f64 - params) / desc.total_params() as f64;
        prop_assert!((red - recomputed).abs() < 1e-9);
    }

    #[test]
    fn spread_layers_distinct_and_in_range(n in 2usize..64, count in 1usize..10) {
        prop_assume!(count <= n);
        let l = spread_layers(n, count);
        prop_assert_eq!(l.len(), count);
        let set: BTreeSet<_> = l.iter().collect();
        prop_assert_eq!(set.len(), count, "duplicates in {:?}", l);
        prop_assert!(l.iter().all(|&x| x < n));
    }

    #[test]
    fn strided_layers_respect_bounds(start in 0usize..8, stride in 1usize..8, count in 1usize..8) {
        let l = strided_layers(32, start, stride, count);
        prop_assert!(l.iter().all(|&x| x < 32));
        for w in l.windows(2) {
            prop_assert_eq!(w[1] - w[0], stride);
        }
    }

    /// The split never oversubscribes: `workers × eval_threads` stays
    /// within the explicit thread budget, no matter how many workers the
    /// caller asks for (the oversubscription regression was
    /// `worker_budget(2, 8, _)` handing out 8×1 threads on a budget of 2).
    #[test]
    fn worker_budget_never_oversubscribes(
        budget in 0usize..=64,
        requested in 0usize..=64,
        n_jobs in 0usize..=128,
    ) {
        let b = worker_budget(budget, requested, n_jobs);
        prop_assert!(b.workers >= 1);
        prop_assert!(b.eval_threads >= 1);
        let effective = if budget == 0 {
            std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
        } else {
            budget
        };
        prop_assert!(
            b.workers * b.eval_threads <= effective.max(1),
            "workers {} × eval_threads {} exceeds budget {}",
            b.workers,
            b.eval_threads,
            effective,
        );
        // A pool larger than the job list is pure overhead.
        prop_assert!(b.workers <= n_jobs.max(1));
    }
}

fn probe_model() -> TransformerLm {
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
    TransformerLm::new(cfg, &mut Rng64::new(77))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The memoized decomposition path must be bit-identical to the
    /// uncached one — both for cold lookups (first use of a key) and warm
    /// lookups (the second application replays cached factor pairs).
    #[test]
    fn cached_decomposition_is_bit_identical(
        layers in proptest::collection::btree_set(0usize..4, 1..4),
        tensors in proptest::collection::btree_set(0usize..7, 1..4),
        rank in 1usize..8,
    ) {
        let base = probe_model();
        let layers: Vec<usize> = layers.into_iter().collect();
        let tensors: Vec<usize> = tensors.into_iter().collect();
        let gamma = DecompositionConfig::uniform(&layers, &tensors, rank);

        let mut plain = base.clone();
        let plain_report = decompose_model(&mut plain, &gamma).expect("uncached applies");

        let cache = DecompositionCache::new();
        for pass in 0..2 {
            let mut cached = base.clone();
            let cached_report =
                decompose_model_cached(&mut cached, &gamma, &cache).expect("cached applies");
            prop_assert_eq!(&plain, &cached, "models diverge on pass {}", pass);
            prop_assert_eq!(&plain_report, &cached_report);
        }
        let stats = cache.stats();
        prop_assert!(stats.hits > 0, "second pass must hit the cache");
        prop_assert_eq!(stats.misses, cache.len());
    }
}

/// Study results must not depend on the worker-pool size: any pool must
/// reproduce the sequential (1-worker) sweep bit for bit.
#[test]
fn study_results_independent_of_worker_pool_size() {
    let base = probe_model();
    let world = World::new(1);
    let benches: Vec<DynBenchmark> = vec![Box::new(ArcEasy), Box::new(WinoGrande)];
    let opts = EvalOptions {
        n_samples: 16,
        seed: 3,
        batch_size: 8,
        threads: 4,
    };
    let reference = StudyExecutor::new(&base, &world, &opts)
        .with_workers(1)
        .rank_sweep(&benches, &[1, 2], &[("lo", vec![0, 1]), ("hi", vec![2, 3])]);
    for workers in [2usize, 3, 8] {
        let got = StudyExecutor::new(&base, &world, &opts)
            .with_workers(workers)
            .rank_sweep(&benches, &[1, 2], &[("lo", vec![0, 1]), ("hi", vec![2, 3])]);
        assert_eq!(
            reference, got,
            "{workers}-worker sweep diverged from sequential"
        );
    }
}

/// A decomposition failure on one sweep point must not kill the sweep:
/// the bad point comes back labelled with its error, every other point
/// still carries results, and the failure counter ticks.
#[test]
fn sweep_survives_injected_decomposition_failure() {
    let base = probe_model();
    let world = World::new(1);
    let benches: Vec<DynBenchmark> = vec![Box::new(ArcEasy)];
    let opts = EvalOptions {
        n_samples: 8,
        seed: 3,
        batch_size: 8,
        threads: 2,
    };
    let layers = vec![0usize, 1];
    let tensors = vec![0usize, 1];
    // Rank 9999 exceeds every dimension of the 16-wide probe model, so the
    // middle point's decomposition returns InvalidRank.
    let specs: Vec<StudySpec> = vec![
        (
            "ok-lo".into(),
            DecompositionConfig::uniform(&layers, &tensors, 2),
        ),
        (
            "poisoned".into(),
            DecompositionConfig::uniform(&layers, &tensors, 9999),
        ),
        (
            "ok-hi".into(),
            DecompositionConfig::uniform(&layers, &tensors, 4),
        ),
    ];
    let failed_before = lrd_trace::counters::get(lrd_trace::Counter::SweepPointsFailed);
    let exec = StudyExecutor::new(&base, &world, &opts).with_workers(2);
    let points = exec.run(&benches, specs);

    assert_eq!(points.len(), 3, "failure must not drop sweep points");
    assert_eq!(points[0].label, "ok-lo");
    assert!(!points[0].is_failed());
    assert!(!points[0].results.is_empty());
    assert!(
        points[1].is_failed(),
        "invalid rank must mark the point failed"
    );
    assert!(points[1].results.is_empty());
    let err = points[1]
        .error
        .as_deref()
        .expect("failed point carries its error");
    assert!(!err.is_empty());
    assert!(!points[2].is_failed());
    assert!(!points[2].results.is_empty());
    if lrd_trace::enabled() {
        let failed_after = lrd_trace::counters::get(lrd_trace::Counter::SweepPointsFailed);
        assert!(failed_after > failed_before);
    }
}

/// One journal record per generated `(figure, fingerprint, payload)`
/// triple. Duplicate keys are likely by construction (tiny domains), which
/// is exactly what exercises latest-wins.
fn journal_record(figure_idx: u32, fingerprint: u64, reduction: u32) -> JournalRecord {
    let point = lrd_core::study::StudyPoint {
        label: format!("p{fingerprint}"),
        rank: 1,
        layers: vec![0],
        tensors: vec![0],
        param_reduction_pct: f64::from(reduction),
        results: vec![(
            "ARC Easy",
            lrd_eval::Accuracy {
                correct: 1,
                total: 2,
            },
        )],
        error: None,
        retries: 0,
    };
    JournalRecord::from_point(&format!("fig{figure_idx}"), fingerprint, &point)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The `(figure, fingerprint)` lookup index must agree with a linear
    /// reverse scan of the append order (the pre-index resume semantics),
    /// both for the in-memory journal and after a round trip through disk.
    #[test]
    fn journal_lookup_index_matches_linear_scan(
        entries in proptest::collection::vec((0u32..3, 0u64..6, 0u32..100), 1..24),
    ) {
        let path = std::env::temp_dir().join(format!(
            "lrd-prop-index-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path).expect("create");
        for &(figure_idx, fingerprint, reduction) in &entries {
            journal
                .append(journal_record(figure_idx, fingerprint, reduction))
                .expect("append");
        }
        let reloaded = Journal::resume(&path).expect("resume");
        prop_assert_eq!(reloaded.dropped_lines(), 0);
        for journal in [&journal, &reloaded] {
            let records = journal.records();
            prop_assert_eq!(records.len(), entries.len());
            for figure_idx in 0u32..3 {
                let figure = format!("fig{figure_idx}");
                for fingerprint in 0u64..6 {
                    let scanned = records
                        .iter()
                        .rev()
                        .find(|r| r.figure == figure && r.fingerprint == fingerprint);
                    let indexed = journal.lookup(&figure, fingerprint);
                    prop_assert_eq!(
                        indexed.as_ref(),
                        scanned,
                        "index diverged from reverse scan at ({}, {})",
                        figure,
                        fingerprint,
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Every fingerprint is owned by exactly one shard of any `n`-way
    /// split: the partition is disjoint and covering by construction.
    #[test]
    fn shard_partition_assigns_each_fingerprint_exactly_once(
        fingerprint in proptest::prelude::any::<u64>(),
        count in 1u64..12,
    ) {
        let owners = (0..count)
            .filter(|&i| Shard::new(i, count).expect("valid shard").owns(fingerprint))
            .count();
        prop_assert_eq!(owners, 1);
    }
}

#[test]
fn random_configs_apply_cleanly_to_live_model() {
    // Fuzz the decomposer against a live model with random configurations.
    let cfg = TransformerConfig {
        kind: ArchKind::Decoder,
        vocab_size: 64,
        d_model: 16,
        n_layers: 4,
        n_heads: 2,
        n_kv_heads: 2,
        d_ff: 32,
        max_seq: 32,
    };
    let base = TransformerLm::new(cfg, &mut Rng64::new(77));
    let mut rng = Rng64::new(99);
    for _ in 0..25 {
        let n_l = 1 + rng.below(4);
        let layers: BTreeSet<usize> = (0..n_l).map(|_| rng.below(4)).collect();
        let n_t = 1 + rng.below(7);
        let tensors: BTreeSet<usize> = (0..n_t).map(|_| rng.below(7)).collect();
        let rank = 1 + rng.below(16);
        let layers: Vec<usize> = layers.into_iter().collect();
        let tensors: Vec<usize> = tensors.into_iter().collect();
        let gamma = DecompositionConfig::uniform(&layers, &tensors, rank);
        let mut m = base.clone();
        let report = decompose_model(&mut m, &gamma).expect("valid config applies");
        assert!(report.params_after <= report.params_before + 17 * 17 * 7 * 4);
        // Model still runs.
        let logits = m.logits(&[1, 2, 3], 1);
        assert!(logits.data().iter().all(|x| x.is_finite()));
    }
}

/// Pieces the byte-parser fuzzers splice into their inputs: the parsers'
/// own vocabulary (digits, separators, `inf`/`nan`, fault kinds, JSON
/// punctuation and journal keys) and multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "3.5",
    "-1",
    "1e400",
    "-0",
    "18446744073709551616",
    "/",
    ":",
    ",",
    " ",
    "\t",
    "inf",
    "-inf",
    "nan",
    "NaN",
    "svd",
    "panic",
    "nan-logits",
    "decode-panic",
    "slow-step",
    "seed",
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    "\\u00",
    "\\ud800",
    "null",
    "true",
    "lrd-journal",
    "\"schema\":\"lrd-journal\"",
    "\"schema_version\":1",
    "\"status\":\"ok\"",
    "\"fingerprint\":\"00ff\"",
    "\"results\":[[\"a\",1,2]]",
    "é",
    "€",
    "𝄞",
    "\u{0}",
    "\n",
];

/// Strings of up to 24 pieces, each a [`FRAGMENTS`] entry or (as often)
/// an arbitrary character.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..2 * FRAGMENTS.len(), any::<u32>()), 0..24).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(i, c)| match FRAGMENTS.get(i) {
                Some(f) => (*f).to_string(),
                None => char::from_u32(c % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
            })
            .collect()
    })
}

/// Counts a JSON number carries exactly: `0..=2⁵³`.
fn arb_count() -> impl Strategy<Value = u64> {
    0u64..=1 << 53
}

/// Any record `to_line` can write: arbitrary strings, exact counts, a
/// finite reduction.
fn arb_record() -> impl Strategy<Value = JournalRecord> {
    (
        (arb_text(), arb_text(), any::<bool>(), arb_text()),
        (any::<u64>(), arb_count(), any::<u64>(), any::<u32>()),
        (
            proptest::collection::vec(arb_count(), 0..6),
            proptest::collection::vec(arb_count(), 0..6),
        ),
        proptest::collection::vec((arb_text(), arb_count(), arb_count()), 0..4),
    )
        .prop_map(
            |(
                (figure, label, failed, error),
                (fingerprint, rank, pct, retries),
                (layers, tensors),
                results,
            )| {
                let pct = f64::from_bits(pct);
                JournalRecord {
                    figure,
                    fingerprint,
                    label,
                    rank: rank as usize,
                    layers: layers.into_iter().map(|x| x as usize).collect(),
                    tensors: tensors.into_iter().map(|x| x as usize).collect(),
                    param_reduction_pct: if pct.is_finite() { pct } else { 0.0 },
                    results,
                    error: failed.then_some(error),
                    retries,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_plan_parse_never_panics(text in arb_text()) {
        // Ok or Err, never a panic; an accepted plan has rates in [0, 1].
        if let Ok(plan) = FaultPlan::parse(&text) {
            for rate in [plan.svd, plan.panic, plan.nan, plan.nan_logits, plan.decode_panic, plan.slow_step] {
                prop_assert!((0.0..=1.0).contains(&rate), "{text:?} gave rate {rate}");
            }
        }
    }

    #[test]
    fn shard_parse_never_panics_and_renders_back(text in arb_text()) {
        if let Ok(shard) = Shard::parse(&text) {
            prop_assert!(shard.index() < shard.count(), "{text:?}");
            prop_assert_eq!(Shard::parse(&shard.to_string()), Ok(shard));
        }
    }

    #[test]
    fn journal_parse_line_never_panics(text in arb_text(), record in arb_record(), cut in any::<usize>()) {
        let _ = JournalRecord::parse_line(&text);
        // A torn or spliced line: a valid one cut at any character, with
        // arbitrary text appended.
        let line = record.to_line();
        let at = line.char_indices().map(|(i, _)| i).nth(cut % line.chars().count()).unwrap_or(0);
        let _ = JournalRecord::parse_line(&line[..at]);
        let _ = JournalRecord::parse_line(&format!("{}{text}", &line[..at]));
    }

    #[test]
    fn journal_lines_round_trip(record in arb_record()) {
        prop_assert_eq!(JournalRecord::parse_line(&record.to_line()), Ok(record));
    }
}
