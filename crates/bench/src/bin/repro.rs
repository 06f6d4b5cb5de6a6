//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro <command> [--fast] [--samples N] [--steps N] [--workers N] [--no-cache]
//!                 [--sessions N] [--max-batch N] [--metrics PATH] [--journal PATH]
//!                 [--resume] [--faults SPEC] [--retries N] [--deadline-s SECS]
//!                 [--shard I/N]
//! repro journal-merge <out> <in...>
//!
//! commands:
//!   train      (re)train the tiny-Llama baseline and print its benchmark scores
//!   table1     model size / MACs / compute-to-size ratio (ResNet50, BERT, Llama2-7B)
//!   table2     design-space sizes (Theorem 3.2)
//!   table4     decomposed-layer presets and their parameter reductions
//!   fig3       accuracy vs pruned rank
//!   fig5       accuracy vs decomposed-tensor choice
//!   fig6       one-tensor-many-layers vs all-tensors-few-layers
//!   fig7       per-layer sensitivity
//!   fig8       decomposed-layer distance
//!   fig9       accuracy vs parameter reduction (case study)
//!   fig10      speedup vs parameter reduction (simulated 4×A100)
//!   fig11      energy vs parameter reduction
//!   fig12      memory vs parameter reduction
//!   bert       BERT-side per-tensor sensitivity (Figs. 5/6 BERT panels)
//!   baselines  low-rank vs quantization vs pruning ablation
//!   optimize   Definition 1 design-goal search over the layer space
//!   recovery   §6 fine-tuning recovery experiment
//!   serve      continuous-batching load test: dense vs factored under one
//!              deterministic traffic trace (--sessions, default 200;
//!              --max-batch, default 32); with serve-side --faults kinds
//!              it becomes the chaos test: injected faults are
//!              quarantined per session, overload is shed, and the
//!              healthy streams must stay bit-identical
//!   all        everything above
//!   journal-merge <out> <in...>
//!              combine shard journals into one whose resumed table is
//!              bit-identical to an unsharded run (exit 1 on conflicting
//!              payloads for the same point)
//!
//! robustness flags:
//!   --journal PATH    append every settled sweep point to a durable JSONL
//!                     checkpoint (schema lrd-journal v1)
//!   --resume          with --journal: restore journaled points instead of
//!                     recomputing them (bit-identical to an uninterrupted run)
//!   --faults SPEC     deterministic fault injection, e.g. svd:0.05,panic:0.01,
//!                     nan:0.02,seed:42 (also readable from LRD_FAULTS /
//!                     LRD_FAULTS_SEED); the serve command reads the
//!                     serve-plane kinds nan-logits / decode-panic /
//!                     slow-step from the same spec; a run with any fault
//!                     kind active writes BENCH_suite.chaos.json, never
//!                     the fault-free BENCH_suite.json, and a serve run
//!                     with a serve-plane kind writes serve.chaos.csv,
//!                     never the fault-free serve.csv
//!   --retries N       per-point retry budget for transient failures (default 2)
//!   --deadline-s S    per-point soft deadline; overrunning points settle as
//!                     timed out (default off)
//!   --shard I/N       compute only the sweep points shard I of N owns
//!                     (fingerprint % N == I); figure commands only. Pair
//!                     with --journal, run every shard, then journal-merge
//!                     and --resume for the full table (DESIGN.md §14)
//! ```

use lrd_bench::{pretrained_tiny_llama, render_table, write_csv, PretrainOptions, WORLD_SEED};
use lrd_core::executor::CacheStats;
use lrd_core::faults::{FaultPlan, FAULTS_ENV, FAULTS_SEED_ENV};
use lrd_core::journal::{Journal, Shard};
use lrd_core::recovery::{recover, RecoveryOptions};
use lrd_core::select::{middle_spread_layers, preset_config, table4_presets};
use lrd_core::space::{table2, DecompositionConfig};
use lrd_core::study::{self, efficiency_sweep, DynBenchmark, StudyExecutor, StudyPoint};
use lrd_eval::harness::{evaluate_all, EvalOptions};
use lrd_eval::tasks;
use lrd_eval::World;
use lrd_hwsim::device::SystemSpec;
use lrd_models::descriptor::{DType, ModelDescriptor};
use lrd_models::zoo::{llama2_7b, table1_models};
use lrd_nn::TransformerLm;

/// Parsed command-line options.
struct Args {
    command: String,
    samples: usize,
    steps: usize,
    seq: usize,
    batch_per_gpu: usize,
    /// Sweep worker-pool size (0 = derive from the thread budget).
    workers: usize,
    /// Serving sessions in the `serve` command's traffic trace.
    sessions: usize,
    /// Maximum in-flight sessions per decode batch (`serve` command).
    max_batch: usize,
    /// Disables the decomposition cache (A/B the sequential seed path).
    no_cache: bool,
    /// Where to write the full telemetry document (spans, counters, GEMM
    /// matrix), if requested.
    metrics: Option<std::path::PathBuf>,
    /// Durable JSONL journal of settled sweep points, if requested.
    journal: Option<std::path::PathBuf>,
    /// Restore journaled points instead of recomputing them.
    resume: bool,
    /// Deterministic fault-injection plan (no-fault by default).
    faults: FaultPlan,
    /// Per-point retry budget for transient failures.
    retries: u32,
    /// Per-point soft deadline.
    deadline: Option<std::time::Duration>,
    /// Restrict sweeps to the points this shard owns.
    shard: Option<Shard>,
    /// Positional arguments after the command (`journal-merge` only).
    positionals: Vec<String>,
}

/// Commands whose sweeps may be sharded: their point lists are pure
/// functions of the spec fingerprints, so `--shard` partitions them
/// cleanly. The other commands either have no sweep or feed sweep output
/// into downstream computation (optimize's sensitivity vector, recovery's
/// reference point, baselines' comparison rows) where a partial set would
/// silently corrupt the result.
const SHARDABLE_COMMANDS: [&str; 7] = ["fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "bert"];

/// Takes the value following `flag`, exiting with an error if it is absent.
fn flag_value<'v>(argv: &'v [String], i: usize, flag: &str) -> &'v str {
    argv.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

/// Strictly parses a flag's value: a malformed value is an error naming
/// the flag and the offending text, never a silent fall-back to the
/// default.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {value:?}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::new();
    let mut samples = 200usize;
    let mut steps = 2500usize;
    let mut workers = 0usize;
    let mut sessions = 200usize;
    let mut max_batch = 32usize;
    let mut no_cache = false;
    let mut metrics = None;
    let mut fast = false;
    let mut journal = None;
    let mut resume = false;
    let mut faults_spec: Option<String> = None;
    let mut retries = 2u32;
    let mut deadline = None;
    let mut shard = None;
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fast" => fast = true,
            "--samples" => {
                i += 1;
                samples = parse_value("--samples", flag_value(&argv, i, "--samples"));
            }
            "--steps" => {
                i += 1;
                steps = parse_value("--steps", flag_value(&argv, i, "--steps"));
            }
            "--workers" => {
                i += 1;
                workers = parse_value("--workers", flag_value(&argv, i, "--workers"));
            }
            "--sessions" => {
                i += 1;
                sessions = parse_value("--sessions", flag_value(&argv, i, "--sessions"));
                if sessions == 0 {
                    eprintln!("invalid value for --sessions: \"0\" (must be ≥ 1)");
                    std::process::exit(2);
                }
            }
            "--max-batch" => {
                i += 1;
                max_batch = parse_value("--max-batch", flag_value(&argv, i, "--max-batch"));
                if max_batch == 0 {
                    eprintln!("invalid value for --max-batch: \"0\" (must be ≥ 1)");
                    std::process::exit(2);
                }
            }
            "--no-cache" => no_cache = true,
            "--metrics" => {
                i += 1;
                metrics = Some(std::path::PathBuf::from(flag_value(&argv, i, "--metrics")));
            }
            "--journal" => {
                i += 1;
                journal = Some(std::path::PathBuf::from(flag_value(&argv, i, "--journal")));
            }
            "--resume" => resume = true,
            "--faults" => {
                i += 1;
                faults_spec = Some(flag_value(&argv, i, "--faults").to_string());
            }
            "--retries" => {
                i += 1;
                retries = parse_value("--retries", flag_value(&argv, i, "--retries"));
            }
            "--deadline-s" => {
                i += 1;
                let value = flag_value(&argv, i, "--deadline-s");
                let secs: f64 = parse_value("--deadline-s", value);
                match std::time::Duration::try_from_secs_f64(secs) {
                    Ok(d) if secs > 0.0 => deadline = Some(d),
                    _ => {
                        eprintln!(
                            "invalid value for --deadline-s: {value:?} (must be positive and below 1.8e19 seconds)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--shard" => {
                i += 1;
                let value = flag_value(&argv, i, "--shard");
                shard = Some(Shard::parse(value).unwrap_or_else(|e| {
                    eprintln!("invalid value for --shard: {value:?}: {e}");
                    std::process::exit(2);
                }));
            }
            c if command.is_empty() && !c.starts_with('-') => command = c.to_string(),
            p if !p.starts_with('-') && command == "journal-merge" => {
                positionals.push(p.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if command == "journal-merge" && positionals.len() < 2 {
        eprintln!("journal-merge requires an output path and at least one input journal: repro journal-merge <out> <in...>");
        std::process::exit(2);
    }
    if resume && journal.is_none() {
        eprintln!("--resume requires --journal <path>");
        std::process::exit(2);
    }
    // Resolve the fault plan up front so a typo'd spec aborts the run
    // instead of silently disabling (or mis-shaping) the chaos test.
    let faults = match &faults_spec {
        Some(spec) => {
            let mut plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("invalid value for --faults: {e}");
                std::process::exit(2);
            });
            if let Ok(seed) = std::env::var(FAULTS_SEED_ENV) {
                plan.seed = parse_value(FAULTS_SEED_ENV, &seed);
            }
            plan
        }
        None => FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("invalid {FAULTS_ENV}: {e}");
            std::process::exit(2);
        }),
    };
    if fast {
        samples = samples.min(80);
        steps = steps.min(600);
    }
    if command.is_empty() {
        command = "all".into();
    }
    if shard.is_some() && !SHARDABLE_COMMANDS.contains(&command.as_str()) {
        eprintln!(
            "--shard applies only to figure sweeps ({}), not {command:?}",
            SHARDABLE_COMMANDS.join(", ")
        );
        std::process::exit(2);
    }
    if shard.is_some() && journal.is_none() {
        eprintln!("[repro] warning: --shard without --journal: this shard's results cannot be merged later");
    }
    Args {
        command,
        samples,
        steps,
        seq: 128,
        batch_per_gpu: 64,
        workers,
        sessions,
        max_batch,
        no_cache,
        metrics,
        journal,
        resume,
        faults,
        retries,
        deadline,
        shard,
        positionals,
    }
}

fn eval_opts(args: &Args) -> EvalOptions {
    EvalOptions {
        n_samples: args.samples,
        seed: 1234,
        batch_size: 64,
        threads: 0,
    }
}

/// The six multiple-choice benchmarks (the paper's characterization set).
fn mc_benches() -> Vec<DynBenchmark> {
    vec![
        Box::new(tasks::ArcEasy),
        Box::new(tasks::ArcChallenge),
        Box::new(tasks::HellaSwag),
        Box::new(tasks::Mmlu),
        Box::new(tasks::TruthfulQa),
        Box::new(tasks::WinoGrande),
    ]
}

/// All seven benchmarks (case study, Fig. 9).
fn all_benches() -> Vec<DynBenchmark> {
    let mut b = mc_benches();
    b.push(Box::new(tasks::Gsm8k));
    b
}

fn bench_names(benches: &[DynBenchmark]) -> Vec<&'static str> {
    benches.iter().map(|b| b.name()).collect()
}

/// Set when a printed figure had *every* point fail; drives the process
/// exit code (individual failed points are reported but non-fatal).
static FIGURE_ALL_FAILED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The run's shard, if `--shard` was given — lets table rendering flag
/// partial output on stderr without touching the stdout/CSV bytes (which
/// must stay identical between an unsharded run and a merged resume).
static ACTIVE_SHARD: std::sync::OnceLock<Shard> = std::sync::OnceLock::new();

/// Prints a study as a table with one row per configuration and one column
/// per benchmark; returns the rows for CSV reuse. Failed points render as
/// `FAILED` rows (with the error echoed below the table) and count toward
/// the all-points-failed exit condition.
fn print_study(title: &str, csv: &str, points: &[StudyPoint], benches: &[DynBenchmark]) {
    println!("\n=== {title} ===");
    let mut headers: Vec<&str> = vec!["config", "param-red %"];
    let names = bench_names(benches);
    headers.extend(names.iter().copied());
    headers.push("mean");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![p.label.clone()];
            row.push(if p.is_failed() {
                "-".into()
            } else {
                format!("{:.1}", p.param_reduction_pct)
            });
            for n in &names {
                row.push(
                    p.accuracy_of(n)
                        .map(|a| format!("{a:.1}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            row.push(if p.is_failed() {
                "FAILED".into()
            } else {
                format!("{:.1}", p.mean_accuracy())
            });
            row
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    for p in points.iter().filter(|p| p.is_failed()) {
        eprintln!(
            "[repro] warning: point \"{}\" failed: {}",
            p.label,
            p.error.as_deref().unwrap_or("unknown error")
        );
    }
    if !points.is_empty() && points.iter().all(lrd_core::study::StudyPoint::is_failed) {
        eprintln!("[repro] error: every point of \"{title}\" failed");
        FIGURE_ALL_FAILED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if let Some(shard) = ACTIVE_SHARD.get() {
        eprintln!(
            "[repro] shard {shard}: \"{title}\" rendered {} owned/journaled point(s) (partial table)",
            points.len()
        );
    }
    let path = write_csv(csv, &headers, &rows);
    println!("[csv] {}", path.display());
}

/// The baseline (undecomposed) row of a figure, via the executor's
/// journal-and-shard path. Unlike [`StudyExecutor::baseline`] this yields
/// *no* row — rather than fabricating a FAILED one — when a shard does
/// not own the baseline point, so sharded tables stay clean partial views.
fn baseline_row(exec: &StudyExecutor, benches: &[DynBenchmark]) -> Vec<StudyPoint> {
    exec.run(
        benches,
        vec![("original".into(), DecompositionConfig::original())],
    )
}

fn cmd_table1() {
    println!("\n=== Table 1: model size, computations, compute-to-model-size ratio ===");
    let rows: Vec<Vec<String>> = table1_models()
        .iter()
        .map(|m| {
            let size = m.size_bytes(DType::F16);
            let macs = m.table1_macs();
            let ratio = macs as f64 / size as f64;
            let size_str = if size > 1_000_000_000 {
                format!("{:.1} GB", size as f64 / 1e9)
            } else {
                format!("{:.1} MB", size as f64 / 1e6)
            };
            let kind = match m {
                ModelDescriptor::Cnn(_) => "Computer Vision",
                ModelDescriptor::Transformer(t) if t.n_layers >= 32 => "Large Language Model",
                ModelDescriptor::Transformer(_) => "Language Model",
            };
            vec![
                m.name().to_string(),
                kind.to_string(),
                size_str,
                format!("{:.2} B", macs as f64 / 1e9),
                format!("{ratio:.1}"),
            ]
        })
        .collect();
    let headers = ["Model", "Type", "Size (FP16)", "MACs", "MACs/byte"];
    print!("{}", render_table(&headers, &rows));
    println!(
        "(paper reports ResNet50 at 8.21 B computations = 2 FLOPs/MAC; \
         see EXPERIMENTS.md)"
    );
    write_csv("table1.csv", &headers, &rows);
}

fn cmd_table2() {
    println!("\n=== Table 2: decomposition design-space sizes (Theorem 3.2) ===");
    let rows: Vec<Vec<String>> = table2()
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.n_layers.to_string(),
                r.n_tensors.to_string(),
                r.scale.to_string(),
                format!("{:.3e}", r.scale.exact as f64),
            ]
        })
        .collect();
    let headers = ["Model", "# layers", "# tensors", "Scale", "Exact size"];
    print!("{}", render_table(&headers, &rows));
    write_csv("table2.csv", &headers, &rows);
}

fn cmd_table4() {
    println!("\n=== Table 4: decomposed-layer presets (Llama2-7B, rank 1, all tensors) ===");
    let desc = llama2_7b();
    let rows: Vec<Vec<String>> = table4_presets()
        .into_iter()
        .map(|(label, published, layers)| {
            let cfg = preset_config(&layers);
            let computed = lrd_core::compression::param_reduction_pct(&desc, &cfg);
            let layers_1b: Vec<String> = layers.iter().map(|l| (l + 1).to_string()).collect();
            vec![
                label.to_string(),
                format!("{published:.0}%"),
                format!("{computed:.1}%"),
                layers_1b.join(" "),
            ]
        })
        .collect();
    let headers = ["Preset", "Published", "Computed", "Layers (1-based)"];
    print!("{}", render_table(&headers, &rows));
    write_csv("table4.csv", &headers, &rows);
}

fn load_model(args: &Args) -> (TransformerLm, World) {
    let opts = PretrainOptions {
        steps: args.steps,
        ..PretrainOptions::default()
    };
    pretrained_tiny_llama(&opts)
}

/// Builds the shared sweep executor for a loaded model. One executor (and
/// therefore one decomposition cache) serves every figure of a run, so
/// presets repeated across figures reuse their factor pairs. The executor
/// carries the run's robustness policy: fault plan, retry budget, soft
/// deadline, and (optionally) the durable journal.
fn executor<'a>(
    model: &'a TransformerLm,
    world: &'a World,
    args: &Args,
    journal: Option<&'a Journal>,
) -> StudyExecutor<'a> {
    let mut exec = StudyExecutor::new(model, world, &eval_opts(args))
        .with_workers(args.workers)
        .with_cache(!args.no_cache)
        .with_faults(args.faults)
        .with_retries(args.retries)
        .with_deadline(args.deadline)
        .with_shard(args.shard);
    if let Some(journal) = journal {
        exec = exec.with_journal(journal);
    }
    exec
}

/// Opens (or resumes) the durable journal if `--journal` was given.
fn open_journal(args: &Args) -> Option<Journal> {
    let path = args.journal.as_ref()?;
    let journal = if args.resume {
        Journal::resume(path)
    } else {
        Journal::create(path)
    }
    .unwrap_or_else(|e| {
        eprintln!("[repro] cannot open journal {}: {e}", path.display());
        std::process::exit(2);
    });
    if args.resume {
        eprintln!(
            "[repro] resuming from {}: {} settled point(s) loaded{}",
            path.display(),
            journal.len(),
            if journal.dropped_lines() > 0 {
                format!(", {} torn/foreign line(s) dropped", journal.dropped_lines())
            } else {
                String::new()
            }
        );
    }
    Some(journal)
}

fn cmd_train(args: &Args, exec: &StudyExecutor) {
    println!("\n=== Baseline tiny-Llama benchmark scores ===");
    let results = evaluate_all(exec.base(), exec.world(), &eval_opts(args));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(n, a)| {
            vec![
                n.to_string(),
                format!("{:.1}", a.percent()),
                format!("{}/{}", a.correct, a.total),
            ]
        })
        .collect();
    let headers = ["Benchmark", "Accuracy %", "Correct"];
    print!("{}", render_table(&headers, &rows));
    write_csv("baseline.csv", &headers, &rows);
}

fn cmd_fig3(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig3");
    let benches = mc_benches();
    // Paper ranks {500, 250, 1} out of 4096 ≈ {5, 2, 1} out of the tiny
    // model's 40.
    let presets = table4_presets();
    let layer_sets: Vec<(&str, Vec<usize>)> = vec![
        ("6%", presets[0].2.clone()),
        ("15%", presets[2].2.clone()),
        ("33%", presets[4].2.clone()),
    ];
    let mut points = baseline_row(exec, &benches);
    points.extend(exec.rank_sweep(&benches, &[5, 2, 1], &layer_sets));
    print_study(
        "Fig. 3: accuracy vs pruned rank",
        "fig3.csv",
        &points,
        &benches,
    );
}

fn cmd_fig5(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig5");
    let benches = mc_benches();
    let mut points = baseline_row(exec, &benches);
    points.extend(exec.tensor_choice(&benches));
    print_study(
        "Fig. 5: accuracy vs decomposed tensor choice",
        "fig5.csv",
        &points,
        &benches,
    );
}

fn cmd_fig6(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig6");
    let benches = mc_benches();
    let n_layers = exec.base().config().n_layers;
    // Case 1 (~8%): one attention tensor in all layers vs all tensors in 3
    // spread layers.
    // Spread the all-tensor layers through the middle of the stack (the
    // paper's own presets avoid the sensitive first/last layers).
    let case1 = exec.tensor_vs_layer(
        &benches,
        &[0, 1, 2, 3],
        &middle_spread_layers(n_layers, 3, 2, 1),
    );
    print_study(
        "Fig. 6a: matched ~8% parameter reduction",
        "fig6a.csv",
        &case1,
        &benches,
    );
    // Case 2 (~21%): one MLP tensor in all layers vs all tensors in 7
    // spread layers.
    let case2 = exec.tensor_vs_layer(
        &benches,
        &[4, 5, 6],
        &middle_spread_layers(n_layers, 7, 2, 1),
    );
    print_study(
        "Fig. 6b: matched ~21% parameter reduction",
        "fig6b.csv",
        &case2,
        &benches,
    );
}

fn cmd_fig7(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig7");
    let benches = mc_benches();
    let points = exec.layer_sensitivity(&benches);
    print_study(
        "Fig. 7: per-layer sensitivity",
        "fig7.csv",
        &points,
        &benches,
    );
    // Aggregate view (the paper plots the cross-benchmark aggregate).
    println!("aggregate accuracy by decomposed layer:");
    for p in &points {
        println!("  layer {:>2}: {:>5.1}%", p.layers[0], p.mean_accuracy());
    }
}

fn cmd_fig8(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig8");
    let benches = mc_benches();
    let points = exec.layer_distance(&benches, &[1, 2, 3, 6], 5, 4);
    print_study(
        "Fig. 8: distance between decomposed layers",
        "fig8.csv",
        &points,
        &benches,
    );
}

fn cmd_fig9(_args: &Args, exec: &StudyExecutor) {
    exec.set_figure("fig9");
    let benches = all_benches();
    let mut points = baseline_row(exec, &benches);
    points.extend(exec.case_study(&benches));
    print_study(
        "Fig. 9: accuracy vs parameter reduction (case study)",
        "fig9.csv",
        &points,
        &benches,
    );
}

fn cmd_efficiency(args: &Args, which: &str) {
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    let points = efficiency_sweep(&sys, &desc, args.batch_per_gpu, args.seq);
    println!(
        "\n=== Figs. 10–12: simulated efficiency on 4×A100 (batch/GPU {}, seq {}) ===",
        args.batch_per_gpu, args.seq
    );
    let headers = [
        "Preset",
        "param-red %",
        "wall s/batch",
        "speedup",
        "energy J/batch",
        "energy-save %",
        "mem GB/GPU",
        "mem-save %",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.1}", p.param_reduction_pct),
                format!("{:.4}", p.report.wall_time_s),
                format!("{:.3}", p.speedup),
                format!("{:.0}", p.report.energy_j),
                format!("{:.1}", p.energy_saving_pct),
                format!("{:.1}", p.report.memory.total() as f64 / 1e9),
                format!("{:.1}", p.memory_saving_pct),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    write_csv(&format!("{which}.csv"), &headers, &rows);
    // Per-percent slopes (the paper's headline ~0.5/0.5/0.4).
    if let Some(last) = points
        .iter()
        .find(|p| (p.param_reduction_pct - 9.0).abs() < 1.5)
    {
        let lat = 100.0 * (1.0 - 1.0 / last.speedup) / last.param_reduction_pct;
        let en = last.energy_saving_pct / last.param_reduction_pct;
        let mem = last.memory_saving_pct / last.param_reduction_pct;
        println!(
            "slopes at ~9% reduction: latency {lat:.2} %/%, energy {en:.2} %/%, memory {mem:.2} %/% \
             (paper: ≈0.5, 0.5, 0.4)"
        );
    }
}

/// BERT-side characterization (the BERT panels of Figs. 5/6): per-tensor
/// sensitivity of the MLM-trained encoder on the cloze probe. The paper's
/// observation to reproduce: `W_Int` is the most sensitive BERT tensor.
fn cmd_bert(args: &Args, journal: Option<&Journal>) -> (CacheStats, usize) {
    // The 12-layer encoder converges in roughly half the decoder's budget.
    let opts = PretrainOptions {
        steps: (args.steps / 2).max(300),
        ..PretrainOptions::default()
    };
    let (model, world) = lrd_bench::pretrained_tiny_bert(&opts);
    let benches: Vec<DynBenchmark> = vec![Box::new(tasks::BertCloze)];
    let exec = executor(&model, &world, args, journal);
    exec.set_figure("bert");
    let mut points = baseline_row(&exec, &benches);
    points.extend(exec.tensor_choice(&benches));
    print_study(
        "Fig. 5/6 (BERT): per-tensor sensitivity on the cloze probe",
        "bert_tensor_choice.csv",
        &points,
        &benches,
    );
    (exec.cache_stats(), exec.cached_factors())
}

/// Spectral analysis of the trained weights: why rank-1 works (Fig. 3's
/// explanation). Prints per-tensor-kind mean energy captured at small
/// ranks and the effective rank.
fn cmd_spectra(_args: &Args, exec: &StudyExecutor) {
    eprintln!("[spectra] computing SVDs of all decomposable tensors…");
    let spectra = lrd_core::spectra::weight_spectra(exec.base());
    let names = ["wq", "wk", "wv", "wo", "gate", "up", "down"];
    println!("\n=== Weight spectra of the trained tiny-Llama ===");
    let headers = [
        "Tensor",
        "E@rank1",
        "E@rank2",
        "E@rank5",
        "mean eff. rank",
        "max rank",
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|&n| {
            let group: Vec<_> = spectra.iter().filter(|s| s.tensor == n).collect();
            let eff = group.iter().map(|s| s.effective_rank()).sum::<f64>() / group.len() as f64;
            let maxr = group[0].singular_values.len();
            vec![
                n.to_string(),
                format!(
                    "{:.3}",
                    lrd_core::spectra::mean_energy_by_tensor(&spectra, n, 1)
                ),
                format!(
                    "{:.3}",
                    lrd_core::spectra::mean_energy_by_tensor(&spectra, n, 2)
                ),
                format!(
                    "{:.3}",
                    lrd_core::spectra::mean_energy_by_tensor(&spectra, n, 5)
                ),
                format!("{eff:.1}"),
                format!("{maxr}"),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    write_csv("spectra.csv", &headers, &rows);
}

/// Extension beyond the paper: decode-phase (single-token generation)
/// latency sweep, where weight streaming dominates and low-rank savings
/// approach the parameter reduction 1:1.
fn cmd_decode(args: &Args) {
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    let points = study::decode_sweep(&sys, &desc, args.batch_per_gpu, 512);
    println!(
        "\n=== Decode-phase sweep (batch {}, KV cache 512 tokens) ===",
        args.batch_per_gpu
    );
    let headers = [
        "Preset",
        "param-red %",
        "ms/token",
        "speedup",
        "latency-save %",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.1}", p.param_reduction_pct),
                format!("{:.3}", p.step_time_s * 1e3),
                format!("{:.2}", p.speedup),
                format!("{:.1}", 100.0 * (1.0 - 1.0 / p.speedup)),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    write_csv("decode.csv", &headers, &rows);
}

/// The live counterpart of Figs. 10–12: serves the trained tiny-Llama —
/// dense and factored at several Table-4 parameter-reduction points —
/// under one deterministic traffic trace, and reports measured per-token
/// latency percentiles, TTFT, aggregate tokens/s, and goodput for the
/// continuous-batching server against the sequential baseline. Returns
/// the `serve` section of `BENCH_suite.json` (schema v5).
///
/// With serve-plane fault kinds in `--faults` this becomes the chaos
/// test: graceful degradation (bounded admission, load shedding at a
/// queue high-water mark, virtual-time deadlines) is switched on, faulted
/// sessions settle with typed reasons, and the bit-identity verdict
/// changes shape — every stream the degraded batched server completes
/// must equal the sequential plane's, and any session the sequential
/// plane completes that the batched one does not must be accounted for by
/// a permanent shed (failures and timeouts are session-local, so those
/// sets agree across planes by construction).
fn cmd_serve(args: &Args) -> lrd_trace::json::Json {
    use lrd_serve::{
        generate, serve, serve_sequential, ServeConfig, SessionFate, TrafficConfig, STALL_STEPS,
    };
    use lrd_trace::json::Json;

    let (model, _world) = load_model(args);
    let mcfg = model.config();
    // Seed of the shared traffic trace; fixed so every variant (and
    // every rerun) replays the identical workload.
    const TRACE_SEED: u64 = 0x5E12_7E24;
    let traffic =
        TrafficConfig::for_model(args.sessions, TRACE_SEED, mcfg.vocab_size, mcfg.max_seq);
    let requests = generate(&traffic);
    let chaos = args.faults.serve_active();
    // The queue bound covers the whole offered trace: overload rejection
    // is an admission-control behavior pinned by lrd-serve's tests, while
    // the benchmark wants every variant to complete the same sessions.
    // Under chaos the degradation path must actually exercise: admission
    // is bounded so bursts build queue depth, shedding fires above a low
    // high-water mark, and sessions carry a virtual-time deadline sized
    // so no fault-free session can ever trip it (its clock is bounded by
    // max_seq) while two slow-step stalls always do.
    let serve_cfg = ServeConfig {
        max_batch: args.max_batch,
        queue_cap: args.sessions.max(1),
        faults: args.faults,
        deadline_steps: if chaos {
            (2 * STALL_STEPS).max(mcfg.max_seq as u64)
        } else {
            u64::MAX
        },
        shed_high_water: if chaos { 2 } else { usize::MAX },
        max_admit_per_step: if chaos { 2 } else { usize::MAX },
        readmit_delay_steps: STALL_STEPS,
    };
    println!(
        "\n=== Serving load test: {} sessions, max batch {}, trace seed {TRACE_SEED:#x}{} ===",
        args.sessions,
        serve_cfg.max_batch,
        if chaos { ", chaos faults ON" } else { "" }
    );

    // Dense plus factored variants spanning the Table-4 reduction range.
    let presets = table4_presets();
    let mut variants: Vec<(String, f64, TransformerLm)> =
        vec![("dense".into(), 0.0, model.clone())];
    for &idx in &[0usize, 2, 4, 5] {
        let (label, _, layers) = &presets[idx];
        let mut m = model.clone();
        match lrd_core::decompose::decompose_model(&mut m, &preset_config(layers)) {
            Ok(report) => variants.push((format!("factored {label}"), report.reduction_pct(), m)),
            Err(e) => eprintln!("[repro] serve: preset {label} failed to decompose: {e}"),
        }
    }

    let headers = [
        "config",
        "param-red %",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "TTFT p50 ms",
        "tok/s",
        "goodput tok/s",
        "failed",
        "shed",
        "timed-out",
        "seq tok/s",
        "speedup",
        "bit-identical",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_variants: Vec<Json> = Vec::new();
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    for (label, reduction, m) in &variants {
        let sequential = serve_sequential(m, &requests, &serve_cfg, label);
        let batched = serve(m, &requests, &serve_cfg, label);
        let speedup = if sequential.report.tokens_per_s > 0.0 {
            batched.report.tokens_per_s / sequential.report.tokens_per_s
        } else {
            0.0
        };
        // Fault-free: the batched server must reproduce the sequential
        // plane exactly. Under chaos the batched plane may additionally
        // shed sessions the (queueless) sequential plane completes, so
        // the verdict becomes: every batched completion is bit-identical
        // to its sequential counterpart, and every sequential completion
        // the batched plane lacks was permanently shed there — any other
        // difference is a real divergence.
        let bit_identical = if chaos {
            let seq_streams: std::collections::HashMap<usize, &Vec<usize>> = sequential
                .completions
                .iter()
                .map(|c| (c.id, &c.tokens))
                .collect();
            let bat_ids: std::collections::HashSet<usize> =
                batched.completions.iter().map(|c| c.id).collect();
            let shed_ids: std::collections::HashSet<usize> = batched
                .settled
                .iter()
                .filter(|s| s.fate == SessionFate::Shed)
                .map(|s| s.id)
                .collect();
            batched
                .completions
                .iter()
                .all(|c| seq_streams.get(&c.id) == Some(&&c.tokens))
                && sequential
                    .completions
                    .iter()
                    .all(|c| bat_ids.contains(&c.id) || shed_ids.contains(&c.id))
        } else {
            batched.report.completed == sequential.report.completed
                && batched.report.stream_checksum == sequential.report.stream_checksum
        };
        if !bit_identical {
            eprintln!(
                "[repro] error: \"{label}\" batched token streams diverged from sequential \
                 (checksum {:#x} vs {:#x})",
                batched.report.stream_checksum, sequential.report.stream_checksum
            );
            FIGURE_ALL_FAILED.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        let b = &batched.report;
        rows.push(vec![
            label.clone(),
            format!("{reduction:.1}"),
            format!("{:.3}", b.per_token_ms.p50),
            format!("{:.3}", b.per_token_ms.p95),
            format!("{:.3}", b.per_token_ms.p99),
            format!("{:.3}", b.ttft_ms.p50),
            format!("{:.0}", b.tokens_per_s),
            format!("{:.0}", b.goodput_tokens_per_s),
            format!("{}", b.failed),
            format!("{}", b.shed),
            format!("{}", b.timed_out),
            format!("{:.0}", sequential.report.tokens_per_s),
            format!("{speedup:.2}"),
            if bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
        json_variants.push(Json::obj([
            ("label", Json::str(label.clone())),
            ("reduction_pct", Json::num(round2(*reduction))),
            ("batched", b.to_json()),
            ("sequential", sequential.report.to_json()),
            ("speedup", Json::num(round2(speedup))),
            ("bit_identical", Json::Bool(bit_identical)),
        ]));
    }
    print!("{}", render_table(&headers, &rows));
    // Like the suite file: a chaos run never replaces the fault-free table.
    let csv = if chaos {
        "serve.chaos.csv"
    } else {
        "serve.csv"
    };
    write_csv(csv, &headers, &rows);
    Json::obj([
        ("sessions", Json::uint(args.sessions as u64)),
        ("trace_seed", Json::uint(TRACE_SEED)),
        ("max_batch", Json::uint(serve_cfg.max_batch as u64)),
        ("faults_active", Json::Bool(chaos)),
        ("deadline_steps", {
            // u64::MAX does not survive the f64-backed JSON number; encode
            // "off" as 0 (a real deadline is always ≥ 1).
            let d = if chaos { serve_cfg.deadline_steps } else { 0 };
            Json::uint(d)
        }),
        (
            "shed_high_water",
            Json::uint(if chaos {
                serve_cfg.shed_high_water as u64
            } else {
                0
            }),
        ),
        (
            "max_admit_per_step",
            Json::uint(if chaos {
                serve_cfg.max_admit_per_step as u64
            } else {
                0
            }),
        ),
        ("variants", Json::Arr(json_variants)),
    ])
}

/// Compression-family ablation: rank-1 Tucker vs int8/int4 quantization vs
/// magnitude pruning at comparable size reductions, on the same trained
/// model.
fn cmd_baselines(args: &Args, exec: &StudyExecutor) {
    exec.set_figure("baselines");
    let benches = mc_benches();
    let opts = eval_opts(args);
    let world = exec.world();
    let mean_acc = |m: &TransformerLm| -> f64 {
        let accs: Vec<f64> = benches
            .iter()
            .map(|b| lrd_eval::evaluate(m, b.as_ref(), world, &opts).percent())
            .collect();
        accs.iter().sum::<f64>() / accs.len() as f64
    };
    println!("\n=== Compression-family comparison (mean accuracy over 6 MC benchmarks) ===");
    let mut rows: Vec<Vec<String>> = Vec::new();
    rows.push(vec![
        "original (FP32/FP16)".into(),
        "0.0".into(),
        format!("{:.1}", mean_acc(exec.base())),
    ]);

    // Low-rank: Table 4 presets at 9% and 48%, via the cached executor.
    let presets = table4_presets();
    let tucker = exec.run(
        &benches,
        [1usize, 5]
            .iter()
            .map(|&idx| {
                let (label, _, layers) = &presets[idx];
                (
                    format!("Tucker rank-1 ({label} params)"),
                    preset_config(layers),
                )
            })
            .collect(),
    );
    for p in &tucker {
        rows.push(vec![
            p.label.clone(),
            format!("{:.1}", p.param_reduction_pct),
            format!("{:.1}", p.mean_accuracy()),
        ]);
    }
    // Quantization.
    for bits in [8u32, 4] {
        let mut m = exec.base().clone();
        let report = lrd_core::baselines::quantize_model(&mut m, bits);
        rows.push(vec![
            format!("int{bits} quantization"),
            format!("{:.1}", report.size_reduction_pct),
            format!("{:.1}", mean_acc(&m)),
        ]);
    }
    // Magnitude pruning.
    for sparsity in [0.25f64, 0.5] {
        let mut m = exec.base().clone();
        let report = lrd_core::baselines::prune_model(&mut m, sparsity);
        rows.push(vec![
            format!("magnitude pruning {:.0}%", sparsity * 100.0),
            format!("{:.1}", report.size_reduction_pct),
            format!("{:.1}", mean_acc(&m)),
        ]);
    }
    let headers = ["Method", "Size reduction %", "Mean accuracy %"];
    print!("{}", render_table(&headers, &rows));
    write_csv("baselines_comparison.csv", &headers, &rows);
}

/// Definition 1 end to end: measure Fig. 7 sensitivities, build the
/// additive predictor, and search the layer space for the minimum-EDP
/// configuration within an accuracy-drop tolerance τ.
fn cmd_optimize(args: &Args, exec: &StudyExecutor) {
    exec.set_figure("optimize");
    let benches = mc_benches();
    println!("\n=== Definition 1: design-goal optimization ===");
    let base = exec.baseline(&benches);
    eprintln!("[optimize] measuring per-layer sensitivities (Fig. 7 pass)…");
    let sens_points = exec.layer_sensitivity(&benches);
    let drops: Vec<f64> = sens_points
        .iter()
        .map(|p| (base.mean_accuracy() - p.mean_accuracy()).max(0.0))
        .collect();
    let sens = lrd_core::search::SensitivityModel::new(drops);
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    let headers = [
        "tau (%p)",
        "chosen layers",
        "param-red %",
        "pred. drop %p",
        "EDP (J·s)",
    ];
    let mut rows = Vec::new();
    for tau in [2.0f64, 5.0, 10.0, 20.0] {
        match lrd_core::search::greedy_search(&sys, &desc, &sens, tau, args.batch_per_gpu, args.seq)
        {
            Some(res) => rows.push(vec![
                format!("{tau}"),
                format!("{} layers", res.layers.len()),
                format!("{:.1}", res.param_reduction_pct),
                format!("{:.1}", res.predicted_drop),
                format!("{:.1}", res.edp),
            ]),
            None => rows.push(vec![
                format!("{tau}"),
                "infeasible".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    print!("{}", render_table(&headers, &rows));
    write_csv("optimize.csv", &headers, &rows);
}

fn cmd_recovery(args: &Args, exec: &StudyExecutor) {
    exec.set_figure("recovery");
    let benches = mc_benches();
    let opts = eval_opts(args);
    let world = exec.world();
    let presets = table4_presets();
    println!("\n=== §6: recovery fine-tuning (15% model recovered toward 9% accuracy) ===");
    let base = exec.baseline(&benches);
    // 9% reference. A failed reference point renders the figure as failed
    // instead of aborting the whole run.
    let nine = match exec
        .run(
            &benches,
            vec![("9% (no recovery)".into(), preset_config(&presets[1].2))],
        )
        .pop()
    {
        Some(p) if !p.is_failed() => p,
        Some(p) => {
            eprintln!(
                "[repro] recovery skipped: the \"9% (no recovery)\" reference point failed: {}",
                p.error.as_deref().unwrap_or("unknown error")
            );
            print_study(
                "§6: recovery fine-tuning (reference point failed)",
                "recovery.csv",
                &[p],
                &benches,
            );
            return;
        }
        None => {
            eprintln!(
                "[repro] recovery skipped: the \"9% (no recovery)\" reference point was not produced"
            );
            return;
        }
    };
    // 15% decomposed, before and after recovery.
    let (mut m15, _) = match exec.decompose_clone(&preset_config(&presets[2].2)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[repro] recovery skipped: 15% decomposition failed: {e}");
            return;
        }
    };
    let before: Vec<(&'static str, lrd_eval::Accuracy)> = benches
        .iter()
        .map(|b| (b.name(), lrd_eval::evaluate(&m15, b.as_ref(), world, &opts)))
        .collect();
    let steps = (args.steps / 4).max(100);
    let report = recover(
        &mut m15,
        world,
        &RecoveryOptions {
            steps,
            batch: 16,
            lr: 1e-3,
            seq_len: 48,
            corpus_seed: 0xF1E7,
        },
    );
    let after: Vec<(&'static str, lrd_eval::Accuracy)> = benches
        .iter()
        .map(|b| (b.name(), lrd_eval::evaluate(&m15, b.as_ref(), world, &opts)))
        .collect();
    let mean = |v: &[(&str, lrd_eval::Accuracy)]| {
        v.iter().map(|(_, a)| a.percent()).sum::<f64>() / v.len() as f64
    };
    let headers = ["Configuration", "Mean accuracy %"];
    let rows = vec![
        vec![
            "original".to_string(),
            format!("{:.1}", base.mean_accuracy()),
        ],
        vec![
            "9% (no recovery)".to_string(),
            format!("{:.1}", nine.mean_accuracy()),
        ],
        vec![
            "15% (no recovery)".to_string(),
            format!("{:.1}", mean(&before)),
        ],
        vec![
            format!("15% + recovery ({steps} steps)"),
            format!("{:.1}", mean(&after)),
        ],
    ];
    print!("{}", render_table(&headers, &rows));
    println!(
        "recovery training loss: {:.3} -> {:.3}",
        report.loss_before, report.loss_after
    );
    write_csv("recovery.csv", &headers, &rows);
}

/// Aggregated decomposition-cache counters across every executor a run
/// creates (the tiny-Llama executor plus BERT's).
#[derive(Default)]
struct CacheAgg {
    hits: usize,
    misses: usize,
    factors: usize,
}

impl CacheAgg {
    fn add(&mut self, (stats, factors): (CacheStats, usize)) {
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.factors += factors;
    }

    fn add_exec(&mut self, exec: &StudyExecutor) {
        self.add((exec.cache_stats(), exec.cached_factors()));
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Measures sustained GFLOP/s for each GEMM variant on representative
/// shapes (quick calibration pass, under a second total). Returns one
/// group per kernel storage dtype: the `f32` group covers every entry
/// point; the `bf16`/`f16` groups cover the plain product and the fused
/// factored pipeline at that panel dtype.
fn kernel_gflops() -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    use lrd_tensor::dtype::KernelDtype;
    use lrd_tensor::kernel::Backend;
    use lrd_tensor::matmul::{
        factored_matmul_with, gemm, matmul, matmul_transa, matmul_transb, FactoredPlan, Trans,
    };
    use lrd_tensor::rng::Rng64;
    use lrd_tensor::Tensor;

    fn time_flops(flops_per_iter: f64, mut f: impl FnMut()) -> f64 {
        f(); // warm-up (packing buffers, page faults)
        let mut iters = 0u32;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            f();
            iters += 1;
        }
        flops_per_iter * f64::from(iters) / t0.elapsed().as_secs_f64() / 1e9
    }

    let backend = Backend::active();
    let mut rng = Rng64::new(99);
    let n = 256usize;
    let a = Tensor::randn(&[n, n], &mut rng);
    let b = Tensor::randn(&[n, n], &mut rng);
    let flops = (2 * n * n * n) as f64;
    // The paper's factored-linear shape: 256×256 weight at rank 64,
    // a 128-token tile of activations.
    let (fm, fr) = (128usize, 64usize);
    let fx = Tensor::randn(&[fm, n], &mut rng);
    let fu1 = Tensor::randn(&[n, fr], &mut rng);
    let fcore = Tensor::randn(&[fr, fr], &mut rng);
    let fu2 = Tensor::randn(&[fr, n], &mut rng);
    let fac_flops = (2 * fm * (n * fr + fr * fr + fr * n)) as f64;
    // Decode regime: an 8-token tile, where per-call factor packing and
    // intermediate tensors dominate the unfused composition.
    let dm = 8usize;
    let dx = Tensor::randn(&[dm, n], &mut rng);
    let dec_flops = (2 * dm * (n * fr + fr * fr + fr * n)) as f64;

    let mut out = Vec::new();
    let mut f32_group = vec![
        (
            "matmul_256",
            time_flops(flops, || {
                std::hint::black_box(matmul(&a, &b));
            }),
        ),
        (
            "matmul_transb_256",
            time_flops(flops, || {
                std::hint::black_box(matmul_transb(&a, &b));
            }),
        ),
        (
            "matmul_transa_256",
            time_flops(flops, || {
                std::hint::black_box(matmul_transa(&a, &b));
            }),
        ),
        (
            "factored_unfused_128x256_r64",
            time_flops(fac_flops, || {
                let h1 = matmul(&fx, &fu1);
                let h2 = matmul(&h1, &fcore);
                std::hint::black_box(matmul(&h2, &fu2));
            }),
        ),
        (
            "factored_unfused_8x256_r64",
            time_flops(dec_flops, || {
                let h1 = matmul(&dx, &fu1);
                let h2 = matmul(&h1, &fcore);
                std::hint::black_box(matmul(&h2, &fu2));
            }),
        ),
    ];
    for dtype in [KernelDtype::F32, KernelDtype::Bf16, KernelDtype::F16] {
        let mut group = Vec::new();
        if dtype != KernelDtype::F32 {
            group.push((
                "matmul_256",
                time_flops(flops, || {
                    std::hint::black_box(gemm(backend, dtype, Trans::No, &a, &b));
                }),
            ));
        }
        group.push((
            "factored_fused_128x256_r64",
            time_flops(fac_flops, || {
                std::hint::black_box(factored_matmul_with(
                    backend, dtype, &fx, &fu1, &fcore, &fu2,
                ));
            }),
        ));
        // Deployment regime: factors prepacked once, streamed many times.
        let plan = FactoredPlan::with_dtype(dtype, &fu1, &fcore, &fu2);
        group.push((
            "factored_plan_128x256_r64",
            time_flops(fac_flops, || {
                std::hint::black_box(plan.matmul_on(backend, &fx));
            }),
        ));
        group.push((
            "factored_plan_8x256_r64",
            time_flops(dec_flops, || {
                std::hint::black_box(plan.matmul_on(backend, &dx));
            }),
        ));
        if dtype == KernelDtype::F32 {
            f32_group.append(&mut group);
            out.push(("f32", std::mem::take(&mut f32_group)));
        } else {
            out.push((dtype.name(), group));
        }
    }
    out
}

/// Records the suite's wall clock, cache effectiveness, and per-kernel
/// GFLOP/s for the perf trajectory (`BENCH_suite.json` at the invocation
/// directory, or `BENCH_suite.chaos.json` when a fault kind is active, so
/// a chaos run never overwrites the fault-free record), and — when
/// `--metrics` was given — the full telemetry document (spans, counters,
/// GEMM matrix, events) via `lrd-trace`.
fn write_bench_suite(
    args: &Args,
    wall_s: f64,
    agg: &CacheAgg,
    serve: Option<lrd_trace::json::Json>,
) {
    use lrd_trace::json::Json;
    let backend = lrd_tensor::kernel::Backend::active();
    let kernels = kernel_gflops();
    let round2 = |g: f64| (g * 100.0).round() / 100.0;
    let mut doc = Json::obj([
        ("schema", Json::str(lrd_bench::SUITE_SCHEMA_NAME)),
        (
            "schema_version",
            Json::uint(lrd_bench::SUITE_SCHEMA_VERSION),
        ),
        ("command", Json::str(args.command.clone())),
        ("wall_s", Json::num((wall_s * 1000.0).round() / 1000.0)),
        ("workers", Json::uint(args.workers as u64)),
        ("samples", Json::uint(args.samples as u64)),
        ("steps", Json::uint(args.steps as u64)),
        (
            "cache",
            Json::obj([
                ("hits", Json::uint(agg.hits as u64)),
                ("misses", Json::uint(agg.misses as u64)),
                ("hit_rate", Json::num(round2(agg.hit_rate()))),
                ("distinct_factors", Json::uint(agg.factors as u64)),
            ]),
        ),
        ("kernel_backend", Json::str(backend.name())),
        (
            "kernel_dtype",
            Json::str(lrd_tensor::dtype::KernelDtype::active().name()),
        ),
        (
            "kernel_gflops",
            Json::Obj(
                kernels
                    .iter()
                    .map(|(dtype, group)| {
                        (
                            dtype.to_string(),
                            Json::Obj(
                                group
                                    .iter()
                                    .map(|(name, g)| (name.to_string(), Json::num(round2(*g))))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "gemm_bytes_packed",
            Json::uint(lrd_trace::counters::get(
                lrd_trace::counters::Counter::GemmBytesPacked,
            )),
        ),
    ]);
    // v3: the `serve` command appends its measured serving percentiles;
    // every other command writes the suite without the section.
    if let (Some(section), Json::Obj(pairs)) = (serve, &mut doc) {
        pairs.push(("serve".into(), section));
    }
    let suite_path = if args.faults.is_active() {
        "BENCH_suite.chaos.json"
    } else {
        "BENCH_suite.json"
    };
    match std::fs::write(suite_path, doc.render()) {
        Ok(()) => eprintln!(
            "[repro] wrote {suite_path} (wall {wall_s:.1}s, cache hit rate {:.0}%)",
            agg.hit_rate() * 100.0
        ),
        Err(e) => eprintln!("[repro] failed to write {suite_path}: {e}"),
    }
    if let Some(path) = &args.metrics {
        let run = lrd_trace::report::RunInfo {
            command: args.command.clone(),
            wall_s,
            workers: args.workers as u64,
            samples: args.samples as u64,
            steps: args.steps as u64,
            kernel_backend: backend.name().into(),
            // Headline throughput: the f32 square matmul calibration shape.
            kernel_gflops: kernels
                .iter()
                .find(|(d, _)| *d == "f32")
                .and_then(|(_, g)| g.iter().find(|(n, _)| *n == "matmul_256"))
                .map(|(_, g)| *g)
                .unwrap_or(0.0),
        };
        let cache = lrd_trace::report::CacheInfo {
            hits: agg.hits as u64,
            misses: agg.misses as u64,
            distinct_factors: agg.factors as u64,
        };
        match lrd_trace::report::write_metrics(path, &run, &cache) {
            Ok(()) => eprintln!("[repro] wrote metrics document to {}", path.display()),
            Err(e) => eprintln!("[repro] failed to write metrics to {}: {e}", path.display()),
        }
    }
}

/// `repro journal-merge <out> <in...>`: combines shard journals into one
/// whose resumed table is bit-identical to an unsharded run. Runs before
/// any model work — no journal opening, no BENCH_suite.json.
fn run_journal_merge(positionals: &[String]) -> ! {
    let out = std::path::PathBuf::from(&positionals[0]);
    let inputs: Vec<std::path::PathBuf> = positionals[1..]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    match Journal::merge(&out, &inputs) {
        Ok((journal, report)) => {
            eprintln!(
                "[repro] journal-merge: wrote {} ({} record(s) from {} input(s), \
                 {} duplicate(s) collapsed{})",
                journal.path().display(),
                report.records,
                report.inputs,
                report.duplicates,
                if report.dropped_lines > 0 {
                    format!(", {} torn/foreign line(s) dropped", report.dropped_lines)
                } else {
                    String::new()
                }
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[repro] journal-merge failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.command == "journal-merge" {
        run_journal_merge(&args.positionals);
    }
    if let Some(shard) = args.shard {
        let _ = ACTIVE_SHARD.set(shard);
        eprintln!("[repro] shard {shard}: computing only owned sweep points");
    }
    eprintln!(
        "[repro] command={} samples={} steps={} workers={} (world seed {WORLD_SEED})",
        args.command,
        args.samples,
        args.steps,
        if args.workers == 0 {
            "auto".into()
        } else {
            args.workers.to_string()
        },
    );
    let t0 = std::time::Instant::now();
    let journal = open_journal(&args);
    let mut agg = CacheAgg::default();
    let mut serve_section = None;
    match args.command.as_str() {
        "table1" => cmd_table1(),
        "table2" => cmd_table2(),
        "table4" => cmd_table4(),
        "fig10" | "fig11" | "fig12" => cmd_efficiency(&args, &args.command),
        "decode" => cmd_decode(&args),
        "serve" => serve_section = Some(cmd_serve(&args)),
        "bert" => agg.add(cmd_bert(&args, journal.as_ref())),
        "all" => {
            cmd_table1();
            cmd_table2();
            cmd_table4();
            // One model, one executor, one cache for every tiny-Llama
            // figure — presets shared between figures hit the cache.
            let (model, world) = load_model(&args);
            let exec = executor(&model, &world, &args, journal.as_ref());
            cmd_train(&args, &exec);
            cmd_fig3(&args, &exec);
            cmd_fig5(&args, &exec);
            cmd_fig6(&args, &exec);
            cmd_fig7(&args, &exec);
            cmd_fig8(&args, &exec);
            cmd_fig9(&args, &exec);
            cmd_efficiency(&args, "fig10");
            agg.add(cmd_bert(&args, journal.as_ref()));
            cmd_recovery(&args, &exec);
            serve_section = Some(cmd_serve(&args));
            agg.add_exec(&exec);
        }
        cmd @ ("train" | "fig3" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "spectra"
        | "baselines" | "optimize" | "recovery") => {
            let (model, world) = load_model(&args);
            let exec = executor(&model, &world, &args, journal.as_ref());
            match cmd {
                "train" => cmd_train(&args, &exec),
                "fig3" => cmd_fig3(&args, &exec),
                "fig5" => cmd_fig5(&args, &exec),
                "fig6" => cmd_fig6(&args, &exec),
                "fig7" => cmd_fig7(&args, &exec),
                "fig8" => cmd_fig8(&args, &exec),
                "fig9" => cmd_fig9(&args, &exec),
                "spectra" => cmd_spectra(&args, &exec),
                "baselines" => cmd_baselines(&args, &exec),
                "optimize" => cmd_optimize(&args, &exec),
                _ => cmd_recovery(&args, &exec),
            }
            agg.add_exec(&exec);
        }
        other => {
            eprintln!("unknown command: {other}");
            std::process::exit(2);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    eprintln!("[repro] done in {wall_s:.1}s");
    write_bench_suite(&args, wall_s, &agg, serve_section);
    if FIGURE_ALL_FAILED.load(std::sync::atomic::Ordering::Relaxed) {
        eprintln!("[repro] exiting non-zero: at least one figure lost every point");
        std::process::exit(1);
    }
}
