//! Regenerates every table and figure of the paper.
//!
//! `repro --help` lists the commands and flags. Each is stated once, in
//! [`COMMANDS`] or [`FLAGS`]; parsing, validation, dispatch and the help
//! text all read those two tables, so none of them can drift from what
//! runs.

use lrd_bench::{pretrained_tiny_llama, render_table, write_csv, PretrainOptions, WORLD_SEED};
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
use lrd_trace::json::Json;
use lrd_trace::report::CacheInfo;
use std::path::PathBuf;
use Run::{All, Own, Standalone, Study, Table};
use Set::{Switch, Value};

/// Batch per GPU and sequence length of the simulated 4×A100 workload
/// (Figs. 10–12, `decode`, `optimize`).
const BATCH_PER_GPU: usize = 64;
const SEQ: usize = 128;
/// `--fast` caps the eval samples and the training steps, which selects
/// the cached 600-step checkpoint.
const FAST_SAMPLES: usize = 80;
const FAST_STEPS: usize = 600;
/// The words that ask for the usage text.
const HELP: [&str; 2] = ["-h", "--help"];

/// One `repro` command.
struct Command {
    name: &'static str,
    run: Run,
    help: &'static str,
    /// Operand synopsis for `--help`; its word count is the minimum number
    /// of operands (`""`: the command takes none).
    operands: &'static str,
    /// `--shard` may partition its sweeps: their point lists are pure
    /// functions of the spec fingerprints. A command that feeds sweep
    /// output into later computation (optimize's sensitivity vector,
    /// recovery's reference point, baselines' comparison rows) would
    /// silently corrupt its result on a partial set.
    shardable: bool,
    /// `all` runs it, in table order.
    in_all: bool,
}

/// How a command runs.
#[derive(Clone, Copy)]
enum Run {
    /// Analytic, no model.
    Table(fn()),
    /// On the run's one tiny-Llama study executor, built on first use, so
    /// presets repeated across the figures of `all` hit one cache. The
    /// executor keys journal records by the command's name.
    Study(fn(&Args, &StudyExecutor)),
    /// Loads its own model and adds to the suite record.
    Own(fn(&Args, Option<&Journal>, &mut SuiteRecord)),
    /// Runs on the operands before anything else; the process exits with
    /// the returned code.
    Standalone(fn(&[String]) -> i32),
    /// Every command marked `in_all`, in table order.
    All,
}

const fn cmd(
    name: &'static str,
    in_all: bool,
    shardable: bool,
    run: Run,
    help: &'static str,
) -> Command {
    Command {
        name,
        run,
        help,
        operands: "",
        shardable,
        in_all,
    }
}

/// No command on the line means the first entry, `all`.
impl Default for &'static Command {
    fn default() -> Self {
        &COMMANDS[0]
    }
}

/// Every command, in `--help` order.
#[rustfmt::skip]
const COMMANDS: [Command; 20] = [
    //  name         in all shard  runner                 help
    cmd("all",       false, false, All,                   "the default; runs, in order:"),
    cmd("table1",    true,  false, Table(cmd_table1),     "model size, MACs, compute-to-size ratio"),
    cmd("table2",    true,  false, Table(cmd_table2),     "design-space sizes (Theorem 3.2)"),
    cmd("table4",    true,  false, Table(cmd_table4),     "decomposed-layer presets"),
    cmd("train",     true,  false, Study(cmd_train),      "(re)train the tiny-Llama and score it"),
    cmd("fig3",      true,  true,  Study(cmd_fig3),       "accuracy vs pruned rank"),
    cmd("fig5",      true,  true,  Study(cmd_fig5),       "accuracy vs decomposed-tensor choice"),
    cmd("fig6",      true,  true,  Study(cmd_fig6),       "one tensor in all layers vs all in few"),
    cmd("fig7",      true,  true,  Study(cmd_fig7),       "per-layer sensitivity"),
    cmd("fig8",      true,  true,  Study(cmd_fig8),       "decomposed-layer distance"),
    cmd("fig9",      true,  true,  Study(cmd_fig9),       "accuracy vs parameter reduction"),
    cmd("fig10",     true,  false, Table(cmd_efficiency), "Figs. 10–12: speedup, energy and memory\n\
                                                           vs parameter reduction (4×A100)"),
    cmd("bert",      true,  true,  Own(cmd_bert),         "BERT per-tensor sensitivity (Figs. 5/6)"),
    cmd("recovery",  true,  false, Study(cmd_recovery),   "§6 fine-tuning recovery"),
    cmd("serve",     true,  false, Own(cmd_serve),        "continuous-batching load test, dense\n\
                                                           vs factored; with serve-plane --faults\n\
                                                           kinds, the chaos test"),
    cmd("spectra",   false, false, Study(cmd_spectra),    "weight spectra: why rank 1 works"),
    cmd("decode",    false, false, Table(cmd_decode),     "decode-phase latency sweep (4×A100)"),
    cmd("baselines", false, false, Study(cmd_baselines),  "low-rank vs quantization vs pruning"),
    cmd("optimize",  false, false, Study(cmd_optimize),   "Definition 1 design-goal search"),
    Command { operands: "<out> <in...>", ..cmd("journal-merge", false, false,
        Standalone(run_journal_merge), "combine shard journals into one whose resumed table\n\
                                        is bit-identical to an unsharded run (exit 1 on a\n\
                                        conflict)") },
];

/// One `repro` flag.
struct Flag {
    name: &'static str,
    set: Set,
    help: &'static str,
}

/// How a flag takes effect.
#[derive(Clone, Copy)]
enum Set {
    /// A switch: starts off, takes no value.
    Switch(fn(&mut Args)),
    /// A value: its `--help` placeholder, the default parsing starts from
    /// (`""` leaves the field unset), and its parser (`Err`: the reason).
    Value(
        &'static str,
        &'static str,
        fn(&mut Args, &str) -> Result<(), String>,
    ),
}

/// Every flag, in `--help` order.
#[rustfmt::skip]
const FLAGS: [Flag; 14] = [
    Flag { name: "--fast", set: Switch(|a| a.fast = true),
           help: "cap eval samples at 80 and training steps at 600\n\
                  (the cached 600-step checkpoint)" },
    Flag { name: "--samples", set: Value("N", "200", |a, v| number(v).map(|n| a.samples = n)),
           help: "eval samples per benchmark" },
    Flag { name: "--steps", set: Value("N", "2500", |a, v| number(v).map(|n| a.steps = n)),
           help: "tiny-Llama training steps, one cached checkpoint per\ncount" },
    Flag { name: "--workers", set: Value("N", "0", |a, v| number(v).map(|n| a.workers = n)),
           help: "sweep worker-pool size\n(0: derive from the thread budget)" },
    Flag { name: "--no-cache", set: Switch(|a| a.no_cache = true),
           help: "disable the decomposition cache (A/B baseline)" },
    Flag { name: "--sessions", set: Value("N", "200", |a, v| positive(v).map(|n| a.sessions = n)),
           help: "serve: sessions in the traffic trace" },
    Flag { name: "--max-batch", set: Value("N", "32", |a, v| positive(v).map(|n| a.max_batch = n)),
           help: "serve: in-flight sessions per decode batch" },
    Flag { name: "--metrics", set: Value("PATH", "", |a, v| { a.metrics = Some(v.into()); Ok(()) }),
           help: "also write the lrd-metrics telemetry document" },
    Flag { name: "--journal", set: Value("PATH", "", |a, v| { a.journal = Some(v.into()); Ok(()) }),
           help: "append each settled sweep point to a durable\nJSONL journal" },
    Flag { name: "--resume", set: Switch(|a| a.resume = true),
           help: "with --journal: restore journaled points instead of\n\
                  recomputing them (bit-identical)" },
    Flag { name: "--faults",
           set: Value("SPEC", "", |a, v| FaultPlan::parse(v).map(|p| a.faults = p)),
           help: "deterministic fault injection, e.g. svd:0.05,nan:0.02,\n\
                  seed:42 (serve: nan-logits, decode-panic, slow-step);\n\
                  unset: $LRD_FAULTS. $LRD_FAULTS_SEED sets the seed. Any\n\
                  active kind writes the .chaos. suite and serve CSV" },
    Flag { name: "--retries", set: Value("N", "2", |a, v| number(v).map(|n| a.retries = n)),
           help: "per-point retry budget (transient failures)" },
    Flag { name: "--deadline-s",
           set: Value("SECS", "", |a, v| deadline(v).map(|d| a.deadline = Some(d))),
           help: "per-point soft deadline; late points settle as\ntimed out" },
    Flag { name: "--shard", set: Value("I/N", "", |a, v| Shard::parse(v).map(|s| a.shard = Some(s))),
           help: "compute only the sweep points shard I of N owns\n\
                  (fingerprint % N == I); then journal-merge the\n\
                  shards' journals and --resume (DESIGN.md §14)" },
];

/// A strictly parsed number: a malformed value is an error, never a
/// silent fall-back to the default.
fn number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expected {}", std::any::type_name::<T>()))
}

fn positive(value: &str) -> Result<usize, String> {
    match number(value)? {
        0 => Err("must be ≥ 1".into()),
        n => Ok(n),
    }
}

fn deadline(value: &str) -> Result<std::time::Duration, String> {
    match std::time::Duration::try_from_secs_f64(number(value)?) {
        Ok(d) if !d.is_zero() => Ok(d),
        _ => Err("must be positive and below 1.8e19 seconds".into()),
    }
}

/// The parsed command line.
#[derive(Default)]
struct Args {
    command: &'static Command,
    /// Operands after the command (`journal-merge` only).
    operands: Vec<String>,
    fast: bool,
    samples: usize,
    steps: usize,
    /// Sweep worker-pool size (0 = derive from the thread budget).
    workers: usize,
    sessions: usize,
    max_batch: usize,
    no_cache: bool,
    metrics: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: bool,
    faults: FaultPlan,
    retries: u32,
    deadline: Option<std::time::Duration>,
    shard: Option<Shard>,
}

/// Why [`parse_args`] returned no [`Args`].
#[derive(Debug)]
enum CliError {
    /// `-h` / `--help`: `main` prints [`usage`] and exits 0.
    Help,
    /// A refused command line: the offending token (an argv word, or an
    /// environment variable) and why. `main` prints both and exits 2.
    Invalid { token: String, reason: String },
}

fn invalid(token: &str, reason: String) -> CliError {
    let token = token.to_string();
    CliError::Invalid { token, reason }
}

/// Parses `argv` (without the program name). Each value flag starts at
/// its [`FLAGS`] default; `LRD_FAULTS` from `env` stands in for an absent
/// `--faults` and `LRD_FAULTS_SEED` overrides the plan's seed. Pure:
/// nothing is printed and nothing exits.
fn parse_args(argv: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Args, CliError> {
    let bad_value = |token: &str, value: &str, reason| {
        invalid(token, format!("invalid value {value:?} ({reason})"))
    };
    let mut args = Args::default();
    for flag in &FLAGS {
        if let Value(_, default, set) = flag.set {
            if !default.is_empty() {
                set(&mut args, default).map_err(|r| bad_value(flag.name, default, r))?;
            }
        }
    }
    if let Some(spec) = env(FAULTS_ENV) {
        args.faults = FaultPlan::parse(&spec).map_err(|r| bad_value(FAULTS_ENV, &spec, r))?;
    }
    let mut command = None;
    let mut seen = [false; FLAGS.len()];
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if HELP.contains(&word.as_str()) {
            return Err(CliError::Help);
        }
        if let Some(i) = FLAGS.iter().position(|f| f.name == word) {
            if std::mem::replace(&mut seen[i], true) {
                return Err(invalid(word, "given more than once".into()));
            }
            match FLAGS[i].set {
                Switch(set) => set(&mut args),
                Value(metavar, _, set) => {
                    let value = words
                        .next()
                        .ok_or_else(|| invalid(word, format!("requires a value {metavar}")))?;
                    set(&mut args, value).map_err(|r| bad_value(word, value, r))?;
                }
            }
        } else if word.starts_with('-') || command.is_some_and(|c: &Command| c.operands.is_empty())
        {
            return Err(invalid(word, "unknown argument".into()));
        } else if command.is_some() {
            args.operands.push(word.clone());
        } else {
            let found = COMMANDS.iter().find(|c| c.name == word);
            command = Some(found.ok_or_else(|| invalid(word, "unknown command".into()))?);
        }
    }
    if let Some(seed) = env(FAULTS_SEED_ENV) {
        args.faults.seed = number(&seed).map_err(|r| bad_value(FAULTS_SEED_ENV, &seed, r))?;
    }
    args.command = command.unwrap_or_default();
    let (name, synopsis) = (args.command.name, args.command.operands);
    if args.operands.len() < synopsis.split_whitespace().count() {
        return Err(invalid(name, format!("requires operands {synopsis}")));
    }
    if args.resume && args.journal.is_none() {
        return Err(invalid("--resume", "requires --journal PATH".into()));
    }
    if args.shard.is_some() && !args.command.shardable {
        let sweeps = names(|c| c.shardable).join(", ");
        let reason = format!("applies only to figure sweeps ({sweeps}), not {name:?}");
        return Err(invalid("--shard", reason));
    }
    if args.fast {
        args.samples = args.samples.min(FAST_SAMPLES);
        args.steps = args.steps.min(FAST_STEPS);
    }
    Ok(args)
}

/// The names of the commands `keep` selects, in table order.
fn names(keep: fn(&Command) -> bool) -> Vec<&'static str> {
    COMMANDS
        .iter()
        .filter(|c| keep(c))
        .map(|c| c.name)
        .collect()
}

/// The `--help` text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = String::from(
        "repro: regenerates the paper's tables and figures. Each command writes its\n\
         CSVs under artifacts/ and a BENCH_suite.json record.\n\n\
         usage: repro [COMMAND] [FLAG...]\n       repro -h | --help\n\ncommands:\n",
    );
    for c in &COMMANDS {
        let mut help = c.help.to_string();
        if matches!(c.run, All) {
            for members in names(|m| m.in_all).chunks(7) {
                help = format!("{help}\n{}", members.join(" "));
            }
        }
        if c.shardable {
            help.push_str(" [shardable]");
        }
        help_row(&mut out, &format!("{} {}", c.name, c.operands), &help);
    }
    out.push_str("\nflags:\n");
    for f in &FLAGS {
        match f.set {
            Switch(_) => help_row(&mut out, f.name, f.help),
            Value(metavar, "", _) => help_row(&mut out, &format!("{} {metavar}", f.name), f.help),
            Value(metavar, default, _) => help_row(
                &mut out,
                &format!("{} {metavar}", f.name),
                &format!("{} (default {default})", f.help),
            ),
        }
    }
    out
}

/// Appends one `--help` row: the term, then each line of its help aligned
/// in one column (on the next line when the term is too wide).
fn help_row(out: &mut String, term: &str, help: &str) {
    const COLUMN: usize = 24;
    let term = format!("  {}", term.trim_end());
    let mut lead = if term.len() < COLUMN {
        format!("{term:<COLUMN$}")
    } else {
        format!("{term}\n{:COLUMN$}", "")
    };
    for line in help.lines() {
        out.push_str(&lead);
        out.push_str(line.trim());
        out.push('\n');
        lead = " ".repeat(COLUMN);
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

/// Prints a table and writes it as `artifacts/<csv>`.
fn emit_table(csv: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
    write_csv(csv, headers, rows);
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
    let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
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
    emit_table("table1.csv", &headers, &rows);
    println!(
        "(paper reports ResNet50 at 8.21 B computations = 2 FLOPs/MAC; \
         see EXPERIMENTS.md)"
    );
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
    emit_table("table2.csv", &headers, &rows);
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
    emit_table("table4.csv", &headers, &rows);
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
            dropped_note(journal.dropped_lines())
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
    emit_table("baseline.csv", &headers, &rows);
}

fn cmd_fig3(_args: &Args, exec: &StudyExecutor) {
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
    // All seven benchmarks: the six multiple-choice ones plus GSM8K.
    let mut benches = mc_benches();
    benches.push(Box::new(tasks::Gsm8k));
    let mut points = baseline_row(exec, &benches);
    points.extend(exec.case_study(&benches));
    print_study(
        "Fig. 9: accuracy vs parameter reduction (case study)",
        "fig9.csv",
        &points,
        &benches,
    );
}

fn cmd_efficiency() {
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    let points = efficiency_sweep(&sys, &desc, BATCH_PER_GPU, SEQ);
    println!(
        "\n=== Figs. 10–12: simulated efficiency on 4×A100 (batch/GPU {BATCH_PER_GPU}, seq {SEQ}) ==="
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
    emit_table("fig10.csv", &headers, &rows);
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
fn cmd_bert(args: &Args, journal: Option<&Journal>, record: &mut SuiteRecord) {
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
    record.add_cache(&exec);
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
            let mut row = vec![n.to_string()];
            for rank in [1, 2, 5] {
                let energy = lrd_core::spectra::mean_energy_by_tensor(&spectra, n, rank);
                row.push(format!("{energy:.3}"));
            }
            row.extend([format!("{eff:.1}"), format!("{maxr}")]);
            row
        })
        .collect();
    emit_table("spectra.csv", &headers, &rows);
}

/// Extension beyond the paper: decode-phase (single-token generation)
/// latency sweep, where weight streaming dominates and low-rank savings
/// approach the parameter reduction 1:1.
fn cmd_decode() {
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    let points = study::decode_sweep(&sys, &desc, BATCH_PER_GPU, 512);
    println!("\n=== Decode-phase sweep (batch {BATCH_PER_GPU}, KV cache 512 tokens) ===");
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
    emit_table("decode.csv", &headers, &rows);
}

/// The live counterpart of Figs. 10–12: serves the trained tiny-Llama —
/// dense and factored at several Table-4 parameter-reduction points —
/// under one deterministic traffic trace, and reports measured per-token
/// latency percentiles, TTFT, aggregate tokens/s, and goodput for the
/// continuous-batching server against the sequential baseline, and
/// records them as the `serve` section of `BENCH_suite.json`.
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
fn cmd_serve(args: &Args, _journal: Option<&Journal>, record: &mut SuiteRecord) {
    use lrd_serve::{
        generate, serve, serve_sequential, ServeConfig, SessionFate, TrafficConfig, STALL_STEPS,
    };

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
    // Like the suite file: a chaos run never replaces the fault-free table.
    let csv = if chaos {
        "serve.chaos.csv"
    } else {
        "serve.csv"
    };
    emit_table(csv, &headers, &rows);
    // The chaos knobs read 0 when faults are off: their "off" values
    // (u64::MAX, usize::MAX) do not survive the f64-backed JSON number,
    // and a real knob is always ≥ 1.
    let knob = |v: u64| Json::uint(if chaos { v } else { 0 });
    record.serve = Some(Json::obj([
        ("sessions", Json::uint(args.sessions as u64)),
        ("trace_seed", Json::uint(TRACE_SEED)),
        ("max_batch", Json::uint(serve_cfg.max_batch as u64)),
        ("faults_active", Json::Bool(chaos)),
        ("deadline_steps", knob(serve_cfg.deadline_steps)),
        ("shed_high_water", knob(serve_cfg.shed_high_water as u64)),
        (
            "max_admit_per_step",
            knob(serve_cfg.max_admit_per_step as u64),
        ),
        ("variants", Json::Arr(json_variants)),
    ]));
}

/// Compression-family ablation: rank-1 Tucker vs int8/int4 quantization vs
/// magnitude pruning at comparable size reductions, on the same trained
/// model.
fn cmd_baselines(args: &Args, exec: &StudyExecutor) {
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
    emit_table("baselines_comparison.csv", &headers, &rows);
}

/// Definition 1 end to end: measure Fig. 7 sensitivities, build the
/// additive predictor, and search the layer space for the minimum-EDP
/// configuration within an accuracy-drop tolerance τ.
fn cmd_optimize(_args: &Args, exec: &StudyExecutor) {
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
        match lrd_core::search::greedy_search(&sys, &desc, &sens, tau, BATCH_PER_GPU, SEQ) {
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
    emit_table("optimize.csv", &headers, &rows);
}

fn cmd_recovery(args: &Args, exec: &StudyExecutor) {
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
    emit_table("recovery.csv", &headers, &rows);
    println!(
        "recovery training loss: {:.3} -> {:.3}",
        report.loss_before, report.loss_after
    );
}

/// What a run adds to `BENCH_suite.json` besides its wall clock: the
/// decomposition-cache counters summed across every executor it built
/// (the tiny-Llama one plus BERT's), and `serve`'s section.
#[derive(Default)]
struct SuiteRecord {
    cache: CacheInfo,
    serve: Option<Json>,
}

impl SuiteRecord {
    fn add_cache(&mut self, exec: &StudyExecutor) {
        let stats = exec.cache_stats();
        self.cache.hits += stats.hits as u64;
        self.cache.misses += stats.misses as u64;
        self.cache.distinct_factors += exec.cached_factors() as u64;
    }
}

/// Records the suite's wall clock and cache effectiveness for the perf
/// trajectory (`BENCH_suite.json` at the invocation directory, or
/// `BENCH_suite.chaos.json` when a fault kind is active, so a chaos run
/// never overwrites the fault-free record), and — when `--metrics` was
/// given — the full telemetry document (spans, counters, GEMM matrix,
/// events) via `lrd-trace`. Kernel throughput is timed by perfbench and
/// the criterion benches, not here.
fn write_bench_suite(args: &Args, wall_s: f64, record: SuiteRecord) {
    let backend = lrd_tensor::kernel::Backend::active().name();
    let cache = record.cache;
    let mut doc = Json::obj([
        ("schema", Json::str(lrd_bench::SUITE_SCHEMA_NAME)),
        (
            "schema_version",
            Json::uint(lrd_bench::SUITE_SCHEMA_VERSION),
        ),
        ("command", Json::str(args.command.name)),
        ("wall_s", Json::num((wall_s * 1000.0).round() / 1000.0)),
        ("workers", Json::uint(args.workers as u64)),
        ("samples", Json::uint(args.samples as u64)),
        ("steps", Json::uint(args.steps as u64)),
        (
            "cache",
            Json::obj([
                ("hits", Json::uint(cache.hits)),
                ("misses", Json::uint(cache.misses)),
                (
                    "hit_rate",
                    Json::num((cache.hit_rate() * 100.0).round() / 100.0),
                ),
                ("distinct_factors", Json::uint(cache.distinct_factors)),
            ]),
        ),
        ("kernel_backend", Json::str(backend)),
        (
            "kernel_dtype",
            Json::str(lrd_tensor::dtype::KernelDtype::active().name()),
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
    if let (Some(section), Json::Obj(pairs)) = (record.serve, &mut doc) {
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
            cache.hit_rate() * 100.0
        ),
        Err(e) => eprintln!("[repro] failed to write {suite_path}: {e}"),
    }
    if let Some(path) = &args.metrics {
        let run = lrd_trace::report::RunInfo {
            command: args.command.name.into(),
            wall_s,
            workers: args.workers as u64,
            samples: args.samples as u64,
            steps: args.steps as u64,
            kernel_backend: backend.into(),
        };
        match lrd_trace::report::write_metrics(path, &run, &cache) {
            Ok(()) => eprintln!("[repro] wrote metrics document to {}", path.display()),
            Err(e) => eprintln!("[repro] failed to write metrics to {}: {e}", path.display()),
        }
    }
}

/// The log suffix for `n` torn or foreign journal lines dropped.
fn dropped_note(n: usize) -> String {
    match n {
        0 => String::new(),
        n => format!(", {n} torn/foreign line(s) dropped"),
    }
}

/// `repro journal-merge <out> <in...>`: combines shard journals into one
/// whose resumed table is bit-identical to an unsharded run. Runs before
/// any model work — no journal opening, no BENCH_suite.json. Returns the
/// exit code: 0 merged, 1 on a conflict or an unreadable input.
fn run_journal_merge(operands: &[String]) -> i32 {
    let out = PathBuf::from(&operands[0]);
    let inputs: Vec<PathBuf> = operands[1..].iter().map(PathBuf::from).collect();
    match Journal::merge(&out, &inputs) {
        Ok((journal, report)) => {
            eprintln!(
                "[repro] journal-merge: wrote {} ({} record(s) from {} input(s), \
                 {} duplicate(s) collapsed{})",
                journal.path().display(),
                report.records,
                report.inputs,
                report.duplicates,
                dropped_note(report.dropped_lines)
            );
            0
        }
        Err(e) => {
            eprintln!("[repro] journal-merge failed: {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, |var| std::env::var(var).ok()) {
        Ok(args) => args,
        Err(CliError::Help) => {
            print!("{}", usage());
            return;
        }
        Err(CliError::Invalid { token, reason }) => {
            eprintln!("repro: {token}: {reason}\n(repro --help lists the commands and flags)");
            std::process::exit(2);
        }
    };
    if let Run::Standalone(run) = args.command.run {
        std::process::exit(run(&args.operands));
    }
    if let Some(shard) = args.shard {
        if args.journal.is_none() {
            eprintln!(
                "[repro] warning: --shard without --journal: this shard's results cannot be merged later"
            );
        }
        let _ = ACTIVE_SHARD.set(shard);
        eprintln!("[repro] shard {shard}: computing only owned sweep points");
    }
    let workers = match args.workers {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    eprintln!(
        "[repro] command={} samples={} steps={} workers={workers} (world seed {WORLD_SEED})",
        args.command.name, args.samples, args.steps,
    );
    let t0 = std::time::Instant::now();
    let journal = open_journal(&args);
    let model = std::cell::OnceCell::new();
    let exec = std::cell::OnceCell::new();
    let mut record = SuiteRecord::default();
    let commands: Vec<&Command> = match args.command.run {
        Run::All => COMMANDS.iter().filter(|c| c.in_all).collect(),
        _ => vec![args.command],
    };
    for command in commands {
        match command.run {
            Run::Table(run) => run(),
            Run::Study(run) => {
                let exec = exec.get_or_init(|| {
                    let (model, world) = model.get_or_init(|| load_model(&args));
                    executor(model, world, &args, journal.as_ref())
                });
                exec.set_figure(command.name);
                run(&args, exec);
            }
            Run::Own(run) => run(&args, journal.as_ref(), &mut record),
            // Standalone commands exited above, and `all` is not its own member.
            Run::Standalone(_) | Run::All => {}
        }
    }
    if let Some(exec) = exec.get() {
        record.add_cache(exec);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    eprintln!("[repro] done in {wall_s:.1}s");
    write_bench_suite(&args, wall_s, record);
    if FIGURE_ALL_FAILED.load(std::sync::atomic::Ordering::Relaxed) {
        eprintln!("[repro] exiting non-zero: at least one figure lost every point");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_string()).collect()
    }

    fn parse(words: &[&str]) -> Result<Args, CliError> {
        parse_args(&argv(words), |_| None)
    }

    /// The token and reason of a refused command line.
    fn refusal(words: &[&str]) -> (String, String) {
        match parse(words) {
            Err(CliError::Invalid { token, reason }) => (token, reason),
            Err(CliError::Help) => panic!("{words:?} asked for help"),
            Ok(_) => panic!("{words:?} parsed"),
        }
    }

    #[test]
    fn names_are_unique_and_all_is_the_default() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.extend(FLAGS.iter().map(|f| f.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a command or flag name repeats");
        assert!(matches!(parse(&[]).unwrap().command.run, Run::All));
    }

    #[test]
    fn all_runs_the_same_commands_in_the_same_order() {
        let members: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.in_all)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            members,
            [
                "table1", "table2", "table4", "train", "fig3", "fig5", "fig6", "fig7", "fig8",
                "fig9", "fig10", "bert", "recovery", "serve"
            ]
        );
        let shardable: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.shardable)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            shardable,
            ["fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "bert"]
        );
    }

    #[test]
    fn defaults_come_from_the_flag_table() {
        let args = parse(&["table2"]).unwrap();
        assert_eq!(
            (args.samples, args.steps, args.workers, args.retries),
            (200, 2500, 0, 2)
        );
        assert_eq!((args.sessions, args.max_batch), (200, 32));
        assert!(args.deadline.is_none() && args.shard.is_none() && !args.faults.is_active());
        let fast = parse(&["fig9", "--fast", "--steps", "2"]).unwrap();
        assert_eq!((fast.samples, fast.steps), (FAST_SAMPLES, 2));
    }

    #[test]
    fn every_refusal_names_its_token() {
        let cases: [(&[&str], &str, &str); 9] = [
            (
                &["table2", "--samples", "5", "--samples", "6"],
                "--samples",
                "more than once",
            ),
            (&["nosuch"], "nosuch", "unknown command"),
            (&["table2", "extra"], "extra", "unknown argument"),
            (&["table2", "--workers", "abc"], "--workers", "\"abc\""),
            (&["serve", "--sessions", "0"], "--sessions", "≥ 1"),
            (&["table2", "--retries"], "--retries", "requires a value"),
            (&["table2", "--resume"], "--resume", "--journal"),
            (&["journal-merge", "out"], "journal-merge", "<out> <in...>"),
            (&["optimize", "--shard", "0/3"], "--shard", "fig9"),
        ];
        for (words, token, fragment) in cases {
            let (got, reason) = refusal(words);
            assert_eq!(got, token, "{words:?}");
            assert!(reason.contains(fragment), "{words:?}: {reason}");
        }
    }

    #[test]
    fn environment_supplies_the_fault_plan_and_seed() {
        let env = |var: &str| match var {
            FAULTS_ENV => Some("svd:0.5,seed:1".to_string()),
            FAULTS_SEED_ENV => Some("9".to_string()),
            _ => None,
        };
        let args = parse_args(&argv(&["table2"]), env).unwrap();
        assert_eq!((args.faults.svd, args.faults.seed), (0.5, 9));
        let args = parse_args(&argv(&["table2", "--faults", "nan:0.25"]), env).unwrap();
        assert_eq!(
            (args.faults.svd, args.faults.nan, args.faults.seed),
            (0.0, 0.25, 9)
        );
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let text = usage();
        for name in COMMANDS
            .iter()
            .map(|c| c.name)
            .chain(FLAGS.iter().map(|f| f.name))
        {
            assert!(text.contains(name), "--help omits {name}");
        }
        assert!(text
            .lines()
            .all(|l| l.chars().count() <= 80 || !l.contains(' ')));
    }

    /// Words the parser treats specially, plus values of every shape the
    /// setters see.
    fn vocabulary() -> Vec<String> {
        let mut words: Vec<String> = COMMANDS
            .iter()
            .map(|c| c.name)
            .chain(FLAGS.iter().map(|f| f.name))
            .chain(HELP)
            .map(String::from)
            .collect();
        words.extend(
            [
                "0",
                "1",
                "7",
                "-1",
                "1e20",
                "NaN",
                "abc",
                "",
                "0/3",
                "3/3",
                "svd:0.5,seed:1",
                "svd:2",
                "--",
                "-",
                "out.jsonl",
            ]
            .map(String::from),
        );
        words
    }

    /// A word drawn from the vocabulary, or a short random one over an
    /// alphabet of flag-like, path-like, quoting and non-ASCII characters.
    fn word() -> impl Strategy<Value = String> {
        let known = vocabulary().len();
        (0..known + known / 3, any::<u64>()).prop_map(|(pick, bits)| {
            let words = vocabulary();
            if let Some(w) = words.get(pick) {
                return w.clone();
            }
            const ALPHABET: [char; 12] =
                ['-', 'a', 'x', '0', '9', '/', ':', '.', '"', ' ', 'é', '\n'];
            (0..bits % 7)
                .map(|i| ALPHABET[(bits >> (4 * i + 3)) as usize % ALPHABET.len()])
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parser_never_panics_and_names_the_offending_token(
            words in proptest::collection::vec(word(), 0..7)
        ) {
            match parse_args(&words, |_| None) {
                Ok(args) => prop_assert!(COMMANDS.iter().any(|c| c.name == args.command.name)),
                Err(CliError::Help) => {
                    prop_assert!(words.iter().any(|w| HELP.contains(&w.as_str())));
                }
                Err(CliError::Invalid { token, .. }) => {
                    prop_assert!(words.contains(&token), "{token:?} is not in {words:?}");
                }
            }
        }
    }
}
