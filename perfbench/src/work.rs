//! The four workloads: set-up, the timed operation and its reference check.

use std::time::Instant;

use lrd_bench::{MODEL_SEED, WORLD_SEED};
use lrd_core::faults::FaultPlan;
use lrd_core::recovery::{recover, RecoveryOptions};
use lrd_core::select::{preset_config, table4_presets};
use lrd_core::study::{DynBenchmark, StudyExecutor, StudyPoint};
use lrd_eval::harness::EvalOptions;
use lrd_eval::World;
use lrd_nn::TransformerLm;
use lrd_serve::{
    generate, serve, serve_sequential, Request, ServeConfig, ServeOutcome, TrafficConfig,
};
use lrd_tensor::rng::Rng64;

/// Sessions in the serve trace: 200 give the TTFT p95 ten samples
/// beyond it.
const SESSIONS: usize = 200;
/// Seed of the serve trace's shape (arrival steps, prompt and generation
/// lengths). It is fixed so that every run seed does the same work: the
/// run seed draws the prompt tokens, which select the generated streams.
const TRAFFIC_SHAPE_SEED: u64 = 1;
/// Sessions of the serve warm-up pass.
const WARM_UP_SESSIONS: usize = 50;
/// Decode batch bound of the serve workloads.
const MAX_BATCH: usize = 32;
/// Samples per benchmark per Table-4 point in the sweep.
const SWEEP_SAMPLES: usize = 8;
/// Recovery fine-tuning steps per timed `recover` call.
const RECOVER_STEPS: usize = 4;
/// Recovery batch and sequence length (the `RecoveryOptions` defaults).
pub const RECOVER_BATCH: usize = 8;
pub const RECOVER_SEQ: usize = 48;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeDense,
    ServeFactored,
    SweepTable4,
    FinetuneRecover,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ServeDense,
        Workload::ServeFactored,
        Workload::SweepTable4,
        Workload::FinetuneRecover,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeDense => "serve-dense",
            Workload::ServeFactored => "serve-factored",
            Workload::SweepTable4 => "sweep-table4",
            Workload::FinetuneRecover => "finetune-recover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The input that `--seed` selects: each workload reads one seed.
    pub fn seed_role(self) -> &'static str {
        match self {
            Workload::ServeDense | Workload::ServeFactored => "trace_seed",
            Workload::SweepTable4 => "eval_seed",
            Workload::FinetuneRecover => "corpus_seed",
        }
    }

    /// What [`Op::work`] counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::ServeDense | Workload::ServeFactored => "generated tokens",
            Workload::SweepTable4 => "samples scored",
            Workload::FinetuneRecover => "tokens trained on",
        }
    }
}

/// A workload ready to run.
pub enum Prepared {
    Serve {
        model: TransformerLm,
        trace: Vec<Request>,
        cfg: ServeConfig,
    },
    Sweep {
        model: TransformerLm,
        world: World,
        opts: EvalOptions,
        benches: Vec<DynBenchmark>,
    },
    Finetune {
        model: TransformerLm,
        world: World,
        opts: RecoveryOptions,
    },
}

/// What set-up did besides building the inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// Wall time of `decompose_model`, 0 when the workload decomposes
    /// nothing in set-up.
    pub decompose_s: f64,
}

/// CPU time this process has used since it started, all threads, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). On a shared VM it leaves out
/// the time the host runs something else on the vCPU (steal), which wall
/// time counts; it still counts every thread the program runs. Where the
/// clock is unavailable it falls back to wall time since the first call.
pub fn cpu_now() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A wall-clock and a CPU-clock stopwatch started together.
struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// `(wall, cpu)` seconds since [`Stopwatch::start`].
    fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_now() - self.cpu)
    }
}

/// One timed operation.
pub struct Op {
    /// Wall time of the call into the program.
    pub wall_s: f64,
    /// CPU time of the call, see [`cpu_now`].
    pub cpu_s: f64,
    /// Units of work done: generated tokens, samples scored or tokens
    /// trained on.
    pub work: f64,
    /// The bit patterns checked against the golden values.
    pub outputs: Vec<u64>,
    /// Whether the operation's own accounting was sound (every session
    /// completed, no sweep point failed).
    pub sound: bool,
    /// The serve outcome, kept for the traced run.
    pub serve: Option<ServeOutcome>,
}

/// The Table-4 point labelled `label`, decomposed from `model`.
fn table4_point(model: &mut TransformerLm, label: &str) -> f64 {
    let (_, _, layers) = table4_presets()
        .into_iter()
        .find(|(l, _, _)| *l == label)
        .expect("Table-4 preset exists");
    let t = Instant::now();
    lrd_core::decompose_model(model, &preset_config(&layers)).expect("Table-4 decomposition");
    t.elapsed().as_secs_f64()
}

/// Builds the workload's model and its inputs from `seed` (the serve
/// trace's prompt tokens, the eval-sample draw or the recovery corpus)
/// and runs one untimed warm-up.
pub fn setup(w: Workload, seed: u64) -> (Prepared, SetupInfo) {
    let mut model = lrd_models::tiny::build_tiny_llama(MODEL_SEED);
    let mut info = SetupInfo::default();
    let prepared = match w {
        Workload::ServeDense | Workload::ServeFactored => {
            if w == Workload::ServeFactored {
                info.decompose_s = table4_point(&mut model, "48%");
            }
            let c = model.config();
            let mut trace = generate(&TrafficConfig::for_model(
                SESSIONS,
                TRAFFIC_SHAPE_SEED,
                c.vocab_size,
                c.max_seq,
            ));
            let mut rng = Rng64::new(seed);
            for t in trace.iter_mut().flat_map(|r| r.prompt.iter_mut()) {
                *t = rng.below(c.vocab_size);
            }
            let cfg = ServeConfig {
                max_batch: MAX_BATCH,
                queue_cap: SESSIONS,
                faults: FaultPlan::default(),
                ..ServeConfig::default()
            };
            Prepared::Serve { model, trace, cfg }
        }
        Workload::SweepTable4 => Prepared::Sweep {
            model,
            world: World::new(WORLD_SEED),
            opts: EvalOptions {
                n_samples: SWEEP_SAMPLES,
                seed,
                batch_size: 64,
                threads: 0,
            },
            benches: lrd_eval::tasks::registry(),
        },
        Workload::FinetuneRecover => {
            info.decompose_s = table4_point(&mut model, "15%");
            Prepared::Finetune {
                model,
                world: World::new(WORLD_SEED),
                opts: RecoveryOptions {
                    steps: RECOVER_STEPS,
                    batch: RECOVER_BATCH,
                    lr: 1e-3,
                    seq_len: RECOVER_SEQ,
                    corpus_seed: seed,
                },
            }
        }
    };
    warm_up(&prepared);
    (prepared, info)
}

/// The untimed warm-up: the first [`WARM_UP_SESSIONS`] sessions of the
/// trace, the dense baseline point of the sweep, or one recovery step.
/// The baseline runs on one worker, so the set-up time depends neither on
/// how its seven uneven jobs are shared between workers nor on load on a
/// second core.
fn warm_up(p: &Prepared) {
    match p {
        Prepared::Serve { model, trace, cfg } => {
            serve(model, &trace[..WARM_UP_SESSIONS], cfg, "perfbench-warm-up");
        }
        Prepared::Sweep {
            model,
            world,
            opts,
            benches,
        } => {
            executor(model, world, opts)
                .with_workers(1)
                .baseline(benches);
        }
        Prepared::Finetune { model, world, opts } => {
            let mut m = model.clone();
            recover(&mut m, world, &RecoveryOptions { steps: 1, ..*opts });
        }
    }
}

/// A sweep executor with a cold decomposition cache and the fault plan
/// pinned off (`StudyExecutor::new` would read `LRD_FAULTS`).
fn executor<'a>(
    model: &'a TransformerLm,
    world: &'a World,
    opts: &EvalOptions,
) -> StudyExecutor<'a> {
    StudyExecutor::new(model, world, opts).with_faults(FaultPlan::default())
}

/// FNV-1a over the f64 bits of one point's per-benchmark accuracies.
fn point_digest(p: &StudyPoint) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, acc) in &p.results {
        for byte in acc.percent().to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs the workload's timed operation once.
pub fn run(p: &Prepared) -> Op {
    match p {
        Prepared::Serve { model, trace, cfg } => {
            let t = Stopwatch::start();
            let out = serve(model, trace, cfg, "perfbench");
            let (wall_s, cpu_s) = t.read();
            let r = &out.report;
            Op {
                wall_s,
                cpu_s,
                work: r.tokens as f64,
                outputs: vec![r.stream_checksum],
                sound: r.completed == SESSIONS as u64
                    && r.failed + r.rejected + r.shed + r.timed_out == 0,
                serve: Some(out),
            }
        }
        Prepared::Sweep {
            model,
            world,
            opts,
            benches,
        } => {
            let ex = executor(model, world, opts);
            let t = Stopwatch::start();
            let points = ex.case_study(benches);
            let (wall_s, cpu_s) = t.read();
            let scored: usize = points
                .iter()
                .flat_map(|pt| pt.results.iter().map(|(_, a)| a.total))
                .sum();
            Op {
                wall_s,
                cpu_s,
                work: scored as f64,
                outputs: points.iter().map(point_digest).collect(),
                sound: !points.is_empty() && points.iter().all(|pt| !pt.is_failed()),
                serve: None,
            }
        }
        Prepared::Finetune { model, world, opts } => {
            let mut m = model.clone();
            let t = Stopwatch::start();
            let r = recover(&mut m, world, opts);
            let (wall_s, cpu_s) = t.read();
            Op {
                wall_s,
                cpu_s,
                work: (opts.batch * opts.seq_len * opts.steps) as f64,
                outputs: vec![
                    u64::from(r.loss_before.to_bits()),
                    u64::from(r.loss_after.to_bits()),
                ],
                sound: r.steps == opts.steps
                    && r.loss_before.is_finite()
                    && r.loss_after.is_finite(),
                serve: None,
            }
        }
    }
}

/// Recomputes the outputs through an independent path of the program and
/// compares them with `first`: the sequential serving baseline, or the
/// sweep on one worker without the decomposition cache. Recovery has no
/// second path; its repeats and golden values are the check. Returns
/// `None` when there is nothing to run.
pub fn reference_agrees(p: &Prepared, first: &Op) -> Option<bool> {
    match p {
        Prepared::Serve { model, trace, cfg } => {
            let seq = serve_sequential(model, trace, cfg, "perfbench-sequential");
            Some(vec![seq.report.stream_checksum] == first.outputs)
        }
        Prepared::Sweep {
            model,
            world,
            opts,
            benches,
        } => {
            let points = executor(model, world, opts)
                .with_workers(1)
                .with_cache(false)
                .case_study(benches);
            let digests: Vec<u64> = points.iter().map(point_digest).collect();
            Some(digests == first.outputs)
        }
        Prepared::Finetune { .. } => None,
    }
}

/// The model the workload runs, for the per-layer replays.
pub fn model(p: &Prepared) -> &TransformerLm {
    match p {
        Prepared::Serve { model, .. }
        | Prepared::Sweep { model, .. }
        | Prepared::Finetune { model, .. } => model,
    }
}
