//! The repository's benchmark: dense vs factored serving, the Table-4
//! case-study sweep and recovery fine-tuning, timed end to end, with a
//! traced run that breaks the time down by layer. See `README.md`.
//!
//! ```text
//! lrd-perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! lrd-perfbench --write-golden <first seed> <last seed>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records the seed and the input it selects, the kernel
//! backend and dtype, and the checked outputs.

mod golden;
mod layers;
mod out;
mod probe;
mod stats;
mod work;

use std::process::exit;
use std::time::{Duration, Instant};

use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_trace::json::Json;

use golden::Tally;
use layers::{Delta, Snapshot};
use out::{hex, Metrics};
use probe::Probe;
use stats::median;
use work::{Op, Prepared, Workload};

/// Environment variables that change what the program computes; a run
/// under any of them would not measure the configuration the golden
/// values pin.
const REFUSED_ENV: [&str; 4] = [
    "LRD_FAULTS",
    "LRD_FAULTS_SEED",
    "LRD_FORCE_SCALAR",
    "LRD_KERNEL_DTYPE",
];

/// Threads any one GEMM may use, in every workload and in the traced
/// replays. Of the timed operations only recovery has GEMMs big enough
/// to split: the sweep's workers already cap themselves at one thread,
/// and decode shapes stay under the split threshold. Split over both
/// cores of a shared 2-vCPU host, a `recover` call was slower and swung
/// with load on the other core: 0.71–1.31 s per call over five runs,
/// against 0.64–0.72 s on one thread. The benchmark pins one thread so
/// that its numbers repeat.
const GEMM_THREADS: usize = 1;
/// Fewest rounds of an untraced run, however long each takes.
const MIN_ROUNDS: usize = 3;
/// Timed operations per set-up in an untraced run: set-up samples only
/// need a median, while the operations carry the run's main metric.
const OPS_PER_SETUP: usize = 2;
/// The seed held out from tuning, for checking later claims.
const HELD_OUT_SEED: u64 = 7919;

const USAGE: &str =
    "usage: lrd-perfbench --workload <serve-dense|serve-factored|sweep-table4|finetune-recover> \
--seed <n> [--seconds <s>] [--trace 0|1]\n       \
lrd-perfbench --write-golden <first seed> <last seed>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteGolden(u64, u64),
}

fn parse_u64(flag: &str, v: Option<&String>) -> Result<u64, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a non-negative integer"))
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("--write-golden") {
        let first = parse_u64("--write-golden", argv.get(1))?;
        let last = parse_u64("--write-golden", argv.get(2))?;
        if argv.len() != 3 || last < first {
            return Err("--write-golden takes <first seed> <last seed>, first <= last".into());
        }
        return Ok(Command::WriteGolden(first, last));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next();
        match flag.as_str() {
            "--workload" => {
                let name = v.ok_or("--workload needs a value")?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("--workload: unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(parse_u64(flag, v)?),
            "--seconds" => {
                seconds = parse_u64(flag, v)?;
                if seconds == 0 {
                    return Err("--seconds: must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match v.map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The first refused variable that `is_set` reports as set.
fn refused_var(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    REFUSED_ENV.into_iter().find(|v| is_set(v))
}

/// Caps glibc malloc at one arena per busy thread: the main thread plus
/// one per sweep worker (the executor's default pool is one worker per
/// core). Uncapped, each sweep starts fresh workers that may take a new
/// arena or reuse an old one, so the sweep's peak resident set flips
/// between levels from run to run; capped, the same arenas serve every
/// sweep and it repeats, with enough of them that the workers need not
/// share one (one arena for all threads slows the sweep by a third). It
/// must run before the process starts a thread. Returns the cap, or 0
/// where the allocator is not glibc's and nothing was set.
fn pin_malloc_arenas(nproc: usize) -> usize {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// glibc's `M_ARENA_MAX` parameter of `mallopt`.
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        let arenas = nproc + 1;
        // SAFETY: `mallopt` only sets an allocator parameter, and no other
        // thread exists yet to allocate concurrently.
        let set = unsafe { mallopt(M_ARENA_MAX, i32::try_from(arenas).unwrap_or(i32::MAX)) };
        if set == 1 {
            return arenas;
        }
    }
    let _ = nproc;
    0
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed operations of one run.
struct Window {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    /// The first operation's outputs and work; every later one must match.
    outputs: Vec<u64>,
    work: f64,
}

impl Window {
    fn new() -> Window {
        Window {
            walls: Vec::new(),
            cpus: Vec::new(),
            outputs: Vec::new(),
            work: 0.0,
        }
    }

    /// Checks `op` and adds it to the window.
    fn push(&mut self, w: Workload, op: &Op, golden: Option<&[u64]>, tally: &mut Tally) {
        if self.walls.is_empty() {
            self.outputs.clone_from(&op.outputs);
            self.work = op.work;
        }
        let what = format!("{} op {}", w.name(), self.walls.len());
        tally.check_outputs(&what, op.sound, &op.outputs, golden, &self.outputs);
        self.walls.push(op.wall_s);
        self.cpus.push(op.cpu_s);
    }
}

/// Checks the first operation's outputs against the program's
/// independent path, once per run and outside the timed window.
fn check_reference(w: Workload, p: &Prepared, first: &Op, tally: &mut Tally) {
    if let Some(ok) = work::reference_agrees(p, first) {
        tally.record(ok, &format!("{}: reference path disagrees", w.name()));
    }
}

/// What the untraced run measured besides its metrics, for the `run`
/// line: the unscaled medians and the probe's.
struct Raw {
    probe_s: f64,
    setup_cpu_s: f64,
    op_cpu_s: f64,
    setup_wall_s: f64,
    op_wall_s: f64,
}

/// The untraced run: the end-to-end metrics. It repeats rounds of one
/// timed set-up and [`OPS_PER_SETUP`] timed operations for `--seconds`
/// seconds, so its set-ups are spread over the whole window as its
/// operations are, rather than bunched at the start. The first set-up is
/// timed from process start. Times are CPU time ([`work::cpu_now`]),
/// and the host-speed probe runs after every operation; the reported
/// times are medians of CPU times each scaled by its nearest probe
/// ([`probe::scaled`]).
fn untraced(
    a: &Args,
    start: Instant,
    golden: Option<&[u64]>,
    tally: &mut Tally,
) -> (Metrics, Window, Raw) {
    let (mut setup_cpu, mut setup_wall, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut win = Window::new();
    let mut first = None;
    let mut prepared = None;
    let mut probe = None;
    let t0 = Instant::now();
    while setup_cpu.len() < MIN_ROUNDS || t0.elapsed() < Duration::from_secs(a.seconds) {
        let (wall, cpu) = if setup_cpu.is_empty() {
            (start, 0.0)
        } else {
            (Instant::now(), work::cpu_now())
        };
        drop(prepared.take());
        let p = prepared.insert(work::setup(a.workload, a.seed).0);
        setup_cpu.push(work::cpu_now() - cpu);
        setup_wall.push(wall.elapsed().as_secs_f64());
        let probe = probe.get_or_insert_with(Probe::new);
        for _ in 0..OPS_PER_SETUP {
            let op = work::run(p);
            win.push(a.workload, &op, golden, tally);
            first.get_or_insert(op);
            probes.push(probe.time());
        }
    }
    let p = prepared.expect("at least one set-up");
    check_reference(a.workload, &p, &first.expect("one op ran"), tally);
    // Each time is scaled by the probe that ran closest after it: an
    // operation by its own, a set-up by the one after its round's first
    // operation.
    let op_scaled: Vec<f64> = win
        .cpus
        .iter()
        .zip(&probes)
        .map(|(&t, &p)| probe::scaled(t, p))
        .collect();
    let setup_scaled: Vec<f64> = setup_cpu
        .iter()
        .zip(probes.iter().step_by(OPS_PER_SETUP))
        .map(|(&t, &p)| probe::scaled(t, p))
        .collect();
    let raw = Raw {
        probe_s: median(&probes),
        setup_cpu_s: median(&setup_cpu),
        op_cpu_s: median(&win.cpus),
        setup_wall_s: median(&setup_wall),
        op_wall_s: median(&win.walls),
    };
    let mut m = Metrics::new(false);
    m.set("setup_s", median(&setup_scaled));
    m.set("op_s", median(&op_scaled));
    m.set("peak_rss_mb", peak_rss_mb() - probe::RESIDENT_MB);
    (m, win, raw)
}

/// The traced run: per-layer metrics, and the cost of tracing the
/// operation against running it plain.
fn traced(a: &Args, golden: Option<&[u64]>, tally: &mut Tally) -> (Metrics, Window) {
    let w = a.workload;
    let s0 = Snapshot::take();
    let (p, info) = {
        let _span = lrd_trace::span("bench.setup", w.name());
        work::setup(w, a.seed)
    };
    let s1 = Snapshot::take();
    let (mut plain, mut win) = (Window::new(), Window::new());
    let mut last = None;
    let t0 = Instant::now();
    while win.walls.len() < 2 || t0.elapsed() < Duration::from_secs(a.seconds) {
        let op = work::run(&p);
        plain.push(w, &op, golden, tally);
        let before = Snapshot::take();
        let op = {
            let _span = lrd_trace::span("bench.op", w.name());
            work::run(&p)
        };
        let after = Snapshot::take();
        win.push(w, &op, golden, tally);
        last = Some((before, after, op));
    }
    let (before, after, op) = last.expect("one traced op ran");
    check_reference(w, &p, &op, tally);

    let mut m = Metrics::new(true);
    let (traced_s, plain_s) = (median(&win.cpus), median(&plain.cpus));
    m.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    let op_delta = Delta::between(&before, &after);
    layers::record_counters(&mut m, &op_delta, &Delta::between(&s0, &s1));
    m.set(
        "core.decompose_s",
        info.decompose_s + op_delta.span_s("decompose", None),
    );
    if let Prepared::Serve { model, trace, cfg } = &p {
        let out = op.serve.as_ref().expect("serve op keeps its outcome");
        layers::record_serve(&mut m, &out.report, op.cpu_s);
        let _span = lrd_trace::span("bench.replay", "decode schedule");
        let mut step_ms = Vec::new();
        for _ in 0..2 {
            let (ms, checksum) = layers::replay_steps(model, trace, cfg.max_batch);
            if ms.len() as u64 != out.report.batches || checksum != out.report.stream_checksum {
                // The replay copies the server's schedule; once they part,
                // its step times no longer describe the server.
                eprintln!("perfbench: the replayed decode schedule differs from the server's; serve.itl_* not reported");
                step_ms.clear();
                break;
            }
            step_ms.extend(ms);
        }
        layers::record_itl(&mut m, &step_ms);
    }
    if w == Workload::FinetuneRecover {
        m.set("core.recover_s", op.cpu_s);
    }
    {
        let _span = lrd_trace::span("bench.replay", "layers");
        layers::record_replays(&mut m, work::model(&p));
    }
    (m, win)
}

/// The kernel backend and dtype this process computes with.
fn kernel() -> golden::Kernel<'static> {
    (Backend::active().name(), KernelDtype::active().name())
}

/// Prints a golden table for seeds `first..=last` of every workload.
fn write_golden(first: u64, last: u64) {
    let mut doc = Vec::new();
    for w in Workload::ALL {
        let mut entries = Vec::new();
        for seed in first..=last {
            let (p, _) = work::setup(w, seed);
            let op = work::run(&p);
            if !op.sound || work::reference_agrees(&p, &op) == Some(false) {
                eprintln!("perfbench: {} seed {seed} fails its own checks", w.name());
                exit(1);
            }
            eprintln!("perfbench: {} seed {seed}", w.name());
            entries.push((seed, op.outputs));
        }
        doc.push((w.name(), golden::table(&entries)));
    }
    println!("{}", golden::document(kernel(), doc).render());
}

fn main() {
    let start = Instant::now();
    // Where the CPU clock is missing, this starts its wall-clock stand-in.
    work::cpu_now();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let malloc_arenas = pin_malloc_arenas(nproc);
    lrd_tensor::matmul::set_thread_limit(GEMM_THREADS);
    if let Some(var) = refused_var(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the computation the benchmark pins");
        exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(Command::Run(a)) => a,
        Ok(Command::WriteGolden(first, last)) => {
            write_golden(first, last);
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let mut tally = Tally::default();
    let golden = golden::lookup(a.workload.name(), a.seed, kernel());
    if golden.is_none() {
        eprintln!(
            "perfbench: no golden values for {} at seed {} on {}/{}; checking repeats and the reference path only",
            a.workload.name(),
            a.seed,
            kernel().0,
            kernel().1
        );
    }
    let (metrics, win, raw) = if a.trace {
        let (m, win) = traced(&a, golden.as_deref(), &mut tally);
        (m, win, None)
    } else {
        let (m, win, raw) = untraced(&a, start, golden.as_deref(), &mut tally);
        (m, win, Some(raw))
    };
    let mut info = vec![
        ("workload", Json::str(a.workload.name())),
        (a.workload.seed_role(), Json::str(a.seed.to_string())),
        ("held_out_seed", Json::str(HELD_OUT_SEED.to_string())),
        (
            "golden",
            Json::str(if golden.is_some() {
                "checked"
            } else {
                "absent"
            }),
        ),
        (
            "outputs",
            Json::Arr(win.outputs.iter().map(|&v| Json::str(hex(v))).collect()),
        ),
        ("work_per_op", Json::num(win.work)),
        ("work_unit", Json::str(a.workload.work_unit())),
        ("backend", Json::str(Backend::active().name())),
        ("kernel_dtype", Json::str(KernelDtype::active().name())),
        ("nproc", Json::num(nproc as f64)),
        ("malloc_arenas", Json::num(malloc_arenas as f64)),
        ("gemm_threads", Json::num(GEMM_THREADS as f64)),
        ("seconds", Json::num(a.seconds as f64)),
        ("traced", Json::Bool(a.trace)),
        ("clock", Json::str("process CPU time")),
        ("bytes_moved", Json::str("computed from tensor sizes")),
    ];
    if let Some(r) = raw {
        info.extend([
            ("probe_s", Json::num(r.probe_s)),
            ("reference_probe_s", Json::num(probe::REFERENCE_PROBE_S)),
            ("setup_cpu_s", Json::num(r.setup_cpu_s)),
            ("op_cpu_s", Json::num(r.op_cpu_s)),
            ("setup_wall_s", Json::num(r.setup_wall_s)),
            ("op_wall_s", Json::num(r.op_wall_s)),
        ]);
    }
    println!("run {}", Json::obj(info).render_compact());
    println!("{}", metrics.result_line(tally.attempted, tally.failed));
    exit(i32::from(tally.failed > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Command, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn every_program_changing_variable_is_refused_by_name() {
        assert_eq!(refused_var(|_| false), None);
        for var in [
            "LRD_FAULTS",
            "LRD_FAULTS_SEED",
            "LRD_FORCE_SCALAR",
            "LRD_KERNEL_DTYPE",
        ] {
            assert_eq!(refused_var(|v| v == var), Some(var));
        }
    }

    #[test]
    fn arguments_parse_and_bad_values_are_errors() {
        let Ok(Command::Run(a)) = args("--workload sweep-table4 --seed 5 --seconds 3 --trace 1")
        else {
            panic!("valid arguments rejected");
        };
        assert_eq!(a.workload, Workload::SweepTable4);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 3, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload serve-dense",
            "--seed 1",
            "--workload serve-dense --seed -1",
            "--workload serve-dense --seed 1 --seconds 0",
            "--workload serve-dense --seed 1 --trace 2",
            "--workload serve-dense --seed 1 --bogus 1",
            "--workload serve-dense --seed 1 --eval-seed 2",
            "--write-golden 5 4",
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
