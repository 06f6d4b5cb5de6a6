//! Per-layer measurements of the traced run.
//!
//! Three sources, none of which adds tracing inside the program:
//! counter and GEMM-matrix deltas and the program's own `score` and
//! `decompose` spans across one operation; the harness's timing of its
//! own calls into public functions of each layer, replayed at the
//! workload's shapes; and, for serving, a replay of the server's batch
//! schedule that times every decode step on its own. Bytes moved by the
//! kernel replays are computed from tensor sizes, not measured.

use std::collections::VecDeque;
use std::time::Instant;

use lrd_nn::act::cross_entropy;
use lrd_nn::attention::KvCache;
use lrd_nn::block::TransformerBlock;
use lrd_nn::model::FinalNorm;
use lrd_nn::optim::{clip_global_norm, AdamW};
use lrd_nn::train::Batch;
use lrd_nn::{DecodeState, TransformerLm};
use lrd_serve::{argmax, stream_checksum, Completion, Request, ServeReport};
use lrd_tensor::matmul::{matmul_transb, FactoredPlan};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;
use lrd_trace::counters::{gemm_snapshot, snapshot};
use lrd_trace::span::SpanRecord;

use crate::out::{bench_key, Metrics, SLOTS};
use crate::stats::{median, percentile, supports_percentile};
use crate::work::{RECOVER_BATCH, RECOVER_SEQ};

/// Repetitions of each replayed call; the median is reported.
const REPS: usize = 5;
/// Decode replays start this deep into the 64-token context window and
/// advance [`DECODE_STEPS`] positions, so they straddle its middle.
const MID_START: usize = 24;
const DECODE_STEPS: usize = 16;
/// Decode batch height of the per-op replays.
const B32: usize = 32;
/// Prefill replay shape: an eval batch of 64 rows of 16 tokens.
const PREFILL_BATCH: usize = 64;
const PREFILL_SEQ: usize = 16;

/// Program counters, GEMM matrix and completed-span count at one instant.
pub struct Snapshot {
    counters: Vec<(&'static str, u64)>,
    gemm: Vec<(&'static str, u64, u64)>,
    spans: usize,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot {
            counters: snapshot(),
            gemm: gemm_snapshot()
                .into_iter()
                .map(|g| (g.variant, g.calls, g.flops))
                .collect(),
            spans: lrd_trace::span::snapshot().len(),
        }
    }

    /// Calls and FLOPs of one GEMM variant, summed over backends and dtypes.
    fn gemm(&self, variant: &str) -> (u64, u64) {
        self.gemm
            .iter()
            .filter(|g| g.0 == variant)
            .fold((0, 0), |acc, g| (acc.0 + g.1, acc.1 + g.2))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |x| x.1)
    }
}

/// What changed between two snapshots.
pub struct Delta<'a> {
    a: &'a Snapshot,
    b: &'a Snapshot,
    /// Spans completed in between.
    spans: Vec<SpanRecord>,
}

impl<'a> Delta<'a> {
    pub fn between(a: &'a Snapshot, b: &'a Snapshot) -> Delta<'a> {
        let all = lrd_trace::span::snapshot();
        let spans = all.get(a.spans..b.spans).unwrap_or_default().to_vec();
        Delta { a, b, spans }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.b.counter(name) - self.a.counter(name)
    }

    fn gemm(&self, variant: &str) -> (u64, u64) {
        let (a, b) = (self.a.gemm(variant), self.b.gemm(variant));
        (b.0 - a.0, b.1 - a.1)
    }

    /// Seconds spent in completed program spans named `name`, and
    /// labelled `label` when given.
    pub fn span_s(&self, name: &str, label: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.dur_us as f64 * 1e-6)
            .sum()
    }
}

/// Median seconds of `f` over [`REPS`] calls.
fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Counter, GEMM and span metrics over one operation; the SVD counters
/// over set-up plus that operation, because the serve and recovery
/// workloads decompose in set-up.
pub fn record_counters(m: &mut Metrics, op: &Delta, svd_setup: &Delta) {
    for v in lrd_trace::counters::GEMM_VARIANTS {
        let (calls, flops) = op.gemm(v.name());
        m.set(&format!("tensor.gemm_calls.{}", v.name()), calls as f64);
        m.set(
            &format!("tensor.gemm_gflop.{}", v.name()),
            flops as f64 * 1e-9,
        );
    }
    m.set(
        "tensor.gemm_bytes_packed",
        op.counter("gemm_bytes_packed") as f64,
    );
    for n in [
        "svd_jacobi_calls",
        "svd_jacobi_sweeps",
        "svd_randomized_calls",
    ] {
        m.set(
            &format!("tensor.{n}"),
            (svd_setup.counter(n) + op.counter(n)) as f64,
        );
    }
    let (hits, misses) = (op.counter("cache_hits"), op.counter("cache_misses"));
    m.set("core.cache_hits", hits as f64);
    m.set("core.cache_misses", misses as f64);
    if hits + misses > 0 {
        m.set("core.cache_hit_rate", hits as f64 / (hits + misses) as f64);
    }
    for n in [
        "executor_jobs",
        "executor_queue_wait_us",
        "executor_run_us",
        "sweep_points",
        "sweep_points_failed",
    ] {
        m.set(&format!("core.{n}"), op.counter(n) as f64);
    }
    let mut score_s = 0.0;
    for b in lrd_eval::tasks::registry() {
        let s = op.span_s("score", Some(b.name()));
        m.set(&format!("eval.score_s.{}", bench_key(b.name())), s);
        score_s += s;
    }
    let scored = op.counter("eval_samples_scored") as f64;
    m.set("eval.samples_scored", scored);
    if score_s > 0.0 {
        m.set("eval.samples_per_s", scored / score_s);
    }
}

/// Serve-layer metrics from one serve pass.
pub fn record_serve(m: &mut Metrics, r: &ServeReport, loop_s: f64) {
    m.set("serve.loop_s", loop_s);
    m.set("serve.decode_steps", r.batches as f64);
    m.set("serve.mean_batch", r.mean_batch);
    m.set("serve.sessions_completed", r.completed as f64);
    m.set("serve.sessions_failed", r.failed as f64);
    // One TTFT sample per completed session: of 200, ten lie beyond the
    // nearest-rank p95 and two beyond the p99, which is not reported.
    let n = r.ttft_ms.count as usize;
    if supports_percentile(n, 50.0) {
        m.set("serve.ttft_p50_ms", r.ttft_ms.p50);
    }
    if supports_percentile(n, 95.0) {
        m.set("serve.ttft_p95_ms", r.ttft_ms.p95);
    }
}

/// One in-flight session of the schedule replay.
struct Session {
    id: usize,
    prompt: Vec<usize>,
    gen_len: usize,
    fed: usize,
    produced: Vec<usize>,
    state: DecodeState,
}

/// Replays `lrd_serve::serve`'s fault-free schedule (unbounded queue,
/// FIFO admission up to `max_batch`, order-stable eviction) and times
/// every `decode_step_many` call on its own: `ServeReport::per_token_ms`
/// repeats one step's time for every row of its batch, so its tail rests
/// on a handful of steps. Returns the time of each decode step in ms and
/// the stream checksum. The step times describe the server only while
/// the step count and checksum equal the server's; the caller drops them
/// otherwise.
pub fn replay_steps(model: &TransformerLm, trace: &[Request], max_batch: usize) -> (Vec<f64>, u64) {
    let max_seq = model.config().max_seq;
    let mut order: Vec<usize> = (0..trace.len()).collect();
    order.sort_by_key(|&i| (trace[i].arrival_step, trace[i].id));
    let (mut next, mut step) = (0usize, 0u64);
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut running: Vec<Session> = Vec::new();
    let mut done: Vec<Completion> = Vec::new();
    let mut step_ms = Vec::new();
    loop {
        while next < order.len() && trace[order[next]].arrival_step <= step {
            queue.push_back(order[next]);
            next += 1;
        }
        while running.len() < max_batch {
            let Some(i) = queue.pop_front() else { break };
            running.push(Session {
                id: trace[i].id,
                prompt: trace[i].prompt.clone(),
                gen_len: trace[i].gen_len,
                fed: 0,
                produced: Vec::new(),
                state: model.new_decode_state(),
            });
        }
        if running.is_empty() {
            match order.get(next) {
                Some(&i) => {
                    step = trace[i].arrival_step;
                    continue;
                }
                None => break,
            }
        }
        let tokens: Vec<usize> = running
            .iter()
            .map(|s| match s.prompt.get(s.fed) {
                Some(&t) => t,
                None => s.produced.last().copied().unwrap_or(0),
            })
            .collect();
        let mut states: Vec<&mut DecodeState> = running.iter_mut().map(|s| &mut s.state).collect();
        let t = Instant::now();
        let logits = model
            .decode_step_many(&tokens, &mut states)
            .expect("replayed decode step");
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut still = Vec::with_capacity(running.len());
        for (row, mut s) in running.drain(..).enumerate() {
            if s.fed < s.prompt.len() {
                s.fed += 1;
            }
            if s.fed >= s.prompt.len() && s.produced.len() < s.gen_len {
                s.produced.push(argmax(logits.row(row)));
            }
            if s.produced.len() >= s.gen_len || s.state.len() >= max_seq {
                done.push(Completion {
                    id: s.id,
                    tokens: s.produced,
                });
            } else {
                still.push(s);
            }
        }
        running = still;
        step += 1;
    }
    (step_ms, stream_checksum(&done))
}

/// Records the replayed decode-step percentiles.
pub fn record_itl(m: &mut Metrics, step_ms: &[f64]) {
    if let Some(p50) = percentile(step_ms, 50.0) {
        m.set("serve.itl_p50_ms", p50);
    }
    if let Some(p99) = percentile(step_ms, 99.0) {
        m.set("serve.itl_p99_ms", p99);
    }
}

/// Deterministic token ids for the replays.
fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 31 + salt * 7 + 3) % vocab).collect()
}

/// `b` decode states advanced to [`MID_START`].
fn mid_states(model: &TransformerLm, b: usize) -> Vec<DecodeState> {
    let vocab = model.config().vocab_size;
    let mut states: Vec<DecodeState> = (0..b).map(|_| model.new_decode_state()).collect();
    for pos in 0..MID_START {
        let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
        model
            .decode_step_many(&tokens(b, vocab, pos), &mut refs)
            .expect("warm decode step");
    }
    states
}

/// Median ms of one `decode_step_many` at batch `b` from mid-context.
fn decode_step_ms(model: &TransformerLm, b: usize) -> f64 {
    let vocab = model.config().vocab_size;
    let start = mid_states(model, b);
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let mut states = start.clone();
        for step in 0..DECODE_STEPS {
            let toks = tokens(b, vocab, MID_START + step);
            let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
            let t = Instant::now();
            let out = model
                .decode_step_many(&toks, &mut refs)
                .expect("decode step");
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(out);
        }
    }
    median(&samples)
}

/// Per-op decode replays at batch 32, each summed over the model's
/// layers (µs per decode step), and per-slot projection times averaged
/// over the layers holding a dense or a factored slot.
fn record_decode_ops(m: &mut Metrics, model: &TransformerLm, rng: &mut Rng64) {
    let c = model.config();
    let width = c.n_kv_heads * (c.d_model / c.n_heads);
    let x = Tensor::randn(&[B32, c.d_model], rng);
    let mut template = KvCache::with_bounds(c.max_seq, width);
    for _ in 0..MID_START {
        let k = Tensor::randn(&[1, width], rng);
        template
            .push(k.data(), k.data())
            .expect("template cache has room");
    }
    let (mut attn, mut mlp, mut norm) = (0.0, 0.0, 0.0);
    for block in &model.blocks {
        let TransformerBlock::Decoder(b) = block else {
            continue;
        };
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let mut caches: Vec<KvCache> = (0..B32).map(|_| template.clone()).collect();
            for step in 0..DECODE_STEPS {
                let positions = vec![MID_START + step; B32];
                let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
                let t = Instant::now();
                let out = b
                    .attn
                    .decode_step_many(&x, &positions, &mut refs)
                    .expect("attention step");
                samples.push(t.elapsed().as_secs_f64());
                std::hint::black_box(out);
            }
        }
        attn += median(&samples);
        mlp += time_median(|| {
            std::hint::black_box(b.mlp.infer(&x));
        });
        norm += time_median(|| {
            std::hint::black_box(b.norm1.infer(&x));
        });
        norm += time_median(|| {
            std::hint::black_box(b.norm2.infer(&x));
        });
    }
    if let FinalNorm::Rms(n) = &model.final_norm {
        norm += time_median(|| {
            std::hint::black_box(n.infer(&x));
        });
    }
    let head = time_median(|| {
        std::hint::black_box(model.lm_head.infer(&x));
    });
    m.set("nn.attn_decode_us.b32", attn * 1e6);
    m.set("nn.mlp_infer_us.b32", mlp * 1e6);
    m.set("nn.norm_infer_us.b32", norm * 1e6);
    m.set("nn.lm_head_us.b32", head * 1e6);

    let mut probe = model.clone();
    let mut sums = [[(0.0f64, 0usize); SLOTS.len()]; 2];
    for (_, name, slot) in probe.visit_linears() {
        let Some(i) = SLOTS.iter().position(|s| *s == name) else {
            continue;
        };
        let xin = Tensor::randn(&[B32, slot.fan_in()], rng);
        let s = time_median(|| {
            std::hint::black_box(slot.infer(&xin));
        });
        let cell = &mut sums[usize::from(slot.is_factored())][i];
        cell.0 += s;
        cell.1 += 1;
    }
    for (k, kind) in ["dense", "factored"].into_iter().enumerate() {
        for (i, slot) in SLOTS.iter().enumerate() {
            let (s, n) = sums[k][i];
            if n > 0 {
                m.set(
                    &format!("nn.linear_infer_us.{kind}.{slot}.b32"),
                    s / n as f64 * 1e6,
                );
            }
        }
    }
}

/// Training replays at the recovery shape: forward, backward, and the
/// rest of `Trainer::step` (loss, gradient clipping, AdamW) through the
/// same public functions the trainer calls.
fn record_train(m: &mut Metrics, model: &TransformerLm) {
    let c = model.config();
    let seqs: Vec<Vec<usize>> = (0..RECOVER_BATCH)
        .map(|b| tokens(RECOVER_SEQ + 1, c.vocab_size, b))
        .collect();
    let batch = Batch::next_token(&seqs);
    let fwd = time_median(|| {
        std::hint::black_box(model.forward(&batch.tokens, batch.batch));
    });
    let (logits, cache) = model.forward(&batch.tokens, batch.batch);
    let (_, dlogits) = cross_entropy(&logits, &batch.targets);
    let mut trained = model.clone();
    let bwd = time_median(|| trained.backward(&cache, &dlogits));
    let mut opt = AdamW::new(1e-3);
    let optim = time_median(|| {
        std::hint::black_box(cross_entropy(&logits, &batch.targets));
        let mut params = trained.visit_params();
        clip_global_norm(&mut params, 1.0);
        opt.step(&mut params);
    });
    m.set("nn.forward_ms.train", fwd * 1e3);
    m.set("nn.backward_ms.train", bwd * 1e3);
    m.set("nn.optim_ms.train", optim * 1e3);
}

/// GFLOP/s of `f`, doing `flops` per call, over enough calls for a
/// measurable interval; the median of [`REPS`] such intervals.
fn rate(flops: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-7);
    let calls = ((2e-3 / one) as usize).clamp(1, 10_000);
    let s = time_median(|| {
        for _ in 0..calls {
            f();
        }
    });
    flops * calls as f64 / s * 1e-9
}

/// Kernel replays at the decode (32 rows) and prefill (1024 rows) shapes
/// of the `d_model → d_ff` projection; the factored plan at rank 1.
fn record_kernels(m: &mut Metrics, model: &TransformerLm, rng: &mut Rng64) {
    let c = model.config();
    let (k, n, r) = (c.d_model, c.d_ff, 1usize);
    let b = Tensor::randn(&[n, k], rng);
    let (u1, core, u2) = (
        Tensor::randn(&[k, r], rng),
        Tensor::randn(&[r, r], rng),
        Tensor::randn(&[r, n], rng),
    );
    let plan = FactoredPlan::new(&u1, &core, &u2);
    for (shape, rows) in [("decode", B32), ("prefill", PREFILL_BATCH * PREFILL_SEQ)] {
        let a = Tensor::randn(&[rows, k], rng);
        let flops = (2 * rows * k * n) as f64;
        let bytes = (4 * (rows * k + n * k + rows * n)) as f64;
        let g = rate(flops, || {
            std::hint::black_box(matmul_transb(&a, &b));
        });
        m.set(&format!("tensor.matmul_transb_gflops.{shape}"), g);
        m.set(
            &format!("tensor.matmul_transb_gbps.{shape}"),
            g * bytes / flops,
        );
        let flops = (2 * rows * (k * r + r * r + r * n)) as f64;
        let bytes = (4 * (rows * k + k * r + r * r + r * n + rows * n)) as f64;
        let g = rate(flops, || {
            std::hint::black_box(plan.matmul(&a));
        });
        m.set(&format!("tensor.factored_plan_gflops.{shape}"), g);
        m.set(
            &format!("tensor.factored_plan_gbps.{shape}"),
            g * bytes / flops,
        );
    }
}

/// Every replay of the model's layers and kernels.
pub fn record_replays(m: &mut Metrics, model: &TransformerLm) {
    let mut rng = Rng64::new(0x5EED);
    for b in [1, 8, B32] {
        m.set(&format!("nn.decode_step_ms.b{b}"), decode_step_ms(model, b));
    }
    record_decode_ops(m, model, &mut rng);
    let prefill = tokens(PREFILL_BATCH * PREFILL_SEQ, model.config().vocab_size, 1);
    let logits = time_median(|| {
        std::hint::black_box(model.logits(&prefill, PREFILL_BATCH));
    });
    m.set("nn.logits_ms.prefill", logits * 1e3);
    record_train(m, model);
    record_kernels(m, model, &mut rng);
}
