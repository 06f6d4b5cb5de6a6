//! Sweep-level execution: a bounded worker pool for independent study
//! evaluations plus a memoized decomposition cache.
//!
//! Study drivers enumerate many [`crate::space::DecompositionConfig`]s and
//! evaluate each one on a clone of the same base model. Two observations make
//! that embarrassingly parallel *and* redundant:
//!
//! 1. Every sweep point is independent: it clones the base model, decomposes
//!    it, and scores it on fixed-seed benchmarks. [`run_jobs_isolated`] runs
//!    those points across a bounded pool of scoped worker threads, each under
//!    `catch_unwind`, and writes each outcome into its original index slot,
//!    so the output order (and therefore every downstream reduction) is
//!    identical to the sequential path.
//! 2. Sweep points overlap heavily in the factorizations they need: the
//!    Tucker-2 factors of a tensor slot depend only on (layer index, tensor
//!    slot name, pruned rank) because every point starts from the same frozen
//!    base weights. [`DecompositionCache`] memoizes the factor pair and its
//!    reconstruction error under that key so repeated sweep points skip the
//!    SVD entirely.
//!
//! Thread budgeting composes with the per-eval thread budget in
//! `EvalOptions`: the total budget (``opts.threads``, or available
//! parallelism when 0) is split as ``workers × per-eval threads``, and while
//! a multi-worker pool is active the process-global GEMM thread limit in
//! `lrd-tensor` is pinned to 1 so nested matmul parallelism cannot
//! oversubscribe the host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lrd_tensor::error::TensorError;
use lrd_tensor::tucker::Tucker2;

/// Locks a mutex, tolerating poison: with panic isolation enabled a worker
/// can die between lock acquisitions without invalidating the shared state
/// (every slot is written exactly once, after the fallible work finished).
fn lock_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ceiling on pool size: the host's available parallelism, floored at 16 so
/// explicit budgets behave identically on small machines while many-core
/// hosts aren't silently throttled (mirrors the GEMM thread-cap policy in
/// `lrd-tensor`).
fn max_workers() -> usize {
    // lrd-lint: allow(determinism, "pool-size ceiling only; results are worker-count independent (pinned by the executor order tests)")
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
        .max(16)
}

/// How a total thread budget is split across a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerBudget {
    /// Number of sweep-point workers to spawn.
    pub workers: usize,
    /// Threads each worker may use inside one evaluation.
    pub eval_threads: usize,
}

/// Splits a total thread budget between sweep workers and per-eval threads.
///
/// `budget` is the total thread allowance (0 means "use available
/// parallelism"), `requested_workers` is an explicit pool size (0 means
/// auto), and `n_jobs` bounds the useful pool size. The product
/// `workers * eval_threads` never exceeds the budget: an explicit worker
/// request above the budget is clamped down rather than silently
/// oversubscribing the host with `workers × 1` threads.
pub fn worker_budget(budget: usize, requested_workers: usize, n_jobs: usize) -> WorkerBudget {
    let cap = max_workers();
    let budget = if budget == 0 {
        // lrd-lint: allow(determinism, "thread-budget default only; workers×eval_threads never changes results (proptest invariant)")
        std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1)
    } else {
        budget
    }
    .clamp(1, cap);
    let workers = if requested_workers == 0 {
        budget
    } else {
        requested_workers
    }
    .clamp(1, cap)
    .min(budget)
    .min(n_jobs.max(1));
    WorkerBudget {
        workers,
        eval_threads: (budget / workers).max(1),
    }
}

/// How one job of [`run_jobs_isolated`] settled.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job returned normally.
    Done(T),
    /// The job panicked; the payload's message is carried along.
    Panicked(String),
    /// The job overran the soft deadline and its result was discarded.
    TimedOut,
}

impl<T> JobOutcome<T> {
    /// The result, if the job completed normally.
    pub fn into_done(self) -> Option<T> {
        match self {
            JobOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as the
/// human-readable message it almost always carries.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// Per-job lifecycle for the isolated pool. Settling transitions
// (RUNNING→DONE by the worker, RUNNING→TIMED_OUT by the watchdog) race
// through compare-exchange: exactly one side wins and writes the slot.
const JOB_QUEUED: u8 = 0;
const JOB_RUNNING: u8 = 1;
const JOB_DONE: u8 = 2;
const JOB_TIMED_OUT: u8 = 3;

/// Runs one claimed job under `catch_unwind` and charges the executor
/// telemetry: queue wait from `pool_start` until the job was claimed at
/// `start`, run time from `start` until the job body returned.
fn run_job<T>(job: impl FnOnce() -> T, pool_start: Instant, start: Instant) -> JobOutcome<T> {
    lrd_trace::counters::add(
        lrd_trace::Counter::ExecutorQueueWaitUs,
        start.duration_since(pool_start).as_micros() as u64,
    );
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(v) => JobOutcome::Done(v),
        Err(payload) => JobOutcome::Panicked(panic_message(payload)),
    };
    lrd_trace::counters::add(
        lrd_trace::Counter::ExecutorRunUs,
        start.elapsed().as_micros() as u64,
    );
    outcome
}

/// Runs `jobs` on a pool of `workers` scoped threads and returns one
/// [`JobOutcome`] per job, in job order.
///
/// Jobs are claimed from a shared atomic cursor (dynamic load balancing)
/// and each outcome is written to the slot matching its job index, so the
/// returned vector is identical to running the jobs sequentially; with
/// `workers <= 1` and no deadline the jobs run inline on the caller's
/// thread. Every job runs under `catch_unwind`, so one panicking job
/// yields a [`JobOutcome::Panicked`] entry instead of tearing down the
/// whole sweep, and an optional per-job *soft deadline* marks overrunning
/// jobs [`JobOutcome::TimedOut`].
///
/// Deadline semantics (the honest kind): safe Rust cannot kill a thread,
/// so a job that overruns keeps its worker busy until it finishes on its
/// own — the watchdog only settles the job's *outcome* early (its eventual
/// result is discarded) so downstream consumers stop waiting on it
/// logically. The pool itself still joins every worker before returning.
/// With `deadline = None` and no panics every outcome is
/// [`JobOutcome::Done`].
pub fn run_jobs_isolated<T, F>(
    jobs: Vec<F>,
    workers: usize,
    deadline: Option<Duration>,
) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    lrd_trace::counters::add(lrd_trace::Counter::ExecutorJobs, n as u64);
    // Jobs are sweep-point granularity, so two `Instant` reads per job are
    // noise next to the work they time.
    // lrd-lint: allow(determinism, "queue-wait telemetry counter only; never reaches a result")
    let pool_start = Instant::now();
    let workers = workers.clamp(1, n);
    if workers == 1 && deadline.is_none() {
        // Inline path: isolation without a pool (bit-identical scheduling).
        return jobs
            .into_iter()
            // lrd-lint: allow(determinism, "queue-wait/run-time telemetry counters only; never reaches a result")
            .map(|job| run_job(job, pool_start, Instant::now()))
            .collect();
    }
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let results: Vec<Mutex<Option<JobOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let states: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(JOB_QUEUED)).collect();
    let starts: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let unsettled = AtomicUsize::new(n);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = lock_tolerant(&jobs[i])
                    .take()
                    // lrd-lint: allow(no-panic, "cursor fetch_add hands each index to exactly one worker; a slot is taken at most once")
                    .expect("job claimed twice");
                // lrd-lint: allow(determinism, "job start stamp: feeds the queue-wait/run-time telemetry counters and, under an explicit --deadline-s, the watchdog, whose soft-deadline semantics are documented as wall-clock dependent; a completed job's result never reads it")
                let start = Instant::now();
                *lock_tolerant(&starts[i]) = Some(start);
                states[i].store(JOB_RUNNING, Ordering::Release);
                let outcome = run_job(job, pool_start, start);
                if states[i]
                    .compare_exchange(JOB_RUNNING, JOB_DONE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    *lock_tolerant(&results[i]) = Some(outcome);
                    unsettled.fetch_sub(1, Ordering::AcqRel);
                }
                // Else the watchdog timed this job out first; the late
                // result is discarded.
            });
        }
        if let Some(deadline) = deadline {
            let (states, starts, results, unsettled) = (&states, &starts, &results, &unsettled);
            scope.spawn(move || {
                let tick =
                    (deadline / 20).clamp(Duration::from_millis(1), Duration::from_millis(50));
                while unsettled.load(Ordering::Acquire) > 0 {
                    for i in 0..n {
                        if states[i].load(Ordering::Acquire) != JOB_RUNNING {
                            continue;
                        }
                        let overran = lock_tolerant(&starts[i])
                            .map(|start| start.elapsed() > deadline)
                            .unwrap_or(false);
                        if overran
                            && states[i]
                                .compare_exchange(
                                    JOB_RUNNING,
                                    JOB_TIMED_OUT,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                        {
                            *lock_tolerant(&results[i]) = Some(JobOutcome::TimedOut);
                            unsettled.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                    std::thread::sleep(tick);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lrd-lint: allow(no-panic, "unsettled never hits zero until worker or watchdog wrote every slot; the scope joins both")
                .expect("job did not settle")
        })
        .collect()
}

/// Memoized Tucker-2 factors for one tensor slot of the base model.
#[derive(Debug, Clone)]
pub struct CachedFactor {
    /// The truncated factor pair `U1 · Γ · U2`.
    pub factor: Tucker2,
    /// Relative reconstruction error against the original weight.
    pub error: f32,
}

/// Key identifying one factorization of the frozen base model.
pub type FactorKey = (usize, &'static str, usize);

type Slot = Arc<OnceLock<Result<Arc<CachedFactor>, TensorError>>>;

/// Cache hit/miss counters snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a previously computed factor pair.
    pub hits: usize,
    /// Lookups that had to run the SVD.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe memoization of Tucker-2 decompositions keyed by
/// (layer index, tensor slot name, pruned rank).
///
/// Correctness rests on every sweep point decomposing a clone of the *same*
/// base model: `tucker2` is deterministic, so the factor pair for a key is a
/// pure function of the frozen base weights and can be shared across points
/// and across study drivers. Each key is computed at most once even under
/// concurrent lookups — losers of the insertion race block on the winner's
/// `OnceLock` rather than redoing the SVD.
#[derive(Debug, Default)]
pub struct DecompositionCache {
    map: Mutex<HashMap<FactorKey, Slot>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl DecompositionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized factor pair for `key`, computing it with
    /// `compute` on first use.
    ///
    /// Errors are *not* memoized: a failed computation (transient SVD
    /// non-convergence, an injected fault) evicts its slot so a later
    /// retry recomputes instead of replaying the cached failure forever.
    pub fn get_or_compute<F>(
        &self,
        key: FactorKey,
        compute: F,
    ) -> Result<Arc<CachedFactor>, TensorError>
    where
        F: FnOnce() -> Result<CachedFactor, TensorError>,
    {
        let slot = {
            let mut map = lock_tolerant(&self.map);
            if let Some(slot) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                lrd_trace::counters::add(lrd_trace::Counter::CacheHits, 1);
                Arc::clone(slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                lrd_trace::counters::add(lrd_trace::Counter::CacheMisses, 1);
                let slot: Slot = Arc::new(OnceLock::new());
                map.insert(key, Arc::clone(&slot));
                slot
            }
        };
        let result = slot.get_or_init(|| compute().map(Arc::new)).clone();
        if result.is_err() {
            // Evict *this* slot only — a concurrent retry may already have
            // installed a fresh slot under the same key.
            let mut map = lock_tolerant(&self.map);
            if map.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                map.remove(&key);
            }
        }
        result
    }

    /// Number of distinct factorizations currently memoized.
    pub fn len(&self) -> usize {
        lock_tolerant(&self.map).len()
    }

    /// Whether the cache holds no factorizations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_tensor::tensor::Tensor;
    use lrd_tensor::tucker::tucker2;

    #[test]
    fn run_jobs_preserves_order() {
        for workers in [1, 2, 4, 9] {
            let jobs: Vec<_> = (0..23usize).map(|i| move || i * i).collect();
            let out = run_jobs_isolated(jobs, workers, None);
            let expected: Vec<_> = (0..23usize).map(|i| JobOutcome::Done(i * i)).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn run_jobs_empty_and_oversized_pool() {
        let out: Vec<JobOutcome<usize>> = run_jobs_isolated(Vec::<fn() -> usize>::new(), 8, None);
        assert!(out.is_empty());
        let out = run_jobs_isolated(vec![|| 7usize], 64, None);
        assert_eq!(out, vec![JobOutcome::Done(7)]);
    }

    #[test]
    fn worker_budget_composes() {
        let b = worker_budget(8, 0, 100);
        assert_eq!(
            b,
            WorkerBudget {
                workers: 8,
                eval_threads: 1
            }
        );
        let b = worker_budget(8, 2, 100);
        assert_eq!(
            b,
            WorkerBudget {
                workers: 2,
                eval_threads: 4
            }
        );
        // Pool never exceeds the number of jobs.
        let b = worker_budget(8, 0, 3);
        assert_eq!(b.workers, 3);
        assert!(b.workers * b.eval_threads <= 8);
        // An explicit worker request above the budget is clamped down
        // instead of oversubscribing (8 workers × 1 thread on budget 2).
        let b = worker_budget(2, 8, 100);
        assert_eq!(
            b,
            WorkerBudget {
                workers: 2,
                eval_threads: 1
            }
        );
        // Degenerate budgets stay sane.
        let b = worker_budget(1, 0, 100);
        assert_eq!(
            b,
            WorkerBudget {
                workers: 1,
                eval_threads: 1
            }
        );
    }

    #[test]
    fn isolated_pool_contains_panics() {
        for workers in [1, 4] {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..9usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 4 {
                            panic!("injected panic at job {i}");
                        }
                        i * 10
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let out = run_jobs_isolated(jobs, workers, None);
            assert_eq!(out.len(), 9);
            for (i, outcome) in out.iter().enumerate() {
                if i == 4 {
                    assert_eq!(
                        outcome,
                        &JobOutcome::Panicked("injected panic at job 4".into())
                    );
                } else {
                    assert_eq!(outcome, &JobOutcome::Done(i * 10));
                }
            }
        }
    }

    #[test]
    fn isolated_pool_matches_run_jobs_when_quiet() {
        // A pool that never panics or overruns reports every job `Done` in
        // job order, whether or not a (never-firing) watchdog is armed.
        let expected: Vec<JobOutcome<usize>> =
            (0..17usize).map(|i| JobOutcome::Done(i * 3 + 1)).collect();
        for deadline in [None, Some(Duration::from_secs(60))] {
            let jobs: Vec<_> = (0..17usize).map(|i| move || i * 3 + 1).collect();
            let out = run_jobs_isolated(jobs, 4, deadline);
            assert_eq!(out, expected, "deadline={deadline:?}");
        }
    }

    #[test]
    fn watchdog_times_out_overrunning_jobs() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(400));
                2
            }),
            Box::new(|| 3),
        ];
        let out = run_jobs_isolated(jobs, 2, Some(Duration::from_millis(40)));
        assert_eq!(out[0], JobOutcome::Done(1));
        assert_eq!(out[1], JobOutcome::TimedOut);
        assert_eq!(out[2], JobOutcome::Done(3));
        assert_eq!(out[1].clone().into_done(), None);
    }

    #[test]
    fn cache_error_is_not_memoized() {
        let cache = DecompositionCache::new();
        let w = Tensor::from_vec(&[6, 4], (0..24).map(|v| v as f32 * 0.25 - 1.0).collect());
        let attempts = AtomicUsize::new(0);
        let flaky = |w: &Tensor, attempts: &AtomicUsize| {
            let n = attempts.fetch_add(1, Ordering::Relaxed);
            if n == 0 {
                Err(TensorError::NotConverged {
                    algorithm: "svd (injected fault)",
                    iterations: 0,
                })
            } else {
                let fac = tucker2(w, 2)?;
                let err = fac.relative_error(w);
                Ok(CachedFactor {
                    factor: fac,
                    error: err,
                })
            }
        };
        assert!(cache
            .get_or_compute((1, "wq", 2), || flaky(&w, &attempts))
            .is_err());
        assert_eq!(cache.len(), 0, "failed slot must be evicted");
        let got = cache
            .get_or_compute((1, "wq", 2), || flaky(&w, &attempts))
            .expect("retry recomputes instead of replaying the cached error");
        assert!(got.error.is_finite());
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_computes_each_key_once() {
        let cache = DecompositionCache::new();
        let w = Tensor::from_vec(&[6, 4], (0..24).map(|v| v as f32 * 0.25 - 1.0).collect());
        let count = AtomicUsize::new(0);
        for _ in 0..5 {
            let got = cache
                .get_or_compute((0, "wq", 2), || {
                    count.fetch_add(1, Ordering::Relaxed);
                    let fac = tucker2(&w, 2)?;
                    let err = fac.relative_error(&w);
                    Ok(CachedFactor {
                        factor: fac,
                        error: err,
                    })
                })
                .unwrap();
            assert!(got.error.is_finite());
        }
        assert_eq!(count.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_is_consistent_under_concurrent_lookups() {
        let cache = DecompositionCache::new();
        let w = Tensor::from_vec(&[8, 8], (0..64).map(|v| ((v % 17) as f32).sin()).collect());
        let computed = AtomicUsize::new(0);
        let factors: Vec<Arc<CachedFactor>> = run_jobs_isolated(
            (0..12)
                .map(|_| {
                    let cache = &cache;
                    let w = &w;
                    let computed = &computed;
                    move || {
                        cache
                            .get_or_compute((3, "wo", 4), || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                let fac = tucker2(w, 4)?;
                                let err = fac.relative_error(w);
                                Ok(CachedFactor {
                                    factor: fac,
                                    error: err,
                                })
                            })
                            .unwrap()
                    }
                })
                .collect(),
            4,
            None,
        )
        .into_iter()
        .map(|outcome| outcome.into_done().expect("lookup job completed"))
        .collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let first = &factors[0];
        for f in &factors[1..] {
            assert!(Arc::ptr_eq(first, f));
        }
        assert_eq!(cache.stats().hits + cache.stats().misses, 12);
    }
}
