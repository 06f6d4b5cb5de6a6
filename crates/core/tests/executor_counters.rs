//! `core.executor_jobs` and `core.executor_run_us` accounting in
//! `run_jobs_isolated`, on the inline path (one worker) and on the pool.
//!
//! The counters are process-global, so this binary holds a single test: no
//! other job runs concurrently and moves them between the two reads.

use lrd_core::executor::{run_jobs_isolated, JobOutcome};
use lrd_trace::counters::{self, Counter};
use std::time::Duration;

const JOBS: usize = 4;
const SLEEP: Duration = Duration::from_millis(5);

#[test]
fn jobs_and_run_time_are_counted_inline_and_pooled() {
    if !lrd_trace::enabled() {
        return;
    }
    for workers in [1, 2] {
        let jobs_before = counters::get(Counter::ExecutorJobs);
        let run_before = counters::get(Counter::ExecutorRunUs);
        let jobs: Vec<_> = (0..JOBS)
            .map(|i| {
                move || {
                    std::thread::sleep(SLEEP);
                    i
                }
            })
            .collect();
        let out = run_jobs_isolated(jobs, workers, None);
        assert_eq!(out, (0..JOBS).map(JobOutcome::Done).collect::<Vec<_>>());
        let jobs = counters::get(Counter::ExecutorJobs) - jobs_before;
        assert_eq!(jobs, JOBS as u64, "workers={workers}");
        let run_us = counters::get(Counter::ExecutorRunUs) - run_before;
        let slept_us = JOBS as u64 * SLEEP.as_micros() as u64;
        assert!(
            run_us >= slept_us,
            "workers={workers}: executor_run_us advanced {run_us} µs, jobs slept {slept_us} µs"
        );
    }
}
