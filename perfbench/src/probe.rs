//! A host-speed probe that scales the run's times to a reference speed
//! of the shared host.
//!
//! On a shared 2-vCPU VM the same serve pass took 0.70 s of CPU time in
//! a quiet spell and 1.2–1.4 s in a busy one, for minutes at a time:
//! other tenants take cache, memory bandwidth and the core's execution
//! resources, and CPU time, which leaves out steal, still counts the
//! slower cycles. The probe is a fixed piece of the benchmark's own code
//! that uses the same resources as the workloads, timed after every
//! operation: an in-cache multiply-add sweep and a streaming read of a
//! buffer larger than the workloads' model. Over ten-run sets, dividing
//! each operation's CPU time by the probe's cut the spread of the runs'
//! medians from 27% to 10% on the serve workloads and from 20% to 6% on
//! the sweep. No change to the program moves the probe, so the ratio
//! measures the program rather than the neighbours.

use std::hint::black_box;

use crate::work::cpu_now;

/// Rows, depth and width of the multiply-add sweep: `c += a · b` with
/// `b` (1 MB) resident in the per-core L2.
const MM_ROWS: usize = 64;
const MM_DEPTH: usize = 512;
const MM_COLS: usize = 512;
/// Floats in the streamed buffer: 64 MB, three times the workloads'
/// model and larger than the per-core L2 by far.
const STREAM_FLOATS: usize = 16 << 20;
/// Passes over the streamed buffer per probe.
const STREAM_PASSES: usize = 8;
/// CPU seconds of one probe on a quiet spell of the reference host (a
/// 2-vCPU x86-64 KVM guest, AVX2+FMA). Scaled times read as the seconds
/// the operation would take on that host in such a spell.
pub const REFERENCE_PROBE_S: f64 = 0.085;
/// MB (2^20 bytes) of the probe's buffers, resident for the rest of the
/// run once the probe exists; `peak_rss_mb` leaves them out.
pub const RESIDENT_MB: f64 =
    ((MM_ROWS * MM_DEPTH + MM_DEPTH * MM_COLS + MM_ROWS * MM_COLS + STREAM_FLOATS)
        * std::mem::size_of::<f32>()) as f64
        / (1024.0 * 1024.0);

/// The probe's buffers, allocated and touched once.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
}

impl Probe {
    pub fn new() -> Probe {
        let fill = |n: usize, m: usize| (0..n).map(|i| (i % m) as f32 * 0.1).collect::<Vec<f32>>();
        Probe {
            a: fill(MM_ROWS * MM_DEPTH, 5),
            b: fill(MM_DEPTH * MM_COLS, 3),
            c: vec![0.0; MM_ROWS * MM_COLS],
            stream: fill(STREAM_FLOATS, 7),
        }
    }

    /// CPU seconds of one probe: one multiply-add sweep, then
    /// [`STREAM_PASSES`] summing reads of the streamed buffer.
    pub fn time(&mut self) -> f64 {
        let t = cpu_now();
        for (a_row, c_row) in self
            .a
            .chunks_exact(MM_DEPTH)
            .zip(self.c.chunks_exact_mut(MM_COLS))
        {
            for (&a, b_row) in a_row.iter().zip(self.b.chunks_exact(MM_COLS)) {
                for (c, &b) in c_row.iter_mut().zip(b_row) {
                    *c = a.mul_add(b, *c);
                }
            }
        }
        black_box(&mut self.c);
        let mut acc = [0f32; 32];
        for _ in 0..STREAM_PASSES {
            for chunk in black_box(&self.stream).chunks_exact(32) {
                for (s, x) in acc.iter_mut().zip(chunk) {
                    *s += x;
                }
            }
        }
        black_box(acc);
        cpu_now() - t
    }
}

/// `cpu_s` at the reference speed, given the time of a probe run next
/// to it.
pub fn scaled(cpu_s: f64, probe_s: f64) -> f64 {
    cpu_s * REFERENCE_PROBE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_the_ratio_to_the_reference_probe() {
        assert_eq!(scaled(1.0, REFERENCE_PROBE_S), 1.0);
        assert!((scaled(1.2, 2.0 * REFERENCE_PROBE_S) - 0.6).abs() < 1e-12);
    }
}
