//! Host-speed gauges: fixed kernels of the benchmark's own, run next to
//! every timed operation, whose CPU time moves only with the host.
//!
//! On a shared host the CPU time of the same work drifts with what the
//! neighbours do, and not evenly: memory streaming and compute slow down
//! at different times. So there are two gauges, one per kind of work,
//! and each CPU figure is scaled by the one that matches it.

use std::hint::black_box;

use crate::stats::median;
use crate::thread_cpu_s;

/// CPU seconds the stream gauge takes on the reference host (the 2-vCPU
/// Xeon VM the benchmark was built on, rounded).
pub const STREAM_REF_S: f64 = 2.4e-3;

/// CPU seconds the compute gauge takes on the reference host.
pub const COMPUTE_REF_S: f64 = 1.9e-3;

/// Passes per gauge reading; the reading is their median.
const PASSES: usize = 3;

/// Median CPU seconds of [`PASSES`] runs of `pass`.
fn read(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = thread_cpu_s();
            pass();
            thread_cpu_s() - t
        })
        .collect();
    median(&times)
}

/// One reading of both gauges, in CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Gauges {
    /// 50 MiB of UTF-8 validation over a 128 KiB buffer, which the
    /// core's second-level cache holds: the access pattern the
    /// checkpoint parser spends its time in.
    pub stream: f64,
    /// Xorshift-indexed loads from a 32 KiB table with data-dependent
    /// branches and floating-point arithmetic: the shape of the cost
    /// model's evaluation loop.
    pub compute: f64,
}

impl Gauges {
    /// Runs both gauges on the calling thread.
    pub fn read() -> Gauges {
        let buf = vec![b'a'; 128 << 10];
        let stream = read(|| {
            for _ in 0..400 {
                black_box(std::str::from_utf8(black_box(&buf)).is_ok());
            }
        });
        let table: Vec<f64> = (0..4096).map(|i| f64::from(i).sqrt()).collect();
        let compute = read(|| {
            let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0.0f64);
            for _ in 0..200_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = table[(x & 4095) as usize];
                if x & 0x10 != 0 {
                    acc += v * 1.0001;
                } else if v > 30.0 {
                    acc -= v / 3.0;
                } else {
                    acc = acc.max(v);
                }
            }
            black_box(acc);
        });
        Gauges { stream, compute }
    }

    /// The mean of two readings, taken before and after an operation.
    pub fn mean(self, after: Gauges) -> Gauges {
        Gauges {
            stream: 0.5 * (self.stream + after.stream),
            compute: 0.5 * (self.compute + after.compute),
        }
    }

    /// CPU seconds of parse-bound work at the reference host speed.
    pub fn stream_scaled(self, cpu_s: f64) -> f64 {
        cpu_s * STREAM_REF_S / self.stream
    }

    /// CPU seconds of any other work at the reference host speed.
    pub fn compute_scaled(self, cpu_s: f64) -> f64 {
        cpu_s * COMPUTE_REF_S / self.compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        let g = Gauges {
            stream: 2.0 * STREAM_REF_S,
            compute: 0.5 * COMPUTE_REF_S,
        };
        assert!((g.stream_scaled(1.0) - 0.5).abs() < 1e-12);
        assert!((g.compute_scaled(1.0) - 2.0).abs() < 1e-12);
        let m = g.mean(Gauges {
            stream: 0.0,
            compute: 0.5 * COMPUTE_REF_S,
        });
        assert!((m.stream - STREAM_REF_S).abs() < 1e-15);
        assert!((m.compute - 0.5 * COMPUTE_REF_S).abs() < 1e-15);
    }

    #[test]
    fn gauges_read_positive_cpu_time() {
        let g = Gauges::read();
        assert!(g.stream > 0.0 && g.compute > 0.0, "{g:?}");
    }
}
