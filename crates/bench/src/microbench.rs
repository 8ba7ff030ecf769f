//! A dependency-free wall-clock micro-benchmark harness.
//!
//! The offline build cannot resolve `criterion`, so `unico_bench`
//! measures with this harness instead: warm up, calibrate an iteration
//! count so one sample reaches a time budget, then take a fixed number
//! of samples and report min/median/mean nanoseconds per iteration.
//! Results render as a markdown table (stdout).
//!
//! Use [`std::hint::black_box`] around inputs/outputs the optimizer
//! must not fold away.

use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Samples taken.
    pub samples: usize,
    /// Fastest observed nanoseconds per iteration.
    pub min_ns: f64,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
}

/// Harness collecting [`BenchRow`]s.
#[derive(Debug)]
pub struct MicroBench {
    rows: Vec<BenchRow>,
    target_sample: Duration,
    samples: usize,
}

impl MicroBench {
    /// A harness with the given per-sample time budget and sample count
    /// (at least 3).
    pub fn with_budget(target_sample: Duration, samples: usize) -> Self {
        MicroBench {
            rows: Vec::new(),
            target_sample,
            samples: samples.max(3),
        }
    }

    /// Measures `f`, records a row, prints it, and returns it.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchRow {
        // Warmup + calibration: grow the iteration count until one
        // sample reaches the target duration.
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.target_sample || iters >= 1 << 30 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                // Aim straight for the target, with headroom.
                (self.target_sample.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64 + 1
            };
            iters = iters.saturating_mul(grow.clamp(2, 16));
        }

        let mut per_iter_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let row = BenchRow {
            name: name.to_string(),
            iters,
            samples: self.samples,
            min_ns: per_iter_ns[0],
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        };
        println!(
            "{:<40} {:>12} /iter (median; min {}, mean {})",
            row.name,
            fmt_ns(row.median_ns),
            fmt_ns(row.min_ns),
            fmt_ns(row.mean_ns),
        );
        self.rows.push(row);
        self.rows.last().expect("row just pushed")
    }

    /// Renders the rows as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| benchmark | median/iter | min/iter | mean/iter |\n");
        out.push_str("|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.mean_ns)
            ));
        }
        out
    }
}

/// Human-friendly duration from nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_renders() {
        let mut b = MicroBench::with_budget(Duration::from_micros(200), 3);
        let row = b.run("spin", || std::hint::black_box(17u64).wrapping_mul(31));
        assert!(row.iters >= 1);
        assert!(row.min_ns > 0.0);
        assert!(row.min_ns <= row.median_ns);
        let md = b.to_markdown();
        assert!(md.contains("| spin |"));
    }

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert!(fmt_ns(12_300.0).ends_with("µs"));
        assert!(fmt_ns(12_300_000.0).ends_with("ms"));
        assert!(fmt_ns(2_000_000_000.0).ends_with('s'));
    }
}
