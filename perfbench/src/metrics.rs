//! The metric tables and the result line.

use std::collections::BTreeMap;

use crate::span::{self, Span};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_s", "s"),
    ("front_hv", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
/// A layer the workload does not exercise reads `0`. Times are host
/// seconds except `sim_s`, which is the model's simulated clock.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.frontend.import_s", "s"),
    ("workloads.frontend.ops_lowered", "count"),
    ("model.assess.calls", "count"),
    ("model.assess.candidates", "count"),
    ("model.assess.busy_s", "s"),
    ("model.assess.ns_per_candidate", "ns"),
    ("model.assess.feasible_ratio", "ratio"),
    ("model.evalcache.hits", "count"),
    ("model.evalcache.misses", "count"),
    ("model.evalcache.hit_ratio", "ratio"),
    ("model.evalcache.entries", "count"),
    ("model.evalcache.evictions", "count"),
    ("camodel.job_mapping_search_s", "s"),
    ("mapping.run_until.calls", "count"),
    ("mapping.run_until.self_s", "s"),
    ("mapping.steps", "count"),
    ("mapping.evals_per_s", "1/s"),
    ("search.sh.mapping_search_s", "s"),
    ("search.sh.rounds", "count"),
    ("search.engine.jobs", "count"),
    ("search.engine.batches", "count"),
    ("search.engine.idle_frac", "ratio"),
    ("surrogate.sampling_s", "s"),
    ("surrogate.gp_fit_s", "s"),
    ("surrogate.acquisition_s", "s"),
    ("surrogate.gp_fits", "count"),
    ("surrogate.gp_fits_incremental", "count"),
    ("surrogate.uul_accept_ratio", "ratio"),
    ("core.unico.iteration_s", "s"),
    ("core.unico.simulated_s", "sim_s"),
    ("core.checkpoints_written", "count"),
    ("core.checkpoint.bytes", "B"),
    ("core.checkpoint.trace_bytes", "B"),
    ("core.checkpoint.parse_s", "s"),
    ("core.checkpoint.serialize_s", "s"),
    ("core.checkpoint.write_s", "s"),
    ("core.checkpoint.restore_s", "s"),
    ("core.resume_s", "s"),
    ("serve.http.submit_rtt_s", "s"),
    ("serve.http.status_rtt_s", "s"),
    ("serve.http.metrics_rtt_s", "s"),
    ("serve.http.requests", "count"),
    ("serve.scheduler.queue_wait_s.edge", "s"),
    ("serve.scheduler.queue_wait_s.graph", "s"),
    ("serve.scheduler.queue_wait_s.ascend", "s"),
    ("serve.scheduler.run_s.edge", "s"),
    ("serve.scheduler.run_s.graph", "s"),
    ("serve.scheduler.run_s.ascend", "s"),
    ("serve.job.checkpoint_bytes", "B"),
    ("serve.recover.scan_manifests_s", "s"),
    ("serve.recover.scan_checkpoints_s", "s"),
    ("serve.recover.jobs", "count"),
    ("bench.traced_ops", "count"),
    ("bench.wall.op_p50_s", "s"),
    ("bench.wall.op_tail_s", "s"),
    ("bench.wall.ops_per_s", "1/s"),
    ("bench.gen_lag_max_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unaccounted_s", "s"),
];

/// Timings of one pass of a workload's timed operation.
pub struct Summary {
    /// Median CPU seconds per operation, scaled to the reference host.
    pub cpu_s: f64,
    /// Median CPU seconds per operation as measured.
    pub raw_cpu_s: f64,
    /// Median wall seconds per operation (latency for service jobs).
    pub p50_s: f64,
    /// Tail percentile and its wall seconds.
    pub tail: (f64, f64),
    /// Operations per wall second (burst throughput for the service).
    pub per_s: f64,
    /// Operations timed.
    pub n: usize,
}

impl Summary {
    /// Records the bounded CPU figure as an end-to-end metric.
    pub fn set_end_to_end(&self, out: &mut Outcome) {
        out.set("op_cpu_s", self.cpu_s);
    }

    /// Records the wall-clock figures as per-layer metrics.
    pub fn set_wall(&self, out: &mut Outcome) {
        out.set("bench.wall.op_p50_s", self.p50_s);
        out.set("bench.wall.op_tail_s", self.tail.1);
        out.set("bench.wall.ops_per_s", self.per_s);
    }

    /// One human-readable line naming the operation.
    pub fn note(&self, what: &str) -> String {
        format!(
            "{what}: cpu {} s/op at the reference host speed ({} s as measured; medians), \
             wall p50 {} s, p{:.1} {} s, {} ops/s over n={}",
            self.cpu_s, self.raw_cpu_s, self.p50_s, self.tail.0, self.tail.1, self.per_s, self.n
        )
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (runs, jobs, reboots, checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Spans of the traced pass, written out at the end.
    pub spans: Option<Vec<Span>>,
}

impl Outcome {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table (a typo in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Sets `ok_frac` from the checks so far; call last.
    pub fn set_ok_frac(&mut self) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.set("ok_frac", ok);
    }

    /// Keeps a traced pass's spans: sets `bench.unaccounted_s` (the
    /// pass's `window` ns not covered by a top-level layer span) and adds
    /// one note line per span name with its count, total and self seconds.
    pub fn attach_spans(&mut self, spans: Vec<Span>, window: u64) {
        let covered = span::layers_covered(&spans);
        self.set(
            "bench.unaccounted_s",
            window.saturating_sub(covered) as f64 * 1e-9,
        );
        for (name, (n, total, own)) in span::by_name(&spans) {
            self.notes.push(format!(
                "span {name}: n={n} total_s={:.6} self_s={:.6}",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            ));
        }
        self.spans = Some(spans);
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The result line: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut failed = self.failed;
        let mut body = Vec::new();
        for (name, unit) in table {
            let v = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                // An end-to-end metric the run could not measure is a
                // failed run, never a silent zero.
                _ if !trace => {
                    failed += 1;
                    0.0
                }
                _ => 0.0,
            };
            body.push(format!(
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            body.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_mode() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.check(true, String::new);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
        let traced = o.result_json(true);
        assert!(PER_LAYER
            .iter()
            .all(|(n, _)| traced.contains(&format!("\"{n}\""))));
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.1);
        o.check(true, String::new);
        assert!(o.result_json(false).starts_with("{\"correct\":false,"));
        assert!(o.result_json(true).starts_with("{\"correct\":true,"));
    }

    #[test]
    fn time_under_bench_spans_alone_is_unaccounted() {
        let span = |id, name, start, end| Span {
            id,
            name,
            start,
            end,
            parent: None,
            job: 0,
            leaf_calls: 0,
            leaf_busy: 0,
        };
        let mut o = Outcome::default();
        o.attach_spans(
            vec![
                span(1, "bench.check", 0, 400_000_000),
                span(2, "core.unico.run", 400_000_000, 900_000_000),
            ],
            1_000_000_000,
        );
        assert!((o.values["bench.unaccounted_s"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
