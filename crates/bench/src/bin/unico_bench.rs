//! Batch-evaluation + incremental-GP benchmark, the committed
//! trajectory behind `BENCH_batch_eval.json`.
//!
//! Measures, on the analytical spatial engine:
//!
//! * scalar vs batched candidate scoring with a **warm** evaluation
//!   cache (the steady state of an SH round: every key hits; batching
//!   amortizes key-prefix hashing and takes one lock per shard instead
//!   of one per candidate);
//! * scalar vs batched scoring with **no** cache (pure compute: the
//!   structure-of-arrays path shares per-batch invariants across rows);
//! * scalar vs batched scoring against one **shared** warm cache from
//!   several threads (the service-mode steady state the sharded batch
//!   pass was designed for: one lock acquisition and one counter flush
//!   per shard per cohort instead of one per candidate);
//!
//! on the cycle-level Ascend-like simulator:
//!
//! * one uncached call (the expensive oracle whose cost the evaluation
//!   cache amortizes);
//!
//! and, on the surrogate:
//!
//! * full hyper-search GP refits vs incremental Cholesky row-append
//!   fits at several training-set sizes;
//! * one kriging-believer acquisition batch (`select_batch`, pool 256,
//!   22 picks) at the same training-set sizes;
//! * one exact hypervolume of 30 uniform points in 4-D.
//!
//! Output is a single JSON artifact (default `BENCH_batch_eval.json`,
//! override with `--out <file>`), schema
//! `unico.bench.batch_eval.v1`: `{"schema", "entries": [{"name",
//! "metric", "value"}, ...]}` with throughputs in candidates/s, fit
//! and acquisition times in seconds, and derived speedup ratios. The
//! scalar columns time the per-candidate `MappingCost::assess` loop
//! that annealing runs on, which keeps the pre-batch shape
//! (materialized canonical key, one lock per lookup), so the ratios are
//! an honest before/after. CI
//! runs the binary in release and asserts the JSON parses with
//! non-empty entries; the acceptance floors (batched >= 2x scalar
//! warm-cache and contended throughput, incremental >= 5x faster than
//! full fits at n >= 64) are asserted at commit time, not per CI run,
//! so a noisy runner cannot flake the build — the binary only warns on
//! stderr if a floor is missed.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unico_bench::microbench::MicroBench;
use unico_camodel::{AscendConfig, AscendModel, DepthFirstFusionSearch};
use unico_mapping::{Mapping, MappingSpace};
use unico_model::{EvalCache, Platform, SpatialPlatform};
use unico_surrogate::hypervolume::hypervolume;
use unico_surrogate::{select_batch, AcquisitionKind, GaussianProcess, KernelKind};
use unico_workloads::TensorOp;

/// Candidates per measured batch — the scale of one SH cohort.
const BATCH: usize = 256;

/// Acquisition candidate pool (`UnicoConfig::candidate_pool` default).
const ACQ_POOL: usize = 256;

/// Model-guided picks per acquisition batch: batch 30 less its
/// `ceil(30 * 0.25)` random picks.
const ACQ_PICKS: usize = 22;

/// One benchmark result destined for the JSON artifact.
struct Entry {
    name: String,
    metric: &'static str,
    value: f64,
}

fn entry(name: impl Into<String>, metric: &'static str, value: f64) -> Entry {
    Entry {
        name: name.into(),
        metric,
        value,
    }
}

/// Candidates/s from a median per-call time covering `BATCH` candidates.
fn throughput(median_ns: f64) -> f64 {
    BATCH as f64 / (median_ns * 1e-9)
}

/// The shared workload: one conv nest, one sampled hardware point, and
/// a cohort of `BATCH` mapping candidates.
fn workload() -> (
    unico_workloads::LoopNest,
    unico_model::HwConfig,
    Vec<Mapping>,
) {
    let nest = TensorOp::Conv2d {
        n: 1,
        k: 32,
        c: 16,
        y: 14,
        x: 14,
        r: 3,
        s: 3,
        stride: 1,
    }
    .to_loop_nest();
    let mut rng = StdRng::seed_from_u64(7);
    let probe = SpatialPlatform::edge();
    let hw = probe.sample_hw(&mut rng);
    let space = MappingSpace::new(&nest);
    let mappings: Vec<Mapping> = (0..BATCH).map(|_| space.sample(&mut rng)).collect();
    (nest, hw, mappings)
}

fn bench_eval(b: &mut MicroBench, entries: &mut Vec<Entry>) {
    let (nest, hw, mappings) = workload();

    // Warm cache: pre-populate once, then every measured pass hits.
    for cached in [true, false] {
        let p = SpatialPlatform::edge();
        let p = if cached {
            let warm = p.with_eval_cache(std::sync::Arc::new(EvalCache::new()));
            let _ = warm.evaluate_batch(&hw, &nest, &mappings);
            warm
        } else {
            p
        };
        let regime = if cached { "warm_cache" } else { "uncached" };
        let cost = p.bind(&hw, &nest);

        let row = b.run(&format!("eval/{regime}/scalar"), || {
            mappings
                .iter()
                .map(|m| cost.assess(m).is_some() as u64)
                .sum::<u64>()
        });
        let scalar_tp = throughput(row.median_ns);
        entries.push(entry(
            format!("eval_throughput/{regime}/scalar"),
            "candidates_per_s",
            scalar_tp,
        ));

        let row = b.run(&format!("eval/{regime}/batched"), || {
            cost.assess_batch(&mappings)
                .iter()
                .map(|o| o.is_some() as u64)
                .sum::<u64>()
        });
        let batch_tp = throughput(row.median_ns);
        entries.push(entry(
            format!("eval_throughput/{regime}/batched"),
            "candidates_per_s",
            batch_tp,
        ));

        let speedup = batch_tp / scalar_tp;
        entries.push(entry(
            format!("speedup/{regime}/batched_over_scalar"),
            "ratio",
            speedup,
        ));
        if cached && speedup < 2.0 {
            eprintln!(
                "WARNING: warm-cache batched speedup {speedup:.2}x below the 2x acceptance floor"
            );
        }
    }
}

/// The regime the sharded batch pass was designed for: several threads
/// scoring cohorts against one shared warm cache (service mode shares a
/// single `EvalCache` across concurrent jobs). The scalar path takes a
/// shard lock and bumps a shard counter **per candidate**, so the lock
/// and counter cachelines ping-pong between cores; the batch pass takes
/// each shard lock once per cohort and flushes counters once per shard.
/// The 2x acceptance floor is asserted here.
fn bench_eval_contended(b: &mut MicroBench, entries: &mut Vec<Entry>) {
    const THREADS: usize = 4;
    const PASSES: usize = 32;
    let (nest, hw, mappings) = workload();

    let mut tp = [0.0f64; 2];
    for batched in [false, true] {
        let cache = std::sync::Arc::new(EvalCache::new());
        let p = SpatialPlatform::edge().with_eval_cache(std::sync::Arc::clone(&cache));
        let _ = p.evaluate_batch(&hw, &nest, &mappings);
        let cost = p.bind(&hw, &nest);
        let mode = if batched { "batched" } else { "scalar" };
        let row = b.run(&format!("eval/contended/{mode}"), || {
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        let mut feasible = 0u64;
                        for _ in 0..PASSES {
                            if batched {
                                feasible += cost
                                    .assess_batch(&mappings)
                                    .iter()
                                    .map(|o| o.is_some() as u64)
                                    .sum::<u64>();
                            } else {
                                feasible += mappings
                                    .iter()
                                    .map(|m| cost.assess(m).is_some() as u64)
                                    .sum::<u64>();
                            }
                        }
                        std::hint::black_box(feasible)
                    });
                }
            });
        });
        // The scope covers THREADS * PASSES passes over the cohort.
        let per_pass_ns = row.median_ns / (THREADS * PASSES) as f64;
        tp[usize::from(batched)] = throughput(per_pass_ns);
        entries.push(entry(
            format!("eval_throughput/contended/{mode}"),
            "candidates_per_s",
            tp[usize::from(batched)],
        ));
    }

    let speedup = tp[1] / tp[0];
    entries.push(entry(
        "speedup/contended/batched_over_scalar",
        "ratio",
        speedup,
    ));
    if speedup < 2.0 {
        eprintln!("WARNING: contended batched speedup {speedup:.2}x below the 2x acceptance floor");
    }
}

/// One uncached cycle-level Ascend-like evaluation of a 64×64 3×3 conv
/// at 28×28 on the expert-default core with the depth-first seed
/// mapping: the per-call price the evaluation cache exists to avoid.
fn bench_ascend(b: &mut MicroBench, entries: &mut Vec<Entry>) {
    let nest = TensorOp::Conv2d {
        n: 1,
        k: 64,
        c: 64,
        y: 28,
        x: 28,
        r: 3,
        s: 3,
        stride: 1,
    }
    .to_loop_nest();
    let model = AscendModel::default();
    let hw = AscendConfig::expert_default();
    let mapping = DepthFirstFusionSearch::seed_mapping(&hw, &nest);
    let row = b.run("eval/ascend/uncached", || {
        model.evaluate(&hw, &mapping, &nest).expect("feasible")
    });
    entries.push(entry(
        "eval/ascend/uncached",
        "seconds",
        row.median_ns * 1e-9,
    ));
}

fn bench_gp(b: &mut MicroBench, entries: &mut Vec<Entry>) {
    for &n in &[64usize, 128] {
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..6).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| (v - 0.5).powi(2)).sum::<f64>())
            .collect();

        let row = b.run(&format!("gp_fit/full/{n}"), || {
            let mut gp = GaussianProcess::new(KernelKind::Matern52, 6);
            gp.fit(&xs, &ys, &mut rng).expect("full fit");
            gp.len()
        });
        let full_s = row.median_ns * 1e-9;
        entries.push(entry(format!("gp_fit/full/n{n}"), "seconds", full_s));

        // Incremental: extend a factor carrying n-8 rows by the 8 new
        // ones — the shape of one MOBO round feeding a UUL-accepted
        // cohort into the surrogate. The clone is part of the measured
        // cost (the outer loop clones the carried GP for acquisition).
        let base_n = n - 8;
        let mut base = GaussianProcess::new(KernelKind::Matern52, 6);
        base.fit(&xs[..base_n], &ys[..base_n], &mut rng)
            .expect("base fit");
        let row = b.run(&format!("gp_fit/incremental/{n}"), || {
            let mut gp = base.clone();
            gp.fit_incremental(&xs, &ys).expect("incremental fit");
            gp.len()
        });
        let inc_s = row.median_ns * 1e-9;
        entries.push(entry(format!("gp_fit/incremental/n{n}"), "seconds", inc_s));

        let speedup = full_s / inc_s;
        entries.push(entry(
            format!("speedup/gp_incremental_over_full/n{n}"),
            "ratio",
            speedup,
        ));
        if speedup < 5.0 {
            eprintln!(
                "WARNING: incremental GP speedup {speedup:.2}x at n={n} below the 5x \
                 acceptance floor"
            );
        }

        // Acquisition: one kriging-believer batch over the fitted GP, in
        // the `outer-loop-resume` shape (pool 256, batch 30 minus 8
        // random picks). The clone is part of the cost: `select_batch`
        // consumes the GP it hallucinates into.
        // Its own seed: `rng`'s state depends on how often the timed
        // fits above ran.
        let mut acq_rng = StdRng::seed_from_u64(13);
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 6);
        gp.fit(&xs, &ys, &mut acq_rng).expect("acquisition fit");
        let pool: Vec<Vec<f64>> = (0..ACQ_POOL)
            .map(|_| (0..6).map(|_| acq_rng.gen_range(0.0..1.0)).collect())
            .collect();
        let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let row = b.run(&format!("acquisition/select_batch/{n}"), || {
            select_batch(
                gp.clone(),
                &pool,
                best,
                AcquisitionKind::ExpectedImprovement,
                ACQ_PICKS,
            )
        });
        entries.push(entry(
            format!("acquisition/select_batch/n{n}"),
            "seconds",
            row.median_ns * 1e-9,
        ));
    }
}

/// Exact hypervolume of 30 uniform points in the unit 4-cube against
/// reference `1.1` per axis (the points are redrawn from seed 2 each
/// run, so the front is fixed).
fn bench_hypervolume(b: &mut MicroBench, entries: &mut Vec<Entry>) {
    const D: usize = 4;
    const N: usize = 30;
    let mut rng = StdRng::seed_from_u64(2);
    let pts: Vec<Vec<f64>> = (0..N)
        .map(|_| (0..D).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let reference = vec![1.1; D];
    let row = b.run("hypervolume/4d/n30", || hypervolume(&pts, &reference));
    entries.push(entry("hypervolume/4d/n30", "seconds", row.median_ns * 1e-9));
}

fn render_json(entries: &[Entry]) -> String {
    let mut o = String::from("{\"schema\":\"unico.bench.batch_eval.v1\",\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"name\":\"{}\",\"metric\":\"{}\",\"value\":{}}}",
            e.name, e.metric, e.value
        ));
    }
    o.push_str("]}\n");
    o
}

fn main() {
    let mut out = String::from("BENCH_batch_eval.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a file path"),
            "--help" | "-h" => {
                eprintln!("usage: unico_bench [--out FILE]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}; try --help"),
        }
    }

    let mut entries = Vec::new();
    let mut b = MicroBench::with_budget(Duration::from_millis(10), 8);
    bench_eval(&mut b, &mut entries);
    bench_eval_contended(&mut b, &mut entries);
    bench_ascend(&mut b, &mut entries);
    bench_gp(&mut b, &mut entries);
    bench_hypervolume(&mut b, &mut entries);

    println!("\n{}", b.to_markdown());
    unico_bench::write_file(std::path::Path::new(&out), &render_json(&entries));
    eprintln!("wrote {out}");
}
