//! The in-process workloads: `codesign-mapping` (repeated `Unico::run`
//! on the edge template, dominated by mapping search) and
//! `outer-loop-resume` (a surrogate-bound run with a checkpoint every
//! iteration, then `Unico::resume` from the final checkpoint).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use unico_core::{
    Checkpoint, CheckpointPolicy, IterationUpdate, RunObserver, RunOptions, Unico, UnicoConfig,
    UnicoResult,
};
use unico_model::{EvalCache, Platform, SpatialPlatform};
use unico_search::{CoSearchEnv, EnvConfig, RunReport};
use unico_workloads::{zoo, Network};

use crate::gauge::Gauges;
use crate::metrics::{Outcome, Summary};
use crate::span::{self, Recorder};
use crate::stats::{box_hypervolume, median, tail};
use crate::traced::{LayerCounters, Probe, Traced};
use crate::{peak_rss_mb, process_cpu_s, process_cpu_total_s, Ctx};

/// One in-process workload's fixed shape.
struct Shape {
    networks: &'static [&'static str],
    layers: usize,
    cloud: bool,
    b_max: u64,
    batch: usize,
    max_iter: usize,
    /// Checkpoint every iteration, then resume from the final one.
    resume: bool,
    /// Operations whose fronts `front_hv` averages (run even past the
    /// time budget, so the figure depends on the seed alone).
    hv_ops: usize,
    /// Operations in each pass of a traced run.
    trace_ops: usize,
    /// Fixed hypervolume box over log10 of (latency s, power mW,
    /// area mm²): the fronts span orders of magnitude.
    hv_lo: [f64; 3],
    hv_hi: [f64; 3],
}

const CODESIGN: Shape = Shape {
    networks: &["mobilenet", "resnet50", "bert"],
    layers: 6,
    cloud: false,
    b_max: 600,
    batch: 16,
    max_iter: 5,
    resume: false,
    hv_ops: 8,
    trace_ops: 6,
    hv_lo: [-2.5, 0.5, -0.5],
    hv_hi: [1.0, 3.5, 1.5],
};

const OUTER: Shape = Shape {
    networks: &["resnet50"],
    layers: 1,
    cloud: true,
    b_max: 8,
    batch: 30,
    max_iter: 8,
    resume: true,
    hv_ops: 4,
    trace_ops: 3,
    hv_lo: [-3.0, 0.5, -0.5],
    hv_hi: [1.0, 3.5, 3.0],
};

/// `codesign-mapping`.
pub fn codesign_mapping(ctx: &Ctx) -> Outcome {
    run_workload(ctx, &CODESIGN)
}

/// `outer-loop-resume`.
pub fn outer_loop_resume(ctx: &Ctx) -> Outcome {
    run_workload(ctx, &OUTER)
}

/// What one operation (a run, plus its resume) measured.
struct Op {
    /// CPU seconds (user and system) and wall seconds of the set-up.
    setup_s: f64,
    setup_wall_s: f64,
    run_s: f64,
    resume_s: f64,
    /// User CPU seconds of the run, and of the resume.
    run_cpu_s: f64,
    resume_cpu_s: f64,
    /// Mean of the host-speed gauges read before and after the operation.
    gauges: Gauges,
    front: Vec<Vec<f64>>,
    simulated_s: f64,
    report: RunReport,
    /// Set when the resumed front differs from the run's.
    resume_mismatch: Option<String>,
    checkpoint: Option<CheckpointCost>,
}

impl Op {
    /// User CPU seconds of the run plus the resume.
    fn cpu_s(&self) -> f64 {
        self.run_cpu_s + self.resume_cpu_s
    }

    /// [`Op::cpu_s`] at the reference host speed: the run by the compute
    /// gauge, the resume (mostly the checkpoint parse) by the stream
    /// gauge.
    fn scaled_cpu_s(&self) -> f64 {
        self.gauges.compute_scaled(self.run_cpu_s) + self.gauges.stream_scaled(self.resume_cpu_s)
    }

    fn front_bits(&self) -> Vec<Vec<u64>> {
        bits(&self.front)
    }

    fn cache_counts(&self) -> (u64, u64, u64) {
        self.report
            .cache
            .as_ref()
            .map_or((0, 0, 0), |c| (c.hits, c.misses, c.evictions))
    }
}

/// A front's objective values as IEEE-754 bit patterns.
pub fn bits(front: &[Vec<f64>]) -> Vec<Vec<u64>> {
    front
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Host costs of the checkpoint codec on one final checkpoint.
#[derive(Default)]
struct CheckpointCost {
    /// The file parsed, re-serialized to the same bytes, and was written.
    ok: bool,
    bytes: f64,
    trace_bytes: f64,
    parse_s: f64,
    serialize_s: f64,
    write_s: f64,
}

fn networks(shape: &Shape) -> Vec<Network> {
    shape
        .networks
        .iter()
        .map(|n| zoo::by_name(n).expect("zoo network"))
        .collect()
}

fn platform(shape: &Shape) -> SpatialPlatform {
    let p = if shape.cloud {
        SpatialPlatform::cloud()
    } else {
        SpatialPlatform::edge()
    };
    p.with_eval_cache(Arc::new(EvalCache::new()))
}

fn env_config(shape: &Shape) -> EnvConfig {
    EnvConfig {
        max_layers_per_network: shape.layers,
        ..EnvConfig::default()
    }
}

/// Records `core.unico.iteration` spans at the loop's iteration
/// boundaries and points worker threads at the iteration in flight.
struct IterationSpans<'r> {
    recorder: &'r Recorder,
    run: u64,
    job: u64,
    /// `(span id, start)` of the iteration in flight.
    current: Mutex<(u64, u64)>,
}

impl<'r> IterationSpans<'r> {
    fn start(recorder: &'r Recorder, run: u64, job: u64) -> Self {
        let id = recorder.alloc_id();
        recorder.set_ambient(Some(id), job);
        IterationSpans {
            recorder,
            run,
            job,
            current: Mutex::new((id, recorder.now())),
        }
    }

    fn boundary(&self, name: &'static str) {
        let now = self.recorder.now();
        let mut cur = self.current.lock().expect("iteration span lock");
        self.recorder
            .record(cur.0, name, cur.1, now, Some(self.run), self.job);
        *cur = (self.recorder.alloc_id(), now);
        self.recorder.set_ambient(Some(cur.0), self.job);
    }

    /// Closes the stretch after the last boundary.
    fn finish(self) {
        self.boundary("core.unico.finish");
        self.recorder.set_ambient(None, 0);
    }
}

impl RunObserver for IterationSpans<'_> {
    fn on_iteration(&self, _update: &IterationUpdate<'_>) {
        self.boundary("core.unico.iteration");
    }
}

/// Runs (and resumes) once on `platform`, recording spans when a
/// recorder is given.
fn run_op<P: Platform>(
    ctx: &Ctx,
    shape: &Shape,
    make: impl Fn() -> P,
    seed: u64,
    job: u64,
    recorder: Option<&Recorder>,
) -> Op
where
    P::Hw: Send,
{
    let t0 = Instant::now();
    let c0 = process_cpu_total_s();
    let setup_start = recorder.map(Recorder::now);
    let plat = make();
    let nets = networks(shape);
    let env = CoSearchEnv::new(&plat, &nets, env_config(shape));
    let setup_s = process_cpu_total_s() - c0;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    if let (Some(rec), Some(s)) = (recorder, setup_start) {
        rec.record(rec.alloc_id(), "search.env.build", s, rec.now(), None, job);
    }

    let cfg = UnicoConfig {
        max_iter: shape.max_iter,
        batch: shape.batch,
        b_max: shape.b_max,
        workers: crate::WORKERS as u32,
        seed,
        ..UnicoConfig::default()
    };
    let ck_path = ctx.work_dir.join(format!("op-{job}.checkpoint"));
    let run_id = recorder.map(Recorder::alloc_id);
    let run_start = recorder.map(Recorder::now);
    let spans = recorder
        .zip(run_id)
        .map(|(r, id)| IterationSpans::start(r, id, job));
    let opts = RunOptions {
        checkpoint: shape
            .resume
            .then(|| CheckpointPolicy::new(&ck_path).with_every(1)),
        observer: spans.as_ref().map(|s| s as &dyn RunObserver),
        ..RunOptions::default()
    };
    let gauges_before = Gauges::read();
    let c1 = process_cpu_s();
    let t1 = Instant::now();
    let result = Unico::new(cfg).run_with_options(&env, &opts);
    let run_s = t1.elapsed().as_secs_f64();
    let run_cpu_s = process_cpu_s() - c1;
    if let Some(s) = spans {
        s.finish();
    }
    if let (Some(rec), Some(id), Some(s)) = (recorder, run_id, run_start) {
        rec.record(id, "core.unico.run", s, rec.now(), None, job);
    }
    let front = result.front.objectives();

    let mut op = Op {
        setup_s,
        setup_wall_s,
        run_s,
        resume_s: 0.0,
        run_cpu_s,
        resume_cpu_s: 0.0,
        gauges: gauges_before,
        front,
        simulated_s: result.wall_clock_s,
        report: result.report,
        resume_mismatch: None,
        checkpoint: None,
    };
    if shape.resume {
        if let Some(rec) = recorder {
            // Timed apart from the operation, as its own top-level span.
            let start = rec.now();
            op.checkpoint = Some(checkpoint_cost(
                &ck_path,
                &ctx.work_dir.join("copy.checkpoint"),
            ));
            rec.record(
                rec.alloc_id(),
                "core.checkpoint.codec",
                start,
                rec.now(),
                None,
                job,
            );
        }
        // A fresh cache: the resume repopulates it from the checkpoint.
        let plat = make();
        let env = CoSearchEnv::new(&plat, &nets, env_config(shape));
        let start = recorder.map(Recorder::now);
        let c2 = process_cpu_s();
        let t2 = Instant::now();
        let resumed: Result<UnicoResult<P::Hw>, _> = Unico::resume(&env, &ck_path);
        op.resume_s = t2.elapsed().as_secs_f64();
        op.resume_cpu_s = process_cpu_s() - c2;
        if let (Some(rec), Some(s)) = (recorder, start) {
            rec.record(rec.alloc_id(), "core.unico.resume", s, rec.now(), None, job);
        }
        op.resume_mismatch = match resumed {
            Ok(r) if bits(&r.front.objectives()) == op.front_bits() => None,
            Ok(_) => Some("resumed front differs from the run's front".into()),
            Err(e) => Some(format!("resume failed: {e}")),
        };
        let _ = std::fs::remove_file(&ck_path);
    }
    op.gauges = gauges_before.mean(Gauges::read());
    op
}

/// Times the checkpoint codec on the file a run left behind.
fn checkpoint_cost(path: &Path, copy: &Path) -> CheckpointCost {
    let Ok(text) = std::fs::read_to_string(path) else {
        return CheckpointCost::default();
    };
    let t = Instant::now();
    let Ok(ck) = Checkpoint::from_json(&text) else {
        return CheckpointCost::default();
    };
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = ck.to_json();
    let serialize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let wrote = ck.write_atomic(copy);
    let write_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(copy);
    CheckpointCost {
        ok: json == text && wrote.is_ok(),
        bytes: text.len() as f64,
        trace_bytes: ck.cache.as_ref().map_or(0, |c| c.trace.len()) as f64,
        parse_s,
        serialize_s,
        write_s,
    }
}

fn untraced_op(ctx: &Ctx, shape: &Shape, i: u64) -> Op {
    run_op(ctx, shape, || platform(shape), ctx.sub_seed(1, i), i, None)
}

fn hypervolume(shape: &Shape, front: &[Vec<f64>]) -> f64 {
    box_hypervolume(&log10(front), &shape.hv_lo, &shape.hv_hi)
}

/// A front in log10 objective space.
pub fn log10(front: &[Vec<f64>]) -> Vec<Vec<f64>> {
    front
        .iter()
        .map(|p| p.iter().map(|v| v.log10()).collect())
        .collect()
}

/// Output checks every operation must pass.
fn check_op(out: &mut Outcome, op: &Op, i: u64) {
    let sane = !op.front.is_empty() && op.front.iter().flatten().all(|v| v.is_finite() && *v > 0.0);
    out.check(sane, || format!("op {i}: empty or non-finite front"));
    let evals = op
        .report
        .counters
        .get("mapping_evals")
        .copied()
        .unwrap_or(0);
    out.check(evals > 0, || {
        format!("op {i}: no mapping evaluations counted")
    });
    if let Some(why) = &op.resume_mismatch {
        out.check(false, || format!("op {i}: {why}"));
    } else if op.resume_s > 0.0 {
        out.check(true, String::new);
    }
}

/// One untimed, checked operation on its own seed, so allocator and
/// page-cache warm-up does not land in the first timed operation.
fn warm_up(ctx: &Ctx, shape: &Shape, out: &mut Outcome) {
    const WARMUP_JOB: u64 = 1 << 32;
    let op = run_op(
        ctx,
        shape,
        || platform(shape),
        ctx.sub_seed(2, 0),
        WARMUP_JOB,
        None,
    );
    check_op(out, &op, WARMUP_JOB);
}

fn run_workload(ctx: &Ctx, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    warm_up(ctx, shape, &mut out);
    if ctx.trace {
        return traced_workload(ctx, shape, out);
    }
    let mut ops = Vec::new();
    let started = Instant::now();
    while ops.len() < shape.hv_ops || started.elapsed() < ctx.budget {
        let i = ops.len() as u64;
        let op = untraced_op(ctx, shape, i);
        check_op(&mut out, &op, i);
        ops.push(op);
    }
    let summary = summarize(&ops);
    let hv: f64 = ops[..shape.hv_ops]
        .iter()
        .map(|o| hypervolume(shape, &o.front))
        .sum::<f64>()
        / shape.hv_ops as f64;
    let run_s: Vec<f64> = ops.iter().map(|o| o.run_s).collect();
    let evals: u64 = ops
        .iter()
        .map(|o| o.report.counters.get("mapping_evals").copied().unwrap_or(0))
        .sum();
    let setup_s: Vec<f64> = ops
        .iter()
        .map(|o| o.gauges.compute_scaled(o.setup_s))
        .collect();
    out.set("setup_s", median(&setup_s));
    summary.set_end_to_end(&mut out);
    out.set("front_hv", hv);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set_ok_frac();
    out.notes.push(summary.note(if shape.resume {
        "run + resume"
    } else {
        "Unico::run"
    }));
    out.notes.push(format!(
        "codesign_s {} s (median wall, n={})",
        median(&run_s),
        ops.len()
    ));
    out.notes.push(format!(
        "mapping_evals_per_s {} 1/s ({evals} evals)",
        evals as f64 / run_s.iter().sum::<f64>()
    ));
    if shape.resume {
        let resume: Vec<f64> = ops.iter().map(|o| o.resume_s).collect();
        out.notes.push(format!(
            "resume_s {} s (median wall, n={})",
            median(&resume),
            ops.len()
        ));
    }
    out.notes
        .push(format!("front_hv over the first {} ops", shape.hv_ops));
    out.notes.push(format!(
        "setup_s {} s CPU at the reference host speed, {} s wall (medians over n={})",
        median(&setup_s),
        median(&ops.iter().map(|o| o.setup_wall_s).collect::<Vec<_>>()),
        ops.len()
    ));
    out
}

/// CPU and wall timings of a list of operations.
fn summarize(ops: &[Op]) -> Summary {
    let wall: Vec<f64> = ops.iter().map(|o| o.run_s + o.resume_s).collect();
    Summary {
        cpu_s: median(&ops.iter().map(Op::scaled_cpu_s).collect::<Vec<_>>()),
        raw_cpu_s: median(&ops.iter().map(Op::cpu_s).collect::<Vec<_>>()),
        p50_s: median(&wall),
        tail: tail(&wall),
        per_s: ops.len() as f64 / wall.iter().sum::<f64>(),
        n: ops.len(),
    }
}

/// The traced run: the same operations untraced, then traced through
/// [`Traced`], compared bit for bit; per-layer metrics come from the
/// traced pass.
fn traced_workload(ctx: &Ctx, shape: &Shape, mut out: Outcome) -> Outcome {
    let n = shape.trace_ops as u64;
    let plain: Vec<Op> = (0..n).map(|i| untraced_op(ctx, shape, i)).collect();

    let probe = Probe::default();
    let rec = Arc::clone(&probe.recorder);
    let pass_start = rec.now();
    let traced: Vec<Op> = (0..n)
        .map(|i| {
            let make = || Traced::new(platform(shape), probe.clone());
            run_op(ctx, shape, make, ctx.sub_seed(1, i), i, Some(&rec))
        })
        .collect();
    let pass_end = rec.now();
    summarize(&plain).set_wall(&mut out);

    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        check_op(&mut out, b, i as u64);
        out.check(a.front_bits() == b.front_bits(), || {
            format!("op {i}: traced front differs")
        });
        out.check(a.simulated_s.to_bits() == b.simulated_s.to_bits(), || {
            format!("op {i}: traced simulated time differs")
        });
        out.check(a.cache_counts() == b.cache_counts(), || {
            format!("op {i}: traced cache counters differ")
        });
        out.check(
            a.report.deterministic_json() == b.report.deterministic_json(),
            || format!("op {i}: traced deterministic report differs"),
        );
        if let Some(c) = &b.checkpoint {
            out.check(c.ok, || {
                format!("op {i}: final checkpoint did not round-trip")
            });
        }
    }

    let spans = rec.spans();
    layer_metrics(&mut out, &traced, &probe, &spans);
    out.set("bench.traced_ops", n as f64);
    let cpu = |ops: &[Op]| ops.iter().map(Op::cpu_s).sum::<f64>();
    out.set(
        "bench.trace_overhead_frac",
        cpu(&traced) / cpu(&plain) - 1.0,
    );
    out.attach_spans(spans, pass_end - pass_start);
    out
}

/// Folds the traced pass's run reports, probe counters and spans into
/// the per-layer metrics.
fn layer_metrics(out: &mut Outcome, ops: &[Op], probe: &Probe, spans: &[span::Span]) {
    let phase = |name: &str| -> f64 {
        ops.iter()
            .map(|o| o.report.phases_s.get(name).copied().unwrap_or(0.0))
            .sum()
    };
    let counter = |name: &str| -> f64 {
        ops.iter()
            .map(|o| o.report.counters.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    let c = &probe.counters;
    let get = |a| LayerCounters::get(a) as f64;
    let candidates = get(&c.assess_candidates);
    let assess_busy = get(&c.assess_busy_ns) * 1e-9;
    out.set("model.assess.calls", get(&c.assess_calls));
    out.set("model.assess.candidates", candidates);
    out.set("model.assess.busy_s", assess_busy);
    out.set(
        "model.assess.ns_per_candidate",
        assess_busy * 1e9 / candidates.max(1.0),
    );
    out.set(
        "model.assess.feasible_ratio",
        get(&c.assess_feasible) / candidates.max(1.0),
    );

    let (mut hits, mut misses, mut evictions, mut entries) = (0.0, 0.0, 0.0, 0.0);
    for o in ops {
        if let Some(cache) = &o.report.cache {
            hits += cache.hits as f64;
            misses += cache.misses as f64;
            evictions += cache.evictions as f64;
            entries += cache.entries as f64;
        }
    }
    out.set("model.evalcache.hits", hits);
    out.set("model.evalcache.misses", misses);
    out.set("model.evalcache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set("model.evalcache.entries", entries);
    out.set("model.evalcache.evictions", evictions);

    let per_name = span::by_name(spans);
    let self_s = |name: &str| per_name.get(name).map_or(0.0, |e| e.2 as f64 * 1e-9);
    let total_s = |name: &str| per_name.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9);
    let mapping_search = phase("mapping_search");
    out.set("mapping.run_until.calls", get(&c.run_until_calls));
    out.set("mapping.run_until.self_s", self_s("mapping.run_until"));
    out.set("mapping.steps", get(&c.steps));
    out.set(
        "mapping.evals_per_s",
        counter("mapping_evals") / ops.iter().map(|o| o.run_s).sum::<f64>(),
    );
    out.set("search.sh.mapping_search_s", mapping_search);
    out.set("search.sh.rounds", counter("sh_rounds"));
    out.set("search.engine.jobs", counter("engine_jobs"));
    out.set("search.engine.batches", counter("engine_batches"));
    let busy = get(&c.run_until_busy_ns) * 1e-9;
    out.set(
        "search.engine.idle_frac",
        1.0 - busy / (mapping_search * crate::WORKERS as f64).max(f64::MIN_POSITIVE),
    );
    out.set("surrogate.sampling_s", phase("sampling"));
    out.set("surrogate.gp_fit_s", phase("gp_fit"));
    out.set("surrogate.acquisition_s", phase("acquisition"));
    out.set("surrogate.gp_fits", counter("gp_fits"));
    out.set(
        "surrogate.gp_fits_incremental",
        counter("gp_fits_incremental"),
    );
    let accepted = counter("uul_accepted");
    out.set(
        "surrogate.uul_accept_ratio",
        accepted / (accepted + counter("uul_rejected")).max(1.0),
    );
    out.set("core.unico.iteration_s", total_s("core.unico.iteration"));
    out.set(
        "core.unico.simulated_s",
        ops.iter().map(|o| o.simulated_s).sum(),
    );
    out.set("core.checkpoints_written", counter("checkpoints_written"));
    let resume_s: f64 = ops.iter().map(|o| o.resume_s).sum();
    if resume_s > 0.0 {
        let cks: Vec<&CheckpointCost> = ops.iter().filter_map(|o| o.checkpoint.as_ref()).collect();
        let sum = |f: fn(&CheckpointCost) -> f64| cks.iter().map(|c| f(c)).sum::<f64>();
        out.set("core.checkpoint.bytes", sum(|c| c.bytes));
        out.set("core.checkpoint.trace_bytes", sum(|c| c.trace_bytes));
        out.set("core.checkpoint.parse_s", sum(|c| c.parse_s));
        out.set("core.checkpoint.serialize_s", sum(|c| c.serialize_s));
        out.set("core.checkpoint.write_s", sum(|c| c.write_s));
        // Parse and resume are timed apart, so host noise can make the
        // difference dip below zero; it is a share of the resume, so 0.
        out.set(
            "core.checkpoint.restore_s",
            (resume_s - sum(|c| c.parse_s)).max(0.0),
        );
        out.set("core.resume_s", resume_s);
    }
}
