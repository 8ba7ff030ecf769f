//! Seeded determinism and golden-trace record/replay, end to end.
//!
//! Two [`Unico`] runs with the same seed on fresh platforms must be
//! byte-for-byte identical: same Pareto front bit patterns, same
//! deterministic run-report JSON, same evaluation-cache trace. The
//! committed golden trace under `tests/golden/` pins the smoke run's
//! every PPA evaluation; replaying it resolves the whole run from the
//! trace with zero cache misses.
//!
//! Regenerate the golden trace after an intentional model change with:
//!
//! ```sh
//! UNICO_RECORD_GOLDEN=1 cargo test --test determinism
//! ```

use std::sync::Arc;

use unico::prelude::*;
use unico_model::EvalCache;
use unico_search::{run_mobohb, EnvConfig, MobohbConfig};
use unico_workloads::Network;

const GOLDEN_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/unico_smoke.trace"
);

const GOLDEN_CHECKPOINT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/unico_resume.checkpoint"
);

fn smoke_cfg(seed: u64) -> UnicoConfig {
    UnicoConfig {
        max_iter: 3,
        batch: 6,
        b_max: 32,
        candidate_pool: 32,
        seed,
        ..UnicoConfig::default()
    }
}

fn edge_env<'p>(
    platform: &'p SpatialPlatform,
    nets: &[Network],
) -> CoSearchEnv<'p, SpatialPlatform> {
    CoSearchEnv::new(
        platform,
        nets,
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: Some(2_000.0),
            area_cap_mm2: None,
        },
    )
}

/// Runs the smoke configuration on a fresh edge platform carrying
/// `cache`, returning the result.
fn smoke_run(cache: Arc<EvalCache>) -> UnicoResult<unico_model::HwConfig> {
    let platform = SpatialPlatform::edge().with_eval_cache(cache);
    let nets = [zoo::mobilenet_v1()];
    let env = edge_env(&platform, &nets);
    Unico::new(smoke_cfg(7)).run(&env)
}

fn front_bits(r: &UnicoResult<unico_model::HwConfig>) -> Vec<Vec<u64>> {
    r.front
        .objectives()
        .iter()
        .map(|y| y.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn seeded_runs_are_byte_identical() {
    let cache_a = Arc::new(EvalCache::new());
    let cache_b = Arc::new(EvalCache::new());
    let a = smoke_run(Arc::clone(&cache_a));
    let b = smoke_run(Arc::clone(&cache_b));

    // Bit-level front equality, not just PartialEq (which NaN or -0.0
    // could blur).
    assert_eq!(front_bits(&a), front_bits(&b));

    // Deterministic report JSON (wall-clock phase timers excluded) is
    // byte-identical, including the cache section.
    let (ja, jb) = (a.report.deterministic_json(), b.report.deterministic_json());
    assert_eq!(ja, jb);
    assert!(ja.contains("\"cache\":{\"hits\":"));

    // The caches saw identical evaluation streams.
    assert_eq!(cache_a.to_trace(), cache_b.to_trace());
    assert!(cache_a.stats().misses > 0);
}

#[test]
fn golden_trace_matches_committed() {
    let cache = Arc::new(EvalCache::new());
    let _ = smoke_run(Arc::clone(&cache));
    let trace = cache.to_trace();

    if std::env::var("UNICO_RECORD_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_TRACE).parent().unwrap())
            .expect("create tests/golden");
        std::fs::write(GOLDEN_TRACE, &trace).expect("write golden trace");
        return;
    }

    let committed = std::fs::read_to_string(GOLDEN_TRACE)
        .expect("golden trace missing; record with UNICO_RECORD_GOLDEN=1");
    assert_eq!(
        trace, committed,
        "evaluation stream diverged from the committed golden trace; \
         if the model change is intentional, re-record with \
         UNICO_RECORD_GOLDEN=1"
    );
}

#[test]
fn replay_resolves_run_from_trace_with_zero_misses() {
    if std::env::var("UNICO_RECORD_GOLDEN").is_ok() {
        return; // trace is being (re-)recorded in this very test run
    }
    let committed = std::fs::read_to_string(GOLDEN_TRACE)
        .expect("golden trace missing; record with UNICO_RECORD_GOLDEN=1");
    let replay = Arc::new(EvalCache::from_trace(&committed).expect("valid trace"));
    assert!(replay.is_replay());

    let replayed = smoke_run(Arc::clone(&replay));

    // Every evaluation resolved from the trace: a single miss would have
    // panicked, and the counters confirm none occurred.
    let s = replay.stats();
    assert_eq!(s.misses, 0, "replay must never compute");
    assert!(s.hits > 0);

    // The replayed run reproduces the recorded run bit-for-bit.
    let recorded = smoke_run(Arc::new(EvalCache::new()));
    assert_eq!(front_bits(&replayed), front_bits(&recorded));
}

/// The committed mid-run checkpoint (`unico.checkpoint.v1`, captured by
/// the crash path at boundary 2 of the 3-iteration seed-7 smoke run)
/// must still resume into a final state bit-identical to an
/// uninterrupted smoke run — pinning the checkpoint format itself, not
/// just in-process round trips. Re-record alongside the golden trace
/// with `UNICO_RECORD_GOLDEN=1`.
#[test]
fn resume_from_committed_checkpoint_reproduces_smoke_run() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    if std::env::var("UNICO_RECORD_GOLDEN").is_ok() {
        // Record: crash the smoke run at boundary 2 with the checkpoint
        // pointed at the golden path; the panic guard flushes the
        // boundary-2 snapshot — the exact file a real crash leaves.
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_CHECKPOINT).parent().unwrap())
            .expect("create tests/golden");
        std::fs::remove_file(GOLDEN_CHECKPOINT).ok();
        let cache = Arc::new(EvalCache::new());
        let platform = SpatialPlatform::edge().with_eval_cache(Arc::clone(&cache));
        let nets = [zoo::mobilenet_v1()];
        let env = edge_env(&platform, &nets);
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(std::path::PathBuf::from(
                GOLDEN_CHECKPOINT,
            ))),
            kill_after: Some(2),
            ..RunOptions::default()
        };
        let unico = Unico::new(smoke_cfg(7));
        let outcome = catch_unwind(AssertUnwindSafe(|| unico.run_with_options(&env, &opts)));
        assert!(outcome.is_err(), "recording kill must fire");
        let ck =
            Checkpoint::read(std::path::Path::new(GOLDEN_CHECKPOINT)).expect("recorded checkpoint");
        assert_eq!(ck.iterations_done, 2);
        return;
    }

    let ck = Checkpoint::read(std::path::Path::new(GOLDEN_CHECKPOINT))
        .expect("golden checkpoint missing; record with UNICO_RECORD_GOLDEN=1");
    assert_eq!(ck.iterations_done, 2, "golden snapshot sits at boundary 2");

    let cache = Arc::new(EvalCache::new());
    let platform = SpatialPlatform::edge().with_eval_cache(Arc::clone(&cache));
    let nets = [zoo::mobilenet_v1()];
    let env = edge_env(&platform, &nets);
    let resumed = Unico::resume(&env, std::path::Path::new(GOLDEN_CHECKPOINT)).expect(
        "golden checkpoint diverged from the current format; \
                 if the change is intentional, re-record with \
                 UNICO_RECORD_GOLDEN=1",
    );

    let reference_cache = Arc::new(EvalCache::new());
    let reference = smoke_run(Arc::clone(&reference_cache));
    assert_eq!(
        front_bits(&resumed),
        front_bits(&reference),
        "resumed front diverged from the uninterrupted smoke run"
    );
    assert_eq!(resumed.evaluations.len(), reference.evaluations.len());
    assert_eq!(resumed.wall_clock_s, reference.wall_clock_s);
    // The resumed cache (restored trace + post-resume evaluations) saw
    // the exact evaluation stream of the uninterrupted run.
    assert_eq!(cache.to_trace(), reference_cache.to_trace());
}

/// Runs the smoke configuration through the genetic mapping tool,
/// which scores whole GA cohorts through `assess_batch` (annealing
/// stays scalar by design — its RNG is conditioned on each step's
/// outcome), so it exercises the batched evaluation path end to end.
fn genetic_smoke_run(cache: Option<Arc<EvalCache>>) -> UnicoResult<unico_model::HwConfig> {
    let mut platform = SpatialPlatform::edge().with_mapping_tool(unico_model::MappingTool::Genetic);
    if let Some(cache) = cache {
        platform = platform.with_eval_cache(cache);
    }
    let nets = [zoo::mobilenet_v1()];
    let env = edge_env(&platform, &nets);
    Unico::new(smoke_cfg(7)).run(&env)
}

/// Two same-seed genetic-tool runs on fresh caches are byte-identical —
/// same front bits, same cache trace, same hit/miss accounting — and
/// both actually took the batched cache entry point.
#[test]
fn genetic_batched_runs_are_deterministic_and_booked() {
    let cache_a = Arc::new(EvalCache::new());
    let a = genetic_smoke_run(Some(Arc::clone(&cache_a)));
    let cache_b = Arc::new(EvalCache::new());
    let b = genetic_smoke_run(Some(Arc::clone(&cache_b)));

    assert_eq!(front_bits(&a), front_bits(&b));
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
    assert_eq!(cache_a.to_trace(), cache_b.to_trace());
    assert_eq!(cache_a.stats().hits, cache_b.stats().hits);
    assert_eq!(cache_a.stats().misses, cache_b.stats().misses);
    assert!(cache_a.batch_stats().lookups > 0);
    assert_eq!(cache_a.batch_stats().lookups, cache_b.batch_stats().lookups);
}

/// The evaluation cache is memoization, not a semantics change: the
/// batched path with no cache attached (one SoA batch per call, every
/// row computed) reproduces the cached batched run bit-for-bit.
#[test]
fn uncached_batched_run_reproduces_cached_run_bitwise() {
    let cache = Arc::new(EvalCache::new());
    let cached = genetic_smoke_run(Some(Arc::clone(&cache)));
    let uncached = genetic_smoke_run(None);

    assert_eq!(
        front_bits(&cached),
        front_bits(&uncached),
        "uncached front diverged from the cached front"
    );
    assert_eq!(cached.evaluations.len(), uncached.evaluations.len());
    assert!(cache.stats().misses > 0);
    assert!(cache.batch_stats().lookups > 0);
}

/// Incremental GP refits are deterministic and actually exercised: two
/// same-seed runs long enough to re-enter the surrogate after the first
/// full hyper-search fit produce byte-identical reports and book at
/// least one incremental fit (strictly fewer than total fits — full
/// refits still happen when the training set doubles).
#[test]
fn incremental_gp_runs_are_deterministic_and_booked() {
    let run = |cache: Arc<EvalCache>| {
        let platform = SpatialPlatform::edge().with_eval_cache(cache);
        let nets = [zoo::mobilenet_v1()];
        let env = edge_env(&platform, &nets);
        let cfg = UnicoConfig {
            max_iter: 6,
            ..smoke_cfg(11)
        };
        Unico::new(cfg).run(&env)
    };
    let a = run(Arc::new(EvalCache::new()));
    let b = run(Arc::new(EvalCache::new()));
    assert_eq!(front_bits(&a), front_bits(&b));
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
    let incremental = a.report.counters["gp_fits_incremental"];
    let total = a.report.counters["gp_fits"];
    assert!(
        incremental >= 1,
        "a 6-iteration run must reuse hypers at least once (got {incremental})"
    );
    assert!(
        incremental < total,
        "incremental fits ({incremental}) must stay below total fits ({total})"
    );
}

/// The gradient mapping tool is seeded-deterministic end to end: two
/// same-seed co-optimization runs through `MappingTool::Gradient`
/// produce byte-identical fronts, deterministic reports, and
/// evaluation-cache traces — descent, backtracking, restarts,
/// surrogate screening and the free integer polish all replay exactly.
/// The report also books the gradient telemetry counters, pinning the
/// searcher-stats funnel (`GradientStats` deltas absorbed at the
/// successive-halving boundary).
#[test]
fn gradient_tool_runs_are_deterministic_and_booked() {
    let run = |cache: Arc<EvalCache>| {
        let platform = SpatialPlatform::edge()
            .with_mapping_tool(unico_model::MappingTool::Gradient)
            .with_eval_cache(cache);
        let nets = [zoo::mobilenet_v1()];
        let env = edge_env(&platform, &nets);
        Unico::new(smoke_cfg(7)).run(&env)
    };
    let cache_a = Arc::new(EvalCache::new());
    let cache_b = Arc::new(EvalCache::new());
    let a = run(Arc::clone(&cache_a));
    let b = run(Arc::clone(&cache_b));

    assert_eq!(front_bits(&a), front_bits(&b));
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
    assert_eq!(cache_a.to_trace(), cache_b.to_trace());

    let steps = a.report.counters["gradient_steps"];
    let legalizations = a.report.counters["gradient_legalizations"];
    assert!(steps > 0, "gradient runs must book surrogate steps");
    assert!(
        legalizations > 0,
        "gradient runs must book legalized exact evaluations"
    );
    assert!(
        steps > legalizations,
        "surrogate steps ({steps}) should outnumber paid \
         legalizations ({legalizations})"
    );
}

/// Fusion-aware co-optimization is seeded-deterministic end to end:
/// two same-seed runs over the committed tiny-CNN fixture (imported
/// through the graph frontend, fused via the greedy planner during
/// every assessment) produce byte-identical fronts, deterministic
/// reports and cache traces, and book the fusion telemetry counters.
#[test]
fn fused_graph_runs_are_deterministic_and_booked() {
    let graph =
        unico_workloads::frontend::import_json(include_str!("fixtures/tiny_cnn.graph.json"))
            .expect("committed fixture imports");
    let run = |cache: Arc<EvalCache>| {
        let platform = SpatialPlatform::edge().with_eval_cache(cache);
        let env = CoSearchEnv::with_graphs(
            &platform,
            std::slice::from_ref(&graph),
            EnvConfig {
                max_layers_per_network: 4, // keep the whole fusable chain
                power_cap_mw: Some(2_000.0),
                area_cap_mm2: None,
            },
        );
        Unico::new(smoke_cfg(7)).run(&env)
    };
    let cache_a = Arc::new(EvalCache::new());
    let cache_b = Arc::new(EvalCache::new());
    let a = run(Arc::clone(&cache_a));
    let b = run(Arc::clone(&cache_b));

    assert_eq!(front_bits(&a), front_bits(&b));
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
    assert_eq!(cache_a.to_trace(), cache_b.to_trace());

    let tried = a.report.counters["fusion_groups_tried"];
    let accepted = a.report.counters["fusion_groups_accepted"];
    assert!(tried >= 1, "fused runs must price candidate groups");
    assert!(accepted <= tried);
}

/// Fig. 9-style MOBOHB baseline: at realistic per-session mapping
/// budgets the random tiling samplers revisit mappings and successive
/// halving re-assesses survivors, so the evaluation stream is heavily
/// repetitive — exactly what the cache exploits. The acceptance bar is
/// a >50% hit rate (this configuration measures ~59%).
#[test]
fn mobohb_smoke_run_exceeds_half_hit_rate() {
    let cache = Arc::new(EvalCache::new());
    let platform = SpatialPlatform::edge().with_eval_cache(Arc::clone(&cache));
    let nets = [zoo::mobilenet_v1()];
    let env = edge_env(&platform, &nets);
    let cfg = MobohbConfig {
        iterations: 4,
        batch: 6,
        b_max: 2000,
        candidate_pool: 32,
        seed: 7,
        ..MobohbConfig::default()
    };
    let _ = run_mobohb(&env, &cfg);
    let s = cache.stats();
    assert!(s.lookups() > 0);
    assert!(
        s.hit_rate() > 0.5,
        "hit rate {:.3} ({} hits / {} lookups) below the 50% bar",
        s.hit_rate(),
        s.hits,
        s.lookups()
    );
}
