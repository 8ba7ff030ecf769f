//! Fault-injected successive halving at the engine level: a worker
//! panic injected into round 0 must be contained by the engine, poison
//! the afflicted sessions so they assess infeasible, and still let the
//! round — and the whole SH run — complete with healthy finalists.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_model::{Platform, SpatialPlatform};
use unico_search::sh::{self, ShConfig};
use unico_search::telemetry::{Counter, Telemetry};
use unico_search::{
    CoSearchEnv, EnvConfig, FaultContext, FaultKind, FaultPlan, HwSession, MappingEngine,
    RetryPolicy,
};
use unico_workloads::zoo;

fn test_env(p: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
    CoSearchEnv::new(
        p,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: None,
            area_cap_mm2: None,
        },
    )
}

fn sessions<'e>(
    env: &'e CoSearchEnv<'e, SpatialPlatform>,
    n: usize,
) -> Vec<HwSession<'e, SpatialPlatform>> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..n)
        .map(|i| env.session(env.platform().sample_hw(&mut rng), i as u64))
        .collect()
}

#[test]
fn worker_panic_poisons_session_and_round_completes() {
    let p = SpatialPlatform::edge();
    let env = test_env(&p);
    let mut ss = sessions(&env, 8);

    // Panic sessions 2 and 5 in round 0 (engine batch 0).
    let plan = FaultPlan::new()
        .with_fault(0, 2, FaultKind::WorkerPanic)
        .with_fault(0, 5, FaultKind::WorkerPanic);
    let ctx = FaultContext::new(plan, RetryPolicy::default());
    let engine = MappingEngine::new(4);
    let telemetry = Telemetry::new();

    let out = sh::run(
        &mut ss,
        &ShConfig::modified(64),
        &engine,
        &telemetry,
        Some(&ctx),
    );

    // The run completed every round despite the panics.
    assert_eq!(out.round_budgets.len(), 3);
    assert_eq!(*out.round_budgets.last().unwrap(), 64);
    assert_eq!(out.finalists.len(), 2);
    assert_eq!(out.contained_panics, 2);

    // The panicked sessions are poisoned and score infeasible; panics
    // never retry.
    for &i in &[2usize, 5] {
        assert!(ss[i].is_poisoned(), "session {i} must be poisoned");
        assert!(ss[i].assess().is_none(), "session {i} must be infeasible");
        assert_eq!(ss[i].terminal_value(), f64::INFINITY);
    }
    assert!(
        out.finalists.iter().all(|&i| i != 2 && i != 5),
        "poisoned sessions must not be promoted to finalists"
    );

    // The engine contained both panics without losing its workers, and
    // telemetry mirrors the containment.
    let m = engine.metrics();
    assert_eq!(m.panics_contained, 2);
    assert_eq!(m.threads_spawned, 4, "workers survive contained panics");
    // `engine_panics` in the run report is derived from this engine
    // metric by the outer loop; the pool itself records the fault
    // counters.
    assert_eq!(telemetry.get(Counter::FaultPanics), 2);
    assert_eq!(telemetry.get(Counter::FaultsInjected), 2);
    assert_eq!(telemetry.get(Counter::FaultRetries), 0);
    assert_eq!(telemetry.get(Counter::FaultQuarantines), 0);

    // Healthy sessions were unaffected: finalists ran to the full
    // budget and assess feasibly (no power/area caps in this env).
    for &i in &out.finalists {
        assert_eq!(ss[i].spent(), 64);
        assert!(ss[i].assess().is_some());
    }
}

#[test]
fn engine_survives_panics_across_consecutive_rounds() {
    let p = SpatialPlatform::edge();
    let env = test_env(&p);
    let mut ss = sessions(&env, 8);

    // One panic per round; the victim session index differs per round
    // (later rounds advance only survivors, so plant on all indices).
    let mut plan = FaultPlan::new();
    for batch in 0..3u64 {
        for session in 0..8usize {
            plan = plan.with_fault(batch, session, FaultKind::WorkerPanic);
        }
    }
    let ctx = FaultContext::new(plan, RetryPolicy::default());
    let engine = MappingEngine::new(4);
    let telemetry = Telemetry::new();

    let out = sh::run(
        &mut ss,
        &ShConfig::modified(64),
        &engine,
        &telemetry,
        Some(&ctx),
    );

    // Every selected session panicked in every round, yet SH still ran
    // all rounds to completion on the same engine.
    assert_eq!(out.round_budgets.len(), 3);
    assert!(out.contained_panics >= 8, "round 0 poisons all 8");
    let m = engine.metrics();
    assert_eq!(m.panics_contained, out.contained_panics);
    assert_eq!(telemetry.get(Counter::FaultPanics), out.contained_panics);
    assert_eq!(m.threads_spawned, 4);
    // With everything poisoned, promotion still fills its quota and the
    // finalists exist (infeasible, but the algorithm never wedges).
    assert_eq!(out.finalists.len(), 2);
    assert!(ss.iter().all(|s| s.is_poisoned()));
    assert!(ss.iter().all(|s| s.assess().is_none()));
}
