//! Bounded execution of software-mapping jobs (the paper's §3.5
//! master/slave execution model, Fig. 6).
//!
//! [`advance_with_engine`] advances a batch of [`HwSession`]s on a
//! persistent [`MappingEngine`] whose workers were spawned once for the
//! whole co-search. A job that panics is contained and its session is
//! poisoned (assessed infeasible) instead of aborting the run. An
//! optional [`FaultContext`] injects deterministic faults and applies
//! bounded retry to them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use unico_model::Platform;

use crate::engine::{MappingEngine, ScopedJob};
use crate::env::HwSession;
use crate::fault::{FaultContext, FaultKind};
use crate::telemetry::{Counter, Telemetry};

/// Advances the selected sessions to `budget` on a persistent engine.
///
/// Each selected session becomes one queued job. A mapping search that
/// panics is caught inside its job and poisons its session (see
/// [`HwSession::poison`]), so the batch and the enclosing run keep
/// going. Returns the number of panics contained: the searches caught
/// inside their jobs (also booked as `engine_panics` in `telemetry`)
/// plus the injected worker panics the engine contained (which the
/// engine's `panics_contained` metric counts instead).
///
/// With `faults` set, the advance claims the context's next batch
/// index, consults its [`FaultPlan`](crate::fault::FaultPlan) per
/// *(batch, session, attempt)* site and applies bounded
/// retry-with-backoff. With `None` no site is faulted: the batch runs
/// as one engine execution and no fault counter is booked.
///
/// Semantics per injected [`FaultKind`]:
///
/// * `WorkerPanic` — the job poisons its session and then panics inside
///   the engine worker; the engine contains it (counted in the return
///   value and the engine's `panics_contained` metric) and the poisoned
///   session assesses infeasible. No retry: a panic is not transient.
/// * `EvalError` — the advance makes no progress this attempt and the
///   session is retried after backoff, up to
///   [`RetryPolicy::max_retries`](crate::fault::RetryPolicy) times; a
///   session still failing is quarantined (poisoned) and the round goes
///   on without it.
/// * `Stall` — the job sleeps `stall_ms`; when that exceeds
///   `deadline_ms` the attempt counts as failed (retry/quarantine like
///   an error), otherwise the advance completes normally after the nap.
///   Deadline misses are decided from the configured durations, never
///   from wall clock, so fault schedules replay deterministically.
///
/// Counters recorded into `telemetry`: `faults_injected`,
/// `fault_errors` / `fault_panics` / `fault_stalls`, `fault_retries`
/// (one per retried session per attempt) and `fault_quarantines`.
///
/// # Panics
///
/// Panics if the mask length mismatches.
pub fn advance_with_engine<P: Platform>(
    engine: &MappingEngine,
    sessions: &mut [HwSession<'_, P>],
    select: &[bool],
    budget: u64,
    faults: Option<&FaultContext>,
    telemetry: &Telemetry,
) -> u64
where
    P::Hw: Send,
{
    assert_eq!(sessions.len(), select.len(), "selection mask length");
    let site = faults.map(|ctx| (ctx, ctx.next_batch()));
    let batch = site.map_or(0, |(_, batch)| batch);
    let policy = faults.map(FaultContext::policy).unwrap_or_default();
    let stall_fails = policy.stall_misses_deadline();
    // Selected sessions keep their stable index in `sessions` across
    // retry attempts — fault sites are addressed by that index.
    let mut pending: Vec<(usize, &mut HwSession<'_, P>)> = sessions
        .iter_mut()
        .zip(select)
        .enumerate()
        .filter(|(_, (_, &on))| on)
        .map(|(i, (s, _))| (i, s))
        .collect();
    let mut contained = 0u64;
    let caught = AtomicU64::new(0);
    // Advances a session, poisoning it if its mapping search panics.
    let advance = |session: &mut HwSession<'_, P>| {
        if catch_unwind(AssertUnwindSafe(|| session.advance_to(budget))).is_err() {
            session.poison();
            caught.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut attempt = 0u32;
    loop {
        let decisions: Vec<Option<FaultKind>> = pending
            .iter()
            .map(|(i, _)| site.and_then(|(ctx, batch)| ctx.plan().fault_at(batch, *i, attempt)))
            .collect();
        for d in decisions.iter().flatten() {
            telemetry.add(Counter::FaultsInjected, 1);
            telemetry.add(
                match d {
                    FaultKind::EvalError => Counter::FaultErrors,
                    FaultKind::WorkerPanic => Counter::FaultPanics,
                    FaultKind::Stall => Counter::FaultStalls,
                },
                1,
            );
        }
        let jobs: Vec<ScopedJob<'_>> = pending
            .iter_mut()
            .zip(&decisions)
            .map(|(slot, d)| {
                let idx = slot.0;
                let session: &mut HwSession<'_, P> = &mut *slot.1;
                let d = *d;
                let advance = &advance;
                Box::new(move || match d {
                    Some(FaultKind::WorkerPanic) => {
                        // Poison before unwinding: the panic escapes this
                        // job, is contained by the engine worker, and the
                        // session still ends up infeasible.
                        session.poison();
                        panic!("unico-fault: injected worker panic (batch {batch}, session {idx})");
                    }
                    Some(FaultKind::EvalError) => {
                        // The platform evaluation errored: no progress.
                    }
                    Some(FaultKind::Stall) => {
                        std::thread::sleep(Duration::from_millis(policy.stall_ms));
                        if !stall_fails {
                            advance(session);
                        }
                    }
                    None => advance(session),
                }) as ScopedJob<'_>
            })
            .collect();
        contained += engine.execute(jobs);

        let failed: Vec<bool> = decisions
            .iter()
            .map(|d| {
                matches!(d, Some(FaultKind::EvalError))
                    || (matches!(d, Some(FaultKind::Stall)) && stall_fails)
            })
            .collect();
        if !failed.iter().any(|&f| f) {
            break;
        }
        if attempt >= policy.max_retries {
            for ((_, session), &f) in pending.iter_mut().zip(&failed) {
                if f {
                    session.poison();
                    telemetry.add(Counter::FaultQuarantines, 1);
                }
            }
            break;
        }
        pending = pending
            .into_iter()
            .zip(&failed)
            .filter_map(|(slot, &f)| f.then_some(slot))
            .collect();
        attempt += 1;
        telemetry.add(Counter::FaultRetries, pending.len() as u64);
        if policy.backoff_ms > 0 {
            // Exponential backoff, capped so chaos tests stay fast.
            let wait = policy.backoff_ms << (attempt - 1).min(6);
            std::thread::sleep(Duration::from_millis(wait));
        }
    }
    let caught = caught.into_inner();
    telemetry.add(Counter::EnginePanics, caught);
    contained + caught
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{CoSearchEnv, EnvConfig};
    use rand::SeedableRng;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    fn sessions<'e>(
        env: &'e CoSearchEnv<'e, SpatialPlatform>,
        n: usize,
    ) -> Vec<HwSession<'e, SpatialPlatform>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        (0..n)
            .map(|i| env.session(env.platform().sample_hw(&mut rng), i as u64))
            .collect()
    }

    fn env(p: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
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

    #[test]
    fn engine_advance_reaches_budget_for_all_selected() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let engine = MappingEngine::new(4);
        let mut ss = sessions(&e, 9);
        let select: Vec<bool> = (0..9).map(|i| i % 3 != 1).collect();
        let telemetry = Telemetry::new();
        let panics = advance_with_engine(&engine, &mut ss, &select, 25, None, &telemetry);
        assert_eq!(panics, 0);
        assert!(
            telemetry.snapshot().is_empty(),
            "a fault-free advance books no fault counters"
        );
        for (s, &on) in ss.iter().zip(&select) {
            assert_eq!(s.spent(), if on { 25 } else { 0 });
            assert!(!s.is_poisoned());
        }
    }

    #[test]
    fn engine_reuse_across_rounds_spawns_once() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let engine = MappingEngine::new(3);
        let mut ss = sessions(&e, 6);
        let select = vec![true; 6];
        // Successive-halving-like doubling rounds on one engine.
        let telemetry = Telemetry::new();
        for budget in [8u64, 16, 32, 64] {
            advance_with_engine(&engine, &mut ss, &select, budget, None, &telemetry);
        }
        assert!(ss.iter().all(|s| s.spent() == 64));
        let m = engine.metrics();
        assert_eq!(m.threads_spawned, 3, "workers spawned once, not per round");
        assert_eq!(m.batches, 4);
        assert_eq!(m.jobs_executed, 24);
    }

    #[test]
    fn engine_matches_unbounded_results() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        // Same seeds -> identical searcher streams regardless of which
        // worker runs them; a plain serial loop on this thread is the
        // oracle.
        let mut a = sessions(&e, 6);
        let mut c = sessions(&e, 6);
        let select = vec![true; 6];
        let engine = MappingEngine::new(2);
        advance_with_engine(&engine, &mut a, &select, 40, None, &Telemetry::new());
        for s in &mut c {
            s.advance_to(40);
        }
        for (x, z) in a.iter().zip(&c) {
            assert_eq!(x.spent(), z.spent());
            assert_eq!(
                x.assess().map(|v| v.latency_s),
                z.assess().map(|v| v.latency_s),
                "engine and serial execution must be deterministic-equal"
            );
        }
    }

    #[test]
    fn empty_selection_is_noop() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let mut ss = sessions(&e, 3);
        let engine = MappingEngine::new(2);
        let none = [false, false, false];
        advance_with_engine(&engine, &mut ss, &none, 10, None, &Telemetry::new());
        assert!(ss.iter().all(|s| s.spent() == 0));
    }
}
