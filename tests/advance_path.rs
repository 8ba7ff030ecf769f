//! The one advance path: every outer loop (NSGA-II, HASCO, network
//! validation, successive halving) advances hardware sessions through
//! `advance_with_engine` on a `MappingEngine` it owns. These tests pin,
//! through the facade, that the engine's width never changes a result,
//! that a full-budget batch equals a serial advance on the calling
//! thread, and that a panicking mapping search is contained: its
//! candidate assesses as infeasible and the run completes.

use unico::prelude::*;
use unico_mapping::{MappingCost, MappingOutcome};
use unico_search::sh::{self, ShConfig};
use unico_search::telemetry::{Counter, Telemetry};
use unico_search::{
    evaluate_batch, run_hasco, run_nsga2, Assessment, HascoConfig, HwSession, MappingEngine,
    Nsga2Config,
};
use unico_workloads::LoopNest;

fn one_layer_env<P: Platform>(platform: &P) -> CoSearchEnv<'_, P> {
    CoSearchEnv::new(
        platform,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: None,
            area_cap_mm2: None,
        },
    )
}

fn sample_hws<P: Platform>(platform: &P, n: usize, seed: u64) -> Vec<P::Hw> {
    let mut rng = rand::SeedableRng::seed_from_u64(seed);
    (0..n).map(|_| platform.sample_hw(&mut rng)).collect()
}

/// The spatial template, except that every bound cost panics the first
/// time mapping search scores a mapping.
struct PanickingSearch(SpatialPlatform);

struct PanickingCost;

impl MappingCost for PanickingCost {
    fn assess(&self, _: &Mapping) -> Option<MappingOutcome> {
        panic!("mapping search exploded");
    }
}

impl Platform for PanickingSearch {
    type Hw = <SpatialPlatform as Platform>::Hw;
    fn name(&self) -> &str {
        "panicking-search"
    }
    fn feature_dim(&self) -> usize {
        self.0.feature_dim()
    }
    fn encode(&self, hw: &Self::Hw) -> Vec<f64> {
        self.0.encode(hw)
    }
    fn sample_hw(&self, rng: &mut rand::rngs::StdRng) -> Self::Hw {
        self.0.sample_hw(rng)
    }
    fn perturb_hw(&self, rng: &mut rand::rngs::StdRng, hw: &Self::Hw) -> Self::Hw {
        self.0.perturb_hw(rng, hw)
    }
    fn crossover_hw(&self, rng: &mut rand::rngs::StdRng, a: &Self::Hw, b: &Self::Hw) -> Self::Hw {
        self.0.crossover_hw(rng, a, b)
    }
    fn area_mm2(&self, hw: &Self::Hw) -> f64 {
        self.0.area_mm2(hw)
    }
    fn hw_space_size(&self) -> u64 {
        self.0.hw_space_size()
    }
    fn bind<'a>(&'a self, _: &Self::Hw, _: &LoopNest) -> Box<dyn MappingCost + Send + Sync + 'a> {
        Box::new(PanickingCost)
    }
    fn make_searcher(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        self.0.make_searcher(hw, nest, seed)
    }
    fn eval_cost_seconds(&self) -> f64 {
        self.0.eval_cost_seconds()
    }
    fn describe(&self, hw: &Self::Hw) -> String {
        self.0.describe(hw)
    }
}

#[test]
fn evaluate_batch_matches_a_serial_advance_on_the_calling_thread() {
    let platform = SpatialPlatform::edge();
    let env = one_layer_env(&platform);
    let hws = sample_hws(&platform, 3, 11);
    let (budget, seed) = (24, 40);

    let engine = MappingEngine::new(2);
    let (results, cpu, width) = evaluate_batch(&env, &engine, hws.clone(), budget, seed);

    let mut serial_cpu = 0.0;
    for (i, (hw, (got_hw, got))) in hws.into_iter().zip(&results).enumerate() {
        let mut s = env.session(hw, seed + i as u64);
        s.advance_to(budget);
        serial_cpu += s.cost_seconds();
        assert_eq!(*got_hw, hw, "candidate {i} came back out of order");
        assert_eq!(*got, s.assess(), "candidate {i}");
    }
    assert_eq!(cpu, serial_cpu);
    assert_eq!(width, 3 * env.num_jobs() as u32);
    assert_eq!(engine.metrics().jobs_executed, 3 * env.num_jobs() as u64);
}

#[test]
fn evaluate_batch_does_not_depend_on_engine_width() {
    let platform = SpatialPlatform::edge();
    let env = one_layer_env(&platform);
    let hws = sample_hws(&platform, 4, 5);
    let narrow = evaluate_batch(&env, &MappingEngine::new(1), hws.clone(), 16, 9);
    let wide = evaluate_batch(&env, &MappingEngine::new(3), hws, 16, 9);
    assert_eq!(narrow, wide);
    assert!(narrow.0.iter().any(|(_, a)| a.is_some()));
}

#[test]
fn sh_run_does_not_depend_on_engine_width() {
    let platform = SpatialPlatform::edge();
    let env = one_layer_env(&platform);
    let hws = sample_hws(&platform, 6, 21);
    let cfg = ShConfig::modified(32);

    let run = |workers: usize| {
        let mut sessions: Vec<HwSession<'_, SpatialPlatform>> = hws
            .iter()
            .enumerate()
            .map(|(i, hw)| env.session(*hw, 100 + i as u64))
            .collect();
        let telemetry = Telemetry::new();
        let engine = MappingEngine::new(workers);
        let out = sh::run(&mut sessions, &cfg, &engine, &telemetry, None);
        let per_session: Vec<(u64, Option<Assessment>)> =
            sessions.iter().map(|s| (s.spent(), s.assess())).collect();
        (
            out.finalists,
            out.round_budgets,
            out.contained_panics,
            per_session,
            telemetry.get(Counter::ShRounds),
        )
    };

    let narrow = run(1);
    assert_eq!(narrow, run(2));
    let (finalists, round_budgets, panics, per_session, rounds) = narrow;
    assert_eq!(round_budgets, vec![8, 16, 32]);
    assert_eq!(rounds, 3);
    assert_eq!(panics, 0);
    assert!(!finalists.is_empty() && finalists.len() < hws.len());
    for &i in &finalists {
        assert_eq!(per_session[i].0, 32, "finalist {i} stopped early");
    }
}

#[test]
fn sh_run_contains_a_panicking_search_and_poisons_the_sessions() {
    let platform = PanickingSearch(SpatialPlatform::edge());
    let env = one_layer_env(&platform);
    let mut sessions: Vec<HwSession<'_, PanickingSearch>> = sample_hws(&platform, 4, 2)
        .into_iter()
        .enumerate()
        .map(|(i, hw)| env.session(hw, i as u64))
        .collect();
    let telemetry = Telemetry::new();
    let engine = MappingEngine::new(2);

    let out = sh::run(
        &mut sessions,
        &ShConfig::plain(16),
        &engine,
        &telemetry,
        None,
    );

    // Four sessions in round one, two survivors in round two: every job
    // ran, and the search's panic never escaped its job to the worker.
    assert_eq!(out.round_budgets, vec![8, 16]);
    assert_eq!(engine.metrics().jobs_executed, 6);
    assert_eq!(out.contained_panics, engine.metrics().panics_contained);
    assert_eq!(telemetry.get(Counter::ShRounds), 2);
    for (i, s) in sessions.iter().enumerate() {
        assert!(s.is_poisoned(), "session {i} kept running after a panic");
        assert!(s.assess().is_none(), "session {i} assessed as feasible");
    }
    // The engine survives its workers' panics and keeps serving.
    let (results, _, _) = evaluate_batch(&env, &engine, sample_hws(&platform, 1, 3), 8, 0);
    assert!(results[0].1.is_none());
}

#[test]
fn nsga2_front_does_not_depend_on_worker_count() {
    let platform = SpatialPlatform::edge();
    let env = one_layer_env(&platform);
    let cfg = |workers| Nsga2Config {
        population: 4,
        generations: 1,
        inner_budget: 16,
        seed: 8,
        workers,
        ..Nsga2Config::default()
    };
    let one = run_nsga2(&env, &cfg(1));
    let four = run_nsga2(&env, &cfg(4));
    assert_eq!(one.hw_evals, 8);
    assert_eq!(four.hw_evals, 8);
    assert!(!one.front.is_empty());
    assert_eq!(one.front.objectives(), four.front.objectives());
}

#[test]
fn nsga2_completes_when_every_mapping_search_panics() {
    let platform = PanickingSearch(SpatialPlatform::edge());
    let env = one_layer_env(&platform);
    let result = run_nsga2(
        &env,
        &Nsga2Config {
            population: 4,
            generations: 1,
            inner_budget: 16,
            seed: 1,
            workers: 2,
            ..Nsga2Config::default()
        },
    );
    assert_eq!(result.hw_evals, 8);
    assert!(
        result.front.is_empty(),
        "a panicked candidate reached the front"
    );
}

#[test]
fn hasco_completes_when_every_mapping_search_panics() {
    let platform = PanickingSearch(SpatialPlatform::edge());
    let env = one_layer_env(&platform);
    let result = run_hasco(
        &env,
        &HascoConfig {
            iterations: 4,
            inner_budget: 16,
            candidate_pool: 8,
            warmup: 2,
            seed: 1,
            workers: 2,
        },
    );
    assert_eq!(result.hw_evals, 4);
    assert!(
        result.front.is_empty(),
        "a panicked candidate reached the front"
    );
}

#[test]
fn validate_on_network_matches_a_serial_session_and_contains_panics() {
    use unico_core::experiments::validate_on_network;

    let platform = SpatialPlatform::edge();
    let hw = sample_hws(&platform, 1, 13).pop().expect("one design");
    let net = zoo::mobilenet_v1();
    let got = validate_on_network(&platform, hw, &net, 1, 24, 6);
    let env = one_layer_env(&platform);
    let mut s = env.session(hw, 6);
    s.advance_to(24);
    assert_eq!(got, s.assess());

    let panicking = PanickingSearch(SpatialPlatform::edge());
    assert_eq!(validate_on_network(&panicking, hw, &net, 1, 24, 6), None);
}
