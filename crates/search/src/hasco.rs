//! HASCO-like baseline: sequential multi-objective Bayesian optimization
//! with full-budget inner mapping search.
//!
//! One hardware candidate per iteration, chosen by expected improvement
//! on a ParEGO-scalarized GP surrogate (fresh random weights each
//! iteration); its software mapping search always runs to the full
//! budget. This is the "ChampionUpdate without SH" configuration the
//! paper ablates against.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_model::Platform;
use unico_surrogate::pareto::ParetoFront;
use unico_surrogate::scalarize::{normalize_columns, parego, sample_simplex, DEFAULT_RHO};
use unico_surrogate::{expected_improvement, GaussianProcess, KernelKind, PoolPosterior};

use crate::engine::MappingEngine;
use crate::env::{evaluate_batch, CoSearchEnv};
use crate::trace::{SearchTrace, SimClock};
use crate::CoSearchResult;

/// HASCO-like baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct HascoConfig {
    /// Outer iterations (one hardware evaluation each).
    pub iterations: usize,
    /// Full per-job mapping-search budget.
    pub inner_budget: u64,
    /// Random candidate pool size scored by the acquisition.
    pub candidate_pool: usize,
    /// Random exploration iterations before the surrogate kicks in.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
    /// Parallel workers for cost accounting (inner jobs only — the outer
    /// loop is sequential, which is HASCO's handicap).
    pub workers: u32,
}

impl Default for HascoConfig {
    fn default() -> Self {
        HascoConfig {
            iterations: 40,
            inner_budget: 300,
            candidate_pool: 128,
            warmup: 6,
            seed: 0,
            workers: 16,
        }
    }
}

/// Runs the HASCO-like baseline.
pub fn run_hasco<P: Platform>(env: &CoSearchEnv<'_, P>, cfg: &HascoConfig) -> CoSearchResult<P::Hw>
where
    P::Hw: Send,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock = SimClock::new(cfg.workers);
    let mut trace = SearchTrace::new();
    let mut front: ParetoFront<P::Hw> = ParetoFront::new();
    // All evaluated samples: (features, objective vector).
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<Vec<f64>> = Vec::new();
    let mut hw_evals = 0usize;
    // One candidate per iteration: a single worker runs its jobs.
    let engine = MappingEngine::new(1);

    for iter in 0..cfg.iterations {
        let candidate = if iter < cfg.warmup || xs.is_empty() {
            env.platform().sample_hw(&mut rng)
        } else {
            // ParEGO scalarization with fresh weights, GP fit, EI argmax
            // over a random pool.
            let weights = sample_simplex(&mut rng, 3);
            let normalized = normalize_columns(&ys);
            let targets: Vec<f64> = normalized
                .iter()
                .map(|y| parego(y, &weights, DEFAULT_RHO))
                .collect();
            let mut gp = GaussianProcess::new(KernelKind::Matern52, env.platform().feature_dim());
            let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
            let pool: Vec<P::Hw> = (0..cfg.candidate_pool)
                .map(|_| env.platform().sample_hw(&mut rng))
                .collect();
            match gp.fit(&xs, &targets, &mut rng) {
                Ok(()) => {
                    clock.charge_sequential(2.0); // surrogate overhead
                    let feats: Vec<Vec<f64>> =
                        pool.iter().map(|hw| env.platform().encode(hw)).collect();
                    let mut posterior = PoolPosterior::new(&feats, gp.len());
                    let (means, vars) = posterior.update(&gp);
                    let mut best_idx = 0usize;
                    let mut best_ei = f64::NEG_INFINITY;
                    for (i, (&m, &v)) in means.iter().zip(vars).enumerate() {
                        let ei = expected_improvement(m, v, best);
                        if ei > best_ei {
                            best_ei = ei;
                            best_idx = i;
                        }
                    }
                    pool.into_iter().nth(best_idx).expect("pool non-empty")
                }
                Err(_) => env.platform().sample_hw(&mut rng),
            }
        };

        let (evald, cpu, width) = evaluate_batch(
            env,
            &engine,
            vec![candidate],
            cfg.inner_budget,
            cfg.seed.wrapping_add(iter as u64 * 104729),
        );
        clock.charge(cpu, width);
        hw_evals += 1;
        let (hw, assessment) = evald.into_iter().next().expect("one candidate");
        if let Some(a) = assessment {
            let obj = a.objectives();
            xs.push(env.platform().encode(&hw));
            ys.push(obj.clone());
            front.offer(obj, hw);
        }
        // Bound the GP training set to the newest points.
        const GP_CAP: usize = 400;
        if xs.len() > GP_CAP {
            let drop = xs.len() - GP_CAP;
            xs.drain(..drop);
            ys.drain(..drop);
        }
        trace.record(clock.seconds(), front.objectives());
    }

    CoSearchResult {
        front,
        wall_clock_s: clock.seconds(),
        trace,
        hw_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    #[test]
    fn hasco_runs_and_improves_front() {
        let p = SpatialPlatform::edge();
        let env = CoSearchEnv::new(
            &p,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 1,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        );
        let cfg = HascoConfig {
            iterations: 8,
            inner_budget: 24,
            candidate_pool: 32,
            warmup: 3,
            ..HascoConfig::default()
        };
        let res = run_hasco(&env, &cfg);
        assert_eq!(res.hw_evals, 8);
        assert_eq!(res.trace.points().len(), 8);
        assert!(!res.front.is_empty());
        // Wall clock strictly increases across iterations.
        let secs: Vec<f64> = res.trace.points().iter().map(|p| p.seconds).collect();
        assert!(secs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn deterministic_under_seed() {
        let p = SpatialPlatform::edge();
        let env = CoSearchEnv::new(
            &p,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 1,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        );
        let cfg = HascoConfig {
            iterations: 5,
            inner_budget: 16,
            candidate_pool: 16,
            warmup: 2,
            seed: 42,
            ..HascoConfig::default()
        };
        let a = run_hasco(&env, &cfg);
        let b = run_hasco(&env, &cfg);
        assert_eq!(a.front.objectives(), b.front.objectives());
        assert_eq!(a.wall_clock_s, b.wall_clock_s);
    }
}
