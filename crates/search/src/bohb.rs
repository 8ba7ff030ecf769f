//! Multi-objective BOHB baseline (MOBOHB): batched Bayesian optimization
//! with *vanilla* successive halving and all-sample surrogate updates.
//!
//! The contrast with UNICO is deliberate and matches the paper's Fig. 7
//! discussion: MOBOHB shares the batch + SH skeleton but uses plain SH
//! (terminal value only) and feeds every evaluated sample back into the
//! surrogate, without UNICO's AUC promotion or high-fidelity selection.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_model::{EvalCache, Platform};
use unico_surrogate::pareto::ParetoFront;
use unico_surrogate::scalarize::{normalize_columns, parego, sample_simplex, DEFAULT_RHO};
use unico_surrogate::{select_batch, AcquisitionKind, GaussianProcess, KernelKind};

use crate::engine::MappingEngine;
use crate::env::{CoSearchEnv, HwSession};
use crate::sh::{self, ShConfig};
use crate::telemetry::Telemetry;
use crate::trace::{SearchTrace, SimClock};
use crate::CoSearchResult;

/// MOBOHB configuration.
#[derive(Debug, Clone, Copy)]
pub struct MobohbConfig {
    /// Outer iterations.
    pub iterations: usize,
    /// Hardware candidates sampled per iteration.
    pub batch: usize,
    /// Maximum per-job mapping-search budget (`b_max`).
    pub b_max: u64,
    /// Fraction of each batch drawn uniformly at random (BOHB's
    /// model-free exploration share).
    pub random_fraction: f64,
    /// Candidate pool size for the acquisition.
    pub candidate_pool: usize,
    /// RNG seed.
    pub seed: u64,
    /// Parallel workers for cost accounting.
    pub workers: u32,
}

impl Default for MobohbConfig {
    fn default() -> Self {
        MobohbConfig {
            iterations: 12,
            batch: 12,
            b_max: 300,
            random_fraction: 0.33,
            candidate_pool: 192,
            seed: 0,
            workers: 16,
        }
    }
}

/// Runs the MOBOHB baseline.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn run_mobohb<P: Platform>(
    env: &CoSearchEnv<'_, P>,
    cfg: &MobohbConfig,
) -> CoSearchResult<P::Hw>
where
    P::Hw: Send,
{
    assert!(cfg.batch > 0, "batch must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock = SimClock::new(cfg.workers);
    let mut trace = SearchTrace::new();
    let mut front: ParetoFront<P::Hw> = ParetoFront::new();
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<Vec<f64>> = Vec::new();
    let mut hw_evals = 0usize;
    // One worker pool for all iterations; SH rounds reuse its threads.
    let engine = MappingEngine::new((cfg.workers as usize).max(1));
    let cache_start = env.platform().eval_cache().map(EvalCache::stats);

    for iter in 0..cfg.iterations {
        // --- Assemble the batch: model-guided + random shares. ---
        let n_random = ((cfg.batch as f64) * cfg.random_fraction).ceil() as usize;
        let n_model = cfg.batch.saturating_sub(n_random);
        let mut batch_hw: Vec<P::Hw> = Vec::with_capacity(cfg.batch);
        if n_model > 0 && xs.len() >= 4 {
            let weights = sample_simplex(&mut rng, 3);
            let normalized = normalize_columns(&ys);
            let targets: Vec<f64> = normalized
                .iter()
                .map(|y| parego(y, &weights, DEFAULT_RHO))
                .collect();
            let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
            let mut gp = GaussianProcess::new(KernelKind::Matern52, env.platform().feature_dim());
            if gp.fit(&xs, &targets, &mut rng).is_ok() {
                clock.charge_sequential(2.0);
                let pool: Vec<P::Hw> = (0..cfg.candidate_pool)
                    .map(|_| env.platform().sample_hw(&mut rng))
                    .collect();
                let feats: Vec<Vec<f64>> = pool.iter().map(|h| env.platform().encode(h)).collect();
                let picks = select_batch(
                    gp,
                    &feats,
                    best,
                    AcquisitionKind::ExpectedImprovement,
                    n_model,
                );
                for i in picks {
                    batch_hw.push(pool[i].clone());
                }
            }
        }
        while batch_hw.len() < cfg.batch {
            batch_hw.push(env.platform().sample_hw(&mut rng));
        }

        // --- Vanilla successive halving over the batch. ---
        let mut sessions: Vec<HwSession<'_, P>> = batch_hw
            .into_iter()
            .enumerate()
            .map(|(i, hw)| env.session(hw, cfg.seed.wrapping_add((iter * 131 + i) as u64)))
            .collect();
        sh::run(
            &mut sessions,
            &ShConfig::plain(cfg.b_max),
            &engine,
            Telemetry::global(),
            None,
        );
        let cpu: f64 = sessions.iter().map(HwSession::cost_seconds).sum();
        clock.charge(cpu, (cfg.batch * env.num_jobs()) as u32);
        hw_evals += sessions.len();

        // --- All-sample surrogate update + front maintenance. ---
        for s in &sessions {
            if let Some(a) = s.assess() {
                let obj = a.objectives();
                xs.push(env.platform().encode(s.hw()));
                ys.push(obj.clone());
                front.offer(obj, s.hw().clone());
            }
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

    if let (Some(cache), Some(start)) = (env.platform().eval_cache(), cache_start) {
        Telemetry::global().add_cache_stats(cache.stats().delta_since(&start));
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
    fn mobohb_runs_with_sh_savings() {
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
        let cfg = MobohbConfig {
            iterations: 3,
            batch: 8,
            b_max: 32,
            candidate_pool: 32,
            ..MobohbConfig::default()
        };
        let res = run_mobohb(&env, &cfg);
        assert_eq!(res.hw_evals, 24);
        assert_eq!(res.trace.points().len(), 3);
        assert!(!res.front.is_empty());
        // SH means not every candidate consumed the full budget, so the
        // total cost must be below the no-early-stopping worst case.
        let full_cost_one_iter = 8.0 * 32.0 * 1.0; // batch x b_max x 1 s
        let worst = 3.0 * full_cost_one_iter / res.wall_clock_s.max(1e-9);
        assert!(worst > 1.0, "SH should save cost");
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
        let cfg = MobohbConfig {
            iterations: 2,
            batch: 6,
            b_max: 16,
            candidate_pool: 16,
            seed: 9,
            ..MobohbConfig::default()
        };
        let a = run_mobohb(&env, &cfg);
        let b = run_mobohb(&env, &cfg);
        assert_eq!(a.front.objectives(), b.front.objectives());
    }
}
