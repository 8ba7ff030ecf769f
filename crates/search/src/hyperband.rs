//! Hyperband over hardware sessions.
//!
//! Hyperband (Li et al., 2017) wraps successive halving in a grid of
//! *brackets* that trade the number of candidates against per-candidate
//! budget, answering SH's "n versus B/n" question. It is the scaffolding
//! BOHB builds on and a natural extra baseline for the co-search setting:
//! each bracket samples fresh hardware candidates and runs (M)SH on them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_model::{EvalCache, Platform};
use unico_surrogate::pareto::ParetoFront;

use crate::engine::MappingEngine;
use crate::env::{CoSearchEnv, HwSession};
use crate::sh::{self, ShConfig};
use crate::telemetry::Telemetry;
use crate::trace::{SearchTrace, SimClock};
use crate::CoSearchResult;

/// Hyperband configuration.
#[derive(Debug, Clone, Copy)]
pub struct HyperbandConfig {
    /// Maximum per-job mapping budget (`R` in Hyperband terms).
    pub b_max: u64,
    /// Halving factor `η` (candidate count per bracket scales as
    /// `η^s`).
    pub eta: u32,
    /// Number of full Hyperband rounds (each round runs every bracket).
    pub rounds: usize,
    /// AUC promotion share inside each SH run (`0` = vanilla Hyperband).
    pub auc_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Parallel workers for cost accounting.
    pub workers: u32,
}

impl Default for HyperbandConfig {
    fn default() -> Self {
        HyperbandConfig {
            b_max: 300,
            eta: 3,
            rounds: 2,
            auc_fraction: 0.0,
            seed: 0,
            workers: 16,
        }
    }
}

/// Number of brackets `s_max + 1 = ⌊log_η(b_max)⌋ + 1`, capped for
/// practicality.
fn num_brackets(cfg: &HyperbandConfig) -> usize {
    let mut s = 0usize;
    let mut b = cfg.b_max;
    while b >= u64::from(cfg.eta) && s < 4 {
        b /= u64::from(cfg.eta);
        s += 1;
    }
    s + 1
}

/// Runs Hyperband and returns the PPA front with its convergence trace.
pub fn run_hyperband<P: Platform>(
    env: &CoSearchEnv<'_, P>,
    cfg: &HyperbandConfig,
) -> CoSearchResult<P::Hw>
where
    P::Hw: Send,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock = SimClock::new(cfg.workers);
    let mut trace = SearchTrace::new();
    let mut front: ParetoFront<P::Hw> = ParetoFront::new();
    let mut hw_evals = 0usize;
    // One worker pool for every bracket of every round.
    let engine = MappingEngine::new((cfg.workers as usize).max(1));
    let cache_start = env.platform().eval_cache().map(EvalCache::stats);

    let brackets = num_brackets(cfg);
    for round in 0..cfg.rounds {
        for s in (0..brackets).rev() {
            // Bracket s: n = η^s candidates, initial budget b_max / η^s.
            let n = (u64::from(cfg.eta).pow(s as u32)).max(1) as usize;
            let mut sessions: Vec<HwSession<'_, P>> = (0..n)
                .map(|i| {
                    let hw = env.platform().sample_hw(&mut rng);
                    env.session(
                        hw,
                        cfg.seed.wrapping_add((round * 7919 + s * 131 + i) as u64),
                    )
                })
                .collect();
            let sh_cfg = ShConfig {
                b_max: cfg.b_max,
                auc_fraction: cfg.auc_fraction,
                min_budget: (cfg.b_max / u64::from(cfg.eta).pow(s as u32)).max(4),
            };
            sh::run(&mut sessions, &sh_cfg, &engine, Telemetry::global(), None);
            let cpu: f64 = sessions.iter().map(HwSession::cost_seconds).sum();
            clock.charge(cpu, (n * env.num_jobs()) as u32);
            hw_evals += sessions.len();
            for sess in &sessions {
                if let Some(a) = sess.assess() {
                    front.offer(a.objectives(), sess.hw().clone());
                }
            }
            trace.record(clock.seconds(), front.objectives());
        }
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
    fn bracket_count_grows_with_budget() {
        let small = HyperbandConfig {
            b_max: 8,
            eta: 3,
            ..HyperbandConfig::default()
        };
        let big = HyperbandConfig {
            b_max: 300,
            eta: 3,
            ..HyperbandConfig::default()
        };
        assert!(num_brackets(&big) > num_brackets(&small));
        assert!(num_brackets(&big) <= 5);
    }

    #[test]
    fn hyperband_produces_front_and_trace() {
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
        let cfg = HyperbandConfig {
            b_max: 27,
            eta: 3,
            rounds: 1,
            ..HyperbandConfig::default()
        };
        let res = run_hyperband(&env, &cfg);
        assert!(!res.front.is_empty());
        // Brackets: s = 0..=3 for b_max 27 -> 1 + 3 + 9 + 27 candidates.
        assert_eq!(res.hw_evals, 1 + 3 + 9 + 27);
        assert_eq!(res.trace.points().len(), 4);
        assert!(res.wall_clock_s > 0.0);
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
        let cfg = HyperbandConfig {
            b_max: 9,
            eta: 3,
            rounds: 1,
            seed: 5,
            ..HyperbandConfig::default()
        };
        let a = run_hyperband(&env, &cfg);
        let b = run_hyperband(&env, &cfg);
        assert_eq!(a.front.objectives(), b.front.objectives());
    }
}
