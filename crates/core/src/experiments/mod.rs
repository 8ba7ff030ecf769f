//! Experiment drivers: one per table/figure of the paper's evaluation.
//!
//! Every driver is a pure function of a [`Scale`] and a seed, so the
//! integration tests run the same code at smoke scale that the
//! `unico-bench` binaries run at paper scale.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 1 (edge)  | [`table::run_table`] with [`table::Scenario::Edge`] |
//! | Table 2 (cloud) | [`table::run_table`] with [`table::Scenario::Cloud`] |
//! | Fig. 7          | [`hv_trace::run_hv_trace`] |
//! | Fig. 8          | [`robust_pairs::run_robust_pairs`] |
//! | Fig. 9          | [`generalization::run_generalization`] |
//! | Fig. 10         | [`ablation::run_ablation`] |
//! | Fig. 11         | [`ascend::run_ascend`] |

pub mod ablation;
pub mod ascend;
pub mod generalization;
pub mod hv_trace;
pub mod robust_pairs;
pub mod stats;
pub mod table;

use unico_model::{Platform, SpatialPlatform};
use unico_search::{evaluate_batch, Assessment, CoSearchEnv, EnvConfig, MappingEngine};
use unico_workloads::Network;

/// Experiment sizing: the same drivers run at `smoke` scale in tests and
/// `paper` scale in the bench binaries.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// UNICO/MOBOHB hardware batch size (`N`).
    pub batch: usize,
    /// UNICO MOBO iterations (`MaxIter`).
    pub max_iter: usize,
    /// Maximum per-job mapping budget (`b_max`).
    pub b_max: u64,
    /// Dominant layers kept per network.
    pub layers_per_network: usize,
    /// HASCO outer iterations.
    pub hasco_iterations: usize,
    /// NSGA-II population size.
    pub nsga_population: usize,
    /// NSGA-II generations.
    pub nsga_generations: usize,
    /// MOBOHB outer iterations.
    pub mobohb_iterations: usize,
    /// Budget used when validating a fixed design on a new network.
    pub validation_budget: u64,
    /// Parallel workers for cost accounting.
    pub workers: u32,
}

impl Scale {
    /// Tiny scale for CI/integration tests (seconds of real time).
    pub fn smoke() -> Self {
        Scale {
            batch: 6,
            max_iter: 3,
            b_max: 32,
            layers_per_network: 1,
            hasco_iterations: 6,
            nsga_population: 6,
            nsga_generations: 2,
            mobohb_iterations: 3,
            validation_budget: 32,
            workers: 16,
        }
    }

    /// The paper's configuration (`N = 30`, `b_max = 300`).
    pub fn paper() -> Self {
        Scale {
            batch: 30,
            max_iter: 30,
            b_max: 300,
            layers_per_network: 4,
            hasco_iterations: 120,
            nsga_population: 30,
            nsga_generations: 12,
            mobohb_iterations: 20,
            validation_budget: 300,
            workers: 16,
        }
    }

    /// A mid-size scale for quick local experimentation.
    pub fn quick() -> Self {
        Scale {
            batch: 12,
            max_iter: 8,
            b_max: 96,
            layers_per_network: 2,
            hasco_iterations: 32,
            nsga_population: 12,
            nsga_generations: 6,
            mobohb_iterations: 8,
            validation_budget: 96,
            workers: 16,
        }
    }
}

/// Evaluates a *fixed* hardware design on one network by running a fresh
/// full-budget software mapping search (the paper's procedure for
/// validating designs on unseen workloads). Returns `None` when no
/// feasible mapping exists on some layer.
pub fn validate_on_network<P: Platform>(
    platform: &P,
    hw: P::Hw,
    network: &Network,
    layers: usize,
    budget: u64,
    seed: u64,
) -> Option<Assessment>
where
    P::Hw: Send,
{
    let env = CoSearchEnv::new(
        platform,
        std::slice::from_ref(network),
        EnvConfig {
            max_layers_per_network: layers,
            power_cap_mw: None,
            area_cap_mm2: None,
        },
    );
    let engine = MappingEngine::new(1);
    let (mut results, _, _) = evaluate_batch(&env, &engine, vec![hw], budget, seed);
    results.pop().and_then(|(_, a)| a)
}

/// The edge/cloud platform with the paper's power constraint, shared by
/// several experiments.
pub fn scenario_env<'p>(
    platform: &'p SpatialPlatform,
    networks: &[Network],
    scale: &Scale,
    power_cap_mw: Option<f64>,
) -> CoSearchEnv<'p, SpatialPlatform> {
    CoSearchEnv::new(
        platform,
        networks,
        EnvConfig {
            max_layers_per_network: scale.layers_per_network,
            power_cap_mw,
            area_cap_mm2: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::zoo;

    #[test]
    fn scales_are_ordered() {
        let s = Scale::smoke();
        let p = Scale::paper();
        assert!(s.batch < p.batch);
        assert!(s.b_max < p.b_max);
        assert!(Scale::quick().b_max < p.b_max);
    }

    #[test]
    fn validate_on_network_runs() {
        let p = SpatialPlatform::edge();
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        // Try a few configs until one is feasible on the tiny workload.
        for i in 0..30 {
            let hw = p.sample_hw(&mut rng);
            if let Some(a) = validate_on_network(&p, hw, &zoo::mobilenet_v1(), 1, 24, i) {
                assert!(a.latency_s > 0.0);
                return;
            }
        }
        panic!("no feasible config found");
    }
}
