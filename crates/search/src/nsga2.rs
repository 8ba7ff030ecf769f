//! NSGA-II baseline over the hardware design space.
//!
//! A faithful NSGA-II: fast non-dominated sorting, crowding distance,
//! binary crowded-tournament selection, platform-level crossover and
//! mutation. Every individual's inner mapping search runs to the full
//! budget (no early stopping), which is what makes the evolutionary
//! baseline expensive relative to UNICO.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use unico_model::Platform;
use unico_surrogate::pareto::{crowding_distance, non_dominated_sort, ParetoFront};

use crate::engine::MappingEngine;
use crate::env::{evaluate_batch, Assessment, CoSearchEnv};
use crate::trace::{SearchTrace, SimClock};
use crate::CoSearchResult;

/// NSGA-II configuration.
#[derive(Debug, Clone, Copy)]
pub struct Nsga2Config {
    /// Population size.
    pub population: usize,
    /// Number of generations (beyond the initial population).
    pub generations: usize,
    /// Full per-job mapping-search budget for each individual.
    pub inner_budget: u64,
    /// Mutation probability per offspring (crossover otherwise).
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Parallel workers: sizes the run's [`MappingEngine`] and the
    /// simulated clock's cost accounting.
    pub workers: u32,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 20,
            generations: 10,
            inner_budget: 300,
            mutation_rate: 0.3,
            seed: 0,
            workers: 16,
        }
    }
}

type Individual<H> = (H, Option<Assessment>);

/// Runs NSGA-II and returns the PPA front with its convergence trace.
///
/// # Panics
///
/// Panics if `population < 2`.
pub fn run_nsga2<P: Platform>(env: &CoSearchEnv<'_, P>, cfg: &Nsga2Config) -> CoSearchResult<P::Hw>
where
    P::Hw: Send,
{
    assert!(cfg.population >= 2, "population must be at least 2");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock = SimClock::new(cfg.workers);
    let mut trace = SearchTrace::new();
    let mut front: ParetoFront<P::Hw> = ParetoFront::new();
    let mut hw_evals = 0usize;
    // One worker pool for every generation.
    let engine = MappingEngine::new((cfg.workers as usize).max(1));

    let evaluate = |hws: Vec<P::Hw>,
                    gen: u64,
                    clock: &mut SimClock,
                    front: &mut ParetoFront<P::Hw>,
                    hw_evals: &mut usize|
     -> Vec<Individual<P::Hw>> {
        let n = hws.len();
        let (evald, cpu, width) = evaluate_batch(
            env,
            &engine,
            hws,
            cfg.inner_budget,
            cfg.seed.wrapping_add(gen * 7919),
        );
        clock.charge(cpu, width);
        *hw_evals += n;
        for (hw, a) in &evald {
            if let Some(a) = a {
                front.offer(a.objectives(), hw.clone());
            }
        }
        evald
    };

    // Initial population.
    let init: Vec<P::Hw> = (0..cfg.population)
        .map(|_| env.platform().sample_hw(&mut rng))
        .collect();
    let mut pop = evaluate(init, 0, &mut clock, &mut front, &mut hw_evals);
    trace.record(clock.seconds(), front.objectives());

    for gen in 1..=cfg.generations {
        let ranks = rank_population(&pop);
        let crowd = crowding_by_rank(&pop, &ranks);
        // Offspring via crowded binary tournament + variation.
        let mut offspring_hw = Vec::with_capacity(cfg.population);
        for _ in 0..cfg.population {
            let a = tournament(&mut rng, &ranks, &crowd);
            let child = if rng.gen_bool(cfg.mutation_rate) {
                env.platform().perturb_hw(&mut rng, &pop[a].0)
            } else {
                let b = tournament(&mut rng, &ranks, &crowd);
                env.platform().crossover_hw(&mut rng, &pop[a].0, &pop[b].0)
            };
            offspring_hw.push(child);
        }
        let offspring = evaluate(
            offspring_hw,
            gen as u64,
            &mut clock,
            &mut front,
            &mut hw_evals,
        );
        clock.charge_sequential(1.0); // selection overhead

        // Environmental selection over parents + offspring.
        let mut combined = pop;
        combined.extend(offspring);
        pop = environmental_selection(combined, cfg.population);
        trace.record(clock.seconds(), front.objectives());
    }

    CoSearchResult {
        front,
        wall_clock_s: clock.seconds(),
        trace,
        hw_evals,
    }
}

/// Rank of each individual: non-domination front index; infeasible
/// individuals rank after every feasible front.
fn rank_population<H>(pop: &[Individual<H>]) -> Vec<usize> {
    let feasible: Vec<usize> = (0..pop.len()).filter(|&i| pop[i].1.is_some()).collect();
    let points: Vec<Vec<f64>> = feasible
        .iter()
        .map(|&i| pop[i].1.as_ref().expect("filtered feasible").objectives())
        .collect();
    let fronts = non_dominated_sort(&points);
    let mut rank = vec![fronts.len(); pop.len()]; // infeasible: worst rank
    for (r, f) in fronts.iter().enumerate() {
        for &local in f {
            rank[feasible[local]] = r;
        }
    }
    rank
}

/// Crowding distance computed within each rank.
fn crowding_by_rank<H>(pop: &[Individual<H>], ranks: &[usize]) -> Vec<f64> {
    let mut crowd = vec![0.0f64; pop.len()];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for r in 0..=max_rank {
        let members: Vec<usize> = (0..pop.len()).filter(|&i| ranks[i] == r).collect();
        let pts: Vec<Vec<f64>> = members
            .iter()
            .map(|&i| {
                pop[i]
                    .1
                    .as_ref()
                    .map_or(vec![f64::MAX; 3], |a| a.objectives())
            })
            .collect();
        for (local, d) in crowding_distance(&pts).into_iter().enumerate() {
            crowd[members[local]] = d;
        }
    }
    crowd
}

fn tournament(rng: &mut StdRng, ranks: &[usize], crowd: &[f64]) -> usize {
    let a = rng.gen_range(0..ranks.len());
    let b = rng.gen_range(0..ranks.len());
    match ranks[a].cmp(&ranks[b]) {
        std::cmp::Ordering::Less => a,
        std::cmp::Ordering::Greater => b,
        std::cmp::Ordering::Equal => {
            if crowd[a] >= crowd[b] {
                a
            } else {
                b
            }
        }
    }
}

fn environmental_selection<H: Clone>(
    combined: Vec<Individual<H>>,
    target: usize,
) -> Vec<Individual<H>> {
    let ranks = rank_population(&combined);
    let crowd = crowding_by_rank(&combined, &ranks);
    let mut order: Vec<usize> = (0..combined.len()).collect();
    order.sort_by(|&a, &b| {
        ranks[a].cmp(&ranks[b]).then(
            crowd[b]
                .partial_cmp(&crowd[a])
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    order
        .into_iter()
        .take(target)
        .map(|i| combined[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    #[test]
    fn nsga2_produces_nonempty_front_and_trace() {
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
        let cfg = Nsga2Config {
            population: 6,
            generations: 2,
            inner_budget: 24,
            ..Nsga2Config::default()
        };
        let res = run_nsga2(&env, &cfg);
        assert!(!res.front.is_empty(), "front must be populated");
        assert_eq!(res.hw_evals, 6 * 3);
        assert_eq!(res.trace.points().len(), 3);
        assert!(res.wall_clock_s > 0.0);
        // Trace fronts never shrink in quality: last snapshot equals the
        // final front.
        assert_eq!(
            res.trace.final_front().unwrap().len(),
            res.front.objectives().len()
        );
    }

    #[test]
    fn rank_puts_infeasible_last() {
        let pop: Vec<Individual<u8>> = vec![
            (
                0,
                Some(Assessment {
                    latency_s: 1.0,
                    power_mw: 1.0,
                    area_mm2: 1.0,
                }),
            ),
            (1, None),
        ];
        let ranks = rank_population(&pop);
        assert!(ranks[1] > ranks[0]);
    }

    #[test]
    fn environmental_selection_prefers_low_rank() {
        let mk = |l: f64| Assessment {
            latency_s: l,
            power_mw: 1.0,
            area_mm2: 1.0,
        };
        let combined: Vec<Individual<u8>> = vec![
            (0, Some(mk(5.0))),
            (1, Some(mk(1.0))),
            (2, None),
            (3, Some(mk(3.0))),
        ];
        let next = environmental_selection(combined, 2);
        let ids: Vec<u8> = next.iter().map(|(h, _)| *h).collect();
        assert!(ids.contains(&1));
        assert!(!ids.contains(&2));
    }
}
