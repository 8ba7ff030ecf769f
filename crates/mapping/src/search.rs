//! Resumable software-mapping searchers.
//!
//! All searchers implement [`MappingSearcher`]: give them a cost oracle
//! and a *total* budget, and they consume exactly the not-yet-spent steps.
//! That makes them directly usable as successive-halving arms — a
//! promoted arm simply gets `run_until` called again with a larger budget
//! and continues from its internal state.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::Rng;

use crate::cost::{MappingCost, MappingOutcome};
use crate::history::SearchHistory;
use crate::mapping::Mapping;
use crate::space::MappingSpace;

/// A resumable mapping search over one [`MappingSpace`].
pub trait MappingSearcher {
    /// Runs the search until `budget` total steps have been consumed
    /// (no-op if the history already reached it).
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64);

    /// The evaluation trace so far.
    fn history(&self) -> &SearchHistory;

    /// Best mapping and its outcome, if any feasible candidate was found.
    fn best(&self) -> Option<(&Mapping, MappingOutcome)>;

    /// Gradient-search telemetry, if this searcher is gradient-based
    /// (`None` for the sampling searchers). Drivers use this to book the
    /// gradient counters into the run report without downcasting.
    fn gradient_stats(&self) -> Option<crate::gradient::GradientStats> {
        None
    }

    /// The mapping behind the best-so-far curve at `budget` steps, if the
    /// searcher noted one by then. Fused-group costing re-prices this
    /// mapping under a different DRAM traffic model.
    fn best_mapping_at(&self, budget: u64) -> Option<&Mapping> {
        self.history().best_mapping_at(budget)
    }
}

/// Tracks the incumbent best candidate for a searcher.
#[derive(Debug, Clone, Default)]
pub(crate) struct Incumbent {
    best: Option<(Mapping, MappingOutcome)>,
}

impl Incumbent {
    pub(crate) fn offer(&mut self, m: &Mapping, o: MappingOutcome) -> bool {
        let improved = self.best.as_ref().is_none_or(|(_, b)| o.loss < b.loss);
        if improved {
            self.best = Some((m.clone(), o));
        }
        improved
    }

    pub(crate) fn get(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.best.as_ref().map(|(m, o)| (m, *o))
    }
}

/// Candidate chunk size for the batch-assessing searchers (random and
/// genetic). Candidate *generation* consumes the RNG and assessment does
/// not, so generating a chunk up front and batch-assessing it produces
/// the same RNG stream, history and incumbent as the scalar
/// interleaving.
const ASSESS_CHUNK: usize = 64;

/// Offers each `(mapping, outcome)` pair to the incumbent and pushes it
/// onto the history, in slice order — the shared tail of scalar and
/// batched assessment.
fn record_outcomes(
    candidates: &[Mapping],
    outcomes: Vec<Option<MappingOutcome>>,
    incumbent: &mut Incumbent,
    history: &mut SearchHistory,
) {
    for (m, o) in candidates.iter().zip(outcomes) {
        match o {
            Some(o) => {
                let improved = incumbent.offer(m, o);
                history.push(o);
                if improved {
                    history.note_best_mapping(m);
                }
            }
            None => history.push_infeasible(),
        }
    }
}

/// Uniform random mapping search (the weakest sensible baseline).
#[derive(Debug)]
pub struct RandomSearch {
    space: MappingSpace,
    rng: StdRng,
    history: SearchHistory,
    incumbent: Incumbent,
}

impl RandomSearch {
    /// Creates a random search over `space` with its own RNG stream.
    pub fn new(space: MappingSpace, rng: StdRng) -> Self {
        RandomSearch {
            space,
            rng,
            history: SearchHistory::new(),
            incumbent: Incumbent::default(),
        }
    }
}

impl MappingSearcher for RandomSearch {
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64) {
        while self.history.spent() < budget {
            let n = usize::try_from(budget - self.history.spent())
                .unwrap_or(usize::MAX)
                .min(ASSESS_CHUNK);
            let candidates: Vec<Mapping> =
                (0..n).map(|_| self.space.sample(&mut self.rng)).collect();
            let outcomes = cost.assess_batch(&candidates);
            record_outcomes(
                &candidates,
                outcomes,
                &mut self.incumbent,
                &mut self.history,
            );
        }
    }

    fn history(&self) -> &SearchHistory {
        &self.history
    }

    fn best(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.incumbent.get()
    }
}

/// FlexTensor-style simulated-annealing search: a random walk over
/// mapping mutations with a temperature schedule, restarting from the
/// incumbent when stuck.
///
/// Annealing calls [`MappingCost::assess`] one candidate at a time:
/// each proposal and accept decision consumes RNG conditioned on the
/// previous outcome, so the next candidate does not exist until the
/// previous one is scored. That costs nothing, because every engine's
/// [`MappingCost::assess_batch`] is the same per-candidate loop.
#[derive(Debug)]
pub struct AnnealingSearch {
    space: MappingSpace,
    rng: StdRng,
    history: SearchHistory,
    incumbent: Incumbent,
    current: Option<(Mapping, f64)>,
    since_improvement: u32,
    restart_after: u32,
    warmup: u64,
    /// Last rejected (infeasible) candidate; the next proposal shrinks
    /// it toward the feasible region instead of sampling blindly.
    infeasible: Option<Mapping>,
}

impl AnnealingSearch {
    /// Creates an annealing search with default schedule
    /// (16 random warm-up samples, `T0 = 0.3`, geometric cooling `0.97`,
    /// restart from the incumbent after 40 stale steps).
    pub fn new(space: MappingSpace, rng: StdRng) -> Self {
        AnnealingSearch {
            space,
            rng,
            history: SearchHistory::new(),
            incumbent: Incumbent::default(),
            current: None,
            since_improvement: 0,
            restart_after: 40,
            warmup: 16,
            infeasible: None,
        }
    }
}

/// Annealing start temperature `T0`.
const INITIAL_TEMP: f64 = 0.3;
/// Geometric cooling factor per spent step.
const COOLING: f64 = 0.97;
/// Lowest temperature the acceptance test divides by.
const TEMP_FLOOR: f64 = 1e-9;
/// First step whose `T0 · 0.97ⁿ` (through `powi`) is below the floor;
/// every later step is below it too.
const COOLED_AFTER: usize = 641;

/// The annealing temperature after `spent` steps,
/// `(T0 · 0.97^spent).max(1e-9)`, read from a process-wide table.
///
/// The table is filled once at run time through `powi` with a base the
/// compiler cannot see (`black_box`), so every entry is the bits of the
/// per-step `powi` call it replaces (a compile-time fold of `powi` need
/// not round like the run-time routine). Past the table the temperature
/// is the floor (also past 2³¹ steps, where the per-step `spent as i32`
/// cast wrapped).
fn annealing_temperature(spent: u64) -> f64 {
    static TABLE: OnceLock<[f64; COOLED_AFTER]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let cooling = std::hint::black_box(COOLING);
        std::array::from_fn(|n| (INITIAL_TEMP * cooling.powi(n as i32)).max(TEMP_FLOOR))
    });
    usize::try_from(spent)
        .ok()
        .and_then(|n| table.get(n))
        .copied()
        .unwrap_or(TEMP_FLOOR)
}

impl MappingSearcher for AnnealingSearch {
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64) {
        while self.history.spent() < budget {
            let warming = self.history.spent() < self.warmup;
            let candidate = if let Some(bad) = self.infeasible.take() {
                // Feasibility repair: walk the rejected candidate's
                // working set down until it fits.
                self.space.shrink(&mut self.rng, &bad)
            } else {
                match (&self.current, warming) {
                    (Some((m, _)), false) => self.space.mutate(&mut self.rng, m),
                    _ => self.space.sample(&mut self.rng),
                }
            };
            match cost.assess(&candidate) {
                Some(o) => {
                    let accept = match &self.current {
                        None => true,
                        Some((_, cur_loss)) => {
                            if o.loss < *cur_loss {
                                true
                            } else {
                                // Relative worsening tempered by T.
                                let rel = (o.loss - cur_loss) / cur_loss.max(1e-12);
                                let t = annealing_temperature(self.history.spent());
                                self.rng.gen_bool((-rel / t).exp().clamp(0.0, 1.0))
                            }
                        }
                    };
                    let improved = self.incumbent.offer(&candidate, o);
                    if improved {
                        self.since_improvement = 0;
                    } else {
                        self.since_improvement += 1;
                    }
                    if warming {
                        // During warm-up the walk always tracks the
                        // incumbent so annealing starts from the best
                        // random sample.
                        self.current = self.incumbent.get().map(|(m, b)| (m.clone(), b.loss));
                    } else if accept {
                        self.current = Some((candidate.clone(), o.loss));
                    }
                    self.history.push(o);
                    if improved {
                        self.history.note_best_mapping(&candidate);
                    }
                }
                None => {
                    self.since_improvement += 1;
                    self.history.push_infeasible();
                    // Only repair when we have nothing feasible to mutate
                    // yet, or the repair chain is still making progress
                    // (tiles not yet minimal).
                    let minimal = candidate.l1_tile().iter().all(|&t| t <= 2)
                        && candidate.l2_tile().iter().all(|&t| t <= 2);
                    if !minimal {
                        self.infeasible = Some(candidate);
                    }
                }
            }
            if self.since_improvement >= self.restart_after {
                // Restart the walk from the incumbent (or fresh if none).
                self.current = self.incumbent.get().map(|(m, o)| (m.clone(), o.loss));
                self.since_improvement = 0;
            }
        }
    }

    fn history(&self) -> &SearchHistory {
        &self.history
    }

    fn best(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.incumbent.get()
    }
}

/// Configuration for [`GeneticSearch`].
#[derive(Debug, Clone, Copy)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Fraction of offspring produced by crossover (the rest mutate).
    pub crossover_rate: f64,
    /// Elite individuals carried to the next generation unchanged.
    pub elites: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 20,
            crossover_rate: 0.6,
            elites: 2,
            tournament: 3,
        }
    }
}

/// GAMMA-style genetic mapping search.
#[derive(Debug)]
pub struct GeneticSearch {
    space: MappingSpace,
    rng: StdRng,
    cfg: GeneticConfig,
    history: SearchHistory,
    incumbent: Incumbent,
    /// Scored population `(mapping, loss)`; infeasible individuals carry
    /// `f64::INFINITY`.
    population: Vec<(Mapping, f64)>,
}

impl GeneticSearch {
    /// Creates a genetic search with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `population == 0` or `tournament == 0`.
    pub fn new(space: MappingSpace, rng: StdRng, cfg: GeneticConfig) -> Self {
        assert!(cfg.population > 0, "population must be positive");
        assert!(cfg.tournament > 0, "tournament size must be positive");
        GeneticSearch {
            space,
            rng,
            cfg,
            history: SearchHistory::new(),
            incumbent: Incumbent::default(),
            population: Vec::new(),
        }
    }

    /// Batch-assesses one generation's candidates, recording outcomes in
    /// candidate order (identical to per-candidate assessment: the RNG is
    /// only consumed by candidate *generation*, which happened already).
    fn assess_generation(
        &mut self,
        candidates: Vec<Mapping>,
        cost: &dyn MappingCost,
    ) -> Vec<(Mapping, f64)> {
        let outcomes = cost.assess_batch(&candidates);
        candidates
            .into_iter()
            .zip(outcomes)
            .map(|(m, o)| match o {
                Some(o) => {
                    let improved = self.incumbent.offer(&m, o);
                    self.history.push(o);
                    if improved {
                        self.history.note_best_mapping(&m);
                    }
                    (m, o.loss)
                }
                None => {
                    self.history.push_infeasible();
                    (m, f64::INFINITY)
                }
            })
            .collect()
    }

    fn tournament_pick(&mut self) -> Mapping {
        let mut best: Option<&(Mapping, f64)> = None;
        for _ in 0..self.cfg.tournament {
            let idx = self.rng.gen_range(0..self.population.len());
            let cand = &self.population[idx];
            if best.is_none_or(|b| cand.1 < b.1) {
                best = Some(cand);
            }
        }
        best.expect("non-empty population").0.clone()
    }
}

impl MappingSearcher for GeneticSearch {
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64) {
        // Seed generation: sample the whole missing cohort first, then
        // batch-assess it (identical RNG stream and history order to the
        // scalar interleaving).
        while self.population.len() < self.cfg.population && self.history.spent() < budget {
            let n = (self.cfg.population - self.population.len())
                .min(usize::try_from(budget - self.history.spent()).unwrap_or(usize::MAX));
            let seeds: Vec<Mapping> = (0..n).map(|_| self.space.sample(&mut self.rng)).collect();
            let scored = self.assess_generation(seeds, cost);
            self.population.extend(scored);
        }
        while self.history.spent() < budget {
            // Build the next generation, spending at most the remaining
            // budget.
            let mut next: Vec<(Mapping, f64)> = Vec::with_capacity(self.cfg.population);
            let mut ranked: Vec<usize> = (0..self.population.len()).collect();
            ranked.sort_by(|&a, &b| {
                self.population[a]
                    .1
                    .partial_cmp(&self.population[b].1)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &i in ranked.iter().take(self.cfg.elites) {
                next.push(self.population[i].clone());
            }
            while next.len() < self.cfg.population && self.history.spent() < budget {
                // Children derive from the *previous* generation only
                // (tournaments read `self.population`), so a whole
                // cohort can be generated before any of it is assessed.
                let n = (self.cfg.population - next.len())
                    .min(usize::try_from(budget - self.history.spent()).unwrap_or(usize::MAX));
                let children: Vec<Mapping> = (0..n)
                    .map(|_| {
                        if self.rng.gen_bool(self.cfg.crossover_rate) {
                            let a = self.tournament_pick();
                            let b = self.tournament_pick();
                            self.space.crossover(&mut self.rng, &a, &b)
                        } else {
                            let p = self.tournament_pick();
                            self.space.mutate(&mut self.rng, &p)
                        }
                    })
                    .collect();
                let scored = self.assess_generation(children, cost);
                next.extend(scored);
            }
            if next.len() >= self.cfg.elites.max(1) {
                self.population = next;
            }
        }
    }

    fn history(&self) -> &SearchHistory {
        &self.history
    }

    fn best(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.incumbent.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unico_workloads::{Dim, TensorOp};

    /// The per-step expression the table replaced, evaluated at run time.
    fn powi_temperature(spent: u64) -> f64 {
        let cooling = std::hint::black_box(0.97f64);
        (0.3 * cooling.powi(std::hint::black_box(spent) as i32)).max(1e-9)
    }

    #[test]
    fn temperature_table_has_the_bits_of_powi() {
        for spent in 0..(COOLED_AFTER as u64 * 4) {
            assert_eq!(
                annealing_temperature(spent).to_bits(),
                powi_temperature(spent).to_bits(),
                "step {spent}"
            );
        }
        for spent in [10_000, 1 << 20, i32::MAX as u64] {
            assert_eq!(annealing_temperature(spent), TEMP_FLOOR);
            assert_eq!(powi_temperature(spent), TEMP_FLOOR);
        }
        // The table ends exactly where `powi` crosses the floor.
        assert!(powi_temperature(COOLED_AFTER as u64 - 1) > TEMP_FLOOR);
        assert!(0.3 * std::hint::black_box(0.97f64).powi(COOLED_AFTER as i32) < TEMP_FLOOR);
    }

    /// Cost with clear structure: prefer large L1 K-tiles and penalize
    /// tile K > 32 as infeasible.
    struct Structured;
    impl MappingCost for Structured {
        fn assess(&self, m: &Mapping) -> Option<MappingOutcome> {
            let k = m.l1_tile()[Dim::K.index()];
            if k > 32 {
                return None;
            }
            let loss = 64.0 / k as f64 + m.l2_tile()[Dim::C.index()] as f64 * 0.01;
            Some(MappingOutcome {
                loss,
                latency_s: loss * 1e-3,
                power_mw: 100.0,
            })
        }
    }

    fn space() -> MappingSpace {
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 32,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        MappingSpace::new(&nest)
    }

    #[test]
    fn run_until_is_resumable_and_exact() {
        let mut s = RandomSearch::new(space(), StdRng::seed_from_u64(1));
        s.run_until(&Structured, 20);
        assert_eq!(s.history().spent(), 20);
        let best_20 = s.history().terminal_value();
        s.run_until(&Structured, 20); // no-op
        assert_eq!(s.history().spent(), 20);
        s.run_until(&Structured, 50);
        assert_eq!(s.history().spent(), 50);
        assert!(s.history().terminal_value() <= best_20);
    }

    #[test]
    fn annealing_beats_or_matches_random_on_structured_cost() {
        let budget = 300;
        let mut better = 0;
        for seed in 0..5 {
            let mut rs = RandomSearch::new(space(), StdRng::seed_from_u64(seed));
            let mut an = AnnealingSearch::new(space(), StdRng::seed_from_u64(seed + 100));
            rs.run_until(&Structured, budget);
            an.run_until(&Structured, budget);
            if an.history().terminal_value() <= rs.history().terminal_value() {
                better += 1;
            }
        }
        assert!(better >= 3, "annealing won only {better}/5 seeds");
    }

    #[test]
    fn genetic_makes_progress() {
        let mut ga =
            GeneticSearch::new(space(), StdRng::seed_from_u64(9), GeneticConfig::default());
        ga.run_until(&Structured, 200);
        assert_eq!(ga.history().spent(), 200);
        let (m, o) = ga.best().expect("feasible best");
        assert!(m.l1_tile()[Dim::K.index()] <= 32);
        // Should find a near-maximal legal K tile.
        assert!(o.loss < 64.0 / 8.0, "ga loss {}", o.loss);
    }

    #[test]
    fn infeasible_heavy_cost_still_consumes_budget() {
        struct MostlyInfeasible;
        impl MappingCost for MostlyInfeasible {
            fn assess(&self, m: &Mapping) -> Option<MappingOutcome> {
                if m.l1_tile()[Dim::K.index()] != 1 {
                    return None;
                }
                Some(MappingOutcome {
                    loss: 1.0,
                    latency_s: 1.0,
                    power_mw: 1.0,
                })
            }
        }
        let mut s = AnnealingSearch::new(space(), StdRng::seed_from_u64(3));
        s.run_until(&MostlyInfeasible, 100);
        assert_eq!(s.history().spent(), 100);
    }

    #[test]
    fn best_mapping_matches_terminal_value() {
        let mut s = AnnealingSearch::new(space(), StdRng::seed_from_u64(5));
        s.run_until(&Structured, 150);
        let (_, o) = s.best().unwrap();
        assert_eq!(o.loss, s.history().terminal_value());
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zero_population_panics() {
        let cfg = GeneticConfig {
            population: 0,
            ..GeneticConfig::default()
        };
        let _ = GeneticSearch::new(space(), StdRng::seed_from_u64(1), cfg);
    }
}
