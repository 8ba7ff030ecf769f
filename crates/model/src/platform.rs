//! The `Platform` abstraction: everything the co-optimizer needs to know
//! about a target accelerator family.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_mapping::{
    AnnealingSearch, GeneticConfig, GeneticSearch, GradientSearcher, Mapping, MappingCost,
    MappingOutcome, MappingSearcher, MappingSpace, QLearningSearch,
};
use unico_workloads::LoopNest;

use crate::analytical::{AnalyticalModel, BoundSpatialCost, MappingObjective};
use crate::evalcache::EvalCache;
use crate::hw::{Dataflow, HwConfig, HwSpace};
use crate::loopcentric::{BoundLoopCentricCost, LoopCentricModel};
use crate::tech::TechParams;

/// A co-design target: a hardware design space plus the machinery to
/// evaluate mappings on any of its configurations.
///
/// The UNICO algorithm, HASCO-like baseline, NSGA-II and MOBOHB are all
/// generic over this trait, so swapping the open-source spatial template
/// for the Ascend-like cycle-accurate platform changes nothing in the
/// search code.
pub trait Platform: Sync {
    /// A hardware configuration of this platform.
    type Hw: Clone + Send + Sync + PartialEq + std::fmt::Debug;

    /// Human-readable platform name.
    fn name(&self) -> &str;

    /// Dimensionality of the surrogate feature encoding.
    fn feature_dim(&self) -> usize;

    /// Encodes a configuration as features in `[0, 1]^d` for the GP.
    fn encode(&self, hw: &Self::Hw) -> Vec<f64>;

    /// Samples a uniformly random configuration.
    fn sample_hw(&self, rng: &mut StdRng) -> Self::Hw;

    /// A local perturbation of `hw` (GA mutation / pattern search move).
    fn perturb_hw(&self, rng: &mut StdRng, hw: &Self::Hw) -> Self::Hw;

    /// Recombines two configurations (GA crossover).
    fn crossover_hw(&self, rng: &mut StdRng, a: &Self::Hw, b: &Self::Hw) -> Self::Hw;

    /// Silicon area of a configuration, mm².
    fn area_mm2(&self, hw: &Self::Hw) -> f64;

    /// Cardinality of the hardware design space.
    fn hw_space_size(&self) -> u64;

    /// Binds a PPA cost oracle to `(hw, nest)` for mapping search.
    fn bind<'a>(
        &'a self,
        hw: &Self::Hw,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a>;

    /// Scores a whole batch of mappings on one `(hw, nest)` pair,
    /// element `i` corresponding to `mappings[i]`.
    ///
    /// The default binds a cost oracle and delegates to
    /// [`MappingCost::assess_batch`], so results are bitwise identical
    /// to per-candidate `assess` calls in slice order (cache lookups
    /// included).
    fn evaluate_batch(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        mappings: &[Mapping],
    ) -> Vec<Option<MappingOutcome>> {
        self.bind(hw, nest).assess_batch(mappings)
    }

    /// Creates this platform's software-mapping search tool for
    /// `(hw, nest)` (e.g. FlexTensor-style annealing for the spatial
    /// template, depth-first fusion search for the Ascend-like core).
    fn make_searcher(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send>;

    /// Simulated wall-clock seconds one PPA evaluation costs.
    fn eval_cost_seconds(&self) -> f64;

    /// One-line description of a configuration.
    fn describe(&self, hw: &Self::Hw) -> String;

    /// The evaluation cache the platform threads into every bound cost,
    /// if one is attached. Drivers snapshot its [`EvalCache::stats`]
    /// around a run to report hit rates.
    fn eval_cache(&self) -> Option<&EvalCache> {
        None
    }

    /// Losslessly serializes a configuration as integer words for
    /// checkpointing, or `None` if the platform does not support it.
    /// Must round-trip exactly through [`Platform::hw_from_words`].
    fn hw_words(&self, _hw: &Self::Hw) -> Option<Vec<u64>> {
        None
    }

    /// Rebuilds a configuration from [`Platform::hw_words`] output.
    /// Returns `None` for malformed words or on platforms without
    /// checkpoint support.
    fn hw_from_words(&self, _words: &[u64]) -> Option<Self::Hw> {
        None
    }

    /// Builds a fused-group pricing oracle for `hw` over per-layer
    /// `(nest, best mapping, repeat)` entries — indexed by the id space
    /// the network's fusion edges use, `None` entries marking layers
    /// with no priced mapping yet. Returns `None` when this platform
    /// has no fused cost model; callers then keep the per-layer path.
    fn fusion_pricer<'a>(
        &'a self,
        _hw: &Self::Hw,
        _layers: Vec<Option<(LoopNest, Mapping, u32)>>,
    ) -> Option<Box<dyn crate::fused::FusionPricer + 'a>> {
        None
    }
}

/// Which analytical PPA engine backs the platform (the paper names both
/// MAESTRO and TimeLoop as interchangeable prototyping engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PpaEngine {
    /// MAESTRO-flavoured data-centric model (default).
    #[default]
    DataCentric,
    /// TimeLoop-flavoured loop-centric model with an explicit L2 port.
    LoopCentric,
}

/// Which software-mapping search tool the platform hands to the
/// co-optimizer (the paper evaluates FlexTensor and mentions GAMMA as an
/// alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingTool {
    /// FlexTensor-style simulated annealing (default).
    #[default]
    Annealing,
    /// GAMMA-style genetic search.
    Genetic,
    /// FlexTensor's Q-learning policy variant.
    QLearning,
    /// DOSA-style gradient descent over the differentiable relaxation
    /// of the analytical cost (falls back to random sampling on costs
    /// without a surrogate, e.g. the loop-centric engine).
    Gradient,
}

/// The open-source 2-D spatial accelerator platform: analytical model +
/// enumerated [`HwSpace`] + a configurable mapping search tool.
#[derive(Debug, Clone)]
pub struct SpatialPlatform {
    name: String,
    model: AnalyticalModel,
    space: HwSpace,
    tool: MappingTool,
    objective: MappingObjective,
    engine: PpaEngine,
    loop_centric: LoopCentricModel,
    cache: Option<Arc<EvalCache>>,
}

/// Simulated wall-clock seconds charged per spatial-platform evaluation.
const EVAL_COST_S: f64 = 1.0;

impl SpatialPlatform {
    /// The edge scenario (power-constrained small configurations).
    pub fn edge() -> Self {
        SpatialPlatform {
            name: "spatial-edge".to_string(),
            model: AnalyticalModel::new(TechParams::default()),
            space: HwSpace::edge(),
            tool: MappingTool::Annealing,
            objective: MappingObjective::Latency,
            engine: PpaEngine::DataCentric,
            loop_centric: LoopCentricModel::new(TechParams::default()),
            cache: None,
        }
    }

    /// The cloud scenario.
    pub fn cloud() -> Self {
        SpatialPlatform {
            name: "spatial-cloud".to_string(),
            model: AnalyticalModel::new(TechParams::cloud()),
            space: HwSpace::cloud(),
            tool: MappingTool::Annealing,
            objective: MappingObjective::Latency,
            engine: PpaEngine::DataCentric,
            loop_centric: LoopCentricModel::new(TechParams::cloud()),
            cache: None,
        }
    }

    /// Selects the software-mapping search tool.
    pub fn with_mapping_tool(mut self, tool: MappingTool) -> Self {
        self.tool = tool;
        self
    }

    /// Selects the software-mapping search objective (latency or EDP).
    pub fn with_objective(mut self, objective: MappingObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Selects the analytical PPA engine.
    pub fn with_engine(mut self, engine: PpaEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches an evaluation cache (or a replay-mode cache loaded from
    /// a golden trace); every bound cost memoizes through it.
    pub fn with_eval_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configured PPA engine.
    pub fn engine(&self) -> PpaEngine {
        self.engine
    }

    /// The configured mapping tool.
    pub fn mapping_tool(&self) -> MappingTool {
        self.tool
    }

    /// The underlying analytical model.
    pub fn model(&self) -> &AnalyticalModel {
        &self.model
    }

    /// The hardware design space.
    pub fn space(&self) -> &HwSpace {
        &self.space
    }
}

impl Platform for SpatialPlatform {
    type Hw = HwConfig;

    fn name(&self) -> &str {
        &self.name
    }

    fn feature_dim(&self) -> usize {
        6
    }

    fn encode(&self, hw: &HwConfig) -> Vec<f64> {
        self.space.features(hw)
    }

    fn sample_hw(&self, rng: &mut StdRng) -> HwConfig {
        self.space.sample(rng)
    }

    fn perturb_hw(&self, rng: &mut StdRng, hw: &HwConfig) -> HwConfig {
        self.space.perturb(rng, hw)
    }

    fn crossover_hw(&self, rng: &mut StdRng, a: &HwConfig, b: &HwConfig) -> HwConfig {
        self.space.crossover(rng, a, b)
    }

    fn area_mm2(&self, hw: &HwConfig) -> f64 {
        self.model.area_mm2(hw)
    }

    fn hw_space_size(&self) -> u64 {
        self.space.size()
    }

    fn bind<'a>(
        &'a self,
        hw: &HwConfig,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a> {
        let cache = self.cache.as_deref();
        match self.engine {
            PpaEngine::DataCentric => Box::new(
                BoundSpatialCost::new(&self.model, *hw, *nest, EVAL_COST_S)
                    .with_objective(self.objective)
                    .with_cache(cache),
            ),
            PpaEngine::LoopCentric => Box::new(
                BoundLoopCentricCost::new(&self.loop_centric, *hw, *nest, EVAL_COST_S)
                    .with_objective(self.objective)
                    .with_cache(cache),
            ),
        }
    }

    fn make_searcher(
        &self,
        _hw: &HwConfig,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        let space = MappingSpace::new(nest);
        let rng = StdRng::seed_from_u64(seed);
        match self.tool {
            MappingTool::Annealing => Box::new(AnnealingSearch::new(space, rng)),
            MappingTool::Genetic => {
                Box::new(GeneticSearch::new(space, rng, GeneticConfig::default()))
            }
            MappingTool::QLearning => Box::new(QLearningSearch::new(space, rng)),
            MappingTool::Gradient => Box::new(GradientSearcher::new(space, rng)),
        }
    }

    fn eval_cost_seconds(&self) -> f64 {
        EVAL_COST_S
    }

    fn describe(&self, hw: &HwConfig) -> String {
        hw.to_string()
    }

    fn eval_cache(&self) -> Option<&EvalCache> {
        self.cache.as_deref()
    }

    fn hw_words(&self, hw: &HwConfig) -> Option<Vec<u64>> {
        Some(vec![
            hw.pe_x() as u64,
            hw.pe_y() as u64,
            hw.l1_bytes(),
            hw.l2_bytes(),
            hw.noc_bytes_per_cycle() as u64,
            match hw.dataflow() {
                Dataflow::WeightStationary => 0,
                Dataflow::OutputStationary => 1,
            },
        ])
    }

    fn fusion_pricer<'a>(
        &'a self,
        hw: &HwConfig,
        layers: Vec<Option<(LoopNest, Mapping, u32)>>,
    ) -> Option<Box<dyn crate::fused::FusionPricer + 'a>> {
        // Fused accounting mirrors the data-centric arithmetic; the
        // loop-centric engine keeps the per-layer path.
        match self.engine {
            PpaEngine::DataCentric => Some(Box::new(crate::fused::FusedCostOracle::new(
                &self.model,
                *hw,
                layers,
            ))),
            PpaEngine::LoopCentric => None,
        }
    }

    fn hw_from_words(&self, words: &[u64]) -> Option<HwConfig> {
        let &[pe_x, pe_y, l1, l2, noc, df] = words else {
            return None;
        };
        let dataflow = match df {
            0 => Dataflow::WeightStationary,
            1 => Dataflow::OutputStationary,
            _ => return None,
        };
        if pe_x == 0 || pe_y == 0 || l1 == 0 || l2 == 0 || noc == 0 {
            return None;
        }
        Some(HwConfig::new(
            u32::try_from(pe_x).ok()?,
            u32::try_from(pe_y).ok()?,
            l1,
            l2,
            u32::try_from(noc).ok()?,
            dataflow,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    #[test]
    fn platform_end_to_end_mapping_search() {
        let p = SpatialPlatform::edge();
        let mut rng = StdRng::seed_from_u64(11);
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        // Find a config for which at least some mappings are feasible.
        let mut done = false;
        for _ in 0..50 {
            let hw = p.sample_hw(&mut rng);
            let cost = p.bind(&hw, &nest);
            let mut s = p.make_searcher(&hw, &nest, 7);
            s.run_until(cost.as_ref(), 60);
            if s.best().is_some() {
                assert!(s.history().terminal_value().is_finite());
                done = true;
                break;
            }
        }
        assert!(done, "no feasible mapping found on any sampled config");
    }

    #[test]
    fn encode_matches_feature_dim() {
        let p = SpatialPlatform::cloud();
        let mut rng = StdRng::seed_from_u64(1);
        let hw = p.sample_hw(&mut rng);
        assert_eq!(p.encode(&hw).len(), p.feature_dim());
        assert!(p.hw_space_size() > 1_000_000);
        assert!(!p.describe(&hw).is_empty());
        assert_eq!(p.name(), "spatial-cloud");
    }

    #[test]
    fn all_mapping_tools_search_successfully() {
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        for tool in [
            MappingTool::Annealing,
            MappingTool::Genetic,
            MappingTool::QLearning,
            MappingTool::Gradient,
        ] {
            let p = SpatialPlatform::edge().with_mapping_tool(tool);
            assert_eq!(p.mapping_tool(), tool);
            let mut rng = StdRng::seed_from_u64(21);
            let mut found = false;
            for _ in 0..30 {
                let hw = p.sample_hw(&mut rng);
                let cost = p.bind(&hw, &nest);
                let mut s = p.make_searcher(&hw, &nest, 9);
                s.run_until(cost.as_ref(), 80);
                assert_eq!(s.history().spent(), 80);
                if s.best().is_some() {
                    found = true;
                    break;
                }
            }
            assert!(found, "{tool:?} found no feasible mapping");
        }
    }

    #[test]
    fn loop_centric_engine_prices_mappings() {
        let p = SpatialPlatform::edge().with_engine(PpaEngine::LoopCentric);
        assert_eq!(p.engine(), PpaEngine::LoopCentric);
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        let mut rng = StdRng::seed_from_u64(31);
        let mut found = false;
        for _ in 0..30 {
            let hw = p.sample_hw(&mut rng);
            let cost = p.bind(&hw, &nest);
            let mut s = p.make_searcher(&hw, &nest, 13);
            s.run_until(cost.as_ref(), 60);
            if s.best().is_some() {
                found = true;
                break;
            }
        }
        assert!(found, "loop-centric engine found no feasible mapping");
    }

    #[test]
    fn hw_words_round_trip_exactly() {
        let p = SpatialPlatform::edge();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..32 {
            let hw = p.sample_hw(&mut rng);
            let words = p.hw_words(&hw).expect("spatial supports checkpointing");
            let back = p.hw_from_words(&words).expect("words round-trip");
            assert_eq!(back, hw);
        }
        assert!(p.hw_from_words(&[1, 2, 3]).is_none());
        assert!(p.hw_from_words(&[4, 8, 1024, 65536, 64, 7]).is_none());
        assert!(p.hw_from_words(&[0, 8, 1024, 65536, 64, 0]).is_none());
    }

    #[test]
    fn evaluate_batch_matches_scalar_assess_bitwise() {
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        for engine in [PpaEngine::DataCentric, PpaEngine::LoopCentric] {
            let p = SpatialPlatform::edge().with_engine(engine);
            let mut rng = StdRng::seed_from_u64(41);
            let hw = p.sample_hw(&mut rng);
            let space = MappingSpace::new(&nest);
            let mappings: Vec<_> = (0..24).map(|_| space.sample(&mut rng)).collect();
            let batched = p.evaluate_batch(&hw, &nest, &mappings);
            let cost = p.bind(&hw, &nest);
            for (m, b) in mappings.iter().zip(&batched) {
                let s = cost.assess(m);
                match (s, b) {
                    (None, None) => {}
                    (Some(s), Some(b)) => {
                        assert_eq!(s.loss.to_bits(), b.loss.to_bits());
                        assert_eq!(s.latency_s.to_bits(), b.latency_s.to_bits());
                        assert_eq!(s.power_mw.to_bits(), b.power_mw.to_bits());
                    }
                    (s, b) => panic!("feasibility diverged: scalar {s:?} batch {b:?}"),
                }
            }
        }
    }
}
