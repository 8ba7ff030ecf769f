//! `Platform` implementation for the Ascend-like core.

use std::sync::Arc;

use rand::rngs::StdRng;

use unico_mapping::{MappingCost, MappingSearcher};
use unico_model::{EvalCache, Platform};
use unico_workloads::LoopNest;

use crate::config::{AscendConfig, AscendSpace};
use crate::dfsearch::DepthFirstFusionSearch;
use crate::sim::{AscendModel, BoundAscendCost};

/// The Ascend-like co-design platform: cycle-level simulator + enumerated
/// design space + depth-first fusion mapping search.
#[derive(Debug, Clone, Default)]
pub struct AscendPlatform {
    model: AscendModel,
    space: AscendSpace,
    cache: Option<Arc<EvalCache>>,
}

impl AscendPlatform {
    /// Creates the platform with default technology constants and space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an evaluation cache; every bound cost memoizes through
    /// it. Worth far more here than on the analytical platform: one
    /// cycle-level evaluation costs microseconds, a hit costs tens of
    /// nanoseconds.
    pub fn with_eval_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The underlying cycle-level model.
    pub fn model(&self) -> &AscendModel {
        &self.model
    }

    /// The hardware design space.
    pub fn space(&self) -> &AscendSpace {
        &self.space
    }
}

impl Platform for AscendPlatform {
    type Hw = AscendConfig;

    fn name(&self) -> &str {
        "ascend-like"
    }

    fn feature_dim(&self) -> usize {
        13
    }

    fn encode(&self, hw: &AscendConfig) -> Vec<f64> {
        self.space.features(hw)
    }

    fn sample_hw(&self, rng: &mut StdRng) -> AscendConfig {
        self.space.sample(rng)
    }

    fn perturb_hw(&self, rng: &mut StdRng, hw: &AscendConfig) -> AscendConfig {
        self.space.perturb(rng, hw)
    }

    fn crossover_hw(&self, rng: &mut StdRng, a: &AscendConfig, b: &AscendConfig) -> AscendConfig {
        self.space.crossover(rng, a, b)
    }

    fn area_mm2(&self, hw: &AscendConfig) -> f64 {
        self.model.area_mm2(hw)
    }

    fn hw_space_size(&self) -> u64 {
        self.space.size()
    }

    fn bind<'a>(
        &'a self,
        hw: &AscendConfig,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a> {
        Box::new(BoundAscendCost::new(&self.model, *hw, *nest).with_cache(self.cache.as_deref()))
    }

    fn make_searcher(
        &self,
        hw: &AscendConfig,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        Box::new(DepthFirstFusionSearch::new(hw, nest, seed))
    }

    fn eval_cost_seconds(&self) -> f64 {
        // Representative mid-size workload cost; per-nest costs come from
        // the bound oracle.
        300.0
    }

    fn describe(&self, hw: &AscendConfig) -> String {
        hw.to_string()
    }

    fn eval_cache(&self) -> Option<&EvalCache> {
        self.cache.as_deref()
    }

    fn hw_words(&self, hw: &AscendConfig) -> Option<Vec<u64>> {
        Some(
            [
                hw.cube_m,
                hw.cube_n,
                hw.cube_k,
                hw.l0a_kb,
                hw.l0b_kb,
                hw.l0c_kb,
                hw.l0a_banks,
                hw.l0b_banks,
                hw.l0c_banks,
                hw.l1_kb,
                hw.ub_kb,
                hw.pb_kb,
                hw.icache_kb,
            ]
            .iter()
            .map(|&w| w as u64)
            .collect(),
        )
    }

    fn hw_from_words(&self, words: &[u64]) -> Option<AscendConfig> {
        if words.len() != 13 {
            return None;
        }
        let mut w = [0u32; 13];
        for (dst, &src) in w.iter_mut().zip(words) {
            *dst = u32::try_from(src).ok()?;
        }
        Some(AscendConfig {
            cube_m: w[0],
            cube_n: w[1],
            cube_k: w[2],
            l0a_kb: w[3],
            l0b_kb: w[4],
            l0c_kb: w[5],
            l0a_banks: w[6],
            l0b_banks: w[7],
            l0c_banks: w[8],
            l1_kb: w[9],
            ub_kb: w[10],
            pb_kb: w[11],
            icache_kb: w[12],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unico_workloads::TensorOp;

    #[test]
    fn platform_contract() {
        let p = AscendPlatform::new();
        let mut rng = StdRng::seed_from_u64(1);
        let hw = p.sample_hw(&mut rng);
        assert_eq!(p.encode(&hw).len(), p.feature_dim());
        assert!(p.area_mm2(&hw) > 0.0);
        assert!(p.hw_space_size() as f64 > 1e7);
        assert!(p.eval_cost_seconds() >= 120.0);
        assert_eq!(p.name(), "ascend-like");
    }

    #[test]
    fn hw_words_round_trip_exactly() {
        let p = AscendPlatform::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            let hw = p.sample_hw(&mut rng);
            let words = p.hw_words(&hw).expect("ascend supports checkpointing");
            let back = p.hw_from_words(&words).expect("words round-trip");
            assert_eq!(back, hw);
        }
        assert!(p.hw_from_words(&[1, 2]).is_none());
        assert!(p.hw_from_words(&[u64::MAX; 13]).is_none());
    }

    #[test]
    fn df_search_through_platform() {
        let p = AscendPlatform::new();
        let hw = AscendConfig::expert_default();
        let nest = TensorOp::Conv2d {
            n: 1,
            k: 16,
            c: 8,
            y: 32,
            x: 32,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        let cost = p.bind(&hw, &nest);
        let mut s = p.make_searcher(&hw, &nest, 3);
        s.run_until(cost.as_ref(), 60);
        assert!(s.best().is_some(), "df search must find a feasible mapping");
    }
}
