//! `Traced<P>`: a [`Platform`] wrapper that measures the `model` and
//! `mapping` layers from outside.
//!
//! Every method delegates to the wrapped platform, defaults included,
//! so a wrapped run computes exactly what an unwrapped one does. `bind`
//! returns a cost oracle that times each `assess`/`assess_batch` call
//! (folded into the caller's span as a leaf), and `make_searcher`
//! returns a searcher whose `run_until` calls are `mapping.run_until`
//! spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use unico_mapping::{
    GradientStats, Mapping, MappingCost, MappingOutcome, MappingSearcher, RelaxedGrad,
    RelaxedPoint, SearchHistory,
};
use unico_model::{EvalCache, FusionPricer, Platform};
use unico_workloads::LoopNest;

use crate::span::Recorder;

/// Work counts of the wrapped layers.
#[derive(Debug, Default)]
pub struct LayerCounters {
    /// `assess`/`assess_batch`/`evaluate_batch` calls.
    pub assess_calls: AtomicU64,
    /// Candidates those calls scored.
    pub assess_candidates: AtomicU64,
    /// Candidates that came back feasible.
    pub assess_feasible: AtomicU64,
    /// Nanoseconds spent inside those calls.
    pub assess_busy_ns: AtomicU64,
    /// `run_until` calls.
    pub run_until_calls: AtomicU64,
    /// Nanoseconds spent inside `run_until` (nested assessment included).
    pub run_until_busy_ns: AtomicU64,
    /// Search steps `run_until` consumed.
    pub steps: AtomicU64,
}

impl LayerCounters {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The shared sinks a traced platform reports into.
#[derive(Clone, Default)]
pub struct Probe {
    /// Span store.
    pub recorder: Arc<Recorder>,
    /// Work counters.
    pub counters: Arc<LayerCounters>,
}

impl Probe {
    fn assessed(&self, started: Instant, outcomes: &[Option<MappingOutcome>]) {
        let busy = started.elapsed().as_nanos() as u64;
        self.recorder.leaf(busy);
        let c = &self.counters;
        LayerCounters::add(&c.assess_calls, 1);
        LayerCounters::add(&c.assess_candidates, outcomes.len() as u64);
        LayerCounters::add(
            &c.assess_feasible,
            outcomes.iter().filter(|o| o.is_some()).count() as u64,
        );
        LayerCounters::add(&c.assess_busy_ns, busy);
    }
}

/// A platform whose cost oracles and searchers report to a [`Probe`].
pub struct Traced<P> {
    inner: P,
    probe: Probe,
}

impl<P> Traced<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, probe: Probe) -> Self {
        Traced { inner, probe }
    }
}

impl<P: Platform> Platform for Traced<P> {
    type Hw = P::Hw;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn encode(&self, hw: &Self::Hw) -> Vec<f64> {
        self.inner.encode(hw)
    }

    fn sample_hw(&self, rng: &mut StdRng) -> Self::Hw {
        self.inner.sample_hw(rng)
    }

    fn perturb_hw(&self, rng: &mut StdRng, hw: &Self::Hw) -> Self::Hw {
        self.inner.perturb_hw(rng, hw)
    }

    fn crossover_hw(&self, rng: &mut StdRng, a: &Self::Hw, b: &Self::Hw) -> Self::Hw {
        self.inner.crossover_hw(rng, a, b)
    }

    fn area_mm2(&self, hw: &Self::Hw) -> f64 {
        self.inner.area_mm2(hw)
    }

    fn hw_space_size(&self) -> u64 {
        self.inner.hw_space_size()
    }

    fn bind<'a>(
        &'a self,
        hw: &Self::Hw,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a> {
        Box::new(TracedCost {
            inner: self.inner.bind(hw, nest),
            probe: &self.probe,
        })
    }

    fn evaluate_batch(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        mappings: &[Mapping],
    ) -> Vec<Option<MappingOutcome>> {
        let started = Instant::now();
        let out = self.inner.evaluate_batch(hw, nest, mappings);
        self.probe.assessed(started, &out);
        out
    }

    fn make_searcher(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        Box::new(TracedSearcher {
            inner: self.inner.make_searcher(hw, nest, seed),
            probe: self.probe.clone(),
        })
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.inner.eval_cost_seconds()
    }

    fn describe(&self, hw: &Self::Hw) -> String {
        self.inner.describe(hw)
    }

    fn eval_cache(&self) -> Option<&EvalCache> {
        self.inner.eval_cache()
    }

    fn hw_words(&self, hw: &Self::Hw) -> Option<Vec<u64>> {
        self.inner.hw_words(hw)
    }

    fn hw_from_words(&self, words: &[u64]) -> Option<Self::Hw> {
        self.inner.hw_from_words(words)
    }

    fn fusion_pricer<'a>(
        &'a self,
        hw: &Self::Hw,
        layers: Vec<Option<(LoopNest, Mapping, u32)>>,
    ) -> Option<Box<dyn FusionPricer + 'a>> {
        self.inner.fusion_pricer(hw, layers)
    }
}

struct TracedCost<'a> {
    inner: Box<dyn MappingCost + Send + Sync + 'a>,
    probe: &'a Probe,
}

impl MappingCost for TracedCost<'_> {
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome> {
        let started = Instant::now();
        let out = self.inner.assess(mapping);
        self.probe.assessed(started, std::slice::from_ref(&out));
        out
    }

    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        let started = Instant::now();
        let out = self.inner.assess_batch(mappings);
        self.probe.assessed(started, &out);
        out
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.inner.eval_cost_seconds()
    }

    fn assess_relaxed(&self, template: &Mapping, point: &RelaxedPoint) -> Option<RelaxedGrad> {
        self.inner.assess_relaxed(template, point)
    }
}

struct TracedSearcher {
    inner: Box<dyn MappingSearcher + Send>,
    probe: Probe,
}

impl MappingSearcher for TracedSearcher {
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64) {
        let before = self.inner.history().spent();
        let started = Instant::now();
        {
            let _span = self.probe.recorder.enter("mapping.run_until");
            self.inner.run_until(cost, budget);
        }
        let c = &self.probe.counters;
        LayerCounters::add(&c.run_until_calls, 1);
        LayerCounters::add(&c.run_until_busy_ns, started.elapsed().as_nanos() as u64);
        LayerCounters::add(&c.steps, self.inner.history().spent() - before);
    }

    fn history(&self) -> &SearchHistory {
        self.inner.history()
    }

    fn best(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.inner.best()
    }

    fn gradient_stats(&self) -> Option<GradientStats> {
        self.inner.gradient_stats()
    }

    fn best_mapping_at(&self, budget: u64) -> Option<&Mapping> {
        self.inner.best_mapping_at(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_core::{RunOptions, Unico, UnicoConfig, UnicoResult};
    use unico_model::SpatialPlatform;
    use unico_search::{CoSearchEnv, EnvConfig};
    use unico_workloads::zoo;

    fn run<P: Platform>(platform: &P) -> UnicoResult<P::Hw>
    where
        P::Hw: Send,
    {
        let nets = [zoo::mobilenet_v1(), zoo::resnet50()];
        let env = CoSearchEnv::new(
            platform,
            &nets,
            EnvConfig {
                max_layers_per_network: 2,
                ..EnvConfig::default()
            },
        );
        let cfg = UnicoConfig {
            max_iter: 3,
            batch: 6,
            b_max: 64,
            workers: crate::WORKERS as u32,
            seed: 11,
            ..UnicoConfig::default()
        };
        Unico::new(cfg).run_with_options(&env, &RunOptions::default())
    }

    fn edge() -> SpatialPlatform {
        SpatialPlatform::edge().with_eval_cache(Arc::new(EvalCache::new()))
    }

    #[test]
    fn traced_run_is_bit_identical_to_an_unwrapped_one() {
        let plain_platform = edge();
        let plain = run(&plain_platform);
        let probe = Probe::default();
        let traced_platform = Traced::new(edge(), probe.clone());
        let traced = run(&traced_platform);

        let bits = |r: &UnicoResult<_>| -> Vec<Vec<u64>> {
            r.front
                .objectives()
                .iter()
                .map(|p| p.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&plain), bits(&traced));
        assert_eq!(plain.wall_clock_s.to_bits(), traced.wall_clock_s.to_bits());
        assert_eq!(
            plain.report.deterministic_json(),
            traced.report.deterministic_json()
        );
        let (a, b) = (
            plain_platform.eval_cache().unwrap().stats(),
            traced_platform.eval_cache().unwrap().stats(),
        );
        assert_eq!((a.hits, a.misses, a.entries), (b.hits, b.misses, b.entries));

        // The wrapper saw the work it wraps.
        let c = &probe.counters;
        assert!(LayerCounters::get(&c.run_until_calls) > 0);
        assert_eq!(
            LayerCounters::get(&c.steps),
            traced.report.counters["mapping_evals"]
        );
        assert_eq!(LayerCounters::get(&c.assess_candidates), a.hits + a.misses);
    }
}
