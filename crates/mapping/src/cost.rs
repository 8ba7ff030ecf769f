//! The interface between mapping searchers and PPA cost models.

use unico_workloads::DIM_COUNT;

use crate::mapping::Mapping;

/// Result of evaluating one mapping on one hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingOutcome {
    /// Scalar search objective (lower is better); typically latency or
    /// energy-delay product, chosen by the cost adapter.
    pub loss: f64,
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Average power in milliwatts.
    pub power_mw: f64,
}

/// A continuous relaxation of a mapping's tiling factors: per-dimension
/// L2 and L1 tile sizes as positive reals (linear space). The loop order
/// and spatial dims are taken from a discrete *template* mapping — only
/// the tiles are relaxed. Produced by gradient searchers and consumed by
/// [`MappingCost::assess_relaxed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxedPoint {
    /// Continuous L2 tile sizes per dimension (`≥ 1`, `≤` extent).
    pub l2: [f64; DIM_COUNT],
    /// Continuous L1 tile sizes per dimension (`≥ 1`, `≤ l2`).
    pub l1: [f64; DIM_COUNT],
}

/// Value and gradient of a relaxed objective at a [`RelaxedPoint`],
/// with partial derivatives in **linear** tile space (callers working in
/// log space apply the chain rule `dL/d ln t = t · dL/dt` themselves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxedGrad {
    /// The relaxed objective value (objective scaled by any soft
    /// feasibility penalties the implementation applies).
    pub value: f64,
    /// `∂value/∂l2[d]`.
    pub d_l2: [f64; DIM_COUNT],
    /// `∂value/∂l1[d]`.
    pub d_l1: [f64; DIM_COUNT],
}

/// A cost oracle for mappings of a fixed `(workload, hardware)` pair.
///
/// Implementations bind a PPA model (analytical or cycle-accurate), a
/// hardware configuration and a loop nest, and score each candidate
/// mapping. Returning `None` marks the mapping infeasible (e.g. a tile
/// that overflows a buffer); searchers skip infeasible candidates but the
/// evaluation still consumes budget, mirroring a real compiler-in-the-loop
/// setup.
pub trait MappingCost {
    /// Scores a mapping; `None` if infeasible on this hardware.
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome>;

    /// Scores a whole batch of candidates, element `i` of the result
    /// corresponding to `mappings[i]`.
    ///
    /// The default loops [`MappingCost::assess`] in slice order, and
    /// every cost in the workspace uses it; an override (a timing
    /// wrapper, say) must return exactly what those per-candidate calls
    /// would — searchers rely on this for bitwise-reproducible runs.
    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        mappings.iter().map(|m| self.assess(m)).collect()
    }

    /// Simulated wall-clock seconds one `assess` call costs (used for
    /// search-cost accounting). Analytical models are fractions of a
    /// second; cycle-accurate models minutes.
    fn eval_cost_seconds(&self) -> f64 {
        0.05
    }

    /// Differentiable-relaxation hook: the value and tile-space gradient
    /// of a smooth surrogate of this cost at `point`, with the loop
    /// order and spatial dims frozen to `template`'s.
    ///
    /// The default returns `None` — "this cost has no differentiable
    /// surrogate" — which makes gradient searchers fall back to random
    /// sampling. Analytical-model adapters override it. Surrogate
    /// evaluations are free (they consume no search budget); only exact
    /// `assess` calls count as samples.
    fn assess_relaxed(&self, template: &Mapping, point: &RelaxedPoint) -> Option<RelaxedGrad> {
        let _ = (template, point);
        None
    }
}

impl<T: MappingCost + ?Sized> MappingCost for &T {
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome> {
        (**self).assess(mapping)
    }

    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        (**self).assess_batch(mappings)
    }

    fn eval_cost_seconds(&self) -> f64 {
        (**self).eval_cost_seconds()
    }

    fn assess_relaxed(&self, template: &Mapping, point: &RelaxedPoint) -> Option<RelaxedGrad> {
        (**self).assess_relaxed(template, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    struct Fixed(f64);
    impl MappingCost for Fixed {
        fn assess(&self, _m: &Mapping) -> Option<MappingOutcome> {
            Some(MappingOutcome {
                loss: self.0,
                latency_s: self.0,
                power_mw: 1.0,
            })
        }
    }

    #[test]
    fn reference_forwarding() {
        let nest = TensorOp::Gemm { m: 4, n: 4, k: 4 }.to_loop_nest();
        let m = crate::Mapping::identity(&nest);
        let c = Fixed(3.5);
        let r: &dyn MappingCost = &c;
        assert_eq!(r.assess(&m).unwrap().loss, 3.5);
        assert_eq!(c.eval_cost_seconds(), 0.05);
    }
}
