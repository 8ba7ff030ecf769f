//! The MAESTRO-like analytical PPA model.

use unico_autodiff::Scalar;
use unico_mapping::{
    CanonicalMapping, Mapping, MappingCost, MappingOutcome, RelaxedGrad, RelaxedPoint,
};
use unico_workloads::{Dim, LoopNest};

use crate::batch::MappingBatch;
use crate::evalcache::{
    spatial_eval_key, spatial_key_prefix, EngineTag, EvalCache, EvalKey, EvalResult,
};
use crate::hw::{Dataflow, HwConfig};
use crate::ppa::{EvalError, Ppa};
use crate::tech::TechParams;
use crate::traffic::{tensor_loads, tensor_min_loads, TensorKind};

/// Diagnostic breakdown of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalBreakdown {
    /// Pure compute cycles (PE array busy time).
    pub compute_cycles: f64,
    /// Cycles the NoC needs to move all L2→L1 traffic.
    pub noc_cycles: f64,
    /// Cycles the DRAM interface needs for all off-chip traffic.
    pub dram_cycles: f64,
    /// Final modeled latency in cycles (max of the above + overheads).
    pub total_cycles: f64,
    /// MAC utilization of the PE array in `[0, 1]`.
    pub utilization: f64,
    /// Total L2→L1 bytes moved over the NoC.
    pub noc_bytes: f64,
    /// Total DRAM bytes moved.
    pub dram_bytes: f64,
    /// PEs actually active given the spatial unrolling.
    pub active_pes: u64,
}

/// Per-tensor traffic terms feeding one memory level of [`cost_core`]:
/// the tile footprint and the (possibly stationary-substituted) fetch
/// counts, all already converted to the working scalar.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TensorTraffic<S> {
    /// Tile footprint in bytes at this level.
    pub(crate) fp: S,
    /// Fetch count (for the stationary tensor at the NoC level the
    /// caller substitutes the minimal count, exactly as the discrete
    /// model does).
    pub(crate) loads: S,
    /// Minimal possible fetch count (number of distinct tiles).
    pub(crate) min_loads: S,
}

/// Inputs to [`cost_core`], the generic continuous-arithmetic half of
/// the analytical model. The discrete half (feasibility, trip counts,
/// reuse structure) stays integer-exact in the caller; everything here
/// is plain scalar arithmetic shared verbatim between the `f64` engine
/// and the autodiff [`unico_autodiff::Var`] relaxation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreInputs<S> {
    /// Number of L2 tiles.
    pub(crate) t2: S,
    /// L1 tiles per L2 tile.
    pub(crate) t1: S,
    /// PE-array cycles for one L1 tile.
    pub(crate) cycles_per_l1_tile: S,
    /// NoC-level (L2→L1) traffic terms in [`TensorKind::ALL`] order.
    pub(crate) noc: [TensorTraffic<S>; 3],
    /// DRAM-level traffic terms in [`TensorKind::ALL`] order.
    pub(crate) dram: [TensorTraffic<S>; 3],
    /// The register-pinned tensor of the dataflow.
    pub(crate) stationary: TensorKind,
    /// Total MAC count of the nest.
    pub(crate) macs: S,
    /// Silicon area of the configuration.
    pub(crate) area_mm2: S,
    /// PE count as `f64` (a constant with respect to the mapping).
    pub(crate) num_pes: f64,
    /// NoC bandwidth in bytes per cycle.
    pub(crate) noc_bytes_per_cycle: f64,
}

/// Outputs of [`cost_core`]: the full latency/energy/power breakdown.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreOutputs<S> {
    pub(crate) compute_cycles: S,
    pub(crate) noc_cycles: S,
    pub(crate) dram_cycles: S,
    pub(crate) total_cycles: S,
    pub(crate) utilization: S,
    pub(crate) noc_bytes: S,
    pub(crate) dram_bytes: S,
    pub(crate) latency_s: S,
    pub(crate) energy_pj: S,
    pub(crate) power_mw: S,
}

/// The continuous arithmetic of the analytical model, generic over the
/// scalar type.
///
/// At `S = f64` this performs the **identical sequence of `f64`
/// operations** the pre-refactor `evaluate_row` body performed (additions
/// fold in the same order, every product keeps its original association),
/// so the scalar engine's results are bit-identical — asserted by the
/// `core_f64_and_var_forward_bitwise_identical` test below and by the
/// pre-refactor reference in `tests/batch_differential.rs`. At
/// `S = Var` the same code path records the operations on an autodiff
/// tape for the relaxed differentiable model.
pub(crate) fn cost_core<S: Scalar>(t: &TechParams, inp: &CoreInputs<S>) -> CoreOutputs<S> {
    let compute_cycles = inp.t2.mul(inp.t1).mul(inp.cycles_per_l1_tile);
    let utilization = inp.macs.div(
        compute_cycles
            .mul(compute_cycles.lit(inp.num_pes))
            .vmax(compute_cycles.lit(1.0)),
    );

    // NoC traffic: L2 -> L1 per L2 tile, summed over L2 tiles.
    let mut noc_bytes_per_l2 = inp.t2.lit(0.0);
    for (j, tt) in inp.noc.iter().enumerate() {
        let effective = if TensorKind::ALL[j] == TensorKind::Output {
            // Read-modify-write round trips for revisits, one final
            // write per distinct tile.
            tt.loads.lit(2.0).mul(tt.loads).sub(tt.min_loads)
        } else {
            tt.loads
        };
        noc_bytes_per_l2 = noc_bytes_per_l2.add(tt.fp.mul(effective));
    }
    let noc_bytes = noc_bytes_per_l2.mul(inp.t2);
    let noc_cycles = noc_bytes.div(noc_bytes.lit(inp.noc_bytes_per_cycle));

    // DRAM traffic: DRAM -> L2 across L2 tiles.
    let mut dram_bytes = inp.t2.lit(0.0);
    for (j, tt) in inp.dram.iter().enumerate() {
        let effective = if TensorKind::ALL[j] == TensorKind::Output {
            tt.loads.lit(2.0).mul(tt.loads).sub(tt.min_loads)
        } else {
            tt.loads
        };
        dram_bytes = dram_bytes.add(tt.fp.mul(effective));
    }
    let dram_cycles = dram_bytes.div(dram_bytes.lit(t.dram_bytes_per_cycle));

    // Latency.
    let total_cycles = compute_cycles
        .vmax(noc_cycles)
        .vmax(dram_cycles)
        .add(inp.t2.mul(inp.t2.lit(t.tile_overhead_cycles)))
        .add(inp.t2.lit(t.launch_overhead_cycles));
    let latency_s = total_cycles.div(total_cycles.lit(t.clock_hz));

    // Energy.
    let bf = t.bytes_per_elem as f64;
    let mut e_local = inp.t2.lit(0.0);
    for tensor in TensorKind::ALL {
        let e_per_byte = if tensor == inp.stationary {
            t.e_reg_pj_per_byte
        } else {
            t.e_l1_pj_per_byte
        };
        let per_mac_bytes = match tensor {
            TensorKind::Input | TensorKind::Weight => bf,
            TensorKind::Output => 2.0 * bf, // accumulate: read + write
        };
        e_local = e_local.add(
            inp.macs
                .mul(inp.macs.lit(per_mac_bytes))
                .mul(inp.macs.lit(e_per_byte)),
        );
    }
    let e_mac = inp.macs.mul(inp.macs.lit(t.e_mac_pj));
    let e_noc = noc_bytes.mul(noc_bytes.lit(t.e_noc_pj_per_byte));
    let e_l2 = noc_bytes
        .add(dram_bytes)
        .mul(noc_bytes.lit(t.e_l2_pj_per_byte));
    let e_dram = dram_bytes.mul(dram_bytes.lit(t.e_dram_pj_per_byte));
    let e_leak = inp
        .area_mm2
        .lit(t.leakage_mw_per_mm2)
        .mul(inp.area_mm2)
        .mul(latency_s)
        .mul(latency_s.lit(1e9));
    let energy_pj = e_mac
        .add(e_local)
        .add(e_noc)
        .add(e_l2)
        .add(e_dram)
        .add(e_leak);
    let power_mw = energy_pj.div(latency_s.mul(latency_s.lit(1e9)));

    CoreOutputs {
        compute_cycles,
        noc_cycles,
        dram_cycles,
        total_cycles,
        utilization,
        noc_bytes,
        dram_bytes,
        latency_s,
        energy_pj,
        power_mw,
    }
}

/// The analytical cost model: latency / power / area for one
/// `(hardware, mapping, loop nest)` triple, in the spirit of MAESTRO.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticalModel {
    tech: TechParams,
}

impl AnalyticalModel {
    /// Creates a model with the given technology parameters.
    pub fn new(tech: TechParams) -> Self {
        AnalyticalModel { tech }
    }

    /// The technology parameters in use.
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// Silicon area of a configuration, independent of workload.
    pub fn area_mm2(&self, hw: &HwConfig) -> f64 {
        let t = &self.tech;
        let pes = hw.num_pes() as f64;
        let l1_total_kb = (hw.l1_bytes() as f64 * pes) / 1024.0;
        let l2_kb = hw.l2_bytes() as f64 / 1024.0;
        t.area_base_mm2
            + pes * t.area_pe_mm2
            + l1_total_kb * t.area_l1_mm2_per_kb
            + l2_kb * t.area_l2_mm2_per_kb
            + pes * (f64::from(hw.noc_bytes_per_cycle()) / 64.0) * t.area_noc_mm2_per_pe_64b
    }

    /// Evaluates PPA, returning the detailed breakdown too.
    ///
    /// Internally a batch of one: the evaluation body runs over a
    /// [`MappingBatch`] row, so scalar and batched results are bitwise
    /// identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping's working sets do not fit
    /// the configuration's buffers (double-buffered) or the spatial
    /// unrolling is fully degenerate.
    pub fn evaluate_detailed(
        &self,
        hw: &HwConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<(Ppa, EvalBreakdown), EvalError> {
        let batch = MappingBatch::build(std::iter::once(mapping), nest, self.tech.bytes_per_elem);
        self.evaluate_row(hw, &batch, 0, self.area_mm2(hw), nest.macs() as f64)
    }

    /// Evaluates every row of a candidate batch, hoisting the
    /// per-`(hw, nest)` invariants (silicon area, MAC count) out of the
    /// per-candidate loop.
    pub fn evaluate_batch(&self, hw: &HwConfig, batch: &MappingBatch) -> Vec<EvalResult> {
        let area = self.area_mm2(hw);
        let macs = batch.nest().macs() as f64;
        (0..batch.len())
            .map(|i| self.evaluate_row(hw, batch, i, area, macs).map(|(p, _)| p))
            .collect()
    }

    /// Evaluates batch row `i` given the hoisted invariants: `area_mm2`
    /// must be `self.area_mm2(hw)` and `macs` the nest's MAC count as
    /// `f64` — both depend only on `(hw, nest)`, so passing them in
    /// changes no bits relative to computing them per candidate.
    ///
    /// # Errors
    ///
    /// Same feasibility rules as [`AnalyticalModel::evaluate_detailed`].
    ///
    /// # Panics
    ///
    /// Panics if the batch was built with a different element width than
    /// this model's technology parameters.
    pub fn evaluate_row(
        &self,
        hw: &HwConfig,
        batch: &MappingBatch,
        i: usize,
        area_mm2: f64,
        macs: f64,
    ) -> Result<(Ppa, EvalBreakdown), EvalError> {
        let t = &self.tech;
        assert_eq!(
            batch.bytes_per_elem(),
            t.bytes_per_elem,
            "batch built for a different element width"
        );
        let nest = batch.nest();

        let (sd1, sd2) = batch.spatial(i);
        let l1_tile = batch.l1_tile(i);
        let e1 = l1_tile[sd1.index()];
        let e2 = l1_tile[sd2.index()];
        if e1 == 1 && e2 == 1 && hw.num_pes() > 1 {
            return Err(EvalError::DegenerateSpatial);
        }
        let active_pes = e1.min(u64::from(hw.pe_x())) * e2.min(u64::from(hw.pe_y()));

        // --- Buffer feasibility (double buffered). ---
        let fp1 = batch.l1_footprint(i);
        let per_pe = fp1.total().div_ceil(active_pes) * 2;
        if per_pe > hw.l1_bytes() {
            return Err(EvalError::L1Overflow {
                required: per_pe,
                available: hw.l1_bytes(),
            });
        }
        let fp2 = batch.l2_footprint(i);
        let l2_need = fp2.total() * 2;
        if l2_need > hw.l2_bytes() {
            return Err(EvalError::L2Overflow {
                required: l2_need,
                available: hw.l2_bytes(),
            });
        }

        // --- Compute time. ---
        let t2 = batch.num_l2_tiles(i) as f64;
        let t1 = batch.num_l1_tiles_per_l2(i) as f64;
        let mut serial: u64 = 1;
        for d in Dim::ALL {
            if d != sd1 && d != sd2 {
                serial *= l1_tile[d.index()];
            }
        }
        let cycles_per_l1_tile = e1.div_ceil(u64::from(hw.pe_x())) as f64
            * e2.div_ceil(u64::from(hw.pe_y())) as f64
            * serial as f64;

        // --- Reuse structure (integer-exact), then the shared core. ---
        let l1_trips = batch.l1_trips(i);
        let l2_trips = batch.l2_trips(i);
        let order = batch.order(i);
        let stationary = match hw.dataflow() {
            Dataflow::WeightStationary => TensorKind::Weight,
            Dataflow::OutputStationary => TensorKind::Output,
        };
        let noc = std::array::from_fn(|j| {
            let tensor = TensorKind::ALL[j];
            let loads = if tensor == stationary {
                tensor_min_loads(tensor, nest, l1_trips)
            } else {
                tensor_loads(tensor, nest, l1_trips, order)
            } as f64;
            let min_loads = tensor_min_loads(tensor, nest, l1_trips) as f64;
            let fp = match tensor {
                TensorKind::Input => fp1.input,
                TensorKind::Weight => fp1.weight,
                TensorKind::Output => fp1.output,
            } as f64;
            TensorTraffic {
                fp,
                loads,
                min_loads,
            }
        });
        let dram = std::array::from_fn(|j| {
            let tensor = TensorKind::ALL[j];
            TensorTraffic {
                fp: match tensor {
                    TensorKind::Input => fp2.input,
                    TensorKind::Weight => fp2.weight,
                    TensorKind::Output => fp2.output,
                } as f64,
                loads: tensor_loads(tensor, nest, l2_trips, order) as f64,
                min_loads: tensor_min_loads(tensor, nest, l2_trips) as f64,
            }
        });
        let core = cost_core(
            t,
            &CoreInputs {
                t2,
                t1,
                cycles_per_l1_tile,
                noc,
                dram,
                stationary,
                macs,
                area_mm2,
                num_pes: hw.num_pes() as f64,
                noc_bytes_per_cycle: f64::from(hw.noc_bytes_per_cycle()),
            },
        );

        Ok((
            Ppa {
                latency_s: core.latency_s,
                power_mw: core.power_mw,
                area_mm2,
                energy_pj: core.energy_pj,
            },
            EvalBreakdown {
                compute_cycles: core.compute_cycles,
                noc_cycles: core.noc_cycles,
                dram_cycles: core.dram_cycles,
                total_cycles: core.total_cycles,
                utilization: core.utilization,
                noc_bytes: core.noc_bytes,
                dram_bytes: core.dram_bytes,
                active_pes,
            },
        ))
    }

    /// Evaluates PPA for one `(hardware, mapping, loop nest)` triple.
    ///
    /// # Errors
    ///
    /// See [`AnalyticalModel::evaluate_detailed`].
    pub fn evaluate(
        &self,
        hw: &HwConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<Ppa, EvalError> {
        self.evaluate_detailed(hw, mapping, nest).map(|(p, _)| p)
    }
}

/// Which scalar the software-mapping search minimizes (the paper's
/// §2.1: "minimizing an objective (e.g. latency and/or
/// energy-delay-product)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingObjective {
    /// End-to-end latency (default).
    #[default]
    Latency,
    /// Energy-delay product.
    Edp,
}

/// Turns a cached/raw evaluation into a searcher outcome under the
/// chosen objective. Shared by the scalar and batched adapter paths of
/// both spatial engines.
pub(crate) fn outcome_of(
    r: Result<Ppa, EvalError>,
    objective: MappingObjective,
) -> Option<MappingOutcome> {
    match r {
        Ok(ppa) => Some(MappingOutcome {
            loss: match objective {
                MappingObjective::Latency => ppa.latency_s,
                MappingObjective::Edp => ppa.edp(),
            },
            latency_s: ppa.latency_s,
            power_mw: ppa.power_mw,
        }),
        Err(_) => None,
    }
}

/// A [`MappingCost`] adapter binding the analytical model to a fixed
/// hardware configuration and loop nest.
#[derive(Debug, Clone, Copy)]
pub struct BoundSpatialCost<'a> {
    model: &'a AnalyticalModel,
    hw: HwConfig,
    nest: LoopNest,
    eval_cost_s: f64,
    objective: MappingObjective,
    cache: Option<&'a EvalCache>,
}

impl<'a> BoundSpatialCost<'a> {
    /// Binds `model` to `(hw, nest)` with the latency objective;
    /// `eval_cost_s` is the simulated wall-clock cost charged per
    /// evaluation.
    pub fn new(model: &'a AnalyticalModel, hw: HwConfig, nest: LoopNest, eval_cost_s: f64) -> Self {
        BoundSpatialCost {
            model,
            hw,
            nest,
            eval_cost_s,
            objective: MappingObjective::Latency,
            cache: None,
        }
    }

    /// Selects the search objective.
    pub fn with_objective(mut self, objective: MappingObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Memoizes evaluations in `cache` (keys canonicalize the mapping,
    /// so semantically equivalent candidates share entries).
    pub fn with_cache(mut self, cache: Option<&'a EvalCache>) -> Self {
        self.cache = cache;
        self
    }

    fn evaluate_cached(&self, mapping: &Mapping) -> Result<Ppa, EvalError> {
        match self.cache {
            Some(cache) => cache.get_or_compute(
                spatial_eval_key(
                    EngineTag::DataCentric,
                    &self.hw,
                    mapping,
                    &self.nest,
                    self.objective,
                ),
                || self.model.evaluate(&self.hw, mapping, &self.nest),
            ),
            None => self.model.evaluate(&self.hw, mapping, &self.nest),
        }
    }
}

impl MappingCost for BoundSpatialCost<'_> {
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome> {
        outcome_of(self.evaluate_cached(mapping), self.objective)
    }

    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        if mappings.is_empty() {
            return Vec::new();
        }
        let area = self.model.area_mm2(&self.hw);
        let macs = self.nest.macs() as f64;
        let results: Vec<EvalResult> = match self.cache {
            Some(cache) => {
                // Keys hash straight off the mappings (same bytes as
                // the scalar `spatial_eval_key`, with the hw+nest
                // prefix amortized across the batch); the SoA batch is
                // only built if some key actually misses, so a warm
                // cache pays for lookups alone.
                let prefix = spatial_key_prefix(EngineTag::DataCentric, &self.hw, &self.nest);
                let keys: Vec<EvalKey> = mappings
                    .iter()
                    .map(|m| {
                        let mut kb = prefix.clone();
                        kb.write_with(|h| CanonicalMapping::hash_mapping_into(m, &self.nest, h))
                            .objective(self.objective);
                        kb.finish()
                    })
                    .collect();
                let batch = std::cell::OnceCell::new();
                cache.get_or_compute_batch(&keys, |i| {
                    let batch = batch.get_or_init(|| {
                        MappingBatch::build(mappings, &self.nest, self.model.tech.bytes_per_elem)
                    });
                    self.model
                        .evaluate_row(&self.hw, batch, i, area, macs)
                        .map(|(p, _)| p)
                })
            }
            None => {
                let batch =
                    MappingBatch::build(mappings, &self.nest, self.model.tech.bytes_per_elem);
                (0..batch.len())
                    .map(|i| {
                        self.model
                            .evaluate_row(&self.hw, &batch, i, area, macs)
                            .map(|(p, _)| p)
                    })
                    .collect()
            }
        };
        results
            .into_iter()
            .map(|r| outcome_of(r, self.objective))
            .collect()
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.eval_cost_s
    }

    fn assess_relaxed(&self, template: &Mapping, point: &RelaxedPoint) -> Option<RelaxedGrad> {
        // STE rounding: descent sees the exact model's quantization
        // cliffs in the surrogate value (gradients pass through), so
        // free screening ranks candidates the way the paid evaluation
        // will judge them.
        crate::relaxed::relaxed_eval_with(
            self.model,
            &self.hw,
            &self.nest,
            template,
            point,
            self.objective,
            crate::relaxed::Rounding::Ste,
        )
        .map(|(g, _)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    fn model() -> AnalyticalModel {
        AnalyticalModel::new(TechParams::default())
    }

    fn nest() -> LoopNest {
        TensorOp::Conv2d {
            n: 1,
            k: 64,
            c: 64,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest()
    }

    /// A mapping with modest tiles that fits small configurations.
    fn small_mapping(n: &LoopNest) -> Mapping {
        let mut l2 = n.extents();
        l2[Dim::C.index()] = 16;
        let mut l1 = [1u64; 7];
        l1[Dim::K.index()] = 8;
        l1[Dim::Y.index()] = 8;
        l1[Dim::X.index()] = 4;
        l1[Dim::C.index()] = 4;
        Mapping::new(n, l2, l1, Dim::ALL, (Dim::K, Dim::Y))
    }

    fn hw(pe: u32, l1: u64, l2_kb: u64) -> HwConfig {
        HwConfig::new(pe, pe, l1, l2_kb * 1024, 128, Dataflow::WeightStationary)
    }

    #[test]
    fn evaluates_feasible_mapping() {
        let n = nest();
        let m = small_mapping(&n);
        let (ppa, bd) = model()
            .evaluate_detailed(&hw(8, 4096, 512), &m, &n)
            .unwrap();
        assert!(ppa.latency_s > 0.0);
        assert!(ppa.power_mw > 0.0);
        assert!(ppa.area_mm2 > 0.0);
        assert!(bd.utilization > 0.0 && bd.utilization <= 1.0);
        assert!(bd.total_cycles >= bd.compute_cycles);
    }

    #[test]
    fn l1_overflow_detected() {
        let n = nest();
        let m = Mapping::identity(&n); // whole nest in one L1 tile
        let err = model().evaluate(&hw(2, 256, 4096), &m, &n).unwrap_err();
        assert!(matches!(err, EvalError::L1Overflow { .. }));
    }

    #[test]
    fn l2_overflow_detected() {
        let n = nest();
        let m = small_mapping(&n); // L2 tile ~ full feature maps
        let err = model().evaluate(&hw(8, 4096, 16), &m, &n).unwrap_err();
        assert!(matches!(err, EvalError::L2Overflow { .. }));
    }

    #[test]
    fn more_pes_never_slow_compute_bound_layer() {
        let n = nest();
        let m = small_mapping(&n);
        let lat = |pe: u32| {
            model()
                .evaluate(&hw(pe, 8192, 1024), &m, &n)
                .unwrap()
                .latency_s
        };
        assert!(lat(8) <= lat(4));
        assert!(lat(4) <= lat(2));
    }

    #[test]
    fn wider_noc_never_hurts() {
        let n = nest();
        let m = small_mapping(&n);
        let mdl = model();
        let narrow = HwConfig::new(8, 8, 4096, 512 * 1024, 64, Dataflow::WeightStationary);
        let wide = HwConfig::new(8, 8, 4096, 512 * 1024, 128, Dataflow::WeightStationary);
        let l_narrow = mdl.evaluate(&narrow, &m, &n).unwrap().latency_s;
        let l_wide = mdl.evaluate(&wide, &m, &n).unwrap().latency_s;
        assert!(l_wide <= l_narrow);
    }

    #[test]
    fn dataflow_changes_energy() {
        let n = nest();
        let m = small_mapping(&n);
        let mdl = model();
        let ws = HwConfig::new(8, 8, 4096, 512 * 1024, 128, Dataflow::WeightStationary);
        let os = HwConfig::new(8, 8, 4096, 512 * 1024, 128, Dataflow::OutputStationary);
        let e_ws = mdl.evaluate(&ws, &m, &n).unwrap().energy_pj;
        let e_os = mdl.evaluate(&os, &m, &n).unwrap().energy_pj;
        assert_ne!(e_ws, e_os);
        // For this conv the output is accessed 2 bytes x 2 (rmw) per MAC,
        // so pinning outputs in registers saves more local energy.
        assert!(e_os < e_ws);
    }

    #[test]
    fn area_grows_with_resources() {
        let mdl = model();
        let small = mdl.area_mm2(&hw(4, 1024, 128));
        let big = mdl.area_mm2(&hw(16, 8192, 1024));
        assert!(big > small);
        // Edge-class designs should land in the paper's few-mm² regime.
        assert!((0.1..30.0).contains(&small), "area {small}");
    }

    #[test]
    fn degenerate_spatial_rejected() {
        let n = nest();
        let mut l1 = [1u64; 7];
        l1[Dim::C.index()] = 4; // spatial dims K,Y stay at 1
        let m = Mapping::new(&n, n.extents(), l1, Dim::ALL, (Dim::K, Dim::Y));
        let err = model().evaluate(&hw(8, 4096, 4096), &m, &n).unwrap_err();
        assert_eq!(err, EvalError::DegenerateSpatial);
    }

    #[test]
    fn edp_objective_changes_ranking_pressure() {
        let n = nest();
        let mdl = model();
        let cost_lat = BoundSpatialCost::new(&mdl, hw(8, 4096, 512), n, 1.0);
        let cost_edp = cost_lat.with_objective(MappingObjective::Edp);
        let m = small_mapping(&n);
        let o_lat = cost_lat.assess(&m).unwrap();
        let o_edp = cost_edp.assess(&m).unwrap();
        // Same PPA, different scalar loss.
        assert_eq!(o_lat.latency_s, o_edp.latency_s);
        assert_eq!(o_lat.loss, o_lat.latency_s);
        let ppa = mdl.evaluate(&hw(8, 4096, 512), &m, &n).unwrap();
        assert!((o_edp.loss - ppa.edp()).abs() < 1e-9);
        assert!(o_edp.loss != o_lat.loss);
    }

    #[test]
    fn bound_cost_adapter_filters_infeasible() {
        let n = nest();
        let mdl = model();
        let cost = BoundSpatialCost::new(&mdl, hw(8, 4096, 512), n, 1.0);
        assert!(cost.assess(&small_mapping(&n)).is_some());
        assert!(cost.assess(&Mapping::identity(&n)).is_none());
        assert_eq!(cost.eval_cost_seconds(), 1.0);
    }

    #[test]
    fn core_f64_and_var_forward_bitwise_identical() {
        use unico_autodiff::{Tape, Var};
        // Arbitrary but representative inputs; the point is that the
        // generic core executes the same f64 op sequence under both
        // scalar types, so every output field matches bit for bit.
        let t = TechParams::default();
        let traffic_f = |fp: f64, loads: f64, min_loads: f64| TensorTraffic {
            fp,
            loads,
            min_loads,
        };
        let inp_f = CoreInputs {
            t2: 36.0,
            t1: 128.0,
            cycles_per_l1_tile: 72.0,
            noc: [
                traffic_f(1800.0, 96.0, 24.0),
                traffic_f(1152.0, 24.0, 24.0),
                traffic_f(512.0, 48.0, 16.0),
            ],
            dram: [
                traffic_f(51200.0, 6.0, 3.0),
                traffic_f(73728.0, 12.0, 12.0),
                traffic_f(25088.0, 9.0, 3.0),
            ],
            stationary: TensorKind::Weight,
            macs: 231.2e6,
            area_mm2: 7.5,
            num_pes: 64.0,
            noc_bytes_per_cycle: 128.0,
        };
        let out_f = cost_core(&t, &inp_f);

        let tape = Tape::new();
        let v = |x: f64| tape.var(x);
        let traffic_v = |tt: &TensorTraffic<f64>| TensorTraffic {
            fp: v(tt.fp),
            loads: v(tt.loads),
            min_loads: v(tt.min_loads),
        };
        let inp_v = CoreInputs {
            t2: v(inp_f.t2),
            t1: v(inp_f.t1),
            cycles_per_l1_tile: v(inp_f.cycles_per_l1_tile),
            noc: std::array::from_fn(|j| traffic_v(&inp_f.noc[j])),
            dram: std::array::from_fn(|j| traffic_v(&inp_f.dram[j])),
            stationary: inp_f.stationary,
            macs: v(inp_f.macs),
            area_mm2: v(inp_f.area_mm2),
            num_pes: inp_f.num_pes,
            noc_bytes_per_cycle: inp_f.noc_bytes_per_cycle,
        };
        let out_v = cost_core(&t, &inp_v);

        let pairs: [(f64, Var); 10] = [
            (out_f.compute_cycles, out_v.compute_cycles),
            (out_f.noc_cycles, out_v.noc_cycles),
            (out_f.dram_cycles, out_v.dram_cycles),
            (out_f.total_cycles, out_v.total_cycles),
            (out_f.utilization, out_v.utilization),
            (out_f.noc_bytes, out_v.noc_bytes),
            (out_f.dram_bytes, out_v.dram_bytes),
            (out_f.latency_s, out_v.latency_s),
            (out_f.energy_pj, out_v.energy_pj),
            (out_f.power_mw, out_v.power_mw),
        ];
        for (i, (f, var)) in pairs.iter().enumerate() {
            assert_eq!(f.to_bits(), var.value().to_bits(), "field {i}");
        }
    }

    #[test]
    fn latency_reasonable_for_resnet_like_layer() {
        // 231M MACs on 64 PEs at 1 GHz: at least 3.6 ms even at full
        // utilization; model must respect the compute bound.
        let n = nest();
        let m = small_mapping(&n);
        let ppa = model().evaluate(&hw(8, 4096, 512), &m, &n).unwrap();
        let compute_floor = n.macs() as f64 / (64.0 * 1e9);
        assert!(ppa.latency_s >= compute_floor);
        assert!(ppa.latency_s < 1.0, "latency {} s", ppa.latency_s);
    }
}
