//! A TimeLoop-flavoured, loop-centric PPA estimator.
//!
//! The paper lists two interchangeable analytical engines — MAESTRO
//! (data-centric, [`crate::AnalyticalModel`]) and TimeLoop
//! (loop-centric). This module implements the loop-centric view: the
//! memory system is an explicit hierarchy `DRAM → L2 → L1 → RF` and every
//! level is analyzed independently — access counts from the tiling and
//! loop order, a bandwidth ceiling per level, and a per-byte energy per
//! level. Latency is the slowest level (or the PE array), energy the sum
//! over levels.
//!
//! It deliberately differs from the data-centric model in two ways that
//! TimeLoop also differs from MAESTRO:
//!
//! * **L2 has its own bandwidth ceiling** (reads to the NoC plus fills
//!   from DRAM share it), so heavily re-fetching mappings can become
//!   L2-bound even when the NoC and DRAM are not saturated;
//! * **register-file traffic is modeled as a level** rather than folded
//!   into per-MAC constants.
//!
//! Both engines price the same mappings; a cross-model property test
//! keeps them within a small factor of each other on feasible points, so
//! either can back [`crate::SpatialPlatform`] prototyping.

use unico_mapping::{CanonicalMapping, Mapping, MappingCost, MappingOutcome};
use unico_workloads::{Dim, LoopNest};

use crate::analytical::{outcome_of, MappingObjective};
use crate::batch::MappingBatch;
use crate::evalcache::{
    spatial_eval_key, spatial_key_prefix, EngineTag, EvalCache, EvalKey, EvalResult,
};
use crate::hw::{Dataflow, HwConfig};
use crate::ppa::{EvalError, Ppa};
use crate::tech::TechParams;
use crate::traffic::{tensor_loads, tensor_min_loads, TensorKind};

/// Per-level traffic and occupancy of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Bytes read from this level by the level below (or the PEs).
    pub read_bytes: f64,
    /// Bytes written into this level from above (fills) and below
    /// (write-backs).
    pub write_bytes: f64,
    /// Cycles this level's bandwidth needs for its traffic.
    pub cycles: f64,
}

/// Loop-centric breakdown: one entry per memory level, outermost first
/// (`[DRAM, L2, L1, RF]`), plus the compute bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelBreakdown {
    /// Per-level stats `[DRAM, L2, L1, RF]`.
    pub levels: [LevelStats; 4],
    /// PE-array compute cycles.
    pub compute_cycles: f64,
    /// Index of the binding level (0–3) or 4 when compute-bound.
    pub bottleneck: usize,
}

/// The loop-centric analytical model.
#[derive(Debug, Clone, Copy)]
pub struct LoopCentricModel {
    tech: TechParams,
    /// L2 bandwidth in bytes/cycle (shared by NoC reads and DRAM fills).
    l2_bytes_per_cycle: f64,
    /// Aggregate register-file bandwidth in bytes/cycle per PE.
    rf_bytes_per_cycle_per_pe: f64,
}

impl LoopCentricModel {
    /// Creates the model; the L2 port defaults to 2× the widest NoC and
    /// the register file to 8 B/cycle/PE.
    pub fn new(tech: TechParams) -> Self {
        LoopCentricModel {
            tech,
            l2_bytes_per_cycle: 256.0,
            rf_bytes_per_cycle_per_pe: 8.0,
        }
    }

    /// Overrides the L2 port width.
    pub fn with_l2_bandwidth(mut self, bytes_per_cycle: f64) -> Self {
        self.l2_bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// The technology parameters in use.
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// Silicon area — identical to the data-centric model (area depends
    /// only on the configuration).
    pub fn area_mm2(&self, hw: &HwConfig) -> f64 {
        crate::analytical::AnalyticalModel::new(self.tech).area_mm2(hw)
    }

    /// Evaluates PPA with the per-level breakdown.
    ///
    /// Internally a batch of one: the evaluation body runs over a
    /// [`MappingBatch`] row, so scalar and batched results are bitwise
    /// identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] under the same feasibility rules as the
    /// data-centric model (double-buffered working sets must fit).
    pub fn evaluate_detailed(
        &self,
        hw: &HwConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<(Ppa, LevelBreakdown), EvalError> {
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
    /// See [`LoopCentricModel::evaluate_detailed`].
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
    ) -> Result<(Ppa, LevelBreakdown), EvalError> {
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

        // Feasibility identical to the data-centric engine.
        let fp1 = batch.l1_footprint(i);
        let per_pe = fp1.total().div_ceil(active_pes) * 2;
        if per_pe > hw.l1_bytes() {
            return Err(EvalError::L1Overflow {
                required: per_pe,
                available: hw.l1_bytes(),
            });
        }
        let fp2 = batch.l2_footprint(i);
        if fp2.total() * 2 > hw.l2_bytes() {
            return Err(EvalError::L2Overflow {
                required: fp2.total() * 2,
                available: hw.l2_bytes(),
            });
        }

        // ---- Per-level traffic from the shared reuse analysis. ----
        let order = batch.order(i);
        let l2_trips = batch.l2_trips(i);
        let l1_trips = batch.l1_trips(i);
        let t2 = batch.num_l2_tiles(i) as f64;
        let t1 = batch.num_l1_tiles_per_l2(i) as f64;
        let stationary = match hw.dataflow() {
            Dataflow::WeightStationary => TensorKind::Weight,
            Dataflow::OutputStationary => TensorKind::Output,
        };

        let tensor_fp = |fp: unico_mapping::Footprint, k: TensorKind| match k {
            TensorKind::Input => fp.input as f64,
            TensorKind::Weight => fp.weight as f64,
            TensorKind::Output => fp.output as f64,
        };

        // DRAM level: reads feed L2, write-backs come from L2.
        let mut dram_read = 0.0;
        let mut dram_write = 0.0;
        for tensor in TensorKind::ALL {
            let loads = tensor_loads(tensor, nest, l2_trips, order) as f64;
            let min = tensor_min_loads(tensor, nest, l2_trips) as f64;
            let fp = tensor_fp(fp2, tensor);
            if tensor == TensorKind::Output {
                dram_write += fp * loads;
                dram_read += fp * (loads - min); // partial-sum refills
            } else {
                dram_read += fp * loads;
            }
        }

        // L2 level: read by the NoC toward L1, written by DRAM fills and
        // L1 write-backs.
        let mut l2_read = 0.0;
        let mut l2_write = dram_read; // fills
        for tensor in TensorKind::ALL {
            let loads = if tensor == stationary {
                tensor_min_loads(tensor, nest, l1_trips)
            } else {
                tensor_loads(tensor, nest, l1_trips, order)
            } as f64;
            let min = tensor_min_loads(tensor, nest, l1_trips) as f64;
            let fp = tensor_fp(fp1, tensor);
            if tensor == TensorKind::Output {
                l2_write += fp * loads * t2; // write-backs per L2 tile
                l2_read += fp * (loads - min) * t2;
            } else {
                l2_read += fp * loads * t2;
            }
        }

        // L1 level: read once per MAC operand that is not register
        // stationary; written by NoC fills.
        let bf = t.bytes_per_elem as f64;
        let mut l1_read = 0.0;
        let mut l1_write = l2_read; // fills from L2
        for tensor in TensorKind::ALL {
            if tensor == stationary {
                continue; // served from the register file
            }
            let per_mac = if tensor == TensorKind::Output {
                2.0
            } else {
                1.0
            };
            l1_read += macs * bf * per_mac;
        }
        l1_write += macs * bf; // output updates land in L1 eventually

        // Register file: the stationary tensor's per-MAC traffic.
        let rf_read = macs
            * bf
            * if stationary == TensorKind::Output {
                2.0
            } else {
                1.0
            };
        let rf_write = macs * bf * 0.25; // periodic refills

        // ---- Per-level cycle bounds. ----
        let noc_bw = f64::from(hw.noc_bytes_per_cycle());
        let rf_bw = self.rf_bytes_per_cycle_per_pe * active_pes as f64;
        let mk = |read: f64, write: f64, bw: f64| LevelStats {
            read_bytes: read,
            write_bytes: write,
            cycles: (read + write) / bw,
        };
        let levels = [
            mk(dram_read, dram_write, t.dram_bytes_per_cycle),
            mk(l2_read, l2_write, self.l2_bytes_per_cycle),
            mk(
                l1_read,
                l1_write,
                noc_bw.max(1.0) * active_pes as f64 / hw.num_pes() as f64 + rf_bw,
            ),
            mk(rf_read, rf_write, rf_bw),
        ];

        // Compute bound (same spatial model as the data-centric engine).
        let mut serial: u64 = 1;
        for d in Dim::ALL {
            if d != sd1 && d != sd2 {
                serial *= l1_tile[d.index()];
            }
        }
        let compute_cycles = t2
            * t1
            * (e1.div_ceil(u64::from(hw.pe_x())) as f64
                * e2.div_ceil(u64::from(hw.pe_y())) as f64
                * serial as f64);

        let mut bottleneck = 4usize;
        let mut worst = compute_cycles;
        for (i, l) in levels.iter().enumerate() {
            if l.cycles > worst {
                worst = l.cycles;
                bottleneck = i;
            }
        }
        let total_cycles = worst + t2 * t.tile_overhead_cycles + t.launch_overhead_cycles;
        let latency_s = total_cycles / t.clock_hz;

        // ---- Energy: per-level per-byte + MACs + leakage. ----
        let area = area_mm2;
        let per_byte = [
            t.e_dram_pj_per_byte,
            t.e_l2_pj_per_byte,
            t.e_l1_pj_per_byte,
            t.e_reg_pj_per_byte,
        ];
        let mut energy_pj = macs * t.e_mac_pj
            + t.leakage_mw_per_mm2 * area * latency_s * 1e9
            + l2_read * t.e_noc_pj_per_byte; // NoC transport of L2 reads
        for (l, e) in levels.iter().zip(per_byte) {
            energy_pj += (l.read_bytes + l.write_bytes) * e;
        }
        let power_mw = energy_pj / (latency_s * 1e9);

        Ok((
            Ppa {
                latency_s,
                power_mw,
                area_mm2: area,
                energy_pj,
            },
            LevelBreakdown {
                levels,
                compute_cycles,
                bottleneck,
            },
        ))
    }

    /// Evaluates PPA only.
    ///
    /// # Errors
    ///
    /// See [`LoopCentricModel::evaluate_detailed`].
    pub fn evaluate(
        &self,
        hw: &HwConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<Ppa, EvalError> {
        self.evaluate_detailed(hw, mapping, nest).map(|(p, _)| p)
    }
}

/// [`MappingCost`] adapter for the loop-centric engine.
#[derive(Debug, Clone, Copy)]
pub struct BoundLoopCentricCost<'a> {
    model: &'a LoopCentricModel,
    hw: HwConfig,
    nest: LoopNest,
    eval_cost_s: f64,
    objective: MappingObjective,
    cache: Option<&'a EvalCache>,
}

impl<'a> BoundLoopCentricCost<'a> {
    /// Binds the model to `(hw, nest)` with the latency objective.
    pub fn new(
        model: &'a LoopCentricModel,
        hw: HwConfig,
        nest: LoopNest,
        eval_cost_s: f64,
    ) -> Self {
        BoundLoopCentricCost {
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

    /// Memoizes evaluations in `cache`.
    pub fn with_cache(mut self, cache: Option<&'a EvalCache>) -> Self {
        self.cache = cache;
        self
    }

    fn evaluate_cached(&self, mapping: &Mapping) -> Result<Ppa, EvalError> {
        match self.cache {
            Some(cache) => cache.get_or_compute(
                spatial_eval_key(
                    EngineTag::LoopCentric,
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

impl MappingCost for BoundLoopCentricCost<'_> {
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
                // Same laziness as the data-centric engine: keys hash
                // off the mappings with the prefix amortized; the SoA
                // batch is built only when a miss needs compute.
                let prefix = spatial_key_prefix(EngineTag::LoopCentric, &self.hw, &self.nest);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::AnalyticalModel;
    use unico_workloads::TensorOp;

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

    fn hw() -> HwConfig {
        HwConfig::new(8, 8, 4096, 512 * 1024, 128, Dataflow::WeightStationary)
    }

    #[test]
    fn evaluates_and_diagnoses_bottleneck() {
        let m = LoopCentricModel::new(TechParams::default());
        let n = nest();
        let (ppa, bd) = m.evaluate_detailed(&hw(), &small_mapping(&n), &n).unwrap();
        assert!(ppa.latency_s > 0.0 && ppa.power_mw > 0.0);
        assert!(bd.bottleneck <= 4);
        for l in bd.levels {
            assert!(l.read_bytes >= 0.0 && l.write_bytes >= 0.0 && l.cycles >= 0.0);
        }
        // Compute bound respected.
        let floor = n.macs() as f64 / (64.0 * m.tech().clock_hz);
        assert!(ppa.latency_s >= floor);
    }

    #[test]
    fn feasibility_matches_data_centric_engine() {
        let lc = LoopCentricModel::new(TechParams::default());
        let dc = AnalyticalModel::new(TechParams::default());
        let n = nest();
        // Identity mapping overflows both.
        let whole = Mapping::identity(&n);
        assert_eq!(
            lc.evaluate(&hw(), &whole, &n).is_err(),
            dc.evaluate(&hw(), &whole, &n).is_err()
        );
        // The small mapping fits both.
        let m = small_mapping(&n);
        assert!(lc.evaluate(&hw(), &m, &n).is_ok());
        assert!(dc.evaluate(&hw(), &m, &n).is_ok());
    }

    #[test]
    fn engines_agree_within_small_factor() {
        let lc = LoopCentricModel::new(TechParams::default());
        let dc = AnalyticalModel::new(TechParams::default());
        let n = nest();
        let m = small_mapping(&n);
        let a = lc.evaluate(&hw(), &m, &n).unwrap();
        let b = dc.evaluate(&hw(), &m, &n).unwrap();
        let ratio = a.latency_s / b.latency_s;
        assert!(
            (0.2..5.0).contains(&ratio),
            "latency ratio {ratio} out of band: {a:?} vs {b:?}"
        );
        assert_eq!(a.area_mm2, b.area_mm2, "area must be identical");
    }

    #[test]
    fn narrow_l2_port_creates_l2_bottleneck() {
        let n = nest();
        let m = small_mapping(&n);
        let wide = LoopCentricModel::new(TechParams::default());
        let narrow = wide.with_l2_bandwidth(2.0);
        let (_, bd) = narrow.evaluate_detailed(&hw(), &m, &n).unwrap();
        assert_eq!(bd.bottleneck, 1, "L2 should bind at 2 B/cycle: {bd:?}");
        let lat_wide = wide.evaluate(&hw(), &m, &n).unwrap().latency_s;
        let lat_narrow = narrow.evaluate(&hw(), &m, &n).unwrap().latency_s;
        assert!(lat_narrow > lat_wide);
    }

    #[test]
    fn bound_cost_adapter_works() {
        let lc = LoopCentricModel::new(TechParams::default());
        let n = nest();
        let c = BoundLoopCentricCost::new(&lc, hw(), n, 1.0);
        let o = c.assess(&small_mapping(&n)).unwrap();
        assert_eq!(o.loss, o.latency_s);
        assert!(c.assess(&Mapping::identity(&n)).is_none());
        let edp = c.with_objective(MappingObjective::Edp);
        assert!(edp.assess(&small_mapping(&n)).unwrap().loss != o.loss);
    }
}
