//! The cycle-level Ascend-like core model.

use unico_mapping::{Mapping, MappingCost, MappingOutcome};
use unico_model::{EngineTag, EvalCache, EvalError, EvalKey, EvalKeyBuilder, Ppa};
use unico_workloads::{Dim, LoopNest};

use crate::config::AscendConfig;
use crate::pipeline::{PipelineSim, StageSpec};

/// Technology constants of the Ascend-like model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AscendTech {
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// DRAM bytes per cycle (MTE2 rate).
    pub dram_bytes_per_cycle: f64,
    /// L1 → L0 bytes per cycle per MTE1 engine.
    pub l0_bytes_per_cycle: f64,
    /// L0C → UB bytes per cycle (fixpipe rate).
    pub fixp_bytes_per_cycle: f64,
    /// Vector unit lanes (elements per cycle).
    pub vector_lanes: f64,
    /// Cube pipeline depth (beats of latency per tile).
    pub cube_pipe_depth: f64,
    /// Energy per cube MAC, pJ.
    pub e_mac_pj: f64,
    /// Energy per byte in L0 buffers, pJ.
    pub e_l0_pj_per_byte: f64,
    /// Energy per byte in L1/UB, pJ.
    pub e_l1_pj_per_byte: f64,
    /// Energy per DRAM byte, pJ.
    pub e_dram_pj_per_byte: f64,
    /// Leakage, mW per mm².
    pub leakage_mw_per_mm2: f64,
    /// Fixed die overhead (I/O ring, host interface, control), mm².
    pub area_base_mm2: f64,
    /// Area per cube MAC, mm².
    pub area_cube_mm2_per_mac: f64,
    /// Area per KiB of L0 SRAM, mm² (multi-ported, expensive).
    pub area_l0_mm2_per_kb: f64,
    /// Area per KiB of L1/UB SRAM, mm².
    pub area_l1_mm2_per_kb: f64,
    /// Simulated seconds charged per evaluation (base).
    pub sim_cost_base_s: f64,
    /// Additional simulated seconds per GMAC of workload.
    pub sim_cost_per_gmac_s: f64,
}

impl Default for AscendTech {
    fn default() -> Self {
        AscendTech {
            clock_hz: 1.0e9,
            dram_bytes_per_cycle: 48.0,
            l0_bytes_per_cycle: 256.0,
            fixp_bytes_per_cycle: 128.0,
            vector_lanes: 128.0,
            cube_pipe_depth: 8.0,
            e_mac_pj: 0.35,
            e_l0_pj_per_byte: 0.15,
            e_l1_pj_per_byte: 0.35,
            e_dram_pj_per_byte: 10.0,
            leakage_mw_per_mm2: 5.0,
            area_base_mm2: 2.0,
            area_cube_mm2_per_mac: 0.0030,
            area_l0_mm2_per_kb: 0.010,
            area_l1_mm2_per_kb: 0.0035,
            sim_cost_base_s: 120.0,
            sim_cost_per_gmac_s: 12.0,
        }
    }
}

/// GEMM view of an L1 tile on the cube unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileGemm {
    m: u64,
    n: u64,
    k: u64,
}

impl TileGemm {
    fn of(mapping: &Mapping) -> TileGemm {
        let t = mapping.l1_tile();
        TileGemm {
            m: t[Dim::N.index()] * t[Dim::Y.index()] * t[Dim::X.index()],
            n: t[Dim::K.index()],
            k: t[Dim::C.index()] * t[Dim::R.index()] * t[Dim::S.index()],
        }
    }
}

/// Per-stage diagnosis of one simulated layer execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AscendBreakdown {
    /// Utilization of each pipeline stage
    /// `[MTE2, MTE1, CUBE, FIXP, VEC]` as busy-cycles / total-cycles.
    pub stage_utilization: [f64; 5],
    /// Name of the busiest stage.
    pub bottleneck: &'static str,
    /// Utilization of the busiest stage.
    pub bottleneck_utilization: f64,
    /// Number of L1 tiles streamed through the pipeline.
    pub total_tiles: u64,
}

/// The Ascend-like cycle-level PPA model.
#[derive(Debug, Clone, Copy, Default)]
pub struct AscendModel {
    tech: AscendTech,
}

impl AscendModel {
    /// Creates a model with explicit technology constants.
    pub fn new(tech: AscendTech) -> Self {
        AscendModel { tech }
    }

    /// Technology constants in use.
    pub fn tech(&self) -> &AscendTech {
        &self.tech
    }

    /// Silicon area of a configuration, mm².
    pub fn area_mm2(&self, hw: &AscendConfig) -> f64 {
        let t = &self.tech;
        t.area_base_mm2
            + hw.cube_macs() as f64 * t.area_cube_mm2_per_mac
            + f64::from(hw.l0a_kb + hw.l0b_kb + hw.l0c_kb) * t.area_l0_mm2_per_kb
            + f64::from(hw.l1_kb + hw.ub_kb + hw.pb_kb + hw.icache_kb) * t.area_l1_mm2_per_kb
    }

    /// Simulated wall-clock seconds one evaluation of `nest` costs
    /// (CAModels take minutes; cost grows with workload size, capped at
    /// 10 minutes as in the paper's 2–10 min range).
    pub fn eval_cost_seconds(&self, nest: &LoopNest) -> f64 {
        let gmacs = nest.macs() as f64 / 1e9;
        (self.tech.sim_cost_base_s + self.tech.sim_cost_per_gmac_s * gmacs).min(600.0)
    }

    /// Evaluates one `(hardware, mapping, nest)` triple by simulating the
    /// tile pipeline cycle-by-cycle (with steady-state extrapolation).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if any tile working set overflows its
    /// buffer: L0A/L0B/L0C per bank group, the fusion tile in L1, or the
    /// output tile in the unified buffer.
    pub fn evaluate(
        &self,
        hw: &AscendConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<Ppa, EvalError> {
        self.evaluate_with_breakdown(hw, mapping, nest)
            .map(|(ppa, _)| ppa)
    }

    /// Like [`AscendModel::evaluate`] but also returns the per-stage
    /// utilization diagnosis.
    ///
    /// # Errors
    ///
    /// See [`AscendModel::evaluate`].
    pub fn evaluate_with_breakdown(
        &self,
        hw: &AscendConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<(Ppa, AscendBreakdown), EvalError> {
        let t = &self.tech;
        let g = TileGemm::of(mapping);

        // --- Buffer feasibility. ---
        let l0a_need = g.m * g.k * 2;
        let l0a_have = u64::from(hw.l0a_kb) * 1024 / u64::from(hw.l0a_banks);
        if l0a_need > l0a_have {
            return Err(EvalError::L1Overflow {
                required: l0a_need,
                available: l0a_have,
            });
        }
        let l0b_need = g.k * g.n * 2;
        let l0b_have = u64::from(hw.l0b_kb) * 1024 / u64::from(hw.l0b_banks);
        if l0b_need > l0b_have {
            return Err(EvalError::L1Overflow {
                required: l0b_need,
                available: l0b_have,
            });
        }
        let l0c_need = g.m * g.n * 4;
        let l0c_have = u64::from(hw.l0c_kb) * 1024 / u64::from(hw.l0c_banks);
        if l0c_need > l0c_have {
            return Err(EvalError::L1Overflow {
                required: l0c_need,
                available: l0c_have,
            });
        }
        let fp2 = mapping.l2_footprint(nest, 2);
        let l1_need = fp2.total() * 2;
        let l1_have = u64::from(hw.l1_kb) * 1024;
        if l1_need > l1_have {
            return Err(EvalError::L2Overflow {
                required: l1_need,
                available: l1_have,
            });
        }
        let ub_need = g.m * g.n * 2 * 2; // double-buffered fp16 output tile
        let ub_have = u64::from(hw.ub_kb) * 1024;
        if ub_need > ub_have {
            return Err(EvalError::L2Overflow {
                required: ub_need,
                available: ub_have,
            });
        }

        // --- Per-tile stage durations (cycles). ---
        let fp1 = mapping.l1_footprint(nest, 2);
        let tiles_per_l2 = mapping.num_l1_tiles_per_l2().max(1);
        let l2_tiles = mapping.num_l2_tiles(nest).max(1);
        let total_tiles = tiles_per_l2 * l2_tiles;

        // DRAM traffic amortized per tile: fusion tile fetched once per
        // L2 tile, outputs written once.
        let dram_bytes_total = (fp2.total() * l2_tiles) as f64;
        let mte2 = dram_bytes_total / total_tiles as f64 / t.dram_bytes_per_cycle;
        // MTE1: two engines move A and B concurrently.
        let mte1 = ((fp1.input as f64).max(fp1.weight as f64)) / t.l0_bytes_per_cycle;
        let cube_beats = g.m.div_ceil(u64::from(hw.cube_m)) as f64
            * g.n.div_ceil(u64::from(hw.cube_n)) as f64
            * g.k.div_ceil(u64::from(hw.cube_k)) as f64
            + t.cube_pipe_depth;
        let fixp = (g.m * g.n * 4) as f64 / t.fixp_bytes_per_cycle;
        let vec = (g.m * g.n) as f64 / t.vector_lanes;

        // Instruction / parameter overheads.
        let icache_penalty = if hw.icache_kb < 32 { 8.0 } else { 0.0 };
        let pb_penalty = if u64::from(hw.pb_kb) * 1024 < g.n * 8 {
            (g.n * 8) as f64 / t.dram_bytes_per_cycle
        } else {
            0.0
        };

        let durations = [
            mte2 + icache_penalty + pb_penalty,
            mte1,
            cube_beats,
            fixp,
            vec,
        ];
        let stages = vec![
            StageSpec {
                name: "mte2",
                out_depth: 2,
            },
            StageSpec {
                name: "mte1",
                out_depth: hw.l0a_banks.min(hw.l0b_banks),
            },
            StageSpec {
                name: "cube",
                out_depth: hw.l0c_banks,
            },
            StageSpec {
                name: "fixp",
                out_depth: 2,
            },
            StageSpec {
                name: "vec",
                out_depth: 2,
            },
        ];
        let mut pipe = PipelineSim::new(stages);
        let finish = pipe.run_uniform(&durations, total_tiles);
        let total_cycles = finish + l2_tiles as f64 * 32.0 + 4000.0;
        let latency_s = total_cycles / t.clock_hz;
        let busy = pipe.stage_busy_cycles();
        let stage_utilization: [f64; 5] =
            std::array::from_fn(|i| (busy[i] / total_cycles).clamp(0.0, 1.0));
        let stage_names = ["mte2", "mte1", "cube", "fixp", "vec"];
        let (bi, &bu) = stage_utilization
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("five-stage pipeline");
        let breakdown = AscendBreakdown {
            stage_utilization,
            bottleneck: stage_names[bi],
            bottleneck_utilization: bu,
            total_tiles,
        };

        // --- Energy. ---
        let macs = nest.macs() as f64;
        // Cube beats waste energy on padding when tile dims don't divide
        // the intrinsic.
        let cube_energy = (cube_beats - t.cube_pipe_depth)
            * hw.cube_macs() as f64
            * t.e_mac_pj
            * total_tiles as f64;
        let l0_bytes =
            ((fp1.input + fp1.weight) as f64 + (g.m * g.n * 4) as f64) * total_tiles as f64;
        let l1_bytes = (fp1.total() * total_tiles) as f64 + dram_bytes_total;
        let area = self.area_mm2(hw);
        let energy_pj = cube_energy.max(macs * t.e_mac_pj)
            + l0_bytes * t.e_l0_pj_per_byte
            + l1_bytes * t.e_l1_pj_per_byte
            + dram_bytes_total * t.e_dram_pj_per_byte
            + t.leakage_mw_per_mm2 * area * latency_s * 1e9;
        let power_mw = energy_pj / (latency_s * 1e9);

        Ok((
            Ppa {
                latency_s,
                power_mw,
                area_mm2: area,
                energy_pj,
            },
            breakdown,
        ))
    }
}

/// [`MappingCost`] adapter binding the Ascend model to `(hw, nest)`.
#[derive(Debug, Clone, Copy)]
pub struct BoundAscendCost<'a> {
    model: &'a AscendModel,
    hw: AscendConfig,
    nest: LoopNest,
    cache: Option<&'a EvalCache>,
}

impl<'a> BoundAscendCost<'a> {
    /// Binds the model to a configuration and loop nest.
    pub fn new(model: &'a AscendModel, hw: AscendConfig, nest: LoopNest) -> Self {
        BoundAscendCost {
            model,
            hw,
            nest,
            cache: None,
        }
    }

    /// Memoizes evaluations in `cache`.
    pub fn with_cache(mut self, cache: Option<&'a EvalCache>) -> Self {
        self.cache = cache;
        self
    }

    fn eval_key(&self, mapping: &Mapping) -> EvalKey {
        ascend_eval_key(&self.hw, mapping, &self.nest)
    }

    fn evaluate_cached(&self, mapping: &Mapping) -> Result<Ppa, EvalError> {
        match self.cache {
            Some(cache) => cache.get_or_compute(self.eval_key(mapping), || {
                self.model.evaluate(&self.hw, mapping, &self.nest)
            }),
            None => self.model.evaluate(&self.hw, mapping, &self.nest),
        }
    }
}

/// The canonical cache key for the Ascend-like cycle model. The model
/// prices the L1 GEMM tile and the buffer footprints only — it never
/// reads the temporal order or the spatial dims — so the key hashes the
/// tile extents alone and order permutations of the same tiling hit the
/// same entry.
pub fn ascend_eval_key(hw: &AscendConfig, mapping: &Mapping, nest: &LoopNest) -> EvalKey {
    let mut b = ascend_key_prefix(hw, nest);
    b.mapping_tiles(mapping, nest);
    b.finish()
}

/// The hardware + nest prefix of [`ascend_eval_key`], shared by every
/// mapping of one `(hw, nest)` binding. Batch lookups clone it per
/// candidate instead of re-hashing the 13 configuration words and the
/// nest each time.
pub fn ascend_key_prefix(hw: &AscendConfig, nest: &LoopNest) -> EvalKeyBuilder {
    let mut b = EvalKeyBuilder::new(EngineTag::Ascend);
    for w in [
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
    ] {
        b.word(u64::from(w));
    }
    b.nest(nest);
    b
}

fn outcome(r: Result<Ppa, EvalError>) -> Option<MappingOutcome> {
    match r {
        Ok(ppa) => Some(MappingOutcome {
            loss: ppa.latency_s,
            latency_s: ppa.latency_s,
            power_mw: ppa.power_mw,
        }),
        Err(_) => None,
    }
}

impl MappingCost for BoundAscendCost<'_> {
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome> {
        outcome(self.evaluate_cached(mapping))
    }

    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        let Some(cache) = self.cache else {
            // Without a cache there is nothing to amortize for the cycle
            // model (it reads the Mapping struct directly), so fall back
            // to the scalar loop — bitwise the same by definition.
            return mappings.iter().map(|m| self.assess(m)).collect();
        };
        let prefix = ascend_key_prefix(&self.hw, &self.nest);
        let keys: Vec<EvalKey> = mappings
            .iter()
            .map(|m| {
                let mut kb = prefix.clone();
                kb.mapping_tiles(m, &self.nest);
                kb.finish()
            })
            .collect();
        cache
            .get_or_compute_batch(&keys, |i| {
                self.model.evaluate(&self.hw, &mappings[i], &self.nest)
            })
            .into_iter()
            .map(outcome)
            .collect()
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.model.eval_cost_seconds(&self.nest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_workloads::TensorOp;

    fn nest() -> LoopNest {
        TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 64,
            x: 64,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest()
    }

    fn fitting_mapping(n: &LoopNest) -> Mapping {
        let mut l2 = n.extents();
        l2[Dim::Y.index()] = 16;
        let mut l1 = [1u64; 7];
        l1[Dim::Y.index()] = 8;
        l1[Dim::X.index()] = 8;
        l1[Dim::K.index()] = 16;
        l1[Dim::C.index()] = 16;
        l1[Dim::R.index()] = 3;
        l1[Dim::S.index()] = 3;
        Mapping::new(n, l2, l1, Dim::ALL, (Dim::K, Dim::Y))
    }

    #[test]
    fn evaluates_default_config() {
        let m = AscendModel::default();
        let n = nest();
        let ppa = m
            .evaluate(&AscendConfig::expert_default(), &fitting_mapping(&n), &n)
            .unwrap();
        assert!(ppa.latency_s > 0.0);
        assert!(ppa.power_mw > 0.0);
        assert!(
            (5.0..200.0).contains(&ppa.area_mm2),
            "area {}",
            ppa.area_mm2
        );
    }

    #[test]
    fn l0_overflow_detected() {
        let m = AscendModel::default();
        let n = nest();
        let huge = Mapping::identity(&n);
        assert!(m
            .evaluate(&AscendConfig::expert_default(), &huge, &n)
            .is_err());
    }

    #[test]
    fn bigger_cube_is_faster_on_big_gemm() {
        let m = AscendModel::default();
        let n = TensorOp::Gemm {
            m: 512,
            n: 512,
            k: 512,
        }
        .to_loop_nest();
        let mut l1 = [1u64; 7];
        l1[Dim::Y.index()] = 64; // m tile
        l1[Dim::K.index()] = 32; // n tile
        l1[Dim::C.index()] = 64; // k tile
        let mut l2 = [1u64; 7];
        l2[Dim::Y.index()] = 128;
        l2[Dim::K.index()] = 128;
        l2[Dim::C.index()] = 512;
        let map = Mapping::new(&n, l2, l1, Dim::ALL, (Dim::K, Dim::Y));
        let small = AscendConfig {
            cube_m: 8,
            cube_n: 8,
            cube_k: 8,
            ..AscendConfig::expert_default()
        };
        let big = AscendConfig {
            cube_m: 32,
            cube_n: 32,
            cube_k: 32,
            ..AscendConfig::expert_default()
        };
        let lat_small = m.evaluate(&small, &map, &n).unwrap().latency_s;
        let lat_big = m.evaluate(&big, &map, &n).unwrap().latency_s;
        assert!(lat_big < lat_small);
    }

    #[test]
    fn single_banked_l0_serializes_and_slows() {
        let m = AscendModel::default();
        let n = nest();
        let map = fitting_mapping(&n);
        let db = AscendConfig::expert_default();
        let sb = AscendConfig {
            l0a_banks: 1,
            l0b_banks: 1,
            l0c_banks: 1,
            ..db
        };
        let lat_db = m.evaluate(&db, &map, &n).unwrap().latency_s;
        let lat_sb = m.evaluate(&sb, &map, &n).unwrap().latency_s;
        assert!(lat_sb > lat_db, "single-bank {lat_sb} vs double {lat_db}");
    }

    #[test]
    fn eval_cost_in_camodel_range() {
        let m = AscendModel::default();
        let small = nest();
        let cost = m.eval_cost_seconds(&small);
        assert!((120.0..=600.0).contains(&cost));
        let big = TensorOp::Conv2d {
            n: 1,
            k: 256,
            c: 128,
            y: 512,
            x: 512,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest();
        assert!(m.eval_cost_seconds(&big) > cost);
        assert_eq!(
            m.eval_cost_seconds(&big),
            600.0,
            "huge workloads cap at 10 min"
        );
    }

    #[test]
    fn bound_cost_reports_latency_loss() {
        let m = AscendModel::default();
        let n = nest();
        let c = BoundAscendCost::new(&m, AscendConfig::expert_default(), n);
        let out = c.assess(&fitting_mapping(&n)).unwrap();
        assert_eq!(out.loss, out.latency_s);
        assert!(c.eval_cost_seconds() >= 120.0);
    }

    #[test]
    fn breakdown_reports_consistent_utilization() {
        let m = AscendModel::default();
        let n = nest();
        let (_, bd) = m
            .evaluate_with_breakdown(&AscendConfig::expert_default(), &fitting_mapping(&n), &n)
            .unwrap();
        assert!(bd.total_tiles > 0);
        for u in bd.stage_utilization {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        let max = bd.stage_utilization.iter().copied().fold(0.0f64, f64::max);
        assert!((bd.bottleneck_utilization - max).abs() < 1e-9);
        assert!(["mte2", "mte1", "cube", "fixp", "vec"].contains(&bd.bottleneck));
    }

    #[test]
    fn cube_bound_mapping_reports_cube_bottleneck() {
        // Deep reduction, small output: cube beats dominate every other
        // stage.
        let m = AscendModel::default();
        let n = TensorOp::Gemm {
            m: 256,
            n: 256,
            k: 4096,
        }
        .to_loop_nest();
        let mut l1 = [1u64; 7];
        l1[Dim::Y.index()] = 32; // m tile
        l1[Dim::K.index()] = 32; // n tile
        l1[Dim::C.index()] = 128; // k tile
        let mut l2 = [1u64; 7];
        l2[Dim::Y.index()] = 64;
        l2[Dim::K.index()] = 64;
        l2[Dim::C.index()] = 512;
        let map = Mapping::new(&n, l2, l1, Dim::ALL, (Dim::K, Dim::Y));
        let small_cube = AscendConfig {
            cube_m: 8,
            cube_n: 8,
            cube_k: 8,
            ..AscendConfig::expert_default()
        };
        let (_, bd) = m.evaluate_with_breakdown(&small_cube, &map, &n).unwrap();
        assert_eq!(bd.bottleneck, "cube", "breakdown: {bd:?}");
    }

    #[test]
    fn area_cap_relevant_configs_exist() {
        let m = AscendModel::default();
        let max = AscendConfig {
            cube_m: 32,
            cube_n: 32,
            cube_k: 32,
            l0a_kb: 256,
            l0b_kb: 256,
            l0c_kb: 512,
            l1_kb: 2048,
            ub_kb: 512,
            ..AscendConfig::expert_default()
        };
        assert!(m.area_mm2(&max) > m.area_mm2(&AscendConfig::expert_default()));
        assert!(m.area_mm2(&max) < 300.0);
    }
}
