//! Differential pinning of the structure-of-arrays batch evaluation
//! path against the scalar per-candidate path, across every PPA engine
//! (analytical data-centric, analytical loop-centric, and the
//! cycle-level Ascend-like simulator).
//!
//! For a structured grid of (hardware config, mapping) candidates the
//! suite asserts:
//!
//! * `Platform::evaluate_batch` is **bitwise** identical to scoring the
//!   same candidates one at a time through `MappingCost::assess`, in
//!   slice order, including infeasible candidates (`None` on both
//!   paths for the same indices);
//! * the guarantee holds with and without an [`EvalCache`] attached,
//!   and on repeat passes that are served from the cache;
//! * the cache's hit/miss/eviction counters advance **exactly** as they
//!   do on the scalar path — batching changes lock traffic, never
//!   accounting;
//! * both caches end with byte-identical traces, so the batched key
//!   builders write exactly the scalar keys' bytes.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_camodel::AscendPlatform;
use unico_mapping::{Mapping, MappingOutcome, MappingSpace};
use unico_model::{
    tensor_loads, AnalyticalModel, Dataflow, EvalCache, EvalError, HwConfig, HwSpace, Platform,
    PpaEngine, SpatialPlatform, TechParams, TensorKind,
};
use unico_workloads::{Dim, LoopNest, TensorOp};

/// Structured workload grid: two conv layers sized for every engine's
/// reference hardware plus a GEMM, so both tensor-op lowering paths are
/// exercised.
fn grid() -> Vec<LoopNest> {
    vec![
        TensorOp::Conv2d {
            n: 1,
            k: 16,
            c: 8,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest(),
        TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest(),
        TensorOp::Gemm {
            m: 64,
            n: 48,
            k: 32,
        }
        .to_loop_nest(),
    ]
}

/// Candidate mappings for one nest: random samples (some of which are
/// infeasible on small configs, covering the error path), the identity
/// mapping (whole-problem tiles — infeasible on most configs), and a
/// duplicate of the first sample so one batch carries a repeated key.
fn candidates(nest: &LoopNest, rng: &mut StdRng) -> Vec<Mapping> {
    let space = MappingSpace::new(nest);
    let mut mappings: Vec<Mapping> = (0..14).map(|_| space.sample(rng)).collect();
    mappings.push(Mapping::identity(nest));
    mappings.push(mappings[0].clone());
    mappings
}

fn assert_bitwise(
    scalar: &[Option<MappingOutcome>],
    batched: &[Option<MappingOutcome>],
    label: &str,
) {
    assert_eq!(scalar.len(), batched.len(), "{label}: length diverged");
    for (i, (s, b)) in scalar.iter().zip(batched).enumerate() {
        match (s, b) {
            (None, None) => {}
            (Some(s), Some(b)) => {
                for (x, y, f) in [
                    (s.loss, b.loss, "loss"),
                    (s.latency_s, b.latency_s, "latency_s"),
                    (s.power_mw, b.power_mw, "power_mw"),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{label}: candidate {i} {f} differs ({x} vs {y})"
                    );
                }
            }
            (s, b) => {
                panic!("{label}: candidate {i} feasibility diverged: scalar {s:?} batch {b:?}")
            }
        }
    }
}

/// Runs the differential over `n_configs` sampled configs of one
/// platform family. `make(cache)` builds the platform; the scalar twin
/// (scored through `bind().assess()`) and the batch twin (scored through
/// `evaluate_batch`) get separate caches so their counters and traces
/// can be compared at the end.
fn run_differential<P: Platform>(
    make: impl Fn(Option<Arc<EvalCache>>) -> P,
    family: &str,
    seed: u64,
    n_configs: usize,
) {
    // Phase 1: no cache attached — pure compute-path identity.
    {
        let p = make(None);
        let mut rng = StdRng::seed_from_u64(seed);
        for (ni, nest) in grid().iter().enumerate() {
            for ci in 0..n_configs {
                let hw = p.sample_hw(&mut rng);
                let mappings = candidates(nest, &mut rng);
                let label = format!("{family} uncached nest {ni} config {ci}");
                let cost = p.bind(&hw, nest);
                let scalar: Vec<_> = mappings.iter().map(|m| cost.assess(m)).collect();
                let batched = p.evaluate_batch(&hw, nest, &mappings);
                assert_bitwise(&scalar, &batched, &label);
            }
        }
    }

    // Phase 2: cache attached — identity must survive populate + hit
    // passes, and the two caches must end with identical counters.
    let scalar_cache = Arc::new(EvalCache::new());
    let batch_cache = Arc::new(EvalCache::new());
    let scalar_p = make(Some(scalar_cache.clone()));
    let batch_p = make(Some(batch_cache.clone()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for (ni, nest) in grid().iter().enumerate() {
        for ci in 0..n_configs {
            let hw = scalar_p.sample_hw(&mut rng);
            let mappings = candidates(nest, &mut rng);
            let cost = scalar_p.bind(&hw, nest);
            // Pass 0 populates both caches; pass 1 is served from them.
            for pass in 0..2 {
                let label = format!("{family} cached nest {ni} config {ci} pass {pass}");
                let scalar: Vec<_> = mappings.iter().map(|m| cost.assess(m)).collect();
                let batched = batch_p.evaluate_batch(&hw, nest, &mappings);
                assert_bitwise(&scalar, &batched, &label);
                if pass == 0 {
                    feasible += scalar.iter().flatten().count();
                    infeasible += scalar.iter().filter(|o| o.is_none()).count();
                }
            }
        }
    }
    assert!(
        feasible > 0 && infeasible > 0,
        "{family}: grid must exercise both feasible ({feasible}) and \
         infeasible ({infeasible}) candidates"
    );

    // Batched lookups must book exactly the hits/misses/evictions the
    // scalar per-candidate path books.
    let s = scalar_cache.stats();
    let b = batch_cache.stats();
    assert_eq!(s.hits, b.hits, "{family}: hit accounting diverged");
    assert_eq!(s.misses, b.misses, "{family}: miss accounting diverged");
    assert_eq!(
        s.evictions, b.evictions,
        "{family}: eviction accounting diverged"
    );
    assert_eq!(s.entries, b.entries, "{family}: entry counts diverged");
    assert!(
        s.hits > 0,
        "{family}: repeat passes must produce cache hits"
    );
    assert!(s.misses > 0, "{family}: first passes must produce misses");

    // Only the batch twin went through the batched lookup entry point.
    assert_eq!(scalar_cache.batch_stats().lookups, 0);
    let bb = batch_cache.batch_stats();
    assert!(
        bb.lookups > 0,
        "{family}: batch path must book batch lookups"
    );
    assert_eq!(
        bb.keys,
        s.hits + s.misses,
        "{family}: every key resolved must flow through the batched lookups"
    );
    // The batched key builders (hw+nest prefix plus per-mapping hash)
    // must write the same key bytes as the scalar per-candidate keys:
    // equal counters alone cannot catch a key that differs consistently.
    assert_eq!(
        scalar_cache.to_trace(),
        batch_cache.to_trace(),
        "{family}: batched cache keys or results diverged from the scalar path"
    );
}

/// A frozen, straight-line `f64` transcription of the analytical engine
/// as it stood **before** its arithmetic was factored into the generic
/// `cost_core` (shared with the autodiff relaxation). Every operation
/// appears in the original order and association, so any reordering in
/// the generic path — however algebraically innocent — shows up as a bit
/// difference against this reference.
mod prerefactor {
    use super::*;

    pub struct Outputs {
        pub latency_s: f64,
        pub power_mw: f64,
        pub area_mm2: f64,
        pub energy_pj: f64,
        pub compute_cycles: f64,
        pub noc_cycles: f64,
        pub dram_cycles: f64,
        pub total_cycles: f64,
        pub utilization: f64,
        pub noc_bytes: f64,
        pub dram_bytes: f64,
        pub active_pes: u64,
    }

    pub fn area_mm2(t: &TechParams, hw: &HwConfig) -> f64 {
        let pes = hw.num_pes() as f64;
        let l1_total_kb = (hw.l1_bytes() as f64 * pes) / 1024.0;
        let l2_kb = hw.l2_bytes() as f64 / 1024.0;
        t.area_base_mm2
            + pes * t.area_pe_mm2
            + l1_total_kb * t.area_l1_mm2_per_kb
            + l2_kb * t.area_l2_mm2_per_kb
            + pes * (f64::from(hw.noc_bytes_per_cycle()) / 64.0) * t.area_noc_mm2_per_pe_64b
    }

    fn min_loads(tensor: TensorKind, nest: &LoopNest, trips: &[u64; 7]) -> u64 {
        tensor
            .dependent_dims(nest)
            .iter()
            .map(|d| trips[d.index()].max(1))
            .product()
    }

    pub fn evaluate(
        t: &TechParams,
        hw: &HwConfig,
        mapping: &Mapping,
        nest: &LoopNest,
    ) -> Result<Outputs, EvalError> {
        let (sd1, sd2) = mapping.spatial();
        let l1_tile = mapping.l1_tile();
        let e1 = l1_tile[sd1.index()];
        let e2 = l1_tile[sd2.index()];
        if e1 == 1 && e2 == 1 && hw.num_pes() > 1 {
            return Err(EvalError::DegenerateSpatial);
        }
        let active_pes = e1.min(u64::from(hw.pe_x())) * e2.min(u64::from(hw.pe_y()));

        let fp1 = mapping.l1_footprint(nest, t.bytes_per_elem);
        let per_pe = fp1.total().div_ceil(active_pes) * 2;
        if per_pe > hw.l1_bytes() {
            return Err(EvalError::L1Overflow {
                required: per_pe,
                available: hw.l1_bytes(),
            });
        }
        let fp2 = mapping.l2_footprint(nest, t.bytes_per_elem);
        let l2_need = fp2.total() * 2;
        if l2_need > hw.l2_bytes() {
            return Err(EvalError::L2Overflow {
                required: l2_need,
                available: hw.l2_bytes(),
            });
        }

        let t2 = mapping.num_l2_tiles(nest) as f64;
        let t1 = mapping.num_l1_tiles_per_l2() as f64;
        let mut serial: u64 = 1;
        for d in Dim::ALL {
            if d != sd1 && d != sd2 {
                serial *= l1_tile[d.index()];
            }
        }
        let cycles_per_l1_tile = e1.div_ceil(u64::from(hw.pe_x())) as f64
            * e2.div_ceil(u64::from(hw.pe_y())) as f64
            * serial as f64;

        let compute_cycles = t2 * t1 * cycles_per_l1_tile;
        let macs = nest.macs() as f64;
        let num_pes = hw.num_pes() as f64;
        let utilization = macs / (compute_cycles * num_pes).max(1.0);

        let l1_trips = mapping.l1_trip_counts();
        let l2_trips = mapping.l2_trip_counts(nest);
        let order = mapping.order();
        let stationary = match hw.dataflow() {
            Dataflow::WeightStationary => TensorKind::Weight,
            Dataflow::OutputStationary => TensorKind::Output,
        };

        let mut noc_bytes_per_l2 = 0.0f64;
        for tensor in TensorKind::ALL {
            let loads = if tensor == stationary {
                min_loads(tensor, nest, &l1_trips)
            } else {
                tensor_loads(tensor, nest, &l1_trips, &order)
            } as f64;
            let tile_min = min_loads(tensor, nest, &l1_trips) as f64;
            let fp = match tensor {
                TensorKind::Input => fp1.input,
                TensorKind::Weight => fp1.weight,
                TensorKind::Output => fp1.output,
            } as f64;
            let effective = if tensor == TensorKind::Output {
                2.0 * loads - tile_min
            } else {
                loads
            };
            noc_bytes_per_l2 += fp * effective;
        }
        let noc_bytes = noc_bytes_per_l2 * t2;
        let noc_cycles = noc_bytes / f64::from(hw.noc_bytes_per_cycle());

        let mut dram_bytes = 0.0f64;
        for tensor in TensorKind::ALL {
            let loads = tensor_loads(tensor, nest, &l2_trips, &order) as f64;
            let tile_min = min_loads(tensor, nest, &l2_trips) as f64;
            let fp = match tensor {
                TensorKind::Input => fp2.input,
                TensorKind::Weight => fp2.weight,
                TensorKind::Output => fp2.output,
            } as f64;
            let effective = if tensor == TensorKind::Output {
                2.0 * loads - tile_min
            } else {
                loads
            };
            dram_bytes += fp * effective;
        }
        let dram_cycles = dram_bytes / t.dram_bytes_per_cycle;

        let total_cycles = compute_cycles.max(noc_cycles).max(dram_cycles)
            + t2 * t.tile_overhead_cycles
            + t.launch_overhead_cycles;
        let latency_s = total_cycles / t.clock_hz;

        let bf = t.bytes_per_elem as f64;
        let mut e_local = 0.0f64;
        for tensor in TensorKind::ALL {
            let e_per_byte = if tensor == stationary {
                t.e_reg_pj_per_byte
            } else {
                t.e_l1_pj_per_byte
            };
            let per_mac_bytes = match tensor {
                TensorKind::Input | TensorKind::Weight => bf,
                TensorKind::Output => 2.0 * bf,
            };
            e_local += macs * per_mac_bytes * e_per_byte;
        }
        let area = area_mm2(t, hw);
        let e_mac = macs * t.e_mac_pj;
        let e_noc = noc_bytes * t.e_noc_pj_per_byte;
        let e_l2 = (noc_bytes + dram_bytes) * t.e_l2_pj_per_byte;
        let e_dram = dram_bytes * t.e_dram_pj_per_byte;
        let e_leak = t.leakage_mw_per_mm2 * area * latency_s * 1e9;
        let energy_pj = e_mac + e_local + e_noc + e_l2 + e_dram + e_leak;
        let power_mw = energy_pj / (latency_s * 1e9);

        Ok(Outputs {
            latency_s,
            power_mw,
            area_mm2: area,
            energy_pj,
            compute_cycles,
            noc_cycles,
            dram_cycles,
            total_cycles,
            utilization,
            noc_bytes,
            dram_bytes,
            active_pes,
        })
    }
}

/// The refactored generic engine at `f64` is bit-identical to the frozen
/// pre-refactor transcription — every PPA and breakdown field, every
/// feasibility error, over a grid of sampled configs × candidate
/// mappings for both technology presets.
#[test]
fn generic_core_matches_prerefactor_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(211);
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for (tech, hw_space) in [
        (TechParams::default(), HwSpace::edge()),
        (TechParams::cloud(), HwSpace::cloud()),
    ] {
        let model = AnalyticalModel::new(tech);
        for (ni, nest) in grid().iter().enumerate() {
            for ci in 0..4 {
                let hw = hw_space.sample(&mut rng);
                for (mi, m) in candidates(nest, &mut rng).iter().enumerate() {
                    let label = format!("nest {ni} config {ci} mapping {mi}");
                    let got = model.evaluate_detailed(&hw, m, nest);
                    let want = prerefactor::evaluate(&tech, &hw, m, nest);
                    match (got, want) {
                        (Ok((ppa, bd)), Ok(r)) => {
                            feasible += 1;
                            for (x, y, f) in [
                                (ppa.latency_s, r.latency_s, "latency_s"),
                                (ppa.power_mw, r.power_mw, "power_mw"),
                                (ppa.area_mm2, r.area_mm2, "area_mm2"),
                                (ppa.energy_pj, r.energy_pj, "energy_pj"),
                                (bd.compute_cycles, r.compute_cycles, "compute_cycles"),
                                (bd.noc_cycles, r.noc_cycles, "noc_cycles"),
                                (bd.dram_cycles, r.dram_cycles, "dram_cycles"),
                                (bd.total_cycles, r.total_cycles, "total_cycles"),
                                (bd.utilization, r.utilization, "utilization"),
                                (bd.noc_bytes, r.noc_bytes, "noc_bytes"),
                                (bd.dram_bytes, r.dram_bytes, "dram_bytes"),
                            ] {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{label}: {f} differs ({x} vs {y})"
                                );
                            }
                            assert_eq!(bd.active_pes, r.active_pes, "{label}: active_pes");
                        }
                        (Err(a), Err(b)) => {
                            infeasible += 1;
                            assert_eq!(a, b, "{label}: error kind diverged");
                        }
                        (a, b) => panic!(
                            "{label}: feasibility diverged: engine {:?} reference {:?}",
                            a.map(|(p, _)| p),
                            b.map(|r| r.latency_s)
                        ),
                    }
                }
            }
        }
    }
    assert!(
        feasible > 0 && infeasible > 0,
        "grid must exercise both paths (feasible {feasible}, infeasible {infeasible})"
    );
}

#[test]
fn analytical_data_centric_batch_matches_scalar() {
    run_differential(
        |cache| {
            let p = SpatialPlatform::edge().with_engine(PpaEngine::DataCentric);
            match cache {
                Some(c) => p.with_eval_cache(c),
                None => p,
            }
        },
        "data-centric",
        101,
        3,
    );
}

#[test]
fn analytical_loop_centric_batch_matches_scalar() {
    run_differential(
        |cache| {
            let p = SpatialPlatform::edge().with_engine(PpaEngine::LoopCentric);
            match cache {
                Some(c) => p.with_eval_cache(c),
                None => p,
            }
        },
        "loop-centric",
        103,
        3,
    );
}

#[test]
fn ascend_cycle_level_batch_matches_scalar() {
    run_differential(
        |cache| {
            let p = AscendPlatform::new();
            match cache {
                Some(c) => p.with_eval_cache(c),
                None => p,
            }
        },
        "ascend",
        107,
        2,
    );
}

#[test]
fn cloud_platform_batch_matches_scalar() {
    run_differential(
        |cache| {
            let p = SpatialPlatform::cloud();
            match cache {
                Some(c) => p.with_eval_cache(c),
                None => p,
            }
        },
        "cloud",
        109,
        2,
    );
}
