//! Differential cross-check of the analytical spatial engines (the
//! data-centric and the loop-centric one) against the cycle-level
//! Ascend-like engine.
//!
//! The engines model very different machines (a 16×16 PE array with
//! explicit NoC vs. a 16×16×16 cube with a multi-level scratchpad
//! hierarchy), so bit-agreement is not the goal. What the suite pins down
//! is that, over a grid of small convolution layers, each spatial engine
//! lands in the same physical regime as the cycle model:
//!
//! * latency within an 8× band of each other (measured spread on the
//!   grid: 0.6×–4.0×),
//! * energy per MAC within an 8× band of each other (measured spread:
//!   0.36×–2.1×) and inside an absolute 0.5–50 pJ/MAC sanity window,
//! * compute utilization in `(0, 1]` for all three,
//!
//! and that routing any engine through [`EvalCache`] — via the reference
//! key functions or via the bound costs, whose keys must equal them —
//! returns results bit-for-bit identical to the uncached path.

use unico_camodel::{
    ascend_eval_key, AscendConfig, AscendModel, BoundAscendCost, DepthFirstFusionSearch,
};
use unico_mapping::{Mapping, MappingCost};
use unico_model::{
    spatial_eval_key, AnalyticalModel, BoundLoopCentricCost, BoundSpatialCost, Dataflow, EngineTag,
    EvalCache, EvalError, EvalKey, HwConfig, LoopCentricModel, MappingObjective, Ppa, TechParams,
};
use unico_workloads::{Dim, LoopNest, TensorOp};

/// Latency and energy-per-MAC of the two engines must agree within this
/// factor (either direction). Chosen as ~2× headroom over the measured
/// spread on the layer grid below.
const RATIO_TOLERANCE: f64 = 8.0;

/// Absolute sanity window for energy per MAC, in pJ. Both engines charge
/// a few pJ per MAC on these layers; an order-of-magnitude escape in
/// either direction means a unit bug, not a modeling difference.
const ENERGY_PJ_PER_MAC: (f64, f64) = (0.5, 50.0);

/// Small conv layers `(k, c, y=x)`, all with 3×3 kernels and stride 1.
/// Sized so both the 16×16 spatial array and the Ascend cube find a
/// feasible mapping without search.
const GRID: [(u64, u64, u64); 5] = [
    (8, 8, 8),
    (16, 8, 14),
    (16, 16, 14),
    (32, 16, 28),
    (8, 16, 8),
];

fn layer(k: u64, c: u64, yx: u64) -> LoopNest {
    TensorOp::Conv2d {
        n: 1,
        k,
        c,
        y: yx,
        x: yx,
        r: 3,
        s: 3,
        stride: 1,
    }
    .to_loop_nest()
}

/// A conservative hand-rolled mapping for the analytical engine: small L1
/// tiles that fit every layer in the grid on the reference hardware.
fn small_mapping(n: &LoopNest) -> Mapping {
    let mut l2 = n.extents();
    l2[Dim::C.index()] = l2[Dim::C.index()].min(16);
    let mut l1 = [1u64; 7];
    l1[Dim::K.index()] = n.extent(Dim::K).min(8);
    l1[Dim::Y.index()] = n.extent(Dim::Y).min(8);
    l1[Dim::X.index()] = n.extent(Dim::X).min(4);
    l1[Dim::C.index()] = n.extent(Dim::C).min(4);
    Mapping::new(n, l2, l1, Dim::ALL, (Dim::K, Dim::Y))
}

fn assert_same_bits(a: &Ppa, b: &Ppa, what: &str) {
    for (x, y, f) in [
        (a.latency_s, b.latency_s, "latency_s"),
        (a.power_mw, b.power_mw, "power_mw"),
        (a.area_mm2, b.area_mm2, "area_mm2"),
        (a.energy_pj, b.energy_pj, "energy_pj"),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cached {f} differs from uncached ({x} vs {y})"
        );
    }
}

fn within_ratio(a: f64, b: f64) -> bool {
    let r = a / b;
    r.is_finite() && (1.0 / RATIO_TOLERANCE..=RATIO_TOLERANCE).contains(&r)
}

#[test]
fn engines_agree_on_small_layer_grid() {
    let model = AnalyticalModel::new(TechParams::default());
    let lc_model = LoopCentricModel::new(TechParams::default());
    let hw = HwConfig::new(16, 16, 4096, 512 * 1024, 128, Dataflow::WeightStationary);
    let ca_model = AscendModel::default();
    let ca_hw = AscendConfig::expert_default();

    // Both machines are clocked at 1 GHz; peak MACs/cycle is the PE count
    // for the spatial array and the cube volume for Ascend.
    let peak_spatial = 16.0 * 16.0 * 1.0e9;
    let peak_ascend = 4096.0 * 1.0e9;

    for (k, c, yx) in GRID {
        let nest = layer(k, c, yx);
        let m = small_mapping(&nest);
        let ca_m = DepthFirstFusionSearch::seed_mapping(&ca_hw, &nest);
        let pb = ca_model
            .evaluate(&ca_hw, &ca_m, &nest)
            .unwrap_or_else(|e| panic!("conv k={k} c={c} y=x={yx}: ascend infeasible: {e:?}"));
        for (engine, pa) in [
            ("data-centric", model.evaluate(&hw, &m, &nest)),
            ("loop-centric", lc_model.evaluate(&hw, &m, &nest)),
        ] {
            let label = format!("{engine} conv k={k} c={c} y=x={yx}");
            let pa = pa.unwrap_or_else(|e| panic!("{label}: spatial engine infeasible: {e:?}"));
            assert_same_regime(&label, &nest, &pa, &pb, peak_spatial, peak_ascend);
        }
    }
}

/// The physical-regime checks of one spatial engine result `pa` against
/// the cycle model's `pb` on the same layer.
fn assert_same_regime(
    label: &str,
    nest: &LoopNest,
    pa: &Ppa,
    pb: &Ppa,
    peak_spatial: f64,
    peak_ascend: f64,
) {
    let macs = nest.macs() as f64;

    // Latency band.
    assert!(
        within_ratio(pa.latency_s, pb.latency_s),
        "{label}: latency disagrees beyond {RATIO_TOLERANCE}x: \
         analytical {:.3e}s vs ascend {:.3e}s",
        pa.latency_s,
        pb.latency_s,
    );

    // Energy-per-MAC band, relative and absolute.
    let (ea, eb) = (pa.energy_pj / macs, pb.energy_pj / macs);
    assert!(
        within_ratio(ea, eb),
        "{label}: energy/MAC disagrees beyond {RATIO_TOLERANCE}x: \
         analytical {ea:.3} pJ vs ascend {eb:.3} pJ",
    );
    for (e, engine) in [(ea, "analytical"), (eb, "ascend")] {
        assert!(
            (ENERGY_PJ_PER_MAC.0..=ENERGY_PJ_PER_MAC.1).contains(&e),
            "{label}: {engine} energy/MAC {e:.3} pJ outside sanity window",
        );
    }

    // Neither engine may report super-peak throughput.
    for (p, peak, engine) in [
        (pa, peak_spatial, "analytical"),
        (pb, peak_ascend, "ascend"),
    ] {
        let util = macs / p.latency_s / peak;
        assert!(
            util > 0.0 && util <= 1.0,
            "{label}: {engine} utilization {util:.4} outside (0, 1]",
        );
    }
}

/// A deferred uncached evaluation of one engine.
type Evaluate<'a> = &'a dyn Fn() -> Result<Ppa, EvalError>;

#[test]
fn cached_results_match_uncached_bit_for_bit() {
    let model = AnalyticalModel::new(TechParams::default());
    let lc_model = LoopCentricModel::new(TechParams::default());
    let hw = HwConfig::new(16, 16, 4096, 512 * 1024, 128, Dataflow::WeightStationary);
    let ca_model = AscendModel::default();
    let ca_hw = AscendConfig::expert_default();
    let cache = EvalCache::new();

    for (k, c, yx) in GRID {
        let nest = layer(k, c, yx);
        let label = format!("conv k={k} c={c} y=x={yx}");

        let m = small_mapping(&nest);
        let spatial: [(&str, EngineTag, Evaluate<'_>, EvalKey); 2] = [
            (
                "data-centric",
                EngineTag::DataCentric,
                &|| model.evaluate(&hw, &m, &nest),
                BoundSpatialCost::new(&model, hw, nest, 1.0).eval_key(&m),
            ),
            (
                "loop-centric",
                EngineTag::LoopCentric,
                &|| lc_model.evaluate(&hw, &m, &nest),
                BoundLoopCentricCost::new(&lc_model, hw, nest, 1.0).eval_key(&m),
            ),
        ];
        for (engine, tag, evaluate, bound_key) in spatial {
            let direct = evaluate().expect("feasible");
            let key = spatial_eval_key(tag, &hw, &m, &nest, MappingObjective::Latency);
            assert_eq!(bound_key, key, "{label} {engine}: bound key diverged");
            // First pass populates, second pass must serve the hit —
            // both must be bitwise identical to the direct evaluation.
            for pass in 0..2 {
                let cached = cache.get_or_compute(key, evaluate).expect("feasible");
                assert_same_bits(&direct, &cached, &format!("{label} {engine} pass {pass}"));
            }
        }

        let ca_m = DepthFirstFusionSearch::seed_mapping(&ca_hw, &nest);
        let direct = ca_model.evaluate(&ca_hw, &ca_m, &nest).expect("feasible");
        let key = ascend_eval_key(&ca_hw, &ca_m, &nest);
        let bound = BoundAscendCost::new(&ca_model, ca_hw, nest);
        assert_eq!(
            bound.eval_key(&ca_m),
            key,
            "{label} ascend: bound key diverged"
        );
        for pass in 0..2 {
            let cached = cache
                .get_or_compute(key, || ca_model.evaluate(&ca_hw, &ca_m, &nest))
                .expect("feasible");
            assert_same_bits(&direct, &cached, &format!("{label} ascend pass {pass}"));
        }
        let o = bound
            .with_cache(Some(&cache))
            .assess(&ca_m)
            .expect("feasible");
        assert_eq!(o.latency_s.to_bits(), direct.latency_s.to_bits());
    }

    // Every grid entry missed once and hit once per engine; the bound
    // Ascend cost's assess hit the entry its reference key populated.
    let s = cache.stats();
    assert_eq!(s.misses, 3 * GRID.len() as u64);
    assert_eq!(s.hits, 4 * GRID.len() as u64);
}
