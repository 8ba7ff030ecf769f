//! Heap-allocation count of the per-candidate `assess` path.
//!
//! The annealing searcher assesses one candidate at a time, so any heap
//! allocation on the scalar path is paid once per proposed mapping. A
//! counting global allocator pins the path at **zero** allocations per
//! `assess` for both spatial engines, in the two steady states:
//!
//! * warm cache — every key hits: key hashing (bind-time prefix plus the
//!   streamed canonical mapping) and the shard lookup;
//! * no cache — every candidate is evaluated: the stack-derived
//!   `MappingRow` and the engine's row body.
//!
//! Counts are per thread, so the test harness's own allocations on
//! other threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_mapping::{Mapping, MappingCost, MappingSpace};
use unico_model::{
    AnalyticalModel, BoundLoopCentricCost, BoundSpatialCost, Dataflow, EvalCache, HwConfig,
    LoopCentricModel, MappingObjective, TechParams,
};
use unico_workloads::{Dim, LoopNest, TensorOp, DIM_COUNT};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn nests() -> Vec<LoopNest> {
    vec![
        TensorOp::Conv2d {
            n: 1,
            k: 32,
            c: 16,
            y: 14,
            x: 14,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest(),
        TensorOp::DepthwiseConv2d {
            n: 1,
            c: 32,
            y: 28,
            x: 28,
            r: 3,
            s: 3,
            stride: 2,
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

/// Random samples plus the identity mapping and an all-unit L1 tiling
/// (a degenerate spatial unrolling), so the infeasible path is measured
/// too.
fn candidates(nest: &LoopNest, rng: &mut StdRng) -> Vec<Mapping> {
    let space = MappingSpace::new(nest);
    let mut ms: Vec<Mapping> = (0..48).map(|_| space.sample(rng)).collect();
    ms.push(Mapping::identity(nest));
    ms.push(Mapping::new(
        nest,
        nest.extents(),
        [1; DIM_COUNT],
        Dim::ALL,
        (Dim::K, Dim::Y),
    ));
    ms
}

fn hw() -> HwConfig {
    HwConfig::new(8, 8, 2048, 128 * 1024, 64, Dataflow::WeightStationary)
}

/// Asserts zero allocations per `assess` over `mappings` for an
/// uncached cost and, after one populating pass, a warm-cached one.
fn assert_alloc_free(
    label: &str,
    uncached: &dyn MappingCost,
    cached: &dyn MappingCost,
    mappings: &[Mapping],
) {
    let mut feasible = 0usize;
    let n = allocations_during(|| {
        for m in mappings {
            feasible += usize::from(uncached.assess(m).is_some());
        }
    });
    assert_eq!(n, 0, "{label}: uncached assess allocated {n} times");
    assert!(
        feasible > 0 && feasible < mappings.len(),
        "{label}: candidates must cover feasible and infeasible paths ({feasible})"
    );

    for m in mappings {
        let _ = cached.assess(m);
    }
    let n = allocations_during(|| {
        for m in mappings {
            std::hint::black_box(cached.assess(m));
        }
    });
    assert_eq!(n, 0, "{label}: warm-cache assess allocated {n} times");
}

#[test]
fn counting_allocator_sees_heap_allocations() {
    let n = allocations_during(|| {
        std::hint::black_box(vec![0u8; 32]);
    });
    assert_eq!(n, 1);
}

#[test]
fn data_centric_assess_is_allocation_free() {
    let model = AnalyticalModel::new(TechParams::default());
    let mut rng = StdRng::seed_from_u64(41);
    for (ni, nest) in nests().iter().enumerate() {
        let mappings = candidates(nest, &mut rng);
        for objective in [MappingObjective::Latency, MappingObjective::Edp] {
            let cache = EvalCache::new();
            let uncached =
                BoundSpatialCost::new(&model, hw(), *nest, 1.0).with_objective(objective);
            let cached = uncached.clone().with_cache(Some(&cache));
            let label = format!("data-centric nest {ni} {objective:?}");
            assert_alloc_free(&label, &uncached, &cached, &mappings);
        }
    }
}

#[test]
fn loop_centric_assess_is_allocation_free() {
    let model = LoopCentricModel::new(TechParams::default());
    let mut rng = StdRng::seed_from_u64(43);
    for (ni, nest) in nests().iter().enumerate() {
        let mappings = candidates(nest, &mut rng);
        for objective in [MappingObjective::Latency, MappingObjective::Edp] {
            let cache = EvalCache::new();
            let uncached =
                BoundLoopCentricCost::new(&model, hw(), *nest, 1.0).with_objective(objective);
            let cached = uncached.clone().with_cache(Some(&cache));
            let label = format!("loop-centric nest {ni} {objective:?}");
            assert_alloc_free(&label, &uncached, &cached, &mappings);
        }
    }
}
